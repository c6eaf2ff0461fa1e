"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a tiny round of every workload through the program and requires the
checks to pass on it.  Then it tampers with one output at a time (a flipped
verdict, a nullity off by one, a perturbed singular value, ...) and requires
the checks to reject each.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import workloads as wl
from worker import _import_cli

SEED = 7


def _retext(out: wl.Outcome, edit) -> wl.Outcome:
    doc = json.loads(out.stdout)
    edit(doc)
    return replace(out, stdout=json.dumps(doc))


def _row(edit):
    """Tampers with the single row of a sweep document."""
    return lambda doc: edit(doc["rows"][0])


def _set(**kv):
    return lambda d: d.update(kv)


def _nested(key, **kv):
    return lambda d: d[key].update(kv)


def main() -> int:
    os.environ["RIGIDITY_LAB_THREADS"] = "1"
    cli = _import_cli()
    bad = []

    def expect(workload, ops, outs, *, ok, failed=0, case, needle=""):
        """``needle``: a rejection must include an error containing it."""
        v = wl.Checker(workload, cli.main).check_round(ops, outs)
        good = ((not v.errors) == ok and v.failed == failed
                and (ok or any(needle in e for e in v.errors)))
        print(f"{'ok  ' if good else 'FAIL'} {workload}: {case}"
              f"{'' if ok else ' rejected' if v.errors else ' NOT rejected'}")
        if not good:
            bad.append(case)
            for e in v.errors:
                print(f"       {e}")

    def tampered(workload, ops, outs, k, edit, case, needle=""):
        outs = list(outs)
        outs[k] = _retext(outs[k], edit)
        expect(workload, ops, outs, ok=False, case=case, needle=needle)

    # Convex hulls: the 12-vertex one; the known fault on fake outcomes.
    ops = wl.round_ops("hull-analyze", SEED, hull_sizes=(12,), big=False)
    outs = [wl.run_op(cli.main, op) for op in ops]
    expect("hull-analyze", ops, outs, ok=True, case="smoke round passes")
    rep = json.loads(outs[0].stdout)
    for case, edit in (
            ("flipped verdict", _set(verdict="Flexible")),
            ("flipped stiffness verdict", _nested("stiffness", verdict="Flexible")),
            ("oracles disagree", _set(oracles_agree=False)),
            ("zero eigenvalue", _nested("stiffness", n_zero=1)),
            ("negative eigenvalue", _nested("stiffness", n_negative=1)),
            ("eigenvalue missing", _nested(
                "stiffness", eigenvalues=rep["stiffness"]["eigenvalues"][1:])),
            ("deformation nullity off by one", _nested("deformation", nullity=7)),
            ("not weakly convex", _nested("weakly_convex", overall=False))):
        tampered("hull-analyze", ops, outs, 0, edit, case)
    big = wl.Op(("analyze", "-", "--json"), info={"n": wl.BIG_HULL_SIZE})
    fault = wl.Outcome(2, "", "OutOfDomain: length assignment leaves the "
                              "admissible domain\n", 1.0)
    expect("hull-analyze", [big], [fault], ok=True, failed=1,
           case="48-vertex OutOfDomain counts as failed, not wrong")
    expect("hull-analyze", [big],
           [replace(fault, rc=1, stderr="Traceback (most recent call last)")],
           ok=False, failed=1, case="48-vertex traceback")
    expect("hull-analyze", [big], [replace(fault, stderr="ParseError: x")],
           ok=False, failed=1, case="48-vertex other error")
    expect("hull-analyze", ops, [fault], ok=False, failed=1,
           case="OutOfDomain on a seeded hull")

    # Schonhardt sweep: six rows.
    ops = wl.round_ops("schonhardt-sweep", SEED, rows=6)
    outs = [wl.run_op(cli.main, op) for op in ops]
    expect("schonhardt-sweep", ops, outs, ok=True, case="smoke round passes")
    svs = [json.loads(o.stdout)["rows"][0]["smallest_nontrivial_sv"] for o in outs]
    near = min(range(len(ops)), key=lambda k: svs[k])
    far = (near + 3) % len(ops)
    for k, case, edit, needle in (
            (far, "Flexible away from pi/6",
             _set(verdict="Flexible", flexible=True), "away from pi/6"),
            (far, "singular value off by 1e-6 relative",
             _set(smallest_nontrivial_sv=svs[far] * (1 + 1e-6)), "own SVD"),
            (near, "minimum moved off the sample nearest pi/6",
             _set(smallest_nontrivial_sv=2 * max(svs)), "nearest pi/6"),
            (far, "not weakly convex", _set(weakly_convex=False), "weakly convex"),
            (far, "decomposable", _set(decomposable=True), "non-decomposable")):
        tampered("schonhardt-sweep", ops, outs, k, _row(edit), case, needle)
    print(f"{len(bad)} case(s) misbehaved" if bad else "all checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
