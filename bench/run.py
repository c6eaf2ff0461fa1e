"""Benchmark runner for rigidity-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, seed 0, untraced

Each workload runs in its own fresh interpreter (``worker.py``), driving the
program in-process through ``rigidity_lab.cli.main``.  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json; ``setup_s`` is the
median of three set-ups, two in extra interpreters that stop after set-up.
With ``--trace 1`` the run wraps the layers and reports the per-layer
metrics instead.  The last line on stdout is one JSON object; results and
spans are also written under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3


def _worker(args, deadline, *extra) -> dict:
    """Runs worker.py to completion and returns its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec, deadline) -> dict:
    name = args.workload
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}"
    setups = []
    if not args.trace:
        setups = [_worker(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(args, deadline,
                  *(("--spans", f"{stem}.spans.jsonl") if args.trace else ()))
    setups.append(res["setup_s"])
    values = dict(res["layers"] or {}) if args.trace else {
        "setup_s": statistics.median(setups),
        "polyhedra_per_s": res["polyhedra_per_s"],
        "polyhedron_s.p50": res["polyhedron_s.p50"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}

    n = res["attempted"]
    print(f"{name} seed={args.seed} trace={args.trace}: {n} operations "
          f"attempted ({res['rounds']} round(s), {res['wall_s']:.2f} s), "
          f"{res['failed']} failed, outputs "
          f"{'correct' if res['correct'] else 'WRONG'}")
    for key, m in metrics.items():
        print(f"  {key:45s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        ops = n // res["rounds"]
        print(f"  setup_s is the median of {len(setups)} set-ups; "
              f"polyhedron_s.p50 is over {ops} operations, each timed by "
              f"its mean over {res['rounds']} round(s)")
        if ops >= 100:
            print(f"  {'polyhedron_s.p90':45s} {res['polyhedron_s.p90']:14.6g} s"
                  f" (over {ops} operations)")
    else:
        print(f"  traced polyhedra_per_s {res['polyhedra_per_s']:.6g} 1/s; "
              f"spans in {stem}.spans.jsonl")
        for missing in res["untraced_layers"]:
            print(f"  not traced: {missing} no longer exists")

    out = {"correct": res["correct"], "attempted": n,
           "failed": res["failed"], "metrics": metrics}
    (stem.with_suffix(".json")).write_text(
        json.dumps({**out, "setups_s": setups, "worker": res}, indent=1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = tuple(w["name"] for w in spec["workloads"])
    p.add_argument("--workload", choices=workloads + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rigidity_lab" / "__init__.py").is_file():
        print(f"run.py: no rigidity_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(args, spec, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError) as exc:
            print(f"run.py: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1
                     else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
