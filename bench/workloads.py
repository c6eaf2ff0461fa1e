"""The benchmark's workloads: their inputs, built from a seed, and the checks
that every operation's output must pass.

An operation is one polyhedron carried to a verdict through
``rigidity_lab.cli.main`` with the argv a user would type.  A round is the
fixed list of operations a workload repeats; a run attempts whole rounds, so
the share of failed operations is the same in every run.

The checks recompute what they can without the program (scipy's convex hull,
numpy's rank and SVD of a rigidity matrix built here from the surface edges)
or test a property the method must have (Dehn's theorem, Theorem 1 with
m = k = 0).  None compares against a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

SCHEMA = "rigidity-lab/1"

# Seeded convex hulls of a round, by size.  The sizes are fixed and only the
# points depend on the seed, so every seed gives a round of the same cost up
# to geometry.  The middle size comes twice: with the 48-vertex hull a round
# has six operations, and the median is the mean of the two 24-vertex ones.
# With one hull per size it would be the time of a single operation, which
# the host's drift moves by 20 %.  A round takes 18-26 s, so a run of 50 s
# mostly holds two, and each operation's time is a mean over both.
HULL_SIZES = (12, 16, 24, 24, 28)
# The fan apex has this degree, so a hull of n vertices always gives
# 2n - 4 - 5 tetrahedra and n - 6 interior edges.
HULL_APEX_DEGREE = 5
# Thinnest admissible fan tetrahedron for the seeded hulls.  Thinner ones
# make the central finite difference at eps = 1e-6 leave the domain
# (OutOfDomain), which would fail on some seeds only; that fault is kept in
# the benchmark by the fixed 48-vertex hull instead.
HULL_MIN_TET_VOLUME = 1e-4
BIG_HULL_SIZE = 48

SCHONHARDT_ROWS = 100
SV_RTOL = 1e-9


@dataclass
class Op:
    """One operation: the argv for ``cli.main``, optional stdin, and what
    the checks need to know about the input."""
    argv: tuple
    stdin: str | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int | None          # None: cli.main raised instead of returning
    stdout: str
    stderr: str
    seconds: float


class Verdicts:
    """Check results of one round: the number of operations that failed,
    and errors (wrong outputs, and failures other than the known fault)."""

    def __init__(self):
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: set[str] = set()   # operations with a wrong output
        self.tag = ""                  # the operation being checked

    def expect(self, ok: bool, what: str):
        if not ok:
            self.errors.append(what)
            self.wrong.add(self.tag)

    def succeeded(self, tag: str, out: "Outcome", known_fault=False) -> bool:
        """Starts the checks of one operation.  Counts a failed operation;
        a failure is an error unless it is the known fault."""
        self.tag = tag
        if out.rc == 0:
            return True
        self.failed += 1
        if not known_fault:
            self.errors.append(f"{tag}: exit {out.rc}: {out.stderr.strip()[-300:]}")
        return False


def run_op(cli_main, op: Op) -> Outcome:
    """Runs one operation in this process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    if op.stdin is not None:
        sys.stdin = io.StringIO(op.stdin)
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(op.argv))
    except Exception:  # a traceback is a wrong result, reported by the checks
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin = stdin
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds)


# -- independent computations -------------------------------------------

def surface_edges(faces) -> list[tuple[int, int]]:
    return sorted({tuple(sorted((int(f[k]), int(f[(k + 1) % 3]))))
                   for f in faces for k in range(3)})


def rigidity_matrix(vertices, faces) -> np.ndarray:
    """|E| x 3|V| matrix of the first-order edge-length conditions."""
    p = np.asarray(vertices, dtype=float)
    edges = surface_edges(faces)
    r = np.zeros((len(edges), 3 * len(p)))
    for row, (i, j) in enumerate(edges):
        d = p[i] - p[j]
        r[row, 3 * i:3 * i + 3] = d
        r[row, 3 * j:3 * j + 3] = -d
    return r


def nullity(vertices, faces) -> int:
    r = rigidity_matrix(vertices, faces)
    return r.shape[1] - int(np.linalg.matrix_rank(r))


def smallest_nontrivial_sv(vertices, faces) -> float:
    """The (3V-7)-th singular value in decreasing order: the six trivial
    motions always lie in the null space."""
    r = rigidity_matrix(vertices, faces)
    ncols = r.shape[1]
    sv = np.sort(np.linalg.svd(r, compute_uv=False))[::-1]
    sv = np.concatenate([sv, np.zeros(max(0, ncols - len(sv)))])
    return float(sv[ncols - 7])


def all_extreme(vertices) -> bool:
    """Every vertex is an extreme point of the convex hull."""
    p = np.asarray(vertices, dtype=float)
    return len(set(ConvexHull(p).vertices.tolist())) == len(p)


# -- inputs ---------------------------------------------------------------

def _sphere_points(rng, n) -> np.ndarray:
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


def _fan_volumes(p, faces, apex) -> np.ndarray:
    tets = [f for f in faces if apex not in f]
    a = p[apex]
    return np.array([abs(np.linalg.det(np.array([p[i] - a, p[j] - a, p[k] - a])))
                     for i, j, k in tets]) / 6.0


def hull_document(p, apex: int) -> tuple[str, dict]:
    """A convex-hull surface with the fan triangulation from ``apex``, as a
    polyhedron document, plus what the checks need."""
    faces = [[int(i) for i in f] for f in ConvexHull(p).simplices]
    tets = [[apex] + f for f in faces if apex not in f]
    doc = {"schema": SCHEMA, "vertices": p.tolist(), "faces": faces,
           "triangulation": tets}
    n_interior = len({tuple(sorted((apex, v))) for t in tets for v in t[1:]}
                     - set(surface_edges(faces)))
    info = {"n": len(p), "vertices": p, "faces": faces,
            "n_interior": n_interior}
    return json.dumps(doc), info


def seeded_hull(rng, n) -> tuple[str, dict]:
    """Points on the unit sphere, redrawn until some vertex of degree
    HULL_APEX_DEGREE gives a fan whose thinnest tetrahedron has volume at
    least HULL_MIN_TET_VOLUME; the best such vertex is the apex."""
    while True:
        p = _sphere_points(rng, n)
        faces = [tuple(int(i) for i in f) for f in ConvexHull(p).simplices]
        degree = np.zeros(n, dtype=int)
        for i, j in surface_edges(faces):
            degree[i] += 1
            degree[j] += 1
        best, apex = 0.0, None
        for v in np.flatnonzero(degree == HULL_APEX_DEGREE):
            vmin = float(_fan_volumes(p, faces, int(v)).min())
            if vmin > best:
                best, apex = vmin, int(v)
        if apex is not None and best >= HULL_MIN_TET_VOLUME:
            return hull_document(p, apex)


def big_hull() -> tuple[str, dict]:
    """The 48-vertex hull of ROADMAP item 2: ``default_rng(0)``, normalised
    standard-normal points drawn after the 12- and 24-point sets, fan from
    vertex 0 (88 tetrahedra, 43 interior edges, thinnest volume 4.6e-6)."""
    rng = np.random.default_rng(0)
    _sphere_points(rng, 12)
    _sphere_points(rng, 24)
    return hull_document(_sphere_points(rng, BIG_HULL_SIZE), apex=0)


def _sweep_argv(generator, param, value) -> tuple:
    return ("sweep", generator, param, f"{value!r}..{value!r}",
            "--step", "1", "--json")


def schonhardt_thetas(seed: int, rows: int = SCHONHARDT_ROWS) -> list[float]:
    """``rows`` twists spaced pi/(3 rows) apart inside (0, pi/3), offset by a
    seeded fraction u of the spacing.  u stays 0.1 or more away from 0, 1/2
    and 1, so no sample is pi/6 itself and the nearest one is unambiguous."""
    rng = np.random.default_rng([seed, 2])
    u = float(rng.uniform(0.1, 0.4))
    if rng.integers(2):
        u = 1.0 - u
    h = (math.pi / 3.0) / rows
    return [(k + u) * h for k in range(rows)]


def warmup_op(workload: str) -> Op:
    """An untimed first operation that loads what the first call of each
    layer loads."""
    if workload == "hull-analyze":
        return Op(("analyze", "octahedron", "--json"))
    return Op(_sweep_argv("schonhardt", "theta", 0.3))


def round_ops(workload: str, seed: int, *, hull_sizes=None, big=True,
              rows=SCHONHARDT_ROWS) -> list[Op]:
    """The operations of one round.  The keyword arguments shrink a round
    for the self-test; the benchmark uses the defaults."""
    if workload == "hull-analyze":
        rng = np.random.default_rng([seed, 1])
        sizes = HULL_SIZES if hull_sizes is None else hull_sizes
        docs = [seeded_hull(rng, n) for n in sizes]
        if big:
            docs.append(big_hull())
        return [Op(("analyze", "-", "--json"), stdin=text, info=info)
                for text, info in docs]
    if workload == "schonhardt-sweep":
        return [Op(_sweep_argv("schonhardt", "theta", th), info={"theta": th})
                for th in schonhardt_thetas(seed, rows)]
    raise KeyError(workload)


# -- checks ---------------------------------------------------------------

def _generated(cli_main, argv) -> dict:
    """A polyhedron document from the program's ``generate`` command."""
    out = run_op(cli_main, Op(("generate",) + tuple(argv)))
    if out.rc != 0:
        raise RuntimeError(f"generate {argv} failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def _sweep_row(out: Outcome) -> dict:
    rows = json.loads(out.stdout)["rows"]
    if len(rows) != 1:
        raise ValueError(f"expected one sweep row, got {len(rows)}")
    return rows[0]


def check_hull(ops, outcomes, v: Verdicts):
    for op, out in zip(ops, outcomes):
        n = op.info["n"]
        tag = f"hull n={n}"
        # The known fault: the central difference at eps = 1e-6 pushes a
        # thin tetrahedron of the 48-vertex fan out of the domain.
        known = (n == BIG_HULL_SIZE and out.rc == 2
                 and out.stderr.startswith("OutOfDomain"))
        if not v.succeeded(tag, out, known_fault=known):
            continue
        rep = json.loads(out.stdout)
        st, df = rep.get("stiffness", {}), rep.get("deformation", {})
        v.expect(rep.get("weakly_convex", {}).get("overall") is True
                 and all_extreme(op.info["vertices"]),
                 f"{tag}: vertices in convex position not reported weakly convex")
        v.expect(rep.get("decomposition", {}).get("kind") == "triangulation",
                 f"{tag}: supplied triangulation not used")
        v.expect(rep.get("verdict") == "Rigid" and st.get("verdict") == "Rigid"
                 and df.get("verdict") == "Rigid",
                 f"{tag}: convex polyhedron not Rigid by both oracles "
                 f"({st.get('verdict')}, {df.get('verdict')})")
        v.expect(rep.get("oracles_agree") is True, f"{tag}: oracles disagree")
        v.expect(st.get("n_negative") == 0 and st.get("n_zero") == 0,
                 f"{tag}: Theorem 1 with m = k = 0 needs no negative and no "
                 f"zero eigenvalue; got {st.get('n_negative')}, {st.get('n_zero')}")
        v.expect(len(st.get("eigenvalues", ())) == op.info["n_interior"],
                 f"{tag}: M_T has {len(st.get('eigenvalues', ()))} eigenvalues "
                 f"for {op.info['n_interior']} interior edges")
        v.expect(df.get("nullity") == 6,
                 f"{tag}: deformation nullity {df.get('nullity')} != 6 (Dehn)")
        v.expect(nullity(op.info["vertices"], op.info["faces"]) == 6,
                 f"{tag}: independent rank test does not give nullity 6")


def check_schonhardt(ops, outcomes, surfaces, v: Verdicts):
    rows = []
    for op, out in zip(ops, outcomes):
        th = op.info["theta"]
        tag = f"schonhardt theta {th!r}"
        if not v.succeeded(tag, out):
            continue
        row = _sweep_row(out)
        rows.append((op, row))
        v.expect(row.get("weakly_convex") is True and row.get("decomposable") is False,
                 f"{tag}: not weakly convex and non-decomposable")
        verts, faces = surfaces(op)
        own = smallest_nontrivial_sv(verts, faces)
        got = row.get("smallest_nontrivial_sv")
        v.expect(isinstance(got, float) and abs(got - own) <= SV_RTOL * abs(own),
                 f"{tag}: smallest_nontrivial_sv {got!r} != own SVD {own!r}")
    if len(rows) < len(ops):
        return
    nearest = min(range(len(ops)),
                  key=lambda k: abs(ops[k].info["theta"] - math.pi / 6.0))
    for k, (op, row) in enumerate(rows):
        if k != nearest:
            v.tag = f"schonhardt theta {op.info['theta']!r}"
            v.expect(row.get("verdict") == "Rigid",
                     f"{v.tag}: {row.get('verdict')} away from pi/6")
    svs = [row.get("smallest_nontrivial_sv") for _, row in rows]
    v.tag = f"schonhardt theta {ops[nearest].info['theta']!r}"
    v.expect(len(ops) < 3 or min(range(len(svs)), key=lambda k: svs[k]) == nearest,
             "smallest smallest_nontrivial_sv is not on the sample nearest pi/6")


class Checker:
    """Checks the rounds of one workload; caches the Schonhardt surfaces it
    asks the program's ``generate`` command for."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self._cli_main = cli_main
        self._surfaces: dict = {}

    def _surface(self, op):
        key = tuple(sorted(op.info.items()))
        if key not in self._surfaces:
            doc = _generated(self._cli_main,
                             ("schonhardt", "--theta", repr(op.info["theta"])))
            self._surfaces[key] = (doc["vertices"], doc["faces"])
        return self._surfaces[key]

    def check_round(self, ops, outcomes) -> Verdicts:
        v = Verdicts()
        try:
            if self.workload == "hull-analyze":
                check_hull(ops, outcomes, v)
            else:
                check_schonhardt(ops, outcomes, self._surface, v)
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            # malformed output, or ``generate`` failed
            v.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")
        return v
