"""Command-line front end: it parses polyhedron documents, generator flags
and arguments, hands the work to ``pipeline``, and renders the results as
text, JSON or an OBJ mesh.

Subcommands
-----------
generate   emit a PolyhedronDocument for a named generator
analyze    validate -> decompose -> stiffness spectrum -> deformation space
sweep      sample a generator over a parameter range
export     write a standard OBJ triangle mesh
decompose  direct access to the tetrahedralization search

Machine-readable output is a single JSON document per invocation with stable
key names and a versioned schema; identical inputs and flags yield
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import generators as gen
from . import pipeline
from .errors import (
    BadParams,
    BadRange,
    ParseError,
    RigidityLabError,
    UnknownGenerator,
)
from .geom import PolyhedralSurface
from .pipeline import analyze_surface
from .stiffness import DEFAULT_SCHEME, FDScheme, SchemeKind, TOL_EIG
from .triangulation import Triangulation

SCHEMA = "rigidity-lab/1"


def _json(obj) -> str:
    """The one serialization of every JSON document the CLI writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


# ---------------------------------------------------------------------------
# PolyhedronDocument
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    """True iff x is a JSON number that converts to a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_coordinates(rows, key: str) -> None:
    """Raise ParseError unless rows is an array of [x, y, z] finite numbers."""
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == 3
                    and all(_is_number(x) for x in r) for r in rows)):
        raise ParseError(f"{key} must be an array of [x, y, z] finite numbers")


def _is_index_rows(rows, width: int) -> bool:
    """True iff rows is an array of arrays of ``width`` integers."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and len(r) == width
        and all(isinstance(i, int) and not isinstance(i, bool) for i in r)
        for r in rows)


@dataclass
class PolyhedronDocument:
    """Versioned serialization of a surface, optionally with a triangulation
    (whose point set may extend the surface vertices) and vertex labels."""

    vertices: list
    faces: list
    triangulation: list | None = None
    points: list | None = None
    labels: dict | None = None

    def to_json(self) -> str:
        doc = {"schema": SCHEMA,
               "vertices": self.vertices,
               "faces": self.faces}
        if self.triangulation is not None:
            doc["triangulation"] = self.triangulation
        if self.points is not None:
            doc["points"] = self.points
        if self.labels is not None:
            doc["labels"] = {str(k): v for k, v in sorted(self.labels.items())}
        return _json(doc)

    @classmethod
    def from_json(cls, text: str) -> "PolyhedronDocument":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("document root must be an object")
        if doc.get("schema") != SCHEMA:
            raise ParseError(f"unknown schema {doc.get('schema')!r}; "
                             f"expected {SCHEMA!r}")
        for key in ("vertices", "faces"):
            if key not in doc:
                raise ParseError(f"missing required key {key!r}")
        vertices = doc["vertices"]
        faces = doc["faces"]
        _check_coordinates(vertices, "vertices")
        if not _is_index_rows(faces, 3):
            raise ParseError("faces must be an array of [i, j, k]")
        points = doc.get("points")
        if points is not None:
            _check_coordinates(points, "points")
        n_pts = len(points) if points is not None else len(vertices)
        for f in faces:
            if any(not 0 <= i < len(vertices) for i in f):
                raise ParseError(f"face index out of range: {f}")
        tets = doc.get("triangulation")
        if tets is not None:
            if not _is_index_rows(tets, 4):
                raise ParseError("triangulation must be an array of "
                                 "[i, j, k, l]")
            for t in tets:
                if any(not 0 <= i < n_pts for i in t):
                    raise ParseError(f"tetrahedron index out of range: {t}")
        labels = doc.get("labels")
        if labels is not None:
            if not isinstance(labels, dict):
                raise ParseError("labels must be an object")
            try:
                labels = {int(k): str(v) for k, v in labels.items()}
            except ValueError as exc:
                raise ParseError(f"label keys must be integers: {exc}") from exc
            if any(not 0 <= k < n_pts for k in labels):
                raise ParseError("label index out of range")
        return cls(vertices=vertices, faces=faces, triangulation=tets,
                   points=points, labels=labels)

    @classmethod
    def from_surface(cls, s: PolyhedralSurface,
                     triangulation: Triangulation | None = None,
                     labels: dict | None = None) -> "PolyhedronDocument":
        tets = None
        points = None
        if triangulation is not None:
            tets = [list(t) for t in triangulation.tetrahedra]
            if len(triangulation.points) > len(s.vertices):
                points = [list(map(float, p)) for p in triangulation.points]
        return cls(vertices=[list(map(float, v)) for v in s.vertices],
                   faces=[list(f) for f in s.faces],
                   triangulation=tets, points=points, labels=labels)

    def surface(self) -> PolyhedralSurface:
        return PolyhedralSurface(np.array(self.vertices, dtype=float),
                                 [tuple(f) for f in self.faces])

    def as_triangulation(self) -> Triangulation | None:
        if self.triangulation is None:
            return None
        pts = (np.array(self.points, dtype=float)
               if self.points is not None else None)
        return Triangulation(self.surface(),
                             [tuple(t) for t in self.triangulation],
                             points=pts)


# ---------------------------------------------------------------------------
# Generator registry
# ---------------------------------------------------------------------------

def _theta_from_args(args) -> float | None:
    if getattr(args, "theta_pi_frac", None) is not None:
        frac = args.theta_pi_frac
        try:
            num, den = frac.split("/")
            return math.pi * int(num) / int(den)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(
                f"--theta-pi-frac expects NUM/DEN with integer parts; "
                f"got {frac!r}") from exc
    return getattr(args, "theta", None)


def _gen_schonhardt(args) -> PolyhedronDocument:
    theta = _theta_from_args(args)
    if theta is None:
        theta = math.pi / 6.0
    params = gen.SchonhardtParams(theta, args.r, args.h)
    return PolyhedronDocument.from_surface(gen.schonhardt(params))


def _gen_octahedron(args) -> PolyhedronDocument:
    s = gen.octahedron()
    t = gen.octahedron_axis_triangulation(s)
    return PolyhedronDocument.from_surface(s, t)


def _gen_cube_flat(args) -> PolyhedronDocument:
    s = gen.cube_with_flat_vertex()
    t = gen.cube_flat_triangulation(s)
    return PolyhedronDocument.from_surface(s, t)


def _gen_octahedron_centroid(args) -> PolyhedronDocument:
    t = gen.octahedron_with_centroid_triangulation()
    return PolyhedronDocument.from_surface(t.surface, t)


def _gen_pushed_pair(args) -> PolyhedronDocument:
    convex, pushed = gen.pushed_vertex_pair(args.depth)
    s = pushed if args.member == "pushed" else convex
    t = gen.pushed_pair_triangulation(s)
    return PolyhedronDocument.from_surface(s, t)


def _tpoly_params(args) -> gen.TPolyParams:
    hull = gen.SchonhardtParams(args.hull_theta, args.hull_r, args.hull_h)
    ext = gen.SchonhardtParams(args.ext_theta, args.ext_r, args.ext_h)
    return gen.TPolyParams(hull, ext, vertical_shift=args.shift)


def _gen_tpoly(args) -> PolyhedronDocument:
    surface, labels = gen.t_polyhedron(_tpoly_params(args))
    return PolyhedronDocument.from_surface(surface, labels=labels)


GENERATORS = {
    "schonhardt": _gen_schonhardt,
    "octahedron": _gen_octahedron,
    "cube-with-flat-vertex": _gen_cube_flat,
    "octahedron-with-centroid": _gen_octahedron_centroid,
    "pushed-pair": _gen_pushed_pair,
    "t-poly": _gen_tpoly,
}


# The numeric generator flags: name -> (default, help).
NUMERIC_FLAGS = {
    "theta": (None, "twist angle in radians"),
    "r": (1.0, None),
    "h": (2.0, None),
    "depth": (None, "push depth for the pushed-pair generator"),
    "shift": (0.0, "vertical shift of the T-polyhedron cavity"),
    "hull-theta": (math.pi / 6.0, None),
    "hull-r": (1.0, None),
    "hull-h": (2.0, None),
    "ext-theta": (math.pi / 6.0, None),
    "ext-r": (2.5, None),
    "ext-h": (4.0, None),
}


# The numeric flags each generator reads, which are the parameters sweep
# accepts for it; the fixed generators read none.
SWEEPABLE = {
    "schonhardt": ("theta", "r", "h"),
    "pushed-pair": ("depth",),
    "t-poly": ("shift", "hull-theta", "hull-r", "hull-h",
               "ext-theta", "ext-r", "ext-h"),
}


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    for name, (default, help_text) in NUMERIC_FLAGS.items():
        p.add_argument(f"--{name}", type=float, default=default,
                       help=help_text)
    p.add_argument("--theta-pi-frac", default=None, metavar="NUM/DEN",
                   help="twist angle as a rational multiple of pi")
    p.add_argument("--member", choices=("convex", "pushed"), default="pushed",
                   help="which member of the pushed pair to emit")


def _generator(name: str):
    if name not in GENERATORS:
        raise UnknownGenerator(
            f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}")
    return GENERATORS[name]


def _make_document(args) -> PolyhedronDocument:
    name = args.name
    # A generator id always means the generator, even if a file has its name.
    if name != "-" and (name in GENERATORS or not os.path.exists(name)):
        return _generator(name)(args)
    try:
        if name == "-":
            text = sys.stdin.read()
        else:
            with open(name) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid text: {exc}") from exc
    return PolyhedronDocument.from_json(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _render_analysis(report: dict) -> str:
    lines = []
    v = report["validity"]
    lines.append(f"validity: {'ok' if v['ok'] else 'INVALID'}")
    for viol in v["violations"]:
        lines.append(f"  violation: {viol}")
    if not v["ok"]:
        return "\n".join(lines) + "\n"
    wc = report["weakly_convex"]
    flags = "".join("+" if b else "-" for b in wc["per_vertex"])
    lines.append(f"weakly convex: {'yes' if wc['overall'] else 'no'} "
                 f"(per vertex: {flags})")
    d = report["decomposition"]
    if d["kind"] == "triangulation":
        lines.append(f"decomposition: {len(d['tetrahedra'])} tetrahedra, "
                     f"{len(d['interior_edges'])} interior edge(s)")
    elif d["kind"] == "non-decomposable":
        lines.append(f"decomposition: NonDecomposable "
                     f"({d['admissible_candidates']} admissible candidates, "
                     f"{d['nodes_explored']} nodes explored)")
    else:
        lines.append(f"decomposition: budget exceeded after "
                     f"{d['nodes_explored']} nodes")
    if "census" in report:
        c = report["census"]
        lines.append(f"census: m={c['m']} interior vertices, "
                     f"k={c['k']} flat vertices")
    if "stiffness" in report:
        st = report["stiffness"]
        eig = ", ".join(f"{x:.9g}" for x in st["eigenvalues"])
        lines.append(f"M_T spectrum ({st['scheme']['kind']} "
                     f"eps={st['scheme']['epsilon']:g}): [{eig}]")
        lines.append(f"  negative={st['n_negative']} zero={st['n_zero']} "
                     f"positive={st['n_positive']} "
                     f"(tol_eig={st['tol_eig']:g})")
        lines.append(f"  stiffness verdict: {st['verdict']}")
    df = report["deformation"]
    lines.append(f"deformation: nullity={df['nullity']} "
                 f"(trivial {df['trivial_dim']}, "
                 f"nontrivial {df['nontrivial_dim']})")
    lines.append(f"  deformation verdict: {df['verdict']}")
    if "oracles_agree" in report:
        lines.append(f"oracles agree: {'yes' if report['oracles_agree'] else 'no'}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split("..")
    if len(parts) != 2:
        raise BadRange(f"range must be START..END; got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise BadRange(f"range endpoints must be numbers; got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadRange(f"range endpoints must be finite; got {text!r}")
    return lo, hi


def _sweep_samples(lo: float, hi: float, step: float) -> list[float]:
    if not math.isfinite(step) or step <= 0:
        raise BadRange(f"step must be positive and finite; got {step}")
    if hi < lo:
        return []
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [lo + i * step for i in range(n + 1)]


def sweep_row(name: str, param: str, value: float, args) -> dict:
    """One sweep sample: build the document with ``param`` set to ``value``
    and return the row dict; a generator error becomes the row's error."""
    ns = argparse.Namespace(**vars(args))
    setattr(ns, param.replace("-", "_"), value)
    ns.name = name
    row: dict = {"param": param, "value": value}
    try:
        doc = _make_document(ns)
        s = doc.surface()
    except RigidityLabError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(pipeline.sweep_evidence(s, doc.as_triangulation(), args.budget))
    return row


def cmd_sweep(args) -> str:
    _generator(args.name)
    param = args.param.replace("_", "-")
    own = SWEEPABLE.get(args.name, ())
    if param not in own:
        raise BadParams(f"cannot sweep {args.param!r} of {args.name}; "
                        f"sweepable parameters: {', '.join(own) or 'none'}")
    if param == "theta" and args.theta_pi_frac is not None:
        raise BadParams("cannot sweep theta with --theta-pi-frac, which "
                        "fixes it")
    lo, hi = _parse_range(args.range)
    rows = [sweep_row(args.name, args.param, v, args)
            for v in _sweep_samples(lo, hi, args.step)]
    out = {"schema": "rigidity-lab/sweep/1",
           "generator": args.name, "param": args.param,
           "range": [lo, hi], "step": args.step, "rows": rows}
    if args.json:
        return _json(out)
    lines = [f"# sweep {args.name} {args.param} {lo}..{hi} step {args.step}",
             "# value sv_nontrivial nullity verdict "
             "weakly_convex decomposable flexible"]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['value']:.12g} ERROR {r['error']}")
        else:
            lines.append(
                f"{r['value']:.12g} {r['smallest_nontrivial_sv']:.6e} "
                f"{r['nullity']} {r['verdict']} "
                f"{int(r['weakly_convex'])} {int(r['decomposable'])} "
                f"{int(r['flexible'])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def to_obj(doc: PolyhedronDocument) -> str:
    lines = ["# rigidity-lab OBJ export"]
    for v in doc.vertices:
        lines.append("v {:.17g} {:.17g} {:.17g}".format(*map(float, v)))
    for f in doc.faces:
        lines.append("f {} {} {}".format(f[0] + 1, f[1] + 1, f[2] + 1))
    return "\n".join(lines) + "\n"


def from_obj(text: str) -> PolyhedronDocument:
    vertices, faces = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 4:
            try:
                vertices.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex") from exc
        elif parts[0] == "f" and len(parts) == 4:
            try:
                idx = [int(x.split("/")[0]) - 1 for x in parts[1:]]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad face") from exc
            faces.append(idx)
        elif parts[0] in ("v", "f"):
            raise ParseError(f"line {lineno}: expected 3 entries")
    return PolyhedronDocument(vertices=vertices, faces=faces)


# ---------------------------------------------------------------------------
# command entry points: each returns its rendered output, which main writes
# ---------------------------------------------------------------------------

def cmd_generate(args) -> str:
    return _generator(args.name)(args).to_json()


def cmd_analyze(args) -> str:
    doc = _make_document(args)
    round_sig = args.round_sig
    if round_sig is None and args.scheme == "forward":
        round_sig = 6
    scheme = FDScheme(SchemeKind(args.scheme), args.eps, round_sig=round_sig)
    t = doc.as_triangulation()
    # Share one surface, so its validity and extremality are computed once.
    s = doc.surface() if t is None else t.surface
    report = analyze_surface(s, t=t, scheme=scheme, tol_eig=args.tol_eig,
                             budget=args.budget)
    return _json(report) if args.json else _render_analysis(report)


def cmd_export(args) -> str:
    if args.format != "obj":
        raise ParseError(f"unknown export format {args.format!r}")
    return to_obj(_make_document(args))


def cmd_decompose(args) -> str:
    doc = _make_document(args)
    _, result = pipeline.decompose(doc.surface(), budget=args.budget)
    if args.json:
        return _json({"schema": "rigidity-lab/decompose/1", "result": result})
    if result["kind"] == "triangulation":
        lines = [f"decomposable: {len(result['tetrahedra'])} tetrahedra"]
        lines += ["  tet {} {} {} {}".format(*t)
                  for t in result["tetrahedra"]]
    elif result["kind"] == "non-decomposable":
        lines = [f"non-decomposable "
                 f"({result['admissible_candidates']} admissible "
                 f"candidates, {result['nodes_explored']} nodes explored)"]
    else:
        lines = [f"budget exceeded after "
                 f"{result['nodes_explored']} nodes"]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-lab",
        description="Infinitesimal rigidity of triangulated polyhedra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, name_help="generator id, or path to a polyhedron "
                                "document ('-': stdin); a generator id wins "
                                "over a file of that name (use ./NAME)"):
        p.add_argument("name", help=name_help)
        _add_generator_flags(p)
        p.add_argument("--budget", type=int, default=200000,
                       help="node budget for the decomposition search")
        p.add_argument("-o", "--output", default=None,
                       help="write output to a file instead of stdout")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    p = sub.add_parser("generate", help="emit a polyhedron document")
    add_common(p, name_help="generator id")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="run the full rigidity pipeline")
    add_common(p)
    p.add_argument("--scheme", choices=("forward", "central"),
                   default="central", help="finite-difference scheme for M_T")
    p.add_argument("--eps", type=float, default=DEFAULT_SCHEME.epsilon,
                   help="finite-difference step")
    p.add_argument("--tol-eig", type=float, default=TOL_EIG,
                   help="relative zero-eigenvalue tolerance")
    p.add_argument("--round-sig", type=int, default=None,
                   help="round total angles to this many significant digits "
                        "before differencing (default: 6 for the forward "
                        "replication scheme, none for central)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="sample a generator over a range")
    add_common(p, name_help="generator id")
    p.add_argument("param", help="numeric generator flag to sweep "
                                 "(e.g. theta, shift, depth)")
    p.add_argument("range", help="START..END")
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="export a triangle mesh")
    add_common(p)
    p.add_argument("--format", default="obj", help="mesh format (obj)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("decompose", help="search for a tetrahedralization")
    add_common(p)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except RigidityLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
