"""Command-line front end: it parses polyhedron documents, generator flags
and arguments, hands the work to ``pipeline``, and renders the results as
text, JSON or an OBJ mesh.

Subcommands
-----------
generate   emit a polyhedron document for a named generator
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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

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
from .stiffness import SCHEMES
from .triangulation import Triangulation

SCHEMA = "rigidity-lab/1"
# Most samples one sweep takes; a range and step asking for more are a
# BadRange before any sample is built.
MAX_SWEEP_SAMPLES = 100_000


def _json(obj) -> str:
    """The one serialization of every JSON document the CLI writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


# ---------------------------------------------------------------------------
# Polyhedron documents
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


def read_document(text: str):
    """The ``(surface, triangulation, labels)`` of a polyhedron document;
    the triangulation, whose point set may extend the surface vertices, is
    built on that surface.  The last two are None when the document has
    none.  A malformed document raises ParseError."""
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and an over-long integer literal;
    # RecursionError, a too deeply nested one.
    except (ValueError, RecursionError) as exc:
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
        if doc.get("triangulation") is None:
            raise ParseError("points extend a triangulation's point set; "
                             "the document has no triangulation")
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
            keys = [int(k) for k in labels]
        except ValueError as exc:
            raise ParseError(f"label keys must be integers: {exc}") from exc
        # int() also takes " 2 ", "02" and "-0", which would merge silently.
        if any(str(i) != k for i, k in zip(keys, labels)):
            raise ParseError("label keys must be integers in canonical form")
        if not all(isinstance(v, str) for v in labels.values()):
            raise ParseError("label values must be strings")
        labels = dict(zip(keys, labels.values()))
        if any(not 0 <= k < n_pts for k in labels):
            raise ParseError("label index out of range")
    s = PolyhedralSurface(vertices, faces)
    t = None if tets is None else Triangulation(s, tets, points=points)
    return s, t, labels


def write_document(s: PolyhedralSurface,
                   triangulation: Triangulation | None = None,
                   labels: dict | None = None) -> str:
    """The polyhedron document of a surface with an optional triangulation
    (its points are written when they extend the surface vertices) and
    vertex labels."""
    doc = {"schema": SCHEMA,
           "vertices": [list(map(float, v)) for v in s.vertices],
           "faces": [list(f) for f in s.faces]}
    if triangulation is not None:
        doc["triangulation"] = [list(t) for t in triangulation.tetrahedra]
        if len(triangulation.points) > len(s.vertices):
            doc["points"] = [list(map(float, p))
                             for p in triangulation.points]
    if labels is not None:
        doc["labels"] = {str(k): v for k, v in sorted(labels.items())}
    return _json(doc)


# ---------------------------------------------------------------------------
# Generator registry
# ---------------------------------------------------------------------------

def _gen_schonhardt(f: dict):
    params = gen.SchonhardtParams(f["theta"], f["r"], f["h"])
    return gen.schonhardt(params), None, None


def _gen_fixed(triangulation):
    """The builder of a fixed solid, handed over with its triangulation."""
    def build(f: dict):
        t = triangulation()
        return t.surface, t, None
    return build


def _gen_pushed_pair(f: dict):
    convex, pushed = gen.pushed_vertex_pair(f["depth"])
    s = convex if f["member"] == "convex" else pushed
    return s, gen.pushed_pair_triangulation(s), None


def _gen_tpoly(f: dict):
    hull = gen.SchonhardtParams(f["hull-theta"], f["hull-r"], f["hull-h"])
    ext = gen.SchonhardtParams(f["ext-theta"], f["ext-r"], f["ext-h"])
    surface, labels = gen.t_polyhedron(
        gen.TPolyParams(hull, ext, vertical_shift=f["shift"]))
    return surface, None, labels


@dataclass(frozen=True)
class Flag:
    """A generator flag: its default, its help, and its argparse keywords;
    a flag without keywords is a number."""
    name: str
    default: object = None
    help: str | None = None
    options: dict | None = None

    @property
    def numeric(self) -> bool:
        return self.options is None


# Each generator's builder and the flags it reads, in order.  A builder is
# called with a dict of exactly these flags, defaults filled in, and returns
# the surface it built, with its triangulation and vertex labels or None;
# the numeric flags are the parameters sweep accepts for it.
GENERATORS = {
    "schonhardt": (_gen_schonhardt, (
        Flag("theta", math.pi / 6.0, "twist angle in radians"),
        Flag("r", 1.0), Flag("h", 2.0))),
    "octahedron": (_gen_fixed(gen.octahedron_axis_triangulation), ()),
    "cube-with-flat-vertex": (_gen_fixed(gen.cube_flat_triangulation), ()),
    "octahedron-with-centroid": (
        _gen_fixed(gen.octahedron_with_centroid_triangulation), ()),
    "pushed-pair": (_gen_pushed_pair, (
        Flag("depth", None, "push depth for the pushed-pair generator"),
        Flag("member", "pushed", "which member of the pushed pair to emit "
                                 "(default: pushed)",
             {"choices": ("convex", "pushed")}))),
    "t-poly": (_gen_tpoly, (
        Flag("shift", 0.0, "vertical shift of the T-polyhedron cavity"),
        Flag("hull-theta", math.pi / 6.0), Flag("hull-r", 1.0),
        Flag("hull-h", 2.0), Flag("ext-theta", math.pi / 6.0),
        Flag("ext-r", 2.5), Flag("ext-h", 4.0))),
}

# Every generator flag once, first-seen: the numeric ones, then the others.
_FLAGS = list({f.name: f for _, flags in GENERATORS.values()
               for f in flags}.values())
_FLAGS.sort(key=lambda f: not f.numeric)


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    for f in _FLAGS:
        p.add_argument(f"--{f.name}", default=None, help=f.help,
                       **(f.options or {"type": float}))


def _flag_list(flags) -> str:
    return ", ".join(f"--{f}" for f in flags)


def _given_flags(args) -> dict:
    """The generator flags given on the command line, by name."""
    values = {f.name: getattr(args, f.name.replace("-", "_")) for f in _FLAGS}
    return {k: v for k, v in values.items() if v is not None}


def _generator(name: str):
    """The builder and flags of generator ``name``."""
    if name not in GENERATORS:
        raise UnknownGenerator(
            f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}")
    return GENERATORS[name]


def _own_flags(name: str, args) -> dict:
    """Generator ``name``'s flags from ``args``, defaults filled in.  A flag
    the generator does not read raises BadParams instead of being ignored."""
    flags = _generator(name)[1]
    own = [f.name for f in flags]
    given = _given_flags(args)
    stray = [f for f in given if f not in own]
    if stray:
        raise BadParams(f"{name} does not read {_flag_list(stray)}; "
                        f"its flags: {_flag_list(own) or 'none'}")
    return {f.name: given.get(f.name, f.default) for f in flags}


def _polyhedron(args):
    """The ``(surface, triangulation, labels)`` that ``args.name`` names: a
    generator's, built from its flags, or a document's, read from a file or
    from stdin ('-')."""
    name = args.name
    # A generator id always means the generator, even if a file has its name.
    if name != "-" and (name in GENERATORS or not os.path.exists(name)):
        return _generator(name)[0](_own_flags(name, args))
    given = _given_flags(args)
    if given:
        raise BadParams(f"{_flag_list(given)}: generator flags do not apply "
                        f"to a document")
    try:
        if name == "-":
            text = sys.stdin.read()
        else:
            with open(name) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid text: {exc}") from exc
    return read_document(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _render_analysis(report: dict) -> str:
    lines = ["validity: ok"]
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
        sc = st["scheme"]
        label = (sc["kind"] if sc["epsilon"] is None
                 else f"{sc['kind']} eps={sc['epsilon']:g}")
        lines.append(f"M_T spectrum ({label}): [{eig}]")
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
    n = (hi - lo) / step + 1e-9
    if not n < MAX_SWEEP_SAMPLES:  # also an infinite count
        raise BadRange(f"{lo}..{hi} at step {step} takes more than "
                       f"{MAX_SWEEP_SAMPLES} samples")
    return [lo + i * step for i in range(int(math.floor(n)) + 1)]


def sweep_row(build, flags: dict, budget: int) -> dict:
    """The evidence keys of the polyhedron ``build(flags)`` makes; a
    generator or validation error becomes the row's ``error`` instead."""
    try:
        s, t, _ = build(flags)
        s.require_valid()
    except RigidityLabError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return pipeline.sweep_evidence(s, t, budget)


def cmd_sweep(args) -> str:
    param = args.param.replace("_", "-")
    build, declared = _generator(args.name)
    own = [f.name for f in declared if f.numeric]
    if param not in own:
        raise BadParams(f"cannot sweep {args.param!r} of {args.name}; "
                        f"sweepable parameters: {', '.join(own) or 'none'}")
    if param in _given_flags(args):
        raise BadParams(f"cannot sweep {param} with --{param}, which fixes it")
    # A stray flag is one usage error, not an error row per value.
    flags = _own_flags(args.name, args)
    lo, hi = _parse_range(args.range)
    samples = _sweep_samples(lo, hi, args.step)
    # Checked before any row, so an empty range or error rows cannot hide it.
    pipeline.check_budget(args.budget)
    rows = [{"param": args.param, "value": v,
             **sweep_row(build, {**flags, param: v}, args.budget)}
            for v in samples]
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
            # A validity report holds one violation a line; a row takes one.
            error = r["error"].replace("\n", "; ")
            lines.append(f"{r['value']:.12g} ERROR {error}")
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

def to_obj(s: PolyhedralSurface) -> str:
    lines = ["# rigidity-lab OBJ export"]
    for v in s.vertices:
        lines.append("v {:.17g} {:.17g} {:.17g}".format(*map(float, v)))
    for f in s.faces:
        lines.append("f {} {} {}".format(f[0] + 1, f[1] + 1, f[2] + 1))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command entry points: each returns its rendered output, which main writes
# ---------------------------------------------------------------------------

def cmd_generate(args) -> str:
    build, _ = _generator(args.name)
    return write_document(*build(_own_flags(args.name, args)))


def cmd_analyze(args) -> str:
    s, t, _ = _polyhedron(args)
    s.require_valid()
    report = analyze_surface(s, t=t, scheme=SCHEMES[args.scheme],
                             tol_eig=args.tol_eig, budget=args.budget)
    return _json(report) if args.json else _render_analysis(report)


def cmd_export(args) -> str:
    return to_obj(_polyhedron(args)[0])


def cmd_decompose(args) -> str:
    s, _, _ = _polyhedron(args)
    _, result = pipeline.decompose(s, budget=args.budget)
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
        p.add_argument("-o", "--output", default=None,
                       help="write output to a file instead of stdout")

    def add_search(p):
        """The flags of the commands that run the decomposition search."""
        p.add_argument("--budget", type=int, default=200000,
                       help="node budget for the decomposition search")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    p = sub.add_parser("generate", help="emit a polyhedron document")
    add_common(p, name_help="generator id")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="run the full rigidity pipeline")
    add_common(p)
    add_search(p)
    p.add_argument("--scheme", choices=tuple(SCHEMES), default="exact",
                   help="M_T from exact derivatives, or a finite-difference "
                        "oracle: central (relative step 1e-6) or forward "
                        "(the published computation: step 1e-8, angles "
                        "rounded to six figures)")
    p.add_argument("--tol-eig", type=float, default=None,
                   help="relative zero-eigenvalue tolerance (default: 1e-9 "
                        "for exact, 1e-4 for the finite differences)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="sample a generator over a range")
    add_common(p, name_help="generator id")
    add_search(p)
    p.add_argument("param", help="numeric generator flag to sweep "
                                 "(e.g. theta, shift, depth)")
    p.add_argument("range", help="START..END")
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="write an OBJ triangle mesh")
    add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("decompose", help="search for a tetrahedralization")
    add_common(p)
    add_search(p)
    p.set_defaults(func=cmd_decompose)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each argparse tree is a few
    hundred objects in reference cycles, which only a full collection
    frees."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
