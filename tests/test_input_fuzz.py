"""Fuzzed input path: documents on stdin, generator flag values, sweep
ranges and analyze's options.

Whatever the input, the command line exits 0 or 2, and on exit 2 its stderr
starts with the name of a RigidityLabError subclass, or is argparse's usage
error, and holds no traceback.  Warnings are errors under this suite, so a
numerical warning on the way also fails a run.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidity_lab import cli, errors
from rigidity_lab.cli import main
from rigidity_lab.stiffness import SCHEMES

ERROR_NAMES = {name for name, obj in vars(errors).items()
               if isinstance(obj, type)
               and issubclass(obj, errors.RigidityLabError)}


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _check(argv, stdin=""):
    rc, out, err = _run(argv, stdin)
    assert rc in (0, 2), (argv, rc, err)
    assert "Traceback" not in err
    if rc == 2:
        assert out == ""
        assert (err.split(":", 1)[0] in ERROR_NAMES
                or err.startswith("usage: ")), err
    else:
        assert out and err == ""


# -- documents ------------------------------------------------------------

_WEIRD = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308,
                          -1e308, 5e-324, -5e-324, 10**400, True, False,
                          "1", None, [], {}])
_SMALL = st.one_of(st.integers(-2, 2), st.floats(-3, 3))
_COORD = st.one_of(_SMALL, _WEIRD, st.floats())
_VERTEX = st.one_of(st.lists(_COORD, min_size=3, max_size=3),
                    st.lists(_COORD, max_size=4), _WEIRD)
_VERTICES = st.one_of(st.lists(_VERTEX, max_size=8), _WEIRD)
_INDEX = st.one_of(st.integers(-1, 8), _WEIRD, st.integers())


def _rows(width):
    row = st.one_of(st.lists(_INDEX, min_size=width, max_size=width),
                    st.lists(_INDEX, max_size=width + 1), _WEIRD)
    return st.one_of(st.lists(row, max_size=12), _WEIRD)


_LABELS = st.one_of(
    st.dictionaries(st.one_of(st.integers(-1, 9).map(str), st.text(max_size=3),
                              st.just("1" * 5000)),
                    st.one_of(st.text(max_size=3), _WEIRD), max_size=4),
    _WEIRD)
_KEYS = {"schema": st.one_of(st.text(max_size=3), _WEIRD),
         "vertices": _VERTICES, "faces": _rows(3), "triangulation": _rows(4),
         "points": _VERTICES, "labels": _LABELS}
_MALFORMED_DOC = st.fixed_dictionaries(
    {"schema": st.just(cli.SCHEMA), "vertices": _VERTICES,
     "faces": _rows(3)},
    optional={k: _KEYS[k] for k in ("triangulation", "points", "labels")})


def _index_rows(n, width, max_size):
    index = st.integers(0, n - 1)
    return st.lists(st.lists(index, min_size=width, max_size=width),
                    max_size=max_size)


@st.composite
def _well_formed_doc(draw):
    """Finite coordinates and indices in range: it parses, and whatever is
    wrong with it is the geometry's."""
    n = draw(st.integers(1, 8))
    doc = {"schema": cli.SCHEMA,
           "vertices": draw(st.lists(st.lists(_SMALL, min_size=3, max_size=3),
                                     min_size=n, max_size=n)),
           "faces": draw(_index_rows(n, 3, 12))}
    if draw(st.booleans()):
        doc["triangulation"] = draw(_index_rows(n, 4, 6))
    return doc


def _generated(name):
    rc, out, _ = _run(["generate", name])
    assert rc == 0
    return json.loads(out)


# The generated documents of at most eight vertices, to mutate.
_BASES = [doc for doc in map(_generated, sorted(cli.GENERATORS))
          if len(doc["vertices"]) <= 8]


@st.composite
def _mutated_doc(draw):
    """A generated document with one or two keys replaced or removed, a
    vertex moved or given a malformed coordinate, or an index changed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_BASES))))
    n = len(doc["vertices"])
    kinds = draw(st.lists(st.sampled_from(
        ["replace", "remove", "coordinate", "move", "face", "tetrahedron"]),
        min_size=1, max_size=2))
    # Key changes last, so the others still find the generated structure.
    for kind in sorted(kinds, key=lambda k: k in ("replace", "remove")):
        if kind == "replace":
            key = draw(st.sampled_from(sorted(_KEYS)))
            doc[key] = draw(_KEYS[key])
        elif kind == "remove":
            doc.pop(draw(st.sampled_from(sorted(_KEYS))), None)
        elif kind in ("coordinate", "move"):
            vertex = draw(st.integers(0, n - 1))
            if kind == "move":
                doc["vertices"][vertex] = [
                    x + draw(st.floats(-2, 2)) for x in doc["vertices"][vertex]]
            else:
                doc["vertices"][vertex][draw(st.integers(0, 2))] = draw(_COORD)
        else:
            key = "faces" if kind == "face" else "triangulation"
            rows = doc.get(key)
            if isinstance(rows, list) and rows and isinstance(rows[0], list):
                row = draw(st.sampled_from(rows))
                row[draw(st.integers(0, len(row) - 1))] = draw(
                    st.one_of(st.integers(0, n), _INDEX))
    return doc


# Mostly generated documents gone slightly wrong: they reach the analysis.
_TEXT = st.one_of(
    st.one_of(_mutated_doc(), _mutated_doc(), _well_formed_doc(),
              _MALFORMED_DOC).map(json.dumps),
    st.text(max_size=40),
    st.sampled_from(["", "[", "{}", "null",
                     '{"schema": "rigidity-lab/1", "vertices": NaN}']))


@settings(max_examples=60, deadline=None)
@given(text=_TEXT)
@example(text="[" * 100_000)  # deeper than the JSON decoder recurses
@example(text="1" * 5000)  # more digits than int() converts
def test_any_document_exits_0_or_2_without_traceback(text):
    for command in ("analyze", "decompose"):
        _check([command, "-", "--budget", "2000"], stdin=text)
    _check(["export", "-"], stdin=text)


# -- generator flags ------------------------------------------------------

_FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308",
                     "5e-324", "-5e-324", "2.2250738585072014e-308", "0",
                     "-0.0", "1e-300"]),
    st.floats().map(repr))
_NUMERIC = [f.name for f in cli._FLAGS if f.numeric]


@pytest.mark.parametrize("name", sorted(cli.GENERATORS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_float_flag_exits_0_or_2_without_traceback(name, data):
    # A generator without numeric flags is fuzzed with the other ones'.
    own = [f.name for f in cli.GENERATORS[name][1] if f.numeric]
    flags = data.draw(st.lists(st.sampled_from(own or _NUMERIC), min_size=1,
                               max_size=3, unique=True))
    # --flag=VALUE: argparse would read a bare "-1e308" as an option.
    argv = [f"--{flag}={data.draw(_FLOAT_TEXT)}" for flag in flags]
    for command in ("generate", "export"):
        _check([command, name, *argv])


# -- sweep and analyze options --------------------------------------------

_BUDGET = st.one_of(st.integers(-2, 3000).map(str), st.integers().map(str),
                    st.sampled_from(["1.5", "x", "", "1e3", "-0"]))
# Mostly values a generator accepts, so that samples get built.
_SAMPLE_TEXT = st.one_of(st.floats(0, 1.5).map(repr), _FLOAT_TEXT)


@st.composite
def _sweep_range(draw):
    """``(range, step)``: a range of at most two samples from a fuzzed start
    and step, or a fuzzed range text with a step that leaves it at most
    three samples."""
    if draw(st.booleans()):
        step = draw(_SAMPLE_TEXT)
        lo = float(draw(_SAMPLE_TEXT))
        hi = lo + draw(st.integers(0, 1)) * float(step)
        return f"{lo!r}..{hi!r}", step
    text = st.one_of(st.text(max_size=8), st.sampled_from(
        ["..", "1..", "..1", "0..1..2", "nan..1", "0..inf", "1e309..0",
         "-1e308..1e308", "0.1..0.3"]))
    return draw(text), draw(st.sampled_from(["1e308", "inf", "nan", "0",
                                             "-1"]))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_sweep_exits_0_or_2_without_traceback(data):
    name = data.draw(st.sampled_from(sorted(cli.GENERATORS)))
    own = [f.name for f in cli.GENERATORS[name][1] if f.numeric] or _NUMERIC
    param = data.draw(st.one_of(
        st.sampled_from(own), st.sampled_from(own).map(
            lambda f: f.replace("-", "_")),
        st.sampled_from(_NUMERIC), st.text(max_size=4)))
    span, step = data.draw(_sweep_range())
    # --opt=VALUE, and the range after "--": either may start with "-".
    argv = ["sweep", name, f"--step={step}",
            f"--budget={data.draw(_BUDGET)}"]
    if data.draw(st.booleans()):
        argv.append("--json")
    _check([*argv, "--", param, span])


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_analyze_option_exits_0_or_2_without_traceback(data):
    name = data.draw(st.sampled_from(sorted(cli.GENERATORS)))
    # Two draws in three name a scheme.
    names = st.sampled_from(sorted(SCHEMES))
    scheme = data.draw(st.one_of(names, names, st.text(max_size=6)))
    argv = ["analyze", name, f"--scheme={scheme}",
            f"--tol-eig={data.draw(_FLOAT_TEXT)}",
            f"--budget={data.draw(_BUDGET)}"]
    if data.draw(st.booleans()):
        argv.append("--json")
    _check(argv)
