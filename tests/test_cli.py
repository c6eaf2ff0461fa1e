import io
import json
import math
import os

import pytest

from rigidity_lab import cli, geom
from rigidity_lab import generators as gen
from rigidity_lab.cli import main, read_document, write_document
from rigidity_lab.errors import ParseError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_usage_error(capsys, *argv):
    """argv ends in argparse's usage error: exit 2, the usage on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: ")
    assert "error: unrecognized arguments: " in captured.err
    assert "Traceback" not in captured.err


def test_generate_octahedron_document(capsys):
    rc, out, err = run(capsys, "generate", "octahedron")
    assert rc == 0 and err == ""
    s, t, labels = read_document(out)
    assert len(s.vertices) == 6
    assert len(s.faces) == 8
    assert len(t.tetrahedra) == 4
    assert t.surface is s and labels is None


def test_generate_is_deterministic(capsys):
    _, out1, _ = run(capsys, "generate", "schonhardt", "--theta", "0.5")
    _, out2, _ = run(capsys, "generate", "schonhardt", "--theta", "0.5")
    assert out1 == out2


@pytest.mark.parametrize("name", sorted(cli.GENERATORS))
def test_document_roundtrip_is_lossless(capsys, name):
    # Covers labels (t-poly), added points (octahedron-with-centroid) and
    # supplied triangulations, and every coordinate to the last bit.
    _, out, _ = run(capsys, "generate", name)
    assert write_document(*read_document(out)) == out


def test_default_theta_is_pi_over_six(capsys):
    _, out1, _ = run(capsys, "generate", "schonhardt",
                     "--theta", repr(math.pi / 6.0))
    _, out2, _ = run(capsys, "generate", "schonhardt")
    assert out1 == out2


def test_unknown_generator_fails(capsys):
    rc, out, err = run(capsys, "generate", "nosuch")
    assert rc != 0
    assert "UnknownGenerator" in err


def test_bad_params_fail(capsys):
    rc, _, err = run(capsys, "generate", "schonhardt", "--theta", "-1")
    assert rc != 0
    assert "BadParams" in err


def test_analyze_octahedron_forward_scheme(capsys):
    rc, out, _ = run(capsys, "analyze", "octahedron", "--scheme", "forward")
    assert rc == 0
    assert "1469.28" in out
    assert "verdict: Rigid" in out


def test_analyze_schonhardt_critical(capsys):
    rc, out, _ = run(capsys, "analyze", "schonhardt")
    assert rc == 0
    assert "NonDecomposable" in out
    assert "nullity=7" in out
    assert "verdict: Flexible" in out


def test_analyze_pushed_pair(capsys):
    rc, out, _ = run(capsys, "analyze", "pushed-pair", "--json")
    assert rc == 0
    report = json.loads(out)
    st = report["stiffness"]
    assert st["n_negative"] >= 1
    assert st["n_zero"] >= 1
    assert report["verdict"] == "Flexible"
    assert report["oracles_agree"] is True


def test_analyze_json_is_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "octahedron", "--json")
    _, out2, _ = run(capsys, "analyze", "octahedron", "--json")
    assert out1 == out2


def test_analyze_file_input(tmp_path, capsys):
    path = tmp_path / "octa.json"
    rc, out, _ = run(capsys, "generate", "octahedron", "-o", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert "verdict: Rigid" in out


def test_parse_error_on_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc != 0
    assert "ParseError" in err


def test_export_obj(capsys):
    rc, out, _ = run(capsys, "export", "octahedron")
    assert rc == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 6
    assert sum(1 for ln in lines if ln.startswith("f ")) == 8
    # 1-based indices
    indices = [int(x) for ln in lines if ln.startswith("f ")
               for x in ln.split()[1:]]
    assert min(indices) == 1


def test_export_roundtrip_precision(capsys):
    rc, out, _ = run(capsys, "export", "schonhardt", "--theta", "0.37")
    assert rc == 0
    exported = [[float(x) for x in ln.split()[1:]]
                for ln in out.splitlines() if ln.startswith("v ")]
    rc, gen_out, _ = run(capsys, "generate", "schonhardt",
                         "--theta", "0.37")
    # %.17g round-trips every double exactly.
    assert exported == read_document(gen_out)[0].vertices.tolist()


def test_export_unknown_format(capsys):
    # Export always writes OBJ: it takes no --format, not even obj.
    for fmt in ("stl", "obj"):
        assert_usage_error(capsys, "export", "octahedron", "--format", fmt)


def test_decompose_schonhardt(capsys):
    rc, out, _ = run(capsys, "decompose", "schonhardt", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["kind"] == "non-decomposable"
    assert doc["result"]["admissible_candidates"] == 0


def test_decompose_octahedron(capsys):
    rc, out, _ = run(capsys, "decompose", "octahedron", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["kind"] == "triangulation"


def test_sweep_schonhardt_near_critical(capsys):
    rc, out, _ = run(capsys, "sweep", "schonhardt", "theta",
                     "0.5035987755982988..0.5435987755982988",
                     "--step", "0.01", "--json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    # Exactly the sample at pi/6 has nullity 7.
    nullities = [r["nullity"] for r in rows]
    assert nullities == [6, 6, 7, 6, 6]


def test_sweep_reports_an_invalid_sample_as_an_error_row(capsys):
    # Both samples are flat and fail validation: each is one error row, and
    # the sweep goes on.
    rc, out, err = run(capsys, "sweep", "schonhardt", "r", "1..2",
                       "--step", "1", "--h", "1e-12")
    assert (rc, err) == (0, "")
    rows = out.splitlines()[2:]
    assert [r.split()[:3] for r in rows] == [["1", "ERROR", "InvalidSurface:"],
                                             ["2", "ERROR", "InvalidSurface:"]]
    assert all("[degenerate-volume]" in r for r in rows)


def test_sweep_error_row_is_one_line_of_the_table(capsys):
    # The pushed apex crosses three faces: the text row joins the three
    # violations, and the JSON row keeps the error string as raised.
    argv = ("sweep", "pushed-pair", "depth", "1.8..1.8", "--step", "1")
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    [row] = out.splitlines()[2:]
    assert row.startswith("1.8 ERROR DegenerateDepth: ")
    assert row.count("[self-intersection]") == 3
    assert row.count("; [self-intersection]") == 2
    _, out, _ = run(capsys, *argv, "--json")
    [json_row] = json.loads(out)["rows"]
    assert json_row["error"].count("\n[self-intersection]") == 2
    assert row == f"1.8 ERROR {json_row['error']}".replace("\n", "; ")


def test_sweep_empty_range(capsys):
    rc, out, _ = run(capsys, "sweep", "schonhardt", "theta", "1.0..0.5",
                     "--step", "0.1", "--json")
    assert rc == 0
    assert json.loads(out)["rows"] == []


def test_sweep_bad_range(capsys):
    rc, _, err = run(capsys, "sweep", "schonhardt", "theta", "nope",
                     "--step", "0.1")
    assert rc != 0
    assert "BadRange" in err
    rc, _, err = run(capsys, "sweep", "schonhardt", "theta", "0..1",
                     "--step", "-0.1")
    assert rc != 0
    assert "BadRange" in err
    # Too many samples, or infinitely many, are refused before any is built.
    for span, step in (("0..1e308", "1e-308"), ("0..1", "1e-300"),
                       ("0..1", "1e-5")):
        rc, out, err = run(capsys, "sweep", "schonhardt", "theta", span,
                           "--step", step)
        assert (rc, out) == (2, "")
        assert err.startswith("BadRange: ") and "samples" in err


def test_sweep_rows_ordered(capsys):
    _, out, _ = run(capsys, "sweep", "schonhardt", "theta", "0.1..0.5",
                    "--step", "0.1", "--json")
    rows = json.loads(out)["rows"]
    values = [r["value"] for r in rows]
    assert values == sorted(values)


@pytest.mark.parametrize("param", ["foo", "budget", "theta-pi-frac"])
def test_sweep_unknown_param_is_bad_params(capsys, param):
    rc, out, err = run(capsys, "sweep", "schonhardt", param, "0..1",
                       "--step", "0.5")
    assert (rc, out) == (2, "")
    assert err.startswith("BadParams: ")
    assert err.endswith("sweepable parameters: theta, r, h\n")


@pytest.mark.parametrize("name, param, own", [
    ("schonhardt", "depth", "theta, r, h"),
    ("schonhardt", "hull-theta", "theta, r, h"),
    ("pushed-pair", "shift", "depth"),
    ("t-poly", "theta", "shift, hull-theta, hull-r, hull-h, ext-theta, "
                        "ext-r, ext-h"),
    ("octahedron", "theta", "none"),
    ("cube-with-flat-vertex", "depth", "none"),
])
def test_sweep_param_the_generator_ignores_is_bad_params(capsys, name, param,
                                                         own):
    # Sweeping a flag the generator never reads would print identical rows.
    rc, out, err = run(capsys, "sweep", name, param, "0..1", "--step", "0.5")
    assert (rc, out) == (2, "")
    assert err == (f"BadParams: cannot sweep {param!r} of {name}; "
                   f"sweepable parameters: {own}\n")


@pytest.mark.parametrize("name, param", [
    ("schonhardt", "theta"),
    ("t-poly", "shift"),
    ("pushed-pair", "depth"),
], ids=["theta", "shift", "depth"])
def test_sweep_param_fixed_by_a_flag_is_bad_params(capsys, name, param):
    # The sweep would otherwise drop the flag without a word.
    rc, out, err = run(capsys, "sweep", name, param, "0.1..0.3", "--step",
                       "0.1", f"--{param}", "0.5")
    assert (rc, out) == (2, "")
    assert err == (f"BadParams: cannot sweep {param} with --{param}, which "
                   f"fixes it\n")


def test_sweep_param_accepts_underscores(capsys):
    rc, out, _ = run(capsys, "sweep", "t-poly", "hull_theta", "0.4..0.5",
                     "--step", "1", "--json")
    assert rc == 0
    [row] = json.loads(out)["rows"]
    assert row["param"] == "hull_theta" and "error" not in row


def test_document_rejects_bad_indices():
    with pytest.raises(ParseError):
        read_document(json.dumps({
            "schema": "rigidity-lab/1",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "faces": [[0, 1, 7]],
        }))


def test_document_rejects_unknown_schema():
    with pytest.raises(ParseError):
        read_document(json.dumps({
            "schema": "rigidity-lab/999",
            "vertices": [],
            "faces": [],
        }))


_TETRA = {"schema": "rigidity-lab/1",
          "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
          "faces": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]}


@pytest.mark.parametrize("change", [
    {"vertices": [["a", 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"vertices": [[float("nan"), 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"vertices": [[10**400, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"labels": {"x": "apex"}},
    {"labels": {"1.5": "apex"}},
    {"labels": {"1": "a", "01": "b"}},
    {"labels": {" 2 ": "apex"}},
    {"labels": {"-0": "apex"}},
    {"labels": {"+1": "apex"}},
    {"labels": {"3": {"x": [1, 2]}}},
    {"labels": {"3": None}},
    {"faces": [1, 2, 3]},
    {"faces": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, True]]},
    {"triangulation": [0, 1, 2, 3]},
    {"points": [[0, 0]]},
    {"points": _TETRA["vertices"] + [[0.25, 0.25, 0.25]]},
], ids=["string-coordinate", "nan-coordinate", "huge-coordinate",
        "label-key", "fractional-label-key", "leading-zero-label-key",
        "padded-label-key", "negative-zero-label-key", "plus-label-key",
        "object-label-value", "null-label-value",
        "flat-faces", "boolean-index",
        "flat-triangulation", "short-point", "points-without-triangulation"])
def test_analyze_malformed_document_is_parse_error(tmp_path, capsys, change):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_TETRA, **change}))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("ParseError: ")


def test_well_formed_document_still_analyzes(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_TETRA, "labels": {"3": "apex"}}))
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert "validity: ok" in out


def test_export_writes_the_faces_oriented_outward(tmp_path, capsys):
    # Every command reads a document's faces oriented outward, and export
    # writes them as read: an inward-wound document exports like _TETRA.
    path = tmp_path / "doc.json"
    inward = {**_TETRA, "faces": [[a, c, b] for a, b, c in _TETRA["faces"]]}
    exported = []
    for doc in (_TETRA, inward):
        path.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "export", str(path))
        assert rc == 0
        exported.append(out)
    assert exported[0] == exported[1]
    faces = [[int(x) - 1 for x in ln.split()[1:]]
             for ln in exported[0].splitlines() if ln.startswith("f ")]
    assert faces == _TETRA["faces"]


def test_undecodable_document_is_parse_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bin.json"
    path.write_bytes(bytes(range(128, 256)))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("ParseError: ")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(bytes(range(128, 256))), encoding="utf-8"))
    rc, out, err = run(capsys, "analyze", "-")
    assert (rc, out) == (2, "")
    assert err.startswith("ParseError: ")


def test_short_points_is_invalid_triangulation(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_TETRA,
                                "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                                "triangulation": [[0, 1, 2, 0]]}))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("InvalidTriangulation: ")
    assert "points-mismatch" in err


def test_non_conforming_tiling_is_invalid_triangulation(tmp_path, capsys):
    # The octahedron tiled by two pyramids cut along different diagonals.
    _, out, _ = run(capsys, "generate", "octahedron")
    doc = json.loads(out)
    doc["triangulation"] = [[0, 1, 2, 4], [0, 1, 3, 4], [2, 3, 0, 5],
                            [2, 3, 1, 5]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("InvalidTriangulation: ")
    assert "boundary-chain" in err


def _crossing_octahedron() -> dict:
    """The octahedron with vertex 0 moved so that two edges cross faces."""
    doc = {"schema": "rigidity-lab/1",
           "vertices": [[float(x) for x in v] for v in gen.octahedron().vertices],
           "faces": [list(f) for f in gen.octahedron().faces]}
    doc["vertices"][0] = [-1.022, 1.731, -1.181]
    return doc


_DOUBLE_TRIANGLE = {"schema": "rigidity-lab/1",
                    "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "faces": [[0, 1, 2], [0, 2, 1]]}


@pytest.mark.parametrize("doc, tag", [
    (_crossing_octahedron(), "self-intersection"),
    (_DOUBLE_TRIANGLE, "degenerate-volume")],
    ids=["crossing-octahedron", "doubly-covered-triangle"])
def test_invalid_surface_exits_2_like_decompose(tmp_path, capsys, doc, tag):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["analyze", str(path)], ["analyze", str(path), "--json"],
                 ["decompose", str(path)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("InvalidSurface: ") and f"[{tag}]" in err


def test_generator_name_beats_file_of_that_name(tmp_path, capsys, monkeypatch):
    _, generated, _ = run(capsys, "analyze", "octahedron", "--json")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "octahedron").write_text(json.dumps(_TETRA))
    rc, out, _ = run(capsys, "analyze", "octahedron", "--json")
    assert rc == 0 and out == generated
    rc, out, _ = run(capsys, "analyze", "./octahedron", "--json")
    assert rc == 0
    assert len(json.loads(out)["weakly_convex"]["per_vertex"]) == 4


@pytest.mark.parametrize("argv", [
    ("schonhardt",),
    ("t-poly", "--shift", "0.3"),
], ids=["schonhardt", "t-poly"])
def test_decompose_result_is_analyze_decomposition(capsys, argv):
    _, analyzed, _ = run(capsys, "analyze", *argv, "--json")
    _, decomposed, _ = run(capsys, "decompose", *argv, "--json")
    assert (json.loads(decomposed)["result"]
            == json.loads(analyzed)["decomposition"])


# -- one surface per input --------------------------------------------------

@pytest.mark.parametrize("argv, validations", [
    (("sweep", "t-poly", "shift", "0..1", "--step", "0.1"), 11),
    (("analyze", "pushed-pair"), 1),
    (("analyze", "t-poly", "--shift", "0.7"), 1),
    (("decompose", "t-poly", "--shift", "0.7"), 1),
], ids=["sweep-t-poly", "analyze-pushed-pair", "analyze-t-poly",
        "decompose-t-poly"])
def test_each_generated_input_is_validated_once(capsys, monkeypatch, argv,
                                                validations):
    # The command analyzes the surface the generator built and validated,
    # not a copy rebuilt from its document.
    calls = []
    real = geom.surface_validate
    monkeypatch.setattr(geom, "surface_validate",
                        lambda s: calls.append(s) or real(s))
    rc, _, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert len(calls) == validations
    assert len({id(s) for s in calls}) == validations


# -- parser ---------------------------------------------------------------

def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    _, out1, _ = run(capsys, "analyze", "octahedron", "--json")
    _, out2, _ = run(capsys, "analyze", "octahedron", "--json")
    assert built == [1]
    assert out1 == out2
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "octahedron", "--scheme", "nosuch"])
    assert exc.value.code == 2
    assert built == [1]


# -- M_T scheme flags -----------------------------------------------------

def test_analyze_defaults_to_exact_scheme(capsys):
    rc, out, _ = run(capsys, "analyze", "octahedron", "--json")
    st = json.loads(out)["stiffness"]
    assert rc == 0
    assert st["scheme"] == {"kind": "exact", "epsilon": None,
                            "round_sig": None}
    assert st["tol_eig"] == 1e-9
    assert st["eigenvalues"] == pytest.approx([4.0], abs=1e-12)
    rc, out, _ = run(capsys, "analyze", "octahedron")
    assert "M_T spectrum (exact): [4]" in out
    assert "(tol_eig=1e-09)" in out


def test_finite_difference_schemes_keep_their_step_and_cutoff(capsys):
    rc, out, _ = run(capsys, "analyze", "octahedron", "--scheme", "central",
                     "--json")
    st = json.loads(out)["stiffness"]
    assert rc == 0
    assert st["scheme"] == {"kind": "central", "epsilon": 1e-6,
                            "round_sig": None}
    assert st["tol_eig"] == 1e-4
    _, out, _ = run(capsys, "analyze", "octahedron", "--scheme", "forward",
                    "--json")
    # The forward scheme is the published computation.
    assert json.loads(out)["stiffness"]["scheme"] == {
        "kind": "forward", "epsilon": 1e-8, "round_sig": 6}
    _, out, _ = run(capsys, "analyze", "octahedron", "--tol-eig", "0.5",
                    "--json")
    assert json.loads(out)["stiffness"]["tol_eig"] == 0.5


@pytest.mark.parametrize("flags", [
    ("--tol-eig", "nan"),
    ("--tol-eig", "-1"),
    ("--scheme", "central", "--tol-eig", "inf"),
], ids=["tol-eig-nan", "tol-eig-negative", "tol-eig-infinite"])
def test_bad_scheme_flags_are_bad_params(capsys, flags):
    rc, out, err = run(capsys, "analyze", "octahedron", *flags)
    assert (rc, out) == (2, "")
    assert err.startswith("BadParams: ")


@pytest.mark.parametrize("argv", [
    ("decompose", "schonhardt"),
    ("analyze", "octahedron"),
    ("sweep", "schonhardt", "theta", "0..0.2", "--step", "0.1"),
], ids=["decompose", "analyze", "sweep"])
def test_negative_budget_is_bad_params(capsys, argv):
    rc, out, err = run(capsys, *argv, "--budget", "-1")
    assert (rc, out, err) == (2, "", "BadParams: budget must be >= 0; got -1\n")


@pytest.mark.parametrize("sweep_range,step", [("1..0.5", "0.1"), ("2..2.5", "0.5")],
                         ids=["empty-range", "error-rows-only"])
def test_sweep_negative_budget_is_bad_params_without_a_search(capsys, sweep_range, step):
    # Neither sweep reaches the decomposition search: 1..0.5 has no sample,
    # and theta 2 and 2.5 fail validation and become error rows.
    rc, out, err = run(capsys, "sweep", "schonhardt", "theta", sweep_range,
                       "--step", step, "--budget", "-1")
    assert (rc, out, err) == (2, "", "BadParams: budget must be >= 0; got -1\n")


def test_abstaining_stiffness_oracle_is_no_disagreement(capsys):
    # m = 1 interior vertex: the kernel test does not apply, so the
    # deformation oracle's verdict stands alone.
    rc, out, _ = run(capsys, "analyze", "octahedron-with-centroid")
    assert rc == 0
    assert "  stiffness verdict: Indeterminate\n" in out
    assert "oracles agree" not in out
    assert out.endswith("  deformation verdict: Rigid\nverdict: Rigid\n")
    _, out, _ = run(capsys, "analyze", "octahedron-with-centroid", "--json")
    report = json.loads(out)
    assert "oracles_agree" not in report
    assert report["verdict"] == "Rigid"


def _scaled_octahedron(scale: float) -> dict:
    t = gen.octahedron_axis_triangulation()
    doc = json.loads(write_document(t.surface, t))
    doc["vertices"] = [[scale * x for x in v] for v in doc["vertices"]]
    return doc


def test_finite_difference_step_follows_the_input_size(tmp_path, capsys):
    # M_T scales as 1 / size: the exact entry is 4e-10 at size 1e10, which
    # an absolute step of 1e-6 cannot resolve.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_scaled_octahedron(1e10)))
    rc, out, _ = run(capsys, "analyze", str(path), "--scheme", "central")
    assert rc == 0
    assert "M_T spectrum (central eps=1e-06): [4e-10]\n" in out
    assert "oracles agree: yes\n" in out
    assert out.endswith("verdict: Rigid\n")
    rc, out, _ = run(capsys, "analyze", str(path), "--scheme", "central",
                     "--json")
    st = json.loads(out)["stiffness"]
    assert st["scheme"]["epsilon"] == 1e-6
    assert st["eigenvalues"][0] == pytest.approx(4e-10, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ("generate", "schonhardt", "--theta-pi-frac", "1/6"),
    ("analyze", "schonhardt", "--theta-pi-frac", "1/6"),
    ("sweep", "schonhardt", "r", "1..2", "--step", "1",
     "--theta-pi-frac", "1/6"),
    ("export", "schonhardt", "--theta-pi-frac", "1/6"),
    ("decompose", "schonhardt", "--theta-pi-frac", "1/6"),
    ("analyze", "octahedron", "--eps", "1e-8"),
    ("analyze", "octahedron", "--scheme", "central", "--round-sig", "6"),
    ("generate", "octahedron", "--budget", "10"),
    ("generate", "octahedron", "--json"),
    ("export", "octahedron", "--budget", "10"),
    ("export", "octahedron", "--json"),
], ids=["generate-theta-pi-frac", "analyze-theta-pi-frac",
        "sweep-theta-pi-frac", "export-theta-pi-frac",
        "decompose-theta-pi-frac", "analyze-eps", "analyze-round-sig",
        "generate-budget", "generate-json", "export-budget", "export-json"])
def test_retired_option_is_a_usage_error(capsys, argv):
    # Each setting has one spelling: --theta in radians, and --scheme names
    # a whole scheme.  generate and export run no search and write one
    # format.  export --format is test_export_unknown_format's.
    assert_usage_error(capsys, *argv)


# -- generator flags ------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (("generate", "octahedron", "--depth", "3"),
     "octahedron does not read --depth; its flags: none"),
    (("analyze", "schonhardt", "--shift", "1"),
     "schonhardt does not read --shift; its flags: --theta, --r, --h"),
    (("decompose", "schonhardt", "--member", "convex"),
     "schonhardt does not read --member; its flags: --theta, --r, --h"),
    (("export", "pushed-pair", "--theta", "0.3", "--r", "2"),
     "pushed-pair does not read --theta, --r; its flags: --depth, --member"),
    (("sweep", "schonhardt", "theta", "0..1", "--step", "0.5", "--depth",
      "1"),
     "schonhardt does not read --depth; its flags: --theta, --r, --h"),
], ids=["generate", "analyze", "decompose", "export", "sweep"])
def test_generator_flag_the_generator_ignores_is_bad_params(capsys, argv,
                                                            message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"BadParams: {message}\n")


def test_generator_flag_with_a_document_is_bad_params(tmp_path, capsys,
                                                      monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_TETRA))
    rc, out, err = run(capsys, "analyze", str(path), "--theta", "0.3")
    assert (rc, out) == (2, "")
    assert err == ("BadParams: --theta: generator flags do not apply to a "
                   "document\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_TETRA)))
    rc, out, err = run(capsys, "decompose", "-", "--member", "pushed")
    assert (rc, out) == (2, "")
    assert err.startswith("BadParams: --member: ")


def test_generator_defaults_are_unchanged(capsys):
    _, default, _ = run(capsys, "generate", "pushed-pair")
    _, explicit, _ = run(capsys, "generate", "pushed-pair", "--member",
                         "pushed")
    _, convex, _ = run(capsys, "generate", "pushed-pair", "--member",
                       "convex")
    assert default == explicit != convex
    _, default, _ = run(capsys, "generate", "t-poly")
    _, explicit, _ = run(capsys, "generate", "t-poly", "--shift", "0",
                         "--ext-r", "2.5")
    assert default == explicit


def test_builder_gets_exactly_its_declared_flags(capsys, monkeypatch):
    seen = []
    build, flags = cli.GENERATORS["t-poly"]
    monkeypatch.setitem(cli.GENERATORS, "t-poly",
                        (lambda f: seen.append(f) or build(f), flags))
    rc, _, _ = run(capsys, "generate", "t-poly", "--shift", "0.25")
    assert rc == 0
    assert seen == [{"shift": 0.25, "hull-theta": math.pi / 6.0,
                     "hull-r": 1.0, "hull-h": 2.0,
                     "ext-theta": math.pi / 6.0, "ext-r": 2.5, "ext-h": 4.0}]


def test_builder_reading_an_undeclared_flag_raises(monkeypatch):
    build, flags = cli.GENERATORS["schonhardt"]
    monkeypatch.setitem(cli.GENERATORS, "schonhardt",
                        (lambda f: build({**f, "r": f["hull-r"]}), flags))
    with pytest.raises(KeyError, match="hull-r"):
        main(["generate", "schonhardt"])


@pytest.mark.parametrize("argv", [
    ("schonhardt", "--r", "nan"),
    ("schonhardt", "--h", "inf"),
    ("t-poly", "--shift", "nan"),
    ("t-poly", "--shift", "inf"),
    ("t-poly", "--ext-r", "inf"),
    ("t-poly", "--hull-h", "nan"),
])
def test_non_finite_generator_parameter_is_bad_params(capsys, argv):
    for command in ("generate", "analyze"):
        rc, out, err = run(capsys, command, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("BadParams: ") and err.count("\n") == 1


def _scaled_tetra(scale: float) -> dict:
    return {**_TETRA, "vertices": [[scale * x for x in v]
                                   for v in _TETRA["vertices"]]}


@pytest.mark.parametrize("scale", [1e60, 1e103, 1e200])
def test_huge_coordinates_are_invalid_surface(tmp_path, capsys, scale):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_scaled_tetra(scale)))
    for argv in (["analyze", str(path)], ["decompose", str(path)],
                 ["analyze", "schonhardt", "--r", repr(scale),
                  "--h", repr(scale)],
                 ["decompose", "schonhardt", "--r", repr(scale)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith("InvalidSurface: ") and err.count("\n") == 1
        assert "[coordinate-range]" in err


def test_largest_coordinates_still_analyze(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_scaled_tetra(1e50)))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, err) == (0, "")
    assert out.endswith("verdict: Rigid\n")
