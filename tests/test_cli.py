import io
import json
import math
import os

import numpy as np
import pytest

from rigidity_lab.cli import (
    PolyhedronDocument,
    from_obj,
    main,
    to_obj,
)
from rigidity_lab.errors import ParseError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_generate_octahedron_document(capsys):
    rc, out, err = run(capsys, "generate", "octahedron")
    assert rc == 0 and err == ""
    doc = PolyhedronDocument.from_json(out)
    assert len(doc.vertices) == 6
    assert len(doc.faces) == 8
    assert len(doc.triangulation) == 4


def test_generate_is_deterministic(capsys):
    _, out1, _ = run(capsys, "generate", "schonhardt", "--theta", "0.5")
    _, out2, _ = run(capsys, "generate", "schonhardt", "--theta", "0.5")
    assert out1 == out2


def test_document_roundtrip_is_lossless(capsys):
    _, out, _ = run(capsys, "generate", "schonhardt",
                    "--theta-pi-frac", "1/6")
    doc = PolyhedronDocument.from_json(out)
    again = PolyhedronDocument.from_json(doc.to_json())
    assert again.vertices == doc.vertices  # exact float equality
    assert again.faces == doc.faces


def test_theta_pi_frac_matches_radians(capsys):
    _, out1, _ = run(capsys, "generate", "schonhardt",
                     "--theta", repr(math.pi / 6.0))
    _, out2, _ = run(capsys, "generate", "schonhardt",
                     "--theta-pi-frac", "1/6")
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
    rc, out, _ = run(capsys, "analyze", "octahedron",
                     "--scheme", "forward", "--eps", "1e-8")
    assert rc == 0
    assert "1469.28" in out
    assert "verdict: Rigid" in out


def test_analyze_schonhardt_critical(capsys):
    rc, out, _ = run(capsys, "analyze", "schonhardt",
                     "--theta-pi-frac", "1/6")
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
    doc = from_obj(out)
    rc, gen_out, _ = run(capsys, "generate", "schonhardt",
                         "--theta", "0.37")
    orig = PolyhedronDocument.from_json(gen_out)
    a = np.array(doc.vertices)
    b = np.array(orig.vertices)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_export_unknown_format(capsys):
    rc, _, err = run(capsys, "export", "octahedron", "--format", "stl")
    assert rc != 0
    assert "ParseError" in err


def test_decompose_schonhardt(capsys):
    rc, out, _ = run(capsys, "decompose", "schonhardt",
                     "--theta-pi-frac", "1/6", "--json")
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


def test_sweep_theta_with_theta_pi_frac_is_bad_params(capsys):
    rc, out, err = run(capsys, "sweep", "schonhardt", "theta", "0..1",
                       "--step", "0.5", "--theta-pi-frac", "1/6")
    assert (rc, out) == (2, "")
    assert err.startswith("BadParams: ")


def test_sweep_param_accepts_underscores(capsys):
    rc, out, _ = run(capsys, "sweep", "t-poly", "hull_theta", "0.4..0.5",
                     "--step", "1", "--json")
    assert rc == 0
    [row] = json.loads(out)["rows"]
    assert row["param"] == "hull_theta" and "error" not in row


def test_document_rejects_bad_indices():
    with pytest.raises(ParseError):
        PolyhedronDocument.from_json(json.dumps({
            "schema": "rigidity-lab/1",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "faces": [[0, 1, 7]],
        }))


def test_document_rejects_unknown_schema():
    with pytest.raises(ParseError):
        PolyhedronDocument.from_json(json.dumps({
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
    {"faces": [1, 2, 3]},
    {"faces": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, True]]},
    {"triangulation": [0, 1, 2, 3]},
    {"points": [[0, 0]]},
], ids=["string-coordinate", "nan-coordinate", "huge-coordinate",
        "label-key", "fractional-label-key", "flat-faces", "boolean-index",
        "flat-triangulation", "short-point"])
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
    ("schonhardt", "--theta-pi-frac", "1/6"),
    ("t-poly", "--shift", "0.3"),
], ids=["schonhardt", "t-poly"])
def test_decompose_result_is_analyze_decomposition(capsys, argv):
    _, analyzed, _ = run(capsys, "analyze", *argv, "--json")
    _, decomposed, _ = run(capsys, "decompose", *argv, "--json")
    assert (json.loads(decomposed)["result"]
            == json.loads(analyzed)["decomposition"])
