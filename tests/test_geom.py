import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from rigidity_lab import generators as gen
from rigidity_lab.errors import DegenerateVertexSet, InvalidSurface
from rigidity_lab.geom import (
    PolyhedralSurface,
    canonical_edge,
    coord_scale,
    cross3,
    hull_masks,
    is_weakly_convex,
    orientations,
    surface_validate,
    tet_orientations,
    volume,
)
from rigidity_lab.pipeline import analyze_surface, decompose
from rigidity_lab.triangulation import find_decomposition, tet_admissible


def test_octahedron_is_valid_closed_surface():
    s = gen.octahedron()
    report = surface_validate(s)
    assert report.ok
    assert len(s.vertices) == 6
    assert len(s.faces) == 8


def test_orientation_consistency_fixes_flipped_faces():
    base = gen.octahedron()
    faces = list(base.faces)
    flipped = [faces[0][::-1]] + faces[1:]
    s = PolyhedralSurface(base.vertices, flipped)  # orientation repairs it
    assert surface_validate(s).ok
    assert volume(s) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_volume_octahedron():
    assert volume(gen.octahedron()) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_volume_cube_with_flat_vertex():
    assert volume(gen.cube_with_flat_vertex()) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def test_degenerate_face_is_reported():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0]])
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    report = surface_validate(PolyhedralSurface(pts, faces))
    assert [v.tag for v in report.violations] == ["degenerate-face"]


def test_repeated_vertex_face_is_reported():
    base = gen.octahedron()
    faces = [(0, 0, 2)] + list(base.faces[1:])
    report = surface_validate(PolyhedralSurface(base.vertices, faces))
    assert [v.tag for v in report.violations] == ["repeated-vertex"]


def test_open_surface_is_reported():
    base = gen.octahedron()
    s = PolyhedralSurface(base.vertices, base.faces[:-1])
    tags = [v.tag for v in surface_validate(s).violations]
    assert tags == ["edge-incidence"] * 3 + ["euler"]


def test_weak_convexity_octahedron():
    mask, overall = is_weakly_convex(gen.octahedron())
    assert overall
    assert mask.all()


def test_weak_convexity_cube_with_flat_vertex():
    s = gen.cube_with_flat_vertex()
    mask, overall = is_weakly_convex(s)
    assert not overall
    assert list(mask) == [True] * 8 + [False]
    assert list(s.flat_mask()) == [False] * 8 + [True]


def test_weak_convexity_schonhardt():
    s = gen.schonhardt(gen.SchonhardtParams(math.pi / 6.0, 1.0, 2.0))
    mask, overall = is_weakly_convex(s)
    assert overall
    assert mask.all()


def test_weak_convexity_pushed_pair():
    convex, pushed = gen.pushed_vertex_pair()
    assert is_weakly_convex(convex)[1]
    mask, overall = is_weakly_convex(pushed)
    assert not overall
    # Pushing the apex through the base engulfs two other vertices; the
    # pushed apex itself stays hull-extreme.
    assert list(mask) == [True, False, True, True, True, False, True]


def test_extreme_vertex_mask_interior_point():
    pts = np.vstack([gen.octahedron().vertices, [[0.0, 0.0, 0.0]]])
    mask, _ = hull_masks(pts)
    assert list(mask) == [True] * 6 + [False]


def _pushed_cube(d):
    """The flat-vertex cube with its face-centre vertex pushed out by d."""
    s = gen.cube_with_flat_vertex()
    v = s.vertices.copy()
    v[8, 2] += d
    return PolyhedralSurface(v, s.faces)


def _mask_cases():
    """Point sets whose extremality and flatness margins are far above the
    tolerance: generator vertex sets, a sphere set with interior points,
    and the flat-vertex cube with its centre vertex pushed out by 1e-3."""
    yield gen.octahedron().vertices
    yield gen.cube_with_flat_vertex().vertices
    yield _pushed_cube(1e-3).vertices
    yield gen.schonhardt(gen.SchonhardtParams(0.4, 1.0, 2.0)).vertices
    yield from (s.vertices for s in gen.pushed_vertex_pair(1.0))
    rng = np.random.default_rng(4)
    p = rng.standard_normal((16, 3))
    yield np.vstack([p / np.linalg.norm(p, axis=1)[:, None],
                     0.5 * rng.uniform(-1, 1, (4, 3))])


_CASES = [(p, hull_masks(p)) for p in _mask_cases()]
_UNIT = st.floats(-1.0, 1.0)
_COORD = st.floats(-10.0, 10.0)


@settings(max_examples=30, deadline=None)
@given(quat=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(
           lambda q: np.linalg.norm(q) > 0.1),
       shift=st.tuples(_COORD, _COORD, _COORD),
       scale=st.floats(1.0, 1e3),
       data=st.data())
def test_hull_masks_invariant_under_similarity_and_relabelling(quat, shift,
                                                               scale, data):
    rotation = Rotation.from_quat(quat).as_matrix()
    for p, (extreme, boundary) in _CASES:
        perm = np.array(data.draw(st.permutations(range(len(p)))))
        moved = np.empty_like(p)
        moved[perm] = scale * p @ rotation.T + np.asarray(shift)
        got_extreme, got_boundary = hull_masks(moved)
        assert np.array_equal(got_extreme[perm], extreme)
        assert np.array_equal(got_boundary[perm], boundary)
    # The band case: TOL_GEOM * coord_scale decides, and the scale (0.9 of
    # the cube's side) moves with the points, so a centre vertex 2e-9 of
    # the side outside the hull of the others is extreme and 5e-10 is flat.
    for s in (1.0, 1e3, scale):
        for d, extreme in ((2e-9, True), (5e-10, False)):
            p = _pushed_cube(d).vertices
            got_extreme, got_boundary = hull_masks(
                s * p @ rotation.T + np.asarray(shift))
            assert list(got_extreme) == [True] * 8 + [extreme]
            assert got_boundary.all()


@pytest.mark.parametrize("shapes", [((3,), (3,)), ((5, 3), (3,)),
                                    ((3, 1, 3), (8, 3)), ((12, 1, 3), (20, 3)),
                                    ((138, 1, 3), (92, 3)), ((6, 6, 1, 3), (6, 1, 6, 3))])
def test_cross3_is_bitwise_np_cross(shapes):
    # Magnitudes over 16 decades, and exact zeros of both signs.
    rng = np.random.default_rng(len(shapes[0]) + shapes[0][0])
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            * rng.choice([1.0, 1.0, 1.0, 0.0, -0.0], shape) for shape in shapes)
    got, want = cross3(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_flat_vertex_set_has_no_hull():
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0]])
    with pytest.raises(DegenerateVertexSet):
        hull_masks(flat)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_orientations_match_determinants_far_from_the_origin(scale):
    # Points 1e6 * scale from the origin: the line coordinates are taken on
    # the points centred at their mean, so only rounding of order
    # 1e-16 * scale**3 remains.  Differences of the stored points are
    # exact to rounding, so the determinants are the reference.
    rng = np.random.default_rng(3)
    n = 7
    v = scale * (rng.standard_normal((n, 3)) + 1e6 * Rotation.random(
        random_state=4).apply([1.0, 0.0, 0.0]))
    pairs = np.indices((n, n)).reshape(2, -1).T
    o = orientations(v, pairs, pairs).reshape(n, n, n, n)
    d = v[None, :, :] - v[:, None, :]                     # d[i, j] = v_j - v_i
    i, j, k, l = np.indices((n,) * 4)
    det = np.linalg.det(np.stack([d[i, j], d[i, k], d[i, l]], axis=-2))
    bound = 1e-12 * coord_scale(v)**3
    assert np.max(np.abs(o - det)) <= bound
    tets = np.array(list(combinations(range(n), 4)))
    assert np.max(np.abs(tet_orientations(v, tets) - det[tuple(tets.T)])) <= bound
    assert np.max(np.abs(det)) > 1e9 * bound


def test_crossing_octahedron_is_reported():
    base = gen.octahedron()
    v = base.vertices.copy()
    v[0] = (-1.022, 1.731, -1.181)
    s = PolyhedralSurface(v, base.faces)
    report = surface_validate(s)
    crossing = [x.where for x in report.violations if x.tag == "self-intersection"]
    assert crossing == [(0, 3), (1, 2)]
    assert analyze_surface(s)["validity"]["ok"] is False


def test_doubly_covered_triangle_is_reported():
    s = PolyhedralSurface(np.eye(3), [(0, 1, 2), (0, 2, 1)])
    report = surface_validate(s)
    assert [x.tag for x in report.violations] == ["degenerate-volume"]
    with pytest.raises(InvalidSurface):
        decompose(s)
    with pytest.raises(InvalidSurface):
        is_weakly_convex(s)


def test_coplanar_edge_and_face_do_not_cross_after_a_similarity():
    # Edge (6, 7) and face (4, 5, 8) of the flat-vertex cube share the top
    # plane.  Moved like this, their crossing determinant rounds to 1.4e-14,
    # a sine of 1.3e-16 between the edge and the face's plane.
    rotation = Rotation.from_quat((-0.3603622918580215, 1.0, -1.0,
                                   -0.9230376367614741)).as_matrix()
    s = gen.cube_with_flat_vertex()
    moved = PolyhedralSurface(5.925238189848909 * s.vertices @ rotation.T
                              + np.array([0.0, 9.0, 0.0]), s.faces)
    assert surface_validate(moved).ok


# Solids with the triangulation builder each is generated with (None: the
# analysis searches for one).
_SOLIDS = [
    (PolyhedralSurface(np.vstack([np.zeros(3), np.eye(3)]),
                       [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]), None),
    (gen.octahedron(), gen.octahedron_axis_triangulation),
    (gen.cube_with_flat_vertex(), gen.cube_flat_triangulation),
    (gen.schonhardt(gen.SchonhardtParams(math.pi / 6, 1.0, 2.0)), None),
    (gen.pushed_vertex_pair()[1], gen.pushed_pair_triangulation),
    # Its front facets have options of equal volume: the search's choice
    # among them must not depend on where the solid sits.
    (gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(math.pi / 6, 2.5, 4.0), vertical_shift=0.1))[0], None),
]


def _placement_signature(s, triangulation):
    """Validity, the search's outcome (kind, tetrahedra and nodes explored),
    the admissible candidates and the analysis verdicts of a solid."""
    if not surface_validate(s).ok:
        return (False,)
    subsets = list(combinations(range(len(s.vertices)), 4))
    outcome = find_decomposition(s)
    t = triangulation(s) if triangulation else None
    report = analyze_surface(s, t=t)
    return (True, type(outcome).__name__, getattr(outcome, "tetrahedra", None),
            getattr(outcome, "nodes_explored", None),
            tuple(tet_admissible(s, subsets)), report["verdict"],
            report.get("stiffness", {}).get("verdict"),
            report["deformation"]["verdict"])


_SIGNATURES = [_placement_signature(*solid) for solid in _SOLIDS]
_FAR = st.floats(-1e3, 1e3)


@settings(max_examples=20, deadline=None)
@given(shift=st.tuples(_FAR, _FAR, _FAR),
       scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
@example(shift=(700.0, 0.0, 0.0), scale=1.0)
@example(shift=(0.0, 0.0, 0.0), scale=1e-3)
@example(shift=(0.0, 0.0, 0.0), scale=1e10)
@example(shift=(1000.0, 0.0, 0.0), scale=1.0)
def test_verdicts_invariant_under_translation_and_scaling(shift, scale):
    # Every tolerance follows coord_scale, which moves with the solid, so
    # no decision depends on where the solid sits or on its size.  The shift
    # is in the solid's own units: a solid 1e-6 of its distance from the
    # origin keeps its shape only to 1e-10, and the pushed pair's flexible
    # member is flexible only at its exact critical depth.
    for (s, triangulation), signature in zip(_SOLIDS, _SIGNATURES):
        moved = PolyhedralSurface(scale * (s.vertices + np.asarray(shift)),
                                  s.faces)
        assert _placement_signature(moved, triangulation) == signature
    assert [sig[1] for sig in _SIGNATURES] == (
        ["Triangulation"] * 3 + ["NonDecomposable"] + ["Triangulation"] * 2)


# Far from the origin, a sum of determinants of raw coordinates loses the
# volume to cancellation; the centred face normals keep it.

def test_flat_surface_far_from_the_origin_has_degenerate_volume():
    square = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
    s = PolyhedralSurface(square + [1e6, 7e5, 1.3e6],
                          [(0, 1, 2), (1, 3, 2), (0, 1, 3), (0, 2, 3)])
    assert [v.tag for v in surface_validate(s).violations] == [
        "degenerate-volume"]


def test_volume_far_from_the_origin():
    o = gen.octahedron()
    assert volume(PolyhedralSurface(o.vertices + 1e8, o.faces)) == (
        pytest.approx(4.0 / 3.0, abs=1e-12))


def test_inward_flat_octahedron_far_from_the_origin_is_turned_outward():
    o = gen.octahedron()
    s = PolyhedralSurface(o.vertices * [1, 1, 0.01]
                          + [1e8, 5e7, 1e8 * 18 / 7],
                          [(a, c, b) for a, b, c in o.faces])
    assert s.faces == o.faces
    assert volume(s) > 0
    report = analyze_surface(s)
    assert report["decomposition"]["kind"] == "triangulation"
    assert (report["stiffness"]["verdict"], report["deformation"]["verdict"],
            report["verdict"]) == ("Rigid", "Rigid", "Rigid")
