import math
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conftest import build_star_surface, tet_volume
from rigidity_lab import generators as gen
from rigidity_lab import triangulation
from rigidity_lab.errors import InvalidTriangulation, TooManyVertices
from rigidity_lab.geom import PolyhedralSurface
from rigidity_lab.pipeline import analyze_surface
from rigidity_lab.triangulation import (
    BudgetExceeded,
    NonDecomposable,
    Triangulation,
    fan_triangulation,
    find_decomposition,
    tet_admissible,
    vertex_census,
    winding_numbers,
)


def test_fan_triangulation_of_octahedron_is_valid():
    t = fan_triangulation(gen.octahedron(), apex=0)
    assert t.validate().ok
    total = sum(tet_volume([t.points[i] for i in tet]) for tet in t.tetrahedra)
    assert total == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_axis_triangulation_census():
    t = gen.octahedron_axis_triangulation()
    census = vertex_census(t)
    assert (census.m, census.k) == (0, 0)
    assert t.interior_edges == [(4, 5)]


def test_cube_flat_triangulation_census():
    t = gen.cube_flat_triangulation()
    census = vertex_census(t)
    assert (census.m, census.k) == (0, 1)


def test_octahedron_with_centroid_census():
    t = gen.octahedron_with_centroid_triangulation()
    census = vertex_census(t)
    assert (census.m, census.k) == (1, 0)
    # The centroid is an extra triangulation point beyond the surface.
    assert len(t.points) == len(t.surface.vertices) + 1


def test_find_decomposition_octahedron():
    outcome = find_decomposition(gen.octahedron())
    assert isinstance(outcome, Triangulation)
    assert outcome.validate().ok


def test_find_decomposition_schonhardt_critical():
    s = gen.schonhardt(gen.SchonhardtParams(math.pi / 6.0, 1.0, 2.0))
    outcome = find_decomposition(s)
    assert isinstance(outcome, NonDecomposable)
    assert outcome.admissible_candidates == 0


def test_find_decomposition_schonhardt_any_positive_twist():
    # Non-decomposability is not special to pi/6.
    for theta in (0.1, 0.8):
        s = gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
        assert isinstance(find_decomposition(s), NonDecomposable)


def test_budget_exceeded_outcome():
    surface, _ = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(math.pi / 6, 2.5, 4.0), vertical_shift=0.7))
    outcome = find_decomposition(surface, budget=3)
    assert isinstance(outcome, BudgetExceeded)
    assert outcome.nodes_explored >= 3


def test_convex_hull_beyond_the_vertex_limit_takes_its_fan():
    # The fan is tried before the search's vertex limit, so a convex hull
    # of any size decomposes and both oracles judge it.
    rng = np.random.default_rng(0)
    d = rng.standard_normal((triangulation.MAX_VERTICES + 4, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    s = PolyhedralSurface(d, ConvexHull(d).simplices)
    outcome = find_decomposition(s)
    assert outcome.tetrahedra == fan_triangulation(s).tetrahedra
    report = analyze_surface(s)
    assert report["decomposition"]["kind"] == "triangulation"
    assert report["verdict"] == "Rigid" and report["oracles_agree"]


def test_surface_beyond_the_vertex_limit_without_a_fan_is_refused():
    s = build_star_surface(0, triangulation.MAX_VERTICES + 4)
    assert not fan_triangulation(s).validate().ok
    with pytest.raises(TooManyVertices, match="exceeds the desk-scale limit 16"):
        find_decomposition(s)


def test_invalid_triangulation_is_rejected():
    s = gen.octahedron()
    with pytest.raises(InvalidTriangulation):
        Triangulation(s, [(0, 1, 2, 4)]).require_valid()


def test_overlapping_tets_are_reported():
    s = gen.octahedron()
    t = Triangulation(s, [(0, 2, 4, 5), (2, 1, 4, 5), (1, 3, 4, 5),
                          (3, 0, 4, 5), (0, 2, 4, 5)])
    report = t.validate()
    assert not report.ok
    assert any(v.tag == "boundary-chain" for v in report.violations)


def test_non_conforming_tiling_is_rejected():
    # Two square pyramids cut along different diagonals: the interiors are
    # disjoint and the volumes fill the octahedron, but the pyramids meet
    # in two triangles each that do not match, so the total angle around
    # the diagonals (0, 1) and (2, 3) is pi, not 2 pi.
    t = Triangulation(gen.octahedron(), [(0, 1, 2, 4), (0, 1, 3, 4),
                                         (2, 3, 0, 5), (2, 3, 1, 5)])
    report = t.validate()
    assert {v.tag for v in report.violations} == {"boundary-chain"}
    assert sorted(sorted(v.where) for v in report.violations) == [
        [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def test_degenerate_tet_is_reported():
    s = gen.octahedron()
    t = Triangulation(s, [(0, 2, 4, 5), (2, 1, 4, 5), (1, 3, 4, 5),
                          (3, 0, 4, 5), (0, 1, 4, 5)])  # last one is flat
    report = t.validate()
    assert not report.ok
    assert any(v.tag == "degenerate-tet" for v in report.violations)


def test_classify_point():
    s = gen.octahedron()
    # Inside and outside.
    assert winding_numbers(s, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]) == pytest.approx(
        [1.0, 0.0], abs=1e-12)


def test_tet_admissible_respects_surface():
    s = gen.schonhardt(gen.SchonhardtParams(math.pi / 6.0, 1.0, 2.0))
    # Every 4-subset of a critically twisted Schonhardt polyhedron pokes
    # outside: no admissible tetrahedron exists.
    subsets = list(combinations(range(6), 4))
    assert not tet_admissible(s, subsets).any()
    assert tet_admissible(gen.octahedron(), subsets).any()


@pytest.mark.parametrize("theta", [0.0, math.pi / 6.0])
def test_tet_admissible_stack_equals_single_calls(theta):
    s = gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
    subsets = list(combinations(range(6), 4))
    single = [bool(tet_admissible(s, [tet])[0]) for tet in subsets]
    stacked = tet_admissible(s, np.array(subsets))
    assert stacked.dtype == bool and list(stacked) == single


def test_tet_admissible_winds_only_the_centroids(monkeypatch):
    # Winding numbers are computed once, for centroids only, and only for
    # the candidates the crossing and vertex tests leave: on Schonhardt's
    # octahedron the 3 of 15 that lie outside whole, where the probe filter
    # classified 170 probe points.
    s = gen.schonhardt(gen.SchonhardtParams(math.pi / 6.0, 1.0, 2.0))
    subsets = np.array(list(combinations(range(6), 4)))
    calls = []

    def counting(surface, points):
        calls.append(np.asarray(points))
        return winding_numbers(surface, points)

    monkeypatch.setattr(triangulation, "winding_numbers", counting)
    tet_admissible(s, subsets)
    assert [len(p) for p in calls] == [3]
    centroids = s.vertices[subsets].mean(axis=1)
    assert all(any(np.array_equal(p, c) for c in centroids) for p in calls[0])


def test_tet_admissible_rejects_tetrahedra_that_reach_outside():
    # The probe filter's 46 points all miss the part outside.
    pushed = gen.pushed_vertex_pair(1.4)[1]
    assert not tet_admissible(pushed, [(0, 2, 3, 4), (0, 2, 4, 5)]).any()
    t_poly, _ = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(0.0, 2.5, 4.0), vertical_shift=0.7))
    assert not tet_admissible(t_poly, [(3, 6, 7, 11)]).any()


def test_admitted_tetrahedra_lie_inside_star_surfaces(star_surface):
    # 500 uniform samples in each admitted candidate all wind more than 1/2.
    admitted = 0
    for seed in range(40):
        s = star_surface(seed, 6 + seed % 7)
        subsets = np.array(list(combinations(range(len(s.vertices)), 4)))
        kept = subsets[tet_admissible(s, subsets)]
        weights = np.random.default_rng(seed).dirichlet(np.ones(4), (len(kept), 500))
        for k in range(0, len(kept), 20):
            samples = np.einsum("tsc,tcx->tsx", weights[k:k + 20],
                                s.vertices[kept[k:k + 20]])
            wind = winding_numbers(s, samples.reshape(-1, 3)).reshape(-1, 500)
            assert wind.min() > 0.5, (seed, kept[k + np.argmin(wind.min(axis=1))])
        admitted += len(kept)
    assert admitted > 1000


def _tpoly(shift):
    surface, _ = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(math.pi / 6, 2.5, 4.0), vertical_shift=shift))
    return surface


def _relabelled(s, perm):
    """The surface with vertex i renamed perm[i]."""
    v = np.empty_like(s.vertices)
    v[perm] = s.vertices
    return PolyhedralSurface(v, [tuple(int(perm[i]) for i in f) for f in s.faces])


_RELABEL_SURFACES = {
    "pushed-pair": lambda: gen.pushed_vertex_pair(1.4)[1],
    "t-poly-0.3": lambda: _tpoly(0.3),
    "t-poly-0.7": lambda: _tpoly(0.7),
    "cube-with-flat-vertex": gen.cube_with_flat_vertex,
}


@pytest.mark.parametrize("name", [*_RELABEL_SURFACES, "star"])
def test_tet_admissible_permutes_with_vertex_labels(name, star_surface):
    # Renaming the vertices renames the candidates and keeps each decision.
    rng = np.random.default_rng(11)
    surfaces = ([star_surface(seed, 8 + seed) for seed in range(8)] if name == "star"
                else [_RELABEL_SURFACES[name]()])
    for s in surfaces:
        n = len(s.vertices)
        subsets = np.array(list(combinations(range(n), 4)))
        mask = tet_admissible(s, subsets)
        assert 0 < mask.sum() < len(mask)
        for _ in range(3):
            perm = rng.permutation(n)
            assert np.array_equal(tet_admissible(_relabelled(s, perm), perm[subsets]),
                                  mask)


def test_tet_volume_unit():
    pts = [np.zeros(3), np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    assert tet_volume(pts) == pytest.approx(1.0 / 6.0, abs=1e-15)
