import math
from itertools import combinations

import numpy as np
import pytest

from rigidity_lab import generators as gen
from rigidity_lab import triangulation
from rigidity_lab.errors import InvalidTriangulation
from rigidity_lab.geom import PolyhedralSurface
from rigidity_lab.triangulation import (
    BudgetExceeded,
    NonDecomposable,
    Triangulation,
    classify_points,
    fan_triangulation,
    find_decomposition,
    tet_admissible,
    tet_volume,
    vertex_census,
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
    # Inside, outside, on the boundary.
    assert list(classify_points(s, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                                    [1.0, 0.0, 0.0]])) == [1, -1, 0]


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


def test_tet_admissible_classifies_each_distinct_probe_once(monkeypatch):
    # Schonhardt's 15 subsets have 15 centroids, 15 distinct edges of five
    # samples and 20 distinct faces of four: 170 points, not 15 x 47 = 705.
    s = gen.schonhardt(gen.SchonhardtParams(math.pi / 6.0, 1.0, 2.0))
    rows = []

    def counting(surface, points):
        rows.append(len(points))
        return classify_points(surface, points)

    monkeypatch.setattr(triangulation, "classify_points", counting)
    tet_admissible(s, list(combinations(range(6), 4)))
    assert rows == [170]


def test_tet_volume_unit():
    pts = [np.zeros(3), np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    assert tet_volume(pts) == pytest.approx(1.0 / 6.0, abs=1e-15)
