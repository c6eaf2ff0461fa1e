import math

import numpy as np
import pytest

from rigidity_lab import generators as gen
from rigidity_lab.errors import InvalidSurface
from rigidity_lab.geom import (
    PolyhedralSurface,
    canonical_edge,
    extreme_vertex_mask,
    is_weakly_convex,
    orientation,
    surface_validate,
    volume,
)


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
    s = PolyhedralSurface(base.vertices, flipped)  # orient=True repairs it
    assert surface_validate(s).ok
    assert volume(s) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_volume_octahedron():
    assert volume(gen.octahedron()) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_volume_cube_with_flat_vertex():
    assert volume(gen.cube_with_flat_vertex()) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_orientation_predicate_signs():
    p = np.eye(3)
    assert orientation([0, 0, 0], p[0], p[1], p[2]) == 1
    assert orientation([0, 0, 0], p[1], p[0], p[2]) == -1
    assert orientation([0, 0, 0], p[0], p[1], [1, 1, 0]) == 0


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)


def test_degenerate_face_is_reported():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0]])
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    report = surface_validate(PolyhedralSurface(pts, faces, orient=False))
    assert not report.ok
    assert any(v.tag == "degenerate-face" for v in report.violations)


def test_repeated_vertex_face_is_reported():
    base = gen.octahedron()
    faces = [(0, 0, 2)] + list(base.faces[1:])
    report = surface_validate(PolyhedralSurface(base.vertices, faces,
                                                orient=False))
    assert not report.ok
    assert any(v.tag == "repeated-vertex" for v in report.violations)


def test_open_surface_is_reported():
    base = gen.octahedron()
    s = PolyhedralSurface(base.vertices, base.faces[:-1], orient=False)
    assert not surface_validate(s).ok


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
    mask = extreme_vertex_mask(pts)
    assert list(mask) == [True] * 6 + [False]
