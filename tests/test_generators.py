import math

import numpy as np
import pytest

from rigidity_lab import generators as gen
from rigidity_lab.errors import (
    BadParams,
    DegenerateDepth,
    ImaginaryHeight,
    InvalidSurface,
    SelfIntersecting,
)
from rigidity_lab.geom import is_weakly_convex, surface_validate, volume

PI = math.pi


def test_schonhardt_param_validation():
    with pytest.raises(BadParams):
        gen.schonhardt(gen.SchonhardtParams(-1.0, 1.0, 2.0))
    with pytest.raises(BadParams):
        gen.schonhardt(gen.SchonhardtParams(PI / 3.0, 1.0, 2.0))
    with pytest.raises(BadParams):
        gen.schonhardt(gen.SchonhardtParams(PI / 6.0, -1.0, 2.0))
    with pytest.raises(BadParams):
        gen.schonhardt(gen.SchonhardtParams(PI / 6.0, 1.0, 0.0))


def test_schonhardt_is_valid_and_weakly_convex():
    for theta in (0.1, PI / 6.0, 0.9):
        s = gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
        assert surface_validate(s).ok
        assert is_weakly_convex(s)[1]
        assert len(s.vertices) == 6
        assert len(s.faces) == 8


def test_schonhardt_unit_has_unit_sides():
    s = gen.schonhardt_unit(0.4)
    v = s.vertices
    for tri in ((0, 1, 2), (3, 4, 5)):
        for a, b in zip(tri, tri[1:] + tri[:1]):
            assert np.linalg.norm(v[a] - v[b]) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_long_diagonal_peaks_at_critical_twist():
    values = [gen.long_diagonal_sq(th)
              for th in np.linspace(0.0, PI / 3.0 - 1e-9, 201)]
    assert int(np.argmax(values)) == 100  # midpoint: theta = pi/6


def test_wunderlich_height_domain():
    with pytest.raises(BadParams):
        gen.wunderlich_height(0.0, 0.1, 2.0)
    with pytest.raises(BadParams):
        gen.wunderlich_height(1.0, PI, 2.0)
    with pytest.raises(ImaginaryHeight):
        gen.wunderlich_height(1.0, PI / 2.0, 0.1)
    assert gen.wunderlich_height(1.0, 0.0, 2.0) == pytest.approx(2.0)


def test_overhang_range():
    assert gen.overhang(1.0, PI / 3.0) == pytest.approx(0.0, abs=1e-12)
    for omega in np.linspace(0.0, PI / 3.0, 50):
        m = gen.overhang(1.0, float(omega))
        assert -1e-12 <= m <= 0.134


def test_fixed_solids_are_valid():
    for s in (gen.octahedron(), gen.cube_with_flat_vertex()):
        assert surface_validate(s).ok
    assert gen.octahedron_axis_triangulation().validate().ok
    assert gen.cube_flat_triangulation().validate().ok
    assert gen.octahedron_with_centroid_triangulation().validate().ok


def test_pushed_pair_combinatorics_are_shared():
    convex, pushed = gen.pushed_vertex_pair()
    assert convex.faces == pushed.faces
    assert len(convex.vertices) == 7
    # Only the apex moved, straight down.
    delta = pushed.vertices - convex.vertices
    assert np.max(np.abs(delta[1:])) == 0.0
    assert delta[0, 0] == 0.0 and delta[0, 1] == 0.0 and delta[0, 2] < 0.0


def test_pushed_pair_validity_and_convexity():
    convex, pushed = gen.pushed_vertex_pair()
    assert surface_validate(convex).ok
    assert surface_validate(pushed).ok
    assert is_weakly_convex(convex)[1]
    assert not is_weakly_convex(pushed)[1]


def test_pushed_pair_triangulation_is_shared():
    convex, pushed = gen.pushed_vertex_pair()
    ta = gen.pushed_pair_triangulation(convex)
    tb = gen.pushed_pair_triangulation(pushed)
    assert ta.tetrahedra == tb.tetrahedra
    assert ta.validate().ok
    assert tb.validate().ok
    assert ta.interior_edges == [(1, 3), (3, 5)]


def test_pushed_pair_depth_validation():
    for depth in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DegenerateDepth):
            gen.pushed_vertex_pair(depth)


def test_pushed_pair_shallow_depth_stays_convex():
    _, pushed = gen.pushed_vertex_pair(0.05)
    assert surface_validate(pushed).ok


def test_t_polyhedron_is_a_valid_twelve_vertex_surface():
    params = gen.TPolyParams(gen.SchonhardtParams(PI / 6, 1.0, 2.0),
                             gen.SchonhardtParams(PI / 6, 2.5, 4.0))
    surface = gen.t_polyhedron(params)
    assert surface_validate(surface).ok
    assert len(surface.vertices) == 12


def test_t_polyhedron_rejects_poking_cavity():
    params = gen.TPolyParams(gen.SchonhardtParams(PI / 6, 1.0, 5.0),
                             gen.SchonhardtParams(PI / 6, 2.5, 4.0))
    with pytest.raises(SelfIntersecting):
        gen.t_polyhedron(params)


def test_t_polyhedron_poke_through_check_follows_the_size():
    # The shift-0.7 solid scaled by 1e-13: its cavity clears the outer
    # bottom by 1.3e-13, which an absolute 1e-12 would call a poke-through.
    scale = 1e-13
    params = gen.TPolyParams(gen.SchonhardtParams(PI / 6, scale, 2 * scale),
                             gen.SchonhardtParams(PI / 6, 2.5 * scale,
                                                  4 * scale),
                             vertical_shift=0.7 * scale)
    surface = gen.t_polyhedron(params)
    unscaled = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(PI / 6, 1.0, 2.0),
        gen.SchonhardtParams(PI / 6, 2.5, 4.0), vertical_shift=0.7))
    assert surface_validate(surface).ok
    assert surface.faces == unscaled.faces
    assert np.allclose(surface.vertices, scale * unscaled.vertices,
                       rtol=1e-12, atol=0)


def test_t_polyhedron_out_of_range_is_an_invalid_surface():
    # Coordinates past MAX_COORD are a coordinate-range violation, not a
    # self-intersection.
    params = gen.TPolyParams(gen.SchonhardtParams(PI / 6, 1e59, 1e59),
                             gen.SchonhardtParams(PI / 6, 1e60, 1e60))
    with pytest.raises(InvalidSurface) as exc:
        gen.t_polyhedron(params)
    assert [v.tag for v in exc.value.report.violations] == ["coordinate-range"]
