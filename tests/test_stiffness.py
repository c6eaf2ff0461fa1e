import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull
from scipy.spatial.transform import Rotation

from rigidity_lab import generators as gen
from rigidity_lab.deformation import deformation_space
from rigidity_lab.geom import PolyhedralSurface, canonical_edge
from rigidity_lab.stiffness import (
    DEFAULT_SCHEME,
    PAPER_SCHEME,
    TOL_EIG,
    TOL_EIG_EXACT,
    FDScheme,
    SchemeKind,
    VerdictKind,
    assemble_mt,
    rigidity_verdict,
    spectrum,
    theorem1_check,
)
from rigidity_lab.triangulation import (
    Triangulation,
    fan_triangulation,
    vertex_census,
)


def test_paper_scheme_replicates_appendix_value():
    t = gen.octahedron_axis_triangulation()
    mt = assemble_mt(t, PAPER_SCHEME)
    assert mt.matrix.shape == (1, 1)
    assert mt.matrix[0, 0] == pytest.approx(1469.28, rel=0.01)


CENTRAL = FDScheme(SchemeKind.CENTRAL, 1e-6)


def test_central_scheme_gives_true_derivative():
    t = gen.octahedron_axis_triangulation()
    mt = assemble_mt(t, CENTRAL)
    # d(omega)/d(l) at the axis edge of the regular octahedron is exactly 4.
    assert mt.matrix[0, 0] == pytest.approx(4.0, abs=1e-6)


def test_central_scheme_is_nearly_symmetric():
    convex, _ = gen.pushed_vertex_pair()
    t = gen.pushed_pair_triangulation(convex)
    mt = assemble_mt(t, CENTRAL)
    assert mt.symmetry_residual <= 1e-5 * max(1.0, np.max(np.abs(mt.matrix)))


def test_exact_scheme_gives_true_derivative():
    t = gen.octahedron_axis_triangulation()
    mt = assemble_mt(t, DEFAULT_SCHEME)
    assert DEFAULT_SCHEME.kind is SchemeKind.EXACT
    assert mt.matrix[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_exact_scheme_is_symmetric():
    convex, _ = gen.pushed_vertex_pair()
    t = gen.pushed_pair_triangulation(convex)
    mt = assemble_mt(t, DEFAULT_SCHEME)
    assert mt.symmetry_residual <= 1e-13


def test_spectrum_counts():
    t = gen.octahedron_axis_triangulation()
    sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
    assert (sp.n_negative, sp.n_zero, sp.n_positive) == (0, 0, 1)
    assert len(sp.eigenvalues) == 1


def test_verdict_rigid_for_octahedron():
    t = gen.octahedron_axis_triangulation()
    sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
    v = rigidity_verdict(t, sp, vertex_census(t))
    assert v.kind is VerdictKind.RIGID


def test_verdict_flexible_flags_numerical_evidence():
    _, pushed = gen.pushed_vertex_pair()
    t = gen.pushed_pair_triangulation(pushed)
    sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
    v = rigidity_verdict(t, sp, vertex_census(t))
    assert v.kind is VerdictKind.FLEXIBLE
    assert v.evidence.get("numerical") is True


def test_verdict_indeterminate_with_interior_vertices():
    t = gen.octahedron_with_centroid_triangulation()
    sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
    v = rigidity_verdict(t, sp, vertex_census(t))
    assert v.kind is VerdictKind.INDETERMINATE


def test_theorem1_kernel_dimensions():
    for t, m, k in ((gen.octahedron_axis_triangulation(), 0, 0),
                    (gen.cube_flat_triangulation(), 0, 1),
                    (gen.octahedron_with_centroid_triangulation(), 1, 0)):
        sp = spectrum(assemble_mt(t, FDScheme(SchemeKind.CENTRAL, 1e-6)))
        census = vertex_census(t)
        assert (census.m, census.k) == (m, k)
        assert sp.n_zero == 3 * m + k
        assert sp.n_negative == m
        assert theorem1_check(t, sp, census)


def test_spectrum_tolerance_is_relative():
    t = gen.cube_flat_triangulation()
    mt = assemble_mt(t, DEFAULT_SCHEME)
    tight = spectrum(mt, tol_eig=1e-12)
    loose = spectrum(mt, tol_eig=1e-1)
    assert tight.n_zero <= spectrum(mt).n_zero <= loose.n_zero


def test_spectrum_cutoff_defaults_to_the_scheme():
    t = gen.cube_flat_triangulation()
    assert spectrum(assemble_mt(t)).tol_eig == TOL_EIG_EXACT == 1e-9
    central = assemble_mt(t, FDScheme(SchemeKind.CENTRAL, 1e-6))
    assert spectrum(central).tol_eig == TOL_EIG == 1e-4
    assert spectrum(central, tol_eig=1e-3).tol_eig == 1e-3


def test_exact_is_the_default_scheme():
    assert DEFAULT_SCHEME.kind is SchemeKind.EXACT
    assert (DEFAULT_SCHEME.epsilon, DEFAULT_SCHEME.round_sig) == (None, None)


@pytest.mark.parametrize("kind, epsilon, round_sig", [
    (SchemeKind.EXACT, 1e-6, None),
    (SchemeKind.CENTRAL, 1.0, None),
    (SchemeKind.CENTRAL, 1e-6, 0),
    (SchemeKind.FORWARD, 1e-8, 100000),
], ids=["explicit-exact", "eps-range", "round-sig-range",
        "round-sig-too-large"])
def test_fd_scheme_out_of_range_is_value_error(kind, epsilon, round_sig):
    # The exact scheme takes no step; a step lies in (0, 1e-2] and a
    # rounding in 1..17 figures, the digits a double holds.
    with pytest.raises(ValueError):
        FDScheme(kind, epsilon, round_sig)


# -- invariance under similarity and relabelling --------------------------

def _sphere_hull_fan(seed: int, n: int) -> Triangulation:
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    faces = [tuple(int(i) for i in f) for f in ConvexHull(p).simplices]
    return fan_triangulation(PolyhedralSurface(p, faces), apex=0)


@functools.cache
def _invariance_cases():
    """(triangulation, exact M_T, spectrum counts, deformation nullity)."""
    cases = []
    for t in (gen.octahedron_axis_triangulation(),
              gen.cube_flat_triangulation(), _sphere_hull_fan(4, 12)):
        m = assemble_mt(t)
        sp = spectrum(m)
        cases.append((t, m.matrix, (sp.n_negative, sp.n_zero, sp.n_positive),
                      deformation_space(t.surface)[0].nullity))
    return cases


def _moved(t: Triangulation, rotation, shift, scale, perm) -> Triangulation:
    """Vertex v becomes vertex perm[v] at scale * rotation(p_v) + shift."""
    pts = np.empty_like(t.points)
    pts[list(perm)] = scale * t.points @ rotation.T + np.asarray(shift)
    relabel = [tuple(perm[v] for v in f) for f in t.surface.faces]
    return Triangulation(PolyhedralSurface(pts, relabel),
                         [tuple(perm[v] for v in tet) for tet in t.tetrahedra])


_UNIT = st.floats(-1.0, 1.0)
_COORD = st.floats(-10.0, 10.0)


@settings(max_examples=20, deadline=None)
@given(quat=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(
           lambda q: np.linalg.norm(q) > 0.1),
       shift=st.tuples(_COORD, _COORD, _COORD),
       scale=st.floats(0.1, 10.0),
       data=st.data())
def test_exact_mt_invariant_under_similarity_and_relabelling(quat, shift,
                                                             scale, data):
    rotation = Rotation.from_quat(quat).as_matrix()
    for t, m, counts, nullity in _invariance_cases():
        perm = data.draw(st.permutations(range(len(t.points))))
        moved = _moved(t, rotation, shift, scale, perm)
        mt = assemble_mt(moved)
        sp = spectrum(mt)
        assert (sp.n_negative, sp.n_zero, sp.n_positive) == counts
        assert deformation_space(moved.surface)[0].nullity == nullity
        # Angles are scale-free, so their length derivatives scale by 1/scale.
        index = {e: k for k, e in enumerate(moved.interior_edges)}
        order = [index[canonical_edge(perm[a], perm[b])]
                 for a, b in t.interior_edges]
        expected = m / scale
        assert (np.max(np.abs(mt.matrix[np.ix_(order, order)] - expected))
                <= 1e-9 * np.max(np.abs(expected)))


def test_rotation_with_subnormal_entries_keeps_counts():
    # A quaternion with a subnormal component puts subnormal coordinates in
    # the surface; validation and M_T must stay silent and unchanged.
    rotation = Rotation.from_quat((0.0, 1.0, 0.0, 2.225073858507e-311))
    for t, m, counts, nullity in _invariance_cases():
        for shift in ((0.0, 0.0, 0.0), (0.0, 5.7e-14, 8.24)):
            moved = _moved(t, rotation.as_matrix(), shift, 1.0,
                           range(len(t.points)))
            sp = spectrum(assemble_mt(moved))
            assert (sp.n_negative, sp.n_zero, sp.n_positive) == counts
            assert deformation_space(moved.surface)[0].nullity == nullity
