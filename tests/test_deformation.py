import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation
from sympy.polys.matrices import DomainMatrix

from rigidity_lab import generators as gen
from rigidity_lab.deformation import (
    deformation_space,
    rigidity_matrix,
    trivial_motions,
    twist_mode,
)
from rigidity_lab.geom import PolyhedralSurface

PI = math.pi


def test_rigidity_matrix_shape():
    s = gen.octahedron()
    r = rigidity_matrix(s)
    assert r.matrix.shape == (len(r.edges), 3 * len(s.vertices))
    assert r.n_vertices == 6
    assert len(r.edges) == 12


def test_trivial_motions_lie_in_null_space():
    for s in (gen.octahedron(),
              gen.schonhardt(gen.SchonhardtParams(PI / 6, 1.0, 2.0)),
              gen.pushed_vertex_pair()[1]):
        r = rigidity_matrix(s).matrix
        t = trivial_motions(s)
        assert t.shape == (6, 3 * len(s.vertices))
        assert np.max(np.abs(r @ t.T)) <= 1e-9 * max(1.0, np.max(np.abs(r)))
        # The six motions are linearly independent.
        assert np.linalg.matrix_rank(t) == 6


def test_octahedron_is_rigid():
    basis, verdict = deformation_space(gen.octahedron())
    assert basis.nullity == 6
    assert basis.trivial_dim == 6
    assert verdict.kind.value == "Rigid"


def test_schonhardt_critical_twist_is_flexible():
    s = gen.schonhardt(gen.SchonhardtParams(PI / 6, 1.0, 2.0))
    basis, verdict = deformation_space(s)
    assert basis.nullity == 7
    assert basis.trivial_dim == 6
    assert verdict.kind.value == "Flexible"


def test_schonhardt_off_critical_is_rigid():
    for theta in (PI / 12, PI / 4):
        s = gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
        basis, verdict = deformation_space(s)
        assert basis.nullity == 6
        assert verdict.kind.value == "Rigid"


def _exact_antiprism(r, h, top_z):
    """``schonhardt_vertices`` at theta = pi/6 in exact arithmetic: every
    coordinate lies in Q(sqrt 3)."""
    top = [0, 2 * sympy.pi / 3, 4 * sympy.pi / 3]
    bottom = [3 * sympy.pi / 2, sympy.pi / 6, 5 * sympy.pi / 6]
    return ([(r * sympy.cos(a), r * sympy.sin(a), top_z) for a in top]
            + [(r * sympy.cos(a), r * sympy.sin(a), top_z - h)
               for a in bottom])


def _exact_nullity(s, points) -> int:
    """Nullity of the rigidity matrix of ``s`` built over Q(sqrt 3) from
    ``points``, the exact values of its vertices."""
    assert np.max(np.abs(np.array(points, dtype=float) - s.vertices)) < 1e-14
    n = len(points)
    rows = []
    for i, j in s.edges:
        row = [0] * (3 * n)
        for k in range(3):
            row[3 * i + k] = points[i][k] - points[j][k]
            row[3 * j + k] = points[j][k] - points[i][k]
        rows.append(row)
    field = sympy.QQ.algebraic_field(sympy.sqrt(3))
    return 3 * n - DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(
        field).rank()


@pytest.mark.parametrize("s, points, nullity", [
    (gen.schonhardt(gen.SchonhardtParams(PI / 6, 1.0, 2.0)),
     _exact_antiprism(1, 2, 1), 7),
    (gen.t_polyhedron(gen.TPolyParams(gen.SchonhardtParams(PI / 6, 1.0, 2.0),
                                      gen.SchonhardtParams(PI / 6, 2.5, 4.0)))[0],
     _exact_antiprism(sympy.Rational(5, 2), 4, 2) + _exact_antiprism(1, 2, 2),
     11),
], ids=["schonhardt", "t-poly"])
def test_nullity_is_the_exact_rank_deficiency(s, points, nullity):
    # The SVD threshold finds the nullity that exact arithmetic proves.
    assert _exact_nullity(s, points) == nullity
    basis, _ = deformation_space(s)
    assert (basis.nullity, basis.nontrivial_dim) == (nullity, nullity - 6)


def test_deformation_basis_annihilates_edge_lengths():
    s = gen.schonhardt(gen.SchonhardtParams(PI / 6, 1.0, 2.0))
    basis, _ = deformation_space(s)
    r = rigidity_matrix(s).matrix
    assert np.max(np.abs(r @ basis.basis.T)) <= 1e-7


def test_twist_mode_geometry():
    s = gen.schonhardt(gen.SchonhardtParams(PI / 6, 1.0, 2.0))
    basis, _ = deformation_space(s)
    mode = twist_mode(s, basis)
    assert mode.mode.shape == (6, 3)
    assert mode.bottom_residual <= 1e-9
    assert mode.plane_residual <= 1e-9
    assert mode.rotation_residual <= 1e-9
    # The mode is genuinely nontrivial.
    assert np.linalg.norm(mode.mode) > 1e-6


def test_pushed_pair_verdicts():
    convex, pushed = gen.pushed_vertex_pair()
    _, v_convex = deformation_space(convex)
    _, v_pushed = deformation_space(pushed)
    assert v_convex.kind.value == "Rigid"
    assert v_pushed.kind.value == "Flexible"


_TETRAHEDRON = PolyhedralSurface(np.vstack([np.zeros(3), np.eye(3)]),
                                 [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])


def _signature(s):
    d, verdict = deformation_space(s)
    return d.nullity, d.trivial_dim, verdict.kind


# Rigid and flexible surfaces, with their signature where they are built.
_PLACED = [(s, _signature(s))
           for s in (_TETRAHEDRON, gen.octahedron(),
                     gen.schonhardt(gen.SchonhardtParams(0.3, 1.0, 2.0)),
                     gen.schonhardt(gen.SchonhardtParams(PI / 6, 1.0, 2.0)),
                     gen.pushed_vertex_pair()[1])]
_UNIT = st.floats(-1.0, 1.0)
_SHIFT = st.floats(-300.0, 300.0)


@settings(max_examples=25, deadline=None)
@given(quat=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(
           lambda q: np.linalg.norm(q) > 0.1),
       shift=st.tuples(_SHIFT, _SHIFT, _SHIFT),
       scale=st.floats(1.0, 1e5),
       seed=st.integers(0, 2**32 - 1))
@example(quat=(0.0, 0.0, 0.0, 1.0), shift=(300.0, 0.0, 0.0), scale=1.0, seed=0)
@example(quat=(0.0, 0.0, 0.0, 1.0), shift=(0.0, 0.0, 0.0), scale=1e5, seed=0)
def test_deformation_verdict_invariant_under_similarity(quat, shift, scale,
                                                        seed):
    # Vertex v becomes vertex perm[v], with perm drawn from the seed.
    rotation = Rotation.from_quat(quat).as_matrix()
    rng = np.random.default_rng(seed)
    for s, signature in _PLACED:
        perm = rng.permutation(len(s.vertices))
        v = np.empty_like(s.vertices)
        v[perm] = scale * s.vertices @ rotation.T + np.asarray(shift)
        moved = PolyhedralSurface(v, [tuple(perm[list(f)]) for f in s.faces])
        assert _signature(moved) == signature
    assert [sig[:2] for _, sig in _PLACED] == [(6, 6)] * 3 + [(7, 6)] * 2
