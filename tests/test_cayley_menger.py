import math

import numpy as np
import pytest

from rigidity_lab.cayley_menger import (
    TetraLengths,
    cm_cofactor,
    cm_determinant,
    cm_matrix,
    dihedral_angle,
    dihedral_angle_from_points,
    dihedral_kernel,
    is_valid_tetra,
)
from rigidity_lab.errors import DegenerateTetra

EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _lengths_from_points(pts) -> TetraLengths:
    d = {}
    for i, j in EDGES:
        d[(i, j)] = float(np.linalg.norm(pts[i - 1] - pts[j - 1]))
    return TetraLengths(d[(1, 2)], d[(1, 3)], d[(1, 4)],
                        d[(2, 3)], d[(2, 4)], d[(3, 4)])


def test_regular_tetra_determinant():
    lengths = TetraLengths(1, 1, 1, 1, 1, 1)
    # det = 288 V^2 with V = sqrt(2)/12 for the unit regular tetrahedron.
    assert cm_determinant(lengths) == pytest.approx(288.0 / 72.0, rel=1e-12)


def test_determinant_matches_coordinate_volume():
    rng = np.random.default_rng(1)
    for _ in range(25):
        pts = rng.normal(size=(4, 3))
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        if vol < 1e-3:
            continue
        lengths = _lengths_from_points(pts)
        assert cm_determinant(lengths) == pytest.approx(288.0 * vol * vol,
                                                        rel=1e-9)


def test_cm_matrix_shape_and_symmetry():
    m = cm_matrix(TetraLengths(1, 1, 1, 1, 1, 1))
    assert m.shape == (5, 5)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)


def test_regular_tetra_dihedral():
    lengths = TetraLengths(1, 1, 1, 1, 1, 1)
    expected = math.acos(1.0 / 3.0)
    for edge in EDGES:
        assert dihedral_angle(lengths, edge) == pytest.approx(expected,
                                                              abs=1e-12)


def test_dihedral_matches_coordinate_oracle():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        pts = rng.normal(size=(4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) < 0.3:
            continue
        lengths = _lengths_from_points(pts)
        for edge in EDGES:
            a = dihedral_angle(lengths, edge)
            b = dihedral_angle_from_points(*pts, edge=edge)
            assert a == pytest.approx(b, abs=1e-9)
        checked += 1


def test_is_valid_tetra_rejects_flat_and_impossible():
    assert is_valid_tetra(TetraLengths(1, 1, 1, 1, 1, 1))
    # Four collinear-ish points: a 1-2-3 "triangle" violates the triangle
    # inequality outright.
    assert not is_valid_tetra(TetraLengths(1, 2, 1, 3, 1, 1))
    # A genuinely flat (zero-volume) configuration: unit square with both
    # diagonals sqrt(2).
    flat = TetraLengths(1, math.sqrt(2), 1, 1, math.sqrt(2), 1)
    assert not is_valid_tetra(flat)


def test_dihedral_raises_on_degenerate_input():
    flat = TetraLengths(1, math.sqrt(2), 1, 1, math.sqrt(2), 1)
    with pytest.raises(DegenerateTetra):
        dihedral_angle(flat, (1, 2))


def test_cofactor_edge_order_and_symmetry():
    lengths = TetraLengths(1.0, 1.1, 1.2, 1.3, 0.9, 1.05)
    for i, j in EDGES:
        assert cm_cofactor(lengths, (i, j)) == cm_cofactor(lengths, (j, i))
    regular = TetraLengths(1, 1, 1, 1, 1, 1)
    values = [cm_cofactor(regular, e) for e in EDGES]
    assert max(values) - min(values) <= 1e-12


def _seeded_lengths(seed, n, height=1.0):
    """n length sextuples of random tetrahedra whose fourth vertex sits at
    ``height`` times the usual scale from the centroid of the other three."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        pts = rng.normal(size=(4, 3))
        pts[3] = pts[:3].mean(axis=0) + height * rng.normal(size=3)
        out.append(_lengths_from_points(pts).as_array())
    return np.array(out)


def test_kernel_angles_match_scalar_dihedral():
    lengths = np.vstack([_seeded_lengths(3, 20), _seeded_lengths(4, 10, 1e-2)])
    angles, _, valid = dihedral_kernel(lengths)
    assert valid.all()
    for row, ls in zip(angles, lengths):
        tl = TetraLengths.from_array(ls)
        # math.acos and np.arccos may differ in the last bit.
        assert np.max(np.abs(row - [dihedral_angle(tl, e) for e in EDGES])) \
            <= 1e-15


def test_kernel_opposite_entries_and_symmetry():
    lengths = np.vstack([_seeded_lengths(5, 20), _seeded_lengths(6, 10, 1e-2)])
    _, jac, _ = dihedral_kernel(lengths)
    for block, ls in zip(jac, lengths):
        volume = math.sqrt(cm_determinant(TetraLengths.from_array(ls)) / 288.0)
        scale = np.max(np.abs(block))
        assert np.max(np.abs(block - block.T)) <= 1e-13 * scale
        for e in range(6):
            opp = 5 - e  # e12-e34, e13-e24, e14-e23
            assert block[e, opp] == pytest.approx(
                ls[e] * ls[opp] / (6.0 * volume), rel=1e-12)


def test_kernel_valid_flag_is_is_valid_tetra():
    flat = TetraLengths(1, math.sqrt(2), 1, 1, math.sqrt(2), 1)
    impossible = TetraLengths(1, 2, 1, 3, 1, 1)
    regular = TetraLengths(1, 1, 1, 1, 1, 1)
    # Near-flat tetrahedra on both sides of the determinant threshold.
    near_flat = np.vstack([_seeded_lengths(7, 8, h) for h in (1e-5, 3e-6)])
    cases = [flat, impossible, regular] + [
        TetraLengths.from_array(ls) for ls in near_flat]
    _, _, valid = dihedral_kernel(np.array([c.as_array() for c in cases]))
    assert list(valid) == [is_valid_tetra(c) for c in cases]
    assert list(valid[:3]) == [False, False, True]
    assert 0 < sum(valid[3:]) < len(near_flat)
