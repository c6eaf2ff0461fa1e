import math

import numpy as np
import pytest

from conftest import in_domain
from rigidity_lab import generators as gen
from rigidity_lab.cayley_menger import TetraLengths, is_valid_tetra
from rigidity_lab.errors import OutOfDomain
from rigidity_lab.hilbert_einstein import (
    EdgeLengthAssignment,
    euclidean_lengths,
    he_gradient_check,
    he_value,
    schlafli_residual,
    total_angles,
)


def test_euclidean_curvature_vanishes():
    for t in (gen.octahedron_axis_triangulation(),
              gen.cube_flat_triangulation(),
              gen.octahedron_with_centroid_triangulation()):
        lengths = euclidean_lengths(t)
        kappa = total_angles(t, lengths).kappa
        assert float(np.max(np.abs(kappa))) <= 1e-9


def test_total_angle_octahedron_axis():
    t = gen.octahedron_axis_triangulation()
    angles = total_angles(t, euclidean_lengths(t))
    # Four tets, each contributing a right dihedral angle at the axis.
    assert angles.omega[0] == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_round_sig_replicates_display_precision():
    t = gen.octahedron_axis_triangulation()
    lengths = euclidean_lengths(t)
    exact = total_angles(t, lengths)
    rounded = total_angles(t, lengths, round_sig=6)
    assert rounded.omega[0] != exact.omega[0]
    assert rounded.omega[0] == pytest.approx(exact.omega[0], abs=1e-4)


def test_he_value_finite_and_boundary_dominated():
    t = gen.octahedron_axis_triangulation()
    lengths = euclidean_lengths(t)
    value = he_value(t, lengths)
    assert math.isfinite(value)
    # kappa = 0 at Euclidean lengths: HE reduces to the boundary term.
    boundary = he_value(t, EdgeLengthAssignment(lengths.interior.copy(),
                                                lengths.boundary.copy()))
    assert value == pytest.approx(boundary, abs=1e-12)


def test_in_domain_detects_broken_lengths():
    t = gen.octahedron_axis_triangulation()
    lengths = euclidean_lengths(t)
    assert in_domain(t, lengths)
    broken = EdgeLengthAssignment(lengths.interior * 50.0,
                                  lengths.boundary.copy())
    assert not in_domain(t, broken)


def test_gradient_check_converges_quadratically():
    rng = np.random.default_rng(3)
    t = gen.octahedron_axis_triangulation()
    lengths = euclidean_lengths(t)
    r1 = he_gradient_check(t, lengths, 1e-3)
    r2 = he_gradient_check(t, lengths, 5e-4)
    assert 3.5 <= r1 / r2 <= 4.5
    # Also away from the Euclidean point.
    stretched = EdgeLengthAssignment(lengths.interior * 1.05,
                                     lengths.boundary.copy())
    r1 = he_gradient_check(t, stretched, 1e-3)
    r2 = he_gradient_check(t, stretched, 5e-4)
    assert 3.5 <= r1 / r2 <= 4.5


def test_schlafli_residual_converges_quadratically():
    rng = np.random.default_rng(4)
    done = 0
    while done < 10:
        pts = rng.normal(size=(4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) < 0.3:
            continue
        d = [float(np.linalg.norm(pts[i] - pts[j]))
             for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
        lengths = TetraLengths(*d)
        if not is_valid_tetra(lengths):
            continue
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        r1 = schlafli_residual(lengths, direction, 2e-3)
        r2 = schlafli_residual(lengths, direction, 1e-3)
        assert 3.5 <= r1 / r2 <= 4.5
        done += 1
