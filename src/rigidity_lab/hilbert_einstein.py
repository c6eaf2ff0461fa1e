"""Metric-side quantities of a triangulation: total angles and curvatures
at interior edges, the discrete Hilbert-Einstein functional, and first-order
identity checks (Schlafli residual, gradient).

Boundary edge lengths are always the Euclidean ones from the surface
coordinates; only interior edge lengths vary.  Every tetrahedron's edge
lengths and edge slots sit in one ``tet_edge_table``, and every dihedral
angle of a total angle comes from the stacked ``dihedral_kernel`` over it;
the scalar ``dihedral_angle`` serves only the single-tetrahedron
``schlafli_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley_menger import (EDGE_ORDER, TET_EDGES, TetraLengths, dihedral_angle,
                            dihedral_kernel)
from .errors import OutOfDomain
from .geom import canonical_edge
from .triangulation import Triangulation

TWO_PI = 2.0 * np.pi


@dataclass
class EdgeLengthAssignment:
    """Interior lengths aligned with ``interior_edges`` ordering plus the
    fixed boundary lengths."""

    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        self.interior = np.atleast_1d(np.asarray(self.interior, dtype=float))
        self.boundary = np.atleast_1d(np.asarray(self.boundary, dtype=float))

    def with_interior(self, interior) -> "EdgeLengthAssignment":
        return EdgeLengthAssignment(np.asarray(interior, dtype=float), self.boundary)


@dataclass
class AngleData:
    omega: np.ndarray           # total angle around each interior edge
    kappa: np.ndarray           # 2*pi - omega
    boundary_alpha: np.ndarray  # dihedral angle sums at boundary edges


def euclidean_lengths(t: Triangulation) -> EdgeLengthAssignment:
    """The length assignment realized by the coordinates."""
    pts = t.points
    interior = np.array([np.linalg.norm(pts[i] - pts[j]) for i, j in t.interior_edges])
    boundary = np.array([np.linalg.norm(pts[i] - pts[j]) for i, j in t.boundary_edges])
    return EdgeLengthAssignment(interior, boundary)


def tet_edge_table(t: Triangulation, l: EdgeLengthAssignment):
    """(lengths, index): each tetrahedron's six edge lengths in EDGE_ORDER as
    a (T, 6) array, and the edge of each slot as an index into
    ``interior_edges`` followed by ``boundary_edges``, so boundary edge k
    has index ``len(interior_edges) + k``."""
    position = {e: k for k, e in enumerate(t.interior_edges + t.boundary_edges)}
    index = np.array([[position[canonical_edge(tet[i], tet[j])]
                       for i, j in TET_EDGES] for tet in t.tetrahedra],
                     dtype=int).reshape(-1, 6)
    return np.concatenate([l.interior, l.boundary])[index], index


def _round_sig(x: float, sig: int) -> float:
    if x == 0.0:
        return 0.0
    return float(np.format_float_positional(
        x, precision=sig, unique=False, fractional=False))


def angle_sums(lengths, index, size: int,
               round_sig: int | None = None) -> np.ndarray:
    """Per edge of a ``tet_edge_table``, the sum of the dihedral angles at
    its slots, each rounded to round_sig significant figures when given.
    The sum runs in tetrahedron order, so equal angles always give
    bitwise-equal sums.  Raises OutOfDomain if a tetrahedron is not
    a non-degenerate Euclidean one."""
    angles, _, valid = dihedral_kernel(lengths)
    if not valid.all():
        raise OutOfDomain("length assignment leaves the admissible domain")
    if round_sig is not None:
        angles = np.vectorize(_round_sig)(angles, round_sig)
    return np.bincount(index.ravel(), weights=angles.ravel(), minlength=size)


def total_angles(t: Triangulation, l: EdgeLengthAssignment,
                 round_sig: int | None = None) -> AngleData:
    """Sum tetra dihedral angles around every interior and boundary edge.

    If round_sig is given, each dihedral angle is rounded to that many
    significant figures before summation. This replicates published hand
    computations that transcribed angles at display precision; leave it None
    for full-precision work."""
    t.require_valid()
    n = len(l.interior)
    sums = angle_sums(*tet_edge_table(t, l), n + len(l.boundary), round_sig)
    omega = sums[:n]
    return AngleData(omega=omega, kappa=TWO_PI - omega, boundary_alpha=sums[n:])


def curvatures(angles: AngleData) -> np.ndarray:
    return TWO_PI - angles.omega


def he_value(t: Triangulation, l: EdgeLengthAssignment) -> float:
    """HE = sum_i l_i kappa_i + sum_j l'_j (pi - alpha_j)."""
    a = total_angles(t, l)
    interior_term = float(np.dot(l.interior, a.kappa)) if len(l.interior) else 0.0
    boundary_term = float(np.dot(l.boundary, np.pi - a.boundary_alpha))
    return interior_term + boundary_term


def schlafli_residual(lengths: TetraLengths, direction, h: float) -> float:
    """Central-difference value of sum_e l_e dalpha_e along a length direction;
    tends to 0 as h -> 0 by the Euclidean Schlafli formula."""
    direction = np.asarray(direction, dtype=float)
    base = lengths.as_array()
    plus = TetraLengths.from_array(base + h * direction)
    minus = TetraLengths.from_array(base - h * direction)
    total = 0.0
    for e in EDGE_ORDER:
        dalpha = (dihedral_angle(plus, e) - dihedral_angle(minus, e)) / (2.0 * h)
        total += lengths.get(e) * dalpha
    return total


def he_gradient_check(t: Triangulation, l: EdgeLengthAssignment, h: float) -> float:
    """Max componentwise gap between the central-difference HE gradient and
    the curvature vector (dHE = sum kappa_i dl_i)."""
    n = len(l.interior)
    if n == 0:
        return 0.0
    kappa = total_angles(t, l).kappa
    worst = 0.0
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        hi = he_value(t, l.with_interior(l.interior + step))
        lo = he_value(t, l.with_interior(l.interior - step))
        worst = max(worst, abs((hi - lo) / (2.0 * h) - kappa[i]))
    return worst
