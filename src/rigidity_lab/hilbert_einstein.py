"""Metric-side quantities of a triangulation: the admissible length domain,
total angles and curvatures at interior edges, the discrete Hilbert-Einstein
functional, and first-order identity checks (Schlafli residual, gradient).

Boundary edge lengths are always the Euclidean ones from the surface
coordinates; only interior edge lengths vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley_menger import EDGE_ORDER, TetraLengths, dihedral_angle, is_valid_tetra
from .errors import NonPositiveLength, OutOfDomain
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


def _length_lookup(t: Triangulation, l: EdgeLengthAssignment):
    table = {}
    for e, val in zip(t.interior_edges, l.interior):
        table[e] = float(val)
    for e, val in zip(t.boundary_edges, l.boundary):
        table[e] = float(val)
    return table


def _tet_values(tet, table) -> list[float]:
    return [table[canonical_edge(tet[i - 1], tet[j - 1])] for i, j in EDGE_ORDER]


def _tet_lengths(tet, table) -> TetraLengths:
    return TetraLengths(*_tet_values(tet, table))


def _valid_lengths(vals) -> bool:
    """True iff six lengths (EDGE_ORDER) form a non-degenerate tetrahedron."""
    try:
        return is_valid_tetra(TetraLengths.from_array(vals))
    except NonPositiveLength:
        return False


def in_domain(t: Triangulation, l: EdgeLengthAssignment) -> bool:
    """True iff every tetra, with interior lengths substituted, stays a
    non-degenerate Euclidean tetrahedron."""
    t.require_valid()
    if np.any(l.interior <= 0) or np.any(l.boundary <= 0):
        return False
    table = _length_lookup(t, l)
    return all(_valid_lengths(_tet_values(tet, table))
               for tet in t.tetrahedra)


def _round_sig(x: float, sig: int) -> float:
    if x == 0.0:
        return 0.0
    return float(np.format_float_positional(
        x, precision=sig, unique=False, fractional=False))


def _angle_row(lengths: TetraLengths, round_sig: int | None = None) -> list[float]:
    """The six dihedral angles of one tetrahedron in EDGE_ORDER, each
    rounded to round_sig significant figures when given."""
    row = [dihedral_angle(lengths, e) for e in EDGE_ORDER]
    if round_sig is not None:
        row = [_round_sig(ang, round_sig) for ang in row]
    return row


def _edge_slots(t: Triangulation):
    """(interior, boundary): for each interior and each boundary edge, in
    ``interior_edges`` / ``boundary_edges`` order, the (tetrahedron, slot)
    pairs at which it occurs, in tetrahedron order; slot indexes EDGE_ORDER."""
    interior_index = {e: k for k, e in enumerate(t.interior_edges)}
    boundary_index = {e: k for k, e in enumerate(t.boundary_edges)}
    interior = [[] for _ in interior_index]
    boundary = [[] for _ in boundary_index]
    for ti, tet in enumerate(t.tetrahedra):
        for slot, (i, j) in enumerate(EDGE_ORDER):
            e = canonical_edge(tet[i - 1], tet[j - 1])
            if e in interior_index:
                interior[interior_index[e]].append((ti, slot))
            else:
                boundary[boundary_index[e]].append((ti, slot))
    return interior, boundary


def tet_edge_table(t: Triangulation, l: EdgeLengthAssignment):
    """(lengths, index): each tetrahedron's six edge lengths in EDGE_ORDER as
    a (T, 6) array, and the ``interior_edges`` index of each slot, -1 for a
    boundary edge."""
    table = _length_lookup(t, l)
    lengths = np.array([_tet_values(tet, table) for tet in t.tetrahedra])
    index = np.full((len(t.tetrahedra), 6), -1)
    for k, inc in enumerate(_edge_slots(t)[0]):
        for ti, slot in inc:
            index[ti, slot] = k
    return lengths, index


def _sum_angles(slots, rows) -> np.ndarray:
    """Per edge, the sum of its tetrahedra's angle-row entries, added in
    tetrahedron order so equal rows always give bitwise-equal sums."""
    out = np.zeros(len(slots))
    for k, inc in enumerate(slots):
        for ti, slot in inc:
            out[k] += rows[ti][slot]
    return out


def total_angles(t: Triangulation, l: EdgeLengthAssignment,
                 round_sig: int | None = None) -> AngleData:
    """Sum tetra dihedral angles around every interior and boundary edge.

    If round_sig is given, each dihedral angle is rounded to that many
    significant figures before summation. This replicates published hand
    computations that transcribed angles at display precision; leave it None
    for full-precision work."""
    t.require_valid()
    if not in_domain(t, l):
        raise OutOfDomain("length assignment leaves the admissible domain")
    table = _length_lookup(t, l)
    rows = [_angle_row(_tet_lengths(tet, table), round_sig)
            for tet in t.tetrahedra]
    interior, boundary = _edge_slots(t)
    omega = _sum_angles(interior, rows)
    return AngleData(omega=omega, kappa=TWO_PI - omega,
                     boundary_alpha=_sum_angles(boundary, rows))


class OneEdgeAngles:
    """Total angles around the interior edges at a base length assignment
    and at assignments that change one interior length.

    Changing interior edge j moves the dihedral angles of the tetrahedra
    that contain j and of no other.  ``omega_with`` re-evaluates only
    those and sums the angle rows in the order ``total_angles`` uses, so it
    returns bitwise what ``total_angles(...).omega`` returns for the changed
    assignment, and raises OutOfDomain in the same cases.  The base must be
    in the domain.
    """

    def __init__(self, t: Triangulation, base: EdgeLengthAssignment,
                 round_sig: int | None = None):
        table = _length_lookup(t, base)
        self._lengths = [np.array(_tet_values(tet, table))
                         for tet in t.tetrahedra]
        self._round_sig = round_sig
        self._rows = [_angle_row(TetraLengths.from_array(ls), round_sig)
                      for ls in self._lengths]
        self._slots, _ = _edge_slots(t)

    def omega_with(self, j: int, value: float) -> np.ndarray:
        """Total angles with interior edge j set to ``value``."""
        star = self._slots[j]
        changed = []
        for ti, slot in star:
            ls = self._lengths[ti].copy()
            ls[slot] = value
            if not _valid_lengths(ls):
                raise OutOfDomain("length assignment leaves the admissible domain")
            changed.append(ls)
        rows = list(self._rows)
        for (ti, _), ls in zip(star, changed):
            rows[ti] = _angle_row(TetraLengths.from_array(ls), self._round_sig)
        return _sum_angles(self._slots, rows)


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
