"""Tetrahedron metric kernel: bordered distance matrix, its determinant and
edge cofactors, and the dihedral angle of an edge from the six lengths alone.
``dihedral_kernel`` evaluates a stack of tetrahedra at once and adds the
exact Jacobian of the six angles with respect to the six lengths.

Vertex labels are 1..4; the length sextuple is ordered
(e12, e13, e14, e23, e24, e34).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadEdgeLabel, DegenerateTetra, NonPositiveLength, TriangleInequalityViolated

EDGE_ORDER = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# The same edge slots as pairs of 0-based corners of an index 4-tuple.
TET_EDGES = tuple((i - 1, j - 1) for i, j in EDGE_ORDER)

# Degeneracy threshold scale for the determinant (which grows like length^6)
# and for clamping the arccos argument near +-1.
TOL_D = 1e-12
TOL_CLAMP = 1e-9

# Face triples of the tetrahedron as index triples into EDGE_ORDER.
_FACES = (
    (0, 1, 3),  # vertices 1,2,3: e12, e13, e23
    (0, 2, 4),  # vertices 1,2,4: e12, e14, e24
    (1, 2, 5),  # vertices 1,3,4: e13, e14, e34
    (3, 4, 5),  # vertices 2,3,4: e23, e24, e34
)


def _normalize_edge(edge) -> tuple[int, int]:
    if isinstance(edge, int):
        edge = divmod(edge, 10)
    i, j = int(edge[0]), int(edge[1])
    if i > j:
        i, j = j, i
    if (i, j) not in EDGE_ORDER:
        raise BadEdgeLabel(f"edge must be one of 12,13,14,23,24,34; got {edge}")
    return i, j


@dataclass(frozen=True)
class TetraLengths:
    """Six edge lengths of a labeled tetrahedron."""

    e12: float
    e13: float
    e14: float
    e23: float
    e24: float
    e34: float

    def __post_init__(self):
        for name, val in self.items():
            if not (math.isfinite(val) and val > 0):
                raise NonPositiveLength(f"{name} = {val} must be finite and > 0")

    def items(self):
        return [(f"e{i}{j}", getattr(self, f"e{i}{j}")) for i, j in EDGE_ORDER]

    def as_array(self) -> np.ndarray:
        return np.array([v for _, v in self.items()], dtype=float)

    def get(self, edge) -> float:
        i, j = _normalize_edge(edge)
        return getattr(self, f"e{i}{j}")

    @classmethod
    def from_array(cls, arr) -> "TetraLengths":
        arr = np.asarray(arr, dtype=float)
        return cls(*[float(x) for x in arr])


def cm_matrix(lengths: TetraLengths) -> np.ndarray:
    """The 5x5 bordered squared-distance matrix."""
    sq = {e: v * v for e, v in zip(EDGE_ORDER, lengths.as_array())}
    m = np.zeros((5, 5))
    for (i, j), v in sq.items():
        m[i - 1, j - 1] = v
        m[j - 1, i - 1] = v
    m[4, :4] = 1.0
    m[:4, 4] = 1.0
    return m


def cm_determinant(lengths: TetraLengths) -> float:
    """Determinant D of the bordered matrix; D = 288 V^2 for volume V."""
    return float(np.linalg.det(cm_matrix(lengths)))


def cm_cofactor(lengths: TetraLengths, edge) -> float:
    """Signed cofactor D_ij attached to an edge.

    For edge ij the relevant cofactor sits at the position (k, l) given by
    the two complementary vertex labels: delete row k and column l of the
    bordered matrix and sign the minor with (-1)^(k+l).  For edge 12 this is
    row 3, column 4 with sign -1.
    """
    i, j = _normalize_edge(edge)
    k, l = sorted(set((1, 2, 3, 4)) - {i, j})
    m = cm_matrix(lengths)
    minor = np.delete(np.delete(m, k - 1, axis=0), l - 1, axis=1)
    return float((-1) ** (k + l) * np.linalg.det(minor))


def _face_violation(lengths: TetraLengths):
    arr = lengths.as_array()
    for face in _FACES:
        a, b, c = (arr[idx] for idx in face)
        if a >= b + c or b >= a + c or c >= a + b:
            return tuple(EDGE_ORDER[idx] for idx in face)
    return None


def is_valid_tetra(lengths: TetraLengths) -> bool:
    """True iff all face triangle inequalities hold strictly and D > 0."""
    if _face_violation(lengths) is not None:
        return False
    threshold = TOL_D * float(np.max(lengths.as_array())) ** 6
    return cm_determinant(lengths) > threshold


def dihedral_angle(lengths: TetraLengths, edge) -> float:
    """Interior dihedral angle at an edge, in (0, pi).

    Uses arccos(D_ij / sqrt(2 e_ij^2 D + D_ij^2)); the argument is clamped
    to [-1, 1] when within TOL_CLAMP of the boundary.
    """
    i, j = _normalize_edge(edge)
    bad = _face_violation(lengths)
    if bad is not None:
        raise TriangleInequalityViolated(f"face {bad} violates the triangle inequality")
    d = cm_determinant(lengths)
    threshold = TOL_D * float(np.max(lengths.as_array())) ** 6
    if d <= threshold:
        raise DegenerateTetra(f"Cayley-Menger determinant {d} <= {threshold}")
    dij = cm_cofactor(lengths, (i, j))
    e = lengths.get((i, j))
    arg = dij / math.sqrt(2.0 * e * e * d + dij * dij)
    if arg > 1.0:
        if arg > 1.0 + TOL_CLAMP:
            raise DegenerateTetra(f"arccos argument {arg} out of range")
        arg = 1.0
    elif arg < -1.0:
        if arg < -1.0 - TOL_CLAMP:
            raise DegenerateTetra(f"arccos argument {arg} out of range")
        arg = -1.0
    return math.acos(arg)


def dihedral_angle_from_points(p1, p2, p3, p4, edge) -> float:
    """Coordinate oracle: dihedral angle at an edge via face normals."""
    pts = {1: np.asarray(p1, float), 2: np.asarray(p2, float),
           3: np.asarray(p3, float), 4: np.asarray(p4, float)}
    i, j = _normalize_edge(edge)
    k, l = sorted(set((1, 2, 3, 4)) - {i, j})
    axis = pts[j] - pts[i]
    u = pts[k] - pts[i]
    v = pts[l] - pts[i]
    # Components of u, v orthogonal to the shared edge.
    axis_hat = axis / np.linalg.norm(axis)
    u_perp = u - np.dot(u, axis_hat) * axis_hat
    v_perp = v - np.dot(v, axis_hat) * axis_hat
    cosang = np.dot(u_perp, v_perp) / (np.linalg.norm(u_perp) * np.linalg.norm(v_perp))
    return math.acos(min(1.0, max(-1.0, float(cosang))))


# -- stacked kernel -------------------------------------------------------
#
# With s the squared lengths, the bordered matrix B is linear in s, so its
# determinant D and every cofactor are polynomials in s whose derivatives are
# cofactors of one order higher.  The dihedral angle at edge e = ij is
# arccos(N_e / sqrt(Q_e)) with N_e the cofactor of B at the complementary
# labels (k, l) and Q_e = 2 s_e D + N_e^2.  Slot f's entry occupies positions
# (a, b) and (b, a) of B, hence:
#   dD/ds_f   = 2 C_ab = 2 N_opp(f), since f's labels complement opp(f)'s;
#   dN_e/ds_f = the cofactors of N_e's own minor at the positions of f that
#               survive deleting row k and column l (3x3 determinants);
#   dalpha_e/ds_f = -(2 s_e D dN_e/ds_f - N_e (delta_ef D + s_e dD/ds_f))
#                   / (Q_e sqrt(2 s_e D)),
# which is -(dN - N dQ / 2Q) / sqrt(2 s_e D) with the N dN terms cancelled
# by hand, so thin tetrahedra (D -> 0) lose no digits to subtraction.

_ROWS = np.array([a for a, b in TET_EDGES] + [b for a, b in TET_EDGES])
_COLS = np.array([b for a, b in TET_EDGES] + [a for a, b in TET_EDGES])
# Slot of the edge opposite each slot: e12-e34, e13-e24, e14-e23.
_OPPOSITE = np.array([TET_EDGES.index(tuple(sorted(set(range(4)) - set(p))))
                      for p in TET_EDGES])


def _minor_tables():
    """Index tables for the six cofactors N_e (rows, columns and sign of each
    4x4 minor) and for their derivatives: one 3x3 determinant per surviving
    (e, f, position), summed into (e, f) by a signed 0/1 matrix."""
    rows4, cols4, sign4 = [], [], []
    rows3, cols3, scatter = [], [], []
    for e, f_opp in enumerate(_OPPOSITE):
        k, l = TET_EDGES[f_opp]
        r4 = [r for r in range(5) if r != k]
        c4 = [c for c in range(5) if c != l]
        rows4.append(r4)
        cols4.append(c4)
        sign4.append((-1.0) ** (k + l))
        for f, (a, b) in enumerate(TET_EDGES):
            for p, q in ((a, b), (b, a)):
                if p == k or q == l:
                    continue  # the entry is deleted with N_e's row or column
                rows3.append([r for r in r4 if r != p])
                cols3.append([c for c in c4 if c != q])
                term = np.zeros(36)
                term[6 * e + f] = ((-1.0) ** (k + l)
                                   * (-1.0) ** (r4.index(p) + c4.index(q)))
                scatter.append(term)
    return (np.array(rows4), np.array(cols4), np.array(sign4),
            np.array(rows3), np.array(cols3), np.array(scatter))


(_ROWS4, _COLS4, _SIGN4,
 _ROWS3, _COLS3, _SCATTER3) = _minor_tables()


# Invalid rows (NaN, infinite or non-positive lengths, degenerate shapes)
# compute without warnings; ``valid`` flags them.
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def dihedral_kernel(lengths):
    """Dihedral angles and their exact Jacobian for a stack of tetrahedra.

    ``lengths`` is a (T, 6) array of edge lengths in EDGE_ORDER.  Returns
    ``(angles, jacobian, valid)``: the (T, 6) interior dihedral angles, the
    (T, 6, 6) derivatives ``jacobian[t, e, f] = d angle_e / d length_f``,
    and the (T,) flag of ``is_valid_tetra``'s predicate.  D and the N_e are
    the determinants ``dihedral_angle`` takes, so the angles are its own up
    to the last bit of arccos.  Rows with ``valid`` False hold NaN or
    meaningless values.
    """
    l = np.asarray(lengths, dtype=float).reshape(-1, 6)
    s = l * l
    b = np.zeros((len(l), 5, 5))
    b[:, _ROWS, _COLS] = np.concatenate([s, s], axis=1)
    b[:, 4, :4] = 1.0
    b[:, :4, 4] = 1.0
    d = np.linalg.det(b)
    n = _SIGN4 * np.linalg.det(b[:, _ROWS4[:, :, None], _COLS4[:, None, :]])

    x, y, z = np.moveaxis(l[:, np.array(_FACES)], 2, 0)  # (T, 4) each
    valid = (np.all((x < y + z) & (y < x + z) & (z < x + y), axis=1)
             & (d > TOL_D * np.max(l, axis=1) ** 6))

    dn = (np.linalg.det(b[:, _ROWS3[:, :, None], _COLS3[:, None, :]])
          @ _SCATTER3).reshape(-1, 6, 6)
    dd = 2.0 * n[:, _OPPOSITE]
    two_sd = 2.0 * l * l * d[:, None]  # dihedral_angle's order, 2 e e D
    q = two_sd + n * n
    angles = np.arccos(np.clip(n / np.sqrt(q), -1.0, 1.0))
    num = (two_sd[:, :, None] * dn
           - n[:, :, None] * (np.eye(6) * d[:, None, None]
                              + s[:, :, None] * dd[:, None, :]))
    dalpha_ds = -num / (q * np.sqrt(two_sd))[:, :, None]
    return angles, dalpha_ds * (2.0 * l)[:, None, :], valid
