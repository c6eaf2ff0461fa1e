"""Parametric constructors for the polyhedra under study and the closed-form
laws attached to the twisted antiprism family.

Twist convention: ``theta = 0`` is the untwisted, convex prism state; the
classical coordinate list (A = (1,0,1), ..., F = (cos 5pi/6, sin 5pi/6, -1))
is recovered at ``theta = pi/6`` with r = 1, h = 2.  The bottom triangle's
angular offsets are {3pi/2, pi/6, 5pi/6} + (theta - pi/6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadParams, DegenerateDepth, ImaginaryHeight,
                     RigidityLabError, SelfIntersecting)
from .geom import TOL_GEOM, PolyhedralSurface, coord_scale, coordinate_violation
from .triangulation import Triangulation, fan_triangulation

_TOP_ANGLES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
_BOT_BASE = (3.0 * math.pi / 2.0, math.pi / 6.0, 5.0 * math.pi / 6.0)

# Faces of the twisted antiprism (A,B,C top = 0,1,2; D,E,F bottom = 3,4,5):
# AEF, DBF, DEC, ABF, AEC, DBC, ABC, DEF.
_SCHONHARDT_FACES = (
    (0, 4, 5), (3, 1, 5), (3, 4, 2), (0, 1, 5),
    (0, 4, 2), (3, 1, 2), (0, 1, 2), (3, 4, 5),
)


@dataclass(frozen=True)
class SchonhardtParams:
    theta: float  # total twist angle, radians, in [0, pi/3)
    r: float = 1.0  # circumradius of both triangles
    h: float = 2.0  # vertical separation of the triangle planes

    def __post_init__(self):
        if not (0.0 <= self.theta < math.pi / 3.0):
            raise BadParams(f"theta must lie in [0, pi/3); got {self.theta}")
        if self.r <= 0 or self.h <= 0:
            raise BadParams(f"r and h must be positive; got r={self.r}, h={self.h}")
        if not (math.isfinite(self.r) and math.isfinite(self.h)):
            raise BadParams(f"r and h must be finite; got r={self.r}, h={self.h}")


def _triangle(angles, r, z):
    return [(r * math.cos(a), r * math.sin(a), z) for a in angles]


def schonhardt_vertices(params: SchonhardtParams,
                        top_z: float | None = None) -> np.ndarray:
    """The six vertices A, B, C (top triangle, in the plane z = top_z) and
    D, E, F (bottom triangle, at top_z - h).  The default top_z = h/2
    centres the antiprism on the origin (h/2 - h is exactly -h/2)."""
    top_z = params.h / 2.0 if top_z is None else top_z
    top = _triangle(_TOP_ANGLES, params.r, top_z)
    bot_angles = [a + (params.theta - math.pi / 6.0) for a in _BOT_BASE]
    bot = _triangle(bot_angles, params.r, top_z - params.h)
    return np.array(top + bot, dtype=float)


def schonhardt(params: SchonhardtParams) -> PolyhedralSurface:
    """Twisted triangular antiprism with the six diagonal edges AE, AF, BD,
    BF, CD, CE; non-convex (and non-decomposable) for theta > 0."""
    return PolyhedralSurface(schonhardt_vertices(params), _SCHONHARDT_FACES)


def schonhardt_unit(theta: float) -> PolyhedralSurface:
    """Unit-side-length family: triangle sides and the three short diagonals
    all have length 1, so AF^2 = 1 + (2/sqrt(3)) sin(pi/3 + theta)."""
    r = 1.0 / math.sqrt(3.0)
    h_sq = 1.0 - (2.0 / 3.0) * (1.0 - math.cos(theta))
    if h_sq <= 0:
        raise BadParams(f"unit family degenerates at theta = {theta}")
    return schonhardt(SchonhardtParams(theta=theta, r=r, h=math.sqrt(h_sq)))


def long_diagonal_sq(theta: float) -> float:
    """AF^2 of the unit-side family, computed from coordinates."""
    s = schonhardt_unit(theta)
    return float(np.sum((s.vertices[0] - s.vertices[5]) ** 2))


# -- closed-form laws of the twist ----------------------------------------

def wunderlich_height(r: float, omega: float, h: float) -> float:
    """Companion height h' with h^2 - h'^2 = 2 r^2 sin(omega/2).

    h and h' are the heights of the two incongruent realizations sharing
    all six diagonal lengths; omega is the relative twist between them.
    """
    if r <= 0:
        raise BadParams(f"r must be positive; got {r}")
    if not (0.0 <= omega < math.pi):
        raise BadParams(f"omega must lie in [0, pi); got {omega}")
    h2 = h * h - 2.0 * r * r * math.sin(omega / 2.0)
    if h2 < 0:
        raise ImaginaryHeight(f"h^2 - 2 r^2 sin(omega/2) = {h2} < 0")
    return math.sqrt(h2)


def overhang(r: float, omega: float) -> float:
    """Net overhang m = r (cos(omega/2) - cos(pi/6))."""
    if r <= 0:
        raise BadParams(f"r must be positive; got {r}")
    return r * (math.cos(omega / 2.0) - math.cos(math.pi / 6.0))


# -- fixed classical solids -------------------------------------------------

def octahedron() -> PolyhedralSurface:
    """The regular octahedron with vertices +-e_i and the classical face list."""
    vertices = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    faces = [(0, 2, 4), (1, 4, 3), (3, 0, 4), (5, 0, 2),
             (2, 5, 1), (1, 5, 3), (3, 5, 0), (2, 1, 4)]
    return PolyhedralSurface(vertices, faces)


def octahedron_axis_triangulation(s: PolyhedralSurface | None = None) -> Triangulation:
    """Four tetrahedra around the vertical axis; one interior edge (4, 5)."""
    if s is None:
        s = octahedron()
    tets = [(0, 2, 4, 5), (2, 1, 4, 5), (1, 3, 4, 5), (3, 0, 4, 5)]
    return Triangulation(s, tets)


def cube_with_flat_vertex() -> PolyhedralSurface:
    """Unit cube with an extra vertex at the center of its top face (a flat
    vertex); the top face is triangulated as a 4-fan through that vertex."""
    vertices = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
                (0.5, 0.5, 1)]
    faces = [(0, 2, 1), (0, 3, 2),            # bottom
             (0, 1, 5), (0, 5, 4),            # y = 0
             (1, 2, 6), (1, 6, 5),            # x = 1
             (2, 3, 7), (2, 7, 6),            # y = 1
             (3, 0, 4), (3, 4, 7),            # x = 0
             (4, 5, 8), (5, 6, 8), (6, 7, 8), (7, 4, 8)]  # top fan
    return PolyhedralSurface(vertices, faces)


def cube_flat_triangulation() -> Triangulation:
    """Cone from the face-center vertex (index 8); every other cube vertex
    spans a non-degenerate tetra with it.  Interior edges: the four spokes
    from the center vertex to the bottom corners."""
    return fan_triangulation(cube_with_flat_vertex(), 8)


def octahedron_with_centroid_triangulation() -> Triangulation:
    """Octahedron triangulated by coning every face to an added interior
    point (the centroid): m = 1, six interior spoke edges."""
    s = octahedron()
    points = np.vstack([s.vertices, np.zeros(3)])
    apex = len(s.vertices)
    tets = [(f[0], f[1], f[2], apex) for f in s.faces]
    return Triangulation(s, tets, points=points)


# -- the pushed-vertex pair (convexity-loss example) ------------------------

# Depth at which the pushed member acquires a genuine infinitesimal flex:
# the reduced rigidity matrix (trivial motions factored out) becomes
# singular.  Located by bisecting the sign change of its determinant to
# machine precision and frozen here so the spectral signature (a negative
# real and zero as eigenvalues of the two-interior-edge stiffness matrix)
# is reproducible bit-for-bit.
PUSHED_CRITICAL_DEPTH = 1.4246838603902652

# Vertex 0 is the apex; its link is the pentagon 1-2-3-4-5; vertex 6 closes
# the triangulated pentagonal base.  Coordinates are fixed constants of this
# module, chosen so that (a) the convex member is strictly convex with
# exactly these ten faces as hull facets, and (b) pushing the apex by the
# critical depth yields a flexible, genuinely non-convex surface whose
# stiffness matrix carries one negative and one zero eigenvalue.
_PUSHED_PAIR_VERTICES = (
    (-0.242, -0.781, 0.274),
    (-0.135, -0.448, -0.974),
    (0.378, 0.915, -0.338),
    (-0.733, -0.468, 0.208),
    (-0.983, -0.662, -0.127),
    (-0.420, -0.616, -0.717),
    (-0.283, 0.621, -0.764),
)

_PUSHED_PAIR_FACES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 5, 6), (1, 6, 2), (2, 6, 3), (3, 6, 4), (4, 6, 5),
)

_PUSHED_PAIR_TETS = (
    (0, 1, 2, 3), (0, 1, 3, 5), (0, 3, 4, 5),
    (1, 2, 3, 6), (1, 3, 5, 6), (3, 4, 5, 6),
)


def pushed_vertex_pair(depth: float | None = None):
    """A convex polyhedron (apex 0 above a triangulated pentagonal base) and
    its copy with the apex translated by ``depth`` along -z, past the base
    plane's support.

    The default depth is the frozen critical value at which the pushed
    member is infinitesimally flexible.  Both members share the same face
    list by construction.
    """
    if depth is None:
        depth = PUSHED_CRITICAL_DEPTH
    depth = float(depth)
    if not math.isfinite(depth) or depth <= 0:
        raise DegenerateDepth(f"depth must be positive; got {depth}")
    vertices = np.array(_PUSHED_PAIR_VERTICES, dtype=float)
    faces = [tuple(f) for f in _PUSHED_PAIR_FACES]
    convex = PolyhedralSurface(vertices, faces)
    pushed_vertices = vertices.copy()
    pushed_vertices[0, 2] -= depth
    try:
        pushed = PolyhedralSurface(pushed_vertices, faces)
        report = pushed.validate()
    except RigidityLabError as exc:
        raise DegenerateDepth(f"depth {depth} degenerates the surface: {exc}") from exc
    if not report.ok:
        raise DegenerateDepth(f"depth {depth} degenerates the surface: {report}")
    return convex, pushed


def pushed_pair_triangulation(s: PolyhedralSurface) -> Triangulation:
    """The fixed six-tet decomposition shared by both members of the pair;
    its two interior edges are the diagonals (1,3) and (3,5)."""
    return Triangulation(s, list(_PUSHED_PAIR_TETS))


# -- T-polyhedra -------------------------------------------------------------

@dataclass(frozen=True)
class TPolyParams:
    hull: SchonhardtParams                  # the inner (cavity) antiprism
    exterior: SchonhardtParams              # the outer antiprism
    vertical_shift: float = 0.0             # how far the cavity is sunk

    def __post_init__(self):
        if self.exterior.r <= self.hull.r:
            raise BadParams("exterior radius must exceed hull radius")
        if not math.isfinite(self.vertical_shift):
            raise BadParams(f"vertical_shift must be finite; "
                            f"got {self.vertical_shift}")
        if self.vertical_shift < 0:
            raise BadParams("vertical_shift must be >= 0")


def t_polyhedron(params: TPolyParams):
    """Sphere-topology representative of the cavity-bearing family.

    The outer antiprism keeps its six side faces and bottom triangle; its
    top triangle is replaced by a ring of six cover triangles descending to
    the top triangle of the inner antiprism, whose side and bottom faces
    bound a twisted cavity.  With vertical_shift = 0 the cavity mouth is
    coplanar with the outer top face.  Both antiprisms come from
    ``schonhardt_vertices``, the inner one with its top plane sunk by the
    shift, and both keep ``_SCHONHARDT_FACES`` less the top triangle.  A
    cavity whose bottom is not above the outer bottom by more than
    TOL_GEOM * ``coord_scale`` raises SelfIntersecting.

    Vertices 0-5 are the outer antiprism's and 6-11 the inner one's; the
    cover ring adds no vertex of its own.
    """
    top_z = params.exterior.h / 2.0 - params.vertical_shift
    vertices = np.vstack([schonhardt_vertices(params.exterior),
                          schonhardt_vertices(params.hull, top_z)])
    # Inner bottom (vertex 9) against the outer bottom (vertex 3).  Out of
    # range the scale can overflow; validation rejects those coordinates.
    tol = (0.0 if coordinate_violation(vertices, "vertex")
           else TOL_GEOM * coord_scale(vertices))
    if vertices[9, 2] <= vertices[3, 2] + tol:
        raise SelfIntersecting("inner antiprism pokes through the outer bottom")

    o = list(range(6))       # outer A..F
    i = list(range(6, 12))   # inner A'..F'
    # Outer side and bottom faces (top triangle replaced by the cover ring).
    walls = [f for f in _SCHONHARDT_FACES if f != (0, 1, 2)]
    faces = list(walls)
    # Cover ring between the outer and inner top triangles.
    for k in range(3):
        a, b = o[k], o[(k + 1) % 3]
        ai, bi = i[k], i[(k + 1) % 3]
        faces += [(a, ai, bi), (a, bi, b)]
    # Inner side and bottom faces (cavity walls).
    faces += [tuple(i[v] for v in f) for f in walls]

    surface = PolyhedralSurface(vertices, faces)
    rep = surface.validate()
    if any(v.tag == "self-intersection" for v in rep.violations):
        raise SelfIntersecting(f"cover recipe produced an invalid surface: {rep}")
    surface.require_valid()
    return surface
