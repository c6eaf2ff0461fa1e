"""3D primitives, the triangulated-surface data model, and global predicates.

Vertices are plain ``(n, 3)`` float arrays.  Surfaces are sphere-topology
triangle meshes with outward-oriented faces, oriented once, at construction:
each face is kept or flipped so that neighbours run their shared edge
opposite ways, then all are flipped if the signed volume is negative.  The
face areas |n| / 2, that volume sum(a . n) / 6 and validation's plane sides
all read one set of normals n = (b - a) x (c - a), on the centred vertices.
Weak convexity (every vertex extreme) and flatness (on the hull boundary,
not extreme) are read off Qhull convex hulls: one of all the vertices, and
one of the others for each vertex of that hull.

Every degeneracy and boundary tolerance is TOL_GEOM times ``coord_scale``
(the largest distance of a point from the points' mean) to the quantity's
length dimension, so no decision depends on where the input sits or its size.
Validation and the decomposition filter decide "a segment properly crosses
a triangle" alike: ``proper_crossings``, a sign pattern of ``orientations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateVertexSet, InvalidSurface

# Degeneracy and boundary tolerance on inputs of unit size.
TOL_GEOM = 1e-9
# Largest coordinate magnitude a valid surface may have: beyond it the
# tolerances' scale**3 and the dihedral kernel's max(l)**6 overflow.
MAX_COORD = 1e50


def coord_scale(points) -> float:
    """Largest distance of a point from the points' mean (0 for no points):
    the one length every tolerance is measured against."""
    points = np.asarray(points, dtype=float)
    if not len(points):
        return 0.0
    return float(np.max(np.linalg.norm(points - points.mean(axis=0), axis=-1)))


def orientation_tol(scale: float) -> float:
    """6 TOL_GEOM scale**3, the tolerance of orientations (6 x volumes)."""
    return 6.0 * TOL_GEOM * scale**3


def coordinate_violation(points, name: str):
    """The ``non-finite`` or else ``coordinate-range`` (|x| > MAX_COORD)
    ``(tag, detail)`` of the points, or None: then ``coord_scale`` and
    ``orientation_tol`` of them are finite."""
    largest = np.max(np.abs(points), initial=0.0)  # NaN if any is
    if largest <= MAX_COORD:
        return None
    if not np.isfinite(largest):
        return "non-finite", f"{name} coordinates contain NaN/inf"
    return ("coordinate-range",
            f"max |coordinate| {largest:.3g} exceeds {MAX_COORD:g}")


def canonical_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass
class Violation:
    tag: str
    detail: str
    where: tuple = ()

    def __str__(self):
        return f"[{self.tag}] {self.detail} @ {self.where}"


@dataclass
class ValidityReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, tag, detail, where=()):
        self.violations.append(Violation(tag, detail, tuple(where)))

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _edge_runs(faces) -> dict[tuple[int, int], list[tuple[int, bool]]]:
    """Each canonical edge, in first-seen order, with the faces on it and
    whether each face runs it from its lower endpoint."""
    runs: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for fi, (a, b, c) in enumerate(faces):
        for i, j in ((a, b), (b, c), (c, a)):
            runs.setdefault(canonical_edge(i, j), []).append((fi, i < j))
    return runs


def _orient_consistently(faces: list[tuple[int, int, int]]):
    """Flip faces so that neighbours agree on their winding; returns new faces.

    The first face of each edge-connected component keeps its winding, and
    a face flips exactly when it runs a shared edge the same way as its
    oriented neighbour.  Raises InvalidSurface if no such flip assignment
    exists (the mesh is then not an orientable manifold along that edge).
    """
    faces = [tuple(f) for f in faces]
    runs = _edge_runs(faces)

    flip: list[bool | None] = [None] * len(faces)
    for seed in range(len(faces)):
        if flip[seed] is not None:
            continue
        flip[seed] = False
        stack = [seed]
        while stack:
            fi = stack.pop()
            a, b, c = faces[fi]
            for i, j in ((a, b), (b, c), (c, a)):
                up = (i < j) != flip[fi]
                for gi, g_up in runs[canonical_edge(i, j)]:
                    if gi == fi:
                        continue
                    if flip[gi] is None:
                        flip[gi] = g_up == up
                        stack.append(gi)
                    elif (g_up != flip[gi]) == up:
                        raise InvalidSurface(f"non-orientable adjacency at "
                                             f"edge {canonical_edge(i, j)}")
    return [(a, c, b) if fl else (a, b, c) for (a, b, c), fl in zip(faces, flip)]


def _face_normals(c, faces):
    """First corners a and normals n = (b - a) x (c - a) of the index
    triples ``faces`` (F, 3) into the centred points ``c``."""
    tri = c[np.asarray(faces)]
    return tri[:, 0], cross3(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])


class PolyhedralSurface:
    """Closed triangle mesh: vertex coordinates, oriented face triples, and
    the ``centred`` vertices and face ``normals`` on them (both None unless
    every face indexes 3 vertices)."""

    def __init__(self, vertices, faces):
        self.vertices = v = np.asarray(vertices, dtype=float)
        faces = [tuple(int(i) for i in f) for f in faces]
        self.normals = self.centred = None
        if faces and v.shape[1:] == (3,) and all(
                len(f) == 3 and all(0 <= i < len(v) for i in f) for f in faces):
            try:
                faces, oriented = _orient_consistently(faces), True
            except InvalidSurface:
                oriented = False  # leave as given; surface_validate reports it
            # Validation rejects non-finite and huge coordinates later.
            with np.errstate(over="ignore", invalid="ignore"):
                self.centred = v - v.mean(axis=0)
                corners, self.normals = _face_normals(self.centred, faces)
                self._volume = float(np.sum(corners * self.normals)) / 6.0
            # Swapping a face's last two corners negates its cross3 exactly.
            if oriented and self._volume < 0:
                faces = [(a, c, b) for a, b, c in faces]
                self.normals, self._volume = -self.normals, -self._volume
        self.faces = faces

    @cached_property
    def scale(self) -> float:
        """``coord_scale`` of the vertices; read only once they are finite."""
        return coord_scale(self.vertices)

    @cached_property
    def _runs(self):
        return _edge_runs(self.faces)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """Canonical (i<j) edge pairs, sorted lexicographically; computed
        once per surface, so every access returns the same list."""
        return sorted(self._runs)

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        """``hull_masks`` of the vertices, computed once per surface; the
        cached arrays are read-only."""
        masks = hull_masks(self.vertices)
        for mask in masks:
            mask.setflags(write=False)
        return masks

    def extreme_mask(self) -> np.ndarray:
        """True where a vertex is an extreme point of the vertices' hull."""
        return self._masks[0]

    def flat_mask(self) -> np.ndarray:
        """True where a vertex lies on the hull boundary without being
        extreme."""
        extreme, boundary = self._masks
        return boundary & ~extreme

    @cached_property
    def _report(self) -> ValidityReport:
        return surface_validate(self)

    def validate(self) -> ValidityReport:
        return self._report

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise InvalidSurface(f"invalid surface: {rep}", report=rep)


def surface_validate(s: PolyhedralSurface) -> ValidityReport:
    """Check all surface invariants; every violation becomes a report entry."""
    rep = ValidityReport()
    v = s.vertices
    n = len(v)

    if v.ndim != 2 or (v.size and v.shape[1] != 3):
        rep.add("bad-shape", f"vertices must be (n, 3); got {v.shape}")
        return rep
    if bad := coordinate_violation(v, "vertex"):
        rep.add(*bad)
        return rep
    scale = s.scale
    found = {}  # face position -> (tag, detail)
    for fi, f in enumerate(s.faces):
        if len(f) != 3:
            found[fi] = ("bad-face", f"face has {len(f)} vertices")
        elif any(i < 0 or i >= n for i in f):
            found[fi] = ("index-range", f"face {f} indexes out of range")
        elif len(set(f)) != 3:
            found[fi] = ("repeated-vertex", f"face {f} repeats a vertex")
    formed = [fi for fi in range(len(s.faces)) if fi not in found]
    if formed:
        # Without ``normals`` some face is malformed: take the others' alone.
        normals = (s.normals[formed] if s.normals is not None else _face_normals(
            v - v.mean(axis=0), [s.faces[fi] for fi in formed])[1])
        area = 0.5 * np.linalg.norm(normals, axis=1)
        for fi, a in zip(formed, area):
            if a <= TOL_GEOM * scale**2:
                found[fi] = ("degenerate-face",
                             f"face {s.faces[fi]} has ~zero area")
    for fi in sorted(found):
        rep.add(*found[fi], (fi,))
    if not rep.ok:
        return rep

    # Edge-manifold check with orientation: each undirected edge must be
    # traversed exactly once in each direction.
    runs = s._runs
    for e, on in runs.items():
        if len(on) != 2:
            rep.add("edge-incidence",
                    f"edge {e} lies on {len(on)} faces, expected 2", e)
        elif on[0][1] == on[1][1]:
            rep.add("orientation", f"edge {e} traversed twice the same way", e)

    used = {i for f in s.faces for i in f}
    if used != set(range(n)):
        rep.add("unused-vertex", f"vertices {sorted(set(range(n)) - used)} unused")
    euler = n - len(runs) + len(s.faces)
    if euler != 2:
        rep.add("euler", f"V - E + F = {euler}, expected 2 (sphere)")
    if not rep.ok:
        return rep

    if abs(s._volume) <= TOL_GEOM * scale**3:
        rep.add("degenerate-volume", f"signed volume {s._volume:.3g} is ~zero")
    # Embedding: no edge properly crosses a face.  Edge end p is on side
    # O[a, b, c, p] = ((b - a) x (c - a)) . (p - a) of face abc, which is 0
    # if p is a vertex of abc, so pairs that share a vertex never cross.
    # Contacts at a shared vertex and coplanar overlaps are not tested.
    edges = np.array(s.edges)
    faces = np.array(s.faces)
    side = s.centred @ s.normals.T                          # (n, F)
    side -= side[faces[:, 0], np.arange(len(faces))]
    rims = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)      # ab, bc, ca
    ab, bc, ca = (orientations(v, edges, rims)
                  .reshape(len(edges), len(faces), 3).transpose(2, 0, 1))
    cross = proper_crossings(side[edges[:, 0]], side[edges[:, 1]], ab, bc, ca,
                             orientation_tol(scale))
    for ei, fi in zip(*np.nonzero(cross)):
        e = tuple(int(i) for i in edges[ei])
        rep.add("self-intersection", f"edge {e} crosses face {s.faces[fi]}", e)
    return rep


def cross3(a, b) -> np.ndarray:
    """``np.cross`` of two broadcastable stacks (..., 3) of 3-vectors,
    bitwise equal to it: each component is the same product minus the same
    product, written into the result without np.cross's axis handling."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(a1, b2, out=o0)
    o0 -= a2 * b1
    np.multiply(a2, b0, out=o1)
    o1 -= a0 * b2
    np.multiply(a0, b1, out=o2)
    o2 -= a1 * b0
    return out


def orientations(v, first, second) -> np.ndarray:
    """The (P, Q) orientations O[ij, kl] = det(v_j - v_i, v_k - v_i,
    v_l - v_i), six times the signed volume of the tetrahedron (i, j, k, l),
    of the points ``v`` (n, 3) for index pairs ``first`` (P, 2) against
    ``second`` (Q, 2).  With line coordinates d_ij = v_j - v_i and
    m_ij = v_i x v_j on the points centred at their mean,
    O[ij, kl] = d_ij . m_kl + d_kl . m_ij: one (P, 6) by (6, Q) product."""
    c = v - v.mean(axis=0)
    ends = np.concatenate([first, second])
    u, w = c[ends[:, 0]], c[ends[:, 1]]
    lines = np.concatenate([w - u, cross3(u, w)], axis=1)
    return lines[:len(first)] @ lines[len(first):, [3, 4, 5, 0, 1, 2]].T


def tet_orientations(points, tets) -> np.ndarray:
    """Orientations n . (d - a) = det(b - a, c - a, d - a), six times the
    signed volumes, of the tetrahedra ``tets`` (T, 4) into ``points``: n is
    abc's face normal, both on the points centred at their mean."""
    c = points - points.mean(axis=0)
    tets = np.asarray(tets, dtype=int).reshape(-1, 4)
    a, n = _face_normals(c, tets[:, :3])
    return np.sum(n * (c[tets[:, 3]] - a), axis=1)


def proper_crossings(sp, sq, ab, bc, ca, tol) -> np.ndarray:
    """Whether a segment pq properly crosses a triangle abc, from
    broadcastable arrays of orientations: sp = O[a, b, c, p] and
    sq = O[a, b, c, q] put p and q strictly on opposite sides of the
    triangle's plane, and ab = O[p, q, a, b], bc = O[p, q, b, c] and
    ca = O[p, q, c, a] have one strict sign, so the line pq passes strictly
    inside the triangle.  Strictly means beyond ``tol``; a segment and a
    triangle that share a vertex have a zero orientation, so never cross."""
    low = np.minimum(np.minimum(ab, bc), ca)
    high = np.maximum(np.maximum(ab, bc), ca)
    return ((np.maximum(sp, sq) > tol) & (np.minimum(sp, sq) < -tol)
            & ((low > tol) | (high < -tol)))


def volume(s: PolyhedralSurface) -> float:
    """Signed volume by the divergence theorem; positive for outward faces."""
    s.require_valid()
    return s._volume


def _hull_excess(hull: ConvexHull, points) -> np.ndarray:
    """Largest signed facet-plane value of each point: > 0 outside the hull."""
    return np.max(points @ hull.equations[:, :3].T + hull.equations[:, 3], axis=1)


def hull_masks(points) -> tuple[np.ndarray, np.ndarray]:
    """``(extreme, boundary)`` masks of the points, from one Qhull hull of
    all of them and one of the others per vertex of that hull;
    DegenerateVertexSet when they span no 3-D hull.

    A point is extreme when it is a vertex of that hull and lies more than
    TOL_GEOM * scale outside the hull of the other points (or those span no
    3-D hull).  It is on the boundary when no facet plane of the hull has
    it more than TOL_GEOM * scale inside.
    """
    pts = np.asarray(points, dtype=float)
    tol = TOL_GEOM * coord_scale(pts)
    try:
        hull = ConvexHull(pts)
    except (QhullError, ValueError) as exc:  # flat or too few points
        raise DegenerateVertexSet(f"convex hull failed: {exc}") from exc
    extreme = np.zeros(len(pts), dtype=bool)
    for i in hull.vertices:
        try:
            others = ConvexHull(np.delete(pts, i, axis=0))
        except QhullError:
            extreme[i] = True
            continue
        extreme[i] = _hull_excess(others, pts[i:i + 1])[0] > tol
    return extreme, _hull_excess(hull, pts) >= -tol


def is_weakly_convex(s: PolyhedralSurface):
    """Per-vertex hull extremality plus the overall verdict.

    A vertex is weakly-convex-admissible iff it is an extreme point of the
    convex hull of all vertices (equivalent to the supporting-plane
    definition for finite vertex sets), decided from Qhull's hull as in
    ``hull_masks``.  A flat surface fails validation (``degenerate-volume``)
    before any hull is built.
    """
    s.require_valid()
    mask = s.extreme_mask()
    return mask, bool(np.all(mask))
