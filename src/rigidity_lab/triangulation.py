"""Tetrahedral decompositions of a surface's interior on its own vertex set.

A triangulation stores the surface, a point array (surface vertices possibly
extended by explicitly added interior points), and the tetrahedra as index
4-tuples.  Interior edges are the tetra edges that are not surface edges,
ordered lexicographically; that ordering indexes the stiffness matrix.

``find_decomposition`` is an exhaustive backtracking search over admissible
candidate tetrahedra (desk scale, <= 16 vertices) that either produces a
validated triangulation, certifies non-decomposability, or gives up on a
node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import geom
from .errors import InvalidSurface, InvalidTriangulation, TooManyVertices
from .geom import PolyhedralSurface, ValidityReport, canonical_edge

TOL_FILL = 1e-9  # relative volume-fill tolerance

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass
class Triangulation:
    surface: PolyhedralSurface
    tetrahedra: list[tuple[int, int, int, int]]
    points: np.ndarray | None = None  # defaults to the surface vertices
    _report: ValidityReport | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.points is None:
            self.points = self.surface.vertices
        self.points = np.asarray(self.points, dtype=float)
        self.tetrahedra = [tuple(int(i) for i in t) for t in self.tetrahedra]

    @property
    def interior_edges(self) -> list[tuple[int, int]]:
        surf = set(self.surface.edges)
        tet_edges = {canonical_edge(t[a], t[b]) for t in self.tetrahedra
                     for a, b in _TET_EDGES}
        return sorted(tet_edges - surf)

    @property
    def boundary_edges(self) -> list[tuple[int, int]]:
        return self.surface.edges

    def validate(self) -> ValidityReport:
        if self._report is None:
            self._report = tri_validate(self)
        return self._report

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise InvalidTriangulation(f"invalid triangulation: {rep}", report=rep)


@dataclass
class VertexCensus:
    m: int  # interior vertices (tetra vertices beyond the surface vertex set)
    k: int  # flat vertices (on the hull boundary but not extreme)


@dataclass
class NonDecomposable:
    """Certificate: the candidate space was exhausted without an exact fill."""
    admissible_candidates: int
    nodes_explored: int


@dataclass
class BudgetExceeded:
    nodes_explored: int


def tet_volume(pts) -> float:
    p = np.asarray(pts, dtype=float)
    return float(np.linalg.det(np.array([p[1] - p[0], p[2] - p[0], p[3] - p[0]]))) / 6.0


def tet_faces_outward(tet, points):
    """The four faces of a tetra, each wound so its normal points outward."""
    faces = []
    for omit in range(4):
        tri = [tet[i] for i in range(4) if i != omit]
        other = tet[omit]
        p = points
        n = np.cross(p[tri[1]] - p[tri[0]], p[tri[2]] - p[tri[0]])
        if np.dot(n, p[other] - p[tri[0]]) > 0:
            tri = [tri[0], tri[2], tri[1]]
        faces.append(tuple(tri))
    return faces


def _canon_oriented(tri):
    """Rotate an oriented triple so the smallest index comes first."""
    k = tri.index(min(tri))
    return (tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3])


# -- point / surface classification ---------------------------------------

def _point_triangle_distance(p, a, b, c) -> float:
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = np.dot(ab, ap), np.dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return float(np.linalg.norm(ap))
    bp = p - b
    d3, d4 = np.dot(ab, bp), np.dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return float(np.linalg.norm(bp))
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        t = d1 / (d1 - d3)
        return float(np.linalg.norm(ap - t * ab))
    cp = p - c
    d5, d6 = np.dot(ab, cp), np.dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return float(np.linalg.norm(cp))
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        t = d2 / (d2 - d6)
        return float(np.linalg.norm(ap - t * ac))
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return float(np.linalg.norm(p - (b + t * (c - b))))
    denom = va + vb + vc
    v, w = vb / denom, vc / denom
    return float(np.linalg.norm(ap - (v * ab + w * ac)))


def surface_distance(s: PolyhedralSurface, p) -> float:
    p = np.asarray(p, dtype=float)
    v = s.vertices
    return min(_point_triangle_distance(p, v[a], v[b], v[c]) for a, b, c in s.faces)


def winding_number(s: PolyhedralSurface, p) -> float:
    """Generalized winding number: ~1 inside, ~0 outside a closed surface."""
    p = np.asarray(p, dtype=float)
    v = s.vertices
    total = 0.0
    for fa, fb, fc in s.faces:
        a, b, c = v[fa] - p, v[fb] - p, v[fc] - p
        la, lb, lc = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c)
        det = float(np.linalg.det(np.array([a, b, c])))
        denom = la * lb * lc + np.dot(a, b) * lc + np.dot(b, c) * la + np.dot(c, a) * lb
        total += 2.0 * math.atan2(det, denom)
    return total / (4.0 * math.pi)


def classify_point(s: PolyhedralSurface, p, tol: float = geom.TOL_GEOM) -> int:
    """+1 strictly inside, 0 on the boundary (within tol*scale), -1 outside."""
    scale = geom.coord_scale(s.vertices)
    if surface_distance(s, p) <= tol * scale:
        return 0
    return 1 if winding_number(s, p) > 0.5 else -1


# -- tetra-tetra interior disjointness (separating axis test) -------------

# Vertex triples of the four faces; face k omits vertex k.
_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_EDGE_TAIL = [i for i, _ in _TET_EDGES]
_EDGE_HEAD = [j for _, j in _TET_EDGES]


def _face_normals(p):
    """(..., 4, 3) tetrahedra -> (..., 4, 3) unnormalised face normals."""
    tri = p[..., _TET_FACES, :]
    return np.cross(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])


def tets_interior_disjoint(pa, pb, tol: float = geom.TOL_GEOM):
    """Separating-axis test: True where the two tetrahedra's interiors are
    disjoint.

    ``pa`` and ``pb`` are (4, 3) vertex arrays or stacks (..., 4, 3) that
    broadcast against each other; the result is a bool for one pair and a
    bool array of the broadcast stack shape otherwise.  The 44 candidate
    axes of a pair are its 8 face normals and the 36 cross products of one
    edge of each; an axis shorter than ``tol`` times the pair's coordinate
    scale is skipped, and projections that overlap by no more than that
    much count as separated, so tetrahedra sharing a face, an edge or a
    vertex are disjoint.
    """
    pa, pb = np.broadcast_arrays(np.asarray(pa, dtype=float),
                                 np.asarray(pb, dtype=float))
    scale = np.maximum(1.0, np.max(np.abs(np.concatenate([pa, pb], axis=-2)),
                                   axis=(-2, -1)))
    ea = pa[..., _EDGE_HEAD, :] - pa[..., _EDGE_TAIL, :]
    eb = pb[..., _EDGE_HEAD, :] - pb[..., _EDGE_TAIL, :]
    cross = np.cross(ea[..., :, None, :], eb[..., None, :, :])
    axes = np.concatenate([_face_normals(pa), _face_normals(pb),
                           cross.reshape(cross.shape[:-3] + (36, 3))], axis=-2)
    slack = (tol * scale)[..., None]
    norm = np.linalg.norm(axes, axis=-1)
    usable = norm > slack
    axes = axes / np.where(usable, norm, 1.0)[..., None]
    qa = pa @ np.swapaxes(axes, -1, -2)  # (..., 4 vertices, 44 axes)
    qb = pb @ np.swapaxes(axes, -1, -2)
    apart = ((qa.max(axis=-2) <= qb.min(axis=-2) + slack)
             | (qb.max(axis=-2) <= qa.min(axis=-2) + slack))
    disjoint = np.any(usable & apart, axis=-1)
    return bool(disjoint) if disjoint.ndim == 0 else disjoint


def _segment_crosses_triangle(p0, p1, a, b, c, tol) -> bool:
    """Proper crossing: interior of the segment through the triangle interior."""
    d = p1 - p0
    e1, e2 = b - a, c - a
    h = np.cross(d, e2)
    det = np.dot(e1, h)
    if abs(det) < 1e-14:
        return False  # parallel; grazing contact handled by point sampling
    f = 1.0 / det
    sv = p0 - a
    u = f * np.dot(sv, h)
    if u <= tol or u >= 1 - tol:
        return False
    q = np.cross(sv, e1)
    v = f * np.dot(d, q)
    if v <= tol or v >= 1 - tol or u + v >= 1 - tol:
        return False
    t = f * np.dot(e2, q)
    return tol < t < 1 - tol


# -- decomposition search --------------------------------------------------

def _tet_sample_points(pts):
    """Interior probe points of a tetra: edge samples and face samples."""
    samples = []
    for i, j in _TET_EDGES:
        for t in (0.1, 0.25, 0.5, 0.75, 0.9):
            samples.append((1 - t) * pts[i] + t * pts[j])
    for omit in range(4):
        tri = np.delete(pts, omit, axis=0)
        cen = tri.mean(axis=0)
        samples.append(cen)
        for k in range(3):
            samples.append(0.5 * (cen + tri[k]))
    return samples


def tet_admissible(s: PolyhedralSurface, tet, tol: float = geom.TOL_GEOM) -> bool:
    """Candidate filter: the tetra must lie inside the surface.

    Centroid strictly inside; edge and face probe points not outside; no
    tetra edge properly crossing a boundary face.
    """
    pts = s.vertices[list(tet)]
    scale = geom.coord_scale(s.vertices)
    if abs(tet_volume(pts)) <= tol * scale**3:
        return False
    if classify_point(s, pts.mean(axis=0), tol) != 1:
        return False
    for q in _tet_sample_points(pts):
        if classify_point(s, q, tol) == -1:
            return False
    surf_edges = set(s.edges)
    v = s.vertices
    for i, j in _TET_EDGES:
        if canonical_edge(tet[i], tet[j]) in surf_edges:
            continue
        for a, b, c in s.faces:
            if _segment_crosses_triangle(pts[i], pts[j], v[a], v[b], v[c], 1e-9):
                return False
    return True


def tri_validate(t: Triangulation) -> ValidityReport:
    """Check all triangulation invariants; violations become report entries."""
    rep = ValidityReport()
    srep = t.surface.validate()
    if not srep.ok:
        rep.add("invalid-surface", str(srep))
        return rep
    pts = t.points
    npts = len(pts)
    scale = geom.coord_scale(pts)

    n_surface = len(t.surface.vertices)
    if npts < n_surface or not np.allclose(pts[:n_surface], t.surface.vertices):
        rep.add("points-mismatch", "points must extend the surface vertex array")
        return rep

    vols = []
    for ti, tet in enumerate(t.tetrahedra):
        if len(set(tet)) != 4 or any(i < 0 or i >= npts for i in tet):
            rep.add("bad-tet", f"tetra {tet} has bad indices", (ti,))
            continue
        v = tet_volume(pts[list(tet)])
        if abs(v) <= geom.TOL_GEOM * scale**3:
            rep.add("degenerate-tet", f"tetra {tet} has ~zero volume", (ti,))
        vols.append(abs(v))
    if not rep.ok:
        return rep

    vol_surface = geom.volume(t.surface)
    fill = sum(vols)
    if abs(fill - vol_surface) > TOL_FILL * max(1.0, abs(vol_surface)):
        rep.add("volume-fill",
                f"tetra volumes sum to {fill}, surface volume {vol_surface}")

    # One tetrahedron against all later ones at a time: the stacks stay
    # O(T) while the pairs come out in combinations() order.
    tet_pts = pts[np.array(t.tetrahedra, dtype=int).reshape(-1, 4)]
    for i in range(len(t.tetrahedra) - 1):
        disjoint = tets_interior_disjoint(tet_pts[i], tet_pts[i + 1:])
        for j in i + 1 + np.flatnonzero(~disjoint):
            ta, tb = t.tetrahedra[i], t.tetrahedra[j]
            rep.add("overlap", f"tetrahedra {ta} and {tb} overlap", (i, int(j)))

    face_count: dict[frozenset, int] = {}
    for tet in t.tetrahedra:
        for tri in combinations(tet, 3):
            key = frozenset(tri)
            face_count[key] = face_count.get(key, 0) + 1
    for f in t.surface.faces:
        cnt = face_count.get(frozenset(f), 0)
        if cnt != 1:
            rep.add("boundary-face",
                    f"surface face {f} bounds {cnt} tetrahedra, expected 1", f)
    return rep


def vertex_census(t: Triangulation) -> VertexCensus:
    t.require_valid()
    n_surface = len(t.surface.vertices)
    used = {i for tet in t.tetrahedra for i in tet}
    m = len([i for i in used if i >= n_surface])
    k = int(np.sum(t.surface.flat_mask()))
    return VertexCensus(m=m, k=k)


def fan_triangulation(s: PolyhedralSurface, apex: int = 0) -> Triangulation:
    """Cone from one vertex over all faces not containing it."""
    tets = [(apex, f[0], f[1], f[2]) for f in s.faces if apex not in f]
    return Triangulation(s, tets)


def find_decomposition(s: PolyhedralSurface, budget: int = 200_000,
                       max_vertices: int = 16):
    """Exhaustive search for a triangulation without added vertices.

    Returns a validated Triangulation, or NonDecomposable when the candidate
    space is exhausted, or BudgetExceeded when the node budget runs out.
    """
    s.require_valid()
    n = len(s.vertices)
    if n > max_vertices:
        raise TooManyVertices(f"{n} vertices exceeds the desk-scale limit {max_vertices}")

    # Priming: the fan from vertex 0 is admissible for convex surfaces.
    fan = fan_triangulation(s, 0)
    if fan.validate().ok:
        return fan

    pts = s.vertices
    candidates = [tet for tet in combinations(range(n), 4) if tet_admissible(s, tet)]
    n_candidates = len(candidates)

    cand_pts = pts[np.array(candidates, dtype=int).reshape(-1, 4)]
    by_triangle: dict[tuple, list[int]] = {}
    outward_faces = []
    volumes = []
    for ci, tet in enumerate(candidates):
        faces = [_canon_oriented(f) for f in tet_faces_outward(tet, pts)]
        outward_faces.append(faces)
        volumes.append(abs(tet_volume(pts[list(tet)])))
        for f in faces:
            by_triangle.setdefault(f, []).append(ci)

    front = {_canon_oriented(tuple(f)) for f in s.faces}
    nodes = 0
    result: list[Triangulation] = []

    def place(ci, front_set):
        new_front = set(front_set)
        for f in outward_faces[ci]:
            if f in new_front:
                new_front.discard(f)
            else:
                new_front.add(_canon_oriented((f[0], f[2], f[1])))
        return new_front

    def search(front_set, chosen):
        nonlocal nodes
        if nodes > budget:
            return "budget"
        nodes += 1
        if not front_set:
            tri = Triangulation(s, [candidates[ci] for ci in chosen])
            if tri.validate().ok:
                result.append(tri)
                return "found"
            return None
        facet = min(front_set)
        opts = [ci for ci in by_triangle.get(facet, ())
                if ci not in chosen]
        opts.sort(key=lambda ci: -volumes[ci])
        for ci in opts:
            if not np.all(tets_interior_disjoint(cand_pts[ci], cand_pts[chosen])):
                continue
            status = search(place(ci, front_set), chosen + [ci])
            if status in ("found", "budget"):
                return status
        return None

    status = search(front, [])
    if status == "found":
        return result[0]
    if status == "budget":
        return BudgetExceeded(nodes_explored=nodes)
    return NonDecomposable(admissible_candidates=n_candidates, nodes_explored=nodes)
