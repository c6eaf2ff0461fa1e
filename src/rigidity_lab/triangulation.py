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

def _face_distances(p, a, b, c):
    """Distance from each point of ``p`` (N, 3) to the triangle abc.

    The Voronoi-region cases of the closest-point test (vertex a, vertex b,
    edge ab, vertex c, edge ac, edge bc, then the face interior), tried in
    that order with masks: each point takes the first case that holds.
    """
    ab, ac = b - a, c - a
    ap, bp, cp = p - a, p - b, p - c
    d1, d2 = ap @ ab, ap @ ac
    d3, d4 = bp @ ab, bp @ ac
    d5, d6 = cp @ ab, cp @ ac
    va, vb, vc = d3 * d6 - d5 * d4, d5 * d2 - d1 * d6, d1 * d4 - d3 * d2
    # Each case divides only where it applies; elsewhere the quotient may be
    # 0/0 and is discarded by the selection.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = (d1 / (d1 - d3))[:, None]
        t_ac = (d2 / (d2 - d6))[:, None]
        t_bc = ((d4 - d3) / ((d4 - d3) + (d5 - d6)))[:, None]
        denom = va + vb + vc
        v, w = (vb / denom)[:, None], (vc / denom)[:, None]
        r = np.select(
            [((d1 <= 0) & (d2 <= 0))[:, None],
             ((d3 >= 0) & (d4 <= d3))[:, None],
             ((vc <= 0) & (d1 >= 0) & (d3 <= 0))[:, None],
             ((d6 >= 0) & (d5 <= d6))[:, None],
             ((vb <= 0) & (d2 >= 0) & (d6 <= 0))[:, None],
             ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0))[:, None]],
            [ap, bp, ap - t_ab * ab, cp, ap - t_ac * ac, p - (b + t_bc * (c - b))],
            ap - (v * ab + w * ac))
    return np.linalg.norm(r, axis=1)


def classify_points(s: PolyhedralSurface, p, tol: float = geom.TOL_GEOM):
    """Classes of the points ``p`` (N, 3): +1 strictly inside, 0 on the
    boundary (within tol*scale), -1 outside.

    One pass per surface face keeps the running minimum distance to the
    surface and adds up the generalized winding number (the solid angle of
    each face, Jacobson et al. 2013) in face order; points off the boundary
    are inside when the winding number exceeds 1/2.
    """
    p = np.asarray(p, dtype=float)
    v = s.vertices
    dist = np.full(len(p), np.inf)
    total = np.zeros(len(p))
    for fa, fb, fc in s.faces:
        dist = np.minimum(dist, _face_distances(p, v[fa], v[fb], v[fc]))
        a, b, c = v[fa] - p, v[fb] - p, v[fc] - p
        la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
        det = np.einsum("ij,ij->i", a, np.cross(b, c))
        denom = (la * lb * lc + np.einsum("ij,ij->i", a, b) * lc
                 + np.einsum("ij,ij->i", b, c) * la
                 + np.einsum("ij,ij->i", c, a) * lb)
        total += 2.0 * np.arctan2(det, denom)
    inside = np.where(total / (4.0 * math.pi) > 0.5, 1, -1)
    return np.where(dist <= tol * geom.coord_scale(v), 0, inside)


def classify_point(s: PolyhedralSurface, p, tol: float = geom.TOL_GEOM) -> int:
    """+1 strictly inside, 0 on the boundary (within tol*scale), -1 outside."""
    return int(classify_points(s, np.reshape(p, (1, 3)), tol)[0])


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


def _segments_cross_faces(p0, p1, s: PolyhedralSurface, tol):
    """(K, 3) segments against every surface face -> (K,) bool: True where
    the interior of the segment properly crosses the interior of a face.

    Moeller-Trumbore in barycentric form; a segment parallel to a face
    (|det| < 1e-14) never crosses it, since grazing contact is left to the
    point samples.
    """
    f = s.vertices[np.asarray(s.faces)]            # (F, 3 vertices, 3)
    a = f[:, 0]
    e1, e2 = f[:, 1] - a, f[:, 2] - a
    d = (p1 - p0)[:, None, :]                      # (K, 1, 3)
    h = np.cross(d, e2)                            # (K, F, 3)
    det = np.sum(e1 * h, axis=-1)
    sv = p0[:, None, :] - a
    q = np.cross(sv, e1)
    # Parallel pairs divide by zero; the mask discards their quotients.
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        u = inv * np.sum(sv * h, axis=-1)
        v = inv * np.sum(d * q, axis=-1)
        t = inv * np.sum(e2 * q, axis=-1)
        crosses = ((np.abs(det) >= 1e-14) & (u > tol) & (u < 1 - tol)
                   & (v > tol) & (v < 1 - tol) & (u + v < 1 - tol)
                   & (t > tol) & (t < 1 - tol))
    return crosses.any(axis=1)


# -- decomposition search --------------------------------------------------

_SAMPLE_T = np.array([0.1, 0.25, 0.5, 0.75, 0.9])


def _tet_probe_points(pts):
    """(C, 4, 3) tetrahedra -> (C, 47, 3) probe points: the centroid, then
    five samples along each edge (edges in _TET_EDGES order), then each
    face's centroid followed by the midpoints from it to the face's three
    vertices (faces in _TET_FACES order)."""
    t = _SAMPLE_T[:, None]
    edge = ((1 - t) * pts[:, _EDGE_TAIL, None, :]
            + t * pts[:, _EDGE_HEAD, None, :])     # (C, 6, 5, 3)
    tri = pts[:, _TET_FACES]                       # (C, 4, 3, 3)
    cen = tri.mean(axis=2, keepdims=True)
    face = np.concatenate([cen, 0.5 * (cen + tri)], axis=2)  # (C, 4, 4, 3)
    return np.concatenate([pts.mean(axis=1, keepdims=True),
                           edge.reshape(-1, 30, 3), face.reshape(-1, 16, 3)],
                          axis=1)


def tet_admissible(s: PolyhedralSurface, tets, tol: float = geom.TOL_GEOM):
    """Candidate filter: the tetrahedron must lie inside the surface.

    ``tets`` is one vertex-index 4-tuple or a stack (C, 4); the result is a
    bool for one and a bool array (C,) for a stack.  A candidate is
    admissible when its volume exceeds tol*scale**3, its centroid is
    strictly inside, none of its 46 edge and face probe points is outside
    (``classify_points``), and no tetrahedron edge that is not a surface
    edge properly crosses a surface face.  Every stage runs on the whole
    stack at once.
    """
    tets = np.asarray(tets, dtype=int)
    idx = tets.reshape(-1, 4)
    v = s.vertices
    pts = v[idx]
    scale = geom.coord_scale(v)
    vol = np.linalg.det(pts[:, 1:] - pts[:, :1]) / 6.0
    ok = np.abs(vol) > tol * scale**3

    live = np.flatnonzero(ok)
    probes = _tet_probe_points(pts[live])
    cls = classify_points(s, probes.reshape(-1, 3), tol).reshape(probes.shape[:2])
    ok[live] = (cls[:, 0] == 1) & ~np.any(cls == -1, axis=1)

    live = np.flatnonzero(ok)
    surface_edge = np.zeros((len(v), len(v)), dtype=bool)
    for i, j in s.edges:
        surface_edge[i, j] = surface_edge[j, i] = True
    tail, head = idx[live][:, _EDGE_TAIL], idx[live][:, _EDGE_HEAD]
    owner, edge = np.nonzero(~surface_edge[tail, head])
    crossing = _segments_cross_faces(v[tail[owner, edge]], v[head[owner, edge]],
                                     s, 1e-9)
    ok[live[owner[crossing]]] = False
    return bool(ok[0]) if tets.ndim == 1 else ok


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

    The fan from vertex 0 is tried first.  Otherwise one ``tet_admissible``
    call filters all 4-subsets of the vertices at once, and a backtracking
    search fills the surface's front with admissible candidates.

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
    subsets = list(combinations(range(n), 4))
    admissible = tet_admissible(s, np.array(subsets, dtype=int).reshape(-1, 4))
    candidates = [tet for tet, ok in zip(subsets, admissible) if ok]
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
