"""Tetrahedral decompositions of a surface's interior on its own vertex set.

A triangulation stores the surface, a point array (surface vertices possibly
extended by explicitly added interior points), and the tetrahedra as index
4-tuples.  Interior edges are the tetra edges that are not surface edges,
ordered lexicographically; that ordering indexes the stiffness matrix.

``find_decomposition`` is an exhaustive backtracking search over admissible
candidate tetrahedra (desk scale, <= 16 vertices) that either produces a
validated triangulation, certifies non-decomposability, or gives up on a
node budget.  Its candidate filter ``tet_admissible`` probes each distinct
edge and face of the candidates once: 4-subsets share them, so a
12-vertex surface's 495 subsets have 1,705 distinct probe points, not
495 x 47.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import geom
from .errors import InvalidSurface, InvalidTriangulation, TooManyVertices
from .geom import PolyhedralSurface, ValidityReport, canonical_edge

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


def tet_volumes(pts) -> np.ndarray:
    """Signed volumes of a stack (..., 4, 3) of tetrahedra's corners."""
    p = np.asarray(pts, dtype=float)
    # A subnormal coordinate can flush an LU pivot to zero: det then flags a
    # division by zero and returns 0.0, right to the coordinates' precision.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.linalg.det(p[..., 1:, :] - p[..., :1, :]) / 6.0


def tet_volume(pts) -> float:
    return float(tet_volumes(pts))


def _canon_oriented(tri):
    """Rotate an oriented triple so the smallest index comes first."""
    k = tri.index(min(tri))
    return (tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3])


def outward_faces(tet, positive: bool):
    """The four faces of a tetrahedron, each wound so its normal points out.

    For (a, b, c, d) with det(b - a, c - a, d - a) > 0 they are (b, c, d),
    (a, c, b), (a, b, d) and (a, d, c); ``positive`` False means the
    determinant is negative, and then a and b swap roles.  Each face is
    rotated so its smallest index comes first.
    """
    a, b, c, d = tet if positive else (tet[1], tet[0], tet[2], tet[3])
    return [_canon_oriented(f) for f in ((b, c, d), (a, c, b), (a, b, d), (a, d, c))]


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


def classify_points(s: PolyhedralSurface, p):
    """Classes of the points ``p`` (N, 3): +1 strictly inside, 0 on the
    boundary (within TOL_GEOM * scale), -1 outside.

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
    return np.where(dist <= geom.TOL_GEOM * geom.coord_scale(v), 0, inside)


# Vertex triples of the four faces; face k omits vertex k.
_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


# -- decomposition search --------------------------------------------------

_SAMPLE_T = np.array([0.1, 0.25, 0.5, 0.75, 0.9])


def _distinct(rows, n):
    """The distinct rows of an integer stack (..., k) of indices below n, as
    (D, k) in key order, and the position of each row among them.  A row is
    keyed as it stands, not sorted, so (i, j) and (j, i) stay apart."""
    flat = rows.reshape(-1, rows.shape[-1])
    keys = flat @ n ** np.arange(flat.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return flat[first], inverse.reshape(rows.shape[:-1])


def _tet_probe_points(v, tets):
    """Probe points of the tetrahedra ``tets`` (C, 4) on the points ``v``.

    Returns ``(points, probes)``: ``points[probes]`` is (C, 47, 3), each
    candidate's centroid, then five samples along each edge (edges in
    _TET_EDGES order), then each face's centroid followed by the midpoints
    from it to the face's three vertices (faces in _TET_FACES order).  Each
    distinct edge and face, as an ordered index tuple, is sampled once in
    ``points``, from the same operands and in the same order as when each
    candidate is sampled on its own.
    """
    c = len(tets)
    edges, edge_of = _distinct(tets[:, _TET_EDGES], len(v))   # (E, 2), (C, 6)
    faces, face_of = _distinct(tets[:, _TET_FACES], len(v))   # (F, 3), (C, 4)
    t = _SAMPLE_T[:, None]
    edge = (1 - t) * v[edges[:, 0], None, :] + t * v[edges[:, 1], None, :]
    tri = v[faces]                                            # (F, 3, 3)
    cen = tri.mean(axis=1, keepdims=True)
    face = np.concatenate([cen, 0.5 * (cen + tri)], axis=1)   # (F, 4, 3)
    points = np.concatenate([v[tets].mean(axis=1), edge.reshape(-1, 3),
                             face.reshape(-1, 3)])
    first_face = c + 5 * len(edges)
    probes = np.concatenate(
        [np.arange(c)[:, None],
         (c + 5 * edge_of[..., None] + np.arange(5)).reshape(c, 30),
         (first_face + 4 * face_of[..., None] + np.arange(4)).reshape(c, 16)],
        axis=1)
    return points, probes


def tet_admissible(s: PolyhedralSurface, tets):
    """Candidate filter: the tetrahedron must lie inside the surface.

    ``tets`` is a stack (C, 4) of vertex-index 4-tuples, and the result a
    bool array (C,).  A candidate is admissible when its volume exceeds
    TOL_GEOM * scale**3, its centroid is strictly inside, none of its 46
    edge and face probe points is outside (``classify_points``), and no
    tetrahedron edge that is not a surface edge properly crosses a surface
    face.  Candidates that share an edge or a face share its probe points:
    one ``classify_points`` call classifies each distinct point once, and
    each distinct edge is tested for crossings once.
    """
    idx = np.asarray(tets, dtype=int).reshape(-1, 4)
    v = s.vertices
    scale = geom.coord_scale(v)
    vol = tet_volumes(v[idx])
    ok = np.abs(vol) > geom.TOL_GEOM * scale**3

    live = np.flatnonzero(ok)
    points, probes = _tet_probe_points(v, idx[live])
    cls = classify_points(s, points)[probes]
    ok[live] = (cls[:, 0] == 1) & ~np.any(cls == -1, axis=1)

    live = np.flatnonzero(ok)
    surface_edge = np.zeros((len(v), len(v)), dtype=bool)
    for i, j in s.edges:
        surface_edge[i, j] = surface_edge[j, i] = True
    edges, edge_of = _distinct(idx[live][:, _TET_EDGES], len(v))
    tested = np.flatnonzero(~surface_edge[edges[:, 0], edges[:, 1]])
    crossing = np.zeros(len(edges), dtype=bool)
    crossing[tested] = geom.segments_cross_faces(
        v[edges[tested, 0]], v[edges[tested, 1]], v[np.asarray(s.faces)]).any(axis=1)
    ok[live] = ~crossing[edge_of].any(axis=1)
    return ok


def tri_validate(t: Triangulation) -> ValidityReport:
    """Check all triangulation invariants; violations become report entries.

    Once the surface, the point array and every tetrahedron's indices and
    volume pass, one boundary-chain certificate stands in for any pairwise
    test.  Every tetrahedron, oriented positively, contributes its four
    ``outward_faces``, and these must add up, as signed oriented triangles,
    to exactly the surface's faces; each face where the two chains differ
    is a ``boundary-chain`` entry.  The surface is embedded, so every
    generic point is then covered by as many tetrahedra as the surface
    winds around it: once inside and never outside.  Hence the interiors
    are disjoint, the volumes fill the surface, every surface face bounds
    one tetrahedron, and tetrahedra meet face to face.  O(T) in the number
    of tetrahedra.
    """
    rep = ValidityReport()
    srep = t.surface.validate()
    if not srep.ok:
        rep.add("invalid-surface", str(srep))
        return rep
    pts = t.points
    npts = len(pts)
    scale = geom.coord_scale(pts)

    n_surface = len(t.surface.vertices)
    if npts < n_surface or np.any(np.abs(pts[:n_surface] - t.surface.vertices)
                                  > geom.TOL_GEOM * scale):
        rep.add("points-mismatch", "points must extend the surface vertex array")
        return rep

    for ti, tet in enumerate(t.tetrahedra):
        if len(set(tet)) != 4 or any(i < 0 or i >= npts for i in tet):
            rep.add("bad-tet", f"tetra {tet} has bad indices", (ti,))
    if not rep.ok:
        return rep
    tet_pts = pts[np.array(t.tetrahedra, dtype=int).reshape(-1, 4)]
    vols = tet_volumes(tet_pts)
    for ti in np.flatnonzero(np.abs(vols) <= geom.TOL_GEOM * scale**3):
        rep.add("degenerate-tet", f"tetra {t.tetrahedra[ti]} has ~zero volume",
                (int(ti),))
    if not rep.ok:
        return rep

    # The chain maps each sorted vertex triple to its signed multiplicity.
    faces = [(f, 1) for tet, vol in zip(t.tetrahedra, vols)
             for f in outward_faces(tet, vol > 0)]
    faces += [(_canon_oriented(f), -1) for f in t.surface.faces]
    chain: dict[tuple, int] = {}
    for (a, b, c), k in faces:
        key, k = ((a, b, c), k) if b < c else ((a, c, b), -k)
        chain[key] = chain.get(key, 0) + k
    for (a, b, c), k in sorted(chain.items()):
        if k:
            face = (a, b, c) if k > 0 else (a, c, b)
            rep.add("boundary-chain",
                    f"oriented face {face} is left {abs(k)}x in the tetrahedra's "
                    "outward faces minus the surface's", face)
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
    search fills the surface's front with admissible candidates.  Overlaps
    are not pruned: when the front empties, ``tri_validate``'s boundary
    chain accepts the fill only if the tetrahedra tile the surface.

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
    admissible = tet_admissible(s, subsets)
    candidates = [tet for tet, ok in zip(subsets, admissible) if ok]
    n_candidates = len(candidates)

    cand_pts = pts[np.array(candidates, dtype=int).reshape(-1, 4)]
    signed = tet_volumes(cand_pts)
    volumes = np.abs(signed)
    cand_faces = [outward_faces(tet, vol > 0)
                  for tet, vol in zip(candidates, signed)]
    by_triangle: dict[tuple, list[int]] = {}
    for ci, faces in enumerate(cand_faces):
        for f in faces:
            by_triangle.setdefault(f, []).append(ci)

    front = {_canon_oriented(tuple(f)) for f in s.faces}
    nodes = 0
    result: list[Triangulation] = []

    def place(ci, front_set):
        new_front = set(front_set)
        for f in cand_faces[ci]:
            if f in new_front:
                new_front.discard(f)
            else:
                new_front.add((f[0], f[2], f[1]))
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
