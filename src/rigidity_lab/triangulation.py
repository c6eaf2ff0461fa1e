"""Tetrahedral decompositions of a surface's interior on its own vertex set.

A triangulation stores the surface, a point array (surface vertices possibly
extended by explicitly added interior points), and the tetrahedra as index
4-tuples.  Interior edges are the tetra edges that are not surface edges,
ordered lexicographically; that ordering indexes the stiffness matrix.

``find_decomposition`` tries the fan from vertex 0, then an exhaustive
backtracking search over admissible candidate tetrahedra (desk scale, at
most ``MAX_VERTICES``) that either produces a validated triangulation,
certifies non-decomposability, or gives up on a node budget.  Its candidate
filter ``tet_admissible`` is exact: it keeps a candidate when no surface
edge, face or vertex reaches into it and its centroid is inside, reading
every crossing and volume sign off one table of the orientations of all
vertex quadruples, with the crossing predicate of ``surface_validate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import geom
from .cayley_menger import TET_EDGES
from .errors import InvalidSurface, InvalidTriangulation, TooManyVertices
from .geom import PolyhedralSurface, ValidityReport, canonical_edge

MAX_VERTICES = 16


@dataclass
class Triangulation:
    surface: PolyhedralSurface
    tetrahedra: list[tuple[int, int, int, int]]
    points: np.ndarray | None = None  # defaults to the surface vertices

    def __post_init__(self):
        if self.points is None:
            self.points = self.surface.vertices
        self.points = np.asarray(self.points, dtype=float)
        self.tetrahedra = [tuple(int(i) for i in t) for t in self.tetrahedra]

    @cached_property
    def interior_edges(self) -> list[tuple[int, int]]:
        """Computed once per triangulation, so every access returns the
        same list."""
        surf = set(self.surface.edges)
        tet_edges = {canonical_edge(t[a], t[b]) for t in self.tetrahedra
                     for a, b in TET_EDGES}
        return sorted(tet_edges - surf)

    @property
    def boundary_edges(self) -> list[tuple[int, int]]:
        return self.surface.edges

    @cached_property
    def _report(self) -> ValidityReport:
        return tri_validate(self)

    def validate(self) -> ValidityReport:
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


def _canon_oriented(tri):
    """Rotate an oriented triple so the smallest index comes first."""
    k = tri.index(min(tri))
    return (tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3])


def outward_faces(tet, positive: bool):
    """The four faces of a tetrahedron, each wound so its normal points out.

    For (a, b, c, d) with a positive ``geom.tet_orientations`` they are
    (b, c, d), (a, c, b), (a, b, d) and (a, d, c); ``positive`` False means
    a negative one, and then a and b swap roles.  Each face is rotated so
    its smallest index comes first.
    """
    a, b, c, d = tet if positive else (tet[1], tet[0], tet[2], tet[3])
    return [_canon_oriented(f) for f in ((b, c, d), (a, c, b), (a, b, d), (a, d, c))]


# -- generalized winding numbers -------------------------------------------

def winding_numbers(s: PolyhedralSurface, p):
    """Generalized winding numbers of the points ``p`` (N, 3) with respect
    to the surface: 1 inside and 0 outside, up to rounding.

    Each face adds its solid angle seen from the point (Jacobson et al.
    2013), in one vectorized pass over all (point, face) pairs.
    """
    p = np.asarray(p, dtype=float)
    tri = s.vertices[np.asarray(s.faces)]
    a, b, c = (tri[:, k] - p[:, None] for k in range(3))      # (N, F, 3)

    def dot(x, y):
        return np.einsum("nfk,nfk->nf", x, y)

    la, lb, lc = (np.sqrt(dot(x, x)) for x in (a, b, c))
    denom = la * lb * lc + dot(a, b) * lc + dot(b, c) * la + dot(c, a) * lb
    return np.arctan2(dot(a, geom.cross3(b, c)), denom).sum(axis=1) / (2.0 * math.pi)


# Vertex triples of the four faces; face k omits vertex k.
_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


# -- decomposition search --------------------------------------------------

def _crossings(o, p, q, a, b, c, tol) -> np.ndarray:
    """``geom.proper_crossings`` of segments pq and triangles abc, for
    broadcastable index arrays into the orientation table ``o``."""
    return geom.proper_crossings(o[a, b, c, p], o[a, b, c, q], o[p, q, a, b],
                                 o[p, q, b, c], o[p, q, c, a], tol)


def tet_admissible(s: PolyhedralSurface, tets):
    """Candidate filter: the tetrahedron must lie inside the surface.

    ``tets`` is a stack (C, 4) of vertex-index 4-tuples, and the result a
    bool array (C,).  A candidate is admissible when its volume exceeds
    TOL_GEOM * scale**3 and four exact tests hold:

    1. none of its edges that is not a surface edge properly crosses a
       surface face;
    2. no surface edge properly crosses one of its faces;
    3. no surface vertex lies strictly inside it: some corner, replaced by
       the vertex, leaves no volume of the candidate's sign above
       TOL_GEOM * scale**3;
    4. its centroid's generalized winding number exceeds 1/2.

    A candidate that reaches outside the closed surface has the surface in
    its interior (a vertex, an edge through one of its faces, or a face one
    of its edges crosses) or lies outside whole.  Tests 1-3 are read off
    one (n, n, n, n) table O of the orientations of the surface's vertex
    quadruples, ``geom.orientations`` of every vertex pair against every
    other, and every sign is compared against the same
    6 * TOL_GEOM * scale**3.  Crossings are ``geom.proper_crossings``, the
    predicate ``surface_validate`` decides self-intersection by: test 1
    decides them once per vertex pair i < j against the surface faces, and
    test 2 once per vertex triple i < j < k against the surface edges.  The
    winding number is computed for the centroids of the candidates that
    pass tests 1-3.
    """
    idx = np.asarray(tets, dtype=int).reshape(-1, 4)
    v = s.vertices
    n = len(v)
    tol = 6.0 * geom.TOL_GEOM * s.scale**3
    rank = np.arange(n)
    pairs = np.indices((n, n)).reshape(2, -1).T                # every (i, j)
    o = geom.orientations(v, pairs, pairs).reshape(n, n, n, n)
    below = rank[:, None] < rank[None, :]                     # i < j

    # Test 1: each vertex pair against the surface faces, (P, F).
    fa, fb, fc = np.asarray(s.faces).T
    ends = np.asarray(s.edges)
    pi, pj = np.nonzero(below)
    pair_crosses = np.zeros((n, n), dtype=bool)
    pair_crosses[pi, pj] = _crossings(o, pi[:, None], pj[:, None],
                                      fa, fb, fc, tol).any(axis=1)
    pair_crosses[ends[:, 0], ends[:, 1]] = False               # surface edges pass
    pair_crosses |= pair_crosses.T

    # Test 2: each vertex triple against the surface edges, (T, E).
    ta, tb, tc = np.nonzero(below[:, :, None] & below[None, :, :])
    triple_crossed = np.zeros((n, n, n), dtype=bool)
    triple_crossed[ta, tb, tc] = _crossings(o, ends[:, 0], ends[:, 1], ta[:, None],
                                            tb[:, None], tc[:, None], tol).any(axis=1)

    a, b, c, d = idx.T
    vol = o[a, b, c, d]
    tet_edges = idx[:, TET_EDGES]                             # (C, 6, 2)
    tet_faces = np.sort(idx, axis=1)[:, _TET_FACES]           # (C, 4, 3), sorted
    ok = ((np.abs(vol) > tol)
          & ~pair_crosses[tet_edges[..., 0], tet_edges[..., 1]].any(axis=1)
          & ~triple_crossed[tet_faces[..., 0], tet_faces[..., 1],
                            tet_faces[..., 2]].any(axis=1))

    # Test 3: a vertex x in place of each corner keeps the candidate's sign.
    live = np.flatnonzero(ok)
    a, b, c, d = (k[:, None] for k in idx[live].T)
    x = rank[None, :]
    swapped = np.stack([o[x, b, c, d], o[a, x, c, d], o[a, b, x, d], o[a, b, c, x]])
    ok[live] = ~(np.sign(vol[live, None]) * swapped > tol).all(axis=0).any(axis=1)

    live = np.flatnonzero(ok)
    ok[live] = winding_numbers(s, v[idx[live]].mean(axis=1)) > 0.5
    return ok


def tri_validate(t: Triangulation) -> ValidityReport:
    """Check all triangulation invariants; violations become report entries.

    Once the surface, the point array and every tetrahedron's indices and
    ``geom.tet_orientations`` O (degenerate when |O| <= 6 TOL_GEOM scale**3)
    pass, one boundary-chain certificate stands in for any pairwise test.
    Every tetrahedron, oriented by the sign of O, contributes its four
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
    signs = geom.tet_orientations(pts, t.tetrahedra)
    for ti in np.flatnonzero(np.abs(signs) <= 6.0 * geom.TOL_GEOM * scale**3):
        rep.add("degenerate-tet", f"tetra {t.tetrahedra[ti]} has ~zero volume",
                (int(ti),))
    if not rep.ok:
        return rep

    # The chain maps each sorted vertex triple to its signed multiplicity.
    faces = [(f, 1) for tet, o in zip(t.tetrahedra, signs)
             for f in outward_faces(tet, o > 0)]
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


def find_decomposition(s: PolyhedralSurface, budget: int = 200_000):
    """Exhaustive search for a triangulation without added vertices.

    The fan from vertex 0 is tried first, at any size; past ``MAX_VERTICES``
    a surface it does not triangulate raises TooManyVertices.  Otherwise one
    ``tet_admissible`` call filters all 4-subsets of the vertices, and a
    backtracking search fills the front with admissible candidates, a
    facet's options in candidate order.  Overlaps are not pruned: when the
    front empties, ``tri_validate``'s boundary chain accepts the fill only
    if the tetrahedra tile the surface.

    Returns a validated Triangulation, or NonDecomposable when the candidate
    space is exhausted, or BudgetExceeded when the node budget runs out.
    """
    s.require_valid()
    # Priming: the fan from vertex 0 is admissible for convex surfaces.
    fan = fan_triangulation(s, 0)
    if fan.validate().ok:
        return fan
    n = len(s.vertices)
    if n > MAX_VERTICES:
        raise TooManyVertices(f"{n} vertices exceeds the desk-scale limit {MAX_VERTICES}")

    subsets = list(combinations(range(n), 4))
    candidates = [tet for tet, ok in zip(subsets, tet_admissible(s, subsets)) if ok]

    cand_faces = [outward_faces(tet, o > 0) for tet, o in
                  zip(candidates, geom.tet_orientations(s.vertices, candidates))]
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
        for ci in by_triangle.get(min(front_set), ()):
            if ci in chosen:
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
    return NonDecomposable(admissible_candidates=len(candidates), nodes_explored=nodes)
