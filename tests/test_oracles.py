"""The fast paths against the straightforward algorithms they replace.

The reference implementations below are kept here, in test code only:
the pairwise overlap (a per-pair separating-axis test), volume-fill and
face-count validation that the boundary-chain certificate replaced, the
per-tetrahedron sum of scalar dihedral angles that total angles came from
before the stacked kernel, a finite-difference M_T that recomputes every
total angle for every perturbation, high-precision differences of the
dihedral-angle formula, the scalar Moeller-Trumbore crossing test that
self-intersection pairs are checked against, the scalar exact
decomposition filter (one candidate against one surface edge, face and
vertex at a time), the probe filter that the exact test replaced, the
per-vertex linear program that decided hull extremality before Qhull did,
the region growing that oriented faces by comparing directed-edge sets,
and the rigidity matrix and trivial motions written edge by edge and with
``np.cross``.  The fast paths must give the same verdicts and bitwise the
same matrices; the exact M_T, which replaces a difference quotient by a
derivative, must agree to a tolerance, and so must the kernel's total
angles, whose arccos can round differently in the last bit.  The probe
filter is unsound, so the exact filter must admit a subset of its
candidates, each left-out one with a certificate that it reaches outside.
"""

import functools
import math
import sys
from collections import Counter
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from conftest import in_domain, tet_volume, tet_volumes
from rigidity_lab import deformation
from rigidity_lab import generators as gen
from rigidity_lab import hilbert_einstein as he
from rigidity_lab import geom
from rigidity_lab.cayley_menger import (
    EDGE_ORDER,
    TetraLengths,
    dihedral_angle,
    dihedral_kernel,
    is_valid_tetra,
)
from rigidity_lab.cli import analyze_surface
from rigidity_lab.errors import InvalidSurface, NonPositiveLength, OutOfDomain
from rigidity_lab.geom import PolyhedralSurface, surface_validate
from rigidity_lab.stiffness import (
    DEFAULT_SCHEME,
    PAPER_SCHEME,
    FDScheme,
    SchemeKind,
    assemble_mt,
    spectrum,
)
from rigidity_lab.triangulation import (
    Triangulation,
    fan_triangulation,
    find_decomposition,
    tet_admissible,
    tri_validate,
    winding_numbers,
)

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


# -- reference implementations --------------------------------------------

def scalar_tets_interior_disjoint(pa, pb, tol=geom.TOL_GEOM) -> bool:
    """One pair at a time, one axis at a time: the 8 face normals, then the
    36 cross products of one edge of each; an axis shorter than tol * scale
    is skipped, and projections that overlap by no more than that count as
    separated, so tetrahedra sharing a face, an edge or a vertex are
    disjoint."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    slack = tol * geom.coord_scale(np.vstack([pa, pb]))

    def axes():
        for pts in (pa, pb):
            for omit in range(4):
                tri = np.delete(pts, omit, axis=0)
                yield np.cross(tri[1] - tri[0], tri[2] - tri[0])
        for i, j in _TET_EDGES:
            for k, l in _TET_EDGES:
                yield np.cross(pa[j] - pa[i], pb[l] - pb[k])

    for ax in axes():
        norm = np.linalg.norm(ax)
        if norm <= slack:
            continue
        qa = pa @ (ax / norm)
        qb = pb @ (ax / norm)
        if qa.max() <= qb.min() + slack or qb.max() <= qa.min() + slack:
            return True
    return False


def _scalar_lengths(t, l):
    """Each tetrahedron's edges and their TetraLengths, or None where the
    lengths are not all finite and positive."""
    value = dict(zip(t.interior_edges + t.boundary_edges,
                     np.concatenate([l.interior, l.boundary])))
    for tet in t.tetrahedra:
        edges = [geom.canonical_edge(tet[i - 1], tet[j - 1])
                 for i, j in EDGE_ORDER]
        try:
            yield edges, TetraLengths(*[float(value[e]) for e in edges])
        except NonPositiveLength:
            yield edges, None


def scalar_in_domain(t, l) -> bool:
    return all(ls is not None and is_valid_tetra(ls)
               for _, ls in _scalar_lengths(t, l))


def scalar_total_angles(t, l, round_sig=None) -> he.AngleData:
    """Six scalar dihedral_angle calls per tetrahedron, each rounded to
    round_sig significant figures when given, added per edge in
    tetrahedron order."""
    if not scalar_in_domain(t, l):
        raise OutOfDomain("length assignment leaves the admissible domain")
    n = len(l.interior)
    position = {e: k for k, e in enumerate(t.interior_edges + t.boundary_edges)}
    sums = np.zeros(len(position))
    for edges, ls in _scalar_lengths(t, l):
        for e, slot in zip(edges, EDGE_ORDER):
            angle = dihedral_angle(ls, slot)
            if round_sig is not None:
                angle = he._round_sig(angle, round_sig)
            sums[position[e]] += angle
    omega = sums[:n]
    return he.AngleData(omega=omega, kappa=he.TWO_PI - omega,
                        boundary_alpha=sums[n:])


def global_fd_mt(t, scheme, total_angles=he.total_angles) -> np.ndarray:
    """Every column from total angles recomputed over all tetrahedra."""
    base = he.euclidean_lengths(t)
    n = len(base.interior)
    m = np.zeros((n, n))
    eps = scheme.epsilon * geom.coord_scale(t.points)
    for j in range(n):
        step = np.zeros(n)
        step[j] = eps
        plus = total_angles(t, base.with_interior(base.interior + step),
                            round_sig=scheme.round_sig).omega
        if scheme.kind is SchemeKind.FORWARD:
            m[:, j] = (plus - he.TWO_PI) / eps
        else:
            minus = total_angles(t, base.with_interior(base.interior - step),
                                 round_sig=scheme.round_sig).omega
            m[:, j] = (plus - minus) / (2.0 * eps)
    return m


def _mp_dihedral_angles(lengths) -> list:
    """The six angles of ``dihedral_angle``'s formula in mpmath arithmetic."""
    s = [x * x for x in lengths]
    b = mp.matrix(5, 5)
    for (i, j), v in zip(EDGE_ORDER, s):
        b[i - 1, j - 1] = b[j - 1, i - 1] = v
    for i in range(4):
        b[4, i] = b[i, 4] = 1
    d = mp.det(b)
    angles = []
    for e, (i, j) in enumerate(EDGE_ORDER):
        k, l = sorted({1, 2, 3, 4} - {i, j})
        minor = mp.matrix([[b[r, c] for c in range(5) if c != l - 1]
                           for r in range(5) if r != k - 1])
        n = (-1) ** (k + l) * mp.det(minor)
        angles.append(mp.acos(n / mp.sqrt(2 * s[e] * d + n * n)))
    return angles


def mp_dihedral_jacobian(lengths) -> np.ndarray:
    """d angle_e / d length_f by central differences at 50 digits."""
    jac = np.zeros((6, 6))
    with mp.workdps(50):
        h = mp.mpf("1e-20")
        for f in range(6):
            up = [mp.mpf(float(x)) for x in lengths]
            down = list(up)
            up[f] += h
            down[f] -= h
            plus, minus = _mp_dihedral_angles(up), _mp_dihedral_angles(down)
            jac[:, f] = [float((a - b) / (2 * h)) for a, b in zip(plus, minus)]
    return jac


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


def classify_points(s, p):
    """Classes of the points ``p`` (N, 3): +1 strictly inside, 0 on the
    boundary (within TOL_GEOM * scale), -1 outside: a running minimum of
    the distance to each face, and the winding number summed in face order
    for the points off the boundary."""
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


def winding_number(s, p) -> float:
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


def _cross(a, b):
    """np.cross of two 3-vectors, component by component in the same order,
    without its per-call overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _segment_crosses_triangle(p0, p1, a, b, c, tol) -> bool:
    """Proper crossing: interior of the segment through the triangle interior."""
    d = p1 - p0
    e1, e2 = b - a, c - a
    h = _cross(d, e2)
    det = np.dot(e1, h)
    if abs(det) <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(_cross(e1, e2)):
        return False  # parallel: no proper crossing
    f = 1.0 / det
    sv = p0 - a
    u = f * np.dot(sv, h)
    if u <= tol or u >= 1 - tol:
        return False
    q = _cross(sv, e1)
    v = f * np.dot(d, q)
    if v <= tol or v >= 1 - tol or u + v >= 1 - tol:
        return False
    t = f * np.dot(e2, q)
    return tol < t < 1 - tol


def _memo_crossing(s):
    """_segment_crosses_triangle on vertex indices of the surface, computed
    once per distinct (segment, triangle): candidates share their edges and
    faces."""
    v = s.vertices

    @functools.cache
    def crosses(i, j, a, b, c):
        return _segment_crosses_triangle(v[i], v[j], v[a], v[b], v[c], 1e-9)
    return crosses


def _strictly_inside(pts, x, bound) -> bool:
    """Whether x, put in place of each corner of the tetrahedron ``pts`` in
    turn, leaves each time a volume of the tetrahedron's sign above
    ``bound``."""
    sign = math.copysign(1.0, tet_volume(pts))
    for k in range(4):
        q = pts.copy()
        q[k] = x
        if sign * tet_volume(q) <= bound:
            return False
    return True


def scalar_exact_admissible(s, tet, crosses) -> bool:
    """One candidate against one surface edge, face and vertex at a time:
    a volume above TOL_GEOM * scale**3, no edge of it that is not a surface
    edge crossing a surface face, no surface edge crossing a face of it, no
    surface vertex strictly inside it, and a centroid that winds more than
    1/2.  ``crosses`` is ``_memo_crossing(s)``."""
    v = s.vertices
    pts = v[list(tet)]
    bound = geom.TOL_GEOM * geom.coord_scale(v)**3
    if abs(tet_volume(pts)) <= bound:
        return False
    surf_edges = s.edges
    for i, j in _TET_EDGES:
        if geom.canonical_edge(tet[i], tet[j]) in surf_edges:
            continue
        if any(crosses(tet[i], tet[j], *f) for f in s.faces):
            return False
    for i, j in surf_edges:
        if any(crosses(i, j, *(tet[k] for k in f)) for f in _TET_FACES):
            return False
    if any(_strictly_inside(pts, x, bound) for x in v):
        return False
    return winding_number(s, pts.mean(axis=0)) > 0.5


def per_candidate_probe_points(pts):
    """(C, 4, 3) tetrahedra -> (C, 47, 3) probe points, computed for each
    candidate on its own: the centroid, the five samples along each edge,
    then each face's centroid and midpoints."""
    t = np.array([0.1, 0.25, 0.5, 0.75, 0.9])[:, None]
    tail, head = [i for i, _ in _TET_EDGES], [j for _, j in _TET_EDGES]
    edge = (1 - t) * pts[:, tail, None, :] + t * pts[:, head, None, :]
    tri = pts[:, _TET_FACES]
    cen = tri.mean(axis=2, keepdims=True)
    face = np.concatenate([cen, 0.5 * (cen + tri)], axis=2)
    return np.concatenate([pts.mean(axis=1, keepdims=True),
                           edge.reshape(-1, 30, 3), face.reshape(-1, 16, 3)],
                          axis=1)


def per_candidate_tet_admissible(s, tets, crosses):
    """The probe filter that the exact test replaced: the centroid strictly
    inside, none of the 46 edge and face probe points outside, and no edge
    that is not a surface edge crossing a surface face.  It classifies all
    47 probe points and tests every such edge of every candidate, and admits
    some tetrahedra that reach outside.  ``crosses`` is
    ``_memo_crossing(s)``."""
    idx = np.asarray(tets, dtype=int).reshape(-1, 4)
    v = s.vertices
    pts = v[idx]
    ok = np.abs(tet_volumes(pts)) > geom.TOL_GEOM * geom.coord_scale(v)**3
    live = np.flatnonzero(ok)
    probes = per_candidate_probe_points(pts[live])
    cls = classify_points(s, probes.reshape(-1, 3)).reshape(probes.shape[:2])
    ok[live] = (cls[:, 0] == 1) & ~np.any(cls == -1, axis=1)
    live = np.flatnonzero(ok)
    surface_edge = np.zeros((len(v), len(v)), dtype=bool)
    for i, j in s.edges:
        surface_edge[i, j] = surface_edge[j, i] = True
    tail = idx[live][:, [i for i, _ in _TET_EDGES]]
    head = idx[live][:, [j for _, j in _TET_EDGES]]
    owner, edge = np.nonzero(~surface_edge[tail, head])
    crossing = np.array([any(crosses(int(i), int(j), *f) for f in s.faces)
                         for i, j in zip(tail[owner, edge], head[owner, edge])],
                        dtype=bool)
    ok[live[owner[crossing]]] = False
    return ok


def lp_extreme_mask(points, tol=geom.TOL_GEOM):
    """One linear program per point: the point is not extreme iff it is
    (within tol * scale, in the max norm) a convex combination of the
    others.  HiGHS's own feasibility tolerance (about 1e-7) blurs the
    decision below that, so the comparison stays away from the band."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    scale = geom.coord_scale(pts)
    mask = np.zeros(n, dtype=bool)
    for i in range(n):
        others = np.delete(pts, i, axis=0)
        m = len(others)
        # Variables (lambda_1..lambda_m, t): minimize t subject to
        # |others^T lambda - p_i|_inf <= t, sum lambda = 1, lambda >= 0.
        c = np.zeros(m + 1)
        c[-1] = 1.0
        a_ub = np.zeros((6, m + 1))
        b_ub = np.zeros(6)
        for k in range(3):
            a_ub[k, :m] = others[:, k]
            a_ub[k, m] = -1.0
            b_ub[k] = pts[i, k]
            a_ub[3 + k, :m] = -others[:, k]
            a_ub[3 + k, m] = -1.0
            b_ub[3 + k] = -pts[i, k]
        a_eq = np.zeros((1, m + 1))
        a_eq[0, :m] = 1.0
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                      bounds=[(0, None)] * (m + 1), method="highs")
        mask[i] = not res.success or res.fun > tol * scale
    return mask


def region_growing_orient(faces):
    """Propagate a consistent winding over face adjacency, comparing the
    directed-edge sets of each face and its neighbours."""
    faces = [tuple(f) for f in faces]
    edge_to_faces = {}
    for fi, f in enumerate(faces):
        for k in range(3):
            e = geom.canonical_edge(f[k], f[(k + 1) % 3])
            edge_to_faces.setdefault(e, []).append(fi)

    oriented = [None] * len(faces)
    for seed in range(len(faces)):
        if oriented[seed] is not None:
            continue
        oriented[seed] = faces[seed]
        stack = [seed]
        while stack:
            fi = stack.pop()
            f = oriented[fi]
            directed = {(f[k], f[(k + 1) % 3]) for k in range(3)}
            for k in range(3):
                e = geom.canonical_edge(f[k], f[(k + 1) % 3])
                for gi in edge_to_faces[e]:
                    if gi == fi:
                        continue
                    g = faces[gi]
                    g_dir = {(g[k2], g[(k2 + 1) % 3]) for k2 in range(3)}
                    if oriented[gi] is None:
                        # Neighbor must traverse the shared edge oppositely.
                        oriented[gi] = (g[0], g[2], g[1]) if g_dir & directed else g
                        stack.append(gi)
                    else:
                        og = oriented[gi]
                        og_dir = {(og[k2], og[(k2 + 1) % 3]) for k2 in range(3)}
                        if directed & og_dir:
                            raise InvalidSurface(f"non-orientable adjacency at edge {e}")
    return oriented


def loop_rigidity_matrix(s) -> np.ndarray:
    """The rigidity matrix written edge by edge: two 3-blocks per row."""
    p = s.vertices
    r = np.zeros((len(s.edges), 3 * len(p)))
    for row, (i, j) in enumerate(s.edges):
        d = p[i] - p[j]
        r[row, 3 * i:3 * i + 3] = d
        r[row, 3 * j:3 * j + 3] = -d
    return r


def cross_trivial_motions(s) -> np.ndarray:
    """The three translations and the rotation fields e_axis x p, each
    rotation by ``np.cross`` against a unit axis."""
    p = s.vertices
    return np.array([np.tile(e, len(p)) for e in np.eye(3)]
                    + [np.cross(e, p).ravel() for e in np.eye(3)])


# -- inputs ---------------------------------------------------------------

def _sphere_points(rng, n):
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


def _hull_fan(p, apex) -> Triangulation:
    """A convex hull with the fan from ``apex`` over its hull triangles."""
    faces = [tuple(int(i) for i in f) for f in ConvexHull(p).simplices]
    return Triangulation(PolyhedralSurface(p, faces),
                         [(apex,) + f for f in faces if apex not in f])


def _hull_points():
    """The 12-, 24- and 48-point sets drawn in turn from default_rng(0)."""
    rng = np.random.default_rng(0)
    return [_sphere_points(rng, n) for n in (12, 24, 48)]


def _thinnest(t: Triangulation) -> tuple:
    return min(t.tetrahedra,
               key=lambda tet: abs(tet_volume(t.points[list(tet)])))


def _thickest_fan(p) -> Triangulation:
    """The hull of p, fanned from the apex with the thickest thinnest
    tetrahedron."""
    def thinnest(apex):
        t = _hull_fan(p, apex)
        return abs(tet_volume(p[list(_thinnest(t))]))

    return _hull_fan(p, max(range(len(p)), key=thinnest))


def _hull24_fan() -> Triangulation:
    """The 24-vertex hull, fanned from the apex with the thickest thinnest
    tetrahedron."""
    return _thickest_fan(_hull_points()[1])


def _seeded_hull_fans() -> list[Triangulation]:
    rng = np.random.default_rng(31)
    return [_thickest_fan(_sphere_points(rng, n)) for n in (12, 16, 20, 28)]


@pytest.fixture(scope="module")
def criterion10_suite():
    return list(_criterion10_triangulations())


def _criterion10_triangulations():
    yield gen.octahedron_axis_triangulation()
    yield gen.cube_flat_triangulation()
    yield gen.octahedron_with_centroid_triangulation()
    convex, pushed = gen.pushed_vertex_pair()
    yield gen.pushed_pair_triangulation(convex)
    yield gen.pushed_pair_triangulation(pushed)
    for depth in (0.5, 1.0, 1.4):
        _, p = gen.pushed_vertex_pair(depth)
        yield gen.pushed_pair_triangulation(p)
    surface = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(math.pi / 6, 2.5, 4.0), vertical_shift=0.7))
    outcome = find_decomposition(surface)
    if isinstance(outcome, Triangulation):
        yield outcome


def pairwise_tri_ok(t: Triangulation) -> bool:
    """The checks the boundary-chain certificate replaced: no degenerate
    tetrahedron, no two tetrahedra overlap, their volumes add up to the
    surface's, and every surface face bounds exactly one of them."""
    pts = t.points[np.array(t.tetrahedra, dtype=int).reshape(-1, 4)]
    vols = [abs(tet_volume(p)) for p in pts]
    if min(vols) <= geom.TOL_GEOM * geom.coord_scale(t.points)**3:
        return False
    if not all(scalar_tets_interior_disjoint(pts[i], pts[j])
               for i, j in combinations(range(len(pts)), 2)):
        return False
    vol = geom.volume(t.surface)
    if abs(sum(vols) - vol) > 1e-9 * max(1.0, abs(vol)):
        return False
    count = Counter(frozenset(f) for tet in t.tetrahedra
                    for f in combinations(tet, 3))
    return all(count[frozenset(f)] == 1 for f in t.surface.faces)


def _fan_suite():
    """The fan from every apex of seeded 8- to 24-vertex hulls, Schonhardt
    polyhedra, T-polyhedra and the fixed generators, then the generators'
    own triangulations with one tetrahedron duplicated or missing."""
    rng = np.random.default_rng(7)
    surfaces = [PolyhedralSurface(p, [tuple(int(i) for i in f)
                                      for f in ConvexHull(p).simplices])
                for p in (_sphere_points(rng, n) for n in (8, 12, 16, 20, 24))]
    surfaces += [gen.schonhardt(gen.SchonhardtParams(0.1 * k, 1.0, 2.0))
                 for k in range(11)]
    surfaces += [_tpoly(0.1 * k) for k in range(11)]
    surfaces += [gen.octahedron(), gen.cube_with_flat_vertex()]
    for depth in (None, 0.5, 1.0, 1.4):
        surfaces += gen.pushed_vertex_pair(depth)
    for s in surfaces:
        for apex in range(len(s.vertices)):
            yield fan_triangulation(s, apex)
    for t in _criterion10_triangulations():
        yield t
        yield Triangulation(t.surface, t.tetrahedra + t.tetrahedra[:1], t.points)
        yield Triangulation(t.surface, t.tetrahedra[1:], t.points)


def test_chain_certificate_matches_pairwise_oracle():
    verdicts = []
    for t in _fan_suite():
        ok = tri_validate(t).ok
        assert ok == pairwise_tri_ok(t), t.tetrahedra
        verdicts.append(ok)
    assert len(verdicts) > 300 and 0 < sum(verdicts) < len(verdicts)
    # The one tiling the pairwise checks accept and the chain rejects: two
    # pyramids cut along different diagonals do not meet face to face.
    t = Triangulation(gen.octahedron(), [(0, 1, 2, 4), (0, 1, 3, 4),
                                         (2, 3, 0, 5), (2, 3, 1, 5)])
    assert pairwise_tri_ok(t) and not tri_validate(t).ok


# -- decomposition candidate filter ---------------------------------------

def _tpoly(shift):
    surface = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(math.pi / 6, 2.5, 4.0), vertical_shift=shift))
    return surface


def _rotation(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.linalg.det(q))


def _moved_copies(s):
    """Rotated, translated and x1e3-scaled copies of a surface."""
    v = s.vertices
    yield PolyhedralSurface(v @ _rotation(5).T, s.faces)
    yield PolyhedralSurface(v + np.array([3.0, -7.5, 12.25]), s.faces)
    yield PolyhedralSurface(1e3 * v, s.faces)


def _filter_surfaces(family):
    if family == "schonhardt":
        for theta in [0.0, math.pi / 6] + list(np.linspace(0, math.pi / 3, 60,
                                                           endpoint=False)):
            yield gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
    elif family == "t-poly":
        for k in range(11):
            yield _tpoly(0.1 * k)
    elif family == "fixed":
        yield gen.octahedron()
        yield gen.cube_with_flat_vertex()
        for depth in (0.5, 1.0, 1.4):
            yield from gen.pushed_vertex_pair(depth)
    else:
        yield from _moved_copies(gen.cube_with_flat_vertex())
        yield from _moved_copies(gen.pushed_vertex_pair(1.4)[1])


def _reaches_outside(s, tet, rng, samples=4000) -> bool:
    """A certificate that the tetrahedron is not inside the surface: a
    surface vertex strictly inside it, or one of ``samples`` uniform
    samples in it whose winding number is below 1/2."""
    pts = s.vertices[list(tet)]
    bound = geom.TOL_GEOM * geom.coord_scale(s.vertices)**3
    if any(_strictly_inside(pts, x, bound) for x in s.vertices):
        return True
    return bool(np.any(winding_numbers(s, rng.dirichlet(np.ones(4), samples) @ pts)
                       < 0.5))


def _check_exact_filter(s, stack, rng):
    """``tet_admissible`` on the stack equals the scalar exact filter and
    admits nothing the probe filter rejects; each candidate only the probe
    filter admits gets a certificate.  Returns the exact decisions and the
    number of probe-only candidates."""
    exact = tet_admissible(s, stack)
    crosses = _memo_crossing(s)
    assert np.array_equal(exact, [scalar_exact_admissible(s, tet, crosses)
                                  for tet in stack])
    probe = per_candidate_tet_admissible(s, stack, crosses)
    assert not np.any(exact & ~probe)
    for tet in stack[probe & ~exact]:
        assert _reaches_outside(s, tet, rng), tet
    return exact, int(np.sum(probe & ~exact))


# Candidates that only the probe filter admits: the two of the pushed pair's
# flexible member at depth 1.4, (0, 2, 3, 4) and (0, 2, 4, 5), in "fixed",
# and their three moved copies in "moved".
_PROBE_ONLY = {"schonhardt": 0, "t-poly": 0, "fixed": 2, "moved": 6}


@pytest.mark.parametrize("family", ["schonhardt", "t-poly", "fixed", "moved"])
def test_stacked_filter_matches_scalar_filter(family):
    decisions, probe_only = [], 0
    rng = np.random.default_rng(29)
    for s in _filter_surfaces(family):
        subsets = np.array(list(combinations(range(len(s.vertices)), 4)))
        exact, extra = _check_exact_filter(s, subsets, rng)
        decisions += list(exact)
        probe_only += extra
    assert probe_only == _PROBE_ONLY[family]
    assert 0 < sum(decisions) < len(decisions)


def _unsorted_stacks(s, seed):
    """Every 4-subset with its vertices in a seeded random order, those rows
    shuffled, and the shuffled rows with some of them repeated."""
    rng = np.random.default_rng(seed)
    rows = rng.permuted(np.array(list(combinations(range(len(s.vertices)), 4))),
                        axis=1)
    yield rows
    rows = rng.permutation(rows)
    yield rows
    yield np.concatenate([rows, rows[rng.integers(len(rows), size=len(rows) // 2)]])


_UNSORTED_FILTER_SURFACES = {
    "schonhardt": lambda: gen.schonhardt(gen.SchonhardtParams(math.pi / 6, 1.0, 2.0)),
    "pushed-pair": lambda: gen.pushed_vertex_pair(1.4)[1],
    "cube-with-flat-vertex": gen.cube_with_flat_vertex,
    "t-poly": lambda: _tpoly(0.7),
}


@pytest.mark.parametrize("name", list(_UNSORTED_FILTER_SURFACES))
def test_stacked_filter_matches_scalar_filter_on_unsorted_stacks(name):
    s = _UNSORTED_FILTER_SURFACES[name]()
    rng = np.random.default_rng(31)
    for k, stack in enumerate(_unsorted_stacks(s, 17)):
        _, probe_only = _check_exact_filter(s, stack, rng)
        assert (probe_only > 0) == (name == "pushed-pair"), (name, k)


@pytest.mark.parametrize("n", range(6, 17))
def test_stacked_filter_matches_scalar_filter_on_star_surfaces(n, star_surface):
    # Seeds 0-7 at n vertices.  The scalar filter costs about 0.5 ms a
    # candidate, so it decides a seeded sample of at most 12 candidates the
    # stacked filter admits and 12 it rejects on each surface.
    rng = np.random.default_rng(n)
    sampled = Counter()
    for seed in range(8):
        s = star_surface(seed, n)
        subsets = np.array(list(combinations(range(n), 4)))
        exact = tet_admissible(s, subsets)
        crosses = _memo_crossing(s)
        for kept in (True, False):
            for k in rng.permutation(np.flatnonzero(exact == kept))[:12]:
                tet = tuple(int(i) for i in subsets[k])
                assert scalar_exact_admissible(s, tet, crosses) == kept, (seed, tet)
                sampled[kept] += 1
    assert min(sampled.values()) >= 8


def _noisy_surfaces(star_surface):
    """Seeded octahedra and star surfaces with Gaussian noise on every
    vertex, many of them self-intersecting."""
    rng = np.random.default_rng(41)
    octa = gen.octahedron()
    for sigma in (0.3, 0.6, 0.9) * 16:
        yield PolyhedralSurface(octa.vertices + rng.normal(0, sigma, (6, 3)),
                                octa.faces)
    for seed in range(36):
        base = star_surface(100 + seed, (8, 12, 16)[seed % 3])
        sigma = (0.2, 0.35, 0.5)[seed % 3]
        yield PolyhedralSurface(
            base.vertices + rng.normal(0, sigma, base.vertices.shape), base.faces)


def _similar_copies(s, rng):
    """The surface, then copies rotated, shifted by up to 100, scaled by
    1e-3, 1 and 1e3 and relabelled; each with its vertex permutation."""
    n = len(s.vertices)
    yield s, np.arange(n)
    for scale in (1e-3, 1.0, 1e3):
        perm = rng.permutation(n)                 # new label -> old label
        label = np.argsort(perm)                  # old label -> new label
        moved = scale * (s.vertices @ _rotation(int(rng.integers(1000))).T
                         + rng.uniform(-100, 100, 3))
        yield PolyhedralSurface(moved[perm], [tuple(int(label[i]) for i in f)
                                              for f in s.faces]), perm


def _scalar_self_intersections(s):
    """The (edge, face) pairs that share no vertex and cross by the scalar
    Moeller-Trumbore test, in the report's order: edges as ``s.edges``,
    faces as ``s.faces``."""
    crosses = _memo_crossing(s)
    return [(e, f) for e in s.edges for f in s.faces
            if not set(e) & set(f) and crosses(*e, *f)]


def test_self_intersection_pairs_match_scalar_crossings(star_surface):
    rng = np.random.default_rng(43)
    crossing_surfaces = 0
    for s in _noisy_surfaces(star_surface):
        seen = []
        for copy, perm in _similar_copies(s, rng):
            report = surface_validate(copy)
            # The embedding check runs after every other check but this one.
            assert {x.tag for x in report.violations} <= {"self-intersection",
                                                          "degenerate-volume"}
            named = {f"edge {e} crosses face {f}": (e, f)
                     for e in copy.edges for f in copy.faces}
            found = [named[x.detail] for x in report.violations
                     if x.tag == "self-intersection"]
            assert not any(set(e) & set(f) for e, f in found)
            pairs = _scalar_self_intersections(copy)
            assert found == pairs
            seen.append({(frozenset(perm[list(e)]), frozenset(perm[list(f)]))
                         for e, f in pairs})
        assert all(moved == seen[0] for moved in seen)
        crossing_surfaces += bool(seen[0])
    assert crossing_surfaces >= 40


# -- local finite differences ---------------------------------------------

@pytest.mark.parametrize("scheme", [FDScheme(SchemeKind.CENTRAL, 1e-6),
                                    PAPER_SCHEME],
                         ids=["central", "paper"])
def test_local_fd_equals_global_fd(scheme, criterion10_suite):
    for t in criterion10_suite + [_hull24_fan()]:
        local = assemble_mt(t, scheme).matrix
        assert np.array_equal(local, global_fd_mt(t, scheme)), t.tetrahedra


def test_local_fd_out_of_domain_like_global_fd():
    # A valid fan of 88 tetrahedra and 43 interior edges whose thinnest
    # tetrahedron (volume 4.6e-6) the central step eps = 1e-6 pushes out of
    # the domain.
    t = _hull_fan(_hull_points()[2], apex=0)
    assert (len(t.tetrahedra), len(t.interior_edges)) == (88, 43)
    central = FDScheme(SchemeKind.CENTRAL, 1e-6)
    with pytest.raises(OutOfDomain):
        global_fd_mt(t, central)
    with pytest.raises(OutOfDomain):
        assemble_mt(t, central)
    # The exact scheme takes no step, so the fan stays in the domain.
    sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
    assert (sp.n_negative, sp.n_zero, sp.n_positive) == (0, 0, 43)
    assert analyze_surface(t.surface, t)["verdict"] == "Rigid"


# -- total angles from the kernel -----------------------------------------

def test_kernel_total_angles_match_scalar_angle_sum(criterion10_suite):
    for t in criterion10_suite + _seeded_hull_fans():
        lengths = he.euclidean_lengths(t)
        for round_sig in (None, 6):
            got = he.total_angles(t, lengths, round_sig=round_sig)
            ref = scalar_total_angles(t, lengths, round_sig=round_sig)
            assert np.max(np.abs(got.omega - ref.omega)) <= 1e-14
            assert np.max(np.abs(got.boundary_alpha
                                 - ref.boundary_alpha)) <= 1e-14


def _length_cases(t, rng):
    """The Euclidean lengths, interior ones stretched 50x or scattered by
    0.1 % to 30 %, and one interior or boundary length set to a negative,
    zero, NaN or infinite value."""
    base = he.euclidean_lengths(t)
    n = len(base.interior)
    yield base
    yield base.with_interior(50.0 * base.interior)
    for sigma in (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3):
        yield base.with_interior(base.interior
                                 * (1.0 + sigma * rng.standard_normal(n)))
    for bad in (-1.0, 0.0, np.nan, np.inf):
        interior, boundary = base.interior.copy(), base.boundary.copy()
        interior[0] = bad
        yield base.with_interior(interior)
        boundary[0] = bad
        yield he.EdgeLengthAssignment(base.interior, boundary)


def test_in_domain_matches_scalar_validity(criterion10_suite):
    rng = np.random.default_rng(17)
    verdicts = []
    for t in criterion10_suite + _seeded_hull_fans():
        for lengths in _length_cases(t, rng):
            ok = in_domain(t, lengths)
            assert ok == scalar_in_domain(t, lengths), t.tetrahedra
            verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("scheme", [PAPER_SCHEME,
                                    FDScheme(SchemeKind.FORWARD, 1e-6, 6)],
                         ids=["paper", "forward"])
def test_rounded_fd_equals_scalar_global_fd(scheme, criterion10_suite):
    for t in criterion10_suite + [_hull24_fan()] + _seeded_hull_fans():
        ref = global_fd_mt(t, scheme, total_angles=scalar_total_angles)
        assert np.array_equal(assemble_mt(t, scheme).matrix, ref), t.tetrahedra


def test_angles_and_schemes_make_no_scalar_angle_call(monkeypatch,
                                                      criterion10_suite):
    calls = []
    for name, module in list(sys.modules.items()):
        if name == "rigidity_lab" or name.startswith("rigidity_lab."):
            for attr in ("dihedral_angle", "is_valid_tetra"):
                if hasattr(module, attr):
                    monkeypatch.setattr(
                        module, attr,
                        lambda *args, attr=attr, **kw: calls.append(attr))
    for t in criterion10_suite[:5] + [_hull24_fan()]:
        lengths = he.euclidean_lengths(t)
        assert in_domain(t, lengths)
        he.total_angles(t, lengths)
        he.total_angles(t, lengths, round_sig=6)
        for scheme in (DEFAULT_SCHEME, PAPER_SCHEME,
                       FDScheme(SchemeKind.CENTRAL, 1e-6)):
            assemble_mt(t, scheme)
    assert calls == []


# -- exact M_T ------------------------------------------------------------

def test_kernel_jacobian_matches_high_precision_differences():
    rng = np.random.default_rng(21)
    cases = []
    for k in range(12):
        pts = rng.normal(size=(4, 3))
        if k % 3 == 0:  # thin: the fourth vertex near the opposite face
            pts[3] = pts[:3].mean(axis=0) + 1e-2 * rng.normal(size=3)
        cases.append([np.linalg.norm(pts[i - 1] - pts[j - 1])
                      for i, j in EDGE_ORDER])
    # The thinnest tetrahedron (volume 4.6e-6) of the 48-vertex fan.
    t = _hull_fan(_hull_points()[2], apex=0)
    tet = _thinnest(t)
    cases.append([np.linalg.norm(t.points[tet[i - 1]] - t.points[tet[j - 1]])
                  for i, j in EDGE_ORDER])
    _, jac, valid = dihedral_kernel(np.array(cases))
    assert valid.all()
    for block, ls in zip(jac, cases):
        ref = mp_dihedral_jacobian(ls)
        assert np.max(np.abs(block - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_exact_mt_matches_central_fd(criterion10_suite):
    central = FDScheme(SchemeKind.CENTRAL, 1e-6)
    for t in criterion10_suite + _seeded_hull_fans():
        exact = assemble_mt(t, DEFAULT_SCHEME)
        fd = assemble_mt(t, central)
        scale = max(1.0, np.max(np.abs(exact.matrix)))
        assert np.max(np.abs(exact.matrix - fd.matrix)) <= 1e-5 * scale
        assert exact.symmetry_residual <= 1e-13
        se, sf = spectrum(exact), spectrum(fd)
        assert ((se.n_negative, se.n_zero, se.n_positive)
                == (sf.n_negative, sf.n_zero, sf.n_positive)), t.tetrahedra


# -- hull extremality -----------------------------------------------------

def _extremality_points():
    """Vertex sets of the generators, and seeded 12- to 48-point sphere
    sets; the three smallest also with points 1e-3 inside and outside the
    centroid of each hull facet."""
    for family in ("schonhardt", "t-poly", "fixed"):
        for s in _filter_surfaces(family):
            yield s.vertices
    for p in gen.pushed_vertex_pair():
        yield p.vertices
    rng = np.random.default_rng(3)
    for n in (12, 16, 24, 32, 48):
        p = _sphere_points(rng, n)
        yield p
        if n > 24:
            continue
        tri = p[ConvexHull(p).simplices]
        cen = tri.mean(axis=1)
        out = cen / np.linalg.norm(cen, axis=1)[:, None]
        yield np.vstack([p, cen + 1e-3 * out, cen - 1e-3 * out])


def test_hull_mask_matches_lp_oracle():
    masks = []
    for pts in _extremality_points():
        mask, _ = geom.hull_masks(pts)
        assert list(mask) == list(lp_extreme_mask(pts)), pts
        masks.append(mask)
    assert all(m.all() for m in masks[:3]) and not all(m.all() for m in masks)


def test_analysis_solves_extremality_once(monkeypatch):
    sizes = []
    real = geom.ConvexHull

    def counting(points, *args, **kwargs):
        sizes.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(geom, "ConvexHull", counting)
    t = gen.cube_flat_triangulation()
    n = len(t.surface.vertices)
    report = analyze_surface(t.surface, t)
    assert report["census"] == {"m": 0, "k": 1}
    assert report["weakly_convex"]["overall"] is False
    assert sizes.count(n) == 1 and set(sizes) <= {n, n - 1}


# -- face orientation -----------------------------------------------------

def _face_lists():
    """Hull face lists with random per-face flips, open and duplicated-face
    versions of them, and the octahedron's and a T-polyhedron's faces."""
    rng = np.random.default_rng(13)
    for n in (6, 12, 24, 24, 40) * 20:
        faces = [tuple(int(i) for i in f)
                 for f in ConvexHull(_sphere_points(rng, n)).simplices]
        flipped = [(a, c, b) if rng.integers(2) else (a, b, c)
                   for a, b, c in faces]
        yield flipped
        yield flipped[1:]                                 # open
        k = int(rng.integers(len(faces)))
        yield flipped + [flipped[k]]                      # duplicated
        yield flipped + [flipped[k][::-1]]                # duplicated, flipped
        a, _, c = faces[k]
        yield flipped[:k] + [(a, a, c)] + flipped[k + 1:]     # repeated vertex
    for s in (gen.octahedron(), _tpoly(0.3)):
        yield list(s.faces)
        yield [f[::-1] for f in s.faces]


def test_orientation_matches_region_growing():
    lists = list(_face_lists())
    raised = 0
    for faces in lists:
        try:
            expected = region_growing_orient(faces)
        except InvalidSurface:
            raised += 1
            with pytest.raises(InvalidSurface):
                geom._orient_consistently(faces)
            continue
        assert geom._orient_consistently(faces) == expected, faces
    assert 0 < raised < len(lists)


# -- rigidity matrix -------------------------------------------------------

def test_rigidity_matrix_and_trivial_motions_match_references(star_surface):
    surfaces = [gen.octahedron(), gen.cube_with_flat_vertex(),
                gen.schonhardt(gen.SchonhardtParams(math.pi / 6, 1.0, 2.0)),
                *gen.pushed_vertex_pair(1.4), _tpoly(0.3)]
    surfaces += [star_surface(seed, 6 + 2 * seed) for seed in range(6)]
    for s in surfaces:
        r = deformation.rigidity_matrix(s)
        assert r.edges == sorted({geom.canonical_edge(f[k], f[(k + 1) % 3])
                                  for f in s.faces for k in range(3)})
        assert np.array_equal(r.matrix, loop_rigidity_matrix(s))
        assert np.array_equal(deformation.trivial_motions(s),
                              cross_trivial_motions(s))
