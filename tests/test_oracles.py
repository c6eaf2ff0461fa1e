"""The fast paths against the straightforward algorithms they replace.

The reference implementations below are kept here, in test code only:
a per-pair separating-axis test, a finite-difference M_T that recomputes
every total angle for every perturbation, and the per-candidate,
per-point decomposition filter.  The fast paths must give the same
verdicts and bitwise the same matrices.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from rigidity_lab import generators as gen
from rigidity_lab import hilbert_einstein as he
from rigidity_lab import geom
from rigidity_lab.cli import analyze_surface
from rigidity_lab.errors import OutOfDomain
from rigidity_lab.geom import PolyhedralSurface
from rigidity_lab.stiffness import (
    DEFAULT_SCHEME,
    PAPER_SCHEME,
    SchemeKind,
    assemble_mt,
)
from rigidity_lab.triangulation import (
    Triangulation,
    _tet_probe_points,
    classify_points,
    find_decomposition,
    tet_admissible,
    tet_volume,
    tets_interior_disjoint,
    tri_validate,
)

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


# -- reference implementations --------------------------------------------

def scalar_tets_interior_disjoint(pa, pb, tol=geom.TOL_GEOM) -> bool:
    """One pair at a time, one axis at a time."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    scale = geom.coord_scale(np.vstack([pa, pb]))
    axes = []
    for pts in (pa, pb):
        for omit in range(4):
            tri = np.delete(pts, omit, axis=0)
            axes.append(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    ea = [pa[j] - pa[i] for i, j in _TET_EDGES]
    eb = [pb[j] - pb[i] for i, j in _TET_EDGES]
    for u in ea:
        for w in eb:
            axes.append(np.cross(u, w))
    for ax in axes:
        norm = np.linalg.norm(ax)
        if norm <= tol * scale:
            continue
        ax = ax / norm
        qa = pa @ ax
        qb = pb @ ax
        if qa.max() <= qb.min() + tol * scale or qb.max() <= qa.min() + tol * scale:
            return True
    return False


def global_fd_mt(t, scheme) -> np.ndarray:
    """Every column from total angles recomputed over all tetrahedra."""
    base = he.euclidean_lengths(t)
    n = len(base.interior)
    m = np.zeros((n, n))
    eps = scheme.epsilon
    for j in range(n):
        step = np.zeros(n)
        step[j] = eps
        plus = he.total_angles(t, base.with_interior(base.interior + step),
                               round_sig=scheme.round_sig).omega
        if scheme.kind is SchemeKind.FORWARD:
            m[:, j] = (plus - he.TWO_PI) / eps
        else:
            minus = he.total_angles(t, base.with_interior(base.interior - step),
                                    round_sig=scheme.round_sig).omega
            m[:, j] = (plus - minus) / (2.0 * eps)
    return m


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


def surface_distance(s, p) -> float:
    p = np.asarray(p, dtype=float)
    v = s.vertices
    return min(_point_triangle_distance(p, v[a], v[b], v[c]) for a, b, c in s.faces)


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


def scalar_classify_point(s, p, tol=geom.TOL_GEOM) -> int:
    scale = geom.coord_scale(s.vertices)
    if surface_distance(s, p) <= tol * scale:
        return 0
    return 1 if winding_number(s, p) > 0.5 else -1


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


def scalar_tet_admissible(s, tet, tol=geom.TOL_GEOM,
                          classify=scalar_classify_point) -> bool:
    """One candidate, one probe point and one face at a time."""
    pts = s.vertices[list(tet)]
    scale = geom.coord_scale(s.vertices)
    if abs(tet_volume(pts)) <= tol * scale**3:
        return False
    if classify(s, pts.mean(axis=0), tol) != 1:
        return False
    for q in _tet_sample_points(pts):
        if classify(s, q, tol) == -1:
            return False
    surf_edges = set(s.edges)
    v = s.vertices
    for i, j in _TET_EDGES:
        if geom.canonical_edge(tet[i], tet[j]) in surf_edges:
            continue
        for a, b, c in s.faces:
            if _segment_crosses_triangle(pts[i], pts[j], v[a], v[b], v[c], 1e-9):
                return False
    return True


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


def _hull24_fan() -> Triangulation:
    """The 24-vertex hull, fanned from the apex with the thickest thinnest
    tetrahedron."""
    p = _hull_points()[1]

    def thinnest(apex):
        return min(abs(tet_volume(p[list(tet)]))
                   for tet in _hull_fan(p, apex).tetrahedra)

    return _hull_fan(p, max(range(len(p)), key=thinnest))


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
    surface, _ = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(math.pi / 6, 1.0, 2.0),
        gen.SchonhardtParams(math.pi / 6, 2.5, 4.0), vertical_shift=0.7))
    outcome = find_decomposition(surface)
    if isinstance(outcome, Triangulation):
        yield outcome


def _tet_pairs():
    """Seeded random pairs plus pairs that touch, overlap or nearly
    degenerate."""
    rng = np.random.default_rng(11)
    pairs = [(rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3)))
             for _ in range(300)]
    for _ in range(40):
        a = rng.uniform(-2, 2, (4, 3))
        normal = np.cross(a[1] - a[0], a[2] - a[0])
        side = np.sign(np.dot(normal, a[3] - a[0]))
        beyond = a[:3].mean(axis=0) - side * rng.uniform(0.1, 1) * normal
        within = a[:3].mean(axis=0) + side * rng.uniform(0.1, 1) * normal
        pairs.append((a, np.vstack([a[:3], beyond])))   # shared face, apart
        pairs.append((a, np.vstack([a[:3], within])))   # shared face, overlap
        pairs.append((a, np.vstack([a[:2], a[:2].mean(axis=0)
                                    + rng.normal(size=(2, 3))])))  # edge
        pairs.append((a, np.vstack([a[:1], a[0] + rng.normal(size=(3, 3))])))
        pairs.append((a, a + rng.normal(scale=1e-3, size=(4, 3))))  # overlap
        flat = a.copy()
        flat[3] = a[:3].mean(axis=0) + 1e-10 * normal        # near-degenerate
        pairs.append((flat, rng.uniform(-2, 2, (4, 3))))
        pairs.append((a, 10.0 * a))                           # scaled copy
    return pairs


# -- separating-axis test -------------------------------------------------

def test_batched_sat_matches_scalar_per_pair():
    pairs = _tet_pairs()
    expected = [scalar_tets_interior_disjoint(a, b) for a, b in pairs]
    assert 0 < sum(expected) < len(expected)
    assert [tets_interior_disjoint(a, b) for a, b in pairs] == expected
    for a, b in pairs:
        assert isinstance(tets_interior_disjoint(a, b), bool)
    stack_a = np.array([a for a, _ in pairs])
    stack_b = np.array([b for _, b in pairs])
    assert list(tets_interior_disjoint(stack_a, stack_b)) == expected
    # One tetrahedron against a stack, as tri_validate calls it.
    one = pairs[0][0]
    assert list(tets_interior_disjoint(one, stack_b)) == [
        scalar_tets_interior_disjoint(one, b) for b in stack_b]
    assert tets_interior_disjoint(one, stack_b[:0]).shape == (0,)


def test_overlap_report_matches_pairwise_oracle():
    s = gen.octahedron()
    tets = [(0, 2, 4, 5), (2, 1, 4, 5), (1, 3, 4, 5), (3, 0, 4, 5),
            (0, 2, 4, 5), (0, 2, 3, 4), (1, 2, 3, 5)]
    t = Triangulation(s, tets)
    pts = t.points
    expected = [(i, j) for (i, ta), (j, tb) in combinations(enumerate(tets), 2)
                if not scalar_tets_interior_disjoint(pts[list(ta)], pts[list(tb)])]
    got = [v.where for v in tri_validate(t).violations if v.tag == "overlap"]
    assert expected and got == expected


# -- decomposition candidate filter ---------------------------------------

def _memo_classify():
    """scalar_classify_point, computed once per distinct point: candidates
    that share an edge or a face share those probe points bit for bit."""
    memo = {}

    def classify(s, p, tol=geom.TOL_GEOM):
        key = (np.asarray(p, dtype=float).tobytes(), tol)
        if key not in memo:
            memo[key] = scalar_classify_point(s, p, tol)
        return memo[key]
    return classify


def _tpoly(shift):
    surface, _ = gen.t_polyhedron(gen.TPolyParams(
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


def _probes(s):
    """Points pushed off each face along its unit normal, to 0.5x and 2x
    the boundary tolerance: at the face centroid, near a corner and at an
    edge midpoint."""
    v = s.vertices
    step = geom.TOL_GEOM * geom.coord_scale(v)
    weights = np.array([[1 / 3, 1 / 3, 1 / 3], [0.8, 0.1, 0.1], [0.5, 0.5, 0]])
    out = []
    for face in s.faces:
        tri = v[list(face)]
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        n /= np.linalg.norm(n)
        for k in (-2.0, -0.5, 0.5, 2.0):
            out.append(weights @ tri + k * step * n)
    return np.vstack(out)


@pytest.mark.parametrize("family", ["schonhardt", "t-poly", "fixed", "moved"])
def test_stacked_filter_matches_scalar_filter(family):
    decisions = []
    for s in _filter_surfaces(family):
        classify = _memo_classify()
        subsets = np.array(list(combinations(range(len(s.vertices)), 4)))
        expected = [scalar_tet_admissible(s, tet, classify=classify)
                    for tet in subsets]
        assert list(tet_admissible(s, subsets)) == expected
        decisions += expected
        # The stacked probe points are the scalar ones, in the same order,
        # and every one of them, like the points within a few tolerances of
        # a face, gets the scalar class.
        pts = s.vertices[subsets]
        probes = _tet_probe_points(pts)
        assert np.array_equal(probes, [[p.mean(axis=0)] + _tet_sample_points(p)
                                       for p in pts])
        probes = np.vstack([probes.reshape(-1, 3), _probes(s)])
        assert list(classify_points(s, probes)) == [classify(s, q)
                                                    for q in probes]
    assert 0 < sum(decisions) < len(decisions)


# -- local finite differences ---------------------------------------------

@pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, PAPER_SCHEME],
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
    with pytest.raises(OutOfDomain):
        global_fd_mt(t, DEFAULT_SCHEME)
    with pytest.raises(OutOfDomain):
        assemble_mt(t, DEFAULT_SCHEME)


# -- extremality LPs ------------------------------------------------------

def test_analysis_solves_extremality_once(monkeypatch):
    calls = []
    real = geom.extreme_vertex_mask

    def counting(points, tol=geom.TOL_HULL):
        calls.append(len(points))
        return real(points, tol=tol)

    monkeypatch.setattr(geom, "extreme_vertex_mask", counting)
    t = gen.cube_flat_triangulation()
    report = analyze_surface(t.surface, t)
    assert report["census"] == {"m": 0, "k": 1}
    assert report["weakly_convex"]["overall"] is False
    assert calls == [len(t.surface.vertices)]
