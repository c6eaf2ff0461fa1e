"""The fast paths against the straightforward algorithms they replace.

The reference implementations below are kept here, in test code only:
a per-pair separating-axis test, and a finite-difference M_T that
recomputes every total angle for every perturbation.  The fast paths must
give the same verdicts and bitwise the same matrices.
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
    find_decomposition,
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
