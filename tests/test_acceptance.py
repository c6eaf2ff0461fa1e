"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The eleven criteria pin down every concrete number the package must
reproduce, plus the property suites tying the two rigidity oracles together.
"""

import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rigidity_lab import generators as gen
from rigidity_lab.cayley_menger import (
    TetraLengths,
    dihedral_angle_from_points,
    is_valid_tetra,
)
from rigidity_lab.cli import analyze_surface, main as cli_main
from rigidity_lab.deformation import (
    deformation_space,
    rigidity_matrix,
    trivial_motions,
    twist_mode,
)
from rigidity_lab.geom import PolyhedralSurface, is_weakly_convex
from rigidity_lab.hilbert_einstein import (
    curvatures,
    euclidean_lengths,
    he_gradient_check,
    schlafli_residual,
    total_angles,
)
from rigidity_lab.stiffness import (
    DEFAULT_SCHEME,
    PAPER_SCHEME,
    FDScheme,
    SchemeKind,
    assemble_mt,
    rigidity_verdict,
    spectrum,
    theorem1_check,
)
from rigidity_lab.triangulation import (
    NonDecomposable,
    Triangulation,
    find_decomposition,
    vertex_census,
)

PI = math.pi


# Filled by the criterion() context manager; rendered as one PASS/FAIL line
# per criterion in the terminal summary (see conftest.py).
CRITERION_RESULTS: dict[int, bool] = {}


def _report(n: int, ok: bool) -> None:
    CRITERION_RESULTS[n] = ok
    line = "CRITERION {:2d}: {}".format(n, "PASS" if ok else "FAIL")
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        _report(n, False)
        raise
    _report(n, True)


def _signed_reduced_det(theta: float) -> float:
    """Signed determinant of the rigidity matrix restricted to the
    orthogonal complement of the trivial motions; changes sign exactly
    where a nontrivial deformation appears."""
    s = gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
    r = rigidity_matrix(s).matrix
    _, _, vt = np.linalg.svd(trivial_motions(s))
    comp = vt[6:].T
    a = r @ comp
    sign, logdet = np.linalg.slogdet(a)
    return sign * math.exp(logdet / a.shape[0])


def test_criterion_1_appendix_replication():
    with criterion(1):
        t0 = time.perf_counter()
        t = gen.octahedron_axis_triangulation()
        mt = assemble_mt(t, PAPER_SCHEME)
        assert mt.matrix.shape == (1, 1)
        assert abs(mt.matrix[0, 0] - 1469.28) <= 0.01 * 1469.28
        sp = spectrum(mt)
        verdict = rigidity_verdict(t, sp, vertex_census(t))
        assert verdict.kind.value == "Rigid"
        for tet in t.tetrahedra:
            pts = [t.points[i] for i in tet]
            edge = (tet.index(4) + 1, tet.index(5) + 1)
            ang = dihedral_angle_from_points(*pts, edge=edge)
            assert abs(ang - PI / 2.0) <= 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_schonhardt_flexibility():
    with criterion(2):
        t0 = time.perf_counter()
        s = gen.schonhardt(gen.SchonhardtParams(PI / 6.0, 1.0, 2.0))
        basis, verdict = deformation_space(s)
        assert basis.nullity == 7
        assert basis.nullity - basis.trivial_dim == 1
        assert verdict.kind.value == "Flexible"
        for theta in (PI / 12.0, PI / 4.0):
            s = gen.schonhardt(gen.SchonhardtParams(theta, 1.0, 2.0))
            basis, verdict = deformation_space(s)
            assert basis.nullity == 6
            assert verdict.kind.value == "Rigid"

        # Sweep for a sign change of the reduced determinant, then bisect.
        grid = np.linspace(0.45, 0.60, 16)
        vals = [_signed_reduced_det(th) for th in grid]
        bracket = None
        for lo, hi, flo, fhi in zip(grid, grid[1:], vals, vals[1:]):
            if flo * fhi < 0:
                bracket = (lo, hi, flo)
                break
        assert bracket is not None
        lo, hi, flo = bracket
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            fmid = _signed_reduced_det(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        root = 0.5 * (lo + hi)
        assert abs(root - PI / 6.0) <= 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_non_decomposability_certificate():
    with criterion(3):
        t0 = time.perf_counter()
        s = gen.schonhardt(gen.SchonhardtParams(PI / 6.0, 1.0, 2.0))
        outcome = find_decomposition(s)
        assert isinstance(outcome, NonDecomposable)
        assert outcome.admissible_candidates == 0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_mode_geometry():
    with criterion(4):
        s = gen.schonhardt(gen.SchonhardtParams(PI / 6.0, 1.0, 2.0))
        basis, _ = deformation_space(s)
        mode = twist_mode(s, basis)
        assert mode.bottom_residual <= 1e-9
        assert mode.plane_residual <= 1e-9
        assert mode.rotation_residual <= 1e-9


def test_criterion_5_diagonal_law():
    with criterion(5):
        for theta in np.linspace(0.0, PI / 3.0 - 1e-9, 100):
            law = 1.0 + (2.0 / math.sqrt(3.0)) * math.sin(PI / 3.0 + theta)
            assert abs(gen.long_diagonal_sq(float(theta)) - law) <= 1e-12
        h = 1e-5
        deriv = (gen.long_diagonal_sq(PI / 6.0 + h)
                 - gen.long_diagonal_sq(PI / 6.0 - h)) / (2.0 * h)
        assert abs(deriv) <= 1e-7


def _coordinate_height_oracle(r: float, omega: float, h: float):
    """Height of the companion realization, from coordinates only: both
    diagonal classes of the realization at twist pi/6 - omega/2 must be
    preserved at twist pi/6 + omega/2."""
    a = gen.schonhardt_vertices(gen.SchonhardtParams(PI / 6 - omega / 2, r, h))
    b = gen.schonhardt_vertices(gen.SchonhardtParams(PI / 6 + omega / 2, r, h))
    heights = []
    for i, j in ((0, 4), (0, 5)):  # one diagonal from each class
        d2 = float(np.sum((a[i] - a[j]) ** 2))
        xy2 = float(np.sum((b[i, :2] - b[j, :2]) ** 2))
        heights.append(math.sqrt(d2 - xy2))
    return heights


def test_criterion_6_wunderlich_formula():
    with criterion(6):
        rng = np.random.default_rng(20260827)
        for _ in range(50):
            r = rng.uniform(0.5, 2.0)
            omega = rng.uniform(0.0, PI / 3.0)
            h = rng.uniform(2.0 * r, 3.0 * r)
            hw = gen.wunderlich_height(r, omega, h)
            for hc in _coordinate_height_oracle(r, omega, h):
                assert abs(hc - hw) <= 1e-9
            m = gen.overhang(r, omega)
            assert abs(m - r * (math.cos(omega / 2.0)
                                - math.cos(PI / 6.0))) <= 1e-12
            assert -1e-12 <= m <= 0.134 * r


def test_criterion_7_theorem1_counts():
    with criterion(7):
        scheme = FDScheme(SchemeKind.CENTRAL, 1e-6)
        t = gen.octahedron_axis_triangulation()
        sp = spectrum(assemble_mt(t, scheme))
        census = vertex_census(t)
        assert (census.m, census.k) == (0, 0)
        assert (sp.n_zero, sp.n_negative) == (0, 0)
        assert theorem1_check(t, sp, census)

        t = gen.cube_flat_triangulation()
        sp = spectrum(assemble_mt(t, scheme))
        census = vertex_census(t)
        assert (census.m, census.k) == (0, 1)
        assert sp.n_zero == 1
        assert theorem1_check(t, sp, census)

        t = gen.octahedron_with_centroid_triangulation()
        sp = spectrum(assemble_mt(t, scheme))
        census = vertex_census(t)
        assert (census.m, census.k) == (1, 0)
        assert sp.n_zero == 3
        assert sp.n_negative == 1
        assert theorem1_check(t, sp, census)


def test_criterion_8_pushed_pair():
    with criterion(8):
        convex, pushed = gen.pushed_vertex_pair()

        t = gen.pushed_pair_triangulation(convex)
        sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
        assert sp.n_negative == 0 and sp.n_zero == 0
        assert sp.n_positive == len(sp.eigenvalues)
        assert rigidity_verdict(t, sp, vertex_census(t)).kind.value == "Rigid"
        _, verdict = deformation_space(convex)
        assert verdict.kind.value == "Rigid"

        t = gen.pushed_pair_triangulation(pushed)
        sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
        assert sp.n_negative >= 1
        assert sp.n_zero >= 1
        assert rigidity_verdict(t, sp, vertex_census(t)).kind.value == "Flexible"
        _, verdict = deformation_space(pushed)
        assert verdict.kind.value == "Flexible"


def _random_tetra(rng) -> TetraLengths:
    while True:
        pts = rng.normal(size=(4, 3))
        if abs(np.linalg.det(pts[1:] - pts[0])) < 0.3:
            continue
        d = [float(np.linalg.norm(pts[i] - pts[j]))
             for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
        lengths = TetraLengths(*d)
        if is_valid_tetra(lengths):
            return lengths


def _random_triangulations(rng):
    base = gen.octahedron()
    tets = gen.octahedron_axis_triangulation(base).tetrahedra
    for _ in range(8):
        scale = rng.uniform(0.5, 2.0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        verts = (base.vertices * scale) @ q.T + rng.normal(scale=0.05,
                                                           size=(6, 3))
        s = PolyhedralSurface(verts, base.faces)
        t = Triangulation(s, list(tets))
        if t.validate().ok:
            yield t
    yield gen.cube_flat_triangulation()
    yield gen.pushed_pair_triangulation(gen.pushed_vertex_pair()[0])


def test_criterion_9_identity_suites():
    with criterion(9):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lengths = _random_tetra(rng)
            direction = rng.normal(size=6)
            direction /= np.linalg.norm(direction)
            r1 = schlafli_residual(lengths, direction, 2e-3)
            r2 = schlafli_residual(lengths, direction, 1e-3)
            assert 3.5 <= r1 / r2 <= 4.5
        for t in _random_triangulations(rng):
            lengths = euclidean_lengths(t)
            kappa = curvatures(total_angles(t, lengths))
            if len(kappa):
                assert float(np.max(np.abs(kappa))) <= 1e-9
            r1 = he_gradient_check(t, lengths, 1e-3)
            r2 = he_gradient_check(t, lengths, 5e-4)
            assert 3.5 <= r1 / r2 <= 4.5


def _m0_suite():
    yield gen.octahedron_axis_triangulation()
    yield gen.cube_flat_triangulation()
    convex, pushed = gen.pushed_vertex_pair()
    yield gen.pushed_pair_triangulation(convex)
    yield gen.pushed_pair_triangulation(pushed)
    for depth in (0.5, 1.0, 1.4):
        _, p = gen.pushed_vertex_pair(depth)
        yield gen.pushed_pair_triangulation(p)
    surface = gen.t_polyhedron(gen.TPolyParams(
        gen.SchonhardtParams(PI / 6, 1.0, 2.0),
        gen.SchonhardtParams(PI / 6, 2.5, 4.0), vertical_shift=0.7))
    outcome = find_decomposition(surface)
    if isinstance(outcome, Triangulation):
        yield outcome


def test_criterion_10_oracle_equivalence():
    with criterion(10):
        count = 0
        for t in _m0_suite():
            census = vertex_census(t)
            if census.m != 0:
                continue
            sp = spectrum(assemble_mt(t, DEFAULT_SCHEME))
            stiff = rigidity_verdict(t, sp, census)
            _, deform = deformation_space(t.surface)
            assert stiff.kind.value == deform.kind.value, (
                t.tetrahedra, stiff, deform)
            count += 1
        assert count >= 6


def test_criterion_11_ec1_evidence_harness(tmp_path, capsys):
    with criterion(11):
        out = tmp_path / "sweep.json"
        rc = cli_main(["sweep", "t-poly", "shift", "0..1", "--step", "0.1",
                       "--json", "-o", str(out)])
        assert rc == 0
        table = json.loads(out.read_text())
        rows = table["rows"]
        assert len(rows) == 11
        for row in rows:
            assert {"weakly_convex", "decomposable", "flexible"} <= set(row)
            assert not (row["weakly_convex"] and row["decomposable"]
                        and row["flexible"])

        naive = gen.t_polyhedron(gen.TPolyParams(
            gen.SchonhardtParams(PI / 6, 1.0, 2.0),
            gen.SchonhardtParams(PI / 6, 2.5, 4.0)))
        assert isinstance(find_decomposition(naive), NonDecomposable)

        shifted = gen.t_polyhedron(gen.TPolyParams(
            gen.SchonhardtParams(PI / 6, 1.0, 2.0),
            gen.SchonhardtParams(PI / 6, 2.5, 4.0), vertical_shift=0.7))
        _, overall = is_weakly_convex(shifted)
        assert not overall
