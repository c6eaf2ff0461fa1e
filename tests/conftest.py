import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from rigidity_lab.cayley_menger import dihedral_kernel
from rigidity_lab.geom import PolyhedralSurface
from rigidity_lab.hilbert_einstein import tet_edge_table


def tet_volumes(pts) -> np.ndarray:
    """Signed volumes of a stack (..., 4, 3) of tetrahedra's corners: the
    LU determinant of the edges from the first corner, over 6."""
    p = np.asarray(pts, dtype=float)
    return np.linalg.det(p[..., 1:, :] - p[..., :1, :]) / 6.0


def tet_volume(pts) -> float:
    """Signed volume of one tetrahedron's four corners (4, 3)."""
    return float(tet_volumes(pts))


def in_domain(t, l) -> bool:
    """True iff every tetrahedron of ``t``, with the lengths ``l``
    substituted, stays a non-degenerate Euclidean tetrahedron: the
    package's ``dihedral_kernel`` validity flag over ``tet_edge_table``."""
    t.require_valid()
    if np.any(l.interior <= 0) or np.any(l.boundary <= 0):
        return False
    _, _, valid = dihedral_kernel(tet_edge_table(t, l)[0])
    return bool(valid.all())


def build_star_surface(seed: int, n: int) -> PolyhedralSurface:
    """A seeded surface of ``n`` vertices, star-shaped about the origin.

    ``n`` random unit directions (drawn again until the origin lies at
    least 0.05 inside their hull), the triangulation of their convex hull,
    and each direction scaled by a random radius in [0.5, 1.5].  Scaling
    along rays keeps every face's cone from the origin, so the surface stays
    embedded while its dents make some 4-subsets reach outside.
    """
    rng = np.random.default_rng(seed)
    while True:
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        hull = ConvexHull(d)
        if np.all(hull.equations[:, 3] < -0.05):
            break
    return PolyhedralSurface(d * rng.uniform(0.5, 1.5, n)[:, None], hull.simplices)


@pytest.fixture
def star_surface():
    """``build_star_surface``, the seeded star-shaped surface builder."""
    return build_star_surface


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion, uncaptured."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    if mod is None:
        return
    results = getattr(mod, "CRITERION_RESULTS", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(results):
        status = "PASS" if results[n] else "FAIL"
        terminalreporter.write_line("CRITERION {:2d}: {}".format(n, status))
