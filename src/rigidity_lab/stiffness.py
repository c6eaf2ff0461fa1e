"""The stiffness matrix M_T = (d omega_i / d l_j), the negative Hessian of
the discrete Hilbert-Einstein functional, its spectrum, and the rigidity
verdicts drawn from kernel and negative-eigenvalue counts.

The default scheme assembles M_T exactly: each tetrahedron's 6x6 Jacobian
of dihedral angles with respect to edge lengths, from the stacked
Cayley-Menger kernel, is scatter-added over the slots of its interior
edges.  The finite-difference schemes are kept as opt-in oracles; the
forward one replicates the published hand computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import hilbert_einstein as he
from .cayley_menger import dihedral_kernel
from .errors import BadParams, NotConvex, OutOfDomain
from .geom import coord_scale
from .triangulation import Triangulation, VertexCensus

TOL_EIG = 1e-4  # relative zero-classification tolerance for FD-derived matrices
# The exact matrix carries rounding error only: true zeros sit at or below
# about 4e-13 of max|M| on the generator suite, and true nonzeros of seeded
# convex hull fans stay above 1e-5 of it, while thin tetrahedra make max|M|
# large enough that TOL_EIG would call a genuine eigenvalue zero.
TOL_EIG_EXACT = 1e-9


class SchemeKind(str, Enum):
    EXACT = "exact"
    FORWARD = "forward"
    CENTRAL = "central"


@dataclass(frozen=True)
class ExactScheme:
    """M_T from the exact Jacobians of the stacked Cayley-Menger kernel; it
    has no step and no rounding."""

    kind = SchemeKind.EXACT
    epsilon = None
    round_sig = None
    tol_eig = TOL_EIG_EXACT


@dataclass(frozen=True)
class FDScheme:
    kind: SchemeKind = SchemeKind.CENTRAL
    epsilon: float = 1e-6
    # Round each dihedral angle to this many significant figures (1..17, the
    # digits a double holds) before summation; replicates hand computations
    # transcribed at display precision. None means full precision.
    round_sig: int | None = None
    tol_eig = TOL_EIG

    def __post_init__(self):
        if self.kind is SchemeKind.EXACT:
            raise ValueError("the exact scheme is ExactScheme, not a "
                             "finite difference")
        if not (0.0 < self.epsilon <= 1e-2):
            raise ValueError(f"epsilon must lie in (0, 1e-2]; got {self.epsilon}")
        if self.round_sig is not None and not 1 <= self.round_sig <= 17:
            raise ValueError(f"round_sig must lie in 1..17; got {self.round_sig}")


# Replicates the classical hand computation: forward differencing with the
# base angles taken as exactly 2*pi and perturbed angles transcribed at the
# 6-significant-figure display precision of the original worked example.
PAPER_SCHEME = FDScheme(SchemeKind.FORWARD, 1e-8, round_sig=6)
DEFAULT_SCHEME = ExactScheme()
# The scheme each ``analyze --scheme`` name selects; other steps and
# roundings are FDSchemes built directly.
SCHEMES = {"exact": DEFAULT_SCHEME, "central": FDScheme(),
           "forward": PAPER_SCHEME}


@dataclass
class StiffnessMatrix:
    matrix: np.ndarray
    scheme: ExactScheme | FDScheme
    symmetry_residual: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def symmetrized(self) -> np.ndarray:
        return 0.5 * (self.matrix + self.matrix.T)


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # ascending
    n_negative: int
    n_zero: int
    n_positive: int
    tol_eig: float


class VerdictKind(str, Enum):
    RIGID = "Rigid"
    FLEXIBLE = "Flexible"
    INDETERMINATE = "Indeterminate"


@dataclass
class Verdict:
    kind: VerdictKind
    evidence: dict = field(default_factory=dict)


def assemble_mt(t: Triangulation,
                scheme: ExactScheme | FDScheme = DEFAULT_SCHEME) -> StiffnessMatrix:
    """M_T at the Euclidean base point: entry (i, j) is the derivative of
    the total angle around interior edge i with respect to the length of
    interior edge j."""
    t.require_valid()
    base = he.euclidean_lengths(t)
    lengths, index = he.tet_edge_table(t, base)
    _, jac, valid = dihedral_kernel(lengths)
    if not np.all(valid):
        raise OutOfDomain("Euclidean base point is outside the admissible domain")
    n = len(base.interior)
    if scheme.kind is SchemeKind.EXACT:
        m = _exact_mt(jac, index, n)
    else:
        m = _fd_mt(t, lengths, index, scheme)
    norm = float(np.max(np.abs(m))) if n else 0.0
    rho = float(np.max(np.abs(m - m.T))) / norm if norm else 0.0
    return StiffnessMatrix(matrix=m, scheme=scheme, symmetry_residual=rho)


def _exact_mt(jac: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add each tetrahedron's Jacobian block over the slots of its
    interior edges."""
    # Boundary slots (index n and up) land in a padding row and column.
    slot = np.minimum(index, n)
    m = np.zeros((n + 1, n + 1))
    np.add.at(m, (slot[:, :, None], slot[:, None, :]), jac)
    return m[:n, :n]


def _fd_mt(t: Triangulation, lengths: np.ndarray, index: np.ndarray,
           scheme: FDScheme) -> np.ndarray:
    """Columns are finite-difference derivatives of the total-angle vector
    with respect to one interior edge length.

    The step is ``scheme.epsilon`` times ``coord_scale`` of the points, so
    it follows the input's size.  In forward mode the base angles are
    exactly 2*pi (the Euclidean shortcut); central mode differences two
    perturbed evaluations.  Column j takes the ``tet_edge_table`` with every
    slot of edge j moved by the step and sums the kernel's angles over it as
    ``total_angles`` does, so each perturbed total angle is bitwise what
    ``total_angles`` returns.
    """
    n = len(t.interior_edges)
    size = n + len(t.boundary_edges)

    def omega(j: int, step: float) -> np.ndarray:
        moved = np.where(index == j, lengths + step, lengths)
        return he.angle_sums(moved, index, size, scheme.round_sig)[:n]

    m = np.zeros((n, n))
    eps = scheme.epsilon * coord_scale(t.points)
    for j in range(n):
        omega_plus = omega(j, eps)
        if scheme.kind is SchemeKind.FORWARD:
            m[:, j] = (omega_plus - he.TWO_PI) / eps
        else:
            omega_minus = omega(j, -eps)
            m[:, j] = (omega_plus - omega_minus) / (2.0 * eps)
    return m


def spectrum(m: StiffnessMatrix, tol_eig: float | None = None) -> Spectrum:
    """Eigenvalues of the symmetrized matrix, classified against
    |lambda| <= tol_eig * max|M|, so the counts do not change when the
    surface is scaled; tol_eig, finite and >= 0, defaults to the scheme's
    own cutoff."""
    if tol_eig is None:
        tol_eig = m.scheme.tol_eig
    if not (np.isfinite(tol_eig) and tol_eig >= 0):
        raise BadParams(f"tol_eig must be finite and >= 0; got {tol_eig}")
    sym = m.symmetrized
    eig = np.linalg.eigvalsh(sym)
    norm = float(np.max(np.abs(sym))) if m.n else 0.0
    cut = tol_eig * norm
    n_neg = int(np.sum(eig < -cut))
    n_zero = int(np.sum(np.abs(eig) <= cut))
    return Spectrum(eigenvalues=eig, n_negative=n_neg, n_zero=n_zero,
                    n_positive=m.n - n_neg - n_zero, tol_eig=tol_eig)


def rigidity_verdict(t: Triangulation, sp: Spectrum, census: VertexCensus) -> Verdict:
    """Kernel test: with no interior vertices, non-degenerate <=> rigid.
    Flexible verdicts from floating-point spectra are numerical evidence
    and are flagged as such for downstream corroboration."""
    evidence = {
        "path": "stiffness-kernel",
        "n_zero": sp.n_zero,
        "n_negative": sp.n_negative,
        "tol_eig": sp.tol_eig,
        "census_m": census.m,
        "census_k": census.k,
    }
    if census.m > 0:
        evidence["reason"] = "triangulation has interior vertices; kernel test inapplicable"
        return Verdict(VerdictKind.INDETERMINATE, evidence)
    if sp.n_zero == 0:
        return Verdict(VerdictKind.RIGID, evidence)
    evidence["numerical"] = True
    return Verdict(VerdictKind.FLEXIBLE, evidence)


def theorem1_check(t: Triangulation, sp: Spectrum, census: VertexCensus) -> bool:
    """For convex surfaces: kernel dimension must be 3m + k and the negative
    count must be m."""
    s = t.surface
    convex_ok = np.all(s.extreme_mask() | s.flat_mask())
    if not convex_ok:
        raise NotConvex("surface has a vertex that is neither extreme nor flat")
    return sp.n_zero == 3 * census.m + census.k and sp.n_negative == census.m
