"""Finite-difference assembly of the angle-derivative matrix (d omega_i /
d l_j), its spectrum via cyclic Jacobi rotations, and the rigidity verdicts
drawn from kernel and negative-eigenvalue counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import hilbert_einstein as he
from .errors import NotConvex, OutOfDomain
from .triangulation import Triangulation, VertexCensus

TOL_EIG = 1e-4  # relative zero-classification tolerance for FD-derived matrices


class SchemeKind(str, Enum):
    FORWARD = "forward"
    CENTRAL = "central"


@dataclass(frozen=True)
class FDScheme:
    kind: SchemeKind = SchemeKind.CENTRAL
    epsilon: float = 1e-6
    # Round each dihedral angle to this many significant figures before
    # summation; replicates hand computations transcribed at display
    # precision. None means full precision.
    round_sig: int | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1e-2):
            raise ValueError(f"epsilon must lie in (0, 1e-2]; got {self.epsilon}")


# Replicates the classical hand computation: forward differencing with the
# base angles taken as exactly 2*pi and perturbed angles transcribed at the
# 6-significant-figure display precision of the original worked example.
PAPER_SCHEME = FDScheme(SchemeKind.FORWARD, 1e-8, round_sig=6)
DEFAULT_SCHEME = FDScheme(SchemeKind.CENTRAL, 1e-6)


@dataclass
class StiffnessMatrix:
    matrix: np.ndarray
    scheme: FDScheme
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


def assemble_mt(t: Triangulation, scheme: FDScheme = DEFAULT_SCHEME) -> StiffnessMatrix:
    """Columns are finite-difference derivatives of the total-angle vector
    with respect to one interior edge length, at the Euclidean base point.

    In forward mode the base angles are exactly 2*pi (the Euclidean
    shortcut); central mode differences two perturbed evaluations.  Column
    j re-evaluates only the tetrahedra on edge j (``OneEdgeAngles``); the
    result is bitwise that of recomputing every total angle.
    """
    t.require_valid()
    base = he.euclidean_lengths(t)
    if not he.in_domain(t, base):
        raise OutOfDomain("Euclidean base point is outside the admissible domain")
    n = len(base.interior)
    m = np.zeros((n, n))
    eps = scheme.epsilon
    if n:
        angles = he.OneEdgeAngles(t, base, round_sig=scheme.round_sig)
    for j in range(n):
        omega_plus = angles.omega_with(j, base.interior[j] + eps)
        if scheme.kind is SchemeKind.FORWARD:
            m[:, j] = (omega_plus - he.TWO_PI) / eps
        else:
            omega_minus = angles.omega_with(j, base.interior[j] - eps)
            m[:, j] = (omega_plus - omega_minus) / (2.0 * eps)
    norm = float(np.max(np.abs(m))) if n else 0.0
    rho = float(np.max(np.abs(m - m.T))) / max(1.0, norm) if n else 0.0
    return StiffnessMatrix(matrix=m, scheme=scheme, symmetry_residual=rho)


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, iterated
    until the off-diagonal Frobenius norm drops below tol * ||A||_F."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n <= 1:
        return np.diag(a).copy() if n else np.zeros(0)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.sum(a**2) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                sign = 1.0 if theta >= 0 else -1.0
                if abs(theta) > 1e150:
                    tpar = sign / (2.0 * abs(theta))
                else:
                    tpar = sign / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(tpar * tpar + 1.0)
                s = tpar * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diag(a))


def spectrum(m: StiffnessMatrix, tol_eig: float = TOL_EIG) -> Spectrum:
    """Eigenvalues of the symmetrized matrix, classified against
    |lambda| <= tol_eig * max(1, ||M||_inf)."""
    sym = m.symmetrized
    eig = jacobi_eigenvalues(sym)
    norm = float(np.max(np.abs(sym))) if m.n else 0.0
    cut = tol_eig * max(1.0, norm)
    n_neg = int(np.sum(eig < -cut))
    n_zero = int(np.sum(np.abs(eig) <= cut))
    return Spectrum(eigenvalues=eig, n_negative=n_neg, n_zero=n_zero,
                    n_positive=m.n - n_neg - n_zero, tol_eig=tol_eig)


def rigidity_verdict(t: Triangulation, sp: Spectrum, census: VertexCensus) -> Verdict:
    """Kernel test: with no interior vertices, non-degenerate <=> rigid.
    Flexible verdicts from finite-difference spectra are numerical evidence
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
