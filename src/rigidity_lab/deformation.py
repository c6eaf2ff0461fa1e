"""First-principles rigidity oracle: the edge-length rigidity matrix, the
Killing-field (trivial motion) basis, null-space extraction by SVD, and the
twist-mode report for the twisted-antiprism flexibility analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoNontrivialMode
from .geom import PolyhedralSurface
from .stiffness import Verdict, VerdictKind

TOL_SV = 1e-8        # relative singular-value threshold for the null space


@dataclass
class RigidityMatrix:
    matrix: np.ndarray        # |E| x 3|V|
    edges: tuple              # canonical edge order, row-aligned
    n_vertices: int


@dataclass
class DeformationBasis:
    nullity: int
    basis: np.ndarray         # (nullity, 3|V|), orthonormal rows
    trivial_dim: int
    spectral_gap: float       # smallest kept sv / largest dropped sv
    singular_values: np.ndarray  # of the rigidity matrix, decreasing

    @property
    def nontrivial_dim(self) -> int:
        return self.nullity - self.trivial_dim


def rigidity_matrix(s: PolyhedralSurface) -> RigidityMatrix:
    """Row for edge (i, j) carries the block p_i - p_j in the vertex-i columns
    and its negative in the vertex-j columns, so R q = 0 is exactly the
    first-order length-preservation condition on every edge."""
    s.require_valid()
    p = s.vertices
    edges = s.edges
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    rows = np.arange(len(edges))
    d = p[i] - p[j]
    r = np.zeros((len(edges), len(p), 3))
    r[rows, i] = d
    r[rows, j] = -d
    return RigidityMatrix(matrix=r.reshape(len(edges), -1), edges=edges,
                          n_vertices=len(p))


def trivial_motions(s: PolyhedralSurface) -> np.ndarray:
    """Six Killing-field restrictions: the three coordinate translations and
    the three rotation fields e_axis x p. Returned as rows of a 6 x 3|V|
    array."""
    s.require_valid()
    x, y, z = s.vertices.T
    zero, one = np.zeros_like(x), np.ones_like(x)
    fields = [(one, zero, zero), (zero, one, zero), (zero, zero, one),
              (zero, -z, y), (z, zero, -x), (-y, x, zero)]
    return np.array(fields).transpose(0, 2, 1).reshape(6, -1)


def _trivial_frame(s: PolyhedralSurface) -> np.ndarray:
    """An orthonormal basis (3|V| x 6, by QR) of the trivial motions."""
    q, _ = np.linalg.qr(trivial_motions(s).T)
    return q


def deformation_space(s: PolyhedralSurface):
    """Null space of the rigidity matrix via SVD thresholding at
    TOL_SV * sigma_max; the verdict is Flexible iff the nullity exceeds the
    number of trivial motions in it.

    That number counts the principal angles between the trivial motions and
    the null space whose cosine exceeds 1/2.  Both sides are orthonormal, so
    the count does not depend on where the surface sits or on its scale."""
    r = rigidity_matrix(s)
    a = r.matrix
    ncols = a.shape[1]
    _, sv, vt = np.linalg.svd(a, full_matrices=True)
    sigma_max = sv[0] if len(sv) else 0.0
    cut = TOL_SV * max(sigma_max, 1e-300)
    rank = int(np.sum(sv > cut))
    kept = sv[rank - 1] if rank else np.inf
    dropped = sv[rank] if rank < len(sv) else 0.0
    gap = float(kept / dropped) if dropped > 0 else np.inf
    basis = vt[rank:ncols]
    nullity = basis.shape[0]

    cosines = np.linalg.svd(_trivial_frame(s).T @ basis.T, compute_uv=False)
    trivial_dim = int(np.sum(cosines > 0.5))

    d = DeformationBasis(nullity=nullity, basis=basis, trivial_dim=trivial_dim,
                         spectral_gap=gap, singular_values=sv)
    kind = VerdictKind.FLEXIBLE if d.nontrivial_dim > 0 else VerdictKind.RIGID
    return d, Verdict(kind)


@dataclass
class TwistModeReport:
    mode: np.ndarray              # (|V|, 3) gauge-fixed vectors
    bottom_residual: float        # max |q| over the fixed bottom vertices, relative
    plane_residual: float         # |<q(A), AE>|, |<q(A), AF>| max, relative
    rotation_residual: float      # symmetry of q(B), q(C) vs rotated q(A), relative


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def twist_mode(s: PolyhedralSurface, d: DeformationBasis) -> TwistModeReport:
    """Gauge-fix the nontrivial mode into the bottom-fixed convention
    q(D) = q(E) = q(F) = 0 (vertices 3, 4, 5) by subtracting the
    least-squares combination of the ``trivial_motions`` fields that fits
    the mode on those three vertices, then report the residuals against the
    cylinder-tangency picture for the top vertices A, B, C (0, 1, 2)."""
    if d.nontrivial_dim < 1:
        raise NoNontrivialMode("deformation basis has no nontrivial mode")
    p = s.vertices
    # Project the trivial motions out of the kernel basis.
    tq = _trivial_frame(s)
    resid = d.basis - (d.basis @ tq) @ tq.T
    u, sv, vt = np.linalg.svd(resid)
    mode = vt[0]
    fields = trivial_motions(s)
    # Columns 9..17 are the coordinates of vertices 3, 4, 5.
    fit, *_ = np.linalg.lstsq(fields[:, 9:18].T, mode[9:18], rcond=None)
    mode = (mode - fit @ fields).reshape(-1, 3)

    norm = float(np.max(np.linalg.norm(mode, axis=1)))
    if norm <= 0:
        raise NoNontrivialMode("mode vanishes after gauge fixing")
    bottom_res = float(np.max(np.linalg.norm(mode[[3, 4, 5]], axis=1))) / norm

    qa = mode[0]
    qa_norm = max(float(np.linalg.norm(qa)), 1e-300)
    ae = p[4] - p[0]
    af = p[5] - p[0]
    plane_res = max(abs(float(qa @ ae)), abs(float(qa @ af)))
    plane_res /= qa_norm * max(np.linalg.norm(ae), np.linalg.norm(af))

    rot_res = 0.0
    for idx, angle in ((1, 2.0 * np.pi / 3.0), (2, 4.0 * np.pi / 3.0)):
        pred = _rot_z(angle) @ qa
        rot_res = max(rot_res, float(np.linalg.norm(mode[idx] - pred)) / qa_norm)

    return TwistModeReport(
        mode=mode,
        bottom_residual=bottom_res,
        plane_residual=plane_res,
        rotation_residual=rot_res,
    )
