"""The analysis pipeline: the one place that runs the stages (validation,
weak convexity, decomposition, the ``M_T`` spectrum and the deformation
space) for ``analyze``, ``decompose`` and ``sweep``.  Results are plain
dicts, because the report dict is the ``--json`` schema.
"""

from __future__ import annotations

import math

from .deformation import deformation_space
from .errors import BadParams
from .geom import PolyhedralSurface, is_weakly_convex
from .stiffness import (
    DEFAULT_SCHEME,
    ExactScheme,
    FDScheme,
    VerdictKind,
    assemble_mt,
    rigidity_verdict,
    spectrum,
)
from .triangulation import (
    BudgetExceeded,
    NonDecomposable,
    Triangulation,
    find_decomposition,
    vertex_census,
)


def check_budget(budget: int):
    """A negative search node ``budget`` raises BadParams."""
    if budget < 0:
        raise BadParams(f"budget must be >= 0; got {budget}")


def decompose(s: PolyhedralSurface, t: Triangulation | None = None,
              budget: int = 200000):
    """Return ``(outcome, result)``: the supplied triangulation ``t``, or the
    outcome of the decomposition search on ``s`` when ``t`` is None, and its
    decomposition dict.  A negative ``budget`` raises BadParams."""
    check_budget(budget)
    outcome = find_decomposition(s, budget=budget) if t is None else t
    if isinstance(outcome, NonDecomposable):
        result = {"kind": "non-decomposable",
                  "admissible_candidates": outcome.admissible_candidates,
                  "nodes_explored": outcome.nodes_explored}
    elif isinstance(outcome, BudgetExceeded):
        result = {"kind": "budget-exceeded",
                  "nodes_explored": outcome.nodes_explored}
    else:
        result = {"kind": "triangulation",
                  "tetrahedra": [list(tet) for tet in outcome.tetrahedra],
                  "interior_edges": [list(e) for e in outcome.interior_edges]}
    return outcome, result


def analyze_surface(s: PolyhedralSurface,
                    t: Triangulation | None = None,
                    scheme: ExactScheme | FDScheme = DEFAULT_SCHEME,
                    tol_eig: float | None = None,
                    budget: int = 200000) -> dict:
    """Run the full pipeline and return the AnalysisReport as a plain dict
    (the machine-readable form; the human rendering is derived from it).
    ``tol_eig`` None means the scheme's own zero cutoff."""
    report: dict = {"schema": "rigidity-lab/analysis/1"}

    validity = s.validate()
    report["validity"] = {
        "ok": bool(validity.ok),
        "violations": [f"{v.tag}: {v.detail}" for v in validity.violations],
    }
    if not validity.ok:
        return report

    mask, overall = is_weakly_convex(s)
    report["weakly_convex"] = {
        "per_vertex": [bool(b) for b in mask],
        "overall": bool(overall),
    }

    outcome, report["decomposition"] = decompose(s, t, budget)

    stiff_verdict = None
    if isinstance(outcome, Triangulation):
        census = vertex_census(outcome)
        report["census"] = {"m": census.m, "k": census.k}
        mt = assemble_mt(outcome, scheme)
        sp = spectrum(mt, tol_eig=tol_eig)
        verdict = rigidity_verdict(outcome, sp, census)
        stiff_verdict = verdict.kind.value
        report["stiffness"] = {
            "scheme": {"kind": scheme.kind.value, "epsilon": scheme.epsilon,
                       "round_sig": scheme.round_sig},
            "eigenvalues": [float(x) for x in sp.eigenvalues],
            "n_negative": sp.n_negative,
            "n_zero": sp.n_zero,
            "n_positive": sp.n_positive,
            "tol_eig": sp.tol_eig,
            "verdict": stiff_verdict,
        }

    basis, dverdict = deformation_space(s)
    report["deformation"] = {
        "nullity": basis.nullity,
        "trivial_dim": basis.trivial_dim,
        "nontrivial_dim": basis.nontrivial_dim,
        "spectral_gap": (None if math.isinf(basis.spectral_gap)
                         else float(basis.spectral_gap)),
        "verdict": dverdict.kind.value,
    }

    # An Indeterminate stiffness oracle abstains, so there is nothing to
    # compare.  A Flexible spectral verdict is numerical evidence; without
    # corroboration from the deformation oracle it is downgraded.
    if stiff_verdict in (None, VerdictKind.INDETERMINATE.value):
        report["verdict"] = dverdict.kind.value
    else:
        agree = stiff_verdict == dverdict.kind.value
        report["oracles_agree"] = bool(agree)
        if stiff_verdict == "Flexible" and not agree:
            report["stiffness"]["verdict"] = "Flexible (numerical)"
        report["verdict"] = (dverdict.kind.value if agree
                             else f"{dverdict.kind.value} (oracles disagree)")
    return report


def sweep_evidence(s: PolyhedralSurface, t: Triangulation | None,
                   budget: int) -> dict:
    """The keys of one sweep row: the conjecture-evidence triple (weakly
    convex?, decomposable?, flexible?) with the deformation oracle's
    nullity, verdict and smallest nontrivial singular value."""
    row: dict = {}
    mask, wc = is_weakly_convex(s)
    row["weakly_convex"] = bool(wc)

    outcome, _ = decompose(s, t, budget)
    row["decomposable"] = isinstance(outcome, Triangulation)

    basis, verdict = deformation_space(s)
    # Smallest nontrivial singular value: the (3V-7)-th in decreasing order
    # (six trivial motions always lie in the null space); 0 when the matrix
    # has fewer rows.
    sv, k = basis.singular_values, 3 * len(s.vertices) - 7
    row["smallest_nontrivial_sv"] = float(sv[k]) if k < len(sv) else 0.0
    row["nullity"] = basis.nullity
    row["verdict"] = verdict.kind.value
    row["flexible"] = verdict.kind.value == "Flexible"
    return row
