"""Hypothesis evaluators and conclusion-consistency checks on sampled charts.

A verdict never claims to verify a theorem: the global hypotheses
(completeness, topology) are not observable on a chart.  What a checker can
do is falsify: if every hypothesis holds on the sampled grid and a claimed
conclusion fails numerically, the surface is flagged as a
counterexample-candidate, which for exact catalog surfaces means an
implementation bug.  That is the suite's central property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import codazzi, identities
from .geometry import (
    MINIMAL_TOL,
    GeomPoint,
    SurfaceSpec,
    aux_det_sum,
    grid_geometry,
)
from .identities import DEFAULT_GRID, DEFAULT_MARGIN
from .spaceforms import vecdot

CONCLUSION_TOL = 1e-8
SIGN_SLOP = 1e-10
CODAZZI_GATE = 1e-8
PMC_GATE = 1e-8

STATUS_CONSISTENT = "consistent"
STATUS_INAPPLICABLE = "inapplicable"
STATUS_COUNTEREXAMPLE = "counterexample-candidate"

CHART_NOTE = "consistency check on sampled chart; global hypotheses (completeness, topology) not verified"


class GateError(ValueError):
    """Surface fails a checker precondition (wrong class, non-PMC, non-Codazzi)."""


@dataclass
class Hypothesis:
    name: str
    satisfied: bool
    margin: float

    def to_dict(self):
        return {"name": self.name, "satisfied": bool(self.satisfied),
                "margin": float(self.margin)}


@dataclass
class Conclusion:
    claim: str
    residual: float
    passed: bool

    def to_dict(self):
        return {"claim": self.claim, "residual": float(self.residual),
                "passed": bool(self.passed)}


@dataclass
class TheoremVerdict:
    theorem_id: str
    hypotheses: list[Hypothesis] = field(default_factory=list)
    conclusion_checked: list[Conclusion] = field(default_factory=list)
    applicable: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        if not self.applicable:
            return STATUS_INAPPLICABLE
        if all(c.passed for c in self.conclusion_checked):
            return STATUS_CONSISTENT
        return STATUS_COUNTEREXAMPLE

    def to_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "conclusion_checked": [c.to_dict() for c in self.conclusion_checked],
            "applicable": bool(self.applicable),
            "status": self.status,
            "notes": list(self.notes),
        }


def check_codazzi_dichotomy(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                            margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Sign dichotomy for a traceless Codazzi operator (checker id "1.2").

    K >= 0 with |det S| <= eps forces det S constant and K det S == 0;
    K <= 0 with |det S| >= eps > 0 forces det S constant and K == 0.
    The operator is the angle operator on a minimal surface, the PMC one
    otherwise.
    """
    data = grid_geometry(spec, grid[0], grid[1], margin)
    kind = "angle" if float(data.normH.max()) <= MINIMAL_TOL else "pmc"
    s = codazzi.operator_jets(data, kind)
    worst_codazzi = float(np.max(codazzi.codazzi_residual(data, s)))
    if not worst_codazzi <= CODAZZI_GATE:
        raise GateError(
            f"operator fails the Codazzi gate: residual {worst_codazzi!r} > {CODAZZI_GATE}"
        )
    worst_trace = float(np.max(codazzi.trace_residual(s)))
    if not worst_trace <= CODAZZI_GATE:
        raise GateError(f"operator not traceless: {worst_trace!r}")

    dets = codazzi.det_jet(s).value
    verdict = TheoremVerdict("1.2", notes=[CHART_NOTE, f"operator kind: {kind}"])
    k_min, k_max = float(data.K_val.min()), float(data.K_val.max())
    abs_det = np.abs(dets)

    pos_branch = [
        Hypothesis("K_nonnegative", k_min >= -SIGN_SLOP, k_min),
        Hypothesis("absdet_at_most_eps", float(abs_det.max()) <= eps + SIGN_SLOP,
                   eps - float(abs_det.max())),
    ]
    neg_branch = [
        Hypothesis("K_nonpositive", k_max <= SIGN_SLOP, -k_max),
        Hypothesis("absdet_at_least_eps", eps > 0 and float(abs_det.min()) >= eps - SIGN_SLOP,
                   float(abs_det.min()) - eps),
    ]
    verdict.hypotheses = pos_branch + neg_branch
    det_variation = float(dets.max() - dets.min())
    if all(h.satisfied for h in pos_branch):
        verdict.applicable = True
        verdict.conclusion_checked.append(
            Conclusion("detS_constant", det_variation, det_variation < CONCLUSION_TOL)
        )
        kd = float(np.abs(data.K_val * dets).max())
        verdict.conclusion_checked.append(
            Conclusion("K_detS_zero", kd, kd < CONCLUSION_TOL)
        )
    if all(h.satisfied for h in neg_branch):
        verdict.applicable = True
        verdict.conclusion_checked.append(
            Conclusion("detS_constant", det_variation, det_variation < CONCLUSION_TOL)
        )
        k_abs = float(np.abs(data.K_val).max())
        verdict.conclusion_checked.append(
            Conclusion("K_zero", k_abs, k_abs < CONCLUSION_TOL)
        )
    return verdict


def _pmc_gates(spec: SurfaceSpec, grid, margin) -> GeomPoint:
    data = grid_geometry(spec, grid[0], grid[1], margin)
    if float(data.normH.min()) <= MINIMAL_TOL:
        raise GateError(
            f"minimal point on grid (min |H| = {float(data.normH.min())!r}); "
            "checker needs a non-minimal surface"
        )
    pmc_rep = identities.pmc_residual(data, grid)
    if not pmc_rep.max_abs <= PMC_GATE:
        raise GateError(
            f"surface fails the PMC gate: max |nabla-perp H| = {pmc_rep.max_abs!r}"
        )
    return data


def _flatness(theorem_id: str, spec: SurfaceSpec, grid, eps: float, c: float, margin: float,
              normal_term) -> TheoremVerdict:
    """The flatness criteria's shared skeleton; ``normal_term(data)`` gives the
    term subtracted from K (one value per grid point, or a grid constant)
    and any notes about it.
    """
    kappa = spec.ambient.kappa
    if kappa == 0:
        raise GateError("checker requires kappa != 0")
    if not 0 <= c < 1:
        raise GateError(f"c must lie in [0, 1), got {c}")
    data = _pmc_gates(spec, grid, margin)
    aux, notes = normal_term(data)
    verdict = TheoremVerdict(theorem_id, notes=[CHART_NOTE] + notes)
    k_max = float(data.K_val.max())
    verdict.hypotheses.append(Hypothesis("K_nonpositive", k_max <= SIGN_SLOP, -k_max))
    if kappa < 0:
        val = float((data.K_val - data.normH ** 2 - kappa - aux).max())
        verdict.hypotheses.append(
            Hypothesis("deficit_at_most_minus_eps", eps > 0 and val <= -eps + SIGN_SLOP,
                       -eps - val)
        )
    else:
        val1 = float((data.K_val - aux - c * data.normH ** 2).max())
        verdict.hypotheses.append(
            Hypothesis("excess_at_most_c_H2", val1 <= SIGN_SLOP, -val1)
        )
        val2 = float((4.0 * math.sqrt(1.0 - c) * data.normH ** 2 - kappa).min())
        verdict.hypotheses.append(
            Hypothesis("mean_curvature_dominates", val2 > SIGN_SLOP, val2)
        )
    verdict.applicable = all(h.satisfied for h in verdict.hypotheses)
    if verdict.applicable:
        k_abs = float(np.abs(data.K_val).max())
        verdict.conclusion_checked.append(Conclusion("K_zero", k_abs, k_abs < CONCLUSION_TOL))
    return verdict


def check_pmc_flatness(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                       c: float = 0.0, margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Flatness criterion for non-minimal PMC surfaces (checker id "3.1").

    kappa < 0: K - |H|^2 - kappa - sum_{i>1} det A_i <= -eps < 0;
    kappa > 0: K - sum_{i>1} det A_i <= c |H|^2 and 4 sqrt(1-c) |H|^2 - kappa > 0.
    Conclusion when applicable: K == 0 on the grid.
    """
    return _flatness("3.1", spec, grid, eps, c, margin, lambda data: (aux_det_sum(data), []))


def check_pmc_flatness_mu(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                          c: float = 0.0, margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Flatness criterion with the global normal-spread constant (checker id "1.3").

    Same structure as "3.1" with the grid supremum
    mu = sup(|alpha|^2 - |A_H|^2/|H|^2) replacing the pointwise frame sum:
    kappa < 0: K - |H|^2 - kappa + mu/2 <= -eps; kappa > 0: K + mu/2 <= c |H|^2.
    """
    def half_mu(data):
        mu, _cross = identities.mu_estimate(data)
        return -0.5 * mu, [f"mu grid supremum: {mu!r}"]

    return _flatness("1.3", spec, grid, eps, c, margin, half_mu)


def check_minimal_angle(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                        margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Minimal-surface angle rigidity (checker id "cor").

    For a minimal surface with K <= 0 and |T| > eps the curvature must vanish
    and |T| must be constant; for negative ambient curvature the surface must
    in addition be a vertical cylinder (eta == 0).  Also cross-checks the
    closed forms |S_angle|^2 = |T|^4/2 and, for kappa != 0, the operator
    obtained by deleting the mean-curvature terms being kappa times the angle
    operator.
    """
    data = grid_geometry(spec, grid[0], grid[1], margin)
    if float(data.normH.max()) > MINIMAL_TOL:
        raise GateError(
            f"non-minimal surface (max |H| = {float(data.normH.max())!r}); "
            "checker needs a minimal surface"
        )
    kappa = spec.ambient.kappa
    verdict = TheoremVerdict("cor", notes=[CHART_NOTE])
    k_max = float(data.K_val.max())
    verdict.hypotheses.append(Hypothesis("K_nonpositive", k_max <= SIGN_SLOP, -k_max))
    t_min = float(data.normT.min())
    verdict.hypotheses.append(Hypothesis("normT_above_eps", t_min > eps, t_min - eps))

    s_val = codazzi.angle_operator(data)
    s2 = np.trace(np.matmul(s_val, s_val), axis1=-2, axis2=-1)
    norm_identity = float(np.max(np.abs(s2 - data.normT2.value ** 2 / 2.0), initial=0.0))
    verdict.conclusion_checked.append(
        Conclusion("angle_operator_norm_identity", norm_identity,
                   norm_identity < CONCLUSION_TOL)
    )
    verdict.applicable = all(h.satisfied for h in verdict.hypotheses)
    if verdict.applicable:
        k_abs = float(np.abs(data.K_val).max())
        verdict.conclusion_checked.append(Conclusion("K_zero", k_abs, k_abs < CONCLUSION_TOL))
        t_var = float(data.normT.max() - data.normT.min())
        verdict.conclusion_checked.append(
            Conclusion("normT_constant", t_var, t_var < CONCLUSION_TOL)
        )
        if kappa < 0:
            sig = np.asarray(spec.ambient.signature)
            eta2 = vecdot(sig * data.eta_val, data.eta_val)
            eta_max = float(np.max(np.sqrt(np.maximum(eta2, 0.0)), initial=0.0))
            verdict.conclusion_checked.append(
                Conclusion("vertical_cylinder_eta_zero", eta_max, eta_max < CONCLUSION_TOL)
            )
            verdict.notes.append("negative ambient curvature: vertical cylinder expected")
    return verdict


# Every checker by id, called as (spec, grid, eps, c, margin); only the
# flatness checkers read c.
CHECKERS = {
    "1.2": lambda spec, grid, eps, c, margin: check_codazzi_dichotomy(spec, grid, eps, margin),
    "1.3": lambda spec, grid, eps, c, margin: check_pmc_flatness_mu(
        spec, grid, eps, c, margin),
    "3.1": lambda spec, grid, eps, c, margin: check_pmc_flatness(spec, grid, eps, c, margin),
    "cor": lambda spec, grid, eps, c, margin: check_minimal_angle(spec, grid, eps, margin),
}


def run_checker(theorem: str, spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                c: float = 0.0, margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    checker = CHECKERS.get(theorem)
    if checker is None:
        raise ValueError(f"unknown theorem id {theorem!r}")
    return checker(spec, grid, eps, c, margin)
