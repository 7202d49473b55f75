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
    SampleGrid,
    SurfaceSpec,
    aux_det_sum,
    joined,
)
from .identities import DEFAULT_GRID, DEFAULT_MARGIN
from .spaceforms import vecdot

CONCLUSION_TOL = 1e-8
SIGN_SLOP = 1e-10
CODAZZI_GATE = 1e-8
PMC_GATE = 1e-8
# Chart jet order of every checker: Brioschi K needs the metric to order 2,
# and the Codazzi and PMC gates read first derivatives of S and H.
CHECKER_ORDER = 3

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


def _claim(name: str, residual: float) -> Conclusion:
    """A conclusion that holds when its residual is below CONCLUSION_TOL."""
    return Conclusion(name, residual, residual < CONCLUSION_TOL)


def _gate(worst: float, bound: float, message: str) -> None:
    """Raise GateError unless worst <= bound, so a NaN fails the gate;
    ``message`` may name ``{worst!r}`` and ``{bound}``."""
    if not worst <= bound:
        raise GateError(message.format(worst=worst, bound=bound))


def _k_nonpositive(k: np.ndarray) -> Hypothesis:
    k_max = float(k.max())
    return Hypothesis("K_nonpositive", k_max <= SIGN_SLOP, -k_max)


def _k_zero(k: np.ndarray) -> Conclusion:
    return _claim("K_zero", float(np.abs(k).max()))


def _grid(spec: SurfaceSpec, grid, margin, minimal: bool | None = None) -> SampleGrid:
    """The checker grid at CHECKER_ORDER; ``minimal`` True or False demands a
    minimal or a nowhere-minimal surface, None leaves it open.

    A checker reads the grid through ``joined(data.map(values))``: the
    per-point arrays ``values(gp)`` gives on each block, in point order.
    """
    data = SampleGrid(spec, grid[0], grid[1], margin, CHECKER_ORDER)
    h_min, h_max = float(data.normH.min()), float(data.normH.max())
    if minimal is True and h_max > MINIMAL_TOL:
        raise GateError(f"non-minimal surface (max |H| = {h_max!r}); "
                        "checker needs a minimal surface")
    if minimal is False and h_min <= MINIMAL_TOL:
        raise GateError(f"minimal point on grid (min |H| = {h_min!r}); "
                        "checker needs a non-minimal surface")
    return data


def _verdict(theorem_id: str, notes: list[str], branches, local=()) -> TheoremVerdict:
    """The one way a checker builds its verdict.

    ``branches`` lists ``(hypotheses, conclusions)`` pairs.  A branch whose
    hypotheses all hold makes the verdict applicable and adds the claims that
    ``conclusions()`` gives.  ``local`` claims hold pointwise on any chart, so
    they lead the conclusion list whether or not a branch holds.
    """
    verdict = TheoremVerdict(theorem_id, notes=[CHART_NOTE, *notes],
                             conclusion_checked=list(local))
    for hypotheses, conclusions in branches:
        verdict.hypotheses += hypotheses
        if all(h.satisfied for h in hypotheses):
            verdict.applicable = True
            verdict.conclusion_checked += conclusions()
    return verdict


def check_codazzi_dichotomy(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                            margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Sign dichotomy for a traceless Codazzi operator (checker id "1.2").

    K >= 0 with |det S| <= eps forces det S constant and K det S == 0;
    K <= 0 with |det S| >= eps > 0 forces det S constant and K == 0.
    The operator is the angle operator on a minimal surface, the PMC one
    otherwise.
    """
    data = _grid(spec, grid, margin)
    kind = "angle" if float(data.normH.max()) <= MINIMAL_TOL else "pmc"

    def values(gp):
        s = codazzi.operator_jets(gp, kind)
        return (codazzi.codazzi_residual(gp, s), codazzi.trace_residual(s),
                codazzi.det_jet(s).value, gp.K_val)

    codazzi_res, trace_res, dets, k = joined(data.map(values))
    _gate(float(np.max(codazzi_res)), CODAZZI_GATE,
          "operator fails the Codazzi gate: residual {worst!r} > {bound}")
    _gate(float(np.max(trace_res)), CODAZZI_GATE, "operator not traceless: {worst!r}")

    k_min = float(k.min())
    abs_min, abs_max = float(np.abs(dets).min()), float(np.abs(dets).max())
    det_constant = _claim("detS_constant", float(dets.max() - dets.min()))
    pos_branch = [Hypothesis("K_nonnegative", k_min >= -SIGN_SLOP, k_min),
                  Hypothesis("absdet_at_most_eps", abs_max <= eps + SIGN_SLOP, eps - abs_max)]
    neg_branch = [_k_nonpositive(k),
                  Hypothesis("absdet_at_least_eps", eps > 0 and abs_min >= eps - SIGN_SLOP,
                             abs_min - eps)]
    return _verdict("1.2", [f"operator kind: {kind}"], [
        (pos_branch, lambda: [det_constant, _claim("K_detS_zero",
                                                   float(np.abs(k * dets).max()))]),
        (neg_branch, lambda: [det_constant, _k_zero(k)])])


def _flatness(theorem_id: str, spec: SurfaceSpec, grid, eps: float, c: float, margin: float,
              pointwise, normal_term) -> TheoremVerdict:
    """The flatness criteria's shared hypotheses; ``normal_term(pointwise(gp)
    joined over the grid)`` gives the term subtracted from K (one value per
    grid point, or a grid constant) and any notes about it.
    """
    kappa = spec.ambient.kappa
    if kappa == 0:
        raise GateError("checker requires kappa != 0")
    if not 0 <= c < 1:
        raise GateError(f"c must lie in [0, 1), got {c}")
    data = _grid(spec, grid, margin, minimal=False)
    pmc, point_term, k = joined(data.map(
        lambda gp: (identities.pmc_values(gp), pointwise(gp), gp.K_val)))
    _gate(identities.pmc_residual(data, grid, lambda: pmc).max_abs, PMC_GATE,
          "surface fails the PMC gate: max |nabla-perp H| = {worst!r}")
    aux, notes = normal_term(point_term)
    h = data.normH
    hypotheses = [_k_nonpositive(k)]
    if kappa < 0:
        val = float((k - h ** 2 - kappa - aux).max())
        hypotheses.append(
            Hypothesis("deficit_at_most_minus_eps", eps > 0 and val <= -eps + SIGN_SLOP,
                       -eps - val)
        )
    else:
        val1 = float((k - aux - c * h ** 2).max())
        hypotheses.append(Hypothesis("excess_at_most_c_H2", val1 <= SIGN_SLOP, -val1))
        val2 = float((4.0 * math.sqrt(1.0 - c) * h ** 2 - kappa).min())
        hypotheses.append(Hypothesis("mean_curvature_dominates", val2 > SIGN_SLOP, val2))
    return _verdict(theorem_id, notes, [(hypotheses, lambda: [_k_zero(k)])])


def check_pmc_flatness(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                       c: float = 0.0, margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Flatness criterion for non-minimal PMC surfaces (checker id "3.1").

    kappa < 0: K - |H|^2 - kappa - sum_{i>1} det A_i <= -eps < 0;
    kappa > 0: K - sum_{i>1} det A_i <= c |H|^2 and 4 sqrt(1-c) |H|^2 - kappa > 0.
    Conclusion when applicable: K == 0 on the grid.
    """
    return _flatness("3.1", spec, grid, eps, c, margin, aux_det_sum, lambda aux: (aux, []))


def check_pmc_flatness_mu(spec: SurfaceSpec, grid=DEFAULT_GRID, eps: float = 0.1,
                          c: float = 0.0, margin: float = DEFAULT_MARGIN) -> TheoremVerdict:
    """Flatness criterion with the global normal-spread constant (checker id "1.3").

    Same structure as "3.1" with the grid supremum
    mu = sup(|alpha|^2 - |A_H|^2/|H|^2) replacing the pointwise frame sum:
    kappa < 0: K - |H|^2 - kappa + mu/2 <= -eps; kappa > 0: K + mu/2 <= c |H|^2.
    """
    def half_mu(integrand):
        mu = float(np.max(integrand))  # a NaN integrand makes mu NaN
        return -0.5 * mu, [f"mu grid supremum: {mu!r}"]

    return _flatness("1.3", spec, grid, eps, c, margin, identities.mu_integrand, half_mu)


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
    data = _grid(spec, grid, margin, minimal=True)
    kappa = spec.ambient.kappa
    sig = np.asarray(spec.ambient.signature)

    def values(gp):
        s_val = codazzi.angle_operator(gp)
        s2 = np.trace(np.matmul(s_val, s_val), axis1=-2, axis2=-1)
        eta2 = vecdot(sig * gp.eta_val, gp.eta_val)
        return (gp.K_val, gp.normT, np.abs(s2 - gp.normT2.value ** 2 / 2.0),
                np.sqrt(np.maximum(eta2, 0.0)))

    k, t, norm_defect, eta = joined(data.map(values))
    t_min = float(t.min())
    hypotheses = [_k_nonpositive(k),
                  Hypothesis("normT_above_eps", t_min > eps, t_min - eps)]
    norm_identity = float(np.max(norm_defect, initial=0.0))

    def conclusions():
        claims = [_k_zero(k), _claim("normT_constant", float(t.max() - t.min()))]
        if kappa < 0:
            claims.append(_claim("vertical_cylinder_eta_zero",
                                 float(np.max(eta, initial=0.0))))
        return claims

    verdict = _verdict("cor", [], [(hypotheses, conclusions)],
                       local=[_claim("angle_operator_norm_identity", norm_identity)])
    if verdict.applicable and kappa < 0:
        verdict.notes.append("negative ambient curvature: vertical cylinder expected")
    return verdict


# Every checker by id, called as (spec, grid, eps, c, margin); only the
# flatness checkers read c.  The lambdas look each checker up by module name
# at call time: a benchmark tracer that replaces the module attributes must
# still see the calls, which a table of the function objects would hide.
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
