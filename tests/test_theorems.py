import math

import numpy as np
import pytest

from prodsurf import codazzi, identities, theorems
from prodsurf.theorems import (
    GateError,
    STATUS_CONSISTENT,
    STATUS_COUNTEREXAMPLE,
    STATUS_INAPPLICABLE,
    check_codazzi_dichotomy,
    check_minimal_angle,
    check_pmc_flatness,
    check_pmc_flatness_mu,
    run_checker,
)

from conftest import get_surface

GRID = (9, 9)


class TestDichotomy:
    def test_vertical_cylinder_negative_branch(self):
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        v = check_codazzi_dichotomy(spec, grid=GRID, eps=0.1)
        assert v.applicable
        assert v.status == STATUS_CONSISTENT
        by_name = {h.name: h for h in v.hypotheses}
        assert by_name["absdet_at_least_eps"].satisfied  # |det| = 1/4 >= 0.1
        claims = {c.claim for c in v.conclusion_checked}
        assert {"detS_constant", "K_zero"} <= claims

    def test_both_branches_list_their_claims_in_order(self):
        # |det S| = 1/4 on the kappa=1 vertical cylinder and K = 0: at eps = 1/4
        # both branches hold, and each adds its claims, detS_constant twice
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        v = check_codazzi_dichotomy(spec, grid=GRID, eps=0.25)
        assert [h.name for h in v.hypotheses] == [
            "K_nonnegative", "absdet_at_most_eps", "K_nonpositive", "absdet_at_least_eps"]
        assert all(h.satisfied for h in v.hypotheses)
        assert [c.claim for c in v.conclusion_checked] == [
            "detS_constant", "K_detS_zero", "detS_constant", "K_zero"]
        assert v.status == STATUS_CONSISTENT

    def test_cor32_with_angle_operator(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 4)
        v = check_codazzi_dichotomy(spec, grid=GRID, eps=0.05)
        # det = -|T|^4/4 = -1/16, constant; flat surface
        assert v.applicable
        assert v.status == STATUS_CONSISTENT

    def test_slice_zero_operator_positive_branch(self):
        spec = get_surface("slice", kappa=1.0)
        v = check_codazzi_dichotomy(spec, grid=GRID, eps=0.1)
        by_name = {h.name: h for h in v.hypotheses}
        assert by_name["K_nonnegative"].satisfied
        assert by_name["absdet_at_most_eps"].satisfied
        assert not by_name["absdet_at_least_eps"].satisfied
        assert v.status == STATUS_CONSISTENT

    def test_non_codazzi_operator_gated(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        with pytest.raises(GateError):
            check_codazzi_dichotomy(spec, grid=GRID, eps=0.1)


class TestPmcFlatness:
    def test_hyperbolic_ambient_margin(self):
        # closed form: K - |H|^2 - kappa = -coth(0.3)^2/4 + 1 ~ -1.946
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        v = check_pmc_flatness(spec, grid=GRID, eps=1.0)
        assert v.applicable and v.status == STATUS_CONSISTENT
        margin = {h.name: h.margin for h in v.hypotheses}["deficit_at_most_minus_eps"]
        expected = -1.0 - (0.0 - (1.0 / math.tanh(0.3)) ** 2 / 4.0 + 1.0)
        assert margin == pytest.approx(expected, abs=1e-9)

    def test_spherical_ambient_small_radius(self):
        # cot(pi/8) = 1 + sqrt(2); 4 |H|^2 - 1 ~ 4.83 > 0
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 8)
        v = check_pmc_flatness(spec, grid=GRID, eps=0.1, c=0.0)
        assert v.applicable and v.status == STATUS_CONSISTENT
        margin = {h.name: h.margin for h in v.hypotheses}["mean_curvature_dominates"]
        assert margin == pytest.approx(4.0 * ((1 + math.sqrt(2)) / 2) ** 2 - 1.0,
                                       abs=1e-9)

    def test_boundary_radius_inapplicable(self):
        # r = pi/4: 4 |H|^2 - kappa = 0, strict positivity fails
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        v = check_pmc_flatness(spec, grid=GRID, eps=0.1, c=0.0)
        assert not v.applicable
        assert v.status == STATUS_INAPPLICABLE
        margin = {h.name: h.margin for h in v.hypotheses}["mean_curvature_dominates"]
        assert margin == pytest.approx(0.0, abs=1e-10)

    def test_minimal_surface_gated(self):
        spec = get_surface("slice", kappa=1.0)
        with pytest.raises(GateError):
            check_pmc_flatness(spec, grid=GRID, eps=0.1)

    def test_flat_ambient_gated(self):
        spec = get_surface("circle_cylinder", kappa=0.0, r=1.0)
        with pytest.raises(GateError):
            check_pmc_flatness(spec, grid=GRID, eps=0.1)


class TestPmcFlatnessMu:
    def test_hypersurface_matches_frame_version(self):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        v_mu = check_pmc_flatness_mu(spec, grid=GRID, eps=1.0)
        v_fr = check_pmc_flatness(spec, grid=GRID, eps=1.0)
        assert v_mu.applicable == v_fr.applicable
        assert v_mu.status == v_fr.status
        m_mu = {h.name: h.margin for h in v_mu.hypotheses}
        m_fr = {h.name: h.margin for h in v_fr.hypotheses}
        for name in m_mu:
            assert m_mu[name] == pytest.approx(m_fr[name], abs=1e-9)

    def test_padded_embedding(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 8, pad=2)
        v = check_pmc_flatness_mu(spec, grid=GRID, eps=0.1, c=0.0)
        assert v.applicable and v.status == STATUS_CONSISTENT

    def test_pmc_gate_rejects_control(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        with pytest.raises(GateError):
            check_pmc_flatness_mu(spec, grid=GRID, eps=0.1)


class TestMinimalAngle:
    def test_cor32_applicable(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 3)
        v = check_minimal_angle(spec, grid=GRID, eps=0.5)
        assert v.applicable  # |T| = sin(pi/3) ~ 0.866 > 0.5
        assert v.status == STATUS_CONSISTENT
        claims = {c.claim for c in v.conclusion_checked}
        assert {"K_zero", "normT_constant", "angle_operator_norm_identity"} <= claims

    def test_vertical_cylinder_hyperbolic(self):
        spec = get_surface("vertical_geodesic_cylinder", kappa=-1.0)
        v = check_minimal_angle(spec, grid=GRID, eps=0.5)
        assert v.applicable and v.status == STATUS_CONSISTENT
        claims = {c.claim for c in v.conclusion_checked}
        assert "vertical_cylinder_eta_zero" in claims
        assert any("vertical cylinder" in n for n in v.notes)

    def test_slice_angle_hypothesis_fails(self):
        spec = get_surface("slice", kappa=-1.0)
        v = check_minimal_angle(spec, grid=GRID, eps=0.1)
        assert not v.applicable
        assert v.status == STATUS_INAPPLICABLE

    def test_non_minimal_gated(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        with pytest.raises(GateError):
            check_minimal_angle(spec, grid=GRID, eps=0.1)


def _nan_at(monkeypatch, module, name, k=5):
    """Make one point of a batched result NaN."""
    original = getattr(module, name)

    def poisoned(*args, **kwargs):
        values = np.array(original(*args, **kwargs), dtype=float)
        values[k] = math.nan
        return values

    monkeypatch.setattr(module, name, poisoned)


class TestNanFailsTheGates:
    def test_codazzi_gate(self, monkeypatch):
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        _nan_at(monkeypatch, codazzi, "codazzi_residual")
        with pytest.raises(GateError, match="Codazzi gate"):
            check_codazzi_dichotomy(spec, grid=GRID, eps=0.1)

    def test_trace_gate(self, monkeypatch):
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        _nan_at(monkeypatch, codazzi, "trace_residual")
        with pytest.raises(GateError, match="traceless"):
            check_codazzi_dichotomy(spec, grid=GRID, eps=0.1)

    def test_pmc_gate(self, monkeypatch):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        assert check_pmc_flatness(spec, grid=GRID, eps=1.0).status == STATUS_CONSISTENT
        _nan_at(monkeypatch, identities, "normal_connection_derivative")
        with pytest.raises(GateError, match="PMC gate"):
            check_pmc_flatness(spec, grid=GRID, eps=1.0)

    def test_angle_norm_identity(self, monkeypatch):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 3)
        _nan_at(monkeypatch, codazzi, "angle_operator")
        v = check_minimal_angle(spec, grid=GRID, eps=0.5)
        claim = {c.claim: c for c in v.conclusion_checked}["angle_operator_norm_identity"]
        assert math.isnan(claim.residual) and not claim.passed
        assert v.status == STATUS_COUNTEREXAMPLE


CATALOG_SWEEP = [
    ("slice", {"kappa": 1.0}),
    ("slice", {"kappa": -1.0}),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 8}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
    ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
    ("cor32_flat_minimal", {"kappa": 2.0, "theta": 0.5}),
    ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
]
SWEEP_PARAMS = [(0.05, 0.0), (0.1, 0.25), (0.5, 0.5), (1.0, 0.75), (2.0, 0.9)]


class TestSweepInvariants:
    def test_no_counterexample_candidates_across_catalog(self):
        for sid, params in CATALOG_SWEEP:
            spec = get_surface(sid, **params)
            for theorem in ("1.2", "1.3", "3.1", "cor"):
                for eps, c in SWEEP_PARAMS:
                    try:
                        v = run_checker(theorem, spec, grid=(7, 7), eps=eps, c=c)
                    except GateError:
                        continue
                    assert v.status != STATUS_COUNTEREXAMPLE, (sid, theorem, eps, c)

    def test_margin_monotonicity_in_eps(self):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        margins = []
        for eps in (0.5, 1.0, 1.5, 1.9):
            v = check_pmc_flatness(spec, grid=(7, 7), eps=eps)
            margins.append({h.name: h.margin for h in v.hypotheses}
                           ["deficit_at_most_minus_eps"])
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_margin_monotonicity_in_c(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 8)
        first, second = [], []
        for c in (0.0, 0.3, 0.6, 0.9):
            v = check_pmc_flatness(spec, grid=(7, 7), eps=0.1, c=c)
            by_name = {h.name: h.margin for h in v.hypotheses}
            first.append(by_name["excess_at_most_c_H2"])
            second.append(by_name["mean_curvature_dominates"])
        # raising c weakens the first hypothesis and strengthens the second
        assert all(a <= b for a, b in zip(first, first[1:]))
        assert all(a >= b for a, b in zip(second, second[1:]))

    def test_dichotomy_eps_monotonicity(self):
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        pos_margins, neg_margins = [], []
        for eps in (0.05, 0.1, 0.3, 0.6):
            v = check_codazzi_dichotomy(spec, grid=(7, 7), eps=eps)
            by_name = {h.name: h.margin for h in v.hypotheses}
            pos_margins.append(by_name["absdet_at_most_eps"])
            neg_margins.append(by_name["absdet_at_least_eps"])
        assert all(a < b for a, b in zip(pos_margins, pos_margins[1:]))
        assert all(a > b for a, b in zip(neg_margins, neg_margins[1:]))


class TestVerdictSerialization:
    def test_to_dict_schema(self):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        v = check_pmc_flatness(spec, grid=(7, 7), eps=1.0)
        d = v.to_dict()
        assert set(d) == {"theorem_id", "hypotheses", "conclusion_checked",
                          "applicable", "status", "notes"}
        assert all(set(h) == {"name", "satisfied", "margin"} for h in d["hypotheses"])
        assert all(set(c) == {"claim", "residual", "passed"}
                   for c in d["conclusion_checked"])
        assert any("sampled chart" in n for n in d["notes"])

    def test_unknown_theorem(self):
        spec = get_surface("slice", kappa=1.0)
        with pytest.raises(ValueError):
            run_checker("9.9", spec)
