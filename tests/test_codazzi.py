import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodsurf import codazzi
from prodsurf.codazzi import (
    OperatorShapeError,
    angle_operator,
    angle_operator_jets,
    codazzi_residual,
    field_for,
    inverse_codazzi_residual,
    metric_change,
    operator_jets,
    pmc_operator_jets,
    s_norm_det_identity,
    simons_reduced_residual,
    trace_residual,
)
from prodsurf.geometry import MinimalSurfaceError, SurfaceSpec, _values, evaluate_chart
from prodsurf.jets import Jet2, matrix
from prodsurf.spaceforms import make_ambient

from conftest import get_surface
from oracles import fd_codazzi_residual


def _grid(spec, n=4, seed=11):
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = spec.domain
    return [
        (u0 + (0.1 + 0.8 * rng.random()) * (u1 - u0),
         v0 + (0.1 + 0.8 * rng.random()) * (v1 - v0))
        for _ in range(n)
    ]


def _batch(spec, pts):
    """The geometry of the points ``pts`` as one batch."""
    u, v = np.array(pts).T
    return evaluate_chart(spec, u, v)


def _worst(residual):
    """Largest residual of a batch in which no point was masked."""
    assert not np.ma.getmaskarray(residual).any()
    return float(np.max(np.ma.getdata(residual)))


class TestPmcOperator:
    def test_circle_cylinder_eigenvalues(self):
        # hand evaluation in the principal basis: entries +-(cot(r)^2 + kappa)/2
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        s = _values(pmc_operator_jets(spec.geom(1.1, 0.4)))[0]
        assert tuple(np.sort(np.linalg.eigvals(s))) == pytest.approx((-1.0, 1.0), abs=1e-11)
        assert np.linalg.det(s) == pytest.approx(-1.0, abs=1e-11)
        assert float(np.trace(s @ s)) == pytest.approx(2.0, abs=1e-11)

    def test_umbilic_data_cancels(self):
        # synthetic point with A_H = |H|^2 Id and T = 0: every term cancels
        model = make_ambient(1.0, 2)
        order = 2
        one = Jet2.constant(1.0, order)
        zero = Jet2.constant(0.0, order)
        h_norm = 0.7
        h_vec = Jet2.constant([[0.0, 0.0, h_norm, 0.0]], order)
        # alpha(d_u, d_u), alpha(d_u, d_v), alpha(d_v, d_v): H on the diagonal
        alpha = Jet2.constant([[[0.0, 0.0, h_norm * (a == b), 0.0]
                                for a, b in ((0, 0), (0, 1), (1, 1))]], order)
        gp = SimpleNamespace(
            spec=SimpleNamespace(ambient=model),
            normH=h_norm,
            normH2=Jet2.constant(h_norm ** 2, order),
            normT2=zero,
            T_up=Jet2.constant([[0.0, 0.0]], order),
            g=matrix(one, zero, zero, one),
            ginv=matrix(one, zero, zero, one),
            alpha_flat=alpha,
            H=h_vec,
        )
        s = pmc_operator_jets(gp).value
        assert np.abs(s).max() < 1e-14

    def test_minimal_point_rejected(self):
        spec = get_surface("slice", kappa=1.0)
        with pytest.raises(MinimalSurfaceError):
            _values(pmc_operator_jets(spec.geom(1.0, 0.5)))


class TestAngleOperator:
    def test_slice_vanishes(self):
        spec = get_surface("slice", kappa=-1.0)
        s = angle_operator(spec.geom(1.0, 1.0))
        assert np.abs(s).max() < 1e-14

    def test_vertical_cylinder_eigenvalues(self):
        # oracle: T is an eigenvector with eigenvalue -|T|^2/2 = -1/2
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        gp = spec.geom(1.0, 0.0)
        s = angle_operator(gp)[0]
        assert tuple(np.sort(np.linalg.eigvals(s))) == pytest.approx((-0.5, 0.5), abs=1e-12)
        assert np.linalg.det(s) == pytest.approx(-0.25, abs=1e-12)
        st_vec = s @ gp.T_val[0]
        assert st_vec == pytest.approx(-0.5 * gp.T_val[0], abs=1e-12)

    def test_minimal_limit_of_pmc_formula(self):
        # dropping the mean-curvature terms from the PMC formula must leave
        # kappa times the angle operator, entry by entry
        spec = get_surface("cor32_flat_minimal", kappa=2.0, theta=0.5)
        gp = spec.geom(1.0, 1.2)
        kappa = spec.ambient.kappa
        t_low = [gp.g[b][0] * gp.T_up[0] + gp.g[b][1] * gp.T_up[1] for b in range(2)]
        for a in range(2):
            for b in range(2):
                residual = -kappa * (gp.T_up[a] * t_low[b]).value
                if a == b:
                    residual += 0.5 * kappa * gp.normT2.value
                angle_ab = kappa * angle_operator_jets(gp)[a][b].value
                assert residual == pytest.approx(angle_ab, abs=1e-12)


PMC_SURFACES = [
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
    ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2}),
]
MINIMAL_SURFACES = [
    ("slice", {"kappa": 1.0}),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
]


class TestCodazziResidual:
    @pytest.mark.parametrize("sid,params", PMC_SURFACES)
    def test_pmc_operator_is_codazzi(self, sid, params):
        spec = get_surface(sid, **params)
        gp = _batch(spec, _grid(spec))
        assert codazzi_residual(gp, pmc_operator_jets(gp)).max() < 1e-9

    @pytest.mark.parametrize("sid,params", MINIMAL_SURFACES)
    def test_angle_operator_is_codazzi(self, sid, params):
        spec = get_surface(sid, **params)
        gp = _batch(spec, _grid(spec))
        assert codazzi_residual(gp, angle_operator_jets(gp)).max() < 1e-9

    def test_perturbed_control_violates(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        pts = _grid(spec, n=8)
        gp = _batch(spec, pts)
        vals = codazzi_residual(gp, pmc_operator_jets(gp))
        assert vals.max() > 1e-3
        # the finite-difference covariant derivative confirms the value, O(h^2)
        k = int(np.argmax(vals))
        (u, v), jet_val = pts[k], vals[k]
        field = field_for(spec, "pmc")
        err_h = abs(fd_codazzi_residual(spec, u, v, field, 1e-4) - jet_val)
        err_h2 = abs(fd_codazzi_residual(spec, u, v, field, 5e-5) - jet_val)
        assert err_h < 1e-6
        assert err_h / max(err_h2, 1e-14) > 3.5

    def test_warped_chart_oracle_agreement(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4, warp=0.3)
        field = field_for(spec, "pmc")
        for (u, v) in _grid(spec, n=3):
            assert fd_codazzi_residual(spec, u, v, field, 1e-4) < 1e-7


class TestSimons:
    def test_circle_cylinder_all_forms(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        gp = _batch(spec, _grid(spec, n=3))
        s = pmc_operator_jets(gp)
        assert codazzi.simons_quadratic_residual(gp, s).max() < 1e-8
        assert _worst(codazzi.simons_log_residual(gp, s)) < 1e-8
        assert _worst(simons_reduced_residual(gp, s)) < 1e-8

    def test_vertical_cylinder_angle_operator(self):
        spec = get_surface("vertical_geodesic_cylinder", kappa=-1.0)
        gp = _batch(spec, _grid(spec, n=3))
        s = angle_operator_jets(gp)
        assert codazzi.simons_quadratic_residual(gp, s).max() < 1e-8
        assert _worst(codazzi.simons_log_residual(gp, s)) < 1e-8

    def test_cor32_surface(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 3)
        gp = _batch(spec, _grid(spec, n=3))
        s = angle_operator_jets(gp)
        assert codazzi.simons_quadratic_residual(gp, s).max() < 1e-7
        assert _worst(codazzi.simons_log_residual(gp, s)) < 1e-7

    def test_floor_gating(self):
        gp = evaluate_chart(get_surface("slice", kappa=1.0), 1.0, 0.5)
        s = angle_operator_jets(gp)
        assert np.ma.getmaskarray(codazzi.simons_log_residual(gp, s)).all()
        assert np.ma.getmaskarray(simons_reduced_residual(gp, s)).all()
        # the quadratic form stays global
        assert codazzi.simons_quadratic_residual(gp, s) < 1e-12


def _flat_chart():
    """The Cartesian chart (u, v, 0) of the plane z = 0 in R^2 x R, on (-1, 1)^2."""
    def chart(uj, vj):
        return [uj, vj, Jet2.constant(0.0, uj.order)]

    return SurfaceSpec("flat_chart", {}, ((-1.0, 1.0), (-1.0, 1.0)), make_ambient(0.0, 2),
                       chart, minimal=True)


def _varying_norm_codazzi_field():
    """Traceless Codazzi operator with genuinely non-constant norm.

    On a flat chart, [[a, b], [b, -a]] is Codazzi exactly when a - i b is
    holomorphic in u + i v; here a - i b = (u + i v)^2, so |S|^2 = 2 r^4.
    Every catalog operator has constant norm, so this is the one field where
    the gradient and Laplacian terms of the Simons identities are nonzero.
    """
    spec = _flat_chart()

    def matrix_at(u, v):
        uj = Jet2.variable("u", u, 4)
        vj = Jet2.variable("v", v, 4)
        a = uj * uj - vj * vj
        b = -2.0 * uj * vj
        return matrix(a, b, b, -1.0 * a)

    return spec, codazzi.CodazziField("holomorphic", spec, matrix_at)


class TestVaryingNormOperator:
    PTS = [(0.6, 0.3), (-0.4, 0.55), (0.25, -0.7)]

    def _at_points(self):
        spec, field = _varying_norm_codazzi_field()
        gp = _batch(spec, self.PTS)
        return gp, field.matrix_at(gp.u, gp.v)

    def test_cauchy_riemann_makes_it_codazzi(self):
        gp, s = self._at_points()
        assert codazzi_residual(gp, s).max() < 1e-13
        assert trace_residual(s).max() < 1e-14

    def test_norm_is_nonconstant(self):
        spec, field = _varying_norm_codazzi_field()
        s2 = codazzi.norm_sq_jet(field.matrix_at(0.6, 0.3))
        assert s2.value == pytest.approx(2.0 * (0.6 ** 2 + 0.3 ** 2) ** 2)
        assert abs(s2.du) > 0.1

    def test_simons_identities_with_live_gradient_terms(self):
        gp, s = self._at_points()
        assert codazzi.simons_quadratic_residual(gp, s).max() < 1e-12
        assert _worst(codazzi.simons_log_residual(gp, s)) < 1e-12
        assert _worst(simons_reduced_residual(gp, s)) < 1e-12

    def test_kato_equality_for_traceless_codazzi(self):
        # |nabla S|^2 = 2 |grad |S||^2 away from zeros of |S|
        from prodsurf import jets
        from prodsurf.geometry import grad_norm_sq

        gp, s = self._at_points()
        full = codazzi.grad_tensor_norm_sq(gp, s)
        scalar = grad_norm_sq(jets.sqrt(codazzi.norm_sq_jet(s)), gp.ginv_val)
        assert full == pytest.approx(2.0 * scalar, abs=1e-12)
        assert (full > 0.5).all()  # the terms are genuinely alive

    def test_scalar_gradient_variant_is_not_the_identity(self):
        # replacing |nabla S|^2 by |grad |S||^2 breaks the quadratic form on
        # any varying-norm operator; this field is the witness
        from prodsurf import jets
        from prodsurf.geometry import grad_norm_sq, laplace_at

        spec, field = _varying_norm_codazzi_field()
        u, v = 0.6, 0.3
        gp = spec.geom(u, v)
        s2 = codazzi.norm_sq_jet(field.matrix_at(u, v))
        scalar = grad_norm_sq(jets.sqrt(s2), gp.ginv_val)
        wrong = abs(0.5 * laplace_at(s2, gp) - scalar - 2.0 * gp.K_val * s2.value)
        assert wrong > 1.0

    def test_metric_change_conformal_factor(self):
        # <S., S.> = r^4 (du^2 + dv^2); log of the conformal factor is
        # harmonic away from the origin, so the changed metric is still flat
        gp, s = self._at_points()
        gs, ktilde, residual = metric_change(gp, s)
        r4 = (gp.u * gp.u + gp.v * gp.v) ** 2
        assert gs[0][0].value == pytest.approx(r4, rel=1e-12)
        assert gs[1][1].value == pytest.approx(r4, rel=1e-12)
        assert np.abs(gs[0][1].value).max() < 1e-13
        assert _worst(np.abs(ktilde)) < 1e-11
        assert _worst(residual) < 1e-12
        assert _worst(inverse_codazzi_residual(gp, s)) < 1e-12


g_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestNormDetIdentity:
    def test_diagonal_example(self):
        assert s_norm_det_identity(np.diag([1.0, -1.0]), np.eye(2)) == pytest.approx(0.0)

    def test_zero_operator(self):
        assert s_norm_det_identity(np.zeros((2, 2)), np.eye(2)) == pytest.approx(0.0)

    @given(g_entries, g_entries, g_entries, g_entries, g_entries)
    @example(x=1.375, y=0.0, b=1.625, m0=0.0, m1=2.0)  # 1.14e-12 at |S|_F^2 = 1243
    @settings(max_examples=80, deadline=None)
    def test_random_traceless_self_adjoint(self, x, y, b, m0, m1):
        # characteristic polynomial of a traceless 2x2 endomorphism:
        # S^2 = -det(S) Id, so trace(S^2) + 2 det S = 0 identically, up to a
        # roundoff that scales with |S|^2
        g = np.array([[1.0 + x * x, b], [b, 1.0 + y * y]])
        if (1.0 + x * x) * (1.0 + y * y) - b * b < 0.1:
            return
        m = np.array([[m0, m1], [m1, m0 - m1]])
        s0 = np.linalg.inv(g) @ m
        s = s0 - 0.5 * np.trace(s0) * np.eye(2)
        assert s_norm_det_identity(s, g) < 1e-14 * max(1.0, np.sum(s * s))

    def test_non_traceless_rejected(self):
        with pytest.raises(OperatorShapeError):
            s_norm_det_identity(np.eye(2), np.eye(2))


class TestMetricChange:
    def test_circle_cylinder(self):
        gp = evaluate_chart(get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4), 1.0, 0.3)
        gs, ktilde, residual = metric_change(gp, pmc_operator_jets(gp))
        assert _worst(residual) < 1e-8
        assert _worst(np.abs(ktilde)) < 1e-10
        gs_val = gs.value[0]
        assert np.linalg.det(gs_val) > 0 and gs_val[0, 0] > 0

    def test_vertical_cylinder_angle(self):
        gp = evaluate_chart(get_surface("vertical_geodesic_cylinder", kappa=1.0), 1.0, 0.3)
        _, ktilde, residual = metric_change(gp, angle_operator_jets(gp))
        assert _worst(residual) < 1e-8 and _worst(np.abs(ktilde)) < 1e-9

    def test_synthetic_constant_operator_on_flat_chart(self):
        # constant traceless diag(2,-2) on a flat chart: new metric 4*Id,
        # curvature stays zero = K / det S
        gp = evaluate_chart(_flat_chart(), 0.2, 0.1)
        s = Jet2.constant([[[2.0, 0.0], [0.0, -2.0]]], 2)
        gs, ktilde, residual = metric_change(gp, s)
        assert gs[0][0].value == pytest.approx(4.0)
        assert gs[1][1].value == pytest.approx(4.0)
        assert gs[0][1].value == pytest.approx(0.0)
        assert ktilde == pytest.approx(0.0, abs=1e-14)
        assert residual < 1e-14

    def test_singular_operator_is_masked(self):
        gp = evaluate_chart(get_surface("slice", kappa=1.0), 1.0, 0.5)
        _, ktilde, residual = metric_change(gp, angle_operator_jets(gp))
        assert np.ma.getmaskarray(ktilde).all() and np.ma.getmaskarray(residual).all()


class TestInverseOperator:
    @pytest.mark.parametrize("sid,params,kind", [
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}, "pmc"),
        ("circle_cylinder", {"kappa": -1.0, "r": 0.3}, "pmc"),
        # det S ~ -1.2e-8, so det <S., S.> ~ 7e-13 lies below the 1e-12 floor
        # of the metric inverse, which the changed metric's Christoffels must not hit
        ("circle_cylinder", {"kappa": -1.0, "r": 4.9}, "pmc"),
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}, "pmc"),
        ("vertical_geodesic_cylinder", {"kappa": 1.0}, "angle"),
        ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}, "angle"),
    ])
    def test_inverse_is_codazzi_for_new_metric(self, sid, params, kind):
        spec = get_surface(sid, **params)
        gp = _batch(spec, _grid(spec, n=3))
        assert _worst(inverse_codazzi_residual(gp, operator_jets(gp, kind))) < 1e-9


class TestTracelessness:
    @pytest.mark.parametrize("sid,params,kind",
                             [(s, p, "pmc") for s, p in PMC_SURFACES]
                             + [(s, p, "angle") for s, p in MINIMAL_SURFACES])
    def test_trace_vanishes_everywhere(self, sid, params, kind):
        spec = get_surface(sid, **params)
        gp = _batch(spec, _grid(spec))
        assert trace_residual(operator_jets(gp, kind)).max() < 1e-10
