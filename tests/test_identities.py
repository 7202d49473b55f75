import math

import numpy as np
import pytest

from prodsurf import codazzi, identities
from prodsurf.geometry import (
    MinimalSurfaceError,
    SurfaceSpec,
    aux_det_sum,
    evaluate_chart,
    grid_geometry,
    grid_points,
)
from prodsurf.spaceforms import make_ambient, polar, sn_cs, vecdot
from prodsurf.identities import (
    ResidualReport,
    _alpha_t,
    _g_trace,
    ambient_codazzi_defect,
    ambient_codazzi_residual,
    curvature_formula_residual,
    curvature_formula_terms,
    gauss_equation_residual,
    grid_report,
    mu_estimate,
    mu_integrand,
    pmc_residual,
    run_suite,
    t_field_alpha_residual,
    t_field_grad_residual,
    t_laplacian_residual,
)

from conftest import generic_chart, get_surface
from oracles import fd1, fd_ambient_codazzi_residual


def _cmc_graph():
    """The H = 1/2 rotational graph (cosh r, sinh r cos w, sinh r sin w, 2 cosh(r/2)) in H^2 x R.

    A rotational CMC surface: S == 0, |H| = 1/2, and A_H T != 0.
    """
    def chart(r, w):
        return polar(-1.0, r, w) + [2.0 * sn_cs(-1.0, 0.5 * r)[1]]

    return SurfaceSpec("cmc_graph", {}, ((0.3, 1.5), (0.1, 2.0)), make_ambient(-1.0, 2), chart)


def _probe(spec, frac=(0.37, 0.61)):
    (u0, u1), (v0, v1) = spec.domain
    return (u0 + frac[0] * (u1 - u0), v0 + frac[1] * (v1 - v0))


def _at(spec, frac=(0.37, 0.61)):
    """The geometry at the probe point, a batch of one."""
    return evaluate_chart(spec, *_probe(spec, frac))


def _pmc_at(spec):
    """The probe point's geometry and its PMC operator's jet matrix."""
    gp = _at(spec)
    return gp, codazzi.pmc_operator_jets(gp)


def _paired(gp, xi):
    """g^{ac} <R_c, xi> of the ambient Codazzi defect and a flat vector per
    point: the chart vector the Codazzi equation gives for that normal."""
    sig = np.asarray(gp.spec.ambient.signature)
    low = vecdot(sig * ambient_codazzi_defect(gp), xi[:, None, :])
    return np.matmul(gp.ginv_val, low[..., None])[..., 0]


# The finite-difference pairing's surfaces: cor32 and perturbed_control, where the
# curvature term is non-zero, and the pad=2 cylinders, with three normal directions.
FD_SURFACES = [
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
    ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.5, "pad": 2}),
    ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
]


class TestAmbientCodazzi:
    def test_slice_parallel_normal(self):
        gp = _at(get_surface("slice", kappa=1.0))
        assert gp.chart_norm(_paired(gp, gp.eta_val))[0] < 1e-12

    @pytest.mark.parametrize("sid,params", FD_SURFACES, ids=[s[0] for s in FD_SURFACES])
    def test_pairing_matches_the_fd_oracle(self, sid, params):
        # per frame vector and for eta: g^{-1} <R, xi> against the finite-difference
        # frame form, which differences A_xi and xi and agrees at O(h^2)
        spec = get_surface(sid, **params)
        gp = _at(spec)
        u, v = float(gp.u[0]), float(gp.v[0])
        for xi in [*gp.xi[0], gp.eta_val[0]]:
            paired = gp.chart_norm(_paired(gp, xi[None]))[0]
            assert paired < 1e-13
            err_h, err_h2 = (abs(fd_ambient_codazzi_residual(spec, u, v, xi, h) - paired)
                             for h in (1e-3, 5e-4))
            assert err_h < 1e-5
            if err_h > 1e-10:
                assert err_h / max(err_h2, 1e-14) > 3.5

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.0])
    def test_generic_chart(self, kappa):
        # the curvature term is live: it cancels the rest of the defect
        gp = grid_geometry(generic_chart(kappa), 9, 9)
        assert ambient_codazzi_residual(gp).max() < 1e-14
        assert kappa == 0 or np.abs(vecdot(gp.eta_val, gp.eta_val)).min() > 1e-2

    def test_circle_cylinder_horizontal_normal(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        assert ambient_codazzi_residual(_at(spec)) < 1e-9

    def test_cor32_frame(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 4)
        assert ambient_codazzi_residual(_at(spec)) < 1e-8

    def test_holds_on_any_surface(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        assert ambient_codazzi_residual(_at(spec)) < 1e-8

    def test_fd_oracle_step_halving(self):
        # both sides nonzero on the helical surface; the finite-difference
        # covariant derivative must agree at O(h^2)
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 4)
        u, v = _probe(spec)
        for xi in spec.geom(u, v).xi[0]:
            err_h = fd_ambient_codazzi_residual(spec, u, v, xi, 1e-3)
            err_h2 = fd_ambient_codazzi_residual(spec, u, v, xi, 5e-4)
            assert err_h < 1e-5
            if err_h > 1e-10:
                assert err_h / max(err_h2, 1e-14) > 3.5

    def test_nearly_tangent_flat_axis(self):
        # at (-0.24, -0.96) the first flat axis is nearly tangent: its normal
        # part has |w|^2 = 2.9e-14, below where a jet square root is defined
        def chart(u, v):
            return [u, v, 1e-6 * u * u * u + 0.2 * v]

        spec = SurfaceSpec("graph", {}, ((-1.0, 1.0), (-1.0, 1.0)), make_ambient(0.0, 2), chart)
        res = ambient_codazzi_residual(grid_geometry(spec, 9, 9))
        assert np.all(res <= 1e-8)


# Non-minimal charts on which every sum over a normal frame is compared with its
# contraction of alpha: catalog hypersurfaces and pad=2 cylinders, and generic charts
# in M^4(kappa) x R, where the auxiliary det sum is not zero.
SUM_CHARTS = [
    *(get_surface(sid, **params) for sid, params in [
        ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2, "warp": 0.3}),
        ("circle_cylinder", {"kappa": -1.0, "r": 0.4, "warp": -0.2, "pad": 2}),
        ("circle_cylinder", {"kappa": -1.0, "r": 4.8}),
        ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
        ("perturbed_control", {"kappa": -3.0, "r": 0.3}),
    ]),
    *(generic_chart(kappa) for kappa in (1.0, -1.0, 0.0)),
]


def _orthogonal_block(spec, seed):
    """``spec`` with a random orthogonal map applied to its space-form block,
    an isometry of the ambient space for kappa >= 0."""
    m = spec.ambient.flat_dim - 1
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]

    def chart(u, v):
        f = spec.chart(u, v)
        return [sum((float(q[i, j]) * f[j] for j in range(1, m)), float(q[i, 0]) * f[0])
                for i in range(m)] + [f[m]]

    return SurfaceSpec(spec.catalog_id, spec.params, spec.domain, spec.ambient, chart)


class TestFrameFreeSums:
    @pytest.mark.parametrize("spec", SUM_CHARTS,
                             ids=[f"{s.catalog_id}{s.params}" for s in SUM_CHARTS])
    def test_contractions_equal_the_frame_sums(self, spec):
        gp = grid_geometry(spec, 9, 9)
        a = gp.A  # one matrix per frame vector, H/|H| first
        at = np.matmul(a, gp.T_val[:, None, :, None])[..., 0]
        frame = {  # mu: |alpha|^2 less the H/|H| term, the sum over a[:, 1:]
            "aux_det_sum": (aux_det_sum(gp), np.linalg.det(a[:, 1:]).sum(axis=1)),
            "mu_integrand": (mu_integrand(gp), np.trace(np.matmul(a, a)[:, 1:], axis1=-2,
                                                        axis2=-1).sum(axis=1)),
            "sum |A_i T|^2": (_g_trace(gp, _alpha_t(gp)),
                              np.einsum("nia,nab,nib->n", at, gp.g_val, at)),
        }
        # relative to |alpha|^2 with Euclidean flat products, the size of the terms
        # that cancel in a Minkowski product (7e3 times |alpha|^2 on the r=4.8 cylinder)
        alpha = gp.alpha_val
        flat = np.einsum("nac,nbd,nabk,ncdk->n", gp.ginv_val, gp.ginv_val, alpha, alpha)
        scale = np.maximum(1.0, flat)
        for name, (contraction, frame_sum) in frame.items():
            assert np.all(np.abs(contraction - frame_sum) <= 1e-12 * scale), name

    def test_generic_charts_exercise_every_sum(self):
        for spec in SUM_CHARTS[-3:]:
            gp = grid_geometry(spec, 9, 9)
            assert np.abs(aux_det_sum(gp)).min() > 1e-2
            assert _g_trace(gp, _alpha_t(gp)).min() > 1e-3
            assert mu_integrand(gp).min() > 1e-2

    @pytest.mark.parametrize("spec", [
        get_surface("circle_cylinder", kappa=0.0, r=0.7, pad=2),
        get_surface("circle_cylinder", kappa=1.0, r=0.6, pad=2),
        generic_chart(0.0), generic_chart(1.0),
    ], ids=["pad2_R4", "pad2_S4", "generic_R4", "generic_S4"])
    def test_rows_ignore_a_rotation_of_the_ambient_axes(self, spec):
        gp = grid_geometry(spec, 9, 9)
        for seed in (1, 2):
            turned = grid_geometry(_orthogonal_block(spec, seed), 9, 9)
            assert np.abs(ambient_codazzi_residual(turned)
                          - ambient_codazzi_residual(gp)).max() < 1e-13
            for fn in (aux_det_sum, mu_integrand, t_laplacian_residual):
                assert np.allclose(fn(turned), fn(gp), rtol=1e-12, atol=1e-13), fn.__name__


class TestCurvatureFormula:
    def test_circle_cylinder_positive_ambient(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        assert curvature_formula_residual(*_pmc_at(spec)) < 1e-10

    def test_hand_expansion_term_by_term(self):
        # r = pi/4, kappa = 1: |H| = 1/2, |T| = 1, |S|^2 = 2, det S = -1,
        # <ST, T> = -1, so the terms are 0, 1/4, -1, -1/4, +1, 0
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        terms = curvature_formula_terms(*_pmc_at(spec))
        assert terms["ambient"] == pytest.approx(0.0, abs=1e-12)
        assert terms["mean_sq"] == pytest.approx(0.25, abs=1e-12)
        assert terms["operator_norm"] == pytest.approx(-1.0, abs=1e-12)
        assert terms["vertical_quartic"] == pytest.approx(-0.25, abs=1e-12)
        assert terms["operator_vertical"] == pytest.approx(1.0, abs=1e-12)
        assert terms["aux_det_sum"] == pytest.approx(0.0, abs=1e-12)
        assert terms["K"] == pytest.approx(0.0, abs=1e-12)
        assert terms["residual"] < 1e-12

    def test_hyperbolic_ambient(self):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        assert curvature_formula_residual(*_pmc_at(spec)) < 1e-9

    def test_minimal_rejected(self):
        spec = get_surface("slice", kappa=1.0)
        gp = _at(spec)
        with pytest.raises(MinimalSurfaceError):
            curvature_formula_residual(gp, codazzi.angle_operator_jets(gp))


class TestTLaplacian:
    def test_slice(self):
        spec = get_surface("slice", kappa=1.0)
        assert t_laplacian_residual(_at(spec)) < 1e-12

    def test_vertical_cylinder(self):
        spec = get_surface("vertical_geodesic_cylinder", kappa=-1.0)
        assert t_laplacian_residual(_at(spec)) < 1e-10

    def test_circle_cylinder(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        assert t_laplacian_residual(_at(spec)) < 1e-9

    def test_helical_minimal_surface(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 4)
        assert t_laplacian_residual(_at(spec)) < 1e-9

    def test_rotational_cmc_graph_sums_the_whole_frame(self):
        # |A_{H/|H|} T|^2 is the whole sum on this hypersurface; dropping it
        # left a residual of 3.7e-2
        spec = _cmc_graph()
        reports = {r.identity_id: r for r in run_suite(spec, grid=(9, 9))}
        assert reports["t_laplacian"].max_abs < 1e-13
        assert all(r.passed for r in reports.values())
        gp = spec.geom(0.9, 1.0)
        assert gp.normH == pytest.approx(0.5, abs=1e-12)
        w = gp.A[0, 0] @ gp.T_val[0]
        assert float(w @ gp.g_val[0] @ w) > 1e-2

    @pytest.mark.parametrize("params", [
        {"kappa": 1.0, "r": math.pi / 4}, {"kappa": -1.0, "r": 0.3},
        {"kappa": 1.0, "r": 0.6, "pad": 2}, {"kappa": -1.0, "r": 0.5, "pad": 2},
    ])
    def test_cylinders_over_the_grid(self, params):
        spec = get_surface("circle_cylinder", **params)
        assert t_laplacian_residual(grid_geometry(spec, 9, 9)).max() < 1e-14

    def test_fails_without_parallel_mean_curvature(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        u, v = np.array([_probe(spec), _probe(spec, (0.2, 0.8))]).T
        assert t_laplacian_residual(evaluate_chart(spec, u, v)).max() > 1e-4


class TestPmcReport:
    def test_circle_cylinder_parallel(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        report = pmc_residual(grid_geometry(spec, 9, 9), (9, 9))
        assert report.max_abs < 1e-9
        assert report.passed

    def test_perturbed_control_fails(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        report = pmc_residual(grid_geometry(spec, 9, 9), (9, 9))
        assert report.max_abs > 1e-3
        assert not report.passed
        # independent check: |H| genuinely varies along v
        u0, _ = _probe(spec)

        def h_of_v(v: float) -> float:
            return spec.geom(u0, v).normH[0]

        slopes = [abs(fd1(h_of_v, v, 1e-5)) for v in (1.0, 2.0, 4.0)]
        assert max(slopes) > 1e-3

    def test_slice_flagged_minimal(self):
        spec = get_surface("slice", kappa=-1.0)
        report = pmc_residual(grid_geometry(spec, 7, 7), (7, 7))
        assert report.max_abs < 1e-12
        assert any("minimal" in w for w in report.warnings)


class TestMuEstimate:
    def test_hypersurface_is_zero(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        mu, cross = mu_estimate(grid_geometry(spec, 7, 7))
        assert abs(mu) < 1e-10
        assert cross < 1e-10

    def test_padded_embedding_adds_nothing(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=0.6, pad=2)
        mu, cross = mu_estimate(grid_geometry(spec, 7, 7))
        assert abs(mu) < 1e-9
        assert cross < 1e-9

    def test_minimal_rejected(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 4)
        with pytest.raises(MinimalSurfaceError):
            mu_estimate(grid_geometry(spec, 5, 5))

    def test_nan_integrand_reaches_both_results(self, monkeypatch):
        spec = get_surface("circle_cylinder", kappa=1.0, r=0.6, pad=2)
        original = identities.mu_integrand

        def one_nan(gp):
            values = np.array(original(gp))
            values[12] = math.nan
            return values

        monkeypatch.setattr(identities, "mu_integrand", one_nan)
        mu, cross = mu_estimate(grid_geometry(spec, 5, 5))
        assert math.isnan(mu) and math.isnan(cross)


class TestGaussEquation:
    def test_slice_totally_geodesic(self):
        spec = get_surface("slice", kappa=1.0)
        assert gauss_equation_residual(_at(spec)) < 1e-10

    @pytest.mark.parametrize("sid,params", [
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
        ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
        ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
        ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
    ])
    def test_structure_equation_everywhere(self, sid, params):
        spec = get_surface(sid, **params)
        for frac in [(0.3, 0.4), (0.7, 0.2), (0.5, 0.9)]:
            assert gauss_equation_residual(_at(spec, frac)) < 1e-8

    def test_intrinsic_curvature_fd_oracle(self):
        # the warped chart has genuinely varying Christoffels; differencing
        # them must reproduce the jet-based curvature tensor at O(h^2)
        from oracles import fd_gauss_intrinsic

        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4, warp=0.3)
        u, v = _probe(spec)
        gp = spec.geom(u, v)
        gam, gam_val = gp.gamma, gp.gamma_val[0]
        jet_r = []
        for a in range(2):
            val = gam[a][1][1].du[0] - gam[a][0][1].dv[0]
            val += sum(gam_val[a][0][e] * gam_val[e][1][1] for e in range(2))
            val -= sum(gam_val[a][1][e] * gam_val[e][0][1] for e in range(2))
            jet_r.append(val)
        import numpy as np

        jet_r = np.array(jet_r)
        err_h = np.abs(fd_gauss_intrinsic(spec, u, v, 1e-3) - jet_r).max()
        err_h2 = np.abs(fd_gauss_intrinsic(spec, u, v, 5e-4) - jet_r).max()
        assert err_h < 1e-5
        assert err_h / max(err_h2, 1e-14) > 3.5


class TestTFieldIdentities:
    @pytest.mark.parametrize("sid,params", [
        ("slice", {"kappa": -1.0}),
        ("vertical_geodesic_cylinder", {"kappa": 1.0}),
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
        ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 3}),
        ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
    ])
    def test_vertical_field_relations(self, sid, params):
        spec = get_surface(sid, **params)
        gp = _at(spec)
        assert t_field_grad_residual(gp) < 1e-9
        assert t_field_alpha_residual(gp) < 1e-9


class TestGridReport:
    def test_residuals_do_not_depend_on_grid(self):
        # a point's residual is the same alone and appended to a grid's points
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        u, v = np.array(grid_points(spec, 5, 5)).T
        pu, pv = _probe(spec)
        among = gauss_equation_residual(evaluate_chart(spec, np.r_[u, pu], np.r_[v, pv]))
        assert among[-1] == gauss_equation_residual(_at(spec))[0]

    def test_report_shape(self):
        gp = grid_geometry(get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4), 5, 5)
        report = grid_report(gp, "gauss_equation", lambda: gauss_equation_residual(gp),
                             5, 5, 1e-8)
        assert isinstance(report, ResidualReport)
        assert report.grid == (5, 5)
        assert report.passed == (report.max_abs <= report.tolerance)
        d = report.to_dict()
        assert set(d) == {"identity_id", "grid", "max_abs", "mean_abs", "argmax",
                          "tolerance", "passed", "warnings"}
        pts = {p for p in [tuple(d["argmax"])]}
        assert all(len(p) == 2 for p in pts)

    def test_all_points_skipped_returns_none(self):
        gp = grid_geometry(get_surface("slice", kappa=1.0), 5, 5)

        def always_skip():
            return np.ma.masked_array(np.zeros(25), np.ones(25, dtype=bool))

        assert grid_report(gp, "x", always_skip, 5, 5, 1.0) is None

    def test_partial_skips_warn_and_leave_the_mean(self):
        spec = get_surface("slice", kappa=1.0)

        def residual():
            values = np.full(25, 2.0)
            values[3] = 100.0  # skipped, so neither the maximum nor in the mean
            values[4] = 4.0
            return np.ma.masked_array(values, np.isin(np.arange(25), [0, 3, 10]))

        report = grid_report(grid_geometry(spec, 5, 5), "simons_log", residual, 5, 5, 5.0)
        assert report.warnings == [
            f"skipped at 3 of 25 points: |S| below the floor {codazzi.S_NORM_FLOOR}"]
        assert report.max_abs == 4.0
        assert report.argmax == grid_points(spec, 5, 5, 0.02)[4]
        assert report.mean_abs == pytest.approx((21 * 2.0 + 4.0) / 22)
        assert report.passed

    def test_all_nan_residual_fails(self):
        gp = grid_geometry(get_surface("slice", kappa=1.0), 5, 5)
        report = grid_report(gp, "x", lambda: np.full(25, math.nan), 5, 5, 1.0)
        assert math.isnan(report.max_abs)
        assert not report.passed

    def test_one_nan_residual_fails_and_is_located(self):
        spec = get_surface("slice", kappa=1.0)
        bad = grid_points(spec, 5, 5, 0.02)[7]

        def residual():
            values = np.full(25, 1e-12)
            values[7] = math.nan
            values[20] = 5.0
            return values

        report = grid_report(grid_geometry(spec, 5, 5), "x", residual, 5, 5, 1.0)
        assert math.isnan(report.max_abs)
        assert report.argmax == bad
        assert not report.passed
        assert not report.to_dict()["passed"]

    def test_infinite_residual_fails(self):
        gp = grid_geometry(get_surface("slice", kappa=1.0), 5, 5)
        report = grid_report(gp, "x", lambda: np.full(25, -math.inf), 5, 5, 1.0)
        assert report.max_abs == math.inf
        assert not report.passed

    def test_raw_masked_evaluator_skips_its_masked_points(self):
        # On the slice the angle operator vanishes, so |S| is below the
        # floor everywhere and the stand-in residuals must not be reported.
        from prodsurf import codazzi

        gp = grid_geometry(get_surface("slice", kappa=1.0), 5, 5)
        s = codazzi.angle_operator_jets(gp)
        assert grid_report(gp, "simons_log", lambda: codazzi.simons_log_residual(gp, s),
                           5, 5, 1e-7) is None

    def test_partly_masked_evaluator_warns_and_leaves_the_mean(self):
        gp = grid_geometry(get_surface("slice", kappa=1.0), 5, 5)

        def residual():
            values = np.full(25, 2.0)
            values[3] = 100.0
            return np.ma.masked_array(values, np.arange(25) == 3)

        report = grid_report(gp, "x", residual, 5, 5, 5.0)
        assert report.warnings == [
            "skipped at 1 of 25 points: identity undefined (masked by its evaluator)"]
        assert report.max_abs == 2.0
        assert report.mean_abs == 2.0
        assert report.passed


class TestClassification:
    def test_conditioning_band_warns(self):
        # radius tuned so |H| = sqrt(k) cot(sqrt(k) r)/2 sits inside the
        # ill-conditioned band between the minimality threshold and 1e-6
        from prodsurf import catalog
        from prodsurf.identities import classify_minimality

        spec = catalog.instantiate("circle_cylinder",
                                   {"kappa": 1.0, "r": math.pi / 2 - 2e-7})
        gp = spec.geom(1.0, 0.0)
        assert 1e-8 < gp.normH < 1e-6
        minimal, warnings = classify_minimality(grid_geometry(spec, 5, 5))
        assert not minimal
        assert any("conditioning band" in w for w in warnings)

    def test_clean_surfaces_have_no_band_points(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        minimal, warnings = classify_minimality_helper(spec)
        assert not minimal and not warnings
        spec = get_surface("slice", kappa=1.0)
        minimal, warnings = classify_minimality_helper(spec)
        assert minimal and not warnings


def classify_minimality_helper(spec):
    from prodsurf.identities import classify_minimality

    return classify_minimality(grid_geometry(spec, 5, 5))


class TestRunSuite:
    def test_minimal_class_runs_angle_suite(self):
        spec = get_surface("slice", kappa=-1.0)
        reports = run_suite(spec, grid=(5, 5))
        ids = [r.identity_id for r in reports]
        assert "codazzi_angle" in ids
        assert "codazzi_pmc" not in ids
        assert "curvature_formula" not in ids
        assert "simons_log" not in ids  # angle operator vanishes identically
        assert all(r.passed for r in reports)

    def test_pmc_class_runs_full_suite(self):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        reports = run_suite(spec, grid=(5, 5))
        ids = [r.identity_id for r in reports]
        for expected in ["codazzi_pmc", "simons_sq", "simons_reduced", "simons_log",
                         "metric_change", "inverse_operator_codazzi", "ambient_codazzi",
                         "gauss_equation", "curvature_formula", "t_laplacian", "pmc",
                         "t_field_grad", "t_field_alpha", "mu_consistency"]:
            assert expected in ids
        assert all(r.passed for r in reports)

    def test_runs_on_numpy_before_2(self, monkeypatch):
        # pyproject.toml admits NumPy 1.24, which has no np.vecdot.
        from prodsurf import theorems

        monkeypatch.delattr(np, "vecdot", raising=False)
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        assert all(r.passed for r in run_suite(spec, grid=(5, 5)))
        spec = get_surface("vertical_geodesic_cylinder", kappa=-1.0)
        verdict = theorems.run_checker("cor", spec, (5, 5))
        assert any(c.claim == "vertical_cylinder_eta_zero" for c in verdict.conclusion_checked)

    def test_negative_control_fails_the_right_identities(self):
        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        reports = {r.identity_id: r for r in run_suite(spec, grid=(7, 7))}
        assert not reports["pmc"].passed
        assert not reports["codazzi_pmc"].passed
        assert reports["pmc"].max_abs > 1e-3
        assert reports["codazzi_pmc"].max_abs > 1e-3
        # structural identities hold for any surface in the model
        assert reports["ambient_codazzi"].passed
        assert reports["gauss_equation"].passed
        assert reports["ambient_codazzi"].max_abs < 1e-8
        assert reports["gauss_equation"].max_abs < 1e-8

    def test_tolerance_override(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        reports = run_suite(spec, grid=(5, 5), tolerances={"pmc": 1e-30})
        by_id = {r.identity_id: r for r in reports}
        assert not by_id["pmc"].passed
