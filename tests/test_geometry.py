import contextlib
import io
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from prodsurf import catalog, cli, geometry, jets, theorems
from prodsurf.cli import main as cli_main
from prodsurf.geometry import (
    DegenerateMetricError,
    MinimalSurfaceError,
    NotNormalError,
    aux_det_sum,
    evaluate_chart,
    gauss_curvature_brioschi,
    grad_norm_sq,
    grid_geometry,
    grid_points,
    normal_connection_derivative,
    shape_operator,
)
from prodsurf.jets import Jet2
from prodsurf.spaceforms import make_ambient

from conftest import generic_chart, get_surface, laplace_beltrami
from oracles import fd_laplace_beltrami, frame_operators, normal_frame, normal_part_values


def _metric_jets(e_fn, f_fn, g_fn, u0, v0, order=4):
    u = Jet2.variable("u", u0, order)
    v = Jet2.variable("v", v0, order)
    f = f_fn(u, v)
    return jets.matrix(e_fn(u, v), f, f, g_fn(u, v))


def _const(x):
    return lambda u, v: Jet2.constant(x, u.order)


class TestEvaluateChart:
    def test_slice_is_totally_geodesic(self):
        for kappa in (1.0, -1.0):
            spec = get_surface("slice", kappa=kappa)
            (u0, u1), (v0, v1) = spec.domain
            gp = spec.geom(u0 + 0.4 * (u1 - u0), v0 + 0.6 * (v1 - v0))
            assert gp.normT == pytest.approx(0.0, abs=1e-12)
            eta_norm = math.sqrt(abs(float(
                np.dot(np.asarray(spec.ambient.signature) * gp.eta_val[0], gp.eta_val[0]))))
            assert eta_norm == pytest.approx(1.0, abs=1e-12)
            assert np.abs(gp.alpha_val).max() < 1e-12
            assert gp.K_val == pytest.approx(kappa, abs=1e-10)

    def test_vertical_cylinder_flat_minimal(self):
        spec = get_surface("vertical_geodesic_cylinder", kappa=1.0)
        gp = spec.geom(1.0, 0.2)
        assert gp.normT == pytest.approx(1.0, abs=1e-12)
        assert np.abs(gp.eta_val).max() < 1e-12
        assert gp.normH == pytest.approx(0.0, abs=1e-12)
        assert gp.K_val == pytest.approx(0.0, abs=1e-12)

    def test_circle_cylinder_closed_forms(self):
        # oracle: principal curvatures of the distance-r circle are cot(r), 0
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        gp = spec.geom(0.9, -0.3)
        assert gp.normH == pytest.approx(0.5, abs=1e-12)
        assert gp.K_val == pytest.approx(0.0, abs=1e-11)
        assert gp.normT == pytest.approx(1.0, abs=1e-12)
        lo, hi = np.sort(np.linalg.eigvals(frame_operators(gp, normal_frame(gp))[0, 0]))
        assert (lo, hi) == pytest.approx((0.0, 1.0), abs=1e-10)

    def test_domain_violation(self):
        spec = get_surface("slice", kappa=1.0)
        with pytest.raises(ValueError):
            spec.geom(100.0, 0.0)


class TestSecondFundamentalFormOracle:
    @pytest.mark.parametrize("sid,params", [
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
        ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
        ("perturbed_control", {"kappa": -1.0, "r": 0.4}),
    ])
    def test_alpha_matches_finite_differences(self, sid, params):
        # independent path: second derivatives of the chart by central
        # differences of chart VALUES, then the same pointwise projections
        spec = get_surface(sid, **params)
        model = spec.ambient
        sig = np.asarray(model.signature)
        (u0d, u1d), (v0d, v1d) = spec.domain
        u0 = u0d + 0.43 * (u1d - u0d)
        v0 = v0d + 0.57 * (v1d - v0d)
        gp = spec.geom(u0, v0)

        def chart_vals(u, v):
            f = spec.chart(Jet2.variable("u", u, 0), Jet2.variable("v", v, 0))
            return np.array([c.value for c in f])

        h = 1e-4

        def fd_second(a, b):
            if a == b:
                step = (h, 0.0) if a == 0 else (0.0, h)
                return (chart_vals(u0 + step[0], v0 + step[1])
                        - 2.0 * chart_vals(u0, v0)
                        + chart_vals(u0 - step[0], v0 - step[1])) / h ** 2
            return (chart_vals(u0 + h, v0 + h) - chart_vals(u0 + h, v0 - h)
                    - chart_vals(u0 - h, v0 + h) + chart_vals(u0 - h, v0 - h)) \
                / (4.0 * h ** 2)

        f_val = chart_vals(u0, v0)
        fu_val, fv_val = (t[0] for t in gp.tangent_vals)
        for a in range(2):
            for b in range(2):
                w = fd_second(a, b).copy()
                if model.kappa != 0:
                    inner = float(np.dot(sig[:-1] * w[:-1], f_val[:-1]))
                    w[:-1] -= model.kappa * inner * f_val[:-1]
                coeff = gp.ginv_val[0] @ np.array([
                    float(np.dot(sig * w, fu_val)), float(np.dot(sig * w, fv_val))])
                w -= coeff[0] * fu_val + coeff[1] * fv_val
                assert np.abs(w - gp.alpha_val[0, a, b]).max() < 1e-6


class TestBrioschi:
    def test_flat_chart(self):
        g = _metric_jets(_const(1.0), _const(0.0), _const(1.0), 0.3, 0.4)
        assert gauss_curvature_brioschi(g).value == pytest.approx(0.0, abs=1e-15)

    def test_round_sphere_metric(self):
        g = _metric_jets(
            _const(1.0), _const(0.0), lambda u, v: jets.sin(u) ** 2, 0.8, 0.1
        )
        assert gauss_curvature_brioschi(g).value == pytest.approx(1.0, abs=1e-12)

    def test_circle_cylinder_product_metric(self):
        r = math.pi / 4
        g = _metric_jets(_const(math.sin(r) ** 2), _const(0.0), _const(1.0), 0.5, 0.5)
        assert gauss_curvature_brioschi(g).value == pytest.approx(0.0, abs=1e-11)

    def test_degenerate_rejected(self):
        g = _metric_jets(_const(1.0), _const(1.0), _const(1.0), 0.0, 0.0)
        with pytest.raises(DegenerateMetricError):
            gauss_curvature_brioschi(g)

    @pytest.mark.parametrize("order", [0, 1])
    def test_low_order_metric_raises_the_order_guard(self, order):
        g = _metric_jets(_const(1.0), _const(0.0), lambda u, v: jets.sin(u) ** 2, 0.8, 0.1,
                         order=order)
        with pytest.raises(ValueError, match="needs a jet of order >= 1, got order 0"):
            gauss_curvature_brioschi(g)

    @pytest.mark.parametrize("n", [17, 65])
    @pytest.mark.parametrize("catalog_id,params", [
        ("slice", {"kappa": 0.0}),
        ("slice", {"kappa": -1.0}),
        ("vertical_geodesic_cylinder", {"kappa": 1.0}),
        ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
        ("circle_cylinder", {"kappa": 1.0, "r": 0.7, "pad": 2.0, "warp": 0.3}),
        ("circle_cylinder", {"kappa": -1.0, "r": 4.8}),
        ("circle_cylinder", {"kappa": 0.0, "r": 0.5}),
        ("cor32_flat_minimal", {"kappa": 1.0, "theta": 0.7}),
        ("perturbed_control", {"kappa": -1.0, "r": 0.8}),
        (None, {}),
    ])
    def test_zero_corner_determinant_matches_the_full_expansion(self, catalog_id, params, n):
        """K from both determinants at once, the second without its zero corner,
        has the bits of the full 3x3 expansion of each matrix."""
        if catalog_id is None:  # random jets, with -0.0 entries past a safe metric value
            rng = np.random.default_rng(n)
            c = rng.standard_normal((3, n * n, jets.NCOEF))
            c[rng.random(c.shape) < 0.2] = -0.0
            c[:, :, 0] = [[2.0], [0.5], [3.0]]
            E, F, G = (Jet2(np.ascontiguousarray(x.T).T, 4) for x in c)
            g = jets.matrix(E, F, F, G)
        else:
            g = grid_geometry(get_surface(catalog_id, **params), n, n).g
        E, F, G = g[0, 0], g[0, 1], g[1, 1]
        Eu, Ev, Gu, Gv, Fu, Fv = E.d_u(), E.d_v(), G.d_u(), G.d_v(), F.d_u(), F.d_v()
        Evv, Guu, Fuv = Ev.d_v(), Gu.d_u(), Fu.d_v()
        E, F, G, Eu, Ev, Gu, Gv, Fu, Fv = (x.truncate(Evv.order)
                                           for x in (E, F, G, Eu, Ev, Gu, Gv, Fu, Fv))
        m1 = [[-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
              [Fv - 0.5 * Gu, E, F],
              [0.5 * Gv, F, G]]
        m2 = [[Jet2.constant(0.0, E.order), 0.5 * Ev, 0.5 * Gu],
              [0.5 * Ev, E, F],
              [0.5 * Gu, F, G]]
        det = E * G - F * F
        want = ((_det3(m1) - _det3(m2)) / (det * det)).c
        got = gauss_curvature_brioschi(g).c
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _det3(m):
    """The full first-row expansion of a 3x3 matrix of scalar jets."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


class TestShapeOperator:
    def test_slice_all_zero(self):
        spec = get_surface("slice", kappa=1.0)
        gp = spec.geom(1.0, 0.5)
        assert np.abs(shape_operator(gp, normal_frame(gp)[0, 0])).max() < 1e-12

    def test_circle_cylinder_eigenvalues(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        gp = spec.geom(2.0, 0.1)
        a = shape_operator(gp, gp.H_val / gp.normH[:, None])[0]
        assert tuple(np.sort(np.linalg.eigvals(a))) == pytest.approx((0.0, 1.0), abs=1e-10)

    def test_linearity_in_normal(self):
        spec = get_surface("circle_cylinder", kappa=-1.0, r=0.3)
        gp = spec.geom(1.0, 0.0)
        xi = normal_frame(gp)[0, 0]
        a1 = shape_operator(gp, xi)
        a2 = shape_operator(gp, 2.0 * xi)
        assert np.allclose(a2, 2.0 * a1, atol=1e-12)

    def test_non_normal_rejected(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        gp = spec.geom(2.0, 0.1)
        tangent = np.array([c.value for c in gp.fu])
        with pytest.raises(NotNormalError):
            shape_operator(gp, normal_frame(gp)[0, 0] + 0.5 * tangent)


class TestNormalConnection:
    def test_slice_vertical_field_parallel(self):
        gp = evaluate_chart(get_surface("slice", kappa=1.0), 1.0, 0.5)
        assert np.abs(normal_connection_derivative(gp, gp.eta)).max() < 1e-12

    def test_pmc_surface_has_parallel_h(self):
        gp = evaluate_chart(get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4), 1.3, 0.2)
        assert np.abs(normal_connection_derivative(gp, gp.H)).max() < 1e-9

    def test_warped_chart_same_surface(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4, warp=0.3)
        gp = evaluate_chart(spec, 1.3, 0.2)
        assert np.abs(normal_connection_derivative(gp, gp.H)).max() < 1e-9

    def test_vanishing_normal_part_of_vertical_field(self):
        # the cylinder's vertical field is tangent, so eta == 0 stays parallel
        gp = evaluate_chart(get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4), 1.3, 0.2)
        assert np.abs(normal_connection_derivative(gp, gp.eta)).max() < 1e-12

    def test_non_normal_field_rejected(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4)
        gp = evaluate_chart(spec, 1.0, 0.0)
        with pytest.raises(NotNormalError, match="tangential"):
            normal_connection_derivative(gp, gp.fu + gp.H)

    def test_radial_field_rejected(self):
        # the block part of f is orthogonal to the surface in the flat space,
        # but is the sphere's position normal: not in the product tangent space
        gp = grid_geometry(get_surface("circle_cylinder", kappa=1.0, r=math.pi / 4), 3, 3)
        c = gp.f.c.copy()
        c[:, gp.spec.ambient.t_index] = 0.0
        with pytest.raises(NotNormalError, match="radial"):
            normal_connection_derivative(gp, gp.H + Jet2(c, gp.f.order))

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.0])
    def test_both_directions_match_the_value_projection(self, kappa):
        # d_u then d_v, each the value projection of that derivative of the field
        gp = grid_geometry(generic_chart(kappa), 5, 5)
        for w in (gp.H, gp.eta):
            d = normal_connection_derivative(gp, w)
            assert d.shape == (25, 2, gp.spec.ambient.flat_dim)
            for a in range(2):
                assert np.abs(d[:, a] - normal_part_values(gp, w.gradient[..., a])).max() < 1e-15


def _normal_part_charts():
    return [*(catalog.instantiate("circle_cylinder", {"kappa": k, "r": 0.6, "pad": 2})
              for k in (1.0, -1.0, 0.0)),
            get_surface("perturbed_control", kappa=1.0, r=math.pi / 4),
            *(generic_chart(k) for k in (1.0, -1.0, 0.0))]


class TestNormalPart:
    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.0])
    def test_one_vector_stands_for_every_point(self, kappa):
        # as in shape_operator, one flat vector is that vector at every point
        spec = catalog.instantiate("circle_cylinder", {"kappa": kappa, "r": 0.6, "pad": 2})
        w = np.linspace(0.3, 1.1, spec.ambient.flat_dim)
        for gp in (grid_geometry(spec, 5, 5), evaluate_chart(spec, 1.0, 0.3)):
            repeated = np.repeat(w[None], len(gp.u), axis=0)
            assert np.array_equal(geometry._normal_part(gp, w),
                                  geometry._normal_part(gp, repeated))

    @pytest.mark.parametrize("spec", _normal_part_charts(),
                             ids=lambda s: f"{s.catalog_id}-{s.params['kappa']}")
    def test_matches_the_value_projection_and_is_idempotent(self, spec):
        gp = grid_geometry(spec, 5, 5)
        rng = np.random.default_rng(7)
        dim = spec.ambient.flat_dim
        for w in (rng.standard_normal((25, 3, dim)), np.eye(dim)[None], rng.standard_normal(dim)):
            once = geometry._normal_part(gp, w)
            scale = np.abs(once).max()
            assert np.abs(once - normal_part_values(gp, w)).max() <= 1e-14 * scale
            assert np.abs(geometry._normal_part(gp, once) - once).max() <= 1e-14 * scale


class TestLaplaceBeltrami:
    def test_flat_paraboloid(self):
        u = Jet2.variable("u", 0.7, 4)
        v = Jet2.variable("v", -0.2, 4)
        phi = u * u + v * v
        g = _metric_jets(_const(1.0), _const(0.0), _const(1.0), 0.7, -0.2)
        assert laplace_beltrami(phi, g) == pytest.approx(4.0, abs=1e-13)

    def test_constant_field(self):
        g = _metric_jets(_const(1.0), _const(0.0), _const(1.0), 0.0, 0.0)
        assert laplace_beltrami(Jet2.constant(3.0, 4), g) == pytest.approx(0.0)

    def test_log_sin_on_round_sphere(self):
        # Lap ln(sin u) = -csc^2 u + cot^2 u = -1 on g = diag(1, sin^2 u)
        u0 = math.pi / 3
        u = Jet2.variable("u", u0, 4)
        g = _metric_jets(_const(1.0), _const(0.0), lambda uu, vv: jets.sin(uu) ** 2,
                         u0, 0.3)
        val = laplace_beltrami(jets.log(jets.sin(u)), g)
        assert val == pytest.approx(-1.0, abs=1e-12)
        # independent divergence-form finite-difference oracle, O(h^2)
        def phi(uu, vv):
            return math.log(math.sin(uu))

        def metric(uu, vv):
            return [[1.0, 0.0], [0.0, math.sin(uu) ** 2]]

        err_h = abs(fd_laplace_beltrami(phi, metric, u0, 0.3, 1e-3) - val)
        err_h2 = abs(fd_laplace_beltrami(phi, metric, u0, 0.3, 5e-4) - val)
        assert err_h < 1e-5
        assert err_h / max(err_h2, 1e-14) > 3.0

    def test_order_too_low(self):
        g = _metric_jets(_const(1.0), _const(0.0), _const(1.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            laplace_beltrami(Jet2.variable("u", 0.0, 1), g)


class TestGradNormSq:
    def test_coordinate_on_flat(self):
        assert grad_norm_sq(Jet2.variable("u", 0.0, 2), np.eye(2)) == pytest.approx(1.0)

    def test_constant(self):
        assert grad_norm_sq(Jet2.constant(5.0, 2), np.eye(2)) == pytest.approx(0.0)

    def test_inverse_metric_scaling(self):
        # g = diag(4, 1), so g^{-1} = diag(1/4, 1)
        ginv = np.diag([0.25, 1.0])
        assert grad_norm_sq(Jet2.variable("u", 0.0, 2), ginv) == pytest.approx(0.25)

    def test_batch_of_gradients(self):
        u = Jet2.variable("u", np.array([0.0, 1.0]), 2)
        ginv = np.array([np.eye(2), np.diag([0.25, 1.0])])
        assert grad_norm_sq(u * u, ginv) == pytest.approx([0.0, 1.0])


ALL_SURFACES = [
    ("slice", {"kappa": 1.0}),
    ("slice", {"kappa": -1.0}),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
    ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
    ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
]


def _sample_points(spec, n=6, seed=7):
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = spec.domain
    return [
        (u0 + (0.05 + 0.9 * rng.random()) * (u1 - u0),
         v0 + (0.05 + 0.9 * rng.random()) * (v1 - v0))
        for _ in range(n)
    ]


class TestPointInvariants:
    @pytest.mark.parametrize("sid,params", ALL_SURFACES)
    def test_structural_invariants(self, sid, params):
        spec = get_surface(sid, **params)
        sig = np.asarray(spec.ambient.signature)
        for (u, v) in _sample_points(spec):
            gp = spec.geom(u, v)
            g_val, eta_val, normH = gp.g_val[0], gp.eta_val[0], gp.normH[0]
            ops = frame_operators(gp, normal_frame(gp))[0]
            assert np.linalg.det(g_val) > 1e-12
            # unit vertical field splits orthogonally
            eta2 = float(np.dot(sig * eta_val, eta_val))
            assert gp.normT2.value[0] + eta2 == pytest.approx(1.0, abs=1e-10)
            # frame traces: 2|H| along the mean-curvature direction, 0 beyond
            if normH > 1e-8:
                assert np.trace(ops[0]) == pytest.approx(2.0 * normH, abs=1e-10)
                for a in ops[1:]:
                    assert abs(np.trace(a)) < 1e-10
            # g-self-adjointness of every shape operator
            for a in ops:
                gs = g_val @ a
                assert abs(gs[0, 1] - gs[1, 0]) < 1e-10
            # trace A_eta = 2 <H, eta>
            a_eta = shape_operator(gp, gp.eta_val)[0]
            h_eta = float(np.dot(sig * gp.H_val[0], eta_val))
            assert np.trace(a_eta) == pytest.approx(2.0 * h_eta, abs=1e-10)

    @pytest.mark.parametrize("spec", [
        get_surface("circle_cylinder", kappa=1.0, r=0.6, pad=2),
        get_surface("circle_cylinder", kappa=-1.0, r=0.5, pad=2),
        *(generic_chart(kappa) for kappa in (1.0, -1.0, 0.0)),
    ], ids=["pad2_kappa1", "pad2_kappa-1", "generic_S4", "generic_H4", "generic_R4"])
    def test_frame_count_matches_codimension(self, spec):
        # the reference frame of the tests: n - 1 orthonormal normals, H/|H| first
        gp = grid_geometry(spec, 5, 5)
        xi, codim = normal_frame(gp), spec.ambient.n - 1
        assert xi.shape == (25, codim, spec.ambient.flat_dim) and codim == 3
        sig = np.asarray(spec.ambient.signature)
        gram = np.einsum("nik,njk->nij", sig * xi, xi)
        assert np.abs(gram - np.eye(codim)).max() < 1e-12
        for i in range(codim):
            geometry._check_normal(gp, xi[:, i])
        seeded = gp.normH > 1e-8
        assert seeded.any()
        assert np.array_equal(xi[seeded, 0], gp.H_val[seeded] / gp.normH[seeded, None])


class TestFrameInvariance:
    def test_aux_det_sum_under_rotations(self):
        spec = get_surface("circle_cylinder", kappa=1.0, r=0.6, pad=2)
        gp = spec.geom(1.2, 0.4)
        xi = normal_frame(gp)[0]
        base = aux_det_sum(gp)
        rng = np.random.default_rng(3)
        for _ in range(10):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            q = np.array([[math.cos(angle), -math.sin(angle)],
                          [math.sin(angle), math.cos(angle)]])
            if rng.random() < 0.5:
                q = q @ np.diag([1.0, -1.0])
            mixed = [
                q[0, 0] * xi[1] + q[0, 1] * xi[2],
                q[1, 0] * xi[1] + q[1, 1] * xi[2],
            ]
            rotated = sum(np.linalg.det(shape_operator(gp, x)) for x in mixed)
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_aux_det_sum_requires_mean_curvature(self):
        spec = get_surface("cor32_flat_minimal", kappa=1.0, theta=math.pi / 4)
        with pytest.raises(MinimalSurfaceError):
            aux_det_sum(spec.geom(1.0, 1.0))


class TestGridPoints:
    def test_margin_excludes_boundary(self):
        spec = get_surface("slice", kappa=1.0)
        pts = grid_points(spec, 5, 5, margin=0.02)
        (u0, u1), (v0, v1) = spec.domain
        assert len(pts) == 25
        us = [u for (u, _) in pts]
        assert min(us) == pytest.approx(u0 + 0.02 * (u1 - u0))
        assert max(us) == pytest.approx(u1 - 0.02 * (u1 - u0))


BATCH_BRANCHES = [
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
    ("circle_cylinder", {"kappa": 0.0, "r": 0.7}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
    ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
    ("slice", {"kappa": 1.0}),
    ("slice", {"kappa": -1.0}),
    ("slice", {"kappa": 0.0}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": 0.7}),
    ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
    ("perturbed_control", {"kappa": -1.0, "r": 0.4}),
]


def _arrays(x):
    """Every coefficient or value array inside a GeomPoint field, in order."""
    if isinstance(x, Jet2):
        return [x.c]
    if isinstance(x, list):
        return [a for y in x for a in _arrays(y)]
    return [np.asarray(x, dtype=float)]


def _count_evaluations(monkeypatch):
    calls = []
    original = geometry.evaluate_chart

    def counting(spec, u, v, order=jets.MAX_ORDER):
        calls.append(np.size(u))
        return original(spec, u, v, order)

    monkeypatch.setattr(geometry, "evaluate_chart", counting)
    return calls


def _count_calls(monkeypatch, *names):
    """Count the calls of the named geometry functions, by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(geometry, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(geometry, name, counting)
    return counts


def _run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _point(batch, k):
    """Point k of a batched GeomPoint field by field, as a batch of one."""
    def take(x):
        if isinstance(x, Jet2):
            return Jet2(x.c[k:k + 1], x.order)
        if isinstance(x, list):
            return [take(y) for y in x]
        return x[k:k + 1]

    return {name: take(getattr(batch, name)) for name in geometry.GEOMETRY_NAMES}


class TestBatchedGeometry:
    @pytest.mark.parametrize("sid,params", BATCH_BRANCHES)
    def test_grid_matches_single_point_evaluation(self, sid, params):
        spec = catalog.instantiate(sid, params)
        names = geometry.GEOMETRY_NAMES
        batch = grid_geometry(spec, 9, 9)
        for k, (u, v) in enumerate(grid_points(spec, 9, 9)):
            grid_gp = SimpleNamespace(**_point(batch, k))
            one = evaluate_chart(spec, u, v)
            for name in names:
                got, want = _arrays(getattr(grid_gp, name)), _arrays(getattr(one, name))
                assert len(got) == len(want), name
                for a, b in zip(got, want):
                    assert a.shape == b.shape, name
                    assert np.array_equal(a, b, equal_nan=True), (name, u, v)

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["hypothesis", "--theorem", "1.2"],
        ["hypothesis", "--theorem", "1.2", "--surface", "cor32_flat_minimal",
         "--param", "kappa=1", "--param", "theta=0.7"],
        ["hypothesis", "--theorem", "1.3"],
        ["hypothesis", "--theorem", "3.1"],
        ["hypothesis", "--theorem", "cor", "--surface", "cor32_flat_minimal",
         "--param", "kappa=1", "--param", "theta=0.7"],
        ["field", "--quantity", "normS"],
        ["field", "--quantity", "detS"],
        ["field", "--quantity", "detS", "--tilde"],
        ["field", "--quantity", "mu_integrand"],
        ["field", "--quantity", "residual:simons_log"],
        ["field", "--quantity", "residual:pmc"],
    ], ids=["verify", "1.2", "1.2-cor32", "1.3", "3.1", "cor", "normS", "detS", "detS-tilde",
            "mu_integrand", "residual-simons_log", "residual-pmc"])
    def test_verify_is_one_evaluation(self, argv, monkeypatch):
        # every evaluator of an operation reads the one geometry batch its entry point made
        calls = _count_evaluations(monkeypatch)
        surface = [] if "--surface" in argv else [
            "--surface", "circle_cylinder", "--param", "kappa=1", "--param", "r=0.6",
            "--param", "pad=2"]
        assert cli_main(argv + surface + ["--grid", "9x9", "--output", os.devnull]) == 0
        assert calls == [81]

    @pytest.mark.parametrize("surface", [
        ["circle_cylinder", "--param", "kappa=1", "--param", "r=0.6", "--param", "pad=2"],
        ["circle_cylinder", "--param", "kappa=-1", "--param", "r=0.5", "--param", "pad=2"],
        ["cor32_flat_minimal", "--param", "kappa=1", "--param", f"theta={math.pi / 4!r}"],
    ], ids=["pad2_kappa1", "pad2_kappa-1", "cor32"])
    def test_no_command_builds_a_normal_frame(self, surface, monkeypatch):
        # verify and every checker print the same bytes when a frame build raises
        commands = [["verify"], *(["hypothesis", "--theorem", t] for t in theorems.CHECKERS)]
        argvs = [[*command, "--surface", *surface, "--grid", "9x9"] for command in commands]
        free = [_run_cli(argv) for argv in argvs]

        def no_frame(*args):
            raise AssertionError("a normal frame was built")

        monkeypatch.setattr(geometry, "normal_frame_jets", no_frame)
        assert [_run_cli(argv) for argv in argvs] == free
        assert {code for code, _, _ in free} <= {0, 1, 2}

    @pytest.mark.parametrize("quantity,unread", [
        ("K", ("_normal_part_jets", "christoffels", "inverse_jet")),
        ("normT", ("_normal_part_jets", "gauss_curvature_brioschi")),
    ])
    def test_field_runs_only_the_stage_it_reads(self, quantity, unread, monkeypatch):
        counts = _count_calls(monkeypatch, *unread)
        assert cli_main(["field", "--surface", "circle_cylinder", "--param", "kappa=1",
                         "--param", "r=0.6", "--param", "pad=2", "--quantity", quantity,
                         "--grid", "9x9", "--output", os.devnull]) == 0
        assert counts == dict.fromkeys(unread, 0)

    @pytest.mark.parametrize("quantity,want,blocks", [("K", 0.0, 2), ("normT", 1.0, 1)])
    def test_dense_field_evaluates_each_point_once(self, quantity, want, blocks, monkeypatch,
                                                   tmp_path):
        # consecutive blocks of equal size within the coefficient budget, the last one
        # short: the order-3 K splits and the order-1 normT stays one batch
        calls = _count_evaluations(monkeypatch)
        out = tmp_path / "field.csv"
        assert cli_main(["field", "--surface", "circle_cylinder", "--param", "kappa=1",
                         "--param", "r=0.7", "--param", "warp=0.3",
                         "--quantity", quantity, "--grid", "51x51",
                         "--output", str(out)]) == 0
        size = min(2601, geometry.BLOCK_COEFFS // (4 * jets._NCOEF[cli.FIELD_ORDER[quantity]]))
        assert len(calls) == blocks and sum(calls) == 2601
        assert calls[:-1] == [size] * (blocks - 1) and 0 < calls[-1] <= size
        values = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
        assert len(values) == 2601
        assert max(abs(x - want) for x in values) <= 1e-9

    @staticmethod
    def _pinched_plane(pinch):
        # planar map with Jacobian determinant (u - u*)^2 + (v - v*)^2: an
        # immersion everywhere except at the single point pinch = (u*, v*)
        uk, vk = pinch

        def chart(uj, vj):
            du, dv = uj - uk, vj - vk
            return [du * du * du / 3.0 + du * dv * dv, vj, Jet2.constant(0.0, uj.order)]

        return geometry.SurfaceSpec("pinched_plane", {}, ((-1.0, 1.0), (-1.0, 1.0)),
                                    make_ambient(0.0, 2), chart)

    def test_degenerate_grid_point_is_named(self, monkeypatch, capsys):
        spec = self._pinched_plane((0.0, 0.0))
        pinch = grid_points(spec, 9, 9)[40]
        spec = self._pinched_plane(pinch)
        with pytest.raises(DegenerateMetricError, match=f"at \\({pinch[0]}, {pinch[1]}\\)"):
            grid_geometry(spec, 9, 9)
        assert evaluate_chart(spec, *grid_points(spec, 9, 9)[3]).normT == 0.0

        monkeypatch.setattr(cli, "instantiate", lambda sid, params: self._pinched_plane(pinch))
        for quantity in ("K", "normT"):  # the metric check is eager, whatever is read
            assert cli_main(["field", "--surface", "slice", "--param", "kappa=0",
                             "--quantity", quantity, "--grid", "9x9"]) == 3
            err = capsys.readouterr().err
            assert "det g" in err and f"({pinch[0]}, {pinch[1]})" in err

    def test_nearly_degenerate_metric_is_named(self, monkeypatch, capsys):
        # det g = 2.5e-7 at one grid point: above the immersion floor of 1e-12,
        # but the Brioschi curvature divides by det g squared
        point = grid_points(self._pinched_plane((0.0, 0.0)), 9, 9)[40]
        spec = self._pinched_plane((point[0] + 5e-4, point[1]))
        named = f"det g = .* at \\({point[0]}, {point[1]}\\)"
        with pytest.raises(DegenerateMetricError, match=named):
            evaluate_chart(spec, *point)
        with pytest.raises(DegenerateMetricError, match=named):
            grid_geometry(spec, 9, 9)

        monkeypatch.setattr(cli, "instantiate",
                            lambda sid, params: self._pinched_plane((point[0] + 5e-4, point[1])))
        assert cli_main(["verify", "--surface", "slice", "--param", "kappa=0",
                         "--grid", "9x9"]) == 3
        err = capsys.readouterr().err
        assert "det g" in err and f"({point[0]}, {point[1]})" in err

    def test_batch_arrays_are_read_only(self):
        spec = catalog.instantiate("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2})
        gp = grid_geometry(spec, 5, 5)
        with pytest.raises(ValueError):
            gp.u[0] = 0.0
        with pytest.raises(ValueError):
            gp.K.c[0] = 1.0
        with pytest.raises(ValueError):
            gp.alpha_flat[1][2].c[3] = 1.0
        with pytest.raises(ValueError):
            gp.g_val[0, 0] = 2.0
        with pytest.raises(ValueError):  # a staged name read first here
            gp.eta[0].c[0, 0] = 1.0
        with pytest.raises(ValueError):
            gp.T_val[0, 0] = 1.0
        # arithmetic on the views is unaffected
        assert (gp.K * 2.0).value == pytest.approx(2.0 * gp.K_val)

    def test_inverse_metric_is_a_lazy_read_only_stage(self):
        spec = catalog.instantiate("circle_cylinder", {"kappa": -1.0, "r": 0.4, "warp": -0.2})
        gp = grid_geometry(spec, 5, 5)
        assert not {"ginv", "ginv_val"} & vars(gp).keys()  # the eager stage builds none
        want = geometry.inverse_jet(gp.g, geometry.det_jet(gp.g))
        assert np.array_equal(gp.ginv.c, want.c) and np.array_equal(gp.ginv_val, want.value)
        for name in ("ginv", "ginv_val", "gamma", "K"):  # frozen like every stage name
            x = getattr(gp, name)
            assert not (x.c if isinstance(x, Jet2) else x).flags.writeable, name


@pytest.mark.parametrize("order", range(1, jets.MAX_ORDER + 1))
def test_every_geometry_jet_stores_exactly_its_order(order):
    """Each jet a grid geometry reaches stores _NCOEF[m] coefficients for its
    order m, coefficient-major; a name the chart order cannot give raises, and
    the names that hold a jet are exactly those the chart order gives."""
    spec = catalog.instantiate("circle_cylinder",
                               {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3, "pad": 2})
    gp = grid_geometry(spec, 5, 5, order=order)
    held = set()
    for name in geometry.GEOMETRY_NAMES:
        try:
            value = getattr(gp, name)
        except ValueError:  # the order guard: this name needs a higher chart order
            assert order < jets.MAX_ORDER, name
            continue
        if isinstance(value, Jet2):
            held.add(name)
            assert (value.c.shape[0], value.c.shape[-1]) == (25, jets._NCOEF[value.order]), name
            # coefficient-major: each coefficient a contiguous row, or a broadcast constant
            assert value.c.strides[0] in (0, value.c.itemsize), name
    # the metric and vertical split need first derivatives of the chart, the
    # Christoffels and the second fundamental form second ones, Brioschi's K third ones
    expected = {"f", "fu", "fv", "g", "ginv", "T_up", "T_flat", "eta", "normT2"}
    if order >= 2:
        expected |= {"gamma", "alpha_flat", "H", "normH2"}
    if order >= 3:
        expected.add("K")
    assert held == expected
