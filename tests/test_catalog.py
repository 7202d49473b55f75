import math

import numpy as np
import pytest

from prodsurf.catalog import CatalogError, catalog_list, instantiate
from prodsurf.geometry import grid_geometry, grid_points
from prodsurf.spaceforms import constraint_residual

from conftest import get_surface


class TestCatalogList:
    def test_contains_required_entries(self):
        ids = [e.id for e in catalog_list()]
        for required in ["slice", "vertical_geodesic_cylinder", "circle_cylinder",
                         "cor32_flat_minimal", "perturbed_control"]:
            assert required in ids

    def test_ids_unique(self):
        ids = [e.id for e in catalog_list()]
        assert len(ids) == len(set(ids))

    def test_expected_maps_non_empty(self):
        for entry in catalog_list():
            assert entry.expected_formulas

    def test_entry_expected_values(self):
        exp = instantiate("circle_cylinder",
                          {"kappa": 1.0, "r": math.pi / 4, "pad": 0, "warp": 0}).expected
        assert exp["normH"] == pytest.approx(0.5)
        assert exp["detS"] == pytest.approx(-1.0)


def _random_domain_points(spec, n=100, seed=5):
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = spec.domain
    return [
        (u0 + rng.random() * (u1 - u0), v0 + rng.random() * (v1 - v0))
        for _ in range(n)
    ]


ALL_INSTANCES = [
    ("slice", {"kappa": 1.0}),
    ("slice", {"kappa": -1.0}),
    ("slice", {"kappa": -1.0, "t0": 2.5}),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
    ("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}),
    ("cor32_flat_minimal", {"kappa": 2.0, "theta": 0.5}),
    ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4}),
    ("perturbed_control", {"kappa": -1.0, "r": 0.4}),
    # kappa = 0 and the non-unit scales s = 1/sqrt|kappa| = 1/2 and 2
    *((sid, {"kappa": k}) for sid in ("slice", "vertical_geodesic_cylinder")
      for k in (0.0, 4.0, -0.25)),
    *((sid, {"kappa": k, "r": r}) for sid in ("circle_cylinder", "perturbed_control")
      for k, r in ((0.0, 0.7), (4.0, 0.3), (-0.25, 1.0))),
]


class TestInstantiate:
    @pytest.mark.parametrize("sid,params", ALL_INSTANCES)
    def test_charts_sit_on_the_model(self, sid, params):
        spec = instantiate(sid, params)
        if spec.ambient.kappa == 0:
            return
        from prodsurf.jets import Jet2, stack

        for (u, v) in _random_domain_points(spec):
            f = stack(spec.chart(Jet2.variable("u", u, 0), Jet2.variable("v", v, 0)))
            assert abs(constraint_residual(spec.ambient, f).value[0]) < 1e-12

    @pytest.mark.parametrize("sid,params", ALL_INSTANCES)
    def test_closed_forms_hold_on_the_grid(self, sid, params):
        spec = instantiate(sid, params)
        gp = grid_geometry(spec, 5, 5)
        got = {"K": gp.K_val, "normT": gp.normT, "normH": gp.normH}
        for name in got.keys() & spec.expected.keys():
            assert np.abs(got[name] - spec.expected[name]).max() < 1e-9, name

    def test_cor32_parameterization_constants(self):
        # b = sqrt(kappa (1 + cos^2 theta)); block norm of the curved factor is
        # cos^2(theta)/b^2 + 1/b^2 = 1/kappa
        spec = instantiate("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4})
        b = spec.expected["b"]
        assert b == pytest.approx(math.sqrt(1.5), abs=1e-15)
        theta = spec.params["theta"]
        assert (math.cos(theta) ** 2 + 1.0) / b ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_circle_cylinder_expected_mean_curvature(self):
        spec = instantiate("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4})
        assert spec.expected["normH"] == pytest.approx(0.5)
        spec = instantiate("circle_cylinder", {"kappa": -1.0, "r": 0.3})
        assert spec.expected["normH"] == pytest.approx(
            (1.0 / math.tanh(0.3)) / 2.0, abs=1e-14
        )

    def test_slice_expected_curvature(self):
        spec = instantiate("slice", {"kappa": -1.0})
        assert spec.expected["K"] == -1.0
        assert spec.expected["normT"] == 0.0

    def test_unknown_id(self):
        with pytest.raises(CatalogError):
            instantiate("torus_of_revolution", {})

    @pytest.mark.parametrize("sid,params", [
        ("circle_cylinder", {"kappa": 1.0, "r": 2.0}),       # beyond pi/(2 sqrt k)
        ("circle_cylinder", {"kappa": 1.0, "r": -0.5}),
        ("circle_cylinder", {"kappa": 1.0, "r": 0.5, "pad": 1}),
        ("circle_cylinder", {"kappa": 1.0, "r": 0.5, "pad": 2.5}),  # not truncated to 2
        ("circle_cylinder", {"kappa": 1.0, "r": 0.5, "pad": 0.5}),  # not truncated to 0
        ("circle_cylinder", {"kappa": 1.0, "r": 0.5, "warp": 1.5}),
        ("cor32_flat_minimal", {"kappa": -1.0, "theta": 0.5}),
        ("cor32_flat_minimal", {"kappa": 1.0, "theta": 2.0}),
        ("perturbed_control", {"kappa": 1.0, "r": math.pi / 4, "amp": 0.9}),
    ])
    def test_out_of_range_params(self, sid, params):
        with pytest.raises(CatalogError):
            instantiate(sid, params)

    def test_missing_and_unknown_params(self):
        with pytest.raises(CatalogError):
            instantiate("circle_cylinder", {"kappa": 1.0})
        with pytest.raises(CatalogError):
            instantiate("slice", {"kappa": 1.0, "radius": 2.0})


class TestClosedFormInvariants:
    @pytest.mark.parametrize("kappa,theta", [(1.0, math.pi / 4), (1.0, math.pi / 3),
                                             (2.0, 0.5)])
    def test_cor32_flat_minimal_constant_angle(self, kappa, theta):
        spec = get_surface("cor32_flat_minimal", kappa=kappa, theta=theta)
        for (u, v) in grid_points(spec, 7, 7):
            gp = spec.geom(u, v)
            assert gp.normH < 1e-10
            assert abs(gp.K_val) < 1e-9
            assert abs(gp.normT - math.sin(theta)) < 1e-11

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_vertical_cylinder_everywhere(self, kappa):
        spec = get_surface("vertical_geodesic_cylinder", kappa=kappa)
        sig = np.asarray(spec.ambient.signature)
        for (u, v) in grid_points(spec, 7, 7):
            gp = spec.geom(u, v)
            assert abs(gp.normT - 1.0) < 1e-10
            assert math.sqrt(abs(float(np.dot(sig * gp.eta_val[0], gp.eta_val[0])))) < 1e-10
            assert gp.normH < 1e-10
            assert abs(gp.K_val) < 1e-10

    def test_perturbed_control_on_model_but_not_pmc(self):
        from prodsurf.identities import pmc_residual

        spec = get_surface("perturbed_control", kappa=1.0, r=math.pi / 4)
        report = pmc_residual(grid_geometry(spec, 9, 9), (9, 9))
        assert report.max_abs > 1e-3
        for (u, v) in _random_domain_points(spec, n=20):
            from prodsurf.jets import Jet2, stack

            f = stack(spec.chart(Jet2.variable("u", u, 0), Jet2.variable("v", v, 0)))
            assert abs(constraint_residual(spec.ambient, f).value[0]) < 1e-12
