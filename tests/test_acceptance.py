"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Surfaces are instantiated locally (fresh caches) so criteria are independent.
"""

import json
import logging
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from prodsurf import catalog, codazzi, identities, theorems
from prodsurf.cli import main as cli_main
from prodsurf.geometry import evaluate_chart, grid_geometry, grid_points, shape_operator
from prodsurf.jets import Jet2, matrix
from prodsurf.spaceforms import constraint_residual

from conftest import laplace_beltrami
from oracles import fd1, fd2, fd_laplace_beltrami

GRID = (33, 33)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


def _sweep_max(spec, fn) -> float:
    """Largest |residual| of an array evaluator over the 33x33 grid's geometry."""
    return float(np.max(np.abs(fn(grid_geometry(spec, *GRID)))))


CODAZZI_CASES = [
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}, "pmc"),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}, "pmc"),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}, "angle"),
]


def test_criterion_01_codazzi_certification():
    with criterion(1, "Codazzi residual < 1e-9 over 33x33, < 5 s per surface"):
        for sid, params, kind in CODAZZI_CASES:
            spec = catalog.instantiate(sid, params)
            start = time.perf_counter()
            worst = _sweep_max(spec, lambda gp: codazzi.codazzi_residual(
                gp, codazzi.operator_jets(gp, kind)))
            elapsed = time.perf_counter() - start
            assert worst < 1e-9, (sid, worst)
            assert elapsed < 5.0, (sid, elapsed)


def test_criterion_02_curvature_formula():
    with criterion(2, "curvature formula < 1e-9 on both cylinders; "
                      "hand expansion to 1e-12"):
        for params in ({"kappa": 1.0, "r": math.pi / 4}, {"kappa": -1.0, "r": 0.3}):
            spec = catalog.instantiate("circle_cylinder", params)
            worst = _sweep_max(spec, lambda gp: identities.curvature_formula_residual(
                gp, codazzi.pmc_operator_jets(gp)))
            assert worst < 1e-9, (params, worst)
        spec = catalog.instantiate("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4})
        gp = evaluate_chart(spec, *grid_points(spec, 5, 5)[7])
        terms = identities.curvature_formula_terms(gp, codazzi.pmc_operator_jets(gp))
        hand = {"ambient": 0.0, "mean_sq": 0.25, "operator_norm": -1.0,
                "vertical_quartic": -0.25, "operator_vertical": 1.0,
                "aux_det_sum": 0.0, "K": 0.0}
        for name, value in hand.items():
            assert abs(terms[name] - value) < 1e-12, (name, terms[name])


SIMONS_SURFACES = [
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}, "pmc"),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}, "pmc"),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}, "angle"),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}, "angle"),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}, "angle"),
]


def test_criterion_03_simons_suite(caplog):
    with criterion(3, "Simons identities < 1e-7 where |S| > 1e-6; "
                      "log form skipped and logged below the floor"):
        for sid, params, kind in SIMONS_SURFACES:
            spec = catalog.instantiate(sid, params)
            gp = grid_geometry(spec, *GRID)
            s = codazzi.operator_jets(gp, kind)
            live = codazzi.norm_sq_jet(s).value > 1e-12
            r_sq = codazzi.simons_quadratic_residual(gp, s)
            assert r_sq.max() < 1e-7, (sid, r_sq.max())
            r_log = codazzi.simons_log_residual(gp, s)
            r_red = codazzi.simons_reduced_residual(gp, s)
            for r in (r_log, r_red):
                assert np.array_equal(np.ma.getmaskarray(r), ~live), sid
                assert r.data[live].max() < 1e-7, (sid, r.data[live].max())
        # the slice's angle operator vanishes: the log form must be skipped
        gp = grid_geometry(catalog.instantiate("slice", {"kappa": 1.0}), 9, 9)
        s = codazzi.angle_operator_jets(gp)

        def log_form():
            return identities.skipping("|S| below the floor",
                                       codazzi.simons_log_residual(gp, s))

        with caplog.at_level(logging.WARNING, logger="prodsurf"):
            report = identities.grid_report(gp, "simons_log", log_form, 9, 9, 1e-7)
        assert report is None
        assert any("simons_log skipped" in rec.message for rec in caplog.records)


METRIC_CHANGE_SURFACES = [
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}, "pmc"),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}, "pmc"),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}, "angle"),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}, "angle"),
]


def test_criterion_04_metric_change():
    with criterion(4, "|Ktilde det S - K| < 1e-8 wherever |det S| > 1e-8, "
                      "Ktilde from the intrinsic path"):
        for sid, params, kind in METRIC_CHANGE_SURFACES:
            spec = catalog.instantiate(sid, params)
            gp = grid_geometry(spec, *GRID)
            s = codazzi.operator_jets(gp, kind)
            det = codazzi.det_jet(s).value
            assert np.abs(det).min() > 1e-8, (sid, np.abs(det).min())
            gs, _ktilde, residual = codazzi.metric_change(gp, s)
            assert residual.max() < 1e-8, (sid, residual.max())
            gs_val = gs.value
            assert (gs_val[:, 0, 0] > 0).all() and (np.linalg.det(gs_val) > 0).all()


def test_criterion_05_flat_minimal_family():
    with criterion(5, "flat minimal family: |H| < 1e-10, |K| < 1e-9, "
                      "angle = sin(theta) to 1e-11, constraint < 1e-12"):
        for kappa, theta in [(1.0, math.pi / 4), (1.0, math.pi / 3), (2.0, 0.5)]:
            spec = catalog.instantiate("cor32_flat_minimal",
                                       {"kappa": kappa, "theta": theta})
            b_expected = math.sqrt(kappa + kappa * math.cos(theta) ** 2)
            assert abs(spec.expected["b"] - b_expected) < 1e-14
            batch = grid_geometry(spec, *GRID)
            assert batch.normH.max() < 1e-10
            assert np.abs(batch.K_val).max() < 1e-9
            assert np.abs(batch.normT - math.sin(theta)).max() < 1e-11
            constraint = constraint_residual(spec.ambient, [c.value for c in batch.f])
            assert np.abs(constraint).max() < 1e-12


SWEEP_SURFACES = [
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
SWEEP_EPS_C = [(0.05, 0.0), (0.1, 0.25), (0.5, 0.5), (1.0, 0.75), (2.0, 0.9)]


def test_criterion_06_theorem_consistency():
    with criterion(6, "no counterexample-candidates across catalog x (eps, c) sweep; "
                      "mu and frame checkers coincide on hypersurfaces"):
        for sid, params in SWEEP_SURFACES:
            spec = catalog.instantiate(sid, params)
            for theorem in ("1.2", "1.3", "3.1", "cor"):
                for eps, c in SWEEP_EPS_C:
                    try:
                        verdict = theorems.run_checker(theorem, spec, grid=(7, 7),
                                                       eps=eps, c=c)
                    except theorems.GateError:
                        continue
                    assert verdict.status != theorems.STATUS_COUNTEREXAMPLE, (
                        sid, theorem, eps, c)
        for params in ({"kappa": -1.0, "r": 0.3}, {"kappa": 1.0, "r": math.pi / 8},
                       {"kappa": 1.0, "r": math.pi / 8, "pad": 2}):
            spec = catalog.instantiate("circle_cylinder", params)
            for eps, c in SWEEP_EPS_C:
                v_mu = theorems.check_pmc_flatness_mu(spec, grid=(7, 7), eps=eps, c=c)
                v_fr = theorems.check_pmc_flatness(spec, grid=(7, 7), eps=eps, c=c)
                assert v_mu.applicable == v_fr.applicable, (params, eps, c)
                assert v_mu.status == v_fr.status, (params, eps, c)


def test_criterion_07_negative_control():
    with criterion(7, "control surface trips PMC and Codazzi gates while "
                      "structural identities stay < 1e-8"):
        spec = catalog.instantiate("perturbed_control",
                                   {"kappa": 1.0, "r": math.pi / 4})
        report = identities.pmc_residual(grid_geometry(spec, *GRID), GRID)
        assert report.max_abs > 1e-3, report.max_abs
        worst_codazzi = _sweep_max(
            spec, lambda gp: codazzi.codazzi_residual(gp, codazzi.pmc_operator_jets(gp)))
        assert worst_codazzi > 1e-3, worst_codazzi
        worst_gauss = _sweep_max(spec, identities.gauss_equation_residual)
        assert worst_gauss < 1e-8, worst_gauss
        worst_ambient = _sweep_max(spec, identities.ambient_codazzi_residual)
        assert worst_ambient < 1e-8, worst_ambient


def test_criterion_08_finite_difference_cross_checks():
    with criterion(8, "jet derivatives and Laplacian converge against central "
                      "differences at observed order >= 1.9"):
        import prodsurf.jets as jets

        float_lib = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
        jet_lib = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp}
        rng = np.random.default_rng(1789)
        h_coarse, h_fine = 1e-3, 5e-4
        checked = 0
        for trial in range(20):
            a, b = rng.uniform(1.5, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            c, d = rng.uniform(-1.0, 1.0, size=2)

            def expr(x, y, lib):
                return lib["sin"](a * x + b * y + 0.3) * lib["exp"](
                    0.2 * d * lib["cos"](x + c)) + 0.1 * lib["cos"](y * (a + 1.5))

            u0, v0 = rng.uniform(-0.8, 0.8, size=2)
            j = expr(Jet2.variable("u", u0, 4), Jet2.variable("v", v0, 4), jet_lib)

            def f_u(x):
                return expr(x, v0, float_lib)

            def f_v(y):
                return expr(u0, y, float_lib)

            def phi(uu, vv):
                return expr(uu, vv, float_lib)

            def metric(uu, vv):
                return [[1.0 + 0.3 * math.cos(uu) ** 2, 0.1 * math.sin(uu + vv)],
                        [0.1 * math.sin(uu + vv), 1.2 + 0.3 * math.sin(vv) ** 2]]

            def metric_jets(uu, vv):
                uj = Jet2.variable("u", uu, 4)
                vj = Jet2.variable("v", vv, 4)
                e = 1.0 + 0.3 * jets.cos(uj) ** 2
                f = 0.1 * jets.sin(uj + vj)
                g = 1.2 + 0.3 * jets.sin(vj) ** 2
                return matrix(e, f, f, g)

            lap_jet = laplace_beltrami(
                expr(Jet2.variable("u", u0, 4), Jet2.variable("v", v0, 4), jet_lib),
                metric_jets(u0, v0))
            probes = [
                (j.du, lambda h: fd1(f_u, u0, h)),
                (j.dv, lambda h: fd1(f_v, v0, h)),
                (j.duu, lambda h: fd2(f_u, u0, h)),
                (j.dvv, lambda h: fd2(f_v, v0, h)),
                (lap_jet, lambda h: fd_laplace_beltrami(phi, metric, u0, v0, h)),
            ]
            for jet_val, fd_fn in probes:
                err_coarse = abs(fd_fn(h_coarse) - jet_val)
                err_fine = abs(fd_fn(h_fine) - jet_val)
                if err_coarse < 1e-7:
                    continue  # below the difference-quotient resolution floor
                order = math.log2(err_coarse / err_fine)
                checked += 1
                assert order >= 1.9, (trial, err_coarse, err_fine, order)
        assert checked >= 40  # the family is rich enough to measure convergence


def test_criterion_09_frame_invariance():
    with criterion(9, "auxiliary-frame rotations leave det sums and the "
                      "normal-spread integrand fixed to 1e-10"):
        for params in ({"kappa": 1.0, "r": 0.6, "pad": 2},
                       {"kappa": -1.0, "r": 0.5, "pad": 2}):
            spec = catalog.instantiate("circle_cylinder", params)
            rng = np.random.default_rng(42)
            for (u, v) in grid_points(spec, 3, 3):
                gp = spec.geom(u, v)
                xi, normH = gp.xi[0], gp.normH[0]
                base_det = sum(np.linalg.det(a) for a in gp.A[0, 1:])
                base_mu = identities.mu_integrand(gp)[0]
                for _ in range(10):
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    q = np.array([[math.cos(angle), -math.sin(angle)],
                                  [math.sin(angle), math.cos(angle)]])
                    if rng.random() < 0.5:
                        q = q @ np.diag([1.0, -1.0])
                    mixed = [q[0, 0] * xi[1] + q[0, 1] * xi[2],
                             q[1, 0] * xi[1] + q[1, 1] * xi[2]]
                    a_mixed = [shape_operator(gp, x)[0] for x in mixed]
                    rot_det = sum(np.linalg.det(a) for a in a_mixed)
                    assert abs(rot_det - base_det) < 1e-10
                    a_first = shape_operator(gp, xi[0])[0]
                    alpha2 = float(np.trace(a_first @ a_first)) + float(
                        sum(np.trace(a @ a) for a in a_mixed))
                    a_h = normH * a_first
                    rot_mu = alpha2 - float(np.trace(a_h @ a_h)) / normH ** 2
                    assert abs(rot_mu - base_mu) < 1e-10


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "two consecutive verify runs emit byte-identical JSON"):
        args = ["verify", "--surface", "circle_cylinder",
                "--param", "kappa=1", "--param", f"r={math.pi / 4!r}",
                "--grid", "33x33"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(args + ["--output", str(first)]) == 0
        assert cli_main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert set(doc) == {"surface", "grid", "results", "verdicts", "version"}
