"""The array evaluators against their one-point calls, and their cost per grid.

A point is evaluated as a batch of one, ``evaluate_chart(spec, u, v)``, so it
cannot see the other points of a grid: agreement at every grid point, bit for
bit, pins the per-point masks (frame seeding, dropped axes, skipped points) of
the batched path.
"""

import math

import numpy as np
import pytest

from prodsurf import catalog, codazzi, identities, jets, theorems
from prodsurf.geometry import (
    MINIMAL_TOL,
    MINIMAL_WARN_BAND,
    SurfaceSpec,
    evaluate_chart,
    grid_geometry,
    normal_connection_derivative,
    normal_frame_jets,
)
from prodsurf.jets import Jet2
from prodsurf.spaceforms import make_ambient

from test_geometry import BATCH_BRANCHES


def _same(batch, one, what):
    """A batch row equals a one-point result bit for bit; NaNs match NaNs."""
    batch, one = np.asarray(batch, dtype=float), np.asarray(one, dtype=float)
    assert np.array_equal(batch, one.reshape(batch.shape), equal_nan=True), what


def _evaluators(minimal):
    """The rows as functions of a geometry batch and its operator matrix; the
    second dict's rows mask the points where their identity is undefined."""
    rows = {
        "codazzi": codazzi.codazzi_residual,
        "trace": lambda gp, s: codazzi.trace_residual(s),
        "grad_tensor": codazzi.grad_tensor_norm_sq,
        "simons_sq": codazzi.simons_quadratic_residual,
        "ambient_codazzi": lambda gp, s: identities.ambient_codazzi_residual(gp),
        "gauss": lambda gp, s: identities.gauss_equation_residual(gp),
        "t_laplacian": lambda gp, s: identities.t_laplacian_residual(gp),
        "t_field_grad": lambda gp, s: identities.t_field_residuals(gp)[0],
        "t_field_alpha": lambda gp, s: identities.t_field_residuals(gp)[1],
        "operator": lambda gp, s: s.value,
        "s_norm_det": lambda gp, s: codazzi.s_norm_det_identity(np.ascontiguousarray(s.value),
                                                                gp.g_val),
        "pmc_u": lambda gp, s: normal_connection_derivative(gp, lambda g: g.H, "u"),
    }
    if not minimal:
        rows["curvature_formula"] = identities.curvature_formula_residual
        rows["mu_integrand"] = lambda gp, s: identities.mu_integrand(gp)
    skipping = {
        "simons_reduced": codazzi.simons_reduced_residual,
        "simons_log": codazzi.simons_log_residual,
        "metric_change": lambda gp, s: codazzi.metric_change(gp, s)[2],
        "inverse_codazzi": codazzi.inverse_codazzi_residual,
    }
    return rows, skipping


def _frozen(s):
    """The matrix jet ``s`` made read-only, so a reader that wrote into it fails."""
    s.c.flags.writeable = False
    return s


@pytest.mark.parametrize("sid,params", BATCH_BRANCHES)
def test_batch_equals_one_point_calls(sid, params):
    spec = catalog.instantiate(sid, params)
    gp = grid_geometry(spec, 9, 9)
    minimal, _ = identities.classify_minimality(gp)
    kind = "angle" if minimal else "pmc"
    rows, skipping = _evaluators(minimal)
    s = codazzi.operator_jets(gp, kind)
    batch = {name: fn(gp, s) for name, fn in rows.items()}
    masked = {name: fn(gp, s) for name, fn in skipping.items()}
    for k in range(len(gp.u)):
        # each point's geometry and operator are built once and read by every row
        one = evaluate_chart(spec, gp.u[k], gp.v[k])
        s_one = _frozen(codazzi.operator_jets(one, kind))
        for name, fn in rows.items():
            _same(batch[name][k], fn(one, s_one), (name, k))
        for name, fn in skipping.items():
            got = fn(one, s_one)
            assert np.ma.getmaskarray(got)[0] == np.ma.getmaskarray(masked[name])[k], (name, k)
            if not np.ma.getmaskarray(got)[0]:
                _same(masked[name].data[k], got.data, (name, k))


def test_mixed_frame_choices_match_one_point_calls():
    # a tilted graph with |H| about 3e-6 |u| / 1.1: the frame is unseeded on
    # the column u = 0 and seeded with H/|H| elsewhere, with |H| inside the
    # conditioning band on the columns next to it and above the band beyond
    def chart(u, v):
        return [u, v, 1e-6 * u * u * u + 0.3 * u + 0.2 * v]

    spec = SurfaceSpec("graph", {}, ((-1.0, 1.0), (-1.0, 1.0)), make_ambient(0.0, 2), chart)
    gp = grid_geometry(spec, 9, 9)
    seeded = gp.normH > MINIMAL_TOL
    banded = gp.normH <= MINIMAL_WARN_BAND
    assert (seeded & ~banded).any() and (seeded & banded).any() and (~seeded).any()
    frame = normal_frame_jets(gp)
    rows = {
        "ambient_codazzi": identities.ambient_codazzi_residual,
        "gauss": identities.gauss_equation_residual,
        "t_laplacian": identities.t_laplacian_residual,
        "t_field_grad": lambda gp: identities.t_field_residuals(gp)[0],
        "t_field_alpha": lambda gp: identities.t_field_residuals(gp)[1],
    }
    batch = {name: fn(gp) for name, fn in rows.items()}
    for k in range(len(gp.u)):
        one = evaluate_chart(spec, gp.u[k], gp.v[k])
        _same(gp.xi[k], one.xi, ("xi", k))
        for xi_batch, xi_one in zip(frame, normal_frame_jets(one)):
            for a, b in zip(xi_batch, xi_one):
                order = min(a.order, b.order)
                _same(a.truncate(order).c[k], b.truncate(order).c, ("frame", k))
        for name, fn in rows.items():
            _same(batch[name][k], fn(one), (name, k))


def test_skip_masks_are_live_on_the_branches():
    # the equivalence above covers both sides of every skip mask
    gp = grid_geometry(catalog.instantiate("slice", {"kappa": 1.0}), 9, 9)
    s = codazzi.angle_operator_jets(gp)
    assert np.ma.getmaskarray(codazzi.simons_log_residual(gp, s)).all()
    assert np.ma.getmaskarray(codazzi.metric_change(gp, s)[2]).all()
    spec = catalog.instantiate("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2})
    gp = grid_geometry(spec, 9, 9)
    s = codazzi.pmc_operator_jets(gp)
    assert not np.ma.getmaskarray(codazzi.simons_log_residual(gp, s)).any()


def _count_products(monkeypatch):
    calls = []
    mul = Jet2.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet2, "__mul__", counting)
    monkeypatch.setattr(Jet2, "__rmul__", counting)
    return calls


COST_CASES = [
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 8, "pad": 2}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.3}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": 0.7}),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}),
]


@pytest.mark.parametrize("sid,params", COST_CASES)
def test_jet_products_do_not_grow_with_the_grid(sid, params, monkeypatch):
    # a per-point loop anywhere in the suite or a checker would scale with the grid
    calls = _count_products(monkeypatch)
    counts = {}
    for grid in ((9, 9), (17, 17)):
        per_task = []
        for task in ("suite", "1.2", "1.3", "3.1", "cor"):
            spec = catalog.instantiate(sid, params)
            calls.clear()
            try:
                if task == "suite":
                    identities.run_suite(spec, grid)
                else:
                    theorems.run_checker(task, spec, grid, eps=0.1, c=0.0)
            except theorems.GateError:
                pass
            per_task.append(len(calls))
        counts[grid] = per_task
    assert counts[(9, 9)] == counts[(17, 17)]
    assert counts[(9, 9)][0] > 0


def test_batch_of_one_product_matches_the_scalar_kernel():
    rng = np.random.default_rng(5)
    a15, b15 = rng.standard_normal((2, jets.NCOEF))
    for order in range(jets.MAX_ORDER + 1):
        a, b = a15[:jets._NCOEF[order]], b15[:jets._NCOEF[order]]
        scalar = Jet2(a.copy(), order) * Jet2(b.copy(), order)
        one = Jet2(a[None].copy(), order) * Jet2(b.copy(), order)
        wide = Jet2(np.stack([a, b, a]), order) * Jet2(np.stack([b, a, b]), order)
        assert np.array_equal(one.c[0], scalar.c)
        assert np.array_equal(wide.c[0], scalar.c)


@pytest.mark.parametrize("n", [289, 4225])
def test_every_point_of_a_batch_product_matches_its_one_point_product(n):
    # one summation order: the slot kernel and bincount give the same bits
    rng = np.random.default_rng(n)
    a15, b15 = rng.standard_normal((2, n, jets.NCOEF))
    for order in range(jets.MAX_ORDER + 1):
        a, b = a15[:, :jets._NCOEF[order]], b15[:, :jets._NCOEF[order]]
        batch = (Jet2(a.T.copy().T, order) * Jet2(b.T.copy().T, order)).c
        for k in range(n):
            one = Jet2(a[k].copy(), order) * Jet2(b[k].copy(), order)
            assert np.array_equal(batch[k], one.c), (order, k)
