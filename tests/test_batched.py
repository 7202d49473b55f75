"""The array evaluators against their one-point calls, and their cost per grid.

A one-point call runs the evaluator on a batch of one, so it cannot see the
other points of a grid: agreement at every grid point, bit for bit, pins the
per-point masks (frame seeding, dropped axes, skipped points) of the batched
path.
"""

import math

import numpy as np
import pytest

from prodsurf import catalog, codazzi, identities, jets, theorems
from prodsurf.codazzi import NormFloorError, SingularOperatorError
from prodsurf.geometry import (
    MINIMAL_TOL,
    MINIMAL_WARN_BAND,
    SurfaceSpec,
    grid_arrays,
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


def _one_point_memo(fn, freeze=False):
    """``fn(u, v)`` evaluated once per single point, however many evaluators ask.

    A float point and a coordinate array of length one share the entry: both
    are evaluated as the same batch of one, which
    ``test_geometry.py::TestBatchedGeometry`` compares with the grid's batch
    bit for bit.  With ``freeze`` the jets of a matrix result are made
    read-only, so a reader that wrote into a shared entry would fail.
    """
    seen = {}

    def memo(u, v):
        if np.size(u) != 1:
            return fn(u, v)
        key = (float(np.ravel(u)[0]), float(np.ravel(v)[0]))
        if key not in seen:
            seen[key] = fn(u, v)
            for row in seen[key] if freeze else ():
                for x in row:
                    x.c.flags.writeable = False
        return seen[key]

    return memo


def _evaluators(spec, minimal):
    """The rows, and the field they share, so that a test can memoize its operator."""
    field = codazzi.field_for(spec, "angle" if minimal else "pmc")
    rows = {
        "codazzi": lambda u, v: codazzi.codazzi_residual(spec, u, v, field),
        "trace": lambda u, v: codazzi.trace_residual(spec, u, v, field),
        "grad_tensor": lambda u, v: codazzi.grad_tensor_norm_sq(spec, u, v, field),
        "simons_sq": lambda u, v: codazzi.simons_quadratic_residual(spec, u, v, field),
        "ambient_codazzi": lambda u, v: identities.ambient_codazzi_residual(spec, u, v),
        "gauss": lambda u, v: identities.gauss_equation_residual(spec, u, v),
        "t_laplacian": lambda u, v: identities.t_laplacian_residual(spec, u, v),
        "t_field_grad": lambda u, v: identities.t_field_residuals(spec, u, v)[0],
        "t_field_alpha": lambda u, v: identities.t_field_residuals(spec, u, v)[1],
        "operator": lambda u, v: codazzi.matrix_values(field.matrix_at(u, v)),
        "pmc_u": lambda u, v: normal_connection_derivative(spec, u, v, lambda g: g.H, "u"),
    }
    if not minimal:
        rows["curvature_formula"] = lambda u, v: identities.curvature_formula_residual(
            spec, u, v)
        rows["mu_integrand"] = lambda u, v: identities.mu_integrand(spec, u, v)
    skipping = {
        "simons_reduced": (NormFloorError,
                           lambda u, v: codazzi.simons_reduced_residual(spec, u, v, field)),
        "simons_log": (NormFloorError,
                       lambda u, v: codazzi.simons_log_residual(spec, u, v, field)),
        "metric_change": (SingularOperatorError,
                          lambda u, v: codazzi.metric_change(spec, u, v, field)[2]),
        "inverse_codazzi": (SingularOperatorError,
                            lambda u, v: codazzi.inverse_codazzi_residual(spec, u, v, field)),
    }
    return field, rows, skipping


@pytest.mark.parametrize("sid,params", BATCH_BRANCHES)
def test_batch_equals_one_point_calls(sid, params):
    spec = catalog.instantiate(sid, params)
    minimal, _ = identities.classify_minimality(spec, (9, 9), 0.02)
    u, v = grid_arrays(spec, 9, 9)
    field, rows, skipping = _evaluators(spec, minimal)
    batch = {name: fn(u, v) for name, fn in rows.items()}
    masked = {name: fn(u, v) for name, (_, fn) in skipping.items()}
    s_norm_det = codazzi.s_norm_det_identity(batch["operator"], grid_geometry(spec, 9, 9).g_val)
    # each point's geometry and operator are built once and read by every row
    spec.geom = _one_point_memo(spec.geom)
    field.matrix_at = _one_point_memo(field.matrix_at, freeze=True)
    for k in range(len(u)):
        for name, fn in rows.items():
            _same(batch[name][k], fn(u[k], v[k]), (name, k))
        _same(s_norm_det[k], codazzi.s_norm_det_identity(batch["operator"][k],
                                                         spec.geom(u[k], v[k]).g_val), k)
        for name, (error, fn) in skipping.items():
            if np.ma.getmaskarray(masked[name])[k]:
                with pytest.raises(error):
                    fn(u[k], v[k])
            else:
                _same(masked[name].data[k], fn(u[k], v[k]), (name, k))


def test_mixed_frame_choices_match_one_point_calls():
    # a tilted graph with |H| about 3e-6 |u| / 1.1: the frame is unseeded on
    # the column u = 0 and seeded with H/|H| elsewhere, with |H| inside the
    # conditioning band on the columns next to it and above the band beyond
    def chart(u, v):
        return [u, v, 1e-6 * u * u * u + 0.3 * u + 0.2 * v]

    spec = SurfaceSpec("graph", {}, ((-1.0, 1.0), (-1.0, 1.0)), make_ambient(0.0, 2), chart)
    u, v = grid_arrays(spec, 9, 9)
    gp = grid_geometry(spec, 9, 9)
    seeded = gp.normH > MINIMAL_TOL
    banded = gp.normH <= MINIMAL_WARN_BAND
    assert (seeded & ~banded).any() and (seeded & banded).any() and (~seeded).any()
    frame = normal_frame_jets(gp)
    rows = {
        "ambient_codazzi": identities.ambient_codazzi_residual,
        "gauss": identities.gauss_equation_residual,
        "t_laplacian": identities.t_laplacian_residual,
        "t_field_grad": lambda spec, u, v: identities.t_field_residuals(spec, u, v)[0],
        "t_field_alpha": lambda spec, u, v: identities.t_field_residuals(spec, u, v)[1],
    }
    batch = {name: fn(spec, u, v) for name, fn in rows.items()}
    spec.geom = _one_point_memo(spec.geom)
    for k in range(len(u)):
        one = spec.geom(u[k], v[k])
        _same(gp.xi[k], one.xi, ("xi", k))
        for xi_batch, xi_one in zip(frame, normal_frame_jets(one)):
            for a, b in zip(xi_batch, xi_one):
                order = min(a.order, b.order)
                _same(a.truncate(order).c[k], b.truncate(order).c, ("frame", k))
        for name, fn in rows.items():
            _same(batch[name][k], fn(spec, u[k], v[k]), (name, k))


def test_skip_masks_are_live_on_the_branches():
    # the equivalence above covers both sides of every skip mask
    spec = catalog.instantiate("slice", {"kappa": 1.0})
    field = codazzi.field_for(spec, "angle")
    u, v = grid_arrays(spec, 9, 9)
    assert np.ma.getmaskarray(codazzi.simons_log_residual(spec, u, v, field)).all()
    assert np.ma.getmaskarray(codazzi.metric_change(spec, u, v, field)[2]).all()
    spec = catalog.instantiate("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2})
    field = codazzi.field_for(spec, "pmc")
    u, v = grid_arrays(spec, 9, 9)
    assert not np.ma.getmaskarray(codazzi.simons_log_residual(spec, u, v, field)).any()


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
    a, b = rng.standard_normal((2, jets.NCOEF))
    for order in range(jets.MAX_ORDER + 1):
        scalar = Jet2(a.copy(), order) * Jet2(b.copy(), order)
        one = Jet2(a[None].copy(), order) * Jet2(b.copy(), order)
        wide = Jet2(np.stack([a, b, a]), order) * Jet2(np.stack([b, a, b]), order)
        assert np.array_equal(one.c[0], scalar.c)
        assert np.array_equal(wide.c[0], scalar.c)


@pytest.mark.parametrize("n", [289, 4225])
def test_every_point_of_a_batch_product_matches_its_one_point_product(n):
    # one summation order: the slot kernel and bincount give the same bits
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n, jets.NCOEF))
    for order in range(jets.MAX_ORDER + 1):
        batch = (Jet2(a.T.copy().T, order) * Jet2(b.T.copy().T, order)).c
        for k in range(n):
            one = Jet2(a[k].copy(), order) * Jet2(b[k].copy(), order)
            assert np.array_equal(batch[k], one.c), (order, k)
