"""Residual evaluators for the structure equations and curvature formulas.

Every evaluator is an array function of the chart's batched geometry: it
takes the :class:`~prodsurf.geometry.GeomPoint` of a block of a grid, which
each entry point (:func:`run_suite`, :func:`residual_field`) evaluates block
by block with :class:`prodsurf.geometry.SampleGrid`, and returns one residual
per point; a single point is a batch of one.  :func:`grid_report` reduces a
residual array over the whole grid to a report row, folding left to right so
reports are bitwise reproducible.  A residual depends only on its point,
never on the sampling grid or its blocks, which the tests exercise directly.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import codazzi
from .geometry import (
    MINIMAL_TOL,
    MINIMAL_WARN_BAND,
    GeomPoint,
    MinimalSurfaceError,
    SampleGrid,
    SurfaceSpec,
    _normal_part,
    _values,
    aux_det_sum,
    column_derivatives,
    covariant_derivative,
    first_bad,
    laplace_at,
    normal_connection_derivative,
    normal_frame_jets,
    quad_form,
    shape_operator,
)
from .jets import matmul, matrix
from .spaceforms import flat_inner, vecdot

log = logging.getLogger("prodsurf")

DEFAULT_GRID = (33, 33)
DEFAULT_MARGIN = 0.02

DEFAULT_TOLERANCES: dict[str, float] = {
    "codazzi_pmc": 1e-9,
    "codazzi_angle": 1e-9,
    "operator_trace": 1e-10,
    "operator_norm_det": 1e-10,
    "simons_sq": 1e-7,
    "simons_reduced": 1e-7,
    "simons_log": 1e-7,
    "metric_change": 1e-8,
    "inverse_operator_codazzi": 1e-9,
    "ambient_codazzi": 1e-8,
    "gauss_equation": 1e-8,
    "curvature_formula": 1e-9,
    "t_laplacian": 1e-9,
    "pmc": 1e-9,
    "t_field_grad": 1e-9,
    "t_field_alpha": 1e-9,
    "mu_consistency": 1e-9,
}


@dataclass
class ResidualReport:
    identity_id: str
    grid: tuple[int, int]
    max_abs: float
    mean_abs: float
    argmax: tuple[float, float]
    tolerance: float
    passed: bool
    warnings: list[str] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "grid": [int(self.grid[0]), int(self.grid[1])],
            "max_abs": float(self.max_abs),
            "mean_abs": float(self.mean_abs),
            "argmax": [float(self.argmax[0]), float(self.argmax[1])],
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "warnings": list(self.warnings),
        }


def skipping(reason: str, residual: np.ma.MaskedArray):
    """A masked residual array as the (values, skips) pair of a report row."""
    return residual.data, {reason: np.ma.getmaskarray(residual)}


def _split(result) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """An evaluator's result as absolute residuals and named skip masks.

    The masked points of a masked residual array are skipped, under the
    reason :func:`skipping` gave them or else a generic one.
    """
    values, skips = result if isinstance(result, tuple) else (result, {})
    masked = np.ma.getmaskarray(values)
    if masked.any():
        skips = {**skips, "identity undefined (masked by its evaluator)": masked}
    return np.abs(np.asarray(np.ma.getdata(values), dtype=float)), skips


def grid_report(gp: GeomPoint, identity_id: str, fn, nu: int, nv: int,
                tolerance: float) -> ResidualReport | None:
    """Reduce an evaluator's residuals over the grid ``gp`` to a report row.

    ``fn()`` returns one residual per point of ``gp``, or a pair (residuals,
    skips) where ``skips`` maps a reason to the mask of the points where the
    identity does not apply.  Returns None when every point was skipped (the
    identity does not apply anywhere on this chart); partial skips become
    report warnings.  The row's maximum is the first largest value, or the
    first NaN, which fails the row; the mean folds the values left to right.
    Each row logs its counts of evaluated and skipped points at INFO.
    """
    vals, skips = _split(fn())
    npts = len(gp.u)
    evaluated = np.ones(npts, dtype=bool)
    warnings = []
    for reason, mask in sorted(skips.items()):
        if mask.any():
            warnings.append(f"skipped at {int(np.count_nonzero(mask))} of {npts} "
                            f"points: {reason}")
        evaluated &= ~mask
    n = int(np.count_nonzero(evaluated))
    if not n:
        log.warning("%s skipped on %s: %s", identity_id, gp.spec.catalog_id,
                    "; ".join(warnings) or "no evaluable points")
        return None
    log.info("%s on %s: evaluated %d points, skipped %d", identity_id, gp.spec.catalog_id,
             n, npts - n)
    k = int(np.argmax(np.where(evaluated, vals, -1.0)))  # a NaN is found first
    max_abs = float(vals[k])
    return ResidualReport(
        identity_id=identity_id,
        grid=(nu, nv),
        max_abs=max_abs,
        mean_abs=float(np.add.accumulate(vals[evaluated])[-1]) / n,
        argmax=(float(gp.u[k]), float(gp.v[k])),
        tolerance=tolerance,
        passed=max_abs <= tolerance,
        warnings=warnings,
    )


# -- residual evaluators -------------------------------------------------------

def ambient_codazzi_residual(gp: GeomPoint, normal_field=None) -> np.ndarray:
    """Residual of the fundamental Codazzi equation of the product ambient.

    (nabla_X A)(Y, xi) - (nabla_Y A)(X, xi) = kappa <xi, eta> (X ^ Y) T
    with X = d_u, Y = d_v, (X ^ Y)T = <Y,T> X - <X,T> Y, and the covariant
    derivative of A carrying the normal-connection correction on xi.  With no
    field supplied, the maximum residual over the normal frame is returned.
    """
    model = gp.spec.ambient
    sig = np.asarray(model.signature)
    frame = normal_frame_jets(gp) if normal_field is None else normal_field(gp)[None]
    t_low = np.matmul(gp.g_val, gp.T_val[..., None])[..., 0]
    wedge = np.stack([t_low[:, 1], -t_low[:, 0]], axis=-1)
    # <alpha(d_a, d_b), xi> of every frame vector: alpha is symmetric, so uv serves vu
    uu, uv, vv = (flat_inner(model, alpha, frame) for alpha in gp.alpha_flat)
    # (nabla_x A_xi)^a_y, indexed [x, a, y, j, n] for frame vector j
    nabla = covariant_derivative(gp.gamma, matmul(gp.ginv, matrix(uu, uv, uv, vv)))
    worst = np.zeros(len(gp.u))
    for j, xi in enumerate(frame):
        xi_val = _values(xi)
        a_u = shape_operator(gp, _normal_part(gp, np.ascontiguousarray(xi.du)))
        a_v = shape_operator(gp, _normal_part(gp, np.ascontiguousarray(xi.dv)))
        lhs = (nabla[0, :, 1, j].T - a_u[:, :, 1]) - (nabla[1, :, 0, j].T - a_v[:, :, 0])
        rhs = (model.kappa * vecdot(sig * xi_val, gp.eta_val))[:, None] * wedge
        worst = np.maximum(worst, gp.chart_norm(lhs - rhs))
    return worst


def curvature_formula_terms(gp: GeomPoint, s) -> dict:
    """All terms of the Gaussian-curvature formula for non-minimal PMC charts.

    K = kappa (1 - |T|^2) + |H|^2 - |S|^2/(8|H|^2) - kappa^2 |T|^4/(16|H|^2)
        - kappa <S T, T>/(4|H|^2) + sum_{i>1} det A_i
    Each term holds one value per point of ``gp``.  ``s`` is the PMC
    operator's jet matrix over ``gp``.
    """
    first_bad(gp.normH <= MINIMAL_TOL, "curvature formula needs |H| > 0: |H| =",
              gp.normH, MinimalSurfaceError)
    kappa = gp.spec.ambient.kappa
    s_val = _values(s)
    h2 = gp.normH ** 2
    t2 = gp.normT2.value
    s2 = np.trace(np.matmul(s_val, s_val), axis1=-2, axis2=-1)
    st_t = quad_form(np.matmul(s_val, gp.T_val[..., None])[..., 0], gp.g_val, gp.T_val)
    terms = {
        "ambient": kappa * (1.0 - t2),
        "mean_sq": h2,
        "operator_norm": -s2 / (8.0 * h2),
        "vertical_quartic": -(kappa ** 2) * t2 * t2 / (16.0 * h2),
        "operator_vertical": -kappa * st_t / (4.0 * h2),
        "aux_det_sum": aux_det_sum(gp),
    }
    terms["rhs"] = functools.reduce(np.add, terms.values())
    terms["K"] = gp.K_val
    terms["residual"] = np.abs(terms["K"] - terms["rhs"])
    return terms


def curvature_formula_residual(gp: GeomPoint, s) -> np.ndarray:
    return curvature_formula_terms(gp, s)["residual"]


def t_laplacian_residual(gp: GeomPoint) -> np.ndarray:
    """Residual of the vertical-energy Laplacian identity for PMC charts.

    1/2 Lap |T|^2 = |A_eta|^2 + kappa |T|^2 (1 - |T|^2) - sum_i |A_i T|^2,
    the sum running over the whole normal frame, H/|H| included: for a
    hypersurface it is the single term |A T|^2.
    """
    kappa = gp.spec.ambient.kappa
    lhs = 0.5 * laplace_at(gp.normT2, gp)
    a_eta = shape_operator(gp, gp.eta_val)
    rhs = np.trace(np.matmul(a_eta, a_eta), axis1=-2, axis2=-1)
    t2 = gp.normT2.value
    rhs = rhs + kappa * t2 * (1.0 - t2)
    for i in range(gp.A.shape[1]):
        w = np.matmul(gp.A[:, i], gp.T_val[..., None])[..., 0]
        rhs = rhs - quad_form(w, gp.g_val)
    return np.abs(lhs - rhs)


def gauss_equation_residual(gp: GeomPoint) -> np.ndarray:
    """Residual of the Gauss equation with X = d_u and Y = W = d_v.

    Intrinsic R(d_u, d_v) d_v from the metric against
    kappa (X^Y - <Y,T> X^T + <X,T> Y^T) W + A_{alpha(Y,W)} X - A_{alpha(X,W)} Y.
    """
    n = len(gp.u)
    kappa = gp.spec.ambient.kappa
    gam = gp.gamma_val
    # R^a_{b c d} with b = v (W), c = u (X), d = v (Y), per a
    intrinsic = gp.gamma.du[:, :, 1, 1] - gp.gamma.dv[:, :, 0, 1]
    intrinsic = intrinsic + (gam[:, :, 0, 0] * gam[:, None, 0, 1, 1]
                             + gam[:, :, 0, 1] * gam[:, None, 1, 1, 1])
    intrinsic = intrinsic - (gam[:, :, 1, 0] * gam[:, None, 0, 0, 1]
                             + gam[:, :, 1, 1] * gam[:, None, 1, 0, 1])

    x = np.broadcast_to([1.0, 0.0], (n, 2))
    y = np.broadcast_to([0.0, 1.0], (n, 2))
    w = y
    t = gp.T_val

    def pair(p, q):
        return quad_form(p, gp.g_val, q)[:, None]

    def wedge(p, q, z):
        return pair(q, z) * p - pair(p, z) * q

    ambient = wedge(x, y, w) - pair(y, t) * wedge(x, t, w) + pair(x, t) * wedge(y, t, w)
    rhs = kappa * ambient
    rhs = rhs + np.matmul(shape_operator(gp, gp.alpha_val[:, 1, 1]), x[..., None])[..., 0]
    rhs = rhs - np.matmul(shape_operator(gp, gp.alpha_val[:, 0, 1]), y[..., None])[..., 0]
    return gp.chart_norm(intrinsic - rhs)


def t_field_residuals(gp: GeomPoint) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the vertical-field identities along both chart directions.

    grad: nabla_X T = A_eta X;  alpha: alpha(X, T) = - nabla^perp_X eta.
    """
    a_eta = shape_operator(gp, gp.eta_val)
    t_val = gp.T_val
    grad_t = column_derivatives(gp.gamma, gp.T_up)  # (nabla_a T)^b, indexed [a, b, n]
    res_grad = np.zeros(len(gp.u))
    for a in range(2):
        res_grad = np.maximum(res_grad, gp.chart_norm(grad_t[a].T - a_eta[:, :, a]))
    res_alpha = np.zeros(len(gp.u))
    sig = np.asarray(gp.spec.ambient.signature)
    for a, direction in enumerate("uv"):
        alpha_at = (t_val[:, 0, None] * gp.alpha_val[:, a, 0]
                    + t_val[:, 1, None] * gp.alpha_val[:, a, 1])
        nperp = normal_connection_derivative(gp, lambda g: g.eta, direction)
        diff = alpha_at + nperp
        res_alpha = np.maximum(res_alpha,
                               np.sqrt(np.maximum(vecdot(sig * diff, diff), 0.0)))
    return res_grad, res_alpha


def pmc_values(gp: GeomPoint) -> np.ndarray:
    """Norm of the normal-connection derivative of H, worst chart direction."""
    sig = np.asarray(gp.spec.ambient.signature)
    worst = np.zeros(len(gp.u))
    for direction in "uv":
        d = normal_connection_derivative(gp, lambda g: g.H, direction)
        worst = np.maximum(worst, np.sqrt(np.maximum(vecdot(sig * d, d), 0.0)))
    return worst


def pmc_residual(gp: GeomPoint, grid: tuple[int, int], values=None) -> ResidualReport:
    """Max norm of the normal-connection derivative of H over the grid ``gp``.

    ``values()`` gives that norm at every point, by default from ``gp``
    itself; a grid evaluated in blocks passes its joined values, with ``gp``
    its :class:`~prodsurf.geometry.SampleGrid`.  Minimal points are
    annotated, not fatal: H == 0 is parallel.
    """
    nu, nv = grid
    report = grid_report(gp, "pmc", values or functools.partial(pmc_values, gp), nu, nv,
                         DEFAULT_TOLERANCES["pmc"])
    minimal_points = int(np.count_nonzero(gp.normH <= MINIMAL_TOL))
    if minimal_points:
        report.warnings.append(
            f"{minimal_points} of {nu * nv} grid points flagged minimal (|H| <= {MINIMAL_TOL})"
        )
    return report


def mu_integrand(gp: GeomPoint) -> np.ndarray:
    """|alpha|^2 - |A_H|^2 / |H|^2 at non-minimal points."""
    bad = np.flatnonzero(gp.normH <= MINIMAL_TOL)
    if bad.size:
        k = bad[0]
        raise MinimalSurfaceError(
            f"|H| = {float(gp.normH[k])!r} below threshold at ({gp.u[k]}, {gp.v[k]})")
    traces = np.trace(np.matmul(gp.A, gp.A), axis1=-2, axis2=-1)
    alpha2 = functools.reduce(np.add, traces.T, np.zeros(len(gp.u)))
    sig = np.asarray(gp.spec.ambient.signature)
    m = vecdot(sig * gp.alpha_val, gp.H_val[:, None, None, :])
    a_h = np.matmul(gp.ginv_val, m)
    a_h2 = np.trace(np.matmul(a_h, a_h), axis1=-2, axis2=-1)
    return alpha2 - a_h2 / gp.normH ** 2


def mu_estimate(gp: GeomPoint) -> tuple[float, float]:
    """Grid supremum of the mu integrand, with its frame cross-check residual.

    The cross-check compares the integrand against -2 sum_{i>1} det A_i
    pointwise; the returned pair is (sup, max cross residual).  A NaN
    integrand at any point makes both NaN.
    """
    val = mu_integrand(gp)
    cross = np.abs(val + 2.0 * aux_det_sum(gp))
    return float(np.max(val)), float(np.max(cross, initial=0.0))


# -- suite orchestration -------------------------------------------------------

def classify_minimality(gp: GeomPoint) -> tuple[bool, list[str]]:
    """Decide the pipeline branch from |H| over the grid ``gp`` (a GeomPoint or a
    :class:`~prodsurf.geometry.SampleGrid`); band points warn."""
    h = gp.normH
    warnings: list[str] = []
    max_h = float(np.fmax.reduce(h, initial=0.0))  # a NaN never becomes the maximum
    band = int(np.count_nonzero((MINIMAL_TOL < h) & (h < MINIMAL_WARN_BAND)))
    if band:
        warnings.append(
            f"|H| inside the conditioning band ({MINIMAL_TOL}, {MINIMAL_WARN_BAND}) "
            f"at {band} grid points"
        )
    return max_h <= MINIMAL_TOL, warnings


def suite_rows(gp: GeomPoint, minimal: bool):
    """The suite's rows for the surface's minimality class, in report order.

    Each row is (identity_id, fn) with ``fn()`` a :func:`grid_report`
    evaluator over the points of ``gp``; the operator of the class is built
    once for all of them.  The ``pmc`` row is :func:`pmc_residual`'s.
    """
    kind = "angle" if minimal else "pmc"
    s = codazzi.operator_jets(gp, kind)
    t_field = functools.cache(lambda: t_field_residuals(gp))
    skip_floor = f"|S| below the floor {codazzi.S_NORM_FLOOR}"
    skip_singular = f"operator singular (|det S| <= {codazzi.SINGULAR_TOL})"
    rows = [
        (f"codazzi_{kind}", lambda: codazzi.codazzi_residual(gp, s)),
        ("operator_trace", lambda: codazzi.trace_residual(s)),
        ("operator_norm_det",
         lambda: codazzi.s_norm_det_identity(_values(s), gp.g_val)),
        ("simons_sq", lambda: codazzi.simons_quadratic_residual(gp, s)),
        ("simons_reduced", lambda: skipping(
            skip_floor, codazzi.simons_reduced_residual(gp, s))),
        ("simons_log", lambda: skipping(skip_floor, codazzi.simons_log_residual(gp, s))),
        ("metric_change", lambda: skipping(skip_singular, codazzi.metric_change(gp, s)[2])),
        ("inverse_operator_codazzi", lambda: skipping(
            skip_singular, codazzi.inverse_codazzi_residual(gp, s))),
        ("ambient_codazzi", lambda: ambient_codazzi_residual(gp)),
        ("gauss_equation", lambda: gauss_equation_residual(gp)),
        ("t_laplacian", lambda: t_laplacian_residual(gp)),
        ("t_field_grad", lambda: t_field()[0]),
        ("t_field_alpha", lambda: t_field()[1]),
    ]
    if not minimal:
        rows.append(("curvature_formula", lambda: curvature_formula_residual(gp, s)))
        rows.append(("mu_consistency", lambda: mu_integrand(gp) + 2.0 * aux_det_sum(gp)))
    return rows


def _all_rows(gp: GeomPoint, minimal: bool):
    """:func:`suite_rows`, then the ``pmc`` row's values."""
    return [*suite_rows(gp, minimal), ("pmc", functools.partial(pmc_values, gp))]


def _joined(parts):
    """One row's (residuals, skips) pairs of consecutive blocks as one pair; a
    reason missing from a block skips none of its points."""
    reasons = sorted({reason for _, skips in parts for reason in skips})
    return (np.concatenate([values for values, _ in parts]),
            {reason: np.concatenate([skips.get(reason, np.zeros(len(values), bool))
                                     for values, skips in parts])
             for reason in reasons})


def _grid_rows(spec: SurfaceSpec, grid: tuple[int, int], margin: float, rows_of):
    """The grid, its minimality class and class warnings, and its rows.

    The class is decided on |H| over the whole grid.  Each row is
    ``(identity_id, fn)`` as ``rows_of(gp, minimal)`` gives it, with ``fn()``
    the row over the whole grid.  On a grid of one block ``fn`` is the
    evaluator itself over that batch.  On a larger grid every row is
    evaluated block by block as the block is evaluated, and only its
    residuals and skip masks are kept; ``fn()`` joins them.
    """
    points = SampleGrid(spec, grid[0], grid[1], margin)
    minimal, class_warnings = classify_minimality(points)
    if points.single is not None:
        return points.single, minimal, class_warnings, rows_of(points.single, minimal)
    parts = points.map(lambda gp: [(identity_id, _split(fn()))
                                   for identity_id, fn in rows_of(gp, minimal)])
    rows = [(identity_id, functools.partial(_joined, [part[k][1] for part in parts]))
            for k, (identity_id, _) in enumerate(parts[0])]
    return points, minimal, class_warnings, rows


def run_suite(spec: SurfaceSpec, grid: tuple[int, int] = DEFAULT_GRID,
              margin: float = DEFAULT_MARGIN,
              tolerances: dict[str, float] | None = None) -> list[ResidualReport]:
    """Run every identity applicable to the surface's minimality class.

    The grid is evaluated in blocks (:class:`~prodsurf.geometry.SampleGrid`):
    each row keeps its per-point residuals and skip masks, joined in point
    order, and is reduced once, so the report is the one a single batch gives.
    """
    nu, nv = grid
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    points, minimal, class_warnings, rows = _grid_rows(spec, grid, margin, _all_rows)
    *rows, (_, pmc_fn) = rows

    reports: list[ResidualReport] = []
    for identity_id, fn in rows:
        report = grid_report(points, identity_id, fn, nu, nv, tol[identity_id])
        if report is None:
            continue
        if class_warnings:
            report.warnings.extend(class_warnings)
        reports.append(report)

    pmc_rep = pmc_residual(points, grid, pmc_fn)
    pmc_rep.tolerance = tol["pmc"]
    pmc_rep.passed = pmc_rep.max_abs <= pmc_rep.tolerance
    reports.append(pmc_rep)
    return reports


def residual_field(spec: SurfaceSpec, identity_id: str, grid: tuple[int, int],
                   margin: float) -> tuple[np.ndarray, np.ndarray]:
    """One suite row's residual at every grid point, and the mask of evaluated points.

    The grid is evaluated in blocks, as in :func:`run_suite`, and only this
    row runs on each.  Raises ValueError naming the identity when it is
    unknown, belongs to the other minimality class, or is skipped at every
    point.
    """
    if identity_id not in DEFAULT_TOLERANCES:
        known = ", ".join(sorted(DEFAULT_TOLERANCES))
        raise ValueError(f"unknown identity {identity_id!r}; known: {known}")

    def row_of(gp, minimal):
        rows = dict(_all_rows(gp, minimal))
        if identity_id not in rows:
            surface_class = "minimal" if minimal else "non-minimal"
            raise ValueError(f"identity {identity_id!r} does not apply to the "
                             f"{surface_class} surface {spec.catalog_id!r}")
        return [(identity_id, rows[identity_id])]

    points, _, _, [(_, fn)] = _grid_rows(spec, grid, margin, row_of)
    values, skips = _split(fn())
    evaluated = ~functools.reduce(np.logical_or, skips.values(), np.zeros(len(points.u), bool))
    if not evaluated.any():
        reasons = "; ".join(sorted(skips))
        raise ValueError(f"identity {identity_id!r} skipped at every grid point of "
                         f"{spec.catalog_id!r}: {reasons}")
    return values, evaluated
