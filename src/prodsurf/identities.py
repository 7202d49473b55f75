"""Residual evaluators for the structure equations and curvature formulas.

Every evaluator is an array function of the chart's batched geometry: it
takes the :class:`~prodsurf.geometry.GeomPoint` of a block of a grid, which
each entry point (:func:`run_suite`, :func:`residual_field`) evaluates block
by block with :class:`prodsurf.geometry.SampleGrid`, and returns one residual
per point; a single point is a batch of one, and an evaluator returns a
masked array where its identity does not apply at some points.  :data:`ROWS`
lists the report rows once, in report order.  :func:`grid_report` reduces a
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
    first_bad,
    laplace_at,
    normal_connection_derivative,
    quad_form,
    shape_matrix,
)
from .spaceforms import vecdot

log = logging.getLogger("prodsurf")

DEFAULT_GRID = (33, 33)
DEFAULT_MARGIN = 0.02

_FLOOR = f"|S| below the floor {codazzi.S_NORM_FLOOR}"
_SINGULAR = f"operator singular (|det S| <= {codazzi.SINGULAR_TOL})"

# The suite's rows in report order: (id, default tolerance, the surfaces it
# applies to ("minimal", "non-minimal" or "both"), the reason for the points
# its evaluator masks, evaluator).  An evaluator takes a batch ``gp`` and the
# operator of the surface's class over it (the angle operator on a minimal
# surface, else the PMC one), and looks its function up when called.
ROWS = [
    ("codazzi_pmc", 1e-9, "non-minimal", None, lambda gp, s: codazzi.codazzi_residual(gp, s)),
    ("codazzi_angle", 1e-9, "minimal", None, lambda gp, s: codazzi.codazzi_residual(gp, s)),
    ("operator_trace", 1e-10, "both", None, lambda gp, s: codazzi.trace_residual(s)),
    ("operator_norm_det", 1e-10, "both", None,
     lambda gp, s: codazzi.s_norm_det_identity(_values(s), gp.g_val)),
    ("simons_sq", 1e-7, "both", None,
     lambda gp, s: codazzi.simons_quadratic_residual(gp, s)),
    ("simons_reduced", 1e-7, "both", _FLOOR,
     lambda gp, s: codazzi.simons_reduced_residual(gp, s)),
    ("simons_log", 1e-7, "both", _FLOOR, lambda gp, s: codazzi.simons_log_residual(gp, s)),
    ("metric_change", 1e-8, "both", _SINGULAR, lambda gp, s: codazzi.metric_change(gp, s)[2]),
    ("inverse_operator_codazzi", 1e-9, "both", _SINGULAR,
     lambda gp, s: codazzi.inverse_codazzi_residual(gp, s)),
    ("ambient_codazzi", 1e-8, "both", None, lambda gp, s: ambient_codazzi_residual(gp)),
    ("gauss_equation", 1e-8, "both", None, lambda gp, s: gauss_equation_residual(gp)),
    ("t_laplacian", 1e-9, "both", None, lambda gp, s: t_laplacian_residual(gp)),
    ("t_field_grad", 1e-9, "both", None, lambda gp, s: t_field_grad_residual(gp)),
    ("t_field_alpha", 1e-9, "both", None, lambda gp, s: t_field_alpha_residual(gp)),
    ("curvature_formula", 1e-9, "non-minimal", None,
     lambda gp, s: curvature_formula_residual(gp, s)),
    ("mu_consistency", 1e-9, "non-minimal", None,
     lambda gp, s: mu_integrand(gp) + 2.0 * aux_det_sum(gp)),
    ("pmc", 1e-9, "both", None, lambda gp, s: pmc_values(gp)),
]
DEFAULT_TOLERANCES: dict[str, float] = {row_id: tol for row_id, tol, *_ in ROWS}
_SKIP_REASONS = {row_id: why for row_id, _, _, why, _ in ROWS if why}


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


def grid_report(gp: GeomPoint, identity_id: str, fn, nu: int, nv: int,
                tolerance: float) -> ResidualReport | None:
    """Reduce an evaluator's residuals over the grid ``gp`` to a report row.

    ``fn()`` returns one residual per point of ``gp``, masked where the
    identity does not apply; the row's skip reason is its :data:`ROWS` entry's
    (a generic one for an id outside the table).  Returns None when every
    point was skipped (the identity does not apply anywhere on this chart);
    partial skips become a report warning.  The row's maximum is the first
    largest value, or the first NaN, which fails the row; the mean folds the
    values left to right.  Each row logs its counts of evaluated and skipped
    points at INFO.
    """
    result = fn()
    vals = np.abs(np.asarray(np.ma.getdata(result), dtype=float))
    evaluated = ~np.ma.getmaskarray(result)
    npts, n = len(gp.u), int(np.count_nonzero(evaluated))
    warnings = []
    if n < npts:
        reason = _SKIP_REASONS.get(identity_id, "identity undefined (masked by its evaluator)")
        warnings.append(f"skipped at {npts - n} of {npts} points: {reason}")
    if not n:
        log.warning("%s skipped on %s: %s", identity_id, gp.spec.catalog_id, warnings[0])
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

def _g_trace(gp: GeomPoint, x: np.ndarray) -> np.ndarray:
    """g^{cd} <x_c, x_d> of flat vectors x of shape (N, 2, flat_dim)."""
    sig = np.asarray(gp.spec.ambient.signature)
    return np.einsum("ncd,ncd->n", gp.ginv_val, vecdot(sig * x[:, :, None], x[:, None]))


def _worst_norm(gp: GeomPoint, x: np.ndarray) -> np.ndarray:
    """max(|x_u|, |x_v|) per point of flat vectors x of shape (N, 2, flat_dim)."""
    sig = np.asarray(gp.spec.ambient.signature)
    norms = np.sqrt(np.maximum(vecdot(sig * x, x), 0.0))
    return np.maximum(norms[:, 0], norms[:, 1])


def _alpha_t(gp: GeomPoint) -> np.ndarray:
    """alpha(T, d_b) = T^a alpha_ab per point, (N, 2, flat_dim)."""
    t, a = gp.T_val, gp.alpha_val
    return t[:, 0, None, None] * a[:, 0] + t[:, 1, None, None] * a[:, 1]


def ambient_codazzi_defect(gp: GeomPoint) -> np.ndarray:
    """Codazzi defect of alpha in M^n(kappa) x R, zero on every immersion
    (Daniel, Trans. AMS 361, 2009): per point and chart direction c the
    normal vector, shape (N, 2, flat_dim), with T_a = g_ab T^b,

    R_c = (d_u alpha_vc - d_v alpha_uc)^perp - Gamma^e_uc alpha_ve
          + Gamma^e_vc alpha_ue - kappa (g_uc T_v - g_vc T_u) eta.

    g^{ac} <R_c, xi> is the frame form (nabla_u A_xi) d_v - (nabla_v A_xi) d_u
    - kappa <xi, eta> (d_u ^ d_v) T for a normal vector xi.
    """
    du, dv = gp.alpha_flat.du, gp.alpha_flat.dv  # [n, (uu, uv, vv), :]
    perp = _normal_part(gp, np.stack([du[:, 1] - dv[:, 0], du[:, 2] - dv[:, 1]], axis=1))
    gam, a = gp.gamma_val, gp.alpha_val
    # sum_e Gamma^e_xc alpha_ye as (N, c, e) @ (N, e, :)
    conn = (np.matmul(gam[:, :, 1].swapaxes(1, 2), a[:, 0])
            - np.matmul(gam[:, :, 0].swapaxes(1, 2), a[:, 1]))
    g, t_low = gp.g_val, np.matmul(gp.g_val, gp.T_val[..., None])[..., 0]
    wedge = g[:, 0] * t_low[:, 1, None] - g[:, 1] * t_low[:, 0, None]  # [n, c]
    return perp + conn - gp.spec.ambient.kappa * wedge[..., None] * gp.eta_val[:, None]


def ambient_codazzi_residual(gp: GeomPoint) -> np.ndarray:
    """sqrt(g^{cd} <R_c, R_d>) of :func:`ambient_codazzi_defect`: the ambient
    Codazzi residual, with no normal frame and no choice of axes."""
    return np.sqrt(np.maximum(_g_trace(gp, ambient_codazzi_defect(gp)), 0.0))


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
    the sum over any orthonormal normal frame, H/|H| included, being
    g^{bd} <alpha(T, d_b), alpha(T, d_d)>: |A T|^2 on a hypersurface.
    """
    kappa = gp.spec.ambient.kappa
    lhs = 0.5 * laplace_at(gp.normT2, gp)
    a_eta = shape_matrix(gp, gp.eta_val)
    rhs = np.trace(np.matmul(a_eta, a_eta), axis1=-2, axis2=-1)
    t2 = gp.normT2.value
    rhs = rhs + kappa * t2 * (1.0 - t2) - _g_trace(gp, _alpha_t(gp))
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
    rhs = rhs + np.matmul(shape_matrix(gp, gp.alpha_val[:, 1, 1]), x[..., None])[..., 0]
    rhs = rhs - np.matmul(shape_matrix(gp, gp.alpha_val[:, 0, 1]), y[..., None])[..., 0]
    return gp.chart_norm(intrinsic - rhs)


def t_field_grad_residual(gp: GeomPoint) -> np.ndarray:
    """Residual of nabla_X T = A_eta X, the worse of the two chart directions."""
    a_eta = shape_matrix(gp, gp.eta_val)
    grad_t = column_derivatives(gp.gamma, gp.T_up)  # (nabla_a T)^b, indexed [a, b, n]
    res = np.zeros(len(gp.u))
    for a in range(2):
        res = np.maximum(res, gp.chart_norm(grad_t[a].T - a_eta[:, :, a]))
    return res


def t_field_alpha_residual(gp: GeomPoint) -> np.ndarray:
    """Residual of alpha(X, T) = - nabla^perp_X eta, the worse chart direction."""
    return _worst_norm(gp, _alpha_t(gp) + normal_connection_derivative(gp, gp.eta))


def pmc_values(gp: GeomPoint) -> np.ndarray:
    """Norm of the normal-connection derivative of H, worst chart direction."""
    return _worst_norm(gp, normal_connection_derivative(gp, gp.H))


def pmc_residual(gp: GeomPoint, grid: tuple[int, int], values=None,
                 tolerance: float = DEFAULT_TOLERANCES["pmc"]) -> ResidualReport:
    """Max norm of the normal-connection derivative of H over the grid ``gp``.

    ``values()`` gives that norm at every point, by default from ``gp``
    itself; a grid evaluated in blocks passes its joined values, with ``gp``
    its :class:`~prodsurf.geometry.SampleGrid`.  Minimal points are
    annotated, not fatal: H == 0 is parallel.
    """
    nu, nv = grid
    report = grid_report(gp, "pmc", values or functools.partial(pmc_values, gp), nu, nv,
                         tolerance)
    minimal_points = int(np.count_nonzero(gp.normH <= MINIMAL_TOL))
    if minimal_points:
        report.warnings.append(
            f"{minimal_points} of {nu * nv} grid points flagged minimal (|H| <= {MINIMAL_TOL})"
        )
    return report


def mu_integrand(gp: GeomPoint) -> np.ndarray:
    """|alpha|^2 - |A_H|^2 / |H|^2 at non-minimal points; |alpha|^2, the sum of
    tr A_i^2 over any orthonormal normal frame, is g^{ac} g^{bd} <alpha_ab, alpha_cd>."""
    bad = np.flatnonzero(gp.normH <= MINIMAL_TOL)
    if bad.size:
        k = bad[0]
        raise MinimalSurfaceError(
            f"|H| = {float(gp.normH[k])!r} below threshold at ({gp.u[k]}, {gp.v[k]})")
    sig = np.asarray(gp.spec.ambient.signature)
    a, ginv = gp.alpha_val, gp.ginv_val
    alpha2 = np.einsum("nac,nbd,nabcd->n", ginv, ginv,
                       vecdot(sig * a[:, :, :, None, None], a[:, None, None]))
    a_h = shape_matrix(gp, gp.H_val)
    return alpha2 - np.trace(np.matmul(a_h, a_h), axis1=-2, axis2=-1) / gp.normH ** 2


def mu_estimate(gp: GeomPoint) -> tuple[float, float]:
    """Grid supremum of the mu integrand, with its frame cross-check residual.

    The cross-check compares the integrand against -2 sum_{i>1} det A_i
    pointwise (both frame-free, so it checks |alpha|^2 + 2 sum_i det A_i
    = 4 |H|^2); the returned pair is (sup, max cross residual).  A NaN
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


def _class_rows(minimal: bool) -> list:
    """The entries of :data:`ROWS` that apply to a surface of the class."""
    return [row for row in ROWS if row[2] in ("both", "minimal" if minimal else "non-minimal")]


def _grid_rows(spec: SurfaceSpec, grid: tuple[int, int], margin: float, rows_of):
    """The grid, its minimality class and class warnings, and its rows.

    The class is decided on |H| over the whole grid.  ``rows_of(minimal)``
    gives the entries of :data:`ROWS` to run; each comes back as
    ``(identity_id, fn)`` with ``fn()`` the row over the whole grid, and the
    operator of the class is built once per batch for all of them.  On a
    grid of one block ``fn`` runs the evaluator itself over that batch.  On
    a larger grid every row is evaluated block by block as the block is
    evaluated, and only its masked residuals are kept; ``fn()`` joins them
    in point order.
    """
    points = SampleGrid(spec, grid[0], grid[1], margin)
    minimal, class_warnings = classify_minimality(points)
    rows = rows_of(minimal)

    def batch_rows(gp):
        s = codazzi.operator_jets(gp, "angle" if minimal else "pmc")
        return [functools.partial(row[4], gp, s) for row in rows]

    if points.single is not None:
        fns = batch_rows(points.single)
    else:
        parts = points.map(lambda gp: [fn() for fn in batch_rows(gp)])
        fns = [functools.partial(np.ma.concatenate, column) for column in zip(*parts)]
    return points, minimal, class_warnings, [(row[0], fn) for row, fn in zip(rows, fns)]


def run_suite(spec: SurfaceSpec, grid: tuple[int, int] = DEFAULT_GRID,
              margin: float = DEFAULT_MARGIN,
              tolerances: dict[str, float] | None = None) -> list[ResidualReport]:
    """Run every identity applicable to the surface's minimality class.

    The grid is evaluated in blocks (:class:`~prodsurf.geometry.SampleGrid`):
    each row keeps its per-point masked residuals, joined in point order, and
    is reduced once, so the report is the one a single batch gives.
    """
    nu, nv = grid
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    points, minimal, class_warnings, rows = _grid_rows(spec, grid, margin, _class_rows)
    reports: list[ResidualReport] = []
    for identity_id, fn in rows:
        if identity_id == "pmc":
            reports.append(pmc_residual(points, grid, fn, tol["pmc"]))
            continue
        report = grid_report(points, identity_id, fn, nu, nv, tol[identity_id])
        if report is not None:
            report.warnings.extend(class_warnings)
            reports.append(report)
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

    def rows_of(minimal):
        rows = [row for row in _class_rows(minimal) if row[0] == identity_id]
        if not rows:
            surface_class = "minimal" if minimal else "non-minimal"
            raise ValueError(f"identity {identity_id!r} does not apply to the "
                             f"{surface_class} surface {spec.catalog_id!r}")
        return rows

    *_, [(_, fn)] = _grid_rows(spec, grid, margin, rows_of)
    result = fn()
    evaluated = ~np.ma.getmaskarray(result)
    if not evaluated.any():
        raise ValueError(f"identity {identity_id!r} skipped at every grid point of "
                         f"{spec.catalog_id!r}: {_SKIP_REASONS[identity_id]}")
    return np.abs(np.asarray(np.ma.getdata(result), dtype=float)), evaluated
