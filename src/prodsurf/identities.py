"""Residual evaluators for the structure equations and curvature formulas.

Each evaluator is a pure pointwise function of the chart; grid sweeps reduce
with an ordered fold so reports are bitwise reproducible.  A residual being
pointwise also means it cannot depend on the sampling grid, which the tests
exercise directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import codazzi
from .codazzi import NormFloorError, SingularOperatorError
from .geometry import (
    MINIMAL_TOL,
    MINIMAL_WARN_BAND,
    MinimalSurfaceError,
    SurfaceSpec,
    _normal_part,
    aux_det_sum,
    grid_geometry,
    grid_points,
    normal_frame_jets,
    shape_operator,
)
from .spaceforms import flat_inner

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


class IdentitySkip(Exception):
    """A pointwise evaluator declined this point; carries the reason."""


def _t_field_memo(spec, u, v):
    gp = spec.geom(u, v)
    if gp._t_field is None:
        gp._t_field = t_field_residuals(spec, u, v)
    return gp._t_field


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


def grid_report(spec: SurfaceSpec, identity_id: str, fn, nu: int, nv: int,
                margin: float, tolerance: float) -> ResidualReport | None:
    """Sweep a pointwise evaluator over the grid (ordered fold).

    Returns None when every point was skipped (the identity does not apply
    anywhere on this chart); partial skips become report warnings.  A
    non-finite pointwise value becomes the row's ``max_abs`` (the first NaN
    wins) and fails the row.
    """
    pts = grid_points(spec, nu, nv, margin)
    max_abs = -1.0
    argmax = pts[0]
    total = 0.0
    evaluated = 0
    skip_reasons: dict[str, int] = {}
    for (u, v) in pts:
        try:
            val = float(abs(fn(u, v)))
        except IdentitySkip as exc:
            reason = str(exc)
            skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
            continue
        evaluated += 1
        total += val
        if val > max_abs or (math.isnan(val) and not math.isnan(max_abs)):
            max_abs = val
            argmax = (u, v)
    warnings = [
        f"skipped at {count} of {len(pts)} points: {reason}"
        for reason, count in sorted(skip_reasons.items())
    ]
    if evaluated == 0:
        log.warning("%s skipped on %s: %s", identity_id, spec.catalog_id,
                    "; ".join(warnings) or "no evaluable points")
        return None
    return ResidualReport(
        identity_id=identity_id,
        grid=(nu, nv),
        max_abs=max_abs,
        mean_abs=total / evaluated,
        argmax=argmax,
        tolerance=tolerance,
        passed=max_abs <= tolerance,
        warnings=warnings,
    )


# -- pointwise evaluators ------------------------------------------------------

def ambient_codazzi_residual(spec: SurfaceSpec, u: float, v: float,
                             normal_field=None) -> float:
    """Residual of the fundamental Codazzi equation of the product ambient.

    (nabla_X A)(Y, xi) - (nabla_Y A)(X, xi) = kappa <xi, eta> (X ^ Y) T
    with X = d_u, Y = d_v, (X ^ Y)T = <Y,T> X - <X,T> Y, and the covariant
    derivative of A carrying the normal-connection correction on xi.  With no
    field supplied, the maximum residual over the normal frame is returned.
    """
    gp = spec.geom(u, v)
    model = spec.ambient
    sig = np.asarray(model.signature)
    if normal_field is None:
        frame = normal_frame_jets(gp)
    else:
        frame = [normal_field(gp)]
    gam = gp.gamma_val
    t_low = gp.g_val @ gp.T_val
    wedge = np.array([t_low[1], -t_low[0]])
    worst = 0.0
    for xi in frame:
        m = [[flat_inner(model, gp.alpha_flat[a][b], xi) for b in range(2)]
             for a in range(2)]
        a_xi = [[gp.ginv[a][0] * m[0][b] + gp.ginv[a][1] * m[1][b] for b in range(2)]
                for a in range(2)]
        a_val = codazzi.matrix_values(a_xi)
        xi_val = np.array([c.value for c in xi])
        nperp = (
            _normal_part(gp, np.array([c.du for c in xi])),
            _normal_part(gp, np.array([c.dv for c in xi])),
        )

        def cov(xdir: int, ycol: int) -> np.ndarray:
            out = np.zeros(2)
            col = a_val[:, ycol]
            for a in range(2):
                d = a_xi[a][ycol].du if xdir == 0 else a_xi[a][ycol].dv
                d += sum(gam[a][xdir][c] * col[c] for c in range(2))
                d -= sum(a_val[a][c] * gam[c][xdir][ycol] for c in range(2))
                out[a] = d
            return out - shape_operator(gp, nperp[xdir])[:, ycol]

        lhs = cov(0, 1) - cov(1, 0)
        rhs = model.kappa * float(np.dot(sig * xi_val, gp.eta_val)) * wedge
        worst = max(worst, gp.chart_norm(lhs - rhs))
    return worst


def curvature_formula_terms(spec: SurfaceSpec, u: float, v: float) -> dict[str, float]:
    """All terms of the Gaussian-curvature formula for non-minimal PMC charts.

    K = kappa (1 - |T|^2) + |H|^2 - |S|^2/(8|H|^2) - kappa^2 |T|^4/(16|H|^2)
        - kappa <S T, T>/(4|H|^2) + sum_{i>1} det A_i
    """
    gp = spec.geom(u, v)
    if gp.normH <= MINIMAL_TOL:
        raise MinimalSurfaceError(f"|H| = {gp.normH!r}: curvature formula needs |H| > 0")
    kappa = spec.ambient.kappa
    s_val = codazzi.matrix_values(codazzi.pmc_operator_jets(gp))
    h2 = gp.normH ** 2
    t2 = gp.normT2.value
    s2 = float(np.trace(s_val @ s_val))
    st_t = float((s_val @ gp.T_val) @ gp.g_val @ gp.T_val)
    terms = {
        "ambient": kappa * (1.0 - t2),
        "mean_sq": h2,
        "operator_norm": -s2 / (8.0 * h2),
        "vertical_quartic": -(kappa ** 2) * t2 * t2 / (16.0 * h2),
        "operator_vertical": -kappa * st_t / (4.0 * h2),
        "aux_det_sum": aux_det_sum(gp),
    }
    terms["rhs"] = sum(terms.values())
    terms["K"] = gp.K_val
    terms["residual"] = abs(terms["K"] - terms["rhs"])
    return terms


def curvature_formula_residual(spec: SurfaceSpec, u: float, v: float) -> float:
    return curvature_formula_terms(spec, u, v)["residual"]


def t_laplacian_residual(spec: SurfaceSpec, u: float, v: float) -> float:
    """Residual of the vertical-energy Laplacian identity for PMC charts.

    1/2 Lap |T|^2 = |A_eta|^2 + kappa |T|^2 (1 - |T|^2) - sum |A_i T|^2,
    the sum running over the auxiliary frame (all frame vectors at a minimal
    point, where no mean-curvature direction is singled out).
    """
    from .geometry import laplace_at

    gp = spec.geom(u, v)
    kappa = spec.ambient.kappa
    lhs = 0.5 * laplace_at(gp.normT2, gp)
    a_eta = shape_operator(gp, gp.eta_val)
    rhs = float(np.trace(a_eta @ a_eta))
    t2 = gp.normT2.value
    rhs += kappa * t2 * (1.0 - t2)
    start = 1 if gp.normH > MINIMAL_TOL else 0
    for a_i in gp.A[start:]:
        w = a_i @ gp.T_val
        rhs -= float(w @ gp.g_val @ w)
    return abs(lhs - rhs)


def gauss_equation_residual(spec: SurfaceSpec, u: float, v: float) -> float:
    """Residual of the Gauss equation with X = d_u and Y = W = d_v.

    Intrinsic R(d_u, d_v) d_v from the metric against
    kappa (X^Y - <Y,T> X^T + <X,T> Y^T) W + A_{alpha(Y,W)} X - A_{alpha(X,W)} Y.
    """
    gp = spec.geom(u, v)
    kappa = spec.ambient.kappa
    gam = gp.gamma
    gam_val = gp.gamma_val
    # R^a_{b c d} with b = v (W), c = u (X), d = v (Y)
    intrinsic = np.zeros(2)
    for a in range(2):
        val = gam[a][1][1].du - gam[a][0][1].dv
        val += sum(gam_val[a][0][e] * gam_val[e][1][1] for e in range(2))
        val -= sum(gam_val[a][1][e] * gam_val[e][0][1] for e in range(2))
        intrinsic[a] = val

    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    w = y
    g = gp.g_val
    t = gp.T_val

    def pair(p, q):
        return float(p @ g @ q)

    def wedge(p, q, z):
        return pair(q, z) * p - pair(p, z) * q

    ambient = wedge(x, y, w) - pair(y, t) * wedge(x, t, w) + pair(x, t) * wedge(y, t, w)
    rhs = kappa * ambient
    alpha_yw = np.array([c for c in gp.alpha_val[1][1]])
    alpha_xw = np.array([c for c in gp.alpha_val[0][1]])
    rhs += shape_operator(gp, alpha_yw) @ x
    rhs -= shape_operator(gp, alpha_xw) @ y
    return gp.chart_norm(intrinsic - rhs)


def t_field_residuals(spec: SurfaceSpec, u: float, v: float) -> tuple[float, float]:
    """Residuals of the vertical-field identities along both chart directions.

    grad: nabla_X T = A_eta X;  alpha: alpha(X, T) = - nabla^perp_X eta.
    """
    from .geometry import normal_connection_derivative

    gp = spec.geom(u, v)
    a_eta = shape_operator(gp, gp.eta_val)
    gam = gp.gamma_val
    res_grad = 0.0
    for a in range(2):
        grad_t = np.array([gp.T_up[b].du if a == 0 else gp.T_up[b].dv for b in range(2)])
        grad_t += np.array(
            [sum(gam[b][a][c] * gp.T_val[c] for c in range(2)) for b in range(2)]
        )
        res_grad = max(res_grad, gp.chart_norm(grad_t - a_eta[:, a]))
    res_alpha = 0.0
    sig = np.asarray(spec.ambient.signature)
    for a, direction in enumerate("uv"):
        alpha_at = sum(gp.T_val[c] * gp.alpha_val[a][c] for c in range(2))
        nperp = normal_connection_derivative(spec, u, v, lambda g: g.eta, direction)
        diff = alpha_at + nperp
        res_alpha = max(res_alpha, math.sqrt(max(float(np.dot(sig * diff, diff)), 0.0)))
    return res_grad, res_alpha


def pmc_residual(spec: SurfaceSpec, grid: tuple[int, int] = DEFAULT_GRID,
                 margin: float = DEFAULT_MARGIN) -> ResidualReport:
    """Max norm of the normal-connection derivative of H over the grid.

    Minimal points are annotated, not fatal: H == 0 is parallel.
    """
    from .geometry import normal_connection_derivative

    nu, nv = grid
    sig = np.asarray(spec.ambient.signature)
    minimal_points = 0

    def fn(u: float, v: float) -> float:
        nonlocal minimal_points
        gp = spec.geom(u, v)
        if gp.normH <= MINIMAL_TOL:
            minimal_points += 1
        worst = 0.0
        for direction in "uv":
            d = normal_connection_derivative(spec, u, v, lambda g: g.H, direction)
            worst = max(worst, math.sqrt(max(float(np.dot(sig * d, d)), 0.0)))
        return worst

    report = grid_report(spec, "pmc", fn, nu, nv, margin, DEFAULT_TOLERANCES["pmc"])
    if minimal_points:
        report.warnings.append(
            f"{minimal_points} of {nu * nv} grid points flagged minimal (|H| <= {MINIMAL_TOL})"
        )
    return report


def mu_integrand(spec: SurfaceSpec, u: float, v: float) -> float:
    """|alpha|^2 - |A_H|^2 / |H|^2 at a non-minimal point."""
    gp = spec.geom(u, v)
    if gp.normH <= MINIMAL_TOL:
        raise MinimalSurfaceError(f"|H| = {gp.normH!r} below threshold at ({u}, {v})")
    alpha2 = float(sum(np.trace(a @ a) for a in gp.A))
    model = spec.ambient
    sig = np.asarray(model.signature)
    m = np.array(
        [[float(np.dot(sig * gp.alpha_val[a][b], gp.H_val)) for b in range(2)]
         for a in range(2)]
    )
    a_h = gp.ginv_val @ m
    return alpha2 - float(np.trace(a_h @ a_h)) / gp.normH ** 2


def mu_estimate(spec: SurfaceSpec, grid: tuple[int, int] = DEFAULT_GRID,
                margin: float = DEFAULT_MARGIN) -> tuple[float, float]:
    """Grid supremum of the mu integrand, with its frame cross-check residual.

    The cross-check compares the integrand against -2 sum_{i>1} det A_i
    pointwise; the returned pair is (sup, max cross residual).
    """
    nu, nv = grid
    sup = -math.inf
    cross = 0.0
    for (u, v) in grid_points(spec, nu, nv, margin):
        val = mu_integrand(spec, u, v)
        sup = max(sup, val)
        cross = max(cross, abs(val + 2.0 * aux_det_sum(spec.geom(u, v))))
    return sup, cross


# -- suite orchestration -------------------------------------------------------

def classify_minimality(spec: SurfaceSpec, grid: tuple[int, int],
                        margin: float) -> tuple[bool, list[str]]:
    """Decide the pipeline branch from |H| over the grid; band points warn."""
    h = grid_geometry(spec, grid[0], grid[1], margin).normH
    warnings: list[str] = []
    max_h = float(np.fmax.reduce(h, initial=0.0))  # a NaN never becomes the maximum
    band = int(np.count_nonzero((MINIMAL_TOL < h) & (h < MINIMAL_WARN_BAND)))
    if band:
        warnings.append(
            f"|H| inside the conditioning band ({MINIMAL_TOL}, {MINIMAL_WARN_BAND}) "
            f"at {band} grid points"
        )
    return max_h <= MINIMAL_TOL, warnings


def run_suite(spec: SurfaceSpec, grid: tuple[int, int] = DEFAULT_GRID,
              margin: float = DEFAULT_MARGIN,
              tolerances: dict[str, float] | None = None) -> list[ResidualReport]:
    """Run every identity applicable to the surface's minimality class."""
    nu, nv = grid
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    minimal, class_warnings = classify_minimality(spec, grid, margin)
    kind = "angle" if minimal else "pmc"
    op_field = codazzi.field_for(spec, kind)

    def simons_sq(u, v):
        return codazzi.simons_quadratic_residual(spec, u, v, op_field)

    skip_floor = f"|S| below the floor {codazzi.S_NORM_FLOOR}"
    skip_singular = f"operator singular (|det S| <= {codazzi.SINGULAR_TOL})"

    def simons_reduced(u, v):
        try:
            return codazzi.simons_reduced_residual(spec, u, v, op_field)
        except NormFloorError as exc:
            raise IdentitySkip(skip_floor) from exc

    def simons_log(u, v):
        try:
            return codazzi.simons_log_residual(spec, u, v, op_field)
        except NormFloorError as exc:
            raise IdentitySkip(skip_floor) from exc

    def metric_change_res(u, v):
        try:
            return codazzi.metric_change(spec, u, v, op_field)[2]
        except SingularOperatorError as exc:
            raise IdentitySkip(skip_singular) from exc

    def inverse_codazzi(u, v):
        try:
            return codazzi.inverse_codazzi_residual(spec, u, v, op_field)
        except SingularOperatorError as exc:
            raise IdentitySkip(skip_singular) from exc

    def norm_det(u, v):
        gp = spec.geom(u, v)
        s_val = codazzi.matrix_values(op_field.matrix_at(u, v))
        return codazzi.s_norm_det_identity(s_val, gp.g_val)

    def mu_check(u, v):
        return abs(mu_integrand(spec, u, v) + 2.0 * aux_det_sum(spec.geom(u, v)))

    suite: list[tuple[str, object]] = [
        (f"codazzi_{kind}", lambda u, v: codazzi.codazzi_residual(spec, u, v, op_field)),
        ("operator_trace", lambda u, v: codazzi.trace_residual(spec, u, v, op_field)),
        ("operator_norm_det", norm_det),
        ("simons_sq", simons_sq),
        ("simons_reduced", simons_reduced),
        ("simons_log", simons_log),
        ("metric_change", metric_change_res),
        ("inverse_operator_codazzi", inverse_codazzi),
        ("ambient_codazzi", lambda u, v: ambient_codazzi_residual(spec, u, v)),
        ("gauss_equation", lambda u, v: gauss_equation_residual(spec, u, v)),
        ("t_laplacian", lambda u, v: t_laplacian_residual(spec, u, v)),
        ("t_field_grad", lambda u, v: _t_field_memo(spec, u, v)[0]),
        ("t_field_alpha", lambda u, v: _t_field_memo(spec, u, v)[1]),
    ]
    if not minimal:
        suite.append(("curvature_formula",
                      lambda u, v: curvature_formula_residual(spec, u, v)))
        suite.append(("mu_consistency", mu_check))

    reports: list[ResidualReport] = []
    for identity_id, fn in suite:
        report = grid_report(spec, identity_id, fn, nu, nv, margin, tol[identity_id])
        if report is None:
            continue
        if class_warnings:
            report.warnings.extend(class_warnings)
        reports.append(report)

    pmc_rep = pmc_residual(spec, grid, margin)
    pmc_rep.tolerance = tol["pmc"]
    pmc_rep.passed = pmc_rep.max_abs <= pmc_rep.tolerance
    reports.append(pmc_rep)
    return reports
