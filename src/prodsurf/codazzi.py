"""Traceless Codazzi operators and the identities they satisfy.

Two operators are provided as 2x2 chart-basis matrices with jet-valued
entries:

* the PMC operator ``2 A_H - kappa <T,.> T + (kappa |T|^2 / 2) Id - 2|H|^2 Id``
  attached to a non-minimal surface with parallel mean curvature, and
* the angle operator ``-<T,.> T + (|T|^2 / 2) Id`` attached to a minimal
  surface, built purely from the tangential part of the vertical field.

On top of these live the Codazzi residual (vanishing of the antisymmetrized
covariant derivative), the Simons-type identities for the operator norm, the
norm/determinant identity ``|S|^2 = -2 det S`` for traceless operators, and
the metric-change construction (new metric ``<S., S.>`` whose curvature is
``K / det S``).

Every residual takes the batched geometry of its points, typically a block
of a grid (:class:`prodsurf.geometry.SampleGrid`), and the operator's jet matrix
built from it once (:func:`operator_jets`), and returns one residual per
point; a single point is a batch of one.  Where an identity is undefined
(``|S|`` below the floor, singular ``S``) the residual is a masked array with
those points masked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .geometry import (
    GeomPoint,
    MinimalSurfaceError,
    SurfaceSpec,
    christoffels,
    first_bad,
    gauss_curvature_brioschi,
    grad_norm_sq,
    laplace_at,
    quad_form,
    MINIMAL_TOL,
)
from .jets import Jet2
from .spaceforms import flat_inner

SINGULAR_TOL = 1e-8
S_NORM_FLOOR = 1e-6


class OperatorShapeError(ValueError):
    """Operator fails a structural precondition (tracelessness, self-adjointness)."""


@dataclass
class CodazziField:
    """A candidate Codazzi operator as a field of chart-basis matrices.

    ``matrix_at(u, v)`` gives the 2x2 jet matrix over the points of the
    coordinate arrays ``u``, ``v``, with one row per point in every entry,
    also where the field is constant.  The evaluators below take that matrix
    itself, and no package path builds a field: it stays while the benchmark
    tracer (``perfbench/tracer.py``) wraps :func:`field_for` and the tests'
    finite-difference Codazzi oracle queries one.
    """

    kind: str
    spec: SurfaceSpec
    matrix_at: Callable[[float, float], list[list[Jet2]]]


def pmc_operator_jets(gp: GeomPoint) -> list[list[Jet2]]:
    """Chart-basis matrix (jet entries) of the PMC operator at a point or batch."""
    first_bad(gp.normH <= MINIMAL_TOL,
              "PMC operator undefined at minimal point: |H| =", gp.normH, MinimalSurfaceError)
    model = gp.spec.ambient
    uu, uv, vv = flat_inner(model, gp.alpha_flat, gp.H)
    m = [[uu, uv], [uv, vv]]
    a_h = [[gp.ginv[a][0] * m[0][b] + gp.ginv[a][1] * m[1][b] for b in range(2)]
           for a in range(2)]
    t_low = [gp.g[b][0] * gp.T_up[0] + gp.g[b][1] * gp.T_up[1] for b in range(2)]
    diag = 0.5 * model.kappa * gp.normT2 - 2.0 * gp.normH2
    out = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            entry = 2.0 * a_h[a][b] - model.kappa * (gp.T_up[a] * t_low[b])
            if a == b:
                entry = entry + diag
            out[a][b] = entry
    return out


def angle_operator_jets(gp: GeomPoint) -> list[list[Jet2]]:
    """Chart-basis matrix (jet entries) of the angle operator at a point or batch."""
    t_low = [gp.g[b][0] * gp.T_up[0] + gp.g[b][1] * gp.T_up[1] for b in range(2)]
    half = 0.5 * gp.normT2
    out = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            entry = -(gp.T_up[a] * t_low[b])
            if a == b:
                entry = entry + half
            out[a][b] = entry
    return out


def matrix_values(s: list[list[Jet2]]) -> np.ndarray:
    """Constant terms of a jet matrix: (2, 2), or (points, 2, 2) for a batch."""
    return np.stack([np.stack([s[0][0].value, s[0][1].value], axis=-1),
                     np.stack([s[1][0].value, s[1][1].value], axis=-1)], axis=-2)


def pmc_operator(gp: GeomPoint) -> np.ndarray:
    return matrix_values(pmc_operator_jets(gp))


def angle_operator(gp: GeomPoint) -> np.ndarray:
    return matrix_values(angle_operator_jets(gp))


def operator_jets(gp: GeomPoint, kind: str) -> list[list[Jet2]]:
    """The operator of ``kind``, 'pmc' or 'angle', over the points of ``gp``."""
    if kind == "pmc":
        return pmc_operator_jets(gp)
    if kind == "angle":
        return angle_operator_jets(gp)
    raise ValueError(f"unknown operator kind {kind!r}")


def field_for(spec: SurfaceSpec, kind: str) -> CodazziField:
    """Operator field over a chart; kind 'pmc' or 'angle'.

    Each ``matrix_at(u, v)`` call evaluates the chart at those points and
    builds the operator there.
    """
    return CodazziField(kind, spec, lambda u, v: operator_jets(spec.geom(u, v), kind))


def norm_sq_jet(s: list[list[Jet2]]) -> Jet2:
    """|S|^2 = trace(S S) for a g-self-adjoint endomorphism (basis-free)."""
    return s[0][0] * s[0][0] + 2.0 * (s[0][1] * s[1][0]) + s[1][1] * s[1][1]


def det_jet(s: list[list[Jet2]]) -> Jet2:
    return s[0][0] * s[1][1] - s[0][1] * s[1][0]


def _codazzi_defect(gam: np.ndarray, s: list[list[Jet2]]) -> np.ndarray:
    """nabla_u (S d_v) - nabla_v (S d_u) per point in chart components, from the
    Christoffel values ``gam[:, a, b, c]`` = Gamma^a_bc (coordinate fields commute)."""
    res = np.empty((len(gam), 2))
    for a in range(2):
        cov_u = s[a][1].du + (gam[:, a, 0, 0] * s[0][1].value + gam[:, a, 0, 1] * s[1][1].value)
        cov_v = s[a][0].dv + (gam[:, a, 1, 0] * s[0][0].value + gam[:, a, 1, 1] * s[1][0].value)
        res[:, a] = cov_u - cov_v
    return res


def codazzi_residual(gp: GeomPoint, s: list[list[Jet2]]) -> np.ndarray:
    """g-norm of the antisymmetrized covariant derivative of the operator,
    | nabla_u (S d_v) - nabla_v (S d_u) |_g."""
    return gp.chart_norm(_codazzi_defect(gp.gamma_val, s))


def grad_tensor_norm_sq(gp: GeomPoint, s: list[list[Jet2]]) -> np.ndarray:
    """Full covariant-gradient norm |nabla S|^2 of the operator.

    (nabla_a S)^b_c = d_a S^b_c + Gamma^b_{ae} S^e_c - Gamma^e_{ac} S^b_e,
    contracted with g^{aa'} g_{bb'} g^{cc'}.  For a traceless Codazzi operator
    on a surface this equals 2 |grad |S||^2 away from zeros of |S| (the Kato
    equality), but it is polynomial in the entries and therefore global.
    """
    s_val = matrix_values(s)
    gam = gp.gamma_val
    nabla = np.empty((len(gp.u), 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                val = s[b][c].du if a == 0 else s[b][c].dv
                val = val + (gam[:, b, a, 0] * s_val[:, 0, c] + gam[:, b, a, 1] * s_val[:, 1, c])
                val = val - (gam[:, 0, a, c] * s_val[:, b, 0] + gam[:, 1, a, c] * s_val[:, b, 1])
                nabla[:, a, b, c] = val
    return np.einsum("nabc,nxyz,nax,nby,ncz->n", nabla, nabla, gp.ginv_val, gp.g_val,
                     gp.ginv_val)


def _norm_floor(s2: Jet2) -> tuple[np.ndarray, Jet2]:
    """Where |S| is below S_NORM_FLOOR, and the jet of |S|^2 made safe there."""
    low = s2.value <= S_NORM_FLOOR * S_NORM_FLOOR
    return low, jets.where(low, 1.0, s2)


def simons_log_residual(gp: GeomPoint, s) -> np.ma.MaskedArray:
    """Residual of Lap ln|S| = 2 K, defined away from zeros of |S|."""
    low, s2 = _norm_floor(norm_sq_jet(s))
    log_s = 0.5 * jets.log(s2)
    return np.ma.masked_array(np.abs(laplace_at(log_s, gp) - 2.0 * gp.K_val), low)


def simons_quadratic_residual(gp: GeomPoint, s) -> np.ndarray:
    """The globally valid Simons residual alone (no floor requirement)."""
    s2 = norm_sq_jet(s)
    lap = laplace_at(s2, gp)
    grad_full = grad_tensor_norm_sq(gp, s)
    return np.abs(0.5 * lap - grad_full - 2.0 * gp.K_val * s2.value)


def simons_reduced_residual(gp: GeomPoint, s) -> np.ma.MaskedArray:
    """Residual of |S| Lap|S| - 2 K |S|^2 = |grad |S||^2, away from zeros of |S|."""
    low, s2 = _norm_floor(norm_sq_jet(s))
    s_norm = jets.sqrt(s2)
    lap = laplace_at(s_norm, gp)
    grad = grad_norm_sq(s_norm, gp.ginv_val)
    return np.ma.masked_array(np.abs(s_norm.value * lap - 2.0 * gp.K_val * s2.value - grad), low)


def s_norm_det_identity(s_val: np.ndarray, g_val: np.ndarray):
    """| trace(S^2) + 2 det S | for a traceless g-self-adjoint operator.

    Takes one matrix pair or a batch of them (leading point axis).
    """
    s_val = np.asarray(s_val, dtype=float)
    g_val = np.asarray(g_val, dtype=float)
    scale = np.maximum(1.0, np.abs(s_val).max(axis=(-2, -1)))
    trace = s_val[..., 0, 0] + s_val[..., 1, 1]
    first_bad(np.abs(trace) > 1e-8 * scale, "operator not traceless: trace", trace,
              OperatorShapeError)
    gs = np.matmul(g_val, s_val)
    g_scale = np.maximum(1.0, np.abs(g_val).max(axis=(-2, -1)))
    if (np.abs(gs[..., 0, 1] - gs[..., 1, 0]) > 1e-8 * scale * g_scale).any():
        raise OperatorShapeError("operator not self-adjoint for the supplied metric")
    square = np.trace(np.matmul(s_val, s_val), axis1=-2, axis2=-1)
    return np.abs(square + 2.0 * np.linalg.det(s_val))


def new_metric_jets(gp: GeomPoint, s: list[list[Jet2]]) -> list[list[Jet2]]:
    """Entries of the changed metric <S . , S .> as batched jets."""
    out = [[None, None], [None, None]]
    for a in range(2):
        for b in range(a, 2):
            acc = None
            for c in range(2):
                for d in range(2):
                    term = s[c][a] * s[d][b] * gp.g[c][d]
                    acc = term if acc is None else acc + term
            out[a][b] = acc
            out[b][a] = acc
    return out


def _nonsingular(s: list[list[Jet2]]):
    """The operator with the identity at its singular points, det S, and the singular mask."""
    det = det_jet(s).value
    singular = np.abs(det) <= SINGULAR_TOL
    if singular.any():
        s = [[jets.where(singular, 1.0 if a == b else 0.0, s[a][b]) for b in range(2)]
             for a in range(2)]
    return s, det, singular


def _unit_det(gs: list[list[Jet2]]):
    """The changed metric scaled at each point by c to a determinant in [1/2, 2), and c.

    det <S., S.> = det(S)^2 det g is tiny where S is nearly singular, below the
    absolute floors of Brioschi's K and of the metric inverse.  K(c g) = K(g) / c,
    c g has the Christoffels of g, and c a power of two keeps this exact.
    """
    _, exponent = np.frexp(np.linalg.det(matrix_values(gs)))
    c = np.ldexp(1.0, -(exponent // 2))
    return [[Jet2(x.c * c[:, None], x.order) for x in row] for row in gs], c


def metric_change(gp: GeomPoint, s: list[list[Jet2]]):
    """Changed metric, its intrinsic curvature, and the curvature-law residual.

    The new curvature is computed from the changed metric through the same
    intrinsic (Brioschi) path used for the original metric, so the law
    Ktilde = K / det S is a genuine cross-check.  The residual is stated
    multiplicatively, |Ktilde det S - K|, to stay meaningful for small det S.
    Ktilde and the residual are masked where S is singular, where the
    changed metric is built from the identity instead.
    """
    safe, det, singular = _nonsingular(s)
    gs = new_metric_jets(gp, safe)
    unit, c = _unit_det(gs)
    ktilde = gauss_curvature_brioschi(unit).value * c
    residual = np.abs(ktilde * det - gp.K_val)
    return gs, np.ma.masked_array(ktilde, singular), np.ma.masked_array(residual, singular)


def inverse_codazzi_residual(gp: GeomPoint, s: list[list[Jet2]]) -> np.ma.MaskedArray:
    """Codazzi residual of S^{-1} with respect to the changed metric.

    The connection of the changed metric is recomputed independently from its
    own Christoffel symbols (not through the S-conjugation formula), so this
    checks that S^{-1} really is Codazzi for the new geometry.  S is cut to
    order 1: first derivatives of S^{-1} and of <S., S.> are all it reads.
    """
    s, _, singular = _nonsingular([[x.truncate(1) for x in row] for row in s])
    r = 1.0 / det_jet(s)
    p = [[s[1][1] * r, -s[0][1] * r], [-s[1][0] * r, s[0][0] * r]]
    gs = new_metric_jets(gp, s)
    gam = christoffels(_unit_det(gs)[0])
    res = _codazzi_defect(np.stack([matrix_values(row) for row in gam], axis=1), p)
    norm = np.sqrt(np.maximum(quad_form(res, matrix_values(gs)), 0.0))
    return np.ma.masked_array(norm, singular)


def trace_residual(s: list[list[Jet2]]) -> np.ndarray:
    """|trace S| per point; the trace needs no geometry."""
    return np.abs(s[0][0].value + s[1][1].value)
