"""Traceless Codazzi operators and the identities they satisfy.

Two operators are provided as 2x2 chart-basis matrices, each one jet of
component shape (2, 2):

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
    DegenerateMetricError,
    GeomPoint,
    MinimalSurfaceError,
    SurfaceSpec,
    _values,
    christoffels,
    column_derivatives,
    covariant_derivative,
    det_jet,
    first_bad,
    gauss_curvature_brioschi,
    grad_norm_sq,
    inverse_jet,
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

    ``matrix_at(u, v)`` gives the matrix jet, of component shape (2, 2), over
    the points of the coordinate arrays ``u``, ``v``, with one row per point,
    also where the field is constant.  The evaluators below take that matrix
    itself, and no package path builds a field: it stays while the benchmark
    tracer (``perfbench/tracer.py``) wraps :func:`field_for` and the tests'
    finite-difference Codazzi oracle queries one.
    """

    kind: str
    spec: SurfaceSpec
    matrix_at: Callable[[float, float], Jet2]


def _plus_diagonal(m: Jet2, d: Jet2) -> Jet2:
    """m + d Id, adding d to the diagonal entries alone: adding d Id would turn
    an off-diagonal -0.0 into 0.0."""
    return jets.matrix(m[0, 0] + d, m[0, 1], m[1, 0], m[1, 1] + d)


def _vertical_outer(gp: GeomPoint) -> Jet2:
    """T^a T_b, with T_b = g_be T^e lowered by the metric."""
    t_low = jets.matmul(gp.g, gp.T_up)
    return gp.T_up[:, None] * t_low[None]


def pmc_operator_jets(gp: GeomPoint) -> Jet2:
    """Chart-basis matrix jet of the PMC operator at a point or batch."""
    first_bad(gp.normH <= MINIMAL_TOL,
              "PMC operator undefined at minimal point: |H| =", gp.normH, MinimalSurfaceError)
    model = gp.spec.ambient
    uu, uv, vv = flat_inner(model, gp.alpha_flat, gp.H)
    a_h = jets.matmul(gp.ginv, jets.matrix(uu, uv, uv, vv))
    diag = 0.5 * model.kappa * gp.normT2 - 2.0 * gp.normH2
    return _plus_diagonal(2.0 * a_h - model.kappa * _vertical_outer(gp), diag)


def angle_operator_jets(gp: GeomPoint) -> Jet2:
    """Chart-basis matrix jet of the angle operator at a point or batch."""
    return _plus_diagonal(-_vertical_outer(gp), 0.5 * gp.normT2)


def angle_operator(gp: GeomPoint) -> np.ndarray:
    return _values(angle_operator_jets(gp))


def operator_jets(gp: GeomPoint, kind: str) -> Jet2:
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


def norm_sq_jet(s: Jet2) -> Jet2:
    """|S|^2 = trace(S S) for a g-self-adjoint endomorphism (basis-free)."""
    return s[0, 0] * s[0, 0] + 2.0 * (s[0, 1] * s[1, 0]) + s[1, 1] * s[1, 1]


def _codazzi_defect(gamma: Jet2, s: Jet2) -> np.ndarray:
    """nabla_u (S d_v) - nabla_v (S d_u) per point in chart components, from the
    Christoffel jet (coordinate fields commute)."""
    cols = column_derivatives(gamma, s)
    return (cols[0, :, 1] - cols[1, :, 0]).T


def codazzi_residual(gp: GeomPoint, s: Jet2) -> np.ndarray:
    """g-norm of the antisymmetrized covariant derivative of the operator,
    | nabla_u (S d_v) - nabla_v (S d_u) |_g."""
    return gp.chart_norm(_codazzi_defect(gp.gamma, s))


def grad_tensor_norm_sq(gp: GeomPoint, s: Jet2) -> np.ndarray:
    """Full covariant-gradient norm |nabla S|^2 of the operator.

    (nabla_a S)^b_c = d_a S^b_c + Gamma^b_{ae} S^e_c - Gamma^e_{ac} S^b_e,
    contracted with g^{aa'} g_{bb'} g^{cc'}.  For a traceless Codazzi operator
    on a surface this equals 2 |grad |S||^2 away from zeros of |S| (the Kato
    equality), but it is polynomial in the entries and therefore global.
    """
    nabla = np.ascontiguousarray(np.moveaxis(covariant_derivative(gp.gamma, s), -1, 0))
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


def new_metric_jets(gp: GeomPoint, s: Jet2) -> Jet2:
    """The changed metric <S . , S .> as a batched matrix jet: entry (a, b) sums
    s[c, a] s[d, b] g[c, d] over (c, d) = (0, 0), (0, 1), (1, 0), (1, 1) left
    to right, and entry (1, 0) is entry (0, 1)."""
    # terms[d + 2c, a, b] = s[c, a] s[d, b], whose g[c, d] is g's entry d + 2c: g is symmetric
    terms = (s[None, :, :, None] * s[:, None, None, :]).reshape((4, 2, 2))
    out = jets.component_sum(terms * gp.g.reshape((4,))[:, None, None], axis=0)
    return jets.matrix(out[0, 0], out[0, 1], out[0, 1], out[1, 1])


def _nonsingular(s: Jet2):
    """The operator with the identity at its singular points, det S, and the singular mask."""
    det = det_jet(s).value
    singular = np.abs(det) <= SINGULAR_TOL
    if singular.any():
        s = jets.where(singular, Jet2.constant(np.eye(2)[None]), s)
    return s, det, singular


def _unit_det(gs: Jet2):
    """The changed metric scaled at each point by c to a determinant in [1/2, 2), and c.

    det <S., S.> = det(S)^2 det g is tiny where S is nearly singular, below the
    absolute floors of Brioschi's K and of the metric inverse.  K(c g) = K(g) / c,
    c g has the Christoffels of g, and c a power of two keeps this exact.
    """
    _, exponent = np.frexp(np.linalg.det(_values(gs)))
    c = np.ldexp(1.0, -(exponent // 2))
    return Jet2(gs.c * c[:, None, None, None], gs.order), c


def metric_change(gp: GeomPoint, s: Jet2):
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


def inverse_codazzi_residual(gp: GeomPoint, s: Jet2) -> np.ma.MaskedArray:
    """Codazzi residual of S^{-1} with respect to the changed metric.

    The connection of the changed metric is recomputed independently from its
    own Christoffel symbols (not through the S-conjugation formula), so this
    checks that S^{-1} really is Codazzi for the new geometry.  S is cut to
    order 1: first derivatives of S^{-1} and of <S., S.> are all it reads.
    """
    s, _, singular = _nonsingular(s.truncate(1))
    p = inverse_jet(s, det_jet(s))
    gs = new_metric_jets(gp, s)
    unit = _unit_det(gs)[0]
    det = det_jet(unit)
    first_bad(det.value <= 1e-12, "det g =", det.value, DegenerateMetricError)
    res = _codazzi_defect(christoffels(unit, inverse_jet(unit, det)), p)
    norm = np.sqrt(np.maximum(quad_form(np.ascontiguousarray(res), _values(gs)), 0.0))
    return np.ma.masked_array(norm, singular)


def trace_residual(s: Jet2) -> np.ndarray:
    """|trace S| per point; the trace needs no geometry."""
    val = s.value
    return np.abs(val[:, 0, 0] + val[:, 1, 1])
