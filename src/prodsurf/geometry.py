"""Pointwise extrinsic and intrinsic geometry of an immersed chart.

Everything is derived from jets of the flat coordinates of the immersion,
of order 4 unless the caller reads fewer derivatives: first fundamental
form, Christoffel symbols, second fundamental form (as the surface-normal
part of projected flat second derivatives), mean curvature vector, the
tangential/normal split of the vertical field, shape operators, and
intrinsic Gaussian curvature via the Brioschi formula.  No normal frame is
built: every sum over one is a contraction of alpha.

The intrinsic curvature is computed purely from the metric so that the
structure equations checked elsewhere (Gauss equation, curvature formula)
are genuine cross-checks rather than tautologies.

A chart point is evaluated in stages (:class:`GeomPoint`): the chart jets and
metric, with every check on the chart, at once, and each other group of
quantities on the first read of one of its names, so a caller pays only for
what it reads.

Points are always evaluated as a batch: every jet carries one row per point,
and a single point is a batch of one.  A sample grid is evaluated in
consecutive blocks of bounded size (:class:`SampleGrid`), each one batch that
its caller passes to every evaluator that reads it.  Value arrays carry the
point axis first, and an error names the first offending point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet2, first_where
from .spaceforms import (
    AmbientModel,
    ConstraintError,
    constraint_residual,
    flat_inner,
    project_to_product_tangent,
    vecdot,
)

MINIMAL_TOL = 1e-8
MINIMAL_WARN_BAND = 1e-6
NORMALITY_TOL = 1e-10
# Brioschi's K reads the metric to order 2, every other reader to chart order - 2.
METRIC_ORDER = 2
# normal_frame_jets differentiates its vectors once; no row reads a frame.
FRAME_ORDER = 1
# Chart-jet coefficients of one evaluation block of a grid (see SampleGrid): a
# 65x65 order-3 K field splits into 2-3 blocks, an order-1 normT field and every
# catalog grid up to 33x33 stay one, and a 129x129 verify runs in 8-16 blocks.
BLOCK_COEFFS = 98_304


class DegenerateMetricError(ArithmeticError):
    """Chart fails to be an immersion (det g too small or non-positive)."""


class NotNormalError(ValueError):
    """A vector claimed normal to the surface is not."""


class MinimalSurfaceError(ValueError):
    """Operation requires |H| above the minimality threshold."""


@dataclass
class SurfaceSpec:
    """A chart domain plus an immersion formula into a product model."""

    catalog_id: str
    params: dict[str, float]
    domain: tuple[tuple[float, float], tuple[float, float]]
    ambient: AmbientModel
    chart: Callable[[Jet2, Jet2], list[Jet2]]
    expected: dict[str, float] = field(default_factory=dict)

    def geom(self, u, v) -> "GeomPoint":
        """Geometry at the points (u, v): :func:`evaluate_chart` of this spec."""
        return evaluate_chart(self, u, v)


@dataclass
class GeomPoint:
    """Pointwise geometry of a chart at a batch of points (u, v), computed in stages.

    :func:`evaluate_chart` computes the chart jets and the metric, the fields
    below, at once.  Every other name of :data:`GEOMETRY_NAMES` belongs to one
    lazy stage, which runs the first time any of its names is read and at most
    once per GeomPoint:

    - Christoffels: ``gamma``, ``gamma_val``;
    - second fundamental form: ``alpha_flat``, ``alpha_val``, ``H``,
      ``H_val``, ``normH2``, ``normH``;
    - vertical split: ``T_up``, ``T_flat``, ``eta``, ``normT2``, ``normT``,
      ``T_val``, ``eta_val``;
    - Brioschi curvature: ``K``, ``K_val``.

    Jets keep the orders their readers use, for a chart of order m (the
    ``order`` of :func:`evaluate_chart`, 4 by default): ``fu``, ``fv`` m - 1,
    metric and vertical split min(m - 1, 2), Christoffels one less, second
    fundamental form m - 2, intrinsic curvature 0; none stores more.

    A GeomPoint holds N points, N = 1 for a float point: its jets are
    batched, ``u``, ``v``, ``normH``, ``normT`` and ``K_val`` are arrays of
    length N, and the other value arrays carry a leading axis of length N.  A
    flat vector is one jet of component shape (flat_dim,): ``f``, ``fu``,
    ``fv``, ``H``, ``T_flat``, ``eta``; ``alpha_flat`` stacks alpha(d_u, d_u),
    alpha(d_u, d_v) and alpha(d_v, d_v).  A chart tensor is one jet too:
    ``g`` and ``ginv`` of shape (2, 2), ``gamma`` of shape (2, 2, 2) indexed
    [k, i, j], ``T_up`` of shape (2,).  Every coefficient and value array is
    read-only.
    """

    spec: SurfaceSpec
    u: np.ndarray
    v: np.ndarray
    f: Jet2
    fu: Jet2
    fv: Jet2
    g: Jet2
    ginv: Jet2
    g_val: np.ndarray
    ginv_val: np.ndarray

    def __getattr__(self, name):
        # Reached only for a name not set yet: run the stage that computes it.
        if name not in _STAGE_OF:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        stage, names = _STAGE_OF[name]
        values = list(stage(self))
        for x in values:
            _freeze(x)
        self.__dict__.update(zip(names, values))
        return self.__dict__[name]

    @property
    def f_val(self) -> np.ndarray:
        return _values(self.f)

    @property
    def tangent_vals(self) -> tuple[np.ndarray, np.ndarray]:
        return _values(self.fu), _values(self.fv)

    def chart_norm(self, w):
        """g-norm of chart-components vectors, one per point."""
        return np.sqrt(np.maximum(quad_form(np.ascontiguousarray(w, dtype=float), self.g_val),
                                  0.0))


def quad_form(w, m, z=None):
    """w^T m z (z defaults to w) per point: vectors (..., 2), matrices (..., 2, 2).

    A batch gives the bits of the one-point products ``w @ m @ z``.
    """
    z = w if z is None else z
    return np.matmul(np.matmul(w[..., None, :], m), z[..., :, None])[..., 0, 0]


def first_bad(mask, what: str, values, error=ValueError):
    """Raise ``error`` naming the first value where ``mask`` holds, if any."""
    bad = first_where(np.asarray(mask))
    if bad is not None:
        raise error(f"{what} {float(np.asarray(values)[bad])!r}")


def det_jet(m: Jet2) -> Jet2:
    """m00 m11 - m01 m10 of a 2x2 matrix jet."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inverse_jet(m: Jet2, det: Jet2) -> Jet2:
    """The inverse of a 2x2 matrix jet of determinant ``det``: one product of
    1/det and the view [[m11, m01], [m10, m00]] of m, then 0.0 - x on the
    off-diagonal entries, which gives the bits of (-m01) / det because a
    product never returns -0.0."""
    out = Jet2(m.c[:, ::-1, ::-1].swapaxes(1, 2), m.order) * (1.0 / det)
    for off in (out.c[:, 0, 1], out.c[:, 1, 0]):
        off[...] = 0.0 - off
    return out


def christoffels(g: Jet2, ginv: Jet2) -> Jet2:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) as one jet
    indexed [k, i, j], symmetric in i, j bit for bit when g is."""
    dg = jets.stack([g.d_u(), g.d_v()])  # dg[a, b, c] = d_a g_bc
    c = dg.c  # terms[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    terms = Jet2(c.transpose(0, 3, 1, 2, 4) + c.transpose(0, 3, 2, 1, 4) - c, dg.order)
    return 0.5 * jets.matmul(ginv, terms)


def _too_degenerate(det):
    """Where det g is too small for the Brioschi formula, which divides by det g squared."""
    return (det <= 0.0) | (det * det <= jets.DOMAIN_TOL)


def gauss_curvature_brioschi(g: Jet2) -> Jet2:
    """Intrinsic Gaussian curvature from the metric alone (Brioschi formula).

    K det(g)^2 = det M1 - det M2 for 3x3 matrices M1, M2 whose lower-right
    block is g and whose first rows and columns hold first and second
    derivatives of g; M2's corner is zero.  Each determinant expands along
    its first row: the corner's minor is det g, and the other two read the
    column below the corner, (c, d): c G - F d and c F - E d, one product for
    both matrices.  M2's sum leaves its zero corner out and starts from 0.0,
    coefficientwise.  Input metric entries must carry order >= 2; the result
    loses two orders, so every term is cut to the result's order first (a
    cut keeps a coefficient prefix, so no bit moves).
    """
    E, F, G = g[0, 0], g[0, 1], g[1, 1]
    Eu, Ev = E.d_u(), E.d_v()
    Gu, Gv = G.d_u(), G.d_v()
    Fu, Fv = F.d_u(), F.d_v()
    Evv, Guu, Fuv = Ev.d_v(), Gu.d_u(), Fu.d_v()
    E, F, G, Eu, Ev, Gu, Gv, Fu, Fv = (x.truncate(Evv.order)
                                       for x in (E, F, G, Eu, Ev, Gu, Gv, Fu, Fv))
    det = det_jet(g.truncate(Evv.order))
    first_bad(_too_degenerate(det.value), "det g too small for the curvature: det g =",
              det.value, DegenerateMetricError)
    # per matrix, M1 then M2: the column below the corner and the row right of it
    c, d = jets.stack([Fv - 0.5 * Gu, 0.5 * Ev]), jets.stack([0.5 * Gv, 0.5 * Gu])
    right1 = jets.stack([0.5 * Eu, 0.5 * Ev]) * (c * G - F * d)
    right2 = jets.stack([Fu - 0.5 * Ev, 0.5 * Gu]) * (c * F - E * d)
    det1 = (-0.5 * Evv + Fuv - 0.5 * Guu) * det - right1[0] + right2[0]
    det2 = Jet2(0.0 - right1[1].c, right1.order) + right2[1]
    return (det1 - det2) / (det * det)


def laplace_beltrami_values(phi: Jet2, ginv_val: np.ndarray, gamma_val: np.ndarray):
    """Laplace-Beltrami of a scalar jet, g^{ab} (d_a d_b phi - Gamma^k_ab d_k phi),
    from precomputed inverse-metric and Christoffel values.

    The values may carry a leading point axis, matching a batched jet.
    """
    d1 = (phi.du, phi.dv)
    d2 = ((phi.duu, phi.duv), (phi.duv, phi.dvv))
    acc = 0.0
    for a in range(2):
        for b in range(2):
            corr = gamma_val[..., 0, a, b] * d1[0] + gamma_val[..., 1, a, b] * d1[1]
            acc += ginv_val[..., a, b] * (d2[a][b] - corr)
    return acc


def _points_last(x: np.ndarray) -> np.ndarray:
    """A view of a value array with its point axis moved last: the points of
    a coefficient-major jet then run innermost and contiguous."""
    return x.transpose((*range(1, x.ndim), 0))


def column_derivatives(gamma: Jet2, s: Jet2) -> np.ndarray:
    """nabla_a (S d_c)^b = d_a S^b_c + Gamma^b_ae S^e_c, indexed [a, b, c, ..., n]
    with the points last: the covariant derivatives of the columns of a
    (1,1)-tensor, or of a vector field S^b, indexed [a, b, n], from the
    Christoffel jet ``gamma``.

    Component axes of S after c (one per normal vector, say) are carried
    along.  Each element sums d + (Gamma S_0 + Gamma S_1) in that order.
    """
    val = _points_last(s.value)  # [b, c, ..., n]
    gam = gamma.value.transpose(2, 1, 3, 0)  # [a, b, e, n] = Gamma^b_ae
    gam = gam.reshape(gam.shape[:3] + (1,) * (val.ndim - 2) + gam.shape[3:])
    grad = s.gradient  # [n, b, c, ..., a] = d_a S^b_c
    d = grad.transpose((grad.ndim - 1, *range(1, grad.ndim - 1), 0))
    return d + (gam[:, :, 0] * val[0] + gam[:, :, 1] * val[1])


def covariant_derivative(gamma: Jet2, s: Jet2) -> np.ndarray:
    """(nabla_a S)^b_c = nabla_a (S d_c)^b - Gamma^e_ac S^b_e of a (1,1)-tensor,
    indexed [a, b, c, ..., n] as :func:`column_derivatives`."""
    val = _points_last(s.value)  # [b, e, ..., n]
    gam = _points_last(gamma.value)  # [e, a, c, n] = Gamma^e_ac
    gam = gam.reshape(gam.shape[:2] + (1,) + gam.shape[2:3] + (1,) * (val.ndim - 3)
                      + gam.shape[3:])
    return column_derivatives(gamma, s) - (gam[0] * val[:, 0, None] + gam[1] * val[:, 1, None])


def laplace_at(phi: Jet2, gp: "GeomPoint"):
    """Laplacian of a scalar jet using the chart point's metric data."""
    return laplace_beltrami_values(phi, gp.ginv_val, gp.gamma_val)


def grad_norm_sq(phi: Jet2, ginv_val: np.ndarray):
    """Squared gradient norm g^{ab} d_a phi d_b phi from inverse-metric values."""
    return quad_form(np.ascontiguousarray(phi.gradient), np.asarray(ginv_val, dtype=float))


def _normal_part_jets(model: AmbientModel, f, fu, fv, ginv, w) -> Jet2:
    """Normal part of flat jet vectors inside the product tangent space.

    ``w`` holds its vectors on its last component axis, any shape before it,
    and each product acts on all of them: the projection, the inner products
    c_b = <w, f_b>, the chart components t_a = g^{ab} c_b of the tangent
    part, and the tangent part, subtracted f_u term first.
    """
    w = project_to_product_tangent(model, f, w)
    t = jets.matmul(ginv, jets.stack([flat_inner(model, w, fu), flat_inner(model, w, fv)]))
    w = w - t[0][..., None] * fu
    return w - t[1][..., None] * fv


def normal_frame_jets(gp: GeomPoint, xi: np.ndarray) -> Jet2:
    """Flat vectors ``xi`` (point axis first), held constant in the flat space
    and projected onto the normal space, as one jet of order :data:`FRAME_ORDER`.

    No command calls it; ``perfbench/tracer.py`` spans the name until the
    benchmark is refreshed.
    """
    return _normal_part_jets(gp.spec.ambient, gp.f, gp.fu, gp.fv, gp.ginv,
                             Jet2.constant(xi, FRAME_ORDER))


def _values(x: Jet2) -> np.ndarray:
    """Constant terms of a jet, the point axis first, C-contiguous."""
    return np.ascontiguousarray(x.value)


def _freeze(x) -> None:
    if isinstance(x, Jet2):
        x.c.flags.writeable = False
    elif isinstance(x, np.ndarray):
        x.flags.writeable = False


def evaluate_chart(spec: SurfaceSpec, u: float | np.ndarray, v: float | np.ndarray,
                   order: int = jets.MAX_ORDER) -> GeomPoint:
    """Evaluate the chart jets and metric at (u, v); the rest of the geometry
    is computed in stages on first read (see :class:`GeomPoint`).

    Equal-length 1-D arrays ``u`` and ``v`` are evaluated in one batched
    pass, and floats as a batch of one; an error names the first offending
    point.  The chart is seeded with jets of ``order``; a lower order gives
    the same bits for every derivative it still holds.
    """
    ua, va = np.array(u, dtype=float, ndmin=1), np.array(v, dtype=float, ndmin=1)
    if ua.shape != va.shape or ua.ndim > 1:
        raise ValueError("u and v must be floats or equal-length 1-D arrays")
    (u0, u1), (v0, v1) = spec.domain
    slack = 1e-9 * (1 + abs(u1 - u0) + abs(v1 - v0))
    inside = (u0 - slack <= ua) & (ua <= u1 + slack) & (v0 - slack <= va) & (va <= v1 + slack)
    bad = first_where(~inside)
    if bad is not None:
        raise ValueError(f"({ua[bad]}, {va[bad]}) outside chart domain {spec.domain}")
    model = spec.ambient

    # A constant coordinate comes back as a single-point jet: stack repeats it.
    f = jets.stack(spec.chart(Jet2.variable("u", ua, order), Jet2.variable("v", va, order)))
    if model.kappa != 0:
        res = constraint_residual(model, f.truncate(0)).value
        bad = first_where(abs(res) > 1e-10)
        if bad is not None:
            raise ConstraintError(
                f"chart point off the model by {float(res[bad])!r} at ({ua[bad]}, {va[bad]})")

    fu, fv = f.d_u(), f.d_v()
    tu, tv = fu.truncate(METRIC_ORDER), fv.truncate(METRIC_ORDER)
    g01 = flat_inner(model, tu, tv)
    g = jets.matrix(flat_inner(model, tu, tu), g01, g01, flat_inner(model, tv, tv))
    detg = det_jet(g)
    bad = first_where(_too_degenerate(detg.value))
    if bad is not None:
        raise DegenerateMetricError(
            f"det g = {float(detg.value[bad])!r} at ({ua[bad]}, {va[bad]})")
    ginv = inverse_jet(g, detg)

    gp = GeomPoint(spec=spec, u=ua, v=va, f=f, fu=fu, fv=fv, g=g, ginv=ginv,
                   g_val=_values(g), ginv_val=_values(ginv))
    for f_ in fields(gp):
        if f_.name != "spec":
            _freeze(getattr(gp, f_.name))
    return gp


# Each lazy stage of a GeomPoint returns the values of its names, in order.

def _christoffel_stage(gp: GeomPoint):
    gamma = christoffels(gp.g, gp.ginv)
    return gamma, _values(gamma)


def _second_form_stage(gp: GeomPoint):
    """The surface-normal part of the projected second derivatives, and H."""
    model, ginv = gp.spec.ambient, gp.ginv
    alpha_flat = _normal_part_jets(model, gp.f, gp.fu, gp.fv, ginv,
                                   jets.stack([gp.fu.d_u(), gp.fu.d_v(), gp.fv.d_v()]))
    weights = jets.stack([ginv[0, 0], 2.0 * ginv[0, 1], ginv[1, 1]])
    H = 0.5 * jets.component_sum(weights[..., None] * alpha_flat, axis=0)
    normH2 = flat_inner(model, H, H)
    alpha_val = np.ascontiguousarray(_values(alpha_flat)[:, [0, 1, 1, 2]]).reshape(
        len(gp.u), 2, 2, model.flat_dim)
    return (alpha_flat, alpha_val, H, _values(H), normH2,
            np.sqrt(np.maximum(normH2.value, 0.0)))


def _vertical_stage(gp: GeomPoint):
    """Vertical field split: T^a = g^{ab} <e_t, f_b>; eta = e_t - T."""
    model, fu, fv, ginv = gp.spec.ambient, gp.fu, gp.fv, gp.ginv
    t = model.t_index
    T_up = jets.matmul(ginv, jets.stack([fu[t], fv[t]]))
    T_flat = T_up[0] * fu + T_up[1] * fv
    eta = -T_flat
    eta.c[:, t, 0] += 1.0
    normT2 = flat_inner(model, T_flat, T_flat)
    return (T_up, T_flat, eta, normT2, np.sqrt(np.maximum(normT2.value, 0.0)),
            _values(T_up), _values(eta))


def _curvature_stage(gp: GeomPoint):
    K = gauss_curvature_brioschi(gp.g)
    return K, K.value


_STAGES = (
    (_christoffel_stage, ("gamma", "gamma_val")),
    (_second_form_stage, ("alpha_flat", "alpha_val", "H", "H_val", "normH2", "normH")),
    (_vertical_stage, ("T_up", "T_flat", "eta", "normT2", "normT", "T_val", "eta_val")),
    (_curvature_stage, ("K", "K_val")),
)
_STAGE_OF = {name: (stage, names) for stage, names in _STAGES for name in names}
# Every geometry name of a GeomPoint: the coordinates, the eager stage, then the lazy stages.
GEOMETRY_NAMES = tuple(f.name for f in fields(GeomPoint) if f.name != "spec") + tuple(_STAGE_OF)


def shape_operator(gp: GeomPoint, xi: np.ndarray) -> np.ndarray:
    """Matrix of A_xi in the chart basis: g^{-1} [ <alpha(d_a, d_b), xi> ].

    xi must be normal to the surface inside the product tangent space (see
    :func:`_check_normal`): one vector per point, or one vector for every
    point; the result holds one matrix per point.
    """
    xi = np.asarray(xi, dtype=float)
    _check_normal(gp, xi)
    return shape_matrix(gp, xi)


def shape_matrix(gp: GeomPoint, w: np.ndarray) -> np.ndarray:
    """:func:`shape_operator` without its checks, for vectors normal by
    construction: H, eta and values of alpha."""
    sig = np.asarray(gp.spec.ambient.signature)
    return np.matmul(gp.ginv_val, vecdot(sig * gp.alpha_val, w[..., None, None, :]))


def normal_connection_derivative(gp: GeomPoint, w: Jet2) -> np.ndarray:
    """nabla^perp_{d_u} w, then nabla^perp_{d_v} w, of a normal field ``w``: the
    surface-normal part (inside the product tangent space) of the projected
    flat derivatives of ``w``, a jet over the points of ``gp``.  Shape
    (N, 2, flat_dim).
    """
    _check_normal(gp, _values(w))
    return _normal_part(gp, w.gradient.swapaxes(-1, -2))


def _check_normal(gp: GeomPoint, w: np.ndarray) -> None:
    """Raise :class:`NotNormalError`, naming the first offending point, unless
    flat vectors ``w`` (one per point, or one for every point) are normal to
    the surface inside the product tangent space: their radial part, and their
    part along each chart direction, within :data:`NORMALITY_TOL` relative to
    |w| (and |f_a|) above 1."""
    model = gp.spec.ambient
    sig = np.asarray(model.signature)
    scale = np.maximum(1.0, np.linalg.norm(w, axis=-1))
    parts = [("tangential", vecdot(sig * w, t), scale * np.maximum(1.0, np.linalg.norm(t, axis=-1)))
             for t in gp.tangent_vals]
    if model.kappa != 0:
        radial = model.kappa * vecdot(sig[:-1] * w[..., :-1], gp.f_val[..., :-1])
        parts.insert(0, ("radial", radial, scale))
    for what, comp, size in parts:
        bad = first_where(np.abs(comp) > NORMALITY_TOL * size)
        if bad is not None:
            raise NotNormalError(f"vector has {what} component {float(comp[bad])!r} "
                                 f"at ({gp.u[bad[0]]}, {gp.v[bad[0]]})")


def _normal_part(gp: GeomPoint, w: np.ndarray) -> np.ndarray:
    """Normal parts of flat vectors at gp (values), by :func:`_normal_part_jets`:
    ``w`` holds its vectors on its last axis, the point axis first (of length
    1 for the same vectors at every point), or is one vector for every point."""
    w = Jet2.constant(np.atleast_2d(w), 0)
    return _values(_normal_part_jets(gp.spec.ambient, gp.f, gp.fu, gp.fv, gp.ginv, w))


def aux_det_sum(gp: GeomPoint):
    """Sum of det A_i over an orthonormal frame of the normals orthogonal to
    H, at non-minimal points: (<a_uu, a_vv> - <a_uv, a_uv>)/det g, the sum
    over a whole frame, less det A_H / |H|^2, the term of H/|H|."""
    first_bad(gp.normH <= MINIMAL_TOL, "|H| below threshold:", gp.normH, MinimalSurfaceError)
    sig = np.asarray(gp.spec.ambient.signature)
    a, g = gp.alpha_val, gp.g_val
    whole = vecdot(sig * a[:, 0, 0], a[:, 1, 1]) - vecdot(sig * a[:, 0, 1], a[:, 0, 1])
    det_g = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    return whole / det_g - np.linalg.det(shape_matrix(gp, gp.H_val)) / gp.normH ** 2


def grid_axes(spec: SurfaceSpec, nu: int, nv: int, margin: float = 0.02):
    """The u and v values of the interior sample grid, excluding a margin
    fraction near the chart edge: :func:`grid_points` is their product."""
    (u0, u1), (v0, v1) = spec.domain
    du, dv = u1 - u0, v1 - v0
    return ([u0 + margin * du + i * (1 - 2 * margin) * du / (nu - 1) for i in range(nu)],
            [v0 + margin * dv + j * (1 - 2 * margin) * dv / (nv - 1) for j in range(nv)])


def grid_points(spec: SurfaceSpec, nu: int, nv: int, margin: float = 0.02):
    """Interior sample grid: point k takes the (k // nv)-th u and (k % nv)-th v."""
    return list(itertools.product(*grid_axes(spec, nu, nv, margin)))


def _grid_uv(spec: SurfaceSpec, nu: int, nv: int, margin: float):
    us, vs = grid_axes(spec, nu, nv, margin)
    return np.repeat(us, nv), np.tile(vs, nu)


def grid_geometry(spec: SurfaceSpec, nu: int, nv: int, margin: float = 0.02,
                  order: int = jets.MAX_ORDER) -> GeomPoint:
    """Batched geometry of the whole grid in one batch, point k being
    ``grid_points(...)[k]``.

    The entry points evaluate a grid through :class:`SampleGrid` instead,
    whose blocks bound their memory; a grid of one block is this batch.
    """
    return evaluate_chart(spec, *_grid_uv(spec, nu, nv, margin), order)


class SampleGrid:
    """The sample grid of a chart, evaluated in consecutive blocks of equal size.

    Point k takes the (k // nv)-th u and the (k % nv)-th v of
    :func:`grid_axes`, as in :func:`grid_geometry`.  A block holds as many
    points as fit in :data:`BLOCK_COEFFS` chart-jet coefficients at ``order``
    (``flat_dim`` jets of ``_NCOEF[order]`` coefficients per point), at least
    one; the last block may be shorter.  A grid of one block is evaluated
    once, here, and every read takes that batch.

    Each block is one :func:`evaluate_chart` batch, dropped before the next
    one is evaluated, so memory is bounded by the block and not by the grid;
    an entry point keeps only per-point arrays, joins them in point order
    and reduces them once.  Blocks run in point order, so an error names
    the first failing point of the first block that fails.
    """

    def __init__(self, spec: SurfaceSpec, nu: int, nv: int, margin: float = 0.02,
                 order: int = jets.MAX_ORDER):
        self.spec, self.order = spec, order
        self.u, self.v = _grid_uv(spec, nu, nv, margin)
        size = max(1, BLOCK_COEFFS // (spec.ambient.flat_dim * jets._NCOEF[order]))
        self.blocks = [slice(k, k + size) for k in range(0, len(self.u), size)]
        self.single = (evaluate_chart(spec, self.u, self.v, order)
                       if len(self.blocks) == 1 else None)

    @functools.cached_property
    def normH(self) -> np.ndarray:
        """|H| at every point: the single block's own, or else an order-2 sweep
        of the blocks, which gives the same bits as the chart order."""
        if self.single is not None:
            return self.single.normH
        return np.concatenate([evaluate_chart(self.spec, self.u[b], self.v[b], 2).normH
                               for b in self.blocks])

    def map(self, work) -> list:
        """``work(gp)`` for the GeomPoint of each block, in point order."""
        if self.single is not None:
            return [work(self.single)]
        return [work(evaluate_chart(self.spec, self.u[b], self.v[b], self.order))
                for b in self.blocks]


def joined(parts: list) -> tuple:
    """The per-block tuples of per-point arrays of :meth:`SampleGrid.map` as one
    tuple, each array joined in point order."""
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))
