"""Pointwise extrinsic and intrinsic geometry of an immersed chart.

Everything is derived from order-4 jets of the flat coordinates of the
immersion: first fundamental form, Christoffel symbols, second fundamental
form (as the surface-normal part of projected flat second derivatives),
mean curvature vector, the tangential/normal split of the vertical field,
orthonormal normal frames, shape operators, and intrinsic Gaussian
curvature via the Brioschi formula.

The intrinsic curvature is computed purely from the metric so that the
structure equations checked elsewhere (Gauss equation, curvature formula)
are genuine cross-checks rather than tautologies.

A sample grid is evaluated in one batched pass: every jet carries one row
per grid point and the per-point choices of the normal frame become masks.
Per-point consumers read a point's slice of that batch through
:meth:`SurfaceSpec.geom`; value-only consumers read the batch arrays from
:func:`grid_geometry` directly.
"""

from __future__ import annotations

import dataclasses
import math
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
)

MINIMAL_TOL = 1e-8
MINIMAL_WARN_BAND = 1e-6
FRAME_DROP_TOL = 1e-10
NORMALITY_TOL = 1e-10


class DegenerateMetricError(ArithmeticError):
    """Chart fails to be an immersion (det g too small or non-positive)."""


class NotNormalError(ValueError):
    """A vector claimed normal to the surface is not."""


class MinimalSurfaceError(ValueError):
    """Operation requires |H| above the minimality threshold."""


class FrameError(ArithmeticError):
    """Gram-Schmidt failed to produce a full normal frame."""


@dataclass
class _Grid:
    """A registered sample grid; its geometry is evaluated once, on first use."""

    key: tuple[int, int, float]
    points: list[tuple[float, float]]
    index: dict[tuple[float, float], int]
    batch: "GeomPoint | None" = None
    cached: dict[int, "GeomPoint"] = field(default_factory=dict)


@dataclass
class SurfaceSpec:
    """A chart domain plus an immersion formula into a product model."""

    catalog_id: str
    params: dict[str, float]
    domain: tuple[tuple[float, float], tuple[float, float]]
    ambient: AmbientModel
    chart: Callable[[Jet2, Jet2], list[Jet2]]
    expected: dict[str, float] = field(default_factory=dict)
    minimal: bool = False
    _grid: _Grid | None = field(default=None, repr=False)

    def geom(self, u: float, v: float, order: int = 4) -> "GeomPoint":
        """Geometry at (u, v).

        A point of the grid registered by :func:`grid_points` is read from the
        grid's batched evaluation, made on the first lookup of any of its
        points; its GeomPoint is kept, so per-point memos persist.  Any other
        point is a one-point evaluation.
        """
        grid = self._grid
        k = grid.index.get((u, v)) if grid is not None and order == 4 else None
        if k is None:
            return evaluate_chart(self, u, v, order)
        gp = grid.cached.get(k)
        if gp is None:
            gp = grid.cached[k] = self._grid_batch().at(k)
        return gp

    def _grid_batch(self) -> "GeomPoint":
        grid = self._grid
        if grid.batch is None:
            u, v = np.array(grid.points).T
            # The grid's points refer to a copy of this spec without the grid:
            # no reference cycle, so they are freed as soon as the spec is.
            grid.batch = evaluate_chart(dataclasses.replace(self, _grid=None), u, v)
        return grid.batch

    def clear_cache(self) -> None:
        self._grid = None


@dataclass
class GeomPoint:
    """All pointwise geometry of a chart at (u, v).

    Jets keep the orders implied by differentiating an order-4 immersion:
    metric entries order 3, Christoffels and second-fundamental-form data
    order 2, intrinsic curvature order 1.

    A batched GeomPoint (from :func:`evaluate_chart` on arrays) holds N points:
    its jets are batched, ``u``, ``v``, ``normH``, ``normT`` and ``K_val`` are
    arrays of length N, the other arrays gain a leading axis of length N, and
    ``xi``, ``h`` and ``A`` are arrays of shape (N, codim, ...).  Every
    coefficient and value array is read-only.
    """

    spec: SurfaceSpec
    u: float
    v: float
    order: int
    f: list[Jet2]
    fu: list[Jet2]
    fv: list[Jet2]
    g: list[list[Jet2]]
    ginv: list[list[Jet2]]
    detg: Jet2
    gamma: list[list[list[Jet2]]]
    alpha_flat: list[list[list[Jet2]]]
    H: list[Jet2]
    normH2: Jet2
    normH: float
    T_up: list[Jet2]
    T_flat: list[Jet2]
    eta: list[Jet2]
    normT2: Jet2
    K: Jet2
    xi: list[np.ndarray]
    h: np.ndarray
    A: list[np.ndarray]
    g_val: np.ndarray
    ginv_val: np.ndarray
    gamma_val: np.ndarray
    K_val: float
    normT: float
    T_val: np.ndarray
    eta_val: np.ndarray
    H_val: np.ndarray
    alpha_val: np.ndarray
    _frame_jets: list[list[Jet2]] | None = None
    _t_field: tuple[float, float] | None = None

    @property
    def tangent_vals(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([c.value for c in self.fu]), np.array([c.value for c in self.fv]))

    def chart_norm(self, w) -> float:
        """g-norm of a chart-components vector."""
        w = np.asarray(w, dtype=float)
        return math.sqrt(max(float(w @ self.g_val @ w), 0.0))

    def at(self, k: int) -> "GeomPoint":
        """Point k of a batched GeomPoint; its jets and arrays view the batch."""
        def take(x):
            if isinstance(x, Jet2):
                return Jet2(x.c[k], x.order)
            if isinstance(x, list):
                return [take(y) for y in x]
            return x[k]

        values = {f.name: take(getattr(self, f.name)) for f in fields(self)
                  if f.name not in ("spec", "order", "_frame_jets", "_t_field")}
        values.update(u=float(self.u[k]), v=float(self.v[k]), normH=float(self.normH[k]),
                      normT=float(self.normT[k]), xi=list(self.xi[k]), A=list(self.A[k]))
        return GeomPoint(spec=self.spec, order=self.order, **values)


def christoffels(g: list[list[Jet2]], ginv: list[list[Jet2]] | None = None):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) as jets."""
    if ginv is None:
        ginv = invert_metric_jets(g)
    dg = [[[g[i][j].d(l) for j in range(2)] for i in range(2)] for l in range(2)]
    gamma = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for k in range(2):
        for i in range(2):
            for j in range(i, 2):
                acc = None
                for l in range(2):
                    term = ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    acc = term if acc is None else acc + term
                gamma[k][i][j] = 0.5 * acc
                gamma[k][j][i] = gamma[k][i][j]
    return gamma


def invert_metric_jets(g: list[list[Jet2]]):
    det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    if det.value <= 1e-12:
        raise DegenerateMetricError(f"det g = {det.value!r}")
    return [[g[1][1] / det, -g[0][1] / det], [-g[0][1] / det, g[0][0] / det]]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def gauss_curvature_brioschi(g: list[list[Jet2]]) -> Jet2:
    """Intrinsic Gaussian curvature from the metric alone (Brioschi formula).

    Input metric entries must carry order >= 2; the result loses two orders.
    """
    E, F, G = g[0][0], g[0][1], g[1][1]
    if min(E.order, F.order, G.order) < 2:
        raise ValueError("metric jets must have order >= 2 for curvature")
    det = E * G - F * F
    bad = first_where(det.value <= 0.0)
    if bad is not None:
        raise DegenerateMetricError(f"non-positive det g = {det.value[bad]!r}")
    Eu, Ev = E.d_u(), E.d_v()
    Gu, Gv = G.d_u(), G.d_v()
    Fu, Fv = F.d_u(), F.d_v()
    Evv = Ev.d_v()
    Guu = Gu.d_u()
    Fuv = Fu.d_v()
    m1 = [
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E, F],
        [0.5 * Gv, F, G],
    ]
    m2 = [
        [Jet2.constant(0.0, E.order), 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E, F],
        [0.5 * Gu, F, G],
    ]
    return (_det3(m1) - _det3(m2)) / (det * det)


def laplace_beltrami(phi: Jet2, g: list[list[Jet2]]) -> float:
    """Laplace-Beltrami of a scalar jet: g^{ab} (d_a d_b phi - Gamma^k_ab d_k phi)."""
    ginv = invert_metric_jets(g)
    gamma = christoffels(g, ginv)
    ginv_val = np.array([[ginv[0][0].value, ginv[0][1].value],
                         [ginv[0][1].value, ginv[1][1].value]])
    gamma_val = np.array(
        [[[gamma[k][i][j].value for j in range(2)] for i in range(2)] for k in range(2)]
    )
    return laplace_beltrami_values(phi, ginv_val, gamma_val)


def laplace_beltrami_values(phi: Jet2, ginv_val: np.ndarray,
                            gamma_val: np.ndarray) -> float:
    """Laplacian from precomputed inverse-metric and Christoffel values."""
    if phi.order < 2:
        raise ValueError("laplace_beltrami needs a jet of order >= 2")
    d1 = (phi.du, phi.dv)
    d2 = ((phi.duu, phi.duv), (phi.duv, phi.dvv))
    acc = 0.0
    for a in range(2):
        for b in range(2):
            corr = gamma_val[0][a][b] * d1[0] + gamma_val[1][a][b] * d1[1]
            acc += ginv_val[a][b] * (d2[a][b] - corr)
    return acc


def laplace_at(phi: Jet2, gp: "GeomPoint") -> float:
    """Laplacian of a scalar jet using the chart point's cached metric data."""
    return laplace_beltrami_values(phi, gp.ginv_val, gp.gamma_val)


def grad_norm_sq(phi: Jet2, g: list[list[Jet2]]) -> float:
    """Squared gradient norm g^{ab} d_a phi d_b phi at the chart point."""
    if phi.order < 1:
        raise ValueError("grad_norm_sq needs a jet of order >= 1")
    gv = np.array([[g[0][0].value, g[0][1].value], [g[0][1].value, g[1][1].value]])
    ginv = np.linalg.inv(gv)
    d = np.array([phi.du, phi.dv])
    return float(d @ ginv @ d)


def _fix_sign_jets(w: list[Jet2]) -> list[Jet2]:
    for c in w:
        if abs(c.value) > 1e-9:
            return [-x for x in w] if c.value < 0 else w
    return w


def _normal_part_values(model: AmbientModel, f_val, fu_val, fv_val, ginv_val,
                        w) -> np.ndarray:
    """Normal part of flat vectors inside the product tangent space (values).

    Strips the space-form radial component, then the surface tangent part.
    Every argument is one point's array or a batch with a leading point axis.
    """
    sig = np.asarray(model.signature)
    w = np.array(w, dtype=float)
    if model.kappa != 0:
        inner = (sig[:-1] * w[..., :-1] * f_val[..., :-1]).sum(axis=-1)
        w[..., :-1] -= (model.kappa * inner)[..., None] * f_val[..., :-1]
    sw = sig * w
    p0, p1 = (sw * fu_val).sum(axis=-1), (sw * fv_val).sum(axis=-1)
    c0 = (ginv_val[..., 0, 0] * p0 + ginv_val[..., 0, 1] * p1)[..., None]
    c1 = (ginv_val[..., 1, 0] * p0 + ginv_val[..., 1, 1] * p1)[..., None]
    return w - (c0 * fu_val + c1 * fv_val)


def _normal_frames(model: AmbientModel, f_val, fu_val, fv_val, ginv_val, H_val,
                   normH) -> np.ndarray:
    """Orthonormal frames of the normal spaces inside the product tangent space.

    One frame per point of the leading axis, shape (points, n - 1, flat_dim).
    Seeded with H/|H| where the point is non-minimal, then canonical flat axes
    in fixed order; near-dependent candidates are dropped.  Auxiliary vectors
    get a deterministic sign (first component above threshold made positive).
    Each point's choices are masks, so every point gets the frame it would get
    on its own.
    """
    npts, dim = f_val.shape
    need = model.n - 1
    sig = np.asarray(model.signature)
    rows = np.arange(npts)
    frame = np.zeros((npts, need, dim))
    count = np.zeros(npts, dtype=np.intp)
    seeded = normH > MINIMAL_TOL
    frame[seeded, 0] = H_val[seeded] / normH[seeded, None]
    count[seeded] = 1
    for axis in range(dim):
        open_ = count < need
        if not open_.any():
            break
        w = _normal_part_values(model, f_val, fu_val, fv_val, ginv_val,
                                np.broadcast_to(np.eye(dim)[axis], f_val.shape))
        for j in range(need):
            inner = np.where(j < count, np.sum(sig * w * frame[:, j], axis=-1), 0.0)
            w = w - inner[:, None] * frame[:, j]
        nrm = np.sqrt(np.maximum(np.sum(sig * w * w, axis=-1), 0.0))
        take = open_ & ~(nrm < FRAME_DROP_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = w / nrm[:, None]
        big = np.abs(unit) > 1e-9
        lead = unit[rows, np.argmax(big, axis=-1)]
        unit = np.where((big.any(axis=-1) & (lead < 0))[:, None], -unit, unit)
        frame[rows[take], count[take]] = unit[take]
        count += take
    bad = first_where(count != need)
    if bad is not None:
        raise FrameError(f"normal frame incomplete: {count[bad]} of {need}")
    return frame


def normal_frame_jets(gp: GeomPoint) -> list[list[Jet2]]:
    """Jet-valued normal frame (same construction as the pointwise frame).

    The candidate selection is decided by constant terms, so locally the
    frame is a smooth field and its jets are honest derivatives.  Used only
    where an explicit normal field is needed; covariant normal derivatives
    elsewhere go through projections, never through frame differences.
    """
    if gp._frame_jets is not None:
        return gp._frame_jets
    model = gp.spec.ambient
    dim = model.flat_dim
    need = model.n - 1

    def strip(w):
        w = project_to_product_tangent(model, gp.f, w)
        c0 = flat_inner(model, w, gp.fu)
        c1 = flat_inner(model, w, gp.fv)
        t0 = gp.ginv[0][0] * c0 + gp.ginv[0][1] * c1
        t1 = gp.ginv[1][0] * c0 + gp.ginv[1][1] * c1
        return [w[i] - t0 * gp.fu[i] - t1 * gp.fv[i] for i in range(dim)]

    frame: list[list[Jet2]] = []
    # H seeding needs |H| well clear of zero for the jet square root.
    if gp.normH2.value > 1e-12:
        inv = 1.0 / jets.sqrt(gp.normH2)
        frame.append([c * inv for c in gp.H])
    for axis in range(dim):
        if len(frame) == need:
            break
        w = strip([Jet2.constant(1.0 if i == axis else 0.0, gp.order) for i in range(dim)])
        for xi in frame:
            c = flat_inner(model, w, xi)
            w = [w[i] - c * xi[i] for i in range(dim)]
        nrm2 = flat_inner(model, w, w)
        if nrm2.value < FRAME_DROP_TOL ** 2:
            continue
        inv = 1.0 / jets.sqrt(nrm2)
        frame.append(_fix_sign_jets([c * inv for c in w]))
    if len(frame) != need:
        raise FrameError(f"normal frame incomplete: {len(frame)} of {need}")
    gp._frame_jets = frame
    return frame


def _values(x, batched: bool) -> np.ndarray:
    """Constant terms of a nested list of jets; a batch's point axis comes first."""
    def strip(y):
        return y.value if isinstance(y, Jet2) else [strip(z) for z in y]

    arr = np.array(strip(x))
    return np.ascontiguousarray(np.moveaxis(arr, -1, 0)) if batched else arr


def _freeze(x) -> None:
    if isinstance(x, Jet2):
        x.c.flags.writeable = False
    elif isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, list):
        for y in x:
            _freeze(y)


def evaluate_chart(spec: SurfaceSpec, u: float | np.ndarray, v: float | np.ndarray,
                   order: int = 4) -> GeomPoint:
    """Evaluate all pointwise geometry of the chart at (u, v).

    With equal-length 1-D arrays ``u`` and ``v`` the whole set of points is
    evaluated in one batched pass and the result is a batched GeomPoint; an
    error names the first offending point.
    """
    if order < 3:
        raise ValueError("chart evaluation needs jet order >= 3 for intrinsic curvature")
    batched = np.ndim(u) > 0
    ua, va = np.array(u, dtype=float), np.array(v, dtype=float)
    if ua.shape != va.shape or ua.ndim > 1:
        raise ValueError("u and v must be floats or equal-length 1-D arrays")
    (u0, u1), (v0, v1) = spec.domain
    slack = 1e-9 * (1 + abs(u1 - u0) + abs(v1 - v0))
    inside = (u0 - slack <= ua) & (ua <= u1 + slack) & (v0 - slack <= va) & (va <= v1 + slack)
    bad = first_where(~inside)
    if bad is not None:
        raise ValueError(f"({ua[bad]}, {va[bad]}) outside chart domain {spec.domain}")
    model = spec.ambient
    dim = model.flat_dim

    uj = Jet2.variable("u", ua if batched else ua[()], order)
    vj = Jet2.variable("v", va if batched else va[()], order)
    f = spec.chart(uj, vj)
    if batched:  # a constant coordinate comes back as a single-point jet
        f = [c if c.c.ndim > 1 else Jet2(np.broadcast_to(c.c, (len(ua), jets.NCOEF)), c.order)
             for c in f]
    f_val = _values(f, batched)
    if model.kappa != 0:
        res = constraint_residual(model, f_val.T)
        bad = first_where(abs(res) > 1e-10)
        if bad is not None:
            raise ConstraintError(
                f"chart point off the model by {res[bad]!r} at ({ua[bad]}, {va[bad]})")

    fu = [c.d_u() for c in f]
    fv = [c.d_v() for c in f]
    g01 = flat_inner(model, fu, fv)
    g = [[flat_inner(model, fu, fu), g01], [g01, flat_inner(model, fv, fv)]]
    detg = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    bad = first_where(detg.value <= 1e-12)
    if bad is not None:
        raise DegenerateMetricError(f"det g = {detg.value[bad]!r} at ({ua[bad]}, {va[bad]})")
    inv_det = 1.0 / detg
    off = -g01 * inv_det
    ginv = [[g[1][1] * inv_det, off], [off, g[0][0] * inv_det]]
    gamma = christoffels(g, ginv)

    # Second fundamental form: the surface-normal part of the projected second
    # derivatives.  Each derivative list is dropped once it is projected.
    alpha_flat = [[None, None], [None, None]]
    for a, b, first in ((0, 0, fu), (0, 1, fu), (1, 1, fv)):
        w = project_to_product_tangent(model, f, [c.d(b) for c in first])
        c0 = flat_inner(model, w, fu)
        c1 = flat_inner(model, w, fv)
        t0 = ginv[0][0] * c0 + ginv[0][1] * c1
        t1 = ginv[1][0] * c0 + ginv[1][1] * c1
        alpha_flat[a][b] = alpha_flat[b][a] = [w[i] - t0 * fu[i] - t1 * fv[i]
                                               for i in range(dim)]
    del w, c0, c1, t0, t1

    H = [
        0.5
        * (
            ginv[0][0] * alpha_flat[0][0][i]
            + 2.0 * ginv[0][1] * alpha_flat[0][1][i]
            + ginv[1][1] * alpha_flat[1][1][i]
        )
        for i in range(dim)
    ]
    normH2 = flat_inner(model, H, H)

    # Vertical field split: T^a = g^{ab} <e_t, f_b>; eta = e_t - T.
    tcomp = (fu[model.t_index], fv[model.t_index])
    T_up = [ginv[a][0] * tcomp[0] + ginv[a][1] * tcomp[1] for a in range(2)]
    T_flat = [T_up[0] * fu[i] + T_up[1] * fv[i] for i in range(dim)]
    eta = [-T_flat[i] if i != model.t_index else 1.0 - T_flat[i] for i in range(dim)]
    normT2 = flat_inner(model, T_flat, T_flat)

    K = gauss_curvature_brioschi(g)

    g_val = _values(g, batched)
    ginv_val = _values(ginv, batched)
    H_val = _values(H, batched)
    alpha_val = _values(alpha_flat, batched)
    normH = np.sqrt(np.maximum(normH2.value, 0.0))
    normT = np.sqrt(np.maximum(normT2.value, 0.0))

    # The frame works on a leading point axis; one point is a batch of one.
    as_batch = (lambda x: x) if batched else (lambda x: np.asarray(x)[None])
    xi = _normal_frames(model, as_batch(f_val), as_batch(_values(fu, batched)),
                        as_batch(_values(fv, batched)), as_batch(ginv_val),
                        as_batch(H_val), as_batch(normH))
    sig = np.asarray(model.signature)
    h = np.sum(as_batch(alpha_val)[:, None] * sig * xi[:, :, None, None, :], axis=-1)
    A = np.matmul(as_batch(ginv_val)[:, None], h)
    if not batched:
        xi, h, A = list(xi[0]), h[0], list(A[0])
        normH, normT = float(normH), float(normT)

    gp = GeomPoint(
        spec=spec, u=ua if batched else u, v=va if batched else v, order=order,
        f=f, fu=fu, fv=fv, g=g, ginv=ginv, detg=detg, gamma=gamma,
        alpha_flat=alpha_flat, H=H, normH2=normH2, normH=normH,
        T_up=T_up, T_flat=T_flat, eta=eta, normT2=normT2, K=K,
        xi=xi, h=h, A=A,
        g_val=g_val, ginv_val=ginv_val, gamma_val=_values(gamma, batched),
        K_val=K.value, normT=normT,
        T_val=_values(T_up, batched), eta_val=_values(eta, batched), H_val=H_val,
        alpha_val=alpha_val,
    )
    for f_ in fields(gp):
        if f_.name not in ("spec", "_frame_jets", "_t_field"):
            _freeze(getattr(gp, f_.name))
    return gp


def shape_operator(gp: GeomPoint, xi: np.ndarray) -> np.ndarray:
    """Matrix of A_xi in the chart basis: g^{-1} [ <alpha(d_a, d_b), xi> ].

    xi must be normal to the surface inside the product tangent space.
    """
    model = gp.spec.ambient
    xi = np.asarray(xi, dtype=float)
    sig = np.asarray(model.signature)
    fu_val, fv_val = gp.tangent_vals
    scale = max(1.0, float(np.linalg.norm(xi)))
    f_val = np.array([c.value for c in gp.f])
    if model.kappa != 0:
        radial = model.kappa * float(np.dot(sig[:-1] * xi[:-1], f_val[:-1]))
        if abs(radial) > NORMALITY_TOL * scale:
            raise NotNormalError(f"vector has radial component {radial!r}")
    for t in (fu_val, fv_val):
        comp = float(np.dot(sig * xi, t))
        if abs(comp) > NORMALITY_TOL * scale * max(1.0, float(np.linalg.norm(t))):
            raise NotNormalError(f"vector has tangential component {comp!r}")
    m = np.array(
        [[float(np.dot(sig * gp.alpha_val[a][b], xi)) for b in range(2)] for a in range(2)]
    )
    return gp.ginv_val @ m


def normal_connection_derivative(
    spec: SurfaceSpec,
    u: float,
    v: float,
    normal_field: Callable[[GeomPoint], list[Jet2]],
    direction: str,
) -> np.ndarray:
    """Normal-connection derivative of a normal field along a chart direction.

    Computed as the surface-normal part (inside the product tangent space) of
    the projected flat derivative of the field; the field is supplied as a
    jet-valued function of the chart point.
    """
    if direction not in ("u", "v"):
        raise ValueError(f"direction must be 'u' or 'v', got {direction!r}")
    gp = spec.geom(u, v)
    model = spec.ambient
    sig = np.asarray(model.signature)
    w = normal_field(gp)
    w_val = np.array([c.value for c in w])
    fu_val, fv_val = gp.tangent_vals
    scale = max(1.0, float(np.linalg.norm(w_val)))
    for t in (fu_val, fv_val):
        comp = float(np.dot(sig * w_val, t))
        if abs(comp) > NORMALITY_TOL * scale * max(1.0, float(np.linalg.norm(t))):
            raise NotNormalError(f"field not normal at ({u}, {v}): component {comp!r}")
    dw = np.array([c.du if direction == "u" else c.dv for c in w])
    return _normal_part(gp, dw)


def _normal_part(gp: GeomPoint, w_val: np.ndarray) -> np.ndarray:
    """Project a flat vector at gp onto the surface-normal space (values)."""
    f_val = np.array([c.value for c in gp.f])
    return _normal_part_values(gp.spec.ambient, f_val, *gp.tangent_vals, gp.ginv_val, w_val)


def endo_eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 endomorphism that is self-adjoint for some metric."""
    tr = float(m[0, 0] + m[1, 1])
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return ((tr - disc) / 2.0, (tr + disc) / 2.0)


def aux_det_sum(gp: GeomPoint) -> float:
    """Sum of det A_i over the auxiliary normal directions (frame minus H/|H|).

    Requires a non-minimal point, where the first frame vector is H/|H|.
    """
    if gp.normH <= MINIMAL_TOL:
        raise MinimalSurfaceError(f"|H| = {gp.normH!r} below threshold")
    return float(sum(np.linalg.det(a) for a in gp.A[1:]))


def grid_points(spec: SurfaceSpec, nu: int, nv: int, margin: float = 0.02):
    """Interior sample grid, excluding a margin fraction near the chart edge.

    The grid is registered on the spec: the first ``spec.geom`` at any of its
    points evaluates the whole grid at once.  Registering another grid drops
    the previous one.
    """
    key = (nu, nv, margin)
    if spec._grid is None or spec._grid.key != key:
        (u0, u1), (v0, v1) = spec.domain
        du, dv = u1 - u0, v1 - v0
        us = [u0 + margin * du + i * (1 - 2 * margin) * du / (nu - 1) for i in range(nu)]
        vs = [v0 + margin * dv + j * (1 - 2 * margin) * dv / (nv - 1) for j in range(nv)]
        points = [(u, v) for u in us for v in vs]
        spec._grid = _Grid(key, points, {p: k for k, p in enumerate(points)})
    return list(spec._grid.points)


def grid_geometry(spec: SurfaceSpec, nu: int, nv: int, margin: float = 0.02) -> GeomPoint:
    """Batched geometry of the grid, point k being ``grid_points(...)[k]``."""
    grid_points(spec, nu, nv, margin)
    return spec._grid_batch()
