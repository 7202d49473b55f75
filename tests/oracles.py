"""Independent finite-difference oracles used by the tests.

Everything here differentiates plain float values by central differences, so
agreement with the jet pipeline is a genuine cross-check: the only shared
ingredient is the chart evaluation itself.
"""

from __future__ import annotations

import numpy as np


def fd1(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def fd2(fn, x: float, h: float) -> float:
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def fd_mixed(fn, u: float, v: float, h: float) -> float:
    return (
        fn(u + h, v + h) - fn(u + h, v - h) - fn(u - h, v + h) + fn(u - h, v - h)
    ) / (4.0 * h * h)


def fd_laplace_beltrami(phi, metric, u: float, v: float, h: float) -> float:
    """Divergence-form Laplacian, nested central differences throughout.

    phi(u, v) -> float, metric(u, v) -> 2x2 array.  Independent of the
    Christoffel-based jet path both in discretization and in formula.
    """

    def flux(a: int, uu: float, vv: float) -> float:
        g = np.asarray(metric(uu, vv), dtype=float)
        ginv = np.linalg.inv(g)
        sqrtg = np.sqrt(np.linalg.det(g))
        du = fd1(lambda x: phi(x, vv), uu, h)
        dv = fd1(lambda y: phi(uu, y), vv, h)
        return sqrtg * (ginv[a, 0] * du + ginv[a, 1] * dv)

    g0 = np.asarray(metric(u, v), dtype=float)
    sqrtg0 = np.sqrt(np.linalg.det(g0))
    div = fd1(lambda x: flux(0, x, v), u, h) + fd1(lambda y: flux(1, u, y), v, h)
    return div / sqrtg0


def fd_codazzi_residual(spec, u: float, v: float, field, h: float) -> float:
    """Codazzi residual with matrix derivatives by central differences.

    Christoffel values are taken at the center point; only the derivative of
    the operator matrix is discretized.
    """
    gp = spec.geom(u, v)
    gam = gp.gamma_val[0]

    def mat(uu: float, vv: float) -> np.ndarray:
        s = field.matrix_at(uu, vv)
        return np.array([[s[0][0].value[0], s[0][1].value[0]],
                         [s[1][0].value[0], s[1][1].value[0]]])

    m0 = mat(u, v)
    d_u = (mat(u + h, v) - mat(u - h, v)) / (2.0 * h)
    d_v = (mat(u, v + h) - mat(u, v - h)) / (2.0 * h)
    res = np.zeros(2)
    for a in range(2):
        cov_u = d_u[a, 1] + sum(gam[a][0][c] * m0[c, 1] for c in range(2))
        cov_v = d_v[a, 0] + sum(gam[a][1][c] * m0[c, 0] for c in range(2))
        res[a] = cov_u - cov_v
    return gp.chart_norm(res)[0]


def fd_gauss_intrinsic(spec, u: float, v: float, h: float) -> np.ndarray:
    """Chart components of R(d_u, d_v) d_v with Christoffels differenced.

    The quadratic Gamma*Gamma terms are taken at the center; only the
    derivative terms are discretized, so disagreement with the jet path is
    O(h^2) in the Christoffel third derivatives.
    """
    gam0 = spec.geom(u, v).gamma_val[0]
    gam_up = spec.geom(u + h, v).gamma_val[0]
    gam_un = spec.geom(u - h, v).gamma_val[0]
    gam_vp = spec.geom(u, v + h).gamma_val[0]
    gam_vn = spec.geom(u, v - h).gamma_val[0]
    out = np.zeros(2)
    for a in range(2):
        val = (gam_up[a][1][1] - gam_un[a][1][1]) / (2.0 * h)
        val -= (gam_vp[a][0][1] - gam_vn[a][0][1]) / (2.0 * h)
        val += sum(gam0[a][0][e] * gam0[e][1][1] for e in range(2))
        val -= sum(gam0[a][1][e] * gam0[e][0][1] for e in range(2))
        out[a] = val
    return out


def normal_part_values(gp, w) -> np.ndarray:
    """Normal parts of flat vectors at the points of ``gp``, from values alone.

    Strips the space-form radial component, then the surface tangent part
    g^{ab} <w, f_b> f_a.  ``w`` carries the point axis first, any axes after
    it, or is one vector for every point.
    """
    model = gp.spec.ambient
    sig = np.asarray(model.signature)
    lead = (1,) * max(np.ndim(w) - 2, 0)  # the axes of w between points and components
    f_val, fu_val, fv_val, ginv_val = (x.reshape(x.shape[:1] + lead + x.shape[1:]) for x in
                                       (gp.f_val, *gp.tangent_vals, gp.ginv_val))
    w = np.array(np.broadcast_to(w, np.broadcast_shapes(np.shape(w), f_val.shape)), dtype=float)
    if model.kappa != 0:
        inner = (sig[:-1] * w[..., :-1] * f_val[..., :-1]).sum(axis=-1)
        w[..., :-1] -= (model.kappa * inner)[..., None] * f_val[..., :-1]
    sw = sig * w
    p0, p1 = (sw * fu_val).sum(axis=-1), (sw * fv_val).sum(axis=-1)
    c0 = (ginv_val[..., 0, 0] * p0 + ginv_val[..., 0, 1] * p1)[..., None]
    c1 = (ginv_val[..., 1, 0] * p0 + ginv_val[..., 1, 1] * p1)[..., None]
    return w - (c0 * fu_val + c1 * fv_val)


def fd_ambient_codazzi_residual(spec, u, v, xi_val: np.ndarray, h: float) -> float:
    """Fundamental-equation residual with A_xi and its normal field differenced.

    The normal field is ``xi_val``, a flat vector normal to the surface at
    the centre (a frame vector ``gp.xi[0, i]``, or ``gp.eta_val[0]``),
    projected onto the normal space at each probe point.  Both the A_xi matrix
    and that field are differenced by central differences; Christoffels and
    the normal part of the field's derivative are taken at the centre.  No
    jet enters.
    """
    from prodsurf.geometry import shape_operator

    gp = spec.geom(u, v)
    model = spec.ambient
    sig = np.asarray(model.signature)
    gam = gp.gamma_val[0]

    def probe(uu: float, vv: float) -> tuple[np.ndarray, np.ndarray]:
        g = spec.geom(uu, vv)
        xi = normal_part_values(g, xi_val[None])
        return shape_operator(g, xi)[0], xi[0]

    def diff(x_plus, x_minus) -> tuple[np.ndarray, np.ndarray]:
        (a_p, xi_p), (a_m, xi_m) = probe(*x_plus), probe(*x_minus)
        return (a_p - a_m) / (2.0 * h), (xi_p - xi_m) / (2.0 * h)

    m0 = shape_operator(gp, xi_val)[0]
    d_u, dxi_u = diff((u + h, v), (u - h, v))
    d_v, dxi_v = diff((u, v + h), (u, v - h))
    nperp = (normal_part_values(gp, dxi_u[None]), normal_part_values(gp, dxi_v[None]))

    def cov(deriv: np.ndarray, xdir: int, ycol: int) -> np.ndarray:
        out = np.zeros(2)
        for a in range(2):
            val = deriv[a, ycol]
            val += sum(gam[a][xdir][c] * m0[c, ycol] for c in range(2))
            val -= sum(m0[a, c] * gam[c][xdir][ycol] for c in range(2))
            out[a] = val
        return out - shape_operator(gp, nperp[xdir])[0, :, ycol]

    lhs = cov(d_u, 0, 1) - cov(d_v, 1, 0)
    t_low = gp.g_val[0] @ gp.T_val[0]
    rhs = model.kappa * float(np.dot(sig * xi_val, gp.eta_val[0])) * np.array(
        [t_low[1], -t_low[0]]
    )
    return gp.chart_norm(lhs - rhs)[0]
