"""Flat models of the product of a constant-curvature space with a line.

The curved factor is realized as a level set inside a flat (possibly
Minkowski) space: a sphere of radius 1/sqrt(kappa) for kappa > 0, the upper
sheet of the hyperboloid <x,x> = 1/kappa for kappa < 0, and plain Euclidean
space for kappa = 0.  The line factor is always the last flat coordinate and
never participates in the level-set constraint.

:func:`polar` places the points of ``M^2(kappa)`` for every sign of kappa:
the point at geodesic distance rho from a pole, at angle w.

The product's Levi-Civita connection is realized as componentwise flat
differentiation followed by :func:`project_to_product_tangent`; no ambient
Christoffel symbols are ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet2, first_where

CONSTRAINT_TOL = 1e-10


class ConstraintError(ValueError):
    """A point violates the space-form membership constraint."""


@dataclass(frozen=True)
class AmbientModel:
    """Flat-space model of an n-dimensional space form crossed with a line."""

    kappa: float
    n: int
    flat_dim: int
    signature: tuple[float, ...]
    t_index: int


def make_ambient(kappa: float, n: int) -> AmbientModel:
    """Model for curvature ``kappa`` and space-form dimension ``n`` >= 2."""
    if n < 2:
        raise ValueError(f"space-form dimension must be >= 2, got {n}")
    if kappa == 0:
        flat_dim = n + 1
        signature = (1.0,) * flat_dim
    else:
        flat_dim = n + 2
        if kappa < 0:
            signature = (-1.0,) + (1.0,) * (flat_dim - 1)
        else:
            signature = (1.0,) * flat_dim
    return AmbientModel(kappa, n, flat_dim, signature, flat_dim - 1)


def unit_length(kappa: float) -> float:
    """The length unit ``1/sqrt|kappa|`` of ``M^n(kappa)``; 1 when flat."""
    return 1.0 / math.sqrt(abs(kappa)) if kappa else 1.0


def sn_cs(kappa: float, rho):
    """``sn_kappa(rho)`` and ``cs_kappa(rho)``, the radial functions of ``M^2(kappa)``.

    With ``x = sqrt|kappa| rho``: ``(sin x / sqrt kappa, cos x)`` for kappa > 0,
    ``(sinh x / sqrt(-kappa), cosh x)`` for kappa < 0 and ``(rho, 1)`` when
    flat, so ``cs/sn`` is the geodesic curvature of the distance-rho circle.
    A float ``rho`` goes through ``math``, a jet through ``jets``; for kappa < 0
    a jet takes one pair of ``jets.exp`` calls.
    """
    if kappa == 0:
        return rho, 1.0
    root = math.sqrt(abs(kappa))
    x = root * rho
    if not isinstance(x, Jet2):
        sn, cs = (math.sin(x), math.cos(x)) if kappa > 0 else (math.sinh(x), math.cosh(x))
    elif kappa > 0:
        sn, cs = jets.sin(x), jets.cos(x)
    else:
        ep, em = jets.exp(x), jets.exp(-x)
        sn, cs = 0.5 * (ep - em), 0.5 * (ep + em)
    return unit_length(kappa) * sn, cs


def polar(kappa: float, rho, w) -> list:
    """Flat-block coordinates of the point of ``M^2(kappa)`` at geodesic
    distance ``rho`` from the pole, at angle ``w``.

    The pole is the last flat coordinate for kappa > 0 and the first
    (timelike) one for kappa < 0; when flat the point is ``rho (cos w, sin w)``.
    Either argument may be a float or a jet; a float stays on ``math``, so a
    constant angle or radius runs no jet composition.  The coordinates are
    jets when either argument is.
    """
    sn, cs = sn_cs(kappa, rho)
    if isinstance(w, Jet2):
        circle = [sn * jets.cos(w), sn * jets.sin(w)]
    else:
        circle = [sn * math.cos(w), sn * math.sin(w)]
    if kappa == 0:
        return circle
    pole = unit_length(kappa) * cs
    if isinstance(w, Jet2) and not isinstance(pole, Jet2):
        pole = Jet2.constant(pole, w.order)
    return circle + [pole] if kappa > 0 else [pole] + circle


def _vectors(*xs) -> list[Jet2]:
    """Flat vectors as jets: float components (floats, or arrays of one value
    per point) become a constant jet of the others' order, 0 without one."""
    order = min((x.order for x in xs if isinstance(x, Jet2)), default=0)
    return [x if isinstance(x, Jet2) else
            Jet2.constant(np.asarray(x, dtype=float).reshape(len(x), -1).T, order) for x in xs]


def _floats(r: Jet2, x):
    """The values of ``r`` laid out as the float vector ``x``."""
    return r.value.T if np.ndim(x) > 1 else r.value.T[..., 0][()]


def _inner(model: AmbientModel, x, y, dims: slice):
    """sum_i sig_i x_i y_i over the flat components ``dims``: one product, and
    one sum left to right with the timelike terms negated."""
    xj, yj = _vectors(x, y)
    if xj.shape[-1] != model.flat_dim or yj.shape[-1] != model.flat_dim:
        raise ValueError("vector length does not match flat dimension")
    p = xj[..., dims] * yj[..., dims]
    for k in [k for k, s in enumerate(model.signature[dims]) if s < 0]:
        # a + (-t) is a - t in IEEE.  Not np.negative(..., out=...): NumPy 2.4
        # writes a lone point's 8-component view wrongly through ``out``.
        p.c[..., k, :] = -p.c[..., k, :]
    out = jets.component_sum(p)
    return out if isinstance(x, Jet2) or isinstance(y, Jet2) else _floats(out, x)


def flat_inner(model: AmbientModel, x, y):
    """Signed inner product sum_i sig_i x_i y_i of flat vectors: jets with the
    components on their last component axis, the other axes broadcasting, or
    float components (floats or arrays of one value per point), giving floats.
    """
    return _inner(model, x, y, slice(None))


def vecdot(x, y):
    """Dot products along the last axis, broadcasting the leading axes.

    ``np.vecdot`` where NumPy has it (2.0 on), else the same contraction by
    ``einsum``, which may round differently in the last bit.
    """
    if hasattr(np, "vecdot"):
        return np.vecdot(x, y)
    return np.einsum("...i,...i->...", x, y)


def space_inner(model: AmbientModel, x, y):
    """Inner product of the space-form block only (line coordinate dropped)."""
    return _inner(model, x, y, slice(None, -1))


def constraint_residual(model: AmbientModel, p):
    """<p_M, p_M> - 1/kappa, zero exactly on the model; kappa must be nonzero.

    ``p`` is a flat vector as :func:`flat_inner` takes it; a batch gives one
    residual per point.
    """
    if model.kappa == 0:
        raise ValueError("flat model has no membership constraint")
    return space_inner(model, p, p) - 1.0 / model.kappa


def project_to_product_tangent(model: AmbientModel, p, w):
    """Project w onto the tangent space of the product at p.

    Strips the component along the space-form position normal: on the block,
    w - kappa <w, p_M> p_M; the line component passes through.  Takes flat
    vectors as :func:`flat_inner` does, ``w`` possibly a stack of them, and
    validates ``p`` against the constraint at its constant term; an error
    reports the first point off the model.
    """
    if model.kappa == 0:
        return w
    pj, wj = _vectors(p, w)
    res = np.asarray(constraint_residual(model, pj.truncate(0)).value)
    bad = first_where(abs(res) > CONSTRAINT_TOL)
    if bad is not None:
        raise ConstraintError(f"point off the model by {float(res[bad])!r}")
    q = (model.kappa * space_inner(model, wj, pj))[..., None] * pj[..., :-1]
    c = wj.c[..., :jets._NCOEF[q.order]].copy("K")
    c[..., :-1, :] -= q.c
    return Jet2(c, q.order) if isinstance(w, Jet2) else _floats(Jet2(c, q.order), w)
