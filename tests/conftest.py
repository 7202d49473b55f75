import functools
import math
import operator

import pytest

from prodsurf import catalog, jets
from prodsurf.geometry import (
    SurfaceSpec,
    christoffels,
    det_jet,
    inverse_jet,
    laplace_beltrami_values,
)
from prodsurf.spaceforms import make_ambient

_CACHE: dict = {}


def get_surface(catalog_id: str, **params):
    """Session-shared surface instances, one per catalog id and parameters."""
    key = (catalog_id, tuple(sorted(params.items())))
    if key not in _CACHE:
        _CACHE[key] = catalog.instantiate(catalog_id, params)
    return _CACHE[key]


@pytest.fixture(scope="session")
def surface():
    return get_surface


def laplace_beltrami(phi, g):
    """Laplace-Beltrami of a scalar jet at one point, from the metric's matrix jet there."""
    ginv = inverse_jet(g, det_jet(g))
    return laplace_beltrami_values(phi, ginv.value[0], christoffels(g, ginv).value[0])


def generic_chart(kappa: float) -> SurfaceSpec:
    """A polynomial chart in M^4(kappa) x R, no orbit of any isometry group.

    Its space-form part is a graph over the tangent space at a pole: y(u, v)
    in R^4, completed by sqrt(1/kappa - |y|^2) (or sqrt(1/|kappa| + |y|^2),
    the timelike coordinate) when kappa != 0.  Every normal direction bends,
    so K, |T|, eta, every sum over a normal frame and the Codazzi curvature
    term are all non-zero.
    """
    def chart(u, v):
        y = [u + 0.2 * v * v, v - 0.3 * u * v, 0.4 * u * u - 0.2 * v * v,
             0.3 * u * v + 0.2 * u * u * v]
        t = 0.5 * u + 0.3 * v * v
        if kappa == 0:
            return y + [t]
        y2 = functools.reduce(operator.add, [x * x for x in y])
        head = jets.sqrt(1.0 / abs(kappa) - math.copysign(1.0, kappa) * y2)
        return [head] + y + [t] if kappa < 0 else y + [head, t]

    return SurfaceSpec("generic_chart", {"kappa": kappa}, ((-0.4, 0.4), (-0.4, 0.4)),
                       make_ambient(kappa, 4), chart)
