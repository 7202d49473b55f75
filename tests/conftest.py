import pytest

from prodsurf import catalog
from prodsurf.geometry import christoffels, det_jet, inverse_jet, laplace_beltrami_values

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
