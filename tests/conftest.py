import numpy as np
import pytest

from prodsurf import catalog
from prodsurf.geometry import christoffels, invert_metric_jets, laplace_beltrami_values

_CACHE: dict = {}


def get_surface(catalog_id: str, **params):
    """Session-shared surface instances so chart caches persist across tests."""
    key = (catalog_id, tuple(sorted(params.items())))
    if key not in _CACHE:
        _CACHE[key] = catalog.instantiate(catalog_id, params)
    return _CACHE[key]


@pytest.fixture(scope="session")
def surface():
    return get_surface


def laplace_beltrami(phi, g):
    """Laplace-Beltrami of a scalar jet at one point, from the metric's jets there."""
    ginv = invert_metric_jets(g)
    gamma = christoffels(g, ginv)
    return laplace_beltrami_values(
        phi, np.array([[x.value for x in row] for row in ginv]),
        np.array([[[x.value for x in row] for row in m] for m in gamma]))
