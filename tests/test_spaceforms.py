import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsurf.spaceforms import (
    AmbientModel,
    ConstraintError,
    constraint_residual,
    flat_inner,
    make_ambient,
    project_to_product_tangent,
)


class TestMakeAmbient:
    def test_unit_sphere_model(self):
        m = make_ambient(1.0, 2)
        assert m.flat_dim == 4
        assert m.signature == (1.0, 1.0, 1.0, 1.0)
        assert m.t_index == 3

    def test_hyperboloid_model(self):
        m = make_ambient(-1.0, 2)
        assert m.flat_dim == 4
        assert m.signature == (-1.0, 1.0, 1.0, 1.0)
        assert sum(1 for s in m.signature if s < 0) == 1

    def test_flat_model(self):
        m = make_ambient(0.0, 3)
        assert m.flat_dim == 4
        assert m.signature == (1.0,) * 4
        with pytest.raises(ValueError):
            constraint_residual(m, [0.0, 0.0, 0.0, 0.0])

    def test_dimension_too_small(self):
        with pytest.raises(ValueError):
            make_ambient(1.0, 1)


class TestFlatInner:
    def test_timelike_unit_vector(self):
        m = make_ambient(-1.0, 2)
        x = [1.0, 0.0, 0.0, 0.0]
        assert flat_inner(m, x, x) == pytest.approx(-1.0)

    def test_orthogonal_axes(self):
        m = make_ambient(1.0, 2)
        assert flat_inner(m, [1, 0, 0, 0], [0, 1, 0, 0]) == 0.0

    def test_euclidean(self):
        m = make_ambient(0.0, 3)
        x = [3.0, 4.0, 0.0, 0.0]
        assert flat_inner(m, x, x) == pytest.approx(25.0)

    def test_length_mismatch(self):
        m = make_ambient(1.0, 2)
        with pytest.raises(ValueError):
            flat_inner(m, [1.0, 0.0], [1.0, 0.0])


class TestConstraint:
    def test_unit_sphere_point(self):
        m = make_ambient(1.0, 2)
        assert constraint_residual(m, [1.0, 0.0, 0.0, 5.0]) == pytest.approx(0.0)

    def test_hyperboloid_vertex(self):
        m = make_ambient(-1.0, 2)
        assert constraint_residual(m, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0)

    def test_off_sphere(self):
        m = make_ambient(1.0, 2)
        assert constraint_residual(m, [2.0, 0.0, 0.0, 0.0]) == pytest.approx(3.0)


class TestProjection:
    def test_sphere_strips_radial_part(self):
        m = make_ambient(1.0, 2)
        p = [0.0, 0.0, 1.0, 7.0]
        out = project_to_product_tangent(m, p, [1.0, 0.0, 1.0, 0.0])
        assert out == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_hyperboloid_example(self):
        # oracle: w - kappa <w, p_M> p_M with the Minkowski inner product;
        # <w, p_M> = -1 here, so the projection is w - p_M = (0, 1, 0, 0)
        m = make_ambient(-1.0, 2)
        p = [1.0, 0.0, 0.0, 0.0]
        w = [1.0, 1.0, 0.0, 0.0]
        inner = flat_inner(m, w, [1.0, 0.0, 0.0, 0.0])
        assert inner == pytest.approx(-1.0)
        expected = [w[i] - m.kappa * inner * p[i] for i in range(3)] + [w[3]]
        assert expected == pytest.approx([0.0, 1.0, 0.0, 0.0])
        out = project_to_product_tangent(m, p, w)
        assert list(out) == pytest.approx(expected)

    def test_off_model_point_rejected(self):
        m = make_ambient(1.0, 2)
        with pytest.raises(ConstraintError):
            project_to_product_tangent(m, [1.5, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])

    def test_flat_model_is_identity(self):
        m = make_ambient(0.0, 2)
        w = [1.0, 2.0, 3.0]
        assert project_to_product_tangent(m, [9.0, 9.0, 9.0], w) == pytest.approx(w)


def _sphere_point(a: float, b: float):
    return [math.cos(a) * math.cos(b), math.sin(a) * math.cos(b), math.sin(b), 1.3]


def _hyperboloid_point(a: float, b: float):
    return [math.cosh(a), math.sinh(a) * math.cos(b), math.sinh(a) * math.sin(b), -0.4]


angles = st.floats(min_value=-1.4, max_value=1.4, allow_nan=False)
comps = st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                 min_size=4, max_size=4)


class TestProjectionProperties:
    @given(angles, angles, comps)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_orthogonal(self, a, b, w):
        for kappa, point in [(1.0, _sphere_point(a, b)), (-1.0, _hyperboloid_point(a, b))]:
            m = make_ambient(kappa, 2)
            once = project_to_product_tangent(m, point, w)
            twice = project_to_product_tangent(m, point, once)
            assert np.abs(np.array(twice) - np.array(once)).max() < 1e-14 * (
                1 + np.abs(np.array(once)).max()
            )
            p_m = point[:3] + [0.0]
            assert abs(flat_inner(m, once, p_m)) < 1e-12 * (1 + max(map(abs, w)))

    @given(angles, angles, comps)
    @settings(max_examples=60, deadline=None)
    def test_hyperboloid_tangent_metric_positive(self, a, b, w):
        m = make_ambient(-1.0, 2)
        point = _hyperboloid_point(a, b)
        out = np.array(project_to_product_tangent(m, point, w))
        norm2 = flat_inner(m, out, out)
        assert norm2 > -1e-13 * (1 + max(map(abs, w))) ** 2
        if np.linalg.norm(out) > 1e-6:
            assert norm2 > 0.0


def test_vertical_axis():
    m = make_ambient(-1.0, 2)
    e = np.eye(m.flat_dim)[m.t_index]
    assert flat_inner(m, e, e) == pytest.approx(1.0)
