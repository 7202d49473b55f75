import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsurf import catalog
from prodsurf.geometry import grid_geometry
from prodsurf.spaceforms import (
    AmbientModel,
    ConstraintError,
    constraint_residual,
    flat_inner,
    make_ambient,
    polar,
    project_to_product_tangent,
    sn_cs,
    space_inner,
)
from prodsurf.jets import Jet2


def _v(x):
    """A flat vector as a constant jet of one point."""
    return Jet2.constant(np.asarray(x, dtype=float)[None], 0)


def _at(r):
    """The value of a one-point jet: a float, or the vector's components."""
    return r.value[0]


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
            constraint_residual(m, _v([0.0, 0.0, 0.0, 0.0]))

    def test_dimension_too_small(self):
        with pytest.raises(ValueError):
            make_ambient(1.0, 1)


class TestFlatInner:
    def test_timelike_unit_vector(self):
        m = make_ambient(-1.0, 2)
        x = _v([1.0, 0.0, 0.0, 0.0])
        assert _at(flat_inner(m, x, x)) == pytest.approx(-1.0)

    def test_orthogonal_axes(self):
        m = make_ambient(1.0, 2)
        assert _at(flat_inner(m, _v([1, 0, 0, 0]), _v([0, 1, 0, 0]))) == 0.0

    def test_euclidean(self):
        m = make_ambient(0.0, 3)
        x = _v([3.0, 4.0, 0.0, 0.0])
        assert _at(flat_inner(m, x, x)) == pytest.approx(25.0)

    def test_length_mismatch(self):
        m = make_ambient(1.0, 2)
        with pytest.raises(ValueError):
            flat_inner(m, _v([1.0, 0.0]), _v([1.0, 0.0]))


class TestConstraint:
    def test_unit_sphere_point(self):
        m = make_ambient(1.0, 2)
        assert _at(constraint_residual(m, _v([1.0, 0.0, 0.0, 5.0]))) == pytest.approx(0.0)

    def test_hyperboloid_vertex(self):
        m = make_ambient(-1.0, 2)
        assert _at(constraint_residual(m, _v([1.0, 0.0, 0.0, 0.0]))) == pytest.approx(0.0)

    def test_off_sphere(self):
        m = make_ambient(1.0, 2)
        assert _at(constraint_residual(m, _v([2.0, 0.0, 0.0, 0.0]))) == pytest.approx(3.0)


class TestProjection:
    def test_sphere_strips_radial_part(self):
        m = make_ambient(1.0, 2)
        p = _v([0.0, 0.0, 1.0, 7.0])
        out = _at(project_to_product_tangent(m, p, _v([1.0, 0.0, 1.0, 0.0])))
        assert out == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_hyperboloid_example(self):
        # oracle: w - kappa <w, p_M> p_M with the Minkowski inner product;
        # <w, p_M> = -1 here, so the projection is w - p_M = (0, 1, 0, 0)
        m = make_ambient(-1.0, 2)
        p = [1.0, 0.0, 0.0, 0.0]
        w = [1.0, 1.0, 0.0, 0.0]
        inner = _at(flat_inner(m, _v(w), _v([1.0, 0.0, 0.0, 0.0])))
        assert inner == pytest.approx(-1.0)
        expected = [w[i] - m.kappa * inner * p[i] for i in range(3)] + [w[3]]
        assert expected == pytest.approx([0.0, 1.0, 0.0, 0.0])
        out = _at(project_to_product_tangent(m, _v(p), _v(w)))
        assert list(out) == pytest.approx(expected)

    def test_off_model_point_rejected(self):
        m = make_ambient(1.0, 2)
        with pytest.raises(ConstraintError):
            project_to_product_tangent(m, _v([1.5, 0.0, 0.0, 0.0]), _v([0.0, 1.0, 0.0, 0.0]))

    def test_one_point_broadcasts_over_a_batch(self):
        # the same stack of vectors at every point of a 25-point chart, given once
        spec = catalog.instantiate("circle_cylinder", {"kappa": 1.0, "r": 0.6, "pad": 2})
        gp = grid_geometry(spec, 5, 5)
        w = np.eye(spec.ambient.flat_dim)[None]
        once = project_to_product_tangent(spec.ambient, gp.f, Jet2.constant(w, 0))
        every = project_to_product_tangent(
            spec.ambient, gp.f, Jet2.constant(np.broadcast_to(w, (25,) + w.shape[1:]), 0))
        assert once.order == every.order == 0
        assert np.array_equal(once.c, every.c)
        assert once.c.T.flags.c_contiguous

    def test_flat_model_is_identity(self):
        m = make_ambient(0.0, 2)
        w = [1.0, 2.0, 3.0]
        assert _at(project_to_product_tangent(m, _v([9.0, 9.0, 9.0]), _v(w))) == pytest.approx(w)


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
            once = project_to_product_tangent(m, _v(point), _v(w))
            twice = project_to_product_tangent(m, _v(point), once)
            assert np.abs(_at(twice) - _at(once)).max() < 1e-14 * (
                1 + np.abs(_at(once)).max()
            )
            p_m = _v(point[:3] + [0.0])
            assert abs(_at(flat_inner(m, once, p_m))) < 1e-12 * (1 + max(map(abs, w)))

    @given(angles, angles, comps)
    @settings(max_examples=60, deadline=None)
    def test_hyperboloid_tangent_metric_positive(self, a, b, w):
        m = make_ambient(-1.0, 2)
        point = _hyperboloid_point(a, b)
        out = project_to_product_tangent(m, _v(point), _v(w))
        norm2 = _at(flat_inner(m, out, out))
        out = _at(out)
        assert norm2 > -1e-13 * (1 + max(map(abs, w))) ** 2
        if np.linalg.norm(out) > 1e-6:
            assert norm2 > 0.0


def test_vertical_axis():
    m = make_ambient(-1.0, 2)
    e = _v(np.eye(m.flat_dim)[m.t_index])
    assert _at(flat_inner(m, e, e)) == pytest.approx(1.0)


def _distance_from_pole(kappa: float, p) -> float:
    """Geodesic distance from the pole, from the closed forms of each model."""
    if kappa > 0:
        return math.acos(p[2] * math.sqrt(kappa)) / math.sqrt(kappa)
    if kappa < 0:
        return math.acosh(p[0] * math.sqrt(-kappa)) / math.sqrt(-kappa)
    return math.hypot(p[0], p[1])


def _cot(kappa: float, r: float) -> float:
    if kappa > 0:
        return math.sqrt(kappa) / math.tan(math.sqrt(kappa) * r)
    if kappa < 0:
        return math.sqrt(-kappa) / math.tanh(math.sqrt(-kappa) * r)
    return 1.0 / r


class TestPolar:
    KAPPAS = [1.0, -1.0, 0.0, 4.0, -0.25]

    @staticmethod
    def _at(kappa, rho, w, jet_radius):
        """The point, its w-derivative and, for a jet radius, its rho-derivative."""
        r = Jet2.variable("u", rho) if jet_radius else rho
        p = polar(kappa, r, Jet2.variable("v", w))
        value = [float(c.value) for c in p]
        d_w = [float(c.dv) for c in p]
        d_rho = [float(c.du) for c in p] if jet_radius else None
        return value, d_w, d_rho

    @pytest.mark.parametrize("jet_radius", [False, True])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_on_the_model_at_distance_rho(self, kappa, jet_radius):
        model = make_ambient(kappa, 2)
        s = 1.0 / math.sqrt(abs(kappa)) if kappa else 1.0
        for rho, w in [(0.3 * s, 0.0), (1.1 * s, 2.0), (1.5 * s, -2.8)]:
            p, d_w, d_rho = self._at(kappa, rho, w, jet_radius)
            assert len(p) == model.flat_dim - 1
            if kappa:
                assert abs(_at(constraint_residual(model, _v(p + [0.0])))) < 1e-14 * s * s
            assert _distance_from_pole(kappa, p) == pytest.approx(rho, rel=1e-12)
            speed_w = math.sqrt(_at(space_inner(model, _v(d_w + [0.0]), _v(d_w + [0.0]))))
            assert speed_w == pytest.approx(float(sn_cs(kappa, rho)[0]), rel=1e-13)
            if jet_radius:  # rho is arc length along the radial geodesic
                radial = _v(d_rho + [0.0])
                assert _at(space_inner(model, radial, radial)) == pytest.approx(1.0, rel=1e-13)
                assert abs(_at(space_inner(model, radial, _v(d_w + [0.0])))) < 1e-13 * s

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_float_and_jet_radius_agree(self, kappa):
        floats = polar(kappa, 0.7, 1.3)
        jet = polar(kappa, Jet2.variable("u", 0.7), 1.3)
        assert all(isinstance(c, float) for c in floats)
        assert [float(c.value) for c in jet] == pytest.approx(floats, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_cs_over_sn_is_cot_kappa(self, kappa):
        s = 1.0 / math.sqrt(abs(kappa)) if kappa else 1.0
        for r in (0.2 * s, 0.9 * s, 1.4 * s):
            sn, cs = sn_cs(kappa, r)
            assert cs / sn == pytest.approx(_cot(kappa, r), rel=1e-14)
            jsn, jcs = sn_cs(kappa, Jet2.variable("u", r))
            assert float((jcs / jsn).value) == pytest.approx(_cot(kappa, r), rel=1e-14)
