import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodsurf import jets
from prodsurf.jets import Jet2, JetDomainError
from prodsurf.spaceforms import AmbientModel, flat_inner


def coeff_array(j: Jet2) -> np.ndarray:
    return j.c.copy()


class TestVariable:
    def test_u_coordinate(self):
        j = Jet2.variable("u", 0.5, 2)
        assert j.value == 0.5
        assert j.coeff(1, 0) == 1.0
        assert all(j.coeff(i, k) == 0.0 for (i, k) in [(0, 1), (2, 0), (1, 1), (0, 2)])

    def test_v_coordinate(self):
        j = Jet2.variable("v", 0.0, 4)
        assert j.value == 0.0
        assert j.coeff(0, 1) == 1.0
        assert np.count_nonzero(j.c) == 1

    def test_order_zero_is_constant(self):
        j = Jet2.variable("u", 2.0, 0)
        assert j.value == 2.0
        assert np.count_nonzero(j.c) == 1

    @pytest.mark.parametrize("order", [-1, 5])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            Jet2.variable("u", 0.0, order)

    def test_coefficient_count(self):
        for order in range(5):
            j = Jet2.variable("u", 1.0, order)
            assert j.c.shape == ((order + 1) * (order + 2) // 2,)


class TestArithmetic:
    def test_square_of_coordinate(self):
        u = Jet2.variable("u", 3.0, 2)
        sq = u * u
        assert sq.coeff(0, 0) == 9.0
        assert sq.coeff(1, 0) == 6.0
        assert sq.coeff(2, 0) == 1.0

    def test_geometric_series(self):
        u = Jet2.variable("u", 0.0, 3)
        inv = Jet2.constant(1.0, 3) / (1.0 + u)
        expected = [1.0, -1.0, 1.0, -1.0]
        got = [inv.coeff(k, 0) for k in range(4)]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_product_matches_double_angle_table(self):
        # oracle: (sin 2u)/2 has k-th derivative 2^{k-1} sin(2u + k pi/2)
        u0 = 0.7
        u = Jet2.variable("u", u0, 4)
        prod = jets.sin(u) * jets.cos(u)
        for k in range(5):
            expected = 2.0 ** (k - 1) * math.sin(2 * u0 + k * math.pi / 2) / math.factorial(k)
            assert prod.coeff(k, 0) == pytest.approx(expected, abs=1e-13)

    def test_cross_order_truncation(self):
        a = Jet2.variable("u", 1.0, 4)
        b = Jet2.variable("u", 1.0, 2)
        assert (a * b).order == 2
        assert (a + b).order == 2
        assert (a - b).order == 2
        assert (a / b).order == 2

    def test_division_by_zero_constant_raises(self):
        u = Jet2.variable("u", 0.0, 3)
        with pytest.raises(JetDomainError):
            Jet2.constant(1.0, 3) / u

    def test_integer_powers(self):
        u = Jet2.variable("u", 2.0, 3)
        assert np.allclose((u ** 3).c, (u * u * u).c)
        assert np.allclose((u ** -2).c, (1.0 / (u * u)).c)


class TestElementary:
    def test_sin_maclaurin(self):
        s = jets.sin(Jet2.variable("u", 0.0, 4))
        expected = [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0]
        got = [s.coeff(k, 0) for k in range(5)]
        assert got == pytest.approx(expected, abs=1e-16)

    def test_sqrt_of_constant(self):
        r = jets.sqrt(Jet2.constant(4.0, 3))
        assert r.value == pytest.approx(2.0)
        assert np.count_nonzero(r.c) == 1

    def test_exp_of_sum(self):
        e = jets.exp(Jet2.variable("u", 0.0, 2) + Jet2.variable("v", 0.0, 2))
        assert e.coeff(0, 0) == pytest.approx(1.0)
        assert e.coeff(1, 0) == pytest.approx(1.0)
        assert e.coeff(0, 1) == pytest.approx(1.0)
        assert e.coeff(2, 0) == pytest.approx(0.5)
        assert e.coeff(1, 1) == pytest.approx(1.0)
        assert e.coeff(0, 2) == pytest.approx(0.5)

    def test_log_reverts_exp(self):
        u = Jet2.variable("u", 0.3, 4) + 0.5 * Jet2.variable("v", -0.2, 4)
        back = jets.log(jets.exp(u))
        assert np.allclose(back.c, u.c, atol=1e-14)

    @pytest.mark.parametrize("fn", [jets.log, jets.sqrt], ids=["ln", "sqrt"])
    def test_domain_boundary_raises(self, fn):
        with pytest.raises(JetDomainError):
            fn(Jet2.constant(0.0, 2))
        with pytest.raises(JetDomainError):
            fn(Jet2.constant(-1.0, 2))

    def test_fractional_power(self):
        p = jets.powf(Jet2.variable("u", 2.0, 3), 1.5)
        assert p.value == pytest.approx(2.0 ** 1.5)


def _poly_eval_jet(coeffs: np.ndarray, u0: float, v0: float) -> Jet2:
    u = Jet2.variable("u", u0, 4)
    v = Jet2.variable("v", v0, 4)
    acc = Jet2.constant(0.0, 4)
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            if i + j <= 4 and coeffs[i, j] != 0.0:
                acc = acc + coeffs[i, j] * u ** i * v ** j
    return acc


def _poly_shift(coeffs: np.ndarray, u0: float, v0: float) -> np.ndarray:
    # Taylor coefficients of p at (u0, v0) by the binomial theorem: independent
    # combinatorial oracle for what the jet pipeline must reproduce.
    out = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if i + j > 4 or coeffs[i, j] == 0.0:
                continue
            for a in range(i + 1):
                for b in range(j + 1):
                    out[a, b] += (
                        coeffs[i, j]
                        * math.comb(i, a) * u0 ** (i - a)
                        * math.comb(j, b) * v0 ** (j - b)
                    )
    return out


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def poly_coeffs(draw):
    c = np.zeros((5, 5))
    for i in range(5):
        for j in range(5 - i):
            c[i, j] = draw(small)
    return c


class TestPolynomialExactness:
    @given(poly_coeffs(), small, small)
    @settings(max_examples=40, deadline=None)
    def test_jet_matches_binomial_shift(self, coeffs, u0, v0):
        got = _poly_eval_jet(coeffs, u0, v0)
        want = _poly_shift(coeffs, u0, v0)
        scale = max(1.0, np.abs(want).max())
        for k, (i, j) in enumerate(jets.MONOMIALS):
            assert abs(got.c[k] - want[i, j]) <= 1e-12 * scale

    @given(poly_coeffs(), poly_coeffs(), small, small)
    @settings(max_examples=30, deadline=None)
    def test_product_matches_coefficient_convolution(self, pa, pb, u0, v0):
        ja = _poly_eval_jet(pa, u0, v0)
        jb = _poly_eval_jet(pb, u0, v0)
        prod = ja * jb
        sa, sb = _poly_shift(pa, u0, v0), _poly_shift(pb, u0, v0)
        conv = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                for p in range(i + 1):
                    for q in range(j + 1):
                        conv[i, j] += sa[p, q] * sb[i - p, j - q]
        scale = max(1.0, np.abs(conv).max())
        for k, (i, j) in enumerate(jets.MONOMIALS):
            assert abs(prod.c[k] - conv[i, j]) <= 1e-11 * scale


@st.composite
def random_jets(draw, order=4):
    c = np.zeros(jets._NCOEF[order])
    for k in range(len(c)):
        c[k] = draw(small)
    return Jet2(c, order)


class TestLeibniz:
    @given(random_jets(), random_jets())
    @settings(max_examples=60, deadline=None)
    def test_derivative_of_product(self, a, b):
        lhs = (a * b).d_u()
        rhs = a * b.d_u() + b * a.d_u()
        # value channel is a two-term sum on both sides: exact
        assert lhs.value == rhs.value
        scale = max(1.0, np.abs(lhs.c).max(), np.abs(rhs.c).max())
        assert np.abs(lhs.c - rhs.c).max() <= 1e-13 * scale


def _random_composite(rng):
    # frequencies well above 1 so the h^2 truncation error dominates the
    # roundoff floor of second-difference quotients at h ~ 1e-3
    a, b = rng.uniform(1.5, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    c, d, e = rng.uniform(-1.0, 1.0, size=3)

    def expr(x, y, lib):
        return lib["sin"](a * x + b * y + 0.3) * lib["exp"](
            0.2 * d * lib["cos"](x + c)
        ) + e * x * y + 0.1 * lib["cos"](y * (a + 1.5))

    return expr


FLOAT_LIB = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
JET_LIB = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp}


class TestFiniteDifferenceConvergence:
    def test_first_and_second_derivatives_order_two(self):
        from oracles import fd1, fd2

        rng = np.random.default_rng(20240811)
        for trial in range(20):
            expr = _random_composite(rng)
            u0, v0 = rng.uniform(-0.8, 0.8, size=2)
            j = expr(Jet2.variable("u", u0, 4), Jet2.variable("v", v0, 4), JET_LIB)

            def f_u(x):
                return expr(x, v0, FLOAT_LIB)

            def f_v(y):
                return expr(u0, y, FLOAT_LIB)

            checked = 0
            for jet_val, fd_fn in [
                (j.du, lambda h: fd1(f_u, u0, h)),
                (j.dv, lambda h: fd1(f_v, v0, h)),
                (j.duu, lambda h: fd2(f_u, u0, h)),
                (j.dvv, lambda h: fd2(f_v, v0, h)),
            ]:
                err_h = abs(fd_fn(1e-3) - jet_val)
                err_h2 = abs(fd_fn(5e-4) - jet_val)
                if err_h < 1e-7:
                    continue  # below the difference-quotient resolution floor
                checked += 1
                assert err_h / err_h2 >= 3.5, (trial, err_h, err_h2)
            assert checked >= 2, "composite too flat to observe convergence"


class TestCompositionIdentities:
    @given(small, small)
    @settings(max_examples=40, deadline=None)
    def test_pythagorean_identity_as_jets(self, u0, v0):
        x = Jet2.variable("u", u0, 4) + 0.7 * Jet2.variable("v", v0, 4)
        one = jets.sin(x) ** 2 + jets.cos(x) ** 2
        expected = np.zeros(jets.NCOEF)
        expected[0] = 1.0
        assert np.abs(one.c - expected).max() < 1e-14

    @given(random_jets(), random_jets())
    @settings(max_examples=40, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        if abs(b.value) < 0.1:
            return
        back = (a * b) / b
        scale = max(1.0, np.abs(a.c).max()) * max(1.0, np.abs(b.c).max()) ** 2
        assert np.abs(back.c - a.c).max() < 1e-11 * scale


class TestAccessors:
    def test_second_derivative_scaling(self):
        u = Jet2.variable("u", 1.0, 4)
        v = Jet2.variable("v", 2.0, 4)
        f = u * u * v  # f = u^2 v
        assert f.duu == pytest.approx(2.0 * 2.0)   # d2/du2 = 2v
        assert f.duv == pytest.approx(2.0)         # d2/dudv = 2u
        assert f.dvv == pytest.approx(0.0)
        assert f.coeff(2, 1) == pytest.approx(1.0)  # d3/du2dv / (2! 1!) = 2 / 2

    def test_truncate(self):
        u = Jet2.variable("u", 1.0, 4)
        f = jets.exp(u)
        t = f.truncate(1)
        assert t.order == 1
        assert np.count_nonzero(t.c) == 2
        assert np.shares_memory(t.c, f.c)  # a view of the coefficient prefix
        assert f.truncate(4) is f and t.truncate(2) is t


class TestOrderGuard:
    """A derivative past a jet's order is a zero tail coefficient, not a
    derivative: reading it raises, naming both orders."""

    # (order needed, read, name, its value on u^2 v + u v^2 at (1, 1))
    READS = [(1, lambda j: j.du, "du", 3.0), (1, lambda j: j.dv, "dv", 3.0),
             (1, lambda j: j.d_u().value, "d_u", 3.0), (1, lambda j: j.d_v().value, "d_v", 3.0),
             (2, lambda j: j.duu, "duu", 2.0), (2, lambda j: j.duv, "duv", 4.0),
             (2, lambda j: j.dvv, "dvv", 2.0)]

    @pytest.mark.parametrize("need,read,name,_", READS)
    def test_one_order_short_raises(self, need, read, name, _):
        u = Jet2.variable("u", np.array([0.5, 1.5]), need - 1)
        with pytest.raises(ValueError, match=rf"^{name} needs a jet of order >= {need}, "
                                             rf"got order {need - 1}$"):
            read(u * u)

    @pytest.mark.parametrize("need,read,name,want", READS)
    def test_enough_order_reads_the_derivative(self, need, read, name, want):
        u, v = (Jet2.variable(w, 1.0, need) for w in "uv")
        assert read(u * u * v + u * v * v) == want

    def test_derivative_jet_of_order_one_is_constant(self):
        d = Jet2.variable("u", 0.5, 1).d_u()
        assert d.order == 0 and d.value == 1.0
        with pytest.raises(ValueError, match="order >= 1, got order 0"):
            d.d_v()


def _reference_products(a, b, m):
    """Per point and component: each output sums left to right from 0.0 in
    table order.

    One term per step, taken for every point at once; the other axes
    broadcast, and the order-m product is the first ``_NCOEF[m]`` columns.
    """
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (jets.NCOEF,))
    for i, j, k in zip(*jets._mul_table(m)):
        out[..., k] += a[..., i] * b[..., j]
    return out[..., :jets._NCOEF[m]]


def _grouping_edges():
    """(order, N) either side of every batch size where the slot grouping changes."""
    cases = set()
    for m in range(jets.MAX_ORDER + 1):
        pick = jets._SLOT_TABLES[m][1]
        for cap in range(1, len(pick)):
            if pick[cap] != pick[cap - 1]:
                n = jets._GATHER_BYTES // (8 * cap)  # the most points whose row cap is >= cap
                cases |= {(m, n), (m, n + 1)}
    return sorted(cases)


def _coefficient_major(x):
    return np.ascontiguousarray(x.T).T


class TestBatchProductKernel:
    @pytest.mark.parametrize("order,n", [
        (m, n) for m in range(jets.MAX_ORDER + 1) for n in (2, 17, 289, 4225)
    ] + _grouping_edges())
    def test_bit_identical_to_the_reference(self, order, n):
        rng = np.random.default_rng(1000 * order + n)
        a = rng.standard_normal((n, jets.NCOEF)) * 10.0 ** rng.integers(-3, 4, (n, jets.NCOEF))
        b = rng.standard_normal((n, jets.NCOEF))
        a[rng.random(a.shape) < 0.1] = -0.0  # a first term of -0.0 still sums from 0.0
        a, b = a[:, :jets._NCOEF[order]], b[:, :jets._NCOEF[order]]  # order-m operands
        want = _reference_products(a, b, order)
        for layout in (_coefficient_major, np.ascontiguousarray):
            got = (Jet2(layout(a), order) * Jet2(layout(b), order)).c
            assert got.shape == (n, jets._NCOEF[order]) and got.T.flags.c_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        col = a[0]
        cols = np.broadcast_to(col, a.shape)
        col_b = _reference_products(cols, b, order)
        b_col = _reference_products(b, cols, order)
        for one in (col, col[None]):
            assert np.array_equal((Jet2(one.copy(), order) * Jet2(_coefficient_major(b), order)).c,
                                  col_b)
            assert np.array_equal((Jet2(_coefficient_major(b), order) * Jet2(one.copy(), order)).c,
                                  b_col)

    @pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_inf_reaches_only_its_dense_product_outputs(self, order, k):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.5, 2.0, (17, jets.NCOEF))
        b = rng.uniform(0.5, 2.0, (17, jets.NCOEF))
        a[5, k] = np.inf
        a, b = a[:, :jets._NCOEF[order]], b[:, :jets._NCOEF[order]]  # order-m operands
        got = (Jet2(_coefficient_major(a), order) * Jet2(_coefficient_major(b), order)).c
        i1, j1 = jets.MONOMIALS[k]
        reached = {jets.MONOMIALS.index((i1 + i2, j1 + j2)) for (i2, j2) in jets.MONOMIALS
                   if i1 + j1 + i2 + j2 <= order}
        assert {int(x) for x in np.flatnonzero(np.isinf(got[5]))} == reached
        assert not np.isnan(got).any()
        assert np.isfinite(np.delete(got, 5, axis=0)).all()


def _same_bits(got, want):
    """Equal shapes and bits, signs of zero included; any NaN matches a NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def _special_coefficients(rng, shape):
    """Coefficients across five decades, close enough that a sum's rounding
    depends on its order, with about one in twelve of them ±0.0, ±inf or NaN."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-2, 3, shape)
    special = rng.random(shape) < 1 / 12
    x[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
    return x


class TestVectorJets:
    """A vector jet computes what its components compute as scalar jets."""

    @given(st.integers(2, 12), st.booleans(), st.integers(0, jets.MAX_ORDER),
           st.sampled_from([1, 2, 289, 4225]), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(12, False, 4, 1, True, 0)  # a lone point, where NumPy would sum pairwise
    @example(9, False, 2, 1, False, 1)
    @example(8, False, 1, 1, True, 1)  # a lone point's timelike term, 8 components
    @settings(max_examples=60, deadline=None)
    def test_products_and_flat_inner_match_the_scalar_path(self, d, stacked, order, n,
                                                          timelike, seed):
        rng = np.random.default_rng(seed)
        shape = (3, min(d, 4) if n > 289 else d) if stacked else (d,)
        d = shape[-1]
        w = jets._NCOEF[order]
        x, y = (Jet2(_coefficient_major(_special_coefficients(rng, (n, *shape, w))), order)
                for _ in range(2))
        scale = Jet2(_special_coefficients(rng, w), order)  # a float-built scalar
        for a, b in ((x, y), (scale, x), (x, scale)):
            got = (a * b).c
            assert _same_bits(got, _reference_products(a.c, b.c, order))
            assert got.T.flags.c_contiguous  # coefficient-major
        product = (x * y).c
        for i in np.ndindex(*shape):
            assert _same_bits(product[(slice(None), *i)], (x[i] * y[i]).c)

        # flat_inner against the scalar loop: sum_k sig_k x_k y_k, left to right
        sig = (-1.0 if timelike else 1.0,) + (1.0,) * (d - 1)
        model = AmbientModel(-1.0 if timelike else 1.0, d - 2, d, sig, d - 1)
        inner = flat_inner(model, x, y).c
        for i in np.ndindex(*shape[:-1]):
            acc = None
            for k, s in enumerate(sig):
                t = x[(*i, k)] * y[(*i, k)]
                t = t if s > 0 else -t
                acc = t if acc is None else acc + t
            assert _same_bits(inner[(slice(None), *i)], acc.c)


class TestDomainErrorMessages:
    def test_batched_error_names_the_first_bad_constant_term(self):
        a = Jet2.constant(np.array([1.0, 0.25, -2.5, -3.0]))
        with pytest.raises(JetDomainError) as info:
            jets.sqrt(a)
        assert str(info.value) == "sqrt of jet with constant term -2.5"
        with pytest.raises(JetDomainError) as info:
            1.0 / Jet2.constant(np.array([1.0, 0.0, 2.0]))
        assert str(info.value) == "division by jet with constant term 0.0"


class TestFloatPointAgainstItsBatchRow:
    """A float-built jet and a batch of one run the batch code, so they give
    the bits of their point's row in a 289-point batch."""

    N = 289

    def _inputs(self, x, y):
        """Two order-4 jets of (u, v) at the points; the second is positive."""
        u, v = Jet2.variable("u", x), Jet2.variable("v", y)
        return 0.5 * u * v + u - 0.25 * v * v, u * v + 0.5 * u + 0.25

    def _points(self):
        rng = np.random.default_rng(11)
        return rng.uniform(0.1, 3.0, self.N), rng.uniform(0.1, 3.0, self.N)

    @pytest.mark.parametrize("name", ["mul", "sin", "cos", "exp"])
    def test_float_built_jet_matches_its_row(self, name):
        fn = (lambda w, q: w * q) if name == "mul" else (lambda w, q: getattr(jets, name)(w))
        x, y = self._points()
        batch = fn(*self._inputs(x, y)).c
        for k in range(self.N):
            one = fn(*self._inputs(float(x[k]), float(y[k]))).c
            assert one.shape == (jets.NCOEF,)
            assert np.array_equal(one, batch[k]), (name, k)

    @pytest.mark.parametrize("name", ["log", "sqrt", "powf", "reciprocal"])
    def test_batch_of_one_matches_its_row(self, name):
        # these raise the constant term to a power, where NumPy's scalar and
        # array powers can differ in the last bit: a float-built jet may not
        # match, a batch of one must
        fn = {"log": jets.log, "sqrt": jets.sqrt, "powf": lambda q: jets.powf(q, 1.5),
              "reciprocal": lambda q: 1.0 / q}[name]
        x, y = self._points()
        batch = fn(self._inputs(x, y)[1]).c
        for k in range(self.N):
            one = fn(self._inputs(x[k:k + 1], y[k:k + 1])[1]).c
            assert np.array_equal(one[0], batch[k]), (name, k)


def _assert_stored(jet, order, shape=None):
    """``jet`` has ``order`` and stores exactly its ``_NCOEF[order]`` coefficients,
    each a contiguous row over the points (coefficient-major)."""
    assert jet.order == order
    assert jet.c.shape[-1] == jets._NCOEF[order]
    if shape is not None:
        assert jet.c.shape[:-1] == shape
    assert jet.c.ndim == 1 or jet.c.strides[0] == jet.c.itemsize


class TestStoredWidth:
    """A jet of order m stores its first _NCOEF[m] coefficients, no more."""

    N = 5

    def _jet(self, order, batched, seed):
        rng = np.random.default_rng(seed)
        w = jets._NCOEF[order]
        if batched:
            return Jet2(_coefficient_major(rng.uniform(0.5, 2.0, (self.N, w))), order)
        return Jet2(rng.uniform(0.5, 2.0, w), order)

    @pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
    @pytest.mark.parametrize("batched", [False, True])
    def test_unary_results(self, order, batched):
        a = self._jet(order, batched, order)
        shape = (self.N,) if batched else ()
        x = np.full(self.N, 0.75) if batched else 0.75
        for built in (Jet2.constant(x, order), Jet2.variable("u", x, order),
                      Jet2.variable("v", x, order)):
            _assert_stored(built, order, shape)
        for out in (a * 2.0, 2.0 * a, a / 2.0, a + 1.0, 1.0 + a, a - 1.0, 1.0 - a, -a,
                    a ** 3, a ** -2, a ** 0.5, 1.0 / a, jets.sin(a), jets.cos(a),
                    jets.exp(a), jets.log(a), jets.sqrt(a), jets.powf(a, 1.5)):
            _assert_stored(out, order, shape)
        one = a ** 0
        _assert_stored(one, order, shape)  # the constant 1 at every point
        assert np.all(one.value == 1.0) and not np.any(one.c[..., 1:])
        for m in range(jets.MAX_ORDER + 1):
            _assert_stored(a.truncate(m), min(m, order), shape)
        if order >= 1:
            _assert_stored(a.d_u(), order - 1, shape)
            _assert_stored(a.d_v(), order - 1, shape)

    @pytest.mark.parametrize("oa,ob", [(oa, ob) for oa in range(jets.MAX_ORDER + 1)
                                       for ob in range(jets.MAX_ORDER + 1)])
    @pytest.mark.parametrize("kinds", [(True, True), (True, False), (False, True),
                                       (False, False)])
    def test_binary_results_take_the_lower_order(self, oa, ob, kinds):
        a, b = self._jet(oa, kinds[0], 10 + oa), self._jet(ob, kinds[1], 20 + ob)
        m = min(oa, ob)
        shape = (self.N,) if any(kinds) else ()
        for out in (a + b, a - b, a * b, a / b):
            _assert_stored(out, m, shape)
        mask = np.arange(self.N) % 2 == 0
        chosen = jets.where(mask, a, b)
        _assert_stored(chosen, m, (self.N,))
        w = jets._NCOEF[m]
        want = np.where(mask[:, None], np.broadcast_to(a.c[..., :w], (self.N, w)),
                        np.broadcast_to(b.c[..., :w], (self.N, w)))
        assert np.array_equal(chosen.c, want)
        # the lower order's sum is the prefix sum of the coefficients
        assert np.array_equal((a + b).c, a.c[..., :w] + b.c[..., :w])

    @pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
    @pytest.mark.parametrize("batched", [False, True])
    def test_coeff_past_the_order_is_zero(self, order, batched):
        a = self._jet(order, batched, 30 + order)
        for (i, j) in jets.MONOMIALS[jets._NCOEF[order]:]:
            got = a.coeff(i, j)
            assert np.shape(got) == ((self.N,) if batched else ())
            assert not np.any(got)

    def test_derivative_gathers_the_scaled_source_coefficients(self):
        a = self._jet(jets.MAX_ORDER, True, 40)
        for d, (di, dj) in ((a.d_u(), (1, 0)), (a.d_v(), (0, 1))):
            for k, (i, j) in enumerate(jets.MONOMIALS[:jets._NCOEF[d.order]]):
                src = a.coeff(i + di, j + dj) * float(i + 1 if di else j + 1)
                assert np.array_equal(d.c[:, k], src)
