"""Truncated bivariate Taylor arithmetic of fixed maximum order 4.

A :class:`Jet2` carries the value of a smooth quantity at a chart point
together with all of its partial derivatives up to ``order``, stored as
Taylor coefficients ``c[i,j]`` of ``u^i v^j`` (the (i,j) partial derivative
is ``i! j! c[i,j]``).  Arithmetic and elementary functions compose jets so
that derivatives of arbitrary composite expressions are exact to roundoff;
all curvature formulas downstream rely on this.

Order 4 is a hard cap: the deepest consumer needs a Laplacian of a quantity
built from second derivatives of the immersion, which uses exactly four
derivative levels.  Coefficients are stored densely in degree-major order,
and a jet of order m stores only the first ``_NCOEF[m]`` (1, 3, 6, 10, 15):
truncation keeps a prefix, and operands of two orders meet at the lower
order's prefix.  ``coeff`` past the order reads 0.0; reading a first
(second) derivative of a jet of order below 1 (2) raises ``ValueError``.

The coefficient array may carry a leading batch axis and a component shape,
``(N, *shape, w)`` for ``w = _NCOEF[m]``: N points of a scalar (shape ``()``)
or of a flat vector (``(d,)``) or a stack of them, all computed at once (the
vector mode of Taylor propagation).  It is stored coefficient-major (``c.T``
is C-contiguous, the points innermost).  Component shapes broadcast as
NumPy's do, and indexing a jet indexes its components, as a view.  A jet
built from a float keeps a plain ``(w,)`` array, one point against a batch.

A product has one summation order: each coefficient sums its terms left to
right from 0.0, in multiplication-table order; :func:`component_sum` sums
components the same way.  A product of order 1 or more runs the slot kernel
(:func:`_slot_table`) over chunks of points, gathering consecutive slots
together while a gathered operand stays within ``_GATHER_BYTES``: at order 4,
289 scalar points take two gathers per operand instead of nine.  An order-0
product is one multiply plus 0.0, the kernel's sum of its one term.  A
composition (:func:`_compose`) is Horner's rule in products, except along a
coordinate line, where it writes its series with no product and the same
bits.  A product, ``sin``, ``cos`` or ``exp`` of
a point therefore gives the bits of that point's row in any batch.  ``log``,
``sqrt``, ``powf`` and reciprocals do too for a batch of one, but not always
for a float-built jet: they raise the constant term to a power, and NumPy's
scalar power can differ from its array power in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ORDER = 4

# Monomials (i, j) in degree-major order; truncating to total degree m keeps
# exactly the first _NCOEF[m] entries.
MONOMIALS: list[tuple[int, int]] = [
    (i, d - i) for d in range(MAX_ORDER + 1) for i in range(d, -1, -1)
]
_IDX = {m: k for k, m in enumerate(MONOMIALS)}
_NCOEF = [sum(d + 1 for d in range(m + 1)) for m in range(MAX_ORDER + 1)]
NCOEF = _NCOEF[MAX_ORDER]

# Sparse multiplication tables per result order: product coefficient IOUT
# accumulates IA * IB, keeping only total degree <= m (the truncation order),
# so low-order products touch far fewer triples.
def _mul_table(m: int):
    ia, ib, iout = [], [], []
    for ka, (i1, j1) in enumerate(MONOMIALS):
        for kb, (i2, j2) in enumerate(MONOMIALS):
            if i1 + i2 + j1 + j2 <= m:
                ia.append(ka)
                ib.append(kb)
                iout.append(_IDX[(i1 + i2, j1 + j2)])
    return (np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp),
            np.asarray(iout, dtype=np.intp))


def _slot_table(m: int):
    """The order-m table in slots, for a product over a batch.

    Slot s holds the s-th term of every output with more than s terms.  With
    the outputs sorted by term count, most first, those outputs are a prefix
    (widths 15, 14, 12, 10, 7, 5, 3, 3, 1 at order 4).  Returns that output
    order, the slots' operand rows concatenated in slot order, and the widths.
    """
    ia, ib, iout = _mul_table(m)
    terms = [np.flatnonzero(iout == k) for k in range(_NCOEF[m])]
    order = sorted(range(_NCOEF[m]), key=lambda k: -len(terms[k]))
    rows, widths = [], []
    for s in range(len(terms[order[0]])):
        slot = [terms[k][s] for k in order if len(terms[k]) > s]
        rows += slot
        widths.append(len(slot))
    return np.asarray(order, dtype=np.intp), ia[rows], ib[rows], widths


def _gather_groups(m: int):
    """Every way the order-m slots are gathered, and which one each row cap takes.

    A row cap packs consecutive slots into one gather while their rows fit
    under it; a slot wider than the cap is a gather of its own.  A group is
    ``(ia, ib, adds)``: its operand rows and, per slot, the slice of the
    gathered product that adds into the accumulator prefix of width w (the
    first group leaves out slot 0, which becomes the accumulator).  Returns the
    output order, ``pick`` (row cap -> grouping, the last entry for every cap
    above it) and the distinct groupings, each also with a and b swapped.
    """
    order, ia, ib, widths = _slot_table(m)
    starts = np.cumsum([0] + widths).tolist()
    keys, pick = {}, []
    for cap in range(starts[-1] + 1):
        bounds, rows = [0], 0
        for s, w in enumerate(widths):
            if s > bounds[-1] and rows + w > cap:
                bounds.append(s)
                rows = 0
            rows += w
        pick.append(keys.setdefault(tuple(bounds), len(keys)))
    groupings = []
    for bounds in keys:
        groups = []
        for s0, s1 in zip(bounds, bounds[1:] + (len(widths),)):
            lo, hi = starts[s0], starts[s1]
            adds = [(slice(starts[s] - lo, starts[s + 1] - lo), widths[s])
                    for s in range(s0 if groups else 1, s1)]
            groups.append((ia[lo:hi], ib[lo:hi], adds))
        groupings.append((groups, [(j, i, adds) for i, j, adds in groups]))
    return order, pick, groupings


_SLOT_TABLES = [_gather_groups(m) for m in range(MAX_ORDER + 1)]
# Bytes of one gathered operand, (rows, lanes) floats: consecutive slots share a
# gather up to this size, and a product runs its points in chunks whose widest
# slot stays within it.  Fewer, larger gathers cut the NumPy calls of a
# product of a few hundred points, but a fresh temporary above 128 KiB is
# handed back to the OS and faulted in again on the next product.  A sweep of
# 32-256 KiB over 169-4225 points (2-vCPU machine) found 128 KiB the largest
# budget with no size slower than one slot per gather: 192 KiB ran 3x slower
# at 729 points, 256 KiB at 468-1089.  A product gathers both operands, and
# two gathers just under 128 KiB, freed at the heap top, let glibc trim it
# (its threshold is 128 KiB while no larger block was freed), so the next
# product faults the pages in again: with 2x2 matrix jets at 289 points a
# `checkers` pass took 1100-2000 minor faults at 128 KiB, 780-880 at 96 KiB
# (580-860 with scalar entries), and ran as fast as with scalar entries.
_GATHER_BYTES = 96 * 1024

# d/du and d/dv as gather tables over the order-3 monomials: coefficient k of the
# derivative of an order-m jet, k < _NCOEF[m - 1], is SRC[k] times FACT[k].
_DU_SRC = np.asarray([_IDX[(i + 1, j)] for (i, j) in MONOMIALS[:_NCOEF[3]]], dtype=np.intp)
_DU_FACT = np.asarray([float(i + 1) for (i, j) in MONOMIALS[:_NCOEF[3]]])
_DV_SRC = np.asarray([_IDX[(i, j + 1)] for (i, j) in MONOMIALS[:_NCOEF[3]]], dtype=np.intp)
_DV_FACT = np.asarray([float(j + 1) for (i, j) in MONOMIALS[:_NCOEF[3]]])

DOMAIN_TOL = 1e-12


class JetDomainError(ArithmeticError):
    """Elementary function or division applied at/over a domain boundary."""


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")


def first_where(mask):
    """Index of the first point where a per-point condition holds, else None.

    ``mask`` is a boolean array over a batch, or a boolean scalar for a
    float-built jet, whose index is ``()``.  Callers use it to name the first
    offending point of a batch in an error message.
    """
    mask = np.asarray(mask)
    return tuple(np.argwhere(mask)[0]) if mask.any() else None


def _batch_product(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Order-m product of coefficient arrays of ``_NCOEF[m]`` or more coefficients
    and equal ndim, whose other axes broadcast.

    Each coefficient sums its terms left to right from 0.0 in table order
    (``+= 0.0`` turns a first term of -0.0 into 0.0), in chunks of points
    whose widest gather stays within ``_GATHER_BYTES``.
    """
    if m == 0:  # one term: the kernel's acc = a0 * b0; acc += 0.0
        out = np.multiply(a[..., :1], b[..., :1], order="F")
        out += 0.0
        return out
    order, pick, groupings = _SLOT_TABLES[m]
    shape = a.shape[:-1]
    if shape != b.shape[:-1]:
        shape = tuple(map(max, shape, b.shape[:-1]))
    swap = a.shape[:-1] != shape
    inplace = not swap or b.shape[:-1] == shape  # the gathered operand is full: scale it
    at, bt = (b.T, a.T) if swap else (a.T, b.T)
    points, lanes = (shape[0], math.prod(shape[1:])) if shape else (1, 1)
    step = max(1, _GATHER_BYTES // (8 * len(order) * lanes))
    step = -(-points // -(-points // step))  # chunks of equal size
    cap = _GATHER_BYTES // (8 * min(step, points) * lanes)
    groups = groupings[pick[min(cap, len(pick) - 1)]][swap]
    out = np.empty((len(order),) + shape[::-1])
    for start in range(0, points, step):
        chunk = (Ellipsis, slice(start, start + step)) if points > step else ()
        ac, bc = [x[chunk] if chunk and x.shape[-1] > 1 else x for x in (at, bt)]
        acc = None
        for ia, ib, adds in groups:
            x = ac[ia]
            if inplace:
                x *= bc[ib]
            else:
                x = x * bc[ib]
            if acc is None:
                acc = x[:len(order)]
                acc += 0.0
            for rows, w in adds:
                acc[:w] += x[rows]
        out[(order,) + chunk] = acc  # order is a permutation: every row is written
    return out.T


def _aligned(a: np.ndarray, b: np.ndarray):
    """Two coefficient arrays with equal ndim: the component shapes aligned at
    the right, a float-built jet as one point."""
    if a.ndim == b.ndim:
        return a, b
    nd = max(a.ndim, b.ndim)
    return [c if c.ndim == nd else c.reshape((c.shape[:1] if c.ndim > 1 else (1,))
                                             + (1,) * (nd - max(c.ndim, 2)) + c.shape[c.ndim > 1:])
            for c in (a, b)]


def component_sum(x: "Jet2", axis: int = -1) -> "Jet2":
    """The sum of x over one component axis (the last by default).

    Each coefficient of each point sums its components left to right from
    0.0, as a product sums its terms.  NumPy adds whole rows in turn when the
    summed axis is not the innermost of its loop, which holds when the
    points are contiguous and two or more; otherwise it could sum pairwise,
    so the points get zero companions first.
    """
    m, k = x.c.T, x.c.ndim - 2
    n = m.shape[-1]
    if n < 2 or m.strides[-1] != m.itemsize:
        m = np.concatenate([m, np.zeros_like(m)], axis=-1)
    return Jet2(np.add.reduce(m, axis=k - axis % k)[..., :n].T, x.order)


def stack(parts) -> "Jet2":
    """Jets of one component shape as one jet with a new first component axis,
    at their lowest order; a jet of one point (or built from a float) is
    repeated over the batch."""
    m = min(p.order for p in parts)
    cs = [p.c.T if p.order == m else p.c[..., :_NCOEF[m]].T for p in parts]
    shape = cs[0].shape
    if len(shape) < 2 or any(c.shape != shape for c in cs):
        cs = np.broadcast_arrays(*(np.atleast_2d(c.T).T for c in cs))
        shape = cs[0].shape
    out = np.empty(shape[:-1] + (len(cs),) + shape[-1:])
    for k, c in enumerate(cs):
        out[..., k, :] = c
    return Jet2(out.T, m)


def matrix(a, b, c, d) -> "Jet2":
    """The 2x2 matrix [[a, b], [c, d]] of jets of one component shape, as one
    jet of component shape (2, 2) followed by theirs: one stack, viewed."""
    m = stack([a, c, b, d])
    return m.reshape((2, 2) + m.shape[1:])


def matmul(x: "Jet2", y: "Jet2") -> "Jet2":
    """sum_e x[a, e] y[e, ...]: a matrix jet times a jet whose first component
    axis is e, in one product, each sum left to right from 0.0 as
    :func:`component_sum` sums (a product is never -0.0, so that is p0 + p1)."""
    return component_sum(x[(slice(None),) * 2 + (None,) * (len(y.shape) - 1)] * y[None],
                         axis=1)


def _common(a: "Jet2", b: "Jet2"):
    """Two jets' aligned coefficients at their lower order m, and m: a prefix is a view."""
    if a.order == b.order:
        return (*_aligned(a.c, b.c), a.order)
    m = min(a.order, b.order)
    return (*_aligned(a.c[..., :_NCOEF[m]], b.c[..., :_NCOEF[m]]), m)


class Jet2:
    """Bivariate truncated Taylor polynomial at a point, order <= 4.

    The accessors return a NumPy float for a float-built jet and, for a
    batch, an array of shape ``(N, *shape)``: one value per point and
    component.
    """

    __slots__ = ("c", "order")

    def __init__(self, c: np.ndarray, order: int):
        self.c = c
        self.order = order

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(x, order: int = MAX_ORDER) -> "Jet2":
        """Constant jet; an array ``x`` of shape ``(N, *shape)`` gives one constant
        per point and component."""
        _check_order(order)
        x = np.asarray(x, dtype=float)
        c = np.zeros((_NCOEF[order],) + x.shape[::-1]).T
        c[..., 0] = x
        return Jet2(c, order)

    @staticmethod
    def variable(which: str, value, order: int = MAX_ORDER) -> "Jet2":
        """Jet of the coordinate function u or v at the point (or points)."""
        if which not in ("u", "v"):
            raise ValueError(f"variable must be 'u' or 'v', got {which!r}")
        jet = Jet2.constant(value, order)
        if order >= 1:
            jet.c.T[_IDX[(1, 0)] if which == "u" else _IDX[(0, 1)]] = 1.0
        return jet

    # -- accessors ----------------------------------------------------------

    @property
    def shape(self) -> tuple:
        """The component shape: ``()`` for a scalar."""
        return self.c.shape[1:-1]

    def __getitem__(self, key) -> "Jet2":
        """Components as a jet of the same order: ``key`` indexes the component
        axes, as NumPy's indexing does, and the result is a view."""
        key = key if isinstance(key, tuple) else (key,)
        return Jet2(self.c[(slice(None),) + key + (slice(None),)], self.order)

    @property
    def value(self) -> float | np.ndarray:
        return self.c.T[0].T

    def _need(self, order: int, what: str) -> None:
        """Raise unless the jet holds ``what``: past its order it holds zeros."""
        if self.order < order:
            raise ValueError(f"{what} needs a jet of order >= {order}, got order {self.order}")

    @property
    def du(self) -> float | np.ndarray:
        self._need(1, "du")
        return self.c.T[1].T

    @property
    def dv(self) -> float | np.ndarray:
        self._need(1, "dv")
        return self.c.T[2].T

    @property
    def gradient(self) -> np.ndarray:
        """(du, dv) of every component, on a last axis: a view."""
        self._need(1, "gradient")
        return self.c[..., 1:3]

    @property
    def duu(self) -> float | np.ndarray:
        self._need(2, "duu")
        return 2.0 * self.c.T[3].T

    @property
    def duv(self) -> float | np.ndarray:
        self._need(2, "duv")
        return self.c.T[4].T

    @property
    def dvv(self) -> float | np.ndarray:
        self._need(2, "dvv")
        return 2.0 * self.c.T[5].T

    def coeff(self, i: int, j: int) -> float | np.ndarray:
        """Taylor coefficient of u^i v^j: 0.0 past the jet's order."""
        k = _IDX[(i, j)]
        return self.c.T[k].T if k < self.c.shape[-1] else np.zeros(self.c.shape[:-1])[()]

    def reshape(self, shape: tuple) -> "Jet2":
        """The components in ``shape``, the first index running fastest: a view
        of the coefficient-major array, whose transpose keeps C order."""
        t = self.c.T
        return Jet2(t.reshape(t.shape[:1] + tuple(shape)[::-1] + t.shape[-1:]).T, self.order)

    def truncate(self, order: int) -> "Jet2":
        """The jet to at most ``order``: itself, or a view of its coefficient prefix."""
        _check_order(order)
        m = min(order, self.order)
        return self if m == self.order else Jet2(self.c[..., :_NCOEF[m]], m)

    def __repr__(self) -> str:
        return f"Jet2(order={self.order}, value={self.value!r})"

    # -- derivative jets ----------------------------------------------------

    def _derivative(self, what, src, fact) -> "Jet2":
        self._need(1, what)
        m = self.order - 1
        c = self.c.T[src[:_NCOEF[m]]].T  # a fresh coefficient-major gather
        c *= fact[:_NCOEF[m]]
        return Jet2(c, m)

    def d_u(self) -> "Jet2":
        """Jet of the u-partial, one order lower."""
        return self._derivative("d_u", _DU_SRC, _DU_FACT)

    def d_v(self) -> "Jet2":
        return self._derivative("d_v", _DV_SRC, _DV_FACT)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            a, b, m = _common(self, other)
            return Jet2(a + b, m)
        c = self.c.copy("K")
        c[..., 0] += other
        return Jet2(c, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            a, b, m = _common(self, other)
            return Jet2(a - b, m)
        c = self.c.copy("K")
        c[..., 0] -= other
        return Jet2(c, self.order)

    def __rsub__(self, other):
        c = -self.c
        c[..., 0] += other
        return Jet2(c, self.order)

    def __neg__(self):
        return Jet2(-self.c, self.order)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            m = self.order if self.order <= other.order else other.order
            return Jet2(_batch_product(*_aligned(self.c, other.c), m), m)
        return Jet2(self.c * other, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * _reciprocal(other)
        return Jet2(self.c / other, self.order)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return powf(self, float(n))
        if n < 0:
            return _reciprocal(self ** (-n))
        out = Jet2.constant(np.ones(self.c.shape[:-1]), self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out


def where(mask, a, b) -> Jet2:
    """Per-point choice between two jets: ``a`` where ``mask`` holds, else ``b``.

    ``mask`` holds one entry per point of a batch.  Either jet may be a number
    (a constant jet), whose coefficients become a column against the batch.
    The result has the lower of the two orders and stays coefficient-major.
    """
    a, b = (x if isinstance(x, Jet2) else Jet2.constant(x) for x in (a, b))
    ca, cb, m = _common(a, b)
    return Jet2(np.where(mask, np.atleast_2d(ca).T, np.atleast_2d(cb).T).T, m)


def _check_domain(bad, a0, what: str) -> None:
    """Raise JetDomainError naming the first constant term where ``bad`` holds."""
    idx = first_where(bad)
    if idx is not None:
        raise JetDomainError(f"{what} jet with constant term {float(a0[idx])!r}")


def _reciprocal(b: Jet2) -> Jet2:
    b0 = b.value
    _check_domain(abs(b0) <= DOMAIN_TOL, b0, "division by")
    coeffs = [(-1.0) ** k / b0 ** (k + 1) for k in range(b.order + 1)]
    return _compose(b, coeffs)


def _compose(a: Jet2, coeffs: list) -> Jet2:
    """Horner evaluation of sum_k coeffs[k] * (a - a0)^k.

    Where a - a0 is p du (or p dv) at every point, each Horner product has one
    nonzero term per coefficient; every other term multiplies a zero and gives
    +-0.0, which a product's running sum, never -0.0, absorbs.  So the series
    is written directly with Horner's bits: coefficient k of that variable is
    c_k times p, k times over, each product plus 0.0, with c_k = 0.0 +
    coeffs[k] (coeffs[m] as given), and every other coefficient is +0.0.  A
    line result holding inf or NaN takes Horner, whose products 0 * inf give
    NaN where the line series has none.
    """
    t, m = a.c.T, a.order
    if m and not t[3:].any() and not (t[1].any() and t[2].any()):
        u = bool(t[1].any())
        p = t[1 if u else 2].T
        line = [coeffs[m]]  # the coefficients of that variable, power 0 first
        for k in range(m - 1, -1, -1):
            line = [0.0 + coeffs[k]] + [x * p + 0.0 for x in line]
        c = np.zeros(t.shape).T
        for k, x in enumerate(line):
            c[..., _IDX[(k, 0) if u else (0, k)]] = x
        if np.isfinite(c).all():
            return Jet2(c, m)
    w = Jet2(a.c.copy("K"), a.order)
    w.c.T[0] = 0.0
    out = Jet2.constant(coeffs[-1], a.order)
    for k in range(len(coeffs) - 2, -1, -1):
        out = out * w
        out.c[..., 0] += coeffs[k]  # the product is a fresh array
    return out


# -- elementary functions ----------------------------------------------------

def sin(a: Jet2) -> Jet2:
    a0 = a.value
    s, c = np.sin(a0), np.cos(a0)
    table = (s, c, -s, -c)
    return _compose(a, [table[k % 4] / math.factorial(k) for k in range(a.order + 1)])


def cos(a: Jet2) -> Jet2:
    a0 = a.value
    s, c = np.sin(a0), np.cos(a0)
    table = (c, -s, -c, s)
    return _compose(a, [table[k % 4] / math.factorial(k) for k in range(a.order + 1)])


def exp(a: Jet2) -> Jet2:
    e0 = np.exp(a.value)
    return _compose(a, [e0 / math.factorial(k) for k in range(a.order + 1)])


def log(a: Jet2) -> Jet2:
    a0 = a.value
    _check_domain(a0 <= DOMAIN_TOL, a0, "log of")
    coeffs = [np.log(a0)]
    coeffs += [(-1.0) ** (k - 1) / (k * a0 ** k) for k in range(1, a.order + 1)]
    return _compose(a, coeffs)


def sqrt(a: Jet2) -> Jet2:
    a0 = a.value
    _check_domain(a0 <= DOMAIN_TOL, a0, "sqrt of")
    return powf(a, 0.5)


def powf(a: Jet2, p: float) -> Jet2:
    a0 = a.value
    _check_domain(a0 <= DOMAIN_TOL, a0, "pow of")
    coeffs, binom = [], 1.0
    for k in range(a.order + 1):
        coeffs.append(binom * a0 ** (p - k))
        binom *= (p - k) / (k + 1)
    return _compose(a, coeffs)
