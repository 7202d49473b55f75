"""Seeded micro-kernel for order-4 jet products and elementary compositions.

Before timing, every product is checked against a dense truncated bivariate
convolution and every composition against its Taylor series, both written
here from the public ``Jet2`` accessors alone, so the kernel times a correct
product.
"""

from __future__ import annotations

import math
import random
import statistics
import time

ORDER = 4
PAIRS = 400
REPEATS = 7
REL_TOL = 1e-12
MONOMIALS = [(i, d - i) for d in range(ORDER + 1) for i in range(d + 1)]


def _coeffs(jet) -> dict[tuple[int, int], float]:
    return {(i, j): float(jet.coeff(i, j)) for (i, j) in MONOMIALS}


def dense_mul(a: dict, b: dict) -> dict:
    """Truncated product of two coefficient maps: keep total degree <= ORDER."""
    out = {m: 0.0 for m in MONOMIALS}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if i1 + i2 + j1 + j2 <= ORDER:
                out[(i1 + i2, j1 + j2)] += x * y
    return out


def _derivatives(name: str, x: float) -> list[float]:
    """f^(k)(x) for k = 0..ORDER."""
    if name == "sin":
        return [math.sin(x + k * math.pi / 2) for k in range(ORDER + 1)]
    if name == "cos":
        return [math.cos(x + k * math.pi / 2) for k in range(ORDER + 1)]
    if name == "exp":
        return [math.exp(x)] * (ORDER + 1)
    if name == "log":
        return [math.log(x)] + [(-1.0) ** (k - 1) * math.factorial(k - 1) / x ** k
                                for k in range(1, ORDER + 1)]
    out, fall = [], 1.0  # sqrt: falling factorial of 1/2
    for k in range(ORDER + 1):
        out.append(fall * x ** (0.5 - k))
        fall *= 0.5 - k
    return out


def taylor_compose(name: str, a: dict) -> dict:
    """f(a) = sum_k f^(k)(a0)/k! (a - a0)^k with dense products."""
    w = dict(a)
    w[(0, 0)] = 0.0
    derivs = _derivatives(name, a[(0, 0)])
    out = {m: 0.0 for m in MONOMIALS}
    power = {m: 0.0 for m in MONOMIALS}
    power[(0, 0)] = 1.0
    for k in range(ORDER + 1):
        for m in MONOMIALS:
            out[m] += derivs[k] / math.factorial(k) * power[m]
        power = dense_mul(power, w)
    return out


def linear_series(name: str, x0: float, du: float, dv: float) -> dict:
    """Closed-form coefficients of f(x0 + du*u + dv*v) for a linear argument."""
    derivs = _derivatives(name, x0)
    return {(i, j): derivs[i + j] / (math.factorial(i) * math.factorial(j))
            * du ** i * dv ** j for (i, j) in MONOMIALS}


def _close(got: dict, want: dict) -> bool:
    scale = max(1.0, max(abs(x) for x in want.values()))
    return all(abs(got[m] - want[m]) <= REL_TOL * scale for m in MONOMIALS)


def _random_jet(jets, rng: random.Random, lo: float, hi: float):
    u = jets.Jet2.variable("u", 0.0, ORDER)
    v = jets.Jet2.variable("v", 0.0, ORDER)
    jet = jets.Jet2.constant(rng.uniform(lo, hi), ORDER)
    for (i, j) in MONOMIALS[1:]:
        jet = jet + rng.uniform(-1.0, 1.0) * (u ** i) * (v ** j)
    return jet


def _per_call_us(fn, items) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - start) / len(items) * 1e6)
    return statistics.median(samples)


def run(jets, seed: int) -> tuple[dict[str, float], list[str]]:
    """Return (mul_us, compose_us) and the list of oracle mismatches."""
    rng = random.Random(f"prodsurf-bench/jets/{seed}")
    pairs = [(_random_jet(jets, rng, -2.0, 2.0), _random_jet(jets, rng, -2.0, 2.0))
             for _ in range(PAIRS)]
    errors = []
    for a, b in pairs:
        if not _close(_coeffs(a * b), dense_mul(_coeffs(a), _coeffs(b))):
            errors.append("Jet2 product differs from the dense truncated product")
            break
    fns = [(name, getattr(jets, name)) for name in ("sin", "cos", "exp", "log", "sqrt")]
    args = [_random_jet(jets, rng, 0.5, 2.0) for _ in range(PAIRS // len(fns))]
    for name, fn in fns:
        if not all(_close(_coeffs(fn(a)), taylor_compose(name, _coeffs(a))) for a in args):
            errors.append(f"jets.{name} differs from its Taylor series")
    u = jets.Jet2.variable("u", 0.0, ORDER)
    v = jets.Jet2.variable("v", 0.0, ORDER)
    for name in ("sin", "exp"):
        x0, du, dv = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
        got = _coeffs(getattr(jets, name)(x0 + du * u + dv * v))
        if not _close(got, linear_series(name, x0, du, dv)):
            errors.append(f"jets.{name} differs from its closed-form series")
    metrics = {
        "jets.mul_us": _per_call_us(lambda p: p[0] * p[1], pairs),
        "jets.compose_us": _per_call_us(lambda a: [fn(a) for _, fn in fns], args)
        / len(fns),
    }
    return metrics, errors
