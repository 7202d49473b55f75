"""Matrix jets against the per-entry scalar formulas they replace, bit for bit.

Every chart tensor is one jet of component shape (2, 2) (or (2, 2, 2) for the
Christoffels), and the 2x2 determinant, inverse and covariant derivative are
written once.  These tests hold them to the scalar-jet formulas, signs of
zero, infinities and NaNs included, and hold every symmetric tensor the
geometry builds to exact symmetry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsurf import codazzi, jets
from prodsurf.geometry import (
    column_derivatives,
    covariant_derivative,
    det_jet,
    grid_geometry,
    inverse_jet,
)
from prodsurf.jets import Jet2, JetDomainError
from prodsurf.spaceforms import flat_inner

from conftest import get_surface

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _random_jet(rng, n: int, shape: tuple, order: int) -> Jet2:
    """A coefficient-major jet of n points, a fifth of its coefficients special."""
    c = rng.standard_normal((jets._NCOEF[order],) + shape[::-1] + (n,))
    special = rng.random(c.shape) < 0.2
    c[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return Jet2(c.T, order)


def _same_bits(got, want) -> None:
    """Equal values and signs.  A NaN's sign is left out: NumPy may carry
    either operand's NaN through a product or a sum, and no report shows it."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got) & ~np.isnan(got), np.signbit(want) & ~np.isnan(want))


def _column_derivatives_loop(gam, s):
    """d_a S^b_c + Gamma^b_a0 S^0_c + Gamma^b_a1 S^1_c, entry by entry."""
    s_val = np.stack([np.stack([s[0][0].value, s[0][1].value], 1),
                      np.stack([s[1][0].value, s[1][1].value], 1)], 1)
    gam = gam.reshape(gam.shape + (1,) * (s_val.ndim - 3))
    out = np.empty(s_val.shape[:1] + (2, 2, 2) + s_val.shape[3:])
    for a in range(2):
        for b in range(2):
            for c in range(2):
                d = s[b][c].du if a == 0 else s[b][c].dv
                out[:, a, b, c] = d + (gam[:, b, a, 0] * s_val[:, 0, c]
                                       + gam[:, b, a, 1] * s_val[:, 1, c])
    return out, s_val


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 289]),
       order=st.integers(0, jets.MAX_ORDER), extra=st.sampled_from([(), (3,)]))
@settings(max_examples=60, deadline=None)
def test_matrix_helpers_match_the_scalar_formulas(seed, n, order, extra):
    rng = np.random.default_rng(seed)
    entries = [_random_jet(rng, n, extra, order) for _ in range(4)]
    a, b, c, d = entries
    m = jets.matrix(a, b, c, d)
    _same_bits(m.c, np.stack([np.stack([x.c for x in (a, b)], 1),
                              np.stack([x.c for x in (c, d)], 1)], 1))
    with np.errstate(all="ignore"):
        det = det_jet(m)
        _same_bits(det.c, (a * d - b * c).c)
        # 1/det raises where det is near 0: a batch gets 1 there instead
        if n > 1:
            small = (np.abs(det.value) <= jets.DOMAIN_TOL).reshape(n, -1).any(axis=1)
            det = jets.where(small, 1.0, det)
        try:
            r = 1.0 / det
        except JetDomainError:
            with pytest.raises(JetDomainError):
                inverse_jet(m, det)
        else:
            want = [[d * r, -b * r], [-c * r, a * r]]
            got = inverse_jet(m, det)
            for i in range(2):
                for j in range(2):
                    _same_bits(got[i, j].c, want[i][j].c)
        if order == 0:
            return
        gamma = _random_jet(rng, n, (2, 2, 2), order)
        cols, s_val = _column_derivatives_loop(gamma.value, [[a, b], [c, d]])
        _same_bits(np.moveaxis(column_derivatives(gamma, m), -1, 0), cols)
        gam = gamma.value.reshape(gamma.value.shape + (1,) * len(extra))
        want = np.empty_like(cols)
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    want[:, x, y, z] = cols[:, x, y, z] - (gam[:, 0, x, z] * s_val[:, y, 0]
                                                           + gam[:, 1, x, z] * s_val[:, y, 1])
        _same_bits(np.moveaxis(covariant_derivative(gamma, m), -1, 0), want)
        if not extra:  # a vector field: d_a T^b + Gamma^b_ae T^e
            t = jets.stack([a, b])
            want = np.stack([np.stack([x.du if k == 0 else x.dv for x in (a, b)], -1)
                             for k in range(2)], 1)
            want = want + (gam[:, :, :, 0].transpose(0, 2, 1) * a.value[:, None, None]
                           + gam[:, :, :, 1].transpose(0, 2, 1) * b.value[:, None, None])
            _same_bits(np.moveaxis(column_derivatives(gamma, t), -1, 0), want)


CHARTS = [
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
    ("circle_cylinder", {"kappa": -1.0, "r": 0.4, "warp": -0.2, "pad": 2.0}),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3}),
    ("vertical_geodesic_cylinder", {"kappa": 1.0}),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": 0.7}),
    ("slice", {"kappa": -1.0}),
    ("perturbed_control", {"kappa": -1.0, "r": 0.8}),
]


def _symmetric(x: Jet2) -> None:
    """Entry (1, 0) of the last two component axes has entry (0, 1)'s bits."""
    _same_bits(x.c[..., 1, 0, :], x.c[..., 0, 1, :])


@pytest.mark.parametrize("catalog_id,params", CHARTS)
def test_symmetric_tensors_are_symmetric_bit_for_bit(catalog_id, params):
    spec = get_surface(catalog_id, **params)
    gp = grid_geometry(spec, 17, 17)
    kind = "angle" if spec.minimal else "pmc"
    gs = codazzi.new_metric_jets(gp, codazzi.operator_jets(gp, kind))
    for x in (gp.g, gp.ginv, gp.gamma, gs):  # gamma[k] for each k
        _symmetric(x)


def _t_low(gp):
    return [gp.g[b, 0] * gp.T_up[0] + gp.g[b, 1] * gp.T_up[1] for b in range(2)]


def _operator_loop(gp, kind):
    """The operator of ``kind`` entry by entry, the diagonal term added to the
    diagonal entries alone."""
    t_low = _t_low(gp)
    model = gp.spec.ambient
    if kind == "angle":
        vertical = [[-(gp.T_up[a] * t_low[b]) for b in range(2)] for a in range(2)]
        diag, base = 0.5 * gp.normT2, vertical
    else:
        uu, uv, vv = flat_inner(model, gp.alpha_flat, gp.H)
        m = [[uu, uv], [uv, vv]]
        a_h = [[gp.ginv[a, 0] * m[0][b] + gp.ginv[a, 1] * m[1][b] for b in range(2)]
               for a in range(2)]
        diag = 0.5 * model.kappa * gp.normT2 - 2.0 * gp.normH2
        base = [[2.0 * a_h[a][b] - model.kappa * (gp.T_up[a] * t_low[b]) for b in range(2)]
                for a in range(2)]
    return [[base[a][b] + diag if a == b else base[a][b] for b in range(2)] for a in range(2)]


def _new_metric_loop(gp, s):
    out = [[None, None], [None, None]]
    for a in range(2):
        for b in range(a, 2):
            acc = None
            for c in range(2):
                for d in range(2):
                    term = s[c, a] * s[d, b] * gp.g[c, d]
                    acc = term if acc is None else acc + term
            out[a][b] = out[b][a] = acc
    return out


@pytest.mark.parametrize("catalog_id,params", CHARTS)
def test_operators_and_changed_metric_match_the_entry_formulas(catalog_id, params):
    """On the vertical cylinders the operators' off-diagonal entries are -0.0,
    which adding the diagonal term as a multiple of the identity would flip."""
    spec = get_surface(catalog_id, **params)
    gp = grid_geometry(spec, 17, 17)
    kind = "angle" if spec.minimal else "pmc"
    s = codazzi.operator_jets(gp, kind)
    want = _operator_loop(gp, kind)
    gs, want_gs = codazzi.new_metric_jets(gp, s), _new_metric_loop(gp, s)
    for a in range(2):
        for b in range(2):
            _same_bits(s[a, b].c, want[a][b].c)
            _same_bits(gs[a, b].c, want_gs[a][b].c)
