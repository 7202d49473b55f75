"""The chart order each command reads: ``cli.FIELD_ORDER`` for ``field`` and
``theorems.CHECKER_ORDER`` for the checkers; and the order each jet of the
geometry keeps.

At its table order every command prints the bytes it prints at order 4, and
one order lower it fails with the jet order guard's message instead of
reading derivatives the jets do not hold.  Inside a chart, the metric, the
projected vectors of ``normal_frame_jets`` and the operator of the ``S^{-1}``
Codazzi row keep only the orders their readers use, and ``verify`` prints the bytes it prints with
those jets at full order.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from prodsurf import catalog, cli, geometry, identities, jets, theorems
from prodsurf.jets import Jet2

from oracles import normal_frame

# One surface per catalog id, and whether it is minimal.
SURFACES = [
    ("slice", {"kappa": 1.0}, True),
    ("vertical_geodesic_cylinder", {"kappa": -1.0}, True),
    ("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4, "warp": 0.3, "pad": 2}, False),
    ("cor32_flat_minimal", {"kappa": 1.0, "theta": math.pi / 4}, True),
    ("perturbed_control", {"kappa": -1.0, "r": 0.4}, False),
]
ORDER_ERROR = r"needs a jet of order >= \d, got order \d"


def _argv(command, sid, params, grid, *extra):
    out = [command, "--surface", sid]
    for name, value in params.items():
        out += ["--param", f"{name}={value!r}"]
    return out + ["--grid", grid, *extra]


def _field_argv(sid, params, minimal, quantity, grid="9x9"):
    tilde = ["--tilde"] if minimal and quantity in ("normS", "detS") else []
    return _argv("field", sid, params, grid, "--quantity", quantity, *tilde)


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("quantity", list(cli.FIELD_ORDER))
@pytest.mark.parametrize("sid,params,minimal", SURFACES, ids=[s[0] for s in SURFACES])
def test_field_at_table_order_matches_order_four(sid, params, minimal, quantity, monkeypatch):
    argv = _field_argv(sid, params, minimal, quantity)
    table = _run(argv)
    monkeypatch.setitem(cli.FIELD_ORDER, quantity, jets.MAX_ORDER)
    assert table == _run(argv)
    undefined = minimal and quantity == "mu_integrand"
    assert table[0] == (2 if undefined else 0), table[2]


@pytest.mark.parametrize("quantity", ["K", "normT"])
@pytest.mark.parametrize("sid,params,minimal", SURFACES, ids=[s[0] for s in SURFACES])
def test_dense_field_at_table_order_matches_order_four(sid, params, minimal, quantity,
                                                       monkeypatch):
    argv = _field_argv(sid, params, minimal, quantity, grid="65x65")
    table = _run(argv)
    monkeypatch.setitem(cli.FIELD_ORDER, quantity, jets.MAX_ORDER)
    assert table == _run(argv)
    assert table[0] == 0 and table[1].count("\n") == 1 + 65 * 65


@pytest.mark.parametrize("theorem", sorted(theorems.CHECKERS))
@pytest.mark.parametrize("sid,params,minimal", SURFACES, ids=[s[0] for s in SURFACES])
def test_checker_at_table_order_matches_order_four(sid, params, minimal, theorem,
                                                   monkeypatch):
    argv = _argv("hypothesis", sid, params, "9x9", "--theorem", theorem)
    table = _run(argv)
    monkeypatch.setattr(theorems, "CHECKER_ORDER", jets.MAX_ORDER)
    assert table == _run(argv)


@pytest.mark.parametrize("quantity", list(cli.FIELD_ORDER))
@pytest.mark.parametrize("sid,params,minimal", [SURFACES[2], SURFACES[3]],
                         ids=["circle_cylinder", "cor32_flat_minimal"])
def test_field_one_order_lower_fails_on_order(sid, params, minimal, quantity, monkeypatch):
    monkeypatch.setitem(cli.FIELD_ORDER, quantity, cli.FIELD_ORDER[quantity] - 1)
    code, out, err = _run(_field_argv(sid, params, minimal, quantity))
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: .*({ORDER_ERROR}).*\n", err), err


# A surface on which each checker gets past its class gate.
CHECKER_SURFACES = {
    "1.2": SURFACES[2],
    "1.3": ("circle_cylinder", {"kappa": -1.0, "r": 0.3}, False),
    "3.1": ("circle_cylinder", {"kappa": -1.0, "r": 0.3}, False),
    "cor": SURFACES[3],
}


@pytest.mark.parametrize("theorem", sorted(CHECKER_SURFACES))
def test_checker_one_order_lower_fails_on_order(theorem, monkeypatch):
    sid, params, _ = CHECKER_SURFACES[theorem]
    argv = _argv("hypothesis", sid, params, "9x9", "--theorem", theorem)
    assert _run(argv)[0] == 0
    monkeypatch.setattr(theorems, "CHECKER_ORDER", theorems.CHECKER_ORDER - 1)
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: .*({ORDER_ERROR}).*\n", err), err


# The order of every jet under each name, at chart orders 1, 2, 3 and 4: None
# where the name holds no jet, RAISES where the order guard rejects the read.
RAISES = "raises"
GEOMETRY_ORDERS = {
    "u": (None, None, None, None),
    "v": (None, None, None, None),
    "f": (1, 2, 3, 4),
    "fu": (0, 1, 2, 3),
    "fv": (0, 1, 2, 3),
    "g": (0, 1, 2, 2),
    "ginv": (0, 1, 2, 2),
    "g_val": (None, None, None, None),
    "ginv_val": (None, None, None, None),
    "gamma": (RAISES, 0, 1, 1),
    "gamma_val": (RAISES, None, None, None),
    "alpha_flat": (RAISES, 0, 1, 2),
    "alpha_val": (RAISES, None, None, None),
    "H": (RAISES, 0, 1, 2),
    "H_val": (RAISES, None, None, None),
    "normH2": (RAISES, 0, 1, 2),
    "normH": (RAISES, None, None, None),
    "T_up": (0, 1, 2, 2),
    "T_flat": (0, 1, 2, 2),
    "eta": (0, 1, 2, 2),
    "normT2": (0, 1, 2, 2),
    "normT": (None, None, None, None),
    "T_val": (None, None, None, None),
    "eta_val": (None, None, None, None),
    "K": (RAISES, RAISES, 0, 0),
    "K_val": (RAISES, RAISES, None, None),
    "normal_frame_jets": (RAISES, 1, 1, 1),
}
WARPED_PAD2 = ("circle_cylinder", {"kappa": -1.0, "r": 0.4, "warp": -0.2, "pad": 2}, False)


def _orders(x) -> set:
    if isinstance(x, Jet2):
        return {x.order}
    if isinstance(x, list):
        return set().union(*map(_orders, x))
    return set()


def test_geometry_names_keep_their_table_orders():
    assert set(GEOMETRY_ORDERS) == {*geometry.GEOMETRY_NAMES, "normal_frame_jets"}
    spec = catalog.instantiate(*WARPED_PAD2[:2])
    for m in range(1, jets.MAX_ORDER + 1):
        gp = geometry.grid_geometry(spec, 3, 3, order=m)
        for name, orders in GEOMETRY_ORDERS.items():
            try:
                value = (geometry.normal_frame_jets(gp, normal_frame(gp))
                         if name == "normal_frame_jets"
                         else getattr(gp, name))
            except ValueError:
                got = RAISES
            else:
                got = _orders(value) or {None}
                got = got.pop() if len(got) == 1 else got
            assert got == orders[m - 1], (name, m)


@pytest.mark.parametrize("sid,params,minimal", SURFACES + [WARPED_PAD2],
                         ids=[s[0] for s in SURFACES] + ["warped_pad2"])
def test_ambient_codazzi_reads_first_derivatives_of_alpha_only(sid, params, minimal):
    # order 3 holds alpha to order 1, the first derivatives the defect reads
    spec = catalog.instantiate(sid, params)
    full = identities.ambient_codazzi_defect(geometry.grid_geometry(spec, 9, 9))
    low = geometry.grid_geometry(spec, 9, 9, order=3)
    assert low.alpha_flat.order == 1
    assert np.array_equal(identities.ambient_codazzi_defect(low), full)
    with pytest.raises(ValueError, match=ORDER_ERROR):
        identities.ambient_codazzi_defect(geometry.grid_geometry(spec, 9, 9, order=2))


@pytest.mark.parametrize("sid,params,minimal", SURFACES + [WARPED_PAD2],
                         ids=[s[0] for s in SURFACES] + ["warped_pad2"])
def test_verify_prints_the_bytes_of_full_order_jets(sid, params, minimal, monkeypatch):
    argv = _argv("verify", sid, params, "9x9")
    reduced = _run(argv)
    assert reduced[0] in (0, 1), reduced[2]
    # full orders: no truncation (metric m - 1, S^{-1} row at S's order)
    monkeypatch.setattr(Jet2, "truncate", lambda self, order: self)
    spec = catalog.instantiate(sid, params)
    assert geometry.grid_geometry(spec, 3, 3).g[0][0].order == 3
    assert reduced == _run(argv)
