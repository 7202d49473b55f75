"""The chart order each command reads: ``cli.FIELD_ORDER`` for ``field`` and
``theorems.CHECKER_ORDER`` for the checkers.

At its table order every command prints the bytes it prints at order 4, and
one order lower it fails with the jet order guard's message instead of
reading derivatives the jets do not hold.
"""

import contextlib
import io
import math
import re

import pytest

from prodsurf import cli, jets, theorems

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
