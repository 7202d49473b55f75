"""Grids evaluated in blocks: block edges move no bit, and the block bounds memory.

Every entry point walks its grid in consecutive blocks of at most
``geometry.BLOCK_COEFFS`` chart-jet coefficients.  Here the budget is shrunk
so that 9x9 and 7x11 grids split into several blocks, the last of one point,
and every report, exit code and message is compared byte for byte with the
run at the default budget, where each of these grids is one block.
"""

import contextlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from prodsurf import catalog, cli, geometry, identities, jets, theorems
from prodsurf.geometry import SampleGrid, grid_geometry
from prodsurf.spaceforms import make_ambient

PI4 = repr(math.pi / 4)

# Every catalog id, both classes, each kappa sign, the pad=2 warped cylinder,
# the negative control, and the two exit-3 cylinders (det g too small; a chart
# off the model).
SURFACES = [
    ("slice", {"kappa": "1"}),
    ("slice", {"kappa": "0"}),
    ("vertical_geodesic_cylinder", {"kappa": "-1"}),
    ("circle_cylinder", {"kappa": "1", "r": PI4, "warp": "0.3"}),
    ("circle_cylinder", {"kappa": "-1", "r": "0.4", "warp": "-0.2", "pad": "2"}),
    ("cor32_flat_minimal", {"kappa": "1", "theta": PI4}),
    ("perturbed_control", {"kappa": "-1", "r": "0.4"}),
    ("circle_cylinder", {"kappa": "1e6", "r": "5e-4"}),
    ("circle_cylinder", {"kappa": "-1", "r": "40"}),
]
QUANTITIES = ("K", "normT", "normS", "detS", "mu_integrand", "residual:pmc",
              "residual:simons_log", "residual:inverse_operator_codazzi")


def _commands(sid, params):
    base = ["--surface", sid]
    for name, value in params.items():
        base += ["--param", f"{name}={value}"]
    nine = [*base, "--grid", "9x9"]
    yield ["--verbose", "verify", *nine]
    yield ["verify", *base, "--grid", "7x11", "--format", "csv"]
    for theorem in sorted(theorems.CHECKERS):
        yield ["hypothesis", *nine, "--theorem", theorem]
    for quantity in QUANTITIES:
        yield ["field", *nine, "--quantity", quantity]
    for quantity in ("normS", "detS"):
        yield ["field", *nine, "--quantity", quantity, "--tilde"]


def _order(argv) -> int:
    if "hypothesis" in argv:
        return theorems.CHECKER_ORDER
    quantity = argv[argv.index("--quantity") + 1] if "--quantity" in argv else None
    return cli.FIELD_ORDER.get(quantity, jets.MAX_ORDER)


def _outputs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("sid,params", SURFACES,
                         ids=[f"{sid}-{'-'.join(p.values())}" for sid, p in SURFACES])
def test_block_edges_move_no_bit(sid, params, monkeypatch):
    flat_dim = catalog.instantiate(sid, {k: float(v) for k, v in params.items()}
                                   ).ambient.flat_dim
    sizes = []
    evaluate = geometry.evaluate_chart
    for argv in _commands(sid, params):
        one_block = _outputs(argv)
        # 81 = 8 * 10 + 1 and 77 = 2 * 38 + 1: the last block holds one point
        size = 10 if "9x9" in argv else 38
        monkeypatch.setattr(geometry, "BLOCK_COEFFS",
                            size * flat_dim * jets._NCOEF[_order(argv)])
        monkeypatch.setattr(geometry, "evaluate_chart",
                            lambda spec, u, v, order=4: sizes.append(np.size(u))
                            or evaluate(spec, u, v, order))
        sizes.clear()
        assert _outputs(argv) == one_block, argv
        monkeypatch.undo()
        # a checker that needs kappa != 0 exits before it evaluates the chart
        assert sizes[:1] in ([size], []), argv
        if one_block[0] in (0, 1):
            assert sizes[-1] == 1, argv


def _tail_graph():
    """A graph over the flat plane, minimal to |H| < 1e-8 except on its last
    u column, where |H| = 1.6e-8 lies in the conditioning band."""
    return geometry.SurfaceSpec(
        "tail_graph", {}, ((-1.0, 1.0), (-1.0, 1.0)), make_ambient(0.0, 2),
        lambda u, v: [u, v, 1e-11 * (u + 1.0) ** 8])


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [r.to_dict() for r in result] if isinstance(result, list) else result.to_dict()


def test_whole_grid_is_classified_before_its_blocks(monkeypatch):
    spec = _tail_graph()
    one = grid_geometry(spec, 9, 9)
    assert identities.classify_minimality(one) == (
        False, ["|H| inside the conditioning band (1e-08, 1e-06) at 9 grid points"])
    checks = [(jets.MAX_ORDER, identities.run_suite, spec, (9, 9)),
              (jets.MAX_ORDER, identities.residual_field, spec, "pmc", (9, 9), 0.02),
              *((theorems.CHECKER_ORDER, theorems.run_checker, t, spec, (9, 9))
                for t in sorted(theorems.CHECKERS))]
    for order, *check in checks:
        whole = _outcome(*check)
        # 81 = 8 * 9 + 9: only the last block holds points that are not minimal
        monkeypatch.setattr(geometry, "BLOCK_COEFFS", 9 * 3 * jets._NCOEF[order])
        blocked = SampleGrid(spec, 9, 9, order=order)
        assert blocked.single is None and len(blocked.blocks) == 9
        assert identities.classify_minimality(blocked) == identities.classify_minimality(one)
        assert _outcome(*check) == whole, check
        monkeypatch.undo()


def _catalog_specs():
    return [catalog.instantiate(sid, {k: float(v) for k, v in params.items()})
            for sid, params in SURFACES[:-2]]


@pytest.mark.parametrize("spec", _catalog_specs(), ids=lambda spec: spec.catalog_id)
def test_order_two_mean_curvature_is_the_chart_orders(spec):
    want = grid_geometry(spec, 9, 9).normH
    for order in (2, theorems.CHECKER_ORDER):
        assert np.array_equal(grid_geometry(spec, 9, 9, order=order).normH, want), order


def _verify_peak(grid: str) -> int:
    argv = ["verify", "--surface", "circle_cylinder", "--param", "kappa=-1", "--param", "r=0.4",
            "--param", "warp=-0.2", "--param", "pad=2", "--grid", grid, "--output", os.devnull]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_bounds_verify_memory():
    # 33x33 is one block of the warped pad=2 cylinder; 97x97 is nine
    small, dense = _verify_peak("33x33"), _verify_peak("97x97")
    assert dense <= 2 * small, (small, dense)
