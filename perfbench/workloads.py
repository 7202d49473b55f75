"""Seeded operations of each workload and the checks on their outputs.

An operation is one argv for ``prodsurf.cli.main``.  A workload is a fixed
list of slots; every slot fixes the discrete choices that set an operation's
cost (catalog id, command, grid, padding, kappa = 0 or not) and the seed
draws only the continuous parameters and the signs of kappa, from ranges on
which every closed form and every pass/fail outcome holds.  A run repeats
whole passes over the slots, so every run has the same mix of costs whatever
its seed.

The checks compare each output with closed forms written here, not with the
program's own catalog.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

VERIFY_GRID = (17, 17)
FIELD_GRID = (65, 65)
# Below the CLI default of 33x33, so that a run holds enough operations for a
# steady median.
CHECKER_GRID = (17, 17)

PERTURBED_PMC_FLOOR = 1e-3
FIELD_TOL = 1e-9

_COMMON_ROWS = {
    "operator_trace", "operator_norm_det", "simons_sq", "simons_reduced",
    "simons_log", "metric_change", "inverse_operator_codazzi", "ambient_codazzi",
    "gauss_equation", "t_laplacian", "t_field_grad", "t_field_alpha", "pmc",
}
MINIMAL_ROWS = _COMMON_ROWS | {"codazzi_angle"}
NONMINIMAL_ROWS = _COMMON_ROWS | {"codazzi_pmc", "curvature_formula", "mu_consistency"}
# On a slice S == 0, so every point of these rows is skipped and the row is absent.
SLICE_SKIPPED_ROWS = {"simons_reduced", "simons_log", "metric_change",
                      "inverse_operator_codazzi"}
MINIMAL_IDS = {"slice", "vertical_geodesic_cylinder", "cor32_flat_minimal"}


@dataclass
class Op:
    """One operation: the argv and what its output must satisfy."""

    command: str
    surface: str
    params: dict[str, float]
    grid: tuple[int, int]
    extra: dict[str, str] = field(default_factory=dict)

    @property
    def points(self) -> int:
        return self.grid[0] * self.grid[1]

    def argv(self) -> list[str]:
        out = [self.command, "--surface", self.surface]
        for name, value in self.params.items():
            out += ["--param", f"{name}={value!r}"]
        out += ["--grid", f"{self.grid[0]}x{self.grid[1]}"]
        for name, value in self.extra.items():
            out += [f"--{name}", value]
        return out

    def label(self) -> str:
        return " ".join(self.argv())


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _cylinder(rng, kappa: float, pad: int) -> dict[str, float]:
    if kappa > 0:
        params = {"kappa": kappa, "r": rng.uniform(0.3, 1.2)}
        params["warp"] = rng.uniform(0.0, 0.5)
    else:
        params = {"kappa": kappa, "r": rng.uniform(0.2, 1.0)}
    if pad:
        params["pad"] = float(pad)
    return params


def _cor32(rng) -> dict[str, float]:
    return {"kappa": 1.0, "theta": rng.uniform(0.3, 1.2)}


def _verify_pass(rng: random.Random) -> list[Op]:
    v = lambda surface, params: Op("verify", surface, params, VERIFY_GRID)  # noqa: E731
    return [
        v("circle_cylinder", _cylinder(rng, 1.0, 0)),
        v("circle_cylinder", _cylinder(rng, 1.0, 2)),
        v("circle_cylinder", _cylinder(rng, -1.0, 0)),
        v("circle_cylinder", _cylinder(rng, 0.0, 0)),
        v("cor32_flat_minimal", _cor32(rng)),
        v("slice", {"kappa": 0.0}),
        v("slice", {"kappa": _sign(rng)}),
        v("vertical_geodesic_cylinder", {"kappa": 0.0}),
        v("vertical_geodesic_cylinder", {"kappa": _sign(rng)}),
        v("perturbed_control", {"kappa": _sign(rng), "r": rng.uniform(0.4, 1.2)}),
    ]


def _field_pass(rng: random.Random) -> list[Op]:
    quantity = lambda: {"quantity": rng.choice(("K", "normT"))}  # noqa: E731
    return [
        Op("field", "circle_cylinder", _cylinder(rng, 1.0, 0), FIELD_GRID, quantity()),
        Op("field", "cor32_flat_minimal", _cor32(rng), FIELD_GRID, quantity()),
    ]


def _checkers_pass(rng: random.Random) -> list[Op]:
    h = lambda theorem, surface, params: Op(  # noqa: E731
        "hypothesis", surface, params, CHECKER_GRID, {"theorem": theorem})
    # Eleven slots: seven cheap (pad 0, vertical geodesic cylinder) and four
    # dear (pad 2, cor32), so the median operation is one of the cheap ones
    # and not the mean of two operations either side of the gap in cost.
    cyl = lambda theorem, kappa, pad: h(  # noqa: E731
        theorem, "circle_cylinder", _cylinder(rng, kappa, pad))
    return [
        cyl("3.1", 1.0, 0), cyl("3.1", -1.0, 0), cyl("3.1", 1.0, 2),
        cyl("1.3", 1.0, 0), cyl("1.3", -1.0, 0), cyl("1.3", -1.0, 2),
        cyl("1.2", 1.0, 0),
        h("1.2", "cor32_flat_minimal", _cor32(rng)),
        h("cor", "cor32_flat_minimal", _cor32(rng)),
        h("cor", "vertical_geodesic_cylinder", {"kappa": 1.0}),
        h("cor", "vertical_geodesic_cylinder", {"kappa": -1.0}),
    ]


WORKLOADS = {
    "verify_suite": _verify_pass,
    "field_dense": _field_pass,
    "checkers": _checkers_pass,
}


def make_passes(workload: str, seed: int):
    """Endless passes of a workload; the same seed gives the same operations."""
    rng = random.Random(f"prodsurf-bench/{workload}/{seed}")
    while True:
        yield WORKLOADS[workload](rng)


# -- output checks --------------------------------------------------------------

def _check_verify(op: Op, code: int, text: str) -> str | None:
    doc = json.loads(text)
    if doc["surface"]["id"] != op.surface:
        return f"report names surface {doc['surface']['id']!r}"
    rows = {r["identity_id"]: r for r in doc["results"]}
    if len(rows) != len(doc["results"]):
        return "duplicate identity rows"
    if op.surface in MINIMAL_IDS:
        expected = MINIMAL_ROWS - (SLICE_SKIPPED_ROWS if op.surface == "slice" else set())
    else:
        expected = NONMINIMAL_ROWS
    if set(rows) != expected:
        return f"identity rows {sorted(set(rows) ^ expected)} differ from the class"
    if any(r["grid"] != list(op.grid) for r in rows.values()):
        return "row grid differs from the requested grid"
    if op.surface == "perturbed_control":
        if code != 1:
            return f"negative control exited {code}, expected 1"
        if not rows["pmc"]["max_abs"] > PERTURBED_PMC_FLOOR:
            return f"negative control pmc residual {rows['pmc']['max_abs']!r} too small"
        return None
    if code != 0:
        return f"exact surface exited {code}"
    failed = [name for name, r in rows.items() if not r["passed"]]
    return f"rows failed: {failed}" if failed else None


def _field_closed_form(op: Op) -> float:
    if op.extra["quantity"] == "K":
        return 0.0  # both surfaces are flat
    if op.surface == "cor32_flat_minimal":
        return math.sin(op.params["theta"])
    return 1.0  # a vertical cylinder is everywhere tangent to the line factor


def _check_field(op: Op, code: int, text: str) -> str | None:
    if code != 0:
        return f"field exited {code}"
    lines = text.splitlines()
    if lines[0] != "u,v,value" or len(lines) != op.points + 1:
        return f"field output has {len(lines) - 1} rows, expected {op.points}"
    want = _field_closed_form(op)
    worst = max(abs(float(line.rsplit(",", 1)[1]) - want) for line in lines[1:])
    if not worst <= FIELD_TOL:
        return f"field deviates from its closed form by {worst!r}"
    return None


def _check_hypothesis(op: Op, code: int, text: str) -> str | None:
    if code != 0:
        return f"checker exited {code}"
    (verdict,) = json.loads(text)["verdicts"]
    if verdict["theorem_id"] != op.extra["theorem"]:
        return f"verdict for theorem {verdict['theorem_id']!r}"
    if verdict["status"] not in ("consistent", "inapplicable"):
        return f"checker status {verdict['status']!r}"
    return None


_CHECKS = {"verify": _check_verify, "field": _check_field,
           "hypothesis": _check_hypothesis}


def check_output(op: Op, code: int, text: str) -> str | None:
    """None when the output is right, else the reason it is not."""
    try:
        return _CHECKS[op.command](op, code, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
