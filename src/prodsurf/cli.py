"""Command-line driver: catalog listing, identity suites, field dumps, checkers.

Exit codes: 0 success (or inapplicable checker), 1 failed identity or
counterexample-candidate, 2 bad arguments / wrong surface class, 3 numerical
errors (degenerate metric, constraint violation).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import sys

import numpy as np

from . import __version__, codazzi, identities, theorems
from .catalog import CatalogError, catalog_list, instantiate
from .geometry import (
    DegenerateMetricError,
    MinimalSurfaceError,
    SampleGrid,
    grid_axes,
    joined,
)
from .jets import JetDomainError
from .spaceforms import ConstraintError
from .theorems import GateError

NUMERICAL_ERRORS = (
    DegenerateMetricError,
    ConstraintError,
    JetDomainError,
    codazzi.OperatorShapeError,
)
USAGE_ERRORS = (CatalogError, GateError, MinimalSurfaceError, ValueError)

# Each field quantity and the chart jet order it reads: Brioschi K needs the metric
# to order 2, normT the tangents, the rest the second fundamental form.
FIELD_ORDER = {"K": 3, "normT": 1, "normS": 2, "detS": 2, "mu_integrand": 2}
RESIDUAL_PREFIX = "residual:"


def _finite(flag: str, item: str, value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{flag} {item!r}: value must be finite, got {value.strip()!r}")
    return number


def _parse_params(items: list[str] | None) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        params[name.strip()] = _finite("--param", item, value)
    return params


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nu_s, _, nv_s = text.lower().partition("x")
        nu, nv = int(nu_s), int(nv_s)
    except Exception as exc:
        raise ValueError(f"--grid expects NUxNV, got {text!r}") from exc
    if nu < 5 or nv < 5:
        raise ValueError(f"grid must be at least 5x5, got {nu}x{nv}")
    return nu, nv


def _check_margin(margin: float) -> float:
    if not 0.0 <= margin < 0.5:
        raise ValueError(f"margin must lie in [0, 0.5), got {margin}")
    return margin


def _parse_tols(items: list[str] | None) -> dict[str, float]:
    tols: dict[str, float] = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--tol expects identity=value, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in identities.DEFAULT_TOLERANCES:
            known = ", ".join(sorted(identities.DEFAULT_TOLERANCES))
            raise ValueError(f"unknown identity {name!r}; known: {known}")
        tols[name] = _finite("--tol", item, value)
    return tols


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report_json(spec, grid, margin, results, verdicts) -> str:
    doc = {
        "surface": {"id": spec.catalog_id, "params": dict(sorted(spec.params.items()))},
        "grid": {"nu": grid[0], "nv": grid[1], "margin": margin},
        "results": [r.to_dict() for r in results],
        "verdicts": [v.to_dict() for v in verdicts],
        "version": __version__,
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_catalog(args) -> int:
    entries = catalog_list()
    if args.id:
        entries = [e for e in entries if e.id == args.id]
        if not entries:
            raise CatalogError(f"unknown catalog id {args.id!r}")
    if args.format == "json":
        doc = [
            {
                "id": e.id,
                "required_params": e.required_params,
                "optional_params": e.optional_params,
                "ambient_rule": e.ambient_rule,
                "expected": e.expected_formulas,
            }
            for e in entries
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
        return 0
    lines = []
    for e in entries:
        lines.append(f"{e.id}")
        lines.append(f"  ambient:  {e.ambient_rule}")
        req = ", ".join(f"{k} ({v})" for k, v in e.required_params.items())
        lines.append(f"  required: {req}")
        if e.optional_params:
            opt = ", ".join(f"{k}={v}" for k, v in e.optional_params.items())
            lines.append(f"  optional: {opt}")
        exp = ", ".join(f"{k}={v}" for k, v in e.expected_formulas.items())
        lines.append(f"  expected: {exp}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    params = _parse_params(args.param)
    grid = _parse_grid(args.grid)
    margin = _check_margin(args.margin)
    tols = _parse_tols(args.tol)
    spec = instantiate(args.surface, params)
    results = identities.run_suite(spec, grid, margin, tols)
    if args.format == "csv":
        rows = ["identity_id,max_abs,mean_abs,argmax_u,argmax_v,tolerance,passed"]
        for r in results:
            rows.append(
                f"{r.identity_id},{r.max_abs:.17g},{r.mean_abs:.17g},"
                f"{r.argmax[0]:.17g},{r.argmax[1]:.17g},{r.tolerance:.17g},{r.passed}"
            )
        _emit("\n".join(rows) + "\n", args.output)
    else:
        _emit(_report_json(spec, grid, margin, results, []), args.output)
    return 0 if all(r.passed for r in results) else 1


def cmd_field(args) -> int:
    """Write one quantity at every grid point as CSV rows ``u,v,value``.

    The grid is evaluated in blocks (:class:`~prodsurf.geometry.SampleGrid`)
    at the chart order the quantity reads; each block gives its values, which
    are joined in point order.  The quantities that depend on the surface's
    class first classify the whole grid.
    """
    params = _parse_params(args.param)
    grid = _parse_grid(args.grid)
    margin = _check_margin(args.margin)
    spec = instantiate(args.surface, params)
    quantity = args.quantity
    if quantity not in FIELD_ORDER and not quantity.startswith(RESIDUAL_PREFIX):
        raise ValueError(f"unknown quantity {quantity!r}; known: {', '.join(FIELD_ORDER)}, "
                         f"{RESIDUAL_PREFIX}<identity_id>")
    us, vs = grid_axes(spec, grid[0], grid[1], margin)
    keep = np.ones(len(us) * len(vs), dtype=bool)
    if quantity.startswith(RESIDUAL_PREFIX):
        values, keep = identities.residual_field(
            spec, quantity[len(RESIDUAL_PREFIX):], grid, margin)
    else:
        points = SampleGrid(spec, grid[0], grid[1], margin, FIELD_ORDER[quantity])
        if quantity not in ("K", "normT"):
            minimal, _ = identities.classify_minimality(points)
            if minimal and quantity == "mu_integrand":
                raise MinimalSurfaceError("mu_integrand undefined on a minimal surface")
            if minimal and quantity != "mu_integrand" and not args.tilde:
                raise ValueError(f"{quantity} undefined on a minimal surface; "
                                 "pass --tilde for the angle operator")
        kind = "angle" if args.tilde else "pmc"
        value = {
            "K": lambda gp: gp.K_val,
            "normT": lambda gp: gp.normT,
            "mu_integrand": identities.mu_integrand,
            "normS": lambda gp: np.sqrt(np.maximum(
                codazzi.norm_sq_jet(codazzi.operator_jets(gp, kind)).value, 0.0)),
            "detS": lambda gp: codazzi.det_jet(codazzi.operator_jets(gp, kind)).value,
        }[quantity]
        (values,) = joined(points.map(lambda gp: (value(gp),)))
    # Point k takes the (k // nv)-th u and the (k % nv)-th v: one "u,v," prefix each.
    v_txt = ["%.17g," % v for v in vs]
    prefix = [u_txt + v for u_txt in ("%.17g," % u for u in us) for v in v_txt]
    kept = itertools.compress(zip(prefix, values.tolist()), keep.tolist())
    rows = ["%s%.17g" % row for row in kept]
    _emit("\n".join(["u,v,value", *rows]) + "\n", args.output)
    return 0


def cmd_hypothesis(args) -> int:
    params = _parse_params(args.param)
    grid = _parse_grid(args.grid)
    margin = _check_margin(args.margin)
    eps = _finite("--eps", str(args.eps), str(args.eps))
    c = _finite("--c", str(args.c), str(args.c))
    spec = instantiate(args.surface, params)
    verdict = theorems.run_checker(args.theorem, spec, grid, eps, c, margin)
    _emit(_report_json(spec, grid, margin, [], [verdict]), args.output)
    return 0 if verdict.status != theorems.STATUS_COUNTEREXAMPLE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsurf",
        description="Verify curvature identities of surfaces in product-space models",
    )
    parser.add_argument("--verbose", action="store_true", help="log per-row point counts")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list built-in surfaces")
    cat.add_argument("--format", choices=["text", "json"], default="text")
    cat.add_argument("--id", default=None, help="show a single entry")
    cat.add_argument("--output", default=None)
    cat.set_defaults(fn=cmd_catalog)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--surface", required=True, help="catalog id")
    common.add_argument("--param", action="append", metavar="NAME=VALUE",
                        help="surface parameter (repeatable)")
    common.add_argument("--grid", default="33x33", metavar="NUxNV")
    common.add_argument("--margin", type=float, default=identities.DEFAULT_MARGIN)
    common.add_argument("--output", default=None)

    ver = sub.add_parser("verify", parents=[common],
                         help="run the identity suite and write a report")
    ver.add_argument("--tol", action="append", metavar="IDENTITY=VALUE",
                     help="tolerance override (repeatable)")
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.set_defaults(fn=cmd_verify)

    fld = sub.add_parser("field", parents=[common],
                         help="sample a scalar field over the grid as CSV")
    fld.add_argument("--quantity", required=True,
                     help=f"one of {', '.join(FIELD_ORDER)}, or {RESIDUAL_PREFIX}ID for "
                          "the residual of one verify row (skipped points are left out)")
    fld.add_argument("--tilde", action="store_true",
                     help="use the angle operator for normS/detS")
    fld.set_defaults(fn=cmd_field)

    hyp = sub.add_parser("hypothesis", parents=[common],
                         help="evaluate a theorem-consistency checker")
    hyp.add_argument("--theorem", choices=sorted(theorems.CHECKERS), required=True)
    hyp.add_argument("--eps", type=float, default=0.1)
    hyp.add_argument("--c", type=float, default=0.0)
    hyp.set_defaults(fn=cmd_hypothesis)
    return parser


# Built once per process: building the tree costs about ten times a parse, and
# a parse leaves the parser unchanged (each repeatable flag starts a new list).
_PARSER = build_parser()


# The log handler of every call, pointed at that call's stderr.
_LOG_HANDLER = logging.StreamHandler()


def main(argv: list[str] | None = None) -> int:
    _LOG_HANDLER.stream = sys.stderr  # not setStream: the last call's stream may be closed
    logging.basicConfig(handlers=[_LOG_HANDLER], format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    logging.getLogger("prodsurf").setLevel(logging.INFO if args.verbose else logging.NOTSET)
    try:
        return args.fn(args)
    # Numerical errors first: ConstraintError and OperatorShapeError are ValueErrors.
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
