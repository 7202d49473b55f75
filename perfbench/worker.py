"""One workload in one fresh process: set up, run operations, print a JSON line.

Runs ``prodsurf.cli.main(argv)`` in-process, one thread, closed loop with
one client: the next operation starts when the previous one returns.  Whole
passes over the workload's slots repeat until the next pass would end past
``--seconds`` (at least one pass).

With ``--trace 1`` each operation runs twice, untraced and then traced; the
two reports must be byte-identical, and the traced copy gives the per-layer
metrics.  Start it through ``run.py``, which sets the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jetkernel  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

IDENTITY_ROWS = sorted(workloads.NONMINIMAL_ROWS | workloads.MINIMAL_ROWS)
CODAZZI_FNS = ["codazzi_residual", "grad_tensor_norm_sq", "simons_quadratic_residual",
               "simons_reduced_residual", "simons_log_residual", "new_metric_jets",
               "metric_change", "inverse_codazzi_residual"]
CHECKER_FNS = ["check_codazzi_dichotomy", "check_pmc_flatness", "check_pmc_flatness_mu",
               "check_minimal_angle"]


def import_program():
    """Import prodsurf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "prodsurf" / "cli.py").is_file():
        raise SystemExit(f"prodsurf sources not found under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import prodsurf.catalog
    import prodsurf.cli

    if Path(prodsurf.cli.__file__).resolve().parent != (src / "prodsurf").resolve():
        raise SystemExit(f"prodsurf imported from {prodsurf.cli.__file__}, not {src}")
    return prodsurf, numpy


def run_op(main, op, tracer=None, index=0):
    """Run one operation; return (exit code or None, stdout text, wall seconds)."""
    argv = op.argv()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = main(argv) if tracer is None else tracer.run_op(index, main, argv)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            code = None
        wall = time.perf_counter() - start
    return code, buf.getvalue(), wall


def failure(op, code, text) -> str | None:
    if code is None:
        return "raised"
    return workloads.check_output(op, code, text)


def passes_within(passes, seconds: float):
    """Yield passes until the next one would end past ``seconds`` (at least one)."""
    start = time.perf_counter()
    for done, pass_ops in enumerate(passes, start=1):
        yield pass_ops
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def timed_run(prodsurf, passes, seconds):
    main = prodsurf.cli.main
    walls, points, failed = [], 0, 0
    for pass_ops in passes_within(passes, seconds):
        for op in pass_ops:
            code, text, wall = run_op(main, op)
            reason = failure(op, code, text)
            if reason:
                failed += 1
                print(f"failed: {op.label()}: {reason}", file=sys.stderr)
            walls.append(wall)
            points += op.points
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "points_per_s": (points / sum(walls), "points/s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return metrics, len(walls), failed, True


def traced_run(prodsurf, passes, seconds, seed, trace_path, header):
    main = prodsurf.cli.main
    kernel, kernel_errors = jetkernel.run(prodsurf.jets, seed)
    for err in kernel_errors:
        print(f"jet oracle: {err}", file=sys.stderr)
    tracer = Tracer()
    ops, plain_walls, report_bytes, failed = [], [], 0, 0
    for pass_ops in passes_within(passes, seconds):
        for op in pass_ops:
            code, text, wall = run_op(main, op)
            t_code, t_text, _ = run_op(main, op, tracer, len(ops))
            reason = failure(op, code, text) or failure(op, t_code, t_text)
            if not reason and (t_code, t_text) != (code, text):
                reason = "traced report differs from the untraced report"
            if reason:
                failed += 1
                print(f"failed: {op.label()}: {reason}", file=sys.stderr)
            ops.append(op)
            plain_walls.append(wall)
            report_bytes += len(t_text.encode())
    metrics = layer_metrics(tracer, ops, plain_walls, report_bytes)
    metrics.update({name: (value, "us") for name, value in kernel.items()})
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, dict(header, ops=[op.label() for op in ops]))
    return metrics, len(ops), failed, not kernel_errors


def layer_metrics(tracer, ops, plain_walls, report_bytes):
    """Per-layer metrics of a traced run; times are seconds per operation."""
    totals, top_level = tracer.span_totals()
    count = lambda name: totals[name][0] if name in totals else 0  # noqa: E731
    total = lambda name: totals[name][1] if name in totals else 0.0  # noqa: E731
    self_s = lambda name: totals[name][2] if name in totals else 0.0  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    n_ops, points = len(ops), sum(op.points for op in ops)
    traced_wall = total("cli.main")
    c = tracer.counts
    ec, geom = count("geometry.evaluate_chart"), count("geometry.geom")
    builds = count("codazzi.pmc_operator_jets") + count("codazzi.angle_operator_jets")
    out = {
        "jets.mul.calls_per_point": (c["jets.mul"] / points, "calls/point"),
        "jets.compose.calls_per_point": (c["jets.compose"] / points, "calls/point"),
        "spaceforms.flat_inner.calls_per_point":
            (c["spaceforms.flat_inner"] / points, "calls/point"),
        "geometry.evaluate_chart.calls_per_point": (ec / points, "calls/point"),
        "geometry.evaluate_chart.ms_per_call":
            (ratio(total("geometry.evaluate_chart"), ec) * 1e3, "ms"),
        "geometry.evaluate_chart.busy_frac":
            (total("geometry.evaluate_chart") / traced_wall, "ratio"),
        "geometry.geom.lookups_per_point": (geom / points, "lookups/point"),
        "geometry.geom.hit_ratio": (ratio(geom - ec, geom), "ratio"),
        "geometry.normal_frame_jets.self_s":
            (self_s("geometry.normal_frame_jets") / n_ops, "s"),
        "geometry.normal_connection_derivative.self_s":
            (self_s("geometry.normal_connection_derivative") / n_ops, "s"),
        "codazzi.operator_builds_per_point": (builds / points, "builds/point"),
        "codazzi.matrix_at.hit_ratio":
            (ratio(c["codazzi.matrix_at.hits"], c["codazzi.matrix_at.lookups"]), "ratio"),
    }
    for fn in CODAZZI_FNS:
        out[f"codazzi.{fn}.self_s"] = (self_s(f"codazzi.{fn}") / n_ops, "s")
    for row in IDENTITY_ROWS:
        out[f"identities.{row}.s"] = (total(f"identities.{row}") / n_ops, "s")
    for fn in ("classify_minimality", "pmc_residual", "mu_estimate"):
        out[f"identities.{fn}.s"] = (total(f"identities.{fn}") / n_ops, "s")
    out["identities.skipped_frac"] = (
        ratio(c["identities.points_skipped"], c["identities.points_attempted"]), "ratio")
    for fn in CHECKER_FNS:
        out[f"theorems.{fn}.self_s"] = (self_s(f"theorems.{fn}") / n_ops, "s")
    out["catalog.instantiate.s"] = (total("catalog.instantiate") / n_ops, "s")
    out["cli.self_s"] = ((traced_wall - top_level) / n_ops, "s")
    out["cli.report_bytes"] = (report_bytes / n_ops, "bytes")
    out["trace.overhead_frac"] = (traced_wall / sum(plain_walls) - 1.0, "ratio")
    out["trace.coverage_frac"] = (top_level / traced_wall, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the time it finished, and exit")
    args = parser.parse_args(argv)

    prodsurf, numpy = import_program()
    passes = workloads.make_passes(args.workload, args.seed)
    first = next(passes)
    for op in first:
        prodsurf.catalog.instantiate(op.surface, op.params)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "numpy": numpy.__version__}
    passes = itertools.chain([first], passes)
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics, attempted, failed, oracle_ok = traced_run(
            prodsurf, passes, args.seconds, args.seed, trace_path, header)
        header["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics, attempted, failed, oracle_ok = timed_run(prodsurf, passes, args.seconds)
    print(json.dumps({"ready": ready, "env": header, "attempted": attempted,
                      "failed": failed, "oracle_ok": oracle_ok,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
