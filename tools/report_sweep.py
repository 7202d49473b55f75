"""Run a fixed list of ``prodsurf`` commands in-process and fingerprint each report.

Usage::

    PYTHONPATH=src python tools/report_sweep.py OUT.json
    python tools/report_sweep.py --compare BEFORE.json AFTER.json

The first form runs every command of :func:`commands` through
``prodsurf.cli.main`` and writes ``{argv: [exit, sha256(stdout),
sha256(stderr), digest]}``.  ``digest`` maps each number that a report
certifies to ``[value, flag]``: a verify row to its ``max_abs`` and
``passed``, a checker's hypotheses and claims to their margins and outcomes
(and its ``status``), a field to its sampled values.  A command that raises
instead of returning an exit code is recorded as ``"uncaught <name>"``, and
the sweep then exits 1.  Last, the sweep prints its peak RSS (``ru_maxrss``)
and wall time on stderr, then one line of wall seconds per command kind
(:data:`KINDS`); they are not part of the JSON.

``--compare`` lists every command whose output moved, with the largest change
of a certified number, and exits 1 if any exit code or flag changed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import sys
import time

PI4 = repr(math.pi / 4)

# (catalog id, parameters) of every swept surface: each kappa sign and scale
# each entry admits, the pad/warp variants, the small-|det S| cylinders at
# kappa=-1 (r=4.8 fails inverse_operator_codazzi, r=4.9 passes) and the exit-3
# cylinder (r=40 at kappa=-1 lies off the model).
SURFACES = [
    *(("slice", {"kappa": k}) for k in ("1", "-1", "0", "4", "-0.25")),
    ("slice", {"kappa": "-1", "t0": "2.5"}),
    *(("vertical_geodesic_cylinder", {"kappa": k}) for k in ("1", "-1", "0", "4", "-0.25")),
    ("circle_cylinder", {"kappa": "1", "r": PI4}),
    ("circle_cylinder", {"kappa": "-1", "r": "0.3"}),
    ("circle_cylinder", {"kappa": "0", "r": "0.7"}),
    ("circle_cylinder", {"kappa": "4", "r": "0.3"}),
    ("circle_cylinder", {"kappa": "-0.25", "r": "1.0"}),
    ("circle_cylinder", {"kappa": "1", "r": "0.6", "pad": "2"}),
    ("circle_cylinder", {"kappa": "-1", "r": "0.5", "pad": "2"}),
    ("circle_cylinder", {"kappa": "1", "r": PI4, "warp": "0.3"}),
    ("circle_cylinder", {"kappa": "-1", "r": "0.4", "warp": "-0.2", "pad": "2"}),
    ("circle_cylinder", {"kappa": "1e4", "r": "5e-3"}),
    ("circle_cylinder", {"kappa": "1e6", "r": "5e-4"}),
    ("circle_cylinder", {"kappa": "-1", "r": "4.8"}),
    ("circle_cylinder", {"kappa": "-1", "r": "4.9"}),
    ("circle_cylinder", {"kappa": "-1", "r": "40"}),
    ("cor32_flat_minimal", {"kappa": "1", "theta": PI4}),
    ("cor32_flat_minimal", {"kappa": "2", "theta": "0.5"}),
    ("cor32_flat_minimal", {"kappa": "1", "theta": "1.2"}),
    *(("perturbed_control", {"kappa": k, "r": r})
      for k, r in (("1", PI4), ("-1", "0.4"), ("0", "0.7"), ("2", "0.5"), ("-3", "0.3"))),
    ("perturbed_control", {"kappa": "1", "r": "0.6", "amp": "-0.2"}),
]

MINIMAL_IDS = ("slice", "vertical_geodesic_cylinder", "cor32_flat_minimal")

# The command kinds, by first argument, whose wall seconds the sweep prints.
KINDS = ("verify", "hypothesis", "field", "catalog")

# Commands that must fail validation, and the listing itself.
EXTRA = [
    ["catalog"], ["catalog", "--format", "json"], ["catalog", "--id", "circle_cylinder"],
    ["verify", "--surface", "torus", "--grid", "5x5"],
    ["verify", "--surface", "circle_cylinder", "--param", "kappa=1", "--grid", "5x5"],
    *(["verify", "--surface", "circle_cylinder", "--param", "kappa=1", "--param", "r=0.5",
       "--param", f"pad={pad}", "--grid", "5x5"] for pad in ("2.5", "0.5", "1", "-2")),
    ["verify", "--surface", "circle_cylinder", "--param", "kappa=1", "--param", "r=2",
     "--grid", "5x5"],
    *(["verify", "--surface", "perturbed_control", "--param", "kappa=1", "--param", "r=0.5",
       "--param", f"amp={amp}", "--grid", "5x5"] for amp in ("0.7", "0", "-0.5")),
    ["verify", "--surface", "cor32_flat_minimal", "--param", "kappa=-1",
     "--param", "theta=0.5", "--grid", "5x5"],
]

# Checker branches the per-surface eps=0.1, c=0 commands miss: "1.2" with both
# branches holding, "1.3"/"3.1" at c > 0 (kappa > 0) and at eps = 0 (kappa < 0),
# and "cor" applicable at kappa > 0 and kappa < 0.
CHECKER_BRANCHES = [
    ["hypothesis", "--surface", "vertical_geodesic_cylinder", "--param", "kappa=1",
     "--grid", "9x9", "--theorem", "1.2", "--eps", "0.25"],
    *(["hypothesis", "--surface", "circle_cylinder", "--param", kappa, "--param", "r=0.3",
       "--grid", "9x9", "--theorem", t, option, value]
      for kappa, option, value in (("kappa=1", "--c", "0.5"), ("kappa=-1", "--eps", "0"))
      for t in ("1.3", "3.1")),
    ["hypothesis", "--surface", "cor32_flat_minimal", "--param", "kappa=1",
     "--param", f"theta={PI4}", "--grid", "9x9", "--theorem", "cor", "--eps", "0.5"],
    ["hypothesis", "--surface", "vertical_geodesic_cylinder", "--param", "kappa=-1",
     "--grid", "9x9", "--theorem", "cor", "--eps", "0.5"],
]

# The two surfaces of the dense commands: the warped pad=2 cylinder (non-minimal,
# the widest flat space) and cor32 (minimal).
_DENSE_CYLINDER = ["--surface", "circle_cylinder", "--param", "kappa=-1", "--param", "r=0.4",
                   "--param", "warp=-0.2", "--param", "pad=2"]
_DENSE_COR32 = ["--surface", "cor32_flat_minimal", "--param", "kappa=1",
                "--param", f"theta={PI4}"]

# Full reports on the largest grids, where a grid spans many evaluation blocks:
# the suite, the checkers of each class, every field quantity (``mu_integrand``
# exits 2 on cor32) and one residual field, each at 129x129, and a 67x61 suite
# whose last block is short.
DENSE = [
    *(["verify", *base, "--grid", "129x129"] for base in (_DENSE_CYLINDER, _DENSE_COR32)),
    *(["hypothesis", *_DENSE_CYLINDER, "--grid", "129x129", "--theorem", t]
      for t in ("3.1", "1.3")),
    *(["hypothesis", *_DENSE_COR32, "--grid", "129x129", "--theorem", t]
      for t in ("1.2", "cor")),
    *(["field", *base, "--grid", "129x129", "--quantity", q,
       *(tilde if q in ("normS", "detS") else [])]
      for base, tilde in ((_DENSE_CYLINDER, []), (_DENSE_COR32, ["--tilde"]))
      for q in ("K", "normT", "normS", "detS", "mu_integrand", "residual:ambient_codazzi")),
    ["verify", *_DENSE_CYLINDER, "--grid", "67x61"],
]


def commands() -> list[list[str]]:
    """The fixed sweep: twenty-eight commands per surface, then :data:`DENSE`,
    :data:`CHECKER_BRANCHES` and :data:`EXTRA`.

    ``normS`` and ``detS`` take the angle operator (``--tilde``) on the
    minimal entries, which have no PMC operator.  Every suite row has a
    per-point residual field: the Codazzi row of the surface's class, and
    the non-minimal rows on every entry, so that they exit 2 on the minimal
    ones.  The list is written out, not read from the package, so that the
    same sweep runs on an older checkout.  The first surface of each catalog
    id also samples ``K`` and ``normT`` at 65x65.
    """
    out, dense = [], set()
    for sid, params in SURFACES:
        base = ["--surface", sid]
        for name, value in params.items():
            base += ["--param", f"{name}={value}"]
        out += [["verify", *base, "--grid", "9x9"],
                ["verify", *base, "--grid", "5x7"],
                ["verify", *base, "--grid", "9x9", "--format", "csv"]]
        out += [["hypothesis", *base, "--grid", "9x9", "--theorem", t]
                for t in ("1.2", "1.3", "3.1", "cor")]
        tilde = ["--tilde"] if sid in MINIMAL_IDS else []
        out += [["field", *base, "--grid", "7x7", "--quantity", q]
                for q in ("K", "normT", "mu_integrand", "residual:pmc", "residual:gauss_equation",
                          "residual:ambient_codazzi", "residual:inverse_operator_codazzi")]
        out += [["field", *base, "--grid", "7x7", "--quantity", q, *tilde]
                for q in ("normS", "detS")]
        codazzi_row = "codazzi_angle" if sid in MINIMAL_IDS else "codazzi_pmc"
        out += [["field", *base, "--grid", "7x7", "--quantity", f"residual:{q}"]
                for q in (codazzi_row, "operator_trace", "operator_norm_det", "simons_sq",
                          "simons_reduced", "simons_log", "metric_change", "t_laplacian",
                          "t_field_grad", "t_field_alpha", "curvature_formula",
                          "mu_consistency")]
        if sid not in dense:
            dense.add(sid)
            out += [["field", *base, "--grid", "65x65", "--quantity", q] for q in ("K", "normT")]
    return out + DENSE + CHECKER_BRANCHES + EXTRA


def _digest(argv: list[str], text: str) -> dict[str, list]:
    """The certified numbers of one report, by name: ``[value, flag]``."""
    out: dict[str, list] = {}
    if not text:
        return out
    if argv[0] == "field":
        for k, row in enumerate(text.splitlines()[1:]):
            out[f"value[{k}]"] = [float(row.rsplit(",", 1)[1]), None]
    elif argv[0] == "verify" and "csv" in argv:
        for row in csv.DictReader(io.StringIO(text)):
            out[row["identity_id"]] = [float(row["max_abs"]), row["passed"] == "True"]
    elif argv[0] in ("verify", "hypothesis"):
        doc = json.loads(text)
        for row in doc["results"]:
            out[row["identity_id"]] = [row["max_abs"], row["passed"]]
        for v in doc["verdicts"]:
            out[f"{v['theorem_id']}.status"] = [None, v["status"]]
            for h in v["hypotheses"]:
                out[f"{v['theorem_id']}.{h['name']}"] = [h["margin"], h["satisfied"]]
            for c in v["conclusion_checked"]:
                out[f"{v['theorem_id']}.{c['claim']}"] = [c["residual"], c["passed"]]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_one(argv: list[str]) -> list:
    from prodsurf import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - recorded, and fails the sweep
            code = f"uncaught {type(exc).__name__}: {exc}"
    text = out.getvalue()
    digest = _digest(argv, text) if isinstance(code, int) else {}
    return [code, _sha(text), _sha(err.getvalue()), digest]


def sweep(path: str) -> int:
    results, by_kind = {}, dict.fromkeys(KINDS, 0.0)
    start = time.perf_counter()
    for argv in commands():
        began = time.perf_counter()
        results[" ".join(argv)] = run_one(argv)
        by_kind[argv[0]] += time.perf_counter() - began
    wall = time.perf_counter() - start
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    raised = [argv for argv, rec in results.items() if not isinstance(rec[0], int)]
    for argv in raised:
        print(f"{argv}: {results[argv][0]}")
    print(f"{len(results)} commands, {len(raised)} uncaught exceptions -> {path}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"sweep peak RSS {peak:.1f} MiB, wall {wall:.1f} s", file=sys.stderr)
    print("sweep wall by kind " + ", ".join(f"{kind} {s:.1f} s" for kind, s in by_kind.items()),
          file=sys.stderr)
    return 1 if raised else 0


def _largest_change(a: dict, b: dict) -> str:
    best, name = 0.0, None
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key][0], b[key][0]
        if x is not None and y is not None and abs(x - y) > best:
            best, name = abs(x - y), key
    if name is None:
        return "no certified number changed"
    return f"{name} {a[name][0]!r} -> {b[name][0]!r} (|change| {best:.3g})"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    changed = 0
    for argv in sorted(a.keys() | b.keys()):
        if argv not in a or argv not in b:
            print(f"ONLY IN {'B' if argv in b else 'A'}: {argv}")
            continue
        ra, rb = a[argv], b[argv]
        if ra[:3] == rb[:3]:
            continue
        notes = []
        if ra[0] != rb[0]:
            notes.append(f"EXIT {ra[0]} -> {rb[0]}")
        flags = sorted(k for k in ra[3].keys() | rb[3].keys()
                       if ra[3].get(k, [None, None])[1] != rb[3].get(k, [None, None])[1])
        if flags:
            notes.append(f"FLAGS {flags}")
        changed += bool(notes)
        if ra[2] != rb[2]:
            notes.append("stderr moved")
        print(f"{argv}: {_largest_change(ra[3], rb[3])}" + "".join(f"; {n}" for n in notes))
    identical = sum(1 for k in a.keys() & b.keys() if a[k][:3] == b[k][:3])
    print(f"{identical} of {len(a.keys() & b.keys())} common commands identical; "
          f"{changed} changed an exit code or a flag")
    return 1 if changed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", nargs="?", help="where to write the sweep")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweeps instead of running one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.output:
        parser.error("give an output path or --compare A B")
    return sweep(args.output)


if __name__ == "__main__":
    sys.exit(main())
