"""Spans and counters wrapped around prodsurf's public functions from outside.

Nothing in the package changes.  ``Tracer.install`` replaces each traced
function wherever callers look it up: the defining module and every module
of the package that bound the same object with ``from .x import f``.
Jet products, compositions and flat inner products are counted, not
spanned, because a suite makes about a million of them.  ``uninstall``
puts every original back.

A span is ``(name, start, end, parent, op)``; a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "prodsurf"
# (module, function) pairs recorded as spans; the span name is "<module>.<function>".
SPANNED = [
    ("catalog", "instantiate"),
    ("geometry", "evaluate_chart"),
    ("geometry", "normal_frame_jets"),
    ("geometry", "normal_connection_derivative"),
    ("codazzi", "pmc_operator_jets"),
    ("codazzi", "angle_operator_jets"),
    ("codazzi", "codazzi_residual"),
    ("codazzi", "grad_tensor_norm_sq"),
    ("codazzi", "simons_quadratic_residual"),
    ("codazzi", "simons_reduced_residual"),
    ("codazzi", "simons_log_residual"),
    ("codazzi", "new_metric_jets"),
    ("codazzi", "metric_change"),
    ("codazzi", "inverse_codazzi_residual"),
    ("identities", "run_suite"),
    ("identities", "classify_minimality"),
    ("identities", "pmc_residual"),
    ("identities", "mu_estimate"),
    ("theorems", "run_checker"),
    ("theorems", "check_codazzi_dichotomy"),
    ("theorems", "check_pmc_flatness"),
    ("theorems", "check_pmc_flatness_mu"),
    ("theorems", "check_minimal_angle"),
]
# (module, function) pairs only counted.
COUNTED = [("jets", "_compose"), ("spaceforms", "flat_inner")]


class Tracer:
    """Owns the spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name, fn, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if name_of is None else name_of(args, kwargs)
                spans[idx] = (label, start, end, parent, self.op)

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _grid_report(self, fn):
        """Span named after the report row; counts attempted and skipped points."""
        counts = self.counts
        spanned = self._spanned(None, fn, lambda a, k: f"identities.{a[1]}")

        def wrapper(spec, identity_id, f, nu, nv, *rest):
            report = spanned(spec, identity_id, f, nu, nv, *rest)
            counts["identities.points_attempted"] += nu * nv
            if report is None:
                counts["identities.points_skipped"] += nu * nv
            else:
                for warning in report.warnings:
                    if warning.startswith("skipped at "):
                        counts["identities.points_skipped"] += int(warning.split()[2])
            return report

        return wrapper

    def _field_for(self, fn):
        """Span each operator field's memoized ``matrix_at`` and count its hits.

        A hit builds nothing, so it opens no span below its own.
        """
        counts, spans, spanned = self.counts, self.spans, self._spanned

        def wrapper(spec, kind):
            op_field = fn(spec, kind)
            inner = spanned("codazzi.matrix_at", op_field.matrix_at)

            def matrix_at(u, v):
                before = len(spans)
                s = inner(u, v)
                counts["codazzi.matrix_at.lookups"] += 1
                if len(spans) == before + 1:
                    counts["codazzi.matrix_at.hits"] += 1
                return s

            op_field.matrix_at = matrix_at
            return op_field

        return wrapper

    # -- patching ---------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, wrapped) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def _replace_method(self, cls, attrs, make) -> None:
        original = getattr(cls, attrs[0])
        wrapped = make(original)
        for attr in attrs:
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapped)

    def install(self) -> None:
        mod = lambda short: sys.modules[f"{PACKAGE}.{short}"]  # noqa: E731
        for short, fn_name in SPANNED:
            original = getattr(mod(short), fn_name)
            self._replace_everywhere(original,
                                     self._spanned(f"{short}.{fn_name}", original))
        for short, fn_name in COUNTED:
            original = getattr(mod(short), fn_name)
            key = {"_compose": "jets.compose"}.get(fn_name, f"{short}.{fn_name}")
            self._replace_everywhere(original, self._counted(key, original))
        grid_report = mod("identities").grid_report
        self._replace_everywhere(grid_report, self._grid_report(grid_report))
        field_for = mod("codazzi").field_for
        self._replace_everywhere(field_for, self._field_for(field_for))
        self._replace_method(mod("jets").Jet2, ("__mul__", "__rmul__"),
                             lambda fn: self._counted("jets.mul", fn))
        self._replace_method(mod("geometry").SurfaceSpec, ("geom",),
                             lambda fn: self._spanned("geometry.geom", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def run_op(self, op_index: int, fn, *args):
        """Run one operation as a root span "cli.main" with the wrappers installed."""
        self.op = op_index
        try:
            self.install()
            return self._spanned("cli.main", fn)(*args)
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------------

    def span_totals(self):
        """Per name: (count, total seconds, self seconds); plus top-level seconds."""
        child = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        top_level = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            entry = totals[name]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[idx]
            if parent >= 0 and self.spans[parent][3] < 0:
                top_level += dur
        return totals, top_level

    def write(self, path, header: dict) -> None:
        """Write the header and every span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")
