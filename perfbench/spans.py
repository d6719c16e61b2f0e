"""Outside-in tracer: spans around bernray's public functions.

The tracer wraps functions from outside the package. A name imported with
`from .cone import margin_rays` is bound again inside `cli`, `solvers` and
`bounds`, so each wrapper replaces the function at every module attribute
that holds it, not only in its home module. Calls inside the home module
look the name up in the same module globals and are wrapped too.

Spans stay in memory as [name, start, end, parent, command, counts] lists and
are written out when the run ends. A span's self time is its duration minus
the durations of its direct children. A target that no longer exists (a later
change removed or renamed it) is listed as absent and traced no further.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

# (module, function, layer metric that receives its self time)
TARGETS = (
    ("report", "parse_problem_spec", "report.parse_s"),
    ("report", "vector_field", "report.render_s"),
    ("report", "rational_field", "report.render_s"),
    ("report", "write_json_atomic", "report.write_s"),
    ("report", "_write_atomic", "report.write_s"),
    ("report", "rays_csv_text", "report.write_s"),
    ("report", "sample_csv_text", "report.write_s"),
    ("cone", "margin_rays", "cone.rays_s"),
    ("cone", "extreme_rays", "cone.rays_s"),
    ("cone", "moment_map", "cone.moment_map_s"),
    ("bounds", "pair_bounds", "bounds.pair_bounds_s"),
    ("simplex", "solve_lp", "simplex.lp_s"),
    ("solvers", "fit_lambda", "solvers.fit_s"),
    ("solvers", "fit_density_direct", "solvers.fit_s"),
    ("solvers", "minimize_higher_moments", "solvers.fit_s"),
    ("solvers", "nearest_feasible_correlation", "solvers.fw_s"),
    ("sampling", "sample", "sampling.sample_s"),
    ("sampling", "empirical_moments", "sampling.moments_s"),
)

ROOT = "cli.main"
ROOT_METRIC = "cli.self_s"


def _lp_counts(args, result):
    rows = args[0]
    return {
        "simplex.lp_calls": 1,
        "simplex.pivots": result.pivots,
        "simplex.lp_cells": len(rows) * len(rows[0]),
    }


# counters read from a traced call's arguments and result
COUNTERS = {
    "cone.extreme_rays": lambda args, result: {"cone.rays_out": result.n_rays},
    "simplex.solve_lp": _lp_counts,
    "solvers.nearest_feasible_correlation": lambda args, result: {"solvers.fw_iterations": result.iterations},
    "sampling.sample": lambda args, result: {"sampling.draws": result.n},
}

TIME_METRICS = (
    ROOT_METRIC,
    "report.parse_s",
    "report.render_s",
    "report.write_s",
    "cone.rays_s",
    "cone.moment_map_s",
    "bounds.pair_bounds_s",
    "simplex.lp_s",
    "solvers.fit_s",
    "solvers.fw_s",
    "sampling.sample_s",
    "sampling.moments_s",
)
COUNT_METRICS = (
    "cone.rays_out",
    "simplex.lp_calls",
    "simplex.pivots",
    "simplex.lp_cells",
    "solvers.fw_iterations",
    "sampling.draws",
)

METRIC_OF = {f"{module}.{name}": metric for module, name, metric in TARGETS}
METRIC_OF[ROOT] = ROOT_METRIC


class Tracer:
    """Records spans for calls into the wrapped functions."""

    package = "bernray"

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.command: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, command: str):
        """The span of one whole command; every other span nests inside."""
        self.command = command
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.command = None

    def _wrap(self, name: str, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                try:
                    self.spans[index][5] = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    if f"{name} counters" not in self.absent:
                        self.absent.append(f"{name} counters")
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for module_name, func_name, _ in targets:
            home = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            name = f"{module_name}.{func_name}"
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], scale: dict[str, float] | None = None) -> dict[str, float]:
    """Per-layer self times (s) and counters summed over the spans. A self
    time is multiplied by scale[command] when a scale is given."""
    out = {metric: 0.0 for metric in TIME_METRICS}
    out.update({metric: 0 for metric in COUNT_METRICS})
    for span, own in zip(spans, self_times(spans)):
        metric = METRIC_OF.get(span[0])
        if metric is not None:
            out[metric] += own * (scale[span[4]] if scale else 1.0)
        for key, value in (span[5] or {}).items():
            out[key] += value
    return out


def layer_totals(metrics: dict[str, float]) -> dict[str, float]:
    """Self time per layer (the part of the metric name before the dot)."""
    totals: dict[str, float] = {}
    for metric in TIME_METRICS:
        layer = metric.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + metrics[metric]
    return totals


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
