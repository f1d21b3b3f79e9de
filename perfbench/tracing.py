"""Layer spans for the traced run, recorded from outside the package.

``Tracer.installed()`` wraps the public functions of each layer and rebinds
every name under which a ``bayesmar`` module holds them, so calls between
modules go through the wrappers too.  Spans are (name, start, end, parent)
tuples kept in memory and written out when the run ends.  A span's self time
is its duration minus its children's.

Run as a script, this file is the traced ``bayesmar`` CLI child:

    PYTHONPATH=src python perfbench/tracing.py SPANS.json forecast --input ...
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# Public functions timed per layer; a layer is a module of the package.
TARGETS = {
    "core": ("lag_design",),
    "mle_fit": ("fit_l1", "fit_ols"),
    "order_select": ("build_ensemble",),
    "mcmc": ("run_mh",),
    "forecast": (
        "sample_paths",
        "bma_forecast",
        "forecast_levels",
        "per_order_forecasts",
        "fit_and_forecast",
    ),
    "scoring": ("crps_sample",),
    "harness": ("simulate_series", "run_backtest", "run_mse_study", "run_order_study"),
    "cli": ("main", "read_series_csv"),
}
LAYERS = tuple(TARGETS)
HARNESS_ENTRY = ("harness.run_backtest", "harness.run_mse_study", "harness.run_order_study")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"mcmc.run_mh.{k}", u) for k, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [
        ("mcmc.iterations", "count"),
        ("mcmc.us_per_iteration", "us"),
        ("mcmc.acceptance_mean", "ratio"),
        ("mcmc.chains_out_of_band", "count"),
        ("mle_fit.fit_l1.calls", "count"),
        ("mle_fit.fit_l1.total_s", "s"),
        ("mle_fit.fit_l1.median_ms", "ms"),
        ("mle_fit.fit_ols.calls", "count"),
        ("mle_fit.fit_ols.total_s", "s"),
        ("order_select.build_ensemble.calls", "count"),
        ("order_select.build_ensemble.total_s", "s"),
        ("order_select.build_ensemble.self_s", "s"),
        ("forecast.per_order_forecasts.self_s", "s"),
        ("forecast.fit_and_forecast.self_s", "s"),
    ]
    + [
        (f"forecast.{f}.{k}", u)
        for f in ("sample_paths", "bma_forecast", "forecast_levels")
        for k, u in (("calls", "count"), ("total_s", "s"))
    ]
    + [
        ("forecast.path_steps", "count"),
        ("scoring.crps_sample.calls", "count"),
        ("scoring.crps_sample.total_s", "s"),
        ("core.lag_design.calls", "count"),
        ("core.lag_design.total_s", "s"),
        ("harness.simulate_series.total_s", "s"),
        ("harness.self_s", "s"),
        ("cli.import_s", "s"),
        ("cli.read_series_csv.total_s", "s"),
        ("cli.main.self_s", "s"),
    ]
    + [(f"share.{layer}", "ratio") for layer in LAYERS + ("untraced",)]
    + [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.spans", "count")]
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.iterations = 0
        self.path_steps = 0
        self.acceptance: list[float] = []
        self.out_of_band = 0
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn, on_result=None):
        name = f"{layer}.{fn.__name__}"

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else None))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, self.spans[index][3])
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _count_chain(self, signature: inspect.Signature):
        def on_result(args, kwargs, draws) -> None:
            lo, hi = signature.bind(*args, **kwargs).arguments["config"].target_band
            self.iterations += draws.n_total
            self.acceptance.append(draws.acceptance_rate)
            self.out_of_band += not lo <= draws.acceptance_rate <= hi

        return on_result

    def _count_paths(self, args, kwargs, paths) -> None:
        self.path_steps += paths.size

    @contextmanager
    def installed(self):
        """Rebind every wrapped public name in every loaded ``bayesmar`` module.

        Layers not imported yet (``cli`` in an in-process run) are left alone.
        """
        package = [m for k, m in sys.modules.items() if k == "bayesmar" or k.startswith("bayesmar.")]
        restore = []
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"bayesmar.{layer}")
            for fname in names if module is not None else ():
                original = getattr(module, fname)
                hook = None
                if fname == "run_mh":
                    hook = self._count_chain(inspect.signature(original))
                elif fname == "sample_paths":
                    hook = self._count_paths
                wrapped = self._wrap(layer, original, hook)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            restore.append((holder, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "iterations": self.iterations,
            "path_steps": self.path_steps,
            "acceptance": self.acceptance,
            "out_of_band": self.out_of_band,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    def merge(self, path) -> None:
        """Append the spans and counters a traced child process wrote."""
        with open(path) as fh:
            payload = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent in payload["spans"]:
            self.spans.append((name, start, end, None if parent is None else parent + offset))
        self.iterations += payload["iterations"]
        self.path_steps += payload["path_steps"]
        self.acceptance.extend(payload["acceptance"])
        self.out_of_band += payload["out_of_band"]

    def layer_metrics(self, traced_s: float, untraced_s: float, import_s: float) -> dict[str, float]:
        """Every per-layer metric from the spans; ``traced_s``/``untraced_s`` are job wall times."""
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_s[i]
            durations[name].append(end - start)
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value

        m: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            parts = metric.rsplit(".", 1)
            if parts[1] == "calls":
                m[metric] = calls[parts[0]]
            elif parts[1] == "total_s":
                m[metric] = total[parts[0]]
            elif parts[1] == "self_s":
                m[metric] = self_s[parts[0]]
        fit_l1 = durations["mle_fit.fit_l1"]
        m["mle_fit.fit_l1.median_ms"] = 1e3 * statistics.median(fit_l1) if fit_l1 else 0.0
        m["mcmc.iterations"] = self.iterations
        run_mh_s = total["mcmc.run_mh"]
        m["mcmc.us_per_iteration"] = 1e6 * run_mh_s / self.iterations if self.iterations else 0.0
        m["mcmc.acceptance_mean"] = statistics.fmean(self.acceptance) if self.acceptance else 0.0
        m["mcmc.chains_out_of_band"] = self.out_of_band
        m["forecast.path_steps"] = self.path_steps
        m["harness.self_s"] = sum(self_s[n] for n in HARNESS_ENTRY)
        m["cli.import_s"] = import_s
        for layer in LAYERS:
            m[f"share.{layer}"] = layer_self[layer] / traced_s
        m["share.untraced"] = 1.0 - sum(layer_self.values()) / traced_s
        m["trace.overhead_s"] = traced_s - untraced_s
        m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        m["trace.spans"] = len(self.spans)
        return m


def _traced_cli() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("bayesmar.cli")
    tracer.spans.append(("cli.import", start, time.perf_counter(), None))
    with tracer.installed():
        code = cli.main(argv)
    tracer.dump(span_file)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli())
