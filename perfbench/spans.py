"""Spans and counters recorded from outside the avgproc package.

``Probe.install`` replaces public functions of ``src/avgproc`` with wrappers.
Each wrapper is bound on the defining module and on every module, dict or
list that holds the same function object (``from .walks import ...``,
``cli.KERNELS``, ``acceptance.CRITERIA``), so a nested call through any of
them becomes a child span. Spans stay in memory and are written once, after
the workload body.

With ``timed=False`` only the capture wrappers are installed: they record
return values the correctness checks need and take no clock readings.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# cli imports every other module, so all of them are in sys.modules
from avgproc import cli, walks  # noqa: F401
from avgproc.simulate import EventSchedule

# Orthant DP passes: function name -> start distribution of the walker.
ORTHANT_PASSES = {
    "return_sequence": "origin",
    "first_return_sequence": "origin",
    "sphere_taboo_sequence": "sphere",
    "sphere_first_return_sequence": "sphere",
}

KERNEL_BUILDERS = ("srw_kernel", "avg_difference_kernel", "potlach_kernels",
                   "difference_kernel_from_pair_rates", "pair_transition_rates")

CRITERIA = {f"criterion_{i}_{tag}": i for i, tag in enumerate(
    ("identities", "closed_form", "first_passage", "asymptotics",
     "poissonized", "simulation", "clt", "potlach"), start=1)}

# Public functions whose results feed the correctness checks, in every run.
CAPTURED = ("series.verify_gf_relations", "series.verify_closed_form_d1",
            "series.verify_potlach_relation", "walks.poissonized_return",
            "asymptotics.alpha_return_total")

# Per-layer metrics and units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "kernels.build_s": "s",
    "walks.orthant_exact_s": "s",
    "walks.orthant_exact_steps": "count",
    "walks.orthant_float_d1_s": "s",
    "walks.orthant_float_d2_s": "s",
    "walks.orthant_float_d3_s": "s",
    "walks.orthant_float_steps": "count",
    "walks.orthant_float_cell_updates": "count",
    "walks.srw_closed_form_s": "s",
    "asymptotics.alpha_s": "s",
    "walks.poissonized_s": "s",
    "walks.poissonized_calls": "count",
    "walks.heat_kernel_s": "s",
    "walks.heat_kernel_steps": "count",
    "series.identities_s": "s",
    "series.identities_checked": "count",
    "series.identities_failed": "count",
    "simulate.lockstep_s": "s",
    "simulate.events": "count",
    "simulate.events_per_s": "1/s",
    "simulate.padding_useful_frac": "frac",
    "simulate.exact_s": "s",
    "stats.moments_s": "s",
    "stats.mean_field_s": "s",
    "stats.clt_s": "s",
    **{f"acceptance.c{i}_s": "s" for i in range(1, 9)},
    "acceptance.gates_failed": "count",
    "cli.run_s": "s",
    "reporting.render_s": "s",
    "reporting.bytes": "count",
}

# Metrics derived from call arguments after the body rather than counted.
COMPUTED = ("walks.orthant_float_cell_updates", "walks.heat_kernel_steps",
            "simulate.events", "simulate.padding_useful_frac")


def _orthant_span(kernel, n_max, mode="exact", *_, **__):
    return ("walks.orthant_exact" if mode == "exact"
            else f"walks.orthant_float_d{kernel.dimension}")


def _simulate_span(config):
    return "simulate.lockstep" if config.mode == "float" else "simulate.exact"


def _fixed(name):
    return lambda *_, **__: name


def _span_namers() -> dict[str, object]:
    """'module.function' -> callable(*args, **kwargs) giving the span name."""
    namers = {f"kernels.{f}": _fixed("kernels.build") for f in KERNEL_BUILDERS}
    namers.update({f"walks.{f}": _orthant_span
                   for f in (*ORTHANT_PASSES, "first_passage_sequences")})
    namers.update({
        "walks.srw_return_sequence_float": _fixed("walks.srw_closed_form"),
        "walks.poissonized_return": _fixed("walks.poissonized"),
        "walks.heat_kernel": _fixed("walks.heat_kernel"),
        "asymptotics.alpha_return_total": _fixed("asymptotics.alpha"),
        "simulate.simulate": _simulate_span,
        "stats.estimate_moments": _fixed("stats.moments"),
        "stats.estimate_mean_field": _fixed("stats.mean_field"),
        "stats.clt_statistic": _fixed("stats.clt"),
        "reporting.render_csv": _fixed("reporting.render"),
        "reporting.write_csv": _fixed("reporting.render"),
        "cli.run": _fixed("cli.run"),
    })
    for fn in ("gf_tables", "verify_gf_relations", "verify_closed_form_d1",
               "verify_potlach_relation"):
        namers[f"series.{fn}"] = _fixed("series.identities")
    for fn, i in CRITERIA.items():
        namers[f"acceptance.{fn}"] = _fixed(f"acceptance.c{i}")
    return namers


class Probe:
    """In-memory spans, counters and captured results of one workload run."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, child_ns]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)
        self.float_passes: list[tuple] = []   # (n_max, d, start, window_radius)
        self.heat_calls: list[tuple] = []     # (t, tol)
        self.float_sims: list = []            # ExperimentConfig of lockstep runs

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        namers = _span_namers() if self.timed else {}
        targets = set(namers) | set(CAPTURED)
        modules = [m for name, m in sys.modules.items()
                   if name == "avgproc" or name.startswith("avgproc.")]
        replace = {}  # id(original) -> (original, wrapper)
        for target in sorted(targets):
            mod_name, fn_name = target.split(".")
            fn = getattr(sys.modules[f"avgproc.{mod_name}"], fn_name)
            replace[id(fn)] = (fn, self._wrap(fn, target, namers.get(target)))

        def swap(container, key, value):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                container[key] = hit[1]

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                swap(vars(mod), key, value)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        swap(value, k, v)
                elif isinstance(value, list):
                    for k, v in enumerate(value):
                        swap(value, k, v)

    def _wrap(self, fn, target: str, namer):
        sig = inspect.signature(fn)
        observe = self._observer(target)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if namer is None:
                result = fn(*args, **kwargs)
            else:
                span = [namer(*args, **kwargs), 0, 0, stack[-1] if stack else -1, 0]
                stack.append(len(spans))
                spans.append(span)
                span[1] = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter_ns()
                    stack.pop()
                    if span[3] >= 0:
                        spans[span[3]][4] += span[2] - span[1]
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(result, bound.arguments)
            return result

        return wrapper

    def _observer(self, target: str):
        fn_name = target.split(".")[1]
        capture = target in CAPTURED
        if not self.timed:
            return (lambda result, a: self.captured[fn_name].append(result)) if capture else None

        def observe(result, a):
            if capture:
                self.captured[fn_name].append(result)
            if fn_name in ORTHANT_PASSES:
                exact = a["mode"] == "exact"
                self.counts["orthant_exact_steps" if exact else "orthant_float_steps"] += a["n_max"]
                if not exact:
                    self.float_passes.append((a["n_max"], a["kernel"].dimension,
                                              ORTHANT_PASSES[fn_name], a.get("window_radius")))
            elif fn_name == "poissonized_return":
                self.counts["poissonized_calls"] += 1
            elif fn_name == "heat_kernel":
                self.heat_calls.append((a["t"], a["tol"]))
            elif fn_name.startswith("verify_"):
                reports = result if isinstance(result, list) else [result]
                self.counts["identities_checked"] += len(reports)
                self.counts["identities_failed"] += sum(not r.ok for r in reports)
            elif fn_name == "simulate" and a["config"].mode == "float":
                self.float_sims.append(a["config"])
            elif fn_name == "render_csv":
                self.counts["reporting_bytes"] += len(result.encode())
            elif fn_name in CRITERIA:
                self.counts["gates_failed"] += not result.passed

        return observe

    # -- results ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "child_ns"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; call after the body, outside every timed span."""
        self_s, incl_s = defaultdict(float), defaultdict(float)
        for name, start, end, _, child in self.spans:
            self_s[name] += (end - start - child) / 1e9
            incl_s[name] += (end - start) / 1e9

        events, padded = self._count_events()
        lockstep_s = self_s["simulate.lockstep"]
        c = self.counts
        out = {
            "kernels.build_s": self_s["kernels.build"],
            "walks.orthant_exact_s": self_s["walks.orthant_exact"],
            "walks.orthant_exact_steps": c["orthant_exact_steps"],
            **{f"walks.orthant_float_d{d}_s": self_s[f"walks.orthant_float_d{d}"]
               for d in (1, 2, 3)},
            "walks.orthant_float_steps": c["orthant_float_steps"],
            "walks.orthant_float_cell_updates": sum(
                _cell_updates(*p) for p in self.float_passes),
            "walks.srw_closed_form_s": self_s["walks.srw_closed_form"],
            "asymptotics.alpha_s": self_s["asymptotics.alpha"],
            "walks.poissonized_s": self_s["walks.poissonized"],
            "walks.poissonized_calls": c["poissonized_calls"],
            "walks.heat_kernel_s": self_s["walks.heat_kernel"],
            "walks.heat_kernel_steps": sum(
                walks.required_poisson_order(t / 2.0, tol) if t > 0 else 0
                for t, tol in self.heat_calls),
            "series.identities_s": self_s["series.identities"],
            "series.identities_checked": c["identities_checked"],
            "series.identities_failed": c["identities_failed"],
            "simulate.lockstep_s": lockstep_s,
            "simulate.events": events,
            "simulate.events_per_s": events / lockstep_s if lockstep_s else 0.0,
            "simulate.padding_useful_frac": events / padded if padded else 0.0,
            "simulate.exact_s": self_s["simulate.exact"],
            "stats.moments_s": self_s["stats.moments"],
            "stats.mean_field_s": self_s["stats.mean_field"],
            "stats.clt_s": self_s["stats.clt"],
            **{f"acceptance.c{i}_s": incl_s[f"acceptance.c{i}"] for i in range(1, 9)},
            "acceptance.gates_failed": c["gates_failed"],
            "cli.run_s": self_s["cli.run"],
            "reporting.render_s": self_s["reporting.render"],
            "reporting.bytes": c["reporting_bytes"],
        }
        return out

    def _count_events(self) -> tuple[int, int]:
        """Events of every lockstep run, replayed from the same spawned seeds.

        Returns (events, trials x largest per-trial event count), summed over
        simulate calls; the second is the size of the padded mark matrix.
        """
        events = padded = 0
        for cfg in self.float_sims:
            box = cfg.box
            counts = [len(EventSchedule.sample(np.random.default_rng(ss), box,
                                               cfg.t, cfg.dynamics))
                      for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials)]
            events += sum(counts)
            padded += cfg.trials * max(counts)
        return events, padded


def _cell_updates(n_max: int, d: int, start: str, window_radius) -> int:
    """Cells the float orthant DP writes over n_max steps (its window growth)."""
    rmax = max(window_radius or walks.float_window_radius(n_max, d), 2)
    r, cells = (0 if start == "origin" else 1), 0
    for _ in range(n_max):
        r = min(max(r + 1, 2), rmax)
        cells += (r + 1) ** d
    return cells

