"""Span/counter tracer wrapped around the program's public layer functions.

Each layer is a module of the ``bqaoa`` package.  ``patched`` swaps a
function for a wrapper under every name the package binds it to, because
callers look functions up by name: ``optimize`` and ``mapper`` import
``lower_circuit`` and ``select`` into their own namespaces.  The tracer
keeps spans (name, start, end, parent span, run id) and counters in memory;
``Tracer.write`` writes them out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.  The tracing
overhead of a pass is its span count times ``wrapper_cost``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Public functions timed per layer; ``cli`` is a thin front end and is left out.
LAYER_FUNCTIONS = {
    "optimize": (
        "run_benchmark",
        "optimize_depth_sweep",
        "optimize_params",
        "exact_expectation_evaluator",
        "evaluate_noisy",
        "select_chain_for",
        "runs_to_csv",
    ),
    "qaoa": ("build_swap_network", "metrics", "optimal_cost"),
    "circuit": ("statevector",),
    "sim": (
        "evolve",
        "sample",
        "mitigate_readout",
        "remap_counts",
        "ideal_distribution",
        "composite_channel",
        "choi_of",
        "process_fidelity",
        "qpt_infidelities",
    ),
    "lower": ("lower_circuit",),
    "mapper": ("select",),
    "device": ("load_device",),
}

#: Name given to the evaluator closures that exact_expectation_evaluator returns.
EVALUATE = "optimize.evaluate"


@contextlib.contextmanager
def patched(replacements: dict[tuple[str, str], object]):
    """Rebind ``bqaoa.<module>.<name>`` to a wrapper wherever the package binds it.

    ``replacements`` maps (module, name) to ``make(original) -> wrapper``.
    Every ``bqaoa`` module attribute that is the original object is rebound,
    and all of them are restored on exit.
    """
    modules = [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "bqaoa" or key.startswith("bqaoa."))
    ]
    undo: list[tuple[object, str, object]] = []
    try:
        for (module_name, name), make in replacements.items():
            original = getattr(sys.modules[f"bqaoa.{module_name}"], name)
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: [name, start, end, parent index or None, error type or None]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def span(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            record[4] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, args, kwargs)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument(self):
        """Context manager tracing every function in LAYER_FUNCTIONS."""
        replacements = {}
        for module_name, names in LAYER_FUNCTIONS.items():
            for name in names:
                key = f"{module_name}.{name}"
                if key == "optimize.exact_expectation_evaluator":
                    replacements[(module_name, name)] = self._wrap_factory
                else:
                    replacements[(module_name, name)] = (
                        lambda fn, key=key: self.wrap(key, fn, _OBSERVERS.get(key))
                    )
        return patched(replacements)

    def _wrap_factory(self, factory):
        def wrapper(*args, **kwargs):
            evaluate = self.span(
                "optimize.exact_expectation_evaluator", factory, args, kwargs
            )
            return self.wrap(EVALUATE, evaluate)

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span and the counters as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, error) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "error": error,
                        }
                    )
                    + "\n"
                )
            out.write(json.dumps({"run": self.run_id, "counters": self.counters}) + "\n")

    # --- aggregation ---

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total duration and total self time."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
        return calls, total, self_time

    def nested_count(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def errors(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[4])

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)


def _count_units_lowered(counters, args, lowered) -> None:
    counters["lower.units_lowered"] += len(lowered.units)


def _count_evolve_units(counters, args, rho) -> None:
    counters["sim.evolve_units"] += len(args[0].units)


def _count_budget(counters, args, result) -> None:
    counters["optimize.budget_exhausted"] += int(result.budget_exhausted)


def _count_feasible(counters, args, result) -> None:
    counters["qaoa.feasible_sum"] += result.feasible_fraction


def _count_mitigation(counters, args, result) -> None:
    quasi = result[0].values()
    counters["sim.quasi_positive"] += sum(v for v in quasi if v >= 0)
    counters["sim.quasi_negative"] += sum(-v for v in quasi if v < 0)


_OBSERVERS = {
    "lower.lower_circuit": _count_units_lowered,
    "sim.evolve": _count_evolve_units,
    "optimize.optimize_params": _count_budget,
    "qaoa.metrics": _count_feasible,
    "sim.mitigate_readout": _count_mitigation,
}


def wrapper_cost() -> float:
    """Seconds a tracing wrapper adds to one call: the median of five timings
    of 20 000 calls of a no-op, wrapped minus bare."""

    def noop():
        return None

    calls = 20_000
    samples = []
    for _ in range(5):
        wrapped = Tracer("wrapper-cost").wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        samples.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(samples)


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float) -> dict[str, float]:
    """Per-pass per-layer figures from the spans of ``passes`` traced passes.

    ``traced_wall`` is the summed wall time of those passes.  Counts and
    times are per pass; ``_us`` figures are per call or per unit.
    """
    calls, total, self_time = tracer.totals()
    c = tracer.counters

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evaluations = calls[EVALUATE]
    evolve_units = c["sim.evolve_units"]
    qpt_channel = total["sim.composite_channel"] + total["sim.choi_of"] + total[
        "sim.process_fidelity"
    ]
    return {
        "optimize.train_s": per_pass(total["optimize.optimize_depth_sweep"]),
        "optimize.evaluations": per_pass(evaluations),
        "optimize.eval_us": ratio(total[EVALUATE], evaluations) * 1e6,
        "optimize.search_self_s": per_pass(self_time["optimize.optimize_params"]),
        "optimize.budget_exhausted": per_pass(c["optimize.budget_exhausted"]),
        "optimize.noisy_eval_calls": per_pass(calls["optimize.evaluate_noisy"]),
        "optimize.noisy_eval_s": per_pass(total["optimize.evaluate_noisy"]),
        "optimize.csv_s": per_pass(total["optimize.runs_to_csv"]),
        "circuit.statevector_calls": per_pass(calls["circuit.statevector"]),
        "circuit.statevector_s": per_pass(total["circuit.statevector"]),
        "qaoa.build_calls": per_pass(calls["qaoa.build_swap_network"]),
        "qaoa.build_s": per_pass(total["qaoa.build_swap_network"]),
        "qaoa.metrics_calls": per_pass(calls["qaoa.metrics"]),
        "qaoa.metrics_s": per_pass(total["qaoa.metrics"]),
        "qaoa.optimal_cost_calls": per_pass(calls["qaoa.optimal_cost"]),
        "qaoa.feasible_frac": ratio(c["qaoa.feasible_sum"], calls["qaoa.metrics"]),
        "sim.ideal_distribution_s": per_pass(total["sim.ideal_distribution"]),
        "sim.evolve_calls": per_pass(calls["sim.evolve"]),
        "sim.evolve_s": per_pass(total["sim.evolve"]),
        "sim.evolve_units": per_pass(evolve_units),
        "sim.evolve_us_per_unit": ratio(total["sim.evolve"], evolve_units) * 1e6,
        "sim.sample_s": per_pass(total["sim.sample"]),
        "sim.mitigate_s": per_pass(total["sim.mitigate_readout"]),
        "sim.remap_s": per_pass(total["sim.remap_counts"]),
        "sim.mitigation_kept_frac": ratio(
            c["sim.quasi_positive"], c["sim.quasi_positive"] + c["sim.quasi_negative"]
        ),
        "sim.composite_channel_s": per_pass(total["sim.composite_channel"]),
        "sim.choi_calls": per_pass(calls["sim.choi_of"]),
        "sim.choi_s": per_pass(total["sim.choi_of"]),
        "sim.process_fidelity_s": per_pass(total["sim.process_fidelity"]),
        "mapper.select_calls": per_pass(calls["mapper.select"]),
        "mapper.select_s": per_pass(total["mapper.select"]),
        "mapper.chains_scored": per_pass(
            tracer.nested_count("lower.lower_circuit", "mapper.select")
        ),
        "mapper.infeasible": per_pass(tracer.errors("mapper.select")),
        "lower.lower_calls": per_pass(calls["lower.lower_circuit"]),
        "lower.lower_s": per_pass(total["lower.lower_circuit"]),
        "lower.units_lowered": per_pass(c["lower.units_lowered"]),
        "trace.coverage_frac": ratio(tracer.top_level_time(), traced_wall),
        "trace.train_frac": ratio(total["optimize.optimize_depth_sweep"], traced_wall),
        "trace.evolve_frac": ratio(total["sim.evolve"], traced_wall),
        "trace.qpt_channel_frac": ratio(qpt_channel, traced_wall),
    }
