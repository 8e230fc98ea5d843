"""Counting and tracing wrappers around the public entry points of each hslag layer.

The benchmark patches module and class attributes from its own files; the
program itself carries no instrumentation.  A function imported by name into
several modules (``graph_volume_and_gradient`` lives in ``weinstein`` and is
imported into ``reduction`` and ``operators``) is replaced in every module that
binds it, so calls through any of those names are seen.

Untraced runs install only the call counter on ``graph_volume_and_gradient``,
which the ``volume_evals`` metric needs and which also samples the machine's
speed (``tick``, see ``speed.py``).  Traced runs wrap every layer below
and keep one span per call in memory: name, start, end, parent span, run id
and operation index.  A span's self time is its duration minus the time its
child spans cover.

Which end-to-end metric (BENCHMARK.json) each layer should move, and where:

- ambient.metric_value, ambient.metric_derivative (SymplecticExpMetric):
  op_ms on locate and transverse; never called on spectrum.
- weinstein.volume_gradient: op_ms on every workload, and setup_s on locate
  and transverse through the complex-step operator columns.
- weinstein.volume (value only, through functional_F): op_ms and
  volume_evals on locate; never called on transverse.
- operators.assemble_flat_operator, operators.eigensolve: setup_s on locate
  and transverse; op_ms and peak_rss_mb on spectrum.
- reduction.build_context: setup_s.
- reduction.projected_solve (calls, cold/warm, iterations, contraction
  factor): op_ms and volume_evals on transverse and locate.  repeat_frac:
  volume_evals on locate; zero on transverse, which never repeats a solve.
- reduction.optimize_frame, hessian_K, gradient_K, variation_potential:
  op_ms and volume_evals on locate.
- reduction.second_variation_Q, reduction.geometric_residual,
  geomcore.hs_residual (the certificates): op_ms on locate.
"""

from __future__ import annotations

import functools
import json
import math
import time
from typing import Callable, Dict, List

from hslag import ambient, cli, geomcore, operators, reduction, weinstein

MODULES = (ambient, cli, geomcore, operators, reduction, weinstein)

# Functions, named "<defining module>.<function>".  graph_volume_and_gradient
# is wrapped separately and split into weinstein.volume_gradient and
# weinstein.volume by its need_gradient flag.
FUNCTION_LAYERS = (
    "operators.assemble_flat_operator",
    "operators.eigensolve",
    "reduction.build_context",
    "reduction.projected_solve",
    "reduction.optimize_frame",
    "reduction.hessian_K",
    "reduction.gradient_K",
    "reduction.variation_potential",
    "reduction.second_variation_Q",
    "reduction.geometric_residual",
    "geomcore.hs_residual",
)
METHOD_LAYERS = (
    ("ambient.metric_value", ambient.SymplecticExpMetric, "value"),
    ("ambient.metric_derivative", ambient.SymplecticExpMetric, "derivative"),
)
LAYERS = (
    list(FUNCTION_LAYERS)
    + [name for name, _, _ in METHOD_LAYERS]
    + ["weinstein.volume_gradient", "weinstein.volume"]
)


def _needs_gradient(args: tuple, kwargs: dict) -> bool:
    if "need_gradient" in kwargs:
        return bool(kwargs["need_gradient"])
    return bool(args[4]) if len(args) > 4 else True


class SolveStats:
    """Per-solve data read from projected_solve's arguments and result.

    A warm solve starts from a field an earlier solve returned; every other
    solve, from zero or from a given field, is cold.  A repeat has the same
    t, frame and initial field as an earlier solve, so it recomputes a known
    result."""

    def __init__(self) -> None:
        self.cold = 0
        self.warm = 0
        self.iterations = 0
        self.log_ratio_sum = 0.0
        self.ratio_count = 0
        self.repeats = 0
        self._seen = set()
        self._solved: Dict[int, object] = {}  # id -> field, held so ids stay unique

    def record(self, args: tuple, kwargs: dict, state) -> None:
        t, frame = args[1], args[2]
        init = args[3] if len(args) > 3 else kwargs.get("init")
        if init is not None and id(init) in self._solved:
            self.warm += 1
        else:
            self.cold += 1
        key = (
            float(t),
            frame.base_point.tobytes(),
            frame.base_matrix.tobytes(),
            frame.coords.tobytes(),
            None if init is None else hash(init.values.tobytes()),
        )
        if key in self._seen:
            self.repeats += 1
        self._seen.add(key)
        if state is None:
            return
        self._solved[id(state.f)] = state.f
        self.iterations += state.iterations
        history = state.residual_history or []
        for before, after in zip(history, history[1:]):
            if before > 0 and after > 0:
                self.log_ratio_sum += math.log(after / before)
                self.ratio_count += 1

    def contraction_factor(self) -> float:
        if self.ratio_count == 0:
            return 0.0
        return math.exp(self.log_ratio_sum / self.ratio_count)


class Probe:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self, tracing: bool, run_id: str = "") -> None:
        self.tracing = tracing
        self.run_id = run_id
        self.volume_calls = 0
        self.tick: Callable[[], None] = lambda: None  # called on each graph volume evaluation
        self.operation = -1  # index of the operation in progress; -1 is set-up
        self.solves = SolveStats()
        self.spans: List[list] = []  # [name, start, end, parent, run_id, operation]
        self._child_time: List[float] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, func: Callable, args: tuple, kwargs: dict):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run_id, self.operation]
        self.spans.append(span)
        self._child_time.append(0.0)
        self._stack.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self._child_time[parent] += span[2] - span[1]

    def _wrap_volume(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.volume_calls += 1
            self.tick()
            if not self.tracing:
                return func(*args, **kwargs)
            name = "weinstein.volume_gradient" if _needs_gradient(args, kwargs) else "weinstein.volume"
            return self._span(name, func, args, kwargs)

        return wrapper

    def _wrap_layer(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self._span(name, func, args, kwargs)

        return wrapper

    def _wrap_solve(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = None
            try:
                state = self._span("reduction.projected_solve", func, args, kwargs)
                return state
            finally:
                self.solves.record(args, kwargs, state)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch_function(self, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace the function `name` in every module that binds it."""
        home, attr = name.split(".")
        original = getattr(next(m for m in MODULES if m.__name__ == f"hslag.{home}"), attr)
        wrapper = make(original)
        for module in MODULES:
            if module.__dict__.get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def __enter__(self) -> "Probe":
        self._patch_function("weinstein.graph_volume_and_gradient", self._wrap_volume)
        if self.tracing:
            for name in FUNCTION_LAYERS:
                if name == "reduction.projected_solve":
                    self._patch_function(name, self._wrap_solve)
                else:
                    self._patch_function(name, functools.partial(self._wrap_layer, name))
            for name, owner, attr in METHOD_LAYERS:
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap_layer(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """calls and self_s for every layer, zero for layers never entered."""
        totals = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for (name, start, end, *_), child in zip(self.spans, self._child_time):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - child
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id", "operation"],
                    "spans": self.spans,
                },
                handle,
            )

