"""Spans and counters recorded around the compiler's public functions.

The recorder wraps functions from outside: ``install`` swaps each traced
function for a wrapper in every ``qmpc`` module that holds it, and
``Patch.undo`` puts the originals back.  Nothing in the compiler changes.
A span's self time is its duration minus the time its child spans cover;
durations are CPU time, like the benchmark's other timings.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

_clock = time.process_time


class Recorder:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child time]

    @contextlib.contextmanager
    def span(self, name: str):
        self._stack.append([name, _clock(), 0.0])
        try:
            yield
        finally:
            self._close()

    def _close(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = _clock() - start
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _qmpc_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "qmpc" or n.startswith("qmpc.")]


class Patch:
    """Replace functions by wrappers wherever a ``qmpc`` module holds them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        for module in _qmpc_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def undo(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def install(rec: Recorder) -> Patch:
    """Wrap the layer boundaries that ``compile_workloads`` and the checks
    cross; return the patch so that the caller can undo it."""
    from qmpc import circuits, hardware, manager, partition, scheduler, verify

    patch = Patch()

    def count_region_search(args, kwargs, result):
        used = args[2] if len(args) > 2 else kwargs.get("used_qubits", ())
        rec.counts["partition.joint_calls" if used else "partition.alone_calls"] += 1
        rec.counts["partition.candidates"] += len(result)

    def count_plans(args, kwargs, result):
        rec.counts["manager.plans"] += len(result)

    route = scheduler.mapping_transition
    spans = [  # (function, span name, call counter or None)
        (circuits.build_dag, "circuits.build_dag", None),
        (hardware.distance_matrices, "hardware.distance_matrices", "hardware.distance_matrices_calls"),
        (hardware.subgraph_diameter, "hardware.subgraph_diameter", "hardware.subgraph_diameter_calls"),
        (scheduler.initial_mapping, "scheduler.initial_mapping", None),
        (scheduler.merged_circuit, "scheduler.emit", "scheduler.merged_circuit_calls"),
        (scheduler.emit_merged_qasm, "scheduler.emit", None),
        (verify.simulate, "verify.simulate", "verify.simulate_calls"),
    ]
    counters = [
        (partition.allocate_all, "manager.allocate_all_calls"),
        (partition.crosstalk_adjust, "partition.crosstalk_adjust_calls"),
        (scheduler.cost_h, "scheduler.cost_h_calls"),
    ]

    def mapping_transition(*args, **kwargs):
        # trial routes run inside initial_mapping and are timed with it
        if rec.inside("scheduler.initial_mapping"):
            rec.counts["scheduler.trial_routes"] += 1
            schedule = route(*args, **kwargs)
        else:
            with rec.span("scheduler.final_route"):
                schedule = route(*args, **kwargs)
            rec.counts["scheduler.swaps"] += sum(schedule.swap_counts.values())
            rec.counts["scheduler.bridges"] += sum(schedule.bridge_counts.values())
        rec.counts["scheduler.routing_rounds"] += schedule.iterations
        return schedule

    patch.replace(route, mapping_transition)
    for fn, name, counter in spans:
        wrapper = rec.timed(name, fn)
        patch.replace(fn, rec.counted(counter, wrapper) if counter else wrapper)
    for fn, counter in counters:
        patch.replace(fn, rec.counted(counter, fn))
    patch.replace(manager.plan_all, rec.timed("manager.plan_all", manager.plan_all, count_plans))
    for fn in (partition.gsp_partition, partition.qhsp_partition):
        patch.replace(fn, rec.timed("partition.partition", fn, count_region_search))
    return patch
