"""Tracing wraps the compiler from outside and changes none of its output."""
import sys

import numpy as np

import spans
from qmpc import presets
from qmpc.circuits import parse_qasm
from qmpc.hardware import build_hardware
from qmpc.pipeline import RunConfig, compile_workloads
from workloads import random_source


def _snapshot():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qmpc" or name.startswith("qmpc.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _compile():
    rng = np.random.default_rng(1)
    circuits = [parse_qasm(s.qasm, s.id) for s in (random_source(rng, f"c{i}", 4, 30) for i in range(3))]
    topo = presets.topology("guadalupe")
    model = build_hardware(topo, presets.synthetic_calibration(topo))
    return compile_workloads(model, circuits, RunConfig(seed=2))


def test_tracing_keeps_output_and_undo_restores_every_function():
    before = _snapshot()
    plain = [c.qasm for c in _compile().plans]
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        patch = spans.install(rec)
        try:
            traced = [c.qasm for c in _compile().plans]
        finally:
            patch.undo()
        assert traced == plain
        counts.append(dict(rec.counts))
    assert _snapshot() == before
    assert counts[0] == counts[1]
    assert counts[0]["scheduler.trial_routes"] == 10 * 3  # best of ten placements per circuit
    assert counts[0]["hardware.distance_matrices_calls"] == 1
    assert counts[0]["scheduler.merged_circuit_calls"] == 2 * counts[0]["manager.plans"]


def test_self_time_excludes_children():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(200000))
    assert rec.self_s["inner"] > 0
    assert rec.self_s["outer"] < rec.self_s["inner"]
