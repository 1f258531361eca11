import dataclasses
import math

import numpy as np
import pytest

from qmpc.circuits import Gate, QuantumCircuit
from qmpc.errors import CircuitTooLargeError, PartitionError
from qmpc import partition
from qmpc.hardware import build_hardware
from qmpc.manager import Verdict, fidelity_gate, plan_all, select_k, sort_by_density
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.presets import line_topology, uniform_calibration
from qmpc.verify import check_equivalence

from helpers import count_empty_device_searches, random_circuit


def cx_circuit(cid, n, n_cx):
    pairs = [(i % n, (i + 1) % n) for i in range(n_cx)] if n > 1 else []
    return QuantumCircuit(cid, n, 0, tuple(Gate("cx", p) for p in pairs))


def test_select_k_prefix_sum():
    circuits = [cx_circuit("a", 5, 10), cx_circuit("b", 5, 5), cx_circuit("c", 4, 2)]
    picked = select_k(circuits, 12)
    assert [c.id for c in picked] == ["a", "b"]  # 5+5 fits, +4 does not


def test_select_k_single_circuit():
    assert len(select_k([cx_circuit("a", 3, 3)], 27)) == 1


def test_select_k_two_small_on_big_device():
    circuits = [cx_circuit("a", 3, 6), cx_circuit("b", 3, 3)]
    assert len(select_k(circuits, 27)) == 2


def test_select_k_rejects_oversized():
    with pytest.raises(CircuitTooLargeError, match="big"):
        select_k([cx_circuit("big", 9, 9)], 5)


def test_sort_by_density_descending_and_stable():
    a = cx_circuit("a", 4, 4)  # density 1
    b = cx_circuit("b", 2, 6)  # density 3
    c = cx_circuit("c", 3, 3)  # density 1, after a on ties
    assert [x.id for x in sort_by_density([a, b, c])] == ["b", "a", "c"]


# --- fidelity gate ------------------------------------------------------------


def staircase_device():
    """10-qubit path whose odd edges are good in a strict order and even
    (connector) edges are bad, so joint allocation walks down the staircase."""
    topo = line_topology(10)
    good = {(0, 1): 0.01, (2, 3): 0.02, (4, 5): 0.025, (6, 7): 0.03, (8, 9): 0.035}
    cal = {
        "cnot_errors": [
            [a, b, good.get((a, b), 0.2)] for a, b in [tuple(e) for e in topo["edges"]]
        ],
        "readout_errors": [0.01] * 10,
    }
    return build_hardware(topo, cal)


def five_pairs():
    return [cx_circuit(f"c{i}", 2, 10) for i in range(5)]


def test_delta_s_zero_on_uniform_device():
    topo = line_topology(8)
    model = build_hardware(topo, uniform_calibration(topo))
    circuits = [cx_circuit("a", 2, 8), cx_circuit("b", 2, 4)]
    plan = fidelity_gate(model, circuits, RunConfig(method="gsp"))
    assert plan.verdict is Verdict.SIMULTANEOUS
    assert plan.delta_s == 0.0
    assert plan.trf == 2


def test_staircase_delta_matches_hand_computation():
    # independent optimum is the 0.01 edge for everyone; jointly the k-th
    # circuit gets the k-th best edge, so the mean degradation is
    # 10 * mean(0, 0.01, 0.015, 0.02, 0.025) = 0.14
    model = staircase_device()
    plan = fidelity_gate(model, five_pairs(), RunConfig(method="gsp", delta=0.2))
    assert plan.verdict is Verdict.SIMULTANEOUS
    assert plan.trf == 5
    assert plan.delta_s == pytest.approx(0.14, abs=1e-12)
    assert 0.1 < plan.delta_s < 0.2


def test_zero_threshold_forces_independent():
    model = staircase_device()
    circuits = [cx_circuit("a", 2, 10), cx_circuit("b", 2, 4)]
    plan = fidelity_gate(model, circuits, RunConfig(method="gsp", delta=0.0))
    assert plan.verdict is Verdict.INDEPENDENT
    assert plan.trf == 1
    assert len(plan.selected) == 1


def test_infinite_threshold_always_simultaneous():
    model = staircase_device()
    plan = fidelity_gate(model, five_pairs(), RunConfig(method="gsp", delta=math.inf))
    assert plan.verdict is Verdict.SIMULTANEOUS
    assert plan.trf == len(plan.selected) == 5


def test_reduction_drops_lowest_density_first():
    model = staircase_device()
    circuits = [cx_circuit("hot", 2, 12), cx_circuit("mid", 2, 8), cx_circuit("cold", 2, 4)]
    # mean degradation: K=3 gives (0 + 0.08 + 0.06)/3 = 0.04667, K=2 gives 0.04
    plan = fidelity_gate(model, circuits, RunConfig(method="gsp", delta=0.045))
    assert plan.verdict is Verdict.REDUCED
    assert plan.verdict_label() == "REDUCED(2)"
    assert plan.selected == ("hot", "mid")
    assert plan.delta_s == pytest.approx(0.04, abs=1e-12)


def test_verdict_is_deterministic():
    model = staircase_device()
    p1 = fidelity_gate(model, five_pairs(), RunConfig(method="gsp", delta=0.2))
    p2 = fidelity_gate(model, five_pairs(), RunConfig(method="gsp", delta=0.2))
    assert p1 == p2


def test_plan_all_covers_every_circuit():
    model = staircase_device()
    circuits = [cx_circuit(f"c{i}", 2, 10 - i) for i in range(5)]
    plans = plan_all(model, circuits, RunConfig(method="gsp", delta=0.03))
    covered = [cid for plan in plans for cid in plan.selected]
    assert sorted(covered) == sorted(c.id for c in circuits)
    for plan in plans:
        if plan.verdict is Verdict.SIMULTANEOUS:
            assert plan.delta_s < 0.03
            assert plan.trf == len(plan.selected)


def test_plan_serialization_shape():
    model = staircase_device()
    plan = fidelity_gate(model, five_pairs(), RunConfig(method="gsp", delta=0.2))
    blob = plan.to_json_dict()
    assert set(blob) == {"selected", "partitions", "delta_s", "threshold", "verdict", "trf"}
    assert blob["verdict"] == "SIMULTANEOUS"
    assert all(set(p) == {"circuit_id", "qubits", "score", "method"} for p in blob["partitions"])


@pytest.mark.parametrize("method", ["qhsp", "gsp"])
def test_plan_all_searches_each_alone_region_once(toronto, monkeypatch, method):
    # at threshold 0 every batch ends INDEPENDENT and the rest is re-queued,
    # so the same circuits pass through the gate again and again
    rng = np.random.default_rng(3)
    circuits = [random_circuit(rng, f"c{i}") for i in range(4)]
    config = RunConfig(method=method, delta=0.0)
    fresh = dataclasses.replace(toronto)  # the same device with an empty memo
    reference = []
    remaining = sort_by_density(circuits)
    while remaining:
        plan = fidelity_gate(fresh, select_k(remaining, fresh.num_qubits), config)
        reference.append(plan)
        remaining = [c for c in remaining if c.id not in plan.selected]

    searched = count_empty_device_searches(monkeypatch)
    assert plan_all(toronto, circuits, config) == reference
    assert len(reference) == len(circuits)
    assert sorted(searched) == sorted(set(searched))
    searched.clear()
    assert plan_all(toronto, circuits, config) == reference
    assert searched == []  # a second plan on the same model reads every alone region from its memo


def test_batch_of_one_runs_alone_and_fills_the_cache(toronto, monkeypatch):
    circuit = random_circuit(np.random.default_rng(3), "c0")
    config = RunConfig(method="gsp")
    plan = fidelity_gate(toronto, [circuit], config)
    assert plan.verdict is Verdict.INDEPENDENT and plan.delta_s == 0.0 and plan.threshold == config.delta
    assert plan.selected == ("c0",)
    alone = partition.gsp_partition(toronto, circuit, set())[0]
    assert plan.partitions == (alone,)
    key = ("alone_region", "gsp", circuit.num_qubits, circuit.cnot_count)
    assert toronto._memo[key] == (alone.qubits, alone.score, alone.method)

    searched = count_empty_device_searches(monkeypatch)
    assert fidelity_gate(toronto, [circuit], config) == plan
    twin = dataclasses.replace(circuit, id="twin")  # another circuit of the same shape
    assert fidelity_gate(toronto, [twin], config).partitions == (dataclasses.replace(alone, circuit_id="twin"),)
    assert searched == []


@pytest.mark.parametrize(
    "batch, message",
    [(["big"], "only 10 free qubits for a 11-qubit"), (["big", "small"], "only 10 free qubits for a 11-qubit")],
)
def test_batch_whose_first_circuit_cannot_be_placed_raises(batch, message):
    # a batch of one is allocated as any batch is, so one cause gives one message
    circuits = {"big": cx_circuit("big", 11, 22), "small": cx_circuit("small", 2, 1)}
    with pytest.raises(PartitionError, match=message):
        fidelity_gate(staircase_device(), [circuits[cid] for cid in batch])


# --- packed device ------------------------------------------------------------------


@pytest.mark.parametrize("method, seed", [("qhsp", 1), ("qhsp", 3), ("gsp", 5), ("gsp", 7)])
def test_packed_device_shrinks_batch_instead_of_raising(toronto, method, seed):
    # four circuits of 4-8 qubits fit toronto's 27 qubits by count, but the
    # greedy allocation leaves no connected region for the last of them; at
    # these seeds the planner used to raise PartitionError
    rng = np.random.default_rng(seed)
    circuits = [random_circuit(rng, f"c{i}", int(rng.integers(4, 9)), 30) for i in range(4)]
    assert len(select_k(circuits, toronto.num_qubits)) == 4
    result = compile_workloads(toronto, circuits, RunConfig(method=method, seed=seed))
    covered = [cid for compiled in result.plans for cid in compiled.plan.selected]
    assert sorted(covered) == sorted(c.id for c in circuits)
    assert len(result.plans) > 1
    for compiled in result.plans:
        # the merged program spans more qubits than the simulator takes, so
        # each circuit is checked against the gates on its own region
        merged = compiled.merged
        for circuit, part in zip(compiled.circuits, compiled.plan.partitions):
            region = set(part.qubits)
            gates = tuple(g for g in merged.gates if region.issuperset(g.qubits))
            sub = QuantumCircuit(circuit.id, merged.num_qubits, merged.num_clbits, gates)
            report = check_equivalence([circuit], sub, {circuit.id: compiled.manifest[circuit.id]})
            assert report.passed, (circuit.id, report.max_tv)
