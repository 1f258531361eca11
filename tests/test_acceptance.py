"""Acceptance criteria, one test per criterion.

Each test records a one-line PASS/FAIL verdict that pytest prints in a
terminal summary section after the run.
"""
import json
import sys
import time
from itertools import permutations

import numpy as np
import pytest

from qmpc.circuits import Gate, QuantumCircuit, build_dag, depth
from qmpc.errors import PartitionSizeError
from qmpc.hardware import build_crosstalk, build_hardware, extract_strong_crosstalk
from qmpc.manager import Verdict, fidelity_gate
from qmpc.partition import (
    allocate_all,
    connected_k_subsets,
    crosstalk_adjust,
    gsp_partition,
    qhsp_partition,
    score,
)
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.presets import line_topology, ring_topology, synthetic_calibration, topology
from qmpc.scheduler import BRIDGE_PATTERN
from qmpc.verify import check_equivalence

from helpers import random_circuit, record_criterion
from oracles import circuit_unitary


# --- shared suite -----------------------------------------------------------------


def _device(name, seed):
    topo = topology(name)
    return build_hardware(topo, synthetic_calibration(topo, seed=seed))


@pytest.fixture(scope="module")
def suite():
    """25 seeded random workloads compiled alone (7-qubit device) and in
    pairs (16-qubit device); full scheduler settings."""
    rng = np.random.default_rng(2024)
    circuits = [random_circuit(rng, f"w{i:02d}") for i in range(25)]
    for c in circuits:
        assert 3 <= c.num_qubits <= 6 and depth(c.gates) <= 20
    jakarta = _device("jakarta", 1)
    guadalupe = _device("guadalupe", 2)
    started = time.monotonic()
    solo = [compile_workloads(jakarta, [c], RunConfig(seed=1000 + i)) for i, c in enumerate(circuits)]
    pairs = [
        compile_workloads(guadalupe, [circuits[i], circuits[i + 1]], RunConfig(seed=2000 + i))
        for i in range(0, 24, 2)
    ]
    elapsed = time.monotonic() - started
    return {
        "circuits": circuits,
        "jakarta": jakarta,
        "guadalupe": guadalupe,
        "solo": solo,
        "pairs": pairs,
        "compile_seconds": elapsed,
    }


def _instances(suite):
    for i, result in enumerate(suite["solo"]):
        yield f"solo-{i}", suite["jakarta"], [suite["circuits"][i]], RunConfig(seed=1000 + i), result
    for j, result in enumerate(suite["pairs"]):
        i = 2 * j
        members = [suite["circuits"][i], suite["circuits"][i + 1]]
        yield f"pair-{i}", suite["guadalupe"], members, RunConfig(seed=2000 + i), result


def test_criterion_1_equivalence_suite(suite, request):
    started = time.monotonic()
    worst = 0.0
    checked = 0
    for label, model, members, config, result in _instances(suite):
        by_id = {c.id: c for c in members}
        for compiled in result.plans:
            sources = [by_id[cid] for cid in compiled.plan.selected]
            report = check_equivalence(sources, compiled.merged, compiled.manifest, tol=1e-9)
            worst = max(worst, report.max_tv)
            checked += 1
            assert report.passed, f"{label}: TV {report.max_tv:.3e}"
    runtime = suite["compile_seconds"] + (time.monotonic() - started)
    ok = worst < 1e-9 and runtime < 60.0
    record_criterion(
        request.config, 1,
        ok, f"{checked} compiled programs match ideal marginals, worst TV {worst:.2e}, suite {runtime:.1f}s < 60s",
    )
    assert ok


def _criterion2_instance(i):
    kind = i % 4
    if kind == 0:
        topo = topology("jakarta")
    elif kind == 1:
        topo = topology("guadalupe")
    elif kind == 2:
        topo = line_topology(9)
    else:
        topo = ring_topology(8)
    model = build_hardware(topo, synthetic_calibration(topo, seed=900 + i))
    k = 2 + i % 4
    rng = np.random.default_rng(7000 + i)
    gates = []
    for _ in range(3 * k):
        a, b = rng.choice(k, size=2, replace=False)
        gates.append(Gate("cx", (int(a), int(b))))
    return model, QuantumCircuit(f"i{i}", k, 0, tuple(gates))


def test_criterion_2_oracle_dominance_and_near_optimality(request):
    dominance = 0
    optimal = 0
    n = 50
    for i in range(n):
        model, circuit = _criterion2_instance(i)
        k = circuit.num_qubits
        best = gsp_partition(model, circuit, set())[0]
        choice = qhsp_partition(model, circuit, set())[0]
        adjusted = crosstalk_adjust(model, choice.qubits, set(), None)
        if best.score <= score(model, choice.qubits, circuit, adjusted, with_diameter=True) + 1e-12:
            dominance += 1
        optimum = min(
            score(model, s, circuit, crosstalk_adjust(model, s, set(), None), with_diameter=False)
            for s in connected_k_subsets(model, set(range(model.num_qubits)), k)
        )
        if abs(choice.score - optimum) <= 1e-12:
            optimal += 1
    ok = dominance == n and optimal / n >= 0.60
    record_criterion(
        request.config, 2,
        ok, f"exhaustive score dominates in {dominance}/{n}, heuristic hits the optimum in {optimal}/{n} (floor 60%)",
    )
    assert dominance == n
    assert optimal / n >= 0.60


def test_criterion_3_complexity_separation(request):
    manhattan = _device("manhattan", 5)
    rng = np.random.default_rng(77)
    gates = []
    for _ in range(40):
        a, b = rng.choice(16, size=2, replace=False)
        gates.append(Gate("cx", (int(a), int(b))))
    wide = QuantumCircuit("wide16", 16, 0, tuple(gates))
    started = time.monotonic()
    qhsp_partition(manhattan, wide, set())
    qhsp_seconds = time.monotonic() - started

    guadalupe = _device("guadalupe", 2)
    mid = QuantumCircuit("mid6", 6, 0, tuple(Gate("cx", (i % 6, (i + 1) % 6)) for i in range(10)))
    started = time.monotonic()
    gsp_partition(guadalupe, mid, set())
    gsp_seconds = time.monotonic() - started

    big = QuantumCircuit("big9", 9, 0, tuple(Gate("cx", (i % 9, (i + 1) % 9)) for i in range(10)))
    with pytest.raises(PartitionSizeError):
        gsp_partition(_device("jakarta", 1), big, set())

    ok = qhsp_seconds < 1.0 and gsp_seconds < 60.0
    record_criterion(
        request.config, 3,
        ok, f"heuristic 16q/65q in {qhsp_seconds:.3f}s < 1s; exhaustive k=6/16q in {gsp_seconds:.2f}s < 60s; k>8 rejected",
    )
    assert ok


def test_criterion_4_bridge_unitary(request):
    ops = [("cx", c, t) for c, t in ((0, 1), (1, 2), (0, 1), (1, 2))]
    assert [(p, q) for p, q in BRIDGE_PATTERN] == [(0, 1), (1, 2), (0, 1), (1, 2)]
    bridge = circuit_unitary(3, ops)
    direct = circuit_unitary(3, [("cx", 0, 2)])
    deviation = np.max(np.abs(bridge - direct))
    ok = deviation < 1e-12
    record_criterion(request.config, 4, ok, f"4-CNOT bridge equals direct CNOT, max deviation {deviation:.2e}")
    assert ok


def test_criterion_5_swap_only_ablation(suite, request):
    violations = []
    strictly_fewer = 0
    for label, model, members, config, result in _instances(suite):
        full = sum(p.schedule.additional_cnots() for p in result.plans)
        ablated_cfg = RunConfig(**{**config.__dict__, "swap_only": True})
        ablated = compile_workloads(model, members, ablated_cfg)
        swap_only = sum(p.schedule.additional_cnots() for p in ablated.plans)
        if full > swap_only:
            violations.append((label, full, swap_only))
        if full < swap_only:
            strictly_fewer += 1
    ok = not violations and strictly_fewer >= 1
    record_criterion(
        request.config, 5,
        ok,
        f"full scheduler <= swap-only on {37 - len(violations)}/37 instances, strictly fewer on {strictly_fewer}"
        + (f"; violations {violations}" if violations else ""),
    )
    assert strictly_fewer >= 1
    assert not violations, (
        "full scheduler inserted more CNOTs than the swap-only ablation on: "
        f"{violations}; with a neutral lookahead window the cost function prefers a "
        "bridge, which repeated far-pair traffic then pays for on every repetition"
    )


def _tied_candidates_fixture(seed):
    """Path 0-1-2-3-4-5: circuit A owns (0,1); circuit B must choose between
    the score-tied edges (2,3) and (4,5); only (2,3) sits under strong
    crosstalk conditioned on A's edge."""
    rng = np.random.default_rng(seed)
    connector = float(rng.uniform(0.2, 0.4))
    good = float(rng.uniform(0.008, 0.02))
    shared_readout = float(rng.uniform(0.01, 0.03))
    topo = {"num_qubits": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]}
    cal = {
        "cnot_errors": [
            [0, 1, 0.005], [1, 2, connector], [2, 3, good], [3, 4, connector], [4, 5, good]
        ],
        "readout_errors": [0.005, 0.005, shared_readout, shared_readout, shared_readout, shared_readout],
    }
    model = build_hardware(topo, cal)
    pairs = [{"gate": [2, 3], "conditioned_on": [0, 1], "error": good * 4.0}]
    strong = extract_strong_crosstalk(build_crosstalk(pairs, model), model)
    assert len(strong) == 1
    return model, strong


def test_criterion_6_crosstalk_avoidance(request):
    busy = QuantumCircuit("busy", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(6)))
    calm = QuantumCircuit("calm", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(4)))
    steered = 0
    seeds = range(10)
    for seed in seeds:
        model, strong = _tied_candidates_fixture(seed)
        with_xtalk = allocate_all(model, [busy, calm], RunConfig(method="qhsp"), strong_pairs=strong)
        without = allocate_all(model, [busy, calm], RunConfig(method="qhsp"), strong_pairs=None)
        assert without[1].qubit_set == {2, 3}  # tie breaks to the lower edge without crosstalk
        if with_xtalk[0].qubit_set == {0, 1} and with_xtalk[1].qubit_set == {4, 5}:
            steered += 1
    ok = steered == len(seeds)
    record_criterion(request.config, 6, ok, f"crosstalk-free candidate chosen in {steered}/{len(seeds)} seeds")
    assert ok


def _staircase():
    topo = line_topology(10)
    good = {(0, 1): 0.01, (2, 3): 0.02, (4, 5): 0.025, (6, 7): 0.03, (8, 9): 0.035}
    cal = {
        "cnot_errors": [[a, b, good.get((a, b), 0.2)] for a, b in [tuple(e) for e in topo["edges"]]],
        "readout_errors": [0.01] * 10,
    }
    return build_hardware(topo, cal)


def test_criterion_7_threshold_gate_behaviour(suite, request):
    model = _staircase()
    batch = [QuantumCircuit(f"c{i}", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(10 - i))) for i in range(5)]

    zero = fidelity_gate(model, batch, RunConfig(method="gsp", delta=0.0))
    ok_zero = zero.verdict is Verdict.INDEPENDENT and zero.trf == 1

    # the largest threshold a RunConfig accepts: every finite delta_s is below it
    infinite = fidelity_gate(model, batch, RunConfig(method="gsp", delta=sys.float_info.max))
    ok_inf = infinite.verdict is Verdict.SIMULTANEOUS and infinite.trf == len(batch)

    trf_ok = True
    for _, _, _, _, result in _instances(suite):
        for compiled in result.plans:
            if compiled.plan.verdict is Verdict.SIMULTANEOUS:
                trf_ok = trf_ok and compiled.plan.trf == len(compiled.plan.selected)

    ok = ok_zero and ok_inf and trf_ok
    record_criterion(
        request.config, 7,
        ok, "zero threshold forces independent runs, infinite threshold shares at capacity, TRF = merged count",
    )
    assert ok


def test_criterion_8_worked_partition_example(valencia_ranked, request):
    from qmpc.partition import fidelity_degree

    values = fidelity_degree(valencia_ranked, 2.0)
    rank = sorted(range(5), key=lambda q: -values[q])[:4]
    assert rank == [1, 3, 0, 2]  # calibration constructed to rank this way
    circuit = QuantumCircuit("ex", 4, 0, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    best = qhsp_partition(valencia_ranked, circuit, set())[0]
    ok = best.qubits == (1, 3, 0, 2)
    record_criterion(request.config, 8, ok, f"heuristic grows the T-shaped device in merge order {best.qubits}")
    assert ok


def test_criterion_9_determinism(suite, request):
    mismatches = []
    for label, model, members, config, result in _instances(suite):
        again = compile_workloads(model, members, RunConfig(**config.__dict__))
        for first, second in zip(result.plans, again.plans):
            same = (
                first.qasm == second.qasm
                and json.dumps(first.manifest, sort_keys=True) == json.dumps(second.manifest, sort_keys=True)
                and json.dumps(first.stats, sort_keys=True) == json.dumps(second.stats, sort_keys=True)
            )
            if not same:
                mismatches.append(label)
    ok = not mismatches
    record_criterion(
        request.config, 9,
        ok, "repeat runs are byte-identical across merged programs, manifests and stats"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )
    assert ok
