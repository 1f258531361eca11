import numpy as np
import pytest

from qmpc.circuits import CX, Gate, QuantumCircuit, build_dag, parse_merged_qasm, parse_qasm
from qmpc.errors import RoutingError
from qmpc.hardware import build_hardware, distance_matrices
from qmpc.partition import Partition
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.scheduler import (
    BRIDGE,
    SWAP,
    TentativeGate,
    _Job,
    cost_h,
    emit_merged_qasm,
    find_swap_bridge_pairs,
    initial_mapping,
    interleave,
    mapping_transition,
    merged_circuit,
)
from qmpc.presets import line_topology, uniform_calibration
from qmpc.verify import check_equivalence


def line_model(n, cnot=0.01, readout=0.02):
    topo = line_topology(n)
    return build_hardware(topo, uniform_calibration(topo, cnot=cnot, readout=readout))


def make_part(cid, qubits):
    return Partition(cid, tuple(qubits), 0.0, "QHSP")


def route_single(model, circuit, l2p, config=RunConfig(), **kw):
    dag = build_dag(circuit)
    part = make_part(circuit.id, sorted(l2p))
    D = distance_matrices(model).combined
    return mapping_transition(model, D, circuit, dag, part, list(l2p), config, **kw)


def route_solo(model, D, specs):
    """Each circuit routed alone from its placement, with default settings."""
    return [mapping_transition(model, D, c, dag, part, l2p, RunConfig()) for c, dag, part, l2p in specs]


# --- initial mapping -----------------------------------------------------------


def test_initial_mapping_trivial_two_qubits():
    model = line_model(2)
    circuit = QuantumCircuit("c", 2, 0, (Gate(CX, (0, 1)),))
    D = distance_matrices(model).combined
    l2p, _ = initial_mapping(model, D, make_part("c", [0, 1]), circuit, build_dag(circuit), np.random.default_rng(0))
    sched = route_single(model, circuit, l2p)
    assert sched.additional_cnots() == 0


def test_initial_mapping_finds_zero_insertion_layout():
    # CXs (0,1) and (1,2): placing logical 1 on the line's middle needs no swaps;
    # exhaustive check over all 6 bijections confirms such layouts exist
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 1)), Gate(CX, (1, 2))))
    dag = build_dag(circuit)
    D = distance_matrices(model).combined
    from itertools import permutations

    zero_layouts = []
    for perm in permutations([0, 1, 2]):
        sched = mapping_transition(model, D, circuit, dag, make_part("c", [0, 1, 2]), list(perm), RunConfig())
        if sched.additional_cnots() == 0:
            zero_layouts.append(perm)
    assert zero_layouts  # oracle: some bijection needs no insertions
    l2p, _ = initial_mapping(model, D, make_part("c", [0, 1, 2]), circuit, dag, np.random.default_rng(1))
    assert l2p[1] == 1
    assert tuple(l2p) in zero_layouts


def test_initial_mapping_deterministic_under_seed():
    model = line_model(4)
    circuit = QuantumCircuit("c", 4, 0, tuple(Gate(CX, ((i * 2) % 4, (i * 2 + 3) % 4)) for i in range(5)))
    D = distance_matrices(model).combined
    part = make_part("c", [0, 1, 2, 3])
    runs = [
        initial_mapping(model, D, part, circuit, build_dag(circuit), np.random.default_rng(42))[0]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --- candidate generation --------------------------------------------------------


def _job_for(model, circuit, l2p, partition):
    from qmpc.scheduler import _Job

    return _Job(model, circuit, build_dag(circuit), make_part(circuit.id, partition), l2p)


def test_candidates_distance_two():
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 2)),))
    job = _job_for(model, circuit, [0, 1, 2], [0, 1, 2])
    cands = find_swap_bridge_pairs(job, model)
    swaps = [c for c in cands if c.kind == SWAP]
    bridges = [c for c in cands if c.kind == BRIDGE]
    assert {c.qubits for c in swaps} == {(0, 1), (1, 2)}
    assert [c.qubits for c in bridges] == [(0, 1, 2)]


def test_candidates_distance_three_no_bridge():
    model = line_model(4)
    circuit = QuantumCircuit("c", 4, 0, (Gate(CX, (0, 3)),))
    job = _job_for(model, circuit, [0, 1, 2, 3], [0, 1, 2, 3])
    cands = find_swap_bridge_pairs(job, model)
    assert all(c.kind == SWAP for c in cands)
    assert {c.qubits for c in cands} == {(0, 1), (2, 3)}


# --- cost function ----------------------------------------------------------------


def test_cost_formula_single_gate_empty_lookahead():
    model = line_model(3)
    D = distance_matrices(model).combined
    l2p = [0, 1, 2]
    p2l = {0: 0, 1: 1, 2: 2}
    front = [(0, 0, 2)]  # node 0: CX(l0, l2) at physical (0, 2)
    swap = TentativeGate(SWAP, (1, 2))
    # post-swap the gate sits on (0, 1); the swap itself burns 3 CNOTs on (1, 2)
    expected = (D[0, 1] + 3 * D[1, 2]) / 4
    assert cost_h(swap, front, [], D, l2p, p2l) == pytest.approx(expected, abs=1e-15)
    bridge = TentativeGate(BRIDGE, (0, 1, 2), node=0)
    expected_b = (2 * D[0, 1] + 2 * D[1, 2]) / 5
    assert cost_h(bridge, front, [], D, l2p, p2l) == pytest.approx(expected_b, abs=1e-15)


def test_cost_ignores_lookahead_when_weight_zero():
    model = line_model(4)
    D = distance_matrices(model).combined
    l2p = [0, 1, 2, 3]
    p2l = {i: i for i in range(4)}
    front = [(0, 0, 1)]
    swap = TentativeGate(SWAP, (0, 1))
    with_ext = cost_h(swap, front, [(2, 3)], D, l2p, p2l, weight_w=0.0)
    without = cost_h(swap, front, [], D, l2p, p2l, weight_w=0.0)
    assert with_ext == without


def test_swap_wins_exactly_when_it_helps_lookahead():
    # 5-qubit line, F = CX(l0,l1) at (0,2).  With lookahead CX(l0,l2) at
    # distance 3, SWAP(0,1) shortens it and beats the bridge; with no
    # lookahead the bridge's cheaper self-cost wins.
    model = line_model(5)
    D = distance_matrices(model).combined
    l2p = [0, 2, 3, 4, 1]  # l0->0, l1->2, l2->3, l3->4, l4->1
    p2l = {p: l for l, p in enumerate(l2p)}
    front = [(0, 0, 1)]
    swap01 = TentativeGate(SWAP, (0, 1))
    bridge = TentativeGate(BRIDGE, (0, 1, 2), node=0)
    ext = [(0, 2)]  # CX(l0, l2) at (0,3) now, (1,3) after the swap
    h_swap = cost_h(swap01, front, ext, D, l2p, p2l)
    h_bridge = cost_h(bridge, front, ext, D, l2p, p2l)
    assert h_swap == pytest.approx(D[0, 1] + 0.5 * D[1, 3], abs=1e-15)
    assert h_bridge == pytest.approx(4 * D[0, 1] / 5 + 0.5 * D[0, 3], abs=1e-15)
    assert h_swap < h_bridge
    # remove the lookahead benefit: bridge preferred
    assert cost_h(bridge, front, [], D, l2p, p2l) < cost_h(swap01, front, [], D, l2p, p2l)


def test_self_cost_ablation_changes_choice():
    model = line_model(5)
    D = distance_matrices(model).combined
    l2p = [0, 2, 3, 4, 1]
    p2l = {p: l for l, p in enumerate(l2p)}
    front = [(0, 0, 1)]
    ext = [(0, 2)]
    swap01 = TentativeGate(SWAP, (0, 1))
    bridge = TentativeGate(BRIDGE, (0, 1, 2), node=0)

    def choice(self_cost):
        cands = [swap01, bridge]
        return min(
            cands,
            key=lambda c: (cost_h(c, front, ext, D, l2p, p2l, self_cost=self_cost), 0 if c.kind == BRIDGE else 1),
        ).kind

    assert choice(True) == SWAP
    assert choice(False) == BRIDGE


def test_recurring_bridged_pair_makes_swap_win():
    # 3-qubit line, F = CX(l0,l2) at (0,2).  The window repeats the pair
    # (reversed) next to CX(l0,l1), so it sums to d1 + d2 under either
    # choice; only the recurrence charge on the bridge separates them
    model = line_model(3)
    D = distance_matrices(model).combined
    l2p = [0, 1, 2]
    p2l = {0: 0, 1: 1, 2: 2}
    front = [(0, 0, 2)]
    swap = TentativeGate(SWAP, (1, 2))
    bridge = TentativeGate(BRIDGE, (0, 1, 2), node=0)
    ext = [(2, 0), (0, 1)]
    lookahead = 0.5 * (D[0, 1] + D[0, 2]) / 2
    h_swap = cost_h(swap, front, ext, D, l2p, p2l)
    h_bridge = cost_h(bridge, front, ext, D, l2p, p2l)
    assert h_swap == pytest.approx((D[0, 1] + 3 * D[1, 2]) / 4 + lookahead, abs=1e-15)
    # the bridge's four CNOTs are charged once more for the one repeat
    assert h_bridge == pytest.approx(2 * (2 * D[0, 1] + 2 * D[1, 2]) / 5 + lookahead, abs=1e-15)
    assert h_swap < h_bridge
    # the charge belongs to the self-cost term: the ablation scores as before
    assert cost_h(bridge, front, ext, D, l2p, p2l, self_cost=False) == pytest.approx(lookahead, abs=1e-15)


def test_recurring_far_pair_full_router_never_worse_than_swap_only():
    # a CNOT sequence whose pair (l0,l2) keeps recurring: bridging it on every
    # occurrence used to cost more than the swap-only ablation's single SWAP
    model = line_model(3)
    pairs = [(0, 2), (1, 0), (2, 0), (0, 2), (1, 2), (0, 1), (0, 1), (2, 1), (2, 1), (0, 1), (0, 1), (0, 2), (2, 0)]
    circuit = QuantumCircuit("c", 3, 0, tuple(Gate(CX, p) for p in pairs))
    from itertools import permutations

    for perm in permutations([0, 1, 2]):
        full = route_single(model, circuit, perm).additional_cnots()
        swap_only = route_single(model, circuit, perm, RunConfig(swap_only=True)).additional_cnots()
        assert full <= swap_only, (perm, full, swap_only)


# --- transition -----------------------------------------------------------------


def test_compliant_circuit_passes_through(bell):
    model = line_model(2)
    sched = route_single(model, bell, [0, 1])
    assert sched.additional_cnots() == 0
    assert len(sched.entries) == len(bell.gates)


def test_isolated_distance_two_uses_bridge():
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 1)),))
    sched = route_single(model, circuit, [0, 2, 1])  # l0->0, l1->2: blocked at distance 2
    assert sched.bridge_counts["c"] == 1
    assert sched.swap_counts["c"] == 0
    assert sched.additional_cnots() == 3
    # mapping unchanged by a bridge
    assert sched.final_mappings["c"] == {0: 0, 1: 2, 2: 1}


def test_accounting_identity_on_random_circuits(circuit_factory, guadalupe):
    D = distance_matrices(guadalupe).combined
    rng = np.random.default_rng(9)
    for trial in range(5):
        circuit = circuit_factory(rng, f"c{trial}", n_qubits=4)
        from qmpc.partition import qhsp_partition

        part = qhsp_partition(guadalupe, circuit, set())[0]
        dag = build_dag(circuit)
        l2p, _ = initial_mapping(guadalupe, D, part, circuit, dag, np.random.default_rng(trial))
        sched = mapping_transition(guadalupe, D, circuit, dag, part, l2p, RunConfig())
        emitted_cx = sum(1 for e in sched.entries if e.gate.kind == CX)
        assert emitted_cx == circuit.cnot_count + sched.additional_cnots()
        assert sched.additional_cnots() == 3 * (sched.swap_counts["c%d" % trial] + sched.bridge_counts["c%d" % trial])


def test_extended_layer_returns_at_most_size_lookahead_cnots(circuit_factory):
    model = line_model(4)
    circuit = circuit_factory(np.random.default_rng(3), "c", n_qubits=4)
    job = _Job(model, circuit, build_dag(circuit), make_part("c", [0, 1, 2, 3]), [0, 1, 2, 3])
    full = job.extended_layer(len(circuit.gates))
    assert len(full) >= 2
    assert job.extended_layer(0) == []
    for size in range(1, len(full) + 1):
        assert job.extended_layer(size) == full[:size]


def test_extended_layer_matches_a_naive_scan_at_every_routing_step(monkeypatch, circuit_factory, guadalupe):
    from oracles import naive_extended_layer
    from qmpc.partition import qhsp_partition

    original = _Job.extended_layer
    checked = []

    def checking(job, size):
        got = original(job, size)
        assert got == naive_extended_layer(job, size)
        checked.append(size)
        return got

    monkeypatch.setattr(_Job, "extended_layer", checking)
    D = distance_matrices(guadalupe).combined_rows
    rng = np.random.default_rng(11)
    for trial in range(3):
        circuit = circuit_factory(rng, f"c{trial}", n_qubits=6, max_gates=60)
        part = qhsp_partition(guadalupe, circuit, set())[0]
        for size in (1, 3, 20):
            config = RunConfig(attempts=3, ext_layer=size)
            initial_mapping(guadalupe, D, part, circuit, build_dag(circuit), np.random.default_rng(trial), config)
    assert len(checked) > 100


def test_placement_trials_stop_once_they_cannot_win(monkeypatch, circuit_factory, guadalupe):
    # every attempt still routes through mapping_transition and draws its
    # permutation; a losing trial comes back aborted, and the winner is a
    # complete route whose count matches routing its placement alone
    import qmpc.scheduler as sched_mod
    from qmpc.partition import qhsp_partition

    route = sched_mod.mapping_transition
    trials = []

    def recording(*args, **kwargs):
        trials.append(route(*args, **kwargs))
        return trials[-1]

    monkeypatch.setattr(sched_mod, "mapping_transition", recording)
    circuit = circuit_factory(np.random.default_rng(5), "c", n_qubits=6, max_gates=60)
    part = qhsp_partition(guadalupe, circuit, set())[0]
    D = distance_matrices(guadalupe).combined
    l2p, best = initial_mapping(guadalupe, D, part, circuit, build_dag(circuit), np.random.default_rng(0))
    assert len(trials) == 10
    assert any(t.aborted for t in trials)
    assert not best.aborted and best in trials
    alone = route(guadalupe, D, circuit, build_dag(circuit), part, l2p, RunConfig())
    assert alone.entries == best.entries and alone.additional_cnots() == best.additional_cnots()


def test_zero_lookahead_window_compiles_and_verifies(circuit_factory, guadalupe):
    rng = np.random.default_rng(4)
    circuits = [circuit_factory(rng, f"c{i}", n_qubits=4) for i in range(2)]
    result = compile_workloads(guadalupe, circuits, RunConfig(ext_layer=0, seed=2))
    by_id = {c.id: c for c in circuits}
    for compiled in result.plans:
        assert all(guadalupe.has_edge(*g.qubits) for g in compiled.merged.gates if g.kind == CX)
        sources = [by_id[cid] for cid in compiled.plan.selected]
        assert check_equivalence(sources, compiled.merged, compiled.manifest).passed


def test_iteration_guard_surfaces_routing_bugs(monkeypatch):
    # simulate a regression that stops all progress: the cap has to turn the
    # would-be infinite loop into an explicit error
    import qmpc.scheduler as sched_mod

    monkeypatch.setattr(sched_mod, "_emit_ready", lambda job, model, entries: None)
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 2)),))
    dag = build_dag(circuit)
    D = distance_matrices(model).combined
    with pytest.raises(RoutingError, match="terminate"):
        sched_mod.mapping_transition(
            model, D, circuit, dag, make_part("c", [0, 1, 2]), [0, 1, 2], RunConfig(swap_only=True)
        )


def test_stall_fallback_recovers_from_adversarial_costs():
    # same hostile matrix, default stall limit: the shortest-path fallback
    # must finish the route and keep the accounting identity intact
    model = line_model(6)
    circuit = QuantumCircuit("c", 6, 0, (Gate(CX, (0, 5)),))
    dag = build_dag(circuit)
    hostile = np.full((6, 6), 500.0)
    np.fill_diagonal(hostile, 0.0)
    for a, b in ((0, 1), (4, 5)):
        hostile[a, b] = hostile[b, a] = -1000.0
    sched = mapping_transition(model, hostile, circuit, dag, make_part("c", range(6)), list(range(6)), RunConfig())
    emitted_cx = sum(1 for e in sched.entries if e.gate.kind == CX)
    assert emitted_cx == 1 + sched.additional_cnots()


def test_forced_route_counts_swaps_once():
    # trigger the fallback immediately (stall_limit=0) on a distance-4 gate:
    # three shortest-path swaps, each counted exactly once
    model = line_model(5)
    circuit = QuantumCircuit("c", 5, 0, (Gate(CX, (0, 4)),))
    dag = build_dag(circuit)
    D = distance_matrices(model).combined
    sched = mapping_transition(
        model, D, circuit, dag, make_part("c", range(5)), list(range(5)), RunConfig(), stall_limit=0
    )
    assert sched.swap_counts["c"] == 3
    emitted_cx = sum(1 for e in sched.entries if e.gate.kind == CX)
    assert emitted_cx == 1 + sched.additional_cnots() == 10


def test_immediate_swap_revert_is_banned():
    # a cheap retreat edge beating the expensive approach edge used to
    # ping-pong; the revert ban must let routing finish instead
    topo = line_topology(4)
    cal = {
        "cnot_errors": [[0, 1, 0.001], [1, 2, 0.25], [2, 3, 0.25]],
        "readout_errors": [0.01] * 4,
    }
    model = build_hardware(topo, cal)
    D = distance_matrices(model).combined
    circuit = QuantumCircuit("c", 4, 0, (Gate(CX, (1, 3)),))
    dag = build_dag(circuit)
    sched = mapping_transition(model, D, circuit, dag, make_part("c", [0, 1, 2, 3]), [0, 1, 2, 3], RunConfig())
    emitted_cx = sum(1 for e in sched.entries if e.gate.kind == CX)
    assert emitted_cx == 1 + sched.additional_cnots()


def test_two_independent_circuits_match_solo_compilations():
    model = line_model(7)
    c1 = parse_qasm("qreg q[3]; creg c[3]; h q[0]; cx q[0],q[2]; cx q[1],q[2]; measure q -> c;", "one")
    c2 = parse_qasm("qreg q[3]; creg c[3]; cx q[0],q[1]; cx q[0],q[2]; t q[1]; measure q -> c;", "two")
    D = distance_matrices(model).combined
    p1, m1 = make_part("one", [0, 1, 2]), [0, 1, 2]
    p2, m2 = make_part("two", [4, 5, 6]), [5, 4, 6]
    solo1, solo2 = route_solo(model, D, [(c1, build_dag(c1), p1, m1), (c2, build_dag(c2), p2, m2)])
    joint = interleave([solo1, solo2])
    joint_for = lambda cid: [e.gate for e in joint.entries if e.circuit_id == cid]
    assert joint_for("one") == [e.gate for e in solo1.entries]
    assert joint_for("two") == [e.gate for e in solo2.entries]


def test_partition_confinement():
    model = line_model(7)
    c1 = parse_qasm("qreg q[3]; creg c[3]; cx q[0],q[2]; cx q[1],q[0]; measure q -> c;", "one")
    c2 = parse_qasm("qreg q[3]; creg c[3]; cx q[0],q[2]; cx q[2],q[1]; measure q -> c;", "two")
    D = distance_matrices(model).combined
    part1, part2 = {0, 1, 2}, {4, 5, 6}
    sched = interleave(route_solo(
        model, D,
        [(c1, build_dag(c1), make_part("one", sorted(part1)), [0, 2, 1]),
         (c2, build_dag(c2), make_part("two", sorted(part2)), [4, 6, 5])],
    ))
    owner = {"one": part1, "two": part2}
    for entry in sched.entries:
        assert set(entry.gate.qubits) <= owner[entry.circuit_id]
        if entry.gate.kind == CX:
            assert model.has_edge(*entry.gate.qubits)
    for cid, part in owner.items():
        assert set(sched.final_mappings[cid].values()) == part


# --- merged output ----------------------------------------------------------------


def test_merged_single_gate_circuit_reparses():
    model = line_model(2)
    circuit = parse_qasm("qreg q[1]; h q[0];", "solo")
    sched = route_single(model, circuit, [0])
    text, manifest = emit_merged_qasm(sched, model, [circuit])
    parsed, layout = parse_merged_qasm(text)
    assert len(parsed.gates) == 1
    assert parsed.gates[0].kind == "h"
    assert manifest["solo"]["clbits"] == []


def test_merged_two_circuits_have_two_cregs(bell):
    model = line_model(5)
    other = parse_qasm("qreg q[2]; creg c[2]; x q[0]; cx q[0],q[1]; measure q -> c;", "other")
    D = distance_matrices(model).combined
    sched = interleave(route_solo(
        model, D,
        [(bell, build_dag(bell), make_part("bell", [0, 1]), [0, 1]),
         (other, build_dag(other), make_part("other", [3, 4]), [3, 4])],
    ))
    text, manifest = emit_merged_qasm(sched, model, [bell, other])
    assert text.count("creg") == 2
    merged, layout = parse_merged_qasm(text)
    assert merged.num_clbits == 4
    assert manifest["bell"]["clbits"] == [0, 1]
    assert manifest["other"]["clbits"] == [2, 3]
    assert set(layout) == {"c0", "c1"}


def test_merged_circuit_matches_emitted_qasm(bell):
    model = line_model(3)
    sched = route_single(model, bell, [0, 1])
    direct, manifest = merged_circuit(sched, model, [bell])
    text, _ = emit_merged_qasm(sched, model, [bell])
    reparsed, _ = parse_merged_qasm(text)
    assert direct.gates == reparsed.gates
