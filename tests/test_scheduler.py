import numpy as np
import pytest

from qmpc import presets
from qmpc.circuits import CX, MEASURE, Gate, QuantumCircuit, build_dag, parse_merged_qasm, parse_qasm
from qmpc.errors import RoutingError
from qmpc.hardware import build_hardware, distance_matrices
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.scheduler import (
    BRIDGE,
    SWAP,
    Route,
    TentativeGate,
    _emit_ready,
    _forced_path_route,
    _Job,
    _Tables,
    cost_h,
    emit_merged_qasm,
    find_swap_bridge_pairs,
    initial_mapping,
    mapping_transition,
    merged_circuit,
)
from qmpc.presets import line_topology, uniform_calibration
from qmpc.verify import check_equivalence


def line_model(n, cnot=0.01, readout=0.02):
    topo = line_topology(n)
    return build_hardware(topo, uniform_calibration(topo, cnot=cnot, readout=readout))


def tables(model, circuit, qubits, dist=None, config=RunConfig()):
    dist = distance_matrices(model) if dist is None else dist
    return _Tables(model, circuit, tuple(qubits), dist, config)


def route_single(model, circuit, l2p, config=RunConfig(), **kw):
    return mapping_transition(tables(model, circuit, sorted(l2p), config=config), list(l2p), **kw)


def route_solo(model, D, specs):
    """Each circuit routed alone from its placement, with default settings."""
    return [mapping_transition(_Tables(model, c, region, D, RunConfig()), l2p) for c, region, l2p in specs]


def emitted(routes, model):
    """The gates of the routes' merged circuit, clbits in route order."""
    merged, _ = merged_circuit(routes, model)
    return merged.gates


# --- initial mapping -----------------------------------------------------------


def test_initial_mapping_trivial_two_qubits():
    model = line_model(2)
    circuit = QuantumCircuit("c", 2, 0, (Gate(CX, (0, 1)),))
    D = distance_matrices(model)
    l2p, _ = initial_mapping(model, D, (0, 1), circuit, np.random.default_rng(0))
    route = route_single(model, circuit, l2p)
    assert route.additional_cnots == 0


def test_initial_mapping_finds_zero_insertion_layout():
    # CXs (0,1) and (1,2): placing logical 1 on the line's middle needs no swaps;
    # exhaustive check over all 6 bijections confirms such layouts exist
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 1)), Gate(CX, (1, 2))))
    D = distance_matrices(model)
    from itertools import permutations

    zero_layouts = []
    for perm in permutations([0, 1, 2]):
        route = mapping_transition(tables(model, circuit, [0, 1, 2], D), list(perm))
        if route.additional_cnots == 0:
            zero_layouts.append(perm)
    assert zero_layouts  # oracle: some bijection needs no insertions
    l2p, _ = initial_mapping(model, D, (0, 1, 2), circuit, np.random.default_rng(1))
    assert l2p[1] == 1
    assert tuple(l2p) in zero_layouts


def test_initial_mapping_deterministic_under_seed():
    model = line_model(4)
    circuit = QuantumCircuit("c", 4, 0, tuple(Gate(CX, ((i * 2) % 4, (i * 2 + 3) % 4)) for i in range(5)))
    D = distance_matrices(model)
    runs = [
        initial_mapping(model, D, (0, 1, 2, 3), circuit, np.random.default_rng(42))[0]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --- candidate generation --------------------------------------------------------


def _job_for(model, circuit, l2p, partition, config=RunConfig()):
    return _Job(tables(model, circuit, partition, config=config), l2p)


def test_candidates_distance_two():
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 2)),))
    job = _job_for(model, circuit, [0, 1, 2], [0, 1, 2])
    cands = find_swap_bridge_pairs(job, _emit_ready(job, []))
    swaps = [c for c in cands if c.kind == SWAP]
    bridges = [c for c in cands if c.kind == BRIDGE]
    assert {c.qubits for c in swaps} == {(0, 1), (1, 2)}
    assert [c.qubits for c in bridges] == [(0, 1, 2)]


def test_candidates_distance_three_no_bridge():
    model = line_model(4)
    circuit = QuantumCircuit("c", 4, 0, (Gate(CX, (0, 3)),))
    job = _job_for(model, circuit, [0, 1, 2, 3], [0, 1, 2, 3])
    cands = find_swap_bridge_pairs(job, _emit_ready(job, []))
    assert all(c.kind == SWAP for c in cands)
    assert {c.qubits for c in cands} == {(0, 1), (2, 3)}


def test_swap_only_candidates_are_the_default_swaps_and_no_bridge():
    # two blocked CNOTs, each two apart: the default offers a bridge for each
    model = line_model(5)
    circuit = QuantumCircuit("c", 5, 0, (Gate(CX, (0, 2)), Gate(CX, (3, 1))))
    default, swap_only = (_job_for(model, circuit, range(5), range(5), RunConfig(swap_only=s)) for s in (False, True))
    full = find_swap_bridge_pairs(default, _emit_ready(default, []))
    only = find_swap_bridge_pairs(swap_only, _emit_ready(swap_only, []))
    assert [c.qubits for c in full if c.kind == BRIDGE] == [(0, 1, 2), (3, 2, 1)]
    assert [c.kind for c in only] == [SWAP] * len(only)
    assert [c.qubits for c in only] == [c.qubits for c in full if c.kind == SWAP]


@pytest.mark.parametrize("swap_only", [False, True])
def test_prebuilt_candidates_match_the_reference_at_every_repair(monkeypatch, circuit_factory, guadalupe, swap_only):
    # at every repair of a routed random circuit: find_swap_bridge_pairs
    # offers the first router's candidates, and _repair scores exactly
    # those left after the ban on recently swapped edges
    import qmpc.scheduler as sched_mod
    from oracles import _ref_candidates, _RefJob
    from qmpc.partition import qhsp_partition

    circuit = circuit_factory(np.random.default_rng(6), "c", n_qubits=6, max_gates=80)
    region = qhsp_partition(guadalupe, circuit, set())[0].qubits
    repair, cost, scored, checked = sched_mod._repair, sched_mod.cost_h, [], []

    def keys(cands):
        return {(c.kind, c.qubits) for c in cands}

    def scoring(tentative, *args):
        scored.append(tentative)
        return cost(tentative, *args)

    def checking(job, front, records):
        ref = _RefJob(guadalupe, job.tables.circuit, build_dag(job.tables.circuit), region, job.l2p, 0)
        ref.front = set(job.front)
        expected = {(kind, qubits) for kind, qubits in keys(_ref_candidates(ref)) if kind == SWAP or not swap_only}
        assert keys(find_swap_bridge_pairs(job, front)) == expected
        unbanned = {(kind, qubits) for kind, qubits in expected if kind != SWAP or qubits not in job.stall}
        scored.clear()
        repair(job, front, records)
        assert keys(scored) == (unbanned or expected)
        checked.append(unbanned != expected)  # the ban removed a candidate

    monkeypatch.setattr(sched_mod, "cost_h", scoring)
    monkeypatch.setattr(sched_mod, "_repair", checking)
    rng = np.random.default_rng(0)
    for _ in range(3):
        l2p = [int(p) for p in rng.permutation(sorted(region))]
        route_single(guadalupe, circuit, l2p, RunConfig(swap_only=swap_only))
    assert len(checked) > 50 and any(checked)


def test_each_candidate_keeps_its_own_cnot_cost(circuit_factory, guadalupe):
    from qmpc.partition import qhsp_partition

    D = distance_matrices(guadalupe)
    circuit = circuit_factory(np.random.default_rng(6), "c", n_qubits=6, max_gates=40)
    region = qhsp_partition(guadalupe, circuit, set())[0].qubits
    t = _Tables(guadalupe, circuit, region, D, RunConfig())
    candidates = [*t.swap_gates.values(), *(b for bridges in t.bridge_gates.values() for b in bridges)]
    assert {c.kind for c in candidates} == {SWAP, BRIDGE}
    for cand in candidates:
        total = 0
        for p, q in cand.cnot_pairs:
            total += D[p][q]
        assert cand.self_term == total


# --- cost function ----------------------------------------------------------------


def test_cost_formula_single_gate_empty_lookahead():
    model = line_model(3)
    D = distance_matrices(model)
    l2p = [0, 1, 2]
    p2l = {0: 0, 1: 1, 2: 2}
    front = [(0, 0, 2)]  # node 0: CX(l0, l2) at physical (0, 2)
    swap = TentativeGate(SWAP, (1, 2), dist=D)
    # post-swap the gate sits on (0, 1); the swap itself burns 3 CNOTs on (1, 2)
    expected = (D[0][1] + 3 * D[1][2]) / 4
    assert cost_h(swap, front, [], D, l2p, p2l) == pytest.approx(expected, abs=1e-15)
    bridge = TentativeGate(BRIDGE, (0, 1, 2), dist=D)
    expected_b = (2 * D[0][1] + 2 * D[1][2]) / 5
    assert cost_h(bridge, front, [], D, l2p, p2l) == pytest.approx(expected_b, abs=1e-15)


def test_cost_ignores_lookahead_when_weight_zero():
    model = line_model(4)
    D = distance_matrices(model)
    l2p = [0, 1, 2, 3]
    p2l = {i: i for i in range(4)}
    front = [(0, 0, 1)]
    swap = TentativeGate(SWAP, (0, 1), dist=D)
    with_ext = cost_h(swap, front, [(2, 3)], D, l2p, p2l, weight_w=0.0)
    without = cost_h(swap, front, [], D, l2p, p2l, weight_w=0.0)
    assert with_ext == without


def test_swap_wins_exactly_when_it_helps_lookahead():
    # 5-qubit line, F = CX(l0,l1) at (0,2).  With lookahead CX(l0,l2) at
    # distance 3, SWAP(0,1) shortens it and beats the bridge; with no
    # lookahead the bridge's cheaper self-cost wins.
    model = line_model(5)
    D = distance_matrices(model)
    l2p = [0, 2, 3, 4, 1]  # l0->0, l1->2, l2->3, l3->4, l4->1
    p2l = {p: l for l, p in enumerate(l2p)}
    front = [(0, 0, 1)]
    swap01 = TentativeGate(SWAP, (0, 1), dist=D)
    bridge = TentativeGate(BRIDGE, (0, 1, 2), dist=D)
    ext = [(0, 2)]  # CX(l0, l2) at (0,3) now, (1,3) after the swap
    h_swap = cost_h(swap01, front, ext, D, l2p, p2l)
    h_bridge = cost_h(bridge, front, ext, D, l2p, p2l)
    assert h_swap == pytest.approx(D[0][1] + 0.5 * D[1][3], abs=1e-15)
    assert h_bridge == pytest.approx(4 * D[0][1] / 5 + 0.5 * D[0][3], abs=1e-15)
    assert h_swap < h_bridge
    # remove the lookahead benefit: bridge preferred
    assert cost_h(bridge, front, [], D, l2p, p2l) < cost_h(swap01, front, [], D, l2p, p2l)


def test_self_cost_ablation_changes_choice():
    model = line_model(5)
    D = distance_matrices(model)
    l2p = [0, 2, 3, 4, 1]
    p2l = {p: l for l, p in enumerate(l2p)}
    front = [(0, 0, 1)]
    ext = [(0, 2)]
    swap01 = TentativeGate(SWAP, (0, 1), dist=D)
    bridge = TentativeGate(BRIDGE, (0, 1, 2), dist=D)

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
    D = distance_matrices(model)
    l2p = [0, 1, 2]
    p2l = {0: 0, 1: 1, 2: 2}
    front = [(0, 0, 2)]
    swap = TentativeGate(SWAP, (1, 2), dist=D)
    bridge = TentativeGate(BRIDGE, (0, 1, 2), dist=D)
    ext = [(2, 0), (0, 1)]
    lookahead = 0.5 * (D[0][1] + D[0][2]) / 2
    h_swap = cost_h(swap, front, ext, D, l2p, p2l)
    h_bridge = cost_h(bridge, front, ext, D, l2p, p2l)
    assert h_swap == pytest.approx((D[0][1] + 3 * D[1][2]) / 4 + lookahead, abs=1e-15)
    # the bridge's four CNOTs are charged once more for the one repeat
    assert h_bridge == pytest.approx(2 * (2 * D[0][1] + 2 * D[1][2]) / 5 + lookahead, abs=1e-15)
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
        full = route_single(model, circuit, perm).additional_cnots
        swap_only = route_single(model, circuit, perm, RunConfig(swap_only=True)).additional_cnots
        assert full <= swap_only, (perm, full, swap_only)


# --- transition -----------------------------------------------------------------


def test_compliant_circuit_passes_through(bell):
    model = line_model(2)
    route = route_single(model, bell, [0, 1])
    assert route.additional_cnots == 0
    assert len(emitted([route], model)) == len(bell.gates)


def test_isolated_distance_two_uses_bridge():
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 1)),))
    route = route_single(model, circuit, [0, 2, 1])  # l0->0, l1->2: blocked at distance 2
    assert route.bridges == 1
    assert route.swaps == 0
    assert route.additional_cnots == 3
    # mapping unchanged by a bridge
    assert route.final_l2p == [0, 2, 1]


def test_accounting_identity_on_random_circuits(circuit_factory, guadalupe):
    D = distance_matrices(guadalupe)
    rng = np.random.default_rng(9)
    for trial in range(5):
        circuit = circuit_factory(rng, f"c{trial}", n_qubits=4)
        from qmpc.partition import qhsp_partition

        region = qhsp_partition(guadalupe, circuit, set())[0].qubits
        l2p, _ = initial_mapping(guadalupe, D, region, circuit, np.random.default_rng(trial))
        route = mapping_transition(_Tables(guadalupe, circuit, region, D, RunConfig()), l2p)
        emitted_cx = sum(1 for g in emitted([route], guadalupe) if g.kind == CX)
        assert emitted_cx == circuit.cnot_count + route.additional_cnots
        assert route.additional_cnots == 3 * (route.swaps + route.bridges)


def test_extended_layer_returns_at_most_size_lookahead_cnots(circuit_factory):
    model = line_model(4)
    circuit = circuit_factory(np.random.default_rng(3), "c", n_qubits=4)

    def extended_layer(size):
        return _job_for(model, circuit, [0, 1, 2, 3], [0, 1, 2, 3], RunConfig(ext_layer=size)).extended_layer()

    full = extended_layer(len(circuit.gates))
    assert len(full) >= 2
    assert extended_layer(0) == []
    for size in range(1, len(full) + 1):
        assert extended_layer(size) == full[:size]


def recording_jobs(monkeypatch):
    """Route through ``_Job``s that record, in ``job.retired``, each node
    that ``mark_executed`` retires; return the list of jobs made."""
    import qmpc.scheduler as sched_mod

    made = []

    class Recording(_Job):
        def __init__(self, tables, l2p):
            super().__init__(tables, l2p)
            self.retired = set()
            made.append(self)

        def mark_executed(self, node):
            self.retired.add(node)
            return super().mark_executed(node)

    monkeypatch.setattr(sched_mod, "_Job", Recording)
    return made


def test_extended_layer_matches_a_naive_scan_at_every_routing_step(monkeypatch, circuit_factory, guadalupe):
    from oracles import naive_extended_layer
    from qmpc.partition import qhsp_partition

    original = _Job.extended_layer
    checked = []
    recording_jobs(monkeypatch)

    def checking(job):
        got = original(job)
        assert got == naive_extended_layer(job.tables.circuit, job.retired, job.front, job.tables.config.ext_layer)
        checked.append(job.tables.config.ext_layer)
        return got

    monkeypatch.setattr(_Job, "extended_layer", checking)
    D = distance_matrices(guadalupe)
    rng = np.random.default_rng(11)
    for trial in range(3):
        circuit = circuit_factory(rng, f"c{trial}", n_qubits=6, max_gates=60)
        region = qhsp_partition(guadalupe, circuit, set())[0].qubits
        for size in (1, 3, 20):
            config = RunConfig(attempts=3, ext_layer=size)
            initial_mapping(guadalupe, D, region, circuit, np.random.default_rng(trial), config)
    assert len(checked) > 100


@pytest.mark.parametrize("swap_only", [False, True])
def test_front_and_end_of_a_trial_follow_its_retired_nodes(monkeypatch, circuit_factory, guadalupe, swap_only):
    # at the start of every round and at the end of every trial, the front
    # is exactly the unretired nodes whose predecessors have all retired; a
    # round runs only while a node is left, and a trial that is not aborted
    # ends with every node retired
    import qmpc.scheduler as sched_mod
    from qmpc.partition import qhsp_partition

    jobs = recording_jobs(monkeypatch)
    emit, route, rounds, ends = sched_mod._emit_ready, sched_mod.mapping_transition, [], []

    def derived_front(job):
        successors = job.tables.successors
        unretired = [node for node in range(len(successors)) if node not in job.retired]
        waiting = {succ for node in unretired for succ in successors[node]}
        return {node for node in unretired if node not in waiting}

    def checking(job, records):
        assert job.front == derived_front(job)
        assert len(job.retired) < len(job.tables.circuit.gates)
        rounds.append(job)
        return emit(job, records)

    def routing(*args, **kwargs):
        trial = route(*args, **kwargs)
        job = jobs[-1]
        assert job.front == derived_front(job)
        assert trial.aborted == (len(job.retired) < len(job.tables.circuit.gates))
        ends.append(trial.aborted)
        return trial

    monkeypatch.setattr(sched_mod, "_emit_ready", checking)
    monkeypatch.setattr(sched_mod, "mapping_transition", routing)
    D = distance_matrices(guadalupe)
    rng = np.random.default_rng(12)
    for trial in range(3):
        circuit = circuit_factory(rng, f"c{trial}", n_qubits=6, max_gates=60)
        region = qhsp_partition(guadalupe, circuit, set())[0].qubits
        for size in (0, 1, 3, 20):
            config = RunConfig(attempts=3, ext_layer=size, swap_only=swap_only)
            initial_mapping(guadalupe, D, region, circuit, np.random.default_rng(trial), config)
    assert len(rounds) > 100 and len(ends) == 3 * 4 * 3
    assert any(ends) and not all(ends)


@pytest.mark.parametrize("swap_only", [False, True])
def test_each_round_hands_its_repair_the_blocked_front_emission_leaves(monkeypatch, circuit_factory, guadalupe, swap_only):
    # at every round of routes from random placements, _emit_ready returns
    # the front it leaves in node order: only CNOTs whose mapped operands
    # are not coupled, and nothing exactly when every node has retired
    import qmpc.scheduler as sched_mod
    from qmpc.partition import qhsp_partition

    jobs = recording_jobs(monkeypatch)
    emit, fronts = sched_mod._emit_ready, []

    def checking(job, records):
        front = emit(job, records)
        tables = job.tables
        assert front == [(n, *tables.cx_operands[n]) for n in sorted(job.front)]
        for node, control, target in front:
            assert tables.circuit.gates[node].kind == CX
            assert job.l2p[target] not in tables.adjacency[job.l2p[control]]
        assert (front == []) == (len(job.retired) == len(tables.circuit.gates))
        fronts.append(front)
        return front

    monkeypatch.setattr(sched_mod, "_emit_ready", checking)
    rng = np.random.default_rng(13)
    routes = 0
    for trial in range(3):
        circuit = circuit_factory(rng, f"c{trial}", n_qubits=int(rng.integers(4, 8)), max_gates=60)
        region = qhsp_partition(guadalupe, circuit, set())[0].qubits
        for _ in range(3):
            l2p = [int(p) for p in rng.permutation(sorted(region))]
            before = len(fronts)
            route = route_single(guadalupe, circuit, l2p, RunConfig(swap_only=swap_only))
            assert route.iterations == len(fronts) - before and fronts[-1] == []
            assert len(jobs[-1].retired) == len(circuit.gates)
            routes += 1
    assert routes == 9 and sum(1 for front in fronts if front) > 100


def checking_stalls(monkeypatch):
    """Check, around every emission, repair and forced path of a trial, that
    ``job.stall`` is a model's list: the edges of the SWAP repairs since a
    gate last retired, in order; the forced path runs exactly when the list
    holds ``2 * |region| + 4`` edges.  Return the counts of what was seen."""
    from collections import Counter

    import qmpc.scheduler as sched_mod

    emit, repair, force = sched_mod._emit_ready, sched_mod._repair, sched_mod._forced_path_route
    model, seen = {}, Counter()

    def limit(job):
        return 2 * len(job.tables.region) + 4

    def emitting(job, records):
        before, start = model.setdefault(job, []), len(records)
        front = emit(job, records)
        if len(records) > start:  # a round that emits any gate ends the stall
            seen["ended by an emission"] += bool(before)
            model[job] = []
        assert job.stall == model[job]
        return front

    def repairing(job, front, records):
        before, swaps, bridges = list(model[job]), job.swaps, job.bridges
        assert job.stall == before and len(before) < limit(job)
        repair(job, front, records)
        blocked = {node for node, _, _ in front}
        if job.swaps > swaps:  # a SWAP retires nothing and appends its edge
            assert job.front == blocked and job.bridges == bridges
            model[job] = before + [tuple(records[-3][1:])]
            seen["swap"] += 1
        else:  # a bridge retires its CNOT, which ends the stall at once
            assert job.bridges == bridges + 1 and len(blocked - job.front) == 1
            model[job] = []
            seen["ended by a bridge"] += bool(before)
        assert job.stall == model[job]

    def forcing(job, front, records):
        before = list(model[job])
        assert job.stall == before and len(before) == limit(job)
        force(job, front, records)
        assert job.stall == before  # the forced path retires nothing and adds no edge
        seen["forced"] += 1

    monkeypatch.setattr(sched_mod, "_emit_ready", emitting)
    monkeypatch.setattr(sched_mod, "_repair", repairing)
    monkeypatch.setattr(sched_mod, "_forced_path_route", forcing)
    return seen


def test_a_stall_is_the_swaps_since_a_gate_last_retired(monkeypatch, circuit_factory, guadalupe):
    # default settings bridge and swap; negative lookahead and swap-error
    # weights make retreat swaps look cheap, so trials stall and take the
    # forced path
    from qmpc.partition import qhsp_partition

    seen = checking_stalls(monkeypatch)
    rng = np.random.default_rng(14)
    hostile = RunConfig(weight_w=-1.0, alpha2=-1.0, attempts=3)
    for model, config in ((guadalupe, RunConfig(attempts=3)), (presets.model("toronto", seed=0), hostile)):
        D = distance_matrices(model, config.alpha1, config.alpha2)
        for trial in range(6):
            n = int(rng.integers(6, 13))
            if config is hostile:
                circuit = measured_cnots(rng, f"c{trial}", n, int(rng.integers(10, 30)))
            else:
                circuit = circuit_factory(rng, f"c{trial}", n_qubits=n, max_gates=60)
            region = qhsp_partition(model, circuit, set())[0].qubits
            initial_mapping(model, D, region, circuit, rng, config)
    assert seen["swap"] > 100 and seen["forced"] > 5
    assert seen["ended by an emission"] > 100 and seen["ended by a bridge"] > 100


def test_a_one_qubit_gate_ends_a_stall():
    # a gate that retires ends the stall whatever its kind; routing itself
    # emits one-qubit gates only after a CNOT, so the stall is set by hand
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate("h", (1,)), Gate(CX, (0, 2))))
    job = _Job(tables(model, circuit, range(3)), range(3))
    job.stall.append((0, 1))
    records = []
    assert _emit_ready(job, records) == [(1, 0, 2)]
    assert records == [(0, 1)] and job.stall == []


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
    region = qhsp_partition(guadalupe, circuit, set())[0].qubits
    D = distance_matrices(guadalupe)
    l2p, best = initial_mapping(guadalupe, D, region, circuit, np.random.default_rng(0))
    assert len(trials) == 10
    assert any(t.aborted for t in trials)
    assert not best.aborted and best in trials
    alone = route(_Tables(guadalupe, circuit, region, D, RunConfig()), l2p)
    assert (alone.records, alone.iterations) == (best.records, best.iterations)
    assert alone.additional_cnots == best.additional_cnots


def counting_gates(monkeypatch):
    """Count every ``Gate`` the scheduler builds from here on."""
    import qmpc.scheduler as sched_mod

    gate, built = sched_mod.Gate, []

    def counting(*args, **kwargs):
        built.append(args)
        return gate(*args, **kwargs)

    monkeypatch.setattr(sched_mod, "Gate", counting)
    return built


def test_placement_trials_build_no_gates(monkeypatch, circuit_factory, guadalupe):
    # trials keep compact records; only merged_circuit turns records into
    # gates, so no aborted or losing trial builds any
    import qmpc.scheduler as sched_mod
    from qmpc.partition import qhsp_partition

    route = sched_mod.mapping_transition
    trials = []

    def recording(*args, **kwargs):
        trials.append(route(*args, **kwargs))
        return trials[-1]

    monkeypatch.setattr(sched_mod, "mapping_transition", recording)
    built = counting_gates(monkeypatch)
    circuit = circuit_factory(np.random.default_rng(5), "c", n_qubits=6, max_gates=60)
    region = qhsp_partition(guadalupe, circuit, set())[0].qubits
    D = distance_matrices(guadalupe)
    _, best = initial_mapping(guadalupe, D, region, circuit, np.random.default_rng(0))
    assert len(trials) == 10 and any(t.aborted for t in trials)
    assert built == []
    gates = emitted([best], guadalupe)
    assert len(gates) == len(built) == len(best.records)  # one gate per record


def test_compile_builds_gates_only_for_the_merged_circuits(monkeypatch, circuit_factory, guadalupe):
    built = counting_gates(monkeypatch)
    rng = np.random.default_rng(8)
    circuits = [circuit_factory(rng, f"c{i}", n_qubits=n, max_gates=40) for i, n in enumerate((5, 4, 3))]
    result = compile_workloads(guadalupe, circuits, RunConfig(seed=2))
    # each plan's merged circuit is built twice: once for the checks and
    # the stats, once more by emit_merged_qasm
    assert len(built) == 2 * sum(len(compiled.merged.gates) for compiled in result.plans)


def test_compile_builds_one_dag_per_compiled_circuit(monkeypatch, circuit_factory, guadalupe):
    # the router builds each circuit's DAG once and shares it with every
    # placement trial
    import qmpc.scheduler as sched_mod

    built = []
    build = sched_mod.build_dag

    def counted(circuit):
        built.append(circuit.id)
        return build(circuit)

    monkeypatch.setattr(sched_mod, "build_dag", counted)
    rng = np.random.default_rng(8)
    circuits = [circuit_factory(rng, f"c{i}", n_qubits=n, max_gates=40) for i, n in enumerate((5, 4, 3, 2))]
    result = compile_workloads(guadalupe, circuits, RunConfig(seed=2))
    assert sorted(built) == sorted(c.id for compiled in result.plans for c in compiled.circuits)
    assert len(built) == len(circuits)


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 5])
def test_derived_placement_seed_is_the_spawned_child(seed):
    # compile_plan seeds circuit j of plan i with SeedSequence(seed,
    # spawn_key=(i, j)), which is the child spawning per plan, then per
    # circuit, gives
    for i, plan in enumerate(np.random.SeedSequence(seed).spawn(4)):
        for j, child in enumerate(plan.spawn(3)):
            derived = np.random.SeedSequence(seed, spawn_key=(i, j))
            assert derived.generate_state(4).tolist() == child.generate_state(4).tolist()


def test_partition_tables_are_not_kept_on_the_model(circuit_factory, guadalupe):
    from qmpc.partition import qhsp_partition

    def snapshot(model):
        return {name: (id(value), len(value) if isinstance(value, dict) else None) for name, value in vars(model).items()}

    D = distance_matrices(guadalupe)
    circuit = circuit_factory(np.random.default_rng(3), "c", n_qubits=5, max_gates=40)
    region = qhsp_partition(guadalupe, circuit, set())[0].qubits
    before = snapshot(guadalupe)
    initial_mapping(guadalupe, D, region, circuit, np.random.default_rng(0))
    assert snapshot(guadalupe) == before


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

    monkeypatch.setattr(sched_mod, "_emit_ready", lambda job, records: None)
    model = line_model(3)
    circuit = QuantumCircuit("c", 3, 0, (Gate(CX, (0, 2)),))
    D = distance_matrices(model)
    with pytest.raises(RoutingError, match="terminate"):
        sched_mod.mapping_transition(tables(model, circuit, [0, 1, 2], D, RunConfig(swap_only=True)), [0, 1, 2])


def test_stall_fallback_recovers_from_adversarial_costs():
    # same hostile matrix, default stall limit: the shortest-path fallback
    # must finish the route and keep the accounting identity intact
    model = line_model(6)
    circuit = QuantumCircuit("c", 6, 0, (Gate(CX, (0, 5)),))
    hostile = np.full((6, 6), 500.0)
    np.fill_diagonal(hostile, 0.0)
    for a, b in ((0, 1), (4, 5)):
        hostile[a, b] = hostile[b, a] = -1000.0
    route = mapping_transition(tables(model, circuit, range(6), hostile.tolist()), list(range(6)))
    emitted_cx = sum(1 for g in emitted([route], model) if g.kind == CX)
    assert emitted_cx == 1 + route.additional_cnots


@pytest.mark.parametrize("alpha2, escapes", [(-1.0, 1), (RunConfig.alpha2, 0)])
def test_stall_fallback_is_reached_through_the_settings(monkeypatch, circuit_factory, guadalupe, alpha2, escapes):
    # a negative swap-error weight makes retreat swaps look cheap; the
    # shortest-path fallback must then finish the route, and the merged
    # program must still be equivalent to its sources
    import qmpc.scheduler as sched_mod

    force, calls = sched_mod._forced_path_route, []

    def counting(job, front, records):
        calls.append(job.tables.circuit.id)
        return force(job, front, records)

    monkeypatch.setattr(sched_mod, "_forced_path_route", counting)
    rng = np.random.default_rng(9)
    circuits = [circuit_factory(rng, f"c{i}", 6, 40) for i in range(2)]
    result = compile_workloads(guadalupe, circuits, RunConfig(seed=1, alpha2=alpha2))
    assert len(calls) == escapes
    by_id = {c.id: c for c in circuits}
    for compiled in result.plans:
        sources = [by_id[cid] for cid in compiled.plan.selected]
        assert check_equivalence(sources, compiled.merged, compiled.manifest).passed


def measured_cnots(rng, cid, n, count):
    """``count`` random CNOTs on ``n`` qubits, then every qubit measured."""
    gates = [Gate(CX, tuple(int(q) for q in rng.choice(n, 2, replace=False))) for _ in range(count)]
    gates += [Gate(MEASURE, (q,), clbit=q) for q in range(n)]
    return QuantumCircuit(cid, n, n, tuple(gates))


def test_round_cap_admits_every_stall_escape():
    # the stall escape retires a gate at least once every 2 * |region| + 6
    # rounds, so a valid circuit may need that many rounds per gate; a cap of
    # ten rounds per gate stopped this 12-qubit circuit at 470 rounds
    model = presets.model("toronto", seed=0)
    rng = np.random.default_rng(26)
    circuit = measured_cnots(rng, "wide", 12, int(rng.integers(10, 40)))
    result = compile_workloads(model, [circuit], RunConfig(alpha2=-1.0))
    for compiled in result.plans:
        assert check_equivalence(compiled.circuits, compiled.merged, compiled.manifest).passed


def test_routing_rounds_stay_within_the_stall_bound(monkeypatch):
    # negative lookahead and swap-error weights make retreat swaps look
    # cheap, so trials stall and take the forced path; every trial, complete
    # or aborted, still ends within 2 * |region| + 6 rounds per gate
    import qmpc.scheduler as sched_mod
    from qmpc.partition import qhsp_partition

    route, force = sched_mod.mapping_transition, sched_mod._forced_path_route
    trials, forced = [], []

    def recording(tables, l2p, max_inserted=None):
        trials.append((route(tables, l2p, max_inserted), len(tables.region)))
        return trials[-1][0]

    def counting(job, front, records):
        forced.append(job.tables.circuit.id)
        return force(job, front, records)

    monkeypatch.setattr(sched_mod, "mapping_transition", recording)
    monkeypatch.setattr(sched_mod, "_forced_path_route", counting)
    model = presets.model("toronto", seed=0)
    config = RunConfig(weight_w=-1.0, alpha2=-1.0, attempts=3)
    D = distance_matrices(model, config.alpha1, config.alpha2)
    rng = np.random.default_rng(0)
    for i in range(6):
        n = int(rng.integers(6, 13))
        circuit = measured_cnots(rng, f"c{i}", n, int(rng.integers(10, 30)))
        region = qhsp_partition(model, circuit, set())[0].qubits
        initial_mapping(model, D, region, circuit, rng, config)
    assert len(trials) == 18 and len(forced) > 10
    for trial, size in trials:
        assert trial.iterations <= (2 * size + 6) * len(trial.circuit.gates)


def test_gap_to_the_optimum_does_not_grow(circuit_factory):
    # 30 seeded circuits of 4-5 qubits, half CNOTs, each in its alone region
    # of manhattan: the router added 21.4 CNOTs per circuit where the exact
    # optimum needs 16.9, a gap of 4.5 (135 in all) that may only shrink
    from oracles import optimal_added_cnots
    from qmpc.partition import qhsp_partition

    model = presets.model("manhattan", seed=1)
    D = distance_matrices(model)
    rng = np.random.default_rng(12)
    routed = optimum = 0
    for i in range(30):
        circuit = circuit_factory(rng, f"c{i}", n_qubits=int(rng.integers(4, 6)), max_gates=int(rng.integers(30, 61)))
        region = qhsp_partition(model, circuit, set())[0].qubits
        _, route = initial_mapping(model, D, region, circuit, np.random.default_rng(i))
        routed += route.additional_cnots
        optimum += optimal_added_cnots(model, region, circuit)
    assert optimum == 507
    assert routed - optimum <= 135


def test_forced_route_counts_swaps_once():
    # the shortest-path fallback on a distance-4 gate, then the gate it
    # unblocks: three swaps, each counted exactly once
    model = line_model(5)
    circuit = QuantumCircuit("c", 5, 0, (Gate(CX, (0, 4)),))
    job = _Job(tables(model, circuit, range(5)), range(5))
    records = []
    _forced_path_route(job, _emit_ready(job, records), records)
    assert _emit_ready(job, records) == []
    assert not job.front
    route = Route(circuit, records, 1, job.swaps, job.bridges, job.l2p)
    assert route.swaps == 3
    emitted_cx = sum(1 for g in emitted([route], model) if g.kind == CX)
    assert emitted_cx == 1 + route.additional_cnots == 10


def test_immediate_swap_revert_is_banned():
    # a cheap retreat edge beating the expensive approach edge used to
    # ping-pong; the revert ban must let routing finish instead
    topo = line_topology(4)
    cal = {
        "cnot_errors": [[0, 1, 0.001], [1, 2, 0.25], [2, 3, 0.25]],
        "readout_errors": [0.01] * 4,
    }
    model = build_hardware(topo, cal)
    D = distance_matrices(model)
    circuit = QuantumCircuit("c", 4, 0, (Gate(CX, (1, 3)),))
    route = mapping_transition(tables(model, circuit, [0, 1, 2, 3], D), [0, 1, 2, 3])
    emitted_cx = sum(1 for g in emitted([route], model) if g.kind == CX)
    assert emitted_cx == 1 + route.additional_cnots


def test_two_independent_circuits_match_solo_compilations():
    model = line_model(7)
    c1 = parse_qasm("qreg q[3]; creg c[3]; h q[0]; cx q[0],q[2]; cx q[1],q[2]; measure q -> c;", "one")
    c2 = parse_qasm("qreg q[3]; creg c[3]; cx q[0],q[1]; cx q[0],q[2]; t q[1]; measure q -> c;", "two")
    D = distance_matrices(model)
    p1, m1 = (0, 1, 2), [0, 1, 2]
    p2, m2 = (4, 5, 6), [5, 4, 6]
    solo1, solo2 = route_solo(model, D, [(c1, p1, m1), (c2, p2, m2)])
    joint = emitted([solo1, solo2], model)
    in_region = lambda region: [g for g in joint if set(g.qubits) <= set(region)]
    assert in_region(p1) == list(emitted([solo1], model))
    # the second circuit's bits follow the first's three
    shifted = [g if g.clbit is None else Gate(g.kind, g.qubits, g.params, g.clbit + 3) for g in emitted([solo2], model)]
    assert in_region(p2) == shifted
    assert len(joint) == len(shifted) + len(in_region(p1))


def test_partition_confinement():
    model = line_model(7)
    c1 = parse_qasm("qreg q[3]; creg c[3]; cx q[0],q[2]; cx q[1],q[0]; measure q -> c;", "one")
    c2 = parse_qasm("qreg q[3]; creg c[3]; cx q[0],q[2]; cx q[2],q[1]; measure q -> c;", "two")
    D = distance_matrices(model)
    part1, part2 = {0, 1, 2}, {4, 5, 6}
    routes = route_solo(
        model, D,
        [(c1, tuple(sorted(part1)), [0, 2, 1]),
         (c2, tuple(sorted(part2)), [4, 6, 5])],
    )
    owner = {"one": part1, "two": part2}
    merged, manifest = merged_circuit(routes, model)
    bits = {cid: set(manifest[cid]["clbits"]) for cid in owner}
    for g in merged.gates:
        (cid,) = [cid for cid, part in owner.items() if set(g.qubits) <= part]
        if g.kind == CX:
            assert model.has_edge(*g.qubits)
        if g.clbit is not None:
            assert g.clbit in bits[cid]
    for route in routes:
        assert set(route.final_l2p) == owner[route.circuit.id]


# --- merged output ----------------------------------------------------------------


def test_merged_single_gate_circuit_reparses():
    model = line_model(2)
    circuit = parse_qasm("qreg q[1]; h q[0];", "solo")
    route = route_single(model, circuit, [0])
    text = emit_merged_qasm([route], model)
    _, manifest = merged_circuit([route], model)
    parsed, layout = parse_merged_qasm(text)
    assert len(parsed.gates) == 1
    assert parsed.gates[0].kind == "h"
    assert manifest["solo"]["clbits"] == []


def test_merged_two_circuits_have_two_cregs(bell):
    model = line_model(5)
    other = parse_qasm("qreg q[2]; creg c[2]; x q[0]; cx q[0],q[1]; measure q -> c;", "other")
    D = distance_matrices(model)
    routes = route_solo(
        model, D,
        [(bell, (0, 1), [0, 1]),
         (other, (3, 4), [3, 4])],
    )
    text = emit_merged_qasm(routes, model)
    _, manifest = merged_circuit(routes, model)
    assert text.count("creg") == 2
    merged, layout = parse_merged_qasm(text)
    assert merged.num_clbits == 4
    assert manifest["bell"]["clbits"] == [0, 1]
    assert manifest["other"]["clbits"] == [2, 3]
    assert set(layout) == {"c0", "c1"}


def test_merged_circuit_matches_emitted_qasm(bell):
    model = line_model(3)
    route = route_single(model, bell, [0, 1])
    direct, manifest = merged_circuit([route], model)
    text = emit_merged_qasm([route], model)
    reparsed, _ = parse_merged_qasm(text)
    assert direct.gates == reparsed.gates


def test_bridges_lose_to_swap_only_on_at_most_44_of_criterion_5s_placements():
    # acceptance criterion 5 compares best-of-10 placements, so a placement
    # where bridges insert more CNOTs than swap-only hides behind a better
    # one.  Every placement its 37 instances draw, routed to completion both
    # ways: 44 of 490 lose, 111 win and 335 tie.  A change that moves the
    # count quotes the new one here.
    from dataclasses import replace

    from qmpc.manager import plan_all
    from qmpc.presets import synthetic_calibration, topology

    from helpers import random_circuit

    def device(name, seed):
        topo = topology(name)
        return build_hardware(topo, synthetic_calibration(topo, seed=seed))

    rng = np.random.default_rng(2024)  # the acceptance suite's workloads and seeds
    circuits = [random_circuit(rng, f"w{i:02d}") for i in range(25)]
    jakarta, guadalupe = device("jakarta", 1), device("guadalupe", 2)
    instances = [(jakarta, [c], RunConfig(seed=1000 + i)) for i, c in enumerate(circuits)]
    instances += [(guadalupe, circuits[i:i + 2], RunConfig(seed=2000 + i)) for i in range(0, 24, 2)]
    placements = losses = 0
    for model, members, config in instances:
        dist = distance_matrices(model, config.alpha1, config.alpha2)
        by_id = {c.id: c for c in members}
        swap_only = replace(config, swap_only=True)
        for index, plan in enumerate(plan_all(model, members, config)):
            for j, part in enumerate(plan.partitions):
                circuit = by_id[part.circuit_id]
                full, ablated = (_Tables(model, circuit, part.qubits, dist, c) for c in (config, swap_only))
                rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index, j)))
                for _ in range(config.attempts):  # each placement initial_mapping draws
                    l2p = [int(p) for p in rng.permutation(sorted(part.qubits))]
                    bridged, swapped = (mapping_transition(t, l2p).additional_cnots for t in (full, ablated))
                    placements += 1
                    losses += bridged > swapped
    assert placements == 490
    assert losses <= 44
