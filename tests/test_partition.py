import math

import numpy as np
import pytest

from qmpc import partition, presets
from qmpc.circuits import Gate, QuantumCircuit
from qmpc.config import RunConfig
from qmpc.errors import PartitionError, PartitionSizeError
from qmpc.hardware import build_crosstalk, build_hardware, extract_strong_crosstalk, subgraph_diameter
from qmpc.partition import (
    allocate_all,
    allocate_prefix,
    alone_region,
    connected_k_subsets,
    crosstalk_adjust,
    fidelity_degree,
    gsp_partition,
    qhsp_partition,
    region_row,
    region_table,
    score,
    starting_points,
)
from qmpc.pipeline import compile_workloads
from qmpc.presets import line_topology, ring_topology, star_topology, uniform_calibration

from helpers import random_circuit
from oracles import connected_subsets_brute, reference_gsp_partition, reference_qhsp_partition


def cx_circuit(cid: str, n: int, pairs) -> QuantumCircuit:
    return QuantumCircuit(cid, n, 0, tuple(Gate("cx", p) for p in pairs))


def chain(n):
    # 0-1, 1-2, ... keeps every circuit routable on a line
    return [(i, i + 1) for i in range(n - 1)]


# --- scoring -------------------------------------------------------------------


def test_score_substitution():
    # on a line 0-1-2-3, the one crosstalk entry raises (0, 1) to 0.03 while (2, 3) is in use
    model = build_hardware(
        {"num_qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        {"cnot_errors": [[0, 1, 0.01], [1, 2, 0.01], [2, 3, 0.01]], "readout_errors": [0.02, 0.03, 0.0, 0.0]},
    )
    circuit = cx_circuit("c", 2, [(0, 1)] * 5)
    row = region_row(model, (0, 1), 1)
    assert score(model, row, circuit, set(), set(), None) == pytest.approx(1 + 0.01 * 5 + 0.05)
    strong = build_crosstalk([{"gate": [0, 1], "conditioned_on": [2, 3], "error": 0.03}], model)
    assert score(model, row, circuit, {2, 3}, {(0, 1)}, strong) == pytest.approx(1 + 0.15 + 0.05)


def test_score_qhsp_is_gsp_minus_diameter(jakarta):
    circuit = cx_circuit("c", 3, [(0, 1), (1, 2)])
    for row in region_table(jakarta, 3):
        s_h = score(jakarta, region_row(jakarta, row.qubits, None), circuit, set(), set(), None)
        s_g = score(jakarta, row, circuit, set(), set(), None)
        assert s_g == pytest.approx(s_h + subgraph_diameter(jakarta, row.qubits))


def test_diameter_dominates_small_errors():
    # triangle 0-1-2 plus tail 3: any 3-qubit line region must lose to the triangle
    topo = {"num_qubits": 4, "edges": [[0, 1], [1, 2], [0, 2], [2, 3]]}
    cal = {
        "cnot_errors": [[0, 1, 0.1], [1, 2, 0.1], [0, 2, 0.1], [2, 3, 0.001]],
        "readout_errors": [0.05, 0.05, 0.05, 0.001],
    }
    model = build_hardware(topo, cal)
    circuit = cx_circuit("c", 3, [(0, 1)] * 5)
    cands = {tuple(sorted(p.qubits)): p.score for p in reference_gsp_partition(model, circuit, set())}
    triangle = cands[(0, 1, 2)]
    for qubits, score in cands.items():
        if qubits != (0, 1, 2):
            assert score > triangle
    assert [p.qubits for p in gsp_partition(model, circuit, set())] == [(0, 1, 2)]


# --- exhaustive search -----------------------------------------------------------


def test_gsp_two_qubit_on_line():
    topo = line_topology(3)
    cal = {"cnot_errors": [[0, 1, 0.02], [1, 2, 0.005]], "readout_errors": [0.01] * 3}
    model = build_hardware(topo, cal)
    circuit = cx_circuit("c", 2, [(0, 1)])
    cands = reference_gsp_partition(model, circuit, set())
    assert [p.qubits for p in cands] == [(1, 2), (0, 1)]  # lower-error edge first
    assert gsp_partition(model, circuit, set()) == cands[:1]


def test_gsp_walk_passes_a_raised_row_to_an_equal_score_with_a_lower_index():
    # line 0-...-5 with (4, 5) in use: crosstalk raises (2, 3), first in the
    # empty-device order, to exactly the error of (0, 1), next in that order;
    # the tie goes to the lower row index, so the walk must not stop at it
    topo = line_topology(6)
    errors = [0.02, 0.03, 0.01, 0.04, 0.04]
    cal = {"cnot_errors": [[i, i + 1, e] for i, e in enumerate(errors)], "readout_errors": [0.01] * 6}
    model = build_hardware(topo, cal)
    strong = build_crosstalk([{"gate": [2, 3], "conditioned_on": [4, 5], "error": 0.02}], model)
    circuit = cx_circuit("c", 2, [(0, 1)] * 3)
    assert [p.qubits for p in gsp_partition(model, circuit, set())] == [(2, 3)]
    [best] = gsp_partition(model, circuit, {4, 5}, strong)
    assert best == reference_gsp_partition(model, circuit, {4, 5}, strong)[0]
    assert best.qubits == (0, 1)


def test_gsp_whole_device_single_candidate(line5):
    cands = gsp_partition(line5, cx_circuit("c", 5, chain(5)), set())
    assert len(cands) == 1
    assert cands[0].qubits == (0, 1, 2, 3, 4)


def test_gsp_all_used_is_infeasible(line5):
    with pytest.raises(PartitionError):
        gsp_partition(line5, cx_circuit("c", 2, [(0, 1)]), set(range(5)))


def test_gsp_size_cap():
    topo = line_topology(12)
    model = build_hardware(topo, uniform_calibration(topo))
    with pytest.raises(PartitionSizeError, match="qhsp"):
        gsp_partition(model, cx_circuit("c", 9, chain(9)), set())


def test_region_table_is_built_once_per_model_and_size(guadalupe, toronto, monkeypatch):
    calls = []
    diameter = partition.subgraph_diameter

    def counted(model, qubits):
        calls.append(model)
        return diameter(model, qubits)

    monkeypatch.setattr(partition, "subgraph_diameter", counted)
    circuit = cx_circuit("c", 4, chain(4))
    gsp_partition(guadalupe, circuit, set())
    table = region_table(guadalupe, 4)
    assert len(calls) == len(table) > 0  # one diameter per row, on first use
    calls.clear()
    gsp_partition(guadalupe, circuit, {0, 1})
    assert calls == []
    assert region_table(guadalupe, 4) is table
    other = region_table(toronto, 4)
    assert other is not table and calls == [toronto] * len(other)
    assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
    hash(table)  # immutable all the way down


def _one_hop_crosstalk(model, error):
    """Every ordered pair of disjoint edges one hop apart, at ``error``."""
    pairs = [
        {"gate": list(gate), "conditioned_on": list(cond), "error": error}
        for gate in model.edges
        for cond in model.edges
        if not set(gate) & set(cond) and any(model.has_edge(a, b) for a in gate for b in cond)
    ]
    return build_crosstalk(pairs, model)


def test_gsp_order_is_built_once_per_model_size_and_cnot_count(guadalupe, toronto, monkeypatch):
    builds = []
    kept = partition.derived

    def counted(model, key, build):
        def recorded():
            builds.append((model, key))
            return build()

        return kept(model, key, recorded)

    monkeypatch.setattr(partition, "derived", counted)
    config = RunConfig(method="gsp")
    circuit = cx_circuit("c", 4, chain(4) * 2)
    twin = cx_circuit("d", 4, chain(4) * 2)
    key = ("gsp_order", 4, circuit.cnot_count)

    def orders_built():
        return [(model, key) for model, key in builds if key[0] == "gsp_order"]

    alone_region(guadalupe, circuit, config)
    order = guadalupe._memo[key]
    assert isinstance(order, tuple) and sorted(order) == list(range(len(region_table(guadalupe, 4))))
    parts, error = allocate_prefix(guadalupe, [circuit, twin], config)  # the twin's is a joint search
    assert error is None and len(parts) == 2
    assert orders_built() == [(guadalupe, key)] and guadalupe._memo[key] is order
    gsp_partition(guadalupe, cx_circuit("e", 4, chain(4)), set())
    gsp_partition(toronto, circuit, set())
    assert orders_built() == [(guadalupe, key), (guadalupe, ("gsp_order", 4, 3)), (toronto, key)]

    scored = []
    kept_score = partition.score

    def counted_score(*args):
        scored.append(args[1].qubits)
        return kept_score(*args)

    monkeypatch.setattr(partition, "score", counted_score)
    used = parts[0].qubit_set
    assert gsp_partition(guadalupe, twin, used) == [parts[1]]
    assert scored == []  # no strong pairs: the first free row in the order is the best
    strong = extract_strong_crosstalk(_one_hop_crosstalk(guadalupe, 0.5), guadalupe)
    assert gsp_partition(guadalupe, twin, used, strong) == reference_gsp_partition(guadalupe, twin, used, strong)[:1]
    assert 0 < len(scored) < len(order)  # hot rows are rescored, and the walk stops early


def test_gsp_compile_from_a_warm_memo_equals_a_cold_one():
    rng = np.random.default_rng(3)
    circuits = [random_circuit(rng, f"c{i}", n_qubits=int(rng.integers(2, 6))) for i in range(6)]
    config = RunConfig(method="gsp", seed=1, delta=math.inf)

    def compiled(model):
        result = compile_workloads(model, circuits, config, _one_hop_crosstalk(model, 0.5))
        return [(plan.plan, plan.qasm) for plan in result.plans]

    warm = presets.model("guadalupe", 2)
    cold = compiled(warm)
    assert any(key[0] == "gsp_order" for key in warm._memo)
    assert any(len(plan.partitions) > 1 for plan, _ in cold)  # joint searches ran
    assert compiled(warm) == cold == compiled(presets.model("guadalupe", 2))


def test_connected_subsets_match_brute_force(guadalupe):
    edges = [tuple(e) for e in guadalupe.edges]
    for k in (2, 3, 4):
        free = set(range(guadalupe.num_qubits))
        got = {frozenset(s) for s in connected_k_subsets(guadalupe, free, k)}
        assert got == connected_subsets_brute(guadalupe.num_qubits, edges, free, k)
    # and with some qubits occupied
    free = set(range(guadalupe.num_qubits)) - {0, 7, 12}
    got = {frozenset(s) for s in connected_k_subsets(guadalupe, free, 3)}
    assert got == connected_subsets_brute(guadalupe.num_qubits, edges, free, 3)


# toronto grows 27 + 28 + 37 + 48 + 68 + 96 + 143 + 214 connected subsets of 1 to 8 qubits
TORONTO_GROWN_TO_8 = 661


def test_region_budget_boundary(toronto, monkeypatch):
    free = set(range(toronto.num_qubits))
    monkeypatch.setattr(partition, "REGION_BUDGET", TORONTO_GROWN_TO_8)
    assert len(connected_k_subsets(toronto, free, 8)) == 214
    monkeypatch.setattr(partition, "REGION_BUDGET", TORONTO_GROWN_TO_8 - 1)
    with pytest.raises(PartitionSizeError, match="27-qubit device .* 660 connected regions of up to 8 qubits; .* qhsp"):
        connected_k_subsets(toronto, free, 8)


def test_dense_device_exhausts_the_region_budget():
    # a 65-qubit star holds C(64, 5) connected 6-qubit regions; growing them
    # stops at the budget instead of running for seconds, and 8 qubits,
    # C(64, 7) of them, would never end
    topo = star_topology(65)
    model = build_hardware(topo, uniform_calibration(topo))
    with pytest.raises(PartitionSizeError, match="65-qubit device .* qhsp"):
        gsp_partition(model, cx_circuit("c", 6, chain(6)), set())
    assert ("region_table", 6) not in model._memo


# --- fidelity degree and starting points ------------------------------------------


def test_fidelity_degree_single_neighbor():
    model = build_hardware(
        {"num_qubits": 2, "edges": [[0, 1]]},
        {"cnot_errors": [[0, 1, 0.01]], "readout_errors": [0.02, 0.0]},
    )
    assert fidelity_degree(model, 1.0)[0] == pytest.approx(0.99 + 0.98)


def test_fidelity_degree_error_free_lambda2():
    topo = star_topology(4)  # center 0 has three neighbours
    model = build_hardware(topo, uniform_calibration(topo, cnot=0.0, readout=0.0))
    assert fidelity_degree(model, 2.0)[0] == pytest.approx(3 * 2 * 1 + 1)


def test_fidelity_degree_ranking_on_valencia_fixture(valencia_ranked):
    values = fidelity_degree(valencia_ranked, 2.0)
    order = sorted(range(5), key=lambda q: -values[q])
    assert order[:4] == [1, 3, 0, 2]


def test_starting_points_valencia(valencia_ranked):
    circuit = cx_circuit("c", 4, [(0, 1), (0, 2), (0, 3)])  # largest logical degree 3
    assert starting_points(valencia_ranked, circuit) == [1]


def test_starting_points_fallback_on_line(line5):
    circuit = cx_circuit("c", 4, [(0, 1), (0, 2), (0, 3)])
    # no qubit of degree >= 3 on a line; fall back to max-degree qubits
    assert starting_points(line5, circuit) == [1, 2, 3]


def test_starting_points_star_degree_one():
    topo = star_topology(5)
    model = build_hardware(topo, uniform_calibration(topo))
    circuit = cx_circuit("c", 2, [(0, 1)])
    assert starting_points(model, circuit) == [0, 1, 2, 3, 4]


# --- heuristic search --------------------------------------------------------------


def test_qhsp_valencia_merge_order(valencia_ranked):
    circuit = cx_circuit("c", 4, [(0, 1), (0, 2), (0, 3)])
    cands = qhsp_partition(valencia_ranked, circuit, set())
    assert cands[0].qubits == (1, 3, 0, 2)  # merge order preserved
    assert cands[0].method == "QHSP"


def test_qhsp_single_qubit_circuit(valencia_ranked):
    circuit = QuantumCircuit("c", 1, 0, (Gate("h", (0,)),))
    cands = reference_qhsp_partition(valencia_ranked, circuit, set())
    # one candidate per starting point, scored by readout alone
    assert len(cands) == valencia_ranked.num_qubits
    for p in cands:
        assert p.score == pytest.approx(float(valencia_ranked.readout_error[p.qubits[0]]))
    [best] = qhsp_partition(valencia_ranked, circuit, set())
    assert best == cands[0] and best.score == min(valencia_ranked.readout_error)


def test_qhsp_tie_break_on_error_free_ring():
    topo = ring_topology(6)
    model = build_hardware(topo, uniform_calibration(topo, cnot=0.0, readout=0.01))
    circuit = cx_circuit("c", 3, [(0, 1), (1, 2)])
    cands = reference_qhsp_partition(model, circuit, set())
    scores = {p.score for p in cands}
    assert len(cands) > 1 and len(scores) == 1  # fully symmetric: every candidate ties
    [best] = qhsp_partition(model, circuit, set())
    assert tuple(sorted(best.qubits)) == (0, 1, 2)  # lexicographic winner


def test_qhsp_respects_used_qubits(valencia_ranked):
    circuit = cx_circuit("c", 2, [(0, 1)])
    cands = qhsp_partition(valencia_ranked, circuit, {1})
    for p in cands:
        assert 1 not in p.qubits


def test_qhsp_infeasible_when_blocked(line5):
    with pytest.raises(PartitionError):
        qhsp_partition(line5, cx_circuit("c", 3, chain(3)), {0, 2, 4})


# --- crosstalk adjustment ------------------------------------------------------------


def _crosstalk_fixture():
    # path 0-1-2-3-4-5; good outer edges, bad connectors
    topo = {"num_qubits": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]}
    cal = {
        "cnot_errors": [[0, 1, 0.005], [1, 2, 0.3], [2, 3, 0.01], [3, 4, 0.3], [4, 5, 0.01]],
        "readout_errors": [0.01, 0.01, 0.02, 0.02, 0.02, 0.02],
    }
    model = build_hardware(topo, cal)
    pairs = [{"gate": [2, 3], "conditioned_on": [0, 1], "error": 0.04}]  # 4x the solo 0.01
    strong = extract_strong_crosstalk(build_crosstalk(pairs, model), model)
    assert len(strong) == 1
    return model, strong


def test_adjust_identity_without_allocations():
    model, strong = _crosstalk_fixture()
    adjusted = crosstalk_adjust(model, {2, 3}, set(), strong)
    assert adjusted == {(2, 3): 0.01}


def test_adjust_replaces_error_when_conditioner_allocated():
    model, strong = _crosstalk_fixture()
    adjusted = crosstalk_adjust(model, {2, 3}, {0, 1}, strong)
    assert adjusted == {(2, 3): 0.04}


def test_adjust_ignores_free_conditioner():
    model, strong = _crosstalk_fixture()
    adjusted = crosstalk_adjust(model, {2, 3}, {0}, strong)  # edge (0,1) only half-used
    assert adjusted == {(2, 3): 0.01}


def test_crosstalk_steers_selection_away():
    model, strong = _crosstalk_fixture()
    first = cx_circuit("busy", 2, [(0, 1)] * 6)
    second = cx_circuit("calm", 2, [(0, 1)] * 4)
    with_xtalk = allocate_all(model, [first, second], RunConfig(method="qhsp"), strong_pairs=strong)
    assert with_xtalk[0].qubit_set == {0, 1}
    assert with_xtalk[1].qubit_set == {4, 5}  # steered off the adjusted (2,3) edge
    without = allocate_all(model, [first, second], RunConfig(method="qhsp"), strong_pairs=None)
    assert without[1].qubit_set == {2, 3}  # tie broken lexicographically


# --- allocation ----------------------------------------------------------------------


def test_allocate_single_equals_partition(line5):
    circuit = cx_circuit("c", 2, [(0, 1)])
    alone = gsp_partition(line5, circuit, set())[0]
    assert allocate_all(line5, [circuit], RunConfig(method="gsp"))[0] == alone


def test_allocate_two_on_line_respects_density_priority():
    topo = line_topology(4)
    cal = {
        "cnot_errors": [[0, 1, 0.01], [1, 2, 0.02], [2, 3, 0.03]],
        "readout_errors": [0.01] * 4,
    }
    model = build_hardware(topo, cal)
    dense = cx_circuit("dense", 2, [(0, 1)] * 8)
    sparse = cx_circuit("sparse", 2, [(0, 1)] * 2)
    parts = allocate_all(model, [dense, sparse], RunConfig(method="gsp"))
    assert parts[0].qubit_set == {0, 1}  # densest picks the best edge first
    assert parts[1].qubit_set == {2, 3}


def test_allocate_prefix_gives_the_best_edge_to_whichever_circuit_comes_first():
    # ordering a batch is the manager's: the partitioner allocates in the
    # order given, so the sparse circuit first takes the best edge (0, 1)
    topo = line_topology(4)
    cal = {
        "cnot_errors": [[0, 1, 0.01], [1, 2, 0.02], [2, 3, 0.03]],
        "readout_errors": [0.01] * 4,
    }
    model = build_hardware(topo, cal)
    dense = cx_circuit("dense", 2, [(0, 1)] * 8)
    sparse = cx_circuit("sparse", 2, [(0, 1)] * 2)
    for first, second in ((sparse, dense), (dense, sparse)):
        parts, error = allocate_prefix(model, [first, second], RunConfig(method="gsp"))
        assert error is None
        assert [(p.circuit_id, p.qubit_set) for p in parts] == [(first.id, {0, 1}), (second.id, {2, 3})]
        assert parts[0] == alone_region(model, first, RunConfig(method="gsp"))


def test_oversize_batch_raises_from_the_first_circuit_without_room(line5):
    # capacity is the manager's rule: allocate_all runs the batch until a
    # circuit finds no free qubits and raises that circuit's error
    circuits = [cx_circuit(cid, 2, [(0, 1)]) for cid in "abc"]
    with pytest.raises(PartitionError, match="only 1 free qubits for a 2-qubit circuit"):
        allocate_all(line5, circuits, RunConfig(method="gsp"))
    parts, error = allocate_prefix(line5, circuits, RunConfig(method="gsp"))
    assert len(parts) == 2 and isinstance(error, PartitionError)


def test_allocations_disjoint_and_connected(guadalupe):
    circuits = [
        cx_circuit("a", 4, [(0, 1), (1, 2), (2, 3)] * 3),
        cx_circuit("b", 3, [(0, 1), (1, 2)] * 2),
        cx_circuit("d", 3, [(0, 1), (1, 2)]),
    ]
    for method in ("gsp", "qhsp"):
        parts = allocate_all(guadalupe, circuits, RunConfig(method=method))
        seen: set[int] = set()
        for p in parts:
            assert not (seen & p.qubit_set)
            seen |= p.qubit_set
            subgraph_diameter(guadalupe, p.qubit_set)  # raises if disconnected


def test_gsp_dominates_qhsp_rescored(guadalupe):
    circuit = cx_circuit("c", 4, [(0, 1), (1, 2), (2, 3), (0, 2)] * 2)
    best_gsp = gsp_partition(guadalupe, circuit, set())[0]
    choice = qhsp_partition(guadalupe, circuit, set())[0]
    row = region_row(guadalupe, choice.qubits, subgraph_diameter(guadalupe, choice.qubits))
    rescored = score(guadalupe, row, circuit, set(), set(), None)
    assert best_gsp.score <= rescored + 1e-12
