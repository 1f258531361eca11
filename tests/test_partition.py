import numpy as np
import pytest

from qmpc import partition
from qmpc.circuits import Gate, QuantumCircuit
from qmpc.config import RunConfig
from qmpc.errors import PartitionError, PartitionSizeError
from qmpc.hardware import build_crosstalk, build_hardware, extract_strong_crosstalk
from qmpc.partition import (
    allocate_all,
    connected_k_subsets,
    crosstalk_adjust,
    fidelity_degree,
    gsp_partition,
    qhsp_partition,
    region_table,
    score,
    starting_points,
)
from qmpc.presets import line_topology, ring_topology, star_topology, uniform_calibration

from oracles import connected_subsets_brute


def cx_circuit(cid: str, n: int, pairs) -> QuantumCircuit:
    return QuantumCircuit(cid, n, 0, tuple(Gate("cx", p) for p in pairs))


def chain(n):
    # 0-1, 1-2, ... keeps every circuit routable on a line
    return [(i, i + 1) for i in range(n - 1)]


# --- scoring -------------------------------------------------------------------


def test_score_substitution():
    model = build_hardware(
        {"num_qubits": 2, "edges": [[0, 1]]},
        {"cnot_errors": [[0, 1, 0.01]], "readout_errors": [0.02, 0.03]},
    )
    circuit = cx_circuit("c", 2, [(0, 1)] * 5)
    adjusted = {(0, 1): 0.01}
    assert score(model, (0, 1), circuit, adjusted, with_diameter=True) == pytest.approx(1 + 0.01 * 5 + 0.05)
    adjusted_up = {(0, 1): 0.03}
    assert score(model, (0, 1), circuit, adjusted_up, with_diameter=True) == pytest.approx(1 + 0.15 + 0.05)


def test_score_qhsp_is_gsp_minus_diameter(jakarta):
    circuit = cx_circuit("c", 3, [(0, 1), (1, 2)])
    from qmpc.hardware import subgraph_diameter

    for cand in gsp_partition(jakarta, circuit, set()):
        adjusted = crosstalk_adjust(jakarta, cand.qubits, set(), None)
        s_h = score(jakarta, cand.qubits, circuit, adjusted, with_diameter=False)
        assert cand.score == pytest.approx(s_h + subgraph_diameter(jakarta, cand.qubits))


def test_diameter_dominates_small_errors():
    # triangle 0-1-2 plus tail 3: any 3-qubit line region must lose to the triangle
    topo = {"num_qubits": 4, "edges": [[0, 1], [1, 2], [0, 2], [2, 3]]}
    cal = {
        "cnot_errors": [[0, 1, 0.1], [1, 2, 0.1], [0, 2, 0.1], [2, 3, 0.001]],
        "readout_errors": [0.05, 0.05, 0.05, 0.001],
    }
    model = build_hardware(topo, cal)
    circuit = cx_circuit("c", 3, [(0, 1)] * 5)
    cands = {tuple(sorted(p.qubits)): p.score for p in gsp_partition(model, circuit, set())}
    triangle = cands[(0, 1, 2)]
    for qubits, score in cands.items():
        if qubits != (0, 1, 2):
            assert score > triangle


# --- exhaustive search -----------------------------------------------------------


def test_gsp_two_qubit_on_line():
    topo = line_topology(3)
    cal = {"cnot_errors": [[0, 1, 0.02], [1, 2, 0.005]], "readout_errors": [0.01] * 3}
    model = build_hardware(topo, cal)
    cands = gsp_partition(model, cx_circuit("c", 2, [(0, 1)]), set())
    assert [p.qubits for p in cands] == [(1, 2), (0, 1)]  # lower-error edge first


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
    cands = qhsp_partition(valencia_ranked, circuit, set())
    # one candidate per starting point, scored by readout alone
    for p in cands:
        assert p.score == pytest.approx(float(valencia_ranked.readout_error[p.qubits[0]]))


def test_qhsp_tie_break_on_error_free_ring():
    topo = ring_topology(6)
    model = build_hardware(topo, uniform_calibration(topo, cnot=0.0, readout=0.01))
    circuit = cx_circuit("c", 3, [(0, 1), (1, 2)])
    cands = qhsp_partition(model, circuit, set())
    scores = {p.score for p in cands}
    assert len(scores) == 1  # fully symmetric: every candidate ties
    assert tuple(sorted(cands[0].qubits)) == (0, 1, 2)  # lexicographic winner


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


def test_allocate_rejects_unsorted_input(line5):
    dense = cx_circuit("dense", 2, [(0, 1)] * 8)
    sparse = cx_circuit("sparse", 2, [(0, 1)] * 2)
    with pytest.raises(PartitionError, match="density"):
        allocate_all(line5, [sparse, dense], RunConfig(method="gsp"))


def test_allocations_disjoint_and_connected(guadalupe):
    from qmpc.hardware import subgraph_diameter

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
    adjusted = crosstalk_adjust(guadalupe, choice.qubits, set(), None)
    rescored = score(guadalupe, choice.qubits, circuit, adjusted, with_diameter=True)
    assert best_gsp.score <= rescored + 1e-12
