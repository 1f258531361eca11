import json
import re

import numpy as np
import pytest

from qmpc.circuits import MAX_REGISTER_SIZE
from qmpc.errors import CalibrationError, CrosstalkError, DisconnectedGraphError, HardwareError
from qmpc.hardware import (
    build_crosstalk,
    build_hardware,
    distance_matrices,
    extract_strong_crosstalk,
    hop_count_matrix,
    subgraph_diameter,
    swap_error_matrix,
)
from qmpc.partition import fidelity_degree, region_table
from qmpc.presets import line_topology, synthetic_calibration, topology, uniform_calibration

from oracles import all_pairs_hops, best_swap_path_error, floyd_warshall


def test_load_two_qubit_line():
    model = build_hardware(
        {"num_qubits": 2, "edges": [[0, 1]]},
        {"cnot_errors": [[0, 1, 0.01]], "readout_errors": [0.02, 0.03]},
    )
    assert model.edge_error(1, 0) == 0.01
    assert model.readout_error == (0.02, 0.03)


def test_edge_index_out_of_range():
    with pytest.raises(Exception, match="outside"):
        build_hardware({"num_qubits": 5, "edges": [[0, 5]]}, {})


def test_isolated_qubit_rejected():
    topo = {"num_qubits": 3, "edges": [[0, 1]]}
    cal = {"cnot_errors": [[0, 1, 0.01]], "readout_errors": [0.01] * 3}
    with pytest.raises(DisconnectedGraphError):
        build_hardware(topo, cal)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([], "2000 components [[0], [1], [2], [3], [4], [5], [6], [7], [8], [9], ...]"),
        ([[q, q + 1] for q in range(1998)], "2 components [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...], [1999]]"),
    ],
)
def test_large_disconnected_device_gets_a_short_message(edges, message):
    # the components are labelled in one pass, and the message gives their
    # count and lists the first ten, with at most ten qubits each
    n = 2000
    with pytest.raises(DisconnectedGraphError) as info:
        build_hardware({"num_qubits": n, "edges": edges}, {"readout_errors": [0.01] * n})
    assert str(info.value) == f"coupling graph is disconnected: {message}"


@pytest.mark.parametrize("n", [0, MAX_REGISTER_SIZE + 1, 10**12])
def test_device_size_outside_the_cap_is_rejected(n):
    # checked before anything per qubit is built, so 10**12 qubits fail at
    # once instead of laying out an adjacency entry per qubit
    with pytest.raises(HardwareError, match=f"1 to {MAX_REGISTER_SIZE} qubits, got {n}"):
        build_hardware({"num_qubits": n, "edges": []}, {"readout_errors": []})


def test_device_at_the_size_cap_builds():
    topo = line_topology(MAX_REGISTER_SIZE)
    assert build_hardware(topo, uniform_calibration(topo)).num_qubits == MAX_REGISTER_SIZE


def test_disconnected_components_listed_by_smallest_qubit():
    topo = {"num_qubits": 4, "edges": [[3, 1]]}
    cal = {"cnot_errors": [[1, 3, 0.01]], "readout_errors": [0.01] * 4}
    with pytest.raises(DisconnectedGraphError, match=re.escape("components [[0], [1, 3], [2]]")):
        build_hardware(topo, cal)


def test_missing_cnot_error_named():
    topo = {"num_qubits": 3, "edges": [[0, 1], [1, 2]]}
    cal = {"cnot_errors": [[0, 1, 0.01]], "readout_errors": [0.01] * 3}
    with pytest.raises(CalibrationError, match=r"\(1, 2\)"):
        build_hardware(topo, cal)


@pytest.mark.parametrize("field, what", [("readout_errors", "readout"), ("single_qubit_errors", "single-qubit")])
@pytest.mark.parametrize("bad", [-0.01, 1.0, float("nan")])
def test_per_qubit_error_outside_unit_interval_rejected(field, what, bad):
    topo = line_topology(3)
    cal = uniform_calibration(topo)
    cal[field] = [0.0, bad, 0.0]
    with pytest.raises(CalibrationError, match=rf"{what} error for qubit 1 outside \[0,1\)"):
        build_hardware(topo, cal)


def test_cnot_error_last_order_wins():
    topo = {"num_qubits": 2, "edges": [[0, 1]]}
    cal = {"cnot_errors": [[0, 1, 0.01], [1, 0, 0.04]], "readout_errors": [0.0, 0.0]}
    assert build_hardware(topo, cal).edge_error(0, 1) == 0.04


def test_load_from_json_files(tmp_path):
    import json

    from qmpc.hardware import load_crosstalk, load_hardware

    topo = {"num_qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    cal = {"cnot_errors": [[0, 1, 0.01], [1, 2, 0.02], [2, 3, 0.01]], "readout_errors": [0.01] * 4}
    (tmp_path / "t.json").write_text(json.dumps(topo))
    (tmp_path / "c.json").write_text(json.dumps(cal))
    (tmp_path / "x.json").write_text(
        json.dumps({"pairs": [{"gate": [0, 1], "conditioned_on": [2, 3], "error": 0.05}]})
    )
    model = load_hardware(tmp_path / "t.json", tmp_path / "c.json")
    assert model.num_qubits == 4
    table = load_crosstalk(tmp_path / "x.json", model)
    assert table.entries[((0, 1), (2, 3))] == 0.05


# --- swap distance -------------------------------------------------------------


def test_hops_on_path(line5):
    hops = hop_count_matrix(line5)
    assert hops[0][2] == 2 and hops[0][1] == 1 and hops[0][4] == 4


def test_hops_complete_graph():
    topo = {"num_qubits": 4, "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}
    model = build_hardware(topo, uniform_calibration(topo))
    hops = np.array(hop_count_matrix(model))
    off = hops[~np.eye(4, dtype=bool)]
    assert np.all(off == 1)


def test_toronto_hops_match_bfs_oracle(toronto):
    topo = topology("toronto")
    oracle = all_pairs_hops(27, [tuple(e) for e in topo["edges"]])
    hops = np.array(hop_count_matrix(toronto))
    assert np.array_equal(hops, oracle)
    # the most distant pair, per the oracle
    far = np.unravel_index(np.argmax(oracle), oracle.shape)
    assert hops[far] == oracle.max()


def test_swap_distance_normalized(line5):
    s = distance_matrices(line5, 1.0, 0.0)
    assert max(map(max, s)) == 1.0
    assert s[0][4] == 1.0 and s[0][1] == 0.25


# --- swap error -----------------------------------------------------------------


def test_swap_error_single_edge():
    model = build_hardware(
        {"num_qubits": 2, "edges": [[0, 1]]},
        {"cnot_errors": [[0, 1, 0.01]], "readout_errors": [0.0, 0.0]},
    )
    raw = swap_error_matrix(model)
    assert raw[0][1] == pytest.approx(1 - 0.99**3, abs=1e-12)


def test_swap_error_zero_on_error_free_path():
    topo = line_topology(3)
    cal = {"cnot_errors": [[0, 1, 0.0], [1, 2, 0.0]], "readout_errors": [0.0] * 3}
    model = build_hardware(topo, cal)
    raw = swap_error_matrix(model)
    assert raw[0][2] == 0.0


def test_swap_error_diamond_matches_path_enumeration():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    errors = {(0, 1): 0.05, (0, 2): 0.01, (1, 3): 0.02, (2, 3): 0.04}
    topo = {"num_qubits": 4, "edges": [list(e) for e in edges]}
    cal = {"cnot_errors": [[a, b, e] for (a, b), e in errors.items()], "readout_errors": [0.0] * 4}
    model = build_hardware(topo, cal)
    raw = swap_error_matrix(model)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert raw[i][j] == pytest.approx(best_swap_path_error(edges, errors, i, j), abs=1e-12)


def test_swap_error_beats_or_ties_hop_shortest_path(jakarta):
    # taking the most reliable path can only help vs. the hop-shortest one
    raw = swap_error_matrix(jakarta)
    edges = list(jakarta.edges)
    errors = dict(jakarta.cnot_error)
    from oracles import all_simple_paths

    hops = hop_count_matrix(jakarta)
    for i in range(jakarta.num_qubits):
        for j in range(i + 1, jakarta.num_qubits):
            shortest = [p for p in all_simple_paths(edges, i, j) if len(p) - 1 == hops[i][j]]
            best_short = min(
                1 - np.prod([(1 - errors[tuple(sorted((a, b)))]) ** 3 for a, b in zip(p, p[1:])])
                for p in shortest
            )
            assert raw[i][j] <= best_short + 1e-12


# --- combined ------------------------------------------------------------------


def _scaled(matrix):
    """``matrix`` divided by its largest entry, as ``distance_matrices`` scales each table."""
    peak = max(map(max, matrix))
    return tuple(tuple(x / peak for x in row) for row in matrix)


def test_combined_weighted_sum(line5):
    e = _scaled(swap_error_matrix(line5))
    d = distance_matrices(line5, 0.5, 0.5)
    assert d[0][4] == 1.0  # both matrices peak at the two ends of the line
    assert d[0][1] == 0.5 * 0.25 + 0.5 * e[0][1]
    assert distance_matrices(line5, 1.0, 0.0) == _scaled(hop_count_matrix(line5))


def test_matrices_symmetric_zero_diagonal(guadalupe):
    raw = (hop_count_matrix(guadalupe), swap_error_matrix(guadalupe))
    scaled = (distance_matrices(guadalupe, 1.0, 0.0), distance_matrices(guadalupe, 0.0, 1.0))
    for mat in (*raw, *scaled):
        mat = np.array(mat)
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
    assert [np.array(mat).max() for mat in scaled] == [1.0, 1.0]
    assert np.array(raw[0]).max() > 1.0 > np.array(raw[1]).max()


def test_distance_matrices_built_once_per_model_and_weights(guadalupe):
    first = distance_matrices(guadalupe, 0.5, 0.5)
    assert distance_matrices(guadalupe, 0.5, 0.5) is first
    assert distance_matrices(guadalupe) is first  # the defaults are the same key
    rebuilt = build_hardware(topology("guadalupe"), synthetic_calibration(topology("guadalupe"), seed=2))
    assert distance_matrices(rebuilt) is not first
    assert distance_matrices(rebuilt) == first


@pytest.mark.parametrize(
    "build, args, other",
    [(distance_matrices, (0.5, 0.5), (0.3, 0.7)), (region_table, (3,), (4,)), (fidelity_degree, (2.0,), (1.0,))],
)
def test_derived_tables_are_built_once_per_model_and_key(build, args, other):
    topo = topology("guadalupe")
    text = json.dumps(topo), json.dumps(synthetic_calibration(topo, seed=2))
    model, twin = (build_hardware(*map(json.loads, text)) for _ in range(2))
    first = build(model, *args)
    assert build(model, *args) is first
    second = build(model, *other)
    assert second is not first and second != first
    # a second model from the same JSON builds equal tables of its own
    assert build(twin, *args) == first and build(twin, *args) is not first
    assert build(twin, *other) == second and build(twin, *other) is not second


def test_distance_matrices_are_read_only(guadalupe):
    # the cached table is shared by every caller, so it is a tuple of tuples of floats
    table = distance_matrices(guadalupe)
    assert type(table) is tuple and len(table) == guadalupe.num_qubits
    for row in table:
        assert type(row) is tuple and len(row) == guadalupe.num_qubits
        assert all(type(x) is float for x in row)
    with pytest.raises(TypeError):
        table[0][1] = 0.0


def test_distance_matrices_depend_on_weights(guadalupe):
    s, e = _scaled(hop_count_matrix(guadalupe)), _scaled(swap_error_matrix(guadalupe))
    n = guadalupe.num_qubits
    for alpha1, alpha2 in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.7), (2, -1.5)):
        table = distance_matrices(guadalupe, alpha1, alpha2)
        for a in range(n):
            for b in range(n):
                assert table[a][b] == alpha1 * s[a][b] + alpha2 * e[a][b]
        # the same bits as the float64 arrays this table replaced
        assert np.array(table).tobytes() == (alpha1 * np.array(s) + alpha2 * np.array(e)).tobytes()
    assert distance_matrices(guadalupe, 1.0, 0.0) == s
    assert distance_matrices(guadalupe, 0.0, 1.0) == e
    assert s != e


# --- diameter ------------------------------------------------------------------


def test_diameter_on_path(line5):
    assert subgraph_diameter(line5, {0, 1, 2}) == 2
    assert subgraph_diameter(line5, {2}) == 0


def test_diameter_disconnected_subset(line5):
    with pytest.raises(DisconnectedGraphError):
        subgraph_diameter(line5, {0, 2})


def test_diameter_t_shape_matches_floyd_warshall(toronto):
    nodes = [1, 2, 3, 4, 7]  # T-shaped patch of the 27-qubit lattice
    induced = [e for e in toronto.edges if e[0] in nodes and e[1] in nodes]
    oracle = floyd_warshall(nodes, induced)
    expect = max(d for d in oracle.values() if d != float("inf"))
    assert subgraph_diameter(toronto, set(nodes)) == expect


def test_diameter_one_for_every_edge(jakarta):
    for a, b in jakarta.edges:
        assert subgraph_diameter(jakarta, {a, b}) == 1


# --- crosstalk -----------------------------------------------------------------


def test_strong_pair_kept_and_weak_dropped(toronto):
    base = {e: toronto.cnot_error[e] for e in [(2, 3), (5, 8)]}
    pairs = [
        {"gate": [2, 3], "conditioned_on": [5, 8], "error": base[(2, 3)] * 3.3},
        {"gate": [5, 8], "conditioned_on": [2, 3], "error": base[(5, 8)] * 2.2},
    ]
    table = build_crosstalk(pairs, toronto)
    strong = extract_strong_crosstalk(table, toronto)
    assert ((2, 3), (5, 8)) in strong.entries
    assert ((5, 8), (2, 3)) not in strong.entries  # one direction only


def test_threshold_arithmetic(toronto):
    # exercise the 3x rule with explicit numbers on a real edge pair
    e_solo = toronto.cnot_error[(10, 12)]
    keep = build_crosstalk(
        [{"gate": [10, 12], "conditioned_on": [15, 18], "error": e_solo * 3.35}], toronto
    )
    drop = build_crosstalk(
        [{"gate": [10, 12], "conditioned_on": [15, 18], "error": e_solo * 2.2}], toronto
    )
    assert len(extract_strong_crosstalk(keep, toronto)) == 1
    assert len(extract_strong_crosstalk(drop, toronto)) == 0


def test_empty_table(toronto):
    table = build_crosstalk([], toronto)
    assert len(extract_strong_crosstalk(table, toronto)) == 0


def test_extract_is_idempotent(toronto):
    pairs = [
        {"gate": [2, 3], "conditioned_on": [5, 8], "error": 0.09},
        {"gate": [0, 1], "conditioned_on": [4, 7], "error": 0.002},
    ]
    strong = extract_strong_crosstalk(build_crosstalk(pairs, toronto), toronto)
    again = extract_strong_crosstalk(strong, toronto)
    assert strong.entries == again.entries


def test_crosstalk_pair_must_be_one_hop_apart(toronto):
    with pytest.raises(CrosstalkError, match="hops"):
        build_crosstalk([{"gate": [0, 1], "conditioned_on": [12, 15], "error": 0.05}], toronto)
    with pytest.raises(CrosstalkError, match="shares"):
        build_crosstalk([{"gate": [0, 1], "conditioned_on": [1, 4], "error": 0.05}], toronto)


def test_crosstalk_non_edge_rejected(toronto):
    with pytest.raises(CrosstalkError, match="non-edge"):
        build_crosstalk([{"gate": [0, 2], "conditioned_on": [5, 8], "error": 0.05}], toronto)
