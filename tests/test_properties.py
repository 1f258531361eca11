"""Invariant checks driven by generated instances."""
import contextlib
import dataclasses
import functools
import io
import json
import math
import operator
import re
import tempfile
import warnings
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qmpc import cli, presets
from qmpc.circuits import PARAM_COUNTS, Gate, QuantumCircuit, build_dag, depth, emit_qasm, parse_merged_qasm, parse_qasm
from qmpc.hardware import (
    build_crosstalk,
    build_hardware,
    distance_matrices,
    extract_strong_crosstalk,
    hop_count_matrix,
    induced_edges,
    subgraph_diameter,
    swap_error_matrix,
)
from qmpc.errors import DisconnectedGraphError, HardwareError, PartitionError, PartitionSizeError, SimulationError
from qmpc.manager import Verdict, fidelity_gate, select_k, sort_by_density
from qmpc.partition import (
    GSP_MAX_QUBITS,
    allocate_all,
    allocate_prefix,
    crosstalk_adjust,
    gsp_partition,
    qhsp_partition,
    region_row,
    region_table,
    score,
)
from qmpc.pipeline import RunConfig, compile_workloads, estimate_success
from qmpc.scheduler import check_compliance, initial_mapping, merged_circuit
from qmpc.verify import check_equivalence, marginalize, marginals, simulate

from oracles import (
    conditional_errors_scan,
    hop_count_matrix_nx,
    induced_edges_scan,
    optimal_added_cnots,
    per_branch_simulate,
    reference_gsp_partition,
    reference_parse_program,
    reference_qhsp_partition,
    reference_placement,
    reference_route,
    region_diameter_nx,
    swap_error_matrix_nx,
    trim_and_reallocate_gate,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- instance generators -------------------------------------------------------


@st.composite
def connected_device(draw, min_qubits=4, max_qubits=8):
    n = draw(st.integers(min_qubits, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(i - 1, i) for i in range(1, n)}  # spine keeps it connected
    extras = draw(st.integers(0, n))
    for _ in range(extras):
        a, b = sorted(map(int, rng.choice(n, size=2, replace=False)))
        edges.add((a, b))
    topo = {"num_qubits": n, "edges": [list(e) for e in sorted(edges)]}
    cal = {
        "cnot_errors": [[a, b, float(rng.uniform(0.001, 0.1))] for a, b in sorted(edges)],
        "readout_errors": [float(rng.uniform(0.001, 0.2)) for _ in range(n)],
    }
    return build_hardware(topo, cal)


@st.composite
def small_circuit(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    n_gates = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.6:
            a, b = map(int, rng.choice(n, size=2, replace=False))
            gates.append(Gate("cx", (a, b)))
        else:
            kind = ["h", "x", "t", "rz"][int(rng.integers(4))]
            params = (float(rng.uniform(0, 6.28)),) if kind == "rz" else ()
            gates.append(Gate(kind, (int(rng.integers(n)),), params))
    return QuantumCircuit(f"g{draw(st.integers(0, 10**6))}", n, 0, tuple(gates))


# --- circuit IR ------------------------------------------------------------------


@settings(max_examples=60, **COMMON)
@given(small_circuit())
def test_qasm_round_trip(circuit):
    again = parse_qasm(emit_qasm(circuit), circuit.id)
    assert again.gates == circuit.gates
    assert again.num_qubits == circuit.num_qubits


# programs near the parser's grammar, as token lists: valid statements, then
# dropped, duplicated, swapped or inserted tokens and stray characters
NUMBERS = ["0", "1", "3", "2.5", ".5", "1.", "1e3", "2E-2", "1e999", "0.0", "pi", "٣", "1e"]
STRAYS = ["!", "@", "#", "$", "?", ".", ">", '"', "'", "{", "é", "\\", "&", "=", "<", "/", "\x85", " "]
SEPARATORS = [" ", " ", " ", "", "\n", "\t", "  ", " // note\n", "//x\n", "\r\n", "\n\n"]


EXPRESSION = st.recursive(
    st.sampled_from(NUMBERS).map(lambda t: [t]),
    lambda inner: st.one_of(
        inner.map(lambda e: ["-", *e]),
        inner.map(lambda e: ["+", *e]),
        inner.map(lambda e: ["(", *e, ")"]),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: [*t[0], t[1], *t[2]]),
    ),
    max_leaves=4,
)


@st.composite
def qasm_tokens(draw):
    n = draw(st.integers(1, 4))
    index = st.integers(0, n + 1).map(str)
    toks = []
    if draw(st.booleans()):
        toks += ["OPENQASM", draw(st.sampled_from(["2.0", "2.0", "2.0", "3.0"])), ";"]
    if draw(st.booleans()):
        toks += ["include", '"qelib1.inc"', ";"]
    toks += ["qreg", "q", "[", str(n), "]", ";"]
    cregs = draw(st.lists(st.tuples(st.sampled_from(["c", "d", "c1"]), st.integers(0, n)), max_size=3))
    for name, size in cregs:
        toks += ["creg", name, "[", str(size), "]", ";"]
    creg_names = [name for name, _ in cregs] or ["c"]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["h", "rz", "u3", "u2", "cx", "cx", "measure", "barrier", "ccx", "reset", "r"]))
        if kind == "measure":
            c = draw(st.sampled_from(creg_names))
            if draw(st.booleans()):
                toks += ["measure", "q", "[", draw(index), "]", "->", c, "[", draw(index), "]", ";"]
            else:
                toks += ["measure", "q", "->", c, ";"]
        elif kind == "barrier":
            toks.append("barrier")
            for k in range(draw(st.integers(1, 3))):
                toks += ([","] if k else []) + (["q"] if draw(st.booleans()) else ["q", "[", draw(index), "]"])
            toks.append(";")
        else:
            toks.append(kind)
            count = PARAM_COUNTS.get(kind, 0) + draw(st.sampled_from([0, 0, 0, 1, -1]))
            if count > 0 or draw(st.integers(0, 4)) == 0:
                toks.append("(")
                for k in range(max(count, 0)):
                    toks += ([","] if k else []) + draw(EXPRESSION)
                toks.append(")")
            args = 2 if kind in ("cx", "ccx") else 1
            for k in range(args):
                toks += ([","] if k else []) + (["q"] if draw(st.integers(0, 5)) == 0 else ["q", "[", draw(index), "]"])
            toks.append(";")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(toks)))
        mutation = draw(st.sampled_from(["drop", "duplicate", "swap", "stray", "token"]))
        if mutation == "stray":
            toks.insert(at, draw(st.sampled_from(STRAYS)))
        elif mutation == "token":
            toks.insert(at, draw(st.sampled_from(["q", "[", "]", ";", ",", "->", "(", "9", "x", "gate", "creg"])))
        elif toks and at < len(toks):
            if mutation == "drop":
                del toks[at]
            elif mutation == "duplicate":
                toks.insert(at, toks[at])
            elif at + 1 < len(toks):
                toks[at], toks[at + 1] = toks[at + 1], toks[at]
    rng = draw(st.randoms(use_true_random=False))
    seps = [rng.choice(SEPARATORS) for _ in range(len(toks) + 1)]
    return "".join(sep + tok for sep, tok in zip(seps, toks)) + seps[-1] + rng.choice(["", "// end"])


def _outcome(parse):
    """What a parse returns or raises, in comparable form; repr keeps -0.0 apart from 0.0."""
    try:
        return repr(parse())
    except Exception as exc:  # the contract covers every exception, built-in ones included
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


# every generated token is shorter than errors.BRIEF cuts a quoted value, so
# the two parsers' messages agree character for character
@settings(max_examples=400, **COMMON)
@given(qasm_tokens())
@example("qreg q[1];\nh q[0] !\n")  # a stray character after the last token of a line
@example("qreg q[2];\ncx q[0] q[1]; $")  # a stray character after a syntax error
@example('include "qelib1.inc\nqreg q[1];')  # a string does not run past its line
@example("qreg q[1]; h q[0]; // end")  # a comment that ends the input
@example("qreg q[1];\n\x85 h q[0];")  # whitespace that is not a line break
@example("qreg q[٣]; rz(٣.5) q[2];")  # digits outside ASCII
@example("OPENQASM")
@example("")
def test_parser_matches_first_parser_on_results_and_errors(text):
    def reference(multi):
        n, cregs, gates = reference_parse_program(text, allow_multiple_cregs=multi)
        layout, offset = {}, 0
        for name, size in cregs.items():
            layout[name], offset = (offset, size), offset + size
        return n, offset, tuple(gates), layout

    def parsed():
        c = parse_qasm(text)
        return c.num_qubits, c.num_clbits, c.gates

    def merged():
        c, layout = parse_merged_qasm(text)
        return c.num_qubits, c.num_clbits, c.gates, layout

    assert _outcome(parsed) == _outcome(lambda: reference(False)[:3])
    assert _outcome(merged) == _outcome(lambda: reference(True))


@settings(max_examples=60, **COMMON)
@given(small_circuit(), st.integers(0, 2**31 - 1))
def test_topological_orders_preserve_per_qubit_sequence(circuit, seed):
    dag = build_dag(circuit)
    rng = np.random.default_rng(seed)
    in_deg = list(dag.in_degree)
    ready = [i for i, d in enumerate(in_deg) if d == 0]
    order = []
    while ready:
        node = ready.pop(int(rng.integers(len(ready))))  # random valid topo sort
        order.append(node)
        for s in dag.successors[node]:
            in_deg[s] -= 1
            if in_deg[s] == 0:
                ready.append(s)
    assert len(order) == len(circuit.gates)
    for q in range(circuit.num_qubits):
        source_seq = [i for i, g in enumerate(circuit.gates) if q in g.qubits]
        topo_seq = [i for i in order if q in circuit.gates[i].qubits]
        assert topo_seq == source_seq


@settings(max_examples=60, **COMMON)
@given(small_circuit())
def test_density_identity(circuit):
    assert circuit.density * circuit.num_qubits == circuit.cnot_count
    assert circuit.largest_logical_degree < max(circuit.num_qubits, 1) or circuit.num_qubits == 1


# --- matrices ---------------------------------------------------------------------


@settings(max_examples=25, **COMMON)
@given(connected_device())
def test_distance_matrices_symmetric_zero_diag_normalized(model):
    s, e = np.array(distance_matrices(model, 1.0, 0.0)), np.array(distance_matrices(model, 0.0, 1.0))
    combined = np.array(distance_matrices(model))
    for m in (s, e, combined, np.array(hop_count_matrix(model)), np.array(swap_error_matrix(model))):
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.all(np.diag(m) == 0)
    assert s.max() == 1.0
    if e.max() > 0:
        assert e.max() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(combined, 0.5 * s + 0.5 * e, atol=1e-15)


@settings(max_examples=25, **COMMON)
@given(connected_device())
def test_every_edge_has_diameter_one(model):
    for e in model.edges:
        assert subgraph_diameter(model, set(e)) == 1


@st.composite
def tied_device(draw, max_qubits=9):
    """A connected device whose CNOT errors come from a few repeated values,
    0 among them, so that equally reliable swap paths are common; the edges
    are listed in random order and orientation.  Among these values, paths
    that visit the same errors in another order can tie on distance but
    not on success product, so a different tie order changes the matrix."""
    n = draw(st.integers(1, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(q) for q in rng.permutation(n)]
    edges = {tuple(sorted((order[i], order[int(rng.integers(i))]))) for i in range(1, n)}  # a spanning tree
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        edges.add(tuple(sorted(int(q) for q in rng.choice(n, size=2, replace=False))))
    listed = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in edges]
    rng.shuffle(listed)
    levels = [0.0, 0.001, 0.01, 0.01, 0.03]
    cal = {
        "cnot_errors": [[a, b, levels[int(rng.integers(len(levels)))]] for a, b in listed],
        "readout_errors": [0.01] * n,
    }
    return build_hardware({"num_qubits": n, "edges": listed}, cal)


# An 8-qubit ring where two equally distant heap entries carry different
# success products: the matrix changes if ties are broken by qubit number
# instead of push order, or if an equally short path replaces the first.
PUSH_ORDER_RING = build_hardware(
    {"num_qubits": 8, "edges": [[0, 1], [0, 3], [1, 6], [2, 4], [2, 5], [3, 5], [4, 7], [6, 7]]},
    {
        "cnot_errors": [[0, 1, 0.01], [0, 3, 0.001], [1, 6, 0.01], [2, 4, 0.01], [2, 5, 0.01], [3, 5, 0.01],
                        [4, 7, 0.01], [6, 7, 0.001]],
        "readout_errors": [0.01] * 8,
    },
)


@settings(max_examples=200, **COMMON)
@given(tied_device())
@example(PUSH_ORDER_RING)
def test_routing_matrices_match_networkx_bit_for_bit(model):
    assert np.array(hop_count_matrix(model)).tobytes() == hop_count_matrix_nx(model).tobytes()
    assert np.array(swap_error_matrix(model)).tobytes() == swap_error_matrix_nx(model, False).tobytes()
    # scaled to a largest entry of 1 only inside the router's matrix
    scaled = distance_matrices(model, 0.0, 1.0)
    assert np.array(scaled).tobytes() == swap_error_matrix_nx(model, True).tobytes()


@settings(max_examples=100, **COMMON)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_disconnected_device_lists_every_component(n, seed):
    rng = np.random.default_rng(seed)
    side = [0, 1] + [int(s) for s in rng.integers(0, 3, size=n - 2)]  # qubits 0 and 1 never meet
    edges = [[a, b] for a in range(n) for b in range(a + 1, n) if side[a] == side[b] and rng.random() < 0.6]
    cal = {"cnot_errors": [[a, b, 0.01] for a, b in edges], "readout_errors": [0.01] * n}
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n))
    parts = sorted(sorted(c) for c in nx.connected_components(graph))  # by smallest qubit
    with pytest.raises(DisconnectedGraphError) as info:
        build_hardware({"num_qubits": n, "edges": edges}, cal)
    assert str(info.value) == f"coupling graph is disconnected: {len(parts)} components {parts}"


PRESET_MODELS = {name: presets.model(name, seed=5) for name in ("valencia", "jakarta", "guadalupe", "toronto", "manhattan")}


@st.composite
def preset_region(draw):
    """A preset device and a qubit list that is a connected region, an
    arbitrary subset (often disconnected), or a subset with a qubit off the
    device; at most 8 distinct qubits, as the exhaustive search asks for."""
    model = PRESET_MODELS[draw(st.sampled_from(sorted(PRESET_MODELS)))]
    kind = draw(st.sampled_from(["connected", "subset", "out_of_range"]))
    k = draw(st.integers(1, min(8, model.num_qubits)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "connected":
        region = [int(rng.integers(model.num_qubits))]
        while len(region) < k:
            rim = sorted({v for q in region for v in model.neighbors(q)} - set(region))
            region.append(int(rng.choice(rim)))
    else:
        region = [int(q) for q in rng.choice(model.num_qubits, size=k, replace=False)]
        if kind == "out_of_range":
            region[int(rng.integers(k))] = draw(st.sampled_from([-1, model.num_qubits, model.num_qubits + 7]))
    return model, kind, region


@settings(max_examples=300, **COMMON)
@given(preset_region())
def test_bfs_diameter_matches_networkx(case):
    model, kind, region = case
    try:
        want = region_diameter_nx(model.num_qubits, model.edges, region)
    except IndexError:
        with pytest.raises(HardwareError, match="outside device") as info:
            subgraph_diameter(model, region)
        assert type(info.value) is HardwareError
        return
    except ValueError:
        with pytest.raises(DisconnectedGraphError):
            subgraph_diameter(model, region)
        return
    assert kind != "out_of_range"
    assert subgraph_diameter(model, region) == want
    assert subgraph_diameter(model, iter(region)) == want  # any iterable of qubits


@settings(max_examples=100, **COMMON)
@given(preset_region())
def test_induced_edges_match_edge_list_scan_in_order(case):
    model, kind, region = case
    if kind == "out_of_range":
        region = [q for q in region if 0 <= q < model.num_qubits]
    assert induced_edges(model, region) == induced_edges_scan(model.edges, region)


@settings(max_examples=50, **COMMON)
@given(st.sampled_from(sorted(PRESET_MODELS)), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
def test_indexed_conditional_errors_match_table_scan(name, seed, keep):
    model = PRESET_MODELS[name]
    rng = np.random.default_rng(seed)
    pairs = []
    for gate in model.edges:
        for cond in model.edges:
            one_hop = any(model.has_edge(a, b) for a in gate for b in cond)
            if set(gate) & set(cond) or not one_hop or rng.random() > keep:
                continue
            pairs.append({"gate": list(gate), "conditioned_on": list(cond), "error": float(rng.uniform(0, 0.5))})
    rng.shuffle(pairs)  # one gate's entries are spread through the table
    table = build_crosstalk(pairs, model)
    for gate in list(model.edges) + [(0, model.num_qubits)]:
        got = table.conditional_errors(gate)
        assert list(got.items()) == list(conditional_errors_scan(table.entries, gate).items())


# --- partition properties ------------------------------------------------------------


@settings(max_examples=25, **COMMON)
@given(connected_device(min_qubits=5, max_qubits=8), st.integers(2, 3))
def test_partitions_disjoint_connected_and_gsp_dominates(model, k):
    c1 = QuantumCircuit("a", k, 0, tuple(Gate("cx", (i % k, (i + 1) % k)) for i in range(k + 1)))
    c2 = QuantumCircuit("b", 2, 0, (Gate("cx", (0, 1)),))
    try:
        parts = allocate_all(model, sort_by_density([c1, c2]), RunConfig(method="qhsp"))
    except PartitionError:
        return  # infeasible layout for this device draw; nothing to check
    assert not (parts[0].qubit_set & parts[1].qubit_set)
    for p in parts:
        subgraph_diameter(model, p.qubit_set)  # raises when disconnected
    # the exhaustive search never loses to the heuristic's choice, re-scored
    best = gsp_partition(model, c1, set())[0]
    choice = qhsp_partition(model, c1, set())[0]
    row = region_row(model, choice.qubits, subgraph_diameter(model, choice.qubits))
    assert best.score <= score(model, row, c1, set(), set(), None) + 1e-12


def random_crosstalk(model, rng: np.random.Generator, keep: float):
    """Each ordered pair of disjoint edges one hop apart, kept with
    probability ``keep``, with a conditional error drawn from [0, 0.5)."""
    pairs = []
    for gate in model.edges:
        for cond in model.edges:
            one_hop = any(model.has_edge(a, b) for a in gate for b in cond)
            if set(gate) & set(cond) or not one_hop or rng.random() >= keep:
                continue
            # errors below the solo error too, which never replace it
            pairs.append({"gate": list(gate), "conditioned_on": list(cond), "error": float(rng.uniform(0, 0.5))})
    return build_crosstalk(pairs, model)


@st.composite
def exhaustive_search(draw):
    """A device (two presets, whose region tables persist between examples,
    or a fresh random one), a k-qubit circuit, a random set of used qubits
    and a random crosstalk table whose entries may or may not fire."""
    name = draw(st.sampled_from(["guadalupe", "toronto", "random"]))
    model = PRESET_MODELS[name] if name != "random" else draw(connected_device(min_qubits=4, max_qubits=12))
    k = draw(st.sampled_from(range(1, GSP_MAX_QUBITS + 2)))  # evenly, one past the cap
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    used_share = draw(st.sampled_from([0.0, 0.1, 0.3]))
    used = {q for q in range(model.num_qubits) if rng.random() < used_share}
    for i in rng.choice(len(model.edges), size=draw(st.integers(0, 2))):  # whole edges can condition
        used.update(model.edges[int(i)])
    keep = draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
    strong = None if keep is None else random_crosstalk(model, rng, keep)
    # enough CNOTs for a row raised by crosstalk to fall behind later rows
    cnots = tuple(Gate("cx", (i % k, (i + 1) % k)) for i in range(draw(st.integers(0, 60)))) if k > 1 else ()
    return model, QuantumCircuit("c", k, 0, cnots), used, strong


@settings(max_examples=300, **COMMON)
@given(exhaustive_search())
def test_table_driven_gsp_matches_reference_search(case):
    model, circuit, used, strong = case
    try:
        want = reference_gsp_partition(model, circuit, used, strong)
    except PartitionError as exc:
        with pytest.raises(PartitionError) as info:
            gsp_partition(model, circuit, used, strong)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = gsp_partition(model, circuit, used, strong)
    assert got == want[:1]  # the id, qubits, method, and score exactly


@settings(max_examples=300, **COMMON)
@given(exhaustive_search())
def test_qhsp_matches_reference_search(case):
    model, circuit, used, strong = case
    try:
        want = reference_qhsp_partition(model, circuit, used, strong)
    except PartitionError as exc:
        with pytest.raises(PartitionError) as info:
            qhsp_partition(model, circuit, used, strong)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = qhsp_partition(model, circuit, used, strong)
    assert got == want[:1]  # the id, qubits in merge order, method, and score exactly


@st.composite
def same_key_twins(draw):
    """A random device, its strong pairs from a random crosstalk table, and
    three circuits of one size and CNOT count.  The first two agree on
    everything an empty-device search reads (qubit count, CNOT count,
    largest logical degree) but on no gate list or id: the second relabels
    the first's qubits and starts with a one-qubit gate.  The third is a star
    whose CNOTs all act on qubit 0, so its largest logical degree differs."""
    model = draw(connected_device(min_qubits=4, max_qubits=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strong = extract_strong_crosstalk(random_crosstalk(model, rng, draw(st.sampled_from([0.3, 1.0]))), model)
    k = draw(st.sampled_from(range(1, GSP_MAX_QUBITS + 2)))  # evenly, one past the cap
    pairs = [tuple(map(int, rng.choice(k, size=2, replace=False))) for _ in range(draw(st.integers(0, 20)))] if k > 1 else []
    relabel = [int(q) for q in rng.permutation(k)]
    first = QuantumCircuit("first", k, 0, tuple(Gate("cx", p) for p in pairs))
    second = QuantumCircuit("second", k, 0, (Gate("h", (0,)), *(Gate("cx", (relabel[a], relabel[b])) for a, b in pairs)))
    star = QuantumCircuit("star", k, 0, tuple(Gate("cx", (0, 1 + i % (k - 1))) for i in range(len(pairs))))
    return model, strong, first, second, star


@settings(max_examples=150, **COMMON)
@given(same_key_twins(), st.sampled_from(["gsp", "qhsp"]))
def test_empty_device_memo_answers_each_circuit_as_a_fresh_search(case, method):
    """``allocate_prefix`` keeps each empty-device search on the model.  The
    twin reads the first circuit's regions from the memo; the star, and each
    circuit under another ``lam``, has inputs that may move the region.
    Every call must return what a fresh search gives, and an error is
    raised again on every call and never kept."""
    model, strong, first, second, star = case

    def alone_keys():
        return {key for key in model._memo if key[0] == "alone_region"}

    def check(circuit) -> bool:
        """Whether the search of ``circuit`` fails, after comparing it with
        ``allocate_prefix`` at a small and a large ``lam``."""
        for lam in (0.01, 100.0):
            config = RunConfig(method=method, lam=lam)
            try:
                if method == "gsp":
                    want = gsp_partition(model, circuit, set(), strong)[0]
                else:
                    want = qhsp_partition(model, circuit, set(), strong, lam=lam)[0]
            except PartitionSizeError as exc:
                with pytest.raises(PartitionSizeError, match=re.escape(str(exc))):
                    allocate_prefix(model, [circuit], config, strong)
                return True
            except PartitionError as exc:
                got, error = allocate_prefix(model, [circuit], config, strong)
                assert got == [] and type(error) is type(exc) and str(error) == str(exc)
                return True
            assert allocate_prefix(model, [circuit], config, strong) == ([want], None)
        return False

    failed = check(first)
    kept = alone_keys()
    assert bool(kept) is not failed  # a region is kept, an error never
    assert check(second) is failed
    assert alone_keys() == kept  # the twin searched nothing
    assert check(star) is failed and check(first) is failed
    if failed:
        assert not alone_keys()


@settings(max_examples=25, **COMMON)
@given(connected_device(min_qubits=4, max_qubits=7), st.integers(0, 2**31 - 1))
def test_score_monotone_in_errors(model, seed):
    circuit = QuantumCircuit("c", 3, 0, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    before = {row.qubits: score(model, row, circuit, set(), set(), None) for row in region_table(model, 3)}
    rng = np.random.default_rng(seed)
    # bump one CNOT error and one readout error
    edge = tuple(sorted(model.edges[int(rng.integers(len(model.edges)))]))
    bumped_cnot = {e: (min(err + 0.2, 0.9) if e == edge else err) for e, err in model.cnot_error.items()}
    qubit = int(rng.integers(model.num_qubits))
    readout = list(model.readout_error)
    readout[qubit] = min(readout[qubit] + 0.2, 0.9)
    worse = build_hardware(
        {"num_qubits": model.num_qubits, "edges": [list(e) for e in model.edges]},
        {
            "cnot_errors": [[a, b, bumped_cnot[(a, b)]] for a, b in model.edges],
            "readout_errors": [float(r) for r in readout],
        },
    )
    after = {row.qubits: score(worse, row, circuit, set(), set(), None) for row in region_table(worse, 3)}
    assert after.keys() == before.keys()
    for qubits, value in before.items():
        assert after[qubits] >= value - 1e-12


@settings(max_examples=20, **COMMON)
@given(connected_device(min_qubits=6, max_qubits=9))
def test_delta_s_nonnegative_for_exhaustive_method(model):
    c1 = QuantumCircuit("a", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(6)))
    c2 = QuantumCircuit("b", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(2)))
    try:
        plan = fidelity_gate(model, [c1, c2], RunConfig(method="gsp", delta=math.inf))
    except PartitionError:
        return
    assert plan.delta_s >= -1e-12


@settings(max_examples=15, **COMMON)
@given(connected_device(min_qubits=7, max_qubits=9))
def test_reduction_never_increases_delta_sum_for_exhaustive(model):
    circuits = [
        QuantumCircuit("a", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(8))),
        QuantumCircuit("b", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(4))),
        QuantumCircuit("c", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(2))),
    ]

    def delta_sum(batch):
        alone = {c.id: gsp_partition(model, c, set())[0].score for c in batch}
        joint = allocate_all(model, batch, RunConfig(method="gsp"))
        return sum(p.score - alone[p.circuit_id] for p in joint)

    try:
        full = delta_sum(circuits)
        reduced = delta_sum(circuits[:-1])
    except PartitionError:
        return
    assert reduced <= full + 1e-12


@settings(max_examples=100, **COMMON)
@given(
    connected_device(min_qubits=5, max_qubits=9),
    st.lists(small_circuit(max_qubits=4).filter(lambda c: c.num_qubits >= 2), min_size=2, max_size=5),
    st.sampled_from(["gsp", "qhsp"]),
    st.sampled_from([0.0, 0.02, 0.1, 0.5, math.inf]),
)
def test_one_pass_gate_matches_trim_and_reallocate(model, drawn, method, threshold):
    circuits = [dataclasses.replace(c, id=f"c{i}") for i, c in enumerate(drawn)]
    batch = select_k(circuits, model.num_qubits)
    if len(batch) < 2:
        return
    got = fidelity_gate(model, batch, RunConfig(method=method, delta=threshold))
    # the reference raises on a batch the device cannot hold; the one-pass
    # gate instead gates the longest prefix that fits, as a reduced batch
    for fits in range(len(batch), 0, -1):
        try:
            allocate_all(model, batch[:fits], RunConfig(method=method))
            break
        except PartitionError:
            continue
    if fits == 1:
        assert got.verdict is Verdict.INDEPENDENT and got.selected == (batch[0].id,)
        return
    want = trim_and_reallocate_gate(model, batch[:fits], method=method, threshold=threshold)
    if fits < len(batch) and want.verdict is Verdict.SIMULTANEOUS:
        want = dataclasses.replace(want, verdict=Verdict.REDUCED)
    assert got == want


# --- metrics ----------------------------------------------------------------------


@settings(max_examples=25, **COMMON)
@given(connected_device(min_qubits=4, max_qubits=6), st.integers(0, 2**31 - 1))
def test_esp_monotone_under_error_increase(model, seed):
    circuit = QuantumCircuit(
        "c", 3, 3,
        (Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("measure", (0,), clbit=0)),
    )
    base = estimate_success(circuit, model)
    rng = np.random.default_rng(seed)
    edge = tuple(sorted(model.edges[int(rng.integers(len(model.edges)))]))
    worse = dataclasses.replace(model, cnot_error={**model.cnot_error, edge: min(model.cnot_error[edge] + 0.3, 0.95)})
    assert estimate_success(circuit, worse) <= base + 1e-15


@settings(max_examples=30, **COMMON)
@given(small_circuit(max_qubits=3), st.integers(0, 2**31 - 1))
def test_simulation_normalized(circuit, seed):
    dist = simulate(circuit)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


# --- simulator and equivalence check -------------------------------------------------

ONE_Q_PARAMS = {"h": 0, "x": 0, "s": 0, "t": 0, "sdg": 0, "rz": 1, "ry": 1, "u3": 3}


def random_gates(rng, qubits, clbits, n_gates, measure_p=0.25):
    """Random 1q gates, CXs, barriers and measurements into random bits of
    ``clbits``, so measured qubits are reused and bits are written twice."""
    gates = []
    for _ in range(n_gates):
        r = rng.random()
        if r < measure_p and clbits:
            gates.append(Gate("measure", (int(rng.choice(qubits)),), clbit=int(rng.choice(clbits))))
        elif r < measure_p + 0.05:
            span = rng.choice(qubits, size=int(rng.integers(1, len(qubits) + 1)), replace=False)
            gates.append(Gate("barrier", tuple(sorted(int(q) for q in span))))
        elif r < measure_p + 0.4 and len(qubits) >= 2:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(Gate("cx", (int(a), int(b))))
        else:
            kind = sorted(ONE_Q_PARAMS)[int(rng.integers(len(ONE_Q_PARAMS)))]
            params = tuple(float(rng.uniform(0, 2 * np.pi)) for _ in range(ONE_Q_PARAMS[kind]))
            gates.append(Gate(kind, (int(rng.choice(qubits)),), params))
    return gates


@st.composite
def measured_program(draw):
    """At most 12 active qubits among a few more declared ones; no bits at
    all (keys over qubits) or up to 4 bits, some of which nothing writes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = draw(st.integers(1, 12))
    declared = active + draw(st.integers(0, 3))
    qubits = [int(q) for q in rng.choice(declared, size=active, replace=False)]
    width = draw(st.integers(0, 4))
    gates = random_gates(rng, qubits, list(range(width)), draw(st.integers(0, 30)))
    return QuantumCircuit("p", declared, width + draw(st.integers(0, 2)), tuple(gates))


def assert_close(got: dict, want: dict, tol: float = 1e-12) -> None:
    assert max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)), default=0.0) <= tol


@settings(max_examples=200, **COMMON)
@given(measured_program(), st.sampled_from([4, 12]))
def test_batched_simulate_matches_per_branch_oracle(circuit, cap):
    try:
        want = per_branch_simulate(circuit, cap=cap)
    except SimulationError as exc:
        with pytest.raises(SimulationError, match=re.escape(str(exc))):
            simulate(circuit, cap=cap)
        return
    assert_close(simulate(circuit, cap=cap), want)


# runs of CNOTs over qubits (a, b, c): what the router inserts, and near misses
TRAFFIC = {
    "swap": ((0, 1), (1, 0), (0, 1)),
    "bridge": ((0, 1), (1, 2), (0, 1), (1, 2)),
    "half swap": ((0, 1), (1, 0)),
    "bridge, last cx differs": ((0, 1), (1, 2), (0, 1), (2, 1)),
    "swap, then one more": ((0, 1), (1, 0), (0, 1), (1, 0)),
    "two swaps": ((0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (1, 2)),
}


@st.composite
def program_with_router_traffic(draw):
    """Random gates on 3-6 qubits with runs from ``TRAFFIC`` inserted, some
    right after a measurement of a qubit the run touches; no bits at all
    (keys over qubits) in about a third of the cases.  At most 12
    measurements, so no input reaches the branch cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 6))
    qubits = [int(q) for q in rng.choice(n + draw(st.integers(0, 2)), size=n, replace=False)]
    width = draw(st.integers(0, 2)) * 2
    gates = random_gates(rng, qubits, list(range(width)), draw(st.integers(0, 8)))
    for name in draw(st.lists(st.sampled_from(sorted(TRAFFIC)), min_size=1, max_size=4)):
        abc = [int(q) for q in rng.choice(qubits, size=3, replace=False)]
        run = [Gate("cx", (abc[i], abc[j])) for i, j in TRAFFIC[name]]
        if width and rng.random() < 0.5:
            run.insert(0, Gate("measure", (abc[int(rng.integers(3))],), clbit=int(rng.integers(width))))
        at = int(rng.integers(len(gates) + 1))
        gates[at:at] = run
    return QuantumCircuit("p", max(qubits) + 1, width, tuple(gates))


@settings(max_examples=200, **COMMON)
@given(program_with_router_traffic())
def test_lowered_simulation_matches_the_unlowered_oracle(circuit):
    assert_close(simulate(circuit), per_branch_simulate(circuit))


@st.composite
def multi_region_program(draw):
    """Up to three regions, each with qubits and bits of its own and ending
    in a measurement, interleaved in random order; with two or more regions,
    a CX or a measurement may cross from the first region into the second.
    Returns the program and each region's bits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    declared = sum(sizes) + draw(st.integers(0, 2))
    order = [int(q) for q in rng.permutation(declared)]
    regions, region_bits, streams = [], [], []
    for k in sizes:
        qubits, order = order[:k], order[k:]
        first = sum(len(b) for b in region_bits)
        bits = list(range(first, first + int(rng.integers(1, 4))))
        gates = random_gates(rng, qubits, bits, int(rng.integers(0, 16)))
        gates.append(Gate("measure", (qubits[0],), clbit=bits[0]))
        regions.append(qubits)
        region_bits.append(bits)
        streams.append(gates)
    gates = []
    while any(streams):
        stream = streams[int(rng.choice([i for i, s in enumerate(streams) if s]))]
        gates.append(stream.pop(0))
    crossing = draw(st.sampled_from(["none", "cx", "measure"])) if len(sizes) > 1 else "none"
    if crossing != "none":
        a = int(rng.choice(regions[0]))
        if crossing == "cx":
            cross = Gate("cx", (a, int(rng.choice(regions[1]))))
        else:
            cross = Gate("measure", (a,), clbit=int(rng.choice(region_bits[1])))
        gates.insert(int(rng.integers(len(gates) + 1)), cross)
    num_clbits = sum(len(b) for b in region_bits) + draw(st.integers(0, 2))
    return QuantumCircuit("merged", declared, num_clbits, tuple(gates)), region_bits


@settings(max_examples=150, **COMMON)
@given(multi_region_program(), st.integers(0, 2**32 - 1))
def test_factorised_marginals_match_whole_program_oracle(case, seed):
    merged, region_bits = case
    rng = np.random.default_rng(seed)
    mixed = [int(b) for b in rng.permutation(merged.num_clbits)[: int(rng.integers(1, merged.num_clbits + 1))]]
    lists = region_bits + [mixed]  # a list may span components and unwritten bits
    whole = per_branch_simulate(merged)
    for got, bits in zip(marginals(merged, lists), lists):
        assert_close(got, marginalize(whole, bits))


@st.composite
def filled_device_workload(draw):
    """A random device and circuits of 1-4 qubits, with mid-circuit
    measurements, whose sizes add up to the whole device."""
    model = draw(connected_device(min_qubits=6, max_qubits=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuits, free = [], model.num_qubits
    while free:
        k = min(int(rng.integers(1, 5)), free)
        free -= k
        gates = random_gates(rng, list(range(k)), list(range(k)), int(rng.integers(0, 14)), measure_p=0.15)
        gates += [Gate("measure", (q,), clbit=q) for q in range(k)]
        circuits.append(QuantumCircuit(f"c{len(circuits)}", k, k, tuple(gates)))
    return model, circuits


@settings(max_examples=30, **COMMON)
@given(filled_device_workload(), st.integers(0, 2**31 - 1))
def test_filled_device_compiles_to_compliant_verified_programs(case, seed):
    model, circuits = case
    result = compile_workloads(model, circuits, RunConfig(seed=seed, attempts=2))
    placed = [cid for compiled in result.plans for cid in compiled.plan.selected]
    assert sorted(placed) == sorted(c.id for c in circuits)
    for compiled in result.plans:
        regions = {p.circuit_id: p.qubits for p in compiled.plan.partitions}
        check_compliance(compiled.merged, compiled.manifest, regions, model)
        report = check_equivalence(compiled.circuits, compiled.merged, compiled.manifest)
        assert report.passed, report


# --- router ----------------------------------------------------------------------


@st.composite
def routing_case(draw):
    """``guadalupe`` or ``toronto`` with 1-3 random circuits (mid-circuit
    measurements, barriers) in disjoint connected regions of 1-7 qubits,
    and the router's settings."""
    model = PRESET_MODELS[draw(st.sampled_from(["guadalupe", "toronto"]))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    used: set[int] = set()
    jobs = []
    for i in range(draw(st.integers(1, 3))):
        region = [int(rng.choice(sorted(set(range(model.num_qubits)) - used)))]
        for _ in range(draw(st.integers(0, 6))):
            rim = sorted({v for q in region for v in model.neighbors(q)} - set(region) - used)
            if rim:
                region.append(int(rng.choice(rim)))
        used |= set(region)
        k = len(region)
        gates = random_gates(rng, list(range(k)), list(range(k)), draw(st.integers(0, 50)), measure_p=0.1)
        gates += [Gate("measure", (q,), clbit=q) for q in range(k)]
        jobs.append((QuantumCircuit(f"c{i}", k, k, tuple(gates)), tuple(sorted(region))))
    config = RunConfig(
        ext_layer=draw(st.sampled_from([0, 1, 5, 20])),
        swap_only=draw(st.booleans()),
        self_cost=draw(st.booleans()),
        attempts=draw(st.integers(1, 10)),
    )
    return model, jobs, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, **COMMON)
@given(routing_case())
def test_bounded_placement_and_interleaved_routes_match_reference_router(case):
    model, jobs, config, seed = case
    route_kw = dict(ext_size=config.ext_layer, swap_only=config.swap_only, self_cost=config.self_cost)
    dist = distance_matrices(model)
    combined = np.array(dist)  # the reference router indexes a numpy matrix
    routes, specs = [], []
    for circuit, region in jobs:
        dag = build_dag(circuit)
        l2p, route = initial_mapping(model, dist, region, circuit, np.random.default_rng(seed), config)
        want = reference_placement(
            model, combined, region, circuit, dag, np.random.default_rng(seed), attempts=config.attempts, **route_kw
        )
        assert l2p == want
        routes.append(route)
        specs.append((circuit, dag, region, l2p))
    ref = reference_route(model, combined, specs, **route_kw)
    assert not any(route.aborted for route in routes)
    merged, _ = merged_circuit(routes, model)
    assert list(merged.gates) == [g for gates in ref.gates for g in gates]
    assert [route.swaps for route in routes] == ref.swaps
    assert [route.bridges for route in routes] == ref.bridges
    assert [route.final_l2p for route in routes] == ref.final_l2p
    assert [route.iterations for route in routes] == ref.iterations


@settings(max_examples=60, **COMMON)
@given(routing_case(), st.data())
def test_region_order_does_not_change_the_route(case, data):
    # the router reads a region as a set: initial_mapping permutes the
    # sorted region, _Job compares sorted, and repairs are looked up by key
    model, jobs, _, seed = case
    dist = distance_matrices(model)
    for circuit, region in jobs:
        shuffled = tuple(data.draw(st.permutations(region)))
        for config in (RunConfig(), RunConfig(swap_only=True)):
            (l2p, route), (l2p_shuffled, route_shuffled) = (
                initial_mapping(model, dist, qubits, circuit, np.random.default_rng(seed), config)
                for qubits in (region, shuffled)
            )
            assert l2p == l2p_shuffled
            assert (route.records, route.iterations) == (route_shuffled.records, route_shuffled.iterations)


@settings(max_examples=40, **COMMON)
@given(routing_case(), st.data())
def test_the_order_across_circuits_changes_nothing_measured(case, data):
    # regions are disjoint, so any interleave of a plan's routes that keeps
    # each circuit's own order has the plan-order program's depth, gates per
    # region, success estimate and outcome distributions
    model, jobs, config, seed = case
    dist = distance_matrices(model)
    routes = [initial_mapping(model, dist, region, c, np.random.default_rng(seed), config)[1] for c, region in jobs]
    merged, manifest = merged_circuit(routes, model)
    owner = {q: i for i, (_, region) in enumerate(jobs) for q in region}
    queues = [[g for g in merged.gates if owner[g.qubits[0]] == i] for i in range(len(jobs))]
    order = data.draw(st.permutations([i for i, queue in enumerate(queues) for _ in queue]))
    pending = [iter(queue) for queue in queues]
    shuffled = QuantumCircuit("merged", merged.num_qubits, merged.num_clbits, tuple(next(pending[i]) for i in order))
    assert [[g for g in shuffled.gates if owner[g.qubits[0]] == i] for i in range(len(jobs))] == queues
    assert depth(shuffled.gates) == depth(merged.gates)
    assert math.isclose(estimate_success(shuffled, model), estimate_success(merged, model), rel_tol=1e-12)
    sources = [c for c, _ in jobs]
    for program in (merged, shuffled):
        report = check_equivalence(sources, program, manifest)
        assert report.passed, report


@st.composite
def small_routing_case(draw):
    """One random circuit of 3-5 qubits in a connected region of
    ``guadalupe`` or ``toronto``, and the router's settings."""
    model = PRESET_MODELS[draw(st.sampled_from(["guadalupe", "toronto"]))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    region = [int(rng.integers(model.num_qubits))]
    for _ in range(draw(st.integers(2, 4))):
        region.append(int(rng.choice(sorted({v for q in region for v in model.neighbors(q)} - set(region)))))
    k = len(region)
    gates = random_gates(rng, list(range(k)), list(range(k)), draw(st.integers(10, 50)), measure_p=0.1)
    circuit = QuantumCircuit("c", k, k, tuple(gates + [Gate("measure", (q,), clbit=q) for q in range(k)]))
    config = RunConfig(
        ext_layer=draw(st.sampled_from([0, 5, 20])),
        swap_only=draw(st.booleans()),
        self_cost=draw(st.booleans()),
        attempts=draw(st.integers(1, 3)),
    )
    return model, circuit, tuple(sorted(region)), config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, **COMMON)
@given(small_routing_case())
def test_no_route_adds_fewer_cnots_than_the_optimum(case):
    # the exact search drops every dependency but the CNOTs' order on each
    # wire, so a route below it would be an accounting bug
    model, circuit, region, config, seed = case
    route_kw = dict(ext_size=config.ext_layer, swap_only=config.swap_only, self_cost=config.self_cost)
    dist = distance_matrices(model)
    _, route = initial_mapping(model, dist, region, circuit, np.random.default_rng(seed), config)
    dag = build_dag(circuit)
    combined = np.array(dist)
    l2p = reference_placement(
        model, combined, region, circuit, dag, np.random.default_rng(seed), attempts=config.attempts, **route_kw
    )
    ref = reference_route(model, combined, [(circuit, dag, region, l2p)], **route_kw)
    optimum = optimal_added_cnots(model, region, circuit)
    assert route.additional_cnots >= optimum
    assert 3 * (ref.swaps[0] + ref.bridges[0]) >= optimum


# --- command line --------------------------------------------------------------

CLI_PROGRAMS = [
    "qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];",
    "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;",
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3]; creg c[3];\nh q[0]; cx q[0],q[2]; rz(0.3) q[1]; cx q[2],q[1];\nmeasure q -> c;',
    "qreg q[4]; creg c[2]; x q[3]; cx q[3],q[0]; barrier q; cx q[1],q[2]; u3(0.1,0.2,0.3) q[2]; measure q[2] -> c[1];",
]
ODD_RATES = [math.nan, math.inf, -0.1, 1.0, 1.5]
MISTYPED = ["x", None, 2.5, [[0, 1]]]
ODD_FLAGS = {
    "--method": ["gsp", "qhsp", "sabre"],
    "--lambda": ["1", "0", "-2", "nan", "inf", "x"],
    "--delta": ["0", "0.1", "inf", "-inf", "nan", "1e9"],
    "--weight-w": ["0", "0.5", "-1", "inf", "1e308"],
    "--alpha1": ["0", "0.5", "-1", "1e308", "nan"],
    "--alpha2": ["0", "0.5", "1e308", "-1e308"],
    "--ext-layer": ["0", "3", "-1", "1.5"],
    "--attempts": ["1", "2", "0", "abc"],
    "--seed": ["0", "5", "-1"],
}


def _mutate(draw, text: str) -> str:
    """``text`` with one span deleted, duplicated or replaced by QASM-like
    noise."""
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    noise = draw(st.text(alphabet="qc[];,->0123456789.e hxrzu()", max_size=6))
    return draw(st.sampled_from([text[:i] + text[j:], text[:j] + text[i:j] + text[j:], text[:i] + noise + text[j:]]))


def _mistype(draw, files: dict) -> None:
    """Replace one topology or calibration field, or one item inside it, by a
    value of the wrong type."""
    target = files[draw(st.sampled_from(sorted(files)))]
    key = draw(st.sampled_from(sorted(target)))
    while isinstance(target[key], list) and target[key] and draw(st.booleans()):
        target, key = target[key], draw(st.integers(0, len(target[key]) - 1))
    target[key] = draw(st.sampled_from(MISTYPED))


def _complete(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


@st.composite
def cli_case(draw):
    """A small device (sometimes disconnected, some rates out of range or
    NaN, sometimes one field of the wrong type; one in eight a star or a
    complete graph of 7 to 16 qubits), a few valid or mutated programs and a
    vector of flags, which may leave out ``--seed``."""
    if draw(st.integers(0, 7)) == 0:  # a dense device, where regions are many
        n = draw(st.integers(7, 16))
        edges = _complete(n) if draw(st.booleans()) else [(0, i) for i in range(1, n)]
    else:
        n = draw(st.integers(1, 6))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
        edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        if draw(st.integers(0, 3)):  # a spine keeps it connected
            edges |= {(i - 1, i) for i in range(1, n)}
        edges = sorted(edges)
    rate = st.floats(0.0, 0.2)
    if draw(st.integers(0, 3)) == 0:
        rate |= st.sampled_from(ODD_RATES)
    files = {
        "topology.json": {"num_qubits": n, "edges": [list(e) for e in edges]},
        "calibration.json": {
            "cnot_errors": [[a, b, draw(rate)] for a, b in edges],
            "readout_errors": [draw(rate) for _ in range(n)],
        },
    }
    if draw(st.integers(0, 3)) == 0:
        _mistype(draw, files)
    programs = []
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from(CLI_PROGRAMS))
        programs.append(_mutate(draw, text) if draw(st.integers(0, 3)) == 0 else text)
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(ODD_FLAGS)), max_size=4, unique=True)):
        flags += [flag, draw(st.sampled_from(ODD_FLAGS[flag]))]
    flags += draw(st.lists(st.sampled_from(["--swap-only", "--no-self-cost"]), max_size=2, unique=True))
    return draw(st.sampled_from(["compile", "partition"])), files, programs, flags


# found by this property: the combined distance overflowed to inf, with a
# RuntimeWarning, and the run went on to route on it
ALPHA_OVERFLOW = (
    "compile",
    {
        "topology.json": {"num_qubits": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        "calibration.json": {
            "cnot_errors": [[0, 1, 0.0], [1, 2, 0.0], [2, 3, 0.0], [3, 4, 0.125]],
            "readout_errors": [0.0] * 5,
        },
    },
    [CLI_PROGRAMS[0]] * 3,
    ["--attempts", "1", "--alpha2", "1e308", "--alpha1", "1e308", "--seed", "1"],
)


# alphas whose sum is finite but near the float maximum: the router's cost
# sums went to inf and its choices degraded
ALPHA_COST_OVERFLOW = (*ALPHA_OVERFLOW[:3], ["--attempts", "1", "--alpha2", "8e307", "--alpha1", "8e307", "--seed", "1"])


# a weight whose lookahead term overflowed cost_h in the same way
WEIGHT_COST_OVERFLOW = (*ALPHA_OVERFLOW[:3], ["--attempts", "1", "--weight-w", "1e308", "--seed", "1"])


# a lambda that overflowed the fidelity degrees to inf
LAMBDA_OVERFLOW = (*ALPHA_OVERFLOW[:3], ["--attempts", "1", "--lambda", "1e308", "--seed", "1"])


# a dense device under the exhaustive search: a 6-qubit circuit on a 65-qubit
# star would grow C(64, 5) connected regions, and exits 1 at the region budget
STAR = presets.star_topology(65)
DENSE_GSP = (
    "compile",
    {"topology.json": STAR, "calibration.json": presets.uniform_calibration(STAR)},
    ["qreg q[6]; creg c[6]; h q[0]; cx q[0],q[1]; cx q[0],q[2]; cx q[3],q[4]; cx q[4],q[5]; measure q -> c;"],
    ["--method", "gsp", "--seed", "1"],
)


# the same circuit on a 65-qubit complete graph, where every set of qubits is
# a connected region: it exits 1 at the region budget too
COMPLETE = {"num_qubits": 65, "edges": [list(e) for e in _complete(65)]}
DENSE_COMPLETE_GSP = (
    "compile",
    {"topology.json": COMPLETE, "calibration.json": presets.uniform_calibration(COMPLETE)},
    *DENSE_GSP[2:],
)


def _mistyped(path, value):
    """ALPHA_OVERFLOW's device and programs at default flags, with the field
    at ``path`` (file name first) replaced by ``value``."""
    files = json.loads(json.dumps(ALPHA_OVERFLOW[1]))
    *parents, last = path
    functools.reduce(operator.getitem, parents, files)[last] = value
    return "compile", files, ALPHA_OVERFLOW[2], ["--seed", "1"]


def _unreadable(name, text):
    """ALPHA_OVERFLOW's device and programs at default flags, and an empty
    crosstalk table, with the file ``name`` holding ``text`` verbatim."""
    files = {**ALPHA_OVERFLOW[1], "crosstalk.json": {"pairs": []}, name: text}
    return "compile", files, ALPHA_OVERFLOW[2], ["--seed", "1"]


@settings(max_examples=150, **COMMON)
@given(cli_case())
@example(ALPHA_OVERFLOW)
@example(ALPHA_COST_OVERFLOW)
@example(WEIGHT_COST_OVERFLOW)
@example(LAMBDA_OVERFLOW)
@example(DENSE_GSP)
@example(DENSE_COMPLETE_GSP)
# mistyped device fields that used to exit 2 as internal errors, or were truncated
@example(_mistyped(["topology.json", "num_qubits"], "x"))
@example(_mistyped(["topology.json", "num_qubits"], 3.7))
@example(_mistyped(["topology.json", "edges"], None))
@example(_mistyped(["topology.json", "edges", 0], ["x", 1]))
@example(_mistyped(["topology.json", "edges", 0], [0, 1.9]))
@example(_mistyped(["calibration.json", "cnot_errors", 0], 7))
@example(_mistyped(["calibration.json", "cnot_errors", 0, 2], "x"))
@example(_mistyped(["calibration.json", "readout_errors"], 5))
@example(_mistyped(["calibration.json", "readout_errors", 0], "x"))
# JSON that json.loads cannot decode: an integer of more than 4,300 digits
# (ValueError) and an array nested 100,000 deep (RecursionError)
@example(_unreadable("topology.json", '{"num_qubits": ' + "1" * 5000 + ', "edges": []}'))
@example(_unreadable("calibration.json", '{"readout_errors": [' + "1" * 5000 + "]}"))
@example(_unreadable("crosstalk.json", '{"pairs": [' + "1" * 5000 + "]}"))
@example(_unreadable("topology.json", "[" * 100_000))
def test_cli_exits_0_or_1_with_one_error_line(case):
    command, files, programs, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in files.items():  # a string is the file's text
            (tmp / name).write_text(content if isinstance(content, str) else json.dumps(content))
        for i, text in enumerate(programs):
            (tmp / f"p{i}.qasm").write_text(text)
        argv = [command, "--topology", str(tmp / "topology.json"), "--calibration", str(tmp / "calibration.json")]
        if "crosstalk.json" in files:
            argv += ["--crosstalk", str(tmp / "crosstalk.json")]
        if command == "compile":
            argv += ["--out-dir", str(tmp / "out")]
        code, err = _run_cli([*argv, *flags, *(str(tmp / f"p{i}.qasm") for i in range(len(programs)))])
        assert code in (0, 1), err
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        elif command == "compile":  # every program is within the simulator's caps
            out = tmp / "out"
            for i, plan in enumerate(json.loads((out / "plans.json").read_text())):
                sources = [str(tmp / f"{cid}.qasm") for cid in plan["selected"]]
                merged, manifest = str(out / f"merged_{i}.qasm"), str(out / f"manifest_{i}.json")
                assert _run_cli(["verify", "--merged", merged, "--manifest", manifest, *sources]) == (0, "")


def _run_cli(argv):
    """``cli.main``'s exit code and standard error; a numeric warning is a
    fault, as an exception would be."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        return cli.main(argv), err.getvalue()
