"""Invariant checks driven by generated instances."""
import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qmpc import presets
from qmpc.circuits import Gate, QuantumCircuit, build_dag, emit_qasm, parse_qasm, stats
from qmpc.hardware import build_crosstalk, build_hardware, distance_matrices, subgraph_diameter
from qmpc.errors import DisconnectedGraphError, HardwareError, PartitionError, SimulationError
from qmpc.manager import Verdict, fidelity_gate, select_k, sort_by_density
from qmpc.partition import (
    GSP_MAX_QUBITS,
    _induced_edges,
    allocate_all,
    crosstalk_adjust,
    gsp_partition,
    qhsp_partition,
    score,
)
from qmpc.partition import Partition
from qmpc.pipeline import RunConfig, compile_workloads
from qmpc.scheduler import initial_mapping, interleave
from qmpc.verify import check_compliance, check_equivalence, estimate_success, marginalize, marginals, simulate

from oracles import (
    conditional_errors_scan,
    induced_edges_scan,
    per_branch_simulate,
    reference_gsp_partition,
    reference_placement,
    reference_route,
    region_diameter_nx,
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


@settings(max_examples=60, **COMMON)
@given(small_circuit(), st.integers(0, 2**31 - 1))
def test_topological_orders_preserve_per_qubit_sequence(circuit, seed):
    dag = build_dag(circuit)
    rng = np.random.default_rng(seed)
    in_deg = dag.in_degrees()
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
    s = stats(circuit)
    assert s.density * s.qubit_count == s.cnot_count
    assert s.largest_logical_degree < max(s.qubit_count, 1) or s.qubit_count == 1


# --- matrices ---------------------------------------------------------------------


@settings(max_examples=25, **COMMON)
@given(connected_device())
def test_distance_matrices_symmetric_zero_diag_normalized(model):
    mats = distance_matrices(model)
    for m in (mats.swap_distance, mats.swap_error, mats.combined):
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.all(np.diag(m) == 0)
    assert mats.swap_distance.max() == 1.0
    if mats.swap_error.max() > 0:
        assert mats.swap_error.max() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mats.combined, 0.5 * mats.swap_distance + 0.5 * mats.swap_error, atol=1e-15)


@settings(max_examples=25, **COMMON)
@given(connected_device())
def test_every_edge_has_diameter_one(model):
    for e in model.edges:
        assert subgraph_diameter(model, set(e)) == 1


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
    assert _induced_edges(model, region) == induced_edges_scan(model.edges, region)


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
    adjusted = crosstalk_adjust(model, choice.qubits, set(), None)
    assert best.score <= score(model, choice.qubits, c1, adjusted, with_diameter=True) + 1e-12


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
    strong = None
    keep = draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
    if keep is not None:
        pairs = []
        for gate in model.edges:
            for cond in model.edges:
                one_hop = any(model.has_edge(a, b) for a in gate for b in cond)
                if set(gate) & set(cond) or not one_hop or rng.random() >= keep:
                    continue
                # errors below the solo error too, which never replace it
                pairs.append({"gate": list(gate), "conditioned_on": list(cond), "error": float(rng.uniform(0, 0.5))})
        strong = build_crosstalk(pairs, model)
    cnots = tuple(Gate("cx", (i % k, (i + 1) % k)) for i in range(draw(st.integers(0, 20)))) if k > 1 else ()
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
    assert got == want  # ids, qubits, methods, order, and every score exactly


@settings(max_examples=25, **COMMON)
@given(connected_device(min_qubits=4, max_qubits=7), st.integers(0, 2**31 - 1))
def test_score_monotone_in_errors(model, seed):
    circuit = QuantumCircuit("c", 3, 0, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    try:
        before = {p.qubits: p.score for p in gsp_partition(model, circuit, set())}
    except PartitionError:
        return
    rng = np.random.default_rng(seed)
    # bump one CNOT error and one readout error
    edge = tuple(sorted(model.edges[int(rng.integers(len(model.edges)))]))
    bumped_cnot = {e: (min(err + 0.2, 0.9) if e == edge else err) for e, err in model.cnot_error.items()}
    qubit = int(rng.integers(model.num_qubits))
    readout = model.readout_error.copy()
    readout[qubit] = min(readout[qubit] + 0.2, 0.9)
    worse = build_hardware(
        {"num_qubits": model.num_qubits, "edges": [list(e) for e in model.edges]},
        {
            "cnot_errors": [[a, b, bumped_cnot[(a, b)]] for a, b in model.edges],
            "readout_errors": [float(r) for r in readout],
        },
    )
    after = {p.qubits: p.score for p in gsp_partition(worse, circuit, set())}
    for qubits, score in before.items():
        assert after[qubits] >= score - 1e-12


@settings(max_examples=20, **COMMON)
@given(connected_device(min_qubits=6, max_qubits=9))
def test_delta_s_nonnegative_for_exhaustive_method(model):
    c1 = QuantumCircuit("a", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(6)))
    c2 = QuantumCircuit("b", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(2)))
    try:
        plan = fidelity_gate(model, [c1, c2], RunConfig(method="gsp", delta=sys.float_info.max))
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
    st.sampled_from([0.0, 0.02, 0.1, 0.5, sys.float_info.max]),  # the largest threshold a RunConfig accepts
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
    adjusted = {edge: min(model.cnot_error[edge] + 0.3, 0.95)}
    assert estimate_success(circuit, model, adjusted) <= base + 1e-15


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
        check_compliance(compiled.merged, compiled.manifest, compiled.plan, model)
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
        jobs.append((QuantumCircuit(f"c{i}", k, k, tuple(gates)), Partition(f"c{i}", tuple(sorted(region)), 0.0, "QHSP")))
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
    matrices = distance_matrices(model)
    routes, specs = [], []
    for circuit, part in jobs:
        dag = build_dag(circuit)
        l2p, route = initial_mapping(model, matrices.combined_rows, part, circuit, dag, np.random.default_rng(seed), config)
        want = reference_placement(
            model, matrices.combined, part, circuit, dag, np.random.default_rng(seed), attempts=config.attempts, **route_kw
        )
        assert l2p == want
        routes.append(route)
        specs.append((circuit, dag, part, l2p))
    ref = reference_route(model, matrices.combined, specs, **route_kw)
    got = interleave(routes)
    assert not got.aborted
    assert got.entries == ref.entries
    assert list(got.swap_counts.items()) == list(ref.swap_counts.items())
    assert list(got.bridge_counts.items()) == list(ref.bridge_counts.items())
    assert list(got.final_mappings.items()) == list(ref.final_mappings.items())
    assert got.iterations == ref.iterations
