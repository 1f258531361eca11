import numpy as np
import pytest

from qmpc import verify
from qmpc.circuits import Gate, QuantumCircuit, parse_qasm
from qmpc.errors import RoutingError, SimulationError, VerificationError
from qmpc.hardware import build_hardware
from qmpc.pipeline import estimate_success
from qmpc.presets import line_topology, uniform_calibration
from qmpc.scheduler import check_compliance
from qmpc.verify import (
    _BRANCH_CAP,
    _apply,
    check_equivalence,
    gate_matrix,
    marginalize,
    simulate,
    total_variation,
)

from helpers import REMEASURED_QASM
from oracles import circuit_unitary


def test_h_measure_half_half():
    dist = simulate(parse_qasm("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];"))
    assert dist["0"] == pytest.approx(0.5, abs=1e-12)
    assert dist["1"] == pytest.approx(0.5, abs=1e-12)


def test_bell_pair(bell):
    dist = simulate(bell)
    assert set(dist) == {"00", "11"}
    assert dist["00"] == pytest.approx(0.5, abs=1e-12)


def test_distribution_sums_to_one(circuit_factory):
    rng = np.random.default_rng(11)
    for i in range(5):
        dist = simulate(circuit_factory(rng, f"c{i}"))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def _amplitudes(circuit):
    """Final amplitudes of a measurement-free circuit, run through
    ``_apply`` on one branch; bit b of an index is qubit b."""
    n = circuit.num_qubits
    state = np.zeros((1,) + (2,) * n, dtype=complex)
    state.flat[0] = 1.0
    for g in circuit.gates:
        matrix = None if g.kind == "cx" else gate_matrix(g.kind, g.params)
        state = _apply(state, tuple(q + 1 for q in g.qubits), matrix)
    # axis q + 1 carries qubit q; little-endian flat order wants qubit 0 last
    return np.transpose(state[0], axes=tuple(reversed(range(n)))).reshape(-1)


def test_random_clifford_matches_unitary_oracle():
    # 6-qubit Clifford-ish circuit checked against a dense matrix product
    rng = np.random.default_rng(23)
    n = 6
    ops = []
    gates = []
    for _ in range(30):
        r = rng.random()
        if r < 0.4:
            a, b = map(int, rng.choice(n, size=2, replace=False))
            ops.append(("cx", a, b))
            gates.append(Gate("cx", (a, b)))
        else:
            kind = ["h", "s", "x", "sdg"][int(rng.integers(4))]
            q = int(rng.integers(n))
            ops.append((kind, q, ()))
            gates.append(Gate(kind, (q,)))
    circuit = QuantumCircuit("cliff", n, 0, tuple(gates))
    amps = _amplitudes(circuit)
    oracle = circuit_unitary(n, ops)[:, 0]  # column of |0...0>
    assert np.max(np.abs(amps - oracle)) < 1e-12
    dist = simulate(circuit)
    for idx, amp in enumerate(oracle):
        key = format(idx, f"0{n}b")[::-1]  # key position i is qubit i
        assert dist.get(key, 0.0) == pytest.approx(abs(amp) ** 2, abs=1e-12)


def test_statevector_norm():
    rng = np.random.default_rng(3)
    gates = [Gate("rz", (i % 3,), (float(rng.uniform(0, 6)),)) for i in range(6)]
    gates += [Gate("h", (i,)) for i in range(3)]
    c = QuantumCircuit("c", 3, 0, tuple(gates))
    assert np.linalg.norm(_amplitudes(c)) == pytest.approx(1.0, abs=1e-12)


def test_too_many_active_qubits_rejected():
    gates = tuple(Gate("h", (q,)) for q in range(13))
    with pytest.raises(SimulationError):
        simulate(QuantumCircuit("wide", 13, 0, gates), cap=12)


def test_cap_counts_active_not_declared_qubits():
    gates = (Gate("h", (0,)), Gate("cx", (0, 40)))
    dist = simulate(QuantumCircuit("sparse", 64, 0, gates), cap=12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_qubits_only_a_barrier_touches_are_not_active():
    # the barrier used to count all 14 qubits against the cap of 12
    dist = simulate(parse_qasm("qreg q[14]; creg c[1]; barrier q; h q[0]; measure q[0] -> c[0];"))
    assert dist == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-12)


def test_mid_circuit_measurement_branches():
    src = "qreg q[2]; creg c[2]; h q[0]; measure q[0] -> c[0]; x q[0]; measure q[0] -> c[1];"
    dist = simulate(parse_qasm(src))
    assert dist == pytest.approx({"01": 0.5, "10": 0.5}, abs=1e-12)


# --- equivalence ------------------------------------------------------------------


def _compile_pair(model, circuits, seed=5):
    from qmpc.pipeline import RunConfig, compile_workloads

    res = compile_workloads(model, circuits, RunConfig(seed=seed))
    assert len(res.plans) == 1
    return res.plans[0]


def test_identity_compilation_tv_zero(bell):
    topo = line_topology(2)
    model = build_hardware(topo, uniform_calibration(topo))
    compiled = _compile_pair(model, [bell])
    report = check_equivalence([bell], compiled.merged, compiled.manifest)
    assert report.passed
    assert report.max_tv == 0.0


def test_compilation_with_insertions_matches():
    topo = line_topology(6)
    model = build_hardware(topo, uniform_calibration(topo))
    src = "qreg q[4]; creg c[4]; h q[0]; cx q[0],q[3]; cx q[1],q[2]; cx q[0],q[2]; measure q -> c;"
    circuit = parse_qasm(src, "tangled")
    compiled = _compile_pair(model, [circuit])
    assert compiled.stats["total_additional_cnots"] > 0  # line forces insertions
    report = check_equivalence([circuit], compiled.merged, compiled.manifest)
    assert report.passed
    assert report.max_tv < 1e-9


def test_corrupted_manifest_fails(bell):
    topo = line_topology(4)
    model = build_hardware(topo, uniform_calibration(topo))
    other = parse_qasm("qreg q[2]; creg c[2]; x q[0]; cx q[0],q[1]; measure q -> c;", "other")
    compiled = _compile_pair(model, [bell, other])
    good = compiled.manifest
    bad = {cid: dict(entry) for cid, entry in good.items()}
    bad["bell"] = dict(bad["bell"], clbits=list(reversed(good["other"]["clbits"])))
    ok = check_equivalence([bell, other], compiled.merged, good)
    assert ok.passed
    # bell now reads other's bits, which other still lists too
    with pytest.raises(VerificationError, match="for 'bell' too"):
        check_equivalence([bell, other], compiled.merged, bad)
    bad["other"] = dict(bad["other"], clbits=good["bell"]["clbits"])
    corrupted = check_equivalence([bell, other], compiled.merged, bad)
    assert not corrupted.passed


def test_manifest_mismatch_errors(bell):
    with pytest.raises(VerificationError, match="no entry"):
        check_equivalence([bell], bell, {})
    with pytest.raises(VerificationError, match="clbits"):
        check_equivalence([bell], bell, {"bell": {"clbits": [0]}})


@pytest.mark.parametrize("clbits", [[False, True], [0, True], [0, 1.0], [0, "1"]])
def test_manifest_clbits_must_be_integers(bell, clbits):
    # a boolean is an int to Python, and used to be read as bit 0 or 1
    with pytest.raises(VerificationError, match='needs a list of integer "clbits"'):
        check_equivalence([bell], bell, {"bell": {"clbits": clbits}})


def test_bits_shared_by_two_circuits_are_rejected(guadalupe, bell):
    # the copy's gates are gone, and its manifest reads the first circuit's
    # bits: the same distribution, so this passed with TV 0
    copy = QuantumCircuit("copy", bell.num_qubits, bell.num_clbits, bell.gates)
    compiled = _compile_pair(guadalupe, [bell, copy])
    region = set(compiled.manifest["copy"]["logical_to_physical"].values())
    gates = tuple(g for g in compiled.merged.gates if region.isdisjoint(g.qubits))
    merged = QuantumCircuit("merged", compiled.merged.num_qubits, compiled.merged.num_clbits, gates)
    manifest = {cid: dict(entry) for cid, entry in compiled.manifest.items()}
    manifest["copy"]["clbits"] = list(manifest["bell"]["clbits"])
    with pytest.raises(VerificationError, match="manifest lists clbit 0 of 'copy' for 'bell' too"):
        check_equivalence([bell, copy], merged, manifest)


def test_bit_listed_twice_for_one_circuit_is_rejected(bell):
    # both Bell bits read one measurement of |+>: the Bell distribution, so
    # this passed with TV 0
    merged = parse_qasm("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];", "merged")
    with pytest.raises(VerificationError, match="manifest lists clbit 0 of 'bell' twice"):
        check_equivalence([bell], merged, {"bell": {"clbits": [0, 0]}})


def test_source_that_measures_nothing_is_rejected(guadalupe):
    # its bits read 0 in the source and in the merged program, so this
    # passed with TV 0 though it compared nothing
    silent = parse_qasm("qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1];", "silent")
    compiled = _compile_pair(guadalupe, [silent])
    with pytest.raises(VerificationError, match="circuit 'silent' has no measurements to compare"):
        check_equivalence([silent], compiled.merged, compiled.manifest)


def test_routed_program_branches_no_more_than_its_sources(monkeypatch, circuit_factory):
    # every source measures only at its end; the router's SWAPs and bridges
    # through measured qubits must not make the merged side branch
    from qmpc import presets, verify
    from qmpc.pipeline import RunConfig, compile_workloads

    model = presets.model("manhattan", seed=5)
    rng = np.random.default_rng(2)
    circuits = [circuit_factory(rng, f"c{i}", int(rng.integers(5, 9)), max_gates=60) for i in range(6)]
    (compiled,) = compile_workloads(model, circuits, RunConfig(seed=1)).plans
    assert compiled.merged.cnot_count > sum(c.cnot_count for c in circuits)  # the router added CNOTs
    calls = []
    measure = verify._measure
    monkeypatch.setattr(verify, "_measure", lambda *args: calls.append(args[2]) or measure(*args))
    assert check_equivalence(compiled.circuits, compiled.merged, compiled.manifest).passed
    assert calls == []


def _ghz(cid, n):
    gates = [Gate("h", (0,))] + [Gate("cx", (q, q + 1)) for q in range(n - 1)]
    gates += [Gate("measure", (q,), clbit=q) for q in range(n)]
    return QuantumCircuit(cid, n, n, tuple(gates))


def _side_by_side(circuits):
    """The circuits on disjoint qubits and bits of one program, interleaved."""
    offsets, q0, b0 = [], 0, 0
    for c in circuits:
        offsets.append((q0, b0))
        q0 += c.num_qubits
        b0 += c.num_clbits
    gates = []
    for step in range(max(len(c.gates) for c in circuits)):
        for c, (qo, bo) in zip(circuits, offsets):
            if step < len(c.gates):
                g = c.gates[step]
                clbit = None if g.clbit is None else g.clbit + bo
                gates.append(Gate(g.kind, tuple(q + qo for q in g.qubits), g.params, clbit))
    manifest = {c.id: {"clbits": list(range(bo, bo + c.num_clbits))} for c, (_, bo) in zip(circuits, offsets)}
    return QuantumCircuit("merged", q0, b0, tuple(gates)), manifest


def test_cap_applies_per_independent_component():
    sources = [_ghz("a", 7), _ghz("b", 7)]
    merged, manifest = _side_by_side(sources)
    with pytest.raises(SimulationError, match="14 active qubits"):
        simulate(merged)
    report = check_equivalence(sources, merged, manifest)
    assert report.passed and report.max_tv < 1e-12


def test_one_component_over_the_branch_cap_still_raises():
    # 13 branching measurements of one qubit: 2**13 branches in one component
    flips = [g for _ in range(13) for g in (Gate("h", (0,)), Gate("measure", (0,), clbit=0))]
    flips.append(Gate("x", (0,)))
    coin = QuantumCircuit("coin", 1, 1, tuple(flips))
    assert 2**13 > _BRANCH_CAP
    merged, manifest = _side_by_side([coin, _ghz("g", 3)])
    with pytest.raises(SimulationError, match="branches"):
        check_equivalence([coin, _ghz("g", 3)], merged, manifest)


def test_branch_array_is_bounded_by_its_amplitudes(monkeypatch):
    # a component under both the qubit and the branch cap can still hold too
    # many amplitudes in all: at --cap 20, 4096 branches would be 64 GiB
    circuit = parse_qasm(REMEASURED_QASM, "remeasured")
    monkeypatch.setattr(verify, "_AMPLITUDE_CAP", 63)
    with pytest.raises(SimulationError, match="8 branches of 3 qubits exceed 63 amplitudes"):
        simulate(circuit, cap=20)
    monkeypatch.setattr(verify, "_AMPLITUDE_CAP", 64)
    assert len(simulate(circuit, cap=20)) == 64


def _compiled_two(bell):
    topo = line_topology(4)
    model = build_hardware(topo, uniform_calibration(topo))
    other = parse_qasm("qreg q[2]; creg c[2]; x q[0]; cx q[0],q[1]; measure q -> c;", "other")
    return model, _compile_pair(model, [bell, other])


def test_compliance_accepts_compiled_plan(bell):
    model, compiled = _compiled_two(bell)
    check_compliance(compiled.merged, compiled.manifest, compiled.plan.partitions, model)


def test_compliance_rejects_each_violation(bell):
    model, compiled = _compiled_two(bell)
    merged, manifest, plan = compiled.merged, compiled.manifest, compiled.plan
    a, b = (sorted(p.qubits) for p in plan.partitions)
    bits_b = manifest[plan.partitions[1].circuit_id]["clbits"]

    def with_gate(gate):
        return QuantumCircuit(merged.id, merged.num_qubits, merged.num_clbits, merged.gates + (gate,))

    far = (min(a + b), max(a + b))  # the two ends of the line: not an edge
    bad_programs = {
        "not on a coupling edge": with_gate(Gate("cx", far)),
        "leaves every circuit's region": with_gate(Gate("cx", (max(a), min(b)))),
        "does not own": with_gate(Gate("measure", (a[0],), clbit=bits_b[0])),
    }
    for message, program in bad_programs.items():
        with pytest.raises(RoutingError, match=message):
            check_compliance(program, manifest, plan.partitions, model)
    cid = plan.partitions[0].circuit_id
    folded = dict(manifest, **{cid: dict(manifest[cid], logical_to_physical={"0": a[0], "1": a[0]})})
    with pytest.raises(RoutingError, match="bijection"):
        check_compliance(merged, folded, plan.partitions, model)


def test_total_variation_adds_in_key_order():
    # a set of strings iterates in an order that changes with the hash seed;
    # adding in key order gives the same float in every process
    rng = np.random.default_rng(0)
    p = {format(i, "06b"): float(rng.random()) for i in range(64)}
    q = {format(i, "06b"): float(rng.random()) for i in range(0, 64, 2)}
    want = 0.0
    for k in sorted(set(p) | set(q)):
        want += abs(p.get(k, 0.0) - q.get(k, 0.0))
    assert total_variation(p, q) == 0.5 * want


def test_marginalize_projects_positions():
    dist = {"010": 0.25, "110": 0.75}
    assert marginalize(dist, [0, 2]) == {"00": 0.25, "10": 0.75}
    assert marginalize(dist, [1]) == {"1": 1.0}


# --- metrics ---------------------------------------------------------------------


def test_esp_error_free_is_one(bell):
    topo = line_topology(2)
    model = build_hardware(topo, uniform_calibration(topo, cnot=0.0, readout=0.0))
    assert estimate_success(bell, model) == 1.0


def test_esp_substitution():
    topo = line_topology(2)
    model = build_hardware(topo, uniform_calibration(topo, cnot=0.01, readout=0.02))
    c = parse_qasm("qreg q[2]; creg c[2]; cx q[0],q[1]; measure q -> c;")
    assert estimate_success(c, model) == pytest.approx(0.99 * 0.98**2)


def test_esp_monotone_in_added_swap():
    topo = line_topology(2)
    model = build_hardware(topo, uniform_calibration(topo, cnot=0.01, readout=0.02))
    base = parse_qasm("qreg q[2]; creg c[2]; cx q[0],q[1]; measure q -> c;")
    swapped = parse_qasm(
        "qreg q[2]; creg c[2]; cx q[0],q[1]; cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1]; measure q -> c;"
    )
    assert estimate_success(swapped, model) < estimate_success(base, model)
