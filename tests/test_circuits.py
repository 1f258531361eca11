import copy
import pickle
from fractions import Fraction

import pytest

from qmpc.circuits import (
    MAX_PARAM_NESTING,
    MAX_REGISTER_SIZE,
    Gate,
    QuantumCircuit,
    build_dag,
    emit_qasm,
    parse_merged_qasm,
    parse_qasm,
)
from qmpc.errors import MultiRegisterError, QasmError, UnsupportedGateError

from oracles import dependency_edges, reference_parse_program


def test_parse_single_cx():
    c = parse_qasm("qreg q[2]; cx q[0],q[1];")
    assert c.num_qubits == 2
    assert len(c.gates) == 1
    assert c.gates[0] == Gate("cx", (0, 1))


def test_parse_h_and_measure():
    c = parse_qasm("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];")
    assert [g.kind for g in c.gates] == ["h", "measure"]
    assert c.gates[1].clbit == 0


def test_parse_full_header_and_params():
    src = """OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    u3(pi/2,0,pi) q[0];  // a hadamard in disguise
    rz(-1.5) q[1];
    u2(0,pi) q[2];
    cx q[2],q[0];
    """
    c = parse_qasm(src)
    assert c.gates[0].params == (pytest.approx(1.5707963267948966), 0.0, pytest.approx(3.141592653589793))
    assert c.gates[1].params == (-1.5,)
    assert c.gates[3] == Gate("cx", (2, 0))


def test_unsupported_gate_named():
    with pytest.raises(UnsupportedGateError, match="ccx"):
        parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")


def test_multi_register_rejected():
    with pytest.raises(MultiRegisterError):
        parse_qasm("qreg q[2]; qreg r[2];")
    with pytest.raises(MultiRegisterError):
        parse_qasm("qreg q[2]; creg c[2]; creg d[2];")


def test_merged_parser_allows_multiple_cregs():
    circuit, layout = parse_merged_qasm(
        "qreg q[4]; creg c0[2]; creg c1[2]; cx q[0],q[1]; measure q[2] -> c1[0];"
    )
    assert circuit.num_clbits == 4
    assert layout == {"c0": (0, 2), "c1": (2, 2)}
    assert circuit.gates[-1].clbit == 2  # global index


def test_syntax_error_carries_position():
    with pytest.raises(QasmError) as err:
        parse_qasm("qreg q[2];\ncx q[0] q[1];")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "statement, col", [("rz(1e999) q[0];", 4), ("rz(1e308*10) q[0];", 4), ("u3(0,1e999-1e999,0) q[0];", 6)]
)
def test_non_finite_parameter_rejected_with_position(statement, col):
    with pytest.raises(QasmError, match="not finite") as err:
        parse_qasm(f"qreg q[1];\n{statement}")
    assert (err.value.line, err.value.col) == (2, col)


@pytest.mark.parametrize(
    "param",
    ["(" * 400 + "1" + ")" * 400, "-" * 1200 + "1", "(" * 101 + "1" + ")" * 101, "-" * 101 + "1",
     "-(" * 51 + "1" + ")" * 51],
    ids=["400-parentheses", "1200-signs", "101-parentheses", "101-signs", "51-signed-parentheses"],
)
def test_parameter_nested_too_deeply_rejected_with_position(param):
    # each level is a recursive call of the expression parser: 400 parentheses or
    # 1,200 signs used to raise RecursionError
    with pytest.raises(QasmError, match="parameter nested too deeply") as err:
        parse_qasm(f"qreg q[1];\nrz({param}) q[0];")
    assert (err.value.line, err.value.col) == (2, 5 + MAX_PARAM_NESTING)  # the first token past the limit


@pytest.mark.parametrize(
    "param",
    ["(" * 100 + "1" + ")" * 100, "-" * 100 + "1", "-" * 99 + "2.5", "-(" * 50 + "3" + ")" * 50, "+-" * 50 + "pi"],
    ids=["100-parentheses", "100-signs", "99-signs", "50-signed-parentheses", "100-mixed-signs"],
)
def test_parameter_nested_to_the_limit_parses_as_before(param):
    text = f"qreg q[1];\nrz({param}) q[0];"
    assert parse_qasm(text).gates == tuple(reference_parse_program(text, allow_multiple_cregs=False)[2])


@pytest.mark.parametrize(
    "text, col",
    [
        (f"qreg q[{MAX_REGISTER_SIZE + 1}]; h q;", 8),
        ("qreg q[2];\ncreg c[3000000];", 8),
        ("qreg  q[400000]; h q;", 9),
        ("qreg q[" + "1" * 5000 + "];", 8),  # more digits than int() converts
        ("qreg q[" + "0" * 5000 + "1];\ncreg c[" + "9" * 5000 + "];", 8),
    ],
    ids=["qreg-one-over", "creg-3000000", "qreg-400000-broadcast", "qreg-5000-digits", "creg-5000-digits"],
)
def test_register_over_the_size_cap_rejected_at_its_size(text, col):
    # checked at the declaration, before a broadcast builds a gate per qubit
    # or a manifest lists a bit per clbit
    with pytest.raises(QasmError, match=f"exceeds the limit of {MAX_REGISTER_SIZE}") as err:
        parse_merged_qasm(text)
    assert (err.value.line, err.value.col) == (text.count("\n") + 1, col)


def test_registers_at_the_size_cap_parse():
    c = parse_qasm(f"qreg q[{MAX_REGISTER_SIZE}]; creg c[{MAX_REGISTER_SIZE}]; h q; measure q -> c;")
    assert (c.num_qubits, c.num_clbits, len(c.gates)) == (MAX_REGISTER_SIZE, MAX_REGISTER_SIZE, 2 * MAX_REGISTER_SIZE)


def test_index_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm("qreg q[2]; h q[2];")


def test_index_of_5000_digits_rejected_at_the_index():
    # more digits than int() converts: this used to raise ValueError; the
    # message quotes the literal cut short
    literal = "1" * 5000
    with pytest.raises(QasmError, match=rf"index 1{{17}}\.\.\.1{{18}} exceeds the limit of {MAX_REGISTER_SIZE}$") as err:
        parse_qasm(f"qreg q[2];\ncx q[0],q[{literal}];")
    assert (err.value.line, err.value.col) == (2, 11)


def test_index_with_5000_leading_zeros_parses():
    circuit = parse_qasm("qreg q[2]; creg c[2]; measure q[" + "0" * 5000 + "1] -> c[" + "0" * 5000 + "];")
    assert circuit.gates == (Gate("measure", (1,), clbit=0),)


def test_cx_same_qubit_rejected():
    with pytest.raises(QasmError):
        parse_qasm("qreg q[2]; cx q[0],q[0];")


def test_broadcast_over_register():
    c = parse_qasm("qreg q[3]; creg c[3]; h q; measure q -> c;")
    assert [g.kind for g in c.gates] == ["h"] * 3 + ["measure"] * 3
    assert [g.qubits[0] for g in c.gates[:3]] == [0, 1, 2]


def test_barrier_whole_register_and_explicit():
    c = parse_qasm("qreg q[3]; barrier q; barrier q[0],q[2];")
    assert c.gates[0].qubits == (0, 1, 2)
    assert c.gates[1].qubits == (0, 2)


@pytest.mark.parametrize(
    "gate",
    [
        Gate("measure", (0,), clbit=-1),  # DAG wire ~-1 == 0 is qubit 0's: the measurement would depend on itself
        Gate("measure", (0,), clbit=3),  # past the one classical bit
        Gate("measure", (0,)),  # a measurement that writes no bit
        Gate("measure", (0,), clbit=0.0),
        Gate("h", (0,), clbit=0),  # only measurements write a bit
    ],
)
def test_circuit_rejects_a_clbit_outside_its_register_or_off_a_measurement(gate):
    with pytest.raises(ValueError, match="clbit"):
        QuantumCircuit("t", 1, 1, (Gate("h", (0,)), gate))


# --- DAG -------------------------------------------------------------------


def test_dag_disjoint_gates():
    c = QuantumCircuit("t", 4, 0, (Gate("cx", (0, 1)), Gate("cx", (2, 3))))
    dag = build_dag(c)
    assert dag.successors == [(), ()]
    assert [i for i, d in enumerate(dag.in_degree) if d == 0] == [0, 1]


def test_dag_shared_qubit():
    c = QuantumCircuit("t", 3, 0, (Gate("cx", (0, 1)), Gate("cx", (1, 2))))
    dag = build_dag(c)
    assert dag.successors[0] == (1,)
    assert [i for i, d in enumerate(dag.in_degree) if d == 0] == [0]


def test_dag_matches_brute_force_scan():
    c = QuantumCircuit("t", 2, 0, (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("h", (1,))))
    dag = build_dag(c)
    got = {(a, b) for a in range(3) for b in dag.successors[a]}
    assert got == dependency_edges(c.gates) == {(0, 1), (1, 2)}


def test_dag_brute_force_on_longer_circuit(circuit_factory):
    import numpy as np

    rng = np.random.default_rng(5)
    c = circuit_factory(rng, "r", n_qubits=4)
    dag = build_dag(c)
    got = {(a, b) for a in range(len(c.gates)) for b in dag.successors[a]}
    assert got == dependency_edges(c.gates)


def test_dag_orders_measurements_into_the_same_bit():
    c = parse_qasm("qreg q[3]; creg c[2]; measure q[0] -> c[0]; measure q[1] -> c[1]; measure q[2] -> c[0];")
    dag = build_dag(c)
    assert dag.successors == [(2,), (), ()]
    got = {(a, b) for a in range(3) for b in dag.successors[a]}
    assert got == dependency_edges(c.gates)


def test_same_bit_measurements_compile_in_source_order():
    # measuring q[1] into c[0] last must win, however the router orders the
    # two independent qubits
    from qmpc.hardware import build_hardware
    from qmpc.pipeline import RunConfig, compile_workloads
    from qmpc.presets import line_topology, uniform_calibration
    from qmpc.verify import check_equivalence

    source = (
        "qreg q[2]; creg c[1]; h q[0]; h q[0]; h q[0]; h q[0]; "
        "measure q[0] -> c[0]; x q[1]; measure q[1] -> c[0];"
    )
    topo = line_topology(2)
    model = build_hardware(topo, uniform_calibration(topo))
    compiled = compile_workloads(model, [parse_qasm(source, "w")], RunConfig(seed=1)).plans[0]
    report = check_equivalence(compiled.circuits, compiled.merged, compiled.manifest)
    assert report.passed, report


def test_barrier_fences_all_touched_qubits():
    c = parse_qasm("qreg q[2]; h q[0]; barrier q; h q[1];")
    dag = build_dag(c)
    assert dag.successors[0] == (1,)  # h q0 -> barrier
    assert dag.successors[1] == (2,)  # barrier -> h q1


# --- stats -------------------------------------------------------------------


def test_density_definition():
    gates = tuple(Gate("cx", (i % 4, (i + 1) % 4)) for i in range(10))
    c = QuantumCircuit("t", 5, 0, gates)
    assert c.density == Fraction(2, 1)
    assert c.density * c.num_qubits == c.cnot_count


def test_largest_logical_degree_distinct_partners():
    c = QuantumCircuit("t", 4, 0, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3))))
    assert c.largest_logical_degree == 3
    repeated = QuantumCircuit("t", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(4)))
    assert repeated.largest_logical_degree == 1


def test_circuit_without_qubits_has_no_density():
    empty = QuantumCircuit("t", 0, 0, ())
    for name in ("density", "largest_logical_degree"):
        with pytest.raises(ValueError, match="at least one qubit"):
            getattr(empty, name)


def test_round_trip_is_gate_identical(bell):
    again = parse_qasm(emit_qasm(bell), "bell")
    assert again.gates == bell.gates
    assert again.num_qubits == bell.num_qubits
    assert again.num_clbits == bell.num_clbits


# --- Gate values -----------------------------------------------------------------


def test_gate_equality_and_hash_follow_the_fields():
    a, b = Gate("rz", (1,), (0.5,)), Gate("rz", (1,), (0.5,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Gate("rz", (1,), (0.25,)) and a != Gate("rz", (2,), (0.5,))
    assert Gate("measure", (0,), clbit=0) != Gate("measure", (0,), clbit=1)
    assert a != ("rz", (1,), (0.5,), None) and ("rz", (1,), (0.5,), None) != a


def test_gate_fields_cannot_be_assigned_or_deleted():
    gate = Gate("cx", (0, 1))
    for field in ("kind", "qubits", "params", "clbit", "other"):
        with pytest.raises(AttributeError):
            setattr(gate, field, None)
        with pytest.raises(AttributeError):
            delattr(gate, field)
    assert gate == Gate("cx", (0, 1))


def test_gate_copies_and_repr():
    gate = Gate("measure", (3,), clbit=2)
    for twin in (pickle.loads(pickle.dumps(gate)), copy.copy(gate), copy.deepcopy(gate)):
        assert type(twin) is Gate and twin == gate
    assert repr(gate) == "Gate(kind='measure', qubits=(3,), params=(), clbit=2)"


def test_gate_keyword_construction_and_cx_check():
    gate = Gate(kind="u2", qubits=(0,), params=(0.1, 0.2))
    assert (gate.kind, gate.qubits, gate.params, gate.clbit) == ("u2", (0,), (0.1, 0.2), None)
    with pytest.raises(ValueError, match="two distinct qubits"):
        Gate("cx", (1, 1))
