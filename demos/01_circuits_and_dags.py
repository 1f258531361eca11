"""Parse a small OpenQASM program, inspect its statistics, and walk its
dependency DAG.

Run with:  python3 demos/01_circuits_and_dags.py
"""
from qmpc import build_dag, emit_qasm, parse_qasm

SOURCE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1];
cx q[0],q[2];
rz(pi/4) q[2];
cx q[2],q[3];
barrier q;
measure q -> c;
"""

circuit = parse_qasm(SOURCE, "demo")
print(f"parsed {len(circuit.gates)} gates over {circuit.num_qubits} qubits")

print(f"CNOTs: {circuit.cnot_count}")
print(f"density (CNOTs per qubit): {circuit.density} = {float(circuit.density):.3f}")
print(f"largest logical degree: {circuit.largest_logical_degree}  (qubit 0 talks to 1 and 2)")

dag = build_dag(circuit)
front = [i for i, d in enumerate(dag.in_degree) if d == 0]
print(f"initial front layer: {front} -> {[circuit.gates[i].kind for i in front]}")
print("dependency edges:")
for node in range(len(circuit.gates)):
    for succ in dag.successors[node]:
        print(f"  {node}:{circuit.gates[node].kind}{circuit.gates[node].qubits}"
              f" -> {succ}:{circuit.gates[succ].kind}{circuit.gates[succ].qubits}")

print("\nround trip through the emitter:")
print(emit_qasm(circuit))
