"""Walk the heuristic partition search on a 5-qubit T-shaped device and
compare it with the exhaustive baseline.

The device calibration is chosen so the per-qubit fidelity degrees rank
1 > 3 > 0 > 2 > 4, which makes the growth order easy to follow by hand.

Run with:  python3 demos/03_partitioning.py
"""
from qmpc import build_hardware
from qmpc.circuits import Gate, QuantumCircuit
from qmpc.partition import fidelity_degree, gsp_partition, qhsp_partition, starting_points

topo = {"num_qubits": 5, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]}
cal = {
    "cnot_errors": [[0, 1, 0.02], [1, 2, 0.03], [1, 3, 0.01], [3, 4, 0.015]],
    "readout_errors": [0.03, 0.02, 0.05, 0.025, 0.12],
}
model = build_hardware(topo, cal)

degrees = fidelity_degree(model, lam=2.0)
print("fidelity degrees (weighted neighbour CNOT fidelity + readout fidelity):")
for q, value in enumerate(degrees):
    print(f"  qubit {q}: degree {model.degree(q)}, fidelity degree {value:.3f}")

# a 4-qubit circuit whose busiest qubit talks to three partners
circuit = QuantumCircuit(
    "hub", 4, 0, (Gate("cx", (0, 1)), Gate("cx", (0, 2)), Gate("cx", (0, 3)))
)
print(f"\nstarting points for a circuit with largest logical degree 3: "
      f"{starting_points(model, circuit)}")

best = qhsp_partition(model, circuit, set())[0]
print(f"heuristic candidate, in merge order: {best.qubits}  score {best.score:.4f}")
print("  (qubit 1 adopts 3, then 0, then 2 - always the best free neighbour of")
print("   the highest-fidelity-degree member)")

oracle = gsp_partition(model, circuit, set())[0]
print(f"exhaustive baseline picks {tuple(sorted(oracle.qubits))} "
      f"(score {oracle.score:.4f}, includes the region-diameter penalty)")
assert set(best.qubits) == set(oracle.qubits)
print("the heuristic found the same region without enumerating all subsets")
