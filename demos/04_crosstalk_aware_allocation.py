"""Show the conditional-error filter and how allocation steers around
crosstalk from already-placed circuits.

Device: a 6-qubit path whose outer edges (0,1), (2,3), (4,5) are good and
whose connector edges are poor.  Measurements say that running a CNOT on
(2,3) while one runs on (0,1) quadruples its error rate; the filter keeps
that pair (4x > 3x threshold) and allocation then avoids (2,3) for the
second circuit once the first owns (0,1).

Run with:  python3 demos/04_crosstalk_aware_allocation.py
"""
from qmpc import RunConfig, build_crosstalk, build_hardware, extract_strong_crosstalk
from qmpc.circuits import Gate, QuantumCircuit
from qmpc.partition import allocate_all, crosstalk_adjust

topo = {"num_qubits": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]}
cal = {
    "cnot_errors": [[0, 1, 0.005], [1, 2, 0.3], [2, 3, 0.01], [3, 4, 0.3], [4, 5, 0.01]],
    "readout_errors": [0.01, 0.01, 0.02, 0.02, 0.02, 0.02],
}
model = build_hardware(topo, cal)

measured = [
    {"gate": [2, 3], "conditioned_on": [0, 1], "error": 0.04},   # 4.0x the solo rate
    {"gate": [4, 5], "conditioned_on": [2, 3], "error": 0.018},  # only 1.8x, too weak
]
table = build_crosstalk(measured, model)
strong = extract_strong_crosstalk(table, model)
print(f"measured conditional pairs: {len(table)}; strong (>3x solo): {len(strong)}")
for (gate, cond), err in strong.entries.items():
    print(f"  CNOT {gate} degrades to {err} when {cond} runs concurrently")

busy = QuantumCircuit("busy", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(6)))
calm = QuantumCircuit("calm", 2, 0, tuple(Gate("cx", (0, 1)) for _ in range(4)))

adjusted = crosstalk_adjust(model, {2, 3}, used_qubits={0, 1}, strong_pairs=strong)
print(f"\nedge (2,3) error once (0,1) is occupied: {adjusted[(2, 3)]} (solo 0.01)")

config = RunConfig(method="qhsp")
without = allocate_all(model, [busy, calm], config, strong_pairs=None)
with_xt = allocate_all(model, [busy, calm], config, strong_pairs=strong)
print(f"\nignoring crosstalk:   busy -> {without[0].qubits}, calm -> {without[1].qubits}")
print(f"respecting crosstalk: busy -> {with_xt[0].qubits}, calm -> {with_xt[1].qubits}")
print("the tied candidate (2,3) loses once its adjusted error enters the score")
