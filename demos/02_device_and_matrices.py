"""Build a 27-qubit heavy-hex device model and derive its routing matrices.

The combined matrix D mixes hop distance with the failure probability of the
most reliable swap path.  Both tables hold raw values; ``distance_matrices``
scales each so that its largest entry is 1 before the weighted sum, so equal
weights compare like with like.  Every matrix is a tuple of rows, read as
``m[a][b]``.

Run with:  python3 demos/02_device_and_matrices.py
"""
from qmpc import build_hardware, distance_matrices, hop_count_matrix, subgraph_diameter
from qmpc.hardware import swap_error_matrix
from qmpc.presets import synthetic_calibration, topology

topo = topology("toronto")
model = build_hardware(topo, synthetic_calibration(topo, seed=3))
print(f"device: {model.num_qubits} qubits, {len(model.edges)} couplings")

hops, failure = hop_count_matrix(model), swap_error_matrix(model)
D = distance_matrices(model)
n = model.num_qubits
a, b = far = max(((a, b) for a in range(n) for b in range(n)), key=lambda pair: hops[pair[0]][pair[1]])
print(f"most distant pair {far}: {int(hops[a][b])} hops, swap failure {failure[a][b]:.4f}, D {D[a][b]:.3f}")
print(f"largest swap failure: {max(map(max, failure)):.4f} (D scales both tables to a largest entry of 1)")

u, v = nearest = min(model.edges, key=lambda e: model.cnot_error[e])
print(f"best coupling: {nearest} with CNOT error {model.cnot_error[nearest]:.4f}")
print(f"{nearest}: {int(hops[u][v])} hop, swap failure {failure[u][v]:.4f}, D {D[u][v]:.4f} (cheap to move across)")

patch = {1, 2, 3, 4, 7}
print(f"diameter of the T-shaped patch {sorted(patch)}: {subgraph_diameter(model, patch)}")
