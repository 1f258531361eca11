"""Build a 27-qubit heavy-hex device model and derive its routing matrices.

The combined matrix D mixes hop distance with the failure probability of the
most reliable swap path, each normalized to [0, 1], so equal weights compare
like with like.  Every matrix is a tuple of rows, read as ``m[a][b]``.

Run with:  python3 demos/02_device_and_matrices.py
"""
from qmpc import build_hardware, distance_matrices, hop_count_matrix, subgraph_diameter
from qmpc.hardware import swap_distance_matrix, swap_error_matrix
from qmpc.presets import synthetic_calibration, topology

topo = topology("toronto")
model = build_hardware(topo, synthetic_calibration(topo, seed=3))
print(f"device: {model.num_qubits} qubits, {len(model.edges)} couplings")

hops = hop_count_matrix(model)
n = model.num_qubits
a, b = far = max(((a, b) for a in range(n) for b in range(n)), key=lambda pair: hops[pair[0]][pair[1]])
print(f"most distant pair: {far} at {int(hops[a][b])} hops")

D = distance_matrices(model)
print(f"normalized swap distance for {far}: {swap_distance_matrix(model)[a][b]:.3f}")
print(f"normalized swap error for {far}:   {swap_error_matrix(model)[a][b]:.3f}")
print(f"combined D for {far}:              {D[a][b]:.3f}")

nearest = min(model.edges, key=lambda e: model.cnot_error[e])
print(f"best coupling: {nearest} with CNOT error {model.cnot_error[nearest]:.4f}")
print(f"D over that edge: {D[nearest[0]][nearest[1]]:.4f} (small distances mean cheap moves)")

patch = {1, 2, 3, 4, 7}
print(f"diameter of the T-shaped patch {sorted(patch)}: {subgraph_diameter(model, patch)}")
