"""Ready-made device fixtures: topologies modeled on public IBM machines plus
simple synthetic shapes, and a seeded calibration generator.

These exist so tests, demos and benchmarks can build models without shipping
calibration files; real deployments load JSON snapshots instead.  Only the
tests call ``line_topology``, ``ring_topology``, ``star_topology``,
``uniform_calibration`` and ``model``.
"""
from __future__ import annotations

import numpy as np

from .hardware import HardwareModel, build_hardware

# 5-qubit T shape (Valencia-class device).
VALENCIA_EDGES = [(0, 1), (1, 2), (1, 3), (3, 4)]

# 7-qubit H shape (Jakarta/Casablanca-class device).
JAKARTA_EDGES = [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]

# 16-qubit heavy-hex patch (Guadalupe-class device).
GUADALUPE_EDGES = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
]

# 27-qubit heavy-hex lattice (Toronto/Falcon-class device).
TORONTO_EDGES = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]

# 65-qubit heavy-hex lattice (Manhattan/Hummingbird-class device).
MANHATTAN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
    (0, 10), (4, 11), (8, 12),
    (10, 13), (11, 17), (12, 21),
    (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 19), (19, 20),
    (20, 21), (21, 22), (22, 23),
    (15, 24), (19, 25), (23, 26),
    (24, 29), (25, 33), (26, 37),
    (27, 28), (28, 29), (29, 30), (30, 31), (31, 32), (32, 33), (33, 34),
    (34, 35), (35, 36), (36, 37),
    (27, 38), (31, 39), (35, 40),
    (38, 41), (39, 45), (40, 49),
    (41, 42), (42, 43), (43, 44), (44, 45), (45, 46), (46, 47), (47, 48),
    (48, 49), (49, 50), (50, 51),
    (43, 52), (47, 53), (51, 54),
    (52, 56), (53, 60), (54, 64),
    (55, 56), (56, 57), (57, 58), (58, 59), (59, 60), (60, 61), (61, 62),
    (62, 63), (63, 64),
]


def line_topology(n: int) -> dict:
    return {"num_qubits": n, "edges": [[i, i + 1] for i in range(n - 1)]}


def ring_topology(n: int) -> dict:
    edges = [[i, (i + 1) % n] for i in range(n)]
    return {"num_qubits": n, "edges": edges}


def star_topology(n: int) -> dict:
    return {"num_qubits": n, "edges": [[0, i] for i in range(1, n)]}


def topology(name: str) -> dict:
    named = {
        "valencia": (5, VALENCIA_EDGES),
        "jakarta": (7, JAKARTA_EDGES),
        "guadalupe": (16, GUADALUPE_EDGES),
        "toronto": (27, TORONTO_EDGES),
        "manhattan": (65, MANHATTAN_EDGES),
    }
    n, edges = named[name]
    return {"num_qubits": n, "edges": [list(e) for e in edges]}


def synthetic_calibration(topo: dict, seed: int = 0) -> dict:
    """Calibration snapshot with errors drawn uniformly from realistic ranges:
    CNOT [0.005, 0.03), readout [0.01, 0.08), single-qubit [2e-4, 1.5e-3)."""
    rng = np.random.default_rng(seed)
    n = topo["num_qubits"]
    cnot = [[int(i), int(j), float(rng.uniform(0.005, 0.03))] for i, j in topo["edges"]]
    return {
        "cnot_errors": cnot,
        "readout_errors": [float(rng.uniform(0.01, 0.08)) for _ in range(n)],
        "single_qubit_errors": [float(rng.uniform(2e-4, 1.5e-3)) for _ in range(n)],
    }


def uniform_calibration(topo: dict, cnot: float = 0.01, readout: float = 0.02) -> dict:
    n = topo["num_qubits"]
    return {
        "cnot_errors": [[int(i), int(j), cnot] for i, j in topo["edges"]],
        "readout_errors": [readout] * n,
        "single_qubit_errors": [0.0] * n,
    }


def model(name: str, seed: int = 0) -> HardwareModel:
    topo = topology(name)
    return build_hardware(topo, synthetic_calibration(topo, seed=seed))
