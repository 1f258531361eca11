from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qmpc.circuits import Gate, QuantumCircuit, parse_qasm
from qmpc.hardware import build_hardware
from qmpc.presets import (
    line_topology,
    ring_topology,
    synthetic_calibration,
    topology,
    uniform_calibration,
)


@pytest.fixture
def line5():
    topo = line_topology(5)
    return build_hardware(topo, uniform_calibration(topo))


@pytest.fixture
def jakarta():
    topo = topology("jakarta")
    return build_hardware(topo, synthetic_calibration(topo, seed=1))


@pytest.fixture
def guadalupe():
    topo = topology("guadalupe")
    return build_hardware(topo, synthetic_calibration(topo, seed=2))


@pytest.fixture
def toronto():
    topo = topology("toronto")
    return build_hardware(topo, synthetic_calibration(topo, seed=3))


@pytest.fixture
def valencia_ranked():
    """T-shaped 5-qubit device whose fidelity degrees rank 1 > 3 > 0 > 2 > 4."""
    topo = {"num_qubits": 5, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]}
    cal = {
        "cnot_errors": [[0, 1, 0.02], [1, 2, 0.03], [1, 3, 0.01], [3, 4, 0.015]],
        "readout_errors": [0.03, 0.02, 0.05, 0.025, 0.12],
        "single_qubit_errors": [0.0] * 5,
    }
    return build_hardware(topo, cal)


def random_circuit(rng: np.random.Generator, cid: str, n_qubits: int | None = None, max_gates: int = 18) -> QuantumCircuit:
    """Seeded random workload: 1q/2q mix (1q only on one qubit), all qubits
    measured at the end."""
    n = int(n_qubits if n_qubits is not None else rng.integers(3, 7))
    gates: list[Gate] = []
    n_gates = int(rng.integers(max(6, max_gates - 8), max_gates + 1))
    one_q = ["h", "x", "t", "s", "rz"]
    for _ in range(n_gates):
        if n > 1 and rng.random() < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate("cx", (int(a), int(b))))
        else:
            kind = one_q[int(rng.integers(len(one_q)))]
            params = (float(rng.uniform(0, 2 * np.pi)),) if kind == "rz" else ()
            gates.append(Gate(kind, (int(rng.integers(n)),), params))
    for q in range(n):
        gates.append(Gate("measure", (q,), clbit=q))
    return QuantumCircuit(cid, n, n, tuple(gates))


@pytest.fixture
def circuit_factory():
    return random_circuit


BELL = "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;"


@pytest.fixture
def bell():
    return parse_qasm(BELL, "bell")


def record_criterion(config, number: int, ok: bool, detail: str) -> None:
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = {}
        config._acceptance_lines = lines
    lines[number] = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
