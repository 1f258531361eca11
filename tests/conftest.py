from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qmpc.circuits import parse_qasm
from qmpc.hardware import build_hardware
from qmpc.presets import (
    line_topology,
    ring_topology,
    synthetic_calibration,
    topology,
    uniform_calibration,
)

from helpers import random_circuit


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


@pytest.fixture
def circuit_factory():
    return random_circuit


BELL = "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;"


@pytest.fixture
def bell():
    return parse_qasm(BELL, "bell")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
