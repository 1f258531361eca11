"""The reference simulator against hand-computed distributions."""
import math

import numpy as np
import pytest

import sim
from qmpc.circuits import parse_qasm
from qmpc.verify import simulate
from workloads import measure_reuse_source


def dist(n, nc, *ops):
    return sim.distribution(n, nc, [(k, q, p, c) for k, q, p, c in ops])


def g(kind, *qubits, params=(), clbit=None):
    return (kind, tuple(qubits), tuple(params), clbit)


def close(a, b):
    return sim.total_variation(a, b) < 1e-12


def test_bell():
    got = dist(2, 2, g("h", 0), g("cx", 0, 1), g("measure", 0, clbit=0), g("measure", 1, clbit=1))
    assert close(got, {"00": 0.5, "11": 0.5})


def test_ghz_with_bits_crossed():
    got = dist(
        3, 3, g("h", 0), g("cx", 0, 1), g("cx", 1, 2), g("x", 2),
        g("measure", 0, clbit=2), g("measure", 1, clbit=1), g("measure", 2, clbit=0),
    )
    # qubit 2 is flipped and lands in bit 0
    assert close(got, {"100": 0.5, "011": 0.5})


def test_measure_and_reuse():
    got = dist(1, 2, g("h", 0), g("measure", 0, clbit=0), g("h", 0), g("measure", 0, clbit=1))
    # the first outcome collapses the qubit, so the second h makes it uniform again
    assert close(got, {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})


def test_measured_control_drives_later_gate():
    got = dist(2, 2, g("h", 0), g("measure", 0, clbit=0), g("cx", 0, 1), g("x", 0), g("measure", 1, clbit=1))
    assert close(got, {"00": 0.5, "11": 0.5})


def test_last_write_to_a_bit_wins():
    got = dist(2, 1, g("x", 1), g("measure", 1, clbit=0), g("x", 1), g("measure", 0, clbit=0), g("x", 0))
    assert close(got, {"0": 1.0})
    got = dist(2, 1, g("x", 1), g("measure", 0, clbit=0), g("measure", 1, clbit=0))
    assert close(got, {"1": 1.0})


@pytest.mark.parametrize("kind,params", [("rx", (0.7,)), ("u3", (0.7, 0.2, -1.1))])
def test_rotation_probabilities(kind, params):
    got = dist(1, 1, g(kind, 0, params=params), g("measure", 0, clbit=0))
    p1 = math.sin(0.7 / 2) ** 2
    assert close(got, {"0": 1 - p1, "1": p1})


def test_agrees_with_the_compilers_simulator_on_mid_circuit_measurement():
    rng = np.random.default_rng(3)
    for i in range(5):
        src = measure_reuse_source(rng, f"r{i}", 4, 30, 3)
        ours = sim.distribution(src.num_qubits, src.num_clbits, [(o.kind, o.qubits, o.params, o.clbit) for o in src.ops])
        theirs = simulate(parse_qasm(src.qasm, src.id))
        assert sim.total_variation(ours, theirs) < 1e-9
