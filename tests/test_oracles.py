"""The oracles add floats as the package does.

From Python 3.12 on, the built-in ``sum`` adds Python floats with
compensation, while ``floats.left_sum`` adds them left to right on every
version.  An oracle that sums Python floats with ``sum`` then disagrees with
the package in the last bits on 3.12 and later, and the exact-equality
properties built on it fail there alone.  Each test below runs one oracle
with an ``oracles.sum`` that refuses Python floats, so that the mistake
shows on every version.  Numpy scalars are let through: numpy adds them
left to right everywhere.
"""
from __future__ import annotations

import builtins
import math

import numpy as np
import pytest

import oracles
from qmpc.circuits import Gate, QuantumCircuit, build_dag
from qmpc.hardware import build_crosstalk, distance_matrices, extract_strong_crosstalk
from qmpc.partition import gsp_partition

from helpers import random_circuit


def _refusing_sum(items, start=0):
    items = list(items)
    floats = [x for x in items if type(x) is float]
    if floats:
        raise AssertionError(f"built-in sum over Python floats {floats[:3]}: use floats.left_sum")
    return builtins.sum(items, start)


@pytest.fixture(autouse=True)
def refuse_float_sums(monkeypatch):
    monkeypatch.setattr(oracles, "sum", _refusing_sum, raising=False)


def _strong(model):
    # every disjoint edge pair one hop apart conditions at 0.3, above every solo error
    pairs = [
        {"gate": list(gate), "conditioned_on": list(cond), "error": 0.3}
        for gate in model.edges
        for cond in model.edges
        if not set(gate) & set(cond) and any(model.has_edge(a, b) for a in gate for b in cond)
    ]
    return extract_strong_crosstalk(build_crosstalk(pairs, model), model)


def _chain(cid, k, repeat=3):
    return QuantumCircuit(cid, k, 0, tuple(Gate("cx", (i, i + 1)) for i in range(k - 1)) * repeat)


def test_refusing_sum_refuses_python_floats_only():
    assert _refusing_sum([np.float64(0.1), np.float64(0.2)]) == np.float64(0.1) + np.float64(0.2)
    assert _refusing_sum(1 for _ in range(3)) == 3
    with pytest.raises(AssertionError, match="left_sum"):
        _refusing_sum([0.1, 0.2])


@pytest.mark.parametrize("search", [oracles.reference_gsp_partition, oracles.reference_qhsp_partition])
def test_reference_partitioners(guadalupe, search):
    used = set(guadalupe.edges[0]) | set(guadalupe.edges[5])
    ranked = search(guadalupe, _chain("c", 4), used, _strong(guadalupe))
    assert ranked and all(not used & p.qubit_set for p in ranked)


def test_trim_and_reallocate_gate(guadalupe):
    batch = [_chain("a", 4, 4), _chain("b", 3, 2), _chain("c", 3, 1)]
    plan = oracles.trim_and_reallocate_gate(guadalupe, batch, method="gsp", threshold=math.inf)
    assert plan.selected == ("a", "b", "c")


def test_reference_placement(guadalupe):
    circuit = random_circuit(np.random.default_rng(4), "c", n_qubits=4)
    region = gsp_partition(guadalupe, circuit, set())[0].qubits
    dist = np.array(distance_matrices(guadalupe))
    l2p = oracles.reference_placement(guadalupe, dist, region, circuit, build_dag(circuit), np.random.default_rng(4))
    assert sorted(l2p) == sorted(region)
