"""Helpers shared by the test modules: a seeded circuit generator, a spy on
the region searches and the acceptance-criteria summary lines."""
from __future__ import annotations

import numpy as np

from qmpc import partition
from qmpc.circuits import Gate, QuantumCircuit


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


def count_empty_device_searches(monkeypatch) -> list[str]:
    """Ids of the circuits that ``gsp_partition`` or ``qhsp_partition`` is
    asked to search with no qubit used, until ``monkeypatch`` is undone."""
    searched = []
    for name in ("gsp_partition", "qhsp_partition"):

        def counting(model, circuit, used_qubits, *args, _search=getattr(partition, name), **kwargs):
            if not used_qubits:
                searched.append(circuit.id)
            return _search(model, circuit, used_qubits, *args, **kwargs)

        monkeypatch.setattr(partition, name, counting)
    return searched


def record_criterion(config, number: int, ok: bool, detail: str) -> None:
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = {}
        config._acceptance_lines = lines
    lines[number] = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
