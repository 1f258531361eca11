"""Reference statevector simulator, written apart from ``qmpc.verify``.

The state is one flat complex vector whose index bit ``q`` is qubit ``q``.
A measurement whose qubit a later gate acts on splits the run into one
branch per outcome; the other measurements are read off each branch's final
state.  Classical bits take the value of the last measurement written to
them, in program order.

``ops`` are tuples ``(kind, qubits, params, clbit)``; the result maps a
string whose position ``i`` holds classical bit ``i`` to its probability.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

_R2 = 1.0 / math.sqrt(2.0)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s], [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]]
    )


def matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """2x2 unitary of a one-qubit gate the workloads generate, each written
    out from its definition."""
    if kind == "h":
        return np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex)
    if kind == "x":
        return _u3(math.pi, 0.0, math.pi)
    if kind in ("s", "sdg", "t", "tdg"):
        angle = {"s": math.pi / 2, "sdg": -math.pi / 2, "t": math.pi / 4, "tdg": -math.pi / 4}[kind]
        return np.diag([1.0, cmath.exp(1j * angle)])
    if kind == "rz":
        return np.diag([cmath.exp(-0.5j * params[0]), cmath.exp(0.5j * params[0])])
    if kind == "rx":
        return _u3(params[0], -math.pi / 2, math.pi / 2)
    if kind == "u3":
        return _u3(*params)
    raise ValueError(f"no matrix for {kind!r}")


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    view = state.reshape(-1, 2, 1 << q)
    return np.einsum("ab,ibj->iaj", mat, view).reshape(-1)


def _apply_cx(state: np.ndarray, control: int, target: int, index: np.ndarray) -> np.ndarray:
    flip = np.where((index >> control) & 1 == 1, index ^ (1 << target), index)
    return state[flip]


def distribution(num_qubits: int, num_clbits: int, ops) -> dict[str, float]:
    """Exact outcome distribution over the classical bits."""
    ops = list(ops)
    index = np.arange(1 << num_qubits)
    branching = set()
    for i, (kind, qubits, _, _) in enumerate(ops):
        if kind == "measure" and any(
            k not in ("measure", "barrier") and qubits[0] in qs for k, qs, _, _ in ops[i + 1:]
        ):
            branching.add(i)

    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    branches = [(1.0, state, ())]  # (weight, state, ((position, clbit, value), ...))
    deferred = []  # (position, clbit, qubit)
    for i, (kind, qubits, params, clbit) in enumerate(ops):
        if kind == "barrier":
            continue
        if kind == "measure":
            q = qubits[0]
            if i not in branching:
                deferred.append((i, clbit, q))
                continue
            ones = ((index >> q) & 1).astype(bool)
            grown = []
            for weight, st, writes in branches:
                p1 = float(np.sum(np.abs(st[ones]) ** 2))
                for value, p, keep in ((0, 1.0 - p1, ~ones), (1, p1, ones)):
                    if p > 1e-14:
                        post = np.where(keep, st, 0.0) / math.sqrt(p)
                        grown.append((weight * p, post, writes + ((i, clbit, value),)))
            branches = grown
        elif kind == "cx":
            branches = [(w, _apply_cx(st, qubits[0], qubits[1], index), wr) for w, st, wr in branches]
        else:
            mat = matrix(kind, params)
            branches = [(w, _apply_1q(st, mat, qubits[0]), wr) for w, st, wr in branches]

    out: dict[str, float] = {}
    read = sorted({q for _, _, q in deferred})
    code = np.zeros_like(index)  # joint value of the deferred-read qubits
    for k, q in enumerate(read):
        code |= ((index >> q) & 1) << k
    for weight, st, writes in branches:
        marginal = np.bincount(code, weights=np.abs(st) ** 2, minlength=1 << len(read))
        for value, p in enumerate(marginal):
            if p <= 1e-15:
                continue
            bits = ["0"] * num_clbits
            reads = [(pos, clbit, (value >> read.index(q)) & 1) for pos, clbit, q in deferred]
            for _, clbit, bit in sorted(writes + tuple(reads)):
                bits[clbit] = str(bit)
            key = "".join(bits)
            out[key] = out.get(key, 0.0) + weight * float(p)
    return out


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
