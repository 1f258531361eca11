"""Seeded workload generators.

Every input the compiler sees is made here from the workload seed, as
OpenQASM text, the way circuits reach the compiler through the CLI.  The
generator keeps its own gate list for each circuit, so the reference
simulation never goes through the compiler's parser.

Circuit sizes are stratified within each batch: qubit counts cycle through
their range and gate counts are spread evenly over theirs, and the seed
decides which circuit gets which size and what its gates are.  Every batch
then carries about the same work whatever the seed, which keeps the
seed-to-seed spread of the timing and quality medians small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ONE_QUBIT_KINDS = ("h", "x", "s", "sdg", "t", "tdg", "rz", "rx", "u3")
PARAM_COUNTS = {"rz": 1, "rx": 1, "u3": 3}


@dataclass(frozen=True)
class Op:
    """One source gate: kind, qubits, params, classical bit (measure only)."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None


@dataclass(frozen=True)
class Source:
    id: str
    num_qubits: int
    num_clbits: int
    ops: tuple[Op, ...]
    qasm: str

    @property
    def cnot_count(self) -> int:
        return sum(1 for op in self.ops if op.kind == "cx")


@dataclass(frozen=True)
class Spec:
    """What one workload compiles, and on which device."""

    name: str
    device: str
    method: str
    batches: int  # batches in one round; a run repeats whole rounds
    batch_size: int
    qubits: tuple[int, int]
    gates: tuple[int, int]
    mid_measures: int = 0
    crosstalk: bool = False
    whole_program_check: bool = False


SPECS = {
    # router-heavy: qhsp planning is cheap, best-of-10 trial routing dominates
    "route": Spec("route", "manhattan", "qhsp", batches=40, batch_size=6, qubits=(4, 8), gates=(100, 200)),
    # planner-heavy: gsp scores every connected region, short circuits route fast
    "plan": Spec("plan", "manhattan", "gsp", batches=28, batch_size=6, qubits=(4, 6), gates=(20, 50), crosstalk=True),
    # verifier-heavy: mid-circuit measurements make the simulator branch
    "verify": Spec(
        "verify", "guadalupe", "qhsp", batches=48, batch_size=2, qubits=(6, 6), gates=(40, 80),
        mid_measures=5, whole_program_check=True,
    ),
}


def to_qasm(num_qubits: int, num_clbits: int, ops) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];", f"creg c[{num_clbits}];"]
    for op in ops:
        if op.kind == "measure":
            lines.append(f"measure q[{op.qubits[0]}] -> c[{op.clbit}];")
        elif op.kind == "cx":
            lines.append(f"cx q[{op.qubits[0]}],q[{op.qubits[1]}];")
        elif op.params:
            lines.append(f"{op.kind}({','.join(repr(p) for p in op.params)}) q[{op.qubits[0]}];")
        else:
            lines.append(f"{op.kind} q[{op.qubits[0]}];")
    return "\n".join(lines) + "\n"


def _random_gates(rng: np.random.Generator, n: int, count: int) -> list[Op]:
    """Half CNOTs, half one-qubit gates, on random qubits."""
    ops = []
    for _ in range(count):
        if rng.random() < 0.5:
            pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append(Op("cx", pair))
        else:
            kind = ONE_QUBIT_KINDS[int(rng.integers(len(ONE_QUBIT_KINDS)))]
            params = tuple(float(rng.uniform(-math.pi, math.pi)) for _ in range(PARAM_COUNTS.get(kind, 0)))
            ops.append(Op(kind, (int(rng.integers(n)),), params))
    return ops


def random_source(rng: np.random.Generator, cid: str, n: int, n_gates: int) -> Source:
    """``n_gates`` random gates, then every qubit measured into its own bit."""
    ops = _random_gates(rng, n, n_gates)
    ops += [Op("measure", (q,), clbit=q) for q in range(n)]
    return Source(cid, n, n, tuple(ops), to_qasm(n, n, ops))


def measure_reuse_source(rng: np.random.Generator, cid: str, n: int, n_gates: int, m: int) -> Source:
    """A random circuit that ends by measuring ``m`` of its qubits
    mid-circuit and using them again.

    After ``n_gates - 2 m`` random gates, ``m`` distinct qubits each get an
    ``h`` (so that both outcomes occur) and a measurement into a classical
    bit of their own (so no two measurements write the same bit); then each
    of them controls a CNOT onto one of the other qubits, and only those
    are measured at the end.  Every mid-circuit measurement thus splits the
    simulation, near the end, while few qubits are read off the final state.
    """
    ops = _random_gates(rng, n, n_gates - 2 * m)
    order = [int(q) for q in rng.permutation(n)]
    measured, kept = order[:m], sorted(order[m:])
    for k, q in enumerate(measured):
        ops += [Op("h", (q,)), Op("measure", (q,), clbit=k)]
    ops += [Op("cx", (q, kept[int(rng.integers(len(kept)))])) for q in measured]
    ops += [Op("measure", (q,), clbit=m + k) for k, q in enumerate(kept)]
    return Source(cid, n, n, tuple(ops), to_qasm(n, n, ops))


def _stratified(rng: np.random.Generator, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over [lo, hi], in seeded order."""
    span = hi - lo + 1
    if span <= count:
        values = [lo + i % span for i in range(count)]
    else:
        values = [lo + int(span * (i + rng.random()) / count) for i in range(count)]
    return [int(v) for v in rng.permutation(values)]


def make_round(spec: Spec, seed: int) -> list[list[Source]]:
    """The run's pool: ``spec.batches`` batches of ``spec.batch_size`` circuits.

    Within each batch, qubit counts cycle through their range and gate
    counts are spread evenly over theirs, so every batch has the same mix
    of sizes; the seed decides the order and the gates.
    """
    rng = np.random.default_rng([seed, sum(map(ord, spec.name))])
    pool = []
    for b in range(spec.batches):
        sizes = _stratified(rng, *spec.qubits, spec.batch_size)
        lengths = _stratified(rng, *spec.gates, spec.batch_size)
        batch = []
        for i, (n, g) in enumerate(zip(sizes, lengths)):
            cid = f"b{b}c{i}"
            if spec.mid_measures:
                batch.append(measure_reuse_source(rng, cid, n, g, spec.mid_measures))
            else:
                batch.append(random_source(rng, cid, n, g))
        pool.append(batch)
    return pool


def synthetic_crosstalk(topo: dict, cnot_errors: dict, seed: int) -> list[dict]:
    """Conditional errors for every ordered pair of edges one hop apart.

    Each entry multiplies the solo error by a factor drawn from [1, 6), so
    roughly half survive the 3x strong-crosstalk filter.
    """
    rng = np.random.default_rng([seed, 7919])
    edges = sorted(tuple(sorted(e)) for e in topo["edges"])
    adj: dict[int, set[int]] = {q: set() for q in range(topo["num_qubits"])}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    pairs = []
    for gate in edges:
        for cond in edges:
            if set(gate) & set(cond):
                continue
            if not any(b in adj[a] for a in gate for b in cond):
                continue
            err = min(cnot_errors[gate] * float(rng.uniform(1.0, 6.0)), 0.5)
            pairs.append({"gate": list(gate), "conditioned_on": list(cond), "error": err})
    return pairs
