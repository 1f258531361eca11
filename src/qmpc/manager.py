"""Decide how many circuits share the device at once.

Capacity gives an upper bound K; the fidelity gate then compares the score of
partitioning each circuit alone against partitioning them together, and trims
the batch until the mean degradation stays under the user threshold.  A batch
that fits by qubit count but not by free connected regions shrinks to the
prefix that does fit; the rest is re-queued.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .circuits import QuantumCircuit
from .config import DEFAULT_CONFIG, RunConfig
from .errors import CircuitTooLargeError, PartitionError
from .hardware import CrosstalkTable, HardwareModel
from .partition import Partition, allocate_all, allocate_prefix


class Verdict(enum.Enum):
    SIMULTANEOUS = "SIMULTANEOUS"
    REDUCED = "REDUCED"
    INDEPENDENT = "INDEPENDENT"


@dataclass(frozen=True)
class ExecutionPlan:
    """One batch of circuits cleared to run together, with its partitions."""

    selected: tuple[str, ...]
    partitions: tuple[Partition, ...]
    delta_s: float
    threshold: float
    verdict: Verdict

    @property
    def trf(self) -> int:
        """Trial reduction factor: how many circuits run in one trial."""
        return len(self.selected)

    def verdict_label(self) -> str:
        if self.verdict is Verdict.REDUCED:
            return f"REDUCED({len(self.selected)})"
        return self.verdict.value

    @property
    def json_threshold(self) -> float | None:
        """``threshold`` as JSON holds it: an infinite one is ``null``."""
        return None if self.threshold == math.inf else self.threshold

    def to_json_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "partitions": [p.to_json_dict() for p in self.partitions],
            "delta_s": self.delta_s,
            "threshold": self.json_threshold,
            "verdict": self.verdict_label(),
            "trf": self.trf,
        }


def sort_by_density(circuits: list[QuantumCircuit]) -> list[QuantumCircuit]:
    """Densest circuit (CNOTs per qubit) first; stable for ties."""
    return sorted(circuits, key=lambda c: c.density, reverse=True)


def select_k(circuits: list[QuantumCircuit], num_qubits: int) -> list[QuantumCircuit]:
    """Largest density-ordered prefix whose combined size fits the device."""
    for c in circuits:
        if c.num_qubits > num_qubits:
            raise CircuitTooLargeError(
                f"circuit {c.id!r} needs {c.num_qubits} qubits but the device has {num_qubits}"
            )
    ordered = sort_by_density(circuits)
    total = 0
    prefix: list[QuantumCircuit] = []
    for c in ordered:
        if total + c.num_qubits > num_qubits:
            break
        total += c.num_qubits
        prefix.append(c)
    return prefix


def _alone_region(
    model: HardwareModel,
    circuit: QuantumCircuit,
    config: RunConfig,
    strong_pairs: CrosstalkTable | None,
    alone: dict[str, Partition],
) -> Partition:
    """The circuit's best region on an empty device, searched once per
    ``alone`` cache (keyed by circuit id)."""
    if circuit.id not in alone:
        alone[circuit.id] = allocate_all(model, [circuit], config, strong_pairs)[0]
    return alone[circuit.id]


def independent_plan(
    model: HardwareModel,
    circuit: QuantumCircuit,
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
    alone: dict[str, Partition] | None = None,
) -> ExecutionPlan:
    """Run ``circuit`` by itself on its best region.  ``alone`` caches alone
    regions by circuit id across calls with the same device and knobs."""
    best = _alone_region(model, circuit, config, strong_pairs, {} if alone is None else alone)
    return ExecutionPlan((circuit.id,), (best,), 0.0, config.delta, Verdict.INDEPENDENT)


def fidelity_gate(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
    alone: dict[str, Partition] | None = None,
) -> ExecutionPlan:
    """Gate a density-ordered batch on the joint-vs-alone score difference.

    delta_s is the mean over the batch of (score allocated together - score of
    the circuit partitioned alone).  While it does not stay under the
    threshold ``config.delta``, the lowest-density circuit is dropped and the
    check repeats; a single survivor is declared independent.

    The batch is allocated once: allocation is greedy in batch order, so the
    regions of every shorter prefix are the first entries of that one
    allocation.  When the device runs out of room before the last circuit,
    the batch shrinks to the prefix that fits.  The first circuit is
    allocated on an empty device, so its joint region is its alone region;
    the others are looked up in ``alone`` (alone regions by circuit id, as
    for ``independent_plan``) and searched only when missing.
    """
    if len(circuits) < 2:
        raise ValueError("fidelity_gate needs at least two circuits; use independent_plan")
    alone = {} if alone is None else alone
    joint, _ = allocate_prefix(model, circuits, config, strong_pairs)
    if joint:
        alone.setdefault(joint[0].circuit_id, joint[0])
    scores = {c.id: _alone_region(model, c, config, strong_pairs, alone).score for c in circuits[:len(joint)]}
    for n in range(len(joint), 1, -1):
        delta_s = sum(p.score - scores[p.circuit_id] for p in joint[:n]) / n
        if delta_s < config.delta:
            verdict = Verdict.SIMULTANEOUS if n == len(circuits) else Verdict.REDUCED
            return ExecutionPlan(tuple(c.id for c in circuits[:n]), tuple(joint[:n]), delta_s, config.delta, verdict)
    return independent_plan(model, circuits[0], config, strong_pairs, alone)


def plan_all(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> list[ExecutionPlan]:
    """Cover every submitted circuit with a plan, re-queueing whatever the
    fidelity gate drops or the device has no room for.  Each circuit's alone
    region is searched at most once, however often it is re-queued."""
    ids = [c.id for c in circuits]
    if len(set(ids)) != len(ids):
        raise PartitionError("circuit ids must be unique")
    remaining = sort_by_density(circuits)
    plans: list[ExecutionPlan] = []
    alone: dict[str, Partition] = {}
    while remaining:
        prefix = select_k(remaining, model.num_qubits)
        if len(prefix) <= 1:
            plan = independent_plan(model, prefix[0], config, strong_pairs, alone)
        else:
            plan = fidelity_gate(model, prefix, config, strong_pairs, alone)
        plans.append(plan)
        taken = set(plan.selected)
        remaining = [c for c in remaining if c.id not in taken]
    return plans
