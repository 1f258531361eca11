"""Decide how many circuits share the device at once.

Capacity gives an upper bound K: the longest densest-first prefix that fits by
qubit count (``partition`` allocates in the order given and checks neither).
The fidelity gate then compares the score of partitioning each circuit alone
against partitioning them together, and trims the batch until the mean
degradation stays under the user threshold.  A batch that fits by qubit count
but not by free connected regions shrinks to the prefix that does fit; the
rest is re-queued.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .circuits import QuantumCircuit
from .config import DEFAULT_CONFIG, RunConfig
from .errors import CircuitTooLargeError, PartitionError
from .floats import left_sum
from .hardware import CrosstalkTable, HardwareModel
from .partition import Partition, allocate_prefix, alone_region


class Verdict(enum.Enum):
    SIMULTANEOUS = "SIMULTANEOUS"
    REDUCED = "REDUCED"
    INDEPENDENT = "INDEPENDENT"


@dataclass(frozen=True)
class ExecutionPlan:
    """One batch of circuits cleared to run together, with its partitions."""

    partitions: tuple[Partition, ...]
    delta_s: float
    threshold: float
    verdict: Verdict

    @property
    def selected(self) -> tuple[str, ...]:
        """The batch's circuit ids, in partition order."""
        return tuple(p.circuit_id for p in self.partitions)

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


def fidelity_gate(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> ExecutionPlan:
    """Plan a non-empty batch, densest first, by its joint-vs-alone scores.

    delta_s is the mean over the batch of (score allocated together - score of
    the circuit's ``alone_region``).  While it does not stay under the
    threshold ``config.delta``, the last, lowest-density circuit is dropped
    and the check repeats; a single survivor, like a batch of one, runs alone
    (INDEPENDENT, delta_s 0).

    The batch is allocated once, greedily in batch order, so the regions of
    every prefix are the first entries of that one allocation.  When the
    device runs out of room, the batch shrinks to the prefix that fits; when
    not even the first circuit fits, that allocation's error propagates.
    """
    if not circuits:
        raise ValueError("fidelity_gate needs at least one circuit")
    joint, error = allocate_prefix(model, circuits, config, strong_pairs)
    if not joint:
        raise error
    alone = [alone_region(model, c, config).score for c in circuits[:len(joint)]]
    for n in range(len(joint), 1, -1):
        delta_s = left_sum(p.score - score for p, score in zip(joint[:n], alone)) / n
        if delta_s < config.delta:
            verdict = Verdict.SIMULTANEOUS if n == len(circuits) else Verdict.REDUCED
            return ExecutionPlan(tuple(joint[:n]), delta_s, config.delta, verdict)
    return ExecutionPlan(tuple(joint[:1]), 0.0, config.delta, Verdict.INDEPENDENT)


def plan_all(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> list[ExecutionPlan]:
    """Cover every submitted circuit with a plan, re-queueing whatever the
    fidelity gate drops or the device has no room for."""
    ids = [c.id for c in circuits]
    if len(set(ids)) != len(ids):
        raise PartitionError("circuit ids must be unique")
    remaining = circuits
    plans: list[ExecutionPlan] = []
    while remaining:
        plans.append(fidelity_gate(model, select_k(remaining, model.num_qubits), config, strong_pairs))
        taken = set(plans[-1].selected)
        remaining = [c for c in remaining if c.id not in taken]
    return plans
