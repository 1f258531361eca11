"""End-to-end compilation: plan batches, place, route, and package outputs."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import QuantumCircuit, build_dag
from .errors import ConfigError
from .hardware import CrosstalkTable, HardwareModel, distance_matrices
from .manager import ExecutionPlan, plan_all
from .scheduler import Schedule, emit_merged_qasm, initial_mapping, interleave, merged_circuit
from .verify import check_compliance, estimate_success


@dataclass
class RunConfig:
    """Knobs for one compilation run; defaults are the recommended settings.

    Every knob is checked once, here, so a bad value fails with a
    ``ConfigError`` before any work starts.
    """

    method: str = "qhsp"
    lam: float = 2.0
    delta: float = 0.1
    weight_w: float = 0.5
    alpha1: float = 0.5
    alpha2: float = 0.5
    ext_layer: int = 20
    attempts: int = 10
    seed: int = 0
    swap_only: bool = False
    self_cost: bool = True

    def __post_init__(self):
        if self.method not in ("gsp", "qhsp"):
            raise ConfigError(f"method must be 'gsp' or 'qhsp', got {self.method!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.attempts < 1:
            raise ConfigError(f"attempts must be at least 1, got {self.attempts}")
        if self.ext_layer < 0:
            raise ConfigError(f"ext_layer must be non-negative, got {self.ext_layer}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        for name in ("delta", "weight_w", "alpha1", "alpha2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class CompiledPlan:
    plan: ExecutionPlan
    circuits: list[QuantumCircuit]
    schedule: Schedule
    merged: QuantumCircuit
    qasm: str
    manifest: dict
    stats: dict


@dataclass
class CompileResult:
    plans: list[CompiledPlan] = field(default_factory=list)


def _plan_stats(model: HardwareModel, compiled: CompiledPlan, index: int) -> dict:
    sched = compiled.schedule
    per_circuit = {}
    for circuit, part in zip(compiled.circuits, compiled.plan.partitions):
        per_circuit[circuit.id] = {
            "qubits": circuit.num_qubits,
            "partition": list(part.qubits),
            "partition_score": part.score,
            "additional_cnots": sched.additional_cnots(circuit.id),
            "swaps": sched.swap_counts[circuit.id],
            "bridges": sched.bridge_counts[circuit.id],
        }
    return {
        "plan_index": index,
        "verdict": compiled.plan.verdict_label(),
        "delta_s": compiled.plan.delta_s,
        "threshold": compiled.plan.threshold,
        "trf": compiled.plan.trf,
        "depth": sched.depth(),
        "total_additional_cnots": sched.additional_cnots(),
        "esp": estimate_success(sched, model),
        "circuits": per_circuit,
    }


def compile_plan(
    model: HardwareModel,
    plan: ExecutionPlan,
    circuits_by_id: dict[str, QuantumCircuit],
    config: RunConfig,
    dist,
    seed_seq: np.random.SeedSequence,
    index: int = 0,
) -> CompiledPlan:
    """Place and route one plan's circuits simultaneously.

    Each circuit's route is the winning trial of its placement search;
    the plan's schedule interleaves them in plan order.  ``dist`` is the
    combined distance matrix or its ``combined_rows``.  The merged program
    is checked against the device and the plan before it is returned
    (``check_compliance``); a violation is a ``RoutingError``.
    """
    circuits = [circuits_by_id[cid] for cid in plan.selected]
    dags = [build_dag(c) for c in circuits]
    children = seed_seq.spawn(len(circuits))
    routes = []
    for circuit, dag, part, child in zip(circuits, dags, plan.partitions, children):
        _, route = initial_mapping(
            model, dist, part, circuit, dag, np.random.default_rng(child),
            attempts=config.attempts, weight_w=config.weight_w, ext_size=config.ext_layer,
            swap_only=config.swap_only, self_cost=config.self_cost,
        )
        routes.append(route)
    schedule = interleave(routes)
    merged, manifest = merged_circuit(schedule, model, circuits)
    check_compliance(merged, manifest, plan, model)
    qasm, _ = emit_merged_qasm(schedule, model, circuits)
    compiled = CompiledPlan(plan, circuits, schedule, merged, qasm, manifest, {})
    compiled.stats = _plan_stats(model, compiled, index)
    return compiled


def compile_workloads(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig | None = None,
    strong_pairs: CrosstalkTable | None = None,
) -> CompileResult:
    """Full pipeline: order by density, gate batch sizes, partition, route."""
    config = config or RunConfig()
    matrices = distance_matrices(model, config.alpha1, config.alpha2)
    plans = plan_all(
        model, circuits,
        method=config.method, lam=config.lam, threshold=config.delta, strong_pairs=strong_pairs,
    )
    by_id = {c.id: c for c in circuits}
    root = np.random.SeedSequence(config.seed)
    plan_seeds = root.spawn(len(plans))
    result = CompileResult()
    for i, (plan, seq) in enumerate(zip(plans, plan_seeds)):
        result.plans.append(compile_plan(model, plan, by_id, config, matrices.combined_rows, seq, index=i))
    return result
