"""End-to-end compilation: plan batches, place, route, and package outputs."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import QuantumCircuit, build_dag
from .config import DEFAULT_CONFIG, RunConfig
from .hardware import CrosstalkTable, HardwareModel, distance_matrices
from .manager import ExecutionPlan, plan_all
from .scheduler import Schedule, emit_merged_qasm, initial_mapping, interleave, merged_circuit
from .verify import check_compliance, estimate_success


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
        _, route = initial_mapping(model, dist, part, circuit, dag, np.random.default_rng(child), config)
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
    config = config or DEFAULT_CONFIG
    matrices = distance_matrices(model, config.alpha1, config.alpha2)
    plans = plan_all(model, circuits, config, strong_pairs)
    by_id = {c.id: c for c in circuits}
    root = np.random.SeedSequence(config.seed)
    plan_seeds = root.spawn(len(plans))
    result = CompileResult()
    for i, (plan, seq) in enumerate(zip(plans, plan_seeds)):
        result.plans.append(compile_plan(model, plan, by_id, config, matrices.combined_rows, seq, index=i))
    return result
