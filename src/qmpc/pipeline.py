"""End-to-end compilation: plan batches, place, route, check the merged
program, and package it with its stats and analytic success estimate."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import CX, MEASURE, QuantumCircuit, depth
from .config import DEFAULT_CONFIG, RunConfig
from .hardware import CrosstalkTable, HardwareModel, distance_matrices
from .manager import ExecutionPlan, plan_all
from .scheduler import Route, check_compliance, emit_merged_qasm, initial_mapping, merged_circuit


@dataclass
class CompiledPlan:
    plan: ExecutionPlan
    routes: list[Route]  # one per circuit, in plan order
    merged: QuantumCircuit
    qasm: str
    manifest: dict
    stats: dict

    @property
    def circuits(self) -> list[QuantumCircuit]:
        return [route.circuit for route in self.routes]


@dataclass
class CompileResult:
    plans: list[CompiledPlan] = field(default_factory=list)


def estimate_success(circuit: QuantumCircuit, model: HardwareModel) -> float:
    """Product of per-operation success probabilities: (1 - E) per executed
    CNOT and (1 - R) per measured qubit.  An analytic fidelity proxy."""
    p = 1.0
    for g in circuit.gates:
        if g.kind == CX:
            p *= 1.0 - model.cnot_error[(min(g.qubits), max(g.qubits))]
        elif g.kind == MEASURE:
            p *= 1.0 - model.readout_error[g.qubits[0]]
    return p


def _plan_stats(
    model: HardwareModel, plan: ExecutionPlan, routes: list[Route], merged: QuantumCircuit, index: int
) -> dict:
    """Per-plan numbers for ``stats_<i>.json``; depth and ESP are read off
    the merged circuit."""
    per_circuit = {
        route.circuit.id: {
            "qubits": route.circuit.num_qubits,
            "partition": list(part.qubits),
            "partition_score": part.score,
            "additional_cnots": route.additional_cnots,
            "swaps": route.swaps,
            "bridges": route.bridges,
        }
        for route, part in zip(routes, plan.partitions)
    }
    return {
        "plan_index": index,
        "verdict": plan.verdict_label(),
        "delta_s": plan.delta_s,
        "threshold": plan.json_threshold,
        "trf": plan.trf,
        "depth": depth(merged.gates),
        "total_additional_cnots": sum(route.additional_cnots for route in routes),
        "esp": estimate_success(merged, model),
        "circuits": per_circuit,
    }


def compile_plan(
    model: HardwareModel,
    plan: ExecutionPlan,
    circuits_by_id: dict[str, QuantumCircuit],
    config: RunConfig,
    dist,
    index: int,
) -> CompiledPlan:
    """Place and route one plan's circuits simultaneously.

    Each circuit's route is the winning trial of its placement search, and
    the merged circuit joins the routes one after another in plan order.
    ``dist`` is the router's distance table.  Circuit ``j`` draws its
    placements from ``SeedSequence(config.seed, spawn_key=(index, j))``,
    the child of a spawn per plan and then per circuit.  The merged program
    is checked against the device and the plan before it is returned
    (``check_compliance``); a violation is a ``RoutingError``.  The router
    is handed each partition's qubits only.
    """
    circuits = [circuits_by_id[cid] for cid in plan.selected]
    routes = []
    for j, (circuit, part) in enumerate(zip(circuits, plan.partitions)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index, j)))
        _, route = initial_mapping(model, dist, part.qubits, circuit, rng, config)
        routes.append(route)
    merged, manifest = merged_circuit(routes, model)
    check_compliance(merged, manifest, {p.circuit_id: p.qubits for p in plan.partitions}, model)
    qasm = emit_merged_qasm(routes, model)
    return CompiledPlan(plan, routes, merged, qasm, manifest, _plan_stats(model, plan, routes, merged, index))


def compile_workloads(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> CompileResult:
    """Full pipeline: order by density, gate batch sizes, partition, route."""
    dist = distance_matrices(model, config.alpha1, config.alpha2)
    plans = plan_all(model, circuits, config, strong_pairs)
    by_id = {c.id: c for c in circuits}
    return CompileResult([compile_plan(model, plan, by_id, config, dist, i) for i, plan in enumerate(plans)])
