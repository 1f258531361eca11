"""Qubit partitioning: reserve a connected, reliability-scored region of the
device for each circuit.

Two searches produce candidates.  The exhaustive one scores every connected
k-subset of free qubits and is the quality baseline; the heuristic one grows
regions from well-connected starting points by fidelity degree and stays
polynomial.  Both score candidates the same way, except that the exhaustive
score adds the region diameter as a connectivity penalty, and both raise the
CNOT error of region edges that sit under strong crosstalk from
already-allocated neighbours.

The exhaustive search reads a region table, built once per device and region
size: every connected k-subset of the device with its qubit bitmask, internal
edges, mean solo CNOT error, readout sum and diameter.  A search skips the
rows that meet the used qubits and recomputes the mean CNOT error only for
rows holding a "hot" edge, one with a strong conditioner wholly inside the
used qubits; every other row's mean is its solo mean.

Allocation is greedy: circuits take the best region left in density order,
as in Das et al., "A Case for Multi-Programming Quantum Computers" (MICRO
2019), and the pass stops at the first circuit that finds no region.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuits import QuantumCircuit, stats
from .config import DEFAULT_CONFIG, RunConfig
from .errors import PartitionError, PartitionSizeError
from .hardware import CrosstalkTable, Edge, HardwareModel, subgraph_diameter

GSP_MAX_QUBITS = 8

METHOD_GSP = "GSP"
METHOD_QHSP = "QHSP"


@dataclass(frozen=True)
class Partition:
    """A connected region bound to one circuit; lower score is better.

    ``qubits`` keeps construction order (merge order for the heuristic,
    sorted for the exhaustive search).
    """

    circuit_id: str
    qubits: tuple[int, ...]
    score: float
    method: str

    @property
    def qubit_set(self) -> frozenset[int]:
        return frozenset(self.qubits)

    def to_json_dict(self) -> dict:
        return {
            "circuit_id": self.circuit_id,
            "qubits": list(self.qubits),
            "score": self.score,
            "method": self.method,
        }


def fidelity_degree(model: HardwareModel, lam: float = RunConfig.lam) -> np.ndarray:
    """Score each qubit by weighted neighbour CNOT fidelity plus readout fidelity.

    degree(q) = sum over neighbours v of lam * (1 - E[q][v]), plus (1 - R[q]).
    High values mark well-connected, low-error qubits.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    values = np.zeros(model.num_qubits)
    for q in range(model.num_qubits):
        total = sum(lam * (1.0 - model.edge_error(q, v)) for v in model.neighbors(q))
        values[q] = total + (1.0 - float(model.readout_error[q]))
    return values


def starting_points(model: HardwareModel, circuit: QuantumCircuit) -> list[int]:
    """Physical qubits whose connectivity can host the busiest logical qubit.

    Falls back to the best-connected qubits when nothing on the device reaches
    the circuit's largest logical degree.
    """
    largest_logical = stats(circuit).largest_logical_degree
    degrees = [model.degree(q) for q in range(model.num_qubits)]
    max_degree = max(degrees)
    if max_degree < largest_logical:
        return [q for q in range(model.num_qubits) if degrees[q] == max_degree]
    return [q for q in range(model.num_qubits) if degrees[q] >= largest_logical]


def _induced_edges(model: HardwareModel, qubits) -> list[Edge]:
    """Coupling edges inside ``qubits`` in sorted order, the order of
    ``model.edges``; the score's float sums run in this order."""
    qs = set(qubits)
    return [(q, v) for q in sorted(qs) for v in model.neighbors(q) if v > q and v in qs]


def crosstalk_adjust(
    model: HardwareModel,
    candidate_qubits,
    used_qubits,
    strong_pairs: CrosstalkTable | None,
) -> dict[Edge, float]:
    """CNOT errors of the candidate's internal edges, raised where a strong
    conditional error is triggered by an edge inside already-allocated qubits.

    The conditional error replaces the solo error (it already is the degraded
    total, not an increment); several applicable conditioners take the max.
    """
    used = set(used_qubits)
    adjusted: dict[Edge, float] = {}
    for edge in _induced_edges(model, candidate_qubits):
        err = model.cnot_error[edge]
        if strong_pairs is not None:
            for cond, cond_err in strong_pairs.conditional_errors(edge).items():
                if cond[0] in used and cond[1] in used:
                    err = max(err, cond_err)
        adjusted[edge] = err
    return adjusted


def _mean(errors) -> float:
    return sum(errors) / len(errors) if errors else 0.0


def _readout_sum(model: HardwareModel, qubits) -> float:
    return sum(float(model.readout_error[q]) for q in qubits)


def _total(avg: float, readout: float, cnot_count: int, diameter: int | None) -> float:
    """A region's score from its parts; both searches add them in this order."""
    total = avg * cnot_count + readout
    if diameter is not None:
        total += diameter
    return total


def score(
    model: HardwareModel, qubits, circuit: QuantumCircuit, adjusted: dict[Edge, float], with_diameter: bool
) -> float:
    """Mean internal CNOT error x CNOT count + readout sum, plus the region
    diameter when ``with_diameter`` (the exhaustive search's score).

    ``adjusted`` is ``crosstalk_adjust``'s map for this region: one entry per
    internal edge, in ``model.edges`` order, so the sum runs in that order."""
    avg = _mean(adjusted.values())
    readout = _readout_sum(model, qubits)
    diameter = subgraph_diameter(model, qubits) if with_diameter else None
    return _total(avg, readout, circuit.cnot_count, diameter)


def connected_k_subsets(model: HardwareModel, free: set[int], k: int) -> list[tuple[int, ...]]:
    """All connected k-subsets of ``free``, sorted for determinism."""
    if k < 1:
        return []
    level = {frozenset([q]) for q in free}
    seen = set(level)
    for _ in range(k - 1):
        nxt = set()
        for sub in level:
            for q in sub:
                for v in model.neighbors(q):
                    if v in free and v not in sub:
                        grown = sub | {v}
                        if grown not in seen:
                            seen.add(grown)
                            nxt.add(grown)
        level = nxt
    return sorted(tuple(sorted(s)) for s in level)


class Region(NamedTuple):
    """One row of a region table: the parts of a region's exhaustive score
    that depend on neither the circuit nor the qubits already used."""

    qubits: tuple[int, ...]  # sorted
    mask: int  # bit q set for each member qubit q
    edges: tuple[Edge, ...]  # internal edges, in ``model.edges`` order
    solo_mean: float  # mean solo CNOT error over ``edges``, 0.0 without edges
    readout: float
    diameter: int


def region_table(model: HardwareModel, k: int) -> tuple[Region, ...]:
    """Every connected k-qubit region of the device, in sorted order; built
    once per ``k`` and kept on the model."""
    tables = model._region_tables
    if k not in tables:
        rows = []
        for qubits in connected_k_subsets(model, set(range(model.num_qubits)), k):
            edges = tuple(_induced_edges(model, qubits))
            rows.append(
                Region(
                    qubits,
                    sum(1 << q for q in qubits),
                    edges,
                    _mean([model.cnot_error[e] for e in edges]),
                    _readout_sum(model, qubits),
                    subgraph_diameter(model, qubits),
                )
            )
        tables[k] = tuple(rows)
    return tables[k]


def _hot_edges(used: set[int], strong_pairs: CrosstalkTable | None) -> set[Edge]:
    """Edges with a strong conditioner wholly inside ``used``: the only edges
    whose error ``crosstalk_adjust`` can raise."""
    if strong_pairs is None or not used:
        return set()
    return {gate for gate, (a, b) in strong_pairs.entries if a in used and b in used}


def gsp_partition(
    model: HardwareModel,
    circuit: QuantumCircuit,
    used_qubits,
    strong_pairs: CrosstalkTable | None = None,
) -> list[Partition]:
    """Exhaustively score every connected region of the right size.

    Cost grows exponentially with circuit size, so requests beyond
    ``GSP_MAX_QUBITS`` qubits are refused outright.
    """
    k = circuit.num_qubits
    if k > GSP_MAX_QUBITS:
        raise PartitionSizeError(
            f"exhaustive search is capped at {GSP_MAX_QUBITS} circuit qubits (got {k}); use the qhsp method"
        )
    used = set(used_qubits)
    free = set(range(model.num_qubits)) - used
    if len(free) < k:
        raise PartitionError(f"only {len(free)} free qubits for a {k}-qubit circuit")
    blocked = ~sum(1 << q for q in free)  # every qubit that is not free
    hot = _hot_edges(used, strong_pairs)
    cnots = circuit.cnot_count
    scored = []
    for qubits, mask, edges, avg, readout, diameter in region_table(model, k):
        if mask & blocked:
            continue
        if hot and not hot.isdisjoint(edges):
            avg = _mean(crosstalk_adjust(model, qubits, used, strong_pairs).values())
        scored.append((_total(avg, readout, cnots, diameter), qubits))
    if not scored:
        raise PartitionError(f"no connected {k}-qubit region among free qubits")
    scored.sort()
    return [Partition(circuit.id, qubits, total, METHOD_GSP) for total, qubits in scored]


def _grow_region(model: HardwareModel, start: int, k: int, values: np.ndarray, used: set[int]) -> list[int] | None:
    """Grow a region from ``start`` by repeatedly letting the highest-degree
    member adopt its best free neighbour.  Returns None when growth stalls."""
    region = [start]
    while len(region) < k:
        merged = False
        for q in sorted(region, key=lambda q: (-values[q], q)):
            free_neighbours = [v for v in model.neighbors(q) if v not in used and v not in region]
            if free_neighbours:
                best = min(free_neighbours, key=lambda v: (-values[v], v))
                region.append(best)
                merged = True
                break
        if not merged:
            return None
    return region


def qhsp_partition(
    model: HardwareModel,
    circuit: QuantumCircuit,
    used_qubits,
    strong_pairs: CrosstalkTable | None = None,
    lam: float = RunConfig.lam,
) -> list[Partition]:
    """Heuristic partition search seeded at well-connected qubits."""
    k = circuit.num_qubits
    used = set(used_qubits)
    free = set(range(model.num_qubits)) - used
    if len(free) < k:
        raise PartitionError(f"only {len(free)} free qubits for a {k}-qubit circuit")
    values = fidelity_degree(model, lam)
    candidates: list[Partition] = []
    seen: set[frozenset[int]] = set()
    for start in sorted(starting_points(model, circuit)):
        region = _grow_region(model, start, k, values, used)
        if region is None:
            continue
        if used & set(region):  # only possible when the start itself is taken
            continue
        key = frozenset(region)
        if key in seen:
            continue
        seen.add(key)
        adjusted = crosstalk_adjust(model, region, used, strong_pairs)
        candidates.append(
            Partition(circuit.id, tuple(region), score(model, region, circuit, adjusted, False), METHOD_QHSP)
        )
    if not candidates:
        raise PartitionError(f"no feasible {k}-qubit region from any starting point")
    candidates.sort(key=lambda p: (p.score, tuple(sorted(p.qubits))))
    return candidates


def allocate_prefix(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> tuple[list[Partition], PartitionError | None]:
    """Allocate disjoint regions to circuits already ordered by density,
    greedily and in order, until a circuit finds none.

    Each allocation marks its qubits used, and later candidates see their
    edge errors adjusted against everything allocated so far, so the regions
    of any prefix of ``circuits`` are the first entries of the regions of
    the whole list.  Returns the regions of the longest prefix that fits and
    the error that stopped the pass (None when every circuit fits).  A
    ``PartitionSizeError`` is a refused request, not a full device, and
    propagates.
    """
    dens = [stats(c).density for c in circuits]
    if any(dens[i] < dens[i + 1] for i in range(len(dens) - 1)):
        raise PartitionError("circuits must be ordered by density, descending")
    used: set[int] = set()
    out: list[Partition] = []
    for circuit in circuits:
        try:
            if config.method == "gsp":
                best = gsp_partition(model, circuit, used, strong_pairs)[0]
            else:
                best = qhsp_partition(model, circuit, used, strong_pairs, lam=config.lam)[0]
        except PartitionSizeError:
            raise
        except PartitionError as exc:
            return out, exc
        out.append(best)
        used |= best.qubit_set
    return out, None


def allocate_all(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> list[Partition]:
    """Allocate disjoint regions to circuits already ordered by density, as
    ``allocate_prefix`` does, but raise ``PartitionError`` unless all fit."""
    if sum(c.num_qubits for c in circuits) > model.num_qubits:
        raise PartitionError("combined circuit size exceeds the device")
    out, error = allocate_prefix(model, circuits, config, strong_pairs)
    if error is not None:
        raise error
    return out
