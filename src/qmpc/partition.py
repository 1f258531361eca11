"""Qubit partitioning: reserve a connected, reliability-scored region of the
device for each circuit.

Two searches return the best region for a circuit, as a one-element list.
The exhaustive one looks at every connected k-subset of free qubits and is
the quality baseline; the heuristic one grows regions from well-connected
starting points by fidelity degree and stays polynomial.  Both score their
candidates, ``Region`` rows, through one ``score``: mean CNOT error x CNOT
count plus readout sum, plus the diameter as a connectivity penalty for the
exhaustive rows (the heuristic's carry none).  The score raises the CNOT
error of region edges that sit under strong crosstalk from already-allocated
neighbours.  Each search keeps the row of lowest ``(score, row index)``,
rows in sorted-qubit order, so equal scores go to the lexicographically
first region.

The exhaustive search reads a region table: every connected k-subset of the
device with its qubit bitmask, internal edges, mean solo CNOT error, readout
sum and diameter.  It walks the table's rows in the order of their
empty-device score for the circuit's CNOT count, skipping the rows that meet
the used qubits, and stops at the first row whose empty-device score already
passes the best score found: crosstalk only raises an edge error, so no
later row can score below its empty-device score.  Only a row holding a
"hot" edge, one with a strong conditioner wholly inside the used qubits, has
its mean CNOT error recomputed; every other row's mean is its solo mean.
Region tables, their score orders, fidelity degrees, qubit degrees and the
best region of each search on the empty device are built once per device
and key through ``hardware.derived``, which keeps them in the model's memo.

Allocation is greedy: circuits take the best region left in the order given
(``manager`` puts the densest first, as in Das et al., "A Case for Multi-
Programming Quantum Computers", MICRO 2019), and the pass stops at the first
circuit that finds no region.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .circuits import QuantumCircuit
from .config import DEFAULT_CONFIG, RunConfig
from .errors import PartitionError, PartitionSizeError
from .floats import left_sum
from .hardware import CrosstalkTable, Edge, HardwareModel, derived, induced_edges, subgraph_diameter

GSP_MAX_QUBITS = 8

# The most connected subsets of any size the exhaustive search grows: 65-qubit
# ``manhattan`` grows 2,257 up to 8 qubits, a 65-qubit star C(64, 7) of 8 alone.
REGION_BUDGET = 50_000

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


def fidelity_degree(model: HardwareModel, lam: float = RunConfig.lam) -> tuple[float, ...]:
    """Score each qubit by weighted neighbour CNOT fidelity plus readout fidelity.

    degree(q) = sum over neighbours v of lam * (1 - E[q][v]), plus (1 - R[q]).
    High values mark well-connected, low-error qubits.  Built once per
    model and ``lam`` (see ``hardware.derived``).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return derived(model, ("fidelity_degree", lam), lambda: tuple(
        left_sum(lam * (1.0 - model.edge_error(q, v)) for v in model.neighbors(q)) + (1.0 - model.readout_error[q])
        for q in range(model.num_qubits)
    ))


def starting_points(model: HardwareModel, circuit: QuantumCircuit) -> list[int]:
    """Physical qubits whose connectivity can host the busiest logical qubit.

    Falls back to the best-connected qubits when nothing on the device reaches
    the circuit's largest logical degree.
    """
    largest_logical = circuit.largest_logical_degree
    degrees = derived(model, ("degrees",), lambda: tuple(model.degree(q) for q in range(model.num_qubits)))
    max_degree = max(degrees)
    if max_degree < largest_logical:
        return [q for q in range(model.num_qubits) if degrees[q] == max_degree]
    return [q for q in range(model.num_qubits) if degrees[q] >= largest_logical]


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
    for edge in induced_edges(model, candidate_qubits):
        err = model.cnot_error[edge]
        if strong_pairs is not None:
            for cond, cond_err in strong_pairs.conditional_errors(edge).items():
                if cond[0] in used and cond[1] in used:
                    err = max(err, cond_err)
        adjusted[edge] = err
    return adjusted


def _mean(errors) -> float:
    return left_sum(errors) / len(errors) if errors else 0.0


def connected_k_subsets(model: HardwareModel, free: set[int], k: int) -> list[tuple[int, ...]]:
    """All connected k-subsets of ``free``, sorted for determinism; growing
    more than ``REGION_BUDGET`` subsets of any size raises ``PartitionSizeError``."""
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
                            if len(seen) > REGION_BUDGET:
                                raise PartitionSizeError(
                                    f"exhaustive search on the {model.num_qubits}-qubit device grows more than "
                                    f"{REGION_BUDGET} connected regions of up to {k} qubits; use the qhsp method"
                                )
        level = nxt
    return sorted(tuple(sorted(s)) for s in level)


class Region(NamedTuple):
    """One candidate region: the parts of its score that depend on neither
    the circuit nor the qubits already used."""

    qubits: tuple[int, ...]  # sorted in a region table, merge order from the heuristic
    mask: int  # bit q set for each member qubit q
    edges: tuple[Edge, ...]  # internal edges, in ``model.edges`` order
    solo_mean: float  # mean solo CNOT error over ``edges``, 0.0 without edges
    readout: float  # summed in ``qubits`` order
    diameter: int | None  # None for the heuristic's rows, which score without it


def region_row(model: HardwareModel, qubits, diameter: int | None) -> Region:
    """The row of ``qubits``, kept in the order given."""
    qubits = tuple(qubits)
    edges = tuple(induced_edges(model, qubits))
    solo_mean = _mean([model.cnot_error[e] for e in edges])
    readout = left_sum(model.readout_error[q] for q in qubits)
    return Region(qubits, sum(1 << q for q in qubits), edges, solo_mean, readout, diameter)


def region_table(model: HardwareModel, k: int) -> tuple[Region, ...]:
    """Every connected k-qubit region of the device, in sorted order; built
    once per model and ``k`` (see ``hardware.derived``)."""
    return derived(model, ("region_table", k), lambda: tuple(
        region_row(model, qubits, subgraph_diameter(model, qubits))
        for qubits in connected_k_subsets(model, set(range(model.num_qubits)), k)
    ))


def _total(avg: float, cnots: int, readout: float, diameter: int | None) -> float:
    total = avg * cnots + readout
    if diameter is not None:
        total += diameter
    return total


def score(
    model: HardwareModel, row: Region, circuit: QuantumCircuit, used: set[int], hot: set[Edge], strong_pairs
) -> float:
    """Mean internal CNOT error x CNOT count + readout sum, plus the diameter
    when the row has one; lower is better.  ``hot`` holds the edges with a
    strong conditioner wholly inside ``used``, the only edges whose error
    ``crosstalk_adjust`` can raise: a row holding none keeps its solo mean."""
    qubits, _, edges, avg, readout, diameter = row
    if hot and not hot.isdisjoint(edges):
        avg = _mean(crosstalk_adjust(model, qubits, used, strong_pairs).values())
    return _total(avg, circuit.cnot_count, readout, diameter)


def _hot_edges(used: set[int], strong_pairs: CrosstalkTable | None) -> set[Edge]:
    """The edges with a strong conditioner wholly inside ``used``."""
    if strong_pairs is None or not used:
        return set()
    return {gate for gate, (a, b) in strong_pairs.entries if a in used and b in used}


def gsp_order(model: HardwareModel, k: int, cnots: int) -> tuple[int, ...]:
    """Indices of the ``region_table(model, k)`` rows, stable-sorted by
    their empty-device score for a circuit of ``cnots`` CNOTs; built once
    per model, ``k`` and ``cnots`` (see ``hardware.derived``)."""

    def build() -> tuple[int, ...]:
        keys = [_total(row.solo_mean, cnots, row.readout, row.diameter) for row in region_table(model, k)]
        return tuple(sorted(range(len(keys)), key=keys.__getitem__))

    return derived(model, ("gsp_order", k, cnots), build)


def gsp_partition(
    model: HardwareModel,
    circuit: QuantumCircuit,
    used_qubits,
    strong_pairs: CrosstalkTable | None = None,
) -> list[Partition]:
    """The connected free region of the right size with the lowest
    ``(score, row index)``, as a one-element list.

    The rows are walked in ``gsp_order``, and the walk stops at the first
    row whose empty-device ``(score, index)`` passes the best one found:
    ``crosstalk_adjust`` only raises edge errors, and every step of the
    score is monotone in them, so no later row can beat it.  Cost grows
    exponentially with circuit size, so requests beyond ``GSP_MAX_QUBITS``
    qubits are refused outright.
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
    table = region_table(model, k)
    best = None
    for i in gsp_order(model, k, cnots):
        row = table[i]
        key = (_total(row.solo_mean, cnots, row.readout, row.diameter), i)
        if best is not None and key > best:
            break
        if row.mask & blocked:
            continue
        if hot:
            key = (score(model, row, circuit, used, hot, strong_pairs), i)
        if best is None or key < best:
            best = key
    if best is None:
        raise PartitionError(f"no connected {k}-qubit region among free qubits")
    total, i = best
    return [Partition(circuit.id, table[i].qubits, total, METHOD_GSP)]


def _grow_region(model: HardwareModel, start: int, k: int, values: tuple[float, ...], used: set[int]) -> list[int] | None:
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
    """The grown region with the lowest ``(score, index)``, as a
    one-element list: one region is grown from each starting point clear of
    ``used_qubits``, and the distinct ones are indexed in sorted-qubit
    order."""
    k = circuit.num_qubits
    used = set(used_qubits)
    free = set(range(model.num_qubits)) - used
    if len(free) < k:
        raise PartitionError(f"only {len(free)} free qubits for a {k}-qubit circuit")
    values = fidelity_degree(model, lam)
    rows: list[Region] = []
    seen: set[frozenset[int]] = set()
    for start in sorted(set(starting_points(model, circuit)) - used):
        region = _grow_region(model, start, k, values, used)
        if region is None:
            continue
        key = frozenset(region)
        if key in seen:
            continue
        seen.add(key)
        rows.append(region_row(model, region, None))
    if not rows:
        raise PartitionError(f"no feasible {k}-qubit region from any starting point")
    rows.sort(key=lambda row: sorted(row.qubits))
    hot = _hot_edges(used, strong_pairs)
    total, i = min((score(model, row, circuit, used, hot, strong_pairs), i) for i, row in enumerate(rows))
    return [Partition(circuit.id, rows[i].qubits, total, METHOD_QHSP)]


def allocate_prefix(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> tuple[list[Partition], PartitionError | None]:
    """Allocate disjoint regions to circuits greedily, in the order given,
    until a circuit finds none.

    Each allocation marks its qubits used, and later candidates see their
    edge errors adjusted against everything allocated so far, so the regions
    of any prefix of ``circuits`` are the first entries of the regions of
    the whole list.  Returns the regions of the longest prefix that fits and
    the error that stopped the pass (None when every circuit fits).  A
    ``PartitionSizeError`` is a refused request, not a full device, and
    propagates.  The first circuit takes its ``alone_region``.
    """
    used: set[int] = set()
    out: list[Partition] = []
    for circuit in circuits:
        try:
            best = _search(model, circuit, used, config, strong_pairs) if used else alone_region(model, circuit, config)
        except PartitionSizeError:
            raise
        except PartitionError as exc:
            return out, exc
        out.append(best)
        used |= best.qubit_set
    return out, None


def _search(model: HardwareModel, circuit: QuantumCircuit, used: set[int], config: RunConfig, strong_pairs) -> Partition:
    """The best region for ``circuit`` beside the ``used`` qubits."""
    if config.method == "gsp":
        return gsp_partition(model, circuit, used, strong_pairs)[0]
    return qhsp_partition(model, circuit, used, strong_pairs, lam=config.lam)[0]


def alone_region(model: HardwareModel, circuit: QuantumCircuit, config: RunConfig = DEFAULT_CONFIG) -> Partition:
    """The best region for ``circuit`` on the empty device.

    No edge is hot there, so crosstalk cannot move a score.  The search
    reads only the model, the circuit's qubit and CNOT counts and, under
    ``qhsp``, its largest logical degree and ``config.lam``; its best region
    is kept in the model's memo under that key (see ``hardware.derived``)
    and bound to each caller's circuit id.  An error is never kept: it is
    raised again on every call.
    """
    key = ("alone_region", config.method, circuit.num_qubits, circuit.cnot_count)
    if config.method == "qhsp":
        key += (circuit.largest_logical_degree, config.lam)

    def unbound() -> tuple[tuple[int, ...], float, str]:
        best = _search(model, circuit, set(), config, None)
        return best.qubits, best.score, best.method

    return Partition(circuit.id, *derived(model, key, unbound))


def allocate_all(
    model: HardwareModel,
    circuits: list[QuantumCircuit],
    config: RunConfig = DEFAULT_CONFIG,
    strong_pairs: CrosstalkTable | None = None,
) -> list[Partition]:
    """Allocate disjoint regions to circuits in the order given, as
    ``allocate_prefix`` does, but raise the ``PartitionError`` of the first
    circuit that finds no room."""
    out, error = allocate_prefix(model, circuits, config, strong_pairs)
    if error is not None:
        raise error
    return out
