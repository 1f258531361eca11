"""Device model: coupling graph, calibration, conditional-error table, routing matrices.

The router's distance matrix weighs hops against swap failure probability,
each raw table divided by its maximum so that equal weights compare like
with like.  A matrix is a tuple of rows of Python floats, read as ``m[a][b]``.

Every table derived from a model, here or in ``partition``, is built once per
model and key by ``derived`` and kept in the model's one memo.
"""
from __future__ import annotations

import heapq
import math
import numbers
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from pathlib import Path
from types import MappingProxyType
from typing import TypeVar

from .circuits import MAX_REGISTER_SIZE
from .config import RunConfig
from .errors import BRIEF, CalibrationError, CrosstalkError, DisconnectedGraphError, HardwareError, read_json

Edge = tuple[int, int]
Matrix = tuple[tuple[float, ...], ...]
T = TypeVar("T")


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class HardwareModel:
    """Static device snapshot: topology plus one set of calibration data."""

    num_qubits: int
    edges: tuple[Edge, ...]
    cnot_error: dict[Edge, float]
    readout_error: tuple[float, ...]

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacency[q]

    # Derived values are built on first use and kept on the instance; the
    # model is frozen and its fields are treated as immutable.
    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        return _sorted_adjacency(self.num_qubits, self.edges)

    @cached_property
    def _memo(self) -> dict[tuple, object]:
        """``derived`` results by key."""
        return {}

    def has_edge(self, i: int, j: int) -> bool:
        return _edge(i, j) in self.cnot_error

    def edge_error(self, i: int, j: int) -> float:
        try:
            return self.cnot_error[_edge(i, j)]
        except KeyError:
            raise HardwareError(f"({i},{j}) is not a coupling edge") from None

    def degree(self, q: int) -> int:
        return len(self.neighbors(q))


def _sorted_adjacency(n: int, edges) -> dict[int, tuple[int, ...]]:
    tmp: dict[int, list[int]] = {q: [] for q in range(n)}
    for a, b in edges:
        tmp[a].append(b)
        tmp[b].append(a)
    return {q: tuple(sorted(ns)) for q, ns in tmp.items()}


def _hops_from(adjacency: Mapping[int, Sequence[int]], src: int) -> dict[int, int]:
    """Breadth-first hop count from ``src`` to every qubit it reaches."""
    hops = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def _number(value, error: type[HardwareError], what: str, *args, integer: bool = False) -> float:
    """``value`` as a float, or as an int for ``integer``; a boolean, a
    non-number or a non-integral ``integer`` raises ``error`` naming
    ``what.format(*args)``, formatted only then, each of ``args`` by ``BRIEF``."""
    real = type(value) in (int, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or integer and value % 1 != 0:
        name = what.format(*map(BRIEF.repr, args))
        raise error(f"{name} must be {'an integer' if integer else 'a number'}, got {BRIEF.repr(value)}")
    return int(value) if integer else float(value)


def _entry(value, fields: tuple[str, ...], error: type[HardwareError], what: str) -> list:
    """A list with one item per field: a field named "qubit" holds an integer
    (a qubit index), any other a number."""
    if not isinstance(value, (list, tuple)) or len(value) != len(fields):
        raise error(f"bad {what} {BRIEF.repr(value)}")
    return [_number(v, error, f"{f} in {what} {{}}", value, integer=f == "qubit") for f, v in zip(fields, value)]


_QUBIT_PAIR = ("qubit", "qubit")


def build_hardware(topology: dict, calibration: dict) -> HardwareModel:
    """Assemble and validate a model from already-decoded JSON objects."""
    try:
        n = _number(topology["num_qubits"], HardwareError, "num_qubits", integer=True)
        raw_edges = topology["edges"]
    except (KeyError, TypeError) as exc:
        raise HardwareError(f"topology is missing field: {exc}") from None
    if not 1 <= n <= MAX_REGISTER_SIZE:
        raise HardwareError(f"device must have 1 to {MAX_REGISTER_SIZE} qubits, got {BRIEF.repr(n)}")
    if not isinstance(raw_edges, (list, tuple)):
        raise HardwareError(f"edges must be a list of qubit pairs, got {BRIEF.repr(raw_edges)}")
    if not isinstance(calibration, dict):
        raise CalibrationError(f"calibration must be a JSON object, got {type(calibration).__name__}")

    edges: list[Edge] = []
    seen = set()
    for pair in raw_edges:
        i, j = _entry(pair, _QUBIT_PAIR, HardwareError, "edge entry")
        if not (0 <= i < n and 0 <= j < n):
            raise HardwareError(f"edge entry {BRIEF.repr(pair)} references a qubit outside 0..{n - 1}")
        if i == j:
            raise HardwareError(f"self-loop edge ({i},{j})")
        e = _edge(i, j)
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
    edges.sort()

    adjacency = _sorted_adjacency(n, edges)
    parts: list[list[int]] = []  # by smallest qubit
    reached: set[int] = set()
    for q in range(n):
        if q not in reached:
            part = _hops_from(adjacency, q)
            reached.update(part)
            parts.append(sorted(part))
    if len(parts) > 1:
        raise DisconnectedGraphError(f"coupling graph is disconnected: {len(parts)} components {BRIEF.repr(parts)}")

    cnot_error: dict[Edge, float] = {}
    raw_cnot = calibration.get("cnot_errors", [])
    if not isinstance(raw_cnot, (list, tuple)):
        raise CalibrationError(f"cnot_errors must be a list, got {BRIEF.repr(raw_cnot)}")
    for entry in raw_cnot:
        i, j, err = _entry(entry, (*_QUBIT_PAIR, "CNOT error"), CalibrationError, "cnot_errors entry")
        e = _edge(i, j)
        if e not in seen:
            raise CalibrationError(f"cnot_errors entry {BRIEF.repr(entry)} is not a coupling edge")
        if not 0.0 <= err < 1.0:
            raise CalibrationError(f"CNOT error {err} for edge ({i},{j}) outside [0,1)")
        cnot_error[e] = err  # both orders may appear; last one wins
    for e in edges:
        if e not in cnot_error:
            raise CalibrationError(f"missing CNOT error for edge {e}")

    readout = _error_rates(calibration.get("readout_errors"), n, "readout_errors", "readout")
    if calibration.get("single_qubit_errors") is not None:  # checked, not scored
        _error_rates(calibration["single_qubit_errors"], n, "single_qubit_errors", "single-qubit")

    return HardwareModel(n, tuple(edges), cnot_error, readout)


def _error_rates(values, n: int, field: str, what: str) -> tuple[float, ...]:
    """Per-qubit error rates: one number per qubit, each in [0, 1).  Every
    entry is checked to be a number before any is checked for range."""
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise CalibrationError(f"{field} must list all {n} qubits")
    name = what + " error for qubit {}"
    rates = tuple(_number(v, CalibrationError, name, q) for q, v in enumerate(values))
    for q, rate in enumerate(rates):
        if not 0.0 <= rate < 1.0:  # NaN is outside too
            raise CalibrationError(f"{what} error for qubit {q} outside [0,1)")
    return rates


def load_hardware(topology_path: str | Path, calibration_path: str | Path) -> HardwareModel:
    """Load topology and calibration JSON files into a validated model."""
    return build_hardware(read_json(topology_path), read_json(calibration_path))


# --- derived matrices --------------------------------------------------------


def _normalized(matrix: Matrix) -> Matrix:
    """``matrix`` divided by its largest entry, when that is positive."""
    peak = max(map(max, matrix))
    return tuple(tuple(x / peak for x in row) for row in matrix) if peak > 0 else matrix


def hop_count_matrix(model: HardwareModel) -> Matrix:
    """All-pairs shortest-path hop counts."""
    n = model.num_qubits
    hops = [_hops_from(model._adjacency, src) for src in range(n)]
    return tuple(tuple(float(h.get(dst, 0)) for dst in range(n)) for h in hops)


def swap_error_matrix(model: HardwareModel) -> Matrix:
    """Failure probability of the most reliable swap path between each pair.

    Moving a state across one edge costs three CNOTs, so an edge succeeds
    with probability (1 - E)^3; the matrix holds 1 minus the best achievable
    path success product, unscaled.  Among equally reliable paths, the first
    pushed wins: ties pop in push order, and only a strictly shorter path
    replaces one (the order ``networkx`` follows).
    """
    n = model.num_qubits
    adjacency = model._adjacency
    # -log success keeps Dijkstra additive; the product along the path is exact
    weight = {e: -3.0 * math.log(1.0 - err) if err > 0 else 0.0 for e, err in model.cnot_error.items()}
    out = [[0.0] * n for _ in range(n)]
    for src in range(n):
        best = {src: 0.0}
        success = {src: 1.0}  # product over the best path found so far
        push = count()
        heap = [(0.0, next(push), src)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > best[u]:
                continue  # superseded by a shorter path
            for v in adjacency[u]:
                e = _edge(u, v)
                dv = d + weight[e]
                if v not in best or dv < best[v]:
                    best[v] = dv
                    success[v] = success[u] * (1.0 - model.cnot_error[e]) ** 3
                    heapq.heappush(heap, (dv, next(push), v))
        for dst, s in success.items():
            if dst != src:
                out[src][dst] = 1.0 - s
    # symmetric by construction; guard float drift
    return tuple(tuple(max(out[a][b], out[b][a]) for b in range(n)) for a in range(n))


def derived(model: HardwareModel, key: tuple, build: Callable[[], T]) -> T:
    """``build()``, called once per model and ``key`` and kept in the model's
    memo; a key starts with its builder's name, as ``("region_table", k)``.
    Every caller shares the table, so none may change it."""
    memo = model._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def distance_matrices(model: HardwareModel, alpha1=RunConfig.alpha1, alpha2=RunConfig.alpha2) -> Matrix:
    """The router's distance matrix, ``alpha1 * hops + alpha2 * swap error``
    entry by entry, each table scaled so that its largest entry is 1; built
    once per model and ``(alpha1, alpha2)`` (see ``derived``)."""

    def build() -> Matrix:
        a1, a2 = float(alpha1), float(alpha2)  # float64 products, whatever real type the weights have
        s, e = _normalized(hop_count_matrix(model)), _normalized(swap_error_matrix(model))
        return tuple(tuple(a1 * x + a2 * y for x, y in zip(s_row, e_row)) for s_row, e_row in zip(s, e))

    return derived(model, ("distance_matrices", alpha1, alpha2), build)


def induced_edges(model: HardwareModel, qubits) -> list[Edge]:
    """Coupling edges inside ``qubits`` in sorted order, the order of
    ``model.edges``; region scores add their errors in this order."""
    qs = set(qubits)
    return [(q, v) for q in sorted(qs) for v in model.neighbors(q) if v > q and v in qs]


def subgraph_diameter(model: HardwareModel, qubits) -> int:
    """Longest shortest path within the induced subgraph on ``qubits``.

    A breadth-first search from every member over the members' adjacency,
    so its cost depends on the region's size, not on the device's.
    """
    qubits = set(qubits)
    for q in qubits:
        if not 0 <= q < model.num_qubits:
            raise HardwareError(f"qubit {q} outside device")
    if len(qubits) <= 1:
        return 0
    adjacency = {q: [v for v in model.neighbors(q) if v in qubits] for q in qubits}
    diameter = 0
    for src in qubits:
        hops = _hops_from(adjacency, src)
        if len(hops) != len(qubits):
            raise DisconnectedGraphError(f"qubit set {sorted(qubits)} induces a disconnected subgraph")
        diameter = max(diameter, max(hops.values()))
    return diameter


# --- crosstalk ----------------------------------------------------------------


@dataclass(frozen=True)
class CrosstalkTable:
    """Conditional CNOT errors: (affected edge, conditioning edge) -> error.

    Entries are directional; a symmetric effect needs one entry per direction.
    """

    entries: dict[tuple[Edge, Edge], float]

    def __len__(self) -> int:
        return len(self.entries)

    def conditional_errors(self, gate: Edge) -> Mapping[Edge, float]:
        """Conditioning edge -> conditional error for the affected ``gate``,
        in table order; read from an index built on first use."""
        return self._by_gate.get(gate, _NO_CONDITIONS)

    @cached_property
    def _by_gate(self) -> dict[Edge, Mapping[Edge, float]]:
        index: dict[Edge, dict[Edge, float]] = {}
        for (gate, cond), err in self.entries.items():
            index.setdefault(gate, {})[cond] = err
        return {gate: MappingProxyType(conds) for gate, conds in index.items()}


_NO_CONDITIONS: Mapping[Edge, float] = MappingProxyType({})


def _validate_pair(gate: Edge, cond: Edge, model: HardwareModel) -> None:
    for e in (gate, cond):
        if e not in model.cnot_error:
            raise CrosstalkError(f"crosstalk entry references non-edge {BRIEF.repr(e)}")
    if set(gate) & set(cond):
        raise CrosstalkError(f"crosstalk pair {gate}|{cond} shares a qubit")
    # two edges that share no qubit are one hop apart iff an edge joins them
    if not any(model.has_edge(a, b) for a in gate for b in cond):
        gap = min(_hops_from(model._adjacency, a)[b] for a in gate for b in cond)
        raise CrosstalkError(f"crosstalk pair {gate}|{cond} is {gap} hops apart, expected exactly 1")


def build_crosstalk(pairs: list[dict], model: HardwareModel) -> CrosstalkTable:
    entries: dict[tuple[Edge, Edge], float] = {}
    for item in pairs:
        try:
            gate = _edge(*_entry(item["gate"], _QUBIT_PAIR, CrosstalkError, "crosstalk gate"))
            cond = _edge(*_entry(item["conditioned_on"], _QUBIT_PAIR, CrosstalkError, "crosstalk conditioned_on"))
            err = _number(item["error"], CrosstalkError, "conditional error for {}|{}", gate, cond)
        except (KeyError, TypeError):
            raise CrosstalkError(f"bad crosstalk entry {BRIEF.repr(item)}") from None
        _validate_pair(gate, cond, model)
        if not 0.0 <= err < 1.0:
            raise CrosstalkError(f"conditional error {err} for {gate}|{cond} outside [0,1)")
        entries[(gate, cond)] = err
    return CrosstalkTable(entries)


def load_crosstalk(path: str | Path, model: HardwareModel) -> CrosstalkTable:
    data = read_json(path)
    pairs = data.get("pairs", []) if isinstance(data, dict) else None
    if not isinstance(pairs, list):
        raise CrosstalkError(f"{path}: expected a JSON object with a list of \"pairs\"")
    return build_crosstalk(pairs, model)


STRONG_CROSSTALK_FACTOR = 3.0


def extract_strong_crosstalk(table: CrosstalkTable, model: HardwareModel) -> CrosstalkTable:
    """Keep only pairs whose conditional error exceeds ``STRONG_CROSSTALK_FACTOR``
    times the solo error, the paper's rule for pairs measured by SRB.

    Direction matters: one direction of a pair can survive while the other is
    dropped.  Applying the filter twice changes nothing.
    """
    kept = {}
    for (gate, cond), err in table.entries.items():
        if gate not in model.cnot_error:
            raise CrosstalkError(f"crosstalk entry references non-edge {gate}")
        if err > STRONG_CROSSTALK_FACTOR * model.cnot_error[gate]:
            kept[(gate, cond)] = err
    return CrosstalkTable(kept)
