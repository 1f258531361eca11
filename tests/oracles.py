"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own code paths: plain BFS,
Floyd-Warshall, brute-force path and subset enumeration, ``networkx`` region
diameters, linear scans of the edge list and the crosstalk table, and a
dense unitary builder that works on integer basis indices.  Six
exceptions keep a first design as the reference for its replacement: the
line-by-line tokenizer and method-per-token parser for the one-pass scanner
and index-loop parser, the ``networkx`` hop counts and swap-error Dijkstra
for the stdlib ones, the trim-and-reallocate fidelity gate (allocate every
trimmed batch from scratch) for the one-pass gate, the per-search
exhaustive partitioner (every connected subset of the free qubits
enumerated and scored from scratch) for the table-driven one, the per-branch simulator (one state per
measurement branch, the whole program at once) for the branch-batched one,
and the first router (every circuit of a plan routed in one joint loop,
every placement trial routed to completion, lookahead rescanned from the
first CNOT, numpy-scalar distance sums) for the bounded one that routes each
circuit alone.  ``optimal_added_cnots`` is an exact search, not a router: a
lower bound that no route can beat.  Python floats are summed with
``floats.left_sum``, as the package sums them, so that exact comparisons
with the package hold on every Python version (``tests/test_oracles.py``).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, permutations
from typing import NamedTuple

import networkx as nx
import numpy as np

from qmpc.circuits import BARRIER, CX, MEASURE, ONE_QUBIT_GATES, PARAM_COUNTS, Gate, QuantumCircuit
from qmpc.config import RunConfig
from qmpc.errors import (
    MultiRegisterError,
    PartitionError,
    PartitionSizeError,
    QasmError,
    RoutingError,
    SimulationError,
    UnsupportedGateError,
)
from qmpc.floats import left_sum
from qmpc.hardware import subgraph_diameter
from qmpc.manager import ExecutionPlan, Verdict
from qmpc.partition import (
    GSP_MAX_QUBITS,
    METHOD_GSP,
    METHOD_QHSP,
    Partition,
    allocate_all,
    connected_k_subsets,
    crosstalk_adjust,
    fidelity_degree,
    gsp_partition,
    qhsp_partition,
)
from qmpc.scheduler import BRIDGE, SWAP


def bfs_hops(n: int, edges: list[tuple[int, int]], src: int) -> dict[int, int]:
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {src: 0}
    queue = [src]
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    return dist


def all_pairs_hops(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    out = np.zeros((n, n))
    for s in range(n):
        for t, d in bfs_hops(n, edges, s).items():
            out[s, t] = d
    return out


def floyd_warshall(nodes: list[int], edges: list[tuple[int, int]]) -> dict[tuple[int, int], float]:
    dist = {(a, b): (0 if a == b else float("inf")) for a in nodes for b in nodes}
    for a, b in edges:
        dist[(a, b)] = dist[(b, a)] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


def all_simple_paths(edges: list[tuple[int, int]], src: int, dst: int) -> list[list[int]]:
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    paths = []

    def walk(node, seen, path):
        if node == dst:
            paths.append(path[:])
            return
        for nxt in adj.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                walk(nxt, seen, path)
                path.pop()
                seen.remove(nxt)

    walk(src, {src}, [src])
    return paths


def best_swap_path_error(edges: list[tuple[int, int]], errors: dict, src: int, dst: int) -> float:
    """1 minus the best achievable product of (1-E)^3 over any simple path."""
    best = 0.0
    for path in all_simple_paths(edges, src, dst):
        success = 1.0
        for a, b in zip(path, path[1:]):
            e = errors[(a, b) if (a, b) in errors else (b, a)]
            success *= (1.0 - e) ** 3
        best = max(best, success)
    return 1.0 - best


def _coupling_graph_nx(model) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(model.num_qubits))
    g.add_edges_from(model.edges)
    return g


def hop_count_matrix_nx(model) -> np.ndarray:
    """All-pairs hop counts by ``networkx`` breadth-first search."""
    n = model.num_qubits
    out = np.zeros((n, n))
    for src, lengths in nx.all_pairs_shortest_path_length(_coupling_graph_nx(model)):
        for dst, d in lengths.items():
            out[src, dst] = d
    return out


def swap_error_matrix_nx(model, normalize: bool = True) -> np.ndarray:
    """The swap-error matrix over the paths ``networkx``'s Dijkstra picks,
    with edge weight ``-3 log(1 - E)`` (0 for an error-free edge)."""
    n = model.num_qubits
    graph = _coupling_graph_nx(model)
    for a, b in model.edges:
        e = model.cnot_error[(a, b)]
        graph[a][b]["weight"] = -3.0 * math.log(1.0 - e) if e > 0 else 0.0
    out = np.zeros((n, n))
    for src in range(n):
        for dst, path in nx.single_source_dijkstra_path(graph, src, weight="weight").items():
            if dst == src:
                continue
            success = 1.0
            for a, b in zip(path, path[1:]):
                success *= (1.0 - model.cnot_error[(a, b) if a < b else (b, a)]) ** 3
            out[src, dst] = 1.0 - success
    out = np.maximum(out, out.T)
    peak = out.max()
    if normalize and peak > 0:
        out = out / peak
    return out


def _wires(gate) -> set[tuple[str, int]]:
    wires = {("q", q) for q in gate.qubits}
    if gate.clbit is not None:
        wires.add(("c", gate.clbit))
    return wires


def dependency_edges(gates) -> set[tuple[int, int]]:
    """Brute-force scan: (a, b) iff a shared wire (a qubit, or the classical
    bit two measurements write) has no toucher between them."""
    out = set()
    for a in range(len(gates)):
        for b in range(a + 1, len(gates)):
            for w in _wires(gates[a]) & _wires(gates[b]):
                if not any(w in _wires(gates[m]) for m in range(a + 1, b)):
                    out.add((a, b))
                    break
    return out


def connected_subsets_brute(n: int, edges: list[tuple[int, int]], free: set[int], k: int) -> set[frozenset]:
    """All connected k-subsets via combinations plus a connectivity flood."""
    eset = {tuple(sorted(e)) for e in edges}

    def connected(sub: tuple[int, ...]) -> bool:
        sub_set = set(sub)
        seen = {sub[0]}
        queue = [sub[0]]
        while queue:
            u = queue.pop()
            for v in sub_set - seen:
                if tuple(sorted((u, v))) in eset:
                    seen.add(v)
                    queue.append(v)
        return seen == sub_set

    return {frozenset(c) for c in combinations(sorted(free), k) if connected(c)}


def region_diameter_nx(num_qubits: int, edges, qubits) -> int:
    """Diameter of the induced subgraph on ``qubits`` by ``networkx``; raises
    ``IndexError`` for a qubit off the device and ``ValueError`` for a
    disconnected region of two or more qubits."""
    qubits = set(qubits)
    if any(not 0 <= q < num_qubits for q in qubits):
        raise IndexError("qubit outside device")
    if len(qubits) <= 1:
        return 0
    sub = nx.Graph()
    sub.add_nodes_from(qubits)
    sub.add_edges_from(e for e in edges if e[0] in qubits and e[1] in qubits)
    if not nx.is_connected(sub):
        raise ValueError("disconnected region")
    return nx.diameter(sub)


def induced_edges_scan(edges, qubits) -> list[tuple[int, int]]:
    """Edges with both ends in ``qubits``, in the order of ``edges``."""
    qs = set(qubits)
    return [e for e in edges if e[0] in qs and e[1] in qs]


def conditional_errors_scan(entries: dict, gate) -> dict:
    """Conditioning edge -> error for ``gate``, by a scan of every entry."""
    return {cond: err for (g, cond), err in entries.items() if g == gate}


# --- dense unitary oracle ------------------------------------------------------

_1Q = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(complex),
}


def one_qubit_matrix(kind: str, params) -> np.ndarray:
    if kind in _1Q:
        return _1Q[kind]
    if kind == "rx":
        (t,) = params
        return np.array(
            [[np.cos(t / 2), -1j * np.sin(t / 2)], [-1j * np.sin(t / 2), np.cos(t / 2)]], dtype=complex
        )
    if kind == "ry":
        (t,) = params
        return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]], dtype=complex)
    if kind == "rz":
        (t,) = params
        return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]).astype(complex)
    if kind == "u1":
        (lam,) = params
        return np.diag([1, np.exp(1j * lam)]).astype(complex)
    if kind == "u2":
        phi, lam = params
        return unitary_u3(np.pi / 2, phi, lam)
    if kind == "u3":
        return unitary_u3(*params)
    raise ValueError(kind)


def unitary_u3(theta, phi, lam) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]], dtype=complex
    )


def circuit_unitary(n: int, ops: list[tuple]) -> np.ndarray:
    """Dense unitary built column by column through integer bit arithmetic.

    ``ops`` is a list of ("cx", control, target) or (kind, qubit, params).
    Basis index bit b corresponds to qubit b (little-endian).
    """
    dim = 2**n
    unitary = np.eye(dim, dtype=complex)
    for op in ops:
        gate = np.zeros((dim, dim), dtype=complex)
        if op[0] == "cx":
            _, control, target = op
            for col in range(dim):
                row = col ^ (1 << target) if (col >> control) & 1 else col
                gate[row, col] = 1.0
        else:
            kind, qubit, params = op
            mat = one_qubit_matrix(kind, params)
            for col in range(dim):
                bit = (col >> qubit) & 1
                for out_bit in (0, 1):
                    row = (col & ~(1 << qubit)) | (out_bit << qubit)
                    gate[row, col] = mat[out_bit, bit]
        unitary = gate @ unitary
    return unitary


# --- planner reference ------------------------------------------------------------


def trim_and_reallocate_gate(model, circuits, method="qhsp", lam=2.0, threshold=0.1, strong_pairs=None):
    """The fidelity gate as first written: every trim allocates the shorter
    batch again from an empty device.  Raises ``PartitionError`` when the
    whole batch does not fit."""

    def best_alone(circuit):
        if method == "gsp":
            return gsp_partition(model, circuit, set(), strong_pairs)[0]
        return qhsp_partition(model, circuit, set(), strong_pairs, lam=lam)[0]

    alone = {c.id: best_alone(c).score for c in circuits}
    current = list(circuits)
    while len(current) >= 2:
        joint = allocate_all(model, current, RunConfig(method=method, lam=lam), strong_pairs)
        delta_s = left_sum(p.score - alone[p.circuit_id] for p in joint) / len(current)
        if delta_s < threshold:
            verdict = Verdict.SIMULTANEOUS if len(current) == len(circuits) else Verdict.REDUCED
            return ExecutionPlan(tuple(joint), delta_s, threshold, verdict)
        current = current[:-1]
    return ExecutionPlan((best_alone(current[0]),), 0.0, threshold, Verdict.INDEPENDENT)


def reference_gsp_partition(model, circuit, used_qubits, strong_pairs=None):
    """The exhaustive search as first written: the connected subsets of the
    free qubits enumerated again on every call, each scored from scratch."""
    k = circuit.num_qubits
    if k > GSP_MAX_QUBITS:
        raise PartitionSizeError(
            f"exhaustive search is capped at {GSP_MAX_QUBITS} circuit qubits (got {k}); use the qhsp method"
        )
    used = set(used_qubits)
    free = set(range(model.num_qubits)) - used
    if len(free) < k:
        raise PartitionError(f"only {len(free)} free qubits for a {k}-qubit circuit")
    subsets = connected_k_subsets(model, free, k)
    if not subsets:
        raise PartitionError(f"no connected {k}-qubit region among free qubits")

    candidates = []
    for subset in subsets:
        adjusted = crosstalk_adjust(model, subset, used, strong_pairs)
        avg = left_sum(adjusted.values()) / len(adjusted) if adjusted else 0.0
        readout = left_sum(float(model.readout_error[q]) for q in subset)
        total = avg * circuit.cnot_count + readout
        total += subgraph_diameter(model, subset)
        candidates.append(Partition(circuit.id, subset, total, METHOD_GSP))
    candidates.sort(key=lambda p: (p.score, tuple(sorted(p.qubits))))
    return candidates


def reference_qhsp_partition(model, circuit, used_qubits, strong_pairs=None, lam=RunConfig.lam):
    """The heuristic search as first written: each grown region gets
    ``crosstalk_adjust`` and is scored from scratch, readouts summed in merge
    order."""
    k = circuit.num_qubits
    used = set(used_qubits)
    free = set(range(model.num_qubits)) - used
    if len(free) < k:
        raise PartitionError(f"only {len(free)} free qubits for a {k}-qubit circuit")
    partners = {q: set() for q in range(k)}
    for g in circuit.gates:
        if g.kind == CX:
            partners[g.qubits[0]].add(g.qubits[1])
            partners[g.qubits[1]].add(g.qubits[0])
    largest = max(len(s) for s in partners.values())
    degrees = [model.degree(q) for q in range(model.num_qubits)]
    reach = largest if max(degrees) >= largest else max(degrees)
    values = fidelity_degree(model, lam)

    candidates = []
    seen = set()
    for start in (q for q in range(model.num_qubits) if degrees[q] >= reach):
        region = [start]
        while len(region) < k:
            members = sorted(region, key=lambda q: (-values[q], q))
            grow = [[v for v in model.neighbors(q) if v not in used and v not in region] for q in members]
            grow = [vs for vs in grow if vs]
            if not grow:
                break
            region.append(min(grow[0], key=lambda v: (-values[v], v)))
        if len(region) < k or used & set(region) or frozenset(region) in seen:
            continue
        seen.add(frozenset(region))
        adjusted = crosstalk_adjust(model, region, used, strong_pairs)
        avg = left_sum(adjusted.values()) / len(adjusted) if adjusted else 0.0
        readout = left_sum(float(model.readout_error[q]) for q in region)
        candidates.append(Partition(circuit.id, tuple(region), avg * circuit.cnot_count + readout, METHOD_QHSP))
    if not candidates:
        raise PartitionError(f"no feasible {k}-qubit region from any starting point")
    candidates.sort(key=lambda p: (p.score, tuple(sorted(p.qubits))))
    return candidates


# --- simulator reference -----------------------------------------------------------

ORACLE_QUBIT_CAP = 12
ORACLE_BRANCH_CAP = 4096


def _apply_1q(state: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, state, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def _apply_cx(state: np.ndarray, control: int, target: int) -> np.ndarray:
    out = state.copy()
    m = state.ndim
    sel10 = [slice(None)] * m
    sel11 = [slice(None)] * m
    sel10[control], sel10[target] = 1, 0
    sel11[control], sel11[target] = 1, 1
    out[tuple(sel10)] = state[tuple(sel11)]
    out[tuple(sel11)] = state[tuple(sel10)]
    return out


@dataclass
class _Branch:
    weight: float
    state: np.ndarray
    writes: dict[int, tuple[int, int]]  # clbit -> (gate index, value)


def _project(state: np.ndarray, axis: int):
    """Probabilities and renormalized post-measurement states for one qubit."""
    probs = np.abs(state) ** 2
    axes = tuple(i for i in range(state.ndim) if i != axis)
    marg = probs.sum(axis=axes)
    outcomes = []
    for value in (0, 1):
        p = float(marg[value])
        if p <= 1e-30:
            continue
        sel = [slice(None)] * state.ndim
        sel[axis] = 1 - value
        post = state.copy()
        post[tuple(sel)] = 0.0
        outcomes.append((value, p, post / math.sqrt(p)))
    return outcomes


def per_branch_simulate(circuit: QuantumCircuit, cap: int = ORACLE_QUBIT_CAP) -> dict[str, float]:
    """The whole program as one state, one state per measurement branch, and
    a forward rescan per measurement to decide whether it must branch."""
    active = sorted({q for g in circuit.gates if g.kind != BARRIER for q in g.qubits})  # a barrier acts on nothing
    if len(active) > cap:
        raise SimulationError(f"{len(active)} active qubits exceed the simulation cap of {cap}")
    axis_of = {q: i for i, q in enumerate(active)}
    m = len(active)

    measure_positions = [i for i, g in enumerate(circuit.gates) if g.kind == MEASURE]
    must_branch = set()
    for i in measure_positions:
        q = circuit.gates[i].qubits[0]
        for j in range(i + 1, len(circuit.gates)):
            gate = circuit.gates[j]
            if gate.kind not in (MEASURE, BARRIER) and q in gate.qubits:
                must_branch.add(i)
                break

    state0 = np.zeros([2] * m, dtype=complex)
    state0[tuple([0] * m)] = 1.0
    branches = [_Branch(1.0, state0, {})]
    pending: list[tuple[int, int, int]] = []  # (gate index, clbit, axis)

    for i, g in enumerate(circuit.gates):
        if g.kind == BARRIER:
            continue
        if g.kind == MEASURE:
            axis = axis_of[g.qubits[0]]
            if i in must_branch:
                grown: list[_Branch] = []
                for br in branches:
                    for value, p, post in _project(br.state, axis):
                        writes = dict(br.writes)
                        writes[g.clbit] = (i, value)
                        grown.append(_Branch(br.weight * p, post, writes))
                branches = grown
                if len(branches) > ORACLE_BRANCH_CAP:
                    raise SimulationError("too many mid-circuit measurement branches")
            else:
                pending.append((i, g.clbit, axis))
            continue
        if g.kind == CX:
            ca, ta = axis_of[g.qubits[0]], axis_of[g.qubits[1]]
            for br in branches:
                br.state = _apply_cx(br.state, ca, ta)
        else:
            mat = one_qubit_matrix(g.kind, g.params)
            axis = axis_of[g.qubits[0]]
            for br in branches:
                br.state = _apply_1q(br.state, mat, axis)

    result: dict[str, float] = {}
    if measure_positions:
        width = circuit.num_clbits
        read_axes = sorted({axis for _, _, axis in pending})
        pos_of = {axis: k for k, axis in enumerate(read_axes)}
        for br in branches:
            probs = np.abs(br.state) ** 2
            drop = tuple(i for i in range(m) if i not in pos_of)
            joint = probs.sum(axis=drop) if drop else probs
            joint = joint.reshape([2] * len(read_axes)) if read_axes else joint.reshape([])
            for outcome in np.ndindex(*([2] * len(read_axes))):
                p = float(joint[outcome]) if read_axes else float(joint)
                if p <= 0.0:
                    continue
                bits = [0] * width
                last_write: dict[int, tuple[int, int]] = dict(br.writes)
                for gate_idx, clbit, axis in pending:
                    prev = last_write.get(clbit)
                    if prev is None or gate_idx > prev[0]:
                        last_write[clbit] = (gate_idx, outcome[pos_of[axis]])
                for clbit, (_, value) in last_write.items():
                    bits[clbit] = value
                key = "".join(map(str, bits))
                result[key] = result.get(key, 0.0) + br.weight * p
                if not read_axes:
                    break
    else:
        br = branches[0]
        probs = np.abs(br.state) ** 2
        width = circuit.num_qubits
        for outcome in np.ndindex(*([2] * m)):
            p = float(probs[outcome])
            if p <= 0.0:
                continue
            bits = ["0"] * width
            for q, axis in axis_of.items():
                bits[q] = str(outcome[axis])
            key = "".join(bits)
            result[key] = result.get(key, 0.0) + p
    return result


# --- reference router ----------------------------------------------------------


class _RefJob:
    """Routing state for one circuit, as the first router kept it."""

    def __init__(self, model, circuit, dag, region, l2p, clbit_offset):
        self.circuit = circuit
        self.clbit_offset = clbit_offset  # where the circuit's bits start in the merged register
        self.dag = dag
        self.partition = tuple(region)
        self.part_set = set(self.partition)
        self.l2p = list(l2p)
        self.p2l = {p: l for l, p in enumerate(self.l2p)}
        self.in_deg = list(dag.in_degree)
        self.front = {i for i, d in enumerate(self.in_deg) if d == 0}
        self.retired: set[int] = set()
        self.remaining = len(circuit.gates)
        self.part_edges = sorted(e for e in model.edges if e[0] in self.part_set and e[1] in self.part_set)
        self.adjacency = {q: set(model.neighbors(q)) & self.part_set for q in self.partition}
        self.cx_nodes = [i for i, g in enumerate(circuit.gates) if g.kind == CX]
        self.swaps = 0
        self.bridges = 0
        self.banned_edges: set[tuple[int, int]] = set()
        self.stalled = 0

    def mark_executed(self, node):
        self.retired.add(node)
        self.front.discard(node)
        self.remaining -= 1
        for succ in self.dag.successors[node]:
            self.in_deg[succ] -= 1
            if self.in_deg[succ] == 0:
                self.front.add(succ)

    def apply_swap(self, a, b):
        la, lb = self.p2l[a], self.p2l[b]
        self.l2p[la], self.l2p[lb] = b, a
        self.p2l[a], self.p2l[b] = lb, la
        self.swaps += 1

    def blocked_front(self):
        return [(node, *self.circuit.gates[node].qubits) for node in sorted(self.front)]


def naive_extended_layer(circuit, retired, front, size: int) -> list[tuple[int, int]]:
    """The first ``size`` CNOTs of ``circuit`` neither in ``retired`` nor in
    ``front``, scanned from the circuit's first gate."""
    out = []
    for node, g in enumerate(circuit.gates):
        if g.kind == CX and node not in retired and node not in front:
            out.append((g.qubits[0], g.qubits[1]))
    return out[:size]


class _RefCandidate(NamedTuple):
    """A repair as the first router kept it: ``node`` is the front CNOT a
    bridge executes, None for a SWAP."""

    kind: str
    qubits: tuple[int, ...]
    node: int | None
    cnot_pairs: tuple[tuple[int, int], ...]


def _ref_swap(edge):
    a, b = edge
    return _RefCandidate(SWAP, edge, None, ((a, b), (b, a), (a, b)))


def _ref_candidates(job):
    front = job.blocked_front()
    endpoints = {job.l2p[lq] for _, lq1, lq2 in front for lq in (lq1, lq2)}
    cands = [_ref_swap(e) for e in job.part_edges if e[0] in endpoints or e[1] in endpoints]
    for node, lq1, lq2 in front:
        c, t = job.l2p[lq1], job.l2p[lq2]
        for m in sorted(job.adjacency[c] & job.adjacency[t]):
            cands.append(_RefCandidate(BRIDGE, (c, m, t), node, ((c, m), (m, t), (c, m), (m, t))))
    if not cands:
        raise RoutingError("no SWAP or BRIDGE candidate for a blocked front layer")
    return cands


def _ref_cost(tentative, front, extended, dist, l2p, p2l, weight_w, self_cost):
    """The first ``cost_h``: numpy-scalar lookups summed by ``sum``."""
    if tentative.kind == SWAP:
        a, b = tentative.qubits
        mapping = list(l2p)
        mapping[p2l[a]], mapping[p2l[b]] = b, a
        resolved = None
    else:
        mapping = l2p
        resolved = tentative.node
    front_term = sum(dist[mapping[lq1], mapping[lq2]] for node, lq1, lq2 in front if node != resolved)
    if self_cost:
        self_term = sum(dist[p, q] for p, q in tentative.cnot_pairs)
        if resolved is not None:
            pair = next({lq1, lq2} for node, lq1, lq2 in front if node == resolved)
            self_term *= 1 + sum(1 for lq1, lq2 in extended if {lq1, lq2} == pair)
        h = (front_term + self_term) / (len(front) + len(tentative.cnot_pairs))
    else:
        h = front_term / len(front)
    if extended:
        h += weight_w * sum(dist[mapping[lq1], mapping[lq2]] for lq1, lq2 in extended) / len(extended)
    return h


def _ref_forced_path(job, gates):
    gate = job.circuit.gates[min(job.front)]
    src, dst = job.l2p[gate.qubits[0]], job.l2p[gate.qubits[1]]
    parent = {src: None}
    queue = [src]
    while queue:
        nxt = []
        for u in queue:
            for v in sorted(job.adjacency[u]):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        queue = nxt
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    for step in path[1:-1]:
        edge = (min(src, step), max(src, step))
        for p, q in _ref_swap(edge).cnot_pairs:
            gates.append(Gate(CX, (p, q)))
        job.apply_swap(*edge)
        src = step


def _ref_emit_ready(job, model, gates):
    progress = True
    while progress:
        progress = False
        for node in sorted(job.front):
            gate = job.circuit.gates[node]
            if gate.kind == CX:
                a, b = job.l2p[gate.qubits[0]], job.l2p[gate.qubits[1]]
                if not model.has_edge(a, b):
                    continue
                emitted = Gate(CX, (a, b))
            elif gate.kind == MEASURE:
                emitted = Gate(MEASURE, (job.l2p[gate.qubits[0]],), clbit=job.clbit_offset + gate.clbit)
            else:
                emitted = Gate(gate.kind, tuple(job.l2p[q] for q in gate.qubits), gate.params)
            gates.append(emitted)
            job.mark_executed(node)
            job.banned_edges.clear()
            job.stalled = 0
            progress = True


@dataclass
class RefRouting:
    gates: list  # per circuit, in plan order, as are the rest
    swaps: list
    bridges: list
    final_l2p: list
    iterations: list


def reference_route(model, dist, jobs_spec, weight_w=0.5, ext_size=20, swap_only=False, self_cost=True):
    """All of a plan's circuits routed in one joint loop, densest-first each
    round, with the numpy matrix ``dist``.  Each circuit's gates go to its
    own list, and its classical bits follow those of the circuits before it.
    A circuit may take ``2 * |region| + 6`` rounds per gate, as in the
    router."""
    jobs, offset = [], 0
    for c, dag, region, l2p in jobs_spec:
        jobs.append(_RefJob(model, c, dag, region, l2p, offset))
        offset += c.num_clbits
    gates: list = [[] for _ in jobs]
    iterations = [0 for _ in jobs]
    while any(j.remaining for j in jobs):
        for i, job in enumerate(jobs):
            if not job.remaining:
                continue
            iterations[i] += 1
            cap = (2 * len(job.partition) + 6) * len(job.circuit.gates)
            if iterations[i] > cap:
                raise RoutingError(f"routing did not terminate within {cap} iterations")
            _ref_emit_ready(job, model, gates[i])
            if not job.front:
                continue
            if job.stalled >= 2 * len(job.partition) + 4:
                _ref_forced_path(job, gates[i])
                continue
            candidates = _ref_candidates(job)
            if swap_only:
                candidates = [c for c in candidates if c.kind == SWAP]
            if job.banned_edges:
                pruned = [c for c in candidates if not (c.kind == SWAP and c.qubits in job.banned_edges)]
                if pruned:
                    candidates = pruned
            front = job.blocked_front()
            extended = naive_extended_layer(job.circuit, job.retired, job.front, ext_size)
            best = min(
                candidates,
                key=lambda cand: (
                    _ref_cost(cand, front, extended, dist, job.l2p, job.p2l, weight_w, self_cost),
                    0 if cand.kind == BRIDGE else 1,
                    cand.qubits,
                ),
            )
            for p, q in best.cnot_pairs:
                gates[i].append(Gate(CX, (p, q)))
            if best.kind == SWAP:
                job.apply_swap(*best.qubits)
                job.banned_edges.add(best.qubits)
                job.stalled += 1
            else:
                job.bridges += 1
                job.mark_executed(best.node)
                job.banned_edges.clear()
                job.stalled = 0
    return RefRouting(
        gates,
        [j.swaps for j in jobs],
        [j.bridges for j in jobs],
        [j.l2p for j in jobs],
        iterations,
    )


def reference_placement(model, dist, region, circuit, dag, rng, attempts=10, **route_kw) -> list[int]:
    """Best of ``attempts`` random placements onto the qubits ``region``,
    each routed to completion; key (inserted CNOTs, summed CNOT distance,
    attempt)."""
    base = sorted(region)
    cx_pairs = [(g.qubits[0], g.qubits[1]) for g in circuit.gates if g.kind == CX]
    best_key = best_l2p = None
    for attempt in range(attempts):
        l2p = [int(p) for p in rng.permutation(base)]
        trial = reference_route(model, dist, [(circuit, dag, region, l2p)], **route_kw)
        inserted = 3 * (trial.swaps[0] + trial.bridges[0])
        key = (inserted, left_sum(float(dist[l2p[a], l2p[b]]) for a, b in cx_pairs), attempt)
        if best_key is None or key < best_key:
            best_key, best_l2p = key, l2p
    return best_l2p


def optimal_added_cnots(model, region, circuit) -> int:
    """The fewest CNOTs any router can add to route ``circuit`` inside the
    qubits ``region``: Dijkstra over (placement, CNOTs retired per logical
    wire), from every placement at cost 0.

    A SWAP on a region edge costs 3, a bridge of a front CNOT whose operands
    share a neighbour in the region costs 3, and a front CNOT on an edge
    retires for free, so every state retires all it can at once.  Only the
    CNOTs' order on each wire is kept.  A router also orders gates through
    barriers and classical bits, so every route is one of the paths searched
    here, and the result is a lower bound on its ``additional_cnots``.
    """
    region = tuple(region)
    edges = [(a, b) for a, b in model.edges if a in region and b in region]
    adjacency = {q: {v for v in model.neighbors(q) if v in region} for q in region}
    cnots = [g.qubits for g in circuit.gates if g.kind == CX]
    wires: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
    place = []  # (index on the control's wire, index on the target's wire)
    for j, (a, b) in enumerate(cnots):
        place.append((len(wires[a]), len(wires[b])))
        wires[a].append(j)
        wires[b].append(j)
    done = tuple(len(w) for w in wires)

    def front(counts):
        for w, count in enumerate(counts):
            if count < len(wires[w]):
                j = wires[w][count]
                a, b = cnots[j]
                if a == w and counts[b] == place[j][1]:
                    yield j

    def retire_free(l2p, counts):
        counts = list(counts)
        progress = True
        while progress:
            progress = False
            for j in list(front(counts)):
                a, b = cnots[j]
                if l2p[b] in adjacency[l2p[a]]:
                    counts[a] += 1
                    counts[b] += 1
                    progress = True
        return tuple(counts)

    heap, best = [], {}
    for l2p in permutations(region):
        state = (l2p, retire_free(l2p, (0,) * circuit.num_qubits))
        if state not in best:
            best[state] = 0
            heappush(heap, (0, state))
    while heap:
        cost, (l2p, counts) = heappop(heap)
        if counts == done:
            return cost
        if cost > best[(l2p, counts)]:
            continue
        moves = []
        for p, q in edges:
            swapped = tuple(q if x == p else p if x == q else x for x in l2p)
            moves.append((swapped, counts))
        for j in front(counts):
            a, b = cnots[j]
            if adjacency[l2p[a]] & adjacency[l2p[b]]:
                bridged = list(counts)
                bridged[a] += 1
                bridged[b] += 1
                moves.append((l2p, bridged))
        for new_l2p, new_counts in moves:
            state = (new_l2p, retire_free(new_l2p, new_counts))
            if cost + 3 < best.get(state, math.inf):
                best[state] = cost + 3
                heappush(heap, (cost + 3, state))
    raise RoutingError(f"region of circuit {circuit.id!r} cannot route it")


# --- the first OpenQASM parser -------------------------------------------------

# one token and the whitespace before it; "//" starts a comment, not two tokens
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<real>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<string>\"[^\"]*\")|(?P<arrow>->)|(?P<sym>[;,()\[\]+\-*]|/(?!/)))"
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(source.split("\n"), start=1):
        end = 0
        for m in iter(_TOKEN_RE.scanner(line).match, None):
            kind = m.lastgroup
            tokens.append(_Token(kind, m[kind], lineno, m.start(kind) + 1))
            end = m.end()
        rest = line[end:].lstrip()
        if rest and not rest.startswith("//"):
            raise QasmError(f"unexpected character {rest[0]!r}", lineno, len(line) - len(rest) + 1)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise QasmError("unexpected end of input", last.line if last else 1, last.col if last else 1)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise QasmError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_kind(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise QasmError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
        return tok

    # parameter expressions: + - * / with parentheses, numbers and pi
    def parse_expr(self) -> float:
        value = self.parse_term()
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.next()
            rhs = self.parse_term()
            value = value + rhs if tok.text == "+" else value - rhs
        return value

    def parse_term(self) -> float:
        value = self.parse_factor()
        while (tok := self.peek()) is not None and tok.text in "*/":
            self.next()
            rhs = self.parse_factor()
            if tok.text == "*":
                value *= rhs
            else:
                if rhs == 0:
                    raise QasmError("division by zero in parameter", tok.line, tok.col)
                value /= rhs
        return value

    def parse_factor(self) -> float:
        tok = self.next()
        if tok.text == "-":
            return -self.parse_factor()
        if tok.text == "+":
            return self.parse_factor()
        if tok.text == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind in ("real", "int"):
            return float(tok.text)
        if tok.text == "pi":
            return math.pi
        raise QasmError(f"bad parameter expression near {tok.text!r}", tok.line, tok.col)


def reference_parse_program(source: str, allow_multiple_cregs: bool):
    """The first parser's core: ``_tokenize`` then ``_Parser``.

    Returns (num_qubits, creg_sizes, gates).  ``creg_sizes`` is an ordered
    dict creg name -> size; clbit indices in gates are global across cregs in
    declaration order.
    """
    parser = _Parser(_tokenize(source))
    qreg: tuple[str, int] | None = None
    cregs: dict[str, int] = {}
    creg_offsets: dict[str, int] = {}
    gates: list[Gate] = []

    def parse_ref(expect_reg: str | None):
        name_tok = parser.expect_kind("id", "register name")
        reg = name_tok.text
        idx = None
        if parser.peek() is not None and parser.peek().text == "[":
            parser.next()
            idx_tok = parser.expect_kind("int", "index")
            idx = int(idx_tok.text)
            parser.expect("]")
        if expect_reg == "q":
            if qreg is None or reg != qreg[0]:
                raise QasmError(f"unknown quantum register {reg!r}", name_tok.line, name_tok.col)
            size = qreg[1]
        else:
            if reg not in cregs:
                raise QasmError(f"unknown classical register {reg!r}", name_tok.line, name_tok.col)
            size = cregs[reg]
        if idx is not None and not 0 <= idx < size:
            raise QasmError(f"index {idx} out of range for {reg}[{size}]", name_tok.line, name_tok.col)
        return reg, idx, name_tok

    while (tok := parser.peek()) is not None:
        if tok.text == "OPENQASM":
            parser.next()
            ver = parser.next()
            if ver.text != "2.0":
                raise QasmError(f"unsupported OpenQASM version {ver.text}", ver.line, ver.col)
            parser.expect(";")
        elif tok.text == "include":
            parser.next()
            parser.expect_kind("string", "include path")
            parser.expect(";")
        elif tok.text == "qreg":
            parser.next()
            name = parser.expect_kind("id", "register name").text
            parser.expect("[")
            size = int(parser.expect_kind("int", "register size").text)
            parser.expect("]")
            parser.expect(";")
            if qreg is not None:
                raise MultiRegisterError("multiple quantum registers are not supported", tok.line, tok.col)
            if size < 1:
                raise QasmError("quantum register must have at least one qubit", tok.line, tok.col)
            qreg = (name, size)
        elif tok.text == "creg":
            parser.next()
            name = parser.expect_kind("id", "register name").text
            parser.expect("[")
            size = int(parser.expect_kind("int", "register size").text)
            parser.expect("]")
            parser.expect(";")
            if cregs and not allow_multiple_cregs:
                raise MultiRegisterError("multiple classical registers are not supported", tok.line, tok.col)
            if name in cregs:
                raise QasmError(f"classical register {name!r} redeclared", tok.line, tok.col)
            creg_offsets[name] = sum(cregs.values())
            cregs[name] = size
        elif tok.text == "measure":
            parser.next()
            qreg_name, qidx, _ = parse_ref("q")
            parser.expect("->")
            creg_name, cidx, ctok = parse_ref("c")
            parser.expect(";")
            offset = creg_offsets[creg_name]
            if qidx is None and cidx is None:
                if qreg[1] != cregs[creg_name]:
                    raise QasmError(
                        f"register sizes differ in measure {qreg_name} -> {creg_name}", ctok.line, ctok.col
                    )
                for i in range(qreg[1]):
                    gates.append(Gate(MEASURE, (i,), clbit=offset + i))
            elif qidx is not None and cidx is not None:
                gates.append(Gate(MEASURE, (qidx,), clbit=offset + cidx))
            else:
                raise QasmError("measure must index both registers or neither", ctok.line, ctok.col)
        elif tok.text == "barrier":
            parser.next()
            touched: list[int] = []
            while True:
                _, idx, _ = parse_ref("q")
                if idx is None:
                    touched.extend(i for i in range(qreg[1]) if i not in touched)
                elif idx not in touched:
                    touched.append(idx)
                if parser.peek() is not None and parser.peek().text == ",":
                    parser.next()
                    continue
                break
            parser.expect(";")
            gates.append(Gate(BARRIER, tuple(touched)))
        elif tok.kind == "id":
            parser.next()
            name = tok.text
            if name in ("gate", "opaque", "if", "reset"):
                raise QasmError(f"unsupported statement {name!r}", tok.line, tok.col)
            if name not in ONE_QUBIT_GATES and name != CX:
                raise UnsupportedGateError(f"unsupported gate {name!r}", tok.line, tok.col)
            params: list[float] = []
            if parser.peek() is not None and parser.peek().text == "(":
                parser.next()
                while True:
                    start = parser.peek()
                    params.append(parser.parse_expr())
                    if not math.isfinite(params[-1]):
                        raise QasmError(f"parameter of {name!r} is not finite", start.line, start.col)
                    if parser.peek() is None or parser.peek().text != ",":
                        break
                    parser.next()
                parser.expect(")")
            want = PARAM_COUNTS[name]
            if len(params) != want:
                raise QasmError(f"gate {name!r} takes {want} parameter(s), got {len(params)}", tok.line, tok.col)
            refs = []
            while True:
                refs.append(parse_ref("q"))
                if parser.peek() is not None and parser.peek().text == ",":
                    parser.next()
                    continue
                break
            parser.expect(";")
            if name == CX:
                if len(refs) != 2 or refs[0][1] is None or refs[1][1] is None:
                    raise QasmError("cx needs two indexed qubit arguments", tok.line, tok.col)
                if refs[0][1] == refs[1][1]:
                    raise QasmError("cx control and target must differ", tok.line, tok.col)
                gates.append(Gate(CX, (refs[0][1], refs[1][1]), tuple(params)))
            else:
                if len(refs) != 1:
                    raise QasmError(f"gate {name!r} takes one qubit argument", tok.line, tok.col)
                idx = refs[0][1]
                if idx is None:  # broadcast over the register
                    for i in range(qreg[1]):
                        gates.append(Gate(name, (i,), tuple(params)))
                else:
                    gates.append(Gate(name, (idx,), tuple(params)))
        else:
            raise QasmError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    if qreg is None:
        raise QasmError("no quantum register declared", 1, 1)
    return qreg[1], cregs, gates
