"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own code paths: plain BFS,
Floyd-Warshall, brute-force path and subset enumeration, ``networkx`` region
diameters, linear scans of the edge list and the crosstalk table, and a
dense unitary builder that works on integer basis indices.  Four
exceptions keep a first design as the reference for its replacement: the
trim-and-reallocate fidelity gate (allocate every trimmed batch from
scratch) for the one-pass gate, the per-search exhaustive partitioner
(every connected subset of the free qubits enumerated and scored from
scratch) for the table-driven one, the per-branch simulator (one state per
measurement branch, the whole program at once) for the branch-batched one,
and the first router (every circuit of a plan routed in one joint loop,
every placement trial routed to completion, lookahead rescanned from the
first CNOT, numpy-scalar distance sums) for the bounded, interleaved one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import networkx as nx
import numpy as np

from qmpc.circuits import BARRIER, CX, MEASURE, Gate, QuantumCircuit
from qmpc.config import RunConfig
from qmpc.errors import PartitionError, PartitionSizeError, RoutingError, SimulationError
from qmpc.hardware import subgraph_diameter
from qmpc.manager import ExecutionPlan, Verdict
from qmpc.partition import (
    GSP_MAX_QUBITS,
    METHOD_GSP,
    Partition,
    allocate_all,
    connected_k_subsets,
    crosstalk_adjust,
    gsp_partition,
    qhsp_partition,
)
from qmpc.scheduler import BRIDGE, SWAP, ScheduledGate, TentativeGate


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
        delta_s = sum(p.score - alone[p.circuit_id] for p in joint) / len(current)
        if delta_s < threshold:
            verdict = Verdict.SIMULTANEOUS if len(current) == len(circuits) else Verdict.REDUCED
            return ExecutionPlan(
                tuple(c.id for c in current), tuple(joint), delta_s, threshold, verdict, len(current)
            )
        current = current[:-1]
    return ExecutionPlan((current[0].id,), (best_alone(current[0]),), 0.0, threshold, Verdict.INDEPENDENT, 1)


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
        avg = sum(adjusted.values()) / len(adjusted) if adjusted else 0.0
        readout = sum(float(model.readout_error[q]) for q in subset)
        total = avg * circuit.cnot_count + readout
        total += subgraph_diameter(model, subset)
        candidates.append(Partition(circuit.id, subset, total, METHOD_GSP))
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
    active = sorted({q for g in circuit.gates for q in g.qubits})
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

    def __init__(self, model, circuit, dag, partition, l2p):
        self.circuit = circuit
        self.dag = dag
        self.partition = tuple(partition.qubits)
        self.part_set = set(self.partition)
        self.l2p = list(l2p)
        self.p2l = {p: l for l, p in enumerate(self.l2p)}
        self.in_deg = dag.in_degrees()
        self.front = {i for i, d in enumerate(self.in_deg) if d == 0}
        self.executed = [False] * dag.num_nodes
        self.remaining = dag.num_nodes
        self.part_edges = sorted(e for e in model.edges if e[0] in self.part_set and e[1] in self.part_set)
        self.adjacency = {q: set(model.neighbors(q)) & self.part_set for q in self.partition}
        self.cx_nodes = [i for i, g in enumerate(circuit.gates) if g.kind == CX]
        self.swaps = 0
        self.bridges = 0
        self.banned_edges: set[tuple[int, int]] = set()
        self.stalled = 0

    def mark_executed(self, node):
        self.executed[node] = True
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
        return [(node, *self.dag.gate(node).qubits) for node in sorted(self.front)]


def naive_extended_layer(job, size: int) -> list[tuple[int, int]]:
    """The first ``size`` unexecuted CNOTs outside the front, scanned from
    the circuit's first gate."""
    out = []
    for node, g in enumerate(job.circuit.gates):
        if g.kind == CX and not job.executed[node] and node not in job.front:
            out.append((g.qubits[0], g.qubits[1]))
    return out[:size]


def _ref_candidates(job):
    front = job.blocked_front()
    endpoints = {job.l2p[lq] for _, lq1, lq2 in front for lq in (lq1, lq2)}
    cands = [TentativeGate(SWAP, e) for e in job.part_edges if e[0] in endpoints or e[1] in endpoints]
    for node, lq1, lq2 in front:
        c, t = job.l2p[lq1], job.l2p[lq2]
        for middle in sorted(job.adjacency[c] & job.adjacency[t]):
            cands.append(TentativeGate(BRIDGE, (c, middle, t), node))
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
        h = (front_term + self_term) / (len(front) + tentative.n_tent)
    else:
        h = front_term / len(front)
    if extended:
        h += weight_w * sum(dist[mapping[lq1], mapping[lq2]] for lq1, lq2 in extended) / len(extended)
    return h


def _ref_forced_path(job, entries):
    node = min(job.front)
    gate = job.dag.gate(node)
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
        for p, q in TentativeGate(SWAP, edge).cnot_pairs:
            entries.append(ScheduledGate(job.circuit.id, Gate(CX, (p, q))))
        job.apply_swap(*edge)
        src = step


def _ref_emit_ready(job, model, entries):
    progress = True
    while progress:
        progress = False
        for node in sorted(job.front):
            gate = job.dag.gate(node)
            if gate.kind == CX:
                a, b = job.l2p[gate.qubits[0]], job.l2p[gate.qubits[1]]
                if not model.has_edge(a, b):
                    continue
                emitted = Gate(CX, (a, b))
            elif gate.kind == MEASURE:
                emitted = Gate(MEASURE, (job.l2p[gate.qubits[0]],), clbit=gate.clbit)
            else:
                emitted = Gate(gate.kind, tuple(job.l2p[q] for q in gate.qubits), gate.params)
            entries.append(ScheduledGate(job.circuit.id, emitted))
            job.mark_executed(node)
            job.banned_edges.clear()
            job.stalled = 0
            progress = True


@dataclass
class RefSchedule:
    entries: list
    swap_counts: dict
    bridge_counts: dict
    final_mappings: dict
    iterations: int


def reference_route(model, dist, jobs_spec, weight_w=0.5, ext_size=20, swap_only=False, self_cost=True):
    """All of a plan's circuits routed in one joint loop, densest-first each
    round, with the numpy matrix ``dist``."""
    jobs = [_RefJob(model, c, dag, part, l2p) for c, dag, part, l2p in jobs_spec]
    entries: list = []
    cap = 10 * max(sum(len(j.circuit.gates) for j in jobs), 1)
    iterations = 0
    while any(j.remaining for j in jobs):
        iterations += 1
        if iterations > cap:
            raise RoutingError(f"routing did not terminate within {cap} iterations")
        for job in jobs:
            if not job.remaining:
                continue
            _ref_emit_ready(job, model, entries)
            if not job.front:
                continue
            if job.stalled >= 2 * len(job.partition) + 4:
                _ref_forced_path(job, entries)
                continue
            candidates = _ref_candidates(job)
            if swap_only:
                candidates = [c for c in candidates if c.kind == SWAP]
            if job.banned_edges:
                pruned = [c for c in candidates if not (c.kind == SWAP and c.qubits in job.banned_edges)]
                if pruned:
                    candidates = pruned
            front = job.blocked_front()
            extended = naive_extended_layer(job, ext_size)
            best = min(
                candidates,
                key=lambda cand: (
                    _ref_cost(cand, front, extended, dist, job.l2p, job.p2l, weight_w, self_cost),
                    0 if cand.kind == BRIDGE else 1,
                    cand.qubits,
                ),
            )
            for p, q in best.cnot_pairs:
                entries.append(ScheduledGate(job.circuit.id, Gate(CX, (p, q))))
            if best.kind == SWAP:
                job.apply_swap(*best.qubits)
                job.banned_edges.add(best.qubits)
                job.stalled += 1
            else:
                job.bridges += 1
                job.mark_executed(best.node)
                job.banned_edges.clear()
                job.stalled = 0
    return RefSchedule(
        entries,
        {j.circuit.id: j.swaps for j in jobs},
        {j.circuit.id: j.bridges for j in jobs},
        {j.circuit.id: dict(enumerate(j.l2p)) for j in jobs},
        iterations,
    )


def reference_placement(model, dist, partition, circuit, dag, rng, attempts=10, **route_kw) -> list[int]:
    """Best of ``attempts`` random placements, each routed to completion;
    key (inserted CNOTs, summed CNOT distance, attempt)."""
    base = sorted(partition.qubits)
    cx_pairs = [(g.qubits[0], g.qubits[1]) for g in circuit.gates if g.kind == CX]
    best_key = best_l2p = None
    for attempt in range(attempts):
        l2p = [int(p) for p in rng.permutation(base)]
        trial = reference_route(model, dist, [(circuit, dag, partition, l2p)], **route_kw)
        inserted = 3 * (trial.swap_counts[circuit.id] + trial.bridge_counts[circuit.id])
        key = (inserted, sum(float(dist[l2p[a], l2p[b]]) for a, b in cx_pairs), attempt)
        if best_key is None or key < best_key:
            best_key, best_l2p = key, l2p
    return best_l2p
