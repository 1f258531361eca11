"""Routing: turn partitioned circuits into one hardware-compliant gate sequence.

Gates whose operands sit on a coupling edge pass straight through.  A blocked
CNOT is repaired either by a SWAP (three CNOTs, permutes the mapping) or, when
control and target are exactly two apart inside the partition, by a bridged
CNOT (four CNOTs, mapping unchanged).  Candidates are ranked by a cost that
charges each option's own CNOTs against the distance it saves for the front
layer and, with a smaller weight, for a lookahead window.  Because a bridge
leaves its pair apart, its own CNOTs are charged once more for every repeat
of its logical pair in the lookahead window (see ``cost_h``); this charge is
part of the self-cost term, so the ``self_cost=False`` and ``swap_only``
ablations score exactly as without it.  All movement stays inside the owning
circuit's partition.

Partitions are disjoint, so every circuit is routed alone and a plan's joint
schedule interleaves the solo routes round by round (``interleave``).  The
placement search reuses this: the winning trial of ``initial_mapping`` is
the circuit's route, and trials that can no longer win stop early.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circuits import CX, MEASURE, DagCircuit, Gate, QuantumCircuit, _format_gate, depth
from .config import DEFAULT_CONFIG, RunConfig
from .errors import RoutingError
from .hardware import HardwareModel
from .partition import Partition

SWAP = "SWAP"
BRIDGE = "BRIDGE"

# a bridged CNOT over control-middle-target, in emission order
BRIDGE_PATTERN = ((0, 1), (1, 2), (0, 1), (1, 2))


@dataclass(frozen=True)
class TentativeGate:
    """A candidate repair: SWAP over an edge, or BRIDGE over a 2-hop path."""

    kind: str
    qubits: tuple[int, ...]  # physical: (a, b) for SWAP, (control, middle, target) for BRIDGE
    node: int | None = None  # DAG node the bridge executes

    @property
    def n_tent(self) -> int:
        return 3 if self.kind == SWAP else 4

    @cached_property
    def cnot_pairs(self) -> tuple[tuple[int, int], ...]:
        """The CNOTs this repair emits, in order."""
        if self.kind == SWAP:
            a, b = self.qubits
            return ((a, b), (b, a), (a, b))
        return tuple((self.qubits[i], self.qubits[j]) for i, j in BRIDGE_PATTERN)


@dataclass(frozen=True)
class ScheduledGate:
    circuit_id: str
    gate: Gate  # physical qubits; measure clbits stay circuit-local


@dataclass
class Schedule:
    """Routing result: emitted sequence plus per-circuit accounting.

    ``round_ends[r]`` is the length of ``entries`` after routing round ``r``.
    An ``aborted`` schedule is a placement trial stopped once it could no
    longer win; its entries and counts are incomplete.
    """

    entries: list[ScheduledGate]
    swap_counts: dict[str, int]
    bridge_counts: dict[str, int]
    final_mappings: dict[str, dict[int, int]]
    round_ends: list[int] = field(default_factory=list)
    aborted: bool = False

    @property
    def iterations(self) -> int:
        """Routing rounds, each emitting what is ready and then at most one
        repair per blocked circuit."""
        return len(self.round_ends)

    def additional_cnots(self, circuit_id: str | None = None) -> int:
        if circuit_id is not None:
            return 3 * (self.swap_counts[circuit_id] + self.bridge_counts[circuit_id])
        return 3 * (sum(self.swap_counts.values()) + sum(self.bridge_counts.values()))

    def depth(self) -> int:
        return depth(entry.gate for entry in self.entries)


class _Job:
    """Mutable routing state for one circuit."""

    def __init__(self, model: HardwareModel, circuit: QuantumCircuit, dag: DagCircuit, partition: Partition, l2p):
        if len(partition.qubits) != circuit.num_qubits:
            raise ValueError(f"partition size {len(partition.qubits)} != circuit qubits {circuit.num_qubits}")
        self.circuit = circuit
        self.dag = dag
        self.partition = tuple(partition.qubits)
        self.part_set = set(self.partition)
        self.l2p = list(l2p)
        if sorted(self.l2p) != sorted(self.partition):
            raise ValueError("initial mapping is not a bijection onto the partition")
        self.p2l = {p: l for l, p in enumerate(self.l2p)}
        self.in_deg = dag.in_degrees()
        self.front = {i for i, d in enumerate(self.in_deg) if d == 0}
        self.executed = [False] * dag.num_nodes
        self.remaining = dag.num_nodes
        self.part_edges = sorted(e for e in model.edges if e[0] in self.part_set and e[1] in self.part_set)
        self.adjacency = {q: set(model.neighbors(q)) & self.part_set for q in self.partition}
        self.swap_gates = [TentativeGate(SWAP, e) for e in self.part_edges]
        self.cx_nodes = [i for i, g in enumerate(circuit.gates) if g.kind == CX]
        self.cx_pairs = [circuit.gates[i].qubits for i in self.cx_nodes]  # (control, target)
        self.cx_cursor = 0  # index into cx_nodes of the first CNOT not yet executed
        self.swaps = 0
        self.bridges = 0
        # anti-oscillation state, cleared whenever the circuit emits a gate
        self.banned_edges: set[tuple[int, int]] = set()
        self.stalled = 0

    @property
    def done(self) -> bool:
        return self.remaining == 0

    def mark_executed(self, node: int) -> list[int]:
        """Retire ``node``; return the successors this moved into the front."""
        self.executed[node] = True
        self.front.discard(node)
        self.remaining -= 1
        ready = []
        for succ in self.dag.successors[node]:
            self.in_deg[succ] -= 1
            if self.in_deg[succ] == 0:
                self.front.add(succ)
                ready.append(succ)
        return ready

    def apply_swap(self, a: int, b: int) -> None:
        la, lb = self.p2l[a], self.p2l[b]
        self.l2p[la], self.l2p[lb] = b, a
        self.p2l[a], self.p2l[b] = lb, la
        self.swaps += 1

    def blocked_front(self) -> list[tuple[int, int, int]]:
        """(node, logical control, logical target) for every front gate."""
        out = []
        for node in sorted(self.front):
            g = self.dag.gate(node)
            out.append((node, g.qubits[0], g.qubits[1]))
        return out

    def extended_layer(self, size: int) -> list[tuple[int, int]]:
        """Next unexecuted CNOTs beyond the front layer, in program order.

        The scan starts at a cursor on the first unexecuted CNOT; the
        cursor only moves forward.
        """
        nodes, executed, front, pairs = self.cx_nodes, self.executed, self.front, self.cx_pairs
        start, n = self.cx_cursor, len(nodes)
        while start < n and executed[nodes[start]]:
            start += 1
        self.cx_cursor = start
        out: list[tuple[int, int]] = []
        if size > 0:
            for i in range(start, n):
                node = nodes[i]
                if not executed[node] and node not in front:
                    out.append(pairs[i])
                    if len(out) == size:
                        break
        return out


def find_swap_bridge_pairs(
    job: _Job, model: HardwareModel, front: list[tuple[int, int, int]] | None = None
) -> list[TentativeGate]:
    """Repair candidates for a job whose front layer is fully blocked.

    SWAPs: every partition-internal edge touching a front-gate operand.
    BRIDGEs: every front CNOT whose operands are exactly two apart inside the
    partition, one candidate per valid middle qubit.  ``front`` is
    ``job.blocked_front()`` when the caller already has it.
    """
    if front is None:
        front = job.blocked_front()
    endpoints = set()
    for _, lq1, lq2 in front:
        endpoints.add(job.l2p[lq1])
        endpoints.add(job.l2p[lq2])
    candidates: list[TentativeGate] = [
        g for g in job.swap_gates if g.qubits[0] in endpoints or g.qubits[1] in endpoints
    ]
    for node, lq1, lq2 in front:
        c, t = job.l2p[lq1], job.l2p[lq2]
        for middle in sorted(job.adjacency[c] & job.adjacency[t]):
            candidates.append(TentativeGate(BRIDGE, (c, middle, t), node))
    if not candidates:
        raise RoutingError("no SWAP or BRIDGE candidate for a blocked front layer")
    return candidates


def cost_h(
    tentative: TentativeGate,
    front: list[tuple[int, int, int]],
    extended: list[tuple[int, int]],
    dist,
    l2p: list[int],
    p2l: dict[int, int],
    weight_w: float = RunConfig.weight_w,
    self_cost: bool = RunConfig.self_cost,
) -> float:
    """Average routing distance if ``tentative`` were applied; lower is better.

    A SWAP is judged under the post-swap mapping and charges its own three
    CNOTs; a BRIDGE is judged under the unchanged mapping, charges its four
    CNOTs, and the CNOT it executes drops out of the front-layer term.  The
    lookahead term is scaled by ``weight_w`` and averaged over its window.

    Recurrence charge: a bridge leaves its logical pair as far apart as
    before, so every later CNOT on the same unordered pair is blocked again
    and needs another repair, where one SWAP would have paid once.  The
    bridge's self-term is therefore scaled by ``1 + r``, with ``r`` the
    number of CNOTs on that pair in the lookahead window ``extended`` (the
    window only, not the remaining DAG).  With ``r == 0`` the formula is
    unchanged.  The charge is part of the self-cost term, so it vanishes
    with ``self_cost=False``, and SWAP candidates never carry it.

    ``dist`` is read as ``dist[p][q]``: the compiler passes nested rows of
    Python floats (``DistanceMatrices.combined_rows``), and a numpy matrix
    works too.  Every
    sum adds its terms one by one from the left, as ``sum`` over numpy
    scalars does; ``sum`` over Python floats is compensated from Python
    3.12 on and would move the last bits, which can flip a choice.
    """
    if tentative.kind == SWAP:
        a, b = tentative.qubits
        mapping = list(l2p)
        mapping[p2l[a]], mapping[p2l[b]] = b, a
        resolved = None
    else:
        mapping = l2p
        resolved = tentative.node

    front_term = 0
    for node, lq1, lq2 in front:
        if node != resolved:
            front_term += dist[mapping[lq1]][mapping[lq2]]
    if self_cost:
        self_term = 0
        for p, q in tentative.cnot_pairs:
            self_term += dist[p][q]
        if resolved is not None:
            x, y = next((lq1, lq2) for node, lq1, lq2 in front if node == resolved)
            repeats = 0
            for lq1, lq2 in extended:
                if (lq1 == x and lq2 == y) or (lq1 == y and lq2 == x):
                    repeats += 1
            self_term *= 1 + repeats
        h = (front_term + self_term) / (len(front) + tentative.n_tent)
    else:
        h = front_term / len(front)
    if extended:
        ext_term = 0
        for lq1, lq2 in extended:
            ext_term += dist[mapping[lq1]][mapping[lq2]]
        h += weight_w * ext_term / len(extended)
    return h


def _forced_path_route(job: _Job, entries: list[ScheduledGate]) -> None:
    """Stall escape hatch: walk the oldest blocked gate's control along the
    shortest partition-internal path until the gate is executable.

    The cost-driven selection can orbit between retreat swaps whose own CNOTs
    look cheaper than any approach; this deterministic fallback guarantees
    progress once a circuit has gone too long without emitting anything.
    It is the same idea as the "release valve" of LightSABRE (Zou et al.,
    arXiv:2409.08368), which routes one front-layer gate along a shortest
    path once the heuristic stops making progress.
    """
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
    if dst not in parent:
        raise RoutingError(f"partition of circuit {job.circuit.id!r} is not internally connected")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    for step in path[1:-1]:  # move the control up to the target's neighbour
        edge = (min(src, step), max(src, step))
        for p, q in TentativeGate(SWAP, edge).cnot_pairs:
            entries.append(ScheduledGate(job.circuit.id, Gate(CX, (p, q))))
        job.apply_swap(*edge)  # apply_swap also counts the swap
        src = step


def _emit_ready(job: _Job, model: HardwareModel, entries: list[ScheduledGate]) -> None:
    """Emit every front gate that is executable as mapped, cascading.

    Each pass visits its nodes in index order.  The mapping does not change
    in here, so a CNOT blocked in one pass stays blocked, and every pass
    after the first visits only the nodes the pass before made ready.
    """
    l2p, gates, cid = job.l2p, job.circuit.gates, job.circuit.id
    visit = sorted(job.front)
    emitted_any = False
    while visit:
        ready: list[int] = []
        for node in visit:
            gate = gates[node]
            if gate.kind == CX:
                a, b = l2p[gate.qubits[0]], l2p[gate.qubits[1]]
                if not model.has_edge(a, b):
                    continue
                emitted = Gate(CX, (a, b))
            elif gate.kind == MEASURE:
                emitted = Gate(MEASURE, (l2p[gate.qubits[0]],), clbit=gate.clbit)
            else:  # 1q gates and barriers never block
                emitted = Gate(gate.kind, tuple(l2p[q] for q in gate.qubits), gate.params)
            entries.append(ScheduledGate(cid, emitted))
            ready += job.mark_executed(node)
            emitted_any = True
        visit = sorted(ready)
    if emitted_any:
        job.banned_edges.clear()
        job.stalled = 0


def _repair(job: _Job, model: HardwareModel, dist, config: RunConfig, entries: list[ScheduledGate]) -> None:
    """Insert the cheapest SWAP or BRIDGE for a blocked front layer."""
    front = job.blocked_front()
    candidates = find_swap_bridge_pairs(job, model, front)
    if config.swap_only:
        candidates = [c for c in candidates if c.kind == SWAP]
        if not candidates:
            raise RoutingError("swap-only routing found no SWAP candidate")
    # a swap edge used since the last emitted gate would likely just
    # oscillate (a cheap retreat edge can outscore every approach),
    # so prune those while alternatives exist; emission lifts the ban
    if job.banned_edges:
        pruned = [c for c in candidates if not (c.kind == SWAP and c.qubits in job.banned_edges)]
        if pruned:
            candidates = pruned
    extended = job.extended_layer(config.ext_layer)
    weight_w, self_cost = config.weight_w, config.self_cost
    best = min(
        candidates,
        key=lambda cand: (
            cost_h(cand, front, extended, dist, job.l2p, job.p2l, weight_w, self_cost),
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


def interleave(schedules: list[Schedule]) -> Schedule:
    """Join solo routes of circuits in disjoint partitions into one schedule.

    Round ``r`` of the joint schedule is round ``r`` of every route that
    has one, in list order: what routing the circuits together in one loop,
    visiting them in that order each round, would emit.
    """
    if len(schedules) == 1:
        return schedules[0]
    entries: list[ScheduledGate] = []
    round_ends: list[int] = []
    for r in range(max((s.iterations for s in schedules), default=0)):
        for s in schedules:
            if r < s.iterations:
                entries += s.entries[s.round_ends[r - 1] if r else 0 : s.round_ends[r]]
        round_ends.append(len(entries))
    joint = Schedule(entries, {}, {}, {}, round_ends, any(s.aborted for s in schedules))
    for s in schedules:
        joint.swap_counts.update(s.swap_counts)
        joint.bridge_counts.update(s.bridge_counts)
        joint.final_mappings.update(s.final_mappings)
    return joint


def mapping_transition(
    model: HardwareModel,
    dist,
    circuit: QuantumCircuit,
    dag: DagCircuit,
    partition: Partition,
    l2p: list[int],
    config: RunConfig,
    stall_limit: int | None = None,
    max_inserted: int | None = None,
) -> Schedule:
    """Route one circuit inside its partition from the placement ``l2p``.

    Each round emits whatever is executable, then inserts at most one repair
    gate if the circuit is still blocked.  A circuit that keeps inserting
    swaps without emitting anything falls back to deterministic
    shortest-path routing after ``stall_limit`` insertions (default: scales
    with its partition size).  An iteration cap of ten times the gate count
    remains as the guard against a non-terminating selection loop, which
    would be a bug rather than an input problem.  A circuit that has
    inserted more than ``max_inserted`` CNOTs stops early and the schedule
    comes back ``aborted``.  ``dist`` is the combined distance matrix or,
    faster, its ``combined_rows``.  Routes of circuits in disjoint
    partitions are joined by ``interleave``.
    """
    job = _Job(model, circuit, dag, partition, l2p)
    cap = 10 * max(len(circuit.gates), 1)
    entries: list[ScheduledGate] = []
    round_ends: list[int] = []
    limit = stall_limit if stall_limit is not None else 2 * len(job.partition) + 4
    aborted = False
    while not job.done:
        if max_inserted is not None and 3 * (job.swaps + job.bridges) > max_inserted:
            aborted = True
            break
        if len(round_ends) >= cap:
            raise RoutingError(f"routing did not terminate within {cap} iterations")
        _emit_ready(job, model, entries)
        if job.front:
            if job.stalled >= limit:
                _forced_path_route(job, entries)
            else:
                _repair(job, model, dist, config, entries)
        round_ends.append(len(entries))
    return Schedule(
        entries=entries,
        swap_counts={circuit.id: job.swaps},
        bridge_counts={circuit.id: job.bridges},
        final_mappings={circuit.id: dict(enumerate(job.l2p))},
        round_ends=round_ends,
        aborted=aborted,
    )


def initial_mapping(
    model: HardwareModel,
    dist,
    partition: Partition,
    circuit: QuantumCircuit,
    dag: DagCircuit,
    rng: np.random.Generator,
    config: RunConfig = DEFAULT_CONFIG,
) -> tuple[list[int], Schedule]:
    """Pick the best of ``config.attempts`` random placements; return it and
    its route.

    Each candidate bijection is evaluated by routing the circuit and
    counting inserted CNOTs; ties fall back to the summed routing distance
    of the circuit's CNOTs under the candidate placement, then to attempt
    order, so a fixed generator state fixes the result.

    Inserted CNOTs only grow during a route and the tie value is known
    before it starts, so a trial stops as soon as it can no longer beat the
    best so far (branch and bound).  Every attempt still draws its
    permutation, so the choice is that of routing every trial to the end.
    """
    base = sorted(partition.qubits)
    cx_pairs = [(g.qubits[0], g.qubits[1]) for g in circuit.gates if g.kind == CX]
    best_key = None
    best: tuple[list[int], Schedule] | None = None
    for attempt in range(config.attempts):
        l2p = [int(p) for p in rng.permutation(base)]
        # built-in sum over Python floats, as when this value was first
        # defined: it must stay the same float on every Python version
        tie = sum(float(dist[l2p[a]][l2p[b]]) for a, b in cx_pairs)
        bound = None
        if best_key is not None:  # a later attempt wins a tie on inserted CNOTs only by a lower tie value
            bound = best_key[0] if tie < best_key[1] else best_key[0] - 1
        trial = mapping_transition(model, dist, circuit, dag, partition, l2p, config, max_inserted=bound)
        key = (trial.additional_cnots(circuit.id), tie, attempt)
        if not trial.aborted and (best_key is None or key < best_key):
            best_key = key
            best = (l2p, trial)
    assert best is not None
    return best


# --- merged output -----------------------------------------------------------


def merged_circuit(schedule: Schedule, model: HardwareModel, circuits: list[QuantumCircuit]):
    """Flatten a schedule into one circuit over the whole device.

    Classical bits are concatenated per circuit in plan order; the manifest
    records, for every circuit, its final logical-to-physical map and the
    global classical bits its measurements landed in.
    """
    offsets: dict[str, int] = {}
    total_clbits = 0
    for c in circuits:
        offsets[c.id] = total_clbits
        total_clbits += c.num_clbits
    gates = []
    for entry in schedule.entries:
        g = entry.gate
        if g.kind == MEASURE:
            gates.append(Gate(MEASURE, g.qubits, clbit=offsets[entry.circuit_id] + g.clbit))
        else:
            gates.append(g)
    merged = QuantumCircuit("merged", model.num_qubits, total_clbits, tuple(gates))
    manifest = {
        c.id: {
            "logical_to_physical": {str(l): p for l, p in sorted(schedule.final_mappings[c.id].items())},
            "clbits": [offsets[c.id] + i for i in range(c.num_clbits)],
        }
        for c in circuits
    }
    return merged, manifest


def emit_merged_qasm(schedule: Schedule, model: HardwareModel, circuits: list[QuantumCircuit]):
    """Render the merged schedule as OpenQASM with one creg per circuit."""
    creg_names = {c.id: f"c{i}" for i, c in enumerate(circuits)}
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{model.num_qubits}];"]
    for c in circuits:
        if c.num_clbits:
            lines.append(f"creg {creg_names[c.id]}[{c.num_clbits}];")
    for entry in schedule.entries:
        creg = creg_names[entry.circuit_id]
        lines.append(_format_gate(entry.gate, clbit_ref=lambda b: f"{creg}[{b}]"))
    _, manifest = merged_circuit(schedule, model, circuits)
    return "\n".join(lines) + "\n", manifest
