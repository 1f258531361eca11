"""Routing: turn circuits in disjoint regions into one compliant gate sequence.

Gates whose operands sit on a coupling edge pass straight through.  A blocked
CNOT is repaired either by a SWAP (three CNOTs, permutes the mapping) or, when
control and target are exactly two apart inside the region, by a bridged
CNOT (four CNOTs, mapping unchanged).  Candidates are ranked by a cost that
charges each option's own CNOTs against the distance it saves for the front
layer and, with a smaller weight, for a lookahead window.  Because a bridge
leaves its pair apart, its own CNOTs are charged once more for every repeat
of its logical pair in the lookahead window (see ``cost_h``); this charge is
part of the self-cost term, so the ``self_cost=False`` and ``swap_only``
ablations score exactly as without it.  All movement stays inside the owning
circuit's region.

A routing round emits what is ready and repairs the blocked front that this
leaves.  A trial's stall, the SWAP edges since a gate last retired, is
banned from repairs and, grown too long, forces a shortest path; a
retirement ends it.

A region is a tuple of physical qubits, read as a set; the router knows
nothing of how the planner chose it, and the two meet only in ``pipeline``.
Regions are disjoint, so every circuit is routed alone into one ``Route``,
and a plan is the list of its circuits' routes; ``merged_circuit`` joins them
in plan order, and ``check_compliance`` guards the result: a merged program
that leaves the coupling graph or a circuit's region or bits is a
``RoutingError``.  The placement search reuses this: the winning trial of
``initial_mapping`` is the circuit's route, and trials that can no longer win
stop early.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .circuits import CX, MEASURE, Gate, QuantumCircuit, build_dag, emit_qasm
from .config import DEFAULT_CONFIG, RunConfig
from .errors import RoutingError
from .floats import left_sum
from .hardware import HardwareModel, induced_edges

if TYPE_CHECKING:
    import numpy as np

SWAP = "SWAP"
BRIDGE = "BRIDGE"

# a bridged CNOT over control-middle-target, in emission order
BRIDGE_PATTERN = ((0, 1), (1, 2), (0, 1), (1, 2))


class TentativeGate:
    """A candidate repair: SWAP over an edge, or BRIDGE over a 2-hop path.

    ``cnot_pairs`` are the CNOTs the repair emits, in order.  ``self_term``
    is its own CNOT cost: the distance table ``dist`` over ``cnot_pairs``,
    added left to right from ``0``.
    """

    __slots__ = ("kind", "qubits", "cnot_pairs", "self_term")

    def __init__(self, kind: str, qubits: tuple[int, ...], dist):
        self.kind = kind
        self.qubits = qubits  # physical: (a, b) for SWAP, (control, middle, target) for BRIDGE
        if kind == SWAP:
            a, b = qubits
            self.cnot_pairs = ((a, b), (b, a), (a, b))
        else:
            self.cnot_pairs = tuple((qubits[i], qubits[j]) for i, j in BRIDGE_PATTERN)
        self.self_term = left_sum(dist[p][q] for p, q in self.cnot_pairs)


# One record per emitted gate: (source node, *physical qubits), node -1 for
# an inserted CNOT.  The source gate supplies kind, parameters and clbit.
Record = tuple[int, ...]


@dataclass
class Route:
    """One circuit routed inside its region.

    ``records`` are what the route emitted and ``iterations`` the number of
    routing rounds it took; a round emits what is ready and then at most one
    repair.  Only ``merged_circuit`` turns records into gates, so a placement
    trial builds none.  An ``aborted`` route is a placement trial stopped
    once it could no longer win; its records and counts are incomplete.
    """

    circuit: QuantumCircuit
    records: list[Record]
    iterations: int
    swaps: int
    bridges: int
    final_l2p: list[int]
    aborted: bool = False

    @property
    def additional_cnots(self) -> int:
        return 3 * (self.swaps + self.bridges)


class _Tables:
    """What every placement trial of one circuit in one region reads: the
    circuit, its DAG's successors and in-degrees, each CNOT node's operands
    and the CNOT nodes in program order (what a trial's window cursor walks),
    the region's qubits and adjacency and every repair in it, the distance
    table ``dist`` and the routing settings ``config``.

    ``region`` is the physical qubits the circuit is placed in, in any order.
    ``dist`` is the ``hardware.distance_matrices`` table, read as
    ``dist[p][q]``.  ``initial_mapping`` builds these once per call, and each
    trial's ``_Job`` reads them; they die with the call, so memory does not
    grow with the number of regions routed.
    """

    def __init__(self, model: HardwareModel, circuit: QuantumCircuit, region: tuple[int, ...], dist, config: RunConfig):
        if len(region) != circuit.num_qubits:
            raise ValueError(f"region size {len(region)} != circuit qubits {circuit.num_qubits}")
        self.circuit = circuit
        self.dist = dist
        self.config = config
        self.successors, self.in_degree = build_dag(circuit)
        self.region = region
        region_set = set(self.region)
        edges = induced_edges(model, self.region)
        neighbours = {q: set(model.neighbors(q)) & region_set for q in self.region}
        self.adjacency = {q: tuple(sorted(ns)) for q, ns in neighbours.items()}
        # every repair in the region: SWAPs by edge, and bridges by (control,
        # target), one per middle qubit in order; no bridge under swap_only
        self.swap_gates = {e: TentativeGate(SWAP, e, dist) for e in edges}
        self.bridge_gates = {} if config.swap_only else {
            (c, t): tuple(TentativeGate(BRIDGE, (c, m, t), dist) for m in sorted(neighbours[c] & neighbours[t]))
            for c in self.region
            for t in self.region
            if c != t and neighbours[c] & neighbours[t]
        }
        self.cx_operands = [g.qubits if g.kind == CX else None for g in circuit.gates]  # (control, target)
        self.cx_nodes = [i for i, op in enumerate(self.cx_operands) if op is not None]


class _Job:
    """Mutable routing state for one trial; what all trials share stays on ``tables``.

    A trial holds the mapping, the in-degrees, the front, the window cursor,
    the counters and ``stall``, the SWAP edges since a gate last retired;
    the rest, the blocked front of a round included, is derived.  A node is
    retired or in the front exactly when its ``in_deg`` is 0, and as the DAG
    is acyclic, the front empties only once every node has retired.
    """

    def __init__(self, tables: _Tables, l2p):
        self.tables = tables
        self.l2p = list(l2p)
        if sorted(self.l2p) != sorted(tables.region):
            raise ValueError("initial mapping is not a bijection onto the region")
        self.p2l = {p: l for l, p in enumerate(self.l2p)}
        self.in_deg = list(tables.in_degree)
        self.front = {i for i, d in enumerate(self.in_deg) if d == 0}
        self.cx_cursor = 0  # index into tables.cx_nodes; every CNOT before it has in_deg 0
        self.swaps = 0
        self.bridges = 0
        self.stall: list[tuple[int, int]] = []

    def mark_executed(self, node: int) -> list[int]:
        """Retire ``node``, emitted by ``_emit_ready`` or a bridge, which ends
        the stall; return the successors this moved into the front."""
        self.front.discard(node)
        self.stall.clear()
        ready = []
        for succ in self.tables.successors[node]:
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

    def extended_layer(self) -> list[tuple[int, int]]:
        """Next ``tables.config.ext_layer`` CNOTs beyond the front layer, in program order.

        Those are the CNOTs with ``in_deg`` above 0: retired and front nodes
        have 0, and ``in_deg`` never grows.  The scan starts at a cursor that
        passes each CNOT for good once its ``in_deg`` is 0, so a trial skips
        the retired prefix once in all, not once per call, which would make
        a long circuit route in quadratic time.
        """
        tables, in_deg = self.tables, self.in_deg
        size, nodes, operands = tables.config.ext_layer, tables.cx_nodes, tables.cx_operands
        start, n = self.cx_cursor, len(nodes)
        while start < n and in_deg[nodes[start]] == 0:
            start += 1
        self.cx_cursor = start
        out: list[tuple[int, int]] = []
        if size > 0:
            for i in range(start, n):
                node = nodes[i]
                if in_deg[node] > 0:
                    out.append(operands[node])
                    if len(out) == size:
                        break
        return out


def find_swap_bridge_pairs(job: _Job, front: list[tuple[int, int, int]]) -> list[TentativeGate]:
    """Repair candidates for a job whose front layer ``front`` (what
    ``_emit_ready`` returned) is fully blocked, taken from its ``_Tables``.

    SWAPs: every region-internal edge touching a front-gate operand.
    BRIDGEs: every front CNOT whose operands are exactly two apart inside the
    region, one candidate per valid middle qubit; none under
    ``config.swap_only``.
    """
    l2p, tables = job.l2p, job.tables
    endpoints = set()
    for _, lq1, lq2 in front:
        endpoints.add(l2p[lq1])
        endpoints.add(l2p[lq2])
    candidates: list[TentativeGate] = [
        g for g in tables.swap_gates.values() if g.qubits[0] in endpoints or g.qubits[1] in endpoints
    ]
    for _, lq1, lq2 in front:
        candidates += tables.bridge_gates.get((l2p[lq1], l2p[lq2]), ())
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
    CNOTs, and the front CNOT it executes, the one mapped onto its ends,
    drops out of the front-layer term.  A repair's own CNOT cost, its
    self-term, is read from ``tentative.self_term``.  The lookahead term is
    scaled by ``weight_w`` and averaged over its window.

    Recurrence charge: a bridge leaves its logical pair as far apart as
    before, so every later CNOT on the same unordered pair is blocked again
    and needs another repair, where one SWAP would have paid once.  The
    bridge's self-term is therefore scaled by ``1 + r``, with ``r`` the
    number of CNOTs on that pair in the lookahead window ``extended`` (the
    window only, not the remaining DAG).  With ``r == 0`` the formula is
    unchanged.  The charge is part of the self-cost term, so it vanishes
    with ``self_cost=False``, and SWAP candidates never carry it.

    Every sum adds its terms one by one from the left, as ``left_sum``
    does; ``sum`` over Python floats is compensated from Python 3.12 on and
    would move the last bits, which can flip a choice.
    """
    if tentative.kind == SWAP:
        a, b = tentative.qubits
        mapping = list(l2p)
        mapping[p2l[a]], mapping[p2l[b]] = b, a
        x = y = None
    else:
        mapping = l2p
        x, y = p2l[tentative.qubits[0]], p2l[tentative.qubits[2]]  # the logical pair it executes

    front_term = 0
    for _, lq1, lq2 in front:
        if lq1 != x or lq2 != y:
            front_term += dist[mapping[lq1]][mapping[lq2]]
    if self_cost:
        self_term = tentative.self_term
        if x is not None:
            repeats = 0
            for lq1, lq2 in extended:
                if (lq1 == x and lq2 == y) or (lq1 == y and lq2 == x):
                    repeats += 1
            self_term *= 1 + repeats
        h = (front_term + self_term) / (len(front) + len(tentative.cnot_pairs))
    else:
        h = front_term / len(front)
    if extended:
        ext_term = 0
        for lq1, lq2 in extended:
            ext_term += dist[mapping[lq1]][mapping[lq2]]
        h += weight_w * ext_term / len(extended)
    return h


def _forced_path_route(job: _Job, front: list[tuple[int, int, int]], records: list[Record]) -> None:
    """Stall escape hatch: walk the oldest blocked gate's control along the
    shortest region-internal path until the gate is executable.

    The cost-driven selection can orbit between retreat swaps whose own CNOTs
    look cheaper than any approach; this deterministic fallback guarantees
    progress once a circuit has gone too long without retiring a gate.
    It is the same idea as the "release valve" of LightSABRE (Zou et al.,
    arXiv:2409.08368), which routes one front-layer gate along a shortest
    path once the heuristic stops making progress.
    """
    tables = job.tables
    src, dst = [job.l2p[q] for q in front[0][1:]]
    parent = {src: None}
    queue = [src]
    while queue:
        nxt = []
        for u in queue:
            for v in tables.adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        queue = nxt
    if dst not in parent:
        raise RoutingError(f"region of circuit {tables.circuit.id!r} is not internally connected")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    for step in path[1:-1]:  # move the control up to the target's neighbour
        edge = (min(src, step), max(src, step))
        for p, q in tables.swap_gates[edge].cnot_pairs:
            records.append((-1, p, q))
        job.apply_swap(*edge)  # apply_swap also counts the swap
        src = step


def _emit_ready(job: _Job, records: list[Record]) -> list[tuple[int, int, int]]:
    """Emit every front gate that is executable as mapped, cascading; return
    the blocked front, ``(node, logical control, logical target)`` for every
    CNOT skipped, sorted by node; it is empty exactly when the route is done.

    Each pass visits its nodes in index order.  The mapping does not change
    in here, so a CNOT blocked in one pass stays blocked, and every pass
    after the first visits only the nodes the pass before made ready.
    """
    tables, l2p, visit = job.tables, job.l2p, sorted(job.front)
    gates, cx_operands, adjacency = tables.circuit.gates, tables.cx_operands, tables.adjacency
    blocked: list[tuple[int, int, int]] = []
    while visit:
        ready: list[int] = []
        for node in visit:
            pair = cx_operands[node]
            if pair is None:  # 1q gates, measurements and barriers never block
                records.append((node, *[l2p[q] for q in gates[node].qubits]))
            else:
                a, b = l2p[pair[0]], l2p[pair[1]]
                if b not in adjacency[a]:
                    blocked.append((node, *pair))
                    continue
                records.append((node, a, b))
            ready += job.mark_executed(node)
        visit = sorted(ready)
    return sorted(blocked)


def _repair(job: _Job, front: list[tuple[int, int, int]], records: list[Record]) -> None:
    """Insert the cheapest SWAP or BRIDGE for the blocked front layer ``front``."""
    candidates = find_swap_bridge_pairs(job, front)
    # a swap edge used since a gate last retired would likely just
    # oscillate (a cheap retreat edge can outscore every approach),
    # so prune those while alternatives exist; a retirement lifts the ban
    if job.stall:
        pruned = [c for c in candidates if not (c.kind == SWAP and c.qubits in job.stall)]
        if pruned:
            candidates = pruned
    extended = job.extended_layer()
    dist, config, l2p, p2l = job.tables.dist, job.tables.config, job.l2p, job.p2l
    weight_w, self_cost = config.weight_w, config.self_cost
    best = best_h = None
    for cand in candidates:  # the cheapest; an exact tie goes to a bridge, then to the lower qubits
        h = cost_h(cand, front, extended, dist, l2p, p2l, weight_w, self_cost)
        if best is None or h < best_h or (
            h == best_h and (cand.kind != BRIDGE, cand.qubits) < (best.kind != BRIDGE, best.qubits)
        ):
            best, best_h = cand, h
    for p, q in best.cnot_pairs:
        records.append((-1, p, q))
    if best.kind == SWAP:
        job.apply_swap(*best.qubits)
        job.stall.append(best.qubits)
    else:
        c, _, t = best.qubits
        job.bridges += 1
        job.mark_executed(next(node for node, lq1, lq2 in front if l2p[lq1] == c and l2p[lq2] == t))


def mapping_transition(tables: _Tables, l2p: list[int], max_inserted: int | None = None) -> Route:
    """Route the circuit of ``tables`` inside its region from the
    placement ``l2p``.

    Each round emits whatever is executable, then inserts at most one repair
    gate if the circuit is still blocked.  A circuit that keeps inserting
    swaps without retiring a gate falls back to deterministic
    shortest-path routing after ``limit = 2 * region size + 4`` insertions.
    So every ``limit + 2`` rounds retire at least one gate: at most
    ``limit`` swaps, the forced path, and the round that emits the gate it
    unblocked.  A cap of ``limit + 2`` rounds per gate is therefore the
    guard against a non-terminating selection loop, which would be a bug
    rather than an input problem.  A circuit that has inserted more than
    ``max_inserted`` CNOTs stops early and the route comes back ``aborted``.
    """
    job = _Job(tables, l2p)
    limit = 2 * len(tables.region) + 4
    cap = (limit + 2) * max(len(tables.circuit.gates), 1)
    records: list[Record] = []
    rounds = 0
    aborted = False
    while job.front:
        if max_inserted is not None and 3 * (job.swaps + job.bridges) > max_inserted:
            aborted = True
            break
        if rounds >= cap:
            raise RoutingError(f"routing did not terminate within {cap} iterations")
        front = _emit_ready(job, records)
        if front:
            if len(job.stall) >= limit:
                _forced_path_route(job, front, records)
            else:
                _repair(job, front, records)
        rounds += 1
    return Route(tables.circuit, records, rounds, job.swaps, job.bridges, job.l2p, aborted)


def initial_mapping(
    model: HardwareModel,
    dist,
    region: tuple[int, ...],
    circuit: QuantumCircuit,
    rng: np.random.Generator,
    config: RunConfig = DEFAULT_CONFIG,
) -> tuple[list[int], Route]:
    """Pick the best of ``config.attempts`` random placements of ``circuit``
    onto the qubits ``region``, in any order; return it and its route.
    ``dist`` and ``config`` go to the trials' ``_Tables``.

    Each candidate bijection is evaluated by routing the circuit and
    counting inserted CNOTs; ties fall back to the summed routing distance
    of the circuit's CNOTs under the candidate placement, then to attempt
    order, so a fixed generator state fixes the result.

    Inserted CNOTs only grow during a route and the tie value is known
    before it starts, so a trial stops as soon as it can no longer beat the
    best so far (branch and bound).  Every attempt still draws its
    permutation, so the choice is that of routing every trial to the end.
    """
    base = sorted(region)
    tables = _Tables(model, circuit, region, dist, config)
    best_key = None
    best: tuple[list[int], Route] | None = None
    for attempt in range(config.attempts):
        l2p = [int(p) for p in rng.permutation(base)]
        # added left to right, as the built-in sum did on 3.10 and 3.11
        # when this value was first defined, so that ties break alike on
        # every Python version
        tie = left_sum(tables.dist[l2p[a]][l2p[b]] for a, b in (tables.cx_operands[n] for n in tables.cx_nodes))
        bound = None
        if best_key is not None:  # a later attempt wins a tie on inserted CNOTs only by a lower tie value
            bound = best_key[0] if tie < best_key[1] else best_key[0] - 1
        trial = mapping_transition(tables, l2p, max_inserted=bound)
        key = (trial.additional_cnots, tie, attempt)
        if not trial.aborted and (best_key is None or key < best_key):
            best_key = key
            best = (l2p, trial)
    assert best is not None
    return best


# --- merged output -----------------------------------------------------------


def merged_circuit(routes: list[Route], model: HardwareModel):
    """Flatten a plan's routes into one circuit over the whole device.

    The routes follow one another in plan order.  Their regions are
    disjoint, so no gate of one route depends on a gate of another, and the
    order across routes changes no depth, success estimate or outcome.
    Classical bits are concatenated per circuit in plan order; the manifest
    records, for every circuit, its final logical-to-physical map and the
    global classical bits its measurements landed in.
    """
    offsets = list(accumulate((route.circuit.num_clbits for route in routes), initial=0))  # the last is the total
    gates: list[Gate] = []
    for route, offset in zip(routes, offsets):
        source = route.circuit.gates
        for record in route.records:
            node, qubits = record[0], record[1:]
            if node < 0:  # a CNOT of a repair
                gates.append(Gate(CX, qubits))
            else:
                g = source[node]
                gates.append(Gate(g.kind, qubits, g.params, None if g.clbit is None else offset + g.clbit))
    merged = QuantumCircuit("merged", model.num_qubits, offsets[-1], tuple(gates))
    manifest = {
        route.circuit.id: {
            "logical_to_physical": {str(l): p for l, p in enumerate(route.final_l2p)},
            "clbits": list(range(offset, offset + route.circuit.num_clbits)),
        }
        for route, offset in zip(routes, offsets)
    }
    return merged, manifest


def check_compliance(
    merged: QuantumCircuit, manifest: dict, regions: dict[str, tuple[int, ...]], model: HardwareModel
) -> None:
    """Raise ``RoutingError`` unless the merged program obeys the device and
    the plan: every CX on a coupling edge, every gate inside one circuit's
    region, every measurement into that circuit's bits, and each manifest
    map a bijection onto its circuit's region.  ``regions`` maps each
    circuit id to its qubits, in plan order.  One pass over the gates."""
    owner: dict[int, str] = {}
    bits: dict[str, set[int]] = {}
    for cid, qubits in regions.items():
        region = set(qubits)
        placed = list(manifest[cid]["logical_to_physical"].values())
        if len(placed) != len(region) or set(placed) != region:
            raise RoutingError(f"manifest map of {cid!r} is not a bijection onto its region")
        owner.update((q, cid) for q in region)
        bits[cid] = set(manifest[cid]["clbits"])
    for i, g in enumerate(merged.gates):
        if g.kind == CX and not model.has_edge(*g.qubits):
            raise RoutingError(f"gate {i}: cx {g.qubits} is not on a coupling edge")
        cids = {owner.get(q) for q in g.qubits}
        if len(cids) != 1 or None in cids:
            raise RoutingError(f"gate {i}: {g.kind} {g.qubits} leaves every circuit's region")
        if g.kind == MEASURE and g.clbit not in bits[owner[g.qubits[0]]]:
            raise RoutingError(f"gate {i}: measurement writes bit {g.clbit}, which its circuit does not own")


def emit_merged_qasm(routes: list[Route], model: HardwareModel) -> str:
    """Render a plan's routes as OpenQASM with one creg per circuit."""
    merged, _ = merged_circuit(routes, model)
    return emit_qasm(merged, {f"c{i}": route.circuit.num_clbits for i, route in enumerate(routes)})
