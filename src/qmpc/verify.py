"""Desk-scale correctness checks: exact simulation and equivalence.

The simulator is a dense statevector over the qubits a circuit actually
touches, so a merged circuit on a large device stays cheap as long as its
active region is small.  Measurements whose qubit is acted on again later
split the state into outcome branches; every branch lives in one
``(branches, 2, ..., 2)`` array with a weight vector, so each gate is one
numpy call however many branches there are.  Terminal measurements are read
off the final state jointly, which keeps the common all-measures-at-the-end
case to a single branch.

Before simulating, one pass lowers the router's traffic (``_lower``): a SWAP
triple only exchanges two qubits' state axes and a bridge runs as one CX, so
a routed program costs what its source costs.  Whether a measurement
branches, which axes the final reads take and where every gate lands are all
decided on axes, so a measured state that SWAPs merely carry around is still
read off the final state: a routed program branches no more than its sources.

The equivalence check never simulates a merged program whole.  It splits the
program into connected components over qubit and classical-bit wires and
simulates each component that measures anything on its own; a circuit's
distribution is the product of its components' marginals.  The active-qubit
cap and the branch and amplitude caps therefore apply per component.

Bit-order conventions (also documented in the README): in a distribution key,
string position i holds classical bit i (or qubit i when the circuit never
measures).
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .circuits import BARRIER, CX, MEASURE, SIMULATION_QUBIT_CAP, Gate, QuantumCircuit
from .errors import SimulationError, VerificationError
from .floats import left_sum

_BRANCH_CAP = 4096
_AMPLITUDE_CAP = _BRANCH_CAP << SIMULATION_QUBIT_CAP  # over all branches: 2**24 amplitudes, 256 MiB
EQUIVALENCE_TOLERANCE = 1e-9  # check_equivalence passes below this total variation distance

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def gate_matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """2x2 matrix of a supported one-qubit gate."""
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    if kind == "rx":
        (t,) = params
        return np.array(
            [[math.cos(t / 2), -1j * math.sin(t / 2)], [-1j * math.sin(t / 2), math.cos(t / 2)]], dtype=complex
        )
    if kind == "ry":
        (t,) = params
        return np.array(
            [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]], dtype=complex
        )
    if kind == "rz":
        (t,) = params
        return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]], dtype=complex)
    if kind == "u1":
        (lam,) = params
        return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)
    if kind == "u2":
        phi, lam = params
        return _u3(math.pi / 2, phi, lam)
    if kind == "u3":
        return _u3(*params)
    raise SimulationError(f"no matrix for gate kind {kind!r}")


def _apply(state: np.ndarray, axes: tuple[int, ...], matrix: np.ndarray | None) -> np.ndarray:
    """Apply a one-qubit gate or a CX to every branch at once.

    Axis 0 of ``state`` runs over branches and every other axis has length
    2; ``state`` is C-contiguous (every producer here allocates it fresh),
    so each reshape is a view and the CX writes reach it.  A CX (``matrix`` is None, axes control then target) reverses the
    target axis of the control-1 half in place, through an ``(L, 2, M, 2,
    R)`` reshape; a one-qubit gate is one ``matmul`` of its 2x2 matrix with
    an ``(L, 2, R)`` reshape.
    """
    if matrix is None:
        c, t = axes
        lo, hi = min(c, t), max(c, t)
        view = state.reshape(state.shape[0] << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1)
        if c < t:
            view[:, 1] = view[:, 1, :, ::-1]
        else:
            view[:, :, :, 1] = view[:, ::-1, :, 1]
        return state
    return np.matmul(matrix, state.reshape(state.shape[0] << (axes[0] - 1), 2, -1)).reshape(state.shape)


def _lower(gates: list[Gate], axis_of: dict[int, int]) -> list[tuple]:
    """The gates as operations on state axes, with the router's traffic
    folded away.

    ``cx a,b; cx b,a; cx a,b`` is a SWAP: it only exchanges the entries of
    a and b in ``axis_of``.  ``cx c,m; cx m,t; cx c,m; cx m,t`` is one
    ``cx c,t`` that leaves m untouched.  Both rewrites are exact for any
    input, because a CNOT only permutes amplitudes.  ``axis_of`` ends as the
    final axis map; ``gates`` holds no barriers.  An operation is ``(axes, matrix, clbit)``: a CX has
    axes ``(control, target)`` and no matrix, a one-qubit gate its 2x2
    matrix, and a measurement its bit.
    """
    cx_pairs = [g.qubits if g.kind == CX else () for g in gates] + [()] * 3  # padded past the end
    ops: list[tuple] = []
    i, n = 0, len(gates)
    while i < n:
        g = gates[i]
        if g.kind == MEASURE:
            ops.append(((axis_of[g.qubits[0]],), None, g.clbit))
        elif g.kind != CX:
            ops.append(((axis_of[g.qubits[0]],), gate_matrix(g.kind, g.params), None))
        else:
            a, b = g.qubits
            mid = cx_pairs[i + 1]
            if mid[:1] == (b,) and cx_pairs[i + 2] == g.qubits:
                if mid[1] == a:  # cx a,b; cx b,a; cx a,b
                    axis_of[a], axis_of[b] = axis_of[b], axis_of[a]
                    i += 3
                    continue
                if cx_pairs[i + 3] == mid:  # cx a,b; cx b,t; cx a,b; cx b,t
                    ops.append(((axis_of[a], axis_of[mid[1]]), None, None))
                    i += 4
                    continue
            ops.append(((axis_of[a], axis_of[b]), None, None))
        i += 1
    return ops


def _measure(state: np.ndarray, weights: np.ndarray, axis: int):
    """Split every branch on the outcome of the qubit at ``axis``.

    Outcomes of probability at most 1e-30 are dropped.  Returns the
    renormalised states and weights of the surviving branches, with the
    parent branch and the outcome of each, parent-major.
    """
    shape = state.shape
    view = state.reshape(shape[0], math.prod(shape[1:axis]), 2, -1)
    probs = (np.abs(view) ** 2).sum(axis=(1, 3))
    keep = probs > 1e-30
    branches = np.count_nonzero(keep)
    if branches > _BRANCH_CAP:
        raise SimulationError("too many mid-circuit measurement branches")
    if branches << (state.ndim - 1) > _AMPLITUDE_CAP:
        raise SimulationError(f"{branches} branches of {state.ndim - 1} qubits exceed {_AMPLITUDE_CAP} amplitudes")
    parent, outcome = np.nonzero(keep)
    post = view[parent]
    post[np.arange(len(parent)), :, 1 - outcome] = 0.0
    post /= np.sqrt(probs[parent, outcome])[:, None, None, None]
    return post.reshape((len(parent),) + shape[1:]), weights[parent] * probs[parent, outcome], parent, outcome


def _tally(rows: np.ndarray, probs: np.ndarray) -> dict[str, float]:
    """Sum ``probs`` over equal rows of the 0/1 matrix ``rows``; each key is
    its row written out as a bit string."""
    width = rows.shape[1]
    text = (rows + ord("0")).astype(np.uint8).tobytes().decode()
    out: dict[str, float] = {}
    for i, p in enumerate(probs.tolist()):
        key = text[i * width : (i + 1) * width]
        out[key] = out.get(key, 0.0) + p
    return out


def simulate(circuit: QuantumCircuit, cap: int = SIMULATION_QUBIT_CAP) -> dict[str, float]:
    """Exact noiseless outcome distribution.

    Keys run over classical bits when the circuit measures, otherwise over
    qubits.  The cap applies to the number of *active* qubits, those a gate
    other than a barrier touches, so merged circuits on big devices are
    fine while their occupied region is small.
    """
    gates = [g for g in circuit.gates if g.kind != BARRIER]
    active = sorted({q for g in gates for q in g.qubits})
    if len(active) > cap:
        raise SimulationError(f"{len(active)} active qubits exceed the simulation cap of {cap}")
    axis_of = {q: i + 1 for i, q in enumerate(active)}  # axis 0 holds the branches
    ops = _lower(gates, axis_of)

    # One reverse scan.  A measurement can be read off the final state unless
    # an operation acts on its axis afterwards, in which case every branch
    # splits on its outcome; only the last measurement into a bit sets its
    # value.  Router traffic acts on no axis it merely relabels or bridges.
    must_branch: set[int] = set()
    acted_on_later: set[int] = set()
    last_write: dict[int, int] = {}
    for i in range(len(ops) - 1, -1, -1):
        axes, _, clbit = ops[i]
        if clbit is None:
            acted_on_later.update(axes)
        else:
            if axes[0] in acted_on_later:
                must_branch.add(i)
            last_write.setdefault(clbit, i)
    if last_write:
        width = circuit.num_clbits
        read = {b: ops[i][0][0] for b, i in last_write.items() if i not in must_branch}
    else:  # keys over qubits: every active qubit is read where it ends
        width = circuit.num_qubits
        read = {q: axis_of[q] for q in active}

    state = np.zeros((1,) + (2,) * len(active), dtype=complex)
    state.flat[0] = 1.0
    weights = np.ones(1)
    bits = np.zeros((1, width), dtype=np.uint8)  # per branch: bits set by branching
    for i, (axes, matrix, clbit) in enumerate(ops):
        if clbit is None:
            state = _apply(state, axes, matrix)
        elif i in must_branch:
            state, weights, parent, outcome = _measure(state, weights, axes[0])
            bits = bits[parent]
            if last_write[clbit] == i:
                bits[:, clbit] = outcome

    read_axes = sorted(set(read.values()))
    probs = np.abs(state) ** 2
    drop = tuple(a for a in range(1, state.ndim) if a not in read_axes)
    joint = (probs.sum(axis=drop) if drop else probs).reshape(len(weights), -1)
    branch, outcome = np.nonzero(joint > 0.0)
    rows = bits[branch]
    for b, axis in read.items():  # outcome index is C order over read_axes
        rows[:, b] = (outcome >> (len(read_axes) - 1 - read_axes.index(axis))) & 1
    return _tally(rows, weights[branch] * joint[branch, outcome])


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = sorted(set(p) | set(q))  # a set's order changes with the string hash seed
    return 0.5 * left_sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def marginalize(dist: dict[str, float], positions: list[int]) -> dict[str, float]:
    """Project a distribution over bit strings onto the given positions."""
    pick = itemgetter(*positions) if positions else itemgetter(slice(0))
    out: dict[str, float] = {}
    for key, p in dist.items():
        sub = "".join(pick(key))
        out[sub] = out.get(sub, 0.0) + p
    return out


def _components(circuit: QuantumCircuit) -> list[tuple[list[Gate], list[int]]]:
    """Gates and written classical bits of each connected component that
    measures anything, in order of first gate.

    Wires are qubits and classical bits (bit b is wire ~b, as in
    ``DagCircuit``); a gate joins every wire it touches, and barriers join
    nothing.  Components share no wire, so their outcomes are independent.
    Only CXs and measurements join two wires, so each distinct pair of them
    is joined once and each wire is then labelled once.
    """
    ops = [g for g in circuit.gates if g.kind != BARRIER]
    measures = [g for g in ops if g.kind == MEASURE]
    root: dict[int, int] = {}

    def find(w: int) -> int:
        while root.setdefault(w, w) != w:
            root[w] = root[root[w]]
            w = root[w]
        return w

    for a, b in {g.qubits for g in ops if g.kind == CX} | {(g.qubits[0], ~g.clbit) for g in measures}:
        root[find(b)] = find(a)
    label = {w: find(w) for w in root}  # a wire no pair joins is its own label
    parts: defaultdict[int, list[Gate]] = defaultdict(list)
    for g in ops:
        q = g.qubits[0]
        parts[label.get(q, q)].append(g)
    written: defaultdict[int, set[int]] = defaultdict(set)
    for g in measures:
        written[label[g.qubits[0]]].add(g.clbit)
    return [(gates, sorted(written[k])) for k, gates in parts.items() if k in written]


def marginals(circuit: QuantumCircuit, bit_lists: list[list[int]], cap: int = SIMULATION_QUBIT_CAP):
    """Outcome distribution of each list of classical bits of ``circuit``.

    Each independent component that measures anything is simulated once on
    its own, so ``cap`` and the branch caps apply per component, and each
    list's distribution is the product of its components' marginals; bits
    that nothing writes read 0.  Key position i holds the list's i-th bit.
    """
    factors = []  # (bit -> position in the component's keys, its distribution)
    for gates, written in _components(circuit):
        local = {b: i for i, b in enumerate(written)}
        renumbered = [Gate(MEASURE, g.qubits, clbit=local[g.clbit]) if g.kind == MEASURE else g for g in gates]
        part = QuantumCircuit(circuit.id, circuit.num_qubits, len(written), tuple(renumbered))
        factors.append((local, simulate(part, cap=cap)))
    out = []
    for bits in bit_lists:
        width = len(bits)
        dist = {"0" * width: 1.0}
        for local, part_dist in factors:
            picks = [(k, local[b]) for k, b in enumerate(bits) if b in local]
            if not picks:
                continue
            # key + sub -> the grown key: position k of a pick reads sub's j-th character
            slots = list(range(width))
            for j, (k, _) in enumerate(picks):
                slots[k] = width + j
            fill = itemgetter(*slots)
            grown: dict[str, float] = {}
            for sub, q in marginalize(part_dist, [i for _, i in picks]).items():
                for key, p in dist.items():
                    joined = "".join(fill(key + sub))
                    grown[joined] = grown.get(joined, 0.0) + p * q
            dist = grown
        out.append(dist)
    return out


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    max_tv: float
    per_circuit: dict[str, float]


def check_equivalence(
    sources: list[QuantumCircuit],
    merged: QuantumCircuit,
    manifest: dict,
    cap: int = SIMULATION_QUBIT_CAP,
) -> EquivalenceReport:
    """Compare each source circuit's ideal distribution against the matching
    marginal of the merged circuit's distribution.

    Both sides are simulated one independent component at a time (see
    ``marginals``).  Nothing is taken on trust from the manifest beyond
    which bits to read: a gate that crosses two regions merges their
    components, and the check stays exact.  A source with no measurement
    has nothing to compare and raises ``VerificationError``.
    """
    if not isinstance(manifest, dict):
        raise VerificationError(f"manifest must be a JSON object keyed by circuit id, got {type(manifest).__name__}")
    owner: dict[int, str] = {}  # each merged bit carries one source bit
    for src in sources:
        entry = manifest.get(src.id)
        if entry is None:
            raise VerificationError(f"manifest has no entry for circuit {src.id!r}")
        clbits = entry.get("clbits", []) if isinstance(entry, dict) else None
        if not isinstance(clbits, list) or not all(isinstance(b, int) and not isinstance(b, bool) for b in clbits):
            raise VerificationError(f"manifest entry for {src.id!r} needs a list of integer \"clbits\"")
        if len(clbits) != src.num_clbits:
            raise VerificationError(
                f"manifest lists {len(clbits)} clbits for {src.id!r}, circuit has {src.num_clbits}"
            )
        if not any(g.kind == MEASURE for g in src.gates):
            raise VerificationError(f"circuit {src.id!r} has no measurements to compare")
        if any(not 0 <= b < merged.num_clbits for b in clbits):
            raise VerificationError(f"manifest clbits for {src.id!r} fall outside the merged register")
        for b in clbits:
            if b in owner:
                shared = "twice" if owner[b] == src.id else f"for {owner[b]!r} too"
                raise VerificationError(f"manifest lists clbit {b} of {src.id!r} {shared}")
            owner[b] = src.id
    got = marginals(merged, [list(manifest[src.id]["clbits"]) for src in sources], cap=cap)
    per_circuit: dict[str, float] = {}
    for src, dist in zip(sources, got):
        (want,) = marginals(src, [list(range(src.num_clbits))], cap=cap)
        per_circuit[src.id] = total_variation(dist, want)
    max_tv = max(per_circuit.values(), default=0.0)
    return EquivalenceReport(max_tv < EQUIVALENCE_TOLERANCE, max_tv, per_circuit)
