"""Correctness checks on one batch's compiled output.

Everything here is worked out from the compiler's inputs and its emitted
OpenQASM text, not from the compiler's own accounting: the emitted program
is read by a parser of this file's own, each circuit's region of it is
simulated by ``sim``, and CNOT counts and success probabilities are
recomputed from the calibration.  The compiler's reported numbers are only
compared against these.
"""
from __future__ import annotations

import math
import re
from collections import Counter

import sim

_LINE = re.compile(r"(\w+)(?:\(([^)]*)\))?\s+(.*);")
_QUBIT = re.compile(r"q\[(\d+)\]")
_MEASURE = re.compile(r"q\[(\d+)\]\s*->\s*(\w+)\[(\d+)\]")
_CREG = re.compile(r"(\w+)\[(\d+)\]")
_HEADER = ("OPENQASM", "include", "qreg")


class CheckFailed(Exception):
    """The compiler's output broke a property the method must have."""


def read_program(text: str):
    """Emitted program as (cregs, ops): cregs is [(name, size)] in declaration
    order, ops are ``(kind, physical qubits, params, (creg, bit) or None)``."""
    cregs: list[tuple[str, int]] = []
    ops = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(_HEADER):
            continue

        def parts(pattern, part):
            m = pattern.fullmatch(part)
            if m is None:
                raise CheckFailed(f"unreadable line {line!r}")
            return m.groups()

        kind, params, args = parts(_LINE, line)
        if kind == "creg":
            name, size = parts(_CREG, args)
            cregs.append((name, int(size)))
        elif kind == "measure":
            q, creg, bit = parts(_MEASURE, args)
            ops.append(("measure", (int(q),), (), (creg, int(bit))))
        else:
            qubits = tuple(int(parts(_QUBIT, a.strip())[0]) for a in args.split(","))
            values = tuple(float(p) for p in params.split(",")) if params else ()
            ops.append((kind, qubits, values, None))
    return cregs, ops


def _connected(qubits: set[int], edges: set[tuple[int, int]]) -> bool:
    start = min(qubits)
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for v in qubits - seen:
            if (min(u, v), max(u, v)) in edges:
                seen.add(v)
                stack.append(v)
    return seen == qubits


def depth(ops) -> int:
    """ASAP layer count; a barrier lines its qubits up without adding a layer."""
    level: dict[int, int] = {}
    deepest = 0
    for kind, qubits, _, _ in ops:
        top = max(level.get(q, 0) for q in qubits)
        step = 0 if kind == "barrier" else 1
        for q in qubits:
            level[q] = top + step
        deepest = max(deepest, top + step)
    return deepest


def check_batch(sources, result, edges, cnot_error, readout_error) -> dict:
    """Check every plan of one batch; return per-circuit quality numbers.

    ``edges`` is the set of coupling edges (low, high) of the input topology,
    ``cnot_error`` maps such an edge to its error and ``readout_error`` is
    indexed by qubit, both as given in the input calibration.
    """
    by_id = {s.id: s for s in sources}
    placed = Counter(cid for compiled in result.plans for cid in compiled.plan.selected)
    if placed != Counter(s.id for s in sources):
        raise CheckFailed(f"circuits placed {dict(placed)} differ from those submitted {sorted(by_id)}")

    per_circuit = {}
    depths = []
    for compiled in result.plans:
        plan = compiled.plan
        cregs, ops = read_program(compiled.qasm)
        if [p.circuit_id for p in plan.partitions] != list(plan.selected) or len(cregs) != len(plan.selected):
            raise CheckFailed("partitions or classical registers do not line up with the selected circuits")
        regions = [frozenset(p.qubits) for p in plan.partitions]
        owner = {}
        for k, (cid, region, (_, size)) in enumerate(zip(plan.selected, regions, cregs)):
            src = by_id[cid]
            if len(region) != src.num_qubits or size != src.num_clbits:
                raise CheckFailed(f"{cid}: region or register size does not match the circuit")
            if not _connected(set(region), edges):
                raise CheckFailed(f"{cid}: region {sorted(region)} is not connected")
            for q in region:
                if q in owner:
                    raise CheckFailed(f"qubit {q} lies in the regions of {plan.selected[owner[q]]} and {cid}")
                owner[q] = k
        creg_index = {name: k for k, (name, _) in enumerate(cregs)}

        region_ops: list[list] = [[] for _ in plan.selected]
        for kind, qubits, params, target in ops:
            if kind == "cx" and (min(qubits), max(qubits)) not in edges:
                raise CheckFailed(f"cx {qubits} is not on a coupling edge")
            ks = {owner.get(q) for q in qubits}
            if len(ks) != 1 or None in ks:
                raise CheckFailed(f"{kind} {qubits} leaves a single circuit's region")
            k = ks.pop()
            if target is not None and creg_index.get(target[0]) != k:
                raise CheckFailed(f"measure on q[{qubits[0]}] writes {target[0]}, a register of another circuit")
            region_ops[k].append((kind, qubits, params, target))
        depths.append(depth(ops))

        esp_plan = 1.0
        for cid, region, mine in zip(plan.selected, regions, region_ops):
            src = by_id[cid]
            local = {q: i for i, q in enumerate(sorted(region))}
            ops_local = [
                (kind, tuple(local[q] for q in qubits), params, target[1] if target else None)
                for kind, qubits, params, target in mine
            ]
            want = sim.distribution(src.num_qubits, src.num_clbits, [(o.kind, o.qubits, o.params, o.clbit) for o in src.ops])
            got = sim.distribution(src.num_qubits, src.num_clbits, ops_local)
            tv = sim.total_variation(want, got)
            if not tv < 1e-9:
                raise CheckFailed(f"{cid}: region output differs from the source, total variation {tv:.3g}")
            cnots = [(min(q), max(q)) for kind, q, _, _ in mine if kind == "cx"]
            added = len(cnots) - src.cnot_count
            reported = compiled.stats["circuits"][cid]["additional_cnots"]
            if added != reported:
                raise CheckFailed(f"{cid}: {added} CNOTs inserted, {reported} reported")
            log_esp = sum(math.log1p(-cnot_error[e]) for e in cnots) + sum(
                math.log1p(-readout_error[q[0]]) for kind, q, _, _ in mine if kind == "measure"
            )
            esp_plan *= math.exp(log_esp)
            per_circuit[cid] = {"added_cnots": added, "log_esp": log_esp}
        reported_esp = compiled.stats["esp"]
        if not math.isclose(esp_plan, reported_esp, rel_tol=1e-12, abs_tol=0.0):
            raise CheckFailed(f"plan esp {reported_esp!r} differs from the recomputed {esp_plan!r}")
    return {"circuits": per_circuit, "depths": depths, "plans": len(result.plans)}
