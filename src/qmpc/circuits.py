"""Circuit representation: OpenQASM 2.0 subset parser, dependency DAG, statistics.

The IR is deliberately small: a circuit is an ordered tuple of gates over a
single quantum register.  Two-qubit support is limited to ``cx``; anything the
router inserts (SWAP, bridged CNOT) is expressed as plain ``cx`` gates, so the
emitted text stays inside the same subset it parses.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BRIEF, MultiRegisterError, QasmError, UnsupportedGateError, brief

ONE_QUBIT_GATES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3"}
)

PARAM_COUNTS = {name: 0 for name in ONE_QUBIT_GATES}
PARAM_COUNTS.update({"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3, "cx": 0})

CX = "cx"
MEASURE = "measure"
BARRIER = "barrier"

# The most qubits a device or a quantum register may have, and the most bits
# a classical register may have (IBM Condor has 1,121 qubits).  A device's
# distance table grows as the square of its size, and a register's size sets
# how many gates a broadcast builds and how many bits a manifest lists.
MAX_REGISTER_SIZE = 2048

# The simulator's active qubits per component: `qmpc verify --cap`'s default,
# and its most, 2**20 amplitudes (16 MB) per branch.  Here, so that the parser
# can be built without loading the simulator.
SIMULATION_QUBIT_CAP = 12
SIMULATION_QUBIT_CAP_MAX = 20


class _GateFields:
    __slots__ = ("kind", "qubits", "params", "clbit")


class Gate(_GateFields):
    """One operation: a supported 1q gate, ``cx``, ``measure`` or ``barrier``.

    ``clbit`` is set only for measurements.  Barriers may span any number of
    qubits; every other kind touches one or two.  A gate is an immutable
    value: equal and hashed by its fields, and no field can be assigned.
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], params: tuple[float, ...] = (), clbit: int | None = None):
        if kind == CX and (len(qubits) != 2 or qubits[0] == qubits[1]):
            raise ValueError(f"cx needs two distinct qubits, got {qubits}")
        # fill the slots of a plain instance, then make it a Gate, whose
        # __setattr__ refuses: cheaper than four object.__setattr__ calls
        gate = object.__new__(_GateFields)
        gate.kind, gate.qubits, gate.params, gate.clbit = kind, qubits, params, clbit
        gate.__class__ = cls
        return gate

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return self.kind, self.qubits, self.params, self.clbit

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return Gate, self._fields()

    def __repr__(self):
        return f"Gate(kind={self.kind!r}, qubits={self.qubits!r}, params={self.params!r}, clbit={self.clbit!r})"


@dataclass(frozen=True)
class QuantumCircuit:
    id: str
    num_qubits: int
    num_clbits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate {g.kind} references qubit {q} outside register of size {self.num_qubits}")

    @cached_property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == CX)

    @cached_property
    def density(self) -> Fraction:
        """CNOTs per qubit, kept exact so that sorting and the identity
        density * num_qubits == cnot_count never suffer float rounding."""
        if self.num_qubits < 1:
            raise ValueError("circuit must have at least one qubit")
        return Fraction(self.cnot_count, self.num_qubits)

    @cached_property
    def largest_logical_degree(self) -> int:
        """The most distinct CX partners of any one qubit."""
        if self.num_qubits < 1:
            raise ValueError("circuit must have at least one qubit")
        partners = [set() for _ in range(self.num_qubits)]
        for g in self.gates:
            if g.kind == CX:
                partners[g.qubits[0]].add(g.qubits[1])
                partners[g.qubits[1]].add(g.qubits[0])
        return max(len(s) for s in partners)


def depth(gates) -> int:
    """Number of layers when every gate starts once its qubits are free.

    Barriers align the qubits they span without adding a layer.
    """
    level: dict[int, int] = {}
    deepest = 0
    for g in gates:
        top = max((level.get(q, 0) for q in g.qubits), default=0)
        if g.kind == BARRIER:
            for q in g.qubits:
                level[q] = top
            continue
        for q in g.qubits:
            level[q] = top + 1
        deepest = max(deepest, top + 1)
    return deepest


class DagCircuit:
    """Dependency DAG over gate indices.

    An edge a -> b exists iff the two gates share a wire and no gate between
    them touches that wire.  The wires are the qubits and the classical bits:
    two measurements writing the same bit stay in program order, so the last
    write wins as in the source.  Barriers participate like any other node,
    which makes them scheduling fences for every qubit they span.
    """

    def __init__(self, circuit: QuantumCircuit):
        self.circuit = circuit
        n = len(circuit.gates)
        succ: list[set[int]] = [set() for _ in range(n)]
        in_degree = [0] * n
        last_on: dict[int, int] = {}
        for i, g in enumerate(circuit.gates):
            # classical bit b is wire ~b: negative, so apart from every qubit
            wires = g.qubits if g.clbit is None else (*g.qubits, ~g.clbit)
            for w in wires:
                if w in last_on and i not in succ[last_on[w]]:
                    succ[last_on[w]].add(i)
                    in_degree[i] += 1
                last_on[w] = i
        self.successors = [tuple(sorted(s)) for s in succ]
        self._in_degree = tuple(in_degree)  # distinct predecessors of each node

    @property
    def num_nodes(self) -> int:
        return len(self.circuit.gates)

    def front_layer(self) -> list[int]:
        """Nodes with no predecessors."""
        return [i for i, d in enumerate(self._in_degree) if d == 0]

    def in_degrees(self) -> list[int]:
        return list(self._in_degree)


def build_dag(circuit: QuantumCircuit) -> DagCircuit:
    return DagCircuit(circuit)


# --- parsing ---------------------------------------------------------------

# Signs and parentheses a gate parameter may nest; the expression parser
# recurses once per level, and this keeps it far from the interpreter's limit.
MAX_PARAM_NESTING = 100

# One token after any whitespace and "//" comments: "->" before "-", and a
# number takes its dot and exponent when it has them.  The empty alternative
# matches at a character that starts no token, so findall lists "" there.
# Sources are scanned with "\n;" appended: the line break ends a last
# comment, and the ";" is always the last token, in the place of the end.
_TOKEN_RE = re.compile(
    r"\s*(?://[^\n]*\s*)*(->|[;,()\[\]+\-*]|[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\"[^\"\n]*\"|/(?!/)|(?=\S))"
)


def _position(source: str, k: int) -> tuple[int, int, int]:
    """Offset, line and column of token ``k``: scanned again, for errors only."""
    offset = next(itertools.islice(_TOKEN_RE.finditer(source + "\n;"), k, None)).start(1)
    return offset, source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _parse_program(source: str, allow_multiple_cregs: bool):
    """Shared parser core.

    Returns (num_qubits, cregs, gates).  ``cregs`` is an ordered dict
    creg name -> size; clbit indices in gates are global across cregs in
    declaration order.  A character that starts no token is reported before
    any syntax error.  A token's kind is read from its text: an id starts
    with a letter or ``_`` (``isidentifier``), a number with a digit or
    ``.``, a string with ``"``, and an int is all digits.
    """
    toks = _TOKEN_RE.findall(source + "\n;")
    end = len(toks) - 1
    toks[end] = ""  # equal to no expected token, so no check reads past it
    if (stray := toks.index("")) < end:
        offset, line, col = _position(source, stray)
        raise QasmError(f"unexpected character {source[offset]!r}", line, col)

    def fail(k: int, message: str, cls=QasmError):
        """Raise ``message`` at token ``k``; at the end of the input, say so."""
        if k == end:
            cls, message, k = QasmError, "unexpected end of input", k - 1
        raise cls(message, *(_position(source, k)[1:] if k >= 0 else (1, 1)))

    def expected(k: int, what: str):
        fail(k, f"expected {what}, got {BRIEF.repr(toks[k])}")

    # parameter expressions: + - * / with parentheses, numbers and pi,
    # evaluated left to right; each returns its value and the next index, and
    # ``depth`` counts the signs and parentheses around the current operand
    def expr(i: int, depth: int = 0) -> tuple[float, int]:
        value, i = term(i, depth)
        while (op := toks[i]) == "+" or op == "-":
            rhs, i = term(i + 1, depth)
            value = value + rhs if op == "+" else value - rhs
        return value, i

    def term(i: int, depth: int) -> tuple[float, int]:
        value, i = operand(i, depth)
        while (op := toks[i]) == "*" or op == "/":
            rhs, j = operand(i + 1, depth)
            if op == "/" and rhs == 0:
                fail(i, "division by zero in parameter")
            value, i = (value * rhs if op == "*" else value / rhs), j
        return value, i

    def operand(i: int, depth: int) -> tuple[float, int]:
        if depth > MAX_PARAM_NESTING:
            fail(i, "parameter nested too deeply")
        tok = toks[i]
        if tok == "-":
            value, i = operand(i + 1, depth + 1)
            return -value, i
        if tok == "+":
            return operand(i + 1, depth + 1)
        if tok == "(":
            value, i = expr(i + 1, depth + 1)
            if toks[i] != ")":
                expected(i, "')'")
            return value, i + 1
        if tok[:1].isdecimal() or tok[:1] == ".":
            return float(tok), i + 1
        if tok == "pi":
            return math.pi, i + 1
        fail(i, f"bad parameter expression near {BRIEF.repr(tok)}")

    qreg: tuple[str, int] | None = None
    cregs: dict[str, int] = {}
    creg_offsets: dict[str, int] = {}
    gates: list[Gate] = []

    def bounded(k: int, what: str) -> int:
        """The decimal literal at token ``k``, at most ``MAX_REGISTER_SIZE``."""
        value = float(toks[k])  # int() refuses more than 4,300 digits
        if value > MAX_REGISTER_SIZE:
            fail(k, f"{what} {brief(toks[k])} exceeds the limit of {MAX_REGISTER_SIZE}")
        return int(value)

    def ref(i: int, quantum: bool) -> tuple[int | None, int]:
        """``name`` or ``name[index]`` at token ``i``: the index (None for
        the whole register) and the index of the token after it."""
        reg, j, idx = toks[i], i + 1, None
        if not reg[:1].isidentifier():
            expected(i, "register name")
        if toks[j] == "[":
            if not toks[j + 1].isdecimal():
                expected(j + 1, "index")
            idx = bounded(j + 1, "index")
            if toks[j + 2] != "]":
                expected(j + 2, "']'")
            j += 3
        if quantum:
            if qreg is None or reg != qreg[0]:
                fail(i, f"unknown quantum register {BRIEF.repr(reg)}")
            size = qreg[1]
        else:
            if reg not in cregs:
                fail(i, f"unknown classical register {BRIEF.repr(reg)}")
            size = cregs[reg]
        if idx is not None and not 0 <= idx < size:
            fail(i, f"index {idx} out of range for {brief(reg)}[{size}]")
        return idx, j

    i = 0
    while i < end:
        tok = toks[i]
        if (want := PARAM_COUNTS.get(tok)) is not None:  # a supported gate
            at, i = i, i + 1
            params: list[float] = []
            if toks[i] == "(":
                while not params or toks[i] == ",":  # i is at the "(" or a ","
                    value, j = expr(i + 1)
                    if not math.isfinite(value):
                        fail(i + 1, f"parameter of {tok!r} is not finite")
                    params.append(value)
                    i = j
                if toks[i] != ")":
                    expected(i, "')'")
                i += 1
            if len(params) != want:
                fail(at, f"gate {tok!r} takes {want} parameter(s), got {len(params)}")
            idx, i = ref(i, True)
            refs = [idx]
            while toks[i] == ",":
                idx, i = ref(i + 1, True)
                refs.append(idx)
            if toks[i] != ";":
                expected(i, "';'")
            i += 1
            if tok == CX:
                if len(refs) != 2 or refs[0] is None or refs[1] is None:
                    fail(at, "cx needs two indexed qubit arguments")
                if refs[0] == refs[1]:
                    fail(at, "cx control and target must differ")
                gates.append(Gate(CX, (refs[0], refs[1])))
            elif len(refs) != 1:
                fail(at, f"gate {tok!r} takes one qubit argument")
            elif idx is None:  # broadcast over the register
                gates += [Gate(tok, (q,), tuple(params)) for q in range(qreg[1])]
            else:
                gates.append(Gate(tok, (idx,), tuple(params)))
        elif tok == "measure":
            qidx, i = ref(i + 1, True)
            if toks[i] != "->":
                expected(i, "'->'")
            c = i + 1
            cidx, i = ref(c, False)
            if toks[i] != ";":
                expected(i, "';'")
            i += 1
            offset = creg_offsets[toks[c]]
            if qidx is None and cidx is None:
                if qreg[1] != cregs[toks[c]]:
                    fail(c, f"register sizes differ in measure {brief(qreg[0])} -> {brief(toks[c])}")
                gates += [Gate(MEASURE, (q,), clbit=offset + q) for q in range(qreg[1])]
            elif qidx is not None and cidx is not None:
                gates.append(Gate(MEASURE, (qidx,), clbit=offset + cidx))
            else:
                fail(c, "measure must index both registers or neither")
        elif tok == "barrier":
            touched: list[int] = []
            while not touched or toks[i] == ",":  # i is at "barrier" or a ","
                idx, i = ref(i + 1, True)
                if idx is None:
                    touched.extend(q for q in range(qreg[1]) if q not in touched)
                elif idx not in touched:
                    touched.append(idx)
            if toks[i] != ";":
                expected(i, "';'")
            i += 1
            gates.append(Gate(BARRIER, tuple(touched)))
        elif tok == "qreg" or tok == "creg":
            name = toks[i + 1]
            if not name[:1].isidentifier():
                expected(i + 1, "register name")
            if toks[i + 2] != "[":
                expected(i + 2, "'['")
            if not toks[i + 3].isdecimal():
                expected(i + 3, "register size")
            if toks[i + 4] != "]":
                expected(i + 4, "']'")
            if toks[i + 5] != ";":
                expected(i + 5, "';'")
            size = bounded(i + 3, "register size")
            if tok == "qreg":
                if qreg is not None:
                    fail(i, "multiple quantum registers are not supported", MultiRegisterError)
                if size < 1:
                    fail(i, "quantum register must have at least one qubit")
                qreg = (name, size)
            else:
                if cregs and not allow_multiple_cregs:
                    fail(i, "multiple classical registers are not supported", MultiRegisterError)
                if name in cregs:
                    fail(i, f"classical register {BRIEF.repr(name)} redeclared")
                creg_offsets[name] = sum(cregs.values())
                cregs[name] = size
            i += 6
        elif tok == "OPENQASM" or tok == "include":
            if tok == "OPENQASM" and toks[i + 1] != "2.0":
                fail(i + 1, f"unsupported OpenQASM version {brief(toks[i + 1])}")
            if tok == "include" and toks[i + 1][:1] != '"':
                expected(i + 1, "include path")
            if toks[i + 2] != ";":
                expected(i + 2, "';'")
            i += 3
        elif tok in ("gate", "opaque", "if", "reset"):
            fail(i, f"unsupported statement {tok!r}")
        elif tok[:1].isidentifier():
            fail(i, f"unsupported gate {BRIEF.repr(tok)}", UnsupportedGateError)
        else:
            fail(i, f"unexpected token {BRIEF.repr(tok)}")

    if qreg is None:
        raise QasmError("no quantum register declared", 1, 1)
    return qreg[1], cregs, gates


def parse_qasm(source: str, circuit_id: str = "circuit") -> QuantumCircuit:
    """Parse the supported OpenQASM 2.0 subset into a circuit.

    Supported statements: optional ``OPENQASM 2.0;`` header and ``include``,
    one ``qreg``, at most one ``creg``, the 1q gate set, ``cx``, ``measure``
    and ``barrier``.  Errors carry line/column positions; unsupported gates
    are reported by name rather than silently decomposed.
    """
    num_qubits, cregs, gates = _parse_program(source, allow_multiple_cregs=False)
    return QuantumCircuit(circuit_id, num_qubits, sum(cregs.values()), tuple(gates))


def parse_merged_qasm(source: str, circuit_id: str = "merged"):
    """Parse compiler output, which carries one creg per merged circuit.

    Returns (circuit, creg_layout) where creg_layout maps creg name to
    (offset, size) in declaration order.  Workload inputs should go through
    :func:`parse_qasm`, which enforces the single-register rule.
    """
    num_qubits, cregs, gates = _parse_program(source, allow_multiple_cregs=True)
    layout = {}
    offset = 0
    for name, size in cregs.items():
        layout[name] = (offset, size)
        offset += size
    circuit = QuantumCircuit(circuit_id, num_qubits, offset, tuple(gates))
    return circuit, layout


# --- emission ---------------------------------------------------------------


def emit_qasm(circuit: QuantumCircuit, cregs: dict[str, int] | None = None) -> str:
    """Render a circuit in the subset the parser reads.

    ``cregs`` maps each classical register's name to its size, in
    declaration order; the circuit's clbits run through them in that order,
    and a register of size 0 is not declared.  The default is one register
    ``c`` over every clbit.
    """
    if cregs is None:
        cregs = {"c": circuit.num_clbits}
    bits = [f"{name}[{i}]" for name, size in cregs.items() for i in range(size)]
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    lines += [f"creg {name}[{size}];" for name, size in cregs.items() if size]
    for g in circuit.gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind == MEASURE:
            lines.append(f"measure {args} -> {bits[g.clbit]};")
        elif g.params:
            lines.append(f"{g.kind}({','.join(repr(p) for p in g.params)}) {args};")
        else:
            lines.append(f"{g.kind} {args};")
    return "\n".join(lines) + "\n"
