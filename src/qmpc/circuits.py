"""Circuit representation: OpenQASM 2.0 subset parser, dependency DAG, statistics.

The IR is deliberately small: a circuit is an ordered tuple of gates over a
single quantum register.  Two-qubit support is limited to ``cx``; anything the
router inserts (SWAP, bridged CNOT) is expressed as plain ``cx`` gates, so the
emitted text stays inside the same subset it parses.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import MultiRegisterError, QasmError, UnsupportedGateError

ONE_QUBIT_GATES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3"}
)

PARAM_COUNTS = {name: 0 for name in ONE_QUBIT_GATES}
PARAM_COUNTS.update({"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3, "cx": 0})

CX = "cx"
MEASURE = "measure"
BARRIER = "barrier"


@dataclass(frozen=True)
class Gate:
    """One operation: a supported 1q gate, ``cx``, ``measure`` or ``barrier``.

    ``clbit`` is set only for measurements.  Barriers may span any number of
    qubits; every other kind touches one or two.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    def __post_init__(self):
        if self.kind == CX and (len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]):
            raise ValueError(f"cx needs two distinct qubits, got {self.qubits}")


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
        pred: list[set[int]] = [set() for _ in range(n)]
        last_on: dict[int, int] = {}
        for i, g in enumerate(circuit.gates):
            # classical bit b is wire ~b: negative, so apart from every qubit
            wires = g.qubits if g.clbit is None else (*g.qubits, ~g.clbit)
            for w in wires:
                if w in last_on:
                    succ[last_on[w]].add(i)
                    pred[i].add(last_on[w])
                last_on[w] = i
        self.successors = [tuple(sorted(s)) for s in succ]
        self.predecessors = [tuple(sorted(p)) for p in pred]

    @property
    def num_nodes(self) -> int:
        return len(self.circuit.gates)

    def gate(self, node: int) -> Gate:
        return self.circuit.gates[node]

    def front_layer(self) -> list[int]:
        """Nodes with no predecessors."""
        return [i for i in range(self.num_nodes) if not self.predecessors[i]]

    def in_degrees(self) -> list[int]:
        return [len(p) for p in self.predecessors]


def build_dag(circuit: QuantumCircuit) -> DagCircuit:
    return DagCircuit(circuit)


# --- parsing ---------------------------------------------------------------

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


def _parse_program(source: str, allow_multiple_cregs: bool):
    """Shared parser core.

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
