"""The output checks accept the compiler's output and reject tampered copies."""
import dataclasses
import re

import pytest

import checks
from qmpc import presets
from qmpc.circuits import parse_qasm
from qmpc.hardware import build_hardware
from qmpc.pipeline import CompileResult, RunConfig, compile_workloads
from workloads import Op, Source, to_qasm


def source(cid, n, ops):
    ops = tuple(ops)
    num_clbits = 1 + max(o.clbit for o in ops if o.kind == "measure")
    return Source(cid, n, num_clbits, ops, to_qasm(n, num_clbits, ops))


SOURCES = [
    source("a", 3, [Op("x", (0,)), Op("h", (1,)), Op("cx", (1, 2)), Op("cx", (0, 2)), Op("cx", (2, 0))]
           + [Op("measure", (q,), clbit=q) for q in range(3)]),
    source("b", 3, [Op("h", (0,)), Op("cx", (0, 2)), Op("x", (1,)), Op("cx", (1, 2))]
           + [Op("measure", (q,), clbit=q) for q in range(3)]),
]


@pytest.fixture(scope="module")
def compiled():
    topo = presets.topology("guadalupe")
    calibration = presets.synthetic_calibration(topo, seed=0)
    model = build_hardware(topo, calibration)
    circuits = [parse_qasm(s.qasm, s.id) for s in SOURCES]
    # a threshold of 1 keeps both circuits in one merged program
    result = compile_workloads(model, circuits, RunConfig(seed=1, delta=1.0))
    assert len(result.plans) == 1
    edges = {(min(a, b), max(a, b)) for a, b in topo["edges"]}
    cnot_error = {(min(a, b), max(a, b)): e for a, b, e in calibration["cnot_errors"]}
    return result, (edges, cnot_error, list(calibration["readout_errors"]))


def run_checks(result, inputs, qasm=None):
    if qasm is not None:
        result = CompileResult([dataclasses.replace(result.plans[0], qasm=qasm)])
    return checks.check_batch(SOURCES, result, *inputs)


def lines(result):
    return result.plans[0].qasm.splitlines()


def regions(result):
    return [sorted(p.qubits) for p in result.plans[0].plan.partitions]


def test_untouched_output_passes(compiled):
    result, inputs = compiled
    found = run_checks(result, inputs)
    assert set(found["circuits"]) == {"a", "b"}


def test_cx_off_a_coupling_edge_is_rejected(compiled):
    result, inputs = compiled
    edges = inputs[0]
    text = lines(result)
    i = next(i for i, l in enumerate(text) if l.startswith("cx "))
    a, b = map(int, re.findall(r"\d+", text[i]))
    region = next(r for r in regions(result) if a in r)
    far = next(q for q in region if q != a and (min(a, q), max(a, q)) not in edges)
    text[i] = f"cx q[{a}],q[{far}];"
    with pytest.raises(checks.CheckFailed, match="coupling edge"):
        run_checks(result, inputs, "\n".join(text) + "\n")


def test_gate_moved_into_another_region_is_rejected(compiled):
    result, inputs = compiled
    text = lines(result)
    first, second = regions(result)
    i = next(i for i, l in enumerate(text) if l.startswith("x ") and int(re.findall(r"\d+", l)[0]) in first)
    text[i] = f"x q[{second[0]}];"
    with pytest.raises(checks.CheckFailed):
        run_checks(result, inputs, "\n".join(text) + "\n")


def test_measurement_to_the_wrong_bit_is_rejected(compiled):
    result, inputs = compiled
    text = lines(result)
    i = next(i for i, l in enumerate(text) if re.match(r"measure q\[\d+\] -> c0\[0\];", l))
    text[i] = text[i].replace("c0[0]", "c0[1]")
    with pytest.raises(checks.CheckFailed, match="total variation"):
        run_checks(result, inputs, "\n".join(text) + "\n")


def test_measurement_to_another_circuits_register_is_rejected(compiled):
    result, inputs = compiled
    text = "\n".join(lines(result)).replace("-> c0[0];", "-> c1[0];", 1)
    with pytest.raises(checks.CheckFailed, match="another circuit"):
        run_checks(result, inputs, text + "\n")


def test_depth_counts_layers():
    ops = [("h", (0,), (), None), ("cx", (0, 1), (), None), ("x", (2,), (), None), ("cx", (1, 2), (), None)]
    assert checks.depth(ops) == 3


def test_unreadable_line_is_rejected(compiled):
    result, inputs = compiled
    with pytest.raises(checks.CheckFailed, match="unreadable"):
        run_checks(result, inputs, result.plans[0].qasm + "measure q[0] c0[0];\n")
