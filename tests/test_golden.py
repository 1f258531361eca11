"""Golden outputs: every byte ``qmpc compile`` writes for four small seeded runs.

A refactor or speed-up of the compiler must leave these digests unchanged.
A digest that moves means the emitted programs, manifests, statistics or
plans changed; if that change is intended, say why where the new digest is
recorded.
"""
import hashlib
import json
import sys
from itertools import accumulate

import numpy as np
import pytest

from qmpc import cli
from qmpc.circuits import BARRIER, CX, MEASURE, Gate, QuantumCircuit, emit_qasm, parse_merged_qasm, parse_qasm
from qmpc.cli import main
from qmpc.config import RunConfig
from qmpc.hardware import build_crosstalk, build_hardware, extract_strong_crosstalk
from qmpc.manager import plan_all
from qmpc.pipeline import compile_workloads
from qmpc.presets import synthetic_calibration, topology
from qmpc.verify import total_variation

from helpers import random_circuit

# Recorded when the merged program became each circuit's route in turn, in
# plan order, instead of the routes interleaved round by round: every
# circuit's own gates, the manifests and plans.json stayed byte for byte, and
# the stats files of shared plans moved only in "esp", by under 1e-15
# relative, as the same factors are multiplied in another order.
GOLDEN = {
    "gsp-manhattan-crosstalk": "38874dee3164c9af2714990bb9fb90a8d23728e112263a4698a2b778bd75a398",
    "gsp-toronto-crosstalk": "6054f2046f94f4317fe9cebd97a97dfbba1f64a5ca6abeb17e5aaeabccac3aed",
    "qhsp-guadalupe": "8a74baf338ae7f9d70f5ce269c2e11e4d0af288fcb1416593507cbf8aca86656",
    "qhsp-toronto-midmeasure": "b97a2ead1abd26d530c6c8fd63dada2722fdc1e18c8ba21893d1244fdcdc0d3b",
}


def _crosstalk_pairs(topo: dict, cal: dict, seed: int) -> list[dict]:
    """A conditional error for every ordered pair of disjoint edges one hop
    apart: the solo error times a factor drawn from [1, 6)."""
    rng = np.random.default_rng(seed)
    solo = {tuple(sorted((int(a), int(b)))): err for a, b, err in cal["cnot_errors"]}
    edges = sorted(solo)
    adj: dict[int, set[int]] = {q: set() for q in range(topo["num_qubits"])}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    pairs = []
    for gate in edges:
        for cond in edges:
            if set(gate) & set(cond) or not any(b in adj[a] for a in gate for b in cond):
                continue
            err = min(solo[gate] * float(rng.uniform(1.0, 6.0)), 0.5)
            pairs.append({"gate": list(gate), "conditioned_on": list(cond), "error": err})
    return pairs


def _mixed_circuit(rng: np.random.Generator, cid: str, n_qubits: int, max_gates: int) -> QuantumCircuit:
    """Seeded workload with parametrised 1q gates, barriers and mid-circuit
    measurements of qubits that are used again, all qubits measured at the end.

    Mid-circuit outcomes land in their own bits after the final ones."""
    n = n_qubits
    gates: list[Gate] = []
    mid = 0
    param_counts = {"rx": 1, "ry": 1, "u1": 1, "u2": 2, "u3": 3, "h": 0, "t": 0}
    kinds = sorted(param_counts)
    for _ in range(int(rng.integers(max_gates - 8, max_gates + 1))):
        r = rng.random()
        if n > 1 and r < 0.45:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(CX, (int(a), int(b))))
        elif r < 0.55:
            span = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            gates.append(Gate(BARRIER, tuple(int(q) for q in span)))
        elif r < 0.62:
            gates.append(Gate(MEASURE, (int(rng.integers(n)),), clbit=n + mid))
            mid += 1
        else:
            kind = kinds[int(rng.integers(len(kinds)))]
            params = tuple(float(rng.uniform(-np.pi, np.pi)) for _ in range(param_counts[kind]))
            gates.append(Gate(kind, (int(rng.integers(n)),), params))
    gates += [Gate(MEASURE, (q,), clbit=q) for q in range(n)]
    return QuantumCircuit(cid, n, n + mid, tuple(gates))


CASES = {
    # (device, calibration seed, method, delta, crosstalk, circuit generator,
    # circuit seed, circuit sizes); each delta is low enough that the fidelity
    # gate trims and re-queues; the manhattan case covers the largest
    # exhaustive search (8 qubits) and regions without edges (1 qubit); the
    # toronto qhsp case covers barriers, parametrised gates and mid-circuit
    # measurements through routing and emission
    "gsp-manhattan-crosstalk": ("manhattan", 4, "gsp", "0.01", True, random_circuit, 13, (8, 8, 1, 6, 5, 1, 4)),
    "gsp-toronto-crosstalk": ("toronto", 3, "gsp", "0.04", True, random_circuit, 11, (5, 4, 5, 4)),
    "qhsp-guadalupe": ("guadalupe", 2, "qhsp", "0.04", False, random_circuit, 12, (6, 5, 4)),
    "qhsp-toronto-midmeasure": ("toronto", 6, "qhsp", "0.05", False, _mixed_circuit, 21, (6, 4, 5, 3, 5)),
}


def _write_inputs(tmp_path, name: str) -> list[str]:
    device, cal_seed, method, delta, crosstalk, generate, circuit_seed, sizes = CASES[name]
    topo = topology(device)
    cal = synthetic_calibration(topo, seed=cal_seed)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(cal))
    args = [
        "compile",
        "--topology", str(tmp_path / "topology.json"),
        "--calibration", str(tmp_path / "calibration.json"),
        "--method", method,
        "--delta", delta,
        "--seed", "5",
        "--out-dir", str(tmp_path / "out"),
    ]
    if crosstalk:
        (tmp_path / "crosstalk.json").write_text(json.dumps({"pairs": _crosstalk_pairs(topo, cal, cal_seed)}))
        args += ["--crosstalk", str(tmp_path / "crosstalk.json")]
    rng = np.random.default_rng(circuit_seed)
    for i, n in enumerate(sizes):
        path = tmp_path / f"w{i}.qasm"
        path.write_text(emit_qasm(generate(rng, f"w{i}", n_qubits=n, max_gates=30)))
        args.append(str(path))
    return args


def _digest(out_dir) -> str:
    sha = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compile_output_is_byte_identical_to_golden(tmp_path, name):
    assert main(_write_inputs(tmp_path, name)) == 0
    plans = json.loads((tmp_path / "out" / "plans.json").read_text())
    assert any(len(p["selected"]) >= 2 for p in plans)  # some regions are allocated jointly
    assert _digest(tmp_path / "out") == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emitted_programs_parse_back_to_their_merged_circuits(tmp_path, monkeypatch, name):
    """The emitter writes only what the parser reads: every golden program
    parses back to its merged circuit, with one register per source circuit."""
    results = []

    def recording(*args):
        results.append(compile_workloads(*args))
        return results[-1]

    monkeypatch.setattr(cli, "compile_workloads", recording)
    assert main(_write_inputs(tmp_path, name)) == 0
    for compiled in results[0].plans:
        circuit, layout = parse_merged_qasm(compiled.qasm)
        assert circuit.num_qubits == compiled.merged.num_qubits
        assert circuit.gates == compiled.merged.gates
        sizes = [c.num_clbits for c in compiled.circuits]
        assert layout == {f"c{i}": (offset, size) for i, (offset, size) in enumerate(zip(accumulate([0, *sizes]), sizes))}


class FloatSum(Exception):
    """A float reached the built-in ``sum``."""


def _sum_refusing_floats(items, start=0):
    total = start
    for item in items:
        if isinstance(item, float):
            raise FloatSum(item)
        total += item
    return total


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_no_float_sum_is_left_to_the_interpreter(tmp_path, monkeypatch, capsys, name):
    """From Python 3.12 on the built-in ``sum`` adds floats with compensation,
    so a float sum on the output path must go through ``left_sum``.  With a
    ``sum`` that refuses floats in every ``qmpc`` module, the golden outputs
    must still come out byte for byte."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "qmpc" or module_name.startswith("qmpc."):
            monkeypatch.setattr(module, "sum", _sum_refusing_floats, raising=False)
    assert main(_write_inputs(tmp_path, name)) == 0, capsys.readouterr().err
    assert _digest(tmp_path / "out") == GOLDEN[name]
    assert total_variation({"0": 0.25, "1": 0.75}, {"0": 1.0}) == 0.75


def test_golden_crosstalk_table_changes_the_plan():
    """The crosstalk case pins something only if its table moves a region."""
    device, cal_seed, method, delta, _, _, circuit_seed, sizes = CASES["gsp-toronto-crosstalk"]
    topo = topology(device)
    cal = synthetic_calibration(topo, seed=cal_seed)
    model = build_hardware(topo, cal)
    strong = extract_strong_crosstalk(build_crosstalk(_crosstalk_pairs(topo, cal, cal_seed), model), model)
    rng = np.random.default_rng(circuit_seed)
    circuits = [
        parse_qasm(emit_qasm(random_circuit(rng, f"w{i}", n_qubits=n, max_gates=30)), f"w{i}")
        for i, n in enumerate(sizes)
    ]
    config = RunConfig(method=method, delta=float(delta))
    with_xtalk = plan_all(model, circuits, config, strong_pairs=strong)
    without = plan_all(model, circuits, config, strong_pairs=None)
    assert [p.to_json_dict() for p in with_xtalk] != [p.to_json_dict() for p in without]
