"""Golden outputs: every byte ``qmpc compile`` writes for three small seeded runs.

A refactor or speed-up of the compiler must leave these digests unchanged.
A digest that moves means the emitted programs, manifests, statistics or
plans changed; if that change is intended, say why where the new digest is
recorded.
"""
import hashlib
import json

import numpy as np
import pytest

from qmpc.circuits import emit_qasm, parse_qasm
from qmpc.cli import main
from qmpc.config import RunConfig
from qmpc.hardware import build_crosstalk, build_hardware, extract_strong_crosstalk
from qmpc.manager import plan_all
from qmpc.presets import synthetic_calibration, topology

from helpers import random_circuit

GOLDEN = {
    "gsp-manhattan-crosstalk": "15ecb72083da536911510698dc1849d2fb47c4a70febd049c2e99ab1386a5097",
    "gsp-toronto-crosstalk": "deed4790bcb73a227cf2ab5d09f4f5bb71470a034e636e14d95e4546d4b33575",
    "qhsp-guadalupe": "023905dcdcec24e7ea3eb0b741111a2cef57f1a559463fa94f43fd3c0cbecbc1",
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


CASES = {
    # (device, calibration seed, method, delta, crosstalk, circuit seed, circuit sizes);
    # each delta is low enough that the fidelity gate trims and re-queues;
    # the manhattan case covers the largest exhaustive search (8 qubits) and
    # regions without edges (1 qubit)
    "gsp-manhattan-crosstalk": ("manhattan", 4, "gsp", "0.01", True, 13, (8, 8, 1, 6, 5, 1, 4)),
    "gsp-toronto-crosstalk": ("toronto", 3, "gsp", "0.04", True, 11, (5, 4, 5, 4)),
    "qhsp-guadalupe": ("guadalupe", 2, "qhsp", "0.04", False, 12, (6, 5, 4)),
}


def _write_inputs(tmp_path, name: str) -> list[str]:
    device, cal_seed, method, delta, crosstalk, circuit_seed, sizes = CASES[name]
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
        path.write_text(emit_qasm(random_circuit(rng, f"w{i}", n_qubits=n, max_gates=30)))
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


def test_golden_crosstalk_table_changes_the_plan():
    """The crosstalk case pins something only if its table moves a region."""
    device, cal_seed, method, delta, _, circuit_seed, sizes = CASES["gsp-toronto-crosstalk"]
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
