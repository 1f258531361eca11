import dataclasses
import functools
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmpc
from qmpc.circuits import MAX_REGISTER_SIZE
from qmpc.cli import main
from qmpc.config import _ALPHA_SUM_MAX
from qmpc.errors import ConfigError
from qmpc.hardware import build_hardware
from qmpc.manager import plan_all
from qmpc.pipeline import CompileResult, RunConfig, compile_workloads
from qmpc.presets import line_topology, star_topology, synthetic_calibration, topology, uniform_calibration

from helpers import REMEASURED_QASM, random_circuit

BELL = "qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;\n"
GHZ3 = "qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; measure q -> c;\n"


@pytest.fixture
def device_files(tmp_path):
    topo = line_topology(5)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(synthetic_calibration(topo, seed=4)))
    (tmp_path / "bell.qasm").write_text(BELL)
    (tmp_path / "ghz3.qasm").write_text(GHZ3)
    return tmp_path


def _compile_args(tmp, out="out", extra=()):
    return [
        "compile",
        "--topology", str(tmp / "topology.json"),
        "--calibration", str(tmp / "calibration.json"),
        "--seed", "7",
        "--out-dir", str(tmp / out),
        *extra,
        str(tmp / "ghz3.qasm"),
        str(tmp / "bell.qasm"),
    ]


def test_compile_two_toys_exit_zero(device_files, capsys):
    assert main(_compile_args(device_files)) == 0
    out_dir = device_files / "out"
    assert (out_dir / "plans.json").exists()
    stats = json.loads((out_dir / "stats_0.json").read_text())
    assert "total_additional_cnots" in stats
    assert (out_dir / "merged_0.qasm").exists()
    assert (out_dir / "manifest_0.json").exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_dir_blocked_by_a_file_fails_before_compiling(device_files, capsys, monkeypatch, out):
    (device_files / "taken").write_text("")

    def compile_workloads(*args):
        raise AssertionError("compiled before checking the output directory")

    monkeypatch.setattr("qmpc.cli.compile_workloads", compile_workloads)
    assert main(_compile_args(device_files, out=out)) == 1
    err = capsys.readouterr().err
    assert "cannot create output directory" in err
    assert str(device_files / out) in err


def test_unwritable_out_dir_is_user_error(device_files, capsys, monkeypatch):
    monkeypatch.setattr("qmpc.cli.os.access", lambda path, mode: False)
    assert main(_compile_args(device_files)) == 1
    assert f"{device_files / 'out'}: output directory is not writable" in capsys.readouterr().err


def test_compile_rejects_oversized_circuit(tmp_path, capsys):
    topo = line_topology(2)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(uniform_calibration(topo)))
    (tmp_path / "ghz3.qasm").write_text(GHZ3)
    code = main([
        "compile", "--topology", str(tmp_path / "topology.json"),
        "--calibration", str(tmp_path / "calibration.json"),
        "--seed", "1", "--out-dir", str(tmp_path / "out"), str(tmp_path / "ghz3.qasm"),
    ])
    assert code == 1
    assert "qubits" in capsys.readouterr().err


def test_gsp_cap_advises_qhsp(tmp_path, capsys):
    topo = line_topology(12)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(uniform_calibration(topo)))
    wide = "qreg q[9]; creg c[9]; " + " ".join(f"cx q[{i}],q[{i+1}];" for i in range(8)) + " measure q -> c;\n"
    (tmp_path / "wide.qasm").write_text(wide)
    code = main([
        "compile", "--topology", str(tmp_path / "topology.json"),
        "--calibration", str(tmp_path / "calibration.json"),
        "--method", "gsp", "--seed", "1",
        "--out-dir", str(tmp_path / "out"), str(tmp_path / "wide.qasm"),
    ])
    assert code == 1
    assert "qhsp" in capsys.readouterr().err


def test_compile_deterministic_bytes(device_files):
    assert main(_compile_args(device_files, out="a")) == 0
    assert main(_compile_args(device_files, out="b")) == 0
    for name in ("merged_0.qasm", "manifest_0.json", "stats_0.json", "plans.json"):
        assert (device_files / "a" / name).read_bytes() == (device_files / "b" / name).read_bytes()


def test_seed_defaults_to_run_config_whatever_the_environment(device_files, monkeypatch):
    zero = _compile_args(device_files, out="zero")
    zero[zero.index("--seed") + 1] = "0"
    assert main(zero) == 0
    # QMPC_SEED used to override the flag, and CI to refuse a run without one
    monkeypatch.setenv("QMPC_SEED", "7")
    monkeypatch.setenv("CI", "true")
    unseeded = _compile_args(device_files, out="unseeded")
    at = unseeded.index("--seed")
    del unseeded[at:at + 2]
    assert main(unseeded) == 0
    for name in ("merged_0.qasm", "manifest_0.json", "stats_0.json", "plans.json"):
        assert (device_files / "unseeded" / name).read_bytes() == (device_files / "zero" / name).read_bytes()


def test_verify_round_trip(device_files, capsys):
    assert main(_compile_args(device_files)) == 0
    out = device_files / "out"
    code = main([
        "verify", "--merged", str(out / "merged_0.qasm"), "--manifest", str(out / "manifest_0.json"),
        str(device_files / "ghz3.qasm"), str(device_files / "bell.qasm"),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured


def test_repeated_stems_take_free_ids(tmp_path, capsys):
    # the second b.qasm would be b#2, which a file already holds: it takes b#3
    topo = topology("guadalupe")
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(synthetic_calibration(topo, seed=1)))
    (tmp_path / "d").mkdir()
    (tmp_path / "b.qasm").write_text(BELL)
    (tmp_path / "b#2.qasm").write_text(GHZ3)
    (tmp_path / "d" / "b.qasm").write_text(BELL.replace("h q[0];", "x q[1];"))
    sources = [str(tmp_path / name) for name in ("b.qasm", "b#2.qasm", "d/b.qasm")]
    device = ["--topology", str(tmp_path / "topology.json"), "--calibration", str(tmp_path / "calibration.json")]
    out = tmp_path / "out"
    assert main(["compile", *device, "--seed", "1", "--out-dir", str(out), *sources]) == 0
    plans = json.loads((out / "plans.json").read_text())
    assert [sorted(plan["selected"]) for plan in plans] == [["b", "b#2", "b#3"]]
    capsys.readouterr()
    merged, manifest = str(out / "merged_0.qasm"), str(out / "manifest_0.json")
    assert main(["verify", "--merged", merged, "--manifest", manifest, *sources]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def _verify_args(device_files, *extra):
    out = device_files / "out"
    return [
        "verify", "--merged", str(out / "merged_0.qasm"), "--manifest", str(out / "manifest_0.json"), *extra,
        str(device_files / "ghz3.qasm"), str(device_files / "bell.qasm"),
    ]


@pytest.mark.parametrize("cap", [-1, 0, 21])
def test_verify_cap_outside_its_range_is_user_error(device_files, capsys, cap):
    assert main(_compile_args(device_files)) == 0
    capsys.readouterr()
    assert main(_verify_args(device_files, "--cap", str(cap))) == 1
    assert capsys.readouterr().err == f"error: --cap must be in 1..20, got {cap}\n"


@pytest.mark.parametrize("cap, code, said", [(1, 1, "exceed the simulation cap of 1"), (20, 0, "PASS")])
def test_verify_cap_bounds_are_accepted(device_files, capsys, cap, code, said):
    # 1 is a valid cap that the 3-qubit source exceeds; 20 verifies
    assert main(_compile_args(device_files)) == 0
    capsys.readouterr()
    assert main(_verify_args(device_files, "--cap", str(cap))) == code
    captured = capsys.readouterr()
    assert said in captured.out + captured.err
    assert "--cap must be" not in captured.err


def test_verify_branches_past_the_amplitude_cap_are_a_user_error(device_files, capsys, monkeypatch):
    # --cap 20 admits 4096 branches of 2**20 amplitudes each; the bound on
    # their total (made small here) must end the check with exit 1, not with
    # a MemoryError (exit 2)
    remeasured = device_files / "remeasured.qasm"
    remeasured.write_text(REMEASURED_QASM)
    device = ["--topology", str(device_files / "topology.json"), "--calibration", str(device_files / "calibration.json")]
    out = device_files / "out"
    assert main(["compile", *device, "--out-dir", str(out), str(remeasured)]) == 0
    merged, manifest = str(out / "merged_0.qasm"), str(out / "manifest_0.json")
    verify_args = ["verify", "--merged", merged, "--manifest", manifest, "--cap", "20", str(remeasured)]
    assert main(verify_args) == 0
    capsys.readouterr()
    monkeypatch.setattr("qmpc.verify._AMPLITUDE_CAP", 63)
    assert main(verify_args) == 1
    assert capsys.readouterr().err == "error: 8 branches of 3 qubits exceed 63 amplitudes\n"


def test_partition_methods_agree_on_valencia(tmp_path, capsys):
    topo = topology("valencia")
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(synthetic_calibration(topo, seed=8)))
    (tmp_path / "bell.qasm").write_text(BELL)

    def run(method):
        code = main([
            "partition", "--topology", str(tmp_path / "topology.json"),
            "--calibration", str(tmp_path / "calibration.json"),
            "--method", method, str(tmp_path / "bell.qasm"),
        ])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    gsp = run("gsp")
    qhsp = run("qhsp")
    assert sorted(gsp[0]["qubits"]) == sorted(qhsp[0]["qubits"])  # heuristic hits the optimum here
    assert gsp[0]["method"] == "GSP" and qhsp[0]["method"] == "QHSP"


def test_xtalk_filter_keeps_strong_pair(tmp_path, capsys):
    topo = topology("toronto")
    cal = synthetic_calibration(topo, seed=3)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(cal))
    solo = {tuple(sorted((i, j))): e for i, j, e in cal["cnot_errors"]}
    pairs = {
        "pairs": [
            {"gate": [2, 3], "conditioned_on": [5, 8], "error": solo[(2, 3)] * 3.3},
            {"gate": [5, 8], "conditioned_on": [2, 3], "error": solo[(5, 8)] * 1.5},
        ]
    }
    (tmp_path / "xtalk.json").write_text(json.dumps(pairs))
    code = main([
        "xtalk-filter", "--topology", str(tmp_path / "topology.json"),
        "--calibration", str(tmp_path / "calibration.json"),
        "--crosstalk", str(tmp_path / "xtalk.json"),
    ])
    assert code == 0
    kept = json.loads(capsys.readouterr().out)["pairs"]
    assert len(kept) == 1
    assert kept[0]["gate"] == [2, 3]


def test_missing_file_is_user_error(tmp_path, capsys):
    code = main([
        "compile", "--topology", str(tmp_path / "nope.json"),
        "--calibration", str(tmp_path / "nope.json"), "--seed", "1",
        "--out-dir", str(tmp_path / "out"), str(tmp_path / "nope.qasm"),
    ])
    assert code == 1


def test_non_finite_gate_angle_is_user_error(device_files, capsys):
    # an infinite angle used to compile and write "rz(inf)", which no parser reads
    (device_files / "ghz3.qasm").write_text("qreg q[3]; creg c[3]; rz(1e308*10) q[0]; measure q -> c;\n")
    assert main(_compile_args(device_files)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]
    assert not (device_files / "out" / "merged_0.qasm").exists()


@pytest.mark.parametrize("flag, value", [("--attempts", "0"), ("--lambda", "0"), ("--delta", "nan")])
def test_out_of_range_setting_is_user_error(device_files, capsys, flag, value):
    assert main(_compile_args(device_files, extra=(flag, value))) == 1
    assert flag.lstrip("-") in capsys.readouterr().err
    code = main([
        "partition", "--topology", str(device_files / "topology.json"),
        "--calibration", str(device_files / "calibration.json"),
        flag, value, str(device_files / "bell.qasm"),
    ])
    assert code == 1


@pytest.mark.parametrize("flag, value", [("--attempts", "abc"), ("--delta", "-inf")])
def test_unparsable_command_line_is_user_error(device_files, capsys, flag, value):
    assert main(_compile_args(device_files, extra=(flag, value))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: qmpc compile: argument {flag}")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compile", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qmpc compile")


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test-only dependency: importing it would be most of the
    # command line's start-up time
    src = str(Path(qmpc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, qmpc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_bad_single_qubit_error_is_user_error(device_files, capsys):
    cal = json.loads((device_files / "calibration.json").read_text())
    cal["single_qubit_errors"][2] = 1.5
    (device_files / "calibration.json").write_text(json.dumps(cal))
    assert main(_compile_args(device_files)) == 1
    assert "single-qubit error for qubit 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("method", "sabre"), ("attempts", 0), ("ext_layer", -1), ("lam", 0.0), ("lam", math.inf),
     ("delta", math.nan), ("delta", -math.inf), ("weight_w", math.inf), ("alpha1", math.nan), ("alpha2", -math.inf),
     ("attempts", 2.5), ("seed", 1.5), ("ext_layer", 1.5), ("attempts", True), ("lam", "2"),
     ("delta", True), ("swap_only", "no"), ("self_cost", 1)],
)
def test_run_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field.replace("lam", "lambda")):
        RunConfig(**{field: value})


def test_alphas_whose_sum_overflows_are_rejected(device_files, capsys):
    # both routing matrices lie in [0, 1]: |alpha1| + |alpha2| bounds every combined distance, and a
    # sum near the float maximum would overflow the router's cost sums to inf
    RunConfig(alpha1=1e300, alpha2=1e300)
    RunConfig(alpha1=1e300, alpha2=-1e300)
    for alpha1, alpha2 in ((1e308, 0.0), (8e307, 8e307), (1e308, 1e308), (1e308, -1e308), (-1.7e308, -1e308)):
        with pytest.raises(ConfigError, match=r"\|alpha1\| \+ \|alpha2\| must be at most"):
            RunConfig(alpha1=alpha1, alpha2=alpha2)
    for alpha in ("1e308", "8e307"):
        assert main(_compile_args(device_files, extra=("--alpha1", alpha, "--alpha2", alpha))) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: |alpha1| + |alpha2| must be at most")
        assert not (device_files / "out").exists()


def test_lambda_beyond_the_alpha_bound_is_rejected(device_files, capsys):
    # lambda times a CNOT fidelity is one term of a qubit's fidelity degree; at 1e308
    # most degrees overflowed to inf and the heuristic search lost their order
    RunConfig(lam=_ALPHA_SUM_MAX)
    for lam in (1e308, 1.8e302):
        with pytest.raises(ConfigError, match="lambda must be positive and at most"):
            RunConfig(lam=lam)
    assert main(_compile_args(device_files, extra=("--lambda", "1e308"))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: lambda must be positive and at most")
    assert not (device_files / "out").exists()


@pytest.mark.parametrize("device", ["guadalupe", "manhattan"])
def test_lambda_at_its_bound_plans_as_at_1e300(device):
    # a lambda this large makes the CNOT term rank the qubits alone, as it does at 1e300
    topo = topology(device)
    model = build_hardware(topo, synthetic_calibration(topo, seed=1))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        circuits = [random_circuit(rng, f"c{i}") for i in range(4)]
        regions = [
            [[p.qubits for p in plan.partitions] for plan in plan_all(model, circuits, RunConfig(lam=lam))]
            for lam in (1e300, _ALPHA_SUM_MAX)
        ]
        assert regions[0] == regions[1]


@pytest.mark.parametrize(
    "param", ["(" * 400 + "1" + ")" * 400, "-" * 1200 + "1"], ids=["400-parentheses", "1200-signs"]
)
def test_deeply_nested_parameter_is_user_error(device_files, capsys, param):
    # these used to exit 2 with "internal error: RecursionError"
    assert main(_compile_args(device_files)) == 0
    capsys.readouterr()
    (device_files / "ghz3.qasm").write_text(f"qreg q[3]; creg c[3]; rz({param}) q[0]; measure q -> c;\n")
    for argv in (_verify_args(device_files), _compile_args(device_files, out="again")):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "parameter nested too deeply" in err[0], err


def _one_error_line(capsys, *words):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and all(w in err[0] for w in words), err


SIX_QUBITS = "qreg q[6]; creg c[6]; h q[0]; cx q[0],q[1]; cx q[0],q[2]; cx q[3],q[4]; cx q[4],q[5]; measure q -> c;\n"


def test_dense_device_under_gsp_is_user_error(tmp_path, capsys):
    # the exhaustive search would grow every connected 6-qubit region of a
    # 65-qubit star, C(64, 5) of them; it stops at its budget, and qhsp compiles
    topo = star_topology(65)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(uniform_calibration(topo)))
    (tmp_path / "six.qasm").write_text(SIX_QUBITS)
    argv = [
        "compile", "--topology", str(tmp_path / "topology.json"), "--calibration", str(tmp_path / "calibration.json"),
        "--seed", "1", "--out-dir", str(tmp_path / "out"), str(tmp_path / "six.qasm"),
    ]
    assert main([*argv, "--method", "gsp"]) == 1
    _one_error_line(capsys, "65-qubit device", "qhsp")
    assert main(argv) == 0


def test_device_over_the_size_cap_is_user_error(device_files, capsys):
    topo = line_topology(MAX_REGISTER_SIZE + 1)
    (device_files / "topology.json").write_text(json.dumps(topo))
    (device_files / "calibration.json").write_text(json.dumps(uniform_calibration(topo)))
    assert main(_compile_args(device_files)) == 1
    _one_error_line(capsys, f"1 to {MAX_REGISTER_SIZE} qubits, got {MAX_REGISTER_SIZE + 1}")


@pytest.mark.parametrize("declaration", ["qreg q[400000]; h q;", "qreg q[2]; creg c[3000000]; measure q[0] -> c[0];"])
def test_register_over_the_size_cap_is_user_error(device_files, capsys, declaration):
    # a 3,000,000-bit creg used to compile and write a 44 MB manifest
    (device_files / "bell.qasm").write_text(declaration)
    assert main(_compile_args(device_files)) == 1
    _one_error_line(capsys, "line 1", "exceeds the limit of 2048")


def test_huge_alphas_route_as_the_defaults(guadalupe):
    # both weights scaled alike rank every candidate alike, as long as no cost sum overflows
    rng = np.random.default_rng(3)
    circuits = [random_circuit(rng, f"c{i}", 6, max_gates=80) for i in range(3)]
    huge = RunConfig(alpha1=1e300, alpha2=1e300)
    want = [p.qasm for p in compile_workloads(guadalupe, circuits).plans]
    assert [p.qasm for p in compile_workloads(guadalupe, circuits, huge).plans] == want


def test_weight_w_whose_lookahead_overflows_is_rejected(device_files, capsys):
    # |weight_w| times the alphas' sum bounds one lookahead distance; near the float
    # maximum cost_h's lookahead term went to inf and the router's choices degraded
    for weight_w in (1e308, -1e308, 1.8e302):
        with pytest.raises(ConfigError, match=r"\|weight_w\| \* \(\|alpha1\| \+ \|alpha2\|\) must be at most"):
            RunConfig(weight_w=weight_w)
    RunConfig(weight_w=1e308, alpha1=1e-10, alpha2=0.0)
    assert main(_compile_args(device_files, extra=("--weight-w", "1e308"))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: |weight_w| * (|alpha1| + |alpha2|) must be at most")
    assert not (device_files / "out").exists()


def test_huge_weight_w_routes_as_a_large_one(guadalupe):
    # at these weights the lookahead term decides every choice, and no cost sum overflows
    rng = np.random.default_rng(3)
    circuits = [random_circuit(rng, f"c{i}", 6, max_gates=80) for i in range(3)]
    large, huge = (compile_workloads(guadalupe, circuits, RunConfig(weight_w=w)).plans for w in (1e300, 1.7e302))
    assert [p.qasm for p in huge] == [p.qasm for p in large]


# id: (file, path to the field, mistyped value, part of the one error line)
MISTYPED_DEVICE = {
    "num_qubits-string": ("topology.json", ["num_qubits"], "abc", "num_qubits must be an integer, got 'abc'"),
    "num_qubits-fraction": ("topology.json", ["num_qubits"], 3.7, "num_qubits must be an integer, got 3.7"),
    "num_qubits-boolean": ("topology.json", ["num_qubits"], True, "num_qubits must be an integer, got True"),
    "edge-string-qubit": ("topology.json", ["edges", 0], ["a", 1], "qubit in edge entry ['a', 1] must be an integer"),
    "edge-number": ("topology.json", ["edges", 0], 5, "bad edge entry 5"),
    "edge-fraction": ("topology.json", ["edges", 0], [0, 1.9], "qubit in edge entry [0, 1.9] must be an integer"),
    "edge-boolean": ("topology.json", ["edges", 0], [0, True], "qubit in edge entry [0, True] must be an integer"),
    "edges-null": ("topology.json", ["edges"], None, "edges must be a list of qubit pairs, got None"),
    "cnot-error-string": ("calibration.json", ["cnot_errors", 0, 2], "x", "CNOT error in cnot_errors entry [0, 1, 'x']"),
    "cnot-entry-number": ("calibration.json", ["cnot_errors", 0], 7, "bad cnot_errors entry 7"),
    "readout-number": ("calibration.json", ["readout_errors"], 5, "readout_errors must list all 5 qubits"),
    "readout-string": ("calibration.json", ["readout_errors", 0], "a", "readout error for qubit 0 must be a number"),
    "crosstalk-error-string": ("crosstalk.json", ["pairs", 0, "error"], "x", "conditional error for (0, 1)|(2, 3) must be"),
    "crosstalk-gate-string": ("crosstalk.json", ["pairs", 0, "gate"], ["a", 1], "qubit in crosstalk gate ['a', 1] must be"),
}


@pytest.mark.parametrize("name, path, value, message", MISTYPED_DEVICE.values(), ids=MISTYPED_DEVICE.keys())
def test_mistyped_device_json_is_user_error(device_files, capsys, name, path, value, message):
    # these used to exit 2 as internal errors, or (the fractions) were silently truncated
    xtalk = {"pairs": [{"gate": [0, 1], "conditioned_on": [2, 3], "error": 0.05}]}
    (device_files / "crosstalk.json").write_text(json.dumps(xtalk))
    data = json.loads((device_files / name).read_text())
    *parents, last = path
    functools.reduce(operator.getitem, parents, data)[last] = value
    (device_files / name).write_text(json.dumps(data))
    assert main(_compile_args(device_files, extra=("--crosstalk", str(device_files / "crosstalk.json")))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_infinite_delta_shares_and_writes_a_null_threshold(device_files, capsys):
    assert RunConfig(delta=math.inf).delta == math.inf
    assert main(_compile_args(device_files, extra=("--delta", "inf"))) == 0
    out = device_files / "out"
    plans = _strict_json(out / "plans.json")
    assert [(p["selected"], p["threshold"]) for p in plans] == [(["ghz3", "bell"], None)]
    assert _strict_json(out / "stats_0.json")["threshold"] is None


def test_run_config_is_frozen():
    config = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.attempts = 1


def test_commands_without_knob_flags_use_run_config_defaults(device_files, monkeypatch, capsys):
    seen = []

    def compile_workloads(model, circuits, config, strong):
        seen.append(config)
        return CompileResult()

    def plan_all(model, circuits, config, strong):
        seen.append(config)
        return []

    monkeypatch.setattr("qmpc.cli.compile_workloads", compile_workloads)
    monkeypatch.setattr("qmpc.cli.plan_all", plan_all)
    assert main(_compile_args(device_files)) == 0
    assert main([
        "partition", "--topology", str(device_files / "topology.json"),
        "--calibration", str(device_files / "calibration.json"), str(device_files / "bell.qasm"),
    ]) == 0
    assert seen == [RunConfig(seed=7), RunConfig()]


def test_verify_passes_a_merged_program_over_the_component_cap(tmp_path, capsys):
    # two 7-qubit GHZ circuits side by side: 14 active qubits, 7 per component
    topo = line_topology(14)
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(uniform_calibration(topo)))
    ghz7 = "qreg q[7]; creg c[7]; h q[0]; " + " ".join(f"cx q[{i}],q[{i + 1}];" for i in range(6)) + " measure q -> c;\n"
    sources = [tmp_path / "ga.qasm", tmp_path / "gb.qasm"]
    for path in sources:
        path.write_text(ghz7)
    out = tmp_path / "out"
    assert main([
        "compile", "--topology", str(tmp_path / "topology.json"),
        "--calibration", str(tmp_path / "calibration.json"),
        "--delta", "1e9", "--seed", "3", "--out-dir", str(out), *map(str, sources),
    ]) == 0
    assert json.loads((out / "plans.json").read_text())[0]["selected"] == ["ga", "gb"]
    merged = (out / "merged_0.qasm").read_text()
    assert len(set(re.findall(r"q\[(\d+)\]", merged.split("creg", 1)[1]))) == 14
    capsys.readouterr()
    code = main(["verify", "--merged", str(out / "merged_0.qasm"), "--manifest", str(out / "manifest_0.json"), *map(str, sources)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_negative_seed_is_user_error(device_files, capsys):
    args = _compile_args(device_files)
    args[args.index("--seed") + 1] = "-1"
    assert main(args) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    # partition checks its seed as compile does; it used to ignore --seed
    assert main([
        "partition", "--topology", str(device_files / "topology.json"),
        "--calibration", str(device_files / "calibration.json"), "--seed", "-1", str(device_files / "bell.qasm"),
    ]) == 1
    _one_error_line(capsys, "seed must be non-negative")
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)


def test_undecodable_circuit_file_is_user_error(device_files, capsys):
    (device_files / "bell.qasm").write_bytes(b"\xff\xfe\x00\x01qreg q[2];")
    assert main(_compile_args(device_files)) == 1
    assert "bell.qasm" in capsys.readouterr().err


def test_directory_as_circuit_is_user_error(device_files, capsys):
    (device_files / "bell.qasm").unlink()
    (device_files / "bell.qasm").mkdir()
    assert main(_compile_args(device_files)) == 1
    assert "bell.qasm" in capsys.readouterr().err


def test_manifest_that_is_not_an_object_is_user_error(device_files, capsys):
    assert main(_compile_args(device_files)) == 0
    out = device_files / "out"
    (out / "manifest_0.json").write_text("[1, 2]")
    capsys.readouterr()
    code = main([
        "verify", "--merged", str(out / "merged_0.qasm"), "--manifest", str(out / "manifest_0.json"),
        str(device_files / "ghz3.qasm"), str(device_files / "bell.qasm"),
    ])
    assert code == 1
    assert "manifest must be a JSON object" in capsys.readouterr().err


def test_crosstalk_that_is_not_an_object_is_user_error(device_files, capsys):
    (device_files / "crosstalk.json").write_text("[1, 2]")
    assert main(_compile_args(device_files, extra=("--crosstalk", str(device_files / "crosstalk.json")))) == 1
    assert "crosstalk.json" in capsys.readouterr().err


# a JSON integer int() refuses, and an array nested deeper than json decodes;
# both used to exit 2 as internal errors (ValueError and RecursionError)
UNREADABLE_JSON = {"5000-digit-integer": "[" + "1" * 5000 + "]", "nested-100000-deep": "[" * 100_000}


@pytest.mark.parametrize("name", ["topology.json", "calibration.json", "crosstalk.json", "manifest_0.json"])
@pytest.mark.parametrize("text", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_unreadable_json_input_is_user_error_naming_the_file(device_files, capsys, name, text):
    (device_files / "crosstalk.json").write_text('{"pairs": []}')
    argv = _compile_args(device_files, extra=("--crosstalk", str(device_files / "crosstalk.json")))
    if name == "manifest_0.json":
        assert main(argv) == 0
        capsys.readouterr()
        path, argv = device_files / "out" / name, _verify_args(device_files)
    else:
        path = device_files / name
    path.write_text(text)
    assert main(argv) == 1
    _one_error_line(capsys, f"{path}: invalid JSON")


def test_index_of_5000_digits_is_user_error(device_files, capsys):
    (device_files / "bell.qasm").write_text("qreg q[2]; creg c[2]; h q[" + "1" * 5000 + "]; measure q -> c;")
    assert main(_compile_args(device_files)) == 1
    _one_error_line(capsys, "line 1, col 27: index 1111", "exceeds the limit of 2048")


LONG, DIGITS = "x" * 5000, "1" * 5000
# (file, its text, words of the message): each used to be echoed whole
LONG_ECHOES = {
    "register-size-digits": ("bell.qasm", f"qreg q[{DIGITS}];", ["line 1, col 8: register size 11111", "...1111"]),
    "index-digits": ("bell.qasm", f"qreg q[2]; h q[{DIGITS}];", ["line 1, col 16: index 11111", "exceeds the limit"]),
    "gate-name": ("bell.qasm", f"qreg q[2]; {LONG} q[0];", ["line 1, col 12: unsupported gate 'xxxxx", "...xxx"]),
    "register-name": ("bell.qasm", f"qreg q[2]; h {LONG}[0];", ["line 1, col 14: unknown quantum register 'xxxxx"]),
    "num-qubits-string": (
        "topology.json", json.dumps({"num_qubits": LONG, "edges": []}), ["num_qubits must be an integer, got 'xxxxx"],
    ),
    "edge-qubit-string": (
        "topology.json", json.dumps({"num_qubits": 5, "edges": [[0, LONG]]}), ["qubit in edge entry [0, 'xxxxx"],
    ),
    "cnot-error-string": (
        "calibration.json", json.dumps({"cnot_errors": [[0, 1, LONG]]}), ["CNOT error in cnot_errors entry [0, 1, 'xxx"],
    ),
    "json-integer-digits": (
        "calibration.json", f"[{DIGITS}]",
        ["calibration.json: invalid JSON: an integer has more than", f"{sys.get_int_max_str_digits()} digits"],
    ),
}


@pytest.mark.parametrize("name, text, words", LONG_ECHOES.values(), ids=LONG_ECHOES.keys())
def test_long_input_is_echoed_short(device_files, capsys, name, text, words):
    (device_files / name).write_text(text)
    assert main(_compile_args(device_files)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and all(w in err[0] for w in words), [e[:300] for e in err]
    assert len(err[0]) <= 200, err[0][:300]


# (arguments after `compile`'s own, or the whole command line; words of the message)
LONG_ARGUMENTS = {
    "seed": (["--seed", DIGITS], ["argument --seed: invalid int value: '1111", "...1111"]),
    "attempts": (["--attempts", DIGITS], ["argument --attempts: invalid int value: '1111"]),
    "ext-layer": (["--ext-layer", DIGITS], ["argument --ext-layer: invalid int value: '1111"]),
    "method": (["--method", LONG], ["argument --method: invalid choice: 'xxxx", "(choose from 'gsp', 'qhsp')"]),
    "flag": ([f"--{LONG}"], ["unrecognized arguments: --xxxx"]),
    "command": (None, ["argument command: invalid choice: 'xxxx", "(choose from 'compile'"]),
}


@pytest.mark.parametrize("extra, words", LONG_ARGUMENTS.values(), ids=LONG_ARGUMENTS.keys())
def test_long_argument_is_echoed_short(device_files, capsys, extra, words):
    argv = [LONG] if extra is None else _compile_args(device_files, extra=extra)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: qmpc") and all(w in err[0] for w in words), [e[:300] for e in err]
    assert len(err[0]) <= 200, err[0][:300]


def test_many_unrecognized_arguments_are_named_ten_and_counted(capsys):
    argv = ["xtalk-filter", "--topology", "t", "--calibration", "c", "--crosstalk", "x"]
    assert main(argv + [str(i) for i in range(1, 2001)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: qmpc: unrecognized arguments: 1 2 3 4 5 6 7 8 9 10 ... (1990 more)"], [e[:300] for e in err]
    assert main(argv + ["1", "2"]) == 1
    assert capsys.readouterr().err == "error: qmpc: unrecognized arguments: 1 2\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--attempts", "abc", "argument --attempts: invalid int value: 'abc'"),
     ("--method", "sabre", "argument --method: invalid choice: 'sabre' (choose from 'gsp', 'qhsp')")],
)
def test_short_argument_is_echoed_as_argparse_wrote_it(device_files, capsys, flag, value, message):
    assert main(_compile_args(device_files, extra=(flag, value))) == 1
    assert capsys.readouterr().err == f"error: qmpc compile: {message}\n"


def test_verify_rejects_bits_shared_by_two_circuits(tmp_path, capsys):
    # compile bell.qasm and a copy, drop the copy's gates and point its
    # manifest at the first circuit's bits: this passed with TV 0
    topo = topology("guadalupe")
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(synthetic_calibration(topo, seed=1)))
    sources = [tmp_path / "bell.qasm", tmp_path / "copy.qasm"]
    for path in sources:
        path.write_text(BELL)
    out = tmp_path / "out"
    assert main([
        "compile", "--topology", str(tmp_path / "topology.json"), "--calibration", str(tmp_path / "calibration.json"),
        "--seed", "1", "--out-dir", str(out), *map(str, sources),
    ]) == 0
    manifest = json.loads((out / "manifest_0.json").read_text())
    region = set(manifest["copy"]["logical_to_physical"].values())
    lines = (out / "merged_0.qasm").read_text().splitlines(keepends=True)
    kept = [line for line in lines if line.startswith("qreg") or region.isdisjoint(map(int, re.findall(r"q\[(\d+)\]", line)))]
    assert len(lines) - len(kept) == 4  # h, cx and two measurements
    (out / "merged_0.qasm").write_text("".join(kept))
    manifest["copy"]["clbits"] = manifest["bell"]["clbits"]
    (out / "manifest_0.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["verify", "--merged", str(out / "merged_0.qasm"), "--manifest", str(out / "manifest_0.json"), *map(str, sources)]) == 1
    _one_error_line(capsys, "manifest lists clbit 0 of 'copy' for 'bell' too")


def test_verify_rejects_a_bit_listed_twice(tmp_path, capsys):
    # both Bell bits read one measurement of |+>: this passed with TV 0
    (tmp_path / "merged.qasm").write_text("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"bell": {"clbits": [0, 0]}}))
    (tmp_path / "bell.qasm").write_text(BELL)
    argv = ["verify", "--merged", str(tmp_path / "merged.qasm"), "--manifest", str(tmp_path / "manifest.json")]
    assert main([*argv, str(tmp_path / "bell.qasm")]) == 1
    _one_error_line(capsys, "manifest lists clbit 0 of 'bell' twice")


def test_verify_rejects_a_source_that_measures_nothing(tmp_path, capsys):
    # compiled with bell.qasm; its bits read 0 in the source and in the
    # merged program, so this passed with TV 0 though it compared nothing
    topo = topology("guadalupe")
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(synthetic_calibration(topo, seed=1)))
    (tmp_path / "silent.qasm").write_text("qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1];\n")
    (tmp_path / "bell.qasm").write_text(BELL)
    sources = [str(tmp_path / "silent.qasm"), str(tmp_path / "bell.qasm")]
    out = tmp_path / "out"
    assert main([
        "compile", "--topology", str(tmp_path / "topology.json"), "--calibration", str(tmp_path / "calibration.json"),
        "--seed", "1", "--out-dir", str(out), *sources,
    ]) == 0
    capsys.readouterr()
    assert main(["verify", "--merged", str(out / "merged_0.qasm"), "--manifest", str(out / "manifest_0.json"), *sources]) == 1
    _one_error_line(capsys, "circuit 'silent' has no measurements to compare")
