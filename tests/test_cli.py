import dataclasses
import json
import math
import re

import pytest

from qmpc.cli import main
from qmpc.errors import ConfigError
from qmpc.pipeline import CompileResult, RunConfig
from qmpc.presets import line_topology, synthetic_calibration, topology, uniform_calibration

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


def test_env_seed_overrides_flag(device_files, monkeypatch):
    monkeypatch.setenv("QMPC_SEED", "7")
    args = _compile_args(device_files, out="env")
    args[args.index("--seed") + 1] = "999"  # flag should lose to the env var
    assert main(args) == 0
    monkeypatch.delenv("QMPC_SEED")
    assert main(_compile_args(device_files, out="flag")) == 0
    assert (device_files / "env" / "merged_0.qasm").read_bytes() == (
        device_files / "flag" / "merged_0.qasm"
    ).read_bytes()


def test_ci_requires_seed(device_files, monkeypatch, capsys):
    monkeypatch.setenv("CI", "true")
    monkeypatch.delenv("QMPC_SEED", raising=False)
    args = _compile_args(device_files, out="ci")
    del args[args.index("--seed") + 1]
    args.remove("--seed")
    assert main(args) == 1
    assert "seed" in capsys.readouterr().err


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


def test_bad_single_qubit_error_is_user_error(device_files, capsys):
    cal = json.loads((device_files / "calibration.json").read_text())
    cal["single_qubit_errors"][2] = 1.5
    (device_files / "calibration.json").write_text(json.dumps(cal))
    assert main(_compile_args(device_files)) == 1
    assert "single-qubit error for qubit 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("method", "sabre"), ("attempts", 0), ("ext_layer", -1), ("lam", 0.0), ("lam", math.inf),
     ("delta", math.nan), ("weight_w", math.inf), ("alpha1", math.nan), ("alpha2", -math.inf),
     ("attempts", 2.5), ("seed", 1.5), ("ext_layer", 1.5), ("attempts", True), ("lam", "2"),
     ("delta", True), ("swap_only", "no"), ("self_cost", 1)],
)
def test_run_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field.replace("lam", "lambda")):
        RunConfig(**{field: value})


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
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)


def test_non_integer_env_seed_is_user_error(device_files, monkeypatch, capsys):
    monkeypatch.setenv("QMPC_SEED", "abc")
    assert main(_compile_args(device_files)) == 1
    assert "QMPC_SEED" in capsys.readouterr().err


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
