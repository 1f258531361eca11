"""Which ``qmpc`` modules may import which, and which ones a compile loads.

``verify`` is the independent simulator and equivalence checker: it reads
circuits and nothing of the planner or the router.  No module of the compile
path, the package root included, imports it; ``cli`` imports it inside
``cmd_verify`` only.  The static checks read each module's import lines, and
a fresh process checks that a whole compile really leaves ``qmpc.verify``
unloaded.  The merged program's compliance check belongs to the router, so
only ``scheduler`` raises ``RoutingError``.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qmpc
from qmpc.presets import synthetic_calibration, topology

PACKAGE = Path(qmpc.__file__).resolve().parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}
COMPILE_PATH = (
    "__init__", "circuits", "config", "errors", "floats", "hardware", "partition", "manager", "scheduler", "pipeline",
    "presets",
)


def imported(module: str) -> set[str]:
    """The ``qmpc`` modules that ``module`` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(MODULES[module].read_text())):
        if isinstance(node, ast.ImportFrom):
            parent = ".".join(filter(None, ["qmpc" if node.level else None, node.module]))
            full = [f"{parent}.{alias.name}" for alias in node.names] if parent == "qmpc" else [parent]
        elif isinstance(node, ast.Import):
            full = [alias.name for alias in node.names]
        else:
            continue
        names.update(name.split(".")[1] for name in full if name.startswith("qmpc."))
    return names


def test_verify_imports_only_circuits_errors_and_floats():
    assert imported("verify") <= {"circuits", "errors", "floats"}


def test_compile_path_does_not_import_verify():
    assert [m for m in COMPILE_PATH if "verify" in imported(m)] == []


def test_only_scheduler_raises_routing_error():
    raising = sorted(m for m, path in MODULES.items() if "raise RoutingError" in path.read_text())
    assert raising == ["scheduler"]


def test_compile_leaves_verify_unloaded(tmp_path):
    # pytest has loaded qmpc.verify already, so the probe runs in a process
    # of its own
    topo = topology("guadalupe")
    (tmp_path / "topology.json").write_text(json.dumps(topo))
    (tmp_path / "calibration.json").write_text(json.dumps(synthetic_calibration(topo, seed=1)))
    (tmp_path / "bell.qasm").write_text("qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;\n")
    probe = (
        "import sys, qmpc, qmpc.cli, qmpc.pipeline\n"
        "code = qmpc.cli.main(['compile', '--topology', 'topology.json', '--calibration', 'calibration.json',"
        " '--out-dir', 'out', 'bell.qasm'])\n"
        "print(code, 'qmpc.verify' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"
