"""Which ``qmpc`` modules may import which.

``verify`` is the independent simulator and equivalence checker: it reads
circuits and nothing of the planner or the router, and the compile path
never loads it.  The merged program's compliance check belongs to the
router, so only ``scheduler`` raises ``RoutingError``.
"""
import ast
from pathlib import Path

import qmpc

PACKAGE = Path(qmpc.__file__).resolve().parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}
COMPILE_PATH = (
    "circuits", "config", "errors", "floats", "hardware", "partition", "manager", "scheduler", "pipeline", "presets",
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
