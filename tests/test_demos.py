"""Every script under ``demos/``, and the README's library quick start, runs
to completion against the package."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qmpc

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(qmpc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    (tmp_path / "a.qasm").write_text("qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;\n")
    (tmp_path / "b.qasm").write_text("qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; measure q -> c;\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("SIMULTANEOUS ")
    assert out[1].startswith("EquivalenceReport(passed=True")
