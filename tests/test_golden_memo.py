"""The golden outputs from a warm memo: each ``tests/test_golden.py`` case
compiled twice on one device model, then once on a fresh one, must write the
pinned bytes every time.  The second compile reads every region search on
the empty device from the model's memo; a key that misses an input of that
search would show here as a moved digest."""
import pytest

from qmpc import cli
from qmpc.cli import main
from qmpc.hardware import load_hardware

from helpers import count_empty_device_searches
from test_golden import GOLDEN, _digest, _write_inputs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_is_the_same_from_a_warm_and_a_cold_memo(tmp_path, monkeypatch, name):
    models = []

    def shared(topology_path, calibration_path):
        if not models:
            models.append(load_hardware(topology_path, calibration_path))
        return models[0]

    def compile_into(run: str) -> str:
        (tmp_path / run).mkdir()
        assert main(_write_inputs(tmp_path / run, name)) == 0
        return _digest(tmp_path / run / "out")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_hardware", shared)
        assert compile_into("cold") == GOLDEN[name]
        searched = count_empty_device_searches(patch)
        assert compile_into("warm") == GOLDEN[name]
        assert searched == []
    assert compile_into("fresh") == GOLDEN[name]
    assert len(models) == 1
