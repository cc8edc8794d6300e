"""The result digests of scripts/hw_fingerprint.py match scripts/fingerprint.json."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalcap

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "hw_fingerprint.py"


def _script_module():
    spec = importlib.util.spec_from_file_location("hw_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_match_the_recorded_fingerprint():
    # the script checks the causalcap under test, which need not be this checkout's
    src = Path(causalcap.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH"),
    ])))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    # only the script's own process runs the OpenBLAS kernel it pins, so it decides the skip
    if done.stdout.startswith("refused:"):
        pytest.skip(done.stdout.strip())
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("check: ok")


def test_update_rewrites_the_digests_and_names_each_that_moved(tmp_path, monkeypatch, capsys):
    module = _script_module()
    path = tmp_path / "fingerprint.json"
    path.write_text(json.dumps({"build": module.build(), "digests": {"a": "1", "b": "2"}}))
    monkeypatch.setattr(module, "EXPECTED", path)
    module.update({"a": "1", "b": "3", "c": "4"})
    assert capsys.readouterr().out == "b: 2 → 3\nc: None → 4\n"
    assert json.loads(path.read_text()) == {
        "build": module.build(), "digests": {"a": "1", "b": "3", "c": "4"},
    }


@pytest.mark.parametrize("mode", ["--check", "--update"])
def test_check_and_update_are_refused_for_another_build(mode, tmp_path, monkeypatch, capsys):
    module = _script_module()
    path = tmp_path / "fingerprint.json"
    text = json.dumps({"build": {"numpy": "0.0", "blas": "none"}, "digests": {"a": "1"}})
    path.write_text(text)
    monkeypatch.setattr(module, "EXPECTED", path)
    monkeypatch.setattr(module, "fingerprints", lambda: pytest.fail("digests were computed"))
    monkeypatch.setattr(sys, "argv", ["hw_fingerprint.py", mode])
    assert module.main() == 1
    assert capsys.readouterr().out.startswith("refused: digests recorded with")
    assert path.read_text() == text
