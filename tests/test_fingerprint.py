"""The result digests of scripts/hw_fingerprint.py match scripts/fingerprint.json."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "hw_fingerprint.py"


def _script_module():
    spec = importlib.util.spec_from_file_location("hw_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_match_the_recorded_fingerprint():
    recorded = json.loads((ROOT / "scripts" / "fingerprint.json").read_text(encoding="utf-8"))
    running = _script_module().build()
    if recorded["build"] != running:
        pytest.skip(f"digests recorded with {recorded['build']}; this build is {running}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH"),
    ])))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("check: ok")
