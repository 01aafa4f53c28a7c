"""Smoke runs of the experiment scripts, which import the experiment API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netdrift

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, header, lines",
    [
        ("circle_tracking.py", ["--sizes", "5", "--horizon", "60"],
         "n beta alpha_diff alpha_dgt err_diffusion err_dgt ratio", 2),
        ("static_consensus.py", ["--horizon", "200", "--halvings", "1"],
         "dgt at alpha 0.2: tail error", 6),
    ],
)
def test_script_runs_with_tiny_arguments(script, args, header, lines):
    src = str(Path(netdrift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout.splitlines()
    assert " ".join(out[0].split()).startswith(header)
    assert len(out) == lines
