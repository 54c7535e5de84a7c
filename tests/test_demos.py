"""Smoke runs of the quick demos, each in its own working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cloudmae.data import load_points

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_patches_and_masking.py", "02_autodiff_basics.py"])
def test_demo_runs(tmp_path, name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("01"):
        assert load_points(tmp_path / "masking_demo.ply").p > 0
