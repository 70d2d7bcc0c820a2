"""Smoke tests of the scripts in scripts/, run as a user runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_r_alpha_fingerprints_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "r_alpha_fingerprints.py"),
         "--alphas", "0", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith(
        "\nalpha=0 vs alpha=1: distinct fingerprints: certified non-isomorphic"
    ), proc.stdout
