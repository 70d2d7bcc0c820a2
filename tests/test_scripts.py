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


ETALE_SURVEY = [
    ("Z2[eps]", "FAIL_NOT_REDUCED", "2", "known: excluded", "X"),
    ("Z2[[X]] (polynomial model)", "FAIL_NOT_FINITE", "infinite", "known: excluded", None),
    ("Z2[X]/(X^2-1)", "PASS", "2", "known: member", None),
    ("Z2[X]/(X^4-1)", "PASS", "4", "known: member", None),
    ("Z3[X]/(X^3-1)", "PASS", "3", "known: member", None),
    ("Z5[sqrt5]", "PASS", "2", "known: member", None),
    ("Z2[X]/(X^2-2X)", "PASS", "2", "open", None),
    ("Z2[X]/(X^2-4X)", "PASS", "2", "open", None),
    ("Z5[X]/(X^2-5X)", "PASS", "2", "open", None),
    ("Z2[X]/(X^2, 2X)", "PASS", "1", "open", None),
    ("Z2[T]/(T^2+4)", "PASS", "2", "known: member (dim > 1 route)", None),
] + [(f"R_alpha({alpha})", "FAIL_NOT_REDUCED", "13",
      "known: excluded (uncountable family)", "Y") for alpha in range(4)]


def test_etale_survey_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "etale_survey.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    width = max(len(ring) for ring, *_ in ETALE_SURVEY)
    expected = [f"{ring:<{width}}  {verdict:<16}  dim={dim:<9} [{status}]"
                + (f"  witness {witness}" if witness else "")
                for ring, verdict, dim, status, witness in ETALE_SURVEY]
    assert proc.stdout.splitlines() == expected, proc.stdout
