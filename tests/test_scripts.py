"""Smoke tests of the scripts in scripts/, run as a user runs them."""

from __future__ import annotations

import importlib.util
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



# per prime: the rings Z/p^2, Z/p^3 and F_p[eps], then per group its tangent
# dimension and its lift count over each ring (every class is one lift, the
# representation being one-dimensional)
CENSUS = {
    2: (["Z/4", "Z/8", "(Z/2^1)[e]/(e^2)"],
        [("C2", 1, [2, 4, 2]), ("C3", 0, [1, 1, 1]), ("C4", 1, [2, 4, 2]),
         ("C2xC2", 2, [4, 16, 4])]),
    3: (["Z/9", "Z/27", "(Z/3^1)[e]/(e^2)"],
        [("C2", 0, [1, 1, 1]), ("C3", 1, [3, 3, 3]), ("C4", 0, [1, 1, 1]),
         ("C2xC2", 0, [1, 1, 1])]),
}


def test_deformation_census_script():
    # the script checks the enumerated tangent dimension against dim H^1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "deformation_census.py"),
         "--max-group-order", "4"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = []
    for p, (rings, rows) in CENSUS.items():
        expected.append(f"== p = {p} ==")
        for group, t, lifts in rows:
            expected.append("  " + " | ".join(
                [f"{group:<8} tangent dim {t}"]
                + [f"{ring}: {c} lifts / {c} classes" for ring, c in zip(rings, lifts)]))
        expected.append("")
    assert proc.stdout.splitlines() == expected, proc.stdout


def _mutation_probe():
    spec = importlib.util.spec_from_file_location(
        "mutation_probe", ROOT / "scripts" / "mutation_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_probe_texts_occur_exactly_once():
    # the probe itself takes minutes and is not run here; its mutants must
    # keep pointing at one place each, and at test files that exist
    probe = _mutation_probe()
    assert probe.MUTANTS
    for mutant in probe.MUTANTS:
        assert probe.occurrences(mutant) == 1, mutant.name
        assert mutant.new != mutant.old
        assert all((ROOT / t).is_file() for t in mutant.tests), mutant.name
