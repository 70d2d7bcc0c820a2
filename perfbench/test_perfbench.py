"""The benchmark's own tests.  Run from the repository root:

    python -m pytest -q perfbench

They are not part of the library's suite under tests/.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import corpus
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def test_independent_counts():
    assert corpus._q8_classes() == 64
    assert corpus._sqrt2_homs() == 16


def test_quadrics_depend_only_on_the_seed():
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        texts = []
        for d in (a, b):
            jobs = corpus.quadric_jobs(7, 3, d)
            texts.append([open(j.path).read() for j in jobs])
        assert texts[0] == texts[1]
        assert len(set(texts[0])) == 3


def test_every_fixed_job_has_an_expected_report():
    assert set(corpus.load_expected()) == {j.name for j in corpus.FIXED}


def test_probe_time_is_taken_only_from_inside_the_job():
    probe = worker.SpeedProbe()
    # units before, straddling the start, inside, straddling the end, after
    probe.intervals = [(0.0, 1.0), (1.5, 2.5), (3.0, 3.5), (4.5, 5.5), (6.0, 7.0)]
    assert probe.overlap(0, 2.0, 5.0) == 0.5 + 0.5 + 0.5
    assert probe.overlap(3, 2.0, 5.0) == 0.5


def test_declared_metrics_and_workloads_exist():
    with open(BENCHMARK_PATH) as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert all(set(v["moves"]) <= end_to_end for v in layers.values())
    assert {w["name"] for w in declared["workloads"]} <= set(corpus.WORKLOADS)


def test_self_check():
    """Smoke jobs through the run, trace, replay and check paths."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-check ok"
