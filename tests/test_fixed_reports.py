"""Every fixed benchmark job writes the report it wrote when it was recorded.

`perfbench/corpus.FIXED` lists the benchmark's fixed jobs, and
`perfbench/expected.json` the sha256 of each job's report bytes and its exit
code.  Running each job here, in process and without the cache, makes a
change that alters any report byte fail the test suite, not only the
benchmark's own check.
"""

from __future__ import annotations

import sys
from hashlib import sha256
from pathlib import Path

import pytest

from defring import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _corpus():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    return corpus


CORPUS = _corpus()
EXPECTED = CORPUS.load_expected()


@pytest.mark.parametrize("job", CORPUS.FIXED, ids=lambda job: job.name)
def test_fixed_job_report_matches_recorded_digest(job, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(job.argv(str(out), cache=False))
    assert (sha256(out.read_bytes()).hexdigest(), code) == (
        EXPECTED[job.name]["sha256"], EXPECTED[job.name]["exit_code"])
