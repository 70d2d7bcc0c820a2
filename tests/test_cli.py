from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.cli import (COMMANDS, JobParseError, JobSpec, main, parse_job_blocks,
                         run_job)

ETALE_PASS_JOB = """\
# rational fiber of X^4 - 1 over p = 2
presentation {
  p = 2
  vars = X
  relations = X^4 - 1
}
"""

ETALE_FAIL_JOB = """\
presentation {
  p = 2
  vars = X
  relations = X^2
}
"""

DEFCOUNT_JOB = """\
ring {
  p = 2
  precision = 3
}
group {
  family = cyclic
  param = 2
}
"""

ORDER_BOUND_JOB = """\
presentation {
  p = 2
  vars = T
  relations = T^2 + 4
}
maps {
  f1 = T
  f2 = -T
}
"""

MARANDA_JOB = """\
ring {
  p = 2
  precision = 4
  mode = precision
}
group {
  family = cyclic
  param = 2
}
lift1 {
  gen1 = 1
}
lift2 {
  gen1 = 9
}
"""


def _run(command, text, **kwargs):
    spec = JobSpec(command=command, blocks=parse_job_blocks(text), **kwargs)
    return run_job(spec)


# -- parsing -----------------------------------------------------------------


def test_parse_blocks_roundtrip():
    blocks = parse_job_blocks(ETALE_PASS_JOB)
    assert blocks == {"presentation": {"p": "2", "vars": "X",
                                       "relations": "X^4 - 1"}}


def test_parse_rejects_unknown_block():
    with pytest.raises(JobParseError) as e:
        parse_job_blocks("mystery {\n p = 2\n}\n")
    assert e.value.line == 1


def test_parse_rejects_unknown_key():
    with pytest.raises(JobParseError) as e:
        parse_job_blocks("group {\n color = blue\n}\n")
    assert e.value.line == 2
    assert e.value.col >= 1


def test_parse_rejects_duplicates_and_nesting():
    with pytest.raises(JobParseError):
        parse_job_blocks("group {\n family = cyclic\n family = cyclic\n}\n")
    with pytest.raises(JobParseError):
        parse_job_blocks("group {\n ring {\n}\n}\n")
    with pytest.raises(JobParseError):
        parse_job_blocks("group {\n family = cyclic\n")  # unterminated
    with pytest.raises(JobParseError):
        parse_job_blocks("family = cyclic\n")  # key outside block


def test_parse_rejects_inconsistent_primes():
    text = (
        "presentation {\n p = 2\n vars = X\n relations = X^2\n}\n"
        "group {\n family = cyclic\n param = 2\n p = 3\n}\n"
    )
    with pytest.raises(JobParseError):
        run_job(JobSpec(command="etale-check", blocks=parse_job_blocks(text)))


# -- job execution -----------------------------------------------------------


def test_etale_check_exit_codes():
    report, code = _run("etale-check", ETALE_PASS_JOB)
    assert code == 0
    assert report["result"]["verdict"] == "PASS"
    report, code = _run("etale-check", ETALE_FAIL_JOB)
    assert code == 2
    assert report["result"]["verdict"] == "FAIL_NOT_REDUCED"


def test_report_field_order_is_fixed():
    report, _ = _run("etale-check", ETALE_PASS_JOB)
    assert list(report) == ["tool", "version", "command", "claim",
                            "parameters", "job_hash", "result"]


def test_defcount_job():
    report, code = _run("defcount", DEFCOUNT_JOB)
    assert code == 0
    assert report["result"]["class_count"] == 4  # C2 over Z/8


def test_order_bound_job():
    report, code = _run("order-bound", ORDER_BOUND_JOB)
    assert code == 0
    assert report["result"]["claim_divisor"] == 4


def test_maranda_job():
    report, code = _run("maranda-check", MARANDA_JOB)
    assert code == 0
    assert report["result"]["equivalent"] is True
    assert report["result"]["certificate"]["precision"] == 3


def test_precision_flag_overrides_block():
    report, _ = _run("defcount", DEFCOUNT_JOB, precision=2)
    assert report["result"]["class_count"] == 2  # C2 over Z/4 instead


def test_job_hash_depends_on_parameters():
    s1 = JobSpec(command="defcount", blocks=parse_job_blocks(DEFCOUNT_JOB))
    s2 = JobSpec(command="defcount", blocks=parse_job_blocks(DEFCOUNT_JOB),
                 precision=2)
    assert s1.content_hash() != s2.content_hash()


# -- the console entry point -------------------------------------------------


def _main_run(tmp_path, command, text, *flags):
    job = tmp_path / "job.txt"
    job.write_text(text)
    out = tmp_path / "out.json"
    code = main([command, str(job), "--output", str(out), "--no-cache", *flags])
    return code, out.read_text() if out.exists() else ""


def test_main_exit_codes_and_output(tmp_path):
    code, text = _main_run(tmp_path, "etale-check", ETALE_PASS_JOB)
    assert code == 0
    assert json.loads(text)["result"]["verdict"] == "PASS"
    code, text = _main_run(tmp_path, "etale-check", ETALE_FAIL_JOB)
    assert code == 2


def test_main_error_path_returns_1(tmp_path, capsys):
    job = tmp_path / "bad.txt"
    job.write_text("mystery {\n}\n")
    code = main(["etale-check", str(job), "--no-cache"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in json.loads(err)


@pytest.mark.parametrize("dimension", [0, -1])
@pytest.mark.parametrize("command, text", [
    ("defcount", DEFCOUNT_JOB), ("tangent", DEFCOUNT_JOB), ("maranda-check", MARANDA_JOB)],
    ids=["defcount", "tangent", "maranda-check"])
def test_rep_dimension_below_one_is_a_parse_error(tmp_path, capsys, command, text,
                                                  dimension):
    job = tmp_path / "job.txt"
    job.write_text(f"{text}rep {{\n  dimension = {dimension}\n}}\n")
    assert main([command, str(job), "--no-cache"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"].endswith(
        f"block 'rep' key 'dimension' must be at least 1, not {dimension}")


def _presentation_block(name, variables):
    return f"{name} {{\n  p = 2\n  vars = {variables}\n  relations = X^2 - 2\n}}\n"


@pytest.mark.parametrize("variables, message", [
    ("X, X", "variable 'X' is repeated"),
    ("2", "'2' is not a variable name"),
    ("X, 1X", "'1X' is not a variable name"),
    ("X Y", "'X Y' is not a variable name"),
    ("X, Y-1", "'Y-1' is not a variable name"),
], ids=["repeated", "integer", "leading-digit", "two-tokens", "operator"])
@pytest.mark.parametrize("command, blocks", [
    ("etale-check", ["presentation"]), ("fingerprint", ["ring"]),
    ("hom-count", ["source", "target"])], ids=["etale-check", "fingerprint", "hom-count"])
def test_bad_variable_names_are_parse_errors(tmp_path, capsys, command, blocks,
                                             variables, message):
    # a repeated name would leave a variable free, and a name that
    # `parse_poly` reads as another token would change the relations
    bad = blocks[-1]
    job = tmp_path / "job.txt"
    job.write_text("".join(_presentation_block(b, variables if b == bad else "X")
                           for b in blocks))
    assert main([command, str(job), "--no-cache"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"].endswith(f"block {bad!r} key 'vars': {message}")


def test_determinism_across_hashseeds(tmp_path):
    """Byte-identical reports under different PYTHONHASHSEED values."""
    job = tmp_path / "job.txt"
    job.write_text(DEFCOUNT_JOB)
    outputs = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "defring.cli", "defcount", str(job),
             "--no-cache"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cache_roundtrip(tmp_path, monkeypatch):
    import defring.cli as cli
    monkeypatch.setattr(cli, "CACHE_DIR", str(tmp_path / "cache"))
    spec = JobSpec(command="etale-check",
                   blocks=parse_job_blocks(ETALE_PASS_JOB))
    assert cli.cache_lookup(spec) is None
    report, code = run_job(spec)
    cli.cache_store(spec, report, code)
    hit = cli.cache_lookup(spec)
    assert hit is not None
    assert hit["report"] == report and hit["exit_code"] == code
    # corrupt the cached verdict: re-verification must reject it
    path = cli._cache_path(spec)
    payload = json.loads(open(path).read())
    payload["report"]["result"]["reduced"] = False
    open(path, "w").write(json.dumps(payload))
    assert cli.cache_lookup(spec) is None


# -- error contract: every failure is a JSON error report with exit 1 --------------------

CAP_JOB = """\
ring {
  p = 2
  precision = 2
}
group {
  family = symmetric
  param = 3
}
rep {
  dimension = 2
}
"""

NOT_FINITE_JOB = """\
ring {
  p = 2
  precision = 2
  vars = X, Y
  relations = X*Y
}
"""

NO_PARAM_JOB = """\
ring {
  p = 2
  precision = 2
}
group {
  family = cyclic
}
"""

RELATIONS_WITHOUT_VARS_JOB = """\
ring {
  p = 2
  precision = 3
  relations = 5
}
"""


@pytest.mark.parametrize("command, text, flags, message", [
    ("defcount", CAP_JOB, ["--cap-maps", "10"], "exceed the cap 10"),
    ("fingerprint", NOT_FINITE_JOB, [], "not finite at this cap"),
    ("defcount", NO_PARAM_JOB, [], "needs a 'param'"),
    ("etale-check", ETALE_PASS_JOB, ["--output", "{tmp}/missing/report.json"],
     "No such file or directory"),
    ("fingerprint", RELATIONS_WITHOUT_VARS_JOB, [], "relations need variables"),
    ("order-bound", ORDER_BOUND_JOB.replace("  f2 = -T\n", ""), [], "missing key 'f2'"),
    ("order-bound", ORDER_BOUND_JOB, ["--degree-cap", "1"], "not finite at this cap"),
    ("defcount", DEFCOUNT_JOB.replace("p = 2", "p = X"), [],
     "key 'p' must be an integer"),
    ("maranda-check", MARANDA_JOB.replace("gen1 = 9", "gen1 = X"), [],
     "block 'lift2' key 'gen1': matrix entry 'X' must be an integer"),
], ids=["cap-exceeded", "not-finite-at-cap", "group-without-param",
        "unwritable-output", "relations-without-vars", "map-without-f2",
        "order-bound-degree-cap", "prime-not-an-integer", "lift-entry-not-an-integer"])
def test_error_paths_report_json(tmp_path, command, text, flags, message):
    job = tmp_path / "job.txt"
    job.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "defring.cli", command, str(job), "--no-cache",
         *[f.format(tmp=tmp_path) for f in flags]], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["tool"] == "defring" and message in err["error"]
    assert proc.stdout == ""


HUGE_PURE_POWER_JOB = """\
presentation {
  p = 2
  vars = X
  relations = X^99999999
}
"""


@pytest.mark.parametrize("command", ["etale-check", "w-check"])
def test_huge_pure_power_is_refused_before_the_fiber_is_listed(tmp_path, command):
    # the fiber's basis would be the 99999999 monomials below X^99999999,
    # too many to list, so the box size is compared with the cap first
    job = tmp_path / "job.txt"
    job.write_text(HUGE_PURE_POWER_JOB)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "defring.cli", command, str(job), "--no-cache"],
        capture_output=True, text=True)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == (
        "a rational fiber with up to 99999999 basis monomials, more than "
        "1000000, is outside the supported desk scale")
    assert proc.stdout == ""


@pytest.mark.parametrize("relation,message", [
    # the largest fiber admitted, of X^1000 - 2, answers in under a minute
    ("X^1001 - 2", "a rational fiber of dimension 1001, more than 1000, is outside "
                   "the supported desk scale"),
    # expanding (X + 1)^3000 alone took about 19 s
    ("(X + 1)^3000", "a power of degree 3000, more than 1000, is outside the "
                     "supported desk scale (at column 9)"),
    ("X^2 - (X^3 + 2)^334", "a power of degree 1002, more than 1000, is outside the "
                            "supported desk scale (at column 17)"),
])
def test_fibers_and_powers_above_the_dimension_guard_are_refused(tmp_path, relation, message):
    job = tmp_path / "job.txt"
    job.write_text(f"presentation {{\n  p = 2\n  vars = X\n  relations = {relation}\n}}\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "defring.cli", "etale-check", str(job), "--no-cache"],
        capture_output=True, text=True)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"].endswith(message)
    assert proc.stdout == ""


def test_a_power_of_too_many_terms_is_refused(tmp_path):
    # expanding (X + Y + Z)^80, 3321 terms, took about 7.7 s
    job = tmp_path / "job.txt"
    job.write_text("presentation {\n  p = 2\n  vars = X, Y, Z\n"
                   "  relations = (X + Y + Z)^80; Y^2; Z^2\n}\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "defring.cli", "etale-check", str(job), "--no-cache"],
        capture_output=True, text=True)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"].endswith(
        "a power of up to 3321 terms, more than 1001, is outside the supported desk "
        "scale (at column 13)")
    assert proc.stdout == ""


MARANDA_C2_INEQUIVALENT_JOB = (Path(__file__).resolve().parent.parent / "perfbench"
                               / "jobs" / "maranda_c2_inequivalent.job").read_text()


@pytest.mark.parametrize("command, text, flag, fields, message", [
    ("defcount", CAP_JOB, "--cap-maps", ("cap_maps", 256, 5),
     "256 candidate lifts exceed the cap 5"),  # 16 candidates per generator
    ("fingerprint", DEFCOUNT_JOB, "--cap-elements", ("cap_elements", 8, 5),
     "ring has 8 elements, above the cap 5"),  # Z/8
], ids=["cap-maps", "cap-elements"])
def test_cap_errors_carry_structured_fields(tmp_path, command, text, flag,
                                            fields, message):
    job = tmp_path / "job.txt"
    job.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "defring.cli", command, str(job), "--no-cache",
         flag, "5"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == message
    assert (err["cap"], err["needed"], err["limit"]) == fields


@pytest.mark.parametrize("command, text, expected", [
    # |1 + M_2(m)| is 256 over the maranda job's R/J, 16 over Z/4 (|m| = 2)
    ("maranda-check", MARANDA_C2_INEQUIVALENT_JOB, {"equivalent": False}),
    ("defcount", CAP_JOB, {"lift_count": 16, "class_count": 16}),
], ids=["maranda-kernel-group", "defcount-kernel-group"])
def test_kernel_group_order_reads_no_element_cap(tmp_path, command, text, expected):
    # the conjugator is solved for and orbits are walked over the layer
    # generators, so the kernel group is never listed and `--cap-elements`
    # bounds nothing these commands run: the flag changes only the job hash
    code, report = _main_run(tmp_path, command, text)
    assert code == 0
    capped_code, capped = _main_run(tmp_path, command, text, "--cap-elements", "5")
    assert capped_code == 0
    result = json.loads(report)["result"]
    assert json.loads(capped)["result"] == result
    assert {key: result[key] for key in expected} == expected
    assert json.loads(capped)["job_hash"] != json.loads(report)["job_hash"]


TANGENT_D4_JOB = """\
ring {
  p = 2
  precision = 1
}
group {
  family = dihedral
  param = 4
}
rep {
  dimension = 2
}
"""


def test_tangent_reads_no_map_cap(tmp_path):
    # the tangent dimension is solved for, so nothing is enumerated to cap
    code, text = _main_run(tmp_path, "tangent", TANGENT_D4_JOB)
    assert code == 0
    capped_code, capped = _main_run(tmp_path, "tangent", TANGENT_D4_JOB,
                                    "--cap-maps", "1")
    assert capped_code == 0
    result = json.loads(text)["result"]
    assert json.loads(capped)["result"] == result
    assert result == {"group": "D4", "q": 2, "class_count": 256, "dimension": 8}


def test_w_check_degree_cap_binds(tmp_path):
    # katsura-3 has a finite rational fiber, but its reduction mod 2 is not
    # finite, so the truncation runs to the cap; at the default cap 16 it
    # takes minutes
    job = Path(__file__).resolve().parent.parent / "perfbench" / "jobs" / "katsura3.job"
    start = time.perf_counter()
    code, text = _main_run(tmp_path, "w-check", job.read_text(),
                           "--precision", "1", "--degree-cap", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    result = json.loads(text)["result"]
    assert result["verdict"] == "undecided"
    assert result["note"] == "truncation did not stabilize at the degree cap"


HOM_COUNT_JOB = """\
source {
  p = 2
  precision = 3
  vars = X
  relations = X^2 - 2
}
target {
  p = 2
  precision = 3
  vars = X
  relations = X^2 - 2
}
"""

FINGERPRINT_JOB = """\
ring {
  p = 2
  precision = 3
}
"""

W_CHECK_JOB = """\
presentation {
  p = 5
  vars = X
  relations = X^2 - 5*X
}
"""

ETALE_FAIL_REPORT = {"verdict": "FAIL_NOT_REDUCED", "witness": None}


@pytest.mark.parametrize("command, text, field, value", [
    ("tangent", TANGENT_D4_JOB, "class_count", 128),
    ("defcount", DEFCOUNT_JOB, "orbit_sizes", [1, 1, 1, 2]),
    ("defcount", DEFCOUNT_JOB, "class_count", 3),
    ("hom-count", HOM_COUNT_JOB, "count", 99),
    ("hom-count", HOM_COUNT_JOB, "images", []),
    ("fingerprint", FINGERPRINT_JOB, "size", 7),
    ("fingerprint", FINGERPRINT_JOB, "maximal_ideal_size", 3),
    ("fingerprint", FINGERPRINT_JOB, "nilpotency_index_counts", [[1, 1], [2, 1]]),
    ("maranda-check", MARANDA_JOB, "certificate", None),
    ("maranda-check", MARANDA_JOB, "equivalent", False),
    ("w-check", W_CHECK_JOB, "verdict", "undecided"),
    ("w-check", W_CHECK_JOB, "torsion_free_at_precision", False),
    ("necessary-condition", ETALE_PASS_JOB, ("etale_report", "reduced"), False),
    ("necessary-condition", ETALE_PASS_JOB, "etale_report", ETALE_FAIL_REPORT),
    ("necessary-condition", ETALE_PASS_JOB, "interpretation", "universal"),
], ids=["tangent-count", "defcount-orbits", "defcount-classes", "hom-count",
        "hom-images", "fingerprint-size", "fingerprint-m-size",
        "fingerprint-nilpotency", "maranda-certificate", "maranda-equivalent",
        "w-check-verdict", "w-check-torsion", "necessary-etale-reduced",
        "necessary-etale-witness", "necessary-interpretation"])
def test_tampered_cached_report_is_recomputed(tmp_path, monkeypatch, command,
                                              text, field, value):
    """`field` names a key of the result, or a path of keys into it."""
    import defring.cli as cli
    monkeypatch.setattr(cli, "CACHE_DIR", str(tmp_path / "cache"))
    job = tmp_path / "job.txt"
    job.write_text(text)
    out = tmp_path / "out.json"
    assert main([command, str(job), "--output", str(out)]) == 0
    fresh = out.read_text()
    spec = JobSpec(command=command, blocks=parse_job_blocks(text))
    path = cli._cache_path(spec)
    payload = json.loads(open(path).read())
    *parents, key = field if isinstance(field, tuple) else (field,)
    result = payload["report"]["result"]
    for name in parents:
        result = result[name]
    assert result[key] != value
    result[key] = value
    open(path, "w").write(json.dumps(payload))
    assert cli.cache_lookup(spec) is None
    assert main([command, str(job), "--output", str(out)]) == 0
    assert out.read_text() == fresh
    assert cli.cache_lookup(spec)["report"] == json.loads(fresh)


def test_cache_store_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    import defring.cli as cli
    cache = tmp_path / "cache"
    monkeypatch.setattr(cli, "CACHE_DIR", str(cache))
    spec = JobSpec(command="etale-check",
                   blocks=parse_job_blocks(ETALE_PASS_JOB))
    report, code = run_job(spec)

    def failing_dump(obj, fh):
        fh.write('{"report": {"tool": "def')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", failing_dump)
    cli.cache_store(spec, report, code)
    assert os.listdir(cache) == []
    assert cli.cache_lookup(spec) is None
    monkeypatch.undo()
    monkeypatch.setattr(cli, "CACHE_DIR", str(cache))
    cli.cache_store(spec, report, code)
    assert os.listdir(cache) == [os.path.basename(cli._cache_path(spec))]
    assert cli.cache_lookup(spec)["report"] == report


# -- the CLI contract under fuzzing ------------------------------------------------------

def _corpus_jobs():
    """(command, job text) of every fixed job of the benchmark corpus."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import corpus
    finally:
        sys.path.remove(perfbench)
    return [(job.command, Path(job.path).read_text()) for job in corpus.FIXED]


FUZZ_JOBS = _corpus_jobs()
FUZZ_LINES = sorted({line for _, text in FUZZ_JOBS for line in text.splitlines()})
FUZZ_TOKENS = sorted({tok for line in FUZZ_LINES for tok in line.partition("=")[2].split()}
                     | {"", "0", "-1", "4", "99"})


class _Slow(BaseException):
    """The alarm of one fuzzed run: a BaseException, so that no handler in
    the CLI catches it."""


def _alarm(signum, frame):
    raise _Slow


@st.composite
def _mutated_jobs(draw):
    """A corpus job with one to three line mutations: a line deleted,
    duplicated, replaced by a corpus line or preceded by one, or (most
    often) a token of its value replaced by a corpus value token or a small
    integer; with its own command, or one time in five with any command."""
    command, text = draw(st.sampled_from(FUZZ_JOBS))
    if draw(st.integers(0, 4)) == 0:
        command = draw(st.sampled_from(COMMANDS))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(range(len(lines) + 1)))
        kind = draw(st.sampled_from(["delete", "duplicate", "replace", "insert"]
                                    + ["token"] * 4))
        if kind == "insert" or i == len(lines):
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "replace" or "=" not in lines[i]:
            lines[i] = draw(st.sampled_from(FUZZ_LINES))
        else:
            key, eq, value = lines[i].partition("=")
            tokens = value.split() or [""]
            tokens[draw(st.sampled_from(range(len(tokens))))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = f"{key}{eq} {' '.join(tokens)}"
    return command, "\n".join(lines) + "\n"


_SMALL_CAPS = st.fixed_dictionaries({}, optional={
    "--precision": st.integers(1, 4), "--cap-elements": st.integers(1, 4096),
    "--cap-maps": st.integers(1, 4096), "--degree-cap": st.integers(1, 8)})


@settings(max_examples=300, deadline=None)
@given(_mutated_jobs(), _SMALL_CAPS)
def test_cli_contract_under_fuzzing(job, caps):
    # a mutated corpus job under small caps: the exit code is 0, 1 or 2,
    # exit 1 comes with a JSON error report on stderr, and no exception
    # escapes; a run the alarm stops after a second decides nothing
    command, text = job
    argv = [command, "-", "--no-cache", *(str(x) for kv in caps.items() for x in kv)]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with mock.patch("sys.stdin", io.StringIO(text)), \
                    redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Slow:
        return
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    if code == 1:
        report = json.loads(err.getvalue())
        assert report["tool"] == "defring" and report["error"]
    else:
        assert json.loads(out.getvalue())["tool"] == "defring"
