#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of defring.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deform --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --self-check

Each run spawns one worker process (worker.py) with HOME set to a fresh
directory under .perfbench/, so the user's ~/.cache/defring is never touched.
The worker runs the workload's jobs closed-loop through `defring.cli.main`.
With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced pass.
Metric names and units are read from BENCHMARK.json; workloads, jobs and
checks are in corpus.py; which end-to-end metric each layer metric should move
is in layers.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "defring")
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

# set-up-only workers spawned before and again after the measuring worker,
# which adds one more sample; setup_s is the median of their scaled set-up times
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s
HASHSEED = "0"

import corpus  # noqa: E402  (this directory is sys.path[0])
import reference  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


# -- worker processes -----------------------------------------------------------------


def fresh_home(tmp: str) -> str:
    return tempfile.mkdtemp(prefix="home-", dir=tmp)


def spawn(plan: Dict, tmp: str, home: str, hashseed: str, timeout: float) -> Dict:
    """Run one worker to completion; returns the seconds from spawn to READY
    (`ready_s`) and the harmonic mean time of the reference units it ran right after
    (`ready_unit_s`)."""
    fd, plan_path = tempfile.mkstemp(suffix=".json", dir=tmp)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, HOME=home, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
    err_path = plan_path + ".stderr"
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, plan_path], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            # read the unit line through the same buffer as READY: communicate()
            # reads the pipe directly and would miss a line already buffered
            unit_line = proc.stdout.readline()
            proc.communicate(timeout=max(1.0, timeout - ready))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker exceeded {timeout:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "READY" or proc.returncode != 0 or not unit_line.strip():
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker exited with code {proc.returncode}:\n{tail}")
    return {"ready_s": ready, "ready_unit_s": float(unit_line)}


def job_plan(jobs: List[corpus.Job], tmp: str, cache: bool) -> List[Dict]:
    out_dir = tempfile.mkdtemp(prefix="out-", dir=tmp)
    plan = []
    for i, job in enumerate(jobs):
        output = os.path.join(out_dir, f"{i}.json")
        plan.append({"name": job.name, "path": job.path, "output": output,
                     "argv": job.argv(output, cache)})
    return plan


def run_worker(mode: str, jobs: List[corpus.Job], tmp: str, home: str,
               hashseed: str, timeout: float, seconds: float = 0.0,
               cache: bool = False, spans_path: str = "") -> Dict:
    fd, result_path = tempfile.mkstemp(prefix=f"result-{mode}-", suffix=".json", dir=tmp)
    os.close(fd)
    plan = {"mode": mode, "jobs": job_plan(jobs, tmp, cache), "seconds": seconds,
            "result_path": result_path, "spans_path": spans_path}
    ready = spawn(plan, tmp, home, hashseed, timeout)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(ready)
    return result


# -- the replay cache --------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cache_snapshot(home: str) -> Dict[str, tuple]:
    d = os.path.join(home, ".cache", "defring")
    if not os.path.isdir(d):
        return {}
    return {n: (os.stat(os.path.join(d, n)).st_mtime_ns, os.path.getsize(os.path.join(d, n)))
            for n in os.listdir(d)}


def warm_cache(jobs: List[corpus.Job], tmp: str, deadline: float) -> str:
    """Directory of cache files for `jobs`, filled once per source version by an
    untimed worker with the cache on, and kept under .perfbench/ for later runs."""
    h = hashlib.sha256(source_digest().encode())
    h.update(sys.version.encode())
    for job in jobs:
        h.update(json.dumps([job.command, job.flags]).encode())
        with open(job.path, "rb") as fh:
            h.update(fh.read())
    path = os.path.join(STATE, "warm", h.hexdigest()[:32])
    if os.path.isdir(path):
        return path
    home = fresh_home(tmp)
    run_worker("timed", jobs, tmp, home, HASHSEED, deadline - time.perf_counter(),
               cache=True)
    filled = os.path.join(home, ".cache", "defring")
    os.makedirs(filled, exist_ok=True)
    partial = f"{path}.partial-{os.getpid()}"
    shutil.copytree(filled, partial)
    os.replace(partial, path)
    return path


# -- one run -----------------------------------------------------------------------------


def declared_metrics(kind: str) -> Dict[str, Dict]:
    """The `end_to_end` or `per_layer` metrics of BENCHMARK.json, by name."""
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 hashseed: str = HASHSEED) -> Dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(STATE, "warm"), exist_ok=True)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(STATE, "tmp"))
    try:
        workload = corpus.WORKLOADS[name]
        jobs = corpus.workload_jobs(name, seed, tmp)
        warm = warm_cache(jobs, tmp, deadline) if workload.cache else None
        setup = [] if trace else run_workers_setup(jobs, tmp, hashseed)
        home = fresh_home(tmp)
        if warm is not None:
            shutil.copytree(warm, os.path.join(home, ".cache", "defring"))
        before = cache_snapshot(home)
        tag = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}"
        spans_path = os.path.join(STATE, "results", f"spans-{tag}.jsonl")
        res = run_worker("trace" if trace else "timed", jobs, tmp, home, hashseed,
                         deadline - time.perf_counter(), seconds=seconds,
                         cache=workload.cache, spans_path=spans_path)
        if not trace:
            setup += [{k: res[k] for k in ("ready_s", "ready_unit_s")}]
            setup += run_workers_setup(jobs, tmp, hashseed)
        after = cache_snapshot(home)
        run_problems = []
        if workload.cache and after != before:
            run_problems.append("replay wrote to the cache: a lookup missed")
        if not workload.cache and after:
            run_problems.append("a --no-cache job wrote to the cache directory")
        return summarize(name, seed, trace, hashseed, jobs, res, setup, run_problems, tag)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_workers_setup(jobs, tmp, hashseed) -> List[Dict]:
    return [spawn({"mode": "setup", "jobs": job_plan(jobs, tmp, False)}, tmp,
                  fresh_home(tmp), hashseed, 60.0) for _ in range(SETUP_SAMPLES)]


def summarize(name, seed, trace, hashseed, jobs, res, setup, run_problems, tag) -> Dict:
    expected = corpus.load_expected()
    attempted = failed = 0
    problems = list(run_problems)
    per_job = {}
    for job in jobs:
        stats = res["jobs"][job.name]
        digests = set()
        for o in stats["outcomes"].values():
            attempted += o["count"]
            digests.add(o["digest"])
            reason = corpus.check(expected, job, o["digest"], o["code"], o["report"],
                                  o["error"])
            if reason is not None:
                failed += o["count"]
                problems.append(f"{job.name}: {reason}")
        per_job[job.name] = {"min_s": min(stats["times"]),
                             "median_s": statistics.median(stats["times"]),
                             "runs": len(stats["times"]), "digests": sorted(map(str, digests))}
        if stats["units"]:
            per_job[job.name]["scaled_s"] = statistics.median(stats["units"]) * reference.UNIT_S
    failed += len(run_problems)
    fastest = [j["min_s"] for j in per_job.values()]
    raw = {}
    if trace:
        values = dict(res["layers"])
        values.update(res["micro"])
        values["trace.overhead_s"] = res["traced_wall_s"] - res["untraced_wall_s"]
        spec = declared_metrics("per_layer")
    else:
        scaled = [j["scaled_s"] for j in per_job.values()]
        values = {
            "setup_s": statistics.median(
                s["ready_s"] / s["ready_unit_s"] * reference.UNIT_S for s in setup),
            "scaled_wall_s": sum(scaled),
            "scaled_geomean_s": geomean(scaled),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        # what the user waited for on this machine, in its fast stretches;
        # printed, not gated, because the machine's speed moves it
        raw = {"setup_fastest_s": min(s["ready_s"] for s in setup),
               "wall_s": sum(fastest), "job_geomean_s": geomean(fastest),
               "unit_median_s": statistics.median(res["unit_s"])}
        spec = declared_metrics("end_to_end")
    if set(values) != set(spec):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(spec))}")
    metrics = {k: {"value": values[k], "unit": m["unit"]} for k, m in spec.items()}
    summary = {
        "provenance": provenance(seed, hashseed),
        "workload": name, "trace": trace, "seconds_setup": setup,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": problems, "jobs": per_job, "raw": raw,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if trace:
        summary["spans"] = res["spans"]
    with open(os.path.join(STATE, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def git_sha() -> Optional[str]:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def provenance(seed: int, hashseed: str) -> Dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "seed": seed, "pythonhashseed": hashseed}


# -- self-check ---------------------------------------------------------------------------


def self_check() -> List[str]:
    """The benchmark's own test on the smoke jobs: run, trace and check paths,
    determinism of reports across hash seeds and of counts across traced runs."""
    problems = []
    runs = {
        "timed": run_workload("smoke", 1, 1.0, False, "0"),
        "timed-other-hashseed": run_workload("smoke", 1, 1.0, False, "12345"),
        "trace": run_workload("smoke", 1, 1.0, True),
        "trace-again": run_workload("smoke", 1, 1.0, True),
        "replay": run_workload("smoke-replay", 1, 1.0, False),
        "replay-trace": run_workload("smoke-replay", 1, 1.0, True),
    }
    for label, r in runs.items():
        if not r["correct"]:
            problems.append(f"{label}: {r['problems']}")
    a, b = runs["timed"]["jobs"], runs["timed-other-hashseed"]["jobs"]
    for job in a:
        if a[job]["digests"] != b[job]["digests"]:
            problems.append(f"{job}: report bytes depend on PYTHONHASHSEED")
    counts = [k for k, m in declared_metrics("per_layer").items()
              if m["unit"] in ("count", "bits")]
    t1, t2 = runs["trace"]["metrics"], runs["trace-again"]["metrics"]
    for m in counts:
        if t1[m]["value"] != t2[m]["value"]:
            problems.append(f"{m} differs across traced runs: "
                            f"{t1[m]['value']} vs {t2[m]['value']}")
    rt = runs["replay-trace"]
    if rt["metrics"]["cli.cache_misses"]["value"] != 0 or \
            rt["metrics"]["cli.cache_hits"]["value"] * 2 != rt["attempted"]:
        problems.append("replay did not answer every traced job from the cache")
    return problems


def print_result(summary: Dict) -> None:
    print("provenance " + json.dumps(summary["provenance"], sort_keys=True))
    for job, s in summary["jobs"].items():
        scaled = f", scaled {s['scaled_s']:.6f} s" if "scaled_s" in s else ""
        print(f"job {job}: min {s['min_s']:.6f} s, median {s['median_s']:.6f} s"
              f"{scaled} over {s['runs']} runs")
    for p in summary["problems"]:
        print(f"FAILED {p}")
    for k, m in summary["metrics"].items():
        print(f"{k} {m['value']} {m['unit']}")
    for k, v in summary["raw"].items():
        print(f"{k} {v} s")
    print(f"failed_ratio {summary['failed_ratio']} ratio")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM unwind as on an error, so that `spawn` kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.stderr.write(f"no defring sources under {SRC}; run from a checkout\n")
        return 2
    try:
        if args.self_check:
            problems = self_check()
            for p in problems:
                print(f"FAILED {p}")
            print("self-check " + ("failed" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
