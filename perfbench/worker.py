"""Benchmark worker: runs defring jobs through `defring.cli.main` in this process.

Started by run.py with the path of a plan file.  It imports `defring.cli`,
reads the job files, prints READY (the parent's set-up clock stops there),
prints the harmonic mean time of SETUP_UNITS reference units (see reference.py), and
then runs the jobs closed-loop, one at a time: the next job starts when
the previous report is written.  Its result goes to the plan's result path.

Modes:
  setup   stop after READY
  timed   one pass over the jobs, then further rounds, each running every
          job whose fastest time still fits in the remaining seconds; within
          a round a job shorter than BATCH_S repeats until its batch has run
          that long, so millisecond jobs get many repeats.  A SpeedProbe
          times the reference unit throughout, and each execution records
          its time in reference units next to its time in seconds
  trace   arithmetic micro-loops, one untraced pass, then one traced pass
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256

import reference

BATCH_S = 0.3
SETUP_UNITS = 5


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    import defring.cli as cli
    for job in plan["jobs"]:
        with open(job["path"], encoding="utf-8") as fh:
            fh.read()
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    # the machine's speed right after set-up, by which the parent scales it
    speed = SpeedProbe()
    for _ in range(SETUP_UNITS):
        speed.sample()
    sys.stdout.write(f"{statistics.harmonic_mean(speed.samples)!r}\n")
    sys.stdout.flush()
    if plan["mode"] == "setup":
        return 0

    runner = Runner(plan["jobs"], cli.main)
    result = {}
    if plan["mode"] == "timed":
        runner.probe = SpeedProbe()
        runner.probe.start()
        try:
            runner.run_for(plan["seconds"])
        finally:
            runner.probe.stop()
        result["unit_s"] = runner.probe.samples
    else:
        import tracing
        result["micro"] = tracing.micro_metrics()
        runner.run_pass()
        result["untraced_wall_s"] = runner.pass_wall
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runner.run_pass(tracer)
        result["traced_wall_s"] = runner.pass_wall
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        tracer.write(plan["spans_path"])
    result["jobs"] = runner.stats
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


class SpeedProbe:
    """Times `reference.unit()` every SAMPLE_PERIOD_S seconds from a SIGALRM
    handler, and whenever `sample` is called."""

    def __init__(self):
        self.samples = []  # duration of each unit, in order
        self.intervals = []  # (start, end) of each unit, in order
        self.busy = False

    def sample(self, *_) -> None:
        if self.busy:  # the timer fired during a unit: that unit is the sample
            return
        self.busy = True
        start = time.perf_counter()
        reference.unit()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.intervals.append((start, end))
        self.busy = False

    def overlap(self, first: int, start: float, end: float) -> float:
        """Seconds of [start, end] spent in the units from index `first` on."""
        return sum(max(0.0, min(u_end, end) - max(u_start, start))
                   for u_start, u_end in self.intervals[first:])

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        period = reference.SAMPLE_PERIOD_S
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Runner:
    def __init__(self, jobs, cli_main):
        self.jobs = jobs
        self.cli_main = cli_main
        self.stats = {job["name"]: {"times": [], "units": [], "outcomes": {}}
                      for job in jobs}
        self.pass_wall = 0.0
        self.probe = None

    def execute(self, job, tracer=None) -> float:
        """Run `job` once and record its outcome; returns its time in seconds,
        without the time the probe's handler took during it."""
        out = job["output"]
        if os.path.exists(out):
            os.remove(out)  # a failing run must not leave the last report behind
        sink = io.StringIO()
        error = None
        code = None
        probe = self.probe
        if probe is not None:
            first = len(probe.samples) - 1  # the last unit before the job
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli_main(job["argv"])
                else:
                    tracer.job = job["name"]
                    code = tracer.call("job", self.cli_main, job["argv"])
            except (Exception, SystemExit) as exc:  # a failed job, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        elapsed = end - start
        stats = self.stats[job["name"]]
        if probe is not None:
            elapsed -= probe.overlap(first, start, end)
            probe.sample()
            # the units timed just before, during and just after the job; their
            # harmonic mean, because the job's progress adds up speeds, not times
            stats["units"].append(elapsed / statistics.harmonic_mean(probe.samples[first:]))
        report = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                report = fh.read()
        digest = sha256(report).hexdigest() if report is not None else None
        stats["times"].append(elapsed)
        key = json.dumps([digest, code, error])
        entry = stats["outcomes"].get(key)
        if entry is None:
            entry = stats["outcomes"][key] = {
                "digest": digest, "code": code, "error": error, "count": 0,
                "report": report.decode() if report is not None else None}
        entry["count"] += 1
        return elapsed

    def run_pass(self, tracer=None) -> None:
        self.pass_wall = sum(self.execute(job, tracer) for job in self.jobs)

    def run_batch(self, job, deadline: float) -> float:
        """Run `job` once, then again while its batch is shorter than BATCH_S and
        its fastest time still fits before `deadline`; returns the fastest time."""
        spent = fastest = self.execute(job)
        while spent < BATCH_S and fastest <= deadline - time.perf_counter():
            t = self.execute(job)
            spent += t
            fastest = min(fastest, t)
        return fastest

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        fastest = {job["name"]: self.run_batch(job, deadline) for job in self.jobs}
        ran = True
        while ran:
            ran = False
            # cheapest first, so short jobs gather repeats before a long one
            # takes the rest of the time
            for job in sorted(self.jobs, key=lambda j: fastest[j["name"]]):
                if fastest[job["name"]] <= deadline - time.perf_counter():
                    t = self.run_batch(job, deadline)
                    fastest[job["name"]] = min(fastest[job["name"]], t)
                    ran = True

if __name__ == "__main__":
    sys.exit(main())
