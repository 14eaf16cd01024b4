"""Benchmark of torsiontraj: one workload, one seed, one line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

* ``cli-session``: the paper's CLI commands, one subprocess at a time.
* ``ak-family``: in-process trajectory rows of A_k rendered as JSON.
* ``presentations``: in-process queries on seeded arbitrary inputs.

Each is a closed loop with one caller: the next job starts when the
previous one has returned.  The seeded job list runs pass after pass
until ``--seconds`` have elapsed.  The first pass is checked against
independent oracles; every later pass must reproduce the first pass's
outputs byte for byte.

Job and set-up times are scaled by a calibration kernel timed around
each of them, so that the drifting speed of a shared host cancels out;
see calibration.py.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half with the per-layer
tracer installed, and reports calls and self time per pass for every
traced function, size counters, the bare interpreter start-up time and
the tracer's overhead.

The library is imported from the checkout's ``src/`` directory, never
from an installed copy.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the sample
counts and a SHA-256 digest of the workload's outputs.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import jobs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed for set-up (import torsiontraj.cli): a few
# before the first pass, one after each pass, and at least this many in
# all; the median is reported.
SETUP_SAMPLES = 11
IMPORT_CODE = "import torsiontraj.cli"
SUBPROCESS_TIMEOUT_S = 120

# Layers each workload must reach, and layers it must never reach.  A
# tracer that missed a name imported into another module would show up
# here as zero calls.
MUST_CALL = {
    "cli-session": ("cli.run", "serialize.markdown_table", "trajectory.trajectory_row"),
    "ak-family": ("monodromy.coxeter_element", "intmat.rat_inverse", "intmat.snf"),
    "presentations": ("intmat.snf", "intmat.kernel_basis", "abgroup.from_orders",
                      "lattice.forms_isomorphic", "intmat.char_poly"),
}
MUST_NOT_CALL = {
    "cli-session": (),
    "ak-family": ("cli.run", "intmat.char_poly", "lattice.forms_isomorphic"),
    "presentations": ("monodromy.coxeter_element", "trajectory.trajectory_row", "cli.run"),
}


def child_env():
    """Environment of every subprocess: the checkout's src/ first, bytecode on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, env, cwd):
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=False)


def start_bare(env, cwd):
    """A calibration kernel for subprocess timings: start ``python -c pass``."""
    def start():
        done = run_child([sys.executable, "-c", "pass"], env, cwd)
        if done.returncode != 0:
            raise RuntimeError(f"bare interpreter failed: {done.stderr.strip()}")
    return start


class StartTimer:
    """Scaled wall times of fresh interpreters running ``import torsiontraj.cli``."""

    def __init__(self, env, cwd, calibrator):
        self.spans = []
        self.env = env
        self.cwd = cwd
        self.calibrator = calibrator

    def once(self):
        done, start, end = self.calibrator.timed(
            lambda: run_child([sys.executable, "-c", IMPORT_CODE], self.env, self.cwd))
        if isinstance(done, Exception):
            raise done
        if done.returncode != 0:
            raise RuntimeError(f"{IMPORT_CODE!r} failed: {done.stderr.strip()}")
        return start, end

    def sample(self, rounds=1):
        for _ in range(rounds):
            self.spans.append(self.once())

    def median_s(self):
        while len(self.spans) < SETUP_SAMPLES:
            self.sample()
        self.calibrator.settle()  # a kernel sample after the last set-up
        return statistics.median(self.calibrator.scaled_ms(*span) for span in self.spans) / 1000


def git_revision():
    """The checkout's commit from .git, or "unknown" outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class CliRunner:
    """Runs cli-session jobs as subprocesses, optionally under the tracer."""

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env
        self.tracer = None

    def prepare(self, index, job):
        argv = list(job[1]["argv"])
        if "{gram}" in argv:
            path = Path(self.workdir) / f"gram{index}.json"
            path.write_text(json.dumps({"gram": job[1]["gram"]}))
            argv[argv.index("{gram}")] = str(path)
        return lambda: self.call(argv)

    def call(self, argv):
        if self.tracer is None:
            done = run_child([sys.executable, "-m", "torsiontraj.cli", *argv],
                             self.env, self.workdir)
            return done.returncode, done.stdout
        out = Path(self.workdir) / "trace.json"
        out.unlink(missing_ok=True)
        done = run_child([sys.executable, str(HERE / "trace_child.py"), str(SRC), str(out), *argv],
                         self.env, self.workdir)
        self.tracer.merge(json.loads(out.read_text()))
        return done.returncode, done.stdout


class Session:
    """The jobs of one run, their latencies and the verdict on their outputs."""

    def __init__(self, job_list, calls, calibrator):
        self.jobs = job_list
        self.calls = calls
        self.calibrator = calibrator
        self.attempted = 0
        self.failures = []
        self.reference = [None] * len(job_list)  # canonical output of the first pass
        self.passes = 0

    def run_passes(self, seconds, between_passes):
        """Run whole passes until ``seconds`` have elapsed, calling
        ``between_passes`` after each; per-job (start_s, end_s) spans."""
        spans = [[] for _ in self.jobs]
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for i, (job, call) in enumerate(zip(self.jobs, self.calls)):
                self.attempted += 1
                output, start, end = self.calibrator.timed(call)
                spans[i].append((start, end))
                if isinstance(output, Exception):  # a raising job is a failed job
                    self.failures.append(f"{job[0]} #{i} raised {output!r}")
                else:
                    self.verify(i, job, output)
            passes += 1
            between_passes()
        self.calibrator.settle()  # samples after the last job
        self.passes += passes
        return spans

    def verify(self, i, job, output):
        canon = jobs.canonical(output)
        if self.reference[i] is None:
            reason = jobs.CHECKS[job[0]](job, output)
            if reason is not None:
                self.failures.append(f"{job[0]} #{i}: {reason}")
            self.reference[i] = canon
        elif canon != self.reference[i]:
            self.failures.append(f"{job[0]} #{i}: output differs from the first pass")

    def digest(self):
        sha = hashlib.sha256()
        for canon in self.reference:
            sha.update(canon or b"")
            sha.update(b"\0")
        return sha.hexdigest()


def summarize(spans, calibrator):
    """Latency statistics of per-job spans, in scaled milliseconds.

    wall_s is the sum over jobs of each job's median latency: the time to
    finish the job list once, robust to a pass that a noisy neighbour
    slowed.  raw_wall_s is the same sum of unscaled wall times."""
    latencies = [[calibrator.scaled_ms(*span) for span in per_job] for per_job in spans]
    pooled = [x for per_job in latencies for x in per_job]
    deciles = statistics.quantiles(pooled, n=10, method="inclusive")
    return {
        "wall_s": sum(statistics.median(per_job) for per_job in latencies) / 1000,
        "job_p50_ms": statistics.median(pooled),
        "job_p90_ms": deciles[8],
        "raw_wall_s": sum(statistics.median(end - start for start, end in per_job)
                          for per_job in spans),
        "samples": len(pooled),
        "above_p90": sum(1 for x in pooled if x > deciles[8]),
    }


def layer_violations(workload, tracer):
    problems = []
    for name in MUST_CALL[workload]:
        if tracer.calls[name] == 0:
            problems.append(f"{name} was never called")
    for name in MUST_NOT_CALL[workload]:
        if tracer.calls[name] != 0:
            problems.append(f"{name} was called {tracer.calls[name]} times")
    return problems


def run(workload, seed, seconds, trace):
    job_list = jobs.make_jobs(workload, seed)
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        starts = StartTimer(env, workdir, calibration.process_start(start_bare(env, workdir)))
        starts.once()  # compiles the bytecode; set-up is timed warm
        starts.sample(rounds=5)

        if workload == "cli-session":
            runner = CliRunner(workdir, env)
            calls = [runner.prepare(i, job) for i, job in enumerate(job_list)]
            calibrator = starts.calibrator
        else:
            runner = None
            calls = [jobs.prepare(job) for job in job_list]
            calibrator = calibration.in_process()
        session = Session(job_list, calls, calibrator)

        violations = []
        if not trace:
            stats = summarize(session.run_passes(seconds, starts.sample), calibrator)
            usage = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": (starts.median_s(), "s"),
                "wall_s": (stats["wall_s"], "s"),
                "job_p50_ms": (stats["job_p50_ms"], "ms"),
                "job_p90_ms": (stats["job_p90_ms"], "ms"),
                "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
            }
        else:
            untraced = summarize(session.run_passes(seconds / 2, starts.sample), calibrator)
            tracer = Tracer()
            before = session.passes
            if runner is not None:
                runner.tracer = tracer
            else:
                tracer.install()
            try:
                traced = summarize(session.run_passes(seconds / 2, starts.sample), calibrator)
            finally:
                tracer.uninstall()
            stats = traced
            metrics = tracer.layer_metrics(session.passes - before)
            metrics["python.startup_ms"] = (starts.calibrator.median_ms(), "ms")
            metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1, "ratio")
            violations = layer_violations(workload, tracer)

        info = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "revision": git_revision(),
            "jobs_per_pass": len(job_list),
            "passes": session.passes,
            "samples": stats["samples"],
            "samples_above_p90": stats["above_p90"],
            "raw_wall_s": stats["raw_wall_s"],
            "kernel_median_ms": calibrator.median_ms(),
            "bare_start_median_ms": starts.calibrator.median_ms(),
            "output_sha256": session.digest(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in (session.failures + violations)[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "info": info,
        "result": {
            "correct": not session.failures and not violations,
            "attempted": session.attempted,
            "failed": len(session.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torsiontraj" / "__init__.py").is_file():
        print(f"error: no torsiontraj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import torsiontraj

    if Path(torsiontraj.__file__).resolve().parent != SRC / "torsiontraj":
        print(f"error: imported torsiontraj from {torsiontraj.__file__}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": report["info"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
