"""quandlekit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Each pass of the workload's fixed job list runs in a fresh interpreter
(worker.py); passes repeat while another one fits in ``--seconds``, and
there is always at least one.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics, medians over the passes; with ``--trace 1``
untraced and traced passes alternate and it holds the per-layer metrics
and the tracing overhead; a traced run also runs the workload's
known-failure probes.  The line before it holds the run's metadata.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("census", "translations", "ring-fp", "filtration-z")
# Per-job deadline in seconds.  `enumerate 6` alone takes 20-35 s on a
# 2-vCPU machine, so the census deadline is wider; elsewhere 10 s leaves
# room for the 3 s that a structural search is expected to need on Conj(S_4).
DEADLINES = {"census": 60.0, "translations": 10.0, "ring-fp": 10.0, "filtration-z": 10.0}
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 9
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
OVERHEAD = "trace.overhead_s"


class BenchError(Exception):
    pass


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def percentile_resolved(count, p):
    """A percentile of `count` samples is resolved when at least ten
    samples lie beyond it (p90 needs 100 jobs, p50 needs 20)."""
    return count - max(1, math.ceil(p / 100.0 * count)) >= 10


def per_layer_unit(name):
    if name.endswith("self_s") or name == OVERHEAD:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
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
        pass
    return "unknown"


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = DEADLINES[workload]
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, mode, timeout=None):
        remaining = RUN_BUDGET_S - self.elapsed()
        timeout = remaining if timeout is None else min(timeout, remaining)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload, str(self.seed), mode, repr(self.deadline)]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("%s pass did not end within the run's %g s budget" % (mode, RUN_BUDGET_S)) from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("%s pass exited %d: %s" % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - start
        except ValueError:
            raise BenchError("%s pass printed no result: %s" % (mode, proc.stdout.strip()[-500:])) from None


def _probe_status(job):
    """A probe passes, fails in its known way, or gives a wrong answer."""
    if job["failed"] is None:
        return "passes"
    if job["failed"].startswith(job["known_failure"]):
        return "known failure: " + job["failed"][:120]
    return "wrong: " + job["failed"][:200]


def measure(workload, seed, seconds, trace):
    """Run the passes, then report (result line, metadata)."""
    runner = Runner(workload, seed)
    modes = ("run", "trace") if trace else ("run",)
    passes = {mode: [] for mode in modes}
    setups, raw_setups, longest, count = [], [], 0.0, 0
    while True:
        mode = modes[count % len(modes)]
        result, took = runner.child(mode)
        passes[mode].append(result)
        setups.append(result["setup_s"])
        raw_setups.append(result["raw_setup_s"])
        longest, count = max(longest, took), count + 1
        if count % len(modes) == 0 and runner.elapsed() + len(modes) * longest > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        result = runner.child("setup")[0]
        setups.append(result["setup_s"])
        raw_setups.append(result["raw_setup_s"])
    # The known-failure probes cost up to a deadline each, so only traced
    # runs, which report no timings of their own, pay for them.
    probes = runner.child("probe", timeout=runner.deadline + 60.0)[0]["jobs"] if trace else []

    jobs = [job for mode in modes for p in passes[mode] for job in p["jobs"]]
    failures = [(job["name"], job["failed"]) for job in jobs if job["failed"]]
    probe_report = [{"name": job["name"], "ms": job["ms"], "status": _probe_status(job)} for job in probes]
    wrong_probe = any(p["status"].startswith("wrong") for p in probe_report)

    run = passes["run"]
    jobs_per_pass = len(run[0]["jobs"])
    walls = [p["wall_s"] for p in run]
    # each job's median latency over the passes, then the percentile over jobs
    latencies = [statistics.median(p["jobs"][i]["ms"] for p in run) for i in range(jobs_per_pass)]
    job_ms = {"p%d" % q: percentile(latencies, q) if percentile_resolved(jobs_per_pass, q) else None for q in (50, 90)}
    if trace:
        traced = passes["trace"]
        names = list(traced[0]["per_layer"])
        values = {name: statistics.median(p["per_layer"][name] for p in traced) for name in names}
        # the traced passes run without the speed sampler: compare raw times
        values[OVERHEAD] = statistics.median(p["raw_wall_s"] for p in traced) - statistics.median(
            p["raw_wall_s"] for p in run
        )
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "deadline_s": runner.deadline,
        "src_lines": _src_lines(),
        "passes": {mode: len(passes[mode]) for mode in modes},
        "pass_wall_s": [p["wall_s"] for p in run],
        "pass_raw_wall_s": {mode: [p["raw_wall_s"] for p in passes[mode]] for mode in modes},
        "raw_setup_s": statistics.median(raw_setups),
        "setup_samples": len(setups),
        "jobs_per_pass": jobs_per_pass,
        "job_ms": job_ms,
        "probes": probe_report,
        "failures": failures[:20],
        "elapsed_s": runner.elapsed(),
    }
    if trace:
        layers = {name[: -len(".self_s")]: v for name, v in values.items() if name.count(".") == 1 and name.endswith(".self_s")}
        meta["layer_self_s"] = sorted(layers.items(), key=lambda kv: -kv[1])
        meta["absent"] = traced[0]["absent"]
        meta["trace_overhead_s"] = values[OVERHEAD]
    line = {
        "correct": not failures and not wrong_probe,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }
    return line, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quandlekit", "__init__.py")):
        print("error: no quandlekit sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        line, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
