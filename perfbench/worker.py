"""One pass of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py <workload> <seed> <mode> <deadline_s>

mode is ``setup`` (build the inputs and stop), ``run`` (run the job list),
``trace`` (run it with the span recorder installed) or ``probe`` (run the
workload's known-failure probes).  A fresh interpreter per pass means the
library's own ``lru_cache``s start cold, as they do for a CLI user.  The
pass is a closed loop with one client: each job starts when the previous
one has returned.  The speed sampler (speed.py) runs from the first line,
so ``setup_s`` and ``wall_s`` are in reference seconds; ``raw_setup_s``
and ``raw_wall_s`` are the same intervals in seconds.  The last line of
stdout is one JSON object.
"""

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()
START = SAMPLER.mark()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


class Deadline(BaseException):
    """Raised in the job when it passes its deadline.  A BaseException, so
    that the library's own ``except`` clauses cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _run_jobs(bodies, deadline, recorder):
    raws, seconds = [], []
    signal.signal(signal.SIGALRM, _on_alarm)
    for i, body in enumerate(bodies):
        root = recorder.begin_job(i) if recorder else None
        start = SAMPLER.now()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            raw = ("ok", body())
        except Deadline:
            raw = ("failed", "passed its %g s deadline" % deadline)
        except Exception as exc:  # a job's failure is recorded, the pass goes on
            raw = ("failed", "%s: %s" % (type(exc).__name__, exc))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds.append(SAMPLER.now() - start)
        if recorder:
            recorder.end_job(root)
        raws.append(raw)
    return raws, seconds


def main(argv):
    workload, seed, mode, deadline = argv[0], argv[1], argv[2], float(argv[3])
    sys.path.insert(0, SRC)
    import quandlekit

    if not os.path.abspath(quandlekit.__file__).startswith(SRC + os.sep):
        raise SystemExit("quandlekit was imported from %s, not from %s" % (quandlekit.__file__, SRC))
    import ops
    import oracle
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        reference = oracle.load_reference()
        if mode == "probe":
            specs = workloads.probe_specs(workload, seed)
        else:
            specs = workloads.job_specs(workload, seed, reference)
        bodies = [ops.prepare(spec, i, workdir) for i, spec in enumerate(specs)]
        result = dict(zip(("raw_setup_s", "setup_s"), SAMPLER.interval(START, SAMPLER.mark())))
        if mode != "setup":
            recorder = None
            if mode == "trace":
                import tracing

                # the sampler's handler would land in the spans' self time
                SAMPLER.stop()
                recorder = tracing.SpanRecorder()
                recorder.install()
            start = SAMPLER.mark()
            raws, seconds = _run_jobs(bodies, deadline, recorder)
            result["raw_wall_s"], result["wall_s"] = SAMPLER.interval(start, SAMPLER.mark())
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            jobs = []
            for spec, (status, value), secs in zip(specs, raws, seconds):
                reason = value
                if status == "ok":
                    try:
                        reason = ops.check(spec, value, reference)
                    except Exception as exc:  # malformed output is a wrong answer
                        reason = "output not checkable: %s: %s" % (type(exc).__name__, exc)
                jobs.append({"name": spec["name"], "ms": secs * 1000.0, "failed": reason})
                if "known_failure" in spec:
                    jobs[-1]["known_failure"] = spec["known_failure"]
            result["jobs"] = jobs
            if recorder:
                result["per_layer"] = recorder.report()
                result["absent"] = recorder.absent
                recorder.write(os.path.join(OUT, "spans-%s.tsv.gz" % workload))
    finally:
        SAMPLER.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
