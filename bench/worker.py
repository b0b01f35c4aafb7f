"""One long-lived workload process: a closed loop of CLI jobs.

    python3 bench/worker.py <src dir> <plan.json> <result.json>

The plan names the job list, the time to measure for and whether to trace.
One client sends each job (`delta_kernel.cli.main(argv, stdout=...)`) only
after the previous one has returned.  Untraced, the worker repeats the whole
list while the next pass still fits in the measuring time (at least one
pass); traced, it makes one pass.  Untraced, it also times the calibration
kernel (calib.py) twice before and twice after each job and, from a CPU-time
timer, every calib.TICK_S inside it; the latency it records excludes those
samples.  It writes latencies, each job's median kernel time, the first
pass's output bytes, every pass's output digests, its own peak RSS and, when
traced, the per-layer summary to result.json.  It runs in the directory
that holds the problem files, so the outputs name them by bare file name.
"""

import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time

import calib


class JobTimeout(BaseException):
    """Raised inside a job that runs past the per-job limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Sampler:
    """Kernel samples taken while a job runs, from a CPU-time timer."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def start(self):
        self.samples, self.spent_s = [], 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, calib.TICK_S, calib.TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def on_tick(self, signum, frame):
        entered = time.thread_time()
        self.samples.append(calib.sample())
        self.spent_s += time.thread_time() - entered


def run_job(cli, argv, limit_s, sampler=None):
    """Returns (latency in CPU seconds, median kernel CPU seconds or None,
    output bytes, error text or None).  The per-job limit is wall time."""
    out, err = io.StringIO(), io.StringIO()
    around = [calib.sample(), calib.sample()] if sampler else []
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    if sampler:
        sampler.start()
    started = time.thread_time()
    try:
        code = cli.main(["--json", *argv], stdout=out, stderr=err)
        error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    except JobTimeout:
        error = f"exceeded the {limit_s:g} s job limit"
    except Exception as exc:  # the job's failure is reported, the loop goes on
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.thread_time() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        if sampler:
            sampler.stop()
    kernel_s = None
    if sampler:
        elapsed -= sampler.spent_s
        around += [calib.sample(), calib.sample()]
        kernel_s = statistics.median(around + sampler.samples)
    return elapsed, kernel_s, out.getvalue().encode("utf-8"), error


def peak_rss_kb():
    """Peak resident set of this process's own address space.

    ru_maxrss also counts the parent's memory from before exec, so a heavy
    parent would show through; VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(src, plan_path, result_path):
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, src)
    import delta_kernel.cli as cli

    tracer = sampler = None
    if plan["trace"]:
        sys.path.insert(0, plan["bench_dir"])
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = Sampler()
        signal.signal(signal.SIGVTALRM, sampler.on_tick)
    signal.signal(signal.SIGALRM, _on_alarm)

    jobs = plan["jobs"]
    texts, digests, errors = {}, {}, {}
    unstable = set()
    passes = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        latencies, kernels = [], []
        for idx, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = idx
            elapsed, kernel_s, data, error = run_job(cli, job["argv"], plan["job_limit_s"], sampler)
            latencies.append(elapsed)
            kernels.append(kernel_s)
            jid = job["id"]
            if error is not None:
                errors.setdefault(jid, error)
            digest = hashlib.sha256(data).hexdigest()
            if jid not in digests:
                digests[jid] = digest
                texts[jid] = data.decode("utf-8")
            elif digests[jid] != digest:
                unstable.add(jid)
            if time.perf_counter() - started > plan["hard_limit_s"]:
                break
        pass_time = time.perf_counter() - pass_started
        passes.append({"latency_s": latencies, "kernel_s": kernels})
        elapsed = time.perf_counter() - started
        if (tracer is not None or len(latencies) < len(jobs)
                or elapsed + pass_time > plan["seconds"]):
            break

    result = {
        "passes": passes,
        "texts": texts,
        "digests": digests,
        "errors": errors,
        "unstable": sorted(unstable),
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.span_count
        tracer.write_spans(plan["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: worker.py <src dir> <plan.json> <result.json>")
    main(*sys.argv[1:])
