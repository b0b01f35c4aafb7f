"""delta-kernel benchmark: CLI job workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload prolong-search --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from ./src.

Each workload is a closed loop: one client in one long-lived process sends
each CLI job (`delta_kernel.cli.main(argv, stdout=...)`) only after the
previous one has returned.  The seed makes the problem files and the job
list (see workloads.py); the program sees only those.

--trace 0 measures with tracing off and prints the end-to-end metrics.  Every
time is CPU time at the reference speed of calib.py (each latency scaled by
the ratio of calib.REFERENCE_S to the calibration kernel's CPU time next to
it), so that the shared host's time slicing and drifting speed cancel out:
    setup_s      median over fresh interpreters of importing delta_kernel.cli
                 and parsing the workload's problem files
    run_s        time of one pass over the whole job list: the sum over jobs
                 of each job's median latency across the passes
    top_rung_s   the same sum over the largest job of each ladder only
    job_p50_s    median latency over every job execution of every pass
    peak_rss_mb  peak resident set of the workload process (VmHWM)
    fail_ratio   failed jobs / jobs attempted (also the result's failed and
                 attempted fields)
--trace 1 makes one untraced pass, then one traced pass under each of two
PYTHONHASHSEED values (whatever --seconds says), and prints the per-layer metrics (calls, self time,
extra counters) and the tracing overhead.  Every `.calls`, `.max_basis` and
`.zero_ratio` must agree between the two traced passes.

Every output is checked outside the timed region (checks.py), and compared
byte for byte across passes and, for the seeds listed in digests.json,
against the digests recorded when the benchmark was defined.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Exit status is 0 when a result was printed, 1 when a run could not finish
and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import per_layer_metric_names  # noqa: E402

SETUP_SAMPLES = 10
JOB_LIMIT_S = 60.0
WORKER_LIMIT_S = 150.0
UNTRACED_HASH_SEED = "0"
TRACED_HASH_SEEDS = ("1", "2")
DETERMINISTIC_SUFFIXES = (".calls", ".max_basis", ".zero_ratio")


class RunFailed(Exception):
    pass


def _env(hash_seed):
    """Child environment: a fixed hash seed, and bytecode cached under
    .bench_work whatever the caller's settings, as an installed package has
    it, so that set-up time does not depend on PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def measure_setup(work, files, count):
    """Seconds, at the reference speed, for each of `count` fresh
    interpreters to import the CLI and parse the problem files."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *sorted(files)]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=work, env=_env(UNTRACED_HASH_SEED),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RunFailed(f"set-up probe failed:\n{proc.stderr}")
        elapsed, kernel_s = map(float, proc.stdout.split())
        samples.append(elapsed * calib.REFERENCE_S / kernel_s)
    return samples


def run_worker(work, jobs, name, seconds, trace, hash_seed):
    plan = {
        "jobs": jobs,
        "seconds": seconds,
        "trace": trace,
        "bench_dir": str(BENCH),
        "job_limit_s": JOB_LIMIT_S,
        "hard_limit_s": WORKER_LIMIT_S - 20,
        "spans_path": str(work / f"{name}.spans"),
    }
    plan_path, result_path = work / f"{name}.plan.json", work / f"{name}.result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), str(plan_path), str(result_path)],
            cwd=work, env=_env(hash_seed), capture_output=True, text=True, timeout=WORKER_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{name} worker exceeded {WORKER_LIMIT_S:g} s")
    if proc.returncode != 0:
        raise RunFailed(f"{name} worker failed:\n{proc.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_pins(workload, seed):
    path = BENCH / "digests.json"
    if not path.exists():
        return None
    table = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    digests = table.get("seeds", {}).get(str(seed))
    if digests is None:
        return None
    return dict(zip(table["jobs"], digests.split()))


def check_outputs(workload, seed, jobs, results):
    """Job id -> reason, for every job whose output is wrong in any run."""
    bad = {}
    first = results[0]
    for job in jobs:
        jid = job["id"]
        if jid in first["errors"]:
            bad[jid] = first["errors"][jid]
            continue
        if jid not in first["texts"]:
            bad[jid] = "not run before the time limit"
            continue
        reason = checks.check(job, first["texts"][jid])
        if reason:
            bad[jid] = reason
    for res in results:
        for jid, error in res["errors"].items():
            bad.setdefault(jid, error)
        for jid in res["unstable"]:
            bad.setdefault(jid, "output bytes differ between passes")
        for jid, digest in res["digests"].items():
            if digest != first["digests"].get(jid, digest):
                bad.setdefault(jid, "output bytes differ between runs")
    pins = load_pins(workload, seed)
    if pins is not None:
        for jid, digest in first["digests"].items():
            if not digest.startswith(pins.get(jid) or "-"):
                bad.setdefault(jid, "output bytes differ from the pinned digest")
    return bad, pins is not None


def tally(jobs, results, bad):
    """(attempted, failed) over every job execution of every run; a job that
    never ran counts once as attempted and failed."""
    attempted = failed = 0
    ran = set()
    for res in results:
        for p in res["passes"]:
            for job in jobs[: len(p["latency_s"])]:
                attempted += 1
                failed += job["id"] in bad
                ran.add(job["id"])
    never = len(jobs) - len(ran)
    return attempted + never, failed + never


def end_to_end(jobs, res, setup_s):
    """Latency metrics at the reference speed.  run_s and top_rung_s sum
    each job's median time over the passes; job_p50_s is the median of all
    job executions, which is steadier than the median of per-job medians
    when few jobs lie near the middle.  Also returns run_s in CPU seconds
    before scaling."""
    full = [p for p in res["passes"] if len(p["latency_s"]) == len(jobs)]
    if not full:
        raise RunFailed("not one pass over the job list finished in time")
    scaled = [[t * calib.REFERENCE_S / k for t, k in zip(p["latency_s"], p["kernel_s"])] for p in full]
    per_job, raw = {}, 0.0
    for i, job in enumerate(jobs):
        per_job[job["id"]] = statistics.median(p[i] for p in scaled)
        raw += statistics.median(p["latency_s"][i] for p in full)
    tops = workloads.top_rungs(jobs)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(per_job.values()), "s"),
        "top_rung_s": (sum(per_job[t] for t in tops), "s"),
        "job_p50_s": (statistics.median(t for p in scaled for t in p), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }, len(full), len(tops), raw


def compare_counts(a, b):
    return sorted(k for k in a if k.endswith(DETERMINISTIC_SUFFIXES) and a[k] != b[k])


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".zero_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "delta_kernel" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'delta_kernel'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    files, jobs = workloads.build(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")

    try:
        if args.trace:
            base = run_worker(work, jobs, "untraced", 0.0, False, UNTRACED_HASH_SEED)
            traced = [run_worker(work, jobs, f"traced-h{h}", 0.0, True, h) for h in TRACED_HASH_SEEDS]
            results = [base, *traced]
        else:
            # half the set-up probes before the timed loop, half after it, so
            # that one slow spell of the machine cannot move their median; the
            # first probe may compile bytecode and is dropped
            setup = measure_setup(work, files, SETUP_SAMPLES // 2 + 1)[1:]
            results = [run_worker(work, jobs, "untraced", args.seconds, False, UNTRACED_HASH_SEED)]
            setup += measure_setup(work, files, SETUP_SAMPLES - len(setup))
            e2e, npasses, ntops, raw = end_to_end(jobs, results[0], statistics.median(setup))
            kernel_ms = 1000 * statistics.median(
                k for p in results[0]["passes"] for k in p["kernel_s"] if k is not None)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bad, pinned = check_outputs(args.workload, args.seed, jobs, results)
    attempted, failed = tally(jobs, results, bad)
    correct = not bad

    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  jobs {len(jobs)}  closed loop, 1 client")
    print(f"outputs checked: {len(jobs) - len(bad)}/{len(jobs)} jobs right; "
          f"pinned digests {'compared' if pinned else 'not recorded for this seed'}")
    for jid, reason in sorted(bad.items()):
        print(f"FAILED {jid}: {reason}")

    if args.trace:
        a, b = traced[0]["layers"], traced[1]["layers"]
        drift = compare_counts(a, b)
        if drift:
            correct = False
            print("counts differ between PYTHONHASHSEED values: " + ", ".join(drift))
        else:
            print(f"counts identical under PYTHONHASHSEED={' and '.join(TRACED_HASH_SEEDS)}")
        overhead = (statistics.median(sum(t["passes"][0]["latency_s"]) for t in traced)
                    / sum(base["passes"][0]["latency_s"]))
        values = {}
        for name in per_layer_metric_names():
            values[name] = statistics.median([a[name], b[name]]) if name.endswith(("_s", "ratio")) else a[name]
        values["trace_overhead"] = overhead
        print(f"spans recorded per traced pass: {traced[0]['spans']}; tracing overhead {overhead:.3f}x")
    else:
        values = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}
        print(f"passes {npasses}  top rungs {ntops}  job executions {attempted}")
        print(f"calibration kernel {kernel_ms:.4f} ms median (reference {1000 * calib.REFERENCE_S:g} ms); "
              f"run_s in CPU seconds before scaling {raw:.6f}")
        for name, value in values.items():
            print(f"  {name:<12} {value:.6f} {units[name]}")
        print(f"  {'fail_ratio':<12} {failed / attempted:.6f} 1")
    print(f"run took {time.perf_counter() - started:.1f} s")

    metrics = {
        name: {"value": value, "unit": layer_unit(name) if args.trace else units[name]}
        for name, value in values.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
