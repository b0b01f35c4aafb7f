"""Record the output digests that later runs must reproduce byte for byte.

    python3 bench/pin_digests.py <first seed> <last seed>

Runs one untraced pass of every workload for each seed in the range, checks
the outputs, and writes bench/digests.json: per workload the job ids and,
per seed, the first 12 hex digits of the SHA-256 of each job's JSON output,
space-separated in the order of the ids.  Run it only when the workload
generator changes; a program change that alters any output bytes must be
explained, not re-pinned.
"""

import json
import shutil
import sys

import run
import workloads

PREFIX = 12


def main(first, last):
    table = {}
    for name in workloads.WORKLOADS:
        ids, seeds = None, {}
        for seed in range(first, last + 1):
            files, jobs = workloads.build(name, seed)
            work = run.WORK / name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for fname, text in files.items():
                (work / fname).write_text(text, encoding="utf-8")
            res = run.run_worker(work, jobs, "pin", 0.0, False, run.UNTRACED_HASH_SEED)
            bad, _ = run.check_outputs(name, None, jobs, [res])
            if bad:
                sys.exit(f"{name} seed {seed}: outputs fail their checks: {bad}")
            ids = ids or sorted(res["digests"])
            seeds[str(seed)] = " ".join(res["digests"][jid][:PREFIX] for jid in ids)
            print(f"{name} seed {seed}: {len(ids)} jobs pinned", flush=True)
        table[name] = {"jobs": ids, "seeds": seeds}
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(int(sys.argv[1]), int(sys.argv[2]))
