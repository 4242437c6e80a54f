"""Record ``bench/reference.json``: the expected report of every benchmark invocation.

    python3 bench/record.py

For each (input, suite) of the workloads in ``run.py`` this runs the real
command line, ``python3 -m corings.cli check bench/inputs/<input>.coring
--suite <suite> --seed 0 --format machine``, from the checkout root and
records the sha256 of its standard output and its exit code.  It then checks
that the in-process path the benchmark times gives the same bytes, and that
at the seeds in SEEDS the report differs from the seed-0 report only in its
``seed`` line, which is why one reference serves every workload seed.
Run it only on the commit whose reports are the reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run

# seeds compared with seed 0; graded-morita takes seconds per seed
SEEDS = {"all": (1, 2, 3, 17, 1000003), "graded-morita": (1,)}


def cli_report(stem: str, suite: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "corings.cli", "check", run.source_path(stem),
         "--suite", suite, "--seed", "0", "--format", "machine"],
        cwd=run.ROOT, env=env, capture_output=True, timeout=600)
    return proc.stdout, proc.returncode


def main() -> int:
    corings = run.import_corings()
    if corings is None:
        print(f"error: no corings sources under {run.SRC}", file=sys.stderr)
        return 2
    jobs = sorted({job for jobs in run.WORKLOADS.values() for job in jobs})
    reference = {}
    for stem, suite in jobs:
        stdout, code = cli_report(stem, suite)
        reference[f"{stem} {suite}"] = {
            "command": f"corings check {run.source_path(stem)} --suite {suite}"
                       " --seed 0 --format machine",
            "sha256": hashlib.sha256(stdout).hexdigest(),
            "exit": code,
        }
        print(f"{stem} {suite}: exit {code}, {len(stdout)} bytes", flush=True)
    bench = run.Bench(corings, jobs, 0, 0.0, reference)
    for stem, suite in jobs:
        for seed in (0,) + SEEDS[suite]:
            bench.seed = seed
            inv = bench.invoke(stem, suite)
            problems = [inv.error] if inv.error else run.check_report(
                reference, stem, suite, seed, inv.report, inv.code)
            if problems:
                print(f"error: {stem} {suite} seed {seed}: {'; '.join(problems)}",
                      file=sys.stderr)
                return 1
            print(f"{stem} {suite} seed {seed}: in-process report matches", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
