"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]
                            [--workload NAME ...] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(interquartile distance as a share of the median) next to the metric's
bound, marked WIDE when above a third of it, and the share of invocations
that failed.  ``--out`` also writes the table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    table = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()
                if "." not in k), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = {"failed_frac": {"median": failed / attempted, "attempted": attempted}}
        print(f"{workload}: failed_frac {failed / attempted:.4f} ({failed} of {attempted})"
              f"; correct in {sum(r['correct'] for r in results)} of {len(results)} runs")
        for name, metric in results[0]["metrics"].items():
            row = summarise([r["metrics"][name]["value"] for r in results])
            row["unit"] = metric["unit"]
            rows[name] = row
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f" bound {bound:.3f} {'ok' if row['spread'] <= bound / 3 else 'WIDE'}")
            print(f"  {name:45s} {row['median']:12.6g} {metric['unit']:6s}"
                  f" q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f}{verdict}")
        table[workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
