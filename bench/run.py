"""Time-to-verdict benchmark for ``corings check FILE --suite S --seed N``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each invocation takes the in-process path of ``corings check
FILE --suite S --seed N --format machine``: read the file, ``parse``,
``main_structure``, ``run_suite`` and the machine report.  A *pass* runs
every invocation of the workload once; passes repeat, one process and one
thread, until the next one would end after ``--seconds``.  The workload
seed reaches the library only as ``--seed``.

Every report is checked against ``bench/reference.json`` (sha256 and exit
code recorded by ``bench/record.py``) and against the verdicts the README
states for the bundled fixtures.  An invocation fails if it raises, exits
with another code or prints other bytes.

Times are read from `clock.SpeedClock`: wall time with the yardstick's own
time taken out, rescaled to a reference host speed measured by a yardstick
ten times a second (see ``bench/clock.py``); raw wall times are printed too.

``--trace 0`` times passes with nothing wrapped and reports the end-to-end
metrics:

* ``wall_s``: median pass time, file read to report bytes, in reference
  seconds;
* ``wall_tail_s``: the slowest pass of the run (the pass count is printed;
  a percentile with ten passes above it would lie below the median in any
  run of fewer than 21 passes);
* ``setup_s``: median of the summed ``parse`` + ``main_structure`` time of a
  pass, sampled in every pass and SETUP_REPEATS more times after it;
* ``items_per_s``: median over passes of report items per second of
  ``run_suite`` time;
* ``peak_rss_mb``: peak resident set of the process.

``--trace 1`` first times untraced passes for half the time, then installs
the span tracer of ``bench/spans.py`` for further passes, removes it, writes
the spans to ``bench/out/`` and reports the per-layer metrics of
``spans.PER_LAYER``, medians over traced passes; ``trace.overhead_s`` is the
median traced pass minus the median untraced pass.

Human-readable lines come first, including the share of failed invocations;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from clock import YARDSTICK_REF_S, SpeedClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# (input file stem, suite) per invocation of one pass
WORKLOADS = {
    "fixtures-all": (("trivial", "all"), ("regular", "all"),
                     ("nongalois", "all"), ("sweedler", "all")),
    "c3-qq-graded-morita": (("c3-qq", "graded-morita"),),
}

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (("wall_s", "s"), ("wall_tail_s", "s"), ("setup_s", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))

# set-ups timed alone after each pass: a set-up takes milliseconds and the
# speed of a shared virtual machine can drift by tens of percent within
# seconds, so its median needs more samples than there are passes, spread
# over the run
SETUP_REPEATS = 3
# a pass that would end after the deadline is not started, but at least
# this many passes of each kind are
MIN_PASSES = 1


def source_path(stem: str) -> str:
    """The file path as passed on the command line; the report embeds it."""
    return f"bench/inputs/{stem}.coring"


def expected_exit(stem: str) -> int:
    """The README's verdict table: only ``nongalois`` is not Galois."""
    return 1 if stem == "nongalois" else 0


def seed_normalised(report: str, seed: int) -> str | None:
    """The report with its ``seed`` line written for seed 0; None if that line is wrong."""
    lines = report.split("\n")
    if len(lines) < 3 or lines[2] != f"seed {seed}":
        return None
    lines[2] = "seed 0"
    return "\n".join(lines)


def check_report(reference: dict, stem: str, suite: str, seed: int,
                 report: str, code: int) -> list:
    """Reasons why an invocation's report or exit code is wrong (empty if right)."""
    problems = []
    ref = reference[f"{stem} {suite}"]
    if code != ref["exit"]:
        problems.append(f"exit {code}, reference {ref['exit']}")
    if code != expected_exit(stem):
        problems.append(f"exit {code}, README expects {expected_exit(stem)}")
    if stem == "nongalois" and suite in ("all", "galois") and not any(
            line.startswith("item\tgalois.bijective\t") and "\tFAIL\t" in line
            for line in report.split("\n")):
        problems.append("no FAIL row for galois.bijective")
    normalised = seed_normalised(report, seed)
    if normalised is None:
        problems.append(f"report does not carry 'seed {seed}' on its third line")
    elif hashlib.sha256(normalised.encode()).hexdigest() != ref["sha256"]:
        problems.append("report sha256 differs from the reference")
    return problems


@dataclass
class Invocation:
    stem: str
    suite: str
    report: str = ""
    code: int = 2
    setup_s: float = 0.0
    suite_s: float = 0.0
    items: int = 0
    error: str = ""


@dataclass
class Pass:
    wall_s: float
    raw_s: float
    invocations: list
    spans: list | None = None
    field_of_calls: int = 0

    @property
    def setup_s(self) -> float:
        return sum(inv.setup_s for inv in self.invocations)

    @property
    def items_per_s(self) -> float:
        suite_s = sum(inv.suite_s for inv in self.invocations)
        return sum(inv.items for inv in self.invocations) / suite_s if suite_s else 0.0


class Bench:
    def __init__(self, corings, jobs, seed: int, seconds: float, reference: dict):
        self.cli, self.structfile, self.suites = corings
        self.jobs = jobs
        self.seed = seed
        self.clock = SpeedClock()
        self.deadline = time.perf_counter() + seconds
        self.reference = reference
        self.attempted = 0
        self.failures: list = []

    def setup(self, stem: str):
        data = (ROOT / source_path(stem)).read_bytes()
        return self.structfile.main_structure(self.structfile.parse(data))

    def invoke(self, stem: str, suite: str) -> Invocation:
        inv = Invocation(stem, suite)
        try:
            t0 = self.clock.now()
            ms = self.setup(stem)
            t1 = self.clock.now()
            rep = self.suites.run_suite(ms, suite, self.seed)
            t2 = self.clock.now()
            inv.report = self.cli._machine_report(rep, source_path(stem), suite, self.seed)
            inv.code = 0 if rep.ok else 1
            inv.setup_s, inv.suite_s, inv.items = t1 - t0, t2 - t1, len(rep.items)
        except Exception:
            inv.error = traceback.format_exc()
        return inv

    def record(self, inv: Invocation) -> None:
        self.attempted += 1
        problems = [inv.error] if inv.error else check_report(
            self.reference, inv.stem, inv.suite, self.seed, inv.report, inv.code)
        if problems:
            self.failures.append(f"{inv.stem} --suite {inv.suite}: " + "; ".join(problems))

    def one_pass(self, tracer=None) -> Pass:
        invs = []
        start, raw_start = self.clock.now(), time.perf_counter()
        for n, (stem, suite) in enumerate(self.jobs):
            if tracer is not None:
                tracer.invocation = n
            invs.append(self.invoke(stem, suite))
        wall, raw = self.clock.now() - start, time.perf_counter() - raw_start
        for inv in invs:
            self.record(inv)
        return Pass(wall, raw, invs)

    def passes(self, until: float, estimate: float = 0.0, tracer=None, after=None) -> list:
        """Passes while the next one, with `after(pass)`, is expected to end by `until`."""
        out, cycles = [], []
        with self.clock:
            while len(out) < MIN_PASSES or (
                    time.perf_counter() + (max(cycles) if cycles else estimate) <= until):
                cycle = time.perf_counter()
                if tracer is not None:
                    tracer.reset()
                out.append(self.one_pass(tracer))
                if tracer is not None:
                    out[-1].spans = list(tracer.spans)
                    out[-1].field_of_calls = tracer.field_of_calls
                if after is not None:
                    after(out[-1])
                cycles.append(time.perf_counter() - cycle)
        return out

    def setup_all(self) -> float:
        """Reference seconds to parse and set up every input of a pass once."""
        t0 = self.clock.now()
        for stem, _ in self.jobs:
            self.setup(stem)
        return self.clock.now() - t0


def end_to_end(bench: Bench) -> tuple:
    setup = []

    def after(p: Pass) -> None:
        if not any(inv.error for inv in p.invocations):
            setup.extend(bench.setup_all() for _ in range(SETUP_REPEATS))

    runs = bench.passes(bench.deadline, after=after)
    setup += [p.setup_s for p in runs]
    walls = [p.wall_s for p in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_tail_s": max(walls),
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(p.items_per_s for p in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = bench.clock.samples
    notes = [f"passes {len(runs)}; set-up samples {len(setup)}",
             "pass s: " + " ".join(f"{w:.3f}" for w in walls),
             "pass raw wall s: " + " ".join(f"{p.raw_s:.3f}" for p in runs),
             f"yardstick: {len(samples)} samples, median {statistics.median(samples) * 1e3:.3f}"
             f" ms, reference {YARDSTICK_REF_S * 1e3:.3f} ms"]
    return metrics, dict(END_TO_END), notes


def per_layer(bench: Bench, spans_path: Path) -> tuple:
    start = time.perf_counter()
    untraced = bench.passes(start + (bench.deadline - start) / 2)
    wall = statistics.median(p.wall_s for p in untraced)
    raw = statistics.median(p.raw_s for p in untraced)
    if spans.find_wrappers():
        raise RuntimeError("tracing wrappers present before the traced passes")
    tracer = spans.Tracer(bench.clock.now)
    tracer.install()
    try:
        traced = bench.passes(bench.deadline, estimate=raw, tracer=tracer)
    finally:
        tracer.remove()
    leftover = spans.find_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left after the traced passes: {leftover}")
    per_pass = [spans.layer_metrics(p.spans, p.field_of_calls) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall
    notes = [f"untraced passes {len(untraced)}; traced passes {len(traced)}"]
    for n, (p, m) in enumerate(zip(traced, per_pass)):
        suites_s = sum(m[f"suites.{s}.s"] for s in spans.SUITE_NAMES)
        setup_s = sum(span[2] - span[1] for span in p.spans
                      if span[0] in ("structfile.parse", "structfile.main_structure"))
        notes.append(f"traced pass {n}: wall {p.wall_s:.4f} s = suites {suites_s:.4f} s"
                     f" + set-up {setup_s:.4f} s + other {p.wall_s - suites_s - setup_s:.4f} s")
    write_spans(spans_path, traced)
    return metrics, {name: unit for name, unit, _ in spans.PER_LAYER}, notes


def write_spans(path: Path, traced: list) -> None:
    """One JSON list per span: pass, invocation, name, start, end, parent, work."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for n, p in enumerate(traced):
            for name, start, end, parent, inv, size in p.spans:
                fh.write(json.dumps([n, inv, name, start, end, parent, size]) + "\n")


def import_corings():
    """(cli, structfile, suites) from this checkout's ``src``, or None."""
    if not (SRC / "corings" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from corings import cli, structfile, suites

    if Path(cli.__file__).resolve().parent != SRC / "corings":
        return None
    return cli, structfile, suites


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    corings = import_corings()
    if corings is None or not REFERENCE.is_file():
        print(f"error: no corings sources under {SRC} or no {REFERENCE.name}", file=sys.stderr)
        return 2
    bench = Bench(corings, WORKLOADS[args.workload], args.seed, args.seconds,
                  json.loads(REFERENCE.read_text()))
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, units, notes = per_layer(bench, spans_path)
    else:
        metrics, units, notes = end_to_end(bench)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for failure in bench.failures:
        print(f"  FAILED {failure}")
    print(f"  failed_frac {len(bench.failures) / bench.attempted:.4f}"
          f" ({len(bench.failures)} of {bench.attempted} invocations)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
