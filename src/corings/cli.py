"""Command line interface: run check suites on structure files and emit the
bundled fixtures.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on parse
or semantic errors in the input file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from corings.fixtures import FIXTURES, fixture_file_text
from corings.report import CheckReport
from corings.structfile import StructureError, main_structure, parse
from corings.suites import SUITES, run_suite


def _machine_report(rep: CheckReport, source: str, suite: str, seed: int) -> str:
    lines = ["corings-report 1",
             f"suite {suite}",
             f"seed {seed}",
             f"source {source}"]
    for it in rep.sorted_items():
        status = "PASS" if it.passed else "FAIL"
        witness = it.witness.replace("\t", " ").replace("\n", " ")
        lines.append(f"item\t{it.check_id}\t{it.law}\t{status}\t{witness}")
    lines.append(f"verdict {'pass' if rep.ok else 'fail'}")
    return "\n".join(lines) + "\n"


def _text_report(rep: CheckReport, source: str, suite: str, seed: int) -> str:
    lines = [f"source: {source}", f"seed: {seed}", rep.to_text(suite)]
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    path = Path(args.file)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        sf = parse(data)
        ms = main_structure(sf)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = run_suite(ms, args.suite, args.seed)
    if args.format == "machine":
        sys.stdout.write(_machine_report(rep, args.file, args.suite, args.seed))
    else:
        sys.stdout.write(_text_report(rep, args.file, args.suite, args.seed))
    return 0 if rep.ok else 1


def cmd_fixtures(args) -> int:
    if args.action == "list":
        if args.name is not None:
            print("error: 'fixtures list' takes no fixture name", file=sys.stderr)
            return 2
        for name in sorted(FIXTURES):
            print(name)
        return 0
    name = args.name
    if name is None:
        print("error: 'fixtures emit' needs a fixture name", file=sys.stderr)
        return 2
    try:
        text = fixture_file_text(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    out = Path(args.dir) / f"{name}.coring"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corings",
        description="exact checks for group-indexed corings and their module theory")
    sub = ap.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check", help="run a named check suite on a structure file")
    chk.add_argument("file")
    chk.add_argument("--suite", default="all", choices=SUITES)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--format", default="text", choices=("text", "machine"))
    chk.set_defaults(func=cmd_check)
    fx = sub.add_parser("fixtures", help="list or emit the bundled fixture files")
    fx.add_argument("action", choices=("list", "emit"))
    fx.add_argument("name", nargs="?")
    fx.add_argument("--dir", default=".")
    fx.set_defaults(func=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
