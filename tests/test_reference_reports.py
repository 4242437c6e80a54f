"""The recorded machine reports of `bench/reference.json`, replayed in process.

Each entry holds the command line of one `corings check` run at seed 0, the
sha256 of its report and its exit code.  A change that moves any byte of a
report, or a verdict, fails here without a benchmark run.  The file is only
read.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from corings.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


def test_reference_covers_the_benchmark_inputs():
    assert sorted(REFERENCE) == ["c3-qq graded-morita", "nongalois all", "regular all",
                                 "sweedler all", "trivial all"]


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_report_matches_the_reference(monkeypatch, key):
    entry = REFERENCE[key]
    argv = shlex.split(entry["command"])
    assert argv[0] == "corings" and "--seed" in argv and "--format" in argv
    monkeypatch.chdir(ROOT)  # the report embeds the path as given
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[1:])
    assert code == entry["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == entry["sha256"]
