"""The text reports of `corings check`, replayed in process.

`bench/reference.json` pins the machine format only.  Each entry below holds
the exit code and the sha256 of `corings check bench/inputs/STEM.coring
--suite SUITE --seed 0 --format text`, run from the repository root; its
`suite:` line is the name of the suite the command ran.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from corings.cli import main

ROOT = Path(__file__).resolve().parent.parent

TEXT_REPORTS = {
    ("trivial", "all"): (0, "8957006686f09af63a392589bdba823ab3638c79884bf31185a0e667c5f04feb"),
    ("regular", "all"): (0, "0a2f4fcc4428678c34d89d00bba7a02861e2a894ad79cd9a2ab782e96b55d287"),
    ("nongalois", "all"): (1, "adb7c6babb6fcde6a256cf2bc4f408b9252e8cb0adde7f4872df841b698e4002"),
    ("sweedler", "all"): (0, "e4de4bf309a7924452b6459dfa631438356aab5af1b7984a5c817f4d33f87574"),
    ("nongalois", "galois"): (1, "d9d1f03889f47137224028ce63b7ef6be117454b994e87f4fe45aa4f062dd724"),
}


@pytest.mark.parametrize("stem, suite", sorted(TEXT_REPORTS))
def test_text_report_matches_the_recorded_digest(monkeypatch, stem, suite):
    monkeypatch.chdir(ROOT)  # the report embeds the path as given
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", f"bench/inputs/{stem}.coring", "--suite", suite,
                     "--seed", "0", "--format", "text"])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == TEXT_REPORTS[(stem, suite)]
