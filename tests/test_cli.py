"""Command line behaviour: suites, exit codes, determinism, fixtures."""

import io
import contextlib
from pathlib import Path

import pytest

from corings import fixtures
from corings.cli import main
from corings.suites import SUITES, UnknownSuite, run_suite
from corings.structfile import main_structure, parse
from corings.fixtures import fixture_file_text
from corings.scalars import GF, QQ
from helpers import over_prime_field, regular_cyclic_text

C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        rc, out, _ = run_cli(["fixtures", "emit", name, "--dir", str(d)])
        assert rc == 0
    return d


def test_fixtures_list():
    rc, out, _ = run_cli(["fixtures", "list"])
    assert rc == 0
    assert out.split() == ["nongalois", "regular", "sweedler", "trivial"]


def test_fixtures_list_takes_no_name():
    rc, out, err = run_cli(["fixtures", "list", "extra"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("name", ("nope", "../pyproject", "data/trivial", "trivial.coring", ""),
                         ids=("nope", "parent-dir", "data-dir", "with-suffix", "empty"))
def test_fixtures_emit_unknown(name, tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(fixtures, "files", lambda *args: opened.append(args))
    rc, out, err = run_cli(["fixtures", "emit", name, "--dir", str(tmp_path)])
    assert rc == 2
    assert out == ""
    assert "unknown fixture" in err
    assert opened == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("under", ("", "sub"), ids=("file", "under-a-file"))
def test_fixtures_emit_to_an_unwritable_dir(under, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc, out, err = run_cli(["fixtures", "emit", "regular", "--dir", str(blocker / under)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert blocker.read_text() == ""


def test_validate_suite_passes(fixture_dir):
    rc, out, _ = run_cli(["check", str(fixture_dir / "trivial.coring"), "--suite", "validate"])
    assert rc == 0
    assert "verdict: pass" in out


def test_galois_suite_fails_on_nongalois(fixture_dir):
    rc, out, _ = run_cli(["check", str(fixture_dir / "nongalois.coring"), "--suite", "galois"])
    assert rc == 1
    assert "1 -> 2" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.coring"
    bad.write_text("not a structure file")
    rc, _, err = run_cli(["check", str(bad)])
    assert rc == 2
    assert "line 1" in err


def test_missing_file_exit_code():
    rc, _, err = run_cli(["check", "/nonexistent/file.coring"])
    assert rc == 2


def test_machine_format_is_deterministic(fixture_dir):
    args = ["check", str(fixture_dir / "sweedler.coring"),
            "--suite", "structure-theorem", "--seed", "0", "--format", "machine"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("corings-report 1\n")
    assert out1.rstrip().endswith("verdict pass")


def test_seed_recorded_in_header(fixture_dir):
    rc, out, _ = run_cli(["check", str(fixture_dir / "trivial.coring"),
                          "--suite", "validate", "--seed", "7", "--format", "machine"])
    assert "seed 7" in out


def test_all_suite_names_run_on_trivial():
    ms = main_structure(parse(fixture_file_text("trivial")))
    for suite in SUITES:
        rep = run_suite(ms, suite, seed=0)
        assert rep.ok, suite


def test_unknown_suite_raises():
    ms = main_structure(parse(fixture_file_text("trivial")))
    with pytest.raises(UnknownSuite):
        run_suite(ms, "bogus")


def test_hopf_suite_skips_without_comodule_algebra():
    ms = main_structure(parse(fixture_file_text("sweedler")))
    rep = run_suite(ms, "hopf", seed=0)
    assert rep.ok
    assert any("skipped" in it.law for it in rep.items)


def _item_verdicts(report: str) -> list:
    """(item id, PASS/FAIL) of every item line of a machine report."""
    return [tuple(line.split("\t")[1:4:2]) for line in report.splitlines()
            if line.startswith("item\t")]


@pytest.mark.parametrize("name", ["trivial", "regular", "nongalois", "sweedler", "c2"])
def test_rationals_and_a_large_prime_field_give_the_same_verdicts(name, tmp_path):
    # The answers are ranks and verdicts of linear systems with integer
    # data, the same over QQ and over GF(p) for all but finitely many p.
    # GF(p) runs the modular arithmetic, so the whole machine report over
    # GF(1000003) (witnesses and verdict included, the source line apart)
    # is an oracle for the code that only the rationals run: the integer
    # product kernels and the canonical int-or-Fraction form.
    # c2 is the regular comodule algebra k[C_2], a base of dimension two
    text = regular_cyclic_text(2) if name == "c2" else fixture_file_text(name)
    qq, gf = _reports_over_qq_and_a_large_prime(text, "all", tmp_path)
    assert _item_verdicts("\n".join(qq[1])), "no items reported"
    assert qq == gf


def test_the_graded_morita_suite_on_c3_is_the_same_over_a_large_prime_field(tmp_path):
    # The hom and constraint systems of this suite keep each row once, and
    # over QQ only their non-int values are brought to canonical form.
    qq, gf = _reports_over_qq_and_a_large_prime(C3.read_text(), "graded-morita", tmp_path)
    assert _item_verdicts("\n".join(qq[1])), "no items reported"
    assert qq == gf


def _reports_over_qq_and_a_large_prime(text: str, suite: str, tmp_path) -> list:
    """(exit code, machine report lines apart from `source`) of `--suite
    suite --seed 0` on the structure file text over QQ and over GF(1000003)."""
    reports = []
    for field, source in ((QQ, text), (GF(1000003), over_prime_field(text, 1000003))):
        path = tmp_path / f"{suite}-{field}.coring"
        path.write_text(source)
        rc, out, _ = run_cli(["check", str(path), "--suite", suite, "--seed", "0",
                              "--format", "machine"])
        reports.append((rc, [line for line in out.splitlines() if not line.startswith("source ")]))
    return reports


def test_the_prime_field_rewrite_reduces_every_scalar():
    text = ("# k[C_3] over QQ, entries -1 and 1/2\n"
            "field Q\n"
            "begin algebra A2\n"
            "  dim 2\n"
            "  unit [1/2, -1]\n"
            "  mul [[[-3/4, 0], [2, -7]], [[1, 6/-4], [0, 10]]]\n"
            "end\n")
    assert over_prime_field(text, 7) == (
        "# k[C_3] over QQ, entries -1 and 1/2\n"
        "field Fp 7\n"
        "begin algebra A2\n"
        "  dim 2\n"
        "  unit [4, 6]\n"
        "  mul [[[1, 0], [2, 0]], [[1, 2], [0, 3]]]\n"
        "end\n")
    # the first denominator p divides is named; a comment is not read
    with pytest.raises(ValueError, match="2 divides the denominator of 1/2"):
        over_prime_field(text, 2)
    with pytest.raises(ValueError, match="2 divides the denominator of 6/-4"):
        over_prime_field(text.replace("[1/2,", "[1,").replace("-3/4", "-3"), 2)
    with pytest.raises(ValueError, match="not declared over QQ"):
        over_prime_field(over_prime_field(text, 7), 5)


def test_zero_dimensional_connecting_space_gives_a_verdict(tmp_path):
    # A Hopf coalgebra whose comultiplication is not coassociative makes the
    # connecting space of the classical context zero-dimensional; the maps
    # assembled column by column out of it must keep their row counts, so
    # the run ends with failed checks instead of a shape error.
    text = fixture_file_text("nongalois")
    good = "delta [[1, 0], [0, 0], [0, 0], [0, 1]]"
    assert text.count(good) == 1
    path = tmp_path / "broken-delta.coring"
    path.write_text(text.replace(good, "delta [[1, 0], [0, 0], [6, 0], [0, 1]]"))
    rc, out, err = run_cli(["check", str(path), "--suite", "all", "--format", "machine"])
    assert rc == 1
    assert "Traceback" not in out + err
    assert out.rstrip().endswith("verdict fail")
    assert "item\tgalois.bijective\t" in out


# A second coring on the nongalois fixture: the one a trivial coaction of a
# one-dimensional Hopf family induces on B, with its canonical family XT.
SECOND_CORING = """
begin hopfalgebra HT
  algebra B
  delta [[1]]
  counit [[1]]
  antipode [[1]]
end

begin hopf HTG
  group G
  cofree HT
end

begin comodule-algebra CAT
  algebra B
  hopf HTG
  trivial
end

begin coring CT2
  from-comodule-algebra CAT
end

begin grouplike XT
  coring CT2
  canonical
end

begin morphism IH
  src B
  dst HC2
  mat [[1], [0]]
end

begin main
"""


def _nongalois_with_main(tmp_path, old: str, new: str):
    text = fixture_file_text("nongalois")
    assert text.count("\nbegin main\n") == 1 and text.count(old) == 1
    path = tmp_path / "mixed.coring"
    path.write_text(text.replace("\nbegin main\n", SECOND_CORING).replace(old, new))
    return path


@pytest.mark.parametrize("suite", ["galois", "comodules"])
def test_main_rejects_a_grouplike_on_another_coring(suite, tmp_path):
    # Naming XT with the coring C used to report the verdict of CT2 under
    # galois and to end in a shape error under comodules.
    path = _nongalois_with_main(tmp_path, "  grouplike X\n", "  grouplike XT\n")
    rc, out, err = run_cli(["check", str(path), "--suite", suite])
    assert rc == 2
    assert "grouplike 'XT' is not a family on coring 'C'" in err
    assert out == ""


def test_main_rejects_a_base_morphism_into_another_algebra(tmp_path):
    path = _nongalois_with_main(tmp_path, "  base IB\n", "  base IH\n")
    rc, out, err = run_cli(["check", str(path), "--suite", "galois"])
    assert rc == 2
    assert "morphism 'IH' does not land in the base algebra of coring 'C'" in err


def test_main_accepts_the_second_coring_with_its_own_family(tmp_path):
    path = _nongalois_with_main(
        tmp_path, "  coring C\n  grouplike X\n  base IB\n  comodule-algebra CA\n",
        "  coring CT2\n  grouplike XT\n  base IB2\n  comodule-algebra CAT\n")
    path.write_text(path.read_text().replace(
        "begin main", "begin morphism IB2\n  src B\n  dst B\n  mat [[1]]\nend\n\nbegin main"))
    rc, out, _ = run_cli(["check", str(path), "--suite", "galois"])
    assert rc == 0
    assert "verdict: pass" in out
