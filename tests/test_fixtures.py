"""The bundled fixtures are data: the structure files shipped in
`src/corings/data`, one per name of `FIXTURES`, equal to the benchmark's
frozen copies in `bench/inputs`, written unchanged by `corings fixtures
emit` and declared as package data in `pyproject.toml`.  The generator of
the regular k[C_n] files in `tests/helpers.py` writes the benchmark's
c3-qq input at n = 3."""

import contextlib
import io
from pathlib import Path

import pytest

from corings.cli import main
from corings.fixtures import FIXTURES
from corings.structfile import main_structure, parse
from corings.suites import run_suite
from helpers import over_prime_field, regular_cyclic_text

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corings"
DATA = PACKAGE / "data"


def test_the_shipped_files_are_the_fixtures():
    assert sorted(p.stem for p in DATA.glob("*.coring")) == sorted(FIXTURES)


@pytest.mark.parametrize("name", FIXTURES)
def test_the_shipped_file_is_the_benchmark_copy(name):
    assert (DATA / f"{name}.coring").read_bytes() == (ROOT / "bench" / "inputs"
                                                      / f"{name}.coring").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_emit_writes_the_shipped_bytes(name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "emit", name, "--dir", str(tmp_path)]) == 0
    assert (tmp_path / f"{name}.coring").read_bytes() == (DATA / f"{name}.coring").read_bytes()


def test_the_package_data_covers_the_shipped_files():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    patterns = config["tool"]["setuptools"]["package-data"]["corings"]
    declared = {p for pattern in patterns for p in PACKAGE.glob(pattern)}
    shipped = {p for p in DATA.rglob("*") if p.is_file()}
    assert shipped and shipped <= declared


def test_the_regular_cyclic_generator_writes_the_c3_input():
    def code(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    c3 = (ROOT / "bench" / "inputs" / "c3-qq.coring").read_text()
    assert code(regular_cyclic_text(3)) == code(c3)


@pytest.mark.parametrize("n, p", [(2, None), (2, 101), (4, None)])
def test_the_regular_cyclic_files_validate(n, p):
    text = regular_cyclic_text(n) if p is None else over_prime_field(regular_cyclic_text(n), p)
    assert run_suite(main_structure(parse(text)), "validate", 0).ok
