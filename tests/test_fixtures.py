"""The bundled fixtures are data: the structure files shipped in
`src/corings/data`, one per name of `FIXTURES`, equal to the benchmark's
frozen copies in `bench/inputs`, written unchanged by `corings fixtures
emit` and declared as package data in `pyproject.toml`."""

import contextlib
import io
from pathlib import Path

import pytest

from corings.cli import main
from corings.fixtures import FIXTURES

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
