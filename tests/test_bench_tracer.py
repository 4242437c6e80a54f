"""Every name the benchmark's span tracer wraps still exists in the library.

`bench/spans.py` resolves each entry of `LAYERS`, `LOOKUPS` and `FIELD_OF`
when `bench/run.py --trace 1` installs it, so a rename in the library would
break traced benchmark runs; this test resolves them all.  It loads the
bench module from its file and changes nothing under `bench/`.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TRACED = {**spans.LAYERS, **spans.LOOKUPS, ".".join(spans.FIELD_OF): spans.FIELD_OF}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_resolves(name):
    _, _, original = spans._resolve(*TRACED[name])
    assert callable(original)
