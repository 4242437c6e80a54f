"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

import json
import signal
import time

import pytest

import clock
import run
import spans

CORINGS = run.import_corings()
REFERENCE = json.loads(run.REFERENCE.read_text())


def _bench(jobs, seed=0):
    return run.Bench(CORINGS, jobs, seed, 0.0, REFERENCE)


def _span(name, start, end, parent=-1, size=0):
    return (name, start, end, parent, 0, size)


def test_self_time_subtracts_children_once():
    tree = [
        _span("suites.galois", 0.0, 10.0),
        _span("linalg.kernel", 1.0, 4.0, parent=0),
        _span("linalg.rref_pivots", 2.0, 3.0, parent=1, size=12),
        _span("linalg.solve", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]
    m = spans.layer_metrics(tree, field_of_calls=7)
    assert m["suites.galois.s"] == 10.0
    assert m["suites.galois.self_s"] == 5.0
    assert m["linalg.kernel.self_s"] == 2.0
    assert m["linalg.rref_pivots.calls"] == 1
    assert m["linalg.rref_pivots.cells"] == 12
    assert m["scalars.Field.of.calls"] == 7


def test_self_time_counts_overlapping_children_as_their_union():
    tree = [_span("linalg.kernel", 0.0, 10.0),
            _span("linalg.rref_pivots", 1.0, 4.0, parent=0),
            _span("linalg.rref_pivots", 3.0, 6.0, parent=0),
            _span("linalg.rref_pivots", 9.0, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_quotient_cache_counts_builds_under_lookups():
    tree = [
        _span("coring.GroupCoring.tensor", 0.0, 2.0),
        _span("algebra.tensor_over_algebra", 0.5, 1.5, parent=0),
        _span("coring.GroupCoring.tensor", 3.0, 3.1),
        _span("comodules.GComodule.triple", 4.0, 5.0),
        _span("linalg.triple_balanced_quotient", 4.1, 4.9, parent=3, size=27),
        _span("linalg.triple_balanced_quotient", 6.0, 7.0, size=8),
    ]
    m = spans.layer_metrics(tree, 0)
    assert (m["coring.quotient_cache.lookups"], m["coring.quotient_cache.builds"]) == (2, 1)
    assert m["coring.quotient_cache.hit_ratio"] == 0.5
    assert m["comodules.quotient_cache.hit_ratio"] == 0.0
    assert m["linalg.triple_balanced_quotient.ambient_dim"] == 35


def test_wrappers_absent_before_and_after_traced_run(tmp_path):
    from corings import linalg, morita, suites
    from corings.linalg import Mat
    from corings.scalars import Field

    originals = (linalg.kernel, morita.kernel, Mat.__matmul__, Field.of,
                 dict(suites._SUITE_FUNCS))
    assert spans.find_wrappers() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.find_wrappers()
        assert "corings.morita.kernel" in wrapped
        assert "corings.linalg.Mat.__matmul__" in wrapped
        assert "corings.scalars.Field.of" in wrapped
        assert "corings.suites._SUITE_FUNCS['graded-morita']" in wrapped
    finally:
        tracer.remove()
    assert spans.find_wrappers() == []
    assert (linalg.kernel, morita.kernel, Mat.__matmul__, Field.of,
            dict(suites._SUITE_FUNCS)) == originals

    bench = _bench((("trivial", "all"),))
    metrics, units, notes = run.per_layer(bench, tmp_path / "spans.jsonl")
    assert spans.find_wrappers() == []
    assert bench.failures == [] and bench.attempted >= 2
    assert set(metrics) == set(units) == {name for name, _, _ in spans.PER_LAYER}
    assert metrics["structfile.parse.self_s"] > 0
    assert metrics["scalars.Field.of.calls"] > 0
    assert all(metrics[f"suites.{s}.s"] > 0 for s in spans.SUITE_NAMES)
    names = {json.loads(line)[2] for line in (tmp_path / "spans.jsonl").open()}
    assert {"structfile.parse", "suites.hopf", "linalg.Mat.__matmul__"} <= names


def test_speed_clock_rescales_and_leaves_out_the_yardstick(monkeypatch):
    # a yardstick that takes 50 ms of wall time and reports twice the reference:
    # the host runs at half the reference speed
    monkeypatch.setattr(clock, "yardstick",
                        lambda: (time.sleep(0.05), 2 * clock.YARDSTICK_REF_S)[1])
    c = clock.SpeedClock()
    r0 = c.now()
    c.tick()
    r1 = c.now()
    assert r1 - r0 < 0.005
    w1 = time.perf_counter()
    time.sleep(0.1)
    r2, w2 = c.now(), time.perf_counter()
    assert r2 - r1 == pytest.approx((w2 - w1) / 2, abs=0.002)


def test_speed_clock_samples_while_entered_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    c = clock.SpeedClock()
    with c:
        end = time.perf_counter() + 3.5 * clock.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(c.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_one_byte_change_trips_the_hash_gate():
    bench = _bench((("nongalois", "all"),), seed=5)
    inv = bench.invoke("nongalois", "all")
    assert run.check_report(REFERENCE, "nongalois", "all", 5, inv.report, inv.code) == []
    mid = len(inv.report) // 2
    flipped = inv.report[:mid] + chr(ord(inv.report[mid]) ^ 1) + inv.report[mid + 1:]
    assert run.check_report(REFERENCE, "nongalois", "all", 5, flipped, inv.code) == [
        "report sha256 differs from the reference"]
    assert run.check_report(REFERENCE, "nongalois", "all", 6, inv.report, inv.code) == [
        "report does not carry 'seed 6' on its third line"]
    assert len(run.check_report(REFERENCE, "nongalois", "all", 5, inv.report, 0)) == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER)
    assert set(REFERENCE) == {f"{stem} {suite}" for jobs in run.WORKLOADS.values()
                              for stem, suite in jobs}
