"""Tests for the benchmark's own code: `python3 -m pytest perfbench`."""

import sys
from pathlib import Path

import pytest

import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0), span("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the root's interval
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_summarize_drops_harness_spans_but_subtracts_them():
    spans = [span("f", 0.0, 5.0), span(tracing.HARNESS_PREFIX + "probe", 1.0, 3.0, 0),
             span("f", 6.0, 7.0)]
    assert tracing.summarize(spans) == {"f": (2, pytest.approx(4.0))}


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    counted = tracer.counter("leaf", lambda: None)
    assert outer(1) == 4
    counted()
    tracer.harness("probe", counted)
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "bench.probe"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert tracer.counts["leaf"] == 1          # the harness call is not counted
    calls = tracing.summarize(tracer.spans)
    assert calls["outer"][0] == calls["inner"][0] == 1


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(range(1, 101)) == (90.0, 90, 10)
    pct, value, beyond = tracing.tail_percentile(list(range(25, 0, -1)))
    assert (pct, value, beyond) == (60.0, 15, 10)
    assert sum(x > value for x in range(1, 26)) == 10


def test_tail_percentile_with_too_few_samples_is_the_maximum():
    assert tracing.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tracing.tail_percentile(range(10)) == (100.0, 9, 0)
    assert tracing.tail_percentile(range(11))[2] == 10
    with pytest.raises(ValueError):
        tracing.tail_percentile([])


def test_block_tail_takes_the_median_of_per_block_tails():
    # three blocks of 20: per-block p50 tails are 10, 1010 and 2010
    samples = [b * 1000 + i for b in range(3) for i in range(1, 21)] + [9999]
    assert tracing.block_tail(samples, block=20) == (50.0, 1010, 10, 3)
    # fewer samples than one block: the whole list is the block
    assert tracing.block_tail(range(1, 101), block=200) == (90.0, 90, 10, 1)


def test_check_calls_fails_when_a_wrapper_saw_no_calls():
    totals = {"sdp.solve_kappa": (0, 0.0), "xychain.rdm3": (3, 0.1)}
    with pytest.raises(tracing.TraceCheckError, match="no calls to sdp.solve_kappa"):
        tracing.check_calls(totals, ("sdp.solve_kappa",), ())
    with pytest.raises(tracing.TraceCheckError, match="no calls to edsim"):
        tracing.check_calls(totals, ("edsim.reference_state",), ())
    with pytest.raises(tracing.TraceCheckError, match="unexpected calls"):
        tracing.check_calls(totals, (), ("xychain.rdm3",))
    tracing.check_calls(totals, ("xychain.rdm3",), ("sdp.solve_kappa",))


def test_patch_replaces_every_binding_and_restores_them():
    from xymqc import analysis, cli, linalg, measures, sdp, xychain

    originals = (xychain.rdm3, linalg.trace_norm)
    validate = vars(linalg.DensityMatrix)["validate"]
    tracer = tracing.Tracer()
    patch = tracing.Patch()
    patch.add("xychain", "rdm3", lambda fn: tracer.span("xychain.rdm3", fn))
    patch.add("linalg", "trace_norm", lambda fn: tracer.counter("trace_norm", fn))
    patch.add("linalg", "DensityMatrix.validate",
              lambda fn: tracer.counter("validate", fn))
    with patch:
        assert analysis.rdm3 is cli.rdm3 is xychain.rdm3 is not originals[0]
        assert measures.trace_norm is sdp.trace_norm is analysis.trace_norm
        assert linalg.trace_norm is not originals[1]
        row = analysis.measure_point(0.7, 1.0, 1, 1, 41, with_sdp=False)
    assert row["status"] == "ok"
    assert tracing.summarize(tracer.spans)["xychain.rdm3"][0] == 1
    assert tracer.counts["trace_norm"] > 0 and tracer.counts["validate"] >= 1
    assert (analysis.rdm3, cli.rdm3, xychain.rdm3) == (originals[0],) * 3
    assert (measures.trace_norm, sdp.trace_norm, linalg.trace_norm) == (originals[1],) * 3
    assert vars(linalg.DensityMatrix)["validate"] is validate
