"""The telemetry subsystem: tracer, histogram, registry, run record.

Three layers of guarantees are pinned here:

* **histogram properties** (hypothesis): the streaming histogram's
  quantiles stay within the documented ``growth``-factor bound of an
  exact ``np.percentile`` nearest-rank oracle, and merging is exact —
  associative and commutative in every observable — for any split of a
  stream across shards;
* **tracer semantics**: per-thread nesting, explicit cross-thread
  parents, phase accounting with ancestor shadowing, Chrome trace-event
  export structure, and the null tracer's absolute zero-output contract;
* **non-interference** (tier-1 golden): a streamed screen produces
  bit-identical top-K ids/scores and summary statistics with telemetry
  fully enabled and fully disabled — instrumentation only observes.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import build_screening_deck
from repro.screening.stream import StreamConfig, StreamingScreen
from repro.serving.metrics import ServingMetrics
from repro.telemetry import (
    MetricsRegistry,
    NULL_TRACER,
    StreamingHistogram,
    Telemetry,
    Tracer,
    activate,
    build_run_record,
    current,
    stage_entry,
    validate_run_record,
    worker_occupancy,
    write_run_record,
)
from repro.telemetry.spans import PHASES, phase_totals_of
from repro.utils.rng import derive_seed
from repro.utils.timer import Timer


# --------------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_nesting_links_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        # spans close inner-first
        assert [r.name for r in tracer.records()] == ["inner", "middle", "outer"]

    def test_counters_and_durations(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.add("items", 3)
            span.add("items", 2)
            span.set("batch", 7)
        record = tracer.records()[0]
        assert record.counters == {"items": 5.0, "batch": 7.0}
        assert record.duration_s >= 0.0

    def test_add_on_current_span(self):
        tracer = Tracer()
        tracer.add("orphan")  # no open span: must not raise
        with tracer.span("work"):
            tracer.add("hits")
            tracer.add("hits", 2)
        assert tracer.records()[0].counters == {"hits": 3.0}

    def test_unknown_phase_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown phase"):
            tracer.span("x", phase="cleanup")

    def test_threads_nest_independently(self):
        tracer = Tracer()
        num_threads = 4

        def work(index: int) -> None:
            with tracer.span(f"outer-{index}"):
                with tracer.span(f"inner-{index}"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer) == 2 * num_threads
        by_name = {r.name: r for r in tracer.records()}
        for index in range(num_threads):
            outer, inner = by_name[f"outer-{index}"], by_name[f"inner-{index}"]
            assert outer.parent_id is None
            assert inner.parent_id == outer.span_id
            assert inner.thread_id == outer.thread_id

    def test_explicit_cross_thread_parent(self):
        tracer = Tracer()
        with tracer.span("run") as run_span:
            done = []

            def worker() -> None:
                with tracer.span("shard", parent=run_span):
                    pass
                done.append(True)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["shard"].parent_id == by_name["run"].span_id
        assert by_name["shard"].thread_id != by_name["run"].thread_id

    def test_phase_totals_shadowing(self):
        tracer = Tracer()
        with tracer.span("eval", phase="evaluation", stage="s1"):
            with tracer.span("nested-eval", phase="evaluation", stage="s1"):
                pass
        with tracer.span("out", phase="output", stage="s2"):
            pass
        totals = tracer.phase_totals()
        # the nested same-stage evaluation span is shadowed: counted once
        outer = next(r for r in tracer.records() if r.name == "eval")
        assert totals["evaluation"] == pytest.approx(outer.duration_s)
        assert set(totals) == {"evaluation", "output"}
        assert tracer.phase_totals(stage="s2") == {"output": totals["output"]}
        assert phase_totals_of([]) == {}

    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer()
        with tracer.span("stage", stage="docking"):
            with tracer.span("kernel", phase="evaluation") as span:
                span.set("poses", 8)
        path = tracer.export_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert metadata and metadata[0]["name"] == "thread_name"
        assert {e["name"] for e in complete} == {"stage", "kernel"}
        kernel = next(e for e in complete if e["name"] == "kernel")
        stage = next(e for e in complete if e["name"] == "stage")
        assert kernel["args"]["parent_id"] == stage["args"]["span_id"]
        assert kernel["args"]["poses"] == 8
        assert kernel["args"]["phase"] == "evaluation"
        assert kernel["ts"] >= stage["ts"]
        assert kernel["dur"] <= stage["dur"]


class TestNullTracer:
    def test_records_nothing(self, tmp_path):
        with NULL_TRACER.span("x", phase="startup", stage="s") as span:
            span.add("k")
            span.set("k", 2)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.phase_totals() == {}
        path = NULL_TRACER.export_chrome_trace(str(tmp_path / "empty.json"))
        with open(path) as handle:
            assert json.load(handle)["traceEvents"] == []

    def test_shared_singleton_handle(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestActivation:
    def test_default_is_disabled(self):
        assert current().enabled is False

    def test_activate_restores_previous(self):
        bundle = Telemetry(enabled=True)
        inner = Telemetry(enabled=True)
        assert current() is not bundle
        with activate(bundle):
            assert current() is bundle
            with activate(inner):
                assert current() is inner
            assert current() is bundle
        assert current().enabled is False

    def test_worker_threads_see_active_bundle(self):
        bundle = Telemetry(enabled=True)
        seen = []
        with activate(bundle):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [bundle]


# --------------------------------------------------------------------------- #
# streaming histogram: property suite against an exact oracle
# --------------------------------------------------------------------------- #
GROWTH = 1.05
MIN_VALUE = 1e-6


def make_histogram() -> StreamingHistogram:
    return StreamingHistogram(min_value=MIN_VALUE, max_value=1e4, growth=GROWTH)


def nearest_rank(values: list[float], q: float) -> float:
    """The oracle: the ceil(q*n)-th smallest observation."""
    ordered = sorted(values)
    rank = max(int(math.ceil(q * len(ordered))), 1)
    return ordered[rank - 1]


values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=5e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, q=st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 1.0]))
def test_quantile_error_bound(values, q):
    histogram = make_histogram()
    histogram.observe_many(values)
    estimate = histogram.quantile(q)
    truth = nearest_rank(values, q)
    # documented bound: t <= e <= t*growth above the floor, t <= e <= floor below
    assert estimate >= truth or math.isclose(estimate, truth, rel_tol=1e-9)
    ceiling = max(truth * GROWTH, MIN_VALUE)
    assert estimate <= ceiling or math.isclose(estimate, ceiling, rel_tol=1e-9)
    # oracle agreement with numpy's inverted_cdf for strictly positive q
    if q > 0:
        assert truth == float(np.percentile(np.array(values), q * 100, method="inverted_cdf"))


def assert_same_observables(a: StreamingHistogram, b: StreamingHistogram) -> None:
    assert np.array_equal(a.bucket_counts(), b.bucket_counts())
    assert a.count == b.count
    assert a.total == b.total  # ExactSum: bit-equal, not approximately
    assert (a.minimum == b.minimum) or (math.isnan(a.minimum) and math.isnan(b.minimum))
    assert (a.maximum == b.maximum) or (math.isnan(a.maximum) and math.isnan(b.maximum))
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        qa, qb = a.quantile(q), b.quantile(q)
        assert (qa == qb) or (math.isnan(qa) and math.isnan(qb))


@settings(max_examples=40, deadline=None)
@given(
    values=values_strategy,
    splits=st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=4),
)
def test_merge_equals_concatenation_for_any_split(values, splits):
    """Any split of a stream across shards merges back to the same histogram."""
    cuts = sorted(min(s, len(values)) for s in splits)
    pieces, last = [], 0
    for cut in cuts + [len(values)]:
        pieces.append(values[last:cut])
        last = cut
    merged = make_histogram()
    for piece in pieces:
        shard = make_histogram()
        shard.observe_many(piece)
        merged.merge(shard)
    direct = make_histogram()
    direct.observe_many(values)
    assert_same_observables(merged, direct)


@settings(max_examples=30, deadline=None)
@given(a=values_strategy, b=values_strategy, c=values_strategy)
def test_merge_associative_and_commutative(a, b, c):
    def observed(values):
        histogram = make_histogram()
        histogram.observe_many(values)
        return histogram

    ab_c = observed(a).merge(observed(b)).merge(observed(c))
    a_bc = observed(a).merge(observed(b).merge(observed(c)))
    assert_same_observables(ab_c, a_bc)
    ba = observed(b).merge(observed(a))
    ab = observed(a).merge(observed(b))
    assert_same_observables(ab, ba)


class TestHistogramEdges:
    def test_rejects_bad_observations(self):
        histogram = make_histogram()
        for bad in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError):
                histogram.observe(bad)

    def test_empty_quantiles_are_nan(self):
        histogram = make_histogram()
        assert math.isnan(histogram.quantile(0.5))
        assert math.isnan(histogram.mean)

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            make_histogram().quantile(1.5)

    def test_incompatible_merge_rejected(self):
        with pytest.raises(ValueError, match="bucket configurations"):
            make_histogram().merge(StreamingHistogram(min_value=1e-3))

    def test_no_truncation_ever(self):
        """The regression the reservoir had: late observations must count."""
        histogram = make_histogram()
        histogram.observe_many([0.001] * 1000)
        histogram.observe_many([0.1] * 1000)
        assert histogram.count == 2000
        assert histogram.quantile(0.99) >= 0.1
        assert histogram.quantile(0.5) <= 0.001 * GROWTH

    def test_reset(self):
        histogram = make_histogram()
        histogram.observe(1.0)
        histogram.reset()
        assert histogram.count == 0
        assert not histogram.bucket_counts().any()


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_counter_monotonic(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(2.5)
        gauge.add(0.5)
        assert gauge.value == 3.0

    def test_snapshot_shape_and_probe(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("load").set(0.5)
        registry.histogram("lat").observe(0.01)
        registry.register_probe("cache", lambda: {"hits": 7})
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"jobs": 3}
        assert snapshot["gauges"] == {"load": 0.5}
        assert snapshot["histograms"]["lat"]["count"] == 1.0
        assert snapshot["probes"] == {"cache": {"hits": 7}}

    def test_reset_spares_probes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        registry.register_probe("p", lambda: {"x": 1})
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 0}
        assert snapshot["histograms"]["h"]["count"] == 0.0
        assert snapshot["probes"] == {"p": {"x": 1}}


# --------------------------------------------------------------------------- #
# run record
# --------------------------------------------------------------------------- #
class TestRunRecord:
    def test_stage_entry_phases_sum_to_duration(self):
        entry = stage_entry("docking", "executed", 10.0, {"startup": 1.0, "evaluation": 6.5})
        phases = entry["phases"]
        assert phases["output"] == 0.0
        assert phases["other"] == pytest.approx(2.5)
        assert sum(phases.values()) == pytest.approx(entry["duration_s"], rel=1e-9)

    def test_stage_entry_never_negative_other(self):
        entry = stage_entry("s", "executed", 1.0, {"evaluation": 2.0})
        assert entry["phases"]["other"] == 0.0

    def test_valid_record_roundtrips(self, tmp_path):
        record = build_run_record(
            "campaign",
            duration_s=1.5,
            stages=[stage_entry("library", "executed", 0.5, {"startup": 0.5})],
            metrics={"counters": {"x": np.int64(3)}},
            workers=worker_occupancy({0: 0.4, 1: 0.2}, 1.5),
            trace={"num_spans": 12},
            faults=["node_failure@lib"],
        )
        validate_run_record(record)
        path = write_run_record(record, str(tmp_path / "run.json"))
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["kind"] == "campaign"
        assert loaded["metrics"]["counters"]["x"] == 3  # numpy coerced
        assert loaded["workers"]["occupancy"][0]["utilization"] == pytest.approx(0.4 / 1.5)
        validate_run_record(loaded)

    def test_invalid_records_rejected_with_paths(self):
        record = build_run_record("campaign", duration_s=1.0, stages=[])
        record.pop("faults")
        with pytest.raises(ValueError, match=r"\$: missing required key 'faults'"):
            validate_run_record(record)
        bad_stage = build_run_record(
            "campaign", duration_s=1.0, stages=[stage_entry("s", "executed", 1.0)]
        )
        bad_stage["stages"][0]["status"] = "exploded"
        with pytest.raises(ValueError, match=r"stages\[0\].status"):
            validate_run_record(bad_stage)
        wrong_type = build_run_record("campaign", duration_s=1.0, stages=[])
        wrong_type["duration_s"] = "fast"
        with pytest.raises(ValueError, match="expected number"):
            validate_run_record(wrong_type)


# --------------------------------------------------------------------------- #
# timer
# --------------------------------------------------------------------------- #
class TestTimer:
    def test_sections_accumulate(self):
        timer = Timer()
        with timer.section("startup"):
            pass
        with timer.section("startup"):
            pass
        assert set(timer.sections) == {"startup"}
        assert timer.total() == timer.sections["startup"] >= 0.0

    def test_thread_safe_accumulation(self):
        timer = Timer()
        per_thread, num_threads = 500, 8

        def work() -> None:
            for _ in range(per_thread):
                timer.add("evaluation", 1.0)

        threads = [threading.Thread(target=work) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # integer-valued floats add exactly: any lost update would show
        assert timer.sections["evaluation"] == float(per_thread * num_threads)

    def test_sections_emit_phase_spans(self):
        tracer = Tracer()
        timer = Timer(tracer=tracer, stage="fusion_scoring")
        with timer.section("evaluation"):
            pass
        with timer.section("collate"):
            pass
        records = {r.name: r for r in tracer.records()}
        assert records["evaluation"].phase == "evaluation"
        assert records["evaluation"].stage == "fusion_scoring"
        assert records["collate"].phase is None  # not a Table 7 phase name
        assert set(PHASES) == {"startup", "evaluation", "output"}

    def test_uses_active_bundle_by_default(self):
        bundle = Telemetry(enabled=True)
        with activate(bundle):
            with Timer().section("output"):
                pass
        assert [r.name for r in bundle.tracer.records()] == ["output"]


# --------------------------------------------------------------------------- #
# serving metrics satellites
# --------------------------------------------------------------------------- #
class TestServingMetrics:
    def test_percentiles_see_late_traffic(self):
        """The reservoir-truncation regression: late latencies must count."""
        metrics = ServingMetrics(max_batch_size=8)
        for _ in range(1000):
            metrics.record_submission(cache_hit=False)
            metrics.record_completion(0.001)
        for _ in range(1000):
            metrics.record_submission(cache_hit=False)
            metrics.record_completion(0.1)
        snap = metrics.snapshot()
        assert snap.completed == 2000
        assert snap.latency_p99_ms >= 100.0 * 0.99  # dominated by the slow tail
        assert snap.latency_p50_ms <= 1.0 * 1.1
        assert snap.latency_p99_ms >= snap.latency_p50_ms >= 0.0

    def test_ledger_closes(self):
        metrics = ServingMetrics()
        for _ in range(5):
            metrics.record_submission(cache_hit=False)
        for _ in range(3):
            metrics.record_completion(0.01)
        for _ in range(2):
            metrics.record_failure()
        snap = metrics.snapshot()
        assert snap.submitted == snap.completed + snap.failed == 5

    def test_burst_vs_lifetime_rates(self):
        import time as time_module

        metrics = ServingMetrics()
        for _ in range(50):
            metrics.record_submission(cache_hit=False)
            metrics.record_completion(0.001)
        time_module.sleep(0.05)  # idle after the burst
        snap = metrics.snapshot()
        # burst window froze at the last completion; lifetime kept ticking
        assert snap.lifetime_s > snap.elapsed_s
        assert snap.requests_per_second > snap.requests_per_second_lifetime
        assert snap.requests_per_second_lifetime == pytest.approx(
            snap.completed / snap.lifetime_s
        )

    def test_shared_registry_absorbs_serving_metrics(self):
        registry = MetricsRegistry()
        metrics = ServingMetrics(max_batch_size=4, registry=registry)
        metrics.record_submission(cache_hit=True)
        metrics.record_completion(0.01)
        metrics.record_batch(4)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serving.submitted"] == 1
        assert snapshot["histograms"]["serving.latency_s"]["count"] == 1.0
        assert snapshot["histograms"]["serving.batch_size"]["max"] == 4.0

    def test_empty_snapshot_is_zeroed(self):
        snap = ServingMetrics().snapshot()
        assert snap.latency_p50_ms == snap.latency_p99_ms == 0.0
        assert snap.mean_batch_size == 0.0
        assert snap.requests_per_second == 0.0


# --------------------------------------------------------------------------- #
# golden non-interference: bit-identity with telemetry on vs off
# --------------------------------------------------------------------------- #
STREAM_SEED = 41
STREAM_SITES = ("protease1", "protease2")


@pytest.fixture(scope="module")
def telemetry_stream_inputs():
    sites = make_sarscov2_targets(seed=derive_seed(STREAM_SEED, "targets"))
    sites = {name: sites[name] for name in STREAM_SITES}
    deck = build_screening_deck({"emolecules": 5, "zinc_world_approved": 4}, seed=STREAM_SEED)
    return sites, deck


def run_traced_stream(workbench, sites, deck, telemetry):
    config = StreamConfig(
        shard_size=4,
        workers=2,
        top_k=5,
        fusion_batch_size=1,
        poses_per_compound=2,
        docking_mc_steps=8,
        docking_restarts=1,
        seed=STREAM_SEED,
    )
    engine = StreamingScreen(
        workbench.coherent_fusion, workbench.featurizer, sites, config, telemetry=telemetry
    )
    return engine, engine.run(deck.molecules)


def test_streamed_results_bit_identical_with_telemetry_on_and_off(
    workbench, telemetry_stream_inputs, tmp_path
):
    sites, deck = telemetry_stream_inputs
    _, baseline = run_traced_stream(workbench, sites, deck, Telemetry.disabled())
    traced_engine, traced = run_traced_stream(workbench, sites, deck, Telemetry(enabled=True))

    for site_name in sites:
        base_ids, base_scores = baseline.topk_arrays(site_name)
        trace_ids, trace_scores = traced.topk_arrays(site_name)
        assert np.array_equal(base_ids, trace_ids)
        assert np.array_equal(base_scores, trace_scores)  # bit-for-bit
        assert np.array_equal(
            baseline.stats[site_name].as_array(), traced.stats[site_name].as_array()
        )
    assert baseline.num_compounds == traced.num_compounds

    # the traced run actually observed the work...
    telemetry = traced_engine.telemetry
    assert len(telemetry.tracer) > 0
    names = [r.name for r in telemetry.tracer.records()]
    assert "streaming-screen" in names
    assert any(name.startswith("stream-shard-") for name in names)
    assert "mc-dock" in names
    counters = telemetry.snapshot()["counters"]
    assert counters["stream.shards_executed"] == traced.shards_executed
    assert counters["stream.compounds"] == traced.num_compounds
    assert counters["docking.compounds"] > 0

    # ...with stage -> shard -> kernel nesting surviving the thread hop.
    # Two workers run shards concurrently, so closing order says nothing
    # about which shard a kernel span belongs to: check every kernel span.
    records = {r.span_id: r for r in telemetry.tracer.records()}
    run_record_span = next(r for r in records.values() if r.name == "streaming-screen")
    shards = {r.span_id for r in records.values() if r.name.startswith("stream-shard-")}
    assert shards and all(records[s].parent_id == run_record_span.span_id for s in shards)
    docks = [r for r in records.values() if r.name == "mc-dock"]
    for dock in docks:
        ancestor = dock.parent_id
        seen = set()
        while ancestor is not None and ancestor not in seen:
            seen.add(ancestor)
            ancestor = records[ancestor].parent_id
        assert len(seen & shards) == 1

    # exported trace loads as Chrome trace-event JSON
    path = telemetry.export_chrome_trace(str(tmp_path / "stream_trace.json"))
    with open(path) as handle:
        document = json.load(handle)
    assert any(e["ph"] == "X" for e in document["traceEvents"])

    # run record validates and its phases sum to the stage wall time
    record = traced_engine.run_record()
    validate_run_record(record)
    stage = record["stages"][0]
    assert stage["name"] == "streamed_screen"
    assert sum(stage["phases"].values()) == pytest.approx(stage["duration_s"], rel=1e-6)
    assert record["workers"]["count"] >= 1
    assert record["trace"]["num_spans"] == len(telemetry.tracer)

    # the null run left its (null) tracer empty
    assert traced.duration_s > 0.0


def test_run_record_requires_a_run(workbench, telemetry_stream_inputs):
    sites, _deck = telemetry_stream_inputs
    engine = StreamingScreen(
        workbench.coherent_fusion,
        workbench.featurizer,
        sites,
        StreamConfig(shard_size=4, seed=STREAM_SEED),
    )
    with pytest.raises(RuntimeError, match="requires a completed run"):
        engine.run_record()
