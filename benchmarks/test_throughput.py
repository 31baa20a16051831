"""Throughput benchmark: cache, pool dispatch and columnar extraction.

The paper argues deployability from per-page latency (Table VIII); a
production crawl additionally needs batch throughput.  Two layers are
measured and gated here, each gate comparing two runs of one execution
path that differ only in the mechanism it guards:

* **pipeline** — the full pipeline over the robustness workload in four
  configurations, {serial, 4-worker pool} × {cold cache, warm cache}.
  Serial modes make one ``analyze_batch`` call over the loaded pages;
  pooled modes make the same call once per chunk, with a
  backend-aware chunk count (one chunk per process worker; a single
  chunk on the GIL-bound thread backend used here).  Every
  configuration must produce verdicts identical to the serial cold
  run, a warm cache must beat a cold one, and the pool may trail
  serial on the same chunking by at most its dispatch overhead
  (``POOL_RATE_FLOOR``).
* **extraction stage** — feature extraction isolated from the load and
  target-identification floors (serial and stateful by contract, so no
  extraction rewrite can move them).  The cold columnar pass over the
  whole workload must beat a loop of batch-of-one ``extract`` calls by
  ``BATCH_GAIN_FLOOR`` (the per-batch fixed costs stay amortised), and
  a warm pass must beat the cold one by ``CACHE_GAIN_FLOOR``.

The bounds were set from interleaved measurements on a 2-core Xeon
with Python 3.11 (see the comments at each constant).  Both tables land in
``results/throughput.txt`` and, machine-readable with the pre-batch
baseline attached, ``results/throughput.json``.
"""

import statistics

import pytest

from repro.evaluation.reporting import format_table

PAGES_PER_CLASS = 40
WORKERS = 4

#: End-to-end pages/sec from the pre-batch committed artifact
#: (results/throughput.txt before the columnar rewrite) — the baseline
#: the batch path's headline speedup is quoted against.
PRE_BATCH_BASELINE = {
    "serial/cold": 153.0,
    "parallel4/cold": 178.8,
    "serial/warm": 411.3,
    "parallel4/warm": 386.5,
}

#: Interleaved rounds per mode.  Gates compare modes by the median over
#: rounds of their paired round-time ratio (the k-th rounds of two
#: modes ran back to back), which rides out the minutes-long speed
#: swings of a shared host that a ratio of two fastest rounds does not.
REPEATS = 7

#: Pooled over serial pages/sec on a warm cache, both making the same
#: ``analyze_batch`` call per chunk.  Measured 0.98–1.07x; the floor allows
#: 10% of dispatch overhead.  Per-page dispatch costs only ~5% on a
#: warm cache, inside timing noise, so which calls the pool makes is
#: pinned exactly instead, by ``TestAnalyzeMany::
#: test_batch_pipeline_used_and_report_equivalent`` in
#: ``tests/resilience/test_resilient_browser.py``.
POOL_RATE_FLOOR = 0.90

#: Cold ``extract_batch`` over the workload vs a loop of batch-of-one
#: ``extract`` calls.  Measured 1.32–1.45x.
BATCH_GAIN_FLOOR = 1.15

#: Warm (all cache hits) over cold ``extract_batch``.  Measured 19.5–24x.
#: End to end the warm cache lifts serial pages/sec only 1.1–1.5x (loads
#: and target identification dominate), too little signal for a floor
#: above 1.0 under timing noise, so the cache is gated where it acts.
CACHE_GAIN_FLOOR = 10.0


def paired_rate_ratio(fast: dict, slow: dict) -> float:
    """Median over rounds of ``fast``'s rate relative to ``slow``'s."""
    return statistics.median(
        slow_s / fast_s
        for fast_s, slow_s in zip(fast["round_seconds"], slow["round_seconds"])
    )


@pytest.fixture(scope="module")
def pipeline_rows(lab):
    return lab.throughput_benchmark(
        pages_per_class=PAGES_PER_CLASS, workers=WORKERS, backend="thread",
        repeats=REPEATS,
    )


@pytest.fixture(scope="module")
def extraction_rows(lab):
    return lab.extraction_benchmark(
        pages_per_class=PAGES_PER_CLASS, repeats=REPEATS
    )


def test_throughput_serial_vs_parallel(pipeline_rows):
    rows = pipeline_rows
    assert [r["mode"] for r in rows] == [
        "serial/cold", f"parallel{WORKERS}/cold",
        "serial/warm", f"parallel{WORKERS}/warm",
    ]
    # The core guarantee: identical verdicts in every configuration.
    assert all(r["verdicts_match"] for r in rows)
    # Caching still pays for itself end to end on a repeat visit: the
    # same analyze_batch path skips feature extraction.
    assert paired_rate_ratio(rows[2], rows[0]) > 1.0  # serial warm vs cold


def test_chunked_pool_keeps_up_with_serial(pipeline_rows):
    """Chunked dispatch costs the pool next to nothing over serial.

    Serial and pooled runs make the same ``analyze_batch`` call per
    chunk (a single chunk on the thread backend), so the pool can only
    trail serial by its dispatch overhead.  Before chunked dispatch,
    per-page scheduling made the 4-worker pool *slower* than serial on
    a warm cache (386.5 vs 411.3 pages/sec in the pre-batch artifact).
    """
    by_mode = {r["mode"]: r for r in pipeline_rows}
    warm_parallel = by_mode[f"parallel{WORKERS}/warm"]
    warm_serial = by_mode["serial/warm"]
    ratio = paired_rate_ratio(warm_parallel, warm_serial)
    assert ratio >= POOL_RATE_FLOOR, (
        f"parallel{WORKERS}/warm ran at {ratio:.2f}x serial/warm "
        f"(floor {POOL_RATE_FLOOR}x)"
    )


def test_extraction_stage_speedup(extraction_rows):
    rows = extraction_rows
    assert [r["mode"] for r in rows] == [
        "per_page/cold", "batch/cold", "batch/warm",
    ]
    # The differential guarantee re-checked on live corpus data.
    assert all(r["bit_identical"] for r in rows)
    # per_page/cold is a loop of batch-of-one extract calls: the same
    # columnar code, so the gap is what batching amortises.
    gain = paired_rate_ratio(rows[1], rows[0])
    assert gain >= BATCH_GAIN_FLOOR, (
        f"cold batch extraction reached only {gain:.2f}x "
        f"the batch-of-one loop (floor {BATCH_GAIN_FLOOR}x)"
    )
    cache_gain = paired_rate_ratio(rows[2], rows[1])
    assert cache_gain >= CACHE_GAIN_FLOOR, (
        f"warm extraction ran only {cache_gain:.1f}x cold "
        f"(floor {CACHE_GAIN_FLOOR}x)"
    )


def test_throughput_artifacts(
    pipeline_rows, extraction_rows, save_result, save_json
):
    save_result("throughput", "\n\n".join((
        "pipeline (end to end; serial = one analyze_batch call)\n"
        + format_table(
            ["mode", "pages", "seconds", "pages_per_sec", "speedup",
             "verdicts_match"],
            [[r["mode"], r["pages"], round(r["seconds"], 3),
              round(r["pages_per_sec"], 1), round(r["speedup"], 2),
              r["verdicts_match"]] for r in pipeline_rows],
        ),
        "extraction stage (loads + identification excluded; "
        "per_page = batch-of-one extract loop)\n"
        + format_table(
            ["mode", "pages", "seconds", "pages_per_sec", "speedup",
             "bit_identical"],
            [[r["mode"], r["pages"], round(r["seconds"], 4),
              round(r["pages_per_sec"], 1), round(r["speedup"], 2),
              r["bit_identical"]] for r in extraction_rows],
        ),
    )))
    batch_cold = extraction_rows[1]
    save_json("throughput", {
        "pipeline": pipeline_rows,
        "extraction_stage": extraction_rows,
        "baseline_pre_batch_pages_per_sec": PRE_BATCH_BASELINE,
        "gates_median_paired_ratio": {
            "serial_warm_vs_cold": paired_rate_ratio(
                pipeline_rows[2], pipeline_rows[0]
            ),
            f"parallel{WORKERS}_vs_serial_warm": paired_rate_ratio(
                pipeline_rows[3], pipeline_rows[2]
            ),
            "batch_cold_vs_per_page": paired_rate_ratio(
                extraction_rows[1], extraction_rows[0]
            ),
            "batch_warm_vs_cold": paired_rate_ratio(
                extraction_rows[2], extraction_rows[1]
            ),
        },
        "batch_cold_vs_pre_batch_serial": round(
            batch_cold["pages_per_sec"]
            / PRE_BATCH_BASELINE["serial/cold"], 2
        ),
        "notes": (
            "End-to-end rates are floored by serial page loads and "
            "per-page target identification (stateful by contract); "
            "the extraction_stage section isolates what the columnar "
            "rewrite accelerates.  batch_cold_vs_pre_batch_serial "
            "quotes cold columnar extraction against the pre-batch "
            "committed serial/cold end-to-end rate."
        ),
    })


def _observed_batch(lab, tracer, metrics, pool=None, page_budget=None):
    """One cold-cache batch over the robustness workload, instrumented."""
    from repro.core.detector import PhishingDetector
    from repro.core.features import FeatureExtractor
    from repro.core.pipeline import KnowYourPhish
    from repro.core.target import TargetIdentifier
    from repro.parallel import AnalysisCache
    from repro.resilience import ResilientBrowser
    from repro.web.browser import Browser

    urls, _labels = lab._robustness_workload(PAGES_PER_CLASS)
    base = lab.detector("fall")
    detector = PhishingDetector(
        FeatureExtractor(alexa=lab.world.alexa, cache=AnalysisCache()),
        feature_set=base.feature_set,
        threshold=base.threshold,
    )
    detector.model = base.model
    identifier = TargetIdentifier(lab.world.search, ocr=lab.ocr)
    pipeline = KnowYourPhish(
        detector, identifier, tracer=tracer, metrics=metrics
    )
    # only the resilient browser takes a per-page deadline
    browser = (
        Browser(lab.world.web) if page_budget is None
        else ResilientBrowser(lab.world.web)
    )
    return pipeline.analyze_many(
        urls, browser, pool=pool, page_budget=page_budget
    )


#: A page budget no page comes near; it only selects the per-page route.
GENEROUS_BUDGET = 3600.0


def test_observability_overhead_bounded(lab, save_result):
    """Live tracing+metrics cost at most 5% of batch throughput.

    Traced ``analyze_many`` runs analyze page by page (one isolated
    span tree per page keeps dumps identical across backends), while
    untraced unbudgeted runs take one ``analyze_batch`` call.  Both
    timed runs therefore carry a generous page budget, which sends the
    untraced run down the same per-page route: the two timings differ
    only in the instruments, not in the execution path.
    """
    import time

    from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer

    def _timed(fn):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    # Interleave the rounds so a transient load spike on the machine
    # hits both variants instead of skewing whichever phase it lands on;
    # best-of-8 because the 5% budget is within single-round jitter.
    null_seconds = live_seconds = float("inf")
    for _ in range(8):
        null_seconds = min(null_seconds, _timed(
            lambda: _observed_batch(
                lab, NULL_TRACER, NULL_METRICS, page_budget=GENEROUS_BUDGET
            )
        ))
        live_seconds = min(live_seconds, _timed(
            lambda: _observed_batch(
                lab, Tracer(), MetricsRegistry(), page_budget=GENEROUS_BUDGET
            )
        ))
    overhead = live_seconds / null_seconds - 1.0
    save_result("observability_overhead", format_table(
        ["instruments", "seconds"],
        [["null (NullTracer/NullMetrics)", round(null_seconds, 3)],
         ["live (Tracer/MetricsRegistry)", round(live_seconds, 3)],
         ["overhead", f"{overhead:+.1%}"]],
    ))
    assert overhead <= 0.05, (
        f"live instrumentation cost {overhead:.1%} (budget 5%)"
    )


def test_observed_metric_totals_process_equals_serial(lab):
    """Per-worker metric deltas merge to exactly the serial totals."""
    from repro.obs import MetricsRegistry, Tracer
    from repro.parallel import WorkerPool

    serial_tracer, serial_metrics = Tracer(), MetricsRegistry()
    serial = _observed_batch(lab, serial_tracer, serial_metrics)
    pool_tracer, pool_metrics = Tracer(), MetricsRegistry()
    with WorkerPool(workers=WORKERS, backend="process") as pool:
        fanned = _observed_batch(lab, pool_tracer, pool_metrics, pool=pool)

    assert pool_metrics.as_dict() == serial_metrics.as_dict()
    assert [page.verdict.verdict for page in fanned.analyzed] == \
        [page.verdict.verdict for page in serial.analyzed]
    # the span *structure* is schedule-independent too (times are wall
    # clock here, so byte-identity is asserted in tests/obs instead)
    assert [span.name for span in pool_tracer.iter_spans()] == \
        [span.name for span in serial_tracer.iter_spans()]
