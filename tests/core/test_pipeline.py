"""Tests for the combined detection + target-identification pipeline."""

import pytest

from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish, PageVerdict
from repro.core.target import TargetIdentifier
from repro.obs import MetricsRegistry
from repro.resilience import (
    CircuitBreaker,
    GuardedSearchEngine,
    ManualClock,
    SearchUnavailableError,
)
from repro.resilience.browser import LoadResult
from repro.resilience.retry import Deadline
from repro.web.browser import Browser
from repro.web.faults import FlakyOcr, FlakySearchEngine
from repro.web.hosting import SyntheticWeb
from repro.web.ocr import SimulatedOcr

#: The verdict counters every analysis path must increment identically.
_VERDICT_COUNTERS = (
    "verdicts_total", "verdicts_degraded_total", "fp_filtered_total",
)


def _key(verdict):
    return (
        verdict.verdict, verdict.confidence, tuple(verdict.targets),
        tuple(verdict.degradations), verdict.degraded,
    )


def _counters(metrics):
    return sorted(
        (name, sorted(labels.items()), value)
        for name, labels, value in metrics.iter_counters()
        if name in _VERDICT_COUNTERS
    )


def _expired():
    """A deadline whose budget is already spent."""
    clock = ManualClock()
    deadline = Deadline(1.0, clock=clock)
    clock.advance(1.0)
    return deadline


def _down_search(search):
    """A search engine forced down behind a circuit breaker."""
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_time=300.0, clock=ManualClock(),
        failure_types=(SearchUnavailableError,),
    )
    return GuardedSearchEngine(
        FlakySearchEngine(search, forced_down=True), breaker=breaker
    )


@pytest.fixture(scope="module")
def pipeline(tiny_world):
    extractor = FeatureExtractor(alexa=tiny_world.alexa)
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=40)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    identifier = TargetIdentifier(
        tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)
    )
    return KnowYourPhish(detector, identifier)


class TestPipeline:
    def test_phish_detected_with_target(self, pipeline, tiny_world):
        hits = 0
        pages = [
            page for page in tiny_world.dataset("phishTest")[:20]
            if page.target_mld
        ]
        for page in pages:
            verdict = pipeline.analyze(page.snapshot)
            if verdict.is_phish and page.target_mld in verdict.targets:
                hits += 1
        assert hits / len(pages) > 0.6

    def test_legit_mostly_passes(self, pipeline, tiny_world):
        passed = 0
        for page in tiny_world.dataset("english")[:30]:
            verdict = pipeline.analyze(page.snapshot)
            passed += verdict.verdict == "legitimate"
        assert passed >= 25

    def test_confidence_in_unit_interval(self, pipeline, tiny_world):
        verdict = pipeline.analyze(tiny_world.dataset("english")[0].snapshot)
        assert 0.0 <= verdict.confidence <= 1.0

    def test_low_confidence_short_circuits(self, pipeline, tiny_world):
        # Legitimate verdicts below threshold carry no identification.
        for page in tiny_world.dataset("english")[:30]:
            verdict = pipeline.analyze(page.snapshot)
            if verdict.confidence < pipeline.detector.threshold:
                assert verdict.identification is None
                break

    def test_without_identifier(self, tiny_world, pipeline):
        bare = KnowYourPhish(pipeline.detector, identifier=None)
        verdict = bare.analyze(tiny_world.dataset("phishTest")[0].snapshot)
        assert verdict.verdict in ("legitimate", "phish")

    def test_is_blocked_semantics(self, pipeline):
        phish = PageVerdict(verdict="phish", confidence=0.9, targets=["x"])
        suspicious = PageVerdict(verdict="suspicious", confidence=0.8,
                                 targets=[])
        legit = PageVerdict(verdict="legitimate", confidence=0.1, targets=[])
        assert pipeline.is_blocked(phish)
        assert pipeline.is_blocked(suspicious)
        assert not pipeline.is_blocked(legit)

    def test_suspicious_not_blocked_when_configured(self, pipeline):
        lenient = KnowYourPhish(
            pipeline.detector, pipeline.identifier,
            treat_suspicious_as_phish=False,
        )
        suspicious = PageVerdict(verdict="suspicious", confidence=0.8,
                                 targets=[])
        assert not lenient.is_blocked(suspicious)

    def test_analyze_batch_matches_per_page_analyze(
        self, pipeline, tiny_world
    ):
        """``analyze``, batches of one and one whole batch agree, also
        on degraded inputs: search down behind its breaker, garbled and
        failing OCR, load-time degradation tags, and an expired
        deadline (which only ``analyze`` takes)."""
        pages = [
            page.snapshot
            for page in tiny_world.dataset("phishTest")[:12]
            + tiny_world.dataset("english")[:12]
        ]
        pages.append(LoadResult(
            snapshot=tiny_world.dataset("phishTest")[12].snapshot,
            attempts=2,
            degradations=["partial_content"],
        ))
        search, ocr = tiny_world.search, SimulatedOcr(error_rate=0.02)
        scenarios = {
            "healthy": lambda: TargetIdentifier(search, ocr=ocr),
            "search_down": lambda: TargetIdentifier(
                _down_search(search), ocr=ocr
            ),
            "ocr_garbled": lambda: TargetIdentifier(
                search, ocr=SimulatedOcr(error_rate=1.0)
            ),
            "ocr_failing": lambda: TargetIdentifier(
                search, ocr=FlakyOcr(ocr, failure_rate=1.0)
            ),
        }
        tags_seen = set()
        for name, identifier in scenarios.items():
            runs = []
            for mode in ("analyze", "singles", "batch"):
                analyzer = KnowYourPhish(pipeline.detector, identifier())
                metrics = MetricsRegistry()
                if mode == "analyze":
                    verdicts = [
                        analyzer.analyze(page, metrics=metrics)
                        for page in pages
                    ]
                elif mode == "singles":
                    verdicts = [
                        analyzer.analyze_batch([page], metrics=metrics)[0]
                        for page in pages
                    ]
                else:
                    verdicts = analyzer.analyze_batch(pages, metrics=metrics)
                runs.append(([_key(v) for v in verdicts], _counters(metrics)))
                tags_seen.update(
                    tag for v in verdicts for tag in v.degradations
                )
            assert runs[0] == runs[1] == runs[2], name
        assert {"search_unavailable", "ocr_failed", "partial_content"} \
            <= tags_seen

        # An expired deadline leaves every flagged page with the
        # detector-only verdict; unflagged pages are untouched.
        full = pipeline.analyze_batch(pages)
        metrics = MetricsRegistry()
        expired = [
            pipeline.analyze(page, metrics=metrics, deadline=_expired())
            for page in pages
        ]
        flagged = 0
        for page, got, want in zip(pages, expired, full):
            if want.confidence < pipeline.detector.threshold:
                assert _key(got) == _key(want)
                continue
            flagged += 1
            load_tags = getattr(page, "degradations", [])
            assert _key(got) == (
                "phish", want.confidence, (),
                (*load_tags, "deadline_exhausted"), True,
            )
            assert got.identification is None
        assert flagged > 0
        assert metrics.counter_total("verdicts_total") == len(pages)
        assert metrics.counter_value("verdicts_total", verdict="phish") \
            == flagged
        assert metrics.counter_total("verdicts_degraded_total") == \
            flagged + sum(
                1 for page, v in zip(pages, full)
                if isinstance(page, LoadResult)
                and v.confidence < pipeline.detector.threshold
            )
        assert metrics.counter_total("fp_filtered_total") == 0

    def test_analyze_batch_metrics_match_per_page(
        self, pipeline, tiny_world
    ):
        from repro.obs import MetricsRegistry

        snapshots = [
            page.snapshot
            for page in tiny_world.dataset("phishTest")[:8]
            + tiny_world.dataset("english")[:8]
        ]
        serial_metrics = MetricsRegistry()
        for snapshot in snapshots:
            pipeline.analyze(snapshot, metrics=serial_metrics)
        batch_metrics = MetricsRegistry()
        pipeline.analyze_batch(snapshots, metrics=batch_metrics)
        for name in ("verdicts_total", "verdicts_degraded_total",
                     "fp_filtered_total"):
            assert batch_metrics.counter_total(name) == \
                serial_metrics.counter_total(name), name

    def test_analyze_batch_empty(self, pipeline):
        assert pipeline.analyze_batch([]) == []

    def test_analyze_batch_carries_load_degradations(
        self, pipeline, tiny_world
    ):
        from repro.resilience.browser import LoadResult

        load = LoadResult(
            snapshot=tiny_world.dataset("english")[0].snapshot,
            attempts=2,
            degradations=["partial_content"],
        )
        serial = pipeline.analyze(load)
        [batch] = pipeline.analyze_batch([load])
        assert batch.degradations == serial.degradations
        assert "partial_content" in batch.degradations
        assert batch.degraded
        assert batch.verdict == serial.verdict

    def test_deeply_nested_page_gets_a_verdict(self, pipeline):
        """1,200 nested ``<div>``s are analyzed, never a RecursionError."""
        url = "http://deep-nesting.example.com/login"
        web = SyntheticWeb()
        web.host(
            url,
            "<title>Sign in</title>"
            + "<div>verify your account " * 1200 + "</div>" * 1200,
        )
        snapshot = Browser(web).load(url)
        single = pipeline.analyze(snapshot)
        [batch] = pipeline.analyze_batch([snapshot])
        report = pipeline.analyze_many([url], Browser(web))
        assert report.quarantined == []
        assert [page.url for page in report.analyzed] == [url]
        assert _key(single) == _key(batch) == \
            _key(report.analyzed[0].verdict)

    def test_page_verdict_helpers(self):
        verdict = PageVerdict(verdict="phish", confidence=0.95,
                              targets=["paypal", "visa"])
        assert verdict.is_phish
        assert verdict.top_target == "paypal"
        assert PageVerdict("legitimate", 0.1, []).top_target is None
