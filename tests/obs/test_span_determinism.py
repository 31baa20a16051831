"""Span dumps are byte-identical across runs and pool backends.

The acceptance contract for the tracing layer: under an injected
:class:`~repro.resilience.ManualClock`, two ``analyze_many`` runs over
the same corpus dump *byte-identical* spans JSONL — and the dump is
the same whether the analysis stage ran serially or fanned out over a
process pool (per-item tracers are spliced back in input order, ids
renumbered in pre-order).  Metrics aggregate to identical snapshots
the same way.
"""

import pytest

from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish
from repro.core.target import TargetIdentifier
from repro.obs import MetricsRegistry, Tracer, spans_to_jsonl
from repro.parallel import AnalysisCache, WorkerPool
from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
from repro.web.ocr import SimulatedOcr

_STATE: dict = {}


def _trained_parts(world):
    """One small trained detector + identifier per session (lazily)."""
    if "parts" not in _STATE:
        extractor = FeatureExtractor(alexa=world.alexa, cache=AnalysisCache())
        train = world.dataset("legTrain") + world.dataset("phishTrain")
        detector = PhishingDetector(extractor, n_estimators=25)
        detector.fit_snapshots(
            [page.snapshot for page in train], train.labels()
        )
        identifier = TargetIdentifier(
            world.search, ocr=SimulatedOcr(error_rate=0.02)
        )
        _STATE["parts"] = (detector, identifier)
    return _STATE["parts"]


def _workload(world, count=6):
    pages = list(world.dataset("english"))[: count // 2] + \
        list(world.dataset("phishTest"))[: count - count // 2]
    return [page.snapshot.starting_url for page in pages]


def _observed_run(world, pool=None):
    """One fully traced batch run under a manual clock.

    Each run gets a *fresh* analysis cache (sharing only the trained
    model): byte-identity is a statement about identical runs, and a
    cache warmed by a previous run flips ``cached=`` span attributes.
    """
    base, identifier = _trained_parts(world)
    detector = PhishingDetector(
        FeatureExtractor(alexa=world.alexa, cache=AnalysisCache()),
        feature_set=base.feature_set,
        threshold=base.threshold,
    )
    detector.model = base.model
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    metrics = MetricsRegistry()
    pipeline = KnowYourPhish(
        detector, identifier, tracer=tracer, metrics=metrics
    )
    browser = ResilientBrowser(
        world.web, policy=RetryPolicy(clock=clock), clock=clock,
        tracer=tracer, metrics=metrics,
    )
    report = pipeline.analyze_many(_workload(world), browser, pool=pool)
    return report, tracer, metrics


class TestSpanDeterminism:
    def test_two_serial_runs_dump_identical_bytes(self, tiny_world):
        _, first_tracer, first_metrics = _observed_run(tiny_world)
        _, second_tracer, second_metrics = _observed_run(tiny_world)
        first = spans_to_jsonl(first_tracer)
        assert first  # the run actually recorded spans
        assert first == spans_to_jsonl(second_tracer)
        assert first_metrics.as_dict() == second_metrics.as_dict()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_run_dumps_identical_bytes_to_serial(
        self, tiny_world, backend
    ):
        serial_report, serial_tracer, serial_metrics = \
            _observed_run(tiny_world)
        with WorkerPool(workers=2, backend=backend) as pool:
            pool_report, pool_tracer, pool_metrics = \
                _observed_run(tiny_world, pool=pool)
        assert spans_to_jsonl(pool_tracer) == spans_to_jsonl(serial_tracer)
        assert pool_metrics.as_dict() == serial_metrics.as_dict()
        assert [page.verdict.verdict for page in pool_report.analyzed] == \
            [page.verdict.verdict for page in serial_report.analyzed]

    def test_dump_contains_the_documented_taxonomy(self, tiny_world):
        _, tracer, _ = _observed_run(tiny_world)
        names = {span.name for span in tracer.iter_spans()}
        assert {"batch.load", "browse.load", "browse.navigate", "analyze",
                "extract", "classify"} <= names

    def test_tracing_does_not_perturb_verdicts(self, tiny_world):
        detector, identifier = _trained_parts(tiny_world)
        plain = KnowYourPhish(detector, identifier)
        clock = ManualClock()
        bare_browser = ResilientBrowser(
            tiny_world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        baseline = plain.analyze_many(_workload(tiny_world), bare_browser)
        observed_report, tracer, _ = _observed_run(tiny_world)
        assert [_verdict_key(page) for page in baseline.analyzed] == \
            [_verdict_key(page) for page in observed_report.analyzed]
        # The traced run did reach the target-identification substeps.
        names = {span.name for span in tracer.iter_spans()}
        assert {"target.identify", "target.keyterms", "target.search"} \
            <= names
        for span in tracer.iter_spans():
            if span.name == "target.search":
                assert span.attrs["step"] in (1, 2, 3, 4)


def _verdict_key(page) -> tuple:
    """Everything a verdict says, down to its identification."""
    verdict = page.verdict
    found = verdict.identification
    detail = None if found is None else (
        found.verdict, found.step, tuple(found.targets),
        tuple(found.keyterms.boosted_prominent),
        tuple(found.keyterms.prominent),
        tuple(found.keyterms.ocr_prominent),
    )
    return (
        page.url, verdict.verdict, verdict.confidence,
        tuple(verdict.targets), tuple(verdict.degradations), detail,
    )
