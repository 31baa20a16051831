"""Target identification on the shared pooled view vs a fresh view.

The pipeline identifies a flagged page on the pooled view its feature
extraction already filled (``page_views`` + ``extract_batch``).  These
tests pin that this shortcut is invisible: for every page, identifying
on that view gives the same verdict, targets, deciding step, keyterm
lists and degradation notes as identifying on a fresh, unpooled
:class:`DataSources` — with a healthy search engine, with the engine
forced down behind its breaker, and with fully garbled OCR.  A counting
test then checks the shortcut is real: after extraction returns, a
flagged page's analysis never reaches the unpooled URL parser or term
extractor.
"""

import sys

import pytest

from repro.core.datasources import DataSources
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.features.batch import page_views
from repro.core.pipeline import KnowYourPhish
from repro.core.target import TargetIdentifier
from repro.parallel import AnalysisCache, snapshot_fingerprint
from repro.resilience import (
    CircuitBreaker,
    GuardedSearchEngine,
    ManualClock,
    SearchUnavailableError,
)
from repro.text import terms
from repro.urls import parsing
from repro.web.faults import FlakySearchEngine
from repro.web.ocr import SimulatedOcr
from tests.core.test_features import SNAPSHOTS


def _down(search):
    """A search engine forced down behind a circuit breaker."""
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_time=300.0, clock=ManualClock(),
        failure_types=(SearchUnavailableError,),
    )
    return GuardedSearchEngine(
        FlakySearchEngine(search, forced_down=True), breaker=breaker
    )


#: name -> factory of a fresh identifier (stateful collaborators such
#: as breakers must not carry over from one path to the other).
_SCENARIOS = {
    "healthy": lambda search: TargetIdentifier(
        search, ocr=SimulatedOcr(error_rate=0.02)
    ),
    "search_down": lambda search: TargetIdentifier(
        _down(search), ocr=SimulatedOcr(error_rate=0.02)
    ),
    "ocr_garbled": lambda search: TargetIdentifier(
        search, ocr=SimulatedOcr(error_rate=1.0)
    ),
}


def _snapshots(world):
    pages = (
        list(world.dataset("phishBrand"))[:6]
        + list(world.dataset("phishTest"))[:4]
        + list(world.dataset("english"))[:4]
    )
    return [make() for make in SNAPSHOTS] + [page.snapshot for page in pages]


def _outcome(identifier, sources):
    """Everything identification reports about one page."""
    try:
        result = identifier.identify(sources)
    except SearchUnavailableError:
        decided = ("search_unavailable",)
    else:
        keyterms = result.keyterms
        decided = (
            result.verdict, tuple(result.targets), result.step,
            tuple(keyterms.boosted_prominent), tuple(keyterms.prominent),
            tuple(keyterms.ocr_prominent),
        )
    return decided, tuple(sorted(sources.degradation_notes))


@pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_shared_view_identifies_like_fresh_sources(
    tiny_world, scenario, cached
):
    snapshots = _snapshots(tiny_world)
    extractor = FeatureExtractor(
        alexa=tiny_world.alexa, cache=AnalysisCache() if cached else None
    )
    keys = [
        snapshot_fingerprint(snapshot) if cached else None
        for snapshot in snapshots
    ]
    views = page_views(extractor, snapshots, keys)
    extractor.extract_batch(views, keys=keys)

    make = _SCENARIOS[scenario]
    shared = make(tiny_world.search)
    fresh = make(tiny_world.search)
    got, want = [], []
    for view in views:
        view.ocr = shared.ocr
        got.append(_outcome(shared, view))
    for snapshot in snapshots:
        want.append(_outcome(fresh, DataSources(
            snapshot, psl=extractor.psl, ocr=fresh.ocr
        )))
    assert got == want
    if scenario == "search_down":
        assert ("search_unavailable",) in [decided for decided, _ in got]
    else:
        assert {"phish", "legitimate"} <= {decided[0] for decided, _ in got}


def test_flagged_page_is_not_reparsed_after_extraction(
    tiny_world, monkeypatch
):
    """Feature-cache miss, flagged page: once ``extract_batch`` returns,
    the rest of ``analyze`` calls neither ``parse_url`` nor
    ``extract_terms`` — target identification reads the pooled view."""
    extractor = FeatureExtractor(alexa=tiny_world.alexa, cache=AnalysisCache())
    train = tiny_world.dataset("legTrain") + tiny_world.dataset("phishTrain")
    detector = PhishingDetector(extractor, n_estimators=10, threshold=0.0)
    detector.fit_snapshots([page.snapshot for page in train], train.labels())
    pipeline = KnowYourPhish(
        detector,
        TargetIdentifier(tiny_world.search, ocr=SimulatedOcr(error_rate=0.02)),
    )

    calls = {"parse_url": 0, "extract_terms": 0}
    armed = [False]

    def counting(name, original):
        def wrapper(*args, **kwargs):
            if armed[0]:
                calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    # Patch every module-level binding of the two functions, so calls
    # through `from ... import` aliases are counted too.
    for name, original in (
        ("parse_url", parsing.parse_url),
        ("extract_terms", terms.extract_terms),
    ):
        wrapper = counting(name, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    extract_batch = extractor.extract_batch

    def extract_then_arm(*args, **kwargs):
        matrix = extract_batch(*args, **kwargs)
        armed[0] = True
        return matrix

    monkeypatch.setattr(extractor, "extract_batch", extract_then_arm)

    page = tiny_world.dataset("phishBrand")[0].snapshot
    extractor.cache.clear()
    verdict = pipeline.analyze(page)
    assert armed[0]
    assert verdict.identification is not None
    assert verdict.identification.keyterms.ocr_prominent is not None
    assert calls == {"parse_url": 0, "extract_terms": 0}

    # The counter does see the unpooled path: a fresh DataSources
    # parses and tokenises through exactly these functions.
    pipeline.identifier.identify(page)
    assert calls["parse_url"] > 0 and calls["extract_terms"] > 0
