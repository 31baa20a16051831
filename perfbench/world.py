"""Set-up: the seeded world, the trained system and workload inputs.

Set-up is what every workload pays before its first operation: build
the synthetic world, extract the training features, fit the detector
and, for ``serve``, fit and calibrate the tier-0 triage model.

The world is built from a fixed seed, :data:`WORLD_SEED`, so every run
measures the same trained system; the workload seed draws the inputs
from it (which pages, in which order and batches, and the request
stream).  Building the world from the workload seed instead trains a
different detector and triage model per seed, which changes the work
itself: across five such seeds the share of ``serve`` requests that
failed ranged from 0.9% to 19.5%, because each triage model escalated
a different set of dead links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.url_lexical import UrlLexicalClassifier
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.pipeline import KnowYourPhish
from repro.core.target import TargetIdentifier
from repro.corpus.datasets import CorpusConfig, World, build_world
from repro.corpus.wordlists import LANGUAGES
from repro.parallel.cache import AnalysisCache
from repro.serve import TriageModel, ZipfSampler, build_requests, burst
from repro.web.ocr import SimulatedOcr

from perfbench.layers import Recorder

#: Seed of the synthetic world (the corpus generator's default).
WORLD_SEED = 7

#: World sizes.  The raw feeds keep the corpus generator's own share of
#: dead links (``CorpusConfig.feed_unavailable_rate``): ten in phishTest.
SIZES = dict(
    leg_train=120,
    phish_train=60,
    phish_test=120,
    phish_brand=80,
    english_test=240,
    other_language_test=48,
)

#: A world small enough for the harness's own smoke test.
TINY_SIZES = dict(
    leg_train=50,
    phish_train=30,
    phish_test=40,
    phish_brand=20,
    english_test=60,
    other_language_test=12,
)

#: Boosting stages of the detector (the default ensemble size).
N_ESTIMATORS = 120


@dataclass
class System:
    """One set-up's world and trained components."""

    world: World
    pipeline: KnowYourPhish
    ocr: SimulatedOcr
    cache: AnalysisCache
    triage: TriageModel | None
    seconds: float
    layers: Recorder


def set_up(sizes: dict, with_triage: bool) -> System:
    """Build the world and train the system, timing each step."""
    recorder = Recorder()
    world = recorder.call(
        "corpus.build_world", build_world,
        CorpusConfig(seed=WORLD_SEED, **sizes),
    )
    cache = AnalysisCache(max_entries=16384)
    extractor = FeatureExtractor(alexa=world.alexa, cache=cache)
    train = world.dataset("legTrain") + world.dataset("phishTrain")
    X = recorder.call(
        "features.train_extract",
        extractor.extract_batch,
        [page.snapshot for page in train],
    )
    detector = PhishingDetector(extractor, n_estimators=N_ESTIMATORS)
    recorder.call("ml.fit", detector.fit, X, train.labels())
    triage = None
    if with_triage:
        urls = [page.url for page in train]
        triage = recorder.call(
            "serve.calibrate", _calibrated_triage, urls, train.labels()
        )
    ocr = SimulatedOcr(error_rate=0.02)
    pipeline = KnowYourPhish(
        detector, TargetIdentifier(world.search, ocr=ocr)
    )
    return System(
        world=world,
        pipeline=pipeline,
        ocr=ocr,
        cache=cache,
        triage=triage,
        seconds=recorder.top_level,
        layers=recorder,
    )


def _calibrated_triage(urls, labels) -> TriageModel:
    classifier = UrlLexicalClassifier().fit_urls(urls, labels)
    return TriageModel.calibrate(classifier, urls, labels)


# -- inputs --------------------------------------------------------------
#: A labelled starting URL; ``label`` is None for a dead link.
Entry = tuple[str, "int | None"]


def dead_links(world: World) -> list[str]:
    """The raw phishTest feed's unavailable entries (dead links)."""
    return sorted({
        entry.url for entry in world.feeds["phishTest"]
        if entry.status == "unavailable"
    })


def feed_entries(world: World) -> list[Entry]:
    """Live phishTest feed entries with their curated labels."""
    return [
        (entry.url, int(entry.status == "phish"))
        for entry in world.feeds["phishTest"]
        if entry.status != "unavailable"
    ]


def _unique(entries: list[Entry]) -> list[Entry]:
    seen: dict[str, int | None] = {}
    for url, label in entries:
        seen.setdefault(url, label)
    return list(seen.items())


def shuffled(
    live: list[Entry], dead: list[str], rng, multiple: int = 1
) -> list[Entry]:
    """Every dead link and the live URLs, unique, in seeded order.

    Live URLs are dropped until the count is a multiple of ``multiple``,
    so every dead link stays and the failure share is the same for
    every seed.
    """
    live = _unique(live)
    rng.shuffle(live)
    keep = len(live) - (len(live) + len(dead)) % multiple
    entries = live[:keep] + [(url, None) for url in dead]
    rng.shuffle(entries)
    return entries


def scan_feed(
    world: World, rng, batch: int, urls: int
) -> list[list[Entry]]:
    """Feed-scan batches of ``batch`` URLs, ``urls`` in all: every dead
    link of the raw phishTest feed plus a seeded sample of legitimate
    pages of all six languages and the feed's live entries (phish,
    misreported and parked)."""
    legit = [
        (page.url, 0)
        for language in LANGUAGES
        for page in world.dataset(language)
    ]
    live = _unique(legit + feed_entries(world))
    rng.shuffle(live)
    dead = dead_links(world)
    entries = shuffled(live[: urls - len(dead)], dead, rng, multiple=batch)
    return [
        entries[start:start + batch]
        for start in range(0, len(entries), batch)
    ]


def verify_clicks(world: World, rng) -> list[Entry]:
    """Add-on navigations: mostly phishing pages, some legitimate ones
    (brand sites and ordinary English sites) and the feed's dead links."""
    phish = [
        (page.url, 1)
        for name in ("phishTest", "phishBrand")
        for page in world.dataset(name)
    ]
    brands = [(site.starting_url, 0) for site in world.brand_sites]
    english = [(page.url, 0) for page in world.dataset("english")]
    n_legit = max(2, len(phish) // 6)
    legit = brands[: n_legit // 2] + english[: n_legit - n_legit // 2]
    return shuffled(phish + legit, dead_links(world), rng)


class RoundRobin:
    """A sampler that hands out ``urls`` in order, over and over."""

    def __init__(self, urls: list[str]) -> None:
        self.urls = urls
        self.position = -1

    def sample(self) -> str:
        self.position = (self.position + 1) % len(self.urls)
        return self.urls[self.position]


def serve_schedule(
    world: World, rng, seed: int, requests: int, rate: float
) -> tuple[list, dict[str, int]]:
    """The request schedule and the labels of its live URLs.

    Live traffic samples English and phishTest pages from a Zipf
    popularity law whose rank order is fixed by the world: with ranks
    drawn per seed, whether the few hottest URLs escalate past tier 0
    would decide most of a run's work.  The workload seed draws the
    sample stream.  Beside it, every dead link of the raw feed is
    requested twice in a row (the repeat finds the negative cache), in
    seeded order and evenly spread, so a fixed number of requests ask
    for dead links whatever the seed.
    """
    live = _unique(
        [(page.url, 0) for page in world.dataset("english")]
        + [(page.url, 1) for page in world.dataset("phishTest")]
    )
    np.random.default_rng(WORLD_SEED).shuffle(live)
    dead = dead_links(world)
    rng.shuffle(dead)
    repeated = [url for url in dead for _ in range(2)]
    duration = requests / rate
    schedule = build_requests(
        burst(
            ZipfSampler([url for url, _ in live], 1.1, seed=seed),
            at=0.0, count=requests - len(repeated), spread=duration,
        ),
        burst(
            RoundRobin(repeated),
            at=duration / len(repeated) / 2, count=len(repeated),
            spread=duration,
        ),
    )
    return schedule, dict(live)


def input_rng(seed: int, workload: str) -> np.random.Generator:
    """The seeded generator that draws one workload's inputs."""
    return np.random.default_rng([seed, sum(map(ord, workload))])
