"""The three workloads and their output checks.

Each workload splits one *round* of its inputs into units (a feed
batch, one navigation, a window of the request schedule).
:meth:`start_round` resets the state a round may fill (the analysis
cache, the add-on, the serving engine), so every round repeats the
same work.

Every unit's outputs are checked against a reference computed before
timing through a different public entry point of the program.

Why these three:

* ``scan`` — a feed scan through ``KnowYourPhish.analyze_many``.
  Mostly legitimate pages, so extraction and page loads dominate and
  target identification is rarely reached; every feature-vector lookup
  in the analysis cache misses.  Dead feed links exercise quarantine.
* ``verify`` — the add-on path, one navigation per unique URL, mostly
  phishing pages: nearly every navigation reaches target
  identification (keyterms, search, OCR), the per-page latency of the
  paper's Table VIII.
* ``serve`` — an open-loop Zipf schedule in simulated time through the
  tiered ``ServingEngine``: tier-0 triage, the verdict memo and the
  negative cache answer most requests, so the page pipeline is mostly
  bypassed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import zip_longest

from repro.addon.addon import PhishingPreventionAddon
from repro.addon.policy import WarningPolicy
from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
from repro.serve import (
    TIER_FULL,
    TIER_NEGATIVE,
    TIER_TRIAGE,
    AdmissionController,
    ServingEngine,
    TokenBucket,
)

from perfbench.layers import Recorder, rows_in_first_arg, wrap_pipeline
from perfbench.world import System, scan_feed, serve_schedule, verify_clicks


def verdict_key(verdict) -> tuple:
    """The parts of a verdict an output check compares."""
    return (
        verdict.verdict,
        verdict.confidence,
        tuple(verdict.targets),
        tuple(verdict.degradations),
    )


def differences(got: tuple, want: tuple) -> int:
    """Positions at which two output sequences differ."""
    return sum(a != b for a, b in zip_longest(got, want))


@dataclass
class Outcome:
    """What one unit did: operations, failed ones, timings, raw result."""

    ops: int
    errors: int
    latencies: list[float]
    raw: object


class Workload:
    """Shared plumbing; subclasses define units, runs and checks."""

    name = ""

    def __init__(self, system: System, rng, seed: int) -> None:
        self.system = system
        self.pipeline = system.pipeline
        self.seed = seed
        self.recorder: Recorder | None = None
        self.units: list = []
        self.expected: list = []
        self.blocked: dict[str, bool] = {}   # reference block decisions
        self.labels: dict[str, int] = {}

    def instrument(self, recorder: Recorder) -> None:
        """Wrap the pipeline's layers; later rounds wrap their own objects."""
        self.recorder = recorder
        world = self.system.world
        wrap_pipeline(recorder, self.pipeline, world.search, self.system.ocr)

    def start_round(self) -> None:
        """Forget what an earlier round cached."""
        self.system.cache.clear()

    def block_accuracy(self) -> float:
        """Share of unique live inputs whose block decision is right."""
        urls = sorted(self.blocked)
        right = sum(int(self.blocked[url]) == self.labels[url] for url in urls)
        return right / len(urls)

    def mismatches(self, index: int, raw) -> int:
        """Operations of one unit whose output differs from the reference."""
        return differences(self.outputs(raw), self.expected[index])

    def verdicts(self, raw) -> list:
        """Pipeline verdicts computed (not served from a cache) by a unit."""
        return []

    def _reference(self, url: str, verdict) -> tuple:
        self.blocked[url] = self.pipeline.is_blocked(verdict)
        return verdict_key(verdict)


class Scan(Workload):
    """Feed scan: fixed-size batches through ``analyze_many``."""

    name = "scan"
    batch = 6
    urls = 432             # per round, dead links included

    def __init__(self, system, rng, seed):
        super().__init__(system, rng, seed)
        self.units = scan_feed(system.world, rng, self.batch, self.urls)
        self.browser = ResilientBrowser(system.world.web)

    def reference(self) -> None:
        """``analyze_batch`` over the same loaded snapshots."""
        for unit in self.units:
            live = [(url, label) for url, label in unit if label is not None]
            loads = [self.browser.load(url) for url, _label in live]
            verdicts = self.pipeline.analyze_batch(loads)
            analyzed = []
            for (url, label), verdict in zip(live, verdicts):
                self.labels[url] = label
                analyzed.append((url, self._reference(url, verdict)))
            dead = [(url, None) for url, label in unit if label is None]
            self.expected.append(tuple(analyzed + dead))

    def instrument(self, recorder):
        super().instrument(recorder)
        recorder.wrap(self.browser, "load", "web.load")

    def run(self, unit) -> Outcome:
        urls = [url for url, _label in unit]
        started = time.perf_counter()
        report = self.pipeline.analyze_many(urls, self.browser)
        latency = time.perf_counter() - started
        return Outcome(len(urls), len(report.quarantined), [latency], report)

    def verdicts(self, report) -> list:
        return [page.verdict for page in report.analyzed]

    def outputs(self, report) -> tuple:
        """Analyzed pages with their verdicts, then quarantined URLs."""
        return tuple(
            (page.url, verdict_key(page.verdict)) for page in report.analyzed
        ) + tuple((page.url, None) for page in report.quarantined)


class Verify(Workload):
    """One add-on client navigating once to each unique URL."""

    name = "verify"

    def __init__(self, system, rng, seed):
        super().__init__(system, rng, seed)
        self.units = verify_clicks(system.world, rng)
        self.browser = system.world.browser
        self.addon: PhishingPreventionAddon | None = None

    def reference(self) -> None:
        """A plain ``analyze`` of each page, the policy's action on it."""
        policy = WarningPolicy()
        for url, label in self.units:
            if label is None:
                self.expected.append(((url, "allow", None, False),))
                continue
            verdict = self.pipeline.analyze(self.browser.load(url))
            self.labels[url] = label
            key = self._reference(url, verdict)
            action = policy.decide(url, verdict).value
            self.expected.append(((url, action, key, False),))

    def instrument(self, recorder):
        super().instrument(recorder)
        recorder.wrap(self.browser, "load", "web.load")

    def start_round(self):
        super().start_round()
        self.addon = PhishingPreventionAddon(self.pipeline, self.browser)
        if self.recorder is not None:
            self.recorder.wrap(self.addon, "navigate", "addon.navigate")

    def run(self, unit) -> Outcome:
        failures = self.addon.stats.navigation_failures
        started = time.perf_counter()
        result = self.addon.navigate(unit[0])
        latency = time.perf_counter() - started
        failed = self.addon.stats.navigation_failures - failures
        return Outcome(1, failed, [latency], result)

    def outputs(self, result) -> tuple:
        return ((
            result.url,
            result.action.value,
            verdict_key(result.verdict) if result.verdict else None,
            result.from_cache,
        ),)

    def verdicts(self, result) -> list:
        if result.verdict is None or result.from_cache:
            return []
        return [result.verdict]


class Serve(Workload):
    """One Zipf request schedule through the tiered serving engine.

    A timed round serves the whole schedule with one engine, window by
    window: each window is one ``ServingEngine.run`` call that drains
    before the next starts, while the verdict memo and the negative
    cache carry over between windows.  A window's wall time is the
    latency sample (one request's wall time cannot be seen from outside
    the engine).  Because every window starts with an empty queue and
    idle workers, the serving ladder's own figures (tiers, memo, queue
    depth, simulated latency) come instead from :meth:`serve_whole`, one
    ``run`` over the whole schedule as a single open loop.

    The offered rate sits well inside what the tiered engine sustains
    (tier 0 answers most requests without a worker), so the queue does
    not grow and no request is shed for load; the requests that fail
    are those for dead links the triage model escalates.
    """

    name = "serve"
    requests = 4000
    window = 100           # requests per timed ``run``; a latency sample
    rate = 120.0           # offered requests per simulated second
    workers = 4
    analysis_cost = 0.1    # simulated seconds per full analysis
    #: Simulated seconds; outlasts the ~1.7 s between the two requests
    #: for one dead link, so the repeat finds the negative cache.
    negative_ttl = 5.0

    def __init__(self, system, rng, seed):
        super().__init__(system, rng, seed)
        self.schedule, self.labels = serve_schedule(
            system.world, rng, seed, self.requests, self.rate
        )
        self.units = [
            self.schedule[start:start + self.window]
            for start in range(0, len(self.schedule), self.window)
        ]
        self.expected = [None] * len(self.units)
        self.reference_verdicts: dict[str, tuple] = {}
        self.engine: ServingEngine | None = None

    def instrument(self, recorder):
        super().instrument(recorder)
        recorder.wrap(self.system.triage, "decide", "serve.triage")
        recorder.wrap(
            self.system.triage, "decide_batch", "serve.triage_batch",
            tally=rows_in_first_arg,
        )

    def reference(self) -> None:
        """Offline ``analyze`` of every live URL the schedule asks for."""
        browser = ResilientBrowser(self.system.world.web)
        for url in sorted({request.url for request in self.schedule}):
            if url in self.labels:
                verdict = self.pipeline.analyze(browser.load(url))
                self.reference_verdicts[url] = self._reference(url, verdict)

    def start_round(self):
        super().start_round()
        clock = ManualClock()
        browser = ResilientBrowser(
            self.system.world.web,
            policy=RetryPolicy(clock=clock, seed=self.seed),
            clock=clock,
        )
        self.engine = ServingEngine(
            self.pipeline,
            browser,
            AdmissionController(
                TokenBucket(
                    rate=self.workers / self.analysis_cost,
                    capacity=float(self.workers * 4),
                ),
                queue_limit=32,
            ),
            clock=clock,
            workers=self.workers,
            analysis_cost=self.analysis_cost,
            triage=self.system.triage,
            negative_ttl=self.negative_ttl,
        )
        if self.recorder is not None:
            self.recorder.wrap(browser, "load", "web.load")
            self.recorder.wrap(self.engine, "run", "serve.run")

    def run(self, window) -> Outcome:
        started = time.perf_counter()
        report = self.engine.run(window)
        latency = time.perf_counter() - started
        return Outcome(len(window), report.shed_count, [latency], report)

    def outputs(self, report) -> tuple:
        return tuple(
            (
                response.request_id,
                response.outcome,
                response.tier,
                response.verdict,
                response.confidence,
                response.targets,
                response.shed_reason,
                response.finished,
            )
            for response in report.responses
        )

    def serve_whole(self):
        """Serve the whole schedule in one ``run`` of a fresh engine.

        Returns the report and its mismatched requests (see
        :meth:`served_wrong`).
        """
        self.start_round()
        report = self.engine.run(self.schedule)
        return report, self.served_wrong(report, self.schedule)

    def mismatches(self, index, report) -> int:
        """Mismatched requests in one window (0 when all is well).

        Besides :meth:`served_wrong`, every round must repeat the first
        one exactly.
        """
        outputs = self.outputs(report)
        if self.expected[index] is None:
            self.expected[index] = outputs
        return self.served_wrong(report, self.units[index]) + differences(
            outputs, self.expected[index]
        )

    def served_wrong(self, report, requests) -> int:
        """Requests served wrongly: every request must terminate exactly
        once, and every completed full-tier response must carry the
        offline verdict of its URL."""
        ids = [response.request_id for response in report.responses]
        want = [request.request_id for request in requests]
        mismatched = differences(tuple(ids), tuple(want))
        for response in report.responses:
            if not response.completed or response.tier != TIER_FULL:
                continue
            served = (
                response.verdict,
                response.confidence,
                tuple(response.targets),
                tuple(response.degradations),
            )
            if served != self.reference_verdicts.get(response.url):
                mismatched += 1
        return mismatched

    def served_accuracy(self, reports) -> float:
        """Accuracy of the first decision served for each live URL."""
        decided: dict[str, bool] = {}
        for report in reports:
            for response in report.responses:
                if response.completed and response.url in self.labels:
                    decided.setdefault(
                        response.url,
                        response.verdict == "phish"
                        or (
                            response.verdict == "suspicious"
                            and self.pipeline.treat_suspicious_as_phish
                        ),
                    )
        right = sum(
            int(blocked) == self.labels[url]
            for url, blocked in decided.items()
        )
        return right / len(decided)

    @staticmethod
    def tiers(report) -> dict[str, int]:
        counts = {TIER_FULL: 0, TIER_TRIAGE: 0, TIER_NEGATIVE: 0}
        counts.update(report.tier_counts())
        return counts


WORKLOADS = {cls.name: cls for cls in (Scan, Verify, Serve)}
