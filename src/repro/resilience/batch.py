"""Batch analysis with quarantine: one sick page never aborts a run.

``analyze_many`` drives the full pipeline over a list of starting URLs.
Pages that cannot be loaded — permanently dead hosts, retry budgets
exhausted, deadlines blown — are recorded as structured
:class:`QuarantinedPage` entries instead of raising out of the loop, so
a crawl over a million URLs degrades into a report, not a traceback.
Successfully analyzed pages keep their verdicts alongside the effort
(attempts, degradations) the load cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS, AnyMetrics, MetricsRegistry
from repro.obs.trace import NULL_TRACER, AnyTracer, Tracer
from repro.parallel.cache import CacheCountsProbe
from repro.resilience.browser import LoadResult
from repro.resilience.clock import SystemClock
from repro.resilience.errors import (
    DeadlineExceeded,
    FetchError,
    PermanentFetchError,
    TransientFetchError,
)
from repro.resilience.retry import Deadline
from repro.web.browser import PageNotFound, RedirectLoopError


@dataclass
class QuarantinedPage:
    """A URL the run gave up on, with the structured reason."""

    url: str
    error_kind: str            # exception class name
    message: str
    permanent: bool            # False for exhausted-retries / deadline
    attempts: int = 0

    @classmethod
    def from_error(cls, url: str, error: Exception) -> "QuarantinedPage":
        """Classify an exception into a quarantine record."""
        permanent = isinstance(
            error, (PageNotFound, RedirectLoopError, PermanentFetchError)
        ) and not isinstance(error, TransientFetchError)
        attempts = getattr(error, "attempts", 0)
        return cls(
            url=url,
            error_kind=type(error).__name__,
            message=str(error),
            permanent=permanent,
            attempts=attempts,
        )


@dataclass
class AnalyzedPage:
    """One successfully analyzed page: verdict plus load effort."""

    url: str
    verdict: object            # a core.pipeline.PageVerdict
    attempts: int = 1
    degradations: list[str] = field(default_factory=list)


@dataclass
class BatchReport:
    """Outcome of one ``analyze_many`` run."""

    analyzed: list[AnalyzedPage] = field(default_factory=list)
    quarantined: list[QuarantinedPage] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Pages attempted (analyzed + quarantined)."""
        return len(self.analyzed) + len(self.quarantined)

    @property
    def completion_rate(self) -> float:
        """Share of attempted pages that produced a verdict."""
        return len(self.analyzed) / self.total if self.total else 0.0

    @property
    def degraded_count(self) -> int:
        """Analyzed pages whose verdict carries a degradation tag."""
        return sum(
            1 for page in self.analyzed
            if getattr(page.verdict, "degraded", False)
        )

    @property
    def retried_count(self) -> int:
        """Analyzed pages that needed more than one load attempt."""
        return sum(1 for page in self.analyzed if page.attempts > 1)

    def error_kinds(self) -> dict[str, int]:
        """Histogram of quarantine causes by exception class name.

        Distinguishes navigation failures (``PageNotFound``) from
        outage signatures (``RetriesExhausted``, ``DeadlineExceeded``)
        in reports, which aggregate counts alone cannot.  Keys are
        sorted for deterministic report output.
        """
        counts: dict[str, int] = {}
        for page in self.quarantined:
            counts[page.error_kind] = counts.get(page.error_kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict[str, object]:
        """Flat summary for reports and experiment tables."""
        return {
            "total": self.total,
            "analyzed": len(self.analyzed),
            "quarantined": len(self.quarantined),
            "quarantined_permanent": sum(
                1 for page in self.quarantined if page.permanent
            ),
            "completion_rate": self.completion_rate,
            "degraded": self.degraded_count,
            "retried": self.retried_count,
            "error_kinds": self.error_kinds(),
        }


class _AnalyzePage:
    """Picklable per-page analysis of one ``(loaded, remaining)`` pair.

    ``remaining`` is the budget the page load left over (``None`` when
    unbudgeted); the deadline is rebuilt from it at analysis start, so
    queue position in the load phase never charges against a later
    page's analysis.  The clock is shared (pickled along, for process
    workers) so manual-clock tests stay deterministic there too.

    With ``observed=True`` every call records into its *own*
    :class:`~repro.obs.trace.Tracer` and
    :class:`~repro.obs.metrics.MetricsRegistry` and ships the finished
    span records + metric snapshot back with the verdict; the caller
    splices them into the batch-level instruments **in input order**.
    That isolation is what makes span dumps byte-identical across
    serial, thread and process backends — worker scheduling can never
    interleave two pages' spans.
    """

    def __init__(self, pipeline, clock, observed: bool) -> None:
        self.pipeline = pipeline
        self.clock = clock
        self.observed = observed

    def deadline(self, remaining: float | None) -> Deadline | None:
        """The analysis deadline for a load that left ``remaining``."""
        if remaining is None:
            return None
        return Deadline(remaining, clock=self.clock)

    def __call__(self, item):
        loaded, remaining = item
        deadline = self.deadline(remaining)
        if not self.observed:
            return self.pipeline.analyze(loaded, deadline=deadline)
        tracer = Tracer(clock=self.clock)
        metrics = MetricsRegistry()
        verdict = self.pipeline.analyze(
            loaded, tracer=tracer, metrics=metrics, deadline=deadline
        )
        return verdict, tracer.export_records(), metrics.as_dict()


class _TracedChunk:
    """Chunk adapter for an observed :class:`_AnalyzePage`.

    Maps the per-item traced worker over a contiguous chunk so observed
    runs can use :meth:`~repro.parallel.WorkerPool.map_observed_chunks`
    — one scheduling round-trip and one probe reconciliation per chunk
    instead of per page — while keeping the per-page tracer/registry
    isolation that makes span dumps backend-independent.
    """

    def __init__(self, worker: _AnalyzePage) -> None:
        self.worker = worker

    def __call__(self, chunk: list) -> list[tuple[object, list, dict]]:
        return [self.worker(item) for item in chunk]


def analyze_many(
    pipeline,
    browser,
    urls,
    pool=None,
    tracer: AnyTracer = NULL_TRACER,
    metrics: AnyMetrics = NULL_METRICS,
    page_budget: float | None = None,
) -> BatchReport:
    """Analyze every URL, quarantining failures instead of raising.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.core.pipeline.KnowYourPhish` (anything with
        ``analyze`` and ``analyze_batch`` accepting snapshots or
        :class:`LoadResult` objects).
    browser:
        A :class:`ResilientBrowser` (preferred) or plain
        :class:`~repro.web.browser.Browser`.
    urls:
        Iterable of starting URLs.
    pool:
        Optional :class:`~repro.parallel.WorkerPool` fanning the
        *analysis* stage out over workers.  Page **loads always run
        serially in input order**: browsers, retry policies and
        fault-injecting webs are stateful (RNG streams, degradation
        notes, circuit breakers), so serial loading keeps every fault,
        retry and quarantine decision identical to the serial run.
        Analysis is a pure function of the loaded page, so the report —
        verdicts, ordering, quarantine records — is bit-identical to
        ``pool=None`` for any backend and worker count.
    tracer, metrics:
        Batch-level instruments.  Loads are observed live (the phase-1
        ``batch.load`` span).  Pages are analyzed one at a time: without
        a pool each records straight into these instruments; with one,
        each records into a fresh per-item tracer/registry whose output
        is spliced back in input order — the same dump either way, so
        dumps are deterministic across backends and runs.
        With both left at their null defaults the function takes the
        exact pre-observability fast path.
    page_budget:
        Optional per-page deadline in seconds.  Each page's load runs
        under its own :class:`Deadline`; a load that blows the budget
        is quarantined as ``DeadlineExceeded``.  The seconds the load
        left over are carried into that page's analysis (target
        identification degrades rather than searching past the
        budget).  ``None`` (the default) keeps the historical
        unbudgeted fast path byte-identical.
    """
    report = BatchReport()
    observed = tracer.enabled or metrics.enabled
    clock = getattr(browser, "clock", None) or SystemClock()
    # Phase 1 (serial): load every page, quarantining failures.
    loaded_pages: list[tuple[str, LoadResult]] = []
    leftovers: list[float | None] = []  # budget seconds left per load
    outcomes: list[tuple[str, object]] = []  # (kind, record/index)
    with tracer.span("batch.load"):
        for url in urls:
            deadline = (
                Deadline(page_budget, clock=clock)
                if page_budget is not None
                else None
            )
            try:
                if deadline is not None:
                    loaded = browser.load(url, deadline=deadline)
                else:
                    loaded = browser.load(url)
            except (
                PageNotFound, RedirectLoopError, FetchError, DeadlineExceeded
            ) as error:
                record = QuarantinedPage.from_error(url, error)
                metrics.inc("batch_quarantined_total", error=record.error_kind)
                outcomes.append(("quarantined", record))
                continue
            if not isinstance(loaded, LoadResult):
                loaded = LoadResult(snapshot=loaded)
            outcomes.append(("analyzed", len(loaded_pages)))
            loaded_pages.append((url, loaded))
            leftovers.append(
                deadline.remaining() if deadline is not None else None
            )

    # Phase 2 (parallel): analyze the pages that loaded.
    loads = [loaded for _url, loaded in loaded_pages]
    items = list(zip(loads, leftovers))
    if not observed:
        if page_budget is not None:
            # Per-page deadlines interleave clock reads with analysis;
            # ``analyze_batch`` takes no per-page deadline, so budgeted
            # runs go page by page through ``analyze``.
            worker = _AnalyzePage(pipeline, clock, observed=False)
            if pool is None:
                verdicts = [worker(item) for item in items]
            else:
                verdicts = pool.map(worker, items)
        elif pool is None:
            verdicts = pipeline.analyze_batch(loads)
        else:
            # One scheduling round-trip and one ``analyze_batch`` call
            # per chunk; the chunk count is backend-aware (process
            # workers chunk per worker, the GIL-bound thread backend
            # runs one chunk).  Verdicts do not depend on the grouping.
            verdicts = pool.map_chunks(
                pipeline.analyze_batch, loads,
                chunk_count=pool.columnar_chunks(len(loads)),
            )
    elif pool is None:
        # Serially nothing can interleave two pages' spans, so each page
        # records straight into the batch instruments: the same span
        # trees, ids and totals as splicing isolated per-page records,
        # without building and copying them.
        worker = _AnalyzePage(pipeline, tracer.clock, observed=True)
        verdicts = [
            pipeline.analyze(
                loaded, tracer=tracer, metrics=metrics,
                deadline=worker.deadline(remaining),
            )
            for loaded, remaining in items
        ]
    else:
        worker = _AnalyzePage(pipeline, tracer.clock, observed=True)
        # Cache counters accumulated inside process workers would
        # otherwise be lost with the pipeline copy; the probe ships
        # per-chunk deltas back for merging.  Chunked dispatch keeps
        # one scheduling round-trip per chunk; per-page isolation
        # lives inside the chunk worker.
        cache = getattr(
            getattr(getattr(pipeline, "detector", None), "extractor", None),
            "cache",
            None,
        )
        probes = [CacheCountsProbe(cache)] if cache is not None else []
        observed_results = pool.map_observed_chunks(
            _TracedChunk(worker), items, probes=probes,
            chunk_count=pool.columnar_chunks(len(items)),
        )
        verdicts = []
        for verdict, records, snapshot in observed_results:
            verdicts.append(verdict)
            tracer.adopt(records)
            metrics.merge(snapshot)

    # Phase 3: assemble the report in input order, as a serial run would.
    for kind, payload in outcomes:
        if kind == "quarantined":
            report.quarantined.append(payload)
            continue
        index = payload
        url, loaded = loaded_pages[index]
        report.analyzed.append(
            AnalyzedPage(
                url=url,
                verdict=verdicts[index],
                attempts=loaded.attempts,
                degradations=list(loaded.degradations),
            )
        )
    return report
