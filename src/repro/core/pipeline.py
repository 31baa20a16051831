"""The combined system: detection + target identification (Section III-C).

Both components run in a pipeline: the phishing detection system
tentatively flags a page; flagged pages are fed to the target
identification system, which either names the purported target or — when
it confirms the page's own domain as legitimate — removes the false
positive (the Section VI-D experiment).

The pipeline degrades gracefully when auxiliary data sources fail, the
way a production deployment facing the live web must:

* search engine unreachable (or its circuit breaker open) — flagged
  pages get a detector-only verdict tagged ``degraded`` instead of an
  exception;
* OCR failure — the OCR keyterm list is skipped (identification step 4
  never runs) and the verdict is tagged;
* partial snapshot (truncated HTML, lost screenshot) — features are
  extracted from whatever sources did load, and the verdict carries the
  load's degradation tags.

:meth:`KnowYourPhish.analyze_many` extends this to batches: pages that
cannot be loaded at all are quarantined as structured error records
rather than aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.datasources import DataSources
from repro.core.detector import PhishingDetector
from repro.core.features.extractor import group_means
from repro.core.target import TargetIdentification, TargetIdentifier
from repro.obs.metrics import NULL_METRICS, AnyMetrics
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.parallel.cache import snapshot_fingerprint
from repro.resilience.batch import BatchReport, analyze_many
from repro.resilience.browser import LoadResult
from repro.resilience.errors import DeadlineExceeded, SearchUnavailableError
from repro.resilience.retry import Deadline
from repro.web.page import PageSnapshot


@dataclass
class PageVerdict:
    """The pipeline's final decision for one page.

    ``verdict`` is one of:

    * ``"legitimate"`` — classifier below threshold, or classifier said
      phish but the target identifier confirmed the page legitimate;
    * ``"phish"`` — classifier flagged and a target was identified;
    * ``"suspicious"`` — classifier flagged, no target found, no
      legitimate confirmation.

    ``degraded`` marks verdicts produced with reduced-fidelity inputs
    (search outage, OCR failure, partial snapshot); ``degradations``
    lists the specific tags.
    """

    verdict: str
    confidence: float
    targets: list[str]
    identification: TargetIdentification | None = None
    degraded: bool = False
    degradations: list[str] = field(default_factory=list)

    @property
    def is_phish(self) -> bool:
        """True for the final ``"phish"`` verdict."""
        return self.verdict == "phish"

    @property
    def top_target(self) -> str | None:
        """Most likely target mld, when one was identified."""
        return self.targets[0] if self.targets else None


class KnowYourPhish:
    """End-to-end system: detector first, target identification second.

    Parameters
    ----------
    detector:
        A (trained) :class:`~repro.core.detector.PhishingDetector`.
    identifier:
        A :class:`~repro.core.target.TargetIdentifier`; optional — without
        it the pipeline reduces to the bare detector and ``"suspicious"``
        never occurs.
    treat_suspicious_as_phish:
        How the final binary decision counts ``"suspicious"`` pages
        (default True: no legitimate confirmation means the page stays
        blocked).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving the
        ``analyze`` span tree of every call (``extract.f1``..``f5``,
        ``classify``, ``target.identify``).  Defaults to the zero-cost
        :data:`~repro.obs.trace.NULL_TRACER`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        ``verdicts_total{verdict=...}`` / ``verdicts_degraded_total``
        counters.  Defaults to :data:`~repro.obs.metrics.NULL_METRICS`.

    Tracing and metrics never perturb verdicts: with or without them
    the pipeline's outputs are bit-identical.
    """

    def __init__(
        self,
        detector: PhishingDetector,
        identifier: TargetIdentifier | None = None,
        treat_suspicious_as_phish: bool = True,
        tracer: AnyTracer = NULL_TRACER,
        metrics: AnyMetrics = NULL_METRICS,
    ):
        self.detector = detector
        self.identifier = identifier
        self.treat_suspicious_as_phish = treat_suspicious_as_phish
        self.tracer = tracer
        self.metrics = metrics
        self._quality_importances: np.ndarray | None = None

    # -- quality taps --------------------------------------------------
    def _feature_importances(self) -> np.ndarray | None:
        """Cached per-feature importances of the trained ensemble.

        Computed once per pipeline (the ensemble is frozen after
        training) and only when a quality monitor is armed; models
        without ``feature_importances`` disable the top-contribution
        annotation rather than failing the tap.
        """
        if self._quality_importances is None:
            importances = getattr(
                self.detector.model, "feature_importances", None
            )
            if importances is None:
                return None
            self._quality_importances = np.asarray(
                importances(), dtype=float
            )
        return self._quality_importances

    def _top_contributions(
        self, vector: np.ndarray, k: int = 3
    ) -> list[tuple[str, float]] | None:
        """Top-``k`` importance-weighted feature contributions.

        Ranked by absolute importance × value with a stable sort, so
        ties resolve by feature index and the flight-recorder payload
        is deterministic.
        """
        importances = self._feature_importances()
        if importances is None:
            return None
        contributions = importances * np.asarray(vector, dtype=float)
        order = np.argsort(-np.abs(contributions), kind="stable")[:k]
        names = self.detector.extractor.feature_names
        return [(names[i], float(contributions[i])) for i in order]

    def _quality_tap(
        self, quality, url: str, vector: np.ndarray, verdict: PageVerdict
    ) -> None:
        """Feed one finished verdict into a quality monitor.

        Read-only: the monitor sees the score, the final label, the
        per-group feature means (the drift signals) and the top
        feature contributions, after the verdict is fully built — it
        can never perturb the verdict itself.
        """
        means = group_means(vector)
        quality.observe_verdict(
            score=verdict.confidence,
            verdict=verdict.verdict,
            groups={name: float(vals[0]) for name, vals in means.items()},
            degraded=verdict.degraded,
            url=url,
            top_features=self._top_contributions(vector),
        )

    def analyze(
        self,
        page: PageSnapshot | LoadResult,
        tracer: AnyTracer | None = None,
        metrics: AnyMetrics | None = None,
        deadline: Deadline | None = None,
        quality=None,
    ) -> PageVerdict:
        """Run the full pipeline on one page: a batch of one.

        Accepts either a bare :class:`PageSnapshot` or a
        :class:`~repro.resilience.browser.LoadResult` (whose load-time
        degradation tags then seed the verdict's).  Auxiliary-source
        failures degrade the verdict instead of raising: a search outage
        yields a detector-only verdict tagged ``search_unavailable``,
        an OCR failure tags ``ocr_failed`` and skips the OCR keyterms.

        ``deadline`` caps the target-identification stage: once the
        request's budget is exhausted — before or during the search
        queries — a flagged page keeps the detector-only verdict tagged
        ``deadline_exhausted`` instead of searching past the budget.
        Classification itself always completes (it is local compute and
        the page is already in hand).

        ``tracer``/``metrics`` override the pipeline-level instruments
        for this call (used by the batch layer, which gives each mapped
        page its own tracer so span dumps stay deterministic).

        ``quality`` optionally names a
        :class:`~repro.obs.quality.QualityMonitor`; the finished
        verdict (score, label, per-group feature means, top feature
        contributions) is fed to it read-only after it is built, so
        monitored and unmonitored calls return bit-identical verdicts.
        """
        return self._analyze([page], [deadline], tracer, metrics, quality)[0]

    def analyze_batch(
        self,
        pages,
        tracer: AnyTracer | None = None,
        metrics: AnyMetrics | None = None,
        quality=None,
    ) -> list[PageVerdict]:
        """Analyze already-loaded pages, in input order.

        The same single analysis path as :meth:`analyze`, over many
        pages at once and without per-page deadlines: verdicts, metric
        increments and quality observations equal
        ``[self.analyze(page) for page in pages]``.
        """
        pages = list(pages)
        return self._analyze(
            pages, [None] * len(pages), tracer, metrics, quality
        )

    def _analyze(
        self,
        pages: list,
        deadlines: list[Deadline | None],
        tracer: AnyTracer | None,
        metrics: AnyMetrics | None,
        quality,
    ) -> list[PageVerdict]:
        """The pipeline's one analysis path: loaded pages to verdicts.

        Features come from one
        :meth:`~repro.core.features.extractor.FeatureExtractor.extract_batch`
        pass and scores from one ``predict_proba`` call; then each page
        gets its verdict in input order, flagged pages through target
        identification under their own deadline — so stateful
        collaborators (search engine, circuit breakers, OCR, caches)
        see one call sequence however the pages are grouped.  Traced as
        one ``analyze`` span (``n_pages=``, ``flagged=``) holding the
        ``extract`` and ``classify`` spans and one ``target.identify``
        span per identified page.
        """
        tracer = self.tracer if tracer is None else tracer
        metrics = self.metrics if metrics is None else metrics
        if not pages:
            return []
        snapshots = [
            page.snapshot if isinstance(page, LoadResult) else page
            for page in pages
        ]
        keys: list[str | None] = (
            [snapshot_fingerprint(snapshot) for snapshot in snapshots]
            if self.detector.extractor.cache is not None
            else [None] * len(snapshots)
        )
        with tracer.span("analyze", n_pages=len(pages)) as root:
            matrix = self.detector.extractor.extract_batch(
                snapshots, tracer=tracer, keys=keys
            )
            with tracer.span("classify", n_pages=len(pages)):
                confidences = self.detector.predict_proba(matrix)
            verdicts: list[PageVerdict] = []
            for index, page in enumerate(pages):
                verdict = self._verdict(
                    page, keys[index], float(confidences[index]),
                    deadlines[index], tracer, metrics,
                )
                if quality is not None:
                    self._quality_tap(
                        quality, snapshots[index].starting_url,
                        matrix[index], verdict,
                    )
                verdicts.append(verdict)
            root.set(flagged=int(
                (confidences >= self.detector.threshold).sum()
            ))
        return verdicts

    def _verdict(
        self,
        page: PageSnapshot | LoadResult,
        key: str | None,
        confidence: float,
        deadline: Deadline | None,
        tracer: AnyTracer,
        metrics: AnyMetrics,
    ) -> PageVerdict:
        """One page's verdict from its classifier confidence."""
        if isinstance(page, LoadResult):
            tags = list(page.degradations)
            snapshot = page.snapshot
        else:
            tags = []
            snapshot = page
        final = "legitimate" if confidence < self.detector.threshold \
            else "phish"
        identification: TargetIdentification | None = None
        if final == "phish" and self.identifier is not None:
            if deadline is not None and deadline.expired():
                tags.append("deadline_exhausted")
            else:
                final, identification = self._identify(
                    snapshot, key, deadline, tracer, metrics, tags
                )
        metrics.inc("verdicts_total", verdict=final)
        if tags:
            metrics.inc("verdicts_degraded_total")
        return PageVerdict(
            verdict=final,
            confidence=confidence,
            targets=(
                list(identification.targets) if identification is not None
                else []
            ),
            identification=identification,
            degraded=bool(tags),
            degradations=tags,
        )

    def _identify(
        self,
        snapshot: PageSnapshot,
        key: str | None,
        deadline: Deadline | None,
        tracer: AnyTracer,
        metrics: AnyMetrics,
        tags: list[str],
    ) -> tuple[str, TargetIdentification | None]:
        """Target identification of one flagged page.

        Returns the final label and the identification (``None`` when
        it failed); failure and OCR degradation tags are appended to
        ``tags``.
        """
        cache = self.detector.extractor.cache
        sources = DataSources(
            snapshot,
            psl=self.detector.extractor.psl,
            ocr=self.identifier.ocr,
            distribution_cache=(
                cache.distributions if cache is not None else None
            ),
            cache_key=key,
        )
        final = "phish"
        identification: TargetIdentification | None = None
        try:
            with tracer.span("target.identify") as target_span:
                identification = self.identifier.identify(
                    sources, deadline=deadline
                )
                target_span.set(
                    step=identification.step,
                    verdict=identification.verdict,
                )
        except SearchUnavailableError:
            # Search down / circuit open: fall back to the detector's
            # tentative flag rather than losing the page entirely.
            tags.append("search_unavailable")
        except DeadlineExceeded:
            # The budget ran out mid-identification: keep the detector's
            # tentative flag rather than blowing the request's deadline
            # on further searches.
            tags.append("deadline_exhausted")
        else:
            if identification.verdict == "legitimate":
                # The identifier confirmed the page's own domain: the
                # detector's flag was a false positive and is filtered.
                metrics.inc("fp_filtered_total")
                final = "legitimate"
            elif identification.verdict != "phish":
                final = "suspicious"
        tags.extend(sorted(sources.degradation_notes))
        return final, identification

    def analyze_many(
        self, urls, browser, pool=None, page_budget=None, quality=None
    ) -> BatchReport:
        """Analyze a batch of URLs, quarantining unloadable pages.

        Thin forwarding wrapper around
        :func:`repro.resilience.batch.analyze_many`; see there for the
        quarantine semantics.  ``browser`` is ideally a
        :class:`~repro.resilience.browser.ResilientBrowser` so transient
        faults are retried before a page is given up on.  Loads stay
        serial; the loaded pages go to :meth:`analyze_batch`, per chunk
        of the optional :class:`~repro.parallel.WorkerPool` ``pool``,
        and the report is identical to the serial run (same verdicts,
        same order).  ``page_budget`` gives
        every page its own end-to-end deadline (load + analysis); see
        the batch layer for how leftover budget carries into analysis.
        The pipeline's tracer and metrics observe the whole batch (each
        page's span tree is spliced back in input order, so dumps are
        deterministic across backends).

        ``quality`` taps a :class:`~repro.obs.quality.QualityMonitor`
        with each analyzed page's verdict *after* the batch completes,
        in input order — a post-hoc feed from the report, so the
        observation stream (and every drift window over it) is
        identical across the serial, thread and process backends.
        Vectors are not retained by the batch layer, so this path
        feeds score drift and the degraded-rate SLOs but not the
        per-feature-group signals.
        """
        report = analyze_many(
            self, browser, urls, pool=pool,
            tracer=self.tracer, metrics=self.metrics,
            page_budget=page_budget,
        )
        if quality is not None:
            for page in report.analyzed:
                verdict = page.verdict
                quality.observe_verdict(
                    score=verdict.confidence,
                    verdict=verdict.verdict,
                    degraded=verdict.degraded,
                    url=page.url,
                )
        return report

    def is_blocked(self, verdict: PageVerdict) -> bool:
        """Binary blocking decision derived from a verdict."""
        if verdict.verdict == "phish":
            return True
        if verdict.verdict == "suspicious":
            return self.treat_suspicious_as_phish
        return False
