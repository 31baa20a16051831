"""The overload-robust serving engine.

:class:`ServingEngine` turns the offline pipeline into a request
server and makes its overload behaviour *explicit*: every request
terminates as served, degraded or shed — never dropped, never stuck —
and every defence (admission control, backpressure, coalescing,
deadlines, breakers, drain) is deterministic under an injectable
clock, so chaos scenarios are exact assertions rather than flaky
observations.

The engine is a discrete-event simulator driven synchronously: it
walks the merged timeline of request arrivals, chaos events and work
completions.  Workers are modelled as capacity — up to ``workers``
requests are in flight at once, each occupying its slot for its
*service time* (the page load's simulated duration plus a modelled
per-analysis cost).  The shared :class:`~repro.resilience.clock.Clock`
backs the load-level deadlines and fault stalls; the serving timeline
itself is plain event arithmetic, so reordering-independent and exact.

Request lifecycle (the **triage ladder**)::

    arrival ─ triage? ─ negative? ─ coalesce? ─ admission ─ queue ─ dispatch
                │           │           │           │         │        │
             tier-0       shed          │         shed      shed     shed
             verdict   (upstream)   (follower)

A configured :class:`~repro.serve.triage.TriageModel` resolves
high-confidence URLs at tier 0 — a URL-only score, no page load, no
queue slot, no token, no worker — and only *escalates* the uncertain
band into the classic path, which stays byte-identical to an
untriaged engine.  An optional negative cache (URL-keyed, short TTL)
answers repeats of recently unloadable pages instantly instead of
burning a worker on a page that just failed.

Deadline propagation: a request's budget is consumed by queue wait,
then threaded as a :class:`~repro.resilience.retry.Deadline` through
the browser's retries and into the pipeline's target-identification
search queries.  No stage starts work the budget cannot cover.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.obs.metrics import NULL_METRICS, AnyMetrics
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.parallel.cache import snapshot_fingerprint
from repro.resilience.clock import Clock, SystemClock
from repro.resilience.errors import DeadlineExceeded, FetchError
from repro.resilience.retry import Deadline
from repro.serve.admission import AdmissionController
from repro.serve.cache import ShardedTtlCache
from repro.serve.coalesce import InflightTable, VerdictMemo
from repro.serve.loadgen import ChaosEvent
from repro.serve.report import ServingReport
from repro.serve.request import (
    DEGRADED,
    SERVED,
    SHED,
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_UPSTREAM,
    TIER_FULL,
    TIER_NEGATIVE,
    TIER_TRIAGE,
    ServeRequest,
    ServeResponse,
)
from repro.serve.triage import TriageModel
from repro.web.browser import PageNotFound, RedirectLoopError

_EPS = 1e-9


class ServingEngine:
    """Serves verdict requests with explicit overload behaviour.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.core.pipeline.KnowYourPhish` (accepting
        ``analyze(loaded, deadline=...)``).
    browser:
        A :class:`~repro.resilience.browser.ResilientBrowser` over the
        (possibly fault-injected) web.
    admission:
        The :class:`AdmissionController` guarding the queue.
    clock:
        Shared time source; defaults to the browser's clock.  With a
        :class:`~repro.resilience.clock.ManualClock` the engine
        advances it along the event timeline, so breaker cooldowns and
        fault stalls live in the same simulated seconds as the load.
    workers:
        Concurrent in-flight capacity (chaos can change it mid-run;
        it never falls below 1).
    analysis_cost:
        Modelled seconds one full analysis occupies a worker.
    memo_cost:
        Modelled seconds for a content-hash memo hit (default: 10% of
        ``analysis_cost``).
    triage:
        Optional :class:`~repro.serve.triage.TriageModel`.  When set,
        arrivals are scored URL-only first; confident verdicts resolve
        at tier 0 (``triage_cost`` seconds, no queue slot, no token,
        no worker) and only the uncertain band escalates into the
        classic path, which stays byte-identical to an untriaged run.
    triage_cost:
        Modelled seconds for one tier-0 decision (default: 1% of
        ``analysis_cost`` — a hashed dot product vs a page analysis).
    negative_ttl:
        When set, recently *unloadable* URLs (upstream-failure sheds)
        are negative-cached for this many simulated seconds and
        repeats are refused instantly without occupying a worker.
        ``None`` (default) disables negative caching.
    memo_capacity / memo_ttl / memo_shards:
        Sizing of the sharded content-hash verdict memo.  Defaults
        (unbounded, no TTL) reproduce the historical run-scoped memo
        exactly; long-running deployments bound both.
    tracer / metrics:
        Optional observability instruments (``serve.*`` spans incl.
        ``serve.triage``, per-shard ``cache.shard`` spans; ``serve_*``
        counters, queue-depth gauge, per-tier latency histograms).
    quality:
        Optional :class:`~repro.obs.quality.QualityMonitor`.  Every
        terminal response, memo lookup and tier-0 escalation outcome
        is tapped read-only (the monitor carries its own tracer and
        metrics), and the monitor is finalized on drain — so SLO burn
        rates, drift windows and the flight recorder see live serving
        traffic while verdicts and the engine's own span dumps stay
        byte-identical to an unmonitored run.
    """

    def __init__(
        self,
        pipeline,
        browser,
        admission: AdmissionController,
        clock: Clock | None = None,
        workers: int = 4,
        analysis_cost: float = 0.05,
        memo_cost: float | None = None,
        triage: TriageModel | None = None,
        triage_cost: float | None = None,
        negative_ttl: float | None = None,
        memo_capacity: int | None = None,
        memo_ttl: float | None = None,
        memo_shards: int = 4,
        tracer: AnyTracer = NULL_TRACER,
        metrics: AnyMetrics = NULL_METRICS,
        quality=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if analysis_cost <= 0:
            raise ValueError(
                f"analysis_cost must be positive, got {analysis_cost}"
            )
        if triage_cost is not None and triage_cost < 0:
            raise ValueError(
                f"triage_cost must be >= 0, got {triage_cost}"
            )
        self.pipeline = pipeline
        self.browser = browser
        self.admission = admission
        self.clock = clock or getattr(browser, "clock", None) or SystemClock()
        self.workers = workers
        self.analysis_cost = analysis_cost
        self.memo_cost = (
            memo_cost if memo_cost is not None else analysis_cost * 0.1
        )
        self.triage = triage
        self.triage_cost = (
            triage_cost if triage_cost is not None else analysis_cost * 0.01
        )
        self.tracer = tracer
        self.metrics = metrics
        self.quality = quality
        self.inflight_table = InflightTable()
        self.memo = VerdictMemo(
            capacity=memo_capacity,
            ttl=memo_ttl,
            clock=self.clock,
            shards=memo_shards,
        )
        self.negative = (
            ShardedTtlCache(
                ttl=negative_ttl, clock=self.clock, shards=memo_shards
            )
            if negative_ttl is not None
            else None
        )
        # per-run state, reset by run()
        self._pending: deque[ServeRequest] = deque()
        self._inflight: list = []
        self._seq = 0
        self._drain_at: float | None = None
        self.max_queue_depth = 0
        self.max_inflight = 0
        # quality-tap bookkeeping (only populated when a monitor is
        # armed): request budgets for deadline-slack recording, and
        # triage scores of escalated requests for mismatch tracking.
        self._budgets: dict[int, float | None] = {}
        self._triage_scores: dict[int, float] = {}

    # -- chaos hooks ---------------------------------------------------
    def lose_worker(self) -> None:
        """Chaos: one worker dies (capacity never drops below 1)."""
        self.workers = max(1, self.workers - 1)

    def add_worker(self) -> None:
        """Chaos/recovery: one worker joins."""
        self.workers += 1

    # -- main loop -----------------------------------------------------
    def run(
        self,
        requests: list[ServeRequest],
        chaos: list[ChaosEvent] | tuple = (),
        drain_at: float | None = None,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the report.

        ``chaos`` events fire at their simulated instants.  From
        ``drain_at`` on the engine stops admitting (arrivals shed with
        ``draining``) but finishes everything already admitted — the
        graceful-drain contract: zero admitted requests are lost.
        """
        ordered = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        chaos_queue = deque(sorted(chaos, key=lambda c: (c.time, c.label)))
        arrivals = deque(ordered)
        responses: dict[int, ServeResponse] = {}
        self._pending = deque()
        self._inflight = []
        self._drain_at = drain_at
        self.max_queue_depth = 0
        self.max_inflight = 0
        self._budgets = {}
        self._triage_scores = {}

        with self.tracer.span("serve.run", requests=len(ordered)):
            while arrivals:
                self._tick(
                    self._next_time(arrivals, chaos_queue),
                    arrivals, chaos_queue, responses,
                )
            with self.tracer.span(
                "serve.drain",
                queued=len(self._pending),
                inflight=len(self._inflight),
            ):
                while self._pending or self._inflight or chaos_queue:
                    self._tick(
                        self._next_time(arrivals, chaos_queue),
                        arrivals, chaos_queue, responses,
                    )
            for index, stats in enumerate(self.memo.shard_stats()):
                with self.tracer.span(
                    "cache.shard", cache="memo", index=index, **stats
                ):
                    pass

        if self.quality is not None:
            # Final SLO + drift pass on drain, so alerts pending inside
            # an evaluation interval still surface in the artifact.
            self.quality.finish(now=self.clock.now())

        ordered_responses = [
            responses[request.request_id] for request in ordered
        ]
        cache_stats = {"memo": self.memo.stats()}
        if self.negative is not None:
            cache_stats["negative"] = self.negative.stats()
        return ServingReport(
            responses=ordered_responses,
            max_queue_depth=self.max_queue_depth,
            max_inflight=self.max_inflight,
            queue_limit=self.admission.queue_limit,
            workers=self.workers,
            coalesced=self.inflight_table.coalesced_total,
            memo_hits=self.memo.hits,
            memo_misses=self.memo.misses,
            admission_stats=dict(self.admission.stats),
            triage_enabled=self.triage is not None,
            negative_cache_enabled=self.negative is not None,
            cache_stats=cache_stats,
        )

    def _next_time(self, arrivals, chaos_queue) -> float:
        candidates = []
        if arrivals:
            candidates.append(arrivals[0].arrival)
        if chaos_queue:
            candidates.append(chaos_queue[0].time)
        if self._inflight:
            candidates.append(self._inflight[0][0])
        if not candidates:  # only queued work left: dispatch immediately
            return self.clock.now()
        return min(candidates)

    def _tick(self, t: float, arrivals, chaos_queue, responses) -> None:
        """Process every event due at ``t``, then fill free workers."""
        advance = getattr(self.clock, "advance", None)
        if advance is not None and t > self.clock.now():
            advance(t - self.clock.now())
        while self._inflight and self._inflight[0][0] <= t + _EPS:
            finish, _seq, request, payload = heapq.heappop(self._inflight)
            self._complete(request, payload, finish, responses)
        while chaos_queue and chaos_queue[0].time <= t + _EPS:
            event = chaos_queue.popleft()
            self.metrics.inc("serve_chaos_total", event=event.label)
            event.action(self)
        while arrivals and arrivals[0].arrival <= t + _EPS:
            self._admit(arrivals.popleft(), responses)
        self._dispatch(t, responses)
        self.max_queue_depth = max(self.max_queue_depth, len(self._pending))
        self.max_inflight = max(self.max_inflight, len(self._inflight))
        self.metrics.set_gauge("serve_queue_depth", len(self._pending))

    # -- admission -----------------------------------------------------
    def _admit(self, request: ServeRequest, responses) -> None:
        now = request.arrival
        if self.quality is not None:
            self._budgets[request.request_id] = request.budget
        if self._drain_at is not None and now >= self._drain_at - _EPS:
            self._record(
                self._shed(request, SHED_DRAINING, now), responses
            )
            return
        if self.triage is not None and self._triage(request, now, responses):
            return
        if self.negative is not None:
            reason = self.negative.get(request.url, now=now)
            if reason is not None:
                self.metrics.inc("serve_negative_hits_total")
                self._record(
                    self._shed(request, reason, now, tier=TIER_NEGATIVE),
                    responses,
                )
                return
        leader_id = self.inflight_table.leader_for(request.url)
        if leader_id is not None:
            # Same URL already queued or being analyzed: ride along for
            # free — no queue slot, no token, no worker.
            self.inflight_table.follow(leader_id, request)
            self.metrics.inc("serve_coalesced_total")
            return
        decision = self.admission.decide(now, len(self._pending))
        if not decision.admitted:
            self._record(
                self._shed(
                    request, decision.reason, now,
                    retry_after=decision.retry_after,
                ),
                responses,
            )
            return
        self._pending.append(request)
        self.inflight_table.lead(request)

    def _triage(self, request: ServeRequest, now: float, responses) -> bool:
        """Tier-0 URL-only resolution; True when the request terminated.

        A confident decision terminates the request after
        ``triage_cost`` simulated seconds without consuming a queue
        slot, a token or a worker; ``escalate`` falls through to the
        classic path untouched.
        """
        with self.tracer.span(
            "serve.triage", url=request.url, id=request.request_id
        ) as span:
            decision = self.triage.decide(request.url)
            span.set(action=decision.action, score=decision.score)
        self.metrics.inc("serve_triage_total", action=decision.action)
        if not decision.resolved:
            if self.quality is not None:
                # Remember the tier-0 lean so the full verdict can be
                # checked against it at completion (popped in _record).
                self._triage_scores[request.request_id] = decision.score
            return False
        if request.budget is not None and self.triage_cost > request.budget:
            self._record(
                self._shed(
                    request, SHED_DEADLINE, now + request.budget,
                    latency=request.budget, tier=TIER_TRIAGE,
                ),
                responses,
            )
            return True
        self._record(
            ServeResponse(
                request_id=request.request_id,
                url=request.url,
                outcome=SERVED,
                finished=now + self.triage_cost,
                latency=self.triage_cost,
                verdict=decision.action,
                confidence=decision.score,
                targets=(),
                tier=TIER_TRIAGE,
            ),
            responses,
        )
        return True

    # -- dispatch ------------------------------------------------------
    def _batchable(self) -> bool:
        """True when this tick's analyses may run as one columnar batch.

        Requires the pipeline to expose ``analyze_batch`` and both the
        engine and pipeline tracers to be disabled: a batched tick
        emits one ``analyze`` span over all its pages instead of one
        ``serve.request``/``analyze`` tree per request, so traced runs
        keep the per-request path to preserve their span dumps byte
        for byte.  Verdicts are the same either way: ``analyze`` and
        ``analyze_batch`` run the pipeline's one analysis path.
        """
        return (
            getattr(self.pipeline, "analyze_batch", None) is not None
            and not self.tracer.enabled
            and not getattr(
                getattr(self.pipeline, "tracer", NULL_TRACER),
                "enabled",
                False,
            )
        )

    def _dispatch(self, t: float, responses) -> None:
        # Unbudgeted requests dispatched in one tick can share a single
        # columnar analysis pass: their loads still run serially in pop
        # order (fault stalls advance the shared clock exactly as the
        # per-request path would), and analysis itself neither advances
        # nor reads simulated time, so deferring it to the end of the
        # tick is invisible to the simulation.  Budgeted requests keep
        # the per-request path — their deadline reads interleave with
        # the clock — and flush any staged work first so memo fills and
        # search-engine calls stay in pop order.
        staged: list[tuple] = []
        staged_analyses = 0
        staged_fps: set[str] = set()
        batchable = self._batchable()

        def flush() -> None:
            nonlocal staged_analyses
            if not staged:
                return
            loads = [
                entry[2] for entry in staged if entry[0] == "analyze"
            ]
            verdicts = (
                self.pipeline.analyze_batch(loads) if loads else []
            )
            cursor = 0
            for entry in staged:
                kind, request = entry[0], entry[1]
                if kind == "analyze":
                    _kind, _request, _loaded, load_delta, fp = entry
                    verdict = verdicts[cursor]
                    cursor += 1
                    self.memo.put(fp, verdict)
                    payload = ("verdict", verdict, False)
                    service = load_delta + self.analysis_cost
                elif kind == "dup":
                    _kind, _request, load_delta, fp = entry
                    # An earlier request in this same tick analyzed the
                    # identical content; serially this lookup would hit
                    # the memo it just filled.
                    payload = ("verdict", self.memo.get(fp), True)
                    service = load_delta + self.memo_cost
                else:  # "ready": shed at load time, or a warm memo hit
                    _kind, _request, payload, service = entry
                heapq.heappush(
                    self._inflight,
                    (t + service, self._seq, request, payload),
                )
                self._seq += 1
            staged.clear()
            staged_fps.clear()
            staged_analyses = 0

        while (
            self._pending
            and len(self._inflight) + len(staged) < self.workers
        ):
            request = self._pending.popleft()
            queue_wait = t - request.arrival
            remaining = request.remaining_at(t)
            if remaining is not None and remaining <= 0:
                # The budget died in the queue; do no work for it (or
                # for the followers that were riding on it).
                self._record(
                    self._shed(
                        request, SHED_DEADLINE, t, queue_wait=queue_wait
                    ),
                    responses,
                )
                for follower in self.inflight_table.complete(request):
                    self._record(
                        self._shed(
                            follower, SHED_DEADLINE, t,
                            latency=t - follower.arrival, coalesced=True,
                        ),
                        responses,
                    )
                continue
            if batchable and remaining is None:
                staged.append(self._stage_load(request, staged_fps))
                if staged[-1][0] == "analyze":
                    staged_analyses += 1
                continue
            flush()
            with self.tracer.span(
                "serve.request", url=request.url, id=request.request_id
            ) as span:
                payload, service = self._work(request, remaining)
                span.set(kind=payload[0], service=service)
            finish = t + service
            heapq.heappush(
                self._inflight, (finish, self._seq, request, payload)
            )
            self._seq += 1
        flush()

    def _stage_load(self, request: ServeRequest, staged_fps: set):
        """Load one unbudgeted request now; defer its analysis.

        Mirrors :meth:`_work`'s unbudgeted path step for step — same
        exception handling, same memo probe — but returns a staged
        entry instead of analyzing inline.  Content already staged for
        analysis in this tick is recorded as a ``dup`` (the serial loop
        would hit the memo the earlier request filled) without probing
        the memo now, keeping its hit/miss counters identical.
        """
        load_start = self.clock.now()
        try:
            loaded = self.browser.load(request.url)
        except DeadlineExceeded:
            return (
                "ready", request, ("shed", SHED_DEADLINE),
                self.clock.now() - load_start,
            )
        except (PageNotFound, RedirectLoopError, FetchError):
            return (
                "ready", request, ("shed", SHED_UPSTREAM),
                self.clock.now() - load_start,
            )
        load_delta = self.clock.now() - load_start
        fingerprint = snapshot_fingerprint(loaded.snapshot)
        if fingerprint in staged_fps:
            if self.quality is not None:
                # Serially this lookup would hit the memo the earlier
                # staged request filled: record it as the hit it is.
                self.quality.observe_cache(
                    "memo", True, now=self.clock.now()
                )
            return ("dup", request, load_delta, fingerprint)
        memoized = self.memo.get(fingerprint)
        if self.quality is not None:
            self.quality.observe_cache(
                "memo", memoized is not None, now=self.clock.now()
            )
        if memoized is not None:
            return (
                "ready", request, ("verdict", memoized, True),
                load_delta + self.memo_cost,
            )
        staged_fps.add(fingerprint)
        return ("analyze", request, loaded, load_delta, fingerprint)

    def _work(self, request: ServeRequest, remaining: float | None):
        """Load + analyze one request; return (payload, service_time).

        The service time is the load's simulated duration (measured on
        the shared clock, which fault stalls and retry backoffs
        advance) plus the modelled analysis cost.  The payload is
        either ``("verdict", PageVerdict, from_memo)`` or
        ``("shed", reason)``.
        """
        load_start = self.clock.now()
        deadline = (
            Deadline(remaining, clock=self.clock)
            if remaining is not None
            else None
        )
        try:
            if deadline is not None:
                loaded = self.browser.load(request.url, deadline=deadline)
            else:
                loaded = self.browser.load(request.url)
        except DeadlineExceeded:
            return ("shed", SHED_DEADLINE), self.clock.now() - load_start
        except (PageNotFound, RedirectLoopError, FetchError):
            return ("shed", SHED_UPSTREAM), self.clock.now() - load_start
        load_delta = self.clock.now() - load_start
        left = remaining - load_delta if remaining is not None else None

        fingerprint = snapshot_fingerprint(loaded.snapshot)
        memoized = self.memo.get(fingerprint)
        if self.quality is not None:
            self.quality.observe_cache(
                "memo", memoized is not None, now=self.clock.now()
            )
        if memoized is not None:
            if left is not None and left < self.memo_cost:
                return ("shed", SHED_DEADLINE), load_delta
            return ("verdict", memoized, True), load_delta + self.memo_cost
        if left is not None and left < self.analysis_cost:
            # Loading ate the budget; analyzing would finish past the
            # deadline, so the answer would be useless — shed instead.
            return ("shed", SHED_DEADLINE), load_delta
        verdict = self.pipeline.analyze(
            loaded,
            deadline=(
                Deadline(left, clock=self.clock) if left is not None else None
            ),
        )
        self.memo.put(fingerprint, verdict)
        return ("verdict", verdict, False), load_delta + self.analysis_cost

    # -- completion ----------------------------------------------------
    def _complete(self, request, payload, finish: float, responses) -> None:
        followers = self.inflight_table.complete(request)
        kind = payload[0]
        if kind == "shed":
            reason = payload[1]
            if self.negative is not None and reason == SHED_UPSTREAM:
                # Remember the unloadable page briefly: repeats within
                # the negative TTL are refused at arrival, saving the
                # doomed load and the worker it would occupy.
                self.negative.put(
                    request.url, reason, now=finish, negative=True
                )
            self._record(
                self._shed(
                    request, reason, finish,
                    latency=finish - request.arrival,
                ),
                responses,
            )
            for follower in followers:
                self._record(
                    self._shed(
                        follower, SHED_UPSTREAM, finish,
                        latency=finish - follower.arrival, coalesced=True,
                    ),
                    responses,
                )
            return
        verdict = payload[1]
        from_memo = payload[2]
        self._record(
            self._completed(request, verdict, finish, coalesced=from_memo),
            responses,
        )
        for follower in followers:
            latency = finish - follower.arrival
            if follower.budget is not None and latency > follower.budget:
                # The shared result arrived past this follower's own
                # deadline; a late verdict is a broken promise.
                self._record(
                    self._shed(
                        follower, SHED_DEADLINE, finish,
                        latency=latency, coalesced=True,
                    ),
                    responses,
                )
                continue
            self._record(
                self._completed(follower, verdict, finish, coalesced=True),
                responses,
            )

    def _completed(
        self, request, verdict, finish: float, coalesced: bool
    ) -> ServeResponse:
        outcome = DEGRADED if verdict.degraded else SERVED
        return ServeResponse(
            request_id=request.request_id,
            url=request.url,
            outcome=outcome,
            finished=finish,
            latency=finish - request.arrival,
            verdict=verdict.verdict,
            confidence=verdict.confidence,
            targets=tuple(verdict.targets),
            degradations=tuple(verdict.degradations),
            coalesced=coalesced,
        )

    def _shed(
        self,
        request: ServeRequest,
        reason: str,
        now: float,
        retry_after: float | None = None,
        queue_wait: float = 0.0,
        latency: float = 0.0,
        coalesced: bool = False,
        tier: str = TIER_FULL,
    ) -> ServeResponse:
        return ServeResponse(
            request_id=request.request_id,
            url=request.url,
            outcome=SHED,
            finished=now,
            latency=latency,
            shed_reason=reason,
            retry_after=retry_after,
            queue_wait=queue_wait,
            coalesced=coalesced,
            tier=tier,
        )

    def _record(self, response: ServeResponse, responses) -> None:
        if response.request_id in responses:
            raise AssertionError(
                f"request {response.request_id} terminated twice"
            )
        responses[response.request_id] = response
        self.metrics.inc("serve_requests_total", outcome=response.outcome)
        self.metrics.inc("serve_tier_total", tier=response.tier)
        if self.quality is not None:
            triage_score = self._triage_scores.pop(
                response.request_id, None
            )
            if (
                triage_score is not None
                and response.completed
                and response.tier == TIER_FULL
            ):
                # Escalation mismatch: the tier-0 lean (score >= 0.5
                # reads "phish-leaning") disagreed with the full
                # pipeline's blocking verdict.
                lean_phish = triage_score >= 0.5
                blocked = response.verdict in ("phish", "suspicious")
                self.quality.observe_escalation(
                    lean_phish != blocked, now=response.finished
                )
            self.quality.observe_response(
                response,
                budget=self._budgets.pop(response.request_id, None),
                now=response.finished,
            )
        if response.shed:
            self.metrics.inc("serve_shed_total", reason=response.shed_reason)
        else:
            self.metrics.observe(
                "serve_latency_seconds",
                response.latency,
                outcome=response.outcome,
            )
            self.metrics.observe(
                "serve_tier_latency_seconds",
                response.latency,
                tier=response.tier,
            )
