"""One benchmark run: set up, check, time, report.

A run sets up the system ``setups`` times and reports the median
set-up time, then computes the reference outputs, which also warms up
what the program builds lazily (the search engine's term arrays).  Then
it runs units of work back to back for ``seconds``; every unit's output
is checked against the reference.

Timings are in *reference-speed* time, not wall-clock time: units
``ref_ms`` and ``1/ref_s``, and ``s`` for ``setup_s``, whose unit the
benchmark format fixes.  On a shared host the speed available to one
process swings by up to 1.8x within seconds and stays in one state for
minutes (process CPU time swings with it), which moves wall-clock
figures more than a real regression would.  A fixed standard-library
workload, the *speed probe*, is timed every quarter second between
units and three times before and after each set-up, and each wall time
is multiplied by ``PROBE_REFERENCE_S / probe time`` (the median of the
last three probes for a unit, of the six for a set-up).  The scaling
assumes that nothing of the program runs while the probe does: the
probe refuses to run beside other threads, and garbage collection is
off while it runs, so the program's heap does not slow it.  The raw
wall-clock figures go on the line beside the result and, as ``wall.*``
per-layer metrics, into traced runs.

Every round repeats the same units, so each unit is timed several
times; the end-to-end metrics use, per unit, the median of its
repetitions, so a burst of host noise that slows fewer than half the
repetitions of a unit does not move them.

With ``trace`` a run instead times an untraced phase of ``seconds / 4``
and then a traced phase of whole rounds lasting at least ``seconds``,
and reports per-layer metrics (raw wall-clock) from the traced phase;
end-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import gc
import hashlib
import math
import re
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from html.parser import HTMLParser

from repro.obs.quantiles import nearest_rank

from perfbench.layers import Recorder
from perfbench.workloads import WORKLOADS, Outcome, Serve, Workload
from perfbench.world import SIZES, input_rng, set_up

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Layer spans reported by traced runs, with the name of their count.
LAYERS = (
    ("web.load", "web.load_calls"),
    ("pipeline.analyze_many", "pipeline.analyze_many_calls"),
    ("pipeline.analyze", "pipeline.analyze_calls"),
    ("pipeline.analyze_batch", "pipeline.analyze_batch_calls"),
    ("features.extract", "features.extract_calls"),
    ("ml.predict", "ml.predict_calls"),
    ("target.identify", "target.identify_calls"),
    ("keyterms.extract", "keyterms.extract_calls"),
    ("search.result_rdns", "search.result_rdns_calls"),
    ("search.query", "search.queries"),
    ("ocr.read", "ocr.reads"),
    ("addon.navigate", "addon.navigate_calls"),
    ("serve.run", "serve.run_calls"),
    ("serve.triage", "serve.triage_calls"),
    ("serve.triage_batch", "serve.triage_batch_calls"),
)

#: Set-up spans, reported as seconds.
SETUP_LAYERS = (
    "corpus.build_world", "features.train_extract", "ml.fit",
    "serve.calibrate",
)


#: The speed probe's input: a fixed page of links and paragraphs.
PROBE_PAGE = "".join(
    f'<div class="c{i % 7}"><a href="http://site{i}.example.com/p/{i}?q={i}">'
    f"Link {i} text words here</a><p>Paragraph {i} with more words, "
    f"numbers {i * 31} and terms like login account bank.</p></div>"
    for i in range(120)
)

#: Probe duration at the reference speed that timings are scaled to.
PROBE_REFERENCE_S = 0.005

#: Seconds of work between two probes.
PROBE_EVERY_S = 0.25

_WORD = re.compile(r"[a-z]+")


class _ProbeParser(HTMLParser):
    """Collects the attributes and text of :data:`PROBE_PAGE`."""

    def __init__(self) -> None:
        super().__init__()
        self.attributes = 0
        self.text: list[str] = []

    def handle_starttag(self, tag, attrs) -> None:
        self.attributes += len(attrs)

    def handle_data(self, data) -> None:
        self.text.append(data)


def probe() -> float:
    """Seconds the speed probe takes now.

    The probe parses :data:`PROBE_PAGE` with the standard library's
    HTML parser and counts its words, work shaped like the program's
    page loads and term extraction (2.4 to 4.5 ms on a 2.1 GHz Xeon,
    with host load), so host contention slows it much as it slows the
    program, while no change to the program can change its cost.  It
    runs with garbage collection off, so the size of the program's heap
    cannot slow it, and only in a process with no other thread, so no
    work of the program runs beside it.
    """
    if threading.active_count() > 1:
        raise RuntimeError("the speed probe needs a single-threaded process")
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        parser = _ProbeParser()
        parser.feed(PROBE_PAGE)
        parser.close()
        Counter(_WORD.findall(" ".join(parser.text).lower()))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Scale factor from wall time to reference-speed time.

    :meth:`scale` re-times the probe when the last reading is older
    than :data:`PROBE_EVERY_S` and returns ``PROBE_REFERENCE_S`` over
    the median of the last three readings.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._taken = -math.inf

    def scale(self) -> float:
        if time.perf_counter() - self._taken >= PROBE_EVERY_S:
            self.readings.append(probe())
            self._taken = time.perf_counter()
        return PROBE_REFERENCE_S / statistics.median(self.readings[-3:])


@dataclass
class Phase:
    """Units run back to back: ``(position, wall, scale, outcome)``.

    ``scale`` turns the unit's wall seconds into reference-speed
    seconds (see :class:`SpeedProbe`).  Each unit's output is checked
    as soon as it ran; only the first round's raw results are kept
    (``first``, by position), so memory does not grow with the number
    of rounds a run manages.
    """

    wall: float = 0.0
    rounds: int = 0
    failed: int = 0
    checking: float = 0.0      # seconds spent in output checks
    units: list[tuple[int, float, float, Outcome]] = field(
        default_factory=list
    )
    first: dict[int, object] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(unit[-1].ops for unit in self.units)


def run_phase(
    workload: Workload,
    seconds: float,
    whole_rounds: bool = False,
    speed: SpeedProbe | None = None,
) -> Phase:
    """Run units until ``seconds`` have passed and every unit ran once.

    With ``whole_rounds`` the phase also ends only at a round boundary.
    Without a ``speed`` probe every unit's scale is 1.
    """
    units = workload.units
    phase = Phase()
    index = 0
    started = time.perf_counter()
    while True:
        position = index % len(units)
        if position == 0:
            workload.start_round()
            phase.rounds += 1
        scale = speed.scale() if speed is not None else 1.0
        unit_started = time.perf_counter()
        outcome = workload.run(units[position])
        unit_ended = time.perf_counter()
        phase.failed += workload.mismatches(position, outcome.raw)
        phase.first.setdefault(position, outcome.raw)
        outcome.raw = None
        phase.units.append(
            (position, unit_ended - unit_started, scale, outcome)
        )
        phase.checking += time.perf_counter() - unit_ended
        index += 1
        if (
            time.perf_counter() - started >= seconds
            and index >= len(units)
            and (not whole_rounds or index % len(units) == 0)
        ):
            break
    phase.wall = time.perf_counter() - started
    return phase


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile of the sorted samples with ten
    samples beyond it, as ``(quantile, value, samples beyond)``; the
    median when there are fewer than twenty samples."""
    n = len(ordered)
    rank = n - 10 if n >= 20 else math.ceil(n / 2)
    return rank / n, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(workload: Workload, phase: Phase) -> str:
    """SHA-256 over the outputs of one round, in unit order."""
    text = repr([
        workload.outputs(phase.first[position])
        for position in sorted(phase.first)
    ])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict = SIZES,
    setups: int = SETUPS,
) -> dict:
    """One benchmark run; returns the result and what goes beside it."""
    set_up_seconds = []
    wall_set_up_seconds = []
    system = None
    for _ in range(1 if trace else setups):
        system = None
        gc.collect()
        before = [probe() for _ in range(3)]
        system = set_up(sizes, with_triage=name == "serve")
        after = [probe() for _ in range(3)]
        scale = PROBE_REFERENCE_S / statistics.median(before + after)
        wall_set_up_seconds.append(system.seconds)
        set_up_seconds.append(system.seconds * scale)
    wall_set_up = statistics.median(wall_set_up_seconds)
    workload = WORKLOADS[name](system, input_rng(seed, name), seed)
    workload.reference()
    info = {
        "workload": name,
        "seed": seed,
        "units_per_round": len(workload.units),
    }
    failed = 0
    speed = SpeedProbe()
    if trace:
        untraced = run_phase(workload, seconds / 4, speed=speed)
        failed += untraced.failed
        whole = None
        if isinstance(workload, Serve):
            whole, wrong = workload.serve_whole()
            failed += wrong
        recorder = Recorder()
        workload.instrument(recorder)
        cache_before = system.cache.counts()
        timed = run_phase(workload, seconds, whole_rounds=True)
        metrics = layer_metrics(
            workload, system, recorder, timed, untraced, cache_before, whole
        )
        raw, _tail = end_to_end(workload, untraced, scaled=False)
        metrics["wall.throughput_ops_s"] = raw["throughput_ops_s"][0], "1/s"
        metrics["wall.latency_p50_ms"] = raw["latency_p50_ms"][0], "ms"
        metrics["wall.setup_s"] = wall_set_up, "s"
        metrics["obs.probe_ms"] = (
            statistics.median(speed.readings) * 1000.0, "ms"
        )
        info["layers"] = layer_table(recorder, timed)
    else:
        timed = run_phase(workload, seconds, speed=speed)
        metrics, info["latency_tail"] = end_to_end(workload, timed)
        metrics["setup_s"] = (statistics.median(set_up_seconds), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        raw, _tail = end_to_end(workload, timed, scaled=False)
        info["raw_wall_clock"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in raw.items()
            if metric.startswith(("throughput", "latency"))
        }
        info["raw_wall_clock"]["setup_s"] = {"value": wall_set_up, "unit": "s"}
        info["probe_s"] = {
            "reference": PROBE_REFERENCE_S,
            "median": statistics.median(speed.readings),
            "min": min(speed.readings),
            "max": max(speed.readings),
            "count": len(speed.readings),
        }
    failed += timed.failed
    info["verdict_digest"] = digest(workload, timed)
    info["rounds"] = timed.rounds
    info["timed_wall_s"] = timed.wall
    return {
        "correct": failed == 0,
        "attempted": timed.ops,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def end_to_end(
    workload: Workload, timed: Phase, scaled: bool = True
) -> tuple[dict, dict]:
    """End-to-end metrics from the per-unit medians of a timed phase.

    Timings are in reference-speed time unless ``scaled`` is False,
    when they are wall-clock time.
    """
    walls: dict[int, list[float]] = {}
    latencies: dict[int, list[list[float]]] = {}
    outcomes: dict[int, Outcome] = {}
    for position, wall, scale, outcome in timed.units:
        scale = scale if scaled else 1.0
        walls.setdefault(position, []).append(wall * scale)
        latencies.setdefault(position, []).append(
            [latency * scale for latency in outcome.latencies]
        )
        outcomes.setdefault(position, outcome)
    ops = sum(outcome.ops for outcome in outcomes.values())
    errors = sum(outcome.errors for outcome in outcomes.values())
    unit_seconds = sum(statistics.median(w) for w in walls.values())
    per_op = sorted(
        statistics.median(samples)
        for repetitions in latencies.values()
        for samples in zip(*repetitions)
    )
    quantile, tail_value, beyond = tail(per_op)
    if isinstance(workload, Serve):
        accuracy = workload.served_accuracy(
            timed.first[position] for position in sorted(timed.first)
        )
    else:
        accuracy = workload.block_accuracy()
    second, ms = ("ref_s", "ref_ms") if scaled else ("s", "ms")
    metrics = {
        "throughput_ops_s": (ops / unit_seconds, f"1/{second}"),
        "latency_p50_ms": (nearest_rank(per_op, 0.5) * 1000.0, ms),
        "latency_tail_ms": (tail_value * 1000.0, ms),
        "error_ratio": (errors / ops, "ratio"),
        "block_accuracy": (accuracy, "ratio"),
    }
    repetitions = [len(w) for w in walls.values()]
    return metrics, {
        "percentile": quantile * 100,
        "samples": len(per_op),
        "samples_beyond": beyond,
        "repetitions_min": min(repetitions),
        "repetitions_max": max(repetitions),
    }


def layer_table(recorder: Recorder, timed: Phase) -> dict:
    """Every recorded layer's count, busy and self seconds, plus the
    wall time of the timed phase that no layer accounts for."""
    table = {
        name: {
            "calls": layer.calls,
            "busy_s": layer.busy,
            "self_s": layer.self_time,
        }
        for name, layer in sorted(recorder.layers.items())
    }
    table["(output check)"] = {"self_s": timed.checking}
    table["(unaccounted)"] = {
        "self_s": timed.wall - timed.checking - recorder.top_level
    }
    return table


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    workload: Workload,
    system,
    recorder: Recorder,
    timed: Phase,
    untraced: Phase,
    cache_before: dict,
    whole=None,
) -> dict:
    """The per-layer metrics of one traced run.

    Span counts and seconds cover the whole traced phase
    (``obs.rounds`` identical rounds); counts read from the outputs
    (``pipeline.*``, ``resilience.*``, ``addon.*``) cover one round, so
    they repeat exactly from run to run.  The serving ladder's counters
    come from ``whole``, the report of one ``run`` over the whole
    schedule (see ``Serve.serve_whole``).
    """
    out: dict[str, tuple[float, str]] = {}
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (system.layers.layer(name).busy, "s")
    for name, calls in LAYERS:
        layer = recorder.layer(name)
        out[calls] = (layer.calls, "count")
        out[f"{name}_s"] = (layer.busy, "s")
        out[f"{name}_self_s"] = (layer.self_time, "s")
    layer = recorder.layer
    out["web.load_failed"] = (layer("web.load").failed, "count")
    out["features.rows"] = (layer("features.extract").tally, "count")
    predict = layer("ml.predict")
    out["ml.rows_per_call"] = (_ratio(predict.tally, predict.calls), "rows")
    identify = layer("target.identify")
    out["target.searches_per_page"] = (
        _ratio(layer("search.query").calls, identify.calls), "queries"
    )
    out["target.resolved_ratio"] = (
        _ratio(identify.tally, identify.calls), "ratio"
    )

    cache_after = system.cache.counts()
    hits = sum(
        cache_after[store]["hits"] - cache_before[store]["hits"]
        for store in cache_after
    )
    misses = sum(
        cache_after[store]["misses"] - cache_before[store]["misses"]
        for store in cache_after
    )
    out["cache.hits"] = (hits, "count")
    out["cache.misses"] = (misses, "count")
    out["cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")

    threshold = system.pipeline.detector.threshold
    first_round = [timed.first[position] for position in sorted(timed.first)]
    verdicts = [
        verdict for raw in first_round for verdict in workload.verdicts(raw)
    ]
    flagged = sum(verdict.confidence >= threshold for verdict in verdicts)
    out["pipeline.pages"] = (len(verdicts), "count")
    out["pipeline.flagged_ratio"] = (_ratio(flagged, len(verdicts)), "ratio")
    quarantined = sum(
        len(raw.quarantined) for raw in first_round if workload.name == "scan"
    )
    out["resilience.quarantined"] = (quarantined, "count")
    cached = sum(
        raw.from_cache for raw in first_round if workload.name == "verify"
    )
    navigations = len(first_round) if workload.name == "verify" else 0
    out["addon.cache_hit_ratio"] = (_ratio(cached, navigations), "ratio")
    out.update(serve_metrics(recorder, whole))

    overhead = _per_op(timed) / _per_op(untraced)
    out["obs.trace_overhead_ratio"] = (overhead, "ratio")
    out["obs.timed_wall_s"] = (timed.wall, "s")
    out["obs.check_s"] = (timed.checking, "s")
    out["obs.unaccounted_s"] = (
        timed.wall - timed.checking - recorder.top_level, "s"
    )
    out["obs.rounds"] = (timed.rounds, "count")
    out["obs.ops"] = (timed.ops, "count")
    return out


def _per_op(phase: Phase) -> float:
    """Wall seconds per operation inside a phase's units."""
    return sum(unit[1] for unit in phase.units) / phase.ops


def serve_metrics(recorder: Recorder, whole):
    """Serving-ladder counters of one whole-schedule ``run``.

    ``serve.analyze_s`` and ``serve.engine_self_s`` are spans of the
    timed phase; the rest read ``whole``.  All are 0 without it.
    """
    requests = tier0 = negative = memo_hits = memo_lookups = coalesced = 0
    max_queue = 0
    sim_p99 = full_p99 = analyze_s = 0.0
    if whole is not None:
        analyze_s = recorder.layer("pipeline.analyze_batch").busy + (
            recorder.layer("pipeline.analyze").busy
        )
        tiers = Serve.tiers(whole)
        requests = whole.total
        tier0 = tiers["tier0"]
        negative = tiers["negative"]
        max_queue = whole.max_queue_depth
        memo_hits = whole.memo_hits
        memo_lookups = whole.memo_hits + whole.memo_misses
        coalesced = whole.coalesced
        completed = [
            response for response in whole.responses if response.completed
        ]
        everything = sorted(response.latency for response in completed)
        full = sorted(
            response.latency for response in completed
            if response.tier == "full"
        )
        sim_p99 = nearest_rank(everything, 0.99) * 1000.0
        full_p99 = nearest_rank(full, 0.99) * 1000.0
    return {
        "serve.requests": (requests, "count"),
        "serve.tier0_share": (_ratio(tier0, requests), "ratio"),
        "serve.escalations": (requests - tier0, "count"),
        "serve.negative_hits": (negative, "count"),
        "serve.memo_hit_ratio": (_ratio(memo_hits, memo_lookups), "ratio"),
        "serve.memo_lookups": (memo_lookups, "count"),
        "serve.coalesced": (coalesced, "count"),
        "serve.analyze_s": (analyze_s, "s"),
        "serve.engine_self_s": (recorder.layer("serve.run").self_time, "s"),
        "serve.max_queue_depth": (max_queue, "count"),
        "serve.sim_latency_p99_ms": (sim_p99, "sim_ms"),
        "serve.sim_latency_full_p99_ms": (full_p99, "sim_ms"),
    }
