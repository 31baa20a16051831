"""Layer spans recorded from outside the program.

A :class:`Recorder` keeps one aggregate per layer: calls, busy seconds
(the sum of span durations), self seconds (each span's duration minus
the part its child spans cover), failed calls and a per-layer tally
(rows extracted, pages resolved, ...).  :meth:`Recorder.wrap` replaces
one bound method of an object the benchmark built with a timing shim
stored on that instance, so every call reaching the method through the
object, including the object's own ``self.method(...)`` calls, opens a
span.  Classes are never patched: objects the benchmark did not wrap
run untouched.

The benchmark is single-threaded, so one span stack is enough.  Spans
opened while no other span is open are *top-level*; the timed phase's
wall time minus their total is the time no layer accounts for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Layer:
    """Aggregate of every span recorded under one layer name."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    failed: int = 0
    tally: int = 0


class Recorder:
    """In-memory span recorder aggregating per layer name."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.top_level = 0.0
        self._stack: list[list] = []   # [name, start, child seconds]

    def layer(self, name: str) -> Layer:
        """The aggregate for ``name`` (all zero if never recorded)."""
        return self.layers.get(name, Layer())

    def open(self, name: str) -> None:
        """Start a span; it nests under the innermost open span."""
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self, failed: bool = False, tally: int = 0) -> None:
        """End the innermost span and fold it into its layer."""
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        layer.calls += 1
        layer.busy += duration
        layer.self_time += duration - child
        layer.failed += failed
        layer.tally += tally
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level += duration

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(failed=True)
            raise
        self.close()
        return result

    def wrap(self, obj, method: str, name: str, tally=None) -> None:
        """Time every call of ``obj.method`` under layer ``name``.

        ``tally(args, result)`` optionally returns a count added to the
        layer's tally after each successful call.
        """
        fn = getattr(obj, method)

        def timed(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(failed=True)
                raise
            self.close(tally=tally(args, result) if tally else 0)
            return result

        setattr(obj, method, timed)


def rows_in_first_arg(args, _result) -> int:
    """Tally for batch calls: the length of the first argument."""
    return len(args[0])


def wrap_pipeline(recorder: Recorder, pipeline, search, ocr) -> None:
    """Install spans on a pipeline and every collaborator it reaches.

    Layers: ``pipeline.*``, ``features.*``, ``ml.predict``,
    ``target.identify``, ``keyterms.extract``, ``search.*`` and
    ``ocr.read``.  ``search`` and ``ocr`` are the objects the target
    identifier was built with.
    """
    extractor = pipeline.detector.extractor
    identifier = pipeline.identifier
    recorder.wrap(pipeline, "analyze", "pipeline.analyze")
    recorder.wrap(pipeline, "analyze_batch", "pipeline.analyze_batch")
    recorder.wrap(pipeline, "analyze_many", "pipeline.analyze_many")
    recorder.wrap(
        extractor, "extract_from_sources", "features.extract",
        tally=lambda _args, _result: 1,
    )
    recorder.wrap(
        extractor, "extract_batch", "features.extract",
        tally=rows_in_first_arg,
    )
    recorder.wrap(
        pipeline.detector, "predict_proba", "ml.predict",
        tally=lambda args, _result: len(args[0]),
    )
    recorder.wrap(
        identifier, "identify", "target.identify",
        tally=lambda _args, result: int(
            result.verdict in ("phish", "legitimate")
        ),
    )
    recorder.wrap(
        identifier.keyterm_extractor, "extract", "keyterms.extract"
    )
    recorder.wrap(search, "query", "search.query")
    recorder.wrap(search, "result_rdns", "search.result_rdns")
    recorder.wrap(ocr, "read", "ocr.read")
