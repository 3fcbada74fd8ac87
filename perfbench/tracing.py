"""Out-of-program tracing for the served-survey benchmark.

Nothing under ``src/`` records these spans.  :class:`Tracer` patches
the public entry point of each layer (on its class, or in the module
that imported it by name) with a wrapper that records one
:class:`Span` per call: name, start, end, thread, and the enclosing
wrapped span *on the same thread*.  Spans stay in memory and are
written once, by :meth:`Tracer.write`, when the benchmark exits.

:class:`RecordingClock` is the one clock the benchmark hands to the
service stack and the latency-injecting LLM client.  While a tracer is
installed it sums each simulated sleep under the layer (``gsv`` or
``llm``) whose wrapper is running on the sleeping thread, which keeps
simulated network wait apart from the CPU work the program owns.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, TextIO

from repro.cascade.router import CascadeClassifier
from repro.core import pipeline
from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.core.voting import VotingEnsemble
from repro.detect.model import NanoDetector
from repro.geo import sampling
from repro.gsv.api import StreetViewClient
from repro.gsv.dataset import LabeledImage
from repro.parallel.aio import ThreadBridge
from repro.resilience.checkpoint import SurveyCheckpoint
from repro.resilience.clock import WallClock
from repro.service import daemon
from repro.service.daemon import SurveyService
from repro.service.store import JobStore

#: ``(span_id, thread_id)`` of the innermost open wrapped span.  A
#: context variable rather than a thread-local, so coroutines that
#: interleave on the event loop thread each keep their own nesting.
_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = (
    contextvars.ContextVar("perfbench_span", default=None)
)
#: Layer whose wrapper is running, for sleep attribution.
_LAYER: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_layer", default=None
)


class RecordingClock(WallClock):
    """A wall clock that sums its sleeps per layer while traced."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.slept_by_layer: Counter[str] = Counter()

    def sleep(self, seconds: float) -> None:
        layer = _LAYER.get()
        if layer is not None:
            with self._lock:
                self.slept_by_layer[layer] += seconds
        super().sleep(seconds)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    cpu_s: float | None = None
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install span-recording wrappers; restore the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        #: Survey reports returned by the engine entry points, for the
        #: pipeline and micro-batch provenance they carry.
        self.reports: list[Any] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def _open(self, layer: str | None):
        parent = _CURRENT.get()
        thread = threading.get_ident()
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, thread))
        layer_token = _LAYER.set(layer) if layer is not None else None
        parent_id = (
            parent[0] if parent is not None and parent[1] == thread else None
        )
        return span_id, thread, parent_id, token, layer_token

    def _close(self, name, opened, start, cpu_start, error) -> None:
        span_id, thread, parent_id, token, layer_token = opened
        end = time.perf_counter()
        cpu = time.thread_time() - cpu_start if cpu_start is not None else None
        _CURRENT.reset(token)
        if layer_token is not None:
            _LAYER.reset(layer_token)
        self.spans.append(
            Span(span_id, name, start, end, thread, parent_id, cpu, error)
        )

    def _wrap(self, fn, name, layer=None, cpu=False, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer._open(layer)
            cpu_start = time.thread_time() if cpu else None
            start = time.perf_counter()
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                tracer._close(name, opened, start, cpu_start, error)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_async(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened = tracer._open(None)
            start = time.perf_counter()
            error = True
            try:
                result = await fn(*args, **kwargs)
                error = False
            finally:
                tracer._close(name, opened, start, None, error)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_bridge_run(self, fn):
        """``ThreadBridge.run`` plus the wait until a pool thread starts."""
        tracer = self
        wrapped = self._wrap_async(fn, "aio.bridge")

        async def run(bridge, work: Callable[..., Any], *args: Any) -> Any:
            called = time.perf_counter()

            def timed() -> Any:
                tracer.add("aio.bridge.wait_s", time.perf_counter() - called)
                return work(*args)

            return await wrapped(bridge, timed)

        return functools.wraps(fn)(run)

    # -- patching -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> "Tracer":
        add = self.add
        timed = [
            (pipeline, "plan_survey_points", "geo.plan", {}),
            (sampling, "build_road_network", "geo.roadnet", {}),
            (
                sampling,
                "build_sampling_frame",
                "geo.frame",
                {"after": lambda a, r: add("geo.frame.points", len(r))},
            ),
            (StreetViewClient, "fetch_capture", "gsv.fetch", {"layer": "gsv"}),
            (LabeledImage, "render", "gsv.render", {}),
            (
                NanoDetector,
                "predict_cells_batch",
                "detect.predict",
                {
                    "cpu": True,
                    "after": lambda a, r: add("detect.predict.images", len(a[1])),
                },
            ),
            (
                LLMIndicatorClassifier,
                "classify_image",
                "llm.classify",
                {"layer": "llm", "cpu": True},
            ),
            (CascadeClassifier, "predict_location", "cascade.route", {}),
            (
                VotingEnsemble,
                "vote_image",
                "voting.vote",
                {
                    "after": lambda a, r: add(
                        "voting.members_skipped", len(r.members_skipped)
                    )
                },
            ),
            (
                SurveyCheckpoint,
                "record",
                "checkpoint.record",
                {
                    "after": lambda a, r: add(
                        "checkpoint.bytes_written", a[0].path.stat().st_size
                    )
                },
            ),
            (JobStore, "flush", "service.flush", {}),
            (JobStore, "write_report", "service.report_write", {}),
            (daemon, "canonical_fees_usd", "service.settle", {}),
        ]
        for owner, attr, name, options in timed:
            self._patch(
                owner, attr, functools.partial(self._wrap, name=name, **options)
            )
        keep_report = functools.partial(
            self._wrap_async,
            name="engine.survey",
            after=lambda a, r: self.reports.append(r),
        )
        self._patch(NeighborhoodDecoder, "survey_async", keep_report)
        self._patch(NeighborhoodDecoder, "survey_stream_async", keep_report)
        self._patch(
            SurveyService,
            "submit",
            functools.partial(self._wrap_async, name="service.submit"),
        )
        self._patch(ThreadBridge, "run", self._wrap_bridge_run)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            setattr(owner, attr, previous)

    # -- reading --------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy_s(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def cpu_s(self, name: str) -> float:
        return sum(span.cpu_s or 0.0 for span in self.named(name))

    def errors(self, name: str) -> int:
        return sum(span.error for span in self.named(name))

    def self_s(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what children cover.

        Children are wrapped spans whose parent is the span, on the
        same thread; overlapping children are counted once.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        total = 0.0
        for span in self.named(name):
            covered = 0.0
            reach = span.start
            for child in sorted(
                children.get(span.span_id, ()), key=lambda c: c.start
            ):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += span.duration - covered
        return total

    def write_spans(self, out: TextIO, round_index: int) -> None:
        """Write every span as one JSON line, tagged with its round."""
        for span in self.spans:
            out.write(
                json.dumps({"round": round_index, **asdict(span)}, sort_keys=True)
                + "\n"
            )
