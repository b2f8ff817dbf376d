"""The search kernel: one lifecycle, one RNG discipline, one trace.

Every engine in this reproduction — the baseline/guided generational GA,
the adaptive-confidence variant, the NSGA-II multi-objective search, and
the random-sampling baseline — is a thin strategy layered on the same
:class:`SearchKernel`. The kernel owns the three things the engines used to
re-implement independently:

* **Lifecycle** — the incremental ``start()`` / ``step()`` protocol the
  service scheduler interleaves, the ``finished`` / ``stop_reason`` state
  machine, and the documented stopping precedence (evaluation *budget*,
  then generation *horizon*, then *stall* patience — checked between
  generations, first match wins).

* **Named RNG streams** — :class:`RngStreams` hands each genetic concern
  (``init`` / ``selection`` / ``crossover`` / ``mutation``) a named
  ``random.Random``. In the default ``"shared"`` mode every name aliases
  one seeded generator, which is bit-identical to the single-RNG engines
  this kernel replaced (and to the paper's PyEvolve lineage); ``"split"``
  mode derives an independent stream per name from the one seed, so adding
  draws to one operator never perturbs another's sequence. Checkpoints
  capture every stream either way.

* **Structured trace** — every run emits :class:`RunEvent` records
  (``generation-start`` / ``eval-batch`` / ``operator-applied`` /
  ``best-improved`` / ``generation-end`` / ``stop``) through pluggable
  :class:`TraceSink`\\ s. The trace is the source of truth for run history:
  the per-generation :class:`GenerationRecord` list is a *derived view*
  over the ``generation-end`` events, and the service persists the same
  events per campaign as a JSONL log.

:class:`GenerationalEngine` specializes the kernel for population-based
searches (propose → evaluate → select survivors → record); concrete
engines only declare their operator pipeline and survivor rule.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..obs.attribution import summarize_generation
from ..obs.clock import DEFAULT_CLOCK
from ..obs.health import population_health
from ..obs.tracing import SpanRecorder
from .appendlog import AppendLog, scan
from .errors import NautilusError
from .evalstack import EvalStats, EvaluationStack
from .fitness import Objective
from .genome import Genome
from .guidance import GuidanceProvider, GuidanceState
from .selection import Individual

__all__ = [
    "RUN_EVENT_KINDS",
    "RunEvent",
    "TraceSink",
    "RecordingTraceSink",
    "JsonlTraceSink",
    "CappedJsonlTraceSink",
    "RunTrace",
    "RngStreams",
    "GenerationRecord",
    "SearchResult",
    "SearchKernel",
    "GenerationalEngine",
]

#: The event vocabulary every engine speaks. ``hint-attribution`` and
#: ``health`` are observability events (see :mod:`repro.obs`): emitted
#: once per generation when observability is enabled, derived purely from
#: already-computed state, and never consuming RNG draws.
RUN_EVENT_KINDS = (
    "generation-start",
    "generation-end",
    "eval-batch",
    "best-improved",
    "operator-applied",
    "hint-attribution",
    "health",
    "phase-budget",
    "stop",
)

#: Window (generations) over which the health event's convergence
#: velocity is measured.
_HEALTH_WINDOW = 8


# ---------------------------------------------------------------------------
# trace events and sinks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunEvent:
    """One structured trace event; ``payload`` is always JSON-serializable."""

    seq: int
    kind: str
    generation: int
    payload: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "generation": self.generation,
            **self.payload,
        }


class TraceSink:
    """Receives every emitted :class:`RunEvent`; subclass and override."""

    def emit(self, event: RunEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; emitting after close is a no-op."""


class RecordingTraceSink(TraceSink):
    """Keeps the last ``limit`` events in memory (None keeps everything)."""

    def __init__(self, limit: int | None = 100):
        self.limit = limit
        self._events: list[RunEvent] = []

    def emit(self, event: RunEvent) -> None:
        self._events.append(event)
        if self.limit is not None and len(self._events) > self.limit:
            del self._events[: len(self._events) - self.limit]

    def events(self, kind: str | None = None) -> list[RunEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]


class JsonlTraceSink(TraceSink):
    """Appends one JSON line per event — the service's per-campaign log.

    An :class:`~repro.core.appendlog.AppendLog`, opened lazily and appended
    to (a resumed campaign continues the log it left behind, after fencing
    off any torn final line); every event is written through at once, so a
    killed daemon loses at most the event being written.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._log = AppendLog(self.path)
        self._closed = False

    def emit(self, event: RunEvent) -> None:
        if not self._closed:
            self._log.append([event.as_dict()])

    def close(self) -> None:
        self._closed = True
        self._log.close()


class CappedJsonlTraceSink(JsonlTraceSink):
    """A :class:`JsonlTraceSink` that bounds the file's event count.

    Long campaigns would otherwise grow ``events.jsonl`` without bound.
    When the line count exceeds ``max_events`` (plus a small slack that
    amortizes the rewrite), the file is compacted to the first
    ``max_events // 2`` and last ``max_events - max_events // 2`` events
    with a marker line between them::

        {"kind": "trace-truncated", "generation": <g>, "dropped": <k>}

    ``dropped`` accumulates across compactions, so the marker always
    reports the total number of events removed from the middle. The
    marker's kind is deliberately *not* part of :data:`RUN_EVENT_KINDS` —
    it exists only in persisted logs, never in a live trace.
    """

    MARKER_KIND = "trace-truncated"

    def __init__(self, path: str | Path, max_events: int):
        super().__init__(path)
        if max_events < 4:
            raise NautilusError("trace_max_events must be >= 4")
        self.max_events = max_events
        self._slack = max(max_events // 4, 8)
        self._lines: int | None = None

    def emit(self, event: RunEvent) -> None:
        if self._closed:
            return
        if self._lines is None:
            existing = scan(self.path)
            self._lines = len(existing.rows) + existing.skipped
        super().emit(event)
        self._lines += 1
        if self._lines > self.max_events + self._slack:
            self._compact()

    def _compact(self) -> None:
        rows = []
        prior_dropped = 0
        for payload in scan(self.path).rows:
            if payload.get("kind") == self.MARKER_KIND:
                prior_dropped += int(payload.get("dropped", 0))
            else:
                rows.append(payload)
        head_n = self.max_events // 2
        head = rows[:head_n]
        if len(rows) <= self.max_events:
            # Nothing new to drop (e.g. torn lines inflated the count);
            # keep every row, preserving any accumulated marker.
            tail, generation = rows[head_n:], 0
        else:
            tail = rows[len(rows) - (self.max_events - head_n):]
            generation = tail[0].get("generation", 0)
        dropped = prior_dropped + len(rows) - len(head) - len(tail)
        marker = (
            [{"kind": self.MARKER_KIND, "generation": generation, "dropped": dropped}]
            if dropped
            else []
        )
        self._log.rewrite([*head, *marker, *tail])
        self._lines = len(head) + len(marker) + len(tail)


class RunTrace:
    """The in-memory event stream of one search run.

    Owns the monotonically increasing sequence numbers, fans events out to
    attached sinks, and aggregates per-operator call counts and wall time
    from ``operator-applied`` events (surfaced by ``/metrics`` and
    ``nautilus status``).
    """

    def __init__(self, sinks: Sequence[TraceSink] = ()):
        self.events: list[RunEvent] = []
        self._sinks: list[TraceSink] = list(sinks)
        self._seq = 0
        self._operators: dict[str, dict[str, float]] = {}

    def attach(self, sink: TraceSink) -> None:
        self._sinks.append(sink)

    def emit(
        self,
        kind: str,
        generation: int,
        payload: dict[str, Any] | None = None,
        notify: bool = True,
    ) -> RunEvent:
        """Record one event; ``notify=False`` keeps replays out of sinks."""
        if kind not in RUN_EVENT_KINDS:
            raise NautilusError(f"unknown run-event kind {kind!r}")
        event = RunEvent(self._seq, kind, generation, dict(payload or {}))
        self._seq += 1
        self.events.append(event)
        if kind == "operator-applied":
            totals = self._operators.setdefault(
                str(event.payload.get("operator", "?")),
                {"calls": 0, "time_s": 0.0},
            )
            totals["calls"] += int(event.payload.get("calls", 0))
            totals["time_s"] += float(event.payload.get("time_s", 0.0))
        if notify:
            for sink in self._sinks:
                sink.emit(event)
        return event

    def operator_timings(self) -> dict[str, dict[str, float]]:
        """Cumulative {operator: {calls, time_s}} over the whole run."""
        return {name: dict(totals) for name, totals in self._operators.items()}


# ---------------------------------------------------------------------------
# named RNG streams
# ---------------------------------------------------------------------------


def _rng_state_to_json(state) -> list:
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(payload) -> tuple:
    version, internal, gauss = payload
    return (version, tuple(internal), gauss)


class RngStreams:
    """Named ``random.Random`` streams for the genetic concerns of a search.

    ``"shared"`` mode (the default): every name aliases one generator seeded
    with the configured seed — the draw sequence is bit-identical to the
    single-RNG engines the kernel replaced, which is what the engine-parity
    CI job pins. ``"split"`` mode derives an independent stream per name
    from the same seed (``Random(f"{seed}:{name}")``), so an operator that
    starts consuming more randomness never shifts another operator's
    sequence. A seed of ``0`` is a real seed in both modes — only ``None``
    draws from the entropy pool.
    """

    NAMES = ("init", "selection", "crossover", "mutation")

    def __init__(self, seed: int | None = None, split: bool = False):
        self.split = split
        if split:
            self._streams = {
                name: random.Random(None if seed is None else f"{seed}:{name}")
                for name in self.NAMES
            }
        else:
            master = random.Random(seed)
            self._streams = {name: master for name in self.NAMES}

    # -- access -----------------------------------------------------------------

    def stream(self, name: str) -> random.Random:
        try:
            return self._streams[name]
        except KeyError:
            raise NautilusError(f"unknown RNG stream {name!r}") from None

    @property
    def init(self) -> random.Random:
        return self._streams["init"]

    @property
    def selection(self) -> random.Random:
        return self._streams["selection"]

    @property
    def crossover(self) -> random.Random:
        return self._streams["crossover"]

    @property
    def mutation(self) -> random.Random:
        return self._streams["mutation"]

    # -- checkpointing ----------------------------------------------------------

    def getstate(self) -> dict[str, Any]:
        """JSON-serializable snapshot of every stream."""
        if self.split:
            streams = {
                name: _rng_state_to_json(rng.getstate())
                for name, rng in self._streams.items()
            }
            return {"mode": "split", "streams": streams}
        return {
            "mode": "shared",
            "streams": {
                "shared": _rng_state_to_json(self._streams["init"].getstate())
            },
        }

    def setstate(self, payload: dict[str, Any]) -> None:
        mode = payload.get("mode")
        if mode not in ("shared", "split"):
            raise NautilusError(f"unknown RNG-stream mode {mode!r}")
        if (mode == "split") != self.split:
            raise NautilusError(
                f"checkpoint was taken in {mode!r} RNG mode, this search is "
                f"configured for {'split' if self.split else 'shared'!r}"
            )
        if self.split:
            for name in self.NAMES:
                self._streams[name].setstate(
                    _rng_state_from_json(payload["streams"][name])
                )
        else:
            self._streams["init"].setstate(
                _rng_state_from_json(payload["streams"]["shared"])
            )

    @classmethod
    def from_state(cls, payload: dict[str, Any]) -> "RngStreams":
        streams = cls(seed=0, split=payload.get("mode") == "split")
        streams.setstate(payload)
        return streams


# ---------------------------------------------------------------------------
# run history: records derived from the trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationRecord:
    """Snapshot of the search state after one generation.

    Records are a derived view: the kernel emits a ``generation-end`` trace
    event per generation and :attr:`SearchKernel.records` projects these
    fields back out of the event payloads.
    """

    generation: int
    best_raw: float
    best_score: float
    mean_score: float
    distinct_evaluations: int
    best_config: dict[str, Any] = field(repr=False, default_factory=dict)


_RECORD_FIELDS = (
    "generation",
    "best_raw",
    "best_score",
    "mean_score",
    "distinct_evaluations",
    "best_config",
)


class SearchResult:
    """The outcome of one search run.

    The result exposes the two quantities the paper evaluates on (Section 2,
    "Evaluating GAs"): quality of results (best raw metric) and runtime
    measured as the number of distinct designs evaluated.

    ``stop_reason`` records why the search ended: ``"horizon"`` (configured
    generations exhausted), ``"budget"`` (``max_evaluations`` reached),
    ``"stall"`` (``stall_generations`` without improvement), ``"exhausted"``
    (random search ran out of unseen feasible points), or ``"cancelled"``
    (an incremental search was finalized before any cutoff fired).
    """

    def __init__(
        self,
        objective: Objective,
        records: Sequence[GenerationRecord],
        best: Individual,
        distinct_evaluations: int,
        label: str = "",
        stop_reason: str = "horizon",
        eval_stats: EvalStats | None = None,
        events: Sequence[RunEvent] | None = None,
    ):
        self.objective = objective
        self.records = list(records)
        self.best = best
        self.distinct_evaluations = distinct_evaluations
        self.label = label
        self.stop_reason = stop_reason
        #: Full evaluation-pipeline counters/timers at result time (cache
        #: hits by layer, batch sizes, backend wall time, infeasible rate).
        self.eval_stats = eval_stats or EvalStats()
        #: The structured trace of the run (empty for hand-built results).
        self.events = list(events or ())

    @property
    def best_raw(self) -> float:
        """Best raw objective value found."""
        return self.best.raw

    @property
    def best_config(self) -> dict[str, Any]:
        """Parameter assignment of the best design found."""
        return self.best.genome.as_dict()

    def curve(self) -> list[tuple[int, float]]:
        """(distinct evals, best raw so far) after each generation."""
        return [(r.distinct_evaluations, r.best_raw) for r in self.records]

    def generation_curve(self) -> list[tuple[int, float]]:
        """(generation, best raw so far) pairs."""
        return [(r.generation, r.best_raw) for r in self.records]

    def operator_timings(self) -> dict[str, dict[str, float]]:
        """{operator: {calls, time_s}} aggregated from the run's trace."""
        totals: dict[str, dict[str, float]] = {}
        for event in self.events:
            if event.kind != "operator-applied":
                continue
            entry = totals.setdefault(
                str(event.payload.get("operator", "?")),
                {"calls": 0, "time_s": 0.0},
            )
            entry["calls"] += int(event.payload.get("calls", 0))
            entry["time_s"] += float(event.payload.get("time_s", 0.0))
        return totals

    def evals_to_reach(self, threshold: float) -> int | None:
        """Distinct evaluations needed to first reach a raw-metric threshold.

        Returns ``None`` if the run never reached it. Direction comes from
        the objective (>= threshold for max, <= for min).
        """
        for record in self.records:
            if math.isnan(record.best_raw):
                continue
            reached = (
                record.best_raw >= threshold
                if self.objective.maximizing
                else record.best_raw <= threshold
            )
            if reached:
                return record.distinct_evaluations
        return None

    def generations_to_reach(self, threshold: float) -> int | None:
        """Generations needed to first reach a raw-metric threshold."""
        for record in self.records:
            if math.isnan(record.best_raw):
                continue
            reached = (
                record.best_raw >= threshold
                if self.objective.maximizing
                else record.best_raw <= threshold
            )
            if reached:
                return record.generation
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchResult({self.label or self.objective.name}: "
            f"best={self.best_raw:.4g} after {self.distinct_evaluations} evals)"
        )


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


class SearchKernel:
    """Shared lifecycle, RNG streams, and trace for every search engine.

    Subclasses implement :meth:`_do_start` and :meth:`_do_step`; the kernel
    wraps them with the start/step guards, the stopping-cutoff precedence
    (budget → horizon → stall, checked between generations), stop-reason
    bookkeeping, and trace emission. Cutoffs a subclass leaves as ``None``
    never fire, so an engine with its own stopping rule (the random
    baseline's draw budget) simply finishes itself via :meth:`_finish`.
    """

    def __init__(
        self,
        space,
        evaluator,
        objective: Objective,
        label: str = "",
        seed: int | None = None,
        max_evaluations: int | None = None,
        horizon: int | None = None,
        stall_generations: int | None = None,
        split_rngs: bool = False,
        sinks: Sequence[TraceSink] = (),
        observability: bool = True,
        tracing: bool = False,
        clock: Callable[[], float] | None = None,
    ):
        self.space = space
        self.objective = objective
        self.label = label
        self.seed = seed
        self.max_evaluations = max_evaluations
        self.horizon = horizon
        self.stall_generations = stall_generations
        self.split_rngs = split_rngs
        #: Whether the kernel emits ``hint-attribution`` / ``health``
        #: events. Purely additive telemetry: enabling it consumes no RNG
        #: draws, so seeded runs are bit-identical either way (the
        #: engine-parity CI job asserts this).
        self.observability = observability
        #: Whether the kernel records a span tree (see
        #: :mod:`repro.obs.tracing`). Same contract as observability:
        #: tracing consumes zero RNG draws (span ids are counters), so
        #: seeded runs stay bit-identical with it on or off.
        self.tracing = tracing
        #: The injectable time source every timed path below shares —
        #: operator timing, span boundaries, eval wall-clock. Tests pass
        #: a FakeClock; production uses DEFAULT_CLOCK (perf_counter).
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        self._tracer = SpanRecorder(clock=self._clock) if tracing else None
        self._run_span = None
        self._eval_phase = None
        #: The most recent ``health`` event payload (``None`` until one
        #: is emitted); surfaced by campaign status and ``nautilus top``.
        self.latest_health: dict[str, Any] | None = None
        self._counter = EvaluationStack.wrap(evaluator)
        self._trace = RunTrace(sinks)
        #: The guidance provider steering this search (None for unguided
        #: engines) and the per-generation state it last produced. The
        #: kernel owns the provider's lifecycle: ``start()`` at generation
        #: 0, one ``advance()`` per subsequent generation, and checkpoint
        #: save/restore of its mutable state.
        self._guidance: GuidanceProvider | None = None
        self._guidance_state: GuidanceState | None = None
        self._rngs: RngStreams | None = None
        self._population: list = []
        self._best = None
        self._generation = 0
        self._stalled_generations = 0
        self._stop_reason: str | None = None
        self._best_window: deque[float] = deque(maxlen=_HEALTH_WINDOW)
        self._last_batch: tuple[int, int] = (0, 0)

    # -- shared state surface ----------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has been called."""
        return self._rngs is not None

    @property
    def finished(self) -> bool:
        """Whether a stopping cutoff has fired (see :meth:`step`)."""
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> str | None:
        """Why the search stopped, or ``None`` while it can still step."""
        return self._stop_reason

    @property
    def generation(self) -> int:
        """Index of the last completed generation (0 after :meth:`start`)."""
        return self._generation

    @property
    def distinct_evaluations(self) -> int:
        """Distinct designs evaluated so far (synthesis jobs paid)."""
        return self._counter.distinct_evaluations

    @property
    def best_score(self) -> float | None:
        """Best internal score so far, or ``None`` before any evaluation."""
        if self._best is None:
            return None
        return self._best.score

    @property
    def stack(self) -> EvaluationStack:
        """The evaluation stack this search charges its synthesis jobs to."""
        return self._counter

    def eval_stats(self) -> EvalStats:
        """Snapshot of the evaluation pipeline's counters and timers."""
        return self._counter.stats()

    @property
    def guidance(self) -> GuidanceProvider | None:
        """The guidance provider steering this search, if any."""
        return self._guidance

    @property
    def guidance_state(self) -> GuidanceState | None:
        """The guidance state in force for the current generation."""
        return self._guidance_state

    @property
    def rngs(self) -> RngStreams:
        """The named RNG streams (available once started)."""
        if self._rngs is None:
            raise NautilusError("search has not started")
        return self._rngs

    @property
    def records(self) -> list[GenerationRecord]:
        """Per-generation records, derived from ``generation-end`` events."""
        return [
            GenerationRecord(**{f: e.payload[f] for f in _RECORD_FIELDS})
            for e in self._trace.events
            if e.kind == "generation-end"
        ]

    @property
    def trace_events(self) -> list[RunEvent]:
        """Every event emitted so far (copy)."""
        return list(self._trace.events)

    def attach_sink(self, sink: TraceSink) -> None:
        """Subscribe a sink to every event emitted from now on."""
        self._trace.attach(sink)

    def operator_timings(self) -> dict[str, dict[str, float]]:
        """Cumulative per-operator call counts and wall time."""
        return self._trace.operator_timings()

    @property
    def tracer(self) -> SpanRecorder | None:
        """The span recorder, or ``None`` when tracing is off."""
        return self._tracer

    def spans(self) -> list[dict[str, Any]]:
        """Every span recorded so far as JSON-ready dicts (empty when
        tracing is off)."""
        if self._tracer is None:
            return []
        return self._tracer.export()

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Initialize the run; returns the generation-0 record (or ``None``
        for engines without one, like the random baseline)."""
        if self.started:
            raise NautilusError("search already started")
        self._rngs = RngStreams(self.seed, split=self.split_rngs)
        if self._tracer is not None:
            self._run_span = self._tracer.begin(
                "run", label=self.label, seed=self.seed
            )
        return self._do_start()

    def step(self):
        """Advance one generation; return its record, or ``None`` when done.

        Cutoffs are checked on entry, in the documented precedence order
        (budget, horizon, stall): the step *after* the generation that
        triggered a cutoff returns ``None`` and pins :attr:`stop_reason`.
        """
        if not self.started:
            raise NautilusError("call start() before step()")
        if self.finished:
            return None
        reason = self._cutoff()
        if reason is not None:
            self._finish(reason)
            return None
        return self._do_step()

    def run(self) -> SearchResult:
        """Run until a cutoff fires and return the result.

        Thin loop over :meth:`start` / :meth:`step` — stepping incrementally
        yields exactly this result.
        """
        if not self.started:
            self.start()
        while self.step() is not None:
            pass
        return self.result()

    def stop(self, reason: str = "cancelled") -> None:
        """Pin a terminal stop reason (no-op if a cutoff already fired)."""
        if not self.finished:
            self._finish(reason)

    def result(self) -> SearchResult:
        """Package the search state reached so far into a :class:`SearchResult`.

        Callable at any point after :meth:`start` — a scheduler that cancels
        a campaign mid-flight still gets the best-so-far and its curve. A
        result taken before any cutoff fired reports ``"cancelled"``.
        """
        if self._best is None:
            raise NautilusError("search has not started")
        return SearchResult(
            self.objective,
            self.records,
            self._best,
            self._counter.distinct_evaluations,
            label=self.label,
            stop_reason=self._stop_reason or "cancelled",
            eval_stats=self._counter.stats(),
            events=self.trace_events,
        )

    # -- kernel plumbing ---------------------------------------------------------

    def _cutoff(self) -> str | None:
        """First stopping cutoff due, in the documented precedence order."""
        if (
            self.max_evaluations is not None
            and self._counter.distinct_evaluations >= self.max_evaluations
        ):
            return "budget"
        if self.horizon is not None and self._generation >= self.horizon:
            return "horizon"
        if (
            self.stall_generations is not None
            and self._stalled_generations >= self.stall_generations
        ):
            return "stall"
        return None

    def _finish(self, reason: str) -> None:
        self._stop_reason = reason
        self._trace.emit("stop", self._generation, {"reason": reason})
        if self._tracer is not None and self._run_span is not None:
            self._tracer.end(
                self._run_span, generations=self._generation, stop_reason=reason
            )
        self._on_finish(reason)

    def _push_record(self, record: GenerationRecord) -> GenerationRecord:
        """Emit the generation-end event the record is derived from."""
        self._trace.emit(
            "generation-end",
            record.generation,
            {f: getattr(record, f) for f in _RECORD_FIELDS},
        )
        return record

    def _replay_record(self, payload: dict[str, Any]) -> None:
        """Re-seed the trace with a checkpointed generation (sinks skipped)."""
        self._trace.emit(
            "generation-end",
            int(payload["generation"]),
            {f: payload[f] for f in _RECORD_FIELDS},
            notify=False,
        )

    # -- engine hooks ------------------------------------------------------------

    def _do_start(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _do_step(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _after_generation(self, record: GenerationRecord) -> None:
        """Hook invoked after each completed generation (subclass seam)."""

    def _on_finish(self, reason: str) -> None:
        """Hook invoked exactly once when a stopping cutoff fires."""


class GenerationalEngine(SearchKernel):
    """A kernel specialization for population-based generational searches.

    The loop is fixed — propose offspring through an operator pipeline,
    evaluate them as one batch, pick survivors, observe progress, record —
    and each stage is a hook: :meth:`_initial_genomes`,
    :meth:`_propose`, :meth:`_to_individuals`, :meth:`_survivors`,
    :meth:`_observe_start` / :meth:`_observe`, and :meth:`_make_record`.
    """

    def _do_start(self) -> GenerationRecord:
        tr = self._tracer
        gen_span = (
            tr.begin("generation", parent=self._run_span, generation=0)
            if tr is not None
            else None
        )
        self._trace.emit("generation-start", 0)
        self._guidance_state = (
            self._guidance.start()
            if self._guidance is not None
            else GuidanceState.neutral(0)
        )
        t0 = self._clock()
        genomes = self._initial_genomes()
        t1 = self._clock()
        self._trace.emit(
            "operator-applied",
            0,
            {"operator": "init", "calls": len(genomes), "time_s": t1 - t0},
        )
        if tr is not None:
            # Phase spans tile the generation window edge to edge via
            # shared boundary timestamps, so the phase budget covers the
            # wall-clock by construction (the "init" segment absorbs
            # guidance start and event emission alongside sampling).
            tr.record("phase", gen_span.start_s, t1, parent=gen_span, phase="init")
            self._eval_phase = tr.begin(
                "phase", parent=gen_span, at=t1, phase="evaluate"
            )
        self._population = self._assess_population(genomes, 0)
        if tr is not None:
            b2 = self._clock()
            tr.end(self._eval_phase, at=b2)
            self._eval_phase = None
        self._generation = 0
        self._observe_start()
        record = self._make_record(0)
        self._best_window.append(record.best_score)
        self._emit_health(0)
        self._push_record(record)
        if tr is not None:
            b3 = self._clock()
            tr.record("phase", b2, b3, parent=gen_span, phase="observe")
            tr.end(gen_span, at=b3)
            self._emit_phase_budget(0, gen_span)
        return record

    def _do_step(self) -> GenerationRecord:
        generation = self._generation + 1
        tr = self._tracer
        gen_span = (
            tr.begin("generation", parent=self._run_span, generation=generation)
            if tr is not None
            else None
        )
        self._trace.emit("generation-start", generation)
        # The kernel — not the engines — advances guidance: exactly one
        # provider step per generation, fed the population's best score
        # before breeding (what the adaptive controller watches).
        self._guidance_state = (
            self._guidance.advance(generation, self._guidance_feedback())
            if self._guidance is not None
            else GuidanceState.neutral(generation)
        )
        timings: dict[str, list[float]] = {}
        genomes = self._propose(generation, timings)
        for operator, (calls, time_s) in timings.items():
            self._trace.emit(
                "operator-applied",
                generation,
                {"operator": operator, "calls": int(calls), "time_s": time_s},
            )
        if tr is not None:
            b1 = self._clock()
            self._record_breed_phases(gen_span, gen_span.start_s, b1, timings)
            self._eval_phase = tr.begin(
                "phase", parent=gen_span, at=b1, phase="evaluate"
            )
        offspring = self._assess_population(genomes, generation)
        if tr is not None:
            b2 = self._clock()
            tr.end(self._eval_phase, at=b2)
            self._eval_phase = None
        self._emit_attribution(generation, offspring)
        self._population = self._survivors(offspring)
        improved = self._observe(generation)
        if improved:
            self._stalled_generations = 0
        else:
            self._stalled_generations += 1
        self._generation = generation
        record = self._make_record(generation)
        if improved:
            self._trace.emit(
                "best-improved",
                generation,
                {"best_raw": record.best_raw, "best_score": record.best_score},
            )
        self._best_window.append(record.best_score)
        self._emit_health(generation)
        self._push_record(record)
        if tr is not None:
            b3 = self._clock()
            tr.record("phase", b2, b3, parent=gen_span, phase="observe")
        self._after_generation(record)
        if tr is not None:
            b4 = self._clock()
            tr.record("phase", b3, b4, parent=gen_span, phase="checkpoint")
            tr.end(gen_span, at=b4)
            self._emit_phase_budget(generation, gen_span)
        return record

    def _assess_population(self, genomes: Sequence[Genome], generation: int):
        """Score a whole generation through the stack's batch primitive.

        When the evaluator exposes a parallel backend the generation's new
        designs are evaluated concurrently — the population-sized
        parallelism the paper's Section 2 discusses. Results are identical
        to the sequential path. Emits one ``eval-batch`` event per batch;
        with tracing on, also one ``eval-batch`` span (under the evaluate
        phase) carrying per-task child spans stitched from the fleet.
        """
        tr = self._tracer
        batch_span = None
        if tr is not None:
            batch_span = tr.begin(
                "eval-batch", parent=self._eval_phase, size=len(genomes)
            )
            # Hand the span context to the evaluation stack so the fleet
            # backend can propagate it through the protocol frames (local
            # backends have no hook and simply ignore it).
            push = getattr(self._counter, "push_trace_context", None)
            if push is not None:
                push({"trace": tr.trace_id, "parent": batch_span.span_id})
        before = self._counter.stats()
        outcomes = self._counter.evaluate_many(genomes)
        delta = self._counter.stats().minus(before)
        self._last_batch = (len(genomes), delta.infeasible)
        payload = {
            "size": len(genomes),
            "distinct": delta.distinct,
            "cache_hits": delta.cache_hits,
            "infeasible": delta.infeasible,
            "wall_time_s": delta.wall_time_s,
        }
        # Backend-specific annotations (e.g. which fleet workers served the
        # batch); local backends return None and the payload is unchanged.
        annotate = getattr(self._counter, "pop_annotations", None)
        if annotate is not None:
            extra = annotate()
            if extra:
                payload.update(extra)
        self._trace.emit("eval-batch", generation, payload)
        if tr is not None:
            tr.end(
                batch_span,
                distinct=delta.distinct,
                cache_hits=delta.cache_hits,
                infeasible=delta.infeasible,
            )
            self._materialize_eval_spans(batch_span)
        return self._to_individuals(genomes, outcomes)

    # -- tracing (see repro.obs.tracing; zero RNG draws by construction) ---------

    #: Trace phase label per operator-timing key.
    _PHASE_LABELS = {
        "selection": "select",
        "crossover": "crossover",
        "mutation": "mutate",
    }

    def _record_breed_phases(
        self,
        gen_span,
        start_s: float,
        end_s: float,
        timings: dict[str, list[float]],
    ) -> None:
        """Tile the breeding window into select/crossover/mutate phases.

        The window (generation start → evaluation start) also contains
        guidance advance and event emission; the operator timings say how
        breeding time split between operators, so the window is divided
        *proportionally* to those measurements. This keeps the phase
        partition gap-free (coverage stays ~1.0) while still reflecting
        the measured operator balance.
        """
        weights = [
            (self._PHASE_LABELS.get(op, op), max(float(t[1]), 0.0))
            for op, t in sorted(timings.items())
        ]
        total = sum(w for _, w in weights)
        window = end_s - start_s
        if total <= 0 or window <= 0:
            self._tracer.record(
                "phase", start_s, end_s, parent=gen_span, phase="select"
            )
            return
        edge = start_s
        for i, (label, weight) in enumerate(weights):
            nxt = end_s if i == len(weights) - 1 else edge + window * (weight / total)
            self._tracer.record("phase", edge, nxt, parent=gen_span, phase=label)
            edge = nxt

    def _emit_phase_budget(self, generation: int, gen_span) -> None:
        """One ``phase-budget`` event (and Prometheus observation) per
        generation: where its wall-clock went, by phase."""
        phases: dict[str, float] = {}
        for span in self._tracer.spans():
            if span.parent_id == gen_span.span_id and span.name == "phase":
                label = str(span.attrs.get("phase", "?"))
                phases[label] = phases.get(label, 0.0) + (span.duration_s or 0.0)
        wall = gen_span.duration_s or 0.0
        payload = {
            "phases": phases,
            "wall_time_s": wall,
            "coverage": (sum(phases.values()) / wall) if wall > 0 else 1.0,
        }
        self._trace.emit("phase-budget", generation, payload)
        registry = getattr(self._counter, "registry", None)
        if registry is not None:
            histogram = registry.histogram(
                "nautilus_phase_seconds",
                "Wall-clock seconds per generation phase.",
                labelnames=("phase",),
            )
            for label, seconds in phases.items():
                histogram.observe(seconds, phase=label)

    def _materialize_eval_spans(self, batch_span) -> None:
        """Stitch fleet task timelines and cache writes into the batch span.

        The coordinator reports each task's dispatch/retry/completion as
        *offsets relative to batch submission* (worker and coordinator
        clocks share no epoch with ours); anchoring those offsets at the
        batch span's start and clamping into its window guarantees child
        durations never exceed their parent. Retries and first-result-wins
        duplicates become children/attributes of the one owning task span.
        """
        tr = self._tracer
        lo, hi = batch_span.start_s, batch_span.end_s

        def _at(offset) -> float:
            return min(max(lo + float(offset), lo), hi)

        pop_traces = getattr(self._counter, "pop_task_traces", None)
        for trace in pop_traces() if pop_traces is not None else ():
            events = trace.get("events") or []
            first = events[0]["offset_s"] if events else 0.0
            last = events[-1]["offset_s"] if events else 0.0
            task_span = tr.record(
                "task",
                _at(first),
                _at(last),
                parent=batch_span,
                task=trace.get("task", ""),
                worker=trace.get("worker", ""),
                attempts=int(trace.get("attempts", 1)),
                duplicate_results=int(trace.get("duplicates", 0)),
            )
            for i, event in enumerate(events):
                kind = event.get("event")
                start = _at(event.get("offset_s", 0.0))
                nxt = (
                    _at(events[i + 1].get("offset_s", 0.0))
                    if i + 1 < len(events)
                    else task_span.end_s
                )
                if kind == "dispatch":
                    tr.record(
                        "dispatch", start, nxt, parent=task_span,
                        worker=event.get("worker", ""),
                    )
                elif kind == "retry":
                    tr.record(
                        "retry", start, nxt, parent=task_span,
                        worker=event.get("worker", ""),
                        reason=event.get("reason", ""),
                    )
                elif kind == "done":
                    exec_s = float(event.get("exec_s", 0.0))
                    tr.record(
                        "worker-exec",
                        max(start - exec_s, lo),
                        start,
                        parent=task_span,
                        worker=event.get("worker", ""),
                        queue_s=float(event.get("queue_s", 0.0)),
                        exec_s=exec_s,
                    )
        pop_writes = getattr(self._counter, "pop_cache_writes", None)
        for write in pop_writes() if pop_writes is not None else ():
            duration = max(float(write.get("duration_s", 0.0)), 0.0)
            tr.record(
                "cache-write",
                max(hi - duration, lo),
                hi,
                parent=batch_span,
                entries=int(write.get("entries", 0)),
            )

    # -- observability (see repro.obs; read-only w.r.t. the RNG streams) ---------

    def _emit_attribution(self, generation: int, offspring: Sequence[Any]) -> None:
        """One ``hint-attribution`` event joining breeding provenance with
        the offspring's freshly computed scores."""
        observer = self._breeding_observer()
        if observer is None or not self.observability:
            return
        children = observer.drain()
        confidence, hinted, importance = self._attribution_context(generation)
        payload = summarize_generation(
            children,
            self._offspring_attribution(offspring),
            confidence=confidence,
            hinted=hinted,
            effective_importance=importance,
        )
        if payload is not None:
            self._trace.emit("hint-attribution", generation, payload)

    def _emit_health(self, generation: int) -> None:
        """One ``health`` event summarizing the surviving population."""
        if not self.observability or not self._population:
            return
        batch_size, batch_infeasible = self._last_batch
        payload = population_health(
            [getattr(ind, "genome", ind) for ind in self._population],
            cardinalities={p.name: p.cardinality for p in self.space.params},
            best_history=list(self._best_window),
            stalled_generations=self._stalled_generations,
            stall_patience=self.stall_generations,
            batch_size=batch_size,
            batch_infeasible=batch_infeasible,
        )
        self.latest_health = payload
        self._trace.emit("health", generation, payload)

    def _breeding_observer(self):
        """The engine's breeding observer, when attribution is wired up."""
        operators = getattr(self, "operators", None)
        return getattr(operators, "observer", None)

    def _offspring_attribution(
        self, offspring: Sequence[Any]
    ) -> list[tuple[float, bool]]:
        """Aligned ``(score, feasible)`` per *bred* child, breeding order."""
        return []

    def _attribution_context(
        self, generation: int
    ) -> tuple[float, bool, dict[str, float]]:
        """(confidence, hinted, effective importance) for the event.

        Read straight off the generation's :class:`GuidanceState` — the
        same channel provenance the operators acted on — rather than
        recomputed from a hint set.
        """
        state = self._guidance_state
        if state is None or state.hints is None:
            return 0.0, False, {}
        return state.confidence, True, dict(state.effective_importance)

    # -- hooks -------------------------------------------------------------------

    def _guidance_feedback(self) -> float | None:
        """Best score of the incoming population, fed to the provider's
        ``advance``; None when the engine has no scalar notion of best."""
        return None

    def _initial_genomes(self) -> list[Genome]:
        """The generation-0 population (draws from the ``init`` stream)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _propose(
        self, generation: int, timings: dict[str, list[float]]
    ) -> list[Genome]:
        """Breed the next generation's genomes (per-operator timings out)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _to_individuals(self, genomes: Sequence[Genome], outcomes: Sequence[Any]):
        """Convert raw evaluation outcomes into the engine's individuals.

        Engines may return any sequence; single-objective engines return a
        columnar :class:`~repro.core.population.Population` so the selection
        strategies can read cached score columns in the breeding hot loop.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def _survivors(self, offspring):
        """Environmental selection: the population after this generation."""
        return offspring

    def _observe_start(self) -> None:
        """Initialize best-so-far tracking from the initial population."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _observe(self, generation: int) -> bool:
        """Update best-so-far from the new population; True if improved."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _make_record(self, generation: int) -> GenerationRecord:
        """Summarize the current population into a record."""
        raise NotImplementedError  # pragma: no cover - abstract
