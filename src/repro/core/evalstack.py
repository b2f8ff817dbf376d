"""The unified evaluation stack — every fitness score flows through here.

The paper's entire cost model is the evaluation: each fitness score
"requires running computationally expensive CAD tools ... and/or
simulations", so a search is judged by the number of distinct synthesis
jobs it pays for. This module makes that critical path *one* composable
pipeline instead of four divergent implementations::

    EvaluationStack.evaluate_many(genomes)
        │
        ▼
    MemoCache          in-memory key → outcome; revisits are free
        │ misses
        ▼
    ArchiveTap         optional pure observer feeding the cross-campaign
        │              design archive (repro.archive) — see every memo miss
        ▼
    PersistentCache    optional on-disk JSON-lines, shared across
        │ misses       campaigns/processes/daemon restarts
        ▼
    Batcher            coalesces duplicate keys within one batch
        │ unique
        ▼
    Instrumentation    charges distinct evaluations, times the backend,
        │              counts infeasible results and batch sizes
        ▼
    Backend            inline | thread pool | process pool — the layer
                       that actually runs the inner evaluator

``evaluate_many`` is the primitive; ``evaluate`` is a batch of one. Every
layer preserves submission order and returns one outcome (a metrics dict or
the exception the evaluation raised) per genome, so batch and serial paths
are bit-identical — the engines rely on this for seeded reproducibility.

Accounting invariant::

    total_requests == distinct_evaluations + memo_hits
                      + persistent_hits + batch_dedup_hits

``cache_hits`` (requests that did not pay for a backend execution) is the
derived ``total_requests - distinct_evaluations``.
"""

from __future__ import annotations

import copy
import hashlib
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterator, Sequence, TYPE_CHECKING

from .appendlog import AppendLog, scan
from .errors import InfeasibleDesignError, NautilusError
from .fitness import Metrics
from .genome import Genome
from .params import values_key

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Evaluator
    from .space import DesignSpace

__all__ = [
    "EvalStats",
    "EvaluationStack",
    "PersistentCache",
    "evaluator_fingerprint",
]

#: An evaluation outcome: the metrics dict, or the exception the run raised.
Outcome = Any

_BACKENDS = ("auto", "inline", "thread", "process", "fleet")

#: Keys every persistent-cache row carries; rows without them are skipped.
_ROW_KEYS = ("values", "metrics")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalStats:
    """One consistent snapshot of every counter/timer in a stack.

    All counters are cumulative since stack construction; subtract two
    snapshots with :meth:`minus` to get the delta over an interval (the
    service scheduler does this once per generation step).
    """

    requests: int = 0
    distinct: int = 0
    memo_hits: int = 0
    persistent_hits: int = 0
    batch_dedup_hits: int = 0
    batches: int = 0
    max_batch: int = 0
    infeasible: int = 0
    errors: int = 0
    backend_time_s: float = 0.0
    wall_time_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        """Requests that did not pay for a backend execution."""
        return self.requests - self.distinct

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def persistent_hit_rate(self) -> float:
        return self.persistent_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch(self) -> float:
        return self.distinct / self.batches if self.batches else 0.0

    @property
    def infeasible_rate(self) -> float:
        """Fraction of paid evaluations that came back unbuildable."""
        return self.infeasible / self.distinct if self.distinct else 0.0

    def minus(self, other: "EvalStats") -> "EvalStats":
        """Per-field delta ``self - other`` (``max_batch`` keeps the max)."""
        values = {
            f.name: getattr(self, f.name) - getattr(other, f.name)
            for f in fields(self)
        }
        values["max_batch"] = self.max_batch
        return EvalStats(**values)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view including the derived rates."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["cache_hits"] = self.cache_hits
        payload["hit_rate"] = self.hit_rate
        payload["persistent_hit_rate"] = self.persistent_hit_rate
        payload["mean_batch"] = self.mean_batch
        payload["infeasible_rate"] = self.infeasible_rate
        return payload


class _Counters:
    """Mutable counter block shared by the layers of one stack."""

    __slots__ = [f.name for f in fields(EvalStats)]

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0.0 if name.endswith("_s") else 0)

    def snapshot(self) -> EvalStats:
        return EvalStats(**{name: getattr(self, name) for name in self.__slots__})


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def evaluator_fingerprint(evaluator: Any) -> str:
    """A stable identity string for an evaluator's *content*.

    The persistent cache keys rows by genome key **and** this fingerprint,
    so two evaluators that would score designs differently never share
    cached metrics. Evaluators may expose a ``fingerprint`` attribute or
    method (e.g. :class:`~repro.core.evaluator.DatasetEvaluator` hashes its
    dataset's rows); anything else falls back to its qualified class name.
    """
    fp = getattr(evaluator, "fingerprint", None)
    if callable(fp):
        fp = fp()
    if fp:
        return str(fp)
    cls = type(evaluator)
    return f"{cls.__module__}.{cls.__qualname__}"


# ---------------------------------------------------------------------------
# backend layers
# ---------------------------------------------------------------------------


class _InlineBackend:
    """Run the inner evaluator directly, one design at a time.

    When the inner evaluator exposes its own ``evaluate_many`` (one that
    farms a batch out itself), the whole batch is delegated so it keeps
    its fan-out.
    """

    def __init__(self, inner: "Evaluator", delegate_batches: bool = True):
        self.inner = inner
        self._delegate = delegate_batches

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        if self._delegate:
            many = getattr(self.inner, "evaluate_many", None)
            if many is not None:
                return list(many(genomes))
        results: list[Outcome] = []
        for genome in genomes:
            try:
                results.append(self.inner.evaluate(genome))
            except Exception as exc:
                results.append(exc)
        return results


class _PoolBackend:
    """Fan a batch out to a thread or process pool, preserving order.

    Per-design exceptions are captured and returned in place rather than
    aborting the batch — exactly how a cluster of synthesis jobs behaves
    when one run fails.
    """

    def __init__(self, inner: "Evaluator", workers: int, kind: str):
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        if workers < 1:
            raise NautilusError("workers must be >= 1")
        self.inner = inner
        self.workers = workers
        self.kind = kind
        self._executor_cls = (
            ProcessPoolExecutor if kind == "process" else ThreadPoolExecutor
        )

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        if not genomes:
            return []
        with self._executor_cls(max_workers=self.workers) as pool:
            futures = [pool.submit(self.inner.evaluate, g) for g in genomes]
            results: list[Outcome] = []
            for future in futures:
                try:
                    results.append(future.result())
                except Exception as exc:
                    results.append(exc)
            return results


# ---------------------------------------------------------------------------
# mid-stack layers
# ---------------------------------------------------------------------------


class _Instrumentation:
    """Charge distinct evaluations and time the backend per batch."""

    def __init__(self, next_layer, counters: _Counters, clock=time.perf_counter):
        self.next = next_layer
        self._counters = counters
        self._clock = clock

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        counters = self._counters
        counters.batches += 1
        counters.distinct += len(genomes)
        counters.max_batch = max(counters.max_batch, len(genomes))
        started = self._clock()
        outcomes = self.next.evaluate_many(genomes)
        counters.backend_time_s += self._clock() - started
        for outcome in outcomes:
            if isinstance(outcome, InfeasibleDesignError):
                counters.infeasible += 1
            elif isinstance(outcome, Exception):
                counters.errors += 1
        return outcomes


class _Batcher:
    """Coalesce duplicate keys within one batch; optionally chunk huge ones.

    Duplicates cost nothing extra — a generation that breeds the same
    genome twice pays for one synthesis job.
    """

    def __init__(self, next_layer, counters: _Counters, batch_size: int | None = None):
        if batch_size is not None and batch_size < 1:
            raise NautilusError("batch_size must be >= 1")
        self.next = next_layer
        self._counters = counters
        self._batch_size = batch_size

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        unique: list[Genome] = []
        index: dict[tuple, int] = {}
        for genome in genomes:
            if genome.key not in index:
                index[genome.key] = len(unique)
                unique.append(genome)
        self._counters.batch_dedup_hits += len(genomes) - len(unique)
        outcomes: list[Outcome] = []
        if self._batch_size is None:
            if unique:
                outcomes = self.next.evaluate_many(unique)
        else:
            for start in range(0, len(unique), self._batch_size):
                outcomes.extend(
                    self.next.evaluate_many(unique[start : start + self._batch_size])
                )
        return [outcomes[index[g.key]] for g in genomes]


class _PersistentLayer:
    """Serve misses from the shared on-disk cache; write back fresh results."""

    def __init__(
        self,
        next_layer,
        cache: "PersistentCache",
        fingerprint: str,
        counters: _Counters,
        clock=time.perf_counter,
    ):
        self.next = next_layer
        self.cache = cache
        self.fingerprint = fingerprint
        self._counters = counters
        self._clock = clock
        #: Timed write-backs since the last :meth:`pop_writes` — surfaced
        #: to tracing kernels as ``cache-write`` spans.
        self._writes: list[dict] = []

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        results: list[Outcome] = [None] * len(genomes)
        misses: list[Genome] = []
        positions: list[int] = []
        for i, genome in enumerate(genomes):
            found, metrics = self.cache.get(genome, self.fingerprint)
            if found:
                self._counters.persistent_hits += 1
                results[i] = (
                    metrics
                    if metrics is not None
                    else InfeasibleDesignError(
                        "design recorded as infeasible in the persistent cache"
                    )
                )
            else:
                misses.append(genome)
                positions.append(i)
        if misses:
            outcomes = self.next.evaluate_many(misses)
            started = self._clock()
            self.cache.put_many(
                zip(misses, outcomes), self.fingerprint
            )
            self._writes.append(
                {"entries": len(misses), "duration_s": self._clock() - started}
            )
            for position, outcome in zip(positions, outcomes):
                results[position] = outcome
        return results

    def pop_writes(self) -> list[dict]:
        """Timed cache write-backs since the last call (then reset)."""
        writes, self._writes = self._writes, []
        return writes


class _ArchiveTap:
    """Record outcomes flowing past the memo into a cross-campaign archive.

    Sits between the memo cache and the persistent layer, so every memo
    miss — fresh backend results *and* persistent-cache hits — lands in the
    archive exactly once per stack. Pure observation: no counters, no RNG,
    no reordering, so seeded curves are bit-identical with or without a
    tap (the archive-off engine-parity guarantee).
    """

    def __init__(self, next_layer, archive, fingerprint: str, campaign: str):
        self.next = next_layer
        self.archive = archive
        self.fingerprint = fingerprint
        self.campaign = campaign

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        outcomes = self.next.evaluate_many(genomes)
        self.archive.record_many(
            zip(genomes, outcomes), self.fingerprint, campaign=self.campaign
        )
        return outcomes


class _MemoCache:
    """The outermost layer: in-memory memoization and request accounting."""

    def __init__(self, next_layer, counters: _Counters):
        self.next = next_layer
        self.entries: dict[tuple, Outcome] = {}
        self._counters = counters

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        entries = self.entries
        self._counters.requests += len(genomes)
        misses = [g for g in genomes if g.key not in entries]
        self._counters.memo_hits += len(genomes) - len(misses)
        if misses:
            for genome, outcome in zip(misses, self.next.evaluate_many(misses)):
                entries[genome.key] = outcome
        return [entries[g.key] for g in genomes]


# ---------------------------------------------------------------------------
# persistent cache store
# ---------------------------------------------------------------------------


class PersistentCache:
    """Content-addressed, append-only evaluation cache shared across runs.

    Layout: one JSON-lines file per (design space, evaluator fingerprint)
    under ``root``, named ``<space>-<sha1(fingerprint)[:12]>.jsonl``. The
    first line is a self-describing header (space, parameter names, the full
    fingerprint); each following line is one design point::

        {"space": "spiral_fft", "params": ["radix", ...], "fingerprint": "..."}
        {"values": [4, 16, ...], "metrics": {"luts": 512.0, ...}}
        {"values": [8, 16, ...], "metrics": null}        # infeasible

    ``metrics: null`` records an :class:`InfeasibleDesignError` — a failed
    synthesis attempt still consumed a job, and replaying it must fail the
    same way. Files are :class:`~repro.core.appendlog.AppendLog` logs: each
    batch is one append, a torn row from a killed daemon is skipped on load
    and fenced off before the next append, so the cache survives crashes
    without any locking protocol beyond append.

    Thread safety: one lock guards the in-memory maps and file appends, so
    many campaign stacks in one scheduler can share a single instance.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        #: (space_name, fingerprint) -> {values_key: metrics | None}
        self._spaces: dict[tuple[str, str], dict[tuple, dict | None]] = {}

    # -- file mapping -----------------------------------------------------------

    def _path(self, space_name: str, fingerprint: str) -> Path:
        digest = hashlib.sha1(fingerprint.encode("utf-8")).hexdigest()[:12]
        return self.root / f"{space_name}-{digest}.jsonl"

    # The canonical key (repro.core.params.values_key) — the same frozen
    # form Genome.key carries, so JSON round-trips (tuples → lists) land
    # back on identical keys. This *is* the on-disk key format; changing it
    # orphans every existing cache file.
    _values_key = staticmethod(values_key)

    def _load(self, space: "DesignSpace", fingerprint: str) -> dict[tuple, dict | None]:
        slot = (space.name, fingerprint)
        rows = self._spaces.get(slot)
        if rows is not None:
            return rows
        path = self._path(space.name, fingerprint)
        header, payloads, _ = scan(path, header=True, require=_ROW_KEYS)
        if header is not None and (
            header.get("space") != space.name
            or tuple(header.get("params", ())) != space.param_names
            or header.get("fingerprint") != fingerprint
        ):
            raise NautilusError(
                f"persistent cache {path} does not match space "
                f"{space.name!r} / fingerprint {fingerprint!r}"
            )
        rows = {self._values_key(p["values"]): p["metrics"] for p in payloads}
        self._spaces[slot] = rows
        return rows

    # -- access -----------------------------------------------------------------

    def get(self, genome: Genome, fingerprint: str) -> tuple[bool, dict | None]:
        """``(found, metrics)``; ``metrics is None`` marks infeasible."""
        with self._lock:
            rows = self._load(genome.space, fingerprint)
            key = genome.key[1]
            if key in rows:
                metrics = rows[key]
                return True, dict(metrics) if metrics is not None else None
            return False, None

    def put_many(self, outcomes, fingerprint: str) -> int:
        """Append fresh ``(genome, outcome)`` rows; returns rows written.

        Metrics and :class:`InfeasibleDesignError` outcomes are persisted;
        other exceptions (transient failures, setup bugs) are not — they
        must not poison future campaigns.
        """
        fresh: dict[str, tuple["DesignSpace", list[dict]]] = {}
        with self._lock:
            for genome, outcome in outcomes:
                if isinstance(outcome, InfeasibleDesignError):
                    metrics = None
                elif isinstance(outcome, Exception):
                    continue
                else:
                    metrics = dict(outcome)
                rows = self._load(genome.space, fingerprint)
                key = genome.key[1]
                if key in rows:
                    continue
                rows[key] = metrics
                fresh.setdefault(genome.space.name, (genome.space, []))[1].append(
                    {"values": list(key), "metrics": metrics}
                )
            for space, batch in fresh.values():
                header = {
                    "space": space.name,
                    "params": list(space.param_names),
                    "fingerprint": fingerprint,
                }
                with AppendLog(self._path(space.name, fingerprint), header) as log:
                    log.append(batch)
        return sum(len(batch) for _, batch in fresh.values())

    def entries(self, space: "DesignSpace", fingerprint: str) -> int:
        """Number of cached rows for one (space, fingerprint)."""
        with self._lock:
            return len(self._load(space, fingerprint))

    def compact(self) -> dict[str, Any]:
        """Rewrite every cache file, dropping duplicate and torn rows.

        ``put_many`` dedupes within one process, but several writers
        appending to the same file (fleet workers, parallel daemons,
        repeated crash-restart cycles) accrete superseded duplicate rows —
        the file only ever grows. Compaction keeps the *last* payload per
        values key (matching ``_load``'s read semantics) in first-appearance
        order, silently drops unparsable or malformed lines, and rewrites
        each file atomically (tmp + rename). In-memory maps are invalidated
        so the next access reloads from the rewritten files.

        Returns ``{"files": {name: {"rows", "reclaimed"}}, "rows", "reclaimed"}``.
        """
        report: dict[str, Any] = {"files": {}, "rows": 0, "reclaimed": 0}
        with self._lock:
            paths = sorted(self.root.glob("*.jsonl")) if self.root.exists() else []
            for path in paths:
                header, payloads, dropped = scan(path, header=True, require=_ROW_KEYS)
                if header is None:
                    continue  # empty or headerless file; nothing to keep
                rows: dict[tuple, dict] = {}
                for payload in payloads:
                    try:
                        key = self._values_key(payload["values"])
                    except TypeError:
                        dropped += 1
                        continue
                    if key in rows:
                        dropped += 1  # superseded duplicate; keeps its slot
                    rows[key] = payload
                if dropped:
                    AppendLog(path, header).rewrite(rows.values())
                report["files"][path.name] = {
                    "rows": len(rows),
                    "reclaimed": dropped,
                }
                report["rows"] += len(rows)
                report["reclaimed"] += dropped
            self._spaces.clear()
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PersistentCache({str(self.root)!r})"


# ---------------------------------------------------------------------------
# the stack
# ---------------------------------------------------------------------------


class _RegistryMetrics:
    """Publishes stack counters into a Prometheus-style metrics registry.

    The registry is duck-typed (``counter``/``histogram`` factories with
    ``inc``/``observe``) so :mod:`repro.core` never imports
    :mod:`repro.obs`; in practice it is a
    :class:`repro.obs.registry.MetricsRegistry` shared by every campaign
    stack of one service daemon.
    """

    def __init__(self, registry):
        self.requests = registry.counter(
            "nautilus_eval_requests_total",
            "Evaluation requests, including every kind of cache hit.",
        )
        self.distinct = registry.counter(
            "nautilus_eval_distinct_total",
            "Distinct designs paid for at the backend (synthesis jobs).",
        )
        self.memo_hits = registry.counter(
            "nautilus_eval_memo_hits_total",
            "Requests served by the in-memory memo cache.",
        )
        self.persistent_hits = registry.counter(
            "nautilus_eval_persistent_hits_total",
            "Requests served by the persistent on-disk cache.",
        )
        self.infeasible = registry.counter(
            "nautilus_eval_infeasible_total",
            "Paid evaluations that came back unbuildable.",
        )
        self.errors = registry.counter(
            "nautilus_eval_errors_total",
            "Paid evaluations that raised a non-infeasibility error.",
        )
        self.batch_seconds = registry.histogram(
            "nautilus_eval_batch_seconds",
            "Wall time of one evaluation batch through the stack.",
        )

    def record(self, delta: EvalStats, elapsed_s: float) -> None:
        if delta.requests:
            self.requests.inc(delta.requests)
        if delta.distinct:
            self.distinct.inc(delta.distinct)
        if delta.memo_hits:
            self.memo_hits.inc(delta.memo_hits)
        if delta.persistent_hits:
            self.persistent_hits.inc(delta.persistent_hits)
        if delta.infeasible:
            self.infeasible.inc(delta.infeasible)
        if delta.errors:
            self.errors.inc(delta.errors)
        self.batch_seconds.observe(elapsed_s)


class EvaluationStack:
    """One layered, batch-first evaluation pipeline (see module docstring).

    Args:
        inner: The base evaluator that actually scores designs.
        backend: ``"auto"`` (default: inline, delegating whole batches to an
            inner ``evaluate_many`` when it has one), ``"inline"`` (strictly
            sequential), ``"thread"`` or ``"process"`` (pool fan-out; the
            useful pool size is the GA population — the paper's parallelism
            cap), or ``"fleet"`` (dispatch batches to the distributed
            worker fleet of ``fleet``, degrading to inline execution when
            no worker can serve the space — see :mod:`repro.distributed`).
        workers: Pool size for the thread/process backends.
        fleet: The :class:`repro.distributed.FleetCoordinator` backing the
            ``"fleet"`` backend (required for it, ignored otherwise).
        persistent: Optional shared :class:`PersistentCache`; campaigns over
            the same space then never re-pay a synthesis job, across
            processes and daemon restarts.
        batch_size: Optional chunking of huge batches (the dataset
            characterization pipeline streams a whole space through one
            stack this way).
        fingerprint: Evaluator-content fingerprint override; defaults to
            :func:`evaluator_fingerprint` of ``inner``.
        clock: Timer used for the wall/backend timings (tests inject one).
        registry: Optional :class:`repro.obs.registry.MetricsRegistry`;
            when given, the stack also publishes its counters as
            Prometheus families (``nautilus_eval_*``) after every batch.
            Duck-typed — the stack never imports :mod:`repro.obs` — and
            purely additive: the :class:`EvalStats` accounting is
            byte-for-byte identical with or without a registry.
        archive: Optional :class:`repro.archive.DesignArchive` (duck-typed
            — only ``record_many`` is called); every memo miss is recorded
            into it under ``campaign``. Pure observation: counters, RNG
            and seeded curves are identical with or without an archive.
        campaign: Campaign id stamped onto archived rows.
    """

    def __init__(
        self,
        inner: "Evaluator",
        *,
        backend: str = "auto",
        workers: int = 1,
        persistent: PersistentCache | None = None,
        batch_size: int | None = None,
        fingerprint: str | None = None,
        clock=time.perf_counter,
        registry=None,
        fleet=None,
        archive=None,
        campaign: str = "",
    ):
        if backend not in _BACKENDS:
            raise NautilusError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if isinstance(inner, EvaluationStack):
            raise NautilusError("cannot stack an EvaluationStack inside another")
        self.inner = inner
        self.backend_kind = backend
        self.workers = workers
        self.persistent = persistent
        self.archive = archive
        self.fingerprint = fingerprint or evaluator_fingerprint(inner)
        self._counters = _Counters()
        self._clock = clock
        self.registry = registry
        self._metrics = _RegistryMetrics(registry) if registry is not None else None

        if backend == "fleet":
            if fleet is None:
                raise NautilusError(
                    "backend='fleet' requires a FleetCoordinator via fleet="
                )
            # Imported lazily: repro.distributed depends on this module.
            from ..distributed.fleetbackend import FleetBackend

            tail = FleetBackend(inner, fleet, self.fingerprint)
        elif backend in ("thread", "process"):
            tail = _PoolBackend(inner, workers=workers, kind=backend)
        else:
            tail = _InlineBackend(inner, delegate_batches=backend == "auto")
        self._tail = tail
        layer = _Instrumentation(tail, self._counters, clock=clock)
        layer = _Batcher(layer, self._counters, batch_size=batch_size)
        self._persistent_layer: _PersistentLayer | None = None
        if persistent is not None:
            layer = _PersistentLayer(
                layer, persistent, self.fingerprint, self._counters, clock=clock
            )
            self._persistent_layer = layer
        if archive is not None:
            layer = _ArchiveTap(layer, archive, self.fingerprint, campaign)
        self._memo = _MemoCache(layer, self._counters)

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def wrap(cls, evaluator: "Evaluator | EvaluationStack", **options) -> "EvaluationStack":
        """Return ``evaluator`` unchanged if it already is a stack."""
        if isinstance(evaluator, EvaluationStack):
            return evaluator
        return cls(evaluator, **options)

    @classmethod
    def for_dataset(cls, dataset, **options) -> "EvaluationStack":
        """A stack over a characterized dataset (the service's backend)."""
        from .evaluator import DatasetEvaluator

        return cls(DatasetEvaluator(dataset), **options)

    # -- evaluation -------------------------------------------------------------

    def evaluate_many(self, genomes: Sequence[Genome]) -> list[Outcome]:
        """Evaluate a batch; one metrics dict or exception per genome.

        This is the primitive every layer composes over; callers re-raise
        or score exceptions as infeasible as appropriate.
        """
        batch = list(genomes)
        before = self._counters.snapshot() if self._metrics is not None else None
        started = self._clock()
        outcomes = self._memo.evaluate_many(batch)
        elapsed = self._clock() - started
        self._counters.wall_time_s += elapsed
        if self._metrics is not None and batch:
            self._metrics.record(self._counters.snapshot().minus(before), elapsed)
        return outcomes

    def evaluate(self, genome: Genome) -> Metrics:
        """A batch of one. Cached failures re-raise as *fresh* copies.

        Re-raising the cached exception instance itself would append to its
        ``__traceback__`` on every revisit, growing an unbounded chain over
        a long campaign; the copy keeps the original (with its first
        traceback) reachable as ``__cause__`` instead.
        """
        outcome = self.evaluate_many([genome])[0]
        if isinstance(outcome, Exception):
            raise _fresh_exception(outcome) from outcome
        return outcome

    def seen(self, genome: Genome) -> bool:
        """Whether this design point is already memoized."""
        return genome.key in self._memo.entries

    # -- accounting -------------------------------------------------------------

    @property
    def distinct_evaluations(self) -> int:
        """Unique design points paid for at the backend (synthesis jobs)."""
        return self._counters.distinct

    @property
    def total_requests(self) -> int:
        """Evaluation requests, including every kind of cache hit."""
        return self._counters.requests

    @property
    def cache_hits(self) -> int:
        """Requests served without paying for a backend execution."""
        return self._counters.requests - self._counters.distinct

    def stats(self) -> EvalStats:
        """A consistent snapshot of every layer's counters and timers."""
        return self._counters.snapshot()

    def pop_annotations(self) -> dict[str, Any] | None:
        """Backend-specific trace annotations since the last call, or None.

        Duck-typed on the tail backend: the fleet backend reports which
        workers served the recent evaluations (``{"workers": {name: n}}``)
        so run traces can attribute eval batches; local backends have
        nothing to add and the kernel emits its events unchanged.
        """
        pop = getattr(self._tail, "pop_dispatch_log", None)
        if pop is None:
            return None
        log = pop()
        return {"workers": log} if log else None

    # -- span tracing pass-throughs (duck-typed; see repro.obs.tracing) ----------

    def push_trace_context(self, ctx: dict[str, Any]) -> None:
        """Forward a span context to the tail backend for the next batch.

        Only the fleet backend consumes it (the context travels in the
        protocol's batch frames); other backends have no hook and the call
        is a no-op, so tracing kernels can push unconditionally.
        """
        push = getattr(self._tail, "push_trace_context", None)
        if push is not None:
            push(ctx)

    def pop_task_traces(self) -> list[dict[str, Any]]:
        """Per-task fleet timelines since the last call (empty inline)."""
        pop = getattr(self._tail, "pop_task_traces", None)
        return pop() if pop is not None else []

    def pop_cache_writes(self) -> list[dict[str, Any]]:
        """Timed persistent-cache write-backs since the last call."""
        layer = self._persistent_layer
        return layer.pop_writes() if layer is not None else []

    # -- memo import/export (checkpointing) -------------------------------------

    def memo_items(self) -> Iterator[tuple[tuple, Outcome]]:
        """Iterate ``(genome key, outcome)`` over the in-memory cache."""
        return iter(self._memo.entries.items())

    def preload(
        self, genome: Genome, metrics: Metrics | None, charge: bool = True
    ) -> None:
        """Seed the memo with an already-paid-for outcome (checkpoint resume).

        ``metrics=None`` restores an infeasible result. ``charge`` counts
        the entry as a distinct evaluation — the job *was* paid for by this
        campaign, just before the snapshot.
        """
        outcome: Outcome = (
            metrics
            if metrics is not None
            else InfeasibleDesignError("restored from checkpoint")
        )
        if genome.key not in self._memo.entries and charge:
            self._counters.distinct += 1
        self._memo.entries[genome.key] = outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self._counters
        return (
            f"EvaluationStack({type(self.inner).__name__}, "
            f"backend={self.backend_kind!r}, distinct={s.distinct}, "
            f"requests={s.requests})"
        )


def _fresh_exception(exc: Exception) -> Exception:
    """A traceback-free copy of a cached exception, safe to re-raise."""
    try:
        fresh = copy.copy(exc)
        if fresh is exc:  # a pathological __copy__; fall back to the original
            return exc
    except Exception:
        return exc
    fresh.__traceback__ = None
    return fresh
