"""Measurement primitives shared by every workload.

Host time on a small shared VM drifts by tens of percent between processes
and within one, so no raw wall-clock interval is reported on its own. A
fixed pure-Python loop (:func:`reference_loop`) is timed in short chunks
between units of work, only while nothing is in flight, and each timed
interval is rescaled by the loop's nominal time over the time it took near
that interval. The raw values are kept beside the normalized ones.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Iterations of :func:`reference_loop` per chunk (about 2 ms on a 2-vCPU
#: Xeon KVM guest running Python 3.11).
REFERENCE_ROUNDS = 300
#: The chunk's nominal duration: normalized times are expressed in host
#: speed at which one chunk takes this long.
NOMINAL_MS = 2.0
#: Chunks on each side of an interval whose median sets its speed factor.
WINDOW = 1
#: Work (seconds) between two reference chunks.
CHUNK_GAP_S = 0.03
#: Largest share of a chunk's CPU time other threads of this process may
#: take before the run is flagged: they would be slowing the reference and
#: so shrinking every normalized time.
STEAL_LIMIT = 0.05
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples required beyond the tail percentile.
TAIL_BEYOND = 10


def reference_loop(rounds: int = REFERENCE_ROUNDS) -> int:
    """The fixed reference work: short-lived dicts, lists, tuples, strings
    and floats, built and filtered as the search code builds and filters
    its records.

    Allocation-heavy on purpose. On a VM whose vCPU alternates between a
    fast and a slow mode (about 1.7x apart), a tight arithmetic loop slows
    down more than the search does (1.8x against 1.7x) and so over-corrects;
    this loop slows down by the same factor as the paper battery.
    """
    out: list[dict] = []
    for i in range(rounds):
        out.append({"a": i, "b": [i, i + 1, (i, str(i))], "c": {"x": float(i)}})
        if len(out) > 50:
            out = [o for o in out if o["a"] % 3]
    return len(out)


class Reference:
    """Reference chunks and the per-interval speed factors they give.

    ``clock``, ``process_cpu``, ``thread_cpu`` and ``work`` are injectable
    so the arithmetic can be checked on a fake clock.
    """

    def __init__(
        self,
        work: Callable[[], object] = reference_loop,
        clock: Callable[[], float] = time.perf_counter,
        process_cpu: Callable[[], float] = time.process_time,
        thread_cpu: Callable[[], float] = time.thread_time,
    ):
        self._work = work
        self.nominal_ms = NOMINAL_MS
        self.clock = clock
        self._process_cpu = process_cpu
        self._thread_cpu = thread_cpu
        self._last_end: float | None = None
        #: Midpoint and measured duration (ms) of every chunk, in order.
        self.at: list[float] = []
        self.ms: list[float] = []
        self.thread_cpu_s = 0.0
        self.process_cpu_s = 0.0

    def chunk(self) -> None:
        """Time one reference chunk. Call only while nothing is in flight.

        The cyclic garbage collector is paused for the chunk, so a
        collection the program's garbage is due never lands in it; the
        chunk's own objects die young and leave the collector's count flat.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            p0, c0 = self._process_cpu(), self._thread_cpu()
            t0 = self.clock()
            self._work()
            t1 = self.clock()
            c1, p1 = self._thread_cpu(), self._process_cpu()
        finally:
            if enabled:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.ms.append((t1 - t0) * 1e3)
        self.thread_cpu_s += c1 - c0
        self.process_cpu_s += p1 - p0
        self._last_end = t1

    def pace(self) -> None:
        """Run a chunk when enough work has passed since the last one."""
        if self._last_end is None or self.clock() - self._last_end >= CHUNK_GAP_S:
            self.chunk()

    def factor(self, at: float) -> float:
        """Nominal over measured chunk time, from the chunks nearest ``at``."""
        if not self.ms:
            raise ValueError("no reference chunk has been timed")
        n = len(self.ms)
        i = bisect.bisect_left(self.at, at)
        lo = max(0, i - WINDOW)
        hi = min(n, i + WINDOW)
        return self.nominal_ms / statistics.median(self.ms[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` rescaled to nominal host speed."""
        return (end - start) * self.factor((start + end) / 2)

    @property
    def ref_ms(self) -> float:
        """Median measured chunk time (the ``host.ref_ms`` diagnostic)."""
        return statistics.median(self.ms)

    @property
    def stolen_share(self) -> float:
        """Share of the chunks' CPU time spent by this process's other
        threads while the reference ran."""
        if self.thread_cpu_s <= 0:
            return 0.0
        return max(self.process_cpu_s - self.thread_cpu_s, 0.0) / self.thread_cpu_s

    @property
    def flagged(self) -> bool:
        return self.stolen_share > STEAL_LIMIT


@dataclass
class Intervals:
    """Timed units: raw ``(start, end)`` pairs with a work count each."""

    spans: list[tuple[float, float]] = field(default_factory=list)
    work: list[int] = field(default_factory=list)

    def add(self, start: float, end: float, work: int = 1) -> None:
        self.spans.append((start, end))
        self.work.append(work)

    def raw_s(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def normalized_s(self, ref: Reference) -> list[float]:
        return [ref.normalize(start, end) for start, end in self.spans]


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's program first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: ``n * (1 - p/100)`` samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live child process, MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


@dataclass
class Metric:
    """One reported number with its unit, sample count and raw twin."""

    value: float
    unit: str
    samples: int = 1
    raw: float | None = None
    note: str = ""


def timing_metrics(
    latencies: Intervals,
    ref: Reference,
    setups: Intervals,
    work_done: int,
    throughput_time: Intervals | None = None,
) -> dict[str, Metric]:
    """The end-to-end timing metrics every workload reports.

    ``latencies`` are the units a user waits on; ``throughput_time`` (the
    same intervals unless given) holds the time the ``work_done`` units
    took. ``setup_s`` is the median of the set-ups, each rescaled by the
    reference chunks timed just before and just after it.
    """
    span = throughput_time or latencies
    norm = latencies.normalized_s(ref)
    raw = latencies.raw_s()
    total_norm = sum(span.normalized_s(ref))
    total_raw = sum(span.raw_s())
    n = len(norm)
    p = tail_percentile(n)
    return {
        "throughput_per_s": Metric(
            work_done / total_norm, "1/s", n, work_done / total_raw,
            f"{work_done} units",
        ),
        "latency_p50_ms": Metric(
            statistics.median(norm) * 1e3, "ms", n, statistics.median(raw) * 1e3
        ),
        "latency_tail_ms": Metric(
            percentile(norm, p) * 1e3, "ms", n, percentile(raw, p) * 1e3,
            f"p{p:g}",
        ),
        "setup_s": Metric(
            statistics.median(setups.normalized_s(ref)), "s",
            len(setups.spans), statistics.median(setups.raw_s()),
        ),
    }


def compare_passes(untraced: list, traced: list) -> list[str]:
    """The traced pass must reproduce the untraced pass's results exactly."""
    if len(untraced) != len(traced):
        return [f"traced pass made {len(traced)} results, untraced {len(untraced)}"]
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if a != b:
            return [f"traced pass result {i} differs: {b!r} != untraced {a!r}"]
    return []


def timed_setup(
    ref: Reference,
    build: Callable[[], object],
    repeats: int,
    teardown: Callable[[object], None] | None = None,
):
    """Run ``build`` ``repeats`` times, each between two reference chunks.

    Returns ``(last result, the timed builds)``. Every earlier result is
    passed to ``teardown`` (untimed) before the next build.
    """
    setups = Intervals()
    result = None
    for i in range(repeats):
        if i and teardown is not None:
            teardown(result)
        result = None
        ref.chunk()
        t0 = ref.clock()
        result = build()
        t1 = ref.clock()
        ref.chunk()
        setups.add(t0, t1)
    return result, setups
