"""The ``fleet-overhead`` workload: protocol and dispatch cost, no GA.

Batches of distinct NoC designs, each a near-zero-cost dataset lookup, go
through ``EvaluationStack(backend="fleet")`` to two ``nautilus worker``
processes over loopback. Each batch gets a fresh stack, so no cache layer
answers for the fleet and every task crosses the wire. The GA layers are
bypassed here; the fleet is bypassed by every other workload.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .harness import (
    SETUP_REPEATS,
    Intervals,
    Metric,
    Reference,
    child_env,
    peak_rss_mb_pid,
    peak_rss_mb_self,
    percentile,
    tail_percentile,
    timed_setup,
    timing_metrics,
)
from .tracer import SpanLog, patched

#: Designs per batch: one large-pop generation (population 240). With
#: millisecond batches of 10, the 1 % of batches that met a heartbeat or a
#: dispatcher sweep set the p99 tail, which then swung by 40 % between runs.
BATCH = 240
#: Worker processes; one per core of the 2-core reference VM.
WORKERS = 2
#: Distinct batches in one cycle of inputs.
CYCLE = 100
WARMUP_BATCHES = 40
#: Longest wait for the workers to register.
START_TIMEOUT_S = 60.0


class Fleet:
    """A coordinator in this process and its worker processes."""

    def __init__(self, workdir: Path):
        from repro.distributed import FleetCoordinator

        self.coordinator = FleetCoordinator(port=0).start()
        self.procs: list[subprocess.Popen] = []
        self._logs = []
        env = child_env()
        for i in range(WORKERS):
            fd, _ = tempfile.mkstemp(prefix=f"worker{i}-", suffix=".log", dir=workdir)
            log = os.fdopen(fd, "wb")
            self._logs.append(log)
            self.procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "worker",
                        "--connect", self.coordinator.address,
                        "--spaces", "noc", "--name", f"w{i}",
                    ],
                    stdout=log, stderr=subprocess.STDOUT, env=env,
                )
            )

    def wait_ready(self) -> None:
        """Block until every worker has registered (polled each 1 ms)."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.coordinator.status()["live_workers"] < WORKERS:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(f"fleet worker exited with {proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not register in time")
            time.sleep(0.001)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb_pid(p.pid) for p in self.procs)

    def stop(self) -> None:
        """Shut the workers down and wait for every process to end."""
        self.coordinator.stop()
        for proc in self.procs:
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()


def make_batches(dataset, seed: int, count: int) -> list[list[Any]]:
    """``count`` batches of ``BATCH`` distinct feasible designs."""
    rng = random.Random(seed)
    space = dataset.space
    batches = []
    for _ in range(count):
        keys: set = set()
        batch = []
        while len(batch) < BATCH:
            genome = space.random_genome(rng)
            if genome.key in keys or not _feasible(dataset, genome):
                continue
            keys.add(genome.key)
            batch.append(genome)
        batches.append(batch)
    return batches


def _feasible(dataset, genome) -> bool:
    from repro.core.errors import DatasetError, InfeasibleDesignError

    try:
        dataset.lookup(genome)
    except (DatasetError, InfeasibleDesignError):
        return False
    return True


@dataclass
class BatchPass:
    latencies: Intervals = field(default_factory=Intervals)
    traces: list[dict] = field(default_factory=list)
    distinct: int = 0  # evaluations the stacks paid for
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_batches(fleet: Fleet, inner, batches, ref: Reference, seconds, traced=False):
    """Send batches in order, cycling until ``seconds`` pass (one cycle when
    None), with a reference chunk before each. Each outcome is checked
    against inline evaluation as it arrives (untimed)."""
    from repro.core.evalstack import EvaluationStack

    clock = ref.clock
    out = BatchPass()
    began = clock()
    index = 0
    while index < len(batches) or (seconds is not None and clock() - began < seconds):
        batch = batches[index % len(batches)]
        stack = EvaluationStack(inner, backend="fleet", fleet=fleet.coordinator)
        if traced:
            stack.push_trace_context({"trace": "perfbench", "parent": index})
        index += 1
        ref.chunk()
        t0 = clock()
        outcomes = stack.evaluate_many(batch)
        t1 = clock()
        out.latencies.add(t0, t1, len(batch))
        out.distinct += stack.distinct_evaluations
        out.failed += sum(isinstance(o, Exception) for o in outcomes)
        out.problems += check_outcomes(inner, batch, outcomes)
        if traced:
            out.traces.extend(stack.pop_task_traces())
    return out


def check_outcomes(inner, batch, outcomes) -> list[str]:
    """Fleet outcomes must equal inline evaluation of the same designs."""
    return [
        f"fleet outcome {outcome!r} != inline {inner.evaluate(genome)!r}"
        for genome, outcome in zip(batch, outcomes)
        if outcome != inner.evaluate(genome)
    ]


def check_totals(submitted: int, totals_before, totals_after) -> list[str]:
    """Every task completed on the fleet; none fell back to local execution."""
    found = []
    completed = totals_after["completed"] - totals_before["completed"]
    if completed != submitted:
        found.append(f"fleet completed {completed} tasks, {submitted} submitted")
    fallback = totals_after["local_fallback"] - totals_before["local_fallback"]
    if fallback:
        found.append(f"{fallback} evaluations fell back to local execution")
    return found


def run(seed: int, seconds: float, trace: bool, workdir: Path, out_dir: Path) -> dict[str, Any]:
    from repro.core.evaluator import DatasetEvaluator
    from repro.distributed import FleetCoordinator
    from repro.queries import load_dataset

    ref = Reference()
    for _ in range(3):
        ref.chunk()
    load_raw: list[float] = []

    def setup():
        fleet = Fleet(workdir)
        try:
            t0 = time.perf_counter()
            dataset = load_dataset("noc")
            load_raw.append(time.perf_counter() - t0)
            fleet.wait_ready()
        except BaseException:
            fleet.stop()
            raise
        return fleet, dataset

    (fleet, dataset), setups = timed_setup(
        ref, setup, repeats=SETUP_REPEATS, teardown=lambda built: built[0].stop()
    )
    try:
        inner = DatasetEvaluator(dataset)
        batches = make_batches(dataset, seed, CYCLE)
        warmup = make_batches(dataset, seed + 1_000_003, WARMUP_BATCHES)
        run_batches(fleet, inner, warmup, ref, None)
        report: dict[str, Any] = {"ref": ref}
        before = fleet.coordinator.status()["totals"]
        if not trace:
            measured = run_batches(fleet, inner, batches, ref, seconds)
            passes = [measured]
            lat = measured.latencies
            tasks = sum(lat.work)
            metrics = timing_metrics(lat, ref, setups, tasks)
            metrics["peak_rss_mb"] = Metric(
                fleet.peak_rss_mb() + peak_rss_mb_self(), "MB", WORKERS + 1
            )
            metrics["completed_ratio"] = Metric(
                (tasks - measured.failed) / tasks, "1", tasks
            )
            metrics["evals_to_target"] = Metric(
                measured.distinct / len(lat.spans), "evals", len(lat.spans),
                note="no search here: distinct evaluations paid per batch",
            )
        else:
            plain = run_batches(fleet, inner, batches, ref, None)
            log = SpanLog(clock=ref.clock)
            targets = [(FleetCoordinator, "submit_batch", "fleet.submit")]
            with patched(log, targets):
                traced = run_batches(fleet, inner, batches, ref, None, traced=True)
            passes = [plain, traced]
            scale = ref.nominal_ms / ref.ref_ms
            metrics = fleet_layers(
                log, traced.traces, before, fleet.coordinator.status()["totals"], scale
            )
            plain_s = sum(plain.latencies.normalized_s(ref))
            metrics["trace.overhead_share"] = Metric(
                (sum(traced.latencies.normalized_s(ref)) - plain_s) / plain_s, "1"
            )
            metrics["trace.spans"] = Metric(len(log), "count")
            metrics["dataset.load_s"] = Metric(
                statistics.median(load_raw) * scale, "s", len(load_raw)
            )
            log.write(out_dir / "spans-fleet-overhead.npz")
        submitted = sum(sum(p.latencies.work) for p in passes)
        report.update(
            metrics=metrics,
            attempted=submitted,
            failed=sum(p.failed for p in passes),
            problems=[q for p in passes for q in p.problems][:20]
            + check_totals(submitted, before, fleet.coordinator.status()["totals"]),
        )
    finally:
        fleet.stop()
    return report


def fleet_layers(log: SpanLog, traces, before, after, scale) -> dict[str, Metric]:
    submits = [d * scale * 1e3 for d in log.durations("fleet.submit")]
    p = tail_percentile(len(submits))
    done = [e for t in traces for e in t["events"] if e["event"] == "done"]

    def delta(key: str) -> int:
        return after[key] - before[key]

    return {
        "fleet.submit_p50_ms": Metric(statistics.median(submits), "ms", len(submits)),
        "fleet.submit_tail_ms": Metric(
            percentile(submits, p), "ms", len(submits), note=f"p{p:g}"
        ),
        "fleet.queue_ms": Metric(
            statistics.mean(e["queue_s"] for e in done) * scale * 1e3, "ms", len(done)
        ),
        "fleet.exec_ms": Metric(
            statistics.mean(e["exec_s"] for e in done) * scale * 1e3, "ms", len(done)
        ),
        "fleet.retried": Metric(delta("retried"), "count"),
        "fleet.requeued": Metric(delta("requeued"), "count"),
        "fleet.duplicate_results": Metric(delta("duplicate_results"), "count"),
        "fleet.local_fallback": Metric(delta("local_fallback"), "count"),
    }
