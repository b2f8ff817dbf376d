"""The ``service`` workload: campaigns through the daemon over HTTP.

A ``nautilus serve`` daemon runs in its own process with ``--eval-cache``
and ``--archive`` on, in a fresh root per daemon. One closed-loop client
submits a campaign, polls its status until it ends, and submits the next,
cycling the four figure queries with a new seed each time: the shared
persistent cache and the archive see appends (a space's first campaigns)
beside hits (later ones). This is the only workload that crosses HTTP, the
scheduler, the per-generation checkpoint and the status and event-log
writes.

Polling: the client sleeps between status requests for 1/20 of the median
campaign latency seen so far, and a campaign's end is placed halfway
between the last status that read "running" and the first that read
"done", so neither the sleep nor its quantization is timed.
"""

from __future__ import annotations

import itertools
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .ga import FIGURE_QUERIES, target_value
from .harness import (
    Intervals,
    Metric,
    Reference,
    child_env,
    compare_passes,
    peak_rss_mb_pid,
    percentile,
    tail_percentile,
    timed_setup,
    timing_metrics,
)
from .tracer import SpanLog, patched

#: Generations per campaign (the paper's 80 would give too few campaigns
#: per run for a p90 tail).
GENERATIONS = 20
#: Campaigns in one cycle of inputs: 20 seeds of each figure query.
CYCLE = 80
WARMUP = 8
#: Status polls per median campaign latency.
POLLS_PER_CAMPAIGN = 20
#: Daemon starts per run; ``setup_s`` is their median. More than the other
#: workloads' five: the median of five varied by a quarter between runs.
SETUP_REPEATS = 9
CAMPAIGN_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")


def campaign_specs(seed: int, count: int, start: int = 0) -> list[dict[str, Any]]:
    """Campaign ``i`` runs query ``i mod 4`` with its own seed."""
    return [
        {
            "query": FIGURE_QUERIES[i % len(FIGURE_QUERIES)],
            "seed": seed * 100_000 + i // len(FIGURE_QUERIES),
            "generations": GENERATIONS,
        }
        for i in range(start, start + count)
    ]


class Daemon:
    """One ``nautilus serve`` process on an ephemeral port."""

    def __init__(self, root: Path):
        from repro.service import ServiceClient

        root.mkdir(parents=True)
        self._stderr = open(root.parent / f"{root.name}.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--dir", str(root), "--eval-cache", "--archive", "--workers", "1",
            ],
            stdout=subprocess.PIPE, stderr=self._stderr, env=child_env(), text=True,
            # A shell that starts the benchmark in the background leaves
            # SIGINT ignored, and the daemon would inherit that; it shuts
            # down gracefully only on SIGINT.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not report its address: {line!r}")
            self.client = ServiceClient(match.group(1), int(match.group(2)))
            deadline = time.monotonic() + 30
            while not self.client.healthy():
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("daemon did not become healthy")
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the daemon (it shuts down gracefully) and wait for it."""
        if self._stderr.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()


class Campaigns:
    """The closed-loop client and what it saw."""

    def __init__(self, daemon: Daemon, ref: Reference, poll_s: float):
        self.daemon = daemon
        self.ref = ref
        self.latencies = Intervals()
        self.done: list[tuple[dict, dict]] = []  # (spec, final status)
        self.attempted = 0
        self.poll_s = poll_s

    def run_one(self, spec: dict) -> None:
        from repro.service.client import ServiceError

        client = self.daemon.client
        clock = self.ref.clock
        self.ref.chunk()
        t0 = clock()
        try:
            cid = client.submit(spec)
            last_running = clock()
            while True:
                sent = clock()
                status = client.status(cid)
                received = clock()
                if status["state"] in TERMINAL:
                    break
                last_running = (sent + received) / 2
                if received - t0 > CAMPAIGN_TIMEOUT_S:
                    raise TimeoutError(f"campaign {cid} still running")
                time.sleep(self.poll_s)
        except (ServiceError, TimeoutError) as exc:
            print(f"campaign {spec} failed: {exc}", file=sys.stderr)
            return
        if status["state"] != "done":
            print(f"campaign {spec} ended {status['state']}", file=sys.stderr)
            return
        end = (last_running + (sent + received) / 2) / 2
        self.latencies.add(t0, end)
        self.done.append((spec, status))
        if len(self.done) % 10 == 0:
            median = statistics.median(self.latencies.raw_s())
            self.poll_s = median / POLLS_PER_CAMPAIGN

    def run(self, specs_for, count: int, seconds: float | None = None) -> None:
        """Submit ``specs_for(i)`` for the next i = 0, 1, ... until ``count``
        more ran and ``seconds`` passed."""
        began = self.ref.clock()
        stop = self.attempted + count
        while self.attempted < stop or (
            seconds is not None and self.ref.clock() - began < seconds
        ):
            self.run_one(specs_for(self.attempted))
            self.attempted += 1


def search_result(status: dict) -> tuple:
    """The parts of a campaign's status that its search determines."""
    return tuple(
        status.get(key)
        for key in ("best_raw", "best_config", "distinct_evaluations", "stop_reason")
    )


def reference_checks(done, datasets) -> list[str]:
    """Each campaign's best must equal an in-process run of its spec."""
    from repro.queries import QUERIES
    from repro.service.campaign import CampaignSpec, build_search

    found = []
    for spec, status in done:
        dataset = datasets[QUERIES[spec["query"]].space]
        result = build_search(CampaignSpec.from_json(spec), dataset).run()
        if (status.get("best_raw"), status.get("best_config")) != (
            result.best_raw, result.best_config
        ):
            found.append(
                f"{spec}: daemon best {status.get('best_raw')} != "
                f"in-process {result.best_raw}"
            )
    return found[:20]


def evals_to_target(client, done, datasets) -> float:
    """Mean paid evaluations until a campaign's best is within 1 % of the
    dataset optimum (the campaign's total if never)."""
    from repro.queries import QUERIES, resolve_objective

    counts = []
    for spec, status in done:
        query = QUERIES[spec["query"]]
        objective, _ = resolve_objective(query)
        target = target_value(datasets[query.space], objective)
        count = status["distinct_evaluations"]
        for point in client.curve(status["id"]):
            raw = point["best_raw"]
            if raw >= target if objective.maximizing else raw <= target:
                count = point["distinct_evaluations"]
                break
        counts.append(count)
    return statistics.mean(counts)


def load_datasets() -> tuple[dict, float]:
    from repro.queries import load_dataset

    t0 = time.perf_counter()
    datasets = {space: load_dataset(space) for space in ("noc", "fft")}
    return datasets, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, workdir: Path, out_dir: Path) -> dict[str, Any]:
    from repro.service import ServiceClient

    ref = Reference()
    for _ in range(3):
        ref.chunk()
    roots = (workdir / f"daemon{i}" for i in itertools.count())
    daemon, setups = timed_setup(
        ref, lambda: Daemon(next(roots)), repeats=SETUP_REPEATS, teardown=Daemon.stop
    )
    daemons = [daemon]
    try:
        def warm(d: Daemon) -> float:
            loop = Campaigns(d, ref, poll_s=0.005)
            warmup = campaign_specs(seed, WARMUP, start=10_000)
            loop.run(warmup.__getitem__, WARMUP)
            return statistics.median(loop.latencies.raw_s()[WARMUP // 2:])

        poll_s = warm(daemon) / POLLS_PER_CAMPAIGN
        cycle = campaign_specs(seed, CYCLE)
        report: dict[str, Any] = {"ref": ref}
        if not trace:
            loop = Campaigns(daemon, ref, poll_s)
            specs = lambda i: campaign_specs(seed, 1, start=i)[0]  # noqa: E731
            began = ref.clock()
            loop.run(specs, CYCLE)
            # Read after the fixed first cycle: the daemon keeps per-campaign
            # state, so its peak would otherwise grow with the host's speed.
            rss = daemon.peak_rss_mb()
            loop.run(specs, 0, seconds - (ref.clock() - began))
            datasets, _ = load_datasets()
            problems = reference_checks(loop.done, datasets)
            n = len(loop.done)
            metrics = timing_metrics(loop.latencies, ref, setups, n)
            metrics["peak_rss_mb"] = Metric(rss, "MB")
            metrics["completed_ratio"] = Metric(n / loop.attempted, "1", loop.attempted)
            first = [d for d in loop.done if d[0] in cycle]
            metrics["evals_to_target"] = Metric(
                evals_to_target(daemon.client, first, datasets), "evals", len(first)
            )
            report.update(metrics=metrics, attempted=loop.attempted, failed=loop.attempted - n)
        else:
            plain = Campaigns(daemon, ref, poll_s)
            plain.run(cycle.__getitem__, CYCLE)
            daemon.stop()
            traced_daemon = Daemon(next(roots))
            daemons.append(traced_daemon)
            warm(traced_daemon)
            log = SpanLog(clock=ref.clock)
            targets = [
                (ServiceClient, "submit", "http.submit"),
                (ServiceClient, "status", "http.status"),
            ]
            traced = Campaigns(traced_daemon, ref, poll_s)
            with patched(log, targets):
                traced.run(cycle.__getitem__, CYCLE)
            datasets, load_s = load_datasets()
            problems = reference_checks(traced.done, datasets)
            problems += compare_passes(
                [search_result(s) for _, s in plain.done],
                [search_result(s) for _, s in traced.done],
            )
            scale = ref.nominal_ms / ref.ref_ms
            metrics = service_layers(log, traced_daemon.client, scale)
            plain_s = sum(plain.latencies.normalized_s(ref))
            metrics["trace.overhead_share"] = Metric(
                (sum(traced.latencies.normalized_s(ref)) - plain_s) / plain_s, "1"
            )
            metrics["trace.spans"] = Metric(len(log), "count")
            metrics["dataset.load_s"] = Metric(load_s * scale, "s")
            log.write(out_dir / "spans-service.npz")
            attempted = plain.attempted + traced.attempted
            report.update(
                metrics=metrics, attempted=attempted,
                failed=attempted - len(plain.done) - len(traced.done),
            )
        report["problems"] = problems
    finally:
        for d in daemons:
            d.stop()
    return report


def service_layers(log: SpanLog, client, scale: float) -> dict[str, Metric]:
    from repro.obs.registry import parse_prometheus

    submits = [d * scale * 1e3 for d in log.durations("http.submit")]
    polls = [d * scale * 1e3 for d in log.durations("http.status")]
    p = tail_percentile(len(polls))
    snapshot = client.metrics()
    eval_s = list(snapshot["campaign_eval_time_s"].values())
    families = parse_prometheus(client.metrics_prometheus())
    rows = sum(families["nautilus_archive_rows_total"]["samples"].values())
    return {
        "http.submit_ms": Metric(statistics.median(submits), "ms", len(submits)),
        "http.status_p50_ms": Metric(statistics.median(polls), "ms", len(polls)),
        "http.status_tail_ms": Metric(percentile(polls, p), "ms", len(polls), note=f"p{p:g}"),
        "service.eval_ms_per_campaign": Metric(
            statistics.mean(eval_s) * scale * 1e3, "ms", len(eval_s)
        ),
        "service.persistent_hit_rate": Metric(snapshot["persistent_cache_hit_rate"], "1"),
        "archive.rows": Metric(rows, "count"),
    }
