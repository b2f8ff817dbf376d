"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import fleet, ga, harness, service
from perfbench.harness import Metric, Reference
from perfbench.report import emit
from perfbench.tracer import SpanLog, patched

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    """A clock that moves only when told to, with CPU-time twins."""

    def __init__(self):
        self.now = 0.0
        self.thread = 0.0
        self.process = 0.0

    def __call__(self) -> float:
        return self.now

    def run(self, seconds: float, other_threads: float = 0.0) -> None:
        self.now += seconds
        self.thread += seconds
        self.process += seconds + other_threads


def fake_reference(chunk_ms: list[float], steal_ms: float = 0.0) -> tuple[Reference, FakeClock]:
    clock = FakeClock()
    durations = iter(chunk_ms)

    def work():
        clock.run(next(durations) / 1e3, steal_ms / 1e3)

    ref = Reference(
        work=work, clock=clock,
        process_cpu=lambda: clock.process, thread_cpu=lambda: clock.thread,
    )
    return ref, clock


# -- normalization arithmetic -----------------------------------------------------


def test_interval_is_rescaled_by_nominal_over_measured_reference():
    ref, clock = fake_reference([4.0, 4.0])
    ref.chunk()
    start = clock()
    clock.now += 0.010
    end = clock()
    ref.chunk()
    # The host ran the reference at half its nominal speed: 10 ms of wall
    # time is 5 ms at nominal speed.
    assert ref.normalize(start, end) == pytest.approx(0.005)
    assert ref.ref_ms == pytest.approx(4.0)


def test_factor_comes_from_the_chunks_next_to_the_interval():
    ref, clock = fake_reference([1.0, 4.0, 2.0, 1.0])
    intervals = []
    for _ in range(3):
        ref.chunk()
        start = clock()
        clock.now += 0.010
        intervals.append((start, clock()))
    ref.chunk()
    # Each interval sits between two chunks; the factor is nominal over
    # their median (their mean), not over the run-wide median.
    assert ref.normalize(*intervals[0]) == pytest.approx(0.010 * 2.0 / 2.5)
    assert ref.normalize(*intervals[1]) == pytest.approx(0.010 * 2.0 / 3.0)
    assert ref.normalize(*intervals[2]) == pytest.approx(0.010 * 2.0 / 1.5)


def test_pace_runs_a_chunk_only_after_enough_work():
    ref, clock = fake_reference([1.0] * 3)
    ref.pace()
    clock.now += harness.CHUNK_GAP_S / 2
    ref.pace()
    assert len(ref.ms) == 1
    clock.now += harness.CHUNK_GAP_S
    ref.pace()
    assert len(ref.ms) == 2


def test_other_threads_using_cpu_during_a_chunk_flag_the_run():
    quiet, _ = fake_reference([2.0, 2.0])
    quiet.chunk()
    quiet.chunk()
    assert not quiet.flagged
    busy, _ = fake_reference([2.0, 2.0], steal_ms=0.5)
    busy.chunk()
    busy.chunk()
    assert busy.stolen_share == pytest.approx(0.25)
    assert busy.flagged


def test_timing_metrics_report_normalized_and_raw_values():
    ref, clock = fake_reference([4.0] * 40)
    lat = harness.Intervals()
    for i in range(30):
        ref.chunk()
        start = clock()
        clock.now += 0.001 * (i + 1)
        lat.add(start, clock())
    ref.chunk()
    setups = harness.Intervals()
    for seconds in (2.0, 6.0, 4.0):
        start = clock()
        clock.now += seconds
        setups.add(start, clock())
        ref.chunk()
    metrics = harness.timing_metrics(lat, ref, setups, 30)
    assert metrics["latency_p50_ms"].value == pytest.approx(7.75)
    assert metrics["latency_p50_ms"].raw == pytest.approx(15.5)
    assert metrics["latency_tail_ms"].note == "p50"  # 30 samples: p75 has 7 beyond
    assert metrics["throughput_per_s"].value == pytest.approx(30 / (sum(range(1, 31)) * 0.0005))
    assert metrics["setup_s"].value == pytest.approx(2.0)
    assert metrics["setup_s"].raw == 4.0


@pytest.mark.parametrize(
    "n, p", [(20, 50.0), (100, 90.0), (160, 90.0), (240, 95.0), (1000, 99.0), (1400, 99.0)]
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, p):
    assert harness.tail_percentile(n) == p
    values = list(range(1, n + 1))
    assert sum(v > harness.percentile(values, p) for v in values) >= 10


# -- the span log ------------------------------------------------------------------


class Layer:
    def outer(self, clock):
        clock.now += 1.0
        self.inner(clock)
        self.inner(clock)
        clock.now += 1.0

    def inner(self, clock):
        clock.now += 2.0


def test_spans_nest_and_self_time_excludes_children():
    clock = FakeClock()
    log = SpanLog(clock=clock)
    layer = Layer()
    with patched(log, [(Layer, "outer", "outer"), (Layer, "inner", "inner")]):
        layer.outer(clock)
    assert not hasattr(Layer.outer, "__wrapped__")  # restored
    totals = log.totals()
    assert totals["outer"] == {"calls": 1, "time_s": 6.0, "self_s": 2.0}
    assert totals["inner"] == {"calls": 2, "time_s": 4.0, "self_s": 4.0}
    assert list(log.parent) == [-1, 0, 0]


# -- correctness checks fire on wrong outcomes -----------------------------------


@pytest.fixture(scope="module")
def noc_problems():
    problems, _ = ga.load_problems(["noc-frequency"])
    return problems


TINY_PLAN = ga.Plan(
    "paper-battery",
    units=(("noc-frequency", 1), ("noc-frequency", 2)),
    warmup=(("noc-frequency", 3),),
    population=4,
    generations=3,
    step_units=False,
)


def tiny_outcomes(problems):
    ref = Reference()
    return ga.run_pass(TINY_PLAN, problems, ref, TINY_PLAN.units, None).outcomes


def test_ga_checks_pass_on_real_outcomes(noc_problems):
    outcomes = tiny_outcomes(noc_problems)
    assert ga.check_outcomes(outcomes, noc_problems) == []
    assert ga.check_repeats(outcomes, tiny_outcomes(noc_problems)) == []


def test_ga_check_fires_on_a_wrong_best_value(noc_problems):
    out = tiny_outcomes(noc_problems)[0]
    wrong = dataclasses.replace(out, best_raw=out.best_raw + 1.0)
    assert ga.check_outcomes([wrong], noc_problems)


def test_ga_check_fires_on_a_best_that_is_not_in_the_dataset(noc_problems):
    out = tiny_outcomes(noc_problems)[0]
    config = dict(out.best_config)
    config[next(iter(config))] = "no such value"
    wrong = dataclasses.replace(out, best_config=tuple(sorted(config.items())))
    assert ga.check_outcomes([wrong], noc_problems)


def test_ga_checks_fire_on_a_repeat_or_traced_pass_that_differs(noc_problems):
    outcomes = tiny_outcomes(noc_problems)
    changed = [dataclasses.replace(outcomes[0], distinct=outcomes[0].distinct + 1)]
    assert ga.check_repeats(outcomes, changed)
    assert harness.compare_passes(outcomes[:1], changed)
    assert harness.compare_passes(outcomes, outcomes[:1])


def test_fleet_check_fires_on_a_wrong_outcome_fallback_or_lost_task(noc_problems):
    from repro.core.evaluator import DatasetEvaluator

    dataset = noc_problems["noc-frequency"].dataset
    inner = DatasetEvaluator(dataset)
    batch = fleet.make_batches(dataset, 5, 1)[0]
    good = [inner.evaluate(g) for g in batch]
    assert fleet.check_outcomes(inner, batch, good) == []
    wrong = list(good)
    wrong[3] = dict(wrong[3], fmax_mhz=wrong[3]["fmax_mhz"] + 1)
    assert fleet.check_outcomes(inner, batch, wrong)
    before = {"completed": 0, "local_fallback": 0}
    after = {"completed": len(batch), "local_fallback": 0}
    assert fleet.check_totals(len(batch), before, after) == []
    assert fleet.check_totals(len(batch), before, dict(after, local_fallback=2))
    assert fleet.check_totals(len(batch), before, dict(after, completed=1))


def test_service_check_fires_on_a_best_unlike_the_in_process_run(noc_problems):
    from repro.service.campaign import CampaignSpec, build_search

    datasets = {"noc": noc_problems["noc-frequency"].dataset}
    spec = service.campaign_specs(3, 1)[0]
    result = build_search(CampaignSpec.from_json(spec), datasets["noc"]).run()
    status = {"best_raw": result.best_raw, "best_config": result.best_config}
    assert service.reference_checks([(spec, status)], datasets) == []
    wrong = dict(status, best_raw=result.best_raw * 0.5)
    assert service.reference_checks([(spec, wrong)], datasets)


def test_a_flagged_reference_makes_the_run_incorrect(tmp_path, capsys):
    ref, _ = fake_reference([2.0, 2.0], steal_ms=1.0)
    ref.chunk()
    ref.chunk()
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: Metric(1.0, m["unit"]) for m in spec["end_to_end"]}
    report = {"ref": ref, "metrics": metrics, "problems": [], "attempted": 1, "failed": 0}
    emit("paper-battery", report, False, SPEC, tmp_path)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


# -- every metric name and unit is emitted ----------------------------------------


def emitted(report, trace, tmp_path, capsys, workload):
    emit(workload, report, trace, SPEC, tmp_path)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"], report["problems"]
    return result["metrics"]


@pytest.fixture
def tiny(monkeypatch):
    for module in (ga, fleet, service):
        monkeypatch.setattr(module, "SETUP_REPEATS", 1)
    monkeypatch.setattr(fleet, "CYCLE", 3)
    monkeypatch.setattr(fleet, "WARMUP_BATCHES", 1)
    monkeypatch.setattr(service, "CYCLE", 2)
    monkeypatch.setattr(service, "WARMUP", 2)
    monkeypatch.setattr(service, "GENERATIONS", 2)


@pytest.mark.parametrize("trace", [False, True])
def test_ga_workload_emits_every_metric(tiny, tmp_path, capsys, trace):
    report = ga.run(TINY_PLAN, 0, trace, tmp_path)
    metrics = emitted(report, trace, tmp_path, capsys, "paper-battery")
    if trace:
        assert metrics["kernel.step_ms"]["value"] > 0
        assert metrics["selection.calls"]["value"] > 0
        assert (tmp_path / "spans-paper-battery.npz").exists()
    else:
        assert metrics["evals_to_target"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_fleet_workload_emits_every_metric(tiny, tmp_path, capsys, trace):
    work = tmp_path / "work"
    work.mkdir()
    report = fleet.run(7, 0, trace, work, tmp_path)
    metrics = emitted(report, trace, tmp_path, capsys, "fleet-overhead")
    if trace:
        assert metrics["fleet.exec_ms"]["value"] > 0
        assert metrics["fleet.local_fallback"]["value"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_service_workload_emits_every_metric(tiny, tmp_path, capsys, trace):
    work = tmp_path / "work"
    work.mkdir()
    report = service.run(7, 0, trace, work, tmp_path)
    metrics = emitted(report, trace, tmp_path, capsys, "service")
    if trace:
        assert metrics["archive.rows"]["value"] > 0
        assert metrics["http.status_p50_ms"]["value"] > 0
    else:
        assert metrics["throughput_per_s"]["value"] > 0
