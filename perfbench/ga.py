"""The two in-process GA workloads: ``paper-battery`` and ``large-pop``.

``paper-battery`` is what every figure runs: the four figure queries, 40
seeds each, population 10 x 80 generations, authored hints, the default
``GAConfig`` (observability on) and the inline dataset evaluator. Fixed
per-generation cost and the default-on telemetry dominate it.

``large-pop`` is ``noc-frequency`` at population 240 x 40 generations.
Roulette selection (an O(pop) scan per draw), breeding and feasibility
checks dominate it and the telemetry share falls: the opposite mix, so a
telemetry change shows on one and a selection change on the other.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

from .harness import (
    SETUP_REPEATS,
    Intervals,
    Metric,
    Reference,
    compare_passes,
    peak_rss_mb_self,
    timed_setup,
    timing_metrics,
)
from .tracer import SpanLog, patched

FIGURE_QUERIES = (
    "noc-frequency",
    "noc-area-delay",
    "fft-luts",
    "fft-throughput-per-lut",
)
#: GA seeds per figure query on ``paper-battery`` (the paper's 40 runs).
BATTERY_SEEDS = 40
#: GA seeds on ``large-pop``: enough that the mean ``evals_to_target``
#: varies by a few percent between benchmark seeds, few enough that one
#: cycle (32 x 40 steps, about 13 s at nominal host speed) fits in a run.
LARGE_POP_SEEDS = 32
LARGE_POP_GENERATIONS = 40
#: Units re-run, untimed, after the timed pass: their outcomes must equal
#: the timed pass's, so every run checks that a (query, seed) repeats.
RECHECK_UNITS = 4
#: Share of the dataset optimum a run's best must come within.
TARGET_SHARE = 0.01


@dataclass(frozen=True)
class Plan:
    """One GA workload's inputs, all derived from the benchmark seed."""

    name: str
    units: tuple[tuple[str, int], ...]  # (query, GA seed), in run order
    warmup: tuple[tuple[str, int], ...]
    population: int
    generations: int
    step_units: bool  # latency unit: one step() (True) or one run (False)


def battery_plan(seed: int) -> Plan:
    base = seed * BATTERY_SEEDS
    units = tuple(
        (query, base + i) for i in range(BATTERY_SEEDS) for query in FIGURE_QUERIES
    )
    warmup = tuple((query, -1 - i) for i in range(5) for query in FIGURE_QUERIES)
    return Plan("paper-battery", units, warmup, 10, 80, step_units=False)


def large_pop_plan(seed: int) -> Plan:
    units = tuple(
        ("noc-frequency", seed * LARGE_POP_SEEDS + i) for i in range(LARGE_POP_SEEDS)
    )
    warmup = (("noc-frequency", -1),)
    return Plan("large-pop", units, warmup, 240, LARGE_POP_GENERATIONS, step_units=True)


@dataclass
class Problem:
    """A query resolved against its loaded dataset."""

    dataset: Any
    objective: Any
    hint_kind: str
    target: float


@dataclass(frozen=True)
class Outcome:
    """What one search run produced; equal outcomes mean equal searches."""

    query: str
    seed: int
    best_raw: float
    best_config: tuple
    distinct: int
    evals_to_target: int
    reached: bool
    requests: int
    memo_hits: int
    batch_dedup_hits: int
    infeasible: int


def load_problems(queries) -> tuple[dict[str, Problem], float]:
    """Load each query's dataset once; returns the problems and the seconds
    spent in ``load_dataset``."""
    from repro.queries import QUERIES, load_dataset, resolve_objective

    datasets: dict[str, Any] = {}
    load_s = 0.0
    problems = {}
    for query in queries:
        spec = QUERIES[query]
        if spec.space not in datasets:
            t0 = time.perf_counter()
            datasets[spec.space] = load_dataset(spec.space)
            load_s += time.perf_counter() - t0
        dataset = datasets[spec.space]
        objective, hint_kind = resolve_objective(spec)
        problems[query] = Problem(
            dataset, objective, hint_kind, target_value(dataset, objective)
        )
    return problems, load_s


def target_value(dataset, objective) -> float:
    """The raw value within ``TARGET_SHARE`` of the dataset optimum."""
    optimum = dataset.best_value(objective)
    slack = TARGET_SHARE * abs(optimum)
    return optimum - slack if objective.maximizing else optimum + slack


def make_search(plan: Plan, problem: Problem, seed: int):
    from repro.core.engine import GAConfig, GeneticSearch
    from repro.core.evaluator import DatasetEvaluator
    from repro.queries import build_hints

    return GeneticSearch(
        problem.dataset.space,
        DatasetEvaluator(problem.dataset),
        problem.objective,
        GAConfig(
            population_size=plan.population,
            generations=plan.generations,
            seed=seed,
        ),
        hints=build_hints(problem.hint_kind),
    )


def outcome_of(query: str, seed: int, problem: Problem, result) -> Outcome:
    reached = result.evals_to_reach(problem.target)
    stats = result.eval_stats
    return Outcome(
        query=query,
        seed=seed,
        best_raw=result.best_raw,
        best_config=tuple(sorted(result.best_config.items())),
        distinct=result.distinct_evaluations,
        evals_to_target=reached if reached is not None else result.distinct_evaluations,
        reached=reached is not None,
        requests=stats.requests,
        memo_hits=stats.memo_hits,
        batch_dedup_hits=stats.batch_dedup_hits,
        infeasible=stats.infeasible,
    )


@dataclass
class PassResult:
    latencies: Intervals
    busy: Intervals  # every timed interval, for throughput
    outcomes: list[Outcome]
    attempted: int
    failed: int
    generations: int


def run_pass(
    plan: Plan,
    problems: dict[str, Problem],
    ref: Reference,
    units,
    seconds: float | None,
) -> PassResult:
    """Run ``units`` in order, cycling until ``seconds`` have passed (one
    cycle when ``seconds`` is None). Reference chunks fall between units."""
    clock = ref.clock
    latencies, busy = Intervals(), Intervals()
    outcomes: list[Outcome] = []
    attempted = failed = generations = 0
    began = clock()
    index = 0
    while index < len(units) or (
        seconds is not None and clock() - began < seconds
    ):
        query, seed = units[index % len(units)]
        index += 1
        problem = problems[query]
        attempted += 1
        try:
            if plan.step_units:
                ref.pace()
                t0 = clock()
                search = make_search(plan, problem, seed)
                search.start()
                t1 = clock()
                busy.add(t0, t1, 0)
                while True:
                    ref.pace()
                    t0 = clock()
                    record = search.step()
                    t1 = clock()
                    busy.add(t0, t1, 0 if record is None else 1)
                    if record is None:
                        break
                    latencies.add(t0, t1)
                result = search.result()
            else:
                ref.pace()
                t0 = clock()
                result = make_search(plan, problem, seed).run()
                t1 = clock()
                latencies.add(t0, t1, plan.generations)
                busy.add(t0, t1, plan.generations)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        generations += plan.generations
        outcomes.append(outcome_of(query, seed, problem, result))
    return PassResult(latencies, busy, outcomes, attempted, failed, generations)


# -- correctness ------------------------------------------------------------------


def check_outcomes(outcomes: list[Outcome], problems: dict[str, Problem]) -> list[str]:
    """Every reported best must be a dataset row with exactly that value."""
    from repro.core.errors import NautilusError

    problems_found = []
    for out in outcomes:
        problem = problems[out.query]
        try:
            metrics = problem.dataset.lookup(dict(out.best_config))
        except NautilusError as exc:  # not a row, an infeasible row, or invalid
            problems_found.append(f"{out.query} seed {out.seed}: best not in dataset ({exc})")
            continue
        if problem.objective.raw(metrics) != out.best_raw:
            problems_found.append(
                f"{out.query} seed {out.seed}: best_raw {out.best_raw} != "
                f"dataset value {problem.objective.raw(metrics)}"
            )
    return problems_found


def check_repeats(*passes: list[Outcome]) -> list[str]:
    """Runs of the same (query, seed) must produce identical outcomes."""
    first: dict[tuple[str, int], Outcome] = {}
    found = []
    for outcomes in passes:
        for out in outcomes:
            key = (out.query, out.seed)
            seen = first.setdefault(key, out)
            if seen != out:
                found.append(f"{out.query} seed {out.seed}: repeat differs: {seen} != {out}")
    return found


def evals_to_target(outcomes: list[Outcome], plan: Plan) -> float:
    """Mean over the plan's first cycle (exact for a given seed)."""
    wanted = set(plan.units)
    by_unit = {(o.query, o.seed): o.evals_to_target for o in outcomes}
    return statistics.mean(by_unit[u] for u in wanted if u in by_unit)


# -- the traced pass ---------------------------------------------------------------


def trace_targets() -> list:
    """The public calls the traced pass wraps, by layer."""
    from repro.core import kernel
    from repro.core.codec import SpaceCodec
    from repro.core.engine import GeneticSearch
    from repro.core.evalstack import EvaluationStack
    from repro.core.evaluator import DatasetEvaluator
    from repro.core.operators import BreedingPipeline
    from repro.core.selection import SELECTION_STRATEGIES
    from repro.core.space import DesignSpace

    return [
        (GeneticSearch, "start", "kernel.start"),
        (GeneticSearch, "step", "kernel.step"),
        (kernel, "population_health", "obs.health"),
        (kernel, "summarize_generation", "obs.attribution"),
        *[(SELECTION_STRATEGIES, key, "selection") for key in SELECTION_STRATEGIES],
        (BreedingPipeline, "breed", "operators.breed"),
        (DesignSpace, "is_feasible", "space.is_feasible"),
        (SpaceCodec, "decode", "codec.decode"),
        (EvaluationStack, "evaluate_many", "evalstack.evaluate_many"),
        (DatasetEvaluator, "evaluate", "evalstack.backend"),
    ]


def layer_metrics(
    log: SpanLog, outcomes: list[Outcome], scale: float
) -> dict[str, Metric]:
    """Per-layer numbers from the traced pass; ``scale`` normalizes times."""
    t = log.totals()

    def total(name: str, key: str = "time_s") -> float:
        return t.get(name, {}).get(key, 0.0) * scale

    def calls(name: str) -> int:
        return int(t.get(name, {}).get("calls", 0))

    gens = calls("kernel.start") + calls("kernel.step")
    kernel_s = total("kernel.start") + total("kernel.step")
    kernel_self = total("kernel.start", "self_s") + total("kernel.step", "self_s")
    steps = log.durations("kernel.step")
    health, attribution = total("obs.health"), total("obs.attribution")
    wall, backend = total("evalstack.evaluate_many"), total("evalstack.backend")
    requests = sum(o.requests for o in outcomes)
    distinct = sum(o.distinct for o in outcomes)

    def per_gen_ms(seconds: float) -> float:
        return seconds / gens * 1e3 if gens else 0.0

    return {
        "kernel.step_ms": Metric(
            statistics.mean(steps) * scale * 1e3 if steps else 0.0, "ms", len(steps)
        ),
        "kernel.self_share": Metric(kernel_self / kernel_s if kernel_s else 0.0, "1", gens),
        "obs.health_ms_per_gen": Metric(per_gen_ms(health), "ms", calls("obs.health")),
        "obs.attribution_ms_per_gen": Metric(
            per_gen_ms(attribution), "ms", calls("obs.attribution")
        ),
        "obs.share": Metric((health + attribution) / kernel_s if kernel_s else 0.0, "1", gens),
        "selection.calls": Metric(calls("selection"), "count"),
        "selection.ms_per_gen": Metric(per_gen_ms(total("selection")), "ms", calls("selection")),
        "operators.breed_ms_per_gen": Metric(
            per_gen_ms(total("operators.breed")), "ms", calls("operators.breed")
        ),
        "space.feasible_checks": Metric(calls("space.is_feasible"), "count"),
        "space.feasible_ms_per_gen": Metric(
            per_gen_ms(total("space.is_feasible")), "ms", calls("space.is_feasible")
        ),
        "codec.decode_calls": Metric(calls("codec.decode"), "count"),
        "evalstack.wall_ms_per_gen": Metric(
            per_gen_ms(wall), "ms", calls("evalstack.evaluate_many")
        ),
        "evalstack.backend_ms_per_gen": Metric(
            per_gen_ms(backend), "ms", calls("evalstack.backend")
        ),
        "evalstack.overhead_share": Metric((wall - backend) / wall if wall else 0.0, "1"),
        "evalstack.requests": Metric(requests, "count"),
        "evalstack.distinct": Metric(distinct, "count"),
        "evalstack.hit_rate": Metric((requests - distinct) / requests if requests else 0.0, "1"),
    }


# -- the workload ------------------------------------------------------------------


def run(plan: Plan, seconds: float, trace: bool, out_dir) -> dict[str, Any]:
    """Set up, warm up, measure; returns the report for ``run.py``."""
    ref = Reference()
    for _ in range(3):
        ref.chunk()  # warm the reference loop itself
    queries = sorted({q for q, _ in plan.units})
    load_raw: list[float] = []

    def setup():
        problems, load_s = load_problems(queries)
        load_raw.append(load_s)
        return problems

    problems, setups = timed_setup(ref, setup, repeats=SETUP_REPEATS)
    run_pass(plan, problems, ref, plan.warmup, None)

    problems_found: list[str] = []
    report: dict[str, Any] = {"ref": ref}
    if not trace:
        measured = run_pass(plan, problems, ref, plan.units, seconds)
        recheck = run_pass(plan, problems, ref, plan.units[:RECHECK_UNITS], None)
        problems_found += check_outcomes(measured.outcomes, problems)
        problems_found += check_repeats(measured.outcomes, recheck.outcomes)
        if len(recheck.outcomes) != len(plan.units[:RECHECK_UNITS]):
            problems_found.append("a re-run of the first units failed")
        metrics = timing_metrics(
            measured.latencies, ref, setups, measured.generations,
            throughput_time=measured.busy,
        )
        metrics["peak_rss_mb"] = Metric(peak_rss_mb_self(), "MB")
        metrics["completed_ratio"] = Metric(
            (measured.attempted - measured.failed) / measured.attempted, "1",
            measured.attempted,
        )
        metrics["evals_to_target"] = Metric(
            evals_to_target(measured.outcomes, plan), "evals", len(plan.units),
            note=f"{sum(o.reached for o in measured.outcomes[:len(plan.units)])}"
            f"/{len(plan.units)} runs reached the target",
        )
        report.update(metrics=metrics, attempted=measured.attempted, failed=measured.failed)
    else:
        plain = run_pass(plan, problems, ref, plan.units, None)
        log = SpanLog(clock=ref.clock)
        with patched(log, trace_targets()):
            traced = run_pass(plan, problems, ref, plan.units, None)
        problems_found += check_outcomes(traced.outcomes, problems)
        problems_found += compare_passes(plain.outcomes, traced.outcomes)
        scale = ref.nominal_ms / ref.ref_ms
        metrics = layer_metrics(log, traced.outcomes, scale)
        plain_s = sum(plain.busy.normalized_s(ref))
        traced_s = sum(traced.busy.normalized_s(ref))
        metrics["trace.overhead_share"] = Metric((traced_s - plain_s) / plain_s, "1")
        metrics["trace.spans"] = Metric(len(log), "count")
        metrics["dataset.load_s"] = Metric(
            statistics.median(load_raw) * scale, "s", len(load_raw)
        )
        log.write(out_dir / f"spans-{plan.name}.npz")
        report.update(
            metrics=metrics,
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
        )
    report["problems"] = problems_found
    return report
