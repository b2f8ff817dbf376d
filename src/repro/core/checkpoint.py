"""Checkpoint/resume for long search campaigns.

Against real CAD tools a Nautilus run is hours-to-days of synthesis jobs;
losing the evaluation cache to a crash wastes all of it. A
:class:`SearchCheckpoint` snapshots everything a generational search needs
to continue — the current population, the state of every named RNG stream,
the per-generation records (replayed into the kernel's trace on resume),
the stall counter, and (crucially) the evaluation cache, so resumed runs
never re-pay for a synthesized design.

Snapshots are plain JSON: portable, inspectable, and independent of Python
pickling across versions. Format 4 (current) stores the population as
*code vectors* (ordinal domain indices, one per parameter in declaration
order) and cache rows as ordered value lists, alongside the parameter-name
order as a corruption guard — matching the encoded genome core, smaller on
disk, and restored through the range-checked
:meth:`~repro.core.space.DesignSpace.genome_from_indices` boundary. All
earlier formats still load:

====== ======================================================================
Format Contents / migration
====== ======================================================================
4      Population as code vectors; cache rows as ``{"values": [...]}``;
       ``params`` order guard. Current.
3      Population as config dicts; cache rows as ``{"config": {...}}``;
       guidance provider state. Loadable — configs re-encode through the
       validating path.
2      Format 3 without guidance state (provider stays at its constructed
       state on resume).
1      Single shared RNG state, no stall counter (counter replayed from the
       recorded best-score curve).
====== ======================================================================

Both the single-objective GA (:class:`CheckpointedSearch`) and the NSGA-II
engine (:class:`CheckpointedParetoSearch`) checkpoint through the same
mixin — the service schedules and resumes them identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .appendlog import atomic_write
from .engine import GAConfig, GenerationRecord, GeneticSearch
from .errors import NautilusError
from .evaluator import Evaluator
from .fitness import Objective
from .genome import Genome
from .guidance import GuidanceProvider, GuidanceState
from .hints import HintSet
from .kernel import RngStreams
from .pareto import ParetoSearch
from .population import Population
from .space import DesignSpace

__all__ = ["SearchCheckpoint", "CheckpointedSearch", "CheckpointedParetoSearch"]

_FORMAT_VERSION = 4

_RECORD_KEYS = (
    "generation",
    "best_raw",
    "best_score",
    "mean_score",
    "distinct_evaluations",
    "best_config",
)


class SearchCheckpoint:
    """Serializable snapshot of an in-flight generational search."""

    def __init__(
        self,
        space_name: str,
        generation: int,
        population: list,
        rng_streams: dict[str, Any],
        records: list[dict[str, Any]],
        cache: list[dict[str, Any]],
        stalled: int | None = None,
        guidance: dict[str, Any] | None = None,
        params: list[str] | None = None,
    ):
        self.space_name = space_name
        self.generation = generation
        #: Format 4: code vectors (``list[list[int]]``); formats 1-3:
        #: config dicts. Use :meth:`population_genomes` to materialize.
        self.population = population
        #: Parameter names in the order the code vectors index — a guard
        #: against resuming into a space whose declaration order changed.
        #: ``None`` for pre-format-4 snapshots (configs carry names).
        self.params = params
        #: :meth:`RngStreams.getstate` payload — every named stream.
        self.rng_streams = rng_streams
        self.records = records
        self.cache = cache
        #: Consecutive no-improvement generations at snapshot time;
        #: ``None`` for format-1 snapshots (replayed from the records).
        self.stalled = stalled
        #: :meth:`GuidanceProvider.state_dict` payload at snapshot time;
        #: ``None`` for unguided runs and pre-format-3 snapshots.
        self.guidance = guidance

    def save(self, path: str | Path) -> None:
        payload = {
            "format": _FORMAT_VERSION,
            "space": self.space_name,
            "params": self.params,
            "generation": self.generation,
            "population": self.population,
            "rng_streams": self.rng_streams,
            "records": self.records,
            "cache": self.cache,
            "stalled": self.stalled,
            "guidance": self.guidance,
        }
        atomic_write(path, json.dumps(payload))  # a crash never tears it

    @classmethod
    def load(cls, path: str | Path) -> "SearchCheckpoint":
        payload = json.loads(Path(path).read_text())
        version = payload.get("format")
        if version == 1:
            # Format 1 stored one shared RNG state and no stall counter.
            rng_streams = {
                "mode": "shared",
                "streams": {"shared": payload["rng_state"]},
            }
            stalled = None
        elif version in (2, 3, _FORMAT_VERSION):
            rng_streams = payload["rng_streams"]
            stalled = payload.get("stalled")
        else:
            raise NautilusError(f"unsupported checkpoint format {version!r}")
        return cls(
            space_name=payload["space"],
            generation=payload["generation"],
            population=payload["population"],
            rng_streams=rng_streams,
            records=payload["records"],
            cache=payload["cache"],
            stalled=stalled,
            # Pre-format-3 snapshots carry no provider state.
            guidance=payload.get("guidance"),
            # Pre-format-4 snapshots carry no code vectors, hence no guard.
            params=payload.get("params"),
        )

    # -- materialization ---------------------------------------------------------

    def population_genomes(self, space: DesignSpace) -> list[Genome]:
        """Rebuild the checkpointed population against a live space.

        Format-4 entries (code vectors) go through the range-checked
        :meth:`~repro.core.space.DesignSpace.genome_from_indices` boundary;
        pre-format-4 entries (config dicts) go through the validating
        ``space.genome`` path.
        """
        genomes = []
        for entry in self.population:
            if isinstance(entry, dict):
                genomes.append(space.genome(entry))
            else:
                genomes.append(space.genome_from_indices(entry))
        return genomes

    def cache_configs(self, space: DesignSpace):
        """Yield ``(config dict, metrics)`` for every cached evaluation.

        Handles both format-4 rows (``{"values": [...]}`` in parameter
        declaration order) and earlier ``{"config": {...}}`` rows.
        """
        names = tuple(self.params) if self.params else space.param_names
        for row in self.cache:
            values = row.get("values")
            if values is not None:
                yield dict(zip(names, values)), row["metrics"]
            else:
                yield row["config"], row["metrics"]


class _CheckpointMixin:
    """Snapshot/resume plumbing shared by every checkpointed engine.

    Composes with any :class:`~repro.core.kernel.SearchKernel` subclass
    whose population members expose ``.genome``: the mixin serializes the
    population as config dicts, captures all RNG streams and the memoized
    evaluation cache, and on resume replays the recorded generations into
    the kernel's trace (without notifying sinks — the events were already
    delivered before the interruption).
    """

    def _init_checkpointing(
        self, checkpoint_path: str | Path, checkpoint_every: int
    ) -> None:
        if checkpoint_every < 1:
            raise NautilusError("checkpoint_every must be >= 1")
        self.checkpoint_path = Path(checkpoint_path)
        self.checkpoint_every = checkpoint_every
        self._resume_from: SearchCheckpoint | None = None

    # -- snapshotting -----------------------------------------------------------

    def _snapshot(self) -> None:
        cache_rows = []
        for key, value in self._counter.memo_items():
            __, values = key
            if isinstance(value, Exception):
                cache_rows.append({"values": list(values), "metrics": None})
            else:
                cache_rows.append({"values": list(values), "metrics": dict(value)})
        SearchCheckpoint(
            space_name=self.space.name,
            generation=self._generation,
            population=[list(ind.genome.codes) for ind in self._population],
            params=list(self.space.param_names),
            rng_streams=self.rngs.getstate(),
            records=[
                {key: getattr(r, key) for key in _RECORD_KEYS}
                for r in self.records
            ],
            cache=cache_rows,
            stalled=self._stalled_generations,
            guidance=(
                self._guidance.state_dict() if self._guidance is not None else None
            ),
        ).save(self.checkpoint_path)

    def resume(self, path: str | Path | None = None):
        """Load a snapshot; the next :meth:`run` continues from it.

        The evaluation cache is restored immediately (so even pre-run
        lookups are free); population, RNG streams and history are restored
        when the search starts.
        """
        checkpoint = SearchCheckpoint.load(path or self.checkpoint_path)
        if checkpoint.space_name != self.space.name:
            raise NautilusError(
                f"checkpoint is for space {checkpoint.space_name!r}, "
                f"not {self.space.name!r}"
            )
        if checkpoint.params is not None and tuple(checkpoint.params) != self.space.param_names:
            raise NautilusError(
                f"checkpoint parameter order {tuple(checkpoint.params)!r} does "
                f"not match space {self.space.name!r} parameters "
                f"{self.space.param_names!r}"
            )
        # Restored entries are charged as distinct evaluations — they were
        # paid for before the interruption.
        for config, metrics in checkpoint.cache_configs(self.space):
            genome = self.space.genome(config)
            self._counter.preload(genome, metrics, charge=True)
        self._resume_from = checkpoint
        return self

    # -- lifecycle --------------------------------------------------------------

    def start(self):
        """Start fresh, or restore the full state of a loaded snapshot.

        On resume the population, RNG streams, history (replayed into the
        trace), best-so-far and the stall counter are all reconstituted
        from the checkpoint, so the continued step sequence is exactly the
        run that would have happened without the interruption — including
        ``stall_generations`` cutoffs. Returns the record of the last
        completed generation.
        """
        if self._resume_from is None:
            return super().start()
        if self.started:
            raise NautilusError("search already started")
        checkpoint = self._resume_from
        self._resume_from = None
        self._rngs = RngStreams(self.seed, split=self.split_rngs)
        self._rngs.setstate(checkpoint.rng_streams)
        self._restore_population(checkpoint)
        for payload in checkpoint.records:
            self._replay_record(payload)
        self._generation = checkpoint.generation
        if checkpoint.stalled is not None:
            self._stalled_generations = checkpoint.stalled
        else:
            # Format-1 snapshots: replay the stall counter from the
            # recorded best-so-far curve — a trailing record whose
            # best_score did not improve on its predecessor was a stalled
            # generation.
            records = self.records
            stalled = 0
            for previous, current in zip(records, records[1:]):
                stalled = (
                    0 if current.best_score > previous.best_score else stalled + 1
                )
            self._stalled_generations = stalled
        if self._guidance is not None:
            if checkpoint.guidance is not None:
                self._guidance.load_state_dict(checkpoint.guidance)
            # Rebuild the in-force state for the checkpointed generation so
            # the next step's advance() continues the provider's sequence.
            self._guidance_state = self._guidance.peek(checkpoint.generation)
        else:
            self._guidance_state = GuidanceState.neutral(checkpoint.generation)
        records = self.records
        return records[-1] if records else self._make_record(self._generation)

    def _after_generation(self, record: GenerationRecord) -> None:
        if record.generation % self.checkpoint_every == 0:
            self._snapshot()

    def _on_finish(self, reason: str) -> None:
        self._snapshot()

    # -- engine-specific restoration ---------------------------------------------

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        raise NotImplementedError  # pragma: no cover - abstract


class CheckpointedSearch(_CheckpointMixin, GeneticSearch):
    """A :class:`GeneticSearch` that snapshots every N generations.

    Args:
        checkpoint_path: Where snapshots are written (atomically).
        checkpoint_every: Generations between snapshots.

    Use :meth:`resume` to continue from a snapshot: the population, RNG
    streams, history and — most importantly — the cache of already-paid-for
    evaluations are all restored, so the continued run is exactly the run
    that would have happened without the interruption.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objective: Objective,
        config: GAConfig | None = None,
        hints: HintSet | None = None,
        label: str = "",
        checkpoint_path: str | Path = "nautilus.ckpt.json",
        checkpoint_every: int = 5,
        guidance: GuidanceProvider | None = None,
    ):
        super().__init__(
            space, evaluator, objective, config, hints, label, guidance=guidance
        )
        self._init_checkpointing(checkpoint_path, checkpoint_every)

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        # Cached, so re-assessing the population costs no synthesis jobs.
        self._population = Population(
            [self._assess(g) for g in checkpoint.population_genomes(self.space)]
        )
        best = max(self._population, key=lambda ind: ind.score)
        for row in checkpoint.records:
            if row["best_score"] > best.score:
                best = self._assess(self.space.genome(row["best_config"]))
        self._best = best


class CheckpointedParetoSearch(_CheckpointMixin, ParetoSearch):
    """A :class:`ParetoSearch` that snapshots every N generations.

    Multi-objective runs checkpoint exactly like single-objective ones:
    scores are *not* serialized — the population is re-assessed from the
    restored evaluation cache, then re-ranked, so the resumed NSGA-II state
    (ranks, crowding, front signature) is rebuilt bit-identically.
    """

    def __init__(
        self,
        space: DesignSpace,
        evaluator: Evaluator,
        objectives,
        config: GAConfig | None = None,
        hints: HintSet | None = None,
        label: str = "pareto",
        checkpoint_path: str | Path = "nautilus.ckpt.json",
        checkpoint_every: int = 5,
        guidance: GuidanceProvider | None = None,
    ):
        super().__init__(
            space, evaluator, objectives, config, hints, label, guidance=guidance
        )
        self._init_checkpointing(checkpoint_path, checkpoint_every)

    def _restore_population(self, checkpoint: SearchCheckpoint) -> None:
        self._population = self._assess_all(
            checkpoint.population_genomes(self.space)
        )
        self._rank(self._population)
        self._front_signature = self._signature()
        self._best = self._projected_best()
