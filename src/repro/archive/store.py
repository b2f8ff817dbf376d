"""The cross-campaign design archive — every evaluated point, queryable.

The paper's economics are per-campaign: hints make *one* search cheap. But a
daemon that has served many campaigns has already paid for thousands of
synthesis results, and today each new campaign starts cold. The archive
turns that history into a knowledge base: an append-only, content-addressed
store of every evaluated design point (code-addressable via the space's
:class:`~repro.core.codec.SpaceCodec`), plus an in-memory index answering
the retrieval questions new searches ask:

* top-k designs by an objective (warm-start seeding),
* nearest neighbors in ordinal code space,
* per-parameter marginal statistics (spread / rank correlation — the raw
  material :class:`~repro.archive.guidance.ArchiveGuidance` mines hints
  from),
* the cross-campaign Pareto front over any metric set.

Layout mirrors :class:`~repro.core.evalstack.PersistentCache`: one JSONL
file per (space, evaluator fingerprint) under ``root``, named
``<space>-<sha1(fingerprint)[:12]>.jsonl``. The first line is a
self-describing header; each following line is one design point::

    {"kind": "nautilus-archive", "schema": 1, "space": "router",
     "params": ["topology", ...], "fingerprint": "..."}
    {"values": [..], "metrics": {"fmax_mhz": 612.0, ..}, "campaign": "c3"}
    {"values": [..], "metrics": null, "campaign": "c3"}      # infeasible

Rows are deduplicated by the canonical values key (first writer wins — an
archive row is immutable once recorded, since two evaluators sharing a
fingerprint return identical metrics). Files are
:class:`~repro.core.appendlog.AppendLog` logs, so a torn row from a killed
daemon is skipped on load and fenced off before the next append. One lock
guards the in-memory slots and file appends, so every campaign stack of a
daemon shares one instance.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TYPE_CHECKING

from ..core.appendlog import AppendLog, read_header, scan
from ..core.errors import EvaluationError, InfeasibleDesignError, NautilusError
from ..core.params import values_key

if TYPE_CHECKING:  # pragma: no cover
    from ..core.fitness import Objective
    from ..core.genome import Genome
    from ..core.space import DesignSpace

__all__ = ["DesignArchive", "ARCHIVE_SCHEMA_VERSION"]

#: Version stamp carried by every archive file header.
ARCHIVE_SCHEMA_VERSION = 1

_KIND = "nautilus-archive"

#: Keys every archive row carries; rows without them are skipped.
_ROW_KEYS = ("values", "metrics")


class _Slot:
    """In-memory index of one (space, fingerprint) archive file."""

    __slots__ = ("params", "rows")

    def __init__(self, params: tuple[str, ...] | None):
        self.params = params
        #: values_key -> {"values": [...], "metrics": {...}|None, "campaign": str}
        self.rows: dict[tuple, dict[str, Any]] = {}


class DesignArchive:
    """Append-only store + retrieval index over all evaluated designs.

    Args:
        root: Directory holding one JSONL file per (space, fingerprint).
        registry: Optional duck-typed metrics registry (a
            :class:`repro.obs.registry.MetricsRegistry` in the daemon);
            when given, appended rows increment the
            ``nautilus_archive_rows_total`` counter.
    """

    def __init__(self, root: str | Path, registry=None):
        self.root = Path(root)
        self._lock = threading.RLock()
        self._slots: dict[tuple[str, str], _Slot] = {}
        self._rows_counter = None
        if registry is not None:
            self._rows_counter = registry.counter(
                "nautilus_archive_rows_total",
                "Design points appended to the cross-campaign archive.",
            )

    # -- file mapping -----------------------------------------------------------

    def _path(self, space_name: str, fingerprint: str) -> Path:
        digest = hashlib.sha1(fingerprint.encode("utf-8")).hexdigest()[:12]
        return self.root / f"{space_name}-{digest}.jsonl"

    def _load(
        self,
        space_name: str,
        fingerprint: str,
        params: Sequence[str] | None = None,
    ) -> _Slot:
        """The in-memory slot for one file, parsing it on first access."""
        key = (space_name, fingerprint)
        slot = self._slots.get(key)
        if slot is not None:
            if params is not None and slot.params is not None and tuple(
                params
            ) != slot.params:
                raise NautilusError(
                    f"archive file for space {space_name!r} indexes parameters "
                    f"{slot.params!r}, not {tuple(params)!r}"
                )
            return slot
        slot = _Slot(tuple(params) if params is not None else None)
        path = self._path(space_name, fingerprint)
        header, rows, _ = scan(path, header=True, require=_ROW_KEYS)
        if header is not None:
            if (
                header.get("kind") != _KIND
                or header.get("space") != space_name
                or header.get("fingerprint") != fingerprint
            ):
                raise NautilusError(
                    f"archive file {path} does not match space "
                    f"{space_name!r} / fingerprint {fingerprint!r}"
                )
            file_params = tuple(header.get("params", ()))
            if slot.params is not None and file_params != slot.params:
                raise NautilusError(
                    f"archive file {path} indexes parameters "
                    f"{file_params!r}, not {slot.params!r}"
                )
            slot.params = file_params
        for row in rows:
            try:
                row_key = values_key(row["values"])
            except TypeError:
                continue  # corrupt row; never poison the index
            slot.rows.setdefault(row_key, row)  # first writer wins
        self._slots[key] = slot
        return slot

    def _append(
        self,
        space_name: str,
        params: Sequence[str],
        fingerprint: str,
        entries: Iterable[tuple[Sequence[Any], dict | None]],
        campaign: str,
    ) -> int:
        """Append ``(values, metrics)`` rows, deduplicated; returns written."""
        slot = self._load(space_name, fingerprint, params)
        if slot.params is None:
            slot.params = tuple(params)
        fresh = []
        for values, metrics in entries:
            row_key = values_key(values)
            if row_key in slot.rows:
                continue
            row = {"values": list(row_key), "metrics": metrics, "campaign": campaign}
            slot.rows[row_key] = row
            fresh.append(row)
        header = {
            "kind": _KIND,
            "schema": ARCHIVE_SCHEMA_VERSION,
            "space": space_name,
            "params": list(params),
            "fingerprint": fingerprint,
        }
        with AppendLog(self._path(space_name, fingerprint), header) as log:
            log.append(fresh)
        if fresh and self._rows_counter is not None:
            self._rows_counter.inc(len(fresh))
        return len(fresh)

    # -- recording --------------------------------------------------------------

    def record_many(
        self, outcomes, fingerprint: str, campaign: str = ""
    ) -> int:
        """Record ``(genome, outcome)`` pairs; returns rows actually written.

        Mirrors the persistent cache's policy: metrics dicts and
        :class:`~repro.core.errors.InfeasibleDesignError` outcomes are
        archived (the failed synthesis was knowledge too); other exceptions
        are transient and skipped. Already-archived designs are skipped —
        the first campaign to evaluate a point owns its row.
        """
        grouped: dict[str, list[tuple[tuple, dict | None]]] = {}
        params: dict[str, tuple[str, ...]] = {}
        for genome, outcome in outcomes:
            if isinstance(outcome, InfeasibleDesignError):
                metrics = None
            elif isinstance(outcome, Exception):
                continue
            else:
                metrics = dict(outcome)
            space = genome.space
            grouped.setdefault(space.name, []).append((genome.key[1], metrics))
            params[space.name] = space.param_names
        written = 0
        with self._lock:
            for space_name, entries in grouped.items():
                written += self._append(
                    space_name, params[space_name], fingerprint, entries, campaign
                )
        return written

    def record(
        self, genome: "Genome", outcome, fingerprint: str, campaign: str = ""
    ) -> bool:
        """Record one outcome; True when a new row was written."""
        return self.record_many([(genome, outcome)], fingerprint, campaign) == 1

    def import_cache(self, cache_root: str | Path, campaign: str = "import") -> dict:
        """One-shot import of :class:`~repro.core.evalstack.PersistentCache` files.

        Walks ``cache_root`` for cache JSONL files (header:
        ``{"space", "params", "fingerprint"}``), appending every row not
        already archived under ``campaign``. Archive files found there are
        skipped (their header carries a ``kind``), as are torn/corrupt
        lines. Returns ``{"files", "imported", "skipped"}``.
        """
        cache_root = Path(cache_root)
        report = {"files": 0, "imported": 0, "skipped": 0}
        paths = sorted(cache_root.glob("*.jsonl")) if cache_root.exists() else []
        with self._lock:
            for path in paths:
                header, rows, _ = scan(path, header=True, require=_ROW_KEYS)
                entries = [(row["values"], row["metrics"]) for row in rows]
                if (
                    header is None
                    or "kind" in header  # an archive file, not a cache file
                    or not header.get("space")
                    or not header.get("params")
                    or "fingerprint" not in header
                ):
                    continue
                report["files"] += 1
                written = self._append(
                    header["space"],
                    list(header["params"]),
                    header["fingerprint"],
                    entries,
                    campaign,
                )
                report["imported"] += written
                report["skipped"] += len(entries) - written
        return report

    # -- indexed access ----------------------------------------------------------

    def entries(self, space: "DesignSpace", fingerprint: str) -> int:
        """Number of archived rows for one (space, fingerprint)."""
        with self._lock:
            return len(self._load(space.name, fingerprint, space.param_names).rows)

    def _indexed_rows(
        self, space: "DesignSpace", fingerprint: str
    ) -> list[tuple[tuple[int, ...], dict[str, Any]]]:
        """``(codes, row)`` pairs for rows that still decode against ``space``.

        Rows whose values fell out of the live space's domains (the IP
        generator evolved) are silently excluded from queries — they stay
        on disk, but no retrieval path can hand a stale design to a search.
        """
        slot = self._load(space.name, fingerprint, space.param_names)
        codec = space.codec
        index_maps = codec.index_maps
        num_params = codec.num_params
        out = []
        for row_key, row in slot.rows.items():
            if len(row_key) != num_params:
                continue
            codes = []
            for pos, value in enumerate(row_key):
                code = index_maps[pos].get(value)
                if code is None:
                    break
                codes.append(code)
            else:
                out.append((tuple(codes), row))
        return out

    def scored_rows(
        self, space: "DesignSpace", fingerprint: str, objective: "Objective"
    ) -> list[tuple[tuple[int, ...], float, dict[str, Any]]]:
        """Feasible rows as ``(codes, internal score, row)`` triples.

        Scores come from :meth:`Objective.score` — the engine's internal
        maximized orientation — so every consumer (top-k, hint mining)
        ranks consistently regardless of the metric's direction.
        """
        with self._lock:
            indexed = self._indexed_rows(space, fingerprint)
        out = []
        for codes, row in indexed:
            metrics = row["metrics"]
            if metrics is None:
                continue
            try:
                score = objective.score(metrics)
            except (EvaluationError, KeyError, TypeError, ZeroDivisionError):
                continue  # row predates this metric; not comparable
            out.append((codes, score, row))
        return out

    def top_k(
        self,
        space: "DesignSpace",
        fingerprint: str,
        objective: "Objective",
        k: int = 10,
    ) -> list[dict[str, Any]]:
        """The k best archived designs for an objective, best first.

        Ties break on the code vector, so the ranking is deterministic
        across processes and reload orders.
        """
        rows = self.scored_rows(space, fingerprint, objective)
        rows.sort(key=lambda item: (-item[1], item[0]))
        codec = space.codec
        return [
            {
                "config": dict(zip(codec.names, codec.decode(codes))),
                "metrics": dict(row["metrics"]),
                "score": score,
                "raw": objective.raw(row["metrics"]),
                "campaign": row.get("campaign", ""),
            }
            for codes, score, row in rows[: max(k, 0)]
        ]

    def warm_start_configs(
        self,
        space: "DesignSpace",
        fingerprint: str,
        objective: "Objective",
        k: int,
    ) -> list[dict[str, Any]]:
        """Top-k archived configs, best first — ``GAConfig.warm_start`` food."""
        return [entry["config"] for entry in self.top_k(space, fingerprint, objective, k)]

    def nearest(
        self,
        space: "DesignSpace",
        fingerprint: str,
        config: "Mapping[str, Any] | Genome",
        k: int = 5,
    ) -> list[dict[str, Any]]:
        """The k archived rows closest to a design in ordinal code space.

        Distance is L1 over the code vector — one unit per ordinal step,
        the same axis guided mutation moves along.
        """
        if hasattr(config, "codes"):
            target = tuple(config.codes)
        else:
            target = space.genome(dict(config)).codes
        with self._lock:
            indexed = self._indexed_rows(space, fingerprint)
        ranked = sorted(
            (
                (sum(abs(a - b) for a, b in zip(codes, target)), codes, row)
                for codes, row in indexed
            ),
            key=lambda item: (item[0], item[1]),
        )
        codec = space.codec
        return [
            {
                "distance": distance,
                "config": dict(zip(codec.names, codec.decode(codes))),
                "metrics": None if row["metrics"] is None else dict(row["metrics"]),
                "campaign": row.get("campaign", ""),
            }
            for distance, codes, row in ranked[: max(k, 0)]
        ]

    def marginals(
        self, space: "DesignSpace", fingerprint: str, objective: "Objective"
    ) -> dict[str, dict[str, Any]]:
        """Per-parameter marginal statistics over the archived feasible rows.

        For each parameter: how many distinct codes were observed, the
        spread of per-code mean scores (the importance signal), the
        Spearman rank correlation of code vs score for ordered parameters
        (the bias signal), and the best code's decoded value.
        """
        from ..core.estimation import _pearson, _ranks

        rows = self.scored_rows(space, fingerprint, objective)
        codec = space.codec
        scores = [score for __, score, __ in rows]
        result: dict[str, dict[str, Any]] = {}
        for pos, name in enumerate(codec.names):
            by_code: dict[int, list[float]] = {}
            for codes, score, __ in rows:
                by_code.setdefault(codes[pos], []).append(score)
            means = {
                code: sum(values) / len(values) for code, values in by_code.items()
            }
            spread = (
                max(means.values()) - min(means.values()) if len(means) >= 2 else 0.0
            )
            correlation = 0.0
            if codec.ordered[pos] and len(rows) >= 2:
                xs = [codes[pos] for codes, __, __ in rows]
                if len(set(xs)) > 1 and len(set(scores)) > 1:
                    correlation = _pearson(_ranks(xs), _ranks(scores))
            best_code = (
                max(means, key=lambda code: (means[code], -code)) if means else None
            )
            result[name] = {
                "rows": len(rows),
                "codes_observed": len(means),
                "spread": spread,
                "correlation": correlation,
                "best_value": (
                    codec.domains[pos][best_code] if best_code is not None else None
                ),
            }
        return result

    def pareto_front(
        self,
        space: "DesignSpace",
        fingerprint: str,
        metrics: Sequence[str],
        directions: Sequence[str],
    ) -> list[dict[str, Any]]:
        """The cross-campaign non-dominated front over a metric set.

        ``directions`` is ``"max"``/``"min"`` per metric. Rows missing any
        of the metrics are excluded; the front spans every campaign that
        ever touched this (space, fingerprint).
        """
        if len(metrics) != len(directions):
            raise NautilusError("metrics and directions must align")
        signs = [1.0 if direction == "max" else -1.0 for direction in directions]
        with self._lock:
            indexed = self._indexed_rows(space, fingerprint)
        points = []
        for codes, row in indexed:
            values = row["metrics"]
            if values is None:
                continue
            try:
                point = tuple(
                    sign * float(values[name]) for sign, name in zip(signs, metrics)
                )
            except (KeyError, TypeError, ValueError):
                continue
            points.append((point, codes, row))

        def dominates(a: tuple, b: tuple) -> bool:
            return all(x >= y for x, y in zip(a, b)) and any(
                x > y for x, y in zip(a, b)
            )

        front = [
            entry
            for entry in points
            if not any(
                dominates(other[0], entry[0])
                for other in points
                if other is not entry
            )
        ]
        front.sort(key=lambda entry: (tuple(-v for v in entry[0]), entry[1]))
        codec = space.codec
        return [
            {
                "config": dict(zip(codec.names, codec.decode(codes))),
                "metrics": dict(row["metrics"]),
                "campaign": row.get("campaign", ""),
            }
            for __, codes, row in front
        ]

    # -- global readout ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Row/feasibility/campaign counts over every file under ``root``."""
        with self._lock:
            paths = sorted(self.root.glob("*.jsonl")) if self.root.exists() else []
            files = 0
            spaces: dict[str, int] = {}
            campaigns: dict[str, int] = {}
            rows = feasible = infeasible = 0
            for path in paths:
                header = read_header(path)
                if header is None or header.get("kind") != _KIND:
                    continue
                slot = self._load(header["space"], header["fingerprint"])
                files += 1
                for row in slot.rows.values():
                    rows += 1
                    spaces[header["space"]] = spaces.get(header["space"], 0) + 1
                    campaign = row.get("campaign", "")
                    campaigns[campaign] = campaigns.get(campaign, 0) + 1
                    if row["metrics"] is None:
                        infeasible += 1
                    else:
                        feasible += 1
            return {
                "rows": rows,
                "feasible": feasible,
                "infeasible": infeasible,
                "files": files,
                "spaces": spaces,
                "campaigns": campaigns,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignArchive({str(self.root)!r})"
