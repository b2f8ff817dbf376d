"""Print a workload's metrics: a readable table, then the one-line result."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .harness import Metric


def emit(workload: str, report: dict[str, Any], trace: bool, spec_path: Path, out_dir: Path) -> None:
    """Print the table and the final JSON line; keep the details on disk.

    ``report`` holds ``metrics`` (name -> :class:`Metric`), ``attempted``,
    ``failed``, ``problems`` (failed correctness checks) and ``ref`` (the
    run's :class:`~perfbench.harness.Reference`). A per-layer metric the
    workload does not exercise is reported as 0.
    """
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    ref = report["ref"]
    metrics: dict[str, Metric] = dict(report["metrics"])
    problems = list(report["problems"])
    if trace:
        metrics["host.ref_ms"] = Metric(ref.ref_ms, "ms", len(ref.ms))
    if ref.flagged:
        problems.append(
            f"other threads took {ref.stolen_share:.1%} of the reference "
            f"chunks' CPU time: normalized times are not trustworthy"
        )
    out: dict[str, dict[str, Any]] = {}
    rows = []
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        metric = metrics.get(name)
        if metric is None:
            if not trace:
                raise KeyError(f"workload {workload} did not report {name}")
            metric = Metric(0, unit, 0, note="layer not exercised")
        if metric.unit != unit:
            raise ValueError(f"{name}: unit {metric.unit} != declared {unit}")
        out[name] = {"value": metric.value, "unit": unit}
        raw = "" if metric.raw is None else f"{metric.raw:.6g}"
        rows.append((name, f"{metric.value:.6g}", unit, str(metric.samples), raw, metric.note))
    header = ("metric", "value", "unit", "samples", "raw", "note")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(
        f"host.ref_ms {ref.ref_ms:.4f} (nominal {ref.nominal_ms}) over "
        f"{len(ref.ms)} chunks; other-thread share {ref.stolen_share:.2%}"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": out,
    }
    details = {
        "workload": workload,
        "trace": trace,
        "result": result,
        "details": {
            name: {
                "value": m.value, "unit": m.unit, "samples": m.samples,
                "raw": m.raw, "note": m.note,
            }
            for name, m in metrics.items()
        },
        "reference": {"ms": ref.ms, "stolen_share": ref.stolen_share},
        "problems": problems,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"last-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(details) + "\n"
    )
    print(json.dumps(result), flush=True)
