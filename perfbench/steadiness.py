"""Measure the run-to-run spread of every end-to-end metric.

Runs ``perfbench/run.py`` once per listed seed on each workload, one run
at a time, and reports for each metric the distance between the first and
third quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median, next to the bound ``BENCHMARK.json`` gives it. A
seed listed more than once is run more than once; a set of runs at one seed
also reports whether each metric came out identical in every run::

    python3 perfbench/steadiness.py --workload service --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --seeds $(seq 1 10) --record perfbench/steadiness.json
    python3 perfbench/steadiness.py --seeds $(yes 7 | head -10) --record perfbench/steadiness.json

``--record`` merges the figures into a JSON file under the workload and
seed-set, so the bounds can be traced back to the spreads they came from.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for constant values)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed a check:\n{proc.stdout}")
    details = json.loads(
        (ROOT / ".perfbench" / f"last-{workload}-trace0.json").read_text()
    )["details"]
    return result, {name: d["raw"] for name, d in details.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", type=Path, help="JSON file to merge results into")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    if args.record is not None and args.record.exists():
        record = json.loads(args.record.read_text())
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raws: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            result, raw = run_once(workload, seed, args.seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                if raw.get(name) is not None:
                    raws[name].append(raw[name])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()
            ), flush=True)
        rows = {
            name: {
                "median": statistics.median(vals),
                "spread": spread(vals),
                "bound": bounds[name],
                "values": vals,
                "raw_spread": spread(raws[name]) if len(raws[name]) > 1 else None,
                "identical": len(set(vals)) == 1,
            }
            for name, vals in values.items()
        }
        for name, row in rows.items():
            ok = "ok" if row["spread"] <= row["bound"] / 3 else "WIDE"
            raw = row["raw_spread"]
            print(
                f"  {name:18s} median {row['median']:.5g}  spread "
                f"{row['spread']:.2%}  bound {row['bound']:.0%}  {ok}"
                + ("" if raw is None else f"  (raw spread {raw:.2%})")
                + ("  identical in every run" if row["identical"] else "")
            )
        if len(set(args.seeds)) == 1:
            key = f"seed {args.seeds[0]} x{len(args.seeds)}"
        else:
            key = f"seeds {args.seeds[0]}-{args.seeds[-1]}"
        record.setdefault(workload, {})[key] = {
            "seconds": args.seconds,
            "runs": len(args.seeds),
            "host": f"{platform.machine()} python {platform.python_version()}",
            "metrics": rows,
        }
        if args.record is not None:
            args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
