"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-battery --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
untraced and the traced pass over the same inputs and reports the
per-layer metrics. A table goes to standard output first; the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper-battery", "large-pop", "fleet-overhead", "service")


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and check that the
    program imported is the one in it, not an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported {repro.__file__}, not the checkout's")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_program()
    from perfbench import fleet, ga, service
    from perfbench.report import emit

    base = ROOT / ".perfbench"
    # Each run's directory (daemon roots, worker logs) is left in place:
    # deleting a service run's campaign files slowed the file writes of the
    # runs after it for minutes.
    runs = base / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    trace = bool(args.trace)
    if args.workload == "paper-battery":
        report = ga.run(ga.battery_plan(args.seed), args.seconds, trace, base)
    elif args.workload == "large-pop":
        report = ga.run(ga.large_pop_plan(args.seed), args.seconds, trace, base)
    elif args.workload == "fleet-overhead":
        report = fleet.run(args.seed, args.seconds, trace, workdir, base)
    else:
        report = service.run(args.seed, args.seconds, trace, workdir, base)
    emit(args.workload, report, trace, ROOT / "BENCHMARK.json", base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
