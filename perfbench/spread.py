"""Run-to-run spread and set-to-set drift of the end-to-end metrics.

    python3 perfbench/spread.py --workload detect_grid --seeds 10

Runs ``run.py`` untraced ``--seeds`` times in each of two sets, each run
with its own seed, interleaving the sets (set 1 takes seeds 1..N, set 2
seeds N+1..2N, run alternately), so that a slow or fast stretch of the
host falls on both sets alike.  Per set and metric it prints the
median and the inter-quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``); for set 2, how much worse its
median is than set 1's, as a share of set 1's.  Each
figure is printed next to the metric's bound from ``BENCHMARK.json``,
and the exit code is 1 when any of them exceeds that bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def _run(workload: str, seed: int) -> dict[str, float] | None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        print(done.stdout, done.stderr, file=sys.stderr)
        return None
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: list[dict[str, list[float]]] = [{} for _ in range(SETS)]
    for index in range(args.seeds):
        for set_ in range(SETS):
            seed = set_ * args.seeds + index + 1
            metrics = _run(args.workload, seed)
            if metrics is None:
                return 1
            for name, value in metrics.items():
                values[set_].setdefault(name, []).append(value)
            print(f"set {set_ + 1} seed {seed}: " + " ".join(
                f"{name}={value:.4g}" for name, value in metrics.items()),
                flush=True)

    within = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first = measure.median(values[0][name])
        for set_, by_name in enumerate(values):
            series = by_name[name]
            median = measure.median(series)
            figures = {"spread": measure.spread(series)}
            if set_:
                figures["worse"] = worsening(first, median, metric["better"])
            over = any(figure > bound for figure in figures.values())
            within = within and not over
            shown = "  ".join(f"{label} {figure:+.4f}"
                              for label, figure in figures.items())
            print(f"{args.workload:<13} set {set_ + 1} {name:<13} "
                  f"median {median:<11.5g} {shown}  "
                  f"bound {bound}{'  OVER' if over else ''}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
