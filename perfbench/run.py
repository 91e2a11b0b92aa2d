"""The repository benchmark: one command per workload, metrics by name.

    python3 perfbench/run.py --workload detect_fresh --seed 1 --seconds 20
    python3 perfbench/run.py --workload serve_mix --trace 1
    python3 perfbench/run.py --workload all

Run from the repository root.  With ``--trace 0`` the result carries the
end-to-end metrics, measured untraced; with ``--trace 1`` it carries the
per-layer metrics of a traced run (spans are written to
``perfbench/out/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every output check passed.  ``perfbench/README.md``
defines every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import detect
import servemix

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("detect_fresh", "detect_grid", "serve_mix")


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns its result object and report lines."""
    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONUNBUFFERED="1")
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if name == "serve_mix":
            out = servemix.run(seed, seconds, trace, ROOT, work, env)
        else:
            out = detect.run(name, seed, seconds, trace, ROOT, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = out.layers[metric["name"]] if trace \
            else out.metrics[metric["name"]][0]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    lines = [f"== {name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}"]
    lines += [f"   {note}" for note in out.notes]
    width = max(len(m) for m in metrics)
    lines += [f"   {m:<{width}}  {v['value']:.6g} {v['unit']}"
              for m, v in metrics.items()]
    lines.append(f"   {'failed_frac':<{width}}  "
                 f"{out.failed / max(out.attempted, 1):.6g} "
                 f"({out.failed} of {out.attempted})")
    lines += [f"   check failed: {problem}" for problem in out.problems]
    if out.tracer is not None:
        path = OUT / f"trace-{name}-seed{seed}.jsonl"
        out.tracer.write(path)
        lines.append(f"   spans written to {path.relative_to(ROOT)}")
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                        "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seconds = args.seconds or float(_spec()["run_seconds"])

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, seconds,
                                     bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
