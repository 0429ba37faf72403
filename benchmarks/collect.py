"""Run the benchmark over several seeds and summarize the spread.

From the repository root:

    python3 benchmarks/collect.py --seeds 1-10 --trace 0 --out .bench_out/summary.json

Runs ``run.py`` once per (workload, seed), one after the other, and writes,
per workload and metric, the values, their median, quartiles and the
quartile spread as a share of the median (``statistics.quantiles(n=4)``), the
bound of each metric in ``BENCHMARK.json`` with whether the spread stays within
it (and within a third of it), and the report sha256 of every seed.  Seed ``specs.HOLDOUT_SEED`` is refused unless
``--holdout`` is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import specs


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=specs.WORKLOADS,
        default=[w["name"] for w in config["workloads"]],
    )
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true", help="allow the held-out seed")
    parser.add_argument("--out", required=True, help="summary JSON path")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if specs.HOLDOUT_SEED in seeds and not args.holdout:
        parser.error(f"seed {specs.HOLDOUT_SEED} is held out; pass --holdout to use it")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            result, detail, wall = run_once(workload, seed, args.seconds, args.trace)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "report_sha256": detail["report_sha256"],
                "wall_s": wall,
            })
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, failed {result['failed']}", file=sys.stderr)
        metrics = {}
        for name, values in per_metric.items():
            entry = summarize(values) if len(values) > 1 else {"values": values}
            if name in bounds and entry.get("spread") is not None:
                entry["bound"] = bounds[name]
                entry["within_bound"] = entry["spread"] <= bounds[name]
                entry["within_third_of_bound"] = entry["spread"] < bounds[name] / 3
            metrics[name] = entry
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, body in summary["workloads"].items():
        for name, entry in body["metrics"].items():
            if "spread" in entry and entry["spread"] is not None:
                flag = ""
                if not entry.get("within_bound", True):
                    flag = "  <-- above bound"
                elif not entry.get("within_third_of_bound", True):
                    flag = "  <-- above bound/3"
                print(f"{workload:13s} {name:40s} median {entry['median']:.6g}  "
                      f"spread {entry['spread']:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
