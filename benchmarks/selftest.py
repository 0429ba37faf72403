"""Self-tests of the benchmark itself; not part of the package test suite.

From the repository root:

    python3 benchmarks/selftest.py

Checks, each printed as a PASS/FAIL line (exit code 1 if any fails):

- every drawn spec passes ``synth.validate_spec`` and the draw is a pure
  function of (workload, seed);
- a tiny-size run of each workload, untraced and traced, emits every metric
  named in ``BENCHMARK.json`` with its unit and has no failed operation;
- after a traced run every ``waveprof`` function is the original object again;
- a deliberately corrupted report is counted as a failure by the gate;
- ``layer_map.json`` names exactly the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run
import specs
import tracing

TINY_N = 8
OUT = ROOT / ".bench_out" / "selftest"


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"SELFTEST {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    return ok


def spec_draws(wp) -> bool:
    ok = True
    for workload in specs.WORKLOADS:
        seeds = list(range(1, 51)) + [specs.HOLDOUT_SEED]
        bad = []
        for seed in seeds:
            spec, _ = specs.build(workload, seed)
            try:
                wp.synth.validate_spec(wp.io_json.synthetic_spec_from_obj(spec))
            except ValueError as exc:
                bad.append(f"seed {seed}: {exc}")
        pure = specs.build(workload, 7) == specs.build(workload, 7)
        varied = specs.build(workload, 7)[0]["profiles"] != specs.build(workload, 8)[0]["profiles"]
        ok &= check(f"specs {workload}", not bad and pure and varied,
                    "; ".join(bad[:3]) or f"{len(seeds)} seeds valid")
    return ok


def snapshot() -> dict:
    """Every attribute object of every waveprof namespace, plus class methods."""
    held = {}
    for module in tracing.package_modules():
        for attr, value in vars(module).items():
            held[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith(tracing.PACKAGE):
                for member, obj in vars(value).items():
                    held[(value.__module__, value.__qualname__, member)] = obj
    return held


def smoke_runs(config: dict) -> bool:
    ok = True
    expected = {
        False: {m["name"]: m["unit"] for m in config["end_to_end"]},
        True: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    for workload in specs.WORKLOADS:
        for trace in (False, True):
            before = snapshot() if trace else None
            result, _ = run.run(
                workload, 1, 0.0, trace, n_count=TINY_N, setup_reps=1, out_dir=OUT
            )
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            ok &= check(
                f"smoke {workload} trace={int(trace)}",
                got == expected[trace] and result["failed"] == 0 and result["attempted"] > 0,
                f"{result['attempted']} operations, {result['failed']} failed, "
                f"{len(got)} metrics",
            )
            if trace:
                after = snapshot()
                changed = [key for key, obj in before.items() if after.get(key) is not obj]
                ok &= check(f"restored {workload}", not changed and after.keys() == before.keys(),
                            ", ".join(".".join(k) for k in changed[:3]))
    return ok


def corrupted_report(wp) -> bool:
    ws = run.Workspace(OUT / "corrupt", "cross-1d", 1, TINY_N)
    runner = run.Runner(wp, ws)
    try:
        runner.set_up()
        text = ws.report.read_text()
        report = json.loads(text)
        # The canonical re-dump reproduces the report, so only the edit differs.
        clean = runner.failures == [] and wp.io_json.dumps_canonical(report) == text
        report["verification"]["input_norms"][0] *= 1.5
        ws.report.write_text(wp.io_json.dumps_canonical(report))
        runner.op("verify")
        verify_caught = len(runner.failures) == 1
        report["verification"]["input_norms"][0] /= 1.5
        report["decomposition"]["groups"][0]["profile"][0]["amp"] *= 1.5
        ws.report.write_text(wp.io_json.dumps_canonical(report))
        decompose_caught = runner.check("decompose", 0, None, "", b"") is not None
    finally:
        shutil.rmtree(ws.dir, ignore_errors=True)
    return check(
        "corrupted report",
        clean and verify_caught and decompose_caught,
        f"warm-up clean {clean}, verify caught {verify_caught}, "
        f"decompose check caught {decompose_caught}",
    )


def layer_map(config: dict) -> bool:
    mapping = json.loads((HERE / "layer_map.json").read_text())
    names = {m["name"] for m in config["per_layer"]}
    end_to_end = {m["name"] for m in config["end_to_end"]}
    workloads = set(specs.WORKLOADS)
    well_formed = all(
        set(row["end_to_end"]) <= end_to_end and set(row["workloads"]) <= workloads
        for rows in mapping["metrics"].values()
        for row in rows
    )
    return check("layer map", set(mapping["metrics"]) == names and well_formed)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wp = run.import_waveprof()
    results = [spec_draws(wp), smoke_runs(config), corrupted_report(wp), layer_map(config)]
    shutil.rmtree(OUT, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
