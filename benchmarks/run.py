"""Benchmark of the waveprof pipeline: generate -> decompose -> verify, plus norms.

Run from the repository root:

    python3 benchmarks/run.py --workload cross-1d --seed 1 --seconds 40 --trace 0

One process, one operation at a time (closed loop, one client, no threads).
The workload's spec and config are drawn from ``--seed`` (see ``specs.py``)
and written to files; every operation then drives the CLI in-process through
``waveprof.cli.main`` on those files.  A cycle is one ``generate``, one
``decompose`` and one ``verify`` of the stored report, each followed by a third
of the ``norms`` calls (one per field file).  Cycles repeat until
``--seconds`` have passed; only whole cycles run, so every run samples every
field equally often.

Every operation is checked by the gate below and counted; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced loop (see
``tracing.py``).  The line before it holds sample counts, the report sha256
and any failure reasons.

Exit code 2 means the benchmark could not run at all, e.g. when the package
sources are missing next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, median_low, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import specs
import tracing

SETUP_REPS = 3
REL_TOL = 1e-9
OP_ROOTS = ("cli.generate", "cli.decompose", "cli.verify", "cli.norms")
GATE_ROOT = "gate"
COUNT_UNITS = ("count", "bytes")


def import_waveprof():
    """Import the package from ``src/`` next to the benchmark, never elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import waveprof.cli  # noqa: F401
    import waveprof.io_json  # noqa: F401
    import waveprof.synth  # noqa: F401

    import waveprof

    location = Path(waveprof.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"waveprof was imported from {location}, not from {src}")
    return waveprof


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children.

    Operations are timed in CPU time, not wall time: on a shared virtual
    machine the wall time of an operation also counts the moments the
    hypervisor gives its vCPU to other tenants (steal time), which swings
    by up to 2x within seconds.  Every operation runs in this process on
    one thread, so its CPU time is what it costs to run; the children term
    keeps work moved into subprocesses visible.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def corpus_digest(directory: Path) -> tuple[list[str], str]:
    digest = hashlib.sha256()
    names = sorted(p.name for p in directory.iterdir())
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((directory / name).read_bytes())
    return names, digest.hexdigest()


class Workspace:
    """Files of one workload instance under a private work directory."""

    def __init__(self, directory: Path, workload: str, seed: int, n_count: int | None):
        self.dir = directory
        self.spec_obj, self.config_obj = specs.build(workload, seed, n_count)
        self.n_count = self.spec_obj["n_count"]
        self.p = self.spec_obj["p"]
        self.dim = self.spec_obj["dimension"]
        space = self.config_obj["space"]
        self.besov_input = space["kind"] == "besov"
        if self.besov_input:
            # Input-space Besov triple: s = d (1/a - 1/p), inner a, outer q.
            s = self.dim * (1.0 / space["a"] - 1.0 / space["p"])
            self.besov = f"{s!r},{space['a']!r},{space['q']!r}"
        else:
            self.besov = f"0,{self.p!r},{self.p!r}"
        noise = self.spec_obj.get("noise")
        self.align_tol = 1e-9 if not noise else noise["amp"] + self.config_obj["conv_tol"]
        self.spec = directory / "spec.json"
        self.config = directory / "config.json"
        self.corpus = directory / "corpus"
        self.report = directory / "report.json"
        self.verified = directory / "verified.json"

    def field(self, n: int) -> Path:
        return self.corpus / f"field_{n:04d}.json"

    def write_inputs(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.spec.write_text(json.dumps(self.spec_obj, sort_keys=True), encoding="utf-8")
        self.config.write_text(json.dumps(self.config_obj, sort_keys=True), encoding="utf-8")

    def argv(self, command: str, n: int | None = None) -> list[str]:
        if command == "generate":
            return ["generate", str(self.spec), str(self.corpus)]
        if command == "decompose":
            return ["decompose", str(self.corpus), "--config", str(self.config),
                    "--out", str(self.report)]
        if command == "verify":
            return ["verify", str(self.report), str(self.corpus), "--out", str(self.verified)]
        return ["norms", str(self.field(n)), "--besov", self.besov]


class Gate:
    """Correctness checks of every operation's output.

    Each check returns ``None`` on success or a one-line failure reason.  The
    first successful output of a command becomes the reference that later
    repeats must match byte for byte.
    """

    def __init__(self, wp, ws: Workspace) -> None:
        self.wp = wp
        self.ws = ws
        self.corpus_ref: str | None = None
        self.report_ref: bytes | None = None
        self.norms_ref: dict[int, str] = {}
        self.inputs = None
        self.truth = None
        self.input_norms: dict[int, float] | None = None

    def generate(self, code: int) -> str | None:
        if code != 0:
            return f"generate exited {code}"
        names, digest = corpus_digest(self.ws.corpus)
        expected = [f"field_{n:04d}.json" for n in range(1, self.ws.n_count + 1)]
        if names != expected + ["truth.json"]:
            return "generate wrote an unexpected file set"
        if self.corpus_ref is None:
            io_json = self.wp.io_json
            self.inputs = {
                n: io_json.field_from_obj(json.loads(self.ws.field(n).read_text()))
                for n in range(1, self.ws.n_count + 1)
            }
            truth = json.loads((self.ws.corpus / "truth.json").read_text())
            self.truth = io_json.decomposition_from_obj(truth["decomposition"], self.inputs)
            self.corpus_ref = digest
        elif digest != self.corpus_ref:
            return "generate output differs from the first generate of the run"
        return None

    def decompose(self, code: int) -> str | None:
        if code != 0:
            return f"decompose exited {code}"
        if self.inputs is None:
            return "no checked corpus to compare against"
        data = self.ws.report.read_bytes()
        if self.report_ref is not None and data != self.report_ref:
            return "decompose report differs from the first report of the run"
        report = json.loads(data)
        found = self.wp.io_json.decomposition_from_obj(report["decomposition"], self.inputs)
        alignment = self.wp.synth.align_frames(found, self.truth)
        if not alignment.complete:
            return "decomposition does not align with truth.json"
        if not alignment.max_amplitude_deviation <= self.ws.align_tol:
            return f"amplitude deviation {alignment.max_amplitude_deviation!r} above tolerance"
        if self.report_ref is None:
            self.report_ref = data
            verification = report["verification"]
            self.input_norms = dict(zip(verification["retained"], verification["input_norms"]))
        return None

    def verify(self, code: int, stored: bytes) -> str | None:
        if code != 0:
            return f"verify exited {code}"
        if self.ws.verified.read_bytes() != stored:
            return "verify does not reproduce the stored report byte for byte"
        return None

    def norms(self, code: int, n: int, text: str) -> str | None:
        if code != 0:
            return f"norms exited {code} on field {n}"
        reference = self.norms_ref.setdefault(n, text)
        if text != reference:
            return f"norms output for field {n} differs from its first output"
        if self.input_norms is None or n not in self.input_norms:
            return f"no checked report norm for field {n}"
        obj = json.loads(text)
        value = obj["besov"][0]["value"] if self.ws.besov_input else obj["lp"]
        if not rel_close(value, self.input_norms[n]):
            return f"norms of field {n} disagree with the report input norm"
        if self.ws.p == 2.0:
            l2 = math.sqrt(math.fsum(a * a for a in self.inputs[n].entries.values()))
            if not rel_close(obj["lp"], l2):
                return f"lp norm of field {n} is not the amplitude l2 norm"
        return None


class Runner:
    """Runs operations, checks them and keeps the tallies of one process."""

    def __init__(self, wp, ws: Workspace) -> None:
        self.wp = wp
        self.ws = ws
        self.gate = Gate(wp, ws)
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []
        self.wall: dict[str, list[float]] = {}

    def call(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.wp.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def op(self, command: str, n: int | None = None, tracer=None) -> float:
        """Run and check one operation; return its CPU time in seconds."""
        argv = self.ws.argv(command, n)
        stored = self.ws.report.read_bytes() if command == "verify" and self.ws.report.exists() else b""
        wall_start = time.perf_counter()
        start = cpu_clock()
        with tracer.span(f"cli.{command}") if tracer else nullcontext():
            code, text = self.call(argv)
        elapsed = cpu_clock() - start
        self.wall.setdefault(command, []).append(time.perf_counter() - wall_start)
        with tracer.span(GATE_ROOT) if tracer else nullcontext():
            reason = self.check(command, code, n, text, stored)
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
        return elapsed

    def check(self, command, code, n, text, stored) -> str | None:
        try:
            if command == "generate":
                return self.gate.generate(code)
            if command == "decompose":
                return self.gate.decompose(code)
            if command == "verify":
                return self.gate.verify(code, stored)
            return self.gate.norms(code, n, text)
        except Exception as exc:  # a malformed output is a failed operation
            return f"{command} output could not be checked: {type(exc).__name__}: {exc}"

    def cycle(self, tracer=None) -> dict[str, list[float]]:
        """One generate, decompose and verify, each followed by a third of the
        norms calls, so that norms samples spread over the whole cycle."""
        times: dict[str, list[float]] = {"generate": [], "decompose": [], "verify": [], "norms": []}
        count = self.ws.n_count
        for part, command in enumerate(("generate", "decompose", "verify")):
            times[command].append(self.op(command, tracer=tracer))
            for n in range(1 + part * count // 3, 1 + (part + 1) * count // 3):
                times["norms"].append(self.op("norms", n, tracer=tracer))
        return times

    def set_up(self) -> None:
        """One set-up pass: fresh spec and config, then one untimed warm-up
        operation of each command."""
        start = cpu_clock()
        self.ws.write_inputs()
        for command in ("generate", "decompose", "verify"):
            self.op(command)
        self.op("norms", 1)
        self.setup_times.append(cpu_clock() - start)


def measure(runner: Runner, seconds: float, setup_reps: int, step) -> int:
    """Repeat ``step`` until it has run for ``seconds``; return the step count.

    The first set-up pass has already run.  The remaining ones run between
    the first steps, so that the timed samples spread over most of the
    process lifetime instead of its tail; the machine's speed drifts over
    tens of seconds, and a wider window averages more of that drift.
    """
    spent = 0.0
    steps = 0
    while steps == 0 or spent < seconds:
        start = time.perf_counter()
        step()
        spent += time.perf_counter() - start
        steps += 1
        if len(runner.setup_times) < setup_reps:
            runner.set_up()
    while len(runner.setup_times) < setup_reps:
        runner.set_up()
    return steps


def end_to_end(runner: Runner, seconds: float, setup_reps: int) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {"generate": [], "decompose": [], "verify": [], "norms": []}

    def step() -> None:
        for command, values in runner.cycle().items():
            samples[command].extend(values)

    cycles = measure(runner, seconds, setup_reps, step)
    metrics = {
        "decompose_s": (median(samples["decompose"]), "s", len(samples["decompose"])),
        "verify_s": (median(samples["verify"]), "s", len(samples["verify"])),
        "generate_s": (median(samples["generate"]), "s", len(samples["generate"])),
        "norms_field_s": (median(samples["norms"]), "s", len(samples["norms"])),
    }
    return metrics, {"cycles": cycles}


# Per-layer metrics: name -> (unit, how to read it from a cycle summary).
def _calls(span, roots=OP_ROOTS):
    return lambda s: sum(s["stats"].get((r, span), (0,))[0] for r in roots)


def _self(span, roots=OP_ROOTS):
    return lambda s: sum(s["stats"].get((r, span), (0, 0.0))[1] for r in roots)


def _work(span, roots=OP_ROOTS, pick=lambda v: v):
    return lambda s: sum(
        pick(v) for r in roots for v in s["stats"].get((r, span), (0, 0.0, 0.0, []))[3]
    )


def _share(span):
    def read(s):
        total = s["roots"]["cli.decompose"][1]
        return s["stats"].get(("cli.decompose", span), (0, 0.0, 0.0))[2] / total
    return read


def _nonzero_ratio(s):
    calls = _calls("extract.cross_interaction")(s)
    return _work("extract.cross_interaction")(s) / calls if calls else 0.0


def _extraction_share(s):
    return s["extraction_s"].get("cli.decompose", 0.0) / s["roots"]["cli.decompose"][1]


LAYER_METRICS = {
    "norms.cross_square_integral.calls": ("count", _calls("norms.cross_square_integral")),
    "norms.cross_square_integral.self_s": ("s", _self("norms.cross_square_integral")),
    "norms.cross.nonzero_ratio": ("ratio", _nonzero_ratio),
    "norms.lp_norm.calls": ("count", _calls("norms.lp_norm")),
    "norms.lp_norm.entries": ("count", _work("norms.lp_norm")),
    "norms.lp_norm.self_s": ("s", _self("norms.lp_norm")),
    "norms.besov_norm.calls": ("count", _calls("norms.besov_norm")),
    "norms.besov_norm.self_s": ("s", _self("norms.besov_norm")),
    "extract.extract_profiles.self_s": ("s", _self("extract.extract_profiles")),
    "extract.iterations": ("count", _work("extract.extract_profiles", pick=lambda v: v[0])),
    "extract.groups": ("count", _work("extract.extract_profiles", pick=lambda v: v[1])),
    "extract.verify.self_s": ("s", _self("extract.verify")),
    "extract.cross_interaction.calls": ("count", _calls("extract.cross_interaction")),
    "extract.cross_interaction.self_s": ("s", _self("extract.cross_interaction")),
    "extract.remainder.calls": ("count", _calls("extract.remainder")),
    "extract.remainder.self_s": ("s", _self("extract.remainder")),
    "extract.remainder_space_norm.calls": ("count", _calls("extract.remainder_space_norm")),
    "extract.remainder_space_norm.self_s": ("s", _self("extract.remainder_space_norm")),
    "extract.input_space_norm.calls": ("count", _calls("extract.input_space_norm")),
    "extract.input_space_norm.self_s": ("s", _self("extract.input_space_norm")),
    "field.rank.calls": ("count", _calls("field.rank")),
    "field.rank.entries": ("count", _work("field.rank")),
    "field.rank.self_s": ("s", _self("field.rank")),
    "field.without.calls": ("count", _calls("field.without")),
    "field.without.self_s": ("s", _self("field.without")),
    "field.transform.calls": ("count", _calls("field.transform")),
    "field.transform.self_s": ("s", _self("field.transform")),
    "field.combine.calls": ("count", _calls("field.combine")),
    "field.combine.self_s": ("s", _self("field.combine")),
    "dyadic.relative_map.calls": ("count", _calls("dyadic.relative_map")),
    "dyadic.relative_map.self_s": ("s", _self("dyadic.relative_map")),
    "dyadic.act_on_index.calls": ("count", _calls("dyadic.act_on_index")),
    "dyadic.act_on_index.self_s": ("s", _self("dyadic.act_on_index")),
    "dyadic.orthogonality_gap.calls": ("count", _calls("dyadic.orthogonality_gap")),
    "dyadic.orthogonality_gap.self_s": ("s", _self("dyadic.orthogonality_gap")),
    "io_json.field_from_obj.calls": ("count", _calls("io_json.field_from_obj")),
    "io_json.field_from_obj.self_s": ("s", _self("io_json.field_from_obj")),
    "io_json.dumps_canonical.self_s": ("s", _self("io_json.dumps_canonical")),
    "io_json.report_bytes": ("bytes", _work("io_json.dumps_canonical", roots=("cli.decompose",))),
    "io_json.decomposition_from_obj.self_s": ("s", _self("io_json.decomposition_from_obj")),
    "synth.generate.self_s": ("s", _self("synth.generate")),
    "synth.validate_spec.self_s": ("s", _self("synth.validate_spec")),
    "synth.align_frames.self_s": ("s", _self("synth.align_frames", roots=(GATE_ROOT,))),
    "cli.decompose.self_s": ("s", _self("cli.decompose")),
    "cli.verify.self_s": ("s", _self("cli.verify")),
    "decompose.share.cross_tables": ("ratio", _share("extract.cross_interaction")),
    "decompose.share.extraction": ("ratio", _extraction_share),
    "decompose.share.remainders": ("ratio", _share("extract.remainder")),
    "decompose.share.lp_norm": ("ratio", _share("norms.lp_norm")),
}


def per_layer(
    runner: Runner, seconds: float, setup_reps: int, trace_path: Path
) -> tuple[dict, dict]:
    """Alternate an untraced decompose with a fully traced cycle until time is up."""
    per_cycle: dict[str, list[float]] = {name: [] for name in LAYER_METRICS}
    untraced: list[float] = []
    traced: list[float] = []
    norms: list[float] = []
    tracer = tracing.Tracer()

    def step() -> None:
        nonlocal tracer
        untraced.append(runner.op("decompose"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            times = runner.cycle(tracer)
        finally:
            tracer.uninstall()
        traced.extend(times["decompose"])
        norms.extend(times["norms"])
        summary = tracing.summarize(tracer.spans)
        for name, (_, read) in LAYER_METRICS.items():
            per_cycle[name].append(read(summary))

    measure(runner, seconds, setup_reps, step)
    metrics = {
        name: (
            median_low(per_cycle[name]) if unit in COUNT_UNITS else median(per_cycle[name]),
            unit,
            len(per_cycle[name]),
        )
        for name, (unit, _) in LAYER_METRICS.items()
    }
    metrics["trace.overhead_ratio"] = (median(traced) / median(untraced), "ratio", len(traced))
    # The 90th percentile of traced norms calls: it spreads too much between
    # runs to carry an end-to-end bound.
    p90 = quantiles(norms, n=10, method="inclusive")[-1]
    metrics["norms_field_p90_s"] = (p90, "s", len(norms))
    detail = {
        "cycles": len(traced),
        "spans_last_cycle": len(tracer.spans),
        "norms_samples_beyond_p90": sum(1 for v in norms if v > p90),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    tracer.dump(trace_path)
    return metrics, detail


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n_count: int | None = None,
    setup_reps: int = SETUP_REPS,
    out_dir: Path | None = None,
) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and a detail object."""
    import_start = cpu_clock()
    wp = import_waveprof()
    import_s = cpu_clock() - import_start
    out_dir = out_dir or ROOT / ".bench_out"
    ws = Workspace(out_dir / f"work-{os.getpid()}", workload, seed, n_count)
    wp.synth.validate_spec(wp.io_json.synthetic_spec_from_obj(ws.spec_obj))
    runner = Runner(wp, ws)
    try:
        runner.set_up()
        if trace:
            trace_path = out_dir / f"trace-{workload}.jsonl"
            metrics, detail = per_layer(runner, seconds, setup_reps, trace_path)
        else:
            metrics, detail = end_to_end(runner, seconds, setup_reps)
            setup_s = import_s + median(runner.setup_times)
            metrics["setup_s"] = (setup_s, "s", len(runner.setup_times))
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB", 1)
        report_sha = (
            hashlib.sha256(runner.gate.report_ref).hexdigest() if runner.gate.report_ref else None
        )
    finally:
        shutil.rmtree(ws.dir, ignore_errors=True)
    failed = len(runner.failures)
    detail.update(
        workload=workload,
        seed=seed,
        trace=int(trace),
        report_sha256=report_sha,
        error_rate=failed / runner.attempted,
        failures=runner.failures[:5],
        samples={name: count for name, (_, _, count) in metrics.items()},
        setup_reps_s=runner.setup_times,
        import_s=import_s,
        wall_median_s={command: median(v) for command, v in sorted(runner.wall.items())},
    )
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        count = detail["samples"][name]
        print(f"{name} = {metric['value']!r} {metric['unit']} (n={count})")
    print(f"error_rate = {detail['error_rate']!r} ({result['failed']}/{result['attempted']})")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
