from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import waveprof
from waveprof import cli
from waveprof.cli import main
from waveprof.extract import BesovInput, ExtractConfig, LpInput
from waveprof.io_json import (
    config_from_obj,
    config_to_obj,
    dumps_canonical,
    field_from_obj,
    field_to_obj,
    synthetic_spec_from_obj,
    synthetic_spec_to_obj,
)
from conftest import random_field

SPEC_OBJ = {
    "dimension": 1,
    "p": 4.0,
    "n_count": 8,
    "seed": 11,
    "profiles": [
        {
            "entries": [{"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": 1.0}],
            "law": {"kind": "constant", "j0": 0, "k0": [0]},
        },
        {
            "entries": [{"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": 0.5}],
            "law": {"kind": "translation", "j0": 0, "k0": [0], "velocity": [8]},
        },
    ],
    "noise": {"amp": 1e-4, "count": 2},
}

CONFIG_OBJ = {
    "max_iterations": 8,
    "tail_window": 3,
    "conv_tol": 1e-9,
    "bound_threshold": 6.0,
    "stop_epsilon": 1e-3,
    "space": {"kind": "lp", "p": 4.0},
    "remainder": [8.0, 8.0],
}


# An exponent past dyadic.MAX_SHIFT = 2**26 bits; the integer it once built
# took 16 MiB.
FAR = 2**27
SHIFT_ERROR = f"exact index arithmetic needs a shift of {FAR} bits, more than {2**26}"


def _traced_main(argv):
    """``main(argv)`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def corpus(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_OBJ))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG_OBJ))
    corpus_dir = tmp_path / "corpus"
    assert main(["generate", str(spec_path), str(corpus_dir)]) == 0
    return tmp_path, corpus_dir, config_path


class TestRoundTrips:
    def test_field_file_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_field(rng, dim=int(rng.integers(1, 3)), p=3.0, denom_exp_max=2)
            again = field_from_obj(json.loads(dumps_canonical(field_to_obj(f))))
            assert again == f

    def test_config_roundtrip_including_infinities(self):
        cfg = ExtractConfig(
            max_iterations=5,
            tail_window=2,
            conv_tol=1e-9,
            bound_threshold=4.0,
            stop_epsilon=1e-6,
            input_space=LpInput(2.0),
            remainder_space=(4.0, math.inf),
        )
        again = config_from_obj(json.loads(dumps_canonical(config_to_obj(cfg))))
        assert again == cfg
        cfg2 = ExtractConfig(
            max_iterations=5,
            tail_window=2,
            conv_tol=1e-9,
            bound_threshold=4.0,
            stop_epsilon=1e-6,
            input_space=BesovInput(4.0, 2.0, 2.0),
            remainder_space=(4.0, 4.0),
        )
        assert config_from_obj(json.loads(dumps_canonical(config_to_obj(cfg2)))) == cfg2

    def test_spec_roundtrip(self):
        spec = synthetic_spec_from_obj(SPEC_OBJ)
        again = synthetic_spec_from_obj(json.loads(dumps_canonical(synthetic_spec_to_obj(spec))))
        assert again == spec

    def test_float_precision_survives(self):
        value = 0.1 + 0.2  # not exactly representable in decimal
        f = field_from_obj({
            "dimension": 1, "p": 4.0,
            "entries": [{"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": value}],
        })
        text = dumps_canonical(field_to_obj(f))
        again = field_from_obj(json.loads(text))
        assert again == f
        (amp,) = again.entries.values()
        assert amp == value


class TestGenerate:
    def test_writes_fields_and_truth(self, corpus):
        _, corpus_dir, _ = corpus
        files = sorted(p.name for p in corpus_dir.glob("*.json"))
        assert files == [f"field_{n:04d}.json" for n in range(1, 9)] + ["truth.json"]

    def test_truth_carries_no_input_norm(self, corpus):
        _, corpus_dir, _ = corpus
        truth = json.loads((corpus_dir / "truth.json").read_text())
        assert "input_norm_max" not in truth["decomposition"]

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = dict(SPEC_OBJ, profiles=[
            {"entries": [{"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": 1.0}],
             "law": {"kind": "constant", "j0": 0, "k0": [0]}},
            {"entries": [{"i": 1, "j": 0, "k": [5], "denom_exp": 0, "amp": 1.0}],
             "law": {"kind": "constant", "j0": 0, "k0": [0]}},
        ])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "separate" in err

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"n_count": 10**30, "profiles": SPEC_OBJ["profiles"][:1]}, "n_count"),
            ({"noise": {"amp": 1e-4, "count": 10**30}}, "noise count"),
        ],
        ids=["n-count", "noise-count"],
    )
    def test_huge_spec_exits_2(self, tmp_path, overrides, name):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(SPEC_OBJ, **overrides)))
        # A child process, so that a spec that runs without end fails the test
        # at the timeout instead of hanging the suite.
        env = dict(os.environ, PYTHONPATH=str(Path(waveprof.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "waveprof.cli", "generate", str(path), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert name in done.stderr
        assert not (tmp_path / "out").exists()

    def test_too_many_profile_pairs_exit_2(self, tmp_path, capsys):
        profile = SPEC_OBJ["profiles"][0]
        profiles = [dict(profile, law=dict(profile["law"], k0=[k])) for k in range(1000)]
        path = tmp_path / "crowded.json"
        path.write_text(json.dumps(dict(SPEC_OBJ, n_count=2, profiles=profiles)))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 2
        assert "n_count times profile pairs exceeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_noise_at_a_wide_scale_exits_2(self, tmp_path):
        # The noise shifts of a profile planted at scale 70 would be drawn
        # from a range wider than 2**64; generate once looped on it forever.
        wide = {"kind": "constant", "j0": 70, "k0": [0]}
        profile = dict(SPEC_OBJ["profiles"][0], law=wide)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(dict(SPEC_OBJ, profiles=[profile], noise={"amp": 1e-4, "count": 3})))
        env = dict(os.environ, PYTHONPATH=str(Path(waveprof.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "waveprof.cli", "generate", str(path), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert "noise" in done.stderr and "scale 71" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_noise_far_up_in_scale_is_rejected_without_the_draw_range(self, tmp_path, capsys):
        # The range of the noise draws, 8 << (FAR + 1), is never built.
        far = {"kind": "constant", "j0": FAR, "k0": [0]}
        profile = dict(SPEC_OBJ["profiles"][0], law=far)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(SPEC_OBJ, profiles=[profile], noise={"amp": 1e-4, "count": 2})))
        code, peak = _traced_main(["generate", str(path), str(tmp_path / "out")])
        assert code == 2
        assert f"noise at scale {FAR + 1} in dimension 1 needs draws" in capsys.readouterr().err
        assert peak < 4 << 20
        assert not (tmp_path / "out").exists()

    def test_a_profile_entry_far_off_the_lattice_exits_2(self, tmp_path, capsys):
        # Placing the entry 1 / 2**FAR at law shift 3 once built 3 << FAR.
        entry = {"i": 1, "j": 0, "k": [1], "denom_exp": FAR, "amp": 1.0}
        profile = {"entries": [entry], "law": {"kind": "constant", "j0": 0, "k0": [3]}}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(dict(SPEC_OBJ, profiles=[profile])))
        code, peak = _traced_main(["generate", str(path), str(tmp_path / "out")])
        assert code == 2
        assert SHIFT_ERROR in capsys.readouterr().err
        assert peak < 4 << 20
        assert not (tmp_path / "out").exists()

    def test_spec_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "no_p.json"
        path.write_text(json.dumps({k: v for k, v in SPEC_OBJ.items() if k != "p"}))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 2
        assert f"error: {path}: spec lacks the required key 'p'" in capsys.readouterr().err

    def test_empty_profile_list_exits_2_naming_the_spec(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(dict(SPEC_OBJ, profiles=[])))
        assert main(["generate", str(path), str(tmp_path / "out")]) == 2
        assert f"error: {path}: at least one profile is required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # The seed lives in the spec file; no flag overrides it.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_OBJ))
        with pytest.raises(SystemExit) as exited:
            main(["generate", str(spec_path), str(tmp_path / "out"), "--seed", "99"])
        assert exited.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spec_seed_changes_noise(self, corpus):
        tmp, corpus_dir, _ = corpus
        spec_path = tmp / "reseeded.json"
        spec_path.write_text(json.dumps(dict(SPEC_OBJ, seed=99)))
        assert main(["generate", str(spec_path), str(tmp / "other")]) == 0
        a = (corpus_dir / "field_0001.json").read_text()
        b = (tmp / "other" / "field_0001.json").read_text()
        assert a != b

    def test_names_sort_in_sequence_order_past_9999_fields(self, tmp_path):
        # decompose reads the sorted names as u_1, u_2, ...; at 10000 fields
        # every name has five digits, so field_10000 no longer sorts as u_1001.
        moving = {"kind": "translation", "j0": 0, "k0": [0], "velocity": [2]}
        spec = dict(SPEC_OBJ, n_count=10000, profiles=[dict(SPEC_OBJ["profiles"][0], law=moving)])
        del spec["noise"]
        spec_path = tmp_path / "long.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["generate", str(spec_path), str(tmp_path / "out")]) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("field_*.json"))
        assert names == [f"field_{n:05d}.json" for n in range(1, 10001)]
        for n in (1, 1001, 10000):
            field = json.loads((tmp_path / "out" / names[n - 1]).read_text())
            assert field["entries"][0]["k"] == [2 * n]

    @pytest.mark.parametrize("leftover", ["shorter-corpus", "five-digit-name"])
    def test_field_files_it_would_not_rewrite_exit_2_before_any_write(self, corpus, capsys, leftover):
        # decompose reads every field_*.json in the directory, so a leftover
        # file would join the corpus silently.
        tmp, corpus_dir, _ = corpus
        spec_path = tmp / "spec.json"
        assert main(["generate", str(spec_path), str(corpus_dir)]) == 0
        if leftover == "shorter-corpus":
            spec_path = tmp / "shorter.json"
            spec_path.write_text(json.dumps(dict(SPEC_OBJ, n_count=5)))
            stale = "field_0006.json"
        else:
            # Every name of a corpus of 10000 or more fields has five digits.
            stale = "field_00001.json"
            (corpus_dir / stale).write_text("{}")
        before = {p.name: p.read_bytes() for p in corpus_dir.iterdir()}
        capsys.readouterr()
        assert main(["generate", str(spec_path), str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {corpus_dir}: it holds {stale}, which is not in this corpus\n"
        assert {p.name: p.read_bytes() for p in corpus_dir.iterdir()} == before


class TestDecompose:
    def test_report_contents_and_exit(self, corpus):
        tmp, corpus_dir, config_path = corpus
        out = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["decomposition"]["groups"]) == 2
        assert all(g["pass"] for g in report["verification"]["gaps"])
        assert report["verification"]["stability"]["pass"]
        assert report["config"]["space"]["kind"] == "lp"

    def test_out_creates_its_parent_directories(self, corpus):
        tmp, corpus_dir, config_path = corpus
        out = tmp / "new" / "dir" / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["decomposition"]["count"] == SPEC_OBJ["n_count"]

    def test_empty_directory_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(CONFIG_OBJ))
        assert main(["decompose", str(empty), "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2

    def test_settings_come_only_from_the_config_file(self, corpus):
        tmp, corpus_dir, config_path = corpus
        out = tmp / "report_b.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out),
                "--tail-window", "4",
            ])
        assert exc.value.code == 2
        assert not out.exists()

    def test_nan_besov_input_exponent_exits_2(self, corpus, capsys):
        tmp, corpus_dir, _ = corpus
        config = dict(CONFIG_OBJ, space={"kind": "besov", "p": 4.0, "a": "nan", "q": 4.0})
        config_path = tmp / "nan.json"
        config_path.write_text(json.dumps(config))
        out = tmp / "r.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out)]) == 2
        assert "input exponents must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_corpus_field_names_the_file(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        path = corpus_dir / "field_0007.json"
        field = json.loads(path.read_text())
        del field["dimension"]
        path.write_text(json.dumps(field))
        out = tmp / "r.json"
        capsys.readouterr()
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "field_0007.json" in err
        assert "field lacks the required key 'dimension'" in err

    def test_config_error_names_the_file(self, corpus, capsys):
        tmp, corpus_dir, _ = corpus
        path = tmp / "no_tail.json"
        path.write_text(json.dumps({k: v for k, v in CONFIG_OBJ.items() if k != "tail_window"}))
        capsys.readouterr()
        assert main(["decompose", str(corpus_dir), "--config", str(path), "--out", str(tmp / "r.json")]) == 2
        assert f"error: {path}: config lacks the required key 'tail_window'" in capsys.readouterr().err

    def test_besov_inputs_far_apart_in_scale_exit_2(self, tmp_path, capsys):
        # The relative map from (0, n) onto (FAR, 1) once built n << FAR.  In
        # Besov mode no norm sees the scale gap first.
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for n in range(1, 5):
            (corpus_dir / f"field_{n:04d}.json").write_text(json.dumps({
                "dimension": 1, "p": 2.0,
                "entries": [
                    {"i": 1, "j": 0, "k": [n], "amp": 1.0},
                    {"i": 1, "j": FAR, "k": [1], "amp": 0.5},
                ],
            }))
        config = dict(
            CONFIG_OBJ, space={"kind": "besov", "p": 2.0, "a": 2.0, "q": 2.0}, remainder=[4.0, 8.0]
        )
        config_path = tmp_path / "besov.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        code, peak = _traced_main(
            ["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out)]
        )
        assert code == 2
        assert SHIFT_ERROR in capsys.readouterr().err
        assert peak < 4 << 20
        assert not out.exists()

    def test_byte_determinism(self, corpus):
        tmp, corpus_dir, config_path = corpus
        first, second = tmp / "r1.json", tmp / "r2.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(first)]) == 0
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()



@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_pauses_the_cyclic_collector_and_restores_the_callers_setting(
    corpus, monkeypatch, capsys, enabled
):
    tmp, corpus_dir, config_path = corpus
    report = tmp / "report.json"
    during = []
    original = cli.verify

    def watched(dec, config):
        during.append(gc.isenabled())
        return original(dec, config)

    def breached(dec, config):
        raise RuntimeError("invariant breach")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(cli, "verify", watched)
        decompose = ["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]
        assert main(decompose) == 0
        assert gc.isenabled() is enabled
        assert main(["verify", str(report), str(tmp / "missing")]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "verify", breached)
        assert main(["verify", str(report), str(corpus_dir)]) == 3
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]
    assert "internal error: invariant breach" in capsys.readouterr().err


def test_a_command_leaves_no_unreachable_objects(corpus, monkeypatch):
    # The parser is built once per process, so the collector that main
    # re-enables finds nothing a command left behind.
    tmp, corpus_dir, config_path = corpus
    report = tmp / "report.json"
    assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0

    def breached(dec, config):
        raise RuntimeError("invariant breach")

    calls = [
        (0, ["verify", str(report), str(corpus_dir)]),
        (0, ["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,4,4"]),
        (2, ["verify", str(report), str(tmp / "missing")]),
        (2, ["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,2"]),
        (3, ["verify", str(report), str(corpus_dir)]),
    ]
    for code, argv in calls:
        if code == 3:
            monkeypatch.setattr(cli, "verify", breached)
        gc.collect()
        assert main(argv) == code
        assert gc.collect() == 0, argv


class TestReusedParser:
    """main reuses one parser; no call may see what an earlier one parsed."""

    def test_repeated_flags_start_fresh(self, corpus, capsys):
        _, corpus_dir, _ = corpus
        field = str(corpus_dir / "field_0001.json")
        assert main(["norms", field, "--besov", "0,4,4", "--besov", "0,2,2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["besov"]) == 2
        assert main(["norms", field, "--besov", "0,4,4"]) == 0
        assert [b["a"] for b in json.loads(capsys.readouterr().out)["besov"]] == [4.0]
        assert main(["norms", field]) == 0
        assert json.loads(capsys.readouterr().out)["besov"] == []

    def test_an_omitted_out_falls_back_to_stdout(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        redo = tmp / "redo.json"
        assert main(["verify", str(report), str(corpus_dir), "--out", str(redo)]) == 0
        capsys.readouterr()
        redo.unlink()
        assert main(["verify", str(report), str(corpus_dir)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == report.read_bytes()
        assert not redo.exists()

    def test_a_usage_error_after_a_success_goes_to_the_current_stderr(self, corpus, capsys):
        _, corpus_dir, _ = corpus
        assert main(["norms", str(corpus_dir / "field_0001.json")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["norms"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: waveprof norms")
        assert "error: the following arguments are required: field" in captured.err

    @pytest.mark.parametrize("command", [[], ["generate"], ["decompose"], ["verify"], ["norms"]])
    def test_help_is_the_fresh_parsers(self, corpus, capsys, command):
        _, corpus_dir, _ = corpus
        assert main(["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,4,4"]) == 0
        texts = []
        for parse in (main, cli.build_parser().parse_args):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exited:
                parse(command + ["--help"])
            assert exited.value.code == 0
            texts.append(capsys.readouterr())
        reused, fresh = texts
        assert reused.out == fresh.out and reused.err == fresh.err == ""
        assert reused.out.startswith("usage: waveprof")


class TestVerify:
    def test_reverification_is_byte_identical(self, corpus):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        redo = tmp / "redo.json"
        assert main(["verify", str(report), str(corpus_dir), "--out", str(redo)]) == 0
        assert report.read_bytes() == redo.read_bytes()

    def test_reverification_to_stdout_is_byte_identical(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["verify", str(report), str(corpus_dir)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == report.read_bytes()

    def test_corpus_of_another_dimension_exits_2(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        other = tmp / "other"
        other.mkdir()
        for path in corpus_dir.glob("field_*.json"):
            entry = {"i": 1, "j": 0, "k": [0, 0], "denom_exp": 0, "amp": 1.0}
            (other / path.name).write_text(json.dumps({"dimension": 2, "p": 4.0, "entries": [entry]}))
        capsys.readouterr()
        assert main(["verify", str(report), str(other)]) == 2
        assert "inputs do not match the stored decomposition" in capsys.readouterr().err

    def test_a_missing_corpus_file_exits_2(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        min(corpus_dir.glob("field_*.json")).unlink()
        capsys.readouterr()
        assert main(["verify", str(report), str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert f"error: {report}: input count does not match the stored decomposition" in err

    def test_missing_sections_exit_2(self, corpus, tmp_path):
        _, corpus_dir, _ = corpus
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["verify", str(bogus), str(corpus_dir)]) == 2

    def test_report_error_names_the_file(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        stored = json.loads(report.read_text())
        del stored["config"]
        report.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", str(report), str(corpus_dir)]) == 2
        assert f"error: {report}: report lacks the required key 'config'" in capsys.readouterr().err

    def test_a_cross_weight_that_underflows_exits_2(self, corpus, capsys):
        # Group 1 placed at scale -2100 at the first index: its square-function
        # weight 2**(2/4 * -2100) is below the float range.  Only the cross
        # table measures it there, since that index is outside the tail window.
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        stored = json.loads(report.read_text())
        anchor = stored["decomposition"]["groups"][1]["anchor"]
        assert anchor[0][0] == stored["decomposition"]["retained"][0]
        anchor[0] = [anchor[0][0], -2100, [0]]
        report.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", str(report), str(corpus_dir)]) == 2
        assert "cross-square integral underflows the float range" in capsys.readouterr().err

    def test_an_orthogonality_gap_beyond_floats_exits_2(self, corpus, capsys):
        # Group 1 placed at scale -2100 and shift 5 at the first index: the map
        # from group 0's anchor onto it has an offset of about 5 * 2**2100.
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        stored = json.loads(report.read_text())
        anchor = stored["decomposition"]["groups"][1]["anchor"]
        anchor[0] = [anchor[0][0], -2100, [5]]
        report.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["verify", str(report), str(corpus_dir)]) == 2
        assert "orthogonality gap overflows the float range" in capsys.readouterr().err

    def test_non_list_group_profile_exits_2(self, corpus, capsys):
        tmp, corpus_dir, config_path = corpus
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        stored = json.loads(report.read_text())
        stored["decomposition"]["groups"][0]["profile"] = {"i": 1}
        report.write_text(json.dumps(stored))
        assert main(["verify", str(report), str(corpus_dir)]) == 2
        assert "entries must be a list" in capsys.readouterr().err


# An entry added to input 5 that one of its checks or norms rejects, and the
# reason decompose and verify each give.
_INPUT_PROBES = {
    "far-scale": (
        {"i": 1, "j": 10**8, "k": [0], "denom_exp": 0, "amp": 0.25},
        {"decompose": "Lebesgue norm overflows the float range",
         "verify": "Lebesgue norm overflows the float range"},
    ),
    "fine-shift": (
        {"i": 1, "j": 0, "k": [1], "denom_exp": 1100, "amp": 0.25},
        {"decompose": "inputs must carry integral shifts",
         "verify": "inputs must carry integral shifts"},
    ),
    # Off the lattice but cheap to norm: only the lattice check can reject it.
    "off-grid": (
        {"i": 1, "j": 0, "k": [1], "denom_exp": 3, "amp": 1e-6},
        {"decompose": "inputs must carry integral shifts",
         "verify": "inputs must carry integral shifts"},
    ),
}


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize("probe", sorted(_INPUT_PROBES))
def test_an_input_error_names_the_input(corpus, capsys, probe, command):
    tmp, corpus_dir, config_path = corpus
    report = tmp / "report.json"
    assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
    entry, reasons = _INPUT_PROBES[probe]
    path = corpus_dir / "field_0005.json"
    field = json.loads(path.read_text())
    field["entries"].append(entry)
    path.write_text(json.dumps(field))
    out = tmp / "again.json"
    argv = {
        "decompose": ["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(out)],
        "verify": ["verify", str(report), str(corpus_dir), "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: input 5: {reasons[command]}\n"
    assert not out.exists()


def _spec_profile(spec):
    spec["profiles"][0] = 1
    return spec, "spec profile must be an object"


def _spec_entry(spec):
    spec["profiles"][0]["entries"] = [7]
    return spec, "entry must be an object"


def _spec_noise_amp_inf(spec):
    spec["noise"]["amp"] = "inf"
    return spec, "noise amplitude must be finite and nonnegative, got inf"


def _spec_noise_amp_nan(spec):
    spec["noise"]["amp"] = "nan"
    return spec, "noise amplitude must be finite and nonnegative, got nan"


def _report_member(report):
    report["decomposition"]["groups"][0]["members"][0] = 3
    return report, "group member must be an object"


def _anchor_row(report):
    n, j, _ = report["decomposition"]["groups"][0]["anchor"][0]
    report["decomposition"]["groups"][0]["anchor"][0] = [n, j, 5]
    return report, "anchor row shift must be a list"


def _anchor_row_repeated(report):
    # A mapping would keep only the last of the two rows, so the loader rejects the second.
    anchor = report["decomposition"]["groups"][0]["anchor"]
    n, j, k = anchor[0]
    anchor.append([n, j + 1, [c + 1 for c in k]])
    return report, f"report.json: group anchor rows repeat index {n}"


def _anchor_row_shift_string(report):
    report["decomposition"]["groups"][0]["anchor"][0][2] = ["0"]
    return report, "anchor row shift component must be an integer"


def _member_shift_fraction(report):
    report["decomposition"]["groups"][0]["members"][0]["shift"] = [1.5]
    return report, "group member shift component must be an integer"


def _report_diagnostics(report):
    report["decomposition"]["diagnostics"] = 5
    return report, "diagnostics must be a list"


def _report_diagnostic_kinds(report):
    # Coerced to strings, they would be written back altered, and verify's
    # output would no longer match the stored report.
    report["decomposition"]["diagnostics"] = [1, None]
    return report, "diagnostic must be a string"


def _input_norm_max_nan(report):
    # NaN cannot be emitted, so it is rejected where the report is read.
    report["decomposition"]["input_norm_max"] = "nan"
    return report, (
        "report.json: decomposition input_norm_max must be finite and nonnegative, got nan"
    )


def _retained_outside_corpus(report):
    dec = report["decomposition"]
    dec["retained"].append(99)
    for group in dec["groups"]:
        _, j, k = group["anchor"][-1]
        group["anchor"].append([99, j, k])
    return report, "retained must list strictly increasing corpus indices"


def _member_scale_as_string(report):
    report["decomposition"]["groups"][0]["members"][0]["scale"] = "0"
    return report, "group member scale must be an integer"


def _member_shift_too_long(report):
    report["decomposition"]["groups"][0]["members"][0]["shift"].append(0)
    return report, "group member shift must be a list matching the dimension"


def _member_off_profile(report):
    report["decomposition"]["groups"][0]["members"][0]["amplitude"] = 5.0
    return report, "group 0 members do not match its profile"


def _field_without_dimension(field):
    del field["dimension"]
    return field, "field lacks the required key 'dimension'"


def _entry_without_amplitude(field):
    del field["entries"][0]["amp"]
    return field, "entry lacks the required key 'amp'"


def _entry_shift_before_generator(field):
    # The shift is read first, so a bad shift is named even when the generator is bad too.
    field["entries"][0]["k"] = [0, 0]
    field["entries"][0]["i"] = "1"
    return field, "entry k must be a list matching the dimension"


def _entry_shift_string(field):
    field["entries"][0]["k"] = ["0"]
    return field, "entry k component must be an integer"


def _entry_repeated(field):
    field["entries"].append(field["entries"][0])
    return field, "duplicate index"


def _entry_amplitude_zero(field):
    field["entries"][0]["amp"] = 0.0
    return field, "zero amplitudes must not be stored"


def _entry_amplitude_inf(field):
    field["entries"][0]["amp"] = "inf"
    return field, "amplitudes must be finite"


def _field_as_list(field):
    return [1, 2], "field must be an object"


def _field_p_as_list(field):
    field["p"] = [1]
    return field, "field p must be a number"


def _entry_amplitude_beyond_floats(field):
    field["entries"][0]["amp"] = 10**400
    return field, "entry amp lies outside the float range"


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("generate", _spec_profile),
        ("generate", _spec_entry),
        ("generate", _spec_noise_amp_inf),
        ("generate", _spec_noise_amp_nan),
        ("verify", _report_member),
        ("verify", _anchor_row),
        ("verify", _report_diagnostics),
        ("verify", _report_diagnostic_kinds),
        ("verify", _input_norm_max_nan),
        ("verify", _retained_outside_corpus),
        ("verify", _member_scale_as_string),
        ("verify", _member_shift_too_long),
        ("verify", _member_off_profile),
        ("norms", _field_without_dimension),
        ("norms", _entry_without_amplitude),
        ("norms", _entry_shift_before_generator),
        ("norms", _field_as_list),
        ("norms", _field_p_as_list),
        ("norms", _entry_amplitude_beyond_floats),
        ("verify", _anchor_row_repeated),
        ("verify", _anchor_row_shift_string),
        ("verify", _member_shift_fraction),
        ("norms", _entry_shift_string),
        ("norms", _entry_repeated),
        ("norms", _entry_amplitude_zero),
        ("norms", _entry_amplitude_inf),
    ],
    ids=[
        "spec-profile", "spec-entry", "noise-amp-inf", "noise-amp-nan", "report-member",
        "anchor-row", "report-diagnostics", "report-diagnostic-kinds", "input-norm-max-nan",
        "retained-outside-corpus", "member-scale-string",
        "member-shift-length", "member-off-profile", "field-key", "entry-key",
        "entry-shift-first", "field-list", "field-p-list", "entry-amp-huge",
        "anchor-row-repeated", "anchor-row-shift-string", "member-shift-fraction",
        "entry-shift-string", "entry-repeated", "entry-amp-zero", "entry-amp-inf",
    ],
)
def test_malformed_json_shape_exits_2(corpus, capsys, command, corrupt):
    tmp, corpus_dir, config_path = corpus
    if command == "generate":
        spec, message = corrupt(json.loads(json.dumps(SPEC_OBJ)))
        path = tmp / "bad_spec.json"
        path.write_text(json.dumps(spec))
        argv = ["generate", str(path), str(tmp / "bad_corpus")]
    elif command == "norms":
        field, message = corrupt(json.loads((corpus_dir / "field_0001.json").read_text()))
        path = tmp / "bad_field.json"
        path.write_text(json.dumps(field))
        argv = ["norms", str(path)]
    else:
        report = tmp / "report.json"
        assert main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]) == 0
        stored, message = corrupt(json.loads(report.read_text()))
        report.write_text(json.dumps(stored))
        argv = ["verify", str(report), str(corpus_dir)]
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _make_unreadable(path: Path, kind: str) -> str:
    """Replace ``path`` by an input of ``kind`` that no loader can read; return its message's start."""
    path.unlink()
    if kind == "directory":
        path.mkdir()
        return f"error: cannot read {path}: "
    path.write_bytes({
        "nested-too-deep": b"[" * 200000 + b"]" * 200000,
        "not-utf8": b'{"p": "\xff"}',
        "integer-too-long": b"1" * 5000,
    }[kind])
    return f"error: invalid JSON in {path}: "


@pytest.mark.parametrize(
    "kind",
    [
        "directory",
        "nested-too-deep",
        "not-utf8",
        pytest.param(
            "integer-too-long",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
            ),
        ),
    ],
)
@pytest.mark.parametrize(
    "role", ["spec", "config", "decompose-field", "report", "verify-field", "norms-field"]
)
def test_unreadable_input_file_exits_2_naming_it(corpus, capsys, role, kind):
    tmp, corpus_dir, config_path = corpus
    report = tmp / "report.json"
    decompose = ["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(report)]
    assert main(decompose) == 0
    field = corpus_dir / "field_0003.json"
    path, argv = {
        "spec": (tmp / "spec.json", ["generate", str(tmp / "spec.json"), str(tmp / "again")]),
        "config": (config_path, decompose),
        "decompose-field": (field, decompose),
        "report": (report, ["verify", str(report), str(corpus_dir)]),
        "verify-field": (field, ["verify", str(report), str(corpus_dir)]),
        "norms-field": (field, ["norms", str(field)]),
    }[role]
    start = _make_unreadable(path, kind)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(start)


@pytest.mark.parametrize(
    "role", ["generate-into-file", "decompose-to-dir", "decompose-under-file", "verify-to-dir"]
)
def test_unwritable_output_exits_2_naming_it(corpus, capsys, role):
    tmp, corpus_dir, config_path = corpus
    report = tmp / "report.json"
    decompose = ["decompose", str(corpus_dir), "--config", str(config_path), "--out"]
    assert main(decompose + [str(report)]) == 0
    under = report / "again.json"
    generate = ["generate", str(tmp / "spec.json")]
    verify = ["verify", str(report), str(corpus_dir), "--out"]
    path, reason, argv = {
        "generate-into-file": (report, "File exists", generate + [str(report)]),
        "decompose-to-dir": (corpus_dir, "Is a directory", decompose + [str(corpus_dir)]),
        "decompose-under-file": (under, "File exists", decompose + [str(under)]),
        "verify-to-dir": (corpus_dir, "Is a directory", verify + [str(corpus_dir)]),
    }[role]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"


class TestNorms:
    def test_values_and_schema(self, corpus, capsys):
        _, corpus_dir, _ = corpus
        code = main(["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,4,4", "--besov=-0.25,inf,inf"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == 4.0
        assert out["sup"] == 1.0
        triples = {(b["s"], b["a"], b["b"]) for b in out["besov"]}
        assert (0.0, 4.0, 4.0) in triples and (-0.25, "inf", "inf") in triples
        assert all(b["m_admissible"] is None for b in out["besov"])

    def test_single_entry_values(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "dimension": 1, "p": 4.0,
            "entries": [{"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": 1.0}],
        }))
        assert main(["norms", str(path), "--besov", "0,4,4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lp"] == pytest.approx(1.0, rel=1e-12)
        assert out["sup"] == 1.0 and out["coeff_lp"] == 1.0
        assert [b["value"] for b in out["besov"]] == [1.0]

    def test_empty_entries_all_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dimension": 1, "p": 4.0, "entries": []}))
        assert main(["norms", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lp"] == 0.0 and out["sup"] == 0.0 and out["coeff_lp"] == 0.0

    def test_a_missing_field_file_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["norms", "MISSING.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no such file: MISSING.json\n"

    def test_bad_besov_exits_2(self, corpus):
        _, corpus_dir, _ = corpus
        assert main(["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,2"]) == 2
        assert main(["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,zero,2"]) == 2

    def test_nan_besov_exponent_exits_2(self, corpus, capsys):
        _, corpus_dir, _ = corpus
        assert main(["norms", str(corpus_dir / "field_0001.json"), "--besov=0,nan,2"]) == 2
        assert "exponents must lie in [1, infinity]" in capsys.readouterr().err

    def test_tree_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # Scales 600 and -600 put 1202 levels between the root cell and the
        # finest one; each cube carries mass 1 in S**2, so lp is 2**(1/4).
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "dimension": 1, "p": 4.0,
            "entries": [
                {"i": 1, "j": 600, "k": [0], "denom_exp": 0, "amp": 1.0},
                {"i": 1, "j": -600, "k": [0], "denom_exp": 0, "amp": 1.0},
            ],
        }))
        assert main(["norms", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["lp"] == 2**0.25

    @pytest.mark.parametrize("dim, denom_exp, code", [(1, 64, 0), (2, 40, 2)])
    def test_a_box_far_off_the_grid_ends_quickly(self, tmp_path, dim, denom_exp, code):
        # A child process, so that a walk without end fails at the timeout.
        # At d = 1 the box once scanned all 2**64 corners of its finest side;
        # at d = 2 it splits into about 2**43 cubes, past the walk bound.
        path = tmp_path / "off_grid.json"
        path.write_text(json.dumps({
            "dimension": dim, "p": 4.0,
            "entries": [{"i": 1, "j": 0, "k": [1] * dim, "denom_exp": denom_exp, "amp": 1.0}],
        }))
        env = dict(os.environ, PYTHONPATH=str(Path(waveprof.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "waveprof.cli", "norms", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == code
        if code == 0:
            assert json.loads(done.stdout)["lp"] == 1.0
        else:
            assert "Lebesgue norm needs more than 1048576 cubes times sides" in done.stderr

    def test_a_vast_scale_gap_exits_2(self, tmp_path, capsys):
        # The corner of the coarse cube would be a 10**8-bit integer.
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({
            "dimension": 1, "p": 1e300,
            "entries": [
                {"i": 1, "j": 0, "k": [1], "amp": 1.0},
                {"i": 1, "j": 10**8, "k": [0], "amp": 1.0},
            ],
        }))
        assert main(["norms", str(path)]) == 2
        assert "Lebesgue norm needs more than 1048576 64-bit words of box corners" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scale, p, amp",
        [(2000, 4.0, 1.0), (1100, 2.0, 1.0), (0, 2.0, 1e200)],
        ids=["power-of-square-function", "scale-weight", "squared-amplitude"],
    )
    def test_float_overflow_exits_2(self, tmp_path, capsys, scale, p, amp):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dimension": 1, "p": p,
            "entries": [{"i": 1, "j": scale, "k": [0], "denom_exp": 0, "amp": amp}],
        }))
        assert main(["norms", str(path)]) == 2
        assert "Lebesgue norm overflows the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scale, amp",
        [(-3000, 1.0), (0, 1e-170), (-100, 3e-73), (-100, 1e-72)],
        ids=["scale-weight", "squared-amplitude", "subnormal-power-3e-73", "subnormal-power-1e-72"],
    )
    def test_float_underflow_exits_2(self, tmp_path, capsys, scale, amp):
        # The true Lebesgue norms are the amplitudes, not the 0.0 an
        # underflowed square function gives nor the 2.99982e-73 and
        # 9.9999965e-73 a subnormal S**2 on a cube of volume 2**100 gives.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "dimension": 1, "p": 4.0,
            "entries": [{"i": 1, "j": scale, "k": [0], "amp": amp}],
        }))
        assert main(["norms", str(path)]) == 2
        assert "Lebesgue norm underflows the float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p, entries, reason",
        [
            (4.0, [{"i": 1, "j": 2000, "k": [0], "amp": 1.0}],
             "Lebesgue norm overflows the float range"),
            (4.0, [{"i": 1, "j": -3000, "k": [0], "amp": 1.0}],
             "Lebesgue norm underflows the float range"),
            (1e300, [{"i": 1, "j": 0, "k": [1], "amp": 1.0}, {"i": 1, "j": 10**8, "k": [0], "amp": 1.0}],
             "Lebesgue norm needs more than 1048576 64-bit words of box corners"),
        ],
        ids=["overflow", "underflow", "walk-bound"],
    )
    def test_a_norm_error_names_the_field_file(self, tmp_path, capsys, p, entries, reason):
        # The field is the command's only input, so a norm it makes fail names it.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"dimension": 1, "p": p, "entries": entries}))
        assert main(["norms", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err == f"error: {path}: {reason}\n"

    def test_a_besov_token_error_names_no_file(self, corpus, capsys):
        _, corpus_dir, _ = corpus
        assert main(["norms", str(corpus_dir / "field_0001.json"), "--besov", "0,2"]) == 2
        assert capsys.readouterr().err == "error: --besov expects s,a,b, got '0,2'\n"
