"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and matches the library's contracts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from waveprof.cli import main as cli_main
from waveprof.dyadic import act_on_index
from waveprof.extract import (
    BesovInput,
    ExtractConfig,
    LpInput,
    extract_profiles,
    reconstruct,
    remainder,
    verify,
)
from waveprof.field import CoeffField, combine, split_top, transform
from waveprof.io_json import dumps_canonical, synthetic_spec_to_obj, config_to_obj
from waveprof.norms import (
    BesovParams,
    besov_norm,
    coeff_lp,
    interpolation_check,
    lp_norm,
    sup_amplitude,
)
from waveprof.synth import ParamLaw, PlantedProfile, SyntheticSpec, align_frames, generate
from conftest import grid_lp_oracle, lattice_index, random_affine, random_field


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def entry_field(p, *entries, dim=1):
    return CoeffField.from_items(dim, p, [(lattice_index(*idx), amp) for idx, amp in entries])


@dataclass(frozen=True)
class CorpusItem:
    name: str
    spec: SyntheticSpec
    config: ExtractConfig


def _config(p, members, *, mode="lp", a=2.0, q=2.0, remainder_space=None,
            bound_threshold=6.0, stop_epsilon=1e-9):
    if mode == "lp":
        space = LpInput(p)
        rem = remainder_space or (2 * p, 2 * p)
    else:
        space = BesovInput(p, a, q)
        rem = remainder_space or (2 * a, (2 * a / a) * q)
    return ExtractConfig(
        max_iterations=members + 2,
        tail_window=4,
        conv_tol=1e-9,
        bound_threshold=bound_threshold,
        stop_epsilon=stop_epsilon,
        input_space=space,
        remainder_space=rem,
    )


def build_corpus() -> list[CorpusItem]:
    items: list[CorpusItem] = []

    def add(name, spec, config):
        items.append(CorpusItem(name, spec, config))

    trans_profiles = (
        PlantedProfile(entry_field(4.0, ((1, 0, 0), 1.0)), ParamLaw("constant", 0, (0,))),
        PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.5)), ParamLaw("translation", 0, (0,), velocity=(8,))),
    )
    add("trans-1d", SyntheticSpec(1, 4.0, trans_profiles, 16, 101), _config(4.0, 2))

    add(
        "trans-1d-p3-opposed",
        SyntheticSpec(
            1, 3.0,
            (
                PlantedProfile(entry_field(3.0, ((1, 0, 0), 1.0)), ParamLaw("translation", 0, (0,), velocity=(6,))),
                PlantedProfile(entry_field(3.0, ((1, 0, 1), 0.75)), ParamLaw("translation", 0, (0,), velocity=(-6,))),
            ),
            12, 102,
        ),
        _config(3.0, 2),
    )

    scale_up_profiles = (
        PlantedProfile(entry_field(4.0, ((1, 0, 0), 1.0)), ParamLaw("constant", 0, (5,))),
        PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.6)), ParamLaw("scaling", 0, (2,), scale_step=1)),
    )
    add("scale-1d-up", SyntheticSpec(1, 4.0, scale_up_profiles, 12, 103), _config(4.0, 2))

    add(
        "scale-1d-down-p2",
        SyntheticSpec(
            1, 2.0,
            (
                PlantedProfile(entry_field(2.0, ((1, 0, 0), 1.0)), ParamLaw("constant", 0, (3,))),
                PlantedProfile(entry_field(2.0, ((1, 0, 0), 0.5)), ParamLaw("scaling", 0, (0,), scale_step=-1)),
            ),
            10, 104,
        ),
        _config(2.0, 2),
    )

    multimember_profiles = (
        PlantedProfile(
            entry_field(4.0, ((1, 0, 0), 1.0), ((1, 1, 1), 0.45)),
            ParamLaw("translation", 0, (0,), velocity=(8,)),
        ),
        PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.7)), ParamLaw("constant", 0, (3,))),
    )
    add("multi-member", SyntheticSpec(1, 4.0, multimember_profiles, 16, 105), _config(4.0, 3))

    multigen_profiles = (
        PlantedProfile(entry_field(4.0, ((1, 0, 0, 0), 1.0), dim=2), ParamLaw("constant", 0, (0, 0))),
        PlantedProfile(
            entry_field(4.0, ((2, 0, 0, 0), 0.65), ((3, 0, 1, 0), 0.3), dim=2),
            ParamLaw("translation", 0, (0, 0), velocity=(9, 0)),
        ),
    )
    add("multi-gen-2d", SyntheticSpec(2, 4.0, multigen_profiles, 12, 106), _config(4.0, 3))

    add(
        "mixed-1d",
        SyntheticSpec(
            1, 4.0,
            (
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 1.0)), ParamLaw("constant", 0, (2,))),
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.6)), ParamLaw("mixed", 0, (0,), velocity=(5,), scale_step=1)),
            ),
            12, 107,
        ),
        _config(4.0, 2, bound_threshold=1.4),
    )

    add(
        "three-2d-p3",
        SyntheticSpec(
            2, 3.0,
            (
                PlantedProfile(entry_field(3.0, ((1, 0, 2, 2), 1.0), dim=2), ParamLaw("constant", 0, (2, 2))),
                PlantedProfile(entry_field(3.0, ((2, 0, 0, 0), 0.7), dim=2), ParamLaw("translation", 0, (5, 5), velocity=(8, 0))),
                PlantedProfile(entry_field(3.0, ((1, 0, 0, 0), 0.4), dim=2), ParamLaw("scaling", 0, (6, 6), scale_step=1)),
            ),
            12, 108,
        ),
        _config(3.0, 3, bound_threshold=2.0),
    )

    add(
        "four-1d",
        SyntheticSpec(
            1, 4.0,
            (
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 1.0)), ParamLaw("constant", 0, (4,))),
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.8)), ParamLaw("translation", 0, (2,), velocity=(7,))),
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.6)), ParamLaw("translation", 0, (-2,), velocity=(-7,))),
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.4)), ParamLaw("scaling", 1, (2,), scale_step=1)),
            ),
            16, 109,
        ),
        _config(4.0, 4, bound_threshold=3.0),
    )

    add(
        "sep-index",
        SyntheticSpec(
            1, 4.0,
            (
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 1.0)), ParamLaw("constant", -2, (0,))),
                PlantedProfile(entry_field(4.0, ((1, 0, 0), 0.5)), ParamLaw("translation", 0, (0,), velocity=(1,))),
            ),
            12, 110,
        ),
        _config(4.0, 2, bound_threshold=2.5),
    )

    add(
        "noisy-trans",
        SyntheticSpec(1, 4.0, trans_profiles, 16, 111, noise_amp=1e-4, noise_count=3),
        _config(4.0, 2, stop_epsilon=1e-3),
    )
    add(
        "noisy-multi-member",
        SyntheticSpec(1, 4.0, multimember_profiles, 16, 112, noise_amp=1e-3, noise_count=2),
        _config(4.0, 3, stop_epsilon=5e-3),
    )
    add(
        "noisy-scale",
        SyntheticSpec(1, 4.0, scale_up_profiles, 12, 113, noise_amp=5e-4, noise_count=4),
        _config(4.0, 2, stop_epsilon=2e-3),
    )

    add(
        "besov-trans",
        SyntheticSpec(1, 4.0, trans_profiles, 16, 114),
        _config(4.0, 2, mode="besov", a=2.0, q=2.0, remainder_space=(4.0, 4.0)),
    )
    add(
        "besov-multi-gen",
        SyntheticSpec(2, 4.0, multigen_profiles, 12, 115),
        _config(4.0, 3, mode="besov", a=2.0, q=3.0, remainder_space=(3.0, 4.5)),
    )
    return items


@dataclass
class CorpusRun:
    item: CorpusItem
    fields: tuple[CoeffField, ...]
    truth: object
    dec: object
    report: object


@pytest.fixture(scope="module")
def corpus_runs() -> tuple[list[CorpusRun], float]:
    start = time.perf_counter()
    runs = []
    for item in build_corpus():
        fields, truth = generate(item.spec)
        dec = extract_profiles(fields, item.config)
        report = verify(dec, item.config)
        runs.append(CorpusRun(item, fields, truth, dec, report))
    return runs, time.perf_counter() - start


def test_criterion_1_norm_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        dim = 1 if trial % 5 < 3 else 2
        f = random_field(
            rng,
            dim=dim,
            p=float(rng.choice([2.0, 3.0, 4.0])),
            max_entries=50,
            scale_lo=-4,
            scale_hi=4,
            shift_bound=8 if dim == 1 else 2,
        )
        fast, slow = lp_norm(f), grid_lp_oracle(f)
        worst = max(worst, abs(fast - slow) / slow)
    elapsed = time.perf_counter() - start
    _criterion(
        "1 norm-oracle-agreement",
        worst <= 1e-9 and elapsed < 10.0,
        f"max rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_transform_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 3))
        p = float(rng.choice([2.0, 3.0, 4.0]))
        f = random_field(rng, dim=dim, p=p, denom_exp_max=1)
        tau = random_affine(rng, dim=dim, denom_exp_max=1)
        g = transform(f, tau)
        base = lp_norm(f)
        worst = max(worst, abs(lp_norm(g) - base) / base)
        for a, q in [(2.0, 2.0), (p, math.inf)]:
            inv_a = 0.0 if a == math.inf else 1.0 / a
            prm = BesovParams(dim * (inv_a - 1.0 / p), a, q)
            ref = besov_norm(f, prm)
            if ref > 0:
                worst = max(worst, abs(besov_norm(g, prm) - ref) / ref)
    elapsed = time.perf_counter() - start
    _criterion(
        "2 transform-invariance",
        worst <= 1e-9 and elapsed < 5.0,
        f"max rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_projection_decay():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        p = float(rng.choice([2.0, 3.0, 4.0]))
        f = random_field(rng, dim=dim, p=p, max_entries=20)
        lp_bound = coeff_lp(f)
        besov_bounds = {}
        for a, q in [(2.0, 2.0), (2.0, 6.0), (3.0, 2.0)]:
            b = max(a, q)
            besov_bounds[b] = besov_norm(f, BesovParams(dim * (1.0 / b - 1.0 / p), b, b))
        for count in range(1, len(f) + 1):
            _, tail = split_top(f, count)
            peak = sup_amplitude(tail)
            ok = ok and count ** (1.0 / p) * peak <= lp_bound + 1e-12
            for b, bound in besov_bounds.items():
                ok = ok and count ** (1.0 / b) * peak <= bound + 1e-12
    elapsed = time.perf_counter() - start
    _criterion("3 projection-decay", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_4_interpolation_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    worst_ratio = 0.0
    all_hold = True
    for _ in range(500):
        p = float(rng.choice([2.0, 3.0, 4.0]))
        f = random_field(rng, dim=int(rng.integers(1, 3)), p=p)
        q = p + float(rng.uniform(0.5, 8.0)) if rng.uniform() < 0.85 else math.inf
        r = p + float(rng.uniform(0.5, 8.0)) if rng.uniform() < 0.85 else math.inf
        floor = max(p / q, p / r)
        alpha = floor + (1.0 - floor) * float(rng.uniform(0.02, 0.98))
        chk = interpolation_check(f, q, r, alpha)
        all_hold = all_hold and chk.holds
        if chk.rhs > 0:
            worst_ratio = max(worst_ratio, chk.lhs / chk.rhs)
    elapsed = time.perf_counter() - start
    _criterion(
        "4 interpolation-inequality",
        all_hold and worst_ratio <= 1.0 + 1e-12 and elapsed < 10.0,
        f"max lhs/rhs {worst_ratio:.15f}, {elapsed:.2f}s",
    )


def test_criterion_5_round_trip_recovery(corpus_runs):
    runs, build_time = corpus_runs
    start = time.perf_counter()
    failures = []
    for run in runs:
        item = run.item
        expected_groups = len(item.spec.profiles)
        if len(run.dec.groups) != expected_groups:
            failures.append(f"{item.name}: got {len(run.dec.groups)} groups")
            continue
        alignment = align_frames(run.dec, run.truth)
        allowed = 1e-9 if item.spec.noise_amp == 0.0 else item.spec.noise_amp + item.config.conv_tol
        if not alignment.complete:
            failures.append(f"{item.name}: unmatched groups")
        elif alignment.max_amplitude_deviation > allowed:
            failures.append(f"{item.name}: amplitude deviation {alignment.max_amplitude_deviation}")
        window = item.config.tail_window
        for gap in run.report.gaps:
            tail = gap.values[-window:]
            if any(tail[i + 1] <= tail[i] for i in range(len(tail) - 1)):
                failures.append(f"{item.name}: gap ({gap.first},{gap.second}) not strictly increasing")
        for n in run.dec.retained:
            for level in range(len(run.dec.groups) + 1):
                rebuilt = combine(reconstruct(run.dec, level, n), remainder(run.dec, level, n))
                if rebuilt != run.dec.inputs[n]:
                    failures.append(f"{item.name}: reconstruction broke at (L={level}, n={n})")
                    break
    elapsed = build_time + (time.perf_counter() - start)
    _criterion(
        "5 round-trip-recovery",
        not failures and elapsed < 60.0,
        "; ".join(failures) or f"{len(runs)} corpora, {elapsed:.2f}s",
    )


def test_criterion_6_stability(corpus_runs):
    runs, _ = corpus_runs
    failures = []
    for run in runs:
        item, report = run.item, run.report
        space = item.config.input_space
        if not report.stability.passes:
            failures.append(f"{item.name}: stability flag")
        if isinstance(space, LpInput):
            lhs = math.fsum(v**space.p for v in report.profile_norms)
            rhs = min(report.input_norms[-item.config.tail_window:]) ** space.p
        else:
            tau = max(space.a, space.q)
            lhs = math.fsum(v**tau for v in report.profile_norms) ** (1.0 / tau)
            rhs = min(report.input_norms[-item.config.tail_window:])
        if lhs > rhs + 1e-9:
            failures.append(f"{item.name}: {lhs} > {rhs} + 1e-9")
        noise_bound = item.spec.noise_amp * item.spec.noise_count
        if report.margin_max > noise_bound + 1e-12:
            failures.append(f"{item.name}: margin {report.margin_max} above noise bound {noise_bound}")
    _criterion("6 stability", not failures, "; ".join(failures) or f"{len(runs)} corpora")


def _support_bbox(group, n):
    lo = None
    hi = None
    anchor = group.anchor_params[n]
    for index in group.profile.entries:
        moved = act_on_index(anchor, index)
        cube_lo = [
            Fraction(c, 1 << moved.shift.denom_exp) / (1 << max(moved.scale, 0)) * (1 << max(-moved.scale, 0))
            for c in moved.shift.numerators
        ]
        side = Fraction(1, 1 << max(moved.scale, 0)) * (1 << max(-moved.scale, 0))
        cube_hi = [c + side for c in cube_lo]
        lo = cube_lo if lo is None else [min(a, b) for a, b in zip(lo, cube_lo)]
        hi = cube_hi if hi is None else [max(a, b) for a, b in zip(hi, cube_hi)]
    return lo, hi


def test_criterion_7_cross_interaction_vanishing(corpus_runs):
    runs, _ = corpus_runs
    start = time.perf_counter()
    failures = []
    for run in runs:
        groups = run.dec.groups
        ns = list(run.dec.retained)
        for cross in run.report.cross:
            first, second = groups[cross.first], groups[cross.second]
            separation = 0
            for pos, n in enumerate(ns):
                lo1, hi1 = _support_bbox(first, n)
                lo2, hi2 = _support_bbox(second, n)
                overlap = all(l1 < h2 and l2 < h1 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))
                if overlap:
                    separation = pos + 1
            for pos in range(separation, len(ns)):
                if cross.values[pos] != 0.0:
                    failures.append(
                        f"{run.item.name}: pair ({cross.first},{cross.second}) nonzero at n={ns[pos]}"
                    )
                    break
    elapsed = time.perf_counter() - start
    _criterion(
        "7 cross-interaction-vanishing",
        not failures and elapsed < 10.0,
        "; ".join(failures) or f"{elapsed:.2f}s",
    )


def test_criterion_8_byte_determinism(tmp_path):
    spec_items = build_corpus()
    chosen = [spec_items[0], spec_items[-2]]  # one Lebesgue-mode, one Besov-mode
    ok = True
    for item in chosen:
        base = tmp_path / item.name
        base.mkdir()
        spec_path = base / "spec.json"
        spec_path.write_text(dumps_canonical(synthetic_spec_to_obj(item.spec)))
        config_path = base / "config.json"
        config_path.write_text(dumps_canonical(config_to_obj(item.config)))
        corpus_dir = base / "corpus"
        assert cli_main(["generate", str(spec_path), str(corpus_dir)]) == 0
        first, second = base / "r1.json", base / "r2.json"
        assert cli_main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(first)]) == 0
        assert cli_main(["decompose", str(corpus_dir), "--config", str(config_path), "--out", str(second)]) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    _criterion("8 byte-determinism", ok, f"{len(chosen)} corpora, two runs each")
