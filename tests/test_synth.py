from __future__ import annotations

import dataclasses
import math

import pytest

import waveprof
from waveprof import cli, dyadic, extract, field, norms, synth
from waveprof.dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex, compose, invert
from waveprof.extract import ExtractConfig, LpInput, extract_profiles, remainder
from waveprof.field import CoeffField, transform
from waveprof.norms import lp_norm, sup_amplitude
from waveprof.synth import (
    ParamLaw,
    PlantedProfile,
    SeededStream,
    SyntheticSpec,
    align_frames,
    generate,
    validate_spec,
)
from conftest import lattice_frame, lattice_index


def unit_profile(amp=1.0, dim=1):
    return CoeffField.from_items(dim, 4.0, [(lattice_index(1, 0, *(0,) * dim), amp)])


def simple_spec(**overrides):
    base = dict(
        dim=1,
        p=4.0,
        profiles=(
            PlantedProfile(unit_profile(1.0), ParamLaw("constant", 0, (0,))),
            PlantedProfile(unit_profile(0.5), ParamLaw("translation", 0, (0,), velocity=(8,))),
        ),
        n_count=8,
        seed=11,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestParamLaw:
    def test_kind_consistency(self):
        with pytest.raises(ValueError):
            ParamLaw("constant", 0, (0,), velocity=(1,))
        with pytest.raises(ValueError):
            ParamLaw("translation", 0, (0,))
        with pytest.raises(ValueError):
            ParamLaw("scaling", 0, (0,))
        with pytest.raises(ValueError):
            ParamLaw("wiggle", 0, (0,))

    def test_rejects_an_empty_k0(self):
        # params builds its shift unchecked, so the dimension is checked here, once.
        with pytest.raises(ValueError, match="law dimension must be at least 1"):
            ParamLaw("constant", 0, ())

    def test_evaluation(self):
        law = ParamLaw("mixed", 1, (2,), velocity=(3,), scale_step=-1)
        assert law.params(4) == lattice_frame(-3, 14)

    def test_rejects_non_integers(self):
        # Truncated, (1.5,) and (2.7,) would give shift 3 at n = 1.
        with pytest.raises(TypeError):
            ParamLaw("translation", 0, (1.5,), velocity=(2,))
        with pytest.raises(TypeError):
            ParamLaw("translation", 0, (1,), velocity=(2.7,))


    @pytest.mark.parametrize(
        "fields", [{"j0": 0.5}, {"scale_step": 0.5}], ids=["float-j0", "float-scale-step"]
    )
    def test_rejects_non_integer_scales(self, fields):
        # A j0 of 0.5 would give the frame at n = 1 scale 1.5.
        law = dict(kind="scaling", j0=0, k0=(0,), scale_step=1) | fields
        with pytest.raises(TypeError):
            ParamLaw(**law)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind, speed, scale_step", [
        ("constant", 0, 0), ("translation", 3, 0), ("translation", -5, 0), ("scaling", 0, 2),
        ("scaling", 0, -1), ("mixed", 4, 1), ("mixed", -7, -3),
    ])
    def test_params_is_the_frame_the_public_constructors_build(self, dim, kind, speed, scale_step):
        # params builds its frame from the checked integer fields without re-checking them.
        k0 = tuple(range(-1, dim - 1))
        velocity = tuple(speed * (axis + 1) for axis in range(dim))
        law = ParamLaw(kind, -2, k0, velocity=velocity, scale_step=scale_step)
        for n in range(1, 6):
            frame = law.params(n)
            expected = DyadicAffine(
                -2 + n * scale_step,
                DyadicRationalVec(tuple(c + n * v for c, v in zip(k0, velocity))),
            )
            assert frame == expected
            assert type(frame) is DyadicAffine and type(frame.shift) is DyadicRationalVec
            assert frame.shift.denom_exp == 0
        with pytest.raises(TypeError):
            law.params(1.5)


class TestValidation:
    def test_non_divergent_laws_rejected(self):
        spec = simple_spec(
            profiles=(
                PlantedProfile(unit_profile(1.0), ParamLaw("constant", 0, (0,))),
                PlantedProfile(unit_profile(0.5), ParamLaw("constant", 0, (5,))),
            )
        )
        with pytest.raises(ValueError, match="separate"):
            validate_spec(spec)

    def test_off_lattice_rejected(self):
        deep = CoeffField.from_items(1, 4.0, [(lattice_index(1, -1, 1), 1.0)])
        spec = simple_spec(
            profiles=(
                PlantedProfile(unit_profile(1.0), ParamLaw("constant", 0, (0,))),
                PlantedProfile(deep, ParamLaw("translation", 0, (1,), velocity=(2,))),
            )
        )
        with pytest.raises(ValueError, match="lattice"):
            validate_spec(spec)

    def test_support_collision_rejected(self):
        spec = simple_spec(
            profiles=(
                PlantedProfile(unit_profile(1.0), ParamLaw("constant", 0, (8,))),
                PlantedProfile(unit_profile(0.5), ParamLaw("translation", 0, (0,), velocity=(8,))),
            )
        )
        with pytest.raises(ValueError, match="collide"):
            validate_spec(spec)

    def test_noise_fields_must_pair(self):
        with pytest.raises(ValueError):
            validate_spec(simple_spec(noise_amp=1e-3))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_count": 0}, "n_count must be at least 1"),
            ({"profiles": ()}, "at least one profile is required"),
            ({"noise_count": -1}, "noise count must be nonnegative"),
            (
                {"profiles": (PlantedProfile(
                    CoeffField.from_items(1, 2.0, [(lattice_index(1, 0, 0), 1.0)]),
                    ParamLaw("constant", 0, (0,)),
                ),)},
                "profile dimension or exponent does not match the spec",
            ),
            (
                {"profiles": (PlantedProfile(
                    CoeffField.from_items(1, 4.0, []), ParamLaw("constant", 0, (0,))
                ),)},
                "profiles must be nonempty",
            ),
            (
                {"profiles": (PlantedProfile(unit_profile(), ParamLaw("constant", 0, (0, 0))),)},
                "law dimension does not match the spec",
            ),
            (
                {"n_count": synth.MAX_GENERATED_ENTRIES},
                "n_count times (planted entries + noise count) exceeds "
                f"{synth.MAX_GENERATED_ENTRIES}",
            ),
            ({"n_count": 1}, "divergence of several laws needs n_count >= 2"),
        ],
        ids=[
            "n-count", "no-profiles", "noise-count", "profile-exponent", "empty-profile",
            "law-dimension", "generated-entries", "one-index",
        ],
    )
    def test_rejections_name_the_fault(self, overrides, message):
        with pytest.raises(ValueError) as caught:
            validate_spec(simple_spec(**overrides))
        assert str(caught.value) == message

    def test_too_many_profile_pairs_are_rejected_before_any_gap(self, monkeypatch):
        # 1000 one-entry profiles at n_count 2 make 999000 law gaps, about 10 s
        # of checks.  The laws never separate, so a gap computed would fail.
        def no_gap(*args):
            raise AssertionError("a law gap was computed")

        monkeypatch.setattr(synth, "orthogonality_gap", no_gap)
        profiles = tuple(
            PlantedProfile(unit_profile(), ParamLaw("constant", 0, (k,))) for k in range(1000)
        )
        spec = simple_spec(profiles=profiles, n_count=2)
        for check in (validate_spec, generate):
            with pytest.raises(ValueError) as caught:
                check(spec)
            assert str(caught.value) == f"n_count times profile pairs exceeds {synth.MAX_SPEC_PAIRS}"


class TestGenerate:
    def test_constant_profile_gives_identical_fields(self):
        spec = simple_spec(
            profiles=(PlantedProfile(unit_profile(1.0), ParamLaw("constant", 0, (0,))),)
        )
        fields, truth = generate(spec)
        assert all(f == fields[0] for f in fields)
        assert len(truth.groups) == 1

    def test_translation_entries(self):
        fields, _ = generate(simple_spec())
        for pos, f in enumerate(fields, start=1):
            assert set(f.entries) == {lattice_index(1, 0, 0), lattice_index(1, 0, 8 * pos)}

    def test_scale_law_entries_and_gap(self):
        spec = simple_spec(
            profiles=(
                PlantedProfile(unit_profile(1.0), ParamLaw("constant", 0, (0,))),
                PlantedProfile(unit_profile(0.5), ParamLaw("scaling", 0, (0,), scale_step=1)),
            )
        )
        fields, truth = generate(spec)
        for pos, f in enumerate(fields, start=1):
            assert {i.scale for i in f.entries} == {0, pos}
        from waveprof.dyadic import orthogonality_gap

        for pos in range(1, spec.n_count + 1):
            a = truth.groups[0].anchor_params[pos]
            b = truth.groups[1].anchor_params[pos]
            assert orthogonality_gap(a, b) == float(pos)

    def test_seeded_determinism(self):
        spec = simple_spec(noise_amp=1e-4, noise_count=3)
        first, _ = generate(spec)
        second, _ = generate(spec)
        assert list(first) == list(second)
        third, _ = generate(spec._replace(seed=12))
        assert list(third) != list(first)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_noise_is_small_fresh_and_counted(self, dim):
        origin = (0,) * dim
        spec = simple_spec(
            dim=dim,
            profiles=(
                PlantedProfile(unit_profile(1.0, dim), ParamLaw("constant", 0, origin)),
                PlantedProfile(
                    unit_profile(0.5, dim),
                    ParamLaw("translation", 0, origin, velocity=(8,) + origin[1:]),
                ),
            ),
            noise_amp=1e-4,
            noise_count=3,
        )
        fields, truth = generate(spec)
        for n, f in zip(truth.retained, fields):
            planted = {}
            for g in truth.groups:
                planted.update(transform(g.profile, g.anchor_params[n]).entries)
            extra = set(f.entries) - planted.keys()
            assert len(extra) == 3
            assert all(0.0 < abs(f.entries[i]) <= 1e-4 for i in extra)
            # Noise indices are built unchecked: each is the index the public constructors build.
            for i in extra:
                assert i == WaveletIndex(i.gen, i.scale, DyadicRationalVec(i.shift.numerators))
                assert type(i) is WaveletIndex and type(i.shift) is DyadicRationalVec
            # Noise is drawn into the input's planted mapping: a draw on a
            # planted index would replace that amplitude, not add to it.
            assert all(f.entries.get(i) == amp for i, amp in planted.items())

    def test_a_zero_noise_amplitude_is_redrawn(self, monkeypatch):
        unit = synth.SeededStream.unit
        zero = [0.5]  # 2 * 0.5 - 1 = 0: the first noise amplitude drawn is zero

        def first_zero(stream):
            return zero.pop() if zero else unit(stream)

        monkeypatch.setattr(synth.SeededStream, "unit", first_zero)
        fields, truth = generate(simple_spec(noise_amp=1e-4, noise_count=3))
        assert not zero
        planted = len(truth.groups)  # one entry per profile
        assert all(len(f) == planted + 3 and all(f.entries.values()) for f in fields)

    def test_sequence_is_norm_bounded(self):
        spec = simple_spec(noise_amp=1e-4, noise_count=3)
        fields, truth = generate(spec)
        budget = math.fsum(lp_norm(g.profile) for g in truth.groups) + 1e-4 * 3
        assert max(lp_norm(f) for f in fields) <= budget + 1e-12

    def test_makes_no_lp_norm_call(self, monkeypatch):
        calls = []
        original = norms.lp_norm

        def counting_lp_norm(field):
            calls.append(field)
            return original(field)

        for module in (waveprof, cli, extract, norms, synth):
            if vars(module).get("lp_norm") is original:
                monkeypatch.setattr(module, "lp_norm", counting_lp_norm)
        generate(simple_spec(noise_amp=1e-4, noise_count=3))
        assert calls == []

    def test_moves_each_planted_entry_once_per_index(self, monkeypatch):
        calls = []
        original = dyadic.act_on_index

        def counting_act_on_index(tau, index):
            calls.append(index)
            return original(tau, index)

        for module in (waveprof, dyadic, field, synth):
            if vars(module).get("act_on_index") is original:
                monkeypatch.setattr(module, "act_on_index", counting_act_on_index)
        pair = CoeffField.from_items(1, 4.0, [
            (lattice_index(1, 0, 0), 1.0), (lattice_index(1, 1, 1), 0.3),
        ])
        triple = CoeffField.from_items(1, 4.0, [
            (lattice_index(1, 0, 0), -0.8), (lattice_index(1, 0, 1), 0.4),
            (lattice_index(1, 1, 3), 0.2),
        ])
        spec = simple_spec(
            profiles=(
                PlantedProfile(pair, ParamLaw("constant", 0, (0,))),
                PlantedProfile(triple, ParamLaw("translation", 0, (2,), velocity=(8,))),
            ),
            noise_amp=1e-4,
            noise_count=2,
        )
        generate(spec)
        # Each entry is placed once per index, each profile's anchor is moved
        # once per index, and each entry is moved once into its profile's frame.
        entries, profiles = 5, 2
        assert len(calls) == spec.n_count * entries + spec.n_count * profiles + entries

    def test_truth_remainder_is_the_noise(self):
        spec = simple_spec(noise_amp=1e-4, noise_count=2)
        fields, truth = generate(spec)
        for n in truth.retained:
            rem = remainder(truth, len(truth.groups), n)
            assert len(rem) == 2
            assert sup_amplitude(rem) <= 1e-4


class TestSeededStream:
    def test_reference_values_are_stable(self):
        stream = SeededStream(1234)
        first = [stream.next_raw() for _ in range(3)]
        again = SeededStream(1234)
        assert [again.next_raw() for _ in range(3)] == first

    def test_bounded_draws(self):
        stream = SeededStream(7)
        draws = [stream.below(10) for _ in range(200)]
        assert all(0 <= d < 10 for d in draws)
        units = [stream.unit() for _ in range(200)]
        assert all(0.0 <= u < 1.0 for u in units)

    def test_a_bound_below_one_is_rejected(self):
        with pytest.raises(ValueError) as caught:
            SeededStream(1).below(0)
        assert str(caught.value) == "bound must be positive"

    def test_bound_beyond_one_draw_is_rejected(self):
        stream = SeededStream(7)
        assert 0 <= stream.below(1 << 64) < 1 << 64
        with pytest.raises(ValueError, match="2\\*\\*64"):
            stream.below((1 << 64) + 1)


class TestNoiseDrawWidth:
    def _spec(self, j0, count):
        planted = PlantedProfile(
            CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0)]),
            ParamLaw("scaling", j0, (0,), scale_step=-1),
        )
        return SyntheticSpec(1, 4.0, (planted,), n_count=4, seed=3, noise_amp=1e-4, noise_count=count)

    def test_widest_draw_generates(self):
        # The planted scale is largest at n = 1, where it is j0 - 1.  Noise
        # sits one scale finer, and 4 noise entries draw from 16 << 60 = 2**64.
        fields, _ = generate(self._spec(60, 4))
        assert all(len(f) == 5 for f in fields)

    def test_wider_draw_is_rejected_before_any_noise_is_drawn(self, monkeypatch):
        def no_draw(stream):
            pytest.fail("noise was drawn before the draw width was checked")

        monkeypatch.setattr(synth.SeededStream, "next_raw", no_draw)
        with pytest.raises(ValueError, match="noise at scale 60"):
            validate_spec(self._spec(60, 5))
        with pytest.raises(ValueError, match="noise at scale 61"):
            generate(self._spec(61, 4))

    def test_a_noise_edge_past_the_shift_bound_is_rejected_before_any_draw(self, monkeypatch):
        def no_draw(stream):
            pytest.fail("noise was drawn before the noise frame was checked")

        monkeypatch.setattr(synth.SeededStream, "next_raw", no_draw)
        far = dyadic.MAX_SHIFT + 1
        planted = PlantedProfile(unit_profile(), ParamLaw("constant", -far, (0,)))
        spec = SyntheticSpec(1, 4.0, (planted,), n_count=2, seed=3, noise_amp=1e-4, noise_count=2)
        for run in (validate_spec, generate):
            with pytest.raises(ValueError) as caught:
                run(spec)
            assert str(caught.value) == (
                f"exact index arithmetic needs a shift of {far} bits, more than {dyadic.MAX_SHIFT}"
            )

    def test_generators_beyond_one_draw_are_rejected(self):
        dim = 65
        planted = PlantedProfile(
            CoeffField.from_items(dim, 4.0, [(lattice_index(1, 0, *[0] * dim), 1.0)]),
            ParamLaw("constant", 0, (0,) * dim),
        )
        spec = SyntheticSpec(dim, 4.0, (planted,), n_count=2, seed=3, noise_amp=1e-4, noise_count=2)
        with pytest.raises(ValueError, match="noise at scale 1 in dimension 65"):
            generate(spec)


class TestNoiseFrame:
    def test_validate_spec_places_one_index_at_a_time(self, monkeypatch):
        placed_at, frame = synth._placed, synth._noise_frame
        log, received = [], []

        def logged(spec, n):
            log.append(n)
            return placed_at(spec, n)

        def watched(spec, fields):
            kept = []
            for f in fields:
                received.append(len(log))
                kept.append(f)
            return frame(spec, kept)

        monkeypatch.setattr(synth, "_placed", logged)
        monkeypatch.setattr(synth, "_noise_frame", watched)
        validate_spec(simple_spec(noise_amp=1e-4, noise_count=2))
        # One mapping per index, each received before the next index is placed.
        assert received == list(range(1, 9))

    def test_validate_spec_without_noise_places_each_index_once(self, monkeypatch):
        placed_at, log = synth._placed, []

        def logged(spec, n):
            log.append(n)
            return placed_at(spec, n)

        monkeypatch.setattr(synth, "_placed", logged)
        assert validate_spec(simple_spec()) is None
        assert log == list(range(1, 9))

    def test_generate_and_validate_spec_share_the_frame(self, monkeypatch):
        frames = []
        frame = synth._noise_frame

        def recorded(spec, fields):
            frames.append(frame(spec, fields))
            return frames[-1]

        monkeypatch.setattr(synth, "_noise_frame", recorded)
        spec = simple_spec(noise_amp=1e-4, noise_count=2)
        validate_spec(spec)
        generate(spec)
        assert len(frames) == 2 and frames[0] == frames[1]


class TestAlignFrames:
    def config(self):
        return ExtractConfig(
            max_iterations=12,
            tail_window=3,
            conv_tol=1e-9,
            bound_threshold=6.0,
            stop_epsilon=1e-9,
            input_space=LpInput(4.0),
            remainder_space=(8.0, 8.0),
        )

    def test_truth_matches_itself_identically(self):
        _, truth = generate(simple_spec())
        report = align_frames(truth, truth)
        assert report.complete
        assert report.max_amplitude_deviation == 0.0
        assert all(m.frame_map == DyadicAffine.identity(truth.dim) for m in report.matches)

    def test_group_order_is_irrelevant(self):
        _, truth = generate(simple_spec())
        permuted = dataclasses.replace(truth, groups=tuple(reversed(truth.groups)))
        report = align_frames(permuted, truth)
        assert report.complete
        assert {(m.truth_index, m.found_index) for m in report.matches} == {(0, 1), (1, 0)}

    def test_recovers_through_frame_change(self):
        _, truth = generate(simple_spec())
        sigma = lattice_frame(1, 3)
        moved = []
        for group in truth.groups:
            profile = transform(group.profile, invert(sigma))
            anchors = {}
            for n, anchor in group.anchor_params.items():
                anchors[n] = compose(anchor, sigma)
                assert anchors[n].shift.is_integral
            moved.append(dataclasses.replace(group, anchor_params=anchors, profile=profile))
        shifted = dataclasses.replace(truth, groups=tuple(moved))
        report = align_frames(shifted, truth)
        assert report.complete
        assert all(m.frame_map == sigma for m in report.matches)
        assert report.max_amplitude_deviation == 0.0

    def test_extractor_roundtrip(self):
        fields, truth = generate(simple_spec())
        dec = extract_profiles(fields, self.config())
        report = align_frames(dec, truth)
        assert report.complete
        assert report.max_amplitude_deviation == 0.0

    def test_unmatched_groups_are_reported(self):
        _, truth = generate(simple_spec())
        only_first = dataclasses.replace(truth, groups=truth.groups[:1])
        report = align_frames(only_first, truth)
        assert not report.complete
        assert report.unmatched_truth == (1,)

    def test_anchors_moved_by_a_varying_map_are_unmatched(self):
        _, truth = generate(simple_spec())
        anchors = dict(truth.groups[0].anchor_params)
        last = max(anchors)
        anchors[last] = compose(anchors[last], lattice_frame(0, 1))
        moved = dataclasses.replace(truth.groups[0], anchor_params=anchors)
        found = dataclasses.replace(truth, groups=(moved,) + truth.groups[1:])
        report = align_frames(found, truth)
        assert [(m.truth_index, m.found_index) for m in report.matches] == [(1, 1)]
        assert report.unmatched_truth == (0,) and report.unmatched_found == (0,)

    def test_a_profile_off_the_truth_profile_is_unmatched(self):
        # The anchors agree (identity map), but the profile sits one step over.
        _, truth = generate(simple_spec())
        off = CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 1), 1.0)])
        moved = dataclasses.replace(truth.groups[0], profile=off)
        found = dataclasses.replace(truth, groups=(moved,) + truth.groups[1:])
        report = align_frames(found, truth)
        assert [(m.truth_index, m.found_index) for m in report.matches] == [(1, 1)]
        assert report.unmatched_truth == (0,) and report.unmatched_found == (0,)

    def test_no_common_retained_index_is_rejected(self):
        # Without a shared index nothing fixes the frame map.
        _, truth = generate(simple_spec())
        found = dataclasses.replace(truth, retained=())
        with pytest.raises(ValueError, match="decompositions share no retained index"):
            align_frames(found, truth)

    def test_one_transform_per_pair_tried(self, monkeypatch):
        # The top entry (shift 1) is not the first in canonical order, and
        # both entries share its generator.
        pair = CoeffField.from_items(
            1, 4.0, [(lattice_index(1, 0, 0), 0.5), (lattice_index(1, 0, 1), 1.0)]
        )
        spec = simple_spec(
            profiles=(PlantedProfile(pair, ParamLaw("constant", 0, (0,))),)
            + simple_spec().profiles[1:]
        )
        _, truth = generate(spec)
        found = dataclasses.replace(truth, groups=tuple(reversed(truth.groups)))
        counts = {"tries": 0, "transforms": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(synth, "_try_match", counting("tries", synth._try_match))
        monkeypatch.setattr(synth, "transform", counting("transforms", synth.transform))
        report = align_frames(found, truth)
        assert report.complete and report.max_amplitude_deviation == 0.0
        assert counts["tries"] == 3
        assert counts["transforms"] <= counts["tries"]

    def test_dimension_mismatch(self):
        _, truth = generate(simple_spec())
        planted = PlantedProfile(unit_profile(1.0, dim=2), ParamLaw("constant", 0, (0, 0)))
        _, other = generate(simple_spec(dim=2, profiles=(planted,)))
        with pytest.raises(ValueError, match="decompositions must share dimension"):
            align_frames(truth, other)
