from __future__ import annotations

import dataclasses
import math
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from waveprof.dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex
import numpy as np

from waveprof import extract, field
from waveprof.extract import (
    BesovInput,
    Decomposition,
    ExtractConfig,
    LpInput,
    ProfileGroup,
    cross_interaction,
    extract_profiles,
    input_space_norm,
    reconstruct,
    remainder,
    remainder_space_norm,
    verify,
)
from waveprof.io_json import decomposition_from_obj, decomposition_to_obj
from waveprof.field import CoeffField, combine, transform
from waveprof.norms import coeff_lp, cross_square_pair, interpolation_check, lp_norm, sup_amplitude
from waveprof.synth import ParamLaw, PlantedProfile, SyntheticSpec, generate
from conftest import lattice_frame, lattice_index, random_field


def lp_config(p=4.0, **overrides) -> ExtractConfig:
    base = dict(
        max_iterations=12,
        tail_window=3,
        conv_tol=1e-9,
        bound_threshold=6.0,
        stop_epsilon=1e-9,
        input_space=LpInput(p),
        remainder_space=(2 * p, 2 * p),
    )
    base.update(overrides)
    return ExtractConfig(**base)


def seq_of(*entry_lists, p=4.0, dim=1):
    return [CoeffField.from_items(dim, p, entries) for entries in entry_lists]


class TestConfigValidation:
    def test_basic_bounds(self):
        with pytest.raises(ValueError):
            lp_config(tail_window=1)
        with pytest.raises(ValueError):
            lp_config(max_iterations=0)
        with pytest.raises(ValueError):
            lp_config(stop_epsilon=0.0)

    def test_lebesgue_input_exponent_below_2(self):
        with pytest.raises(ValueError, match=r"input exponent p must satisfy 2 <= p < infinity"):
            lp_config(p=1.5)

    def test_lebesgue_remainder_exponents(self):
        with pytest.raises(ValueError):
            lp_config(remainder_space=(4.0, 8.0))  # first must exceed p

    def test_besov_mode_constraints(self):
        good = dict(
            max_iterations=4,
            tail_window=2,
            conv_tol=1e-9,
            bound_threshold=6.0,
            stop_epsilon=1e-9,
            input_space=BesovInput(4.0, 2.0, 3.0),
        )
        ExtractConfig(**good, remainder_space=(3.0, 4.5))
        with pytest.raises(ValueError):
            ExtractConfig(**good, remainder_space=(2.0, 9.0))  # b must exceed a
        with pytest.raises(ValueError):
            ExtractConfig(**good, remainder_space=(3.0, 4.0))  # r below (b/a) q


class TestInputValidation:
    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            extract_profiles([], lp_config())

    def test_mixed_dimension(self):
        seq = [CoeffField.empty(1, 4.0), CoeffField.empty(2, 4.0)]
        with pytest.raises(ValueError):
            extract_profiles(seq, lp_config())

    def test_mixed_exponent(self):
        seq = [CoeffField.empty(1, 4.0), CoeffField.empty(1, 3.0)]
        with pytest.raises(ValueError):
            extract_profiles(seq, lp_config())

    def test_config_exponent_mismatch(self):
        seq = seq_of([(lattice_index(1, 0, 0), 1.0)], p=3.0)
        with pytest.raises(ValueError):
            extract_profiles(seq, lp_config(p=4.0))

    def test_non_lattice_input(self):
        off = WaveletIndex(1, 0, DyadicRationalVec((1,), 1))
        seq = [CoeffField.from_items(1, 4.0, [(off, 1.0)])]
        with pytest.raises(ValueError):
            extract_profiles(seq, lp_config(tail_window=2))

    def test_window_larger_than_sequence(self):
        seq = seq_of([(lattice_index(1, 0, 0), 1.0)])
        with pytest.raises(ValueError):
            extract_profiles(seq, lp_config(tail_window=2))


class TestConstantSequence:
    def test_fixed_point(self):
        entries = [(lattice_index(1, 0, 0), 1.0)]
        seq = seq_of(*([entries] * 5))
        dec = extract_profiles(seq, lp_config())
        assert len(dec.groups) == 1
        assert dec.retained == (1, 2, 3, 4, 5)
        group = dec.groups[0]
        assert all(group.anchor_params[n] == lattice_frame(0, 0) for n in dec.retained)
        assert group.profile == seq[0]
        assert group.members[0].index == lattice_index(1, 0, 0)
        assert len(remainder(dec, 1, 1)) == 0
        assert dec.diagnostics == ()

    def test_verify_is_trivial(self):
        entries = [(lattice_index(1, 0, 0), 1.0)]
        seq = seq_of(*([entries] * 5))
        dec = extract_profiles(seq, lp_config())
        rep = verify(dec, lp_config())
        assert rep.gaps == ()
        assert rep.stability.lhs == pytest.approx(rep.stability.rhs, rel=1e-12)
        assert rep.stability.passes
        assert all(m <= 0.0 for m in rep.margins)
        assert rep.remainders[-1].tail_max == 0.0


class TestTranslationPair:
    def make(self):
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0)]),
                    ParamLaw("constant", 0, (0,)),
                ),
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.5)]),
                    ParamLaw("translation", 0, (0,), velocity=(8,)),
                ),
            ),
            n_count=8,
            seed=5,
        )
        fields, truth = generate(spec)
        return extract_profiles(fields, lp_config()), truth

    def test_two_groups_with_expected_anchors(self):
        dec, _ = self.make()
        assert len(dec.groups) == 2
        assert dec.groups[1].anchor_params[3] == lattice_frame(0, 24)
        assert len(remainder(dec, 2, 5)) == 0

    def test_gap_table(self):
        dec, _ = self.make()
        rep = verify(dec, lp_config())
        (gap,) = rep.gaps
        assert gap.values == tuple(8.0 * n for n in range(1, 9))
        assert gap.passes

    def test_stability_and_margins(self):
        dec, _ = self.make()
        rep = verify(dec, lp_config())
        assert rep.stability.passes
        assert rep.stability.lhs == pytest.approx(1.0**4 + 0.5**4, rel=1e-12)
        assert rep.margin_max <= 1e-12
        assert rep.remainder_tail_nonincreasing

    def test_cross_interactions_vanish(self):
        dec, _ = self.make()
        for n in dec.retained:
            assert cross_interaction(dec, 0, 1, n) == 0.0
        with pytest.raises(ValueError):
            cross_interaction(dec, 0, 0, 1)
        with pytest.raises(ValueError):
            cross_interaction(dec, 0, 2, 1)

    def test_determinism(self):
        dec1, _ = self.make()
        dec2, _ = self.make()
        assert dec1 == dec2
        assert verify(dec1, lp_config()) == verify(dec2, lp_config())


class TestBoundedRelativeMap:
    def test_one_group_two_members(self):
        # Second component rides at constant relative position (scale 1, shift 1).
        profile = CoeffField.from_items(
            1, 4.0, [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 1, 1), 0.5)]
        )
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(PlantedProfile(profile, ParamLaw("translation", 0, (0,), velocity=(4,))),),
            n_count=6,
            seed=1,
        )
        fields, truth = generate(spec)
        dec = extract_profiles(fields, lp_config())
        assert len(dec.groups) == 1
        members = dec.groups[0].members
        assert len(members) == 2
        assert members[0].index == lattice_index(1, 0, 0) and members[0].rank == 1
        assert members[1].index == lattice_index(1, 1, 1)
        assert members[1].amplitude == 0.5
        assert dec.groups[0].profile == profile
        assert all(len(remainder(dec, 1, n)) == 0 for n in dec.retained)


def _small_decomposition():
    """One group over three inputs, every index retained."""
    profile = CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0)])
    anchors = {n: lattice_frame(0, n) for n in (1, 2, 3)}
    inputs = {n: CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, n), 1.0)]) for n in (1, 2, 3)}
    return Decomposition(1, 4.0, inputs, (ProfileGroup(anchors, (), profile),), (1, 2, 3), ())


def _other_dimension(dec):
    inputs = dict(dec.inputs)
    inputs[2] = CoeffField.from_items(2, 4.0, [(lattice_index(1, 0, 0, 0), 1.0)])
    return {"inputs": inputs}


def _other_exponent(dec):
    profile = CoeffField.from_items(1, 6.0, [(lattice_index(1, 0, 0), 1.0)])
    return {"groups": (dataclasses.replace(dec.groups[0], profile=profile),)}


def _missing_anchor(dec):
    anchors = {n: dec.groups[0].anchor_params[n] for n in (1, 3)}
    return {"groups": (dataclasses.replace(dec.groups[0], anchor_params=anchors),)}


def _anchor_off_the_lattice(dec):
    # A report row [n, j, k] has no denominator, so such an anchor cannot be written.
    anchors = dict(dec.groups[0].anchor_params)
    anchors[2] = DyadicAffine(0, DyadicRationalVec((1,), 1))
    return {"groups": (dataclasses.replace(dec.groups[0], anchor_params=anchors),)}


class TestDecompositionChecksItself:
    CASES = [
        (_other_dimension, "inputs do not match the stored decomposition"),
        (_other_exponent, "group 0 profile does not match the decomposition"),
        (lambda dec: {"retained": (1, 2, 4)}, "retained must list strictly increasing corpus indices"),
        (lambda dec: {"retained": (2, 1, 3)}, "retained must list strictly increasing corpus indices"),
        (lambda dec: {"retained": (1, 1, 3)}, "retained must list strictly increasing corpus indices"),
        (_missing_anchor, "group 0 lacks anchor rows for retained indices"),
        (_anchor_off_the_lattice, "group 0 has an anchor off the integer lattice"),
    ]
    IDS = [
        "input-dimension", "profile-exponent", "retained-outside", "retained-unsorted",
        "retained-repeated", "missing-anchor", "anchor-off-the-lattice",
    ]

    @pytest.mark.parametrize("broken, message", CASES, ids=IDS)
    def test_hand_built_breach_raises(self, broken, message):
        dec = _small_decomposition()
        fields = {
            "dim": dec.dim, "p": dec.p, "inputs": dec.inputs, "groups": dec.groups,
            "retained": dec.retained, "diagnostics": dec.diagnostics,
        }
        fields.update(broken(dec))
        with pytest.raises(ValueError, match=message):
            Decomposition(**fields)

    @pytest.mark.parametrize("broken, message", CASES, ids=IDS)
    def test_replace_breach_raises(self, broken, message):
        dec = _small_decomposition()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(dec, **broken(dec))

    def test_input_outside_retained_is_not_reconstructed(self):
        dec = dataclasses.replace(_small_decomposition(), retained=(1, 3))
        with pytest.raises(ValueError, match="sequence index 2 is not retained"):
            reconstruct(dec, 1, 2)


class TestReconstruction:
    def make(self):
        entries = [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 2, 9), 0.25)]
        seq = seq_of(*([entries] * 4))
        return extract_profiles(seq, lp_config()), seq

    def test_level_zero(self):
        dec, seq = self.make()
        assert len(reconstruct(dec, 0, 1)) == 0
        assert remainder(dec, 0, 2) == seq[1]

    def test_exact_identity_everywhere(self):
        dec, seq = self.make()
        for n in dec.retained:
            for level in range(len(dec.groups) + 1):
                back = combine(reconstruct(dec, level, n), remainder(dec, level, n))
                assert back == seq[n - 1]

    def test_range_errors(self):
        dec, _ = self.make()
        with pytest.raises(ValueError):
            reconstruct(dec, len(dec.groups) + 1, 1)
        with pytest.raises(ValueError):
            reconstruct(dec, 0, 99)


class TestDiagnostics:
    def test_generator_restriction_prunes(self):
        # One early index carries its peak on a different generator.
        odd = [(lattice_index(3, 0, 0, 0), 1.0)]
        usual = [(lattice_index(1, 0, 0, 0), 1.0)]
        seq = seq_of(odd, usual, usual, usual, usual, dim=2)
        dec = extract_profiles(seq, lp_config())
        assert dec.retained == (2, 3, 4, 5)
        assert dec.diagnostics == ("iterate 1: generator restriction dropped 1 indices",)

    def test_oscillating_parameters_open_group_with_note(self):
        fields = []
        for n in range(1, 7):
            wobble = 5 if n % 2 else 7
            fields.append(
                CoeffField.from_items(
                    1,
                    4.0,
                    [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 0, wobble), 0.5)],
                )
            )
        dec = extract_profiles(fields, lp_config(bound_threshold=100.0))
        assert len(dec.groups) == 2
        assert dec.diagnostics == ("iterate 2: ambiguous relative parameters, opened group 1",)

    def test_amplitude_spread_is_flagged(self):
        fields = [
            CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0 + 0.1 * (n % 2))])
            for n in range(1, 7)
        ]
        dec = extract_profiles(fields, lp_config(conv_tol=1e-3, stop_epsilon=0.5))
        assert any("amplitude spread" in d for d in dec.diagnostics)

    def test_zero_limit_amplitude_is_omitted_with_note(self):
        # Sign-alternating amplitudes average to zero over an even tail window.
        fields = [
            CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0 if n % 2 else -1.0)])
            for n in range(1, 7)
        ]
        dec = extract_profiles(fields, lp_config(tail_window=4, max_iterations=1))
        assert len(dec.groups) == 1
        assert len(dec.groups[0].profile) == 0
        assert dec.groups[0].members[0].amplitude == 0.0
        assert any("zero limit amplitude" in d for d in dec.diagnostics)
        assert any("amplitude spread" in d for d in dec.diagnostics)

    def test_zero_limit_amplitude_member_survives_a_stored_report(self):
        fields = [
            CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0 if n % 2 else -1.0)])
            for n in range(1, 7)
        ]
        dec = extract_profiles(fields, lp_config(tail_window=4, max_iterations=1))
        stored = decomposition_from_obj(decomposition_to_obj(dec), dec.inputs)
        assert stored.groups == dec.groups
        assert stored.groups[0].members[0].index == lattice_index(1, 0, 0)

    def test_exhausted_residuals_are_pruned(self):
        short = [(lattice_index(1, 0, 0), 1.0)]
        long = [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 2, 9), 0.5)]
        seq = seq_of(short, short, long, long, long, long)
        dec = extract_profiles(seq, lp_config())
        assert dec.retained == (3, 4, 5, 6)
        assert dec.diagnostics == ("iterate 2: dropped 2 exhausted residuals",)
        assert len(dec.groups) == 1
        assert len(dec.groups[0].members) == 2

    def test_relative_map_constancy_prunes_before_the_tail(self):
        # The second components keep one relative map on the tail window, but
        # index 1 carries its own at another shift, so the group drops it.
        second = {1: lattice_index(1, 1, 5)}
        seq = [
            CoeffField.from_items(
                1, 4.0, [(lattice_index(1, 0, 0), 1.0), (second.get(n, lattice_index(1, 1, 1)), 0.5)]
            )
            for n in range(1, 6)
        ]
        dec = extract_profiles(seq, lp_config())
        assert dec.diagnostics == ("iterate 2: relative-map constancy dropped 1 indices",)
        assert dec.retained == (2, 3, 4, 5)
        assert len(dec.groups) == 1 and len(dec.groups[0].members) == 2

    def test_exhausted_residuals_below_the_tail_window_stop(self):
        short = [(lattice_index(1, 0, 0), 1.0)]
        long = [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 2, 9), 0.5)]
        dec = extract_profiles(seq_of(short, short, short, long), lp_config())
        assert dec.diagnostics == (
            "iterate 2: dropped 3 exhausted residuals",
            "iterate 2: retained set shrank below the tail window",
        )
        assert dec.retained == (4,)
        assert len(dec.groups) == 1 and dict(dec.groups[0].anchor_params) == {4: lattice_frame(0, 0)}

    def test_generator_restriction_below_the_tail_window_stops(self):
        odd = [(lattice_index(3, 0, 0, 0), 1.0)]
        usual = [(lattice_index(1, 0, 0, 0), 1.0)]
        dec = extract_profiles(seq_of(odd, odd, usual, usual, dim=2), lp_config())
        assert dec.diagnostics == (
            "iterate 1: generator restriction dropped 2 indices",
            "iterate 1: retained set shrank below the tail window",
        )
        assert dec.retained == (3, 4)
        assert dec.groups == ()


class TestStoppingRules:
    def test_stop_epsilon_leaves_small_residual(self):
        entries = [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 3, 17), 1e-6)]
        seq = seq_of(*([entries] * 4))
        dec = extract_profiles(seq, lp_config(stop_epsilon=1e-3))
        assert len(dec.groups) == 1
        assert sup_amplitude(remainder(dec, 1, 1)) == pytest.approx(1e-6)

    def test_iteration_budget(self):
        entries = [(lattice_index(1, 0, k), 1.0 / (k + 1)) for k in range(6)]
        seq = seq_of(*([entries] * 4))
        dec = extract_profiles(seq, lp_config(max_iterations=3, bound_threshold=0.5))
        total_members = sum(len(g.members) for g in dec.groups)
        assert total_members == 3


class TestExtractionInvariants:
    def make(self):
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(
                PlantedProfile(
                    CoeffField.from_items(
                        1, 4.0, [(lattice_index(1, 0, 0), 1.0), (lattice_index(1, 1, 1), 0.4)]
                    ),
                    ParamLaw("constant", 0, (0,)),
                ),
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.7)]),
                    ParamLaw("translation", 0, (1,), velocity=(9,)),
                ),
            ),
            n_count=10,
            seed=3,
        )
        fields, _ = generate(spec)
        return extract_profiles(fields, lp_config()), fields

    def test_rank_monotone_amplitudes(self):
        dec, _ = self.make()
        members = sorted((m for g in dec.groups for m in g.members), key=lambda m: m.rank)
        assert [m.rank for m in members] == list(range(1, len(members) + 1))
        amps = [abs(m.amplitude) for m in members]
        assert all(amps[i] >= amps[i + 1] for i in range(len(amps) - 1))

    def test_residual_sup_decreases_with_level(self):
        dec, _ = self.make()
        for n in dec.retained:
            sups = [sup_amplitude(remainder(dec, level, n)) for level in range(len(dec.groups) + 1)]
            assert all(sups[i + 1] <= sups[i] for i in range(len(sups) - 1))

    def test_amplitude_power_sum_bounded(self):
        dec, fields = self.make()
        total = math.fsum(abs(m.amplitude) ** dec.p for g in dec.groups for m in g.members)
        assert total <= max(lp_norm(f) for f in fields) ** dec.p + 1e-9

    def test_profile_norm_bounded_by_tail_inputs(self):
        dec, fields = self.make()
        ceiling = min(lp_norm(f) for f in fields)
        for group in dec.groups:
            assert lp_norm(group.profile) <= ceiling + 1e-9


class TestNoisyRemainderBound:
    def test_tail_max_below_interpolation_bound(self):
        # With every profile recovered, the remainder is exactly the planted
        # noise; its remainder-space norm obeys the convexity bound built from
        # its amplitude l^p norm and its sup amplitude.
        eps = 1e-4
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0)]),
                    ParamLaw("constant", 0, (0,)),
                ),
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.5)]),
                    ParamLaw("translation", 0, (0,), velocity=(8,)),
                ),
            ),
            n_count=8,
            seed=31,
            noise_amp=eps,
            noise_count=3,
        )
        fields, _ = generate(spec)
        cfg = lp_config(stop_epsilon=1e-3)
        dec = extract_profiles(fields, cfg)
        rep = verify(dec, cfg)
        full = len(dec.groups)
        assert rep.remainders[full].tail_max >= 0.0
        bounds = []
        for n in dec.retained:
            noise_part = remainder(dec, full, n)
            chk = interpolation_check(noise_part, *cfg.remainder_space, 0.75)
            assert chk.holds
            bounds.append(coeff_lp(noise_part) ** 0.75 * eps**0.25)
        assert rep.remainders[full].tail_max <= max(bounds) * (1 + 1e-12)


class TestNestedScaleDivergence:
    def test_cross_interaction_decays_for_nested_supports(self):
        # A bump that sharpens in place stays inside the flat bump's cube, so
        # the interaction is never exactly zero but must decay geometrically.
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0)]),
                    ParamLaw("constant", 0, (0,)),
                ),
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.5)]),
                    ParamLaw("scaling", 0, (0,), scale_step=1),
                ),
            ),
            n_count=10,
            seed=21,
        )
        fields, _ = generate(spec)
        dec = extract_profiles(fields, lp_config())
        assert len(dec.groups) == 2
        for first, second in [(0, 1), (1, 0)]:
            values = [cross_interaction(dec, first, second, n) for n in dec.retained]
            assert all(v > 0.0 for v in values)
            # Geometric decay at rate 2**(-2/p) per step for this geometry.
            for left, right in zip(values, values[1:]):
                assert right == pytest.approx(left * 2.0 ** (-0.5), rel=1e-9)

    def test_cross_interaction_is_zero_at_p_2(self):
        # The same nested supports interact at p = 4; at p = 2 the cross
        # terms are vacuous and the interaction is 0.0 by convention.
        def nested_truth(p):
            profiles = tuple(
                PlantedProfile(CoeffField.from_items(1, p, [(lattice_index(1, 0, 0), amp)]), law)
                for amp, law in [
                    (1.0, ParamLaw("constant", 0, (0,))),
                    (0.5, ParamLaw("scaling", 0, (0,), scale_step=1)),
                ]
            )
            return generate(SyntheticSpec(dim=1, p=p, profiles=profiles, n_count=4, seed=21))[1]

        for p, interacts in [(4.0, True), (2.0, False)]:
            truth = nested_truth(p)
            for first, second in [(0, 1), (1, 0)]:
                for n in truth.retained:
                    value = cross_interaction(truth, first, second, n)
                    assert (value > 0.0) if interacts else (value == 0.0)


class TestBesovMode:
    def besov_config(self, **overrides):
        base = dict(
            max_iterations=12,
            tail_window=3,
            conv_tol=1e-9,
            bound_threshold=6.0,
            stop_epsilon=1e-9,
            input_space=BesovInput(4.0, 2.0, 2.0),
            remainder_space=(4.0, 4.0),
        )
        base.update(overrides)
        return ExtractConfig(**base)

    def test_extraction_and_stability(self):
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 1.0)]),
                    ParamLaw("constant", 0, (0,)),
                ),
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.5)]),
                    ParamLaw("scaling", 0, (0,), scale_step=1),
                ),
            ),
            n_count=8,
            seed=9,
        )
        fields, _ = generate(spec)
        cfg = self.besov_config()
        dec = extract_profiles(fields, cfg)
        assert len(dec.groups) == 2
        rep = verify(dec, cfg)
        assert rep.stability.aggregation == 2.0
        lhs = math.fsum(v**2 for v in rep.profile_norms) ** 0.5
        assert rep.stability.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.stability.passes
        # Scale-invariant input norm: every input has the same norm.
        norms = {input_space_norm(f, cfg.input_space) for f in fields}
        assert len(norms) == 1

    def test_stability_with_infinite_aggregation(self):
        spec = SyntheticSpec(
            dim=1,
            p=4.0,
            profiles=(
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.8)]),
                    ParamLaw("constant", 0, (0,)),
                ),
                PlantedProfile(
                    CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), 0.5)]),
                    ParamLaw("scaling", 0, (0,), scale_step=1),
                ),
            ),
            n_count=8,
            seed=9,
        )
        fields, _ = generate(spec)
        cfg = self.besov_config(
            input_space=BesovInput(4.0, 2.0, math.inf), remainder_space=(4.0, math.inf)
        )
        rep = verify(extract_profiles(fields, cfg), cfg)
        # Norms below 1 tell the maximum from the finite-exponent formula,
        # which gives 0.0 ** 0.0 == 1.0 at an infinite exponent.
        assert len(rep.profile_norms) == 2 and max(rep.profile_norms) < 1.0
        assert rep.stability.aggregation == math.inf
        assert rep.stability.lhs.hex() == max(rep.profile_norms).hex()


def _planted_groups(rng, dim, p, count, n_count, overlap):
    """``count`` groups with random profiles; ``overlap`` places them all on one frame."""
    groups = []
    for _ in range(count):
        profile = random_field(rng, dim, p, max_entries=4, scale_lo=-1, scale_hi=1,
                               shift_bound=2, denom_exp_max=1)
        if overlap:
            anchors = {n: lattice_frame(0, *(0,) * dim) for n in range(1, n_count + 1)}
        else:
            anchors = {
                n: lattice_frame(int(rng.integers(-1, 2)), *(int(rng.integers(-3, 4)) for _ in range(dim)))
                for n in range(1, n_count + 1)
            }
        groups.append(ProfileGroup(anchors, (), profile))
    return groups


def _random_decomposition(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    p = (2.0, 4.0, 6.0)[seed % 3]
    n_count = 5
    groups = _planted_groups(rng, dim, p, int(rng.integers(1, 4)), n_count, overlap=seed % 2 == 0)
    inputs = {}
    for n in range(1, n_count + 1):
        noise = random_field(rng, dim, p, max_entries=6, scale_lo=-1, scale_hi=2, shift_bound=4)
        # Part of a placed profile, so that some remainder entries cancel exactly.
        placed = transform(groups[0].profile, groups[0].anchor_params[n])
        kept = dict(list(placed.entries.items())[: int(rng.integers(0, len(placed) + 1))])
        inputs[n] = CoeffField(dim, p, {**noise.entries, **kept}) if placed.is_lattice else noise
    return Decomposition(dim, p, inputs, tuple(groups), tuple(range(1, n_count + 1)), ())


def _cancelling_decomposition():
    """Two opposite profiles on one index, then one equal to the input there."""
    index = lattice_index(1, 0, 0)
    x = 0.7
    profiles = [(index, 0.3), (index, -0.3), (index, x), (lattice_index(1, 1, 1), 0.1)]
    anchors = {n: lattice_frame(0, 0) for n in (1, 2, 3)}
    groups = tuple(
        ProfileGroup(anchors, (), CoeffField.from_items(1, 4.0, [entry])) for entry in profiles
    )
    inputs = {
        n: CoeffField.from_items(1, 4.0, [(index, x), (lattice_index(1, 2, n), 0.25)])
        for n in (1, 2, 3)
    }
    return Decomposition(1, 4.0, inputs, groups, (1, 2, 3), ())


def _config_for(dec):
    return lp_config(dec.p, tail_window=2)


class TestIncrementalRemainders:
    """verify updates each remainder on the new profile's support only."""

    @pytest.mark.parametrize("seed", range(12))
    def test_norms_match_the_full_rebuild(self, seed):
        dec = _random_decomposition(seed)
        self._check(dec, _config_for(dec))

    def test_overlap_and_exact_cancellation(self):
        dec = _cancelling_decomposition()
        config = _config_for(dec)
        # Level 2: the two opposite profiles sum to exactly 0.0, so the
        # remainder is the input; level 3: the input entry cancels to 0.0.
        assert remainder(dec, 2, 1) == dec.inputs[1]
        assert len(remainder(dec, 3, 1)) == len(dec.inputs[1]) - 1
        self._check(dec, config)

    def test_besov_mode(self):
        dec = _random_decomposition(4)
        config = ExtractConfig(
            max_iterations=4, tail_window=2, conv_tol=1e-9, bound_threshold=6.0,
            stop_epsilon=1e-9, input_space=BesovInput(dec.p, 2.0, 2.0), remainder_space=(3.0, 4.0),
        )
        self._check(dec, config)

    @staticmethod
    def _check(dec, config):
        report = verify(dec, config)
        window = config.tail_window
        for level, rem_report in enumerate(report.remainders):
            want = [remainder_space_norm(remainder(dec, level, n), config) for n in dec.retained]
            assert [v.hex() for v in rem_report.norms] == [v.hex() for v in want]
            excess = [
                input_space_norm(remainder(dec, level, n), config.input_space)
                - input_space_norm(dec.inputs[n], config.input_space)
                for n in dec.retained[-window:]
            ]
            assert report.margins[level].hex() == max(excess).hex()

    def test_verify_makes_no_combine_call(self, monkeypatch):
        # The full rebuild made n * (2G + 1) combine calls: G + 1 remainders
        # and G partial sums per retained index n.
        calls = []
        original = field.combine

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(field, "combine", counted)
        monkeypatch.setattr(extract, "combine", counted)
        dec = _cancelling_decomposition()
        verify(dec, _config_for(dec))
        assert calls == []
        remainder(dec, 1, 1)
        assert calls, "the counter sees the combine calls of remainder"

    def test_overflowing_partial_sum_still_raises(self):
        # Two profiles of 0.9e308 on one index sum past the float range.  The
        # Besov exponents keep every norm before that sum finite.
        index = lattice_index(1, 0, 0)
        profile = CoeffField.from_items(1, 4.0, [(index, 0.9e308)])
        anchors = {n: lattice_frame(0, 0) for n in (1, 2)}
        groups = (ProfileGroup(anchors, (), profile),) * 2
        inputs = {n: CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 5), 1.0)]) for n in (1, 2)}
        dec = Decomposition(1, 4.0, inputs, groups, (1, 2), ())
        config = ExtractConfig(
            max_iterations=4, tail_window=2, conv_tol=1e-9, bound_threshold=6.0,
            stop_epsilon=1e-9, input_space=BesovInput(4.0, 1.0, 1.0),
            remainder_space=(1.0001, 1.0001),
        )
        remainder_space_norm(remainder(dec, 1, 1), config)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            remainder(dec, 2, 1)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            verify(dec, config)

    @staticmethod
    def _one_profile(input_entries, profile_entries, p=4.0):
        """One group at the identity frame on indices 1 and 2, over the same input at both."""
        anchors = {n: lattice_frame(0, 0) for n in (1, 2)}
        groups = tuple(
            ProfileGroup(anchors, (), CoeffField.from_items(1, p, [entry])) for entry in profile_entries
        )
        inputs = {n: CoeffField.from_items(1, p, input_entries) for n in (1, 2)}
        return Decomposition(1, p, inputs, groups, (1, 2), ())

    def test_a_level_that_empties_a_scale(self):
        # Level 1 cancels the only entry at scale 1; level 2 puts one back.
        top = lattice_index(1, 1, 0)
        dec = self._one_profile(
            [(lattice_index(1, 0, 0), 1.0), (top, 0.5)], [(top, 0.5), (top, 0.25)]
        )
        assert {i.scale for i in remainder(dec, 1, 1).entries} == {0}
        self._check(dec, _config_for(dec))

    def test_a_placed_entry_at_a_scale_the_input_lacks(self):
        dec = self._one_profile(
            [(lattice_index(1, 0, 0), 1.0)],
            [(lattice_index(1, 3, 2), 0.5), (lattice_index(1, -2, 0), 0.75)],
        )
        assert {i.scale for i in remainder(dec, 2, 2).entries} == {-2, 0, 3}
        self._check(dec, _config_for(dec))

    @pytest.mark.parametrize("seed", range(3))
    def test_an_infinite_inner_remainder_exponent(self, seed):
        dec = _random_decomposition(seed)
        config = lp_config(dec.p, tail_window=2, remainder_space=(math.inf, math.inf))
        self._check(dec, config)

    def test_a_remainder_term_that_overflows(self):
        # 1e200 squared leaves the float range in the l^2 term of its scale at
        # level 1; every norm before that is finite (Besov input with a = 1).
        dec = self._one_profile(
            [(lattice_index(1, 0, 0), 1.0)], [(lattice_index(1, 0, 0), 0.5), (lattice_index(1, 2, 1), 1e200)]
        )
        config = ExtractConfig(
            max_iterations=4, tail_window=2, conv_tol=1e-9, bound_threshold=6.0,
            stop_epsilon=1e-9, input_space=BesovInput(4.0, 1.0, 1.0), remainder_space=(2.0, 2.0),
        )
        for level in (0, 1):
            remainder_space_norm(remainder(dec, level, 1), config)
        with pytest.raises(ValueError) as rebuilt:
            remainder_space_norm(remainder(dec, 2, 1), config)
        with pytest.raises(ValueError) as verified:
            verify(dec, config)
        assert str(verified.value) == str(rebuilt.value) == "Besov norm overflows the float range"


class TestCrossTableOracle:
    """verify builds each placed profile's boxes once per index; one pair at a time is the oracle."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([3.0, 4.0, 6.0]))
    def test_each_entry_is_cross_square_pair_bit_for_bit(self, seed, dim, p):
        rng = np.random.default_rng(seed)
        retained = (1, 2, 3)
        groups = []
        for _ in range(int(rng.integers(2, 5))):
            # Up to four entries at nested scales, with shifts up to two bits
            # off the lattice; anchors near each other overlap, far ones are
            # disjoint, and a coarse anchor puts a profile at other resolutions.
            profile = random_field(rng, dim, p, max_entries=4, scale_lo=-2, scale_hi=2,
                                   shift_bound=2, denom_exp_max=2)
            anchors = {
                n: lattice_frame(int(rng.integers(-2, 3)), *(int(rng.integers(-6, 7)) for _ in range(dim)))
                for n in retained
            }
            groups.append(ProfileGroup(anchors, (), profile))
        inputs = {n: random_field(rng, dim, p, max_entries=3) for n in retained}
        dec = Decomposition(dim, p, inputs, tuple(groups), retained, ())
        report = verify(dec, lp_config(p, tail_window=2))
        table = {(r.first, r.second): r.values for r in report.cross}
        for i, k in permutations(range(len(groups)), 2):
            for pos, n in enumerate(retained):
                f = transform(groups[i].profile, groups[i].anchor_params[n])
                g = transform(groups[k].profile, groups[k].anchor_params[n])
                assert table[i, k][pos].hex() == cross_square_pair(f, g)[0].hex()


def _cross_shaped_corpus():
    """A small cross-1d-like corpus: p = 4, Lebesgue mode, translating profiles."""
    profiles = tuple(
        PlantedProfile(
            CoeffField.from_items(1, 4.0, [(lattice_index(1, 0, 0), amp), (lattice_index(1, 1, 1), amp / 4)]),
            ParamLaw("translation", 0, (offset,), velocity=(velocity,)),
        )
        for amp, offset, velocity in ((1.0, 0, 9), (0.6, 3, 21), (0.35, -5, -14))
    )
    spec = SyntheticSpec(dim=1, p=4.0, profiles=profiles, n_count=10, seed=3)
    fields, _ = generate(spec)
    return fields


class TestOneInputNormPass:
    def _count_lp_norm(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(1)
            return lp_norm(f)

        monkeypatch.setattr(extract, "lp_norm", counted)
        return calls

    def test_decompose_measures_each_input_once(self, monkeypatch):
        fields = _cross_shaped_corpus()
        config = lp_config(max_iterations=8, tail_window=3)
        calls = self._count_lp_norm(monkeypatch)
        dec = extract_profiles(fields, config)
        extracted = len(calls)
        report = verify(dec, config)
        groups, window = len(dec.groups), config.tail_window
        assert dec.retained == tuple(range(1, len(fields) + 1)) and groups == 3
        assert extracted == len(fields)
        # The rebuild measured the retained inputs again in verify: one
        # lp_norm call per input more than this, for the same report.  Tail
        # remainders are measured from level 1 on: at level 0 each is its input.
        before = len(fields) + len(dec.retained) + groups + window * groups
        assert len(calls) == before - len(fields)
        assert report.input_norms == tuple(lp_norm(f) for f in fields)

    def test_stored_decomposition_measures_every_input(self, monkeypatch):
        fields = _cross_shaped_corpus()
        config = lp_config(max_iterations=8, tail_window=3)
        dec = extract_profiles(fields, config)
        stored = decomposition_from_obj(decomposition_to_obj(dec), dec.inputs)
        assert stored.input_norms is None
        calls = self._count_lp_norm(monkeypatch)
        assert verify(stored, config) == verify(dec, config)
        groups = len(dec.groups)
        rebuilt = len(dec.retained) + groups + config.tail_window * groups
        assert len(calls) == rebuilt + (rebuilt - len(dec.retained))

    @pytest.mark.parametrize("space, remainder", [
        (LpInput(4.0), (8.0, 8.0)), (BesovInput(4.0, 2.0, 2.0), (3.0, 4.0)),
    ], ids=["lp", "besov"])
    def test_verify_measures_no_tail_input_against_itself(self, monkeypatch, space, remainder):
        # At level 0 the remainder is the input, whose excess over itself is 0.0.
        config = ExtractConfig(
            max_iterations=8, tail_window=3, conv_tol=1e-9, bound_threshold=6.0,
            stop_epsilon=1e-9, input_space=space, remainder_space=remainder,
        )
        dec = extract_profiles(_cross_shaped_corpus(), config)
        calls = []

        def counted(f, measured):
            calls.append(1)
            return input_space_norm(f, measured)

        monkeypatch.setattr(extract, "input_space_norm", counted)
        report = verify(dec, config)
        groups = len(dec.groups)
        assert groups == 3
        assert len(calls) == groups + config.tail_window * groups
        assert report.margins[0] == 0.0

    def test_other_space_is_measured_again(self):
        fields = _cross_shaped_corpus()
        dec = extract_profiles(fields, lp_config(max_iterations=8, tail_window=3))
        besov = ExtractConfig(
            max_iterations=8, tail_window=3, conv_tol=1e-9, bound_threshold=6.0,
            stop_epsilon=1e-9, input_space=BesovInput(4.0, 2.0, 2.0), remainder_space=(3.0, 4.0),
        )
        report = verify(dec, besov)
        assert report.input_norms == tuple(
            input_space_norm(fields[n - 1], besov.input_space) for n in dec.retained
        )

    def test_replaced_inputs_are_measured_afresh(self):
        fields = _cross_shaped_corpus()
        config = lp_config(max_iterations=8, tail_window=3)
        dec = extract_profiles(fields, config)
        other = {
            n: CoeffField(f.dim, f.p, {k: 2.0 * v for k, v in f.entries.items()})
            for n, f in dec.inputs.items()
        }
        swapped = dataclasses.replace(dec, inputs=other)
        assert swapped.input_norms is None
        report = verify(swapped, config)
        assert report.input_norms == tuple(lp_norm(other[n]) for n in dec.retained)
        assert report.input_norms != verify(dec, config).input_norms

    def test_input_norms_are_not_an_init_argument(self):
        dec = extract_profiles(_cross_shaped_corpus(), lp_config(max_iterations=8, tail_window=3))
        with pytest.raises(TypeError):
            Decomposition(dec.dim, dec.p, dec.inputs, dec.groups, dec.retained, (),
                          input_norms=dec.input_norms)


class TestAnchorFrames:
    def test_frames_are_built_only_when_a_group_opens(self, monkeypatch):
        fields = _cross_shaped_corpus()
        built = []

        def counted(scale, shift):
            built.append(scale)
            return DyadicAffine(scale, shift)

        monkeypatch.setattr(extract, "DyadicAffine", counted)
        dec = extract_profiles(fields, lp_config(max_iterations=8, tail_window=3))
        # A group opens with one anchor frame per retained input; the
        # iterates compare top indices with the anchors as they are.
        assert len(dec.groups) == 3
        assert len(built) <= len(dec.groups) * len(fields)
