from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from waveprof.dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex, compose
from waveprof.field import CoeffField, combine, order_key, rank, split_top, transform
from waveprof.norms import BesovParams, besov_norm, coeff_lp, sup_amplitude
from conftest import lattice_index, order_key_oracle, random_affine, random_field


def fld(p, *entries, dim=1):
    return CoeffField.from_items(dim, p, list(entries))


class TestConstruction:
    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            fld(4.0, (lattice_index(1, 0, 0), 0.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            fld(4.0, (lattice_index(1, 0, 0), 1.0), (lattice_index(1, 0, 0), 2.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fld(4.0, (lattice_index(1, 0, 0, 0), 1.0))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            CoeffField.empty(1, 1.5)
        with pytest.raises(ValueError):
            CoeffField.empty(1, math.inf)

    def test_lattice_flag(self):
        assert fld(4.0, (lattice_index(1, 0, 3), 1.0)).is_lattice
        off = WaveletIndex(1, 0, DyadicRationalVec((1,), 1))
        assert not fld(4.0, (off, 1.0)).is_lattice


_INDEX = lattice_index(1, 0, 0)
# dimension, p, items and the message of one fault each.
_SINGLE_FAULTS = {
    "dimension-0": (0, 4.0, [], "dimension must be at least 1"),
    "p-1.5": (1, 1.5, [], "reference exponent p must satisfy 2 <= p < infinity"),
    "index-dimension": (
        1, 4.0, [(lattice_index(1, 0, 0, 0), 1.0)], "index dimension does not match field dimension"
    ),
    "zero-amplitude": (1, 4.0, [(_INDEX, 0.0)], "zero amplitudes must not be stored"),
    "infinite-amplitude": (1, 4.0, [(_INDEX, math.inf)], "amplitudes must be finite"),
    "duplicate": (1, 4.0, [(_INDEX, 1.0), (_INDEX, 2.0)], f"duplicate index {_INDEX}"),
}
_BUILDERS = {
    "constructor": lambda dim, p, items: CoeffField(dim, p, dict(items)),
    "from_items": CoeffField.from_items,
}


class TestOneChecker:
    """``CoeffField(...)`` and ``from_items`` check entries in one loop, with one set of messages."""

    @pytest.mark.parametrize(
        "build, fault",
        # A dict holds no duplicate, so only from_items can be given one.
        [(b, f) for b in _BUILDERS for f in _SINGLE_FAULTS if (b, f) != ("constructor", "duplicate")],
    )
    def test_each_single_fault_has_its_message(self, build, fault):
        dim, p, items, message = _SINGLE_FAULTS[fault]
        with pytest.raises(ValueError) as excinfo:
            _BUILDERS[build](dim, p, items)
        assert str(excinfo.value) == message

    def test_constructor_keeps_its_own_dict(self):
        entries = {_INDEX: 1.0}
        field = CoeffField(1, 4.0, entries)
        entries[_INDEX] = 3.0
        entries[lattice_index(1, 0, 1)] = 2.0
        assert dict(field.entries) == {_INDEX: 1.0}

    def test_from_items_takes_a_generator(self):
        field = CoeffField.from_items(1, 4.0, ((lattice_index(1, 0, k), k + 1) for k in range(3)))
        assert dict(field.entries) == {lattice_index(1, 0, k): float(k + 1) for k in range(3)}


class TestTransform:
    def test_identity(self):
        f = fld(4.0, (lattice_index(1, 2, 5), -1.5))
        assert transform(f, DyadicAffine.identity(1)) == f

    def test_single_entry_example(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        tau = DyadicAffine(1, DyadicRationalVec((1,)))
        moved = transform(f, tau)
        assert dict(moved.entries) == {lattice_index(1, 1, 1): 1.0}

    def test_functoriality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_field(rng, dim=2, denom_exp_max=1)
            t1 = random_affine(rng, dim=2)
            t2 = random_affine(rng, dim=2)
            assert transform(transform(f, t2), t1) == transform(f, compose(t1, t2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transform(fld(4.0, (lattice_index(1, 0, 0), 1.0)), DyadicAffine.identity(2))


class TestCombine:
    def test_exact_cancellation(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0), (lattice_index(1, 1, 3), 0.25))
        assert len(combine(f, f, 1.0, -1.0)) == 0

    def test_disjoint_union(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        g = fld(4.0, (lattice_index(1, 0, 1), 2.0))
        both = combine(f, g)
        assert dict(both.entries) == {lattice_index(1, 0, 0): 1.0, lattice_index(1, 0, 1): 2.0}

    def test_shared_index_adds(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 3.0))
        g = fld(4.0, (lattice_index(1, 0, 0), 4.0))
        assert dict(combine(f, g).entries) == {lattice_index(1, 0, 0): 7.0}

    def test_mismatch_errors(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        with pytest.raises(ValueError):
            combine(f, CoeffField.empty(2, 4.0))
        with pytest.raises(ValueError):
            combine(f, CoeffField.empty(1, 3.0))


class TestRank:
    def test_empty(self):
        assert len(rank(CoeffField.empty(1, 4.0))) == 0

    def test_magnitude_order(self):
        f = fld(
            4.0,
            (lattice_index(1, 0, 0), 5.0),
            (lattice_index(1, 0, 1), -3.0),
            (lattice_index(1, 0, 2), 2.0),
        )
        assert [amp for _, amp in rank(f)] == [5.0, -3.0, 2.0]

    def test_tie_break_is_lexicographic(self):
        f = fld(4.0, (lattice_index(1, 0, 1), 2.0), (lattice_index(1, 0, 0), 2.0))
        assert rank(f)[0][0] == lattice_index(1, 0, 0)

    def test_rank_is_a_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = random_field(rng, dim=2)
            ordered = rank(f)
            assert dict(ordered) == dict(f.entries)
            amps = [abs(a) for _, a in ordered]
            assert amps == sorted(amps, reverse=True)


@st.composite
def mixed_denominator_fields(draw):
    """Fields of dimension 1-3 whose shifts mix denominators 2**0 to 2**8 and both signs."""
    dim = draw(st.integers(1, 3))
    shift = st.builds(DyadicRationalVec, st.tuples(*[st.integers(-300, 300)] * dim), st.integers(0, 8))
    index = st.builds(WaveletIndex, st.integers(1, 2**dim - 1), st.integers(-2, 2), shift)
    # Few amplitudes, so that ranking often falls back on the index order.
    amps = st.sampled_from([-2.0, -1.0, 1.0, 2.0])
    return CoeffField(dim, 4.0, draw(st.dictionaries(index, amps, min_size=1, max_size=16)))


class TestOrderKey:
    @given(mixed_denominator_fields())
    def test_sorts_as_the_fraction_order(self, f):
        assert sorted(f.entries, key=order_key(f)) == sorted(f.entries, key=order_key_oracle)

    @given(mixed_denominator_fields())
    def test_rank_breaks_ties_by_the_fraction_order(self, f):
        expected = sorted(f.entries.items(), key=lambda kv: (-abs(kv[1]),) + order_key_oracle(kv[0]))
        assert rank(f) == tuple(expected)


class TestSplitTop:
    def test_zero_keeps_nothing(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        head, tail = split_top(f, 0)
        assert len(head) == 0 and tail == f

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            split_top(fld(4.0, (lattice_index(1, 0, 0), 1.0)), -1)

    def test_example(self):
        f = fld(4.0, *[(lattice_index(1, 0, k), a) for k, a in enumerate([5.0, 3.0, 2.0, 2.0, 1.0])])
        head, tail = split_top(f, 2)
        assert sorted(abs(a) for a in head.entries.values()) == [3.0, 5.0]
        assert sup_amplitude(tail) == 2.0

    def test_oversized_count_keeps_all(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        head, tail = split_top(f, 10)
        assert head == f and len(tail) == 0

    def test_exact_reassembly(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = random_field(rng, dim=1, max_entries=15)
            for count in range(len(f) + 2):
                head, tail = split_top(f, count)
                assert combine(head, tail) == f


class TestProjectionDecay:
    def test_lebesgue_rate(self):
        # After removing the N largest components, the next amplitude is at
        # most the l^p amplitude norm divided by N**(1/p), with constant one.
        rng = np.random.default_rng(23)
        for _ in range(60):
            f = random_field(rng, dim=int(rng.integers(1, 3)), p=float(rng.choice([2.0, 3.0, 4.0])))
            bound = coeff_lp(f)
            for count in range(1, len(f) + 1):
                _, tail = split_top(f, count)
                assert count ** (1.0 / f.p) * sup_amplitude(tail) <= bound + 1e-12

    def test_besov_rate(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            f = random_field(rng, dim=1, p=4.0)
            for a, q in [(2.0, 2.0), (2.0, 6.0), (3.0, 2.0)]:
                b = max(a, q)
                bound = besov_norm(f, BesovParams(f.dim * (1.0 / b - 1.0 / f.p), b, b))
                for count in range(1, len(f) + 1):
                    _, tail = split_top(f, count)
                    assert count ** (1.0 / b) * sup_amplitude(tail) <= bound + 1e-12


class TestBuiltFromCheckedFields:
    """combine and transform skip the re-check of entries already checked."""

    def test_combine_overflow_still_raises(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1e308))
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            combine(f, f)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            combine(f, f, 2.0, 0.5)

    def test_results_equal_their_checked_rebuild(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            f = random_field(rng, dim=dim, denom_exp_max=2)
            g = random_field(rng, dim=dim, denom_exp_max=2)
            tau = random_affine(rng, dim=dim)
            for built in (combine(f, g, 1.0, -1.0), combine(f, f, 1.0, -1.0), transform(f, tau)):
                rebuilt = CoeffField(built.dim, built.p, dict(built.entries))
                assert built == rebuilt and type(built.p) is float
                assert all(v != 0.0 and math.isfinite(v) for v in built.entries.values())
            assert len(combine(f, f, 1.0, -1.0)) == 0

    def test_results_do_not_share_input_mappings(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        moved = transform(f, DyadicAffine.identity(1))
        assert moved == f and moved.entries is not f.entries
        assert combine(f, CoeffField.empty(1, 4.0)).entries is not f.entries
