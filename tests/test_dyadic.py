from __future__ import annotations

import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from waveprof.dyadic import (
    MAX_SHIFT,
    DyadicAffine,
    DyadicRationalVec,
    WaveletIndex,
    act_on_index,
    compose,
    invert,
    magnitude,
    orthogonality_gap,
    relative_map,
)
from waveprof.field import CoeffField, order_key
from conftest import (
    act_on_index_oracle,
    add_oracle,
    apply_affine,
    compose_oracle,
    cube_bounds,
    gap_oracle,
    in_cube,
    invert_oracle,
    lattice_index,
    neg_oracle,
    relative_map_oracle,
    scaled_oracle,
    sub_oracle,
)


def vec(*nums, e=0):
    return DyadicRationalVec(tuple(nums), e)


def aff(scale, *shift, e=0):
    return DyadicAffine(scale, DyadicRationalVec(tuple(shift), e))


@st.composite
def affines(draw, dim):
    scale = draw(st.integers(-4, 4))
    exp = draw(st.integers(0, 3))
    nums = draw(st.lists(st.integers(-40, 40), min_size=dim, max_size=dim))
    return DyadicAffine(scale, DyadicRationalVec(tuple(nums), exp))


@st.composite
def lattice_param_pairs(draw):
    dim = draw(st.integers(1, 3))
    shifts = st.lists(st.integers(-2**40, 2**40), min_size=dim, max_size=dim).map(tuple)
    return aff(draw(st.integers(-12, 12)), *draw(shifts)), aff(draw(st.integers(-12, 12)), *draw(shifts))


@st.composite
def dim_and_affines(draw, count):
    dim = draw(st.integers(1, 3))
    return tuple(draw(affines(dim)) for _ in range(count))


class TestNormalization:
    def test_even_numerators_reduce(self):
        assert vec(2, 4, e=1) == vec(1, 2)
        assert vec(2, 4, e=1).denom_exp == 0

    def test_zero_vector_reduces_fully(self):
        assert vec(0, 0, e=7) == vec(0, 0)

    def test_huge_denominator_reduces_in_one_step(self):
        # One halving per step would take 10**400 steps here.
        assert vec(0, 0, e=10**400) == vec(0, 0)
        v = vec(-(3 << 9), 5 << 7, e=10**400)
        assert v.numerators == (-12, 5) and v.denom_exp == 10**400 - 7

    @given(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=3), st.integers(0, 80))
    def test_value_is_kept_and_some_numerator_is_odd(self, nums, e):
        v = DyadicRationalVec(tuple(nums), e)
        assert all(c << (e - v.denom_exp) == n for c, n in zip(v.numerators, nums))
        assert v.denom_exp == 0 or any(c % 2 for c in v.numerators)

    def test_odd_numerator_is_kept(self):
        v = vec(1, 2, e=1)
        assert v.denom_exp == 1 and v.numerators == (1, 2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DyadicRationalVec((), 0)
        with pytest.raises(ValueError):
            DyadicRationalVec((1,), -1)

    @pytest.mark.parametrize("build", [
        lambda: DyadicRationalVec((1.5,)),
        lambda: DyadicRationalVec((2,), 1.9),
        lambda: DyadicRationalVec(("7",)),
        lambda: WaveletIndex(1.0, 0, vec(0)),
        lambda: WaveletIndex(1, 0.5, vec(0)),
    ], ids=["float-numerator", "float-denom-exp", "str-numerator", "float-gen", "float-scale"])
    def test_rejects_non_integers(self, build):
        # Truncating 1.5 to 1 or parsing "7" would make another index.
        with pytest.raises(TypeError):
            build()

    def test_frame_scale_must_be_an_integer(self):
        # Exact arithmetic would carry a float scale into an index.
        with pytest.raises(TypeError):
            act_on_index(DyadicAffine(0.5, vec(1)), lattice_index(1, 0, 1))
        frame = DyadicAffine(np.int64(2), vec(1))
        assert frame == aff(2, 1) and type(frame.scale) is int

    def test_frame_shift_must_be_a_vector(self):
        # compose would fail on a tuple shift with AttributeError.
        with pytest.raises(TypeError, match="shift must be a DyadicRationalVec, not tuple"):
            DyadicAffine(0, (1,))

    def test_numpy_integers_become_ints(self):
        v = DyadicRationalVec((np.int64(6),), np.int32(1))
        index = WaveletIndex(np.int64(1), np.int16(-2), v)
        assert v == vec(3) and type(v.numerators[0]) is int and type(v.denom_exp) is int
        assert type(index.gen) is int and type(index.scale) is int

    def test_scaling_is_exact(self):
        assert vec(3).scaled_by_pow2(2) == vec(12)
        assert vec(12).scaled_by_pow2(-2) == vec(3)
        assert vec(3).scaled_by_pow2(-1) == vec(3, e=1)


class TestCube:
    def test_identity_parameters(self):
        assert cube_bounds(lattice_index(1, 0, 0)) == ((0.0, 1.0),)

    def test_half_cube(self):
        assert cube_bounds(lattice_index(1, 1, 0)) == ((0.0, 0.5),)

    def test_coarse_shifted_cube(self):
        # 2**-1 x - 3 in [0,1) solves to x in [6, 8)
        assert cube_bounds(lattice_index(1, -1, 3)) == ((6.0, 8.0),)


class TestGroupLaws:
    def test_compose_example(self):
        made = compose(aff(1, 0), aff(1, 1))
        assert made == aff(2, 1)

    def test_identity_neutral(self):
        tau = aff(2, 5, e=1)
        ident = DyadicAffine.identity(1)
        assert compose(ident, tau) == tau
        assert compose(tau, ident) == tau

    def test_invert_example(self):
        assert invert(aff(1, 1)) == aff(-1, -1, e=1)
        assert invert(DyadicAffine.identity(2)) == DyadicAffine.identity(2)

    @given(dim_and_affines(3))
    def test_associativity(self, taus):
        t1, t2, t3 = taus
        assert compose(compose(t1, t2), t3) == compose(t1, compose(t2, t3))

    @given(dim_and_affines(1))
    def test_inverse_cancels_both_sides(self, taus):
        (tau,) = taus
        ident = DyadicAffine.identity(tau.dim)
        assert compose(tau, invert(tau)) == ident
        assert compose(invert(tau), tau) == ident
        assert invert(invert(tau)) == tau

    @given(dim_and_affines(2))
    def test_pointwise_composition(self, taus):
        t1, t2 = taus
        point = tuple(0.375 for _ in range(t1.dim))
        chained = apply_affine(t2, apply_affine(t1, point))
        direct = apply_affine(compose(t1, t2), point)
        assert chained == direct


class TestMagnitude:
    def test_examples(self):
        assert magnitude(DyadicAffine.identity(3)) == 0.0
        assert magnitude(aff(2, 4)) == 3.0
        assert magnitude(aff(0, 3, 4)) == 5.0

    @given(dim_and_affines(1))
    def test_zero_iff_identity(self, taus):
        (tau,) = taus
        assert (magnitude(tau) == 0.0) == (tau == DyadicAffine.identity(tau.dim))

    def test_far_apart_frames_keep_their_gap(self):
        # The relative map of (-2100, 5) onto (0, 3) has scale 2100 and shift
        # 3 - 5 * 2**2100, a numerator beyond the float range; its rescaled
        # offset 3 * 2**-2100 - 5 is not.
        a, b = aff(-2100, 5), aff(0, 3)
        assert magnitude(relative_map(a, b)) == 2105.0
        assert orthogonality_gap(a, b) == 2105.0

    def test_gap_beyond_the_float_range_raises(self):
        # The reverse map's offset is about 5 * 2**2100.
        a, b = aff(-2100, 5), aff(0, 3)
        with pytest.raises(ValueError, match="orthogonality gap overflows the float range"):
            orthogonality_gap(b, a)
        for tau in (aff(-1100, 1, 1), aff(10**400, 0), aff(0, 1 << 1024)):
            with pytest.raises(ValueError, match="orthogonality gap overflows the float range"):
                magnitude(tau)

    @given(st.integers(-2**1030, 2**1030), st.integers(0, 2200))
    @example(2**1024 - 2**970, 1)
    @example((1 << 1023) + (1 << 970) + 1, 1074)
    @example(-(2**1000 + 1), 2100)
    def test_wide_numerators_keep_the_float_bits(self, c, e):
        # Where float(c) exists the value has its bits; past it the value is
        # still correctly rounded, up to the subnormal range.
        try:
            want = math.ldexp(float(c), -e)
        except OverflowError:
            want = None
        try:
            (got,) = DyadicRationalVec((c,), e).as_floats()
        except OverflowError:
            assert Fraction(abs(c), 1 << e) >= 2**1024 - 2**970
            return
        if want is not None:
            assert got.hex() == want.hex()
        assert got == float(Fraction(c, 1 << e)) or abs(got) < 2.0**-1021

    def test_diverging_sequences(self):
        # Translation and rescaling both drive the magnitude to infinity.
        translating = [magnitude(aff(0, 8 * n)) for n in range(1, 30)]
        scaling = [magnitude(aff(n, 0)) for n in range(1, 30)]
        assert translating == sorted(translating) and translating[-1] > 200
        assert scaling == sorted(scaling) and scaling[-1] == 29.0


class TestIndexAction:
    def test_identity(self):
        index = lattice_index(1, 3, 5)
        assert act_on_index(DyadicAffine.identity(1), index) == index

    def test_examples(self):
        assert act_on_index(aff(1, 1), lattice_index(1, 0, 0)) == lattice_index(1, 1, 1)
        assert act_on_index(aff(-1, 1), lattice_index(1, 2, 0)) == lattice_index(1, 1, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            act_on_index(aff(0, 1), lattice_index(1, 0, 0, 0))

    @given(dim_and_affines(2))
    def test_functoriality(self, taus):
        t1, t2 = taus
        index = WaveletIndex(1, 1, DyadicRationalVec((3,) * t1.dim, 1))
        assert act_on_index(compose(t1, t2), index) == act_on_index(t1, act_on_index(t2, index))

    def test_cube_preimage(self):
        # x lies in the transformed cube exactly when tau(x) lies in the original.
        rng = np.random.default_rng(7)
        for _ in range(20):
            dim = int(rng.integers(1, 3))
            tau = DyadicAffine(
                int(rng.integers(-3, 4)),
                DyadicRationalVec(tuple(int(rng.integers(-10, 11)) for _ in range(dim)), int(rng.integers(0, 3))),
            )
            index = WaveletIndex(
                1,
                int(rng.integers(-2, 3)),
                DyadicRationalVec(tuple(int(rng.integers(-6, 7)) for _ in range(dim)), int(rng.integers(0, 2))),
            )
            moved = act_on_index(tau, index)
            lo_hi = cube_bounds(moved)
            for _ in range(5):
                # Dyadic sample points keep the membership test exact in floats.
                point = tuple(
                    math.ldexp(rng.integers(int(lo * 1024) - 2048, int(hi * 1024) + 2048), -10)
                    for lo, hi in lo_hi
                )
                assert in_cube(moved, point) == in_cube(index, apply_affine(tau, point))


class TestOrthogonalityGap:
    def test_examples(self):
        assert orthogonality_gap(aff(0, 0), aff(0, 0)) == 0.0
        assert orthogonality_gap(aff(0, 0), aff(0, 24)) == 24.0
        assert orthogonality_gap(aff(0, 0), aff(5, 0)) == 5.0

    def test_equals_relative_map_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            a = aff(int(rng.integers(-4, 5)), *(int(rng.integers(-20, 21)) for _ in range(dim)))
            b = aff(int(rng.integers(-4, 5)), *(int(rng.integers(-20, 21)) for _ in range(dim)))
            assert orthogonality_gap(a, b) == magnitude(relative_map(a, b))

    @given(lattice_param_pairs())
    @example((aff(0, 3), aff(-5, 7)))
    @example((aff(-2, 1, -9), aff(4, -3, 5)))
    @example((aff(3, 5, -7, 2), aff(-4, 1, 2, -3)))
    def test_matches_the_direct_formula(self, pair):
        a, b = pair
        assert orthogonality_gap(a, b).hex() == gap_oracle(a, b).hex()

    def test_divergence_matches_parameter_divergence(self):
        gaps = [orthogonality_gap(aff(0, 0), aff(n, 3 * n)) for n in range(1, 40)]
        assert gaps == sorted(gaps) and gaps[-1] > 39

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            orthogonality_gap(aff(0, 0), aff(0, 0, 0))


class TestRelativeMap:
    def test_carries_anchor_to_target(self):
        anchor, target = aff(2, 5, -1), aff(4, 7, 3)
        assert compose(anchor, relative_map(anchor, target)) == target

    def test_identity_for_equal_params(self):
        assert relative_map(aff(3, 4), aff(3, 4)) == DyadicAffine.identity(1)

    def test_rejects_frames_off_the_lattice(self):
        # The integer body reads numerators only; a dyadic shift would be
        # silently misread as an integer one, so it raises instead.
        lattice, dyadic = aff(0, 1), aff(0, 1, e=1)
        for anchor, target in ((lattice, dyadic), (dyadic, lattice), (dyadic, dyadic)):
            with pytest.raises(ValueError, match="integral shifts"):
                relative_map(anchor, target)
            with pytest.raises(ValueError, match="integral shifts"):
                orthogonality_gap(anchor, target)


class TestFramesFromIndices:
    """A frame argument may be an index, read as the frame of its basis element."""

    @given(st.data())
    def test_index_reads_as_its_frame(self, data):
        dim = data.draw(st.integers(1, 3))
        frame = data.draw(affines(dim))
        scale, shift = data.draw(affines(dim))
        index = WaveletIndex(data.draw(st.integers(1, (1 << dim) - 1)), scale, shift)
        as_frame = DyadicAffine(index.scale, index.shift)
        assert invert(index) == invert(as_frame)
        assert compose(frame, index) == compose(frame, as_frame)
        assert compose(index, frame) == compose(as_frame, frame)
        if frame.shift.is_integral and index.on_lattice:
            assert relative_map(frame, index) == relative_map(frame, as_frame)
            assert relative_map(index, frame) == relative_map(as_frame, frame)
        else:
            with pytest.raises(ValueError, match="integral shifts"):
                relative_map(frame, index)


class TestOneVectorPerFrameOperation:
    """Each operation builds its result vector only: no negated copy on the way."""

    @pytest.mark.parametrize("operation, args", [
        (relative_map, (aff(1, 3, -2), aff(4, 5, 7))),
        (relative_map, (aff(4, 5, 7), aff(1, 3, -2))),
        (orthogonality_gap, (aff(1, 3), aff(4, 5))),
        (invert, (aff(2, 3, e=1),)),
        (operator.sub, (vec(1, 6, e=2), vec(3, 1))),
        (compose, (aff(1, 3, e=1), aff(2, 5))),
        (act_on_index, (aff(1, 3), WaveletIndex(1, 2, vec(5, e=1)))),
        (operator.add, (vec(1, 6, e=2), vec(3, 1))),
        (DyadicRationalVec.scaled_by_pow2, (vec(3, e=1), 2)),
    ], ids=[
        "relative-up", "relative-down", "gap", "invert", "sub", "compose", "act", "add", "scaled",
    ])
    def test_builds_one_vector(self, monkeypatch, operation, args):
        made = []
        original = DyadicRationalVec._make

        def counted(cls, fields):
            made.append(fields)
            return original(fields)

        monkeypatch.setattr(DyadicRationalVec, "_make", classmethod(counted))
        operation(*args)
        assert len(made) == 1


_WIDE = MAX_SHIFT + 1


class TestShiftBound:
    """Each left shift of an exact value is checked against ``MAX_SHIFT`` before it is made."""

    @pytest.mark.parametrize("operation", [
        lambda: vec(1).scaled_by_pow2(_WIDE),
        lambda: vec(1) + vec(1, e=_WIDE),
        lambda: vec(1, e=_WIDE) - vec(1),
        lambda: relative_map(aff(0, 1), aff(_WIDE, 0)),
        lambda: relative_map(aff(_WIDE, 0), aff(0, 1)),
        lambda: orthogonality_gap(aff(0, 1), aff(_WIDE, 0)),
        lambda: act_on_index(aff(0, 1), WaveletIndex(1, 0, vec(1, e=_WIDE))),
        lambda: act_on_index(aff(0, 1), WaveletIndex(1, -_WIDE, vec(1))),
        lambda: compose(aff(0, 1), aff(_WIDE, 0)),
        lambda: order_key(CoeffField(1, 4.0, {
            WaveletIndex(1, 0, vec(1, e=_WIDE)): 1.0, WaveletIndex(1, 0, vec(1)): 1.0,
        })),
    ], ids=[
        "scaled", "add", "sub", "relative-up", "relative-down", "gap", "act-denominator",
        "act-scale", "compose", "order-key",
    ])
    def test_a_wider_shift_raises_before_it_is_made(self, operation):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as caught:
                operation()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (
            f"exact index arithmetic needs a shift of {_WIDE} bits, more than {MAX_SHIFT}"
        )
        # The integer it would have built takes 8 MiB.
        assert peak < 1 << 20

    def test_a_shift_of_max_shift_bits_is_made(self):
        # A zero shifted that far costs nothing; only the amount is checked.
        assert relative_map(aff(0, 0), aff(MAX_SHIFT, 0)) == aff(MAX_SHIFT, 0)
        assert vec(0).scaled_by_pow2(MAX_SHIFT) == vec(0)

    def test_a_scale_the_denominator_absorbs_shifts_nothing(self):
        # Each scale is _WIDE nominally, but the denominator 2**(_WIDE + 4)
        # takes it up: only 2**4 is left and no numerator is shifted.
        tracemalloc.start()
        try:
            scaled = vec(1, e=_WIDE + 4).scaled_by_pow2(_WIDE)
            composed = compose(aff(0, 1, e=_WIDE + 4), aff(_WIDE, 3))
            inverted = invert(aff(-_WIDE, 1, e=_WIDE + 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scaled == vec(1, e=4)
        assert composed == aff(_WIDE, 49, e=4)
        assert inverted == aff(_WIDE, -1, e=4)
        assert peak < 1 << 20


# Denominator exponents: integral, small, and far beyond any numerator's bits.
_denom_exps = st.one_of(st.just(0), st.integers(1, 6), st.integers(100, 5000))


@st.composite
def dim_and_vecs(draw, count):
    dim = draw(st.integers(1, 3))
    nums = st.lists(st.integers(-2**70, 2**70), min_size=dim, max_size=dim).map(tuple)
    return dim, [DyadicRationalVec(draw(nums), draw(_denom_exps)) for _ in range(count)]


def assert_same_vec(got, want):
    """Equal value, hash and representation, and one dict key with a public equal."""
    assert got == want
    assert hash(got) == hash(want)
    assert (got.numerators, got.denom_exp) == (want.numerators, want.denom_exp)
    assert all(type(c) is int for c in got.numerators) and type(got.denom_exp) is int
    public = DyadicRationalVec(got.numerators, got.denom_exp)
    assert {public: "public"}[got] == "public" and {got: "built"}[public] == "built"
    assert len({got, want, public}) == 1


def assert_same_index(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert (got.gen, got.scale) == (want.gen, want.scale)
    assert_same_vec(got.shift, want.shift)
    public = WaveletIndex(got.gen, got.scale, DyadicRationalVec(got.shift.numerators, got.shift.denom_exp))
    assert {public: "public"}[got] == "public" and {got: "built"}[public] == "built"


class TestLowestTermsByConstruction:
    """Results built in lowest terms directly equal the checked formulas."""

    @given(dim_and_vecs(1), st.one_of(st.integers(-8, 8), st.integers(-6000, 6000)))
    @example((1, [DyadicRationalVec((4,), 0)]), -3)
    @example((2, [DyadicRationalVec((-6, 8), 0)]), -200)
    @example((3, [DyadicRationalVec((0, 0, 0), 0)]), -5)
    @example((1, [DyadicRationalVec((3,), 5)]), 9)
    def test_scaled_by_pow2(self, dim_vecs, exponent):
        _, (v,) = dim_vecs
        assert_same_vec(v.scaled_by_pow2(exponent), scaled_oracle(v, exponent))

    @given(dim_and_vecs(2))
    @example((1, [DyadicRationalVec((1,), 1), DyadicRationalVec((1,), 1)]))
    @example((2, [DyadicRationalVec((3, -5), 2), DyadicRationalVec((-3, 5), 2)]))
    @example((1, [DyadicRationalVec((-7,), 0), DyadicRationalVec((1,), 3000)]))
    def test_sum_difference_and_negation(self, dim_vecs):
        _, (a, b) = dim_vecs
        assert_same_vec(a + b, add_oracle(a, b))
        assert_same_vec(a - b, sub_oracle(a, b))
        assert_same_vec(-a, neg_oracle(a))

    @given(lattice_param_pairs())
    @example((aff(0, 3), aff(-5, 7)))
    @example((aff(4, 2, -6), aff(1, 8, 0)))
    @example((aff(-2, 1, -9), aff(-2, 1, -9)))
    @example((aff(5, 0, 0, 0), aff(-300, 0, 4, -8)))
    def test_relative_map(self, pair):
        anchor, target = pair
        got, want = relative_map(anchor, target), relative_map_oracle(anchor, target)
        assert got == want and got.scale == want.scale
        assert_same_vec(got.shift, want.shift)

    @given(dim_and_vecs(2), st.integers(-8, 8), st.one_of(st.integers(-8, 8), st.integers(-6000, 6000)))
    @example((1, [DyadicRationalVec((1,), 3), DyadicRationalVec((3,), 0)]), 0, 3)
    @example((2, [DyadicRationalVec((1, 3), 2), DyadicRationalVec((1, 1), 1)]), 0, 1)
    @example((2, [DyadicRationalVec((1, 3), 2), DyadicRationalVec((-1, -3), 0)]), 1, 2)
    def test_compose(self, dim_vecs, inner_scale, outer_scale):
        _, (inner_shift, outer_shift) = dim_vecs
        inner, outer = DyadicAffine(inner_scale, inner_shift), DyadicAffine(outer_scale, outer_shift)
        got, want = compose(inner, outer), compose_oracle(inner, outer)
        assert got == want and got.scale == want.scale
        assert_same_vec(got.shift, want.shift)

    @given(dim_and_vecs(1), st.one_of(st.integers(-8, 8), st.integers(-6000, 6000)))
    @example((1, [DyadicRationalVec((6,), 0)]), 1)
    @example((2, [DyadicRationalVec((3, 5), 4)]), -4)
    @example((3, [DyadicRationalVec((0, 0, 0), 0)]), 7)
    def test_invert(self, dim_vecs, scale):
        _, (shift,) = dim_vecs
        tau = DyadicAffine(scale, shift)
        got, want = invert(tau), invert_oracle(tau)
        assert got == want and got.scale == want.scale
        assert_same_vec(got.shift, want.shift)

    def test_relative_map_dimension_mismatch(self):
        for delta in (-2, 0, 3):
            with pytest.raises(ValueError):
                relative_map(aff(0, 0), aff(delta, 0, 0))

    @given(dim_and_vecs(2), st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 7))
    @example((1, [DyadicRationalVec((2,), 0), DyadicRationalVec((4,), 0)]), 0, -2, 1)
    @example((2, [DyadicRationalVec((1, 3), 2), DyadicRationalVec((-1, -3), 2)]), 1, 0, 3)
    def test_act_on_index(self, dim_vecs, tau_scale, index_scale, gen):
        dim, (tau_shift, index_shift) = dim_vecs
        tau = DyadicAffine(tau_scale, tau_shift)
        index = WaveletIndex(1 + (gen - 1) % ((1 << dim) - 1), index_scale, index_shift)
        assert_same_index(act_on_index(tau, index), act_on_index_oracle(tau, index))

    @given(dim_and_vecs(1), st.integers(1, 7), st.integers(-9, 9))
    def test_hash_is_that_of_the_field_tuple(self, dim_vecs, gen, scale):
        # The hash the generated dataclass method gave, so sets and dicts of
        # indices keep their iteration order.
        dim, (v,) = dim_vecs
        index = WaveletIndex(1 + (gen - 1) % ((1 << dim) - 1), scale, v)
        assert hash(v) == hash((v.numerators, v.denom_exp))
        assert hash(index) == hash((index.gen, index.scale, v))

    def test_instances_have_no_dict(self):
        index = lattice_index(1, 0, 3)
        frame = aff(1, 3)
        for obj in (index, index.shift, index.shift.scaled_by_pow2(-1), frame):
            assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            index.gen = 2
        with pytest.raises(AttributeError):
            index.shift.denom_exp = 1
        with pytest.raises(AttributeError):
            frame.scale = 2

    def test_repr_is_unchanged(self):
        index = WaveletIndex(1, 2, DyadicRationalVec((3,), 1))
        assert repr(index) == (
            "WaveletIndex(gen=1, scale=2, shift=DyadicRationalVec(numerators=(3,), denom_exp=1))"
        )
        assert repr(DyadicAffine.identity(1)) == (
            "DyadicAffine(scale=0, shift=DyadicRationalVec(numerators=(0,), denom_exp=0))"
        )

    @pytest.mark.parametrize(
        "values",
        [
            [vec(3), vec(1)],
            [lattice_index(2, 0, 0, 0), lattice_index(1, 0, 0, 1)],
            [aff(1, 0), aff(0, 5)],
        ],
        ids=["vector", "index", "frame"],
    )
    def test_values_have_no_order(self, values):
        # Indices are ordered by ``field.order_key`` only; the tuple order,
        # generator first, would sort them silently in another order.
        with pytest.raises(TypeError):
            sorted(values)
        with pytest.raises(TypeError):
            values[0] <= values[1]
