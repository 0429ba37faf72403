from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from waveprof.dyadic import DyadicRationalVec, WaveletIndex
from waveprof.field import CoeffField, transform
from waveprof import norms
from waveprof.norms import (
    BesovParams,
    besov_norm,
    coeff_lp,
    cross_square_pair,
    embedding_chain_check,
    interpolation_check,
    lp_norm,
    sup_amplitude,
)
from conftest import (
    grid_cross_oracle,
    grid_lp_oracle,
    lattice_index,
    order_key_oracle,
    random_affine,
    random_field,
    recursive_cell_integral,
    single_entry_field,
)


def fld(p, *entries, dim=1):
    return CoeffField.from_items(dim, p, list(entries))


class TestLpNorm:
    def test_empty_is_zero(self):
        assert lp_norm(CoeffField.empty(2, 3.0)) == 0.0

    def test_singleton_equals_amplitude(self):
        # Scale weight and cube volume cancel exactly for a single component.
        for scale_j, shift, exp in [(0, (0,), 0), (3, (7,), 0), (-2, (5,), 2), (4, (-9,), 1)]:
            index = WaveletIndex(1, scale_j, DyadicRationalVec(shift, exp))
            f = CoeffField.from_items(1, 4.0, [(index, -2.5)])
            assert lp_norm(f) == pytest.approx(2.5, rel=1e-12)

    def test_two_scale_hand_value(self):
        # Square function is 1 + sqrt(2) on [0, 1/2) and 1 on [1/2, 1).
        f = fld(4.0, (lattice_index(1, 0, 0), 1.0), (lattice_index(1, 1, 0), 1.0))
        assert lp_norm(f) == pytest.approx((2.0 + math.sqrt(2.0)) ** 0.25, rel=1e-12)

    def test_p2_collapses_to_l2(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = random_field(rng, dim=int(rng.integers(1, 3)), p=2.0, denom_exp_max=1)
            l2 = math.fsum(a * a for a in f.entries.values()) ** 0.5
            assert lp_norm(f) == pytest.approx(l2, rel=1e-12)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            f = random_field(
                rng,
                dim=dim,
                p=float(rng.choice([2.0, 3.0, 4.0])),
                max_entries=50,
                scale_lo=-4 if dim == 1 else -2,
                scale_hi=4,
                shift_bound=8 if dim == 1 else 3,
            )
            assert lp_norm(f) == pytest.approx(grid_lp_oracle(f), rel=1e-9)

    def test_removal_monotonicity(self):
        rng = np.random.default_rng(53)
        prms = [BesovParams(0.0, 3.0, 3.0), BesovParams(-0.4, 2.0, math.inf), BesovParams(0.25, math.inf, 1.0)]
        for _ in range(20):
            f = random_field(rng, dim=1, p=3.0, max_entries=10)
            whole = lp_norm(f)
            besov_whole = [besov_norm(f, prm) for prm in prms]
            sup_whole = sup_amplitude(f)
            for index in f.entries:
                trimmed = f.without(index)
                assert lp_norm(trimmed) <= whole + 1e-12
                assert sup_amplitude(trimmed) <= sup_whole
                for prm, reference in zip(prms, besov_whole):
                    assert besov_norm(trimmed, prm) <= reference * (1 + 1e-12)


class TestBesovNorm:
    def test_single_entry_weight(self):
        for s, a, j in [(0.7, 2.0, 3), (-0.25, math.inf, -2), (1.0, 1.0, 0)]:
            f = single_entry_field(1, 4.0, -1.5, scale=j)
            inv_a = 0.0 if a == math.inf else 1.0 / a
            expected = 2.0 ** (j * (s + 1.0 * (1.0 / 4.0 - inv_a))) * 1.5
            assert besov_norm(f, BesovParams(s, a, 8.0)) == pytest.approx(expected, rel=1e-12)

    def test_sup_form(self):
        f = fld(4.0, (lattice_index(1, 0, 0), 5.0), (lattice_index(1, 2, 1), -7.0), (lattice_index(1, -1, 2), 2.0))
        assert besov_norm(f, BesovParams(-1.0 / 4.0, math.inf, math.inf)) == 7.0

    def test_lp_form(self):
        f = fld(2.0, (lattice_index(1, 0, 0), 3.0), (lattice_index(1, 4, 2), 4.0))
        assert besov_norm(f, BesovParams(0.0, 2.0, 2.0)) == pytest.approx(5.0, rel=1e-15)

    def test_sup_amplitude_agreement(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            f = random_field(rng, dim=dim, p=float(rng.choice([2.0, 3.0, 4.0])))
            prm = BesovParams(-dim / f.p, math.inf, math.inf)
            assert besov_norm(f, prm) == sup_amplitude(f)

    def test_outer_exponent_monotonicity(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            f = random_field(rng, dim=1, p=2.0)
            for q in (2.0, 3.0, 8.0, math.inf):
                assert besov_norm(f, BesovParams(0.0, 2.0, q)) <= besov_norm(f, BesovParams(0.0, 2.0, 2.0)) * (1 + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BesovParams(0.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            BesovParams(math.inf, 2.0, 2.0)

    def test_nan_exponents_rejected(self):
        for a, b in [(math.nan, 2.0), (2.0, math.nan), (math.nan, math.nan)]:
            with pytest.raises(ValueError, match=r"exponents must lie in \[1, infinity\]"):
                BesovParams(0.0, a, b)

    def test_critical_triple(self):
        assert BesovParams.critical(1, 4.0, 2.0, 3.0) == BesovParams(0.25, 2.0, 3.0)
        for dim in (1, 2, 3):
            for p in (2.0, 4.0, 8.0):
                prm = BesovParams.critical(dim, p, math.inf, 2.0)
                assert prm.s == -dim / p


class TestInvariance:
    def test_lebesgue_norm_invariant_under_remap(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            f = random_field(rng, dim=dim, p=float(rng.choice([2.0, 3.0, 4.0])), denom_exp_max=1)
            tau = random_affine(rng, dim=dim, denom_exp_max=1)
            assert lp_norm(transform(f, tau)) == pytest.approx(lp_norm(f), rel=1e-9)

    def test_scale_invariant_besov_norms(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            dim = int(rng.integers(1, 3))
            f = random_field(rng, dim=dim, p=4.0, denom_exp_max=1)
            tau = random_affine(rng, dim=dim)
            for a, q in [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (math.inf, math.inf)]:
                inv_a = 0.0 if a == math.inf else 1.0 / a
                prm = BesovParams(dim * (inv_a - 1.0 / f.p), a, q)
                assert besov_norm(transform(f, tau), prm) == pytest.approx(besov_norm(f, prm), rel=1e-12)


class TestHomogeneity:
    @given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: abs(c) > 1e-3))
    def test_all_norms_scale_absolutely(self, factor):
        f = fld(
            4.0,
            (lattice_index(1, 0, 0), 1.0),
            (lattice_index(1, 2, 3), -0.5),
            (lattice_index(1, -1, 1), 0.25),
        )
        g = CoeffField(f.dim, f.p, {k: factor * v for k, v in f.entries.items()})
        assert lp_norm(g) == pytest.approx(abs(factor) * lp_norm(f), rel=1e-12)
        assert sup_amplitude(g) == pytest.approx(abs(factor) * sup_amplitude(f), rel=1e-12)
        assert coeff_lp(g) == pytest.approx(abs(factor) * coeff_lp(f), rel=1e-12)
        prm = BesovParams(0.3, 2.0, 5.0)
        assert besov_norm(g, prm) == pytest.approx(abs(factor) * besov_norm(f, prm), rel=1e-12)


class TestInterpolation:
    def test_singleton_equality(self):
        f = single_entry_field(1, 2.0, 3.0, scale=2, shift=(5,))
        chk = interpolation_check(f, 4.0, 4.0, 0.75)
        assert chk.lhs == pytest.approx(3.0, rel=1e-12)
        assert chk.rhs == pytest.approx(3.0, rel=1e-12)
        assert chk.holds

    def test_hand_example(self):
        f = fld(2.0, *[(lattice_index(1, 0, k), 1.0) for k in range(4)])
        chk = interpolation_check(f, 4.0, 4.0, 0.75)
        assert chk.lhs == pytest.approx(4.0**0.25, rel=1e-12)
        assert chk.rhs == pytest.approx(2.0**0.75, rel=1e-12)
        assert chk.holds

    def test_holds_on_random_admissible_inputs(self):
        rng = np.random.default_rng(79)
        worst = 0.0
        for _ in range(200):
            p = float(rng.choice([2.0, 3.0, 4.0]))
            f = random_field(rng, dim=int(rng.integers(1, 3)), p=p)
            q = p + float(rng.uniform(0.5, 6.0)) if rng.uniform() < 0.8 else math.inf
            r = p + float(rng.uniform(0.5, 6.0)) if rng.uniform() < 0.8 else math.inf
            floor = max(p / q, p / r)
            alpha = floor + (1.0 - floor) * float(rng.uniform(0.05, 0.95))
            chk = interpolation_check(f, q, r, alpha)
            assert chk.holds
            if chk.rhs > 0:
                worst = max(worst, chk.lhs / chk.rhs)
        assert worst <= 1.0 + 1e-12

    def test_dominant_amplitude_is_tight(self):
        # One huge component: both sides collapse to that amplitude.
        f = fld(4.0, (lattice_index(1, 0, 0), 100.0), (lattice_index(1, 3, 5), 1e-9))
        chk = interpolation_check(f, 8.0, 8.0, 0.9)
        assert chk.holds and chk.lhs / chk.rhs > 0.99

    def test_parameter_validation(self):
        f = single_entry_field(1, 4.0, 1.0)
        with pytest.raises(ValueError):
            interpolation_check(f, 3.0, 3.0, 0.5)  # exponents must exceed p = 4
        with pytest.raises(ValueError):
            interpolation_check(f, 8.0, 8.0, 0.4)  # alpha below the admissible floor 1/2
        with pytest.raises(ValueError):
            interpolation_check(f, 8.0, 8.0, 1.0)


class TestEmbeddingChain:
    def test_singleton_all_equal(self):
        f = single_entry_field(1, 4.0, 2.0, scale=1)
        rep = embedding_chain_check(f, 6.0, 8.0)
        assert rep.besov_0pp == pytest.approx(2.0, rel=1e-12)
        assert rep.besov_0pq == pytest.approx(2.0, rel=1e-12)
        assert rep.besov_srq == pytest.approx(2.0, rel=1e-12)
        assert rep.outer_monotone and rep.inner_monotone

    def test_p2_ratio_is_one(self):
        f = fld(2.0, (lattice_index(1, 0, 0), 3.0), (lattice_index(1, 0, 4), 4.0))
        rep = embedding_chain_check(f, 4.0, 4.0)
        assert rep.amplitude_ratio == pytest.approx(1.0, rel=1e-12)

    def test_chain_holds_on_random_fields(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            f = random_field(rng, dim=1, p=4.0, max_entries=50)
            rep = embedding_chain_check(f, 6.0, 6.0)
            assert rep.outer_monotone and rep.inner_monotone

    def test_parameter_validation(self):
        f = single_entry_field(1, 4.0, 1.0)
        with pytest.raises(ValueError):
            embedding_chain_check(f, 3.0, 8.0)


class TestCrossSquareIntegral:
    def test_identical_unit_cubes(self):
        f = single_entry_field(1, 4.0, 1.0)
        assert cross_square_pair(f, f)[0] == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_supports(self):
        f = single_entry_field(1, 4.0, 1.0, shift=(0,))
        g = single_entry_field(1, 4.0, 1.0, shift=(5,))
        assert cross_square_pair(f, g)[0] == 0.0

    def test_p2_rejected(self):
        f = single_entry_field(1, 2.0, 1.0)
        with pytest.raises(ValueError):
            cross_square_pair(f, f)[0]

    def test_partial_overlap_hand_value(self):
        # S_f = 1 on [0,1); S_g = sqrt(2) on [1/2, 1).  p = 4 gives
        # integral of S_f * S_g over the overlap = sqrt(2)/2.
        f = single_entry_field(1, 4.0, 1.0)
        g = single_entry_field(1, 4.0, 1.0, scale=1, shift=(1,))
        assert cross_square_pair(f, g)[0] == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


def _pair(seed: int, dim: int, p: float) -> tuple[CoeffField, CoeffField]:
    rng = np.random.default_rng(seed)
    shape = dict(dim=dim, p=p, max_entries=6, scale_lo=-2, scale_hi=2, shift_bound=3, denom_exp_max=2)
    return random_field(rng, **shape), random_field(rng, **shape)


def _bounds(field: CoeffField) -> list[tuple[Fraction, Fraction]]:
    """Exact per-axis hull [lo, hi) of the field's cubes."""
    corners = [
        tuple(Fraction(c, 1 << i.shift.denom_exp) * Fraction(2) ** -i.scale for c in i.shift.numerators)
        for i in field.entries
    ]
    sides = [Fraction(2) ** -i.scale for i in field.entries]
    return [
        (min(c[axis] for c in corners), max(c[axis] + s for c, s in zip(corners, sides)))
        for axis in range(field.dim)
    ]


def _dyadic(value: Fraction) -> tuple[int, int]:
    exp = value.denominator.bit_length() - 1
    assert value.denominator == 1 << exp
    return value.numerator, exp


def _translated(field: CoeffField, offset: list[Fraction]) -> CoeffField:
    """The field with every cube moved by ``offset`` in x-space."""
    moved = {}
    for index, amp in field.entries.items():
        parts = [_dyadic(o * Fraction(2) ** index.scale) for o in offset]
        exp = max(e for _, e in parts)
        step = DyadicRationalVec(tuple(n << (exp - e) for n, e in parts), exp)
        moved[WaveletIndex(index.gen, index.scale, index.shift + step)] = amp
    return CoeffField(field.dim, field.p, moved)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestCrossSquarePair:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([3.0, 4.0, 5.0]))
    def test_swapping_the_pair_swaps_the_outputs_bit_for_bit(self, seed, dim, p):
        f, g = _pair(seed, dim, p)
        assert _bits(cross_square_pair(f, g)) == _bits(cross_square_pair(g, f)[::-1])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([3.0, 4.0, 5.0]))
    def test_grid_oracle_agreement(self, seed, dim, p):
        f, g = _pair(seed, dim, p)
        expected = grid_cross_oracle(f, g)
        got = cross_square_pair(f, g)
        assert got[0] == pytest.approx(expected[0], rel=1e-12)
        assert got[1] == pytest.approx(expected[1], rel=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(3)]),
    )
    def test_separated_or_touching_supports_build_no_tree(self, seed, dim, gap):
        # g is moved so that on the first axis it starts ``gap`` past the end
        # of f (gap 0: the hulls touch), while on the other axes both hulls
        # start together and overlap.
        f, g = _pair(seed, dim, 4.0)
        f_hull, g_hull = _bounds(f), _bounds(g)
        offset = [f_hull[0][1] - g_hull[0][0] + gap] + [
            f_lo - g_lo for (f_lo, _), (g_lo, _) in zip(f_hull[1:], g_hull[1:])
        ]
        h = _translated(g, offset)
        assert _bounds(h)[0][0] == f_hull[0][1] + gap

        def no_tree(*args, **kwargs):
            raise AssertionError("disjoint supports must not build a cell tree")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(norms, "_cell_integral", no_tree)
            assert _bits(cross_square_pair(f, h)) == _bits((0.0, 0.0))
            assert _bits(cross_square_pair(h, f)) == _bits((0.0, 0.0))

    def test_rejects_p2_and_mismatched_fields(self):
        with pytest.raises(ValueError):
            cross_square_pair(single_entry_field(1, 2.0, 1.0), single_entry_field(1, 2.0, 1.0))
        with pytest.raises(ValueError):
            cross_square_pair(single_entry_field(1, 4.0, 1.0), single_entry_field(2, 4.0, 1.0))

    def test_empty_field_gives_zero_pair(self):
        f = single_entry_field(1, 4.0, 1.0)
        assert cross_square_pair(f, CoeffField.empty(1, 4.0)) == (0.0, 0.0)


def _with_recursive_oracle(fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_cell_integral", recursive_cell_integral)
        return fn(*args)


# Weights near the last bit of 1.0, so that the order of every sum shows.
_ORDER_WEIGHTS = (1.0, 0.75, 2.0**-53, 1.5 * 2.0**-53, 3.0 * 2.0**-54, 2.0**-52)


class TestCrossTable:
    def _log_calls(self, monkeypatch, *names):
        """Replace each named function of ``norms`` by one that logs its name, then runs it."""
        log = []

        def logged(name, fn):
            def run(*args):
                log.append(name)
                return fn(*args)

            return run

        for name in names:
            monkeypatch.setattr(norms, name, logged(name, getattr(norms, name)))
        return log

    def test_values_run_over_ordered_pairs_in_permutations_order(self):
        fields = [
            fld(4.0, (lattice_index(1, 0, 0), 1.0)),
            fld(4.0, (lattice_index(1, 1, 1), 0.5)),
            fld(4.0, (lattice_index(1, 2, 0), 0.25), (lattice_index(1, 0, 0), 0.75)),
        ]
        expected = [cross_square_pair(fields[i], fields[k])[0] for i, k in permutations(range(3), 2)]
        assert _bits(norms._cross_table(fields)) == _bits(expected)

    def test_each_nonempty_field_is_built_once_before_any_walk(self, monkeypatch):
        log = self._log_calls(monkeypatch, "_square_items", "_cell_integral")
        near = fld(4.0, (lattice_index(1, 0, 0), 1.0))
        far = fld(4.0, (lattice_index(1, 0, 9), 1.0))
        table = norms._cross_table([near, CoeffField.empty(1, 4.0), far, near])
        # Only the pair of the two near fields overlaps.
        assert log == ["_square_items"] * 3 + ["_cell_integral"]
        expected = dict.fromkeys(permutations(range(4), 2), 0.0)
        expected[0, 3], expected[3, 0] = norms._cross_table([near, near])
        assert table == tuple(expected.values())

    def test_a_lone_nonempty_field_builds_no_boxes(self, monkeypatch):
        # Its boxes would overflow, but with no other nonempty field every
        # value is 0.0 and none is built.
        log = self._log_calls(monkeypatch, "_square_items")
        lone = fld(4.0, (lattice_index(1, 2100, 0), 1.0))
        empty = CoeffField.empty(1, 4.0)
        assert norms._cross_table([empty, lone, empty]) == (0.0,) * 6
        assert cross_square_pair(lone, empty) == (0.0, 0.0)
        assert log == []
        with pytest.raises(ValueError, match="cross-square integral overflows the float range"):
            cross_square_pair(lone, fld(4.0, (lattice_index(1, 0, 0), 1.0)))
        assert log == ["_square_items"]


@st.composite
def _raw_layers(draw):
    """1-3 layers of boxes in [-2**(f-1), 2**(f-1))**d, d 1-3, from one pool so cubes repeat.

    A box is a dyadic cube, a box with corners off the grid of its side, or a
    box centred on the origin.  A centred box of side 2**f is the cell tree's
    root cell, the one cell that is not a dyadic cube.
    """
    dim = draw(st.integers(1, 3))
    frame = draw(st.integers(1, 3))
    half = 1 << (frame - 1)

    def box():
        kind = draw(st.sampled_from(["dyadic", "off-grid", "centred"]))
        if kind == "centred":
            side_exp = draw(st.integers(1, frame))
            return (-(1 << (side_exp - 1)),) * dim, side_exp
        side_exp = draw(st.integers(0, frame - 1))
        if kind == "dyadic":
            k = st.integers(-half >> side_exp, (half >> side_exp) - 1)
            return tuple(draw(k) << side_exp for _ in range(dim)), side_exp
        corner = st.integers(-half, half - (1 << side_exp))
        return tuple(draw(corner) for _ in range(dim)), side_exp

    pool = [box() for _ in range(draw(st.integers(1, 5)))]
    layers = [
        [
            (*draw(st.sampled_from(pool)), draw(st.sampled_from(_ORDER_WEIGHTS)))
            for _ in range(draw(st.integers(0, 6)))
        ]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return layers, dim, draw(st.integers(0, 3))


class TestCellIntegralKernel:
    """The nested-cube walk against the recursive cell tree, bit for bit."""

    @pytest.mark.parametrize(
        "weights, expected",
        [
            # (1 + 2**-53) + 2**-53 == 1: the unit box covers the coarser cell
            # [0, 2), so it comes first although it is listed last.  List
            # order alone would give 2**-52 + 1 == 1 + 2**-52.
            ((2.0**-53, 2.0**-53), 0.0),
            # (1 + 2**-53) + 1.5 * 2**-53 == 1 + 2**-52: boxes first covering
            # the same cell [0, 1) add in list order; the other order gives
            # 1 + 2**-51.
            ((2.0**-53, 1.5 * 2.0**-53), 2.0**-52),
        ],
        ids=["coarser-cell-first", "list-order-within-a-cell"],
    )
    def test_order_of_the_float_sums(self, weights, expected):
        items = [((0,), 0, weights[0]), ((0,), 0, weights[1]), ((0,), 1, 1.0)]
        args = ([items], 1, 0, lambda acc: (acc[0] - 1.0,), 1)
        assert _bits(norms._cell_integral(*args)) == _bits([expected])
        assert _bits(recursive_cell_integral(*args)) == _bits([expected])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.sampled_from([3.0, 4.0, 6.0]))
    def test_lp_norm_matches_the_recursive_oracle(self, seed, dim, p):
        f, _ = _pair(seed, dim, p)
        assert _bits([lp_norm(f)]) == _bits([_with_recursive_oracle(lp_norm, f)])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.sampled_from([3.0, 4.0, 6.0]))
    def test_cross_square_pair_matches_the_recursive_oracle(self, seed, dim, p):
        f, g = _pair(seed, dim, p)
        assert _bits(cross_square_pair(f, g)) == _bits(_with_recursive_oracle(cross_square_pair, f, g))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_square_items_are_listed_in_order_key_order(self, seed, dim):
        f, _ = _pair(seed, dim, 4.0)
        resolution = max(i.scale + i.shift.denom_exp for i in f.entries)
        expected = [
            (
                tuple(n << (resolution - i.scale - i.shift.denom_exp) for n in i.shift.numerators),
                resolution - i.scale,
                f.entries[i] * f.entries[i] * 2.0 ** (2.0 * f.dim / f.p * i.scale),
            )
            for i in sorted(f.entries, key=order_key_oracle)
        ]
        assert norms._square_items(f) == (resolution, expected)

    @given(_raw_layers())
    # Two unit cubes listed before the box [1, 5): the tree adds the box at
    # [2, 4), its maximal dyadic sub-cube, before it reaches them.
    @example(([[((2,), 0, 2.0**-53), ((2,), 0, 2.0**-53), ((1,), 2, 1.0)]], 1, 0))
    # The same before [-1, 1), which is the root cell: the tree adds it first.
    @example(([[((0,), 0, 2.0**-53), ((0,), 0, 2.0**-53), ((-1,), 1, 1.0)]], 1, 0))
    def test_raw_boxes_match_the_recursive_oracle(self, drawn):
        layers, dim, resolution = drawn

        def evaluate(acc):
            # Each layer's distance from 1.0 keeps the last bits of its sum;
            # the product mixes the layers.
            return tuple(a - 1.0 for a in acc) + (math.prod(acc),)

        args = (layers, dim, resolution, evaluate, len(layers) + 1)
        assert _bits(norms._cell_integral(*args)) == _bits(recursive_cell_integral(*args))

    def test_a_cube_tiled_by_its_children_is_never_evaluated(self):
        # [0, 2)**2 carries 1.0 and each of its four unit children 2.0, so no
        # point of the plane has the value 1.0 alone.
        children = [((x, y), 0, 2.0) for x in (0, 1) for y in (0, 1)]
        layers = [[((0, 0), 1, 1.0)] + children]

        def evaluate(acc):
            if acc[0] == 1.0:
                raise AssertionError("evaluated a cube its children tile")
            return (acc[0],)

        args = (layers, 2, 0, evaluate, 1)
        assert _bits(norms._cell_integral(*args)) == _bits([12.0])
        assert _bits(recursive_cell_integral(*args)) == _bits([12.0])

    def test_one_entry_in_dimension_64(self):
        # A cell tree would split 2**64 cells around this cube.
        f = fld(4.0, (lattice_index(1, 1, *[0] * 64), -0.5), dim=64)
        assert lp_norm(f) == 0.5


@st.composite
def _off_grid_boxes(draw):
    """A box [lo, lo + 2**side_exp)**d, d 1-3, whose corner is off the grid of its side."""
    dim = draw(st.integers(1, 3))
    side_exp = draw(st.integers(1, 4))
    lo = tuple(draw(st.integers(-40, 40)) for _ in range(dim))
    assume(any(c % (1 << side_exp) for c in lo))
    return lo, side_exp


def _maximal_cubes_oracle(lo, side_exp):
    """Every dyadic cube in the box whose parent is not, by enumerating all cubes in it."""

    def in_box(e, corner):
        return all(a <= c and c + (1 << e) <= a + (1 << side_exp) for a, c in zip(lo, corner))

    cubes = []
    for e in range(side_exp):
        axes = [[c for c in range(a, a + (1 << side_exp)) if c % (1 << e) == 0] for a in lo]
        for corner in product(*axes):
            parent = tuple(c - c % (1 << (e + 1)) for c in corner)
            if in_box(e, corner) and not in_box(e + 1, parent):
                cubes.append((e, corner))
    return sorted(cubes)


class TestDyadicCubes:
    """The blocks of a box off the grid against enumeration, and the walk bound counted from them."""

    @given(_off_grid_boxes())
    @example(((1,), 4))
    @example(((1, 2, 3), 3))
    @example(((-40, 0, 7), 4))
    def test_blocks_are_the_maximal_dyadic_cubes(self, box):
        lo, side_exp = box
        got = [(e, c) for e, spans in norms._cube_blocks(lo, side_exp) for c in product(*spans)]
        want = _maximal_cubes_oracle(lo, side_exp)
        assert len(set(got)) == len(got) and sorted(got) == want
        # Every side from half the box's down to the largest power of two
        # dividing the corner holds a cube, as the early rejection assumes.
        finest = min((c & -c).bit_length() - 1 for c in lo if c)
        sides = {e for e, _ in want}
        assert sides == set(range(finest, side_exp))
        # The walk counts exactly cubes times sides, before it builds a cube.
        args = ([[(lo, side_exp, 1.0)]], len(lo), 0, lambda acc: (acc[0],), 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(norms, "MAX_WALK", len(want) * len(sides))
            norms._cell_integral(*args)
            patch.setattr(norms, "MAX_WALK", len(want) * len(sides) - 1)
            with pytest.raises(norms._Unbounded):
                norms._cell_integral(*args)

    def test_a_root_cell_box_counts_its_blocks(self, monkeypatch):
        # At resolution 1 the first box is [-1, 1), the root cell, which the
        # walk adds at the root; its two unit cubes still count, so with the
        # box [0, 1/2) the walk counts 3 cubes at one side, not 1.
        f = fld(4.0, (WaveletIndex(1, 0, DyadicRationalVec((-1,), 1)), 1.0), (lattice_index(1, 1, 0), 1.0))
        (_, [root_box, _]) = norms._square_items(f)
        assert root_box[:2] == ((-1,), 1)
        monkeypatch.setattr(norms, "MAX_WALK", 3)
        assert _bits([lp_norm(f)]) == _bits([_with_recursive_oracle(lp_norm, f)])
        monkeypatch.setattr(norms, "MAX_WALK", 2)
        with pytest.raises(ValueError, match="^Lebesgue norm needs more than 2 cubes times sides$"):
            lp_norm(f)

    def test_seven_bits_off_the_grid_in_dimension_3(self):
        # The README's example: 112064 cubes at 7 sides, under the bound.
        f = fld(4.0, (WaveletIndex(1, 0, DyadicRationalVec((7, 7, 7), 7)), 1.0), dim=3)
        (resolution, [(lo, side_exp, _)]) = norms._square_items(f)
        assert resolution == 7
        assert sum(math.prod(map(len, s)) for _, s in norms._cube_blocks(lo, side_exp)) == 112064
        assert lp_norm(f) == 1.0

    @pytest.mark.parametrize("norm, name", [
        (lp_norm, "Lebesgue norm"),
        (lambda f: cross_square_pair(f, f), "cross-square integral"),
    ], ids=["lp", "cross"])
    @pytest.mark.parametrize("dim, denom_exp", [(1, 1100), (2, 40), (3, 8), (3, 10**6)])
    def test_past_the_bound_is_a_value_error_naming_the_norm(self, norm, name, dim, denom_exp):
        f = fld(4.0, (WaveletIndex(1, 0, DyadicRationalVec((1,) * dim, denom_exp)), 1.0), dim=dim)
        with pytest.raises(ValueError) as caught:
            norm(f)
        assert str(caught.value) == f"{name} needs more than {norms.MAX_WALK} cubes times sides"


def _traced_peak(fn):
    """``fn()``, or the message of the ValueError it raised, and the tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except ValueError as error:
            result = str(error)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCornerWords:
    """Box corners are integers as wide as the scale gap; their words are counted first."""

    WORDS = f"needs more than {norms.MAX_WALK} 64-bit words of box corners"

    @staticmethod
    def _gap(gap):
        # At p = 1e300 every scale factor is about 1, so only the width is at stake.
        return fld(1e300, (lattice_index(1, 0, 1), 1.0), (lattice_index(1, gap, 0), 1.0))

    def test_a_scale_gap_past_the_bound_fails_before_any_corner(self):
        # The corner of [1, 2) at resolution 10**8 is a 10**8-bit integer:
        # the norm once read 1.0 after a 38.1 MiB peak.
        result, peak = _traced_peak(lambda: lp_norm(self._gap(10**8)))
        assert result == f"Lebesgue norm {self.WORDS}"
        assert peak < 1 << 20

    def test_a_scale_gap_within_the_bound_computes(self):
        # 10**7 bits are 156250 words, under the bound.
        assert lp_norm(self._gap(10**7)) == 1.0

    def test_a_pair_far_apart_in_scale_is_bounded_at_its_resolution(self):
        # Each field alone is one box at its own resolution; the pair's walk
        # would move the coarse one 10**8 bits finer.
        coarse = fld(1e300, (lattice_index(1, 0, 0), 1.0))
        nested = fld(1e300, (lattice_index(1, 10**8, 0), 1.0))
        result, peak = _traced_peak(lambda: cross_square_pair(coarse, nested))
        assert result == f"cross-square integral {self.WORDS}"
        assert peak < 1 << 20
        # Disjoint bounding boxes are compared without moving either.
        apart = fld(1e300, (lattice_index(1, 10**8, -1), 1.0))
        result, peak = _traced_peak(lambda: cross_square_pair(coarse, apart))
        assert _bits(result) == _bits((0.0, 0.0))
        assert peak < 1 << 20


class TestUnderflow:
    @pytest.mark.parametrize(
        "norm, name, entry",
        [
            (lp_norm, "Lebesgue norm", (-3000, 1.0)),
            (lp_norm, "Lebesgue norm", (0, 1e-100)),
            (lambda f: cross_square_pair(f, f), "cross-square integral", (-3000, 1.0)),
            (coeff_lp, "amplitude l^p norm", (0, 1e-170)),
            (lambda f: besov_norm(f, BesovParams(0.0, 4.0, 4.0)), "Besov norm", (0, 1e-170)),
            (lambda f: besov_norm(f, BesovParams(1.0, 4.0, 4.0)), "Besov norm", (-1100, 1.0)),
            (lp_norm, "Lebesgue norm", (-100, 3e-73)),
            (lp_norm, "Lebesgue norm", (-100, 1e-72)),
            (lambda f: cross_square_pair(f, f), "cross-square integral", (-100, 3e-73)),
            (lp_norm, "Lebesgue norm", (-100, 2.0**-240)),
            (lp_norm, "Lebesgue norm", (-2097, 2.0**100)),
            (lambda f: cross_square_pair(f, f), "cross-square integral", (-2098, 2.0**100)),
        ],
        ids=[
            "lp-weight", "lp-mass", "cross", "coeff-lp", "besov", "besov-weight",
            "lp-subnormal-power", "lp-subnormal-power-1e-72", "cross-subnormal-value",
            "lp-exact-subnormal-value", "lp-vast-cube", "cross-vast-cube",
        ],
    )
    def test_is_a_value_error_naming_the_norm(self, norm, name, entry):
        # Every true value but 2**-1100 is a normal float: each 0.0 these
        # norms gave was silently wrong.  At scale -100 the integrand S**2 is
        # subnormal on a cube of volume 2**100, so the norms lost bits
        # (2.99982e-73 for 3e-73) instead of reaching 0.0; for 2**-240 it is
        # exact, but nothing tells it from an inexact one.  On the cubes of
        # volume 2**2097 and 2**2098 the integrand rounds to 0.0, and its error
        # bound alone exceeds the float range.
        scale_j, amp = entry
        f = fld(4.0, (lattice_index(1, scale_j, 0), amp))
        with pytest.raises(ValueError) as caught:
            norm(f)
        assert str(caught.value) == f"{name} underflows the float range"

    @pytest.mark.parametrize(
        "norm", [lp_norm, lambda f: cross_square_pair(f, f)[0]], ids=["lp", "cross"]
    )
    def test_a_negligible_subnormal_value_keeps_the_norm(self, norm):
        # The tiny entry's integrand is subnormal on [2**100, 2**101), but its
        # error cannot move the unit entry's integral of 1.0.
        unit = (lattice_index(1, 0, 0), 1.0)
        assert norm(fld(4.0, unit, (lattice_index(1, -100, 1), 3e-73))) == norm(fld(4.0, unit))

    @pytest.mark.parametrize(
        "norm, name",
        [(lp_norm, "Lebesgue norm"), (lambda f: cross_square_pair(f, f), "cross-square integral")],
        ids=["lp", "cross"],
    )
    def test_an_integrand_that_underflows_to_zero_is_counted(self, norm, name):
        # Both entries add 2**-480 to the integral, but on the cube of volume
        # 2**1100 the integrand S**2 = 2**-1580 is 0.0 as a float: the norm
        # gave 2**-120 instead of 2**-119.75.
        amp = math.ldexp(1.0, -120)
        f = fld(4.0, (lattice_index(1, -1100, 1), amp), (lattice_index(1, 0, 0), amp))
        with pytest.raises(ValueError) as caught:
            norm(f)
        assert str(caught.value) == f"{name} underflows the float range"

    def test_a_fine_cube_keeps_its_norm_where_its_volume_underflows(self):
        # vol = 2**-1100 is below the float range, but S**2 * vol = 1e-40 is
        # not; a cell tree multiplied by a zero volume and gave 0.0.
        f = fld(4.0, (lattice_index(1, 1100, 0), 1e-10))
        assert lp_norm(f) == pytest.approx(1e-10, rel=1e-12)

    def test_a_subnormal_scale_factor_is_rejected(self):
        # 2**(2/2.1 * -1100) is subnormal; times amp**2 = 2**200 it made a
        # normal weight that had lost bits, and the norm came out as
        # 1.267650602350004e30, a relative error of 1.7e-9.
        f = fld(2.1, (lattice_index(1, -1100, 0), 2.0**100))
        with pytest.raises(ValueError) as caught:
            lp_norm(f)
        assert str(caught.value) == "Lebesgue norm underflows the float range"

    def test_a_vast_cube_whose_integrand_is_subnormal_is_rejected(self, monkeypatch):
        # The weight 1e-8 * 2**(-2045/50) is normal, but its 50th power is
        # not; on a cube of volume 2**2045 no total can stand, and the walk
        # raises before it sums anything.
        def no_sum(products, slack):
            pytest.fail("the pieces were summed")

        monkeypatch.setattr(norms, "_rounded_sum", no_sum)
        f = fld(100.0, (lattice_index(1, -2045, 0), 1e-4))
        with pytest.raises(ValueError) as caught:
            lp_norm(f)
        assert str(caught.value) == "Lebesgue norm underflows the float range"

    def test_a_subnormal_power_factor_is_rejected(self):
        # At p = 6 the factor S_g**2 = 1e-320 is subnormal; times S_f = 1e14
        # it gave 9.99988867182683e-307 instead of 1e-306.
        big = fld(6.0, (lattice_index(1, 0, 0), 1e7))
        tiny = fld(6.0, (lattice_index(1, 0, 0), 1e-80))
        for pair in ((big, tiny), (tiny, big)):
            with pytest.raises(ValueError) as caught:
                cross_square_pair(*pair)
            assert str(caught.value) == "cross-square integral underflows the float range"


class TestOverflow:
    @pytest.mark.parametrize(
        "norm, name, entry",
        [
            (lp_norm, "Lebesgue norm", (2000, 1.0)),
            (lambda f: cross_square_pair(f, f), "cross-square integral", (2000, 1.0)),
            (coeff_lp, "amplitude l^p norm", (0, 1e200)),
            (lambda f: besov_norm(f, BesovParams(0.0, 4.0, 4.0)), "Besov norm", (0, 1e200)),
        ],
        ids=["lp", "cross", "coeff-lp", "besov"],
    )
    def test_is_a_value_error_naming_the_norm(self, norm, name, entry):
        scale_j, amp = entry
        f = fld(4.0, (lattice_index(1, scale_j, 0), amp))
        with pytest.raises(ValueError) as caught:
            norm(f)
        assert str(caught.value) == f"{name} overflows the float range"

    def test_an_infinite_besov_result_is_a_value_error(self):
        # No step overflows: 2**50 * 1e300 rounds to inf, and the check of the
        # finished result is what rejects it.
        f = fld(2.0, (lattice_index(1, 100, 0), 1e300))
        params = BesovParams(1.0, 1.0, 1.0)
        assert norms.besov_norm.__wrapped__(f, params) == math.inf
        with pytest.raises(ValueError) as caught:
            besov_norm(f, params)
        assert str(caught.value) == "Besov norm overflows the float range"

    def test_a_scale_out_of_range_fails_before_its_corners_are_built(self):
        # The entry at scale 0 sits at resolution 10**8, where its corner is
        # a 10**8-bit integer: 12.7 MiB were allocated before the scale
        # factor of the other entry overflowed.
        f = fld(4.0, (lattice_index(1, 0, 1), 1.0), (lattice_index(1, 10**8, 0), 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as caught:
                lp_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "Lebesgue norm overflows the float range"
        assert peak < 1 << 20
