"""Coefficient-space norms, computed exactly from finite expansions.

The Lebesgue-equivalent norm integrates the square function

    S(x) = sum over entries of  amp^2 * 2**((2d/p) j) * [x in cube(index)]

whose p/2 power is piecewise constant on an arrangement of dyadic cubes.  The
arrangement is resolved exactly: all cube boundaries are integers at a common
finest resolution, and any two dyadic cubes are nested or disjoint, so the
integrand is constant on each cube minus its largest sub-cubes and no cell is
ever subdivided.  Cost is the number of distinct cubes times the number of
distinct scales, with no factor 2**d; a cube whose shift has denominator
2**k splits first into the largest dyadic cubes inside it, which line its
boundary: about 2d * 2**((d-1)*k) of them.  The only rounding is in
floating-point powers and sums.

Besov-type norms are weighted l^a-in-(generator, shift), l^b-in-scale norms of
the amplitudes and involve no geometry at all.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from itertools import combinations, product, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .field import CoeffField, order_key

_REL_SLACK = 1e-12
_TINY = sys.float_info.min
_LEAST = math.ldexp(1.0, -1074)

# Most cubes times distinct sides one nested-cube walk may cost, and most
# 64-bit words its box corners may take (see README, "Cost model"); a box k
# bits off the grid splits into about 2d * 2**((d-1)*k).
MAX_WALK = 1 << 20


class BesovParams(namedtuple("BesovParams", "s a b")):
    """Smoothness s, inner exponent a over (generator, shift), outer exponent b over scale."""

    __slots__ = ()
    # ``_replace`` builds its copy through ``_make``, so a copy is checked too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, s: float, a: float, b: float) -> BesovParams:
        if not math.isfinite(s):
            raise ValueError("smoothness must be finite")
        if not (a >= 1.0 and b >= 1.0):
            raise ValueError("exponents must lie in [1, infinity]")
        return tuple.__new__(cls, (s, a, b))

    @classmethod
    def critical(cls, dim: int, p: float, a: float, b: float) -> BesovParams:
        """The triple (d*(1/a - 1/p), a, b), which embeds into L^p with no room to spare."""
        return cls(dim * (1.0 / a - 1.0 / p), a, b)


class _Underflow(ArithmeticError):
    """A quantity that cannot be zero rounded to zero or to a subnormal float."""


class _Unbounded(ArithmeticError):
    """The nested-cube walk would cost more than ``MAX_WALK`` of what ``str()`` names."""

    def __init__(self, what: str = "cubes times sides") -> None:
        super().__init__(what)


def _finite(name: str):
    """Make a result of a norm outside the normal float range a ValueError naming ``name``.

    Scales and amplitudes far out of range overflow float powers (which raise
    OverflowError) or products (which give inf), or make a weight, a sum or a
    cell piece that cannot be zero underflow (see :func:`_normal`); each is a
    bad input, not an internal fault.
    """
    message = f"{name} overflows the float range"

    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except OverflowError:
                raise ValueError(message) from None
            except _Underflow:
                raise ValueError(f"{name} underflows the float range") from None
            except _Unbounded as unbounded:
                raise ValueError(f"{name} needs more than {MAX_WALK} {unbounded}") from None
            values = result if isinstance(result, tuple) else (result,)
            if not all(map(math.isfinite, values)):
                raise ValueError(message)
            return result

        return checked

    return decorate


def _normal(x: float) -> float:
    """``x``, a quantity that cannot be zero, when it is a normal float.

    Zero or subnormal means it underflowed and lost its value or its bits;
    infinite or NaN means it overflowed.  Either raises, for ``_finite``.
    """
    if not abs(x) < math.inf:
        raise OverflowError
    if abs(x) < _TINY:
        raise _Underflow
    return x


def _lp_of(values: Sequence[float], exponent: float) -> float:
    if not values:
        return 0.0
    if exponent == math.inf:
        return max(values)
    total = math.fsum(map(pow, values, repeat(exponent)))
    if total < _TINY and any(values):
        raise _Underflow
    return total ** (1.0 / exponent)


def sup_amplitude(field: CoeffField) -> float:
    """Largest |amplitude|; the norm of the weakest space in the scale."""
    return max((abs(a) for a in field.entries.values()), default=0.0)


@_finite("amplitude l^p norm")
def coeff_lp(field: CoeffField) -> float:
    """Plain l^p norm of the amplitude multiset, at the field's p."""
    return _lp_of([abs(a) for a in field.entries.values()], field.p)


@_finite("Besov norm")
def besov_norm(field: CoeffField, params: BesovParams) -> float:
    """Weighted l^a-per-scale, l^b-across-scales norm of the amplitudes.

    The scale weight is 2**(j * (s + d*(1/p - 1/a))).  At s = d*(1/a - 1/p)
    the weight vanishes and the norm is invariant under every scale and
    translation remap of the indices.
    """
    by_scale: dict[int, list[float]] = {}
    for index, amp in field.entries.items():
        by_scale.setdefault(index.scale, []).append(amp)
    return _besov_sum({}, by_scale, field.dim, field.p, params)


def _besov_sum(terms: dict, scales: Mapping, dim: int, p: float, params: BesovParams) -> float:
    """:func:`besov_norm` from ``terms``, each scale's weight times its l^a norm.

    The terms of ``scales``, scale to amplitudes, are recomputed in scale
    order (dropped when empty), then the l^b norm of all terms in scale order
    is taken.  A term depends only on its scale's amplitudes, so terms kept
    from calls that returned give the bits and errors of a fresh computation.
    """
    weight_exp = params.s + dim * (1.0 / p - 1.0 / params.a)
    for j in sorted(scales):
        amps = list(map(abs, scales[j]))
        if amps:
            terms[j] = _normal(2.0 ** (weight_exp * j)) * _lp_of(amps, params.a)
        else:
            terms.pop(j, None)
    return _lp_of([terms[j] for j in sorted(terms)], params.b)


# The core for callers that keep terms, its errors named as besov_norm's.
_besov_update = _finite("Besov norm")(_besov_sum)


# ---------------------------------------------------------------------------
# Exact integration over the dyadic-cube arrangement.

# An item is an axis-aligned box with integer coordinates at a common
# resolution: (lo, side_exp, weight) describing [lo_c, lo_c + 2**side_exp) per
# axis.  Boxes of weight w contribute w to the accumulated layer value on the
# points they cover.
_Item = tuple[tuple[int, ...], int, float]


def _square_items(field: CoeffField) -> tuple[int, list[_Item]]:
    """The finest resolution of a nonempty ``field`` and its boxes there, in ``order_key`` order.

    The resolution is the largest scale plus shift ``denom_exp``.  The scale
    factors are checked first, and then the words the corners will take, so
    that a scale out of range or a vast scale gap fails before the corner of
    a far finer or coarser box is built.  A corner coordinate n / 2**k at
    scale j is ``n << (resolution - j - k)``; it and its box's far edge are
    about ``resolution - j + max(n.bit_length() - k, 0)`` bits wide.
    """
    resolution = max(index.scale + index.shift.denom_exp for index in field.entries)
    two_d_over_p = 2.0 * field.dim / field.p
    factor = {j: _normal(2.0 ** (two_d_over_p * j)) for j in {i.scale for i in field.entries}}
    _check_corners(
        resolution - index.scale + max(abs(n).bit_length() - index.shift.denom_exp, 0)
        for index in field.entries
        for n in index.shift.numerators
    )
    items = []
    for index in sorted(field.entries, key=order_key(field)):
        j, shift, amp = index.scale, index.shift, field.entries[index]
        stretch = resolution - j - shift.denom_exp
        lo = tuple(n << stretch for n in shift.numerators)
        items.append((lo, resolution - j, _normal(amp * amp * factor[j])))
    return resolution, items


def _check_corners(widths: Iterable[int]) -> None:
    """Raise ``_Unbounded`` when corners of these bit widths take over ``MAX_WALK`` 64-bit words.

    A coordinate ``w`` bits wide counts ``w // 64 + 1`` words, so the scale
    gap, which sets the width, is bounded before any corner exists.
    """
    if sum(w // 64 + 1 for w in widths) > MAX_WALK:
        raise _Unbounded("64-bit words of box corners")


def _cell_integral(
    layers: Sequence[list[_Item]],
    dim: int,
    resolution: int,
    evaluate: Callable[[list[float]], tuple[float, ...]],
    outputs: int,
) -> tuple[float, ...]:
    """Integrate each of the ``outputs`` components of evaluate(S_1(x), ..., S_m(x)) dx.

    The integrand is the one a cell tree resolves: a root cell
    [-2**(r-1), 2**(r-1))**d spanning every box, split into 2**d children
    wherever a box boundary crosses a cell.  On the path to a cell, a box's
    weight is added at the first (coarsest) cell it covers, boxes first
    covering the same cell in listed order.  That order fixes the float sums
    and so the bits of every result; it depends only on a layer's own boxes
    and the root, not on which layers share the integral.

    No cell is subdivided.  The tree adds a box's weight at its maximal
    dyadic sub-cubes (the box itself when it is one), or at the root when the
    box is the root.  Dyadic cubes are nested or disjoint, so the values are
    constant on each cube Q minus its maximal sub-cubes R, and one walk over
    the distinct cubes, coarse to fine, gives Q its parent's values plus the
    weights added at Q.  A value v of ``evaluate`` on Q adds the exact
    products v * vol Q and -v * vol R for each R, and ``math.fsum`` rounds the
    exact total once, as it rounds the tree's cell pieces.  A cube its
    sub-cubes tile holds no tree cell and is never evaluated.  Cost is
    distinct cubes times distinct sides, with no factor 2**d.

    Each box, a root-cell box too, is counted before its cubes are built, so
    past ``MAX_WALK`` cubes times sides the walk raises ``_Unbounded``.
    """
    # Where the tree adds each box's weight, in listed order.
    weights: dict[tuple[int, tuple[int, ...]], list[tuple[int, float]]] = {}
    root, root_exp = [0.0] * len(layers), None
    count, counted_sides = 0, set()
    for layer_id, items in enumerate(layers):
        for lo, side_exp, weight in items:
            if not any(c & ((1 << side_exp) - 1) for c in lo):
                blocks = None
                count += 1
                counted_sides.add(side_exp)
            else:
                blocks = list(_cube_blocks(lo, side_exp))
                for e, spans in blocks:
                    # index() counts past sys.maxsize, where len() of a range stops.
                    count += math.prod(s.index(s[-1]) + 1 if s else 0 for s in spans)
                    counted_sides.add(e)
            if count * len(counted_sides) > MAX_WALK:
                raise _Unbounded
            if blocks is None:
                cubes = ((side_exp, lo),)
            elif _is_root_cell(lo, side_exp, layers):
                root[layer_id] += weight
                root_exp = side_exp
                continue
            else:
                cubes = [(e, c) for e, spans in blocks for c in product(*spans)]
            for cube in cubes:
                weights.setdefault(cube, []).append((layer_id, weight))

    sides = sorted({side_exp for side_exp, _ in weights})
    coarser = {side_exp: sides[i + 1:] for i, side_exp in enumerate(sides)}
    acc_of = {None: root}
    sub_sides: dict = {}
    # The smallest cube holding each dyadic cell looked up so far (a cube
    # holds itself), so that siblings share their ancestors' lookups.
    holder = dict(zip(weights, weights))
    for cube in sorted(weights, key=itemgetter(0), reverse=True):
        side_exp, lo = cube
        parent, path = None, []
        for e in coarser[side_exp]:
            key = (e, tuple(c & -(1 << e) for c in lo))
            if key in holder:
                parent = holder[key]
                break
            path.append(key)
        holder.update(dict.fromkeys(path, parent))
        acc = acc_of[parent].copy()
        for layer_id, weight in weights[cube]:
            acc[layer_id] += weight
        acc_of[cube] = acc
        sub_sides.setdefault(parent, []).append(side_exp)

    pieces: list[list[float]] = [[] for _ in range(outputs)]
    slack = [0.0] * outputs
    for cube, acc in acc_of.items():
        side_exp = root_exp if cube is None else cube[0]
        subs = sub_sides.get(cube, ())
        if not any(acc) or subs and sum(1 << (e * dim) for e in subs) == 1 << (side_exp * dim):
            continue
        for i, value in enumerate(evaluate(acc)):
            if value != 0.0:
                if abs(value) < _TINY:
                    # A value below the normal range was rounded to a multiple
                    # of 2**-1074; twice that per unit volume of each product
                    # bounds its error and the rounding of this sum.  From a
                    # volume of 2**2045 on, that bound is at least 2**972,
                    # twice an ulp of the largest floats: no total stands.
                    if (side_exp - resolution) * dim >= 2045:
                        raise _Underflow
                    slack[i] += math.fsum(
                        math.ldexp(1.0, (e - resolution) * dim - 1073) for e in (side_exp, *subs)
                    )
                pieces[i].append(math.ldexp(value, (side_exp - resolution) * dim))
                pieces[i].extend(-math.ldexp(value, (e - resolution) * dim) for e in subs)
    return tuple(map(_rounded_sum, pieces, slack))


def _rounded_sum(products: list[float], slack: float) -> float:
    """``math.fsum`` of products meant to be exact; raises where they were not.

    ``slack`` bounds the error the integrand's values brought in by rounding
    below the normal range.  A product that rounded into the subnormal range,
    or up to its edge, is off by at most 2**-1075 and adds 2**-1074 to it.  The
    sum stands when the slack cannot move its rounding.  An infinite product
    overflowed.
    """
    if not all(map(math.isfinite, products)):
        raise OverflowError
    total = math.fsum(products)
    if products and min(map(abs, products)) <= _TINY:
        slack += math.ldexp(sum(abs(x) <= _TINY for x in products), -1074)
    if slack and (math.fsum(products + [slack]) != total or math.fsum(products + [-slack]) != total):
        raise _Underflow
    return total


def _is_root_cell(lo: tuple[int, ...], side_exp: int, layers: Sequence[list[_Item]]) -> bool:
    """Whether a box is the tree's root [-2**(r-1), 2**(r-1))**d: centred, spanning every box."""
    half = 1 << (side_exp - 1)
    return all(c == -half for c in lo) and all(
        -half <= c and c + (1 << e) <= half for items in layers for box, e, _ in items for c in box
    )


def _cube_blocks(lo: tuple[int, ...], side_exp: int) -> Iterator[tuple[int, list]]:
    """The maximal dyadic cubes in the box [lo, lo + 2**side_exp)**d, as blocks (e, spans).

    Such a cube lies in the box and its parent does not; a block holds those of
    side 2**e whose corners are the product of its per-axis spans.  Sides run
    from half the box's down to the largest power of two dividing every corner
    coordinate; at each the cubes line the box's boundary, as the cells a tree
    splits there do.  Each side holds one, so a box of over ``MAX_WALK ** 0.5``
    sides is rejected before any block is made.
    """
    finest = min((c & -c).bit_length() - 1 for c in lo if c)
    if (side_exp - finest) ** 2 > MAX_WALK:
        raise _Unbounded
    for e in range(side_exp - 1, finest - 1, -1):
        # Per axis, the corners of the side-2**e intervals in the box, and
        # the run of those whose parent interval lies in the box too.
        inside, nested = [], []
        for a in lo:
            b = a + (1 << side_exp)
            inside.append(range(-(-a >> e) << e, b >> e << e, 1 << e))
            nested.append(range(-(-a >> (e + 1)) << (e + 1), b >> (e + 1) << (e + 1), 1 << e))
        # A cube is maximal when some axis leaves ``nested``: split by the
        # first.  ``nested`` is a run inside the axis, so only an end can.
        for i, axis in enumerate(inside):
            ends = [x for x in (*axis[:1], *axis[1:][-1:]) if x not in nested[i]]
            yield e, nested[:i] + [ends] + inside[i + 1:]


def _bounding_box(items: list[_Item]) -> list[tuple[int, int]]:
    """Per-axis half-open integer interval [lo, hi) covering every box."""
    return [
        (min(lo[c] for lo, _, _ in items), max(lo[c] + (1 << e) for lo, e, _ in items))
        for c in range(len(items[0][0]))
    ]


def _apart(coarse: list[tuple[int, int]], fine: list[tuple[int, int]], up: int) -> bool:
    """Whether two bounding boxes are disjoint on some axis, ``fine`` being ``up`` bits finer.

    Rounding ``fine`` outward to the coarser resolution decides exactly what
    shifting ``coarse`` up to the finer one would, without an integer as wide
    as the gap between them.
    """
    return any(
        c_hi <= f_lo >> up or -(-f_hi >> up) <= c_lo
        for (c_lo, c_hi), (f_lo, f_hi) in zip(coarse, fine)
    )


def _finer(items: list[_Item], up: int) -> list[_Item]:
    """``items`` at a resolution ``up`` bits finer, their corners' words checked first."""
    if not up:
        return items
    _check_corners(max(abs(c).bit_length(), e) + up for lo, e, _ in items for c in lo)
    return [(tuple(c << up for c in lo), e + up, weight) for lo, e, weight in items]


@_finite("Lebesgue norm")
def lp_norm(field: CoeffField) -> float:
    """Lebesgue-equivalent norm: the L^{p/2} mass of the square function, rooted.

    Exactly the l^p amplitude norm when p == 2; for a single entry it equals
    the entry's |amplitude| at any scale, since the cube volume cancels the
    scale weight.
    """
    if not field.entries:
        return 0.0
    half_p = field.p / 2.0
    resolution, items = _square_items(field)
    # A power that underflowed to zero stands for a value in (0, 2**-1075]:
    # the least subnormal marks it, so that the walk counts its slack.
    (total,) = _cell_integral(
        [items], field.dim, resolution, lambda acc: (acc[0] ** half_p or _LEAST,), 1
    )
    # Every cube carries a positive weight, so a zero mass underflowed.
    return _normal(total) ** (1.0 / field.p)


def cross_square_pair(f: CoeffField, g: CoeffField) -> tuple[float, float]:
    """Both cross-square integrals of a pair, from one walk over their cubes.

    Returns (integral of S_f * S_g**(p/2 - 1), integral of S_g * S_f**(p/2 - 1)),
    each bit-identical to a pass over that order alone.  Requires p > 2; the
    p == 2 case is trivial and rejected here so callers state their convention
    explicitly.  When the bounding boxes of the two supports are disjoint on
    some axis no point carries both, so both integrals are 0.0 and no walk
    runs.
    """
    return _cross_table([f, g])


@_finite("cross-square integral")
def _cross_table(fields: Sequence[CoeffField]) -> tuple[float, ...]:
    """:func:`cross_square_pair` of each pair i < k of ``fields``, flat, pairs in that order.

    Each field's boxes and their bounding box are built once, at the field's
    own finest resolution, when the first pair that needs them is reached;
    so the first check to fail is the one a call per pair meets first.  A
    pair whose bounding boxes are disjoint gives (0.0, 0.0) with nothing more
    built.  Otherwise the coarser field's boxes are moved to the pair's
    resolution R by ``_finer``, which lists exactly the boxes the field would
    have at R, and one walk gives both orders.
    """
    if len(fields) < 2:
        return ()
    dim, p = fields[0].dim, fields[0].p
    if any(f.dim != dim or f.p != p for f in fields):
        raise ValueError("fields must share dimension and reference exponent")
    if p <= 2.0:
        raise ValueError("cross-square integral requires p > 2")
    exponent = p / 2.0 - 1.0

    def evaluate(acc: list[float]) -> tuple[float, float]:
        sf, sg = acc
        if sf == 0.0 or sg == 0.0:
            return (0.0, 0.0)
        # A power factor below the normal range lost bits that the other
        # square function could scale back up, so it raises.  As in lp_norm, a
        # product that underflowed to zero counts as the least subnormal.
        sf_power, sg_power = sf**exponent, sg**exponent
        if sf_power < _TINY or sg_power < _TINY:
            raise _Underflow
        return (sf * sg_power or _LEAST, sg * sf_power or _LEAST)

    boxes: list = [None] * len(fields)  # (resolution, items, bounding box) once built

    def built(i: int) -> tuple[int, list[_Item], list[tuple[int, int]]]:
        if boxes[i] is None:
            resolution, items = _square_items(fields[i])
            boxes[i] = (resolution, items, _bounding_box(items))
        return boxes[i]

    table: list[float] = []
    for i, k in combinations(range(len(fields)), 2):
        if not fields[i].entries or not fields[k].entries:
            table += (0.0, 0.0)
            continue
        (f_res, f_items, f_box), (g_res, g_items, g_box) = built(i), built(k)
        resolution = max(f_res, g_res)
        f_up, g_up = resolution - f_res, resolution - g_res
        if _apart(f_box, g_box, f_up) if f_up else _apart(g_box, f_box, g_up):
            table += (0.0, 0.0)
            continue
        layers = [_finer(f_items, f_up), _finer(g_items, g_up)]
        table += _cell_integral(layers, dim, resolution, evaluate, 2)
    return tuple(table)


# ---------------------------------------------------------------------------
# Inequality checks at the coefficient level.


class InterpolationCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def interpolation_check(
    field: CoeffField, q: float, r: float, alpha: float
) -> InterpolationCheck:
    """Convexity bound between the l^p amplitude norm and the sup amplitude.

    Checks besov_norm at (d*(1/r - 1/p), r, q) against
    coeff_lp**alpha * sup**(1-alpha).  In coefficient norms the Hoelder chain
    behind this bound has constant exactly 1, so ``holds`` is expected for
    every admissible input.
    """
    p = field.p
    if not (2.0 <= p < q and p < r):
        raise ValueError("exponents must satisfy 2 <= p < q, r <= infinity")
    floor = max(p / r, p / q)
    if not (floor < alpha < 1.0):
        raise ValueError(f"alpha must lie in ({floor}, 1)")
    lhs = besov_norm(field, BesovParams.critical(field.dim, p, r, q))
    rhs = coeff_lp(field) ** alpha * sup_amplitude(field) ** (1.0 - alpha)
    return InterpolationCheck(lhs, rhs, lhs <= rhs * (1.0 + _REL_SLACK))


class EmbeddingChainReport(NamedTuple):
    besov_0pp: float
    besov_0pq: float
    besov_srq: float
    lp: float
    amplitude_lp: float
    outer_monotone: bool
    inner_monotone: bool
    amplitude_ratio: float


def embedding_chain_check(field: CoeffField, q: float, r: float) -> EmbeddingChainReport:
    """Discrete embedding chain at the coefficient level.

    Verifies besov(0,p,q) <= besov(0,p,p) and besov(s_{p,r},r,q) <=
    besov(0,p,q), both exact consequences of l-exponent monotonicity, and
    reports the empirical ratio amplitude-l^p / lp_norm, whose uniform bound
    is not explicit and therefore only observed, never asserted.
    """
    p = field.p
    if not (2.0 <= p <= q and p <= r):
        raise ValueError("exponents must satisfy 2 <= p <= q, r <= infinity")
    b_pp = besov_norm(field, BesovParams(0.0, p, p))
    b_pq = besov_norm(field, BesovParams(0.0, p, q))
    b_rq = besov_norm(field, BesovParams.critical(field.dim, p, r, q))
    lp = lp_norm(field)
    clp = coeff_lp(field)
    return EmbeddingChainReport(
        besov_0pp=b_pp,
        besov_0pq=b_pq,
        besov_srq=b_rq,
        lp=lp,
        amplitude_lp=clp,
        outer_monotone=b_pq <= b_pp * (1.0 + _REL_SLACK),
        inner_monotone=b_rq <= b_pq * (1.0 + _REL_SLACK),
        amplitude_ratio=clp / lp if lp > 0.0 else 0.0,
    )
