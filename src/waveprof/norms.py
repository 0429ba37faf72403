"""Coefficient-space norms, computed exactly from finite expansions.

The Lebesgue-equivalent norm integrates the square function

    S(x) = sum over entries of  amp^2 * 2**((2d/p) j) * [x in cube(index)]

whose p/2 power is piecewise constant on an arrangement of dyadic cubes.  The
arrangement is resolved exactly: all cube boundaries are integers at a common
finest resolution, and a power-of-two subdivision splits only cells that meet
a cube boundary, each into 2**d children.  Cost is bounded by entry count
times the scale range times 2**d, the intended desk-scale envelope.  The only
rounding is in floating-point powers and sums.

Besov-type norms are weighted l^a-in-(generator, shift), l^b-in-scale norms of
the amplitudes and involve no geometry at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from .field import CoeffField, order_key

_REL_SLACK = 1e-12


@dataclass(frozen=True)
class BesovParams:
    """Smoothness s, inner exponent a over (generator, shift), outer exponent b over scale."""

    s: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.s):
            raise ValueError("smoothness must be finite")
        if not (self.a >= 1.0 and self.b >= 1.0):
            raise ValueError("exponents must lie in [1, infinity]")

    @classmethod
    def critical(cls, dim: int, p: float, a: float, b: float) -> BesovParams:
        """The triple (d*(1/a - 1/p), a, b), which embeds into L^p with no room to spare."""
        return cls(dim * (1.0 / a - 1.0 / p), a, b)


def _finite(name: str):
    """Make an overflow or a non-finite result of a norm a ValueError naming ``name``.

    Scales and amplitudes far out of range overflow float powers (which raise
    OverflowError) or products (which give inf); either is a bad input, not an
    internal fault.
    """
    message = f"{name} overflows the float range"

    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except OverflowError:
                raise ValueError(message) from None
            values = result if isinstance(result, tuple) else (result,)
            if not all(map(math.isfinite, values)):
                raise ValueError(message)
            return result

        return checked

    return decorate


def _lp_of(values: Sequence[float], exponent: float) -> float:
    if not values:
        return 0.0
    if exponent == math.inf:
        return max(values)
    return math.fsum(v**exponent for v in values) ** (1.0 / exponent)


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
    if not field.entries:
        return 0.0
    weight_exp = params.s + field.dim * (1.0 / field.p - 1.0 / params.a)
    by_scale: dict[int, list[float]] = {}
    for index, amp in field.entries.items():
        by_scale.setdefault(index.scale, []).append(abs(amp))
    terms = [
        2.0 ** (weight_exp * j) * _lp_of(amps, params.a)
        for j, amps in sorted(by_scale.items())
    ]
    return _lp_of(terms, params.b)


# ---------------------------------------------------------------------------
# Exact integration over the dyadic-cube arrangement.

# An item is an axis-aligned box with integer coordinates at a common
# resolution: (lo, side_exp, weight) describing [lo_c, lo_c + 2**side_exp) per
# axis.  Boxes of weight w contribute w to the accumulated layer value on the
# cells they cover.
_Item = tuple[tuple[int, ...], int, float]


def _square_items(field: CoeffField, resolution: int) -> list[_Item]:
    """The boxes of ``field`` at ``resolution``, in ``order_key`` order of their indices."""
    two_d_over_p = 2.0 * field.dim / field.p
    items = []
    for index in sorted(field.entries, key=order_key(field)):
        j, shift, amp = index.scale, index.shift, field.entries[index]
        stretch = resolution - j - shift.denom_exp
        lo = tuple(n << stretch for n in shift.numerators)
        items.append((lo, resolution - j, amp * amp * 2.0 ** (two_d_over_p * j)))
    return items


def _finest_resolution(fields: Sequence[CoeffField]) -> int:
    return max(
        index.scale + index.shift.denom_exp
        for f in fields
        for index in f.entries
    )


def _cell_integral(
    layers: Sequence[list[_Item]],
    dim: int,
    resolution: int,
    evaluate: Callable[[list[float]], tuple[float, ...]],
    outputs: int,
) -> tuple[float, ...]:
    """Integrate each of the ``outputs`` components of evaluate(S_1(x), ..., S_m(x)) dx.

    The integral over R^d is exact by cells: ``evaluate`` is called once per
    constant cell with the accumulated layer values and returns one value per
    output; cells not covered by any box are skipped.

    Along the path from the root to a cell, a box's weight is added at the
    first (coarsest) cell it covers, so boxes that cover a coarser cell are
    added earlier, and boxes first covering the same cell are added in the
    order they are listed.  That order fixes the float sums and so the bits of
    every result.  It depends only on a layer's own boxes and the root, so a
    layer's values do not depend on which layers share the tree.

    The tree is walked with an explicit stack, so its depth, bounded by the
    scale range of the boxes, is not limited by Python's recursion limit.
    Cells are visited in stack order; ``math.fsum`` rounds the cell pieces
    exactly once, so that order does not reach the result.
    """
    # Each box as (layer, per-axis half-open span (lo, hi), weight).
    boxes = [
        (layer_id, tuple((c, c + (1 << side_exp)) for c in lo), weight)
        for layer_id, items in enumerate(layers)
        for (lo, side_exp, weight) in items
    ]
    if not boxes:
        return (0.0,) * outputs
    extent = max(max(hi, -lo) for _, spans, _ in boxes for lo, hi in spans)
    root_exp = max(1, (extent - 1).bit_length() + 1)
    root = ((-(1 << (root_exp - 1)), 1 << (root_exp - 1)),) * dim

    pieces: list[list[float]] = [[] for _ in range(outputs)]
    # Children share their parent's accumulator until a covering box is added.
    stack = [(root, root_exp, boxes, [0.0] * len(layers))]
    while stack:
        cell, cell_exp, candidates, acc = stack.pop()
        partial = []
        copied = False
        for box in candidates:
            layer_id, spans, weight = box
            covers = True
            for (lo, hi), (cell_lo, cell_hi) in zip(spans, cell):
                if hi <= cell_lo or cell_hi <= lo:
                    break
                if cell_lo < lo or hi < cell_hi:
                    covers = False
            else:
                if not covers:
                    partial.append(box)
                    continue
                if not copied:
                    acc = acc.copy()
                    copied = True
                acc[layer_id] += weight
        if partial:
            # Boundaries are integral, so subdivision always terminates by side 1.
            halves = [((lo, (lo + hi) >> 1), ((lo + hi) >> 1, hi)) for lo, hi in cell]
            for child in product(*halves):
                stack.append((child, cell_exp - 1, partial, acc))
        elif any(acc):
            volume = math.ldexp(1.0, (cell_exp - resolution) * dim)
            for out, value in zip(pieces, evaluate(acc)):
                if value != 0.0:
                    out.append(value * volume)
    return tuple(math.fsum(out) for out in pieces)


def _bounding_box(items: list[_Item]) -> list[tuple[int, int]]:
    """Per-axis half-open integer interval [lo, hi) covering every box."""
    return [
        (min(lo[c] for lo, _, _ in items), max(lo[c] + (1 << e) for lo, e, _ in items))
        for c in range(len(items[0][0]))
    ]


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
    resolution = _finest_resolution([field])
    items = _square_items(field, resolution)
    (total,) = _cell_integral(
        [items], field.dim, resolution, lambda acc: (acc[0] ** half_p,), 1
    )
    return total ** (1.0 / field.p)


@_finite("cross-square integral")
def cross_square_pair(f: CoeffField, g: CoeffField) -> tuple[float, float]:
    """Both cross-square integrals of a pair, from one pass over their cells.

    Returns (integral of S_f * S_g**(p/2 - 1), integral of S_g * S_f**(p/2 - 1)),
    each bit-identical to a pass over that order alone.  Requires p > 2; the
    p == 2 case is trivial and rejected here so callers state their convention
    explicitly.  When the bounding boxes of the two supports are disjoint on
    some axis no cell carries both, so both integrals are 0.0 and no cell tree
    is built.
    """
    if f.dim != g.dim or f.p != g.p:
        raise ValueError("fields must share dimension and reference exponent")
    if f.p <= 2.0:
        raise ValueError("cross-square integral requires p > 2")
    if not f.entries or not g.entries:
        return (0.0, 0.0)
    resolution = _finest_resolution([f, g])
    f_items = _square_items(f, resolution)
    g_items = _square_items(g, resolution)
    for (f_lo, f_hi), (g_lo, g_hi) in zip(_bounding_box(f_items), _bounding_box(g_items)):
        if f_hi <= g_lo or g_hi <= f_lo:
            return (0.0, 0.0)
    exponent = f.p / 2.0 - 1.0

    def evaluate(acc: list[float]) -> tuple[float, float]:
        sf, sg = acc
        if sf == 0.0 or sg == 0.0:
            return (0.0, 0.0)
        return (sf * sg**exponent, sg * sf**exponent)

    return _cell_integral([f_items, g_items], f.dim, resolution, evaluate, 2)


# ---------------------------------------------------------------------------
# Inequality checks at the coefficient level.


@dataclass(frozen=True)
class InterpolationCheck:
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


@dataclass(frozen=True)
class EmbeddingChainReport:
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
