"""Functions represented as finite wavelet-coefficient expansions.

A field is a finite association from wavelet indices to nonzero real
amplitudes together with an ambient dimension and a reference exponent p.
Index bookkeeping is exact; only amplitudes are floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .dyadic import MAX_SHIFT, DyadicAffine, WaveletIndex, _too_wide, act_on_index


def order_key(field: CoeffField) -> Callable[[WaveletIndex], tuple]:
    """The canonical order on the indices of ``field``, as a key: scale, shift value, generator.

    Shifts compare as integers at the field's largest ``denom_exp``, which
    orders them exactly as their rational values do; ``ValueError`` when that
    needs a shift of over ``MAX_SHIFT`` bits.
    """
    exps = {index.shift.denom_exp for index in field.entries}
    top = max(exps, default=0)
    if top - min(exps, default=0) > MAX_SHIFT:
        raise _too_wide(top - min(exps))

    def key(index: WaveletIndex) -> tuple:
        shift = index.shift
        stretch = top - shift.denom_exp
        nums = shift.numerators if not stretch else tuple([n << stretch for n in shift.numerators])
        return (index.scale, nums, index.gen)

    return key


@dataclass(frozen=True)
class CoeffField:
    """Finite wavelet expansion with dimension ``dim`` and reference exponent ``p``."""

    dim: int
    p: float
    entries: Mapping[WaveletIndex, float]

    def __post_init__(self) -> None:
        checked = self.from_items(self.dim, self.p, self.entries.items())
        object.__setattr__(self, "p", checked.p)
        object.__setattr__(self, "entries", checked.entries)

    @classmethod
    def _unchecked(cls, dim: int, p: float, entries: dict[WaveletIndex, float]) -> CoeffField:
        """The field of valid ``entries``, which it takes over without a copy."""
        field = object.__new__(cls)
        object.__setattr__(field, "dim", dim)
        object.__setattr__(field, "p", p)
        object.__setattr__(field, "entries", MappingProxyType(entries))
        return field

    @classmethod
    def empty(cls, dim: int, p: float) -> CoeffField:
        return cls(dim, p, {})

    @classmethod
    def from_items(
        cls, dim: int, p: float, items: Iterable[tuple[WaveletIndex, float]]
    ) -> CoeffField:
        """The field of ``items``: the one loop that checks a field's entries."""
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        p = float(p)
        if not (2.0 <= p < math.inf):
            raise ValueError("reference exponent p must satisfy 2 <= p < infinity")
        out: dict[WaveletIndex, float] = {}
        for index, amp in items:
            if index in out:
                raise ValueError(f"duplicate index {index}")
            if len(index.shift.numerators) != dim:
                raise ValueError("index dimension does not match field dimension")
            value = float(amp)
            if value == 0.0:
                raise ValueError("zero amplitudes must not be stored")
            if not math.isfinite(value):
                raise ValueError("amplitudes must be finite")
            out[index] = value
        return cls._unchecked(dim, p, out)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WaveletIndex]:
        return iter(self.entries)

    @property
    def is_lattice(self) -> bool:
        return all(index.on_lattice for index in self.entries)

    def without(self, index: WaveletIndex) -> CoeffField:
        """Copy with one component removed."""
        remaining = {k: v for k, v in self.entries.items() if k != index}
        return CoeffField(self.dim, self.p, remaining)


def transform(field: CoeffField, tau: DyadicAffine) -> CoeffField:
    """Remap every index through ``tau``; amplitudes and (dim, p) are unchanged."""
    if tau.dim != field.dim:
        raise ValueError("dimension mismatch")
    # An affine map is injective, so the checked amplitudes move to distinct indices.
    return CoeffField._unchecked(
        field.dim,
        field.p,
        {act_on_index(tau, index): amp for index, amp in field.entries.items()},
    )


def combine(f: CoeffField, g: CoeffField, alpha: float = 1.0, beta: float = 1.0) -> CoeffField:
    """Coefficient-wise alpha*f + beta*g; exact float zeros are dropped."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if f.p != g.p:
        raise ValueError("reference exponent mismatch")
    out: dict[WaveletIndex, float] = {}
    for index, amp in f.entries.items():
        out[index] = alpha * amp
    for index, amp in g.entries.items():
        out[index] = out.get(index, 0.0) + beta * amp
    # The inputs are checked fields; only the values computed here need a check.
    if not all(map(math.isfinite, out.values())):
        raise ValueError("amplitudes must be finite")
    return CoeffField._unchecked(f.dim, f.p, {k: v for k, v in out.items() if v != 0.0})


def rank(field: CoeffField) -> tuple[tuple[WaveletIndex, float], ...]:
    """Entries by decreasing |amplitude|, ties by scale, shift, generator.

    The key totally orders distinct indices, so removing the top entry of a
    field leaves the ranking of the rest unchanged.
    """
    key = order_key(field)
    return tuple(sorted(field.entries.items(), key=lambda kv: (-abs(kv[1]),) + key(kv[0])))


def split_top(field: CoeffField, count: int) -> tuple[CoeffField, CoeffField]:
    """Split into the ``count`` largest components and the remainder.

    The first output keeps the top-ranked entries (all of them when ``count``
    exceeds the entry count), the second is the exact complement, so together
    they recombine to the input.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    head = dict(rank(field)[:count])
    tail = {k: v for k, v in field.entries.items() if k not in head}
    return (
        CoeffField(field.dim, field.p, head),
        CoeffField(field.dim, field.p, tail),
    )
