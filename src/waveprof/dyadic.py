"""Exact arithmetic for the dyadic index lattice and its symmetry maps.

Everything here is integer-valued or dyadic-rational and therefore exact:
scale/translation maps of the form ``x -> 2**j * x - k`` compose, invert and
act on wavelet indices without any floating point.  Floats appear only in
derived magnitudes (Euclidean norms).

The three value types are named tuples: hashing, equality and field access
run in C, and the hash is that of the field tuple.  The public constructors
check, the vector's also normalises, and the JSON loaders share their value
checks ``_lowest`` and ``_generator``; ``_make``, ``tuple.__new__`` itself,
takes fields known to be valid and in lowest terms, such as the results of
exact arithmetic on valid values.  None of the types is ordered: indices are
sorted by :func:`waveprof.field.order_key` only.

Every exact sum, difference and rescaling runs through one core,
``_shifted_sum``, which returns ``±a * 2**s + b`` and is the only place that
shifts a numerator left.  It bounds the shift it actually makes: one wider
than ``MAX_SHIFT`` bits raises ``ValueError`` before it is made.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

# Most bits one exact operation may shift a value by: norms.MAX_WALK 64-bit
# words, the widest box corner a norm admits (see README, "Cost model").  A
# wider shift would build an integer that many bits wide from a tiny input.
MAX_SHIFT = 1 << 26


def _too_wide(bits: int) -> ValueError:
    return ValueError(f"exact index arithmetic needs a shift of {bits} bits, more than {MAX_SHIFT}")


def _lowest(numerators: tuple[int, ...], denom_exp: int) -> tuple[tuple[int, ...], int]:
    """The fields of the vector ``numerators / 2**denom_exp``, checked and in lowest terms."""
    if not numerators:
        raise ValueError("dimension must be at least 1")
    if denom_exp < 0:
        raise ValueError("denom_exp must be nonnegative")
    # Unique representation: either denom_exp == 0 or some numerator is odd.
    # The common power of two, the lowest set bit of the numerators' OR, is
    # divided out in one step, so a huge denom_exp costs no more than 1.
    if denom_exp:
        common = 0
        for n in numerators:
            common |= n
        step = min((common & -common).bit_length() - 1, denom_exp) if common else denom_exp
        if step:
            numerators = tuple(n >> step for n in numerators)
            denom_exp -= step
    return numerators, denom_exp


def _generator(gen: int, dim: int) -> int:
    """``gen`` when it is a generator in ``dim`` dimensions, 1 to ``2**dim - 1``."""
    if not 0 < gen < 1 << dim:
        raise ValueError(f"generator {gen} out of range [1, {(1 << dim) - 1}]")
    return gen


def _shifted_sum(
    a: DyadicRationalVec, scale: int, b: DyadicRationalVec | None = None, sign: int = 1
) -> DyadicRationalVec:
    """``sign * a * 2**scale + b`` in lowest terms, ``sign`` 1 or -1; ``b`` is zero when omitted.

    Both terms go over their common denominator ``2**exp``, ``exp`` the
    largest of ``a.denom_exp - scale``, ``b.denom_exp`` and 0: the term over
    the smaller one is shifted by the difference, checked against
    ``MAX_SHIFT`` first.  The sum is normalised once, not at all when exp is 0.
    """
    a_exp = a.denom_exp - scale
    b_exp = (a_exp if a_exp > 0 else 0) if b is None else b.denom_exp
    if b is not None and len(a.numerators) != len(b.numerators):
        raise ValueError("dimension mismatch")
    up, exp = (b_exp - a_exp, b_exp) if a_exp < b_exp else (a_exp - b_exp, a_exp)
    if up > MAX_SHIFT:
        raise _too_wide(up)
    if b is None:
        nums = tuple([sign * c << up for c in a.numerators])
    elif a_exp < b_exp:
        nums = tuple([(sign * x << up) + y for x, y in zip(a.numerators, b.numerators)])
    else:
        nums = tuple([sign * x + (y << up) for x, y in zip(a.numerators, b.numerators)])
    if exp:
        nums, exp = _lowest(nums, exp)
    return DyadicRationalVec._make((nums, exp))


def _ldexp(c: int, exp: int) -> float:
    """``c * 2**exp`` with the bits of ``math.ldexp(float(c), exp)``, for a ``c`` of any width.

    A numerator too wide for a float is first divided by a power of two of
    its own width: that quotient is rounded as ``float(c)`` is, one power of
    two lower.  Raises ``OverflowError`` when the value is beyond the float
    range.
    """
    excess = c.bit_length() - 1000
    if excess > 0:
        return math.ldexp(c / (1 << excess), exp + excess)
    return math.ldexp(c, exp)


def _unordered(self, other):
    return NotImplemented


class DyadicRationalVec(namedtuple("DyadicRationalVec", "numerators denom_exp")):
    """Vector whose components are ``numerators / 2**denom_exp``, in lowest terms."""

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    _make = classmethod(tuple.__new__)

    def __new__(cls, numerators: tuple[int, ...], denom_exp: int = 0) -> DyadicRationalVec:
        nums = tuple(map(operator.index, numerators))
        return tuple.__new__(cls, _lowest(nums, operator.index(denom_exp)))

    @classmethod
    def zero(cls, dim: int) -> DyadicRationalVec:
        return cls((0,) * dim, 0)

    @property
    def dim(self) -> int:
        return len(self.numerators)

    @property
    def is_integral(self) -> bool:
        return self.denom_exp == 0

    def as_floats(self) -> tuple[float, ...]:
        return tuple(_ldexp(c, -self.denom_exp) for c in self.numerators)

    def euclidean_norm(self) -> float:
        return math.hypot(*self.as_floats())

    def scaled_by_pow2(self, exponent: int) -> DyadicRationalVec:
        """Exact multiplication of the value by ``2**exponent``."""
        return _shifted_sum(self, exponent)

    def __add__(self, other: DyadicRationalVec) -> DyadicRationalVec:
        return _shifted_sum(self, 0, other)

    def __neg__(self) -> DyadicRationalVec:
        return DyadicRationalVec._make((tuple(-c for c in self.numerators), self.denom_exp))

    def __sub__(self, other: DyadicRationalVec) -> DyadicRationalVec:
        return _shifted_sum(other, 0, self, -1)


class WaveletIndex(namedtuple("WaveletIndex", "gen scale shift")):
    """A basis-coefficient address (generator, scale, shift).

    Lattice indices carry integral shifts; profile-frame indices may carry
    dyadic-rational shifts.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    _make = classmethod(tuple.__new__)

    def __new__(cls, gen: int, scale: int, shift: DyadicRationalVec) -> WaveletIndex:
        gen, scale = operator.index(gen), operator.index(scale)
        return tuple.__new__(cls, (_generator(gen, shift.dim), scale, shift))

    @property
    def dim(self) -> int:
        return self.shift.dim

    @property
    def on_lattice(self) -> bool:
        return self.shift.is_integral


class DyadicAffine(namedtuple("DyadicAffine", "scale shift")):
    """The map tau(x) = 2**scale * x - shift on R^d."""

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    _make = classmethod(tuple.__new__)

    def __new__(cls, scale: int, shift: DyadicRationalVec) -> DyadicAffine:
        if not isinstance(shift, DyadicRationalVec):
            raise TypeError(f"shift must be a DyadicRationalVec, not {type(shift).__name__}")
        return tuple.__new__(cls, (operator.index(scale), shift))

    @classmethod
    def identity(cls, dim: int) -> DyadicAffine:
        return cls(0, DyadicRationalVec.zero(dim))

    @property
    def dim(self) -> int:
        return self.shift.dim


def compose(inner: DyadicAffine, outer: DyadicAffine) -> DyadicAffine:
    """The map sending x to outer(inner(x)); either frame may be an index."""
    shift = _shifted_sum(inner.shift, outer.scale, outer.shift)
    return DyadicAffine._make((inner.scale + outer.scale, shift))


def invert(tau: DyadicAffine) -> DyadicAffine:
    """The sigma with compose(tau, sigma) = compose(sigma, tau) = identity; tau may be an index."""
    return DyadicAffine._make((-tau.scale, _shifted_sum(tau.shift, -tau.scale, None, -1)))


def magnitude(tau: DyadicAffine) -> float:
    """Size of a map: |scale| plus the Euclidean length of its fixed-frame offset.

    Zero exactly for the identity; diverges along a sequence of maps iff the
    scale exponents or the rescaled offsets do.  The offset, the shift times
    ``2**-scale``, is never built as an integer; a size beyond the float
    range raises ``ValueError``.
    """
    exp = -tau.scale - tau.shift.denom_exp
    try:
        size = abs(tau.scale) + math.hypot(*[_ldexp(c, exp) for c in tau.shift.numerators])
    except OverflowError:
        size = math.inf
    if size == math.inf:
        raise ValueError("orthogonality gap overflows the float range")
    return size


def act_on_index(tau: DyadicAffine, index: WaveletIndex) -> WaveletIndex:
    """Index of the transformed basis element; amplitudes are untouched.

    Satisfies act_on_index(compose(t1, t2), idx) ==
    act_on_index(t1, act_on_index(t2, idx)).
    """
    shift = _shifted_sum(tau.shift, index.scale, index.shift)
    return WaveletIndex._make((index.gen, tau.scale + index.scale, shift))


def orthogonality_gap(a: DyadicAffine, b: DyadicAffine) -> float:
    """Separation of two lattice frames (integral shifts).

    It is the magnitude of the relative map carrying frame ``a`` onto frame
    ``b``; two frame sequences are asymptotically orthogonal iff this
    quantity diverges along them.
    """
    return magnitude(relative_map(a, b))


def relative_map(anchor: DyadicAffine, target: DyadicAffine) -> DyadicAffine:
    """The map compose(invert(anchor), target) between two lattice frames.

    For anchor (j0, k0) and target (j, k) this is the map with scale j - j0 and
    shift k - 2**(j - j0) * k0; it is the map tau with
    compose(anchor, tau) == target.  Both frames must have integral shifts,
    which keeps the arithmetic on integers; either may be a lattice index.
    """
    if anchor.shift.denom_exp or target.shift.denom_exp:
        raise ValueError("relative_map needs frames with integral shifts")
    delta = target.scale - anchor.scale
    return DyadicAffine._make((delta, _shifted_sum(anchor.shift, delta, target.shift, -1)))
