"""Ground-truth sequence generation and recovery checking.

A synthetic sequence plants known profiles along prescribed scale/translation
parameter laws, optionally buried under small-amplitude noise placed on fresh
indices, and returns both the sequence and the decomposition an extractor is
expected to recover.  Specs whose parameter laws do not separate, whose
transformed indices leave the integer lattice, whose planted supports collide
anywhere in the generated range, that would generate more than
``MAX_GENERATED_ENTRIES`` coefficients or check more than ``MAX_SPEC_PAIRS``
law gaps, or whose noise would need draws from more than 2**64 values are
rejected before any file is written.

Randomness comes from an explicit SplitMix64 stream so corpora are
reproducible from the seed alone, independent of the host platform.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import combinations
from typing import Iterable, NamedTuple

from .dyadic import (
    MAX_SHIFT,
    DyadicAffine,
    DyadicRationalVec,
    WaveletIndex,
    _too_wide,
    act_on_index,
    invert,
    orthogonality_gap,
    relative_map,
)
from .extract import Decomposition, GroupMember, ProfileGroup
from .field import CoeffField, order_key, rank, transform

_RANGE64 = 1 << 64  # the values of one SeededStream output
_MASK64 = _RANGE64 - 1


class SeededStream:
    """SplitMix64: state advances by the golden-ratio increment, output is the
    mixed state (xor-shift by 30/27/31 with the usual two odd multipliers).
    Uniform integers use rejection sampling, so every draw is unbiased and
    reproducible across implementations; a bound may be at most 2**64, the
    range of one output."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_raw(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > _RANGE64:
            raise ValueError("bound must be at most 2**64")
        limit = _RANGE64 - _RANGE64 % bound
        while True:
            raw = self.next_raw()
            if raw < limit:
                return raw % bound

    def unit(self) -> float:
        return (self.next_raw() >> 11) * 2.0**-53


LAW_KINDS = ("constant", "translation", "scaling", "mixed")


class ParamLaw(namedtuple("ParamLaw", "kind j0 k0 velocity scale_step")):
    """The frame x -> 2**j * x - k of one planted profile at each n, n running from 1."""

    __slots__ = ()
    # ``_replace`` builds its copy through ``_make``, so a copy is checked too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, kind: str, j0: int, k0: tuple[int, ...], velocity: tuple[int, ...] = (),
        scale_step: int = 0,
    ) -> ParamLaw:
        if kind not in LAW_KINDS:
            raise ValueError(f"unknown law kind {kind!r}")
        velocity = velocity or (0,) * len(k0)
        j0, scale_step = operator.index(j0), operator.index(scale_step)
        k0 = tuple(map(operator.index, k0))
        velocity = tuple(map(operator.index, velocity))
        if not k0:
            raise ValueError("law dimension must be at least 1")
        if len(velocity) != len(k0):
            raise ValueError("velocity dimension does not match k0")
        expected = {
            "constant": (False, False),
            "translation": (True, False),
            "scaling": (False, True),
            "mixed": (True, True),
        }[kind]
        if (any(velocity), scale_step != 0) != expected:
            raise ValueError(f"law fields inconsistent with kind {kind!r}")
        return tuple.__new__(cls, (kind, j0, k0, velocity, scale_step))

    def params(self, n: int) -> DyadicAffine:
        # ``__new__`` checked the fields and ``n`` is checked here: integral, so in lowest terms.
        scale = self.j0 + operator.index(n) * self.scale_step
        nums = tuple([c + n * v for c, v in zip(self.k0, self.velocity)])
        return DyadicAffine._make((scale, DyadicRationalVec._make((nums, 0))))


class PlantedProfile(NamedTuple):
    field: CoeffField
    law: ParamLaw


class SyntheticSpec(NamedTuple):
    dim: int
    p: float
    profiles: tuple[PlantedProfile, ...]
    n_count: int
    seed: int
    noise_amp: float = 0.0
    noise_count: int = 0


# Most coefficients a spec may generate; without a bound a huge n_count or
# noise count keeps validate_spec and generate looping without end.
MAX_GENERATED_ENTRIES = 1 << 20

# Most parameter-law gaps the separation check may compute, n_count times the
# number of profile pairs; a two-profile spec within MAX_GENERATED_ENTRIES
# needs at most this many.
MAX_SPEC_PAIRS = MAX_GENERATED_ENTRIES // 2


def _check_spec(spec: SyntheticSpec) -> None:
    """The checks of :func:`validate_spec` that place no profile: shape, size and laws."""
    if spec.n_count < 1:
        raise ValueError("n_count must be at least 1")
    if not spec.profiles:
        raise ValueError("at least one profile is required")
    if not 0.0 <= spec.noise_amp < math.inf:
        raise ValueError(f"noise amplitude must be finite and nonnegative, got {spec.noise_amp}")
    if spec.noise_count < 0:
        raise ValueError("noise count must be nonnegative")
    if (spec.noise_amp > 0.0) != (spec.noise_count > 0):
        raise ValueError("noise amplitude and count must be set together")
    for planted in spec.profiles:
        if planted.field.dim != spec.dim or planted.field.p != spec.p:
            raise ValueError("profile dimension or exponent does not match the spec")
        if not planted.field.entries:
            raise ValueError("profiles must be nonempty")
        if len(planted.law.k0) != spec.dim:
            raise ValueError("law dimension does not match the spec")
    planted_count = sum(len(planted.field.entries) for planted in spec.profiles)
    if spec.n_count * (planted_count + spec.noise_count) > MAX_GENERATED_ENTRIES:
        raise ValueError(
            f"n_count times (planted entries + noise count) exceeds {MAX_GENERATED_ENTRIES}"
        )
    if len(spec.profiles) > 1 and spec.n_count < 2:
        raise ValueError("divergence of several laws needs n_count >= 2")
    pairs = len(spec.profiles) * (len(spec.profiles) - 1) // 2
    if spec.n_count * pairs > MAX_SPEC_PAIRS:
        raise ValueError(f"n_count times profile pairs exceeds {MAX_SPEC_PAIRS}")
    last: dict[tuple[int, int], float] = {}  # each pair's gap at the previous n
    for n in range(1, spec.n_count + 1):
        frames = [planted.law.params(n) for planted in spec.profiles]
        for i, k in combinations(range(len(frames)), 2):
            gap = orthogonality_gap(frames[i], frames[k])
            if gap <= last.get((i, k), -math.inf):
                raise ValueError(f"parameter laws {i} and {k} do not separate at n={n}")
            last[i, k] = gap


def _placed(spec: SyntheticSpec, n: int) -> dict[WaveletIndex, float]:
    """Every planted entry moved to index ``n``; off-lattice or colliding profiles are rejected."""
    entries: dict[WaveletIndex, float] = {}
    for position, planted in enumerate(spec.profiles):
        field = transform(planted.field, planted.law.params(n))
        if not field.is_lattice:
            raise ValueError(f"profile {position} leaves the lattice at n={n}")
        if not entries.keys().isdisjoint(field.entries):
            raise ValueError(f"planted supports collide at n={n}; recovery would be ambiguous")
        entries.update(field.entries)
    return entries


def validate_spec(spec: SyntheticSpec) -> None:
    """Reject specs that cannot produce a cleanly recoverable sequence."""
    _check_spec(spec)
    # The placements are made lazily, so one index's entries are held at a time.
    _noise_frame(spec, (_placed(spec, n) for n in range(1, spec.n_count + 1)))


def _reframed_groups(spec: SyntheticSpec, retained: tuple[int, ...]) -> list[ProfileGroup]:
    """Planted profiles rewritten in the frame of their dominant component.

    The anchor of each group is the planted entry of largest |amplitude|
    (ranking tie-break), so the group invariantly starts with the identity
    relative map, matching what an extractor produces.
    """
    staged = []  # each group's anchors and profile
    flat = []  # (group, index, amp) by group, each group's members in canonical index order
    for gi, planted in enumerate(spec.profiles):
        anchor_index, _ = rank(planted.field)[0]
        profile = transform(planted.field, invert(anchor_index))
        anchors = {}
        for n in retained:
            # An index's scale and shift are a valid frame's.
            anchors[n] = DyadicAffine._make(act_on_index(planted.law.params(n), anchor_index)[1:])
        staged.append((anchors, profile))
        flat += [(gi, i, profile.entries[i]) for i in sorted(profile, key=order_key(profile))]

    # Largest |amplitude| first; the sort is stable, so ties keep group, then member order.
    members: list[list[GroupMember]] = [[] for _ in staged]
    for position, (gi, index, amp) in enumerate(sorted(flat, key=lambda m: -abs(m[2])), start=1):
        members[gi].append(GroupMember(index, amp, position))
    return [
        ProfileGroup(anchors, tuple(group_members), profile)
        for (anchors, profile), group_members in zip(staged, members)
    ]


def _noise_frame(
    spec: SyntheticSpec, placed: Iterable[Iterable[WaveletIndex]]
) -> tuple[int, int, int]:
    """Noise scale, offset and span, from the planted indices of every input.

    Every index in ``placed`` has passed :func:`_placed`'s lattice check, so
    its shifts are integers.  The scale is one finer than every planted
    entry's and at least 1.  Input n draws each shift component from the
    ``span << scale`` values starting at ``(offset + (n - 1) * span) << scale``,
    beyond every planted cube.  Draws spanning over 2**64 values are rejected
    without building ``span << scale``, and an edge shifted by more than
    ``MAX_SHIFT`` bits is never built.
    """
    # An entry at scale j with shift k covers a cube whose farthest edge from
    # the origin, per axis, is (|k| + 1) / 2**j.
    span = 4 * spec.noise_count
    top_scale = 0
    reach = 1
    for indices in placed:
        if not span:
            continue  # no noise: the placements are only made, for their checks
        for index in indices:
            j = index.scale
            top_scale = max(top_scale, j)
            if -j > MAX_SHIFT:
                raise _too_wide(-j)
            for c in index.shift.numerators:
                edge = abs(c) + 1
                reach = max(reach, -(-edge >> j) if j >= 0 else edge << -j)
    scale = top_scale + 1
    # Each noise shift component and generator is one SeededStream draw,
    # which spans at most 2**64 values; there are 2**dim - 1 generators.
    if span and (span > (1 << 64) >> scale or spec.dim > 64):
        raise ValueError(
            f"noise at scale {scale} in dimension {spec.dim} needs draws "
            "from more than 2**64 values"
        )
    return scale, reach + 1, span


def _draw_noise(
    spec: SyntheticSpec, stream: SeededStream, n: int, frame: tuple[int, int, int],
    entries: dict[WaveletIndex, float],
) -> None:
    """Add input ``n``'s noise to its planted ``entries``: fresh indices, nonzero amplitudes."""
    scale, offset, span = frame
    base = (offset + (n - 1) * span) << scale
    width = span << scale
    gens, axes = (1 << spec.dim) - 1, range(spec.dim)
    size = len(entries) + spec.noise_count
    while len(entries) < size:
        # A generator in [1, 2**dim - 1] and integral shifts: valid and in lowest terms.
        gen = 1 + stream.below(gens)
        shift = DyadicRationalVec._make((tuple([base + stream.below(width) for _ in axes]), 0))
        index = WaveletIndex._make((gen, scale, shift))
        if index in entries:
            continue
        amp = (2.0 * stream.unit() - 1.0) * spec.noise_amp
        if amp == 0.0:
            continue
        entries[index] = amp


def generate(spec: SyntheticSpec) -> tuple[tuple[CoeffField, ...], Decomposition]:
    """Build the sequence and the decomposition that should be recovered.

    Deterministic given the spec.  Each input is one mapping: the placed
    planted profiles, which :func:`_placed` guarantees are disjoint, and noise
    drawn beyond every planted index.  Its planted entries are the truth groups'
    placed profiles entry for entry, so a perfect recovery cancels them exactly,
    coefficient by coefficient, and leaves the noise.
    """
    _check_spec(spec)
    retained = tuple(range(1, spec.n_count + 1))
    inputs = [_placed(spec, n) for n in retained]
    if spec.noise_count:
        stream = SeededStream(spec.seed)
        frame = _noise_frame(spec, inputs)
        for n, entries in zip(retained, inputs):
            _draw_noise(spec, stream, n, frame, entries)
    # Planted amplitudes come from checked fields; noise ones are nonzero and within noise_amp.
    fields = tuple(CoeffField._unchecked(spec.dim, spec.p, entries) for entries in inputs)

    groups = _reframed_groups(spec, retained)
    truth = Decomposition(
        dim=spec.dim,
        p=spec.p,
        inputs={n: f for n, f in zip(retained, fields)},
        groups=tuple(groups),
        retained=retained,
        diagnostics=(),
    )
    return fields, truth


class GroupMatch(NamedTuple):
    truth_index: int
    found_index: int
    frame_map: DyadicAffine
    max_amplitude_deviation: float


class AlignmentReport(NamedTuple):
    matches: tuple[GroupMatch, ...]
    unmatched_truth: tuple[int, ...]
    unmatched_found: tuple[int, ...]
    max_amplitude_deviation: float

    @property
    def complete(self) -> bool:
        return not self.unmatched_truth and not self.unmatched_found


def _try_match(
    found_group: ProfileGroup, truth_group: ProfileGroup, ns: list[int]
) -> tuple[DyadicAffine, float] | None:
    """The frame map and amplitude deviation of a match, or None.

    The anchors fix the map: it is their relative map at each common index,
    which must be one constant map carrying the found profile onto the truth
    profile's index set.
    """
    maps = (
        relative_map(truth_group.anchor_params[n], found_group.anchor_params[n]) for n in ns
    )
    sigma = next(maps)
    if any(tau != sigma for tau in maps):
        return None
    mapped = transform(found_group.profile, sigma)
    if mapped.entries.keys() != truth_group.profile.entries.keys():
        return None
    deviation = max(
        abs(amp - truth_group.profile.entries[index]) for index, amp in mapped.entries.items()
    )
    return sigma, deviation


def align_frames(found: Decomposition, truth: Decomposition) -> AlignmentReport:
    """Match extracted groups to planted ones up to a single frame map each.

    A truth group matches a found group when the anchors' relative map is
    one constant map at every retained index the two share and carries the
    found profile exactly onto the truth profile (index sets equal);
    amplitude differences are reported, not thresholded.  Matching is
    order-free and deterministic.  Decompositions that share no retained
    index are rejected.
    """
    if found.dim != truth.dim or found.p != truth.p:
        raise ValueError("decompositions must share dimension and reference exponent")
    ns = sorted(set(found.retained) & set(truth.retained))
    if not ns:
        raise ValueError("decompositions share no retained index")
    matches: list[GroupMatch] = []
    used: set[int] = set()
    unmatched_truth: list[int] = []
    for ti, truth_group in enumerate(truth.groups):
        for fi, found_group in enumerate(found.groups):
            if fi not in used and (attempt := _try_match(found_group, truth_group, ns)):
                matches.append(GroupMatch(ti, fi, *attempt))
                used.add(fi)
                break
        else:
            unmatched_truth.append(ti)
    unmatched_found = [fi for fi in range(len(found.groups)) if fi not in used]
    return AlignmentReport(
        matches=tuple(matches),
        unmatched_truth=tuple(unmatched_truth),
        unmatched_found=tuple(unmatched_found),
        max_amplitude_deviation=max(
            (m.max_amplitude_deviation for m in matches), default=0.0
        ),
    )
