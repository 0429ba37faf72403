"""Profile extraction for sequences of lattice coefficient fields.

The extractor repeatedly removes, for every retained sequence index, the
largest remaining coefficient, then sorts the removed components into groups
whose scale/translation parameters either stay at a fixed relative position
(same group) or separate (new group).  Limits over the sequence are replaced
by auditable finite-tail decisions: means and exact-constancy checks over a
configurable tail window, with every discarded index and every ambiguous
decision recorded as a diagnostic.

All index bookkeeping is exact, so grouping decisions are equality tests, not
tolerance tests.  Sequence indices n are 1-based labels; group positions are
0-based list positions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .dyadic import (
    DyadicAffine,
    DyadicRationalVec,
    WaveletIndex,
    magnitude,
    orthogonality_gap,
    relative_map,
)
from .field import CoeffField, combine, rank, transform
from .norms import (
    BesovParams, _besov_update, _cross_table, _lp_of, besov_norm, cross_square_pair, lp_norm
)

STABILITY_TOL = 1e-9


class LpInput(NamedTuple):
    """Inputs measured in the Lebesgue-equivalent norm with exponent p."""

    p: float


class BesovInput(NamedTuple):
    """Inputs measured in the scale-invariant Besov norm with exponents (a, q)."""

    p: float
    a: float
    q: float


InputSpace = LpInput | BesovInput


class ExtractConfig(namedtuple("ExtractConfig", "max_iterations tail_window conv_tol"
                               " bound_threshold stop_epsilon input_space remainder_space")):
    """Extraction thresholds and the input/remainder measurement spaces.

    ``remainder_space`` is (r, q) in Lebesgue mode and (b, r) in Besov mode;
    in Besov mode the remainder exponents must satisfy b > a, r >= q and
    r >= (b/a) * q.
    """

    __slots__ = ()
    # ``_replace`` builds its copy through ``_make``, so a copy is checked too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, max_iterations: int, tail_window: int, conv_tol: float, bound_threshold: float,
        stop_epsilon: float, input_space: InputSpace, remainder_space: tuple[float, float],
    ) -> ExtractConfig:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if tail_window < 2:
            raise ValueError("tail_window must be at least 2")
        if not (conv_tol > 0.0 and bound_threshold > 0.0 and stop_epsilon > 0.0):
            raise ValueError("tolerances must be positive")
        space = input_space
        first, second = (float(x) for x in remainder_space)
        if isinstance(space, LpInput):
            if not (2.0 <= space.p < math.inf):
                raise ValueError("input exponent p must satisfy 2 <= p < infinity")
            if not (space.p < first and space.p < second):
                raise ValueError("remainder exponents must both exceed p")
        else:
            if not (space.a >= 1.0 and space.q >= 1.0):
                raise ValueError("input exponents must be at least 1")
            b, r = first, second
            if not b > space.a:
                raise ValueError("remainder inner exponent must exceed the input one")
            if not (r >= space.q and r >= (b / space.a) * space.q):
                raise ValueError("remainder outer exponent must satisfy r >= (b/a) * q")
        checked = (max_iterations, tail_window, conv_tol, bound_threshold, stop_epsilon)
        return tuple.__new__(cls, (*checked, space, (first, second)))


def input_space_norm(field: CoeffField, space: InputSpace) -> float:
    if isinstance(space, LpInput):
        return lp_norm(field)
    return besov_norm(field, BesovParams.critical(field.dim, space.p, space.a, space.q))


def remainder_space_norm(field: CoeffField, config: ExtractConfig) -> float:
    inner, outer = config.remainder_space
    return besov_norm(field, BesovParams.critical(field.dim, config.input_space.p, inner, outer))


class GroupMember(NamedTuple):
    """One extracted component of a profile.

    ``index`` is the component's wavelet index in the anchor frame: its scale
    and shift are the constant relative map from the anchor, so the anchor
    member itself sits at scale 0 and shift 0; ``rank`` is the global
    extraction rank (1-based, unique across all groups).
    """

    index: WaveletIndex
    amplitude: float
    rank: int


@dataclass(frozen=True)
class ProfileGroup:
    """A profile with its per-index anchor frames and member components."""

    anchor_params: Mapping[int, DyadicAffine]
    members: tuple[GroupMember, ...]
    profile: CoeffField

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor_params", MappingProxyType(dict(self.anchor_params)))


@dataclass(frozen=True)
class Decomposition:
    """Extraction result: groups, surviving indices, and audit trail.

    Remainders are not materialized; they are reconstructed on demand through
    :func:`remainder`, which makes the reconstruction identity hold by
    construction for every retained index and level.  ``input_norm_max`` is
    the largest input-space norm of the inputs when extraction produced the
    decomposition, and ``None`` for a planted one from :func:`~waveprof.synth.generate`.
    ``input_norms`` is the space extraction measured the inputs in and their
    norms by sequence index, which :func:`verify` reuses in that space.  Only
    :func:`extract_profiles` sets it: it is not an ``__init__`` argument, so a
    decomposition built by hand, loaded from a report or made with
    :func:`dataclasses.replace` has ``None`` and is measured afresh.

    Construction checks the structure, whoever builds the decomposition:
    inputs and profiles share ``dim`` and ``p``, ``retained`` lists input
    indices in strictly increasing order, and every group has an anchor at
    every retained index, each with an integral shift.
    """

    dim: int
    p: float
    inputs: Mapping[int, CoeffField]
    groups: tuple[ProfileGroup, ...]
    retained: tuple[int, ...]
    diagnostics: tuple[str, ...]
    input_norm_max: float | None = None
    input_norms: tuple[InputSpace, Mapping[int, float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))
        if any(f.dim != self.dim or f.p != self.p for f in self.inputs.values()):
            raise ValueError("inputs do not match the stored decomposition")
        if list(self.retained) != sorted(set(self.retained) & self.inputs.keys()):
            raise ValueError("decomposition retained must list strictly increasing corpus indices")
        for position, group in enumerate(self.groups):
            if group.profile.dim != self.dim or group.profile.p != self.p:
                raise ValueError(f"group {position} profile does not match the decomposition")
            if any(n not in group.anchor_params for n in self.retained):
                raise ValueError(f"group {position} lacks anchor rows for retained indices")
            if any(a.shift.denom_exp for a in group.anchor_params.values()):
                raise ValueError(f"group {position} has an anchor off the integer lattice")

    def require_retained(self, n: int) -> None:
        if n not in self.retained:
            raise ValueError(f"sequence index {n} is not retained")


def extract_profiles(sequence: Sequence[CoeffField], config: ExtractConfig) -> Decomposition:
    """Run the iteration until the residual tail is small or the budget is spent.

    Each iterate: test the stopping rule on the tail window; take the
    top-ranked residual coefficient of every retained index; restrict
    retention to the modal generator over the tail; average the tail
    amplitudes into a limit amplitude (spread above conv_tol is flagged, not
    fatal); attach to the first group whose relative parameters are exactly
    constant on the tail and small in magnitude, treating nondecreasing or
    large parameter gaps as separation; otherwise open a new group, with a
    diagnostic when the gap behaviour was ambiguous.  Finally remove the
    extracted component from each residual.

    Residuals are never built as fields.  Every input is ranked once; a
    residual only ever loses its top-ranked entry, and the ranking key
    totally orders distinct indices, so after ``t`` completed iterates the
    residual of a retained index is the suffix of its input's ranking past
    position ``t``.
    """
    fields = list(sequence)
    if not fields:
        raise ValueError("empty sequence")
    dim, p = fields[0].dim, fields[0].p
    for f in fields:
        if f.dim != dim or f.p != p:
            raise ValueError("sequence mixes dimensions or reference exponents")
        if not f.is_lattice:
            raise ValueError("inputs must carry integral shifts")
    if config.input_space.p != p:
        raise ValueError("config reference exponent does not match the inputs")
    if config.tail_window > len(fields):
        raise ValueError("tail window exceeds the sequence length")

    inputs = {n: f for n, f in enumerate(fields, start=1)}
    input_norms = {n: input_space_norm(f, config.input_space) for n, f in inputs.items()}
    input_norm_max = max(input_norms.values())
    retained = sorted(inputs)
    ranked = {n: rank(f) for n, f in inputs.items()}
    groups: list[tuple[dict[int, DyadicAffine], list[GroupMember]]] = []  # anchors, members
    diagnostics: list[str] = []
    window = config.tail_window

    def narrow(keep: list[int], note: str) -> bool:
        """Retain ``keep``, noting what it drops; True when fewer than a tail window remain."""
        nonlocal retained
        if len(keep) < len(retained):
            diagnostics.append(f"iterate {next_rank}: {note.format(len(retained) - len(keep))}")
            retained = keep
            if len(keep) < window:
                diagnostics.append(f"iterate {next_rank}: retained set shrank below the tail window")
                return True
        return False

    next_rank = 1
    while next_rank <= config.max_iterations:
        # Each completed iterate removed one entry from every retained residual.
        depth = next_rank - 1
        tail = retained[-window:]
        tail_sup = max(
            abs(ranked[n][depth][1]) if depth < len(ranked[n]) else 0.0 for n in tail
        )
        if tail_sup <= config.stop_epsilon:
            break
        live = [n for n in retained if depth < len(ranked[n])]
        if live != retained:
            if narrow(live, "dropped {} exhausted residuals"):
                break
            continue

        tops = {n: ranked[n][depth] for n in retained}
        tail_gens = [tops[n][0].gen for n in tail]
        modal_gen = max(set(tail_gens), key=lambda g: (tail_gens.count(g), -g))
        modal = [n for n in retained if tops[n][0].gen == modal_gen]
        if narrow(modal, "generator restriction dropped {} indices"):
            break
        tail = retained[-window:]

        tail_amps = [tops[n][1] for n in tail]
        spread = max(tail_amps) - min(tail_amps)
        limit_amp = tail_amps[0] if spread == 0.0 else math.fsum(tail_amps) / len(tail_amps)
        if spread > config.conv_tol:
            diagnostics.append(
                f"iterate {next_rank}: tail amplitude spread {spread:.6e} exceeds conv_tol"
            )

        ambiguous = False
        for anchors, members in groups:
            tail_rel = [relative_map(anchors[n], tops[n][0]) for n in tail]
            constant = tail_rel[0]
            if all(r == constant for r in tail_rel) and magnitude(constant) <= config.bound_threshold:
                # ``tail`` is the suffix of ``retained`` and all its maps equal
                # ``constant``; the other maps are needed only now that the
                # group attaches.  Keeping the tail keeps a full window.
                narrow(
                    [
                        n for n in retained[:-window]
                        if relative_map(anchors[n], tops[n][0]) == constant
                    ] + tail,
                    "relative-map constancy dropped {} indices",
                )
                index = WaveletIndex._make((modal_gen, constant.scale, constant.shift))
                members.append(GroupMember(index, limit_amp, next_rank))
                break
            gaps = [magnitude(r) for r in tail_rel]
            separated = (
                all(gaps[i] <= gaps[i + 1] for i in range(len(gaps) - 1))
                or min(gaps) > config.bound_threshold
            )
            if not separated:
                ambiguous = True
        else:
            origin = WaveletIndex._make((modal_gen, 0, DyadicRationalVec.zero(dim)))
            anchors = {n: DyadicAffine(tops[n][0].scale, tops[n][0].shift) for n in retained}
            groups.append((anchors, [GroupMember(origin, limit_amp, next_rank)]))
            if ambiguous:
                diagnostics.append(
                    f"iterate {next_rank}: ambiguous relative parameters, "
                    f"opened group {len(groups) - 1}"
                )

        next_rank += 1

    final_groups: list[ProfileGroup] = []
    for position, (anchors, members) in enumerate(groups):
        entries: dict[WaveletIndex, float] = {}
        for member in members:
            if member.amplitude == 0.0:
                diagnostics.append(
                    f"group {position}: zero limit amplitude at rank {member.rank}, "
                    "omitted from the profile"
                )
                continue
            if member.index in entries:
                raise RuntimeError("distinct members collided on one profile index")
            entries[member.index] = member.amplitude
        kept = {n: anchors[n] for n in retained}
        final_groups.append(ProfileGroup(kept, tuple(members), CoeffField(dim, p, entries)))

    dec = Decomposition(
        dim=dim,
        p=p,
        inputs=inputs,
        groups=tuple(final_groups),
        retained=tuple(retained),
        diagnostics=tuple(diagnostics),
        input_norm_max=input_norm_max,
    )
    object.__setattr__(dec, "input_norms", (config.input_space, MappingProxyType(input_norms)))
    return dec


def reconstruct(dec: Decomposition, level: int, n: int) -> CoeffField:
    """Sum of the first ``level`` transformed profiles at sequence index ``n``.

    The profiles are added in group order with :func:`combine`.  This is the
    reference summation: :func:`verify` follows it entry by entry, so a
    perfect recovery cancels a generated input bit for bit.
    """
    if not 0 <= level <= len(dec.groups):
        raise ValueError(f"level {level} out of range")
    dec.require_retained(n)
    acc = CoeffField.empty(dec.dim, dec.p)
    for g in dec.groups[:level]:
        acc = combine(acc, transform(g.profile, g.anchor_params[n]))
    return acc


def remainder(dec: Decomposition, level: int, n: int) -> CoeffField:
    """Input minus reconstruction, coefficient-wise."""
    recon = reconstruct(dec, level, n)
    return combine(dec.inputs[n], recon, 1.0, -1.0)


def cross_interaction(dec: Decomposition, first: int, second: int, n: int) -> float:
    """Square-function interaction of two transformed profiles at index ``n``.

    Integrates S_first * S_second**(p/2 - 1) exactly over the shared cube
    arrangement.  Zero whenever the supports are disjoint; returns 0.0 at
    p == 2 by convention, where the cross terms are vacuous.
    """
    if first == second:
        raise ValueError("group positions must differ")
    if not (0 <= first < len(dec.groups) and 0 <= second < len(dec.groups)):
        raise ValueError("group position out of range")
    dec.require_retained(n)
    if dec.p == 2.0:
        return 0.0
    f = transform(dec.groups[first].profile, dec.groups[first].anchor_params[n])
    g = transform(dec.groups[second].profile, dec.groups[second].anchor_params[n])
    return cross_square_pair(f, g)[0]


class GapReport(NamedTuple):
    first: int
    second: int
    values: tuple[float, ...]
    nondecreasing_tail: bool
    final: float
    passes: bool


class RemainderReport(NamedTuple):
    level: int
    norms: tuple[float, ...]
    tail_max: float


class StabilityReport(NamedTuple):
    aggregation: float
    lhs: float
    rhs: float
    tolerance: float
    passes: bool


class CrossReport(NamedTuple):
    first: int
    second: int
    values: tuple[float, ...]


class VerificationReport(NamedTuple):
    """Orthogonality, smallness and stability measurements of a decomposition.

    All sequences run over the retained indices in order; remainder levels run
    from 0 to the group count.  The report is a pure function of the
    decomposition and configuration, so reruns are bit-identical.
    """

    retained: tuple[int, ...]
    input_norms: tuple[float, ...]
    profile_norms: tuple[float, ...]
    gaps: tuple[GapReport, ...]
    remainders: tuple[RemainderReport, ...]
    remainder_tail_nonincreasing: bool
    stability: StabilityReport
    margins: tuple[float, ...]
    margin_max: float
    cross: tuple[CrossReport, ...]


def verify(dec: Decomposition, config: ExtractConfig) -> VerificationReport:
    """Measure the decomposition; failures become report flags, never errors.

    Pairwise anchor gaps pass when nondecreasing on the tail window with final
    value at least bound_threshold.  Remainder norms (input minus the
    :func:`reconstruct` sum at each level) are tabulated in the remainder space
    per level with tail maxima.  Stability compares the
    aggregated profile norms against the tail minimum of the input norms:
    p-th-power sums in Lebesgue mode, an l^tau norm with tau = max(a, q) in
    Besov mode.  Margins report by how much remainder input-space norms exceed
    the input norms on the tail.  Cross tables hold :func:`cross_interaction`
    for every ordered pair of distinct groups, computed with one integral per
    unordered pair whose bounding boxes overlap.
    """
    ns = list(dec.retained)
    window = min(config.tail_window, len(ns))
    tail_start = len(ns) - window
    space = config.input_space

    known = dec.input_norms
    if known is not None and known[0] == space:
        input_norms = tuple(known[1][n] for n in ns)
    else:
        input_norms = tuple(input_space_norm(dec.inputs[n], space) for n in ns)
    tail_input_min = min(input_norms[tail_start:]) if ns else 0.0
    profile_norms = tuple(input_space_norm(g.profile, space) for g in dec.groups)

    gap_reports: list[GapReport] = []
    for i in range(len(dec.groups)):
        for k in range(i + 1, len(dec.groups)):
            values = tuple(
                orthogonality_gap(dec.groups[i].anchor_params[n], dec.groups[k].anchor_params[n])
                for n in ns
            )
            tail_vals = values[tail_start:]
            nondec = all(tail_vals[t] <= tail_vals[t + 1] for t in range(len(tail_vals) - 1))
            final = tail_vals[-1] if tail_vals else 0.0
            gap_reports.append(
                GapReport(i, k, values, nondec, final, nondec and final >= config.bound_threshold)
            )

    # Each profile is transformed once per index; the placed profiles feed
    # both the remainders and the cross table, which builds each placed
    # profile's boxes once and takes both orders of a pair from one integral.
    groups = len(dec.groups)
    levels = range(groups + 1)
    rem_norms: list[list[float]] = [[] for _ in levels]
    excess: list[list[float]] = [[] for _ in levels]
    table = [[[0.0] * len(ns) for _ in range(groups)] for _ in range(groups)]
    rem_params = BesovParams.critical(dec.dim, space.p, *config.remainder_space)
    for pos, n in enumerate(ns):
        placed = [transform(g.profile, g.anchor_params[n]) for g in dec.groups]
        source = dec.inputs[n].entries
        # From one level to the next the partial sum and the remainder change
        # only on the support of the profile added, so only those entries are
        # recomputed, with the float operations of :func:`remainder`: the
        # input minus the :func:`reconstruct` sum, exact zeros dropped.  A
        # zero kept in ``partial`` adds exactly like an absent entry.  The
        # remainder is kept by scale, and only touched scales' terms are redone.
        partial: dict[WaveletIndex, float] = {}
        rem: dict[int, dict[WaveletIndex, float]] = {}
        for index, amp in source.items():
            rem.setdefault(index.scale, {})[index] = amp
        terms: dict[int, float] = {}
        changed = {j: part.values() for j, part in rem.items()}
        for level in levels:
            if level:
                changed = {}
                for index, amp in placed[level - 1].entries.items():
                    total = partial.get(index, 0.0) + amp
                    partial[index] = total
                    value = source.get(index, 0.0) - total
                    if not math.isfinite(value):
                        raise ValueError("amplitudes must be finite")
                    part = rem.setdefault(index.scale, {})
                    changed[index.scale] = part.values()
                    if value != 0.0:
                        part[index] = value
                    else:
                        part.pop(index, None)
            rem_norms[level].append(_besov_update(terms, changed, dec.dim, dec.p, rem_params))
            # At level 0 the remainder is the input: its excess is 0.0, unmeasured.
            if level and pos >= tail_start:
                whole = {index: v for part in rem.values() for index, v in part.items()}
                current = CoeffField._unchecked(dec.dim, dec.p, whole)
                excess[level].append(input_space_norm(current, space) - input_norms[pos])
        if dec.p != 2.0:
            values = iter(_cross_table(placed))
            for i in range(groups):
                for k in range(i + 1, groups):
                    table[i][k][pos], table[k][i][pos] = next(values), next(values)
    remainder_reports = [
        RemainderReport(level, tuple(norms), max(norms[tail_start:], default=0.0))
        for level, norms in enumerate(rem_norms)
    ]
    margin_list = [max(values, default=0.0) for values in excess]
    tail_maxima = [r.tail_max for r in remainder_reports]
    nonincreasing = all(tail_maxima[i + 1] <= tail_maxima[i] for i in range(len(tail_maxima) - 1))

    if isinstance(space, LpInput):
        aggregation = space.p
        lhs = math.fsum(v**space.p for v in profile_norms)
        rhs = tail_input_min**space.p
    else:
        aggregation = max(space.a, space.q)
        lhs = _lp_of(profile_norms, aggregation)
        rhs = tail_input_min
    stability = StabilityReport(
        aggregation=aggregation,
        lhs=lhs,
        rhs=rhs,
        tolerance=STABILITY_TOL,
        passes=lhs <= rhs + STABILITY_TOL,
    )

    cross_reports = [
        CrossReport(i, k, tuple(table[i][k]))
        for i in range(groups)
        for k in range(groups)
        if i != k
    ]

    return VerificationReport(
        retained=tuple(ns),
        input_norms=input_norms,
        profile_norms=profile_norms,
        gaps=tuple(gap_reports),
        remainders=tuple(remainder_reports),
        remainder_tail_nonincreasing=nonincreasing,
        stability=stability,
        margins=tuple(margin_list),
        margin_max=max(margin_list, default=0.0),
        cross=tuple(cross_reports),
    )
