"""Canonical JSON serialization for fields, configs, decompositions, reports.

Output is byte-deterministic: keys are emitted sorted, containers compactly,
and every real number as a decimal with 17 significant digits, which
round-trips IEEE doubles exactly.  Infinite exponents are carried as the
strings "inf" / "-inf" since JSON numbers cannot express them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from json.encoder import encode_basestring as _encode_str
from typing import Any

from .dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex, _generator, _lowest
from .extract import (
    BesovInput,
    Decomposition,
    ExtractConfig,
    GroupMember,
    LpInput,
    ProfileGroup,
    VerificationReport,
)
from .field import CoeffField, order_key
from .synth import ParamLaw, PlantedProfile, SyntheticSpec


def _float_token(value: float) -> str:
    token = format(value, ".17g")
    if "." in token or "e" in token:
        return token
    if token.endswith("inf"):
        return '"' + token + '"'
    if token == "nan":
        raise ValueError("NaN is not serializable")
    return token + ".0"


def _emit(obj: Any) -> str:
    """``obj`` as canonical JSON, joining each container once.

    Strings are written by the encoder ``json.dumps(s, ensure_ascii=False)``
    applies.  Only an exact list or tuple is a JSON list: a tuple subclass,
    such as an index of :mod:`waveprof.dyadic`, raises ``TypeError`` like any
    other unknown type.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _float_token(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if type(obj) is list or type(obj) is tuple:
        return "[" + ",".join([_emit(v) for v in obj]) + "]"
    if isinstance(obj, Mapping):
        items = sorted(obj.items())
        return "{" + ",".join([_encode_str(str(k)) + ":" + _emit(v) for k, v in items]) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    return _emit(obj) + "\n"


def _as_float(value: Any, what: str = "value") -> float:
    """The one number parser: a JSON number, or a decimal or "inf" string."""
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("inf", "+inf", "infinity"):
            return math.inf
        if lowered in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(lowered)
        except ValueError:
            raise ValueError(f"{what} must be a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} lies outside the float range") from None


_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string"}
_REQUIRED = object()
_INT_ONLY = frozenset([int])  # holds the types of a shift's components when all are ints


def _check(value: Any, what: str, kind: type) -> Any:
    """``value`` as ``kind``: int (never bool), float, list, dict (a JSON object) or str."""
    if type(value) is kind:
        return value
    if kind is float:
        return _as_float(value, what)
    if kind is int or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_KINDS[kind]}")
    return value


def _get(obj: Mapping, key: str, what: str, kind: type, default: Any = _REQUIRED) -> Any:
    """The value under ``key`` of the object ``what``, checked by :func:`_check`.

    A missing key yields ``default``; without one the key is required.
    """
    value = obj.get(key, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ValueError(f"{what} lacks the required key {key!r}")
        return default
    if type(value) is kind:  # spares building the label on the common path
        return value
    return _check(value, f"{what} {key}", kind)


def _shift(obj: Mapping, key: str, dim: int, what: str) -> list[int]:
    """The integer shift list under ``key``, one component per axis, as read."""
    shift = _get(obj, key, what, list)
    if len(shift) != dim:
        raise ValueError(f"{what} {key} must be a list matching the dimension")
    if not all(type(c) is int for c in shift):
        raise ValueError(f"{what} {key} component must be an integer")
    return shift


# -- wavelet indices and coefficient fields ----------------------------------


def _index_obj(index: WaveletIndex, gen: str, scale: str, shift: str, **rest: Any) -> dict:
    """``index`` under the given generator, scale and shift key names, plus ``rest``."""
    return {
        gen: index.gen,
        scale: index.scale,
        shift: list(index.shift.numerators),
        "denom_exp": index.shift.denom_exp,
        **rest,
    }


def _entry_from_obj(
    obj: Any, dim: int, what: str = "entry", keys: tuple[str, ...] = ("i", "j", "k", "amp")
) -> tuple[WaveletIndex, float]:
    """The index and amplitude :func:`_index_obj` writes under ``keys``; the shift is read first.

    Each type is tested once; :func:`_shift` and :func:`_get` only name a value that fails.
    """
    obj = obj if type(obj) is dict else _check(obj, what, dict)
    gen, scale, shift, amp = keys
    nums, exp = obj.get(shift), obj.get("denom_exp", 0)
    if not (type(nums) is list and len(nums) == dim and type(exp) is int
            and _INT_ONLY.issuperset(map(type, nums))):
        nums, exp = _shift(obj, shift, dim, what), _get(obj, "denom_exp", what, int, 0)
    vec = DyadicRationalVec._make(_lowest(tuple(nums), exp))
    g, j, a = obj.get(gen), obj.get(scale), obj.get(amp)
    if type(g) is not int or type(j) is not int:
        g, j = _get(obj, gen, what, int), _get(obj, scale, what, int)
    index = WaveletIndex._make((_generator(g, dim), j, vec))
    return index, a if type(a) is float else _get(obj, amp, what, float)


def _entries_obj(field: CoeffField) -> list:
    return [
        _index_obj(index, "i", "j", "k", amp=field.entries[index])
        for index in sorted(field.entries, key=order_key(field))
    ]


def _entries_from_obj(obj: Mapping, key: str, dim: int, p: float) -> CoeffField:
    """The entry list under ``key``, absent meaning empty, as a field.

    Errors call it ``entries`` whatever its key: a group's ``profile`` is one.
    """
    entries = _check(obj.get(key, []), "entries", list)
    return CoeffField.from_items(dim, p, (_entry_from_obj(e, dim) for e in entries))


def field_to_obj(field: CoeffField) -> dict:
    return {"dimension": field.dim, "p": field.p, "entries": _entries_obj(field)}


def dumps_field(field: CoeffField) -> str:
    """``dumps_canonical(field_to_obj(field))``, written one formatted row per entry."""
    entries = field.entries
    rows = ",".join([
        '{"amp":%s,"denom_exp":%d,"i":%d,"j":%d,"k":[%s]}' % (
            _float_token(entries[index]),
            index.shift.denom_exp,
            index.gen,
            index.scale,
            ",".join(map(str, index.shift.numerators)),
        )
        for index in sorted(entries, key=order_key(field))
    ])
    return '{"dimension":%d,"entries":[%s],"p":%s}\n' % (field.dim, rows, _float_token(field.p))


def field_from_obj(obj: Any) -> CoeffField:
    obj = _check(obj, "field", dict)
    dim = _get(obj, "dimension", "field", int)
    return _entries_from_obj(obj, "entries", dim, _get(obj, "p", "field", float))


# -- extraction config -------------------------------------------------------


def config_to_obj(config: ExtractConfig) -> dict:
    space = config.input_space
    if isinstance(space, LpInput):
        space_obj: dict = {"kind": "lp", "p": space.p}
    else:
        space_obj = {"kind": "besov", "p": space.p, "a": space.a, "q": space.q}
    return {
        "max_iterations": config.max_iterations,
        "tail_window": config.tail_window,
        "conv_tol": config.conv_tol,
        "bound_threshold": config.bound_threshold,
        "stop_epsilon": config.stop_epsilon,
        "space": space_obj,
        "remainder": list(config.remainder_space),
    }


def config_from_obj(obj: Any) -> ExtractConfig:
    obj = _check(obj, "config", dict)
    space_obj = _get(obj, "space", "config", dict)
    kind = _get(space_obj, "kind", "space", str)
    p = _get(space_obj, "p", "space", float)
    if kind == "lp":
        space: LpInput | BesovInput = LpInput(p)
    elif kind == "besov":
        space = BesovInput(
            p, _get(space_obj, "a", "space", float), _get(space_obj, "q", "space", float)
        )
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    remainder = _get(obj, "remainder", "config", list)
    if len(remainder) != 2:
        raise ValueError("remainder must be a two-element list")
    return ExtractConfig(
        max_iterations=_get(obj, "max_iterations", "config", int),
        tail_window=_get(obj, "tail_window", "config", int),
        conv_tol=_get(obj, "conv_tol", "config", float),
        bound_threshold=_get(obj, "bound_threshold", "config", float),
        stop_epsilon=_get(obj, "stop_epsilon", "config", float),
        input_space=space,
        remainder_space=tuple(_as_float(q, "remainder exponent") for q in remainder),
    )


# -- decompositions and verification reports ---------------------------------


def _member_from_obj(obj: Any, dim: int) -> GroupMember:
    what = "group member"
    index, amplitude = _entry_from_obj(obj, dim, what, ("gen", "scale", "shift", "amplitude"))
    return GroupMember(index, amplitude, _get(obj, "rank", what, int))


def _group_obj(group: ProfileGroup) -> dict:
    anchor_rows = [
        [n, a.scale, list(a.shift.numerators)] for n, a in sorted(group.anchor_params.items())
    ]
    return {
        "anchor": anchor_rows,
        "members": [
            _index_obj(m.index, "gen", "scale", "shift", amplitude=m.amplitude, rank=m.rank)
            for m in group.members
        ],
        "profile": _entries_obj(group.profile),
    }


def _group_from_obj(obj: Any, dim: int, p: float) -> ProfileGroup:
    obj = _check(obj, "group", dict)
    anchors = {}
    for row in _get(obj, "anchor", "group", list, []):
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError("anchor rows must be [n, j, k]")
        row = dict(zip(("index", "scale", "shift"), row))
        anchor = DyadicAffine(
            _get(row, "scale", "anchor row", int),
            DyadicRationalVec(_shift(row, "shift", dim, "anchor row")),
        )
        n = _get(row, "index", "anchor row", int)
        if n in anchors:
            raise ValueError(f"group anchor rows repeat index {n}")
        anchors[n] = anchor
    members = tuple(_member_from_obj(m, dim) for m in _get(obj, "members", "group", list, []))
    return ProfileGroup(anchors, members, _entries_from_obj(obj, "profile", dim, p))


def decomposition_to_obj(dec: Decomposition) -> dict:
    obj = {
        "dimension": dec.dim,
        "p": dec.p,
        "count": len(dec.inputs),
        "retained": list(dec.retained),
        "diagnostics": list(dec.diagnostics),
        "groups": [_group_obj(g) for g in dec.groups],
    }
    if dec.input_norm_max is not None:
        obj["input_norm_max"] = dec.input_norm_max
    return obj


def decomposition_from_obj(obj: Any, inputs: Mapping[int, CoeffField]) -> Decomposition:
    what = "decomposition"
    obj = _check(obj, what, dict)
    dim = _get(obj, "dimension", what, int)
    p = _get(obj, "p", what, float)
    if len(inputs) != _get(obj, "count", what, int):
        raise ValueError("input count does not match the stored decomposition")
    retained = tuple(
        _check(n, "retained index", int) for n in _get(obj, "retained", what, list, [])
    )
    groups = tuple(_group_from_obj(g, dim, p) for g in _get(obj, "groups", what, list, []))
    for position, group in enumerate(groups):
        # Extraction builds a profile from its nonzero members, one entry each.
        members = [(m.index, m.amplitude) for m in group.members if m.amplitude != 0.0]
        if len(members) != len(group.profile) or dict(members) != group.profile.entries:
            raise ValueError(f"group {position} members do not match its profile")
    diagnostics = tuple(
        _check(d, "diagnostic", str) for d in _get(obj, "diagnostics", what, list, [])
    )
    norm_max = _get(obj, "input_norm_max", what, float, None)
    if norm_max is not None and not 0.0 <= norm_max < math.inf:
        raise ValueError(f"{what} input_norm_max must be finite and nonnegative, got {norm_max}")
    # The decomposition checks its own structure: dimensions, retained, anchors.
    return Decomposition(
        dim=dim,
        p=p,
        inputs=dict(inputs),
        groups=groups,
        retained=retained,
        diagnostics=diagnostics,
        input_norm_max=norm_max,
    )


def report_from_obj(
    obj: Any, inputs: Mapping[int, CoeffField]
) -> tuple[ExtractConfig, Decomposition]:
    """The config and decomposition of a stored report, over the corpus ``inputs``."""
    obj = _check(obj, "report", dict)
    config = config_from_obj(_get(obj, "config", "report", dict))
    return config, decomposition_from_obj(_get(obj, "decomposition", "report", dict), inputs)


def _report_obj(value: Any) -> Any:
    """A report value or a spec's law as JSON objects: a record becomes a dict, a tuple a list.

    A record is a named tuple, read through its ``_fields``.  Numbers and
    flags are taken as they are; nothing is copied.  The floats of the value
    tuples, the bulk of a report, skip the call.
    """
    if type(value) is tuple:
        return [v if type(v) is float else _report_obj(v) for v in value]
    if isinstance(value, tuple):
        return {
            ("pass" if name == "passes" else name): _report_obj(v)
            for name, v in zip(value._fields, value)
        }
    return value


def verification_to_obj(report: VerificationReport) -> dict:
    """The report's fields as nested objects; ``passes`` flags are emitted as ``pass``."""
    return _report_obj(report)


def report_to_obj(
    config: ExtractConfig, dec: Decomposition, verification: VerificationReport
) -> dict:
    return {
        "config": config_to_obj(config),
        "decomposition": decomposition_to_obj(dec),
        "verification": verification_to_obj(verification),
    }


# -- synthetic specs ---------------------------------------------------------


def _law_from_obj(obj: Mapping) -> ParamLaw:
    return ParamLaw(
        kind=_get(obj, "kind", "law", str),
        j0=_get(obj, "j0", "law", int, 0),
        k0=tuple(_check(c, "law k0 component", int) for c in _get(obj, "k0", "law", list)),
        velocity=tuple(
            _check(c, "law velocity component", int) for c in _get(obj, "velocity", "law", list, [])
        ),
        scale_step=_get(obj, "scale_step", "law", int, 0),
    )


def synthetic_spec_to_obj(spec: SyntheticSpec) -> dict:
    obj = {
        "dimension": spec.dim,
        "p": spec.p,
        "n_count": spec.n_count,
        "seed": spec.seed,
        "profiles": [
            {
                "entries": _entries_obj(planted.field),
                "law": _report_obj(planted.law),
            }
            for planted in spec.profiles
        ],
    }
    if spec.noise_count:
        obj["noise"] = {"amp": spec.noise_amp, "count": spec.noise_count}
    return obj


def synthetic_spec_from_obj(obj: Any) -> SyntheticSpec:
    obj = _check(obj, "spec", dict)
    dim = _get(obj, "dimension", "spec", int)
    p = _get(obj, "p", "spec", float)
    profiles = []
    for raw in _get(obj, "profiles", "spec", list):
        raw = _check(raw, "spec profile", dict)
        field = _entries_from_obj(raw, "entries", dim, p)
        law = _law_from_obj(_get(raw, "law", "spec profile", dict))
        profiles.append(PlantedProfile(field, law))
    noise = _get(obj, "noise", "spec", dict, {})
    return SyntheticSpec(
        dim=dim,
        p=p,
        profiles=tuple(profiles),
        n_count=_get(obj, "n_count", "spec", int),
        seed=_get(obj, "seed", "spec", int),
        noise_amp=_get(noise, "amp", "noise", float, 0.0),
        noise_count=_get(noise, "count", "noise", int, 0),
    )
