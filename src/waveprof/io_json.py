"""Canonical JSON serialization for fields, configs, decompositions, reports.

Output is byte-deterministic: keys are emitted sorted, containers compactly,
and every real number as a decimal with 17 significant digits, which
round-trips IEEE doubles exactly.  Infinite exponents are carried as the
strings "inf" / "-inf" since JSON numbers cannot express them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping

from .dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex
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
    if math.isnan(value):
        raise ValueError("NaN is not serializable")
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    token = format(value, ".17g")
    if "e" not in token and "E" not in token and "." not in token:
        token += ".0"
    return token


def _emit(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_token(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, Mapping):
        parts = (
            json.dumps(str(k), ensure_ascii=False) + ":" + _emit(v)
            for k, v in sorted(obj.items())
        )
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    return _emit(obj) + "\n"


def _as_float(value: Any, what: str = "value") -> float:
    if isinstance(value, bool) or value is None:
        raise ValueError(f"{what} must be a number")
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
    return float(value)


def _as_int(value: Any, what: str = "value") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")
    return value


def _as_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _as_object(value: Any, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be an object")
    return value


def _required(obj: Mapping, key: str, what: str) -> Any:
    if key not in obj:
        raise ValueError(f"{what} lacks the required key {key!r}")
    return obj[key]


# -- coefficient fields ------------------------------------------------------


def _entry_obj(index: WaveletIndex, amp: float) -> dict:
    return {
        "i": index.gen,
        "j": index.scale,
        "k": list(index.shift.numerators),
        "denom_exp": index.shift.denom_exp,
        "amp": amp,
    }


def _entry_from_obj(obj: Any, dim: int) -> tuple[WaveletIndex, float]:
    obj = _as_object(obj, "entry")
    k = obj.get("k")
    if not isinstance(k, list) or len(k) != dim:
        raise ValueError("entry shift must be a list matching the dimension")
    shift = DyadicRationalVec(
        tuple(_as_int(c, "shift component") for c in k),
        _as_int(obj.get("denom_exp", 0), "denom_exp"),
    )
    index = WaveletIndex(
        _as_int(_required(obj, "i", "entry"), "generator"),
        _as_int(_required(obj, "j", "entry"), "scale"),
        shift,
    )
    return index, _as_float(_required(obj, "amp", "entry"), "amplitude")


def _entries_obj(field: CoeffField) -> list:
    ordered = sorted(field.entries.items(), key=lambda kv: order_key(kv[0]))
    return [_entry_obj(index, amp) for index, amp in ordered]


def _entries_from_obj(entries: Any, dim: int, p: float) -> CoeffField:
    items = [_entry_from_obj(e, dim) for e in _as_list(entries, "entries")]
    return CoeffField.from_items(dim, p, items)


def field_to_obj(field: CoeffField) -> dict:
    return {"dimension": field.dim, "p": field.p, "entries": _entries_obj(field)}


def field_from_obj(obj: Any) -> CoeffField:
    obj = _as_object(obj, "field")
    dim = _as_int(_required(obj, "dimension", "field"), "dimension")
    p = _as_float(_required(obj, "p", "field"), "p")
    return _entries_from_obj(obj.get("entries", []), dim, p)


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
    obj = _as_object(obj, "config")
    space_obj = obj.get("space")
    if not isinstance(space_obj, Mapping):
        raise ValueError("config requires a space object")
    kind = space_obj.get("kind")
    p = _as_float(_required(space_obj, "p", "space"), "p")
    if kind == "lp":
        space: LpInput | BesovInput = LpInput(p)
    elif kind == "besov":
        space = BesovInput(
            p,
            _as_float(_required(space_obj, "a", "space"), "a"),
            _as_float(_required(space_obj, "q", "space"), "q"),
        )
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    remainder = obj.get("remainder")
    if not isinstance(remainder, list) or len(remainder) != 2:
        raise ValueError("remainder must be a two-element list")
    return ExtractConfig(
        max_iterations=_as_int(_required(obj, "max_iterations", "config"), "max_iterations"),
        tail_window=_as_int(_required(obj, "tail_window", "config"), "tail_window"),
        conv_tol=_as_float(_required(obj, "conv_tol", "config"), "conv_tol"),
        bound_threshold=_as_float(
            _required(obj, "bound_threshold", "config"), "bound_threshold"
        ),
        stop_epsilon=_as_float(_required(obj, "stop_epsilon", "config"), "stop_epsilon"),
        input_space=space,
        remainder_space=(
            _as_float(remainder[0], "remainder exponent"),
            _as_float(remainder[1], "remainder exponent"),
        ),
    )


# -- decompositions and verification reports ---------------------------------


def _member_obj(member: GroupMember) -> dict:
    return {
        "gen": member.gen,
        "scale": member.rel_map.scale,
        "shift": list(member.rel_map.shift.numerators),
        "denom_exp": member.rel_map.shift.denom_exp,
        "amplitude": member.amplitude,
        "rank": member.rank,
    }


def _member_from_obj(obj: Any, dim: int) -> GroupMember:
    obj = _as_object(obj, "group member")
    shift = obj.get("shift")
    if not isinstance(shift, list) or len(shift) != dim:
        raise ValueError("member shift must match the dimension")
    rel = DyadicAffine(
        _as_int(_required(obj, "scale", "group member"), "scale"),
        DyadicRationalVec(
            tuple(_as_int(c, "shift component") for c in shift),
            _as_int(obj.get("denom_exp", 0), "denom_exp"),
        ),
    )
    return GroupMember(
        gen=_as_int(_required(obj, "gen", "group member"), "generator"),
        rel_map=rel,
        amplitude=_as_float(_required(obj, "amplitude", "group member"), "amplitude"),
        rank=_as_int(_required(obj, "rank", "group member"), "rank"),
    )


def _group_obj(group: ProfileGroup) -> dict:
    anchor_rows = [
        [n, j, list(k)] for n, (j, k) in sorted(group.anchor_params.items())
    ]
    return {
        "anchor": anchor_rows,
        "members": [_member_obj(m) for m in group.members],
        "profile": _entries_obj(group.profile),
    }


def _group_from_obj(obj: Any, dim: int, p: float) -> ProfileGroup:
    obj = _as_object(obj, "group")
    anchors = {}
    for row in _as_list(obj.get("anchor", []), "group anchor"):
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError("anchor rows must be [n, j, k]")
        n, j, k = row
        if not isinstance(k, list) or len(k) != dim:
            raise ValueError("anchor row shift must be a list matching the dimension")
        anchors[_as_int(n, "index")] = (
            _as_int(j, "scale"),
            tuple(_as_int(c, "shift component") for c in k),
        )
    members = tuple(
        _member_from_obj(m, dim) for m in _as_list(obj.get("members", []), "group members")
    )
    return ProfileGroup(anchors, members, _entries_from_obj(obj.get("profile", []), dim, p))


def decomposition_to_obj(dec: Decomposition) -> dict:
    return {
        "dimension": dec.dim,
        "p": dec.p,
        "count": len(dec.inputs),
        "retained": list(dec.retained),
        "diagnostics": list(dec.diagnostics),
        "input_norm_max": dec.input_norm_max,
        "groups": [_group_obj(g) for g in dec.groups],
    }


def decomposition_from_obj(obj: Any, inputs: Mapping[int, CoeffField]) -> Decomposition:
    obj = _as_object(obj, "decomposition")
    dim = _as_int(_required(obj, "dimension", "decomposition"), "dimension")
    p = _as_float(_required(obj, "p", "decomposition"), "p")
    if len(inputs) != _as_int(_required(obj, "count", "decomposition"), "count"):
        raise ValueError("input count does not match the stored decomposition")
    for field in inputs.values():
        if field.dim != dim or field.p != p:
            raise ValueError("inputs do not match the stored decomposition")
    retained = tuple(
        _as_int(n, "retained index") for n in _as_list(obj.get("retained", []), "retained")
    )
    groups = tuple(_group_from_obj(g, dim, p) for g in _as_list(obj.get("groups", []), "groups"))
    for position, group in enumerate(groups):
        if any(n not in group.anchor_params for n in retained):
            raise ValueError(f"group {position} lacks anchor rows for retained indices")
    return Decomposition(
        dim=dim,
        p=p,
        inputs=dict(inputs),
        groups=groups,
        retained=retained,
        diagnostics=tuple(str(d) for d in _as_list(obj.get("diagnostics", []), "diagnostics")),
        input_norm_max=_as_float(
            _required(obj, "input_norm_max", "decomposition"), "input_norm_max"
        ),
    )


def _report_dict(pairs: list[tuple[str, Any]]) -> dict:
    return {("pass" if key == "passes" else key): value for key, value in pairs}


def verification_to_obj(report: VerificationReport) -> dict:
    """The report's fields as nested objects; ``passes`` flags are emitted as ``pass``."""
    return dataclasses.asdict(report, dict_factory=_report_dict)


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
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ValueError("law kind must be a string")
    k0 = obj.get("k0")
    if not isinstance(k0, list):
        raise ValueError("law k0 must be a list")
    velocity = _as_list(obj.get("velocity", [0] * len(k0)), "law velocity")
    return ParamLaw(
        kind=kind,
        j0=_as_int(obj.get("j0", 0), "j0"),
        k0=tuple(_as_int(c, "k0 component") for c in k0),
        velocity=tuple(_as_int(c, "velocity component") for c in velocity),
        scale_step=_as_int(obj.get("scale_step", 0), "scale_step"),
    )


def _law_to_obj(law: ParamLaw) -> dict:
    return {
        "kind": law.kind,
        "j0": law.j0,
        "k0": list(law.k0),
        "velocity": list(law.velocity),
        "scale_step": law.scale_step,
    }


def synthetic_spec_to_obj(spec: SyntheticSpec) -> dict:
    obj = {
        "dimension": spec.dim,
        "p": spec.p,
        "n_count": spec.n_count,
        "seed": spec.seed,
        "profiles": [
            {
                "entries": _entries_obj(planted.field),
                "law": _law_to_obj(planted.law),
            }
            for planted in spec.profiles
        ],
    }
    if spec.noise_count:
        obj["noise"] = {"amp": spec.noise_amp, "count": spec.noise_count}
    return obj


def synthetic_spec_from_obj(obj: Any) -> SyntheticSpec:
    obj = _as_object(obj, "spec")
    dim = _as_int(_required(obj, "dimension", "spec"), "dimension")
    p = _as_float(_required(obj, "p", "spec"), "p")
    profiles = []
    raw_profiles = obj.get("profiles")
    if not isinstance(raw_profiles, list) or not raw_profiles:
        raise ValueError("spec requires a nonempty profile list")
    for raw in raw_profiles:
        raw = _as_object(raw, "spec profile")
        field = _entries_from_obj(raw.get("entries", []), dim, p)
        law_obj = raw.get("law")
        if not isinstance(law_obj, Mapping):
            raise ValueError("each profile requires a law object")
        profiles.append(PlantedProfile(field, _law_from_obj(law_obj)))
    noise = _as_object(obj.get("noise") or {}, "noise")
    return SyntheticSpec(
        dim=dim,
        p=p,
        profiles=tuple(profiles),
        n_count=_as_int(_required(obj, "n_count", "spec"), "n_count"),
        seed=_as_int(_required(obj, "seed", "spec"), "seed"),
        noise_amp=_as_float(noise.get("amp", 0.0), "noise amp"),
        noise_count=_as_int(noise.get("count", 0), "noise count"),
    )
