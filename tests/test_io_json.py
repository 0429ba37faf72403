"""The canonical emitter matches its oracle; the loaders fail only with ValueError."""

from __future__ import annotations

import copy
import json
import math
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import emit_oracle, entry_oracle, verification_obj_oracle

from waveprof.dyadic import MAX_SHIFT, DyadicAffine, DyadicRationalVec, WaveletIndex
from waveprof.extract import extract_profiles, verify
from waveprof.field import CoeffField
from waveprof.io_json import (
    _entry_from_obj,
    _member_from_obj,
    config_from_obj,
    decomposition_from_obj,
    decomposition_to_obj,
    dumps_canonical,
    dumps_field,
    field_from_obj,
    field_to_obj,
    synthetic_spec_from_obj,
    verification_to_obj,
)
from waveprof.synth import generate

SPEC_OBJ = {
    "dimension": 1,
    "p": 4.0,
    "n_count": 3,
    "seed": 11,
    "profiles": [
        {
            "entries": [
                {"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": 1.0},
                {"i": 1, "j": 1, "k": [1], "denom_exp": 0, "amp": 0.25},
            ],
            "law": {"kind": "constant", "j0": 0, "k0": [0]},
        },
        {
            "entries": [{"i": 1, "j": 0, "k": [0], "denom_exp": 0, "amp": 0.5}],
            "law": {"kind": "translation", "j0": 0, "k0": [0], "velocity": [8]},
        },
    ],
    "noise": {"amp": 1e-4, "count": 2},
}

CONFIG_OBJ = {
    "max_iterations": 4,
    "tail_window": 2,
    "conv_tol": 1e-9,
    "bound_threshold": 6.0,
    "stop_epsilon": 1e-3,
    "space": {"kind": "besov", "p": 4.0, "a": 4.0, "q": "inf"},
    "remainder": [8.0, "inf"],
}

_FIELDS, _ = generate(synthetic_spec_from_obj(SPEC_OBJ))
_INPUTS = dict(enumerate(_FIELDS, start=1))
_DECOMPOSITION = extract_profiles(_FIELDS, config_from_obj(CONFIG_OBJ))

DOCUMENTS = {
    "field": (json.loads(dumps_canonical(field_to_obj(_FIELDS[0]))), field_from_obj),
    "config": (CONFIG_OBJ, config_from_obj),
    "decomposition": (
        json.loads(dumps_canonical(decomposition_to_obj(_DECOMPOSITION))),
        lambda obj: decomposition_from_obj(obj, _INPUTS),
    ),
    "spec": (SPEC_OBJ, synthetic_spec_from_obj),
}

DELETE = object()
REPLACEMENTS = [[1], {"a": 1}, "x", None, True, 10**400, "nan", DELETE]


def _paths(doc, prefix=()):
    """Every key of every object and every position of every list, as paths."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, replacement):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)
    return doc


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@given(data=st.data())
def test_one_bad_value_raises_only_value_error(name, data):
    doc, load = DOCUMENTS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    replacement = data.draw(st.sampled_from(REPLACEMENTS), label="replacement")
    try:
        load(_mutated(doc, path, replacement))
    except ValueError:
        pass


def _member_row(obj, dim):
    member = _member_from_obj(obj, dim)
    return member.index, member.amplitude


# A field entry and a group member row at dimension 2, each with the loader
# that reads it.  The entry's shift (6, -2) / 2 is read in lowest terms, (3, -1).
_ROWS = {
    "entry": (
        {"i": 3, "j": -1, "k": [6, -2], "denom_exp": 1, "amp": 0.5},
        ("i", "j", "k", "amp"),
        _entry_from_obj,
    ),
    "group member": (
        {"gen": 1, "scale": 2, "shift": [0, 5], "denom_exp": 0, "amplitude": -1.25, "rank": 2},
        ("gen", "scale", "shift", "amplitude"),
        _member_row,
    ),
}


def _row_replacements(keys):
    """Values that each key may take instead: wrong types, values out of range, valid ones."""
    gen, scale, shift, amp = keys
    return {
        shift: [[1], [1, 2, 3], [True, 0], [0.5, 0], [0, "0"], [4, 8], [], 3],
        "denom_exp": [-1, True, 0, 3, 2.0, DELETE],
        gen: [0, 4, -1, True, 2, "1", DELETE],
        scale: [1.5, 2.0, True, 7, DELETE],
        amp: ["0.5", 2, "inf", "x", True, None, 1.5, DELETE],
    }


def _read(load, obj):
    try:
        return repr(load(obj, 2))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("what", sorted(_ROWS))
@given(data=st.data())
def test_one_or_two_bad_row_values_read_as_the_oracle_reads_them(what, data):
    row, keys, load = _ROWS[what]
    row = dict(row)
    if data.draw(st.integers(0, 9), label="non-object") == 0:
        row = data.draw(st.sampled_from([[], 7, None, "entry", [row]]), label="row")
    else:
        choices = _row_replacements(keys)
        # Two values at once more often than one: their order of precedence is the harder part.
        count = data.draw(st.sampled_from([1, 2, 2]), label="count")
        for key in data.draw(st.permutations(sorted(choices)), label="keys")[:count]:
            value = data.draw(st.sampled_from(choices[key]), label=key)
            if value is DELETE:
                row.pop(key, None)
            else:
                row[key] = copy.deepcopy(value)
    oracle = lambda obj, dim: entry_oracle(obj, dim, what, keys)  # noqa: E731
    assert _read(load, row) == _read(oracle, row)


_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e17, 5e-324, -5e-324, math.inf, -math.inf, 2.0**53, 0.1]
)
# "\x7f" and "\u2028" are left unescaped, "\x00", "\n" and '"' are escaped.
_STR_KEYS = st.sampled_from(["", "a", "amp", "é", "\x00", "\n", '"', "\x7f", "\u2028"]) | st.text()
_LEAVES = st.integers() | st.booleans() | st.none() | _FLOATS | _STR_KEYS
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STR_KEYS, children, max_size=4),
        st.dictionaries(st.integers() | st.booleans(), children, max_size=4),
        st.dictionaries(_STR_KEYS, children, max_size=4).map(MappingProxyType),
    ),
    max_leaves=24,
)


class _Label(str):
    """A str key that prints as something else."""

    def __str__(self) -> str:
        return "label:" + self


def _outcome(emit, obj):
    """What ``emit`` makes of ``obj``: its text, or its exception's type and message."""
    try:
        return emit(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCanonicalEmitter:
    @given(_VALUES)
    def test_bytes_equal_the_oracle(self, obj):
        assert dumps_canonical(obj) == emit_oracle(obj) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            # Equal keys that print apart, in one document.
            [{1: 0}, {True: 0}, {1.0: 0}, {0.0: 0}, {-0.0: 0}, {"1": 0}],
            [{"x": 1}, {_Label("x"): 2}, {"x": 3}],
            # Subclasses and mappings other than dict.
            [_Label("s"), MappingProxyType({"b": (1, 2.5), "a": [None, False]})],
            {2: "two", 10: "ten", -1: "minus one"},
        ],
        ids=["equal-keys", "str-subclass-key", "subclasses", "int-keys-sort-as-ints"],
    )
    def test_examples_equal_the_oracle(self, obj):
        assert dumps_canonical(obj) == emit_oracle(obj) + "\n"

    @pytest.mark.parametrize(
        "obj, error",
        [
            (math.nan, ValueError),
            ({"a": [1.0, -math.nan]}, ValueError),
            (object(), TypeError),
            ({"a": (1, {2, 3})}, TypeError),
            (b"bytes", TypeError),
            ({1: 0, "a": 0}, TypeError),
        ],
        ids=["nan", "nested-nan", "object", "nested-set", "bytes", "mixed-key-types"],
    )
    def test_both_emitters_raise_alike(self, obj, error):
        with pytest.raises(error):
            dumps_canonical(obj)
        assert _outcome(dumps_canonical, obj) == _outcome(emit_oracle, obj)

    @pytest.mark.parametrize(
        "obj",
        [
            WaveletIndex(1, 0, DyadicRationalVec((3,))),
            DyadicAffine.identity(2),
            {"anchor": [DyadicRationalVec((1, 2), 1)]},
        ],
        ids=["index", "frame", "nested-vector"],
    )
    def test_value_types_are_not_lists(self, obj):
        # The dyadic value types are tuples; the loaders write them as rows
        # and objects of their own, so one reaching the emitter is an error.
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_canonical(obj)


# Integral amplitudes are written with ".0" appended (2**53 and 1e16 in all
# their digits), 1e17 and the extremes with an exponent.
_AMPLITUDES = st.sampled_from([1.0, -2.0, 2.0**53, 1e16, 1e17, 5e-324, 1e300, -1e300]) | (
    st.floats(allow_nan=False, allow_infinity=False).filter(bool)
)


@st.composite
def _writer_fields(draw):
    """Fields of dimension 1 to 3, with negative shifts and dyadic ones (``denom_exp > 0``)."""
    dim = draw(st.integers(1, 3), label="dim")
    index = st.builds(
        lambda gen, scale, nums, exp: WaveletIndex(gen, scale, DyadicRationalVec(nums, exp)),
        st.integers(1, (1 << dim) - 1),
        st.integers(-4, 4),
        st.tuples(*[st.integers(-40, 40)] * dim),
        st.integers(0, 5),
    )
    p = draw(st.sampled_from([2.0, 4.0]) | st.floats(2.0, 1e300), label="p")
    return CoeffField(dim, p, draw(st.dictionaries(index, _AMPLITUDES, max_size=12), label="entries"))


class TestFieldWriter:
    """``dumps_field`` writes a field file; the recursive emitter is its oracle."""

    @given(_writer_fields())
    def test_bytes_equal_the_recursive_emitter(self, field):
        assert dumps_field(field) == dumps_canonical(field_to_obj(field))

    def test_a_shift_spread_past_max_shift_raises_alike(self):
        wide = CoeffField(1, 4.0, {
            WaveletIndex(1, 0, DyadicRationalVec((1,))): 1.0,
            WaveletIndex(1, 0, DyadicRationalVec((1,), MAX_SHIFT + 1)): 2.0,
        })
        with pytest.raises(ValueError, match="exact index arithmetic needs a shift"):
            dumps_field(wide)
        assert _outcome(dumps_field, wide) == _outcome(
            lambda f: dumps_canonical(field_to_obj(f)), wide
        )


def test_anchor_rows_round_trip_as_frames():
    # A group anchor is a DyadicAffine frame in the library and an [n, j, k]
    # row in JSON; the moving profile sits at shift 8n.
    obj = DOCUMENTS["decomposition"][0]
    dec = decomposition_from_obj(obj, _INPUTS)
    assert obj["groups"][1]["anchor"] == [[n, 0, [8 * n]] for n in dec.retained]
    assert dec.groups[1].anchor_params == {
        n: DyadicAffine(0, DyadicRationalVec((8 * n,))) for n in dec.retained
    }
    assert dumps_canonical(decomposition_to_obj(dec)) == dumps_canonical(obj)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", -1.0])
def test_input_norm_max_must_be_finite_and_nonnegative(value):
    obj = dict(DOCUMENTS["decomposition"][0], input_norm_max=value)
    with pytest.raises(ValueError, match="decomposition input_norm_max must be finite and nonnegative"):
        decomposition_from_obj(obj, _INPUTS)
    assert decomposition_from_obj(dict(obj, input_norm_max=0.0), _INPUTS).input_norm_max == 0.0


@pytest.mark.parametrize(
    "space, remainder",
    [(CONFIG_OBJ["space"], CONFIG_OBJ["remainder"]), ({"kind": "lp", "p": 4.0}, [8.0, 8.0])],
    ids=["besov", "lp"],
)
def test_verification_object_equals_the_asdict_oracle(space, remainder):
    config = config_from_obj(dict(CONFIG_OBJ, space=space, remainder=remainder))
    report = verify(_DECOMPOSITION, config)
    got = verification_to_obj(report)
    want = verification_obj_oracle(report)
    assert dumps_canonical(got) == dumps_canonical(want)
    # The same objects, with every tuple of the oracle read back as a list.
    assert got == json.loads(json.dumps(want))
