from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

import waveprof
from waveprof.dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex
from waveprof.extract import (
    BesovInput,
    CrossReport,
    ExtractConfig,
    GapReport,
    GroupMember,
    LpInput,
    RemainderReport,
    StabilityReport,
    VerificationReport,
)
from waveprof.field import CoeffField
from waveprof.norms import BesovParams, EmbeddingChainReport, InterpolationCheck
from waveprof.synth import AlignmentReport, GroupMatch, ParamLaw, PlantedProfile, SyntheticSpec


def test_all_lists_exactly_the_public_api():
    for name in waveprof.__all__:
        assert not inspect.ismodule(getattr(waveprof, name)), name
    imported = {
        name
        for name, value in vars(waveprof).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert imported == set(waveprof.__all__)
    assert len(waveprof.__all__) == len(set(waveprof.__all__))


_ORIGIN = DyadicRationalVec((0,))
_CONFIG = ExtractConfig(8, 3, 1e-9, 6.0, 0.001, LpInput(4.0), (8, 8))
_PARAMS = BesovParams(0.5, 2.0, 3.0)
_LAW = ParamLaw("translation", 0, (0,), (8,))
_STABILITY = StabilityReport(4.0, 1.0, 1.0, 1e-9, True)

# One value of each record that is a named tuple, with the repr a frozen
# dataclass of the same fields gave.
RECORDS = [
    (LpInput(4.0), "LpInput(p=4.0)"),
    (BesovInput(4.0, 2.0, 3.0), "BesovInput(p=4.0, a=2.0, q=3.0)"),
    (
        _CONFIG,
        "ExtractConfig(max_iterations=8, tail_window=3, conv_tol=1e-09, bound_threshold=6.0,"
        " stop_epsilon=0.001, input_space=LpInput(p=4.0), remainder_space=(8.0, 8.0))",
    ),
    (
        GroupMember(WaveletIndex(1, 0, _ORIGIN), 0.5, 2),
        "GroupMember(index=WaveletIndex(gen=1, scale=0, shift=DyadicRationalVec(numerators=(0,),"
        " denom_exp=0)), amplitude=0.5, rank=2)",
    ),
    (
        GapReport(0, 1, (3.0, 8.0), True, 8.0, True),
        "GapReport(first=0, second=1, values=(3.0, 8.0), nondecreasing_tail=True, final=8.0,"
        " passes=True)",
    ),
    (
        RemainderReport(1, (0.5, 0.25), 0.5),
        "RemainderReport(level=1, norms=(0.5, 0.25), tail_max=0.5)",
    ),
    (
        _STABILITY,
        "StabilityReport(aggregation=4.0, lhs=1.0, rhs=1.0, tolerance=1e-09, passes=True)",
    ),
    (CrossReport(0, 1, (0.0, 0.0)), "CrossReport(first=0, second=1, values=(0.0, 0.0))"),
    (
        VerificationReport((1, 2), (1.0, 1.0), (1.0,), (), (), True, _STABILITY, (0.0,), 0.0, ()),
        "VerificationReport(retained=(1, 2), input_norms=(1.0, 1.0), profile_norms=(1.0,),"
        " gaps=(), remainders=(), remainder_tail_nonincreasing=True,"
        " stability=StabilityReport(aggregation=4.0, lhs=1.0, rhs=1.0, tolerance=1e-09,"
        " passes=True), margins=(0.0,), margin_max=0.0, cross=())",
    ),
    (InterpolationCheck(1.0, 2.0, True), "InterpolationCheck(lhs=1.0, rhs=2.0, holds=True)"),
    (
        EmbeddingChainReport(3.0, 2.0, 1.0, 1.5, 1.0, True, True, 0.75),
        "EmbeddingChainReport(besov_0pp=3.0, besov_0pq=2.0, besov_srq=1.0, lp=1.5,"
        " amplitude_lp=1.0, outer_monotone=True, inner_monotone=True, amplitude_ratio=0.75)",
    ),
    (_PARAMS, "BesovParams(s=0.5, a=2.0, b=3.0)"),
    (_LAW, "ParamLaw(kind='translation', j0=0, k0=(0,), velocity=(8,), scale_step=0)"),
    (
        PlantedProfile(CoeffField.empty(1, 4.0), _LAW),
        "PlantedProfile(field=CoeffField(dim=1, p=4.0, entries=mappingproxy({})),"
        " law=ParamLaw(kind='translation', j0=0, k0=(0,), velocity=(8,), scale_step=0))",
    ),
    (
        SyntheticSpec(1, 4.0, (), 8, 11),
        "SyntheticSpec(dim=1, p=4.0, profiles=(), n_count=8, seed=11, noise_amp=0.0,"
        " noise_count=0)",
    ),
    (
        GroupMatch(0, 1, DyadicAffine(0, _ORIGIN), 0.0),
        "GroupMatch(truth_index=0, found_index=1, frame_map=DyadicAffine(scale=0,"
        " shift=DyadicRationalVec(numerators=(0,), denom_exp=0)), max_amplitude_deviation=0.0)",
    ),
    (
        AlignmentReport((), (2,), (), 0.0),
        "AlignmentReport(matches=(), unmatched_truth=(2,), unmatched_found=(),"
        " max_amplitude_deviation=0.0)",
    ),
]
_IDS = [type(record).__name__ for record, _ in RECORDS]


class TestRecords:
    def test_only_the_records_that_own_a_mapping_are_dataclasses(self):
        classes = {
            name: value for name in waveprof.__all__
            if inspect.isclass(value := getattr(waveprof, name))
        }
        owners = {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)}
        assert owners == {"CoeffField", "ProfileGroup", "Decomposition"}
        # SeededStream is a random stream with state, not a record.
        records = set(classes) - owners - {"SeededStream"}
        assert all(issubclass(classes[name], tuple) for name in records)
        listed = {type(record).__name__ for record, _ in RECORDS}
        listed |= {"DyadicRationalVec", "WaveletIndex", "DyadicAffine"}
        assert records <= listed

    @pytest.mark.parametrize("record, text", RECORDS, ids=_IDS)
    def test_a_record_is_a_tuple_with_a_dataclass_repr(self, record, text):
        assert isinstance(record, tuple)
        assert not hasattr(record, "__dict__")
        assert repr(record) == text
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    @pytest.mark.parametrize(
        "record", [r for r, _ in RECORDS if not isinstance(r, PlantedProfile)],
        ids=[i for i in _IDS if i != "PlantedProfile"],
    )
    def test_a_record_hashes_as_its_field_tuple(self, record):
        # A CoeffField, and so a PlantedProfile, holds a mapping and has no hash.
        assert hash(record) == hash(tuple(record))


class TestCheckedCopies:
    def test_a_copy_runs_the_checks(self):
        with pytest.raises(ValueError, match="tail_window must be at least 2"):
            _CONFIG._replace(tail_window=1)
        with pytest.raises(ValueError, match="exponents must lie in"):
            _PARAMS._replace(a=0.5)
        with pytest.raises(TypeError):
            _LAW._replace(j0=1.5)
        # A copy is normalised as a new record is.
        assert _CONFIG._replace(remainder_space=[9, 9]).remainder_space == (9.0, 9.0)

    @pytest.mark.parametrize(
        "record", [_CONFIG, _PARAMS, _LAW],
        ids=["ExtractConfig", "BesovParams", "ParamLaw"],
    )
    def test_pickle_and_deepcopy_give_equal_records(self, record):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record)
            assert copied == record
