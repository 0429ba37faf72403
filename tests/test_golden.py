"""Golden digests of decompose reports and bit-level pins of the remainder path.

The digests fix every byte of three small reports: one in Lebesgue mode whose
cross tables are nonzero, one in Besov mode whose remainders are nonzero
(noise survives the stopping rule), and a two-dimensional one in Lebesgue mode
whose profiles carry dyadic-rational shifts and whose cross tables mix zero
and nonzero values.  Any change to extraction order, the
summation order of reconstructions or the report schema shows up here.
The generate digests fix every byte of the field files and truth.json that
the three specs generate.  The norms digests fix every byte of `waveprof
norms` on a three-dimensional corpus and on a two-dimensional field whose
cubes sit off the dyadic grid of their own scale.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from waveprof import extract, norms
from waveprof.cli import main
from waveprof.extract import (
    ExtractConfig,
    LpInput,
    extract_profiles,
    remainder,
    remainder_space_norm,
    verify,
)
from waveprof.field import CoeffField, transform
from waveprof.io_json import config_from_obj, decomposition_from_obj, synthetic_spec_from_obj
from waveprof.synth import generate
from conftest import cube_bounds, lattice_index


def _entry(gen, scale, shift, amp):
    return {"i": gen, "j": scale, "k": [shift], "denom_exp": 0, "amp": amp}


def _law(kind, k0, velocity=0, scale_step=0):
    return {"kind": kind, "j0": 0, "k0": [k0], "velocity": [velocity], "scale_step": scale_step}


# A stationary profile, one concentrating inside it and one translating away:
# the first two overlap at every n, so their cross integrals are nonzero.
LP_SPEC = {
    "dimension": 1,
    "p": 4.0,
    "n_count": 8,
    "seed": 5,
    "profiles": [
        {
            "entries": [_entry(1, 0, 0, 1.0), _entry(1, 0, 1, -0.45), _entry(1, 0, -1, 0.3)],
            "law": _law("constant", 0),
        },
        {
            "entries": [_entry(1, 0, 0, -0.8), _entry(1, 1, 1, 0.35)],
            "law": _law("scaling", 0, scale_step=1),
        },
        {
            "entries": [_entry(1, 0, 0, 0.6), _entry(1, 0, 1, 0.25)],
            "law": _law("translation", 1, velocity=9),
        },
    ],
}
LP_CONFIG = {
    "max_iterations": 10,
    "tail_window": 3,
    "conv_tol": 1e-9,
    "bound_threshold": 6.0,
    "stop_epsilon": 1e-9,
    "space": {"kind": "lp", "p": 4.0},
    "remainder": [8.0, 8.0],
}

# Two translating Besov profiles under noise that the stopping rule keeps.
BESOV_SPEC = {
    "dimension": 1,
    "p": 2.0,
    "n_count": 8,
    "seed": 7,
    "profiles": [
        {
            "entries": [_entry(1, 0, 0, 0.9), _entry(1, 0, 1, -0.5), _entry(1, 1, 3, 0.2)],
            "law": _law("constant", 0),
        },
        {
            "entries": [_entry(1, 0, 0, -0.7), _entry(1, 1, 1, 0.4)],
            "law": _law("translation", 2, velocity=6),
        },
    ],
    "noise": {"amp": 1e-4, "count": 3},
}
BESOV_CONFIG = {
    "max_iterations": 8,
    "tail_window": 3,
    "conv_tol": 1e-9,
    "bound_threshold": 6.0,
    "stop_epsilon": 1e-3,
    "space": {"kind": "besov", "p": 2.0, "a": 2.0, "q": 2.0},
    "remainder": [4.0, 4.0],
}


def _entry_2d(gen, scale, shift, amp):
    return {"i": gen, "j": scale, "k": list(shift), "denom_exp": 0, "amp": amp}


def _law_2d(kind, k0, velocity=(0, 0), scale_step=0):
    return {"kind": kind, "j0": 0, "k0": list(k0), "velocity": list(velocity),
            "scale_step": scale_step}


# A stationary profile, one concentrating inside it whose anchor sits one scale
# finer than its other entry (so the extracted profile has a half-integer
# shift), and one translating away: the first two overlap at every n and the
# third meets neither, so the cross tables hold zeros and nonzeros.
LP_2D_SPEC = {
    "dimension": 2,
    "p": 4.0,
    "n_count": 6,
    "seed": 11,
    "profiles": [
        {
            "entries": [_entry_2d(3, 1, (0, 0), 1.0), _entry_2d(1, 0, (0, 0), 0.5),
                        _entry_2d(2, 0, (1, -1), -0.35)],
            "law": _law_2d("constant", (0, 0)),
        },
        {
            "entries": [_entry_2d(1, 1, (1, 1), -0.8), _entry_2d(2, 0, (0, 1), 0.3)],
            "law": _law_2d("scaling", (0, 0), scale_step=1),
        },
        {
            "entries": [_entry_2d(2, 0, (0, 0), 0.6), _entry_2d(1, 0, (1, 0), 0.25)],
            "law": _law_2d("translation", (1, 2), velocity=(7, 0)),
        },
    ],
}

GOLDEN = {
    "lp": "12d8bdc58f7f930d88e778fa4e076cf3bd7e5fee0315335e4b5a183bd2585e8f",
    "besov": "bb6eadd25b23d4c63be8afb252d67ca6c7ac422fcfec935dd049da91ed4ca780",
    "lp2d": "3eaf670bab2c1339fda27f12c93dcc2ae422900f6c7d11522e69e90f6a3b3d00",
}

GENERATE_GOLDEN = {
    "lp": {
        "field_0001.json": "bef12feeeb5926c69f54bd5ca04e754eec33ebc76ac7bdf4497d95ea0e3543f1",
        "field_0002.json": "7d7e66b5b8fd688d4ce7f56512b4cd2baaee778e68e958d8668db87e30d29c29",
        "field_0003.json": "3e1e37c5386dfb39ab6ecd164728505cf0f670f24a5d8004614317ef96bfea9f",
        "field_0004.json": "8d5e5fe7f86744549e0c419647fac55f922b3e3e004a79b54024b75d525d3193",
        "field_0005.json": "c1e1e1c71d131b1b79163f7d06f035683d92195af4e55a1f8ecff94b325a0a68",
        "field_0006.json": "6abf158fddeb981b576167d0055ffa194f5c23980cfe29f3039f050e6645aabf",
        "field_0007.json": "1b9ff12008e2cd2d59f755005f09439d250c48865312d1f3b62919f6034c7f36",
        "field_0008.json": "182094397154fc45782f9a45dfdf780a18d20d066203015e160514fc289f2daa",
        "truth.json": "558ac69d67a0cb7a8db677ae04fd08f5d47efbaa95d3e812c3c1d5f5b9dfb240",
    },
    "besov": {
        "field_0001.json": "113a7e1b2b04fd3fd6fbcc4f58e175fb24fa890d5d0d8b6263127cb5fb5e25d3",
        "field_0002.json": "baf1b83f094d523fb44218381a36f2c48030677eab060039dde47dd9399ae4c3",
        "field_0003.json": "0725334d4b11b61b593184eb74401cb68957c41d3e2958934ae9dff6bd92b953",
        "field_0004.json": "31fbdad5f6456e94ab4043dc65419db70c57359d1b223a99e82a0af6794f9343",
        "field_0005.json": "21b0c5cc56de4857376e82fc64e4f69ac9774e568fa639508178d4b49691c43a",
        "field_0006.json": "abcaac5de471f40e540b9318086c011fb4a1077972149f7e84d2c437370e2a92",
        "field_0007.json": "ce3263f6655019bf8f59aecb63ddb30ef1f97c5cfe6372c5848f3a083fdc65d5",
        "field_0008.json": "24fe4065654a8dfa0868f742e3741093d4e798ddc7d30aba4064436726d8070a",
        "truth.json": "f3ddd0c1a091bf93e17b55f990481d9737c199148638874d5312fb895d274d3c",
    },
    "lp2d": {
        "field_0001.json": "b622c07dbe4520ff2044d432367cd897cc66d9366ce3797e4331e74d292064bf",
        "field_0002.json": "2adffafa4be97acfd4bba5d2651faed33f5a2f5d6ddecdbce61d85ec2ede32d9",
        "field_0003.json": "b9b2e20a876a2cc7a3a9505c4a783cf8f82b2c3773188c03ffc4c6e26b35b0ec",
        "field_0004.json": "aca1d67fc933b113a3845a79c5994276acdf1135b0077d57f059c00416de932d",
        "field_0005.json": "11d24feb78c3f26c535c5eb1759d8d3caee0dca5ad2e7ba4309eeade9293195a",
        "field_0006.json": "ae460df619a8b0972b868e609a1f251ffd0e931fa568c1aeb26aa463b9496e97",
        "truth.json": "22c7782592b3b11d24fdd09c473c3cb21d87c0450c1f27e326167c48f7eec95c",
    },
}


@pytest.mark.parametrize(
    "name, spec", [("lp", LP_SPEC), ("besov", BESOV_SPEC), ("lp2d", LP_2D_SPEC)]
)
def test_generate_digests(tmp_path, name, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    corpus = tmp_path / "corpus"
    assert main(["generate", str(tmp_path / "spec.json"), str(corpus)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(corpus.iterdir())
    }
    assert digests == GENERATE_GOLDEN[name]


def _decompose(tmp_path, spec, config):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "config.json").write_text(json.dumps(config))
    corpus = tmp_path / "corpus"
    report = tmp_path / "report.json"
    assert main(["generate", str(tmp_path / "spec.json"), str(corpus)]) == 0
    assert main(["decompose", str(corpus), "--config", str(tmp_path / "config.json"),
                 "--out", str(report)]) == 0
    return report.read_bytes()


@pytest.mark.parametrize(
    "name, spec, config",
    [
        ("lp", LP_SPEC, LP_CONFIG),
        ("besov", BESOV_SPEC, BESOV_CONFIG),
        ("lp2d", LP_2D_SPEC, LP_CONFIG),
    ],
)
def test_report_digest(tmp_path, name, spec, config):
    text = _decompose(tmp_path, spec, config)
    report = json.loads(text)
    verification = report["verification"]
    cross_values = [v for c in verification["cross"] for v in c["values"]]
    if name == "lp":
        assert len(report["decomposition"]["groups"]) >= 3
        assert any(v != 0.0 for v in cross_values)
    elif name == "lp2d":
        groups = report["decomposition"]["groups"]
        assert len(groups) == 3
        assert any(e["denom_exp"] > 0 for g in groups for e in g["profile"])
        assert any(v == 0.0 for v in cross_values)
        assert any(v != 0.0 for v in cross_values)
    else:
        assert any(v != 0.0 for v in verification["remainders"][-1]["norms"])
    assert hashlib.sha256(text).hexdigest() == GOLDEN[name]


def test_remainder_is_input_minus_partial_sum():
    # Both groups map their profile onto lattice index (1, 0, 0) at n = 1, so
    # the reconstruction there adds two amplitudes before subtracting.  The
    # values are chosen so that x - (a + b) and (x - a) - b differ in the
    # last bit, and so do the remainder norms built from them.
    rows = [[1, 0, [0]], [2, 0, [0]], [3, 0, [0]]]
    moving = [[1, 0, [0]], [2, 0, [5]], [3, 0, [9]]]
    member = {"gen": 1, "scale": 0, "shift": [0], "denom_exp": 0, "rank": 1}
    obj = {
        "dimension": 1, "p": 4.0, "count": 3, "retained": [1, 2, 3],
        "diagnostics": [], "input_norm_max": 1.0,
        "groups": [
            {"anchor": rows, "members": [dict(member, amplitude=0.2)],
             "profile": [_entry(1, 0, 0, 0.2)]},
            {"anchor": moving, "members": [dict(member, amplitude=0.1, rank=2)],
             "profile": [_entry(1, 0, 0, 0.1)]},
        ],
    }
    x = 1.0
    assert x - (0.2 + 0.1) != (x - 0.2) - 0.1
    inputs = {
        n: CoeffField.from_items(1, 4.0, [
            (lattice_index(1, 0, 0), x),
            (lattice_index(1, 0, shift), 0.75),
        ])
        for n, shift in ((1, 3), (2, 4), (3, 6))
    }
    dec = decomposition_from_obj(obj, inputs)
    config = ExtractConfig(
        max_iterations=4, tail_window=2, conv_tol=1e-9, bound_threshold=6.0,
        stop_epsilon=1e-9, input_space=LpInput(4.0), remainder_space=(8.0, 8.0),
    )
    report = verify(dec, config)
    assert [r.level for r in report.remainders] == [0, 1, 2]
    for row in report.remainders:
        expected = tuple(
            remainder_space_norm(remainder(dec, row.level, n), config) for n in dec.retained
        )
        assert row.norms == expected


def _hull(field):
    bounds = [cube_bounds(index) for index in field.entries]
    return [
        (min(b[axis][0] for b in bounds), max(b[axis][1] for b in bounds))
        for axis in range(field.dim)
    ]


def test_verify_makes_one_cross_pass_per_overlapping_pair(monkeypatch):
    fields, _ = generate(synthetic_spec_from_obj(LP_SPEC))
    config = config_from_obj(LP_CONFIG)
    dec = extract_profiles(fields, config)
    groups, ns = len(dec.groups), dec.retained

    layer_counts = []
    cell_integral = norms._cell_integral

    def counting_cell_integral(layers, *args):
        layer_counts.append(len(layers))
        return cell_integral(layers, *args)

    transforms = []
    field_transform = extract.transform

    def counting_transform(*args):
        transforms.append(args)
        return field_transform(*args)

    monkeypatch.setattr(norms, "_cell_integral", counting_cell_integral)
    monkeypatch.setattr(extract, "transform", counting_transform)
    report = verify(dec, config)

    overlapping = 0
    for n in ns:
        hulls = [_hull(transform(g.profile, g.anchor_params[n])) for g in dec.groups]
        for i in range(groups):
            for k in range(i + 1, groups):
                overlapping += all(
                    lo_i < hi_k and lo_k < hi_i
                    for (lo_i, hi_i), (lo_k, hi_k) in zip(hulls[i], hulls[k])
                )
    assert 0 < overlapping < groups * (groups - 1) // 2 * len(ns)
    assert layer_counts.count(2) == overlapping
    assert len(transforms) == groups * len(ns)
    assert [(c.first, c.second) for c in report.cross] == [
        (i, k) for i in range(groups) for k in range(groups) if i != k
    ]


def _entry_3d(gen, scale, shift, amp):
    return {"i": gen, "j": scale, "k": list(shift), "denom_exp": 0, "amp": amp}


# The norms-3d benchmark shape, scaled down: a stationary and a translating
# profile of four entries each, between them using all seven generators, and
# noise, so nested and overlapping cubes meet in eight-way subdivisions.
NORMS_3D_SPEC = {
    "dimension": 3,
    "p": 4.0,
    "n_count": 4,
    "seed": 3,
    "profiles": [
        {
            "entries": [_entry_3d(1, 0, (0, 0, 0), 0.95), _entry_3d(2, 0, (1, 0, 0), -0.6),
                        _entry_3d(3, 1, (1, 1, 0), 0.45), _entry_3d(4, 0, (0, 1, 1), -0.3)],
            "law": {"kind": "constant", "j0": 0, "k0": [0, 0, 0]},
        },
        {
            "entries": [_entry_3d(5, 0, (0, 0, 0), -0.85), _entry_3d(6, 0, (1, 0, 0), 0.5),
                        _entry_3d(7, 1, (1, 1, 0), -0.4), _entry_3d(1, 0, (0, 1, 1), 0.2)],
            "law": {"kind": "translation", "j0": 0, "k0": [1, 0, 0], "velocity": [4, 1, 0]},
        },
    ],
    "noise": {"amp": 1e-4, "count": 8},
}


def _entry_2d_rational(gen, scale, shift, denom_exp, amp):
    return {"i": gen, "j": scale, "k": list(shift), "denom_exp": denom_exp, "amp": amp}


# Cubes at scales -1 to 3 whose corners are quarters and halves of their own
# side as well as whole sides, nested, overlapping and one centred on the
# origin, at a p whose power of the square function is not an integer.
NORMS_2D_FIELD = {
    "dimension": 2,
    "p": 3.0,
    "entries": [
        _entry_2d_rational(1, 0, (0, 0), 0, 0.9),
        _entry_2d_rational(2, 1, (1, 3), 2, -0.55),
        _entry_2d_rational(3, 2, (-3, 5), 2, 0.35),
        _entry_2d_rational(1, 1, (1, 1), 1, 0.7),
        _entry_2d_rational(2, 0, (-1, 1), 1, -0.25),
        _entry_2d_rational(3, 3, (2, 3), 0, 0.15),
        _entry_2d_rational(1, -1, (0, -1), 0, -0.45),
        _entry_2d_rational(2, 0, (-1, -1), 1, 0.6),
        _entry_2d_rational(3, 1, (5, -2), 2, -0.8),
    ],
}

NORMS_GOLDEN = {
    "3d": "22b1c335a5fe7c2a7af261f1052bf72b7a29f9e060eb1339ff06f08db23133c6",
    "2d-rational": "ab0559d5d3a13b5deef9919a1e148d267094d3970d949a37083c41a583788029",
}


def _norms_bytes(capsys, path):
    assert main(["norms", str(path), "--besov", "0,4,4", "--besov", "0,2,inf"]) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", ["3d", "2d-rational"])
def test_norms_digests(tmp_path, capsys, name):
    if name == "3d":
        (tmp_path / "spec.json").write_text(json.dumps(NORMS_3D_SPEC))
        corpus = tmp_path / "corpus"
        assert main(["generate", str(tmp_path / "spec.json"), str(corpus)]) == 0
        capsys.readouterr()
        paths = sorted(corpus.glob("field_*.json"))
    else:
        paths = [tmp_path / "field.json"]
        paths[0].write_text(json.dumps(NORMS_2D_FIELD))
    text = b"".join(_norms_bytes(capsys, path) for path in paths)
    assert hashlib.sha256(text).hexdigest() == NORMS_GOLDEN[name]
