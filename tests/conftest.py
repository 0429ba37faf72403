from __future__ import annotations

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import settings

from waveprof.dyadic import DyadicAffine, DyadicRationalVec, WaveletIndex
from waveprof.field import CoeffField
from waveprof.io_json import _check, _get, _shift

settings.register_profile("det", deadline=None, derandomize=True, max_examples=50)
# A longer, still reproducible run, selected with --hypothesis-profile=deep.
settings.register_profile("deep", deadline=None, derandomize=True, max_examples=1000)
settings.load_profile("det")


def lattice_index(gen: int, scale: int, *shift: int) -> WaveletIndex:
    return WaveletIndex(gen, scale, DyadicRationalVec(shift))


def lattice_frame(scale: int, *shift: int) -> DyadicAffine:
    return DyadicAffine(scale, DyadicRationalVec(shift))


def order_key_oracle(index: WaveletIndex) -> tuple:
    """The canonical index order by its definition: scale, shift value as fractions, generator."""
    shift = tuple(Fraction(n, 1 << index.shift.denom_exp) for n in index.shift.numerators)
    return (index.scale, shift, index.gen)


def single_entry_field(dim: int, p: float, amp: float, gen=1, scale=0, shift=None) -> CoeffField:
    shift = shift if shift is not None else (0,) * dim
    return CoeffField.from_items(dim, p, [(WaveletIndex(gen, scale, DyadicRationalVec(shift)), amp)])


def cube_bounds(index: WaveletIndex) -> tuple[tuple[float, float], ...]:
    """Per-axis bounds of the localization cube {x : 2**j * x - k in [0,1)^d}."""
    side = math.ldexp(1.0, -index.scale)
    return tuple((lo, lo + side) for lo in index.shift.scaled_by_pow2(-index.scale).as_floats())


def in_cube(index: WaveletIndex, point) -> bool:
    return all(lo <= x < hi for x, (lo, hi) in zip(point, cube_bounds(index)))


def apply_affine(tau: DyadicAffine, point) -> tuple[float, ...]:
    """The point map x -> 2**scale * x - shift."""
    return tuple(math.ldexp(x, tau.scale) - k for x, k in zip(point, tau.shift.as_floats()))


def random_field(
    rng: np.random.Generator,
    dim: int = 1,
    p: float = 4.0,
    max_entries: int = 12,
    scale_lo: int = -3,
    scale_hi: int = 3,
    shift_bound: int = 8,
    denom_exp_max: int = 0,
) -> CoeffField:
    count = int(rng.integers(1, max_entries + 1))
    entries: dict[WaveletIndex, float] = {}
    while len(entries) < count:
        gen = int(rng.integers(1, 2**dim))
        scale = int(rng.integers(scale_lo, scale_hi + 1))
        exp = int(rng.integers(0, denom_exp_max + 1))
        nums = tuple(int(rng.integers(-shift_bound << exp, (shift_bound << exp) + 1)) for _ in range(dim))
        index = WaveletIndex(gen, scale, DyadicRationalVec(nums, exp))
        amp = float(rng.uniform(0.25, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        entries[index] = amp
    return CoeffField(dim, p, entries)


def random_affine(
    rng: np.random.Generator,
    dim: int = 1,
    scale_bound: int = 3,
    shift_bound: int = 8,
    denom_exp_max: int = 2,
) -> DyadicAffine:
    scale = int(rng.integers(-scale_bound, scale_bound + 1))
    exp = int(rng.integers(0, denom_exp_max + 1))
    nums = tuple(int(rng.integers(-shift_bound << exp, (shift_bound << exp) + 1)) for _ in range(dim))
    return DyadicAffine(scale, DyadicRationalVec(nums, exp))


def gap_oracle(a: DyadicAffine, b: DyadicAffine) -> float:
    """orthogonality_gap by its direct formula |ja - jb| + |kb * 2**(ja - jb) - ka|."""
    rel = b.shift.scaled_by_pow2(a.scale - b.scale) - a.shift
    return abs(a.scale - b.scale) + rel.euclidean_norm()


# Index arithmetic by its defining formulas, built through the public
# constructors, which check and normalise every result.  The library builds
# these results in lowest terms directly; they must agree in value, hash and
# representation.


def scaled_oracle(v: DyadicRationalVec, exponent: int) -> DyadicRationalVec:
    if exponent >= 0:
        return DyadicRationalVec(tuple(c << exponent for c in v.numerators), v.denom_exp)
    return DyadicRationalVec(v.numerators, v.denom_exp - exponent)


def add_oracle(a: DyadicRationalVec, b: DyadicRationalVec) -> DyadicRationalVec:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    exp = max(a.denom_exp, b.denom_exp)
    nums = tuple(
        (x << (exp - a.denom_exp)) + (y << (exp - b.denom_exp))
        for x, y in zip(a.numerators, b.numerators)
    )
    return DyadicRationalVec(nums, exp)


def neg_oracle(v: DyadicRationalVec) -> DyadicRationalVec:
    return DyadicRationalVec(tuple(-c for c in v.numerators), v.denom_exp)


def sub_oracle(a: DyadicRationalVec, b: DyadicRationalVec) -> DyadicRationalVec:
    return add_oracle(a, neg_oracle(b))


def relative_map_oracle(anchor: DyadicAffine, target: DyadicAffine) -> DyadicAffine:
    """k1 - 2**(j1 - j0) * k0 over scale j1 - j0."""
    delta = target.scale - anchor.scale
    return DyadicAffine(delta, sub_oracle(target.shift, scaled_oracle(anchor.shift, delta)))


def compose_oracle(inner: DyadicAffine, outer: DyadicAffine) -> DyadicAffine:
    """2**j1 * k0 + k1 over scale j0 + j1."""
    shift = add_oracle(scaled_oracle(inner.shift, outer.scale), outer.shift)
    return DyadicAffine(inner.scale + outer.scale, shift)


def invert_oracle(tau: DyadicAffine) -> DyadicAffine:
    """-2**-j * k over scale -j."""
    return DyadicAffine(-tau.scale, scaled_oracle(neg_oracle(tau.shift), -tau.scale))


def act_on_index_oracle(tau: DyadicAffine, index: WaveletIndex) -> WaveletIndex:
    return WaveletIndex(
        index.gen,
        tau.scale + index.scale,
        add_oracle(scaled_oracle(tau.shift, index.scale), index.shift),
    )


def entry_oracle(obj, dim, what="entry", keys=("i", "j", "k", "amp")):
    """Reference for the loaders' reader of a field entry or, under its ``what`` and
    ``keys``, a group member row: ``(index, amplitude)``.

    The reader as it was: every key read through ``_shift`` or ``_get``, shift
    first, then ``denom_exp``, generator, scale and amplitude, and the index
    built through the public constructors, which check every value again.
    """
    gen, scale, shift, amp = keys
    obj = _check(obj, what, dict)
    vec = DyadicRationalVec(_shift(obj, shift, dim, what), _get(obj, "denom_exp", what, int, 0))
    index = WaveletIndex(_get(obj, gen, what, int), _get(obj, scale, what, int), vec)
    return index, _get(obj, amp, what, float)


def _square_function_grids(fields) -> tuple[list[np.ndarray], float]:
    """Square functions of ``fields`` rendered on one dense grid, and its cell volume.

    The grid sits at the finest resolution present in any of the fields and
    spans the bounding box of all their cubes.
    """
    resolution = max(i.scale + i.shift.denom_exp for f in fields for i in f.entries)
    dim = fields[0].dim
    boxes = []
    for field in fields:
        rows = []
        for index, amp in sorted(field.entries.items(), key=lambda kv: str(kv[0])):
            stretch = resolution - index.scale - index.shift.denom_exp
            lo = tuple(n << stretch for n in index.shift.numerators)
            side = 1 << (resolution - index.scale)
            weight = amp * amp * 2.0 ** (2.0 * field.dim / field.p * index.scale)
            rows.append((lo, side, weight))
        boxes.append(rows)
    every = [box for rows in boxes for box in rows]
    mins = [min(b[0][axis] for b in every) for axis in range(dim)]
    maxs = [max(b[0][axis] + b[1] for b in every) for axis in range(dim)]
    grids = []
    for rows in boxes:
        grid = np.zeros(tuple(hi - lo for lo, hi in zip(mins, maxs)))
        for lo, side, weight in rows:
            sel = tuple(slice(lo[axis] - mins[axis], lo[axis] - mins[axis] + side) for axis in range(dim))
            grid[sel] += weight
        grids.append(grid)
    return grids, math.ldexp(1.0, -resolution * dim)


def grid_lp_oracle(field: CoeffField) -> float:
    """Brute-force Riemann sum of the square function on the finest dyadic grid.

    Independent of the library's integral: renders every cube onto a
    dense numpy grid at the finest resolution present and sums cell values.
    """
    if not field.entries:
        return 0.0
    (grid,), cell_volume = _square_function_grids([field])
    total = float((grid ** (field.p / 2.0)).sum()) * cell_volume
    return total ** (1.0 / field.p)


def grid_cross_oracle(f: CoeffField, g: CoeffField) -> tuple[float, float]:
    """Brute-force (integral of S_f * S_g**(p/2 - 1), integral of S_g * S_f**(p/2 - 1)).

    Both square functions are rendered on one dense grid at the finest
    resolution of the pair, independently of the library's integral.
    """
    (sf, sg), cell_volume = _square_function_grids([f, g])
    exponent = f.p / 2.0 - 1.0
    return (
        float((sf * sg**exponent).sum()) * cell_volume,
        float((sg * sf**exponent).sum()) * cell_volume,
    )


def recursive_cell_integral(layers, dim, resolution, evaluate, outputs) -> tuple[float, ...]:
    """Reference for ``norms._cell_integral``: the cell tree it reproduces, walked recursively.

    Every cell copies its accumulator and adds, in list order, the weights of
    the boxes that cover it; cells meeting a box boundary are split in two
    along every axis.  The library's walk over dyadic cubes must give these
    results bit for bit.
    Depth is limited by Python's recursion limit.
    """
    tagged = [
        (layer_id, lo, side_exp, weight)
        for layer_id, items in enumerate(layers)
        for (lo, side_exp, weight) in items
    ]
    if not tagged:
        return (0.0,) * outputs
    extent = max(
        max(hi, -lo_c)
        for (_, lo, side_exp, _) in tagged
        for lo_c, hi in ((c, c + (1 << side_exp)) for c in lo)
    )
    root_exp = max(1, (extent - 1).bit_length() + 1)
    root_lo = (-(1 << (root_exp - 1)),) * dim

    pieces: list[list[float]] = [[] for _ in range(outputs)]

    def recurse(cell_lo, cell_exp, items, acc) -> None:
        cell_hi = tuple(c + (1 << cell_exp) for c in cell_lo)
        acc = list(acc)
        partial = []
        for layer_id, lo, side_exp, weight in items:
            side = 1 << side_exp
            if any(lo[c] + side <= cell_lo[c] or cell_hi[c] <= lo[c] for c in range(dim)):
                continue
            if all(lo[c] <= cell_lo[c] and cell_hi[c] <= lo[c] + side for c in range(dim)):
                acc[layer_id] += weight
            else:
                partial.append((layer_id, lo, side_exp, weight))
        if not partial:
            if any(acc):
                volume = math.ldexp(1.0, (cell_exp - resolution) * dim)
                for out, value in zip(pieces, evaluate(acc)):
                    if value != 0.0:
                        out.append(value * volume)
            return
        half = 1 << (cell_exp - 1)
        for offsets in product((0, half), repeat=dim):
            child = tuple(c + o for c, o in zip(cell_lo, offsets))
            recurse(child, cell_exp - 1, partial, acc)

    recurse(root_lo, root_exp, tagged, [0.0] * len(layers))
    return tuple(math.fsum(out) for out in pieces)


def emit_oracle(obj) -> str:
    """Reference for ``io_json.dumps_canonical`` without its trailing newline.

    The recursive emitter it replaced: one ``isinstance`` chain per value,
    one ``json.dumps`` call per string and per object key, and object keys
    sorted with their values.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("NaN is not serializable")
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        token = format(obj, ".17g")
        if "e" not in token and "E" not in token and "." not in token:
            token += ".0"
        return token
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_oracle(v) for v in obj) + "]"
    if isinstance(obj, Mapping):
        parts = (
            json.dumps(str(k), ensure_ascii=False) + ":" + emit_oracle(v)
            for k, v in sorted(obj.items())
        )
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def verification_obj_oracle(report) -> dict:
    """A verification report as nested objects by a walk over ``_asdict()``, ``passes`` as ``pass``.

    The walk rebuilds every value and keeps tuples as tuples; the library
    reads each record's ``_fields`` directly and writes lists.
    """

    def walk(value):
        if hasattr(value, "_asdict"):
            return {("pass" if k == "passes" else k): walk(v) for k, v in value._asdict().items()}
        if isinstance(value, tuple):
            return tuple(walk(v) for v in value)
        return value

    return walk(report)
