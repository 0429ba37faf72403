"""Command-line front end: generate corpora, decompose, verify, compute norms.

Exit codes: 0 on success (verification failures live inside the report, they
are not process failures), 2 on usage or validation problems, an unreadable
input or an unwritable output, 3 on an internal invariant breach.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Sequence

from . import io_json
from .extract import extract_profiles, verify
from .field import CoeffField
from .io_json import (
    config_from_obj,
    decomposition_to_obj,
    dumps_canonical,
    dumps_field,
    field_from_obj,
)
from .norms import BesovParams, besov_norm, coeff_lp, lp_norm, sup_amplitude
from .synth import generate


def _load_json(path: Path) -> object:
    try:
        with path.open("r", encoding="utf-8") as fp:
            return json.load(fp)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, bytes that are not UTF-8, an integer past Python's
        # digit limit, or nesting deeper than the recursion limit.
        raise ValueError(f"invalid JSON in {path}: {exc}")


@contextmanager
def _writing(path: Path):
    """Turn an OSError raised inside into a ValueError naming ``path``, the output being made."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: Path, text: str, parents: bool = True) -> None:
    """Write ``text`` to ``path``, first making its missing directories when ``parents``."""
    with _writing(path):
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


@contextmanager
def _naming(path: Path):
    """Prefix a ValueError raised inside with ``path``, the file whose contents it rejects."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load(path: Path, from_obj: Callable[[Any], Any]) -> Any:
    """``from_obj`` of the JSON in ``path``; what it rejects names the file."""
    obj = _load_json(path)
    with _naming(path):
        return from_obj(obj)


# The names of a corpus's field files; decompose and verify read them all.
_FIELD_FILES = "field_*.json"


def _load_corpus(directory: Path) -> list[CoeffField]:
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    paths = sorted(directory.glob(_FIELD_FILES))
    if not paths:
        raise ValueError(f"no {_FIELD_FILES} files in {directory}")
    return [_load(p, field_from_obj) for p in paths]


def _cmd_generate(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    spec = _load(spec_path, io_json.synthetic_spec_from_obj)
    # The spec is generate's only input, so whatever it rejects names the file.
    with _naming(spec_path):
        fields, truth = generate(spec)
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        present = os.listdir(out_dir)
    # One width for every name, so that the sorted names are in sequence order.
    width = max(4, len(str(len(fields))))
    names = [f"field_{n:0{width}d}.json" for n in range(1, len(fields) + 1)]
    # A field file this run does not rewrite would join the corpus that
    # decompose reads, so the directory is refused before any file is written.
    stale = sorted(set(fnmatch.filter(present, _FIELD_FILES)).difference(names))
    if stale:
        raise ValueError(f"cannot write {out_dir}: it holds {stale[0]}, which is not in this corpus")
    for name, field in zip(names, fields):
        _write_text(out_dir / name, dumps_field(field), parents=False)
    truth_obj = {"decomposition": decomposition_to_obj(truth)}
    _write_text(out_dir / "truth.json", dumps_canonical(truth_obj), parents=False)
    print(f"wrote {len(fields)} field files and truth.json to {out_dir}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    config = _load(Path(args.config), config_from_obj)
    fields = _load_corpus(Path(args.in_dir))
    dec = extract_profiles(fields, config)
    report = verify(dec, config)
    text = dumps_canonical(io_json.report_to_obj(config, dec, report))
    _write_text(Path(args.out), text)
    print(f"decomposed {len(fields)} fields into {len(dec.groups)} groups -> {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report_path = Path(args.report)
    stored = _load_json(report_path)
    fields = _load_corpus(Path(args.in_dir))
    with _naming(report_path):
        config, dec = io_json.report_from_obj(stored, dict(enumerate(fields, start=1)))
    report = verify(dec, config)
    text = dumps_canonical(io_json.report_to_obj(config, dec, report))
    if args.out:
        _write_text(Path(args.out), text)
        print(f"verification written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _parse_besov_triple(token: str) -> BesovParams:
    parts = token.split(",")
    if len(parts) != 3:
        raise ValueError(f"--besov expects s,a,b, got {token!r}")
    values = [io_json._as_float(part, "besov exponent") for part in parts]
    return BesovParams(values[0], values[1], values[2])


def _cmd_norms(args: argparse.Namespace) -> int:
    field_path = Path(args.field)
    field = _load(field_path, field_from_obj)
    besov_list = [_parse_besov_triple(token) for token in args.besov or []]
    # Basis regularity has no coefficient-space counterpart, so admissibility
    # of a requested triple is unknown and every triple is reported.  The
    # field is the only input, so whatever a norm rejects names its file.
    with _naming(field_path):
        obj = {
            "dimension": field.dim,
            "p": field.p,
            "lp": lp_norm(field),
            "sup": sup_amplitude(field),
            "coeff_lp": coeff_lp(field),
            "besov": [
                {"s": prm.s, "a": prm.a, "b": prm.b, "value": besov_norm(field, prm),
                 "m_admissible": None}
                for prm in besov_list
            ],
        }
    sys.stdout.write(dumps_canonical(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveprof",
        description="Profile decomposition of coefficient-field sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus from a spec")
    gen.add_argument("spec", help="synthetic spec JSON file")
    gen.add_argument("out", help="output directory")
    gen.set_defaults(handler=_cmd_generate)

    dec = sub.add_parser("decompose", help="extract profiles from a corpus directory")
    dec.add_argument("in_dir", help="directory of field_*.json files")
    dec.add_argument("--config", required=True, help="extraction config JSON file")
    dec.add_argument("--out", required=True, help="report output path")
    dec.set_defaults(handler=_cmd_decompose)

    ver = sub.add_parser("verify", help="re-run verification for a stored report")
    ver.add_argument("report", help="report JSON produced by decompose")
    ver.add_argument("in_dir", help="corpus directory the report was computed from")
    ver.add_argument("--out", default=None, help="output path (stdout when omitted)")
    ver.set_defaults(handler=_cmd_verify)

    nrm = sub.add_parser("norms", help="compute norms of one field file")
    nrm.add_argument("field", help="field JSON file")
    nrm.add_argument(
        "--besov",
        action="append",
        metavar="s,a,b",
        help="besov parameters, repeatable; use inf for infinite exponents",
    )
    nrm.set_defaults(handler=_cmd_norms)
    return parser


# Built on the first call of main and reused: parse_args reads the parser and
# never changes it, and each call gets a fresh Namespace.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # A command makes no garbage cycle, so the cyclic collector pauses until it ends.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant breach or environment failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
