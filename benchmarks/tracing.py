"""Span tracing of the waveprof layers from outside the package.

While a :class:`Tracer` is installed, every public function of the layer
modules (and ``CoeffField.without``) is replaced, in every ``waveprof``
namespace that holds it, by a wrapper that records a span: name, start, end,
parent span and an optional work count.  ``uninstall`` puts the original
objects back.  Spans stay in memory; :func:`summarize` derives calls, self
time and work counts from them.

The cli layer is not wrapped: the benchmark opens one root span per command
(``cli.decompose`` and so on) around its call to ``waveprof.cli.main``, so the
cli self time is argument parsing, JSON loading and file writes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "waveprof"
LAYERS = ("cli", "io_json", "extract", "field", "norms", "dyadic", "synth")
_WRAPPED_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")
_METHODS = (("field", "CoeffField", "without"),)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _entry_count(args, kwargs, result):
    return len(_first_arg(args, kwargs).entries)


def _nonzero(args, kwargs, result):
    return 1 if result != 0.0 else 0


def _text_length(args, kwargs, result):
    return len(result)


def _extraction_size(args, kwargs, result):
    return (sum(len(g.members) for g in result.groups), len(result.groups))


# Work counts recorded with the span, keyed by span name.
PROBES = {
    "norms.lp_norm": _entry_count,
    "field.rank": _entry_count,
    "extract.cross_interaction": _nonzero,
    "io_json.dumps_canonical": _text_length,
    "extract.extract_profiles": _extraction_size,
}


def package_modules() -> list:
    """The package namespace and every layer module, imported."""
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
    ]


def _layer_functions() -> dict[str, object]:
    found: dict[str, object] = {}
    for layer in _WRAPPED_LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans of waveprof calls while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        # Inlined rather than built on ``span``: some functions run tens of
        # thousands of times per cycle, so the wrapper avoids a generator-based
        # context manager per call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            work = probe(args, kwargs, result) if probe else None
            spans[index] = (name, start, end, parent, work)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = _layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, cls_name, method in _METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself, e.g. around one command."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, None)

    def dump(self, path: Path) -> None:
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fp:
            for index, (name, start, end, parent, work) in enumerate(self.spans):
                fp.write(json.dumps([index, name, start, end, parent, work]) + "\n")


def summarize(spans: list) -> dict:
    """Aggregate spans by (root span name, span name).

    Returns ``{"stats", "roots", "extraction_s"}``:

    - ``stats[(root, name)]`` is ``[calls, self_s, incl_s, work]``, where
      ``work`` lists the probe values of those spans; self time is a span's
      duration minus the time its direct children cover;
    - ``roots[root]`` is ``[count, total_s]`` of the root spans themselves;
    - ``extraction_s[root]`` is the self time of ``extract.extract_profiles``
      plus that of the ``field`` and ``dyadic`` calls made beneath it.
    """
    count = len(spans)
    child_time = [0.0] * count
    root = [0] * count
    under_extract = [False] * count
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[index] = root[parent]
            under_extract[index] = under_extract[parent]
        else:
            root[index] = index
        if name == "extract.extract_profiles":
            under_extract[index] = True
    stats: dict[tuple[str, str], list] = {}
    roots: dict[str, list] = defaultdict(lambda: [0, 0.0])
    extraction_s: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, value) in enumerate(spans):
        root_name = spans[root[index]][0]
        duration = end - start
        own = duration - child_time[index]
        entry = stats.setdefault((root_name, name), [0, 0.0, 0.0, []])
        entry[0] += 1
        entry[1] += own
        entry[2] += duration
        if value is not None:
            entry[3].append(value)
        if parent < 0:
            roots[name][0] += 1
            roots[name][1] += duration
        if under_extract[index] and (
            name == "extract.extract_profiles" or name.split(".")[0] in ("field", "dyadic")
        ):
            extraction_s[root_name] += own
    return {"stats": stats, "roots": dict(roots), "extraction_s": dict(extraction_s)}
