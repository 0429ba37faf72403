from __future__ import annotations

import inspect

import waveprof


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
