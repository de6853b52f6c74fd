from types import SimpleNamespace

import pytest

from gexpect import pde


@pytest.fixture
def stepped(monkeypatch):
    # the number of diagonal problems solved so far (by the dot path or the
    # kernel; a memo hit solves none), and whether a run's memo was set
    seen = SimpleNamespace(calls=0, memo=set())
    step = pde._diag_step

    def spy(*args, **kwargs):
        seen.calls += 1
        seen.memo.add(pde._MEMO.get() is not None)
        return step(*args, **kwargs)

    monkeypatch.setattr(pde, "_diag_step", spy)
    return seen


@pytest.fixture
def evaluated(monkeypatch):
    # the number of times phi has been evaluated on a solve's grid so far
    seen = SimpleNamespace(calls=0)
    evaluate = pde._eval_initial

    def spy(*args, **kwargs):
        seen.calls += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(pde, "_eval_initial", spy)
    return seen
