"""The benchmark wraps package functions by name; every name it binds must exist."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
speed = pytest.importorskip("speed")
tracer = pytest.importorskip("tracer")


def _bindings():
    for name, bindings in tracer.SPANS.items():
        for binding in bindings:
            yield name, binding
    for binding in speed.CUT_POINTS:
        yield "cut", binding


@pytest.mark.parametrize("name,binding", list(_bindings()))
def test_binding_resolves(name, binding):
    owner, attr = tracer._resolve(binding)
    assert callable(getattr(owner, attr))


def test_tracer_install_uninstall_round_trip():
    resolved = [tracer._resolve(b) for bindings in tracer.SPANS.values() for b in bindings]
    originals = [getattr(owner, attr) for owner, attr in resolved]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(resolved, originals))
    finally:
        t.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(resolved, originals))
