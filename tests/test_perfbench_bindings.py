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


def test_counters_read_what_the_bound_functions_return(tmp_path):
    # a traced pass calls each COUNTERS lambda on the live result: a changed return breaks it
    from xyquench import cli

    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["rg", "--lmax", "0.1", "--out", str(tmp_path / "rg.csv")]) == 0
        assert cli.main(["oracle", "--nsites", "4", "--grid", "1", "--spectrum-cases", "1",
                         "--steps", "200", "--out", str(tmp_path / "oracle.csv")]) == 0
    finally:
        t.uninstall()
    for key in ("edoracle.ground_state.dim3", "edoracle.build_hamiltonian.bytes",
                "sweeps.csv_bytes", "rgflow.rg_flow.steps"):
        assert t.counters[key] > 0, key
