"""Self-tests of the benchmark's own checks and tracer (not part of the package tests).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Each reference check is shown to pass on real outputs at reduced sizes
and to fail on a corrupted copy: a perturbed CSV cell, a moved sample
point, a flipped oracle status, a loosened tolerance, a broken RG
invariant, a moved evolved probability and a moved loop phase.  Takes about 20 s, most of it the
tau_q = 1000 pair integrations of quench-evolve.
"""

from __future__ import annotations

import atexit
import functools
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRATCH = HERE.parent / ".bench_build" / "selftest"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "oracle": {"steps": 1200, "grid": 3, "spectrum_cases": 2},
    "quench-evolve": {},  # the LZ reference needs the default N = 100 (small k)
    "sweeps": {"fig1_samples": 60, "fig2_samples": 40, "fig2_alpha_samples": 40,
               "nsites": 20, "lmax": 1.0},
    "ed-large": {"steps": 100, "spectrum_sites": 6},
}
SEED = 5


def _tempdir(prefix) -> Path:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    atexit.register(shutil.rmtree, path, True)
    return path


def _plan(workload):
    return workloads.plan(workload, SEED, SMALL[workload])


@functools.cache
def _clean_outputs(workload) -> Path:
    """Outputs of one small pass, computed once per process."""
    cli, edoracle = worker._import_package()
    out = _tempdir(f"{workload}-")
    plan = _plan(workload)
    codes = worker._run_cli(cli, plan, out) if plan["commands"] else worker._run_ed_large(
        edoracle, plan, out)
    assert codes == [0] * len(codes), codes
    return out


def _copy(workload) -> Path:
    dst = _tempdir(f"{workload}-bad-")
    shutil.copytree(_clean_outputs(workload), dst, dirs_exist_ok=True)
    return dst


def _edit_cell(path: Path, row: int, column: str, fn):
    lines = path.read_text(encoding="ascii").split("\n")
    j = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[j] = fn(cells[j])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="ascii")


def _failures(workload, out):
    return checks.check(_plan(workload), out).failures


def test_clean_outputs_pass():
    for workload in workloads.NAMES:
        rep = checks.check(_plan(workload), _clean_outputs(workload))
        assert rep.failures == [], (workload, rep.failures)
        assert 0.0 < rep.err_to_tol <= 1.0, (workload, rep.err_to_tol)


def test_perturbed_csv_cell_fails():
    out = _copy("sweeps")
    _edit_cell(out / "fig2_gamma.csv", 10, "value", lambda c: repr(float(c) * (1 + 1e-9)))
    assert any("fig2 gamma" in f for f in _failures("sweeps", out))


def test_emptied_csv_cell_fails():
    out = _copy("sweeps")
    _edit_cell(out / "fig1.csv", 3, "gamma_k", lambda c: "")
    assert any("empty cells" in f for f in _failures("sweeps", out))


def test_moved_fig1_time_cell_fails():
    out = _copy("sweeps")
    _edit_cell(out / "fig1.csv", 5, "t_over_tauq", lambda c: repr(float(c) * (1 + 1e-9)))
    assert any("fig1 t_over_tauq" in f for f in _failures("sweeps", out))


def test_moved_fig2_alpha_cell_fails():
    out = _copy("sweeps")
    _edit_cell(out / "fig2_dgamma.csv", 50, "alpha", lambda c: repr(float(c) + 1e-6))
    assert any("fig2 dgamma alpha" in f for f in _failures("sweeps", out))


def test_wrong_fig1_tau_q_fails():
    out = _copy("sweeps")
    _edit_cell(out / "fig1.csv", 0, "tau_q", lambda c: "3.0")
    assert any("fig1 tau_q" in f for f in _failures("sweeps", out))


def test_moved_oracle_field_fails():
    out = _copy("oracle")
    _edit_cell(out / "oracle.csv", 1, "field", lambda c: repr(float(c) + 1e-6))
    assert any("oracle mode field" in f for f in _failures("oracle", out))


def test_flipped_oracle_status_fails():
    out = _copy("oracle")
    _edit_cell(out / "oracle.csv", 0, "status", lambda c: "fail")
    assert any("neither ok nor odd_sector" in f for f in _failures("oracle", out))


def test_loosened_oracle_tol_fails():
    out = _copy("oracle")
    _edit_cell(out / "oracle.csv", 0, "tol", lambda c: "0.001")
    assert any("mode tol" in f for f in _failures("oracle", out))


def test_moved_oracle_numeric_fails():
    out = _copy("oracle")
    _edit_cell(out / "oracle.csv", 0, "numeric", lambda c: repr(float(c) + 2e-4))
    assert any("oracle mode numeric" in f for f in _failures("oracle", out))


def test_broken_rg_invariant_fails():
    out = _copy("sweeps")
    _edit_cell(out / "rg.csv", 500, "K", lambda c: repr(float(c) * (1 + 1e-9)))
    assert any("first integral" in f for f in _failures("sweeps", out))


def test_wrong_rg_label_fails():
    out = _copy("sweeps")
    text = (out / "stdout.txt").read_text()
    (out / "stdout.txt").write_text(text.replace("staggered_order", "luttinger_liquid"))
    assert any("rg --classify label" in f for f in _failures("sweeps", out))


def test_moved_evolved_probability_fails():
    out = _copy("quench-evolve")
    _, col = checks.read_csv(out / "quench.csv")
    row = next(i for i, c in enumerate(col["p_evolved"]) if c != "")
    _edit_cell(out / "quench.csv", row, "p_evolved", lambda c: repr(float(c) + 0.05))
    assert any("p_evolved" in f for f in _failures("quench-evolve", out))


def test_moved_loop_phase_fails():
    out = _copy("ed-large")
    res = json.loads((out / "ed_large.json").read_text())
    res["loops"][0]["phase"] += 0.01
    (out / "ed_large.json").write_text(json.dumps(res))
    assert any("ed-large loop 0" in f for f in _failures("ed-large", out))


def test_spectrum_drift_fails():
    out = _copy("ed-large")
    res = json.loads((out / "ed_large.json").read_text())
    res["spectrum"]["w1"][7] += 1e-9
    (out / "ed_large.json").write_text(json.dumps(res))
    assert any("spectrum drift" in f for f in _failures("ed-large", out))


def test_ed_large_parity_mix():
    rep = checks.check(_plan("ed-large"), _clean_outputs("ed-large"))
    assert (rep.loops_checked, rep.loops_run) == (1, 2)


def test_byte_difference_fails_the_pass():
    base = {"error": None, "exit_codes": [0], "hashes": {"a.csv": "1"}}
    reasons = run._pass_failures([base, {**base, "hashes": {"a.csv": "2"}}, base], [])
    assert reasons[0] is None and reasons[2] is None
    assert "a.csv" in reasons[1]


def test_compare_needs_ten_pairs_for_better():
    base = {s: 1.0 + 0.001 * s for s in range(10)}
    faster = {s: v * 0.8 for s, v in base.items()}
    assert compare.verdict(base, faster, "lower", 0.25)[0] == "better"
    one = {0: base[0]}
    assert compare.verdict(one, {0: faster[0]}, "lower", 0.25)[0] == "unresolved"
    assert compare.verdict(one, {0: 2.0}, "lower", 0.25)[0] == "worse"


def test_tracer_attributes_oracle_calls():
    cli, _ = worker._import_package()
    plan = _plan("oracle")
    original = cli.main
    t = tracer.Tracer()
    t.install()
    try:
        out = _tempdir("trace-")
        t.wrap("bench.pass", lambda: worker._run_cli(cli, plan, out))()
    finally:
        t.uninstall()
    assert cli.main is original
    m = t.layer_metrics()
    steps = SMALL["oracle"]["steps"]
    assert m["edoracle.ground_state.calls"] == checks.ORACLE_LOOPS * steps
    assert m["edoracle.berry_phase_loop.calls"] == checks.ORACLE_LOOPS
    assert m["edoracle.mode_berry_numeric.calls"] == SMALL["oracle"]["grid"] ** 2
    assert m["edoracle.build_hamiltonian.calls"] == 2 * SMALL["oracle"]["spectrum_cases"]
    assert all(v >= 0 for v in m.values())
    assert m["edoracle.ground_state.self_s"] > 0 and m["cli.self_s"] > 0
    clean = _clean_outputs("oracle") / "oracle.csv"
    assert (out / "oracle.csv").read_bytes() == clean.read_bytes()


def test_scaler_cuts_scales_and_restores():
    cli, edoracle = worker._import_package()
    plan = _plan("oracle")
    originals = (cli.main, edoracle.ground_state)
    probe, segment = speed.probe, speed.SEGMENT_S
    ref_s = speed.KERNELS[plan["probe"]][1]
    # A host twice as slow as the reference: scaled times are half the raw ones.
    speed.probe, speed.SEGMENT_S = (lambda kernel: 2 * ref_s), 0.0
    s = speed.Scaler(plan["probe"])
    s.install()
    try:
        s.start()
        out = _tempdir("scale-")
        worker._run_cli(cli, plan, out)
        s.cut()
    finally:
        s.uninstall()
        speed.probe, speed.SEGMENT_S = probe, segment
    assert (cli.main, edoracle.ground_state) == originals
    t = s.totals()
    # SEGMENT_S = 0 cuts after every ground_state call and after cli.main.
    assert t["probes"] >= checks.ORACLE_LOOPS * SMALL["oracle"]["steps"] + 2, t["probes"]
    assert abs(t["wall_scaled_s"] - t["wall_s"] / 2) <= 1e-9 * t["wall_s"], t
    assert abs(t["cpu_scaled_s"] - t["cpu_s"] / 2) <= 1e-9 * t["cpu_s"], t
    clean = _clean_outputs("oracle") / "oracle.csv"
    assert (out / "oracle.csv").read_bytes() == clean.read_bytes()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [*tracer.PASS_METRICS, "edoracle.loops_checked_ratio", "trace_overhead"]


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
