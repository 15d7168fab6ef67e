import json
import math

import pytest

from xyquench import SweepGrid, mode_phase
from xyquench.cli import main
from xyquench.sweeps import (
    InvariantViolation,
    fig1_grid,
    fig2_grids,
    noncontract_grid,
    oracle_report,
    quench_grids,
    rg_grid,
    validate_bounds,
)

TWO_PI = 2.0 * math.pi


# -------------------------------------------------------------------- CSV core

def test_csv_round_trip_exact():
    grid = SweepGrid(
        columns=("a", "b", "c", "d"),
        rows=[
            (0.1, 1, None, "ok"),
            (-3.0000000000000004e-16, 7, 2.5, "fail"),
            (math.pi, -2, True, ""),
        ],
    )
    back = SweepGrid.parse_csv(grid.csv_text())
    assert back.columns == grid.columns
    for got, want in zip(back.rows, grid.rows):
        for g, w in zip(got, want):
            if w == "":
                assert g is None  # empty strings and missing cells coincide in CSV
            else:
                assert g == w


def test_csv_seventeen_digit_floats():
    grid = SweepGrid(columns=("x",), rows=[(0.1,)])
    assert "0.10000000000000001" in grid.csv_text()


def test_csv_lf_line_endings(tmp_path):
    grid = SweepGrid(columns=("x", "y"), rows=[(1.0, 2.0)])
    p = tmp_path / "t.csv"
    grid.write_csv(p)
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_validate_bounds_raises():
    grid = SweepGrid(columns=("gamma",), rows=[(1.0,), (7.0,)])
    with pytest.raises(InvariantViolation):
        validate_bounds(grid, {"gamma": (0.0, TWO_PI)})
    validate_bounds(SweepGrid(columns=("gamma",), rows=[(1.0,), (None,)]), {"gamma": (0.0, TWO_PI)})


# ------------------------------------------------------------------- fig grids

def test_fig1_columns_and_step():
    grid = fig1_grid(k=math.pi / 100, alphas=[0.5, 0.0], tau_qs=[1.0, 2.0], samples=600)
    assert grid.columns == ("t_over_tauq", "tau_q", "alpha", "gamma_k")
    assert len(grid.rows) == 2 * 2 * 600
    xx = [r for r in grid.rows if r[2] == 0.0 and r[1] == 1.0]
    vals = [r[3] for r in xx]
    assert set(vals) == {0.0, TWO_PI}
    jumps = [i for i in range(len(vals) - 1) if vals[i] != vals[i + 1]]
    assert len(jumps) == 1
    # the jump brackets B = cos k within one t-cell
    i = jumps[0]
    b_lo, b_hi = abs(xx[i + 1][0]), abs(xx[i][0])
    assert b_lo < math.cos(math.pi / 100) < b_hi


def test_fig1_t0_row_value():
    grid = fig1_grid(k=math.pi / 100, alphas=[0.5], tau_qs=[1.0], samples=10)
    last = grid.rows[-1]
    assert last[0] == 0.0
    k = math.pi / 100
    expected = math.pi * (1 - math.cos(k) / math.sqrt(math.cos(k) ** 2 + 0.25 * math.sin(k) ** 2))
    assert last[3] == pytest.approx(expected, rel=1e-13)


def test_fig1_deep_field_rows_near_two_pi():
    grid = fig1_grid(k=math.pi / 100, alphas=[0.5, 0.0], tau_qs=[1.0], samples=5)
    first = [r for r in grid.rows if r[0] == -3.0]
    for r in first:
        assert r[3] == pytest.approx(TWO_PI, abs=1e-3)


def test_fig1_emits_empty_cell_at_exact_crossing():
    # the final grid point lands exactly on B = cos k: gapless, emitted empty
    k = 0.8
    grid = fig1_grid(k=k, alphas=[0.0], tau_qs=[1.0], tmin=-2.0, tmax=-math.cos(k), samples=5)
    cells = [r[3] for r in grid.rows]
    assert cells[-1] is None
    assert all(c is not None for c in cells[:-1])
    assert grid.csv_text().splitlines()[-1].endswith(",")


def test_fig2_shapes_and_ridge():
    phase, deriv = fig2_grids(k=math.pi / 2, alpha_samples=50, samples=50)
    assert phase.columns == ("alpha", "t_over_tauq", "value")
    assert len(phase.rows) == 50 * 50 and len(deriv.rows) == 50 * 50
    # alpha = 0 derivative row: all zeros (sin k finite but alpha^2 kills it)
    a0 = [r[2] for r in deriv.rows if r[0] == 0.0]
    assert all(v == 0.0 or v is None for v in a0)
    # each alpha > 0 row peaks at the t closest to -tau_q cos k = 0
    by_alpha = {}
    for a, x, v in deriv.rows:
        if a > 0 and v is not None:
            by_alpha.setdefault(a, []).append((x, v))
    for a, cells in by_alpha.items():
        x_star, _ = max(cells, key=lambda c: c[1])
        assert x_star == 0.0


def test_fig2_validation():
    with pytest.raises(ValueError):
        fig2_grids(k=1.0, tau_q=-1.0)
    with pytest.raises(ValueError):
        fig2_grids(k=1.0, alpha_min=0.5, alpha_max=0.2)


# ------------------------------------------------------------------ quench grid

def test_quench_grid_column_consistency():
    modes, summary = quench_grids(n_sites=100, tau_qs=(10.0,))
    assert modes.columns == ("tau_q", "k", "p_k")
    col = [r[2] for r in modes.rows]
    assert len(col) == 100
    total = summary.rows[0][1]
    assert total == pytest.approx(sum(col), rel=1e-13)


def test_quench_grid_evolve_column():
    modes, _ = quench_grids(n_sites=10, tau_qs=(1.0,), evolve=True, evolve_modes=2)
    assert modes.columns == ("tau_q", "k", "p_k", "p_evolved")
    k0 = math.pi / 10
    filled = {r[1]: r[3] for r in modes.rows if r[3] is not None}
    assert set(filled) == {k0, -k0, 3 * k0, -3 * k0}
    for k, pe in filled.items():
        assert pe == filled[-k]  # pair symmetry


def test_quench_summary_flags():
    _, summary = quench_grids(n_sites=100, tau_qs=(1000.0, 2000.0))
    assert summary.columns == ("tau_q", "kink_count", "threshold", "safety_factor", "adiabatic")
    flags = {r[0]: r[4] for r in summary.rows}
    assert flags[1000.0] is False and flags[2000.0] is True


# ------------------------------------------------------------------- rg grid

def test_rg_grid_serialization():
    grid = rg_grid([(0.0, 0.3), (0.1, 1.0)], l_max=4.0, dl=0.1, alpha_cap=0.5)
    assert grid.columns == ("traj", "l", "alpha", "K", "status")
    t0 = [r for r in grid.rows if r[0] == 0]
    t1 = [r for r in grid.rows if r[0] == 1]
    assert all(r[4] == "completed" for r in t0)
    assert t1[-1][4] == "strong_coupling"
    assert all(r[2] == 0.0 for r in t0)  # fixed line stays put


# ------------------------------------------------------------------ noncontract

def test_noncontract_grid_rows():
    grid = noncontract_grid(field=0.0, alphas=(0.5,), sizes=(10, 20))
    assert grid.columns == ("alpha", "n_sites", "gamma_g_over_m")
    assert [r[1] for r in grid.rows] == [10, 20]
    for r in grid.rows:
        assert r[2] == pytest.approx(math.pi, rel=1e-12)


# ---------------------------------------------------------------- oracle report

def test_oracle_report_passes_with_defaults_small():
    grid, failures = oracle_report(seed=3, steps=1500, grid_size=4, spectrum_cases=3)
    assert failures == 0
    statuses = {r[-1] for r in grid.rows}
    assert statuses <= {"ok", "odd_sector"}
    kinds = {r[0].split("_")[0] for r in grid.rows}
    assert kinds == {"mode", "loop", "spectrum"}


def test_oracle_report_corrupted_tolerance_fails():
    _, failures = oracle_report(seed=3, steps=1500, grid_size=2, spectrum_cases=2,
                                mode_tol=1e-12)
    assert failures > 0


def test_oracle_report_deterministic():
    g1, _ = oracle_report(seed=9, steps=1000, grid_size=3, spectrum_cases=2)
    g2, _ = oracle_report(seed=9, steps=1000, grid_size=3, spectrum_cases=2)
    assert g1.csv_text() == g2.csv_text()


# ------------------------------------------------------------------------- CLI

def test_cli_fig1_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fig1", "--samples", "50", "--tauq", "1", "--tauq", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_fig2_writes_two_files(tmp_path):
    out = tmp_path / "surf.csv"
    rc = main(["fig2", "--out", str(out), "--samples", "20", "--alpha-samples", "20"])
    assert rc == 0
    assert (tmp_path / "surf_gamma.csv").exists()
    assert (tmp_path / "surf_dgamma.csv").exists()


def test_cli_quench_summary(tmp_path, capsys):
    out = tmp_path / "q.csv"
    summ = tmp_path / "s.csv"
    rc = main(["quench", "--out", str(out), "--nsites", "10", "--tauq", "2000",
               "--summary", str(summ)])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    payload = json.loads(lines[0])
    assert payload["adiabatic"] is True
    assert payload["excluded_modes"] == [math.pi / 10]
    grid = SweepGrid.read_csv(summ)
    assert grid.rows[0][4] is True


def test_cli_rg_classify(tmp_path, capsys):
    out = tmp_path / "rg.csv"
    rc = main(["rg", "--out", str(out), "--initial", "1.0,1.0", "--lmax", "0.5",
               "--dl", "0.01", "--classify", "--field", "10.0"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert json.loads(lines[0])["phase"] == "ferromagnetic"


def test_cli_noncontract(tmp_path):
    out = tmp_path / "nc.csv"
    rc = main(["noncontract", "--out", str(out), "--alpha", "0.5", "--nsites", "100"])
    assert rc == 0
    grid = SweepGrid.read_csv(out)
    assert len(grid.rows) == 1


def test_cli_noncontract_bad_field_exit_2(tmp_path):
    rc = main(["noncontract", "--out", str(tmp_path / "x.csv"), "--field", "1.5"])
    assert rc == 2


def test_cli_oracle_exit_codes(tmp_path):
    out = tmp_path / "o.csv"
    base = ["oracle", "--out", str(out), "--steps", "1200", "--grid", "3",
            "--spectrum-cases", "2", "--nsites", "4"]
    assert main(base) == 0
    assert main(base + ["--mode-tol", "1e-12"]) == 1


def test_cli_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fig1": {"samples": 40, "tauq": [3.0]}}))
    out = tmp_path / "c.csv"
    rc = main(["fig1", "--out", str(out), "--config", str(cfg), "--samples", "20"])
    assert rc == 0
    grid = SweepGrid.read_csv(out)
    # config tauq list applies, explicit --samples overrides the config value
    assert len(grid.rows) == 2 * 1 * 20
    assert {r[1] for r in grid.rows} == {3.0}


def test_cli_bad_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_invariant_violation_exit_1(tmp_path, monkeypatch):
    import xyquench.sweeps as sweeps_mod

    def broken(*args, **kwargs):
        return SweepGrid(columns=("t_over_tauq", "tau_q", "alpha", "gamma_k"),
                         rows=[(0.0, 1.0, 0.5, 100.0)])

    monkeypatch.setattr(sweeps_mod, "fig1_grid", broken)
    rc = main(["fig1", "--out", str(tmp_path / "bad.csv")])
    assert rc == 1


def test_cli_emitted_phase_values_in_range(tmp_path):
    out = tmp_path / "f.csv"
    main(["fig1", "--out", str(out), "--samples", "100"])
    grid = SweepGrid.read_csv(out)
    for r in grid.rows:
        if r[3] is not None:
            assert 0.0 <= r[3] <= TWO_PI


def test_mode_phase_matches_fig1_cells():
    grid = fig1_grid(k=0.5, alphas=[0.7], tau_qs=[2.0], samples=7)
    for x, tq, a, g in grid.rows:
        assert g == pytest.approx(float(mode_phase(0.5, abs(x), 0.7)), rel=1e-14)

