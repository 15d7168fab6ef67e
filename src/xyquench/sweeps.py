"""Deterministic sweep grids and their CSV serialization.

Cells are plain values (float/int/str/bool) or None for points where the
quantity is genuinely undefined (gapless cells stay empty rather than
interpolated).  Floats print with 17 significant digits so that parsing
the emitted text recovers them exactly, and identical inputs give
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, gap_kernel, momentum_grid
from .edoracle import berry_phase_loop, build_hamiltonian, mode_berry_numeric
from .geophase import mode_phase, noncontractibility_scan, phase_slope, total_phase
from .quench import QuenchSchedule, evolve_mode, kink_count
from .rgflow import rg_flow, RGState

TWO_PI = 2.0 * math.pi


class InvariantViolation(RuntimeError):
    """An emitted value broke a hard output invariant; the run must abort."""


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass
class SweepGrid:
    """Rectangular table of scalar results destined for CSV."""

    columns: tuple
    rows: list

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.csv_text())

    @classmethod
    def parse_csv(cls, text: str) -> "SweepGrid":
        lines = [ln for ln in text.split("\n") if ln != ""]
        header = tuple(lines[0].split(","))
        rows = [tuple(_parse_cell(c) for c in ln.split(",")) for ln in lines[1:]]
        return cls(columns=header, rows=rows)

    @classmethod
    def read_csv(cls, path) -> "SweepGrid":
        with open(path, "r", encoding="ascii", newline="") as fh:
            return cls.parse_csv(fh.read())


def validate_bounds(grid: SweepGrid, bounds: dict) -> None:
    """Abort if any emitted value leaves its allowed interval (None cells skipped)."""
    for col, (lo, hi) in bounds.items():
        j = grid.columns.index(col)
        for i, row in enumerate(grid.rows):
            v = row[j]
            if v is None:
                continue
            if not (lo <= v <= hi) or v != v:
                raise InvariantViolation(
                    f"column {col!r} row {i}: value {v!r} outside [{lo}, {hi}]"
                )


def _gamma_cells(k: float, b_values: np.ndarray, alpha: float):
    """Gamma_k over a field array; exact gapless points become None."""
    c, _, lam, gapped = gap_kernel(k, b_values, alpha)
    with np.errstate(invalid="ignore"):
        return _masked(np.pi * (1.0 - c / lam), gapped)


def _deriv_cells(k: float, b_values: np.ndarray, alpha: float):
    """d(Gamma_k)/dB over a field array; exact gapless points become None."""
    _, s, lam, gapped = gap_kernel(k, b_values, alpha)
    return _masked(phase_slope(s, lam), gapped)


def _masked(values: np.ndarray, gapped: np.ndarray) -> list:
    return [float(v) if good else None for v, good in zip(values, gapped)]


def _time_axis(tmin: float, tmax: float, samples: int) -> np.ndarray:
    if samples < 2:
        raise ValueError(f"need at least 2 samples per swept axis, got {samples}")
    if not (tmin < tmax <= 0.0):
        raise ValueError(f"need tmin < tmax <= 0, got [{tmin}, {tmax}]")
    return np.linspace(tmin, tmax, samples)


def fig1_grid(k, alphas, tau_qs, tmin=-3.0, tmax=0.0, samples=600) -> SweepGrid:
    """Gamma_k(t) series over t/tau_q for each anisotropy and quench time."""
    x = _time_axis(tmin, tmax, samples)
    b = np.abs(x)
    rows = []
    for alpha in alphas:
        cells = _gamma_cells(k, b, alpha)
        for tau_q in tau_qs:
            if not tau_q > 0.0:
                raise ValueError(f"tau_q must be > 0, got {tau_q}")
            for xi, gi in zip(x, cells):
                rows.append((float(xi), float(tau_q), float(alpha), gi))
    return SweepGrid(columns=("t_over_tauq", "tau_q", "alpha", "gamma_k"), rows=rows)


def fig2_grids(
    k,
    tau_q=1.0,
    alpha_min=0.0,
    alpha_max=1.0,
    alpha_samples=200,
    tmin=-3.0,
    tmax=0.0,
    samples=200,
):
    """Phase and derivative surfaces over (alpha, t/tau_q) at fixed k.

    Both surfaces depend on time only through t/tau_q, so tau_q rescales
    the time axis without changing the table; it is validated and kept for
    the caller's bookkeeping.
    """
    if not tau_q > 0.0:
        raise ValueError(f"tau_q must be > 0, got {tau_q}")
    if alpha_samples < 2:
        raise ValueError(f"need at least 2 samples per swept axis, got {alpha_samples}")
    if not 0.0 <= alpha_min < alpha_max:
        raise ValueError(f"need 0 <= alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    x = _time_axis(tmin, tmax, samples)
    b = np.abs(x)
    alphas = np.linspace(alpha_min, alpha_max, alpha_samples)
    phase_rows = []
    deriv_rows = []
    for alpha in alphas:
        gcells = _gamma_cells(k, b, float(alpha))
        dcells = _deriv_cells(k, b, float(alpha))
        for xi, gi, di in zip(x, gcells, dcells):
            phase_rows.append((float(alpha), float(xi), gi))
            deriv_rows.append((float(alpha), float(xi), di))
    cols = ("alpha", "t_over_tauq", "value")
    return SweepGrid(columns=cols, rows=phase_rows), SweepGrid(columns=cols, rows=deriv_rows)


def quench_grids(
    n_sites=100,
    tau_qs=(1.0, 10.0, 100.0, 1000.0),
    safety_factor=10.0,
    alpha=1.0,
    evolve=False,
    evolve_modes=4,
    dt=None,
    b_start=5.0,
):
    """Per-mode excitation table and per-tau_q kink summary.

    With evolve=True the evolve_modes smallest momentum pairs get a
    real-time cross-check column (alpha enters only there; the closed-form
    p_k carries no anisotropy dependence).
    """
    spec = ChainSpec(n_sites=n_sites, alpha=alpha)
    k_pos = momentum_grid(spec)
    k_all = np.concatenate((-k_pos[::-1], k_pos))
    mode_rows = []
    summary_rows = []
    for tau_q in tau_qs:
        rep = kink_count(spec, tau_q, safety_factor=safety_factor)
        p_all = [rep.per_mode_p[float(k)] for k in k_all]
        evolved = {}
        if evolve:
            schedule = QuenchSchedule.from_field(tau_q, b_start)
            for kk in k_pos[: max(0, int(evolve_modes))]:
                evolved[float(kk)] = evolve_mode(float(kk), alpha, schedule, dt=dt)
        for k, p in zip(k_all, p_all):
            row = (float(tau_q), float(k), float(p))
            mode_rows.append(row + (evolved.get(abs(float(k))),) if evolve else row)
        summary_rows.append(
            (float(tau_q), rep.kink_count, rep.threshold, rep.safety_factor, rep.adiabatic)
        )
    mode_cols = ("tau_q", "k", "p_k") + (("p_evolved",) if evolve else ())
    summary_cols = ("tau_q", "kink_count", "threshold", "safety_factor", "adiabatic")
    return (
        SweepGrid(columns=mode_cols, rows=mode_rows),
        SweepGrid(columns=summary_cols, rows=summary_rows),
    )


def rg_grid(initials, l_max=5.0, dl=1e-3, alpha_cap=1e3) -> SweepGrid:
    """One RK4 trajectory per initial (alpha, K), serialized row-per-step."""
    rows = []
    for idx, (alpha0, k0) in enumerate(initials):
        traj = rg_flow(RGState(alpha=alpha0, K=k0), l_max=l_max, dl=dl, alpha_cap=alpha_cap)
        for st in traj.states:
            rows.append((idx, st.l, st.alpha, st.K, traj.status))
    return SweepGrid(columns=("traj", "l", "alpha", "K", "status"), rows=rows)


def noncontract_grid(field=0.5, alphas=(10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4), sizes=(100, 1000, 10000)) -> SweepGrid:
    rows = [
        (a, n, g) for a, n, g in noncontractibility_scan(field, alphas, sizes)
    ]
    return SweepGrid(columns=("alpha", "n_sites", "gamma_g_over_m"), rows=rows)


_LOOP_CASES = ((4, 0.5, 0.0), (4, 1.0, 0.5), (6, 1.0, 0.5), (6, 0.8, 0.3))


def _circular_diff(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def oracle_report(
    seed=0,
    steps=10000,
    grid_size=20,
    nsites=(4, 6),
    k=math.pi / 2,
    mode_tol=1e-4,
    loop_tol=1e-3,
    spectrum_tol=1e-10,
    spectrum_cases=20,
):
    """Analytic-vs-numeric equivalence suite; returns (report grid, failure count).

    Three families: per-mode discretized loops against pi*(1 - cos theta_k)
    on a seeded (field, alpha) grid; many-body ground-state loops against
    the chain phase sum modulo 2pi (odd-parity ground states are reported
    as odd_sector rows, not failures); spectrum invariance of the rotated
    Hamiltonian at N = 6.  All randomness is drawn once from the seed, so
    a fixed seed gives a byte-identical report.
    """
    rng = np.random.default_rng(seed)
    b_vals = rng.uniform(-1.5, 1.5, int(grid_size))
    a_vals = rng.uniform(0.05, 2.0, int(grid_size))
    spec_draws = rng.uniform(0.0, 1.0, (int(spectrum_cases), 3))

    rows = []
    failures = 0

    mode_points = [(float(bv), float(av)) for bv in b_vals for av in a_vals]
    for i, (bv, av) in enumerate(mode_points):
        analytic = float(mode_phase(k, bv, av))
        numeric = mode_berry_numeric(k, bv, av, steps=steps)
        diff = abs(analytic - numeric)
        ok = diff <= mode_tol
        failures += 0 if ok else 1
        rows.append(
            (f"mode_{i:04d}", None, float(k), av, bv, None, analytic, numeric, diff,
             mode_tol, "ok" if ok else "fail")
        )

    loop_cases = [c for c in _LOOP_CASES if c[0] in set(int(n) for n in nsites)]
    for i, (n, av, bv) in enumerate(loop_cases):
        spec = ChainSpec(n_sites=n, alpha=av)
        analytic = total_phase(spec, bv) % TWO_PI
        res = berry_phase_loop(n, av, bv, steps=steps)
        if res.degenerate:
            rows.append(
                (f"loop_{i:02d}", n, None, av, bv, None, analytic, None, None,
                 loop_tol, "degenerate")
            )
            failures += 1
            continue
        diff = _circular_diff(analytic, res.phase)
        if res.parity < 0.0:
            status = "odd_sector"
        elif diff <= loop_tol and res.valid:
            status = "ok"
        else:
            status = "fail"
            failures += 1
        rows.append(
            (f"loop_{i:02d}", n, None, av, bv, None, analytic, res.phase, diff,
             loop_tol, status)
        )

    for i in range(int(spectrum_cases)):
        av = 1.5 * spec_draws[i, 0]
        bv = 2.0 * spec_draws[i, 1]
        phi = math.pi * spec_draws[i, 2]
        w0 = np.linalg.eigvalsh(build_hamiltonian(6, av, bv, 0.0))
        w1 = np.linalg.eigvalsh(build_hamiltonian(6, av, bv, phi))
        drift = float(np.max(np.abs(w1 - w0)))
        ok = drift <= spectrum_tol
        failures += 0 if ok else 1
        rows.append(
            (f"spectrum_{i:02d}", 6, None, av, bv, phi, 0.0, drift, drift,
             spectrum_tol, "ok" if ok else "fail")
        )

    grid = SweepGrid(
        columns=("case", "n_sites", "k", "alpha", "field", "phi", "analytic",
                 "numeric", "abs_diff", "tol", "status"),
        rows=rows,
    )
    return grid, failures
