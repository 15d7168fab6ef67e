"""Deterministic sweep grids and their CSV serialization.

A grid is an ordered dict of named numpy columns of equal length.  Cells
where the quantity is genuinely undefined are masked with numpy.ma
(gapless points stay empty rather than interpolated, as do modes that
were not evolved and oracle fields that do not apply to a row).  Each
column is formatted once, by its dtype: floats with 17 significant
digits so that parsing the text recovers them exactly, ints and strings
with str, bools as true/false, masked cells as "".  Identical inputs
give byte-identical files.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, gap_kernel, momentum_grid, refuse_over_budget
from .edoracle import (berry_phase_loop, build_hamiltonian, free_fermion_levels,
                       mode_berry_numeric, parity_block_levels)
from .geophase import mode_phase, noncontractibility_scan, phase_slope, total_phase
from .quench import QuenchSchedule, evolve_mode, kink_count, ramp_steps
from . import quench, rgflow
from .rgflow import rg_flow, RGState

TWO_PI = 2.0 * math.pi
# rows, or closed-form momenta, per table; 10^6 fig2 rows take about 4 s and 0.35 GB
_MAX_CELLS = 10**6

# cell text by dtype kind; anything else (ints, strings) prints with str
_FORMATS = {"f": "{:.17g}".format, "b": lambda v: "true" if v else "false"}


class InvariantViolation(RuntimeError):
    """An emitted value broke a hard output invariant; the run must abort."""


def _column_text(col) -> list:
    kind = col.dtype.kind
    if kind == "f":
        # format each distinct value once, keyed on its bits: -0.0 and 0.0 print differently
        data = np.ma.getdata(col).astype(np.float64)
        bits, index = np.unique(data.view(np.int64), return_inverse=True)
        text = np.array([_FORMATS["f"](v) for v in bits.view(np.float64).tolist()], dtype=object)
        cells = text[index.reshape(-1)]
        cells[np.ma.getmaskarray(col)] = ""
        return cells.tolist()
    fmt = _FORMATS.get(kind, str)
    return ["" if v is None else fmt(v) for v in col.tolist()]  # masked cells list as None


@dataclass(eq=False)
class SweepGrid:
    """Named 1-d columns of equal length, in CSV order; masked cells are undefined."""

    columns: dict

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise InvariantViolation(f"columns of unequal length: {lengths}")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def csv_text(self) -> str:
        cells = zip(*(_column_text(col) for col in self.columns.values()))
        return "\n".join([",".join(self.columns), *map(",".join, cells)]) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.csv_text())


def validate_bounds(grid: SweepGrid, bounds: dict) -> None:
    """Abort if an emitted value is NaN or leaves its allowed interval; masked cells are skipped."""
    for col, (lo, hi) in bounds.items():
        values = grid.columns[col]
        data = np.ma.getdata(values)
        bad = ~((lo <= data) & (data <= hi)) & ~np.ma.getmaskarray(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantViolation(
                f"column {col!r} row {i}: value {data[i].item()!r} outside [{lo}, {hi}]"
            )


def _gamma_cells(k: float, b_values: np.ndarray, alpha):
    """Gamma_k over a field array (broadcast against alpha); gapless points masked."""
    c, _, lam, gapped = gap_kernel(k, b_values, alpha)
    with np.errstate(invalid="ignore"):
        return np.ma.masked_array(np.pi * (1.0 - c / lam), mask=~gapped)


def _deriv_cells(k: float, b_values: np.ndarray, alpha):
    """d(Gamma_k)/dB over a field array (broadcast against alpha); gapless points masked."""
    _, s, lam, gapped = gap_kernel(k, b_values, alpha)
    return np.ma.masked_array(phase_slope(s, lam), mask=~gapped)


def _refuse_cells(cells: int, remedy: str = "use fewer samples", axes=()) -> None:
    """Refuse a grid over the cell budget before allocating; first name any axis under 2 samples."""
    for samples in axes:
        if samples < 2:
            raise ValueError(f"need at least 2 samples per swept axis, got {samples}")
    refuse_over_budget(cells, _MAX_CELLS, "the grid has", "cells", remedy)


def _time_axis(tmin: float, tmax: float, samples: int) -> np.ndarray:
    if not (tmin < tmax <= 0.0):
        raise ValueError(f"need tmin < tmax <= 0, got [{tmin}, {tmax}]")
    return np.linspace(tmin, tmax, samples)


def fig1_grid(k, alphas, tau_qs, tmin=-3.0, tmax=0.0, samples=600) -> SweepGrid:
    """Gamma_k(t) series over t/tau_q for each anisotropy and quench time."""
    for alpha in alphas:
        if not alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
    _refuse_cells(len(alphas) * len(tau_qs) * samples, axes=(samples,))
    x = _time_axis(tmin, tmax, samples)
    for tau_q in tau_qs:
        if not tau_q > 0.0:
            raise ValueError(f"tau_q must be > 0, got {tau_q}")
    a = np.asarray(alphas, dtype=float)
    taus = np.asarray(tau_qs, dtype=float)
    gamma = _gamma_cells(k, np.abs(x), a[:, None])  # (alpha, t)
    return SweepGrid({
        "t_over_tauq": np.tile(x, a.size * taus.size),
        "tau_q": np.tile(np.repeat(taus, x.size), a.size),
        "alpha": np.repeat(a, taus.size * x.size),
        "gamma_k": gamma.repeat(taus.size, axis=0).ravel(),
    })


def fig2_grids(k, alpha_min=0.0, alpha_max=1.0, alpha_samples=200, tmin=-3.0, tmax=0.0,
               samples=200):
    """Phase and derivative surfaces over (alpha, t/tau_q) at fixed k.

    Both surfaces depend on time only through t/tau_q, so one table serves
    every quench time.
    """
    _refuse_cells(alpha_samples * samples, axes=(alpha_samples, samples))
    if not 0.0 <= alpha_min < alpha_max:
        raise ValueError(f"need 0 <= alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    x = _time_axis(tmin, tmax, samples)
    alphas = np.linspace(alpha_min, alpha_max, alpha_samples)
    axes = {"alpha": np.repeat(alphas, x.size), "t_over_tauq": np.tile(x, alphas.size)}
    b, a = np.abs(x), alphas[:, None]  # one (alpha, t) broadcast per surface
    return (
        SweepGrid({**axes, "value": _gamma_cells(k, b, a).ravel()}),
        SweepGrid({**axes, "value": _deriv_cells(k, b, a).ravel()}),
    )


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

    p_k is the paper's alpha = 1 Landau-Zener form exp(-2 pi tau_q k^2),
    unchanged at every alpha; with evolve=True the evolve_modes smallest
    momentum pairs get a real-time column, the only one that reads alpha.
    A pair whose crossing B = cos k the ramp window does not cover is not
    evolved: its cells stay masked, and one UserWarning names every such k.
    Before any pair runs, the step rule quench.ramp_steps refuses with
    ValueError a covered pair, then a table, over quench._MAX_STEPS steps.
    """
    spec = ChainSpec(n_sites=n_sites, alpha=alpha)
    if evolve and not evolve_modes >= 0:
        raise ValueError(f"evolve_modes must be >= 0, got {evolve_modes}")
    if evolve and not b_start > 0.0:
        raise ValueError(f"b_start must be > 0 for the evolved ramp, got {b_start}")
    # the momentum grid is built even for an empty tau_q list
    _refuse_cells(max(len(tau_qs), 1) * n_sites, "use fewer sites or tau_q values")
    k_pos = momentum_grid(spec)
    k_all = np.concatenate((-k_pos[::-1], k_pos))
    reps, covered, uncovered, steps = [], [], set(), 0  # covered: (row, column, k, schedule)
    for i, tau_q in enumerate(tau_qs):
        reps.append(kink_count(spec, tau_q, safety_factor=safety_factor))
        if evolve:
            schedule = QuenchSchedule.from_field(tau_q, b_start)
            for j, kk in enumerate(k_pos[:int(evolve_modes)].tolist()):
                if schedule.covers(kk):
                    covered.append((i, j, kk, schedule))
                    steps += ramp_steps(kk, alpha, schedule, dt)[0]
                else:
                    uncovered.add(kk)
    refuse_over_budget(steps, quench._MAX_STEPS, f"the {len(covered)} evolved pairs need",
                       "steps in all", "use fewer modes, fewer or smaller tau_q or a larger dt")
    if uncovered:
        warnings.warn(
            f"p_evolved left empty at k = {', '.join(f'+/-{kk:g}' for kk in sorted(uncovered))}: "
            f"the ramp from B = {b_start:g} to 0 does not cover the crossing B = cos k",
            stacklevel=2,
        )
    taus = np.asarray(tau_qs, dtype=float)
    modes = {
        "tau_q": np.repeat(taus, k_all.size),
        "k": np.tile(k_all, taus.size),
        "p_k": np.array([rep.p_k for rep in reps], dtype=float).ravel(),
    }
    if evolve:
        # one value per +/-k pair; the modes past evolve_modes or uncovered stay masked
        half = np.ma.masked_all((taus.size, k_pos.size))
        for i, j, kk, schedule in covered:
            half[i, j] = evolve_mode(kk, alpha, schedule, dt=dt).probability
        modes["p_evolved"] = np.ma.hstack((half[:, ::-1], half)).ravel()
    summary = {
        "tau_q": taus,
        "kink_count": np.array([r.kink_count for r in reps], dtype=float),
        "threshold": np.array([r.threshold for r in reps], dtype=float),
        "safety_factor": np.full(taus.size, safety_factor, dtype=float),
        "adiabatic": np.array([r.adiabatic for r in reps], dtype=bool),
    }
    return SweepGrid(modes), SweepGrid(summary)


def rg_grid(initials, l_max=5.0, dl=1e-3, alpha_cap=1e3) -> SweepGrid:
    """One RK4 trajectory per initial (alpha, K), serialized row-per-step.

    The grid holds every trajectory at once, so the step budget bounds
    their sum, refused before the first flow runs.
    """
    starts = [RGState(alpha=a0, K=k0) for a0, k0 in initials]
    total = sum(rgflow.step_estimate(st, l_max, dl) for st in starts)
    refuse_over_budget(total, rgflow._MAX_STEPS, f"the {len(starts)} flows need about",
                       "RK4 steps in all",
                       "use fewer initial points, a larger dl or a smaller l_max")
    trajs = [rg_flow(st, l_max=l_max, dl=dl, alpha_cap=alpha_cap) for st in starts]
    steps = [t.l.size for t in trajs]
    empty = np.empty(0)  # keeps a run with no initial point a header-only table
    return SweepGrid({
        "traj": np.repeat(np.arange(len(trajs)), steps),
        **{name: np.concatenate([empty, *(getattr(t, name) for t in trajs)])
           for name in ("l", "alpha", "K")},
        "status": np.repeat(np.array([t.status for t in trajs], dtype=str), steps),
    })


def noncontract_grid(field=0.5, alphas=(10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4), sizes=(100, 1000, 10000)) -> SweepGrid:
    # each size is checked, and a bad one refused by name, before it counts against the budget
    momenta = sum(ChainSpec(n_sites=int(n), alpha=1.0).n_sites // 2 for n in sizes)
    _refuse_cells(len(alphas) * momenta, "use fewer or smaller sizes")
    return SweepGrid({
        "alpha": np.repeat(np.asarray(alphas, dtype=float), len(sizes)),
        "n_sites": np.tile(np.asarray([int(n) for n in sizes], dtype=int), len(alphas)),
        "gamma_g_over_m": noncontractibility_scan(field, alphas, sizes).ravel(),
    })


_LOOP_CASES = ((4, 0.5, 0.0), (4, 1.0, 0.5), (6, 1.0, 0.5), (6, 0.8, 0.3))


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
    """Analytic-vs-numeric equivalence suite; returns (report grid, failing rows).

    The grid stacks three blocks, each built column by column: per-mode
    loops against pi*(1 - cos theta_k) on a seeded (field, alpha) grid, in
    one call; one berry_phase_loop per many-body case against the chain
    phase sum modulo 2pi, its status the first that holds of degenerate,
    odd_sector (an odd-parity ground state, not a failure), ok and fail; the
    levels of H(0) at N = 6 against free_fermion_levels, numeric being the
    worst level difference over both parity blocks, from one broadcast
    build_hamiltonian and one eigvalsh per block.  Their phi is the third
    seeded draw of each case, reported as a coordinate and not used.  A
    column a block lacks is masked on its rows, as are numeric and abs_diff
    of a degenerate loop.  A fixed seed gives a byte-identical report.
    `nsites` picks the loop cases by size; a size with no loop case, a
    negative size or a report over the row budget raises ValueError before
    anything is drawn.  Failing rows are (case, abs_diff, tol), None if masked.
    """
    for name, size in (("grid", grid_size), ("spectrum_cases", spectrum_cases)):
        if not size >= 0:
            raise ValueError(f"{name} must be >= 0, got {size}")
    sizes = {int(n) for n in nsites}
    supported = sorted({c[0] for c in _LOOP_CASES})
    unknown = sorted(sizes - set(supported))
    if unknown:
        raise ValueError(
            f"no many-body loop case for nsites {', '.join(map(str, unknown))}; "
            f"the supported sizes are {', '.join(map(str, supported))}"
        )
    loop_cases = [c for c in _LOOP_CASES if c[0] in sizes]
    _refuse_cells(int(grid_size) ** 2 + len(loop_cases) + int(spectrum_cases),
                  "use a smaller grid or fewer spectrum cases")
    rng = np.random.default_rng(seed)
    b_vals = rng.uniform(-1.5, 1.5, int(grid_size))
    a_vals = rng.uniform(0.05, 2.0, int(grid_size))
    spec_draws = rng.uniform(0.0, 1.0, (int(spectrum_cases), 3))

    # field-major mode points; the analytic and the numeric phases are one call each
    fields = np.repeat(b_vals, a_vals.size)
    alphas = np.tile(a_vals, b_vals.size)
    analytic = mode_phase(k, fields, alphas)
    numeric = mode_berry_numeric(k, fields, alphas, steps=steps)
    diff = np.abs(analytic - numeric)
    modes = dict(case=np.char.mod("mode_%04d", np.arange(diff.size)),
                 k=np.full(diff.size, float(k)), alpha=alphas, field=fields, analytic=analytic,
                 numeric=numeric, abs_diff=diff, tol=np.full(diff.size, mode_tol),
                 status=np.where(diff <= mode_tol, "ok", "fail"))

    # a degenerate loop has no phase, so its numeric and abs_diff are masked
    analytic = np.array([total_phase(ChainSpec(n_sites=n, alpha=av), bv) % TWO_PI
                         for n, av, bv in loop_cases], dtype=float)
    res = [berry_phase_loop(n, av, bv, steps=steps) for n, av, bv in loop_cases]
    phase = np.array([r.phase for r in res], dtype=float)
    parity = np.array([r.parity for r in res], dtype=float)
    degenerate = np.array([r.degenerate for r in res], dtype=bool)
    diff = np.abs((analytic - phase + math.pi) % TWO_PI - math.pi)
    # the representative of the phase nearest analytic, so that
    # abs_diff = |numeric - analytic| on either side of the 0/2pi cut
    numeric = phase + TWO_PI * np.round((analytic - phase) / TWO_PI)
    loops = dict(case=np.char.mod("loop_%02d", np.arange(analytic.size)),
                 n_sites=np.array([c[0] for c in loop_cases], dtype=int),
                 alpha=[c[1] for c in loop_cases], field=[c[2] for c in loop_cases],
                 analytic=analytic, numeric=np.ma.masked_array(numeric, mask=degenerate),
                 abs_diff=np.ma.masked_array(diff, mask=degenerate),
                 tol=np.full(analytic.size, loop_tol),
                 status=np.select([degenerate, parity < 0.0, diff <= loop_tol],
                                  ["degenerate", "odd_sector", "ok"], "fail"))

    # phi is drawn and reported but not used: every level of H(0) has a closed form
    av, bv, phi = 1.5 * spec_draws[:, 0], 2.0 * spec_draws[:, 1], math.pi * spec_draws[:, 2]
    drift = np.zeros(av.size)
    for levels, ref in zip(parity_block_levels(build_hamiltonian(6, av, bv)),
                           free_fermion_levels(6, av, bv)):
        drift = np.maximum(drift, np.max(np.abs(levels - ref), axis=-1))
    spectra = dict(case=np.char.mod("spectrum_%02d", np.arange(drift.size)),
                   n_sites=np.full(drift.size, 6), alpha=av, field=bv, phi=phi,
                   analytic=np.zeros(drift.size), numeric=drift, abs_diff=drift,
                   tol=np.full(drift.size, spectrum_tol),
                   status=np.where(drift <= spectrum_tol, "ok", "fail"))

    # a column that a family does not have is masked on its rows
    columns = {name: np.ma.concatenate([
        np.ma.masked_array(fam[name]) if name in fam
        else np.ma.masked_all(len(fam["case"]), dtype=int) for fam in (modes, loops, spectra)])
        for name in ("case", "n_sites", "k", "alpha", "field", "phi", "analytic",
                     "numeric", "abs_diff", "tol", "status")}
    failing = np.isin(columns["status"], ("fail", "degenerate"))
    return SweepGrid(columns), list(zip(*(columns[name][failing].tolist()
                                          for name in ("case", "abs_diff", "tol"))))
