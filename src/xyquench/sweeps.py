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

from .chain import ChainSpec, gap_kernel, momentum_grid
from .edoracle import berry_phase_loop, build_hamiltonian, mode_berry_numeric
from .geophase import mode_phase, noncontractibility_scan, phase_slope, total_phase
from .quench import QuenchSchedule, evolve_mode, kink_count
from . import rgflow
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


def _refuse_cells(cells: int, remedy: str = "use fewer samples") -> None:
    """Refuse a grid over the cell budget before any of it is allocated."""
    if cells > _MAX_CELLS:
        raise ValueError(
            f"the grid has {cells:.10g} cells, above the budget of {_MAX_CELLS:.0e}; {remedy}"
        )


def _time_axis(tmin: float, tmax: float, samples: int) -> np.ndarray:
    if samples < 2:
        raise ValueError(f"need at least 2 samples per swept axis, got {samples}")
    if not (tmin < tmax <= 0.0):
        raise ValueError(f"need tmin < tmax <= 0, got [{tmin}, {tmax}]")
    return np.linspace(tmin, tmax, samples)


def fig1_grid(k, alphas, tau_qs, tmin=-3.0, tmax=0.0, samples=600) -> SweepGrid:
    """Gamma_k(t) series over t/tau_q for each anisotropy and quench time."""
    for alpha in alphas:
        if not alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
    _refuse_cells(len(alphas) * len(tau_qs) * samples)
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
    _refuse_cells(alpha_samples * samples)
    if alpha_samples < 2:
        raise ValueError(f"need at least 2 samples per swept axis, got {alpha_samples}")
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

    With evolve=True the evolve_modes smallest momentum pairs get a
    real-time cross-check column (alpha enters only there; the closed-form
    p_k carries no anisotropy dependence).  A pair whose crossing B = cos k
    the ramp window does not cover is not evolved: its cells stay masked,
    and one UserWarning names every such k.
    """
    spec = ChainSpec(n_sites=n_sites, alpha=alpha)
    if evolve and not evolve_modes >= 0:
        raise ValueError(f"evolve_modes must be >= 0, got {evolve_modes}")
    if evolve and not b_start > 0.0:
        raise ValueError(f"b_start must be > 0 for the evolved ramp, got {b_start}")
    _refuse_cells(len(tau_qs) * n_sites, "use fewer sites or tau_q values")
    k_pos = momentum_grid(spec)
    k_all = np.concatenate((-k_pos[::-1], k_pos))
    n_evolved = min(int(evolve_modes), k_pos.size)
    reps, evolved, uncovered = [], [], set()
    for tau_q in tau_qs:
        reps.append(kink_count(spec, tau_q, safety_factor=safety_factor))
        if evolve:
            schedule = QuenchSchedule.from_field(tau_q, b_start)
            uncovered.update(float(kk) for kk in k_pos[:n_evolved] if not schedule.covers(kk))
            evolved.append([evolve_mode(float(kk), alpha, schedule, dt=dt).probability
                            if schedule.covers(kk) else math.nan for kk in k_pos[:n_evolved]])
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
        half[:, :n_evolved] = np.ma.masked_invalid(np.reshape(evolved, (taus.size, n_evolved)))
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
    if total > rgflow._MAX_STEPS:
        raise ValueError(
            f"the {len(starts)} flows need about {total:.10g} RK4 steps in all, above the "
            f"budget of {rgflow._MAX_STEPS:.0e}; use fewer initial points, a larger dl or "
            f"a smaller l_max"
        )
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
    _refuse_cells(len(alphas) * sum(n // 2 for n in sizes), "use fewer or smaller sizes")
    rows = noncontractibility_scan(field, alphas, sizes)
    return SweepGrid({
        "alpha": np.repeat(np.asarray(alphas, dtype=float), len(sizes)),
        "n_sites": np.tile(np.asarray([int(n) for n in sizes], dtype=int), len(alphas)),
        "gamma_g_over_m": np.array([g for _, _, g in rows], dtype=float),
    })


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
    """Analytic-vs-numeric equivalence suite; returns (report grid, failing rows).

    Three families: per-mode discretized loops against pi*(1 - cos theta_k)
    on a seeded (field, alpha) grid; many-body ground-state loops against
    the chain phase sum modulo 2pi (odd-parity ground states are reported
    as odd_sector rows, not failures); spectrum invariance of the rotated
    Hamiltonian at N = 6.  All randomness is drawn once from the seed, so
    a fixed seed gives a byte-identical report.  `nsites` picks the loop
    cases by size; a size with no loop case raises ValueError rather than
    dropping the many-body family, and a report over the row budget raises
    ValueError before anything is drawn.  Each failing row is (case, abs_diff,
    tol), with abs_diff None for a degenerate loop and tol as passed in.
    """
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

    records = []
    # field-major mode points, each family solved in one call
    fields = np.repeat(b_vals, a_vals.size)
    alphas = np.tile(a_vals, b_vals.size)
    analytics = mode_phase(k, fields, alphas)
    numerics = mode_berry_numeric(k, fields, alphas, steps=steps)
    mode_points = zip(fields.tolist(), alphas.tolist(), analytics.tolist(), numerics.tolist())
    for i, (bv, av, analytic, numeric) in enumerate(mode_points):
        diff = abs(analytic - numeric)
        records.append(dict(
            case=f"mode_{i:04d}", k=float(k), alpha=av, field=bv, analytic=analytic,
            numeric=numeric, abs_diff=diff, tol=mode_tol,
            status="ok" if diff <= mode_tol else "fail",
        ))

    for i, (n, av, bv) in enumerate(loop_cases):
        analytic = total_phase(ChainSpec(n_sites=n, alpha=av), bv) % TWO_PI
        res = berry_phase_loop(n, av, bv, steps=steps)
        row = dict(case=f"loop_{i:02d}", n_sites=n, alpha=av, field=bv, analytic=analytic,
                   tol=loop_tol, status="degenerate")
        if not res.degenerate:
            diff = _circular_diff(analytic, res.phase)
            if res.parity < 0.0:
                status = "odd_sector"
            elif diff <= loop_tol and res.valid:
                status = "ok"
            else:
                status = "fail"
            # the representative of the phase nearest analytic, so that
            # abs_diff = |numeric - analytic| on either side of the 0/2pi cut
            numeric = res.phase + TWO_PI * round((analytic - res.phase) / TWO_PI)
            row.update(numeric=numeric, abs_diff=diff, status=status)
        records.append(row)

    for i in range(int(spectrum_cases)):
        av = 1.5 * spec_draws[i, 0]
        bv = 2.0 * spec_draws[i, 1]
        phi = math.pi * spec_draws[i, 2]
        w0 = np.linalg.eigvalsh(build_hamiltonian(6, av, bv, 0.0))
        w1 = np.linalg.eigvalsh(build_hamiltonian(6, av, bv, phi))
        drift = float(np.max(np.abs(w1 - w0)))
        records.append(dict(
            case=f"spectrum_{i:02d}", n_sites=6, alpha=av, field=bv, phi=phi, analytic=0.0,
            numeric=drift, abs_diff=drift, tol=spectrum_tol,
            status="ok" if drift <= spectrum_tol else "fail",
        ))

    # a field that does not apply to a row is masked there
    grid = SweepGrid({
        name: np.ma.masked_array([r.get(name, 0) for r in records],
                                 mask=[name not in r for r in records])
        for name in ("case", "n_sites", "k", "alpha", "field", "phi", "analytic",
                     "numeric", "abs_diff", "tol", "status")
    })
    return grid, [(r["case"], r.get("abs_diff"), r["tol"]) for r in records
                  if r["status"] in ("fail", "degenerate")]
