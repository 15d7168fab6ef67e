"""Deterministic sweep grids and their CSV serialization.

A grid is an ordered dict of named numpy columns of equal length.  Cells
where the quantity is genuinely undefined are empty, flagged in a bool
mask of their column (gapless points stay empty rather than interpolated,
as do modes that were not evolved and oracle fields that do not apply to
a row).  Each distinct value of a column is formatted once, by its dtype:
floats as '{:.17g}' (17 significant digits, so that parsing the text
recovers them exactly), ints and strings with str, bools as true/false.
Empty cells are formatted with the rest and then blanked to "", so the
values they hold count among their column's distinct values.  A column
of ints, bools or strings hands np.unique only the first cell of each
run of equal cells.  In a float column of at least 512 distinct values,
those with 1e-4 <= |x| < 1e15 get the same bytes from exact integer
arithmetic in numpy (_fixed17): x = m / 2^s with s in [3, 66], and the
shift s - q of its digit product lies in [1, 46].
Python formats the rest, among them the values below 1e-4, which '.17g'
writes in scientific notation.  Rows are joined as bytes, in blocks of
4096 that reuse one buffer, whose commas and newlines are written once.
No stage outlives the one that reads it: the cell arrays and the buffer
go before the blocks are joined, the blocks before the bytes are decoded,
and write_csv hands the text to the file 1 MiB at a time, so writing a
table peaks at about 2.5 times its file size.  Identical inputs give
byte-identical files.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .chain import ChainSpec, Record, gap_kernel, momentum_grid, refuse_over_budget
from .edoracle import (berry_phase_loop, build_hamiltonian, free_fermion_levels,
                       mode_berry_numeric, parity_block_levels)
from .geophase import mode_phase, noncontractibility_scan, phase_slope, total_phase
from .quench import QuenchSchedule, evolve_mode, kink_count, ramp_steps
from . import quench, rgflow
from .rgflow import rg_flow, RGState

TWO_PI = 2.0 * math.pi
# rows, or closed-form momenta, per table; 10^6 fig2 rows take about 1.1 s and 0.26 GB
_MAX_CELLS = 10**6

# distinct values from which a float column takes _fixed17: below, Python's
# formatter (about 0.5 us a value) beats _fixed17's fixed cost (about 0.13 ms)
_VECTOR_MIN = 512
_POW5 = np.array([5**q for q in range(21)], dtype=np.uint64)  # 5^20 < 2^47
_WRITE_CHARS = 1 << 20  # characters per write of a table's text


@functools.cache
def _quads() -> np.ndarray:
    """0000 to 9999 as ASCII in uint32 words, then again with the zeros that end each as NUL.

    Entry 10^4 + 1200 is "12" and two NULs, 10^4 + 0 four NULs.  Built on
    first use, in numpy arithmetic (about 0.7 ms): f-strings at import cost 6 ms.
    """
    digits = np.indices((10, 10, 10, 10)).reshape(4, -1).T.copy()  # row i: the digits of i
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1] == 1
    text = (digits + ord("0")).astype(np.uint8)
    table = np.concatenate([text, np.where(trailing, 0, text)]).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


class InvariantViolation(RuntimeError):
    """An emitted value broke a hard output invariant; the run must abort."""


def _fixed17(x):
    """'{:.17g}' of each float with 1e-4 <= |x| < 1e15 as S24, and a mask of the exact ones.

    x = m / 2^s with m < 2^53 and s in [3, 66].  With E = floor(log10 |x|)
    and q = 16 - E, the 17 digits are N = round-half-even(m 10^q / 2^s) =
    round-half-even(m 5^q / 2^(s - q)), exact from 32-bit limbs: the digits
    of CPython's correctly rounded dtoa (Gay, 1990).  Next to a power of ten
    log10 can miss the decade; N then leaves [10^16, 10^17), and the entry
    is not exact.  q is clipped to [2, 20], so the shift s - q stays in
    [1, 46] and m 5^q < 2^100 fits the two 64-bit words.  The digits are
    looked up four at a time in _quads, in two steps for the sixteen after
    the first: where every digit to the right is 0, the lookup takes the
    table's second half, which writes the zeros that end the number as
    NUL.  The text is fixed-point, as '.17g' writes this window down to
    E = -4 ("0.000" and 17 digits fill 22 of the 24 bytes, 23 with a
    sign), with the zeros that end the fraction dropped.
    """
    bits = x.view(np.uint64)
    m = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    q = np.clip(16 - np.floor(np.log10(np.abs(x))).astype(np.int64), 2, 20)
    f = _POW5[q]
    lo = (m & 0xFFFFFFFF) * (f & 0xFFFFFFFF)
    mid = (lo >> 32) + (m >> 32) * (f & 0xFFFFFFFF) + (m & 0xFFFFFFFF) * (f >> 32)
    top = (m >> 32) * (f >> 32) + (mid >> 32)  # m 5^q = top 2^64 + low
    low = mid << 32 | lo & 0xFFFFFFFF
    shift = (1075 - (bits >> 52 & 0x7FF)) - q.astype(np.uint64)  # s - q, in [1, 46]
    n = top << (64 - shift) | low >> shift
    n += (low & (np.uint64(1) << shift) - 1) + (n & 1) > np.uint64(1) << shift - 1  # half to even
    exact = (10**16 <= n) & (n < 10**17)
    # ASCII digits: two groups of four from each of N // 10^8 and N mod 10^8, which
    # leave the first digit in v[:, 0]; the zeros that end the number are NUL, so S24
    # drops them
    t = n // 10**8
    v = np.stack([t, n - t * 10**8], axis=1).astype(np.uint32)
    run = np.stack([v[:, 1] == 0, np.ones(x.size, dtype=bool)], axis=1)
    quads, table = np.empty((x.size, 2, 2), np.uint32), _quads()
    for j in (1, 0):
        t = v // 10**4
        p = v - 10**4 * t
        quads[:, :, j] = table[p + 10**4 * run]
        run &= p == 0
        v = t
    digits = np.concatenate([v[:, :1].astype(np.uint8) + ord("0"),
                             quads.view(np.uint8).reshape(x.size, 16)], axis=1)
    # one layout per (E, sign), written for each run of equal keys: sorted input
    # (np.unique's order) has one run per key; keys lie in [-8, 29], so -9 is no key
    key = 2 * (16 - q) + np.signbit(x)
    cuts = np.flatnonzero(np.diff(key, prepend=-9, append=-9)).tolist()
    text = np.zeros(x.size, "S24")
    buf = text.view(np.uint8).reshape(x.size, 24)
    for start, stop in zip(cuts, cuts[1:]):
        e, sign = divmod(int(key[start]), 2)
        b, d = buf[start:stop], digits[start:stop]
        b[:, :sign] = ord("-")
        if e >= 0:  # ddd.ddd, keeping the integer part's zeros; no fraction, no point
            b[:, sign:sign + e + 1] = d[:, :e + 1] | ord("0")
            b[:, sign + e + 1] = (d[:, e + 1] > 0) * ord(".")
            b[:, sign + e + 2:sign + 18] = d[:, e + 1:]
        else:  # 0.000ddd
            b[:, sign:sign + 1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            b[:, sign + 1 - e:sign + 18 - e] = d
    return text, exact


def _column_cells(col, empty) -> np.ndarray:
    """Each cell's text as an S array, "" where `empty` is true; distinct values formatted once."""
    kind = col.dtype.kind
    if kind != "f":  # ints and strings as str prints them; np.unique sees each run's first cell
        first = np.ones(col.size, dtype=bool)
        first[1:] = col[1:] != col[:-1]
        starts = np.flatnonzero(first)
        keys, index = np.unique(col[starts], return_inverse=True)
        index = np.repeat(index, np.diff(starts, append=col.size))
        fmt = {"b": lambda v: "true" if v else "false"}.get(kind, str)
        text = np.array([fmt(v) for v in keys.tolist()], dtype="S")
    else:  # keyed on the bits: -0.0 and 0.0 print differently
        keys, index = np.unique(col.astype(np.float64, copy=False).view(np.int64),
                                return_inverse=True)
        values = keys.view(np.float64)
        text = np.zeros(values.size, "S24")
        slow = np.ones(values.size, dtype=bool)
        if values.size >= _VECTOR_MIN:
            fast = np.flatnonzero((1e-4 <= np.abs(values)) & (np.abs(values) < 1e15))
            for i in range(0, fast.size, 8192):  # blocks small enough to stay in cache
                part = fast[i:i + 8192]
                text[part], exact = _fixed17(values[part])
                slow[part] = ~exact
        text[slow] = ["{:.17g}".format(v) for v in values[slow].tolist()]
    cells = text[index.reshape(-1)]
    if empty is not None:
        cells[empty] = b""
    return cells


class SweepGrid(Record, eq=False):
    """Named 1-d columns of equal length, in CSV order; `empty` maps a column to a bool
    array, true at its undefined cells: written "" and never checked, whatever they hold.

    A grid holds arrays, so it equals only itself; `empty` defaults to a new {} per grid.
    Like every record it is frozen, so the two fields that __init__ checks stay bound.
    """

    def __init__(self, columns: dict, empty: dict | None = None):
        if empty is None:
            empty = {}
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise InvariantViolation(f"columns of unequal length: {lengths}")
        for name, mask in empty.items():
            if getattr(mask, "dtype", None) != bool or mask.shape != (lengths.get(name),):
                raise InvariantViolation(f"empty[{name!r}] is not a bool mask of a column's cells")
        self.__dict__.update(columns=columns, empty=empty)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def csv_text(self) -> str:
        # the cells and the block buffer go with _blocks' frame, before the join, and
        # the blocks before the decode: no stage outlives the one that reads it
        return b"".join(self._blocks()).decode("ascii")

    def _blocks(self) -> list:
        """The header line and the rows, 4096 to a block, as ASCII bytes."""
        # a row is each cell's bytes, NUL-padded to its column's width, then a comma
        # (a newline at the end); dropping the NULs leaves the CSV text
        cells = [c.view(np.uint8).reshape(c.size, c.itemsize) for c in
                 (_column_cells(col, self.empty.get(name)) for name, col in self.columns.items())]
        at = np.cumsum([0] + [c.shape[1] + 1 for c in cells]).tolist()
        text, n = [(",".join(self.columns) + "\n").encode("ascii")], len(cells[0]) if cells else 0
        # in blocks, to bound the memory; the cells overwrite all but the separators, so
        # one buffer, filled once, serves every block
        block = np.full((min(n, 4096), at[-1]), ord(","), np.uint8)
        block[:, -1:] = ord("\n")
        for i in range(0, n, 4096):
            rows = block[:n - i]
            for c, a in zip(cells, at):
                rows[:, a:a + c.shape[1]] = c[i:i + 4096]
            text.append(rows.tobytes().translate(None, b"\0"))
        return text

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            text = self.csv_text()
            # TextIOWrapper encodes each write whole: one write would copy the whole table
            for i in range(0, len(text), _WRITE_CHARS):
                fh.write(text[i:i + _WRITE_CHARS])


def validate_bounds(grid: SweepGrid, bounds: dict) -> None:
    """Abort if an emitted value is NaN or leaves its allowed interval; empty cells are skipped."""
    for col, (lo, hi) in bounds.items():
        data = grid.columns[col]
        bad = ~((lo <= data) & (data <= hi)) & ~grid.empty.get(col, np.False_)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantViolation(
                f"column {col!r} row {i}: value {data[i].item()!r} outside [{lo}, {hi}]"
            )


def _gamma_cells(k: float, b_values: np.ndarray, alpha):
    """(Gamma_k, gapless) over a field array, broadcast against alpha; gapless cells empty."""
    c, _, lam, gapped = gap_kernel(k, b_values, alpha)
    with np.errstate(invalid="ignore"):
        return np.pi * (1.0 - c / lam), ~gapped


def _deriv_cells(k: float, b_values: np.ndarray, alpha):
    """(d(Gamma_k)/dB, gapless) over a field array, broadcast against alpha; gapless cells empty."""
    _, s, lam, gapped = gap_kernel(k, b_values, alpha)
    return phase_slope(s, lam), ~gapped


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
    # the (alpha, t) values and gapless cells, repeated for each tau_q
    gamma, gapless = (c.repeat(taus.size, axis=0).ravel()
                      for c in _gamma_cells(k, np.abs(x), a[:, None]))
    return SweepGrid({
        "t_over_tauq": np.tile(x, a.size * taus.size),
        "tau_q": np.tile(np.repeat(taus, x.size), a.size),
        "alpha": np.repeat(a, taus.size * x.size),
        "gamma_k": gamma,
    }, {"gamma_k": gapless})


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
    return tuple(SweepGrid({**axes, "value": value.ravel()}, {"value": gapless.ravel()})
                 for value, gapless in (_gamma_cells(k, b, a), _deriv_cells(k, b, a)))


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
    evolved: its cells stay empty, and one UserWarning names every such k.
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
    empty = {}
    if evolve:
        # one value per +/-k pair; the modes past evolve_modes or uncovered stay empty
        half, done = np.zeros((taus.size, k_pos.size)), np.zeros((taus.size, k_pos.size), bool)
        for i, j, kk, schedule in covered:
            half[i, j], done[i, j] = evolve_mode(kk, alpha, schedule, dt=dt).probability, True
        modes["p_evolved"] = np.hstack((half[:, ::-1], half)).ravel()
        empty["p_evolved"] = ~np.hstack((done[:, ::-1], done)).ravel()
    summary = {
        "tau_q": taus,
        "kink_count": np.array([r.kink_count for r in reps], dtype=float),
        "threshold": np.array([r.threshold for r in reps], dtype=float),
        "safety_factor": np.full(taus.size, safety_factor, dtype=float),
        "adiabatic": np.array([r.adiabatic for r in reps], dtype=bool),
    }
    return SweepGrid(modes, empty), SweepGrid(summary)


def rg_grid(initials, l_max=5.0, dl=1e-3, alpha_cap=1e3) -> SweepGrid:
    """One RK4 trajectory per initial (alpha, K), serialized row-per-step.

    The grid holds every trajectory at once, so the step budget bounds
    their sum, refused before the first flow runs.
    """
    starts = [RGState(alpha=a0, K=k0) for a0, k0 in initials]
    total = sum(rgflow.step_estimate(l_max, dl) for _ in starts)
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


def _family(case_fmt, diff, tol, *labels, **columns):
    """One oracle family: case, `columns`, abs_diff, tol and status, by row.

    The status is the name of the first (name, mask) label that holds, else
    ok or fail by diff <= tol.
    """
    names, masks = zip(*labels, ("ok", diff <= tol))
    return dict(case=np.char.mod(case_fmt, np.arange(diff.size)), **columns, abs_diff=diff,
                tol=np.full(diff.size, tol), status=np.select(masks, names, "fail"))


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

    The grid stacks three families, each built by _family: per-mode
    loops against pi*(1 - cos theta_k) on a seeded (field, alpha) grid, in
    one call; one berry_phase_loop per many-body case against the chain
    phase sum modulo 2pi, its status the first that holds of degenerate,
    odd_sector (an odd-parity ground state, not a failure), ok and fail; the
    levels of H(0) at N = 6 against free_fermion_levels, numeric being the
    worst level difference over both parity blocks, from one broadcast
    build_hamiltonian and one eigvalsh per block.  Their phi is the third
    seeded draw of each case, reported as a coordinate and not used.  A
    column a block lacks is empty on its rows, as are numeric and abs_diff
    of a degenerate loop.  A fixed seed gives a byte-identical report.
    `nsites` picks the loop cases by size; a size with no loop case, a
    negative size or a report over the row budget raises ValueError before
    anything is drawn.  Failing rows are (case, abs_diff, tol), None if empty.
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
    modes = _family("mode_%04d", diff, mode_tol, k=np.full(diff.size, float(k)), alpha=alphas,
                    field=fields, analytic=analytic, numeric=numeric)

    # a degenerate loop has no phase, so its numeric and abs_diff are empty
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
    loops = _family("loop_%02d", diff, loop_tol, ("degenerate", degenerate),
                    ("odd_sector", parity < 0.0),
                    n_sites=np.array([c[0] for c in loop_cases], dtype=int),
                    alpha=[c[1] for c in loop_cases], field=[c[2] for c in loop_cases],
                    analytic=analytic, numeric=numeric)

    # phi is drawn and reported but not used: every level of H(0) has a closed form
    av, bv, phi = 1.5 * spec_draws[:, 0], 2.0 * spec_draws[:, 1], math.pi * spec_draws[:, 2]
    blocks = zip(parity_block_levels(build_hamiltonian(6, av, bv)), free_fermion_levels(6, av, bv))
    drift = np.abs(np.hstack([levels - ref for levels, ref in blocks])).max(axis=1)
    spectra = _family("spectrum_%02d", drift, spectrum_tol, n_sites=np.full(drift.size, 6),
                      alpha=av, field=bv, phi=phi, analytic=np.zeros(drift.size), numeric=drift)

    # a column that a family does not have is empty on its rows
    families = ((modes, {}), (loops, dict(numeric=degenerate, abs_diff=degenerate)), (spectra, {}))
    columns, empty = {}, {}
    for name in ("case", "n_sites", "k", "alpha", "field", "phi", "analytic", "numeric",
                 "abs_diff", "tol", "status"):
        columns[name] = np.concatenate([fam.get(name, np.zeros(len(fam["case"]), dtype=int))
                                        for fam, _ in families])
        empty[name] = np.concatenate([gaps.get(name, np.full(len(fam["case"]), name not in fam))
                                      for fam, gaps in families])
    failing = np.isin(columns["status"], ("fail", "degenerate"))
    cells = (np.where(empty[name], None, columns[name])[failing].tolist()
             for name in ("case", "abs_diff", "tol"))
    return SweepGrid(columns, empty), list(zip(*cells))
