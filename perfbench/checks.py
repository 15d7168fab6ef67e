"""Reference checks on one pass's outputs, computed without the package.

Every reference is recomputed here in numpy from the closed forms and
the inputs the plan drew.  The sample points (time axes, alpha lists,
momenta, the oracle's seeded draws) are rebuilt here from the CLI
defaults and the seed; the coordinate columns of each file must equal
them, and the references are evaluated on the rebuilt points, never on
the file's.  Each checked value adds |value - reference| /
tolerance to the report; the worst of these is the run's err_to_tol, and
any ratio above 1 (or NaN) is a failure.  The tolerances are the CLI
defaults of the package as first benchmarked, written out here so that a
change to the package cannot loosen them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MODE_TOL = 1e-4
LOOP_TOL = 1e-3
SPECTRUM_TOL = 1e-10
EVOLVE_TOL = 0.02
RTOL = 1e-12  # closed forms recomputed here, relative to max(1, |reference|)
RG_TOL = 1e-11  # first-integral drift, relative to max(1, alpha^2)
TWO_PI = 2.0 * math.pi
QUENCH_TAUQS = (1.0, 10.0, 100.0, 1000.0)  # quench --tauq default
FIG1_ALPHAS = (0.5, 0.0)  # fig1 --alpha default
FIG1_TAUQS = (1.0, 2.0, 5.0, 10.0)  # fig1 --tauq default
T_MIN, T_MAX = -3.0, 0.0  # fig1/fig2 --tmin/--tmax defaults
FIG2_ALPHA_RANGE = (0.0, 1.0)  # fig2 --alpha-min/--alpha-max defaults
NONCONTRACT_ALPHAS = (10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4)  # noncontract --alpha default
NONCONTRACT_SIZES = (100, 1000, 10000)  # noncontract --nsites default
ORACLE_K = math.pi / 2  # oracle --k default
# (n_sites, alpha, field) of the oracle's loop cases at its default --nsites 4 6.
ORACLE_LOOP_CASES = ((4, 0.5, 0.0), (4, 1.0, 0.5), (6, 1.0, 0.5), (6, 0.8, 0.3))
ORACLE_LOOPS = len(ORACLE_LOOP_CASES)
ORACLE_SPECTRUM_SITES = 6


class Report:
    """Failures and the worst error-to-tolerance ratio over every checked value."""

    def __init__(self):
        self.failures = []
        self.err_to_tol = 0.0
        self.worst = ""
        self.loops_run = 0
        self.loops_checked = 0

    def fail(self, message):
        self.failures.append(message)

    def close(self, label, values, refs, tols):
        """Check |values - refs| <= tols elementwise (arrays or scalars)."""
        values, refs, tols = (np.atleast_1d(a) for a in np.broadcast_arrays(
            np.asarray(values, float), np.asarray(refs, float), np.asarray(tols, float)))
        if values.size == 0:
            return
        ratio = np.abs(values - refs) / tols
        ratio[np.isnan(ratio)] = np.inf
        bad = ratio > 1.0
        i = int(np.argmax(ratio))
        if ratio[i] > self.err_to_tol:
            self.err_to_tol = float(ratio[i])
            self.worst = f"{label}[{i}]"
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            self.fail(f"{label}: {int(bad.sum())} value(s) off; first at {j}: "
                      f"{values.flat[j]!r} vs reference {refs.flat[j]!r} (tol {tols.flat[j]!r})")

    def rel(self, label, values, refs, rtol=RTOL):
        refs = np.asarray(refs, float)
        self.close(label, values, refs, rtol * np.maximum(1.0, np.abs(refs)))

    def expect(self, label, ok):
        if not ok:
            self.fail(label)


def check(plan: dict, out: Path) -> Report:
    rep = Report()
    try:
        {"oracle": _oracle, "quench-evolve": _quench_evolve, "sweeps": _sweeps,
         "ed-large": _ed_large}[plan["workload"]](plan, Path(out), rep)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rep.fail(f"unreadable output: {exc!r}")
    return rep


# -- references ---------------------------------------------------------------

def _gap_parts(k, b, alpha):
    c = np.cos(k) - b
    s = alpha * np.sin(k)
    return c, s, np.hypot(c, s)


def mode_gamma(k, b, alpha):
    """pi (1 - c/Lambda); NaN where Lambda = 0."""
    c, _, lam = _gap_parts(k, b, alpha)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lam == 0.0, np.nan, np.pi * (1.0 - c / lam))


def mode_dgamma(k, b, alpha):
    """pi s^2 / Lambda^3; NaN where Lambda = 0."""
    _, s, lam = _gap_parts(k, b, alpha)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lam == 0.0, np.nan, np.pi * s * s / lam**3)


def grid_k(n_sites):
    m = np.arange(1, n_sites // 2 + 1)
    return (2 * m - 1) * np.pi / n_sites


def chain_gamma(n_sites, b, alpha):
    return float(np.sum(mode_gamma(grid_k(n_sites), b, alpha)))


def circular(a, b):
    return np.abs((np.asarray(a) - np.asarray(b) + np.pi) % TWO_PI - np.pi)


def rg_invariant(alpha, K):
    return alpha * alpha - 16.0 * K + 8.0 * np.log(K)


# -- CSV ------------------------------------------------------------------------

def read_csv(path: Path):
    """Header and columns as lists of strings ('' for empty cells)."""
    lines = path.read_text(encoding="ascii").split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path.name}: missing final newline")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:-1]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return header, {h: [r[j] for r in rows] for j, h in enumerate(header)}


def floats(cells):
    return np.array([float(c) if c != "" else np.nan for c in cells])


def _closed_form_cells(rep, label, values, refs):
    """Empty cells exactly where the reference is undefined; the rest within RTOL."""
    empty = np.isnan(values)
    undefined = np.isnan(refs)
    rep.expect(f"{label}: empty cells differ from the gapless points", (empty == undefined).all())
    keep = ~(empty | undefined)
    rep.rel(label, values[keep], refs[keep])


def _rows(col, mask):
    return {h: [v for v, keep in zip(cells, mask) if keep] for h, cells in col.items()}


def _coordinates(rep, label, col, expected) -> bool:
    """The coordinate columns equal the expected points; False when the row count differs."""
    n = len(next(iter(expected.values())))
    rows = len(next(iter(col.values())))
    rep.expect(f"{label}: {rows} rows, expected {n}", rows == n)
    if rows != n:
        return False
    for name, ref in expected.items():
        rep.rel(f"{label} {name}", floats(col[name]), ref)
    return True


def oracle_points(seed, grid, spectrum_cases):
    """The oracle's seeded draws: mode (field, alpha) grid and spectrum (alpha, field, phi)."""
    rng = np.random.default_rng(seed)
    b_vals = rng.uniform(-1.5, 1.5, grid)
    a_vals = rng.uniform(0.05, 2.0, grid)
    draws = rng.uniform(0.0, 1.0, (spectrum_cases, 3))
    return (np.repeat(b_vals, grid), np.tile(a_vals, grid),
            (1.5 * draws[:, 0], 2.0 * draws[:, 1], np.pi * draws[:, 2]))


def _json_lines(out: Path):
    text = (out / "stdout.txt").read_text(encoding="utf-8")
    return [json.loads(ln) for ln in text.splitlines() if ln.startswith("{")]


# -- workloads ------------------------------------------------------------------

def _oracle(plan, out, rep):
    s = plan["sizes"]
    _, col = read_csv(out / "oracle.csv")
    family = np.array([c.split("_")[0] for c in col["case"]])
    status = np.array(col["status"])
    tol = floats(col["tol"])
    bad = ~np.isin(status, ("ok", "odd_sector"))
    rep.expect(f"oracle: {int(bad.sum())} row(s) neither ok nor odd_sector", not bad.any())
    for fam, default in (("mode", MODE_TOL), ("loop", LOOP_TOL), ("spectrum", SPECTRUM_TOL)):
        rep.expect(f"oracle: {fam} tol differs from the default {default!r}",
                   (tol[family == fam] == default).all())
    field, alpha, (sp_alpha, sp_field, sp_phi) = oracle_points(
        plan["seed"], s["grid"], s["spectrum_cases"])

    mode = _rows(col, family == "mode")
    if _coordinates(rep, "oracle mode", mode, {
            "k": np.full(field.size, ORACLE_K), "alpha": alpha, "field": field}):
        ref = mode_gamma(ORACLE_K, field, alpha)
        rep.rel("oracle mode analytic", floats(mode["analytic"]), ref)
        rep.close("oracle mode numeric", floats(mode["numeric"]), ref, MODE_TOL)

    loop = _rows(col, family == "loop")
    n_sites, alphas, fields = (np.array(c, float) for c in zip(*ORACLE_LOOP_CASES))
    if _coordinates(rep, "oracle loop", loop,
                    {"n_sites": n_sites, "alpha": alphas, "field": fields}):
        for i, (n, a, b) in enumerate(ORACLE_LOOP_CASES):
            rep.loops_run += 1
            if loop["status"][i] != "ok":
                continue
            rep.loops_checked += 1
            ref = chain_gamma(n, b, a) % TWO_PI
            rep.close(f"oracle {loop['case'][i]} analytic",
                      circular(float(loop["analytic"][i]), ref), 0.0, RTOL * TWO_PI)
            rep.close(f"oracle {loop['case'][i]} numeric",
                      circular(float(loop["numeric"][i]), ref), 0.0, LOOP_TOL)

    spectrum = _rows(col, family == "spectrum")
    if _coordinates(rep, "oracle spectrum", spectrum, {
            "n_sites": np.full(sp_alpha.size, float(ORACLE_SPECTRUM_SITES)),
            "alpha": sp_alpha, "field": sp_field, "phi": sp_phi}):
        rep.close("oracle spectrum drift", floats(spectrum["numeric"]), 0.0, SPECTRUM_TOL)


def _quench_modes(rep, col, n_sites, tau_qs):
    """Check the mode table's coordinates and p_k; return the expected (tau_q, k) or None."""
    kp = grid_k(n_sites)
    k_all = np.concatenate((-kp[::-1], kp))
    tau = np.repeat(tau_qs, len(k_all))
    k = np.tile(k_all, len(tau_qs))
    if not _coordinates(rep, "quench", col, {"tau_q": tau, "k": k}):
        return None
    rep.rel("quench p_k", floats(col["p_k"]), np.exp(-2.0 * np.pi * tau * k * k))
    return tau, k


def _quench_evolve(plan, out, rep):
    n_sites = plan["sizes"]["nsites"]
    _, col = read_csv(out / "quench.csv")
    points = _quench_modes(rep, col, n_sites, QUENCH_TAUQS)
    if points is None:
        return
    tau, k = points
    pe = floats(col["p_evolved"])
    evolved = ~np.isnan(pe)
    rep.expect("quench-evolve: p_evolved present on other rows than the 4 smallest |k|",
               (evolved == np.isin(np.round(np.abs(k) * n_sites / np.pi), (1, 3, 5, 7))).all())
    alpha = plan["alpha"]
    ref = np.exp(-2.0 * np.pi * tau * alpha**2 * np.sin(k) ** 2)
    rep.close("quench-evolve p_evolved", pe[evolved], ref[evolved], EVOLVE_TOL)


def _sweeps(plan, out, rep):
    s = plan["sizes"]
    _, col = read_csv(out / "fig1.csv")
    x = np.linspace(T_MIN, T_MAX, s["fig1_samples"])
    n_a, n_t = len(FIG1_ALPHAS), len(FIG1_TAUQS)
    t = np.tile(x, n_a * n_t)
    alpha = np.repeat(FIG1_ALPHAS, n_t * x.size)
    if _coordinates(rep, "fig1", col, {
            "t_over_tauq": t, "tau_q": np.tile(np.repeat(FIG1_TAUQS, x.size), n_a),
            "alpha": alpha}):
        _closed_form_cells(rep, "fig1 gamma_k", floats(col["gamma_k"]),
                           mode_gamma(plan["fig1_k"], np.abs(t), alpha))

    x = np.linspace(T_MIN, T_MAX, s["fig2_samples"])
    alphas = np.linspace(*FIG2_ALPHA_RANGE, s["fig2_alpha_samples"])
    t = np.tile(x, alphas.size)
    alpha = np.repeat(alphas, x.size)
    for name, ref_fn in (("gamma", mode_gamma), ("dgamma", mode_dgamma)):
        _, col = read_csv(out / f"fig2_{name}.csv")
        if _coordinates(rep, f"fig2 {name}", col, {"alpha": alpha, "t_over_tauq": t}):
            _closed_form_cells(rep, f"fig2 {name}", floats(col["value"]),
                               ref_fn(plan["fig2_k"], np.abs(t), alpha))

    _, col = read_csv(out / "quench.csv")
    points = _quench_modes(rep, col, s["nsites"], QUENCH_TAUQS)
    _, col = read_csv(out / "quench_summary.csv")
    if _coordinates(rep, "quench summary", col, {"tau_q": np.array(QUENCH_TAUQS)}) and points:
        tau, k = points
        p = np.exp(-2.0 * np.pi * tau * k * k)
        kinks = [float(np.sum(p[tau == t])) for t in QUENCH_TAUQS]
        rep.rel("quench summary kink_count", floats(col["kink_count"]), kinks)
        rep.rel("quench summary threshold", floats(col["threshold"]),
                s["nsites"] ** 2 / (2.0 * math.pi**3))

    _, col = read_csv(out / "rg.csv")
    traj = floats(col["traj"])
    rows_per_traj = int(round(s["lmax"] / 1e-3)) + 1
    for idx, (a0, k0) in enumerate(plan["initials"]):
        t = traj == idx
        alpha, K = floats(col["alpha"])[t], floats(col["K"])[t]
        rep.expect(f"rg traj {idx}: {int(t.sum())} rows, expected {rows_per_traj}",
                   t.sum() == rows_per_traj)
        rep.expect(f"rg traj {idx}: status not completed",
                   set(np.array(col["status"])[t]) == {"completed"})
        rep.expect(f"rg traj {idx}: first row is not the initial point",
                   len(alpha) > 0 and alpha[0] == a0 and K[0] == k0)
        rep.close(f"rg traj {idx} first integral", rg_invariant(alpha, K),
                  rg_invariant(a0, k0), RG_TOL * np.maximum(1.0, alpha * alpha))
    labels = [ln for ln in _json_lines(out) if "phase" in ln]
    rep.expect("rg --classify: one label per initial point", len(labels) == len(plan["initials"]))
    for ln, (a0, k0) in zip(labels, plan["initials"]):
        rep.expect(f"rg --classify label at alpha={a0!r}, K={k0!r}: {ln['phase']!r}",
                   ln["phase"] == _phase_label(a0, k0, field=0.0, cutoff=1.0, band=0.5))

    _, col = read_csv(out / "noncontract.csv")
    alphas = np.repeat(NONCONTRACT_ALPHAS, len(NONCONTRACT_SIZES))
    sizes = np.tile(NONCONTRACT_SIZES, len(NONCONTRACT_ALPHAS))
    if _coordinates(rep, "noncontract", col, {"alpha": alphas, "n_sites": sizes}):
        ref = [chain_gamma(int(n), plan["field"], a) / (int(n) // 2)
               for a, n in zip(alphas, sizes)]
        rep.rel("noncontract gamma_g_over_m", floats(col["gamma_g_over_m"]), ref)


def _phase_label(alpha, K, field, cutoff, band):
    """Static phase map of the bosonized chain (ferromagnet above the band edge 1)."""
    if K <= 0.5:
        return "ferromagnetic" if field > 1.0 else "luttinger_liquid"
    if alpha <= 0.0:
        return None
    gap = cutoff * (alpha / 2.0) ** (1.0 / (2.0 - 1.0 / K))
    if field > (1.0 + band) * gap:
        return "ferromagnetic"
    if field < (1.0 - band) * gap:
        return "staggered_order"
    return "luttinger_liquid"


def _ed_large(plan, out, rep):
    s = plan["sizes"]
    res = json.loads((out / "ed_large.json").read_text(encoding="utf-8"))
    rep.expect("ed-large: loop count", len(res["loops"]) == len(plan["loops"]))
    for i, (loop, (alpha, field)) in enumerate(zip(res["loops"], plan["loops"])):
        rep.loops_run += 1
        rep.expect(f"ed-large loop {i}: degenerate ground state", not loop["degenerate"])
        if loop["parity"] < 0.0:
            continue  # odd-sector ground state: the half-integer-grid formula does not apply
        rep.loops_checked += 1
        rep.expect(f"ed-large loop {i}: loop under-resolved", loop["valid"])
        ref = chain_gamma(s["sites"], field, alpha) % TWO_PI
        rep.close(f"ed-large loop {i}", circular(loop["phase"], ref), 0.0, LOOP_TOL)
    w0, w1 = np.array(res["spectrum"]["w0"]), np.array(res["spectrum"]["w1"])
    rep.expect("ed-large spectrum size", w0.size == w1.size == 2 ** s["spectrum_sites"])
    rep.close("ed-large spectrum drift", np.max(np.abs(w1 - w0)), 0.0, SPECTRUM_TOL)
