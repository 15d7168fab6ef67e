"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 8 are split into their two sub-claims.  Two sub-claims
(1b and 8b) pin aspirational bounds that the exact closed forms do not
meet at the stated parameters; they are implemented faithfully and left
red as documentation of the discrepancy rather than loosened to pass.
Time bounds count the CPU time of this process (time.process_time), so
other load on the host cannot fail them.
"""

import math
import time

import numpy as np

from xyquench import (
    ChainSpec,
    QuenchSchedule,
    RGState,
    adiabatic_threshold,
    berry_phase_loop,
    evolve_mode,
    kink_count,
    lz_probability,
    mass_gap,
    mode_berry_numeric,
    mode_phase,
    momentum_grid,
    noncontractibility_scan,
    rg_flow,
    total_phase,
)
from xyquench.cli import main
from xyquench.rgflow import _rhs
from xyquench.sweeps import fig1_grid, fig2_grids

from test_sweeps_cli import _rows

TWO_PI = 2.0 * math.pi


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'} - {detail}")


def _circ_diff(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def test_criterion_01a_xx_step_bracketed_in_one_cell():
    k = math.pi / 100
    t0 = time.process_time()
    grid = fig1_grid(k=k, alphas=[0.5, 0.0], tau_qs=[1.0, 2.0, 5.0, 10.0], samples=600)
    elapsed = time.process_time() - t0
    series = [(x, g) for x, tq, a, g in _rows(grid) if a == 0.0 and tq == 1.0]
    vals = [g for _, g in series]
    jumps = [i for i in range(len(vals) - 1) if vals[i] != vals[i + 1]]
    one_jump = len(jumps) == 1 and {vals[0], vals[-1]} == {TWO_PI, 0.0}
    i = jumps[0]
    b_hi, b_lo = abs(series[i][0]), abs(series[i + 1][0])
    bracketed = b_lo < math.cos(k) < b_hi
    ok = one_jump and bracketed and elapsed < 1.0
    _report(
        "1a",
        ok,
        f"alpha=0 step 0->2pi bracketed in [{b_lo:.5f}, {b_hi:.5f}] around cos k = "
        f"{math.cos(k):.5f}; sweep took {elapsed:.3f} s CPU",
    )
    assert ok


def test_criterion_01b_smooth_sweep_max_cell_jump():
    k = math.pi / 100
    grid = fig1_grid(k=k, alphas=[0.5, 0.0], tau_qs=[1.0, 2.0, 5.0, 10.0], samples=600)
    vals = [g for x, tq, a, g in _rows(grid) if a == 0.5 and tq == 1.0]
    max_jump = max(abs(b - a) for a, b in zip(vals, vals[1:]))
    ok = max_jump < 0.5
    _report(
        "1b",
        ok,
        f"alpha=0.5 max single-cell jump = {max_jump:.4f} rad (bound 0.5; the "
        f"transition width alpha*sin k = {0.5 * math.sin(k):.5f} spans ~3 cells of "
        f"the 600-sample grid, so the exact formula jumps ~1 rad per cell)",
    )
    assert ok, f"max cell jump {max_jump:.4f} rad >= 0.5 rad at the stated parameters"


def test_criterion_02_derivative_ridge_and_divergence():
    # the surface is tabulated on t/tau_q, so one table serves every tau_q
    k = math.pi / 2
    _, deriv = fig2_grids(k=k, alpha_samples=200, samples=200)
    alphas = sorted({r[0] for r in _rows(deriv)})
    xs = sorted({r[1] for r in _rows(deriv)})
    table = {}
    for a, x, v in _rows(deriv):
        table.setdefault(a, {})[x] = v
    x_target = min(xs, key=lambda x: abs(x + math.cos(k)))
    ridge_ok = True
    for a in alphas:
        if a == 0.0:
            continue
        row = table[a]
        x_star = max(row, key=lambda x: row[x] if row[x] is not None else -1.0)
        if x_star != x_target:
            ridge_ok = False
    a_small = min(alphas, key=lambda a: abs(a - 0.01))
    a_big = min(alphas, key=lambda a: abs(a - 0.1))
    rmax_small = max(v for v in table[a_small].values() if v is not None)
    rmax_big = max(v for v in table[a_big].values() if v is not None)
    ratio = rmax_small / rmax_big
    ok = ridge_ok and ratio >= 5.0
    detail = (f"ridge at min |t/tau_q + cos k| {'ok' if ridge_ok else 'WRONG'}, "
              f"rowmax(0.01)/rowmax(0.1) = {ratio:.2f}")
    _report("2", ok, detail)
    assert ok


def test_criterion_03_derivative_matches_finite_difference():
    rng = np.random.default_rng(1003)
    h = 1e-6
    t0 = time.process_time()
    worst = 0.0
    n_checked = 0
    while n_checked < 10000:
        todo = 10000 - n_checked
        k = rng.uniform(0.1, math.pi - 0.1, todo)
        B = rng.uniform(-1.5, 1.5, todo)
        a = rng.uniform(0.3, 2.0, todo)
        s = a * np.sin(k)
        c = np.cos(k) - B
        lam = np.hypot(c, s)
        keep = lam > 0.1
        k, B, a, s, lam = k[keep], B[keep], a[keep], s[keep], lam[keep]
        analytic = np.pi * s * s / lam**3
        fd = (mode_phase(k, B + h, a) - mode_phase(k, B - h, a)) / (2.0 * h)
        rel = np.abs(fd - analytic) / np.abs(analytic)
        worst = max(worst, float(rel.max()))
        n_checked += int(k.size)
    elapsed = time.process_time() - t0
    ok = worst < 1e-5 and elapsed < 1.0
    _report(
        "3",
        ok,
        f"worst relative error {worst:.2e} over 10^4 gapped points (bound 1e-5); "
        f"{elapsed:.3f} s CPU",
    )
    assert ok


def test_criterion_04_oracle_equivalence():
    t0 = time.process_time()
    rng = np.random.default_rng(1004)
    k = math.pi / 2
    b_vals = rng.uniform(-1.5, 1.5, 20)
    a_vals = rng.uniform(0.05, 2.0, 20)
    worst_mode = 0.0
    for bv in b_vals:
        for av in a_vals:
            got = mode_berry_numeric(k, float(bv), float(av), steps=10000)
            worst_mode = max(worst_mode, abs(got - float(mode_phase(k, bv, av))))
    loop_results = []
    for n, av, bv in ((4, 0.5, 0.0), (6, 1.0, 0.5)):
        res = berry_phase_loop(n, av, bv, steps=10000)
        analytic = total_phase(ChainSpec(n, av), bv) % TWO_PI
        loop_results.append((n, not res.degenerate, res.parity,
                             _circ_diff(res.phase, analytic)))
    elapsed = time.process_time() - t0
    modes_ok = worst_mode < 1e-4
    loops_ok = all(valid and parity > 0 and d < 1e-3 for _, valid, parity, d in loop_results)
    ok = modes_ok and loops_ok and elapsed < 120.0
    detail = (
        f"mode grid worst |diff| = {worst_mode:.2e} (bound 1e-4); many-body "
        + ", ".join(f"N={n}: |diff mod 2pi| = {d:.2e}" for n, _, _, d in loop_results)
        + f" (bound 1e-3); {elapsed:.1f} s CPU"
    )
    _report("4", ok, detail)
    assert ok


def test_criterion_05_spectrum_invariance():
    from xyquench import build_hamiltonian

    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.0, 2.0)
        B = rng.uniform(0.0, 2.0)
        phi = rng.uniform(0.0, math.pi)
        w0 = np.linalg.eigvalsh(build_hamiltonian(6, a, B, 0.0))
        w1 = np.linalg.eigvalsh(build_hamiltonian(6, a, B, phi))
        worst = max(worst, float(np.max(np.abs(w1 - w0))))
    ok = worst < 1e-10
    _report("5", ok, f"20 random rotated spectra at N=6: worst eigenvalue drift {worst:.2e}")
    assert ok


def test_criterion_06_landau_zener_oracle():
    t0 = time.process_time()
    cases = []
    for k in (math.pi / 100, math.pi / 50):
        for tau_q in (1.0, 10.0, 100.0):
            p = evolve_mode(k, 1.0, QuenchSchedule.from_field(tau_q)).probability
            target = float(lz_probability(k, tau_q))
            cases.append((k, tau_q, abs(p - target) / target))
    worst = max(c[2] for c in cases)
    ks = np.array([math.pi / 100, math.pi / 75, math.pi / 50, math.pi / 25])
    taus = np.array([1.0, 10.0, 100.0])
    mono_tau = all(
        np.all(lz_probability(ks, t2) <= lz_probability(ks, t1))
        for t1, t2 in zip(taus, taus[1:])
    )
    mono_k = all(
        np.all(np.diff(lz_probability(ks, t)) <= 0.0) for t in taus
    )
    elapsed = time.process_time() - t0
    ok = worst < 0.10 and mono_tau and mono_k and elapsed < 60.0
    _report(
        "6",
        ok,
        f"worst relative deviation from exp(-2 pi tau_q k^2) = {worst:.3%} (bound 10%); "
        f"monotonicity in tau_q and k holds exactly; {elapsed:.1f} s CPU",
    )
    assert ok


def test_criterion_07_adiabatic_threshold_and_single_pair():
    threshold = adiabatic_threshold(100)
    expected = 100.0**2 / (2.0 * math.pi**3)
    rel = abs(threshold - expected) / expected
    spec = ChainSpec(100, 1.0)
    tau = 10.0 * threshold * 1.0001
    rep = kink_count(spec, tau)
    k0 = float(momentum_grid(spec)[0])
    p0 = float(lz_probability(k0, tau))
    others_frac = (rep.kink_count - 2.0 * p0) / rep.kink_count
    ok = rel < 1e-6 and others_frac < 0.01 and rep.kink_count < 2.0 * p0 * 1.01
    _report(
        "7",
        ok,
        f"threshold = {threshold:.6f} (rel err {rel:.1e} vs N^2/(2 pi^3)); beyond "
        f"10x threshold the non-k0 modes carry {others_frac:.2e} of the kink count",
    )
    assert ok


def test_criterion_08a_noncontractible_limit():
    got = noncontractibility_scan(0.5, [1e-4], [10000])[0, 0]
    target = TWO_PI * (1.0 - math.acos(0.5) / math.pi)
    diff = abs(got - target)
    ok = diff < 1e-2
    _report(
        "8a",
        ok,
        f"Gamma_g/M at B=0.5, alpha=1e-4, N=1e4: {got:.6f} vs 4pi/3 = {target:.6f} "
        f"(|diff| = {diff:.1e}, bound 1e-2)",
    )
    assert ok


def test_criterion_08b_large_alpha_plateau():
    devs = {}
    for b in (-0.9, -0.5, 0.0, 0.5, 0.9):
        devs[b] = abs(noncontractibility_scan(b, [10.0], [10000])[0, 0] - math.pi)
    worst_b, worst = max(devs.items(), key=lambda kv: kv[1])
    ok = worst < 1e-2
    _report(
        "8b",
        ok,
        f"Gamma_g/M at alpha=10, N=1e4: worst |dev from pi| = {worst:.3f} at B={worst_b:g} "
        f"(bound 1e-2; holds only at B=0 - band-edge modes with alpha*sin k < |cos k - B| "
        f"contribute a B-odd correction of order 0.3 at alpha=10)",
    )
    assert ok, (
        f"Gamma_g/M deviates from pi by {worst:.3f} at B={worst_b:g}; the uniform-pi "
        "plateau requires alpha two orders of magnitude larger than the stated 10"
    )


def test_criterion_09_rg_properties():
    traj0 = rg_flow(RGState(0.0, 0.7), l_max=3.0, dl=1e-2)
    fixed_ok = all(s.alpha == 0.0 and s.K == 0.7 for s in traj0.states)

    rng = np.random.default_rng(1009)
    mono_ok = True
    sign_ok = True
    for _ in range(100):
        st = RGState(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.2, 3.0)))
        da, _ = _rhs(st.alpha, st.K)
        if st.alpha > 0.0 and da != 0.0:
            sign_ok = sign_ok and (da > 0.0) == (2.0 - 1.0 / st.K > 0.0)
        traj = rg_flow(st, l_max=1.0, dl=1e-2)
        ks = [s.K for s in traj.states]
        mono_ok = mono_ok and all(b >= a for a, b in zip(ks, ks[1:]))

    ref = rg_flow(RGState(0.1, 1.0), l_max=2.0, dl=2.0 / 3200).states[-1]
    errs = []
    for n in (100, 200):
        end = rg_flow(RGState(0.1, 1.0), l_max=2.0, dl=2.0 / n).states[-1]
        errs.append(math.hypot(end.alpha - ref.alpha, end.K - ref.K))
    order = math.log2(errs[0] / errs[1])

    gap_exact = all(mass_gap(2.0, K, lam) == lam for K in (0.6, 1.0, 3.0) for lam in (0.5, 2.0))
    gap_vals = (
        abs(mass_gap(1.0, 1.0, 1.0) - 0.5) < 1e-12
        and abs(mass_gap(1.0, 2.0 / 3.0, 1.0) - 0.25) < 1e-12
    )
    ok = fixed_ok and mono_ok and sign_ok and order >= 2.0 and gap_exact and gap_vals
    _report(
        "9",
        ok,
        f"alpha=0 line exact; K nondecreasing on 100 trajectories; separatrix sign ok; "
        f"measured step-halving order {order:.2f} (>= 2); gap identities to 1e-12",
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    cmds = {
        "fig1": ["fig1", "--samples", "60", "--tauq", "1", "--tauq", "5"],
        "fig2": ["fig2", "--samples", "40", "--alpha-samples", "40"],
        "quench": ["quench", "--nsites", "20", "--tauq", "3", "--evolve",
                   "--evolve-modes", "2"],
        "rg": ["rg", "--initial", "0.1,1.0", "--initial", "0.2,0.4", "--lmax", "1.0",
               "--dl", "0.01"],
        "noncontract": ["noncontract", "--alpha", "0.5", "--alpha", "0.05",
                        "--nsites", "50", "--nsites", "500"],
        "oracle": ["oracle", "--steps", "1200", "--grid", "3", "--spectrum-cases", "2",
                   "--seed", "7"],
    }
    identical = True
    for name, args in cmds.items():
        paths = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}_{tag}.csv"
            rc = main(args + ["--out", str(out)])
            assert rc == 0, f"{name} run failed"
            if name == "fig2":
                paths.append((tmp_path / f"{name}_{tag}_gamma.csv").read_bytes()
                             + (tmp_path / f"{name}_{tag}_dgamma.csv").read_bytes())
            else:
                paths.append(out.read_bytes())
        identical = identical and paths[0] == paths[1]
    _report("10", identical, "all six commands emit byte-identical CSV on repeat runs")
    assert identical
