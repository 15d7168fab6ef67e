import math

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    DegeneratePointError,
    critical_phase,
    dphase_db,
    final_phase,
    mode_phase,
    mode_phase_xx,
    momentum_grid,
    noncontractibility_scan,
    phase_summary,
    total_phase,
)
from xyquench.sweeps import _deriv_cells

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- mode_phase

def test_mode_phase_endpoints():
    # cos(theta) = +1 (deep B << cos k side) and -1 (B >> 1) map to 0 and 2pi
    assert mode_phase(0.0, 2.0, 0.0) == pytest.approx(TWO_PI, rel=1e-15)
    assert mode_phase(0.0, -2.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_mode_phase_frozen_value():
    # pi * (1 + 0.5/sqrt(0.5)), evaluated independently
    expected = math.pi * (1.0 + 0.5 / math.sqrt(0.5))
    assert expected == pytest.approx(5.363034122668976, rel=1e-15)
    assert mode_phase(math.pi / 2, 0.5, 0.5) == pytest.approx(expected, rel=1e-14)


# ------------------------------------------- phase at quench time t, B = -t/tau_q

def test_at_time_numerator_vanishes():
    # t = -tau_q cos k puts the mode on its crossing: gamma = pi
    k, t, tau_q = 0.7, -5.0 * math.cos(0.7), 5.0
    assert mode_phase(k, -t / tau_q, 0.9) == pytest.approx(math.pi, rel=1e-14)


def test_at_time_ising_k_half_pi_t0():
    assert mode_phase(math.pi / 2, -0.0 / 1.0, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_at_time_frozen_value():
    t, tau_q = -0.5 * 7.0, 7.0
    assert mode_phase(math.pi / 2, -t / tau_q, 0.5) == pytest.approx(5.363034122668976, rel=1e-14)


def test_mode_phase_ising_closed_form():
    # alpha = 1 collapses the gap to sqrt(1 + x^2 + 2 x cos k), x = t/tau_q = -B
    rng = np.random.default_rng(24)
    for _ in range(200):
        k = rng.uniform(0.05, math.pi - 0.05)
        x = -rng.uniform(0.0, 3.0)
        denom = math.sqrt(1.0 + x * x + 2.0 * x * math.cos(k))
        expected = math.pi * (1.0 - (math.cos(k) + x) / denom)
        assert mode_phase(k, -x, 1.0) == pytest.approx(expected, rel=1e-13)


def test_mode_phase_range_random():
    rng = np.random.default_rng(21)
    gam = mode_phase(
        rng.uniform(0.0, math.pi, 5000),
        rng.uniform(-3.0, 3.0, 5000),
        rng.uniform(0.0, 2.0, 5000),
    )
    assert np.all(gam >= 0.0) and np.all(gam <= TWO_PI)


def test_mode_phase_even_in_k():
    rng = np.random.default_rng(22)
    k = rng.uniform(0.0, math.pi, 500)
    B = rng.uniform(-2.0, 2.0, 500)
    a = rng.uniform(0.1, 2.0, 500)
    assert np.array_equal(mode_phase(k, B, a), mode_phase(-k, B, a))


# ------------------------------------------------------------ mode_phase_xx

def test_xx_step_values():
    assert mode_phase_xx(0.3, -2.0 * 1.0, 1.0) == TWO_PI  # B = 2 > cos k always
    assert mode_phase_xx(math.pi / 2, -0.1 * 5.0, 5.0) == TWO_PI  # B = 0.1 > 0
    assert mode_phase_xx(0.3, -0.1, 1.0) == 0.0  # B = 0.1 < cos(0.3)


def test_xx_step_at_k_to_zero_is_theta_of_t():
    # smallest grid momenta: the flip happens where |t| crosses tau_q
    k = math.pi / 10000
    tau = 3.0
    assert mode_phase_xx(k, -0.999 * tau, tau) == 0.0
    assert mode_phase_xx(k, -1.001 * tau, tau) == TWO_PI


def test_xx_exact_edge_raises():
    with pytest.raises(DegeneratePointError):
        mode_phase_xx(math.pi / 3, -math.cos(math.pi / 3), 1.0)  # B lands exactly on cos k


def test_xx_rejects_positive_t():
    with pytest.raises(ValueError):
        mode_phase_xx(1.0, 0.5, 1.0)


def test_xx_matches_general_formula_at_alpha_zero():
    rng = np.random.default_rng(25)
    for _ in range(500):
        k = rng.uniform(0.0, math.pi)
        t = -rng.uniform(0.0, 3.0)
        assert mode_phase_xx(k, t, 1.0) == mode_phase(k, -t, 0.0)


# ------------------------------------------------------------- total_phase

def test_total_phase_n2_single_mode():
    assert total_phase(ChainSpec(2, 1.0), 0.0) == pytest.approx(math.pi, rel=1e-14)


def test_total_phase_n4_b0_ising_is_two_pi():
    # per-mode: pi(1 -/+ cos(pi/4)); the pair sums to exactly 2pi
    spec = ChainSpec(4, 1.0)
    k = momentum_grid(spec)
    g1 = float(mode_phase(k[0], 0.0, 1.0))
    g2 = float(mode_phase(k[1], 0.0, 1.0))
    assert g1 == pytest.approx(0.92015118451061, rel=1e-13)
    assert g2 == pytest.approx(5.363034122668976, rel=1e-13)
    assert total_phase(spec, 0.0) == pytest.approx(TWO_PI, rel=1e-14)


def test_total_phase_large_field_limit():
    spec = ChainSpec(8, 0.7)
    assert total_phase(spec, 1e6) == pytest.approx(4 * TWO_PI, rel=1e-5)


def test_total_phase_additivity_summation_order():
    spec = ChainSpec(64, 0.8)
    k = momentum_grid(spec)
    forward = sum(float(mode_phase(ki, 0.3, 0.8)) for ki in k)
    backward = sum(float(mode_phase(ki, 0.3, 0.8)) for ki in k[::-1])
    total = total_phase(spec, 0.3)
    assert total == pytest.approx(forward, rel=1e-12)
    assert total == pytest.approx(backward, rel=1e-12)


def test_total_phase_gapless_mode_names_k():
    spec = ChainSpec(6, 0.0)
    k_bad = float(momentum_grid(spec)[0])
    with pytest.raises(DegeneratePointError) as err:
        total_phase(spec, math.cos(k_bad))
    assert err.value.k == pytest.approx(k_bad, rel=1e-15)


# ----------------------------------------------------------- critical_phase

def test_critical_phase_equals_total_at_unit_field():
    for n, a in ((2, 1.0), (6, 0.5), (10, 2.0)):
        spec = ChainSpec(n, a)
        assert critical_phase(spec) == total_phase(spec, 1.0)


def test_critical_phase_xx_gives_two_pi_per_mode():
    # at B = 1 every grid mode sits past its crossing (cos k < 1)
    spec = ChainSpec(4, 0.0)
    assert critical_phase(spec) == pytest.approx(2 * TWO_PI, rel=1e-14)


def test_critical_phase_n2_ising_value():
    # k = pi/2 at B = 1: cos(theta) = -1/sqrt(2)
    expected = math.pi * (1.0 + 1.0 / math.sqrt(2.0))
    assert critical_phase(ChainSpec(2, 1.0)) == pytest.approx(expected, rel=1e-14)


def test_critical_phase_large_alpha_per_mode_pi():
    spec = ChainSpec(6, 1e8)
    assert critical_phase(spec) == pytest.approx(3 * math.pi, rel=1e-7)


# -------------------------------------------------------------- final_phase

def test_final_phase_no_exclusions_is_total_at_zero_field():
    spec = ChainSpec(8, 0.6)
    assert final_phase(spec) == total_phase(spec, 0.0)


def test_final_phase_excluding_k0():
    spec = ChainSpec(4, 1.0)
    k0 = float(momentum_grid(spec)[0])
    # only the k = 3pi/4 term survives
    assert final_phase(spec, {k0}) == pytest.approx(5.363034122668976, rel=1e-13)


def test_final_phase_xx_step_terms():
    spec = ChainSpec(6, 0.0)
    got = final_phase(spec)
    k = momentum_grid(spec)
    expected = sum(TWO_PI if math.cos(float(ki)) < 0.0 else 0.0 for ki in k)
    assert got == expected


def test_final_phase_rejects_off_grid_momentum():
    with pytest.raises(ValueError):
        final_phase(ChainSpec(4, 1.0), {0.123})


# ---------------------------------------------------------------- dphase_db

def test_dphase_zero_for_isotropic_chain():
    assert dphase_db(0.7, -0.5, 1.0, 0.0) == 0.0


def test_dphase_zero_at_band_edges():
    assert dphase_db(0.0, -0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-30)
    assert dphase_db(math.pi, -0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-30)


def test_dphase_on_crossing_value():
    # k = pi/2 at its crossing B = 0: pi * s^2 / s^3 = pi / (alpha sin k)
    assert dphase_db(math.pi / 2, -0.0, 1.0, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_dphase_tiny_gap_does_not_underflow():
    # at B = cos k = 1 the gap is alpha sin k = 1e-110, whose cube underflows
    assert dphase_db(1e-110, -1.0, 1.0, 1.0) == pytest.approx(math.pi * 1e110, rel=1e-14)
    assert dphase_db(2.2e-309, -1.0, 1.0, 1.0) == math.inf  # pi / 2.2e-309 overflows
    cells = _deriv_cells(1e-110, np.array([1.0, 0.0]), 1.0)
    assert cells[0] == pytest.approx(math.pi * 1e110, rel=1e-14)


def test_dphase_nonnegative_random():
    rng = np.random.default_rng(31)
    k = rng.uniform(0.0, math.pi, 2000)
    t = -rng.uniform(0.0, 3.0, 2000)
    a = rng.uniform(0.0, 2.0, 2000)
    vals = np.array([dphase_db(ki, ti, 1.0, ai) for ki, ti, ai in zip(k, t, a)])
    assert np.all(vals >= 0.0)


def test_dphase_matches_central_difference():
    rng = np.random.default_rng(32)
    h = 1e-6
    checked = 0
    while checked < 2000:
        k = rng.uniform(0.1, math.pi - 0.1)
        B = rng.uniform(-1.5, 1.5)
        a = rng.uniform(0.3, 2.0)
        lam = math.hypot(math.cos(k) - B, a * math.sin(k))
        if lam <= 0.1:
            continue
        analytic = dphase_db(k, -B, 1.0, a)
        fd = (float(mode_phase(k, B + h, a)) - float(mode_phase(k, B - h, a))) / (2.0 * h)
        assert abs(fd - analytic) / abs(analytic) < 1e-5
        checked += 1


def test_dphase_degenerate_raises():
    with pytest.raises(DegeneratePointError):
        dphase_db(math.pi / 3, -math.cos(math.pi / 3), 1.0, 0.0)


# ------------------------------------------------------------------ summary

def test_phase_summary_final_drop_matches():
    spec = ChainSpec(8, 1.0)
    k0 = float(momentum_grid(spec)[0])
    ps = phase_summary(spec, b_initial=5.0, excluded=(k0,))
    assert ps.gamma_final == pytest.approx(
        total_phase(spec, 0.0) - float(mode_phase(k0, 0.0, 1.0)), rel=1e-12
    )
    assert ps.gamma_critical == critical_phase(spec)
    assert k0 in ps.excluded_modes


# -------------------------------------------------- noncontractibility_scan

def test_noncontract_rejects_field_outside_window():
    for b in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            noncontractibility_scan(b, [0.1], [100])


def test_noncontract_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        noncontractibility_scan(0.5, [0.1, 0.0], [100])


def test_noncontract_b0_gives_pi_exactly():
    # grid is symmetric under k -> pi - k, so half the modes carry 2pi
    rows = noncontractibility_scan(0.0, [1e-3, 1.0], [100, 1000])
    for _, _, g in rows:
        assert g == pytest.approx(math.pi, rel=1e-12)


def test_noncontract_limit_value_brute_force():
    rows = noncontractibility_scan(0.5, [1e-4], [10000])
    alpha, n, got = rows[0]
    # independent brute-force sum over the half-integer grid
    acc = 0.0
    for m in range(1, n // 2 + 1):
        k = (2 * m - 1) * math.pi / n
        c = math.cos(k) - 0.5
        acc += math.pi * (1.0 - c / math.hypot(c, alpha * math.sin(k)))
    brute = acc / (n // 2)
    assert got == pytest.approx(brute, rel=1e-12)
    assert abs(got - 4.0 * math.pi / 3.0) < 1e-2


def test_noncontract_row_order_follows_sequences():
    rows = noncontractibility_scan(0.2, [0.5, 0.1], [10, 20])
    assert [(r[0], r[1]) for r in rows] == [(0.5, 10), (0.5, 20), (0.1, 10), (0.1, 20)]
