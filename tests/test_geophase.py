import dataclasses
import math

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    DegeneratePointError,
    critical_phase,
    final_phase,
    mode_phase,
    momentum_grid,
    noncontractibility_scan,
    phase_summary,
    total_phase,
)
from xyquench.chain import gap_kernel
from xyquench.geophase import phase_slope
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


# ------------------------------------------------------ isotropic (XX) step

def mode_phase_xx(k, t, tau_q):
    """Gamma_k at alpha = 0 along the ramp B = -t/tau_q: a sharp 0 -> 2pi step at B = cos k."""
    return mode_phase(k, -t / tau_q, 0.0)


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


def test_xx_matches_general_formula_at_alpha_zero():
    # at alpha = 0, cos(theta_k) = sign(cos k - B) exactly: the phase is 0 or 2pi, never between
    rng = np.random.default_rng(25)
    for _ in range(500):
        k = rng.uniform(0.0, math.pi)
        t = -rng.uniform(0.0, 3.0)
        assert mode_phase_xx(k, t, 1.0) == (0.0 if np.cos(k) > -t else TWO_PI)


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
    # only the k = 3pi/4 term survives
    assert final_phase(spec, drop_k0=True) == pytest.approx(5.363034122668976, rel=1e-13)
    # the sum drops exactly the first grid term, bit for bit, at every size
    for n in (2, 4, 10, 100, 1002):
        spec = ChainSpec(n, 0.7)
        gam = mode_phase(momentum_grid(spec), 0.0, 0.7)
        keep = np.arange(gam.size) > 0
        assert final_phase(spec, drop_k0=True) == float(np.sum(gam[keep]))
        assert final_phase(spec, drop_k0=False) == float(np.sum(gam)) == total_phase(spec, 0.0)


def test_final_phase_xx_step_terms():
    spec = ChainSpec(6, 0.0)
    got = final_phase(spec)
    k = momentum_grid(spec)
    expected = sum(TWO_PI if math.cos(float(ki)) < 0.0 else 0.0 for ki in k)
    assert got == expected


# ------------------------------------------------ d(Gamma_k)/dB: _deriv_cells, phase_slope

def _slopes(k, B, alpha) -> list:
    """fig2 derivative cells over a field array, as floats (None where a cell is gapless)."""
    values, gapless = _deriv_cells(k, B, alpha)
    return [None if g else v for v, g in zip(values.tolist(), gapless.tolist())]


def _slope(k, B, alpha):
    """One fig2 derivative cell, as a float (None where the cell is gapless)."""
    return _slopes(k, np.array([B]), alpha)[0]


def test_dphase_zero_for_isotropic_chain():
    assert _slope(0.7, 0.5, 0.0) == 0.0


def test_dphase_zero_at_band_edges():
    assert _slope(0.0, 0.5, 1.0) == 0.0
    assert _slope(math.pi, 0.5, 1.0) == pytest.approx(0.0, abs=1e-30)


def test_dphase_on_crossing_value():
    # k = pi/2 at its crossing B = 0: pi * s^2 / s^3 = pi / (alpha sin k)
    assert _slope(math.pi / 2, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-14)


def test_dphase_tiny_gap_does_not_underflow():
    # at B = cos k = 1 the gap is alpha sin k = 1e-110, whose cube underflows
    cells = _slopes(1e-110, np.array([1.0, 0.0]), 1.0)
    assert cells[0] == pytest.approx(math.pi * 1e110, rel=1e-14)
    assert _slope(2.2e-309, 1.0, 1.0) == math.inf  # pi / 2.2e-309 overflows


def test_phase_slope_off_the_crossing_where_the_cube_under_or_overflows():
    # s != Lambda: the pi (s/Lambda)^2/Lambda branch keeps both the ratio and the 1/Lambda
    for s, lam in ((3e-110, 5e-110), (3e110, 5e110)):
        assert phase_slope(s, lam) == pytest.approx(0.36 * math.pi / lam, rel=1e-14)
    # k = pi/2 at B = 1e200 with alpha = 1e200: Lambda = sqrt(2) 1e200
    got = _slope(math.pi / 2, 1e200, 1e200)
    assert got == pytest.approx(0.5 * math.pi / (math.sqrt(2.0) * 1e200), rel=1e-14)


@pytest.mark.parametrize("alpha", [1e103, 1e200, 1e300])
def test_dphase_huge_gap_does_not_overflow(alpha):
    # at k = pi/2, B = 0 the gap is alpha; past 5.6e102 its cube is inf, so pi s^2/Lambda^3
    # would read 0 (finite s^2) or NaN (s^2 = inf) where the value is pi/alpha
    expected = pytest.approx(math.pi / alpha, rel=1e-14, abs=0.0)
    assert _slope(math.pi / 2, 0.0, alpha) == expected
    assert phase_slope(alpha, alpha) == expected


def test_dphase_nonnegative_random():
    rng = np.random.default_rng(31)
    k = rng.uniform(0.0, math.pi, 2000)
    B = rng.uniform(0.0, 3.0, 2000)
    a = rng.uniform(0.0, 2.0, 2000)
    vals, gapless = _deriv_cells(k, B, a)
    assert not gapless.any()
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
        analytic = _slope(k, B, a)
        fd = (float(mode_phase(k, B + h, a)) - float(mode_phase(k, B - h, a))) / (2.0 * h)
        assert abs(fd - analytic) / abs(analytic) < 1e-5
        checked += 1


def test_dphase_degenerate_raises():
    # alpha = 0 at B = cos k: Lambda = 0, where mode_phase raises
    assert _slope(math.pi / 3, math.cos(math.pi / 3), 0.0) is None
    with pytest.raises(DegeneratePointError):
        mode_phase(math.pi / 3, math.cos(math.pi / 3), 0.0)


def _peak_slope_density(n: int) -> float:
    """max over B of (1/N) dGamma_g/dB at alpha = 1: [0.9, 1.1] coarsely, 1 +/- 5/N finely."""
    k = momentum_grid(ChainSpec(n, 1.0))
    fields = np.concatenate((np.linspace(0.9, 1.1, 21), 1.0 + np.linspace(-5.0, 5.0, 101) / n))
    return max(float(np.sum(phase_slope(*gap_kernel(k, b, 1.0)[1:3]))) for b in fields) / n


def test_derivative_peak_grows_as_half_log_n():
    # Carollo & Pachos, PRL 95, 157203 (2005): at the critical field the peak
    # diverges as (1/2) ln N + const; the constant settles by N = 10^3
    offset = {n: _peak_slope_density(n) - 0.5 * math.log(n) for n in (10**2, 10**3, 10**4, 10**5)}
    ref = offset[10**5]
    assert ref == pytest.approx(0.2560, abs=1e-4)
    assert abs(offset[10**3] - ref) <= 1e-3 and abs(offset[10**4] - ref) <= 1e-3
    assert abs(offset[10**2] - ref) <= 3e-3


# ------------------------------------------------------------------ summary

def test_phase_summary_final_drop_matches():
    spec = ChainSpec(8, 1.0)
    k0 = float(momentum_grid(spec)[0])
    ps = phase_summary(spec, b_initial=5.0, drop_k0=True)
    assert ps.gamma_final == pytest.approx(
        total_phase(spec, 0.0) - float(mode_phase(k0, 0.0, 1.0)), rel=1e-12
    )
    assert ps.gamma_critical == critical_phase(spec)
    # the summary holds the three phases; the caller knows whether it dropped k0
    assert ps.gamma_final == final_phase(spec, drop_k0=True)
    assert phase_summary(spec, b_initial=5.0).gamma_final == final_phase(spec)
    assert [f.name for f in dataclasses.fields(ps)] == [
        "gamma_initial", "gamma_critical", "gamma_final"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ps.gamma_final = 0.0


# -------------------------------------------------- noncontractibility_scan

def test_noncontract_rejects_field_outside_window():
    for b in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            noncontractibility_scan(b, [0.1], [100])


def test_noncontract_rejects_nonpositive_alpha():
    # one np.all over the ladder; NaN > 0 is false, so NaN is refused with the rest
    for alpha in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="alpha_sequence must be strictly positive"):
            noncontractibility_scan(0.5, [0.1, alpha], [100])


def test_noncontract_b0_gives_pi_exactly():
    # grid is symmetric under k -> pi - k, so half the modes carry 2pi
    scan = noncontractibility_scan(0.0, [1e-3, 1.0], [100, 1000])
    assert scan.shape == (2, 2)
    for g in scan.ravel():
        assert g == pytest.approx(math.pi, rel=1e-12)


def test_noncontract_limit_value_brute_force():
    alpha, n = 1e-4, 10000
    got = noncontractibility_scan(0.5, [alpha], [n])[0, 0]
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
    # scan[i, j] is alpha i at size j, with the bits of the chain sum at that one cell
    alphas, sizes = [0.5, 0.1, 3.0], [10, 20]
    scan = noncontractibility_scan(0.2, alphas, sizes)
    assert scan.shape == (3, 2) and scan.dtype == np.float64
    for i, a in enumerate(alphas):
        for j, n in enumerate(sizes):
            assert scan[i, j] == total_phase(ChainSpec(n, a), 0.2) / (n // 2)


def test_noncontract_empty_ladders_keep_their_shape():
    assert noncontractibility_scan(0.5, [], [10, 20]).shape == (0, 2)
    assert noncontractibility_scan(0.5, [0.1, 1.0], []).shape == (2, 0)
