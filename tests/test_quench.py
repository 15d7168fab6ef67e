import math

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    QuenchSchedule,
    adiabatic_threshold,
    evolve_mode,
    kink_count,
    lz_probability,
    momentum_grid,
)


# ------------------------------------------------------------------ schedule

def test_schedule_validation():
    with pytest.raises(ValueError):
        QuenchSchedule(tau_q=-1.0, t_start=-5.0)
    with pytest.raises(ValueError):
        QuenchSchedule(tau_q=1.0, t_start=0.0, t_end=-1.0)
    with pytest.raises(ValueError):
        QuenchSchedule(tau_q=1.0, t_start=-1.0, t_end=0.5)


def test_schedule_from_field():
    s = QuenchSchedule.from_field(4.0, b_start=5.0)
    assert s.t_start == -20.0
    assert -s.t_start / s.tau_q == 5.0  # B(t_start) = b_start


# ------------------------------------------------------------ lz_probability

def test_lz_instant_quench_saturates():
    assert lz_probability(0.3, 0.0) == 1.0


def test_lz_frozen_value():
    expected = math.exp(-2.0 * math.pi * 10.0 * (math.pi / 100.0) ** 2)
    assert expected == pytest.approx(0.9398710881763459, rel=1e-15)
    assert lz_probability(math.pi / 100, 10.0) == pytest.approx(expected, rel=1e-15)


def test_lz_large_momentum_vanishes():
    assert lz_probability(50.0, 1.0) == 0.0  # underflows cleanly


def test_lz_monotonicity():
    rng = np.random.default_rng(42)
    k = rng.uniform(0.01, math.pi, 500)
    tq = rng.uniform(0.0, 50.0, 500)
    assert np.all(lz_probability(k, 3.0) <= lz_probability(k, 2.0))
    k2 = k * 1.5
    assert np.all(lz_probability(k2, 5.0) <= lz_probability(k, 5.0))
    p = lz_probability(k, tq)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(p[tq * k * k < 100.0] > 0.0)  # positive until it underflows


# ---------------------------------------------------------------- kink_count

def test_threshold_value():
    assert adiabatic_threshold(100) == pytest.approx(1e4 / (2.0 * math.pi**3), rel=1e-15)
    assert adiabatic_threshold(100) == pytest.approx(161.25767216599746, rel=1e-12)


def test_kink_count_brute_force_n100():
    spec = ChainSpec(100, 1.0)
    rep = kink_count(spec, 10.0)
    brute = 0.0
    for m in range(1, 51):
        k = (2 * m - 1) * math.pi / 100.0
        brute += 2.0 * math.exp(-2.0 * math.pi * 10.0 * k * k)
    assert rep.kink_count == pytest.approx(brute, rel=1e-13)
    assert rep.kink_count == pytest.approx(3.558812717085886, rel=1e-12)


def test_kink_count_sums_per_mode_map():
    spec = ChainSpec(20, 0.5)
    rep = kink_count(spec, 2.0)
    assert len(rep.per_mode_p) == 20
    assert rep.kink_count == pytest.approx(sum(rep.per_mode_p.values()), rel=1e-13)


def test_kink_count_instant_quench_equals_n():
    spec = ChainSpec(30, 1.0)
    assert kink_count(spec, 0.0).kink_count == pytest.approx(30.0, rel=1e-15)


def test_kink_count_slow_quench_vanishes():
    spec = ChainSpec(10, 1.0)
    assert kink_count(spec, 1e6).kink_count < 1e-100


def test_adiabatic_flag_thresholds():
    spec = ChainSpec(100, 1.0)
    assert not kink_count(spec, 1000.0).adiabatic  # 1000 < 10 * 161.26
    assert kink_count(spec, 2000.0).adiabatic


def test_single_pair_regime():
    spec = ChainSpec(100, 1.0)
    tau = 10.0 * adiabatic_threshold(100) * 1.01
    rep = kink_count(spec, tau)
    k0 = float(momentum_grid(spec)[0])
    p0 = float(lz_probability(k0, tau))
    assert rep.kink_count < 2.0 * p0 * (1.0 + 1e-2)
    assert (rep.kink_count - 2.0 * p0) / rep.kink_count < 1e-2


# ---------------------------------------------------------------- evolve_mode

def test_evolve_matches_lz_small_k():
    for k, tau in ((math.pi / 100, 10.0), (math.pi / 50, 1.0)):
        p = evolve_mode(k, 1.0, QuenchSchedule.from_field(tau))
        expected = float(lz_probability(k, tau))
        assert abs(p - expected) / expected < 0.1


def test_evolve_unitarity_throughout():
    res = evolve_mode(
        math.pi / 50, 1.0, QuenchSchedule.from_field(10.0), full_output=True
    )
    assert res.norm_drift < 1e-8
    assert res.crossing_covered


def test_evolve_adiabatic_limit():
    # very slow quench at sizable gap: essentially no excitation
    p = evolve_mode(math.pi / 4, 1.0, QuenchSchedule.from_field(200.0))
    assert p < 1e-6


def test_evolve_no_coupling_warns():
    with pytest.warns(UserWarning, match="no coupling"):
        p = evolve_mode(0.5, 0.0, QuenchSchedule.from_field(2.0))
    # diagonal Hamiltonian: the state rides through the crossing unchanged
    assert p == pytest.approx(1.0, abs=1e-12)


def test_evolve_window_not_covering_crossing_warns():
    sched = QuenchSchedule(tau_q=10.0, t_start=-5.0, t_end=0.0)  # B in [0, 0.5]
    with pytest.warns(UserWarning, match="does not cover"):
        p = evolve_mode(math.pi / 4, 1.0, sched)
    assert p < 0.05  # no crossing inside the window: stays near the ground state


def test_evolve_unstable_step_rejected():
    with pytest.raises(ValueError, match="unstable"):
        evolve_mode(math.pi / 50, 1.0, QuenchSchedule.from_field(5.0), dt=1.0)


def test_evolve_float_and_full_output_agree():
    sched = QuenchSchedule.from_field(3.0)
    p = evolve_mode(math.pi / 30, 1.0, sched)
    res = evolve_mode(math.pi / 30, 1.0, sched, full_output=True)
    assert p == res.probability
