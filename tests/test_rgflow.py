import math

import numpy as np
import pytest

from xyquench import (
    COMPLETED,
    PhaseLabel,
    RGState,
    STRONG_COUPLING,
    classify_phase,
    mass_gap,
    rg_flow,
)
from xyquench import rgflow
from xyquench.rgflow import _rhs


def flow_derivative(state):
    """(d alpha/dl, dK/dl) at the state's couplings."""
    return _rhs(state.alpha, state.K)


# ------------------------------------------------------------------- rg_flow

def test_fixed_line_alpha_zero_exact():
    traj = rg_flow(RGState(0.0, 0.3), l_max=5.0, dl=1e-2)
    assert traj.status == COMPLETED
    for st in traj.states:
        assert st.alpha == 0.0
        assert st.K == 0.3


def test_relevant_coupling_grows():
    traj = rg_flow(RGState(0.1, 1.0), l_max=6.0, dl=1e-3, alpha_cap=10.0)
    assert traj.status == STRONG_COUPLING
    alphas = [st.alpha for st in traj.states]
    assert alphas[-1] > 10.0
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))


def test_initial_derivative_value():
    da, dk = flow_derivative(RGState(0.1, 0.3))
    assert da == pytest.approx((2.0 - 1.0 / 0.3) * 0.1, rel=1e-15)
    assert da == pytest.approx(-0.13333333333333336, rel=1e-12)
    assert dk == pytest.approx(0.01 / 4.0, rel=1e-15)


def test_irrelevant_coupling_shrinks():
    traj = rg_flow(RGState(0.1, 0.3), l_max=2.0, dl=1e-3)
    assert traj.status == COMPLETED
    assert traj.states[-1].alpha < 0.1


def test_trajectory_against_finer_reference():
    coarse = rg_flow(RGState(0.1, 0.3), l_max=2.0, dl=1e-2)
    fine = rg_flow(RGState(0.1, 0.3), l_max=2.0, dl=1e-3)
    assert coarse.states[-1].alpha == pytest.approx(fine.states[-1].alpha, rel=1e-9)
    assert coarse.states[-1].K == pytest.approx(fine.states[-1].K, rel=1e-9)


def test_k_nondecreasing_random_trajectories():
    rng = np.random.default_rng(51)
    for _ in range(100):
        st = RGState(rng.uniform(0.0, 2.0), rng.uniform(0.2, 3.0))
        traj = rg_flow(st, l_max=1.0, dl=1e-2, alpha_cap=1e3)
        ks = [s.K for s in traj.states]
        assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_separatrix_sign():
    rng = np.random.default_rng(52)
    for _ in range(200):
        k = rng.uniform(0.2, 3.0)
        a = rng.uniform(1e-3, 2.0)
        da, _ = flow_derivative(RGState(a, k))
        assert math.copysign(1.0, da) == math.copysign(1.0, 2.0 - 1.0 / k) or da == 0.0


def test_l_grid_is_uniform_and_hits_l_max():
    traj = rg_flow(RGState(0.05, 0.8), l_max=1.0, dl=0.25)
    ls = [s.l for s in traj.states]
    assert ls == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], rel=1e-15)


def test_rg_flow_validation():
    with pytest.raises(ValueError):
        rg_flow(RGState(0.1, 1.0), l_max=1.0, dl=-0.1)
    with pytest.raises(ValueError):
        rg_flow(RGState(0.1, 1.0, l=2.0), l_max=1.0)
    with pytest.raises(ValueError):
        RGState(-0.1, 1.0)
    with pytest.raises(ValueError):
        RGState(0.1, 0.0)


def test_rg_flow_rejects_an_rk4_overshoot_below_alpha_zero():
    # a coarse step overshoots the fixed line; the step that does it is refused
    with pytest.raises(ValueError) as err:
        rg_flow(RGState(0.1, 0.05), l_max=5.0, dl=0.5)
    assert str(err.value) == "alpha must be >= 0, got -2.6629005825177945"


@pytest.mark.parametrize("initial,alpha_cap,status", [
    (RGState(0.1, 0.3), 1e3, COMPLETED),
    (RGState(0.1, 1.0, l=0.5), 10.0, STRONG_COUPLING),
    (RGState(0.0, 0.8, l=-0.0), 1e3, COMPLETED),  # the first row keeps the sign of zero
])
def test_states_are_the_columns_bit_for_bit(initial, alpha_cap, status):
    traj = rg_flow(initial, l_max=6.0, dl=1e-2, alpha_cap=alpha_cap)
    assert traj.status == status
    assert len(traj.l) == len(traj.alpha) == len(traj.K) == len(traj.states)
    assert traj.states[0] == initial
    assert float.hex(traj.l[0]) == float.hex(initial.l)
    h = (6.0 - initial.l) / round((6.0 - initial.l) / 1e-2)
    assert traj.l.tolist() == [initial.l + i * h for i in range(len(traj.l))]
    rows = [(st.l, st.alpha, st.K) for st in traj.states]
    cols = list(zip(traj.l.tolist(), traj.alpha.tolist(), traj.K.tolist()))
    assert [tuple(map(float.hex, r)) for r in rows] == [tuple(map(float.hex, c)) for c in cols]


def test_rg_flow_refuses_a_run_over_the_step_budget(monkeypatch):
    # the estimate (l_max - l) / dl is 200 steps here: refused only below that budget
    monkeypatch.setattr(rgflow, "_MAX_STEPS", 200)
    assert len(rg_flow(RGState(0.1, 1.0), l_max=0.2, dl=1e-3).states) == 201
    monkeypatch.setattr(rgflow, "_MAX_STEPS", 199)
    with pytest.raises(ValueError, match="about 200 RK4 steps, above the budget of 2e\\+02"):
        rg_flow(RGState(0.1, 1.0), l_max=0.2, dl=1e-3)


def test_step_halving_order_at_least_two():
    ref = rg_flow(RGState(0.1, 1.0), l_max=2.0, dl=2.0 / 1600).states[-1]
    e = []
    for n in (100, 200):
        end = rg_flow(RGState(0.1, 1.0), l_max=2.0, dl=2.0 / n).states[-1]
        e.append(math.hypot(end.alpha - ref.alpha, end.K - ref.K))
    order = math.log2(e[0] / e[1])
    assert order >= 2.0


# ------------------------------------------------------------------ mass_gap

def test_mass_gap_alpha_two_is_cutoff_exact():
    for K in (0.6, 1.0, 2.5):
        for lam in (0.5, 1.0, 7.0):
            assert mass_gap(2.0, K, lam) == lam


def test_mass_gap_frozen_values():
    assert abs(mass_gap(1.0, 1.0, 1.0) - 0.5) < 1e-12
    assert abs(mass_gap(1.0, 2.0 / 3.0, 1.0) - 0.25) < 1e-12


def test_mass_gap_increasing_in_alpha():
    vals = [mass_gap(a, 1.5, 1.0) for a in (0.1, 0.5, 1.0, 1.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mass_gap_vanishes_with_alpha():
    assert mass_gap(1e-12, 1.0, 1.0) < 1e-11


def test_mass_gap_overflow_is_an_infinite_gap():
    # 1.5 ** (1 / (2 - 1/K)) overflows a float just above K = 1/2
    assert mass_gap(3.0, 0.5000001, 1.0) == math.inf
    for B in (0.0, 1.0, 1e300):
        assert classify_phase(0.5000001, 3.0, B, 1.0) is PhaseLabel.STAGGERED_ORDER


def test_mass_gap_rejects_irrelevant_regime():
    with pytest.raises(ValueError):
        mass_gap(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        mass_gap(1.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        mass_gap(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mass_gap(1.0, 1.0, 0.0)


# ------------------------------------------------------------ classify_phase

def test_classify_examples():
    assert classify_phase(1.0, 1.0, 0.0, 1.0) is PhaseLabel.STAGGERED_ORDER
    assert classify_phase(1.0, 1.0, 10.0, 1.0) is PhaseLabel.FERROMAGNETIC
    assert classify_phase(1.0, 1.0, 0.5, 1.0, band=0.2) is PhaseLabel.LUTTINGER_LIQUID


def test_classify_band_boundaries():
    # M = 0.5 at (alpha=1, K=1, cutoff=1); band 0.2 puts LL on [0.4, 0.6]
    assert classify_phase(1.0, 1.0, 0.6, 1.0, band=0.2) is PhaseLabel.LUTTINGER_LIQUID
    assert classify_phase(1.0, 1.0, 0.61, 1.0, band=0.2) is PhaseLabel.FERROMAGNETIC
    assert classify_phase(1.0, 1.0, 0.4, 1.0, band=0.2) is PhaseLabel.LUTTINGER_LIQUID
    assert classify_phase(1.0, 1.0, 0.39, 1.0, band=0.2) is PhaseLabel.STAGGERED_ORDER


def test_classify_small_k_branch():
    assert classify_phase(0.4, 1.0, 0.5, 1.0) is PhaseLabel.LUTTINGER_LIQUID
    assert classify_phase(0.4, 1.0, 1.5, 1.0) is PhaseLabel.FERROMAGNETIC
    # the edge is the band edge B = 1, exclusive
    assert classify_phase(0.4, 1.0, 1.0, 1.0) is PhaseLabel.LUTTINGER_LIQUID
    assert classify_phase(0.4, 1.0, math.nextafter(1.0, 2.0), 1.0) is PhaseLabel.FERROMAGNETIC


def test_classify_scale_consistency():
    rng = np.random.default_rng(53)
    for _ in range(300):
        K = rng.uniform(0.55, 3.0)
        a = rng.uniform(0.05, 1.9)
        B = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.1, 5.0)
        c = rng.uniform(0.1, 10.0)
        assert classify_phase(K, a, B, lam) is classify_phase(K, a, c * B, c * lam)


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_phase(1.0, 1.0, 0.5, 1.0, band=0.0)
    with pytest.raises(ValueError):
        classify_phase(1.0, 1.0, -0.5, 1.0)
