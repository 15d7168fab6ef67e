import dataclasses
import inspect
import math
import sys

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
    assert traj.l.tolist() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], rel=1e-15)


def test_rg_flow_validation():
    with pytest.raises(ValueError):
        rg_flow(RGState(0.1, 1.0), l_max=1.0, dl=-0.1)
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
    (RGState(0.1, 1.0), 10.0, STRONG_COUPLING),
    (RGState(0.0, 0.8), 1e3, COMPLETED),  # the alpha = 0 fixed line
])
def test_states_are_the_columns_bit_for_bit(initial, alpha_cap, status):
    traj = rg_flow(initial, l_max=6.0, dl=1e-2, alpha_cap=alpha_cap)
    assert traj.status == status
    assert len(traj.l) == len(traj.alpha) == len(traj.K) == len(traj.states)
    assert traj.states[0] == initial
    h = 6.0 / round(6.0 / 1e-2)
    assert traj.l.tolist() == [i * h for i in range(len(traj.l))]
    rows = [(st.alpha, st.K) for st in traj.states]
    cols = list(zip(traj.alpha.tolist(), traj.K.tolist()))
    assert [tuple(map(float.hex, r)) for r in rows] == [tuple(map(float.hex, c)) for c in cols]


def _rk4_from_rhs(initial, l_max, dl, alpha_cap):
    """rg_flow's loop with its four _rhs calls: (l, alpha, K, status) as lists."""
    n = max(1, int(round(l_max / dl)))
    h = l_max / n
    a, k = initial.alpha, initial.K
    alphas, ks, status = [a], [k], COMPLETED
    for _ in range(n):
        da1, dk1 = _rhs(a, k)
        da2, dk2 = _rhs(a + 0.5 * h * da1, k + 0.5 * h * dk1)
        da3, dk3 = _rhs(a + 0.5 * h * da2, k + 0.5 * h * dk2)
        da4, dk4 = _rhs(a + h * da3, k + h * dk3)
        a = a + (h / 6.0) * (da1 + 2.0 * da2 + 2.0 * da3 + da4)
        k = k + (h / 6.0) * (dk1 + 2.0 * dk2 + 2.0 * dk3 + dk4)
        alphas.append(a)
        ks.append(k)
        if a > alpha_cap:
            status = STRONG_COUPLING
            break
    return [i * h for i in range(len(alphas))], alphas, ks, status


@pytest.mark.parametrize("alpha,K,dl,status", [
    (0.1, 0.3, 1e-3, COMPLETED),
    (3.0, 0.4, 1e-3, STRONG_COUPLING),  # K crosses 1/2 on the way to the cap
    (2.0, 0.3, 1e-3, STRONG_COUPLING),
    # the fixed line in both signs: -0.0 turns into 0.0 below K = 1/2, where 2 - 1/K < 0
    # makes the derivative +0.0, and stays -0.0 above it
    (0.0, 0.3, 1e-3, COMPLETED),
    (0.0, 0.8, 1e-3, COMPLETED),
    (-0.0, 0.3, 1e-3, COMPLETED),
    (-0.0, 0.8, 1e-3, COMPLETED),
    (0.1, 1.0, 1e-5, COMPLETED),  # a small step: 10^5 of them
    # fixed points off the line: the smallest subnormal stays put from step 1, and
    # 1e-320 decays until step 1176 returns 1.853e-321 again
    (5e-324, 0.8, 1e-3, COMPLETED),
    (1e-320, 0.3, 1e-3, COMPLETED),
])
def test_inlined_flow_is_rk4_of_rhs_bit_for_bit(alpha, K, dl, status):
    l_max = 5.0 if dl >= 1e-3 else 1.0
    traj = rg_flow(RGState(alpha, K), l_max=l_max, dl=dl)
    l, alphas, ks, want = _rk4_from_rhs(RGState(alpha, K), l_max, dl, 1e3)
    assert traj.status == want == status
    # hex tells -0.0 from +0.0
    for got, ref in ((traj.l, l), (traj.alpha, alphas), (traj.K, ks)):
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, ref))


def _integrated_steps(initial, **kw):
    """rg_flow's trajectory and the number of RK4 steps it integrated, counted by a tracer."""
    lines, first = inspect.getsourcelines(rg_flow)
    body = first + next(i for i, ln in enumerate(lines) if "da1, dk1 =" in ln)
    steps = [0]

    def local(frame, event, arg):
        steps[0] += event == "line" and frame.f_lineno == body
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is rg_flow.__code__ else None)
    try:
        traj = rg_flow(initial, **kw)
    finally:
        sys.settrace(outer)
    return traj, steps[0]


@pytest.mark.parametrize("alpha,K,steps", [
    (0.0, 0.3, 1), (0.0, 0.8, 1), (-0.0, 0.8, 1),
    (-0.0, 0.3, 2),  # step 1 turns -0.0 into 0.0, which equals it but is not its bits
    (5e-324, 0.8, 1), (1e-320, 0.3, 1176),
    (0.1, 1.0, 5000), (0.1, 0.3, 5000),  # moving flows run every step
])
def test_the_flow_stops_integrating_at_the_first_step_that_returns_its_state(alpha, K, steps):
    traj, integrated = _integrated_steps(RGState(alpha, K), l_max=5.0, dl=1e-3)
    assert integrated == steps
    assert traj.status == COMPLETED and traj.alpha.size == traj.K.size == 5001
    # the rows after the fixed point repeat it, sign included
    rest = {(a.hex(), k.hex()) for a, k in zip(traj.alpha[steps:].tolist(), traj.K[steps:].tolist())}
    assert len(rest) == 1


def test_a_fixed_state_above_the_cap_still_stops_the_flow_as_strong_coupling():
    # 5e-324 is fixed at K = 0.8, and above a zero cap: the first step ends the flow
    traj, integrated = _integrated_steps(RGState(5e-324, 0.8), l_max=5.0, alpha_cap=0.0)
    assert (traj.status, integrated, traj.alpha.tolist()) == (STRONG_COUPLING, 1, [5e-324] * 2)
    assert _rk4_from_rhs(RGState(5e-324, 0.8), 5.0, 1e-3, 0.0)[1:] == (
        [5e-324] * 2, [0.8] * 2, STRONG_COUPLING)


def test_alpha_cap_is_exclusive():
    # a flow that lands exactly on the cap runs on; the first step past it stops the flow
    free = rg_flow(RGState(0.1, 1.0), l_max=6.0, dl=1e-2, alpha_cap=1e300)
    capped = rg_flow(RGState(0.1, 1.0), l_max=6.0, dl=1e-2, alpha_cap=float(free.alpha[300]))
    assert capped.status == STRONG_COUPLING
    assert capped.alpha.tolist() == free.alpha[:302].tolist()


def test_states_and_trajectories_are_frozen_values():
    traj = rg_flow(RGState(0.1, 1.0), l_max=1.0, dl=1e-2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.states[0].K = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.status = COMPLETED
    # array columns have no boolean ==, so a trajectory is equal only to itself
    again = rg_flow(RGState(0.1, 1.0), l_max=1.0, dl=1e-2)
    assert traj == traj and traj != again and len({traj, again}) == 2


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


_RANK = {PhaseLabel.STAGGERED_ORDER: 0, PhaseLabel.LUTTINGER_LIQUID: 1,
         PhaseLabel.FERROMAGNETIC: 2}


@pytest.mark.parametrize("alpha,edge", [(1.0, 0.0), (3.0, math.inf)])
def test_classify_labels_are_monotone_across_the_gap_under_and_overflow(alpha, edge):
    # K -> 1/2+ drives M to 0 (alpha < 2) or inf (alpha > 2); the labels follow ln M, which
    # stays finite, so they are monotone in K and in B on both sides of the float edge
    ks = [math.nextafter(0.5, 1.0)]
    for _ in range(7):
        ks.append(math.nextafter(ks[-1], 1.0))
    ks += [0.5 + 2.0**-j for j in range(49, 0, -1)]
    assert mass_gap(alpha, ks[0], 1.0) == edge and 0.0 < mass_gap(alpha, ks[-1], 1.0) < math.inf
    fields = [0.0, 5e-324, *np.logspace(-300, 300, 61).tolist()]
    ranks = np.array([[_RANK[classify_phase(K, alpha, B, 1.0)] for B in fields] for K in ks])
    assert np.all(np.diff(ranks, axis=1) >= 0)  # a larger field never orders the chain more
    # M falls with K for alpha > 2 and rises with K below it
    assert np.all(np.sign(alpha - 2.0) * np.diff(ranks, axis=0) >= 0)
    assert np.all(ranks[:, 0] == 0)  # B = 0 is below any gap
    assert set(ranks.ravel()) == {0, 1, 2}


def test_classify_the_alpha_zero_fixed_line_has_no_label():
    # K > 1/2 at alpha = 0: no gap forms, so there is no label and the cutoff is not read
    for K in (math.nextafter(0.5, 1.0), 1.0, 3.0):
        for alpha in (0.0, -0.0):
            assert classify_phase(K, alpha, 0.3, 1.0) is None
            assert classify_phase(K, alpha, 0.3, -1.0) is None
    assert classify_phase(0.5, 0.0, 0.3, 1.0) is PhaseLabel.LUTTINGER_LIQUID
    assert classify_phase(1.0, 5e-324, 0.0, 1.0) is PhaseLabel.STAGGERED_ORDER
    # band and field are checked first, on the fixed line too
    with pytest.raises(ValueError, match="band must lie in"):
        classify_phase(1.0, 0.0, 0.3, 1.0, band=2.0)
    with pytest.raises(ValueError, match="quench field must be >= 0"):
        classify_phase(1.0, 0.0, -0.5, 1.0)


def test_classify_underflowing_gap_at_zero_field_is_staggered():
    # (1/2)^2500 underflows to 0.0, yet the gap is positive
    assert mass_gap(1.0, 0.5001, 1.0) == 0.0
    assert classify_phase(0.5001, 1.0, 0.0, 1.0) is PhaseLabel.STAGGERED_ORDER
    assert classify_phase(0.5001, 1.0, 1e-300, 1.0) is PhaseLabel.FERROMAGNETIC  # ln M ~ -1733


def test_classify_scale_consistency():
    rng = np.random.default_rng(53)
    for _ in range(300):
        K = rng.uniform(0.55, 3.0)
        a = rng.uniform(0.05, 1.9)
        B = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.1, 5.0)
        c = rng.uniform(0.1, 10.0)
        assert classify_phase(K, a, B, lam) is classify_phase(K, a, c * B, c * lam)


def test_classify_band_edges_are_liquid():
    # alpha = 2 and cutoff = 1 give ln M = 0 exactly, and ln(1 -+ 1/2) = log1p(-+1/2) in
    # floating point, so B = 0.5 and 1.5 sit on the band edges bit for bit
    assert math.log(0.5) == math.log1p(-0.5) and math.log(1.5) == math.log1p(0.5)
    label = {B: classify_phase(1.0, 2.0, B, 1.0, band=0.5)
             for B in (math.nextafter(0.5, 0.0), 0.5, 1.5, math.nextafter(1.5, 2.0))}
    assert list(label.values()) == [PhaseLabel.STAGGERED_ORDER, PhaseLabel.LUTTINGER_LIQUID,
                                    PhaseLabel.LUTTINGER_LIQUID, PhaseLabel.FERROMAGNETIC]


def test_classify_at_k_one_half_takes_the_irrelevant_branch():
    # K = 1/2 exactly: no gap, so the band edge B = 1 alone decides
    assert classify_phase(0.5, 1.0, 0.5, 1.0) is PhaseLabel.LUTTINGER_LIQUID
    assert classify_phase(0.5, 1.0, 1.5, 1.0) is PhaseLabel.FERROMAGNETIC


@pytest.mark.parametrize("band", [0.0, 1.0])
def test_classify_refuses_a_band_on_its_edges(band):
    with pytest.raises(ValueError, match="band must lie in"):
        classify_phase(1.0, 1.0, 0.5, 1.0, band=band)


def test_rg_flow_refuses_a_zero_step_and_an_empty_interval():
    with pytest.raises(ValueError, match="dl must be > 0"):
        rg_flow(RGState(0.1, 1.0), l_max=1.0, dl=0.0)
    for l_max in (0.0, -0.0, -1.0, math.nan):  # every flow starts at l = 0
        with pytest.raises(ValueError, match=rf"^l_max must be > 0, got {l_max}$"):
            rg_flow(RGState(0.1, 1.0), l_max=l_max)
    # the smallest interval flows in one step from l = 0
    assert rg_flow(RGState(0.1, 1.0), l_max=5e-324).l.tolist() == [0.0, 5e-324]


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_phase(1.0, 1.0, 0.5, 1.0, band=0.0)
    with pytest.raises(ValueError):
        classify_phase(1.0, 1.0, -0.5, 1.0)
