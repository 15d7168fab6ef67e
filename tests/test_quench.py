import dataclasses
import math
import re
import tracemalloc
import warnings

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
from xyquench import quench
from xyquench.quench import _quat_mul


# ------------------------------------------------------------------ schedule

def test_schedule_validation():
    with pytest.raises(ValueError):
        QuenchSchedule(tau_q=-1.0, t_start=-5.0)
    with pytest.raises(ValueError, match="need t_start < 0"):
        QuenchSchedule(tau_q=1.0, t_start=0.0)
    with pytest.raises(ValueError, match=r"^tau_q must be > 0, got 0\.0$"):
        QuenchSchedule(tau_q=0.0, t_start=-1.0)


def test_schedule_covers_the_crossing_strictly_inside_the_window():
    # the window B in [0, -t_start/tau_q] must hold cos k strictly: B(t_start) = 1 = cos 0
    assert not QuenchSchedule(tau_q=2.0, t_start=-2.0).covers(0.0)
    assert QuenchSchedule(tau_q=2.0, t_start=-2.0 - 1e-12).covers(0.0)


def test_results_are_frozen_values():
    sched = QuenchSchedule(tau_q=1.0, t_start=-5.0)
    res = evolve_mode(math.pi / 4, 1.0, sched)
    a, b = kink_count(ChainSpec(4, 1.0), 1.0), kink_count(ChainSpec(4, 1.0), 1.0)
    for obj, name in ((sched, "tau_q"), (res, "probability"), (a, "kink_count")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0.0)
    # a report holds an array, so it compares by identity and hashes
    assert a != b and a == a and hash(a) != hash(b)


def test_schedule_from_field():
    s = QuenchSchedule.from_field(4.0, b_start=5.0)
    assert s.t_start == -20.0
    assert -s.t_start / s.tau_q == 5.0  # B(t_start) = b_start


# ------------------------------------------------------------ lz_probability

def test_lz_instant_quench_saturates():
    assert lz_probability(0.3, 0.0) == 1.0


@pytest.mark.parametrize("tau_q", [-1.0, math.nan, np.array([1.0, math.nan])])
def test_lz_refuses_negative_or_nan_tau_q(tau_q):
    with pytest.raises(ValueError, match="tau_q must be >= 0"):
        lz_probability(0.3, tau_q)


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
    assert rep.p_k.dtype == np.float64 and rep.p_k.shape == (20,)
    assert rep.kink_count == pytest.approx(sum(rep.p_k), rel=1e-13)
    # in the order of the signed grid -k_max .. k_max
    k_pos = momentum_grid(spec)
    signed = np.concatenate((-k_pos[::-1], k_pos))
    assert np.array_equal(rep.p_k, lz_probability(signed, 2.0))


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
    at = 10.0 * adiabatic_threshold(100)
    assert not kink_count(spec, at).adiabatic  # tau_q > safety * threshold, strictly
    assert kink_count(spec, math.nextafter(at, math.inf)).adiabatic
    assert kink_count(spec, at, safety_factor=5.0).adiabatic


@pytest.mark.parametrize("safety", [0.0, -1.0, math.nan])
def test_kink_count_refuses_a_safety_factor_not_above_zero(safety):
    with pytest.raises(ValueError, match="safety_factor must be > 0"):
        kink_count(ChainSpec(10, 1.0), 1.0, safety_factor=safety)


def test_single_pair_regime():
    spec = ChainSpec(100, 1.0)
    tau = 10.0 * adiabatic_threshold(100) * 1.01
    rep = kink_count(spec, tau)
    k0 = float(momentum_grid(spec)[0])
    p0 = float(lz_probability(k0, tau))
    assert rep.kink_count < 2.0 * p0 * (1.0 + 1e-2)
    assert (rep.kink_count - 2.0 * p0) / rep.kink_count < 1e-2


@pytest.mark.parametrize("tau_q", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("n", [10**3, 10**4])
def test_kink_density_is_the_kibble_zurek_closed_form(n, tau_q):
    # (1/N) sum_k exp(-2 pi tau_q k^2) is a midpoint sum of (1/2pi) int exp(-2 pi tau_q k^2) dk
    density = kink_count(ChainSpec(n, 1.0), tau_q).kink_count / n
    assert density == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(2.0 * tau_q)), rel=1e-12)


# ---------------------------------------------------------------- evolve_mode

def test_evolve_matches_lz_small_k():
    for k, tau in ((math.pi / 100, 10.0), (math.pi / 50, 1.0)):
        p = evolve_mode(k, 1.0, QuenchSchedule.from_field(tau)).probability
        expected = float(lz_probability(k, tau))
        assert abs(p - expected) / expected < 0.1


def test_evolve_unitarity_throughout():
    res = evolve_mode(math.pi / 50, 1.0, QuenchSchedule.from_field(10.0))
    assert res.norm_drift < 1e-8
    assert res.crossing_covered


def test_evolve_adiabatic_limit():
    # very slow quench at sizable gap: essentially no excitation
    p = evolve_mode(math.pi / 4, 1.0, QuenchSchedule.from_field(200.0)).probability
    assert p < 1e-6


def test_evolve_no_coupling_warns():
    with pytest.warns(UserWarning, match="no coupling"):
        p = evolve_mode(0.5, 0.0, QuenchSchedule.from_field(2.0)).probability
    # diagonal Hamiltonian: the state rides through the crossing unchanged
    assert p == pytest.approx(1.0, abs=1e-12)


def test_evolve_window_not_covering_crossing_warns():
    sched = QuenchSchedule(tau_q=10.0, t_start=-5.0)  # B in [0, 0.5]
    with pytest.warns(UserWarning, match=r"window B in \[0, 0\.5\] does not cover"):
        p = evolve_mode(math.pi / 4, 1.0, sched).probability
    assert p < 0.05  # no crossing inside the window: stays near the ground state


def test_evolve_unstable_step_rejected():
    with pytest.raises(ValueError, match="unstable"):
        evolve_mode(math.pi / 50, 1.0, QuenchSchedule.from_field(5.0), dt=1.0)


def test_ramp_steps_refuses_a_step_of_exactly_the_stable_limit():
    # dt * max|H| must stay strictly below _MAX_STABLE_STEP
    k, alpha, sched = math.pi / 50, 1.0, QuenchSchedule.from_field(5.0)
    h_max = 2.0 * math.hypot(abs(math.cos(k)) + 5.0, alpha * math.sin(k))
    dt = quench._MAX_STABLE_STEP / h_max
    assert dt * h_max == quench._MAX_STABLE_STEP
    with pytest.raises(ValueError, match="unstable step size"):
        quench.ramp_steps(k, alpha, sched, dt)
    assert quench.ramp_steps(k, alpha, sched, math.nextafter(dt, 0.0))[0] > 0


@pytest.mark.parametrize("dt", [0.0, -0.0, -0.01, math.nan])
def test_ramp_steps_names_a_non_positive_dt_before_the_stability_check(dt):
    # dt itself is the fault, not the stability product dt * max|H|
    with pytest.raises(ValueError, match=rf"^dt must be > 0, got {re.escape(str(dt))}$"):
        quench.ramp_steps(math.pi / 50, 1.0, QuenchSchedule.from_field(5.0), dt)


def test_evolve_refuses_a_ramp_over_the_step_budget():
    # about 3e11 steps at tau_q = 1e9; refused from the estimate, never run
    with pytest.raises(ValueError,
                       match=r"about 2\.999794393e\+11 steps per pair, above the budget of 1e\+08"):
        evolve_mode(math.pi / 100, 1.0, QuenchSchedule.from_field(1e9))
    with pytest.raises(ValueError, match="about inf steps per pair, above the budget"):
        evolve_mode(math.pi / 100, 1.0, QuenchSchedule.from_field(1.0), dt=1e-320)


@pytest.mark.parametrize("k,alpha,tau_q,dt", [
    (math.pi / 100, 1.0, 10.0, None), (0.3, 0.5, 2.0, None), (math.pi / 4, 0.0, 1.0, 0.01),
])
def test_ramp_steps_is_the_rule_evolve_mode_runs(k, alpha, tau_q, dt):
    sched = QuenchSchedule.from_field(tau_q)
    n, step = quench.ramp_steps(k, alpha, sched, dt)
    assert step * n == pytest.approx(-sched.t_start, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha = 0 has no coupling at the crossing
        assert evolve_mode(k, alpha, sched, dt=dt).n_steps == n


# ------------------------------------------------- evolve_mode vs. step loop

def _midpoint_steps(k, alpha, schedule):
    """(h_max, span, n): the midpoint rule's step count at its old dt * max|H| = 0.05."""
    c0, s = math.cos(k), alpha * math.sin(k)
    b_start = -schedule.t_start / schedule.tau_q
    h_max = 2.0 * math.hypot(abs(c0) + b_start, s)
    span = -schedule.t_start
    return h_max, span, int(math.ceil(span / (0.05 / h_max)))


def _eigenvector(k, alpha, b, excited):
    c0, s = math.cos(k), alpha * math.sin(k)
    h = np.array([[-2.0 * (c0 - b), 2.0 * s], [2.0 * s, 2.0 * (c0 - b)]])
    return np.linalg.eigh(h)[1][:, 1 if excited else 0].astype(complex)


def _reference_evolve(k, alpha, schedule):
    """The per-step midpoint loop that evolve_mode replaced: (probability, n_steps)."""
    c0, s = math.cos(k), alpha * math.sin(k)
    _, span, n = _midpoint_steps(k, alpha, schedule)
    dt = span / n
    psi0, psi1 = _eigenvector(k, alpha, -schedule.t_start / schedule.tau_q, excited=False)
    cx = 2.0 * s
    for i in range(n):
        cz = -2.0 * (c0 - (-(schedule.t_start + (i + 0.5) * dt)) / schedule.tau_q)
        lam = math.hypot(cz, cx)
        ca, sa = math.cos(lam * dt), math.sin(lam * dt)
        nz, nx = (cz / lam, cx / lam) if lam > 0.0 else (0.0, 0.0)
        a0, a1 = psi0, psi1
        psi0 = ca * a0 - 1j * sa * (nz * a0 + nx * a1)
        psi1 = ca * a1 - 1j * sa * (nx * a0 - nz * a1)
    e = _eigenvector(k, alpha, 0.0, excited=True)
    return abs(np.vdot(e, [psi0, psi1])) ** 2, n


def _su2_evolve(k, alpha, schedule, n, rule):
    """Excitation probability after n steps of `rule`, "midpoint" or "magnus4".

    A vectorized reference in complex arithmetic, sharing no code with
    evolve_mode: each step is exp(-i dt g.sigma) = [[a, -b*], [b, a*]].  The
    magnus4 generator is the general two-Gauss-point form
    g = (h_1 + h_2)/2 + (sqrt(3) dt/6) h_2 x h_1 with the cross product taken
    numerically, not the ramp's closed form.
    """
    c0, s = math.cos(k), alpha * math.sin(k)
    dt = -schedule.t_start / n

    def field(t):
        return np.stack([np.full(t.size, 2.0 * s), np.zeros(t.size),
                         -2.0 * (c0 + t / schedule.tau_q)], axis=1)

    psi = _eigenvector(k, alpha, -schedule.t_start / schedule.tau_q, excited=False)
    for lo in range(0, n, 1 << 15):
        t0 = schedule.t_start + np.arange(lo, min(n, lo + (1 << 15))) * dt
        if rule == "midpoint":
            g = field(t0 + 0.5 * dt)
        else:
            h1 = field(t0 + (0.5 - math.sqrt(3.0) / 6.0) * dt)
            h2 = field(t0 + (0.5 + math.sqrt(3.0) / 6.0) * dt)
            g = 0.5 * (h1 + h2) + (math.sqrt(3.0) * dt / 6.0) * np.cross(h2, h1)
        lam = np.linalg.norm(g, axis=1)
        u = np.sin(lam * dt) / lam
        a = np.cos(lam * dt) - 1j * u * g[:, 2]
        b = u * g[:, 1] - 1j * u * g[:, 0]
        while a.size > 1:
            if a.size % 2:
                a, b = np.append(a, 1.0), np.append(b, 0.0)
            # each odd entry acts after the even entry before it
            a1, b1, a2, b2 = a[0::2], b[0::2], a[1::2], b[1::2]
            a, b = a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1
        a, b = a[0], b[0]
        psi = np.array([[a, -b.conjugate()], [b, a.conjugate()]]) @ psi
    e = _eigenvector(k, alpha, 0.0, excited=True)
    return abs(np.vdot(e, psi)) ** 2


def _magnus_reference(k, alpha, schedule):
    """p_ref: evolve_mode's Magnus-4 step at 4x the midpoint rule's step count."""
    _, span, n = _midpoint_steps(k, alpha, schedule)
    return evolve_mode(k, alpha, schedule, dt=span / (4 * n)).probability


@pytest.mark.parametrize("k", [math.pi / 100, math.pi / 50, math.pi / 4])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("tau_q", [1.0, 10.0, 100.0])
def test_evolve_matches_per_step_loop(k, alpha, tau_q):
    sched = QuenchSchedule.from_field(tau_q)
    res = evolve_mode(k, alpha, sched)
    p_loop, n_loop = _reference_evolve(k, alpha, sched)
    p_ref = _magnus_reference(k, alpha, sched)
    assert abs(res.probability - p_ref) <= abs(p_loop - p_ref)
    # the vectorized references the error table uses, pinned to the loop and to evolve_mode
    assert abs(_su2_evolve(k, alpha, sched, n_loop, "midpoint") - p_loop) <= 1e-12
    assert abs(_su2_evolve(k, alpha, sched, res.n_steps, "magnus4") - res.probability) <= 1e-12


# the four smallest momenta of the CLI default N = 100, and two far from the critical point
@pytest.mark.parametrize("k", [math.pi / 100, 3 * math.pi / 100, 5 * math.pi / 100,
                               7 * math.pi / 100, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.95, 1.0, 1.5])
@pytest.mark.parametrize("tau_q", [1.0, 10.0, 100.0, 1000.0])
def test_evolve_error_table(k, alpha, tau_q):
    # The default Magnus-4 step and _MAX_STABLE_STEP are no looser than the
    # midpoint rule at its old default 0.05 and its old limit 0.1.
    sched = QuenchSchedule.from_field(tau_q)
    h_max, span, n = _midpoint_steps(k, alpha, sched)
    p_ref = _magnus_reference(k, alpha, sched)
    err_mid = abs(_su2_evolve(k, alpha, sched, n, "midpoint") - p_ref)
    assert abs(evolve_mode(k, alpha, sched).probability - p_ref) <= err_mid
    if tau_q <= 100.0:  # p_ref is converged: the midpoint rule approaches it
        assert abs(_su2_evolve(k, alpha, sched, 4 * n, "midpoint") - p_ref) <= err_mid
    n_old_limit = int(span * h_max / 0.1) + 1  # fewest midpoint steps with dt*max|H| < 0.1
    p_limit = evolve_mode(
        k, alpha, sched, dt=quench._MAX_STABLE_STEP * (1.0 - 1e-12) / h_max).probability
    assert abs(p_limit - p_ref) <= abs(
        _su2_evolve(k, alpha, sched, n_old_limit, "midpoint") - p_ref)


def test_max_stable_step_is_the_largest_on_the_table():
    # the next step on the 0.1 grid is worse than the old midpoint limit at one table case
    k, alpha, sched = math.pi / 4, 0.3, QuenchSchedule.from_field(10.0)
    h_max, span, _ = _midpoint_steps(k, alpha, sched)
    p_ref = _magnus_reference(k, alpha, sched)
    step = quench._MAX_STABLE_STEP + 0.1
    p_next = _su2_evolve(k, alpha, sched, int(span * h_max / step) + 1, "magnus4")
    p_old = _su2_evolve(k, alpha, sched, int(span * h_max / 0.1) + 1, "midpoint")
    assert abs(p_next - p_ref) > abs(p_old - p_ref)


def _su2_matrix(q):
    w, x, y, z = q
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


def test_quaternion_product_is_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        # two midpoint steps exp(-i a (nx X + nz Z)) and one general SU(2) element
        steps = []
        for _ in range(2):
            a, phi = rng.uniform(0.0, 0.1), rng.uniform(0.0, 2.0 * math.pi)
            steps.append(np.array([math.cos(a), math.sin(a) * math.cos(phi), 0.0,
                                   math.sin(a) * math.sin(phi)]))
        v = rng.normal(size=4)
        steps.append(v / np.linalg.norm(v))
        for later, earlier in ((steps[1], steps[0]), (steps[2], steps[1])):
            out, tmp = np.empty((4, 1)), np.empty((4, 1))
            prod = _su2_matrix(_quat_mul(later[:, None], earlier[:, None], out, tmp)[:, 0])
            assert np.max(np.abs(prod - _su2_matrix(later) @ _su2_matrix(earlier))) <= 1e-15


def test_evolve_memory_does_not_grow_with_tau_q():
    tracemalloc.start()
    try:
        evolve_mode(math.pi / 100, 1.0, QuenchSchedule.from_field(1000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6  # bytes; the per-step loop peaked at 211 MB


# ------------------------------------------- evolve_mode vs. the strided kernel

def _strided_evolve(k, alpha, schedule, dt=None):
    """evolve_mode's kernel before the bit-reversed layout: (probability, norm_drift, n_steps).

    Natural-order leaves built from temporaries, and a tree over stride-2
    views; it calls the same _quat_mul, so only the layout and the leaf
    arithmetic differ.
    """
    c0, s = math.cos(k), alpha * math.sin(k)
    n, dt = quench.ramp_steps(k, alpha, schedule, dt)
    cx = 2.0 * s
    cy = -cx * dt * dt / (3.0 * schedule.tau_q)
    psi0, psi1 = quench._pair_eigenvector(c0, s, -schedule.t_start / schedule.tau_q, False)
    drift = 0.0
    for lo in range(0, n, quench._CHUNK):
        m = min(quench._CHUNK, n - lo)
        t_mid = schedule.t_start + (np.arange(lo, lo + m) + 0.5) * dt
        cz = -2.0 * (c0 - np.negative(t_mid) / schedule.tau_q)
        lam = np.hypot(cz, math.hypot(cx, cy))
        ang = lam * dt
        sin_a = np.sin(ang)
        safe = np.where(lam == 0.0, 1.0, lam)
        q = np.zeros((4, 1 << (m - 1).bit_length()))
        q[0] = 1.0
        q[0, :m] = np.cos(ang)
        q[1, :m] = sin_a * (cx / safe)
        q[2, :m] = sin_a * (cy / safe)
        q[3, :m] = sin_a * (cz / safe)
        while q.shape[1] > 1:
            half = q.shape[1] // 2
            q = _quat_mul(q[:, 1::2], q[:, 0::2], np.empty((4, half)), np.empty((4, half)))
        w, x, y, z = q[:, 0]
        psi0, psi1 = (
            complex(w, -z) * psi0 + complex(-y, -x) * psi1,
            complex(y, -x) * psi0 + complex(w, z) * psi1,
        )
        drift = max(drift, abs(abs(psi0) ** 2 + abs(psi1) ** 2 - 1.0))
    e0, e1 = quench._pair_eigenvector(c0, s, 0.0, True)
    return float(abs(e0.conjugate() * psi0 + e1.conjugate() * psi1) ** 2), float(drift), n


def _pinned(k, alpha, schedule, dt=None):
    res = evolve_mode(k, alpha, schedule, dt=dt)
    assert (res.probability, res.norm_drift, res.n_steps) == _strided_evolve(
        k, alpha, schedule, dt)
    return res


# 63-65 and 127-129 sit around the float top of the tree: up to 64 leaves no level runs
# in numpy, 65-128 take one numpy level and 129 two; Python floats take the rest
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 127, 128, 129, quench._CHUNK - 1,
                               quench._CHUNK, quench._CHUNK + 1, 2 * quench._CHUNK + 1])
def test_evolve_bits_equal_the_strided_kernel_at_every_chunk_edge(n):
    # tau_q grows with n so that dt * max|H| stays below 0.2; a step of span / (n - 1/2) gives n
    sched = QuenchSchedule.from_field(0.01 * n, b_start=1.5)
    assert _pinned(0.3, 0.8, sched, dt=-sched.t_start / (n - 0.5)).n_steps == n


@pytest.mark.parametrize("k,alpha,tau_q", [
    (math.pi / 100, 1.0, 10.0), (0.3, 0.5, 2.0), (math.pi / 50, 0.97, 1000.0),
])
def test_evolve_bits_equal_the_strided_kernel_at_default_steps(k, alpha, tau_q):
    _pinned(k, alpha, QuenchSchedule.from_field(tau_q))


def test_evolve_bits_equal_the_strided_kernel_without_coupling():
    # cos k = 0.25 exactly and step 4 ends at B = 0.25 - dt/2: lam = 0 there, an identity step
    sched, k = QuenchSchedule.from_field(0.5, b_start=0.5), math.acos(0.25)
    assert math.cos(k) == 0.25
    with pytest.warns(UserWarning, match="no coupling"):
        res = _pinned(k, 0.0, sched, dt=0.25 / 9)
    assert res.n_steps == 9 and res.probability == pytest.approx(1.0, abs=1e-12)


def test_evolve_bits_equal_the_strided_kernel_off_the_crossing():
    with pytest.warns(UserWarning, match="does not cover"):
        _pinned(math.pi / 4, 1.0, QuenchSchedule(tau_q=10.0, t_start=-5.0))


# ------------------------------------------------ alignment of the propagator scratch

def test_propagator_scratch_is_64_byte_aligned():
    for cols in (1, 2, 4, 1024, quench._CHUNK):
        work = quench._aligned_scratch(8, cols)
        assert work.shape == (8, cols) and work.flags.c_contiguous
        assert work.ctypes.data % 64 == 0


@pytest.mark.parametrize("m", [quench._CHUNK, 1000, 7])  # a full chunk, and padded ones
def test_chunk_product_bits_do_not_depend_on_the_scratch_offset(m):
    k, alpha, schedule = math.pi / 100, 1.0, QuenchSchedule.from_field(1000.0)
    n, dt = quench.ramp_steps(k, alpha, schedule)  # about 3e5 steps: n - m >= 0
    cx = 2.0 * alpha * math.sin(k)
    cy = -cx * dt * dt / (3.0 * schedule.tau_q)
    size = 1 << (m - 1).bit_length()
    flat = np.empty(8 * size + 16)
    base = (-flat.ctypes.data % 64) // 8
    got = set()
    for offset in (0, 16, 32, 48):
        work = flat[base + offset // 8:][:8 * size].reshape(8, size)
        assert work.ctypes.data % 64 == offset
        for lo in (0, n - m):
            q = quench._chunk_product(schedule, math.cos(k), cx, cy, dt, lo, m, work)
            got.add((lo, q.tobytes()))
    assert len(got) == 2  # one quaternion per chunk start, whatever the offset


def test_float_top_products_are_quat_mul_bit_for_bit():
    rng = np.random.default_rng(31)
    q = rng.normal(size=(4, 400))
    q[:, :200] /= np.linalg.norm(q[:, :200], axis=0)  # unit quaternions, and raw ones
    q[:, 200:260] = np.where(rng.random((4, 60)) < 0.5, 0.0, -0.0)  # signed zeros
    q[:, 260:300] *= rng.random((4, 40)) < 0.5  # zeros of either sign among the others
    q[:, 300:320] = [[1.0], [0.0], [0.0], [0.0]]  # identity padding
    p = q[:, rng.permutation(400)]
    want = _quat_mul(p, q, np.empty((4, 400)), np.empty((4, 400)))
    got = np.array([quench._quat_mul_float(a, b) for a, b in zip(p.T.tolist(), q.T.tolist())])
    assert got.T.tobytes() == want.tobytes()  # bytes tell -0.0 from 0.0


def test_bit_reversal_table_is_read_only():
    order = quench._bit_reversal()
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 1


@pytest.mark.parametrize("s", [0.0, 0.3, -0.3])
@pytest.mark.parametrize("c0,b", [(0.8, 0.0), (-0.8, 0.0), (0.2, 5.0)])
@pytest.mark.parametrize("excited", [False, True])
def test_pair_eigenvector_solves_the_pair_hamiltonian(c0, b, s, excited):
    # both signs of cz, with and without coupling: the branch must never divide 0 by 0
    cz, cx = -2.0 * (c0 - b), 2.0 * s
    v0, v1 = quench._pair_eigenvector(c0, s, b, excited)
    target = math.hypot(cz, cx) * (1.0 if excited else -1.0)
    assert abs(v0) ** 2 + abs(v1) ** 2 == pytest.approx(1.0, abs=1e-15)
    assert abs(cz * v0 + cx * v1 - target * v0) < 1e-14
    assert abs(cx * v0 - cz * v1 - target * v1) < 1e-14
