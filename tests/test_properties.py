"""Property tests of the gap kernel, the closed forms built on it, the Wilson loop and the pair integrator."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xyquench import (
    DegeneratePointError,
    QuenchSchedule,
    berry_phase_loop,
    build_hamiltonian,
    dispersion,
    dphase_db,
    evolve_mode,
    ground_state,
    mode_phase,
)
from xyquench.sweeps import _deriv_cells, _gamma_cells

from test_edoracle import holonomy_phase

TWO_PI = 2.0 * math.pi

momenta = st.floats(0.0, math.pi)
fields = st.floats(-3.0, 3.0)
anisotropies = st.floats(0.0, 2.0)
# fields that hit cos k exactly, so the alpha = 0 and band-edge cells are gapless
field_lists = st.lists(st.one_of(fields, st.just(1.0), st.just(-1.0)), min_size=1, max_size=20)


@given(k=momenta, b=field_lists, alpha=st.one_of(st.just(0.0), anisotropies))
def test_cells_match_scalar_api_and_mask_exactly_the_raises(k, b, alpha):
    b = np.array(b + [math.cos(k)])
    gcells = _gamma_cells(k, b, alpha).tolist()
    dcells = _deriv_cells(k, b, alpha).tolist()
    gapped = []
    for bi, g, d in zip(b, gcells, dcells):
        try:
            gamma = mode_phase(k, bi, alpha)
        except DegeneratePointError:
            assert g is None and d is None
            with pytest.raises(DegeneratePointError):
                dphase_db(k, -bi, 1.0, alpha)
            gapped.append(False)
        else:
            assert g is not None and d is not None
            # a scalar call gives the same bits as its cell
            assert float(gamma) == g
            assert dphase_db(k, -bi, 1.0, alpha) == d
            gapped.append(True)
    gapped = np.array(gapped)
    if gapped.any():
        kept = b[gapped]
        assert np.array_equal(mode_phase(k, kept, alpha), [g for g in gcells if g is not None])
        assert np.array_equal(dphase_db(k, -kept, 1.0, alpha), [d for d in dcells if d is not None])


@given(k=st.floats(0.05, math.pi - 0.05), B=fields, alpha=st.floats(0.05, 2.0))
def test_particle_hole_partner_phases_sum_to_two_pi(k, B, alpha):
    # cos(pi - k) = -cos k and sin(pi - k) = sin k flip cos(theta_k)
    total = float(mode_phase(k, B, alpha)) + float(mode_phase(math.pi - k, -B, alpha))
    assert abs(total - TWO_PI) < 1e-12


@given(k=momenta, B=fields, alpha=anisotropies)
def test_phase_bounded_and_nondecreasing_in_field(k, B, alpha):
    assume(dispersion(k, B, alpha) > 0.0)
    assert 0.0 <= mode_phase(k, B, alpha) <= TWO_PI
    assert dphase_db(k, -B, 1.0, alpha) >= 0.0


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 5]), alpha=st.floats(0.2, 1.5), B=st.floats(0.1, 1.5))
def test_loop_equals_holonomy_of_explicit_ground_states(n, alpha, B):
    # the loop is a closed form of the phi = 0 ground state, so it
    # agrees with the dense per-step ground states to rounding, not bit for bit
    steps = 100
    res = berry_phase_loop(n, alpha, B, steps=steps)
    assume(not res.degenerate)
    states = [
        ground_state(build_hamiltonian(n, alpha, B, j * math.pi / steps)).vector
        for j in range(steps)
    ]
    phase, ov_min = holonomy_phase(states)
    assert abs((res.phase - phase + math.pi) % TWO_PI - math.pi) <= 1e-12
    assert abs(res.overlaps_min - ov_min) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(k=st.floats(0.02, 1.5), alpha=st.floats(0.1, 2.0), tau_q=st.floats(0.1, 20.0))
def test_evolve_probability_symmetric_unitary_and_stepped_by_rule(k, alpha, tau_q):
    sched = QuenchSchedule.from_field(tau_q)
    res = evolve_mode(k, alpha, sched, full_output=True)
    assert 0.0 <= res.probability <= 1.0
    assert res.norm_drift < 1e-8
    # -k flips the sign of the X and Y fields: a Z conjugation, which leaves p alone
    mirrored = evolve_mode(-k, alpha, sched, full_output=True)
    assert abs(mirrored.probability - res.probability) <= 1e-12
    assert mirrored.n_steps == res.n_steps
    h_max = 2.0 * math.hypot(abs(math.cos(k)) + 5.0, alpha * math.sin(k))
    span = sched.t_end - sched.t_start
    assert res.n_steps == math.ceil(span / (0.2 / h_max))
