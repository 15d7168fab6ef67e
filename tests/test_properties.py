"""Property tests of the gap kernel, the closed forms built on it, and the Wilson loop."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xyquench import (
    DegeneratePointError,
    berry_phase_loop,
    build_hamiltonian,
    dispersion,
    dphase_db,
    ground_state,
    holonomy_phase,
    mode_phase,
)
from xyquench.sweeps import _deriv_cells, _gamma_cells

TWO_PI = 2.0 * math.pi

momenta = st.floats(0.0, math.pi)
fields = st.floats(-3.0, 3.0)
anisotropies = st.floats(0.0, 2.0)
# fields that hit cos k exactly, so the alpha = 0 and band-edge cells are gapless
field_lists = st.lists(st.one_of(fields, st.just(1.0), st.just(-1.0)), min_size=1, max_size=20)


@given(k=momenta, b=field_lists, alpha=st.one_of(st.just(0.0), anisotropies))
def test_cells_match_scalar_api_and_mask_exactly_the_raises(k, b, alpha):
    b = np.array(b + [math.cos(k)])
    gcells = _gamma_cells(k, b, alpha)
    dcells = _deriv_cells(k, b, alpha)
    gapped = []
    for bi, g, d in zip(b, gcells, dcells):
        try:
            mode_phase(k, bi, alpha)
        except DegeneratePointError:
            assert g is None and d is None
            with pytest.raises(DegeneratePointError):
                dphase_db(k, -bi, 1.0, alpha)
            gapped.append(False)
        else:
            assert g is not None and d is not None
            gapped.append(True)
    gapped = np.array(gapped)
    if gapped.any():
        # compare array paths: numpy's vectorised power can differ from its
        # scalar power in the last bit, which is no fault of the kernel
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
@given(n=st.sampled_from([2, 4]), alpha=st.floats(0.2, 1.5), B=st.floats(0.1, 1.5))
def test_loop_equals_holonomy_of_explicit_ground_states(n, alpha, B):
    steps = 100
    res = berry_phase_loop(n, alpha, B, steps=steps)
    assume(not res.degenerate)
    states = [
        ground_state(build_hamiltonian(n, alpha, B, j * math.pi / steps)).vector
        for j in range(steps)
    ]
    assert (res.phase, res.overlaps_min) == holonomy_phase(states)
