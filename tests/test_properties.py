"""Property tests of the gap kernel, the closed forms built on it, the Wilson loops, the ED symmetries, the pair integrator and the RG flow."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from xyquench import (
    DegeneratePointError,
    QuenchSchedule,
    RGState,
    berry_phase_loop,
    build_hamiltonian,
    evolve_mode,
    ground_state,
    mode_berry_numeric,
    mode_phase,
    rg_flow,
)
from xyquench.chain import gap_kernel
from xyquench.edoracle import _spin_basis
from xyquench.sweeps import _deriv_cells, _gamma_cells, oracle_report

from test_edoracle import assert_free_fermion_levels_match_ed, holonomy_phase

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
            gapped.append(False)
        else:
            assert g is not None and d is not None
            # a scalar call gives the same bits as its cell
            assert float(gamma) == g
            gapped.append(True)
    gapped = np.array(gapped)
    if gapped.any():
        kept = b[gapped]
        assert np.array_equal(mode_phase(k, kept, alpha), [g for g in gcells if g is not None])
        # d(Gamma_k)/dB = pi s s / Lambda^3, cubed on an array (a float64 scalar's power can
        # differ in the last bit); pi (s/Lambda)^2 / Lambda where the cube under- or overflows
        s = alpha * np.sin(k)
        lam = np.hypot(np.cos(k) - kept, s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cube = lam**3
            want = np.where((0.0 < cube) & (cube < np.inf), np.pi * s * s / cube,
                            np.pi * (s / lam) ** 2 / lam)
        assert np.array_equal(want, [d for d in dcells if d is not None])


@given(k=st.floats(0.05, math.pi - 0.05), B=fields, alpha=st.floats(0.05, 2.0))
def test_particle_hole_partner_phases_sum_to_two_pi(k, B, alpha):
    # cos(pi - k) = -cos k and sin(pi - k) = sin k flip cos(theta_k)
    total = float(mode_phase(k, B, alpha)) + float(mode_phase(math.pi - k, -B, alpha))
    assert abs(total - TWO_PI) < 1e-12


@given(k=momenta, B=fields, alpha=anisotropies)
def test_phase_bounded_and_nondecreasing_in_field(k, B, alpha):
    assume(gap_kernel(k, B, alpha)[2] > 0.0)
    assert 0.0 <= mode_phase(k, B, alpha) <= TWO_PI
    assert _deriv_cells(k, np.array([B]), alpha)[0] >= 0.0


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 5]), alpha=st.floats(0.2, 1.5), B=st.floats(0.1, 1.5))
def test_loop_equals_holonomy_of_explicit_ground_states(n, alpha, B):
    # the loop is a closed form of the phi = 0 ground state, so it
    # agrees with the dense per-step ground states to rounding, not bit for bit
    steps = 100
    res = berry_phase_loop(n, alpha, B, steps=steps)
    assume(not res.degenerate)
    states = [
        ground_state(build_hamiltonian(n, alpha, B, j * math.pi / steps))[1]
        for j in range(steps)
    ]
    phase, ov_min = holonomy_phase(states)
    assert abs((res.phase - phase + math.pi) % TWO_PI - math.pi) <= 1e-12
    assert abs(res.overlaps_min - ov_min) <= 1e-12


ed_sizes = st.integers(2, 8)
angles = st.floats(-math.pi, math.pi)


@settings(max_examples=35, deadline=None)
@given(n=ed_sizes, alpha=anisotropies, B=fields, phi=angles)
def test_spin_flip_reverses_the_basis_and_maps_b_phi_to_minus_b_minus_phi(n, alpha, B, phi):
    # prod_j sx_j complements every bit of the index: sz -> -sz, sy -> -sy,
    # so the field and the (sx sy + sy sx) weight, odd in phi, change sign
    h = build_hamiltonian(n, alpha, B, phi)
    assert np.array_equal(build_hamiltonian(n, alpha, -B, -phi), h[::-1, ::-1])


@settings(max_examples=35, deadline=None)
@given(n=ed_sizes, alpha=anisotropies, B=fields)
def test_translation_commutes_with_h0(n, alpha, B):
    h = build_hamiltonian(n, alpha, B)
    idx = np.arange(2**n)
    perm = (idx >> 1) | ((idx & 1) << (n - 1))  # every site moves one place along the ring
    assert np.array_equal(h[np.ix_(perm, perm)], h)


def _signed_alpha_hamiltonian(n, alpha, B):
    """H(phi = 0) element by element at any real alpha; build_hamiltonian refuses alpha < 0."""
    h = np.zeros((2**n, 2**n))
    for b in range(2**n):
        spin = [1 - 2 * ((b >> (n - 1 - j)) & 1) for j in range(n)]
        h[b, b] = B * sum(spin)
        for j in range(n):
            jj = (j + 1) % n
            flipped = b ^ (1 << (n - 1 - j)) ^ (1 << (n - 1 - jj))
            h[flipped, b] += 0.5 * (1.0 + alpha) - 0.5 * (1.0 - alpha) * spin[j] * spin[jj]
    return h


@settings(max_examples=35, deadline=None)
@given(n=ed_sizes, alpha=anisotropies, B=fields)
def test_quarter_turn_maps_alpha_to_minus_alpha(n, alpha, B):
    # U(pi/2) = diag(exp(i (pi/2) sum_j sz_j / 2)) swaps the sx sx and sy sy weights
    h = build_hamiltonian(n, alpha, B)
    assert np.array_equal(_signed_alpha_hamiltonian(n, alpha, B), h)
    u = np.exp(0.25j * math.pi * (n - 2.0 * _spin_basis(n)[1].sum(axis=1)))
    rotated = u[:, None] * h * u.conj()[None, :]
    scale = np.max(np.abs(np.linalg.eigvalsh(h)))
    assert np.max(np.abs(rotated - _signed_alpha_hamiltonian(n, -alpha, B))) <= 1e-14 * scale


@settings(max_examples=35, deadline=None)
@given(n=ed_sizes, alpha=anisotropies, B=st.one_of(fields, st.sampled_from([1.0, -1.0])))
def test_parity_blocks_have_the_free_fermion_levels(n, alpha, B):
    assert_free_fermion_levels_match_ed(n, alpha, B)


@settings(max_examples=35, deadline=None)
@given(n=ed_sizes, alpha=anisotropies, B=fields, phi=angles)
def test_spectrum_is_even_in_the_field(n, alpha, B, phi):
    w = np.linalg.eigvalsh(build_hamiltonian(n, alpha, B, phi))
    w_flipped = np.linalg.eigvalsh(build_hamiltonian(n, alpha, -B, phi))
    assert np.max(np.abs(w - w_flipped)) <= 1e-12 * np.max(np.abs(w))


@settings(max_examples=30, deadline=None)
@given(k=st.floats(0.02, 1.5), alpha=st.floats(0.1, 2.0), tau_q=st.floats(0.1, 20.0))
def test_evolve_probability_symmetric_unitary_and_stepped_by_rule(k, alpha, tau_q):
    sched = QuenchSchedule.from_field(tau_q)
    res = evolve_mode(k, alpha, sched)
    assert 0.0 <= res.probability <= 1.0
    assert res.norm_drift < 1e-8
    # -k flips the sign of the X and Y fields: a Z conjugation, which leaves p alone
    mirrored = evolve_mode(-k, alpha, sched)
    assert abs(mirrored.probability - res.probability) <= 1e-12
    assert mirrored.n_steps == res.n_steps
    h_max = 2.0 * math.hypot(abs(math.cos(k)) + 5.0, alpha * math.sin(k))
    span = -sched.t_start
    assert res.n_steps == math.ceil(span / (0.2 / h_max))


def _mode_loop_reference(k, B, alpha, steps):
    """mode_berry_numeric at one point, from a 2 x 2 eigh of its own: the per-point reference."""
    c, s = np.cos(k) - B, alpha * np.sin(k)
    h0 = np.array([[-2.0 * c, -2.0j * s], [2.0j * s, 2.0 * c]], dtype=complex)
    w0, w1 = np.abs(np.linalg.eigh(h0)[1][:, 0]) ** 2
    return float(-steps * np.angle(w0 + w1 * np.exp(-2.0j * math.pi / steps)))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


mode_shapes = npst.mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=4)
loop_steps = st.sampled_from([100, 1000, 10000, 12345])


@settings(max_examples=50, deadline=None)
@given(shapes=mode_shapes, steps=loop_steps, data=st.data())
def test_mode_loop_over_arrays_equals_its_scalar_calls_bit_for_bit(shapes, steps, data):
    k_shape, b_shape, a_shape = shapes.input_shapes
    # gapped everywhere: alpha > 0 and sin k > 0
    k = data.draw(npst.arrays(float, k_shape, elements=st.floats(0.01, math.pi - 0.01)))
    B = data.draw(npst.arrays(float, b_shape, elements=fields))
    alpha = data.draw(npst.arrays(float, a_shape, elements=st.floats(0.05, 2.0)))
    got = mode_berry_numeric(k, B, alpha, steps=steps)
    if shapes.result_shape:
        assert isinstance(got, np.ndarray) and got.shape == shapes.result_shape
    else:
        assert type(got) is float  # 0-d inputs are scalars
    got = np.asarray(got)
    kb, bb, ab = np.broadcast_arrays(k, B, alpha)
    for idx in np.ndindex(shapes.result_shape):
        point = (float(kb[idx]), float(bb[idx]), float(ab[idx]))
        scalar = mode_berry_numeric(*point, steps=steps)
        assert type(scalar) is float
        assert _bits(got[idx]) == _bits(scalar) == _bits(_mode_loop_reference(*point, steps))


@given(shape=npst.array_shapes(min_dims=1, max_dims=3, max_side=4), data=st.data())
def test_mode_loop_names_the_first_gapless_point_in_c_order(shape, data):
    k = data.draw(npst.arrays(float, shape, elements=st.floats(0.01, math.pi - 0.01)))
    B = data.draw(npst.arrays(float, shape, elements=fields))
    alpha = data.draw(npst.arrays(float, shape, elements=st.floats(0.05, 2.0)))
    gapless = data.draw(npst.arrays(bool, shape))
    assume(gapless.any())
    # alpha = 0 and B = cos k exactly close the gap at each marked point
    B = np.where(gapless, np.cos(k), B)
    alpha = np.where(gapless, 0.0, alpha)
    first = tuple(np.argwhere(gapless)[0])
    with pytest.raises(DegeneratePointError) as err:
        mode_berry_numeric(k, B, alpha, steps=1000)
    assert (err.value.k, err.value.B, err.value.alpha) == (k[first], B[first], alpha[first])


@pytest.mark.parametrize("seed,steps", [(0, 10000), (3, 2000)])
def test_oracle_mode_rows_equal_their_per_point_reference(seed, steps):
    grid, _ = oracle_report(seed=seed, steps=steps)
    mode = np.char.startswith(grid.columns["case"].astype(str), "mode_")
    rng = np.random.default_rng(seed)
    b_vals, a_vals = rng.uniform(-1.5, 1.5, 20), rng.uniform(0.05, 2.0, 20)
    points = [(float(bv), float(av)) for bv in b_vals for av in a_vals]  # field-major
    k = math.pi / 2
    assert mode.sum() == len(points)
    assert grid.columns["field"][mode].tolist() == [bv for bv, _ in points]
    assert grid.columns["alpha"][mode].tolist() == [av for _, av in points]
    analytic = [float(mode_phase(k, bv, av)) for bv, av in points]
    numeric = [_mode_loop_reference(k, bv, av, steps) for bv, av in points]
    assert np.array_equal(_bits(grid.columns["analytic"][mode]), _bits(analytic))
    assert np.array_equal(_bits(grid.columns["numeric"][mode]), _bits(numeric))


# ----------------------------------------------------------------- RG flow

def _rg_invariant(alpha, K):
    """I = alpha^2 - 16 K + 8 ln K, conserved by d(alpha)/dl = (2 - 1/K) alpha, dK/dl = alpha^2/4."""
    return alpha * alpha - 16.0 * K + 8.0 * math.log(K)


@settings(max_examples=40, deadline=None)
@given(alpha0=st.floats(0.0, 2.0), K0=st.floats(0.3, 3.0), dl=st.floats(1e-3, 5e-2))
def test_rg_flow_conserves_its_invariant_to_fourth_order(alpha0, K0, dl):
    # RK4's local error on a component growing at rate lam is (lam dl)^5/120 of
    # its size.  Here |2 - 1/K| <= 2, so alpha^2 (twice alpha's relative error)
    # and K each err by less than dl^5 of S per step, with S the largest
    # alpha^2 + 16 K + 8 |ln K| on the trajectory; over l_max/dl steps that is
    # at most l_max dl^4 S.  Rounding adds at most 8 eps S per step.
    l_max = 5.0
    traj = rg_flow(RGState(alpha0, K0), l_max=l_max, dl=dl)
    scale = max(x.alpha**2 + 16.0 * x.K + 8.0 * abs(math.log(x.K)) for x in traj.states)
    n_steps = len(traj.states) - 1
    bound = l_max * dl**4 * scale + 8.0 * n_steps * np.finfo(float).eps * scale
    start = _rg_invariant(alpha0, K0)
    drift = max(abs(_rg_invariant(x.alpha, x.K) - start) for x in traj.states)
    assert drift <= bound


@given(K0=st.floats(0.05, 5.0), dl=st.floats(1e-3, 0.5))
def test_rg_invariant_is_exactly_constant_on_the_fixed_line(K0, dl):
    traj = rg_flow(RGState(0.0, K0), l_max=3.0, dl=dl)
    start = _rg_invariant(0.0, K0)
    assert all(_rg_invariant(x.alpha, x.K) == start for x in traj.states)
