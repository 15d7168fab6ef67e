import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    DegeneratePointError,
    LoopResult,
    berry_phase_loop,
    build_hamiltonian,
    ground_state,
    mode_berry_numeric,
    mode_phase,
    total_phase,
)
from xyquench import edoracle
from xyquench.edoracle import _spin_basis, free_fermion_levels, parity_block_levels

TWO_PI = 2.0 * math.pi

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def state_parity(vector: np.ndarray) -> float:
    """Expectation of prod_j sz_j; +/-1 labels the fermion parity sector."""
    signs = 1.0 - 2.0 * (_spin_basis(vector.size.bit_length() - 1)[1].sum(axis=1) % 2)
    return float(np.real(np.sum(np.abs(vector) ** 2 * signs)))


def _kron_chain(ops):
    m = ops[0]
    for o in ops[1:]:
        m = np.kron(m, o)
    return m


def _reference_hamiltonian(n, alpha, B, periodic=True):
    """Unrotated chain built term by term, independent of the library assembly."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    bonds = n if periodic else n - 1
    for j in range(bonds):
        for op, w in ((SX, (1 + alpha) / 2), (SY, (1 - alpha) / 2)):
            ops = [np.eye(2, dtype=complex)] * n
            ops[j] = op
            ops[(j + 1) % n] = op
            h += w * _kron_chain(ops)
    for j in range(n):
        ops = [np.eye(2, dtype=complex)] * n
        ops[j] = SZ
        h += B * _kron_chain(ops)
    return h


def _circ_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


# ------------------------------------------------------------ build_hamiltonian

def test_two_site_ising_pair_spectrum():
    # the periodic N = 2 ring counts its one bond twice: H = 2 sx sx
    h = build_hamiltonian(2, 1.0, 0.0, 0.0)
    w = np.linalg.eigvalsh(h)
    assert np.allclose(w, [-2.0, -2.0, 2.0, 2.0], atol=1e-12)


def test_phi_zero_reduces_to_plain_chain():
    cases = ((2, 0.3, 0.7), (3, 0.7, 0.4), (4, 0.0, 1.2), (5, 1.0, 0.0), (6, 0.8, 0.3),
             (8, 0.5, 0.5))
    for n, a, B in cases:
        got = build_hamiltonian(n, a, B, 0.0)
        ref = _reference_hamiltonian(n, a, B)
        assert np.max(np.abs(got - ref)) < 1e-14


def test_rotated_family_is_unitary_conjugation():
    # H(phi) = U H(0) U^dagger with U = diag(exp(i phi sum_j sz_j / 2)); this
    # pins the sign of the xy cross term, which the spectrum cannot see
    rng = np.random.default_rng(65)
    for n in range(2, 7):
        sz_total = n - 2.0 * np.array([bin(i).count("1") for i in range(2**n)])
        for _ in range(3):
            a, B, phi = rng.uniform(0, 1.5), rng.uniform(-2, 2), rng.uniform(0, math.pi)
            u = np.exp(0.5j * phi * sz_total)
            want = u[:, None] * build_hamiltonian(n, a, B, 0.0) * u.conj()[None, :]
            assert np.max(np.abs(build_hamiltonian(n, a, B, phi) - want)) < 1e-14


def test_hermiticity_exact():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        h = build_hamiltonian(n, rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(0, math.pi))
        assert np.array_equal(h, h.conj().T)


def test_spectrum_invariant_under_rotation():
    rng = np.random.default_rng(62)
    for _ in range(5):
        a, B, phi = rng.uniform(0, 1.5), rng.uniform(0, 2), rng.uniform(0, math.pi)
        w0 = np.linalg.eigvalsh(build_hamiltonian(6, a, B, 0.0))
        w1 = np.linalg.eigvalsh(build_hamiltonian(6, a, B, phi))
        assert np.max(np.abs(w1 - w0)) < 1e-10


def test_pi_periodic_in_phi():
    for phi in (0.0, 0.3, 1.1):
        h0 = build_hamiltonian(4, 0.8, 0.5, phi)
        h1 = build_hamiltonian(4, 0.8, 0.5, phi + math.pi)
        assert np.max(np.abs(h1 - h0)) < 1e-12


def test_real_exactly_where_the_xy_weight_is_zero():
    # the xy weight (alpha/2) sin 2phi is 0.0 at phi = 0 and at alpha = 0;
    # at phi = pi it is not, because sin 2pi is -2.4e-16 in floating point
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert build_hamiltonian(4, alpha, 0.5, 0.0).dtype == np.float64
    for phi in (0.0, 0.3, 1.1, math.pi):
        assert build_hamiltonian(4, 0.0, 0.5, phi).dtype == np.float64
    assert build_hamiltonian(4, 0.8, 0.5, 0.3).dtype == np.complex128
    assert math.sin(2.0 * math.pi) != 0.0
    assert build_hamiltonian(4, 0.8, 0.5, math.pi).dtype == np.complex128
    # the real eigensolver sees the same spectrum as the complex one
    h = build_hamiltonian(10, 0.8, 0.5, 0.0)
    want = np.linalg.eigvalsh(h.astype(complex))
    assert np.max(np.abs(np.linalg.eigvalsh(h) - want)) <= 1e-12


def test_size_cap_and_validation():
    with pytest.raises(ValueError):
        build_hamiltonian(13, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(4, -0.1, 0.0)


def test_sizes_past_the_cap_are_refused_before_allocating():
    assert edoracle.MAX_SITES == 10
    # an N = 11 matrix alone would be 33.6 MB; the refusal allocates next to nothing
    for build, args in ((build_hamiltonian, (11, 1.0, 0.5)),
                        (berry_phase_loop, (12, 1.0, 0.5, 200))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n_sites must lie in \[2, 10\]"):
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e5


def test_ground_energy_regression_n8():
    # dense diagonalization is its own oracle here; value frozen once
    h = build_hamiltonian(8, 0.5, 0.5, 0.0)
    energy, vec = ground_state(h)
    assert energy == pytest.approx(-6.749345587588543, rel=1e-12)
    # this point sits in the odd parity sector, below the even-sector value
    assert state_parity(vec) == pytest.approx(-1.0, abs=1e-10)
    even_sector = -2.0 * sum(
        math.hypot(math.cos((2 * m - 1) * math.pi / 8) - 0.5,
                   0.5 * math.sin((2 * m - 1) * math.pi / 8))
        for m in range(1, 5)
    )
    assert energy < even_sector


# ---------------------------------------------------------------- ground_state

def test_ground_state_diagonal_matrix():
    h = np.diag([3.0, -2.0, 7.0]).astype(complex)
    energy, vec = ground_state(h)
    assert energy == -2.0
    assert abs(vec[1]) == pytest.approx(1.0, rel=1e-12)


def test_ground_state_of_one_level_has_no_gap():
    # a ground state is the lowest eigenpair alone: one level is enough
    # the pair is the plain (energy, vector) of np.linalg.eigh's lowest level
    gs = ground_state(np.array([[2.0]]))
    assert type(gs) is tuple and type(gs[0]) is float
    assert (gs[0], gs[1].tolist()) == (2.0, [1.0])


def test_ground_state_residual_threshold_scales_with_the_extreme_level():
    # eigh reads only the lower triangle: an upper entry in the ground state's column keeps
    # w and v exact and adds exactly |h[0, 1]| to the residual of v[:, 0] = +/-e_1
    top = 8.0
    at = edoracle._RESIDUAL_TOL * top
    h = np.diag([1.0, 0.0, 2.0, top])
    h[0, 1] = at
    assert ground_state(h)[0] == 0.0  # residual == tol * |H| passes: strict >
    h[0, 1] = 2.0 * at
    with pytest.raises(ArithmeticError, match="eigensolve residual"):
        ground_state(h)


def test_ground_state_residual_small():
    h = build_hamiltonian(6, 1.0, 0.5, 0.7)
    energy, vec = ground_state(h)
    r = np.linalg.norm(h @ vec - energy * vec)
    assert r < 1e-10 * np.max(np.abs(np.linalg.eigvalsh(h)))


def test_strong_field_polarizes():
    h = build_hamiltonian(6, 1.0, 2.0, 0.0)
    _, vec = ground_state(h)
    sz_site = _kron_chain([SZ] + [np.eye(2, dtype=complex)] * 5)
    per_site = float(np.real(np.vdot(vec, sz_site @ vec)))
    assert per_site < -0.9


def test_even_sector_ground_energy_matches_grid():
    for n, a, B in ((4, 0.5, 0.0), (6, 1.0, 0.5)):
        energy, vec = ground_state(build_hamiltonian(n, a, B, 0.0))
        k = (2 * np.arange(1, n // 2 + 1) - 1) * np.pi / n
        analytic = -2.0 * float(np.sum(np.hypot(np.cos(k) - B, a * np.sin(k))))
        assert energy == pytest.approx(analytic, rel=1e-12)
        assert state_parity(vec) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------- berry_phase_loop

def test_loop_matches_chain_phase_n4():
    res = berry_phase_loop(4, 0.5, 0.0, steps=512)
    assert not res.degenerate
    analytic = total_phase(ChainSpec(4, 0.5), 0.0) % TWO_PI
    assert _circ_diff(res.phase, analytic) < 1e-4


def test_loop_matches_chain_phase_n6():
    res = berry_phase_loop(6, 1.0, 0.5, steps=512)
    assert not res.degenerate
    analytic = total_phase(ChainSpec(6, 1.0), 0.5) % TWO_PI
    assert _circ_diff(res.phase, analytic) < 1e-4
    assert res.parity == pytest.approx(1.0, abs=1e-10)


def test_loop_polarized_limit_vanishes():
    res = berry_phase_loop(4, 1.0, 25.0, steps=512)
    assert not res.degenerate
    assert min(res.phase, TWO_PI - res.phase) < 1e-2


def test_loop_flags_degenerate_ground_state():
    # Ising chain at zero field: even and odd sectors are exactly degenerate
    res = berry_phase_loop(4, 1.0, 0.0, steps=128)
    assert res.degenerate and not res.valid
    assert math.isnan(res.phase)


def test_loop_valid_is_derived_from_degenerate():
    for degenerate in (False, True):
        res = LoopResult(phase=0.0, overlaps_min=1.0, degenerate=degenerate, parity=1.0)
        assert res.valid is not degenerate
    with pytest.raises(AttributeError):
        res.valid = True
    # a loop result is a value: it cannot be changed after the fact
    with pytest.raises(AttributeError, match="^cannot assign to field 'degenerate'$") as caught:
        res.degenerate = False
    assert caught.type is AttributeError


def test_loop_overlap_quality():
    # |ov| >= Re ov >= cos(pi N / (2 steps)): every term of ov has an argument of at
    # most pi N / (2 steps), so at steps >= 100 and N <= 10 no loop is under-resolved
    parities = set()
    for n in range(2, edoracle.MAX_SITES + 1):
        for alpha, B in ((1.0, 0.5), (1.3, -0.45)):  # no degenerate ground state at any N
            for steps in (100, 137, 1000):
                res = berry_phase_loop(n, alpha, B, steps=steps)
                assert not res.degenerate
                bound = math.cos(math.pi * n / (2 * steps))
                assert bound <= res.overlaps_min <= 1.0 + 1e-12, (n, alpha, B, steps)
                parities.add(res.parity)
    assert parities == {1.0, -1.0}  # (1.0, 0.5) is odd at every odd N


def test_loop_rejects_coarse_discretization():
    with pytest.raises(ValueError):
        berry_phase_loop(4, 1.0, 0.5, steps=10)


def holonomy_phase(states) -> tuple[float, float]:
    """Phase of a closed discretized Wilson loop over the given state sequence.

    Returns (-arg prod_j <psi_j|psi_{j+1}>, min |overlap|) with the product
    closing from the last state back to the first; gauge-invariant because
    every eigenvector phase appears once bra-side and once ket-side.  Any
    iterable works; only the first and the previous state are kept.
    """
    prod = 1.0 + 0.0j
    ov_min = math.inf
    first = prev = None
    for psi in states:
        if first is None:
            first = psi
        else:
            ov = complex(np.vdot(prev, psi))
            prod *= ov
            ov_min = min(ov_min, abs(ov))
        prev = psi
    if first is None:
        raise ValueError("a Wilson loop needs at least one state")
    ov = complex(np.vdot(prev, first))
    prod *= ov
    ov_min = min(ov_min, abs(ov))
    return float((-np.angle(prod)) % (2.0 * math.pi)), float(ov_min)


def _reference_loop(n, alpha, B, steps):
    """The per-step loop that the closed form replaced: one dense eigh of H(phi) per step.

    It decides degeneracy from its own eigh, with the loop's rule:
    w[1] - w[0] < 1e-8 max(|w[0]|, |w[-1]|).
    """
    parity = 0.0
    states = []
    for j in range(steps):
        # complex at every step, phi = 0 too: the real and the complex eigensolver
        # pick different vectors from the exactly degenerate pair at the Ising point
        w, v = np.linalg.eigh(build_hamiltonian(n, alpha, B, j * math.pi / steps).astype(complex))
        degenerate = w[1] - w[0] < 1e-8 * max(abs(w[0]), abs(w[-1]))
        if j == 0 or degenerate:
            parity = state_parity(v[:, 0])
        if degenerate:
            return LoopResult(math.nan, 0.0, True, parity)
        states.append(v[:, 0])
    phase, ov_min = holonomy_phase(states)
    return LoopResult(phase, ov_min, False, parity)


@pytest.mark.parametrize("n,alpha,B,steps", [
    (2, 0.3, 0.7, 200),
    (3, 0.7, 0.4, 200),  # odd N
    (4, 0.5, 0.0, 400),
    (5, 1.0, 0.3, 200),
    (6, 1.0, 0.5, 400),
    (6, 0.8, 0.3, 100),  # the smallest allowed steps
    (8, 1.0, 0.5, 100),
    (8, 0.35, 0.375, 100),  # odd-parity ground state
    (4, 1.0, 0.0, 128),  # Ising point: even and odd sectors degenerate
    (4, 0.0, 0.5, 200),  # XX: H(phi) does not depend on phi
    (4, 1.0, 0.5, 5000),  # a long loop: steps * arg(overlap) over many steps
])
def test_loop_matches_dense_reference(n, alpha, B, steps):
    got = berry_phase_loop(n, alpha, B, steps=steps)
    ref = _reference_loop(n, alpha, B, steps)
    assert got.degenerate == ref.degenerate
    assert got.parity == pytest.approx(ref.parity, abs=1e-12)
    assert abs(got.overlaps_min - ref.overlaps_min) <= 1e-12
    if ref.degenerate:
        assert math.isnan(got.phase)
    else:
        assert _circ_diff(got.phase, ref.phase) <= 1e-12


def test_loop_sends_exact_ties_to_the_odd_block():
    # Ising point at zero field: the even and odd blocks tie exactly
    res = berry_phase_loop(4, 1.0, 0.0, steps=128)
    assert res.degenerate
    assert res.parity == pytest.approx(-1.0, abs=1e-12)


def test_popcount_counts_the_set_bits_of_every_basis_index():
    # the basis table's one bit order: site j is bit n-1-j of the index
    for n in range(2, 9):
        place, bits, _ = _spin_basis(n)
        assert place.tolist() == [2 ** (n - 1 - j) for j in range(n)]
        assert bits.tolist() == [[(i >> (n - 1 - j)) & 1 for j in range(n)] for i in range(2**n)]
        assert bits.sum(axis=1).tolist() == [bin(i).count("1") for i in range(2**n)]


def test_parity_blocks_split_the_basis_by_popcount_and_are_read_only():
    for n in range(2, 9):
        place, bits, (even, odd) = _spin_basis(n)
        assert even.tolist() == [i for i in range(2**n) if bin(i).count("1") % 2 == 0]
        assert odd.tolist() == [i for i in range(2**n) if bin(i).count("1") % 2 == 1]
        assert _spin_basis(n) is _spin_basis(n)
        for table in (place, bits, even, odd):
            with pytest.raises(ValueError):
                table[0] = 1


def test_parity_blocks_are_built_on_first_use_not_at_import():
    code = ("import xyquench; from xyquench.edoracle import _spin_basis; "
            "assert _spin_basis.cache_info().currsize == 0")
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(edoracle.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_basis_table_is_index_data_not_an_operator():
    # O(2^N N) bytes at N = 10, far below one 2^N x 2^N matrix (8.4 MB real)
    place, bits, blocks = _spin_basis(10)
    assert place.nbytes + bits.nbytes + sum(rows.nbytes for rows in blocks) < 2e4


@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_build_is_each_scalar_build(n):
    # alpha = 0 among alpha > 0, at phi = 0 and off it; every matrix == its own build
    alphas = np.array([0.0, 0.7, 1.3][: 2 if n >= 9 else 3])
    fields = np.array([0.4, -1.0, 2.0][: alphas.size])
    for phi in (0.0, 0.9):
        stack = build_hamiltonian(n, alphas, fields, phi)
        assert stack.shape == (alphas.size, 2**n, 2**n)
        assert stack.dtype == (np.complex128 if phi else np.float64)
        for h, a, b in zip(stack, alphas, fields):
            one = build_hamiltonian(n, float(a), float(b), phi)
            assert one.ndim == 2 and np.array_equal(h, one)
    # every cross weight 0.0: a stack of alpha = 0 off phi = 0 stays real
    assert build_hamiltonian(n, np.zeros(2), fields[:2], 0.9).dtype == np.float64


def test_build_broadcasts_alpha_against_the_field():
    alphas, fields = np.array([[0.0], [0.5]]), np.array([-0.3, 0.0, 1.2])
    stack = build_hamiltonian(4, alphas, fields, 0.4)
    assert stack.shape == (2, 3, 16, 16)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(stack[i, j], build_hamiltonian(4, alphas[i, 0], fields[j], 0.4))
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        build_hamiltonian(4, np.array([0.5, -0.1]), 0.0)


@pytest.mark.parametrize("alpha,B", [
    (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    (np.array([0.5, math.inf]), 0.5), (1.0, np.array([0.2, math.nan])),
])
def test_non_finite_couplings_are_refused_before_the_build(alpha, B):
    # refused by name: past the check they would reach LAPACK, which does not converge
    err = f"alpha and B must be finite, got alpha = {alpha}, B = {B}"
    with pytest.raises(ValueError) as exc:
        build_hamiltonian(4, alpha, B)
    assert str(exc.value) == err
    if np.ndim(alpha) == np.ndim(B) == 0:
        with pytest.raises(ValueError, match="alpha and B must be finite"):
            berry_phase_loop(4, alpha, B, 100)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", range(3))
def test_reference_side_refuses_non_finite_inputs_as_the_build_does(slot, bad):
    # one rule, by name, for the pair loop, the closed-form levels and the dense build
    for arg in (bad, np.array([0.4, bad])):
        k, B, alpha = [arg if i == slot else 0.5 for i in range(3)]
        with pytest.raises(ValueError) as exc:
            mode_berry_numeric(k, B, alpha, steps=100)
        assert str(exc.value) == (f"k, B and alpha must be finite, "
                                  f"got k = {k}, B = {B}, alpha = {alpha}")
        if slot == 0:
            continue
        err = f"alpha and B must be finite, got alpha = {alpha}, B = {B}"
        # refused before the basis table is read, so an unsupported size does not matter
        for n in (4, 1, edoracle.MAX_SITES + 1):
            with pytest.raises(ValueError) as exc:
                free_fermion_levels(n, alpha, B)
            assert str(exc.value) == err
        with pytest.raises(ValueError) as exc:
            build_hamiltonian(4, alpha, B)
        # the build reads a NaN or -inf alpha as a negative one first
        negative = slot == 2 and not bad > 0.0
        assert str(exc.value) == (f"alpha must be >= 0, got {alpha}" if negative else err)


@pytest.mark.parametrize("alpha", [-0.5, -5e-324, np.array([0.5, -0.1])])
def test_reference_side_refuses_a_negative_alpha_as_the_build_does(alpha):
    # both closed forms read alpha only through alpha^2 or |alpha sin k|, so a
    # negative one would silently get the answer of |alpha|
    err = f"alpha must be >= 0, got {alpha}"
    for call in (lambda: mode_berry_numeric(1.0, 0.5, alpha, steps=100),
                 lambda: free_fermion_levels(edoracle.MAX_SITES + 1, alpha, 0.5),
                 lambda: build_hamiltonian(4, alpha, 0.5)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == err
    # -0.0 >= 0, as in the build
    assert np.array_equal(free_fermion_levels(4, -0.0, 0.5), free_fermion_levels(4, 0.0, 0.5))
    assert mode_berry_numeric(1.0, 0.5, -0.0, steps=100) == 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_parity_block_levels_are_the_eigvalsh_of_each_block(n):
    rng = np.random.default_rng(90 + n)
    alphas, fields = rng.uniform(0.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)
    stack = build_hamiltonian(n, alphas, fields)
    stacked = parity_block_levels(stack)
    for i, h in enumerate(stack):
        for rows, one, many in zip(_spin_basis(n)[2], parity_block_levels(h), stacked):
            want = np.linalg.eigvalsh(h[np.ix_(rows, rows)])
            assert np.array_equal(one, want) and np.array_equal(many[i], want)
    assert [w.shape for w in parity_block_levels(stack[:0])] == [(0, 2 ** (n - 1))] * 2


def assert_free_fermion_levels_match_ed(n, alpha, B):
    """Every level of both parity blocks of H(0) within 1e-12 x max(1, |level|)."""
    h = build_hamiltonian(n, alpha, B)
    for rows, want in zip(_spin_basis(n)[2], free_fermion_levels(n, alpha, B)):
        assert want.shape == (2 ** (n - 1),)
        got = np.linalg.eigvalsh(h[np.ix_(rows, rows)])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n", range(2, 11))
def test_free_fermion_levels_are_the_levels_of_each_parity_block(n):
    # B = +/-1 puts a k = 0 or pi mode at zero energy; alpha = 0 is the XX chain
    rng = np.random.default_rng(70 + n)
    cases = [(1.0, 1.0), (1.0, -1.0), (0.5, 1.0), (2.0, -1.0), (0.0, 0.3), (0.0, 1.0),
             (0.0, -1.0), (2.0, 0.0), (0.7, 2.5), (1.3, -2.5)]
    cases += [(rng.uniform(0.0, 2.0), rng.uniform(-3.0, 3.0)) for _ in range(4)]
    for alpha, B in cases:
        assert_free_fermion_levels_match_ed(n, alpha, B)


def test_free_fermion_levels_broadcast_over_alpha_and_field():
    alphas, fields = np.array([0.0, 0.4, 1.7]), np.array([[-1.0], [0.2], [1.0], [2.0]])
    even, odd = free_fermion_levels(5, alphas, fields)
    assert even.shape == odd.shape == (4, 3, 16)
    for i, B in enumerate(fields[:, 0]):
        for j, a in enumerate(alphas):
            for got, want in zip((even[i, j], odd[i, j]), free_fermion_levels(5, a, B)):
                assert np.max(np.abs(got - want)) <= 1e-14
    assert [x.shape for x in free_fermion_levels(6, np.empty(0), np.empty(0))] == [(0, 32)] * 2


def test_free_fermion_levels_refuse_sizes_outside_the_ed_range():
    for n in (1, edoracle.MAX_SITES + 1):
        with pytest.raises(ValueError, match="n_sites must lie in"):
            free_fermion_levels(n, 1.0, 0.5)


def test_loop_calls_ground_state_once_per_loop(monkeypatch):
    # the benchmark's tracer and speed cut points count and time these calls;
    # the phi = 0 levels that pick the ground block take none of them, and
    # the closed-form loop needs no state past phi = 0
    calls = []

    def counted(h):
        calls.append(h.shape)
        return ground_state(h)

    monkeypatch.setattr(edoracle, "ground_state", counted)
    berry_phase_loop(4, 1.0, 0.5, 150)
    assert len(calls) == 1
    calls.clear()
    assert berry_phase_loop(4, 1.0, 0.0, 128).degenerate
    assert len(calls) == 1


def test_loop_refuses_a_ground_state_that_fails_the_full_space_residual(monkeypatch):
    # the embedded ground-block vector must solve the dense H(0), not just its block
    def perturbed(h):
        energy, vec = ground_state(h)
        vec = vec.copy()
        vec[0] += 1e-3
        return energy, vec / np.linalg.norm(vec)

    monkeypatch.setattr(edoracle, "ground_state", perturbed)
    with pytest.raises(ArithmeticError, match="eigensolve residual"):
        berry_phase_loop(4, 1.0, 0.5, 150)


def _diagonal_h0(gap, leak):
    """An N = 3 stand-in for H(0): even-block levels 0, 3, 5, 8 and odd-block levels
    gap, 2, 4, 6, on the diagonal, plus `leak` from the even ground state to an odd
    basis state, which only the full-space residual sees."""
    _, _, (even, odd) = _spin_basis(3)
    h = np.zeros((8, 8))
    h[even, even] = [0.0, 3.0, 5.0, 8.0]
    h[odd, odd] = [gap, 2.0, 4.0, 6.0]
    h[odd[0], even[0]] = leak
    return h


def test_loop_thresholds_scale_with_the_extreme_level(monkeypatch):
    # the loop's |H| is the largest |level| over both blocks, here 8; the second level of
    # either block is 3 at most, and the boundaries are strict
    top = 8.0
    gap, leak = edoracle._DEGENERACY_TOL * top, edoracle._RESIDUAL_TOL * top

    def loop(g, r):
        monkeypatch.setattr(edoracle, "build_hamiltonian", lambda n, a, b: _diagonal_h0(g, r))
        return berry_phase_loop(3, 1.0, 0.5, 100)

    res = loop(gap, leak)
    assert not res.degenerate and res.parity == 1.0
    assert loop(gap / 2.0, 0.0).degenerate
    with pytest.raises(ArithmeticError, match="eigensolve residual"):
        loop(gap, 2.0 * leak)


def test_loop_overlap_is_the_rotated_ground_state_overlap():
    # every step overlap is <psi_0| U(pi/steps) |psi_0>, from the dense phi = 0 state
    for n, alpha, B, steps in ((3, 0.7, 0.4, 100), (4, 1.0, 0.5, 150), (6, 0.8, 0.3, 1000),
                               (8, 0.35, 0.375, 100)):
        _, psi = ground_state(build_hamiltonian(n, alpha, B, 0.0))
        sz_total = n - 2.0 * np.array([bin(i).count("1") for i in range(2**n)])
        u = np.exp(0.5j * math.pi / steps * sz_total)
        want = abs(np.vdot(psi, u * psi))
        assert abs(berry_phase_loop(n, alpha, B, steps).overlaps_min - want) <= 1e-13


def _loop_peak(*args):
    tracemalloc.start()
    try:
        berry_phase_loop(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loop_memory_does_not_grow_with_steps():
    short = _loop_peak(6, 1.0, 0.5, 1000)
    assert abs(_loop_peak(6, 1.0, 0.5, 20000) - short) <= 0.01 * short
    assert short <= 2e6  # bytes; the per-step dense loop peaked at 0.59 MB
    assert _loop_peak(8, 1.0, 0.5, 200) <= 8.4e6  # the per-step dense loop's peak


def test_build_peaks_near_the_matrix_it_returns():
    # the build writes into the array it returns: no term matrix or
    # temporary of that size is alive at the peak
    for phi in (0.0, 0.7):
        tracemalloc.start()
        try:
            nbytes = build_hamiltonian(10, 0.8, 0.5, phi).nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * nbytes
    # the loop's real 256 x 256 H(0) is 0.5 MB
    assert _loop_peak(8, 1.0, 0.5, 200) <= 3e6


def test_loop_residual_makes_no_complex_copy_of_h():
    # a real H(0) takes a real psi, so h @ psi allocates one vector; a complex
    # psi would cast H(0) to a complex copy of 2^10 x 2^10 x 16 bytes = 16.8 MB
    assert _loop_peak(10, 0.8, 0.5, 200) < (2**10) ** 2 * 16


@pytest.mark.parametrize("n,alpha,B", [(4, 1.0, 0.5), (6, 1.0, 0.5), (6, 0.8, 0.3)])
def test_loop_second_order_convergence(n, alpha, B):
    exact = total_phase(ChainSpec(n, alpha), B) % TWO_PI
    errs = [_circ_diff(berry_phase_loop(n, alpha, B, steps=s).phase, exact)
            for s in (250, 500, 1000)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.9 <= coarse / fine <= 4.1


def test_holonomy_gauge_invariance():
    rng = np.random.default_rng(63)
    states = []
    for j in range(64):
        phi = j * math.pi / 64
        states.append(np.linalg.eigh(build_hamiltonian(4, 0.7, 0.6, phi))[1][:, 0])
    base, _ = holonomy_phase(states)
    dressed = [s * np.exp(1j * rng.uniform(0, TWO_PI)) for s in states]
    regauged, _ = holonomy_phase(dressed)
    assert _circ_diff(base, regauged) < 1e-12


# ---------------------------------------------------------- mode_berry_numeric

def test_mode_berry_theta_zero():
    # B far below cos k: cos(theta) = 1 and the loop encloses nothing
    assert mode_berry_numeric(0.4, -3.0, 0.0, steps=1000) == pytest.approx(0.0, abs=1e-12)


def test_mode_berry_theta_pi_full_winding():
    # antipodal Bloch vector: the accumulated value is 2pi, not 0
    assert mode_berry_numeric(0.4, 3.0, 0.0, steps=1000) == pytest.approx(TWO_PI, rel=1e-12)


def test_mode_berry_frozen_case():
    got = mode_berry_numeric(math.pi / 2, 0.5, 0.5, steps=10000)
    assert abs(got - 5.363034122668976) < 1e-4


def test_mode_berry_matches_analytic_grid():
    rng = np.random.default_rng(64)
    for _ in range(40):
        k = rng.uniform(0.1, math.pi - 0.1)
        B = rng.uniform(-1.5, 1.5)
        a = rng.uniform(0.05, 2.0)
        got = mode_berry_numeric(k, B, a, steps=10000)
        assert abs(got - float(mode_phase(k, B, a))) < 1e-4


def test_mode_berry_second_order_convergence():
    k, B, a = 1.1, 0.4, 0.8
    exact = float(mode_phase(k, B, a))
    e1 = abs(mode_berry_numeric(k, B, a, steps=400) - exact)
    e2 = abs(mode_berry_numeric(k, B, a, steps=800) - exact)
    order = math.log2(e1 / e2)
    assert 1.8 < order < 2.2


def test_mode_berry_gapless_rejected():
    with pytest.raises(DegeneratePointError):
        mode_berry_numeric(math.pi / 3, math.cos(math.pi / 3), 0.0, steps=1000)


def test_mode_berry_step_validation():
    with pytest.raises(ValueError):
        mode_berry_numeric(1.0, 0.5, 1.0, steps=50)
    with pytest.raises(ValueError):
        mode_berry_numeric(1.0, 0.5, 1.0, steps=99)
    assert mode_berry_numeric(1.0, 0.5, 1.0, steps=100) > 0.0  # the smallest allowed loop


@pytest.mark.parametrize("loop", [
    lambda steps: mode_berry_numeric(1.0, 0.5, 1.0, steps=steps),
    lambda steps: berry_phase_loop(4, 1.0, 0.5, steps=steps).phase,
], ids=["mode", "many-body"])
def test_loop_step_count_must_be_a_float(loop):
    # pi / steps overflows for an int past 1.8e308; the largest allowed count is the
    # budget itself, and its loop is the steps -> infinity limit of the default one
    top = int(1e308)
    assert loop(top) == pytest.approx(loop(10000), abs=1e-7)
    for steps, shown in ((top + 1, "over 1e+308"), (10**400, "over 1e+308"), (math.nan, "nan")):
        with pytest.raises(ValueError) as exc:
            loop(steps)
        assert str(exc.value) == (f"the loop has {shown} steps, above the budget of 1e+308; "
                                  "use fewer steps")


def test_mode_berry_scalars_give_a_float_and_arrays_an_array():
    one = mode_berry_numeric(1.0, 0.5, 1.0, steps=200)
    both = mode_berry_numeric(np.array([1.0, 2.0]), 0.5, 1.0, steps=200)
    assert type(one) is float
    assert both.shape == (2,) and both[0] == one


def test_loop_step_doubling_stability():
    a = berry_phase_loop(4, 0.7, 0.4, steps=512).phase
    b = berry_phase_loop(4, 0.7, 0.4, steps=1024).phase
    assert _circ_diff(a, b) < 1e-4
