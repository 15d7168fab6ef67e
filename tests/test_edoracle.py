import math

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    DegeneratePointError,
    berry_phase_loop,
    build_hamiltonian,
    ground_state,
    holonomy_phase,
    mode_berry_numeric,
    mode_phase,
    state_parity,
    total_phase,
)

TWO_PI = 2.0 * math.pi

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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


def test_size_cap_and_validation():
    with pytest.raises(ValueError):
        build_hamiltonian(13, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(4, -0.1, 0.0)


def test_ground_energy_regression_n8():
    # dense diagonalization is its own oracle here; value frozen once
    h = build_hamiltonian(8, 0.5, 0.5, 0.0)
    gs = ground_state(h)
    assert gs.energy == pytest.approx(-6.749345587588543, rel=1e-12)
    # this point sits in the odd parity sector, below the even-sector value
    assert state_parity(gs.vector) == pytest.approx(-1.0, abs=1e-10)
    even_sector = -2.0 * sum(
        math.hypot(math.cos((2 * m - 1) * math.pi / 8) - 0.5,
                   0.5 * math.sin((2 * m - 1) * math.pi / 8))
        for m in range(1, 5)
    )
    assert gs.energy < even_sector


# ---------------------------------------------------------------- ground_state

def test_ground_state_diagonal_matrix():
    h = np.diag([3.0, -2.0, 7.0]).astype(complex)
    gs = ground_state(h)
    assert gs.energy == -2.0
    assert abs(gs.vector[1]) == pytest.approx(1.0, rel=1e-12)
    assert not gs.degenerate


def test_ground_state_flags_degeneracy():
    gs = ground_state(np.eye(4, dtype=complex))
    assert gs.degenerate


def test_ground_state_residual_small():
    h = build_hamiltonian(6, 1.0, 0.5, 0.7)
    gs = ground_state(h)
    r = np.linalg.norm(h @ gs.vector - gs.energy * gs.vector)
    assert r < 1e-10 * np.max(np.abs(np.linalg.eigvalsh(h)))


def test_strong_field_polarizes():
    h = build_hamiltonian(6, 1.0, 2.0, 0.0)
    gs = ground_state(h)
    sz_site = _kron_chain([SZ] + [np.eye(2, dtype=complex)] * 5)
    per_site = float(np.real(np.vdot(gs.vector, sz_site @ gs.vector)))
    assert per_site < -0.9


def test_even_sector_ground_energy_matches_grid():
    for n, a, B in ((4, 0.5, 0.0), (6, 1.0, 0.5)):
        gs = ground_state(build_hamiltonian(n, a, B, 0.0))
        k = (2 * np.arange(1, n // 2 + 1) - 1) * np.pi / n
        analytic = -2.0 * float(np.sum(np.hypot(np.cos(k) - B, a * np.sin(k))))
        assert gs.energy == pytest.approx(analytic, rel=1e-12)
        assert state_parity(gs.vector) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------- berry_phase_loop

def test_loop_matches_chain_phase_n4():
    res = berry_phase_loop(4, 0.5, 0.0, steps=512)
    assert res.valid and not res.degenerate
    analytic = total_phase(ChainSpec(4, 0.5), 0.0) % TWO_PI
    assert _circ_diff(res.phase, analytic) < 1e-4


def test_loop_matches_chain_phase_n6():
    res = berry_phase_loop(6, 1.0, 0.5, steps=512)
    assert res.valid
    analytic = total_phase(ChainSpec(6, 1.0), 0.5) % TWO_PI
    assert _circ_diff(res.phase, analytic) < 1e-4
    assert res.parity == pytest.approx(1.0, abs=1e-10)


def test_loop_polarized_limit_vanishes():
    res = berry_phase_loop(4, 1.0, 25.0, steps=512)
    assert res.valid
    assert min(res.phase, TWO_PI - res.phase) < 1e-2


def test_loop_flags_degenerate_ground_state():
    # Ising chain at zero field: even and odd sectors are exactly degenerate
    res = berry_phase_loop(4, 1.0, 0.0, steps=128)
    assert res.degenerate and not res.valid
    assert math.isnan(res.phase)


def test_loop_overlap_quality():
    res = berry_phase_loop(4, 1.0, 0.5, steps=512)
    assert res.overlaps_min > 0.999
    assert not res.under_resolved


def test_loop_rejects_coarse_discretization():
    with pytest.raises(ValueError):
        berry_phase_loop(4, 1.0, 0.5, steps=10)


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


def test_loop_step_doubling_stability():
    a = berry_phase_loop(4, 0.7, 0.4, steps=512).phase
    b = berry_phase_loop(4, 0.7, 0.4, steps=1024).phase
    assert _circ_diff(a, b) < 1e-4
