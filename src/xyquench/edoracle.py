"""Dense exact diagonalization and discretized Berry-phase loops.

Independent ground truth for the momentum-space formulas: the full 2^N
spin Hamiltonian is built for the rotated family

    H(phi) = U(phi) H U(phi)^dagger,   U(phi) = prod_j exp(i phi sz_j / 2),

which expands to bond couplings (1 +/- alpha cos 2phi)/2 on sx sx / sy sy,
a -(alpha/2) sin 2phi cross term on (sx sy + sy sx), and the field B sz.
H(phi) is pi-periodic and isospectral in phi.  Geometric phases come from
the gauge-invariant product of consecutive ground-state overlaps around
the closed phi in [0, pi) loop, never from the analytic angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import gap_kernel, require_gapped

MAX_SITES = 12  # dense eigensolves stay desk-scale below this

_RESIDUAL_TOL = 1e-8
_DEGENERACY_TOL = 1e-8
_OVERLAP_RESOLVED = 1e-6


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair plus the gap to the next level."""

    energy: float
    vector: np.ndarray
    gap: float
    degenerate: bool


@dataclass(frozen=True)
class LoopResult:
    """Discretized holonomy around the phi loop."""

    phi_steps: int
    phase: float
    overlaps_min: float
    valid: bool
    degenerate: bool
    under_resolved: bool
    parity: float


def _term_matrices(n_sites: int):
    """Periodic-chain sums of sx sx, sy sy, (sx sy + sy sx) over bonds, and sz over sites.

    Site j is bit n-1-j of the basis index, with |0> the sz = +1 state.  A
    bond term flips both of its bits; sy|b> = i(1 - 2b)|1-b> supplies the
    sign of the yy and xy amplitudes from the spins s = 1 - 2b of the ket.
    """
    dim = 2**n_sites
    idx = np.arange(dim)
    shifts = n_sites - 1 - np.arange(n_sites)
    spin = 1 - 2 * ((idx[:, None] >> shifts) & 1)
    xx = np.zeros((dim, dim), dtype=complex)
    yy = np.zeros((dim, dim), dtype=complex)
    xy = np.zeros((dim, dim), dtype=complex)
    for j in range(n_sites):
        jj = (j + 1) % n_sites
        flipped = idx ^ ((1 << int(shifts[j])) | (1 << int(shifts[jj])))
        xx[flipped, idx] += 1.0
        yy[flipped, idx] -= spin[:, j] * spin[:, jj]
        xy[flipped, idx] += 1j * (spin[:, j] + spin[:, jj])
    z = np.diag(spin.sum(axis=1).astype(complex))
    return xx, yy, xy, z


def _assemble(xx, yy, xy, z, alpha: float, B: float, phi: float) -> np.ndarray:
    c2 = math.cos(2.0 * phi)
    s2 = math.sin(2.0 * phi)
    return (
        0.5 * (1.0 + alpha * c2) * xx
        + 0.5 * (1.0 - alpha * c2) * yy
        - 0.5 * alpha * s2 * xy
        + B * z
    )


def build_hamiltonian(n_sites: int, alpha: float, B: float, phi: float = 0.0) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian of the rotated periodic chain; Hermitian by construction."""
    if not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must lie in [2, {MAX_SITES}], got {n_sites}")
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return _assemble(*_term_matrices(n_sites), alpha, B, phi)


def ground_state(h: np.ndarray) -> GroundState:
    """Lowest eigenpair of a dense Hermitian matrix, with residual and gap checks."""
    w, v = np.linalg.eigh(h)
    energy = float(w[0])
    vec = v[:, 0]
    scale = float(max(abs(w[0]), abs(w[-1]), 1e-300))
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if residual > _RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"eigensolve residual {residual:g} exceeds {_RESIDUAL_TOL:g} * |H| = "
            f"{_RESIDUAL_TOL * scale:g}"
        )
    gap = float(w[1] - w[0]) if w.size > 1 else math.inf
    return GroundState(
        energy=energy, vector=vec, gap=gap, degenerate=bool(gap < _DEGENERACY_TOL * scale)
    )


def state_parity(vector: np.ndarray) -> float:
    """Expectation of prod_j sz_j; +/-1 labels the fermion parity sector."""
    dim = vector.size
    idx = np.arange(dim)
    signs = 1.0 - 2.0 * (np.array([bin(i).count("1") for i in idx]) % 2)
    return float(np.real(np.sum(np.abs(vector) ** 2 * signs)))


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


class _DegenerateLoop(Exception):
    """A ground state on the loop is degenerate; its Berry phase is undefined."""


def berry_phase_loop(n_sites: int, alpha: float, B: float, steps: int = 10000) -> LoopResult:
    """Many-body Berry phase of the ground state around phi in [0, pi).

    Matches the analytic chain phase sum modulo 2pi when the ground state
    sits in the even fermion-parity sector (parity +1); odd-sector ground
    states follow the integer momentum grid instead and are reported via
    the parity field rather than silently absorbed.  A degenerate ground
    state anywhere on the loop invalidates the result.  The ground states
    are streamed into holonomy_phase, so memory stays flat in `steps`.
    """
    if steps < 100:
        raise ValueError(f"need steps >= 100 for a resolved loop, got {steps}")
    if not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must lie in [2, {MAX_SITES}], got {n_sites}")
    terms = _term_matrices(n_sites)
    parity = 0.0

    def ground_states():
        nonlocal parity
        for j in range(steps):
            gs = ground_state(_assemble(*terms, alpha, B, j * math.pi / steps))
            if j == 0 or gs.degenerate:
                parity = state_parity(gs.vector)
            if gs.degenerate:
                raise _DegenerateLoop
            yield gs.vector

    try:
        phase, ov_min = holonomy_phase(ground_states())
    except _DegenerateLoop:
        return LoopResult(
            phi_steps=steps,
            phase=math.nan,
            overlaps_min=0.0,
            valid=False,
            degenerate=True,
            under_resolved=False,
            parity=parity,
        )
    under = ov_min < _OVERLAP_RESOLVED
    return LoopResult(
        phi_steps=steps,
        phase=phase,
        overlaps_min=ov_min,
        valid=(ov_min > 0.0) and not under,
        degenerate=False,
        under_resolved=under,
        parity=parity,
    )


def mode_berry_numeric(k: float, B: float, alpha: float, steps: int = 10000) -> float:
    """Per-mode geometric phase from a discretized loop, with winding tracked.

    The (k, -k) pair block in span{|00>, |11>} is
    H = -2(cos k - B) Z + 2 alpha sin(k) Y; the rotation by phi multiplies
    the |11> amplitude by exp(-2 i phi).  The loop is walked in that
    explicitly smooth gauge and the per-step phase increments are summed
    without reduction, so a full winding reports 2pi rather than 0.
    Converges to pi*(1 - cos theta_k) as steps grow, second order in
    1/steps.
    """
    if steps < 100:
        raise ValueError(f"need steps >= 100 for a resolved loop, got {steps}")
    c, s, _, gapped = gap_kernel(k, B, alpha)
    require_gapped(k, B, alpha, gapped)
    h0 = np.array([[-2.0 * c, -2.0j * s], [2.0j * s, 2.0 * c]], dtype=complex)
    _, v = np.linalg.eigh(h0)
    v0 = v[:, 0]

    phis = np.arange(steps) * (math.pi / steps)
    amps = np.empty((steps, 2), dtype=complex)
    amps[:, 0] = v0[0]
    amps[:, 1] = v0[1] * np.exp(-2.0j * phis)
    nxt = np.roll(amps, -1, axis=0)
    overlaps = np.sum(np.conj(amps) * nxt, axis=1)
    return float(-np.sum(np.angle(overlaps)))
