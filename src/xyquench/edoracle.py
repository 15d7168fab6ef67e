"""Dense exact diagonalization and discretized Berry-phase loops.

Independent ground truth for the momentum-space formulas: the full 2^N
spin Hamiltonian is built for the rotated family

    H(phi) = U(phi) H U(phi)^dagger,   U(phi) = prod_j exp(i phi sz_j / 2),

which expands to bond couplings (1 +/- alpha cos 2phi)/2 on sx sx / sy sy,
a -(alpha/2) sin 2phi cross term on (sx sy + sy sx), and the field B sz.
H(phi) is pi-periodic and isospectral in phi.  Where the cross weight is
0.0 (phi = 0, alpha = 0) H is built float64, else complex128, so H(0) and
its ground-state vector are always real.  Geometric phases come from
the gauge-invariant product of consecutive ground-state overlaps around
the closed phi in [0, pi) loop, never from the analytic angle.

Because the family is a unitary conjugation, the ground state at phi is
U(phi) psi_0 and every overlap of the discrete loop is the same number,
<psi_0| U(pi/steps) |psi_0>: the loop is a closed form of the phi = 0
ground state, and no phi is solved past phi = 0 (Carollo & Pachos,
PRL 95, 157203, 2005).  Every term of H(0) flips two spins or none, so it
conserves the parity prod_j sz_j (Lieb, Schultz & Mattis, Ann. Phys. 16,
407, 1961), which splits the basis by popcount into an even and an odd
block.  parity_block_levels makes one eigvalsh per block, of one H(0) or
of a stack: in the loop it picks the ground block and decides degeneracy,
ground_state solves that block, and the vector is embedded back into the
full 2^N space, where it must pass _check_residual as a dense eigensolve
does.  Every routine here reads the basis from one cached, read-only
table per N, _spin_basis: site j is bit N-1-j, and the two blocks.

Each block is also a free-fermion system with its own boundary
condition: the even block has the levels of the Neveu-Schwarz momenta
k = (2m+1)pi/N and the odd block those of the Ramond momenta k = 2m pi/N.
free_fermion_levels lists them in closed form, a reference for every
level of H(0) that owes nothing to an eigensolver.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .chain import Record, gap_kernel, refuse_over_budget, require_gapped

MAX_SITES = 10  # an N = 10 loop takes about 0.07 s, an N = 12 one 2.7 s and 436 MB

_RESIDUAL_TOL = 1e-8
_DEGENERACY_TOL = 1e-8


class LoopResult(Record):
    """Discretized holonomy around the phi loop; overlaps_min >= cos(pi N / (2 steps)).

    A frozen value; `valid` is derived from `degenerate`, not a field.
    """

    def __init__(self, phase: float, overlaps_min: float, degenerate: bool, parity: float):
        self.__dict__.update(phase=phase, overlaps_min=overlaps_min, degenerate=degenerate,
                             parity=parity)

    @property
    def valid(self) -> bool:
        """Whether the loop has a phase: no loop is under-resolved, so when not degenerate."""
        return not self.degenerate


@functools.cache
def _spin_basis(n_sites: int) -> tuple:
    """Read-only (place, bits, blocks) index data of the 2^N basis, built on first use per N.

    Site j is bit N-1-j of an index, worth place[j]; bits[i, j] is that bit
    of index i (int8, 1 for a down spin); blocks holds the (even, odd)
    popcount-parity indices.  Refuses N outside [2, MAX_SITES].
    """
    if not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must lie in [2, {MAX_SITES}], got {n_sites}")
    place = 1 << np.arange(n_sites - 1, -1, -1)
    bits = ((np.arange(2**n_sites)[:, None] & place) != 0).astype(np.int8)
    blocks = tuple(np.flatnonzero(bits.sum(axis=1) % 2 == p) for p in (0, 1))
    for a in (place, bits, *blocks):
        a.setflags(write=False)
    return place, bits, blocks


def _require_finite(**values) -> None:
    """ValueError naming every argument, in order, unless all of their entries are finite."""
    if not all(np.all(np.isfinite(v)) for v in values.values()):
        *head, last = values
        raise ValueError(f"{', '.join(head)} and {last} must be finite, got "
                         + ", ".join(f"{name} = {v}" for name, v in values.items()))


def _require_nonnegative(alpha) -> None:
    if not np.all(np.asarray(alpha) >= 0.0):
        raise ValueError(f"alpha must be >= 0, got {alpha}")


def parity_block_levels(h: np.ndarray) -> tuple:
    """Sorted (even, odd) parity-block levels of one H(0) or a stack; one eigvalsh per block."""
    _, _, blocks = _spin_basis(h.shape[-1].bit_length() - 1)
    return tuple(np.linalg.eigvalsh(h[..., rows[:, None], rows]) for rows in blocks)


def free_fermion_levels(n_sites: int, alpha, B) -> tuple:
    """Sorted levels of the even and the odd parity block of H(0), as (even, odd).

    Jordan-Wigner maps each block onto free fermions on a ring of N
    momenta: the even block on the Neveu-Schwarz grid k = (2m+1)pi/N, the
    odd block on the Ramond grid k = 2m pi/N (Lieb, Schultz & Mattis, Ann.
    Phys. 16, 407, 1961).  Every mode has Lambda_k = hypot(cos k - B,
    alpha sin k): it adds -Lambda_k to the base energy and costs 2 Lambda_k
    to flip from its lowest state.  A mode at k = 0 or pi is unpaired, and
    its lowest state is occupied when cos k < B, which flips the parity of
    the base state.  A block's levels are the 2^(N-1) flip sets that give
    the block its parity.

    alpha and B broadcast against each other; each block comes back with
    shape broadcast(alpha, B).shape + (2^(N-1),), sorted along the last axis.
    A non-finite alpha or B, then a negative alpha, is a ValueError, as in
    build_hamiltonian.
    """
    _require_finite(alpha=alpha, B=B)
    _require_nonnegative(alpha)
    _, bits, blocks = _spin_basis(n_sites)
    alpha, B = (np.asarray(x, dtype=float)[..., None] for x in (alpha, B))
    # the flip sets of either parity are the site bits of that block's basis states
    flips = [bits[rows].T.astype(float) for rows in blocks]
    levels = []
    for parity in (0, 1):
        j = 2 * np.arange(n_sites) + 1 - parity  # k = j pi / N
        edge = j % n_sites == 0  # k = 0 or pi, where cos k is exactly +/-1 and sin k is 0
        c = np.where(edge, 1.0 - 2.0 * (j // n_sites), np.cos(j * math.pi / n_sites))
        s = np.where(edge, 0.0, np.sin(j * math.pi / n_sites))
        lam = np.hypot(c - B, alpha * s)
        # the flip sets must be odd where the base parity differs from the block's
        odd = (np.count_nonzero(edge & (c < B), axis=-1) + parity) % 2 == 1
        e = np.where(odd[..., None], 2.0 * lam @ flips[1], 2.0 * lam @ flips[0])
        levels.append(np.sort(e - lam.sum(axis=-1, keepdims=True), axis=-1))
    return tuple(levels)


def build_hamiltonian(n_sites: int, alpha, B, phi: float = 0.0) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian of the rotated periodic chain; Hermitian by construction.

    Site j is bit n-1-j of the basis index, with |0> the sz = +1 state.  A
    bond term flips both of its bits; sy|b> = i(1 - 2b)|1-b> supplies the
    sign of the yy and xy amplitudes from the spins s = 1 - 2b of the ket:
    one pass per bond adds wx - wy s s' - i wxy (s + s') to the output.
    alpha and B broadcast: the result has shape broadcast(alpha, B).shape +
    (2^N, 2^N), each matrix the bits of its own scalar build, phi one scalar.
    It is float64 exactly when every wxy = (alpha/2) sin 2phi is 0.0, at
    phi = 0 or alpha = 0, and complex128 otherwise (sin 2pi is not 0.0).
    """
    place, bits, _ = _spin_basis(n_sites)
    a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float)[..., None] for x in (alpha, B)))
    _require_nonnegative(alpha)
    _require_finite(alpha=alpha, B=B)
    c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    wx, wy, wxy = 0.5 * (1.0 + a * c2), 0.5 * (1.0 - a * c2), 0.5 * a * s2
    cross = bool(np.any(wxy != 0.0))
    idx = np.arange(2**n_sites)
    spin = 1 - 2 * bits
    h = np.zeros(a.shape[:-1] + (idx.size, idx.size), dtype=complex if cross else float)
    for j in range(n_sites):
        jj = (j + 1) % n_sites
        amp = wx - wy * spin[:, j] * spin[:, jj]
        if cross:
            amp = amp - 1j * wxy * (spin[:, j] + spin[:, jj])
        # += because the two bonds of the N = 2 ring share one flip mask
        h[..., idx ^ (place[j] | place[jj]), idx] += amp
    h[..., idx, idx] = b * spin.sum(axis=1)
    return h


def _check_residual(h: np.ndarray, vec: np.ndarray, energy: float, scale: float) -> None:
    """ArithmeticError unless |h vec - energy vec| <= _RESIDUAL_TOL * scale, scale being |H|."""
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    if residual > _RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"eigensolve residual {residual:g} exceeds {_RESIDUAL_TOL:g} * |H| = "
            f"{_RESIDUAL_TOL * scale:g}"
        )


def ground_state(h: np.ndarray) -> tuple:
    """Lowest eigenpair (energy, vector) of a dense Hermitian matrix, _check_residual at its |H|."""
    w, v = np.linalg.eigh(h)
    energy, vec = float(w[0]), v[:, 0]
    _check_residual(h, vec, energy, float(max(abs(w[0]), abs(w[-1]), 1e-300)))
    return energy, vec


def berry_phase_loop(n_sites: int, alpha: float, B: float, steps: int = 10000) -> LoopResult:
    """Many-body Berry phase of the ground state around phi in [0, pi).

    Matches the analytic chain phase sum modulo 2pi when the ground state
    sits in the even fermion-parity sector (parity +1); odd-sector ground
    states follow the integer momentum grid instead and are reported via
    the parity field rather than silently absorbed.  A degenerate ground
    state invalidates the result.

    H(phi) = U(phi) H(0) U(phi)^dagger, so the ground state at phi_j =
    j pi / steps is U(phi_j) psi_0 and the discrete Wilson loop is a closed
    function of the phi = 0 ground state psi_0 alone.  Every step overlap
    is ov = <psi_0| U(delta) |psi_0> with delta = pi / steps, and the
    closing overlap adds U(-pi) psi_0 = (-i)^N P psi_0, P the parity of
    psi_0.  Hence phase = -(steps arg ov + arg((-i)^N P)) mod 2pi and
    overlaps_min = |ov|; arg ov is multiplied by steps, never ov raised to
    the power steps.  ov is a convex sum of exp(i delta sz / 2) with
    |sz| <= N, so |ov| >= Re ov >= cos(pi N / (2 steps)), at least 0.988 at
    steps >= 100 and N <= MAX_SITES: the loop is always resolved.

    H(0) is sliced into its even- and odd-popcount blocks.  One eigvalsh per
    block picks the ground block (exact ties go to the odd one) and gives
    the gap, the second-lowest level over both blocks minus the lowest: the
    ground state is degenerate when the gap is below 1e-8 max(|E0|, |Emax|).
    ground_state then solves the ground block once.  H(0) is real, so its
    vector embeds into a float64 psi of the full space, which must pass
    _check_residual against the dense H(0) with that |H|.  The reported
    parity is the sign of that block, +1 even and -1 odd.  A step count
    below 100, or past 1e308 (steps must convert to a float), is a ValueError.
    """
    if steps < 100:
        raise ValueError(f"need steps >= 100 for a resolved loop, got {steps}")
    refuse_over_budget(steps, 1e308, "the loop has", "steps", "use fewer steps")
    h = build_hamiltonian(n_sites, alpha, B)
    _, bits, blocks = _spin_basis(n_sites)
    levels = parity_block_levels(h)
    odd = int(levels[1][0] <= levels[0][0])  # exact ties go to the odd block
    two = np.sort(np.concatenate([w[:2] for w in levels]))
    scale = float(max(abs(two[0]), abs(max(w[-1] for w in levels)), 1e-300))
    rows = blocks[odd]

    energy, vec = ground_state(h[np.ix_(rows, rows)])
    psi = np.zeros(2**n_sites)
    psi[rows] = vec
    _check_residual(h, psi, energy, scale)
    parity = 1.0 - 2.0 * odd  # psi lives in one parity block
    if two[1] - two[0] < _DEGENERACY_TOL * scale:
        return LoopResult(phase=math.nan, overlaps_min=0.0, degenerate=True, parity=parity)
    # U(delta) is exp(i delta sz / 2) on a basis state of sz = N - 2 popcount
    sz = n_sites - 2 * bits[rows].sum(axis=1)
    ov = complex(np.sum(np.abs(vec) ** 2 * np.exp(0.5j * math.pi / steps * sz)))
    closing = (-1j) ** n_sites * (1 - 2 * odd)  # (-i)^N P
    phase = float((-(steps * np.angle(ov) + np.angle(closing))) % (2.0 * math.pi))
    return LoopResult(phase=phase, overlaps_min=abs(ov), degenerate=False, parity=parity)


def mode_berry_numeric(k, B, alpha, steps: int = 10000):
    """Per-mode geometric phase from a discretized loop, with winding tracked.

    The (k, -k) pair block in span{|00>, |11>} is
    H = -2(cos k - B) Z + 2 alpha sin(k) Y; the rotation by phi multiplies
    the |11> amplitude by exp(-2 i phi).  In that explicitly smooth gauge
    every overlap of the loop, the closing one included, is
    |v0|^2 + |v1|^2 exp(-2 i pi/steps), so the steps phase increments are
    summed in closed form, without reduction: a full winding reports 2pi
    rather than 0.  Converges to pi*(1 - cos theta_k) as steps grow,
    second order in 1/steps.

    k, B and alpha broadcast against each other: the pair blocks of every
    point are solved in one stacked (..., 2, 2) eigh, which gives each
    point the bits of its own scalar call.  Scalar inputs return a float,
    arrays an array of the broadcast shape; any gapless point raises
    DegeneratePointError naming the first one in C order, and a
    non-finite k, B or alpha, then a negative alpha, a ValueError before
    anything is solved.
    """
    _require_finite(k=k, B=B, alpha=alpha)
    _require_nonnegative(alpha)
    if steps < 100:
        raise ValueError(f"need steps >= 100 for a resolved loop, got {steps}")
    refuse_over_budget(steps, 1e308, "the loop has", "steps", "use fewer steps")
    c, s, _, gapped = gap_kernel(k, B, alpha)
    require_gapped(k, B, alpha, gapped)
    h0 = np.empty(np.broadcast(c, s).shape + (2, 2), dtype=complex)
    h0[..., 0, 0] = -2.0 * c
    h0[..., 1, 0] = 2.0j * s  # eigh reads only the lower triangle (UPLO='L')
    h0[..., 1, 1] = 2.0 * c
    _, v = np.linalg.eigh(h0)
    w = np.abs(v[..., 0]) ** 2
    overlap = w[..., 0] + w[..., 1] * np.exp(-2.0j * math.pi / steps)
    out = -steps * np.angle(overlap)
    return float(out) if np.ndim(out) == 0 else out
