"""Linear quench schedule, Landau-Zener statistics, and a real-time two-level oracle.

The transverse field is ramped as B(t <= 0) = -t/tau_q, crossing the
critical point B = 1 at t = -tau_q.  Each (k, -k) pair crosses its own
avoided level crossing at B = cos k; the excitation probability of the
slow sweep is p_k ~ exp(-2 pi tau_q k^2), the expected kink number is the
sum of p_k, and a finite chain stays adiabatic only for
tau_q >> N^2 / (2 pi^3).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, momentum_grid

_MAX_STABLE_STEP = 0.1  # dt * max|H| must stay below this


@dataclass(frozen=True)
class QuenchSchedule:
    """Linear ramp window: B(t) = -t/tau_q on t in [t_start, t_end], t_end <= 0."""

    tau_q: float
    t_start: float
    t_end: float = 0.0

    def __post_init__(self):
        if not self.tau_q > 0.0:
            raise ValueError(f"tau_q must be > 0, got {self.tau_q}")
        if not self.t_start < self.t_end <= 0.0:
            raise ValueError(
                f"need t_start < t_end <= 0, got t_start={self.t_start}, t_end={self.t_end}"
            )

    @classmethod
    def from_field(cls, tau_q: float, b_start: float = 5.0) -> "QuenchSchedule":
        """Window starting deep in the polarized regime, B(t_start) = b_start."""
        return cls(tau_q=tau_q, t_start=-b_start * tau_q, t_end=0.0)


@dataclass(frozen=True)
class KinkReport:
    """Per-mode excitation probabilities and the expected kink count."""

    per_mode_p: dict
    kink_count: float
    threshold: float
    adiabatic: bool
    safety_factor: float


@dataclass(frozen=True)
class EvolveResult:
    """Outcome of one real-time pair evolution."""

    probability: float
    norm_drift: float
    n_steps: int
    crossing_covered: bool


def lz_probability(k, tau_q):
    """Landau-Zener excitation probability p_k ~ exp(-2 pi tau_q k^2), in (0, 1]."""
    if np.any(np.asarray(tau_q) < 0.0):
        raise ValueError(f"tau_q must be >= 0, got {tau_q}")
    return np.exp(-2.0 * np.pi * np.asarray(tau_q) * np.square(k))


def adiabatic_threshold(n_sites: int) -> float:
    """Finite-chain adiabaticity scale N^2 / (2 pi^3)."""
    return n_sites**2 / (2.0 * math.pi**3)


def kink_count(spec: ChainSpec, tau_q: float, safety_factor: float = 10.0) -> KinkReport:
    """Expected kink number: p_k summed over all +/-k grid modes.

    The report carries the threshold N^2/(2 pi^3); `adiabatic` is true for
    tau_q > safety_factor * threshold, quantifying the ">>" of the
    adiabatic condition.
    """
    if not safety_factor > 0.0:
        raise ValueError(f"safety_factor must be > 0, got {safety_factor}")
    k_pos = momentum_grid(spec)
    k_all = np.concatenate((-k_pos[::-1], k_pos))
    p_all = lz_probability(k_all, tau_q)
    threshold = adiabatic_threshold(spec.n_sites)
    return KinkReport(
        per_mode_p={float(k): float(p) for k, p in zip(k_all, p_all)},
        kink_count=float(np.sum(p_all)),
        threshold=threshold,
        adiabatic=bool(tau_q > safety_factor * threshold),
        safety_factor=float(safety_factor),
    )


def evolve_mode(k, alpha, schedule: QuenchSchedule, dt=None, full_output=False):
    """Integrate one (k, -k) pair through the ramp; excitation probability at t_end.

    The pair spans {|00>, |11>} with Hamiltonian
    H_k(t) = -2(cos k - B(t)) Z + 2 alpha sin(k) X; the factor 2 is the
    pair splitting (exciting both quasiparticles costs 2 Lambda_k) and is
    what reproduces exp(-2 pi tau_q k^2) for alpha = 1 at small k.
    Stepping uses the exact midpoint two-level exponential, so the norm is
    preserved to rounding.  The state starts in the instantaneous ground
    state at t_start and the result is |<excited(t_end)|psi(t_end)>|^2.
    """
    c0 = math.cos(k)
    s = alpha * math.sin(k)
    b_start = -schedule.t_start / schedule.tau_q
    b_end = -schedule.t_end / schedule.tau_q
    crossing_covered = b_end < c0 < b_start
    if not crossing_covered:
        warnings.warn(
            f"window B in [{b_end:g}, {b_start:g}] does not cover the crossing at "
            f"B = cos k = {c0:g}",
            stacklevel=2,
        )
    elif s == 0.0:
        warnings.warn(
            "no coupling at the crossing (alpha*sin k = 0): the sweep passes through "
            "an exact degeneracy",
            stacklevel=2,
        )

    h_max = 2.0 * math.hypot(abs(c0) + max(b_start, b_end), s)
    if dt is None:
        dt = 0.05 / h_max
    if not dt > 0.0 or dt * h_max >= _MAX_STABLE_STEP:
        raise ValueError(
            f"unstable step size: dt*max|H| = {dt * h_max:g} must stay below {_MAX_STABLE_STEP}"
        )
    span = schedule.t_end - schedule.t_start
    n = int(math.ceil(span / dt))
    dt = span / n

    # Midpoint coefficients: H(t) = cz(t) Z + cx X with cz = -2(cos k - B(t)).
    t_mid = schedule.t_start + (np.arange(n) + 0.5) * dt
    cz = -2.0 * (c0 - np.negative(t_mid) / schedule.tau_q)
    cx = 2.0 * s
    lam = np.hypot(cz, cx)
    ang = lam * dt
    cos_a = np.cos(ang).tolist()
    sin_a = np.sin(ang).tolist()
    safe = np.where(lam == 0.0, 1.0, lam)
    nz = (cz / safe).tolist()
    nx = np.where(lam == 0.0, 0.0, cx / safe).tolist()

    psi0, psi1 = _pair_eigenvector(c0, s, b_start, excited=False)
    drift = 0.0
    for i in range(n):
        ca, sa = cos_a[i], sin_a[i]
        a0, a1 = psi0, psi1
        psi0 = ca * a0 - 1j * sa * (nz[i] * a0 + nx[i] * a1)
        psi1 = ca * a1 - 1j * sa * (nx[i] * a0 - nz[i] * a1)
        nrm = abs(psi0) ** 2 + abs(psi1) ** 2
        if abs(nrm - 1.0) > drift:
            drift = abs(nrm - 1.0)

    e0, e1 = _pair_eigenvector(c0, s, b_end, excited=True)
    prob = abs(e0.conjugate() * psi0 + e1.conjugate() * psi1) ** 2
    if full_output:
        return EvolveResult(
            probability=float(prob),
            norm_drift=float(drift),
            n_steps=n,
            crossing_covered=crossing_covered,
        )
    return float(prob)


def _pair_eigenvector(c0, s, b, excited):
    """Normalized eigenvector of cz Z + cx X with cz = -2(c0 - b), cx = 2s."""
    cz = -2.0 * (c0 - b)
    cx = 2.0 * s
    lam = math.hypot(cz, cx)
    if lam == 0.0:
        raise ValueError("degenerate endpoint: instantaneous eigenbasis undefined")
    target = lam if excited else -lam
    # (cz - target) v0 + cx v1 = 0; pick the numerically stable branch.
    if abs(cz - target) >= abs(cz + target):
        v0, v1 = cx, target - cz
    else:
        v0, v1 = target + cz, cx
    nrm = math.hypot(v0, v1)
    return complex(v0 / nrm), complex(v1 / nrm)
