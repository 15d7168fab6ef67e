"""Geometric phases of the quenched XY chain and their field derivative.

Each (k, -k) pair is a two-level Bloch vector; a closed rotation of every
spin about z by phi in [0, pi] encloses the solid angle

    Gamma_k = pi * (1 - cos(theta_k)),

and the chain phase is Gamma_g = sum over positive grid momenta.  Under
the linear schedule B(t <= 0) = -t/tau_q the per-mode phase and its field
derivative d(Gamma_k)/dB are closed-form in (k, t/tau_q, alpha); the
derivative diverges on the alpha -> 0 critical line, which is the
criticality probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, bogoliubov_angle, gap_kernel, momentum_grid, require_gapped


@dataclass(frozen=True)
class PhaseSummary:
    """Chain phase at the start of the quench, at criticality, and in the final state."""

    gamma_initial: float
    gamma_critical: float
    gamma_final: float
    excluded_modes: frozenset = field(default_factory=frozenset)


def mode_phase(k, B, alpha):
    """Gamma_k = pi*(1 - cos(theta_k)) at field B, in [0, 2pi]."""
    return np.pi * (1.0 - bogoliubov_angle(k, B, alpha))


def mode_phase_xx(k, t, tau_q):
    """Isotropic (alpha = 0) phase: a sharp 0 -> 2pi step where B crosses cos k.

    For the k -> 0 modes (cos k -> 1) this is the step 2pi * Theta(|t| - tau_q).
    It is mode_phase at alpha = 0, where cos(theta_k) = sign(cos k - B)
    exactly; the edge B = cos k is gapless and raises instead of picking a
    Heaviside convention.
    """
    if not tau_q > 0.0:
        raise ValueError(f"tau_q must be > 0, got {tau_q}")
    if np.any(np.asarray(t) > 0.0):
        raise ValueError("quench times must satisfy t <= 0")
    return mode_phase(k, np.negative(t) / tau_q, 0.0)


def total_phase(spec: ChainSpec, B: float) -> float:
    """Gamma_g: one Gamma_k per (k, -k) pair, summed over the positive grid."""
    k = momentum_grid(spec)
    return float(np.sum(mode_phase(k, B, spec.alpha)))


def critical_phase(spec: ChainSpec) -> float:
    """Chain phase at the critical point of the linear quench (t = -tau_q, B = 1)."""
    return total_phase(spec, 1.0)


def final_phase(spec: ChainSpec, excluded=()) -> float:
    """Chain phase at B = 0 with the given grid momenta left out.

    Kink formation removes the +/-k0 pair from the product state, so its
    term drops from the sum; `excluded` lists positive grid momenta.
    """
    k = momentum_grid(spec)
    gam = mode_phase(k, 0.0, spec.alpha)
    keep = np.ones(k.size, dtype=bool)
    for kx in excluded:
        hit = np.flatnonzero(np.isclose(k, kx, rtol=1e-12, atol=1e-12))
        if hit.size == 0:
            raise ValueError(f"excluded momentum {kx!r} is not on the N={spec.n_sites} grid")
        keep[hit] = False
    return float(np.sum(gam[keep]))


def dphase_db(k, t, tau_q, alpha):
    """d(Gamma_k)/dB = pi alpha^2 sin^2 k / ((cos k + t/tau_q)^2 + alpha^2 sin^2 k)^(3/2).

    Algebraic in t/tau_q, so t is not restricted to the ramp window; the
    only requirement is a gapped denominator.
    """
    if not tau_q > 0.0:
        raise ValueError(f"tau_q must be > 0, got {tau_q}")
    B = np.negative(t) / tau_q
    _, s, lam, gapped = gap_kernel(k, B, alpha)
    require_gapped(k, B, alpha, gapped)
    out = phase_slope(s, lam)
    return float(out) if np.ndim(out) == 0 else out


def phase_slope(s, lam):
    """pi s^2 / Lambda^3, NaN at Lambda = 0; pi (s/Lambda)^2 / Lambda where Lambda^3 underflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cube = lam**3
        return np.where(cube > 0.0, np.pi * s * s / cube, np.pi * (s / lam) ** 2 / lam)


def phase_summary(spec: ChainSpec, b_initial: float, excluded=()) -> PhaseSummary:
    """Initial, critical and final chain phases of one quench run."""
    return PhaseSummary(
        gamma_initial=total_phase(spec, b_initial),
        gamma_critical=critical_phase(spec),
        gamma_final=final_phase(spec, excluded),
        excluded_modes=frozenset(float(k) for k in excluded),
    )


def noncontractibility_scan(field_b: float, alpha_sequence, size_sequence):
    """Gamma_g / M over a ladder of anisotropies and chain sizes, M = N/2.

    Inside the gapless window B in (-1, 1) the scan converges, as
    alpha -> 0 after M -> infinity, to 2pi * (1 - arccos(B)/pi) != 0: the
    phase sequence cannot be contracted to a point.  Returns
    (alpha, n_sites, gamma_g_over_m) rows in the given sequence order.
    """
    if not -1.0 < field_b < 1.0:
        raise ValueError(f"field must lie in (-1, 1) for the scan, got {field_b}")
    alphas = [float(a) for a in alpha_sequence]
    if any(a <= 0.0 for a in alphas):
        raise ValueError("alpha_sequence must be strictly positive")
    rows = []
    for a in alphas:
        for n in size_sequence:
            spec = ChainSpec(n_sites=int(n), alpha=a)
            m = spec.n_sites // 2
            rows.append((a, spec.n_sites, total_phase(spec, field_b) / m))
    return rows
