"""Geometric phases of the quenched XY chain and their field derivative.

Each (k, -k) pair is a two-level Bloch vector; a closed rotation of every
spin about z by phi in [0, pi] encloses the solid angle

    Gamma_k = pi * (1 - cos(theta_k)),

and the chain phase is Gamma_g = sum over positive grid momenta.  The
field derivative d(Gamma_k)/dB = pi alpha^2 sin^2 k / Lambda_k^3 is
phase_slope of the gap kernel's (s, Lambda); sweeps._deriv_cells applies
it on the fig2 grid.  It diverges on the alpha -> 0 critical line, which
is the criticality probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, bogoliubov_angle, momentum_grid


@dataclass(frozen=True)
class PhaseSummary:
    """Chain phase at the start of the quench, at criticality, and in the final state."""

    gamma_initial: float
    gamma_critical: float
    gamma_final: float


def mode_phase(k, B, alpha):
    """Gamma_k = pi*(1 - cos(theta_k)) at field B, in [0, 2pi]."""
    return np.pi * (1.0 - bogoliubov_angle(k, B, alpha))


def total_phase(spec: ChainSpec, B: float) -> float:
    """Gamma_g: one Gamma_k per (k, -k) pair, summed over the positive grid."""
    k = momentum_grid(spec)
    return float(np.sum(mode_phase(k, B, spec.alpha)))


def critical_phase(spec: ChainSpec) -> float:
    """Chain phase at the critical point of the linear quench (t = -tau_q, B = 1)."""
    return total_phase(spec, 1.0)


def final_phase(spec: ChainSpec, drop_k0: bool = False) -> float:
    """Chain phase at B = 0, without the minimum-gap pair +/-k0 if drop_k0.

    Kink formation removes the +/-k0 pair, k0 = pi/N the first grid
    momentum, from the product state, so its term drops from the sum.
    """
    gam = mode_phase(momentum_grid(spec), 0.0, spec.alpha)
    return float(np.sum(gam[1:] if drop_k0 else gam))


def phase_slope(s, lam):
    """pi s^2/Lambda^3, NaN at Lambda = 0; pi (s/Lambda)^2/Lambda where Lambda^3 is 0 or inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a numpy float64 scalar takes a different power path than an
        # array, which can differ in the last bit; always use the array one
        cube = np.asarray(lam) ** 3
        finite = (0.0 < cube) & (cube < np.inf)
        return np.where(finite, np.pi * s * s / cube, np.pi * (s / lam) ** 2 / lam)


def phase_summary(spec: ChainSpec, b_initial: float, drop_k0: bool = False) -> PhaseSummary:
    """Initial, critical and final chain phases of one quench run; drop_k0 as in final_phase."""
    return PhaseSummary(
        gamma_initial=total_phase(spec, b_initial),
        gamma_critical=critical_phase(spec),
        gamma_final=final_phase(spec, drop_k0),
    )


def noncontractibility_scan(field_b: float, alpha_sequence, size_sequence) -> np.ndarray:
    """Gamma_g / M over a ladder of anisotropies and chain sizes, M = N/2.

    Inside the gapless window B in (-1, 1) the scan converges, as
    alpha -> 0 after M -> infinity, to 2pi * (1 - arccos(B)/pi) != 0: the
    phase sequence cannot be contracted to a point.  Returns the (alpha, size)
    array, one mode_phase broadcast per size; NaN and alpha <= 0 are refused.
    """
    if not -1.0 < field_b < 1.0:
        raise ValueError(f"field must lie in (-1, 1) for the scan, got {field_b}")
    alphas = np.asarray(alpha_sequence, dtype=float)
    if not np.all(alphas > 0.0):
        raise ValueError("alpha_sequence must be strictly positive")
    out = np.empty((alphas.size, len(size_sequence)))
    for j, n in enumerate(size_sequence):
        k = momentum_grid(ChainSpec(n_sites=int(n), alpha=1.0))
        out[:, j] = np.sum(mode_phase(k, field_b, alphas[:, None]), axis=-1) / k.size
    return out
