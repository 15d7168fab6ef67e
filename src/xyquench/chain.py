"""Anisotropic XY chain in a transverse field: momentum grid, dispersion, Bogoliubov angle.

Model (energies in units of the exchange coupling):

    H = sum_j [ (1+alpha)/2 sx_j sx_{j+1} + (1-alpha)/2 sy_j sy_{j+1} + B sz_j ]

with periodic boundaries.  In the even fermion-parity sector the
Jordan-Wigner pseudomomenta take the half-integer values
k = +/-(2m-1)*pi/N, m = 1..N/2, and each (k, -k) pair carries the gap
Lambda_k = sqrt((cos k - B)^2 + alpha^2 sin^2 k) and mixing angle
cos(theta_k) = (cos k - B)/Lambda_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegeneratePointError(ValueError):
    """Gap closes (cos k = B with alpha*sin k = 0); the Bogoliubov angle is 0/0 there."""

    def __init__(self, k, B, alpha):
        self.k = float(k)
        self.B = float(B)
        self.alpha = float(alpha)
        super().__init__(
            f"gapless point at k={self.k!r} (B={self.B!r}, alpha={self.alpha!r}): "
            "cos(theta_k) is undefined"
        )


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry and couplings: N spins and anisotropy alpha."""

    n_sites: int
    alpha: float

    def __post_init__(self):
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be a positive even integer, got {self.n_sites}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def momentum_grid(spec: ChainSpec) -> np.ndarray:
    """Positive half-integer pseudomomenta (2m-1)*pi/N, m = 1..N/2, strictly increasing.

    The smallest entry k0 = pi/N is the minimum-gap mode; the negative
    partners -k are implied by symmetry.
    """
    m = np.arange(1, spec.n_sites // 2 + 1)
    return (2 * m - 1) * np.pi / spec.n_sites


def gap_kernel(k, B, alpha):
    """(cos k - B, alpha sin k, Lambda_k, gapped) with gapped = Lambda_k != 0.

    Every closed form divides by Lambda_k; callers either mask with
    `gapped` or pass it to require_gapped.
    """
    c = np.cos(k) - B
    s = alpha * np.sin(k)
    lam = np.hypot(c, s)
    return c, s, lam, lam != 0.0


def require_gapped(k, B, alpha, gapped) -> None:
    """Raise DegeneratePointError naming the first point where `gapped` is false."""
    if not np.all(gapped):
        k_b, B_b, a_b, ok_b = map(np.ravel, np.broadcast_arrays(k, B, alpha, gapped))
        i = int(np.flatnonzero(~ok_b)[0])
        raise DegeneratePointError(k_b[i], B_b[i], a_b[i])


def dispersion(k, B, alpha):
    """Quasiparticle gap Lambda_k = sqrt((cos k - B)^2 + alpha^2 sin^2 k); >= 0 always."""
    return gap_kernel(k, B, alpha)[2]


def bogoliubov_angle(k, B, alpha):
    """cos(theta_k) = (cos k - B)/Lambda_k, in [-1, 1].

    Raises DegeneratePointError at gapless points; callers must mask or
    perturb rather than receive a sentinel.
    """
    c, _, lam, gapped = gap_kernel(k, B, alpha)
    require_gapped(k, B, alpha, gapped)
    return c / lam
