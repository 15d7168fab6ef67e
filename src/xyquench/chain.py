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


class Record:
    """Base of the package's small records: fields, repr, equality and a frozen instance.

    A subclass's fields are the parameters of its __init__, which checks
    its arguments and stores them with self.__dict__.update, in field
    order.  __init_subclass__ reads the fields once into __match_args__,
    so a record class generates no code when it is defined.  The repr is
    Name(field=value!r, ...), equality and hash go by the tuple of field
    values (by identity with eq=False), and setting or deleting any
    attribute raises AttributeError naming it.
    """

    def __init_subclass__(cls, eq: bool = True):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ChainSpec(Record):
    """Chain geometry and couplings: N spins and anisotropy alpha, a frozen value.

    ValueError for an n_sites that is not an even number >= 2, then for an
    alpha that is not >= 0 (NaN too).
    """

    def __init__(self, n_sites: int, alpha: float):
        if n_sites < 2 or n_sites % 2 != 0:
            raise ValueError(f"n_sites must be a positive even integer, got {n_sites}")
        if not alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.__dict__.update(n_sites=n_sites, alpha=alpha)


def refuse_over_budget(count, budget, subject: str, unit: str, remedy: str) -> None:
    """ValueError naming count and budget unless count <= budget; NaN and inf are refused."""
    if not count <= budget:
        # :g turns an int into a float, which overflows past 1.8e308
        shown = "over 1e+308" if isinstance(count, int) and count > 1e308 else f"{count:.10g}"
        raise ValueError(
            f"{subject} {shown} {unit}, above the budget of {budget:.0e}; {remedy}")


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


def bogoliubov_angle(k, B, alpha):
    """cos(theta_k) = (cos k - B)/Lambda_k, in [-1, 1].

    Raises DegeneratePointError at gapless points; callers must mask or
    perturb rather than receive a sentinel.
    """
    c, _, lam, gapped = gap_kernel(k, B, alpha)
    require_gapped(k, B, alpha, gapped)
    return c / lam
