"""Renormalization-group flow of the bosonized chain and the static phase map.

The sine-Gordon coupling alpha and Luttinger parameter K run as

    d(alpha)/dl = (2 - 1/K) alpha,      dK/dl = alpha^2 / 4,

so K never decreases and alpha = 0 is a line of fixed points.  For
K > 1/2 the coupling is relevant and opens the gap
M = cutoff * (alpha/2)^(1/(2 - 1/K)); a quench field comparable to M
restores the Luttinger liquid and a larger one polarizes the chain.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import refuse_over_budget

COMPLETED = "completed"
STRONG_COUPLING = "strong_coupling"
_MAX_STEPS = 10**6  # RK4 steps per trajectory, 89 MB at peak (tracemalloc); refused before the loop


class PhaseLabel(enum.Enum):
    LUTTINGER_LIQUID = "luttinger_liquid"
    STAGGERED_ORDER = "staggered_order"
    FERROMAGNETIC = "ferromagnetic"


@dataclass(frozen=True)
class RGState:
    """Running couplings (alpha, K); every flow starts at scale l = 0."""

    alpha: float
    K: float

    def __post_init__(self):
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.K > 0.0:
            raise ValueError(f"K must be > 0, got {self.K}")


@dataclass(frozen=True, eq=False)
class RGTrajectory:
    """A flow as float64 columns, one row per RK4 step, the initial state first."""

    l: np.ndarray
    alpha: np.ndarray
    K: np.ndarray
    status: str

    @functools.cached_property
    def states(self) -> tuple:
        """The (alpha, K) rows as RGStates, built on first access."""
        return tuple(RGState(alpha=a, K=k) for a, k in zip(self.alpha.tolist(), self.K.tolist()))


def _rhs(alpha: float, K: float) -> tuple[float, float]:
    return (2.0 - 1.0 / K) * alpha, alpha * alpha / 4.0


def step_estimate(l_max: float, dl: float) -> float:
    """The RK4 steps l_max / dl of one flow from l = 0; ValueError over the budget."""
    if not dl > 0.0:
        raise ValueError(f"dl must be > 0, got {dl}")
    if not l_max > 0.0:
        raise ValueError(f"l_max must be > 0, got {l_max}")
    estimate = l_max / dl
    refuse_over_budget(estimate, _MAX_STEPS, "the flow needs about", "RK4 steps",
                       "use a larger dl or a smaller l_max")
    return estimate


def rg_flow(
    initial: RGState, l_max: float, dl: float = 1e-3, alpha_cap: float = 1e3
) -> RGTrajectory:
    """Integrate the flow with fixed-step classical RK4 from l = 0, which no rule reads, to l_max.

    The fixed step keeps trajectories reproducible bit for bit.  If alpha
    exceeds alpha_cap the run stops early with status "strong_coupling"
    (the perturbative equations have left their domain); otherwise the
    status is "completed".  A step is a pure function of (alpha, K) at
    this h, so once a step returns its own state bit for bit (the sign of
    alpha included, as -0.0 == 0.0), every later step returns it too: the
    remaining rows repeat that state without being integrated.  On the
    alpha = 0 line this happens at step 1 or 2.
    """
    n = max(1, int(round(step_estimate(l_max, dl))))
    h = l_max / n

    a, k = initial.alpha, initial.K
    alphas, ks = [a], [k]
    status = COMPLETED
    # _rhs written out four times, with 0.5 * h and h / 6.0 hoisted: Python
    # evaluates 0.5 * h * da1 as (0.5 * h) * da1, so the bits stay those of _rhs
    half, sixth = 0.5 * h, h / 6.0
    for i in range(n, 0, -1):  # i steps left
        da1, dk1 = (2.0 - 1.0 / k) * a, a * a / 4.0
        a2, k2 = a + half * da1, k + half * dk1
        da2, dk2 = (2.0 - 1.0 / k2) * a2, a2 * a2 / 4.0
        a3, k3 = a + half * da2, k + half * dk2
        da3, dk3 = (2.0 - 1.0 / k3) * a3, a3 * a3 / 4.0
        a4, k4 = a + h * da3, k + h * dk3
        da4, dk4 = (2.0 - 1.0 / k4) * a4, a4 * a4 / 4.0
        a_next = a + sixth * (da1 + 2.0 * da2 + 2.0 * da3 + da4)
        k_next = k + sixth * (dk1 + 2.0 * dk2 + 2.0 * dk3 + dk4)
        # RGState's alpha check, without building one per step; K never decreases
        if not a_next >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {a_next}")
        alphas.append(a_next)
        ks.append(k_next)
        if a_next > alpha_cap:
            status = STRONG_COUPLING
            break
        if a_next == a and k_next == k and math.copysign(1.0, a_next) == math.copysign(1.0, a):
            alphas += [a_next] * (i - 1)  # a fixed point: the other steps repeat it
            ks += [k_next] * (i - 1)
            break
        a, k = a_next, k_next
    l = np.arange(len(alphas)) * h
    return RGTrajectory(l=l, alpha=np.array(alphas), K=np.array(ks), status=status)


def _gap_exponent(alpha: float, K: float, cutoff: float) -> float:
    """The exponent 1/(2 - 1/K) of the gap, once its arguments are checked."""
    if not K > 0.5:
        raise ValueError(f"mass gap needs the relevant regime K > 1/2, got K={K}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    return 1.0 / (2.0 - 1.0 / K)


def mass_gap(alpha: float, K: float, cutoff: float) -> float:
    """Sine-Gordon gap M = cutoff * (alpha/2)^(1/(2 - 1/K)), defined for K > 1/2."""
    exponent = _gap_exponent(alpha, K, cutoff)
    try:
        return cutoff * (alpha / 2.0) ** exponent
    except OverflowError:  # K just above 1/2 with alpha > 2: a gap above any field
        return np.inf


def classify_phase(
    K: float, alpha: float, B: float, cutoff: float, band: float = 0.5
) -> PhaseLabel | None:
    """Static phase of the chain under a quench-induced field B; None at alpha = 0 with K > 1/2.

    K <= 1/2: the coupling is irrelevant; the Luttinger liquid survives
    until the field exceeds the single-particle band edge B = 1, after
    which the chain polarizes.  K > 1/2: the gapped staggered phase holds
    for B well below the gap M, the field wins for B well above it, and a
    field of the order of M (relative band `band`) restores the Luttinger
    liquid.  The comparison is ln B against ln((1 +- band) M): ln M is
    finite for every K > 1/2, where M itself under- or overflows near
    K = 1/2, so B = 0 is always staggered there.  On the alpha = 0 fixed
    line no gap forms: band and B are checked, cutoff is not read.
    """
    if not 0.0 < band < 1.0:
        raise ValueError(f"band must lie in (0, 1), got {band}")
    if not B >= 0.0:
        raise ValueError(f"quench field must be >= 0, got {B}")
    if K <= 0.5:
        return PhaseLabel.FERROMAGNETIC if B > 1.0 else PhaseLabel.LUTTINGER_LIQUID
    if alpha == 0.0:
        return None
    exponent = _gap_exponent(alpha, K, cutoff)
    log_m = math.log(cutoff) + (math.log(alpha) - math.log(2.0)) * exponent
    log_b = math.log(B) if B > 0.0 else -math.inf
    if log_b > math.log1p(band) + log_m:
        return PhaseLabel.FERROMAGNETIC
    if log_b < math.log1p(-band) + log_m:
        return PhaseLabel.STAGGERED_ORDER
    return PhaseLabel.LUTTINGER_LIQUID
