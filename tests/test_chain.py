import dataclasses
import math

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    DegeneratePointError,
    bogoliubov_angle,
    momentum_grid,
)
from xyquench.chain import gap_kernel, refuse_over_budget


def dispersion(k, B, alpha):
    """Quasiparticle gap Lambda_k, the third entry of the gap kernel."""
    return gap_kernel(k, B, alpha)[2]


def test_grid_n4():
    k = momentum_grid(ChainSpec(4, 1.0))
    assert np.allclose(k, [math.pi / 4, 3 * math.pi / 4])


def test_grid_n2():
    k = momentum_grid(ChainSpec(2, 1.0))
    assert np.allclose(k, [math.pi / 2])


def test_grid_minimum_mode_is_pi_over_n():
    k = momentum_grid(ChainSpec(100, 0.5))
    assert k[0] == pytest.approx(math.pi / 100, rel=1e-15)
    assert k[0] == pytest.approx(0.031416, abs=1e-6)


def test_grid_size_and_ordering():
    for n in (2, 4, 6, 50, 128):
        k = momentum_grid(ChainSpec(n, 0.3))
        assert k.size == n // 2
        assert np.all(np.diff(k) > 0)
        assert 0.0 < k[0] and k[-1] < math.pi
        assert k[0] == pytest.approx(math.pi / n, rel=1e-15)


@pytest.mark.parametrize("n", [0, -2, 3, 7])
def test_spec_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        ChainSpec(n, 1.0)


def test_spec_rejects_negative_alpha():
    with pytest.raises(ValueError):
        ChainSpec(4, -0.1)


def test_spec_accepts_the_xx_chain_and_is_frozen():
    spec = ChainSpec(4, 0.0)  # alpha = 0, the XX chain, is the edge of the allowed range
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.alpha = 1.0


def test_dispersion_examples():
    assert dispersion(math.pi / 2, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert dispersion(0.0, 2.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    # sqrt(0.25 + 0.25), direct evaluation
    assert dispersion(math.pi / 2, 0.5, 0.5) == pytest.approx(0.7071067811865475, rel=1e-15)


def test_dispersion_zero_only_at_degenerate_point():
    b_exact = math.cos(math.pi / 3)
    assert dispersion(math.pi / 3, b_exact, 0.0) == 0.0
    assert dispersion(math.pi / 3, b_exact, 1e-12) > 0.0


def test_bogoliubov_examples():
    assert bogoliubov_angle(math.pi / 3, math.cos(math.pi / 3), 0.7) == pytest.approx(0.0, abs=1e-15)
    assert bogoliubov_angle(0.0, 2.0, 0.0) == pytest.approx(-1.0, rel=1e-15)
    assert bogoliubov_angle(math.pi / 2, 0.5, 0.5) == pytest.approx(-0.7071067811865475, rel=1e-15)


def test_bogoliubov_raises_at_gapless_point():
    with pytest.raises(DegeneratePointError) as err:
        bogoliubov_angle(math.pi / 3, math.cos(math.pi / 3), 0.0)
    assert f"{math.pi / 3!r}" in str(err.value)


def test_bogoliubov_array_input_reports_offending_k():
    k = np.array([0.1, math.pi / 3, 0.9])
    with pytest.raises(DegeneratePointError) as err:
        bogoliubov_angle(k, math.cos(math.pi / 3), 0.0)
    assert err.value.k == pytest.approx(math.pi / 3, rel=1e-15)


def test_evenness_in_k():
    rng = np.random.default_rng(11)
    k = rng.uniform(0.0, math.pi, 300)
    B = rng.uniform(-3.0, 3.0, 300)
    a = rng.uniform(0.0, 2.0, 300)
    assert np.array_equal(dispersion(k, B, a), dispersion(-k, B, a))
    assert np.array_equal(bogoliubov_angle(k, B, a), bogoliubov_angle(-k, B, a))


def test_gap_positivity_random():
    rng = np.random.default_rng(12)
    k = rng.uniform(0.0, math.pi, 1000)
    B = rng.uniform(-3.0, 3.0, 1000)
    a = rng.uniform(0.0, 2.0, 1000)
    assert np.all(dispersion(k, B, a) >= 0.0)


def test_bogoliubov_bounded_random():
    rng = np.random.default_rng(13)
    k = rng.uniform(0.0, math.pi, 10000)
    B = rng.uniform(-3.0, 3.0, 10000)
    a = rng.uniform(0.0, 2.0, 10000)
    c = bogoliubov_angle(k, B, a)
    assert np.all(np.abs(c) <= 1.0)


def test_mode_invariant_consistency():
    # cos(theta_k) * Lambda_k = cos k - B at gapped points
    for k, B, a in ((math.pi / 2, 0.5, 0.5), (0.3, 0.9, 1.0), (2.5, -1.2, 0.1)):
        c = bogoliubov_angle(k, B, a)
        lam = dispersion(k, B, a)
        assert lam >= 0.0 and abs(c) <= 1.0
        assert c * lam == pytest.approx(math.cos(k) - B, rel=1e-14)


def test_refuse_over_budget_passes_the_budget_and_refuses_past_it():
    refuse_over_budget(100, 100, "the grid has", "cells", "use fewer samples")
    with pytest.raises(ValueError) as exc:
        refuse_over_budget(101, 100, "the grid has", "cells", "use fewer samples")
    assert str(exc.value) == "the grid has 101 cells, above the budget of 1e+02; use fewer samples"
    # NaN compares false with everything, so a bare count > budget would let it through
    for count in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"the run needs {count} steps, above the budget"):
            refuse_over_budget(count, 10**8, "the run needs", "steps", "use fewer")
