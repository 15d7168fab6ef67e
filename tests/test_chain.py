import copy
import math
import pickle

import numpy as np
import pytest

from xyquench import (
    ChainSpec,
    DegeneratePointError,
    EvolveResult,
    InvariantViolation,
    KinkReport,
    LoopResult,
    PhaseSummary,
    QuenchSchedule,
    RGState,
    RGTrajectory,
    SweepGrid,
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
    with pytest.raises(AttributeError, match="^cannot assign to field 'alpha'$") as caught:
        spec.alpha = 1.0
    assert caught.type is AttributeError


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


@pytest.mark.parametrize("count,shown", [
    (10**400, "over 1e+308"), (3 * 10**2000 + 7, "over 1e+308"), (int(1e308) + 1, "over 1e+308"),
    (int(1e308), "1e+308"), (10**308 + 1, "1e+308"), (12345678901, "1.23456789e+10"),
])
def test_refuse_over_budget_names_an_int_past_the_float_range(count, shown):
    # :g converts an int to a float, which overflows past 1.8e308; such a count is still refused
    with pytest.raises(ValueError) as exc:
        refuse_over_budget(count, 100, "the grid has", "cells", "use fewer samples")
    assert str(exc.value) == (f"the grid has {shown} cells, above the budget of 1e+02; "
                              "use fewer samples")


# -------------------------------------------------------------------- records

# (class, fields, arguments, repr, by value); the reprs are those the dataclasses
# that the records replaced printed, and every record is frozen
_RECORDS = [
    (ChainSpec, ("n_sites", "alpha"), lambda: (4, 1.0),
     "ChainSpec(n_sites=4, alpha=1.0)", True),
    (PhaseSummary, ("gamma_initial", "gamma_critical", "gamma_final"), lambda: (1.0, 2.5, 3.0),
     "PhaseSummary(gamma_initial=1.0, gamma_critical=2.5, gamma_final=3.0)", True),
    (LoopResult, ("phase", "overlaps_min", "degenerate", "parity"),
     lambda: (0.5, 0.99, False, -1.0),
     "LoopResult(phase=0.5, overlaps_min=0.99, degenerate=False, parity=-1.0)", True),
    (QuenchSchedule, ("tau_q", "t_start"), lambda: (2.0, -10.0),
     "QuenchSchedule(tau_q=2.0, t_start=-10.0)", True),
    (KinkReport, ("p_k", "kink_count", "threshold", "adiabatic"),
     lambda: (np.array([0.5, 0.25]), 0.75, 0.1, True),
     "KinkReport(p_k=array([0.5 , 0.25]), kink_count=0.75, threshold=0.1, adiabatic=True)",
     False),
    (EvolveResult, ("probability", "norm_drift", "n_steps", "crossing_covered"),
     lambda: (0.125, 1e-15, 7, True),
     "EvolveResult(probability=0.125, norm_drift=1e-15, n_steps=7, crossing_covered=True)",
     True),
    (RGState, ("alpha", "K"), lambda: (0.1, 1.5), "RGState(alpha=0.1, K=1.5)", True),
    (RGTrajectory, ("l", "alpha", "K", "status"),
     lambda: (np.array([0.0, 0.5]), np.array([0.1, 0.2]), np.array([1.0, 1.1]), "completed"),
     "RGTrajectory(l=array([0. , 0.5]), alpha=array([0.1, 0.2]), K=array([1. , 1.1]), "
     "status='completed')", False),
    (SweepGrid, ("columns", "empty"),
     lambda: ({"a": np.array([1.0, 2.0])}, {"a": np.array([True, False])}),
     "SweepGrid(columns={'a': array([1., 2.])}, empty={'a': array([ True, False])})",
     False),
]


@pytest.mark.parametrize("cls,fields,make,text,by_value", _RECORDS,
                         ids=[row[0].__name__ for row in _RECORDS])
def test_records_keep_the_repr_equality_construction_and_frozenness_of_dataclasses(
        cls, fields, make, text, by_value):
    args = make()
    rec, twin = cls(*args), cls(**dict(zip(fields, make())))
    assert cls.__match_args__ == fields
    assert repr(rec) == repr(twin) == text
    assert [getattr(rec, name) is arg for name, arg in zip(fields, args)] == [True] * len(args)
    assert rec == rec and hash(rec) == hash(rec)
    if by_value:
        assert rec == twin and hash(rec) == hash(twin) == hash(args)
        assert rec != cls(*args[:-1], args[-1] + 1) and rec != args
    else:
        assert rec != twin and hash(rec) == object.__hash__(rec)
    short = args[:-1] if cls is not SweepGrid else ()  # a grid's empty has a default
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: "
                                        f"'{fields[len(short)]}'$"):
        cls(*short)
    with pytest.raises(TypeError, match="got an unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    for name in fields:
        for change, message in ((lambda: setattr(rec, name, 0), "cannot assign to field"),
                                (lambda: delattr(rec, name), "cannot delete field")):
            with pytest.raises(AttributeError, match=f"^{message} '{name}'$") as caught:
                change()
            assert caught.type is AttributeError
        assert getattr(rec, name) is getattr(copy.copy(rec), name)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and repr(back) == text and (back == rec) is by_value
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{fields[0]}'$"):
        setattr(back, fields[0], 0)


@pytest.mark.parametrize("cls,args,error,message", [
    (ChainSpec, (3, 1.0), ValueError, "n_sites must be a positive even integer, got 3"),
    (ChainSpec, (0, -1.0), ValueError, "n_sites must be a positive even integer, got 0"),
    (ChainSpec, (4, -1.0), ValueError, "alpha must be >= 0, got -1.0"),
    (ChainSpec, (4, math.nan), ValueError, "alpha must be >= 0, got nan"),
    (QuenchSchedule, (0.0, 1.0), ValueError, "tau_q must be > 0, got 0.0"),
    (QuenchSchedule, (math.nan, -10.0), ValueError, "tau_q must be > 0, got nan"),
    (QuenchSchedule, (1.0, 0.0), ValueError, "need t_start < 0, got t_start=0.0"),
    (RGState, (-0.1, 0.0), ValueError, "alpha must be >= 0, got -0.1"),
    (RGState, (0.1, 0.0), ValueError, "K must be > 0, got 0.0"),
    (RGState, (0.1, math.nan), ValueError, "K must be > 0, got nan"),
    (SweepGrid, ({"a": np.zeros(2), "b": np.zeros(3)}, {"c": 1}), InvariantViolation,
     "columns of unequal length: {'a': 2, 'b': 3}"),
    (SweepGrid, ({"a": np.zeros(2)}, {"a": np.zeros(2)}), InvariantViolation,
     "empty['a'] is not a bool mask of a column's cells"),
    (SweepGrid, ({"a": np.zeros(2)}, {"b": np.zeros(2, bool)}), InvariantViolation,
     "empty['b'] is not a bool mask of a column's cells"),
    (SweepGrid, ({"a": np.zeros(2)}, {"a": [True, False]}), InvariantViolation,
     "empty['a'] is not a bool mask of a column's cells"),
    (SweepGrid, ({"a": np.zeros(2)}, {"a": np.zeros(3, bool)}), InvariantViolation,
     "empty['a'] is not a bool mask of a column's cells"),
])
def test_records_refuse_what_the_dataclass_checks_refused(cls, args, error, message):
    # the checks run in the order the dataclasses' __post_init__ ran them
    with pytest.raises(error) as caught:
        cls(*args)
    assert caught.type is error and str(caught.value) == message


def test_a_sweep_grid_gets_a_new_empty_map_of_its_own_and_refuses_attributes():
    a, b = SweepGrid({"x": np.zeros(2)}), SweepGrid({"x": np.zeros(2)})
    assert a.empty == {} and a.empty is not b.empty
    a.empty["x"] = np.zeros(2, bool)
    assert b.empty == {} and repr(b) == "SweepGrid(columns={'x': array([0., 0.])}, empty={})"
    with pytest.raises(AttributeError, match="^cannot delete field 'empty'$"):
        del a.empty
    assert a.empty.keys() == {"x"}


@pytest.mark.parametrize("name", ["columns", "empty"])
def test_a_sweep_grid_keeps_the_fields_its_init_checked(name):
    # a rebound field would skip __init__'s length and mask checks
    grid = SweepGrid({"x": np.zeros(2)}, {"x": np.array([True, False])})
    fields = grid.columns, grid.empty
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(grid, name, {"x": np.zeros(3, bool)})
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(grid, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        grid.extra = 1
    assert (grid.columns, grid.empty) == fields and grid.csv_text() == b"x\n\n0\n"


def test_trajectory_states_are_built_once_from_the_columns():
    traj = RGTrajectory(np.array([0.0, 0.5]), np.array([0.1, 0.2]), np.array([1.0, 1.1]), "x")
    states = traj.states
    assert states == (RGState(0.1, 1.0), RGState(0.2, 1.1)) and traj.states is states
    assert [type(s.alpha) for s in states] == [float, float]  # Python floats, not numpy scalars
