import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xyquench import (ChainSpec, LoopResult, QuenchSchedule, SweepGrid, evolve_mode, mode_phase,
                      total_phase)
from xyquench import cli, edoracle, quench, rgflow, sweeps
from xyquench.cli import COMMANDS, main
from xyquench.sweeps import (
    InvariantViolation,
    fig1_grid,
    fig2_grids,
    noncontract_grid,
    oracle_report,
    quench_grids,
    rg_grid,
    validate_bounds,
)

TWO_PI = 2.0 * math.pi
_build_hamiltonian = sweeps.build_hamiltonian


def _rows(grid) -> list:
    """Row tuples of a grid, None where a cell is empty."""
    cols = []
    for name, col in grid.columns.items():
        empty = grid.empty.get(name, np.zeros(len(col), dtype=bool)).tolist()
        cols.append([None if e else v for v, e in zip(col.tolist(), empty)])
    return list(zip(*cols))


# -------------------------------------------------------------------- CSV core

def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


csv_cells = st.tuples(
    st.one_of(st.floats(allow_nan=False),
              st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308])),
    st.booleans(),  # mask the float cell
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
)


@given(cells=st.lists(csv_cells, max_size=30))
@example(cells=[(-0.0, False, 0, True), (5e-324, False, -1, False),
                (1.7e308, False, 2**63 - 1, True), (-1.7e308, False, -(2**63), False),
                (1.0, True, 1, True)])
def test_csv_text_parses_back_exactly(cells):
    floats, masked, ints, flags = zip(*cells) if cells else ((), (), (), ())
    grid = SweepGrid({
        "x": np.array(floats, dtype=float),
        "n": np.array(ints, dtype=np.int64),
        "flag": np.array(flags, dtype=bool),
    }, {"x": np.array(masked, dtype=bool)})
    lines = grid.csv_text().split("\n")
    assert lines[0] == "x,n,flag" and lines[-1] == ""
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == len(cells) == len(grid)
    for (x, m, n, flag), (x_txt, n_txt, flag_txt) in zip(cells, rows):
        if m:
            assert x_txt == ""
        else:
            assert _bits(float(x_txt)) == _bits(x)
        assert int(n_txt) == n
        assert flag_txt == ("true" if flag else "false")


def _format_cell(v) -> str:
    """The per-cell formatter the columnar writer replaced, kept as its reference."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _reference_csv(grid) -> str:
    lines = [",".join(grid.columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in _rows(grid)]
    return "\n".join(lines) + "\n"


# builder -> (its grids at a small size, the cell kinds they must exercise)
_SMALL_GRIDS = {
    # the last t lands exactly on B = cos k: an empty alpha = 0 cell
    "fig1": (lambda: [fig1_grid(k=0.8, alphas=[0.0, 0.5], tau_qs=[1.0, 2.0], tmin=-2.0,
                                tmax=-math.cos(0.8), samples=5)], {None, float}),
    "fig2": (lambda: list(fig2_grids(k=0.0, tmin=-2.0, samples=5, alpha_samples=4)), {None, float}),
    # p_evolved is empty past the two smallest pairs; adiabatic is false then true
    "quench": (lambda: list(quench_grids(n_sites=10, tau_qs=(1.0, 3000.0), evolve=True,
                                         evolve_modes=2)), {None, float, bool}),
    "rg": (lambda: [rg_grid([(0.0, 0.3), (0.1, 1.0)], l_max=1.0, dl=0.1)], {int, float, str}),
    "noncontract": (lambda: [noncontract_grid(field=0.0, alphas=(0.5, 2), sizes=(10, 20))],
                    {int, float}),
    # n_sites, k and phi do not apply to every family
    "oracle": (lambda: [oracle_report(seed=3, steps=300, grid_size=2, spectrum_cases=2)[0]],
               {None, int, float, str}),
    # -0.0 and 0.0 compare equal but print as -0 and 0; repeats and an empty 0.0 besides
    "signed_zero": (lambda: [SweepGrid(
        {"x": np.array([0.0, -0.0, 0.1, -0.0, 0.0, 0.1, np.nan, -np.inf])},
        {"x": np.array([False, False, False, False, True, False, False, False])})],
        {None, float}),
    # masks given but all false: each column is formatted as it stands, a strided one too
    "no_empty_cell": (lambda: [SweepGrid(
        {"x": np.array([0.5, 2.0, -0.0, 2.0, 0.5, 2.0, 1e-300, 2.0, 0.0, 2.0, np.inf, 2.0])[::2],
         "n": np.array([3, 3, -1, 7, 3, 0]), "flag": np.array([True, True, False] * 2),
         "s": np.array(["ok", "ok", "fail", "ok", "degenerate", "ok"])},
        {name: np.zeros(6, dtype=bool) for name in ("x", "n", "flag", "s")})],
        {float, int, bool, str}),
    # empty cells hold values no shown cell has; they are formatted, then blanked, so the
    # three empty floats lift 510 shown ones to the 512 distinct of the vectorized path
    "empty_cells_hold_other_values": (lambda: [SweepGrid(
        {"x": np.concatenate([np.arange(1, 511) / 7.0, [np.nan, -np.inf, 2e20]]),
         "n": np.concatenate([np.arange(510) % 4, [10**12, 7, -5]]),
         "s": np.array(["ok", "fail"] * 255 + ["a label longer than any shown", "ok", "x"])},
        {"x": np.arange(513) >= 510, "n": np.isin(np.arange(513), (510, 512)),
         "s": np.isin(np.arange(513), (510, 512))})],
        {None, float, int, str}),
    "all_empty": (lambda: [SweepGrid(
        {"x": np.array([0.5, -0.0, np.nan]), "n": np.array([1, 2, 3]),
         "s": np.array(["ok", "fail", "ok"])},
        {name: np.ones(3, dtype=bool) for name in ("x", "n", "s")})],
        {None}),
}


@pytest.mark.parametrize("builder", sorted(_SMALL_GRIDS))
def test_csv_text_matches_per_cell_reference(builder):
    make, kinds = _SMALL_GRIDS[builder]
    grids = make()
    seen = {None if v is None else type(v) for g in grids for row in _rows(g) for v in row}
    assert kinds <= seen
    for grid in grids:
        assert grid.csv_text() == _reference_csv(grid)


@pytest.mark.parametrize("cmd", ["fig2", "rg"])
def test_csv_text_matches_per_cell_reference_at_default_size(cmd):
    # thousands of distinct floats per column: the vectorized formatter's path.  Line by
    # line, with the first differing lines as the message: pytest's diff of two
    # different multi-MB strings runs for minutes
    for grid in _required_only(cmd):
        got, want = grid.csv_text().split("\n"), _reference_csv(grid).split("\n")
        differ = [(g, w) for g, w in zip(got, want) if g != w]
        assert (len(got), differ[:3]) == (len(want), [])


# one alphabet per label kind, small enough that a list of them repeats, in runs and apart
_LABELS = {"int": (st.sampled_from([0, -3, 7, 2**63 - 1]), np.int64),
           "bool": (st.booleans(), bool),
           "str": (st.sampled_from(["ok", "fail", "odd_sector", ""]), str)}


@pytest.mark.parametrize("kind", sorted(_LABELS))
@given(data=st.data())
@example(data=None)
def test_label_columns_match_the_per_cell_reference(kind, data):
    label, dtype = _LABELS[kind]
    if data is None:  # a value back after another run, and empty cells inside and between runs
        values = {"int": [7, 7, 0, 7, 7, -3, 0], "bool": [True, True, False, True, True, False,
                  False], "str": ["ok", "ok", "fail", "ok", "ok", "", "fail"]}[kind]
        mask = [False, True, False, False, True, False, False]
    else:
        cells = data.draw(st.lists(st.tuples(label, st.booleans()), max_size=40))
        values, mask = [v for v, _ in cells], [m for _, m in cells]
    grid = SweepGrid({"x": np.array(values, dtype=dtype)}, {"x": np.array(mask, dtype=bool)})
    assert grid.csv_text() == _reference_csv(grid)


def test_columns_of_every_kind_with_no_rows_write_the_header_only():
    grid = SweepGrid({"n": np.empty(0, dtype=int), "flag": np.empty(0, dtype=bool),
                      "status": np.array([], dtype=str), "x": np.empty(0),
                      "masked": np.empty(0, dtype=int)}, {"masked": np.empty(0, dtype=bool)})
    assert grid.csv_text() == _reference_csv(grid) == "n,flag,status,x,masked\n"


# ------------------------------------------------- exact vectorized .17g cells

def _cells(values) -> list:
    """The CSV cells of one float column."""
    return SweepGrid({"x": np.asarray(values, dtype=float)}).csv_text().split("\n")[1:-1]


# 512 distinct values in the window put the column on the vectorized path
_FILLER = np.arange(1, 513) / 7.0
_LO, _HI = np.array([1e-4, 1e15]).view(np.uint64).tolist()
float_bits = st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern: NaN payloads, subnormals, +-inf, -0.0
    st.integers(_LO, _HI - 1), st.integers(_LO | 1 << 63, (_HI - 1) | 1 << 63),  # the window
)


def _edge_values() -> np.ndarray:
    powers = 10.0 ** np.arange(-4, 16)
    return np.concatenate([
        powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf),
        np.nextafter([1e-4, 1e15], 0.0), np.nextafter(np.nextafter([1e-4, 1e15], 0.0), 0.0),
        # odd k / 2^20 in [1e-3, 1e-2): m 10^19 / 2^s is an exact half, rounded to even
        np.arange(1049, 10486, 2) / 2.0**20,
        # k / 2^24 in [1e-4, 1e-3): m 10^20 / 2^s is k 5^20 / 16, an exact half where
        # k = 8 mod 16 and some other multiple of 1/16 elsewhere
        np.arange(1678, 16778) / 2.0**24,
        # 17-digit literals just below a power of ten: each parses to the power itself
        [0.00099999999999999999, 0.0099999999999999998, 0.99999999999999999,
         9.9999999999999999, 99999999999999.999],
        [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16, 1.7e308],
    ])


def test_vectorized_cells_are_python_17g_at_the_edges():
    values = np.concatenate([_edge_values(), -_edge_values(), _FILLER])
    assert _cells(values) == [f"{v:.17g}" for v in values.tolist()]


def test_fixed17_is_exact_wherever_log10_finds_the_decade():
    values = np.concatenate([_edge_values(), _FILLER])
    values = values[(1e-4 <= values) & (values < 1e15)]
    values = np.concatenate([values, -values])
    text, exact = sweeps._fixed17(values)
    decade = np.array([int(f"{v:.16e}".partition("e")[2]) for v in values.tolist()])
    # next to a power of ten log10 can round into the next decade: those, and only those,
    # are flagged (the guess at 1e15 - 0.125 lands on 15 and is clipped back to 14)
    assert np.array_equal(exact, np.clip(np.floor(np.log10(np.abs(values))), -4, 14) == decade)
    assert not exact.all()
    assert text[exact].tolist() == [f"{v:.17g}".encode() for v in values[exact].tolist()]
    # each (decade, sign) layout alone, so that no key can pass for the sentinel around the runs
    for v in np.outer(1.25 * 10.0 ** np.arange(-4, 15), [1.0, -1.0]).ravel().tolist():
        assert sweeps._fixed17(np.array([v]))[0].tolist() == [f"{v:.17g}".encode()]
    # one layout per run of (decade, sign): unsorted input takes more runs, not other bytes
    order = np.random.default_rng(0).permutation(values.size)
    assert np.array_equal(sweeps._fixed17(values[order])[0], text[order])


def _trailing_zero_values() -> np.ndarray:
    """Window values whose 17 significant digits end in t zeros: three per t in 1..16 and decade.

    Each is the double nearest a decimal of 17 - t digits, the last one not 0,
    kept where its 17 digits are that decimal's with t zeros appended.
    """
    rng, found = np.random.default_rng(5), []
    for t in range(1, 17):
        for e in range(-4, 15):
            hits = []
            for d in rng.integers(10**(16 - t), 10**(17 - t), 200).tolist():
                v = float(f"{d}e{e - 16 + t}")
                if d % 10 and f"{v:.16e}".partition("e")[0].replace(".", "") == f"{d}" + "0" * t:
                    hits.append(v)
            assert len(hits) >= 3, (t, e)
            found += hits[:3]
    return np.array(found)


def test_fixed17_drops_the_trailing_zeros_at_every_position():
    # the zeros that end the 17 digits reach into each group of four, and past it
    values = np.concatenate([_trailing_zero_values(), -_trailing_zero_values()])
    text, exact = sweeps._fixed17(values)
    assert exact.all()
    assert text.tolist() == [f"{v:.17g}".encode() for v in values.tolist()]
    assert _cells(np.concatenate([values, _FILLER]))[:values.size] == [
        f"{v:.17g}" for v in values.tolist()]


def test_digit_groups_are_the_fstring_table_read_only_and_built_on_first_use():
    want = [f"{i:04}" for i in range(10**4)] + [f"{i:04}".rstrip("0").ljust(4, "\0")
                                                  for i in range(10**4)]
    assert sweeps._quads().tobytes() == "".join(want).encode()
    with pytest.raises(ValueError):
        sweeps._quads()[0] = 0
    code = ("import xyquench; from xyquench.sweeps import _quads; "
            "assert _quads.cache_info().currsize == 0")
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("distinct", [511, 512, 513, 20000])
def test_columns_from_512_distinct_values_take_the_vectorized_path(monkeypatch, distinct):
    sizes, fixed17 = [], sweeps._fixed17
    monkeypatch.setattr(sweeps, "_fixed17", lambda x: sizes.append(x.size) or fixed17(x))
    # a repeat, an empty cell, the window's ends and their outer neighbours, and -0.0
    # besides 0.0: the count is of the distinct bit patterns, the empty cell's 2e20 among
    # them; 1e-4 and 1e-3 are in the window, while 1e15, 2e20 and the double below 1e-4
    # are not
    below, inside = np.nextafter(1e-4, 0.0), distinct - 5
    values = np.concatenate([np.arange(1, distinct - 6) / 3.0,
                             [1.0, 1e-4, 1e-3, below, 1e15, 0.0, -0.0, 2e20]])
    assert np.unique(values.view(np.int64)).size == distinct
    text = SweepGrid({"x": values}, {"x": values == 2e20}).csv_text().split("\n")[1:-1]
    assert text == [f"{v:.17g}" for v in values[:-1].tolist()] + [""]
    # every window value goes to numpy, in blocks of at most 8192
    assert sizes == ([] if distinct < 512 else [min(8192, inside - i)
                                               for i in range(0, inside, 8192)])


@given(bits=st.lists(float_bits, max_size=100))
def test_vectorized_cells_are_python_17g_for_any_bit_pattern(bits):
    values = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), _FILLER])
    assert _cells(values) == [f"{v:.17g}" for v in values.tolist()]


def test_write_csv_holds_under_three_times_the_file_it_writes(tmp_path):
    # no stage of the writer keeps what the next one has read: cells, blocks, joined
    # bytes, text and its encoded copy, all held to the end, came to 4.4 times the file
    grid, path = fig2_grids(k=math.pi / 2)[0], tmp_path / "fig2_gamma.csv"
    grid.write_csv(path)  # first-use tables are built outside the measure
    tracemalloc.start()
    try:
        grid.write_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == 40_000
    assert path.read_text(encoding="ascii") == grid.csv_text()
    assert peak <= 3 * path.stat().st_size


def test_csv_seventeen_digit_floats():
    grid = SweepGrid({"x": np.array([0.1])})
    assert "0.10000000000000001" in grid.csv_text()


def test_csv_lf_line_endings(tmp_path):
    grid = SweepGrid({"x": np.array([1.0]), "y": np.array([2.0])})
    p = tmp_path / "t.csv"
    grid.write_csv(p)
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_grid_refuses_columns_of_unequal_length():
    # csv_text counts the rows of the first column; another length would reach it as
    # a bare numpy broadcast error, with no column named
    with pytest.raises(InvariantViolation, match=r"unequal length: \{'a': 2, 'b': 1\}"):
        SweepGrid({"a": np.array([1.0, 2.0]), "b": np.array([3.0])})
    assert len(SweepGrid({"a": np.empty(0), "b": np.empty(0, dtype=int)})) == 0


@pytest.mark.parametrize("empty", [
    {"b": np.array([False, True])},  # names no column
    {"a": np.array([0, 1])},  # not bool
    {"a": [False, True]},  # not an array
    {"a": np.array([True])},  # short
    {"a": np.array([[False, True]])},  # not 1-d
], ids=["unknown", "int", "list", "short", "2d"])
def test_grid_refuses_an_empty_mask_that_is_not_one_bool_per_cell(empty):
    # csv_text and validate_bounds index the column with the mask: a wrong one would
    # shift, broadcast or drop cells
    with pytest.raises(InvariantViolation, match=r"^empty\['[ab]'\] is not a bool mask"):
        SweepGrid({"a": np.array([1.0, 2.0])}, empty)
    assert SweepGrid({"a": np.array([1.0, 2.0])}, {"a": np.array([False, True])}).csv_text() \
        == "a\n1\n\n"


def test_validate_bounds_raises():
    grid = SweepGrid({"gamma": np.array([1.0, 7.0])})
    with pytest.raises(InvariantViolation, match=r"row 1: value 7\.0 outside"):
        validate_bounds(grid, {"gamma": (0.0, TWO_PI)})
    masked = SweepGrid({"gamma": np.array([1.0, np.nan])}, {"gamma": np.array([False, True])})
    validate_bounds(masked, {"gamma": (0.0, TWO_PI)})


def test_validate_bounds_rejects_unmasked_nan():
    grid = SweepGrid({"gamma": np.array([1.0, np.nan])})
    with pytest.raises(InvariantViolation, match=r"row 1: value nan outside"):
        validate_bounds(grid, {"gamma": (0.0, TWO_PI)})


def test_validate_bounds_skips_masked_cells():
    # an empty NaN and an empty out-of-range cell are not emitted, so not checked
    cells = SweepGrid({"gamma": np.array([np.nan, 1.0, 99.0])},
                      {"gamma": np.array([True, False, True])})
    validate_bounds(cells, {"gamma": (0.0, TWO_PI)})


# ------------------------------------------------------------------- fig grids

def test_fig1_columns_and_step():
    grid = fig1_grid(k=math.pi / 100, alphas=[0.5, 0.0], tau_qs=[1.0, 2.0], samples=600)
    assert tuple(grid.columns) == ("t_over_tauq", "tau_q", "alpha", "gamma_k")
    assert len(grid) == len(_rows(grid)) == 2 * 2 * 600
    xx = [r for r in _rows(grid) if r[2] == 0.0 and r[1] == 1.0]
    vals = [r[3] for r in xx]
    assert set(vals) == {0.0, TWO_PI}
    jumps = [i for i in range(len(vals) - 1) if vals[i] != vals[i + 1]]
    assert len(jumps) == 1
    # the jump brackets B = cos k within one t-cell
    i = jumps[0]
    b_lo, b_hi = abs(xx[i + 1][0]), abs(xx[i][0])
    assert b_lo < math.cos(math.pi / 100) < b_hi


def test_fig1_t0_row_value():
    grid = fig1_grid(k=math.pi / 100, alphas=[0.5], tau_qs=[1.0], samples=10)
    last = _rows(grid)[-1]
    assert last[0] == 0.0
    k = math.pi / 100
    expected = math.pi * (1 - math.cos(k) / math.sqrt(math.cos(k) ** 2 + 0.25 * math.sin(k) ** 2))
    assert last[3] == pytest.approx(expected, rel=1e-13)


def test_fig1_deep_field_rows_near_two_pi():
    grid = fig1_grid(k=math.pi / 100, alphas=[0.5, 0.0], tau_qs=[1.0], samples=5)
    first = [r for r in _rows(grid) if r[0] == -3.0]
    for r in first:
        assert r[3] == pytest.approx(TWO_PI, abs=1e-3)


def test_fig1_emits_empty_cell_at_exact_crossing():
    # the final grid point lands exactly on B = cos k: gapless, emitted empty
    k = 0.8
    grid = fig1_grid(k=k, alphas=[0.0], tau_qs=[1.0], tmin=-2.0, tmax=-math.cos(k), samples=5)
    cells = [r[3] for r in _rows(grid)]
    assert cells[-1] is None
    assert all(c is not None for c in cells[:-1])
    assert grid.csv_text().splitlines()[-1].endswith(",")


def test_fig1_refuses_a_negative_alpha_before_allocating():
    # like fig2, ChainSpec and RGState; checked ahead of the cell budget
    with pytest.raises(ValueError, match=r"^alpha must be >= 0, got -0.5$"):
        fig1_grid(k=0.8, alphas=[0.5, -0.5], tau_qs=[1.0], samples=10**9)


def test_fig2_shapes_and_ridge():
    phase, deriv = fig2_grids(k=math.pi / 2, alpha_samples=50, samples=50)
    assert tuple(phase.columns) == ("alpha", "t_over_tauq", "value")
    assert len(_rows(phase)) == 50 * 50 and len(_rows(deriv)) == 50 * 50
    # alpha = 0 derivative row: all zeros (sin k finite but alpha^2 kills it)
    a0 = [r[2] for r in _rows(deriv) if r[0] == 0.0]
    assert all(v == 0.0 or v is None for v in a0)
    # each alpha > 0 row peaks at the t closest to -tau_q cos k = 0
    by_alpha = {}
    for a, x, v in _rows(deriv):
        if a > 0 and v is not None:
            by_alpha.setdefault(a, []).append((x, v))
    for a, cells in by_alpha.items():
        x_star, _ = max(cells, key=lambda c: c[1])
        assert x_star == 0.0


def test_fig2_validation():
    with pytest.raises(ValueError):
        fig2_grids(k=1.0, alpha_min=0.5, alpha_max=0.2)
    with pytest.raises(ValueError, match=r"need 0 <= alpha_min < alpha_max, got \[0\.5, 0\.5\]"):
        fig2_grids(k=1.0, alpha_min=0.5, alpha_max=0.5, alpha_samples=5, samples=5)


def test_grid_compares_and_hashes_by_identity():
    # columns are arrays, so equal content is not equality: a grid is only equal to itself
    g1, g2 = (SweepGrid({"x": np.arange(3.0)}) for _ in range(2))
    assert g1 == g1 and g1 != g2 and hash(g1) != hash(g2)


def test_fig1_refuses_an_empty_time_window_and_tau_q_zero():
    with pytest.raises(ValueError, match=r"need tmin < tmax <= 0, got \[-1\.0, -1\.0\]"):
        fig1_grid(k=0.8, alphas=[0.5], tau_qs=[1.0], tmin=-1.0, tmax=-1.0, samples=5)
    with pytest.raises(ValueError, match=r"^tau_q must be > 0, got 0\.0$"):
        fig1_grid(k=0.8, alphas=[0.5], tau_qs=[1.0, 0.0], samples=5)


# ------------------------------------------------------------------ quench grid

def test_quench_grid_column_consistency():
    modes, summary = quench_grids(n_sites=100, tau_qs=(10.0,))
    assert tuple(modes.columns) == ("tau_q", "k", "p_k")
    col = [r[2] for r in _rows(modes)]
    assert len(col) == 100
    total = _rows(summary)[0][1]
    assert total == pytest.approx(sum(col), rel=1e-13)


def test_quench_grid_evolve_column():
    modes, _ = quench_grids(n_sites=10, tau_qs=(1.0,), evolve=True, evolve_modes=2)
    assert tuple(modes.columns) == ("tau_q", "k", "p_k", "p_evolved")
    k0 = math.pi / 10
    filled = {r[1]: r[3] for r in _rows(modes) if r[3] is not None}
    assert set(filled) == {k0, -k0, 3 * k0, -3 * k0}
    for k, pe in filled.items():
        assert pe == filled[-k]  # pair symmetry


def test_quench_grid_masks_pairs_whose_crossing_the_ramp_misses():
    # N = 10: the fourth pair k = 7 pi/10 has cos k < 0, below the ramp's end at B = 0
    with pytest.warns(UserWarning, match=r"p_evolved left empty at k = \+/-2\.19911"):
        modes, _ = quench_grids(n_sites=10, tau_qs=(1.0, 2.0), evolve=True, evolve_modes=4)
    k = modes.columns["k"]
    masked = modes.empty["p_evolved"]
    evolved = np.isclose(np.abs(k) % (2 * math.pi / 10), math.pi / 10) & (np.abs(k) < 2.0)
    assert np.array_equal(masked, ~evolved)


def test_quench_grid_evolves_no_mode_at_evolve_modes_zero():
    modes, _ = quench_grids(n_sites=10, tau_qs=(1.0,), evolve=True, evolve_modes=0)
    assert modes.empty["p_evolved"].all()


def test_quench_grid_writes_a_nan_probability_of_a_covered_pair_as_nan(monkeypatch):
    # NaN is never the mark of an empty cell: the pairs that were evolved are the
    # cells that are not empty, whatever value they got
    monkeypatch.setattr(sweeps, "evolve_mode", lambda *args, **kwargs: quench.EvolveResult(
        probability=math.nan, norm_drift=0.0, n_steps=1, crossing_covered=True))
    modes, _ = quench_grids(n_sites=10, tau_qs=(1.0,), evolve=True, evolve_modes=2)
    cells = [row.split(",")[3] for row in modes.csv_text().splitlines()[1:]]
    evolved = np.abs(modes.columns["k"]) < 1.0  # the pairs k = pi/10 and 3 pi/10
    assert cells == ["nan" if e else "" for e in evolved.tolist()] and evolved.sum() == 4


def test_quench_grid_refuses_a_ramp_that_starts_at_zero_field():
    with pytest.raises(ValueError, match=r"^b_start must be > 0 for the evolved ramp, got 0\.0$"):
        quench_grids(n_sites=10, tau_qs=(1.0,), evolve=True, b_start=0.0)


def test_quench_summary_flags():
    _, summary = quench_grids(n_sites=100, tau_qs=(1000.0, 2000.0))
    assert tuple(summary.columns) == (
        "tau_q", "kink_count", "threshold", "safety_factor", "adiabatic")
    flags = {r[0]: r[4] for r in _rows(summary)}
    assert flags[1000.0] is False and flags[2000.0] is True


# ------------------------------------------------------------------- rg grid

def test_rg_grid_serialization():
    grid = rg_grid([(0.0, 0.3), (0.1, 1.0)], l_max=4.0, dl=0.1, alpha_cap=0.5)
    assert tuple(grid.columns) == ("traj", "l", "alpha", "K", "status")
    t0 = [r for r in _rows(grid) if r[0] == 0]
    t1 = [r for r in _rows(grid) if r[0] == 1]
    assert all(r[4] == "completed" for r in t0)
    assert t1[-1][4] == "strong_coupling"
    assert all(r[2] == 0.0 for r in t0)  # fixed line stays put


# ------------------------------------------------------------------ noncontract

def test_noncontract_grid_rows():
    grid = noncontract_grid(field=0.0, alphas=(0.5,), sizes=(10, 20))
    assert tuple(grid.columns) == ("alpha", "n_sites", "gamma_g_over_m")
    assert [r[1] for r in _rows(grid)] == [10, 20]
    for r in _rows(grid):
        assert r[2] == pytest.approx(math.pi, rel=1e-12)


# ---------------------------------------------------------------- oracle report

def test_oracle_report_passes_with_defaults_small():
    grid, failures = oracle_report(seed=3, steps=1500, grid_size=4, spectrum_cases=3)
    assert failures == []
    statuses = {r[-1] for r in _rows(grid)}
    assert statuses <= {"ok", "odd_sector"}
    kinds = {r[0].split("_")[0] for r in _rows(grid)}
    assert kinds == {"mode", "loop", "spectrum"}


def test_oracle_report_corrupted_tolerance_fails():
    grid, failures = oracle_report(seed=3, steps=1500, grid_size=2, spectrum_cases=2,
                                   mode_tol=1e-12)
    assert len(failures) > 0
    failing = [r for r in _rows(grid) if r[-1] in ("fail", "degenerate")]
    assert failures == [(r[0], r[8], r[9]) for r in failing]


def test_oracle_report_deterministic():
    g1, _ = oracle_report(seed=9, steps=1000, grid_size=3, spectrum_cases=2)
    g2, _ = oracle_report(seed=9, steps=1000, grid_size=3, spectrum_cases=2)
    assert g1.csv_text() == g2.csv_text()


def test_oracle_report_seeded_draws_span_their_ranges():
    grid, _ = oracle_report(seed=0, steps=100, grid_size=20, nsites=(4,), spectrum_cases=20)
    c = grid.columns
    cases = c["case"].astype(str)
    mode, spec = np.char.startswith(cases, "mode_"), np.char.startswith(cases, "spectrum_")
    fields, alphas = c["field"][mode], c["alpha"][mode]
    assert -1.5 <= fields.min() < 0.0 < fields.max() < 1.5
    assert 0.05 <= alphas.min() and alphas.max() < 2.0
    for name, top in (("alpha", 1.5), ("field", 2.0), ("phi", math.pi)):
        v = c[name][spec]
        assert 0.0 <= v.min() and v.max() < top and v.max() > 0.5 * top, name


@pytest.mark.parametrize("family,tol", [("mode_", "mode_tol"), ("loop_", "loop_tol"),
                                        ("spectrum_", "spectrum_tol")])
def test_oracle_report_accepts_a_difference_equal_to_the_tolerance(family, tol):
    sizes = dict(seed=1, steps=100, grid_size=2, nsites=(4,), spectrum_cases=2)
    grid, _ = oracle_report(**sizes)
    row = next(i for i, case in enumerate(grid.columns["case"].tolist()) if case.startswith(family))
    diff = float(grid.columns["abs_diff"][row])
    grid, _ = oracle_report(**sizes, **{tol: diff})
    assert grid.columns["status"][row] == "ok"
    grid, _ = oracle_report(**sizes, **{tol: math.nextafter(diff, 0.0)})
    assert grid.columns["status"][row] == "fail"


@pytest.mark.parametrize("analytic,phase,numeric", [
    (TWO_PI - 1e-4, 1e-4, 1e-4 + TWO_PI),  # the loop phase wrapped past 2pi
    (1e-4, TWO_PI - 1e-4, TWO_PI - 1e-4 - TWO_PI),  # and below 0
])
def test_oracle_loop_numeric_is_the_representative_nearest_analytic(monkeypatch, analytic,
                                                                    phase, numeric):
    monkeypatch.setattr(sweeps, "total_phase", lambda spec, B: analytic)
    monkeypatch.setattr(sweeps, "berry_phase_loop", lambda n, a, b, steps: LoopResult(
        phase=phase, overlaps_min=1.0, degenerate=False, parity=1.0))
    grid, failures = oracle_report(steps=100, grid_size=0, nsites=(4,), spectrum_cases=0)
    assert failures == []
    assert grid.columns["numeric"].tolist() == [numeric, numeric]
    assert grid.columns["abs_diff"].tolist() == pytest.approx([2e-4, 2e-4], rel=1e-9)


def _anisotropy_off_by_a_percent(n, alpha, B, phi=0.0):
    return _build_hamiltonian(n, 1.01 * alpha, B, phi)


def _yy_sign_flipped(n, alpha, B, phi=0.0):
    # wx sx sx - wy sy sy + B sz, put together from three real builds of the XY chain
    xx = _build_hamiltonian(n, 1.0, 0.0)  # wx = 1, wy = 0
    half = _build_hamiltonian(n, 0.0, 0.0)  # wx = wy = 1/2
    field = _build_hamiltonian(n, 0.0, B) - half
    alpha = np.asarray(alpha)[..., None, None]  # one matrix per stacked case
    return 0.5 * (1.0 + alpha) * xx - 0.5 * (1.0 - alpha) * (2.0 * half - xx) + field


@pytest.mark.parametrize("builder", [_anisotropy_off_by_a_percent, _yy_sign_flipped])
def test_oracle_spectrum_rows_fail_a_chain_that_is_not_the_xy_chain(tmp_path, capsys,
                                                                    monkeypatch, builder):
    # a real symmetric H(0) that is not the XY chain: its levels are not the
    # free-fermion ones, while the loop rows (their own builder) stay as they are
    monkeypatch.setattr(sweeps, "build_hamiltonian", builder)
    grid, failures = oracle_report(seed=3, steps=300, grid_size=2, spectrum_cases=3)
    spectra = [r for r in _rows(grid) if r[0].startswith("spectrum_")]
    assert [r[-1] for r in spectra] == ["fail"] * 3
    assert [f[0] for f in failures] == [r[0] for r in spectra]
    assert min(r[8] for r in spectra) > 1e-4
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--steps", "300", "--grid", "2", "--spectrum-cases", "3",
                 "--nsites", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("FAIL spectrum_") == 3


@pytest.mark.parametrize("nsites", [(4,), (4, 6)])
def test_oracle_eigvalsh_calls_do_not_grow_with_the_spectrum_cases(monkeypatch, nsites):
    # the spectrum cases are stacked: one build and one eigvalsh per parity block,
    # however many cases; every loop builds its own H(0) once
    calls, builds = [], []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counted_build(n, alpha, B, phi=0.0):
        builds.append(np.shape(alpha))
        return _build_hamiltonian(n, alpha, B, phi)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(sweeps, "build_hamiltonian", counted_build)
    monkeypatch.setattr(edoracle, "build_hamiltonian", counted_build)
    counts = []
    loops = sum(c[0] in nsites for c in sweeps._LOOP_CASES)
    for cases in (0, 2, 20):
        calls.clear()
        builds.clear()
        oracle_report(seed=3, steps=300, grid_size=2, nsites=nsites, spectrum_cases=cases)
        counts.append(len(calls))
        assert calls[-2:] == [(cases, 32, 32)] * 2
        assert builds == [()] * loops + [(cases,)]
    assert counts[0] == counts[1] == counts[2]


# ------------------------------------------------------------------------- CLI

def test_no_command_loads_numpy_ma(tmp_path):
    # empty cells are plain bool masks; numpy.ma costs a cold run about 8 ms and 1 MB.
    # Records are plain classes and the leaf worker takes its jobs through a lock, so
    # neither the import nor a command loads dataclasses or queue (about 6 ms cold)
    runs = [["fig1", "--samples", "20"], ["fig2", "--samples", "5", "--alpha-samples", "5"],
            ["quench", "--nsites", "10", "--tauq", "1", "--evolve", "--summary", "s.csv"],
            ["rg", "--lmax", "0.1", "--classify"], ["noncontract", "--nsites", "10"],
            ["oracle", "--steps", "200", "--grid", "2", "--spectrum-cases", "2"]]
    code = ("import sys; from xyquench import cli; cli.build_parser(); "
            "unwanted = lambda: {'numpy.ma', 'dataclasses', 'queue'} & sys.modules.keys(); "
            "assert not unwanted(), unwanted(); "
            f"assert all(cli.main(argv) == 0 for argv in {runs!r}); "
            "assert not unwanted(), unwanted()")
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    assert len(list(tmp_path.iterdir())) == 8

def test_cli_fig1_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fig1", "--samples", "50", "--tauq", "1", "--tauq", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_fig2_writes_two_files(tmp_path):
    out = tmp_path / "surf.csv"
    rc = main(["fig2", "--out", str(out), "--samples", "20", "--alpha-samples", "20"])
    assert rc == 0
    assert (tmp_path / "surf_gamma.csv").exists()
    assert (tmp_path / "surf_dgamma.csv").exists()


def test_cli_fig2_slope_at_a_huge_alpha_is_finite(tmp_path, capsys):
    # at alpha = 1e200 the gap's cube overflows; the slope is still pi/Lambda, not NaN
    out = tmp_path / "surf.csv"
    argv = ["fig2", "--alpha-max", "1e200", "--alpha-samples", "2", "--samples", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = _read_csv(tmp_path / "surf_dgamma.csv")
    assert [float(r["value"]) for r in rows[2:]] == pytest.approx([math.pi / 1e200] * 2,
                                                                  rel=1e-14, abs=0.0)


def test_cli_quench_summary(tmp_path, capsys):
    out = tmp_path / "q.csv"
    summ = tmp_path / "s.csv"
    rc = main(["quench", "--out", str(out), "--nsites", "10", "--tauq", "2000",
               "--summary", str(summ)])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    payload = json.loads(lines[0])
    assert payload["adiabatic"] is True
    assert payload["excluded_modes"] == [math.pi / 10]
    assert _read_csv(summ)[0]["adiabatic"] == "true"


@pytest.mark.parametrize("summary,out,err", [
    ("q.csv", "q.csv", "q.csv and q.csv are one file; give each table its own path"),
    ("./q.csv", "q.csv", "q.csv and ./q.csv are one file; give each table its own path"),
    ("missing/s.csv", "q.csv", "cannot write missing/s.csv: its directory does not exist"),
    ("d", "q.csv", "cannot write d: it is a directory"),
], ids=["same", "same_dot", "no_directory", "directory"])
def test_cli_refuses_output_paths_before_writing_any(tmp_path, capsys, monkeypatch, summary, out,
                                                     err):
    # the summary comes second, so a late refusal would leave q.csv behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    argv = ["quench", "--nsites", "10", "--tauq", "1", "--summary", summary, "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any((tmp_path / "d").iterdir())


@pytest.mark.parametrize("argv,compute,err", [
    (["quench", "--evolve", "--tauq", "1000", "--tauq", "3000", "--summary", "q.csv",
      "--out", "q.csv"], "evolve_mode",
     "q.csv and q.csv are one file; give each table its own path"),
    (["fig2", "--out", "surf"], "fig2_grids", "cannot write surf_gamma.csv: it is a directory"),
    (["oracle", "--out", "missing/o.csv"], "oracle_report",
     "cannot write missing/o.csv: its directory does not exist"),
], ids=["quench_evolve", "fig2", "oracle"])
def test_cli_refuses_output_paths_before_the_handler_computes(tmp_path, capsys, monkeypatch,
                                                              argv, compute, err):
    def never(*args, **kwargs):
        raise AssertionError(f"{compute} ran before the output paths were checked")

    monkeypatch.setattr(sweeps, compute, never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "surf_gamma.csv").mkdir()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["surf_gamma.csv"]


# every command, with each branch of its path rule, at sizes small enough to run
_PATH_CASES = [
    ("fig1", {"samples": 3}),
    ("fig2", {"samples": 2, "alpha_samples": 2}),
    ("fig2", {"samples": 2, "alpha_samples": 2, "out": "surf"}),
    ("quench", {"nsites": 4, "tauq": [1.0]}),
    ("quench", {"nsites": 4, "tauq": [1.0], "summary": "s.csv"}),
    ("rg", {"lmax": 0.01}),
    ("noncontract", {"nsites": [10]}),
    ("oracle", {"steps": 200, "grid": 1, "nsites": [4], "spectrum_cases": 1}),
]


def test_cli_path_cases_cover_every_command():
    assert {cmd for cmd, _ in _PATH_CASES} == set(COMMANDS)


@pytest.mark.parametrize("cmd,flags", _PATH_CASES)
def test_cli_handler_returns_the_paths_of_the_rule(cmd, flags):
    # one (grid, bounds) per path of the rule, which main alone reads
    handler, _, options = COMMANDS[cmd]
    opts = {**options, **flags}
    tables, _, _ = handler(opts)
    assert len(tables) == len(cli._table_paths(cmd, opts))
    for grid, bounds in tables:
        assert isinstance(grid, SweepGrid) and set(bounds) <= set(grid.columns)


def test_cli_quench_evolve_names_uncovered_pairs_on_one_plain_line(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["quench", "--out", str(out), "--nsites", "10", "--tauq", "1", "--evolve"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: p_evolved left empty at k = ")
    assert "2.19911" in err
    assert ".py" not in err and "xyquench" not in err and "UserWarning" not in err
    empty = {float(r["k"]) for r in _read_csv(out) if r["p_evolved"] == ""}
    assert empty == {x * math.pi / 10 for x in (-9, -7, 7, 9)}


def test_cli_quench_evolve_covered_pairs_unchanged(tmp_path, capsys):
    # the benchmark's command line: at N = 100 all 4 evolved pairs cross B = cos k
    out = tmp_path / "q.csv"
    alpha = 0.97
    assert main(["quench", "--evolve", "--alpha", repr(alpha), "--out", str(out),
                 "--nsites", "100"]) == 0
    assert capsys.readouterr().err == ""
    rows = [r for r in _read_csv(out) if r["p_evolved"] != ""]
    assert len(rows) == 4 * 2 * 4
    for r in rows:
        schedule = QuenchSchedule.from_field(float(r["tau_q"]))
        want = evolve_mode(abs(float(r["k"])), alpha, schedule).probability
        assert r["p_evolved"] == f"{want:.17g}"


@pytest.mark.parametrize("flags,named", [
    (["--evolve-modes", "-2"], "evolve_modes must be >= 0, got -2"),
    (["--b-start", "-1"], "b_start must be > 0 for the evolved ramp, got -1.0"),
], ids=["evolve_modes", "b_start"])
def test_cli_quench_evolve_errors_name_the_flag(tmp_path, capsys, flags, named):
    out = tmp_path / "q.csv"
    assert main(["quench", "--evolve", "--nsites", "10", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def test_cli_rg_classify(tmp_path, capsys):
    out = tmp_path / "rg.csv"
    rc = main(["rg", "--out", str(out), "--initial", "1.0,1.0", "--lmax", "0.5",
               "--dl", "0.01", "--classify", "--field", "10.0"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert json.loads(lines[0])["phase"] == "ferromagnetic"


@pytest.mark.parametrize("cmd,flags", [
    ("quench", ["--nsites", "10", "--tauq", "2000"]),
    ("rg", ["--initial", "1.0,1.0", "--lmax", "0.5", "--dl", "0.01", "--classify"]),
])
def test_cli_stdout_json_has_sorted_keys(tmp_path, capsys, cmd, flags):
    assert main([cmd, "--out", str(tmp_path / "t.csv")] + flags) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert lines and all(list(json.loads(ln)) == sorted(json.loads(ln)) for ln in lines)


def test_cli_rg_classify_edges_of_the_gap_formula(tmp_path, capsys):
    # K = 1/2 exactly takes the K <= 1/2 branch even at alpha = 0; alpha = 0 with K > 1/2
    # sits on the fixed line, where the gap is undefined and the label is null
    argv = ["rg", "--out", str(tmp_path / "rg.csv"), "--lmax", "0.5", "--dl", "0.01",
            "--initial", "0,0.5", "--initial", "0,1", "--classify", "--field", "0.3"]
    assert main(argv) == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert [(d["K"], d["phase"]) for d in lines] == [(0.5, "luttinger_liquid"), (1.0, None)]


def test_cli_rg_default_csv_bytes(tmp_path):
    # pure IEEE arithmetic: the bytes do not depend on BLAS or libm
    out = tmp_path / "rg.csv"
    assert main(["rg", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9682199fd04c5865d68208a868a77c4309d23ac8c555120897c8fdcec9bc0fa4")


def test_cli_rg_rk4_overshoot_exit_2(tmp_path, capsys):
    out = tmp_path / "rg.csv"
    assert main(["rg", "--initial", "1.0,0.01", "--dl", "0.05", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: alpha must be >= 0, got -0.29822710766716165\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_rg_classify_overflowing_gap_is_staggered(tmp_path, capsys):
    # K just above 1/2 with alpha > 2: the gap overflows a float and beats any field
    out = tmp_path / "rg.csv"
    assert main(["rg", "--classify", "--initial", "3.0,0.5000001", "--lmax", "0.01",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"wrote {out} (11 rows)", '{"K": 0.5000001, "alpha": 3.0, "field": 0.0, '
                     '"phase": "staggered_order"}']


def test_cli_rg_classify_underflowing_gap_is_staggered(tmp_path, capsys):
    # K just above 1/2 with alpha < 2: the gap underflows a float, yet B = 0 lies below it
    out = tmp_path / "rg.csv"
    assert main(["rg", "--classify", "--initial", "1.0,0.5001", "--lmax", "0.01",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"wrote {out} (11 rows)", '{"K": 0.5001, "alpha": 1.0, "field": 0.0, '
                     '"phase": "staggered_order"}']


@pytest.mark.parametrize("argv,named", [
    (["rg", "--classify", "--field", "-0.5"], "quench field must be >= 0, got -0.5"),
    (["rg", "--classify", "--band", "2"], "band must lie in (0, 1), got 2.0"),
    (["rg", "--classify", "--cutoff", "-1"], "cutoff must be > 0, got -1.0"),
    (["quench", "--alpha", "0", "--nsites", "4", "--b-start", "0.7071067811865476",
      "--tauq", "1", "--summary", "s.csv"], "gapless point at k=0.7853981633974483"),
    (["fig1", "--alpha", "-0.5"], "alpha must be >= 0, got -0.5"),
], ids=["rg-field", "rg-band", "rg-cutoff", "quench-gapless-summary", "fig1-negative-alpha"])
def test_cli_refusals_leave_no_file(tmp_path, capsys, monkeypatch, argv, named):
    # a handler computes all its tables and lines before main writes anything
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,warning", [
    (["--b-start", "0.9", "--tauq", "1", "--nsites", "20"], "warning: p_evolved left empty"),
    (["--alpha", "0", "--tauq", "1", "--tauq", "2", "--nsites", "20"],
     "warning: no coupling at the crossing"),
], ids=["uncovered", "no-coupling"])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_cli_warning_lines_do_not_depend_on_the_filter(tmp_path, capsys, argv, warning, action):
    argv = ["quench", "--evolve", *argv, "--out", str(tmp_path / "q.csv")]
    with warnings.catch_warnings():
        warnings.resetwarnings()
        assert main(argv) == 0
    default = capsys.readouterr()
    # one line however many pairs warn, since the filter is "default", not "always"
    assert default.err.count("\n") == 1 and default.err.startswith(warning)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert main(argv) == 0
    assert capsys.readouterr() == default


def test_cli_noncontract(tmp_path):
    out = tmp_path / "nc.csv"
    rc = main(["noncontract", "--out", str(out), "--alpha", "0.5", "--nsites", "100"])
    assert rc == 0
    assert len(_read_csv(out)) == 1


def test_cli_noncontract_bad_field_exit_2(tmp_path):
    rc = main(["noncontract", "--out", str(tmp_path / "x.csv"), "--field", "1.5"])
    assert rc == 2


def test_cli_oracle_exit_codes(tmp_path):
    out = tmp_path / "o.csv"
    base = ["oracle", "--out", str(out), "--steps", "1200", "--grid", "3",
            "--spectrum-cases", "2", "--nsites", "4"]
    assert main(base) == 0
    assert main(base + ["--mode-tol", "1e-12"]) == 1


@pytest.mark.parametrize("argv", [[], ["--seed", "3", "--steps", "2000"]])
def test_cli_oracle_loop_numeric_nearest_analytic(tmp_path, argv):
    # a phase that is 0 mod 2pi must not be written 2pi away from its analytic 0
    out = tmp_path / "o.csv"
    assert main(["oracle", "--out", str(out)] + argv) == 0
    loops = [r for r in _read_csv(out) if r["case"].startswith("loop_")]
    assert len(loops) == 4
    for r in loops:
        gap = abs(float(r["numeric"]) - float(r["analytic"]))
        assert gap <= math.pi
        assert abs(gap - float(r["abs_diff"])) <= 1e-15


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_oracle_refuses_nsites_without_loop_case(tmp_path, capsys, source):
    # a size without a loop case must not silently drop the many-body family
    out = tmp_path / "o.csv"
    argv = ["oracle", "--out", str(out), "--steps", "1200", "--grid", "3",
            "--spectrum-cases", "2"]
    if source == "flag":
        argv += ["--nsites", "8"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {"nsites": [4, 8]}}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "nsites 8" in err and "supported sizes are 4, 6" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,err", [
    ("--grid", "grid must be >= 0, got -1"),
    ("--spectrum-cases", "spectrum_cases must be >= 0, got -1"),
], ids=["grid", "spectrum_cases"])
@pytest.mark.parametrize("size", ["-1", "-100000"])
def test_cli_oracle_refuses_a_negative_size_by_name(tmp_path, capsys, monkeypatch, flag, err,
                                                    size):
    # named before the budget, which would square -100000 into 10^10 cells
    monkeypatch.setattr(sweeps, "mode_berry_numeric", _never)
    out = tmp_path / "o.csv"
    assert main(["oracle", flag, size, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {err.replace('-1', size)}\n")
    assert list(tmp_path.iterdir()) == []


def _loop_at_analytic(**flags):
    """A berry_phase_loop stand-in whose phase is the analytic one, with the given flags."""
    def loop(n_sites, alpha, B, steps):
        phase = total_phase(ChainSpec(n_sites=n_sites, alpha=alpha), B) % TWO_PI
        return LoopResult(**{**dict(phase=phase, overlaps_min=1.0, degenerate=False,
                                    parity=1.0), **flags})
    return loop


@pytest.mark.parametrize("flags,status,fail_line,code", [
    (dict(degenerate=True), "degenerate", "FAIL loop_00: |diff|=None tol=0.001", 1),
    (dict(parity=-1.0), "odd_sector", None, 0),
], ids=["degenerate", "odd_parity"])
def test_cli_oracle_loop_row_status_rules(tmp_path, capsys, monkeypatch, flags, status,
                                          fail_line, code):
    monkeypatch.setattr(sweeps, "berry_phase_loop", _loop_at_analytic(**flags))
    out = tmp_path / "o.csv"
    assert main(["oracle", "--out", str(out), "--steps", "300", "--grid", "2",
                 "--spectrum-cases", "1", "--nsites", "4"]) == code
    loops = [r for r in _read_csv(out) if r["case"].startswith("loop_")]
    assert [r["status"] for r in loops] == [status, status]
    if status == "degenerate":
        assert all(r["numeric"] == r["abs_diff"] == "" for r in loops)
    else:
        assert all(r["numeric"] == r["analytic"] and r["abs_diff"] == "0" for r in loops)
    err = capsys.readouterr().err.splitlines()
    assert (fail_line in err) if fail_line else err == []


@pytest.mark.parametrize("empty,gone,kept", [("grid_size", "mode_", ("loop_",)),
                                             ("spectrum_cases", "spectrum_", ("mode_", "loop_"))])
def test_oracle_report_family_rows_do_not_depend_on_an_empty_family(empty, gone, kept):
    # the spectrum draws follow the mode draws in one seeded stream, so an empty mode
    # grid moves the spectrum rows; every other family keeps its rows
    size = dict(seed=3, steps=300, grid_size=2, spectrum_cases=2)
    full, _ = oracle_report(**size)
    part, _ = oracle_report(**{**size, empty: 0})
    assert not [r for r in _rows(part) if r[0].startswith(gone)]
    for prefix in kept:
        rows = [r for r in _rows(part) if r[0].startswith(prefix)]
        assert rows and rows == [r for r in _rows(full) if r[0].startswith(prefix)]


def test_cli_quench_refuses_a_ramp_over_the_step_budget(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["quench", "--out", str(out), "--tauq", "1e9", "--evolve"]) == 2
    assert "above the budget" in capsys.readouterr().err
    assert not out.exists()


def test_cli_quench_refuses_a_pair_over_the_step_budget_before_any_pair_runs(tmp_path, capsys,
                                                                             monkeypatch):
    # the tau_q = 1 pairs come first and are cheap; the tau_q = 1e7 ones are each over 10^8
    monkeypatch.setattr(sweeps, "evolve_mode", _never)
    out = tmp_path / "q.csv"
    assert main(["quench", "--evolve", "--tauq", "1", "--tauq", "1e7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the ramp needs about 2999794393 steps per pair, above the budget of 1e+08; "
        "use a smaller tau_q or a larger dt\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_quench_refuses_evolved_pairs_over_the_step_budget_in_all(tmp_path, capsys,
                                                                      monkeypatch):
    # 4 modes x 2 tau_q, each pair far under the budget; the sum of their step counts is the
    # table's, so the budget passes at the sum and refuses one step below it
    argv = ["quench", "--evolve", "--nsites", "20", "--tauq", "1", "--tauq", "10",
            "--out", str(tmp_path / "q.csv")]
    steps = sum(quench.ramp_steps(k, 1.0, QuenchSchedule.from_field(tau_q, 5.0))[0]
                for tau_q in (1.0, 10.0) for k in np.pi * np.array([1, 3, 5, 7]) / 20)
    assert steps == 12751
    monkeypatch.setattr(quench, "_MAX_STEPS", steps)
    assert main(argv) == 0
    (tmp_path / "q.csv").unlink()
    capsys.readouterr()
    monkeypatch.setattr(quench, "_MAX_STEPS", steps - 1)
    monkeypatch.setattr(sweeps, "evolve_mode", _never)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the 8 evolved pairs need 12751 steps in all, above the budget of 1e+04; "
        "use fewer modes, fewer or smaller tau_q or a larger dt\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,cells", [
    (["fig1"], 4800),  # 2 alphas x 4 tau_q x 600 samples
    (["fig2"], 40000),  # 200 alphas x 200 samples
    (["fig2", "--samples", "30", "--alpha-samples", "7"], 210),
])
def test_cli_figures_refuse_a_grid_over_the_cell_budget(tmp_path, capsys, monkeypatch, argv,
                                                        cells):
    # the budget is lowered, so no test ever asks for a huge grid
    out = tmp_path / "fig.csv"
    monkeypatch.setattr(sweeps, "_MAX_CELLS", cells - 1)
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: the grid has {cells} cells, above the budget of "
                   f"{cells - 1:.0e}; use fewer samples\n")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(sweeps, "_MAX_CELLS", cells)  # the estimate is the row count
    assert main([*argv, "--out", str(out)]) == 0


def _never(*args, **kwargs):
    raise AssertionError("called before the budget check")


_HUGE = str(10**400)  # an int size that no float holds


@pytest.mark.parametrize("argv,cells,remedy", [
    (["quench", "--nsites", "10", "--tauq", "1", "--tauq", "2"], 20,
     "use fewer sites or tau_q values"),  # CSV rows: 2 tau_q x 10 modes
    (["noncontract", "--nsites", "10", "--nsites", "20"], 90,
     "use fewer or smaller sizes"),  # momenta: 6 alphas x (5 + 10)
], ids=["quench", "noncontract"])
def test_cli_sizes_refused_before_allocation(tmp_path, capsys, monkeypatch, argv, cells, remedy):
    out = tmp_path / "t.csv"
    monkeypatch.setattr(sweeps, "_MAX_CELLS", cells)
    assert main([*argv, "--out", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    monkeypatch.setattr(sweeps, "_MAX_CELLS", cells - 1)
    monkeypatch.setattr(sweeps, "momentum_grid", _never)
    monkeypatch.setattr(sweeps, "noncontractibility_scan", _never)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the grid has {cells} cells, above the budget "
                                       f"of {cells - 1:.0e}; {remedy}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,cfg,err", [
    (["noncontract", "--nsites", "4000000", "--nsites", "-3999998"], None,
     "n_sites must be a positive even integer, got -3999998"),  # signs must not cancel
    (["quench"], {"tauq": [], "nsites": 8000000}, "the grid has 8000000 cells, above the budget "
     "of 1e+06; use fewer sites or tau_q values"),  # no row, but N/2 momenta are built
    (["fig2", "--samples", "-2000", "--alpha-samples", "-2000"], None,
     "need at least 2 samples per swept axis, got -2000"),  # named, not multiplied
    # an int past 1.8e308 has no float form, so the count reads as over 1e+308
    (["fig1", "--samples", _HUGE], None,
     "the grid has over 1e+308 cells, above the budget of 1e+06; use fewer samples"),
    (["fig2", "--alpha-samples", _HUGE], None,
     "the grid has over 1e+308 cells, above the budget of 1e+06; use fewer samples"),
    (["fig2"], {"samples": 10**400}, "the grid has over 1e+308 cells, above the budget of "
     "1e+06; use fewer samples"),
    (["quench", "--nsites", _HUGE], None, "the grid has over 1e+308 cells, above the "
     "budget of 1e+06; use fewer sites or tau_q values"),
    (["noncontract", "--nsites", _HUGE], None, "the grid has over 1e+308 cells, above the "
     "budget of 1e+06; use fewer or smaller sizes"),
    (["oracle", "--grid", _HUGE], None, "the grid has over 1e+308 cells, above the budget "
     "of 1e+06; use a smaller grid or fewer spectrum cases"),
    (["oracle", "--spectrum-cases", _HUGE], None, "the grid has over 1e+308 cells, above "
     "the budget of 1e+06; use a smaller grid or fewer spectrum cases"),
    (["oracle", "--steps", _HUGE], None,
     "the loop has over 1e+308 steps, above the budget of 1e+308; use fewer steps"),
    (["oracle"], {"steps": 10**400},
     "the loop has over 1e+308 steps, above the budget of 1e+308; use fewer steps"),
], ids=["noncontract-mixed-sign", "quench-no-tauq", "fig2-negative-samples", "fig1-huge-samples",
        "fig2-huge-alpha-samples", "fig2-huge-samples-config", "quench-huge-nsites",
        "noncontract-huge-nsites", "oracle-huge-grid", "oracle-huge-spectrum-cases",
        "oracle-huge-steps", "oracle-huge-steps-config"])
def test_cli_sizes_are_validated_and_counted_as_built(tmp_path, capsys, monkeypatch, argv, cfg,
                                                      err):
    # each size is validated, and counted as built, before anything is built
    for name in ("momentum_grid", "noncontractibility_scan", "_time_axis", "berry_phase_loop",
                 "build_hamiltonian"):
        monkeypatch.setattr(sweeps, name, _never)
    monkeypatch.setattr(cli, "momentum_grid", _never)
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if cfg else [])


def test_quench_budget_counts_the_momentum_grid_of_an_empty_tau_q_list(monkeypatch):
    monkeypatch.setattr(sweeps, "_MAX_CELLS", 10)
    modes, summary = quench_grids(n_sites=10, tau_qs=[])
    assert len(modes) == len(summary) == 0
    monkeypatch.setattr(sweeps, "_MAX_CELLS", 9)
    with pytest.raises(ValueError, match="the grid has 10 cells"):
        quench_grids(n_sites=10, tau_qs=[])


@pytest.mark.parametrize("dt", ["0", "-0.01"])
def test_cli_quench_names_a_non_positive_dt(tmp_path, capsys, monkeypatch, dt):
    monkeypatch.setattr(sweeps, "evolve_mode", _never)
    out = tmp_path / "q.csv"
    assert main(["quench", "--evolve", "--dt", dt, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: dt must be > 0, got {float(dt)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,err", [
    (["quench", "--nsites", "250002"], "the grid has 1000008 cells, above the budget of 1e+06; "
     "use fewer sites or tau_q values"),
    (["rg", "--dl", "1.4999e-5"], "the 3 flows need about 1000066.671 RK4 steps in all, above "
     "the budget of 1e+06; use fewer initial points, a larger dl or a smaller l_max"),
], ids=["quench", "rg"])
def test_cli_budget_message_shows_a_count_just_over_the_budget(tmp_path, capsys, monkeypatch,
                                                               argv, err):
    # the count keeps the digits that tell it from the budget
    monkeypatch.setattr(sweeps, "momentum_grid", _never)
    monkeypatch.setattr(sweeps, "rg_flow", _never)
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,cells", [
    (["--grid", "3", "--spectrum-cases", "2"], 15),  # 9 mode + 4 loop + 2 spectrum rows
    (["--grid", "2", "--spectrum-cases", "5", "--nsites", "4"], 11),  # 4 + 2 + 5
], ids=["all", "n4"])
def test_cli_oracle_refused_before_allocation(tmp_path, capsys, monkeypatch, argv, cells):
    out = tmp_path / "o.csv"
    argv = ["oracle", "--steps", "1200", *argv, "--out", str(out)]
    monkeypatch.setattr(sweeps, "_MAX_CELLS", cells)
    assert main(argv) == 0
    assert len(_read_csv(out)) == cells
    out.unlink()
    capsys.readouterr()
    monkeypatch.setattr(sweeps, "_MAX_CELLS", cells - 1)
    monkeypatch.setattr(sweeps, "mode_berry_numeric", _never)
    monkeypatch.setattr(sweeps, "berry_phase_loop", _never)
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: the grid has {cells} cells, above the budget of "
                                       f"{cells - 1:.0e}; use a smaller grid or fewer spectrum "
                                       f"cases\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_rg_refuses_flows_over_the_step_budget_in_all(tmp_path, capsys, monkeypatch):
    # each default trajectory takes 5000 steps, under the budget; the three take 15 000
    monkeypatch.setattr(rgflow, "_MAX_STEPS", 10**4)
    monkeypatch.setattr(sweeps, "rg_flow", _never)
    out = tmp_path / "rg.csv"
    assert main(["rg", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the 3 flows need about 15000 RK4 steps in all, above the budget of 1e+04; "
        "use fewer initial points, a larger dl or a smaller l_max\n")
    assert not out.exists()


@pytest.mark.parametrize("dl,steps", [("1e-320", "inf"), ("0.0001", "50000")])
def test_cli_rg_refuses_a_flow_over_the_step_budget(tmp_path, capsys, monkeypatch, dl, steps):
    # 1e-320 underflows the step count to inf; 1e-4 is refused under a lowered budget
    monkeypatch.setattr(rgflow, "_MAX_STEPS", 10**4)
    out = tmp_path / "rg.csv"
    assert main(["rg", "--dl", dl, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: the flow needs about {steps} RK4 steps, above the budget of 1e+04; "
                   f"use a larger dl or a smaller l_max\n")
    assert not out.exists()


def test_cli_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fig1": {"samples": 40, "tauq": [3.0]}}))
    out = tmp_path / "c.csv"
    rc = main(["fig1", "--out", str(out), "--config", str(cfg), "--samples", "20"])
    assert rc == 0
    rows = _read_csv(out)
    # config tauq list applies, explicit --samples overrides the config value
    assert len(rows) == 2 * 1 * 20
    assert {float(r["tau_q"]) for r in rows} == {3.0}


@pytest.mark.parametrize("cmd,section,header", [
    ("fig1", {"tauq": []}, "t_over_tauq,tau_q,alpha,gamma_k"),
    ("noncontract", {"alpha": []}, "alpha,n_sites,gamma_g_over_m"),
    ("rg", {"initial": []}, "traj,l,alpha,K,status"),
    ("quench", {"tauq": []}, "tau_q,k,p_k"),
    ("quench", {"tauq": [], "evolve": True}, "tau_q,k,p_k,p_evolved"),
    ("noncontract", {"nsites": []}, "alpha,n_sites,gamma_g_over_m"),
])
def test_cli_empty_tables_write_header_only(tmp_path, cmd, section, header):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({cmd: section}))
    out = tmp_path / "empty.csv"
    assert main([cmd, "--out", str(out), "--config", str(cfg)]) == 0
    assert out.read_text(encoding="ascii") == header + "\n"


@pytest.mark.parametrize("cfg,named", [
    ({"fig1": {"sample": 5}}, "'sample'"),  # unknown key
    ({"fig2": {"samples": 5}}, "'fig2'"),  # only another command's section
    ([{"samples": 5}], "JSON object"),  # top-level list
    ({"fig1": {"samples": "20"}}, "'samples'"),  # string for an int
    ({"fig1": {"tauq": 3.0}}, "'tauq'"),  # scalar for a list
    ({"k": True}, "'k'"),  # bool for a float
    ({"fig1": {"samples": 5}, "samples": 5}, "'samples'"),  # stray key in a sectioned file
])
def test_cli_config_refusals_exit_2(tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "f.csv"
    assert main(["fig1", "--out", str(out), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "fig1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,option", [
    (["quench", "--tauq", "nan"], "'tauq'"),
    (["quench", "--tauq", "inf"], "'tauq'"),
    (["fig1", "--k", "nan"], "'k'"),
    (["rg", "--lmax", "inf"], "'lmax'"),
    (["rg", "--initial", "0.1,inf"], "initial"),
    (["fig2", "--config", "{cfg}"], "'tmin'"),  # json reads NaN
])
def test_cli_non_finite_floats_exit_2(tmp_path, capsys, argv, option):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fig2": {"tmin": float("nan")}}))
    out = tmp_path / "x.csv"
    argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert option in err and "finite" in err
    assert not list(tmp_path.glob("x*.csv"))


def test_cli_rg_config_initial_pairs_run_like_the_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rg": {"initial": [[0.1, 1.0], [0, 1]]}}))
    base = ["rg", "--lmax", "0.5", "--dl", "0.01"]
    assert main(base + ["--out", str(tmp_path / "c.csv"), "--config", str(cfg)]) == 0
    assert main(base + ["--out", str(tmp_path / "f.csv"), "--initial", "0.1,1.0",
                        "--initial", "0,1"]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


@pytest.mark.parametrize("cmd,key", [("fig1", "k"), ("quench", "nsites"), ("rg", "initial")])
def test_cli_config_null_only_where_the_default_is_null(tmp_path, capsys, cmd, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    out = tmp_path / "t.csv"
    assert main([cmd, "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r} of {cmd} must be" in err and err.endswith("got None\n")
    assert "or null" not in err and not out.exists()


@pytest.mark.parametrize("item", [[0.1], [0.1, 1.0, 7], [True, 1.0]])
def test_cli_rg_config_initial_needs_pairs(tmp_path, capsys, item):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rg": {"initial": [[0.1, 1.0], item]}}))
    out = tmp_path / "rg.csv"
    assert main(["rg", "--out", str(out), "--config", str(cfg)]) == 2
    assert "[alpha, K] pairs" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_ints_reach_the_output_unconverted(tmp_path, capsys):
    # config values are checked, not converted: an int stays an int in stdout and stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"mode_tol": 0, "loop_tol": 0, "spectrum_tol": 0}}))
    argv = ["oracle", "--out", str(tmp_path / "o.csv"), "--steps", "1200", "--grid", "3",
            "--spectrum-cases", "2", "--config", str(cfg)]
    assert main(argv) == 1
    fails = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAIL")]
    assert fails and all(ln.endswith(" tol=0") for ln in fails)
    cfg.write_text(json.dumps({"tauq": [10]}))
    argv = ["quench", "--out", str(tmp_path / "q.csv"), "--nsites", "10", "--config", str(cfg)]
    assert main(argv) == 0
    assert '"tau_q": 10,' in capsys.readouterr().out


def test_cli_seed_only_on_oracle(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "--seed", "1", "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    sizes = ["--steps", "1200", "--grid", "3", "--spectrum-cases", "2"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    for name, extra in (("flag", ["--seed", "3"]), ("config", ["--config", str(cfg)])):
        assert main(["oracle", "--out", str(tmp_path / f"{name}.csv")] + sizes + extra) == 0
    grid, _ = oracle_report(seed=3, steps=1200, grid_size=3, spectrum_cases=2)
    seeded = grid.csv_text().encode("ascii")
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "config.csv").read_bytes() == seeded
    unseeded, _ = oracle_report(seed=0, steps=1200, grid_size=3, spectrum_cases=2)
    assert unseeded.csv_text() != grid.csv_text()


# command -> small base flags that every case of the command starts from
_BASE_FLAGS = {
    "fig1": ["--samples", "5"],
    "fig2": ["--samples", "5", "--alpha-samples", "3"],
    "quench": ["--nsites", "10", "--tauq", "1"],
    "rg": ["--lmax", "0.2", "--dl", "0.05"],
    "noncontract": ["--alpha", "0.5", "--nsites", "10"],
    "oracle": ["--steps", "200", "--grid", "1", "--spectrum-cases", "1", "--nsites", "4"],
}

# (command, option) -> (companion flags that let the option act, flags that move it)
_OPTION_CASES = {
    ("fig1", "k"): ([], ["--k", "0.5"]),
    ("fig1", "alpha"): ([], ["--alpha", "0.3"]),
    ("fig1", "tauq"): ([], ["--tauq", "3"]),
    ("fig1", "tmin"): ([], ["--tmin", "-2"]),
    ("fig1", "tmax"): ([], ["--tmax", "-0.5"]),
    ("fig1", "samples"): ([], ["--samples", "6"]),
    ("fig2", "k"): ([], ["--k", "0.5"]),
    ("fig2", "alpha_min"): ([], ["--alpha-min", "0.1"]),
    ("fig2", "alpha_max"): ([], ["--alpha-max", "0.9"]),
    ("fig2", "alpha_samples"): ([], ["--alpha-samples", "4"]),
    ("fig2", "tmin"): ([], ["--tmin", "-2"]),
    ("fig2", "tmax"): ([], ["--tmax", "-0.5"]),
    ("fig2", "samples"): ([], ["--samples", "6"]),
    ("quench", "nsites"): ([], ["--nsites", "12"]),
    ("quench", "tauq"): ([], ["--tauq", "2"]),
    ("quench", "safety_factor"): ([], ["--safety-factor", "0.1"]),  # tau_q = 1 turns adiabatic
    ("quench", "alpha"): ([], ["--alpha", "0.5"]),
    ("quench", "evolve"): ([], ["--evolve"]),
    ("quench", "evolve_modes"): (["--evolve"], ["--evolve-modes", "1"]),
    ("quench", "dt"): (["--evolve"], ["--dt", "0.01"]),
    ("quench", "b_start"): ([], ["--b-start", "3"]),
    ("rg", "initial"): ([], ["--initial", "0.2,0.4"]),
    ("rg", "lmax"): ([], ["--lmax", "0.3"]),
    ("rg", "dl"): ([], ["--dl", "0.1"]),
    ("rg", "alpha_cap"): ([], ["--alpha-cap", "0.1"]),  # the K = 1 start stops at once
    ("rg", "classify"): ([], ["--classify"]),
    ("rg", "field"): (["--classify"], ["--field", "10"]),
    # at B = 0.03 the K = 1 start sits just inside the Luttinger band around M = 0.05
    ("rg", "cutoff"): (["--classify", "--field", "0.03"], ["--cutoff", "100"]),
    ("rg", "band"): (["--classify", "--field", "0.03"], ["--band", "0.1"]),
    ("noncontract", "field"): ([], ["--field", "0.2"]),
    ("noncontract", "alpha"): ([], ["--alpha", "0.1"]),
    ("noncontract", "nsites"): ([], ["--nsites", "20"]),
    ("oracle", "steps"): ([], ["--steps", "300"]),
    ("oracle", "grid"): ([], ["--grid", "2"]),
    ("oracle", "nsites"): ([], ["--nsites", "6"]),
    ("oracle", "k"): ([], ["--k", "1.0"]),
    ("oracle", "mode_tol"): ([], ["--mode-tol", "1e-12"]),
    ("oracle", "loop_tol"): ([], ["--loop-tol", "1e-12"]),
    ("oracle", "spectrum_tol"): ([], ["--spectrum-tol", "1e-30"]),
    ("oracle", "spectrum_cases"): ([], ["--spectrum-cases", "2"]),
    ("oracle", "seed"): ([], ["--seed", "1"]),
}


def test_cli_every_option_has_an_effect(tmp_path, capsys, monkeypatch):
    # a flag exists only where its command reads it: moving any option off its
    # default changes the CSV bytes, stdout or exit code; out and summary only name files
    options = {(cmd, name) for cmd, entry in COMMANDS.items() for name in entry[-1]
               if name not in ("out", "summary")}
    assert set(_OPTION_CASES) == options
    monkeypatch.chdir(tmp_path)
    runs = {}

    def run(cmd, flags):
        key = (cmd, *flags)
        if key not in runs:
            for old in tmp_path.iterdir():
                old.unlink()
            rc = main([cmd, *_BASE_FLAGS[cmd], *flags, "--out", "t.csv"])
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            runs[key] = (rc, capsys.readouterr().out, files)
        return runs[key]

    inert = []
    for (cmd, name), (companions, moved) in _OPTION_CASES.items():
        base, changed = run(cmd, companions), run(cmd, companions + moved)
        assert base[0] != 2 and changed[0] != 2, f"{cmd} --{name}: not a valid value"
        if base == changed:
            inert.append(f"{cmd} --{name}")
    assert inert == []


def test_cli_fig1_default_momentum_is_pi_over_100(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--out", str(out), "--tauq", "1", "--alpha", "0.5"]) == 0
    first = _read_csv(out)[0]
    assert float(first["t_over_tauq"]) == -3.0
    assert float(first["gamma_k"]) == float(mode_phase(math.pi / 100, 3.0, 0.5))


def test_cli_refuses_a_handler_that_returns_fewer_tables_than_paths(tmp_path, capsys,
                                                                    monkeypatch):
    handler, help_line, options = COMMANDS["fig2"]
    one = SweepGrid({"value": np.array([1.0])})
    monkeypatch.setitem(COMMANDS, "fig2", (lambda o: ([(one, {})], [], 0), help_line, options))
    assert main(["fig2", "--out", str(tmp_path / "surf.csv")]) == 2
    assert "zip() argument 2 is longer than argument 1" in capsys.readouterr().err


def test_cli_bad_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])  # no subcommand at all
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def _one_row(**row):
    return SweepGrid({name: np.array([v]) for name, v in row.items()})


# command -> (the builder it calls, tables of which the last breaks its bounds)
_BROKEN = {
    "fig1": ("fig1_grid", lambda: _one_row(t_over_tauq=0.0, tau_q=1.0, alpha=0.5, gamma_k=100.0)),
    "fig2": ("fig2_grids", lambda: (_one_row(alpha=0.5, t_over_tauq=0.0, value=1.0),
                                    _one_row(alpha=0.5, t_over_tauq=0.0, value=-1.0))),
}


@pytest.mark.parametrize("cmd", sorted(_BROKEN))
def test_cli_invariant_violation_exit_1(tmp_path, monkeypatch, cmd):
    # every table is checked before any is written, so a breach leaves no file
    builder, tables = _BROKEN[cmd]
    monkeypatch.setattr(sweeps, builder, lambda *args, **kwargs: tables())
    assert main([cmd, "--out", str(tmp_path / "bad.csv")]) == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_eigensolve_residual_breach_is_one_line_exit_1(tmp_path, monkeypatch, capsys):
    # a loop whose eigensolve misses the residual bound fails the run as a bound breach does
    monkeypatch.setattr(edoracle, "_RESIDUAL_TOL", 0.0)
    monkeypatch.chdir(tmp_path)
    argv = ["oracle", "--nsites", "4", "--grid", "1", "--spectrum-cases", "1", "--steps", "200"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: eigensolve residual ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _required_only(cmd):
    """The tables of `cmd` from its builder, given only the arguments that have no default."""
    o = COMMANDS[cmd][2]
    if cmd == "fig1":
        return [fig1_grid(k=o["k"], alphas=o["alpha"], tau_qs=o["tauq"])]
    if cmd == "fig2":
        return list(fig2_grids(k=o["k"]))
    if cmd == "quench":
        return [quench_grids()[0]]  # the summary is written only under --summary
    if cmd == "rg":
        return [rg_grid(cli._parse_initial(o["initial"]))]
    if cmd == "noncontract":
        return [noncontract_grid()]
    return [oracle_report()[0]]


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
def test_builder_defaults_are_the_command_defaults(tmp_path, monkeypatch, cmd):
    # the defaults are stated twice, in COMMANDS and in the builders' signatures
    monkeypatch.chdir(tmp_path)
    assert main([cmd]) == 0
    paths = cli._table_paths(cmd, COMMANDS[cmd][2])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(paths)
    written = [(tmp_path / path).read_text(encoding="ascii") for path in paths]
    assert written == [grid.csv_text() for grid in _required_only(cmd)]


def test_cli_emitted_phase_values_in_range(tmp_path):
    out = tmp_path / "f.csv"
    main(["fig1", "--out", str(out), "--samples", "100"])
    for r in _read_csv(out):
        if r["gamma_k"] != "":
            assert 0.0 <= float(r["gamma_k"]) <= TWO_PI


def test_mode_phase_matches_fig1_cells():
    grid = fig1_grid(k=0.5, alphas=[0.7], tau_qs=[2.0], samples=7)
    for x, tq, a, g in _rows(grid):
        assert g == pytest.approx(float(mode_phase(0.5, abs(x), 0.7)), rel=1e-14)

