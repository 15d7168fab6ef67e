"""Command-line front end: sweeps, quench statistics, RG trajectories, oracle suite.

Every command writes RFC-4180-style CSV (header row, LF endings, '.'
decimal, 17 significant digits) and is deterministic: identical options
and seed give byte-identical files.  Exit codes: 0 success, 1 oracle or
output-invariant failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import sweeps
from .chain import ChainSpec, momentum_grid
from .geophase import phase_summary
from .quench import kink_count
from .rgflow import classify_phase
from .sweeps import InvariantViolation

TWO_PI = 2.0 * math.pi

DEFAULTS = {
    "fig1": {
        "k": math.pi / 100,
        "alpha": [0.5, 0.0],
        "tauq": [1.0, 2.0, 5.0, 10.0],
        "tmin": -3.0,
        "tmax": 0.0,
        "samples": 600,
    },
    "fig2": {
        "k": math.pi / 2,
        "tauq": 1.0,
        "alpha_min": 0.0,
        "alpha_max": 1.0,
        "alpha_samples": 200,
        "tmin": -3.0,
        "tmax": 0.0,
        "samples": 200,
    },
    "quench": {
        "nsites": 100,
        "tauq": [1.0, 10.0, 100.0, 1000.0],
        "safety_factor": 10.0,
        "alpha": 1.0,
        "evolve": False,
        "evolve_modes": 4,
        "dt": None,
        "b_start": 5.0,
        "summary": None,
    },
    "rg": {
        "initial": ["0.1,1.0", "0.1,0.3", "0.0,0.3"],
        "lmax": 5.0,
        "dl": 1e-3,
        "alpha_cap": 1e3,
        "classify": False,
        "field": 0.0,
        "cutoff": 1.0,
        "band": 0.5,
    },
    "noncontract": {
        "field": 0.5,
        "alpha": [10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4],
        "nsites": [100, 1000, 10000],
    },
    "oracle": {
        "steps": 10000,
        "grid": 20,
        "nsites": [4, 6],
        "k": math.pi / 2,
        "mode_tol": 1e-4,
        "loop_tol": 1e-3,
        "spectrum_tol": 1e-10,
        "spectrum_cases": 20,
    },
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output CSV path (default <command>.csv)")
    p.add_argument("--seed", type=int, default=None, help="random seed for sampled cases")
    p.add_argument("--config", default=None, help="JSON config file; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyquench",
        description="Quantum phases and quench dynamics of the anisotropic XY chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="Gamma_k(t) series for a tau_q list (plus alpha=0 inset)")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--alpha", type=float, action="append", default=None)
    p.add_argument("--tauq", type=float, action="append", default=None)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("fig2", help="Gamma_k and dGamma_k/dB surfaces over (alpha, t)")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--tauq", type=float, default=None)
    p.add_argument("--alpha-min", type=float, default=None)
    p.add_argument("--alpha-max", type=float, default=None)
    p.add_argument("--alpha-samples", type=int, default=None)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("quench", help="kink statistics and adiabaticity per tau_q")
    p.add_argument("--nsites", type=int, default=None)
    p.add_argument("--tauq", type=float, action="append", default=None)
    p.add_argument("--safety-factor", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--evolve", action="store_true", default=False,
                   help="add a real-time cross-check column for the smallest modes")
    p.add_argument("--evolve-modes", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--b-start", type=float, default=None)
    p.add_argument("--summary", default=None, help="also write the per-tau_q summary CSV here")
    _add_common(p)

    p = sub.add_parser("rg", help="RG trajectories (and optional phase classification)")
    p.add_argument("--initial", action="append", default=None, metavar="ALPHA,K")
    p.add_argument("--lmax", type=float, default=None)
    p.add_argument("--dl", type=float, default=None)
    p.add_argument("--alpha-cap", type=float, default=None)
    p.add_argument("--classify", action="store_true", default=False,
                   help="print the phase label for each initial condition at --field")
    p.add_argument("--field", type=float, default=None)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--band", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("noncontract", help="Gamma_g/M ladder over anisotropies and sizes")
    p.add_argument("--field", type=float, default=None)
    p.add_argument("--alpha", type=float, action="append", default=None)
    p.add_argument("--nsites", type=int, action="append", default=None)
    _add_common(p)

    p = sub.add_parser("oracle", help="analytic-vs-numeric equivalence suite")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--nsites", type=int, action="append", default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--mode-tol", type=float, default=None)
    p.add_argument("--loop-tol", type=float, default=None)
    p.add_argument("--spectrum-tol", type=float, default=None)
    p.add_argument("--spectrum-cases", type=int, default=None)
    _add_common(p)

    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    cmd = args.command
    opts = dict(DEFAULTS[cmd])
    opts.update({"out": f"{cmd}.csv", "seed": 0})
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        section = cfg.get(cmd, cfg)
        if not isinstance(section, dict):
            raise ValueError(f"config section for {cmd!r} must be an object")
        for key, val in section.items():
            opts[key.replace("-", "_")] = val
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is None:
            continue
        if val is False and key in ("evolve", "classify"):
            continue  # store_true flags only override when given
        opts[key] = val
    return opts


def _parse_initial(items) -> list:
    out = []
    for item in items:
        if isinstance(item, (list, tuple)):
            a, k = float(item[0]), float(item[1])
        else:
            parts = str(item).split(",")
            if len(parts) != 2:
                raise ValueError(f"--initial expects 'alpha,K', got {item!r}")
            a, k = float(parts[0]), float(parts[1])
        out.append((a, k))
    return out


def _run_fig1(o) -> int:
    grid = sweeps.fig1_grid(
        k=o["k"], alphas=o["alpha"], tau_qs=o["tauq"],
        tmin=o["tmin"], tmax=o["tmax"], samples=o["samples"],
    )
    sweeps.validate_bounds(grid, {"gamma_k": (0.0, TWO_PI)})
    grid.write_csv(o["out"])
    print(f"wrote {o['out']} ({len(grid)} rows)")
    return 0


def _fig2_paths(out: str) -> tuple:
    stem = out[:-4] if out.endswith(".csv") else out
    return f"{stem}_gamma.csv", f"{stem}_dgamma.csv"


def _run_fig2(o) -> int:
    phase, deriv = sweeps.fig2_grids(
        k=o["k"], tau_q=o["tauq"],
        alpha_min=o["alpha_min"], alpha_max=o["alpha_max"], alpha_samples=o["alpha_samples"],
        tmin=o["tmin"], tmax=o["tmax"], samples=o["samples"],
    )
    sweeps.validate_bounds(phase, {"value": (0.0, TWO_PI)})
    sweeps.validate_bounds(deriv, {"value": (0.0, math.inf)})
    p_path, d_path = _fig2_paths(o["out"])
    phase.write_csv(p_path)
    deriv.write_csv(d_path)
    print(f"wrote {p_path} ({len(phase)} rows)")
    print(f"wrote {d_path} ({len(deriv)} rows)")
    return 0


def _run_quench(o) -> int:
    modes, summary = sweeps.quench_grids(
        n_sites=o["nsites"], tau_qs=o["tauq"], safety_factor=o["safety_factor"],
        alpha=o["alpha"], evolve=o["evolve"], evolve_modes=o["evolve_modes"],
        dt=o["dt"], b_start=o["b_start"],
    )
    sweeps.validate_bounds(modes, {"p_k": (0.0, 1.0)})
    modes.write_csv(o["out"])
    print(f"wrote {o['out']} ({len(modes)} rows)")
    if o["summary"]:
        summary.write_csv(o["summary"])
        print(f"wrote {o['summary']} ({len(summary)} rows)")
    spec = ChainSpec(n_sites=o["nsites"], alpha=o["alpha"])
    k0 = float(momentum_grid(spec)[0])
    for tau_q in o["tauq"]:
        rep = kink_count(spec, tau_q, safety_factor=o["safety_factor"])
        excluded = (k0,) if rep.adiabatic else ()
        ps = phase_summary(spec, b_initial=o["b_start"], excluded=excluded)
        print(json.dumps({
            "tau_q": tau_q,
            "kink_count": rep.kink_count,
            "threshold": rep.threshold,
            "adiabatic": rep.adiabatic,
            "gamma_initial": ps.gamma_initial,
            "gamma_critical": ps.gamma_critical,
            "gamma_final": ps.gamma_final,
            "excluded_modes": sorted(ps.excluded_modes),
        }, sort_keys=True))
    return 0


def _run_rg(o) -> int:
    initials = _parse_initial(o["initial"])
    grid = sweeps.rg_grid(initials, l_max=o["lmax"], dl=o["dl"], alpha_cap=o["alpha_cap"])
    grid.write_csv(o["out"])
    print(f"wrote {o['out']} ({len(grid)} rows)")
    if o["classify"]:
        for a0, k0 in initials:
            if k0 > 0.5 and a0 <= 0.0:
                label_value = None  # gap formula undefined on the alpha = 0 fixed line
            else:
                label_value = classify_phase(
                    K=k0, alpha=a0, B=o["field"], cutoff=o["cutoff"], band=o["band"]
                ).value
            print(json.dumps({
                "alpha": a0, "K": k0, "field": o["field"], "phase": label_value,
            }, sort_keys=True))
    return 0


def _run_noncontract(o) -> int:
    grid = sweeps.noncontract_grid(field=o["field"], alphas=o["alpha"], sizes=o["nsites"])
    sweeps.validate_bounds(grid, {"gamma_g_over_m": (0.0, TWO_PI)})
    grid.write_csv(o["out"])
    print(f"wrote {o['out']} ({len(grid)} rows)")
    return 0


def _run_oracle(o) -> int:
    grid, failures = sweeps.oracle_report(
        seed=o["seed"], steps=o["steps"], grid_size=o["grid"], nsites=o["nsites"],
        k=o["k"], mode_tol=o["mode_tol"], loop_tol=o["loop_tol"],
        spectrum_tol=o["spectrum_tol"], spectrum_cases=o["spectrum_cases"],
    )
    grid.write_csv(o["out"])
    print(f"wrote {o['out']} ({len(grid)} rows)")
    if failures:
        # each family's tolerance as given: a float tol column would print an int one as 1.0
        tols = {"mode": o["mode_tol"], "loop": o["loop_tol"], "spectrum": o["spectrum_tol"]}
        cols = (grid.columns[c].tolist() for c in ("case", "abs_diff", "status"))
        for case, diff, status in zip(*cols):
            if status in ("fail", "degenerate"):
                tol = tols[case.split("_")[0]]
                print(f"FAIL {case}: |diff|={diff!r} tol={tol!r}", file=sys.stderr)
        print(f"oracle: {failures} case(s) breached tolerance", file=sys.stderr)
        return 1
    print("oracle: all cases within tolerance")
    return 0


_HANDLERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "quench": _run_quench,
    "rg": _run_rg,
    "noncontract": _run_noncontract,
    "oracle": _run_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
        return _HANDLERS[args.command](opts)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
