"""Command-line front end: sweeps, quench statistics, RG trajectories, oracle suite.

Every command writes RFC-4180-style CSV (header row, LF endings, '.'
decimal, 17 significant digits) and is deterministic: identical options
give byte-identical files (`oracle` alone samples, from `--seed`).  Exit
codes: 0 success, 1 oracle or output-invariant failure, 2 bad arguments.
A command is one `COMMANDS` entry (handler, help line, options).  Its handler
only computes; `main` checks the output paths that `_table_paths` gives
before the handler runs, and every table it returns against its bounds,
then writes the tables to those paths in order and prints, so a refused
argument or a bound breach leaves no file.

`--config` takes a JSON object, sectioned by command if any top-level key
names one (then only that section applies and every top-level key must be
a command), else flat.  Each key must be an option of the command and each
value of its `COMMANDS` default's kind (an int passes for a float, null
only where the default is null); values are checked, not converted, and
explicit flags win.  A breach, or a float option that is not finite, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

from . import sweeps
from .chain import ChainSpec, momentum_grid
from .geophase import phase_summary
from .quench import kink_count
from .rgflow import classify_phase
from .sweeps import TWO_PI, InvariantViolation

# The kind of each option whose default is None; `config` is a flag of every command.
_NONE_KINDS = {"dt": float, "summary": str, "config": str}

_FLAG_EXTRAS = {
    "evolve": {"help": "add a real-time cross-check column for the smallest modes"},
    "summary": {"help": "also write the per-tau_q summary CSV here"},
    "initial": {"metavar": "ALPHA,K"},
    "classify": {"help": "print the phase label for each initial condition at --field"},
    "out": {"help": "output CSV path (default <command>.csv)"},
    "seed": {"help": "random seed for sampled cases"},
    "config": {"help": "JSON config file; explicit flags win"},
}


# built once per process: main may run many times in one interpreter, and each
# rebuild leaves small argparse objects behind that fragment the heap
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyquench",
        description="Quantum phases and quench dynamics of the anisotropic XY chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_, help_line, options) in COMMANDS.items():
        p = sub.add_parser(cmd, help=help_line)
        for name, default in {**options, "config": None}.items():
            kw = dict(_FLAG_EXTRAS.get(name, {}))
            if isinstance(default, list):
                kw.update(action="append", type=type(default[0]))
            elif default is False:
                kw["action"] = "store_true"
            else:
                kw["type"] = _NONE_KINDS.get(name, type(default))
            # None marks a flag not given, so the config and table values show through
            p.add_argument("--" + name.replace("_", "-"), default=None, **kw)
    return parser


def _fits(val, kind: type) -> bool:
    """Whether `val` is a scalar of `kind`: an int counts as a float, a bool as neither."""
    if isinstance(val, bool) and kind is not bool:
        return False
    return isinstance(val, (int, float) if kind is float else kind)


def _config_values(cfg, cmd: str) -> dict:
    """The option values a parsed JSON config gives `cmd`, checked against the table."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{cmd} config must be a JSON object, got {type(cfg).__name__}")
    if any(key in COMMANDS for key in cfg):
        for key in cfg:
            if key not in COMMANDS:
                raise ValueError(f"{cmd} config is sectioned, but key {key!r} is not a command")
        if not isinstance(cfg.get(cmd), dict):
            raise ValueError(f"{cmd} config has sections {list(cfg)} but no {cmd!r} object")
        cfg = cfg[cmd]
    options = COMMANDS[cmd][2]
    values = {}
    for key, val in cfg.items():
        name = key.replace("-", "_")
        if name not in options:
            raise ValueError(f"config key {key!r} is not an option of {cmd}")
        default = options[name]
        kind = _NONE_KINDS.get(name, type(default))
        if kind is list:
            item = type(default[0])  # `initial` items are checked by _parse_initial
            ok = isinstance(val, list) and (item is str or all(_fits(v, item) for v in val))
        else:
            ok = _fits(val, kind) or (default is None and val is None)
        if not ok:
            null = " or null" if default is None else ""
            raise ValueError(f"config key {key!r} of {cmd} must be {kind.__name__}{null}, "
                             f"got {val!r}")
        values[name] = val
    return values


def _merge_options(args: argparse.Namespace) -> dict:
    cmd = args.command
    options = COMMANDS[cmd][2]
    opts = dict(options)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            opts.update(_config_values(json.load(fh), cmd))
    opts.update({k: v for k, v in vars(args).items() if k in options and v is not None})
    for key, val in opts.items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (val if isinstance(val, list) else [val])):
            raise ValueError(f"{cmd} option {key!r} must be finite, got {val!r}")
    return opts


def _parse_initial(items) -> list:
    out = []
    for item in items:
        if isinstance(item, (list, tuple)):
            if len(item) != 2 or not all(_fits(v, float) for v in item):
                raise ValueError(f"initial expects [alpha, K] pairs, got {item!r}")
            a, k = float(item[0]), float(item[1])
        else:
            parts = str(item).split(",")
            if len(parts) != 2:
                raise ValueError(f"--initial expects 'alpha,K', got {item!r}")
            a, k = float(parts[0]), float(parts[1])
        if not (math.isfinite(a) and math.isfinite(k)):
            raise ValueError(f"initial (alpha, K) must be finite, got {item!r}")
        out.append((a, k))
    return out


def _refuse_paths(paths) -> None:
    """Refuse two tables on one file, or a path that cannot name a new or existing file."""
    seen = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {path} are one file; give each table its own path")
        if os.path.isdir(real):
            raise ValueError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"cannot write {path}: its directory does not exist")
        seen[real] = path


def _table_paths(cmd: str, o: dict) -> list:
    """The files `cmd` writes with options o, in the order its handler returns the tables."""
    if cmd == "fig2":
        stem = o["out"][:-4] if o["out"].endswith(".csv") else o["out"]
        return [f"{stem}_gamma.csv", f"{stem}_dgamma.csv"]
    if cmd == "quench" and o["summary"]:
        return [o["out"], o["summary"]]
    return [o["out"]]


def _run_fig1(o):
    grid = sweeps.fig1_grid(
        k=o["k"], alphas=o["alpha"], tau_qs=o["tauq"],
        tmin=o["tmin"], tmax=o["tmax"], samples=o["samples"],
    )
    return [(grid, {"gamma_k": (0.0, TWO_PI)})], [], 0


def _run_fig2(o):
    phase, deriv = sweeps.fig2_grids(
        k=o["k"], alpha_min=o["alpha_min"], alpha_max=o["alpha_max"],
        alpha_samples=o["alpha_samples"], tmin=o["tmin"], tmax=o["tmax"], samples=o["samples"],
    )
    return [(phase, {"value": (0.0, TWO_PI)}), (deriv, {"value": (0.0, math.inf)})], [], 0


def _run_quench(o):
    modes, summary = sweeps.quench_grids(
        n_sites=o["nsites"], tau_qs=o["tauq"], safety_factor=o["safety_factor"],
        alpha=o["alpha"], evolve=o["evolve"], evolve_modes=o["evolve_modes"],
        dt=o["dt"], b_start=o["b_start"],
    )
    # the summary is a table of the run only if --summary names its file
    tables = [(modes, {"p_k": (0.0, 1.0)})] + ([(summary, {})] if o["summary"] else [])
    spec = ChainSpec(n_sites=o["nsites"], alpha=o["alpha"])
    k0 = float(momentum_grid(spec)[0])
    lines = []
    for tau_q in o["tauq"]:
        rep = kink_count(spec, tau_q, safety_factor=o["safety_factor"])
        ps = phase_summary(spec, b_initial=o["b_start"], drop_k0=rep.adiabatic)
        lines.append(json.dumps({
            "tau_q": tau_q,
            "kink_count": rep.kink_count,
            "threshold": rep.threshold,
            "adiabatic": rep.adiabatic,
            "gamma_initial": ps.gamma_initial,
            "gamma_critical": ps.gamma_critical,
            "gamma_final": ps.gamma_final,
            "excluded_modes": [k0] if rep.adiabatic else [],
        }, sort_keys=True))
    return tables, lines, 0


def _run_rg(o):
    initials = _parse_initial(o["initial"])
    grid = sweeps.rg_grid(initials, l_max=o["lmax"], dl=o["dl"], alpha_cap=o["alpha_cap"])
    lines = []
    if o["classify"]:
        for a0, k0 in initials:
            label = classify_phase(K=k0, alpha=a0, B=o["field"], cutoff=o["cutoff"], band=o["band"])
            lines.append(json.dumps({
                "alpha": a0, "K": k0, "field": o["field"], "phase": label and label.value,
            }, sort_keys=True))
    return [(grid, {})], lines, 0


def _run_noncontract(o):
    grid = sweeps.noncontract_grid(field=o["field"], alphas=o["alpha"], sizes=o["nsites"])
    return [(grid, {"gamma_g_over_m": (0.0, TWO_PI)})], [], 0


def _run_oracle(o):
    grid, failures = sweeps.oracle_report(
        seed=o["seed"], steps=o["steps"], grid_size=o["grid"], nsites=o["nsites"],
        k=o["k"], mode_tol=o["mode_tol"], loop_tol=o["loop_tol"],
        spectrum_tol=o["spectrum_tol"], spectrum_cases=o["spectrum_cases"],
    )
    lines = [f"FAIL {case}: |diff|={diff!r} tol={tol!r}" for case, diff, tol in failures]
    lines.append(f"oracle: {len(failures)} case(s) breached tolerance" if failures
                 else "oracle: all cases within tolerance")
    return [(grid, {})], lines, 1 if failures else 0


# command -> (handler, help line, options in flag order).  A handler maps the options
# to ([(grid, bounds)], message lines, exit code) without I/O, one table per path of
# _table_paths and in its order; main alone reads that rule.  The type of a default
# sets the flag's converter: a list makes it repeatable, False makes a switch.
COMMANDS = {
    "fig1": (_run_fig1, "Gamma_k(t) series for a tau_q list (plus alpha=0 inset)", dict(
        k=math.pi / 100, alpha=[0.5, 0.0], tauq=[1.0, 2.0, 5.0, 10.0], tmin=-3.0, tmax=0.0,
        samples=600, out="fig1.csv")),
    "fig2": (_run_fig2, "Gamma_k and dGamma_k/dB surfaces over (alpha, t)", dict(
        k=math.pi / 2, alpha_min=0.0, alpha_max=1.0, alpha_samples=200, tmin=-3.0,
        tmax=0.0, samples=200, out="fig2.csv")),
    "quench": (_run_quench, "kink statistics and adiabaticity per tau_q", dict(
        nsites=100, tauq=[1.0, 10.0, 100.0, 1000.0], safety_factor=10.0, alpha=1.0,
        evolve=False, evolve_modes=4, dt=None, b_start=5.0, summary=None, out="quench.csv")),
    "rg": (_run_rg, "RG trajectories (and optional phase classification)", dict(
        initial=["0.1,1.0", "0.1,0.3", "0.0,0.3"], lmax=5.0, dl=1e-3, alpha_cap=1e3,
        classify=False, field=0.0, cutoff=1.0, band=0.5, out="rg.csv")),
    "noncontract": (_run_noncontract, "Gamma_g/M ladder over anisotropies and sizes", dict(
        field=0.5, alpha=[10.0, 1.0, 0.1, 0.01, 1e-3, 1e-4], nsites=[100, 1000, 10000],
        out="noncontract.csv")),
    "oracle": (_run_oracle, "analytic-vs-numeric equivalence suite", dict(
        steps=10000, grid=20, nsites=[4, 6], k=math.pi / 2, mode_tol=1e-4, loop_tol=1e-3,
        spectrum_tol=1e-10, spectrum_cases=20, out="oracle.csv", seed=0)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        paths = _table_paths(args.command, opts)
        _refuse_paths(paths)
        # one plain stderr line per library warning, whatever -W or PYTHONWARNINGS say
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            tables, lines, code = COMMANDS[args.command][0](opts)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        for grid, bounds in tables:
            sweeps.validate_bounds(grid, bounds)
        for (grid, _), path in zip(tables, paths, strict=True):
            grid.write_csv(path)
            print(f"wrote {path} ({len(grid)} rows)")
        for line in lines:
            print(line, file=sys.stderr if code else sys.stdout)
        return code
    except (InvariantViolation, ArithmeticError) as exc:  # ArithmeticError: an eigensolve residual
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
