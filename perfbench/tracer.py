"""Per-layer spans recorded from outside the package.

The traced run replaces each public function listed in SPANS with a
wrapper that times the call.  Most callers reach a function through a
name bound by ``from .x import f``, so the wrapper goes on the caller's
binding (``sweeps.evolve_mode``, ``cli.kink_count``, ...); functions that
their own module calls as globals (``edoracle.ground_state``,
``geophase.total_phase``) are patched in their module.  A span's self
time is its duration minus the durations of the spans opened inside it.
Spans are aggregated by name as they close; the stack assumes one thread,
which holds at the CLI default ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# span name -> bindings "module:attribute" that reach the function.
# Names ending in ".grid" or ".other" aggregate several functions.
SPANS = {
    "cli.main": ["cli:main"],
    "sweeps.csv_text": ["sweeps:SweepGrid.csv_text"],
    "sweeps.write_csv": ["sweeps:SweepGrid.write_csv"],
    "sweeps.validate_bounds": ["sweeps:validate_bounds"],
    "sweeps.grid": [
        "sweeps:fig1_grid", "sweeps:fig2_grids", "sweeps:quench_grids", "sweeps:rg_grid",
        "sweeps:noncontract_grid", "sweeps:oracle_report", "sweeps:_gamma_cells",
        "sweeps:_deriv_cells",
    ],
    "geophase.total_phase": ["geophase:total_phase", "sweeps:total_phase"],
    "geophase.mode_phase": ["geophase:mode_phase", "sweeps:mode_phase"],
    "geophase.other": [
        "cli:phase_summary", "geophase:critical_phase", "geophase:final_phase",
        "sweeps:noncontractibility_scan",
    ],
    "chain.bogoliubov_angle": ["geophase:bogoliubov_angle"],
    "quench.kink_count": ["sweeps:kink_count", "cli:kink_count"],
    "quench.evolve_mode": ["sweeps:evolve_mode"],
    "rgflow.rg_flow": ["sweeps:rg_flow"],
    "rgflow.other": ["cli:classify_phase"],
    "edoracle.ground_state": ["edoracle:ground_state"],
    "edoracle.berry_phase_loop": ["edoracle:berry_phase_loop", "sweeps:berry_phase_loop"],
    "edoracle.build_hamiltonian": ["edoracle:build_hamiltonian", "sweeps:build_hamiltonian"],
    "edoracle.mode_berry_numeric": ["sweeps:mode_berry_numeric"],
}

LAYERS = ("cli", "sweeps", "geophase", "chain", "quench", "rgflow", "edoracle")

# Per-layer metrics a traced pass reports, in BENCHMARK.json order; run.py
# adds edoracle.loops_checked_ratio (from the checks) and trace_overhead.
PASS_METRICS = (
    "edoracle.ground_state.calls", "edoracle.ground_state.self_s", "edoracle.ground_state.dim3",
    "edoracle.berry_phase_loop.calls", "edoracle.berry_phase_loop.self_s",
    "edoracle.build_hamiltonian.calls", "edoracle.build_hamiltonian.self_s",
    "edoracle.build_hamiltonian.bytes",
    "edoracle.mode_berry_numeric.calls", "edoracle.mode_berry_numeric.self_s",
    "edoracle.self_s",
    "quench.evolve_mode.calls", "quench.evolve_mode.self_s", "quench.kink_count.calls",
    "quench.self_s",
    "sweeps.csv_text.self_s", "sweeps.csv_bytes", "sweeps.write_csv.self_s",
    "sweeps.grid.self_s", "sweeps.validate_bounds.self_s", "sweeps.self_s",
    "geophase.total_phase.calls", "geophase.total_phase.self_s",
    "geophase.mode_phase.calls", "geophase.mode_phase.self_s", "geophase.self_s",
    "chain.bogoliubov_angle.calls", "chain.bogoliubov_angle.self_s",
    "rgflow.rg_flow.calls", "rgflow.rg_flow.self_s", "rgflow.rg_flow.steps", "rgflow.self_s",
    "cli.self_s", "bench.self_s",
)


# span name -> (counter name, work count from the call's arguments and result)
COUNTERS = {
    "edoracle.ground_state": ("edoracle.ground_state.dim3", lambda a, r: a[0].shape[0] ** 3),
    "edoracle.build_hamiltonian": ("edoracle.build_hamiltonian.bytes", lambda a, r: r.nbytes),
    "sweeps.csv_text": ("sweeps.csv_bytes", lambda a, r: len(r)),
    "rgflow.rg_flow": ("rgflow.rg_flow.steps", lambda a, r: len(r.states) - 1),
}


class Tracer:
    """Aggregated spans of one traced pass: calls and self seconds per name."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in (*SPANS, "bench.pass")}
        self.counters = {key: 0 for key, _ in COUNTERS.values()}
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        key, count = COUNTERS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                counters[key] += count(args, result)
            return result

        return traced

    def install(self):
        """Replace every binding in SPANS with its traced wrapper."""
        for name, bindings in SPANS.items():
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrapped_calls(self) -> int:
        return sum(self.stats[name][0] for name in SPANS)

    def layer_metrics(self) -> dict:
        """Values of PASS_METRICS for this pass."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[1] for n, s in self.stats.items() if n.split(".")[0] == layer)
        out["bench.self_s"] = self.stats["bench.pass"][1]
        out.update(self.counters)
        return {name: out[name] for name in PASS_METRICS}


def wrapper_cost(calls=20000, repeats=5) -> float:
    """Seconds a traced wrapper adds to one call: best of `repeats` timings of a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("bench.pass", noop)
    best = {}
    for fn in (noop, wrapped):
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best.get(fn, float("inf")), perf_counter() - t0)
    return max(0.0, (best[wrapped] - best[noop]) / calls)


def _resolve(binding):
    module, path = binding.split(":")
    owner = importlib.import_module(f"xyquench.{module}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr
