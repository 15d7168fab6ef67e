"""Seeded inputs of the four benchmark workloads.

A plan is a plain dict: the inputs drawn from the seed, the CLI argument
lists of one pass (``{out}`` stands for the pass's output directory),
the sizes the checks expect and the host-speed probe kernel that
speed.py times between segments of a pass.  The seed changes the values
the program gets, never the amount of work it does.  Why each workload
exists is in README.md.
"""

from __future__ import annotations

import math

import numpy as np

NAMES = ("sweeps", "quench-evolve", "ed-large", "oracle")

# Sizes at the CLI defaults, always passed as flags; the self-tests pass smaller ones.
ORACLE_SIZES = {"steps": 10000, "grid": 20, "spectrum_cases": 20}
SWEEPS_SIZES = {"fig1_samples": 600, "fig2_samples": 200, "fig2_alpha_samples": 200,
                "nsites": 100, "lmax": 5.0}
EVOLVE_SIZES = {"nsites": 100}

# ed-large draws each loop from a box of the (alpha, B) plane whose N = 8
# ground-state parity is known from a scan of the even/odd splitting: the
# even box stays >= 2e-4 above the odd level, the odd box >= 1.7e-2 below
# the even one.  Draws over the oracle's whole (alpha, B) range land in
# the odd sector about one time in three and move the loop error between
# 3e-6 and 2.5e-4, so the worst error would follow the seed, not the code.
ED_EVEN_BOX = ((0.95, 1.05), (0.45, 0.55))
ED_ODD_BOX = ((0.30, 0.40), (0.30, 0.45))
ED_SITES = 8
ED_STEPS = 200
ED_SPECTRUM_SITES = 10

# quench-evolve draws alpha from the top of [0.5, 1]: the check's worst
# |p_evolved - exp(-2 pi tau_q alpha^2 sin^2 k)| is set by the tau_q = 1
# sweep and grows from 4.6e-3 at alpha = 0.5 to 1.4e-2 at alpha = 1, so a
# draw over the whole interval would make err_to_tol follow the seed.
EVOLVE_ALPHA = (0.95, 1.0)


def plan(workload: str, seed: int, sizes: dict | None = None) -> dict:
    """Inputs of one workload at one seed; `sizes` overrides the default sizes."""
    builders = {"sweeps": _sweeps, "quench-evolve": _quench_evolve, "ed-large": _ed_large,
                "oracle": _oracle}
    return builders[workload](np.random.default_rng(seed), seed, sizes or {})


def _oracle(rng, seed, sizes):
    s = {**ORACLE_SIZES, **sizes}
    argv = ["oracle", "--seed", str(seed), "--out", "{out}/oracle.csv",
            "--steps", str(s["steps"]), "--grid", str(s["grid"]),
            "--spectrum-cases", str(s["spectrum_cases"])]
    return {"workload": "oracle", "commands": [argv], "seed": seed, "sizes": s,
            "probe": "python"}


def _quench_evolve(rng, seed, sizes):
    s = {**EVOLVE_SIZES, **sizes}
    alpha = float(rng.uniform(*EVOLVE_ALPHA))
    argv = ["quench", "--evolve", "--alpha", repr(alpha), "--out", "{out}/quench.csv",
            "--nsites", str(s["nsites"])]
    return {"workload": "quench-evolve", "commands": [argv], "alpha": alpha, "sizes": s,
            "probe": "python"}


def _sweeps(rng, seed, sizes):
    s = {**SWEEPS_SIZES, **sizes}
    fig1_k = float(rng.uniform(math.pi / 200, math.pi / 50))
    fig2_k = float(rng.uniform(math.pi / 4, 3 * math.pi / 4))
    field = float(rng.uniform(-0.9, 0.9))
    # One relevant (K > 1/2), one irrelevant and one fixed-line start, as in
    # the CLI defaults; every trajectory stays below the alpha cap, so each
    # runs the full lmax/dl steps.
    initials = [
        (float(rng.uniform(0.05, 0.15)), float(rng.uniform(0.8, 1.2))),
        (float(rng.uniform(0.05, 0.15)), float(rng.uniform(0.25, 0.45))),
        (0.0, float(rng.uniform(0.25, 0.45))),
    ]
    commands = [
        ["fig1", "--k", repr(fig1_k), "--out", "{out}/fig1.csv",
         "--samples", str(s["fig1_samples"])],
        ["fig2", "--k", repr(fig2_k), "--out", "{out}/fig2.csv",
         "--samples", str(s["fig2_samples"]), "--alpha-samples", str(s["fig2_alpha_samples"])],
        ["quench", "--summary", "{out}/quench_summary.csv", "--out", "{out}/quench.csv",
         "--nsites", str(s["nsites"])],
        ["rg", "--classify", "--out", "{out}/rg.csv", "--lmax", repr(s["lmax"])],
        ["noncontract", "--field", repr(field), "--out", "{out}/noncontract.csv"],
    ]
    for a0, k0 in initials:
        commands[3] += ["--initial", f"{a0!r},{k0!r}"]
    return {"workload": "sweeps", "commands": commands, "fig1_k": fig1_k, "fig2_k": fig2_k,
            "field": field, "initials": initials, "sizes": s, "probe": "python"}


def _ed_large(rng, seed, sizes):
    s = {"sites": ED_SITES, "steps": ED_STEPS, "spectrum_sites": ED_SPECTRUM_SITES, **sizes}
    loops = []
    for (a_lo, a_hi), (b_lo, b_hi) in (ED_EVEN_BOX, ED_ODD_BOX):
        loops.append((float(rng.uniform(a_lo, a_hi)), float(rng.uniform(b_lo, b_hi))))
    # Spectrum pair drawn like the oracle's spectrum cases.
    a, b, p = rng.uniform(0.0, 1.0, 3)
    spectrum = (1.5 * float(a), 2.0 * float(b), math.pi * float(p))
    return {"workload": "ed-large", "commands": [], "loops": loops, "spectrum": spectrum,
            "sizes": s, "probe": "blas"}
