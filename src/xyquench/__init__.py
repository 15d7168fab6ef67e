"""Quantum phases and quench dynamics of the anisotropic XY chain in a transverse field."""

from .chain import (
    ChainSpec,
    DegeneratePointError,
    bogoliubov_angle,
    momentum_grid,
)
from .edoracle import (
    GroundState,
    LoopResult,
    MAX_SITES,
    berry_phase_loop,
    build_hamiltonian,
    free_fermion_levels,
    ground_state,
    mode_berry_numeric,
)
from .geophase import (
    PhaseSummary,
    critical_phase,
    dphase_db,
    final_phase,
    mode_phase,
    noncontractibility_scan,
    phase_summary,
    total_phase,
)
from .quench import (
    EvolveResult,
    KinkReport,
    QuenchSchedule,
    adiabatic_threshold,
    evolve_mode,
    kink_count,
    lz_probability,
)
from .rgflow import (
    COMPLETED,
    PhaseLabel,
    RGState,
    RGTrajectory,
    STRONG_COUPLING,
    classify_phase,
    mass_gap,
    rg_flow,
)
from .sweeps import InvariantViolation, SweepGrid

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "DegeneratePointError",
    "bogoliubov_angle",
    "momentum_grid",
    "GroundState",
    "LoopResult",
    "MAX_SITES",
    "berry_phase_loop",
    "build_hamiltonian",
    "free_fermion_levels",
    "ground_state",
    "mode_berry_numeric",
    "PhaseSummary",
    "critical_phase",
    "dphase_db",
    "final_phase",
    "mode_phase",
    "noncontractibility_scan",
    "phase_summary",
    "total_phase",
    "EvolveResult",
    "KinkReport",
    "QuenchSchedule",
    "adiabatic_threshold",
    "evolve_mode",
    "kink_count",
    "lz_probability",
    "COMPLETED",
    "PhaseLabel",
    "RGState",
    "RGTrajectory",
    "STRONG_COUPLING",
    "classify_phase",
    "mass_gap",
    "rg_flow",
    "InvariantViolation",
    "SweepGrid",
    "__version__",
]
