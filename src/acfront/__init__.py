"""Simulation and verification toolkit for curved travelling fronts of the
discrete Allen-Cahn equation on the 2D integer lattice."""

__version__ = "0.1.0"

from .core import (
    BistableNonlinearity,
    LatticeField,
    PhaseSequence,
    alpha,
    d2,
    d_minus,
    d_plus,
    deviation_seminorm,
)
from .errors import (
    AcFrontError,
    DegenerateKernel,
    FlatnessViolated,
    H0Violated,
    NewtonDiverged,
    NoDefinedRows,
    NonFinite,
    NumericalError,
    OutOfRange,
    OverflowGuard,
    PinningDetected,
    PreAsymptotic,
    SolveFailed,
    UndefinedRows,
    VerificationFailed,
)
from .wave import (
    WaveProfile,
    adjoint_solve,
    c_theta,
    compute_d,
    dispersion,
    load_wave,
    mfde_residual,
    phi_inverse,
    solve_r,
    solve_wave,
    save_wave,
)

__all__ = [
    "BistableNonlinearity", "LatticeField", "PhaseSequence",
    "alpha", "d2", "d_minus", "d_plus", "deviation_seminorm",
    "AcFrontError", "DegenerateKernel", "FlatnessViolated", "H0Violated",
    "NewtonDiverged", "NoDefinedRows", "NonFinite", "NumericalError",
    "OutOfRange", "OverflowGuard", "PinningDetected", "PreAsymptotic",
    "SolveFailed", "UndefinedRows", "VerificationFailed",
    "WaveProfile", "adjoint_solve", "c_theta", "compute_d", "dispersion",
    "load_wave", "mfde_residual", "phi_inverse", "solve_r", "solve_wave",
    "save_wave",
    "__version__",
]
