"""Numerical laboratory for a 1D Klein-Gordon field coupled to point oscillators."""

from .model import (
    AssumptionReport,
    DerivedBounds,
    LowerBoundConstants,
    ModelSpec,
    OscillatorSpec,
    UnboundedPotentialError,
    check_assumptions,
    derived_bounds,
    force,
    lower_bound_constants,
    potential,
)
from .solitary import (
    ConvergedToZero,
    NoConvergence,
    SolitaryWave,
    amplitude_residual,
    continue_branch,
    kappa,
    profile_eval,
    solve_profile,
)
from .simulator import (
    FieldState,
    Grid,
    ManifoldDistance,
    NoCommensurateGrid,
    ObserverSeries,
    apriori_bound,
    build_grid,
    charge,
    dist_to_manifold,
    energy_norm,
    evolve,
    hamiltonian,
    local_seminorm,
    metric_dist,
    perturbed_solitary_state,
    solitary_state,
    step,
)
from .spectral import (
    SpectrumEstimate,
    SupportBounds,
    band_mass,
    in_band_check,
    support_bounds,
    time_spectrum,
    titchmarsh_check,
)
from .counterexamples import (
    Degenerate,
    GapTooSmall,
    LinearDegParams,
    NoSolution,
    VerificationReport,
    WideGapParams,
    init_from,
    linear_deg_construct,
    linear_deg_eval,
    verify_exact,
    wide_gap_construct,
    wide_gap_eval,
)

__version__ = "0.1.0"
