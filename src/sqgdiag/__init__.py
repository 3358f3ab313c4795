"""Pseudo-spectral solver for the dissipative SQG equation with fractional
diffusion, plus the diagnostics that verify the quantitative estimates of
its eventual-regularization theory: decay of norms, level-set energy
inequalities, the weighted half-space extension and its Neumann trace, tail
integrals, weighted De Giorgi lemmas, the flow-following oscillation
iteration, and the explicit constant-selection system.
"""

from .spectral import (
    Grid,
    ScalarField,
    VelocityField,
    fractional_laplacian,
    l2_norm,
    random_band_limited,
    riesz_velocity,
    sobolev_norm,
)
from .solver import (
    BlowUpError,
    SolverConfig,
    audit_energy,
    check_l2_monotone,
    check_linf_decay,
    read_checkpoint,
    run,
    truncate_level,
    write_checkpoint,
)
from .extension import (
    ExtensionField,
    extend,
    neumann_trace,
    calibrate_dtn_constant,
    weighted_dirichlet_energy,
)
from .degiorgi import (
    ISOPERIMETRIC_CONSTANT,
    LOCAL_ENERGY_CONSTANT,
    WeightedRegion,
    isoperimetric_check,
    local_energy_check,
    weighted_measure,
)
from .oscillation import (
    IterationConfig,
    ParabolicCylinder,
    recenter_flow,
    rescale_recenter,
    run_iteration_suite,
    tail_integral,
)
from .constants import (
    ConstantLedger,
    InfeasibleConstants,
    build_ledger,
    choose_delta,
    choose_rho,
)
from .harness import RunConfig, RunReport, diagnose, load_config, parse_config, simulate

__version__ = "0.1.0"
