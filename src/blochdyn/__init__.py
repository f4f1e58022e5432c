"""Ballistic transport for periodic block Jacobi matrices.

Subpackages by concern:

- blockjacobi: operators, wave packets, window truncations
- floquet: Bloch fibers, band structure, the asymptotic velocity operator
- dynamics: unitary evolution, moments, transport exponents, diagnostics
- xychain: anisotropic XY spin chain and its free-fermion reduction
- limitperiodic: transfer matrices, Lyapunov exponents, staged constructions
- cli: the transportctl command-line frontend
"""

from .blockjacobi import (
    BlockJacobiOperator,
    BlockSpec,
    TruncatedOperator,
    WavePacket,
    build_operator,
    scalar_spec,
)
from .dynamics import (
    ExponentEstimate,
    MomentTrajectory,
    check_ballistic_limit,
    check_derivative_identity,
    corollary_probe,
    evolve,
    exponent_estimate,
    localization_diagnostic,
    moment_table,
    moment_trajectory,
    required_half_width,
    transport_exponents,
)
from .floquet import (
    BandStructure,
    QApplication,
    apply_q,
    band_structure,
    fiber_matrices,
    floquet_transform,
    q_norm,
    velocity_maximum,
)
from .limitperiodic import (
    GenericConstruction,
    GrowthCertificate,
    StageRecord,
    TransferProduct,
    dt_criterion,
    finite_lyapunov,
    generic_builder,
    growth_certificate,
    periodic_lyapunov,
    perturbation_stability,
    schroedinger_operator,
    thouless_check,
    transfer_matrix,
)
from .xychain import (
    SpinChain,
    XYChainSpec,
    free_fermion_residual,
    lr_velocity_bound,
    propagation_lower_bound,
    propagation_upper_bound,
    scalar_row,
    single_particle_matrix,
)

__version__ = "0.1.0"
