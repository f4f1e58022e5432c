"""Ballistic transport for periodic block Jacobi matrices.

Subpackages by concern:

- blockjacobi: operators, wave packets, window truncations
- floquet: Bloch fibers, band structure, the asymptotic velocity operator
- dynamics: unitary evolution, moments, transport exponents, diagnostics
- xychain: anisotropic XY spin chain and its free-fermion reduction
- limitperiodic: transfer matrices, Lyapunov exponents, staged constructions
- cli: the transportctl command-line frontend
"""

import importlib

# public name -> the submodule that defines it; a name's submodule is
# imported on first access, so a command loads only the layers it runs
_EXPORTS = {
    "blockjacobi": ("BlockJacobiOperator", "BlockSpec", "TruncatedOperator", "WavePacket",
                    "build_operator", "scalar_spec"),
    "dynamics": ("ExponentEstimate", "MomentTrajectory", "check_ballistic_limit",
                 "check_derivative_identity", "corollary_probe", "evolve", "exponent_estimate",
                 "localization_diagnostic", "moment_table", "moment_trajectory",
                 "required_half_width", "transport_exponents"),
    "floquet": ("BandStructure", "QApplication", "apply_q", "band_structure", "fiber_matrices",
                "floquet_transform", "q_norm", "velocity_maximum"),
    "limitperiodic": ("GenericConstruction", "GrowthCertificate", "StageRecord",
                      "TransferProduct", "dt_criterion", "finite_lyapunov", "generic_builder",
                      "growth_certificate", "periodic_lyapunov", "perturbation_stability",
                      "schroedinger_operator", "thouless_check", "transfer_matrix"),
    "xychain": ("SpinChain", "XYChainSpec", "free_fermion_residual", "lr_velocity_bound",
                "propagation_lower_bound", "propagation_upper_bound", "scalar_row",
                "single_particle_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("blockjacobi", "cli", "dynamics", "errors", "floquet", "limitperiodic",
               "xychain")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
