"""Expected signature kernels of inhomogeneous Levy processes.

Solves the coupled Goursat PDE-ODE systems for expected signature kernels,
computes signature-MMDs against the inhomogeneous Wiener measure, and
certifies results with explicit error bounds plus independent oracles
(Bessel closed forms, truncated-development inner products, Monte Carlo).

Importing the package loads no submodule: each exported name loads its
module on first use (PEP 562 ``__getattr__``), so a CLI run loads only the
modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("AtomicJumps", "GaussianJumps", "LevyTriplet", "PiecewiseVelocity",
         "characteristic_velocity", "exponential_moment_value", "factor_covariance",
         "gaussian_tensor_moment"), "characteristics"),
    **dict.fromkeys(
        ("bell_polynomials", "bound_gronwall", "bound_inner_truncation", "bound_level",
         "bound_lipschitz", "bound_outer_truncation", "develop", "expected_signature",
         "gaussian_jump_tail_bound", "gaussian_mgf_moment", "remainder_diagnostics"),
        "development"),
    **dict.fromkeys(
        ("ConfigError", "DepthTooSmall", "DimMismatch", "GridMismatch",
         "InvalidParameter", "InvalidTriplet", "InvalidWord", "LevySigKernelError",
         "NumericalInconsistency", "OutOfRange", "ScalarPartError", "Unsupported"),
        "errors"),
    **dict.fromkeys(
        ("KernelSurface", "apriori_psi", "bessel_i0", "log_apriori_psi", "make_grid",
         "solve_goursat_scalar", "solve_truncated_system", "truncation_certificate"),
        "kernel_solver"),
    **dict.fromkeys(
        ("SignatureEstimate", "SimulatedPaths", "estimate_expected_signature",
         "estimate_kernel", "path_signature", "simulate_paths"), "mc_oracle"),
    **dict.fromkeys(("AugmentedPathEnsemble", "MMDReport", "WienerSpec", "mmd_to_wiener"),
                    "mmd"),
    **dict.fromkeys(
        ("LevelNorms", "TruncatedTensor", "adjoint_left", "adjoint_right", "dilate",
         "exp_tensor", "inner_product", "level_norms", "log_tensor", "max_level_norm",
         "norm_p", "tensor_mul", "truncate", "word_index"), "tensor_algebra"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
