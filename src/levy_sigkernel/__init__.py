"""Expected signature kernels of inhomogeneous Levy processes.

Solves the coupled Goursat PDE-ODE systems for expected signature kernels,
computes signature-MMDs against the inhomogeneous Wiener measure, and
certifies results with explicit error bounds plus independent oracles
(Bessel closed forms, truncated-development inner products, Monte Carlo).
"""

from .characteristics import (AtomicJumps, GaussianJumps, LevyTriplet,
                              PiecewiseVelocity, characteristic_velocity,
                              dilate_triplet, exponential_moment_value,
                              gaussian_tensor_moment)
from .development import (bell_numbers, bell_polynomials, bound_gronwall,
                          bound_inner_truncation, bound_level,
                          bound_lipschitz, bound_outer_truncation, develop,
                          expected_signature, gaussian_jump_tail_bound,
                          gaussian_mgf_moment, remainder_diagnostics)
from .errors import (ConfigError, DepthTooSmall, DimMismatch, GridMismatch,
                     InvalidParameter, InvalidTriplet, InvalidWord,
                     LevySigKernelError, NumericalInconsistency, OutOfRange,
                     ScalarPartError, Unsupported)
from .kernel_solver import (KernelSurface, apriori_psi, bessel_i0,
                            log_apriori_psi, make_grid, solve_goursat_scalar,
                            solve_truncated_system, truncation_certificate)
from .mc_oracle import (SignatureEstimate, SimulatedPaths,
                        estimate_expected_signature, estimate_kernel,
                        estimate_to_csv, path_signature, simulate_paths)
from .mmd import (AugmentedPathEnsemble, MMDReport, WienerSpec, cross_kernel,
                  factor_covariance, mmd_to_wiener, pair_kernel)
from .tensor_algebra import (LevelNorms, TruncatedTensor, adjoint_left,
                             adjoint_left_zero, adjoint_right,
                             adjoint_right_zero, dilate, exp_tensor,
                             group_inverse, inner_product, level_norms,
                             log_tensor, max_level_norm, norm_p, project,
                             tensor_mul, truncate, word_from_index,
                             word_index)

__version__ = "0.1.0"
