"""Quantum phase-space numerics for beam-splitter characterizations of
Gaussian bosonic states: truncated Fock simulation, characteristic-function
analysis, stability constants, and symplectic classification."""

from .config import GridSpec, Tolerances, DEFAULT_TOLERANCES
from .symplectic import (GaussianState, beam_splitter, check_uncertainty,
                         is_symplectic, symplectic_form, transform_gaussian)
from .fock import (FockOperator, FockSpace, beam_splitter_unitary, char_batch,
                   evolve, gaussian_to_fock, gaussify, hs_norm, moments,
                   partial_trace, quadratures, tensor, trace_norm,
                   weyl_operator)
from .phase_space import (CharGrid, SigmaPositivityReport, char_function,
                          char_grid, derivative_moments, ds_residual,
                          parseval_distance, sigma_positivity_test)
from .stability import (StabilityReport, c1_constant, c2_constant, c3_constant,
                        constants_sweep, cross_covariance_V, f_bound,
                        nongaussianity_witness, region_radius, run_experiment,
                        theta_curve)
from .classify import (ClassificationResult, build_canonical, decompose,
                       preserves_arbitrary, preserves_identical)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
