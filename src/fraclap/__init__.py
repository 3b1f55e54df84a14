"""fraclap: pseudo-spectral simulation and blow-up certification for a
fractional-diffusion equation with a squared-gradient nonlinearity convolved
against a singular coefficient."""

from .certificate import (BumpLevel, CertificateParams, CertificateReport, FreqWindow,
                          InductionRecord, blowup_constants,
                          build_omega_sequence, certify,
                          convolve_lattice, default_certificate_grid,
                          default_k_max, divergence_partial_sums,
                          omega_initial_field, series_prefactor_log, series_term_log,
                          unit_ball_volume, verify_induction_chain)
from .coefficient import CoefficientSpec, c1_threshold, sobolev_norm_of_b
from .errors import (DomainError, FraclapError, GridResolutionError,
                     NonConvergenceError, UsageError)
from .operators import (KernelEstimateReport, kernel_field, kernel_l1_report,
                        kernel_samples, semigroup_apply, semigroup_symbol)
from .solver import (ExistenceBudget, ProblemConfig, Trajectory,
                     existence_budget, picard_solve, random_nonneg_initial_field)
from .spectral import (GridSpec, SpectralField, forward_transform, h1_norm,
                       inverse_transform)

__version__ = "0.1.0"
