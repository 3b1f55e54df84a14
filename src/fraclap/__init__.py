"""fraclap: pseudo-spectral simulation and blow-up certification for a
fractional-diffusion equation with a squared-gradient nonlinearity convolved
against a singular coefficient."""

from .certificate import (CertificateParams, CertificateReport, FreqWindow,
                          InductionRecord, OmegaLevel, blowup_constants,
                          build_omega_sequence, bump_weight_log, certify,
                          convolve_lattice, default_certificate_grid,
                          default_k_max, divergence_partial_sums,
                          series_prefactor_log, series_term_log, unit_ball_volume,
                          verify_induction_chain)
from .coefficient import (AdmissibilityReport, CoefficientSpec, c1_threshold,
                          check_admissibility, norm_divergence_probe,
                          sobolev_norm_of_b)
from .errors import (DomainError, FraclapError, GridResolutionError,
                     NonConvergenceError, UsageError)
from .operators import (KernelEstimateReport, bessel_apply, kernel_field,
                        kernel_l1_report, kernel_samples, riesz_apply,
                        semigroup_apply, semigroup_symbol)
from .solver import (ExistenceBudget, ProblemConfig, Trajectory, duhamel_step,
                     existence_budget, omega_initial_field, picard_solve,
                     random_nonneg_initial_field)
from .spectral import (GridSpec, NormReport, SpectralField, field_from_csv,
                       field_to_csv, forward_transform, h1_dot_norm, h1_norm,
                       inverse_transform, sobolev_norms)

__version__ = "0.1.0"
