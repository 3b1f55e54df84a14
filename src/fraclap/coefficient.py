"""The singular convolution coefficient, described through its Fourier symbol.

A CoefficientSpec never materializes a physical-space function: the solver
only needs the symbol values b_hat(t, xi) >= 0 on the lattice, and the norm
and admissibility computations are integrals of the symbol. ``dirac`` is the
constant symbol C (the exact transform of a point mass), ``bessel_symbol`` is
C * (1 + |xi|^2)^(-rho/2), and ``custom_symbol`` delegates to a callable.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, require_finite
from .spectral import SpectralField

KINDS = ("dirac", "bessel_symbol", "custom_symbol")


def c1_threshold(n, alpha, rho):
    """Smallest admissible blow-up amplitude:
    max(1, 2^(rho/2-1)) * n^((rho+alpha)/2) * 2^(10n-1+rho+alpha)."""
    return (max(1.0, 2.0 ** (rho / 2.0 - 1.0))
            * n ** ((rho + alpha) / 2.0)
            * 2.0 ** (10.0 * n - 1.0 + rho + alpha))


@dataclass
class CoefficientSpec:
    """Symbol-side description of the coefficient plus admissibility metadata.

    time_modulation is a map t -> f(t) in (0, 1] scaling the symbol; default
    is the constant 1. C >= 0 (C = 0 gives the zero coefficient and a pure
    linear equation; blow-up admissibility then fails as it should).
    """

    kind: str
    C: float
    n: int
    alpha: float
    gamma: float
    rho: float = 0.0
    time_modulation: Optional[Callable[[float], float]] = None
    symbol_fn: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"coefficient kind must be one of {KINDS}, got {self.kind!r}")
        require_finite(C=self.C, rho=self.rho)
        if self.C < 0:
            raise DomainError(f"coefficient amplitude must satisfy C >= 0, got {self.C}")
        if self.rho < 0:
            raise DomainError(f"symbol decay order must satisfy rho >= 0, got {self.rho}")
        if self.kind == "dirac" and self.rho != 0:
            raise DomainError("a point-mass coefficient has rho = 0 by definition")
        if self.kind == "custom_symbol" and self.symbol_fn is None:
            raise DomainError("custom_symbol requires symbol_fn(t, xi_sq) -> values")

    def modulation(self, t):
        if self.time_modulation is None:
            return 1.0
        f = float(self.time_modulation(t))
        if not (0.0 < f <= 1.0):
            raise DomainError(f"time modulation must satisfy 0 < f(t) <= 1, got {f} at t={t}")
        return f

    def symbol_on(self, t, xi_sq):
        """Symbol values over an array of |xi|^2."""
        if self.kind == "dirac":
            base = np.full_like(np.asarray(xi_sq, dtype=float), self.C)
        elif self.kind == "bessel_symbol":
            base = self.C * (1.0 + np.asarray(xi_sq, dtype=float)) ** (-self.rho / 2.0)
        else:
            base = np.asarray(self.symbol_fn(t, xi_sq), dtype=float)
            if np.any(base < 0):
                raise DomainError("coefficient symbol must be nonnegative everywhere")
        return self.modulation(t) * base

    def is_zero(self):
        return self.kind in ("dirac", "bessel_symbol") and self.C == 0.0


def build_symbol(spec, t, grid):
    """Nonnegative symbol array b_hat(t, xi_m) over the lattice as a field."""
    values = spec.symbol_on(t, grid.xi_norm_sq)
    return SpectralField(grid, values.astype(np.complex128), is_real=True)


@dataclass
class AdmissibilityReport:
    """Per-condition flags; admissible iff every flag is true."""

    case: int
    sobolev_ok: bool
    dimension_ok: bool
    c1_ok: bool
    rho_alpha_ok: bool
    c1_threshold: float
    messages: list = field(default_factory=list)

    @property
    def admissible(self):
        return self.sobolev_ok and self.dimension_ok and self.c1_ok and self.rho_alpha_ok


def check_admissibility(spec, for_blowup=False):
    """Case selection from alpha and the per-condition checks.

    Well-posedness demands gamma in [0, alpha-1) when 1 < alpha <= 2 (the
    coefficient may then be a distribution of order -gamma) and gamma in
    (1-alpha, 1) when 0 < alpha <= 1 (positive regularity compensates the
    weaker kernel smoothing; the blow-up variant relaxes the lower end to
    1-alpha <= gamma). Blow-up additionally requires the amplitude floor
    C >= c1_threshold, rho + alpha <= 5n + 2, and the dimension compatibility
    2(gamma+rho) > n (case 1) / 2(rho-gamma) > n (case 2).
    """
    n, alpha, gamma, rho = spec.n, spec.alpha, spec.gamma, spec.rho
    messages = []
    if alpha > 1.0:
        case = 1
        sobolev_ok = 0.0 <= gamma < alpha - 1.0
        if not sobolev_ok:
            messages.append(
                f"gamma = {gamma} fails 0 <= gamma < alpha - 1 = {alpha - 1} "
                "(required when 1 < alpha <= 2)")
    else:
        case = 2
        lo_strict = not for_blowup
        sobolev_ok = (1.0 - alpha < gamma < 1.0) if lo_strict else (1.0 - alpha <= gamma < 1.0)
        if not sobolev_ok:
            rel = "<" if lo_strict else "<="
            messages.append(
                f"gamma = {gamma} fails 1 - alpha {rel} gamma < 1 "
                "(required when 0 < alpha <= 1)")

    threshold = c1_threshold(n, alpha, rho)
    if for_blowup:
        c1_ok = spec.C >= threshold
        if not c1_ok:
            messages.append(
                f"amplitude C = {spec.C} fails max(1, 2^(rho/2-1)) * n^((rho+alpha)/2) "
                f"* 2^(10n-1+rho+alpha) = {threshold} <= C")
        rho_alpha_ok = rho + alpha <= 5.0 * n + 2.0
        if not rho_alpha_ok:
            messages.append(
                f"rho + alpha = {rho + alpha} fails rho + alpha <= 5n + 2 = {5 * n + 2}")
        if case == 1:
            dimension_ok = 2.0 * (gamma + rho) > n
            if not dimension_ok:
                messages.append(
                    f"2(gamma + rho) = {2 * (gamma + rho)} fails 2(gamma + rho) > n = {n}")
        else:
            dimension_ok = 2.0 * (rho - gamma) > n
            if not dimension_ok:
                messages.append(
                    f"2(rho - gamma) = {2 * (rho - gamma)} fails 2(rho - gamma) > n = {n}")
            messages.append(
                "note: the case-2 dimension condition is implemented as 2(rho - gamma) > n; "
                "the opposite sign 2(gamma - rho) > n appears in a related upper-bound "
                "discussion and is not used here")
    else:
        c1_ok = True
        rho_alpha_ok = True
        dimension_ok = True

    return AdmissibilityReport(case, sobolev_ok, dimension_ok, c1_ok, rho_alpha_ok,
                               float(threshold), messages)


def sobolev_norm_of_b(spec, order, grid):
    """Discrete order-s norm of the coefficient at t = 0, computed on the
    symbol side: ( sum (1+|xi|^2)^order * b_hat(xi)^2 * dxi^n )^(1/2).

    For symbols decaying like (1+|xi|^2)^(-rho/2) this converges under lattice
    extension iff 2(|order| sign-adjusted + rho) outpaces n; the companion
    probe flags divergent combinations.
    """
    values = spec.symbol_on(0.0, grid.xi_norm_sq)
    w = (1.0 + grid.xi_norm_sq) ** order
    return float(np.sqrt((w * values ** 2).sum() * grid.dxi ** grid.n))


def norm_divergence_probe(spec, order, grid):
    """(value, value at doubled mode count, divergent flag).

    Doubling N at fixed L extends xi_max, which is what probes a Fourier tail
    that fails to be square-integrable; >10% change flags divergence (artifact
    convention, documented as such).
    """
    v1 = sobolev_norm_of_b(spec, order, grid)
    v2 = sobolev_norm_of_b(spec, order, grid.extended())
    divergent = abs(v2 - v1) > 0.10 * max(v1, 1e-300)
    return v1, v2, divergent
