"""The singular convolution coefficient, described through its Fourier symbol.

A CoefficientSpec never materializes a physical-space function: the solver
only needs the symbol values b_hat(xi) >= 0 on the lattice, and the norm
computation is an integral of the symbol. ``dirac`` is the constant symbol C
(the exact transform of a point mass), ``bessel_symbol`` is
C * (1 + |xi|^2)^(-rho/2). The regularity order gamma, the diffusion
exponent alpha and the dimension n belong to the problem (ProblemConfig,
GridSpec, CertificateParams), not to the coefficient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .spectral import _weighted_norm

KINDS = ("dirac", "bessel_symbol")


def c1_threshold(n, alpha, rho):
    """Smallest admissible blow-up amplitude
    max(1, 2^(rho/2-1)) * n^((rho+alpha)/2) * 2^(10n-1+rho+alpha), as a
    positive float >= the exact floor, so that C1 >= c1_threshold(...) in
    floats implies the inequality. A floor that is a float (2048, 2^22 and
    3 * 2^31 at the defaults) is returned exactly.

    The floor is 2^e n^p, evaluated in 60-digit decimal arithmetic. When a
    step rounds, the value is raised by 1e-50 relative, far above the
    rounding error of these few steps, and then rounded up to a float."""
    # imported here, so that a solve run does not load it
    from decimal import Decimal, Inexact, Overflow, localcontext

    require_finite(alpha=alpha, rho=rho)
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.clear_flags()       # localcontext copies the caller's flags
        r, a = Decimal(rho), Decimal(alpha)
        try:
            e = max(0, r / 2 - 1) + 10 * n - 1 + r + a
            # 1^p is exact, but decimal flags it as rounded
            floor = 2 ** e * (Decimal(n) ** ((r + a) / 2) if n > 1 else 1)
        except Overflow:
            floor = Decimal("Infinity")
        if ctx.flags[Inexact]:
            floor *= 1 + Decimal("1e-50")
    out = float(floor)
    # the floor is positive, so a float below it or at 0 steps up once
    if out == 0.0 or Decimal(out) < floor:
        out = math.nextafter(out, math.inf)
    if out == math.inf:
        raise DomainError(
            f"amplitude floor max(1, 2^(rho/2-1)) * n^((rho+alpha)/2) "
            f"* 2^(10n-1+rho+alpha) at n = {n}, alpha = {alpha}, rho = {rho} "
            "fails floor < 2^1024 (float range)")
    return out


@dataclass
class CoefficientSpec:
    """Symbol-side description of the coefficient.

    C >= 0 (C = 0 gives the zero coefficient and a pure linear equation);
    rho >= 0 is the decay order of a bessel_symbol and 0 for a dirac.
    """

    kind: str
    C: float
    rho: float = 0.0

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

    def symbol_on(self, xi_sq):
        """Symbol values over an array of |xi|^2."""
        xi_sq = np.asarray(xi_sq, dtype=float)
        if self.kind == "dirac":
            return np.full_like(xi_sq, self.C)
        return self.C * (1.0 + xi_sq) ** (-self.rho / 2.0)


def gamma_case(alpha, gamma, for_blowup=False):
    """(case, message) for the regularity order gamma of the coefficient.

    Case 1 (1 < alpha <= 2) admits 0 <= gamma < alpha - 1; case 2
    (0 < alpha <= 1) admits 1 - alpha < gamma < 1, relaxed to
    1 - alpha <= gamma for the blow-up argument. message quotes the violated
    inequality, or is None when gamma is admissible.
    """
    if alpha > 1.0:
        if 0.0 <= gamma < alpha - 1.0:
            return 1, None
        return 1, (f"gamma = {gamma} fails 0 <= gamma < alpha - 1 = {alpha - 1} "
                   "(required when 1 < alpha <= 2)")
    lo_ok = 1.0 - alpha <= gamma if for_blowup else 1.0 - alpha < gamma
    if lo_ok and gamma < 1.0:
        return 2, None
    rel = "<=" if for_blowup else "<"
    return 2, (f"gamma = {gamma} fails 1 - alpha {rel} gamma < 1 "
               "(required when 0 < alpha <= 1)")


def sobolev_norm_of_b(spec, order, grid):
    """Discrete order-s norm of the coefficient, computed on the symbol side:
    ( sum (1+|xi|^2)^order * b_hat(xi)^2 * dxi^n )^(1/2).

    For a symbol decaying like (1+|xi|^2)^(-rho/2) the continuum norm is
    finite iff 2(rho - order) > n; otherwise the lattice sum grows with the
    mode count.
    """
    values = spec.symbol_on(grid.xi_norm_sq)
    w = (1.0 + grid.xi_norm_sq) ** order
    return float(_weighted_norm(w, values, scale=grid.dxi ** grid.n))
