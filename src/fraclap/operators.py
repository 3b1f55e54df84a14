"""Fourier-multiplier operators and stable-kernel estimate reports.

All three operators are diagonal in the mode basis, hence commute pairwise
and act on a field by a pointwise multiplier array:

* ``riesz_apply``:    |xi|^s
* ``bessel_apply``:   (1 + |xi|^2)^(s/2)
* ``semigroup_apply``: exp(-t |xi|^alpha), t >= 0

``kernel_field`` materializes the convolution kernel of the semigroup (the
symmetric stable density) on the grid; ``kernel_l1_report`` quantifies its
smoothed L1 norms and the t^(-s/alpha) scaling law on a self-sized grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridResolutionError, require_finite
from .spectral import GridSpec, SpectralField, inverse_transform, write_csv

_DC_TOL = 1e-13


def require_alpha(alpha):
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"diffusion exponent must satisfy 0 < alpha <= 2, got {alpha}")


def riesz_apply(fld, s):
    """Multiply coefficients by |xi|^s.

    Negative s with a nonzero mean is rejected: |xi|^s is undefined at xi=0
    and silently regularizing would mask bugs.
    """
    grid = fld.grid
    xi2 = grid.xi_norm_sq
    c = fld.coeffs
    if s == 0:
        return fld.copy()
    if s < 0:
        dc = abs(c[(0,) * grid.n])
        scale = np.abs(c).max() or 1.0
        if dc > _DC_TOL * scale:
            raise DomainError(
                "riesz_apply with s < 0 requires a zero-mean field: "
                "|xi|^s is undefined at xi = 0")
    with np.errstate(divide="ignore"):
        mult = np.where(xi2 > 0, xi2 ** (s / 2.0), 0.0)
    return SpectralField(grid, mult * c, fld.is_real, fld.overflowed)


def bessel_apply(fld, s):
    """Multiply coefficients by (1 + |xi|^2)^(s/2); exact inverse at -s."""
    mult = (1.0 + fld.grid.xi_norm_sq) ** (s / 2.0)
    return SpectralField(fld.grid, mult * fld.coeffs, fld.is_real, fld.overflowed)


def semigroup_apply(fld, t, alpha):
    """Damp coefficients by exp(-t |xi|^alpha); norm non-increasing."""
    require_alpha(alpha)
    if t < 0:
        raise DomainError(f"semigroup time must satisfy t >= 0, got {t}")
    mult = semigroup_symbol(fld.grid, t, alpha)
    return SpectralField(fld.grid, mult * fld.coeffs, fld.is_real, fld.overflowed)


def semigroup_symbol(grid, t, alpha):
    xi2 = grid.xi_norm_sq
    with np.errstate(divide="ignore"):
        e = np.where(xi2 > 0, xi2 ** (alpha / 2.0), 0.0)
    return np.exp(-t * e)


def kernel_field(t, alpha, grid):
    """Physical-space samples of the stable kernel, as a SpectralField.

    The hat-side value at xi=0 is 1 (unit mass); the grid-quadrature integral
    of the samples reproduces it exactly because the kernel stays nonnegative
    on resolved grids.
    """
    require_alpha(alpha)
    if t <= 0:
        raise DomainError(f"kernel time must satisfy t > 0, got {t}")
    c = semigroup_symbol(grid, t, alpha) / grid.L ** grid.n
    return SpectralField(grid, c.astype(np.complex128), is_real=True)


def kernel_samples(t, alpha, grid):
    return inverse_transform(kernel_field(t, alpha, grid))


def _physical_l1(samples, grid):
    return float(np.abs(samples).sum() * grid.dx ** grid.n)


def _weighted_kernel_l1(t, alpha, grid, s, bessel):
    xi2 = grid.xi_norm_sq
    sym = semigroup_symbol(grid, t, alpha)
    if bessel:
        w = (1.0 + xi2) ** (s / 2.0)
    else:
        with np.errstate(divide="ignore"):
            w = np.where(xi2 > 0, xi2 ** (s / 2.0), 1.0 if s == 0 else 0.0)
    fld = SpectralField(grid, (w * sym / grid.L ** grid.n).astype(np.complex128), is_real=True)
    return _physical_l1(inverse_transform(fld), grid)


@dataclass
class KernelEstimateReport:
    """Per-t smoothed L1 norms of the stable kernel and the scaling check.

    homogeneity_ratios[i] = l1_riesz(t_i) * t_i^(s/alpha); the scaling law
    says these are t-independent. bound_constant is the smallest empirical C
    with l1_bessel(t) <= C * max(1, t^(-s/alpha)) over the probed range.
    """

    s: float
    alpha: float
    t_values: list
    l1_riesz: list
    l1_bessel: list
    homogeneity_ratios: list
    bound_constant: float
    grid: GridSpec

    def ratio_spread(self):
        r = np.asarray(self.homogeneity_ratios)
        return float((r.max() - r.min()) / r.mean())

    def to_csv(self, path):
        write_csv(path,
                  ["stable-kernel smoothed L1 report: t (time units), "
                   "discrete L1 of |xi|^s- and (1+|xi|^2)^(s/2)-weighted kernels, "
                   "ratio = l1_riesz * t^(s/alpha) (dimensionless)",
                   f"s={self.s!r} alpha={self.alpha!r} L={self.grid.L!r} "
                   f"N={self.grid.N} bound_constant={self.bound_constant!r}"],
                  "t,l1_riesz,l1_bessel,ratio",
                  [self.t_values, self.l1_riesz, self.l1_bessel, self.homogeneity_ratios])


# -- grid adequacy -----------------------------------------------------------
#
# The stable density in 1D behaves like C_a * t * |x|^(-1-alpha) for alpha < 2
# (Gaussian for alpha = 2); box truncation must push the boundary value below
# 1e-6 of the peak or the whole-space L1 quadrature is untrustworthy.

_BOUNDARY_LIMIT = 1e-6
_BOX_SAFETY = 10.0          # auto-sized boxes aim at _BOUNDARY_LIMIT / this
_TAIL_MASS_LIMIT = 1e-4
_N_CAP = 1 << 22


def _tail_coeff(alpha):
    return math.sin(math.pi * alpha / 2.0) * math.gamma(1.0 + alpha) / math.pi


def _peak_value(t, alpha):
    return math.gamma(1.0 + 1.0 / alpha) / (math.pi * t ** (1.0 / alpha))


def _weighted_peak(t, alpha, s):
    # (1/pi) int_0^inf xi^s exp(-t xi^alpha) dxi
    return math.gamma((s + 1.0) / alpha) / (math.pi * alpha * t ** ((s + 1.0) / alpha))


def _kink_coeff(s):
    # the |xi|^s cusp at the origin leaves a |x|^(-1-s) physical tail
    return abs(math.gamma(1.0 + s) * math.sin(math.pi * s / 2.0)) / math.pi


def _auto_box(alpha, t_max, s=0.0):
    if alpha == 2.0:
        half = math.sqrt(4.0 * t_max * math.log(_BOX_SAFETY / _BOUNDARY_LIMIT)) + 1.0
    else:
        # 2 * C_a * t * (L/2)^(-1-alpha) / peak <= limit / safety
        target = _BOUNDARY_LIMIT / _BOX_SAFETY
        half = (2.0 * _tail_coeff(alpha) * t_max
                / (_peak_value(t_max, alpha) * target)) ** (1.0 / (1.0 + alpha))
    ck = _kink_coeff(s)
    if ck > 0:
        # the smoothed kernel's cusp tail refolds with uniform sign under
        # periodization, so 3e-4 relative at the boundary keeps the L1
        # quadrature error well under the 2% scaling-law tolerance
        target = 3e-4 * _weighted_peak(t_max, alpha, s)
        half = max(half, (2.0 * ck / target) ** (1.0 / (1.0 + s)))
    return max(2.0 * half, 8.0 * math.pi)


def _auto_modes(alpha, s, t_min, L):
    xi = 8.0
    while (1.0 + xi * xi) ** (max(s, 0.0) / 2.0) * math.exp(-t_min * xi ** alpha) > 1e-13:
        xi *= 2.0
        if xi > 1e9:
            raise GridResolutionError("symbol decay too slow to resolve")
    N = 1 << max(8, int(math.ceil(math.log2(xi * L / math.pi))))
    return N


def _check_adequacy(grid, alpha, t_values):
    worst_boundary = 0.0
    worst_tail = 0.0
    for t in t_values:
        samples = kernel_samples(t, alpha, grid)
        peak = samples.max()
        boundary = float(np.abs(samples[grid.N // 2]))
        total = _physical_l1(samples, grid)
        x = np.fft.fftfreq(grid.N, d=1.0 / grid.N) * grid.dx
        tail = float(np.abs(samples[np.abs(x) >= 0.45 * grid.L]).sum() * grid.dx)
        worst_boundary = max(worst_boundary, boundary / peak)
        worst_tail = max(worst_tail, tail / total)
    if worst_boundary > _BOUNDARY_LIMIT or worst_tail > _TAIL_MASS_LIMIT:
        raise GridResolutionError(
            "grid under-resolves the kernel tails: boundary/peak = "
            f"{worst_boundary:.3e} (limit {_BOUNDARY_LIMIT}), tail mass fraction = "
            f"{worst_tail:.3e} (limit {_TAIL_MASS_LIMIT}); enlarge the box")


def kernel_l1_report(s, alpha, t_values, grid=None):
    """Discrete L1 norms of the s-smoothed kernel across t_values (1D).

    With no explicit grid, the box is sized from the tail asymptotics and the
    mode count from symbol decay; an explicit inadequate grid raises the
    diagnostic error instead of producing silently wrong norms.
    """
    require_alpha(alpha)
    require_finite(s=s)
    if s < 0:
        raise DomainError(f"smoothing order must satisfy s >= 0, got {s}")
    t_values = [float(t) for t in t_values]
    for t in t_values:
        require_finite(t_values=t)
    if not t_values or min(t_values) <= 0:
        raise DomainError("all probe times must satisfy t > 0")
    if grid is None:
        L = _auto_box(alpha, max(t_values), s)
        N = _auto_modes(alpha, s, min(t_values), L)
        if N > _N_CAP:
            raise GridResolutionError(
                f"auto-sized grid needs N = {N} > {_N_CAP} modes; "
                "shrink the time range or the smoothing order")
        grid = GridSpec(1, L, N)
    elif grid.n != 1:
        raise DomainError("kernel reports are one-dimensional")
    _check_adequacy(grid, alpha, t_values)

    l1_riesz = [_weighted_kernel_l1(t, alpha, grid, s, bessel=False) for t in t_values]
    l1_bessel = [_weighted_kernel_l1(t, alpha, grid, s, bessel=True) for t in t_values]
    ratios = [l1 * t ** (s / alpha) for l1, t in zip(l1_riesz, t_values)]
    bound = max(l1 / max(1.0, t ** (-s / alpha)) for l1, t in zip(l1_bessel, t_values))
    return KernelEstimateReport(s, alpha, t_values, l1_riesz, l1_bessel,
                                ratios, float(bound), grid)
