"""The fractional heat semigroup and stable-kernel estimate reports.

``semigroup_apply`` damps a field's coefficients by the pointwise multiplier
``semigroup_symbol`` = exp(-t |xi|^alpha), t >= 0. ``kernel_field``
materializes the convolution kernel of the semigroup (the symmetric stable
density) on the grid; ``kernel_l1_report`` quantifies the L1 norms of that
kernel smoothed by |xi|^s and by (1 + |xi|^2)^(s/2), and the t^(-s/alpha)
scaling law, on a self-sized grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridResolutionError, require_finite
from .spectral import GridSpec, SpectralField, inverse_transform, write_csv


def require_alpha(alpha):
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"diffusion exponent must satisfy 0 < alpha <= 2, got {alpha}")


def semigroup_apply(fld, t, alpha):
    """Damp coefficients by exp(-t |xi|^alpha); norm non-increasing."""
    require_alpha(alpha)
    if t < 0:
        raise DomainError(f"semigroup time must satisfy t >= 0, got {t}")
    mult = semigroup_symbol(fld.grid, t, alpha)
    return SpectralField(fld.grid, mult * fld.coeffs)


def semigroup_symbol(grid, t, alpha):
    xi2 = grid.xi_norm_sq
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
    return SpectralField(grid, c.astype(np.complex128))


def kernel_samples(t, alpha, grid):
    return inverse_transform(kernel_field(t, alpha, grid))


def _physical_l1(samples, grid):
    return float(np.abs(samples).sum() * grid.dx ** grid.n)


def _weighted_kernel_l1(t, alpha, grid, s, bessel):
    xi2 = grid.xi_norm_sq
    sym = semigroup_symbol(grid, t, alpha)
    # a weight past float range meets the underflowed semigroup as inf * 0;
    # the check below reports the non-finite norm that follows
    with np.errstate(over="ignore", invalid="ignore"):
        if bessel:
            w = (1.0 + xi2) ** (s / 2.0)
        else:
            w = np.where(xi2 > 0, xi2 ** (s / 2.0), 1.0 if s == 0 else 0.0)
        fld = SpectralField(grid, (w * sym / grid.L ** grid.n).astype(np.complex128))
        l1 = _physical_l1(inverse_transform(fld), grid)
    if not math.isfinite(l1):
        raise DomainError(
            f"L1 norm of the kernel smoothed to order s = {s} at t = {t} is {l1}, "
            f"which fails l1 < inf on L = {grid.L} N = {grid.N}; lower s or N")
    if l1 == 0.0:   # every weighted mode underflowed
        raise GridResolutionError(f"L1 norm of the kernel smoothed to order s = {s} at "
                                  f"t = {t} is 0.0, which fails l1 > 0 on L = {grid.L}")
    return l1


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
_SYMBOL_TAIL_LIMIT = 1e-13
# the largest xi an auto-sized grid resolves
_AUTO_XI_MAX = 1e9
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


def _auto_box(alpha, t_max, s):
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


def _symbol_tail(alpha, s, t, xi):
    """The smoothed symbol (1 + xi^2)^(s/2) exp(-t xi^alpha) at xi; a grid
    resolves the kernel when this is <= _SYMBOL_TAIL_LIMIT at its xi_max.
    OverflowError where the weight leaves float range."""
    return (1.0 + xi * xi) ** (s / 2.0) * math.exp(-t * xi ** alpha)


def _auto_modes(alpha, s, t_min, L):
    """Modes per axis that resolve xi, the first of 8, 16, ... (capped at
    _AUTO_XI_MAX) where the smoothed symbol is <= _SYMBOL_TAIL_LIMIT;
    GridResolutionError when none is. OverflowError where the symbol leaves
    float range."""
    xi = 8.0
    tail = _symbol_tail(alpha, s, t_min, xi)
    while tail > _SYMBOL_TAIL_LIMIT:
        if xi == _AUTO_XI_MAX:
            raise GridResolutionError(
                f"sizing the grid: the symbol smoothed to order s = {s} with alpha = "
                f"{alpha} at the smallest t = {t_min!r} is {tail:.3e} at xi = "
                f"{xi:.4g}, which fails <= {_SYMBOL_TAIL_LIMIT}; raise the smallest t "
                "or alpha, or lower s")
        xi = min(2.0 * xi, _AUTO_XI_MAX)
        tail = _symbol_tail(alpha, s, t_min, xi)
    return 1 << max(8, int(math.ceil(math.log2(xi * L / math.pi))))


def _check_adequacy(grid, alpha, s, t_values):
    t_min = min(t_values)
    try:
        tail = _symbol_tail(alpha, s, t_min, grid.xi_max)
    except OverflowError:
        tail = math.inf
    if not tail <= _SYMBOL_TAIL_LIMIT:
        raise GridResolutionError(
            f"grid under-resolves the kernel spectrum: the symbol smoothed to order "
            f"s = {s} at t = {t_min} is {tail:.3e} at xi_max = {grid.xi_max:.4g}, "
            f"which fails <= {_SYMBOL_TAIL_LIMIT}; raise N or shrink L")
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
        try:
            L = _auto_box(alpha, max(t_values), s)
            N = _auto_modes(alpha, s, min(t_values), L)
        except OverflowError:
            raise GridResolutionError(
                f"sizing the grid for smoothing order s = {s}, alpha = {alpha} and "
                f"t_values from {min(t_values)!r} to {max(t_values)!r} overflows float "
                "range; lower s, raise alpha or shrink the time range") from None
        grid = GridSpec(1, L, N)
    elif grid.n != 1:
        raise DomainError("kernel reports are one-dimensional")
    if grid.N > _N_CAP:
        raise GridResolutionError(
            f"the grid has N = {grid.N} modes, which fails N <= {_N_CAP}; lower N, "
            "or, on an auto-sized grid, shrink the time range or the smoothing order")
    _check_adequacy(grid, alpha, s, t_values)

    l1_riesz = [_weighted_kernel_l1(t, alpha, grid, s, bessel=False) for t in t_values]
    l1_bessel = [_weighted_kernel_l1(t, alpha, grid, s, bessel=True) for t in t_values]
    try:
        ratios = [l1 * t ** (s / alpha) for l1, t in zip(l1_riesz, t_values)]
        bound = max(l1 / max(1.0, t ** (-s / alpha)) for l1, t in zip(l1_bessel, t_values))
    except OverflowError:
        raise DomainError(f"t^(s/alpha) at s = {s}, alpha = {alpha} overflows float "
                          "range for some t of t_values; lower s or raise alpha") from None
    return KernelEstimateReport(s, alpha, t_values, l1_riesz, l1_bessel,
                                ratios, float(bound), grid)
