"""Blow-up certificate: dyadic Fourier bumps, the induction chain, and the
divergent series of the lower-bound argument.

The certificate machinery never leaves the Fourier side. The seed bump w_0 is
the strict indicator of the radius-1/2 ball around the point with every
component 3/2, sampled on the frequency lattice h Z^n by ``_bump``, which also
samples the solver's initial datum A * omega (``omega_initial_field``); level
k+1 is the lattice autoconvolution w_{k+1}(xi) = h^n sum_eta w_k(eta) w_k(xi - eta).

``certify`` makes no convolution. It counts the seed's lattice points and
derives every per-level fact from two exact properties of the hierarchy:

- Cube. Each point of the seed ball has every component strictly inside
  (1, 2), so the seed's index box lies in the open cube (1, 2)^n; certify
  checks that box. An autoconvolution is supported in the Minkowski sum of
  its input's support with itself and keeps signs, so by induction
  w_k >= 0 is supported in (2^k, 2^(k+1))^n, which lies in the corona
  sqrt(n) 2^k < |xi| < sqrt(n) 2^(k+1) (support_ok, hypercube_ok).
- Conv bound. On the support of w_{k-1}, |xi| > sqrt(n) 2^(k-1), so
  pointwise (|xi| w_{k-1}) * (|xi| w_{k-1}) >= n 4^(k-1) w_k >= 4^(k-1) w_k:
  the bound holds with the factor n to spare (conv_bound_ok).
- Bessel bound. For rho >= 0, the sup of (1 + |xi|^2)^(rho/2) over the
  closed cube [2^k, 2^(k+1)]^n is (1 + n 4^(k+1))^(rho/2), which is at
  most 2^(rho/2) n^(rho/2) 2^((k+1) rho) and so at most the closed bound
  max(1, 2^(rho/2-1)) n^(rho/2) 2^((k+1) rho + 1). For rho < 0 the sup is
  at most 1, which the closed bound n^(rho/2) 2^((k+1) rho + 1) passes only
  while (rho/2) log2 n + (k+1) rho + 1 >= 0 (bessel_bound_ok).
- L1. Summing an autoconvolution over the lattice squares its input's sum,
  so level k has lattice mass (count h^n)^(2^k), with count the seed's
  lattice points, against the continuum mass (v_n / 2^n)^(2^k). With
  q = count h^n / (v_n / 2^n) = 1 - eps0 the relative error is
  |1 - q^(2^k)|, which never divides by a target that underflows.

The scalar checks follow in closed form from the parameters
(verify_induction_chain, blowup_constants). So the per-level flags hold on
every grid that resolves the level-k_max corona, and the verdict is the
parameter constraints, each decided exactly in floats (violations).
tests/test_certificate.py checks the derived values against the FFT
hierarchy, its measured convolutions and the assembled chain of
tests/oracles.py.

Everything multiplicative (A^(2^k), the series terms) is handled in log
domain: the quantities underflow/overflow floats from k around 5 onward.

``omega`` (``build_omega_sequence``) builds the hierarchy itself. Only the
support window of each bump is stored; discrete linear convolution of
compactly supported arrays is exactly supported in the Minkowski sum of the
supports, so window arithmetic equals full-lattice arithmetic. Each level
is measured on its window into the BumpLevel that certify derives
(_level_from_window), and build_omega_sequence returns each window next to
its level.

The autoconvolutions stream over slabs of the last axis's half spectrum:
each slab takes the padded forward passes, the square and the cropped
inverse passes on its own, and only the cropped half spectrum and the output
are held whole. Every 1-D line still gets the transform of one padded
rfftn/irfftn pair, so the bits are those of the whole-box expression, and
working memory follows the output window, not the padded FFT box.
"""

import functools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .coefficient import c1_threshold, gamma_case
from .errors import DomainError, GridResolutionError, require_finite
from .operators import require_alpha
from .spectral import GridSpec, SpectralField, write_csv

LN2 = math.log(2.0)

#: seed bump geometry, fixed once and for all
XI0_COMPONENT = 1.5
BUMP_RADIUS = 0.5

_SUPPORT_MARGIN = 2          # zero-padding cells kept around each window
_CUBE_MASS_TOL = 1e-10       # omega: out-of-cube mass, relative to the total
_SLAB = 8                    # half-spectrum columns per slab of convolve_lattice
# largest bump window a run allocates: 256 MB of float64, about 8 times the
# default omega n=3 level 2 (145^3 points)
_MAX_WINDOW_POINTS = 1 << 25
# the corona bound sqrt(n) 2^(k_max+1) with n <= 3 must stay a float
_MAX_K = 1021


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass
class FreqWindow:
    """A function on the frequency lattice stored over its support box only.

    ``start`` holds the lattice index of the window origin per axis; the
    value at window position j is the lattice sample at xi = (start + j) * h.
    """

    start: tuple
    values: np.ndarray
    h: float

    @property
    def n(self):
        return self.values.ndim

    def axes(self):
        return tuple((self.start[a] + np.arange(self.values.shape[a])) * self.h
                     for a in range(self.n))

    def to_csv(self, path):
        xi = np.meshgrid(*self.axes(), indexing="ij")
        write_csv(path,
                  ["frequency window: per-axis xi (dimensionless frequency), value",
                   f"spacing={self.h!r} start={self.start!r}"],
                  "".join(f"xi{a + 1}," for a in range(self.n)) + "value",
                  [g.ravel() for g in xi] + [self.values.ravel()])


@dataclass
class BumpLevel:
    """Level-k facts of the bump hierarchy: the lattice L1 mass, its
    continuum target, their relative error, and in_cube, whether the level
    lies in the open cube (2^k, 2^(k+1))^n, and so in the corona. certify
    derives them from the seed's lattice count (_derived_levels); omega
    measures them on the FFT window (_level_from_window), where in_cube
    allows the window's roundoff outside the cube up to _CUBE_MASS_TOL of its
    mass. On both, in_cube is the support fact every per-level check reads."""

    k: int
    l1: float
    l1_target: float
    l1_error: float
    in_cube: bool

    @property
    def support_ok(self):
        return self.in_cube

    @property
    def hypercube_ok(self):
        return self.in_cube


def default_certificate_grid(n):
    """Fine-spacing lattices (dyadic spacing, exact index arithmetic) on which
    the level-k L1 identities hold at the default k range to 0.78% (n=1),
    0.59% (n=2) and 2.0% (n=3). The seed's lattice count sets every level's
    error: 1 - (1 - eps0)^(2^k), with eps0 = 0.098%, 0.15% and 0.50%."""
    if n == 1:
        return GridSpec(1, 2048.0 * math.pi, 1 << 16)   # h = 1/1024, xi_max = 32
    if n == 2:
        return GridSpec(2, 256.0 * math.pi, 1 << 12)    # h = 1/128,  xi_max = 16
    if n == 3:
        return GridSpec(3, 64.0 * math.pi, 1 << 10)     # h = 1/32,   xi_max = 16
    raise DomainError("certificate grids exist for 1 <= n <= 3")


def default_k_max(n):
    return 3 if n == 1 else 2


def _seed_index_range(h):
    """First and last lattice index per axis of the seed window."""
    return (int(math.floor((XI0_COMPONENT - BUMP_RADIUS) / h)) - _SUPPORT_MARGIN,
            int(math.ceil((XI0_COMPONENT + BUMP_RADIUS) / h)) + _SUPPORT_MARGIN)


def _require_window_size(width, n, what):
    points = width ** n
    if points > _MAX_WINDOW_POINTS:
        raise DomainError(f"{what} window of {width}^{n} = {points} lattice points "
                          f"fails <= {_MAX_WINDOW_POINTS}; coarsen the grid or "
                          f"lower k_max")


def _require_levels(k_max, grid):
    if not 0 <= k_max <= _MAX_K:
        raise DomainError(f"k_max = {k_max} fails 0 <= k_max <= {_MAX_K}")
    need = np.sqrt(grid.n) * 2.0 ** (k_max + 1)
    if not grid.xi_max > need:
        raise GridResolutionError(
            f"max resolved |xi| per axis = {grid.xi_max:.4g} must exceed "
            f"sqrt(n)*2^(k_max+1) = {need:.4g} for level k_max = {k_max}")


def _bump(axes):
    """Strict indicator of the seed ball on the product of the 1-D axes (no
    partial cell weighting; boundary points fall exactly on the lattice for
    the dyadic default spacings and are excluded)."""
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    r2 = sum((g - XI0_COMPONENT) ** 2 for g in grids)
    return (r2 < BUMP_RADIUS ** 2).astype(np.float64)


def _seed_window(n, h):
    """The seed bump on its support window of the lattice h Z^n."""
    lo, hi = _seed_index_range(h)
    _require_window_size(hi - lo + 1, n, "seed")
    return FreqWindow((lo,) * n, _bump([np.arange(lo, hi + 1) * h] * n), h)


def omega_initial_field(grid, amplitude):
    """Initial datum A * omega: the seed bump plus the mirror ball at -xi0,
    the bump of the negated axes ((-xi - 3/2)^2 = (xi + 3/2)^2 exactly), so
    the datum is a real field. The hat values stay >= the one-sided bump
    pointwise, so every Fourier lower bound for it holds a fortiori.
    GridResolutionError unless the grid's lattice holds every lattice point
    of the seed ball."""
    require_finite(u0_amplitude=amplitude)
    bump = _bump(grid.xi_axes)
    held = np.count_nonzero(bump)
    count = np.count_nonzero(_seed_window(grid.n, grid.dxi).values)
    if held != count:
        raise GridResolutionError(
            f"the grid holds {held} of the seed ball's {count} lattice points, which "
            f"fails held = {count} at max resolved |xi| per axis = {grid.xi_max:.4g}; "
            "raise N")
    hat = bump + _bump([-xi for xi in grid.xi_axes])
    return SpectralField.from_hat_values(grid, amplitude * hat)


def _level_from_window(k, win):
    """The level-k facts measured on its window: the lattice mass, and
    in_cube when the mass outside the open cube (2^k, 2^(k+1))^n is at most
    _CUBE_MASS_TOL of the total (the rest is FFT roundoff)."""
    n = win.n
    target = (unit_ball_volume(n) / 2.0 ** n) ** (2 ** k)
    l1 = float(win.values.sum() * win.h ** n)
    inside = [(ax > 2.0 ** k) & (ax < 2.0 ** (k + 1)) for ax in win.axes()]
    cube = functools.reduce(np.logical_and,
                            np.meshgrid(*inside, indexing="ij", sparse=True))
    mass = np.abs(win.values)
    return BumpLevel(k=k, l1=l1, l1_target=target, l1_error=abs(l1 - target) / target,
                     in_cube=bool(mass[~cube].sum() <= _CUBE_MASS_TOL * mass.sum()))


def convolve_lattice(a, spacing):
    """Lattice autoconvolution a * a of a sampled function on a uniform
    frequency lattice, scaled by ``spacing**ndim`` so it approximates the
    continuum convolution integral.

    Returns the full convolution (2 len(a) - 1 per axis), the result of
    ``irfftn(rfftn(a, s) * rfftn(a, s), s)`` with zero padding to the
    power-of-two shape s, cropped and weighted, equal to it bit for bit.
    Outside the Minkowski sum of the input support it holds roundoff noise
    rather than exact zeros.

    In 1-D that is one rfft, squared in place, and one irfft. For ndim >= 2
    the work streams over slabs of the last axis's half spectrum: the rfft
    along the last axis of the unpadded input comes first, as in rfftn. Each
    slab of it then takes the padded forward passes over axes ndim-2 .. 0
    (rfftn's order), the square, and the inverse passes over axes 0 .. ndim-2
    (irfftn's order), cut to the output length after each pass, so no line
    whose output the crop drops is transformed. The kept slab goes into a
    cropped half spectrum; the last-axis irfft of that runs in slabs of
    axis 0 into the output. Every pass holds the last-axis index fixed, so
    each 1-D line takes the same transform of the same input as in the
    whole-box expression, and the bits agree. Working memory is the input's
    rfft, the cropped half spectrum, the output and one padded slab, not the
    padded box.
    """
    a = np.asarray(a, dtype=np.float64)
    d = a.ndim
    out_shape = tuple(2 * s - 1 for s in a.shape)
    fshape = tuple(1 << int(np.ceil(np.log2(s))) for s in out_shape)
    weight = spacing ** d
    if d == 1:
        f = np.fft.rfft(a, n=fshape[0])
        np.multiply(f, f, out=f)
        return np.fft.irfft(f, n=fshape[0])[:out_shape[0]] * weight
    r = np.fft.rfft(a, n=fshape[-1], axis=-1)
    half = np.empty(out_shape[:-1] + r.shape[-1:], dtype=np.complex128)
    for j in range(0, r.shape[-1], _SLAB):
        f = r[..., j:j + _SLAB]
        for ax in range(d - 2, -1, -1):
            f = np.fft.fft(f, n=fshape[ax], axis=ax)
        np.multiply(f, f, out=f)
        for ax in range(d - 1):
            np.fft.ifft(f, axis=ax, out=f)
            f = f[(slice(None),) * ax + (slice(0, out_shape[ax]),)]
        half[..., j:j + _SLAB] = f
    del r, f    # free the input's rfft before the output is allocated
    out = np.empty(out_shape)
    for i in range(0, out_shape[0], _SLAB):
        slab = np.fft.irfft(half[i:i + _SLAB], n=fshape[-1], axis=-1)
        np.multiply(slab[..., :out_shape[-1]], weight, out=out[i:i + _SLAB])
    return out


def build_omega_sequence(k_max, grid):
    """Levels 0..k_max of the bump hierarchy on the grid's frequency lattice.

    The grid must resolve the level-k_max corona (xi_max > sqrt(n) 2^(k_max+1))
    and have spacing <= 1/4, and the level-k_max window, 2^k_max (w0 - 1) + 1
    points per axis for a seed window of w0, must fit _MAX_WINDOW_POINTS; both
    are checked before any convolution. Returns a (BumpLevel, FreqWindow)
    pair per level: the facts measured on the window, and the window itself.
    The caller decides what to do with a level that is not in_cube.
    """
    _require_levels(k_max, grid)
    h = grid.dxi
    n = grid.n
    lo, hi = _seed_index_range(h)
    _require_window_size(2 ** k_max * (hi - lo) + 1, n, f"level-{k_max}")
    pairs = []
    win = _seed_window(n, h)
    for k in range(k_max + 1):
        pairs.append((_level_from_window(k, win), win))
        if k < k_max:
            conv = convolve_lattice(win.values, h)
            win = FreqWindow(tuple(2 * s for s in win.start), conv, h)
    return pairs


def _derived_levels(k_max, grid):
    """Levels 0..k_max of the bump hierarchy on the grid's frequency lattice,
    in closed form from the seed's lattice points; no convolution. The grid
    must resolve the level-k_max corona, as for build_omega_sequence."""
    _require_levels(k_max, grid)
    n, h = grid.n, grid.dxi
    seed = _seed_window(n, h)
    support = np.nonzero(seed.values)
    count = len(support[0])
    in_cube = count > 0 and all(1.0 < xi[j.min()] and xi[j.max()] < 2.0
                                for xi, j in zip(seed.axes(), support))
    target = unit_ball_volume(n) / 2.0 ** n
    l1 = count * h ** n
    ratio = l1 / target     # 1 - eps0
    levels = []
    for k in range(k_max + 1):
        levels.append(BumpLevel(k=k, l1=l1, l1_target=target ** (2 ** k),
                                l1_error=abs(1.0 - ratio), in_cube=in_cube))
        l1 *= l1
        ratio *= ratio
    return levels


# ---------------------------------------------------------------------------
# the explicit exponential weights and the constants of the argument

@dataclass
class CertificateParams:
    """All scalar inputs of the blow-up argument.

    t_star = ln(2)/2^alpha and A_min = 2^(6+n) (the closed form of the printed
    amplitude floor e^{ln 2} * 2^(5+n)) are derived, not free. c1_floor is a
    float >= the exact C1 floor (c1_threshold), so C1 >= c1_floor decides
    the inequality.
    """

    n: int
    alpha: float
    gamma: float
    rho: float
    C1: float
    A: float

    def __post_init__(self):
        require_alpha(self.alpha)
        require_finite(gamma=self.gamma, rho=self.rho, C1=self.C1, A=self.A)
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError("dimension n must be a positive integer")
        if self.A <= 0:
            raise DomainError(f"amplitude A = {self.A} fails A > 0")
        if self.C1 <= 0:
            raise DomainError(f"C1 = {self.C1} fails C1 > 0")

    @property
    def t_star(self):
        return LN2 / 2.0 ** self.alpha

    @property
    def A_min(self):
        return 2.0 ** (6 + self.n)

    @property
    def c1_floor(self):
        return c1_threshold(self.n, self.alpha, self.rho)

    def violations(self):
        """Constraint violations as inequality-quoting messages (empty = ok)."""
        out = []
        if self.rho < 0:
            out.append(f"rho = {self.rho} fails rho >= 0")
        _, message = gamma_case(self.alpha, self.gamma, for_blowup=True)
        if message:
            out.append(message)
        if not self.A >= self.A_min:
            out.append(f"amplitude A = {self.A} fails A >= 2^(6+n) = {self.A_min}")
        if not self.C1 >= self.c1_floor:
            out.append(
                f"C1 = {self.C1} fails max(1, 2^(rho/2-1)) * n^((rho+alpha)/2) "
                f"* 2^(10n-1+rho+alpha) = {self.c1_floor} <= C1")
        # a correctly rounded sum keeps the sign of the exact one
        if not math.fsum((self.rho, self.alpha, -(5.0 * self.n + 2.0))) <= 0.0:
            out.append(
                f"rho + alpha = {self.rho + self.alpha} fails "
                f"rho + alpha <= 5n + 2 = {5 * self.n + 2}")
        return out


@dataclass
class InductionRecord:
    """Per-level outcome of the four lower-bound checks at t_star.

    conv: (|xi| w_{k-1}) * (|xi| w_{k-1}) >= 2^(2(k-1)) w_k pointwise;
    bessel: sup of (1+|xi|^2)^(rho/2) over the cube of w_k <= its closed bound
    max(1, 2^(rho/2-1)) n^(rho/2) 2^((k+1) rho + 1);
    time_integral: 1 - exp(-t_star n^(alpha/2) 2^(alpha(k+1))) >= 1/2;
    induction: the assembled prefactor chain dominates the level-k weight by
    the log2 margin. Levels k = 0 carry only the checks that apply.
    """

    k: int
    support_ok: bool
    conv_bound_ok: bool
    bessel_bound_ok: bool
    time_integral_ok: bool
    induction_ok: bool
    induction_margin_log2: float

    @property
    def all_ok(self):
        return (self.support_ok and self.conv_bound_ok and self.bessel_bound_ok
                and self.time_integral_ok and self.induction_ok)


def verify_induction_chain(levels, params):
    """Check every inequality of the induction step at the critical time
    params.t_star, in closed form from each level's hypercube_ok and the
    parameters. At each level k >= 1:

    - conv_bound_ok = levels[k-1].hypercube_ok (see the module docstring).
    - time_integral_ok = True: at t_star = ln 2 / 2^alpha the integral is
      1 - 2^(-n^(alpha/2) 2^(alpha k)), and n^(alpha/2) 2^(alpha k) >= 1.
    - bessel_bound_ok = hypercube_ok and (rho >= 0 or
      (rho/2) log2 n + (k+1) rho + 1 >= 0). In log2, for rho >= 0 the cube's
      sup exceeds the bound's (rho/2) log2 n + (k+1) rho by
      (rho/2) log2(1 + 4^(-k-1)/n) < 1 + max(0, rho/2 - 1), the rest of the
      bound; for rho < 0 the sup is at most 1.
    - induction_margin_log2 = log2 C1 - log2 c1_floor + k (5n + 2 - rho - alpha):
      the chain's time factor exp(-2t 2^(k-1+alpha)) cancels the level-k
      weight's exp(-t 2^(k+alpha)), and its powers of 2 and n sum to this.
      Both terms are >= 0 in floats when C1 >= c1_floor and
      rho + alpha <= 5n + 2; induction_ok = margin >= 0.

    Levels must be consecutive from k = 0.
    Failures are recorded, not raised.
    """
    if [lev.k for lev in levels] != list(range(len(levels))):
        raise DomainError("levels are not consecutive from k = 0")
    n, rho = params.n, params.rho
    c1_log2 = math.log2(params.C1) - math.log2(params.c1_floor)
    # 5n + 2 - rho - alpha, correctly rounded, so its sign is exact
    slope = math.fsum((5.0 * n + 2.0, -rho, -params.alpha))
    records = []
    for lev in levels:
        k = lev.k
        if k == 0:
            records.append(InductionRecord(
                k=0, support_ok=lev.support_ok, conv_bound_ok=True,
                bessel_bound_ok=True, time_integral_ok=True, induction_ok=True,
                induction_margin_log2=float("nan")))
            continue
        bessel_ok = lev.hypercube_ok and (
            rho >= 0 or (rho / 2.0) * math.log2(n) + (k + 1) * rho + 1.0 >= 0)
        margin = c1_log2 + k * slope
        records.append(InductionRecord(
            k=k, support_ok=lev.support_ok, conv_bound_ok=levels[k - 1].hypercube_ok,
            bessel_bound_ok=bessel_ok, time_integral_ok=True, induction_ok=margin >= 0,
            induction_margin_log2=margin))
    return records


def _log2_ratio(params):
    # t_star 2^(alpha+1) = 2 ln 2, so the e-power is exactly 2^2
    return 2.0 * math.log2(params.A) - (12.0 + 2.0 * params.n)


def blowup_constants(params):
    """ratio = A^2 / (e^{t_star 2^(alpha+1)} 2^(10+2n)) = A^2 / 2^(12+2n),
    the quantity whose >= 1 makes the series terms non-vanishing, so it is
    >= 1 exactly when A >= A_min. Computed in log domain; exactly 1 at
    A = A_min, inf past float range."""
    log2_ratio = _log2_ratio(params)
    return 2.0 ** log2_ratio if log2_ratio < 1024 else math.inf


def series_term_log(k, params):
    """ln of term_k = ratio^(2^k) * v_n^(2^(k+1)) * 2^(k(9n+2)).

    ln(ratio) comes from its log2 exponent, not from the ratio itself, which
    underflows to 0.0 for tiny A."""
    vn = unit_ball_volume(params.n)
    return (2.0 ** k * (_log2_ratio(params) * LN2)
            + 2.0 ** (k + 1) * math.log(vn)
            + k * (9.0 * params.n + 2.0) * LN2)


def series_prefactor_log(params):
    """ln of n 2^10 / C(n) with C(n) = v_n n^(n/2) (2^n - 1)."""
    n = params.n
    vn = unit_ball_volume(n)
    cn = vn * n ** (n / 2.0) * (2.0 ** n - 1.0)
    return math.log(n) + 10.0 * LN2 - math.log(cn)


def divergence_partial_sums(params, K):
    """ln of the partial sums S_1..S_K of the squared-seminorm lower bound.

    Returned in log domain on purpose: with admissible constants S_K exceeds
    float range from K around 6 (the terms dominate like 2^(2^(k+1)))."""
    # 2^(k+1) in the last term must stay inside float range
    if not 1 <= K <= 1023:
        raise DomainError(f"series terms K = {K} fails 1 <= K <= 1023")
    pref = series_prefactor_log(params)
    log_sums = []
    acc = None
    for k in range(K):
        term = pref + series_term_log(k, params)
        acc = term if acc is None else float(np.logaddexp(acc, term))
        log_sums.append(acc)
    return log_sums


# ---------------------------------------------------------------------------
# orchestration

@dataclass
class CertificateReport:
    """Everything the certificate run derived, plus the verdict. k_max is
    the last level's k; t_star and A_min are the params'."""

    params: CertificateParams
    grid: GridSpec
    violations: List[str]
    levels: List[BumpLevel]
    records: List[InductionRecord]
    ratio: float
    ratio_ok: bool
    log_partial_sums: List[float]
    verdict: str
    messages: List[str]

    def to_text(self):
        p = self.params
        lines = []
        lines.append("blow-up certificate report")
        lines.append(f"  n={p.n} alpha={p.alpha} gamma={p.gamma} rho={p.rho} "
                     f"C1={p.C1} A={p.A}")
        lines.append(f"  grid: L={self.grid.L:.6g} N={self.grid.N} "
                     f"dxi={self.grid.dxi:.6g}  k_max={self.levels[-1].k}")
        lines.append("")
        if self.violations:
            lines.append("parameter violations:")
            for v in self.violations:
                lines.append(f"  - {v}")
            lines.append("")
        lines.append("per-level checks (support / L1 identity / induction):")
        lines.append("  k  support_ok  l1_error    conv_ok  bessel_ok  time_ok  "
                     "induction_ok  margin_log2")
        for lev, rec in zip(self.levels, self.records):
            lines.append(
                f"  {rec.k}  {str(rec.support_ok):>10}  {lev.l1_error:.3e}  "
                f"{str(rec.conv_bound_ok):>7}  {str(rec.bessel_bound_ok):>9}  "
                f"{str(rec.time_integral_ok):>7}  {str(rec.induction_ok):>12}  "
                f"{rec.induction_margin_log2:.6g}")
        lines.append("")
        lines.append("constants:")
        lines.append(f"  t_star = ln(2)/2^alpha = {p.t_star!r}")
        lines.append(f"  A_min = 2^(6+n) = {p.A_min!r}")
        lines.append(f"  ratio = A^2 / (e^(t_star 2^(alpha+1)) 2^(10+2n)) = {self.ratio!r} "
                     f"(needs >= 1: {'ok' if self.ratio_ok else 'FAIL'})")
        lines.append("")
        lines.append("series lower bound, log2 of partial sums:")
        for i, s in enumerate(self.log_partial_sums, start=1):
            lines.append(f"  K={i:2d}  log2 S_K = {s / LN2:.6g}")
        lines.append("")
        for m in self.messages:
            lines.append(m)
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("# per-level certificate checks; margins are dimensionless\n")
            fh.write("k,support_ok,hypercube_ok,l1,l1_target,l1_error,"
                     "conv_bound_ok,bessel_bound_ok,time_integral_ok,"
                     "induction_ok,induction_margin_log2\n")
            for lev, rec in zip(self.levels, self.records):
                fh.write(f"{rec.k},{int(rec.support_ok)},{int(lev.hypercube_ok)},"
                         f"{lev.l1!r},{lev.l1_target!r},{lev.l1_error!r},"
                         f"{int(rec.conv_bound_ok)},"
                         f"{int(rec.bessel_bound_ok)},{int(rec.time_integral_ok)},"
                         f"{int(rec.induction_ok)},{rec.induction_margin_log2!r}\n")
            fh.write("# constants\n")
            fh.write(f"ratio,{self.ratio!r}\nratio_ok,{int(self.ratio_ok)}\n")
            fh.write(f"t_star,{self.params.t_star!r}\nA_min,{self.params.A_min!r}\n")
            fh.write("# log2 partial sums of the series lower bound\n")
            fh.write("K,log2_S_K\n")
            for i, s in enumerate(self.log_partial_sums, start=1):
                fh.write(f"{i},{float(s / LN2)!r}\n")


def certify(params, grid, k_max, series_terms):
    """Run the whole certificate at t = t_star on the grid's frequency
    lattice, with levels 0..k_max (derived, no convolution) and series_terms
    partial sums, and assemble the verdict.

    certified-divergent iff the parameters satisfy every constraint, every
    per-level flag holds up to k_max, and the series ratio is >= 1. Grid
    inadequacy raises (it is an environment problem, not a finding), and so
    does a grid whose dimension is not params.n.
    """
    if grid.n != params.n:
        raise DomainError(f"grid dimension grid.n = {grid.n} fails "
                          f"grid.n = params.n = {params.n}")
    violations = params.violations()
    levels = _derived_levels(k_max, grid)
    records = verify_induction_chain(levels, params)
    ratio = blowup_constants(params)
    ratio_ok = params.A >= params.A_min
    log_sums = divergence_partial_sums(params, series_terms)
    messages = []
    all_flags = all(r.all_ok for r in records) and all(l.hypercube_ok for l in levels)
    if violations:
        messages.append("parameter constraints failed; lower-bound argument not applicable")
    if not ratio_ok:
        messages.append("series ratio < 1: the divergence argument does not close "
                        "(terms may still grow; see the partial sums)")
    verdict = ("certified-divergent"
               if (not violations) and all_flags and ratio_ok else "not-certified")
    return CertificateReport(
        params=params, grid=grid, violations=violations, levels=levels,
        records=records, ratio=ratio, ratio_ok=ratio_ok,
        log_partial_sums=log_sums, verdict=verdict, messages=messages)
