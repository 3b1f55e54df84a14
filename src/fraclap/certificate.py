"""Blow-up certificate: dyadic Fourier bumps, the induction chain, and the
divergent series of the lower-bound argument.

The certificate machinery never leaves the Fourier side. The seed bump is the
indicator of the radius-1/2 ball around the point with every component 3/2;
level k+1 is the lattice autoconvolution of level k (weight dxi^n, so the
discrete L1 identities hold exactly up to quadrature). Each level is supported
in the open hypercube (2^k, 2^(k+1))^n, hence in the corona
sqrt(n) 2^k < |xi| < sqrt(n) 2^(k+1), with L1 mass (v_n / 2^n)^(2^k).

Everything multiplicative (A^(2^k), the 2^(-5(2^k-1)) weights, the series
terms) is handled in log domain: the quantities underflow/overflow floats
from k around 5 onward.

Only the support window of each bump is stored; discrete linear convolution
of compactly supported arrays is exactly supported in the Minkowski sum of
the supports, so window arithmetic equals full-lattice arithmetic.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .coefficient import c1_threshold
from .errors import DomainError, require_finite
from .operators import require_alpha
from .spectral import GridSpec, write_csv

LN2 = math.log(2.0)

#: seed bump geometry, fixed once and for all
XI0_COMPONENT = 1.5
BUMP_RADIUS = 0.5

_SUPPORT_MARGIN = 2          # zero-padding cells kept around each window
_SUPPORT_REL_TOL = 1e-13     # support: values above this fraction of the peak
_CORONA_MASS_TOL = 1e-10
_CONV_TOL = 1e-10            # conv-bound slack, relative to the bound's peak


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

    def radius_grid(self):
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    def l1(self):
        return float(self.values.sum() * self.h ** self.n)

    def mass_where(self, mask):
        return float(np.abs(self.values[mask]).sum() * self.h ** self.n)

    def support_mask(self):
        return self.values > _SUPPORT_REL_TOL * self.values.max()

    def to_csv(self, path):
        xi = np.meshgrid(*self.axes(), indexing="ij")
        write_csv(path,
                  ["frequency window: per-axis xi (dimensionless frequency), value",
                   f"spacing={self.h!r} start={self.start!r}"],
                  "".join(f"xi{a + 1}," for a in range(self.n)) + "value",
                  [g.ravel() for g in xi] + [self.values.ravel()])


@dataclass
class OmegaLevel:
    """Level-k bump with its verified discrete invariants."""

    k: int
    window: FreqWindow
    l1: float
    support_corona: tuple
    l1_target: float
    l1_error: float
    out_corona_mass_rel: float
    out_cube_mass_rel: float
    doubling_error: Optional[float]
    min_value: float

    @property
    def support_ok(self):
        return self.out_corona_mass_rel <= _CORONA_MASS_TOL

    @property
    def hypercube_ok(self):
        return self.out_cube_mass_rel <= _CORONA_MASS_TOL


def default_certificate_grid(n):
    """Fine-spacing lattices sized so the level-k L1 identities hold to <=1%
    at the default k range (dyadic spacing, exact index arithmetic)."""
    if n == 1:
        return GridSpec(1, 2048.0 * math.pi, 1 << 16)   # h = 1/1024, xi_max = 32
    if n == 2:
        return GridSpec(2, 256.0 * math.pi, 1 << 12)    # h = 1/128,  xi_max = 16
    if n == 3:
        return GridSpec(3, 64.0 * math.pi, 1 << 10)     # h = 1/32,   xi_max = 16
    raise DomainError("certificate grids exist for 1 <= n <= 3")


def default_k_max(n):
    return 3 if n == 1 else 2


def _seed_window(n, h):
    """Strict indicator of the seed ball, sampled on the lattice (no partial
    cell weighting; boundary points fall exactly on the lattice for the
    dyadic default spacings and are excluded)."""
    lo = int(math.floor((XI0_COMPONENT - BUMP_RADIUS) / h)) - _SUPPORT_MARGIN
    hi = int(math.ceil((XI0_COMPONENT + BUMP_RADIUS) / h)) + _SUPPORT_MARGIN
    idx = np.arange(lo, hi + 1)
    grids = np.meshgrid(*([idx * h] * n), indexing="ij")
    r2 = sum((g - XI0_COMPONENT) ** 2 for g in grids)
    values = (r2 < BUMP_RADIUS ** 2).astype(np.float64)
    return FreqWindow((lo,) * n, values, h)


def _level_from_window(k, win, n, prev_l1):
    vn = unit_ball_volume(n)
    target = (vn / 2.0 ** n) ** (2 ** k)
    l1 = win.l1()
    corona = (math.sqrt(n) * 2.0 ** k, math.sqrt(n) * 2.0 ** (k + 1))
    r = win.radius_grid()
    out_corona = win.mass_where((r <= corona[0]) | (r >= corona[1]))
    inside = [(ax > 2.0 ** k) & (ax < 2.0 ** (k + 1)) for ax in win.axes()]
    inside_cube = functools.reduce(np.logical_and,
                                   np.meshgrid(*inside, indexing="ij", sparse=True))
    out_cube = win.mass_where(~inside_cube)
    total = float(np.abs(win.values).sum() * win.h ** n)
    doubling = None if prev_l1 is None else abs(l1 - prev_l1 ** 2) / prev_l1 ** 2
    return OmegaLevel(
        k=k,
        window=win,
        l1=l1,
        support_corona=corona,
        l1_target=target,
        l1_error=abs(l1 - target) / target,
        out_corona_mass_rel=out_corona / total,
        out_cube_mass_rel=out_cube / total,
        doubling_error=doubling,
        min_value=float(win.values.min()),
    )


def convolve_lattice(a, spacing):
    """Lattice autoconvolution a * a of a sampled function on a uniform
    frequency lattice, scaled by ``spacing**ndim`` so it approximates the
    continuum convolution integral.

    Returns the full convolution (2 len(a) - 1 per axis), computed through one
    zero-padded real FFT of power-of-two size, squared in place. The inverse
    runs in irfftn's own order (complex passes over the leading axes, then the
    real pass over the last) in the spectrum's buffer, and cuts each axis to
    the output length before the next pass, so no line whose output the crop
    drops is transformed. Each kept line takes the same 1-D transform of the
    same input as in ``irfftn(rfftn(a, s) * rfftn(a, s), s)``, so the result
    equals that expression bit for bit. Outside the Minkowski sum of the
    input support it holds roundoff noise rather than exact zeros.
    """
    a = np.asarray(a, dtype=np.float64)
    out_shape = tuple(2 * s - 1 for s in a.shape)
    fshape = tuple(1 << int(np.ceil(np.log2(s))) for s in out_shape)
    f = np.fft.rfftn(a, s=fshape, axes=tuple(range(a.ndim)))
    np.multiply(f, f, out=f)
    for ax in range(a.ndim - 1):
        np.fft.ifft(f, axis=ax, out=f)
        f = f[(slice(None),) * ax + (slice(0, out_shape[ax]),)]
    out = np.fft.irfft(f, n=fshape[-1], axis=-1)
    return out[..., :out_shape[-1]] * spacing ** a.ndim


def build_omega_sequence(k_max, grid):
    """Levels 0..k_max of the bump hierarchy on the grid's frequency lattice.

    The grid must resolve the level-k_max corona (xi_max > sqrt(n) 2^(k_max+1))
    and have spacing <= 1/4. Each level records its discrete invariants; the
    caller decides what to do with violations.
    """
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    grid.require_corona_resolution(k_max)
    h = grid.dxi
    n = grid.n
    levels = []
    win = _seed_window(n, h)
    prev_l1 = None
    for k in range(k_max + 1):
        levels.append(_level_from_window(k, win, n, prev_l1))
        prev_l1 = levels[-1].l1
        if k < k_max:
            conv = convolve_lattice(win.values, h)
            win = FreqWindow(tuple(2 * s for s in win.start), conv, h)
    return levels


# ---------------------------------------------------------------------------
# the explicit exponential weights and the constants of the argument

@dataclass
class CertificateParams:
    """All scalar inputs of the blow-up argument.

    t_star = ln(2)/2^alpha and A_min = 2^(6+n) (the closed form of the printed
    amplitude floor e^{ln 2} * 2^(5+n)) are derived, not free.
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
        if not self.A >= self.A_min * (1.0 - 1e-12):
            out.append(f"amplitude A = {self.A} fails A >= 2^(6+n) = {self.A_min}")
        if not self.C1 >= self.c1_floor * (1.0 - 1e-12):
            out.append(
                f"C1 = {self.C1} fails max(1, 2^(rho/2-1)) * n^((rho+alpha)/2) "
                f"* 2^(10n-1+rho+alpha) = {self.c1_floor} <= C1")
        if not self.rho + self.alpha <= 5.0 * self.n + 2.0 + 1e-12:
            out.append(
                f"rho + alpha = {self.rho + self.alpha} fails "
                f"rho + alpha <= 5n + 2 = {5 * self.n + 2}")
        return out


def bump_weight_log(k, t, alpha, n):
    """ln of the level-k exponential weight
    exp(-t 2^(k+alpha)) * 2^(-5(2^k - 1)) * 2^(5nk)."""
    if k < 0 or t < 0:
        raise DomainError("bump weight needs k >= 0 and t >= 0")
    return -t * 2.0 ** (k + alpha) + LN2 * (-5.0 * (2.0 ** k - 1.0) + 5.0 * n * k)


@dataclass
class InductionRecord:
    """Per-level outcome of the four lower-bound checks.

    conv: discrete (|xi| w_{k-1}) * (|xi| w_{k-1}) >= 2^(2(k-1)) w_k pointwise;
    bessel: sup of (1+|xi|^2)^(rho/2) over supp w_k against its closed bound;
    time_integral: 1 - exp(-t n^(alpha/2) 2^(alpha(k+1))) >= 1/2;
    induction: the assembled prefactor chain dominates the level-k weight
    (log2 margin reported). Levels k = 0 carry only the checks that apply.
    """

    k: int
    support_ok: bool
    l1_error: float
    conv_bound_ok: bool
    conv_margin: float
    bessel_bound_ok: bool
    bessel_max: float
    bessel_bound: float
    time_integral_ok: bool
    time_integral_value: float
    induction_ok: bool
    induction_margin_log2: float

    @property
    def all_ok(self):
        return (self.support_ok and self.conv_bound_ok and self.bessel_bound_ok
                and self.time_integral_ok and self.induction_ok)


def _time_integral_value(k, t, alpha, n):
    return 1.0 - math.exp(-t * n ** (alpha / 2.0) * 2.0 ** (alpha * (k + 1)))


def _induction_margin_log2(k, t, params):
    """log2(assembled chain prefactor) - log2(level-k weight), A-power cancelled.

    Chain: C1 * 2^(2(k-1)) * n^(-rho/2) 2^(-(k+1)rho - 1) / max(1, 2^(rho/2-1))
           * [squared level-(k-1) weight]
           * n^(-alpha/2) 2^(-alpha(k+1)) * 2^(-1)
    Target: the level-k weight.
    The two time exponentials are identical (2t 2^(k-1+alpha) = t 2^(k+alpha),
    exact in floats), so the margin is t-independent; both are kept anyway.
    """
    n, alpha, rho, C1 = params.n, params.alpha, params.rho, params.C1
    lhs = (math.log2(C1)
           - (rho / 2.0) * math.log2(n)
           - max(0.0, rho / 2.0 - 1.0)
           + 2.0 * (k - 1)
           - (k + 1) * rho - 1.0
           + 2.0 * bump_weight_log(k - 1, t, alpha, n) / LN2
           - (alpha / 2.0) * math.log2(n)
           - alpha * (k + 1) - 1.0)
    return lhs - bump_weight_log(k, t, alpha, n) / LN2


def verify_induction_chain(levels, params, t):
    """Audit every inequality of the induction step on the lattice at time t.

    Levels must be consecutive from k = 0. Failures are recorded, not raised.
    """
    if t < params.t_star * (1.0 - 1e-12):
        raise DomainError(
            f"induction chain is certified for t >= t_star = {params.t_star}, got {t}")
    n, alpha, rho = params.n, params.alpha, params.rho
    bessel_cap_log2 = (max(0.0, rho / 2.0 - 1.0) + (rho / 2.0) * math.log2(n))
    records = []
    for lev in levels:
        k = lev.k
        tv = _time_integral_value(k, t, alpha, n)
        time_ok = tv >= 0.5 - 1e-12
        if k == 0:
            records.append(InductionRecord(
                k=0, support_ok=lev.support_ok, l1_error=lev.l1_error,
                conv_bound_ok=True, conv_margin=float("nan"),
                bessel_bound_ok=True, bessel_max=float("nan"),
                bessel_bound=float("nan"),
                time_integral_ok=time_ok, time_integral_value=tv,
                induction_ok=True, induction_margin_log2=float("nan")))
            continue
        prev = levels[k - 1]
        w_prev = prev.window
        weighted = w_prev.radius_grid() * w_prev.values
        conv = convolve_lattice(weighted, w_prev.h)
        bound = 2.0 ** (2 * (k - 1)) * lev.window.values
        if conv.shape != bound.shape:
            raise DomainError("level windows are not consecutive autoconvolutions")
        ref = bound.max()
        margin = float((conv - bound).min())
        conv_ok = margin >= -_CONV_TOL * ref

        supp = lev.window.support_mask()
        r = lev.window.radius_grid()
        one_plus = 1.0 + r[supp] ** 2
        bessel_max_log2 = float((rho / 2.0) * np.log2(one_plus).max()) if rho > 0 else 0.0
        bound_log2 = bessel_cap_log2 + (k + 1) * rho + 1.0
        bessel_ok = bessel_max_log2 <= bound_log2 + 1e-12

        ind_margin = _induction_margin_log2(k, t, params)
        ind_ok = ind_margin >= -1e-9

        records.append(InductionRecord(
            k=k, support_ok=lev.support_ok, l1_error=lev.l1_error,
            conv_bound_ok=conv_ok, conv_margin=margin,
            bessel_bound_ok=bessel_ok, bessel_max=2.0 ** bessel_max_log2,
            bessel_bound=2.0 ** bound_log2,
            time_integral_ok=time_ok, time_integral_value=tv,
            induction_ok=ind_ok, induction_margin_log2=ind_margin))
    return records


def _log2_ratio(params):
    return (2.0 * math.log2(params.A)
            - params.t_star * 2.0 ** (params.alpha + 1.0) / LN2
            - (10.0 + 2.0 * params.n))


def blowup_constants(params):
    """(ratio, t_star, A_min) with ratio = A^2 / (e^{t_star 2^(alpha+1)} 2^(10+2n)),
    the quantity whose >= 1 makes the series terms non-vanishing. Computed in
    log domain; exactly 1 at A = A_min, inf past float range."""
    log2_ratio = _log2_ratio(params)
    ratio = 2.0 ** log2_ratio if log2_ratio < 1024 else math.inf
    return ratio, params.t_star, params.A_min


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
    """Everything the certificate run measured, plus the verdict."""

    params: CertificateParams
    k_max: int
    grid: GridSpec
    violations: List[str]
    levels: List[OmegaLevel]
    records: List[InductionRecord]
    ratio: float
    ratio_ok: bool
    t_star: float
    A_min: float
    log_partial_sums: List[float]
    verdict: str = "not-certified"
    messages: List[str] = field(default_factory=list)

    @property
    def certified(self):
        return self.verdict == "certified-divergent"

    def to_text(self):
        p = self.params
        lines = []
        lines.append("blow-up certificate report")
        lines.append(f"  n={p.n} alpha={p.alpha} gamma={p.gamma} rho={p.rho} "
                     f"C1={p.C1} A={p.A}")
        lines.append(f"  grid: L={self.grid.L:.6g} N={self.grid.N} "
                     f"dxi={self.grid.dxi:.6g}  k_max={self.k_max}")
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
        lines.append(f"  t_star = ln(2)/2^alpha = {self.t_star!r}")
        lines.append(f"  A_min = 2^(6+n) = {self.A_min!r}")
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
            fh.write("k,support_ok,hypercube_ok,l1,l1_target,l1_error,doubling_error,"
                     "conv_bound_ok,conv_margin,bessel_bound_ok,time_integral_ok,"
                     "induction_ok,induction_margin_log2\n")
            for lev, rec in zip(self.levels, self.records):
                doubling = "" if lev.doubling_error is None else repr(lev.doubling_error)
                fh.write(f"{rec.k},{int(rec.support_ok)},{int(lev.hypercube_ok)},"
                         f"{lev.l1!r},{lev.l1_target!r},{lev.l1_error!r},{doubling},"
                         f"{int(rec.conv_bound_ok)},{rec.conv_margin!r},"
                         f"{int(rec.bessel_bound_ok)},{int(rec.time_integral_ok)},"
                         f"{int(rec.induction_ok)},{rec.induction_margin_log2!r}\n")
            fh.write("# constants\n")
            fh.write(f"ratio,{self.ratio!r}\nratio_ok,{int(self.ratio_ok)}\n")
            fh.write(f"t_star,{self.t_star!r}\nA_min,{self.A_min!r}\n")
            fh.write("# log2 partial sums of the series lower bound\n")
            fh.write("K,log2_S_K\n")
            for i, s in enumerate(self.log_partial_sums, start=1):
                fh.write(f"{i},{float(s / LN2)!r}\n")


def certify(params, grid=None, k_max=None, series_terms=12):
    """Run the whole certificate at t = t_star and assemble the verdict.

    certified-divergent iff the parameters satisfy every constraint, every
    per-level flag holds up to k_max, and the series ratio is >= 1. Grid
    inadequacy raises (it is an environment problem, not a finding).
    """
    if grid is None:
        grid = default_certificate_grid(params.n)
    if k_max is None:
        k_max = default_k_max(params.n)
    violations = params.violations()
    levels = build_omega_sequence(k_max, grid)
    records = verify_induction_chain(levels, params, params.t_star)
    ratio, t_star, a_min = blowup_constants(params)
    ratio_ok = ratio >= 1.0 - 1e-12
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
        params=params, k_max=k_max, grid=grid, violations=violations,
        levels=levels, records=records, ratio=ratio, ratio_ok=ratio_ok,
        t_star=t_star, A_min=a_min, log_partial_sums=log_sums,
        verdict=verdict, messages=messages)
