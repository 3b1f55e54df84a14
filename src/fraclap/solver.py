"""Mild-solution solver: global-in-time Picard iteration on the Duhamel form.

The unknown is advanced through the integral equation

    u(t) = exp(-t (-Lap)^(alpha/2)) u0
           + int_0^t exp(-(t-s) (-Lap)^(alpha/2)) [ ((-Lap)^(1/2) u)^2 * b ](s) ds

with the semigroup at lag t-s, every multiplier applied exactly in Fourier
space, and trapezoid quadrature in s. One Picard sweep evaluates the right
side over the whole time lattice using the previous iterate (the fixed-point
map itself, not time marching); the quadrature is accumulated with the exact
recurrence

    I(t_{i+1}) = exp(-dt (-Lap)^(alpha/2)) [ I(t_i) + dt/2 G(t_i) ] + dt/2 G(t_{i+1})

so a sweep costs O(M) transform work instead of O(M^2).

The iterate is one (M+1, *grid.shape) stack of node coefficients, updated in
place. A sweep walks the node axis in chunks of as many nodes as fit a
256 KiB budget (dozens per chunk on 1-D grids, one on a 256^2 or 128^3
grid): per chunk, G is one batched inverse and one forward FFT over the
spatial axes, the recurrence steps node by node, and the chunk's H1 norms,
residual and coefficient extrema are taken before its rows are replaced.
Batched transforms, elementwise ops and per-row sums apply the same
arithmetic to each node as a call on that node alone, so every result is
bitwise identical to a per-node sweep (tests/oracles.py keeps that loop as
the reference).

Blow-up handling: past the true explosion time the iterates diverge doubly
exponentially in the sweep index and would overflow float range, so
nonlinearity inputs at nodes whose discrete H1 exceeds overflow_threshold are
rescaled down to the threshold (saturated forcing; continuous in the iterate,
unlike an on/off cutoff, which orbits a limit cycle). Saturation only affects
nodes at or past the crossing; the returned trajectory is truncated at the
first crossing, whose field is kept and flagged, and convergence is declared
on the pre-crossing prefix with a stable crossing index.
"""

import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .certificate import BUMP_RADIUS, XI0_COMPONENT
from .coefficient import CoefficientSpec, gamma_case, sobolev_norm_of_b
from .errors import DomainError, NonConvergenceError, require_finite
from .operators import require_alpha, semigroup_symbol
from .spectral import (GridSpec, SpectralField, _weighted_norm, dealiased_square,
                       field_to_csv, h1_dot_norm, h1_norm, h1_weight, write_csv)


def omega_initial_field(grid, amplitude, symmetrize=True):
    """Initial datum A * (Fourier-side indicator bump).

    The one-sided bump (ball of radius 1/2 around the all-(3/2) point) is not
    Hermitian; by default the mirror ball at -xi0 is added so the datum is a
    real field. The hat values stay >= the one-sided bump pointwise, so every
    Fourier lower bound for the one-sided datum holds a fortiori.
    """
    require_finite(u0_amplitude=amplitude)
    axes = np.meshgrid(*grid.xi_axes, indexing="ij")
    r2_plus = sum((g - XI0_COMPONENT) ** 2 for g in axes)
    hat = (r2_plus < BUMP_RADIUS ** 2).astype(float)
    if symmetrize:
        r2_minus = sum((g + XI0_COMPONENT) ** 2 for g in axes)
        hat = hat + (r2_minus < BUMP_RADIUS ** 2).astype(float)
    return SpectralField.from_hat_values(grid, amplitude * hat, is_real=symmetrize)


def random_nonneg_initial_field(grid, h1_amplitude, seed, max_mode=None):
    """Seeded random datum with nonnegative Hermitian-symmetric coefficients.

    Band-limited well inside the dealiased range; scaled to the requested
    discrete H1 norm (zero field for amplitude 0). Used for positivity and
    linear-exactness experiments.
    """
    require_finite(u0_amplitude=h1_amplitude)
    if h1_amplitude < 0:
        raise DomainError(f"u0_amplitude = {h1_amplitude} fails u0_amplitude >= 0")
    rng = np.random.default_rng(seed)
    if max_mode is None:
        max_mode = max(2, grid.N // 6)
    band = np.abs(grid.modes) <= max_mode
    grids = np.meshgrid(*((band,) * grid.n), indexing="ij")
    mask = grids[0]
    for g in grids[1:]:
        mask = mask & g
    raw = np.where(mask, rng.uniform(0.0, 1.0, size=grid.shape), 0.0)
    sym = raw
    for ax in range(grid.n):
        sym = sym + np.roll(np.flip(sym, axis=ax), 1, axis=ax)
    c = sym.astype(np.complex128)
    fld = SpectralField(grid, c, is_real=True)
    norm = h1_norm(fld)
    if norm > 0 and h1_amplitude > 0:
        fld = SpectralField(grid, c * (h1_amplitude / norm), is_real=True)
    elif h1_amplitude == 0:
        fld = SpectralField.zero(grid)
    return fld


@dataclass
class ProblemConfig:
    """Everything a solver run needs, in one place."""

    grid: GridSpec
    alpha: float
    gamma: float
    coefficient: CoefficientSpec
    u0: SpectralField
    T0: float
    dt: float
    picard_tol: float = 1e-8
    picard_max_iter: int = 60
    overflow_threshold: float = 1e12
    C_abs: float = 1.0

    def __post_init__(self):
        require_alpha(self.alpha)
        require_finite(T0=self.T0, dt=self.dt, picard_tol=self.picard_tol,
                       overflow_threshold=self.overflow_threshold, C_abs=self.C_abs)
        _, message = gamma_case(self.alpha, self.gamma)
        if message:
            raise DomainError(message)
        if self.T0 <= 0:
            raise DomainError(f"horizon must satisfy T0 > 0, got {self.T0}")
        if self.dt <= 0 or self.dt > self.T0:
            raise DomainError(f"time step must satisfy 0 < dt <= T0, got {self.dt}")
        if self.picard_tol <= 0:
            raise DomainError("picard_tol must be > 0")
        if self.overflow_threshold <= 0:
            raise DomainError("overflow_threshold must be > 0")
        if self.picard_max_iter < 1:
            raise DomainError(
                f"picard_max_iter = {self.picard_max_iter} fails picard_max_iter >= 1")
        if self.u0.grid != self.grid:
            raise DomainError("initial datum lives on a different grid")
        if not self.u0.is_real:
            raise DomainError("initial datum must be flagged real (Hermitian coefficients)")

    @property
    def n_steps(self):
        return int(round(self.T0 / self.dt))

    @property
    def times(self):
        return np.arange(self.n_steps + 1) * self.dt


@dataclass
class Trajectory:
    """Solver output: fields and norms on the time lattice up to overflow."""

    times: np.ndarray
    fields: List[SpectralField]
    h1_norms: np.ndarray
    h1_dot_norms: np.ndarray
    overflow_at: Optional[float]
    picard_residuals: List[float]
    iterations: int = 0
    converged: bool = False
    # global coefficient extrema over every Picard iterate and time:
    # (min real part, max real part, max |imag|), for positivity audits
    iterate_extrema: tuple = (0.0, 0.0, 0.0)

    def max_abs_coeff(self):
        return np.array([np.abs(f.coeffs).max() for f in self.fields])

    def to_csv(self, path):
        write_csv(path,
                  ["trajectory: t (time units), discrete H1 and homogeneous H1 "
                   "norms (field units), max |coefficient|",
                   f"overflow_at={self.overflow_at!r} iterations={self.iterations} "
                   f"converged={int(self.converged)}"],
                  "t,h1,h1_dot,max_abs_coeff",
                  [self.times, self.h1_norms, self.h1_dot_norms, self.max_abs_coeff()])

    def field_at(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(float(self.times[-1]), 1.0):
            raise DomainError(f"time {t} is not on the computed lattice")
        return self.fields[i]

    def write_snapshots(self, directory, snapshot_times):
        """Full-field CSV per requested lattice time: snapshot_t{T}.csv."""
        paths = []
        for t in snapshot_times:
            fld = self.field_at(t)
            path = os.path.join(directory, f"snapshot_t{float(t):g}.csv")
            field_to_csv(fld, path)
            paths.append(path)
        return paths


def sweep_step(I, decay, g_prev, g_new, half_dt):
    """One trapezoid step of ``int_0^t exp(-(t-s)L) G(s) ds`` with the decay
    multiplier applied exactly:
    I_new = decay * (I + half_dt * g_prev) + half_dt * g_new."""
    return decay * (I + half_dt * g_prev) + half_dt * g_new


# scratch budget for one chunk of the node stack: a 1-D sweep batches many
# nodes per transform call, a 256^2 or 128^3 field goes one node at a time
_CHUNK_BYTES = 256 * 1024


class _SweepState:
    """Per-run precomputed multipliers, and G and the H1 norm over node stacks.

    A node stack is a (k, *grid.shape) coefficient array holding consecutive
    time nodes. Every operation is elementwise, a transform over the spatial
    axes only, or a sum over one row, so each row comes out bit for bit as if
    the node had been processed on its own.
    """

    def __init__(self, config):
        grid = config.grid
        self.grid = grid
        self.axes = tuple(range(1, grid.n + 1))
        xi2 = grid.xi_norm_sq
        self.abs_xi = np.sqrt(xi2)
        self.decay_dt = semigroup_symbol(grid, config.dt, config.alpha)
        self.alpha = config.alpha
        self.h1_weight = h1_weight(grid)
        self.modulated = config.coefficient.time_modulation is not None
        if self.modulated:
            self.b_sym = np.stack([config.coefficient.symbol_on(t, xi2)
                                   for t in config.times])
        else:
            self.b_sym = config.coefficient.symbol_on(0.0, xi2)

    def linear_part(self, u0_coeffs, t):
        return semigroup_symbol(self.grid, t, self.alpha) * u0_coeffs

    def nonlinearity(self, u, lo, h1=None, thresh=None, work=None):
        """G(u)(t_i) for the stack u of nodes i = lo, ..., lo + len(u) - 1:
        coefficients of b * dealias( ((-Lap)^(1/2) u)^2 ).

        With h1 (the rows' H1 norms), a row whose norm exceeds thresh is
        rescaled down to it first (saturated forcing) and a row whose norm
        is not finite gets G = 0. work is optional scratch shaped like u.
        """
        a = np.multiply(self.abs_xi, u, out=work)
        if h1 is not None:
            for r in np.flatnonzero(~(h1 <= thresh)):
                if np.isfinite(h1[r]):
                    np.multiply(u[r], thresh / h1[r], out=a[r])
                    np.multiply(self.abs_xi, a[r], out=a[r])
                else:
                    a[r] = 0.0
        w = dealiased_square(a, self.grid, self.axes)
        np.multiply(w, self.b_sym[lo:lo + len(u)] if self.modulated else self.b_sym,
                    out=w)
        if h1 is not None:
            w[~np.isfinite(h1)] = 0.0
        return w

    def h1_rows(self, u):
        """Discrete H1 norm of each row of the stack u; +inf for a row with a
        non-finite coefficient."""
        return _weighted_norm(self.h1_weight, u, self.axes)


def picard_solve(config):
    """Iterate the Duhamel map to its fixed point over [0, T0].

    Returns a Trajectory. Convergence means the sup-in-time relative H1 change
    between sweeps dropped below picard_tol on the valid (pre-overflow) range
    with a stable overflow index. Hitting max_iter with an overflow pending is
    a blow-up diagnostic, not a failure; without overflow it raises
    NonConvergenceError carrying the residual history.
    """
    state = _SweepState(config)
    grid = config.grid
    M = config.n_steps
    times = config.times
    u0c = config.u0.coeffs
    thresh = config.overflow_threshold
    half_dt = 0.5 * config.dt
    lin = np.empty((M + 1,) + grid.shape, dtype=np.complex128)
    for i, t in enumerate(times):
        lin[i] = state.linear_part(u0c, t)
    chunk = max(1, _CHUNK_BYTES // lin[0].nbytes)

    def crossing_of(h1):
        over = np.flatnonzero(~np.isfinite(h1) | (h1 > thresh))
        return int(over[0]) if len(over) else None

    # the iterate is updated in place, chunk by chunk: the G values a chunk
    # needs from the previous iterate are taken before its rows are replaced,
    # and later nodes only read later rows
    prev = lin.copy()
    # norms chunk by chunk: whole-stack temporaries would raise peak memory
    prev_h1 = np.concatenate([state.h1_rows(prev[lo:lo + chunk])
                              for lo in range(0, M + 1, chunk)])
    prev_cross = crossing_of(prev_h1)
    work = np.empty((chunk,) + grid.shape, dtype=np.complex128)
    rows = np.empty_like(work)

    residuals = []
    min_re, max_re, max_im = np.inf, -np.inf, 0.0
    converged = False
    iterations = 0

    for j in range(config.picard_max_iter):
        iterations = j + 1
        # G of the previous iterate; at over-threshold nodes the field is
        # rescaled down to the threshold first (saturated forcing keeps the
        # iteration inside float range and free of on/off limit cycles;
        # saturation only ever influences times at or past the crossing,
        # which are truncated from the result anyway)
        new_cross = None
        res = 0.0
        scale = 0.0
        I = np.zeros_like(u0c)
        for lo in range(0, M + 1, chunk):
            hi = min(lo + chunk, M + 1)
            k = hi - lo
            g = state.nonlinearity(prev[lo:hi], lo, prev_h1[lo:hi], thresh, work[:k])
            new = rows[:k]
            for r in range(k):
                i = lo + r
                if i == 0:
                    new[0] = lin[0]
                else:
                    I = sweep_step(I, state.decay_dt, g_last, g[r], half_dt)
                    np.add(lin[i], I, out=new[r])
                g_last = g[r]
            new_h1 = state.h1_rows(new)
            if new_cross is None:
                valid = k
                crossing = crossing_of(new_h1)
                if crossing is not None:
                    new_cross = lo + crossing
                    valid = crossing
                if valid:
                    c = new[:valid]
                    diff = np.subtract(c, prev[lo:lo + valid], out=work[:valid])
                    res = max(res, float(state.h1_rows(diff).max()))
                    scale = max(scale, float(new_h1[:valid].max()))
                    min_re = min(min_re, float(np.min(c.real)))
                    max_re = max(max_re, float(np.max(c.real)))
                    max_im = max(max_im, float(np.max(np.abs(c.imag))))
            prev[lo:hi] = new
            prev_h1[lo:hi] = new_h1
        residuals.append(res)

        rel = res / scale if scale > 0 else 0.0
        stable = new_cross == prev_cross
        prev_cross = new_cross
        if rel <= config.picard_tol and stable:
            converged = True
            break

    if not converged and prev_cross is None:
        raise NonConvergenceError(
            f"Picard iteration did not converge within {config.picard_max_iter} sweeps "
            f"(last sup-in-time H1 residual {residuals[-1]:.3e}); "
            "shrink T0 or the initial datum per the contraction budget", residuals)

    keep = M + 1 if prev_cross is None else prev_cross + 1
    fields = []
    for i in range(keep):
        over = prev_cross is not None and i >= prev_cross
        fields.append(SpectralField(grid, prev[i], is_real=config.u0.is_real,
                                    overflowed=over))
    h1d = np.array([h1_dot_norm(f) for f in fields])
    return Trajectory(
        times=times[:keep],
        fields=fields,
        h1_norms=prev_h1[:keep].copy(),
        h1_dot_norms=h1d,
        overflow_at=None if prev_cross is None else float(times[prev_cross]),
        picard_residuals=residuals,
        iterations=iterations,
        converged=converged,
        iterate_extrema=(float(min_re), float(max_re), float(max_im)),
    )


def duhamel_step(u_history, t, config):
    """Evaluate the Duhamel right side at time t from a trajectory prefix.

    Direct trapezoid sum (the recurrence inside picard_solve reproduces this
    up to roundoff); the prefix must cover [0, t] on the dt lattice.
    """
    state = _SweepState(config)
    i_t = int(round(t / config.dt))
    if abs(i_t * config.dt - t) > 1e-9 * max(config.dt, 1.0):
        raise DomainError(f"time {t} is not on the dt = {config.dt} lattice")
    if i_t >= len(u_history.fields):
        raise DomainError(
            f"history gap: trajectory covers {len(u_history.fields)} nodes, "
            f"need node {i_t}")
    for f in u_history.fields[:i_t + 1]:
        if f.overflowed:
            out = SpectralField(config.grid, np.full(config.grid.shape, np.nan,
                                                     dtype=np.complex128),
                                is_real=False, overflowed=True)
            return out
    acc = state.linear_part(config.u0.coeffs, t)
    if i_t > 0:
        dt = config.dt
        for j in range(i_t + 1):
            w = dt if 0 < j < i_t else 0.5 * dt
            g = state.nonlinearity(u_history.fields[j].coeffs[None], j)[0]
            acc = acc + w * semigroup_symbol(config.grid, t - j * dt, config.alpha) * g
    return SpectralField(config.grid, acc, is_real=config.u0.is_real)


@dataclass
class ExistenceBudget:
    """Contraction bookkeeping: delta = ||u0||_H1, C_B from the printed
    formula with the unquantified absolute constant exposed as C_abs."""

    delta: float
    C_abs: float
    C_B: float
    contraction_ok: bool
    T0_max: float
    case: int
    b_norm: float
    exponent: float


def existence_budget(config):
    """delta, C_B and the largest horizon with 4 C_B delta = 1.

    Case 1 (1 < alpha <= 2): C_B = C_abs * T0^(1-(1+gamma)/alpha) * ||b||_{-gamma};
    case 2 (0 < alpha <= 1): C_B = C_abs * T0^(1-(1-gamma)/alpha) * ||b||_{+gamma}.
    Budgets are indicative: C_abs defaults to 1 and is reported alongside.
    """
    alpha, gamma = config.alpha, config.gamma
    case, message = gamma_case(alpha, gamma)
    if message:
        raise DomainError(message)
    if case == 1:
        order = -gamma
        exponent = 1.0 - (1.0 + gamma) / alpha
    else:
        order = gamma
        exponent = 1.0 - (1.0 - gamma) / alpha

    base = sobolev_norm_of_b(config.coefficient, order, config.grid)
    peak_modulation = max(config.coefficient.modulation(t) for t in config.times)
    b_norm = base * peak_modulation
    delta = h1_norm(config.u0)
    C_B = config.C_abs * config.T0 ** exponent * b_norm
    contraction_ok = 4.0 * C_B * delta < 1.0
    if delta == 0.0 or b_norm == 0.0:
        T0_max = float("inf")
    else:
        T0_max = (4.0 * config.C_abs * b_norm * delta) ** (-1.0 / exponent)
    return ExistenceBudget(delta, config.C_abs, C_B, contraction_ok, T0_max,
                           case, b_norm, exponent)
