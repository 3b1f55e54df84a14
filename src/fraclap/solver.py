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

Node storage. G is dealiased by the 2/3 rule, so it is exactly zero outside
the band |m| <= N//3 per axis (b_hat is checked finite, so 0 * b_hat is 0).
There the recurrence adds exact zeros to the decayed data: every iterate
equals S(t) u0 = exp(-t (-Lap)^(alpha/2)) u0 + 0 outside the band, and is
exactly +0 wherever u0 is. So a node is stored as a vector of its band
coefficients ((2 (N//3) + 1)^n of N^n: 45% at 256^2, 30% at 128^3) followed
by the k out-of-band coefficients where u0 is not +0. k is 0 for the CLI
data (omega, random, zero); sampled noise fills it. The iterate is one
(M+1, that length) stack, updated in place; the linear part is a second.
The out-of-band entries go through the same recurrence as the band, with
G = 0, so there is one path for both.

A sweep walks the node axis in chunks of as many nodes as fit a 256 KiB
budget of full-lattice rows (dozens per chunk on 1-D grids, one on a 256^2
or 128^3 grid). Per chunk, the previous iterate's rows are scattered onto
the full lattice (2^n block copies per row, plus the k entries), G is one
batched inverse and one forward FFT over the spatial axes there, and its
stored entries are gathered back. The recurrence steps node by node on
stored vectors, in place in preallocated buffers. The chunk's new rows are
scattered onto the full lattice for their H1 norms, residual and
coefficient extrema, which are taken before the stored rows are replaced:
numpy's pairwise sums see the same full-shape rows as before, so the norms
keep their bits. Batched transforms, elementwise ops and per-row sums apply
the same arithmetic to each node as a call on that node alone, so every
result is bitwise identical to a per-node sweep on full-lattice nodes
(tests/oracles.py keeps that loop as the reference).

The returned Trajectory keeps the stored stack; its fields are a read-only
sequence that builds each full-lattice SpectralField when it is read, so
the h1_dot norms and Trajectory.to_csv hold one full field at a time.

G at a node depends only on the previous iterate, so when one node fills a
chunk (256^2 and 128^3 grids) a second thread computes G of chunk c + 1
while this one runs chunk c's recurrence, norms and row update; numpy's
FFTs and elementwise loops release the interpreter lock, so the two
overlap. The worker is created inside picard_solve and joined before it
returns, and it runs each G in a copy of the caller's context, so
np.errstate applies to it. 1-D grids (dozens of nodes per chunk) stay on
one thread: there, handing the interpreter lock back and forth costs more
than the overlap saves. Both regimes do the same arithmetic and give the
same bits.

Blow-up handling: past the true explosion time the iterates diverge doubly
exponentially in the sweep index and would overflow float range, so
nonlinearity inputs at nodes whose discrete H1 exceeds overflow_threshold are
rescaled down to the threshold (saturated forcing; continuous in the iterate,
unlike an on/off cutoff, which orbits a limit cycle). Saturation only affects
nodes at or past the crossing; the returned trajectory is truncated at the
first crossing, whose field is kept and flagged, and convergence is declared
on the pre-crossing prefix with a stable crossing index.
Once a sweep has crossed at node c, the next sweep computes nodes 0..c only.
The map is causal (node i of the new iterate reads nodes 0..i of the previous
one), so those nodes come out exactly as in a full sweep, and when the new
crossing lies at or below c, nothing past it reaches the residual, the
extrema, the crossing or the returned prefix: every output is bitwise that
of full sweeps. If such a sweep finds no crossing, the full sweep's crossing
(if any) lies at a node it did not compute, so the run starts over from the
linear part with full sweeps throughout. A run therefore costs at most one
truncated pass more than full sweeps would.
"""

import contextlib
import contextvars
import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .certificate import BUMP_RADIUS, XI0_COMPONENT
from .coefficient import CoefficientSpec, gamma_case, sobolev_norm_of_b
from .errors import DomainError, NonConvergenceError, require_finite
from .operators import require_alpha, semigroup_symbol
from .spectral import (GridSpec, SpectralField, _weighted_norm, dealiased_square,
                       h1_dot_norm, h1_norm, h1_weight, write_csv)


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


def random_nonneg_initial_field(grid, h1_amplitude, seed):
    """Seeded random datum with nonnegative Hermitian-symmetric coefficients.

    Band-limited to |m| <= max(2, N//6) per axis, well inside the dealiased
    range; scaled to the requested discrete H1 norm (zero field for amplitude
    0). Used for positivity and linear-exactness experiments.
    """
    require_finite(u0_amplitude=h1_amplitude)
    if h1_amplitude < 0:
        raise DomainError(f"u0_amplitude = {h1_amplitude} fails u0_amplitude >= 0")
    if seed < 0:
        raise DomainError(f"seed = {seed} fails seed >= 0")
    rng = np.random.default_rng(seed)
    band = np.abs(grid.modes) <= max(2, grid.N // 6)
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
        # n_steps rounds T0 / dt to an integer
        require_finite(**{"T0 / dt": self.T0 / self.dt})
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
    """Solver output: fields and norms on the time lattice up to overflow.

    picard_solve fills fields with a read-only sequence that builds each
    field from the stored node stack when it is read; any sequence of
    SpectralField works.
    """

    times: np.ndarray
    fields: Sequence[SpectralField]
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


def sweep_step(I, decay, g_prev, g_new, half_dt, work):
    """One trapezoid step of ``int_0^t exp(-(t-s)L) G(s) ds`` with the decay
    multiplier applied exactly, in place in I (work is scratch shaped like I):
    I_new = decay * (I + half_dt * g_prev) + half_dt * g_new."""
    np.multiply(half_dt, g_prev, out=work)
    np.add(I, work, out=I)
    np.multiply(decay, I, out=I)
    np.multiply(half_dt, g_new, out=work)
    return np.add(I, work, out=I)


# scratch budget for one chunk of the node stack: a 1-D sweep batches many
# nodes per transform call, a 256^2 or 128^3 field goes one node at a time
_CHUNK_BYTES = 256 * 1024


class _NodeLayout:
    """Which coefficients of a node the solver stores, and where they sit on
    the full lattice.

    A stored node is one vector: the 2/3-rule band (|m| <= lim per axis, lim
    = grid.dealias_limit, B = 2 lim + 1 modes, so 2^n blocks of the FFT
    layout) as a (B,)*n array in C order, then the values at ext, the flat
    lattice indices outside the band where u0 is not +0. Every other
    coefficient of every iterate is exactly +0 (see the module docstring).
    """

    def __init__(self, grid, u0c):
        lim = grid.dealias_limit
        width = 2 * lim + 1
        halves = ((slice(0, lim + 1), slice(0, lim + 1)),
                  (slice(lim + 1, width), slice(grid.N - lim, grid.N)))
        # (stored slices, lattice slices) per block, with the node axis first
        self.blocks = [tuple((slice(None),) + s for s in zip(*combo))
                       for combo in itertools.product(halves, repeat=grid.n)]
        self.band_shape = (width,) * grid.n
        self.band_size = width ** grid.n
        # -0.0 counts: the sweep turns it into +0.0 at later nodes, as on
        # the full lattice
        stored = (u0c != 0) | np.signbit(u0c.real) | np.signbit(u0c.imag)
        self.ext = np.flatnonzero(~grid.dealias_mask & stored)
        self.size = self.band_size + len(self.ext)

    def _band(self, rows):
        # a view: a row's band part is contiguous
        return rows[:, :self.band_size].reshape((len(rows),) + self.band_shape)

    def scatter(self, rows, full):
        """Write stored rows (k, size) to their places in the lattice rows
        full (k, *grid.shape), leaving every other entry as it is."""
        band = self._band(rows)
        for stored, lattice in self.blocks:
            full[lattice] = band[stored]
        if len(self.ext):
            full.reshape(len(full), -1)[:, self.ext] = rows[:, self.band_size:]
        return full

    def gather(self, full, rows):
        """Inverse of scatter: copy the stored entries of full into rows."""
        band = self._band(rows)
        for stored, lattice in self.blocks:
            band[stored] = full[lattice]
        if len(self.ext):
            rows[:, self.band_size:] = full.reshape(len(full), -1)[:, self.ext]
        return rows


class _NodeFields(Sequence):
    """Read-only fields of nodes 0..length-1 of a stored node stack. Each
    read builds a new full-lattice SpectralField, so a caller that walks the
    nodes holds one full field at a time."""

    def __init__(self, grid, layout, stack, length, cross, is_real):
        self.grid = grid
        self.layout = layout
        self.stack = stack
        self.length = length
        self.cross = cross
        self.is_real = is_real

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.length))]
        i = range(self.length)[i]
        full = np.zeros((1,) + self.grid.shape, dtype=np.complex128)
        self.layout.scatter(self.stack[i:i + 1], full)
        return SpectralField(self.grid, full[0], is_real=self.is_real,
                             overflowed=self.cross is not None and i >= self.cross)


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

    def nonlinearity(self, u, lo, h1=None, thresh=None):
        """G(u)(t_i) for the stack u of nodes i = lo, ..., lo + len(u) - 1:
        coefficients of b * ((-Lap)^(1/2) u)^2, the square dealiased by the
        2/3 rule, computed in place in u, which is returned.

        With h1 (the rows' H1 norms), a row whose norm exceeds thresh is
        rescaled down to it first (saturated forcing) and a row whose norm
        is not finite gets G = 0.
        """
        if h1 is not None:
            for r in np.flatnonzero(~(h1 <= thresh)):
                if np.isfinite(h1[r]):
                    np.multiply(u[r], thresh / h1[r], out=u[r])
                else:
                    u[r] = 0.0
        a = np.multiply(self.abs_xi, u, out=u)
        w = dealiased_square(a, self.grid, self.axes, out=a)
        np.multiply(w, self.b_sym[lo:lo + len(u)] if self.modulated else self.b_sym,
                    out=w)
        if h1 is not None:
            w[~np.isfinite(h1)] = 0.0
        return w

    def h1_rows(self, u):
        """Discrete H1 norm of each row of the stack u; +inf for a row with a
        non-finite coefficient."""
        return _weighted_norm(self.h1_weight, u, self.axes)


def _worker(needed):
    """Context manager for the one worker thread of a pipelined sweep, which
    exits by joining it; it yields None when not needed."""
    if not needed:
        return contextlib.nullcontext()
    # imported here: the module costs every CLI call import time
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fraclap-G")


def _require_stacks_fit(nodes, node_bytes):
    """DomainError unless the two node stacks of a run fit in physical memory."""
    need = 2.0 * nodes * node_bytes
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise DomainError(
            f"{nodes:.4g} time nodes need {need:.4g} bytes of node stacks, which "
            f"fails bytes <= physical memory = {have:.4g}; raise dt or lower T0")


def picard_solve(config):
    """Iterate the Duhamel map to its fixed point over [0, T0].

    Returns a Trajectory. Convergence means the sup-in-time relative H1 change
    between sweeps dropped below picard_tol on the valid (pre-overflow) range
    with a stable overflow index. Hitting max_iter with an overflow pending is
    a blow-up diagnostic, not a failure; without overflow it raises
    NonConvergenceError carrying the residual history.
    """
    grid = config.grid
    u0c = config.u0.coeffs
    layout = _NodeLayout(grid, u0c)
    M = config.n_steps
    itemsize = np.dtype(np.complex128).itemsize
    _require_stacks_fit(M + 1, layout.size * itemsize)
    state = _SweepState(config)
    times = config.times
    thresh = config.overflow_threshold
    half_dt = 0.5 * config.dt
    lin = np.empty((M + 1, layout.size), dtype=np.complex128)
    lin_h1 = np.empty(M + 1)
    for i, t in enumerate(times):
        row = state.linear_part(u0c, t)[None]
        lin_h1[i] = state.h1_rows(row)[0]
        layout.gather(row, lin[i:i + 1])
    decay = layout.gather(semigroup_symbol(grid, config.dt, config.alpha)[None],
                          np.empty((1, layout.size)))[0]
    chunk = max(1, _CHUNK_BYTES // (u0c.size * itemsize))

    def crossing_of(h1):
        over = np.flatnonzero(~np.isfinite(h1) | (h1 > thresh))
        return int(over[0]) if len(over) else None

    # the iterate is updated in place, chunk by chunk: the G values a chunk
    # needs from the previous iterate are taken before its rows are replaced,
    # and later nodes only read later rows
    prev = np.empty_like(lin)
    prev_h1 = np.empty(M + 1)
    rows = np.empty((chunk, layout.size), dtype=np.complex128)
    diff = np.empty_like(rows)
    I = np.empty(layout.size, dtype=np.complex128)
    step_work = np.empty_like(I)
    # lattice rows for the norms and extrema of a chunk, and for G's input
    # and output. Both start at zero and only ever get new values at stored
    # positions: scatter writes nothing else, and G is zero outside the band
    full = np.zeros((chunk,) + grid.shape, dtype=np.complex128)
    g_full = np.zeros_like(full)
    # one node fills a chunk (256^2 and 128^3 grids): a worker thread computes
    # G of chunk ci + 1 while this thread runs chunk ci. The worker reads only
    # chunk ci + 1's rows of prev and prev_h1, which this thread replaces only
    # after it has taken that G
    pipelined = chunk == 1
    # G buffers in rotation: chunk ci's G, chunk ci - 1's (its last row is the
    # recurrence's g_last) and, pipelined, chunk ci + 1's being computed
    g_bufs = [np.empty_like(rows) for _ in range(3 if pipelined else 2)]

    def g_of(ci):
        lo = ci * chunk
        hi = min(lo + chunk, end)
        u = layout.scatter(prev[lo:hi], g_full[:hi - lo])
        state.nonlinearity(u, lo, prev_h1[lo:hi], thresh)
        return layout.gather(u, g_bufs[ci % len(g_bufs)][:hi - lo])

    with _worker(pipelined) as pool:
        # the first pass stops each sweep at the previous sweep's crossing;
        # a sweep that finds no crossing then sends the run to the second
        # pass, which starts over with full sweeps
        for truncate in (True, False):
            prev[...] = lin
            prev_h1[...] = lin_h1
            prev_cross = crossing_of(prev_h1)
            residuals = []
            min_re, max_re, max_im = np.inf, -np.inf, 0.0
            converged = stale = False
            for j in range(config.picard_max_iter):
                iterations = j + 1
                # rows past the previous crossing may be stale in prev; no
                # row up to it is (see the module docstring)
                end = M + 1 if prev_cross is None or not truncate else prev_cross + 1
                n_chunks = -(-end // chunk)
                # G of the previous iterate; at over-threshold nodes the field
                # is rescaled down to the threshold first (saturated forcing
                # keeps the iteration inside float range and free of on/off
                # limit cycles; saturation only ever influences nodes at or
                # past the previous crossing, the last node this sweep
                # computes once there is one)
                new_cross = None
                res = 0.0
                scale = 0.0
                I[...] = 0.0
                g = g_of(0)
                for ci in range(n_chunks):
                    lo = ci * chunk
                    hi = min(lo + chunk, end)
                    k = hi - lo
                    # the worker starts from this thread's context, so it
                    # raises under the caller's np.errstate as an inline call
                    # would
                    g_next = None
                    if pool is not None and ci + 1 < n_chunks:
                        g_next = pool.submit(contextvars.copy_context().run, g_of, ci + 1)
                    new = rows[:k]
                    for r in range(k):
                        i = lo + r
                        if i == 0:
                            new[0] = lin[0]
                        else:
                            sweep_step(I, decay, g_last, g[r], half_dt, step_work)
                            np.add(lin[i], I, out=new[r])
                        g_last = g[r]
                    c = layout.scatter(new, full[:k])
                    new_h1 = state.h1_rows(c)
                    if new_cross is None:
                        valid = k
                        crossing = crossing_of(new_h1)
                        if crossing is not None:
                            new_cross = lo + crossing
                            valid = crossing
                        if valid:
                            c = c[:valid]
                            scale = max(scale, float(new_h1[:valid].max()))
                            min_re = min(min_re, float(np.min(c.real)))
                            max_re = max(max_re, float(np.max(c.real)))
                            max_im = max(max_im, float(np.max(np.abs(c.imag))))
                            d = np.subtract(new[:valid], prev[lo:lo + valid],
                                            out=diff[:valid])
                            res = max(res, float(state.h1_rows(layout.scatter(d, c)).max()))
                    prev[lo:hi] = new
                    prev_h1[lo:hi] = new_h1
                    if g_next is not None:
                        g = g_next.result()
                    elif ci + 1 < n_chunks:
                        g = g_of(ci + 1)
                # no crossing below end: a full sweep's crossing, if any, lies
                # in rows this sweep left stale
                stale = new_cross is None and end <= M
                if stale:
                    break
                residuals.append(res)

                rel = res / scale if scale > 0 else 0.0
                stable = new_cross == prev_cross
                prev_cross = new_cross
                if rel <= config.picard_tol and stable:
                    converged = True
                    break
            if not stale:
                break

    if not converged and prev_cross is None:
        raise NonConvergenceError(
            f"Picard iteration did not converge within {config.picard_max_iter} sweeps "
            f"(last sup-in-time H1 residual {residuals[-1]:.3e}); "
            "shrink T0 or the initial datum per the contraction budget", residuals)

    keep = M + 1 if prev_cross is None else prev_cross + 1
    fields = _NodeFields(grid, layout, prev, keep, prev_cross, config.u0.is_real)
    return Trajectory(
        times=times[:keep],
        fields=fields,
        h1_norms=prev_h1[:keep].copy(),
        h1_dot_norms=np.array([h1_dot_norm(f) for f in fields]),
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
    # by index, not by slice: a solve's fields are built one read at a time
    for j in range(i_t + 1):
        if u_history.fields[j].overflowed:
            out = SpectralField(config.grid, np.full(config.grid.shape, np.nan,
                                                     dtype=np.complex128),
                                is_real=False, overflowed=True)
            return out
    acc = state.linear_part(config.u0.coeffs, t)
    if i_t > 0:
        dt = config.dt
        for j in range(i_t + 1):
            w = dt if 0 < j < i_t else 0.5 * dt
            g = state.nonlinearity(u_history.fields[j].coeffs[None].copy(), j)[0]
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

    b_norm = sobolev_norm_of_b(config.coefficient, order, config.grid)
    if config.coefficient.time_modulation is not None:
        # only a modulated symbol needs the time lattice; otherwise the
        # budget does not depend on dt
        b_norm *= max(config.coefficient.modulation(t) for t in config.times)
    delta = h1_norm(config.u0)
    C_B = config.C_abs * config.T0 ** exponent * b_norm
    contraction_ok = 4.0 * C_B * delta < 1.0
    if delta == 0.0 or b_norm == 0.0:
        T0_max = float("inf")
    else:
        T0_max = (4.0 * config.C_abs * b_norm * delta) ** (-1.0 / exponent)
    return ExistenceBudget(delta, config.C_abs, C_B, contraction_ok, T0_max,
                           case, b_norm, exponent)
