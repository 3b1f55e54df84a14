"""Mild-solution solver: global-in-time Picard iteration on the Duhamel form.

The unknown is advanced through the integral equation

    u(t) = exp(-t (-Lap)^(alpha/2)) u0
           + int_0^t exp(-(t-s) (-Lap)^(alpha/2)) [ ((-Lap)^(1/2) u)^2 * b ](s) ds

with the semigroup at lag t-s, every multiplier applied exactly in Fourier
space, and trapezoid quadrature in s. One Picard sweep evaluates the right
side over the whole time lattice using the previous iterate (the fixed-point
map itself, not time marching). S(t + dt) = S(dt) S(t) exactly, so one
exact recurrence carries both the decayed datum and the quadrature:

    u(t_{i+1}) = exp(-dt (-Lap)^(alpha/2)) [ u(t_i) + dt/2 G(t_i) ] + dt/2 G(t_{i+1})

from u(t_0) = u0, and a sweep costs O(M) transform work instead of O(M^2).
Each node's G is scaled by dt/2 once, when it is computed; the two steps
that read it add it as it is.

u is real-valued. ProblemConfig checks that the initial datum's
coefficients are Hermitian, c(-m) = conj(c(m)), to 1e-12 of the largest;
the semigroup, the square and the symbol b keep that symmetry, so every
iterate is a real field too.

Node storage. G is dealiased by the 2/3 rule, so it is exactly zero outside
the band |m| <= N//3 per axis (b_hat is finite, so 0 * b_hat is 0). There
the recurrence adds exact zeros to the decayed data: outside the band every
iterate is the recurrence's decayed u0 (decay^i u0 at node i), which is
exactly +0 wherever u0 is. A node is a real field, so its coefficients are
held in its spectrum (spectral.BandLayout), the entries a real field's
transform holds directly: the whole lattice in 1-D, and rfftn's half
spectrum (last-axis index 0..N//2) for n >= 2, where the rest of the
lattice are the conjugates of their mirrors. A node is stored as the band's
spectrum entries followed by the k out-of-band spectrum entries where u0 is
not +0: that is 171 of 256, 171 x 86 of 256^2 and 85^2 x 43 of 128^3
coefficients, plus k. k is 0 for the CLI data (omega, random, zero);
sampled noise fills it. picard_solve reads every per-run multiplier off the
lattice with BandLayout.stored and never handles a spectrum itself.
picard_solve picks the stack's dtype once, from u0: for n >= 2 it is float64
when every stored coefficient of u0 has imaginary part +0.0 (the CLI data,
which are even fields, u(-x) = u(x)), since the semigroup, |xi|, the square
and b_hat keep coefficients real and even; otherwise, and on 1-D grids,
complex128. So a 256^2 node takes a quarter of the bytes of its complex
band, and its square takes the even-field transforms. The iterate is one (M+1,
that length) stack, updated in place, and the only one a run holds: no table
of S(t) u0 is kept, since each sweep starts its recurrence at u0, and the
first iterate is the recurrence with G = 0. The out-of-band entries go
through the same recurrence as the band, where G is zero, so there is one
path for both, and one for both dtypes.

A sweep walks the node axis in chunks of as many nodes as fit a 256 KiB
budget of complex full-lattice rows (dozens per chunk on 1-D grids, one on
a 256^2 or 128^3 grid). Only G's transforms need more than the stored
entries. G saturates the previous iterate's stored rows, multiplies them by
|xi| and squares them with spectral.dealiased_square, which scatters them
into a zeroed spectrum, transforms there, gathers the stored entries back,
divides them by N^n and zeroes the out-of-band ones; then it multiplies by
b_hat. On 1-D grids the square is one batched complex inverse and one
forward FFT of the lattice. For n >= 2 complex rows (sampled noise) are
squared by real-field transforms over the half spectrum in irfftn's and
rfftn's order. Float rows hold even fields, which the physical rows 0..N/2
of the first axis determine, so the first axis takes real transforms too:
an rfft of the real spectrum, the inverse passes into those N/2 + 1 rows,
the square, the forward passes and an irfft straight to real coefficients,
with no pass that scales or conjugates. Both skip, in the passes over the
other axes, the last-axis columns beyond the stored entries and the band,
and each entry at last-axis mode 0 whose last nonzero mode is negative is
then set to the conjugate of its mirror. At 256^2 one square of a float
row takes 0.31 ms, against 0.53 ms through the half spectrum's complex
passes and 1.89 ms with complex transforms of the lattice (2-CPU x86 host).
The recurrence steps node by node on stored vectors, in place in
preallocated buffers. The H1 norms and the residual sum the weighted
stored entries in stored order (the band in lattice order, then the
out-of-band entries), leaving out only +0 terms. For n >= 2 the weight is
doubled on last-axis columns 1..N/2-1, where a stored entry stands for
itself and its mirror; columns 0 and N/2 hold both members of each mirror
pair, so they count once. The coefficient extrema are those of the stored
real parts (a mirror has the same real part) and the +0 entries. Each
stored entry goes through the same IEEE operations as on a per-node loop
over the same storage, and batched transforms, elementwise ops and per-row
sums apply the same arithmetic to each node as a call on that node alone,
so every result is bitwise identical to a per-node sweep whose nodes are
the full lattice in 1-D and the half spectrum for n >= 2, and whose norms
sum the same terms in the same order (tests/oracles.py keeps that loop as
the reference).

The returned Trajectory keeps the stored stack, and its norms and its max
|coefficient| per node are read off the stored rows: h1_dot sums the
stored entries with the weight |xi|^2, doubled as for H1, one row at a
time; a mirror has its entry's modulus, and the rest of the lattice is +0.
No run builds a full-lattice field. The fields are a read-only sequence
that builds each full-lattice SpectralField when it is read
(BandLayout.fields: for n >= 2 by Hermitian completion of the half
spectrum, with imaginary parts +0 for a float stack).

G at a node depends only on the previous iterate, so when one node fills a
chunk (256^2 and 128^3 grids) the sweep queues G of the next _LOOKAHEAD
chunks on a second thread while this one runs chunk c's recurrence, norms
and row update. When G of chunk c + 1 is not ready, this thread claims the
farthest queued chunk that the worker has not started and computes its G
itself, and it waits only when none is left; so both CPUs stay busy when G
costs more than the rest of a node. numpy's FFTs and elementwise loops
release the interpreter lock, so the threads overlap. G of a chunk reads
only rows of the previous iterate that this thread has not yet replaced,
and each thread transforms in its own scratch, so G has the same
bits whichever thread computes it. The worker is created inside
picard_solve and joined before it returns. 1-D grids (dozens of nodes per
chunk) stay on one thread: there, handing the interpreter lock back and
forth costs more than the overlap saves (with the worker forced on, the
blow-up proxy's two solves ran about 20% slower; README, Performance
notes). Both regimes do the same arithmetic and give the same bits.

Blow-up handling: past the true explosion time the iterates grow doubly
exponentially in the sweep index, so the sweep rescales the input of G at a
node whose discrete H1 exceeds overflow_threshold down to the threshold
(saturated forcing; continuous in the iterate, unlike an on/off cutoff,
which orbits a limit cycle). That bounds G, and every sweep, by config
values alone; picard_solve rejects a config whose bound exceeds float max
/ 16, so no sweep leaves float range, and numpy's error state is the
caller's. Saturation only affects nodes at or past the crossing; the
returned trajectory ends at the first crossing, whose field is kept as the
last one and whose time is Trajectory.overflow_at (the one record of the
crossing), and convergence is declared on the pre-crossing prefix with a
stable crossing index.
Once a sweep has crossed at node c, the next sweep computes nodes 0..c only.
The map is causal (node i of the new iterate reads nodes 0..i of the previous
one), so those nodes come out exactly as in a full sweep, and when the new
crossing lies at or below c, nothing past it reaches the residual, the
extrema, the crossing or the returned prefix: whenever the crossing never
moves later, every output is bitwise that of full sweeps. On nonnegative
data (every CLI datum) Picard rises toward the least fixed point, and the
crossing never moves later (ROADMAP item 19; tested sweep by sweep). A
sweep that lost its crossing would leave none, and the next sweep would run
full length from the iterate as it stands.
"""

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .coefficient import CoefficientSpec, gamma_case, sobolev_norm_of_b
from .errors import DomainError, NonConvergenceError, require_finite, require_memory
from .operators import require_alpha, semigroup_symbol
from .spectral import (BandLayout, GridSpec, SpectralField, _weighted_norm,
                       dealiased_square, h1_norm, h1_weight, square_scratch,
                       write_csv)


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
    fld = SpectralField(grid, c)
    norm = h1_norm(fld)
    if norm > 0 and h1_amplitude > 0:
        fld = SpectralField(grid, c * (h1_amplitude / norm))
    elif h1_amplitude == 0:
        fld = SpectralField.zero(grid)
    return fld


def _lattice_index(t, dt):
    """t / dt as an int when it is an integer to 1e-9 relative, else None."""
    q = t / dt
    i = round(q)
    return i if abs(q - i) <= 1e-9 * q else None


@dataclass
class ProblemConfig:
    """Everything a solver run needs, in one place.

    The time lattice ends at T0: a dt that does not divide T0 (to 1e-9
    relative) is cut to T0 / ceil(T0 / dt); one that does is kept as given.
    """

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
        if self.C_abs <= 0:
            raise DomainError(f"C_abs = {self.C_abs} fails C_abs > 0")
        _, message = gamma_case(self.alpha, self.gamma)
        if message:
            raise DomainError(message)
        if self.T0 <= 0:
            raise DomainError(f"horizon must satisfy T0 > 0, got {self.T0}")
        if self.dt <= 0 or self.dt > self.T0:
            raise DomainError(f"time step must satisfy 0 < dt <= T0, got {self.dt}")
        require_finite(**{"T0 / dt": self.T0 / self.dt})
        if _lattice_index(self.T0, self.dt) is None:
            self.dt = self.T0 / math.ceil(self.T0 / self.dt)
        if self.picard_tol <= 0:
            raise DomainError("picard_tol must be > 0")
        if self.overflow_threshold <= 0:
            raise DomainError("overflow_threshold must be > 0")
        if self.picard_max_iter < 1:
            raise DomainError(
                f"picard_max_iter = {self.picard_max_iter} fails picard_max_iter >= 1")
        if self.u0.grid != self.grid:
            raise DomainError("initial datum lives on a different grid")
        # real u0: c(-m) = conj(c(m)), where -m is index (N - i) mod N per
        # axis. The CLI data meet it exactly, transformed real noise to 3e-16
        c = self.u0.coeffs
        mirror = np.roll(np.flip(c), 1, axis=tuple(range(c.ndim)))
        defect = np.abs(np.conj(mirror) - c).max()
        if not defect <= 1e-12 * np.abs(c).max():
            raise DomainError(f"initial datum is not a real field: max |c(-m) - conj(c(m))|"
                              f" = {defect:.3g} fails <= 1e-12 max |c|")

    @property
    def n_steps(self):
        return int(round(self.T0 / self.dt))

    @property
    def times(self):
        return np.arange(self.n_steps + 1) * self.dt


@dataclass
class Trajectory:
    """Solver output: fields and norms on the time lattice up to overflow.

    overflow_at is the time of the first node whose discrete H1 norm crossed
    the overflow threshold, or None; when set, that node is the last of
    times and fields. picard_solve fills fields with a read-only sequence
    that builds each field from the stored node stack when it is read; any
    sequence of SpectralField works.
    """

    times: np.ndarray
    fields: Sequence[SpectralField]
    h1_norms: np.ndarray
    h1_dot_norms: np.ndarray
    # max |coefficient| of each field
    max_abs_coeffs: np.ndarray
    overflow_at: Optional[float]
    picard_residuals: List[float]
    iterations: int
    converged: bool
    # global coefficient extrema over every Picard iterate and time:
    # (min real part, max real part), for positivity audits
    iterate_extrema: tuple

    def to_csv(self, path):
        write_csv(path,
                  ["trajectory: t (time units), discrete H1 and homogeneous H1 "
                   "norms (field units), max |coefficient|",
                   f"overflow_at={self.overflow_at!r} iterations={self.iterations} "
                   f"converged={int(self.converged)}"],
                  "t,h1,h1_dot,max_abs_coeff",
                  [self.times, self.h1_norms, self.h1_dot_norms, self.max_abs_coeffs])


def sweep_step(I, decay, hg_prev, hg_new):
    """One trapezoid step of ``int_0^t exp(-(t-s)L) G(s) ds`` with the decay
    multiplier applied exactly, in place in I, on G already scaled by dt/2:
    I_new = decay * (I + hg_prev) + hg_new, with hg = dt/2 G."""
    np.add(I, hg_prev, out=I)
    np.multiply(decay, I, out=I)
    return np.add(I, hg_new, out=I)


# scratch budget for one chunk of the node stack: a 1-D sweep batches many
# nodes per transform call, a 256^2 or 128^3 field goes one node at a time
_CHUNK_BYTES = 256 * 1024
# chunks whose G a pipelined sweep queues for the worker ahead of the one it
# runs; each holds one more stored G buffer
_LOOKAHEAD = 2


class _NodeFields(Sequence):
    """Read-only fields of nodes 0..length-1 of a stored node stack,
    indexed by node (not sliced). Each read builds a new full-lattice
    SpectralField, so a caller that walks the nodes holds one full field at
    a time."""

    def __init__(self, layout, stack, length):
        self.layout = layout
        self.stack = stack
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        i = range(self.length)[i]
        return SpectralField(self.layout.grid, self.layout.fields(self.stack[i:i + 1])[0])


def _worker(needed):
    """Context manager for the one worker thread of a pipelined sweep, which
    exits by joining it; it yields None when not needed."""
    if not needed:
        return contextlib.nullcontext()
    # imported here: the module costs every CLI call import time
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fraclap-G")


def _require_stack_fits(nodes, node_bytes):
    """DomainError unless a run's node stack, node_bytes per time node (the
    iterate's stored entries; off them each iterate is the recurrence's
    decayed u0, +0 wherever u0 is +0), fits in physical memory."""
    require_memory(nodes * node_bytes, f"a node stack of {nodes:.4g} time nodes",
                   "raise dt or lower T0")


def picard_solve(config):
    """Iterate the Duhamel map to its fixed point over [0, T0].

    Returns a Trajectory. Convergence means the sup-in-time relative H1 change
    between sweeps dropped below picard_tol on the valid (pre-overflow) range
    with a stable overflow index. Hitting max_iter with an overflow pending is
    a blow-up diagnostic, not a failure; without overflow it raises
    NonConvergenceError carrying the residual history.
    DomainError when a sweep could leave float range or ||u0||_H1 exceeds
    overflow_threshold; otherwise every value a sweep computes stays in
    float range. Each sweep stops at the previous crossing, with the bits
    of full sweeps whenever the crossing never moves later; one that loses
    it leaves the next sweep full length.
    """
    grid = config.grid
    u0c = config.u0.coeffs
    # -0.0 counts: the sweep turns it into +0.0 at later nodes, as on the
    # full lattice
    nonzero = (u0c != 0) | np.signbit(u0c.real) | np.signbit(u0c.imag)
    layout = BandLayout(grid, nonzero)
    u0s = layout.stored(u0c)
    # for n >= 2 real stored coefficients keep every iterate real: the
    # stack is float64
    real = grid.n > 1 and not np.any((u0s.imag != 0) | np.signbit(u0s.imag))
    dtype = np.float64 if real else np.complex128
    if real:
        u0s = u0s.real
    M = config.n_steps
    _require_stack_fits(M + 1, layout.size * np.dtype(dtype).itemsize)
    abs_xi = layout.stored(np.sqrt(grid.xi_norm_sq))
    # b_hat >= 0 (C >= 0), so the out-of-band entries, which come out of the
    # square as +0, stay +0, as the masked lattice entries did
    b_hat = layout.stored(config.coefficient.symbol_on(grid.xi_norm_sq))
    # the chunk budget counts G's complex full-lattice rows
    chunk = max(1, _CHUNK_BYTES // (u0c.size * np.dtype(np.complex128).itemsize))
    # every norm of the sweep, and the returned h1_dot, is h1_norm's routine
    # summed over the stored entries, in stored order: the entries off them
    # are +0 or mirrors of stored ones, which the weight counts by doubling
    h1w = layout.stored(h1_weight(grid)) * layout.multiplicity
    # the entries a row holds off the stored positions are +0 in every
    # iterate, and they count in its extrema
    unstored = (0.0,) if layout.size < layout.spectrum_size else ()
    thresh = config.overflow_threshold
    half_dt = 0.5 * config.dt
    # no sweep leaves float range: every row fed to G has H1 <= thresh
    # (saturation, and the check on u0 below), so by Cauchy-Schwarz its sum
    # |xi| |c| is at most A, A^2 = (N/L)^n thresh^2; G's transforms hold at
    # most N^n A^2, |G| <= C A^2, every |c| a sweep computes is below c_max
    # = thresh / L^(n/2) + T0 C A^2, and a step's below 2 c_max, which
    # bounds the H1 sums. Float products: ** raises on overflow
    C = config.coefficient.C
    Nn, Ln = grid.N ** grid.n, grid.L ** grid.n
    A2 = Nn / Ln * thresh * thresh
    c_max = thresh / math.sqrt(Ln) + config.T0 * C * A2
    reach = max(Nn * A2, Nn * Ln * (1.0 + grid.n * grid.xi_max ** 2) * 4.0 * c_max * c_max)
    limit = np.finfo(float).max / 16
    if not reach <= limit:
        raise DomainError(
            f"overflow_threshold = {thresh!r}, C = {C!r} and T0 = {config.T0!r} give "
            f"max(N^n A^2, N^n max(h1 weight) 4 c_max^2) = {reach:.4g}, which "
            f"fails <= float max / 16 = {limit:.4g}")
    u0_h1 = _weighted_norm(h1w, u0s[None])[0]
    if not u0_h1 <= thresh:
        raise DomainError(f"initial datum has ||u0||_H1 = {float(u0_h1)!r}, which "
                          f"fails ||u0||_H1 <= overflow_threshold = {thresh!r}")
    decay = layout.stored(semigroup_symbol(grid, config.dt, config.alpha))

    def crossing_of(h1):
        over = np.flatnonzero(~np.isfinite(h1) | (h1 > thresh))
        return int(over[0]) if len(over) else None

    # the iterate is updated in place, chunk by chunk: the G values a chunk
    # needs from the previous iterate are taken before its rows are replaced,
    # and later nodes only read later rows. It starts as the recurrence's
    # decayed u0, whose norms are at most ||u0|| <= thresh (decay scales
    # coefficients by at most 1): the first sweep saturates no G and starts
    # with no crossing
    prev = np.empty((M + 1, layout.size), dtype=dtype)
    prev[0] = u0s
    for i in range(1, M + 1):
        np.multiply(decay, prev[i - 1], out=prev[i])
    prev_h1 = np.full(M + 1, u0_h1)
    rows = np.empty((chunk, layout.size), dtype=dtype)
    diff = np.empty_like(rows)
    I = np.empty(layout.size, dtype=dtype)
    # one node fills a chunk (256^2 and 128^3 grids): a worker thread computes
    # G of the next _LOOKAHEAD chunks while this thread runs chunk ci, and
    # this thread takes the queued ones the worker has not started when it
    # would otherwise wait. G of a chunk reads only its rows of prev and
    # prev_h1, which this thread replaces only after it has taken that G
    pipelined = chunk == 1
    # G buffers by chunk: chunk ci's G, chunk ci - 1's (its last row is the
    # recurrence's g_last) and, pipelined, the queued chunks'
    g_bufs = [np.empty_like(rows) for _ in range(_LOOKAHEAD + 2 if pipelined else 2)]
    # dealiased_square's scratch, one for each thread that runs G
    scratch = square_scratch(grid, chunk, dtype)
    worker_scratch = square_scratch(grid, chunk, dtype) if pipelined else None
    queued = {}     # chunk -> Future of its G on the worker
    taken = {}      # chunk -> its G, taken off the queue by this thread

    def g_of(ci, scratch):
        """dt/2 G of chunk ci of the previous iterate (the trapezoid's
        weight, applied once for the two steps that read each row),
        saturated: a row whose H1 norm exceeds thresh is rescaled down to
        it first. That keeps the iteration free of on/off limit cycles,
        and, with the float-range check, inside float range; it only
        influences nodes at or past the previous crossing, the last node a
        sweep computes once there is one."""
        lo = ci * chunk
        hi = min(lo + chunk, end)
        u = prev[lo:hi]
        out = g_bufs[ci % len(g_bufs)][:hi - lo]
        h1 = prev_h1[lo:hi]
        big = np.flatnonzero(h1 > thresh)
        if len(big):
            out[...] = u
            u = out
            for r in big:
                np.multiply(u[r], thresh / h1[r], out=u[r])
        # b * ((-Lap)^(1/2) u)^2, the square dealiased by the 2/3 rule
        np.multiply(abs_xi, u, out=out)
        np.multiply(dealiased_square(out, layout, scratch), b_hat, out=out)
        return np.multiply(out, half_dt, out=out)

    def g_take(ci):
        """G of chunk ci. While the worker has not finished a queued ci,
        this thread claims the farthest queued chunk the worker has not
        started (cancel() fails once it has) and computes that G itself; it
        waits only when none is left."""
        while ci in queued and not queued[ci].done():
            far = next((c for c in sorted(queued, reverse=True) if queued[c].cancel()),
                       None)
            if far is None:
                break
            del queued[far]
            taken[far] = g_of(far, scratch)
        if ci in taken:
            return taken.pop(ci)
        if ci in queued:
            return queued.pop(ci).result()
        return g_of(ci, scratch)

    prev_cross = None
    residuals = []
    min_re, max_re = np.inf, -np.inf
    converged = False
    with _worker(pipelined) as pool:
        for j in range(config.picard_max_iter):
            iterations = j + 1
            # rows past the previous crossing may be out of date in prev; no
            # row up to it is (see the module docstring)
            end = M + 1 if prev_cross is None else prev_cross + 1
            n_chunks = -(-end // chunk)
            new_cross = None
            res = 0.0
            scale = 0.0
            I[...] = u0s
            ahead = 1
            for ci in range(n_chunks):
                while pool is not None and ahead < min(ci + 1 + _LOOKAHEAD, n_chunks):
                    queued[ahead] = pool.submit(g_of, ahead, worker_scratch)
                    ahead += 1
                g = g_take(ci)
                lo = ci * chunk
                hi = min(lo + chunk, end)
                k = hi - lo
                new = rows[:k]
                for r in range(k):
                    if lo + r:
                        sweep_step(I, decay, g_last, g[r])
                    new[r] = I
                    g_last = g[r]
                new_h1 = _weighted_norm(h1w, new)
                if new_cross is None:
                    valid = k
                    crossing = crossing_of(new_h1)
                    if crossing is not None:
                        new_cross = lo + crossing
                        valid = crossing
                    if valid:
                        c = new[:valid]
                        scale = max(scale, float(new_h1[:valid].max()))
                        min_re = min(min_re, float(np.min(c.real)), *unstored)
                        max_re = max(max_re, float(np.max(c.real)), *unstored)
                        d = np.subtract(c, prev[lo:lo + valid], out=diff[:valid])
                        d_h1 = _weighted_norm(h1w, d)
                        res = max(res, float(d_h1.max()))
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
    times = config.times
    # one row at a time: a call over the stack would hold stack-sized terms
    dot_w = layout.stored(grid.xi_norm_sq) * layout.multiplicity
    return Trajectory(
        times=times[:keep],
        fields=_NodeFields(layout, prev, keep),
        h1_norms=prev_h1[:keep].copy(),
        h1_dot_norms=np.array([float(_weighted_norm(dot_w, row, scale=Ln))
                               for row in prev[:keep]]),
        # a mirror has its entry's modulus, and the rest of the lattice is +0
        max_abs_coeffs=np.array([np.abs(row).max() for row in prev[:keep]]),
        overflow_at=None if prev_cross is None else float(times[prev_cross]),
        picard_residuals=residuals,
        iterations=iterations,
        converged=converged,
        iterate_extrema=(float(min_re), float(max_re)),
    )


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
    delta = h1_norm(config.u0)
    C_B = config.C_abs * config.T0 ** exponent * b_norm
    contraction_ok = 4.0 * C_B * delta < 1.0
    if delta == 0.0 or b_norm == 0.0:
        T0_max = float("inf")
    else:
        try:
            T0_max = (4.0 * config.C_abs * b_norm * delta) ** (-1.0 / exponent)
        except OverflowError:   # a horizon past float range
            T0_max = float("inf")
    return ExistenceBudget(delta, config.C_abs, C_B, contraction_ok, T0_max,
                           case, b_norm, exponent)
