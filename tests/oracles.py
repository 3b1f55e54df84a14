"""Independent oracles used by the test suite.

Everything here is deliberately naive (nested loops, adaptive quadrature,
closed forms) and shares no code with the library paths it checks; the
reference Picard loop at the end borrows only library pieces that the path
it checks leaves unchanged.
"""

import numpy as np

from fraclap import (NonConvergenceError, SpectralField, Trajectory,
                     h1_dot_norm, semigroup_symbol)


def brute_mode_autoconv(coeffs, modes):
    """Autoconvolution of FFT-layout coefficients on the unbounded mode
    lattice, reported only at resolvable modes. O(N^2) loops, 1D."""
    N = len(coeffs)
    pos = {int(m): i for i, m in enumerate(modes)}
    out = np.zeros(N, dtype=complex)
    for m_out in modes:
        acc = 0.0 + 0.0j
        for m1 in modes:
            m2 = int(m_out) - int(m1)
            if m2 in pos:
                acc += coeffs[pos[int(m1)]] * coeffs[pos[m2]]
        out[pos[int(m_out)]] = acc
    return out


def brute_window_conv(a, b, h):
    """Direct lattice convolution of two window arrays, weight h^ndim."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        na, nb = len(a), len(b)
        out = np.zeros(na + nb - 1)
        for i in range(na):
            for j in range(nb):
                out[i + j] += a[i] * b[j]
        return out * h
    na, ma = a.shape
    nb, mb = b.shape
    out = np.zeros((na + nb - 1, ma + mb - 1))
    for i in range(na):
        for k in range(ma):
            if a[i, k] == 0.0:
                continue
            out[i:i + nb, k:k + mb] += a[i, k] * b
    return out * h ** 2


def two_spectrum_autoconv(a, spacing):
    """The certificate autoconvolution as one irfftn of the product of two
    rfftn spectra of the same operand: zero padding to powers of two, then
    the crop to 2 len(a) - 1 per axis and the spacing**ndim weight."""
    a = np.asarray(a, dtype=np.float64)
    out_shape = tuple(2 * s - 1 for s in a.shape)
    fshape = tuple(1 << int(np.ceil(np.log2(s))) for s in out_shape)
    axes = tuple(range(a.ndim))
    out = np.fft.irfftn(np.fft.rfftn(a, s=fshape, axes=axes)
                        * np.fft.rfftn(a, s=fshape, axes=axes), s=fshape, axes=axes)
    return out[tuple(slice(0, s) for s in out_shape)] * spacing ** a.ndim


def periodized_gaussian(x, t, L, images=6):
    """Closed-form heat kernel wrapped onto the periodic box."""
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for m in range(-images, images + 1):
        y = x + m * L
        acc += np.exp(-y * y / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    return acc


def gaussian_riesz1_l1(t):
    """L1 norm of the |xi|-smoothed heat kernel by adaptive quadrature.

    g(x) = (1/pi) int_0^inf xi exp(-t xi^2) cos(x xi) dxi evaluated pointwise
    by quadrature, then int |g| dx, exploiting that g is even, positive near
    the origin and negative past its single sign change.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def g(x):
        val, _ = quad(lambda xi: xi * np.exp(-t * xi * xi) * np.cos(x * xi),
                      0.0, np.inf, limit=400)
        return val / np.pi

    # g(0) > 0, g -> -c/x^2 from below; bracket the sign change
    hi = np.sqrt(t)
    while g(hi) > 0:
        hi *= 2.0
    x0 = brentq(g, hi / 2.0 if g(hi / 2.0) > 0 else 1e-12, hi, xtol=1e-12)
    pos, _ = quad(g, 0.0, x0, limit=400)
    neg, _ = quad(g, x0, 60.0 * np.sqrt(t), limit=800)
    # |x|^-2 tail beyond the quadrature window, from the kink asymptotics
    tail = (1.0 / np.pi) / (60.0 * np.sqrt(t))
    return 2.0 * (pos - neg + tail)


def bessel_symbol_l2(rho, order=0.0):
    """( int (1+xi^2)^order (1+xi^2)^(-rho) dxi )^(1/2) on the line."""
    from scipy.integrate import quad
    val, _ = quad(lambda xi: (1.0 + xi * xi) ** (order - rho), -np.inf, np.inf)
    return np.sqrt(val)


# ---------------------------------------------------------------------------
# Reference Picard loop: the per-node sweep that picard_solve ran before its
# sweep was batched over node stacks, kept verbatim (one G evaluation, one
# recurrence step and one norm per node, every node on the full lattice).
# The chunked, band-stored solver must reproduce it bit for bit. It reuses the
# library's semigroup symbol and result types, which neither change touched.


def sweep_step(I, decay, g_prev, g_new, half_dt):
    """One trapezoid step of the Duhamel integral, out of place."""
    return decay * (I + half_dt * g_prev) + half_dt * g_new


class _SweepState:
    """Per-run precomputed multipliers and the nonlinearity evaluator."""

    def __init__(self, config):
        grid = config.grid
        self.grid = grid
        self.Nn = grid.N ** grid.n
        xi2 = grid.xi_norm_sq
        self.abs_xi = np.sqrt(xi2)
        self.mask = grid.dealias_mask
        self.decay_dt = semigroup_symbol(grid, config.dt, config.alpha)
        self.alpha = config.alpha
        self.h1_weight = grid.L ** grid.n * (1.0 + xi2)
        times = config.times
        if config.coefficient.time_modulation is None:
            base = config.coefficient.symbol_on(0.0, xi2)
            self.b_syms = [base] * len(times)
        else:
            self.b_syms = [config.coefficient.symbol_on(t, xi2) for t in times]

    def linear_part(self, u0_coeffs, t):
        return semigroup_symbol(self.grid, t, self.alpha) * u0_coeffs

    def nonlinearity(self, coeffs, i):
        """G(u)(t_i): coefficients of b * ((-Lap)^(1/2) u)^2, the square
        dealiased by the 2/3 rule."""
        v = np.fft.ifftn(self.abs_xi * coeffs) * self.Nn
        w = np.fft.fftn(v * v) / self.Nn
        w = np.where(self.mask, w, 0.0)
        return w * self.b_syms[i]

    def h1_of(self, coeffs):
        if not np.all(np.isfinite(coeffs)):
            return float("inf")
        return float(np.sqrt((self.h1_weight * (coeffs.real ** 2 + coeffs.imag ** 2)).sum()))


def reference_picard_solve(config):
    """Iterate the Duhamel map to its fixed point over [0, T0].

    Returns a Trajectory. Convergence means the sup-in-time relative H1 change
    between sweeps dropped below picard_tol on the valid (pre-overflow) range
    with a stable overflow index. Hitting max_iter with an overflow pending is
    a blow-up diagnostic, not a failure; without overflow it raises
    NonConvergenceError carrying the residual history.
    """
    state = _SweepState(config)
    M = config.n_steps
    times = config.times
    u0c = config.u0.coeffs
    lin = [state.linear_part(u0c, t) for t in times]
    thresh = config.overflow_threshold
    half_dt = 0.5 * config.dt

    def crossing_of(h1_list):
        for i, h in enumerate(h1_list):
            if not np.isfinite(h) or h > thresh:
                return i
        return None

    prev = [c.copy() for c in lin]
    prev_h1 = [state.h1_of(c) for c in prev]
    prev_cross = crossing_of(prev_h1)

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
        new = [lin[0].copy()]
        I = np.zeros_like(u0c)
        g_last = _saturated_nonlinearity(state, prev, prev_h1, 0, thresh)
        for i in range(1, M + 1):
            g_cur = _saturated_nonlinearity(state, prev, prev_h1, i, thresh)
            I = sweep_step(I, state.decay_dt, g_last, g_cur, half_dt)
            g_last = g_cur
            new.append(lin[i] + I)
        new_h1 = [state.h1_of(c) for c in new]
        new_cross = crossing_of(new_h1)

        res = 0.0
        scale = 0.0
        valid = M + 1 if new_cross is None else new_cross
        for i in range(valid):
            res = max(res, state.h1_of(new[i] - prev[i]))
            scale = max(scale, new_h1[i])
        residuals.append(res)

        for i in range(valid):
            c = new[i]
            min_re = min(min_re, float(np.min(c.real)))
            max_re = max(max_re, float(np.max(c.real)))
            max_im = max(max_im, float(np.max(np.abs(c.imag))))

        rel = res / scale if scale > 0 else 0.0
        stable = new_cross == prev_cross
        prev, prev_h1, prev_cross = new, new_h1, new_cross
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
        fields.append(SpectralField(config.grid, prev[i], is_real=config.u0.is_real,
                                    overflowed=over))
    h1d = np.array([h1_dot_norm(f) for f in fields])
    return Trajectory(
        times=times[:keep],
        fields=fields,
        h1_norms=np.array(prev_h1[:keep]),
        h1_dot_norms=h1d,
        overflow_at=None if prev_cross is None else float(times[prev_cross]),
        picard_residuals=residuals,
        iterations=iterations,
        converged=converged,
        iterate_extrema=(float(min_re), float(max_re), float(max_im)),
    )


def _saturated_nonlinearity(state, prev, prev_h1, i, thresh):
    h = prev_h1[i]
    if not np.isfinite(h):
        return np.zeros_like(prev[i])
    if h > thresh:
        return state.nonlinearity(prev[i] * (thresh / h), i)
    return state.nonlinearity(prev[i], i)
