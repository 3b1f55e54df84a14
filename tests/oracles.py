"""Independent oracles used by the test suite.

Everything here is deliberately naive (nested loops, adaptive quadrature,
closed forms) and shares no code with the library paths it checks; the
reference Picard loop and the direct Duhamel sum at the end borrow only
library pieces that the paths they check leave unchanged.
"""

import math

import numpy as np

from fraclap import (DomainError, InductionRecord, NonConvergenceError,
                     SpectralField, Trajectory, convolve_lattice, semigroup_symbol)


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


def window_radius(window):
    """|xi| at each sample of a frequency window, broadcast over its axes."""
    grids = np.meshgrid(*window.axes(), indexing="ij", sparse=True)
    return np.sqrt(sum(g * g for g in grids))


def out_corona_mass_rel(window, k):
    """The mass of a level-k window outside the open corona
    sqrt(n) 2^k < |xi| < sqrt(n) 2^(k+1), relative to its whole mass."""
    r = window_radius(window)
    root_n = math.sqrt(window.n)
    mass = np.abs(window.values)
    outside = (r <= root_n * 2.0 ** k) | (r >= root_n * 2.0 ** (k + 1))
    return float(mass[outside].sum() / mass.sum())


def out_cube_mass_rel(window, k):
    """The mass of a level-k window outside the open cube
    (2^k, 2^(k+1))^n, relative to its whole mass."""
    grids = np.meshgrid(*window.axes(), indexing="ij", sparse=True)
    inside = np.ones(window.values.shape, dtype=bool)
    for g in grids:
        inside &= (g > 2.0 ** k) & (g < 2.0 ** (k + 1))
    mass = np.abs(window.values)
    return float(mass[~inside].sum() / mass.sum())


def weighted_autoconv(window):
    """(|xi| w) * (|xi| w) of a bump window by FFT: the left side of the
    certificate's conv bound, measured."""
    return convolve_lattice(window_radius(window) * window.values, window.h)


def measured_bessel_sup(window, rel_tol=1e-13):
    """sup of 1 + |xi|^2 over a bump window's measured support, the samples
    above rel_tol of the peak (the rest is FFT roundoff)."""
    support = window.values > rel_tol * window.values.max()
    return float((1.0 + window_radius(window)[support] ** 2).max())


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


def is_hermitian(fld):
    """True when the coefficients satisfy c(-m) = conj(c(m)) to 1e-12 of the
    largest, i.e. the field is real-valued."""
    flipped = fld.coeffs
    for ax in range(fld.grid.n):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    scale = np.abs(fld.coeffs).max() or 1.0
    return np.abs(np.conj(flipped) - fld.coeffs).max() <= 1e-12 * scale


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
# The two-mode cascade, an exact solution of the nonlinear problem. Take
# u0 = a (e_k + e_-k) and a coefficient whose symbol is C on the shell
# |xi| = 2 |xi_k| and 0 elsewhere. The square of (-Lap)^(1/2) u has one
# pair, (k, k), at mode 2k, and b kills every mode of G but those on the
# shell: c_k decays linearly, c_k(t) = a e^(-lam_k t), and c_2k solves
# c_2k' = -lam_2k c_2k + C xi_k^2 c_k^2 from c_2k(0) = 0, with
# lam = |xi|^alpha. Picard reaches it in two sweeps.


class ShellCoefficient:
    """The cascade's coefficient: symbol C where |xi|^2 is shell_sq (to 1e-9
    relative) and 0 elsewhere. It has the C and symbol_on that the solver
    reads off a CoefficientSpec."""

    def __init__(self, C, shell_sq):
        self.C = C
        self.shell_sq = shell_sq

    def symbol_on(self, xi_sq):
        xi_sq = np.asarray(xi_sq, dtype=float)
        return np.where(np.abs(xi_sq - self.shell_sq) <= 1e-9 * self.shell_sq,
                        self.C, 0.0)


def cascade_exact(t, a, C, xi_k_sq, alpha):
    """c_2k(t) = C xi_k^2 a^2 (e^(-2 lam_k t) - e^(-lam_2k t)) / (lam_2k - 2 lam_k),
    the cascade's driven mode in closed form (alpha != 1)."""
    lam_k = xi_k_sq ** (alpha / 2.0)
    lam_2k = (4.0 * xi_k_sq) ** (alpha / 2.0)
    return (C * xi_k_sq * a * a * (np.exp(-2.0 * lam_k * t) - np.exp(-lam_2k * t))
            / (lam_2k - 2.0 * lam_k))


def cascade_recurrence(times, a, C, xi_k_sq, alpha, kept):
    """c_2k at the nodes of a uniform time lattice from the trapezoid
    recurrence c_(i+1) = e^(-z) (c_i + dt/2 G_i) + dt/2 G_(i+1), z = dt lam_2k,
    with the exact forcing G_i = C xi_k^2 (a e^(-lam_k t_i))^2; G is 0 when
    the 2/3 rule drops mode 2k (kept False)."""
    dt = times[1] - times[0]
    lam_k = xi_k_sq ** (alpha / 2.0)
    decay = math.exp(-dt * (4.0 * xi_k_sq) ** (alpha / 2.0))
    g = [C * xi_k_sq * (a * math.exp(-lam_k * t)) ** 2 if kept else 0.0 for t in times]
    c = [0.0]
    for i in range(1, len(times)):
        c.append(decay * (c[-1] + 0.5 * dt * g[i - 1]) + 0.5 * dt * g[i])
    return np.array(c)


# ---------------------------------------------------------------------------
# The assembled induction chain: verify_induction_chain as it computed each
# per-level check before the checks were put in closed form. The weights,
# the time integral and the Bessel sup are evaluated term by term, and the
# flags are decided with the slacks that this rounding needed.

LN2 = math.log(2.0)


def bump_weight_log(k, t, alpha, n):
    """ln of the level-k exponential weight
    exp(-t 2^(k+alpha)) * 2^(-5(2^k - 1)) * 2^(5nk)."""
    if k < 0 or t < 0:
        raise DomainError("bump weight needs k >= 0 and t >= 0")
    return -t * 2.0 ** (k + alpha) + LN2 * (-5.0 * (2.0 ** k - 1.0) + 5.0 * n * k)


def time_integral_value(k, t, alpha, n):
    return 1.0 - math.exp(-t * n ** (alpha / 2.0) * 2.0 ** (alpha * (k + 1)))


def induction_margin_log2(k, t, params):
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


def assembled_induction_chain(levels, params):
    """The records of verify_induction_chain, from the assembled chain."""
    n, alpha, rho, t = params.n, params.alpha, params.rho, params.t_star
    bessel_cap_log2 = (max(0.0, rho / 2.0 - 1.0) + (rho / 2.0) * math.log2(n))
    records = []
    for lev in levels:
        k = lev.k
        time_ok = time_integral_value(k, t, alpha, n) >= 0.5 - 1e-12
        if k == 0:
            records.append(InductionRecord(
                k=0, support_ok=lev.support_ok, conv_bound_ok=True,
                bessel_bound_ok=True, time_integral_ok=time_ok, induction_ok=True,
                induction_margin_log2=float("nan")))
            continue
        conv_ok = levels[k - 1].hypercube_ok

        # log2(1 + n 4^(k+1)), the sup of 1 + |xi|^2 over the level-k cube
        sup_log2 = 2.0 * (k + 1) + math.log2(n + 4.0 ** -(k + 1))
        bessel_max_log2 = (rho / 2.0) * sup_log2 if rho > 0 else 0.0
        bound_log2 = bessel_cap_log2 + (k + 1) * rho + 1.0
        bessel_ok = lev.hypercube_ok and bessel_max_log2 <= bound_log2 + 1e-12

        ind_margin = induction_margin_log2(k, t, params)
        ind_ok = ind_margin >= -1e-9

        records.append(InductionRecord(
            k=k, support_ok=lev.support_ok, conv_bound_ok=conv_ok,
            bessel_bound_ok=bessel_ok, time_integral_ok=time_ok, induction_ok=ind_ok,
            induction_margin_log2=ind_margin))
    return records


# ---------------------------------------------------------------------------
# Reference Picard loop: the per-node sweep that picard_solve ran before its
# sweep was batched over node stacks (one G evaluation, one recurrence step
# and one norm per node). The chunked, band-stored solver must reproduce it
# bit for bit. It reuses the library's semigroup symbol and result types,
# which neither change touched. In 1-D, and for any n with complex_g=True,
# it is kept verbatim: every node is the full lattice, and G squares through
# the complex ifftn and fftn. For n >= 2 it holds each node as the solver
# does, as its half spectrum (last-axis index 0..N//2), in float64 when
# every coefficient of u0 there has imaginary part +0.0. G squares complex
# nodes through irfftn and rfftn, as the solver's pruned half-spectrum
# passes do, and float nodes, which hold even fields, through the whole
# half spectrum's even-field transforms (even_square), as the solver's
# pruned ones do. As in the solver, G divides by N^n as
# floats, and each norm sums a node's terms in the solver's stored order,
# counting an entry at last-axis index 1..N/2-1 twice for its mirror.


def sweep_step(I, decay, g_prev, g_new, half_dt):
    """One trapezoid step of the Duhamel integral, out of place."""
    return decay * (I + half_dt * g_prev) + half_dt * g_new


class _SweepState:
    """Per-run precomputed multipliers and the nonlinearity evaluator, on
    the nodes the reference loop holds."""

    def __init__(self, config, complex_g=False):
        grid = config.grid
        self.grid = grid
        self.complex_g = complex_g or grid.n == 1
        N = grid.N
        # a node's entries of a full-lattice array
        self.cut = (Ellipsis,) if self.complex_g else (Ellipsis, slice(0, N // 2 + 1))
        self.Nn = grid.N ** grid.n
        self.alpha = config.alpha
        xi2 = grid.xi_norm_sq
        self.abs_xi = np.sqrt(xi2)[self.cut]
        self.mask = grid.dealias_mask[self.cut]
        self.decay_dt = self.symbol(config.dt)
        self.Ln = grid.L ** grid.n
        weight = self.Ln * (1.0 + xi2)
        dot_weight = xi2.copy()
        if not self.complex_g:
            weight[..., 1:N // 2] *= 2.0
            dot_weight[..., 1:N // 2] *= 2.0
        self.h1_weight = weight[self.cut]
        self.h1_dot_weight = dot_weight[self.cut]
        # the solver's stored order, which its norms sum in: the 2/3 band in
        # lattice order, then the out-of-band entries where u0 is not +0
        u0c = config.u0.coeffs[self.cut]
        nonzero = (u0c != 0) | np.signbit(u0c.real) | np.signbit(u0c.imag)
        self.ext = np.flatnonzero(~self.mask & nonzero)
        self.real = not (self.complex_g or np.any((u0c.imag != 0) | np.signbit(u0c.imag)))
        self.b_sym = config.coefficient.symbol_on(xi2)[self.cut]
        # entries of last-axis column 0 whose last nonzero mode is positive,
        # and the zero mode: G keeps them and sets every other entry of that
        # column to the conjugate of its mirror
        sign = np.zeros(grid.shape[:-1], dtype=int)
        for m in np.meshgrid(*((grid.modes,) * (grid.n - 1)), indexing="ij"):
            sign = np.where(m != 0, np.sign(m), sign)
        self.own = sign >= 0

    def symbol(self, t):
        """The semigroup symbol at lag t on a node's entries."""
        return semigroup_symbol(self.grid, t, self.alpha)[self.cut]

    def node(self, coeffs):
        """The node that holds full-lattice coefficients coeffs."""
        node = coeffs[self.cut]
        return node.real if self.real else node

    def full(self, node):
        """The full-lattice coefficients of a node, completed from the half
        spectrum by c(-m) = conj(c(m)) in the node's dtype."""
        if self.complex_g:
            return node
        N = self.grid.N
        full = np.zeros(self.grid.shape, dtype=node.dtype)
        full[..., :N // 2 + 1] = node
        mirror = full[..., 1:N // 2]
        for ax in range(self.grid.n - 1):
            mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
        full[..., N // 2 + 1:] = np.conj(mirror[..., ::-1])
        return full.astype(np.complex128)

    def linear_part(self, u0_coeffs, t):
        return self.node(semigroup_symbol(self.grid, t, self.alpha) * u0_coeffs)

    def nonlinearity(self, coeffs):
        """G(u): coefficients of b * ((-Lap)^(1/2) u)^2, the square
        dealiased by the 2/3 rule."""
        if self.complex_g:
            return self.complex_nonlinearity(coeffs)
        if self.real:
            w = self.even_square(self.abs_xi * coeffs)
        else:
            axes = tuple(range(self.grid.n))
            v = np.fft.irfftn(self.abs_xi * coeffs, s=self.grid.shape, axes=axes) * self.Nn
            w = np.fft.rfftn(v * v, axes=axes)
        mirror = w[..., 0]
        for ax in range(self.grid.n - 1):
            mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
        w[..., 0] = np.where(self.own, w[..., 0], np.conj(mirror))
        w = self.divide(w)
        w = np.where(self.mask, w, 0.0)
        return w * self.b_sym

    def even_square(self, c):
        """N^n times the coefficients of the square of the even real field
        whose real half spectrum is c, before dealiasing: an rfft along the
        first axis (its rows -x1 are the field's rows x1), the unscaled
        inverse transforms of the other axes into the physical rows x1 =
        0..N/2, the square, the forward transforms of the last axes, and
        the unscaled irfft along the first axis, whose reflection cancels
        the first."""
        N, n = self.grid.N, self.grid.n
        v = np.fft.rfft(c, axis=0)
        for ax in range(1, n - 1):
            v = np.fft.ifft(v, axis=ax, norm="forward")
        v = np.fft.irfft(v, n=N, axis=-1, norm="forward")
        w = np.fft.rfft(v * v, axis=-1)
        for ax in range(n - 2, 0, -1):
            w = np.fft.fft(w, axis=ax)
        return np.fft.irfft(w, n=N, axis=0, norm="forward")

    def complex_nonlinearity(self, coeffs):
        """G(u) through complex transforms of the whole lattice."""
        v = np.fft.ifftn(self.abs_xi * coeffs) * self.Nn
        w = self.divide(np.fft.fftn(v * v))
        w = np.where(self.mask, w, 0.0)
        return w * self.b_sym

    def divide(self, w):
        """w / N^n, dividing the real and imaginary parts as floats."""
        if not np.iscomplexobj(w):
            return w / self.Nn
        return (w.view(np.float64) / self.Nn).view(np.complex128)

    def h1_of(self, coeffs):
        return self.stored_norm(self.h1_weight, coeffs)

    def h1_dot_of(self, coeffs):
        return self.stored_norm(self.h1_dot_weight, coeffs, self.Ln)

    def stored_norm(self, weight, coeffs, scale=1.0):
        if not np.all(np.isfinite(coeffs)):
            return float("inf")
        terms = weight * (coeffs.real ** 2 + coeffs.imag ** 2)
        stored = np.concatenate([terms[self.mask], terms.reshape(-1)[self.ext]])
        return float(np.sqrt(scale * stored.sum()))


def reference_picard_solve(config, complex_g=False, on_sweep=None):
    """Iterate the Duhamel map to its fixed point over [0, T0].

    Returns a Trajectory. Convergence means the sup-in-time relative H1 change
    between sweeps dropped below picard_tol on the valid (pre-overflow) range
    with a stable overflow index. Hitting max_iter with an overflow pending is
    a blow-up diagnostic, not a failure; without overflow it raises
    NonConvergenceError carrying the residual history. complex_g=True holds
    full-lattice nodes and squares through complex transforms on every grid
    (_SweepState). on_sweep, when given, is called after each full sweep as
    on_sweep(new, prev, new_cross): the new and the previous iterate (lists
    of nodes) and the new crossing index or None.
    """
    state = _SweepState(config, complex_g)
    M = config.n_steps
    times = config.times
    u0 = state.node(config.u0.coeffs)
    thresh = config.overflow_threshold
    half_dt = 0.5 * config.dt

    def crossing_of(h1_list):
        for i, h in enumerate(h1_list):
            if not np.isfinite(h) or h > thresh:
                return i
        return None

    # the recurrence's decayed u0, as the solver starts
    prev = [u0]
    for _ in range(M):
        prev.append(state.decay_dt * prev[-1])
    prev_h1 = [state.h1_of(c) for c in prev]
    prev_cross = crossing_of(prev_h1)

    residuals = []
    min_re, max_re = np.inf, -np.inf
    converged = False
    iterations = 0

    for j in range(config.picard_max_iter):
        iterations = j + 1
        # G of the previous iterate; at over-threshold nodes the field is
        # rescaled down to the threshold first (saturated forcing keeps the
        # iteration inside float range and free of on/off limit cycles;
        # saturation only ever influences times at or past the previous
        # iterate's crossing; once the crossing is stable, the result keeps
        # only the crossing node of those, as its last)
        new = [u0.copy()]
        I = u0
        g_last = _saturated_nonlinearity(state, prev, prev_h1, 0, thresh)
        for i in range(1, M + 1):
            g_cur = _saturated_nonlinearity(state, prev, prev_h1, i, thresh)
            I = sweep_step(I, state.decay_dt, g_last, g_cur, half_dt)
            g_last = g_cur
            new.append(I)
        new_h1 = [state.h1_of(c) for c in new]
        new_cross = crossing_of(new_h1)
        if on_sweep is not None:
            on_sweep(new, prev, new_cross)

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
    fields = [SpectralField(config.grid, state.full(prev[i])) for i in range(keep)]
    return Trajectory(
        times=times[:keep],
        fields=fields,
        h1_norms=np.array(prev_h1[:keep]),
        h1_dot_norms=np.array([state.h1_dot_of(prev[i]) for i in range(keep)]),
        max_abs_coeffs=np.array([np.abs(f.coeffs).max() for f in fields]),
        overflow_at=None if prev_cross is None else float(times[prev_cross]),
        picard_residuals=residuals,
        iterations=iterations,
        converged=converged,
        iterate_extrema=(float(min_re), float(max_re)),
    )


def _saturated_nonlinearity(state, prev, prev_h1, i, thresh):
    h = prev_h1[i]
    if not np.isfinite(h):
        return np.zeros_like(prev[i])
    if h > thresh:
        return state.nonlinearity(prev[i] * (thresh / h))
    return state.nonlinearity(prev[i])


def direct_duhamel(fields, i, config):
    """The Duhamel map at node i of the dt lattice, summed directly: a
    SpectralField with coefficients S(t_i) u0 + sum_j w_j S(t_i - t_j) G(u_j)
    over j = 0..i, where u_j is fields[j].coeffs (read by index), G is the
    reference loop's unsaturated nonlinearity on its nodes and the
    trapezoid weights are w_j = dt/2 at both ends and dt between. O(i)
    transforms per node where the solver's recurrence takes O(1)."""
    state = _SweepState(config)
    times = config.times
    acc = state.linear_part(config.u0.coeffs, times[i])
    # no terms at i = 0: the integral over [0, 0]
    for j in range(i + 1 if i else 0):
        w = config.dt if 0 < j < i else 0.5 * config.dt
        g = state.nonlinearity(state.node(fields[j].coeffs))
        acc = acc + w * state.symbol(times[i - j]) * g
    return SpectralField(config.grid, state.full(acc))
