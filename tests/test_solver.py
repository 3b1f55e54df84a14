import contextlib
import os
import sys
import threading
import warnings
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from fraclap import cli, solver
from fraclap import (CoefficientSpec, DomainError, GridSpec,
                     NonConvergenceError, ProblemConfig, SpectralField,
                     Trajectory, existence_budget,
                     forward_transform, h1_norm, omega_initial_field,
                     picard_solve, random_nonneg_initial_field, semigroup_apply)
from fraclap.coefficient import gamma_case
from fraclap.spectral import BandLayout, _weighted_norm, h1_weight
import oracles
from oracles import direct_duhamel, is_hermitian, reference_picard_solve

L1D = 16 * np.pi


def grid1(N=128):
    return GridSpec(1, L1D, N)


def zero_coeff():
    return CoefficientSpec(kind="dirac", C=0.0)


def bessel_coeff(C=1.0, rho=2.0):
    return CoefficientSpec(kind="bessel_symbol", C=C, rho=rho)


def make_config(g=None, coeff=None, u0=None, alpha=2.0, gamma=0.9, T0=0.25,
                dt=1.0 / 128.0, **kw):
    g = g or grid1()
    return ProblemConfig(
        grid=g, alpha=alpha, gamma=gamma,
        coefficient=coeff or zero_coeff(),
        u0=u0 if u0 is not None else random_nonneg_initial_field(g, 0.5, seed=0),
        T0=T0, dt=dt, **kw)


class TestInitialData:
    def test_omega_field_hat_values(self):
        g = grid1(512)
        f = omega_initial_field(g, 128.0)
        hat = ((g.L / (2 * np.pi)) ** g.n * f.coeffs).real
        xi = g.xi_axes[0]
        inside = np.abs(xi - 1.5) < 0.5
        assert np.all(hat[inside] == pytest.approx(128.0))
        assert is_hermitian(f)
        # the one-sided bump dominates from below
        one = np.where(inside, 128.0, 0.0)
        assert np.all(hat >= one - 1e-12)

    def test_random_field_nonneg_hermitian(self):
        f = random_nonneg_initial_field(grid1(), 0.7, seed=5)
        assert f.coeffs.real.min() >= 0
        assert is_hermitian(f)
        assert h1_norm(f) == pytest.approx(0.7, rel=1e-12)

    def test_config_validation(self):
        g = grid1()
        with pytest.raises(DomainError):
            make_config(T0=-1.0)
        with pytest.raises(DomainError):
            make_config(dt=1.0)  # dt > T0
        c = np.zeros(g.shape, dtype=complex)
        c[1] = 1.0  # not Hermitian
        with pytest.raises(DomainError, match="not a real field"):
            make_config(u0=SpectralField(g, c))
        # from_hat_values does not make its input Hermitian
        with pytest.raises(DomainError, match="not a real field"):
            make_config(u0=SpectralField.from_hat_values(g, c))

    def test_sampled_white_noise_accepted(self):
        # criterion 9's data: the transform of real samples is Hermitian to
        # roundoff (about 2e-16 of the largest coefficient), which passes the
        # realness check; the same data with a 1e-9 asymmetry does not
        g = grid1(256)
        rng = np.random.default_rng(123)
        for _ in range(5):
            u0 = forward_transform(rng.standard_normal(g.shape), g)
            make_config(g=g, u0=u0, alpha=1.5, gamma=0.4)
            c = u0.coeffs.copy()
            c[1] += 1e-9 * np.abs(c).max()
            with pytest.raises(DomainError, match="not a real field"):
                make_config(g=g, u0=replace(u0, coeffs=c), alpha=1.5, gamma=0.4)

    @pytest.mark.parametrize("T0, dt, cut", [
        (0.5, 0.3, 0.25), (0.5, 0.2, 0.5 / 3), (0.1, 1.0 / 256.0, 0.1 / 26),
        (1e-6, 5e-9, 5e-9), (1e-6, 2.5e-9, 2.5e-9), (0.5, 1.0 / 256.0, 1.0 / 256.0),
        (0.0625, 1.0 / 256.0, 1.0 / 256.0)])
    def test_time_lattice_ends_at_the_horizon(self, T0, dt, cut):
        # a dt that divides T0 is kept bit for bit, any other is cut to
        # T0 / ceil(T0 / dt)
        cfg = make_config(T0=T0, dt=dt)
        assert cfg.dt == cut
        assert cfg.times[-1] == pytest.approx(T0, rel=1e-12)

    @pytest.mark.parametrize("kw", [
        {"T0": np.nan}, {"T0": np.inf}, {"dt": np.nan}, {"picard_tol": np.nan},
        {"overflow_threshold": np.nan}, {"C_abs": np.inf}, {"picard_max_iter": 0}])
    def test_config_rejects_nonfinite_and_zero_sweeps(self, kw):
        with pytest.raises(DomainError):
            make_config(**kw)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_initial_fields_reject_nonfinite_amplitude(self, amplitude):
        with pytest.raises(DomainError):
            omega_initial_field(grid1(), amplitude)
        with pytest.raises(DomainError):
            random_nonneg_initial_field(grid1(), amplitude, seed=0)


class TestDuhamelStep:
    """The Duhamel map summed directly (oracles.direct_duhamel) against
    the solver's recurrence and closed forms."""

    def test_zero_coefficient_is_pure_semigroup(self):
        cfg = make_config()
        traj = picard_solve(cfg)
        out = direct_duhamel(traj.fields, 16, cfg)   # t = 0.125
        exact = semigroup_apply(cfg.u0, 0.125, cfg.alpha)
        assert np.abs(out.coeffs - exact.coeffs).max() <= 1e-12

    def test_zero_history_gives_semigroup_term(self):
        cfg = make_config(coeff=bessel_coeff(), gamma=0.0)
        # b = 0 run, then a zero history in place of its fields (a solve's
        # fields are built on each read, so zeroing one in place does nothing)
        traj = picard_solve(make_config())
        traj.fields = [SpectralField.zero(cfg.grid) for _ in traj.fields]
        out = direct_duhamel(traj.fields, 16, cfg)   # t = 0.125
        exact = semigroup_apply(cfg.u0, 0.125, cfg.alpha)
        assert np.abs(out.coeffs - exact.coeffs).max() <= 1e-12

    def test_zero_datum_stays_zero(self):
        g = grid1()
        cfg = make_config(g=g, u0=SpectralField.zero(g), coeff=bessel_coeff(),
                          gamma=0.0)
        traj = picard_solve(cfg)
        out = direct_duhamel(traj.fields, 32, cfg)   # t = 0.25
        assert np.abs(out.coeffs).max() == 0.0

    def test_matches_solver_recurrence(self):
        # the trajectory is one Picard application behind direct_duhamel, so
        # compare at a tight fixed-point tolerance
        cfg = make_config(coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.125,
                          dt=1.0 / 256.0, picard_tol=1e-13)
        traj = picard_solve(cfg)
        for t in (cfg.dt * 8, 0.0625, 0.125):
            i = int(round(t / cfg.dt))
            direct = direct_duhamel(traj.fields, i, cfg)
            scale = np.abs(traj.fields[i].coeffs).max()
            assert np.abs(direct.coeffs - traj.fields[i].coeffs).max() <= 1e-9 * scale


# the two-mode cascade on L = 8 pi (xi = m / 4) per dimension: the grid, a
# mode k whose 2k the 2/3 rule keeps (|2k| <= N//3 per axis), and one whose
# 2k it drops. The dropped shells hold no mode inside the band
CASCADES = {
    1: (GridSpec(1, 8 * np.pi, 64), (5,), (12,)),
    2: (GridSpec(2, 8 * np.pi, 32), (2, 3), (6, 1)),
    3: (GridSpec(3, 8 * np.pi, 16), (1, 2, 1), (3, 1, 0)),
}


def _cascade(g, k, dt, a=1.0, C=1.0):
    """Solve the two-mode cascade from u0 = a (e_k + e_-k) at alpha = 2 on
    [0, 1]. Returns the config, the trajectory, |xi_k|^2, the closed-form
    c_2k at the nodes, and c_k, c_2k and the largest other |coefficient| of
    every node."""
    xi_k_sq = sum((2.0 * np.pi * m / g.L) ** 2 for m in k)
    c = np.zeros(g.shape, dtype=complex)
    minus = tuple(-m for m in k)
    c[k] = c[minus] = a
    cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.5,
                        coefficient=oracles.ShellCoefficient(C, 4.0 * xi_k_sq),
                        u0=SpectralField(g, c), T0=1.0, dt=dt)
    traj = picard_solve(cfg)
    k2 = tuple(2 * m for m in k)
    own = (k, minus, k2, tuple(-m for m in k2))
    other = []
    for f in traj.fields:
        rest = np.abs(f.coeffs)
        for m in own:
            rest[m] = 0.0
        other.append(rest.max())
    exact = oracles.cascade_exact(cfg.times, a, C, xi_k_sq, 2.0)
    return (cfg, traj, xi_k_sq, exact, np.array([f.coeffs[k] for f in traj.fields]),
            np.array([f.coeffs[k2] for f in traj.fields]), np.array(other))


@pytest.mark.parametrize("n", sorted(CASCADES))
def test_two_mode_cascade_is_exact(n):
    # c_k decays linearly, c_2k is the trapezoid recurrence on the exact
    # forcing (zero where the 2/3 rule drops 2k) to 1e-13 of its scale, every
    # other mode stays at rounding level, and where z = dt lam_2k < 1 the
    # error against the closed form falls 4x per halving of dt
    g, kept, dropped = CASCADES[n]
    errors = []
    for k, dt in ((kept, 1.0 / 16.0), (kept, 1.0 / 32.0), (dropped, 1.0 / 16.0)):
        cfg, traj, xi_k_sq, exact, c_k, c_2k, other = _cascade(g, k, dt)
        assert traj.converged and traj.iterations <= 2
        assert len(traj.times) == cfg.n_steps + 1
        is_kept = max(abs(2 * m) for m in k) <= g.N // 3
        assert is_kept == (k == kept)
        scale = np.abs(exact).max()
        recurrence = oracles.cascade_recurrence(cfg.times, 1.0, 1.0, xi_k_sq, 2.0,
                                                is_kept)
        assert np.abs(c_k - np.exp(-xi_k_sq * cfg.times)).max() <= 1e-13
        assert np.abs(c_2k - recurrence).max() <= 1e-13 * scale
        assert other.max() <= 1e-15 * scale
        if is_kept:
            assert dt * 4.0 * xi_k_sq < 1.0
            errors.append(np.abs(c_2k - exact).max())
    assert 4.0 / 1.1 <= errors[0] / errors[1] <= 4.0 * 1.1, errors


class TestPicard:
    def test_linear_case_exact(self):
        cfg = make_config(alpha=1.3, gamma=0.2)
        traj = picard_solve(cfg)
        assert traj.iterations == 1 and traj.converged
        for i, t in enumerate(traj.times):
            exact = semigroup_apply(cfg.u0, t, cfg.alpha)
            assert np.abs(traj.fields[i].coeffs - exact.coeffs).max() <= 1e-10

    def test_positivity_preserved(self):
        cfg = make_config(coeff=bessel_coeff(C=2.0), gamma=0.0,
                          u0=random_nonneg_initial_field(grid1(), 0.3, seed=7))
        traj = picard_solve(cfg)
        min_re, max_re = traj.iterate_extrema
        assert min_re >= -1e-12 * max_re

    def test_contraction_ratio_within_budget(self):
        g = grid1()
        coeff = bessel_coeff(C=1.0)
        u0 = random_nonneg_initial_field(g, 0.02, seed=3)
        cfg = make_config(g=g, coeff=coeff, u0=u0, gamma=0.0, T0=0.25,
                          picard_tol=1e-14, dt=1.0 / 256.0)
        budget = existence_budget(cfg)
        assert budget.contraction_ok
        traj = picard_solve(cfg)
        res = np.array(traj.picard_residuals)
        res = res[res > 1e-13 * h1_norm(cfg.u0)]
        ratios = res[1:] / res[:-1]
        assert np.all(np.diff(res) < 0)
        assert ratios.max() <= 4 * budget.C_B * budget.delta + 0.1

    def test_timestep_convergence_first_order(self):
        finals = {}
        for dt in (1.0 / 64, 1.0 / 128, 1.0 / 256):
            cfg = make_config(coeff=bessel_coeff(C=20.0), gamma=0.0, T0=0.125,
                              dt=dt, picard_tol=1e-12,
                              u0=random_nonneg_initial_field(grid1(), 0.2, seed=9))
            finals[dt] = picard_solve(cfg).h1_norms[-1]
        d1 = abs(finals[1.0 / 64] - finals[1.0 / 128])
        d2 = abs(finals[1.0 / 128] - finals[1.0 / 256])
        assert d2 <= 0.75 * d1          # at least first order
        assert d2 <= finals[1.0 / 256] * 1e-3

    def test_overflow_diagnostic(self):
        # tiny threshold turns growth into an immediate overflow report
        g = grid1(256)
        coeff = CoefficientSpec(kind="dirac", C=2048.0)
        cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                            u0=omega_initial_field(g, 128.0), T0=1e-6, dt=5e-9,
                            picard_max_iter=120, overflow_threshold=1e6)
        traj = picard_solve(cfg)
        assert traj.overflow_at is not None
        assert traj.times[-1] == traj.overflow_at
        assert len(traj.fields) == len(traj.times)
        assert traj.h1_norms[-1] > 1e6
        assert np.all(traj.h1_norms[:-1] <= 1e6)
        fin = traj.h1_dot_norms[np.isfinite(traj.h1_dot_norms)]
        assert np.all(np.diff(fin) >= 0)

    def test_nonconvergence_error_carries_residuals(self):
        # needs several sweeps to converge but is capped at two, without
        # ever reaching the overflow threshold
        g = grid1()
        coeff = bessel_coeff(C=20.0)
        cfg = make_config(g=g, coeff=coeff, gamma=0.0,
                          u0=random_nonneg_initial_field(g, 0.2, seed=1),
                          picard_tol=1e-12, picard_max_iter=2)
        with pytest.raises(NonConvergenceError) as exc:
            picard_solve(cfg)
        assert len(exc.value.residuals) == 2


def _blowup_config(overflow_threshold=1e6, max_iter=120, N=256):
    g = grid1(N)
    coeff = CoefficientSpec(kind="dirac", C=2048.0)
    return ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                         u0=omega_initial_field(g, 128.0), T0=1e-6, dt=5e-9,
                         picard_max_iter=max_iter, overflow_threshold=overflow_threshold)


def _config_2d():
    g = GridSpec(2, 16 * np.pi, 32)
    coeff = bessel_coeff(C=5.0)
    return make_config(g=g, coeff=coeff, gamma=0.0, T0=0.125, dt=1.0 / 128.0,
                       u0=random_nonneg_initial_field(g, 0.3, seed=4),
                       picard_tol=1e-12)


def _config_3d():
    # 64 KiB nodes, four to a sweep chunk: six nodes end on a partial chunk
    g = GridSpec(3, 16 * np.pi, 16)
    return make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=5.0 / 128.0,
                       dt=1.0 / 128.0, u0=random_nonneg_initial_field(g, 0.3, seed=7),
                       picard_tol=1e-12)


def _config_nodes(n_nodes):
    g = grid1(512)
    dt = 1.0 / 256.0
    return make_config(g=g, coeff=bessel_coeff(C=10.0), gamma=0.0,
                       T0=(n_nodes - 1) * dt, dt=dt, picard_tol=1e-12,
                       u0=random_nonneg_initial_field(g, 0.2, seed=2))


def _config_white_noise():
    # sampled noise has coefficients at every mode, outside the 2/3-rule band
    # too, where each iterate carries S(t) u0
    g = grid1()
    noise = 0.01 * np.random.default_rng(5).standard_normal(g.shape)
    return make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.25,
                       dt=1.0 / 256.0, picard_tol=1e-14, u0=forward_transform(noise, g))


def _config_signed_zeros():
    # u0 holds -0.0 at a band mode (|m| = 30 <= 42) and at an out-of-band
    # mode (|m| = 60), both outside the random datum's |m| <= 21. Node 0
    # is u0, so the recurrence's start and the stored node must keep them
    # apart from +0
    g = grid1()
    c = random_nonneg_initial_field(g, 0.2, seed=6).coeffs.copy()
    c[[30, 60]] = complex(-0.0, 0.0)
    return make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.125,
                       dt=1.0 / 256.0, picard_tol=1e-14, u0=SpectralField(g, c))


def _config_white_noise_2d():
    # the first n >= 2 datum with complex stored coefficients. Sampled noise
    # is nonzero at every mode: out of the 2/3-rule band (|m| > 5) on and
    # off the half spectrum, and on the Nyquist column (last-axis index 8),
    # whose entries hold both members of each mirror pair
    g = GridSpec(2, 8 * np.pi, 16)
    noise = 0.01 * np.random.default_rng(8).standard_normal(g.shape)
    return make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.25,
                       dt=1.0 / 256.0, picard_tol=1e-14, u0=forward_transform(noise, g))


def _config_white_noise_3d():
    # the first 3-D datum with complex stored coefficients and out-of-band
    # entries (|m| = 3 or 4 > 2 on an axis): they sit in the spectrum by one
    # index array per axis, and the square's mirror fill runs over two axes
    g = GridSpec(3, 8 * np.pi, 8)
    noise = 0.01 * np.random.default_rng(9).standard_normal(g.shape)
    return make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.125,
                       dt=1.0 / 128.0, picard_tol=1e-14, u0=forward_transform(noise, g))


def _config_omega_2d():
    # 40^2 is not a power of two, so G's division by N^n rounds. The omega
    # datum has 42 coefficients outside the 2/3-rule band (|m| = 14 or 15 >
    # 13 on an axis), 21 of them on the half spectrum, so every norm sums
    # out-of-band stored entries and the square scatters some of them
    g = GridSpec(2, 16 * np.pi, 40)
    return make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.125,
                       dt=1.0 / 128.0, u0=omega_initial_field(g, 0.5),
                       picard_tol=1e-12)


class _StubFuture(Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def done(self):
        self.pool.run_queued()
        return super().done()


class _StubPool:
    """Stands in for a pipelined sweep's worker pool, on the sweep's own
    thread. submit() queues the call. With run=False nothing ever runs a
    queued call. With run=True each call counts as started when it is
    submitted (so cancel() fails on it), and queued calls run when a result
    is polled, or, through a hook, inside the sweep thread's own work."""

    def __init__(self, run):
        self.run = run
        self.submitted = []
        self.queue = []
        self.busy = False
        self.nested = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = _StubFuture(self)
        if self.run:
            future.set_running_or_notify_cancel()
        self.submitted.append((future, fn, args))
        self.queue.append((future, fn, args))
        return future

    def run_queued(self, inside=None):
        """Run the queued calls; inside, for a run nested in the sweep
        thread's own G, is the dtype of the rows that G squares."""
        if not self.run or self.busy:
            return
        self.busy = True
        try:
            while self.queue:
                future, fn, args = self.queue.pop(0)
                future.set_result(fn(*args))
                if inside is not None:
                    self.nested.append(inside)
        finally:
            self.busy = False


_CHUNK_512 = solver._CHUNK_BYTES // (16 * 512)   # nodes per sweep chunk at N=512

ORACLE_CASES = {
    "contraction-1d": lambda: make_config(
        coeff=bessel_coeff(C=1.0), gamma=0.0, T0=0.25, dt=1.0 / 256.0,
        picard_tol=1e-14, u0=random_nonneg_initial_field(grid1(), 0.02, seed=3)),
    "blowup-threshold-1e6": _blowup_config,
    "grid-2d-N32": _config_2d,
    "grid-3d-N16": _config_3d,
    "nodes-below-chunk": lambda: _config_nodes(_CHUNK_512 // 2),
    "nodes-equal-chunk": lambda: _config_nodes(_CHUNK_512),
    "nodes-two-chunks": lambda: _config_nodes(2 * _CHUNK_512),
    "nodes-not-multiple": lambda: _config_nodes(2 * _CHUNK_512 + 1),
    "white-noise-1d": _config_white_noise,
    "white-noise-2d": _config_white_noise_2d,
    "white-noise-3d": _config_white_noise_3d,
    "signed-zeros-1d": _config_signed_zeros,
    "omega-2d-N40": _config_omega_2d,
}


class TestChunkedSweepOracle:
    """picard_solve batches each sweep over chunks of the node stack; it must
    reproduce the per-node reference loop bit for bit. Fields are compared
    by their bytes, so signed zeros and NaN payloads count."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bitwise_equal_to_per_node_loop(self, case):
        cfg = ORACLE_CASES[case]()
        got = picard_solve(cfg)
        ref = reference_picard_solve(cfg)
        assert np.array_equal(got.h1_norms, ref.h1_norms)
        assert np.array_equal(got.h1_dot_norms, ref.h1_dot_norms, equal_nan=True)
        # the solver reads them off the stored rows, the loop off full fields
        assert got.max_abs_coeffs.tobytes() == ref.max_abs_coeffs.tobytes()
        assert len(got.fields) == len(ref.fields)
        for f, r in zip(got.fields, ref.fields):
            assert f.coeffs.tobytes() == r.coeffs.tobytes()
        assert np.array_equal(got.picard_residuals, ref.picard_residuals)
        assert np.array_equal(got.iterate_extrema, ref.iterate_extrema)
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert got.overflow_at == ref.overflow_at

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_pipelined_sweep_bitwise_equal(self, case, monkeypatch):
        # a one-byte budget puts one node in every chunk, which computes G of
        # the next chunk on the worker thread while the recurrence runs
        monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
        self.test_bitwise_equal_to_per_node_loop(case)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("worker_runs", [False, True],
                             ids=["forced-steal", "worker-runs-all"])
    def test_pipelined_sweep_stubbed_pool(self, case, worker_runs, monkeypatch):
        # forced-steal: queued G work never starts, so the sweep's thread
        # takes all of it. worker-runs-all: the sweep's thread takes none,
        # and the queued calls run inside its own G, between filling its
        # scratch and transforming it (at the first transform: ifftn in 1-D,
        # the first ifft pass for complex rows with n >= 2, the first rfft
        # for float rows), so scratch the two share fails
        pool = _StubPool(worker_runs)
        monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(solver, "_worker",
                            lambda needed: pool if needed else contextlib.nullcontext())
        squaring = []   # the row dtype of each G in progress on this thread
        square = solver.dealiased_square

        def tracked(rows, *args):
            squaring.append(rows.dtype)
            try:
                return square(rows, *args)
            finally:
                squaring.pop()

        monkeypatch.setattr(solver, "dealiased_square", tracked)
        for name in ("ifftn", "ifft", "rfft"):
            def hooked(*args, transform=getattr(np.fft, name), **kwargs):
                if squaring:
                    pool.run_queued(inside=squaring[-1])
                return transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, hooked)
        self.test_bitwise_equal_to_per_node_loop(case)
        futures = [job[0] for job in pool.submitted]
        assert futures
        if worker_runs:
            # the nested runs happen inside G of the stack's rows: float64
            # exactly for the n >= 2 data whose coefficients are real
            cfg = ORACLE_CASES[case]()
            real = cfg.grid.n > 1 and not np.any(cfg.u0.coeffs.imag)
            assert set(pool.nested) == {np.dtype(np.float64 if real else np.complex128)}
            assert all(f.done() and not f.cancelled() for f in futures)
        else:
            assert all(f.cancelled() for f in futures)

    def test_sweeps_stay_in_float_range_at_the_edge(self, monkeypatch):
        # picard_solve admits a threshold of 5e75 for this config but not
        # 5e76 (its edge is 9.4e75). The crossing rows reach an H1 of 6e146,
        # yet no sweep overflows, inline or on the worker thread, under the
        # strictest error state, and the run keeps a plain run's bits
        with pytest.raises(DomainError, match="fails <= float max / 16"):
            picard_solve(_blowup_config(5e76, max_iter=40))
        cfg = _blowup_config(5e75, max_iter=40)
        for chunk_bytes in (solver._CHUNK_BYTES, 1):
            monkeypatch.setattr(solver, "_CHUNK_BYTES", chunk_bytes)
            plain = picard_solve(cfg)
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                strict = picard_solve(cfg)
            assert plain.overflow_at is not None
            assert np.array_equal(strict.h1_norms, plain.h1_norms)
            for f, p in zip(strict.fields, plain.fields, strict=True):
                assert f.coeffs.tobytes() == p.coeffs.tobytes()
            assert strict.picard_residuals == plain.picard_residuals
            assert strict.iterate_extrema == plain.iterate_extrema
            assert strict.overflow_at == plain.overflow_at

    def test_sweeps_stop_at_previous_crossing(self, monkeypatch):
        # a full sweep makes M recurrence steps; sweeps stopped at the
        # previous crossing make fewer
        calls = []
        step = solver.sweep_step

        def counted(*args):
            calls.append(None)
            return step(*args)

        monkeypatch.setattr(solver, "sweep_step", counted)
        for chunk_bytes in (solver._CHUNK_BYTES, 1):
            monkeypatch.setattr(solver, "_CHUNK_BYTES", chunk_bytes)
            cfg = ORACLE_CASES["blowup-threshold-1e6"]()
            calls.clear()
            traj = picard_solve(cfg)
            assert len(calls) < traj.iterations * cfg.n_steps

    def test_concurrent_pipelined_solves(self, monkeypatch):
        # four solves, each with its own worker, under a tiny switch interval:
        # a G read from or written to a row at the wrong time breaks equality
        monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
        cfg = ORACLE_CASES["grid-2d-N32"]()
        ref = reference_picard_solve(cfg)
        results = [None] * 4

        def solve(slot):
            results[slot] = picard_solve(cfg)

        threads = [threading.Thread(target=solve, args=(s,)) for s in range(4)]
        alive_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # every solve joined its worker before returning
        assert threading.active_count() == alive_before
        for got in results:
            assert got is not None
            assert len(got.fields) == len(ref.fields)
            assert np.array_equal(got.h1_norms, ref.h1_norms)
            assert got.picard_residuals == ref.picard_residuals
            for f, r in zip(got.fields, ref.fields):
                assert np.array_equal(f.coeffs, r.coeffs)

    def test_nonconvergence_residuals_match(self):
        g = grid1()
        cfg = make_config(g=g, coeff=bessel_coeff(C=20.0), gamma=0.0,
                          u0=random_nonneg_initial_field(g, 0.2, seed=1),
                          picard_tol=1e-12, picard_max_iter=3)
        with pytest.raises(NonConvergenceError) as got:
            picard_solve(cfg)
        with pytest.raises(NonConvergenceError) as ref:
            reference_picard_solve(cfg)
        assert np.array_equal(got.value.residuals, ref.value.residuals)


@pytest.mark.parametrize("case", sorted(name for name, make in ORACLE_CASES.items()
                                         if make().grid.n >= 2))
def test_real_transforms_reach_the_complex_fixed_point(case):
    # for n >= 2 a node is stored as its half spectrum, in float64 for real
    # coefficients, and G squares there; the design before it, with
    # full-lattice complex nodes and complex transforms, has the same fixed
    # point
    cfg = ORACLE_CASES[case]()
    got = picard_solve(cfg)
    old = reference_picard_solve(cfg, complex_g=True)
    assert got.converged == old.converged
    assert got.overflow_at == old.overflow_at
    assert len(got.h1_norms) == len(old.h1_norms)
    gap = np.abs(got.h1_norms - old.h1_norms).max() / old.h1_norms.max()
    assert gap <= cfg.picard_tol


# every converging ORACLE_CASES entry, and the blow-up proxy of perfbench
# and acceptance criterion 11
BACKWARD_CASES = dict(ORACLE_CASES)
BACKWARD_CASES.update({f"blowup-proxy-N{N}": (
    lambda N=N: _blowup_config(1e12, max_iter=150, N=N)) for N in (512, 1024)})


def _sweep_backward_error(cfg, traj):
    """How far one more unsaturated sweep of the Duhamel map moves the
    pre-crossing prefix of traj, in the sweep's sup-relative H1 metric. The
    sweep is the O(k) trapezoid recurrence, on the reference loop's G."""
    ref = oracles._SweepState(cfg)
    u0c = cfg.u0.coeffs
    half_dt = 0.5 * cfg.dt
    I = 0.0
    res = scale = 0.0
    for i in range(len(traj.fields) - (traj.overflow_at is not None)):
        u = ref.node(traj.fields[i].coeffs)
        g = ref.nonlinearity(u)
        if i:
            I = oracles.sweep_step(I, ref.decay_dt, g_last, g, half_dt)
        g_last = g
        new = ref.linear_part(u0c, cfg.times[i]) + I
        res = max(res, ref.h1_of(new - u))
        scale = max(scale, ref.h1_of(new))
    return res / scale


@pytest.mark.parametrize("case", sorted(BACKWARD_CASES))
def test_backward_error_within_picard_tol(case):
    # a property of the fixed point, not of the iteration path that reached
    # it: the proxy measures 6.6e-9 (N=512) and 8.1e-9 (N=1024) against 1e-8
    cfg = BACKWARD_CASES[case]()
    traj = picard_solve(cfg)
    assert traj.converged
    assert _sweep_backward_error(cfg, traj) <= cfg.picard_tol


# every ORACLE_CASES entry with nonnegative data (the white-noise entries
# sample signed noise), and the blow-up proxy at N=512
MONOTONE_CASES = {name: make for name, make in ORACLE_CASES.items()
                  if not name.startswith("white-noise")}
MONOTONE_CASES["blowup-proxy-N512"] = BACKWARD_CASES["blowup-proxy-N512"]


@pytest.mark.parametrize("case", sorted(MONOTONE_CASES))
def test_picard_rises_and_its_crossing_never_moves_later(case):
    # ROADMAP item 19: on nonnegative data, Picard from the linear part rises
    # coefficientwise toward the least fixed point. Before its crossing each
    # sweep's step is nonnegative up to rounding (-8.8e-16 of the row's
    # largest coefficient at worst), and a crossing, once found, never moves
    # later or vanishes; so a sweep stopped at the previous crossing finds a
    # crossing again. Checked on the full sweeps of the reference loop
    cfg = MONOTONE_CASES[case]()
    c = cfg.u0.coeffs
    assert np.all(c.real >= 0) and np.all(c.imag == 0)
    crossings = []

    def on_sweep(new, prev, new_cross):
        for i in range(len(new) if new_cross is None else new_cross):
            step = (new[i] - prev[i]).real
            assert step.min() >= -1e-12 * np.abs(new[i]).max()
        if crossings and crossings[-1] is not None:
            assert new_cross is not None and new_cross <= crossings[-1]
        crossings.append(new_cross)

    traj = reference_picard_solve(cfg, on_sweep=on_sweep)
    assert len(crossings) == traj.iterations


def _traced_peak(cfg):
    tracemalloc.start()
    try:
        picard_solve(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_node_stacks_hold_the_band_only():
    # a 128^2 node is 256 KiB, one node per sweep chunk. The datum is real,
    # so the run's node stack holds each node as the float64 half band,
    # 85 x 43 of its 128^2 coefficients; off it each iterate is the
    # recurrence's decayed u0, +0 wherever u0 is, and nothing is kept. The
    # full-lattice rows it works in stay a bounded few. The peak reads 8.6
    # full nodes against a bound of 9.9; 16-byte entries would add 2.4 full
    # nodes to a stack of half bands and 7 to one of full bands (complex
    # full bands read 19.8)
    g = GridSpec(2, 16 * np.pi, 128)
    cfg = make_config(g=g, coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.125,
                      dt=1.0 / 128.0, u0=random_nonneg_initial_field(g, 0.3, seed=4))
    full_node = 16 * g.N ** 2
    band_node = 8 * (2 * (g.N // 3) + 1) * (g.N // 3 + 1)
    peak = _traced_peak(cfg)
    assert peak < (cfg.n_steps + 1) * band_node + 8 * full_node


@pytest.mark.parametrize("u0", ["omega", "random", "zero"])
@pytest.mark.parametrize("n", [2, 3])
def test_cli_data_are_stored_as_float64(n, u0):
    # every CLI datum is an even real field, so for n >= 2 its nodes are
    # float64 half bands, which dealiased_square squares by the even-field
    # transforms; complex rows would take the Hermitian-only path
    cfg = cli.build_problem({"n": n, "N": 64, "u0": u0, "T0": 1.0 / 256.0})
    assert picard_solve(cfg).fields.stack.dtype == np.float64


def test_run_holds_one_node_stack():
    # two runs that differ only in their node count: the extra peak per
    # extra node is one stored node (the iterate) and nothing else; off the
    # stored entries each iterate is the recurrence's decayed u0
    g = grid1()
    u0 = omega_initial_field(g, 0.1)
    cfgs = [make_config(g=g, coeff=bessel_coeff(C=1.0, rho=1.0), gamma=0.0,
                        u0=u0, T0=0.0625, dt=dt)
            for dt in (2.0 ** -14, 2.0 ** -15)]
    node_bytes = 16 * BandLayout(g, u0.coeffs != 0).size
    small, large = (_traced_peak(cfg) for cfg in cfgs)
    extra_nodes = cfgs[1].n_steps - cfgs[0].n_steps
    assert (large - small) / (extra_nodes * node_bytes) <= 1.05


def test_memory_guard_counts_one_stack():
    # the guard only compares numbers, so nothing of this size is allocated:
    # a stack of 0.75 of physical memory fits, one of 1.5 does not
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert solver._require_stack_fits(2, int(0.375 * have)) is None
    with pytest.raises(DomainError, match="physical memory"):
        solver._require_stack_fits(2, int(0.75 * have))


class TestBudget:
    def test_zero_datum(self):
        g = grid1()
        cfg = make_config(g=g, u0=SpectralField.zero(g), coeff=bessel_coeff(),
                          gamma=0.0)
        b = existence_budget(cfg)
        assert b.delta == 0.0 and b.contraction_ok and b.T0_max == np.inf

    def test_case_one_exponent(self):
        # alpha=2, gamma=0: C_B proportional to sqrt(T0)
        b1 = existence_budget(make_config(coeff=bessel_coeff(), gamma=0.0, T0=0.1))
        b2 = existence_budget(make_config(coeff=bessel_coeff(), gamma=0.0, T0=0.4))
        assert b2.C_B / b1.C_B == pytest.approx(2.0, rel=1e-12)
        assert b1.exponent == pytest.approx(0.5)

    def test_doubling_b_rescales_horizon(self):
        cfg1 = make_config(coeff=bessel_coeff(C=1.0), gamma=0.0)
        cfg2 = make_config(coeff=bessel_coeff(C=2.0), gamma=0.0)
        b1 = existence_budget(cfg1)
        b2 = existence_budget(cfg2)
        e = b1.exponent
        assert b2.T0_max / b1.T0_max == pytest.approx(2.0 ** (-1.0 / e), rel=1e-12)

    def test_case_two_uses_positive_order(self):
        coeff = bessel_coeff(C=1.0, rho=2.0)
        cfg = make_config(coeff=coeff, alpha=0.8, gamma=0.5)
        b = existence_budget(cfg)
        assert b.case == 2
        assert b.exponent == pytest.approx(1.0 - 0.5 / 0.8)

    def test_gamma_out_of_both_cases(self):
        # rejected at config construction, quoting the inequality
        with pytest.raises(DomainError, match="gamma < alpha - 1"):
            make_config(gamma=1.5)
        with pytest.raises(DomainError, match="1 - alpha < gamma"):
            make_config(alpha=0.8, gamma=0.1, coeff=bessel_coeff())

    # (alpha, gamma, admissible, admissible for blow-up) at gamma = alpha - 1,
    # 0 and 1 - alpha in each case (dyadic values: the boundaries are exact)
    @pytest.mark.parametrize("alpha, gamma, ok, ok_blowup", [
        (1.5, 0.5, False, False), (1.5, 0.0, True, True), (1.5, -0.5, False, False),
        (0.75, -0.25, False, False), (0.75, 0.0, False, False),
        (0.75, 0.25, False, True)])
    def test_gamma_boundaries_agree_across_validators(self, alpha, gamma, ok,
                                                      ok_blowup):
        coeff = bessel_coeff()
        _, message = gamma_case(alpha, gamma)
        assert (message is None) == ok
        assert (gamma_case(alpha, gamma, for_blowup=True)[1] is None) == ok_blowup
        inside = 0.25 if alpha > 1 else 0.5
        cfg = make_config(coeff=coeff, alpha=alpha, gamma=inside)
        cfg.gamma = gamma
        if ok:
            make_config(coeff=coeff, alpha=alpha, gamma=gamma)
            existence_budget(cfg)
        else:
            with pytest.raises(DomainError) as built:
                make_config(coeff=coeff, alpha=alpha, gamma=gamma)
            with pytest.raises(DomainError) as budget:
                existence_budget(cfg)
            assert str(built.value) == str(budget.value) == message


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["omega", "random", "complex"])
def test_h1_routines_agree_bitwise(n, kind):
    g = GridSpec(n, L1D, 64 if n == 1 else 32)
    if kind == "omega":
        f = omega_initial_field(g, 3.0)
    elif kind == "random":
        f = random_nonneg_initial_field(g, 0.7, seed=11)
    else:
        rng = np.random.default_rng(12)
        f = SpectralField(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    rows = _weighted_norm(h1_weight(g), f.coeffs[None])
    assert rows.shape == (1,)
    assert h1_norm(f) == rows[0]


def test_h1_dot_is_the_homogeneous_norm_of_the_fields():
    # picard_solve sums h1_dot over the stored entries, counting one that
    # stands for its mirror too twice; the full-lattice sum over each
    # field agrees to rounding, and the homogeneous norm is at most H1
    for case in ("white-noise-1d", "omega-2d-N40", "white-noise-2d", "white-noise-3d"):
        cfg = ORACLE_CASES[case]()
        g = cfg.grid
        traj = picard_solve(cfg)
        full = [_weighted_norm(g.xi_norm_sq, f.coeffs, scale=g.L ** g.n)
                for f in traj.fields]
        assert np.allclose(traj.h1_dot_norms, full, rtol=1e-14, atol=0)
        assert np.all(traj.h1_dot_norms <= traj.h1_norms)


def test_trajectory_csv_text(tmp_path):
    g = grid1(8)
    fields = [SpectralField(g, np.full(g.shape, c, dtype=np.complex128))
              for c in (0.1, 1e-300, np.inf)]
    traj = Trajectory(times=np.array([0.0, 0.1, 0.2]), fields=fields,
                      h1_norms=np.array([-0.0, np.nan, 1e-300]),
                      h1_dot_norms=np.array([np.inf, 0.1, 3.0]),
                      max_abs_coeffs=np.array([0.1, 1e-300, np.inf]), overflow_at=0.2,
                      picard_residuals=[], iterations=7, converged=True,
                      iterate_extrema=(0.0, 0.0))
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    rows = ["0.0,-0.0,inf,0.1", "0.1,nan,0.1,1e-300", "0.2,1e-300,3.0,inf"]
    assert rows == [",".join(repr(float(v)) for v in r)
                    for r in zip(traj.times, traj.h1_norms, traj.h1_dot_norms,
                                 traj.max_abs_coeffs)]
    assert path.read_text().splitlines() == [
        "# trajectory: t (time units), discrete H1 and homogeneous H1 norms "
        "(field units), max |coefficient|",
        "# overflow_at=0.2 iterations=7 converged=1",
        "t,h1,h1_dot,max_abs_coeff"] + rows
