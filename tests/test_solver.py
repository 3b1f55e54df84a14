import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fraclap import solver
from fraclap import (CoefficientSpec, DomainError, GridSpec,
                     NonConvergenceError, ProblemConfig, SpectralField,
                     Trajectory, check_admissibility, duhamel_step, existence_budget,
                     forward_transform, h1_dot_norm, h1_norm, omega_initial_field,
                     picard_solve, random_nonneg_initial_field, semigroup_apply,
                     sobolev_norms)
from oracles import reference_picard_solve

L1D = 16 * np.pi


def grid1(N=128):
    return GridSpec(1, L1D, N)


def zero_coeff(n=1, alpha=2.0, gamma=0.9):
    return CoefficientSpec(kind="dirac", C=0.0, n=n, alpha=alpha, gamma=gamma)


def bessel_coeff(C=1.0, rho=2.0, gamma=0.0, n=1, alpha=2.0):
    return CoefficientSpec(kind="bessel_symbol", C=C, rho=rho, n=n,
                           alpha=alpha, gamma=gamma)


def make_config(g=None, coeff=None, u0=None, alpha=2.0, gamma=0.9, T0=0.25,
                dt=1.0 / 128.0, **kw):
    g = g or grid1()
    return ProblemConfig(
        grid=g, alpha=alpha, gamma=gamma,
        coefficient=coeff or zero_coeff(alpha=alpha, gamma=gamma),
        u0=u0 if u0 is not None else random_nonneg_initial_field(g, 0.5, seed=0),
        T0=T0, dt=dt, **kw)


class TestInitialData:
    def test_omega_field_hat_values(self):
        g = grid1(512)
        f = omega_initial_field(g, 128.0)
        hat = f.hat_values().real
        xi = g.xi_axes[0]
        inside = np.abs(xi - 1.5) < 0.5
        assert np.all(hat[inside] == pytest.approx(128.0))
        assert f.is_real and f.check_hermitian()
        # one-sided variant dominates from below
        one = omega_initial_field(g, 128.0, symmetrize=False)
        assert np.all(hat >= one.hat_values().real - 1e-12)

    def test_random_field_nonneg_hermitian(self):
        f = random_nonneg_initial_field(grid1(), 0.7, seed=5)
        assert f.coeffs.real.min() >= 0
        assert f.check_hermitian()
        assert h1_norm(f) == pytest.approx(0.7, rel=1e-12)

    def test_config_validation(self):
        g = grid1()
        with pytest.raises(DomainError):
            make_config(T0=-1.0)
        with pytest.raises(DomainError):
            make_config(dt=1.0)  # dt > T0
        c = np.zeros(g.shape, dtype=complex)
        c[1] = 1.0  # not Hermitian
        with pytest.raises(DomainError):
            make_config(u0=SpectralField(g, c, is_real=False))

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
    def test_zero_coefficient_is_pure_semigroup(self):
        cfg = make_config()
        traj = picard_solve(cfg)
        out = duhamel_step(traj, 0.125, cfg)
        exact = semigroup_apply(cfg.u0, 0.125, cfg.alpha)
        assert np.abs(out.coeffs - exact.coeffs).max() <= 1e-12

    def test_zero_history_gives_semigroup_term(self):
        cfg = make_config(coeff=bessel_coeff(), gamma=0.0)
        # b = 0 run, then a zero history in place of its fields (a solve's
        # fields are built on each read, so zeroing one in place does nothing)
        traj = picard_solve(make_config())
        traj.fields = [SpectralField.zero(cfg.grid) for _ in traj.fields]
        out = duhamel_step(traj, 0.125, cfg)
        exact = semigroup_apply(cfg.u0, 0.125, cfg.alpha)
        assert np.abs(out.coeffs - exact.coeffs).max() <= 1e-12

    def test_zero_datum_stays_zero(self):
        g = grid1()
        cfg = make_config(g=g, u0=SpectralField.zero(g), coeff=bessel_coeff(),
                          gamma=0.0)
        traj = picard_solve(cfg)
        out = duhamel_step(traj, 0.25, cfg)
        assert np.abs(out.coeffs).max() == 0.0

    def test_off_lattice_time_rejected(self):
        cfg = make_config()
        traj = picard_solve(cfg)
        with pytest.raises(DomainError):
            duhamel_step(traj, 0.0001, cfg)

    def test_history_gap_rejected(self):
        cfg = make_config()
        traj = picard_solve(cfg)
        short = type(traj)(times=traj.times[:3], fields=traj.fields[:3],
                           h1_norms=traj.h1_norms[:3],
                           h1_dot_norms=traj.h1_dot_norms[:3],
                           overflow_at=None, picard_residuals=[])
        with pytest.raises(DomainError):
            duhamel_step(short, 0.25, cfg)

    def test_matches_solver_recurrence(self):
        # the trajectory is one Picard application behind duhamel_step, so
        # compare at a tight fixed-point tolerance
        cfg = make_config(coeff=bessel_coeff(C=5.0), gamma=0.0, T0=0.125,
                          dt=1.0 / 256.0, picard_tol=1e-13)
        traj = picard_solve(cfg)
        for t in (cfg.dt * 8, 0.0625, 0.125):
            i = int(round(t / cfg.dt))
            direct = duhamel_step(traj, t, cfg)
            scale = np.abs(traj.fields[i].coeffs).max()
            assert np.abs(direct.coeffs - traj.fields[i].coeffs).max() <= 1e-9 * scale


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
        min_re, max_re, _ = traj.iterate_extrema
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
        coeff = CoefficientSpec(kind="dirac", C=2048.0, n=1, alpha=2.0, gamma=0.9)
        cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                            u0=omega_initial_field(g, 128.0), T0=1e-6, dt=5e-9,
                            picard_max_iter=120, overflow_threshold=1e6)
        traj = picard_solve(cfg)
        assert traj.overflow_at is not None
        assert traj.fields[-1].overflowed
        assert traj.h1_norms[-1] > 1e6
        assert np.all(traj.h1_norms[:-1] <= 1e6)
        fin = traj.h1_dot_norms[np.isfinite(traj.h1_dot_norms)]
        assert np.all(np.diff(fin) >= 0)

    def test_overflow_propagates_through_duhamel_step(self):
        g = grid1(256)
        coeff = CoefficientSpec(kind="dirac", C=2048.0, n=1, alpha=2.0, gamma=0.9)
        cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                            u0=omega_initial_field(g, 128.0), T0=1e-6, dt=5e-9,
                            picard_max_iter=120, overflow_threshold=1e6)
        traj = picard_solve(cfg)
        out = duhamel_step(traj, traj.overflow_at, cfg)
        assert out.overflowed

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


def _blowup_config(overflow_threshold=1e6, max_iter=120):
    g = grid1(256)
    coeff = CoefficientSpec(kind="dirac", C=2048.0, n=1, alpha=2.0, gamma=0.9)
    return ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                         u0=omega_initial_field(g, 128.0), T0=1e-6, dt=5e-9,
                         picard_max_iter=max_iter, overflow_threshold=overflow_threshold)


def _config_2d():
    g = GridSpec(2, 16 * np.pi, 32)
    coeff = bessel_coeff(C=5.0, n=2)
    return make_config(g=g, coeff=coeff, gamma=0.0, T0=0.125, dt=1.0 / 128.0,
                       u0=random_nonneg_initial_field(g, 0.3, seed=4),
                       picard_tol=1e-12)


def _config_modulated():
    coeff = CoefficientSpec(kind="bessel_symbol", C=20.0, rho=2.0, n=1, alpha=2.0,
                            gamma=0.0, time_modulation=lambda t: 1.0 / (1.0 + 4.0 * t))
    return make_config(coeff=coeff, gamma=0.0, picard_tol=1e-12,
                       u0=random_nonneg_initial_field(grid1(), 0.2, seed=9))


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


_CHUNK_512 = solver._CHUNK_BYTES // (16 * 512)   # nodes per sweep chunk at N=512

ORACLE_CASES = {
    "contraction-1d": lambda: make_config(
        coeff=bessel_coeff(C=1.0), gamma=0.0, T0=0.25, dt=1.0 / 256.0,
        picard_tol=1e-14, u0=random_nonneg_initial_field(grid1(), 0.02, seed=3)),
    "blowup-threshold-1e6": _blowup_config,
    # iterates overflow to inf past the crossing: the G = 0 rows
    "nonfinite-rows": lambda: _blowup_config(1e300, max_iter=40),
    "grid-2d-N32": _config_2d,
    "time-modulated": _config_modulated,
    "nodes-below-chunk": lambda: _config_nodes(_CHUNK_512 // 2),
    "nodes-equal-chunk": lambda: _config_nodes(_CHUNK_512),
    "nodes-two-chunks": lambda: _config_nodes(2 * _CHUNK_512),
    "nodes-not-multiple": lambda: _config_nodes(2 * _CHUNK_512 + 1),
    "white-noise-1d": _config_white_noise,
}


class TestChunkedSweepOracle:
    """picard_solve batches each sweep over chunks of the node stack; it must
    reproduce the per-node reference loop bit for bit."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bitwise_equal_to_per_node_loop(self, case):
        cfg = ORACLE_CASES[case]()
        got = picard_solve(cfg)
        ref = reference_picard_solve(cfg)
        assert np.array_equal(got.h1_norms, ref.h1_norms)
        assert np.array_equal(got.h1_dot_norms, ref.h1_dot_norms, equal_nan=True)
        assert len(got.fields) == len(ref.fields)
        for f, r in zip(got.fields, ref.fields):
            assert np.array_equal(f.coeffs, r.coeffs, equal_nan=True)
            assert f.overflowed == r.overflowed
        assert np.array_equal(got.picard_residuals, ref.picard_residuals)
        assert np.array_equal(got.iterate_extrema, ref.iterate_extrema)
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert got.overflow_at == ref.overflow_at

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_pipelined_sweep_bitwise_equal(self, case, monkeypatch):
        # a one-byte budget puts one node in every chunk, which computes G of
        # the next chunk on the worker thread while the recurrence runs
        monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
        self.test_bitwise_equal_to_per_node_loop(case)

    def test_errstate_applies_on_the_worker(self, monkeypatch):
        # np.errstate lives in a context variable, which a new thread does
        # not inherit: G on the worker must raise where inline G does
        cfg = ORACLE_CASES["nonfinite-rows"]()
        raised = []
        for chunk_bytes in (solver._CHUNK_BYTES, 1):
            monkeypatch.setattr(solver, "_CHUNK_BYTES", chunk_bytes)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError) as exc:
                picard_solve(cfg)
            raised.append((str(exc.value), exc.traceback[-1].name))
        assert raised[0] == raised[1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_sweeps_stop_at_previous_crossing(self, monkeypatch):
        # a full sweep makes M recurrence steps. Sweeps stopped at the previous
        # crossing make fewer; nonfinite-rows loses its crossing at one sweep,
        # so the run restarts with full sweeps and makes more
        calls = []
        step = solver.sweep_step

        def counted(*args):
            calls.append(None)
            return step(*args)

        monkeypatch.setattr(solver, "sweep_step", counted)
        for chunk_bytes in (solver._CHUNK_BYTES, 1):
            monkeypatch.setattr(solver, "_CHUNK_BYTES", chunk_bytes)
            for case, fewer in (("blowup-threshold-1e6", True), ("nonfinite-rows", False)):
                cfg = ORACLE_CASES[case]()
                calls.clear()
                traj = picard_solve(cfg)
                full = traj.iterations * cfg.n_steps
                assert (len(calls) < full) if fewer else (len(calls) > full)

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


def test_node_stacks_hold_the_band_only():
    # a 128^2 node is 256 KiB, one node per sweep chunk: the run's two node
    # stacks hold 85^2 of each node's 128^2 coefficients, and the full-lattice
    # rows it works in stay a bounded few
    g = GridSpec(2, 16 * np.pi, 128)
    cfg = make_config(g=g, coeff=bessel_coeff(C=5.0, n=2), gamma=0.0, T0=0.125,
                      dt=1.0 / 128.0, u0=random_nonneg_initial_field(g, 0.3, seed=4))
    full_node = 16 * g.N ** 2
    band_node = 16 * (2 * (g.N // 3) + 1) ** 2
    tracemalloc.start()
    try:
        picard_solve(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (cfg.n_steps + 1) * band_node + 16 * full_node


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
        coeff = bessel_coeff(C=1.0, rho=2.0, gamma=0.5, alpha=0.8)
        cfg = make_config(coeff=coeff, alpha=0.8, gamma=0.5)
        b = existence_budget(cfg)
        assert b.case == 2
        assert b.exponent == pytest.approx(1.0 - 0.5 / 0.8)

    def test_gamma_out_of_both_cases(self):
        # rejected at config construction, quoting the inequality
        with pytest.raises(DomainError, match="gamma < alpha - 1"):
            make_config(gamma=1.5)
        with pytest.raises(DomainError, match="1 - alpha < gamma"):
            make_config(alpha=0.8, gamma=0.1,
                        coeff=bessel_coeff(alpha=0.8, gamma=0.1))

    # (alpha, gamma, admissible, admissible for blow-up) at gamma = alpha - 1,
    # 0 and 1 - alpha in each case (dyadic values: the boundaries are exact)
    @pytest.mark.parametrize("alpha, gamma, ok, ok_blowup", [
        (1.5, 0.5, False, False), (1.5, 0.0, True, True), (1.5, -0.5, False, False),
        (0.75, -0.25, False, False), (0.75, 0.0, False, False),
        (0.75, 0.25, False, True)])
    def test_gamma_boundaries_agree_across_validators(self, alpha, gamma, ok,
                                                      ok_blowup):
        coeff = bessel_coeff(alpha=alpha, gamma=gamma)
        rep = check_admissibility(coeff)
        assert rep.sobolev_ok == ok
        assert check_admissibility(coeff, for_blowup=True).sobolev_ok == ok_blowup
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
            assert str(built.value) == str(budget.value) == rep.messages[0]


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
    cfg = make_config(g=g, coeff=zero_coeff(n=n), u0=omega_initial_field(g, 1.0))
    rows = solver._SweepState(cfg).h1_rows(f.coeffs[None])
    assert rows.shape == (1,)
    assert h1_norm(f) == sobolev_norms(f).hs[1.0] == rows[0]


def test_trajectory_csv_text(tmp_path):
    g = grid1(8)
    fields = [SpectralField(g, np.full(g.shape, c, dtype=np.complex128))
              for c in (0.1, 1e-300, np.inf)]
    traj = Trajectory(times=np.array([0.0, 0.1, 0.2]), fields=fields,
                      h1_norms=np.array([-0.0, np.nan, 1e-300]),
                      h1_dot_norms=np.array([np.inf, 0.1, 3.0]), overflow_at=0.2,
                      picard_residuals=[], iterations=7, converged=True)
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    rows = ["0.0,-0.0,inf,0.1", "0.1,nan,0.1,1e-300", "0.2,1e-300,3.0,inf"]
    assert rows == [",".join(repr(float(v)) for v in r)
                    for r in zip(traj.times, traj.h1_norms, traj.h1_dot_norms,
                                 traj.max_abs_coeff())]
    assert path.read_text().splitlines() == [
        "# trajectory: t (time units), discrete H1 and homogeneous H1 norms "
        "(field units), max |coefficient|",
        "# overflow_at=0.2 iterations=7 converged=1",
        "t,h1,h1_dot,max_abs_coeff"] + rows
