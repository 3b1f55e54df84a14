"""Acceptance criteria, one test per criterion, run at the stated tolerances.

Each test prints a single `ACCEPTANCE <k>: PASS ...` line on success (pytest
shows it with `-s`; a failure shows up as the test failing). Runtime budgets
are asserted with the criterion's stated limit.
"""

import math
import time

import numpy as np
import pytest

from fraclap import (CertificateParams, CoefficientSpec, GridSpec,
                     ProblemConfig, blowup_constants, build_omega_sequence,
                     c1_threshold, certify, default_certificate_grid,
                     default_k_max, divergence_partial_sums,
                     forward_transform, kernel_l1_report, kernel_samples,
                     omega_initial_field, picard_solve,
                     random_nonneg_initial_field, semigroup_apply,
                     verify_induction_chain, existence_budget)
from fraclap.cli import build_certificate_params
from oracles import out_corona_mass_rel

LN2 = math.log(2.0)
DEFAULT_1D = GridSpec(1, 16 * np.pi, 512)


class Timed:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(k, timer, detail):
    print(f"ACCEPTANCE {k}: PASS ({timer.elapsed:.2f}s <= {timer.budget:.0f}s) {detail}")
    assert timer.elapsed <= timer.budget


@pytest.fixture(scope="module")
def omega_levels():
    """Bump hierarchies at the certificate defaults and their refinements,
    as (level, window) pairs."""
    out = {}
    for n, k_max in ((1, 3), (2, 2)):
        g = default_certificate_grid(n)
        out[n] = build_omega_sequence(k_max, g)
        out[(n, "refined")] = build_omega_sequence(k_max, g.refined())
    return out


def test_criterion_1_kernel_mass():
    with Timed(5.0) as timer:
        worst = 0.0
        for alpha in (0.8, 1.0, 1.5, 2.0):
            for t in (0.25, 1.0, 4.0):
                samples = kernel_samples(t, alpha, DEFAULT_1D)
                mass = np.abs(samples).sum() * DEFAULT_1D.dx
                worst = max(worst, abs(mass - 1.0))
        assert worst <= 1e-6
    report(1, timer, f"kernel unit mass, worst |mass-1| = {worst:.2e}")


def test_criterion_2_homogeneity():
    with Timed(10.0) as timer:
        spreads = {}
        for alpha, s in ((1.0, 0.5), (2.0, 1.0), (1.5, 0.5)):
            rep = kernel_l1_report(s, alpha, [0.5, 1.0, 2.0])
            spreads[(alpha, s)] = rep.ratio_spread()
            assert rep.ratio_spread() <= 0.02
    worst = max(spreads.values())
    report(2, timer, f"scaling-law ratio constancy, worst spread = {worst:.2%}")


def test_criterion_3_bump_mass_identity(omega_levels):
    with Timed(30.0) as timer:
        worst = 0.0
        for n in (1, 2):
            for (lev, _), (fine, _) in zip(omega_levels[n], omega_levels[(n, "refined")]):
                assert lev.l1_error <= 0.01, (n, lev.k, lev.l1_error)
                assert fine.l1_error < lev.l1_error, (n, lev.k)
                worst = max(worst, lev.l1_error)
    report(3, timer, f"L1 identity (v_n/2^n)^(2^k), worst rel err = {worst:.2%}, "
                     "strictly smaller after refinement")


def test_criterion_4_corona_support(omega_levels):
    with Timed(30.0) as timer:
        worst = 0.0
        for n in (1, 2):
            for lev, win in omega_levels[n]:
                out_corona = out_corona_mass_rel(win, lev.k)
                assert out_corona <= 1e-10, (n, lev.k)
                worst = max(worst, out_corona)
    report(4, timer, f"out-of-corona mass, worst rel = {worst:.2e}")


def test_criterion_5_constant_identity():
    with Timed(1.0) as timer:
        worst = 0.0
        for n in (1, 2, 3):
            for alpha in (0.8, 1.0, 1.5, 2.0):
                p = CertificateParams(n=n, alpha=alpha, gamma=0.5, rho=0.0,
                                      C1=2.0 ** 60, A=2.0 ** (6 + n))
                ratio = blowup_constants(p)
                worst = max(worst, abs(ratio - 1.0))
        assert worst <= 1e-14
    report(5, timer, f"unit-ratio identity at A = A_min, worst |ratio-1| = {worst:.1e}")


def test_criterion_6_induction_chain(omega_levels):
    with Timed(60.0) as timer:
        p = CertificateParams(n=1, alpha=2.0, gamma=0.9, rho=0.0,
                              C1=2048.0, A=128.0)
        assert p.t_star == pytest.approx(0.1733, abs=5e-5)
        records = verify_induction_chain([lev for lev, _ in omega_levels[1]], p)
        for rec in records:
            assert rec.all_ok, rec
        margins = [r.induction_margin_log2 for r in records[1:]]
    report(6, timer, f"induction chain k<=3 at t_star, log2 margins = "
                     f"{[round(m, 6) for m in margins]}")


def test_criterion_7_series_divergence():
    with Timed(1.0) as timer:
        p = CertificateParams(n=1, alpha=2.0, gamma=0.9, rho=0.0,
                              C1=2048.0, A=128.0)
        sums = divergence_partial_sums(p, 12)
        log2_sums = [s / LN2 for s in sums]
        assert all(b > a for a, b in zip(log2_sums, log2_sums[1:]))
        # the doubling component dominates: log2 S_K >= 2^K throughout
        for K, v in enumerate(log2_sums, start=1):
            assert v >= 2.0 ** K, (K, v)
    report(7, timer, f"series growth, log2 S_12 = {log2_sums[-1]:.0f} >= 2^12")


def test_criterion_8_positivity():
    with Timed(120.0) as timer:
        g = GridSpec(1, 16 * np.pi, 128)
        worst = 0.0
        for seed in range(5):
            for coeff, gamma in (
                (CoefficientSpec(kind="dirac", C=1.0), 0.9),
                (CoefficientSpec(kind="bessel_symbol", C=1.0, rho=2.0), 0.0),
            ):
                cfg = ProblemConfig(
                    grid=g, alpha=2.0, gamma=gamma, coefficient=coeff,
                    u0=random_nonneg_initial_field(g, 0.3, seed=seed),
                    T0=0.1, dt=1.0 / 256.0, picard_tol=1e-12)
                traj = picard_solve(cfg)
                min_re, max_re = traj.iterate_extrema
                assert min_re >= -1e-12 * max_re, (seed, coeff.kind, min_re, max_re)
                worst = min(worst, min_re / max_re)
                for fld in traj.fields:   # per-time, on the converged run
                    c = fld.coeffs.real
                    assert c.min() >= -1e-12 * c.max()
    report(8, timer, f"coefficient positivity over 10 runs, worst min/max = {worst:.1e}")


def test_criterion_9_linear_exactness():
    with Timed(30.0) as timer:
        g = GridSpec(1, 16 * np.pi, 256)
        zero = CoefficientSpec(kind="dirac", C=0.0)
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(5):
            u0 = forward_transform(rng.standard_normal(g.shape), g)
            cfg = ProblemConfig(grid=g, alpha=1.5, gamma=0.4, coefficient=zero,
                                u0=u0, T0=0.5, dt=1.0 / 128.0)
            traj = picard_solve(cfg)
            for i, t in enumerate(traj.times):
                exact = semigroup_apply(u0, t, 1.5)
                err = np.abs(traj.fields[i].coeffs - exact.coeffs).max()
                worst = max(worst, err)
        assert worst <= 1e-10
    report(9, timer, f"zero-coefficient trajectories match the semigroup, "
                     f"worst err = {worst:.1e}")


def test_criterion_10_contraction():
    with Timed(120.0) as timer:
        g = GridSpec(1, 16 * np.pi, 128)
        coeff = CoefficientSpec(kind="bessel_symbol", C=1.0, rho=2.0)
        probe = ProblemConfig(grid=g, alpha=2.0, gamma=0.0, coefficient=coeff,
                              u0=random_nonneg_initial_field(g, 1.0, seed=21),
                              T0=0.25, dt=1.0 / 256.0)
        budget = existence_budget(probe)
        delta = 0.3 / (4.0 * budget.C_B)   # pin 4 C_B delta = 0.3 <= 0.5
        cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.0, coefficient=coeff,
                            u0=random_nonneg_initial_field(g, delta, seed=21),
                            T0=0.25, dt=1.0 / 256.0, picard_tol=1e-14,
                            picard_max_iter=40)
        b = existence_budget(cfg)
        assert 4.0 * b.C_B * b.delta <= 0.5
        traj = picard_solve(cfg)
        res = np.array(traj.picard_residuals)
        res = res[res > 1e-14 * b.delta]
        assert len(res) >= 3
        assert np.all(np.diff(res) < 0)
        ratios = res[1:] / res[:-1]
        assert ratios.max() <= 0.6
    report(10, timer, f"picard contraction at 4*C_B*delta = "
                      f"{4 * b.C_B * b.delta:.2f}, worst ratio = {ratios.max():.3f}")


def test_criterion_11_blowup_proxy():
    with Timed(300.0) as timer:
        coeff = CoefficientSpec(kind="dirac", C=2048.0)
        crossings = {}
        for N in (512, 1024):
            g = GridSpec(1, 16 * np.pi, N)
            cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                                u0=omega_initial_field(g, 128.0),
                                T0=1e-6, dt=5e-9, picard_tol=1e-8,
                                picard_max_iter=150)
            traj = picard_solve(cfg)
            assert traj.overflow_at is not None
            fin = traj.h1_dot_norms[np.isfinite(traj.h1_dot_norms)]
            assert np.all(np.diff(fin) >= 0)
            assert traj.h1_dot_norms[-1] > 1e12 or traj.h1_norms[-1] > 1e12
            crossings[N] = traj.overflow_at
        gap = abs(crossings[1024] - crossings[512]) / crossings[512]
        assert gap <= 0.20
    report(11, timer, f"numerical blow-up at t = {crossings[512]:.3e} (N=512) "
                      f"vs {crossings[1024]:.3e} (N=1024), gap = {gap:.1%}")


def test_criterion_11_blowup_proxy_dt_refinement():
    with Timed(300.0) as timer:
        coeff = CoefficientSpec(kind="dirac", C=2048.0)
        g = GridSpec(1, 16 * np.pi, 512)
        crossings = {}
        for dt in (5e-9, 2.5e-9):
            cfg = ProblemConfig(grid=g, alpha=2.0, gamma=0.9, coefficient=coeff,
                                u0=omega_initial_field(g, 128.0),
                                T0=1e-6, dt=dt, picard_tol=1e-8,
                                picard_max_iter=150)
            traj = picard_solve(cfg)
            assert traj.overflow_at is not None
            crossings[dt] = len(traj.times) - 1
        # crossing node indices, compared on the fine lattice: the two times
        # differ by at most one coarse step
        assert abs(crossings[2.5e-9] - 2 * crossings[5e-9]) <= 2
    report(11, timer, f"numerical blow-up at t = {crossings[5e-9] * 5e-9:.3e} "
                      f"(dt=5e-9) vs {crossings[2.5e-9] * 2.5e-9:.3e} (dt=2.5e-9)")


def test_criterion_12a_certified_configuration_crosses_before_t_star():
    with Timed(300.0) as timer:
        # the configuration a bare `certify n=1` certifies: C1 and A at their
        # floors, gamma = 0.9 at alpha = 2, rho = 0
        p = build_certificate_params({"n": 1})
        assert (p.alpha, p.gamma, p.rho) == (2.0, 0.9, 0.0)
        assert p.C1 == c1_threshold(1, 2.0, 0.0) == 2048.0
        assert p.A == p.A_min == 128.0
        cert_report = certify(p, default_certificate_grid(1), default_k_max(1), 12)
        assert cert_report.verdict == "certified-divergent", cert_report.messages
        # the blow-up proxy of criterion 11 is that configuration: C = C1 and
        # u0_amplitude = A
        coeff = CoefficientSpec(kind="dirac", C=p.C1)
        crossings = {}
        for N in (512, 1024):
            g = GridSpec(1, 16 * np.pi, N)
            cfg = ProblemConfig(grid=g, alpha=p.alpha, gamma=p.gamma, coefficient=coeff,
                                u0=omega_initial_field(g, p.A),
                                T0=1e-6, dt=5e-9, picard_tol=1e-8,
                                picard_max_iter=150)
            traj = picard_solve(cfg)
            assert traj.converged and traj.overflow_at is not None, N
            assert traj.overflow_at < p.t_star, (N, traj.overflow_at)
            crossings[N] = traj.overflow_at
    report("12(a)", timer, f"certified n=1 configuration (C1 = {p.C1:g}, A = {p.A:g}) "
                           f"crosses at t = {crossings[512]:.3e} (N=512), "
                           f"{crossings[1024]:.3e} (N=1024), before t_star = {p.t_star:.4f}")
