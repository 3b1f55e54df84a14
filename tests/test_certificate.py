import math

import numpy as np
import pytest

from fraclap import (CertificateParams, DomainError, FreqWindow,
                     GridResolutionError, GridSpec, blowup_constants, build_omega_sequence,
                     bump_weight_log, certify,
                     default_certificate_grid, divergence_partial_sums,
                     series_prefactor_log, series_term_log, unit_ball_volume,
                     verify_induction_chain)
from oracles import brute_window_conv

LN2 = math.log(2.0)


def params1(**kw):
    base = dict(n=1, alpha=2.0, gamma=0.9, rho=0.0, C1=2048.0, A=128.0)
    base.update(kw)
    return CertificateParams(**base)


def coarse_grid1():
    # still fine enough for oracle comparisons without slow brute-force loops
    return GridSpec(1, 64 * np.pi, 2048)   # spacing 1/32, xi_max = 32


class TestOmegaSequence:
    def test_level_zero_mass_one_dimensional(self):
        levels = build_omega_sequence(0, default_certificate_grid(1))
        # v_1 / 2 = 1
        assert levels[0].l1 == pytest.approx(1.0, rel=0.01)
        assert levels[0].l1_target == pytest.approx(1.0)

    def test_level_one_is_triangle(self):
        g = coarse_grid1()
        levels = build_omega_sequence(1, g)
        win = levels[1].window
        xi = win.axes()[0]
        inside = (xi > 2.0) & (xi < 4.0)
        triangle = np.where(inside, 1.0 - np.abs(xi - 3.0), 0.0)
        # peak 1 at xi = 3; discretization error O(spacing)
        assert np.abs(win.values - triangle).max() <= 2.5 * g.dxi
        assert win.values.max() == pytest.approx(1.0, abs=2.5 * g.dxi)
        # independent brute-force autoconvolution of the seed
        seed = levels[0].window
        brute = brute_window_conv(seed.values, seed.values, g.dxi)
        assert np.abs(win.values - brute).max() <= 1e-12

    def test_level_two_mass_and_support(self):
        levels = build_omega_sequence(2, default_certificate_grid(1))
        lev = levels[2]
        assert lev.l1 == pytest.approx(1.0, rel=0.01)       # (v_1/2)^4 = 1
        assert lev.support_corona == (4.0, 8.0)
        assert lev.out_corona_mass_rel <= 1e-10
        xi = lev.window.axes()[0]
        nz = lev.window.values > 1e-12 * lev.window.values.max()
        assert xi[np.argwhere(nz).ravel()].min() > 4.0
        assert xi[np.argwhere(nz).ravel()].max() < 8.0

    @pytest.mark.parametrize("n,k_max", [(1, 3), (2, 2)])
    def test_mass_identity_and_refinement(self, n, k_max):
        g = default_certificate_grid(n)
        levels = build_omega_sequence(k_max, g)
        fine = build_omega_sequence(k_max, g.refined())
        for lev, lev2 in zip(levels, fine):
            assert lev.l1_error <= 0.01
            assert lev2.l1_error < lev.l1_error
            assert lev.out_corona_mass_rel <= 1e-10
            assert lev.out_cube_mass_rel <= 1e-10

    def test_doubling_identity(self):
        levels = build_omega_sequence(3, default_certificate_grid(1))
        for k in range(1, 4):
            assert levels[k].doubling_error <= 1e-12

    def test_insufficient_resolution_rejected(self):
        with pytest.raises(GridResolutionError):
            build_omega_sequence(3, GridSpec(1, 16 * np.pi, 64))  # xi_max = 4

    def test_window_csv_text(self, tmp_path):
        values = np.array([[0.1, -0.0, np.nan], [np.inf, 1e-300, 2.0]])
        win = FreqWindow((-1, 2), values, 0.25)
        path = tmp_path / "omega.csv"
        win.to_csv(path)
        rows = [f"{(-1 + i) * 0.25!r},{(2 + j) * 0.25!r},{values[i, j].item()!r}"
                for i in range(2) for j in range(3)]
        assert rows == ["-0.25,0.5,0.1", "-0.25,0.75,-0.0", "-0.25,1.0,nan",
                        "0.0,0.5,inf", "0.0,0.75,1e-300", "0.0,1.0,2.0"]
        assert path.read_text().splitlines() == [
            "# frequency window: per-axis xi (dimensionless frequency), value",
            "# spacing=0.25 start=(-1, 2)",
            "xi1,xi2,value"] + rows


class TestBumpWeight:
    def test_weight_at_origin(self):
        assert math.exp(bump_weight_log(0, 0.0, alpha=2.0, n=1)) == 1.0

    def test_level_one_at_time_zero(self):
        # 2^(5n-5): equals 1 in one dimension, 32 in two
        assert math.exp(bump_weight_log(1, 0.0, alpha=2.0, n=1)) == pytest.approx(1.0)
        assert math.exp(bump_weight_log(1, 0.0, alpha=1.0, n=2)) == pytest.approx(32.0)

    def test_alpha_one_critical_time(self):
        p = params1(alpha=1.0)
        w = math.exp(bump_weight_log(0, p.t_star, alpha=1.0, n=1))
        assert w == pytest.approx(0.5, rel=1e-14)

    def test_log_matches_direct_product(self):
        for k in range(5):
            direct = (math.exp(-0.3 * 2.0 ** (k + 1.5))
                      * 2.0 ** (-5 * (2 ** k - 1)) * 2.0 ** (5 * 2 * k))
            via_log = math.exp(bump_weight_log(k, 0.3, alpha=1.5, n=2))
            assert via_log == pytest.approx(direct, rel=1e-12)

    def test_rejects_negative_arguments(self):
        with pytest.raises(DomainError):
            bump_weight_log(-1, 0.0, 1.0, 1)
        with pytest.raises(DomainError):
            bump_weight_log(0, -0.1, 1.0, 1)


class TestInductionChain:
    def test_time_integral_exact_half(self):
        # k=0, n=1, alpha=1 at the critical time: 1 - exp(-ln 2) = 1/2
        p = params1(alpha=1.0, C1=4096.0)
        levels = build_omega_sequence(0, coarse_grid1())
        rec = verify_induction_chain(levels, p, p.t_star)[0]
        assert rec.time_integral_value == pytest.approx(0.5, abs=1e-15)
        assert rec.time_integral_ok

    def test_conv_bound_brute_oracle(self):
        # level 1: min over (2,4) of (|xi| w0)*(|xi| w0) - 2^0 w1 >= -tol
        g = coarse_grid1()
        levels = build_omega_sequence(1, g)
        seed = levels[0].window
        xi = seed.axes()[0]
        weighted = brute_window_conv(np.abs(xi) * seed.values,
                                     np.abs(xi) * seed.values, g.dxi)
        bound = 1.0 * levels[1].window.values
        assert (weighted - bound).min() >= -1e-10 * bound.max()
        rec = verify_induction_chain(levels, params1(), params1().t_star)[1]
        assert rec.conv_bound_ok
        assert rec.conv_margin >= -1e-10 * bound.max()

    def test_bessel_bound_hand_value(self):
        # k=1, n=1, rho=2: sup (1+xi^2) on (2,4) is 17, bound is 32
        p = params1(rho=2.0, C1=2.0 ** 13 * 3.0)
        levels = build_omega_sequence(1, coarse_grid1())
        rec = verify_induction_chain(levels, p, p.t_star)[1]
        assert rec.bessel_bound_ok
        assert rec.bessel_max == pytest.approx(17.0, rel=0.05)
        assert rec.bessel_bound == pytest.approx(32.0, rel=1e-12)

    def test_margins_grow_linearly_at_reference_params(self):
        # at n=1, alpha=2, rho=0, C1=2^11 the assembled-chain margin is 5k
        p = params1()
        levels = build_omega_sequence(3, default_certificate_grid(1))
        recs = verify_induction_chain(levels, p, p.t_star)
        for rec in recs[1:]:
            assert rec.induction_margin_log2 == pytest.approx(5.0 * rec.k, abs=1e-9)
            assert rec.all_ok

    def test_requires_time_past_critical(self):
        p = params1()
        levels = build_omega_sequence(1, coarse_grid1())
        with pytest.raises(DomainError):
            verify_induction_chain(levels, p, 0.5 * p.t_star)


class TestConstants:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    def test_unit_ratio_at_minimal_amplitude(self, n, alpha):
        p = CertificateParams(n=n, alpha=alpha, gamma=0.5, rho=0.0,
                              C1=2.0 ** 60, A=2.0 ** (6 + n))
        ratio, t_star, a_min = blowup_constants(p)
        assert abs(ratio - 1.0) <= 1e-14
        assert a_min == 2.0 ** (6 + n)
        assert t_star == pytest.approx(LN2 / 2.0 ** alpha, rel=1e-15)

    def test_doubled_amplitude_quadruples_ratio(self):
        p = params1(A=256.0)
        ratio, _, _ = blowup_constants(p)
        assert ratio == pytest.approx(4.0, rel=1e-13)

    def test_amplitude_floor_values(self):
        assert params1().A_min == 128.0
        assert CertificateParams(n=2, alpha=2.0, gamma=0.9, rho=0.0,
                                 C1=2.0 ** 60, A=256.0).A_min == 256.0


class TestSeries:
    def test_partial_sums_increase(self):
        sums = divergence_partial_sums(params1(), 12)
        assert all(b > a for a, b in zip(sums, sums[1:]))

    def test_term_structure_one_dimensional(self):
        # ratio = 1, v_1 = 2: log2 term_k = 2^(k+1) + 11k exactly
        p = params1()
        for k in range(8):
            expect = (2.0 ** (k + 1) + 11.0 * k) * LN2
            assert series_term_log(k, p) == pytest.approx(expect, rel=1e-12)

    def test_small_amplitude_still_geometric(self):
        # A = A_min/2 gives ratio 1/4; the 2^(k+1) component cancels exactly
        # and the terms still grow like 2^(11k)
        p = params1(A=64.0)
        ratio, _, _ = blowup_constants(p)
        assert ratio == pytest.approx(0.25, rel=1e-13)
        for k in range(6):
            assert series_term_log(k, p) == pytest.approx(11.0 * k * LN2, abs=1e-9)

    def test_doubling_dominates(self):
        sums = divergence_partial_sums(params1(), 12)
        log2_sums = [s / LN2 for s in sums]
        for K, v in enumerate(log2_sums, start=1):
            assert v >= 2.0 ** K
        ratios = [b / a for a, b in zip(log2_sums[1:], log2_sums[2:])]
        assert min(ratios) >= 1.4

    def test_prefactor_value(self):
        # n=1: ln(1 * 2^10 / (v_1 * 1 * 1)) = ln(512)
        assert series_prefactor_log(params1()) == pytest.approx(math.log(512.0))


class TestCertify:
    def test_reference_run_certifies(self):
        report = certify(params1())
        assert report.verdict == "certified-divergent"
        assert report.ratio_ok and not report.violations
        assert all(r.all_ok for r in report.records)

    def test_below_floor_amplitude_not_certified(self):
        report = certify(params1(A=1.0))
        assert report.verdict == "not-certified"
        assert any("A >= 2^(6+n)" in v for v in report.violations)

    def test_rho_alpha_cap_enforced(self):
        p = params1(rho=5.5, C1=2.0 ** 40)
        report = certify(p)
        assert report.verdict == "not-certified"
        assert any("rho + alpha <= 5n + 2" in v for v in report.violations)

    @pytest.mark.parametrize("kw", [{"C1": math.inf}, {"A": math.nan},
                                    {"gamma": math.nan}, {"rho": math.inf}])
    def test_nonfinite_params_rejected(self, kw):
        with pytest.raises(DomainError):
            params1(**kw)

    def test_grid_inadequacy_raises(self):
        with pytest.raises(GridResolutionError):
            certify(params1(), grid=GridSpec(1, 16 * np.pi, 64))

    def test_report_serialization(self, tmp_path):
        report = certify(params1(), k_max=1, series_terms=4)
        text = report.to_text()
        assert "certified-divergent" in text
        path = tmp_path / "certificate.csv"
        report.to_csv(path)
        assert "ratio,1.0" in path.read_text()

    @pytest.mark.parametrize("kw", [{}, {"A": 1.0}, {"A": 64.0},
                                    {"rho": 5.5, "C1": 2.0 ** 40}])
    def test_verdict_is_structurally_consistent(self, kw):
        report = certify(params1(**kw), k_max=1, series_terms=4)
        expected = (not report.violations and report.ratio_ok
                    and all(r.all_ok for r in report.records)
                    and all(l.hypercube_ok for l in report.levels))
        assert report.certified == expected
