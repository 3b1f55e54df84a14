import math

import numpy as np
import pytest

from fraclap import (CertificateParams, DomainError, FreqWindow,
                     GridResolutionError, GridSpec, blowup_constants, build_omega_sequence,
                     c1_threshold, certify,
                     default_certificate_grid, default_k_max, divergence_partial_sums,
                     series_prefactor_log, series_term_log, unit_ball_volume,
                     verify_induction_chain)
from fraclap import certificate
from fraclap.cli import run
from oracles import (assembled_induction_chain, brute_window_conv, bump_weight_log,
                     measured_bessel_sup, out_corona_mass_rel, out_cube_mass_rel,
                     time_integral_value, weighted_autoconv)

LN2 = math.log(2.0)


def params1(**kw):
    base = dict(n=1, alpha=2.0, gamma=0.9, rho=0.0, C1=2048.0, A=128.0)
    base.update(kw)
    return CertificateParams(**base)


def coarse_grid1():
    # still fine enough for oracle comparisons without slow brute-force loops
    return GridSpec(1, 64 * np.pi, 2048)   # spacing 1/32, xi_max = 32


def omega_levels(k_max, grid):
    """The levels of build_omega_sequence, without their windows."""
    return [lev for lev, _ in build_omega_sequence(k_max, grid)]


class TestOmegaSequence:
    def test_level_zero_mass_one_dimensional(self):
        levels = omega_levels(0, default_certificate_grid(1))
        # v_1 / 2 = 1
        assert levels[0].l1 == pytest.approx(1.0, rel=0.01)
        assert levels[0].l1_target == pytest.approx(1.0)

    def test_level_one_is_triangle(self):
        g = coarse_grid1()
        (_, seed), (_, win) = build_omega_sequence(1, g)
        xi = win.axes()[0]
        inside = (xi > 2.0) & (xi < 4.0)
        triangle = np.where(inside, 1.0 - np.abs(xi - 3.0), 0.0)
        # peak 1 at xi = 3; discretization error O(spacing)
        assert np.abs(win.values - triangle).max() <= 2.5 * g.dxi
        assert win.values.max() == pytest.approx(1.0, abs=2.5 * g.dxi)
        # independent brute-force autoconvolution of the seed
        brute = brute_window_conv(seed.values, seed.values, g.dxi)
        assert np.abs(win.values - brute).max() <= 1e-12

    def test_level_two_mass_and_support(self):
        lev, win = build_omega_sequence(2, default_certificate_grid(1))[2]
        assert lev.l1 == pytest.approx(1.0, rel=0.01)       # (v_1/2)^4 = 1
        assert out_corona_mass_rel(win, lev.k) <= 1e-10
        xi = win.axes()[0]
        nz = win.values > 1e-12 * win.values.max()
        assert xi[np.argwhere(nz).ravel()].min() > 4.0
        assert xi[np.argwhere(nz).ravel()].max() < 8.0

    @pytest.mark.parametrize("n,k_max", [(1, 3), (2, 2)])
    def test_mass_identity_and_refinement(self, n, k_max):
        g = default_certificate_grid(n)
        pairs = build_omega_sequence(k_max, g)
        fine = omega_levels(k_max, g.refined())
        for (lev, win), lev2 in zip(pairs, fine):
            assert lev.l1_error <= 0.01
            assert lev2.l1_error < lev.l1_error
            assert out_corona_mass_rel(win, lev.k) <= 1e-10
            assert out_cube_mass_rel(win, lev.k) <= 1e-10

    @pytest.mark.parametrize("n,worst", [(1, 0.0078), (2, 0.0059), (3, 0.0200)])
    def test_l1_error_is_fixed_by_the_seed(self, n, worst):
        # an autoconvolution has exactly the squared mass of its input, so at
        # the default grids and k range level k's error is 1 - (1 - eps0)^(2^k),
        # with eps0 the seed's signed error; worst is the per-n figure that
        # default_certificate_grid states
        levels = omega_levels(default_k_max(n), default_certificate_grid(n))
        eps0 = (levels[0].l1_target - levels[0].l1) / levels[0].l1_target
        for lev in levels:
            expect = abs(1.0 - (1.0 - eps0) ** (2 ** lev.k))
            assert lev.l1_error == pytest.approx(expect, rel=1e-10), lev.k
        assert max(lev.l1_error for lev in levels) <= worst

    def test_doubling_identity(self):
        levels = omega_levels(3, default_certificate_grid(1))
        for k in range(1, 4):
            assert levels[k].l1 == pytest.approx(levels[k - 1].l1 ** 2, rel=1e-12)

    def test_window_moved_out_of_its_cube_is_not_in_cube(self, monkeypatch):
        # spacing 1/4.99: the seed's lowest lattice point is 1.002, so level
        # 1 starts at 2.004; one cell down it starts at 1.804, outside the
        # cube (2, 4)
        g = GridSpec(1, 2 * np.pi * 4.99, 64)
        assert [lev.in_cube for lev in omega_levels(1, g)] == [True, True]
        convolve = certificate.convolve_lattice
        monkeypatch.setattr(certificate, "convolve_lattice",
                            lambda a, spacing: np.roll(convolve(a, spacing), -1, axis=0))
        pairs = build_omega_sequence(1, g)
        (lev0, _), (lev1, win1) = pairs
        assert out_cube_mass_rel(win1, 1) > 1e-10
        assert lev0.in_cube and not lev1.in_cube
        records = verify_induction_chain([lev for lev, _ in pairs], params1())
        assert not records[1].support_ok and not records[1].all_ok

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
        levels = omega_levels(0, coarse_grid1())
        rec = verify_induction_chain(levels, p)[0]
        value = time_integral_value(0, p.t_star, p.alpha, p.n)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert rec.time_integral_ok

    def test_conv_bound_brute_oracle(self):
        # level 1: min over (2,4) of (|xi| w0)*(|xi| w0) - 2^0 w1 >= -tol
        g = coarse_grid1()
        pairs = build_omega_sequence(1, g)
        (_, seed), (_, win1) = pairs
        xi = seed.axes()[0]
        weighted = brute_window_conv(np.abs(xi) * seed.values,
                                     np.abs(xi) * seed.values, g.dxi)
        bound = 1.0 * win1.values
        assert (weighted - bound).min() >= -1e-10 * bound.max()
        rec = verify_induction_chain([lev for lev, _ in pairs], params1())[1]
        assert rec.conv_bound_ok
        # the FFT convolution agrees with the brute-force one
        assert np.abs(weighted_autoconv(seed) - weighted).max() <= 1e-13 * weighted.max()

    def test_bessel_bound_hand_value(self):
        # k=1, n=1, rho=2: sup (1+xi^2) over the support of w_1 is about 17
        # (the support is (2,4)), below the bound 32
        p = params1(rho=2.0, C1=2.0 ** 13 * 3.0)
        pairs = build_omega_sequence(1, coarse_grid1())
        rec = verify_induction_chain([lev for lev, _ in pairs], p)[1]
        assert rec.bessel_bound_ok
        assert measured_bessel_sup(pairs[1][1]) == pytest.approx(17.0, rel=0.05)

    def test_margins_grow_linearly_at_reference_params(self):
        # at n=1, alpha=2, rho=0, C1=2^11 the assembled-chain margin is 5k
        p = params1()
        levels = omega_levels(3, default_certificate_grid(1))
        recs = verify_induction_chain(levels, p)
        for rec in recs[1:]:
            assert rec.induction_margin_log2 == pytest.approx(5.0 * rec.k, abs=1e-9)
            assert rec.all_ok

    def test_closed_forms_equal_the_assembled_chain(self):
        # seeded parameter sets on the default grids, at and around the C1
        # floor, the amplitude floor and the cap rho + alpha = 5n + 2
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            alpha = float(rng.choice([2.0, 1.0, rng.uniform(0.05, 2.0)]))
            cap = 5.0 * n + 2.0 - alpha
            if math.fsum((cap, alpha, -(5.0 * n + 2.0))) > 0:
                cap = math.nextafter(cap, -math.inf)    # rho + alpha <= 5n + 2
            rho = float(rng.choice([0.0, cap, rng.uniform(-6.0, cap + 1.0)]))
            floor = c1_threshold(n, alpha, rho)
            C1 = float(rng.choice([floor, floor * 2.0 ** rng.uniform(-2.0, 4.0)]))
            gamma = 0.9 * (alpha - 1.0) if alpha > 1 else 1.0 - alpha / 2.0
            p = CertificateParams(n=n, alpha=alpha, gamma=gamma, rho=rho, C1=C1,
                                  A=2.0 ** (6 + n))
            report = certify(p, default_certificate_grid(n), default_k_max(n), 1)
            chain = assembled_induction_chain(report.levels, p)
            for rec, ref in zip(report.records, chain):
                assert (rec.support_ok, rec.conv_bound_ok, rec.bessel_bound_ok,
                        rec.time_integral_ok, rec.induction_ok) == (
                    ref.support_ok, ref.conv_bound_ok, ref.bessel_bound_ok,
                    ref.time_integral_ok, ref.induction_ok), (p, rec.k)
                m, m_ref = rec.induction_margin_log2, ref.induction_margin_log2
                if rec.k:
                    assert abs(m - m_ref) <= 1e-12 * max(1.0, abs(m)), (p, rec.k)


class TestConstants:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    def test_unit_ratio_at_minimal_amplitude(self, n, alpha):
        p = CertificateParams(n=n, alpha=alpha, gamma=0.5, rho=0.0,
                              C1=2.0 ** 60, A=2.0 ** (6 + n))
        ratio = blowup_constants(p)
        assert abs(ratio - 1.0) <= 1e-14
        assert p.A_min == 2.0 ** (6 + n)
        assert p.t_star == pytest.approx(LN2 / 2.0 ** alpha, rel=1e-15)

    def test_doubled_amplitude_quadruples_ratio(self):
        p = params1(A=256.0)
        ratio = blowup_constants(p)
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
        ratio = blowup_constants(p)
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
        report = certify(params1(), default_certificate_grid(1), 3, 12)
        assert report.verdict == "certified-divergent"
        assert report.ratio_ok and not report.violations
        assert all(r.all_ok for r in report.records)

    @pytest.mark.parametrize("args", [
        ("A=1.0",),
        *((f"n={n}", f"C1={math.nextafter(c1_threshold(n, 2.0, 0.0), 0)!r}")
          for n in (1, 2, 3)),
        *((f"n={n}", f"A={math.nextafter(2.0 ** (6 + n), 0)!r}") for n in (1, 2, 3)),
        ("n=1", "C1=2047.999999999", "A=127.99999999994")], ids=" ".join)
    def test_below_floor_amplitude_not_certified(self, tmp_path, args):
        # one float below a floor is below it: no slack at C1 >= floor or
        # A >= 2^(6+n)
        assert run(["certify", "-o", str(tmp_path), *args]) == 0
        text = (tmp_path / "certificate.txt").read_text()
        assert "verdict: not-certified" in text
        for key, value in (arg.split("=") for arg in args):
            if key != "n":
                assert f"{key} = {value} fails" in text

    def test_rho_alpha_cap_enforced(self):
        p = params1(rho=5.5, C1=2.0 ** 40)
        report = certify(p, default_certificate_grid(1), 3, 12)
        assert report.verdict == "not-certified"
        assert any("rho + alpha <= 5n + 2" in v for v in report.violations)

    @pytest.mark.parametrize("kw", [{"C1": math.inf}, {"A": math.nan},
                                    {"gamma": math.nan}, {"rho": math.inf}])
    def test_nonfinite_params_rejected(self, kw):
        with pytest.raises(DomainError):
            params1(**kw)

    def test_grid_inadequacy_raises(self):
        with pytest.raises(GridResolutionError):
            certify(params1(), GridSpec(1, 16 * np.pi, 64), 3, 12)

    @pytest.mark.parametrize("n, grid_n", [(1, 2), (3, 1)])
    def test_grid_dimension_must_match_params(self, n, grid_n):
        with pytest.raises(DomainError, match=f"grid.n = {grid_n} fails "
                                              f"grid.n = params.n = {n}"):
            certify(params1(n=n), default_certificate_grid(grid_n), 1, 4)

    def test_report_serialization(self, tmp_path):
        report = certify(params1(), default_certificate_grid(1), 1, 4)
        text = report.to_text()
        assert "certified-divergent" in text
        path = tmp_path / "certificate.csv"
        report.to_csv(path)
        assert "ratio,1.0" in path.read_text()

    @pytest.mark.parametrize("kw", [{}, {"A": 1.0}, {"A": 64.0},
                                    {"rho": 5.5, "C1": 2.0 ** 40}])
    def test_verdict_is_structurally_consistent(self, kw):
        report = certify(params1(**kw), default_certificate_grid(1), 1, 4)
        expected = (not report.violations and report.ratio_ok
                    and all(r.all_ok for r in report.records)
                    and all(l.hypercube_ok for l in report.levels))
        assert (report.verdict == "certified-divergent") == expected


# the certify defaults, and small grids with dyadic and non-dyadic spacings
AUDIT_GRIDS = {
    "n1-default": (default_certificate_grid(1), 3),
    "n2-default": (default_certificate_grid(2), 2),
    "n3-default": (default_certificate_grid(3), 2),
    "n1-h=1/32": (GridSpec(1, 64 * np.pi, 2048), 3),
    "n1-h=0.07": (GridSpec(1, 2 * np.pi / 0.07, 512), 3),
    "n2-h=0.1": (GridSpec(2, 20 * np.pi, 256), 2),
    "n3-h=1/4": (GridSpec(3, 8 * np.pi, 128), 2),
    "n3-h=0.1": (GridSpec(3, 20 * np.pi, 160), 1),
}
# FFT roundoff of the weighted autoconvolution, relative to its peak; the
# measured worst is 2.4e-16
FFT_ROUNDOFF = 1e-13


@pytest.fixture(scope="module", params=list(AUDIT_GRIDS))
def fft_hierarchy(request):
    """The FFT bump hierarchy and, per level k >= 1, the weighted
    autoconvolution (|xi| w_{k-1}) * (|xi| w_{k-1}): the measured
    counterparts of what certify derives. The hierarchy comes as
    (level, window) pairs."""
    grid, k_max = AUDIT_GRIDS[request.param]
    pairs = build_omega_sequence(k_max, grid)
    convs = [None] + [weighted_autoconv(win) for _, win in pairs[:-1]]
    return grid, k_max, pairs, convs


class TestDerivedAgainstMeasured:
    @pytest.mark.parametrize("rho", [-4.0, 0.0, 2.0])
    def test_flags_and_l1_equal_measured(self, fft_hierarchy, rho):
        grid, k_max, pairs, convs = fft_hierarchy
        n = grid.n
        p = CertificateParams(n=n, alpha=2.0, gamma=0.9, rho=rho,
                              C1=c1_threshold(n, 2.0, rho), A=2.0 ** (6 + n))
        report = certify(p, grid, k_max, 4)
        cap_log2 = max(0.0, rho / 2.0 - 1.0) + (rho / 2.0) * math.log2(n)
        for (lev, win), derived, rec in zip(pairs, report.levels, report.records):
            k = lev.k
            assert derived.l1 == pytest.approx(lev.l1, rel=1e-14), k
            assert derived.l1_target == lev.l1_target
            assert derived.l1_error == pytest.approx(lev.l1_error, rel=1e-12), k
            assert lev.support_ok and lev.hypercube_ok
            assert rec.support_ok and derived.hypercube_ok
            if k == 0:
                continue
            margin = (convs[k] - 4.0 ** (k - 1) * win.values).min()
            conv_ok = margin >= -FFT_ROUNDOFF * convs[k].max()
            sup_log2 = ((rho / 2.0) * math.log2(measured_bessel_sup(win))
                        if rho > 0 else 0.0)
            bessel_ok = sup_log2 <= cap_log2 + (k + 1) * rho + 1.0 + 1e-12
            assert (rec.conv_bound_ok, rec.bessel_bound_ok) == (conv_ok, bessel_ok), k
        # rho = -4 fails the Bessel bound from k = 1 on, on both paths
        assert [r.bessel_bound_ok for r in report.records[1:]] == [rho >= 0] * k_max

    def test_measured_conv_bound_holds_with_factor_n(self, fft_hierarchy):
        # |xi| > sqrt(n) 2^(k-1) on the support of w_{k-1}, so the bound
        # holds with the factor n, up to FFT roundoff
        grid, k_max, pairs, convs = fft_hierarchy
        for k in range(1, k_max + 1):
            margin = convs[k] - grid.n * 4.0 ** (k - 1) * pairs[k][1].values
            assert margin.min() >= -FFT_ROUNDOFF * convs[k].max(), k
