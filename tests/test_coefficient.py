import numpy as np
import pytest

from fraclap import (CoefficientSpec, DomainError, GridSpec, build_symbol,
                     c1_threshold, check_admissibility, norm_divergence_probe,
                     sobolev_norm_of_b)
from oracles import bessel_symbol_l2

L1D = 16 * np.pi


def grid1(N=512):
    return GridSpec(1, L1D, N)


def dirac(C=1.0, n=1, alpha=2.0, gamma=0.9):
    return CoefficientSpec(kind="dirac", C=C, n=n, alpha=alpha, gamma=gamma)


def bessel(C=1.0, rho=2.0, n=1, alpha=2.0, gamma=0.0):
    return CoefficientSpec(kind="bessel_symbol", C=C, rho=rho, n=n,
                           alpha=alpha, gamma=gamma)


class TestBuildSymbol:
    def test_dirac_is_constant(self):
        fld = build_symbol(dirac(C=1.0), 0.0, grid1(64))
        assert np.all(fld.coeffs.real == 1.0)
        assert np.all(fld.coeffs.imag == 0.0)

    def test_bessel_rho_zero_is_constant(self):
        fld = build_symbol(bessel(C=3.0, rho=0.0), 0.0, grid1(64))
        assert np.all(fld.coeffs.real == pytest.approx(3.0))

    def test_bessel_value_at_unit_frequency(self):
        g = grid1(64)
        fld = build_symbol(bessel(C=1.0, rho=2.0), 0.0, g)
        m = int(round(1.0 / g.dxi))
        assert fld.coeffs[m].real == pytest.approx(0.5, rel=1e-14)

    def test_nonnegative_everywhere(self):
        for spec in (dirac(), bessel(rho=3.7), bessel(rho=0.4, C=0.2)):
            fld = build_symbol(spec, 0.0, grid1(64))
            assert fld.coeffs.real.min() >= 0.0

    def test_rho_monotonicity(self):
        g = grid1(64)
        lo = build_symbol(bessel(rho=1.0), 0.0, g).coeffs.real
        hi = build_symbol(bessel(rho=2.5), 0.0, g).coeffs.real
        assert hi[0] == lo[0] == 1.0
        nz = g.xi_norm_sq > 0
        assert np.all(hi[nz] < lo[nz])

    def test_time_modulation(self):
        spec = bessel()
        spec.time_modulation = lambda t: 1.0 / (1.0 + t)
        g = grid1(64)
        a = build_symbol(spec, 0.0, g).coeffs.real
        b = build_symbol(spec, 1.0, g).coeffs.real
        assert b == pytest.approx(a / 2.0)
        spec.time_modulation = lambda t: 2.0  # > 1 is out of range
        with pytest.raises(DomainError):
            build_symbol(spec, 0.0, g)

    def test_validation(self):
        with pytest.raises(DomainError):
            CoefficientSpec(kind="dirac", C=-1.0, n=1, alpha=2.0, gamma=0.0)
        with pytest.raises(DomainError):
            CoefficientSpec(kind="bessel_symbol", C=1.0, rho=-0.5, n=1,
                            alpha=2.0, gamma=0.0)
        with pytest.raises(DomainError):
            CoefficientSpec(kind="nope", C=1.0, n=1, alpha=2.0, gamma=0.0)
        # C = 0 allowed: the zero coefficient (pure linear runs)
        CoefficientSpec(kind="dirac", C=0.0, n=1, alpha=2.0, gamma=0.0)

    @pytest.mark.parametrize("kw", [{"C": np.nan}, {"C": np.inf}, {"rho": np.nan}])
    def test_nonfinite_rejected(self, kw):
        base = dict(kind="bessel_symbol", C=1.0, rho=2.0, n=1, alpha=2.0, gamma=0.0)
        base.update(kw)
        with pytest.raises(DomainError):
            CoefficientSpec(**base)


class TestAdmissibility:
    def test_point_mass_one_dimensional(self):
        # n=1, alpha=2, gamma=0.9, rho=0
        rep = check_admissibility(dirac(C=2048.0), for_blowup=True)
        assert rep.case == 1
        assert rep.sobolev_ok            # 0 <= 0.9 < 1
        assert rep.dimension_ok          # 2*(0.9+0) = 1.8 > 1
        assert rep.c1_ok and rep.rho_alpha_ok
        assert rep.admissible

    def test_two_dimensional_bessel_window(self):
        # n=2, rho=3 sits inside 1 + n/2 < rho <= 5n
        spec = bessel(C=2.0 ** 28, rho=3.0, n=2, alpha=2.0, gamma=0.5)
        rep = check_admissibility(spec, for_blowup=True)
        assert rep.case == 1 and rep.sobolev_ok
        assert rep.dimension_ok          # 2*(0.5+3) = 7 > 2
        assert rep.rho_alpha_ok          # 3 + 2 = 5 <= 12
        assert rep.admissible

    def test_c1_threshold_hand_value(self):
        # n=1, alpha=2, rho=0: max(1, 2^-1) * 1 * 2^(10-1+2) = 2^11
        assert c1_threshold(1, 2.0, 0.0) == 2048.0
        rep = check_admissibility(dirac(C=2047.0), for_blowup=True)
        assert not rep.c1_ok and rep.c1_threshold == 2048.0
        assert any("2048" in m for m in rep.messages)

    def test_gamma_out_of_case_range(self):
        rep = check_admissibility(dirac(gamma=1.5))
        assert not rep.sobolev_ok and not rep.admissible
        assert any("alpha - 1" in m for m in rep.messages)

    def test_case_two_ranges(self):
        spec = CoefficientSpec(kind="bessel_symbol", C=1.0, rho=2.0, n=1,
                               alpha=0.8, gamma=0.5)
        rep = check_admissibility(spec)
        assert rep.case == 2 and rep.sobolev_ok   # 0.2 < 0.5 < 1
        # blow-up variant allows gamma = 1 - alpha exactly (dyadic values so
        # the boundary is float-exact)
        edge = CoefficientSpec(kind="bessel_symbol", C=1.0, rho=2.0, n=1,
                               alpha=0.75, gamma=0.25)
        assert not check_admissibility(edge).sobolev_ok
        assert check_admissibility(edge, for_blowup=True).sobolev_ok

    def test_case_two_dimension_sign_note(self):
        spec = CoefficientSpec(kind="bessel_symbol", C=2.0 ** 40, rho=2.0, n=1,
                               alpha=0.8, gamma=0.5)
        rep = check_admissibility(spec, for_blowup=True)
        assert rep.dimension_ok          # 2*(2 - 0.5) = 3 > 1
        assert any("2(rho - gamma)" in m for m in rep.messages)

    def test_blowup_implies_wellposed(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            alpha = float(rng.uniform(1.05, 2.0))
            gamma = float(rng.uniform(0.0, alpha - 1.0) * 0.95)
            rho = float(rng.uniform(max(0.1, n / 2 - gamma) + 0.1,
                                    5 * n + 2 - alpha))
            spec = bessel(C=2.0 ** 60, rho=rho, n=n, alpha=alpha, gamma=gamma)
            blow = check_admissibility(spec, for_blowup=True)
            if blow.admissible:
                assert check_admissibility(spec).admissible


class TestNormOfB:
    def test_point_mass_negative_order_stable(self):
        spec = dirac(gamma=0.9)
        v1, v2, divergent = norm_divergence_probe(spec, -0.9, grid1())
        assert not divergent
        assert abs(v2 - v1) <= 0.02 * v1

    def test_point_mass_order_zero_divergent(self):
        _, _, divergent = norm_divergence_probe(dirac(), 0.0, grid1())
        assert divergent

    def test_bessel_matches_quadrature(self):
        # closed form (pi/2)^(1/2) for C=1, rho=2, order 0 in one dimension
        val = sobolev_norm_of_b(bessel(C=1.0, rho=2.0), 0.0, grid1())
        assert val == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-4)
        assert val == pytest.approx(bessel_symbol_l2(2.0), abs=1e-4)

    def test_amplitude_scales_linearly(self):
        g = grid1(128)
        a = sobolev_norm_of_b(bessel(C=1.0), 0.0, g)
        b = sobolev_norm_of_b(bessel(C=7.5), 0.0, g)
        assert b == pytest.approx(7.5 * a, rel=1e-12)


class TestCustomSymbol:
    def test_callable_symbol(self):
        spec = CoefficientSpec(kind="custom_symbol", C=1.0, n=1, alpha=2.0,
                               gamma=0.0,
                               symbol_fn=lambda t, xi2: 2.0 / (1.0 + xi2))
        fld = build_symbol(spec, 0.0, grid1(64))
        assert fld.coeffs[0].real == pytest.approx(2.0)

    def test_negative_values_rejected(self):
        spec = CoefficientSpec(kind="custom_symbol", C=1.0, n=1, alpha=2.0,
                               gamma=0.0, symbol_fn=lambda t, xi2: xi2 - 1.0)
        with pytest.raises(DomainError):
            build_symbol(spec, 0.0, grid1(64))

    def test_symbol_fn_required(self):
        with pytest.raises(DomainError):
            CoefficientSpec(kind="custom_symbol", C=1.0, n=1, alpha=2.0,
                            gamma=0.0)
