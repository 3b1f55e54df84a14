import numpy as np
import pytest

from fraclap import (CertificateParams, CoefficientSpec, DomainError, GridSpec,
                     c1_threshold, sobolev_norm_of_b)
from fraclap.coefficient import gamma_case
from oracles import bessel_symbol_l2

L1D = 16 * np.pi


def grid1(N=512):
    return GridSpec(1, L1D, N)


def dirac(C=1.0):
    return CoefficientSpec(kind="dirac", C=C)


def bessel(C=1.0, rho=2.0):
    return CoefficientSpec(kind="bessel_symbol", C=C, rho=rho)


def params(**kw):
    base = dict(n=1, alpha=2.0, gamma=0.9, rho=0.0, C1=2048.0, A=128.0)
    base.update(kw)
    return CertificateParams(**base)


class TestBuildSymbol:
    def test_dirac_is_constant(self):
        b = dirac(C=1.0).symbol_on(grid1(64).xi_norm_sq)
        assert np.all(b == 1.0)

    def test_bessel_rho_zero_is_constant(self):
        b = bessel(C=3.0, rho=0.0).symbol_on(grid1(64).xi_norm_sq)
        assert np.all(b == pytest.approx(3.0))

    def test_bessel_value_at_unit_frequency(self):
        g = grid1(64)
        b = bessel(C=1.0, rho=2.0).symbol_on(g.xi_norm_sq)
        m = int(round(1.0 / g.dxi))
        assert b[m] == pytest.approx(0.5, rel=1e-14)

    def test_nonnegative_everywhere(self):
        for spec in (dirac(), bessel(rho=3.7), bessel(rho=0.4, C=0.2)):
            b = spec.symbol_on(grid1(64).xi_norm_sq)
            assert b.min() >= 0.0

    def test_rho_monotonicity(self):
        g = grid1(64)
        lo = bessel(rho=1.0).symbol_on(g.xi_norm_sq)
        hi = bessel(rho=2.5).symbol_on(g.xi_norm_sq)
        assert hi[0] == lo[0] == 1.0
        nz = g.xi_norm_sq > 0
        assert np.all(hi[nz] < lo[nz])

    def test_validation(self):
        with pytest.raises(DomainError):
            CoefficientSpec(kind="dirac", C=-1.0)
        with pytest.raises(DomainError):
            CoefficientSpec(kind="bessel_symbol", C=1.0, rho=-0.5)
        with pytest.raises(DomainError):
            CoefficientSpec(kind="nope", C=1.0)
        # C = 0 allowed: the zero coefficient (pure linear runs)
        CoefficientSpec(kind="dirac", C=0.0)

    @pytest.mark.parametrize("kw", [{"C": np.nan}, {"C": np.inf}, {"rho": np.nan}])
    def test_nonfinite_rejected(self, kw):
        base = dict(kind="bessel_symbol", C=1.0, rho=2.0)
        base.update(kw)
        with pytest.raises(DomainError):
            CoefficientSpec(**base)


class TestAdmissibility:
    # the gamma ranges live in gamma_case; the amplitude floor, the rho + alpha
    # cap and the blow-up gamma range in CertificateParams.violations
    def test_point_mass_one_dimensional(self):
        # n=1, alpha=2, gamma=0.9, rho=0
        assert gamma_case(2.0, 0.9, for_blowup=True) == (1, None)   # 0 <= 0.9 < 1
        assert params(C1=2048.0).violations() == []

    def test_two_dimensional_bessel_window(self):
        # n=2, rho=3 sits inside 1 + n/2 < rho <= 5n
        assert gamma_case(2.0, 0.5, for_blowup=True) == (1, None)
        p = params(n=2, gamma=0.5, rho=3.0, C1=2.0 ** 28, A=256.0)
        assert p.violations() == []      # 3 + 2 = 5 <= 12, C1 >= 2^27

    def test_c1_threshold_hand_value(self):
        # n=1, alpha=2, rho=0: max(1, 2^-1) * 1 * 2^(10-1+2) = 2^11
        assert c1_threshold(1, 2.0, 0.0) == 2048.0
        p = params(C1=2047.0)
        assert p.c1_floor == 2048.0
        assert any("2048" in m for m in p.violations())

    def test_c1_threshold_is_not_below_the_exact_floor(self):
        # the least floats above the floors 2^(10.1) and 2^(9.75) of the
        # CLI defaults at alpha = 1.1 and 0.75, from 300-bit arithmetic
        assert c1_threshold(1, 1.1, 0.0) >= 1097.4960256371644
        assert c1_threshold(1, 0.75, 0.0) >= 861.0779292198038
        assert c1_threshold(3, 2.0, 0.0) == 3 * 2.0 ** 31

    def test_gamma_out_of_case_range(self):
        case, message = gamma_case(2.0, 1.5)
        assert case == 1 and "alpha - 1" in message

    def test_case_two_ranges(self):
        assert gamma_case(0.8, 0.5) == (2, None)   # 0.2 < 0.5 < 1
        # blow-up variant allows gamma = 1 - alpha exactly (dyadic values so
        # the boundary is float-exact)
        assert gamma_case(0.75, 0.25)[1] is not None
        assert gamma_case(0.75, 0.25, for_blowup=True)[1] is None

    def test_blowup_implies_wellposed(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            alpha = float(rng.uniform(1.05, 2.0))
            gamma = float(rng.uniform(0.0, alpha - 1.0) * 0.95)
            rho = float(rng.uniform(max(0.1, n / 2 - gamma) + 0.1,
                                    5 * n + 2 - alpha))
            p = params(n=n, alpha=alpha, gamma=gamma, rho=rho, C1=2.0 ** 60,
                       A=2.0 ** (6 + n))
            if not p.violations():
                assert gamma_case(alpha, gamma)[1] is None


class TestNormOfB:
    # doubling N at fixed L doubles xi_max: a norm that moves by more than
    # 10% is read as divergent
    def test_point_mass_negative_order_stable(self):
        g = grid1()
        v1 = sobolev_norm_of_b(dirac(), -0.9, g)
        v2 = sobolev_norm_of_b(dirac(), -0.9, GridSpec(1, g.L, 2 * g.N))
        assert abs(v2 - v1) <= 0.10 * v1
        assert abs(v2 - v1) <= 0.02 * v1

    def test_point_mass_order_zero_divergent(self):
        g = grid1()
        v1 = sobolev_norm_of_b(dirac(), 0.0, g)
        v2 = sobolev_norm_of_b(dirac(), 0.0, GridSpec(1, g.L, 2 * g.N))
        assert abs(v2 - v1) > 0.10 * v1

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
