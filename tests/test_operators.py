import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (DomainError, GridResolutionError, GridSpec,
                     KernelEstimateReport, SpectralField, forward_transform,
                     kernel_field, kernel_l1_report, kernel_samples,
                     semigroup_apply)
from fraclap import spectral
from oracles import gaussian_riesz1_l1, periodized_gaussian

L1D = 16 * np.pi


def grid1(N=512):
    return GridSpec(1, L1D, N)


def random_field(g, seed):
    return forward_transform(np.random.default_rng(seed).standard_normal(g.shape), g)


class TestSemigroup:
    def test_time_zero_identity(self):
        f = random_field(grid1(64), 5)
        assert np.array_equal(semigroup_apply(f, 0.0, 1.5).coeffs, f.coeffs)

    def test_dc_unchanged(self):
        f = random_field(grid1(64), 6)
        for t in (0.1, 1.0, 10.0):
            assert semigroup_apply(f, t, 0.8).coeffs[0] == pytest.approx(f.coeffs[0])

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            semigroup_apply(random_field(grid1(64), 7), -0.1, 1.0)

    @given(st.floats(0.3, 2.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_semigroup_law(self, alpha, t1, t2):
        f = random_field(grid1(64), 8)
        a = semigroup_apply(semigroup_apply(f, t1, alpha), t2, alpha)
        b = semigroup_apply(f, t1 + t2, alpha)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * np.abs(f.coeffs).max()

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_contraction_in_every_order(self, seed, t):
        f = random_field(grid1(64), seed)
        out = semigroup_apply(f, t, 1.3)
        g = f.grid
        for s in (0.0, 1.0, 2.0):
            w = g.L ** g.n * (1.0 + g.xi_norm_sq) ** s
            a = spectral._weighted_norm(w, f.coeffs)
            b = spectral._weighted_norm(w, out.coeffs)
            assert b <= a * (1 + 1e-13)

    def test_sign_preservation(self):
        g = grid1(64)
        rng = np.random.default_rng(10)
        c = rng.uniform(0, 1, g.shape).astype(complex)
        out = semigroup_apply(SpectralField(g, c), 0.7, 1.0)
        assert out.coeffs.real.min() >= 0
        signs = np.sign(c.real)
        assert np.array_equal(np.sign(out.coeffs.real), signs)


class TestKernelField:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_unit_mass(self, alpha, t):
        g = grid1()
        samples = kernel_samples(t, alpha, g)
        mass = np.abs(samples).sum() * g.dx
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_matches_periodized_gaussian(self):
        g = grid1()
        x = np.fft.fftfreq(g.N, d=1.0 / g.N) * g.dx
        for t in (0.25, 1.0, 4.0):
            samples = kernel_samples(t, 2.0, g)
            exact = periodized_gaussian(x, t, g.L)
            assert np.abs(samples - exact).max() <= 1e-8

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    def test_positivity(self, alpha):
        g = grid1()
        for t in (0.25, 1.0, 4.0):
            samples = kernel_samples(t, alpha, g)
            assert samples.min() >= -1e-8 * samples.max()

    def test_dc_is_unit(self):
        fld = kernel_field(0.5, 1.5, grid1())
        # the coefficient times L^n is the plain symbol value exp(0) = 1
        assert (fld.coeffs[0] * L1D).real == pytest.approx(1.0)

    def test_time_must_be_positive(self):
        with pytest.raises(DomainError):
            kernel_field(0.0, 1.0, grid1())


class TestKernelReport:
    def test_mass_at_zero_order(self):
        rep = kernel_l1_report(0.0, 1.0, [0.5, 1.0, 2.0])
        for v in rep.l1_riesz:
            assert v == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha,s", [(1.0, 0.5), (2.0, 1.0), (1.5, 0.5)])
    def test_homogeneity_constant(self, alpha, s):
        rep = kernel_l1_report(s, alpha, [0.5, 1.0, 2.0])
        assert rep.ratio_spread() <= 0.02

    def test_gaussian_derivative_oracle(self):
        # independent quadrature value for || |xi|-smoothed heat kernel ||_L1
        rep = kernel_l1_report(1.0, 2.0, [0.5, 1.0])
        for t, l1 in zip(rep.t_values, rep.l1_riesz):
            assert l1 == pytest.approx(gaussian_riesz1_l1(t), rel=5e-3)

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(GridResolutionError):
            kernel_l1_report(0.5, 1.0, [0.5, 1.0, 2.0], grid=grid1(512))

    def test_csv(self, tmp_path):
        rep = kernel_l1_report(1.0, 2.0, [0.5, 1.0])
        path = tmp_path / "kernel.csv"
        rep.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=3)
        assert data.shape == (2, 4)
        assert data[0, 0] == 0.5

    def test_csv_text(self, tmp_path):
        rep = KernelEstimateReport(
            s=1.0, alpha=2.0, t_values=[0.1, 1e-300], l1_riesz=[-0.0, np.nan],
            l1_bessel=[np.inf, 0.1], homogeneity_ratios=[1.0, 2.5],
            bound_constant=0.5, grid=grid1(8))
        path = tmp_path / "kernel.csv"
        rep.to_csv(path)
        rows = ["0.1,-0.0,inf,1.0", "1e-300,nan,0.1,2.5"]
        assert rows == [",".join(repr(float(v)) for v in r)
                        for r in zip(rep.t_values, rep.l1_riesz, rep.l1_bessel,
                                     rep.homogeneity_ratios)]
        assert path.read_text().splitlines() == [
            "# stable-kernel smoothed L1 report: t (time units), discrete L1 of "
            "|xi|^s- and (1+|xi|^2)^(s/2)-weighted kernels, "
            "ratio = l1_riesz * t^(s/alpha) (dimensionless)",
            f"# s=1.0 alpha=2.0 L={L1D!r} N=8 bound_constant=0.5",
            "t,l1_riesz,l1_bessel,ratio"] + rows
