import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (DomainError, GridSpec, SpectralField, field_from_csv,
                     field_to_csv, forward_transform, inverse_transform,
                     sobolev_norms)
from fraclap import spectral
from oracles import brute_mode_autoconv

L1D = 16 * np.pi


def grid1(N=64):
    return GridSpec(1, L1D, N)


def grid2(N=32):
    return GridSpec(2, L1D, N)


class TestGridSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            GridSpec(1, L1D, 7)   # odd
        with pytest.raises(DomainError):
            GridSpec(1, L1D, 6)   # even but below the minimum
        GridSpec(1, L1D, 8)
        with pytest.raises(DomainError):
            GridSpec(1, -1.0, 64)
        with pytest.raises(DomainError):
            GridSpec(4, L1D, 64)
        # resolution bound: 2*pi/L <= 1/4
        with pytest.raises(DomainError):
            GridSpec(1, 4 * np.pi, 64)

    def test_lattice(self):
        g = grid1(16)
        assert g.dxi == pytest.approx(1 / 8)
        assert g.xi_max == pytest.approx(np.pi * 16 / L1D)
        assert list(g.modes[:3]) == [0, 1, 2]
        assert g.modes[-1] == -1

    def test_refined_and_extended(self):
        g = grid1(64)
        r = g.refined()
        assert r.dxi == pytest.approx(g.dxi / 2) and r.xi_max == pytest.approx(g.xi_max)
        e = g.extended()
        assert e.dxi == pytest.approx(g.dxi) and e.xi_max == pytest.approx(2 * g.xi_max)


class TestTransforms:
    def test_constant_field_dc_only(self):
        g = grid1()
        f = forward_transform(np.ones(g.N), g)
        assert f.coeffs[0] == pytest.approx(1.0)
        assert np.abs(f.coeffs[1:]).max() < 1e-14

    def test_cosine_two_modes(self):
        g = grid1()
        x = np.arange(g.N) * g.dx
        xi = 3 * g.dxi
        f = forward_transform(np.cos(xi * x), g)
        c = f.coeffs.copy()
        assert c[3] == pytest.approx(0.5, abs=1e-13)
        assert c[-3] == pytest.approx(0.5, abs=1e-13)
        c[3] = c[-3] = 0
        assert np.abs(c).max() < 1e-13

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for g in (grid1(), grid2()):
            arr = rng.standard_normal(g.shape)
            back = inverse_transform(forward_transform(arr, g))
            assert np.abs(back - arr).max() <= 1e-12 * np.abs(arr).max()

    def test_errors(self):
        g = grid1()
        with pytest.raises(DomainError):
            forward_transform(np.ones(g.N + 1), g)
        bad = np.ones(g.N)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            forward_transform(bad, g)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        g = grid1(32)
        arr = np.random.default_rng(seed).standard_normal(g.shape)
        f = forward_transform(arr, g)
        phys_l2 = np.sqrt((arr ** 2).sum() * g.dx ** g.n)
        assert sobolev_norms(f).l2 == pytest.approx(phys_l2, rel=1e-12)


class TestNorms:
    def test_zero_field(self):
        rep = sobolev_norms(SpectralField.zero(grid1()), [0.0, 1.0, 2.5])
        assert rep.l2 == 0 and all(v == 0 for v in rep.hs.values())

    def test_order_zero_is_l2(self):
        rng = np.random.default_rng(1)
        f = forward_transform(rng.standard_normal(grid1().shape), grid1())
        rep = sobolev_norms(f, [0.0])
        assert rep.hs[0.0] == rep.l2

    def test_single_mode_ratios(self):
        g = grid1()
        c = np.zeros(g.shape, dtype=complex)
        m = int(round(2.0 / g.dxi))  # |xi| = 2
        c[m] = 1.0
        f = SpectralField(g, c)
        rep = sobolev_norms(f, [1.0])
        assert rep.hs_dot[1.0] / rep.l2 == pytest.approx(2.0, rel=1e-12)
        assert rep.hs[1.0] / rep.l2 == pytest.approx(np.sqrt(5.0), rel=1e-12)
        assert rep.l1_fourier == 1.0   # hat-side L1 collapses to sum |c|

    def test_hs_dot_below_hs_and_monotone(self):
        rng = np.random.default_rng(2)
        f = forward_transform(rng.standard_normal(grid1().shape), grid1())
        rep = sobolev_norms(f, [0.5, 1.0, 2.0])
        for s in (0.5, 1.0, 2.0):
            assert rep.hs_dot[s] <= rep.hs[s]
        assert rep.hs[0.5] <= rep.hs[1.0] <= rep.hs[2.0]

    def test_band_limited_refinement_stability(self):
        # extending the mode range leaves a band-limited field's norms fixed
        g = grid1(32)
        rng = np.random.default_rng(12)
        c = np.zeros(g.shape, dtype=complex)
        c[:8] = rng.uniform(0.1, 1.0, 8)
        big = g.extended()
        c2 = np.zeros(big.shape, dtype=complex)
        c2[:8] = c[:8]
        a = sobolev_norms(SpectralField(g, c), [1.0])
        b = sobolev_norms(SpectralField(big, c2), [1.0])
        assert b.hs[1.0] == pytest.approx(a.hs[1.0], rel=1e-12)

    def test_overflow_sentinel(self):
        g = grid1()
        c = np.full(g.shape, np.nan, dtype=complex)
        f = SpectralField(g, c, overflowed=True)
        assert sobolev_norms(f).l2 == np.inf
        with pytest.raises(DomainError):
            sobolev_norms(SpectralField(g, c))


class TestPointwiseSquare:
    def test_zero_and_constant(self):
        g = grid1()
        zero = spectral.dealiased_square(SpectralField.zero(g).coeffs, g)
        assert np.abs(zero).max() == 0
        f = forward_transform(np.full(g.N, 3.0), g)
        sq = spectral.dealiased_square(f.coeffs, g)
        assert sq[0] == pytest.approx(9.0)

    def test_band_support_doubles(self):
        # field supported in |m| <= 5 squares into |m| <= 10
        g = grid1()
        rng = np.random.default_rng(3)
        c = np.zeros(g.shape, dtype=complex)
        c[: 6] = rng.uniform(0.5, 1.0, 6)
        c[-5:] = c[1:6][::-1]
        sq = spectral.dealiased_square(c, g)
        outside = np.abs(g.modes) > 10
        assert np.abs(sq[outside]).max() <= 1e-13 * np.abs(sq).max()

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_brute_autoconvolution(self, n):
        g = grid1(48) if n == 1 else grid2(16)
        rng = np.random.default_rng(4 + n)
        band = np.abs(g.modes) <= g.N // 8
        masks = np.meshgrid(*((band,) * n), indexing="ij")
        mask = masks[0]
        for m in masks[1:]:
            mask = mask & m
        raw = np.where(mask, rng.uniform(0, 1, g.shape), 0.0)
        sym = raw
        for ax in range(n):
            sym = sym + np.roll(np.flip(sym, axis=ax), 1, axis=ax)
        f = SpectralField(g, sym.astype(complex), is_real=True)
        sq = spectral.dealiased_square(f.coeffs, g)
        if n == 1:
            expect = brute_mode_autoconv(f.coeffs, g.modes)
        else:
            # separable brute force: loop over 2D mode pairs
            N = g.N
            expect = np.zeros(g.shape, dtype=complex)
            idx = list(g.modes)
            pos = {m: i for i, m in enumerate(idx)}
            nz = np.argwhere(np.abs(f.coeffs) > 0)
            for a1, a2 in nz:
                for b1, b2 in nz:
                    m1 = idx[a1] + idx[b1]
                    m2 = idx[a2] + idx[b2]
                    if m1 in pos and m2 in pos:
                        expect[pos[m1], pos[m2]] += f.coeffs[a1, a2] * f.coeffs[b1, b2]
        keep = g.dealias_mask
        scale = np.abs(expect).max()
        assert np.abs((sq - expect)[keep]).max() <= 1e-10 * scale


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        for g in (grid1(16), grid2(8), GridSpec(3, L1D, 8)):
            rng = np.random.default_rng(6)
            f = forward_transform(rng.standard_normal(g.shape), g)
            path = tmp_path / f"field{g.n}.csv"
            field_to_csv(f, path)
            back = field_from_csv(path, g)
            assert np.abs(back.coeffs - f.coeffs).max() == 0.0

    def test_csv_rejects_out_of_range_mode(self, tmp_path):
        # modes -8..7 of an N=16 file do not fit N=8's [-4, 4): no wrapping
        path = tmp_path / "field.csv"
        field_to_csv(SpectralField.zero(grid1(16)), path)
        with pytest.raises(DomainError):
            field_from_csv(path, grid1(8))

    def test_csv_text(self, tmp_path, monkeypatch):
        g = grid2(8)
        values = [0.1, -0.0, np.nan, np.inf, 1e-300, -np.inf, 2.5, 1.0]
        c = np.zeros(g.shape, dtype=np.complex128)
        c.real[0] = values
        c.imag[:, 0] = values[::-1]
        path = tmp_path / "field.csv"
        field_to_csv(SpectralField(g, c), path)
        modes = [0, 1, 2, 3, -4, -3, -2, -1]
        rows = [f"{modes[i]},{modes[j]},0,{float(c[i, j].real)!r},{float(c[i, j].imag)!r}"
                for i in range(8) for j in range(8)]
        assert path.read_text().splitlines() == [
            "# spectral field: mode indices per axis (dimensionless), "
            "coefficient real/imag parts (field units)",
            f"# n=2 L={L1D!r} N=8 is_real=0",
            "m1,m2,m3,re,im"] + rows
        assert rows[:8] == ["0,0,0,0.1,1.0", "0,1,0,-0.0,0.0", "0,2,0,nan,0.0",
                            "0,3,0,inf,0.0", "0,-4,0,1e-300,0.0", "0,-3,0,-inf,0.0",
                            "0,-2,0,2.5,0.0", "0,-1,0,1.0,0.0"]
        # rows split across formatting blocks, the last one partial
        monkeypatch.setattr(spectral, "_CSV_BLOCK_ROWS", 5)
        field_to_csv(SpectralField(g, c), tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_text() == path.read_text()
