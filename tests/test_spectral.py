import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (DomainError, GridSpec, SpectralField, forward_transform,
                     h1_norm, inverse_transform)
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
        # resolution bound: 2*pi/L <= 1/4, with no slack
        with pytest.raises(DomainError):
            GridSpec(1, 4 * np.pi, 64)
        with pytest.raises(DomainError):
            GridSpec(1, np.nextafter(8 * np.pi, 0), 64)   # spacing 0.25000000000000006
        assert GridSpec(1, 8 * np.pi, 64).dxi == 0.25

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
        # fields are real: complex samples are rejected, not split into a
        # non-Hermitian field
        with pytest.raises(DomainError, match="must be real"):
            forward_transform(np.full(g.N, 1.0 + 1.0j), g)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        g = grid1(32)
        arr = np.random.default_rng(seed).standard_normal(g.shape)
        f = forward_transform(arr, g)
        phys_l2 = np.sqrt((arr ** 2).sum() * g.dx ** g.n)
        l2 = float(spectral._weighted_norm(np.ones(g.shape), f.coeffs, scale=g.L ** g.n))
        assert l2 == pytest.approx(phys_l2, rel=1e-12)


class TestNorms:
    def test_zero_field(self):
        f = SpectralField.zero(grid1())
        assert h1_norm(f) == 0

    def test_single_mode_ratios(self):
        g = grid1()
        c = np.zeros(g.shape, dtype=complex)
        m = int(round(2.0 / g.dxi))  # |xi| = 2
        c[m] = 1.0
        f = SpectralField(g, c)
        l2 = np.sqrt(g.L ** g.n)      # L^n * sum |c|^2 with one unit coefficient
        assert h1_norm(f) / l2 == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_band_limited_refinement_stability(self):
        # extending the mode range leaves a band-limited field's norm fixed
        g = grid1(32)
        rng = np.random.default_rng(12)
        c = np.zeros(g.shape, dtype=complex)
        c[:8] = rng.uniform(0.1, 1.0, 8)
        big = GridSpec(1, g.L, 2 * g.N)
        c2 = np.zeros(big.shape, dtype=complex)
        c2[:8] = c[:8]
        a = SpectralField(g, c)
        b = SpectralField(big, c2)
        assert h1_norm(b) == pytest.approx(h1_norm(a), rel=1e-12)

    def test_overflow_sentinel(self):
        # a non-finite field has norm +inf
        g = grid1()
        f = SpectralField(g, np.full(g.shape, np.nan, dtype=complex))
        assert h1_norm(f) == np.inf


def _square(c, g):
    """The dealiased square of the field with coefficients c, through a
    layout that stores every spectrum entry."""
    layout = spectral.BandLayout(g, np.ones(g.shape, dtype=bool))
    rows = layout.stored(c)[None]
    sq = spectral.dealiased_square(rows, layout, spectral.square_scratch(g, 1, rows.dtype))
    return layout.fields(sq)[0]


class TestPointwiseSquare:
    def test_zero_and_constant(self):
        g = grid1()
        zero = _square(SpectralField.zero(g).coeffs, g)
        assert np.abs(zero).max() == 0
        f = forward_transform(np.full(g.N, 3.0), g)
        sq = _square(f.coeffs, g)
        assert sq[0] == pytest.approx(9.0)

    def test_band_support_doubles(self):
        # field supported in |m| <= 5 squares into |m| <= 10
        g = grid1()
        rng = np.random.default_rng(3)
        c = np.zeros(g.shape, dtype=complex)
        c[: 6] = rng.uniform(0.5, 1.0, 6)
        c[-5:] = c[1:6][::-1]
        sq = _square(c, g)
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
        f = SpectralField(g, sym.astype(complex))
        sq = _square(f.coeffs, g)
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_real_transforms_hermitian_and_match_complex(self, n):
        # sampled noise: coefficients at every mode, Hermitian to rounding.
        # The half-spectrum square is exactly Hermitian, which the complex
        # transforms' square is not, and agrees with it to rounding
        g = grid2(32) if n == 2 else GridSpec(3, L1D, 16)
        x = np.random.default_rng(7 + n).standard_normal(g.shape)
        c = forward_transform(x, g).coeffs
        sq = _square(c, g)
        mirror = sq
        for ax in range(n):
            mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
        assert np.array_equal(sq, np.conj(mirror))
        Nn = g.N ** n
        v = np.fft.ifftn(c) * Nn
        expect = np.where(g.dealias_mask, np.fft.fftn(v * v) / Nn, 0.0)
        assert np.abs(sq - expect).max() <= 1e-15 * np.abs(expect).max()

    @pytest.mark.parametrize("N", [16, 40, 64])
    @pytest.mark.parametrize("n", [2, 3])
    def test_even_fields_match_complex_full_lattice(self, n, N):
        # seeded even real fields, c(-m) = c(m) real, stored as float rows:
        # the band and, past it, the modes |m| <= N//3 + 2 per axis, so some
        # stored entries sit in last-axis columns past N//3. Two rows in a
        # three-row scratch; the square agrees with the complex square of
        # the full lattice, and its coefficients are real and even
        g = GridSpec(n, L1D, N)
        rng = np.random.default_rng(N + n)
        near = np.abs(g.modes) <= g.dealias_limit + 2
        support = np.ones(g.shape, dtype=bool)
        for m in np.meshgrid(*((near,) * n), indexing="ij"):
            support &= m
        c = np.where(support, rng.uniform(-1.0, 1.0, (2,) + g.shape), 0.0)
        for ax in range(1, n + 1):
            c = c + np.roll(np.flip(c, axis=ax), 1, axis=ax)
        layout = spectral.BandLayout(g, support)
        assert layout.half_cols == g.dealias_limit + 3
        rows = np.stack([layout.stored(ci) for ci in c])
        assert rows.dtype == np.float64
        sq = layout.fields(spectral.dealiased_square(
            rows, layout, spectral.square_scratch(g, 3, rows.dtype)))
        axes = tuple(range(1, n + 1))
        v = np.fft.ifftn(c, axes=axes) * g.N ** n
        expect = np.where(g.dealias_mask, np.fft.fftn(v * v, axes=axes) / g.N ** n, 0.0)
        assert np.abs(sq - expect).max() <= 1e-14 * np.abs(expect).max()
        assert not np.any(sq.imag)
        mirror = sq
        for ax in axes:
            mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
        assert np.array_equal(sq, mirror)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        # every cell is the repr of a float, which reads back to the same double
        for g in (grid1(16), grid2(8), GridSpec(3, L1D, 8)):
            rng = np.random.default_rng(6)
            c = forward_transform(rng.standard_normal(g.shape), g).coeffs.ravel()
            path = tmp_path / f"field{g.n}.csv"
            spectral.write_csv(path, ["coefficients"], "re,im", [c.real, c.imag])
            back = np.loadtxt(path, delimiter=",", skiprows=2)
            assert np.array_equal(back[:, 0], c.real) and np.array_equal(back[:, 1], c.imag)

    def test_csv_text(self, tmp_path, monkeypatch):
        g = grid2(8)
        values = [0.1, -0.0, np.nan, np.inf, 1e-300, -np.inf, 2.5, 1.0]
        c = np.zeros(g.shape, dtype=np.complex128)
        c.real[0] = values
        c.imag[:, 0] = values[::-1]
        lattice = np.meshgrid(g.modes, g.modes, indexing="ij")
        columns = ([m.ravel() for m in lattice] + [np.zeros(c.size, dtype=np.int64)]
                   + [c.real.ravel(), c.imag.ravel()])
        comments = ["spectral field: mode indices per axis (dimensionless), "
                    "coefficient real/imag parts (field units)",
                    f"n=2 L={L1D!r} N=8 is_real=0"]
        path = tmp_path / "field.csv"
        spectral.write_csv(path, comments, "m1,m2,m3,re,im", columns)
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
        spectral.write_csv(tmp_path / "blocks.csv", comments, "m1,m2,m3,re,im", columns)
        assert (tmp_path / "blocks.csv").read_text() == path.read_text()
