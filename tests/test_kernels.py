"""Lattice autoconvolution of the certificate against the brute-force and
two-spectrum oracles, and its memory peak."""

import tracemalloc

import numpy as np
import pytest

from fraclap import build_omega_sequence, default_certificate_grid
from fraclap.certificate import _seed_window, convolve_lattice
from oracles import brute_window_conv, two_spectrum_autoconv, window_radius


def test_direct_conv_1d_matches_oracle():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, 37)
    out = convolve_lattice(a, 0.25)
    assert np.abs(out - brute_window_conv(a, a, 0.25)).max() <= 1e-13


def test_direct_conv_2d_matches_oracle():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (9, 11))
    out = convolve_lattice(a, 0.5)
    assert np.abs(out - brute_window_conv(a, a, 0.5)).max() <= 1e-12


def _level0_window_n3(weighted):
    # the certify n=3 level-0 window: 37^3 samples, padded to 128^3
    win = _seed_window(3, 1.0 / 32.0)
    return window_radius(win) * win.values if weighted else win.values


@pytest.fixture(scope="module")
def level1_window_n3():
    # the certify n=3 level-1 window: 73^3 samples, padded to 256^3
    _, window = build_omega_sequence(1, default_certificate_grid(3))[1]
    return window


@pytest.mark.parametrize("shape", [(37,), (1025,), (9, 11), (73, 73), (5, 8, 13)])
def test_autoconv_bits_equal_two_spectrum_irfftn(shape):
    a = np.random.default_rng(len(shape)).uniform(0, 1, shape)
    out = convolve_lattice(a, 0.25)
    ref = two_spectrum_autoconv(a, 0.25)
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "radius_weighted"])
def test_autoconv_bits_equal_two_spectrum_irfftn_certify_n3_level0(weighted):
    a = _level0_window_n3(weighted)
    out = convolve_lattice(a, 1.0 / 32.0)
    ref = two_spectrum_autoconv(a, 1.0 / 32.0)
    assert out.shape == ref.shape == (73, 73, 73)
    assert out.tobytes() == ref.tobytes()


def test_autoconv_peak_memory_within_two_spectra():
    # one padded spectrum of the 37^3 window is 128 * 128 * 65 complex128
    a = _level0_window_n3(False)
    spectrum_bytes = 128 * 128 * 65 * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        convolve_lattice(a, 1.0 / 32.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * spectrum_bytes, f"peak {peak / spectrum_bytes:.2f} spectra"


# last-axis half spectra of 1 and 5 columns (under one slab of 8), 9 (one
# slab and one column; a power-of-two FFT length never gives exactly 8) and
# 65 (eight slabs and one column); output axis 0 of 9, 17, 5 and 11 rows
@pytest.mark.parametrize("shape", [(5, 8, 1), (9, 3), (3, 5), (6, 7, 40)])
def test_autoconv_bits_equal_two_spectrum_irfftn_at_slab_edges(shape):
    a = np.random.default_rng(sum(shape)).uniform(0, 1, shape)
    out = convolve_lattice(a, 0.25)
    ref = two_spectrum_autoconv(a, 0.25)
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "radius_weighted"])
def test_autoconv_bits_equal_two_spectrum_irfftn_certify_n3_level1(level1_window_n3,
                                                                    weighted):
    win = level1_window_n3
    a = window_radius(win) * win.values if weighted else win.values
    out = convolve_lattice(a, win.h)
    ref = two_spectrum_autoconv(a, win.h)
    assert out.shape == ref.shape == (145, 145, 145)
    assert out.tobytes() == ref.tobytes()


def test_autoconv_peak_memory_within_cropped_half_spectrum(level1_window_n3):
    # the padded half spectrum of the 73^3 window would be 256 * 256 * 129
    # complex128 (135 MB); the bound is the cropped half spectrum, the
    # output, the input's last-axis rfft and two padded slabs of 8 columns
    a = level1_window_n3.values
    bound = (145 * 145 * 129 * 16 + 145 ** 3 * 8 + 73 * 73 * 129 * 16
             + 2 * 256 * 256 * 8 * 16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        convolve_lattice(a, level1_window_n3.h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
