"""Lattice autoconvolution of the certificate against the brute-force and
two-spectrum oracles, and its memory peak."""

import tracemalloc

import numpy as np
import pytest

from fraclap.certificate import _seed_window, convolve_lattice
from oracles import brute_window_conv, two_spectrum_autoconv


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
    return win.radius_grid() * win.values if weighted else win.values


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
