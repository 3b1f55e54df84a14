"""Lattice convolution of the certificate against the brute-force oracle."""

import numpy as np

from fraclap.certificate import convolve_lattice
from oracles import brute_window_conv


def test_direct_conv_1d_matches_oracle():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, 37)
    out = convolve_lattice(a, a, 0.25)
    assert np.abs(out - brute_window_conv(a, a, 0.25)).max() <= 1e-13


def test_direct_conv_2d_matches_oracle():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (9, 11))
    out = convolve_lattice(a, a, 0.5)
    assert np.abs(out - brute_window_conv(a, a, 0.5)).max() <= 1e-12
