"""Hot numeric kernels: direct lattice convolution and the sweep recurrence.

Two selectable backends:

* numba ``@njit`` kernels (default when numba is importable), and
* pure-numpy fallbacks.

Set ``FRACLAP_NUMBA=0`` to force the numpy path; ``FRACLAP_THREADS=k`` caps
the numba threading layer. FFT-based convolution (used automatically above a
size threshold, where it always wins) is numpy in both backends.
"""

import os

import numpy as np

_flag = os.environ.get("FRACLAP_NUMBA", "").strip().lower()
_want_numba = _flag not in ("0", "false", "no", "off")

NUMBA_ENABLED = False
if _want_numba:
    try:
        import numba
        from numba import njit, prange

        _threads = os.environ.get("FRACLAP_THREADS", "").strip()
        if _threads:
            numba.set_num_threads(max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS)))
        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


def backend_name():
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# direct linear convolution, full output (len(a) + len(b) - 1 per axis)
#
# 1D stays on np.convolve in both backends: numpy's SIMD correlate beats a
# jitted loop at every size. The jitted paths are the 2D stencil and the
# sweep recurrence, where fusion wins.

def _conv1_numpy(a, b):
    return np.convolve(a, b)


def _conv2_numpy(a, b):
    na, ma = a.shape
    nb, mb = b.shape
    out = np.zeros((na + nb - 1, ma + mb - 1))
    # accumulate b shifted by every support point of a; a is the smaller array
    for i in range(na):
        row = a[i]
        nz = np.nonzero(row)[0]
        for j in nz:
            out[i:i + nb, j:j + mb] += row[j] * b
    return out


if NUMBA_ENABLED:

    @njit(cache=True, parallel=True)
    def _conv2_numba(a, b):
        na, ma = a.shape
        nb, mb = b.shape
        out = np.zeros((na + nb - 1, ma + mb - 1))
        for i in prange(na + nb - 1):
            ilo = max(0, i - nb + 1)
            ihi = min(na - 1, i)
            for k in range(ma + mb - 1):
                klo = max(0, k - mb + 1)
                khi = min(ma - 1, k)
                acc = 0.0
                for j in range(ilo, ihi + 1):
                    brow = b[i - j]
                    for m in range(klo, khi + 1):
                        acc += a[j, m] * brow[k - m]
                out[i, k] = acc
        return out


def _conv_direct(a, b):
    if a.ndim == 1:
        return _conv1_numpy(a, b)
    if a.ndim == 2:
        if NUMBA_ENABLED:
            return _conv2_numba(np.ascontiguousarray(a, dtype=np.float64),
                                np.ascontiguousarray(b, dtype=np.float64))
        return _conv2_numpy(a, b)
    raise ValueError("direct convolution implemented for 1 and 2 dimensions only")


def _conv_fft(a, b):
    out_shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    fshape = tuple(1 << int(np.ceil(np.log2(s))) for s in out_shape)
    axes = tuple(range(a.ndim))
    fa = np.fft.rfftn(a, s=fshape, axes=axes)
    fb = np.fft.rfftn(b, s=fshape, axes=axes)
    out = np.fft.irfftn(fa * fb, s=fshape, axes=axes)
    return np.ascontiguousarray(out[tuple(slice(0, s) for s in out_shape)])


# direct path above this much multiply-add work always loses to FFT
_FFT_CUTOVER_WORK = 1 << 21


def convolve_lattice(a, b, spacing, method="auto"):
    """Linear convolution of two sampled functions on a uniform frequency
    lattice, scaled by ``spacing**ndim`` so it approximates the continuum
    convolution integral.

    Returns the full convolution; the support of the result is exactly the
    Minkowski sum of the input supports (direct method gives exact zeros
    outside it, FFT leaves roundoff noise).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != b.ndim:
        raise ValueError("operands must have matching dimensionality")
    if method == "auto":
        out_points = int(np.prod([sa + sb - 1 for sa, sb in zip(a.shape, b.shape)]))
        work = out_points * int(np.prod(a.shape))
        method = "fft" if (a.ndim > 2 or work > _FFT_CUTOVER_WORK) else "direct"
    if method == "fft" or a.ndim > 2:
        out = _conv_fft(a, b)
    elif method == "direct":
        out = _conv_direct(a, b)
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    return out * spacing ** a.ndim


# ---------------------------------------------------------------------------
# fused step of the integral recurrence:
#   I_new = decay * (I + half_dt * g_prev) + half_dt * g_new

def _sweep_numpy(I, decay, g_prev, g_new, half_dt):
    return decay * (I + half_dt * g_prev) + half_dt * g_new


if NUMBA_ENABLED:

    @njit(cache=True)
    def _sweep_numba(I, decay, g_prev, g_new, half_dt):
        out = np.empty_like(I)
        for i in range(I.shape[0]):
            out[i] = decay[i] * (I[i] + half_dt * g_prev[i]) + half_dt * g_new[i]
        return out


def sweep_step(I, decay, g_prev, g_new, half_dt):
    """One trapezoid step of ``int_0^t exp(-(t-s)L) G(s) ds`` with the decay
    multiplier applied exactly. Flattens to 1D internally; shape preserved."""
    if NUMBA_ENABLED:
        flat = _sweep_numba(I.ravel(), decay.ravel(),
                            g_prev.ravel(), g_new.ravel(), half_dt)
        return flat.reshape(I.shape)
    return _sweep_numpy(I, decay, g_prev, g_new, half_dt)
