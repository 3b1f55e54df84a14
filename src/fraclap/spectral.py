"""Periodic-grid spectral representation: grids, fields, transforms, norms.

Conventions (fixed once, used everywhere):

* Modes ``m`` run over the standard FFT layout per axis,
  ``{0, 1, ..., N/2-1, -N/2, ..., -1}``; frequencies are ``xi = 2*pi*m/L``.
* The forward transform carries ``1/N^n`` and the inverse carries ``1``, so
  the DC coefficient equals the field mean.
* Discrete norms are Parseval-weighted so that for band-limited fields they
  converge to the continuum integrals: ``l2^2 = L^n * sum |c_m|^2``
  (= ``sum |f(x_j)|^2 * (L/N)^n`` exactly, by the discrete Parseval identity).
  The solver's norms, ``h1_norm`` and ``h1_dot_norm``, weight ``|c_m|^2`` by
  ``1 + |xi|^2`` and ``|xi|^2``; every weighted sum goes through
  ``_weighted_norm``.
* Fourier-side ("hat") values are ``(L/(2*pi))^n * c``, the normalization
  in which a pointwise product in physical space becomes a plain lattice
  convolution with weight ``dxi^n`` and no stray ``2*pi`` factors; the
  dyadic-bump certificate machinery lives entirely on that side, and
  ``SpectralField.from_hat_values`` turns such values into a field.
* Fields are real-valued, so their coefficients are Hermitian,
  ``c(-m) = conj(c(m))``. A field carries no flag saying so:
  ``ProblemConfig`` checks it on the initial datum, ``forward_transform``
  rejects complex samples and ``inverse_transform`` returns real samples.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, require_finite

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Periodic box geometry and its frequency lattice.

    n: spatial dimension (1, 2 or 3); L: box side length; N: modes per axis
    (even, >= 8). Frequency spacing is 2*pi/L and must be <= 1/4 so the
    radius-1/2 ball around the bump center holds at least two lattice points
    per axis.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise DomainError("spatial dimension must satisfy 1 <= n <= 3")
        require_finite(L=self.L)
        # the norms weight by L^n, which stays a float for n <= 3
        if not 0 < self.L <= 1e100:
            raise DomainError(f"box size must satisfy 0 < L <= 1e100, got L = {self.L}")
        if self.N < 8 or self.N % 2 != 0:
            raise DomainError("modes per axis must satisfy N even, N >= 8")
        if self.dxi > 0.25 + 1e-12:
            raise DomainError(
                f"frequency resolution 2*pi/L = {self.dxi:.4g} must be <= 1/4")

    @property
    def dxi(self):
        """Frequency lattice spacing 2*pi/L."""
        return TWO_PI / self.L

    @property
    def dx(self):
        return self.L / self.N

    @property
    def xi_max(self):
        """Largest resolved |xi| per axis, pi*N/L."""
        return np.pi * self.N / self.L

    @property
    def shape(self):
        return (self.N,) * self.n

    @cached_property
    def modes(self):
        """Integer mode numbers along one axis, FFT layout."""
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)
        return m.astype(np.int64)

    @cached_property
    def xi_axes(self):
        return tuple(TWO_PI * self.modes / self.L for _ in range(self.n))

    @cached_property
    def xi_norm_sq(self):
        """|xi|^2 over the full lattice."""
        grids = np.meshgrid(*self.xi_axes, indexing="ij")
        return sum(g * g for g in grids)

    @property
    def dealias_limit(self):
        """Largest |m| per axis kept after a quadratic product (2/3 rule)."""
        return self.N // 3

    @cached_property
    def dealias_mask(self):
        """True on modes kept by the 2/3 rule (|m| <= dealias_limit per axis)."""
        keep = np.abs(self.modes) <= self.dealias_limit
        grids = np.meshgrid(*((keep,) * self.n), indexing="ij")
        mask = grids[0]
        for g in grids[1:]:
            mask = mask & g
        return mask

    def refined(self):
        """Halve the frequency spacing (L and N both doubled) keeping xi_max."""
        return replace(self, L=self.L * 2, N=self.N * 2)


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a real field on a periodic grid."""

    grid: GridSpec
    coeffs: np.ndarray

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def from_hat_values(cls, grid, hat):
        """The real field whose Fourier-side samples, in the product-free
        convolution convention, are hat (a Hermitian array)."""
        c = np.asarray(hat, dtype=np.complex128) * (TWO_PI / grid.L) ** grid.n
        return cls(grid, c)


def forward_transform(physical_field, grid):
    """Coefficients of a sampled real field; DC coefficient equals the mean."""
    arr = np.asarray(physical_field)
    if arr.shape != grid.shape:
        raise DomainError(f"field shape {arr.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(arr):
        raise DomainError("physical field must be real, got a complex array")
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite physical field")
    c = np.fft.fftn(arr) / grid.N ** grid.n
    return SpectralField(grid, c)


def inverse_transform(fld):
    """Physical samples of the real field fld (the real part of the inverse
    transform)."""
    return (np.fft.ifftn(fld.coeffs) * fld.grid.N ** fld.grid.n).real


def _weighted_norm(weight, coeffs, scale=1.0):
    """sqrt(scale * sum(weight * (re^2 + im^2))) of coeffs over the trailing
    weight.ndim axes: one number for a field, one per row for a stack of
    fields. +inf where a summed coefficient is not finite. The scalar scale
    multiplies the sum once instead of every term."""
    axes = tuple(range(coeffs.ndim - weight.ndim, coeffs.ndim))
    with np.errstate(invalid="ignore", over="ignore"):
        h = np.sqrt(scale * (weight * (coeffs.real ** 2 + coeffs.imag ** 2)).sum(axis=axes))
    return np.where(np.isfinite(h), h, np.inf)


def h1_weight(grid):
    """Weight L^n * (1 + |xi|^2) of the discrete H1 norm."""
    return grid.L ** grid.n * (1.0 + grid.xi_norm_sq)


def h1_norm(fld):
    """The solver's working norm; +inf for a non-finite field."""
    return float(_weighted_norm(h1_weight(fld.grid), fld.coeffs))


def h1_dot_norm(fld):
    """Homogeneous H1 norm; +inf for a non-finite field."""
    grid = fld.grid
    return float(_weighted_norm(grid.xi_norm_sq, fld.coeffs, scale=grid.L ** grid.n))


def dealiased_square(coeffs, grid):
    """Coefficients of the pointwise square of the field(s) with coefficients
    coeffs, dealiased, in place: coeffs is a complex field, or a stack of
    fields whose trailing grid.n axes are the spatial ones, and it is
    overwritten and returned.

    Both transforms run in that one buffer. Computed as inverse transform ->
    square -> forward transform, which equals the lattice autoconvolution of
    the coefficients on the retained modes (the 2/3 rule removes exactly the
    aliased band).
    """
    Nn = grid.N ** grid.n
    axes = tuple(range(coeffs.ndim - grid.n, coeffs.ndim))
    v = np.fft.ifftn(coeffs, axes=axes, out=coeffs)
    np.multiply(v, Nn, out=v)
    np.multiply(v, v, out=v)
    np.fft.fftn(v, axes=axes, out=v)
    np.true_divide(v, Nn, out=v)
    np.copyto(v, 0.0, where=~grid.dealias_mask)
    return v


#: rows per formatting block; bounds the Python objects alive at once
_CSV_BLOCK_ROWS = 1 << 16


def write_csv(path, comments, header, columns):
    """Write a table: ``# {c}`` per comment, the header row, then one row per
    entry of the equal-length 1-D columns.

    Each cell is repr() of the Python int or float the entry converts to
    (shortest round-trip digits). Rows are formatted in blocks through
    ``tolist()``, which also keeps numpy scalar reprs out of the file.
    """
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[lo:lo + _CSV_BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join(map(fmt.__mod__, zip(*block))))

