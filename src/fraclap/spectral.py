"""Periodic-grid spectral representation: grids, fields, transforms, norms.

Conventions (fixed once, used everywhere):

* Modes ``m`` run over the standard FFT layout per axis,
  ``{0, 1, ..., N/2-1, -N/2, ..., -1}``; frequencies are ``xi = 2*pi*m/L``.
* The forward transform carries ``1/N^n`` and the inverse carries ``1``, so
  the DC coefficient equals the field mean.
* Discrete norms are Parseval-weighted so that for band-limited fields they
  converge to the continuum integrals: ``l2^2 = L^n * sum |c_m|^2``
  (= ``sum |f(x_j)|^2 * (L/N)^n`` exactly, by the discrete Parseval identity),
  and the order-s norms weight ``|c_m|^2`` by ``(1+|xi|^2)^s`` or ``|xi|^(2s)``.
* ``hat_values`` returns ``(L/(2*pi))^n * c``, the normalization of the
  Fourier-side function for which a pointwise product in physical space
  becomes a plain lattice convolution with weight ``dxi^n`` and no stray
  ``2*pi`` factors. The dyadic-bump certificate machinery lives entirely on
  that side.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, GridResolutionError, require_finite

TWO_PI = 2.0 * np.pi

#: largest retained |m| after a quadratic product, per axis (2/3 rule)
def _dealias_limit(N):
    return N // 3


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
        if self.L <= 0:
            raise DomainError("box size must satisfy L > 0")
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

    @cached_property
    def dealias_mask(self):
        """True on modes kept by the 2/3 rule (|m| <= N//3 per axis)."""
        lim = _dealias_limit(self.N)
        keep = np.abs(self.modes) <= lim
        grids = np.meshgrid(*((keep,) * self.n), indexing="ij")
        mask = grids[0]
        for g in grids[1:]:
            mask = mask & g
        return mask

    def refined(self, factor=2):
        """Halve the frequency spacing (L and N both scaled) keeping xi_max."""
        return replace(self, L=self.L * factor, N=self.N * factor)

    def extended(self, factor=2):
        """Double xi_max at fixed frequency spacing (N scaled, L kept)."""
        return replace(self, N=self.N * factor)

    def require_corona_resolution(self, k_max):
        """Check this grid can host the dyadic bump sequence up to level k_max."""
        need = np.sqrt(self.n) * 2.0 ** (k_max + 1)
        if not self.xi_max > need:
            raise GridResolutionError(
                f"max resolved |xi| per axis = {self.xi_max:.4g} must exceed "
                f"sqrt(n)*2^(k_max+1) = {need:.4g} for level k_max = {k_max}")


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a field on a periodic grid.

    ``is_real`` flags Hermitian symmetry (the field represents a real-valued
    function); ``overflowed`` marks fields past the solver blow-up threshold,
    for which norm queries return +inf sentinels instead of erroring.
    """

    grid: GridSpec
    coeffs: np.ndarray
    is_real: bool = False
    overflowed: bool = False

    @classmethod
    def zero(cls, grid, is_real=True):
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128), is_real=is_real)

    def check_hermitian(self, tol=1e-12):
        flipped = self.coeffs
        for ax in range(self.grid.n):
            flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
        scale = np.abs(self.coeffs).max() or 1.0
        return np.abs(np.conj(flipped) - self.coeffs).max() <= tol * scale

    def hat_values(self):
        """Fourier-side samples in the product-free convolution convention."""
        return (self.grid.L / TWO_PI) ** self.grid.n * self.coeffs

    @classmethod
    def from_hat_values(cls, grid, hat, is_real=False):
        c = np.asarray(hat, dtype=np.complex128) * (TWO_PI / grid.L) ** grid.n
        return cls(grid, c, is_real=is_real)

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy(), self.is_real, self.overflowed)


@dataclass
class NormReport:
    """Discrete Sobolev norms of one field; hs/hs_dot keyed by order."""

    l2: float
    hs: dict
    hs_dot: dict
    l1_fourier: float


def forward_transform(physical_field, grid, is_real=True):
    """Coefficients of a sampled field; DC coefficient equals the mean."""
    arr = np.asarray(physical_field)
    if arr.shape != grid.shape:
        raise DomainError(f"field shape {arr.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite physical field")
    c = np.fft.fftn(arr) / grid.N ** grid.n
    return SpectralField(grid, c, is_real=is_real and np.isrealobj(arr))


def inverse_transform(fld):
    """Physical samples; returns a real array for real-flagged fields."""
    values = np.fft.ifftn(fld.coeffs) * fld.grid.N ** fld.grid.n
    if fld.is_real:
        return values.real
    return values


def _weighted_norm(weight, coeffs, axes=None, scale=1.0):
    """sqrt(scale * sum(weight * (re^2 + im^2))) of coeffs over axes (all by
    default); +inf where a summed coefficient is not finite. The scalar scale
    multiplies the sum once instead of every term."""
    with np.errstate(invalid="ignore", over="ignore"):
        h = np.sqrt(scale * (weight * (coeffs.real ** 2 + coeffs.imag ** 2)).sum(axis=axes))
    return np.where(np.isfinite(h), h, np.inf)


def sobolev_norms(fld, orders=(1.0,)):
    """Parseval-weighted discrete norms; +inf sentinels for overflowed fields."""
    grid = fld.grid
    c = fld.coeffs
    if not np.all(np.isfinite(c)):
        if not fld.overflowed:
            raise DomainError("non-finite field without overflow flag")
        inf = float("inf")
        return NormReport(inf, {float(s): inf for s in orders},
                          {float(s): inf for s in orders}, inf)
    w = grid.L ** grid.n
    xi2 = grid.xi_norm_sq
    l2 = float(_weighted_norm(1.0, c, scale=w))
    hs = {}
    hs_dot = {}
    for s in orders:
        s = float(s)
        # L^n inside the weight, as in h1_weight: hs[1.0] is h1_norm bit for bit
        hs[s] = float(_weighted_norm(w * (1.0 + xi2) ** s, c))
        with np.errstate(divide="ignore"):
            riesz_w = np.where(xi2 > 0, xi2 ** s, 1.0 if s == 0 else 0.0)
        hs_dot[s] = float(_weighted_norm(riesz_w, c, scale=w))
    # L1(dxi) of the hat-side function: (L/2pi)^n * sum|c| * dxi^n collapses
    # to the plain coefficient sum
    l1f = float(np.abs(c).sum())
    return NormReport(l2, hs, hs_dot, l1f)


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


def dealias(fld):
    """2/3-rule truncation; idempotent projection, applied after every square."""
    c = np.where(fld.grid.dealias_mask, fld.coeffs, 0.0)
    return SpectralField(fld.grid, c, fld.is_real, fld.overflowed)


def dealiased_square(coeffs, grid, axes=None, out=None):
    """Coefficients of the pointwise square of the field(s) with coefficients
    coeffs, dealiased; axes are the spatial axes (all by default, the trailing
    n for a stack of nodes).

    The result is written to out (a complex array shaped like coeffs, which
    may be coeffs itself) and returned; without out it goes to a new array.
    Both transforms run in that one buffer. Computed as inverse transform ->
    square -> forward transform, which equals the lattice autoconvolution of
    the coefficients on the retained modes (the 2/3 rule removes exactly the
    aliased band).
    """
    Nn = grid.N ** grid.n
    v = np.fft.ifftn(coeffs, axes=axes, out=out)
    np.multiply(v, Nn, out=v)
    np.multiply(v, v, out=v)
    np.fft.fftn(v, axes=axes, out=v)
    np.true_divide(v, Nn, out=v)
    np.copyto(v, 0.0, where=~grid.dealias_mask)
    return v


def pointwise_square(fld):
    """Coefficients of the pointwise square of a real-flagged field, dealiased."""
    if not fld.is_real:
        raise DomainError("pointwise_square requires a real-flagged field")
    return SpectralField(fld.grid, dealiased_square(fld.coeffs, fld.grid), is_real=True)


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


def field_to_csv(fld, path):
    """Write the full coefficient lattice as rows (m1, m2, m3, re, im)."""
    grid = fld.grid
    modes = np.meshgrid(*((grid.modes,) * grid.n), indexing="ij")
    unused = [np.zeros(fld.coeffs.size, dtype=np.int64)] * (3 - grid.n)
    c = fld.coeffs.ravel()
    write_csv(path,
              ["spectral field: mode indices per axis (dimensionless), "
               "coefficient real/imag parts (field units)",
               f"n={grid.n} L={grid.L!r} N={grid.N} is_real={int(fld.is_real)}"],
              "m1,m2,m3,re,im",
              [m.ravel() for m in modes] + unused + [c.real, c.imag])


def field_from_csv(path, grid):
    """Read a field_to_csv file back onto grid; a mode outside [-N/2, N/2)
    is a DomainError."""
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=3))
    m = data[:, :grid.n].astype(np.int64)
    half = grid.N // 2
    bad = (m < -half) | (m >= half)
    if bad.any():
        raise DomainError(f"{path}: mode index {int(m[bad][0])} fails "
                          f"-{half} <= m < {half} (N = {grid.N})")
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[tuple((m % grid.N).T)] = data[:, 3] + 1j * data[:, 4]
    return SpectralField(grid, c)
