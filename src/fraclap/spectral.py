"""Periodic-grid spectral representation: grids, fields, transforms, norms.

Conventions (fixed once, used everywhere):

* Modes ``m`` run over the standard FFT layout per axis,
  ``{0, 1, ..., N/2-1, -N/2, ..., -1}``; frequencies are ``xi = 2*pi*m/L``.
* The forward transform carries ``1/N^n`` and the inverse carries ``1``, so
  the DC coefficient equals the field mean.
* Discrete norms are Parseval-weighted so that for band-limited fields they
  converge to the continuum integrals: ``l2^2 = L^n * sum |c_m|^2``
  (= ``sum |f(x_j)|^2 * (L/N)^n`` exactly, by the discrete Parseval identity).
  The solver's norms, the H1 norm (``h1_norm``) and the homogeneous H1
  norm, weight ``|c_m|^2`` by ``1 + |xi|^2`` and ``|xi|^2``; every weighted
  sum goes through ``_weighted_norm``, and the solver's run over the
  entries of its stored rows (``BandLayout``).
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

import itertools
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
        if not self.dxi <= 0.25:
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
    fields; float coeffs have no im term. +inf where a summed coefficient is
    not finite. The scalar scale multiplies the sum once instead of every
    term.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if np.iscomplexobj(coeffs):
            terms = weight * (coeffs.real ** 2 + coeffs.imag ** 2)
        else:
            terms = weight * coeffs ** 2
        lead = coeffs.ndim - weight.ndim
        h = np.sqrt(scale * terms.sum(axis=tuple(range(lead, terms.ndim))))
    return np.where(np.isfinite(h), h, np.inf)


def h1_weight(grid):
    """Weight L^n * (1 + |xi|^2) of the discrete H1 norm."""
    return grid.L ** grid.n * (1.0 + grid.xi_norm_sq)


def h1_norm(fld):
    """The solver's working norm; +inf for a non-finite field."""
    return float(_weighted_norm(h1_weight(fld.grid), fld.coeffs))


class BandLayout:
    """Which coefficients of lattice rows are stored, and where they sit in
    the spectrum.

    The spectrum is the set of lattice entries that a row holds directly:
    the whole lattice on 1-D grids, and for n >= 2 the entries with
    last-axis index 0..N//2 (spectrum_cols columns), which hold a real
    field's coefficients (rfftn's output, irfftn's input); every other
    lattice entry is the conjugate of its mirror, c(-m) = conj(c(m)).

    The 2/3-rule band is |m| <= lim per axis (lim = grid.dealias_limit, B =
    2 lim + 1 modes, two blocks of the FFT layout per axis). A stored row
    is the band's spectrum entries, as a (B,) array on 1-D grids and for n
    >= 2 as the half band, the band entries with last-axis mode 0..lim, a
    (B,)*(n-1) + (lim+1,) array in C order (2^(n-1) blocks); then the values
    at ext, the spectrum indices (one index array per axis) outside the
    band where keep (a boolean lattice) is True. The row stands for the real
    field whose spectrum holds its values at those places and +0 elsewhere.
    Rows of float64 stand for fields with real coefficients.
    """

    def __init__(self, grid, keep):
        self.grid = grid
        N, n = grid.N, grid.n
        lim = grid.dealias_limit
        width = 2 * lim + 1
        halves = ((slice(0, lim + 1), slice(0, lim + 1)),
                  (slice(lim + 1, width), slice(N - lim, N)))
        # for n >= 2 the last axis keeps its nonnegative block only
        axes = (halves,) * (n - 1) + ((halves if n == 1 else halves[:1]),)
        # (stored slices, spectrum slices) per block, with the row axis first
        self.blocks = [tuple((slice(None),) + s for s in zip(*combo))
                       for combo in itertools.product(*axes)]
        self.band_shape = (width,) * (n - 1) + ((width if n == 1 else lim + 1),)
        self.band_size = int(np.prod(self.band_shape))
        self.spectrum_cols = N if n == 1 else N // 2 + 1
        self.spectrum_size = N ** (n - 1) * self.spectrum_cols
        self.ext = np.nonzero((~grid.dealias_mask & keep)[..., :self.spectrum_cols])
        self.size = self.band_size + len(self.ext[0])
        # lattice entries each stored entry stands for: for n >= 2, itself
        # and its mirror at last-axis index 1..N/2-1 (columns 0 and N/2 hold
        # both members of each mirror pair)
        self.multiplicity = np.ones(self.size)
        if n > 1:
            self._init_half(lim, width)

    def _init_half(self, lim, width):
        """The last-axis columns and the mirror pairs of a half spectrum."""
        N = self.grid.N
        last = self.ext[-1]
        # last-axis columns that an input row can make nonzero
        self.half_cols = 1 + int(last.max(initial=lim))
        cols = np.concatenate(
            [np.broadcast_to(np.arange(lim + 1), self.band_shape).ravel(), last])
        self.multiplicity[(cols > 0) & (cols < N // 2)] = 2.0
        # In band coordinates the mirror -m of stored index s on an axis is
        # (width - s) % width. (dst, src) pairs that set each band entry at
        # last-axis mode 0 whose last nonzero mode is negative to the
        # conjugate of its mirror, reading only entries whose last nonzero
        # mode is positive: first every entry with mode < 0 on the axis
        # before the last, then, with that axis at mode 0 too, every entry
        # with mode < 0 on the axis before it, and so on
        pieces = ((slice(0, 1), slice(0, 1)), (slice(1, width), slice(width - 1, 0, -1)))
        n = self.grid.n
        self.mirrors = []
        for d in range(n - 1, 0, -1):
            tail = (0,) * (n - d)
            for combo in itertools.product(pieces, repeat=d - 1):
                dst = tuple(p[0] for p in combo) + (slice(lim + 1, width),) + tail
                src = tuple(p[1] for p in combo) + (slice(lim, 0, -1),) + tail
                self.mirrors.append(((slice(None),) + dst, (slice(None),) + src))

    def _band(self, rows):
        # a view: a row's band part is contiguous
        return rows[:, :self.band_size].reshape((len(rows),) + self.band_shape)

    def scatter(self, rows, spec):
        """Write stored rows (k, size) to their places in the spectra spec
        (k, *grid.shape[:-1], spectrum_cols), leaving every other entry as
        it is."""
        band = self._band(rows)
        for stored, lattice in self.blocks:
            spec[lattice] = band[stored]
        if self.size > self.band_size:
            spec[(slice(None),) + self.ext] = rows[:, self.band_size:]
        return spec

    def gather(self, spec, rows):
        """The stored entries of the spectra spec, copied into rows of
        spec's dtype."""
        band = self._band(rows)
        for stored, lattice in self.blocks:
            band[stored] = spec[lattice]
        if self.size > self.band_size:
            rows[:, self.band_size:] = spec[(slice(None),) + self.ext]
        return rows

    def stored(self, values):
        """The stored entries of one full-lattice array, in its dtype."""
        spec = values[None, ..., :self.spectrum_cols]
        return self.gather(spec, np.empty((1, self.size), values.dtype))[0]

    def fields(self, rows):
        """The complex full-lattice coefficients (k, *grid.shape) of the
        fields that stored rows (k, size) stand for. For n >= 2 each entry
        with last-axis index past N//2 is set to its mirror, conjugated for
        complex rows (Hermitian completion; float rows stand for real
        coefficients, whose imaginary parts stay +0)."""
        full = np.zeros((len(rows),) + self.grid.shape, dtype=np.complex128)
        self.scatter(rows, full[..., :self.spectrum_cols])
        if self.grid.n > 1:
            N = self.grid.N
            mirror = full[..., 1:N // 2]
            for ax in range(1, self.grid.n):
                mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
            rest = full[..., N // 2 + 1:]
            rest[...] = mirror[..., ::-1]
            if np.iscomplexobj(rows):
                np.negative(rest.imag, out=rest.imag)
        return full


def square_scratch(grid, k, dtype):
    """dealiased_square's scratch for up to k rows of dtype of fields on
    grid, holding only the buffers that dtype's path transforms in: for n =
    1 the complex spectrum, which is the lattice (k, N); for n >= 2 and
    complex rows the pair of a complex half spectrum (k, *grid.shape[:-1],
    N//2 + 1) and a real lattice (k, *grid.shape); for n >= 2 and float
    rows the real spectrum (k, *grid.shape[:-1], N//2 + 1), the real
    physical rows 0..N/2 (k, N//2 + 1, *grid.shape[1:]) and the complex
    rfft output (k, N//2 + 1, *grid.shape[1:-1], N//2 + 1)."""
    if grid.n == 1:
        return np.empty((k,) + grid.shape, dtype=np.complex128)
    N = grid.N
    spectrum = (k,) + grid.shape[:-1] + (N // 2 + 1,)
    if np.dtype(dtype) == np.complex128:
        return np.empty(spectrum, dtype=np.complex128), np.empty((k,) + grid.shape)
    physical = (k, N // 2 + 1) + grid.shape[1:]
    return (np.empty(spectrum), np.empty(physical),
            np.empty(physical[:-1] + (N // 2 + 1,), dtype=np.complex128))


def dealiased_square(rows, layout, scratch):
    """Stored coefficients of the pointwise squares of the real fields whose
    stored coefficients (a BandLayout's) are rows, dealiased by the 2/3 rule,
    in place in rows, which is returned.

    scratch is square_scratch(grid, k, rows.dtype) for some k >= len(rows);
    the transforms run in its leading len(rows) rows. Computed as inverse
    transform -> square -> forward transform, which equals the lattice
    autoconvolution of the coefficients on the retained modes (the 2/3 rule
    removes exactly the aliased band); the out-of-band entries come out +0.

    The transforms run in the rows' spectrum (BandLayout): scatter the rows
    into a zeroed spectrum, transform, gather the stored entries back. 1-D
    grids take the complex ifft and fft of the whole lattice.

    For n >= 2 the spectrum is the half spectrum. Complex rows (sampled
    noise) take the transforms of irfftn and rfftn on the full lattice, in
    their order and with their bits: the inverse passes over all but the
    last axis, the last axis's irfft into the real lattice, the square in
    reals, its rfft, and the forward passes in reverse axis order; the
    gather takes the spectrum as it is.

    Float rows stand for even real fields, u(-x) = u(x), whose coefficients
    are real and even, and their square is one too. For them the physical
    rows x1 = 0..N/2 of the first axis hold the whole field, and the
    transforms take both symmetries: the rfft along the first axis of the
    real spectrum (a forward transform, so it lands on the rows -x1, which
    the even field equals), the unscaled inverse passes over the middle
    axes (3-D), the last axis's unscaled irfft into those N/2 + 1 physical
    rows, the square, its rfft, the forward passes over the middle axes,
    and the unscaled irfft along the first axis (an inverse transform,
    whose reflection cancels the first: the square is pointwise), straight
    to real coefficients. No pass scales by N^n or conjugates.

    Each transformed line is the one the same transform of the whole
    spectrum takes. The last-axis columns past the stored entries are zero
    on input and past the band unread on output, so the passes over the
    other axes skip them (the last axis's irfft pads them with zeros). Then
    each entry at last-axis mode 0 whose last nonzero mode is negative is
    set to the conjugate of its mirror, so that column, which holds both
    members of each mirror pair, is exactly Hermitian.

    1-D grids keep the complex transforms and their bits: the blow-up
    proxy's recorded trajectories (perfbench/reference.json) pin h1 to
    picard_tol = 1e-8 sup-relative, and real transforms moved the N=1024
    run's h1 by 1.8e-8. That branch goes once the solver is judged by its
    fixed-point contract instead (ROADMAP item 1).
    """
    grid = layout.grid
    N, Nn = grid.N, grid.N ** grid.n
    k = len(rows)
    spec = (scratch if grid.n == 1 else scratch[0])[:k]
    spec[...] = 0.0
    layout.scatter(rows, spec)
    if grid.n == 1:
        np.fft.ifftn(spec, axes=(1,), out=spec)
        np.multiply(spec, Nn, out=spec)
        np.multiply(spec, spec, out=spec)
        np.fft.fftn(spec, axes=(1,), out=spec)
    else:
        real = scratch[1][:k]
        cols = (Ellipsis, slice(0, layout.half_cols))
        band = (Ellipsis, slice(0, grid.dealias_limit + 1))
        if np.iscomplexobj(rows):
            for ax in range(1, grid.n):
                np.fft.ifft(spec[cols], axis=ax, out=spec[cols])
            np.fft.irfft(spec, n=N, axis=-1, out=real)
            np.multiply(real, Nn, out=real)
            np.multiply(real, real, out=real)
            np.fft.rfft(real, axis=-1, out=spec)
            for ax in range(grid.n - 1, 0, -1):
                np.fft.fft(spec[band], axis=ax, out=spec[band])
        else:
            half = scratch[2][:k]
            np.fft.rfft(spec[cols], axis=1, out=half[cols])
            for ax in range(2, grid.n):
                np.fft.ifft(half[cols], axis=ax, norm="forward", out=half[cols])
            np.fft.irfft(half[cols], n=N, axis=-1, norm="forward", out=real)
            np.multiply(real, real, out=real)
            np.fft.rfft(real, axis=-1, out=half)
            for ax in range(grid.n - 1, 1, -1):
                np.fft.fft(half[band], axis=ax, out=half[band])
            np.fft.irfft(half[band], n=N, axis=1, norm="forward", out=spec[band])
    layout.gather(spec, rows)
    if grid.n > 1:
        stored = layout._band(rows)
        for dst, src in layout.mirrors:
            np.conjugate(stored[src], out=stored[dst])
    # divide the float view: numpy would divide complex rows by Nn as a
    # complex division, twice the time
    flat = rows.view(np.float64)
    np.true_divide(flat, Nn, out=flat)
    rows[:, layout.band_size:] = 0.0
    return rows


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

