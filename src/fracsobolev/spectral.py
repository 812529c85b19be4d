"""Discrete Fourier realization of fractional Laplacian powers on a periodic box.

The box is [-L, L)^N sampled at M cells per axis (M a power of two), cell
centers x_i = -L + i*h with h = 2L/M.  The frequency lattice is
xi_k = pi*k/L for k in {-M/2, ..., M/2-1} per axis.

Transform convention: ``coeffs = h^(N/2) * fftn(values, norm="ortho")``.
With this scaling the discrete Plancherel identity

    sum |coeffs|^2  ==  sum values^2 * cell_volume

holds with no extra weights, and the homogeneous Sobolev norm is the plain
spectral sum  sum |xi|^(2s) |coeffs|^2.

Every |xi|^sigma image of a whole-box field comes from one transform pair,
``apply_multiplier``: ``rfftn`` of the real samples, times the weight on the
half-spectrum lattice (``Grid.half_shape``), then the inverse, in place on
that one spectrum; the h^(N/2) factors of the unitary convention cancel.
In 2-D and up only the rows along axis 0 from the first to the last that
hold a nonzero sample run the transforms along the other axes, and the
rest take one zero row's spectrum, so the image is the whole-box pair's
to the bit (``_image_of_rows``).
``Grid.multiplier`` builds the weight once per grid and order, read-only;
its zero mode is 1 for sigma == 0 and 0 otherwise (for sigma < 0 the
pseudo-inverse on mean-zero fields).  A Field's values are read-only for
every holder, and a field keeps the ``frac_power`` image of each order for
as long as it lives (2 MB per order on a 2-D M = 512 box), so a repeat call
runs no transform.  Energy sums  sum weight |V|^2  run only the forward
half (``_half_spectrum_energy``).  ``forward_transform`` gives the full
unitary spectrum.

Only this module builds a zero-padded lattice.  A linear convolution with a
kernel even in each axis is a ``_toeplitz`` apply, the same pair on that
lattice with the mirrored samples' ``rfftn`` as weight (``_kernel_spectrum``);
``_toeplitz`` takes that spectrum, which it only reads, and gives each apply
its own work buffers, so applies built on one spectrum share only a
read-only array.  ``_convolve`` runs one apply per array.  ``Grid.kernel``
is the periodic kernel of |xi|^sigma at the offsets 0..M/2 per axis, the
inverse transform of the weight, built once per grid and order, read-only.
Cropped to a window's offsets (``_kernel_sample``) it is a Toeplitz
operator there, and the padded lattice is its circulant embedding
(``_window_kernel``): the solver's operator on a domain's window, whose
spectra the domain's mask keeps, and the norm of a narrow support
(``_window_norm_sq``, ``_kernel_energy``) run so.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrid, InvalidOrder, NegativeOrderOnNonMeanZero

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "apply_multiplier",
    "offset_convolve",
    "frac_power",
    "field_to_bytes",
    "field_from_bytes",
    "DEFAULT_MAX_POINTS",
]

DEFAULT_MAX_POINTS = 2 ** 24

_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Periodic computational box; immutable and safe for concurrent reads.
    A bad parameter raises InvalidGrid naming it; fields become int, int, float."""

    dim: int
    points_per_dim: int
    half_width: float
    spacing: float = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidGrid(f"dim must be >= 1, got {self.dim}", param="dim")
        dim, M = int(self.dim), int(self.points_per_dim)
        if M < 4 or (M & (M - 1)) != 0:
            raise InvalidGrid(f"points_per_dim must be a power of two >= 4, got "
                              f"{self.points_per_dim}", param="points_per_dim")
        if M ** dim > DEFAULT_MAX_POINTS:
            raise InvalidGrid(f"grid of {M}^{dim} points exceeds the cap of {DEFAULT_MAX_POINTS}",
                              param="points_per_dim")
        # after the cap, dim is small; a product, unlike **, overflows to inf
        h = 2.0 * self.half_width / M
        if not (0 < h and 0 < math.prod([h] * dim) < math.inf):
            raise InvalidGrid(f"half_width {self.half_width} gives no positive spacing 2L/M "
                              f"with a finite positive cell volume (2L/M)^N", param="half_width")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points_per_dim", M)
        object.__setattr__(self, "half_width", float(self.half_width))
        object.__setattr__(self, "spacing", 2.0 * self.half_width / self.points_per_dim)
        object.__setattr__(self, "cell_volume", self.spacing ** self.dim)
        object.__setattr__(self, "_axis", -self.half_width + self.spacing * np.arange(self.points_per_dim))
        object.__setattr__(self, "_multipliers", {})
        object.__setattr__(self, "_kernels", {})
        self._axis.setflags(write=False)

    @property
    def shape(self):
        return (self.points_per_dim,) * self.dim

    @property
    def half_shape(self):
        """Shape of the ``rfftn`` half-spectrum lattice, (M,)*(N-1) + (M//2+1,)."""
        M = self.points_per_dim
        return (M,) * (self.dim - 1) + (M // 2 + 1,)

    @property
    def total_points(self):
        return self.points_per_dim ** self.dim

    @property
    def axis(self):
        """Cell-center coordinates along one axis."""
        return self._axis

    def _weight(self, sigma):
        """|xi|^sigma on ``half_shape``, built afresh; the zero mode is 1
        for sigma == 0 and 0 otherwise.  A non-finite sigma raises
        InvalidOrder, so no weight or kernel is built or cached for it."""
        if not math.isfinite(sigma):
            raise InvalidOrder(f"order sigma must be finite, got {sigma}")
        M, h = self.points_per_dim, self.spacing
        ks = [np.fft.fftfreq(M, d=h)] * (self.dim - 1) + [np.fft.rfftfreq(M, d=h)]
        mats = np.meshgrid(*(2.0 * np.pi * k for k in ks), indexing="ij", sparse=True)
        mult = sum(m * m for m in mats)
        np.sqrt(mult, out=mult)
        with np.errstate(divide="ignore"):
            np.power(mult, sigma, out=mult)
        # the zero mode, at index 0 on every axis, is the only one with |xi| == 0
        mult[(0,) * self.dim] = 1.0 if sigma == 0 else 0.0
        return mult

    def multiplier(self, sigma):
        """|xi|^sigma on the half-spectrum lattice ``half_shape``, cached
        and read-only.  The zero mode is 1 for sigma == 0 and 0 otherwise;
        a non-finite sigma raises InvalidOrder.
        """
        key = float(sigma)
        mult = self._multipliers.get(key)
        if mult is None:
            mult = self._weight(key)
            mult.setflags(write=False)
            # setdefault keeps one array per order when threads race here
            mult = self._multipliers.setdefault(key, mult)
        return mult

    def kernel(self, sigma):
        """The periodic kernel of |xi|^sigma, even in each axis, at the
        index offsets 0..M/2 per axis; cached and read-only.  It is the
        inverse transform of a transient weight, cut to those offsets, so
        only the (M/2+1)^N octant stays.  A non-finite sigma raises
        InvalidOrder.
        """
        key = float(sigma)
        kern = self._kernels.get(key)
        if kern is None:
            full = np.fft.irfftn(self._weight(key), s=self.shape, axes=tuple(range(self.dim)))
            kern = full[(slice(0, self.points_per_dim // 2 + 1),) * self.dim].copy()
            kern.setflags(write=False)
            kern = self._kernels.setdefault(key, kern)
        return kern

    def coords(self):
        """Cell-center coordinate arrays, one per axis, each shaped (M,)*N."""
        return np.meshgrid(*([self._axis] * self.dim), indexing="ij")

    def _point(self, center):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise InvalidGrid(f"center must have {self.dim} components, got {center.shape}")
        if not np.all(np.isfinite(center)):
            raise InvalidGrid(f"center must be finite, got {center}")
        return center

    def ball_window(self, center, reach):
        """Index slices, one per axis, of the box of cells within ``reach``
        of ``center`` along each axis, one cell wider on each side and
        clipped to the grid.  The extra cell absorbs rounding in the index
        arithmetic, so every cell outside the box lies farther than
        ``reach`` from ``center`` whatever the rounding of ``radii``.
        """
        q = (self._point(center) + self.half_width) / self.spacing
        k = reach / self.spacing
        M = self.points_per_dim
        lo = np.clip(np.ceil(q - k) - 1.0, 0, M)
        hi = np.clip(np.floor(q + k) + 2.0, 0, M)
        return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))

    def radii(self, center, window=None):
        """Euclidean distance to ``center`` from every cell center, or from
        those of ``window`` (index slices, one per axis)."""
        center = self._point(center)
        window = window or (slice(None),) * self.dim
        mats = np.meshgrid(*(self._axis[w] - c0 for w, c0 in zip(window, center)),
                           indexing="ij", sparse=True)
        return np.sqrt(sum(m * m for m in mats))


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples of a function at the cell centers of a grid.

    ``values`` is read-only for every holder, so the ``frac_power`` images
    the field keeps belong to it: a float64 array that owns its data is
    flagged read-only, not copied, and any view is copied; only a writable
    view taken of an array before it was wrapped can still write to it.
    Complex or non-finite samples raise InvalidGrid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise InvalidGrid("field values must be real, got a complex array")
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidGrid(f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        _check_finite(v)
        if v.base is not None:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        # frac_power images per order, which frac_power fills
        object.__setattr__(self, "_images", {})


def _check_finite(values):
    """Raise InvalidGrid unless every sample of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise InvalidGrid("field contains non-finite entries")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex Fourier coefficients of a Field (unitary, Plancherel-preserving)."""

    grid: Grid
    coeffs: np.ndarray


def _same_grid(grid, other, name, ref):
    """Raise InvalidGrid, naming both grids, unless ``other``, the grid of
    ``name``, is ``grid``, the grid of ``ref``."""
    if other != grid:
        raise InvalidGrid(f"{name} lies on the grid {other.shape} of half-width "
                          f"{other.half_width:g}, {ref} on {grid.shape} of half-width "
                          f"{grid.half_width:g}")


def make_grid(dim, points_per_dim, half_width):
    """``Grid(dim, points_per_dim, half_width)``, which checks its parameters."""
    return Grid(dim=dim, points_per_dim=points_per_dim, half_width=half_width)


def forward_transform(u):
    """Unitary DFT of a Field, scaled so Plancherel holds against cell sums."""
    g = u.grid
    # in place on one complex copy of the values, to the bits of the
    # out-of-place form, which holds three such arrays at its peak
    coeffs = u.values.astype(complex)
    np.fft.fftn(coeffs, norm="ortho", out=coeffs)
    coeffs *= g.cell_volume ** 0.5
    return SpectralField(grid=g, coeffs=coeffs)


def _forward_rows(values, n, dest):
    """The transforms of ``values`` along every axis but the first, into
    ``dest``, a slab of a half-spectrum lattice with as many rows along
    axis 0: ``rfft`` along the last axis, zero-padded to n, then ``fft``
    along the axes between, the rows zero-padded to ``dest``'s shape."""
    corner = (slice(None),) + tuple(slice(0, m) for m in values.shape[1:-1])
    np.fft.rfft(values, n=n, axis=-1, out=dest[corner])
    for ax in range(1, dest.ndim - 1):
        dest[corner[:ax] + (slice(values.shape[ax], None),)] = 0.0
    for ax in reversed(range(1, dest.ndim - 1)):
        np.fft.fft(dest, axis=ax, out=dest)


def _transform_pair(values, weight, n, spec, out, first=None):
    """``weight`` times the half spectrum of ``values`` zero-padded to the
    lattice of ``spec`` (last axis n long), transformed back into ``out``.

    By default ``values`` sits in the lattice's corner and ``out`` is
    ``values.shape[:-1] + (n,)``.  Given ``first`` (N >= 2), ``values``
    holds the whole lattice rows first, first + 1, ... along axis 0, the
    other rows are zero and take one zero row's spectrum, signed zeros and
    all, and ``out`` is every row, ``spec.shape[:-1] + (n,)``.  Only the
    rows that hold input are transformed along the axes after the first.
    Every step runs in place on ``spec``, in the axis order of
    ``rfftn``/``irfftn``, so results match theirs to the bit.
    """
    lead = spec.ndim - 1
    if lead == 0:
        np.fft.rfft(values, n=n, out=spec)
    elif first is None:
        _forward_rows(values, n, spec[:len(values)])
        spec[len(values):] = 0.0
    else:
        rows = slice(first, first + len(values))
        _forward_rows(values, n, spec[rows])
        if len(values) < len(spec):
            zero = np.empty((1,) + spec.shape[1:], dtype=complex)
            _forward_rows(np.zeros((1,) + values.shape[1:]), n, zero)
            spec[:first] = zero
            spec[rows.stop:] = zero
    if lead:
        np.fft.fft(spec, axis=0, out=spec)
    spec *= weight
    for ax in range(lead):
        np.fft.ifft(spec, axis=ax, out=spec)
    back = spec if first is not None else spec[tuple(slice(0, m) for m in values.shape[:-1])]
    return np.fft.irfft(back, n=n, axis=-1, out=out)


def _image_of_rows(values, first, grid, sigma):
    """|xi|^sigma applied to the field on ``grid`` that is ``values`` on the
    rows first, first + 1, ... along axis 0 and zero on the others; returns
    the whole image, a raw ndarray of ``grid.shape``.  In 2-D and up only
    those rows run the last-axis transform (``_transform_pair``); a 1-D
    field is padded to the box."""
    M = grid.points_per_dim
    if grid.dim == 1 and len(values) < M:
        values = np.pad(values, (first, M - first - len(values)))
    spec = np.empty(grid.half_shape, dtype=complex)
    return _transform_pair(values, grid.multiplier(sigma), M, spec, None,
                           first if grid.dim > 1 else None)


def _narrow_support(values, width):
    """Index slices of the bounding box of the nonzero cells of ``values``
    when it spans at most ``width`` cells along every axis, () when no cell
    is nonzero, else None.  One reduction reads the whole array; the other
    axes are read on the slab that the support spans along axis 0.
    """
    N = values.ndim
    hits = np.flatnonzero(values.any(axis=tuple(range(1, N))))
    if hits.size == 0:
        return ()
    slab = values[hits[0]:hits[-1] + 1]
    box = []
    for ax in range(N):
        if ax > 0:
            hits = np.flatnonzero(slab.any(axis=tuple(a for a in range(N) if a != ax)))
        if hits[-1] - hits[0] >= width:
            return None
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def apply_multiplier(values, grid, sigma):
    """|xi|^sigma applied to real samples of ``grid.shape``; returns a raw
    ndarray.  No mean check: for sigma < 0 the zero mode is simply
    annihilated.  In 2-D and up only the rows along axis 0 of the support's
    box (``_narrow_support``) run the last-axis transform (``_image_of_rows``).
    """
    if values.shape != grid.shape:
        raise InvalidGrid(f"values of shape {values.shape} do not match grid shape {grid.shape}")
    box = _narrow_support(values, grid.points_per_dim) if grid.dim > 1 else None
    rows = box[0] if box else slice(0, grid.points_per_dim)
    return _image_of_rows(values[rows], rows.start, grid, sigma)


def _half_spectrum_energy(values, weight, shape):
    """``weight`` |V|^2 on the ``rfftn`` half spectrum V of ``values`` zero-padded
    to ``shape``, doubled except where the last-axis index is 0 or n/2, its own
    conjugate, so its sum is the whole spectrum's.  One forward transform."""
    dens = np.abs(np.fft.rfftn(values, s=shape, axes=tuple(range(len(shape)))))
    dens *= dens
    dens *= weight
    dens[..., 1:(shape[-1] + 1) // 2] *= 2.0
    return dens


def _offset_distances(grid, offsets):
    """h*sqrt(sum d^2) over the lattice of integer offsets ``offsets`` per axis."""
    mats = np.meshgrid(*([offsets] * grid.dim), indexing="ij", sparse=True)
    return grid.spacing * np.sqrt(sum(m * m for m in mats))


def _smooth_length(n):
    """The smallest 2^a 3^b 5^c >= n, a length the FFT runs fast on."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _kernel_spectrum(sample, shape):
    """P per axis and the ``rfftn`` half spectrum of the padded lattice
    kernel of a linear convolution of arrays of ``shape``.  ``sample`` holds
    a kernel even in each axis at the offsets 0..r; an axis n long is
    zero-padded to the smallest 5-smooth P >= n + r + 1, so no periodic
    image enters, and the sample is mirrored to the negative offsets.
    """
    P = tuple(_smooth_length(n + k) for n, k in zip(shape, sample.shape))
    lattice = np.zeros(P)
    lattice[tuple(slice(0, k) for k in sample.shape)] = sample
    # fftfreq order per axis: offsets 0, ..., r, then -r, ..., -1
    for ax, (p, k) in enumerate(zip(P, sample.shape)):
        lead = (slice(None),) * ax
        lattice[lead + (slice(p - k + 1, p),)] = lattice[lead + (slice(k - 1, 0, -1),)]
    return P, np.fft.rfftn(lattice)


def _kernel_sample(grid, sigma, shape):
    """``grid.kernel(sigma)`` at the offsets 0..n-1 of each axis n long of
    ``shape``.  An offset d past M/2 reads the kernel at M - d, its value
    by periodicity and evenness.
    """
    M = grid.points_per_dim
    return grid.kernel(sigma)[np.ix_(*(np.minimum(d, M - d) for d in map(np.arange, shape)))]


def _window_kernel(grid, sigma, shape):
    """``_kernel_spectrum`` of ``grid.kernel(sigma)`` at the offsets of a
    window of ``shape`` (``_kernel_sample``): P per axis and the read-only
    spectrum of P |xi|^sigma P on the window's padded lattice."""
    P, kernel_spec = _kernel_spectrum(_kernel_sample(grid, sigma, shape), shape)
    kernel_spec.setflags(write=False)
    return P, kernel_spec


def _kernel_energy(values, kernel):
    """The cell sum <v, K * v> for the linear convolution K whose (P,
    spectrum) ``kernel`` holds (``_kernel_spectrum``): the sum of
    K_hat |V|^2 / P^N on the padded lattice, one forward transform."""
    P, kernel_spec = kernel
    dens = _half_spectrum_energy(values, kernel_spec.real, P)
    return float(np.sum(dens)) / math.prod(P)


def _toeplitz(kernel, shape):
    """The linear convolution of real arrays of ``shape`` whose (P,
    spectrum) on the padded lattice ``kernel`` holds (``_kernel_spectrum``),
    as ``apply(src, out)``: one pair on that lattice, cropped into ``out``,
    which it returns.  The spectrum is only read, so applies may share it.
    Each call builds its apply a work spectrum and a row buffer of its own:
    an apply allocates nothing and must not run in two threads at once, but
    applies from two calls may.
    """
    P, kernel_spec = kernel
    spec = np.empty(kernel_spec.shape, dtype=complex)
    rows = np.empty(shape[:-1] + (P[-1],))
    crop = rows[..., :shape[-1]]

    def apply(src, out):
        _transform_pair(src, kernel_spec, P[-1], spec, rows)
        np.copyto(out, crop)
        return out

    return apply


def _convolve(sample, arrays):
    """Linear convolutions of real arrays of one shape, any shape, with the
    kernel even in each axis whose samples at the offsets 0..r ``sample``
    holds, one ``_toeplitz`` apply each.  Returns a raw ndarray of shape
    (len(arrays),) + shape.
    """
    shape = arrays[0].shape
    apply = _toeplitz(_kernel_spectrum(sample, shape), shape)
    out = np.empty((len(arrays),) + shape)
    for a, dest in zip(arrays, out):
        apply(a, dest)
    return out


def _window_norm_sq(values, grid, s):
    """sum |xi|^(2s) |u_hat|^2, one forward transform, for the field on
    ``grid`` equal to ``values`` (the box or a window of it, as |u_hat| does
    not depend on where it lies) and zero elsewhere.  A support at most M/4
    cells wide per axis takes <u, K * u> h^N on its box, K the periodic
    kernel of |xi|^(2s) at the box's offsets (``_kernel_sample``): the sum
    of K_hat |U|^2 / P^N on its padded lattice.  That is exact on any
    support, an offset d past M/2 reading K at M - d; the M/4 only keeps the
    lattice below the box's size.  Else the whole box's sum; no nonzero
    cell gives 0.
    """
    box = _narrow_support(values, grid.points_per_dim // 4)
    if box is None:
        dens = _half_spectrum_energy(values, grid.multiplier(2.0 * s), grid.shape)
        return float(np.sum(dens)) / grid.total_points * grid.cell_volume
    if not box:
        return 0.0
    vals = values[box]
    return _kernel_energy(vals, _window_kernel(grid, 2.0 * s, vals.shape)) * grid.cell_volume


def offset_convolve(grid, kernel, arrays):
    """Linear convolutions  sum_j k(|x_i - x_j|) a_j  of real arrays on ``grid``.

    ``kernel`` maps distances h*sqrt(sum d^2), d an index offset, to kernel
    values.  It is sampled once, on [0, M)^N, which gives the reach: the
    largest axis component of a nonzero sample.  The convolutions run on the
    lattice of ``_kernel_spectrum``, P >= M + reach + 1 per axis (2M for a
    kernel nonzero at every offset).  Returns a raw ndarray of shape
    (len(arrays),) + grid.shape.
    """
    sample = kernel(_offset_distances(grid, np.arange(grid.points_per_dim)))
    # the distance is symmetric in the axes, so axis 0 holds the reach
    reach = int(np.flatnonzero((sample != 0).any(axis=tuple(range(1, grid.dim)))).max(initial=0))
    # a copy of the offsets within reach, so a short kernel's M^N sample is freed here
    sample = np.ascontiguousarray(sample[(slice(0, reach + 1),) * grid.dim])
    return _convolve(sample, arrays)


def frac_power(u, sigma):
    """Apply (-Laplacian)^(sigma/2), the Fourier multiplier |xi|^sigma.

    For sigma < 0 the zero mode is annihilated (pseudo-inverse), which is
    only meaningful on mean-zero fields; a nonzero mean raises
    NegativeOrderOnNonMeanZero.  The image is kept on u, one per order, so
    a repeat call returns the same Field and runs no transform.
    """
    if sigma == 0:
        return u
    key = float(sigma)
    image = u._images.get(key)
    if image is not None:
        return image
    g = u.grid
    if sigma < 0:
        # zero-mode amplitude and L2 norm of the unitary coefficients, by Plancherel
        zero_amp = abs(float(np.sum(u.values))) * g.cell_volume ** 0.5 / g.total_points ** 0.5
        total = float(np.sqrt(np.sum(u.values ** 2) * g.cell_volume))
        if total > 0 and zero_amp > _MEAN_TOL * total:
            raise NegativeOrderOnNonMeanZero(
                f"zero mode {zero_amp:.3e} exceeds {_MEAN_TOL:.0e} of norm {total:.3e}"
            )
    image = Field(grid=g, values=apply_multiplier(u.values, g, key))
    # setdefault keeps one image per order when threads race here
    return u._images.setdefault(key, image)


# ---------------------------------------------------------------------------
# Dump format: one JSON header line, then raw little-endian float64 values in
# lexicographic (C, row-major) order.  Byte layout is fixed; see README.

def field_to_bytes(u, extra_header=None):
    """Serialize a Field to the dump format (header line + raw payload)."""
    header = {
        "dim": u.grid.dim,
        "points_per_dim": u.grid.points_per_dim,
        "half_width": u.grid.half_width,
    }
    if extra_header:
        header.update(extra_header)
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


def field_from_bytes(blob):
    """Parse the dump format back into a Field; raises InvalidGrid on a
    malformed header line or a payload that is not exactly 8 M^N bytes."""
    head, newline, payload = blob.partition(b"\n")
    try:
        header = json.loads(head)
        grid = make_grid(header["dim"], header["points_per_dim"], header["half_width"])
    except (ValueError, TypeError, KeyError) as exc:
        raise InvalidGrid(f"malformed field dump header: {exc!r}")
    if not newline or len(payload) != 8 * grid.total_points:
        raise InvalidGrid(f"field dump payload is not {8 * grid.total_points} bytes after its header")
    values = np.frombuffer(payload, dtype="<f8")
    return Field(grid=grid, values=values.reshape(grid.shape).copy())
