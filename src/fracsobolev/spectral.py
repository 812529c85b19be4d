"""Discrete Fourier realization of fractional Laplacian powers on a periodic box.

The box is [-L, L)^N sampled at M cells per axis (M a power of two), cell
centers x_i = -L + i*h with h = 2L/M.  The frequency lattice is
xi_k = pi*k/L for k in {-M/2, ..., M/2-1} per axis.

Transform convention: ``coeffs = h^(N/2) * fftn(values, norm="ortho")``.
With this scaling the discrete Plancherel identity

    sum |coeffs|^2  ==  sum values^2 * cell_volume

holds with no extra weights, and the homogeneous Sobolev norm is the plain
spectral sum  sum |xi|^(2s) |coeffs|^2.

Every |xi|^sigma consumer goes through one transform pair,
``apply_multiplier``: ``rfftn`` of the real samples, times the weight on the
half-spectrum lattice (shape (M,)*(N-1) + (M//2+1,)), then ``irfftn``.  The
unnormalized pair needs no scaling, since the h^(N/2) factors of the
unitary convention cancel.  The weight is built once per grid and order by
``Grid.multiplier`` and shared, read-only; its zero mode is 0 for
sigma > 0, 1 for sigma == 0 and 0 for sigma < 0 (pseudo-inverse on
mean-zero fields).  frac_power, hs_inner, the homogeneous norm and the
solver's restricted operator and preconditioner all use it.  The
full-spectrum forward_transform / inverse_transform pair remains for
callers that want the coefficients; the imaginary-residue check runs in
inverse_transform only, which takes coefficients from outside.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrid, NegativeOrderOnNonMeanZero, NonRealResult

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "frac_power",
    "hs_inner",
    "field_to_bytes",
    "field_from_bytes",
    "DEFAULT_MAX_POINTS",
]

DEFAULT_MAX_POINTS = 2 ** 24

_IMAG_TOL = 1e-10
_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Periodic computational box; immutable and safe for concurrent reads."""

    dim: int
    points_per_dim: int
    half_width: float
    spacing: float = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "spacing", 2.0 * self.half_width / self.points_per_dim)
        object.__setattr__(self, "cell_volume", self.spacing ** self.dim)
        object.__setattr__(self, "_axis", -self.half_width + self.spacing * np.arange(self.points_per_dim))
        object.__setattr__(self, "_multipliers", {})
        self._axis.setflags(write=False)

    @property
    def shape(self):
        return (self.points_per_dim,) * self.dim

    @property
    def total_points(self):
        return self.points_per_dim ** self.dim

    @property
    def axis(self):
        """Cell-center coordinates along one axis."""
        return self._axis

    def _lattice_norm(self, last_freqs):
        """|xi| with np.fft.fftfreq on the leading axes and ``last_freqs`` on the last."""
        M, h = self.points_per_dim, self.spacing
        ks = [np.fft.fftfreq(M, d=h)] * (self.dim - 1) + [last_freqs(M, d=h)]
        mats = np.meshgrid(*(2.0 * np.pi * k for k in ks), indexing="ij", sparse=True)
        sq = sum(m * m for m in mats)
        return np.sqrt(sq, out=sq)

    @property
    def xi_norm(self):
        """|xi| on the full frequency lattice, shape (M,)*N; built on each call."""
        return self._lattice_norm(np.fft.fftfreq)

    def multiplier(self, sigma):
        """|xi|^sigma on the half-spectrum lattice, cached and read-only.

        The lattice is that of ``rfftn``, shape (M,)*(N-1) + (M//2+1,).
        The zero mode is 1 for sigma == 0 and 0 otherwise.
        """
        key = float(sigma)
        mult = self._multipliers.get(key)
        if mult is None:
            mult = self._lattice_norm(np.fft.rfftfreq)
            with np.errstate(divide="ignore"):
                np.power(mult, key, out=mult)
            # the zero mode, at index 0 on every axis, is the only one with |xi| == 0
            mult[(0,) * self.dim] = 1.0 if key == 0 else 0.0
            mult.setflags(write=False)
            # setdefault keeps one array per order when threads race here
            mult = self._multipliers.setdefault(key, mult)
        return mult

    def coords(self):
        """Cell-center coordinate arrays, one per axis, each shaped (M,)*N."""
        return np.meshgrid(*([self._axis] * self.dim), indexing="ij")

    def radii(self, center):
        """Euclidean distance from every cell center to ``center``."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise InvalidGrid(f"center must have {self.dim} components, got {center.shape}")
        return np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(self.coords(), center)))


@dataclass(frozen=True)
class Field:
    """Real samples of a function at the cell centers of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidGrid(f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidGrid("field contains non-finite entries")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a Field (unitary, Plancherel-preserving)."""

    grid: Grid
    coeffs: np.ndarray


def make_grid(dim, points_per_dim, half_width, max_points=DEFAULT_MAX_POINTS):
    """Build a Grid; raises InvalidGrid on bad parameters or memory-cap breach."""
    if dim < 1:
        raise InvalidGrid(f"dim must be >= 1, got {dim}", param="dim")
    M = int(points_per_dim)
    if M < 4 or (M & (M - 1)) != 0:
        raise InvalidGrid(f"points_per_dim must be a power of two >= 4, got {points_per_dim}",
                          param="points_per_dim")
    if not half_width > 0:
        raise InvalidGrid(f"half_width must be positive, got {half_width}", param="half_width")
    if M ** dim > max_points:
        raise InvalidGrid(f"grid of {M}^{dim} points exceeds the cap of {max_points}",
                          param="max_points")
    return Grid(dim=int(dim), points_per_dim=M, half_width=float(half_width))


def forward_transform(u):
    """Unitary DFT of a Field, scaled so Plancherel holds against cell sums."""
    g = u.grid
    coeffs = g.cell_volume ** 0.5 * np.fft.fftn(u.values, norm="ortho")
    return SpectralField(grid=g, coeffs=coeffs)


def inverse_transform(U):
    """Invert forward_transform; raises NonRealResult on broken conjugate symmetry."""
    g = U.grid
    w = np.fft.ifftn(U.coeffs, norm="ortho") / g.cell_volume ** 0.5
    scale = float(np.max(np.abs(w)))
    if scale > 0 and float(np.max(np.abs(w.imag))) > _IMAG_TOL * scale:
        raise NonRealResult(
            f"imaginary residue {np.max(np.abs(w.imag)) / scale:.3e} exceeds {_IMAG_TOL:.0e} relative"
        )
    return Field(grid=g, values=w.real)


def apply_multiplier(values, grid, sigma):
    """|xi|^sigma applied to real samples on ``grid``; returns a raw ndarray.

    No mean check: for sigma < 0 the zero mode is simply annihilated.
    """
    axes = tuple(range(grid.dim))
    spec = np.fft.rfftn(values, axes=axes)
    return np.fft.irfftn(grid.multiplier(sigma) * spec, s=grid.shape, axes=axes)


def frac_power(u, sigma):
    """Apply (-Laplacian)^(sigma/2), the Fourier multiplier |xi|^sigma.

    For sigma < 0 the zero mode is annihilated (pseudo-inverse), which is
    only meaningful on mean-zero fields; a nonzero mean raises
    NegativeOrderOnNonMeanZero.
    """
    if sigma == 0:
        return u
    g = u.grid
    if sigma < 0:
        # zero-mode amplitude and L2 norm of the unitary coefficients, by Plancherel
        zero_amp = abs(float(np.sum(u.values))) * g.cell_volume ** 0.5 / g.total_points ** 0.5
        total = float(np.sqrt(np.sum(u.values ** 2) * g.cell_volume))
        if total > 0 and zero_amp > _MEAN_TOL * total:
            raise NegativeOrderOnNonMeanZero(
                f"zero mode {zero_amp:.3e} exceeds {_MEAN_TOL:.0e} of norm {total:.3e}"
            )
    return Field(grid=g, values=apply_multiplier(u.values, g, sigma))


def hs_inner(u, v, s):
    """Homogeneous H^s inner product  sum |xi|^(2s) Re(u_hat conj(v_hat))."""
    Av = apply_multiplier(v.values, v.grid, 2.0 * s)
    return float(np.sum(u.values * Av)) * u.grid.cell_volume


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


def field_from_bytes(blob, max_points=DEFAULT_MAX_POINTS):
    """Parse the dump format back into a Field."""
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl].decode("utf-8"))
    grid = make_grid(header["dim"], header["points_per_dim"], header["half_width"],
                     max_points=max_points)
    values = np.frombuffer(blob[nl + 1:], dtype="<f8", count=grid.total_points)
    return Field(grid=grid, values=values.reshape(grid.shape).copy())
