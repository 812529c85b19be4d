"""Norms, seminorms and the variational functionals on a bounded domain.

The critical exponent 2* (``critical_exponent``) and the sharp constant S*
(``sobolev_constant``) live here, beside ExponentPack; ``extremals`` and the
package re-export both.  Domain masks sample a user-supplied shape at cell
centers.  The homogeneous norm is the spectral sum of |xi|^(2s)|u_hat|^2,
one forward transform of the whole box or of a support at most M/4 cells
wide, which ``spectral`` chooses between.  The Gagliardo double integral
is an off-diagonal pair sum of zero-padded FFT convolutions
(``spectral.offset_convolve``), plus a diagonal correction and, in 1-D, an
exact exterior-tail term, so the Fourier/Gagliardo ratio is stable under
refinement.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstraintViolated, DegenerateInput, InvalidMask,
                     InvalidOrder, UnsupportedOrder)
from .spectral import _narrow_support, _same_grid, _window_norm_sq, offset_convolve

__all__ = [
    "DomainMask",
    "ExponentPack",
    "critical_exponent",
    "sobolev_constant",
    "lp_integral",
    "hs_dot_norm_sq",
    "gagliardo_seminorm_sq",
    "sobolev_quotient",
    "subcritical_value",
    "hoelder_envelope",
]

_UNIT_BALL_TOL = 1e-8


def critical_exponent(N, s):
    """2* = 2N/(N-2s); raises InvalidOrder for s outside (0, N/2)."""
    if not (0.0 < s < N / 2.0):
        raise InvalidOrder(f"s must lie in (0, N/2) = (0, {N / 2.0}), got {s}", param="s")
    return 2.0 * N / (N - 2.0 * s)


def sobolev_constant(N, s):
    """Sharp constant of the critical embedding, in closed Gamma-function form."""
    two_star = critical_exponent(N, s)
    log_inner = (
        -2.0 * s * np.log(2.0)
        - s * np.log(np.pi)
        + math.lgamma((N - 2.0 * s) / 2.0)
        - math.lgamma((N + 2.0 * s) / 2.0)
        + (2.0 * s / N) * (math.lgamma(N) - math.lgamma(N / 2.0))
    )
    return float(np.exp(log_inner * two_star / 2.0))


@dataclass(frozen=True)
class ExponentPack:
    """Dimension N, fractional order s in (0, N/2), and the exponent deficit eps."""

    dim: int
    s: float
    eps: float = 0.0
    two_star: float = field(init=False)

    def __post_init__(self):
        two_star = critical_exponent(self.dim, self.s)
        if not (0.0 <= self.eps < two_star - 2.0):
            raise InvalidOrder(
                f"eps must lie in [0, 2*-2) = [0, {two_star - 2.0}), got {self.eps}",
                param="eps")
        object.__setattr__(self, "two_star", two_star)

    @property
    def subcritical_exponent(self):
        return self.two_star - self.eps

    def with_eps(self, eps):
        return ExponentPack(dim=self.dim, s=self.s, eps=eps)


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Boolean cell-membership mask for a bounded domain strictly inside the box."""

    grid: object
    inside: np.ndarray
    shape_spec: dict = None

    def __post_init__(self):
        ins = np.asarray(self.inside, dtype=bool)
        if ins.shape != self.grid.shape:
            raise InvalidMask(f"mask shape {ins.shape} does not match grid {self.grid.shape}")
        if not ins.any():
            raise InvalidMask("mask selects no cells")
        if _touches_outer_layer(ins):
            raise InvalidMask("domain touches the outermost cell layer of the box")
        ins.setflags(write=False)
        object.__setattr__(self, "inside", ins)
        # no span reaches M cells, so this is never None
        object.__setattr__(self, "_window", _narrow_support(ins, self.grid.points_per_dim))
        # near-domain sets per margin, read-only, which diagnostics._near_domain fills
        object.__setattr__(self, "_near", {})
        # (P, spectrum) of the window's operator per order, read-only, which
        # solver._mask_kernel fills for the solver and el_residual
        object.__setattr__(self, "_spectra", {})

    @property
    def measure(self):
        return float(self.inside.sum()) * self.grid.cell_volume

    @property
    def window(self):
        """Index slices, one per axis, of the bounding box of the inside
        cells, found once at construction."""
        return self._window

    @property
    def diameter(self):
        """Bounding-box diameter of the inside cells."""
        axis = self.grid.axis
        sq = sum((axis[w.stop - 1] - axis[w.start]) ** 2 for w in self.window)
        return float(np.sqrt(sq))

    def centroid(self):
        """Mean cell center of the inside cells, read on the window."""
        inside = self.inside[self.window]
        return np.array([np.broadcast_to(c, inside.shape)[inside].mean()
                         for c in np.ix_(*(self.grid.axis[w] for w in self.window))])

    def restrict(self, values):
        return np.where(self.inside, values, 0.0)

    @staticmethod
    def from_shape(grid, spec):
        """Cell-center membership mask from a shape spec dict.

        Kinds: interval {bounds:[a,b]} (N=1), box {lower:[...], upper:[...]},
        ball {center:[...], radius: r}, polygon {vertices:[[x,y],...]} (N=2);
        other keys, or a box corner of other than N components, raise InvalidMask.
        """
        kind = spec.get("kind")
        keys = {"interval": "bounds", "box": "lower upper", "ball": "center radius",
                "polygon": "vertices"}
        if kind not in keys or set(spec) != {"kind", *keys[kind].split()}:
            raise InvalidMask(f"shape {kind!r} with keys {list(spec)}; the kinds and their "
                              "keys: " + ", ".join(f"{k} ({v})" for k, v in keys.items()))
        if kind == "interval":
            if grid.dim != 1:
                raise InvalidMask("interval shape requires a 1-D grid")
            a, b = spec["bounds"]
            inside = (grid.axis > a) & (grid.axis < b)
        elif kind == "box":
            lower, upper = spec["lower"], spec["upper"]
            if not len(lower) == len(upper) == grid.dim:
                raise InvalidMask(f"box lower and upper need {grid.dim} components each")
            inside = np.ones(grid.shape, dtype=bool)
            for c, lo, hi in zip(np.ix_(*[grid.axis] * grid.dim), lower, upper):
                inside &= (c > lo) & (c < hi)
        elif kind == "ball":
            inside = grid.radii(spec["center"]) < spec["radius"]
        else:
            if grid.dim != 2:
                raise InvalidMask("polygon shape requires a 2-D grid")
            inside = _points_in_polygon(*np.ix_(grid.axis, grid.axis),
                                        np.asarray(spec["vertices"], float))
        return DomainMask(grid=grid, inside=inside, shape_spec=dict(spec))


def _touches_outer_layer(values):
    """True when ``values`` is nonzero on the outermost cell layer of the box."""
    return any(np.take(values, (0, -1), axis=ax).any() for ax in range(values.ndim))


def _points_in_polygon(X, Y, verts):
    # even-odd rule ray casting, vectorized over all cells
    inside = np.zeros(np.broadcast_shapes(X.shape, Y.shape), dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = ((y1 > Y) != (y2 > Y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (Y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (X < xint)
    return inside


def _vanishes_off(u, mask, name):
    """Raise InvalidGrid unless ``mask`` lies on the grid of ``u``, the field
    ``name``, and InvalidMask unless ``u`` vanishes off the domain."""
    _same_grid(u.grid, mask.grid, "mask", name)
    if np.any(u.values[~mask.inside]):
        raise InvalidMask(f"{name} is nonzero outside the domain mask")


def lp_integral(u, p, mask=None):
    """Integral of |u|^p over the masked cells (whole box when mask is None);
    a mask on another grid than u raises InvalidGrid."""
    if not p > 0:
        raise InvalidOrder(f"p must be positive, got {p}")
    v = u.values
    if mask is not None:
        _same_grid(u.grid, mask.grid, "mask", "u")
        v = v[mask.inside]
    v = np.abs(v)
    v **= p
    return float(np.sum(v) * u.grid.cell_volume)


def hs_dot_norm_sq(u, s):
    """Squared homogeneous norm: spectral sum of |xi|^(2s)|u_hat|^2, one
    forward transform, on the box of a support at most M/4 cells wide or
    on the whole box (``spectral._window_norm_sq``).  No nonzero cell
    gives 0.
    """
    if not s > 0:
        raise InvalidOrder(f"s must be positive, got {s}")
    return _window_norm_sq(u.values, u.grid, s)


def gagliardo_seminorm_sq(u, s):
    """Double-integral Gagliardo seminorm |u(x)-u(y)|^2 / |x-y|^(N+2s).

    Diagonal cell pairs are excluded and replaced by a squared-gradient
    surrogate times the analytic kernel integral over the excluded region
    (exact cell-pair integral in 1-D, equal-volume-ball approximation for
    N >= 2).  For compactly supported u the integral over the box exterior is
    added analytically in 1-D (N >= 2 requires support well inside the box;
    the exterior term is then omitted).  u must vanish on the outermost cell
    layer of the box, the rule DomainMask enforces; otherwise InvalidMask is
    raised.  The off-diagonal pair sum is two linear convolutions with the
    kernel (``offset_convolve``), so the cost is O(M^N log M).
    """
    if not (0.0 < s < 1.0):
        raise UnsupportedOrder(f"Gagliardo form requires 0 < s < 1, got {s}")
    g = u.grid
    N, h = g.dim, g.spacing
    vals = u.values
    if _touches_outer_layer(vals):
        raise InvalidMask("field is nonzero on the outermost cell layer of the box")

    def kernel(r):
        k = np.zeros_like(r)
        return np.power(r, -(N + 2.0 * s), out=k, where=r > 0)

    # sum_{i != j} (u_i - u_j)^2 K_{i-j} = 2 sum_i u_i (u_i (K*1)_i - (K*u)_i)
    k_one, k_u = offset_convolve(g, kernel, (np.ones(g.shape), vals))
    total = 2.0 * float(np.sum(vals * (vals * k_one - k_u))) * g.cell_volume ** 2

    grads = np.gradient(u.values, h) if N > 1 else [np.gradient(u.values, h)]
    grad_sq = sum(np.asarray(gr) ** 2 for gr in grads)
    if N == 1:
        cell_int = 2.0 * h ** (3.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
        total += float(np.sum(grad_sq)) * cell_int
        x = g.axis
        nz = np.abs(vals) > 0
        if nz.any():
            L = g.half_width
            T = ((L + x[nz]) ** (-2.0 * s) + (L - x[nz]) ** (-2.0 * s)) / (2.0 * s)
            total += 2.0 * float(np.sum(vals[nz] ** 2 * T)) * h
    else:
        r_eq = h * np.exp(math.lgamma(N / 2.0 + 1.0) / N) / np.sqrt(np.pi)
        omega = 2.0 * np.pi ** (N / 2.0) / np.exp(math.lgamma(N / 2.0))
        total += float(np.sum(grad_sq)) * g.cell_volume * \
            (omega / N) * r_eq ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return total


def sobolev_quotient(u, pack, mask):
    """Scale-invariant quotient  int_Omega |u|^(2*) / ||u||_{Hs}^(2*)."""
    denom = hs_dot_norm_sq(u, pack.s)
    if denom < 1e-14:
        raise DegenerateInput(f"homogeneous norm {denom:.3e} below 1e-14")
    return lp_integral(u, pack.two_star, mask) / denom ** (pack.two_star / 2.0)


def _ball_value(u, pack, mask, nrm):
    """``subcritical_value`` of ``u`` whose squared homogeneous norm is ``nrm``,
    the one home of the unit-ball check."""
    if nrm > 1.0 + _UNIT_BALL_TOL:
        raise ConstraintViolated(f"||u||^2 = {nrm:.12f} exceeds the unit ball tolerance")
    return lp_integral(u, pack.subcritical_exponent, mask)


def subcritical_value(u, pack, mask):
    """F_eps(u) = int_Omega |u|^(2*-eps), on the unit homogeneous ball."""
    return _ball_value(u, pack, mask, hs_dot_norm_sq(u, pack.s))


def hoelder_envelope(pack, mask):
    """Upper bound (S*)^((2*-eps)/2*) |Omega|^(eps/2*) for the subcritical value."""
    Sstar = sobolev_constant(pack.dim, pack.s)
    ts = pack.two_star
    return Sstar ** ((ts - pack.eps) / ts) * mask.measure ** (pack.eps / ts)
