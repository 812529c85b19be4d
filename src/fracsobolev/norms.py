"""Norms, seminorms and the variational functionals on a bounded domain.

The critical exponent 2* (``critical_exponent``) and the sharp constant S*
(``sobolev_constant``) live here, beside ExponentPack, which takes its 2*
from ``critical_exponent``; ``extremals`` and the package re-export both.
Domain masks sample a user-supplied shape at cell centers.  The homogeneous
norm is the plain spectral sum of |xi|^(2s)|u_hat|^2; the Gagliardo double
integral is a direct pair sum with a diagonal correction and (in 1-D) an
exact exterior-tail term, so the Fourier/Gagliardo ratio is stable under
refinement.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import (ConstraintViolated, DegenerateInput, InvalidMask,
                     InvalidOrder, UnsupportedOrder)
from .spectral import apply_multiplier, forward_transform

__all__ = [
    "DomainMask",
    "ExponentPack",
    "critical_exponent",
    "sobolev_constant",
    "lp_integral",
    "hs_dot_norm_sq",
    "hs_full_norm_sq",
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
        + gammaln((N - 2.0 * s) / 2.0)
        - gammaln((N + 2.0 * s) / 2.0)
        + (2.0 * s / N) * (gammaln(N) - gammaln(N / 2.0))
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


@dataclass(frozen=True)
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
        for ax in range(self.grid.dim):
            edge = [slice(None)] * self.grid.dim
            for idx in (0, -1):
                edge[ax] = idx
                if ins[tuple(edge)].any():
                    raise InvalidMask("domain touches the outermost cell layer of the box")
        ins.setflags(write=False)
        object.__setattr__(self, "inside", ins)

    @property
    def measure(self):
        return float(self.inside.sum()) * self.grid.cell_volume

    @property
    def diameter(self):
        """Bounding-box diameter of the inside cells."""
        sq = 0.0
        axis = self.grid.axis
        for ax in range(self.grid.dim):
            proj = self.inside.any(axis=tuple(a for a in range(self.grid.dim) if a != ax))
            coords = axis[proj]
            sq += (coords.max() - coords.min()) ** 2
        return float(np.sqrt(sq))

    def centroid(self):
        pts = [c[self.inside].mean() for c in self.grid.coords()]
        return np.array(pts)

    def restrict(self, values):
        return np.where(self.inside, values, 0.0)

    def to_json(self):
        return json.dumps({"shape": self.shape_spec}, sort_keys=True)

    @staticmethod
    def from_shape(grid, spec):
        """Cell-center membership mask from a shape spec dict.

        Kinds: interval {bounds:[a,b]} (N=1), box {lower:[...], upper:[...]},
        ball {center:[...], radius: r}, polygon {vertices:[[x,y],...]} (N=2).
        """
        kind = spec.get("kind")
        coords = grid.coords()
        if kind == "interval":
            if grid.dim != 1:
                raise InvalidMask("interval shape requires a 1-D grid")
            a, b = spec["bounds"]
            inside = (coords[0] > a) & (coords[0] < b)
        elif kind == "box":
            lower, upper = spec["lower"], spec["upper"]
            inside = np.ones(grid.shape, dtype=bool)
            for c, lo, hi in zip(coords, lower, upper):
                inside &= (c > lo) & (c < hi)
        elif kind == "ball":
            inside = grid.radii(spec["center"]) < spec["radius"]
        elif kind == "polygon":
            if grid.dim != 2:
                raise InvalidMask("polygon shape requires a 2-D grid")
            inside = _points_in_polygon(coords[0], coords[1], np.asarray(spec["vertices"], float))
        else:
            raise InvalidMask(f"unknown shape kind {kind!r}")
        return DomainMask(grid=grid, inside=inside, shape_spec=dict(spec))


def _points_in_polygon(X, Y, verts):
    # even-odd rule ray casting, vectorized over all cells
    inside = np.zeros(X.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = ((y1 > Y) != (y2 > Y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (Y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (X < xint)
    return inside


def lp_integral(u, p, mask=None):
    """Integral of |u|^p over the masked cells (whole box when mask is None)."""
    if p <= 0:
        raise InvalidOrder(f"p must be positive, got {p}")
    v = np.abs(u.values)
    if mask is not None:
        v = v[mask.inside]
    return float(np.sum(v ** p) * u.grid.cell_volume)


def hs_dot_norm_sq(u, s):
    """Squared homogeneous norm: spectral sum of |xi|^(2s)|u_hat|^2,
    computed as the squared L2 norm of (-Lap)^(s/2) u."""
    if not s > 0:
        raise InvalidOrder(f"s must be positive, got {s}")
    a = apply_multiplier(u.values, u.grid, s)
    return float(np.sum(a * a)) * u.grid.cell_volume


def hs_full_norm_sq(u, s):
    """Squared inhomogeneous norm: spectral sum with weight (1+|xi|^2)^s."""
    if not s > 0:
        raise InvalidOrder(f"s must be positive, got {s}")
    c = forward_transform(u).coeffs
    return float(np.sum((1.0 + u.grid.xi_norm ** 2) ** s * np.abs(c) ** 2))


def gagliardo_seminorm_sq(u, s):
    """Double-integral Gagliardo seminorm |u(x)-u(y)|^2 / |x-y|^(N+2s).

    Diagonal cell pairs are excluded and replaced by a squared-gradient
    surrogate times the analytic kernel integral over the excluded region
    (exact cell-pair integral in 1-D, equal-volume-ball approximation for
    N >= 2).  For compactly supported u the integral over the box exterior is
    added analytically in 1-D (N >= 2 requires support well inside the box;
    the exterior term is then omitted).  Cost is O(M^(2N)).
    """
    if not (0.0 < s < 1.0):
        raise UnsupportedOrder(f"Gagliardo form requires 0 < s < 1, got {s}")
    g = u.grid
    N, h = g.dim, g.spacing
    pts = np.stack([c.ravel() for c in g.coords()], axis=1)
    vals = u.values.ravel()
    diff = np.subtract.outer(vals, vals)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, 1.0)
    kern = dist ** (-(N + 2.0 * s))
    np.fill_diagonal(kern, 0.0)
    total = float(np.sum(diff * diff * kern)) * g.cell_volume ** 2

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
        r_eq = h * np.exp(gammaln(N / 2.0 + 1.0) / N) / np.sqrt(np.pi)
        omega = 2.0 * np.pi ** (N / 2.0) / np.exp(gammaln(N / 2.0))
        total += float(np.sum(grad_sq)) * g.cell_volume * \
            (omega / N) * r_eq ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return total


def sobolev_quotient(u, pack, mask):
    """Scale-invariant quotient  int_Omega |u|^(2*) / ||u||_{Hs}^(2*)."""
    denom = hs_dot_norm_sq(u, pack.s)
    if denom < 1e-14:
        raise DegenerateInput(f"homogeneous norm {denom:.3e} below 1e-14")
    return lp_integral(u, pack.two_star, mask) / denom ** (pack.two_star / 2.0)


def subcritical_value(u, pack, mask):
    """F_eps(u) = int_Omega |u|^(2*-eps), on the unit homogeneous ball."""
    nrm = hs_dot_norm_sq(u, pack.s)
    if nrm > 1.0 + _UNIT_BALL_TOL:
        raise ConstraintViolated(f"||u||^2 = {nrm:.12f} exceeds the unit ball tolerance")
    return lp_integral(u, pack.subcritical_exponent, mask)


def hoelder_envelope(pack, mask):
    """Upper bound (S*)^((2*-eps)/2*) |Omega|^(eps/2*) for the subcritical value."""
    Sstar = sobolev_constant(pack.dim, pack.s)
    ts = pack.two_star
    return Sstar ** ((ts - pack.eps) / ts) * mask.measure ** (pack.eps / ts)
