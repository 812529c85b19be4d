"""Extremal bubble profiles and the localized constructions.

The critical exponent 2* and the sharp constant S* live in ``norms``, beside
ExponentPack, and are re-exported here as ``critical_exponent`` and
``sobolev_constant``.  Localized bubbles are smooth-cutoff truncations of
rescaled bubbles, renormalized on the grid; glued sums place disjointly
supported localized bubbles at prescribed atoms; recovery fields join a
fixed smooth function to a glued sum through an annular cutoff.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, InvalidMask, InvalidOrder,
                     OverlappingAtoms, TailTooFat, UnderResolved)
from .norms import (ExponentPack, critical_exponent, hs_dot_norm_sq,
                    sobolev_constant)
from .spectral import Field

__all__ = [
    "BubbleSpec",
    "CutoffSpec",
    "AtomSpec",
    "critical_exponent",
    "sobolev_constant",
    "cutoff_profile",
    "cutoff_field",
    "talenti_bubble",
    "rescaled_bubble",
    "localized_bubble",
    "atom_localizations",
    "glued_bubble_parts",
    "glued_bubbles",
    "recovery_sequence",
]

MIN_CORE_CELLS = 4.0
DEFAULT_TAIL_THRESHOLD = 0.5
# default localization radius as a share of the distance to the nearest
# other atom or box face, and bubble scale as a share of that radius
ATOM_BALL_FRACTION = 0.25
GLUED_SCALE_FRACTION = 0.5


@dataclass(frozen=True)
class BubbleSpec:
    """Extremal profile c / (lambda^2 + |x - x0|^2)^((N-2s)/2)."""

    amplitude: float
    scale: float
    center: tuple
    pack: ExponentPack

    def __post_init__(self):
        if self.amplitude == 0:
            raise InvalidOrder("bubble amplitude must be nonzero")
        if not self.scale > 0:
            raise InvalidOrder(f"bubble scale must be positive, got {self.scale}")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        if len(self.center) != self.pack.dim:
            raise InvalidOrder(f"center has {len(self.center)} components for dim {self.pack.dim}")

    @property
    def decay_power(self):
        return (self.pack.dim - 2.0 * self.pack.s) / 2.0

    def to_json(self):
        return json.dumps({"amplitude": self.amplitude, "scale": self.scale,
                           "center": list(self.center), "dim": self.pack.dim,
                           "s": self.pack.s}, sort_keys=True)


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth bump: 1 on B_rho(center), 0 outside B_2rho(center), values in [0,1]."""

    center: tuple
    inner_radius: float

    def __post_init__(self):
        if not self.inner_radius > 0:
            raise InvalidOrder(f"inner_radius must be positive, got {self.inner_radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))

    def to_json(self):
        return json.dumps({"center": list(self.center), "inner_radius": self.inner_radius},
                          sort_keys=True)


@dataclass(frozen=True)
class AtomSpec:
    """Concentration points in the domain closure with masses summing below one."""

    points: tuple
    masses: tuple

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in np.atleast_1d(p)) for p in self.points)
        ms = tuple(float(m) for m in self.masses)
        if len(pts) != len(ms):
            raise InvalidOrder("points and masses must have equal length")
        if any(m <= 0 for m in ms):
            raise InvalidOrder("atom masses must be positive")
        if sum(ms) >= 1.0:
            raise InvalidOrder(f"total atom mass {sum(ms)} must be strictly below 1")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise InvalidOrder(f"atom points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    def to_json(self):
        return json.dumps({"points": [list(p) for p in self.points],
                           "masses": list(self.masses)}, sort_keys=True)


def cutoff_profile(r, rho):
    """Radial bump: 1 for r <= rho, exp(1 - 1/(1-t^2)) with t=(r-rho)/rho on
    (rho, 2rho), 0 beyond."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= rho] = 1.0
    mid = (r > rho) & (r < 2.0 * rho)
    t = (r[mid] - rho) / rho
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return out


def cutoff_field(cut, grid, dilation=1.0):
    """Sample the cutoff of ``cut`` dilated about its center by ``dilation``."""
    r = grid.radii(cut.center)
    return Field(grid=grid, values=cutoff_profile(r, dilation * cut.inner_radius))


def _sample_bubble(grid, amplitude, scale, center, decay_power):
    if any(abs(c) >= grid.half_width for c in center):
        raise InvalidOrder(f"bubble center {center} lies outside the box")
    r2 = grid.radii(center) ** 2
    return amplitude / (scale * scale + r2) ** decay_power


def talenti_bubble(spec, grid, normalize=False, tail_threshold=DEFAULT_TAIL_THRESHOLD):
    """Sample the extremal profile at cell centers.

    With ``normalize`` the amplitude is rescaled so the discrete homogeneous
    norm is exactly one.  Raises TailTooFat when the boundary-layer value
    exceeds ``tail_threshold`` times the peak (box too small for the scale).
    """
    vals = _sample_bubble(grid, spec.amplitude, spec.scale, spec.center, spec.decay_power)
    peak = float(np.max(np.abs(vals)))
    boundary = 0.0
    for ax in range(grid.dim):
        sl = [slice(None)] * grid.dim
        for idx in (0, -1):
            sl[ax] = idx
            boundary = max(boundary, float(np.max(np.abs(vals[tuple(sl)]))))
    if boundary > tail_threshold * peak:
        raise TailTooFat(
            f"boundary tail {boundary / peak:.3f} of peak exceeds threshold {tail_threshold}"
        )
    u = Field(grid=grid, values=vals)
    if normalize:
        u = Field(grid=grid, values=vals / np.sqrt(hs_dot_norm_sq(u, spec.pack.s)))
    return u


def rescaled_bubble(spec, eps, grid):
    """Concentrating rescaling about the bubble center, sampled in closed form.

    The rescaled profile has scale eps*lambda and amplitude
    c * eps^((N-2s)/2); its continuum homogeneous norm and critical integral
    equal those of the eps=1 bubble.
    """
    if not (0.0 < eps <= 1.0):
        raise InvalidOrder(f"eps must lie in (0, 1], got {eps}")
    core = eps * spec.scale
    if core < MIN_CORE_CELLS * grid.spacing:
        raise UnderResolved(
            f"core width {core:.3e} below {MIN_CORE_CELLS:g} cells ({MIN_CORE_CELLS * grid.spacing:.3e})"
        )
    amp = spec.amplitude * eps ** spec.decay_power
    return Field(grid=grid, values=_sample_bubble(grid, amp, core, spec.center, spec.decay_power))


def localized_bubble(spec, cut, eps, grid):
    """Cutoff-localized, grid-normalized concentrating bubble.

    Returns ``(v, pre_norm)`` where v has unit discrete homogeneous norm and
    support inside the double ball of ``cut``, and pre_norm is the norm of
    the truncated field before normalization.
    """
    w = rescaled_bubble(spec, eps, grid)
    phi = cutoff_profile(grid.radii(cut.center), cut.inner_radius)
    vals = phi * w.values
    tilde = Field(grid=grid, values=vals)
    pre_norm = float(np.sqrt(hs_dot_norm_sq(tilde, spec.pack.s)))
    if pre_norm == 0.0:
        raise UnderResolved("cutoff annihilated the rescaled bubble")
    return Field(grid=grid, values=vals / pre_norm), pre_norm


def _snap_to_mask(point, mask):
    """Nearest inside-cell center; stands in for boundary atoms."""
    grid = mask.grid
    idx = tuple(int(np.argmin(np.abs(grid.axis - c))) for c in point)
    if mask.inside[idx]:
        return tuple(float(grid.axis[i]) for i in idx)
    coords = grid.coords()
    d2 = sum((c - p) ** 2 for c, p in zip(coords, point))
    d2 = np.where(mask.inside, d2, np.inf)
    j = np.unravel_index(int(np.argmin(d2)), grid.shape)
    return tuple(float(grid.axis[i]) for i in j)


def atom_localizations(atoms, grid, mask=None, radii=None):
    """Per-atom (center, inner_radius) with pairwise-disjoint double balls.

    Default radii are ``ATOM_BALL_FRACTION`` of the smallest distance to the
    other atoms and to the box boundary.  Explicit radii are validated; double
    balls that intersect or leave the box raise OverlappingAtoms.
    """
    pts = [np.asarray(p, dtype=float) for p in atoms.points]
    if mask is not None:
        pts = [np.asarray(_snap_to_mask(p, mask)) for p in pts]
    L = grid.half_width
    out = []
    for j, p in enumerate(pts):
        d_box = float(L - np.max(np.abs(p)))
        d_atoms = min((float(np.linalg.norm(p - q)) for i, q in enumerate(pts) if i != j),
                      default=np.inf)
        rho = radii[j] if radii is not None else ATOM_BALL_FRACTION * min(d_atoms, d_box)
        if not rho > 0:
            raise OverlappingAtoms(f"atom {j} has nonpositive localization radius")
        if 2.0 * rho > d_box:
            raise OverlappingAtoms(f"double ball of atom {j} leaves the box")
        out.append((tuple(p), float(rho)))
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            gap = float(np.linalg.norm(np.subtract(out[i][0], out[j][0])))
            if 2.0 * out[i][1] + 2.0 * out[j][1] > gap:
                raise OverlappingAtoms(f"double balls of atoms {i} and {j} intersect")
    return out


def glued_bubble_parts(atoms, eps, grid, mask, pack, radii=None):
    """Unit-norm localized bubble per atom, supports pairwise disjoint; each
    bubble has scale ``GLUED_SCALE_FRACTION`` of its localization radius."""
    parts = []
    for (center, rho) in atom_localizations(atoms, grid, mask=mask, radii=radii):
        spec = BubbleSpec(amplitude=1.0, scale=GLUED_SCALE_FRACTION * rho, center=center,
                          pack=pack)
        cut = CutoffSpec(center=center, inner_radius=rho)
        v, _ = localized_bubble(spec, cut, eps, grid)
        parts.append(v)
    return parts


def glued_bubbles(atoms, eps, grid, mask, pack, radii=None):
    """Square-root-mass combination  sum_j sqrt(mu_j) v_eps^j  of localized bubbles."""
    parts = glued_bubble_parts(atoms, eps, grid, mask, pack, radii=radii)
    total = np.zeros(grid.shape)
    for mu, v in zip(atoms.masses, parts):
        total += np.sqrt(mu) * v.values
    return Field(grid=grid, values=total)


def recovery_sequence(u, atoms, sigma, eps, grid, mask, pack):
    """Joined field  u * phi_sigma + glued bubbles, with disjoint supports.

    ``sigma`` is the hole radius rho_sigma: phi_sigma vanishes on
    B_sigma(x_j) and equals one outside B_2sigma(x_j).  The glued bubbles
    are localized inside the holes.  Raises InvalidMask when u is nonzero
    outside the mask and BudgetExceeded when ||u||^2 + sum mu_j reaches one.
    """
    if mask is not None and np.any(u.values[~mask.inside] != 0.0):
        raise InvalidMask("recovery base field must vanish outside the domain mask")
    energy = hs_dot_norm_sq(u, pack.s) if np.any(u.values) else 0.0
    budget = energy + sum(atoms.masses) if len(atoms.masses) else energy
    if budget >= 1.0:
        raise BudgetExceeded(f"energy {energy:.6f} + atom mass exceeds the unit budget")
    phi = np.ones(grid.shape)
    snapped = [_snap_to_mask(p, mask) if mask is not None else p for p in atoms.points]
    for p in snapped:
        phi -= cutoff_profile(grid.radii(p), sigma)
    phi = np.clip(phi, 0.0, 1.0)
    vals = u.values * phi
    if len(atoms.masses):
        radii = [sigma / 2.0] * len(atoms.masses)
        glued = glued_bubbles(atoms, eps, grid, mask, pack, radii=radii)
        vals = vals + glued.values
    return Field(grid=grid, values=vals)
