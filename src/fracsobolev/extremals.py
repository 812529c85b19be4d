"""Extremal bubble profiles and the localized constructions.

``critical_exponent`` and ``sobolev_constant`` are re-exported from ``norms``.
Localized bubbles are smooth-cutoff truncations of rescaled bubbles,
renormalized on the grid; glued sums place disjointly supported localized
bubbles at prescribed atoms; recovery fields join a fixed smooth function,
on its grid, to a glued sum through an annular cutoff.  A cutoff, and the
bubble it truncates, are sampled only on the window of the cutoff's double
ball (``Grid.ball_window``); every other cell is zero, and a glued sum adds
each bubble on its window only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, InvalidGrid, InvalidOrder, OverlappingAtoms, TailTooFat,
                     UnderResolved)
from .norms import ExponentPack, _vanishes_off, critical_exponent, hs_dot_norm_sq, sobolev_constant
from .spectral import Field, _same_grid, _window_norm_sq

__all__ = [
    "BubbleSpec",
    "CutoffSpec",
    "AtomSpec",
    "critical_exponent",
    "sobolev_constant",
    "cutoff_profile",
    "cutoff_field",
    "talenti_bubble",
    "require_core_cells",
    "rescaled_bubble",
    "localized_bubble",
    "atom_localizations",
    "glued_bubble_parts",
    "glued_bubbles",
    "recovery_core_width",
    "recovery_sequence",
]

MIN_CORE_CELLS = 4.0
DEFAULT_TAIL_THRESHOLD = 0.5
# default localization radius as a share of the distance to the nearest
# other atom or box face, and bubble scale as a share of that radius
ATOM_BALL_FRACTION = 0.25
GLUED_SCALE_FRACTION = 0.5
# localization radius of recovery_sequence's glued bubbles, as a share of
# the hole radius sigma
RECOVERY_RADIUS_FRACTION = 0.5


@dataclass(frozen=True)
class BubbleSpec:
    """Extremal profile c / (lambda^2 + |x - x0|^2)^((N-2s)/2)."""

    amplitude: float
    scale: float
    center: tuple
    pack: ExponentPack

    def __post_init__(self):
        if not 0 < abs(self.amplitude) < np.inf:
            raise InvalidOrder(f"bubble amplitude must be nonzero and finite, got {self.amplitude}")
        if not 0 < self.scale < np.inf:
            raise InvalidOrder(f"bubble scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        if len(self.center) != self.pack.dim:
            raise InvalidOrder(f"center has {len(self.center)} components for dim {self.pack.dim}")

    @property
    def decay_power(self):
        return (self.pack.dim - 2.0 * self.pack.s) / 2.0


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth bump: 1 on B_rho(center), 0 outside B_2rho(center), values in [0,1]."""

    center: tuple
    inner_radius: float

    def __post_init__(self):
        if not self.inner_radius > 0:
            raise InvalidOrder(f"inner_radius must be positive, got {self.inner_radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))


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


def _cutoff_window(grid, center, rho):
    """The cells ``cutoff_profile`` can make nonzero, those within 2 rho of
    ``center`` (``Grid.ball_window``), and its values there."""
    box = grid.ball_window(center, 2.0 * rho)
    return box, cutoff_profile(grid.radii(center, box), rho)


def cutoff_field(cut, grid, dilation=1.0):
    """Sample the cutoff of ``cut`` dilated about its center by ``dilation``;
    only the cells of its double ball are evaluated, the rest are zero."""
    box, phi = _cutoff_window(grid, cut.center, dilation * cut.inner_radius)
    vals = np.zeros(grid.shape)
    vals[box] = phi
    return Field(grid=grid, values=vals)


def _sample_bubble(grid, amplitude, scale, center, decay_power, window=None):
    if any(abs(c) >= grid.half_width for c in center):
        raise InvalidOrder(f"bubble center {center} lies outside the box")
    r2 = grid.radii(center, window) ** 2
    return amplitude / (scale * scale + r2) ** decay_power


def talenti_bubble(spec, grid, normalize=False):
    """Sample the extremal profile at cell centers.

    With ``normalize`` the amplitude is rescaled so the discrete homogeneous
    norm is exactly one.  Raises TailTooFat when the boundary-layer value
    exceeds DEFAULT_TAIL_THRESHOLD times the peak (box too small for the scale).
    """
    vals = _sample_bubble(grid, spec.amplitude, spec.scale, spec.center, spec.decay_power)
    peak = float(np.max(np.abs(vals)))
    boundary = max(float(np.abs(np.take(vals, (0, -1), axis=ax)).max()) for ax in range(grid.dim))
    if boundary > DEFAULT_TAIL_THRESHOLD * peak:
        raise TailTooFat(f"boundary tail {boundary / peak:.3f} of peak exceeds threshold "
                         f"{DEFAULT_TAIL_THRESHOLD}")
    u = Field(grid=grid, values=vals)
    if normalize:
        u = Field(grid=grid, values=vals / np.sqrt(hs_dot_norm_sq(u, spec.pack.s)))
    return u


def require_core_cells(core, grid, start=None):
    """Raise UnderResolved when a bubble core of width ``core`` spans fewer
    than MIN_CORE_CELLS cells; the message names the smallest M, ``start``
    (by default the grid's) times a power of two, that resolves it."""
    if core < MIN_CORE_CELLS * grid.spacing:
        M = start or grid.points_per_dim
        while core < MIN_CORE_CELLS * 2.0 * grid.half_width / M:
            M *= 2
        raise UnderResolved(
            f"core width {core:.3e} below {MIN_CORE_CELLS:g} cells ({MIN_CORE_CELLS * grid.spacing:.3e}); "
            f"M = {M} points per axis resolves it", param="points_per_dim")


def _rescaled_values(spec, eps, grid, window=None):
    """Samples of ``rescaled_bubble`` on ``window`` (the whole box by default)."""
    if not (0.0 < eps <= 1.0):
        raise InvalidOrder(f"eps must lie in (0, 1], got {eps}")
    core = eps * spec.scale
    require_core_cells(core, grid)
    amp = spec.amplitude * eps ** spec.decay_power
    return _sample_bubble(grid, amp, core, spec.center, spec.decay_power, window)


def rescaled_bubble(spec, eps, grid):
    """Concentrating rescaling about the bubble center, sampled in closed form.

    The rescaled profile has scale eps*lambda and amplitude
    c * eps^((N-2s)/2); its continuum homogeneous norm and critical integral
    equal those of the eps=1 bubble.
    """
    return Field(grid=grid, values=_rescaled_values(spec, eps, grid))


def localized_bubble(spec, cut, eps, grid):
    """Cutoff-localized, grid-normalized concentrating bubble.

    Returns ``(v, pre_norm)`` where v has unit discrete homogeneous norm and
    support inside the double ball of ``cut``, and pre_norm is the norm of
    the truncated field before normalization.  The bubble and the cutoff
    are sampled only on the double ball's window, and the norm is taken
    on that window (``spectral._window_norm_sq``).
    """
    vals, box, pre_norm = _localized_window(spec, cut, eps, grid)
    full = np.zeros(grid.shape)
    full[box] = vals
    return Field(grid=grid, values=full), pre_norm


def _localized_window(spec, cut, eps, grid):
    """The values of ``localized_bubble`` on the window of the cutoff's
    double ball, outside which they are zero, that window, and pre_norm."""
    box, phi = _cutoff_window(grid, cut.center, cut.inner_radius)
    vals = phi * _rescaled_values(spec, eps, grid, box)
    if not np.all(np.isfinite(vals)):
        raise InvalidGrid("localized bubble contains non-finite entries")
    pre_norm = float(np.sqrt(_window_norm_sq(vals, grid, spec.pack.s)))
    if pre_norm == 0.0:
        raise UnderResolved("cutoff annihilated the rescaled bubble")
    vals /= pre_norm
    return vals, box, pre_norm


def _snap_to_mask(point, mask):
    """Nearest inside-cell center; stands in for boundary atoms."""
    grid = mask.grid
    idx = tuple(int(np.argmin(np.abs(grid.axis - c))) for c in point)
    if mask.inside[idx]:
        return tuple(float(grid.axis[i]) for i in idx)
    d2 = sum((c - p) ** 2 for c, p in zip(np.ix_(*[grid.axis] * grid.dim), point))
    d2 = np.where(mask.inside, d2, np.inf)
    j = np.unravel_index(int(np.argmin(d2)), grid.shape)
    return tuple(float(grid.axis[i]) for i in j)


def atom_localizations(atoms, grid, mask=None, radii=None):
    """Per-atom (center, inner_radius) with pairwise-disjoint double balls.

    Default radii are ``ATOM_BALL_FRACTION`` of the smallest distance to the
    other atoms and to the box boundary.  Explicit radii are validated; double
    balls that intersect or leave the box raise OverlappingAtoms, and a
    mask on another grid raises InvalidGrid.
    """
    pts = [np.asarray(p, dtype=float) for p in atoms.points]
    if mask is not None:
        _same_grid(grid, mask.grid, "mask", "grid")
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


def _glued_specs(atoms, grid, mask, pack, radii):
    """Bubble and cutoff spec per atom, once ``atom_localizations`` has
    checked them all."""
    return [(BubbleSpec(amplitude=1.0, scale=GLUED_SCALE_FRACTION * rho, center=center,
                        pack=pack),
             CutoffSpec(center=center, inner_radius=rho))
            for center, rho in atom_localizations(atoms, grid, mask=mask, radii=radii)]


def glued_bubble_parts(atoms, eps, grid, mask, pack, radii=None):
    """Unit-norm localized bubble per atom, supports pairwise disjoint; each
    bubble has scale ``GLUED_SCALE_FRACTION`` of its localization radius."""
    return [localized_bubble(spec, cut, eps, grid)[0]
            for spec, cut in _glued_specs(atoms, grid, mask, pack, radii)]


def glued_bubbles(atoms, eps, grid, mask, pack, radii=None):
    """Square-root-mass combination  sum_j sqrt(mu_j) v_eps^j  of the
    localized bubbles of ``glued_bubble_parts``.  Each bubble is built,
    normalized and added on its double ball's window only, outside which
    it is zero, so the sum is the one whole-box array.  The sum is that of
    the whole-box terms to the bit: adding +0 changes no sum but -0, and a
    sum begun at +0 is never -0."""
    total = np.zeros(grid.shape)
    for mu, (spec, cut) in zip(atoms.masses, _glued_specs(atoms, grid, mask, pack, radii)):
        vals, box, _ = _localized_window(spec, cut, eps, grid)
        total[box] += np.sqrt(mu) * vals
    return Field(grid=grid, values=total)


def recovery_core_width(sigma, eps):
    """Core width of the glued bubbles ``recovery_sequence`` builds for hole
    radius ``sigma`` and concentration ``eps``."""
    return eps * (GLUED_SCALE_FRACTION * (RECOVERY_RADIUS_FRACTION * sigma))


def recovery_sequence(u, atoms, sigma, eps, mask, pack):
    """Joined field  u * phi_sigma + glued bubbles on the grid of u, disjointly supported.

    ``sigma`` is the hole radius rho_sigma: phi_sigma vanishes on
    B_sigma(x_j) and equals one outside B_2sigma(x_j).  The glued bubbles
    are localized inside the holes, each about the inside cell nearest its
    atom.  The mask is required: InvalidGrid when it lies on another grid
    than u, InvalidMask when u is nonzero outside it, and BudgetExceeded
    when ||u||^2 + sum mu_j reaches one.
    """
    grid = u.grid
    _vanishes_off(u, mask, "recovery base field")
    energy = hs_dot_norm_sq(u, pack.s)
    if energy + sum(atoms.masses) >= 1.0:
        raise BudgetExceeded(f"energy {energy:.6f} + atom mass exceeds the unit budget")
    phi = np.ones(grid.shape)
    for p in atoms.points:
        box, hole = _cutoff_window(grid, _snap_to_mask(p, mask), sigma)
        phi[box] -= hole
    phi = np.clip(phi, 0.0, 1.0)
    vals = u.values * phi
    if len(atoms.masses):
        radii = [RECOVERY_RADIUS_FRACTION * sigma] * len(atoms.masses)
        glued = glued_bubbles(atoms, eps, grid, mask, pack, radii=radii)
        vals = vals + glued.values
    return Field(grid=grid, values=vals)
