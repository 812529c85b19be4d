"""Numerical probes for energy concentration: cell measures, atom detection,
tails, cutoff and commutator decay, and the limit functional bound."""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import BudgetExceeded, InvalidOrder
from .extremals import cutoff_field
from .norms import hs_dot_norm_sq, lp_integral, sobolev_constant
from .spectral import Field, frac_power

__all__ = [
    "CellMeasure",
    "AtomList",
    "AtomEntry",
    "energy_density",
    "lp_density",
    "argmax_cell",
    "atom_detect",
    "mass_in_ball",
    "tail_energy",
    "cutoff_convergence_probe",
    "commutator_residual",
    "gamma_limit_value",
    "DEFAULT_ATOM_CAP",
]

DEFAULT_ATOM_CAP = 16
# slack on the unit energy-plus-mass budget of an admissible pair
_BUDGET_TOL = 1e-8


@dataclass(frozen=True)
class CellMeasure:
    """Nonnegative mass per cell; total approximates the generating integral."""

    grid: object
    masses: np.ndarray

    @property
    def total(self):
        return float(self.masses.sum())


@dataclass(frozen=True)
class AtomEntry:
    location: tuple
    mu: float
    nu: float


@dataclass(frozen=True)
class AtomList:
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def total_mu(self):
        return sum(e.mu for e in self.entries)

    def to_json(self):
        return json.dumps([{"x": list(e.location), "mu": e.mu, "nu": e.nu}
                           for e in self.entries])


def energy_density(u, s):
    """Per-cell masses of |(-Lap)^(s/2) u|^2 dx; total equals the squared
    homogeneous norm up to rounding."""
    g = frac_power(u, s)
    return CellMeasure(grid=u.grid, masses=g.values ** 2 * u.grid.cell_volume)


def lp_density(u, p, mask=None):
    """Per-cell masses of |u|^p dx, optionally restricted to a domain mask."""
    vals = np.abs(u.values) ** p * u.grid.cell_volume
    if mask is not None:
        vals = mask.restrict(vals)
    return CellMeasure(grid=u.grid, masses=vals)


def argmax_cell(m):
    """Cell-center coordinates of the largest mass (first in C order on ties)."""
    idx = np.unravel_index(int(np.argmax(m.masses)), m.grid.shape)
    return tuple(float(m.grid.axis[i]) for i in idx)


def _ball_offsets(grid, radius):
    reach = int(math.floor(radius / grid.spacing))
    axes = [np.arange(-reach, reach + 1)] * grid.dim
    mats = np.meshgrid(*axes, indexing="ij")
    d2 = sum((m * grid.spacing) ** 2 for m in mats)
    keep = d2 <= radius * radius
    return [tuple(int(m[i]) for m in mats) for i in zip(*np.nonzero(keep))]


def _shift_sum(masses, offsets):
    """Sum of zero-filled shifts: out[i] = sum of masses within the offset set."""
    out = np.zeros_like(masses)
    shape = masses.shape
    for off in offsets:
        src, dst = [], []
        for o, n in zip(off, shape):
            if o >= 0:
                src.append(slice(o, n))
                dst.append(slice(0, n - o))
            else:
                src.append(slice(0, n + o))
                dst.append(slice(-o, n))
        out[tuple(dst)] += masses[tuple(src)]
    return out


def atom_detect(m, nu, radius, threshold, max_atoms=DEFAULT_ATOM_CAP):
    """Greedy extraction of concentration atoms from an energy measure.

    Repeatedly picks the cell whose ball of ``radius`` holds the most energy
    mass (lowest lexicographic index on ties), records the ball masses of
    both measures, zeroes the ball and excludes centers within ``radius`` of
    chosen atoms, stopping when the best ball holds less than
    ``threshold * total`` or ``max_atoms`` were found.
    """
    grid = m.grid
    if radius < 2.0 * grid.spacing:
        raise InvalidOrder(f"detection radius {radius} below two cells")
    if not (0.0 < threshold < 1.0):
        raise InvalidOrder(f"threshold must lie in (0, 1), got {threshold}")
    offsets = _ball_offsets(grid, radius)
    work_mu = m.masses.copy()
    work_nu = nu.masses.copy()
    allowed = np.ones(grid.shape, dtype=bool)
    total = m.total
    entries = []
    for _ in range(max_atoms):
        ball_mu = _shift_sum(work_mu, offsets)
        ball_mu[~allowed] = -1.0
        idx = np.unravel_index(int(np.argmax(ball_mu)), grid.shape)
        best = float(ball_mu[idx])
        if best < threshold * total:
            break
        center = tuple(float(grid.axis[i]) for i in idx)
        # nu, zeroing and exclusion use the ball whose mu _shift_sum gave
        cells = np.asarray(offsets) + idx
        cells = cells[((cells >= 0) & (cells < grid.points_per_dim)).all(axis=1)]
        ball = np.zeros(grid.shape, dtype=bool)
        ball[tuple(cells.T)] = True
        entries.append(AtomEntry(location=center, mu=best, nu=float(work_nu[ball].sum())))
        work_mu[ball] = 0.0
        work_nu[ball] = 0.0
        allowed &= ~ball
    return AtomList(entries=tuple(entries))


def mass_in_ball(m, center, r):
    """Mass of cells whose centers lie within distance r of ``center``."""
    if not r > 0:
        raise InvalidOrder(f"radius must be positive, got {r}")
    return float(m.masses[m.grid.radii(center) <= r].sum())


def tail_energy(u, s, mask, margin):
    """Energy mass over cells farther than ``margin`` from the domain."""
    if not margin > 0:
        raise InvalidOrder(f"margin must be positive, got {margin}")
    m = energy_density(u, s)
    dist = ndimage.distance_transform_edt(~mask.inside) * u.grid.spacing
    return float(m.masses[dist > margin].sum())


def cutoff_convergence_probe(u, cut, lambdas, s, branch="shrink"):
    """Homogeneous-norm decay along a cutoff dilation branch.

    ``shrink`` returns ||u * phi_lambda||_{Hs} per lambda (expected to
    vanish as lambda -> 0); ``inflate`` returns ||u * phi_lambda - u||_{Hs}
    (expected to vanish as lambda grows once the double ball covers the
    support of u).
    """
    if branch not in ("shrink", "inflate"):
        raise InvalidOrder(f"branch must be 'shrink' or 'inflate', got {branch!r}")
    out = []
    for lam in lambdas:
        phi = cutoff_field(cut, u.grid, dilation=lam).values
        if branch == "shrink":
            w = Field(grid=u.grid, values=u.values * phi)
        else:
            w = Field(grid=u.grid, values=u.values * phi - u.values)
        if not np.any(w.values):
            out.append(0.0)
        else:
            out.append(math.sqrt(hs_dot_norm_sq(w, s)))
    return out


def commutator_residual(u, phi, s):
    """L2 norm of  phi * (-Lap)^(s/2) u - (-Lap)^(s/2)(phi u)."""
    phi_vals = phi.values if isinstance(phi, Field) else np.asarray(phi, dtype=float)
    a = phi_vals * frac_power(u, s).values
    b = frac_power(Field(grid=u.grid, values=phi_vals * u.values), s).values
    return math.sqrt(float(np.sum((a - b) ** 2)) * u.grid.cell_volume)


def gamma_limit_value(u, atoms, pack, mask):
    """Limit functional  int_Omega |u|^(2*) + S* sum mu_j^(2*/2)  of an
    admissible pair; raises BudgetExceeded when energy plus atom mass
    exceeds one beyond tolerance."""
    energy = hs_dot_norm_sq(u, pack.s) if np.any(u.values) else 0.0
    mu_sum = sum(e.mu for e in atoms) if atoms is not None else 0.0
    if energy + mu_sum > 1.0 + _BUDGET_TOL:
        raise BudgetExceeded(f"energy {energy:.6f} plus atom mass {mu_sum:.6f} exceeds 1")
    Sstar = sobolev_constant(pack.dim, pack.s)
    atom_part = sum(e.mu ** (pack.two_star / 2.0) for e in atoms) if atoms is not None else 0.0
    return lp_integral(u, pack.two_star, mask) + Sstar * atom_part
