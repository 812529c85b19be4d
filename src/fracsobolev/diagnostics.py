"""Numerical probes for energy concentration: cell measures, atom detection,
tails, cutoff and commutator decay, and the limit functional bound."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, InvalidOrder
from .extremals import cutoff_field
from .norms import hs_dot_norm_sq, lp_integral, sobolev_constant
from .spectral import Field, _offset_distances, frac_power, offset_convolve

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
    "top_octave_share",
    "cutoff_convergence_probe",
    "commutator_residual",
    "gamma_limit_value",
    "DEFAULT_ATOM_CAP",
]

DEFAULT_ATOM_CAP = 16
# slack on the unit energy-plus-mass budget of an admissible pair
_BUDGET_TOL = 1e-8
# ball sums within this share of the total mass of the best count as tied
_TIE_TOL = 1e-12


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
    """Index offsets d, one row each, whose distance is within ``radius``:
    the test of the ball kernel, on the distances ``offset_convolve`` uses."""
    # one offset beyond radius/h, so that rounding in the quotient drops no cell
    reach = int(radius / grid.spacing) + 1
    return np.argwhere(_offset_distances(grid, np.arange(-reach, reach + 1)) <= radius) - reach


def atom_detect(m, nu, radius, threshold, max_atoms=DEFAULT_ATOM_CAP):
    """Greedy extraction of concentration atoms from an energy measure.

    Repeatedly picks the cell whose ball of ``radius`` holds the most energy
    mass, records the ball masses of both measures, zeroes the ball and
    excludes centers within ``radius`` of chosen atoms, stopping when the
    best ball holds no positive mass or less than ``threshold * total``, or
    ``max_atoms`` were found.  The ball sums come from ``offset_convolve``;
    lest FFT rounding decide a tie, the center is the first cell in C order
    whose sum is within ``_TIE_TOL * total`` of the best, and the masses and
    the threshold test use the exact sum over that ball's cells.
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
        sums = offset_convolve(grid, lambda r: (r <= radius).astype(float), (work_mu,))[0]
        sums[~allowed] = -np.inf
        best = float(sums.max())
        idx = np.unravel_index(int(np.argmax(sums >= best - _TIE_TOL * total)), grid.shape)
        cells = offsets + idx
        cells = cells[((cells >= 0) & (cells < grid.points_per_dim)).all(axis=1)]
        ball = np.zeros(grid.shape, dtype=bool)
        ball[tuple(cells.T)] = True
        mu = float(work_mu[ball].sum())
        # no center left, or the best ball holds too little mass
        if not (allowed[idx] and mu > 0.0 and mu >= threshold * total):
            break
        center = tuple(float(grid.axis[i]) for i in idx)
        entries.append(AtomEntry(location=center, mu=mu, nu=float(work_nu[ball].sum())))
        work_mu[ball] = 0.0
        work_nu[ball] = 0.0
        allowed &= ~ball
    return AtomList(entries=tuple(entries))


def mass_in_ball(m, center, r):
    """Mass of cells whose centers lie within distance r of ``center``."""
    if not r > 0:
        raise InvalidOrder(f"radius must be positive, got {r}")
    return float(m.masses[m.grid.radii(center) <= r].sum())


def _near_domain(mask, margin):
    """Cells within ``margin`` of the domain: Omega dilated by the closed ball.

    A cell is near when some inside cell lies at index offset d with
    h*sqrt(sum d^2) <= margin, the distance a Euclidean distance transform
    compares.  The dilation is one ``offset_convolve`` of the inside
    indicator with the ball kernel, thresholded at 0.5.
    """
    return offset_convolve(mask.grid, lambda r: (r <= margin).astype(float),
                           (mask.inside.astype(float),))[0] > 0.5


def tail_energy(u, s, mask, margin):
    """Energy mass over cells farther than ``margin`` from the domain."""
    if not margin > 0:
        raise InvalidOrder(f"margin must be positive, got {margin}")
    m = energy_density(u, s)
    return float(m.masses[~_near_domain(mask, margin)].sum())


def top_octave_share(u, s):
    """Share of the homogeneous energy sum |xi|^(2s) |u^|^2 carried by the top
    octave |xi| > pi / (2h), the upper half of the resolved frequencies.

    A resolution indicator: a maximizer the grid resolves keeps it near 1e-3
    or below, a lattice spike near 0.1.  One half-spectrum transform; each
    half-spectrum mode counts twice except those with a last-axis index of
    0 or M/2, which are their own conjugates.  Raises DegenerateInput for a
    field with no energy.
    """
    g = u.grid
    M = g.points_per_dim
    weight = g.multiplier(2.0 * s)
    dens = np.abs(np.fft.rfftn(u.values))
    dens *= dens
    dens *= weight
    dens[..., 1:(M + 1) // 2] *= 2.0
    total = float(dens.sum())
    if not total > 0.0:
        raise DegenerateInput("field has no homogeneous energy")
    # |xi|^2 = (2 pi / (M h))^2 |k|^2 for integer |k|^2; cutting at
    # |k|^2 = M^2/16 + 1/2 puts no mode on the edge, whatever the rounding
    cut = ((2.0 * np.pi / (M * g.spacing)) ** 2 * (M * M / 16.0 + 0.5)) ** s
    return float(np.sum(dens, where=weight > cut)) / total


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
