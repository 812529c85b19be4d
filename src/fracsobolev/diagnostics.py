"""Numerical probes for energy concentration: cell measures, atom detection,
tails, cutoff and commutator decay, and the limit functional bound.

The localized probes work on the index box of their support and leave the
rest of the box alone: ball masses on the ball's window
(``Grid.ball_window``), the near-domain set on the domain's window grown by
the margin, which the mask keeps per margin, atom detection's ball sums on
the box of the blocks whose mass bound can reach the threshold, then on
the part of it that each zeroed ball changes, and the commutator's
products on the box where the cutoff is nonzero, with the image of phi u
transformed from that box's rows.  No probe copies its input measure or
field.  Each gives what its whole-box form gives, to the bit.  The energy
measure, the tail and the commutator read the image (-Lap)^(s/2) u that u
keeps (``spectral.frac_power``), so on one field they run its transform
pair once, and the tail squares only the far cells of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateInput, InvalidOrder
from .extremals import cutoff_field
from .norms import hs_dot_norm_sq, lp_integral, sobolev_constant
from .spectral import (Field, _check_finite, _convolve, _half_spectrum_energy, _image_of_rows,
                       _narrow_support, _offset_distances, _same_grid, frac_power)

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
# values within this share of the total mass of the largest count as tied
_TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
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


def energy_density(u, s):
    """Per-cell masses of |(-Lap)^(s/2) u|^2 dx for s > 0; total equals the
    squared homogeneous norm up to rounding.  The masses are the image of
    u that u keeps (``frac_power``), squared into a new array and scaled."""
    if not s > 0:
        raise InvalidOrder(f"s must be positive, got {s}")
    image = frac_power(u, s).values
    masses = image * image
    masses *= u.grid.cell_volume
    return CellMeasure(grid=u.grid, masses=masses)


def lp_density(u, p, mask=None):
    """Per-cell masses of |u|^p dx for p > 0, optionally restricted to a
    domain mask; with a mask only the inside cells are evaluated.  A mask
    on another grid than u raises InvalidGrid."""
    if not p > 0:
        raise InvalidOrder(f"p must be positive, got {p}")
    if mask is None:
        return CellMeasure(grid=u.grid, masses=np.abs(u.values) ** p * u.grid.cell_volume)
    _same_grid(u.grid, mask.grid, "mask", "u")
    vals = np.zeros(u.grid.shape)
    vals[mask.inside] = np.abs(u.values[mask.inside]) ** p * u.grid.cell_volume
    return CellMeasure(grid=u.grid, masses=vals)


def _best_cell(values, total):
    """Index of the first cell in C order whose value is within
    ``_TIE_TOL * total`` of the largest, lest FFT rounding decide a tie."""
    near = values >= float(values.max()) - _TIE_TOL * total
    return np.unravel_index(int(np.argmax(near)), values.shape)


def argmax_cell(m):
    """Cell-center coordinates of the largest mass; ``_best_cell`` breaks ties."""
    return tuple(float(m.grid.axis[i]) for i in _best_cell(m.masses, m.total))


def _ball_offsets(grid, radius):
    """Index offsets d, one row each, whose distance is within ``radius``:
    the cells of the closed ball that ``_ball_sample`` tests."""
    # one offset beyond radius/h, so that rounding in the quotient drops no cell
    reach = int(radius / grid.spacing) + 1
    return np.argwhere(_offset_distances(grid, np.arange(-reach, reach + 1)) <= radius) - reach


def _ball_sample(grid, radius):
    """The closed ball of ``radius`` as an even kernel sample for
    ``spectral._convolve``: True at the index offsets 0..reach per axis whose
    distance h*sqrt(sum d^2) is within ``radius``.  The reach is one offset
    beyond radius/h, as in ``_ball_offsets``, and below M."""
    reach = int(min(radius / grid.spacing, grid.points_per_dim - 2)) + 1
    return _offset_distances(grid, np.arange(reach + 1)) <= radius


def _grow(window, cells, M):
    """Index slices ``window`` widened by ``cells`` on each side, clipped to [0, M)."""
    return tuple(slice(max(w.start - cells, 0), min(w.stop + cells, M)) for w in window)


def _within(inner, outer):
    """Index slices ``inner`` relative to the start of ``outer``, which holds them."""
    return tuple(slice(a.start - b.start, a.stop - b.start) for a, b in zip(inner, outer))


def _block_bounds(masses, b):
    """Per block of b cells per axis, the mass of the 3^N blocks about it,
    none past the box edge: a bound on the mass of every ball of reach
    below b about a cell of the block."""
    N, nb = masses.ndim, masses.shape[0] // b
    bound = masses.reshape((nb, b) * N)
    # one in-block axis at a time, the outermost first: whole rows add
    for ax in range(1, N + 1):
        bound = bound.sum(axis=ax)
    for ax in range(N):
        lead = (slice(None),) * ax
        pad = np.pad(bound, [(1, 1) if a == ax else (0, 0) for a in range(N)])
        bound = sum(pad[lead + (slice(d, d + nb),)] for d in range(3))
    return bound


def atom_detect(m, nu, radius, threshold):
    """Greedy extraction of concentration atoms from an energy measure.

    Repeatedly picks the cell whose ball of ``radius`` holds the most energy
    mass, records the ball masses of both measures, zeroes the ball and
    excludes centers within ``radius`` of chosen atoms, stopping when the
    best ball holds no positive mass or less than ``threshold * total``, or
    DEFAULT_ATOM_CAP were found.  The center is ``_best_cell`` of the ball
    sums, and the masses and the threshold test use the exact sum over
    that ball's cells.

    The sums are formed only where a center can be recorded.  A ball about
    a cell of a block of b cells per axis, b the smallest power of two
    above the reach of ``_ball_sample``, lies in the 3^N blocks about it,
    so their mass bounds its sum (``_block_bounds``).  A block whose bound
    is below ``threshold * total`` by more than twice the tie band holds
    no center that is recorded or ties with one, so the sums are one
    linear convolution with the ball on the box of the other blocks, and
    none when there are none.  Zeroing a ball moves the sums only within
    2 reach of its center, so after each atom that part of the box is
    convolved again from the input within reach of it.  Neither measure is
    copied: the zeroed cells are exactly those no longer allowed as
    centers, so a ball mass, or the input of a local convolution, reads
    the measure where allowed and zero elsewhere, on its own box.  ``nu``
    must lie on the grid of ``m`` (InvalidGrid otherwise).
    """
    grid = m.grid
    _same_grid(grid, nu.grid, "nu", "m")
    if not radius >= 2.0 * grid.spacing:
        raise InvalidOrder(f"detection radius {radius} below two cells")
    if not (0.0 < threshold < 1.0):
        raise InvalidOrder(f"threshold must lie in (0, 1), got {threshold}")
    M = grid.points_per_dim
    sample = _ball_sample(grid, radius)
    reach = len(sample) - 1
    total = m.total
    # reach < M, so b <= M divides M
    b = 1 << reach.bit_length()
    blocks = np.argwhere(_block_bounds(m.masses, b)
                         >= threshold * total - 2.0 * _TIE_TOL * total)
    if not len(blocks):
        return AtomList(entries=())
    region = tuple(slice(int(lo) * b, (int(hi) + 1) * b)
                   for lo, hi in zip(blocks.min(axis=0), blocks.max(axis=0)))
    allowed = np.ones(grid.shape, dtype=bool)

    def zeroed(masses, box):
        """``masses`` on ``box``, zero on the balls already extracted."""
        return np.where(allowed[box], masses[box], 0.0)

    src = _grow(region, reach, M)
    sums = _convolve(sample, (m.masses[src],))[0][_within(region, src)]
    entries = []
    for _ in range(DEFAULT_ATOM_CAP):
        idx = tuple(int(i) + w.start for i, w in zip(_best_cell(sums, total), region))
        point = tuple(slice(i, i + 1) for i in idx)
        box = _grow(point, reach, M)
        # the ball about idx on its box: the sample at |offset| per axis
        ball = sample[np.ix_(*(np.abs(np.arange(w.start, w.stop) - i)
                               for w, i in zip(box, idx)))]
        mu = float(zeroed(m.masses, box)[ball].sum())
        # no center left, or the best ball holds too little mass
        if not (allowed[idx] and mu > 0.0 and mu >= threshold * total):
            break
        center = tuple(float(grid.axis[i]) for i in idx)
        entries.append(AtomEntry(location=center, mu=mu,
                                 nu=float(zeroed(nu.masses, box)[ball].sum())))
        allowed[box][ball] = False
        near = tuple(slice(max(i - 2 * reach, w.start), min(i + 2 * reach + 1, w.stop))
                     for i, w in zip(idx, region))
        src = _grow(near, reach, M)
        moved = sums[_within(near, region)]
        moved[...] = _convolve(sample, (zeroed(m.masses, src),))[0][_within(near, src)]
        moved[~allowed[near]] = -np.inf
    return AtomList(entries=tuple(entries))


def mass_in_ball(m, center, r):
    """Mass of cells whose centers lie within distance r of ``center``; only
    the cells of the ball's window (``Grid.ball_window``) are tested."""
    if not r > 0:
        raise InvalidOrder(f"radius must be positive, got {r}")
    box = m.grid.ball_window(center, r)
    return float(m.masses[box][m.grid.radii(center, box) <= r].sum())


def _near_domain(mask, margin):
    """Cells within ``margin`` of the domain: Omega dilated by the closed ball.

    A cell is near when some inside cell lies at index offset d with
    h*sqrt(sum d^2) <= margin, the distance a Euclidean distance transform
    compares.  No other cell lies within the ball's reach of the domain's
    window (``DomainMask.window``), so the dilation is one linear
    convolution of the inside indicator on that window grown by the reach,
    thresholded at 0.5.  The mask, frozen with a read-only ``inside``,
    keeps the set per margin, read-only, so it is built once.
    """
    key = float(margin)
    near = mask._near.get(key)
    if near is None:
        sample = _ball_sample(mask.grid, key)
        box = _grow(mask.window, len(sample) - 1, mask.grid.points_per_dim)
        near = np.zeros(mask.grid.shape, dtype=bool)
        near[box] = _convolve(sample, (mask.inside[box].astype(float),))[0] > 0.5
        near.setflags(write=False)
        # setdefault keeps one set per margin when threads race here
        near = mask._near.setdefault(key, near)
    return near


def tail_energy(u, s, mask, margin):
    """Energy mass over cells farther than ``margin`` from the domain; a
    mask on another grid than u raises InvalidGrid, an order s <= 0
    InvalidOrder.  The image that u keeps is read at the far cells only,
    each squared and scaled as ``energy_density`` does, and summed in C
    order, so after ``energy_density(u, s)`` no transform runs and the sum
    is that of its measure's far cells."""
    if not s > 0:
        raise InvalidOrder(f"s must be positive, got {s}")
    if not margin > 0:
        raise InvalidOrder(f"margin must be positive, got {margin}")
    _same_grid(u.grid, mask.grid, "mask", "u")
    far = frac_power(u, s).values[~_near_domain(mask, margin)]
    far *= far
    far *= u.grid.cell_volume
    return float(far.sum())


def top_octave_share(u, s):
    """Share of the homogeneous energy sum |xi|^(2s) |u^|^2 carried by the top
    octave |xi| > pi / (2h), the upper half of the resolved frequencies.

    A resolution indicator: a maximizer the grid resolves keeps it near 1e-3
    or below, a lattice spike near 0.1.  One forward half-spectrum
    transform (``spectral._half_spectrum_energy``), as the homogeneous norm
    runs.  Raises InvalidOrder for s <= 0 and DegenerateInput for a field
    with no energy.
    """
    if not s > 0:
        raise InvalidOrder(f"s must be positive, got {s}")
    g = u.grid
    M = g.points_per_dim
    weight = g.multiplier(2.0 * s)
    dens = _half_spectrum_energy(u.values, weight, g.shape)
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
        out.append(math.sqrt(hs_dot_norm_sq(w, s)))
    return out


def commutator_residual(u, phi, s):
    """L2 norm of  phi * (-Lap)^(s/2) u - (-Lap)^(s/2)(phi u).

    ``phi`` is a Field on the grid of u (InvalidGrid otherwise).  Both
    products are formed only on the box of the cells where phi is nonzero,
    as phi u is zero elsewhere, and so is phi (-Lap)^(s/2) u; for phi == 0
    the norm is 0.  Both products are checked finite, as a Field is, so an
    overflow raises InvalidGrid, not a warning, before the image of phi u
    is transformed from the rows of that box along axis 0
    (``spectral._image_of_rows``).  (-Lap)^(s/2) u is the image that u keeps
    (``frac_power``); the image of phi u is a fresh array, on which the
    difference is taken and squared in place.
    """
    g = u.grid
    _same_grid(g, phi.grid, "phi", "u")
    phi_vals = phi.values
    box = _narrow_support(phi_vals, g.points_per_dim)
    if not box:
        return 0.0
    image = frac_power(u, s).values[box]
    with np.errstate(over="ignore", invalid="ignore"):
        a = phi_vals[box] * image
        phi_u = phi_vals[box] * u.values[box]
    _check_finite(a)
    _check_finite(phi_u)
    slab = np.zeros((box[0].stop - box[0].start,) + g.shape[1:])
    slab[(slice(None),) + box[1:]] = phi_u
    b = _image_of_rows(slab, box[0].start, g, s)
    b[box] -= a
    b *= b
    return math.sqrt(float(np.sum(b)) * g.cell_volume)


def gamma_limit_value(u, atoms, pack, mask):
    """Limit functional  int_Omega |u|^(2*) + S* sum mu_j^(2*/2)  of an
    admissible pair; raises BudgetExceeded when energy plus atom mass
    exceeds one beyond tolerance."""
    energy = hs_dot_norm_sq(u, pack.s)
    mu_sum = sum(e.mu for e in atoms)
    if energy + mu_sum > 1.0 + _BUDGET_TOL:
        raise BudgetExceeded(f"energy {energy:.6f} plus atom mass {mu_sum:.6f} exceeds 1")
    Sstar = sobolev_constant(pack.dim, pack.s)
    atom_part = sum(e.mu ** (pack.two_star / 2.0) for e in atoms)
    return lp_integral(u, pack.two_star, mask) + Sstar * atom_part
