"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the sharp constant is
re-evaluated with arbitrary-precision arithmetic, continuum norms come from
one-dimensional radial quadrature, maximizers from a line-searched projected
gradient ascent, atom locations from an exhaustive ball scan, the
Gagliardo pair sum from the dense O(M^(2N)) sum over every cell pair, the
cells near a domain from scipy's exact Euclidean distance transform, the
solver's restricted operator from full-box transforms of masked copies, and
its accelerated outer loop from plain normalized inverse iteration, and
the Anderson least-squares weights from modified Gram-Schmidt on the
differences themselves.  The
localized diagnostics, which work on the windows of their supports, have
whole-box forms here: the cutoff and the localized bubble sampled on every
cell, ball masses over every cell's radius, the dilation and the ball sums
as convolutions of the whole box, the latter repeated every round on a
zeroed copy of the measure, the commutator's products and the glued sum's
terms on every cell, the Euler-Lagrange residual formed on every cell
and then masked, and the solver's initial bump built on every cell.
"""

import math

import numpy as np
from mpmath import mp, mpf, gamma as mp_gamma, pi as mp_pi, power as mp_power
from scipy import ndimage
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma, gammaln

from fracsobolev import (AtomEntry, AtomList, Field, apply_multiplier, cutoff_profile,
                         frac_power, glued_bubble_parts, hs_dot_norm_sq, lp_integral,
                         offset_convolve, rescaled_bubble, subcritical_value)
from fracsobolev.diagnostics import _TIE_TOL, _ball_offsets


def sobolev_constant_mp(N, s, dps=50):
    """Arbitrary-precision evaluation of the closed-form sharp constant."""
    mp.dps = dps
    N_, s_ = mpf(N), mpf(s)
    ts = 2 * N_ / (N_ - 2 * s_)
    inner = (mp_power(2, -2 * s_) * mp_power(mp_pi, -s_)
             * mp_gamma((N_ - 2 * s_) / 2) / mp_gamma((N_ + 2 * s_) / 2)
             * mp_power(mp_gamma(N_) / mp_gamma(N_ / 2), 2 * s_ / N_))
    return float(mp_power(inner, ts / 2))


def gaussian_hs_norm_sq_quadrature(N, s):
    """Continuum homogeneous norm of exp(-|x|^2/2) by radial quadrature:
    omega_{N-1} int_0^inf r^(2s+N-1) exp(-r^2) dr."""
    omega = 2.0 * np.pi ** (N / 2.0) / sp_gamma(N / 2.0)
    val, _ = quad(lambda r: r ** (2 * s + N - 1) * np.exp(-r * r), 0, np.inf)
    return omega * val


def gradient_ascent_oracle(pack, mask, max_steps=4000, eta0=1.0, seed=None):
    """Projected gradient ascent for the subcritical value on the unit sphere.

    Ascends along the metric representative of the differential (guaranteed
    ascent direction), with backtracking acceptance and renormalization onto
    the constraint sphere.  Entirely line-search driven; never solves the
    stationarity equation.
    """
    grid = mask.grid
    pexp = pack.subcritical_exponent
    r = grid.radii(mask.centroid())
    extent = float(np.max(r[mask.inside]))
    u = mask.restrict(np.clip(1.0 - (r / extent) ** 2, 0.0, None) ** 2)
    if seed is not None:
        rng = np.random.default_rng(seed)
        u = u + 0.01 * mask.restrict(rng.standard_normal(grid.shape))
    u = u / np.sqrt(hs_dot_norm_sq(Field(grid=grid, values=u), pack.s))

    def value(vals):
        return lp_integral(Field(grid=grid, values=vals), pexp, mask)

    F = value(u)
    eta = eta0
    stalls = 0
    for _ in range(max_steps):
        g = mask.restrict(pexp * np.abs(u) ** (pexp - 2.0) * u)
        g0 = g - g.mean()
        d = mask.restrict(frac_power(Field(grid=grid, values=g0), -2.0 * pack.s).values)
        accepted = False
        for _ in range(60):
            cand = u + eta * d
            cand = cand / np.sqrt(hs_dot_norm_sq(Field(grid=grid, values=cand), pack.s))
            Fc = value(cand)
            if Fc > F:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        rel = (Fc - F) / F
        u, F = cand, Fc
        eta *= 1.5
        stalls = stalls + 1 if rel < 1e-13 else 0
        if stalls > 30:
            break
    return Field(grid=grid, values=u), F


def brute_force_best_ball(measure, radius):
    """Exhaustive scan over all cell centers for the heaviest ball."""
    grid = measure.grid
    centers = np.stack([c.ravel() for c in grid.coords()], axis=1)
    masses = measure.masses.ravel()
    best_mass, best_center = -1.0, None
    for i in range(centers.shape[0]):
        d = np.sqrt(((centers - centers[i]) ** 2).sum(axis=1))
        m = float(masses[d <= radius].sum())
        if m > best_mass:
            best_mass, best_center = m, tuple(centers[i])
    return best_center, best_mass


def gagliardo_seminorm_sq_dense(u, s):
    """Reference Gagliardo seminorm: the off-diagonal pair sum over explicit
    M^N x M^N distance and difference matrices, with the same diagonal
    correction and 1-D exterior tail as ``gagliardo_seminorm_sq``."""
    g = u.grid
    N, h = g.dim, g.spacing
    vals = u.values.ravel()
    # in-place products hold at most three M^N x M^N arrays at once
    kern = np.zeros((vals.size, vals.size))
    for c in g.coords():
        d = np.subtract.outer(c.ravel(), c.ravel())
        kern += np.multiply(d, d, out=d)
    np.fill_diagonal(kern, 1.0)
    np.power(kern, -(N + 2.0 * s) / 2.0, out=kern)
    np.fill_diagonal(kern, 0.0)
    diff = np.subtract.outer(vals, vals)
    diff *= diff
    total = float(np.sum(np.multiply(diff, kern, out=diff))) * g.cell_volume ** 2

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


def cutoff_field_full(cut, grid, dilation=1.0):
    """``cutoff_field`` on every cell of the box."""
    return Field(grid=grid, values=cutoff_profile(grid.radii(cut.center),
                                                  dilation * cut.inner_radius))


def localized_bubble_full(spec, cut, eps, grid):
    """``localized_bubble`` with the bubble and the cutoff on every cell."""
    vals = cutoff_profile(grid.radii(cut.center), cut.inner_radius) * \
        rescaled_bubble(spec, eps, grid).values
    pre_norm = float(np.sqrt(hs_dot_norm_sq(Field(grid=grid, values=vals), spec.pack.s)))
    return Field(grid=grid, values=vals / pre_norm), pre_norm


def mass_in_ball_full(m, center, r):
    """``mass_in_ball`` testing the radius of every cell of the box."""
    return float(m.masses[m.grid.radii(center) <= r].sum())


def near_domain_full(mask, margin):
    """The dilation of the domain by the closed ball, as one convolution of
    the whole box's inside indicator with the ball, thresholded at 0.5."""
    return offset_convolve(mask.grid, lambda r: (r <= margin).astype(float),
                           (mask.inside.astype(float),))[0] > 0.5


def atom_detect_full(m, nu, radius, threshold, max_atoms=16):
    """``atom_detect`` re-convolving the whole box every round: the ball sums
    of the zeroed measure, the tie rule, and the exact masses of the ball
    built from ``_ball_offsets`` on a whole-box mask."""
    grid = m.grid
    offsets = _ball_offsets(grid, radius)
    work_mu, work_nu = m.masses.copy(), nu.masses.copy()
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
        if not (allowed[idx] and mu > 0.0 and mu >= threshold * total):
            break
        entries.append(AtomEntry(location=tuple(float(grid.axis[i]) for i in idx), mu=mu,
                                 nu=float(work_nu[ball].sum())))
        work_mu[ball] = 0.0
        work_nu[ball] = 0.0
        allowed &= ~ball
    return AtomList(entries=tuple(entries))


def commutator_residual_full(u, phi, s):
    """``commutator_residual`` with phi (-Lap)^(s/2) u and phi u formed on
    every cell of the box."""
    phi_vals = phi.values if isinstance(phi, Field) else np.asarray(phi, dtype=float)
    a = phi_vals * frac_power(u, s).values
    b = frac_power(Field(grid=u.grid, values=phi_vals * u.values), s).values
    return math.sqrt(float(np.sum((a - b) ** 2)) * u.grid.cell_volume)


def glued_bubbles_full(atoms, eps, grid, mask, pack, radii=None):
    """``glued_bubbles`` as the whole-box sum of sqrt(mu_j) times each of
    ``glued_bubble_parts``."""
    total = np.zeros(grid.shape)
    for mu, v in zip(atoms.masses, glued_bubble_parts(atoms, eps, grid, mask, pack, radii)):
        total += np.sqrt(mu) * v.values
    return Field(grid=grid, values=total)


def initial_field_full(mask, seed):
    """``solver.default_initial_field``'s values, with the radii and the bump
    taken on every cell of the box and then masked."""
    from fracsobolev.solver import INITIAL_PERTURBATION
    grid = mask.grid
    r = grid.radii(mask.centroid())
    extent = float(np.max(r[mask.inside]))
    bump = np.clip(1.0 - (r / max(extent, grid.spacing)) ** 2, 0.0, None) ** 2
    rng = np.random.default_rng(seed)
    bump = bump + INITIAL_PERTURBATION * float(np.max(bump)) * rng.standard_normal(grid.shape)
    return mask.restrict(bump)


def el_residual_full(u, pack, mask):
    """``el_residual`` with |u|^(2*-2-eps) u and the residual formed on every
    cell of the box, then restricted to the domain."""
    feps = subcritical_value(u, pack, mask)
    q = pack.subcritical_exponent - 2.0
    Au = frac_power(u, 2.0 * pack.s)
    h_vol = u.grid.cell_volume
    multiplier = float(np.dot(u.values.ravel(), Au.values.ravel())) * h_vol / feps
    res = mask.restrict(Au.values - multiplier * np.abs(u.values) ** q * u.values)
    res_norm = math.sqrt(float(np.sum(res ** 2)) * h_vol)
    Au_norm = math.sqrt(float(np.sum(Au.values ** 2)) * h_vol)
    return multiplier, res_norm / Au_norm


def near_domain_edt(mask, margin):
    """Cells whose distance to the nearest inside cell, by the exact
    Euclidean distance transform in cells times the spacing, is <= margin."""
    return ndimage.distance_transform_edt(~mask.inside) * mask.grid.spacing <= margin


def full_box_ops(mask, *sigmas):
    """P |xi|^sigma P on whole-box arrays, one ``apply(src, out)`` per order,
    as ``solver._domain_op`` on a window that is the whole box: each masks a
    copy of ``src``, transforms all M^N cells and zeroes the result off the
    domain."""
    grid, outside = mask.grid, ~mask.inside

    def restricted(sigma):
        def apply(src, out):
            out[...] = apply_multiplier(np.where(outside, 0.0, src), grid, sigma)
            out[outside] = 0.0
            return out
        return apply

    return tuple(restricted(sigma) for sigma in sigmas)


def plain_inverse_iteration(pack, mask, tol, init=None, seed=0, cg_tol=1e-9,
                            max_iters=20000):
    """Plain normalized inverse iteration u <- w / ||w||, A w = |u|^(2*-2-eps) u
    with A = P (-Lap)^s P, on whole-box arrays through ``full_box_ops``: the
    solver's outer loop with neither the Anderson step nor the window.  Each
    CG starts from the previous w.  Stops when |dF| <= tol F and returns the
    maximizer, F_eps and the outer iteration count."""
    from fracsobolev.solver import _cg, default_initial_field
    grid, inside = mask.grid, mask.inside
    apply_op, precond = full_box_ops(mask, 2.0 * pack.s, -2.0 * pack.s)
    h_vol = grid.cell_volume
    q = pack.subcritical_exponent - 2.0

    def f_eps(v):
        return float(np.sum(np.abs(v[inside]) ** pack.subcritical_exponent)) * h_vol

    start = default_initial_field(mask, seed=seed) if init is None else init
    u = np.where(inside, start.values, 0.0)
    u /= math.sqrt(float(np.sum(u * apply_op(u, np.empty(grid.shape)))) * h_vol)
    F_old = f_eps(u)
    w, Aw = np.zeros(grid.shape), np.zeros(grid.shape)
    work = np.empty((4,) + grid.shape)
    for iters in range(1, max_iters + 1):
        _cg(apply_op, precond, np.where(inside, np.abs(u) ** q * u, 0.0), w, Aw,
            cg_tol, 2000, work)
        u = w / math.sqrt(float(np.sum(w * Aw)) * h_vol)
        F = f_eps(u)
        if abs(F - F_old) <= tol * abs(F_old):
            return Field(grid=grid, values=u), F, iters
        F_old = F
    raise AssertionError(f"plain inverse iteration did not reach tol {tol:g} "
                         f"in {max_iters} iterations")


# the share of its norm below which lstsq_weights_mgs drops a column
MGS_DEPENDENT_TOL = 1e-10


def lstsq_weights_mgs(target, columns, tol=MGS_DEPENDENT_TOL):
    """gamma minimizing ||target - sum_j gamma_j columns[j]||_2, by modified
    Gram-Schmidt on flat arrays, which it overwrites: the solver's Anderson
    weights before they came from the Gram matrix.  A column whose
    remainder keeps less than ``tol`` of its norm gets weight 0; returns
    None when every column does."""
    from fracsobolev.solver import _dot
    basis, coef, kept = [], [], []
    for j, v in enumerate(columns):
        norm = math.sqrt(_dot(v, v))
        r = []
        for qv in basis:
            r.append(_dot(qv, v))
            v -= r[-1] * qv
        rest = math.sqrt(_dot(v, v))
        if not rest > tol * norm:
            continue
        v /= rest
        basis.append(v)
        coef.append(r + [rest])
        kept.append(j)
    if not basis:
        return None
    rhs = []
    for qv in basis:
        rhs.append(_dot(qv, target))
        target -= rhs[-1] * qv
    gamma = np.zeros(len(columns))
    # back substitution on R, whose column l is coef[l]
    sol = [0.0] * len(basis)
    for i in reversed(range(len(basis))):
        acc = rhs[i] - sum(coef[l][i] * sol[l] for l in range(i + 1, len(basis)))
        sol[i] = acc / coef[i][i]
    gamma[kept] = sol
    return gamma
