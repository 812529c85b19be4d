"""Subcritical maximizers on a bounded domain via safeguarded Anderson-
accelerated normalized inverse iteration.

Each step solves the domain-restricted operator equation

    P (-Lap)^s P w = |u_k|^(2*-2-eps) u_k   on the inside cells

by conjugate gradients preconditioned with P (-Lap)^(-s) P, the pseudo-inverse
of the whole-box operator restricted to the domain.  The plain step goes to
g_k = w / ||w|| on the unit homogeneous sphere: F_eps is convex and g_k
maximizes its linearization at u_k there, so F_eps(g_k) >= F_eps(u_k) from
any start on the sphere.  The fixed point satisfies the discrete constrained
stationarity condition with multiplier 1 / F_eps, so the Euler-Lagrange
residual of a converged solve is tolerance-limited.

The inner solves are inexact (Golub & Ye, BIT 2000): a step's CG stops at
relative residual ETA_FACTOR sqrt(|dF| / F) of the step before, clipped to
[CG_TOL, ETA_MAX], and the first step's at ETA_MAX, forcing terms as in
Eisenstat & Walker (SIAM J. Sci. Comput. 1996).  Near the fixed point
|dF| / F is quadratic in the iterate's error and the eigen-residual, to
which Golub & Ye tie the inner tolerance, is linear in it: the square root
sizes the inner solve to the outer error, not to its square.  The ascent
argument holds for exact solves only, so a plain step from a CG that
stopped above CG_TOL and would lower F_eps, or that took no step, as from a
converged start, resumes the same CG from its w and A w down to CG_TOL and
is retaken.  A solve ends only on a step
solved to CG_TOL: a looser step that meets the stop test makes the next
step exact.

The accelerated step is Anderson mixing of depth ANDERSON_DEPTH (Walker & Ni,
SIAM J. Numer. Anal. 2011) on the last plain images g_i and residuals
f_i = g_i - u_i: x = g_k - dG gamma, with gamma the least-squares fit of f_k
by the residual differences dF, renormalized on the sphere.  A is linear, so
A x = A g_k - dAG gamma costs no transform.  A monotone safeguard (Zhang,
O'Donoghue & Boyd, SIAM J. Optim. 2020) takes x only if F_eps(x) >=
F_eps(g_k), and otherwise takes g_k and keeps only the newest history entry,
so no step lowers F_eps.

A refusal after a plain step marks a drift away from the fixed point that
Anderson models.  The plain step is then extended along d = g_k - u_k by the
expansion phase of a bracketing line search (Nocedal & Wright, Numerical
Optimization, Alg. 3.5): x = g_k + t d for t = 1, 2, 4, ..., normalized onto
the sphere (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008), is taken while F_eps(x) strictly rises; A d = A g_k - A u_k
costs no transform.

Every array of a solve covers only the domain's window, the bounding box of
its cells, W per axis.  There P |xi|^sigma P is the periodic kernel of
|xi|^sigma at the offsets (-W, W), a Toeplitz operator: one real FFT pair
on its circulant embedding, smooth(2W) long per axis (``spectral._toeplitz``).
``_domain_op`` only chooses the kernel, the grid's cached one
(``Grid.kernel``), and masks the image to the domain, for a solve at +-2s
and for ``el_residual`` at 2s.  CG starts from ||w|| u with the image
||w|| A u, which on an unextended plain step are the previous w and A w,
and keeps A w = rhs - r from its recurrence with w, which gives
||w||^2 = <w, A w>; so a CG that takes k steps runs 2k pairs: the first
preconditioning, k operator and k-1 preconditioner applies.  A solve runs
1 + sum 2k_i pairs: one for its start's image and 2k_i for each CG it
runs, resumed ones included.  Every inner product is ``_dot``: ``np.dot``
on blocks that OpenBLAS sums on one thread, added exactly, so no result
depends on the BLAS thread settings.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, FracSobolevError, InnerSolveFailed, InvalidOrder
from .norms import _ball_value, _vanishes_off, hoelder_envelope, hs_dot_norm_sq
from .spectral import Field, _kernel_sample, _same_grid, _toeplitz
from . import diagnostics

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SweepEntry",
    "el_residual",
    "solve",
    "eps_sweep",
    "default_initial_field",
    "MASS_RADIUS_FRACTIONS",
    "TAIL_MARGIN_FRACTION",
    "INITIAL_PERTURBATION",
    "ANDERSON_DEPTH",
    "CG_TOL",
    "CG_MAX_ITERS",
    "ETA_MAX",
    "ETA_FACTOR",
]

MASS_RADIUS_FRACTIONS = (0.2, 0.4)
TAIL_MARGIN_FRACTION = 0.5
# seeded noise in the default initial field, relative to the bump's peak
INITIAL_PERTURBATION = 0.01
# residual differences in the Anderson least-squares fit
ANDERSON_DEPTH = 3
# relative residual of an exact inner CG solve, on which every solve ends,
# and the iterations an inner CG may take
CG_TOL = 1e-9
CG_MAX_ITERS = 2000
# forcing terms of the inexact inner solves: an outer step's CG stops at
# relative residual ETA_FACTOR sqrt(|dF| / F) of the step before, clipped
# to [CG_TOL, ETA_MAX], so it follows the outer error, to which |dF| / F
# is quadratic near the fixed point; the first step stops at ETA_MAX
ETA_MAX = 1e-3
ETA_FACTOR = 1e-2
# a difference whose Gram-Schmidt remainder keeps less than this share of its
# norm is dropped from the fit as dependent on the newer ones
_DEPENDENT_TOL = 1e-10
# longest block _dot hands to np.dot: OpenBLAS splits a dot product of more
# than 10,000 elements across threads, so its rounding follows the thread
# count (scipy-openblas 0.3.31: 10,000 elements keep one CPU busy, 10,001 two)
_DOT_BLOCK = 8192


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol: float = 1e-8
    seed: int = 0
    eps_schedule: tuple = (0.8, 0.4, 0.2, 0.1)
    warm_start: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidOrder(f"max_iters must be >= 1, got {self.max_iters}", param="max_iters")
        if not 0 < self.tol < math.inf:
            raise InvalidOrder(f"tol must be positive and finite, got {self.tol}", param="tol")
        if self.seed < 0:
            raise InvalidOrder(f"seed must be >= 0, got {self.seed}", param="seed")
        sched = tuple(float(e) for e in self.eps_schedule)
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise InvalidOrder("eps_schedule must be strictly decreasing", param="eps_schedule")
        object.__setattr__(self, "eps_schedule", sched)


@dataclass(frozen=True)
class SolveResult:
    maximizer: Field
    value: float
    multiplier: float
    iters: int
    trace: tuple
    converged: bool
    # one entry per outer iteration: inner CG iterations, the CG's final
    # relative residual, whether the safeguard took the Anderson step, the
    # doublings the extended plain step took, and the CG iterations run
    # after the ascent guard resumed a loose solve (both 0 when none)
    cg_iters: tuple = ()
    cg_residuals: tuple = ()
    accelerated: tuple = ()
    extended: tuple = ()
    resumed: tuple = ()


@dataclass(frozen=True)
class SweepEntry:
    eps: float
    result: object
    envelope: float
    argmax: tuple
    mass_r1: float
    mass_r2: float
    tail_energy: float
    error: str = ""
    # share of the maximizer's energy in the top octave; see
    # diagnostics.top_octave_share
    top_octave: float = float("nan")


def _dot(a, b):
    """<a, b> of the flattened arrays: ``np.dot`` up to _DOT_BLOCK elements,
    else the correctly rounded sum (``math.fsum``) of ``np.dot`` over
    consecutive _DOT_BLOCK-long blocks."""
    a, b = a.ravel(), b.ravel()
    if a.size <= _DOT_BLOCK:
        return float(np.dot(a, b))
    return math.fsum(float(np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK]))
                     for i in range(0, a.size, _DOT_BLOCK))


def el_residual(u, pack, mask):
    """Rayleigh multiplier and relative L2 residual of the Euler-Lagrange
    equation (-Lap)^s u = lambda |u|^(2*-2-eps) u tested on the domain cells.

    ``u`` must lie on the mask's grid and vanish off the domain, as a solve's
    maximizer does (InvalidGrid, InvalidMask).  One apply of ``_domain_op``
    gives (-Lap)^s u on the domain and <u, (-Lap)^s u> h^N, the unit-ball
    norm and the multiplier's numerator; the residual's scale, the whole
    box's ||(-Lap)^s u||, is by Parseval sqrt(hs_dot_norm_sq(u, 2s))."""
    _vanishes_off(u, mask, "u")
    window = mask.window
    vals, inside = u.values[window], mask.inside[window]
    Au = _domain_op(mask, 2.0 * pack.s)[0](vals, np.empty(vals.shape))
    h_vol = u.grid.cell_volume
    nrm = _dot(vals, Au) * h_vol
    feps = _ball_value(u, pack, mask, nrm)
    if feps < 1e-14:
        raise DegenerateInput(f"subcritical value {feps:.3e} below 1e-14")
    multiplier = nrm / feps
    u_in = vals[inside]
    res = Au[inside] - multiplier * np.abs(u_in) ** (pack.subcritical_exponent - 2.0) * u_in
    return multiplier, math.sqrt(_dot(res, res) * h_vol / hs_dot_norm_sq(u, 2.0 * pack.s))


def default_initial_field(mask, seed=0):
    """Centered smooth bump over the domain plus a small seeded perturbation,
    built on the mask's window: the bump's peak, at the cell nearest the
    centroid, lies in it, and the noise is the whole box's draw cut to it."""
    grid, window = mask.grid, mask.window
    inside = mask.inside[window]
    r = grid.radii(mask.centroid(), window)
    extent = float(np.max(r[inside]))
    bump = np.clip(1.0 - (r / max(extent, grid.spacing)) ** 2, 0.0, None) ** 2
    noise = np.random.default_rng(seed).standard_normal(grid.shape)[window]
    bump = bump + INITIAL_PERTURBATION * float(np.max(bump)) * noise
    values = np.zeros(grid.shape)
    values[window] = np.where(inside, bump, 0.0)
    return Field(grid=grid, values=values)


def _domain_op(mask, *sigmas):
    """P |xi|^sigma P on the domain's window (``DomainMask.window``), one
    ``apply(src, out)`` per order: a ``spectral._toeplitz`` apply with the
    grid's cached kernel at the window's offsets (``_kernel_sample``), zero
    off the domain.  Arrays have the window's shape, and ``src`` must
    vanish off the domain, so the right-hand P is the identity on it.  An
    apply writes ``out``, returns it and allocates nothing."""
    inside = mask.inside[mask.window]
    outside = ~inside
    # SPD on domain-supported fields, which are never constant, so
    # annihilating the zero mode loses nothing and needs no mean check
    def restricted(sigma):
        conv = _toeplitz(_kernel_sample(mask.grid, sigma, inside.shape), inside.shape)

        def apply(src, out):
            np.copyto(conv(src, out), 0.0, where=outside)
            return out
        return apply

    return tuple(restricted(sigma) for sigma in sigmas)


def _cg(apply_op, precond, rhs, x, Ax, tol, max_iters, work):
    """Preconditioned CG, in place on the start ``x``; returns the iterations
    and the final relative residual ||r|| / ||rhs||.

    ``Ax`` holds ``apply_op(x)`` on entry.  When ``x`` moved it holds
    rhs - r on return, the image the recurrence gives, equal to
    ``apply_op(x)`` up to rounding, so no apply runs on the result.
    ``work`` holds four arrays of rhs's shape (residual, preconditioned
    residual, direction, operator image).  Stops when the unpreconditioned
    residual satisfies ||r|| <= tol ||rhs|| and raises InnerSolveFailed
    when the loop ends before that.
    """
    r, z, p, Ap = work
    b_norm = math.sqrt(_dot(rhs, rhs))
    if b_norm == 0.0:
        x.fill(0.0)
        Ax.fill(0.0)
        return 0, 0.0
    np.subtract(rhs, Ax, out=r)
    r_norm = math.sqrt(_dot(r, r))
    if r_norm <= tol * b_norm:
        return 0, r_norm / b_norm
    np.copyto(p, precond(r, z))
    rz = _dot(r, z)
    iters = 0
    while iters < max_iters:
        apply_op(p, Ap)
        denom = _dot(p, Ap)
        if denom <= 0.0:
            break
        iters += 1
        alpha = rz / denom
        # z is free until the next precond, Ap until the next apply_op
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(Ap, alpha, out=Ap)
        r_norm = math.sqrt(_dot(r, r))
        if r_norm <= tol * b_norm:
            np.subtract(rhs, r, out=Ax)
            return iters, r_norm / b_norm
        precond(r, z)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise InnerSolveFailed(
        f"inner CG stopped after {iters} iterations at relative residual "
        f"{r_norm / b_norm:.3e} (tolerance {tol:.0e})"
    )


def _lstsq_weights(target, columns):
    """gamma minimizing ||target - sum_j gamma_j columns[j]||_2, by modified
    Gram-Schmidt on flat arrays, which it overwrites.  A column whose
    remainder keeps less than _DEPENDENT_TOL of its norm gets weight 0;
    returns None when every column does."""
    basis, coef, kept = [], [], []
    for j, v in enumerate(columns):
        norm = math.sqrt(_dot(v, v))
        r = []
        for qv in basis:
            r.append(_dot(qv, v))
            v -= r[-1] * qv
        rest = math.sqrt(_dot(v, v))
        if not rest > _DEPENDENT_TOL * norm:
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


def _to_sphere(x, Ax, h_vol):
    """Scale ``x`` and its image ``Ax`` in place to <x, A x> = 1 and return
    them; None when <x, A x> is not positive."""
    x_sq = _dot(x, Ax) * h_vol
    if not x_sq > 0.0:
        return None
    x /= math.sqrt(x_sq)
    Ax /= math.sqrt(x_sq)
    return x, Ax


def _anderson_candidate(history, h_vol):
    """x = g_k - dG gamma and A x = A g_k - dAG gamma from the history of
    (g_i, A g_i, f_i) triples, oldest first, with gamma the least-squares
    fit of the newest f_k by the differences of consecutive f_i, newest
    difference first; both are scaled to <x, A x> = 1.  None when no
    difference is independent or x vanishes."""
    hist = list(history)
    pairs = list(zip(hist, hist[1:]))[::-1]
    g, Ag, f = hist[-1]
    gamma = _lstsq_weights(f.ravel().copy(), [(b[2] - a[2]).ravel() for a, b in pairs])
    if gamma is None:
        return None
    x, Ax = g.copy(), Ag.copy()
    for c, (a, b) in zip(gamma, pairs):
        x -= c * (b[0] - a[0])
        Ax -= c * (b[1] - a[1])
    return _to_sphere(x, Ax, h_vol)


def _extend_step(newest, Au, F_g, f_eps, h_vol):
    """Doubling search from the newest history triple (g, A g, d = g - u_k),
    with ``Au`` = A u_k: x = g + t d for t = 1, 2, 4, ..., scaled to
    <x, A x> = 1, while F_eps(x) strictly rises.  Returns the last x taken,
    A x, F_eps(x) and the doublings taken; (g, A g, F_g, 0) when none."""
    g, Ag, d = newest
    Ad = Ag - Au
    best, taken, t = (g, Ag, F_g), 0, 1.0
    while True:
        step = _to_sphere(g + t * d, Ag + t * Ad, h_vol)
        if step is None:
            break
        F_x = f_eps(step[0])
        if not F_x > best[2]:
            break
        best, taken, t = step + (F_x,), taken + 1, 2.0 * t
    return best + (taken,)


def solve(pack, mask, config, init=None):
    """Maximize F_eps on the unit homogeneous sphere of domain-supported fields.

    Returns a SolveResult; ``converged`` is False when max_iters is reached
    without the relative F_eps change dropping below tol.  Raises
    InvalidGrid if ``init`` lies on another grid than ``mask``,
    DegenerateInput if the iteration collapses to numerical zero and
    InnerSolveFailed if an inner CG solve misses its tolerance within
    CG_MAX_ITERS.
    """
    grid = mask.grid
    if init is not None:
        _same_grid(grid, init.grid, "init", "mask")
    window = mask.window
    inside = mask.inside[window]
    q = pack.subcritical_exponent - 2.0
    pexp = pack.subcritical_exponent
    h_vol = grid.cell_volume
    start = default_initial_field(mask, seed=config.seed) if init is None else init
    u = np.where(inside, start.values[window], 0.0)
    if not np.any(u):
        raise DegenerateInput("initial field vanishes on the domain")

    apply_op, precond = _domain_op(mask, 2.0 * pack.s, -2.0 * pack.s)
    work = np.empty((4,) + inside.shape)

    def f_eps(v):
        return float(np.sum(np.abs(v[inside]) ** pexp)) * h_vol

    Au = apply_op(u, np.empty(inside.shape))
    if _to_sphere(u, Au, h_vol) is None:
        raise DegenerateInput("initial field has zero homogeneous norm")

    F_old = f_eps(u)
    trace = [F_old]
    cg_iters, cg_residuals, accelerated, extended, resumed = [], [], [], [], []
    history = deque(maxlen=ANDERSON_DEPTH + 1)
    rhs = np.zeros(inside.shape)
    w = np.empty(inside.shape)
    Aw = np.empty(inside.shape)

    def plain_step():
        w_sq = _dot(w, Aw) * h_vol
        if not 0.0 < w_sq < math.inf:
            raise DegenerateInput("iteration collapsed to numerical zero")
        w_norm = math.sqrt(w_sq)
        g = w / w_norm
        return w_norm, g, Aw / w_norm, f_eps(g)

    # ||w|| = F_eps at the fixed point, so the first CG starts from F_eps u
    w_norm = F_old
    eta = ETA_MAX
    converged = False
    iters = 0
    for iters in range(1, config.max_iters + 1):
        u_in = u[inside]
        rhs[inside] = np.abs(u_in) ** q * u_in
        np.multiply(u, w_norm, out=w)
        np.multiply(Au, w_norm, out=Aw)
        k, res = _cg(apply_op, precond, rhs, w, Aw, max(eta, CG_TOL), CG_MAX_ITERS, work)
        w_norm, g, Ag, F_new = plain_step()
        more = 0
        if res > CG_TOL and (k == 0 or F_new < F_old):
            # only an exact solve is sure to ascend, and a CG that took no
            # step moved nothing: finish this one
            more, res = _cg(apply_op, precond, rhs, w, Aw, CG_TOL, CG_MAX_ITERS, work)
            w_norm, g, Ag, F_new = plain_step()
        cg_iters.append(k + more)
        cg_residuals.append(res)
        resumed.append(more)
        history.append((g, Ag, g - u))
        Au_k = Au
        u, Au = g, Ag
        cand = _anderson_candidate(history, h_vol)
        F_x = -math.inf if cand is None else f_eps(cand[0])
        took = F_x >= F_new
        doublings = 0
        if took:
            (u, Au), F_new = cand, F_x
        else:
            # a refusal after a plain step: the iterate drifts away from
            # the fixed point Anderson models, so follow the drift instead
            if cand is not None and not accelerated[-1]:
                u, Au, F_new, doublings = _extend_step(history[-1], Au_k, F_new, f_eps, h_vol)
            while len(history) > 1:
                history.popleft()
        accelerated.append(took)
        extended.append(doublings)
        trace.append(F_new)
        if abs(F_new - F_old) <= config.tol * abs(F_old):
            if res <= CG_TOL:
                converged = True
                break
            # a solve ends only on an exact step
            eta = CG_TOL
        else:
            eta = min(ETA_MAX, ETA_FACTOR * math.sqrt(abs(F_new - F_old) / abs(F_old)))
        F_old = F_new

    values = np.zeros(grid.shape)
    values[window] = u
    value = trace[-1]
    # <u, A u> = 1 on the unit sphere
    return SolveResult(maximizer=Field(grid=grid, values=values), value=value,
                       multiplier=1.0 / value, iters=iters, trace=tuple(trace),
                       converged=converged, cg_iters=tuple(cg_iters),
                       cg_residuals=tuple(cg_residuals), accelerated=tuple(accelerated),
                       extended=tuple(extended), resumed=tuple(resumed))


def eps_sweep(pack_template, mask, config, init=None):
    """Solve along the eps schedule with warm starts; per-eps errors are
    recorded and the sweep continues.  Returns a list of SweepEntry with
    concentration statistics from the energy measure and the top-octave
    resolution indicator, which flags a lattice spike but raises nothing.
    The tail is ``diagnostics.tail_energy``'s, read from the image that
    the entry's measure made and the near-domain set that the mask keeps,
    so it runs no transform and one dilation per sweep."""
    diam = mask.diameter
    entries = []
    prev = init
    for eps in config.eps_schedule:
        pack = pack_template.with_eps(eps)
        try:
            result = solve(pack, mask, config, init=prev if config.warm_start else init)
        except FracSobolevError as exc:
            entries.append(SweepEntry(eps=eps, result=None, envelope=hoelder_envelope(pack, mask),
                                      argmax=(), mass_r1=float("nan"), mass_r2=float("nan"),
                                      tail_energy=float("nan"), error=str(exc)))
            continue
        # a throwaway field over the maximizer's values keeps the image, so
        # the entry holds no image that nothing reads again
        u = Field(grid=mask.grid, values=result.maximizer.values)
        measure = diagnostics.energy_density(u, pack.s)
        argmax = diagnostics.argmax_cell(measure)
        total = measure.total
        mass_r1 = diagnostics.mass_in_ball(measure, argmax, MASS_RADIUS_FRACTIONS[0] * diam) / total
        mass_r2 = diagnostics.mass_in_ball(measure, argmax, MASS_RADIUS_FRACTIONS[1] * diam) / total
        tail = diagnostics.tail_energy(u, pack.s, mask, TAIL_MARGIN_FRACTION * diam) / total
        entries.append(SweepEntry(eps=eps, result=result,
                                  envelope=hoelder_envelope(pack, mask),
                                  argmax=argmax, mass_r1=mass_r1, mass_r2=mass_r2,
                                  tail_energy=tail,
                                  top_octave=diagnostics.top_octave_share(result.maximizer,
                                                                          pack.s)))
        if config.warm_start:
            prev = result.maximizer
    return entries
