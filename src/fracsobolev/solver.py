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
A x = A g_k - dAG gamma costs no transform.  Each difference is formed once,
when its entry joins the history, with its row of the Gram matrix <dF_i,
dF_j>; a step adds at most 2 ANDERSON_DEPTH inner products, that row and
<dF_i, f_k>, and gamma comes from the Cholesky factor of the at most
ANDERSON_DEPTH-square Gram matrix in Python floats, a difference whose
remainder keeps no more than _DEPENDENT_TOL of its norm dropped as
dependent on the newer ones.  A monotone safeguard (Zhang,
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
its cells, W per axis, and every iterate travels with its image as one
(2,) + window array: u and A u, w and A w, g and A g, x and A x, and the
extension's d and A d.  On the window P |xi|^sigma P is the periodic kernel
of |xi|^sigma at the offsets (-W, W), a Toeplitz operator: one real FFT
pair on its circulant embedding, smooth(2W) long per axis
(``spectral._toeplitz``).  The mask keeps that embedding's spectrum per
order, read-only, built from the grid's cached kernel (``Grid.kernel``) the
first time a solve or ``el_residual`` asks for it (``_mask_kernel``), so a
sweep builds three, at 2s, -2s and 4s, then none.  ``_domain_op`` hands
each call's applies their own work buffers on those spectra and masks the
image to the domain, for a solve at +-2s and for ``el_residual`` at 2s;
``el_residual`` takes its scale ||(-Lap)^s u||^2 from the spectrum at 4s,
one forward transform.  CG starts from ||w|| u with the image ||w|| A u,
which on an unextended plain step are the previous w and A w, and keeps
A w = rhs - r from its recurrence with w, which gives ||w||^2 = <w, A w>;
so a CG that takes k steps runs 2k pairs: the first preconditioning, k
operator and k-1 preconditioner applies.  A solve runs 1 + sum 2k_i pairs:
one for its start's image and 2k_i for each CG it runs, resumed ones
included.  Every inner product is ``_dot``: ``ndarray.dot`` on blocks that
OpenBLAS sums on one thread, added exactly, so no result depends on the
BLAS thread settings.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, FracSobolevError, InnerSolveFailed, InvalidOrder
from .norms import _ball_value, _vanishes_off, hoelder_envelope
from .spectral import Field, _kernel_energy, _same_grid, _toeplitz, _window_kernel
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
# a difference whose remainder in the Cholesky factor of the Gram matrix
# keeps no more than this share of its norm is dropped from the fit as
# dependent on the newer ones; the Gram matrix squares the remainder, so
# its rounding leaves about sqrt(machine eps) of the norm
_DEPENDENT_TOL = 1e-7
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
    """<a, b> of the flattened arrays: ``ndarray.dot`` up to _DOT_BLOCK
    elements, else the correctly rounded sum (``math.fsum``) of
    ``ndarray.dot`` over consecutive _DOT_BLOCK-long blocks."""
    a, b = a.ravel(), b.ravel()
    if a.size <= _DOT_BLOCK:
        return float(a.dot(b))
    return math.fsum(float(a[i:i + _DOT_BLOCK].dot(b[i:i + _DOT_BLOCK]))
                     for i in range(0, a.size, _DOT_BLOCK))


def el_residual(u, pack, mask):
    """Rayleigh multiplier and relative L2 residual of the Euler-Lagrange
    equation (-Lap)^s u = lambda |u|^(2*-2-eps) u tested on the domain cells.

    ``u`` must lie on the mask's grid and vanish off the domain, as a solve's
    maximizer does (InvalidGrid, InvalidMask).  One apply of ``_domain_op``
    gives (-Lap)^s u on the domain and <u, (-Lap)^s u> h^N, the unit-ball
    norm and the multiplier's numerator.  The residual's scale, the whole
    box's ||(-Lap)^s u||, is by Parseval <u, K * u> h^N for K the kernel of
    |xi|^(4s) on the window, one forward transform on the mask's order-4s
    spectrum (``_mask_kernel``): ``hs_dot_norm_sq(u, 2s)``'s narrow sum, to
    the bit when u's support box is the window."""
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
    Au_sq = _kernel_energy(vals, _mask_kernel(mask, 4.0 * pack.s)) * h_vol
    return multiplier, math.sqrt(_dot(res, res) * h_vol / Au_sq)


def default_initial_field(mask, seed=0):
    """Centered smooth bump over the domain plus a small seeded perturbation,
    built on the mask's window: the bump's peak, at the cell nearest the
    centroid, lies in it, and the noise is the whole box's draw cut to it.
    The draw fills the box in C order, so only its values up to the
    window's last cell are drawn."""
    grid, window = mask.grid, mask.window
    inside = mask.inside[window]
    r = grid.radii(mask.centroid(), window)
    extent = float(np.max(r[inside]))
    bump = np.clip(1.0 - (r / max(extent, grid.spacing)) ** 2, 0.0, None) ** 2
    noise = np.empty(grid.shape)
    last = np.ravel_multi_index(tuple(w.indices(n)[1] - 1 for w, n in zip(window, grid.shape)),
                                grid.shape)
    np.random.default_rng(seed).standard_normal(out=noise.reshape(-1)[:last + 1])
    bump = bump + INITIAL_PERTURBATION * float(np.max(bump)) * noise[window]
    values = np.zeros(grid.shape)
    values[window] = np.where(inside, bump, 0.0)
    return Field(grid=grid, values=values)


def _mask_kernel(mask, sigma):
    """(P, spectrum) of P |xi|^sigma P on the mask's window
    (``spectral._window_kernel``, on the grid's cached kernel).  The mask,
    frozen with a read-only ``inside``, keeps it per order, read-only, so
    it is built once per mask and order."""
    key = float(sigma)
    kernel = mask._spectra.get(key)
    if kernel is None:
        kernel = _window_kernel(mask.grid, key, mask.inside[mask.window].shape)
        # setdefault keeps one spectrum per order when threads race here
        kernel = mask._spectra.setdefault(key, kernel)
    return kernel


def _domain_op(mask, *sigmas):
    """P |xi|^sigma P on the domain's window (``DomainMask.window``), one
    ``apply(src, out)`` per order: a ``spectral._toeplitz`` apply on the
    spectrum the mask keeps (``_mask_kernel``), zero off the domain.
    Arrays have the window's shape, and ``src`` must vanish off the domain,
    so the right-hand P is the identity on it.  An apply writes ``out``,
    returns it and allocates nothing; every call builds its applies their
    own work buffers, so applies from two calls share only the spectra."""
    inside = mask.inside[mask.window]
    outside = ~inside
    # SPD on domain-supported fields, which are never constant, so
    # annihilating the zero mode loses nothing and needs no mean check
    def restricted(sigma):
        conv = _toeplitz(_mask_kernel(mask, sigma), inside.shape)

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


def _gram_weights(gram, rhs):
    """gamma minimizing ||f - sum_j gamma_j dF_j||_2 from the Gram matrix
    gram[i][j] = <dF_i, dF_j> and rhs[j] = <dF_j, f>: the Cholesky factor R
    of the Gram matrix, column by column in Python floats, then two
    triangular solves.  A column whose remainder, its diagonal entry of R,
    keeps no more than _DEPENDENT_TOL of its norm gets weight 0, as
    dependent on the columns before it; returns None when every column
    does."""
    kept, cols = [], []
    for j in range(len(rhs)):
        # column j of R: its rows on the kept columns, then its remainder
        col = []
        for c, i in enumerate(kept):
            col.append((gram[i][j] - sum(cols[c][l] * col[l] for l in range(c))) / cols[c][c])
        rest_sq = gram[j][j] - sum(r * r for r in col)
        if not rest_sq > _DEPENDENT_TOL ** 2 * gram[j][j]:
            continue
        col.append(math.sqrt(rest_sq))
        kept.append(j)
        cols.append(col)
    if not kept:
        return None
    # R^T y = rhs, then R sol = y, on the kept columns
    y = []
    for c, j in enumerate(kept):
        y.append((rhs[j] - sum(cols[c][l] * y[l] for l in range(c))) / cols[c][c])
    sol = [0.0] * len(kept)
    for c in reversed(range(len(kept))):
        acc = y[c] - sum(cols[l][c] * sol[l] for l in range(c + 1, len(kept)))
        sol[c] = acc / cols[c][c]
    gamma = [0.0] * len(rhs)
    for j, v in zip(kept, sol):
        gamma[j] = v
    return gamma


def _to_sphere(xAx, h_vol):
    """Scale ``xAx``, x and its image A x stacked, in place to
    <x, A x> = 1 and return it; None when <x, A x> is not positive."""
    x_sq = _dot(xAx[0], xAx[1]) * h_vol
    if not x_sq > 0.0:
        return None
    xAx /= math.sqrt(x_sq)
    return xAx


def _remember(history, entry):
    """Append a plain step's ``entry``, (g, A g, f, A f) stacked with
    f = g - u, to ``history`` as (entry, diff, gram).  ``diff`` is
    (dG, dAG, dF) stacked, the entry's difference to the one before it, and
    ``gram`` its Gram row: <dF, dF'> for its own dF' and those of the
    entries before it that keep a difference once it is in, newest first.
    Only an entry that has a predecessor in the history keeps a difference,
    so the first entry and the one left by a cut hold none that is read."""
    diffs = min(len(history) + 1, history.maxlen) - 1
    if diffs == 0:
        history.append((entry, None, ()))
        return
    diff = entry[:3] - history[-1][0][:3]
    older = [e[1] for e in reversed(history)][:diffs - 1]
    history.append((entry, diff, tuple(_dot(diff[2], d[2]) for d in [diff] + older)))


def _anderson_candidate(history, h_vol):
    """x = g_k - dG gamma with A x = A g_k - dAG gamma, stacked, from the
    newest history entry and the differences the history keeps (see
    ``_remember``), newest first, with gamma the least-squares fit of the
    newest f_k by the dF, from their Gram matrix (``_gram_weights``);
    scaled to <x, A x> = 1.  None when no difference is independent or x
    vanishes."""
    newest = history[-1][0]
    held = list(history)[:0:-1]
    n = len(held)
    gram = [[held[min(a, b)][2][abs(a - b)] for b in range(n)] for a in range(n)]
    gamma = _gram_weights(gram, [_dot(d[2], newest[2]) for _, d, _ in held])
    if gamma is None:
        return None
    x = newest[:2].copy()
    for c, (_, d, _) in zip(gamma, held):
        x -= c * d[:2]
    return _to_sphere(x, h_vol)


def _extend_step(newest, F_g, f_eps, h_vol):
    """Doubling search from the newest history entry (g, A g, d, A d),
    stacked, with d = g - u_k: x = g + t d and A x = A g + t A d for
    t = 1, 2, 4, ..., scaled to <x, A x> = 1, while F_eps(x) strictly rises.
    Returns the last (x, A x) taken, stacked, F_eps(x) and the doublings
    taken; ((g, A g), F_g, 0) when none."""
    gAg, dAd = newest[:2], newest[2:]
    best, taken, t = (gAg, F_g), 0, 1.0
    while True:
        step = _to_sphere(gAg + t * dAd, h_vol)
        if step is None:
            break
        F_x = f_eps(step[0])
        if not F_x > best[1]:
            break
        best, taken, t = (step, F_x), taken + 1, 2.0 * t
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
    # every iterate is carried with its image, stacked: uAu = (u, A u)
    uAu = np.empty((2,) + inside.shape)
    uAu[0] = np.where(inside, start.values[window], 0.0)
    if not np.any(uAu[0]):
        raise DegenerateInput("initial field vanishes on the domain")

    apply_op, precond = _domain_op(mask, 2.0 * pack.s, -2.0 * pack.s)
    work = np.empty((4,) + inside.shape)

    def f_eps(v):
        return float(np.sum(np.abs(v[inside]) ** pexp)) * h_vol

    apply_op(uAu[0], uAu[1])
    if _to_sphere(uAu, h_vol) is None:
        raise DegenerateInput("initial field has zero homogeneous norm")

    F_old = f_eps(uAu[0])
    trace = [F_old]
    cg_iters, cg_residuals, accelerated, extended, resumed = [], [], [], [], []
    history = deque(maxlen=ANDERSON_DEPTH + 1)
    rhs = np.zeros(inside.shape)
    wAw = np.empty((2,) + inside.shape)
    w, Aw = wAw

    def plain_step():
        # ||w||, the history entry whose first half is (g, A g) with
        # g = w / ||w||, and F_eps(g)
        w_sq = _dot(w, Aw) * h_vol
        if not 0.0 < w_sq < math.inf:
            raise DegenerateInput("iteration collapsed to numerical zero")
        w_norm = math.sqrt(w_sq)
        entry = np.empty((4,) + inside.shape)
        np.divide(wAw, w_norm, out=entry[:2])
        return w_norm, entry, f_eps(entry[0])

    # ||w|| = F_eps at the fixed point, so the first CG starts from F_eps u
    w_norm = F_old
    eta = ETA_MAX
    converged = False
    iters = 0
    for iters in range(1, config.max_iters + 1):
        u_in = uAu[0][inside]
        rhs[inside] = np.abs(u_in) ** q * u_in
        np.multiply(uAu, w_norm, out=wAw)
        k, res = _cg(apply_op, precond, rhs, w, Aw, max(eta, CG_TOL), CG_MAX_ITERS, work)
        w_norm, entry, F_new = plain_step()
        more = 0
        if res > CG_TOL and (k == 0 or F_new < F_old):
            # only an exact solve is sure to ascend, and a CG that took no
            # step moved nothing: finish this one
            more, res = _cg(apply_op, precond, rhs, w, Aw, CG_TOL, CG_MAX_ITERS, work)
            w_norm, entry, F_new = plain_step()
        cg_iters.append(k + more)
        cg_residuals.append(res)
        resumed.append(more)
        # the residual f = g - u and its image, the extension's direction
        np.subtract(entry[:2], uAu, out=entry[2:])
        _remember(history, entry)
        uAu = entry[:2]
        cand = _anderson_candidate(history, h_vol)
        F_x = -math.inf if cand is None else f_eps(cand[0])
        took = F_x >= F_new
        doublings = 0
        if took:
            uAu, F_new = cand, F_x
        else:
            # a refusal after a plain step: the iterate drifts away from
            # the fixed point Anderson models, so follow the drift instead
            if cand is not None and not accelerated[-1]:
                uAu, F_new, doublings = _extend_step(entry, F_new, f_eps, h_vol)
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
    values[window] = uAu[0]
    value = trace[-1]
    # <u, A u> = 1 on the unit sphere
    return SolveResult(maximizer=Field(grid=grid, values=values), value=value,
                       multiplier=1.0 / value, iters=iters, trace=tuple(trace),
                       converged=converged, cg_iters=tuple(cg_iters),
                       cg_residuals=tuple(cg_residuals), accelerated=tuple(accelerated),
                       extended=tuple(extended), resumed=tuple(resumed))


def eps_sweep(pack_template, mask, config, init=None):
    """Solve along the eps schedule with warm starts; per-eps errors are
    recorded and the sweep continues: an entry whose solve or statistics
    raise holds no result, NaN statistics and the error, and the next
    solve starts as this one did.  Returns a list of SweepEntry with
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
        envelope = hoelder_envelope(pack, mask)
        try:
            result = solve(pack, mask, config, init=prev if config.warm_start else init)
            # a throwaway field over the maximizer's values keeps the image,
            # so the entry holds no image that nothing reads again
            u = Field(grid=mask.grid, values=result.maximizer.values)
            measure = diagnostics.energy_density(u, pack.s)
            argmax = diagnostics.argmax_cell(measure)
            total = measure.total
            mass_r1, mass_r2 = (diagnostics.mass_in_ball(measure, argmax, f * diam) / total
                                for f in MASS_RADIUS_FRACTIONS)
            tail = diagnostics.tail_energy(u, pack.s, mask, TAIL_MARGIN_FRACTION * diam) / total
            top = diagnostics.top_octave_share(result.maximizer, pack.s)
        except FracSobolevError as exc:
            entries.append(SweepEntry(eps=eps, result=None, envelope=envelope, argmax=(),
                                      mass_r1=float("nan"), mass_r2=float("nan"),
                                      tail_energy=float("nan"), error=str(exc)))
            continue
        entries.append(SweepEntry(eps=eps, result=result, envelope=envelope, argmax=argmax,
                                  mass_r1=mass_r1, mass_r2=mass_r2, tail_energy=tail,
                                  top_octave=top))
        if config.warm_start:
            prev = result.maximizer
    return entries
