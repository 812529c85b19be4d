"""Subcritical maximizers on a bounded domain via normalized inverse iteration.

Each step solves the domain-restricted operator equation

    P (-Lap)^s P w = |u_k|^(2*-2-eps) u_k   on the inside cells

by conjugate gradients preconditioned with P (-Lap)^(-s) P, the pseudo-inverse
of the whole-box operator restricted to the domain (each operator is one
real FFT pair), then renormalizes to the unit homogeneous sphere with a
damped mix against the previous iterate.  The fixed point satisfies the
discrete constrained stationarity condition, so the Euler-Lagrange residual
of a converged solve is limited only by the tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, FracSobolevError, InnerSolveFailed, InvalidOrder
from .norms import hs_dot_norm_sq, hoelder_envelope, subcritical_value
from .spectral import Field, apply_multiplier, frac_power
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
]

MASS_RADIUS_FRACTIONS = (0.2, 0.4)
TAIL_MARGIN_FRACTION = 0.5
# seeded noise in the default initial field, relative to the bump's peak
INITIAL_PERTURBATION = 0.01


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol: float = 1e-8
    damping: float = 0.8
    seed: int = 0
    eps_schedule: tuple = (0.8, 0.4, 0.2, 0.1)
    warm_start: bool = True
    cg_tol: float = 1e-9
    cg_max_iters: int = 2000

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidOrder(f"max_iters must be >= 1, got {self.max_iters}", param="max_iters")
        if not self.tol > 0:
            raise InvalidOrder(f"tol must be positive, got {self.tol}", param="tol")
        if not (0.0 < self.damping <= 1.0):
            raise InvalidOrder(f"damping must lie in (0, 1], got {self.damping}", param="damping")
        sched = tuple(float(e) for e in self.eps_schedule)
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise InvalidOrder("eps_schedule must be strictly decreasing", param="eps_schedule")
        if not self.cg_tol > 0:
            raise InvalidOrder(f"cg_tol must be positive, got {self.cg_tol}", param="cg_tol")
        if self.cg_max_iters < 1:
            raise InvalidOrder(f"cg_max_iters must be >= 1, got {self.cg_max_iters}",
                               param="cg_max_iters")
        object.__setattr__(self, "eps_schedule", sched)


@dataclass(frozen=True)
class SolveResult:
    maximizer: Field
    value: float
    multiplier: float
    iters: int
    trace: tuple
    converged: bool


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


def el_residual(u, pack, mask):
    """Rayleigh multiplier and relative L2 residual of the Euler-Lagrange
    equation (-Lap)^s u = lambda |u|^(2*-2-eps) u tested on the domain cells."""
    feps = subcritical_value(u, pack, mask)
    if feps < 1e-14:
        raise DegenerateInput(f"subcritical value {feps:.3e} below 1e-14")
    q = pack.subcritical_exponent - 2.0
    Au = frac_power(u, 2.0 * pack.s)
    multiplier = hs_dot_norm_sq(u, pack.s) / feps
    res = mask.restrict(Au.values - multiplier * np.abs(u.values) ** q * u.values)
    h_vol = u.grid.cell_volume
    res_norm = math.sqrt(float(np.sum(res ** 2)) * h_vol)
    Au_norm = math.sqrt(float(np.sum(Au.values ** 2)) * h_vol)
    return multiplier, res_norm / Au_norm


def default_initial_field(mask, seed=0):
    """Centered smooth bump over the domain plus a small seeded perturbation."""
    grid = mask.grid
    center = mask.centroid()
    r = grid.radii(center)
    extent = float(np.max(r[mask.inside]))
    bump = np.clip(1.0 - (r / max(extent, grid.spacing)) ** 2, 0.0, None) ** 2
    rng = np.random.default_rng(seed)
    bump = bump + INITIAL_PERTURBATION * float(np.max(bump)) * rng.standard_normal(grid.shape)
    return Field(grid=grid, values=mask.restrict(bump))


def _restricted_op(grid, inside, s):
    def apply(w):
        return np.where(inside, apply_multiplier(np.where(inside, w, 0.0), grid, 2.0 * s), 0.0)
    return apply


def _precond(grid, inside, s):
    # P (-Lap)^(-s) P: SPD on domain-supported fields, which are never constant,
    # so annihilating the zero mode loses nothing and needs no mean check
    def apply(r):
        return np.where(inside, apply_multiplier(r, grid, -2.0 * s), 0.0)
    return apply


def _cg(apply_op, precond, rhs, x0, tol, max_iters):
    """Preconditioned CG; returns (x, iterations).

    Stops when the unpreconditioned residual satisfies ||r|| <= tol ||rhs||
    and raises InnerSolveFailed when the loop ends before that.
    """
    b_norm = math.sqrt(float(np.dot(rhs.ravel(), rhs.ravel())))
    if b_norm == 0.0:
        return np.zeros_like(rhs), 0
    x = x0.copy()
    r = rhs - apply_op(x)
    r_norm = math.sqrt(float(np.dot(r.ravel(), r.ravel())))
    if r_norm <= tol * b_norm:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r.ravel(), z.ravel()))
    iters = 0
    while iters < max_iters:
        Ap = apply_op(p)
        denom = float(np.dot(p.ravel(), Ap.ravel()))
        if denom <= 0.0:
            break
        iters += 1
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
        r_norm = math.sqrt(float(np.dot(r.ravel(), r.ravel())))
        if r_norm <= tol * b_norm:
            return x, iters
        z = precond(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise InnerSolveFailed(
        f"inner CG stopped after {iters} iterations at relative residual "
        f"{r_norm / b_norm:.3e} (tolerance {tol:.0e})"
    )


def solve(pack, mask, config, init=None):
    """Maximize F_eps on the unit homogeneous sphere of domain-supported fields.

    Returns a SolveResult; ``converged`` is False when max_iters is reached
    without the relative F_eps change dropping below tol.  Raises
    DegenerateInput if the iteration collapses to numerical zero and
    InnerSolveFailed if an inner CG solve misses cg_tol.
    """
    grid = mask.grid
    q = pack.subcritical_exponent - 2.0
    if init is None:
        u_vals = default_initial_field(mask, seed=config.seed).values
    else:
        u_vals = mask.restrict(init.values)
        if not np.any(u_vals):
            raise DegenerateInput("initial field vanishes on the domain")
    nrm = math.sqrt(hs_dot_norm_sq(Field(grid=grid, values=u_vals), pack.s))
    if nrm == 0.0:
        raise DegenerateInput("initial field has zero homogeneous norm")
    u = u_vals / nrm

    apply_op = _restricted_op(grid, mask.inside, pack.s)
    precond = _precond(grid, mask.inside, pack.s)
    pexp = pack.subcritical_exponent
    h_vol = grid.cell_volume

    def f_eps(vals):
        return float(np.sum(np.abs(vals[mask.inside]) ** pexp)) * h_vol

    F_old = f_eps(u)
    trace = [F_old]
    w = np.zeros(grid.shape)
    converged = False
    iters = 0
    for iters in range(1, config.max_iters + 1):
        rhs = mask.restrict(np.abs(u) ** q * u)
        w, _ = _cg(apply_op, precond, rhs, w, config.cg_tol, config.cg_max_iters)
        w_norm = math.sqrt(hs_dot_norm_sq(Field(grid=grid, values=w), pack.s))
        if not w_norm > 0.0 or not np.isfinite(w_norm):
            raise DegenerateInput("iteration collapsed to numerical zero")
        u_new = config.damping * (w / w_norm) + (1.0 - config.damping) * u
        u_new /= math.sqrt(hs_dot_norm_sq(Field(grid=grid, values=u_new), pack.s))
        F_new = f_eps(u_new)
        trace.append(F_new)
        u = u_new
        if abs(F_new - F_old) <= config.tol * abs(F_old):
            converged = True
            break
        F_old = F_new

    maximizer = Field(grid=grid, values=u)
    value = trace[-1]
    multiplier = hs_dot_norm_sq(maximizer, pack.s) / value
    return SolveResult(maximizer=maximizer, value=value, multiplier=multiplier,
                       iters=iters, trace=tuple(trace), converged=converged)


def eps_sweep(pack_template, mask, config, init=None):
    """Solve along the eps schedule with warm starts; per-eps errors are
    recorded and the sweep continues.  Returns a list of SweepEntry with
    concentration statistics from the energy measure."""
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
        measure = diagnostics.energy_density(result.maximizer, pack.s)
        argmax = diagnostics.argmax_cell(measure)
        total = measure.total
        mass_r1 = diagnostics.mass_in_ball(measure, argmax, MASS_RADIUS_FRACTIONS[0] * diam) / total
        mass_r2 = diagnostics.mass_in_ball(measure, argmax, MASS_RADIUS_FRACTIONS[1] * diam) / total
        tail = diagnostics.tail_energy(result.maximizer, pack.s, mask,
                                       TAIL_MARGIN_FRACTION * diam) / total
        entries.append(SweepEntry(eps=eps, result=result,
                                  envelope=hoelder_envelope(pack, mask),
                                  argmax=argmax, mass_r1=mass_r1, mass_r2=mass_r2,
                                  tail_energy=tail))
        if config.warm_start:
            prev = result.maximizer
    return entries
