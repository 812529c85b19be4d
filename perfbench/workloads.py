"""Benchmark workloads: inputs generated from the seed, the job list, and the
checks every job runs on its own outputs.

A job is ``(name, fn)``; ``fn()`` does the work and returns the list of
failed checks (empty when the outputs are right).  The library is reached
through module attributes only (``solver.solve``, never a name imported from
it), so ``spans.Tracer`` sees every call the benchmark makes.

Workloads and why they were chosen are described in NOTES.md.
"""

import contextlib
import io
import itertools
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracsobolev import cli, diagnostics, extremals, norms, solver, spectral
from proc import run_child

# Output checks.  Each bound holds at the resolution its workload uses.
EL_RESIDUAL_MAX = 5e-3       # README: converged solves reach el_residual < 5e-3
ENVELOPE_SLACK = 1.02        # value <= 1.02 * hoelder_envelope
SWEEP_DROP_MAX = 0.01        # sweep values non-decreasing within 1%
PLANCHEREL_MAX = 1e-12       # relative Plancherel error of forward_transform
RATIO_CV_MAX = 0.01          # 1-D Gagliardo/Fourier ratio spread (criterion 3)
GAMMA_SLACK = 1.05           # gamma_limit_value <= 1.05 * S*
ATOM_OFFSET_CELLS = 2        # detected atom within 2 cells of its seeded point

SWEEP_EPS = (0.8, 0.4, 0.2, 0.1, 0.05)

CSV_OUTPUTS = {
    "bubble-verify": ("bubble_verify.csv",
                      "N,s,M,L,eps,lam,sobolev_constant,quotient,rel_err"),
    "norms-check": ("norms_check.csv", "quantity,N,M,L,s,value"),
    "solve": ("solve.csv",
              "N,s,M,L,eps,value,envelope,multiplier,iters,converged,residual"),
    "sweep": ("sweep.csv",
              "N,s,M,L,eps,value,envelope,multiplier,iters,converged,"
              "argmax_coords,mass_r1,mass_r2,tail_energy"),
    "recovery-demo": ("recovery_demo.csv",
                      "N,s,M,L,eps,sigma,f_eps,target,rel_err,budget"),
    "gamma-check": ("gamma_check.csv", "N,s,M,L,eps,case,value,bound,ok"),
}
# With default flags recovery-demo exits 1 (UnderResolved) and gamma-check
# skips its glued-atom audit; both are known defects (NOTES.md), so
# cli-batch runs the other four commands and cli-defaults runs all six.
CLI_HEALTHY = ("bubble-verify", "norms-check", "solve", "sweep")


@dataclass
class Context:
    """Where a run may write, the environment of its child processes, and
    whether CLI commands run in-process (traced runs) or as subprocesses."""

    root: Path
    out_dir: Path
    env: dict
    in_process: bool
    _dirs: itertools.count = field(default_factory=itertools.count)

    def fresh_dir(self):
        path = self.out_dir / f"cli-{next(self._dirs)}"
        shutil.rmtree(path, ignore_errors=True)
        return path


def _warm_up(*grids):
    """First transform on each grid size, so FFT set-up is not timed."""
    for grid in grids:
        spectral.forward_transform(spectral.Field(grid=grid, values=np.ones(grid.shape)))


def _check_solution(result, pack, mask, envelope, label):
    failures = []
    if not result.converged:
        failures.append(f"{label}: not converged after {result.iters} iterations")
    _, residual = solver.el_residual(result.maximizer, pack, mask)
    if not residual < EL_RESIDUAL_MAX:
        failures.append(f"{label}: el_residual {residual:.3e} >= {EL_RESIDUAL_MAX:g}")
    if not result.value <= ENVELOPE_SLACK * envelope:
        failures.append(f"{label}: value {result.value:.6g} above "
                        f"{ENVELOPE_SLACK} * envelope {envelope:.6g}")
    return failures


# ---------------------------------------------------------------------------
# sweep-1d: the paper's headline computation

def sweep_1d(seed, ctx):
    grid = spectral.make_grid(1, 2 ** 13, 8.0)
    mask = norms.DomainMask.from_shape(grid, {"kind": "interval", "bounds": [-1.0, 1.0]})
    pack = norms.ExponentPack(dim=1, s=0.25, eps=SWEEP_EPS[0])
    config = solver.SolverConfig(seed=seed, eps_schedule=SWEEP_EPS, warm_start=True)
    _warm_up(grid)

    def job():
        entries = solver.eps_sweep(pack, mask, config)
        failures = [f"eps={e.eps}: {e.error}" for e in entries if e.result is None]
        values = []
        for e in entries:
            if e.result is not None:
                failures += _check_solution(e.result, pack.with_eps(e.eps), mask,
                                            e.envelope, f"eps={e.eps}")
                values.append(e.result.value)
        failures += [f"sweep value fell from {a:.6g} to {b:.6g}"
                     for a, b in zip(values, values[1:]) if b < (1.0 - SWEEP_DROP_MAX) * a]
        return failures

    return [("eps_sweep", job)]


# ---------------------------------------------------------------------------
# solve-2d: cold solves on seeded ball, box and hexagon domains

def _shapes_2d(rng):
    shapes = []
    for _ in range(2):
        shapes.append({"kind": "ball", "center": rng.uniform(-0.05, 0.05, 2).tolist(),
                       "radius": float(rng.uniform(0.9, 1.0))})
    for _ in range(2):
        a, b = rng.uniform(0.85, 0.95), rng.uniform(0.6, 0.7)
        shapes.append({"kind": "box", "lower": [-a, -b], "upper": [a, b]})
    # Regular hexagons: in trial runs, pentagons, rhombi and hexagons with
    # jittered vertices took 35 to 71 cold outer iterations depending on the
    # seed, which made the work of a pass depend on the seed.
    theta = 2.0 * np.pi * np.arange(6) / 6
    for _ in range(2):
        (cx, cy), r = rng.uniform(-0.05, 0.05, 2), rng.uniform(0.9, 1.0)
        shapes.append({"kind": "polygon",
                       "vertices": np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)],
                                            1).tolist()})
    return shapes


def solve_2d(seed, ctx):
    rng = np.random.default_rng(seed)
    grid = spectral.make_grid(2, 128, 4.0)
    pack = norms.ExponentPack(dim=2, s=0.5, eps=0.8)
    jobs = []
    for shape in _shapes_2d(rng):
        mask = norms.DomainMask.from_shape(grid, shape)
        config = solver.SolverConfig(seed=int(rng.integers(2 ** 31)), warm_start=False)

        def job(mask=mask, config=config, kind=shape["kind"]):
            result = solver.solve(pack, mask, config)
            return _check_solution(result, pack, mask, norms.hoelder_envelope(pack, mask), kind)

        jobs.append((f"solve-{shape['kind']}", job))
    _warm_up(grid)
    return jobs


# ---------------------------------------------------------------------------
# analysis-2d: norms and concentration diagnostics, no solver

def _window_fields(grid, rng, count, modes=6):
    """Random trigonometric polynomials under a smooth cutoff window, so the
    fields vanish well inside the box."""
    half = 0.5 * grid.half_width
    window = extremals.cutoff_profile(grid.radii((0.0,) * grid.dim), half / 2.0)
    fields = []
    for _ in range(count):
        f = np.zeros(grid.shape)
        for k in range(1, modes + 1):
            for c in grid.coords():
                f += rng.standard_normal() * np.cos(np.pi * k * c / half)
                f += rng.standard_normal() * np.sin(np.pi * k * c / half)
        fields.append(spectral.Field(grid=grid, values=window * f))
    return fields


def _ratio_job(fields, s, check_cv):
    def job():
        ratios = np.array([norms.hs_dot_norm_sq(u, s) / norms.gagliardo_seminorm_sq(u, s)
                           for u in fields])
        if not np.all(np.isfinite(ratios) & (ratios > 0)):
            return [f"Gagliardo/Fourier ratios not positive and finite: {ratios}"]
        cv = float(ratios.std() / ratios.mean())
        if check_cv and not cv < RATIO_CV_MAX:
            return [f"Gagliardo/Fourier ratio CV {cv:.3%} >= {RATIO_CV_MAX:.0%}"]
        return []
    return job


def _plancherel_job(fields):
    def job():
        failures = []
        for u in fields:
            lhs = float(np.sum(np.abs(spectral.forward_transform(u).coeffs) ** 2))
            rhs = float(np.sum(u.values ** 2)) * u.grid.cell_volume
            if not abs(lhs - rhs) <= PLANCHEREL_MAX * rhs:
                failures.append(f"Plancherel error {abs(lhs - rhs) / rhs:.3e} on {u.grid.shape}")
        return failures
    return job


def _atoms(rng, masses):
    """Atoms on a ring of radius 0.5 with seeded phase, jitter and masses."""
    n = len(masses)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    points = tuple((0.5 * math.cos(phase + 2.0 * math.pi * k / n) + rng.uniform(-0.05, 0.05),
                    0.5 * math.sin(phase + 2.0 * math.pi * k / n) + rng.uniform(-0.05, 0.05))
                   for k in range(n))
    masses = tuple(float(m + rng.uniform(-0.02, 0.02)) for m in masses)
    return extremals.AtomSpec(points=points, masses=masses)


def _bubbles_job(atoms, grid, mask, pack):
    # Explicit radii: the default ball_fraction makes the double balls of
    # mutually nearest atoms touch, which atom_localizations rejects.
    gap = min(math.dist(p, q) for p, q in itertools.combinations(atoms.points, 2))
    radii = [0.2 * gap] * len(atoms.points)
    cut = extremals.CutoffSpec(center=atoms.points[0], inner_radius=radii[0])
    zero = spectral.Field(grid=grid, values=np.zeros(grid.shape))
    s_star = extremals.sobolev_constant(pack.dim, pack.s)
    reach = ATOM_OFFSET_CELLS * grid.spacing

    def job():
        glued = extremals.glued_bubbles(atoms, 1.0, grid, mask, pack, radii=radii)
        mu = diagnostics.energy_density(glued, pack.s)
        nu = diagnostics.lp_density(glued, pack.two_star, mask)
        found = diagnostics.atom_detect(mu, nu, radius=0.15, threshold=0.1)
        probes = [diagnostics.mass_in_ball(mu, e.location, 0.15) for e in found]
        probes.append(diagnostics.tail_energy(glued, pack.s, mask, 0.5))
        probes.append(diagnostics.commutator_residual(
            glued, extremals.cutoff_field(cut, grid), pack.s))
        value = diagnostics.gamma_limit_value(zero, found, pack, mask)
        failures = []
        if not all(math.isfinite(p) and p >= 0.0 for p in probes):
            failures.append(f"diagnostic probes not finite and non-negative: {probes}")
        # One atom per seeded atom, near its point, holding at most the
        # seeded mass: a ball of radius 0.15 holds part of its bubble's energy.
        if len(found) != len(atoms.points):
            failures.append(f"{len(found)} atoms detected, {len(atoms.points)} seeded")
        for point, mass in zip(atoms.points, atoms.masses):
            near = [e for e in found if math.dist(e.location, point) <= reach]
            if len(near) != 1 or not near[0].mu <= mass:
                failures.append(f"seeded atom at {point} with mass {mass:.4g}: detected "
                                f"{[(e.location, round(e.mu, 4)) for e in near]}")
        # gamma_limit_value raises BudgetExceeded before either of these can
        # fail; they stay as the stated bounds of the limit functional.
        if not found.total_mu <= 1.0:
            failures.append(f"detected atom mass {found.total_mu:.6g} exceeds 1")
        if not value <= GAMMA_SLACK * s_star:
            failures.append(f"gamma_limit_value {value:.6g} above {GAMMA_SLACK} * S* {s_star:.6g}")
        return failures
    return job


def analysis_2d(seed, ctx):
    rng = np.random.default_rng(seed)
    battery = [(spectral.make_grid(1, 1024, 8.0), 0.25, 5, True),
               (spectral.make_grid(2, 32, 4.0), 0.5, 5, False),
               (spectral.make_grid(2, 64, 4.0), 0.5, 3, False)]
    jobs = []
    plancherel_fields = []
    for grid, s, count, check_cv in battery:
        fields = _window_fields(grid, rng, count)
        plancherel_fields.append(fields[0])
        jobs.append((f"ratio-{grid.dim}d-{grid.points_per_dim}", _ratio_job(fields, s, check_cv)))

    grid = spectral.make_grid(2, 512, 4.0)
    mask = norms.DomainMask.from_shape(grid, {"kind": "ball", "center": [0.0, 0.0],
                                              "radius": 1.0})
    pack = norms.ExponentPack(dim=2, s=0.5)
    plancherel_fields.append(spectral.Field(grid=grid, values=rng.standard_normal(grid.shape)))
    jobs.append(("plancherel", _plancherel_job(plancherel_fields)))
    for masses in ((0.35, 0.4), (0.22, 0.25, 0.28)):
        jobs.append((f"bubbles-{len(masses)}",
                     _bubbles_job(_atoms(rng, masses), grid, mask, pack)))
    _warm_up(*(g for g, *_ in battery), grid)
    return jobs


# ---------------------------------------------------------------------------
# cli-batch / cli-defaults: the command-line front end, one call per job

def _cli_call(ctx, argv):
    if ctx.in_process:
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        return code, captured.getvalue()
    code, stderr, _ = run_child([sys.executable, "-m", "fracsobolev.cli", *argv],
                                ctx.root, ctx.env)
    return code, stderr


def _cli_job(ctx, command, seed, reference):
    """One command with default flags apart from seed, --out and
    --reproducible; ``reference`` holds the first CSV of each command so
    later calls are compared byte for byte."""
    csv_name, header = CSV_OUTPUTS[command]

    def job():
        out = ctx.fresh_dir()
        try:
            code, stderr = _cli_call(ctx, [command, "--seed", str(seed), "--out", str(out),
                                           "--reproducible"])
            csv = out / csv_name
            data = csv.read_bytes() if csv.is_file() else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failures = []
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            failures.append(f"exit code {code}: {last[0]}")
        failures += [line for line in stderr.splitlines() if "skipped" in line]
        if data is None:
            return failures + [f"{csv_name} not written"]
        lines = data.decode("utf-8").splitlines()
        if lines[:1] != [header]:
            failures.append(f"header {lines[:1]} != {[header]}")
        if data != reference.setdefault(command, data):
            failures.append("--reproducible output differs from the first call")
        failures += [f"audit violated: {row}" for row in lines[1:]
                     if command == "gamma-check" and row.endswith(",false")]
        return failures
    return job


def _cli_workload(commands, seed, ctx):
    if ctx.in_process:
        _warm_up(cli.parse_config([commands[0]]).grid)
    else:
        code, stderr, _ = run_child([sys.executable, "-c", "import fracsobolev.cli"],
                                    ctx.root, ctx.env)
        if code != 0:
            raise RuntimeError(f"import fracsobolev.cli failed:\n{stderr}")
    reference = {}  # shared by every pass of the run
    return [(command, _cli_job(ctx, command, seed, reference)) for command in commands]


def cli_batch(seed, ctx):
    return _cli_workload(CLI_HEALTHY, seed, ctx)


def cli_defaults(seed, ctx):
    return _cli_workload(cli.COMMANDS, seed, ctx)


# Parts of the host-speed kernel (speed.py) for the workloads that do not
# use its default parts.  In a five-minute trial on one CPU, the spread of a
# short sweep was 0.060 under the default parts and 0.043 under these.
# analysis-2d streams arrays far larger than the L2 cache through its dense
# Gagliardo sums and 512^2 bubble fields, so its pace follows the host's
# cache bandwidth; in the same trial, summing 4 MB per kernel run took its
# bubble jobs from 0.090 to 0.075 and its M=64 ratio job from 0.073 to 0.048.
REFERENCE_PARTS = {
    "sweep-1d": ("fft1", "loop"),
    "analysis-2d": ("fft1", "fft2", "arith", "loop", "faults", "stream"),
}

WORKLOADS = {
    "sweep-1d": sweep_1d,
    "solve-2d": solve_2d,
    "analysis-2d": analysis_2d,
    "cli-batch": cli_batch,
    "cli-defaults": cli_defaults,
}
