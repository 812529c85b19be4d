"""Command-line front end: configuration, dispatch, and CSV/field emission.

Commands: bubble-verify | norms-check | solve | sweep | recovery-demo |
gamma-check.  Configuration precedence is CLI flags over config-file
key=value lines over built-in defaults.  Exit codes: 0 success, 1 a solve
failed to converge, a gamma-check audit was violated or skipped, or a
runtime error, 2 configuration error, also a runtime error that names a
key.  Data goes to files under --out; diagnostics go to standard error.
With --reproducible the timestamp header line is suppressed and outputs
are byte-identical for identical config and seed, whatever the BLAS thread
settings, as the solver's inner products are (``solver._dot``).
"""

import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, FracSobolevError, InvalidGrid, InvalidMask,
                     InvalidOrder)
from .extremals import (AtomSpec, BubbleSpec, cutoff_profile,
                        recovery_sequence, talenti_bubble)
from .norms import (DomainMask, ExponentPack, gagliardo_seminorm_sq, hoelder_envelope,
                    hs_dot_norm_sq, sobolev_constant, sobolev_quotient, subcritical_value)
from .solver import SolverConfig, el_residual, eps_sweep, solve
from .spectral import Field, field_to_bytes, forward_transform, make_grid
from . import diagnostics, extremals

__all__ = ["ExperimentConfig", "parse_config", "run", "main", "COMMANDS"]

# flag / config key -> (type, built-in default); the solver's are SolverConfig's,
# lam, the bubble scale, defaults to L/8 and omega, a JSON shape spec, to one per dimension
_FLAGS = {
    "N": (int, 1), "s": (float, 0.25), "M": (int, 512), "L": (float, 8.0),
    "lam": (float, None), "eps-schedule": (str, ",".join(map(str, SolverConfig().eps_schedule))),
    "omega": (str, None), "max-iters": (int, SolverConfig().max_iters),
    "tol": (float, SolverConfig().tol), "seed": (int, SolverConfig().seed),
    "out": (str, "out"), "emit-fields": (bool, False), "reproducible": (bool, False),
}

# constructor parameter named by an InvalidGrid/InvalidOrder -> config key
_PARAM_KEYS = {
    "dim": "N", "points_per_dim": "M", "half_width": "L",
    "s": "s", "eps": "eps-schedule", "eps_schedule": "eps-schedule",
    "max_iters": "max-iters", "tol": "tol", "seed": "seed",
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    grid: object
    pack: ExponentPack
    mask: DomainMask
    solver: SolverConfig
    lam: float
    out_dir: Path
    emit_fields: bool
    reproducible: bool


def _parse_file(path):
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config-file", f"line {lineno} is not key=value: {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FLAGS:
            raise ConfigError(key, f"unknown key on line {lineno}")
        values[key] = val.strip()
    return values


def _coerce(key, raw):
    typ = _FLAGS[key][0]
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(key, f"expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected {typ.__name__}, got {raw!r}")


def _domain_mask(grid, omega_raw):
    """The mask of the JSON shape spec ``omega_raw``; [-1, 1] or the unit ball by default."""
    if omega_raw is None:
        if grid.dim == 1:
            shape = {"kind": "interval", "bounds": [-1.0, 1.0]}
        else:
            shape = {"kind": "ball", "center": [0.0] * grid.dim, "radius": 1.0}
    else:
        try:
            shape = json.loads(omega_raw)
        except json.JSONDecodeError as exc:
            raise ConfigError("omega", f"not valid JSON: {exc}")
        if not isinstance(shape, dict):
            raise ConfigError("omega", f"expected a JSON object, got {omega_raw!r}")
    try:
        return DomainMask.from_shape(grid, shape)
    except (InvalidMask, InvalidGrid, TypeError, ValueError) as exc:
        raise ConfigError("omega", str(exc))


def parse_config(args):
    """Merge CLI args over config-file values (``--config PATH``) over
    defaults into a validated ExperimentConfig.  Raises ConfigError naming
    the first offending key."""
    args = list(args)
    if not args:
        raise ConfigError("command", f"missing command; expected one of {', '.join(COMMANDS)}")
    command = args[0]
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")

    cli_values = {}
    file = None
    i = 1
    while i < len(args):
        tok = args[i]
        if tok == "--config":
            if i + 1 >= len(args):
                raise ConfigError("config", "missing value for --config")
            file = args[i + 1]
            i += 2
            continue
        if not tok.startswith("--"):
            raise ConfigError(tok, "unexpected positional argument")
        key = tok[2:]
        if key not in _FLAGS:
            raise ConfigError(key, "unknown flag")
        if _FLAGS[key][0] is bool:
            cli_values[key] = True
            i += 1
        else:
            if i + 1 >= len(args):
                raise ConfigError(key, "missing value")
            cli_values[key] = args[i + 1]
            i += 2

    merged = {key: default for key, (_, default) in _FLAGS.items()}
    if file is not None:
        merged.update(_parse_file(file))
    merged.update(cli_values)

    typed = {}
    for key, raw in merged.items():
        typed[key] = None if raw is None else _coerce(key, raw)

    # a library check that names its parameter names the config key here
    try:
        grid = make_grid(typed["N"], typed["M"], typed["L"])
        try:
            schedule = tuple(float(tok) for tok in str(typed["eps-schedule"]).split(",")
                             if tok.strip())
        except ValueError:
            raise ConfigError("eps-schedule",
                              f"not a comma-separated float list: {typed['eps-schedule']!r}")
        if not schedule:
            raise ConfigError("eps-schedule", "schedule is empty")
        # every eps of the schedule must give a valid pack; the first is the config's
        pack = [ExponentPack(dim=typed["N"], s=typed["s"], eps=eps) for eps in schedule][0]
        mask = _domain_mask(grid, typed["omega"])
        solver = SolverConfig(max_iters=typed["max-iters"], tol=typed["tol"],
                              seed=typed["seed"], eps_schedule=schedule)
    except (InvalidGrid, InvalidOrder) as exc:
        raise ConfigError(_PARAM_KEYS[exc.param], str(exc))

    lam = typed["lam"] if typed["lam"] is not None else typed["L"] / 8.0
    if not 0 < lam < np.inf:
        raise ConfigError("lam", f"bubble scale must be positive and finite, got {lam}")

    return ExperimentConfig(command=command, grid=grid, pack=pack, mask=mask,
                            solver=solver, lam=lam, out_dir=Path(typed["out"]),
                            emit_fields=typed["emit-fields"],
                            reproducible=typed["reproducible"])


# ---------------------------------------------------------------------------
# emission helpers

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def _write_csv(cfg, name, header, rows):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / name
    lines = []
    if not cfg.reproducible:
        lines.append(f"# generated {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _dump_field(cfg, name, field):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    extra = None
    if not cfg.reproducible:
        extra = {"written_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    (cfg.out_dir / name).write_bytes(field_to_bytes(field, extra_header=extra))


def _echo(cfg, eps):
    return [cfg.pack.dim, cfg.pack.s, cfg.grid.points_per_dim, cfg.grid.half_width, eps]

_ECHO_HEADER = ["N", "s", "M", "L", "eps"]


def _log(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

def _cmd_bubble_verify(cfg):
    grid, pack = cfg.grid, cfg.pack
    h = grid.spacing
    margin = 2.0 * h
    box = {"kind": "box",
           "lower": [-grid.half_width + margin] * grid.dim,
           "upper": [grid.half_width - margin] * grid.dim}
    mask = DomainMask.from_shape(grid, box)
    crit_pack = ExponentPack(dim=pack.dim, s=pack.s, eps=0.0)
    spec = BubbleSpec(amplitude=1.0, scale=cfg.lam, center=(0.0,) * grid.dim, pack=crit_pack)
    bubble = talenti_bubble(spec, grid, normalize=True)
    quotient = sobolev_quotient(bubble, crit_pack, mask)
    Sstar = sobolev_constant(pack.dim, pack.s)
    rel = (quotient - Sstar) / Sstar
    _write_csv(cfg, "bubble_verify.csv",
               _ECHO_HEADER + ["lam", "sobolev_constant", "quotient", "rel_err"],
               [_echo(cfg, 0.0) + [cfg.lam, Sstar, quotient, rel]])
    if cfg.emit_fields:
        _dump_field(cfg, "bubble.field", bubble)
    _log(f"bubble-verify: quotient={quotient:.6g} S*={Sstar:.6g} rel_err={rel:+.4%}")
    return 0


def _cmd_norms_check(cfg):
    grid, pack = cfg.grid, cfg.pack
    rng = np.random.default_rng(cfg.solver.seed)
    rows = []

    worst = 0.0
    for _ in range(20):
        u = Field(grid=grid, values=rng.standard_normal(grid.shape))
        lhs = float(np.sum(np.abs(forward_transform(u).coeffs) ** 2))
        rhs = float(np.sum(u.values ** 2) * grid.cell_volume)
        worst = max(worst, abs(lhs - rhs) / rhs)
    rows.append(["plancherel_max_rel_err", pack.dim, grid.points_per_dim,
                 grid.half_width, pack.s, worst])

    if grid.dim == 1 and 0.0 < pack.s < 1.0:
        half = 0.5 * grid.half_width
        window = cutoff_profile(np.abs(grid.axis), half / 2.0)
        ratios = []
        for _ in range(5):
            f = np.zeros(grid.shape)
            for k in range(1, 7):
                f += rng.standard_normal() * np.cos(np.pi * k * grid.axis / half)
                f += rng.standard_normal() * np.sin(np.pi * k * grid.axis / half)
            u = Field(grid=grid, values=window * f)
            ratios.append(hs_dot_norm_sq(u, pack.s) / gagliardo_seminorm_sq(u, pack.s))
        ratios = np.array(ratios)
        mean = float(ratios.mean())
        # the ratio's limit C(N, s) / 2, C(N, s) the singular-integral constant of (-Lap)^s
        closed = (pack.s * 4.0 ** pack.s * math.gamma((pack.dim + 2.0 * pack.s) / 2.0)
                  / (math.pi ** (pack.dim / 2.0) * math.gamma(1.0 - pack.s)) / 2.0)
        for name, value in [("gagliardo_ratio_mean", mean),
                            ("gagliardo_ratio_cv", float(ratios.std()) / mean),
                            ("gagliardo_ratio_closed_form", closed),
                            ("gagliardo_ratio_rel_gap", (mean - closed) / closed)]:
            rows.append([name, pack.dim, grid.points_per_dim, grid.half_width, pack.s, value])
    _write_csv(cfg, "norms_check.csv", ["quantity", "N", "M", "L", "s", "value"], rows)
    _log(f"norms-check: {len(rows)} rows")
    return 0


def _solve_rows(cfg, entries):
    rows = []
    exit_code = 0
    for e in entries:
        if e.result is None:
            rows.append(_echo(cfg, e.eps) + [float("nan"), e.envelope, float("nan"), 0,
                                             False, "", float("nan"), float("nan"),
                                             float("nan")])
            exit_code = 1
            continue
        r = e.result
        if not r.converged:
            exit_code = 1
        rows.append(_echo(cfg, e.eps) + [r.value, e.envelope, r.multiplier, r.iters,
                                         r.converged, e.argmax, e.mass_r1, e.mass_r2,
                                         e.tail_energy])
    return rows, exit_code


_SWEEP_HEADER = _ECHO_HEADER + ["value", "envelope", "multiplier", "iters", "converged",
                                "argmax_coords", "mass_r1", "mass_r2", "tail_energy"]


def _cmd_solve(cfg):
    eps = cfg.solver.eps_schedule[0]
    pack = cfg.pack.with_eps(eps)
    result = solve(pack, cfg.mask, cfg.solver)
    _, res = el_residual(result.maximizer, pack, cfg.mask)
    env = hoelder_envelope(pack, cfg.mask)
    _write_csv(cfg, "solve.csv",
               _ECHO_HEADER + ["value", "envelope", "multiplier", "iters", "converged",
                               "residual"],
               [_echo(cfg, eps) + [result.value, env, result.multiplier, result.iters,
                                   result.converged, res]])
    if cfg.emit_fields:
        _dump_field(cfg, f"maximizer_eps{eps:g}.field", result.maximizer)
    _log(f"solve: eps={eps} value={result.value:.6g} converged={result.converged} "
         f"iters={result.iters} residual={res:.2e}")
    return 0 if result.converged else 1


def _cmd_sweep(cfg):
    entries = eps_sweep(cfg.pack, cfg.mask, cfg.solver)
    rows, exit_code = _solve_rows(cfg, entries)
    _write_csv(cfg, "sweep.csv", _SWEEP_HEADER, rows)
    if cfg.emit_fields:
        for e in entries:
            if e.result is not None:
                _dump_field(cfg, f"maximizer_eps{e.eps:g}.field", e.result.maximizer)
    for e in entries:
        if e.result is not None:
            _log(f"sweep: eps={e.eps} value={e.result.value:.6g} "
                 f"mass_r1={e.mass_r1:.3f} tail={e.tail_energy:.4f}")
        else:
            _log(f"sweep: eps={e.eps} failed: {e.error}")
    return exit_code


def _recovery_atom(grid, mask):
    """The demo atom and its clearance, the distance from its cell to the
    nearest cell outside the domain."""
    atom = tuple(mask.centroid() + np.eye(grid.dim)[0] * 0.25 * mask.diameter)
    cell = [grid.axis[int(np.argmin(np.abs(grid.axis - c)))] for c in atom]
    return atom, float(grid.radii(cell)[~mask.inside].min())


def _recovery_geometry(cfg):
    """Base field, atom, and hole-radius scale for the joined-field demo."""
    grid, mask = cfg.grid, cfg.mask
    extent = 0.5 * mask.diameter
    u_center = tuple(mask.centroid() - np.eye(grid.dim)[0] * 0.5 * extent)
    bump = cutoff_profile(grid.radii(u_center), 0.225 * extent)
    bump = mask.restrict(bump)
    u = Field(grid=grid, values=bump)
    u = Field(grid=grid, values=bump * np.sqrt(0.25 / hs_dot_norm_sq(u, cfg.pack.s)))
    return (u,) + _recovery_atom(grid, mask)


def _limit_value(cfg, u, atoms):
    """``diagnostics.gamma_limit_value`` of u and the atoms, (point, mass) pairs."""
    entries = tuple(diagnostics.AtomEntry(location=p, mu=mu, nu=0.0) for p, mu in atoms)
    return diagnostics.gamma_limit_value(u, diagnostics.AtomList(entries=entries),
                                         cfg.pack.with_eps(0.0), cfg.mask)


def _recovery_steps(d_atom, schedule):
    """(sigma, eps) per demo step and the finest glued-bubble core."""
    steps = [(frac * d_atom, eps) for frac, eps in zip((0.4, 0.2, 0.1), schedule)]
    return steps, min(extremals.recovery_core_width(sigma, eps) for sigma, eps in steps)


def _cmd_recovery_demo(cfg):
    pack = cfg.pack
    u, atom_pt, d_atom = _recovery_geometry(cfg)
    steps, finest = _recovery_steps(d_atom, cfg.solver.eps_schedule)
    # the finest core sets the M that every step needs, so name it before any
    # step runs: the first doubling of M whose grid gives a finest core that
    # clears, for the clearance, hence every core, moves with the grid
    grid, core = cfg.grid, finest
    while core < extremals.MIN_CORE_CELLS * grid.spacing:
        grid = make_grid(grid.dim, 2 * grid.points_per_dim, grid.half_width)
        clearance = _recovery_atom(grid, DomainMask.from_shape(grid, cfg.mask.shape_spec))[1]
        core = _recovery_steps(clearance, cfg.solver.eps_schedule)[1]
    extremals.require_core_cells(finest, cfg.grid, start=grid.points_per_dim)
    atoms = AtomSpec(points=(atom_pt,), masses=(0.5,))
    target = _limit_value(cfg, u, zip(atoms.points, atoms.masses))
    rows = []
    for sigma, eps in steps:
        crit = pack.with_eps(eps)
        ubar = recovery_sequence(u, atoms, sigma, eps, cfg.mask, crit)
        feps = subcritical_value(ubar, crit, cfg.mask)
        budget = hs_dot_norm_sq(ubar, pack.s)
        rows.append(_echo(cfg, eps) + [sigma, feps, target, (feps - target) / target, budget])
        _log(f"recovery-demo: sigma={sigma:.4g} eps={eps:.4g} F={feps:.6g} "
             f"target={target:.6g} budget={budget:.4f}")
    _write_csv(cfg, "recovery_demo.csv",
               _ECHO_HEADER + ["sigma", "f_eps", "target", "rel_err", "budget"], rows)
    return 0


def _cmd_gamma_check(cfg):
    pack = cfg.pack
    grid, mask = cfg.grid, cfg.mask
    Sstar = sobolev_constant(pack.dim, pack.s)
    bound = Sstar * 1.05
    rows = []

    def audit(case, value, limit):
        rows.append(_echo(cfg, pack.eps) + [case, value, limit, value <= limit])

    zero = Field(grid=grid, values=np.zeros(grid.shape))
    audit("single_unit_atom", _limit_value(cfg, zero, [(tuple(mask.centroid()), 1.0)]), bound)
    audit("empty_pair", _limit_value(cfg, zero, []), bound)

    u, atom_pt, d_atom = _recovery_geometry(cfg)
    audit("mixed_pair", _limit_value(cfg, u, [(atom_pt, 0.5)]), bound)

    centroid = mask.centroid()
    extent = 0.5 * mask.diameter
    offs = np.eye(grid.dim)[0] * 0.5 * extent
    atoms = AtomSpec(points=(tuple(centroid - offs), tuple(centroid + offs)),
                     masses=(0.3, 0.4))
    eps = cfg.solver.eps_schedule[-1]
    skipped = False
    try:
        glued = extremals.glued_bubbles(atoms, eps, grid, mask, pack.with_eps(eps))
        mu_m = diagnostics.energy_density(glued, pack.s)
        nu_m = diagnostics.lp_density(glued, pack.two_star, mask)
        detected = diagnostics.atom_detect(mu_m, nu_m, radius=0.3 * extent, threshold=0.1)
        for k, entry in enumerate(detected):
            audit(f"atom_{k}_quant_bound", entry.nu,
                  Sstar * entry.mu ** (pack.two_star / 2.0) * 1.10)
    except FracSobolevError as exc:
        if exc.param in _PARAM_KEYS:
            raise
        _log(f"gamma-check: glued audit skipped: {exc}")
        skipped = True

    _write_csv(cfg, "gamma_check.csv",
               _ECHO_HEADER + ["case", "value", "bound", "ok"], rows)
    bad = [r for r in rows if r[-1] is False]
    _log(f"gamma-check: {len(rows)} audits, {len(bad)} violations")
    return 1 if bad or skipped else 0


_DISPATCH = {
    "bubble-verify": _cmd_bubble_verify,
    "norms-check": _cmd_norms_check,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "recovery-demo": _cmd_recovery_demo,
    "gamma-check": _cmd_gamma_check,
}
COMMANDS = tuple(_DISPATCH)


def run(config):
    """Execute a validated experiment; returns the process exit code."""
    return _DISPATCH[config.command](config)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except FracSobolevError as exc:
        key = _PARAM_KEYS.get(exc.param)
        print(f"config error: {key}: {exc}" if key else f"error: {exc}", file=sys.stderr)
        return 2 if key else 1


if __name__ == "__main__":
    sys.exit(main())
