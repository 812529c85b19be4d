"""Command-line front end: configuration, dispatch, and CSV/field emission.

Commands: bubble-verify | norms-check | solve | sweep | recovery-demo |
gamma-check.  Configuration precedence is CLI flags over config-file
key=value lines over built-in defaults.  Exit codes: 0 success, 1 a solve
failed to converge, a gamma-check audit was violated or skipped, or a
runtime error, 2 configuration error.  Data goes to files under
--out; diagnostics go to standard error.  With --reproducible the
timestamp header line is suppressed and outputs are byte-identical for
identical config and seed.
"""

import datetime
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, FracSobolevError, InvalidGrid, InvalidMask,
                     InvalidOrder)
from .extremals import (AtomSpec, BubbleSpec, cutoff_profile,
                        recovery_sequence, talenti_bubble)
from .norms import (DomainMask, ExponentPack, gagliardo_seminorm_sq,
                    hoelder_envelope, hs_dot_norm_sq, lp_integral,
                    sobolev_constant, sobolev_quotient, subcritical_value)
from .solver import SolverConfig, el_residual, eps_sweep, solve
from .spectral import Field, field_to_bytes, forward_transform, make_grid
from . import diagnostics, extremals

__all__ = ["ExperimentConfig", "parse_config", "run", "main", "COMMANDS"]

COMMANDS = ("bubble-verify", "norms-check", "solve", "sweep", "recovery-demo", "gamma-check")

# flag / config key -> (type, built-in default); lam, the bubble scale,
# defaults to L/8 and omega, a JSON shape spec, to one per dimension
_FLAGS = {
    "N": (int, 1), "s": (float, 0.25), "M": (int, 512), "L": (float, 8.0),
    "lam": (float, None), "eps-schedule": (str, "0.8,0.4,0.2,0.1"),
    "omega": (str, None), "max-iters": (int, 5000), "tol": (float, 1e-8),
    "damping": (float, 0.8), "seed": (int, 0), "out": (str, "out"),
    "emit-fields": (bool, False), "reproducible": (bool, False),
}

# constructor parameter named by an InvalidGrid/InvalidOrder -> config key
_PARAM_KEYS = {
    "dim": "N", "points_per_dim": "M", "max_points": "M", "half_width": "L",
    "s": "s", "eps": "eps-schedule", "eps_schedule": "eps-schedule",
    "max_iters": "max-iters", "tol": "tol", "damping": "damping",
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
    seed: int


def _parse_file(path):
    values = {}
    text = Path(path).read_text(encoding="utf-8")
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

    try:
        grid = make_grid(typed["N"], typed["M"], typed["L"])
    except InvalidGrid as exc:
        raise ConfigError(_PARAM_KEYS[exc.param], str(exc))

    try:
        schedule = tuple(float(tok) for tok in str(typed["eps-schedule"]).split(",") if tok.strip())
    except ValueError:
        raise ConfigError("eps-schedule", f"not a comma-separated float list: {typed['eps-schedule']!r}")
    if not schedule:
        raise ConfigError("eps-schedule", "schedule is empty")

    try:
        pack = ExponentPack(dim=typed["N"], s=typed["s"], eps=schedule[0])
        for eps in schedule:
            ExponentPack(dim=typed["N"], s=typed["s"], eps=eps)
    except InvalidOrder as exc:
        raise ConfigError(_PARAM_KEYS[exc.param], str(exc))

    omega_raw = typed["omega"]
    if omega_raw is None:
        if typed["N"] == 1:
            shape = {"kind": "interval", "bounds": [-1.0, 1.0]}
        else:
            shape = {"kind": "ball", "center": [0.0] * typed["N"], "radius": 1.0}
    else:
        try:
            shape = json.loads(omega_raw)
        except json.JSONDecodeError as exc:
            raise ConfigError("omega", f"not valid JSON: {exc}")
        if not isinstance(shape, dict):
            raise ConfigError("omega", f"expected a JSON object, got {omega_raw!r}")
    try:
        mask = DomainMask.from_shape(grid, shape)
    except (InvalidMask, InvalidGrid, KeyError, TypeError, ValueError) as exc:
        raise ConfigError("omega", str(exc))

    try:
        solver = SolverConfig(max_iters=typed["max-iters"], tol=typed["tol"],
                              damping=typed["damping"], seed=typed["seed"],
                              eps_schedule=schedule)
    except InvalidOrder as exc:
        raise ConfigError(_PARAM_KEYS[exc.param], str(exc))

    lam = typed["lam"] if typed["lam"] is not None else typed["L"] / 8.0
    if not lam > 0:
        raise ConfigError("lam", f"bubble scale must be positive, got {lam}")

    return ExperimentConfig(command=command, grid=grid, pack=pack, mask=mask,
                            solver=solver, lam=lam, out_dir=Path(typed["out"]),
                            emit_fields=typed["emit-fields"],
                            reproducible=typed["reproducible"], seed=typed["seed"])


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
    rng = np.random.default_rng(cfg.seed)
    rows = []

    worst = 0.0
    for _ in range(20):
        u = Field(grid=grid, values=rng.standard_normal(grid.shape))
        lhs = float(np.sum(np.abs(forward_transform(u).coeffs) ** 2))
        rhs = float(np.sum(u.values ** 2) * grid.cell_volume)
        worst = max(worst, abs(lhs - rhs) / rhs)
    rows.append(["plancherel_max_rel_err", pack.dim, grid.points_per_dim,
                 grid.half_width, pack.s, worst])

    if grid.dim == 1 and 0.0 < pack.s < 1.0 and grid.total_points <= 4096:
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
        rows.append(["gagliardo_ratio_mean", pack.dim, grid.points_per_dim,
                     grid.half_width, pack.s, float(ratios.mean())])
        rows.append(["gagliardo_ratio_cv", pack.dim, grid.points_per_dim,
                     grid.half_width, pack.s, float(ratios.std() / ratios.mean())])
        rows.append(["gagliardo_fitted_constant", pack.dim, grid.points_per_dim,
                     grid.half_width, pack.s, float(ratios.mean())])
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
    mult, res = el_residual(result.maximizer, pack, cfg.mask)
    env = hoelder_envelope(pack, cfg.mask)
    _write_csv(cfg, "solve.csv",
               _ECHO_HEADER + ["value", "envelope", "multiplier", "iters", "converged",
                               "residual"],
               [_echo(cfg, eps) + [result.value, env, mult, result.iters,
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


def _recovery_geometry(cfg):
    """Base field, atom, and hole-radius scale for the joined-field demo."""
    grid, mask = cfg.grid, cfg.mask
    centroid = mask.centroid()
    extent = 0.5 * mask.diameter
    atom = tuple(centroid + np.eye(grid.dim)[0] * 0.5 * extent)
    u_center = tuple(centroid - np.eye(grid.dim)[0] * 0.5 * extent)
    bump = cutoff_profile(grid.radii(u_center), 0.225 * extent)
    bump = mask.restrict(bump)
    u = Field(grid=grid, values=bump)
    u = Field(grid=grid, values=bump * np.sqrt(0.25 / hs_dot_norm_sq(u, cfg.pack.s)))
    # distance from the atom's cell to the nearest cell outside the domain
    cell = [grid.axis[int(np.argmin(np.abs(grid.axis - c)))] for c in atom]
    d_atom = float(grid.radii(cell)[~mask.inside].min())
    return u, atom, d_atom


def _cmd_recovery_demo(cfg):
    pack = cfg.pack
    u, atom_pt, d_atom = _recovery_geometry(cfg)
    mu1 = 0.5
    atoms = AtomSpec(points=(atom_pt,), masses=(mu1,))
    Sstar = sobolev_constant(pack.dim, pack.s)
    target = lp_integral(u, pack.two_star, cfg.mask) + Sstar * mu1 ** (pack.two_star / 2.0)
    sig_fracs = (0.4, 0.2, 0.1)
    eps_list = cfg.solver.eps_schedule
    rows = []
    for sig_frac, eps in zip(sig_fracs, eps_list[:len(sig_fracs)]):
        sigma = sig_frac * d_atom
        crit = pack.with_eps(eps)
        ubar = recovery_sequence(u, atoms, sigma, eps, cfg.grid, cfg.mask, crit)
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
    one_atom = diagnostics.AtomList(entries=(diagnostics.AtomEntry(
        location=tuple(mask.centroid()), mu=1.0, nu=0.0),))
    audit("single_unit_atom", diagnostics.gamma_limit_value(zero, one_atom, pack.with_eps(0.0), mask), bound)
    audit("empty_pair", diagnostics.gamma_limit_value(zero, diagnostics.AtomList(entries=()),
                                                      pack.with_eps(0.0), mask), bound)

    u, atom_pt, d_atom = _recovery_geometry(cfg)
    half_atoms = diagnostics.AtomList(entries=(diagnostics.AtomEntry(
        location=atom_pt, mu=0.5, nu=0.0),))
    audit("mixed_pair", diagnostics.gamma_limit_value(u, half_atoms, pack.with_eps(0.0), mask), bound)

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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
