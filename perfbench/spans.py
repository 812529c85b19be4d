"""In-memory span tracing of fracsobolev's public functions.

``Tracer.install`` replaces every public function of the library modules by
a wrapper, at its defining module and at every module that imported the same
function object (``solver.frac_power`` as well as ``spectral.frac_power``),
so calls between modules are traced too.  The library itself is not edited.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``job`` the id of the benchmark job that
was running.  Computed counts are derived from array sizes at the same
boundaries; they involve no timing, so they repeat exactly for a fixed seed.
"""

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter

LAYERS = ("spectral", "norms", "extremals", "solver", "diagnostics", "cli")


def _count_forward(counts, args, kwargs, result):
    counts["spectral.transform_points"] += result.grid.total_points
    counts["spectral.bytes_moved_computed"] += args[0].values.nbytes + result.coeffs.nbytes


def _count_inverse(counts, args, kwargs, result):
    counts["spectral.transform_points"] += result.grid.total_points
    counts["spectral.bytes_moved_computed"] += args[0].coeffs.nbytes + result.values.nbytes


def _count_gagliardo(counts, args, kwargs, result):
    counts["norms.gagliardo_pairs"] += args[0].grid.total_points ** 2


def _count_atom_detect(counts, args, kwargs, result):
    from fracsobolev.diagnostics import DEFAULT_ATOM_CAP, _ball_offsets
    m = args[0]
    radius = kwargs["radius"] if "radius" in kwargs else args[2]
    max_atoms = kwargs.get("max_atoms", args[4] if len(args) > 4 else DEFAULT_ATOM_CAP)
    rounds = max_atoms if len(result) >= max_atoms else len(result) + 1
    counts["diagnostics.atom_detect.shift_cells"] += (
        len(_ball_offsets(m.grid, radius)) * m.grid.total_points * rounds)


def _count_solve(counts, args, kwargs, result):
    counts["solver.outer_iters"] += result.iters
    counts["solver.unconverged"] += 0 if result.converged else 1


def _count_cli_main(counts, args, kwargs, result):
    counts["cli.nonzero_exits"] += 1 if result != 0 else 0


COUNT_HOOKS = {
    "cli.main": _count_cli_main,
    "spectral.forward_transform": _count_forward,
    "spectral.inverse_transform": _count_inverse,
    "norms.gagliardo_seminorm_sq": _count_gagliardo,
    "diagnostics.atom_detect": _count_atom_detect,
    "solver.solve": _count_solve,
}


class Tracer:
    """Records spans and computed counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        import fracsobolev
        modules = {layer: importlib.import_module(f"fracsobolev.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in [fracsobolev, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and not attr.startswith("__"):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path):
        """One JSON object per span; ``parent`` is a line index in the file."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(spans, lo, hi, counts):
    """Per-layer numbers of one traced pass over the job list.

    ``spans[lo:hi]`` are the spans of that pass and ``counts`` its computed
    counts.
    """
    calls = Counter()
    total = Counter()
    self_time = Counter()
    in_solve = {}
    apply_times = []
    for i in range(lo, hi):
        name, start, end, parent, _job = spans[i]
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur
        if parent >= 0:
            self_time[spans[parent][0]] -= dur
            in_solve[i] = in_solve[parent] or spans[parent][0] == "solver.solve"
        else:
            in_solve[i] = False
        if name == "spectral.frac_power" and in_solve[i]:
            apply_times.append(dur)

    out = {}
    for name in ("spectral.forward_transform", "spectral.inverse_transform",
                 "spectral.frac_power", "solver.solve", "norms.hs_dot_norm_sq",
                 "norms.lp_integral", "norms.gagliardo_seminorm_sq",
                 "extremals.glued_bubbles", "extremals.localized_bubble",
                 "diagnostics.energy_density", "diagnostics.atom_detect",
                 "diagnostics.mass_in_ball", "diagnostics.tail_energy",
                 "diagnostics.commutator_residual", "diagnostics.gamma_limit_value"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_time[name]
    out["extremals.cutoff_field.self_s"] = self_time["extremals.cutoff_field"]
    for key in ("spectral.transform_points", "spectral.bytes_moved_computed",
                "norms.gagliardo_pairs", "diagnostics.atom_detect.shift_cells",
                "solver.outer_iters", "solver.unconverged", "cli.nonzero_exits"):
        out[key] = counts[key]
    out["solver.solve.s"] = total["solver.solve"]
    out["solver.eps_sweep.s"] = total["solver.eps_sweep"]
    out["solver.op_applies"] = len(apply_times)
    outer = counts["solver.outer_iters"]
    out["solver.cg_iters_per_outer"] = len(apply_times) / outer - 1.0 if outer else 0.0
    out["solver.op_apply_mean_s"] = statistics.fmean(apply_times) if apply_times else 0.0
    out["cli.parse_config.s"] = total["cli.parse_config"]
    out["cli.run.s"] = total["cli.run"]
    return out


def cli_call_times(spans, lo, hi):
    """Median in-process ``cli.main`` time per command; the job id names it."""
    from fracsobolev.cli import COMMANDS
    times = {command: [] for command in COMMANDS}
    for name, start, end, _parent, job in spans[lo:hi]:
        if name == "cli.main":
            times[job.split(":")[-1]].append(end - start)
    return {f"cli.{command}.call_s": statistics.median(ts) if ts else 0.0
            for command, ts in times.items()}
