"""One traced, in-process pass of the benchmark workloads (perfbench/).

The benchmark drives the library through names this suite does not
otherwise pin: ``SolverConfig(warm_start=...)``, ``DEFAULT_ATOM_CAP`` and
``_ball_offsets`` in the atom-detection count hook, ``.coeffs`` of
``forward_transform``'s result in the transform hook, and every name in each
module's ``__all__``, which ``Tracer.install`` reads.  The benchmark files
are imported, never edited.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import ``perfbench/<name>.py`` without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
# workloads.py runs ``from proc import run_child``; lend it that name for the import only
_saved_proc = sys.modules.get("proc")
sys.modules["proc"] = _load("proc")
try:
    workloads = _load("workloads")
finally:
    if _saved_proc is None:
        del sys.modules["proc"]
    else:
        sys.modules["proc"] = _saved_proc

WORKLOADS = ("sweep-1d", "solve-2d", "analysis-2d", "cli-batch")


@pytest.fixture
def traced():
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_traced(name, traced, tmp_path):
    ctx = workloads.Context(root=PERFBENCH.parent, out_dir=tmp_path, env={}, in_process=True)
    jobs = workloads.WORKLOADS[name](0, ctx)
    assert jobs
    for job_name, fn in jobs:
        traced.job = job_name
        assert fn() == [], job_name
    assert traced.spans
    metrics = spans.layer_metrics(traced.spans, 0, len(traced.spans), traced.counts)
    assert metrics["cli.nonzero_exits"] == 0
    assert metrics["solver.unconverged"] == 0
    if name == "analysis-2d":
        assert metrics["diagnostics.atom_detect.shift_cells"] > 0
        assert metrics["spectral.transform_points"] > 0
    if name in ("sweep-1d", "solve-2d", "cli-batch"):
        assert metrics["solver.outer_iters"] > 0


def _job_mask(fn):
    """The mask that the job ``fn`` reads, a default argument of it or a
    name it closes over."""
    params = inspect.signature(fn).parameters
    if "mask" in params:
        return params["mask"].default
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))["mask"]


@pytest.mark.parametrize("name,prefix,orders", [
    # no solver runs there, so its mask holds no window spectrum, which
    # would cost that workload resident memory and minor faults
    ("analysis-2d", "bubbles", set()),
    # the operator, its preconditioner and el_residual's scale, at s = 0.5
    ("solve-2d", "solve", {1.0, -1.0, 2.0}),
])
def test_masks_keep_spectra_only_where_a_solver_runs(name, prefix, orders, tmp_path):
    ctx = workloads.Context(root=PERFBENCH.parent, out_dir=tmp_path, env={}, in_process=True)
    jobs = [fn for job_name, fn in workloads.WORKLOADS[name](0, ctx)
            if job_name.startswith(prefix)]
    assert jobs
    for fn in jobs:
        assert fn() == []
        assert set(_job_mask(fn)._spectra) == orders
