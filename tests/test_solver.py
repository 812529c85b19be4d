"""Fixed-point solver, stationarity residual, and eps sweeps."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracsobolev
from fracsobolev import (DegenerateInput, DomainMask, ExponentPack, Field,
                         InnerSolveFailed, InvalidGrid, InvalidMask, InvalidOrder, SolverConfig,
                         apply_multiplier, el_residual, eps_sweep, hoelder_envelope,
                         hs_dot_norm_sq, make_grid, solve)
from fracsobolev.solver import (_DOT_BLOCK, CG_TOL, ETA_MAX, _dot, _gram_weights,
                                default_initial_field)

from oracles import (el_residual_full, full_box_ops, gradient_ascent_oracle,
                     initial_field_full, lstsq_weights_mgs, plain_inverse_iteration)


@pytest.fixture(scope="module")
def ctx():
    g = make_grid(1, 512, 8.0)
    mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
    return g, mask


@pytest.fixture(scope="module")
def solved(ctx):
    g, mask = ctx
    pack = ExponentPack(dim=1, s=0.25, eps=0.8)
    cfg = SolverConfig(eps_schedule=(0.8,))
    return pack, solve(pack, mask, cfg)


class TestSolverConfig:
    def test_rejects_non_decreasing_schedule(self):
        with pytest.raises(InvalidOrder):
            SolverConfig(eps_schedule=(0.4, 0.8))

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidOrder):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize("field,value", [
        ("max_iters", 0), ("max_iters", -3),
    ])
    def test_rejects_bad_iteration_limits(self, field, value):
        with pytest.raises(InvalidOrder) as err:
            SolverConfig(**{field: value})
        assert err.value.param == field

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidOrder) as err:
            SolverConfig(seed=-1)
        assert err.value.param == "seed"


# eps = 0.4 at s = 0.1, where 2* - 2 = 0.5
_ASCENT_CASES = [("interval", 0.1, 0.4), ("interval", 0.25, 0.8), ("interval", 0.45, 0.8),
                 ("ball", 0.5, 0.8), ("box", 0.5, 0.8)]


class TestSolve:
    def test_converges_and_respects_invariants(self, ctx, solved):
        g, mask = ctx
        pack, result = solved
        assert result.converged
        assert hs_dot_norm_sq(result.maximizer, pack.s) == pytest.approx(1.0, abs=1e-8)
        assert np.all(result.maximizer.values[~mask.inside] == 0.0)
        assert result.trace[-1] >= result.trace[0]

    def test_value_between_half_sharp_and_envelope(self, ctx, solved):
        from fracsobolev import sobolev_constant
        g, mask = ctx
        pack, result = solved
        env = hoelder_envelope(pack, mask)
        assert 0.5 * sobolev_constant(1, 0.25) <= result.value <= env * 1.02

    def test_matches_gradient_ascent_oracle(self, ctx, solved):
        g, mask = ctx
        pack, result = solved
        _, oracle_value = gradient_ascent_oracle(pack, mask)
        assert abs(result.value - oracle_value) <= 0.01 * result.value

    def test_el_residual_small(self, ctx, solved):
        g, mask = ctx
        pack, result = solved
        mult, res = el_residual(result.maximizer, pack, mask)
        assert res < 5e-3
        assert mult > 0

    @pytest.mark.parametrize("kind,s,eps", _ASCENT_CASES)
    def test_ascent_from_first_step(self, kind, s, eps):
        # F_eps is convex and each step maximizes its linearization on the
        # unit sphere, so no step lowers it, the first one included
        _, mask = _domain_case(kind)
        pack = ExponentPack(dim=mask.grid.dim, s=s, eps=eps)
        result = solve(pack, mask, SolverConfig(eps_schedule=(eps,)))
        assert result.converged
        assert np.all(np.diff(result.trace) >= -1e-10)

    def test_symmetric_init_preserves_symmetry(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,))
        bump = mask.restrict(np.cos(np.pi * g.axis / 2.0) ** 2 * (np.abs(g.axis) < 1.0))
        result = solve(pack, mask, cfg, init=Field(grid=g, values=bump))
        vals = result.maximizer.values
        # x -> -x maps cell i to cell M-i; cell 0 (x = -L) has no partner
        assert np.max(np.abs(vals[1:] - vals[1:][::-1])) < 1e-6

    def test_zero_init_raises(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,))
        with pytest.raises(DegenerateInput):
            solve(pack, mask, cfg, init=Field(grid=g, values=np.zeros(g.shape)))

    @pytest.mark.parametrize("M,L", [(1024, 8.0), (256, 8.0), (512, 4.0)])
    def test_init_on_another_grid_raises(self, ctx, M, L):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,))
        other = make_grid(1, M, L)
        bump = np.cos(np.pi * other.axis / 2.0) ** 2 * (np.abs(other.axis) < 1.0)
        init = Field(grid=other, values=bump)
        with pytest.raises(InvalidGrid) as err:
            solve(pack, mask, cfg, init=init)
        assert str(err.value) == (f"init lies on the grid ({M},) of half-width {L:g}, "
                                  f"mask on {g.shape} of half-width {g.half_width:g}")
        entry, = eps_sweep(pack, mask, cfg, init=init)
        assert entry.result is None and entry.error == str(err.value)

    def test_not_converged_flagged(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,), max_iters=3, tol=1e-14)
        result = solve(pack, mask, cfg)
        assert not result.converged
        assert result.iters == 3

    def test_inner_solve_failure_raises(self, ctx, monkeypatch):
        import fracsobolev.solver as solver_mod
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,))
        monkeypatch.setattr(solver_mod, "CG_MAX_ITERS", 1)
        monkeypatch.setattr(solver_mod, "CG_TOL", 1e-14)
        with pytest.raises(InnerSolveFailed) as err:
            solve(pack, mask, cfg)
        assert "after 1 iterations" in str(err.value)
        assert "relative residual" in str(err.value)


# windows that reach the last cells a domain may hold, one before the outer
# layer, so the initial field's draw runs to the box's last rows
_EDGE_WINDOWS = [
    (1, 64, {"kind": "interval", "bounds": [2.0, 3.8]}),
    (2, 32, {"kind": "box", "lower": [1.0, -3.6], "upper": [3.6, 3.6]}),
    (3, 16, {"kind": "box", "lower": [1.0, 1.0, 1.0], "upper": [3.2, 3.2, 3.2]}),
]


class TestInitialField:
    @pytest.mark.parametrize("dim,M,shape", [
        (1, 64, {"kind": "interval", "bounds": [-1.0, 1.3]}),
        (1, 64, {"kind": "box", "lower": [-2.5], "upper": [0.4]}),
        (1, 64, {"kind": "ball", "center": [0.7], "radius": 1.1}),
        (2, 32, {"kind": "box", "lower": [-1.0, -0.6], "upper": [1.6, 0.7]}),
        (2, 32, {"kind": "ball", "center": [0.3, -0.2], "radius": 1.2}),
        (2, 32, {"kind": "polygon", "vertices": [[-1.0, -1.0], [1.0, -0.8], [0.2, 1.1]]}),
        # an L whose centroid lies off the domain, inside its window
        (2, 32, {"kind": "polygon", "vertices": [[-1.5, -1.5], [1.5, -1.5], [1.5, -0.9],
                                                 [-0.9, -0.9], [-0.9, 1.5], [-1.5, 1.5]]}),
        (3, 16, {"kind": "box", "lower": [-1.0, -0.5, -1.5], "upper": [1.2, 1.0, 0.5]}),
        (3, 16, {"kind": "ball", "center": [0.0, 0.2, -0.3], "radius": 1.5}),
    ] + _EDGE_WINDOWS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_whole_box_formula(self, dim, M, shape, seed):
        mask = DomainMask.from_shape(make_grid(dim, M, 4.0), shape)
        got = default_initial_field(mask, seed=seed).values
        assert got.tobytes() == initial_field_full(mask, seed).tobytes()

    @pytest.mark.parametrize("dim,M,shape", _EDGE_WINDOWS)
    def test_edge_windows_reach_the_last_rows(self, dim, M, shape):
        # so the draw of those cases runs to the last cell it may read
        mask = DomainMask.from_shape(make_grid(dim, M, 4.0), shape)
        assert all(w.stop == M - 1 for w in mask.window)


class TestAnderson:
    """The safeguarded Anderson outer step against plain inverse iteration."""

    def test_telemetry_per_outer_iteration(self, solved):
        _, result = solved
        assert len(result.cg_iters) == len(result.cg_residuals) == result.iters
        assert len(result.accelerated) == result.iters
        assert len(result.resumed) == result.iters
        # inner solves are loose while F_eps moves, and a solve ends on an
        # exact one
        assert max(result.cg_residuals) <= ETA_MAX
        assert result.cg_residuals[-1] <= CG_TOL
        # the first step has no history to extrapolate from
        assert not result.accelerated[0] and any(result.accelerated)

    @pytest.mark.parametrize("kind", ["interval", "ball"])
    def test_matches_plain_iteration(self, kind):
        from fracsobolev.diagnostics import argmax_cell, energy_density
        pack, mask = _domain_case(kind)
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        result = solve(pack, mask, cfg)
        ref, ref_value, _ = plain_inverse_iteration(pack, mask, tol=1e-14)
        assert result.converged
        assert abs(result.value - ref_value) <= 20 * cfg.tol * ref_value
        assert (argmax_cell(energy_density(result.maximizer, pack.s))
                == argmax_cell(energy_density(ref, pack.s)))

    @pytest.mark.parametrize("kind", ["interval", "ball"])
    def test_depth_zero_is_the_plain_loop(self, monkeypatch, kind):
        import fracsobolev.solver as solver_mod
        pack, mask = _domain_case(kind)
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        monkeypatch.setattr(solver_mod, "ANDERSON_DEPTH", 0)
        monkeypatch.setattr(solver_mod, "ETA_MAX", CG_TOL)
        result = solve(pack, mask, cfg)
        _, ref_value, ref_iters = plain_inverse_iteration(pack, mask, tol=cfg.tol)
        assert not any(result.accelerated)
        assert result.iters == ref_iters
        assert result.value == pytest.approx(ref_value, rel=1e-12, abs=0)

    def test_safeguard_rejects_a_lowering_candidate(self, monkeypatch):
        # offer the previous plain image, whose F_eps the plain step exceeds:
        # every offer is refused, and with the extended step taken out the
        # solve is the plain loop
        import fracsobolev.solver as solver_mod
        pack, mask = _domain_case("interval")
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        with monkeypatch.context() as mp:
            mp.setattr(solver_mod, "ANDERSON_DEPTH", 0)
            plain = solve(pack, mask, cfg)
        offers = []

        def previous_image(history, h_vol):
            # every refusal cuts the history to its newest entry
            assert len(history) <= 2
            if len(history) < 2:
                return None
            offers.append(1)
            # the entry's first half is the plain image and its image
            return history[0][0][:2].copy()

        monkeypatch.setattr(solver_mod, "_anderson_candidate", previous_image)
        monkeypatch.setattr(solver_mod, "_extend_step",
                            lambda newest, F_g, f_eps, h_vol: (newest[:2], F_g, 0))
        result = solve(pack, mask, cfg)
        assert len(offers) == result.iters - 1
        assert not any(result.accelerated)
        assert result.iters == plain.iters and result.trace == plain.trace


class TestGramWeights:
    """Anderson's least-squares weights from the Gram matrix of the
    differences against modified Gram-Schmidt on the differences
    themselves (``oracles.lstsq_weights_mgs``), newest difference first."""

    @staticmethod
    def _weights(columns, target):
        gram = [[_dot(a, b) for b in columns] for a in columns]
        got = _gram_weights(gram, [_dot(c, target) for c in columns])
        ref = lstsq_weights_mgs(target.copy(), [c.copy() for c in columns])
        return np.asarray(got), ref

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_modified_gram_schmidt(self, n, seed):
        # differences that shrink as a history converges, and a residual
        # that they nearly span
        rng = np.random.default_rng(seed)
        columns = [rng.standard_normal(1024) * 10.0 ** -k for k in range(n)]
        target = sum(rng.standard_normal() * c for c in columns)
        target = target + 1e-3 * np.linalg.norm(target) / 32.0 * rng.standard_normal(1024)
        got, ref = self._weights(columns, target)
        assert np.all(ref != 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("last", [0, 1, 2])
    @pytest.mark.parametrize("kick", [0.0, 1e-12])
    def test_both_drop_a_dependent_difference(self, last, kick):
        # one of three differences is a combination of the other two, up to
        # a kick below both tolerances: the one fitted last gets weight 0
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 1024))
        dep = 0.7 * a - 1.3 * b
        dep += kick * np.linalg.norm(dep) / 32.0 * rng.standard_normal(1024)
        columns = [a, b]
        columns.insert(last, dep)
        target = rng.standard_normal(1024)
        got, ref = self._weights(columns, target)
        assert got[-1] == 0.0 and ref[-1] == 0.0
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_drops_what_its_rounding_cannot_tell(self):
        # the Gram matrix squares the remainder, so a difference whose
        # remainder keeps 1e-8 of its norm, which modified Gram-Schmidt
        # still fits, is dropped; the fit of the others is the fit without it
        rng = np.random.default_rng(6)
        a, b, c = rng.standard_normal((3, 1024))
        c -= (_dot(c, a) / _dot(a, a)) * a
        near = a + 1e-8 * np.linalg.norm(a) / np.linalg.norm(c) * c
        target = rng.standard_normal(1024)
        got, ref = self._weights([b, a, near], target)
        assert got[-1] == 0.0 and ref[-1] != 0.0
        alone, _ = self._weights([b, a], target)
        assert np.array_equal(got[:2], alone)

    def test_no_independent_difference(self):
        assert _gram_weights([[0.0]], [0.0]) is None
        assert _gram_weights([], []) is None


class TestInexactInnerSolves:
    """Inner CG tolerances that follow the outer progress, against exact
    inner solves (ETA_MAX pinned to CG_TOL)."""

    @staticmethod
    def _disc():
        g = make_grid(2, 128, 4.0)
        return (ExponentPack(dim=2, s=0.5, eps=0.8),
                DomainMask.from_shape(g, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}))

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_ends_on_an_exact_step(self, monkeypatch, tol):
        # a loose step that meets the stop test hands over to an exact one,
        # which here costs at most one outer iteration over exact inner solves
        import fracsobolev.solver as solver_mod
        pack, mask = self._disc()
        cfg = SolverConfig(eps_schedule=(pack.eps,), tol=tol)
        result = solve(pack, mask, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(solver_mod, "ETA_MAX", CG_TOL)
            exact = solve(pack, mask, cfg)
        assert result.converged and exact.converged
        assert result.cg_residuals[-1] <= CG_TOL
        assert result.iters <= exact.iters + 1
        # from its own maximizer the first CG takes no step and is resumed
        # to CG_TOL, so one outer iteration ends the solve
        again = solve(pack, mask, cfg, init=result.maximizer)
        assert again.converged and again.iters == 1

    def test_ascent_guard_resumes_loose_solves(self, monkeypatch):
        # with the first inner solve this loose, the box's plain step would
        # lower F_eps: the guard resumes that CG to CG_TOL and retakes the
        # step; on the other cases no loose step lowers it
        import fracsobolev.solver as solver_mod
        monkeypatch.setattr(solver_mod, "ETA_MAX", 0.5)
        real_cg = solver_mod._cg
        calls = []

        def counting(*args):
            calls.append(1)
            return real_cg(*args)

        monkeypatch.setattr(solver_mod, "_cg", counting)
        resumes = []
        for kind, s, eps in _ASCENT_CASES:
            _, mask = _domain_case(kind)
            pack = ExponentPack(dim=mask.grid.dim, s=s, eps=eps)
            calls.clear()
            result = solve(pack, mask, SolverConfig(eps_schedule=(eps,)))
            assert result.converged
            assert np.all(np.diff(result.trace) >= -1e-10)
            resumes.append(len(calls) - result.iters)
        assert any(resumes)

    @pytest.fixture(scope="class")
    def disc_runs(self):
        """The disc's solve and its pair count, inexact then exact."""
        import fracsobolev.solver as solver_mod
        import fracsobolev.spectral as spectral_mod
        pack, mask = self._disc()
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        real_pair = spectral_mod._transform_pair
        pairs = []

        def counting(*args):
            pairs.append(1)
            return real_pair(*args)

        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral_mod, "_transform_pair", counting)
            for eta_max in (ETA_MAX, CG_TOL):
                mp.setattr(solver_mod, "ETA_MAX", eta_max)
                pairs.clear()
                runs.append((solve(pack, mask, cfg), len(pairs)))
        return cfg, runs

    def test_runs_a_quarter_fewer_pairs(self, disc_runs):
        cfg, ((inexact, inexact_pairs), (exact, exact_pairs)) = disc_runs
        assert inexact.converged and exact.converged
        assert inexact_pairs == _transform_pairs(inexact)
        assert exact_pairs == _transform_pairs(exact)
        assert inexact_pairs <= 0.75 * exact_pairs
        assert abs(inexact.value - exact.value) <= 2 * cfg.tol * exact.value

    def test_forcing_on_the_root_runs_under_half_the_pairs(self, disc_runs):
        # late steps stop their CG at ETA_FACTOR sqrt(|dF| / F), which
        # tracks the outer error, not its square
        cfg, ((inexact, inexact_pairs), (exact, exact_pairs)) = disc_runs
        assert inexact.converged and exact.converged
        assert inexact_pairs <= 0.45 * exact_pairs
        assert abs(inexact.value - exact.value) <= 2 * cfg.tol * exact.value


@pytest.fixture(scope="module")
def drift():
    """A sweep whose eps = 0.1 solve drifts from the smooth profile toward a
    concentrated one, where the safeguard refuses Anderson in a row."""
    g = make_grid(1, 4096, 8.0)
    mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
    pack = ExponentPack(dim=1, s=0.25, eps=0.8)
    return pack, mask, eps_sweep(pack, mask, SolverConfig(eps_schedule=(0.8, 0.4, 0.2, 0.1, 0.05)))


class TestExtendedStep:
    """The doubling search that extends a plain step after two refusals."""

    def test_fires_and_shortens_the_drift(self, drift):
        _, _, entries = drift
        result = entries[3].result
        assert entries[3].eps == 0.1 and result.converged
        assert any(result.extended)
        assert result.iters <= 20

    def test_matches_a_tight_reference_from_the_same_start(self, drift):
        from fracsobolev.diagnostics import argmax_cell, energy_density
        pack, mask, entries = drift
        pack = pack.with_eps(0.1)
        ref, ref_value, _ = plain_inverse_iteration(pack, mask, tol=1e-14,
                                                    init=entries[2].result.maximizer)
        assert abs(entries[3].result.value - ref_value) <= 20 * SolverConfig().tol * ref_value
        assert entries[3].argmax == argmax_cell(energy_density(ref, pack.s))

    def test_telemetry_and_ascent(self, drift):
        _, _, entries = drift
        for e in entries:
            r = e.result
            assert all(b >= a for a, b in zip(r.trace, r.trace[1:]))
            assert len(r.extended) == r.iters
            for i, n in enumerate(r.extended):
                if n > 0:
                    assert i > 0 and not r.accelerated[i] and not r.accelerated[i - 1]

    def test_runs_no_transform(self, drift, monkeypatch):
        # the pair count of a solve where the extension fires is still the
        # start's image and 2k per outer iteration; the drift sweep has
        # already built the grid's kernels
        import fracsobolev.spectral as spectral_mod
        pack, mask, entries = drift
        real_pair = spectral_mod._transform_pair
        lengths = []

        def counting(values, weight, n, spec, out):
            lengths.append(n)
            return real_pair(values, weight, n, spec, out)

        monkeypatch.setattr(spectral_mod, "_transform_pair", counting)
        result = solve(pack.with_eps(0.1), mask, SolverConfig(eps_schedule=(0.1,)),
                       init=entries[2].result.maximizer)
        assert any(result.extended)
        loop = _transform_pairs(result)
        W = mask.window[-1].stop - mask.window[-1].start
        P = spectral_mod._smooth_length(2 * W)
        assert lengths == [P] * loop


class TestPreconditionedCG:
    """Cold-start inner solves from the default initial field's right-hand
    side; plain CG needs 51, 87 and 54 iterations on these cases."""

    @staticmethod
    def _cold_iters(grid, shape, s):
        from fracsobolev.solver import _cg, _domain_op
        mask = DomainMask.from_shape(grid, shape)
        pack = ExponentPack(dim=grid.dim, s=s, eps=0.8)
        window = mask.window
        u = default_initial_field(mask).values[window]
        rhs = np.abs(u) ** (pack.subcritical_exponent - 2.0) * u
        op, pre = _domain_op(mask, 2.0 * s, -2.0 * s)
        tol = CG_TOL
        x, Ax = np.zeros(u.shape), np.zeros(u.shape)
        iters, rel = _cg(op, pre, rhs, x, Ax, tol, 2000, np.empty((4,) + u.shape))
        res = rhs - op(x, np.empty(u.shape))
        assert np.linalg.norm(res) <= tol * np.linalg.norm(rhs)
        # the reported residual is the recursive one, which tracks the true one
        assert rel <= tol
        assert rel == pytest.approx(np.linalg.norm(res) / np.linalg.norm(rhs), rel=1e-3)
        # Ax is rhs - r, the recursive residual's image, not a fresh apply
        Ax_true = op(x, np.empty(u.shape))
        assert np.linalg.norm(Ax - Ax_true) <= 1e-12 * np.linalg.norm(Ax_true)
        return iters

    @pytest.mark.parametrize("M", [2 ** 14, 2 ** 17])
    def test_iterations_flat_under_refinement_1d(self, M):
        g = make_grid(1, M, 8.0)
        iters = self._cold_iters(g, {"kind": "interval", "bounds": [-1.0, 1.0]}, 0.25)
        assert 1 <= iters <= 10

    def test_iterations_2d_ball(self):
        g = make_grid(2, 256, 4.0)
        iters = self._cold_iters(g, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, 0.5)
        assert 1 <= iters <= 15

    def test_converged_start_returns_at_once(self, ctx):
        from fracsobolev.solver import _cg
        g, _ = ctx
        rhs = np.ones(g.shape)

        def identity(src, out):
            np.copyto(out, src)
            return out

        def unused(src, out):
            raise AssertionError("no preconditioner apply expected")
        x, Ax = rhs.copy(), rhs.copy()
        iters, rel = _cg(identity, unused, rhs, x, Ax, 1e-9, 5, np.empty((4,) + g.shape))
        assert iters == 0 and rel == 0.0 and np.array_equal(x, rhs)


_SHAPES_2D = {
    "ball": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "box": {"kind": "box", "lower": [-0.9, -0.65], "upper": [0.9, 0.65]},
    "hexagon": {"kind": "polygon",
                "vertices": [[np.cos(t), np.sin(t)] for t in np.pi * np.arange(6) / 3]},
}


def _domain_case(kind):
    """(pack, mask) of the 1-D interval or a 2-D domain of ``_SHAPES_2D``."""
    if kind == "interval":
        g = make_grid(1, 512, 8.0)
        return (ExponentPack(dim=1, s=0.25, eps=0.8),
                DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]}))
    g = make_grid(2, 64, 4.0)
    return ExponentPack(dim=2, s=0.5, eps=0.8), DomainMask.from_shape(g, _SHAPES_2D[kind])


def _transform_pairs(result):
    """Transform pairs a solve runs: one for the start's image, then 2k
    for each inner CG that takes k steps, a resumed one included."""
    return 1 + sum(2 * k for k in result.cg_iters)


def _moved_to_edge(mask):
    """``mask`` rolled so its window ends at cell M-2, one before the
    outer layer, and the roll per axis."""
    g = mask.grid
    shift = tuple(g.points_per_dim - 1 - w.stop for w in mask.window)
    moved = DomainMask(grid=g, inside=np.roll(mask.inside, shift, axis=tuple(range(g.dim))))
    assert all(w.stop == g.points_per_dim - 1 for w in moved.window)
    return moved, shift


class TestWindow:
    """The solver runs on the bounding box of the domain; these pin it to
    whole-box transforms and to the placement of the box."""

    @pytest.mark.parametrize("kind", ["interval", "ball", "box", "hexagon"])
    def test_matches_full_box_operator(self, monkeypatch, kind):
        import fracsobolev.solver as solver_mod
        pack, mask = _domain_case(kind)
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        windowed = solve(pack, mask, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(DomainMask, "window",
                       property(lambda self: (slice(None),) * self.grid.dim))
            mp.setattr(solver_mod, "_domain_op", full_box_ops)
            full = solve(pack, mask, cfg)
        assert windowed.converged and full.converged
        assert windowed.iters == full.iters
        assert windowed.cg_iters == full.cg_iters
        assert windowed.value == pytest.approx(full.value, rel=1e-12, abs=0)
        assert windowed.multiplier == pytest.approx(full.multiplier, rel=1e-12, abs=0)
        u, ref = windowed.maximizer.values, full.maximizer.values
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["interval", "ball"])
    def test_shift_invariance_at_the_outer_layer(self, kind):
        pack, mask = _domain_case(kind)
        g = mask.grid
        moved, shift = _moved_to_edge(mask)
        axes = tuple(range(g.dim))
        init = default_initial_field(mask)
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        centred = solve(pack, mask, cfg, init=init)
        shifted = solve(pack, moved, cfg,
                        init=Field(grid=g, values=np.roll(init.values, shift, axis=axes)))
        assert shifted.iters == centred.iters
        assert shifted.value == pytest.approx(centred.value, rel=1e-12, abs=0)
        assert np.array_equal(shifted.maximizer.values,
                              np.roll(centred.maximizer.values, shift, axis=axes))

    @pytest.mark.parametrize("kind,at_edge", [("interval", False), ("box", False),
                                              ("box", True)])
    def test_single_applies_match_full_box(self, rng, kind, at_edge):
        # the box window is not square, so its lattice differs per axis
        from fracsobolev.solver import _domain_op
        pack, mask = _domain_case(kind)
        if at_edge:
            mask, _ = _moved_to_edge(mask)
        g, window = mask.grid, mask.window
        inside = mask.inside[window]
        src = np.where(inside, rng.standard_normal(inside.shape), 0.0)
        box = np.zeros(g.shape)
        box[window] = src
        orders = (2.0 * pack.s, -2.0 * pack.s)
        for apply, full in zip(_domain_op(mask, *orders), full_box_ops(mask, *orders)):
            got = apply(src, np.empty(inside.shape))
            ref = full(box, np.empty(g.shape))[window]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_window_wider_than_half_the_box(self, rng):
        # W = 57 cells of M = 64: offsets past M/2 read the kernel at M - d
        from fracsobolev.solver import _domain_op
        from fracsobolev.spectral import _convolve
        g = make_grid(1, 64, 1.0)
        mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-0.9, 0.9]})
        inside = mask.inside[mask.window]
        W = inside.shape[0]
        assert W > g.points_per_dim // 2 + 1
        src = np.where(inside, rng.standard_normal(inside.shape), 0.0)
        delta = np.zeros(g.shape)
        delta[0] = 1.0
        for apply, sigma in zip(_domain_op(mask, 0.5, -0.5), (0.5, -0.5)):
            got = apply(src, np.empty(inside.shape))
            kernel = apply_multiplier(delta, g, sigma)[:W]
            ref = np.where(inside, _convolve(kernel, (src,))[0], 0.0)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["interval-8192", "ball"])
    def test_applies_allocate_nothing(self, rng, kind):
        # the spectra and the row buffer are built once per order, so 20
        # applies allocate less than one window array
        from fracsobolev.solver import _domain_op
        if kind == "ball":
            _, mask = TestInexactInnerSolves._disc()
        else:
            g = make_grid(1, 2 ** 13, 8.0)
            mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
        inside = mask.inside[mask.window]
        src = np.where(inside, rng.standard_normal(inside.shape), 0.0)
        out = np.empty(inside.shape)
        ops = _domain_op(mask, 0.5, -0.5)
        tracemalloc.start()
        try:
            for _ in range(10):
                for apply in ops:
                    assert apply(src, out) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < src.nbytes

    def test_cached_kernels_change_no_bit(self):
        # two solves on one grid, the second on its cached kernels, give
        # what a solve on a fresh grid gives
        pack, mask = _domain_case("ball")
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        first, second = solve(pack, mask, cfg), solve(pack, mask, cfg)
        _, fresh_mask = _domain_case("ball")
        fresh = solve(pack, fresh_mask, cfg)
        for r in (first, second):
            assert r.maximizer.values.tobytes() == fresh.maximizer.values.tobytes()
            assert r.trace == fresh.trace and r.cg_iters == fresh.cg_iters

    @pytest.mark.parametrize("kind,cg_tol,eta_max", [
        pytest.param("interval", 1e-9, ETA_MAX, id="interval-1e-09"),
        pytest.param("interval", 1e-3, ETA_MAX, id="interval-0.001"),
        pytest.param("ball", 1e-9, ETA_MAX, id="ball-1e-09"),
        # the box's first plain step, solved to 0.5, lowers F_eps and resumes
        pytest.param("box", 1e-9, 0.5, id="box-resumed"),
    ])
    def test_transform_pairs_per_outer_iteration(self, monkeypatch, kind, cg_tol, eta_max):
        # one pair for the start's image and 2k per inner CG that takes
        # k steps, so none when the carried image already meets the
        # tolerance, all on the padded lattice of the window, smooth(2W)
        # long on the last axis; the kernels of both orders are built the
        # first time the grid meets them, with no pair
        import fracsobolev.solver as solver_mod
        import fracsobolev.spectral as spectral_mod
        pack, mask = _domain_case(kind)
        real_pair = spectral_mod._transform_pair
        lengths = []

        def counting(values, weight, n, spec, out):
            lengths.append(n)
            return real_pair(values, weight, n, spec, out)

        monkeypatch.setattr(spectral_mod, "_transform_pair", counting)
        monkeypatch.setattr(solver_mod, "CG_TOL", cg_tol)
        monkeypatch.setattr(solver_mod, "ETA_MAX", eta_max)
        result = solve(pack, mask, SolverConfig(eps_schedule=(pack.eps,)))
        assert len(result.cg_iters) == len(result.resumed) == result.iters
        # the loose tolerance leaves some outer iterations with no CG step
        assert (0 in result.cg_iters) == (cg_tol > 1e-9)
        assert any(result.resumed) == (eta_max > ETA_MAX)
        loop = _transform_pairs(result)
        W = mask.window[-1].stop - mask.window[-1].start
        P = spectral_mod._smooth_length(2 * W)
        assert lengths == [P] * loop
        kernels = dict(mask.grid._kernels)
        assert set(kernels) == {2.0 * pack.s, -2.0 * pack.s}
        # a second solve on the grid reads the cached kernels
        lengths.clear()
        again = solve(pack, mask, SolverConfig(eps_schedule=(pack.eps,)))
        assert again.cg_iters == result.cg_iters
        assert lengths == [P] * loop
        assert all(mask.grid._kernels[k] is kern for k, kern in kernels.items())


def _held_arrays(fn):
    """The arrays that ``fn`` and the functions it closes over hold."""
    found, todo = [], [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            obj = cell.cell_contents
            if isinstance(obj, np.ndarray):
                found.append(obj)
            elif callable(obj) and getattr(obj, "__closure__", None):
                todo.append(obj)
    return found


class TestKeptSpectra:
    """The mask keeps its window operator's spectra, one per order."""

    @staticmethod
    def _count_spectra(monkeypatch):
        import fracsobolev.spectral as spectral_mod
        real = spectral_mod._kernel_spectrum
        built = []

        def counting(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(spectral_mod, "_kernel_spectrum", counting)
        return built

    @pytest.mark.parametrize("kind", ["interval", "ball"])
    def test_second_solve_and_el_residual_build_none(self, monkeypatch, kind):
        pack, mask = _domain_case(kind)
        cfg = SolverConfig(eps_schedule=(pack.eps,))
        built = self._count_spectra(monkeypatch)
        first = solve(pack, mask, cfg)
        el_residual(first.maximizer, pack, mask)
        # the operator, its preconditioner and the residual's scale
        assert len(built) == 3
        built.clear()
        again = solve(pack, mask, cfg)
        el_residual(again.maximizer, pack, mask)
        assert built == []
        assert again.maximizer.values.tobytes() == first.maximizer.values.tobytes()

    def test_kept_spectra_are_read_only(self):
        pack, mask = _domain_case("ball")
        result = solve(pack, mask, SolverConfig(eps_schedule=(pack.eps,)))
        el_residual(result.maximizer, pack, mask)
        s = pack.s
        assert set(mask._spectra) == {2.0 * s, -2.0 * s, 4.0 * s}
        for P, spec in mask._spectra.values():
            assert not spec.flags.writeable
            with pytest.raises(ValueError):
                spec[(0,) * spec.ndim] = 0.0

    def test_two_calls_share_only_read_only_arrays(self):
        from fracsobolev.solver import _domain_op
        _, mask = _domain_case("ball")
        first, second = _domain_op(mask, 0.5), _domain_op(mask, 0.5)
        mine, theirs = _held_arrays(first[0]), _held_arrays(second[0])
        shared = [(a, b) for a in mine for b in theirs if np.shares_memory(a, b)]
        # the spectrum, which both read
        assert shared
        assert all(not a.flags.writeable and not b.flags.writeable for a, b in shared)

    def test_el_residual_scale_is_the_narrow_norm(self):
        # the order-4s spectrum gives hs_dot_norm_sq(u, 2s)'s narrow sum to
        # the bit on a field whose support box is the window
        from fracsobolev.solver import _mask_kernel
        from fracsobolev.spectral import _kernel_energy
        pack, mask = _domain_case("ball")
        result = solve(pack, mask, SolverConfig(eps_schedule=(pack.eps,)))
        u = result.maximizer
        assert mask.grid.points_per_dim // 4 >= max(w.stop - w.start for w in mask.window)
        vals = u.values[mask.window]
        got = _kernel_energy(vals, _mask_kernel(mask, 4.0 * pack.s)) * mask.grid.cell_volume
        assert got == hs_dot_norm_sq(u, 2.0 * pack.s)


class TestElResidual:
    def test_zero_field_degenerate(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        with pytest.raises(DegenerateInput):
            el_residual(Field(grid=g, values=np.zeros(g.shape)), pack, mask)

    def test_one_transform_pair(self, ctx, solved, monkeypatch):
        # (-Lap)^s u on the window for the residual, the multiplier, which on
        # the unit sphere is the solver's 1 / F_eps, and the unit-ball norm;
        # the residual's scale runs forward-only
        import fracsobolev.spectral as spectral_mod
        g, mask = ctx
        pack, result = solved
        real_pair = spectral_mod._transform_pair
        pairs = []

        def counting(*args):
            pairs.append(1)
            return real_pair(*args)

        monkeypatch.setattr(spectral_mod, "_transform_pair", counting)
        mult, _ = el_residual(result.maximizer, pack, mask)
        assert len(pairs) == 1
        assert mult == pytest.approx(result.multiplier, rel=1e-12)
        assert not result.maximizer._images

    def test_mask_on_another_grid_raises_before_any_transform(self, ctx, solved, monkeypatch):
        g, mask = ctx
        pack, result = solved
        other = DomainMask.from_shape(make_grid(1, 512, 4.0),
                                      {"kind": "interval", "bounds": [-1.0, 1.0]})

        def refuse(*args, **kwargs):
            raise AssertionError("a transform ran")

        for name in ("fft", "rfft", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        with pytest.raises(InvalidGrid, match="half-width"):
            el_residual(result.maximizer, pack, other)

    def test_field_nonzero_off_the_domain_raises(self, ctx, solved):
        # the whole-box form took such a field and tested it on the domain
        g, mask = ctx
        pack, result = solved
        vals = result.maximizer.values.copy()
        vals[np.flatnonzero(~mask.inside)[-2]] = 1e-3
        with pytest.raises(InvalidMask):
            el_residual(Field(grid=g, values=vals), pack, mask)

    @pytest.mark.parametrize("dim,M,shape", [
        (1, 512, {"kind": "interval", "bounds": [-1.0, 1.0]}),
        (2, 64, {"kind": "ball", "center": [0.1, 0.0], "radius": 1.0}),
        (2, 64, {"kind": "box", "lower": [-1.0, -0.6], "upper": [1.0, 0.7]}),
        (2, 64, {"kind": "polygon", "vertices": [[-1.0, -1.0], [1.0, -0.8], [0.2, 1.1]]}),
        (3, 16, {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.5}),
    ])
    def test_matches_the_whole_box_residual(self, dim, M, shape):
        g = make_grid(dim, M, 4.0)
        mask = DomainMask.from_shape(g, shape)
        pack = ExponentPack(dim=dim, s=0.25 if dim == 1 else 0.5, eps=0.5)
        u = default_initial_field(mask, seed=dim)
        u = Field(grid=g, values=u.values / np.sqrt(hs_dot_norm_sq(u, pack.s)))
        mult, res = el_residual(u, pack, mask)
        ref_mult, ref_res = el_residual_full(u, pack, mask)
        assert mult == pytest.approx(ref_mult, rel=1e-14, abs=0)
        assert res == pytest.approx(ref_res, rel=0, abs=1e-14)

    def test_generic_field_positive_multiplier(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        vals = mask.restrict(np.cos(np.pi * g.axis / 2.0) ** 2 * (np.abs(g.axis) < 1.0))
        u = Field(grid=g, values=vals)
        u = Field(grid=g, values=vals / np.sqrt(hs_dot_norm_sq(u, pack.s)))
        mult, res = el_residual(u, pack, mask)
        assert mult > 0
        assert res > 0


@pytest.fixture(scope="module")
def sweep(ctx):
    g, mask = ctx
    pack = ExponentPack(dim=1, s=0.25, eps=0.8)
    cfg = SolverConfig(eps_schedule=(0.8, 0.4, 0.2, 0.1))
    return eps_sweep(pack, mask, cfg)


class TestEpsSweep:

    def test_values_non_decreasing_within_noise(self, sweep):
        vals = [e.result.value for e in sweep]
        for a, b in zip(vals, vals[1:]):
            assert b >= a * (1.0 - 0.01)

    def test_envelope_bound(self, sweep):
        for e in sweep:
            assert e.result.value <= e.envelope * 1.02

    def test_concentration_stats_attached(self, sweep):
        for e in sweep:
            assert 0.0 < e.mass_r1 <= e.mass_r2 <= 1.0 + 1e-12
            assert e.tail_energy >= 0.0
            assert len(e.argmax) == 1

    def test_entries_keep_no_image(self, sweep):
        # the energy measure is read once, so no maximizer keeps its image
        for e in sweep:
            assert not e.result.maximizer._images

    def test_top_octave_flags_spikes(self, sweep):
        # the M = 512 grid resolves eps = 0.8 (half-width 10 cells) and
        # returns lattice spikes at eps = 0.2 and 0.1 (1 and 0 cells); the
        # borderline eps = 0.4 (2 cells) is left out
        threshold = 1e-2
        tops = {e.eps: e.top_octave for e in sweep}
        assert tops[0.8] < threshold
        assert tops[0.2] > threshold and tops[0.1] > threshold

    def test_mass_non_decreasing(self, sweep):
        masses = [e.mass_r1 for e in sweep]
        for a, b in zip(masses, masses[1:]):
            assert b >= a - 0.01

    def test_one_near_domain_set_per_sweep(self, ctx, monkeypatch):
        # each entry's tail comes from the image its measure made and from
        # one dilation per sweep, which a fresh mask keeps, and equals
        # tail_energy's
        from fracsobolev import diagnostics, tail_energy
        from fracsobolev.solver import TAIL_MARGIN_FRACTION
        g, mask = ctx
        mask = DomainMask(grid=g, inside=mask.inside)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        # the dilation is the only convolution a sweep runs
        for name in ("_convolve", "energy_density"):
            monkeypatch.setattr(diagnostics, name, counted(getattr(diagnostics, name)))
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        entries = eps_sweep(pack, mask, SolverConfig(eps_schedule=(0.8, 0.4)))
        assert calls.count("_convolve") == 1
        assert calls.count("energy_density") == len(entries) == 2
        monkeypatch.undo()
        for e in entries:
            u = e.result.maximizer
            total = diagnostics.energy_density(u, pack.s).total
            assert e.tail_energy == tail_energy(u, pack.s, mask,
                                                TAIL_MARGIN_FRACTION * mask.diameter) / total

    def test_warm_vs_cold_start_agree(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        sched = (0.8, 0.4)
        warm = eps_sweep(pack, mask, SolverConfig(eps_schedule=sched, warm_start=True))
        cold = eps_sweep(pack, mask, SolverConfig(eps_schedule=sched, warm_start=False, seed=7))
        for w, c in zip(warm, cold):
            assert abs(w.result.value - c.result.value) <= 0.02 * w.result.value

    def test_weak_vanishing_against_fixed_test_function(self, ctx):
        # pairing against a fixed smooth bump decays along a deep sweep
        from fracsobolev import cutoff_profile
        g = make_grid(1, 2 ** 14, 8.0)
        mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8, 0.4, 0.2, 0.1, 0.05), tol=1e-7)
        entries = eps_sweep(pack, mask, cfg)
        gtest = cutoff_profile(np.abs(g.axis), 0.5)
        pairings = [abs(float(np.sum(e.result.maximizer.values * gtest) * g.cell_volume))
                    for e in entries]
        assert pairings[-1] <= 0.3 * pairings[0]


class TestTwoDimensional:
    def test_solve_on_ball_domain(self):
        g = make_grid(2, 64, 4.0)
        mask = DomainMask.from_shape(g, {"kind": "ball", "center": [0.0, 0.0],
                                         "radius": 1.0})
        pack = ExponentPack(dim=2, s=0.5, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,), max_iters=400)
        result = solve(pack, mask, cfg)
        assert result.converged
        assert hs_dot_norm_sq(result.maximizer, 0.5) == pytest.approx(1.0, abs=1e-8)
        assert np.all(result.maximizer.values[~mask.inside] == 0.0)
        assert result.value <= hoelder_envelope(pack, mask) * 1.02
        _, res = el_residual(result.maximizer, pack, mask)
        assert res < 5e-3


class TestSweepErrorHandling:
    def test_sweep_continues_past_failed_entry(self, ctx, monkeypatch):
        import fracsobolev.solver as solver_mod
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        real_solve = solver_mod.solve

        def flaky(pack, mask, config, init=None):
            if pack.eps == 0.4:
                raise DegenerateInput("synthetic failure")
            return real_solve(pack, mask, config, init=init)

        monkeypatch.setattr(solver_mod, "solve", flaky)
        entries = solver_mod.eps_sweep(pack, mask, SolverConfig(eps_schedule=(0.8, 0.4, 0.2)))
        assert entries[0].result is not None
        assert entries[1].result is None and "synthetic" in entries[1].error
        assert entries[2].result is not None

    def test_failing_probe_recorded(self, ctx):
        # a one-cell domain solves, but its diameter is 0, so the balls and
        # the margin of its statistics have radius 0 and raise; each entry
        # is recorded as a failed solve is
        g, _ = ctx
        mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-0.01, 0.01]})
        assert mask.inside.sum() == 1 and mask.diameter == 0.0
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8, 0.4))
        assert solve(pack, mask, cfg).converged
        entries = eps_sweep(pack, mask, cfg)
        assert [e.eps for e in entries] == [0.8, 0.4]
        for e in entries:
            assert e.result is None and "radius must be positive" in e.error
            assert e.argmax == ()
            assert all(math.isnan(v) for v in (e.mass_r1, e.mass_r2, e.tail_energy))
            assert e.envelope == hoelder_envelope(pack.with_eps(e.eps), mask)

    def test_inner_solve_failure_recorded(self, ctx, monkeypatch):
        import fracsobolev.solver as solver_mod
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        real_cg = solver_mod._cg
        calls = []

        def fail_first(apply_op, precond, rhs, x, Ax, tol, max_iters, work):
            calls.append(1)
            # the first inner solve of the sweep gets a single iteration
            return real_cg(apply_op, precond, rhs, x, Ax, tol,
                           1 if len(calls) == 1 else max_iters, work)

        monkeypatch.setattr(solver_mod, "_cg", fail_first)
        entries = solver_mod.eps_sweep(pack, mask, SolverConfig(eps_schedule=(0.8, 0.4)))
        assert entries[0].result is None and "inner CG stopped" in entries[0].error
        assert entries[1].result is not None and entries[1].result.converged


class TestConcurrentUse:
    def test_parallel_transforms_match_serial(self, ctx):
        from concurrent.futures import ThreadPoolExecutor
        from fracsobolev import frac_power
        g, mask = ctx
        rng = np.random.default_rng(11)
        fields = [Field(grid=g, values=rng.standard_normal(g.shape)) for _ in range(8)]
        serial = [frac_power(u, 0.5).values for u in fields]
        # fresh fields, which keep no image yet, so every transform runs here
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda u: frac_power(Field(grid=g, values=u.values), 0.5).values, fields))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_racing_threads_get_one_image(self, ctx):
        # threads that race on one fresh field may each run the transform,
        # but setdefault keeps one image and hands that to all of them
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor
        from fracsobolev import frac_power
        g, mask = ctx
        vals = np.random.default_rng(12).standard_normal(g.shape)
        expected = frac_power(Field(grid=g, values=vals), 0.5).values
        workers = 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                u = Field(grid=g, values=vals)
                start = threading.Barrier(workers)

                def run(_):
                    start.wait(timeout=30)
                    return frac_power(u, 0.5)
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    images = list(pool.map(run, range(workers), timeout=60))
                assert all(image is images[0] for image in images)
                assert frac_power(u, 0.5) is images[0]
                assert np.array_equal(images[0].values, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_parallel_solves_on_one_grid_match_serial(self):
        # each solve owns its work arrays, so solves sharing a grid cannot interfere
        import sys
        from concurrent.futures import ThreadPoolExecutor
        g = make_grid(2, 64, 4.0)
        mask = DomainMask.from_shape(g, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0})
        pack = ExponentPack(dim=2, s=0.5, eps=0.8)

        def run(seed):
            return solve(pack, mask, SolverConfig(seed=seed)).maximizer.values
        seeds = list(range(6))
        serial = [run(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                parallel = list(pool.map(run, seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestDot:
    def test_blocks_sum_exactly(self):
        rng = np.random.default_rng(21)
        for n in (1, 7, _DOT_BLOCK - 1, _DOT_BLOCK):
            a, b = rng.standard_normal((2, n))
            assert _dot(a, b) == float(np.dot(a, b))
        for n in (_DOT_BLOCK + 1, 2 * _DOT_BLOCK, 3 * _DOT_BLOCK + 5):
            a, b = rng.standard_normal((2, n))
            blocks = [float(np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK]))
                      for i in range(0, n, _DOT_BLOCK)]
            assert _dot(a, b) == math.fsum(blocks)

    def test_blas_thread_count_keeps_the_bits(self):
        # a 16,383-cell 1-D window, whose CG products, sphere scalings and
        # el_residual products exceed the length OpenBLAS threads, and a 2-D
        # M = 128 solve, in fresh interpreters, as OpenBLAS reads its thread
        # count at start-up
        code = (
            "from fracsobolev import DomainMask, ExponentPack, SolverConfig, make_grid\n"
            "from fracsobolev.solver import el_residual, solve\n"
            "for dim, M, L, s, shape in [\n"
            "        (1, 2 ** 15, 2.0, 0.25, {'kind': 'interval', 'bounds': [-1.0, 1.0]}),\n"
            "        (2, 128, 4.0, 0.5, {'kind': 'ball', 'center': [0.0, 0.0], 'radius': 1.0})]:\n"
            "    mask = DomainMask.from_shape(make_grid(dim, M, L), shape)\n"
            "    pack = ExponentPack(dim=dim, s=s, eps=0.8)\n"
            "    result = solve(pack, mask, SolverConfig())\n"
            "    mult, res = el_residual(result.maximizer, pack, mask)\n"
            "    print(result.value.hex(), result.multiplier.hex(), mult.hex(), res.hex())\n")
        src = str(Path(fracsobolev.__file__).parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
                   "OPENBLAS_NUM_THREADS": threads}
            outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True, check=True).stdout)
        assert len(outs[0].split()) == 8
        assert outs[0] == outs[1]
