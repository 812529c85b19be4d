"""Fixed-point solver, stationarity residual, and eps sweeps."""

import numpy as np
import pytest

from fracsobolev import (DegenerateInput, DomainMask, ExponentPack, Field,
                         InnerSolveFailed, InvalidOrder, SolverConfig,
                         el_residual, eps_sweep, hoelder_envelope,
                         hs_dot_norm_sq, make_grid, solve)

from oracles import gradient_ascent_oracle


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
    def test_rejects_bad_damping(self):
        with pytest.raises(InvalidOrder):
            SolverConfig(damping=0.0)
        with pytest.raises(InvalidOrder):
            SolverConfig(damping=1.5)

    def test_rejects_non_decreasing_schedule(self):
        with pytest.raises(InvalidOrder):
            SolverConfig(eps_schedule=(0.4, 0.8))

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidOrder):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize("field,value", [
        ("max_iters", 0), ("max_iters", -3), ("cg_max_iters", 0), ("cg_tol", 0.0),
    ])
    def test_rejects_bad_iteration_limits(self, field, value):
        with pytest.raises(InvalidOrder) as err:
            SolverConfig(**{field: value})
        assert err.value.param == field


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

    def test_ascent_after_burn_in(self, ctx, solved):
        pack, result = solved
        trace = np.asarray(result.trace[5:])
        assert np.all(np.diff(trace) >= -1e-10)

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

    def test_not_converged_flagged(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,), max_iters=3, tol=1e-14)
        result = solve(pack, mask, cfg)
        assert not result.converged
        assert result.iters == 3

    def test_inner_solve_failure_raises(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        cfg = SolverConfig(eps_schedule=(0.8,), cg_max_iters=1, cg_tol=1e-14)
        with pytest.raises(InnerSolveFailed) as err:
            solve(pack, mask, cfg)
        assert "after 1 iterations" in str(err.value)
        assert "relative residual" in str(err.value)


class TestPreconditionedCG:
    """Cold-start inner solves from the default initial field's right-hand
    side; plain CG needs 51, 87 and 54 iterations on these cases."""

    @staticmethod
    def _cold_iters(grid, shape, s):
        from fracsobolev.solver import _cg, _precond, _restricted_op, default_initial_field
        mask = DomainMask.from_shape(grid, shape)
        pack = ExponentPack(dim=grid.dim, s=s, eps=0.8)
        u = default_initial_field(mask).values
        rhs = mask.restrict(np.abs(u) ** (pack.subcritical_exponent - 2.0) * u)
        op, pre = _restricted_op(grid, mask.inside, s), _precond(grid, mask.inside, s)
        tol = SolverConfig().cg_tol
        x, iters = _cg(op, pre, rhs, np.zeros(grid.shape), tol, 2000)
        res = rhs - op(x)
        assert np.linalg.norm(res) <= tol * np.linalg.norm(rhs)
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

        def unused(_):
            raise AssertionError("no operator apply expected")
        x, iters = _cg(lambda w: w, unused, rhs, rhs, 1e-9, 5)
        assert iters == 0 and np.array_equal(x, rhs)


class TestElResidual:
    def test_zero_field_degenerate(self, ctx):
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        with pytest.raises(DegenerateInput):
            el_residual(Field(grid=g, values=np.zeros(g.shape)), pack, mask)

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

    def test_mass_non_decreasing(self, sweep):
        masses = [e.mass_r1 for e in sweep]
        for a, b in zip(masses, masses[1:]):
            assert b >= a - 0.01

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
        cfg = SolverConfig(eps_schedule=(0.8, 0.4, 0.2, 0.1, 0.05), tol=1e-7, damping=1.0)
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

    def test_inner_solve_failure_recorded(self, ctx, monkeypatch):
        import fracsobolev.solver as solver_mod
        g, mask = ctx
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        real_cg = solver_mod._cg
        calls = []

        def fail_first(apply_op, precond, rhs, x0, tol, max_iters):
            calls.append(1)
            # the first inner solve of the sweep gets a single iteration
            return real_cg(apply_op, precond, rhs, x0, tol, 1 if len(calls) == 1 else max_iters)

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
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda u: frac_power(u, 0.5).values, fields))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)
