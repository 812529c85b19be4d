"""Norms, Gagliardo equivalence, quotient and subcritical functionals."""

import numpy as np
import pytest

from fracsobolev import (ConstraintViolated, DegenerateInput, DomainMask,
                         ExponentPack, Field, InvalidMask, InvalidOrder,
                         UnsupportedOrder, cutoff_profile,
                         gagliardo_seminorm_sq, hoelder_envelope,
                         hs_dot_norm_sq, hs_full_norm_sq, lp_integral,
                         make_grid, sobolev_constant, sobolev_quotient,
                         subcritical_value)

from conftest import random_field
from oracles import gaussian_hs_norm_sq_quadrature


class TestExponentPack:
    def test_two_star(self):
        assert ExponentPack(dim=1, s=0.25).two_star == pytest.approx(4.0)
        assert ExponentPack(dim=2, s=0.5).two_star == pytest.approx(4.0)

    def test_rejects_s_out_of_range(self):
        with pytest.raises(InvalidOrder):
            ExponentPack(dim=1, s=0.5)
        with pytest.raises(InvalidOrder):
            ExponentPack(dim=2, s=-0.1)

    def test_rejects_supercritical_eps(self):
        with pytest.raises(InvalidOrder):
            ExponentPack(dim=1, s=0.25, eps=2.0)


class TestDomainMask:
    def test_interval_measure(self, grid1d):
        mask = DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [-1.0, 1.0]})
        assert mask.measure == pytest.approx(2.0, rel=2 * grid1d.spacing)
        assert mask.diameter == pytest.approx(2.0, rel=2 * grid1d.spacing)

    def test_ball_2d(self, grid2d):
        mask = DomainMask.from_shape(grid2d, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0})
        assert mask.measure == pytest.approx(np.pi, rel=0.05)

    def test_polygon_triangle(self, grid2d):
        verts = [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]
        mask = DomainMask.from_shape(grid2d, {"kind": "polygon", "vertices": verts})
        assert mask.measure == pytest.approx(2.0, rel=0.1)

    def test_rejects_boundary_touching(self, grid1d):
        with pytest.raises(InvalidMask):
            DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [-9.0, 9.0]})

    def test_rejects_empty(self, grid1d):
        with pytest.raises(InvalidMask):
            DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [2.0, 2.0]})

    def test_json_round_trip(self, grid1d):
        import json
        mask = DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [-1.0, 1.0]})
        spec = json.loads(mask.to_json())["shape"]
        assert spec["kind"] == "interval"


class TestLpIntegral:
    def test_constant_on_mask(self, grid1d, interval_mask):
        u = Field(grid=grid1d, values=np.ones(grid1d.shape))
        assert lp_integral(u, 4.0, interval_mask) == pytest.approx(interval_mask.measure)

    def test_zero(self, grid1d, interval_mask):
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        assert lp_integral(u, 2.5, interval_mask) == 0.0

    def test_half_indicator(self, grid1d, interval_mask):
        vals = np.zeros(grid1d.shape)
        idx = np.nonzero(interval_mask.inside)[0]
        vals[idx[: len(idx) // 2]] = 1.0
        u = Field(grid=grid1d, values=vals)
        for p in (1.0, 3.7):
            assert lp_integral(u, p, interval_mask) == pytest.approx(interval_mask.measure / 2, rel=0.02)


class TestHsNorms:
    def test_single_mode(self, grid1d):
        L = grid1d.half_width
        u = Field(grid=grid1d, values=np.cos(np.pi * grid1d.axis / L))
        want = (np.pi / L) ** 0.5 * L  # |xi|^{2s} * ||cos||_{L2}^2 at s=1/4
        assert hs_dot_norm_sq(u, 0.25) == pytest.approx(want, rel=1e-12)

    def test_constant_killed(self, grid1d):
        u = Field(grid=grid1d, values=3.0 * np.ones(grid1d.shape))
        assert hs_dot_norm_sq(u, 0.3) == 0.0

    @pytest.mark.parametrize("dim,s,M,L", [(1, 0.25, 2048, 128.0), (2, 0.5, 256, 16.0)])
    def test_gaussian_matches_radial_quadrature(self, dim, s, M, L):
        g = make_grid(dim, M, L)
        r2 = g.radii((0.0,) * dim) ** 2
        u = Field(grid=g, values=np.exp(-r2 / 2.0))
        oracle = gaussian_hs_norm_sq_quadrature(dim, s)
        assert hs_dot_norm_sq(u, s) == pytest.approx(oracle, rel=0.01)

    def test_full_norm_constant(self, grid1d):
        c = 1.7
        u = Field(grid=grid1d, values=c * np.ones(grid1d.shape))
        assert hs_full_norm_sq(u, 0.4) == pytest.approx(c * c * 2 * grid1d.half_width, rel=1e-12)

    def test_full_norm_single_harmonic_at_unit_freq(self):
        g = make_grid(1, 256, np.pi)  # xi_1 = 1 exactly
        u = Field(grid=g, values=np.cos(g.axis))
        l2 = float(np.sum(u.values ** 2) * g.cell_volume)
        assert hs_full_norm_sq(u, 0.3) == pytest.approx(2 ** 0.3 * l2, rel=1e-12)

    def test_modewise_dominance(self, grid1d, rng):
        for _ in range(5):
            u = random_field(grid1d, rng)
            full = hs_full_norm_sq(u, 0.25)
            dot = hs_dot_norm_sq(u, 0.25)
            l2 = float(np.sum(u.values ** 2) * grid1d.cell_volume)
            assert full >= dot - 1e-12 * full
            assert full >= l2 - 1e-12 * full

    def test_matches_frac_power_l2(self, grid1d, rng):
        from fracsobolev import frac_power
        u = random_field(grid1d, rng)
        g = frac_power(u, 0.25)
        l2 = float(np.sum(g.values ** 2) * grid1d.cell_volume)
        assert hs_dot_norm_sq(u, 0.25) == pytest.approx(l2, rel=1e-10)


def _band_limited_compact(grid, rng, half):
    window = cutoff_profile(np.abs(grid.axis), half / 2.0)
    f = np.zeros(grid.shape)
    for k in range(1, 7):
        f += rng.standard_normal() * np.cos(np.pi * k * grid.axis / half)
        f += rng.standard_normal() * np.sin(np.pi * k * grid.axis / half)
    return Field(grid=grid, values=window * f)


class TestGagliardo:
    def test_zero_field(self):
        g = make_grid(1, 64, 2.0)
        u = Field(grid=g, values=np.zeros(g.shape))
        assert gagliardo_seminorm_sq(u, 0.3) == 0.0

    def test_rejects_s_at_least_one(self, rng):
        g = make_grid(1, 64, 2.0)
        u = random_field(g, rng)
        with pytest.raises(UnsupportedOrder):
            gagliardo_seminorm_sq(u, 1.2)

    def test_ratio_constant_across_fields(self):
        g = make_grid(1, 256, 4.0)
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(5):
            u = _band_limited_compact(g, rng, 2.0)
            ratios.append(hs_dot_norm_sq(u, 0.3) / gagliardo_seminorm_sq(u, 0.3))
        ratios = np.array(ratios)
        assert ratios.std() / ratios.mean() < 0.01


class TestQuotient:
    def test_scale_invariance(self, grid1d, interval_mask, rng):
        pack = ExponentPack(dim=1, s=0.25)
        vals = interval_mask.restrict(random_field(grid1d, rng).values)
        u = Field(grid=grid1d, values=vals)
        q1 = sobolev_quotient(u, pack, interval_mask)
        q2 = sobolev_quotient(Field(grid=grid1d, values=2.0 * vals), pack, interval_mask)
        assert q2 == pytest.approx(q1, rel=1e-10)

    def test_translation_invariance(self, grid1d, rng):
        pack = ExponentPack(dim=1, s=0.25)
        full = DomainMask.from_shape(grid1d, {
            "kind": "interval",
            "bounds": [-grid1d.half_width + 3 * grid1d.spacing,
                       grid1d.half_width - 3 * grid1d.spacing]})
        vals = np.exp(-(grid1d.axis + 2.0) ** 2)
        u = Field(grid=grid1d, values=vals)
        v = Field(grid=grid1d, values=np.roll(vals, 64))
        q1 = sobolev_quotient(u, pack, full)
        q2 = sobolev_quotient(v, pack, full)
        assert q2 == pytest.approx(q1, rel=1e-6)

    def test_degenerate_raises(self, grid1d, interval_mask):
        pack = ExponentPack(dim=1, s=0.25)
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        with pytest.raises(DegenerateInput):
            sobolev_quotient(u, pack, interval_mask)

    def test_domain_fields_respect_sharp_bound(self, grid1d, interval_mask, rng):
        # discrete quotient of domain-supported fields stays within 5% of S*
        pack = ExponentPack(dim=1, s=0.25)
        bound = 1.05 * sobolev_constant(1, 0.25)
        for _ in range(10):
            vals = interval_mask.restrict(rng.standard_normal(grid1d.shape))
            q = sobolev_quotient(Field(grid=grid1d, values=vals), pack, interval_mask)
            assert q <= bound


class TestSubcriticalValue:
    def test_eps_zero_is_critical_integrand(self, grid1d, interval_mask):
        pack0 = ExponentPack(dim=1, s=0.25, eps=0.0)
        vals = interval_mask.restrict(np.exp(-grid1d.axis ** 2))
        u = Field(grid=grid1d, values=vals)
        u = Field(grid=grid1d, values=vals / np.sqrt(hs_dot_norm_sq(u, 0.25)))
        assert subcritical_value(u, pack0, interval_mask) == pytest.approx(
            lp_integral(u, 4.0, interval_mask))

    def test_zero_field(self, grid1d, interval_mask, pack_head):
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        assert subcritical_value(u, pack_head, interval_mask) == 0.0

    def test_constraint_enforced(self, grid1d, interval_mask, pack_head):
        vals = interval_mask.restrict(np.exp(-grid1d.axis ** 2))
        u = Field(grid=grid1d, values=vals)
        scaled = Field(grid=grid1d, values=2.0 * vals / np.sqrt(hs_dot_norm_sq(u, 0.25)))
        with pytest.raises(ConstraintViolated):
            subcritical_value(scaled, pack_head, interval_mask)


class TestHoelderEnvelope:
    def test_eps_zero_gives_sharp_constant(self, grid1d, interval_mask):
        pack = ExponentPack(dim=1, s=0.25, eps=0.0)
        assert hoelder_envelope(pack, interval_mask) == pytest.approx(sobolev_constant(1, 0.25))

    def test_unit_measure_power(self, grid1d):
        mask = DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [-0.5, 0.5]})
        pack = ExponentPack(dim=1, s=0.25, eps=0.8)
        Sstar = sobolev_constant(1, 0.25)
        want = Sstar ** ((4.0 - 0.8) / 4.0) * mask.measure ** (0.8 / 4.0)
        assert hoelder_envelope(pack, mask) == pytest.approx(want, rel=1e-12)


def test_full_weight_dominates_modewise(grid1d):
    # (1+|xi|^2)^s >= max(1, |xi|^(2s)) at every lattice frequency
    s = 0.25
    xi = grid1d.xi_norm
    full = (1.0 + xi ** 2) ** s
    dot = np.zeros_like(xi)
    dot[xi > 0] = xi[xi > 0] ** (2 * s)
    assert np.all(full >= 1.0)
    assert np.all(full >= dot)
