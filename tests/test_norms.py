"""Norms, Gagliardo equivalence, quotient and subcritical functionals."""

import time

import numpy as np
import pytest

from fracsobolev import (ConstraintViolated, DegenerateInput, DomainMask,
                         ExponentPack, Field, InvalidGrid, InvalidMask, InvalidOrder,
                         UnsupportedOrder, apply_multiplier, cutoff_profile,
                         gagliardo_seminorm_sq, hoelder_envelope,
                         hs_dot_norm_sq, lp_integral,
                         make_grid, sobolev_constant, sobolev_quotient,
                         subcritical_value, top_octave_share)

from fracsobolev.norms import _narrow_support

from conftest import random_field
from oracles import gagliardo_seminorm_sq_dense, gaussian_hs_norm_sq_quadrature


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

    @pytest.mark.parametrize("dim,M,shape", [
        (1, 512, {"kind": "interval", "bounds": [-1.0, 1.3]}),
        (2, 64, {"kind": "ball", "center": [0.3, -0.2], "radius": 1.2}),
        (2, 64, {"kind": "polygon", "vertices": [[-1.0, -1.0], [1.0, -0.8], [0.2, 1.1]]}),
        (3, 16, {"kind": "box", "lower": [-1.0, -0.5, -1.5], "upper": [1.2, 1.0, 0.5]}),
    ])
    def test_window_is_kept_once(self, monkeypatch, dim, M, shape):
        import fracsobolev.norms as norms_mod
        mask = DomainMask.from_shape(make_grid(dim, M, 4.0), shape)
        assert mask.window == _narrow_support(mask.inside, M)

        def refuse(*args):
            raise AssertionError("the window was recomputed")

        monkeypatch.setattr(norms_mod, "_narrow_support", refuse)
        assert mask.window is mask.window

    def test_rejects_boundary_touching(self, grid1d):
        with pytest.raises(InvalidMask):
            DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [-9.0, 9.0]})

    def test_rejects_empty(self, grid1d):
        with pytest.raises(InvalidMask):
            DomainMask.from_shape(grid1d, {"kind": "interval", "bounds": [2.0, 2.0]})

    @pytest.mark.parametrize("spec", [
        {"kind": "box", "lower": [-1.0, -1.0, -5.0], "upper": [1.0, 1.0, 5.0]},
        {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0, 5.0]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "extra": 1},
        {"kind": "polygon", "vertices": [[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]],
         "bounds": [-1.0, 1.0]},
    ])
    def test_rejects_components_and_keys_of_no_use(self, grid2d, spec):
        # extra box components were zipped away and unknown keys ignored
        with pytest.raises(InvalidMask):
            DomainMask.from_shape(grid2d, spec)

    def test_per_axis_coordinates_keep_the_dense_bits(self):
        # masks, centroids and snapped atoms read one coordinate array per
        # axis, broadcast; each equals its form on the dense Grid.coords()
        from fracsobolev.extremals import _snap_to_mask
        from fracsobolev.norms import _points_in_polygon
        verts = [[-1.0, -1.0], [1.0, -0.8], [0.2, 1.1]]
        lower, upper = [-1.0, -0.6, -1.2], [1.0, 0.7, 0.3]
        rng = np.random.default_rng(5)
        for dim, M, kind in [(1, 512, "interval"), (1, 512, "box"), (2, 128, "box"),
                             (2, 128, "polygon"), (2, 64, "ball"), (3, 32, "box")]:
            g = make_grid(dim, M, 4.0)
            coords = g.coords()
            if kind == "interval":
                spec = {"kind": kind, "bounds": [-0.3, 1.7]}
                dense = (coords[0] > -0.3) & (coords[0] < 1.7)
            elif kind == "box":
                spec = {"kind": kind, "lower": lower[:dim], "upper": upper[:dim]}
                dense = np.all([(c > lo) & (c < hi)
                                for c, lo, hi in zip(coords, lower, upper)], axis=0)
            elif kind == "polygon":
                spec = {"kind": kind, "vertices": verts}
                dense = _points_in_polygon(*coords, np.asarray(verts))
            else:
                spec = {"kind": kind, "center": [0.1, 0.0], "radius": 1.0}
                dense = np.sqrt((coords[0] - 0.1) ** 2 + coords[1] ** 2) < 1.0
            mask = DomainMask.from_shape(g, spec)
            assert np.array_equal(mask.inside, dense)
            assert np.array_equal(mask.centroid(), [c[dense].mean() for c in coords])
            for p in rng.uniform(-4.0, 4.0, size=(10, dim)):
                d2 = np.where(dense, sum((c - q) ** 2 for c, q in zip(coords, p)), np.inf)
                j = np.unravel_index(int(np.argmin(d2)), g.shape)
                if not dense[tuple(int(np.argmin(np.abs(g.axis - q))) for q in p)]:
                    assert _snap_to_mask(p, mask) == tuple(float(g.axis[i]) for i in j)


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

    def test_mask_on_another_grid_raises(self, rng):
        # the first mask has the field's shape, on a box of another half-width
        u = random_field(make_grid(2, 64, 4.0), rng)
        for g in (make_grid(2, 64, 2.0), make_grid(2, 32, 4.0), make_grid(1, 64, 4.0)):
            mask = DomainMask.from_shape(g, {"kind": "box", "lower": [-1.0] * g.dim,
                                             "upper": [1.0] * g.dim})
            with pytest.raises(InvalidGrid, match="half-width"):
                lp_integral(u, 3.0, mask)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_order(self, p):
        g = make_grid(1, 64, 8.0)
        with pytest.raises(InvalidOrder):
            lp_integral(Field(grid=g, values=np.ones(g.shape)), p)


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

    def test_matches_frac_power_l2(self, grid1d, rng):
        from fracsobolev import frac_power
        u = random_field(grid1d, rng)
        g = frac_power(u, 0.25)
        l2 = float(np.sum(g.values ** 2) * grid1d.cell_volume)
        assert hs_dot_norm_sq(u, 0.25) == pytest.approx(l2, rel=1e-10)


def _whole_box_norm_sq(u, s):
    """The whole-box form of hs_dot_norm_sq: sum |xi|^(2s) |U|^2 h^N / M^N
    over the rfftn half spectrum U, a mode counted twice unless its
    last-axis index is 0 or M/2."""
    g = u.grid
    dens = np.abs(np.fft.rfftn(u.values))
    dens *= dens
    dens *= g.multiplier(2.0 * s)
    dens[..., 1:g.points_per_dim // 2] *= 2.0
    return float(np.sum(dens)) / g.total_points * g.cell_volume


class TestHsWindow:
    """hs_dot_norm_sq on the box of a support at most M/4 cells wide."""

    @pytest.mark.parametrize("dim,M,starts,widths", [
        (1, 2 ** 13, (3000,), (2048,)),
        (1, 256, (0,), (64,)),
        (1, 256, (192,), (64,)),
        (2, 128, (40, 70), (32, 11)),
        # touching the lower edge on one axis and the upper on the other
        (2, 128, (0, 100), (20, 28)),
        (3, 32, (5, 0, 24), (8, 3, 8)),
        # odd padded lengths: P = 75, and P = (75, 27)
        (1, 256, (10,), (37,)),
        (2, 256, (10, 10), (37, 13)),
    ])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    def test_matches_the_whole_box_sum(self, rng, dim, M, starts, widths, s):
        g = make_grid(dim, M, 4.0)
        vals = np.zeros(g.shape)
        box = tuple(slice(a, a + w) for a, w in zip(starts, widths))
        vals[box] = rng.standard_normal(widths)
        assert _narrow_support(vals, M // 4) == box
        u = Field(grid=g, values=vals)
        ref = _whole_box_norm_sq(u, s)
        assert abs(hs_dot_norm_sq(u, s) - ref) <= 1e-13 * ref

    def test_one_cell_too_wide_falls_back(self, rng):
        g = make_grid(2, 64, 4.0)
        vals = np.zeros(g.shape)
        vals[10:27, 5:9] = rng.standard_normal((17, 4))
        u = Field(grid=g, values=vals)
        assert _narrow_support(vals, 16) is None
        assert hs_dot_norm_sq(u, 0.5) == _whole_box_norm_sq(u, 0.5)

    def test_wrapped_support_falls_back(self, rng):
        # narrow across the periodic seam, wide as an index box
        g = make_grid(1, 256, 4.0)
        vals = np.zeros(g.shape)
        vals[:3] = rng.standard_normal(3)
        vals[-3:] = rng.standard_normal(3)
        u = Field(grid=g, values=vals)
        assert _narrow_support(vals, 64) is None
        assert hs_dot_norm_sq(u, 0.25) == _whole_box_norm_sq(u, 0.25)

    def test_zero_field(self, grid2d):
        assert _narrow_support(np.zeros(grid2d.shape), 16) == ()
        assert hs_dot_norm_sq(Field(grid=grid2d, values=np.zeros(grid2d.shape)), 0.5) == 0.0

    def test_dense_field_keeps_the_whole_box_bits(self, grid2d, rng):
        u = random_field(grid2d, rng)
        assert hs_dot_norm_sq(u, 0.5) == _whole_box_norm_sq(u, 0.5)

    @pytest.mark.parametrize("dim,M", [(1, 512), (2, 64), (3, 16)])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    def test_forward_sum_matches_the_pair(self, rng, dim, M, s):
        # the forward-only sum against ||(-Lap)^(s/2) u||^2 from the pair
        g = make_grid(dim, M, 4.0)
        u = random_field(g, rng)
        a = apply_multiplier(u.values, g, s)
        pair = float(np.sum(a * a)) * g.cell_volume
        assert abs(_whole_box_norm_sq(u, s) - pair) <= 1e-13 * pair

    def test_runs_no_inverse_transform(self, rng, monkeypatch):
        import fracsobolev.spectral as spectral_mod
        g = make_grid(2, 128, 4.0)
        narrow = np.zeros(g.shape)
        narrow[40:72, 70:81] = rng.standard_normal((32, 11))
        fields = [Field(grid=g, values=narrow), random_field(g, rng)]
        # the narrow branch reads the kernel that the grid keeps, which
        # one inverse transform builds on first use
        g.kernel(1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("an inverse transform ran")

        monkeypatch.setattr(spectral_mod, "_transform_pair", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        monkeypatch.setattr(np.fft, "irfftn", refuse)
        assert _narrow_support(narrow, 32) is not None
        for u in fields:
            assert hs_dot_norm_sq(u, 0.5) > 0.0
            assert 0.0 < top_octave_share(u, 0.5) < 1.0


def _band_limited_compact(grid, rng, half):
    """Trigonometric polynomial of period 2*half in every coordinate under a
    radial cutoff window that vanishes beyond ``half`` (analysis-2d's fields
    for half = L/2)."""
    window = cutoff_profile(grid.radii((0.0,) * grid.dim), half / 2.0)
    f = np.zeros(grid.shape)
    for k in range(1, 7):
        for c in grid.coords():
            f += rng.standard_normal() * np.cos(np.pi * k * c / half)
            f += rng.standard_normal() * np.sin(np.pi * k * c / half)
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

    @pytest.mark.parametrize("dim, M, L, s", [
        (1, 1024, 8.0, 0.05), (1, 1024, 8.0, 0.25), (1, 1024, 8.0, 0.95),
        (2, 32, 4.0, 0.1), (2, 32, 4.0, 0.5), (2, 32, 4.0, 0.9),
        (2, 64, 4.0, 0.1), (2, 64, 4.0, 0.5), (2, 64, 4.0, 0.9),
    ])
    def test_matches_dense_pair_sum(self, dim, M, L, s):
        g = make_grid(dim, M, L)
        rng = np.random.default_rng(11)
        interior = np.zeros(g.shape)
        interior[(slice(1, -1),) * dim] = 1.0
        for noise in (0.0, 0.1):
            smooth = _band_limited_compact(g, rng, L / 2.0).values
            u = Field(grid=g, values=smooth + noise * interior * rng.standard_normal(g.shape))
            assert gagliardo_seminorm_sq(u, s) == pytest.approx(
                gagliardo_seminorm_sq_dense(u, s), rel=1e-12)

    @pytest.mark.parametrize("dim, index", [
        (1, (0,)), (1, (63,)), (2, (0, 20)), (2, (20, 63))])
    def test_rejects_field_on_outer_layer(self, dim, index):
        g = make_grid(dim, 64, 2.0)
        vals = np.zeros(g.shape)
        vals[index] = 1.0
        with pytest.raises(InvalidMask):
            gagliardo_seminorm_sq(Field(grid=g, values=vals), 0.3)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_2d_ratio_converges_under_refinement(self, s):
        # the same two fields sampled at M = 64 ... 512; the dense pair sum
        # could not reach M = 512 in 2-D (a 512^2 x 512^2 distance matrix)
        t0 = time.perf_counter()
        ratios = []
        for M in (64, 128, 256, 512):
            g = make_grid(2, M, 4.0)
            fields = [_band_limited_compact(g, np.random.default_rng(seed), 2.0)
                      for seed in (42, 7)]
            ratios.append([hs_dot_norm_sq(u, s) / gagliardo_seminorm_sq(u, s) for u in fields])
        elapsed = time.perf_counter() - t0
        steps = np.diff(np.array(ratios), axis=0)
        assert np.all(np.abs(steps[1:]) <= 0.35 * np.abs(steps[:-1]))
        assert elapsed < 5.0


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

    def test_mask_on_another_grid_raises(self, grid1d, pack_head):
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        for g in (make_grid(1, 512, 4.0), make_grid(1, 256, 8.0)):
            mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
            with pytest.raises(InvalidGrid, match="half-width"):
                subcritical_value(u, pack_head, mask)

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
