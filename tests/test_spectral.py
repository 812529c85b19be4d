"""Transforms, multiplier algebra, and the dump format."""

import numpy as np
import pytest

from fracsobolev import (Field, InvalidGrid, NegativeOrderOnNonMeanZero,
                         NonRealResult, SpectralField, apply_multiplier,
                         field_from_bytes, field_to_bytes, forward_transform,
                         frac_power, hs_dot_norm_sq, inverse_transform,
                         make_grid)

from conftest import random_field


class TestMakeGrid:
    def test_basic_1d(self):
        g = make_grid(1, 8, 1.0)
        assert g.spacing == 0.25
        ks = np.sort(np.round(g.xi_norm / np.pi).astype(int))
        assert list(ks) == [0, 1, 1, 2, 2, 3, 3, 4]

    def test_cell_volume_2d(self):
        g = make_grid(2, 4, 2.0)
        assert g.total_points == 16
        assert g.cell_volume == 1.0

    @pytest.mark.parametrize("bad", [6, 3, 2, 0, 12])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(InvalidGrid):
            make_grid(1, bad, 1.0)

    def test_rejects_bad_half_width_and_dim(self):
        with pytest.raises(InvalidGrid):
            make_grid(1, 8, 0.0)
        with pytest.raises(InvalidGrid):
            make_grid(0, 8, 1.0)

    def test_memory_cap(self):
        with pytest.raises(InvalidGrid):
            make_grid(3, 1024, 1.0, max_points=2 ** 20)


class TestTransforms:
    def test_constant_field_is_dc_only(self, grid1d):
        U = forward_transform(Field(grid=grid1d, values=np.ones(grid1d.shape)))
        c = U.coeffs.copy()
        c[0] = 0.0
        assert np.max(np.abs(c)) < 1e-12 * abs(U.coeffs[0])

    def test_pure_harmonic_two_modes(self, grid1d):
        u = Field(grid=grid1d, values=np.cos(np.pi * grid1d.axis / grid1d.half_width))
        c = forward_transform(u).coeffs
        mags = np.abs(c)
        order = np.argsort(mags)[::-1]
        assert set(order[:2]) == {1, grid1d.points_per_dim - 1}
        assert mags[order[2]] < 1e-12 * mags[order[0]]

    @pytest.mark.parametrize("dim,M", [(1, 64), (1, 512), (2, 32), (3, 16)])
    def test_plancherel_100_random_fields(self, dim, M):
        g = make_grid(dim, M, 3.0)
        rng = np.random.default_rng(99)
        for _ in range(100):
            u = random_field(g, rng)
            lhs = float(np.sum(np.abs(forward_transform(u).coeffs) ** 2))
            rhs = float(np.sum(u.values ** 2)) * g.cell_volume
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_round_trip(self, grid1d, rng):
        u = random_field(grid1d, rng)
        back = inverse_transform(forward_transform(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-12 * np.max(np.abs(u.values))

    def test_zero_spectrum_gives_zero_field(self, grid1d):
        U = SpectralField(grid=grid1d, coeffs=np.zeros(grid1d.shape, dtype=complex))
        assert np.all(inverse_transform(U).values == 0.0)

    def test_delta_round_trip(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[37] = 1.0
        back = inverse_transform(forward_transform(Field(grid=grid1d, values=vals)))
        assert np.max(np.abs(back.values - vals)) < 1e-12

    def test_broken_symmetry_raises(self, grid1d):
        coeffs = np.zeros(grid1d.shape, dtype=complex)
        coeffs[3] = 1.0  # no conjugate partner at -3
        with pytest.raises(NonRealResult):
            inverse_transform(SpectralField(grid=grid1d, coeffs=coeffs))


class TestFracPower:
    def test_plane_wave_eigenfunction(self, grid1d):
        L = grid1d.half_width
        k = 3.0 * np.pi / L
        u = Field(grid=grid1d, values=np.cos(k * grid1d.axis))
        for sigma in (0.5, 1.0, 2.0):
            out = frac_power(u, sigma)
            assert np.max(np.abs(out.values - k ** sigma * u.values)) < 1e-10 * k ** sigma

    def test_sigma_zero_identity(self, grid1d, rng):
        u = random_field(grid1d, rng)
        assert frac_power(u, 0.0) is u

    def test_semigroup_on_mean_zero(self, grid1d, rng):
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals - vals.mean())
        twice = frac_power(frac_power(u, 0.25), 0.25)
        once = frac_power(u, 0.5)
        scale = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) < 1e-10 * scale

    def test_linearity(self, grid1d, rng):
        u, v = random_field(grid1d, rng), random_field(grid1d, rng)
        a, b = 2.5, -1.25
        combo = Field(grid=grid1d, values=a * u.values + b * v.values)
        lhs = frac_power(combo, 0.7).values
        rhs = a * frac_power(u, 0.7).values + b * frac_power(v, 0.7).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_translation_equivariance(self, grid1d, rng):
        u = random_field(grid1d, rng)
        shifted = Field(grid=grid1d, values=np.roll(u.values, 17))
        lhs = frac_power(shifted, 0.6).values
        rhs = np.roll(frac_power(u, 0.6).values, 17)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_negative_order_requires_mean_zero(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape) + 5.0)
        with pytest.raises(NegativeOrderOnNonMeanZero):
            frac_power(u, -0.5)

    def test_negative_order_inverts(self, grid1d, rng):
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals - vals.mean())
        back = frac_power(frac_power(u, 0.5), -0.5)
        assert np.max(np.abs(back.values - u.values)) < 1e-9 * np.max(np.abs(u.values))


class TestMultiplier:
    @pytest.mark.parametrize("sigma,zero_mode", [(0.5, 0.0), (0.0, 1.0), (-0.5, 0.0)])
    def test_zero_mode(self, grid2d, sigma, zero_mode):
        M, h = grid2d.points_per_dim, grid2d.spacing
        kx = 2.0 * np.pi * np.fft.fftfreq(M, d=h)
        ky = 2.0 * np.pi * np.fft.rfftfreq(M, d=h)
        X, Y = np.meshgrid(kx, ky, indexing="ij")
        xi = np.sqrt(X * X + Y * Y)
        mult = grid2d.multiplier(sigma)
        assert mult.shape == (M, M // 2 + 1)
        assert mult[0, 0] == zero_mode
        nz = xi > 0
        assert np.array_equal(mult[nz], xi[nz] ** sigma)

    def test_cached_and_read_only(self, grid1d):
        mult = grid1d.multiplier(0.5)
        assert grid1d.multiplier(0.5) is mult
        assert not mult.flags.writeable
        with pytest.raises(ValueError):
            mult[1] = 0.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0, -0.5])
    def test_frac_power_matches_reference(self, grid1d, rng, sigma):
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals - vals.mean())
        xi = grid1d.xi_norm
        w = np.zeros_like(xi)
        w[xi > 0] = xi[xi > 0] ** sigma
        ref = inverse_transform(SpectralField(grid1d, w * forward_transform(u).coeffs)).values
        err = np.max(np.abs(frac_power(u, sigma).values - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sigma", [0.5, -0.5])
    def test_frac_power_is_apply_multiplier(self, grid2d, rng, sigma):
        vals = rng.standard_normal(grid2d.shape)
        u = Field(grid=grid2d, values=vals - vals.mean())
        assert np.array_equal(frac_power(u, sigma).values,
                              apply_multiplier(u.values, grid2d, sigma))

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_apply_multiplier_inverts_off_mean(self, grid2d, rng, sigma):
        v = rng.standard_normal(grid2d.shape) + 3.0
        back = apply_multiplier(apply_multiplier(v, grid2d, sigma), grid2d, -sigma)
        assert np.max(np.abs(back - (v - v.mean()))) < 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_hs_dot_norm_sq_matches_full_spectrum(self, grid2d, rng, s):
        u = Field(grid=grid2d, values=rng.standard_normal(grid2d.shape))
        xi = grid2d.xi_norm
        ref = float(np.sum(xi ** (2.0 * s) * np.abs(forward_transform(u).coeffs) ** 2))
        assert abs(hs_dot_norm_sq(u, s) - ref) <= 1e-13 * ref


class TestDumpFormat:
    def test_round_trip(self, grid2d, rng):
        u = random_field(grid2d, rng)
        blob = field_to_bytes(u)
        back = field_from_bytes(blob)
        assert back.grid == u.grid
        assert np.array_equal(back.values, u.values)

    def test_header_is_json_line(self, grid1d, rng):
        import json
        blob = field_to_bytes(random_field(grid1d, rng))
        header = json.loads(blob[:blob.index(b"\n")])
        assert header["dim"] == 1
        assert header["points_per_dim"] == 512
        assert header["half_width"] == 8.0

    def test_payload_is_little_endian_lexicographic(self, grid2d, rng):
        u = random_field(grid2d, rng)
        blob = field_to_bytes(u)
        payload = blob[blob.index(b"\n") + 1:]
        vals = np.frombuffer(payload, dtype="<f8")
        assert np.array_equal(vals.reshape(grid2d.shape), u.values)


class TestFieldValidation:
    def test_rejects_nan(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[0] = np.nan
        with pytest.raises(InvalidGrid):
            Field(grid=grid1d, values=vals)

    def test_rejects_wrong_length(self, grid1d):
        with pytest.raises(InvalidGrid):
            Field(grid=grid1d, values=np.zeros(100))

    def test_rejects_flat_array_on_2d_grid(self):
        g = make_grid(2, 8, 1.0)
        with pytest.raises(InvalidGrid):
            Field(grid=g, values=np.zeros(g.total_points))
