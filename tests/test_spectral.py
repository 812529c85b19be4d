"""Transforms, multiplier algebra, and the dump format."""

import numpy as np
import pytest

from fracsobolev import (DomainMask, Field, Grid, InvalidGrid, InvalidOrder,
                         NegativeOrderOnNonMeanZero, apply_multiplier, field_from_bytes,
                         field_to_bytes, forward_transform, frac_power, hs_dot_norm_sq,
                         make_grid, offset_convolve)
from fracsobolev.diagnostics import CellMeasure

from conftest import random_field


def _xi_norm(grid):
    """|xi| on the full frequency lattice, shape (M,)*N, in fftfreq order."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_dim, d=grid.spacing)
    mats = np.meshgrid(*([k] * grid.dim), indexing="ij", sparse=True)
    return np.sqrt(sum(m * m for m in mats))


class TestMakeGrid:
    def test_basic_1d(self):
        g = make_grid(1, 8, 1.0)
        assert g.spacing == 0.25
        ks = np.sort(np.round(_xi_norm(g) / np.pi).astype(int))
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
        for dim in (1, 2, 3):
            # an even power of a negative spacing is a positive volume
            with pytest.raises(InvalidGrid) as err:
                make_grid(dim, 8, -1.0)
            assert err.value.param == "half_width"
        with pytest.raises(InvalidGrid):
            make_grid(0, 8, 1.0)

    @pytest.mark.parametrize("L", [1e200, 1e-200])
    def test_rejects_non_finite_cell_volume(self, L):
        # a finite positive spacing whose square over- or underflows
        with pytest.raises(InvalidGrid) as err:
            make_grid(2, 512, L)
        assert err.value.param == "half_width"

    def test_memory_cap(self, monkeypatch):
        import fracsobolev.spectral as spectral_mod
        monkeypatch.setattr(spectral_mod, "DEFAULT_MAX_POINTS", 2 ** 20)
        with pytest.raises(InvalidGrid) as err:
            make_grid(3, 1024, 1.0)
        assert err.value.param == "points_per_dim"

    @pytest.mark.parametrize("args,param", [
        ((1, 6, 1.0), "points_per_dim"), ((1, 3, 1.0), "points_per_dim"),
        ((1, 2, 1.0), "points_per_dim"), ((1, 0, 1.0), "points_per_dim"),
        ((1, 12, 1.0), "points_per_dim"), ((1, 8, 0.0), "half_width"),
        ((1, 8, -1.0), "half_width"), ((2, 8, -1.0), "half_width"),
        ((3, 8, -1.0), "half_width"), ((1, 3, -1.0), "points_per_dim"),
        ((0, 8, 1.0), "dim"), ((2, 512, 1e200), "half_width"),
        ((2, 512, 1e-200), "half_width"), ((3, 1024, 1.0), "points_per_dim")])
    def test_grid_rejects_what_make_grid_rejects(self, args, param, monkeypatch):
        import fracsobolev.spectral as spectral_mod
        monkeypatch.setattr(spectral_mod, "DEFAULT_MAX_POINTS", 2 ** 20)
        for build in (make_grid, Grid):
            with pytest.raises(InvalidGrid) as err:
                build(*args)
            assert err.value.param == param

    def test_grid_coerces_its_fields(self):
        g = Grid(dim=np.int64(2), points_per_dim=8.0, half_width=1)
        assert (type(g.dim), type(g.points_per_dim), type(g.half_width)) == (int, int, float)
        assert g == make_grid(2, 8, 1.0)

    @pytest.mark.parametrize("dim,M", [(1, 2 ** 13), (2, 128), (2, 512)])
    def test_radii_match_dense_coordinates(self, dim, M, rng):
        g = make_grid(dim, M, 4.0)
        cell = tuple(g.axis[M // (k + 3)] for k in range(dim))
        for center in [(0.0,) * dim, tuple(rng.uniform(-4.0, 4.0, dim)), cell]:
            dense = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(g.coords(), center)))
            assert np.array_equal(g.radii(center), dense)


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

    def test_image_kept_per_order(self, grid2d, rng, monkeypatch):
        import fracsobolev.spectral as spectral_mod
        real_pair = spectral_mod._transform_pair
        pairs = []

        def counting(*args):
            pairs.append(1)
            return real_pair(*args)

        monkeypatch.setattr(spectral_mod, "_transform_pair", counting)
        vals = rng.standard_normal(grid2d.shape)
        u = Field(grid=grid2d, values=vals - vals.mean())
        for sigma in (0.5, -0.5):
            image = frac_power(u, sigma)
            assert frac_power(u, sigma) is image
            assert np.array_equal(image.values, apply_multiplier(vals - vals.mean(), grid2d, sigma))
        # one pair per order, and one per check above
        assert len(pairs) == 4
        assert frac_power(u, 0.5) is not frac_power(u, 0.25)

    def test_non_finite_order_caches_nothing(self, grid1d, rng):
        u = random_field(grid1d, rng)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(InvalidOrder):
                frac_power(u, sigma)
        assert not u._images

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

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_order(self, grid1d, rng, sigma):
        # neither the weight nor the kernel is built, nor cached, per call
        for build in (grid1d.multiplier, grid1d.kernel):
            for _ in range(3):
                with pytest.raises(InvalidOrder):
                    build(sigma)
        assert not grid1d._multipliers and not grid1d._kernels
        vals = rng.standard_normal(grid1d.shape)
        with pytest.raises(InvalidOrder):
            apply_multiplier(vals, grid1d, sigma)
        with pytest.raises(InvalidOrder):
            frac_power(Field(grid=grid1d, values=vals - vals.mean()), sigma)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, -0.5])
    def test_frac_power_matches_reference(self, grid1d, rng, sigma):
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals - vals.mean())
        xi = _xi_norm(grid1d)
        w = np.zeros_like(xi)
        w[xi > 0] = xi[xi > 0] ** sigma
        ref = np.fft.ifftn(w * np.fft.fftn(u.values)).real
        err = np.max(np.abs(frac_power(u, sigma).values - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sigma", [0.5, -0.5])
    def test_frac_power_is_apply_multiplier(self, grid2d, rng, sigma):
        vals = rng.standard_normal(grid2d.shape)
        u = Field(grid=grid2d, values=vals - vals.mean())
        assert np.array_equal(frac_power(u, sigma).values,
                              apply_multiplier(u.values, grid2d, sigma))

    @pytest.mark.parametrize("dim,M", [(1, 2 ** 13), (2, 128)])
    @pytest.mark.parametrize("sigma", [0.5, -0.5, 1.5, -1.5])
    def test_in_place_pair_matches_irfftn(self, rng, dim, M, sigma):
        g = make_grid(dim, M, 4.0)
        v = rng.standard_normal(g.shape)
        axes = tuple(range(dim))
        ref = np.fft.irfftn(g.multiplier(sigma) * np.fft.rfftn(v, axes=axes), s=g.shape, axes=axes)
        assert np.array_equal(apply_multiplier(v, g, sigma), ref)

    @pytest.mark.parametrize("dim,M,rows", [
        (2, 64, (0, 5)), (2, 64, (63, 64)), (2, 64, (58, 64)), (2, 64, (20, 31)),
        (3, 16, (0, 3)), (3, 16, (15, 16)), (3, 16, (5, 9)),
    ])
    @pytest.mark.parametrize("sigma", [0.5, -0.5, 1.5])
    def test_slab_image_matches_whole_box_pair(self, monkeypatch, rng, dim, M, rows, sigma):
        # a field held on a slab of rows along axis 0 runs the last-axis
        # transform on that slab only; as int64 the image is the whole-box
        # pair's, signed zeros and all
        import fracsobolev.spectral as spectral_mod
        g = make_grid(dim, M, 2.0)
        v = np.zeros(g.shape)
        v[rows[0]:rows[1]] = rng.standard_normal((rows[1] - rows[0],) + g.shape[1:])
        # a zero row inside the slab is transformed with it
        v[rows[0] + 1:rows[0] + 2] = 0.0
        whole = spectral_mod._transform_pair(v, g.multiplier(sigma), M,
                                             np.empty(g.half_shape, dtype=complex), None)
        real_pair = spectral_mod._transform_pair
        shapes = []

        def counting(values, *args):
            shapes.append(values.shape)
            return real_pair(values, *args)

        monkeypatch.setattr(spectral_mod, "_transform_pair", counting)
        slab = apply_multiplier(v, g, sigma)
        occupied = np.flatnonzero(v.any(axis=tuple(range(1, dim))))
        assert shapes == [(occupied[-1] + 1 - occupied[0],) + g.shape[1:]]
        assert np.array_equal(slab.view(np.int64), whole.view(np.int64))

    # (19, 9) fits inside the 64^2 box, but only whole-box samples are taken
    @pytest.mark.parametrize("shape", [(65, 8), (8, 65), (8,), (4, 4, 4), (19, 9)])
    def test_rejects_values_that_do_not_fit(self, grid2d, shape):
        with pytest.raises(InvalidGrid):
            apply_multiplier(np.zeros(shape), grid2d, 0.5)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_apply_multiplier_inverts_off_mean(self, grid2d, rng, sigma):
        v = rng.standard_normal(grid2d.shape) + 3.0
        back = apply_multiplier(apply_multiplier(v, grid2d, sigma), grid2d, -sigma)
        assert np.max(np.abs(back - (v - v.mean()))) < 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_hs_dot_norm_sq_matches_full_spectrum(self, grid2d, rng, s):
        u = Field(grid=grid2d, values=rng.standard_normal(grid2d.shape))
        xi = _xi_norm(grid2d)
        ref = float(np.sum(xi ** (2.0 * s) * np.abs(forward_transform(u).coeffs) ** 2))
        assert abs(hs_dot_norm_sq(u, s) - ref) <= 1e-13 * ref


def _delta_image(grid, sigma):
    """|xi|^sigma applied to the delta at index 0, on the whole box."""
    delta = np.zeros(grid.shape)
    delta[(0,) * grid.dim] = 1.0
    return apply_multiplier(delta, grid, sigma)


class TestKernel:
    @pytest.mark.parametrize("dim,M", [(1, 64), (2, 32), (3, 16)])
    @pytest.mark.parametrize("sigma", [0.5, -0.5, 1.5])
    def test_is_the_delta_image_on_the_octant(self, dim, M, sigma):
        g = make_grid(dim, M, 2.0)
        kern = g.kernel(sigma)
        assert kern.shape == (M // 2 + 1,) * dim
        assert np.array_equal(kern, _delta_image(g, sigma)[(slice(0, M // 2 + 1),) * dim])

    def test_cached_and_read_only(self, grid2d):
        kern = grid2d.kernel(0.5)
        assert grid2d.kernel(0.5) is kern
        assert not kern.flags.writeable
        with pytest.raises(ValueError):
            kern[0, 0] = 0.0

    def test_keeps_no_multiplier(self):
        # only the octant stays: the weight it was built from is transient
        g = make_grid(2, 32, 2.0)
        g.kernel(0.7)
        assert 0.7 not in g._multipliers

    def test_wide_window_sample_reads_the_mirror(self):
        # offsets past M/2 read the kernel at M - d, within rounding of the
        # delta image at d itself
        from fracsobolev.spectral import _kernel_sample
        g = make_grid(1, 64, 1.0)
        ref = _delta_image(g, 0.5)[:60]
        got = _kernel_sample(g, 0.5, (60,))
        assert np.array_equal(got[:33], ref[:33])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _padded_lattice_spectrum(sample, shape):
    """rfftn of the whole padded lattice that ``_kernel_spectrum`` describes."""
    from fracsobolev.spectral import _smooth_length
    P = tuple(_smooth_length(n + k) for n, k in zip(shape, sample.shape))
    lattice = np.zeros(P)
    lattice[tuple(slice(0, k) for k in sample.shape)] = sample
    for ax, (p, k) in enumerate(zip(P, sample.shape)):
        lead = (slice(None),) * ax
        lattice[lead + (slice(p - k + 1, p),)] = lattice[lead + (slice(k - 1, 0, -1),)]
    return P, np.fft.rfftn(lattice)


class TestKernelSpectrum:
    @pytest.mark.parametrize("sample_shape,shape", [
        ((1,), (7,)), ((11,), (64,)), ((64,), (64,)),
        ((1, 1), (20, 20)), ((11, 11), (512, 512)), ((3, 7), (10, 4)), ((64, 64), (64, 64)),
        ((2, 2, 2), (20, 20, 20)), ((6, 2, 4), (5, 9, 3)), ((16, 16, 16), (16, 16, 16)),
        # a reach past the arrays' length, whose mirrored rows overlap the sample's
        ((11,), (3,)), ((9, 4), (2, 3)),
    ])
    def test_equals_rfftn_of_the_padded_lattice(self, rng, sample_shape, shape):
        from fracsobolev.spectral import _kernel_spectrum
        sample = rng.standard_normal(sample_shape)
        P, spec = _kernel_spectrum(sample, shape)
        P_ref, ref = _padded_lattice_spectrum(sample, shape)
        assert P == P_ref
        assert spec.shape == ref.shape
        # bit for bit, signed zeros too
        assert np.array_equal(spec.view(np.int64), ref.view(np.int64))


class TestToeplitz:
    def test_1d_matches_numpy_linear_convolution(self, rng):
        from fracsobolev.spectral import _kernel_spectrum, _toeplitz
        for r, n in ((5, 40), (59, 37)):
            sample = rng.standard_normal(r + 1)
            a = rng.standard_normal(n)
            ref = np.convolve(a, np.concatenate([sample[:0:-1], sample]))[r:r + n]
            got = _toeplitz(_kernel_spectrum(sample, a.shape), a.shape)(a, np.empty(n))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_2d_matches_direct_sum_past_half_the_box(self, rng):
        # a 13 x 11 window of M = 16 reads the kernel at offsets past M/2,
        # which _kernel_sample takes at M - d
        from fracsobolev.spectral import _kernel_sample, _kernel_spectrum, _toeplitz
        g = make_grid(2, 16, 1.0)
        shape = (13, 11)
        sample = _kernel_sample(g, 0.5, shape)
        a = rng.standard_normal(shape)
        I, J = np.indices(shape)
        ref = np.array([[np.sum(a * sample[np.abs(I - i), np.abs(J - j)])
                         for j in range(shape[1])] for i in range(shape[0])])
        got = _toeplitz(_kernel_spectrum(sample, shape), shape)(a, np.empty(shape))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_apply_returns_out_and_repeats(self, rng):
        from fracsobolev.spectral import _kernel_spectrum, _toeplitz
        sample = rng.standard_normal((4, 3))
        a = rng.standard_normal((10, 7))
        apply = _toeplitz(_kernel_spectrum(sample, a.shape), a.shape)
        out = np.empty(a.shape)
        assert apply(a, out) is out
        first = out.copy()
        assert np.array_equal(apply(a, np.empty(a.shape)), first)


def test_only_spectral_builds_a_padded_lattice():
    import inspect
    from fracsobolev import cli, extremals, norms, solver
    for mod in (solver, norms, extremals, cli):
        source = inspect.getsource(mod)
        for name in ("_transform_pair", "_kernel_spectrum", "_half_spectrum_energy",
                     "_image_of_rows"):
            assert name not in source, (mod.__name__, name)


class TestOffsetConvolve:
    def test_1d_matches_numpy_linear_convolution(self, rng):
        g = make_grid(1, 64, 2.0)
        h = g.spacing
        a, b = rng.standard_normal((2, 64))
        kernels = [
            lambda r: np.exp(-r),
            # compact, with a and b nonzero on both outermost cells, so too
            # short a pad would wrap one edge onto the other
            lambda r: (r <= 17.5 * h).astype(float),
            # an annulus that vanishes near 0
            lambda r: ((r >= 3.0 * h) & (r <= 7.5 * h)).astype(float),
        ]
        for kernel in kernels:
            k = kernel(h * np.abs(np.arange(-63, 64)))
            out = offset_convolve(g, kernel, (a, b))
            for arr, conv in zip((a, b), out):
                ref = np.convolve(arr, k)[63:127]
                assert np.max(np.abs(conv - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_2d_matches_direct_sum(self, rng):
        g = make_grid(2, 8, 1.0)
        a = rng.standard_normal(g.shape)
        X, Y = g.coords()
        for kernel in (lambda r: 1.0 / (1.0 + r), lambda r: (r <= 2.5 * g.spacing).astype(float)):
            out = offset_convolve(g, kernel, (a,))
            assert out.shape == (1, 8, 8)
            ref = np.array([[np.sum(a * kernel(np.hypot(X - x, Y - y)))
                             for x, y in zip(xr, yr)] for xr, yr in zip(X, Y)])
            assert np.max(np.abs(out[0] - ref)) < 1e-12 * np.max(np.abs(ref))


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

    @pytest.mark.parametrize("damage", ["trailing_bytes", "short_payload", "no_newline",
                                        "no_points_per_dim", "negative_half_width"])
    def test_malformed_blob_raises_invalid_grid(self, grid2d, rng, damage):
        import json
        blob = field_to_bytes(random_field(grid2d, rng))
        header, _, payload = blob.partition(b"\n")
        no_m = json.dumps({"dim": 2, "half_width": 4.0}).encode("utf-8")
        neg_l = json.dumps({**json.loads(header), "half_width": -4.0}).encode("utf-8")
        bad = {"trailing_bytes": blob + bytes(8), "short_payload": blob[:-8],
               "no_newline": header, "no_points_per_dim": no_m + b"\n" + payload,
               "negative_half_width": neg_l + b"\n" + payload}[damage]
        with pytest.raises(InvalidGrid):
            field_from_bytes(bad)

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

    def test_rejects_complex_values(self, grid1d):
        vals = np.zeros(grid1d.shape, dtype=complex)
        vals[0] = 1 + 2j
        with pytest.raises(InvalidGrid):
            Field(grid=grid1d, values=vals)
        # a zero imaginary part is still a complex array
        with pytest.raises(InvalidGrid):
            Field(grid=grid1d, values=vals.real + 0j)

    def test_values_read_only(self, grid1d, rng):
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals)
        image = frac_power(u, 0.5)
        for field in (u, image):
            with pytest.raises(ValueError):
                field.values[0] = 1.0
            with pytest.raises(ValueError):
                field.values *= 2.0
        # the caller's array is shared, not copied, and is read-only too
        assert np.shares_memory(u.values, vals)
        with pytest.raises(ValueError):
            vals[0] = 7.0

    def test_equality_is_identity(self, grid1d, rng):
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals)
        assert u == u
        assert not u != u
        twin = Field(grid=grid1d, values=vals.copy())
        assert u != twin
        assert not u == twin

    def test_caller_write_raises_and_image_stays_fresh(self, grid1d, rng):
        # the ownership rule of Field: the wrapped array cannot change, so a
        # kept image always belongs to the values
        vals = rng.standard_normal(grid1d.shape)
        u = Field(grid=grid1d, values=vals)
        image = frac_power(u, 0.5)
        with pytest.raises(ValueError):
            vals[0] += 1.0
        assert frac_power(u, 0.5) is image
        fresh = frac_power(Field(grid=grid1d, values=vals.copy()), 0.5)
        assert np.array_equal(image.values, fresh.values)

    def test_view_of_writable_base_is_copied(self, grid1d, rng):
        base = rng.standard_normal((2,) + grid1d.shape)
        read_only = base[0]
        read_only.setflags(write=False)
        for view in (base[1], read_only):
            u = Field(grid=grid1d, values=view)
            before = u.values.copy()
            base += 1.0
            assert np.array_equal(u.values, before)
            assert not np.shares_memory(u.values, base)

    def test_view_of_read_only_base_is_copied(self, grid1d, rng):
        # one rule: an array that owns its data is shared, any view is copied
        base = rng.standard_normal((2,) + grid1d.shape)
        base.setflags(write=False)
        u = Field(grid=grid1d, values=base[1])
        assert not np.shares_memory(u.values, base)

    def test_read_only_array_is_shared(self, grid1d, rng):
        u = random_field(grid1d, rng)
        v = Field(grid=grid1d, values=u.values)
        assert np.shares_memory(v.values, u.values)
        assert not v.values.flags.writeable


@pytest.mark.parametrize("build", [
    lambda g: DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]}),
    lambda g: CellMeasure(grid=g, masses=np.ones(g.shape)),
    lambda g: forward_transform(Field(grid=g, values=np.ones(g.shape))),
], ids=["DomainMask", "CellMeasure", "SpectralField"])
def test_array_holders_compare_by_identity(build):
    g = make_grid(1, 64, 4.0)
    a, b = build(g), build(g)
    assert a == a and a != b and not a == b
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2
    assert hash(a) == hash(a)
