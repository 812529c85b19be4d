"""Energy measures, atom detection, tails, cutoff/commutator decay, limit bound."""

import tracemalloc

import numpy as np
import pytest

from fracsobolev import (AtomEntry, AtomList, AtomSpec, BubbleSpec,
                         BudgetExceeded, CutoffSpec, DegenerateInput, DomainMask,
                         ExponentPack, Field, InvalidGrid, InvalidOrder, atom_detect,
                         commutator_residual, cutoff_convergence_probe,
                         cutoff_field, cutoff_profile, energy_density,
                         frac_power, gamma_limit_value, glued_bubbles, hs_dot_norm_sq,
                         localized_bubble, lp_density, make_grid,
                         mass_in_ball, sobolev_constant, tail_energy,
                         top_octave_share)
from fracsobolev.diagnostics import CellMeasure, _ball_sample, _near_domain, argmax_cell
from fracsobolev.spectral import _convolve

from conftest import random_field
from oracles import (atom_detect_full, brute_force_best_ball, commutator_residual_full,
                     cutoff_field_full, glued_bubbles_full, localized_bubble_full,
                     mass_in_ball_full, near_domain_edt, near_domain_full)


@pytest.fixture(scope="module")
def loc_bubble_family():
    """Localized bubbles v_eps at the module's headline parameters."""
    g = make_grid(1, 2 ** 14, 8.0)
    pack = ExponentPack(dim=1, s=0.25)
    spec = BubbleSpec(amplitude=1.0, scale=0.25, center=(0.0,), pack=pack)
    cut = CutoffSpec(center=(0.0,), inner_radius=0.5)
    fields = {}
    for eps in (0.5, 0.25, 0.125, 1 / 16, 1 / 32):
        fields[eps], _ = localized_bubble(spec, cut, eps, g)
    return g, pack, cut, fields


class TestEnergyDensity:
    def test_zero_field(self, grid1d):
        m = energy_density(Field(grid=grid1d, values=np.zeros(grid1d.shape)), 0.25)
        assert m.total == 0.0
        assert np.all(m.masses == 0.0)

    def test_total_matches_norm(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        m = energy_density(u, 0.25)
        assert m.total == pytest.approx(hs_dot_norm_sq(u, 0.25), rel=1e-10)

    @pytest.mark.parametrize("s", [0.0, -0.25])
    def test_rejects_nonpositive_order(self, grid1d, rng, s):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        with pytest.raises(InvalidOrder):
            energy_density(u, s)

    def test_rejects_infinite_order(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        with pytest.raises(InvalidOrder):
            energy_density(u, float("inf"))

    def test_localized_bubble_mass_concentrates(self, loc_bubble_family):
        g, pack, cut, fields = loc_bubble_family
        m = energy_density(fields[1 / 32], pack.s)
        inner = mass_in_ball(m, cut.center, 2 * cut.inner_radius)
        assert inner >= 0.8 * m.total


class TestLpDensity:
    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_rejects_nonpositive_exponent(self, grid1d, interval_mask, p):
        # a field with zeros: p = -1 would divide by zero, p = 0 count every cell
        vals = interval_mask.restrict(np.ones(grid1d.shape))
        u = Field(grid=grid1d, values=vals)
        for mask in (None, interval_mask):
            with pytest.raises(InvalidOrder):
                lp_density(u, p, mask)

    def test_mask_keeps_inside_cells_only(self, grid1d, interval_mask, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        whole = lp_density(u, 3.0).masses
        assert np.array_equal(lp_density(u, 3.0, interval_mask).masses,
                              np.where(interval_mask.inside, whole, 0.0))

    def test_mask_on_another_grid_raises(self, grid2d, rng):
        u = random_field(grid2d, rng)
        for g in (make_grid(2, 64, 2.0), make_grid(2, 32, 4.0)):
            mask = DomainMask.from_shape(g, _BALL)
            with pytest.raises(InvalidGrid, match="half-width"):
                lp_density(u, 3.0, mask)


class TestMassInBall:
    def test_whole_box(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        m = energy_density(u, 0.3)
        assert mass_in_ball(m, (0.0,), 100.0) == pytest.approx(m.total)

    def test_single_cell(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[100] = 2.0
        m = lp_density(Field(grid=grid1d, values=vals), 2.0)
        r_small = 0.4 * grid1d.spacing
        assert mass_in_ball(m, (float(grid1d.axis[100]),), r_small) == pytest.approx(
            4.0 * grid1d.cell_volume)

    @pytest.mark.parametrize("center", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_rejects_non_finite_center(self, grid2d, rng, center):
        m = energy_density(Field(grid=grid2d, values=rng.standard_normal(grid2d.shape)), 0.5)
        with pytest.raises(InvalidGrid):
            mass_in_ball(m, center, 0.5)

    def test_bubble_family_mass_increases(self, loc_bubble_family):
        g, pack, cut, fields = loc_bubble_family
        vals = []
        for eps in (0.5, 0.25, 0.125, 1 / 16, 1 / 32):
            m = energy_density(fields[eps], pack.s)
            vals.append(mass_in_ball(m, cut.center, 0.25) / m.total)
        assert all(b >= a - 1e-3 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]


class TestAtomDetect:
    def test_single_bubble_matches_brute_force(self):
        cases = []
        # (grid, bubble centers, cutoff radius, eps, detection radius, atoms);
        # the bubble at 7.5 lies within the radius of the box edge
        for g, centers, inner, eps, radius, n_atoms in [
            (make_grid(1, 512, 8.0), [(-0.4,)], 0.6, 0.5, 0.8, 1),
            (make_grid(1, 512, 8.0), [(7.5,)], 0.2, 0.5, 0.8, 1),
            (make_grid(2, 64, 2.0), [(-0.8, 0.3), (0.7, -0.6)], 0.3, 1.0, 0.5, 2),
        ]:
            pack = ExponentPack(dim=g.dim, s=0.25)
            vals = np.zeros(g.shape)
            for k, c in enumerate(centers):
                spec = BubbleSpec(amplitude=1.0 + k, scale=0.3, center=c, pack=pack)
                cut = CutoffSpec(center=c, inner_radius=inner)
                vals += localized_bubble(spec, cut, eps, g)[0].values
            cases.append((Field(grid=g, values=vals), pack, radius, n_atoms))
        for v, pack, radius, n_atoms in cases:
            mu = energy_density(v, pack.s)
            nu = lp_density(v, pack.two_star)
            atoms = atom_detect(mu, nu, radius=radius, threshold=0.3 / n_atoms)
            assert len(atoms) == n_atoms
            center, mass = brute_force_best_ball(mu, radius)
            assert atoms.entries[0].mu == pytest.approx(mass, rel=1e-12)
            assert np.linalg.norm(np.subtract(atoms.entries[0].location, center)) <= radius

    def test_two_atom_glued_within_ten_percent(self):
        g = make_grid(1, 2 ** 17, 8.0)
        pack = ExponentPack(dim=1, s=0.25, eps=1 / 128)
        mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
        atoms_in = AtomSpec(points=((-0.5,), (0.5,)), masses=(0.3, 0.4))
        u = glued_bubbles(atoms_in, 1 / 128, g, mask, pack, radii=[0.24, 0.24])
        mu = energy_density(u, pack.s)
        nu = lp_density(u, pack.two_star, mask)
        found = atom_detect(mu, nu, radius=0.3, threshold=0.1)
        assert len(found) == 2
        got = sorted((e.location[0], e.mu) for e in found)
        assert got[0][0] == pytest.approx(-0.5, abs=0.3)
        assert got[1][0] == pytest.approx(0.5, abs=0.3)
        assert got[0][1] == pytest.approx(0.3, rel=0.10)
        assert got[1][1] == pytest.approx(0.4, rel=0.10)

    def test_diffuse_field_yields_no_atoms(self, grid1d, rng):
        noise = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        # an all-zero measure has no ball holding positive mass
        zeros = [Field(grid=g, values=np.zeros(g.shape))
                 for g in (make_grid(1, 256, 8.0), make_grid(2, 32, 4.0))]
        for u in [noise] + zeros:
            mu = energy_density(u, 0.25)
            nu = lp_density(u, 4.0)
            found = atom_detect(mu, nu, radius=0.5, threshold=0.5)
            assert len(found) == 0

    def test_detected_atoms_separated_by_radius(self):
        g = make_grid(1, 2 ** 14, 8.0)
        pack = ExponentPack(dim=1, s=0.25)
        mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
        atoms_in = AtomSpec(points=((-0.5,), (0.5,)), masses=(0.3, 0.4))
        u = glued_bubbles(atoms_in, 1 / 16, g, mask, pack, radii=[0.24, 0.24])
        mu = energy_density(u, pack.s)
        found = atom_detect(mu, mu, radius=0.3, threshold=0.05)
        locs = [e.location[0] for e in found]
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                assert abs(locs[i] - locs[j]) > 0.3

    def test_ball_on_lattice_distance_counted_once(self):
        # r = 2h falls on a lattice distance; the ball whose mass is recorded
        # must be the ball that is then zeroed, so no mass is counted twice
        from fracsobolev.diagnostics import CellMeasure
        g = make_grid(1, 1024, 2.7)
        masses = np.zeros(g.shape)
        masses[298:303] = 1.0
        m = CellMeasure(grid=g, masses=masses)
        found = atom_detect(m, m, radius=2 * g.spacing, threshold=0.1)
        assert len(found) == 1
        assert found.entries[0].mu == 5.0
        assert found.entries[0].nu == 5.0

    def test_nu_on_another_grid_raises(self, grid1d):
        masses = np.zeros(grid1d.shape)
        masses[100] = 1.0
        m = CellMeasure(grid=grid1d, masses=masses)
        for g in (make_grid(1, 1024, 8.0), make_grid(1, 256, 8.0), make_grid(1, 512, 4.0)):
            nu = CellMeasure(grid=g, masses=np.ones(g.shape))
            with pytest.raises(InvalidGrid, match="half-width"):
                atom_detect(m, nu, radius=0.5, threshold=0.1)

    def test_rejects_tiny_radius_and_bad_threshold(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        mu = energy_density(u, 0.25)
        with pytest.raises(InvalidOrder):
            atom_detect(mu, mu, radius=0.5 * grid1d.spacing, threshold=0.1)
        with pytest.raises(InvalidOrder):
            atom_detect(mu, mu, radius=1.0, threshold=1.5)

    def test_rejects_nan_radius(self, grid1d, rng):
        mu = energy_density(Field(grid=grid1d, values=rng.standard_normal(grid1d.shape)), 0.25)
        with pytest.raises(InvalidOrder):
            atom_detect(mu, mu, radius=float("nan"), threshold=0.1)


class TestTailEnergy:
    def test_zero_field(self, grid1d, interval_mask):
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        assert tail_energy(u, 0.25, interval_mask, 1.0) == 0.0

    def test_smooth_supported_field_leaks(self, grid1d, interval_mask):
        vals = interval_mask.restrict(np.cos(np.pi * grid1d.axis / 2.0) ** 2
                                      * (np.abs(grid1d.axis) < 1.0))
        u = Field(grid=grid1d, values=vals)
        leak = tail_energy(u, 0.25, interval_mask, 1.0)
        assert leak > 0.0
        assert leak < hs_dot_norm_sq(u, 0.25)

    def test_mask_on_another_grid_raises(self, grid2d, rng):
        u = random_field(grid2d, rng)
        for g in (make_grid(2, 64, 2.0), make_grid(2, 32, 4.0)):
            mask = DomainMask.from_shape(g, _BALL)
            with pytest.raises(InvalidGrid, match="half-width"):
                tail_energy(u, 0.5, mask, 0.2)


class TestTopOctaveShare:
    """Fields of a few lattice modes, whose energies are known in closed
    form: a cosine of index k carries |xi_k|^(2s) times its mean square."""

    @staticmethod
    def _mode(g, *k):
        xi = 2.0 * np.pi / (g.points_per_dim * g.spacing)
        return np.cos(xi * sum(kj * c for kj, c in zip(k, g.coords())))

    def test_octave_edge_is_exclusive(self):
        # |xi| = pi/(2h) at index M/4
        g = make_grid(1, 64, 8.0)
        assert top_octave_share(Field(grid=g, values=self._mode(g, 16)), 0.25) < 1e-25
        assert top_octave_share(Field(grid=g, values=self._mode(g, 17)), 0.25) == pytest.approx(
            1.0, abs=1e-15)

    def test_nyquist_mode_counts_once(self):
        # the index-M/2 cosine is +-1 per cell, a mean square of 1, against
        # 1/2 for every other cosine
        g, s = make_grid(1, 64, 8.0), 0.3
        low, nyq = 3, 32
        share = top_octave_share(Field(grid=g, values=self._mode(g, low)
                                       + 0.5 * self._mode(g, nyq)), s)
        e_low, e_nyq = 0.5 * low ** (2 * s), 0.25 * nyq ** (2 * s)
        assert share == pytest.approx(e_nyq / (e_low + e_nyq), rel=1e-12)

    def test_conjugate_weights_2d(self):
        # (9, 0) sits on the last-axis-0 plane, (3, 7) off it; 16|k|^2 is
        # 1296 and 928 against M^2 = 1024
        g, s = make_grid(2, 32, 4.0), 0.5
        share = top_octave_share(Field(grid=g, values=self._mode(g, 9, 0)
                                       + self._mode(g, 3, 7)), s)
        e_top, e_low = 81.0 ** s, 58.0 ** s
        assert share == pytest.approx(e_top / (e_top + e_low), rel=1e-12)

    def test_zero_field_raises(self):
        g = make_grid(1, 64, 8.0)
        with pytest.raises(DegenerateInput):
            top_octave_share(Field(grid=g, values=np.zeros(g.shape)), 0.25)

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_order(self, rng, s):
        g = make_grid(1, 64, 8.0)
        with pytest.raises(InvalidOrder):
            top_octave_share(Field(grid=g, values=rng.standard_normal(g.shape)), s)


_INTERVAL = {"kind": "interval", "bounds": [-1.0, 1.0]}
_BALL = {"kind": "ball", "center": [0.3, -0.2], "radius": 1.0}
_BOX = {"kind": "box", "lower": [-1.0, -0.6], "upper": [1.2, 0.8]}
_TRIANGLE = {"kind": "polygon", "vertices": [[-1.0, -0.9], [1.3, -0.7], [0.1, 1.2]]}


class TestNearDomain:
    """The FFT dilation selects exactly the cells the distance transform
    puts within ``margin`` of the domain."""

    @pytest.mark.parametrize("dim,M,L,shape", [
        (1, 512, 8.0, _INTERVAL), (1, 2 ** 13, 8.0, _INTERVAL), (1, 2 ** 14, 8.0, _INTERVAL),
        (1, 1024, 2.7, _INTERVAL),
    ] + [(2, M, 4.0, shape) for M in (64, 128, 256, 512) for shape in (_BALL, _BOX, _TRIANGLE)])
    @pytest.mark.parametrize("fraction", [0.25, 0.37, 0.5])
    def test_matches_distance_transform(self, dim, M, L, shape, fraction):
        mask = DomainMask.from_shape(make_grid(dim, M, L), shape)
        margin = fraction * mask.diameter
        assert np.array_equal(_near_domain(mask, margin), near_domain_edt(mask, margin))

    def test_whole_cell_margin_keeps_the_tie(self):
        # h = 1/32 and margin = 16 h exactly: cells at distance exactly margin are near
        g = make_grid(1, 512, 8.0)
        mask = DomainMask.from_shape(g, _INTERVAL)
        margin = 16 * g.spacing
        near = _near_domain(mask, margin)
        assert np.array_equal(near, near_domain_edt(mask, margin))
        idx = np.flatnonzero(mask.inside)
        assert near[idx[0] - 16] and not near[idx[0] - 17]

    @pytest.mark.parametrize("dim,M,L,shape", [
        # the margin reaches past the upper edge of the box
        (1, 512, 8.0, {"kind": "interval", "bounds": [4.5, 7.5]}),
        # the margin reaches past every side of the box
        (2, 128, 1.5, _BALL),
    ])
    def test_window_clipped_at_box_edge(self, dim, M, L, shape):
        mask = DomainMask.from_shape(make_grid(dim, M, L), shape)
        margin = 0.5 * mask.diameter
        near = _near_domain(mask, margin)
        assert near[(-1,) * dim]
        assert np.array_equal(near, near_domain_edt(mask, margin))


def _bump_measures(g, centers, rng):
    """A noise floor plus one Gaussian bump per center, of width three
    cells and weight 1, 2, 3, ...; nu is the square of mu."""
    masses = 1e-3 * rng.random(g.shape)
    for k, c in enumerate(centers):
        r = g.radii(c)
        masses += (1.0 + k) * np.exp(-(r / (3.0 * g.spacing)) ** 2)
    return CellMeasure(grid=g, masses=masses), CellMeasure(grid=g, masses=masses ** 2)


class TestWindowsMatchWholeBox:
    """The localized diagnostics work on the windows of their supports; on
    every cell they equal their whole-box forms to the bit, also where a
    window is clipped by the box or its edge lands on a cell center."""

    @pytest.mark.parametrize("dim,M,L,centers,radius", [
        # the bump at 7.9 has its ball patch clipped by the upper box edge
        (1, 512, 8.0, [(-3.0,), (7.9,), (2.0,), (2.3,)], 0.4),
        # radius 8h: the ball's edge lands on a cell center
        (1, 256, 4.0, [(0.0,), (-3.97,), (1.5,)], 0.25),
        # the bump at the corner is clipped on both axes
        (2, 64, 2.0, [(-0.8, 0.3), (1.95, -1.9), (0.5, 0.6), (0.5, 0.1)], 0.25),
        (2, 128, 2.0, [(-1.97, 1.97), (0.0, 0.0), (0.9, -0.4)], 5 * 4.0 / 128),
        # atoms in opposite corners: the candidates' box is nearly the whole box
        (2, 128, 2.0, [(-1.97, -1.97), (1.95, 1.96)], 5 * 4.0 / 128),
        (3, 32, 2.0, [(-1.0, 0.5, 0.2), (1.9, -1.9, 1.9), (0.3, 0.3, -0.5)], 0.625),
    ])
    def test_atom_detect(self, monkeypatch, rng, dim, M, L, centers, radius):
        import fracsobolev.diagnostics as diagnostics_mod
        g = make_grid(dim, M, L)
        mu, nu = _bump_measures(g, centers, rng)
        for threshold, cap in ((0.02, 16), (0.02, 2), (0.3, 16)):
            monkeypatch.setattr(diagnostics_mod, "DEFAULT_ATOM_CAP", cap)
            found = atom_detect(mu, nu, radius=radius, threshold=threshold)
            assert found == atom_detect_full(mu, nu, radius, threshold, cap)
            assert len(found) >= 1
        monkeypatch.undo()
        assert len(atom_detect(mu, nu, radius=radius, threshold=0.02)) >= len(centers) - 1

    @pytest.mark.parametrize("dim,M,L,spikes", [
        (1, 512, 8.0, [(100,), (104,), (300,), (400,), (450,)]),
        (2, 64, 2.0, [(10, 10), (12, 11), (40, 40), (50, 20), (50, 50)]),
    ])
    def test_atom_detect_overlaps_ties_and_zeros(self, monkeypatch, rng, dim, M, L, spikes):
        # radius 8h (1-D) or 4h (2-D): the first two spikes share their
        # balls; the last three lie where the measure is otherwise exactly
        # zero, two of them tied and one heavier by 1e-13, within the tie rule
        import fracsobolev.diagnostics as diagnostics_mod
        g = make_grid(dim, M, L)
        masses = np.zeros(g.shape)
        masses[:M // 2] = 1e-3 * rng.random((M // 2,) + g.shape[1:])
        for idx, w in zip(spikes, (1.0, 0.9, 1.0, 1.0 + 1e-13, 1.0)):
            masses[idx] += w
        mu = CellMeasure(grid=g, masses=masses)
        nu = CellMeasure(grid=g, masses=rng.random(g.shape) * (masses > 0.5))
        for threshold, cap in ((0.02, 16), (0.02, 2), (0.3, 16)):
            monkeypatch.setattr(diagnostics_mod, "DEFAULT_ATOM_CAP", cap)
            found = atom_detect(mu, nu, radius=0.25, threshold=threshold)
            assert found == atom_detect_full(mu, nu, 0.25, threshold, cap)
            assert len(found) >= 1

    @pytest.mark.parametrize("dim,M,L,radius", [
        (1, 512, 8.0, 0.25), (2, 64, 2.0, 0.25), (3, 16, 2.0, 0.5)])
    def test_atom_detect_without_candidates(self, pair_shapes, rng, dim, M, L, radius):
        # an even spread leaves no block near the threshold, so no sum is
        # formed; an all-zero measure leaves every block, and no atom
        g = make_grid(dim, M, L)
        spread = CellMeasure(grid=g, masses=1.0 + 1e-3 * rng.random(g.shape))
        zero = CellMeasure(grid=g, masses=np.zeros(g.shape))
        for m, pairs in ((spread, 0), (zero, 1)):
            pair_shapes.clear()
            found = atom_detect(m, m, radius=radius, threshold=0.5)
            assert len(pair_shapes) == pairs
            assert found == atom_detect_full(m, m, radius, 0.5) == AtomList(entries=())

    @pytest.mark.parametrize("dim,M,L,radius,corners", [
        (1, 512, 8.0, 0.25, [(50,), (150,), (250,), (350,), (450,)]),
        (2, 64, 2.0, 0.25, [(10, 10), (10, 40), (40, 10), (40, 40), (55, 55)]),
        (3, 16, 2.0, 0.75, [(1, 1, 1), (1, 1, 10), (1, 10, 1), (10, 1, 1), (12, 12, 12)]),
    ])
    def test_atom_detect_threshold_at_a_ball_mass(self, dim, M, L, radius, corners):
        # unit cells in clusters of 16, 16, 16 and 15 cells, each inside one
        # ball, and one lone cell: the total is 64, so the thresholds 16/64
        # and 15/64 equal ball masses exactly, and such a ball is recorded
        g = make_grid(dim, M, L)
        cluster = np.argwhere(np.ones({1: (16,), 2: (4, 4), 3: (2, 2, 4)}[dim]))
        masses = np.zeros(g.shape)
        for corner, count in zip(corners, (16, 16, 16, 15, 1)):
            masses[tuple((cluster[:count] + corner).T)] = 1.0
        m = CellMeasure(grid=g, masses=masses)
        assert m.total == 64.0
        for threshold, n_atoms in ((16 / 64, 3), (15 / 64, 4)):
            found = atom_detect(m, m, radius=radius, threshold=threshold)
            assert found == atom_detect_full(m, m, radius, threshold)
            assert [e.mu for e in found] == [16.0, 16.0, 16.0, 15.0][:n_atoms]

    @pytest.mark.parametrize("dim,M,L", [(1, 512, 8.0), (2, 64, 2.0)])
    def test_commutator_residual(self, rng, dim, M, L):
        g = make_grid(dim, M, L)
        u = random_field(g, rng)
        cuts = (CutoffSpec(center=(0.3,) * dim, inner_radius=0.4),
                # the double ball crosses the lower box edge on every axis
                CutoffSpec(center=(-L + 0.1,) * dim, inner_radius=0.3))
        phis = [cutoff_field(cut, g) for cut in cuts]
        phis += [Field(grid=g, values=np.zeros(g.shape)), Field(grid=g, values=rng.random(g.shape))]
        for phi in phis:
            for s in (0.25, 0.5, 1.0):
                expected = commutator_residual_full(u, phi, s)
                assert commutator_residual(u, phi, s) == expected
        assert commutator_residual(u, phis[2], 0.5) == 0.0

    @pytest.mark.parametrize("dim,M,L,points,radii", [
        (1, 1024, 4.0, ((-1.0,), (0.5,), (1.3,)), None),
        (2, 256, 2.0, ((-0.6, 0.4), (0.5, 0.5), (0.1, -0.7)), [0.2] * 3),
        # the double balls of the first two, about cell centers, lie less
        # than a cell apart, so their windows, one cell wider, overlap
        (2, 256, 2.0, ((-0.5, 0.0), (0.3125, 0.0), (0.0, 1.0)), [0.2031, 0.2, 0.15]),
    ])
    def test_glued_bubbles(self, dim, M, L, points, radii):
        g = make_grid(dim, M, L)
        pack = ExponentPack(dim=dim, s=0.3)
        atoms = AtomSpec(points=points, masses=(0.2, 0.3, 0.25))
        for mask in (None, DomainMask.from_shape(g, {"kind": "ball", "center": [0.0] * dim,
                                                    "radius": 1.5})):
            got = glued_bubbles(atoms, 1.0, g, mask, pack, radii=radii)
            assert np.array_equal(got.values, glued_bubbles_full(atoms, 1.0, g, mask, pack,
                                                                 radii).values)

    def test_atom_detect_glued_bubbles(self):
        g = make_grid(2, 256, 2.0)
        pack = ExponentPack(dim=2, s=0.5)
        atoms = AtomSpec(points=((-0.6, 0.4), (0.5, 0.5), (0.1, -0.7)), masses=(0.2, 0.3, 0.25))
        u = glued_bubbles(atoms, 1.0, g, None, pack, radii=[0.2] * 3)
        mu, nu = energy_density(u, pack.s), lp_density(u, pack.two_star)
        found = atom_detect(mu, nu, radius=0.15, threshold=0.1)
        assert len(found) == 3
        assert found == atom_detect_full(mu, nu, 0.15, 0.1)

    @pytest.mark.parametrize("dim,M,L,center,rho", [
        # 2 rho = 6h from a cell center: the window edge lands on a cell center
        (1, 512, 8.0, (-8.0 + 100 / 32,), 3 / 32),
        (2, 64, 2.0, (-2.0 + 20 / 16, -2.0 + 33 / 16), 4 / 16),
        # double balls clipped by the box edge
        (1, 512, 8.0, (7.8,), 0.3),
        (2, 64, 2.0, (1.9, -1.85), 0.3),
        (2, 128, 4.0, (0.31, -0.27), 0.7),
    ])
    def test_cutoff_and_localized_bubble(self, dim, M, L, center, rho):
        g = make_grid(dim, M, L)
        cut = CutoffSpec(center=center, inner_radius=rho)
        for dilation in (1.0, 0.5, 8.0):
            assert np.array_equal(cutoff_field(cut, g, dilation).values,
                                  cutoff_field_full(cut, g, dilation).values)
        pack = ExponentPack(dim=dim, s=0.3)
        spec = BubbleSpec(amplitude=1.5, scale=8 * g.spacing, center=center, pack=pack)
        v, pre = localized_bubble(spec, cut, 0.5, g)
        v_full, pre_full = localized_bubble_full(spec, cut, 0.5, g)
        assert pre == pre_full
        assert np.array_equal(v.values, v_full.values)

    @pytest.mark.parametrize("dim,M,L", [(1, 512, 8.0), (2, 64, 2.0)])
    def test_mass_in_ball(self, rng, dim, M, L):
        g = make_grid(dim, M, L)
        m = CellMeasure(grid=g, masses=rng.random(g.shape))
        h = g.spacing
        on_cell = tuple(float(g.axis[i]) for i in (5, 40)[:dim])
        between = tuple(c + 0.5 * h for c in on_cell)
        for center in (on_cell, between, (-L,) * dim, (L - 0.3 * h,) * dim):
            # whole-cell radii put cells exactly on the ball's edge
            for r in (3 * h, 3.5 * h, 8 * h, 0.4 * L, 4.0 * L):
                assert mass_in_ball(m, center, r) == mass_in_ball_full(m, center, r)

    @pytest.mark.parametrize("dim,M,L,shape,fraction", [
        (1, 512, 8.0, _INTERVAL, 0.5),
        # the grown window reaches the upper box edge
        (1, 512, 8.0, {"kind": "interval", "bounds": [4.5, 7.5]}, 0.5),
        (2, 128, 4.0, _TRIANGLE, 0.37),
        # the grown window reaches every box edge
        (2, 128, 1.5, _BALL, 0.5),
        (2, 64, 2.0, _BOX, 1.0),
    ])
    def test_near_domain(self, dim, M, L, shape, fraction):
        mask = DomainMask.from_shape(make_grid(dim, M, L), shape)
        margin = fraction * mask.diameter
        assert np.array_equal(_near_domain(mask, margin), near_domain_full(mask, margin))

    def test_near_domain_cached_per_margin(self):
        mask = DomainMask.from_shape(make_grid(2, 128, 4.0), _TRIANGLE)
        margins = (0.25 * mask.diameter, 0.5 * mask.diameter)
        sets = [_near_domain(mask, m) for m in margins]
        for near, margin in zip(sets, margins):
            assert _near_domain(mask, margin) is near
            assert not near.flags.writeable
            assert np.array_equal(near, near_domain_full(mask, margin))
        assert not np.array_equal(*sets)


def _peak_boxes(g, fn):
    """Peak memory that ``fn()`` allocates, in whole-box float arrays of
    ``g``; a first call fills the grid's caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * g.total_points)


class TestNoWholeBoxCopies:
    """The concentration diagnostics allocate, besides what they return and
    the transforms they run, no whole-box array: a copy of an input, or a
    product of fields that vanish off a small window, would add a box."""

    @pytest.fixture(scope="class")
    def glued(self):
        g = make_grid(2, 512, 4.0)
        pack = ExponentPack(dim=2, s=0.5)
        atoms = AtomSpec(points=((0.5, 0.0), (-0.25, 0.43), (-0.25, -0.43)),
                         masses=(0.22, 0.25, 0.28))
        return g, pack, atoms, glued_bubbles(atoms, 1.0, g, None, pack, radii=[0.16] * 3)

    def test_atom_detect(self, glued):
        g, pack, _, u = glued
        mu, nu = energy_density(u, pack.s), lp_density(u, pack.two_star)
        assert len(atom_detect(mu, nu, radius=0.15, threshold=0.1)) == 3
        # the convolution runs on the candidates' box, a seventh of the box
        # or less per axis here, so its lattice and spectra, and the allowed
        # cells (an eighth of a box), stay far below the whole-box
        # convolution's peak of over three boxes
        conv = _peak_boxes(g, lambda: _convolve(_ball_sample(g, 0.15), (mu.masses,)))
        peak = _peak_boxes(g, lambda: atom_detect(mu, nu, radius=0.15, threshold=0.1))
        assert conv > 3.0 and peak < 0.5

    def test_commutator_residual(self, glued):
        g, pack, atoms, u = glued
        phi = cutoff_field(CutoffSpec(center=atoms.points[0], inner_radius=0.16), g)
        # one transform pair, its spectrum and image, and phi u on the rows
        # of phi's box; u keeps its image, so the pair is measured on a
        # fresh field each call
        pair = _peak_boxes(g, lambda: frac_power(Field(grid=g, values=u.values), pack.s))
        assert _peak_boxes(g, lambda: commutator_residual(u, phi, pack.s)) < pair + 0.25

    def test_glued_bubbles(self, glued):
        g, pack, atoms, _ = glued
        # the sum; each bubble is built and normalized on its window
        peak = _peak_boxes(g, lambda: glued_bubbles(atoms, 1.0, g, None, pack, radii=[0.16] * 3))
        assert peak < 1.5


@pytest.fixture
def pair_shapes(monkeypatch):
    """The shape of the input of every transform pair run from here on."""
    import fracsobolev.spectral as spectral_mod
    real_pair = spectral_mod._transform_pair
    shapes = []

    def counting(values, *args):
        shapes.append(values.shape)
        return real_pair(values, *args)

    monkeypatch.setattr(spectral_mod, "_transform_pair", counting)
    return shapes


class TestWholeBoxWork:
    def test_atom_detect_convolves_the_candidates_box(self, pair_shapes, rng):
        shapes = pair_shapes
        g = make_grid(2, 128, 4.0)
        reach = len(_ball_sample(g, 0.3)) - 1
        spots = [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0), (2.0, -2.0), (0.0, 0.0)]
        for n_atoms in (0, 1, 3, 5):
            mu, nu = _bump_measures(g, spots[:n_atoms], rng)
            shapes.clear()
            found = atom_detect(mu, nu, radius=0.3, threshold=0.05)
            assert len(found) == n_atoms
            if n_atoms == 0:
                # the noise floor leaves no block that can hold an atom
                assert shapes == []
                continue
            # one pair on the candidates' box, smaller than the whole box,
            # and one small pair per atom
            assert len(shapes) == 1 + n_atoms
            assert all(n < g.points_per_dim for n in shapes[0])
            assert all(n <= 6 * reach + 1 for shape in shapes[1:] for n in shape)

    def test_probes_share_one_image(self, pair_shapes):
        g = make_grid(2, 256, 4.0)
        pack = ExponentPack(dim=2, s=0.5)
        atoms = AtomSpec(points=((1.5, 0.0), (-1.5, 0.5)), masses=(0.3, 0.4))
        u = glued_bubbles(atoms, 1.0, g, None, pack, radii=[0.4] * 2)
        mask = DomainMask.from_shape(g, _BALL)
        phi = cutoff_field(CutoffSpec(center=atoms.points[0], inner_radius=0.4), g)
        _near_domain(mask, 0.5)
        pair_shapes.clear()
        mu = energy_density(u, pack.s)
        tail = tail_energy(u, pack.s, mask, 0.5)
        comm = commutator_residual(u, phi, pack.s)

        def rows(values):
            held = np.flatnonzero(values.any(axis=1))
            return (held[-1] + 1 - held[0], g.points_per_dim)

        # the image of u, kept on u, and that of phi u, each run on the
        # rows its field occupies
        assert pair_shapes == [rows(u.values), rows(phi.values * u.values)]
        assert all(n < g.points_per_dim for n, _ in pair_shapes)
        fresh = Field(grid=g, values=u.values)
        assert np.array_equal(energy_density(fresh, pack.s).masses, mu.masses)
        assert tail == tail_energy(Field(grid=g, values=u.values), pack.s, mask, 0.5)
        assert tail == float(mu.masses[~_near_domain(mask, 0.5)].sum())
        assert comm == commutator_residual_full(fresh, phi, pack.s)


class TestCutoffProbe:
    def test_huge_lambda_covers_support(self, loc_bubble_family):
        g, pack, cut, fields = loc_bubble_family
        u = fields[0.25]
        (dist,) = cutoff_convergence_probe(u, cut, [8.0], pack.s, branch="inflate")
        assert dist < 1e-10

    def test_shrinking_branch_decreases(self, loc_bubble_family):
        g, pack, cut, fields = loc_bubble_family
        u = fields[0.25]
        norms = cutoff_convergence_probe(u, cut, [1.0, 0.5, 0.25, 0.125], pack.s,
                                         branch="shrink")
        for a, b in zip(norms, norms[1:]):
            assert b < a * 1.02

    def test_zero_field_all_zero(self, grid1d):
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        cut = CutoffSpec(center=(0.0,), inner_radius=1.0)
        assert cutoff_convergence_probe(u, cut, [1.0, 0.5], 0.25) == [0.0, 0.0]

    def test_2d_shrink_factor_two_across_endpoints(self):
        g = make_grid(2, 256, 8.0)
        pack = ExponentPack(dim=2, s=0.3)
        u_vals = cutoff_profile(g.radii((0.0, 0.0)), 0.8)
        u = Field(grid=g, values=u_vals)
        u = Field(grid=g, values=u_vals / np.sqrt(hs_dot_norm_sq(u, pack.s)))
        cut = CutoffSpec(center=(0.0, 0.0), inner_radius=1.0)
        norms = cutoff_convergence_probe(u, cut, [1.0, 0.5, 0.25, 0.125], pack.s,
                                         branch="shrink")
        assert norms[0] >= 2.0 * norms[-1]


class TestCommutator:
    def test_unit_multiplier_commutes_exactly(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        ones = Field(grid=grid1d, values=np.ones(grid1d.shape))
        assert commutator_residual(u, ones, 0.25) == 0.0

    def test_zero_field(self, grid1d):
        u = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        phi = Field(grid=grid1d, values=np.ones(grid1d.shape))
        assert commutator_residual(u, phi, 0.25) == 0.0

    def test_phi_on_another_grid_raises(self, grid2d, rng):
        u = random_field(grid2d, rng)
        for g in (make_grid(2, 64, 2.0), make_grid(2, 32, 4.0)):
            with pytest.raises(InvalidGrid, match="half-width"):
                commutator_residual(u, Field(grid=g, values=np.ones(g.shape)), 0.5)

    @pytest.mark.parametrize("dim,M", [(1, 64), (2, 32)])
    def test_overflowing_product_raises(self, dim, M):
        # phi and u are finite, their product on phi's box is not: the
        # error is InvalidGrid, raised as no overflow warning
        g = make_grid(dim, M, 2.0)
        u = Field(grid=g, values=np.full(g.shape, 1e200))
        vals = np.zeros(g.shape)
        vals[(slice(5, 9),) * dim] = 1e200
        with pytest.raises(InvalidGrid, match="non-finite"):
            commutator_residual(u, Field(grid=g, values=vals), 0.5)

    @pytest.mark.parametrize("dim,M", [(1, 64), (2, 32)])
    def test_overflowing_image_product_raises(self, dim, M, monkeypatch):
        # u vanishes on phi's box, so phi u is zero there, but the image of
        # u does not, and phi times it overflows; no pair runs for phi u
        import fracsobolev.diagnostics as diagnostics_mod
        g = make_grid(dim, M, 2.0)
        vals = np.zeros(g.shape)
        vals[(M // 2,) * dim] = 1e200
        u = Field(grid=g, values=vals)
        phi = np.zeros(g.shape)
        phi[(slice(M // 2 + 2, M // 2 + 5),) * dim] = 1e200

        def refuse(*args):
            raise AssertionError("the image of phi u was transformed")

        monkeypatch.setattr(diagnostics_mod, "_image_of_rows", refuse)
        with pytest.raises(InvalidGrid, match="non-finite"):
            commutator_residual(u, Field(grid=g, values=phi), 0.5)

    def test_2d_bubble_family_halves(self):
        g = make_grid(2, 2048, 4.0)
        pack = ExponentPack(dim=2, s=0.3)
        spec = BubbleSpec(amplitude=1.0, scale=0.125, center=(0.0, 0.0), pack=pack)
        cut = CutoffSpec(center=(0.0, 0.0), inner_radius=0.5)
        phi = cutoff_field(CutoffSpec(center=(0.0, 0.0), inner_radius=1.0), g)
        res = {}
        for eps in (0.5, 0.125):
            v, _ = localized_bubble(spec, cut, eps, g)
            res[eps] = commutator_residual(v, phi, pack.s)
        assert res[0.5] >= 2.0 * res[0.125]


class TestGammaLimitValue:
    def test_single_unit_atom_gives_sharp_constant(self, grid1d, interval_mask):
        pack = ExponentPack(dim=1, s=0.25)
        zero = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        atoms = AtomList(entries=(AtomEntry(location=(0.0,), mu=1.0, nu=0.0),))
        val = gamma_limit_value(zero, atoms, pack, interval_mask)
        assert val == pytest.approx(sobolev_constant(1, 0.25), rel=1e-12)

    def test_empty_pair_gives_zero(self, grid1d, interval_mask):
        pack = ExponentPack(dim=1, s=0.25)
        zero = Field(grid=grid1d, values=np.zeros(grid1d.shape))
        assert gamma_limit_value(zero, AtomList(entries=()), pack, interval_mask) == 0.0

    def test_strict_subadditivity_in_the_interior(self, grid1d, interval_mask):
        pack = ExponentPack(dim=1, s=0.25)
        vals = interval_mask.restrict(np.cos(np.pi * grid1d.axis / 2.0) ** 2
                                      * (np.abs(grid1d.axis) < 1.0))
        u = Field(grid=grid1d, values=vals)
        u = Field(grid=grid1d, values=vals * np.sqrt(0.36 / hs_dot_norm_sq(u, pack.s)))
        atoms = AtomList(entries=(AtomEntry(location=(0.5,), mu=0.4, nu=0.0),))
        val = gamma_limit_value(u, atoms, pack, interval_mask)
        assert val < sobolev_constant(1, 0.25)

    def test_budget_exceeded(self, grid1d, interval_mask):
        pack = ExponentPack(dim=1, s=0.25)
        vals = interval_mask.restrict(np.cos(np.pi * grid1d.axis / 2.0) ** 2
                                      * (np.abs(grid1d.axis) < 1.0))
        u = Field(grid=grid1d, values=vals)
        u = Field(grid=grid1d, values=vals / np.sqrt(hs_dot_norm_sq(u, pack.s)))
        atoms = AtomList(entries=(AtomEntry(location=(0.5,), mu=0.4, nu=0.0),))
        with pytest.raises(BudgetExceeded):
            gamma_limit_value(u, atoms, pack, interval_mask)

    def test_argmax_cell_tie_break_is_first_in_c_order(self, grid1d):
        from fracsobolev.diagnostics import CellMeasure
        masses = np.zeros(grid1d.shape)
        masses[10] = masses[20] = 1.0
        m = CellMeasure(grid=grid1d, masses=masses)
        assert argmax_cell(m) == (float(grid1d.axis[10]),)

    @pytest.mark.parametrize("width", [0.1, 0.25, 0.4, 0.5])
    def test_argmax_cell_mirror_cells_tie(self, width):
        # two Gaussians at -+0.75 peak in the mirror cells 26 and 38, whose
        # energy densities differ by FFT rounding only; the first one wins
        g = make_grid(1, 64, 4.0)
        x = g.axis
        vals = np.exp(-((x - 0.75) / width) ** 2) + np.exp(-((x + 0.75) / width) ** 2)
        m = energy_density(Field(grid=g, values=vals), 0.5)
        assert abs(m.masses[26] - m.masses[38]) <= 1e-15 * m.total
        assert argmax_cell(m) == (float(x[26]),) == (-0.75,)


class TestAtomDetectDeterminism:
    def test_repeat_runs_identical(self, grid1d):
        from fracsobolev.diagnostics import CellMeasure
        rng = np.random.default_rng(3)
        masses = np.abs(rng.standard_normal(grid1d.shape))
        masses[100] += 40.0
        masses[300] += 25.0
        m = CellMeasure(grid=grid1d, masses=masses)
        a = atom_detect(m, m, radius=0.5, threshold=0.05)
        b = atom_detect(m, m, radius=0.5, threshold=0.05)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert ea.location == eb.location
            assert abs(ea.mu - eb.mu) <= 1e-12 * max(ea.mu, 1.0)

    def test_tie_break_prefers_lower_index(self, grid1d):
        # equal-mass spikes: the first extraction is the lowest-index cell
        # whose ball captures the maximal mass, i.e. near the lower spike
        from fracsobolev.diagnostics import CellMeasure
        masses = np.zeros(grid1d.shape)
        masses[50] = masses[400] = 1.0
        m = CellMeasure(grid=grid1d, masses=masses)
        found = atom_detect(m, m, radius=0.2, threshold=0.1)
        first = found.entries[0].location[0]
        assert abs(first - grid1d.axis[50]) <= 0.2
        assert found.entries[1].location[0] == pytest.approx(grid1d.axis[400], abs=0.2)

    def test_atom_cap(self, grid1d, monkeypatch):
        import fracsobolev.diagnostics as diagnostics_mod
        from fracsobolev.diagnostics import CellMeasure
        masses = np.zeros(grid1d.shape)
        for idx in (60, 200, 350):
            masses[idx] = 1.0
        m = CellMeasure(grid=grid1d, masses=masses)
        monkeypatch.setattr(diagnostics_mod, "DEFAULT_ATOM_CAP", 2)
        found = atom_detect(m, m, radius=0.2, threshold=0.05)
        assert len(found) == 2
