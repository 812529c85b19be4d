"""Energy measures, atom detection, tails, cutoff/commutator decay, limit bound."""

import numpy as np
import pytest

from fracsobolev import (AtomEntry, AtomList, AtomSpec, BubbleSpec,
                         BudgetExceeded, CutoffSpec, DomainMask,
                         ExponentPack, Field, InvalidOrder, atom_detect,
                         commutator_residual, cutoff_convergence_probe,
                         cutoff_field, cutoff_profile, energy_density,
                         gamma_limit_value, glued_bubbles, hs_dot_norm_sq,
                         localized_bubble, lp_density, make_grid,
                         mass_in_ball, sobolev_constant, tail_energy)
from fracsobolev.diagnostics import argmax_cell

from oracles import brute_force_best_ball


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

    def test_localized_bubble_mass_concentrates(self, loc_bubble_family):
        g, pack, cut, fields = loc_bubble_family
        m = energy_density(fields[1 / 32], pack.s)
        inner = mass_in_ball(m, cut.center, 2 * cut.inner_radius)
        assert inner >= 0.8 * m.total


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
        g = make_grid(1, 512, 8.0)
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=1.0, scale=0.3, center=(-0.4,), pack=pack)
        cut = CutoffSpec(center=(-0.4,), inner_radius=0.6)
        v, _ = localized_bubble(spec, cut, 0.5, g)
        mu = energy_density(v, pack.s)
        nu = lp_density(v, pack.two_star)
        radius = 0.8
        atoms = atom_detect(mu, nu, radius=radius, threshold=0.3)
        assert len(atoms) == 1
        center, mass = brute_force_best_ball(mu, radius)
        assert atoms.entries[0].mu == pytest.approx(mass, rel=1e-12)
        assert abs(atoms.entries[0].location[0] - center[0]) <= radius

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
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
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

    def test_rejects_tiny_radius_and_bad_threshold(self, grid1d, rng):
        u = Field(grid=grid1d, values=rng.standard_normal(grid1d.shape))
        mu = energy_density(u, 0.25)
        with pytest.raises(InvalidOrder):
            atom_detect(mu, mu, radius=0.5 * grid1d.spacing, threshold=0.1)
        with pytest.raises(InvalidOrder):
            atom_detect(mu, mu, radius=1.0, threshold=1.5)


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

    def test_atom_cap(self, grid1d):
        from fracsobolev.diagnostics import CellMeasure
        masses = np.zeros(grid1d.shape)
        for idx in (60, 200, 350):
            masses[idx] = 1.0
        m = CellMeasure(grid=grid1d, masses=masses)
        found = atom_detect(m, m, radius=0.2, threshold=0.05, max_atoms=2)
        assert len(found) == 2

    def test_atom_list_json(self, grid1d):
        import json
        from fracsobolev.diagnostics import CellMeasure
        masses = np.zeros(grid1d.shape)
        masses[128] = 2.0
        m = CellMeasure(grid=grid1d, masses=masses)
        found = atom_detect(m, m, radius=0.2, threshold=0.5)
        parsed = json.loads(found.to_json())
        assert len(parsed) == 1
        assert parsed[0]["mu"] == pytest.approx(2.0)
        assert "x" in parsed[0] and "nu" in parsed[0]
