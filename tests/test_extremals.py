"""Sharp constant, bubble profiles, localization, gluing, recovery fields."""

import warnings

import numpy as np
import pytest

from fracsobolev import extremals
from fracsobolev import (AtomSpec, BubbleSpec, CutoffSpec, DomainMask,
                         BudgetExceeded, ExponentPack, Field, InvalidGrid, InvalidMask,
                         InvalidOrder, OverlappingAtoms, TailTooFat,
                         UnderResolved, critical_exponent, cutoff_field,
                         glued_bubble_parts, glued_bubbles, hs_dot_norm_sq,
                         localized_bubble, lp_integral, make_grid,
                         recovery_sequence, rescaled_bubble, sobolev_constant,
                         subcritical_value, talenti_bubble)

from oracles import sobolev_constant_mp

# frozen arbitrary-precision evaluations (tests/oracles.sobolev_constant_mp)
SSTAR_FROZEN = {
    (1, 0.25): 1.393203929685676859184,
    (2, 0.5): 0.3183098861837906715378,
    (1, 0.1): 1.039339778229044647394,
    (1, 0.05): 1.014852036733889274389,
    (2, 0.3): 0.57262642394950431915,
    (3, 1.0): 0.00608354503981293937135,
}


class TestCriticalExponent:
    def test_values(self):
        assert critical_exponent(1, 0.25) == pytest.approx(4.0)
        assert critical_exponent(2, 0.5) == pytest.approx(4.0)
        assert critical_exponent(3, 1.0) == pytest.approx(6.0)

    def test_rejects_boundary(self):
        with pytest.raises(InvalidOrder):
            critical_exponent(1, 0.5)
        with pytest.raises(InvalidOrder):
            critical_exponent(2, 0.0)


class TestSobolevConstant:
    @pytest.mark.parametrize("N,s", sorted(SSTAR_FROZEN))
    def test_matches_frozen_high_precision(self, N, s):
        assert sobolev_constant(N, s) == pytest.approx(SSTAR_FROZEN[(N, s)], rel=1e-10)

    @pytest.mark.parametrize("N,s", [(1, 0.25), (2, 0.5), (3, 0.7)])
    def test_matches_live_oracle(self, N, s):
        assert sobolev_constant(N, s) == pytest.approx(sobolev_constant_mp(N, s), rel=1e-10)

    def test_positive_over_sweep(self):
        for N in (1, 2, 3, 4):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                val = sobolev_constant(N, frac * N / 2.0)
                assert np.isfinite(val) and val > 0


class TestTalentiBubble:
    def test_center_value(self, grid1d):
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=2.0, scale=0.5, center=(0.0,), pack=pack)
        u = talenti_bubble(spec, grid1d)
        want = 2.0 / 0.5 ** (1 - 2 * 0.25)
        assert float(np.max(u.values)) == pytest.approx(want, rel=1e-12)

    def test_far_field_decay_slope(self, monkeypatch):
        g = make_grid(1, 4096, 64.0)
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=1.0, scale=0.5, center=(0.0,), pack=pack)
        # the slope is fitted out to the box edge, so no tail is too fat
        monkeypatch.setattr(extremals, "DEFAULT_TAIL_THRESHOLD", 1.0)
        u = talenti_bubble(spec, g)
        x = g.axis
        sel = (x > 2 * g.half_width / 3) & (x < g.half_width)
        slope = np.polyfit(np.log(x[sel]), np.log(u.values[sel]), 1)[0]
        assert slope == pytest.approx(-(1 - 2 * 0.25), rel=0.02)

    def test_normalize_flag(self, grid1d):
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=3.0, scale=1.0, center=(0.0,), pack=pack)
        u = talenti_bubble(spec, grid1d, normalize=True)
        assert hs_dot_norm_sq(u, 0.25) == pytest.approx(1.0, abs=1e-8)

    def test_tail_too_fat(self):
        g = make_grid(1, 256, 2.0)
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=1.0, scale=2.0, center=(0.0,), pack=pack)
        with pytest.raises(TailTooFat):
            talenti_bubble(spec, g)

    def test_rejects_infinite_scale(self):
        pack = ExponentPack(dim=1, s=0.25)
        with pytest.raises(InvalidOrder, match="finite"):
            BubbleSpec(amplitude=1.0, scale=float("inf"), center=(0.0,), pack=pack)


class TestRescaledBubble:
    def test_eps_one_is_identity(self, grid1d):
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=1.3, scale=1.0, center=(0.25,), pack=pack)
        a = talenti_bubble(spec, grid1d)
        b = rescaled_bubble(spec, 1.0, grid1d)
        assert np.array_equal(a.values, b.values)

    def test_closed_form_resampling(self, grid1d):
        # rescaling samples the closed form with scale eps*lambda and
        # amplitude c*eps^((N-2s)/2), never a discrete resample
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=1.0, scale=1.0, center=(0.0,), pack=pack)
        eps = 0.25
        w = rescaled_bubble(spec, eps, grid1d)
        direct = BubbleSpec(amplitude=eps ** 0.25, scale=eps, center=(0.0,), pack=pack)
        d = talenti_bubble(direct, grid1d)
        assert np.array_equal(w.values, d.values)

    def test_under_resolved(self, grid1d):
        pack = ExponentPack(dim=1, s=0.25)
        spec = BubbleSpec(amplitude=1.0, scale=0.05, center=(0.0,), pack=pack)
        with pytest.raises(UnderResolved):
            rescaled_bubble(spec, 0.125, grid1d)


class TestCutoff:
    def test_profile_shape(self, grid1d):
        cut = CutoffSpec(center=(0.0,), inner_radius=1.0)
        phi = cutoff_field(cut, grid1d).values
        r = np.abs(grid1d.axis)
        assert np.all(phi[r <= 1.0] == 1.0)
        assert np.all(phi[r >= 2.0] == 0.0)
        assert np.all((phi >= 0.0) & (phi <= 1.0))

    def test_dilation(self, grid1d):
        cut = CutoffSpec(center=(0.0,), inner_radius=1.0)
        phi = cutoff_field(cut, grid1d, dilation=2.0).values
        r = np.abs(grid1d.axis)
        assert np.all(phi[r <= 2.0] == 1.0)
        assert np.all(phi[r >= 4.0] == 0.0)


class TestLocalizedBubble:
    def _family(self, s, lam, Mexp, L, eps_list, rho=0.5):
        g = make_grid(1, 2 ** Mexp, L)
        pack = ExponentPack(dim=1, s=s)
        base = BubbleSpec(amplitude=1.0, scale=lam, center=(0.0,), pack=pack)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extremals, "DEFAULT_TAIL_THRESHOLD", 1.0)
            unit = talenti_bubble(base, g, normalize=True)
        c = float(np.max(unit.values) * lam ** (2 * base.decay_power))
        spec = BubbleSpec(amplitude=c, scale=lam, center=(0.0,), pack=pack)
        cut = CutoffSpec(center=(0.0,), inner_radius=rho)
        return g, pack, spec, cut

    def test_support_and_unit_norm(self):
        g, pack, spec, cut = self._family(0.25, 0.05, 13, 8.0, None)
        v, pre = localized_bubble(spec, cut, 0.5, g)
        outside = np.abs(g.axis) >= 2 * cut.inner_radius
        assert np.all(v.values[outside] == 0.0)
        assert hs_dot_norm_sq(v, 0.25) == pytest.approx(1.0, abs=1e-8)
        assert pre > 0

    @pytest.mark.parametrize("amplitude", [float("inf"), float("nan")])
    def test_non_finite_amplitude_raises(self, amplitude):
        g, pack = make_grid(1, 1024, 8.0), ExponentPack(dim=1, s=0.25)
        cut = CutoffSpec(center=(0.0,), inner_radius=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidOrder, match="finite"):
                localized_bubble(BubbleSpec(amplitude=amplitude, scale=0.05, center=(0.0,),
                                            pack=pack), cut, 0.5, g)

    def test_prenorm_settles_near_one(self):
        # grid-normalized reference bubble: truncation norm converges
        # monotonically with final gap below 3%
        g, pack, spec, cut = self._family(0.1, 0.005, 19, 8.0, None)
        pres = [localized_bubble(spec, cut, eps, g)[1]
                for eps in (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32)]
        diffs = np.abs(np.diff(pres))
        assert abs(pres[-1] - 1.0) < 0.03
        assert np.all(np.diff(pres) > -1e-3) or np.all(np.diff(pres) < 1e-3)  # monotone
        assert np.all(diffs[1:] <= diffs[:-1] + 1e-6)  # settling

    def test_subcritical_value_approaches_sharp_constant(self):
        g, pack, spec, cut = self._family(0.1, 0.05, 19, 8.0, None)
        mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.2, 1.2]})
        Sstar = sobolev_constant(1, 0.1)
        vals = []
        for eps in (1 / 32, 1 / 64, 1 / 128):
            v, _ = localized_bubble(spec, cut, eps, g)
            vals.append(subcritical_value(v, pack.with_eps(eps), mask))
        assert vals == sorted(vals)  # approaching from below
        assert abs(vals[-1] - Sstar) / Sstar < 0.05


ATOMS_2 = AtomSpec(points=((-0.5,), (0.5,)), masses=(0.3, 0.4))
RADII_2 = [0.24, 0.24]


@pytest.fixture(scope="module")
def glued_ctx():
    g = make_grid(1, 2 ** 17, 8.0)
    pack = ExponentPack(dim=1, s=0.25, eps=1 / 128)
    mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
    return g, pack, mask


class TestGluedBubbles:

    def test_single_atom_is_scaled_bubble(self, glued_ctx):
        g, pack, mask = glued_ctx
        atoms = AtomSpec(points=((0.0,),), masses=(0.5,))
        parts = glued_bubble_parts(atoms, 0.25, g, mask, pack, radii=[0.3])
        total = glued_bubbles(atoms, 0.25, g, mask, pack, radii=[0.3])
        assert np.array_equal(total.values, np.sqrt(0.5) * parts[0].values)

    def test_cross_pairing_small_at_smallest_eps(self, glued_ctx):
        g, pack, mask = glued_ctx
        a, b = (u.values for u in glued_bubble_parts(ATOMS_2, 1 / 128, g, mask, pack,
                                                     radii=RADII_2))
        # the H^s inner product by polarization of the norm
        cross = 0.25 * (hs_dot_norm_sq(Field(grid=g, values=a + b), 0.25)
                        - hs_dot_norm_sq(Field(grid=g, values=a - b), 0.25))
        assert abs(cross) < 0.05

    def test_energy_split(self, glued_ctx):
        g, pack, mask = glued_ctx
        u = glued_bubbles(ATOMS_2, 1 / 128, g, mask, pack, radii=RADII_2)
        total = hs_dot_norm_sq(u, 0.25)
        assert total <= 1.0
        assert abs(total - 0.7) / 0.7 < 0.05

    def test_disjoint_support_additivity(self, glued_ctx):
        g, pack, mask = glued_ctx
        parts = glued_bubble_parts(ATOMS_2, 1 / 64, g, mask, pack, radii=RADII_2)
        u = glued_bubbles(ATOMS_2, 1 / 64, g, mask, pack, radii=RADII_2)
        pexp = pack.subcritical_exponent
        total = lp_integral(u, pexp, mask)
        per_atom = sum(m ** (pexp / 2.0) * lp_integral(v, pexp, mask)
                       for m, v in zip(ATOMS_2.masses, parts))
        assert total == pytest.approx(per_atom, rel=1e-12)

    def test_overlapping_atoms_raise(self, glued_ctx):
        g, pack, mask = glued_ctx
        with pytest.raises(OverlappingAtoms):
            glued_bubbles(ATOMS_2, 0.25, g, mask, pack, radii=[0.6, 0.6])

    def test_default_radii_touching_double_balls_accepted(self, glued_ctx):
        # ATOM_BALL_FRACTION 1/4 makes the double balls of the two atoms touch;
        # the cutoffs vanish from 2*rho on, so the parts stay disjoint
        g, pack, mask = glued_ctx
        parts = glued_bubble_parts(ATOMS_2, 1 / 64, g, mask, pack)
        assert not np.any((parts[0].values != 0.0) & (parts[1].values != 0.0))

    def test_mask_on_another_grid_raises(self, glued_ctx):
        g, pack, _ = glued_ctx
        atoms = AtomSpec(points=((0.0,),), masses=(0.5,))
        for other in (make_grid(1, 2 ** 17, 4.0), make_grid(1, 2 ** 16, 8.0)):
            mask = DomainMask.from_shape(other, {"kind": "interval", "bounds": [-1.0, 1.0]})
            for build in (glued_bubbles, glued_bubble_parts):
                with pytest.raises(InvalidGrid, match="half-width"):
                    build(atoms, 0.25, g, mask, pack, radii=[0.3])

    def test_boundary_atom_snaps_inside(self, glued_ctx):
        g, pack, mask = glued_ctx
        atoms = AtomSpec(points=((1.0,),), masses=(0.5,))
        u = glued_bubbles(atoms, 0.25, g, mask, pack, radii=[0.1])
        peak = g.axis[int(np.argmax(np.abs(u.values)))]
        assert peak < 1.0
        assert abs(peak - 1.0) < 0.05


class TestAtomSpec:
    def test_rejects_total_mass_one(self):
        with pytest.raises(InvalidOrder):
            AtomSpec(points=((0.0,), (0.5,)), masses=(0.5, 0.5))

    def test_rejects_duplicate_points(self):
        with pytest.raises(InvalidOrder):
            AtomSpec(points=((0.1,), (0.1,)), masses=(0.2, 0.2))


@pytest.fixture(scope="module")
def rec_ctx():
    g = make_grid(1, 2 ** 17, 8.0)
    pack = ExponentPack(dim=1, s=0.05)
    mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.0, 1.0]})
    from fracsobolev import cutoff_profile
    bump = mask.restrict(cutoff_profile(np.abs(g.axis + 0.5), 0.225))
    u = Field(grid=g, values=bump)
    u = Field(grid=g, values=bump * np.sqrt(0.25 / hs_dot_norm_sq(u, 0.05)))
    atoms = AtomSpec(points=((0.5,),), masses=(0.5,))
    return g, pack, mask, u, atoms


class TestRecoverySequence:

    def test_no_atoms_returns_base_field(self, rec_ctx):
        g, pack, mask, u, _ = rec_ctx
        empty = AtomSpec(points=(), masses=())
        ubar = recovery_sequence(u, empty, 0.05, 0.25, mask, pack)
        assert np.array_equal(ubar.values, u.values)

    def test_zero_base_reduces_to_glued(self, rec_ctx):
        g, pack, mask, _, atoms = rec_ctx
        zero = Field(grid=g, values=np.zeros(g.shape))
        sigma = 0.05
        ubar = recovery_sequence(zero, atoms, sigma, 0.25, mask, pack)
        glued = glued_bubbles(atoms, 0.25, g, mask, pack, radii=[sigma / 2.0])
        assert np.array_equal(ubar.values, glued.values)

    def test_disjoint_supports(self, rec_ctx):
        g, pack, mask, u, atoms = rec_ctx
        sigma = 0.05
        ubar = recovery_sequence(u, atoms, sigma, 0.25, mask, pack)
        glued = glued_bubbles(atoms, 0.25, g, mask, pack, radii=[sigma / 2.0])
        overlap = (np.abs(ubar.values - glued.values) > 0) & (np.abs(glued.values) > 0)
        assert not np.any(np.abs(u.values[overlap]) > 0)

    def test_budget_enforced(self, rec_ctx):
        g, pack, mask, u, _ = rec_ctx
        fat = AtomSpec(points=((0.5,),), masses=(0.8,))  # 0.25 + 0.8 > 1
        with pytest.raises(BudgetExceeded):
            recovery_sequence(u, fat, 0.05, 0.25, mask, pack)

    def test_base_field_outside_mask_raises(self, rec_ctx):
        g, pack, mask, u, atoms = rec_ctx
        vals = u.values.copy()
        vals[0] = 1e-3
        with pytest.raises(InvalidMask):
            recovery_sequence(Field(grid=g, values=vals), atoms, 0.05, 0.25, mask, pack)

    def test_mask_on_another_grid_raises(self, rec_ctx):
        # equal M, twice L: the mask holds the cells of [-1, 1] on the grid of
        # u, so u vanishes outside it, but the two sample different points
        g, pack, _, u, atoms = rec_ctx
        other = make_grid(1, g.points_per_dim, 2.0 * g.half_width)
        mask = DomainMask.from_shape(other, {"kind": "interval", "bounds": [-2.0, 2.0]})
        with pytest.raises(InvalidGrid) as err:
            recovery_sequence(u, atoms, 0.05, 0.25, mask, pack)
        assert "half-width 8" in str(err.value) and "half-width 16" in str(err.value)

    def test_budget_stays_below_one_and_stable(self, rec_ctx):
        g, pack, mask, u, atoms = rec_ctx
        sigma = 0.05
        budgets = []
        for eps in (0.5, 0.25, 0.125, 1 / 16):
            ubar = recovery_sequence(u, atoms, sigma, eps, mask, pack)
            budgets.append(hs_dot_norm_sq(ubar, pack.s))
        assert all(b <= 1.0 for b in budgets)
        # non-increasing within 1% noise per step along the schedule
        for a, b in zip(budgets, budgets[1:]):
            assert b <= a + 0.01 * a


@pytest.fixture(scope="module")
def opt_ctx():
    g = make_grid(1, 2 ** 15, 8.0)
    pack = ExponentPack(dim=1, s=0.1)
    mask = DomainMask.from_shape(g, {"kind": "interval", "bounds": [-1.5, 1.5]})
    return g, pack, mask


class TestQuotientOptimality:
    """Localized bubbles dominate the quotient over a battery of non-bubble
    fields, and the quotient is insensitive to placement and scale."""

    def _bubble_quotient(self, g, pack, mask, center=0.0, lam=0.05, eps=0.125):
        from fracsobolev import sobolev_quotient
        spec = BubbleSpec(amplitude=1.0, scale=lam, center=(center,), pack=pack)
        cut = CutoffSpec(center=(center,), inner_radius=0.5)
        v, _ = localized_bubble(spec, cut, eps, g)
        return sobolev_quotient(v, pack, mask)

    def test_bubble_beats_battery(self, opt_ctx):
        from fracsobolev import sobolev_quotient, cutoff_profile, Field
        g, pack, mask = opt_ctx
        q_bubble = self._bubble_quotient(g, pack, mask)
        Sstar = sobolev_constant(1, 0.1)
        rng = np.random.default_rng(5)
        battery = []
        for kind in range(6):
            if kind < 2:
                vals = mask.restrict(rng.standard_normal(g.shape))
            elif kind < 4:
                vals = mask.restrict(cutoff_profile(np.abs(g.axis - 0.2 * kind),
                                                    0.3 + 0.1 * kind))
            else:
                vals = mask.restrict(np.sin(3 * kind * g.axis)
                                     * cutoff_profile(np.abs(g.axis), 0.6))
            battery.append(sobolev_quotient(Field(grid=g, values=vals), pack, mask))
        assert q_bubble >= max(battery) - 0.02 * Sstar
        assert q_bubble <= 1.05 * Sstar

    def test_translation_dilation_invariance(self, opt_ctx):
        g, pack, mask = opt_ctx
        qs = [self._bubble_quotient(g, pack, mask, center=c, lam=lam)
              for c in (0.0, 0.1, -0.15) for lam in (0.04, 0.05, 0.0625)]
        qs = np.array(qs)
        assert (qs.max() - qs.min()) / qs.mean() < 0.01


def test_bubble_center_must_lie_inside_box(grid1d):
    pack = ExponentPack(dim=1, s=0.25)
    spec = BubbleSpec(amplitude=1.0, scale=0.5, center=(9.0,), pack=pack)
    with pytest.raises(InvalidOrder):
        talenti_bubble(spec, grid1d)
