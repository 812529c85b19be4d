"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria are limit statements and are checked as limits.  Criterion 1
(the sharp constant) grows the periodic box at fixed spacing and
extrapolates the sampled-bubble quotient to the infinite box; the critical
clause of criterion 4 follows the subcritical value as eps halves toward 0.
README's "Known discretization limits" section carries the measurements.
"""

import time

import numpy as np
import pytest

from fracsobolev import (AtomEntry, AtomList, AtomSpec, BubbleSpec,
                         CutoffSpec, DomainMask, ExponentPack, Field,
                         SolverConfig, atom_detect, commutator_residual,
                         cutoff_convergence_probe, cutoff_field,
                         cutoff_profile, energy_density, eps_sweep,
                         forward_transform, gagliardo_seminorm_sq,
                         gamma_limit_value, glued_bubbles, hs_dot_norm_sq,
                         localized_bubble, lp_density, lp_integral, make_grid,
                         recovery_sequence, sobolev_constant,
                         sobolev_quotient, subcritical_value, talenti_bubble)
from fracsobolev.cli import main as cli_main

from oracles import gradient_ascent_oracle


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- criterion 1: sharp constant reproduction --------------------------------

def _bubble_quotient(N, s, M, L, lam):
    """Lattice Sobolev quotient of the sampled Talenti bubble of scale lam
    on [-L, L)^N with M cells per axis, Omega the box minus two cell layers."""
    grid = make_grid(N, M, L)
    margin = 2.0 * grid.spacing
    mask = DomainMask.from_shape(grid, {
        "kind": "box",
        "lower": [-grid.half_width + margin] * N,
        "upper": [grid.half_width - margin] * N})
    pack = ExponentPack(dim=N, s=s, eps=0.0)
    spec = BubbleSpec(amplitude=1.0, scale=lam, center=(0.0,) * N, pack=pack)
    return sobolev_quotient(talenti_bubble(spec, grid, normalize=True), pack, mask)


# Doublings of the box beyond L = 8*lambda, at the spacing of the L = 8*lambda
# grid: up to L = 8192*lambda (M = 2^19) in 1-D, L = 128*lambda (M = 4096) in 2-D.
LADDER_DOUBLINGS = {1: 10, 2: 4}


@pytest.mark.parametrize("N,s,M", [(1, 0.25, 512), (2, 0.5, 256)])
def test_criterion_1_sharp_constant_reproduction(N, s, M):
    # The lattice norm has nothing below the first frequency pi/L, so a single
    # box overshoots S* by a term of order (lambda/L)^(N-2s).  Double L and M
    # together and extrapolate L -> infinity from the last two rungs.
    t0 = time.time()
    lam = 1.0
    quotients = [_bubble_quotient(N, s, M * 2 ** k, 8.0 * lam * 2 ** k, lam)
                 for k in range(LADDER_DOUBLINGS[N] + 1)]
    ratio = 2.0 ** -(N - 2.0 * s)
    contraction = (quotients[-1] - quotients[-2]) / (quotients[-2] - quotients[-3])
    limit = (quotients[-1] - ratio * quotients[-2]) / (1.0 - ratio)
    Sstar = sobolev_constant(N, s)
    rel = abs(limit - Sstar) / Sstar
    contraction_rel = abs(contraction - ratio) / ratio
    elapsed = time.time() - t0
    ok = _report(f"1 sharp-constant N={N} s={s}",
                 rel <= 0.02 and contraction_rel <= 0.15 and elapsed < 30.0,
                 f"quotient(L=8lam)={quotients[0]:.6g} extrapolated={limit:.6g} "
                 f"S*={Sstar:.6g} rel={rel:.3%} contraction={contraction:.4f} "
                 f"(expected {ratio:.4f}) t={elapsed:.1f}s")
    assert ok, ("the box-size ladder extrapolated to L=infinity must match the "
                "sharp constant within 2%, with the sub-lattice excess "
                "contracting by 2^-(N-2s) per doubling of L")


# -- criterion 2: scaling invariance ------------------------------------------

def test_criterion_2_scaling_invariance():
    t0 = time.time()
    s, lam = 0.1, 1.0
    grid = make_grid(1, 2 ** 20, 8192.0)
    pack = ExponentPack(dim=1, s=s)
    spec = BubbleSpec(amplitude=1.0, scale=lam, center=(0.0,), pack=pack)
    hs_vals, lp_vals = [], []
    from fracsobolev import rescaled_bubble
    for eps in (1.0, 0.5, 0.25, 0.125):
        w = rescaled_bubble(spec, eps, grid)
        hs_vals.append(hs_dot_norm_sq(w, s))
        lp_vals.append(lp_integral(w, pack.two_star))
    hs_drift = max(abs(v - hs_vals[0]) / hs_vals[0] for v in hs_vals)
    lp_drift = max(abs(v - lp_vals[0]) / lp_vals[0] for v in lp_vals)
    elapsed = time.time() - t0
    ok = _report("2 scaling-invariance",
                 hs_drift < 0.01 and lp_drift < 0.01 and elapsed < 10.0,
                 f"hs_drift={hs_drift:.3%} lp_drift={lp_drift:.3%} t={elapsed:.1f}s")
    assert ok


# -- criterion 3: Gagliardo-Fourier equivalence -------------------------------

def test_criterion_3_gagliardo_fourier_equivalence():
    t0 = time.time()
    grid = make_grid(1, 256, 4.0)
    s = 0.3
    rng = np.random.default_rng(42)
    half = 2.0
    window = cutoff_profile(np.abs(grid.axis), half / 2.0)
    ratios = []
    for _ in range(5):
        f = np.zeros(grid.shape)
        for k in range(1, 7):
            f += rng.standard_normal() * np.cos(np.pi * k * grid.axis / half)
            f += rng.standard_normal() * np.sin(np.pi * k * grid.axis / half)
        u = Field(grid=grid, values=window * f)
        ratios.append(hs_dot_norm_sq(u, s) / gagliardo_seminorm_sq(u, s))
    ratios = np.array(ratios)
    cv = float(ratios.std() / ratios.mean())
    elapsed = time.time() - t0
    ok = _report("3 gagliardo-fourier", cv < 0.01 and elapsed < 60.0,
                 f"CV={cv:.4%} ratio_mean={ratios.mean():.6f} t={elapsed:.1f}s")
    assert ok


# -- criteria 4 & 5: subcritical sweep ----------------------------------------

SWEEP_SCHEDULE = (0.8, 0.4, 0.2, 0.1)


@pytest.fixture(scope="module")
def acceptance_sweep():
    grid = make_grid(1, 512, 8.0)
    mask = DomainMask.from_shape(grid, {"kind": "interval", "bounds": [-1.0, 1.0]})
    pack = ExponentPack(dim=1, s=0.25, eps=SWEEP_SCHEDULE[0])
    config = SolverConfig(eps_schedule=SWEEP_SCHEDULE)
    t0 = time.time()
    entries = eps_sweep(pack, mask, config)
    return grid, mask, pack, entries, time.time() - t0


def test_criterion_4_sweep_bounds_and_oracle(acceptance_sweep):
    grid, mask, pack, entries, sweep_time = acceptance_sweep
    t0 = time.time()
    values = [e.result.value for e in entries]
    envelope_ok = all(e.result.value <= e.envelope * 1.02 for e in entries)
    monotone_ok = all(b >= a * 0.99 for a, b in zip(values, values[1:]))
    _, oracle_value = gradient_ascent_oracle(pack.with_eps(0.8), mask)
    oracle_rel = abs(values[0] - oracle_value) / values[0]
    elapsed = sweep_time + (time.time() - t0)
    ok = _report("4 sweep bounds+oracle",
                 envelope_ok and monotone_ok and oracle_rel <= 0.01 and elapsed < 300.0,
                 f"values={[f'{v:.4f}' for v in values]} oracle_rel={oracle_rel:.3%} "
                 f"t={elapsed:.0f}s")
    assert ok


LIMIT_SCHEDULE = (0.8, 0.4, 0.2, 0.1, 0.05, 0.025)


def test_criterion_4_critical_limit_threshold():
    # S*_eps -> S* is a limit without a rate, so follow eps down by halvings
    # on a grid fine enough to resolve the concentrating maximizer.
    grid = make_grid(1, 2048, 8.0)
    mask = DomainMask.from_shape(grid, {"kind": "interval", "bounds": [-1.0, 1.0]})
    pack = ExponentPack(dim=1, s=0.25, eps=LIMIT_SCHEDULE[0])
    entries = eps_sweep(pack, mask, SolverConfig(eps_schedule=LIMIT_SCHEDULE))
    Sstar = sobolev_constant(1, 0.25)
    converged_ok = all(e.result is not None and e.result.converged for e in entries)
    values = [e.result.value for e in entries if e.result is not None]
    rising_ok = all(b > a for a, b in zip(values, values[1:]))
    final = values[-1]
    ok = _report("4 critical-limit threshold",
                 converged_ok and rising_ok and final >= 0.9 * Sstar,
                 f"value/S*={[f'{v / Sstar:.4f}' for v in values]} "
                 f"at eps={list(LIMIT_SCHEDULE)}")
    assert ok, ("the subcritical value must converge at every eps, rise "
                "strictly as eps halves from 0.8 to 0.025, and reach 0.9 S*")


def test_criterion_5_concentration(acceptance_sweep):
    grid, mask, pack, entries, _ = acceptance_sweep
    masses = [e.mass_r1 for e in entries]
    tails = [e.tail_energy for e in entries]
    mono_ok = all(b >= a - 1e-3 for a, b in zip(masses, masses[1:]))
    final_mass_ok = masses[-1] >= 0.8
    tail_ok = tails[-1] < 0.05
    ok = _report("5 concentration",
                 mono_ok and final_mass_ok and tail_ok,
                 f"mass_r1={[f'{m:.3f}' for m in masses]} tail={tails[-1]:.4f}")
    assert ok


# -- criterion 6: recovery sequence -------------------------------------------

def test_criterion_6_recovery_sequence():
    t0 = time.time()
    grid = make_grid(1, 2 ** 19, 8.0)
    s = 0.05
    pack = ExponentPack(dim=1, s=s)
    mask = DomainMask.from_shape(grid, {"kind": "interval", "bounds": [-1.0, 1.0]})
    bump = mask.restrict(cutoff_profile(np.abs(grid.axis + 0.5), 0.225))
    u = Field(grid=grid, values=bump)
    u = Field(grid=grid, values=bump * np.sqrt(0.25 / hs_dot_norm_sq(u, s)))
    mu1 = 0.5
    atoms = AtomSpec(points=((0.5,),), masses=(mu1,))
    target = lp_integral(u, pack.two_star, mask) + \
        sobolev_constant(1, s) * mu1 ** (pack.two_star / 2.0)
    d_atom = 0.5
    schedule = [(0.4 * d_atom, 1 / 16), (0.2 * d_atom, 1 / 32), (0.1 * d_atom, 1 / 64)]
    feps = budget = None
    for sigma, eps in schedule:
        crit = pack.with_eps(eps)
        ubar = recovery_sequence(u, atoms, sigma, eps, mask, crit)
        feps = subcritical_value(ubar, crit, mask)
        budget = hs_dot_norm_sq(ubar, s)
    rel = abs(feps - target) / target
    elapsed = time.time() - t0
    ok = _report("6 recovery", rel <= 0.05 and budget <= 1.0,
                 f"F={feps:.5f} target={target:.5f} rel={rel:.3%} "
                 f"budget={budget:.4f} t={elapsed:.1f}s")
    assert ok


# -- criterion 7: decay and bound suites ---------------------------------------

def test_criterion_7_decay_and_bound_suites():
    # commutator halving and cutoff decay on a two-dimensional bubble family
    grid2 = make_grid(2, 2048, 4.0)
    pack2 = ExponentPack(dim=2, s=0.3)
    spec2 = BubbleSpec(amplitude=1.0, scale=0.125, center=(0.0, 0.0), pack=pack2)
    cut2 = CutoffSpec(center=(0.0, 0.0), inner_radius=0.5)
    phi2 = cutoff_field(CutoffSpec(center=(0.0, 0.0), inner_radius=1.0), grid2)
    comm = {}
    for eps in (0.5, 0.125):
        v, _ = localized_bubble(spec2, cut2, eps, grid2)
        comm[eps] = commutator_residual(v, phi2, pack2.s)
    halving_ok = comm[0.5] >= 2.0 * comm[0.125]

    # shrinking-branch decay probes a fixed broad field
    grid2b = make_grid(2, 256, 8.0)
    broad_vals = cutoff_profile(grid2b.radii((0.0, 0.0)), 0.8)
    broad = Field(grid=grid2b, values=broad_vals)
    broad = Field(grid=grid2b,
                  values=broad_vals / np.sqrt(hs_dot_norm_sq(broad, pack2.s)))
    cut_b = CutoffSpec(center=(0.0, 0.0), inner_radius=1.0)
    shrink = cutoff_convergence_probe(broad, cut_b, [1.0, 0.5, 0.25, 0.125], pack2.s,
                                      branch="shrink")
    shrink_ok = (all(b < a for a, b in zip(shrink, shrink[1:]))
                 and shrink[0] >= 2.0 * shrink[-1])

    # limit-functional and atom-quantification audits over suite-style pairs
    grid1 = make_grid(1, 2 ** 14, 8.0)
    pack1 = ExponentPack(dim=1, s=0.25)
    mask1 = DomainMask.from_shape(grid1, {"kind": "interval", "bounds": [-1.0, 1.0]})
    Sstar = sobolev_constant(1, 0.25)
    zero = Field(grid=grid1, values=np.zeros(grid1.shape))
    pairs = [
        (zero, AtomList(entries=(AtomEntry(location=(0.0,), mu=1.0, nu=0.0),))),
        (zero, AtomList(entries=())),
    ]
    bump = mask1.restrict(cutoff_profile(np.abs(grid1.axis + 0.5), 0.225))
    ub = Field(grid=grid1, values=bump)
    ub = Field(grid=grid1, values=bump * np.sqrt(0.25 / hs_dot_norm_sq(ub, 0.25)))
    pairs.append((ub, AtomList(entries=(AtomEntry(location=(0.5,), mu=0.5, nu=0.0),))))
    gamma_ok = all(gamma_limit_value(u, al, pack1, mask1) <= Sstar * 1.05
                   for u, al in pairs)

    atoms_in = AtomSpec(points=((-0.5,), (0.5,)), masses=(0.3, 0.4))
    glued = glued_bubbles(atoms_in, 1 / 16, grid1, mask1, pack1.with_eps(1 / 16),
                          radii=[0.24, 0.24])
    mu_m = energy_density(glued, pack1.s)
    nu_m = lp_density(glued, pack1.two_star, mask1)
    detected = atom_detect(mu_m, nu_m, radius=0.3, threshold=0.1)
    quant_ok = len(detected) > 0 and all(
        e.nu <= Sstar * e.mu ** (pack1.two_star / 2.0) * 1.10 for e in detected)

    ok = _report("7 decay+bound suites",
                 halving_ok and shrink_ok and gamma_ok and quant_ok,
                 f"commutator_ratio={comm[0.5] / comm[0.125]:.2f} "
                 f"shrink={[f'{v:.3f}' for v in shrink]} "
                 f"gamma_ok={gamma_ok} atoms={len(detected)}")
    assert ok


# -- criterion 8: infrastructure ----------------------------------------------

def test_criterion_8_infrastructure(tmp_path):
    worst = 0.0
    rng = np.random.default_rng(7)
    for dim, M in ((1, 512), (2, 32)):
        g = make_grid(dim, M, 3.0)
        for _ in range(25):
            u = Field(grid=g, values=rng.standard_normal(g.shape))
            lhs = float(np.sum(np.abs(forward_transform(u).coeffs) ** 2))
            rhs = float(np.sum(u.values ** 2)) * g.cell_volume
            worst = max(worst, abs(lhs - rhs) / rhs)
    plancherel_ok = worst <= 1e-12

    args = ["sweep", "--M", "256", "--eps-schedule", "0.8,0.4", "--seed", "11",
            "--reproducible"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    deterministic = ((tmp_path / "a" / "sweep.csv").read_bytes()
                     == (tmp_path / "b" / "sweep.csv").read_bytes())

    ok = _report("8 infrastructure", plancherel_ok and deterministic,
                 f"plancherel_worst={worst:.2e} byte_identical={deterministic}")
    assert ok
