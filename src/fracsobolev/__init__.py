"""Pseudo-spectral toolkit for fractional Sobolev embeddings on periodic boxes:
sharp constants and extremal bubbles, subcritical maximizers on bounded
domains, and concentration diagnostics."""

from .errors import (BudgetExceeded, ConfigError, ConstraintViolated,
                     DegenerateInput, FracSobolevError, InnerSolveFailed,
                     InvalidGrid, InvalidMask, InvalidOrder,
                     NegativeOrderOnNonMeanZero, OverlappingAtoms, TailTooFat,
                     UnderResolved, UnsupportedOrder)
from .spectral import (Field, Grid, SpectralField, apply_multiplier,
                       field_from_bytes, field_to_bytes, forward_transform,
                       frac_power, make_grid, offset_convolve)
from .norms import (DomainMask, ExponentPack, critical_exponent,
                    gagliardo_seminorm_sq, hoelder_envelope, hs_dot_norm_sq,
                    lp_integral, sobolev_constant, sobolev_quotient,
                    subcritical_value)
from .extremals import (AtomSpec, BubbleSpec, CutoffSpec, cutoff_field,
                        cutoff_profile, glued_bubble_parts, glued_bubbles,
                        localized_bubble, recovery_sequence, rescaled_bubble,
                        talenti_bubble)
from .solver import (SolveResult, SolverConfig, SweepEntry, el_residual,
                     eps_sweep, solve)
from .diagnostics import (AtomEntry, AtomList, CellMeasure, atom_detect,
                          commutator_residual, cutoff_convergence_probe,
                          energy_density, gamma_limit_value, lp_density,
                          mass_in_ball, tail_energy, top_octave_share)

__version__ = "0.1.0"
