"""Action of T and its commutators on constants, two ways.

The direct route evaluates [T, a]_slot(1, 1) with the generic
commutator machinery.  The decomposition route uses the fundamental
theorem of calculus on the symbol: with sigma(x, xi, eta) -
sigma(x, 0, 0) = xi sigma_1 + eta sigma_2 (one component per frequency
block in 1D), the commutator on constants collapses to

    [T, a]_1(1, 1) = T_{sigma_1}(D a, 1),
    [T, a]_2(1, 1) = T_{sigma_2}(1, D a),

with D = -i d/dx.  The routes agree exactly on the grid once the
unpaired highest mode of a — invisible to D — is projected out.

Bounded mean oscillation of the commutator images and of their
transpose images (1, 1) is reported per dyadic scale.  The transposes
are applied matrix-free (operator.transpose reads the commutator's
trilinear form in another slot), so no N^3 tensor is built; plateaued
cumulative values as the scale depth grows are the finite-grid face of
membership in BMO.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BudgetError, InvalidInputError, ToleranceError
from ..grid import (GridFunction, SpectralFunction, fft_forward, fft_inverse,
                    spectral_derivative)
from ..operator import (BilinearOperator, apply, commutator, make_operator,
                        transpose)
from ..symbols import ftc_decompose
from ..verdict import IDENTITY_TOL, PLATEAU_REL, ROUNDOFF_FLOOR, Bound, check
from .bmo import BmoReport, bmo_norm


@dataclass(frozen=True)
class T1Report:
    symbol: str
    grid_points: int
    route_gaps: dict            # "slot1"/"slot2" -> sup|direct - decomposition|
    closed_form_error: float | None
    bmo: dict                   # image name -> BmoReport
    plateaued: dict             # image name -> bool
    decomposition_available: bool
    verdict: str
    bounds: tuple


def project_top_mode(a: GridFunction) -> GridFunction:
    """Zero the unpaired -N/2 mode (per axis); D is blind to it."""
    spec = fft_forward(a)
    vals = spec.coefficients.copy()
    n = a.grid.points_per_axis
    for d in range(a.grid.dim):
        sl = [slice(None)] * a.grid.dim
        sl[d] = n // 2
        vals[tuple(sl)] = 0.0
    return fft_inverse(SpectralFunction(a.grid, vals))


def _plateau(name: str, report: BmoReport) -> Bound:
    """Rise of the cumulative BMO value over its last two scales against
    PLATEAU_REL of its top (0 below three scales or at a roundoff top)."""
    cum = report.cumulative
    top = cum[-1]
    rise = 0.0 if len(cum) < 3 or top <= ROUNDOFF_FLOOR else top - cum[-3]
    return check(f"{name}_plateau", rise, "<=", PLATEAU_REL * top, floor=ROUNDOFF_FLOOR)


def check_t1_conditions(T: BilinearOperator, a: GridFunction,
                        quad_points: int = 96) -> T1Report:
    """Compare commutator-on-constants routes (within IDENTITY_TOL) and report
    mean oscillation."""
    grid = T.grid
    if grid.dim != 1:
        raise InvalidInputError("the constants check is implemented for 1D")
    if a.grid != grid:
        raise InvalidInputError("multiplier lives on a different grid")
    sigma = T.sigma
    a = project_top_mode(a)
    da = spectral_derivative(a, 0)
    one = GridFunction(grid, np.ones(grid.shape, dtype=complex))

    com1 = commutator(T, 1, a)
    com2 = commutator(T, 2, a)
    slot1 = apply(com1, one, one)
    slot2 = apply(com2, one, one)

    route_gaps = {}
    decomposition_available = True
    try:
        comp_xi, comp_eta = ftc_decompose(sigma, quad_points=quad_points,
                                          guard=False, period=grid.period)
        slot1_dec = apply(make_operator(comp_xi, grid), da, one)
        slot2_dec = apply(make_operator(comp_eta, grid), one, da)
        route_gaps["slot1"] = float(np.max(np.abs(slot1.values - slot1_dec.values)))
        route_gaps["slot2"] = float(np.max(np.abs(slot2.values - slot2_dec.values)))
    except (BudgetError, ToleranceError):  # routes over budget or not converged
        decomposition_available = False

    closed_form_error = None
    if sigma.name == "xi":
        # T(f, g) = (D f) g makes [T, a]_1(1, 1) = D a exactly
        closed_form_error = float(np.max(np.abs(slot1.values - da.values)))
    elif sigma.name == "eta":
        closed_form_error = float(np.max(np.abs(slot2.values - da.values)))

    bmo = {"slot1": bmo_norm(slot1), "slot2": bmo_norm(slot2)}
    for name, com in (("slot1", com1), ("slot2", com2)):
        for i in (1, 2):
            bmo[f"{name}_star{i}"] = bmo_norm(apply(transpose(com, i), one, one))

    bounds = [_plateau(k, v) for k, v in bmo.items()]
    if decomposition_available:
        bounds.append(check("route_gap", max(route_gaps.values()), "<=", IDENTITY_TOL))
    if closed_form_error is not None:
        bounds.append(check("closed_form_error", closed_form_error, "<=", ROUNDOFF_FLOOR))
    return T1Report(symbol=sigma.name, grid_points=grid.points_per_axis,
                    route_gaps=route_gaps, closed_form_error=closed_form_error,
                    bmo=bmo, plateaued={k: b.holds for k, b in zip(bmo, bounds)},
                    decomposition_available=decomposition_available,
                    verdict="PASS" if all(b.holds for b in bounds) else "FAILED",
                    bounds=tuple(bounds))
