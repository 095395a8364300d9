"""Linear warm-ups: the first commutator [|D|, a] and its converse.

With T = |D| (Fourier multiplier |xi|), the commutator
C(a, f) = T(af) - a Tf is bounded on L^2 with norm controlled by the
Lipschitz constant of a, although T itself is of order one.  On pure
modes the commutator is a two-mode closed form, which pins the
implementation exactly.

The converse direction recovers sup |D a| from commutator norms: with
the first-slot derivative symbol, [T, a]_1(f, g) = (D a) f g, so
concentrated bumps read off |D a| at their center.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..grid import Grid, GridFunction, fractional_derivative, lp_norm, spectral_derivative
from ..operator import apply, commutator, make_operator
from ..symbols import catalog_symbol
from ..verdict import GAP_BUDGET, SLOPE_BOUNDED, SUP_BUDGET, ZERO_FLOOR, check, log_fit
from .bumps import bump
from .scans import family_member, k_ladder


def calderon_demo(a: GridFunction, f: GridFunction) -> GridFunction:
    """[T, a] f = T(a f) - a T f with T the |xi| multiplier."""
    if a.grid != f.grid:
        raise InvalidInputError("a and f live on different grids")
    if a.grid.dim != 1:
        raise InvalidInputError("the demo is one-dimensional")
    af = GridFunction(a.grid, a.values * f.values)
    out = fractional_derivative(af, 1.0).values \
        - a.values * fractional_derivative(f, 1.0).values
    return GridFunction(a.grid, out)


def calderon_ratio(a: GridFunction, f: GridFunction) -> float:
    """||[T, a] f||_2 / (||grad a||_inf ||f||_2)."""
    out = calderon_demo(a, f)
    grad_sup = lp_norm(spectral_derivative(a, 0), np.inf)
    denom = grad_sup * lp_norm(f, 2)
    if denom == 0:
        return 0.0
    return lp_norm(out, 2) / denom


@dataclass(frozen=True)
class CalderonScanReport:
    k_values: tuple
    ratios: tuple
    slope: float
    verdict: str
    bounds: tuple


def calderon_scan(a: GridFunction, k_values=tuple(range(1, 65)),
                  family: str = "modulated-bump", seed: int = 0) -> CalderonScanReport:
    """Commutator-to-Lipschitz ratio across the frequency ladder."""
    grid = a.grid
    k_values = k_ladder(k_values)
    ratios = [calderon_ratio(a, family_member(family, grid, k, seed=seed))
              for k in k_values]
    slope = log_fit(k_values, ratios)[0]
    bounds = (check("slope", slope, "<", SLOPE_BOUNDED),
              check("max_ratio", max(ratios), "<", SUP_BUDGET))
    return CalderonScanReport(k_values=k_values,
                              ratios=tuple(ratios), slope=slope,
                              verdict="PASS" if all(b.holds for b in bounds) else "FAILED",
                              bounds=bounds)


@dataclass(frozen=True)
class ConverseReport:
    width: float
    centers: tuple
    estimates: tuple        # per-center operator-side |D a| readings
    operator_estimate: float
    gradient_sup: float
    relative_gap: float
    verdict: str
    bounds: tuple


def converse_check(a: GridFunction, width: float | None = None,
                   center_count: int = 32, order: int = 2) -> ConverseReport:
    """Recover sup |D a| from first-slot commutator norms on bump pairs."""
    grid = a.grid
    if grid.dim != 1:
        raise InvalidInputError("the converse check is one-dimensional")
    if center_count < 1:
        raise InvalidInputError(f"need >= 1 center, got {center_count}")
    L = grid.period
    if width is None:
        width = L / 32
    T = make_operator(catalog_symbol("xi", dim=1), grid)

    com = commutator(T, 1, a)
    centers = tuple(L * i / center_count for i in range(center_count))
    estimates = []
    for c in centers:
        phi = bump(grid, c, width, order)
        out = apply(com, phi, phi)
        denom = lp_norm(phi, 4) ** 2
        estimates.append(lp_norm(out, 2) / denom)
    operator_estimate = float(max(estimates))
    gradient_sup = lp_norm(spectral_derivative(a, 0), np.inf)
    # at a zero gradient both should vanish together
    gap = (abs(operator_estimate - gradient_sup) / gradient_sup if gradient_sup > ZERO_FLOOR
           else operator_estimate)
    bound = check("relative_gap", gap, "<=", GAP_BUDGET, floor=ZERO_FLOOR)
    return ConverseReport(width=float(width), centers=centers,
                          estimates=tuple(float(e) for e in estimates),
                          operator_estimate=operator_estimate,
                          gradient_sup=float(gradient_sup),
                          relative_gap=bound.statistic,
                          verdict="PASS" if bound.holds else "FAILED", bounds=(bound,))
