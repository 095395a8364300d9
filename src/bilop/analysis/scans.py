"""Norm-growth scans over frequency-parameterized input families.

The observable is the ratio ||U(f_k, g_k)||_r / (||f_k||_p ||g_k||_q)
as the frequency parameter k climbs, with (p, q, r) a Holder triple.
A log-log slope near one is the signature of an order-one symbol; a
flat curve is boundedness.  The same families feed the fractional
Leibniz (Kato-Ponce) ratio check, which needs no bilinear machinery —
only the grid's fractional derivative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..grid import Grid, GridFunction, fractional_derivative, lp_norm
from ..operator import apply, commutator, make_operator
from ..parallel import thread_map
from ..symbols import FAMILY_NAMES
from ..verdict import (RATIO_BUDGET, SLOPE_BOUNDED, SLOPE_GROWING, SUP_BUDGET,
                       check, log_fit, spread)
from .bumps import bump


def holder_r(p: float, q: float) -> float:
    """r with 1/p + 1/q = 1/r."""
    if p < 1 or q < 1:
        raise InvalidInputError(f"exponents must be >= 1, got ({p}, {q})")
    return 1.0 / (1.0 / p + 1.0 / q)


def family_member(name: str, grid: Grid, k: int, seed: int = 0,
                  width: float | None = None, order: int = 2) -> GridFunction:
    """Input with frequency parameter k from one of the named families."""
    if name not in FAMILY_NAMES:
        raise InvalidInputError(f"family must be one of {FAMILY_NAMES}, got {name!r}")
    if k < 1:
        raise InvalidInputError(f"frequency parameter must be >= 1, got {k}")
    L = grid.period
    base = 2 * np.pi / L
    mesh = grid.node_mesh()
    phase_arg = sum(mesh)  # modulate along the diagonal in 2D
    if name == "plane-wave":
        return GridFunction(grid, np.exp(1j * k * base * phase_arg))
    if name == "modulated-bump":
        phi = bump(grid, np.full(grid.dim, L / 2), width or L / 8, order)
        return GridFunction(grid, phi.values * np.exp(1j * k * base * phase_arg))
    # random-trig: random coefficients on the modes 1..k of each axis
    if k >= grid.points_per_axis // 2:
        raise InvalidInputError(f"mode budget {k} exceeds the grid's band")
    rng = np.random.default_rng(1000003 * seed + k)
    coeff = np.zeros(grid.shape, dtype=complex)
    m = np.fft.fftfreq(grid.points_per_axis, d=1.0 / grid.points_per_axis)
    mesh = np.abs(np.meshgrid(*[m] * grid.dim, indexing="ij"))
    band = (np.max(mesh, axis=0) <= k) & np.any(mesh != 0, axis=0)
    count = int(band.sum())
    coeff[band] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals = np.fft.ifftn(coeff)
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class NormScanReport:
    triple: tuple
    family: str
    k_values: tuple
    ratios: tuple
    slope: float
    max_min_ratio: float
    verdict: str
    bounds: tuple


def k_ladder(k_values) -> tuple:
    """The k values as ints; a slope or a max/min ratio needs two of them."""
    ks = tuple(int(k) for k in k_values)
    if len(ks) < 2:
        raise InvalidInputError(f"a growth verdict needs >= 2 k values, got {len(ks)}")
    return ks


def norm_scan(U, p: float, q: float, family: str = "modulated-bump",
              k_values=tuple(range(1, 65)), seed: int = 0) -> NormScanReport:
    r = holder_r(p, q)
    grid = U.grid
    k_values = k_ladder(k_values)

    def ratio_at(k):
        f = family_member(family, grid, k, seed=seed)
        g = family_member(family, grid, k, seed=seed + 1)
        out = apply(U, f, g)
        return lp_norm(out, r) / (lp_norm(f, p) * lp_norm(g, q))

    ratios = thread_map(ratio_at, k_values)
    slope = log_fit(k_values, ratios)[0]
    max_min = spread(ratios)
    flat = check("growing_slope", slope, "<", SLOPE_GROWING)
    bounds = (flat, check("bounded_slope", slope, "<=", SLOPE_BOUNDED),
              check("max_min_ratio", max_min, "<", RATIO_BUDGET))
    if not flat.holds:
        verdict = "GROWING"
    elif all(b.holds for b in bounds):
        verdict = "BOUNDED"
    else:
        verdict = "INCONCLUSIVE"
    return NormScanReport(triple=(p, q, r), family=family, k_values=k_values,
                          ratios=tuple(float(v) for v in ratios), slope=slope,
                          max_min_ratio=max_min, verdict=verdict, bounds=bounds)


@dataclass(frozen=True)
class SmoothingContrastReport:
    base: NormScanReport
    slot1: NormScanReport
    slot2: NormScanReport
    verdict: str


def smoothing_contrast(sigma, a: GridFunction, p: float = 4.0, q: float = 4.0,
                       family: str = "modulated-bump",
                       k_values=tuple(range(1, 65)), seed: int = 0) -> SmoothingContrastReport:
    """Base operator grows with k while both commutator slots stay flat."""
    grid = a.grid
    T = make_operator(sigma, grid)
    base = norm_scan(T, p, q, family, k_values, seed)
    slot1 = norm_scan(commutator(T, 1, a), p, q, family, k_values, seed)
    slot2 = norm_scan(commutator(T, 2, a), p, q, family, k_values, seed)
    ok = base.verdict == "GROWING" and slot1.verdict == slot2.verdict == "BOUNDED"
    return SmoothingContrastReport(base=base, slot1=slot1, slot2=slot2,
                                   verdict="PASS" if ok else "FAILED")


@dataclass(frozen=True)
class KatoPonceReport:
    alpha: float
    triple: tuple
    family: str
    k_values: tuple
    ratios: tuple
    slope: float
    budget: float
    verdict: str
    bounds: tuple


def kato_ponce_check(alpha: float, p: float, q: float, grid: Grid,
                     family: str = "modulated-bump",
                     k_values=tuple(range(1, 65)), seed: int = 0) -> KatoPonceReport:
    """Fractional Leibniz ratio ||D^a(fg)||_r over the sum of cross terms,
    with r = holder_r(p, q)."""
    if alpha <= 0:
        raise InvalidInputError(f"alpha must be positive, got {alpha}")
    r = holder_r(p, q)
    k_values = k_ladder(k_values)

    def ratio_at(k):
        f = family_member(family, grid, k, seed=seed)
        g = family_member(family, grid, k, seed=seed + 1)
        prod = GridFunction(grid, f.values * g.values)
        num = lp_norm(fractional_derivative(prod, alpha), r)
        den = (lp_norm(fractional_derivative(f, alpha), p) * lp_norm(g, q)
               + lp_norm(f, p) * lp_norm(fractional_derivative(g, alpha), q))
        return num / den

    ratios = thread_map(ratio_at, k_values)
    slope = log_fit(k_values, ratios)[0]
    bounds = (check("max_ratio", max(ratios), "<", SUP_BUDGET),
              check("slope", slope, "<", SLOPE_BOUNDED))
    return KatoPonceReport(alpha=float(alpha), triple=(p, q, r), family=family,
                           k_values=k_values, ratios=tuple(float(v) for v in ratios),
                           slope=slope, budget=SUP_BUDGET,
                           verdict="PASS" if all(b.holds for b in bounds) else "FAILED",
                           bounds=bounds)
