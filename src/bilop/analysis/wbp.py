"""Weak boundedness scan: bump pairings across scales.

For normalized bumps phi_i of radius t the pairing

    P(t) = |<T(phi_1, phi_2), phi_3>|

of a weakly bounded operator is O(t^n) uniformly in t and in the bump
centers, so C(t) = P(t)/t^n should stay within a fixed band across a
scan of scales.  Two center geometries: all bumps at one point, and
the first bump separated from the others by 4t (far enough that only
the off-diagonal kernel contributes).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, InvalidInputError
from ..operator import apply, pairing
from ..verdict import RATIO_BUDGET, ZERO_FLOOR, check, spread
from .bumps import bump

CONFIGS = ("common-center", "separated")


@dataclass(frozen=True)
class WbpReport:
    config: str
    order: int
    scales: tuple
    pairings: tuple        # P(t)
    constants: tuple       # C(t) = P(t) / t^n
    ratio: float           # max C / min C
    verdict: str
    bounds: tuple


def default_scales(period: float) -> tuple:
    return (period / 16, period / 32, period / 64, period / 128)


def wbp_scan(T, order: int = 2, scales=None, config: str = "common-center",
             center: float | None = None) -> WbpReport:
    grid = T.grid
    L = grid.period
    n = grid.dim
    if config not in CONFIGS:
        raise InvalidInputError(f"config must be one of {CONFIGS}, got {config!r}")
    if order < 2:
        raise InvalidInputError(f"bump order must be >= 2, got {order}")
    scales = tuple(float(t) for t in (scales if scales is not None else default_scales(L)))
    if any(t > L / 8 for t in scales):
        raise DomainError(f"bump scale exceeds L/8 = {L / 8}")
    if max(scales) / min(scales) < 8:
        raise InvalidInputError("scales must span at least 3 octaves")

    # default center avoids the half- and quarter-period points, where odd/even
    # multipliers make every pairing vanish by parity and the scan says nothing
    x0 = 3 * L / 8 if center is None else float(center) % L
    pairings = []
    for t in scales:
        if config == "separated":
            c1 = np.full(n, (x0 + 4 * t) % L)  # beyond the 3t interaction range
        else:
            c1 = np.full(n, x0)
        c23 = np.full(n, x0)
        phi1 = bump(grid, c1, t, order)
        phi2 = bump(grid, c23, t, order)
        phi3 = bump(grid, c23, t, order)
        pairings.append(abs(pairing(apply(T, phi1, phi2), phi3)))

    constants = tuple(p / t ** n for p, t in zip(pairings, scales))
    bound = check("ratio", spread(constants), "<", RATIO_BUDGET, floor=ZERO_FLOOR)
    return WbpReport(config=config, order=order, scales=scales,
                     pairings=tuple(pairings), constants=constants,
                     ratio=bound.statistic, verdict="PASS" if bound.holds else "FAILED",
                     bounds=(bound,))
