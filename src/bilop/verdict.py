"""Verdict policy: the fit, the spread, the floors and cut-offs of every check.

The paper's theorem is a set of uniform bounds, so every bilop verdict is a
statistic compared with a cut-off: a log-log growth slope, a max/min spread
across scales, a residual or a gap.  This module holds the one fit, the one
spread and each floor and cut-off, defined once, and the Bound record that
carries a statistic, its cut-off and the signed margin between them into a
report.  It imports only numpy, so every layer can use it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# floors: at or below them a value is zero to roundoff
ZERO_FLOOR = 1e-14      # a sup over scales (or a gradient, or a curve excess)
ROUNDOFF_FLOOR = 1e-10  # a BMO top, or the error of a closed form (T1 of xi and eta)
TINY = 1e-300           # guards a division by a value that may be zero

# cut-offs
IDENTITY_TOL = 1e-8     # two routes to one exact value (transpose pairings, the T1
                        # routes, an FTC reconstruction) agree within it
SLOPE_GROWING = 0.8     # a log-log slope at or above it is growth of order ~1
SLOPE_BOUNDED = 0.2     # a log-log slope at or below it (norm scan, seminorms) is flat
RATIO_BUDGET = 4.0      # max/min of a bounded family across scales stays below it
SUP_BUDGET = 10.0       # sup of a normalized ratio (Kato-Ponce, Calderon) stays below it
STABILITY_BUDGET = 2.0  # max/min of CZ kernel sups across octaves stays below it
GAP_BUDGET = 0.2        # relative gap of the converse |D a| reading
R2_MIN = 0.9            # a decay fit with r^2 below it is inconclusive
EXPONENT_SLACK = 0.3    # a decay exponent may exceed its target by this much
PLATEAU_REL = 0.05      # BMO growth over the last two scales, relative to the top
COVER_SHRINK = 0.5      # the smooth covering count is at most this share of the rough
INCREMENT_RATIO_CUTOFF = 0.5  # a singular symbol's near-zero increment keeps above
                              # this share of the one before
INCREMENT_FLOOR = 1e-9  # relative to max(m_k); below it a near-zero increment is roundoff

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Bound:
    """One verdict statistic against its cut-off.

    holds is the check's own comparison ("<" or "<=", or ">" or ">=" for a
    lower bound); margin is signed to be positive on the passing side, so
    it is 0 at the cut-off, where holds tells "<" from "<=".  floor, when
    set, is the roundoff floor at or below which the check's scale counts
    as zero.
    """

    name: str
    statistic: float
    cutoff: float
    margin: float
    holds: bool
    floor: float | None = None


def check(name: str, statistic, op: str, cutoff, floor: float | None = None) -> Bound:
    """Bound of `statistic op cutoff`."""
    statistic, cutoff = float(statistic), float(cutoff)
    margin = cutoff - statistic if op in ("<", "<=") else statistic - cutoff
    return Bound(name, statistic, cutoff, margin, bool(_OPS[op](statistic, cutoff)), floor)


def log_fit(scales, values) -> tuple:
    """(slope, intercept, r^2) of the least-squares line through (log scale, log value).

    Values <= 0 (and NaN) are dropped.  Below two points the slope is 0, the
    intercept the log of the one value (-inf with none) and r^2 is 0, as it
    is for values that do not vary.
    """
    x, y = np.asarray(scales, dtype=float), np.asarray(values, dtype=float)
    keep = y > 0
    lx, ly = np.log(x[keep]), np.log(y[keep])
    if lx.size < 2:
        return 0.0, float(ly[0]) if ly.size else -np.inf, 0.0
    slope, intercept = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def spread(values) -> float:
    """max/min of nonnegative values, or 1.0 when the max is at or below ZERO_FLOOR."""
    top = max(values, default=0.0)
    if top <= ZERO_FLOOR:
        return 1.0  # the family vanishes at every scale
    return float(top / max(min(values), TINY))
