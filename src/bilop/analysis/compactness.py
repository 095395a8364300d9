"""Finite-sample compactness evidence for commutator operators.

Genuine precompactness of {U(f, g) : ||f||_p, ||g||_q <= 1} cannot be
decided on a grid.  What can be measured, in the spirit of the
Frechet-Kolmogorov criterion, is (i) a uniform bound on output norms,
(ii) a translation-equicontinuity curve h -> sup_i ||u_i(.+h) - u_i||_r
over a random input family, and (iii) greedy epsilon-covering counts of
the output set, all taken over the family stacked into one array.  The
verdict is purely comparative: a smooth, compactly supported multiplier
should dominate a rough bounded one in both measures on the same inputs,
and the strongest statement the probe ever makes is "consistent with
compactness".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..grid import lp_norm, lp_norms
from ..operator import apply
from ..parallel import thread_map
from ..verdict import COVER_SHRINK, ZERO_FLOOR, check
from .scans import family_member, holder_r

EPS_FRACTIONS = (0.5, 0.2, 0.1)
COVER_EPS = 0.2  # the eps fraction whose covering counts are compared


@dataclass(frozen=True)
class CompactnessProbe:
    multiplier_kind: str
    family_size: int
    triple: tuple
    output_norms: tuple
    shifts: tuple           # translation offsets (in nodes)
    equicontinuity: tuple   # sup_i ||u_i(.+h) - u_i||_r per shift
    covering: dict          # eps fraction -> greedy covering count
    max_norm: float
    outputs: tuple = ()     # raw output functions, kept for paired comparison


def _greedy_covering_counts(grid, stack: np.ndarray, r: float, scale: float) -> dict:
    """Greedy covering count of the stacked outputs at each eps fraction of scale."""
    distances = np.array([lp_norms(grid, stack - u, r) for u in stack])
    counts = {}
    for frac in EPS_FRACTIONS:
        centers = []
        for i, row in enumerate(distances):
            if np.all(row[centers] > frac * scale):
                centers.append(i)
        counts[frac] = len(centers)
    return counts


def compactness_probe(U, multiplier_kind: str, family_size: int = 50,
                      p: float = 4.0, q: float = 4.0, mode_budget: int = 32,
                      shifts=None, seed: int = 0) -> CompactnessProbe:
    """U on a random family with ||f||_p = ||g||_q = 1, in L^r for r = holder_r(p, q)."""
    if family_size < 50:
        raise InvalidInputError(f"need family_size >= 50, got {family_size}")
    r = holder_r(p, q)
    grid = U.grid
    n_axis = grid.points_per_axis
    if shifts is None:
        shifts = []
        s = 1
        while s <= n_axis // 8:
            shifts.append(s)
            s *= 2
    shifts = tuple(int(s) for s in shifts)

    def output_at(i):
        f = family_member("random-trig", grid, mode_budget, seed=seed + 2 * i)
        g = family_member("random-trig", grid, mode_budget, seed=seed + 2 * i + 1)
        f = type(f)(grid, f.values / lp_norm(f, p))
        g = type(g)(grid, g.values / lp_norm(g, q))
        return apply(U, f, g)

    outputs = thread_map(output_at, range(family_size))
    stack = np.stack([u.values for u in outputs])
    norms = tuple(lp_norms(grid, stack, r).tolist())
    max_norm = float(max(norms))
    axes = tuple(range(1, grid.dim + 1))
    curve = [float(np.max(lp_norms(grid, np.roll(stack, -s, axis=axes) - stack, r)))
             for s in shifts]
    covering = _greedy_covering_counts(grid, stack, r, max_norm)

    return CompactnessProbe(multiplier_kind=multiplier_kind,
                            family_size=family_size, triple=(p, q, r),
                            output_norms=norms, shifts=shifts,
                            equicontinuity=tuple(curve), covering=covering,
                            max_norm=max_norm, outputs=tuple(outputs))


@dataclass(frozen=True)
class CompactnessComparison:
    smooth: CompactnessProbe
    rough: CompactnessProbe
    curve_dominated: bool
    shared_covering: dict   # eps fraction -> (smooth count, rough count)
    covering_halved: bool
    verdict: str
    bounds: tuple


def compare_probes(smooth: CompactnessProbe, rough: CompactnessProbe) -> CompactnessComparison:
    """Comparative verdict; the language never claims more than consistency.

    Covering counts are recomputed at a shared epsilon scale (fractions of
    the larger max norm): per-probe scales would shrink epsilon along with
    the outputs and hide exactly the collapse being tested for.
    """
    if smooth.shifts != rough.shifts or smooth.family_size != rough.family_size:
        raise InvalidInputError("probes must share shifts and family size")
    if not smooth.outputs or not rough.outputs:
        raise InvalidInputError("probes must carry their outputs for comparison")
    r = smooth.triple[2]
    scale = max(smooth.max_norm, rough.max_norm)
    counts = [_greedy_covering_counts(p.outputs[0].grid, np.stack([u.values for u in p.outputs]),
                                      r, scale) for p in (smooth, rough)]
    shared = {frac: (counts[0][frac], counts[1][frac]) for frac in EPS_FRACTIONS}
    excess = max((a - b for a, b in zip(smooth.equicontinuity, rough.equicontinuity)),
                 default=0.0)
    cover_smooth, cover_rough = shared[COVER_EPS]
    bounds = (check("curve_excess", excess, "<=", ZERO_FLOOR, floor=ZERO_FLOOR),
              # integer counts: "<=" against "<" changes outcomes here
              check("covering_count", cover_smooth, "<=", cover_rough * COVER_SHRINK))
    ok = all(b.holds for b in bounds)
    return CompactnessComparison(smooth=smooth, rough=rough,
                                 curve_dominated=bounds[0].holds,
                                 shared_covering=shared,
                                 covering_halved=bounds[1].holds,
                                 verdict="consistent with compactness" if ok else "inconclusive",
                                 bounds=bounds)
