"""Dyadic mean-oscillation estimates on the periodic grid.

For each dyadic scale s the grid splits exactly into 2^{s n} congruent
boxes (the point count per axis is a power of two).  The mean
oscillation of u over a box Q is mean_Q |u - mean_Q u|; the estimate
of the BMO seminorm at depth s_max is the max over all boxes of all
scales s <= s_max, so it is monotone non-decreasing in s_max.
Constants score zero at every scale.

The per-scale profile separates rough-but-bounded oscillation (flat
profile) from oscillation vanishing at fine scales (the compact,
CMO-like signature).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..grid import GridFunction


@dataclass(frozen=True)
class BmoReport:
    scales: tuple          # dyadic scale indices s (box side = period / 2^s)
    per_scale: tuple       # max mean oscillation over boxes at each scale
    cumulative: tuple      # running max over scales <= s
    value: float           # cumulative at the deepest scale

    def fine_scale_tail(self, count: int = 3) -> float:
        """Max oscillation over the `count` finest scales."""
        return float(max(self.per_scale[-count:]))


def _box_view(values: np.ndarray, boxes_per_axis: int) -> np.ndarray:
    """Reshape so leading axes index boxes and trailing axes run inside one."""
    dim = values.ndim
    n = values.shape[0]
    side = n // boxes_per_axis
    shape = []
    for _ in range(dim):
        shape.extend([boxes_per_axis, side])
    v = values.reshape(shape)
    # order: all box indices first, then all in-box axes
    perm = list(range(0, 2 * dim, 2)) + list(range(1, 2 * dim, 2))
    return np.transpose(v, perm)


def bmo_norm(u: GridFunction, s_max: int | None = None) -> BmoReport:
    grid = u.grid
    n_levels = int(np.log2(grid.points_per_axis))
    if s_max is None:
        s_max = n_levels - 1  # finest useful boxes hold 2 points per axis
    if not 0 <= s_max <= n_levels:
        raise InvalidInputError(f"s_max must lie in [0, {n_levels}], got {s_max}")
    vals = u.values
    scales, per_scale, cumulative = [], [], []
    for s in range(s_max + 1):
        view = _box_view(vals, 2 ** s)
        inbox = tuple(range(grid.dim, 2 * grid.dim))
        means = view.mean(axis=inbox, keepdims=True)
        osc = np.abs(view - means).mean(axis=inbox)
        scales.append(s)
        per_scale.append(float(osc.max()))
        cumulative.append(max(per_scale))
    return BmoReport(scales=tuple(scales), per_scale=tuple(per_scale),
                     cumulative=tuple(cumulative), value=cumulative[-1])
