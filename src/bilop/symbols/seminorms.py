"""Empirical class-seminorm estimation over dyadic frequency shells.

For each derivative triple the ratio

    R(alpha, beta, gamma) = sup |d^alpha_x d^beta_xi d^gamma_eta sigma|
                            * (1 + |xi| + |eta|)^-(m + delta|alpha| - rho(|beta|+|gamma|))

is approximated by sampled maxima over shells max(|xi|,|eta|) in
[2^s, 2^(s+1)); the growth verdict comes from the slope of log2(max)
against s.  The shells never reach zero frequency, so a separate
order-0 entry, near_zero, takes maxima m_k on paths to xi = 0, eta = 0
and the origin at max-norm 2^-k, k = 0..AXIS_DEPTH.  It is "singular" when
a value is non-finite, or when m_20 - m_15 is above a roundoff floor and
exceeds INCREMENT_RATIO_CUTOFF times m_15 - m_10: a power or logarithmic
singularity keeps its increments (ratio 2^5p or 1), while a bounded
symbol settles (ratio 2^-5p for a Hoelder-p limit), however steeply.

The probes of all shells are stacked into (shells, samples) arrays, so each
derivative is evaluated once for every shell, and sigma once for every
near_zero scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from ..verdict import (INCREMENT_FLOOR, INCREMENT_RATIO_CUTOFF, SLOPE_BOUNDED, check,
                       log_fit)
from .core import Symbol, _pack, absnorm

AXIS_DEPTH = 20


@dataclass(frozen=True)
class SeminormEntry:
    alpha: tuple
    beta: tuple
    gamma: tuple
    ratio: float
    slope: float
    verdict: str  # bounded | growing | indeterminate | singular
    shell_max: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class NearZeroEntry(SeminormEntry):
    """The near_zero entry: (m_20 - m_15) / (m_15 - m_10) next to its cut-off."""

    increment_ratio: float = float("nan")
    cutoff: float = INCREMENT_RATIO_CUTOFF


@dataclass(frozen=True)
class SeminormReport:
    symbol: str
    declared_class: tuple
    box: float
    shells: tuple
    samples: int
    max_order: int
    entries: tuple
    near_zero: NearZeroEntry
    verdict: str  # BOUNDED when every entry and near_zero are bounded, else FAILED
    bounds: tuple

    def entry(self, alpha, beta, gamma) -> SeminormEntry:
        for e in self.entries:
            if (e.alpha, e.beta, e.gamma) == (alpha, beta, gamma):
                return e
        raise KeyError((alpha, beta, gamma))


def _block_indices(dim: int, max_order: int):
    return [t for total in range(max_order + 1)
            for t in itertools.product(range(total + 1), repeat=dim) if sum(t) == total]


def _shell_probes(rng, s: int, samples: int, dim: int, period: float):
    """Probe points (x, (xi, eta)) of shapes (samples, dim) and (samples, 2 dim),
    with max frequency component magnitude log-uniform in [2^s, 2^(s+1))."""
    r = 2.0 ** (s + rng.uniform(0.0, 1.0, size=samples))
    w = rng.uniform(-1.0, 1.0, size=(samples, 2 * dim))
    peak = np.max(np.abs(w), axis=1)
    peak[peak == 0] = 1.0
    z = w * (r / peak)[:, None]
    return rng.uniform(0.0, period, size=(samples, dim)), z


def _near_zero(sigma: Symbol, rng, samples: int, period: float) -> tuple:
    """(NearZeroEntry, its bounds): order-0 maxima on paths to xi = 0, eta = 0
    and the origin, one row per scale 2^-k, all scales in one evaluation."""
    dim = sigma.dim
    x = _pack(tuple(rng.uniform(0.0, period, size=(dim, 3 * samples))), dim)
    z = rng.uniform(-1.0, 1.0, size=(2, dim, 3 * samples))
    z /= np.max(np.abs(z), axis=1, keepdims=True)  # max-norm 1 per block
    shrink = np.repeat([[1, 0], [0, 1], [1, 1]], samples, axis=0).T[:, None, :]
    k = np.arange(AXIS_DEPTH + 1)[:, None, None, None]
    xi, eta = (_pack(tuple(v), dim) for v in np.moveaxis(z * 2.0 ** (-k * shrink), 0, 2))
    with np.errstate(all="ignore"):
        vals = np.abs(np.asarray(sigma.eval(x, xi, eta))) \
            * absnorm(xi, eta, dim) ** -sigma.declared_class.m
    m = np.where(np.isfinite(vals).all(axis=1), vals.max(axis=1), np.inf)
    finite = bool(np.isfinite(m).all())
    with np.errstate(all="ignore"):
        last, before = m[-1] - m[-6], m[-6] - m[-11]  # m_20 - m_15, m_15 - m_10
        increment_ratio = float(last / before) if finite else float("nan")
    bounds = [check("near_zero_nonfinite", np.count_nonzero(~np.isfinite(m)), "<=", 0)]
    if finite:
        floor = INCREMENT_FLOOR * np.max(m)
        bounds.append(check("near_zero_increment", last, "<=",
                            max(floor, INCREMENT_RATIO_CUTOFF * before), floor=floor))
    zero = (0,) * dim
    entry = NearZeroEntry(zero, zero, zero, ratio=float(np.max(m)), shell_max=tuple(m.tolist()),
                          slope=log_fit(2.0 ** k.ravel(), m)[0] if finite else float("nan"),
                          verdict="bounded" if all(b.holds for b in bounds) else "singular",
                          increment_ratio=increment_ratio)
    return entry, tuple(bounds)


def estimate_seminorms(sigma: Symbol, max_order: int = 2, box: float = 8192.0,
                       samples: int = 120, seed: int = 0,
                       period: float = 2 * np.pi) -> SeminormReport:
    if max_order > 2 or max_order < 0:
        raise InvalidInputError(f"max_order must be in 0..2, got {max_order}")
    if samples < 100:
        raise InvalidInputError(f"need >= 100 samples per shell, got {samples}")
    s_max = int(round(np.log2(box))) - 1 if box > 0 else -1
    if s_max < 1:  # one shell's growth slope would read 0
        raise InvalidInputError(f"a growth slope needs >= 2 dyadic shells (box >= 2^1.5), "
                                f"got box {box}")
    dim = sigma.dim
    scales = 2.0 ** np.arange(s_max + 1)
    shells = tuple((lo, 2 * lo) for lo in scales.tolist())

    rng = np.random.default_rng(seed)
    x, z = (np.stack(v) for v in zip(*(_shell_probes(rng, s, samples, dim, period)
                                        for s in range(s_max + 1))))
    # one (shells, samples) array per coordinate component
    x, xi, eta = (_pack(tuple(np.moveaxis(v, 2, 0)), dim)
                  for v in (x, z[..., :dim], z[..., dim:]))
    weight = absnorm(xi, eta, dim)

    cls = sigma.declared_class
    blocks = _block_indices(dim, max_order)
    entries = []
    for a, b, g in itertools.product(blocks, repeat=3):
        expo = cls.m + cls.delta * sum(a) - cls.rho * (sum(b) + sum(g))
        with np.errstate(all="ignore"):
            vals = np.abs(np.asarray(sigma.partial(a, b, g)(x, xi, eta))) * weight ** (-expo)
        finite = np.isfinite(vals)
        maxima = np.where(finite.any(axis=1),
                          np.where(finite, vals, -np.inf).max(axis=1), np.nan)
        if not finite.all():
            entries.append(SeminormEntry(a, b, g, ratio=float("nan"), slope=float("nan"),
                                         verdict="indeterminate",
                                         shell_max=tuple(maxima)))
            continue
        slope = log_fit(scales, maxima)[0]
        verdict = "bounded" if slope <= SLOPE_BOUNDED else "growing"
        entries.append(SeminormEntry(a, b, g, ratio=float(np.max(maxima)), slope=slope,
                                     verdict=verdict, shell_max=tuple(maxima)))

    near_zero, near_bounds = _near_zero(sigma, rng, samples, period)
    measured = [e.slope for e in entries if e.verdict != "indeterminate"]
    bounds = (check("indeterminate_entries", len(entries) - len(measured), "<=", 0),
              check("growth_slope", max(measured, default=0.0), "<=", SLOPE_BOUNDED),
              *near_bounds)
    return SeminormReport(symbol=sigma.name,
                          declared_class=(cls.m, cls.rho, cls.delta),
                          box=float(box), shells=shells, samples=samples,
                          max_order=max_order, entries=tuple(entries), near_zero=near_zero,
                          verdict="BOUNDED" if all(b.holds for b in bounds) else "FAILED",
                          bounds=bounds)
