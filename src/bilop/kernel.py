"""Off-diagonal kernels of T_sigma by truncated oscillatory quadrature.

    K_N(x, y, z) = (1/(2 pi)^{2n}) int int e^{i xi (x-y)} e^{i eta (x-z)}
                   sigma(x, xi, eta) psi(xi/N) psi(eta/N) d xi d eta

with the smooth cutoff psi built from h(s) = e^{-1/s} [s>0].  The
frequency integral runs on a trapezoid grid over [-2N, 2N]^{2n};
spacing 0.25 is alias-safe for torus offsets (verified by the built-in
doubling guard).  Derivative kernels multiply the integrand by (i xi),
(i eta) monomials and differentiate sigma in x.

On the grid the kernel at offsets (u_b, v_b) is the bilinear form
EU[:, b]^T S EV[:, b] of the psi-weighted symbol matrix S, kept dense,
with the phase columns EU = e^{i xi u}, EV = e^{i eta v}.  S is real,
so S @ EV runs as one real matrix product on the float view of EV; a
symbol with complex values raises DomainError.  S is built on every
call, so callers batch all their offsets at one base point into one
call; the offsets are contracted in blocks of BLOCK_COLUMNS, so a batch
never holds more than one block of phase matrices.  Within a block each
distinct u and v is exponentiated once and S multiplies each distinct v
column once, so a caller that repeats offsets (certification's y- and
z-steps) keeps the repeats side by side.  The x-derivative kernel makes
one pass over S for both phase derivatives, on [EV, i eta EV] side by
side, plus one over d_x sigma.  A symbol with a non-finite value
anywhere on the frequency box raises DomainError.

Decay fits and Calderon-Zygmund certification of commutator kernels
K_slot = (a(y or z) - a(x)) K_N live here too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, ToleranceError
from .grid import GridFunction, eval_at
from .symbols.core import Symbol

GUARD_REL_TOL = 1e-6
DEFAULT_SPACING = 0.25
BLOCK_COLUMNS = 128  # offsets per contraction; bounds the phase matrices


def smooth_step(s):
    """h(s) = e^{-1/s} for s > 0, else 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def cutoff_profile(s):
    """psi: 1 on |s| <= 1, 0 on |s| >= 2, smooth in between."""
    s = np.abs(np.asarray(s, dtype=float))
    num = smooth_step(2.0 - s)
    return num / (num + smooth_step(s - 1.0))


@dataclass(frozen=True)
class TruncationProfile:
    """Dyadic truncation scale for the frequency cutoff psi(./N)."""

    level: float = 128.0

    def __post_init__(self):
        if not self.level > 0:
            raise InvalidInputError(f"truncation level must be positive, got {self.level}")

    def psi(self, s):
        return cutoff_profile(np.asarray(s) / self.level)


def _wrap(u, period: float):
    return (np.asarray(u, dtype=float) + period / 2) % period - period / 2


class KernelQuadrature:
    """Trapezoid rule for batched kernel evaluation (1D symbols).

    Stateless: each ``values`` call builds its own psi-weighted symbol matrix.
    """

    def __init__(self, sigma: Symbol, profile: TruncationProfile,
                 period: float = 2 * np.pi, spacing: float = DEFAULT_SPACING):
        if sigma.dim != 1:
            raise InvalidInputError("kernel quadrature is implemented for 1D symbols")
        self.sigma = sigma
        self.profile = profile
        self.period = period
        self.spacing = float(spacing)
        half = int(np.ceil(2 * profile.level / self.spacing))
        half += half % 2  # even count so the doubled-spacing grid subsamples
        self.axis = np.arange(-half, half + 1) * self.spacing
        self._psi1d = self.profile.psi(self.axis)

    def _sigma_matrix(self, x: float, x_order: int) -> np.ndarray:
        """psi-weighted sigma (or d_x sigma) on the box, one real matrix."""
        ax = self.axis
        ev = self.sigma.partial((x_order,), (0,), (0,)) if x_order else self.sigma.fn
        sig = np.asarray(ev(np.asarray(x), ax[:, None], ax[None, :]))
        with np.errstate(invalid="ignore"):  # inf * 0 at the box edge; raised below
            weighted = np.broadcast_to(sig, (ax.size, ax.size)) * self._psi1d[:, None]
            weighted *= self._psi1d[None, :]
        if np.iscomplexobj(weighted) or not np.all(np.isfinite(weighted)):
            raise DomainError(
                f"symbol {self.sigma.name!r} is not real and finite on the kernel "
                f"frequency box |xi|, |eta| <= {ax[-1]:g} at x = {x:g}")
        return weighted

    def values(self, x: float, us, vs, deriv=(0, 0, 0)) -> np.ndarray:
        """K_N-derivative values at offsets u = x - y, v = x - z (batched)."""
        alpha, beta, gamma = deriv
        if alpha not in (0, 1):
            raise InvalidInputError("x-derivative order must be 0 or 1")
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        ax = self.axis
        h = self.spacing
        scale = h * h / (2 * np.pi) ** 2
        S0 = self._sigma_matrix(x, 0)
        Sx = None
        if alpha == 1 and self.sigma.x_independent is not True:
            Sx = self._sigma_matrix(x, 1)
        dphase = (1j * ax)[:, None]  # d/dx of the phase: i(xi + eta)
        vals = np.empty(us.size, dtype=complex)
        for lo in range(0, us.size, BLOCK_COLUMNS):
            blk = slice(lo, lo + BLOCK_COLUMNS)
            uq, iu = np.unique(us[blk], return_inverse=True)
            vq, iv = np.unique(vs[blk], return_inverse=True)
            EU = np.exp(1j * np.outer(ax, uq))
            EV = np.exp(1j * np.outer(ax, vq))
            if beta:
                EU *= ((-1j * ax) ** beta)[:, None]
            if gamma:
                EV *= ((-1j * ax) ** gamma)[:, None]
            EU = EU[:, iu]
            if alpha == 1:
                width = EV.shape[1]
                W = _contract(S0, np.concatenate([EV, EV * dphase], axis=1))
                got = np.einsum("mb,mb->b", EU * dphase, W[:, iv]) \
                    + np.einsum("mb,mb->b", EU, W[:, width + iv])
                if Sx is not None:
                    got = got + np.einsum("mb,mb->b", EU, _contract(Sx, EV)[:, iv])
            else:
                got = np.einsum("mb,mb->b", EU, _contract(S0, EV)[:, iv])
            vals[blk] = got
        return scale * vals


def _contract(S: np.ndarray, E: np.ndarray) -> np.ndarray:
    """S @ E for real S and complex E, in real arithmetic."""
    return (S @ E.view(float)).view(complex)  # a complex column is two real ones


def kernel_at(sigma: Symbol, profile: TruncationProfile, x: float, y: float,
              z: float, deriv=(0, 0, 0), period: float = 2 * np.pi,
              spacing: float = DEFAULT_SPACING, guard: bool = True) -> complex:
    """K_N(x, y, z) for one off-diagonal triple, with a doubling guard."""
    alpha, beta, gamma = deriv
    if any(o not in (0, 1) for o in (alpha, beta, gamma)):
        raise InvalidInputError("derivative orders must be 0 or 1 each")
    u = float(_wrap(x - y, period))
    v = float(_wrap(x - z, period))
    if max(abs(u), abs(v)) == 0.0:
        raise DomainError("kernel requested on the diagonal: max(|x-y|,|x-z|) = 0")
    quad = KernelQuadrature(sigma, profile, period, spacing)
    val = complex(quad.values(x, [u], [v], deriv=deriv)[0])
    if guard:
        fine = KernelQuadrature(sigma, profile, period, spacing / 2)
        ref = complex(fine.values(x, [u], [v], deriv=deriv)[0])
        denom = max(abs(ref), 1e-300)
        if abs(val - ref) / denom > GUARD_REL_TOL:
            raise ToleranceError(
                f"kernel quadrature not converged at (x,y,z)=({x},{y},{z}): "
                f"{val} at spacing {spacing} vs {ref} at {spacing/2}",
                coarse=val, fine=ref)
    return val


@dataclass(frozen=True)
class KernelSlice:
    x: float
    offsets: tuple  # of (y, z)
    values: np.ndarray
    level: float
    deriv: tuple
    spacing: float


def kernel_slice(sigma: Symbol, profile: TruncationProfile, x: float,
                 offsets, deriv=(0, 0, 0), period: float = 2 * np.pi,
                 spacing: float = DEFAULT_SPACING) -> KernelSlice:
    quad = KernelQuadrature(sigma, profile, period, spacing)
    offsets = [(float(y), float(z)) for (y, z) in offsets]
    us = _wrap(np.array([x - y for y, _ in offsets]), period)
    vs = _wrap(np.array([x - z for _, z in offsets]), period)
    if np.any(np.maximum(np.abs(us), np.abs(vs)) == 0.0):
        raise DomainError("kernel slice contains an on-diagonal point")
    vals = quad.values(x, us, vs, deriv=deriv)
    return KernelSlice(x=float(x), offsets=tuple(offsets), values=vals,
                       level=profile.level, deriv=tuple(deriv), spacing=spacing)


@dataclass(frozen=True)
class DecayFitReport:
    exponent_fit: float
    constant: float
    r_squared: float
    target: float
    radii: tuple
    maxima: tuple
    level: float
    deriv: tuple
    stability: dict = field(default_factory=dict)  # level -> normalized constant
    stability_ratio: float = 1.0
    verdict: str = ""


def _direction_offsets(r: float, count: int):
    """(u, v) with |u| + |v| = r, spread over directions off the axes."""
    th = np.linspace(0, 2 * np.pi, count, endpoint=False) + 0.1
    cu, sv = np.cos(th), np.sin(th)
    norm = np.abs(cu) + np.abs(sv)
    return r * cu / norm, r * sv / norm


def default_radii(period: float = 2 * np.pi, count: int = 11) -> tuple:
    """Half-octave ladder from L/256 to L/8."""
    base = period / 256
    return tuple(base * 2.0 ** (j / 2) for j in range(count))


def fit_kernel_decay(sigma: Symbol, deriv=(0, 0, 0), radii=None, directions: int = 8,
                     level: float = 128.0, stability_levels=(32.0, 64.0, 128.0),
                     x0: float = 0.0, period: float = 2 * np.pi,
                     spacing: float = DEFAULT_SPACING) -> DecayFitReport:
    """Log-log fit of max-over-directions |K_N| against the offset radius."""
    radii = tuple(float(r) for r in (radii if radii is not None else default_radii(period)))
    if len(radii) < 8:
        raise InvalidInputError(f"need >= 8 radii, got {len(radii)}")
    if max(radii) / min(radii) < 8:
        raise InvalidInputError("radii must span at least 3 octaves")
    if max(radii) >= period / 4 or min(radii) <= 0:
        raise InvalidInputError("radii must lie in (0, L/4)")
    n = sigma.dim
    target = -(2 * n + sigma.declared_class.m + sum(deriv))

    rays = [_direction_offsets(r, directions) for r in radii]
    us = np.concatenate([u for u, _ in rays])
    vs = np.concatenate([v for _, v in rays])

    def max_curve(at_level: float) -> np.ndarray:
        quad = KernelQuadrature(sigma, TruncationProfile(at_level), period, spacing)
        vals = quad.values(x0, us, vs, deriv=deriv)  # every radius in one batch
        return np.max(np.abs(vals).reshape(len(radii), directions), axis=1)

    maxima = max_curve(level)
    lr, lk = np.log(np.array(radii)), np.log(maxima)
    A = np.vstack([lr, np.ones_like(lr)]).T
    coef, *_ = np.linalg.lstsq(A, lk, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((lk - pred) ** 2))
    ss_tot = float(np.sum((lk - lk.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    stability = {}
    for lev in stability_levels:
        curve = maxima if lev == level else max_curve(lev)
        stability[float(lev)] = float(np.max(curve * np.array(radii) ** (-target)))
    consts = list(stability.values())
    ratio = max(consts) / max(min(consts), 1e-300) if consts else 1.0

    p_hat = float(coef[0])
    if r2 < 0.9:
        verdict = "INCONCLUSIVE"
    elif p_hat <= target + 0.3:
        verdict = "BOUNDED"
    else:
        verdict = "FAILED"
    return DecayFitReport(exponent_fit=p_hat, constant=float(np.exp(coef[1])),
                          r_squared=r2, target=float(target), radii=radii,
                          maxima=tuple(float(m) for m in maxima), level=level,
                          deriv=tuple(deriv), stability=stability,
                          stability_ratio=float(ratio), verdict=verdict)


@dataclass(frozen=True)
class CzCertification:
    slot: int
    octaves: tuple  # of (radius_lo, radius_hi)
    size_sup: tuple  # sup |K_slot| S^{2n} per octave
    grad_sup: tuple  # sup |grad K_slot| S^{2n+1} per octave
    samples: int
    level: float
    verdict: str


def certify_cz_commutator_kernel(sigma: Symbol, a: GridFunction, slot: int = 1,
                                 samples: int = 630, level: float = 128.0,
                                 base_radius: float | None = None,
                                 octave_count: int = 3, seed: int = 0,
                                 spacing: float = DEFAULT_SPACING) -> CzCertification:
    """Sampled CZ size/gradient bounds for K_slot = (a(y or z) - a(x)) K_N.

    S = |x-y| + |x-z| + |y-z| in the torus metric.  Gradients are central
    difference quotients at separation S/8: the regularity condition
    controls kernel variation at scales commensurate with S, and the
    truncated kernel's instantaneous slope carries a cutoff ripple whose
    frequency grows with the truncation level, so a proportional
    macroscopic step is the quantity that stabilizes.  Samples are drawn
    as (octave, sample) arrays; each base point takes one quadrature batch
    over every octave (one at x = 0 serves all base points of an
    x-independent symbol) and one interpolation of a.
    """
    if slot not in (1, 2):
        raise InvalidInputError(f"slot must be 1 or 2, got {slot}")
    if samples < 200:
        raise InvalidInputError(f"need >= 200 samples, got {samples}")
    grid = a.grid
    if grid.dim != 1:
        raise InvalidInputError("certification is implemented for 1D")
    period = grid.period
    if base_radius is None:
        # start of the kernel's power-law window at the default truncation
        # level: below L/256 the quadrature mollification flattens the
        # singularity, above L/32 low-frequency flatness steepens the decay
        base_radius = period / 256
    rng = np.random.default_rng(seed)
    quad = KernelQuadrature(sigma, TruncationProfile(level), period, spacing)
    n = 1
    per_octave = samples // octave_count
    # one shared pool of base points, so octave sups see the same x statistics
    xpool = rng.uniform(0, period, size=8)
    lo = base_radius * 2.0 ** np.arange(octave_count)
    draws = np.array([(rng.uniform(np.log(l), np.log(2 * l), size=per_octave),
                       rng.uniform(0, 2 * np.pi, size=per_octave)) for l in lo])
    r, th = np.exp(draws[:, 0]), draws[:, 1]  # (octave, sample)
    cu, sv = np.cos(th), np.sin(th)
    norm = np.abs(cu) + np.abs(sv)
    us, vs = r * cu / norm, r * sv / norm
    S = np.abs(us) + np.abs(vs) + np.abs(_wrap(us - vs, period))
    h = S / 8
    hx = lo[:, None] / 8  # one x-step per octave, shared by its samples
    # each sample's five offsets side by side, so that its repeated u and v
    # land in one contraction block
    batch = (np.stack([us, us - h, us + h, us, us], axis=-1).ravel(),
             np.stack([vs, vs, vs, vs - h, vs + h], axis=-1).ravel())
    off = us if slot == 1 else vs
    iy, iz = ((3, 4), (0, 0)) if slot == 1 else ((0, 0), (3, 4))  # stepped weight rows

    def k_at(xv):
        """K at the five offsets, then at the offsets from x + hx and from x - hx."""
        k = np.moveaxis(quad.values(xv, *batch).reshape(*us.shape, 5), -1, 0)
        if sigma.x_independent:  # translation invariant: K(x +- hx) = K(x)
            return (*k, k[0], k[0])
        return (*k, *(np.array([quad.values(xv + sgn * dx, u, v) for dx, u, v
                                in zip(hx[:, 0], us, vs)]) for sgn in (1, -1)))

    shared = k_at(0.0) if sigma.x_independent else None
    size_sup = grad_sup = np.zeros(octave_count)
    for xv in xpool:
        k0, kyl, kyh, kzl, kzh, kxh, kxl = shared or k_at(float(xv))
        # rows of w: a(x' - o) - a(x') at (x', o) = (x, off), (x +- hx, off), (x, off -+ h)
        at = xv + np.stack([0 * hx, hx, -hx])
        reads = np.concatenate([at - off, xv - np.stack([off - h, off + h])])
        got = eval_at(a, np.concatenate([at.ravel(), reads.ravel()]) % period)
        w = got[at.size:].reshape(reads.shape) - got[:at.size].reshape(at.shape)[[0, 1, 2, 0, 0]]
        # d/dy: u = x - y decreases as y grows; d/dx moves x with y, z fixed
        gy = (w[iy[0]] * kyl - w[iy[1]] * kyh) / (2 * h)
        gz = (w[iz[0]] * kzl - w[iz[1]] * kzh) / (2 * h)
        gx = (w[1] * kxh - w[2] * kxl) / (2 * hx)
        gnorm = np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2 + np.abs(gz) ** 2)
        size_sup = np.maximum(size_sup, np.max(np.abs(w[0] * k0) * S ** (2 * n), axis=1))
        grad_sup = np.maximum(grad_sup, np.max(gnorm * S ** (2 * n + 1), axis=1))
    octaves = [(float(l), float(2 * l)) for l in lo]

    def stable(sups):
        top, bot = max(sups), min(sups)
        if top < 1e-14:
            return True  # identically zero kernel
        return top / max(bot, 1e-300) < 2.0

    verdict = "BOUNDED" if stable(size_sup) and stable(grad_sup) else "FAILED"
    return CzCertification(slot=slot, octaves=tuple(octaves),
                           size_sup=tuple(size_sup.tolist()),
                           grad_sup=tuple(grad_sup.tolist()),
                           samples=per_octave * octave_count, level=level,
                           verdict=verdict)
