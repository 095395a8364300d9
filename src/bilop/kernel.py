"""Off-diagonal kernels of T_sigma by truncated oscillatory quadrature.

    K_N(x, y, z) = (1/(2 pi)^{2n}) int int e^{i xi (x-y)} e^{i eta (x-z)}
                   sigma(x, xi, eta) psi(xi/N) psi(eta/N) d xi d eta

with the smooth cutoff psi built from h(s) = e^{-1/s} [s>0].  The
frequency integral runs on a trapezoid grid over [-2N, 2N]^{2n};
spacing 0.25 is alias-safe for torus offsets (verified by the built-in
doubling guard).  Derivative kernels multiply the integrand by (i xi),
(i eta) monomials and differentiate sigma in x.

On the grid the kernel at offsets (u_b, v_b) is EU[:, b]^T S EV[:, b],
with S = sigma (or d_x sigma) on the box, raw, and the cutoff on the
phases: EU = psi(xi) (-i xi)^beta e^{i xi u}, EV likewise in eta.  The
axis is symmetric and S is real, so every phase column has
G(-t) = conj G(t), and for each row k

    sum_l S[k,l] G_l = S[k,0] G_0 + sum_{l>0} (S[k,l] + S[k,-l]) Re G_l
                                        + i (S[k,l] - S[k,-l]) Im G_l;

the same identity pairs the rows +-xi against the complex W = S G.  Both
contractions are thus real products over the half-axis t >= 0, and the
exponentials are taken there only.  S is never held whole: sigma is
evaluated on ROW_BLOCK paired rows (+t_k, -t_k) at a time, folded over
+-eta, contracted, folded over +-xi into the offsets and dropped.  The
eta phases of the distinct v are computed once per call while they fit
PHASE_BUDGET real entries; past it the offsets are split by v into
chunks, and sigma is streamed again for each chunk.  Each offset gathers
its u and v columns, so no distinct-u x distinct-v table is built.
Memory is O(ROW_BLOCK L + PHASE_BUDGET) for an axis of length L, at any
level and for any number of offsets.  The x-derivative kernel adds
i(xi + eta) to the phase: one pass contracts [G, i eta G] side by side,
plus one of d_x sigma against G.  A symbol that is complex or not finite
anywhere on the box raises DomainError, whichever block holds the value.

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
ROW_BLOCK = 32  # frequency rows a side per block of sigma
PHASE_BUDGET = 1 << 21  # real entries of eta phases held at once


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

    Stateless: each ``values`` call streams sigma through paired row blocks
    and keeps no block, so its memory is O(ROW_BLOCK L + PHASE_BUDGET) for
    an axis of length L, at any level and for any number of offsets.
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
        self._half = self.axis[half:]  # 0, h, ..., the frequencies t >= 0
        self._weight = self.profile.psi(self._half)
        self._weight[0] *= 0.5  # the +-t folds count t = 0 twice

    def values(self, x: float, us, vs, deriv=(0, 0, 0)) -> np.ndarray:
        """K_N-derivative values at offsets u = x - y, v = x - z (batched)."""
        alpha, beta, gamma = deriv
        if alpha not in (0, 1):
            raise InvalidInputError("x-derivative order must be 0 or 1")
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        dx = None
        if alpha == 1 and self.sigma.x_independent is not True:
            dx = self.sigma.partial((1,), (0,), (0,))
        vq, iv = np.unique(vs, return_inverse=True)
        width = max(1, PHASE_BUDGET // (2 * (1 + alpha) * self._half.size))
        vals = np.empty(us.size, dtype=complex)
        for lo in range(0, vq.size, width):  # one pass over sigma per chunk of v
            mine = np.flatnonzero((iv >= lo) & (iv < lo + width))
            vals[mine] = self._stream(x, dx, us[mine], vq[lo:lo + width],
                                      iv[mine] - lo, deriv)
        return self.spacing ** 2 / (2 * np.pi) ** 2 * vals

    def _stream(self, x, dx, us, vq, iv, deriv):
        """The sum over the box for offsets (us, vq[iv]), row block by row block."""
        alpha, beta, gamma = deriv
        t, w, n = self._half, self._weight, vq.size
        G = self._eta_phases(vq, gamma, alpha)
        uq, iu = np.unique(us, return_inverse=True)
        got = np.zeros(us.size, dtype=complex)
        for lo in range(0, t.size, ROW_BLOCK):
            tk = t[lo:lo + ROW_BLOCK]
            W = self._fold_eta(self.sigma.fn, x, tk, G)
            F = _phase(tk, w[lo:lo + ROW_BLOCK] * (-1j * tk) ** beta, uq)
            if alpha == 1:  # d/dx of the phase is i(xi + eta)
                SG, W = W[..., :n], W[..., n:]  # S G, then S (i eta G)
                if dx is not None:
                    W = W + self._fold_eta(dx, x, tk, G[..., :n])
                got += _fold_xi(F * (1j * tk)[:, None], SG, iu, iv)
            got += _fold_xi(F, W, iu, iv)
        return got

    def _eta_phases(self, vq, gamma, alpha):
        """Real and imaginary parts of G = psi (-i eta)^gamma e^{i eta v} on t >= 0,
        with i eta G beside it when alpha = 1."""
        t, w = self._half, self._weight
        amp = w * (-1j * t) ** gamma
        G = np.empty((2, t.size, (1 + alpha) * vq.size))
        for lo in range(0, t.size, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            E = _phase(t[rows], amp[rows], vq)
            if alpha == 1:
                E = np.concatenate([E, E * (1j * t[rows])[:, None]], axis=1)
            G[0, rows], G[1, rows] = E.real, E.imag
        return G

    def _fold_eta(self, ev, x, tk, G):
        """W = S G on the rows xi = +tk (W[0]) and -tk (W[1]), folded over +-eta."""
        t = self._half
        xi = np.stack([tk, -tk])[:, :, None, None]
        sig = np.asarray(ev(np.asarray(x), xi, np.stack([t, -t])))
        if np.iscomplexobj(sig) or not np.all(np.isfinite(sig)):
            raise DomainError(
                f"symbol {self.sigma.name!r} is not real and finite on the kernel "
                f"frequency box |xi|, |eta| <= {t[-1]:g} at x = {x:g}")
        sig = np.broadcast_to(sig, (2, tk.size, 2, t.size))
        even = sig[:, :, 0] + sig[:, :, 1]
        odd = sig[:, :, 0] - sig[:, :, 1]
        return (even @ G[0]) + 1j * (odd @ G[1])


def _phase(t, amp, offsets) -> np.ndarray:
    """amp e^{i t offset}: one row per frequency, one column per offset."""
    return np.exp(1j * np.outer(t, offsets)) * amp[:, None]


def _fold_xi(F, W, iu, iv) -> np.ndarray:
    """sum over +-xi of F W per offset, for F(-xi) = conj F(xi)."""
    even, odd = W[0] + W[1], W[0] - W[1]
    return np.einsum("kb,kb->b", F.real[:, iu], even[:, iv]) \
        + 1j * np.einsum("kb,kb->b", F.imag[:, iu], odd[:, iv])


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
    if directions < 1:
        raise InvalidInputError(f"need >= 1 direction, got {directions}")
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
    if not 2 <= octave_count <= samples:
        raise InvalidInputError(f"need >= 2 octaves of >= 1 sample, got {octave_count} octaves "
                                f"for {samples} samples")
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
