"""Off-diagonal kernels of T_sigma by truncated oscillatory quadrature.

    K_N(x, y, z) = (1/(2 pi)^{2n}) int int e^{i xi (x-y)} e^{i eta (x-z)}
                   sigma(x, xi, eta) psi(xi/N) psi(eta/N) d xi d eta

with the smooth cutoff psi built from h(s) = e^{-1/s} [s>0].  The
frequency integral runs on a trapezoid grid over [-2N, 2N]^{2n}; only
kernel_at checks, by a doubling guard, that spacing 0.25 is alias-safe
for torus offsets: kernel_slice, fit_kernel_decay and the CZ
certification do not.  Derivative kernels multiply the integrand by
(i xi), (i eta) monomials and differentiate sigma in x.

On the grid the kernel at offsets (u_b, v_b) is EU[:, b]^T S EV[:, b],
with S = sigma (or d_x sigma) on the box, raw, and the cutoff on the
phases: F = EU = psi(xi) (-i xi)^beta e^{i xi u}, G = EV likewise in eta.
The axis is symmetric and S is real, so F(-t) = conj F(t), likewise G, and
the four quadrants +-xi, +-eta sum to real products over t, s >= 0:

    F^T S G = Re F S_ee Re G + i Re F S_eo Im G + i Im F S_oe Re G
              - Im F S_oo Im G,

S_ab(t, s) being the part of S even (e) or odd (o) in xi, then in eta:
S_eo(t, s) = sum over signs c, d of d S(c t, d s), and so on.  sigma's
parity in xi and in eta, read off its AST (Node.parity), decides which
quadrants are evaluated and which blocks are nonzero: a variable of known
parity is read at + only and its - side follows by the parity.  So sqrt1
evaluates one quadrant into one block, and a symbol of no parity four
quadrants into four blocks, through the same stream; only the halves of G
that some block reads are built.  S is never held whole: sigma is
evaluated on ROW_BLOCK rows t_k >= 0 at a time, folded into its blocks,
contracted and dropped.  Phases come from grid.phase_table: e^{i t p} at
t = (q ROW_BLOCK + r) h is coarse row q times fine row r, so a call takes
L / ROW_BLOCK + ROW_BLOCK exponentials per offset, not L.  The eta phases
of the distinct v are built once per call while they fit PHASE_BUDGET
real entries; past it the offsets are split by v into chunks, and sigma
is streamed again for each chunk.  Each offset gathers its u and v
columns, so no distinct-u x distinct-v table is built.  Memory is
O(ROW_BLOCK L + PHASE_BUDGET) for an axis of length L, at any level and
for any number of offsets.  The x-derivative kernel adds i(xi + eta) to
the phase: one pass contracts [G, i eta G] side by side, plus one of
d_x sigma, with its own parity, against G.  A symbol that is complex or
not finite anywhere on the box raises DomainError, whichever block holds
the value; a parity carries a non-finite value to its mirror image too.

Decay fits and Calderon-Zygmund certification of commutator kernels
K_slot = (a(y or z) - a(x)) K_N live here too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, ToleranceError
from .grid import GridFunction, eval_at, phase_table
from .symbols.core import Symbol

GUARD_REL_TOL = 1e-6
DEFAULT_SPACING = 0.25
ROW_BLOCK = 32  # frequency rows t >= 0 per block of sigma
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


def _parity(node) -> tuple:
    """(xi, eta) parities of an AST: +1 even, -1 odd, None undecided or no AST."""
    return tuple(None if node is None else node.parity(v) for v in ("xi", "eta"))


def _streams(sigma: Symbol, alpha: int) -> list:
    """(evaluator, parity) of sigma, then of d_x sigma when alpha = 1 and sigma
    depends on x: the symbols a values call streams."""
    out = [(sigma.fn, _parity(sigma.node))]
    if alpha == 1 and not sigma.x_independent:
        dx = sigma.partial((1,), (0,), (0,))  # refused without an AST
        out.append((dx, _parity(sigma.node.diff("x"))))
    return out


def stream_account(sigma: Symbol, alpha: int = 0) -> dict:
    """The (xi, eta) parities the quadrature reads sigma, and d_x sigma when
    alpha = 1, with, and how many of sigma's +-xi/+-eta quadrants it evaluates."""
    parities = [p for _, p in _streams(sigma, alpha)]
    out = {"sigma_parity": dict(zip(("xi", "eta"), parities[0])),
           "sigma_quadrants": 4 >> sum(p is not None for p in parities[0])}
    if len(parities) > 1:
        out["dx_sigma_parity"] = dict(zip(("xi", "eta"), parities[1]))
    return out


class KernelQuadrature:
    """Trapezoid rule for batched kernel evaluation (1D symbols).

    Stateless: each ``values`` call streams sigma through row blocks and
    keeps no block, so its memory is O(ROW_BLOCK L + PHASE_BUDGET) for an
    axis of length L, at any level and for any number of offsets.
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
        streams = _streams(self.sigma, alpha)
        vq, iv = np.unique(vs, return_inverse=True)
        width = max(1, PHASE_BUDGET // (2 * (1 + alpha) * self._half.size))
        vals = np.empty(us.size, dtype=complex)
        for lo in range(0, vq.size, width):  # one pass over sigma per chunk of v
            mine = np.flatnonzero((iv >= lo) & (iv < lo + width))
            vals[mine] = self._stream(x, streams, us[mine], vq[lo:lo + width],
                                      iv[mine] - lo, deriv)
        return self.spacing ** 2 / (2 * np.pi) ** 2 * vals

    def _stream(self, x, streams, us, vq, iv, deriv):
        """The sum over the box for offsets (us, vq[iv]), row block by row block."""
        alpha, beta, gamma = deriv
        t, n = self._half, vq.size
        G = self._eta_phases(vq, gamma, alpha, {b for _, parity in streams
                                                for b in _open_halves(parity[1])})
        uq, iu = np.unique(us, return_inverse=True)
        coarse, fine = phase_table(self.spacing, uq, t.size, ROW_BLOCK)
        amp = self._weight * (-1j * t) ** beta
        got = np.zeros((2, us.size))  # real and imaginary parts
        for q, lo in enumerate(range(0, t.size, ROW_BLOCK)):
            tk = t[lo:lo + ROW_BLOCK]
            F = coarse[q] * fine[:tk.size] * amp[lo:lo + ROW_BLOCK, None]
            # d/dx of the phase is i(xi + eta): S against [G, i eta G] ...
            uses = ([(F, slice(None))] if alpha == 0 else
                    [(F * (1j * tk)[:, None], slice(n)), (F, slice(n, None))])
            self._contract(got, streams[0], x, tk, G, uses, iu, iv)
            for dx in streams[1:]:  # ... and d_x S against G
                self._contract(got, dx, x, tk, [g if g is None else g[:, :n] for g in G],
                               [(F, slice(None))], iu, iv)
        return got[0] + 1j * got[1]

    def _eta_phases(self, vq, gamma, alpha, halves):
        """The real (b = 0 in halves) and imaginary (b = 1) parts of G = psi
        (-i eta)^gamma e^{i eta v} on t >= 0, with i eta G beside it when
        alpha = 1; None for a part no streamed symbol reads."""
        t = self._half
        coarse, fine = phase_table(self.spacing, vq, t.size, ROW_BLOCK)
        amp = self._weight * (-1j * t) ** gamma
        G = [np.empty((t.size, (1 + alpha) * vq.size)) if b in halves else None
             for b in (0, 1)]
        for q, lo in enumerate(range(0, t.size, ROW_BLOCK)):
            rows = slice(lo, lo + ROW_BLOCK)
            E = coarse[q] * fine[:t[rows].size] * amp[rows, None]
            if alpha == 1:
                E = np.concatenate([E, E * (1j * t[rows])[:, None]], axis=1)
            for g, part in zip(G, (E.real, E.imag)):
                if g is not None:
                    g[rows] = part
        return G

    def _contract(self, got, stream, x, tk, G, uses, iu, iv):
        """Add F^T S G over the rows +-tk to got's real and imaginary parts,
        per offset and per (F, columns of G) in uses: one real product per
        nonzero parity block S_ab, as in the module docstring."""
        for (a, b), S in _blocks(stream, x, tk, self._half, self.sigma.name).items():
            W = S @ G[b]
            for F, cols in uses:
                part = np.einsum("kb,kb->b", (F.real, F.imag)[a][:, iu], W[:, cols][:, iv])
                got[(a + b) % 2] += -part if a & b else part


def _open_halves(parity) -> tuple:
    """The halves of a +- fold that parity leaves nonzero: 0 even, 1 odd."""
    return (0, 1) if parity is None else (0,) if parity == 1 else (1,)


def _fold(s, parity):
    """(s[+] + s[-], s[+] - s[-]) over the leading +- axis.  With a parity
    only s[+] is there, s[-] being parity * s[+]: the half that parity makes
    identically zero is None."""
    if parity is None:
        return s[0] + s[1], s[0] - s[1]
    return (2 * s[0], None) if parity == 1 else (None, 2 * s[0])


def _blocks(stream, x, tk, t, name) -> dict:
    """{(a, b): S_ab} of a streamed symbol on the rows +-tk and columns +-t,
    a (b) being 0 for its half even in xi (eta) and 1 for the odd half; the
    symbol is evaluated on the quadrants that its parity leaves open."""
    ev, parity = stream
    xs, es = ((1.0,) if p is not None else (1.0, -1.0) for p in parity)
    sig = np.asarray(ev(np.asarray(x), np.multiply.outer(xs, tk)[:, :, None, None],
                        np.multiply.outer(es, t)))
    if np.iscomplexobj(sig) or not np.all(np.isfinite(sig)):
        raise DomainError(
            f"symbol {name!r} is not real and finite on the kernel "
            f"frequency box |xi|, |eta| <= {t[-1]:g} at x = {x:g}")
    sig = np.broadcast_to(sig, (len(xs), tk.size, len(es), t.size))
    return {(a, b): S for a, half in enumerate(_fold(sig, parity[0])) if half is not None
            for b, S in enumerate(_fold(np.moveaxis(half, 1, 0), parity[1])) if S is not None}


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
    quadrature: dict  # stream_account


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
                       level=profile.level, deriv=tuple(deriv), spacing=spacing,
                       quadrature=stream_account(sigma, deriv[0]))


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
    quadrature: dict = field(default_factory=dict)  # stream_account


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
                          stability_ratio=float(ratio), verdict=verdict,
                          quadrature=stream_account(sigma, deriv[0]))


@dataclass(frozen=True)
class CzCertification:
    slot: int
    octaves: tuple  # of (radius_lo, radius_hi)
    size_sup: tuple  # sup |K_slot| S^{2n} per octave
    grad_sup: tuple  # sup |grad K_slot| S^{2n+1} per octave
    samples: int
    level: float
    verdict: str
    quadrature: dict  # stream_account


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
                           verdict=verdict, quadrature=stream_account(sigma))
