"""Off-diagonal kernels of T_sigma by truncated oscillatory quadrature.

    K_N(x, y, z) = (1/(2 pi)^{2n}) int int e^{i xi (x-y)} e^{i eta (x-z)}
                   sigma(x, xi, eta) psi(xi/N) psi(eta/N) d xi d eta

with the smooth cutoff psi built from h(s) = e^{-1/s} [s>0] and the level
N > 0 a number.  The frequency integral runs on a trapezoid grid over
[-2N, 2N]^{2n}; the period only wraps the offsets.  Only kernel_at checks,
by reading its kernel_slice again at half the spacing, that spacing 0.25 is
alias-safe: kernel_slice, fit_kernel_decay and the CZ certification do
not.  Derivative kernels multiply the integrand by (i xi), (i eta)
monomials and differentiate sigma in x.

K_N is read through operator.x_expansion, as apply reads T: sigma = sum_s
a_s(x) b_s(xi, eta) gives K_N = sum_s a_s K_s and d_x K_N = sum_s a_s' K_s +
a_s K_s^phase, a_s' exact and K_s^phase from the i(xi + eta) of d/dx of the
phase.  All b_s form one group, streamed once over the distinct offsets
whatever their x; a sigma with no expansion (cos(x xi)) is a group per
distinct x, frozen there with d_x sigma beside it and weighted by 1.

On the grid the kernel at offsets (u_b, v_b) is EU[:, b]^T S EV[:, b],
with S a streamed symbol on the box, raw, and the cutoff on the phases:
F = EU = psi(xi) (-i xi)^beta e^{i xi u}, G = EV likewise in eta.  The
axis is symmetric and S is real, so F(-t) = conj F(t), likewise G, and the
four quadrants +-xi, +-eta sum to real products over t, s >= 0:

    F^T S G = Re F S_ee Re G + i Re F S_eo Im G + i Im F S_oe Re G
              - Im F S_oo Im G,

S_ab(t, s) being the part of S even (e) or odd (o) in xi, then in eta:
S_eo(t, s) = sum over signs c, d of d S(c t, d s), and so on.  S's parity
in xi and in eta, read off its AST (Node.parity), decides which quadrants
are evaluated and which blocks are nonzero: a variable of known parity is
read at + only and its - side follows by the parity.  So sqrt1 evaluates
one quadrant into one block, and a symbol of no parity four quadrants into
four blocks, through the same stream; only the halves of G that some block
reads are built.  S is never held whole: it is evaluated on ROW_BLOCK rows
t_k >= 0 at a time, folded into its blocks, contracted and dropped.
F and G come from grid.phase_table: e^{i t p} at t = (q ROW_BLOCK + r) h
is coarse row q times fine row r, so a pass takes L / ROW_BLOCK + ROW_BLOCK
exponentials per offset, not L.  The eta phases of the distinct v are
built once per pass while they fit PHASE_BUDGET real entries; past it the
offsets are split by v into chunks, and S is streamed again for each
chunk.  Each offset gathers its u and v columns, so no distinct-u x
distinct-v table is built.  Memory is O(ROW_BLOCK L + PHASE_BUDGET) for an
axis of length L, at any level and for any number of offsets.  A symbol
that is complex or not finite anywhere on the box, or an a_s not finite at
a requested x, raises DomainError; a parity carries a non-finite value to
its mirror image too.

Decay fits and Calderon-Zygmund certification of commutator kernels
K_slot = (a(y or z) - a(x)) K_N live here too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError, ToleranceError
from .grid import GridFunction, eval_at, phase_table
from .operator import x_expansion
from .parallel import blas
from .symbols.core import Symbol
from .verdict import (EXPONENT_SLACK, R2_MIN, STABILITY_BUDGET, TINY, ZERO_FLOOR,
                      check, log_fit, spread)

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


def _wrap(u, period: float):
    return (np.asarray(u, dtype=float) + period / 2) % period - period / 2


def _parity(node) -> tuple:
    """(xi, eta) parities of an AST: +1 even, -1 odd, None undecided."""
    return tuple(node.parity(v) for v in ("xi", "eta"))


# A use (f, c, k) adds Fs[f]^T S G_c to output k, Fs = (F, i xi F) and G_c =
# (G, i eta G)[c]: K, the phase term of d_x K, and K_s with K_s^phase beside it.
_K = ((0, 0, 0),)
_PHASE = ((1, 0, 0), (0, 1, 0))
_K_AND_PHASE = ((0, 0, 0), (1, 0, 1), (0, 1, 1))


class KernelQuadrature:
    """Trapezoid rule for batched kernel evaluation (1D symbols) at level N:
    spacing h on [-2N, 2N], the half axis t >= 0 weighted by psi(t / N).

    Stateless: each ``values`` call streams symbols through row blocks and
    keeps no block, so its memory is O(ROW_BLOCK L + PHASE_BUDGET) for an
    axis of length L, at any level and for any number of offsets.
    """

    def __init__(self, sigma: Symbol, level: float, spacing: float = DEFAULT_SPACING):
        if sigma.dim != 1:
            raise InvalidInputError("kernel quadrature is implemented for 1D symbols")
        if not level > 0:
            raise InvalidInputError(f"truncation level must be positive, got {level}")
        self.sigma = sigma
        self.level = level
        self.spacing = float(spacing)
        half = int(np.ceil(2 * level / self.spacing))
        half += half % 2  # even count so the doubled-spacing grid subsamples
        self.axis = np.arange(-half, half + 1) * self.spacing
        self._half = self.axis[half:]  # 0, h, ..., the frequencies t >= 0
        self._weight = cutoff_profile(self._half / level)
        self._weight[0] *= 0.5  # the +-t folds count t = 0 twice
        self.terms = x_expansion(sigma, self._half.size // 8)  # [(a_s, b_s)] or a reason

    def account(self, alpha: int = 0) -> dict:
        """How values reads sigma: each x-term's frequency-factor parity, or why
        sigma has no x-expansion and its (and d_x sigma's) parity when frozen."""
        named = lambda node: dict(zip(("xi", "eta"), _parity(node)))
        if isinstance(self.terms, str):
            node = self.sigma.node
            return {"no_x_expansion": self.terms, "sigma_parity": named(node),
                    **({"dx_sigma_parity": named(node.diff("x"))} if alpha else {})}
        return {"x_terms": len(self.terms), "term_parity": [named(b.node) for _, b in self.terms]}

    def values(self, x, us, vs, deriv=(0, 0, 0)) -> np.ndarray:
        """K_N-derivative values at offsets u = x - y, v = x - z (batched); x is
        a scalar or an array broadcast against us.  Each group (x, offsets,
        streams, weight rows) is streamed once over its distinct offsets."""
        alpha = deriv[0]
        if alpha not in (0, 1):
            raise InvalidInputError("x-derivative order must be 0 or 1")
        us, vs = (np.atleast_1d(np.asarray(z, dtype=float)) for z in (us, vs))
        xq, ix = np.unique(np.broadcast_to(np.asarray(x, dtype=float), us.shape),
                           return_inverse=True)
        if isinstance(self.terms, str):  # sigma frozen at each x (d_x sigma beside it)
            sig = self.sigma
            streams = [(sig.fn, _parity(sig.node), _PHASE if alpha else _K)]
            if alpha == 1:
                streams.append((sig.partial((1,), (0,), (0,)), _parity(sig.node.diff("x")), _K))
            groups = [(xv, ix == j, streams, np.ones((1, xq.size))) for j, xv in enumerate(xq)]
        else:  # one group: a_s' (alpha = 1) and a_s at each x weigh the rows of K
            weights = np.array([np.broadcast_to(ev(xq, 0.0, 0.0), xq.shape) for a, _ in self.terms
                                for ev in (a.partial((1,), (0,), (0,)), a.fn)[1 - alpha:]])
            if not np.all(np.isfinite(weights)):
                raise DomainError(f"an x-factor of symbol {self.sigma.name!r} is not finite at "
                                  f"x = {xq[~np.all(np.isfinite(weights), axis=0)][0]:g}")
            uses = _K_AND_PHASE if alpha else _K
            streams = [(b.fn, _parity(b.node), tuple((f, c, (1 + alpha) * s + k) for f, c, k in uses))
                       for s, (_, b) in enumerate(self.terms)]
            groups = [(None, slice(None), streams, weights)]
        vals = np.empty(us.size, dtype=complex)
        for at, mine, streams, weights in groups:
            keys, inv = np.unique(us[mine] + 1j * vs[mine], return_inverse=True)
            K = self._stream(at, streams, keys.real, keys.imag, deriv)
            vals[mine] = np.sum(weights[:, ix[mine]] * K[:, inv], axis=0)
        return self.spacing ** 2 / (2 * np.pi) ** 2 * vals

    def _phase_rows(self, p, power, alpha):
        """(rows, tk, Es) per ROW_BLOCK rows t_k >= 0: Es = (E,) with E = psi
        (-i t)^power e^{i t p} per offset p, or (E, i t E) when alpha = 1."""
        t = self._half
        coarse, fine = phase_table(self.spacing, p, t.size, ROW_BLOCK)
        amp = self._weight * (-1j * t) ** power
        for q, lo in enumerate(range(0, t.size, ROW_BLOCK)):
            rows = slice(lo, lo + ROW_BLOCK)
            E = coarse[q] * fine[:t[rows].size] * amp[rows, None]
            yield rows, t[rows], ((E, E * (1j * t[rows])[:, None]) if alpha else (E,))

    def _stream(self, x, streams, us, vs, deriv) -> np.ndarray:
        """The outputs of streams (evaluator, parity, uses) at offsets (us, vs),
        frozen at x (None for frequency factors), row block by row block: one
        pass per chunk of distinct v whose G fits PHASE_BUDGET.  G holds the
        real (b = 0) and imaginary (b = 1) parts of the eta phases, each None
        when no streamed symbol reads it."""
        alpha, beta, gamma = deriv
        vq, iv = np.unique(vs, return_inverse=True)
        width = max(1, PHASE_BUDGET // (2 * (1 + alpha) * self._half.size))
        halves = {h for _, parity, _ in streams for h in _open_halves(parity[1])}
        got = np.zeros((1 + max(k for *_, uses in streams for *_, k in uses), 2, us.size))
        for lo in range(0, vq.size, width):
            mine = np.flatnonzero((iv >= lo) & (iv < lo + width))
            vc = vq[lo:lo + width]
            G = [np.empty((self._half.size, (1 + alpha) * vc.size)) if b in halves else None
                 for b in (0, 1)]
            for rows, _, Es in self._phase_rows(vc, gamma, alpha):
                E = np.concatenate(Es, axis=1)
                for g, half in zip(G, (E.real, E.imag)):
                    if g is not None:
                        g[rows] = half
            uq, iu = np.unique(us[mine], return_inverse=True)
            part = np.zeros(got.shape[:2] + mine.shape)  # real and imaginary parts
            for _, tk, Fs in self._phase_rows(uq, beta, alpha):
                for stream in streams:
                    self._contract(part, stream, x, tk, G, Fs, vc.size, iu, iv[mine] - lo)
            got[:, :, mine] = part
        return got[:, 0] + 1j * got[:, 1]

    def _contract(self, got, stream, x, tk, G, Fs, n, iu, iv):
        """Add Fs[f]^T S G_c over the rows +-tk to output k's real and
        imaginary parts, per offset and per use (f, c, k) of the stream: one
        real product per nonzero parity block S_ab, as in the module
        docstring; G_c is the c-th run of n columns of G."""
        ev, parity, uses = stream
        for (a, b), S in _blocks(ev, parity, x, tk, self._half, self.sigma.name).items():
            cols = n * (1 + max(c for _, c, _ in uses))  # the columns read
            with blas(S.shape[0] * S.shape[1] * cols):
                W = S @ G[b][:, :cols]
            for f, c, k in uses:
                part = np.einsum("kb,kb->b", (Fs[f].real, Fs[f].imag)[a][:, iu],
                                 W[:, c * n:(c + 1) * n][:, iv])
                got[k, (a + b) % 2] += -part if a & b else part


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


def _blocks(ev, parity, x, tk, t, name) -> dict:
    """{(a, b): S_ab} of a streamed symbol on the rows +-tk and columns +-t,
    a (b) being 0 for its half even in xi (eta) and 1 for the odd half; the
    symbol is evaluated, at x (a frequency factor at x = None), on the
    quadrants that its parity leaves open."""
    xs, es = ((1.0,) if p is not None else (1.0, -1.0) for p in parity)
    sig = np.asarray(ev(np.asarray(0.0 if x is None else x),
                        np.multiply.outer(xs, tk)[:, :, None, None], np.multiply.outer(es, t)))
    if np.iscomplexobj(sig) or not np.all(np.isfinite(sig)):
        raise DomainError(
            f"symbol {name!r} is not real and finite on the kernel frequency box "
            f"|xi|, |eta| <= {t[-1]:g}" + ("" if x is None else f" at x = {x:g}"))
    sig = np.broadcast_to(sig, (len(xs), tk.size, len(es), t.size))
    return {(a, b): S for a, half in enumerate(_fold(sig, parity[0])) if half is not None
            for b, S in enumerate(_fold(np.moveaxis(half, 1, 0), parity[1])) if S is not None}


@dataclass(frozen=True)
class KernelSlice:
    x: float
    offsets: tuple  # of (y, z)
    values: np.ndarray
    level: float
    deriv: tuple
    spacing: float
    quadrature: dict  # KernelQuadrature.account


def kernel_slice(sigma: Symbol, level: float, x: float, offsets, deriv=(0, 0, 0),
                 period: float = 2 * np.pi, spacing: float = DEFAULT_SPACING) -> KernelSlice:
    """K_N-derivative values at x for the off-diagonal points (y, z) of offsets."""
    quad = KernelQuadrature(sigma, level, spacing)
    offsets = [(float(y), float(z)) for (y, z) in offsets]
    us = _wrap(np.array([x - y for y, _ in offsets]), period)
    vs = _wrap(np.array([x - z for _, z in offsets]), period)
    if np.any(np.maximum(np.abs(us), np.abs(vs)) == 0.0):
        raise DomainError("kernel requested on the diagonal: max(|x-y|, |x-z|) = 0")
    vals = quad.values(x, us, vs, deriv=deriv)
    return KernelSlice(x=float(x), offsets=tuple(offsets), values=vals,
                       level=level, deriv=tuple(deriv), spacing=spacing,
                       quadrature=quad.account(deriv[0]))


def kernel_at(sigma: Symbol, level: float, x: float, y: float, z: float,
              deriv=(0, 0, 0), period: float = 2 * np.pi,
              spacing: float = DEFAULT_SPACING, guard: bool = True) -> complex:
    """K_N(x, y, z) for one off-diagonal triple: a one-point kernel_slice,
    checked against the same slice at half the spacing (the doubling guard)."""
    if any(o not in (0, 1) for o in deriv):
        raise InvalidInputError("derivative orders must be 0 or 1 each")
    val = complex(kernel_slice(sigma, level, x, [(y, z)], deriv, period, spacing).values[0])
    if guard:
        ref = complex(kernel_slice(sigma, level, x, [(y, z)], deriv, period, spacing / 2).values[0])
        if abs(val - ref) / max(abs(ref), TINY) > GUARD_REL_TOL:
            raise ToleranceError(
                f"kernel quadrature not converged at (x,y,z)=({x},{y},{z}): "
                f"{val} at spacing {spacing} vs {ref} at {spacing/2}",
                coarse=val, fine=ref)
    return val


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
    quadrature: dict = field(default_factory=dict)  # KernelQuadrature.account
    bounds: tuple = ()


def ray_offsets(r, th):
    """(u, v) = (r cos th, r sin th) / (|cos th| + |sin th|), so |u| + |v| = r."""
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

    th = np.linspace(0, 2 * np.pi, directions, endpoint=False) + 0.1  # off the axes
    us, vs = (z.ravel() for z in ray_offsets(np.array(radii)[:, None], th))

    def max_curve(at_level: float):
        quad = KernelQuadrature(sigma, at_level, spacing)
        vals = quad.values(x0, us, vs, deriv=deriv)  # every radius in one batch
        return np.max(np.abs(vals).reshape(len(radii), directions), axis=1), quad

    maxima, quad = max_curve(level)
    p_hat, intercept, r2 = log_fit(radii, maxima)

    stability = {}
    for lev in stability_levels:
        curve = maxima if lev == level else max_curve(lev)[0]
        stability[float(lev)] = float(np.max(curve * np.array(radii) ** (-target)))

    fitted = check("r_squared", r2, ">=", R2_MIN)
    decay = check("exponent", p_hat, "<=", target + EXPONENT_SLACK)
    if not fitted.holds:
        verdict = "INCONCLUSIVE"
    elif decay.holds:
        verdict = "BOUNDED"
    else:
        verdict = "FAILED"
    return DecayFitReport(exponent_fit=p_hat, constant=float(np.exp(intercept)),
                          r_squared=r2, target=float(target), radii=radii,
                          maxima=tuple(float(m) for m in maxima), level=level,
                          deriv=tuple(deriv), stability=stability,
                          stability_ratio=spread(stability.values()), verdict=verdict,
                          quadrature=quad.account(deriv[0]), bounds=(fitted, decay))


@dataclass(frozen=True)
class CzCertification:
    slot: int
    octaves: tuple  # of (radius_lo, radius_hi)
    size_sup: tuple  # sup |K_slot| S^{2n} per octave
    grad_sup: tuple  # sup |grad K_slot| S^{2n+1} per octave
    samples: int
    level: float
    verdict: str
    quadrature: dict  # KernelQuadrature.account
    bounds: tuple


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
    as (octave, sample) arrays; every base point, octave and x-step takes
    one quadrature batch, and each base point one interpolation of a.
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
    quad = KernelQuadrature(sigma, level, spacing)
    n = 1
    per_octave = samples // octave_count
    # one shared pool of base points, so octave sups see the same x statistics
    xpool = rng.uniform(0, period, size=8)
    lo = base_radius * 2.0 ** np.arange(octave_count)
    draws = np.array([(rng.uniform(np.log(l), np.log(2 * l), size=per_octave),
                       rng.uniform(0, 2 * np.pi, size=per_octave)) for l in lo])
    us, vs = ray_offsets(np.exp(draws[:, 0]), draws[:, 1])  # (octave, sample)
    S = np.abs(us) + np.abs(vs) + np.abs(_wrap(us - vs, period))
    h = S / 8
    hx = lo[:, None] / 8  # one x-step per octave, shared by its samples
    # (base point, octave, sample, 7) triples: x with the five offsets, then
    # x + hx and x - hx with the first
    xs = xpool[:, None, None, None] + hx[:, :, None] * np.array([0, 0, 0, 0, 0, 1, -1])
    offsets = (np.stack([us, us - h, us + h, us, us, us, us], axis=-1),
               np.stack([vs, vs, vs, vs - h, vs + h, vs, vs], axis=-1))
    shape = (xpool.size, *us.shape, 7)
    k = quad.values(*(np.broadcast_to(z, shape).ravel() for z in (xs, *offsets)))
    off = us if slot == 1 else vs
    iy, iz = ((3, 4), (0, 0)) if slot == 1 else ((0, 0), (3, 4))  # stepped weight rows
    size_sup = grad_sup = np.zeros(octave_count)
    for xv, (k0, kyl, kyh, kzl, kzh, kxh, kxl) in zip(xpool, np.moveaxis(k.reshape(shape), -1, 1)):
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
    bounds = tuple(check(f"{name}_spread", spread(sups), "<", STABILITY_BUDGET, floor=ZERO_FLOOR)
                   for name, sups in (("size", size_sup), ("grad", grad_sup)))
    return CzCertification(slot=slot, octaves=tuple(octaves),
                           size_sup=tuple(size_sup.tolist()),
                           grad_sup=tuple(grad_sup.tolist()),
                           samples=per_octave * octave_count, level=level,
                           verdict="BOUNDED" if all(b.holds for b in bounds) else "FAILED",
                           quadrature=quad.account(), bounds=bounds)
