"""Fundamental-theorem-of-calculus splitting of a symbol.

Writes sigma(x, xi, eta) - sigma(x, 0, 0) as

    sum_j xi_j * sigma_j + sum_j eta_j * sigmatilde_j,
    sigma_j(x, xi, eta)      = int_0^1 (d_xi_j sigma)(x, t xi, t eta) dt,
    sigmatilde_j(x, xi, eta) = int_0^1 (d_eta_j sigma)(x, t xi, t eta) dt,

with the t-integral evaluated by Gauss-Legendre quadrature.  The nodes
are stacked on a leading axis, so the parent's partial is evaluated once
per chunk of at most NODE_CHUNK_ENTRIES entries, not once per node.  Each
component drops one order: declared class (m - 1, rho, delta).
"""
from __future__ import annotations

import functools

import numpy as np

from ..errors import InvalidInputError, ToleranceError
from .core import Symbol, SymbolClassParams, _as_multi, _components, _pack

GUARD_TOL = 1e-8
NODE_CHUNK_ENTRIES = 2 ** 18  # bounds the stacked arrays of one parent evaluation


@functools.cache
def _gauss_legendre_01(q: int):
    """Nodes and weights on [0, 1], computed once per q and shared read-only."""
    t, w = np.polynomial.legendre.leggauss(q)
    nodes, weights = (t + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _scale_freq(v, t, dim: int):
    comps = _components(v, dim)
    return _pack(tuple(t * c for c in comps), dim)


class FtcComponentSymbol(Symbol):
    """One sigma_j / sigmatilde_j factor; derivatives integrate the parent's."""

    def __init__(self, parent: Symbol, block: str, comp: int, quad_points: int):
        self.parent = parent
        self.block = block
        self.comp = comp
        self.quad_points = int(quad_points)
        self._nodes, self._weights = _gauss_legendre_01(self.quad_points)
        pc = parent.declared_class
        tag = ("xi" if block == "xi" else "eta") + (str(comp + 1) if parent.dim > 1 else "")
        super().__init__(
            name=f"{parent.name}[{tag}]",
            fn=self._make_integral((0,) * parent.dim, (0,) * parent.dim,
                                   (0,) * parent.dim),
            declared_class=SymbolClassParams(pc.m - 1, pc.rho, pc.delta),
            dim=parent.dim,
            x_independent=parent.x_independent,
        )

    def _make_integral(self, a: tuple, b: tuple, g: tuple):
        dim = self.parent.dim
        e = [0] * dim
        e[self.comp] = 1
        if self.block == "xi":
            b_in = tuple(np.add(b, e))
            g_in = g
        else:
            b_in = b
            g_in = tuple(np.add(g, e))
        inner = self.parent._partial(a, b_in, g_in)
        tpow = sum(b) + sum(g)
        t = self._nodes
        coeff = self._weights * t ** tpow

        def integral(x, xi, eta):
            comps = _components(x, dim) + _components(xi, dim) + _components(eta, dim)
            shape = np.broadcast_shapes(*(c.shape for c in comps))
            step = max(1, NODE_CHUNK_ENTRIES // max(1, int(np.prod(shape))))
            acc = 0
            for lo in range(0, t.size, step):
                # the nodes on a leading axis: one parent evaluation per chunk
                ts = t[lo:lo + step].reshape((-1,) + (1,) * len(shape))
                val = inner(x, _scale_freq(xi, ts, dim), _scale_freq(eta, ts, dim))
                val = np.broadcast_to(val, ts.shape[:1] + shape)
                acc = acc + (coeff[lo:lo + step].reshape(ts.shape) * val).sum(axis=0)
            return acc

        return integral

    def _partial(self, a: tuple, b: tuple, g: tuple):
        if sum(a) + sum(b) + sum(g) == 0:
            return self.fn
        return self._make_integral(a, b, g)

    def with_quad_points(self, q: int) -> "FtcComponentSymbol":
        return FtcComponentSymbol(self.parent, self.block, self.comp, q)


def ftc_decompose(sigma: Symbol, quad_points: int = 64, guard: bool = True,
                  guard_box: float = 64.0, guard_samples: int = 50,
                  period: float = 2 * np.pi) -> list:
    """Return [sigma_1..sigma_n, sigmatilde_1..sigmatilde_n].

    The components reconstruct sigma minus its zero-frequency part:
    sum_j (xi_j sigma_j + eta_j sigmatilde_j) = sigma - sigma(x, 0, 0).
    """
    if quad_points < 16:
        raise InvalidInputError(f"quad_points must be >= 16, got {quad_points}")
    dim = sigma.dim
    comps = [FtcComponentSymbol(sigma, "xi", j, quad_points) for j in range(dim)]
    comps += [FtcComponentSymbol(sigma, "eta", j, quad_points) for j in range(dim)]
    if guard:
        rng = np.random.default_rng(0)
        x = rng.uniform(0, period, size=guard_samples)
        z = rng.uniform(-guard_box, guard_box, size=(guard_samples, 2 * dim))
        xp = _pack((x, *rng.uniform(0, period, size=(dim - 1, guard_samples))), dim)
        xip, etap = _pack(tuple(z[:, :dim].T), dim), _pack(tuple(z[:, dim:].T), dim)
        for c in comps:
            fine = c.with_quad_points(2 * quad_points)
            v1 = np.asarray(c.eval(xp, xip, etap))
            v2 = np.asarray(fine.eval(xp, xip, etap))
            gap = np.abs(v1 - v2)
            worst = int(np.argmax(gap))
            if gap[worst] > GUARD_TOL:
                raise ToleranceError(
                    f"quadrature not converged for {c.name}: "
                    f"{quad_points} vs {2*quad_points} nodes differ by "
                    f"{gap[worst]:.3e} at probe #{worst}",
                    coarse=complex(v1.flat[worst]), fine=complex(v2.flat[worst]))
    return comps


def reconstruction_residual(sigma: Symbol, components: list, probes: int = 200,
                            box: float = 64.0, seed: int = 1,
                            period: float = 2 * np.pi) -> float:
    """max |sum_j (xi_j sigma_j + eta_j sigmatilde_j) - (sigma - sigma(x,0,0))|."""
    dim = sigma.dim
    rng = np.random.default_rng(seed)
    z = rng.uniform(-box, box, size=(probes, 2 * dim))
    x = _pack(tuple(rng.uniform(0, period, size=(dim, probes))), dim)
    xic, etac = z[:, :dim].T, z[:, dim:].T
    xi, eta = _pack(tuple(xic), dim), _pack(tuple(etac), dim)
    zero = _pack((np.zeros(probes),) * dim, dim)
    base = sigma.eval(x, xi, eta) - sigma.eval(x, zero, zero)
    acc = 0
    for j in range(dim):
        acc = acc + xic[j] * components[j].eval(x, xi, eta)
        acc = acc + etac[j] * components[dim + j].eval(x, xi, eta)
    return float(np.max(np.abs(acc - base)))
