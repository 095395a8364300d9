"""Fundamental-theorem-of-calculus splitting of a symbol.

Writes sigma(x, xi, eta) - sigma(x, 0, 0) as

    sum_j xi_j * sigma_j + sum_j eta_j * sigmatilde_j,
    sigma_j(x, xi, eta)      = int_0^1 (d_xi_j sigma)(x, t xi, t eta) dt,
    sigmatilde_j(x, xi, eta) = int_0^1 (d_eta_j sigma)(x, t xi, t eta) dt.

Each component is an expression symbol whose AST is one Quad node over
the parent's exact partial, so it has exact derivatives of every order:
an x-derivative passes under the integral, a frequency derivative adds a
factor t.  The t-integral is Gauss-Legendre quadrature with the nodes
stacked on a leading axis, so the integrand is evaluated once per chunk
of at most NODE_CHUNK_ENTRIES entries, not once per node.  Each
component drops one order: declared class (m - 1, rho, delta).
"""
from __future__ import annotations

import functools

import numpy as np

from ..errors import InvalidInputError, ToleranceError
from ..verdict import IDENTITY_TOL, check
from .core import Symbol, SymbolClassParams, _pack, symbol_from_expr
from .expr import VARIABLES, Node, _is

GUARD_TOL = 1e-8
GUARD_BOX = 64.0   # the guard's frequency probes are uniform in [-GUARD_BOX, GUARD_BOX]
GUARD_SAMPLES = 50
NODE_CHUNK_ENTRIES = 2 ** 18  # bounds the stacked arrays of one integrand evaluation


@functools.cache
def _gauss_legendre_01(q: int):
    """Nodes and weights on [0, 1], computed once per q and shared read-only."""
    t, w = np.polynomial.legendre.leggauss(q)
    nodes, weights = (t + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class Quad(Node):
    """int_0^1 t^power * integrand(x, t xi, t eta) dt by q-node Gauss-Legendre.

    The integrand is evaluated at scaled frequencies, not at the caller's
    environment, so it is not a child: the outer DAG sees a leaf.  Quad is
    not in the grammar and pretty() refuses it, so its symbols are named.
    """

    def __init__(self, integrand: Node, power: int, q: int):
        self.integrand = integrand
        self.power = int(power)
        self.q = int(q)

    def free_vars(self):
        return self.integrand.free_vars()

    def apply(self, env):
        t, w = _gauss_legendre_01(self.q)
        coeff = w * t ** self.power
        shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
        step = max(1, NODE_CHUNK_ENTRIES // max(1, int(np.prod(shape))))
        acc = 0
        for lo in range(0, t.size, step):
            # the nodes on a leading axis: one integrand evaluation per chunk
            ts = t[lo:lo + step].reshape((-1,) + (1,) * len(shape))
            scaled = {k: ts * v if k.startswith(("xi", "eta")) else v
                      for k, v in env.items()}
            val = np.broadcast_to(self.integrand.eval(scaled), ts.shape[:1] + shape)
            acc = acc + (coeff[lo:lo + step].reshape(ts.shape) * val).sum(axis=0)
        return acc

    def derivative(self, var):
        inner = self.integrand.diff(var)
        power = self.power + var.startswith(("xi", "eta"))  # d/dxi of f(t xi) is t f'
        return inner if _is(inner, 0) else Quad(inner, power, self.q)

    def symmetry(self, var):  # t > 0 scales a frequency without flipping its sign
        return self.integrand.parity(var)

    def __repr__(self):
        return f"Quad({self.integrand!r},{self.power},{self.q})"


def _split(sigma: Symbol, q: int) -> list:
    """sigma_j then sigmatilde_j, each the Quad of the parent's exact partial."""
    pc = sigma.declared_class
    params = SymbolClassParams(pc.m - 1, pc.rho, pc.delta)
    freqs = VARIABLES[sigma.dim][sigma.dim:]
    return [symbol_from_expr(Quad(sigma.node.diff(var), 0, q), params, dim=sigma.dim,
                             name=f"{sigma.name}[{var}]") for var in freqs]


def ftc_decompose(sigma: Symbol, quad_points: int = 64, guard: bool = True,
                  period: float = 2 * np.pi) -> list:
    """Return [sigma_1..sigma_n, sigmatilde_1..sigmatilde_n].

    The components reconstruct sigma minus its zero-frequency part:
    sum_j (xi_j sigma_j + eta_j sigmatilde_j) = sigma - sigma(x, 0, 0).
    """
    if quad_points < 16:
        raise InvalidInputError(f"quad_points must be >= 16, got {quad_points}")
    dim = sigma.dim
    comps = _split(sigma, quad_points)
    if guard:
        rng = np.random.default_rng(0)
        x = rng.uniform(0, period, size=GUARD_SAMPLES)
        z = rng.uniform(-GUARD_BOX, GUARD_BOX, size=(GUARD_SAMPLES, 2 * dim))
        xp = _pack((x, *rng.uniform(0, period, size=(dim - 1, GUARD_SAMPLES))), dim)
        xip, etap = _pack(tuple(z[:, :dim].T), dim), _pack(tuple(z[:, dim:].T), dim)
        for c, fine in zip(comps, _split(sigma, 2 * quad_points)):
            v1, v2 = c.eval(xp, xip, etap), fine.eval(xp, xip, etap)
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
    if probes < 1 or not box > 0:
        raise InvalidInputError(f"need >= 1 probe in a box of positive size, got {probes} in {box}")
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


def reconstruction_verdict(residual: float) -> tuple:
    """(verdict, bounds) of a reconstruction residual: PASS within IDENTITY_TOL."""
    bound = check("reconstruction_residual", residual, "<=", IDENTITY_TOL)
    return "PASS" if bound.holds else "FAILED", (bound,)
