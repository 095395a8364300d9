"""Symbols sigma(x, xi, eta): evaluation, declared class, derivatives.

A symbol's evaluator takes (x, xi, eta); in 1D each argument is a scalar
or ndarray, in 2D each is a pair of those.  A symbol built from an
expression (symbol_from_expr, which also builds the catalog) keeps its AST,
and every partial derivative is the exact derivative of that AST.  A
symbol built from a plain callable takes its derivatives from registered
closed forms when available and from central finite differences
otherwise, with step 1e-4 in space and 1e-4*(1+|xi|+|eta|) in frequency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .expr import VARIABLES_1D, VARIABLES_2D, Node, parse_symbol_expr, pretty

FD_SPACE_STEP = 1e-4
FD_FREQ_REL_STEP = 1e-4


@dataclass(frozen=True)
class SymbolClassParams:
    """Order and regularity parameters (m, rho, delta) of a declared class."""

    m: float
    rho: float = 1.0
    delta: float = 0.0


def _as_multi(idx, dim: int) -> tuple:
    if isinstance(idx, (int, np.integer)):
        if dim == 1:
            return (int(idx),)
        if idx == 0:
            return (0,) * dim
        raise InvalidInputError(f"scalar multi-index {idx} is ambiguous in dim {dim}")
    t = tuple(int(i) for i in idx)
    if len(t) != dim or any(i < 0 for i in t):
        raise InvalidInputError(f"bad multi-index {idx} for dim {dim}")
    return t


def _components(v, dim: int) -> tuple:
    if dim == 1:
        return (np.asarray(v),)
    if not isinstance(v, (tuple, list)) or len(v) != dim:
        raise InvalidInputError(f"need {dim} components, got {v!r}")
    return tuple(np.asarray(c) for c in v)


def _pack(comps: tuple, dim: int):
    return comps[0] if dim == 1 else tuple(comps)


def _shift(v, dim: int, comp: int, delta):
    comps = list(_components(v, dim))
    comps[comp] = comps[comp] + delta
    return _pack(tuple(comps), dim)


def absnorm(xi, eta, dim: int = 1):
    """1 + |xi| + |eta| with Euclidean block norms."""
    xic = _components(xi, dim)
    etac = _components(eta, dim)
    return 1.0 + np.sqrt(sum(c ** 2 for c in xic)) + np.sqrt(sum(c ** 2 for c in etac))


def _broadcast_result(res, x, xi, eta, dim: int):
    comps = _components(x, dim) + _components(xi, dim) + _components(eta, dim)
    shape = np.broadcast_shapes(*(c.shape for c in comps))
    out = np.asarray(res)
    if out.shape != shape:
        out = np.broadcast_to(out, shape)
    return out


class Symbol:
    """sigma(x, xi, eta) with a declared class and a source for its partials.

    node, when given, is the expression AST that fn evaluates; partials
    are then its exact derivatives.  Otherwise partials maps (alpha, beta,
    gamma) multi-index triples to evaluators with the same signature as
    fn, and the rest are finite differences.  Orders up to 2 per variable
    block are the supported registration range.
    """

    def __init__(self, name: str, fn, declared_class: SymbolClassParams,
                 dim: int = 1, partials: dict | None = None,
                 x_independent: bool | None = None, node: Node | None = None):
        if dim not in (1, 2):
            raise InvalidInputError(f"dim must be 1 or 2, got {dim}")
        self.name = name
        self.fn = fn
        self.declared_class = declared_class
        self.dim = dim
        self.x_independent = x_independent
        norm = {}
        for key, val in (partials or {}).items():
            a, b, g = key
            norm[(_as_multi(a, dim), _as_multi(b, dim), _as_multi(g, dim))] = val
        self.partials = norm
        self.node = node

    def eval(self, x, xi, eta):
        return _broadcast_result(self.fn(x, xi, eta), x, xi, eta, self.dim)

    def partial(self, alpha=0, beta=0, gamma=0):
        """Evaluator for d^alpha_x d^beta_xi d^gamma_eta sigma.

        With an AST this differentiates it exactly.  Otherwise finite
        differences peel one order at a time (eta first, then xi, then x)
        until a registered closed form or the base evaluator is reached.
        """
        dim = self.dim
        a = _as_multi(alpha, dim)
        b = _as_multi(beta, dim)
        g = _as_multi(gamma, dim)
        return self._partial(a, b, g)

    def _partial(self, a: tuple, b: tuple, g: tuple):
        if sum(a) + sum(b) + sum(g) == 0:
            return self.fn
        if self.node is not None:
            node = self.node  # x first: an x-independent AST folds to Num(0) at once
            for var, k in zip(VARIABLES_1D if self.dim == 1 else VARIABLES_2D, a + b + g):
                for _ in range(k):
                    node = node.diff(var)
            return _ast_evaluator(node, self.dim)
        hit = self.partials.get((a, b, g))
        if hit is not None:
            return hit
        for comp in reversed(range(self.dim)):
            if g[comp] > 0:
                inner = self._partial(a, b, _dec(g, comp))
                return _fd_freq(inner, self.dim, block="eta", comp=comp)
        for comp in reversed(range(self.dim)):
            if b[comp] > 0:
                inner = self._partial(a, _dec(b, comp), g)
                return _fd_freq(inner, self.dim, block="xi", comp=comp)
        for comp in reversed(range(self.dim)):
            if a[comp] > 0:
                inner = self._partial(_dec(a, comp), b, g)
                return _fd_space(inner, self.dim, comp=comp)
        raise AssertionError("unreachable")


def _dec(t: tuple, comp: int) -> tuple:
    out = list(t)
    out[comp] -= 1
    return tuple(out)


def _fd_freq(inner, dim: int, block: str, comp: int):
    def deriv(x, xi, eta):
        h = FD_FREQ_REL_STEP * absnorm(xi, eta, dim)
        if block == "xi":
            hi = inner(x, _shift(xi, dim, comp, h), eta)
            lo = inner(x, _shift(xi, dim, comp, -h), eta)
        else:
            hi = inner(x, xi, _shift(eta, dim, comp, h))
            lo = inner(x, xi, _shift(eta, dim, comp, -h))
        return (np.asarray(hi) - np.asarray(lo)) / (2 * h)

    return deriv


def _fd_space(inner, dim: int, comp: int):
    def deriv(x, xi, eta):
        h = FD_SPACE_STEP
        hi = inner(_shift(x, dim, comp, h), xi, eta)
        lo = inner(_shift(x, dim, comp, -h), xi, eta)
        return (np.asarray(hi) - np.asarray(lo)) / (2 * h)

    return deriv


def symbol_from_expr(expr, declared_class: SymbolClassParams, dim: int = 1,
                     name: str | None = None) -> Symbol:
    """Build a Symbol whose evaluator runs the parsed AST."""
    if isinstance(expr, str):
        node = parse_symbol_expr(expr)
        if name is None:
            name = expr
    else:
        node = expr
        if not isinstance(node, Node):
            raise InvalidInputError(f"not an expression or source text: {expr!r}")
        if name is None:
            name = pretty(node)
    free = node.free_vars()
    bad = sorted(free - set(VARIABLES_1D if dim == 1 else VARIABLES_2D))
    if bad:
        raise InvalidInputError(
            f"expression variables {bad} not available in dim {dim}")
    return Symbol(name, _ast_evaluator(node, dim), declared_class, dim=dim, node=node,
                  x_independent=not any(v in free for v in ("x", "x1", "x2")))


def _ast_evaluator(node: Node, dim: int):
    names = VARIABLES_1D if dim == 1 else VARIABLES_2D

    def fn(x, xi, eta):
        return node.eval(dict(zip(names, _components(x, dim) + _components(xi, dim)
                                  + _components(eta, dim))))

    return fn
