"""Symbols sigma(x, xi, eta): evaluation, declared class, derivatives.

A symbol's evaluator takes (x, xi, eta); in 1D each argument is a scalar
or ndarray, in 2D each is a pair of those.  A symbol built by
symbol_from_expr (the catalog and the FTC components of ftc.py too) keeps
its AST, and every partial derivative is the exact derivative of that AST.
A symbol built from a plain callable has values only: a derivative of
order >= 1, or an FTC component, of it is an error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from .expr import VARIABLES_1D, VARIABLES_2D, Node, parse_symbol_expr, pretty

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
    """sigma(x, xi, eta) with a declared class.

    node, when given, is the expression AST that fn evaluates, and every
    derivative is the exact derivative of that AST.  Without one, fn gives
    values only.
    """

    partials: dict = {}  # bound by perfbench/tracer.py until ROADMAP item 4

    def __init__(self, name: str, fn, declared_class: SymbolClassParams,
                 dim: int = 1, x_independent: bool = False,
                 node: Node | None = None):
        if dim not in (1, 2):
            raise InvalidInputError(f"dim must be 1 or 2, got {dim}")
        self.name = name
        self.fn = fn
        self.declared_class = declared_class
        self.dim = dim
        self.x_independent = x_independent
        self.node = node

    def eval(self, x, xi, eta):
        return _broadcast_result(self.fn(x, xi, eta), x, xi, eta, self.dim)

    def partial(self, alpha=0, beta=0, gamma=0):
        """Evaluator for d^alpha_x d^beta_xi d^gamma_eta sigma.

        Order 0 is fn; higher orders differentiate the AST exactly, and a
        symbol without one raises InvalidInputError.
        """
        dim = self.dim
        orders = _as_multi(alpha, dim) + _as_multi(beta, dim) + _as_multi(gamma, dim)
        if not any(orders):
            return self.fn
        node = _require_ast(self)  # x first: an x-independent AST folds to Num(0) at once
        for var, k in zip(VARIABLES_1D if dim == 1 else VARIABLES_2D, orders):
            for _ in range(k):
                node = node.diff(var)
        return _ast_evaluator(node, dim)


def _require_ast(sym: Symbol) -> Node:
    if sym.node is None:
        raise InvalidInputError(
            f"symbol {sym.name!r} is a plain callable: it has values but no "
            f"derivatives; build it from an expression")
    return sym.node


_fd_freq = _fd_space = None  # bound by perfbench/tracer.py until ROADMAP item 4


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
