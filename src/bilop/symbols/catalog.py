"""Built-in symbols, multiplier functions, and scan test families.

The symbol catalog spans the toolkit's hypotheses: the constant, the two
coordinate symbols, the canonical order-1 elliptic symbol, its
x-modulated variant, an order-0 ratio symbol, and two deliberately
misdeclared entries that seminorm scans must flag as growing.  Each entry
is an expression with a declared order, built by symbol_from_expr, so its
partial derivatives are exact derivatives of the expression's AST.
"""
from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..grid import Grid, GridFunction
from .core import Symbol, SymbolClassParams, symbol_from_expr

# name -> (expression, declared order m) per dimension; rho = 1, delta = 0.
# Each expression keeps the evaluation order of the closed form it
# replaced, so the values are bit-identical; in 2D the coordinate symbols
# split per component and |xi|, |eta| are Euclidean block norms.
_CATALOG = {
    1: {
        "one": ("1", 0.0),
        "xi": ("xi", 1.0),
        "eta": ("eta", 1.0),
        "sqrt1": ("sqrt(1+xi^2+eta^2)", 1.0),
        "theta_sqrt1": ("(2+sin(x))*sqrt(1+xi^2+eta^2)", 1.0),
        "cm0": ("(xi^2+eta^2)/(1+xi^2+eta^2)", 0.0),
        "bad_xieta": ("xi*eta", 1.0),
        "bad_linear": ("1+abs(xi)+abs(eta)", 0.0),
    },
    2: {
        "one": ("1", 0.0),
        "xi1": ("xi1", 1.0),
        "xi2": ("xi2", 1.0),
        "eta1": ("eta1", 1.0),
        "eta2": ("eta2", 1.0),
        "sqrt1": ("sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)", 1.0),
        "theta_sqrt1": ("(2+sin(x1)*cos(x2))*sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)", 1.0),
        "cm0": ("(xi1^2+xi2^2+eta1^2+eta2^2)/(1+xi1^2+xi2^2+eta1^2+eta2^2)", 0.0),
        "bad_xieta": ("xi1*eta1", 1.0),
        "bad_linear": ("1+sqrt(xi1^2+xi2^2)+sqrt(eta1^2+eta2^2)", 0.0),
    },
}


def catalog_names(dim: int = 1) -> tuple:
    """The built-in symbol names for the given dimension."""
    if dim not in _CATALOG:
        raise InvalidInputError(f"dim must be 1 or 2, got {dim}")
    return tuple(_CATALOG[dim])


def catalog_symbol(name: str, dim: int = 1) -> Symbol:
    """The built-in symbol `name`; only that entry is parsed."""
    if name not in catalog_names(dim):
        raise InvalidInputError(
            f"unknown catalog symbol '{name}' (have {sorted(_CATALOG[dim])})")
    src, m = _CATALOG[dim][name]
    return symbol_from_expr(src, SymbolClassParams(m), dim=dim, name=name)


def symbol_catalog(dim: int = 1) -> dict:
    """All built-in symbols for the given dimension, keyed by name."""
    return {name: catalog_symbol(name, dim) for name in catalog_names(dim)}


# symbols whose declared class is honest (the two bad_* entries exist to fail)
HONEST_BS1_NAMES = ("one", "xi", "eta", "sqrt1", "theta_sqrt1", "cm0")
# symbols of declared order exactly 1 (critical scaling for kernel bounds)
ORDER1_NAMES = ("xi", "eta", "sqrt1", "theta_sqrt1")


def _smooth_bump_profile(s):
    out = np.zeros_like(np.asarray(s, dtype=float))
    inside = np.abs(s) < 1
    si = np.asarray(s, dtype=float)[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si ** 2))
    return out


def _sawtooth_values(x, period):
    # mollified sawtooth: truncated Fourier series with Gaussian damping
    k0 = 8.0
    out = np.zeros_like(np.asarray(x, dtype=float))
    for k in range(1, 33):
        out += ((-1) ** (k + 1)) * 2.0 / k * np.sin(2 * np.pi * k * x / period) \
            * np.exp(-((k / k0) ** 2))
    return out


MULTIPLIER_NAMES = ("bump", "const", "sawtooth", "sinx", "step")


def multiplier_function(name: str, grid: Grid) -> GridFunction:
    """Named multiplier sampled on the grid (1D)."""
    if grid.dim != 1:
        raise InvalidInputError("named multipliers are 1D")
    x = grid.nodes_1d()
    L = grid.period
    if name == "sinx":
        vals = np.sin(2 * np.pi * x / L) if L != 2 * np.pi else np.sin(x)
    elif name == "const":
        vals = np.ones_like(x)
    elif name == "sawtooth":
        vals = _sawtooth_values(x, L)
    elif name == "bump":
        center, width = L / 3.0, L / 8.0
        u = (x - center) / width
        u = (u + L / (2 * width)) % (L / width) - L / (2 * width)
        vals = _smooth_bump_profile(u)
    elif name == "step":
        vals = np.where(x < L / 2, 1.0, -1.0)
    else:
        raise InvalidInputError(
            f"unknown multiplier '{name}' (have {sorted(MULTIPLIER_NAMES)})")
    return GridFunction(grid, vals)


FAMILY_NAMES = ("modulated-bump", "plane-wave", "random-trig")
