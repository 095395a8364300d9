"""Built-in symbols, multiplier functions, and scan test families.

The symbol catalog spans the toolkit's hypotheses: the constant, the two
coordinate symbols, the canonical order-1 elliptic symbol, its
x-modulated variant, an order-0 ratio symbol, and two deliberately
misdeclared entries that seminorm scans must flag as growing.
"""
from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from ..grid import Grid, GridFunction
from .core import Symbol, SymbolClassParams

THETA_NAME = "2+sin(x)"


def _zero(x, xi, eta):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(xi), np.shape(eta)))


def _zeros(x_orders) -> dict:
    """_zero for each partial ((a,), (b,), (g,)) of order >= 1, a in x_orders, b, g <= 2."""
    return {((a,), (b,), (g,)): _zero for a in x_orders for b in range(3) for g in range(3)
            if a + b + g}


def _one_sym() -> Symbol:
    partials = _zeros(range(3))
    return Symbol("one", lambda x, xi, eta: np.ones(
        np.broadcast_shapes(np.shape(x), np.shape(xi), np.shape(eta))),
        SymbolClassParams(0.0, 1.0, 0.0), dim=1, partials=partials,
        x_independent=True)


def _coordinate_sym(which: str) -> Symbol:
    pick = (lambda x, xi, eta: np.asarray(xi) * np.ones(np.broadcast_shapes(
        np.shape(x), np.shape(xi), np.shape(eta)))) if which == "xi" else (
        lambda x, xi, eta: np.asarray(eta) * np.ones(np.broadcast_shapes(
            np.shape(x), np.shape(xi), np.shape(eta))))
    partials = {**_zeros(range(3)),
                ((0,), (1,), (0,)) if which == "xi" else ((0,), (0,), (1,)):
                lambda x, xi, eta: np.ones(np.broadcast_shapes(
                    np.shape(x), np.shape(xi), np.shape(eta)))}
    return Symbol(which, pick, SymbolClassParams(1.0, 1.0, 0.0), dim=1,
                  partials=partials, x_independent=True)


def _sqrt1_partials():
    def w(xi, eta):
        return 1.0 + np.asarray(xi) ** 2 + np.asarray(eta) ** 2

    return {
        ((0,), (1,), (0,)): lambda x, xi, eta: xi / np.sqrt(w(xi, eta)),
        ((0,), (0,), (1,)): lambda x, xi, eta: eta / np.sqrt(w(xi, eta)),
        ((0,), (2,), (0,)): lambda x, xi, eta: (1 + np.asarray(eta) ** 2) / w(xi, eta) ** 1.5,
        ((0,), (0,), (2,)): lambda x, xi, eta: (1 + np.asarray(xi) ** 2) / w(xi, eta) ** 1.5,
        ((0,), (1,), (1,)): lambda x, xi, eta: -np.asarray(xi) * np.asarray(eta) / w(xi, eta) ** 1.5,
    }


def _sqrt1_sym() -> Symbol:
    partials = {**_sqrt1_partials(), **_zeros((1, 2))}
    return Symbol("sqrt1",
                  lambda x, xi, eta: np.sqrt(1.0 + np.asarray(xi) ** 2
                                             + np.asarray(eta) ** 2)
                  * np.ones(np.broadcast_shapes(np.shape(x), np.shape(xi),
                                                np.shape(eta))),
                  SymbolClassParams(1.0, 1.0, 0.0), dim=1, partials=partials,
                  x_independent=True)


def _theta_sqrt1_sym() -> Symbol:
    theta_derivs = [
        lambda x: 2.0 + np.sin(np.asarray(x, dtype=float)),
        lambda x: np.cos(np.asarray(x, dtype=float)),
        lambda x: -np.sin(np.asarray(x, dtype=float)),
    ]

    base = {((0,), (0,), (0,)): lambda x, xi, eta: np.sqrt(
        1.0 + np.asarray(xi) ** 2 + np.asarray(eta) ** 2)}
    base.update(_sqrt1_partials())

    partials = {}
    for a in range(3):
        th = theta_derivs[a]
        for (_, kb, kg), freq_part in base.items():
            if a == 0 and kb == (0,) and kg == (0,):
                continue
            partials[((a,), kb, kg)] = \
                lambda x, xi, eta, th=th, fp=freq_part: th(x) * np.asarray(fp(x, xi, eta))

    return Symbol("theta_sqrt1",
                  lambda x, xi, eta: (2.0 + np.sin(np.asarray(x, dtype=float)))
                  * np.sqrt(1.0 + np.asarray(xi) ** 2 + np.asarray(eta) ** 2),
                  SymbolClassParams(1.0, 1.0, 0.0), dim=1, partials=partials,
                  x_independent=False)


def _cm0_sym() -> Symbol:
    def w(xi, eta):
        return 1.0 + np.asarray(xi) ** 2 + np.asarray(eta) ** 2

    partials = {
        ((0,), (1,), (0,)): lambda x, xi, eta: 2 * np.asarray(xi) / w(xi, eta) ** 2,
        ((0,), (0,), (1,)): lambda x, xi, eta: 2 * np.asarray(eta) / w(xi, eta) ** 2,
        ((0,), (2,), (0,)): lambda x, xi, eta: 2 / w(xi, eta) ** 2
        - 8 * np.asarray(xi) ** 2 / w(xi, eta) ** 3,
        ((0,), (0,), (2,)): lambda x, xi, eta: 2 / w(xi, eta) ** 2
        - 8 * np.asarray(eta) ** 2 / w(xi, eta) ** 3,
        ((0,), (1,), (1,)): lambda x, xi, eta: -8 * np.asarray(xi)
        * np.asarray(eta) / w(xi, eta) ** 3,
    }
    partials.update(_zeros((1, 2)))
    return Symbol("cm0",
                  lambda x, xi, eta: (np.asarray(xi) ** 2 + np.asarray(eta) ** 2)
                  / w(xi, eta) * np.ones(np.broadcast_shapes(
                      np.shape(x), np.shape(xi), np.shape(eta))),
                  SymbolClassParams(0.0, 1.0, 0.0), dim=1, partials=partials,
                  x_independent=True)


def _bad_xieta_sym() -> Symbol:
    partials = {
        ((0,), (1,), (0,)): lambda x, xi, eta: np.asarray(eta)
        * np.ones(np.broadcast_shapes(np.shape(x), np.shape(xi), np.shape(eta))),
        ((0,), (0,), (1,)): lambda x, xi, eta: np.asarray(xi)
        * np.ones(np.broadcast_shapes(np.shape(x), np.shape(xi), np.shape(eta))),
        ((0,), (1,), (1,)): lambda x, xi, eta: np.ones(np.broadcast_shapes(
            np.shape(x), np.shape(xi), np.shape(eta))),
        ((0,), (2,), (0,)): _zero,
        ((0,), (0,), (2,)): _zero,
    }
    partials.update(_zeros((1, 2)))
    return Symbol("bad_xieta",
                  lambda x, xi, eta: np.asarray(xi) * np.asarray(eta)
                  * np.ones(np.broadcast_shapes(np.shape(x), np.shape(xi),
                                                np.shape(eta))),
                  SymbolClassParams(1.0, 1.0, 0.0), dim=1, partials=partials,
                  x_independent=True)


def _bad_linear_sym() -> Symbol:
    # first derivatives are the a.e.-exact signs; the kink at the origin is
    # the point of this entry (no decay, so the declared class is a lie)
    def bshape(x, xi, eta):
        return np.broadcast_shapes(np.shape(x), np.shape(xi), np.shape(eta))

    partials = {
        ((0,), (1,), (0,)): lambda x, xi, eta: np.sign(np.asarray(xi, dtype=float))
        * np.ones(bshape(x, xi, eta)),
        ((0,), (0,), (1,)): lambda x, xi, eta: np.sign(np.asarray(eta, dtype=float))
        * np.ones(bshape(x, xi, eta)),
        ((0,), (2,), (0,)): _zero,
        ((0,), (0,), (2,)): _zero,
        ((0,), (1,), (1,)): _zero,
        ((1,), (0,), (0,)): _zero,
    }
    return Symbol("bad_linear",
                  lambda x, xi, eta: (1.0 + np.abs(np.asarray(xi))
                                      + np.abs(np.asarray(eta)))
                  * np.ones(np.broadcast_shapes(np.shape(x), np.shape(xi),
                                                np.shape(eta))),
                  SymbolClassParams(0.0, 1.0, 0.0), dim=1, partials=partials,
                  x_independent=True)


def _catalog_2d() -> dict:
    def shp(x, xi, eta):
        arrs = [np.shape(c) for v in (x, xi, eta) for c in v]
        return np.broadcast_shapes(*arrs)

    def w2(xi, eta):
        return 1.0 + xi[0] ** 2 + xi[1] ** 2 + eta[0] ** 2 + eta[1] ** 2

    def sqrt1_fn(x, xi, eta):
        return np.sqrt(w2(xi, eta)) * np.ones(shp(x, xi, eta))

    def grad_keys():
        zero2 = (0, 0)
        for comp in range(2):
            b = tuple(1 if j == comp else 0 for j in range(2))
            yield (zero2, b, zero2), "xi", comp
            yield (zero2, zero2, b), "eta", comp

    def first_order(component_fn, theta=None):
        # component_fn(v, comp, xi, eta) -> d sigma / d v_comp without the theta factor
        partials = {}
        for key, block, comp in grad_keys():
            def deriv(x, xi, eta, block=block, comp=comp):
                v = xi if block == "xi" else eta
                out = component_fn(v, comp, xi, eta)
                if theta is not None:
                    out = out * theta(x)
                return out * np.ones(shp(x, xi, eta))
            partials[key] = deriv
        return partials

    sqrt1_partials = first_order(
        lambda v, comp, xi, eta: v[comp] / np.sqrt(w2(xi, eta)))
    theta_partials = first_order(
        lambda v, comp, xi, eta: v[comp] / np.sqrt(w2(xi, eta)),
        theta=lambda x: 2.0 + np.sin(x[0]) * np.cos(x[1]))
    cm0_partials = first_order(
        lambda v, comp, xi, eta: 2.0 * v[comp] / w2(xi, eta) ** 2)

    syms = {
        "one": Symbol("one", lambda x, xi, eta: np.ones(shp(x, xi, eta)),
                      SymbolClassParams(0.0, 1.0, 0.0), dim=2, x_independent=True),
        "xi1": Symbol("xi1", lambda x, xi, eta: xi[0] * np.ones(shp(x, xi, eta)),
                      SymbolClassParams(1.0, 1.0, 0.0), dim=2, x_independent=True),
        "xi2": Symbol("xi2", lambda x, xi, eta: xi[1] * np.ones(shp(x, xi, eta)),
                      SymbolClassParams(1.0, 1.0, 0.0), dim=2, x_independent=True),
        "eta1": Symbol("eta1", lambda x, xi, eta: eta[0] * np.ones(shp(x, xi, eta)),
                       SymbolClassParams(1.0, 1.0, 0.0), dim=2, x_independent=True),
        "eta2": Symbol("eta2", lambda x, xi, eta: eta[1] * np.ones(shp(x, xi, eta)),
                       SymbolClassParams(1.0, 1.0, 0.0), dim=2, x_independent=True),
        "sqrt1": Symbol("sqrt1", sqrt1_fn, SymbolClassParams(1.0, 1.0, 0.0),
                        dim=2, partials=sqrt1_partials, x_independent=True),
        "theta_sqrt1": Symbol("theta_sqrt1",
                              lambda x, xi, eta: (2.0 + np.sin(x[0]) * np.cos(x[1]))
                              * sqrt1_fn(x, xi, eta),
                              SymbolClassParams(1.0, 1.0, 0.0), dim=2,
                              partials=theta_partials, x_independent=False),
        "cm0": Symbol("cm0",
                      lambda x, xi, eta: (xi[0] ** 2 + xi[1] ** 2 + eta[0] ** 2
                                          + eta[1] ** 2)
                      / w2(xi, eta) * np.ones(shp(x, xi, eta)),
                      SymbolClassParams(0.0, 1.0, 0.0), dim=2,
                      partials=cm0_partials, x_independent=True),
        "bad_xieta": Symbol("bad_xieta",
                            lambda x, xi, eta: xi[0] * eta[0]
                            * np.ones(shp(x, xi, eta)),
                            SymbolClassParams(1.0, 1.0, 0.0), dim=2,
                            x_independent=True),
        "bad_linear": Symbol("bad_linear",
                             lambda x, xi, eta: (1.0 + np.sqrt(xi[0] ** 2 + xi[1] ** 2)
                                                 + np.sqrt(eta[0] ** 2 + eta[1] ** 2))
                             * np.ones(shp(x, xi, eta)),
                             SymbolClassParams(0.0, 1.0, 0.0), dim=2,
                             partials=_bad_linear_partials_2d(shp),
                             x_independent=True),
    }
    return syms


def _bad_linear_partials_2d(shp) -> dict:
    # exact a.e. gradients of the block norms; undefined only on the cones
    def unit(block, comp):
        def deriv(x, xi, eta):
            v = xi if block == "xi" else eta
            r = np.sqrt(np.asarray(v[0]) ** 2 + np.asarray(v[1]) ** 2)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(r > 0, np.asarray(v[comp]) / np.where(r > 0, r, 1.0), 0.0)
            return out * np.ones(shp(x, xi, eta))
        return deriv

    zero2 = (0, 0)
    partials = {}
    for comp in range(2):
        b = tuple(1 if j == comp else 0 for j in range(2))
        partials[(zero2, b, zero2)] = unit("xi", comp)
        partials[(zero2, zero2, b)] = unit("eta", comp)
    return partials


def symbol_catalog(dim: int = 1) -> dict:
    """All built-in symbols for the given dimension, keyed by name."""
    if dim == 1:
        return {
            "one": _one_sym(),
            "xi": _coordinate_sym("xi"),
            "eta": _coordinate_sym("eta"),
            "sqrt1": _sqrt1_sym(),
            "theta_sqrt1": _theta_sqrt1_sym(),
            "cm0": _cm0_sym(),
            "bad_xieta": _bad_xieta_sym(),
            "bad_linear": _bad_linear_sym(),
        }
    if dim == 2:
        return _catalog_2d()
    raise InvalidInputError(f"dim must be 1 or 2, got {dim}")


def catalog_symbol(name: str, dim: int = 1) -> Symbol:
    cat = symbol_catalog(dim)
    if name not in cat:
        raise InvalidInputError(
            f"unknown catalog symbol '{name}' (have {sorted(cat)})")
    return cat[name]


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
