"""The parity fold of operator._factorize: each frequency part is factored on
its block folded onto |k| along every axis of known parity, then unfolded.

The oracle is the dense S and the unfolded range finder transcribed below,
which a parity-free symbol must reproduce bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilop.operator as operator_module
from bilop.grid import Grid
from bilop.operator import (BASIS_START, FACTOR_FLOOR_C, FACTOR_RTOL, SKETCH_PROBES, SKETCH_SEED,
                            SKETCH_START, _factorize, make_operator)
from bilop.symbols import SymbolClassParams, catalog_symbol, ftc_decompose, symbol_from_expr
from bilop.symbols.expr import VARIABLES, frequency_parity


def _floor(grid):
    return FACTOR_FLOOR_C * np.finfo(float).eps * np.sqrt(grid.points_per_axis ** grid.dim)


def _dense(sigma, grid):
    """S[k, l] = sigma(0, xi_k, eta_l) over the flattened frequency mesh."""
    xi = np.stack([a.ravel() for a in grid.frequency_mesh()])
    x = np.zeros((grid.dim, 1, 1))
    pack = (lambda a: a[0]) if grid.dim == 1 else tuple
    return np.broadcast_to(sigma.eval(pack(x), pack(xi[:, :, None]), pack(xi[:, None, :])),
                           (xi.shape[1],) * 2)


def _unfolded(sigma, grid):
    """(u, v) of the range finder on the whole M x M S, held in one block: the
    factorization before the fold, step for step."""
    S, floor = _dense(sigma, grid), _floor(grid)
    M = S.shape[0]
    rng = np.random.default_rng(SKETCH_SEED)
    Y = np.empty((M, 0))
    probe, residual, last, k = None, np.inf, np.inf, 0
    while k < M and residual > FACTOR_RTOL and not last / 2 < residual <= floor:
        last, k = residual, min(M, max(2 * k, BASIS_START))
        if k > Y.shape[1]:
            new = min(M, max(2 * Y.shape[1], SKETCH_START)) - Y.shape[1]
            omega = rng.standard_normal((M, new if probe is not None else new + SKETCH_PROBES))
            sketch = S @ omega
            if probe is None:
                probe = sketch[:, new:]
            Y = np.hstack([Y, sketch[:, :new]])
        Q = np.linalg.qr(Y[:, :k])[0]
        scale = np.linalg.norm(probe)
        residual = np.linalg.norm(probe - Q @ (Q.conj().T @ probe)) / scale if scale else 0.0
    u, s, vh = np.linalg.svd(Q.conj().T @ S, full_matrices=False)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2)[::-1])
    rank = int(np.count_nonzero(tail > FACTOR_RTOL * tail[0]))
    return ((Q @ u[:, :rank]) * s[:rank]).T, vh[:rank]


# one-variable blocks by parity, {v} a frequency variable
_BY_PARITY = {
    1: ("1", "{v}^2", "cos({v}/3)", "sqrt(1+{v}^2)", "1/(1+{v}^2)"),
    -1: ("{v}", "sin({v}/2)", "{v}/(1+{v}^2)", "{v}^3/(4+{v}^2)"),
    None: ("(1+{v}/(1+{v}^2))", "cos({v}/3)+sin({v}/5)", "({v}+{v}^2/40)"),
}
_RADIAL = ("1", "sqrt(1+{r2})", "1/(2+{r2})", "exp(-({r2})/200)")


@st.composite
def parity_symbols(draw, dim):
    """A sum of 1-2 terms, each a radial block times one block
    per frequency variable of a drawn parity, so sigma is even, odd or of no
    parity in each variable; or one FTC component of such a sum (a Quad node)."""
    names = VARIABLES[dim][dim:]
    r2 = "+".join(f"{v}^2" for v in names)
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        blocks = [draw(st.sampled_from(_BY_PARITY[draw(st.sampled_from((1, -1, None)))]))
                  .format(v=v) for v in names]
        terms.append("*".join([draw(st.sampled_from(_RADIAL)).format(r2=r2), *blocks]))
    sigma = symbol_from_expr("+".join(terms), SymbolClassParams(2.0), dim=dim)
    if draw(st.booleans()):
        comps = ftc_decompose(sigma, quad_points=16, guard=False)
        sigma = comps[draw(st.integers(0, len(comps) - 1))]
    return sigma


def _check_fold(sigma, grid):
    u, v, _, _, parity, (Mr, Mc), _ = _factorize(sigma, grid, _floor(grid))
    S = _dense(sigma, grid)
    assert np.linalg.norm(S - u.T @ v) <= 10 * FACTOR_RTOL * np.linalg.norm(S)
    n, half = grid.points_per_axis, grid.points_per_axis // 2 + 1
    sizes = [n if p is None else half for p in parity.values()]
    assert (Mr, Mc) == (np.prod(sizes[:grid.dim]), np.prod(sizes[grid.dim:]))
    u0, v0 = _unfolded(sigma, grid)
    assert len(u) <= len(u0)
    if all(p is None for p in parity.values()):  # the identity fold changes nothing
        assert np.array_equal(u, u0) and np.array_equal(v, v0)


@settings(max_examples=40, deadline=None)
@given(sigma=parity_symbols(1), n=st.sampled_from((8, 16, 64, 256)))
def test_folded_factors_reproduce_s_at_no_higher_rank_1d(sigma, n):
    _check_fold(sigma, Grid(dim=1, points_per_axis=n))


@settings(max_examples=25, deadline=None)
@given(sigma=parity_symbols(2), n=st.sampled_from((8, 16)))
def test_folded_factors_reproduce_s_at_no_higher_rank_2d(sigma, n):
    _check_fold(sigma, Grid(dim=2, points_per_axis=n))


@pytest.mark.parametrize("expr, dim", [("sqrt(1+xi^2+eta^2)+xi+eta", 1),
                                       ("(xi-eta)/sqrt(1+(xi-eta)^2)", 1),
                                       ("sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)+xi1+xi2+eta1+eta2", 2)])
def test_a_parity_free_symbol_is_factored_unfolded_bit_for_bit(expr, dim):
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0), dim=dim)
    grid = Grid(dim=dim, points_per_axis=64 if dim == 1 else 8)
    assert set(frequency_parity(sigma.node, dim).values()) == {None}
    _check_fold(sigma, grid)


def test_sqrt1_at_n_1024_evaluates_one_folded_quadrant(monkeypatch):
    # S is 1024 x 1024; even in xi and eta it folds to 513 x 513, held in one block
    points, values = [], operator_module._values

    def counted(*args):
        out = values(*args)
        points.append(out.size)
        return out

    monkeypatch.setattr(operator_module, "_values", counted)
    low = make_operator(catalog_symbol("sqrt1"), Grid(dim=1, points_per_axis=1024)).lowrank()
    assert points == [513 ** 2, 1024]  # S_f, then the x-weight w = 1 at the nodes
    assert low.folds == ((513, 513),) and low.parities == ({"xi": 1, "eta": 1},)


@pytest.mark.parametrize("expr, shape", [("(xi1+xi1^2)*cos(eta2)", (8 * 5, 5 * 5)),
                                         ("xi1+xi2*eta1", (8 * 8, 5 * 8))])
def test_2d_axes_fold_one_by_one(expr, shape):
    # N = 8: an axis of known parity has 5 folded points, one without keeps 8
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0), dim=2)
    low = make_operator(sigma, Grid(dim=2, points_per_axis=8)).lowrank()
    assert low.folds == (shape,)
    S = _dense(sigma, Grid(dim=2, points_per_axis=8))
    assert np.linalg.norm(S - low.u.T @ low.v) <= 10 * FACTOR_RTOL * np.linalg.norm(S)
