"""Commutator/transpose algebra: matrix-free transposes, their oracle and
the four exchange identities."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_operator import smooth_symbols, x_dependent_symbols

import bilop.operator as operator_module
from bilop.analysis import check_t1_conditions
from bilop.errors import InvalidInputError
from bilop.grid import Grid, GridFunction
from bilop.operator import (
    CommutatorOperator,
    apply,
    commutator,
    dense_tensor,
    make_operator,
    pairing,
    transpose,
    verify_transpose_identities,
)
from bilop.symbols import SymbolClassParams, catalog_symbol, symbol_catalog, symbol_from_expr

RESIDUAL_KEYS = ("slot1_transpose1", "slot1_transpose2", "slot2_transpose1", "slot2_transpose2")


def multiplier(grid):
    x = grid.nodes_1d()
    return GridFunction(grid, np.sin(x) + 0.3 * np.cos(2 * x))


def random_triple(grid, seed):
    rng = np.random.default_rng(seed)

    def one():
        v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        return GridFunction(grid, v)

    return one(), one(), one()


def test_weak_form_identities_from_first_principles():
    # assemble each side with nothing but commutator application, operator
    # transposition, and the duality pairing - no shared tensor algebra
    grid = Grid(dim=1, points_per_axis=16)
    a = multiplier(grid)
    for name in ("sqrt1", "theta_sqrt1"):
        T = make_operator(catalog_symbol(name), grid)
        T1 = transpose(T, 1)
        T2 = transpose(T, 2)
        for seed in range(5):
            f, g, h = random_triple(grid, seed)
            scale = max(abs(pairing(apply(T, f, g), h)), 1.0)

            lhs1 = pairing(apply(commutator(T, 1, a), f, g), h)
            rhs1 = -pairing(apply(commutator(T1, 1, a), h, g), f)
            assert abs(lhs1 - rhs1) < 1e-10 * scale

            rhs2 = (pairing(apply(commutator(T2, 1, a), f, h), g)
                    - pairing(apply(commutator(T2, 2, a), f, h), g))
            assert abs(lhs1 - rhs2) < 1e-10 * scale

            lhs2 = pairing(apply(commutator(T, 2, a), f, g), h)
            rhs3 = (pairing(apply(commutator(T1, 2, a), h, g), f)
                    - pairing(apply(commutator(T1, 1, a), h, g), f))
            assert abs(lhs2 - rhs3) < 1e-10 * scale

            rhs4 = -pairing(apply(commutator(T2, 2, a), f, h), g)
            assert abs(lhs2 - rhs4) < 1e-10 * scale


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("name", list(symbol_catalog(dim=1)))
def test_identities_hold_for_whole_catalog(name, n):
    grid = Grid(dim=1, points_per_axis=n)
    T = make_operator(catalog_symbol(name), grid)
    rep = verify_transpose_identities(T, multiplier(grid))
    assert rep["verdict"] == "PASS"
    assert rep["max_residual"] < 1e-10
    assert rep["grid_points"] == n


def test_identities_hold_in_2d():
    grid = Grid(dim=2, points_per_axis=8)
    xs, ys = grid.node_mesh()
    a = GridFunction(grid, np.sin(xs) + 0.5 * np.cos(ys))
    T = make_operator(catalog_symbol("sqrt1", dim=2), grid)
    rep = verify_transpose_identities(T, a)
    assert rep["verdict"] == "PASS"
    assert rep["max_residual"] < 1e-10


def test_report_structure():
    grid = Grid(dim=1, points_per_axis=16)
    T = make_operator(catalog_symbol("xi"), grid)
    rep = verify_transpose_identities(T, multiplier(grid), trials=25, seed=4)
    assert set(rep["residuals"]) == set(RESIDUAL_KEYS)
    assert rep["trials"] == 25
    assert rep["max_residual"] == max(rep["residuals"].values())
    assert all(v >= 0 for v in rep["residuals"].values())


def test_trial_floor_enforced():
    grid = Grid(dim=1, points_per_axis=16)
    T = make_operator(catalog_symbol("xi"), grid)
    with pytest.raises(InvalidInputError):
        verify_transpose_identities(T, multiplier(grid), trials=5)


def test_residuals_are_machine_precision_not_merely_small():
    # the identities are exact in exact arithmetic; the discrete check should
    # sit at rounding level, far below the acceptance tolerance
    grid = Grid(dim=1, points_per_axis=32)
    T = make_operator(catalog_symbol("theta_sqrt1"), grid)
    rep = verify_transpose_identities(T, multiplier(grid))
    assert rep["max_residual"] < 1e-12


# ------------------------------------------- matrix-free transposes vs oracle


def _oracle_check(op, base, f, g, h):
    """op and its two transposes against op's dense tensor, applied and paired.

    A commutator of k steps is applied as a difference of 2^k terms of
    base, so its rounding error scales with those terms, not with its
    output: the bound is 1e-12 times 2^k prod max|a| max_j sum |W_base||x||y|
    (and the matching bound on <error, z> for pairings).
    """
    grid = op.grid
    W, Wb = dense_tensor(op), np.abs(dense_tensor(base))
    size, step = 1.0, op
    while isinstance(step, CommutatorOperator):  # one factor 2 max|a| per step
        size, step = size * 2 * np.max(np.abs(step.mult.values)), step.inner
    dxn = grid.spacing ** grid.dim
    phi = np.einsum("jpq,j,p,q->", W, h.values.ravel(), f.values.ravel(),
                    g.values.ravel()) * dxn
    for which, (x, y, z) in ((0, (f, g, h)), (1, (h, g, f)), (2, (f, h, g))):
        U = transpose(op, which) if which else op
        xs, ys = x.values.ravel(), y.values.ravel()
        want = np.einsum("jpq,p,q->j", np.swapaxes(W, 0, which), xs, ys)
        scale = size * np.max(np.einsum("jpq,p,q->j", np.swapaxes(Wb, 0, which),
                                        np.abs(xs), np.abs(ys)))
        got = apply(U, x, y)
        assert np.max(np.abs(got.values.ravel() - want)) <= 1e-12 * scale, which
        bound = 1e-12 * scale * np.sum(np.abs(z.values)) * dxn
        assert abs(pairing(got, z) - phi) <= bound, which


def _odd_term(dim):
    """Odd in xi and not even in eta: a transpose that read u or v at +k
    instead of -k would miss it."""
    if dim == 1:
        return "xi*(1+eta)/(2+xi^2+eta^2)"
    return "xi1*(1+eta2)/(2+xi1^2+xi2^2+eta1^2+eta2^2)"


@st.composite
def oracle_cases(draw):
    dim, n = draw(st.sampled_from(((1, 8), (1, 16), (1, 32), (2, 8))))
    expr = draw(st.one_of(smooth_symbols(dim), x_dependent_symbols(dim)))
    return dim, n, f"{expr}+{_odd_term(dim)}"


@settings(max_examples=30, deadline=None)
@given(case=oracle_cases(), seed=st.integers(0, 99))
def test_transposes_match_the_dense_oracle_on_random_symbols(case, seed):
    dim, n, expr = case
    grid = Grid(dim=dim, points_per_axis=n)
    T = make_operator(symbol_from_expr(expr, SymbolClassParams(1.0), dim=dim), grid)
    f, g, h = random_triple(grid, seed)
    a, b, _ = random_triple(grid, seed + 100)
    for op in (T, commutator(T, 1, a), commutator(T, 2, a), commutator(T, 1, a, 2, b)):
        _oracle_check(op, T, f, g, h)


def _count_dense_tensor(monkeypatch):
    """Replace dense_tensor at every bilop binding by a counting wrapper."""
    original, calls = operator_module.dense_tensor, []

    def counted(op):
        calls.append(op)
        return original(op)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bilop") and getattr(mod, "dense_tensor", None) is original:
            monkeypatch.setattr(mod, "dense_tensor", counted)
    return calls


@pytest.mark.parametrize("expr, slots", [
    ("cos(x*xi)", (1,)),  # eta-free: [T, a]_2 vanishes identically
    ("cos(x*xi)+cos(x*eta)", (1, 2)),
])
def test_direct_transposes_match_the_oracle_and_build_no_tensor(monkeypatch, expr, slots):
    grid = Grid(dim=1, points_per_axis=16)
    T = make_operator(symbol_from_expr(expr, SymbolClassParams(0.0)), grid)
    assert T.strategy == "direct"
    f, g, h = random_triple(grid, 3)
    a = multiplier(grid)
    ops = [T] + [commutator(T, slot, a) for slot in slots]
    oracles = {id(op): dense_tensor(op) for op in ops}
    calls = _count_dense_tensor(monkeypatch)
    for op in ops:
        for which, (x, y) in ((1, (h, g)), (2, (f, h))):
            want = np.einsum("jpq,p,q->j", np.swapaxes(oracles[id(op)], 0, which),
                             x.values, y.values)
            got = apply(transpose(op, which), x, y).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert verify_transpose_identities(T, a)["max_residual"] < 1e-12
    check_t1_conditions(T, a)
    assert calls == []


def test_transposes_compose_as_slot_permutations():
    grid = Grid(dim=1, points_per_axis=8)
    T = make_operator(catalog_symbol("theta_sqrt1"), grid)
    assert transpose(transpose(T, 1), 1) is T
    assert transpose(transpose(T, 2), 2) is T
    f, g, b = random_triple(grid, 5)
    C = commutator(T, 1, multiplier(grid), 2, b)
    W = dense_tensor(C)
    for first, second in ((1, 2), (2, 1)):
        U = transpose(transpose(C, first), second)
        want = np.einsum("jpq,p,q->j", np.swapaxes(np.swapaxes(W, 0, first), 0, second),
                         f.values, g.values)
        got = apply(U, f, g).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert transpose(transpose(U, second), first) is C
