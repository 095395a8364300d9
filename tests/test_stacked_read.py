"""Reads over a stack of inputs: per-item equality, sigma evaluations, finiteness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_operator import smooth_symbols, x_dependent_symbols

import bilop.operator as operator_module
from bilop.errors import DomainError
from bilop.grid import Grid, GridFunction
from bilop.operator import (DenseBilinearOperator, commutator, dense_tensor, make_operator,
                            transpose, verify_transpose_identities)
from bilop.symbols import SymbolClassParams, catalog_symbol, symbol_from_expr

# sigma with no x-expansion: the direct strategy
_MIXED = {1: "cos(x*xi)+eta/(1+xi^2)", 2: "cos(x1*xi2)+eta1/(1+xi1^2)"}


@st.composite
def stacked_cases(draw):
    """(op, its base's kind, free slot, stack size, seed): a random symbol's
    operator, multiplier, direct or dense, under up to two commutator steps
    and up to two transposes in a random order."""
    dim, n = draw(st.sampled_from(((1, 8), (1, 16), (1, 32), (2, 8))))
    kind = draw(st.sampled_from(("multiplier", "direct", "dense")))
    expr = draw(st.one_of(smooth_symbols(dim), x_dependent_symbols(dim)))
    if kind == "direct" and draw(st.booleans()):
        expr = f"{expr}+{_MIXED[dim]}"
    grid = Grid(dim=dim, points_per_axis=n)
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0), dim=dim)
    op = make_operator(sigma, grid, None if kind == "multiplier" else "direct")
    kind = "dense" if kind == "dense" else op.strategy  # x-rank over M/8: direct
    if kind == "dense":
        op = DenseBilinearOperator(grid, dense_tensor(op))
    seed = draw(st.integers(0, 99))
    rng = np.random.default_rng(seed)
    steps = draw(st.lists(st.sampled_from(("c1", "c2", "t1", "t2")), max_size=4)
                 .filter(lambda s: sum(x[0] == "c" for x in s) <= 2))
    for step in steps:
        if step[0] == "c":
            a = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            op = commutator(op, int(step[1]), GridFunction(grid, a))
        else:
            op = transpose(op, int(step[1]))
    return op, kind, draw(st.sampled_from((0, 1, 2))), draw(st.integers(1, 4)), seed


@settings(max_examples=60, deadline=None)
@given(case=stacked_cases())
def test_a_stacked_read_is_the_stack_of_per_item_reads(case):
    op, kind, free, size, seed = case
    rng = np.random.default_rng(seed + 1)
    shape = (size,) + op.grid.shape
    ins = {k: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
           for k in (0, 1, 2) if k != free}
    got = operator_module._read(op, free, ins)
    want = np.stack([operator_module._read(op, free, {k: v[i] for k, v in ins.items()})
                     for i in range(size)])
    assert got.shape == want.shape
    if kind == "direct":  # a matrix product sums in an order that depends on the stack
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    else:
        assert np.array_equal(got, want)


def _count_values(monkeypatch):
    original, calls = operator_module._values, []

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(operator_module, "_values", counted)
    return calls


def test_direct_transpose_check_evaluates_sigma_once_per_term_of_each_read(monkeypatch):
    # six reads (C and its two transposes for both slots), each two terms of
    # T, with all 20 trials in one stack: 12 evaluations where a read per
    # trial made 240
    grid = Grid(dim=1, points_per_axis=32)
    T = make_operator(symbol_from_expr("cos(x*xi)", SymbolClassParams(0.0)), grid)
    assert T.strategy == "direct"
    a = GridFunction(grid, np.sin(grid.nodes_1d()).astype(complex))
    calls = _count_values(monkeypatch)
    rep = verify_transpose_identities(T, a)
    assert len(calls) == 12
    assert rep["verdict"] == "PASS" and rep["max_residual"] < 1e-12


def test_trials_are_read_in_chunks_under_the_stack_cap(monkeypatch):
    grid = Grid(dim=1, points_per_axis=64)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    a = GridFunction(grid, np.sin(grid.nodes_1d()).astype(complex))
    want = verify_transpose_identities(T, a)
    per = 3
    monkeypatch.setattr(operator_module, "STACK_ENTRIES", per * T.lowrank().rank * 64)
    stacks = []
    original = operator_module._read

    def spied(op, free, ins):
        stacks.append(len(ins[1]))
        return original(op, free, ins)

    monkeypatch.setattr(operator_module, "_read", spied)
    assert verify_transpose_identities(T, a) == want
    assert stacks == [per] * 36 + [2] * 6  # 20 trials: six chunks of 3, one of 2


@pytest.mark.parametrize("strategy", ["multiplier", "direct"])
def test_a_non_finite_stacked_output_raises(strategy):
    grid = Grid(dim=1, points_per_axis=16)
    T = make_operator(catalog_symbol("sqrt1"), grid, strategy)
    a = GridFunction(grid, np.full(grid.shape, 1e306, dtype=complex))
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
        verify_transpose_identities(T, a)
