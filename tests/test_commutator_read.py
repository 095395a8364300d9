"""Commutator chains read in one pass: oracle, per-step reference, FFT count."""

import itertools

import numpy as np
import pytest

import bilop.operator as operator_module
from bilop.grid import Grid, GridFunction
from bilop.operator import (CommutatorOperator, TransposedOperator, apply, commutator,
                            dense_tensor, make_operator, transpose)
from bilop.symbols import SymbolClassParams, catalog_symbol, symbol_from_expr

# x-dependent, with an odd frequency part, so every weight and flip shows
SIGMAS = {1: "(2+sin(x))*sqrt(1+xi^2+eta^2)+cos(x)*xi*(1+eta)/(2+xi^2+eta^2)",
          2: "(2+sin(x1))*sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)"
             "+cos(x2)*xi1*(1+eta2)/(2+xi1^2+xi2^2+eta1^2+eta2^2)"}
SLOT_SEQUENCES = [s for d in (1, 2, 3) for s in itertools.product((1, 2), repeat=d)]


def _random(grid, rng):
    return GridFunction(grid, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape))


def _base(dim, n, strategy):
    grid = Grid(dim=dim, points_per_axis=n)
    T = make_operator(symbol_from_expr(SIGMAS[dim], SymbolClassParams(1.0), dim=dim),
                      grid, strategy)
    assert T.strategy == strategy
    return T


def _chain(base, slots, rng):
    return commutator(base, *(v for s in slots for v in (s, _random(base.grid, rng))))


def _reads(op, rng):
    """(got, want) for apply, T^{*1} and T^{*2} of op against dense_tensor(op)."""
    W = dense_tensor(op)
    f, g, h = (_random(op.grid, rng) for _ in range(3))
    for which, (x, y) in ((0, (f, g)), (1, (h, g)), (2, (f, h))):
        U = transpose(op, which) if which else op
        want = np.einsum("jpq,p,q->j", np.swapaxes(W, 0, which),
                         x.values.ravel(), y.values.ravel())
        yield apply(U, x, y).values.ravel(), want


@pytest.mark.parametrize("strategy", ["multiplier", "direct"])
@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])  # 8: the smallest grid
def test_every_chain_and_transpose_matches_the_dense_oracle(strategy, dim, n):
    rng = np.random.default_rng(7)
    T = _base(dim, n, strategy)
    ops = [_chain(T, slots, rng) for slots in SLOT_SEQUENCES]
    # a commutator of a transpose, and a chain through a transpose inside it
    ops += [commutator(transpose(T, 1), 2, _random(T.grid, rng)),
            commutator(transpose(_chain(T, (1, 2), rng), 2), 1, _random(T.grid, rng))]
    for op in ops:
        for got, want in _reads(op, rng):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def per_step_read(op, free, ins):
    """A commutator read step by step: [U, a]_slot reads U twice, so a chain
    of d steps reads its base 2^d times."""
    if isinstance(op, TransposedOperator):
        return per_step_read(op.base, op.perm[free], {op.perm[k]: v for k, v in ins.items()})
    if not isinstance(op, CommutatorOperator):
        return operator_module._read(op, free, ins)
    a = op.mult.values

    def times(k):  # U's form with x_k multiplied by a
        if k == free:
            return a * per_step_read(op.inner, free, ins)
        return per_step_read(op.inner, free, {**ins, k: a * ins[k]})

    return times(op.slot) - times(0)


def test_one_pass_read_agrees_with_per_step_reads():
    # the summation order differs, so agreement is to roundoff, not bitwise
    rng = np.random.default_rng(11)
    worst = 0.0
    for dim, n in ((1, 64), (2, 8)):
        T = _base(dim, n, "multiplier")
        ops = [_chain(T, slots, rng) for slots in SLOT_SEQUENCES]
        ops.append(commutator(transpose(T, 2), 1, _random(T.grid, rng), 2,
                              _random(T.grid, rng)))
        for op, free in itertools.product(ops, (0, 1, 2)):
            ins = {k: _random(T.grid, rng).values for k in (0, 1, 2) if k != free}
            want = per_step_read(op, free, ins)
            got = operator_module._read(op, free, ins)
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= 1e-12


def _count_transforms(monkeypatch):
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_iterated_commutator_transforms_each_distinct_input_once(monkeypatch):
    # [[T, a]_1, b]_1(f, g) has five distinct weighted inputs: a b f, a f,
    # b f, f and g; reading T once per term would transform eight
    grid = Grid(dim=1, points_per_axis=256)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    rng = np.random.default_rng(3)
    a, b, f, g = (_random(grid, rng) for _ in range(4))
    C = commutator(T, 1, a, 1, b)
    ins = {1: f.values, 2: g.values}
    calls = _count_transforms(monkeypatch)
    apply(C, f, g)
    assert calls == {"fftn": 5, "ifftn": 5}
    calls.update(fftn=0, ifftn=0)
    per_step_read(C, 0, ins)
    assert calls == {"fftn": 8, "ifftn": 8}
