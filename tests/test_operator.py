"""Bilinear operator assembly: strategies, budgets, commutators, pairings."""

import json
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilop.cli as cli_module
import bilop.operator as operator_module
from bilop.cli import main as cli_main
from bilop.errors import BudgetError, DomainError, InvalidInputError
from bilop.grid import Grid, GridFunction, fft_forward
from bilop.operator import (
    DENSE_BUDGET,
    DIRECT_BUDGET,
    FACTOR_RTOL,
    STRATEGIES,
    DenseBilinearOperator,
    apply,
    commutator,
    dense_tensor,
    make_operator,
    pairing,
    transpose,
)
from bilop.parallel import thread_map
from bilop.symbols import (Symbol, SymbolClassParams, catalog_symbol, ftc_decompose,
                           parse_symbol_expr, symbol_catalog, symbol_from_expr)


def brute_force_apply(sigma, f, g):
    """Triple loop over node and both frequency indices, straight from the
    quadrature definition - no vectorization shortcuts shared with apply()."""
    grid = f.grid
    n = grid.points_per_axis
    L = grid.period
    x = grid.nodes_1d()
    freqs = grid.frequencies_1d()
    fh = fft_forward(f).coefficients
    gh = fft_forward(g).coefficients
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            for l in range(n):
                s = sigma.eval(np.array([x[j]]), np.array([freqs[k]]), np.array([freqs[l]]))[0]
                acc += s * fh[k] * gh[l] * np.exp(1j * x[j] * (freqs[k] + freqs[l]))
        out[j] = acc / L**2
    return out


def brute_force_apply_2d(sigma, f, g):
    # loops over output node and slot-1 frequency; the slot-2 sum is a flat
    # vectorized inner product (still independent of the fft path in apply)
    grid = f.grid
    n = grid.points_per_axis
    L = grid.period
    x1d = grid.nodes_1d()
    fr = grid.frequencies_1d()
    fh = fft_forward(f).coefficients
    gh = fft_forward(g).coefficients.ravel()
    l1, l2 = np.meshgrid(fr, fr, indexing="ij")
    l1, l2 = l1.ravel(), l2.ravel()
    out = np.zeros((n, n), dtype=complex)
    for j1 in range(n):
        for j2 in range(n):
            acc = 0.0 + 0.0j
            for k1 in range(n):
                for k2 in range(n):
                    s = sigma.eval(
                        (np.full_like(l1, x1d[j1]), np.full_like(l1, x1d[j2])),
                        (np.full_like(l1, fr[k1]), np.full_like(l1, fr[k2])),
                        (l1, l2),
                    )
                    phase = np.exp(1j * (x1d[j1] * (fr[k1] + l1)
                                         + x1d[j2] * (fr[k2] + l2)))
                    acc += fh[k1, k2] * np.sum(s * gh * phase)
            out[j1, j2] = acc / L**4
    return out


def random_pair(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    g = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return f, g


# ------------------------------------------------------------- brute force


@pytest.mark.parametrize("name", list(symbol_catalog(dim=1)))
def test_apply_matches_brute_force(name):
    grid = Grid(dim=1, points_per_axis=8)
    sigma = catalog_symbol(name)
    f, g = random_pair(grid, seed=1)
    fast = apply(make_operator(sigma, grid), f, g)
    slow = brute_force_apply(sigma, f, g)
    assert np.max(np.abs(fast.values - slow)) < 1e-12


def test_apply_matches_brute_force_2d():
    grid = Grid(dim=2, points_per_axis=8)
    sigma = catalog_symbol("theta_sqrt1", dim=2)
    f, g = random_pair(grid, seed=2)
    fast = apply(make_operator(sigma, grid), f, g)
    slow = brute_force_apply_2d(sigma, f, g)
    assert np.max(np.abs(fast.values - slow)) < 1e-12


def test_identity_symbol_multiplies_pointwise():
    # sigma = 1 makes T(f,g) = f*g exactly
    grid = Grid(dim=1, points_per_axis=32)
    f, g = random_pair(grid, seed=3)
    out = apply(make_operator(catalog_symbol("one"), grid), f, g)
    assert np.max(np.abs(out.values - f.values * g.values)) < 1e-12


def test_coordinate_symbol_differentiates_first_slot():
    # sigma = xi gives T(f,g) = (Df) g with D = -i d/dx
    grid = Grid(dim=1, points_per_axis=32)
    x = grid.nodes_1d()
    f = GridFunction(grid, np.exp(3j * x))
    g = GridFunction(grid, np.exp(2j * x))
    out = apply(make_operator(catalog_symbol("xi"), grid), f, g)
    assert np.max(np.abs(out.values - 3 * np.exp(5j * x))) < 1e-12


# -------------------------------------------------------------- strategies


def test_default_strategy_selection():
    grid = Grid(dim=1, points_per_axis=16)
    assert make_operator(catalog_symbol("xi"), grid).strategy == "multiplier"
    assert make_operator(catalog_symbol("sqrt1"), grid).strategy == "multiplier"
    assert make_operator(catalog_symbol("theta_sqrt1"), grid).strategy == "multiplier"
    # a factor mixing x with a frequency has no x-expansion
    wild = symbol_from_expr("cos(x*xi)", SymbolClassParams(0.0))
    assert make_operator(wild, grid).strategy == "direct"


@pytest.mark.parametrize("name", ["one", "xi", "sqrt1", "cm0"])
def test_strategies_agree_on_x_independent_symbols(name):
    grid = Grid(dim=1, points_per_axis=16)
    sigma = catalog_symbol(name)
    f, g = random_pair(grid, seed=4)
    outs = {}
    for strat in ("direct", "multiplier"):
        outs[strat] = apply(make_operator(sigma, grid, strategy=strat), f, g).values
    assert np.max(np.abs(outs["direct"] - outs["multiplier"])) < 1e-10


def test_strategy_names_are_closed():
    assert set(STRATEGIES) == {"direct", "multiplier"}
    grid = Grid(dim=1, points_per_axis=16)
    for name in ("magic", "separable"):
        with pytest.raises(InvalidInputError):
            make_operator(catalog_symbol("xi"), grid, strategy=name)


def test_multiplier_strategy_refuses_x_rank_over_the_cap():
    grid = Grid(dim=1, points_per_axis=64)
    for expr, reason in (("((2+sin(x))*xi+eta)^8", "more than M/8 = 8 distinct x-factors"),
                         ("cos(x*xi)", "mixes x with a frequency"),
                         ("sqrt(1+xi^2+eta^2+sin(x)^2)", "mixes x with a frequency")):
        sigma = symbol_from_expr(expr, SymbolClassParams(1.0))
        with pytest.raises(BudgetError, match=reason):
            make_operator(sigma, grid, strategy="multiplier")
        assert make_operator(sigma, grid).strategy == "direct"
    at_cap = symbol_from_expr("((2+sin(x))*xi+eta)^7", SymbolClassParams(7.0))
    assert make_operator(at_cap, grid).lowrank().x_rank == 8


# ------------------------------------------------------------------ budgets


def test_direct_budget_refusal():
    # N^3 frequency-pair work units at N=1024 exceed the direct budget;
    # refusal happens when work is attempted, not at construction
    big = Grid(dim=1, points_per_axis=1024)
    assert 1024**3 > DIRECT_BUDGET
    T = make_operator(catalog_symbol("theta_sqrt1"), big, strategy="direct")
    f, g = random_pair(big, seed=20)
    with pytest.raises(BudgetError):
        apply(T, f, g)


def test_multiplier_path_unaffected_by_direct_budget():
    big = Grid(dim=1, points_per_axis=1024)
    T = make_operator(catalog_symbol("sqrt1"), big)
    f, g = random_pair(big, seed=5)
    out = apply(T, f, g)
    assert np.all(np.isfinite(out.values))


def test_dense_budget_refusal():
    grid = Grid(dim=1, points_per_axis=512)
    assert 512**3 > DENSE_BUDGET
    T = make_operator(catalog_symbol("sqrt1"), grid)
    with pytest.raises(BudgetError):
        dense_tensor(T)


# ------------------------------------------------------------ dense tensors


def test_dense_tensor_reproduces_apply():
    grid = Grid(dim=1, points_per_axis=16)
    sigma = catalog_symbol("theta_sqrt1")
    T = make_operator(sigma, grid)
    A = dense_tensor(T)
    assert A.shape == (16, 16, 16)
    f, g = random_pair(grid, seed=6)
    via_tensor = np.einsum("jkl,k,l->j", A, f.values, g.values)
    direct = apply(T, f, g).values
    assert np.max(np.abs(via_tensor - direct)) < 1e-10


def test_transpose_swaps_tensor_axes():
    # first transpose: <T(f,g),h> = <T*1(h,g),f>, i.e. swap output and slot-1
    grid = Grid(dim=1, points_per_axis=8)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    A = dense_tensor(T)
    w = (grid.period / 8)  # pairing weight per node
    A1 = dense_tensor(transpose(T, 1))
    A2 = dense_tensor(transpose(T, 2))
    assert np.max(np.abs(A1 - np.transpose(A, (1, 0, 2)))) < 1e-10
    assert np.max(np.abs(A2 - np.transpose(A, (2, 1, 0)))) < 1e-10
    assert w > 0  # silence unused warning if weights cancel


def test_double_transpose_is_identity():
    grid = Grid(dim=1, points_per_axis=8)
    T = make_operator(catalog_symbol("theta_sqrt1"), grid)
    A = dense_tensor(T)
    back = dense_tensor(transpose(transpose(T, 1), 1))
    assert np.max(np.abs(back - A)) < 1e-10


def test_transpose_validates_slot():
    grid = Grid(dim=1, points_per_axis=8)
    T = make_operator(catalog_symbol("xi"), grid)
    with pytest.raises(InvalidInputError):
        transpose(T, 3)


# ------------------------------------------------------------------ pairing


def test_pairing_is_quadrature_weighted_bilinear_sum():
    grid = Grid(dim=1, points_per_axis=32)
    f, g = random_pair(grid, seed=7)
    want = (grid.period / 32) * np.sum(f.values * g.values)
    assert pairing(f, g) == pytest.approx(want, rel=1e-14)
    assert pairing(f, g) == pytest.approx(pairing(g, f), rel=1e-14)


def test_pairing_duality_defines_transposes():
    grid = Grid(dim=1, points_per_axis=8)
    T = make_operator(catalog_symbol("theta_sqrt1"), grid)
    f, g = random_pair(grid, seed=8)
    h, _ = random_pair(grid, seed=9)
    lhs = pairing(apply(T, f, g), h)
    rhs1 = pairing(apply(transpose(T, 1), h, g), f)
    rhs2 = pairing(apply(transpose(T, 2), f, h), g)
    assert abs(lhs - rhs1) < 1e-10 * max(1.0, abs(lhs))
    assert abs(lhs - rhs2) < 1e-10 * max(1.0, abs(lhs))


def test_pairing_rejects_mismatched_grids():
    f, _ = random_pair(Grid(dim=1, points_per_axis=8))
    g, _ = random_pair(Grid(dim=1, points_per_axis=16))
    with pytest.raises(InvalidInputError):
        pairing(f, g)


# -------------------------------------------------------------- commutators


def test_commutator_first_slot_definition():
    grid = Grid(dim=1, points_per_axis=32)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    f, g = random_pair(grid, seed=10)
    C = commutator(T, 1, a)
    got = apply(C, f, g).values
    af = GridFunction(grid, a.values * f.values)
    want = apply(T, af, g).values - a.values * apply(T, f, g).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_commutator_second_slot_definition():
    grid = Grid(dim=1, points_per_axis=32)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    a = GridFunction(grid, np.cos(grid.nodes_1d()))
    f, g = random_pair(grid, seed=11)
    C = commutator(T, 2, a)
    got = apply(C, f, g).values
    ag = GridFunction(grid, a.values * g.values)
    want = apply(T, f, ag).values - a.values * apply(T, f, g).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_iterated_commutator_equals_nested_expansion():
    grid = Grid(dim=1, points_per_axis=32)
    x = grid.nodes_1d()
    T = make_operator(catalog_symbol("sqrt1"), grid)
    a = GridFunction(grid, np.sin(x))
    b = GridFunction(grid, np.cos(2 * x))
    f, g = random_pair(grid, seed=12)
    got = apply(commutator(T, 1, a, 2, b), f, g).values

    def inner(ff, gg):
        aff = GridFunction(grid, a.values * ff.values)
        return GridFunction(grid, apply(T, aff, gg).values - a.values * apply(T, ff, gg).values)

    bg = GridFunction(grid, b.values * g.values)
    want = inner(f, bg).values - b.values * inner(f, g).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_commutator_with_constant_multiplier_vanishes():
    grid = Grid(dim=1, points_per_axis=32)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    c = GridFunction(grid, np.full(32, 2.5))
    f, g = random_pair(grid, seed=13)
    out = apply(commutator(T, 1, c), f, g)
    assert np.max(np.abs(out.values)) < 1e-12


def test_commutator_validates_slot_and_grid():
    grid = Grid(dim=1, points_per_axis=16)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    with pytest.raises(InvalidInputError):
        commutator(T, 3, a)
    other = Grid(dim=1, points_per_axis=32)
    wrong = GridFunction(other, np.sin(other.nodes_1d()))
    with pytest.raises(InvalidInputError):
        commutator(T, 1, wrong)


def test_expression_symbol_operator_round_trip():
    # an operator built from a parsed expression matches the catalog twin
    grid = Grid(dim=1, points_per_axis=16)
    node = parse_symbol_expr("sqrt(1 + xi^2 + eta^2)")
    sig = symbol_from_expr(node, SymbolClassParams(1.0, 1.0, 0.0))
    f, g = random_pair(grid, seed=15)
    a = apply(make_operator(sig, grid), f, g).values
    b = apply(make_operator(catalog_symbol("sqrt1"), grid), f, g).values
    assert np.max(np.abs(a - b)) < 1e-12


# ------------------------------------------------- low-rank multiplier path

_BLOCKS = ("sqrt({c}+{r2})", "exp(-({r2})/{c}^2)", "cos({a}/sqrt({c}+{r2}))",
           "{a}/({c}+{r2})", "({a}*{b}+{c})/({c}+{r2})^2")


@st.composite
def smooth_symbols(draw, dim):
    """Sums of smooth blocks in xi^2 + eta^2, with drawn constants."""
    if dim == 1:
        r2, a, b = "xi^2+eta^2", "xi", "eta"
    else:
        r2, a, b = "xi1^2+xi2^2+eta1^2+eta2^2", "xi2", "eta1"
    terms = []
    for template in draw(st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=3)):
        coef = draw(st.sampled_from(("1", "-0.5", "2", "3.5")))
        c = draw(st.sampled_from(("1", "1.5", "2", "4")))
        terms.append(f"{coef}*" + template.format(r2=r2, a=a, b=b, c=c))
    return "+".join(terms)


def _check_against_direct(expr, grid, seed):
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0), dim=grid.dim)
    f, g = random_pair(grid, seed=seed)
    fast = apply(make_operator(sigma, grid, strategy="multiplier"), f, g).values
    slow = apply(make_operator(sigma, grid, strategy="direct"), f, g).values
    assert np.max(np.abs(fast - slow)) <= 1e-10 * np.max(np.abs(slow)), expr


@settings(max_examples=30, deadline=None)
@given(expr=smooth_symbols(1), n=st.sampled_from((8, 16, 32)), seed=st.integers(0, 99))
def test_multiplier_matches_direct_on_random_symbols_1d(expr, n, seed):
    _check_against_direct(expr, Grid(dim=1, points_per_axis=n), seed)


@settings(max_examples=15, deadline=None)
@given(expr=smooth_symbols(2), seed=st.integers(0, 99))
def test_multiplier_matches_direct_on_random_symbols_2d(expr, seed):
    _check_against_direct(expr, Grid(dim=2, points_per_axis=8), seed)


def test_coordinate_symbol_factors_at_rank_one():
    T = make_operator(catalog_symbol("xi"), Grid(dim=1, points_per_axis=64))
    low = T.lowrank()
    assert low.rank == 1
    assert low.residual <= FACTOR_RTOL


def test_full_rank_symbol_is_exact_when_the_sketch_spans_the_mesh():
    grid = Grid(dim=1, points_per_axis=16)
    sigma = symbol_from_expr("(xi-eta)/sqrt(1+(xi-eta)^2)", SymbolClassParams(0.0))
    T = make_operator(sigma, grid)
    f, g = random_pair(grid, seed=16)
    fast = apply(T, f, g).values
    assert T.lowrank().rank == 16
    slow = brute_force_apply(sigma, f, g)
    assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))


def test_row_blocked_factorization_matches_one_block(monkeypatch):
    grid = Grid(dim=1, points_per_axis=256)
    f, g = random_pair(grid, seed=17)
    whole = apply(make_operator(catalog_symbol("sqrt1"), grid), f, g).values
    monkeypatch.setattr(operator_module, "FACTOR_BUDGET", 2 ** 14)  # 64-row blocks
    blocked = apply(make_operator(catalog_symbol("sqrt1"), grid), f, g).values
    assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_symbol_over_the_factor_budget_is_refused(monkeypatch):
    monkeypatch.setattr(operator_module, "FACTOR_BUDGET", 2 ** 14)  # rank <= 64 at N=256
    grid = Grid(dim=1, points_per_axis=256)
    sigma = symbol_from_expr("(xi-eta)/sqrt(1+(xi-eta)^2)", SymbolClassParams(0.0))
    with pytest.raises(BudgetError, match="residual"):
        make_operator(sigma, grid)


# ------------------------------------- x-dependent symbols: skeleton expansion

_SPATIAL = ("(2+sin({k}*x))", "exp(cos({k}*x))", "(1.5+cos(x)*sin({k}*x))", "sin({k}*x)")


@st.composite
def x_dependent_symbols(draw, dim):
    """A(x)*B(xi,eta) + C(xi,eta), or a product of two such terms (x-rank <= 4)."""
    def term():
        a = draw(st.sampled_from(_SPATIAL)).format(k=draw(st.sampled_from("123")))
        if dim == 2:
            a = a.replace("x)", "x1+x2)")
        return f"({a}*({draw(smooth_symbols(dim))})+{draw(smooth_symbols(dim))})"
    return "*".join(term() for _ in range(draw(st.integers(1, 2))))


@settings(max_examples=25, deadline=None)
@given(expr=x_dependent_symbols(1), n=st.sampled_from((32, 64)), seed=st.integers(0, 99))
def test_skeleton_expansion_matches_direct_on_random_symbols_1d(expr, n, seed):
    _check_against_direct(expr, Grid(dim=1, points_per_axis=n), seed)


@settings(max_examples=10, deadline=None)
@given(expr=x_dependent_symbols(2), seed=st.integers(0, 99))
def test_skeleton_expansion_matches_direct_on_random_symbols_2d(expr, seed):
    _check_against_direct(expr, Grid(dim=2, points_per_axis=8), seed)


def test_x_dependence_at_few_frequencies_is_exact():
    # the x-dependence sits in a bump at xi = eta = 0 that sampled
    # frequency pairs would miss; the AST shows it
    grid = Grid(dim=1, points_per_axis=256)
    sigma = symbol_from_expr("sin(x)*exp(-100*(xi^2+eta^2))", SymbolClassParams(0.0))
    T = make_operator(sigma, grid)
    f, g = random_pair(grid, seed=22)
    fast = apply(T, f, g).values
    slow = apply(make_operator(sigma, grid, strategy="direct"), f, g).values
    assert (T.strategy, T.lowrank().x_rank) == ("multiplier", 1)
    assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))


def test_undeclared_plain_callable_selects_direct():
    # without an AST nothing shows how sigma depends on x
    sqrt1 = catalog_symbol("sqrt1")
    grid = Grid(dim=1, points_per_axis=64)
    sigma = Symbol("sqrt1?", sqrt1.fn, sqrt1.declared_class)
    assert sigma.x_independent is False
    assert make_operator(sigma, grid).strategy == "direct"
    with pytest.raises(BudgetError, match="plain callable not declared x-independent"):
        make_operator(sigma, grid, "multiplier")
    declared = Symbol("sqrt1!", sqrt1.fn, sqrt1.declared_class, x_independent=True)
    low = make_operator(declared, grid).lowrank()
    assert (low.x_rank, low.rank) == (1, make_operator(sqrt1, grid).lowrank().rank)


# x-dependence where sigma is tiny, or at a few nodes and frequencies: out of
# reach of frequency sampling, exact when read off the AST
_MISSED = ("exp(sin(3*x))*(exp(-(xi^2+eta^2)/1^2))+exp(-(xi^2+eta^2)/2.5^2)",
           "1+exp(-100*(x-3)^2)*exp(-100*(xi^2+eta^2))")


@pytest.mark.parametrize("expr", _MISSED)
def test_symbols_with_x_dependence_out_of_sample_match_direct(expr):
    grid = Grid(dim=1, points_per_axis=256)
    sigma = symbol_from_expr(expr, SymbolClassParams(0.0))
    T = make_operator(sigma, grid)
    f, g = random_pair(grid, seed=23)
    fast = apply(T, f, g).values
    slow = apply(make_operator(sigma, grid, strategy="direct"), f, g).values
    assert (T.strategy, T.lowrank().x_rank) == ("multiplier", 2)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))
    plain = Symbol("plain", sigma.fn, sigma.declared_class)
    assert make_operator(plain, grid).strategy == "direct"


_ATOMS = ("(2+sin({k}*x))", "exp(cos({k}*x))")


@st.composite
def separable_symbols(draw, dim):
    """Elementary products a(x) b(xi, eta) joined by +, -, unary -, *, / by a
    factor free of x or of frequencies, and ^n of mixed sums: <= 6 x-factors."""
    def atom():
        a = draw(st.sampled_from(_ATOMS)).format(k=draw(st.sampled_from("12")))
        return a.replace("x)", "x1-x2)") if dim == 2 else a

    def pair():  # at most two x-factors
        left = f"{atom()}*({draw(smooth_symbols(dim))})"
        right = atom() if draw(st.booleans()) else f"({draw(smooth_symbols(dim))})"
        s = f"{left}{draw(st.sampled_from('+-'))}{right}"
        s = f"-({s})" if draw(st.booleans()) else f"({s})"
        xi = "xi" if dim == 1 else "xi1"
        return s + draw(st.sampled_from(("", f"/(1+{xi}^2)", f"/{atom()}")))

    shape = draw(st.sampled_from(("{p}", "{p}*{q}", "({p})^2", "({p})^3", "{p}*{q}+{r}")))
    return shape.format(p=pair(), q=pair(), r=pair())


def _check_expansion_is_exact(expr, grid, seed):
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0), dim=grid.dim)
    T = make_operator(sigma, grid)
    f, g = random_pair(grid, seed=seed)
    fast = apply(T, f, g).values
    slow = apply(make_operator(sigma, grid, strategy="direct"), f, g).values
    assert T.strategy == "multiplier", expr
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow)), expr


@settings(max_examples=30, deadline=None)
@given(expr=separable_symbols(1), seed=st.integers(0, 99))
def test_ast_expansion_is_exact_on_random_products_1d(expr, seed):
    _check_expansion_is_exact(expr, Grid(dim=1, points_per_axis=64), seed)


@settings(max_examples=10, deadline=None)
@given(expr=separable_symbols(2), seed=st.integers(0, 99))
def test_ast_expansion_is_exact_on_random_products_2d(expr, seed):
    _check_expansion_is_exact(expr, Grid(dim=2, points_per_axis=8), seed)


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
def test_ftc_components_of_an_x_modulated_symbol_have_x_rank_one(dim, n):
    grid = Grid(dim=dim, points_per_axis=n)
    comps = ftc_decompose(catalog_symbol("theta_sqrt1", dim=dim), guard=False)
    assert [make_operator(c, grid).lowrank().x_rank for c in comps] == [1] * (2 * dim)
    if dim == 1:  # the x-factor passes under the t-integral exactly
        f, g = random_pair(grid, seed=24)
        fast = apply(make_operator(comps[0], grid), f, g).values
        slow = apply(make_operator(comps[0], grid, strategy="direct"), f, g).values
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@pytest.mark.parametrize("expr, n", [("cos(x*xi)", 1024), ("((2+sin(x))*xi+eta)^40", 64)])
def test_symbols_without_an_expansion_resolve_to_direct_at_once(expr, n):
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0))
    start = time.perf_counter()
    T = make_operator(sigma, Grid(dim=1, points_per_axis=n))
    assert time.perf_counter() - start < 1.0
    assert T.strategy == "direct"


@pytest.mark.parametrize("expr", ["sqrt(1+xi^2+eta^2)", "(2+sin(x))*sqrt(1+xi^2+eta^2)"],
                         ids=["x-independent", "x-dependent"])
def test_threaded_applies_share_one_finished_expansion(monkeypatch, expr):
    # an operator is finished at construction: concurrent applies of it and
    # of its commutator read one expansion and never evaluate the symbol
    monkeypatch.setenv("BILOP_THREADS", "4")
    grid = Grid(dim=1, points_per_axis=128)
    sigma = symbol_from_expr(expr, SymbolClassParams(1.0))
    values, calls = operator_module._values, []
    monkeypatch.setattr(operator_module, "_values",
                        lambda *args: calls.append(args) or values(*args))
    T = make_operator(sigma, grid, "multiplier")
    C = commutator(T, 1, GridFunction(grid, np.sin(grid.nodes_1d())))
    low, built = T.lowrank(), len(calls)
    assert built > 0
    pairs = [random_pair(grid, seed=s) for s in range(8)]
    for op in (T, C):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outs = thread_map(lambda pair, op=op: apply(op, *pair).values, pairs)
        finally:
            sys.setswitchinterval(interval)
        for out, pair in zip(outs, pairs):
            assert np.array_equal(out, apply(op, *pair).values)
    assert T.lowrank() is low
    assert len(calls) == built


def test_only_the_multiplier_strategy_is_factored():
    T = make_operator(catalog_symbol("sqrt1"), Grid(dim=1, points_per_axis=16), "direct")
    with pytest.raises(InvalidInputError):
        T.lowrank()


# --------------------------------------------------------- non-finite guard


def test_singular_symbol_is_refused_by_every_strategy():
    grid = Grid(dim=1, points_per_axis=64)
    sigma = symbol_from_expr("1/xi", SymbolClassParams(-1.0))
    f, g = random_pair(grid, seed=19)
    for strategy in STRATEGIES:
        with pytest.raises(DomainError):
            apply(make_operator(sigma, grid, strategy), f, g)


def test_direct_strategy_names_the_non_finite_symbol():
    # the symbol check runs before the frequency sum, as in the multiplier path
    grid = Grid(dim=1, points_per_axis=64)
    sigma = symbol_from_expr("1/xi", SymbolClassParams(-1.0))
    f, g = random_pair(grid, seed=19)
    with pytest.raises(DomainError, match="symbol '1/xi' is not finite on the 64-point grid"):
        apply(make_operator(sigma, grid, "direct"), f, g)
    with pytest.raises(DomainError, match="symbol '1/xi' is not finite"):
        dense_tensor(make_operator(sigma, Grid(dim=1, points_per_axis=8), "direct"))


def test_non_finite_dense_and_commutator_outputs_are_refused():
    grid = Grid(dim=1, points_per_axis=8)
    f, g = random_pair(grid, seed=20)
    W = np.zeros((8, 8, 8), dtype=complex)
    W[0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        apply(DenseBilinearOperator(grid, W), f, g)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    a = GridFunction(grid, np.full(8, np.inf))
    with pytest.raises(DomainError), np.errstate(invalid="ignore"):
        apply(commutator(T, 1, a), f, g)


def _cli_apply(tmp_path, capsys, *args):
    rc = cli_main(["apply", *args, "--out-dir", str(tmp_path)])
    return rc, capsys.readouterr().out


def test_cli_apply_exits_1_on_a_singular_symbol(tmp_path, capsys):
    rc, out = _cli_apply(tmp_path, capsys, "--symbol", "1/xi", "--n", "64")
    assert rc == 1
    assert out == ""


def test_cli_apply_reports_rank_and_residual(tmp_path, capsys):
    rc, out = _cli_apply(tmp_path, capsys, "--symbol", "sqrt1", "--n", "256")
    data = json.loads(out)["data"]
    assert rc == 0
    assert (data["strategy"], data["rank"]) == ("multiplier", 25)
    assert 0 < data["residual"] <= FACTOR_RTOL
    rc, out = _cli_apply(tmp_path, capsys, "--symbol", "theta_sqrt1", "--n", "16")
    data = json.loads(out)["data"]
    assert rc == 0
    assert (data["strategy"], data["x_rank"]) == ("multiplier", 1)
    assert data["rank"] > 1
    assert 0 <= data["residual"] <= FACTOR_RTOL
    assert "x_residual" not in data
    rc, out = _cli_apply(tmp_path, capsys, "--symbol", "theta_sqrt1", "--n", "16",
                         "--strategy", "direct")
    assert rc == 0
    assert "rank" not in json.loads(out)["data"]


@pytest.mark.parametrize("args", [
    ("apply", "--dim", "2", "--n", "32", "--symbol", "theta_sqrt1"),  # f=sinx is 1D
    ("apply", "--g", "y"),
    ("verify-transpose", "--a", "y"),
    ("check-t1", "--a", "nosuch"),
    ("compactness-probe", "--b-rough", "y"),
    ("wbp-scan", "--op", "iterated12", "--b", "y"),
    ("norm-scan", "--op", "commutator2", "--a", "y"),
    ("norm-scan", "--op", "bogus"),
])
def test_cli_resolves_inputs_before_building_the_operator(tmp_path, monkeypatch, args):
    calls = []
    made = cli_module.make_operator
    monkeypatch.setattr(cli_module, "make_operator",
                        lambda *a, **k: calls.append(a) or made(*a, **k))
    assert cli_main([*args, "--out-dir", str(tmp_path)]) == 1
    assert calls == []
