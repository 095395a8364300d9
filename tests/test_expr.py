"""Symbol expression language: parsing, printing, evaluation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_operator import smooth_symbols, x_dependent_symbols

from bilop.errors import SymbolParseError
from bilop.symbols import catalog_symbol, parse_symbol_expr, pretty
from bilop.symbols.expr import (FUNCTIONS, VARIABLES, BinOp, Call, Neg,
                                Num, Pow, Var)
from bilop.symbols.ftc import Quad

# a broad corpus exercising every production: numbers (int, float, scientific),
# all variables, every function, all binary operators, unary minus, nesting,
# precedence and associativity corners, and gratuitous whitespace
CORPUS = [
    "1",
    "2.5",
    "1e-3",
    "3.25e2",
    "x",
    "xi",
    "eta",
    "x1",
    "x2",
    "xi1",
    "xi2",
    "eta1",
    "eta2",
    "-xi",
    "--xi",
    "xi + eta",
    "xi - eta",
    "xi * eta",
    "xi / (1 + eta^2)",
    "xi^2",
    "xi^2 + eta^2",
    "-xi^2",
    "(-xi)^2",
    "2^3^2",
    "(2^3)^2",
    "xi - eta - 1",
    "xi - (eta - 1)",
    "xi / eta / 2",
    "sin(x)",
    "cos(x)",
    "exp(-xi^2)",
    "log(1 + xi^2)",
    "abs(xi)",
    "sqrt(1 + xi^2 + eta^2)",
    "sqrt(1 + xi^2 + eta^2) * (2 + sin(x))",
    "(1 + xi^2 + eta^2) ^ -1",
    "xi^-2 + 1",
    "eta^0",
    "abs(xi) + abs(eta)",
    "sin(x) * cos(x)",
    "sin(cos(x))",
    "exp(sin(x) - cos(x))",
    "2 * xi + 3 * eta - 4",
    "xi * (eta + 1) * (eta - 1)",
    "1 / (1 + abs(xi) + abs(eta))",
    "sqrt(1 + xi1^2 + xi2^2 + eta1^2 + eta2^2)",
    "xi1 * eta2 - xi2 * eta1",
    "sin(x1) * cos(x2) + 2",
    "  xi   +   eta  ",
    "((xi))",
    "-(xi + eta) / (1 + x^2)",
]


def probe_env(free, rng):
    env = {}
    for name in free:
        env[name] = rng.uniform(-5.0, 5.0, size=7)
    # keep arguments of log/sqrt/^fractional safely positive where needed:
    # corpus expressions only feed those functions manifestly positive input
    return env


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_preserves_evaluation(src):
    node = parse_symbol_expr(src)
    printed = pretty(node)
    again = parse_symbol_expr(printed)
    rng = np.random.default_rng(42)
    env = probe_env(sorted(node.free_vars()), rng)
    a = node.eval(env)
    b = again.eval(env)
    assert node.free_vars() == again.free_vars()
    assert np.allclose(a, b, rtol=0, atol=1e-14)


@pytest.mark.parametrize("src", CORPUS)
def test_pretty_is_idempotent(src):
    node = parse_symbol_expr(src)
    printed = pretty(node)
    assert pretty(parse_symbol_expr(printed)) == printed


def test_corpus_size():
    assert len(CORPUS) >= 50


def test_chained_powers_apply_left_to_right():
    # exponents are integer literals, so a chain folds as ((2^3)^2)
    node = parse_symbol_expr("2^3^2")
    assert node.eval({}) == pytest.approx(64.0)


def test_non_integer_exponent_rejected():
    with pytest.raises(SymbolParseError) as err:
        parse_symbol_expr("xi ^ 0.5")
    assert "integer" in str(err.value)


def test_negative_integer_exponent():
    node = parse_symbol_expr("xi^-2")
    assert node.eval({"xi": 2.0}) == pytest.approx(0.25)


def test_unary_minus_binds_looser_than_power():
    node = parse_symbol_expr("-2^2")
    assert node.eval({}) == pytest.approx(-4.0)


def test_subtraction_is_left_associative():
    node = parse_symbol_expr("10 - 4 - 3")
    assert node.eval({}) == pytest.approx(3.0)


def test_known_values():
    env = {"x": np.array([0.5]), "xi": np.array([2.0]), "eta": np.array([-1.0])}
    cases = {
        "sqrt(1 + xi^2 + eta^2)": np.sqrt(6.0),
        "abs(xi) + abs(eta)": 3.0,
        "xi * eta + sin(x)": -2.0 + np.sin(0.5),
        "exp(-xi^2)": np.exp(-4.0),
    }
    for src, want in cases.items():
        got = parse_symbol_expr(src).eval(env)
        assert got[0] == pytest.approx(want, rel=1e-14)


def test_free_vars():
    assert parse_symbol_expr("xi + eta").free_vars() == {"xi", "eta"}
    assert parse_symbol_expr("3.0").free_vars() == set()
    assert parse_symbol_expr("sin(x1) * xi2").free_vars() == {"x1", "xi2"}


def test_variables_do_not_mix_dimensions():
    # 1D and 2D variable families are disjoint
    assert set(VARIABLES[1]) & set(VARIABLES[2]) == set()


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("xi + * 2", "offset 6"),
        ("sin(xi", "offset"),
        ("bogus(xi)", "unknown identifier 'bogus'"),
        ("xi + y", "unknown identifier 'y'"),
        ("", "empty"),
        ("xi eta", "offset"),
        ("(xi + eta", "parenthesis"),
        ("xi + eta)", "offset"),
        ("1..2", "offset"),
    ],
)
def test_parse_errors_carry_position(src, fragment):
    with pytest.raises(SymbolParseError) as err:
        parse_symbol_expr(src)
    assert fragment in str(err.value)


def test_vectorized_evaluation_broadcasts():
    node = parse_symbol_expr("xi^2 + eta")
    xi = np.linspace(-3, 3, 11)
    eta = np.full(11, 0.5)
    got = node.eval({"xi": xi, "eta": eta})
    assert np.allclose(got, xi**2 + 0.5)


# ------------------------------------------------------------ derivatives


def random_smooth_expressions(dim):
    return st.one_of(smooth_symbols(dim), x_dependent_symbols(dim))


def _variable_env(dim, seed):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-3.0, 3.0, 16)
            for name in VARIABLES[dim]}


def _central_difference(node, env, var):
    h = 1e-5 * (1.0 + np.abs(env[var]))
    hi = node.eval({**env, var: env[var] + h})
    lo = node.eval({**env, var: env[var] - h})
    return (hi - lo) / (2 * h)


def _assert_close(got, want, reference):
    scale = 1.0 + np.max(np.abs(reference)) + np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-6 * scale


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from((1, 2)), data=st.data(), seed=st.integers(0, 99))
def test_diff_agrees_with_central_differences(dim, data, seed):
    node = parse_symbol_expr(data.draw(random_smooth_expressions(dim)))
    env = _variable_env(dim, seed)
    names = sorted(env)
    for var in names:
        d = node.diff(var)
        _assert_close(d.eval(env) + 0 * env[var], _central_difference(node, env, var),
                      node.eval(env))
    # a second derivative against the difference of the exact first one
    u, v = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
    du = node.diff(u)
    _assert_close(du.diff(v).eval(env) + 0 * env[v], _central_difference(du, env, v),
                  du.eval(env))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from((1, 2)), data=st.data(), seed=st.integers(0, 99))
def test_printed_derivatives_parse_back_to_the_same_values(dim, data, seed):
    node = parse_symbol_expr(data.draw(random_smooth_expressions(dim)))
    env = _variable_env(dim, seed)
    for u in sorted(env):
        for d in (node.diff(u), node.diff(u).diff(data.draw(st.sampled_from(sorted(env))))):
            again = parse_symbol_expr(pretty(d))
            np.testing.assert_array_equal(again.eval(env) + 0 * env[u], d.eval(env) + 0 * env[u])


def test_diff_folds_zeros_and_ones():
    node = parse_symbol_expr("sqrt(1 + xi^2 + eta^2)")
    assert isinstance(node.diff("x"), Num) and node.diff("x").value == 0
    assert pretty(node.diff("xi")) == "0.5/sqrt(1+xi^2+eta^2)*(2*xi)"
    assert pretty(parse_symbol_expr("xi^-2").diff("xi")) == "-2*xi^-3"
    assert pretty(parse_symbol_expr("3*xi").diff("xi")) == "3"
    assert pretty(parse_symbol_expr("log(1 + xi^2)").diff("xi")) == "2*xi/(1+xi^2)"


def test_the_parser_folds_literal_zeros():
    # 0*log(x) is gone before anything evaluates it: no NaN at x = 0
    assert pretty(parse_symbol_expr("sqrt(1+xi^2)+0*log(x)")) == "sqrt(1+xi^2)"
    assert pretty(parse_symbol_expr("0*eta*log(x)")) == "0"
    assert pretty(parse_symbol_expr("xi+0-0")) == "xi"
    assert pretty(parse_symbol_expr("0-xi")) == "-xi"
    assert parse_symbol_expr("(x-x)*xi").free_vars() == {"x", "xi"}  # not a literal 0


def test_abs_differentiates_to_sign_with_sign_zero_at_the_kink():
    d = parse_symbol_expr("abs(xi) + abs(eta)").diff("xi")
    assert pretty(d) == "sign(xi)"
    assert list(d.eval({"xi": np.array([-2.0, 0.0, 3.0])})) == [-1.0, 0.0, 1.0]
    assert pretty(d.diff("xi")) == "0"


def test_negative_literals_print_with_parentheses_where_needed():
    # a folded negative literal behaves like unary minus in pretty
    node = parse_symbol_expr("cos(xi)^3").diff("xi").diff("xi")
    again = parse_symbol_expr(pretty(node))
    xi = np.linspace(-2, 2, 9)
    assert np.array_equal(again.eval({"xi": xi}), node.eval({"xi": xi}))
    assert pretty(Pow(Num(-2.0), 2)) == "(-2)^2"
    assert pretty(BinOp("-", Var("xi"), Num(-2.0))) == "xi--2"
    assert parse_symbol_expr("(-2)^2").eval({}) == 4.0


# ------------------------------------------------------------------- parity


@pytest.mark.parametrize("src, xi, eta", [
    ("sqrt1", 1, 1), ("xi", -1, 1), ("bad_xieta", -1, -1), ("abs(xi)", 1, 1),
    ("exp(xi)", None, 1), ("sin(xi+eta)", None, None), ("cos(xi)*sign(eta)", 1, -1),
    ("xi^-3*eta^2", -1, 1), ("log(1+xi^2)+sqrt(2+eta)", 1, None), ("xi-xi^2", None, 1),
])
def test_parity_of_known_symbols(src, xi, eta):
    name = src if src in ("sqrt1", "bad_xieta") else None
    node = catalog_symbol(name).node if name else parse_symbol_expr(src)
    assert (node.parity("xi"), node.parity("eta")) == (xi, eta)


def test_parity_of_an_ftc_component_is_its_integrand_parity():
    node = parse_symbol_expr("(2+sin(x))*sqrt(1+xi^2+eta^2)")
    for var, want in (("xi", (-1, 1)), ("eta", (1, -1))):
        comp = Quad(node.diff(var), 0, 16)
        assert (comp.parity("xi"), comp.parity("eta")) == want


@pytest.mark.parametrize("text", ["(0.5-0.5)^-1*xi", "xi/(1-1)", "1/(1-1)"])
def test_a_constant_zero_divisor_evaluates_to_inf(text):
    # Python floats would raise ZeroDivisionError; the symbol checks want a
    # non-finite value they can report
    with np.errstate(divide="ignore"):
        assert np.isinf(parse_symbol_expr(text).eval({"x": 0.0, "xi": 1.0, "eta": 1.0}))


@st.composite
def parity_expressions(draw):
    """Random ASTs over x, xi, eta from every grammar function, integer powers,
    quotients and FTC quadrature nodes."""
    leaves = st.one_of(st.sampled_from([Var(v) for v in VARIABLES[1]]),
                       st.sampled_from((0.5, 1.0, 2.0, -3.0)).map(Num))

    def extend(child):
        return st.one_of(
            st.tuples(st.sampled_from(FUNCTIONS), child).map(lambda a: Call(*a)),
            st.tuples(st.sampled_from("+-*/"), child, child).map(lambda a: BinOp(*a)),
            st.tuples(child, st.integers(-3, 3)).map(lambda a: Pow(*a)),
            child.map(Neg),
            st.tuples(child, st.integers(0, 2)).map(lambda a: Quad(a[0], a[1], 8)))

    return draw(st.recursive(leaves, extend, max_leaves=10))


@settings(max_examples=200, deadline=None)
@given(node=parity_expressions(), seed=st.integers(0, 99))
@example(node=Neg(Call("sin", Pow(Var("x"), -3))), seed=1)  # x^-3 one ulp off its parity
def test_parity_claims_hold_on_random_expressions(node, seed):
    # sigma(-v) = p sigma(v) wherever the rules claim parity p in v
    rng = np.random.default_rng(seed)
    env = {name: rng.uniform(-3.0, 3.0, 32) for name in VARIABLES[1]}
    plus = np.broadcast_to(node.eval(env), (32,))
    finite = np.isfinite(plus)
    scale = np.max(np.abs(plus[finite]), initial=0.0)
    for var in VARIABLES[1]:
        p = node.parity(var)
        if p is None:
            continue
        minus = np.broadcast_to(node.eval({**env, var: -env[var]}), (32,))
        assert np.array_equal(np.isnan(minus), np.isnan(plus)), var
        assert np.array_equal(np.isinf(minus), np.isinf(plus)), var
        assert np.all(np.abs(minus[finite] - p * plus[finite]) <= 1e-14 * scale), var
