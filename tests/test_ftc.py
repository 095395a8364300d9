"""Splitting a symbol into frequency-weighted components that drop one order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilop.errors import InvalidInputError, ToleranceError
from bilop.symbols import (
    SymbolClassParams,
    catalog_symbol,
    estimate_seminorms,
    ftc_decompose,
    parse_symbol_expr,
    reconstruction_residual,
    symbol_catalog,
    symbol_from_expr,
)
from bilop.symbols import ftc
from bilop.symbols.expr import VARIABLES


def frequency_names(dim):
    return VARIABLES[dim][dim:]


def manual_reconstruction_gap(sigma, comps, seed=2, box=64.0, probes=200):
    # assemble sum_j xi_j sigma_j + eta_j sigmatilde_j + sigma(x,0,0) by hand
    rng = np.random.default_rng(seed)
    dim = sigma.dim
    if dim == 1:
        x = rng.uniform(0, 2 * np.pi, probes)
        xi = rng.uniform(-box, box, probes)
        eta = rng.uniform(-box, box, probes)
        zero = np.zeros(probes)
        acc = comps[0].eval(x, xi, eta) * xi + comps[1].eval(x, xi, eta) * eta
        acc = acc + sigma.eval(x, zero, zero)
    else:
        x = tuple(rng.uniform(0, 2 * np.pi, probes) for _ in range(2))
        xi = tuple(rng.uniform(-box, box, probes) for _ in range(2))
        eta = tuple(rng.uniform(-box, box, probes) for _ in range(2))
        zero = tuple(np.zeros(probes) for _ in range(2))
        acc = sigma.eval(x, zero, zero)
        for j in range(2):
            acc = acc + xi[j] * comps[j].eval(x, xi, eta)
            acc = acc + eta[j] * comps[2 + j].eval(x, xi, eta)
    return float(np.max(np.abs(acc - sigma.eval(x, xi, eta))))


def test_components_reassemble_sqrt1_by_hand():
    sigma = catalog_symbol("sqrt1")
    comps = ftc_decompose(sigma)
    assert manual_reconstruction_gap(sigma, comps) < 1e-8


def test_components_reassemble_sqrt1_by_hand_2d():
    sigma = catalog_symbol("sqrt1", dim=2)
    comps = ftc_decompose(sigma, quad_points=128)
    assert manual_reconstruction_gap(sigma, comps) < 1e-8


@pytest.mark.parametrize("dim", [1, 2])
def test_reconstruction_residual_small_for_whole_catalog(dim):
    # probes reach |xi| = 64, which amplifies component-level quadrature
    # error by the frequency, so reconstruct with 128 nodes
    for name, sigma in symbol_catalog(dim=dim).items():
        comps = ftc_decompose(sigma, quad_points=128)
        res = reconstruction_residual(sigma, comps)
        assert res < 1e-8, f"{name} (dim {dim}): {res:.3e}"


def test_component_count_and_layout():
    comps = ftc_decompose(catalog_symbol("sqrt1"))
    assert [c.name for c in comps] == ["sqrt1[xi]", "sqrt1[eta]"]
    comps2 = ftc_decompose(catalog_symbol("sqrt1", dim=2))
    assert [c.name for c in comps2] == ["sqrt1[xi1]", "sqrt1[xi2]", "sqrt1[eta1]", "sqrt1[eta2]"]
    # each component is an expression symbol: one Quad node over the parent's partial
    assert all(isinstance(c.node, ftc.Quad) and c.dim == 2 for c in comps2)
    # sigma = sqrt(1 + |xi|^2 + |eta|^2) is symmetric, so the blocks mirror each other
    x, xi, eta = (0.3, 0.1), (2.0, -1.0), (0.5, 4.0)
    swap = lambda c, v: c.eval(x, v[1], v[0])
    for j in range(2):
        assert comps2[j].eval(x, xi, eta) == pytest.approx(swap(comps2[2 + j], (xi, eta)), rel=1e-14)


def test_components_drop_one_order():
    sigma = catalog_symbol("sqrt1")
    for c in ftc_decompose(sigma):
        assert c.declared_class.m == sigma.declared_class.m - 1
        assert c.declared_class.rho == sigma.declared_class.rho
        assert c.declared_class.delta == sigma.declared_class.delta
        assert c.x_independent == sigma.x_independent


def test_component_closed_form_for_linear_symbol():
    # sigma = xi gives d_xi sigma = 1, so sigma_1 = 1 and sigmatilde_1 = 0
    comps = ftc_decompose(catalog_symbol("xi"))
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 2 * np.pi, 50)
    xi = rng.uniform(-30, 30, 50)
    eta = rng.uniform(-30, 30, 50)
    assert np.max(np.abs(comps[0].eval(x, xi, eta) - 1.0)) < 1e-12
    assert np.max(np.abs(comps[1].eval(x, xi, eta))) < 1e-12


def test_components_of_order_one_symbols_have_bounded_order_zero_seminorms():
    for name in ("sqrt1", "theta_sqrt1"):
        for c in ftc_decompose(catalog_symbol(name)):
            rep = estimate_seminorms(c, max_order=1, box=1024.0, samples=100)
            assert all(e.verdict == "bounded" for e in rep.entries), (name, c.name)


def test_component_derivative_matches_finite_difference():
    # derivative evaluation integrates the parent's derivative with a t^k
    # weight; cross-check against a plain central difference of the component
    comp = ftc_decompose(catalog_symbol("sqrt1"))[0]
    x = np.array([0.0])
    xi = np.array([2.5])
    eta = np.array([-1.5])
    h = 1e-5
    fd = (comp.eval(x, xi + h, eta) - comp.eval(x, xi - h, eta)) / (2 * h)
    got = comp.partial(0, 1, 0)(x, xi, eta)
    assert abs(got[0] - fd[0]) < 1e-8


def node_by_node(parent, var, q, a, b, g, x, xi, eta):
    # d^(a,b,g) of the parent's var-component with q nodes: one parent
    # evaluation per Gauss-Legendre node, summed in node order
    dim = parent.dim
    names = VARIABLES[dim]
    orders = np.add(a + b + g, [int(v == var) for v in names])
    inner = parent.partial(*(tuple(orders[k * dim:(k + 1) * dim]) for k in range(3)))
    scale = lambda v, t: t * v if dim == 1 else tuple(t * c for c in v)
    acc = 0
    for t, w in zip(*np.polynomial.legendre.leggauss(q)):
        t = (t + 1) / 2
        acc = acc + w / 2 * t ** (sum(b) + sum(g)) * np.asarray(
            inner(x, scale(xi, t), scale(eta, t)))
    return acc


@pytest.mark.parametrize("chunk", [ftc.NODE_CHUNK_ENTRIES, 700])
@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_nodes_match_node_by_node_evaluation(monkeypatch, dim, chunk):
    # 700 entries split the 64 nodes into uneven chunks over 60 probes
    monkeypatch.setattr(ftc, "NODE_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(5)
    draw = lambda: rng.uniform(-40, 40, 60) if dim == 1 else tuple(rng.uniform(-40, 40, (2, 60)))
    x, xi, eta = draw(), draw(), draw()
    zero = (0,) * dim
    one = tuple(int(j == 0) for j in range(dim))
    sigma = catalog_symbol("theta_sqrt1", dim=dim)
    for c, var in zip(ftc_decompose(sigma, guard=False), frequency_names(dim)):
        for a, b, g in [(zero, zero, zero), (one, zero, zero), (zero, one, one)]:
            want = node_by_node(sigma, var, 64, a, b, g, x, xi, eta)
            got = c.partial(a, b, g)(x, xi, eta)
            assert got.shape == (60,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (c.name, a, b, g)


def test_stacked_nodes_broadcast_grid_shaped_inputs():
    # column xi against row eta, scalar x: the leading node axis must not
    # collide with the grid axes
    sigma = catalog_symbol("theta_sqrt1")
    comp = ftc_decompose(sigma, guard=False)[1]
    xi, eta = np.linspace(-9, 9, 5)[:, None], np.linspace(-3, 4, 7)[None, :]
    got = comp.eval(0.4, xi, eta)
    assert got.shape == (5, 7)
    assert np.allclose(got, node_by_node(sigma, "eta", 64, (0,), (0,), (0,), 0.4, xi, eta),
                       rtol=1e-13, atol=0)


def test_doubling_quad_points_refines_the_same_component():
    sigma = catalog_symbol("sqrt1")
    comp = ftc_decompose(sigma)[0]
    finer = ftc_decompose(sigma, quad_points=128)[0]
    assert finer.name == comp.name == "sqrt1[xi]"
    assert (finer.node.q, comp.node.q) == (128, 64)
    x = np.array([1.0])
    xi = np.array([5.0])
    eta = np.array([3.0])
    assert abs(comp.eval(x, xi, eta)[0] - finer.eval(x, xi, eta)[0]) < 1e-10


# x-factors, xi-factors and eta-factors of separable terms c*a(x)*A(xi)*B(eta)
_FACTORS = {
    1: (("1", "sin(x)", "exp(cos(2*x))", "2+sin(x)^2"),
        ("1", "xi", "sqrt(1+xi^2)", "exp(-xi^2/9)", "xi/(1+xi^2)"),
        ("1", "eta", "sqrt(4+eta^2)", "cos(eta/3)", "1/(2+eta^2)")),
    2: (("1", "sin(x1)", "cos(x2)", "exp(sin(x1+x2))"),
        ("1", "xi1", "sqrt(1+xi1^2+xi2^2)", "exp(-(xi1^2+xi2^2)/9)", "xi2/(1+xi1^2)"),
        ("1", "eta2", "sqrt(4+eta1^2+eta2^2)", "cos(eta1/3)", "eta1/(2+eta2^2)")),
}


@st.composite
def separable_sums(draw, dim):
    xs, xis, etas = _FACTORS[dim]
    terms = [f"{draw(st.sampled_from(('1', '-0.5', '2.5')))}*{draw(st.sampled_from(xs))}"
             f"*{draw(st.sampled_from(xis))}*{draw(st.sampled_from(etas))}"
             for _ in range(draw(st.integers(1, 3)))]
    return "+".join(terms)


def _orders_up_to_two(dim):
    names = VARIABLES[dim]
    pairs = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
    out = []
    for hit in [()] + [(i,) for i in range(len(names))] + pairs:
        m = np.bincount(np.array(hit, dtype=int), minlength=len(names))
        out.append(tuple(tuple(int(v) for v in m[k * dim:(k + 1) * dim]) for k in range(3)))
    return out


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from((1, 2)), data=st.data(), seed=st.integers(0, 99))
def test_component_partials_match_node_by_node_on_separable_sums(dim, data, seed):
    # the Quad derivative rule (x passes under the integral, a frequency adds
    # a power of t) against the direct node sum of the parent's partial
    sigma = symbol_from_expr(data.draw(separable_sums(dim)), SymbolClassParams(1.0), dim=dim)
    rng = np.random.default_rng(seed)
    draw = lambda: rng.uniform(-20, 20, 12) if dim == 1 else tuple(rng.uniform(-20, 20, (2, 12)))
    x, xi, eta = draw(), draw(), draw()
    comps = ftc_decompose(sigma, quad_points=16, guard=False)
    triples = data.draw(st.lists(st.sampled_from(_orders_up_to_two(dim)), min_size=1,
                                 max_size=4))
    for c, var in zip(comps, frequency_names(dim)):
        for a, b, g in triples:
            want = node_by_node(sigma, var, 16, a, b, g, x, xi, eta)
            got = c.partial(a, b, g)(x, xi, eta)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (c.name, a, b, g)


def test_component_of_a_component():
    # sigma = xi^3 + 2 eta^2: sigma[xi] = xi^2, and (xi^2)[xi] = xi, exactly
    # for Gauss-Legendre on polynomial integrands
    sigma = symbol_from_expr("xi^3+2*eta^2", SymbolClassParams(3.0), name="p")
    comp_xi, comp_eta = ftc_decompose(sigma)
    nested = ftc_decompose(comp_xi)
    assert [c.name for c in nested] == ["p[xi][xi]", "p[xi][eta]"]
    assert nested[0].declared_class.m == 1.0
    rng = np.random.default_rng(4)
    x, xi, eta = rng.uniform(0, 6, 30), rng.uniform(-30, 30, 30), rng.uniform(-30, 30, 30)
    assert np.allclose(comp_eta.eval(x, xi, eta), 2 * eta, rtol=1e-14, atol=0)
    assert np.allclose(nested[0].eval(x, xi, eta), xi, rtol=1e-14, atol=0)
    assert np.allclose(nested[0].partial(0, 1, 0)(x, xi, eta), 1.0, rtol=1e-14, atol=0)
    assert np.all(nested[1].eval(x, xi, eta) == 0)
    # an x-dependent parent: the nested Quad against the node sum of the component
    comp = ftc_decompose(catalog_symbol("theta_sqrt1"))[1]
    inner = ftc_decompose(comp)[0]
    for a, b, g in [((0,), (0,), (0,)), ((1,), (0,), (1,))]:
        want = node_by_node(comp, "xi", 64, a, b, g, x, xi, eta)
        got = inner.partial(a, b, g)(x, xi, eta)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert reconstruction_residual(comp, ftc_decompose(comp, quad_points=128)) < 1e-8
    # pretty() has no form for a Quad node, so an unnamed one is refused
    with pytest.raises(InvalidInputError, match="Quad node needs a name"):
        symbol_from_expr(ftc.Quad(parse_symbol_expr("xi"), 0, 16), SymbolClassParams(0.0))


def test_x_independence_is_read_from_the_component_expression():
    # d_xi (sin(x) + xi) = 1: the xi-component is the constant 1, free of x
    sigma = symbol_from_expr("sin(x)+xi", SymbolClassParams(1.0))
    comp_xi, comp_eta = ftc_decompose(sigma)
    assert sigma.x_independent is False
    assert comp_xi.x_independent is True and comp_eta.x_independent is True
    x, xi, eta = np.linspace(0, 6, 9), np.linspace(-40, 40, 9), np.linspace(5, -5, 9)
    assert np.allclose(comp_xi.eval(x, xi, eta), 1.0, rtol=1e-14, atol=0)
    assert np.all(comp_xi.partial(1, 0, 0)(x, xi, eta) == 0)
    assert np.all(comp_eta.eval(x, xi, eta) == 0)


def test_quad_points_floor():
    with pytest.raises(InvalidInputError):
        ftc_decompose(catalog_symbol("sqrt1"), quad_points=8)


def test_guard_trips_on_ray_discontinuous_integrand():
    # |xi - 1| has a derivative jump crossing the integration ray, which
    # Gauss-Legendre cannot resolve; the convergence guard must refuse
    sig = symbol_from_expr(parse_symbol_expr("abs(xi - 1) + abs(eta)"),
                           SymbolClassParams(1.0, 1.0, 0.0))
    with pytest.raises(ToleranceError) as err:
        ftc_decompose(sig, quad_points=16)
    assert "not converged" in str(err.value)


def test_guard_can_be_disabled():
    sig = symbol_from_expr(parse_symbol_expr("abs(xi - 1) + abs(eta)"),
                           SymbolClassParams(1.0, 1.0, 0.0))
    comps = ftc_decompose(sig, quad_points=16, guard=False)
    assert len(comps) == 2


def test_reconstruction_residual_deterministic():
    sigma = catalog_symbol("theta_sqrt1")
    comps = ftc_decompose(sigma)
    a = reconstruction_residual(sigma, comps, seed=9)
    b = reconstruction_residual(sigma, comps, seed=9)
    assert a == b
