"""Splitting a symbol into frequency-weighted components that drop one order."""

import numpy as np
import pytest

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
from bilop.symbols.ftc import FtcComponentSymbol


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
    assert len(comps) == 2
    comps2 = ftc_decompose(catalog_symbol("sqrt1", dim=2))
    assert len(comps2) == 4
    assert [c.block for c in comps2] == ["xi", "xi", "eta", "eta"]
    assert [c.comp for c in comps2] == [0, 1, 0, 1]
    assert all(isinstance(c, FtcComponentSymbol) for c in comps2)


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


def node_by_node(comp, a, b, g, x, xi, eta):
    # one parent evaluation per Gauss-Legendre node, summed in node order
    dim = comp.parent.dim
    e = tuple(int(j == comp.comp) for j in range(dim))
    bump = lambda m: tuple(np.add(m, e))
    inner = comp.parent.partial(a, bump(b) if comp.block == "xi" else b,
                                bump(g) if comp.block == "eta" else g)
    scale = lambda v, t: t * v if dim == 1 else tuple(t * c for c in v)
    acc = 0
    for t, w in zip(*np.polynomial.legendre.leggauss(comp.quad_points)):
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
    for c in ftc_decompose(catalog_symbol("theta_sqrt1", dim=dim), guard=False):
        for a, b, g in [(zero, zero, zero), (one, zero, zero), (zero, one, one)]:
            want = node_by_node(c, a, b, g, x, xi, eta)
            got = c.partial(a, b, g)(x, xi, eta)
            assert got.shape == (60,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (c.name, a, b, g)


def test_stacked_nodes_broadcast_grid_shaped_inputs():
    # column xi against row eta, scalar x: the leading node axis must not
    # collide with the grid axes
    comp = ftc_decompose(catalog_symbol("theta_sqrt1"), guard=False)[1]
    xi, eta = np.linspace(-9, 9, 5)[:, None], np.linspace(-3, 4, 7)[None, :]
    got = comp.eval(0.4, xi, eta)
    assert got.shape == (5, 7)
    assert np.allclose(got, node_by_node(comp, (0,), (0,), (0,), 0.4, xi, eta),
                       rtol=1e-13, atol=0)


def test_with_quad_points_refines_in_place():
    comp = ftc_decompose(catalog_symbol("sqrt1"))[0]
    finer = comp.with_quad_points(128)
    assert finer.quad_points == 128
    assert finer.block == comp.block and finer.comp == comp.comp
    x = np.array([1.0])
    xi = np.array([5.0])
    eta = np.array([3.0])
    assert abs(comp.eval(x, xi, eta)[0] - finer.eval(x, xi, eta)[0]) < 1e-10


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
