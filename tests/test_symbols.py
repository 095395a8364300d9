"""Symbol catalog, class-seminorm estimation, and derivative bookkeeping."""

import json

import numpy as np
import pytest

from bilop.cli import main as cli_main
from bilop.errors import InvalidInputError
from bilop.symbols import (
    HONEST_BS1_NAMES,
    ORDER1_NAMES,
    SymbolClassParams,
    absnorm,
    catalog_symbol,
    estimate_seminorms,
    parse_symbol_expr,
    symbol_catalog,
    symbol_from_expr,
)

CATALOG_NAMES = ("one", "xi", "eta", "sqrt1", "theta_sqrt1", "cm0", "bad_xieta", "bad_linear")


# ------------------------------------------------------------------ catalog


def test_catalog_contents():
    assert tuple(symbol_catalog(dim=1)) == CATALOG_NAMES
    # in 2D the linear coordinate symbols split into per-component entries
    assert tuple(symbol_catalog(dim=2)) == (
        "one", "xi1", "xi2", "eta1", "eta2",
        "sqrt1", "theta_sqrt1", "cm0", "bad_xieta", "bad_linear",
    )
    for dim in (1, 2):
        for name, sig in symbol_catalog(dim=dim).items():
            assert sig.name == name
            assert sig.dim == dim


def test_catalog_name_groups():
    assert set(ORDER1_NAMES) <= set(HONEST_BS1_NAMES)
    assert set(HONEST_BS1_NAMES) <= set(CATALOG_NAMES)
    assert "bad_xieta" not in HONEST_BS1_NAMES
    assert "bad_linear" not in HONEST_BS1_NAMES


def test_unknown_catalog_name():
    with pytest.raises(InvalidInputError):
        catalog_symbol("nope")


def test_declared_classes():
    assert catalog_symbol("one").declared_class == SymbolClassParams(0.0, 1.0, 0.0)
    assert catalog_symbol("sqrt1").declared_class == SymbolClassParams(1.0, 1.0, 0.0)
    assert catalog_symbol("cm0").declared_class == SymbolClassParams(0.0, 1.0, 0.0)
    # the deliberately misdeclared entries claim more decay than they have
    assert catalog_symbol("bad_xieta").declared_class.m == 1.0
    assert catalog_symbol("bad_linear").declared_class.m == 0.0


def test_x_independence_flags():
    for name in CATALOG_NAMES:
        sig = catalog_symbol(name)
        assert sig.x_independent == (name != "theta_sqrt1")


def test_known_values():
    x = np.array([0.0])
    xi = np.array([3.0])
    eta = np.array([4.0])
    assert catalog_symbol("one").eval(x, xi, eta)[0] == pytest.approx(1.0)
    assert catalog_symbol("xi").eval(x, xi, eta)[0] == pytest.approx(3.0)
    assert catalog_symbol("eta").eval(x, xi, eta)[0] == pytest.approx(4.0)
    assert catalog_symbol("sqrt1").eval(x, xi, eta)[0] == pytest.approx(np.sqrt(26.0))
    assert catalog_symbol("bad_linear").eval(x, xi, eta)[0] == pytest.approx(8.0)


def test_2d_evaluation_uses_euclidean_block_norms():
    sig = catalog_symbol("sqrt1", dim=2)
    x = (np.array([0.0]), np.array([0.0]))
    xi = (np.array([3.0]), np.array([0.0]))
    eta = (np.array([0.0]), np.array([4.0]))
    assert sig.eval(x, xi, eta)[0] == pytest.approx(np.sqrt(26.0))


def test_absnorm():
    assert absnorm(np.array([3.0]), np.array([-4.0]))[0] == pytest.approx(8.0)
    two = absnorm((np.array([3.0]), np.array([4.0])), (np.array([0.0]), np.array([0.0])), dim=2)
    assert two[0] == pytest.approx(6.0)


# -------------------------------------------------------- seminorm estimates


def test_honest_symbols_have_all_entries_bounded():
    for name in HONEST_BS1_NAMES:
        rep = estimate_seminorms(catalog_symbol(name), max_order=2, box=4096.0, samples=100)
        verdicts = {e.verdict for e in rep.entries}
        assert verdicts == {"bounded"}, f"{name}: {verdicts}"
        # slopes may be very negative (over-decay is harmless), never positive
        assert all(e.slope < 0.2 for e in rep.entries), name


def test_bad_xieta_caught_at_first_frequency_derivatives():
    # xi*eta/absnorm has first frequency derivatives that grow one full order
    # beyond what an order-1 class with rho=1 allows
    rep = estimate_seminorms(catalog_symbol("bad_xieta"), max_order=1, box=4096.0, samples=100)
    by_key = {(e.alpha, e.beta, e.gamma): e for e in rep.entries}
    for key in (((0,), (1,), (0,)), ((0,), (0,), (1,))):
        assert by_key[key].verdict == "growing"
        assert by_key[key].slope > 0.8
    # x-derivatives vanish identically: those entries stay bounded
    assert by_key[((1,), (0,), (0,))].verdict == "bounded"


def test_bad_linear_caught_at_value_and_first_derivatives():
    # |xi|+|eta| declared order 0: the value itself grows a full order, and
    # its unit-size first derivatives violate the required (1+..)^-1 decay
    rep = estimate_seminorms(catalog_symbol("bad_linear"), max_order=1, box=4096.0, samples=100)
    by_key = {(e.alpha, e.beta, e.gamma): e for e in rep.entries}
    for key in (((0,), (0,), (0,)), ((0,), (1,), (0,)), ((0,), (0,), (1,))):
        assert by_key[key].verdict == "growing"
        assert by_key[key].slope > 0.8
    assert by_key[((1,), (0,), (0,))].verdict == "bounded"


def test_every_bad_symbol_fails_and_every_honest_symbol_passes():
    for name in CATALOG_NAMES:
        rep = estimate_seminorms(catalog_symbol(name), max_order=1, box=1024.0, samples=100)
        grew = any(e.verdict == "growing" for e in rep.entries)
        assert grew == name.startswith("bad_"), name


def test_seminorms_2d_smoke():
    rep = estimate_seminorms(catalog_symbol("sqrt1", dim=2), max_order=1, box=512.0, samples=100)
    assert all(e.verdict == "bounded" for e in rep.entries)
    bad = estimate_seminorms(catalog_symbol("bad_linear", dim=2), max_order=1, box=512.0, samples=100)
    assert any(e.verdict == "growing" for e in bad.entries)


def test_near_zero_probe_flags_symbols_singular_at_the_axes():
    # the dyadic shells start at max(|xi|, |eta|) >= 1 and see 1/xi as bounded
    for expr, slope in (("1/xi", 1.0), ("1/eta", 1.0), ("1/(xi^2+eta^2)", 2.0)):
        rep = estimate_seminorms(symbol_from_expr(expr, SymbolClassParams(0.0)),
                                 max_order=1, box=1024.0, samples=100)
        assert rep.near_zero.verdict == "singular", expr
        assert rep.near_zero.slope == pytest.approx(slope, abs=0.05), expr
        assert rep.verdict == "FAILED"
    for dim in (1, 2):
        for name in ("one", "sqrt1", "cm0", "theta_sqrt1"):
            rep = estimate_seminorms(catalog_symbol(name, dim=dim), max_order=1,
                                     box=512.0, samples=100)
            assert rep.near_zero.verdict == "bounded", (name, dim)
            assert len(rep.near_zero.shell_max) == 21


def test_near_zero_probe_calls_non_finite_values_singular():
    rep = estimate_seminorms(symbol_from_expr("1/(xi*0)", SymbolClassParams(0.0)),
                             max_order=0, box=64.0, samples=100)
    assert rep.near_zero.verdict == "singular"
    assert np.isnan(rep.near_zero.slope)


@pytest.mark.parametrize("expr, verdict, increment_ratio", [
    ("log(xi^2)", "singular", 1.0),               # slope 0.18: under the old cut
    ("sqrt(abs(log(xi^2)))", "singular", 0.84),
    ("1/xi", "singular", 32.0),
    ("exp(-100*(xi^2+eta^2))", "bounded", 0.001),  # slope 4.8, but it settles
    ("1-sqrt(abs(xi))", "bounded", 0.18),
])
def test_near_zero_verdict_comes_from_the_deepest_scales(expr, verdict, increment_ratio):
    rep = estimate_seminorms(symbol_from_expr(expr, SymbolClassParams(0.0)),
                             max_order=0, box=64.0, samples=100)
    assert rep.near_zero.verdict == verdict
    assert rep.near_zero.increment_ratio == pytest.approx(increment_ratio, rel=0.05)
    assert rep.near_zero.cutoff == 0.5


def test_near_zero_increments_of_the_catalog_shrink():
    for dim in (1, 2):
        for name, sig in symbol_catalog(dim).items():
            nz = estimate_seminorms(sig, max_order=0, box=64.0, samples=100).near_zero
            assert nz.verdict == "bounded", (name, dim)
            # constants have no increment at all (0/0)
            assert np.isnan(nz.increment_ratio) or nz.increment_ratio <= 0.04, (name, dim)


@pytest.mark.parametrize("expr, rc, verdict", [
    ("log(xi^2)", 2, "FAILED"), ("exp(-100*(xi^2+eta^2))", 0, "BOUNDED")])
def test_cli_seminorms_near_zero_verdicts(tmp_path, capsys, expr, rc, verdict):
    got = cli_main(["seminorms", "--symbol", expr, "--out-dir", str(tmp_path)])
    envelope = json.loads(capsys.readouterr().out)
    assert (got, envelope["verdict"]) == (rc, verdict)
    assert envelope["data"]["near_zero"]["cutoff"] == 0.5


def test_near_zero_probe_leaves_the_shells_unchanged():
    # the probe draws after the shells, so a ratio pinned before it holds
    rep = estimate_seminorms(catalog_symbol("sqrt1"))
    assert rep.entries[0].ratio == pytest.approx(0.9946974285505732, rel=1e-12)


def test_cli_seminorms_fails_a_symbol_singular_near_zero(tmp_path, capsys):
    rc = cli_main(["seminorms", "--symbol", "1/xi", "--out-dir", str(tmp_path)])
    envelope = json.loads(capsys.readouterr().out)
    assert (rc, envelope["verdict"]) == (2, "FAILED")
    assert envelope["data"]["near_zero"]["verdict"] == "singular"
    assert all(e["verdict"] == "bounded" for e in envelope["data"]["entries"])


def test_seminorms_reject_thin_sampling():
    with pytest.raises(InvalidInputError):
        estimate_seminorms(catalog_symbol("xi"), samples=40)


def test_two_dyadic_shells_are_enough_to_fail_bad_xieta():
    # box 3 holds two shells; below 2^1.5 the one shell left would fit a
    # slope of 0, so seminorms refuses it (tests/test_cli.py REFUSED)
    rep = estimate_seminorms(catalog_symbol("bad_xieta"), box=3.0)
    assert (len(rep.shells), rep.verdict) == (2, "FAILED")


def test_seminorms_deterministic():
    a = estimate_seminorms(catalog_symbol("sqrt1"), max_order=1, box=1024.0, samples=100, seed=5)
    b = estimate_seminorms(catalog_symbol("sqrt1"), max_order=1, box=1024.0, samples=100, seed=5)
    assert [(e.ratio, e.slope) for e in a.entries] == [(e.ratio, e.slope) for e in b.entries]


# ------------------------------------------------- closed-form references

# The closed forms the catalog once registered by hand, kept as the oracle
# for its expression ASTs.  Every evaluator takes broadcast arrays (pairs of
# them in 2D) and returns one of the same shape.


def _w(xi, eta):
    return 1.0 + xi ** 2 + eta ** 2


def _zeros(x_orders):
    """The zero partials ((a,), (b,), (g,)) of order >= 1, a in x_orders, b, g <= 2."""
    return {((a,), (b,), (g,)): lambda x, xi, eta: 0 * xi
            for a in x_orders for b in range(3) for g in range(3) if a + b + g}


_SQRT1_PARTIALS_1D = {
    ((0,), (1,), (0,)): lambda x, xi, eta: xi / np.sqrt(_w(xi, eta)),
    ((0,), (0,), (1,)): lambda x, xi, eta: eta / np.sqrt(_w(xi, eta)),
    ((0,), (2,), (0,)): lambda x, xi, eta: (1 + eta ** 2) / _w(xi, eta) ** 1.5,
    ((0,), (0,), (2,)): lambda x, xi, eta: (1 + xi ** 2) / _w(xi, eta) ** 1.5,
    ((0,), (1,), (1,)): lambda x, xi, eta: -xi * eta / _w(xi, eta) ** 1.5,
}
_THETA_DERIVS = (lambda x: 2.0 + np.sin(x), np.cos, lambda x: -np.sin(x))


def _theta_sqrt1_partials_1d():
    base = {((0,), (0,), (0,)): lambda x, xi, eta: np.sqrt(_w(xi, eta)),
            **_SQRT1_PARTIALS_1D}
    return {((a,), kb, kg): (lambda x, xi, eta, th=_THETA_DERIVS[a], fp=fp:
                             th(x) * fp(x, xi, eta))
            for a in range(3) for (_, kb, kg), fp in base.items() if a or kb != (0,) or kg != (0,)}


REFERENCE_1D = {
    "one": (lambda x, xi, eta: 0 * xi + 1.0, _zeros(range(3))),
    "xi": (lambda x, xi, eta: xi,
           {**_zeros(range(3)), ((0,), (1,), (0,)): lambda x, xi, eta: 0 * xi + 1.0}),
    "eta": (lambda x, xi, eta: eta,
            {**_zeros(range(3)), ((0,), (0,), (1,)): lambda x, xi, eta: 0 * xi + 1.0}),
    "sqrt1": (lambda x, xi, eta: np.sqrt(1.0 + xi ** 2 + eta ** 2),
              {**_SQRT1_PARTIALS_1D, **_zeros((1, 2))}),
    "theta_sqrt1": (lambda x, xi, eta: (2.0 + np.sin(x)) * np.sqrt(1.0 + xi ** 2 + eta ** 2),
                    _theta_sqrt1_partials_1d()),
    "cm0": (lambda x, xi, eta: (xi ** 2 + eta ** 2) / _w(xi, eta), {
        ((0,), (1,), (0,)): lambda x, xi, eta: 2 * xi / _w(xi, eta) ** 2,
        ((0,), (0,), (1,)): lambda x, xi, eta: 2 * eta / _w(xi, eta) ** 2,
        ((0,), (2,), (0,)): lambda x, xi, eta: 2 / _w(xi, eta) ** 2 - 8 * xi ** 2 / _w(xi, eta) ** 3,
        ((0,), (0,), (2,)): lambda x, xi, eta: 2 / _w(xi, eta) ** 2 - 8 * eta ** 2 / _w(xi, eta) ** 3,
        ((0,), (1,), (1,)): lambda x, xi, eta: -8 * xi * eta / _w(xi, eta) ** 3,
        **_zeros((1, 2))}),
    "bad_xieta": (lambda x, xi, eta: xi * eta, {
        **_zeros((1, 2)),
        ((0,), (1,), (0,)): lambda x, xi, eta: eta,
        ((0,), (0,), (1,)): lambda x, xi, eta: xi,
        ((0,), (1,), (1,)): lambda x, xi, eta: 0 * xi + 1.0,
        ((0,), (2,), (0,)): lambda x, xi, eta: 0 * xi,
        ((0,), (0,), (2,)): lambda x, xi, eta: 0 * xi}),
    # a.e.-exact signs; the kink at the origin is the point of this entry
    "bad_linear": (lambda x, xi, eta: 1.0 + np.abs(xi) + np.abs(eta), {
        ((0,), (1,), (0,)): lambda x, xi, eta: np.sign(xi),
        ((0,), (0,), (1,)): lambda x, xi, eta: np.sign(eta),
        **{key: (lambda x, xi, eta: 0 * xi) for key in (
            ((0,), (2,), (0,)), ((0,), (0,), (2,)), ((0,), (1,), (1,)), ((1,), (0,), (0,)))}}),
}


def _w2(xi, eta):
    return 1.0 + xi[0] ** 2 + xi[1] ** 2 + eta[0] ** 2 + eta[1] ** 2


def _first_order_2d(component, theta=None):
    """d/dxi_j and d/deta_j, each component(v, j, xi, eta) times theta(x) if given."""
    out = {}
    for j in range(2):
        e = tuple(int(i == j) for i in range(2))
        for block, key in ((0, ((0, 0), e, (0, 0))), (1, ((0, 0), (0, 0), e))):
            out[key] = (lambda x, xi, eta, j=j, block=block:
                        component((xi, eta)[block], j, xi, eta)
                        * (1.0 if theta is None else theta(x)))
    return out


def _theta_2d(x):
    return 2.0 + np.sin(x[0]) * np.cos(x[1])


def _unit_2d(v, j, xi, eta):
    r = np.sqrt(v[0] ** 2 + v[1] ** 2)
    return np.where(r > 0, v[j] / np.where(r > 0, r, 1.0), 0.0)


REFERENCE_2D = {
    "one": (lambda x, xi, eta: 0 * xi[0] + 1.0, {}),
    "xi1": (lambda x, xi, eta: xi[0], {}),
    "xi2": (lambda x, xi, eta: xi[1], {}),
    "eta1": (lambda x, xi, eta: eta[0], {}),
    "eta2": (lambda x, xi, eta: eta[1], {}),
    "sqrt1": (lambda x, xi, eta: np.sqrt(_w2(xi, eta)),
              _first_order_2d(lambda v, j, xi, eta: v[j] / np.sqrt(_w2(xi, eta)))),
    "theta_sqrt1": (lambda x, xi, eta: _theta_2d(x) * np.sqrt(_w2(xi, eta)),
                    _first_order_2d(lambda v, j, xi, eta: v[j] / np.sqrt(_w2(xi, eta)),
                                    theta=_theta_2d)),
    "cm0": (lambda x, xi, eta: (xi[0] ** 2 + xi[1] ** 2 + eta[0] ** 2 + eta[1] ** 2)
            / _w2(xi, eta),
            _first_order_2d(lambda v, j, xi, eta: 2.0 * v[j] / _w2(xi, eta) ** 2)),
    "bad_xieta": (lambda x, xi, eta: xi[0] * eta[0], {}),
    "bad_linear": (lambda x, xi, eta: 1.0 + np.sqrt(xi[0] ** 2 + xi[1] ** 2)
                   + np.sqrt(eta[0] ** 2 + eta[1] ** 2), _first_order_2d(_unit_2d)),
}


def _probe_points(dim, count=200, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, (dim, count))
    xi, eta = rng.uniform(-20, 20, (2, dim, count)) * 10.0 ** rng.uniform(-2, 2, (2, 1, count))
    pack = (lambda v: v[0]) if dim == 1 else tuple
    return pack(x), pack(xi), pack(eta)


def _normwise_gap(got, want):
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), want)
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / (scale if scale > 0 else 1.0)


@pytest.mark.parametrize("dim, reference", [(1, REFERENCE_1D), (2, REFERENCE_2D)])
def test_catalog_values_are_bitwise_equal_to_the_closed_forms(dim, reference):
    assert tuple(symbol_catalog(dim)) == tuple(reference)
    x, xi, eta = _probe_points(dim)
    for name, (value, _) in reference.items():
        got = catalog_symbol(name, dim).eval(x, xi, eta)
        np.testing.assert_array_equal(got, value(x, xi, eta), err_msg=name)


@pytest.mark.parametrize("dim, reference", [(1, REFERENCE_1D), (2, REFERENCE_2D)])
def test_catalog_partials_agree_with_the_closed_forms(dim, reference):
    assert sum(len(partials) for _, partials in reference.values()) == (170 if dim == 1 else 16)
    x, xi, eta = _probe_points(dim)
    for name, (_, partials) in reference.items():
        sig = catalog_symbol(name, dim)
        for key, want in partials.items():
            got = sig.partial(*key)(x, xi, eta)
            assert _normwise_gap(got, want(x, xi, eta)) <= 1e-12, (name, key)


def test_sqrt1_second_order_partials_in_2d_are_exact():
    # d_i d_j sqrt(w) = delta_ij / sqrt(w) - v_i v_j / w^1.5 over the four
    # frequency variables v = (xi1, xi2, eta1, eta2); these were differences
    sig = catalog_symbol("sqrt1", dim=2)
    x, xi, eta = _probe_points(2)
    v = (*xi, *eta)
    w = _w2(xi, eta)
    for i in range(4):
        for j in range(i, 4):
            orders = np.zeros(4, dtype=int)
            orders[i] += 1
            orders[j] += 1
            got = sig.partial((0, 0), tuple(orders[:2]), tuple(orders[2:]))(x, xi, eta)
            want = (i == j) / np.sqrt(w) - v[i] * v[j] / w ** 1.5
            assert _normwise_gap(got, want) <= 1e-12, (i, j)
    for alpha in ((1, 0), (0, 1), (1, 1), (2, 0)):
        assert np.all(sig.partial(alpha, (1, 0), (0, 1))(x, xi, eta) == 0)


def test_bad_linear_partials_are_signs_off_axis():
    # away from the kink the derivative is exactly the sign
    sig = catalog_symbol("bad_linear")
    xi = np.array([2.0, -3.0])
    eta = np.array([-1.0, 5.0])
    x = np.zeros(2)
    assert np.allclose(sig.partial(0, 1, 0)(x, xi, eta), np.sign(xi))
    assert np.allclose(sig.partial(0, 0, 1)(x, xi, eta), np.sign(eta))


# ------------------------------------------------------ expression symbols


def test_symbol_from_expr_matches_direct_evaluation():
    node = parse_symbol_expr("xi^2 / (1 + xi^2 + eta^2)")
    sig = symbol_from_expr(node, SymbolClassParams(0.0, 1.0, 0.0))
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 2 * np.pi, 30)
    xi = rng.uniform(-10, 10, 30)
    eta = rng.uniform(-10, 10, 30)
    got = sig.eval(x, xi, eta)
    want = xi**2 / (1 + xi**2 + eta**2)
    assert np.allclose(got, want, atol=1e-14)


def test_symbol_from_expr_detects_x_independence():
    cls = SymbolClassParams(1.0, 1.0, 0.0)
    assert symbol_from_expr(parse_symbol_expr("xi + eta"), cls).x_independent
    assert not symbol_from_expr(parse_symbol_expr("xi * sin(x)"), cls).x_independent


def test_symbol_from_expr_2d():
    cls = SymbolClassParams(1.0, 1.0, 0.0)
    node = parse_symbol_expr("xi1 + eta2")
    sig = symbol_from_expr(node, cls, dim=2)
    x = (np.zeros(3), np.zeros(3))
    xi = (np.array([1.0, 2.0, 3.0]), np.zeros(3))
    eta = (np.zeros(3), np.array([10.0, 20.0, 30.0]))
    assert np.allclose(sig.eval(x, xi, eta), [11.0, 22.0, 33.0])


def test_symbol_from_expr_rejects_wrong_dimension_variables():
    node = parse_symbol_expr("xi1 + eta2")
    with pytest.raises(InvalidInputError):
        symbol_from_expr(node, SymbolClassParams(1.0, 1.0, 0.0), dim=1)
    with pytest.raises(InvalidInputError, match="dim must be 1 or 2"):
        symbol_from_expr("xi", SymbolClassParams(1.0), dim=3)
