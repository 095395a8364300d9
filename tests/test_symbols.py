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
from bilop.symbols.core import Symbol

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
        assert not rep.all_bounded
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


def test_seminorms_deterministic():
    a = estimate_seminorms(catalog_symbol("sqrt1"), max_order=1, box=1024.0, samples=100, seed=5)
    b = estimate_seminorms(catalog_symbol("sqrt1"), max_order=1, box=1024.0, samples=100, seed=5)
    assert [(e.ratio, e.slope) for e in a.entries] == [(e.ratio, e.slope) for e in b.entries]


# ------------------------------------------------- closed-form vs difference


def fd_twin(sig):
    # same pointwise values, but no registered derivatives: forces the
    # finite-difference fallback in partial()
    return Symbol(sig.name + "_fd", sig.fn, sig.declared_class, dim=sig.dim,
                  partials=None, x_independent=sig.x_independent)


def rel_err(a, b):
    scale = np.maximum(np.abs(b), 1.0)
    return np.max(np.abs(a - b) / scale)


@pytest.mark.parametrize("name", ["sqrt1", "theta_sqrt1", "cm0"])
@pytest.mark.parametrize("deriv", [(0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)])
def test_finite_differences_agree_with_closed_forms(name, deriv):
    sig = catalog_symbol(name)
    twin = fd_twin(sig)
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 2 * np.pi, 60)
    xi = rng.uniform(-20, 20, 60)
    eta = rng.uniform(-20, 20, 60)
    exact = sig.partial(*deriv)(x, xi, eta)
    approx = twin.partial(*deriv)(x, xi, eta)
    assert rel_err(approx, exact) < 1e-4


def test_finite_differences_agree_in_2d():
    sig = catalog_symbol("theta_sqrt1", dim=2)
    twin = fd_twin(sig)
    rng = np.random.default_rng(3)
    pts = [tuple(rng.uniform(-15, 15, 40) for _ in range(2)) for _ in range(3)]
    x = tuple(rng.uniform(0, 2 * np.pi, 40) for _ in range(2))
    for deriv in [((0, 0), (1, 0), (0, 0)), ((0, 0), (0, 0), (0, 1)), ((1, 0), (0, 0), (0, 0))]:
        exact = sig.partial(*deriv)(x, pts[1], pts[2])
        approx = twin.partial(*deriv)(x, pts[1], pts[2])
        assert rel_err(approx, exact) < 1e-4, deriv


def test_bad_linear_partials_are_signs_off_axis():
    # away from the kink the registered derivative is exactly the sign
    sig = catalog_symbol("bad_linear")
    xi = np.array([2.0, -3.0])
    eta = np.array([-1.0, 5.0])
    x = np.zeros(2)
    assert np.allclose(sig.partial(0, 1, 0)(x, xi, eta), np.sign(xi))
    assert np.allclose(sig.partial(0, 0, 1)(x, xi, eta), np.sign(eta))


def test_mixed_partial_resolves_through_registered_first_orders():
    # partial() peels one order at a time, so a mixed derivative of a symbol
    # with only first-order registrations still lands within FD accuracy
    sig = catalog_symbol("sqrt1")
    x = np.array([0.0])
    xi = np.array([2.0])
    eta = np.array([1.0])
    got = sig.partial(0, 1, 1)(x, xi, eta)
    w = 1.0 + 4.0 + 1.0
    want = -2.0 * 1.0 / w**1.5
    assert abs(got[0] - want) < 1e-6


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
