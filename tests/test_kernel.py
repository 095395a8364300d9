"""Truncated-kernel quadrature: profiles, decay fits, commutator certificates."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilop.cli import main as cli_main
from bilop.errors import DomainError, InvalidInputError, ToleranceError
from bilop.grid import Grid, GridFunction, eval_at
from bilop.kernel import (
    PHASE_BUDGET,
    ROW_BLOCK,
    KernelQuadrature,
    certify_cz_commutator_kernel,
    cutoff_profile,
    default_radii,
    fit_kernel_decay,
    kernel_at,
    kernel_slice,
    smooth_step,
)
from bilop.symbols import (
    SymbolClassParams,
    catalog_symbol,
    parse_symbol_expr,
    multiplier_function,
    symbol_from_expr,
)
from test_operator import _ATOMS, smooth_symbols

L = 2 * np.pi
LEVEL = 128.0
# three x-terms, each frequency factor of definite parity; sigma as a whole has none
THREE_TERMS = ("(2+sin(x))*sqrt(1+xi^2+eta^2)+cos(x)*xi*eta/(1+xi^2+eta^2)"
               "+exp(cos(2*x))*xi^2/(1+xi^2+eta^2)")


def wrap(u):
    return (u + L / 2) % L - L / 2


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 names it trapz


def quadrature_1d(mult, u, level=128.0, dxi=0.002, span=2.0):
    # independent single-axis oracle: plain trapezoid over the cutoff window
    xi = np.arange(-span * level, span * level + dxi, dxi)
    return _trapezoid(cutoff_profile(xi / level) * mult(xi) * np.exp(1j * xi * u), xi) / L


# -------------------------------------------------------------- cutoff shape


def test_cutoff_profile_plateau_and_support():
    s = np.array([-0.5, 0.0, 0.3, 1.0])
    assert np.allclose(cutoff_profile(s), 1.0)
    far = np.array([2.0, 2.5, -2.0, 7.0])
    assert np.allclose(cutoff_profile(far), 0.0)


def test_cutoff_profile_is_even_and_monotone_on_ramp():
    s = np.linspace(1.0, 2.0, 101)
    vals = cutoff_profile(s)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(cutoff_profile(-s), vals)


def test_smooth_step_building_block():
    # h(s) = e^{-1/s} on s > 0, identically 0 on s <= 0: all derivatives
    # vanish at 0, which is what makes the glued cutoff smooth
    s = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    got = smooth_step(s)
    assert got[0] == 0.0 and got[1] == 0.0
    assert got[2] == pytest.approx(np.exp(-2.0))
    assert got[3] == pytest.approx(np.exp(-1.0))
    assert np.all(np.diff(got) >= 0)
    assert abs(smooth_step(np.array([1e-3]))[0]) < 1e-300


# ------------------------------------------------ batched contraction oracle


def reference_values(quad, x, us, vs, deriv):
    # the unbatched complex formula: S upcast to complex, one matmul per
    # phase factor, the alpha = 1 phase derivative as two more passes
    alpha, beta, gamma = deriv
    ax = quad.axis
    psi = cutoff_profile(ax / quad.level)

    def smat(ev):
        sig = np.asarray(ev(np.asarray(x), ax[:, None], ax[None, :]))
        return (sig * np.ones((ax.size, ax.size)) * psi[:, None] * psi[None, :]).astype(complex)

    EU = np.exp(1j * np.outer(ax, us)) * ((-1j * ax) ** beta)[:, None]
    EV = np.exp(1j * np.outer(ax, vs)) * ((-1j * ax) ** gamma)[:, None]
    S = smat(quad.sigma.fn)
    vals = np.einsum("mb,mb->b", EU, S @ EV)
    if alpha == 1:
        vals = np.einsum("mb,mb->b", EU * (1j * ax)[:, None], S @ EV) \
            + np.einsum("mb,mb->b", EU, S @ (EV * (1j * ax)[:, None]))
        if not quad.sigma.x_independent:
            Sx = smat(quad.sigma.partial((1,), (0,), (0,)))
            vals = vals + np.einsum("mb,mb->b", EU, Sx @ EV)
    return quad.spacing ** 2 / (2 * np.pi) ** 2 * vals


@pytest.mark.parametrize("count", [1, 128, 129, 330])
@pytest.mark.parametrize("make", [lambda: catalog_symbol("sqrt1"),
                                  lambda: catalog_symbol("theta_sqrt1")],
                         ids=["sqrt1", "theta_sqrt1"])
def test_batched_values_match_the_unbatched_complex_formula(make, count):
    quad = KernelQuadrature(make(), 16.0)
    rng = np.random.default_rng(count)
    us, vs = rng.uniform(-L / 4, L / 4, size=(2, count))
    for deriv in itertools.product((0, 1), repeat=3):
        want = reference_values(quad, 0.7, us, vs, deriv)
        got = quad.values(0.7, us, vs, deriv=deriv)
        assert got.shape == (count,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), deriv


@pytest.mark.parametrize("make", [lambda: catalog_symbol("sqrt1"),
                                  lambda: catalog_symbol("theta_sqrt1")],
                         ids=["sqrt1", "theta_sqrt1"])
def test_repeated_offsets_match_the_unbatched_complex_formula(make):
    # certification's batch: each sample with its y- and z-steps side by
    # side, so repeated u and v share phase columns; shuffled, the repeats
    # lie far apart in the batch
    quad = KernelQuadrature(make(), 16.0)
    rng = np.random.default_rng(5)
    us, vs = rng.uniform(-L / 4, L / 4, size=(2, 66))
    h = rng.uniform(0.01, 0.1, size=66)
    us = np.stack([us, us - h, us + h, us, us], axis=1).ravel()
    vs = np.stack([vs, vs, vs, vs - h, vs + h], axis=1).ravel()
    order = rng.permutation(us.size)
    for deriv in itertools.product((0, 1), repeat=3):
        for u, v in ((us, vs), (us[order], vs[order])):
            want = reference_values(quad, 0.7, u, v, deriv)
            got = quad.values(0.7, u, v, deriv=deriv)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), deriv


# odd in xi, odd in eta, odd in both, and odd with an x-dependent factor:
# the odd halves of the +-xi and +-eta folds, which even symbols never reach
ODD_SYMBOLS = {
    "xi": lambda: catalog_symbol("xi"),
    "eta": lambda: catalog_symbol("eta"),
    "bad_xieta": lambda: catalog_symbol("bad_xieta"),
    "theta_xi_eta2": lambda: symbol_from_expr("(2+sin(x))*xi*eta^2/(1+xi^2+eta^2)",
                                              SymbolClassParams(1.0)),
}


def _assert_matches_reference(quad, x, us, vs, deriv, chunk=1024):
    want = np.concatenate([reference_values(quad, x, us[lo:lo + chunk], vs[lo:lo + chunk], deriv)
                           for lo in range(0, us.size, chunk)])
    got = quad.values(x, us, vs, deriv=deriv)
    assert got.shape == us.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), deriv


@pytest.mark.parametrize("name", ODD_SYMBOLS)
def test_odd_symbols_match_the_unbatched_complex_formula(name):
    # level 16: 129 rows a side, so the row loop makes several blocks and
    # the last one is partial
    quad = KernelQuadrature(ODD_SYMBOLS[name](), 16.0)
    rows = quad.axis.size // 2 + 1
    assert rows > 2 * ROW_BLOCK and rows % ROW_BLOCK
    us, vs = np.random.default_rng(11).uniform(-L / 4, L / 4, size=(2, 40))
    for deriv in itertools.product((0, 1), repeat=3):
        _assert_matches_reference(quad, 0.7, us, vs, deriv)


@pytest.mark.parametrize("name", ["bad_xieta", "theta_xi_eta2"])
def test_offsets_past_the_phase_budget_match_the_unbatched_complex_formula(name):
    # more distinct v than one chunk of eta phases holds, even at alpha = 0:
    # sigma is streamed once per chunk, and a u repeated across chunks is
    # gathered in each
    quad = KernelQuadrature(ODD_SYMBOLS[name](), 8.0)
    count = PHASE_BUDGET // (2 * (quad.axis.size // 2 + 1)) + 37
    rng = np.random.default_rng(12)
    vs = rng.uniform(-L / 4, L / 4, size=count)
    us = rng.choice(rng.uniform(-L / 4, L / 4, size=50), size=count)
    for deriv in itertools.product((0, 1), repeat=3):
        _assert_matches_reference(quad, 2.3, us, vs, deriv)


_XI_BLOCKS = ("xi", "xi^2", "xi^3", "sin(xi)", "cos(xi/3)", "1/(1+xi^2)",
              "xi/(1+xi^2)", "sqrt(1+xi^2)", "exp(-xi^2/50)")
_X_FACTORS = ("1", "(2+sin(x))", "exp(cos(x))")


@st.composite
def mixed_parity_symbols(draw):
    """Sums of c * a(x) * A(xi) * B(eta), A and B each even, odd or neither."""
    terms = draw(st.lists(st.tuples(st.sampled_from(("1", "1.5", "2", "3")),
                                    st.sampled_from(_X_FACTORS),
                                    st.sampled_from(_XI_BLOCKS),
                                    st.sampled_from(_XI_BLOCKS)), min_size=1, max_size=3))
    return " + ".join(f"{c}*{a}*({u})*({w.replace('xi', 'eta')})" for c, a, u, w in terms)


@settings(max_examples=25, deadline=None)
@given(expr=mixed_parity_symbols(), level=st.integers(8, 16),
       deriv=st.sampled_from(list(itertools.product((0, 1), repeat=3))),
       seed=st.integers(0, 99))
def test_random_mixed_parity_symbols_match_the_unbatched_complex_formula(expr, level, deriv, seed):
    quad = KernelQuadrature(symbol_from_expr(expr, SymbolClassParams(3.0)),
                            float(level))
    rng = np.random.default_rng(seed)
    us, vs = rng.uniform(-L / 4, L / 4, size=(2, 12))
    _assert_matches_reference(quad, rng.uniform(0, L), us, vs, deriv)


def _quadrants(parity: dict) -> int:
    return 4 >> sum(p is not None for p in parity.values())


@st.composite
def x_expansions(draw):
    """Sums of 1-3 products a(x) b(xi, eta), from the expansion generator's
    x-factors and frequency blocks."""
    terms = [draw(st.sampled_from(_ATOMS)).format(k=draw(st.sampled_from("12")))
             + f"*({draw(smooth_symbols(1))})" for _ in range(draw(st.integers(1, 3)))]
    return "+".join(terms)


@settings(max_examples=20, deadline=None)
@given(expr=x_expansions(), level=st.integers(8, 16), seed=st.integers(0, 99))
def test_x_terms_match_sigma_frozen_at_each_x(expr, level, seed):
    # + (x-x)*cos(x*xi) leaves the values alone (a literal 0 factor would fold
    # at parse time) but has no x-expansion, so the same sigma goes through
    # the frozen path, with d_x sigma at alpha = 1
    quad = KernelQuadrature(symbol_from_expr(expr, SymbolClassParams(2.0)), float(level))
    frozen = KernelQuadrature(symbol_from_expr(expr + "+(x-x)*cos(x*xi)", SymbolClassParams(2.0)),
                              float(level))
    assert quad.account()["x_terms"] >= 1 and "no_x_expansion" in frozen.account()
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, L, size=3)[rng.integers(0, 3, size=16)]
    us, vs = rng.uniform(-L / 4, L / 4, size=(2, 16))
    for deriv in itertools.product((0, 1), repeat=3):
        want = frozen.values(xs, us, vs, deriv=deriv)
        got = quad.values(xs, us, vs, deriv=deriv)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (expr, deriv)


def test_an_x_factor_not_finite_at_a_requested_x_is_a_domain_error():
    quad = KernelQuadrature(symbol_from_expr("log(x)*sqrt(1+xi^2+eta^2)", SymbolClassParams(1.0)),
                            16.0)
    assert np.all(np.isfinite(quad.values(1.0, [0.5], [1.0])))
    with np.errstate(divide="ignore"), pytest.raises(DomainError, match="at x = 0"):
        quad.values(np.array([1.0, 0.0]), [0.5, 0.5], [1.0, 1.0])


@pytest.mark.parametrize("expr, quadrants", [("sqrt1", 1), ("xi", 1), ("(xi+xi^2)*cos(eta)", 2),
                                             ("sin(xi+eta)", 4),
                                             pytest.param(THREE_TERMS, 3, id="three_terms-3")])
def test_values_evaluate_sigma_on_the_quadrants_its_parity_leaves_open(monkeypatch, expr,
                                                                       quadrants):
    # xi is odd in xi and even in eta, so its +xi, +eta quadrant fixes the
    # other three; a symbol without parity streams all four; each frequency
    # factor of an x-expansion is read by its own parity, so THREE_TERMS
    # takes one quadrant per term where sigma as a whole would take four
    import bilop.kernel as kernel

    sig = (catalog_symbol(expr) if expr in ("sqrt1", "xi")
           else symbol_from_expr(expr, SymbolClassParams(2.0)))
    points, blocks = [], kernel._blocks

    def counted(ev, *args):
        def spy(x, xi, eta):
            points.append(np.broadcast(x, xi, eta).size)
            return ev(x, xi, eta)
        return blocks(spy, *args)

    monkeypatch.setattr(kernel, "_blocks", counted)
    quad = KernelQuadrature(sig, 16.0)
    rows = quad.axis.size // 2 + 1
    assert sum(_quadrants(p) for p in quad.account()["term_parity"]) == quadrants
    for deriv in itertools.product((0, 1), repeat=3):
        points.clear()
        quad.values(np.array([0.3, 1.1]), [0.5, -1.0], [1.0, 0.2], deriv=deriv)
        assert sum(points) == quadrants * rows ** 2, deriv


@pytest.mark.parametrize("args, account", [
    (["fit-decay", "--symbol", "theta_sqrt1", "--deriv", "1,0,0", "--level", "32",
      "--levels", "32"],
     {"x_terms": 1, "term_parity": [{"xi": 1, "eta": 1}]}),
    (["certify-czk", "--symbol", "bad_xieta", "--samples", "200", "--level", "32"],
     {"x_terms": 1, "term_parity": [{"xi": -1, "eta": -1}]}),
    (["kernel-slice", "--symbol", THREE_TERMS, "--m", "1", "--level", "32"],
     {"x_terms": 3, "term_parity": [{"xi": 1, "eta": 1}, {"xi": -1, "eta": -1},
                                    {"xi": 1, "eta": 1}]}),
    (["kernel-slice", "--symbol", "sin(xi+eta)", "--m", "0", "--level", "32"],
     {"x_terms": 1, "term_parity": [{"xi": None, "eta": None}]}),
    (["fit-decay", "--symbol", "cos(x*xi)+sqrt(1+xi^2+eta^2)", "--deriv", "1,0,0",
      "--level", "32", "--levels", "32"],
     {"no_x_expansion": "a factor mixes x with a frequency",
      "sigma_parity": {"xi": 1, "eta": 1}, "dx_sigma_parity": {"xi": 1, "eta": 1}}),
], ids=["fit-decay", "certify-czk", "kernel-slice-3-terms", "kernel-slice", "fit-decay-frozen"])
def test_kernel_envelopes_record_the_parities_the_quadrature_used(tmp_path, capsys, args,
                                                                  account):
    cli_main([*args, "--out-dir", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["data"]["quadrature"] == account


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, deriv, samples", [("theta_sqrt1", (1, 0, 0), None),
                                                  ("sqrt1", (0, 0, 0), 630)],
                         ids=["theta_sqrt1-dx", "certification-batch"])
def test_values_memory_is_bounded_at_level_256(name, deriv, samples):
    # L = 4097 frequencies a side: a dense symbol matrix alone is 134 MB
    quad = KernelQuadrature(catalog_symbol(name), 256.0)
    assert quad.axis.size == 4097
    rng = np.random.default_rng(3)
    if samples is None:  # a decay fit's batch: 11 radii x 8 directions
        us, vs = rng.uniform(-L / 8, L / 8, size=(2, 88))
    else:  # certification's batch: each sample with its y- and z-steps
        u, v = rng.uniform(-L / 16, L / 16, size=(2, samples))
        h = rng.uniform(0.001, 0.01, size=samples)
        us = np.stack([u, u - h, u + h, u, u], axis=1).ravel()
        vs = np.stack([v, v, v, v - h, v + h], axis=1).ravel()
        assert us.size == 3150
    peak = _traced_peak_mb(lambda: quad.values(0.4, us, vs, deriv=deriv))
    assert peak < 32, f"{peak:.1f} MB"


@pytest.mark.parametrize("expr", ["1/(xi-250)", "1/(eta-250)"])
def test_non_finite_values_in_the_outer_rows_or_columns_are_a_domain_error(expr):
    # at level 128 the box reaches |xi|, |eta| = 256: the pole at 250 lies in
    # a late row block (xi) or in the outer columns of every block (eta)
    sig = symbol_from_expr(expr, SymbolClassParams(-1.0))
    quad = KernelQuadrature(sig, LEVEL)
    assert 250 / quad.spacing // ROW_BLOCK >= 3
    grid = Grid(dim=1, points_per_axis=64)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    with np.errstate(divide="ignore"):
        with pytest.raises(DomainError, match="not real and finite"):
            quad.values(0.0, [0.3, 1.0], [0.5, -2.0])
        with pytest.raises(DomainError):
            fit_kernel_decay(sig)
        with pytest.raises(DomainError):
            certify_cz_commutator_kernel(sig, a, samples=200)


def test_values_reject_x_derivative_order_before_evaluating():
    def fn(x, xi, eta):
        raise AssertionError("symbol evaluated before the order check")

    sigma = symbol_from_expr("xi", SymbolClassParams(0.0), name="never")
    sigma.fn = fn
    quad = KernelQuadrature(sigma, LEVEL)
    with pytest.raises(InvalidInputError):
        quad.values(0.0, [1.0], [2.0], deriv=(2, 0, 0))


def test_values_reject_a_complex_symbol():
    # the AST is real and even; the evaluator put in its place is not
    sigma = symbol_from_expr("sqrt(1+xi^2+eta^2)", SymbolClassParams(1.0), name="cplx")
    sigma.fn = lambda x, xi, eta: np.sqrt(1 + xi ** 2 + eta ** 2) * np.exp(1j * (xi - 2 * eta) / 7)
    quad = KernelQuadrature(sigma, 16.0)
    with pytest.raises(DomainError, match="'cplx'"):
        quad.values(0.0, [1.0], [2.0])


@pytest.mark.parametrize("name, deriv", [("sqrt1", (0, 0, 0)), ("theta_sqrt1", (1, 0, 0))])
def test_batched_decay_maxima_match_one_call_per_radius(name, deriv):
    sig = catalog_symbol(name)
    rep = fit_kernel_decay(sig, deriv=deriv, level=32.0, stability_levels=(32.0,))
    quad = KernelQuadrature(sig, 32.0)
    for r, got in zip(rep.radii, rep.maxima):
        th = np.linspace(0, 2 * np.pi, 8, endpoint=False) + 0.1
        norm = np.abs(np.cos(th)) + np.abs(np.sin(th))
        want = np.max(np.abs(quad.values(0.0, r * np.cos(th) / norm,
                                         r * np.sin(th) / norm, deriv=deriv)))
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------- non-finite symbols


def test_non_finite_symbol_is_a_domain_error_in_every_kernel_check():
    # 1/xi is infinite on the xi = 0 line of the quadrature box; the NaN
    # values must not vanish into a maximum or an "identically zero" verdict
    sig = symbol_from_expr("1/xi", SymbolClassParams(-1.0))
    grid = Grid(dim=1, points_per_axis=64)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    with pytest.raises(DomainError):
        kernel_slice(sig, LEVEL, 0.0, [(1.0, 2.0)])
    with pytest.raises(DomainError):
        fit_kernel_decay(sig)
    with pytest.raises(DomainError):
        certify_cz_commutator_kernel(sig, a, samples=200)


@pytest.mark.parametrize("args", [["certify-czk", "--samples", "200"], ["kernel-slice"],
                                  ["fit-decay"]], ids=lambda a: a[0])
def test_cli_kernel_checks_exit_1_on_non_finite_symbol(tmp_path, args):
    assert cli_main([*args, "--symbol", "1/xi", "--out-dir", str(tmp_path)]) == 1


# ---------------------------------------------------------------- kernel_at


def test_identity_symbol_kernel_factorizes():
    # sigma = 1: K(x,y,z) = F(x-y) F(x-z) with F the 1D cutoff transform
    one = catalog_symbol("one")
    F = lambda u: quadrature_1d(lambda xi: np.ones_like(xi), u)
    for (x, y, z) in [(0.0, 0.7, 5.9), (1.0, 1.5, 0.3), (3.0, 2.6, 3.5)]:
        got = kernel_at(one, LEVEL, x, y, z)
        want = F(wrap(x - y)) * F(wrap(x - z))
        assert abs(got - want) < 1e-8


def test_multiplier_product_symbol_kernel_factorizes():
    node = parse_symbol_expr("1 / (1 + xi^2) * (1 / (1 + eta^2))")
    sig = symbol_from_expr(node, SymbolClassParams(0.0, 1.0, 0.0))
    k = lambda u: quadrature_1d(lambda xi: 1.0 / (1.0 + xi**2), u)
    for (x, y, z) in [(0.0, 0.9, 4.8), (2.0, 1.1, 2.9)]:
        got = kernel_at(sig, LEVEL, x, y, z)
        want = k(wrap(x - y)) * k(wrap(x - z))
        assert abs(got - want) < 1e-8 * abs(want)


def test_kernel_translation_invariance_on_torus():
    # x-independent symbols give convolution kernels; shifting all three
    # points together, even across the period seam, changes nothing
    sig = catalog_symbol("sqrt1")
    base = kernel_at(sig, LEVEL, 0.3, 1.0, 2.2)
    shifted = kernel_at(sig, LEVEL, 2.0, 2.7, 3.9)
    wrapped = kernel_at(sig, LEVEL, 5.3, 6.0, 2.2 + 5.0)
    assert abs(shifted - base) < 1e-10 * abs(base)
    assert abs(wrapped - base) < 1e-10 * abs(base)


def test_kernel_at_rejects_only_the_triple_diagonal():
    # the truncated kernel is finite whenever (y,z) != (x,x); the singular
    # point is where both separations vanish, period wraps included
    sig = catalog_symbol("sqrt1")
    with pytest.raises(DomainError):
        kernel_at(sig, LEVEL, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernel_at(sig, LEVEL, 1.0 + L, 1.0, 1.0)
    assert np.isfinite(kernel_at(sig, LEVEL, 1.0, 1.0, 2.0))
    assert np.isfinite(kernel_at(sig, LEVEL, 1.0, 2.0, 2.0))


def test_kernel_quadrature_guard_trips_on_coarse_spacing():
    sig = catalog_symbol("sqrt1")
    with pytest.raises(ToleranceError):
        kernel_at(sig, LEVEL, 0.0, 1.0, 2.0, spacing=4.0)
    # guard can be waived explicitly
    v = kernel_at(sig, LEVEL, 0.0, 1.0, 2.0, spacing=4.0, guard=False)
    assert np.isfinite(v)


def test_kernel_slice_matches_pointwise_values():
    sig = catalog_symbol("sqrt1")
    offsets = [(1.0, 2.0), (0.5, 5.8), (2.5, 4.0)]
    sl = kernel_slice(sig, LEVEL, 0.0, offsets)
    assert sl.offsets == tuple(offsets)
    for (y, z), v in zip(offsets, sl.values):
        assert abs(v - kernel_at(sig, LEVEL, 0.0, y, z)) < 1e-12


def test_kernel_slice_rejects_diagonal_offsets():
    sig = catalog_symbol("sqrt1")
    with pytest.raises(DomainError):
        kernel_slice(sig, LEVEL, 1.0, [(2.0, 3.0), (1.0, 1.0)])


# ---------------------------------------------------------------- decay fits


def test_default_radii_span_the_powerlaw_window():
    radii = default_radii(L)
    assert len(radii) == 11
    assert radii[0] == pytest.approx(L / 256)
    assert radii[-1] == pytest.approx(L / 8)
    assert np.all(np.diff(radii) > 0)


def test_kernel_decay_fit_for_order_one_symbol():
    rep = fit_kernel_decay(catalog_symbol("sqrt1"))
    assert rep.verdict == "BOUNDED"
    assert rep.target == -3.0
    assert rep.exponent_fit <= -3.0 + 0.3
    assert rep.r_squared >= 0.9
    assert rep.stability_ratio < 2.0
    assert set(rep.stability) == {32.0, 64.0, 128.0}


def test_kernel_gradient_decay_gains_one_order():
    rep = fit_kernel_decay(catalog_symbol("sqrt1"), deriv=(0, 1, 0))
    assert rep.target == -4.0
    assert rep.verdict == "BOUNDED"
    assert rep.exponent_fit <= -4.0 + 0.3


def test_decay_fit_radii_must_stay_off_diagonal():
    with pytest.raises(InvalidInputError):
        fit_kernel_decay(catalog_symbol("sqrt1"), radii=(0.0, 0.1))
    # every kernel path builds a KernelQuadrature, which refuses a level <= 0
    for read in (lambda: fit_kernel_decay(catalog_symbol("sqrt1"), level=0.0),
                 lambda: kernel_slice(catalog_symbol("sqrt1"), -1.0, 0.0, [(1.0, 2.0)])):
        with pytest.raises(InvalidInputError, match="truncation level must be positive"):
            read()


# ------------------------------------------------------------- certificates


def test_commutator_kernel_certificate_for_lipschitz_multiplier():
    grid = Grid(dim=1, points_per_axis=64)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    cert = certify_cz_commutator_kernel(catalog_symbol("sqrt1"), a, slot=1)
    assert cert.verdict == "BOUNDED"
    assert len(cert.octaves) == 3
    assert max(cert.size_sup) / min(cert.size_sup) < 2.0
    assert max(cert.grad_sup) / min(cert.grad_sup) < 2.0


def test_constant_multiplier_certifies_trivially():
    # [T, const] = 0, so every sampled sup is zero and the bound is vacuous
    grid = Grid(dim=1, points_per_axis=64)
    a = GridFunction(grid, np.full(64, 1.5))
    cert = certify_cz_commutator_kernel(catalog_symbol("sqrt1"), a, samples=210)
    assert cert.verdict == "BOUNDED"
    assert max(cert.size_sup) < 1e-14
    assert max(cert.grad_sup) < 1e-14


def test_certificate_scales_linearly_in_multiplier():
    # the commutator kernel is (a(x-u) - a(x)) K(x,y,z): doubling a doubles
    # every sampled sup exactly, since the sample set is seed-pinned
    grid = Grid(dim=1, points_per_axis=64)
    x = grid.nodes_1d()
    a = GridFunction(grid, np.sin(x))
    a2 = GridFunction(grid, 2 * np.sin(x))
    c1 = certify_cz_commutator_kernel(catalog_symbol("sqrt1"), a, samples=210, seed=3)
    c2 = certify_cz_commutator_kernel(catalog_symbol("sqrt1"), a2, samples=210, seed=3)
    assert np.allclose(np.array(c2.size_sup), 2 * np.array(c1.size_sup), rtol=1e-12)
    assert np.allclose(np.array(c2.grad_sup), 2 * np.array(c1.grad_sup), rtol=1e-12)


def test_x_dependent_certificate_path_matches_the_shared_kernel_path():
    # +(x-x) makes the AST depend on x but not its values: the per-base-point
    # kernels and the two-step x-gradient must give sqrt1's sups
    grid = Grid(dim=1, points_per_axis=64)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    sig = symbol_from_expr("sqrt(1+xi^2+eta^2)+(x-x)", SymbolClassParams(1.0))
    assert not sig.x_independent
    got = certify_cz_commutator_kernel(sig, a, samples=200, level=32.0)
    want = certify_cz_commutator_kernel(catalog_symbol("sqrt1"), a, samples=200, level=32.0)
    assert got.verdict == want.verdict
    assert np.allclose(got.size_sup, want.size_sup, rtol=1e-12, atol=0)
    assert np.allclose(got.grad_sup, want.grad_sup, rtol=1e-12, atol=0)


def reference_certificate(sigma, a, slot, samples, level, seed=0, octave_count=3):
    """The per-octave certification loop: a weight closure that interpolates
    a twice per call (14 times per base point), a kernel batch per octave
    and base point, and a separate x-gradient formula for an x-independent
    symbol.  Returns the (size_sup, grad_sup) lists."""
    period = a.grid.period
    base_radius = period / 256
    rng = np.random.default_rng(seed)
    quad = KernelQuadrature(sigma, level)
    per_octave = samples // octave_count
    xpool = rng.uniform(0, period, size=8)

    def weight(xv, us, vs):
        ax = eval_at(a, np.asarray(xv) % period)
        off = us if slot == 1 else vs
        return eval_at(a, (xv - off) % period) - ax

    def kern(xv, us, vs):
        return quad.values(float(xv), us, vs)

    size_sup, grad_sup = [], []
    for o in range(octave_count):
        lo, hi = base_radius * 2 ** o, base_radius * 2 ** (o + 1)
        r = np.exp(rng.uniform(np.log(lo), np.log(hi), size=per_octave))
        th = rng.uniform(0, 2 * np.pi, size=per_octave)
        cu, sv = np.cos(th), np.sin(th)
        norm = np.abs(cu) + np.abs(sv)
        us, vs = r * cu / norm, r * sv / norm
        S = np.abs(us) + np.abs(vs) + np.abs(wrap(us - vs))
        h = S / 8
        hx = lo / 8
        batch = (np.stack([us, us - h, us + h, us, us], axis=1).ravel(),
                 np.stack([vs, vs, vs, vs - h, vs + h], axis=1).ravel())
        shared = kern(0.0, *batch).reshape(-1, 5).T if sigma.x_independent else None
        best_size, best_grad = 0.0, 0.0
        for xv in xpool:
            k0, kyl, kyh, kzl, kzh = (kern(xv, *batch).reshape(-1, 5).T if shared is None
                                      else shared)
            vals = weight(xv, us, vs) * k0
            gy = (weight(xv, us - h, vs) * kyl - weight(xv, us + h, vs) * kyh) / (2 * h)
            gz = (weight(xv, us, vs - h) * kzl - weight(xv, us, vs + h) * kzh) / (2 * h)
            if shared is not None:
                gx = (weight(xv + hx, us, vs) - weight(xv - hx, us, vs)) * k0 / (2 * hx)
            else:
                gx = (weight(xv + hx, us, vs) * kern(xv + hx, us, vs)
                      - weight(xv - hx, us, vs) * kern(xv - hx, us, vs)) / (2 * hx)
            gnorm = np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2 + np.abs(gz) ** 2)
            best_size = max(best_size, float(np.max(np.abs(vals) * S ** 2)))
            best_grad = max(best_grad, float(np.max(gnorm * S ** 3)))
        size_sup.append(best_size)
        grad_sup.append(best_grad)
    return size_sup, grad_sup


@pytest.mark.parametrize("name, level", [("sqrt1", 128.0), ("theta_sqrt1", 64.0)])
@pytest.mark.parametrize("mult", ["sinx", "bump"])
def test_batched_certificate_matches_the_per_octave_loop(name, level, mult):
    a = multiplier_function(mult, Grid(dim=1, points_per_axis=64))
    sigma = catalog_symbol(name)
    for slot in (1, 2):
        cert = certify_cz_commutator_kernel(sigma, a, slot=slot, samples=200, level=level)
        size_sup, grad_sup = reference_certificate(sigma, a, slot, 200, level)
        assert np.allclose(cert.size_sup, size_sup, rtol=1e-12, atol=0), slot
        assert np.allclose(cert.grad_sup, grad_sup, rtol=1e-12, atol=0), slot


@pytest.mark.parametrize("name, level, streams", [("sqrt1", 128.0, 1), ("theta_sqrt1", 64.0, 1),
                                                  ("cos(x*xi)", 32.0, 8 * (1 + 2 * 3))])
def test_certificate_makes_one_quadrature_batch(monkeypatch, name, level, streams):
    # every base point, octave and x-step in one values call: one stream of
    # the frequency factor of an x-expansion, or one per distinct x (8 base
    # points, each with an x-step up and down per octave) for a symbol with
    # none; and one interpolation of a per base point
    import bilop.kernel as kernel

    calls = {"values": 0, "streams": 0, "eval_at": 0}
    values, stream, interp = KernelQuadrature.values, KernelQuadrature._stream, kernel.eval_at

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(KernelQuadrature, "values", counted("values", values))
    monkeypatch.setattr(KernelQuadrature, "_stream", counted("streams", stream))
    monkeypatch.setattr(kernel, "eval_at", counted("eval_at", interp))
    a = multiplier_function("sinx", Grid(dim=1, points_per_axis=64))
    sigma = catalog_symbol(name) if name != "cos(x*xi)" else symbol_from_expr(
        name, SymbolClassParams(0.0))
    certify_cz_commutator_kernel(sigma, a, samples=200, level=level)
    assert calls == {"values": 1, "streams": streams, "eval_at": 8}


def test_certificate_slot_validation():
    grid = Grid(dim=1, points_per_axis=64)
    a = GridFunction(grid, np.sin(grid.nodes_1d()))
    with pytest.raises(InvalidInputError):
        certify_cz_commutator_kernel(catalog_symbol("sqrt1"), a, slot=3)
