"""Operator-level diagnostics: T(1) routes, weak boundedness, norm scans,
fractional Leibniz ratios, and the commutator smoothing contrast."""

import numpy as np
import pytest

import bilop.operator as operator_module
from bilop.analysis import (
    check_t1_conditions,
    default_scales,
    holder_r,
    kato_ponce_check,
    norm_scan,
    smoothing_contrast,
    wbp_scan,
)
from bilop.errors import DomainError, InvalidInputError
from bilop.grid import Grid, GridFunction
from bilop.operator import commutator, make_operator
from bilop.symbols import SymbolClassParams, catalog_symbol, symbol_from_expr

L = 2 * np.pi


def sin_multiplier(grid):
    return GridFunction(grid, np.sin(grid.nodes_1d()))


# -------------------------------------------------------------- T(1) routes


def test_t1_closed_form_for_coordinate_symbol():
    # sigma = xi: [T,a]_1(1,1) = Da = -i a' = -i cos x for a = sin x
    grid = Grid(dim=1, points_per_axis=64)
    T = make_operator(catalog_symbol("xi"), grid)
    rep = check_t1_conditions(T, sin_multiplier(grid))
    assert rep.verdict == "PASS"
    assert rep.closed_form_error is not None
    assert rep.closed_form_error < 1e-10
    assert max(rep.route_gaps.values()) < 1e-10


@pytest.mark.parametrize("name", ["sqrt1", "theta_sqrt1"])
def test_t1_routes_agree_for_smooth_symbols(name):
    grid = Grid(dim=1, points_per_axis=64)
    T = make_operator(catalog_symbol(name), grid)
    rep = check_t1_conditions(T, sin_multiplier(grid))
    assert rep.verdict == "PASS"
    assert rep.closed_form_error is None
    assert rep.decomposition_available
    assert set(rep.route_gaps) == {"slot1", "slot2"}
    assert max(rep.route_gaps.values()) < 1e-8
    assert set(rep.bmo) == {"slot1", "slot2", "slot1_star1", "slot1_star2",
                            "slot2_star1", "slot2_star2"}
    assert all(np.isfinite(v.value) for v in rep.bmo.values())
    assert all(rep.plateaued.values())


def test_t1_identity_symbol_commutes_with_multiplication():
    # sigma = 1 makes T pointwise multiplication, so every commutator image
    # of constants vanishes and all oscillation readings sit at zero
    grid = Grid(dim=1, points_per_axis=64)
    T = make_operator(catalog_symbol("one"), grid)
    rep = check_t1_conditions(T, sin_multiplier(grid))
    assert rep.verdict == "PASS"
    assert max(v.value for v in rep.bmo.values()) < 1e-12


def test_t1_reports_grid_resolution():
    grid = Grid(dim=1, points_per_axis=32)
    rep = check_t1_conditions(make_operator(catalog_symbol("xi"), grid), sin_multiplier(grid))
    assert rep.grid_points == 32
    assert rep.symbol == "xi"


def test_t1_non_finite_decomposition_route_is_an_error_not_unavailable():
    # sigma is finite on the grid, but its [xi] FTC component (the integral
    # of d_xi sigma = sign(xi)/(2 sqrt|xi|) along t xi) is not: the route
    # must end the check, not be skipped
    grid = Grid(dim=1, points_per_axis=32)
    sigma = symbol_from_expr("sqrt(abs(xi))", SymbolClassParams(1.0))
    with pytest.raises(DomainError):
        check_t1_conditions(make_operator(sigma, grid), sin_multiplier(grid))


def test_t1_route_over_the_factor_budget_is_unavailable(monkeypatch):
    # T is factored first; the lowered budget refuses only the FTC components
    grid = Grid(dim=1, points_per_axis=32)
    T = make_operator(catalog_symbol("sqrt1"), grid)
    monkeypatch.setattr(operator_module, "FACTOR_BUDGET", 2 ** 6)
    rep = check_t1_conditions(T, sin_multiplier(grid))
    assert not rep.decomposition_available
    assert rep.route_gaps == {}
    assert rep.verdict == "PASS"


# --------------------------------------------------------- weak boundedness


def test_wbp_scales_are_dyadic_and_legal():
    scales = default_scales(L)
    assert len(scales) == 4
    assert scales[0] <= L / 8
    assert np.allclose(np.array(scales[:-1]) / np.array(scales[1:]), 2.0)


def test_wbp_commutator_of_coordinate_symbol_is_scale_flat():
    # [T,a]_1(f,g) = (Da) f g exactly, so the normalized pairing constant
    # converges to |a'(x0)| * int(phi^3) and the octave ratio hugs 1
    grid = Grid(dim=1, points_per_axis=512)
    T = make_operator(catalog_symbol("xi"), grid)
    C = commutator(T, 1, sin_multiplier(grid))
    rep = wbp_scan(C, config="common-center")
    assert rep.verdict == "PASS"
    assert rep.ratio < 1.05


def test_wbp_separated_config_is_vacuous_for_pointwise_commutator():
    # (Da) f g vanishes identically when f and the test bump have disjoint
    # supports, so the separated pairings are rounding dust next to the
    # common-center ones -- only a genuinely nonlocal kernel couples them
    grid = Grid(dim=1, points_per_axis=512)
    T = make_operator(catalog_symbol("xi"), grid)
    C = commutator(T, 1, sin_multiplier(grid))
    local = wbp_scan(C, config="common-center")
    split = wbp_scan(C, config="separated")
    # the smallest-scale bumps span ~8 grid points, so spectral aliasing
    # leaves ~1e-9 dust in the separated pairings; 1e-4 still cleanly
    # separates "identically zero in the continuum" from the local signal
    assert max(abs(p) for p in split.pairings) \
        < 1e-4 * max(abs(p) for p in local.pairings)


def test_wbp_identity_commutator_is_silent():
    grid = Grid(dim=1, points_per_axis=512)
    C = commutator(make_operator(catalog_symbol("one"), grid), 1, sin_multiplier(grid))
    rep = wbp_scan(C)
    assert rep.verdict == "PASS"
    assert max(rep.constants) < 1e-3
    assert rep.ratio == 1.0


def test_wbp_smooth_commutator_passes_separated_config():
    grid = Grid(dim=1, points_per_axis=512)
    C = commutator(make_operator(catalog_symbol("sqrt1"), grid), 1, sin_multiplier(grid))
    rep = wbp_scan(C, config="separated")
    assert rep.verdict == "PASS"
    assert rep.ratio < 4.0


def test_wbp_flags_unbounded_base_operator():
    # the order-1 operator itself concentrates like t^{-1} on shrinking bumps:
    # the same scan that clears the commutator must fail the base
    grid = Grid(dim=1, points_per_axis=512)
    rep = wbp_scan(make_operator(catalog_symbol("sqrt1"), grid))
    assert rep.verdict == "FAILED"
    assert rep.ratio > 4.0


def test_wbp_half_period_center_hits_parity_cancellation():
    # sin is odd around L/2 while the test bumps are even, so every pairing
    # collapses to rounding noise there; the default center dodges this
    grid = Grid(dim=1, points_per_axis=512)
    C = commutator(make_operator(catalog_symbol("sqrt1"), grid), 1, sin_multiplier(grid))
    degenerate = wbp_scan(C, center=L / 2)
    assert max(abs(p) for p in degenerate.pairings) < 1e-15
    healthy = wbp_scan(C)
    assert max(abs(p) for p in healthy.pairings) > 1e-9


def test_wbp_guards():
    grid = Grid(dim=1, points_per_axis=512)
    C = commutator(make_operator(catalog_symbol("xi"), grid), 1, sin_multiplier(grid))
    with pytest.raises(DomainError):
        wbp_scan(C, scales=(1.5, 0.75, 0.375))
    with pytest.raises(InvalidInputError):
        wbp_scan(C, scales=(0.4, 0.2))
    with pytest.raises(InvalidInputError):
        wbp_scan(C, config="diagonal")


# ---------------------------------------------------------------- norm scans


def test_holder_triple_arithmetic():
    assert holder_r(4, 4) == pytest.approx(2.0)
    assert holder_r(8, 8) == pytest.approx(4.0)
    assert holder_r(2, 2) == pytest.approx(1.0)


def test_norm_scan_plane_wave_ratios_have_closed_form():
    # on f = g = e^{ikx} the operator returns sigma(k,k) e^{2ikx}, and the
    # Hoelder-normalized ratio is exactly |sigma(k,k)| = sqrt(1 + 2k^2)
    grid = Grid(dim=1, points_per_axis=256)
    U = make_operator(catalog_symbol("sqrt1"), grid)
    ks = tuple(range(1, 33))
    rep = norm_scan(U, 4, 4, family="plane-wave", k_values=ks)
    want = np.sqrt(1.0 + 2.0 * np.array(ks, dtype=float) ** 2)
    assert np.allclose(rep.ratios, want, rtol=1e-10)
    assert rep.verdict == "GROWING"
    assert rep.slope > 0.8


def test_norm_scan_identity_symbol_is_flat():
    grid = Grid(dim=1, points_per_axis=256)
    rep = norm_scan(make_operator(catalog_symbol("one"), grid), 4, 4,
                    family="plane-wave", k_values=tuple(range(1, 17)))
    assert np.allclose(rep.ratios, 1.0, rtol=1e-10)
    assert rep.verdict == "BOUNDED"
    assert abs(rep.slope) < 0.01


def test_norm_scan_commutator_tames_growing_base():
    grid = Grid(dim=1, points_per_axis=256)
    ks = tuple(range(1, 33))
    base = norm_scan(make_operator(catalog_symbol("sqrt1"), grid), 4, 4, k_values=ks)
    C = commutator(make_operator(catalog_symbol("sqrt1"), grid), 1, sin_multiplier(grid))
    tamed = norm_scan(C, 4, 4, k_values=ks)
    assert base.verdict == "GROWING"
    assert base.slope > 0.8
    assert tamed.verdict == "BOUNDED"
    assert tamed.slope < 0.2
    assert tamed.max_min_ratio < 4.0


def test_norm_scan_reports_triple_and_family():
    grid = Grid(dim=1, points_per_axis=256)
    rep = norm_scan(make_operator(catalog_symbol("one"), grid), 8, 8,
                    family="random-trig", k_values=tuple(range(1, 9)))
    assert rep.triple == (8, 8, 4.0)
    assert rep.family == "random-trig"
    assert len(rep.ratios) == 8


def test_norm_scan_deterministic():
    grid = Grid(dim=1, points_per_axis=256)
    U = make_operator(catalog_symbol("sqrt1"), grid)
    ks = tuple(range(1, 9))
    a = norm_scan(U, 4, 4, family="random-trig", k_values=ks, seed=2)
    b = norm_scan(U, 4, 4, family="random-trig", k_values=ks, seed=2)
    assert a.ratios == b.ratios


# ------------------------------------------------------- fractional Leibniz


def test_kato_ponce_plane_wave_ratio_is_constant():
    # f = g = e^{ikx}: |D|^alpha (fg) has size (2k)^alpha against k^alpha + k^alpha
    # downstairs, so every ratio equals 2^(alpha-1) exactly
    grid = Grid(dim=1, points_per_axis=256)
    for alpha in (0.5, 1.0):
        rep = kato_ponce_check(alpha, 4, 4, grid, family="plane-wave",
                               k_values=tuple(range(1, 17)))
        assert np.allclose(rep.ratios, 2.0 ** (alpha - 1.0), rtol=1e-10)
        assert rep.verdict == "PASS"
        assert abs(rep.slope) < 0.01


@pytest.mark.parametrize("alpha,p,q,r", [(1.0, 4, 4, 2), (0.5, 8, 8, 4)])
def test_kato_ponce_bounded_on_modulated_bumps(alpha, p, q, r):
    # r is derived from 1/r = 1/p + 1/q and reported in the triple
    grid = Grid(dim=1, points_per_axis=256)
    rep = kato_ponce_check(alpha, p, q, grid, k_values=tuple(range(1, 33)))
    assert rep.verdict == "PASS"
    assert max(rep.ratios) <= rep.budget
    assert rep.slope < 0.2
    assert rep.alpha == alpha
    assert rep.triple == (p, q, float(r))


def test_kato_ponce_guards():
    grid = Grid(dim=1, points_per_axis=256)
    with pytest.raises(InvalidInputError):
        kato_ponce_check(-0.5, 4, 4, grid)
    with pytest.raises(InvalidInputError):  # no Holder r below p = 1
        kato_ponce_check(1.0, 0.5, 4, grid)


# ---------------------------------------------------------------- smoothing


def test_smoothing_contrast_separates_base_from_commutators():
    grid = Grid(dim=1, points_per_axis=256)
    rep = smoothing_contrast(catalog_symbol("sqrt1"), sin_multiplier(grid),
                             k_values=tuple(range(1, 33)))
    assert rep.verdict == "PASS"
    assert rep.base.verdict == "GROWING"
    assert rep.base.slope > 0.8
    for slot in (rep.slot1, rep.slot2):
        assert slot.verdict == "BOUNDED"
        assert slot.slope < 0.2
        assert slot.max_min_ratio < 4.0
