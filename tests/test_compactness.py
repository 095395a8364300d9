"""Paired equicontinuity/covering probes for commutator output families."""
import numpy as np
import pytest

from bilop.analysis import compactness_probe, compare_probes
from bilop.errors import InvalidInputError
from bilop.grid import Grid, GridFunction, lp_norm, translate
from bilop.operator import apply, commutator, make_operator
from bilop.symbols import catalog_symbol, multiplier_function


def iterated_commutator(symbol_name, b_name, n=256):
    grid = Grid(dim=1, points_per_axis=n)
    T = make_operator(catalog_symbol(symbol_name), grid)
    a = multiplier_function("sinx", grid)
    b = multiplier_function(b_name, grid)
    return commutator(T, 1, a, 1, b)


@pytest.fixture(scope="module")
def paired_probes():
    smooth = compactness_probe(iterated_commutator("sqrt1", "bump"),
                               "smooth", family_size=50)
    rough = compactness_probe(iterated_commutator("sqrt1", "step"),
                              "rough", family_size=50)
    return smooth, rough


def test_smooth_multiplier_dominates_rough_one(paired_probes):
    smooth, rough = paired_probes
    cmp = compare_probes(smooth, rough)
    assert cmp.verdict == "consistent with compactness"
    assert cmp.curve_dominated
    assert cmp.covering_halved


def test_equicontinuity_curves_separate_by_an_order_of_magnitude(paired_probes):
    smooth, rough = paired_probes
    assert all(s < r / 10 for s, r in
               zip(smooth.equicontinuity, rough.equicontinuity))


def test_shared_epsilon_covering_collapses_for_smooth_multiplier(paired_probes):
    smooth, rough = paired_probes
    cmp = compare_probes(smooth, rough)
    # at every shared scale the 50 smooth outputs fit in one ball while the
    # rough family stays spread out
    for frac, (n_smooth, n_rough) in cmp.shared_covering.items():
        assert n_smooth == 1, frac
        assert n_rough >= 15, frac
    assert cmp.shared_covering[0.2][1] >= 2 * cmp.shared_covering[0.2][0]


def test_per_probe_covering_hides_the_collapse(paired_probes):
    # measured against its own (tiny) max norm the smooth family looks just
    # as spread out as the rough one -- the motivation for comparing at a
    # shared epsilon scale
    smooth, _ = paired_probes
    assert smooth.covering[0.2] == 50
    cmp = compare_probes(smooth, _)
    assert cmp.shared_covering[0.2][0] == 1


def test_equicontinuity_curve_nondecreasing_in_shift(paired_probes):
    for probe in paired_probes:
        curve = probe.equicontinuity
        assert all(curve[i] <= curve[i + 1] + 1e-14
                   for i in range(len(curve) - 1))


def test_covering_count_nonincreasing_in_epsilon(paired_probes):
    for probe in paired_probes:
        assert probe.covering[0.5] <= probe.covering[0.2] <= probe.covering[0.1]


def test_probe_shifts_span_dyadic_range_to_eighth_period(paired_probes):
    smooth, _ = paired_probes
    assert smooth.shifts == (1, 2, 4, 8, 16, 32)
    assert smooth.family_size == 50
    assert len(smooth.output_norms) == 50
    assert len(smooth.outputs) == 50
    assert smooth.triple == (4.0, 4.0, 2.0)


def test_probe_curve_matches_direct_recomputation(paired_probes):
    # recompute sup_i ||u_i(.+h) - u_i||_2 from the stored outputs by hand
    smooth, _ = paired_probes
    for s, reported in zip(smooth.shifts, smooth.equicontinuity):
        worst = 0.0
        for u in smooth.outputs:
            moved = translate(u, s)
            worst = max(worst, lp_norm(type(u)(u.grid, moved.values - u.values), 2.0))
        assert worst == pytest.approx(reported, rel=1e-12)


def test_probe_norms_match_direct_recomputation(paired_probes):
    smooth, _ = paired_probes
    for u, reported in zip(smooth.outputs, smooth.output_norms):
        assert lp_norm(u, 2.0) == pytest.approx(reported, rel=1e-12)
    assert smooth.max_norm == pytest.approx(max(smooth.output_norms))


def test_2d_probe_matches_per_output_recomputation():
    # on a 2D grid the shift runs along both axes at once
    grid = Grid(dim=2, points_per_axis=16)
    x1, x2 = grid.node_mesh()
    T = make_operator(catalog_symbol("sqrt1", dim=2), grid)
    a = GridFunction(grid, np.sin(x1) * np.cos(x2))
    b = GridFunction(grid, np.exp(np.cos(x1 + x2)))
    probe = compactness_probe(commutator(T, 1, a, 1, b), "smooth", family_size=50,
                              mode_budget=4)
    assert probe.shifts == (1, 2)
    for u, reported in zip(probe.outputs, probe.output_norms):
        assert lp_norm(u, 2.0) == pytest.approx(reported, rel=1e-12)
    for s, reported in zip(probe.shifts, probe.equicontinuity):
        worst = max(lp_norm(GridFunction(grid, translate(u, (s, s)).values - u.values), 2.0)
                    for u in probe.outputs)
        assert worst == pytest.approx(reported, rel=1e-12)
    for frac, count in probe.covering.items():
        centers = []
        for u in probe.outputs:
            if all(lp_norm(GridFunction(grid, u.values - c.values), 2.0) > frac * probe.max_norm
                   for c in centers):
                centers.append(u)
        assert count == len(centers), frac


def test_identity_symbol_commutator_outputs_are_rounding_dust():
    # sigma = 1 makes T(bf,g) = b f g = b T(f,g) exactly, so the commutator
    # family is identically zero up to fft rounding
    grid = Grid(dim=1, points_per_axis=256)
    T = make_operator(catalog_symbol("one"), grid)
    b = multiplier_function("bump", grid)
    U = commutator(T, 1, b)
    probe = compactness_probe(U, "smooth", family_size=50)
    assert probe.max_norm < 1e-14
    assert max(probe.equicontinuity) < 1e-14


def test_probe_is_deterministic_per_seed():
    U = iterated_commutator("sqrt1", "bump")
    p1 = compactness_probe(U, "smooth", family_size=50, seed=7)
    p2 = compactness_probe(U, "smooth", family_size=50, seed=7)
    p3 = compactness_probe(U, "smooth", family_size=50, seed=8)
    assert p1.output_norms == p2.output_norms
    assert p1.equicontinuity == p2.equicontinuity
    assert p1.output_norms != p3.output_norms


def test_probe_inputs_are_unit_normalized():
    # outputs of the zero-smoothing identity symbol reproduce f*g, whose
    # L^2 norm is at most 1 by Holder when ||f||_4 = ||g||_4 = 1
    grid = Grid(dim=1, points_per_axis=256)
    T = make_operator(catalog_symbol("one"), grid)
    a = multiplier_function("sinx", grid)
    U = commutator(T, 1, a)

    probe = compactness_probe(U, "smooth", family_size=50)
    # |[T,a](f,g)| = |(a-a) f g| = 0; use the base operator for the bound
    base = compactness_probe(make_operator(catalog_symbol("one"), grid),
                             "smooth", family_size=50)
    assert base.max_norm <= 1.0 + 1e-12
    assert probe.max_norm < 1e-14


def test_small_family_rejected():
    U = iterated_commutator("sqrt1", "bump")
    with pytest.raises(InvalidInputError):
        compactness_probe(U, "smooth", family_size=10)


def test_comparison_requires_matching_probes():
    U = iterated_commutator("sqrt1", "bump")
    a = compactness_probe(U, "smooth", family_size=50)
    b = compactness_probe(U, "rough", family_size=50, shifts=(1, 2, 4))
    with pytest.raises(InvalidInputError):
        compare_probes(a, b)


def test_comparison_requires_carried_outputs():
    import dataclasses
    U = iterated_commutator("sqrt1", "bump")
    a = compactness_probe(U, "smooth", family_size=50)
    stripped = dataclasses.replace(a, outputs=())
    with pytest.raises(InvalidInputError):
        compare_probes(stripped, a)
