"""Dyadic mean-oscillation estimates."""

import numpy as np
import pytest

from bilop.analysis import bmo_norm
from bilop.errors import InvalidInputError
from bilop.grid import Grid, GridFunction

L = 2 * np.pi


def test_aligned_step_by_hand():
    # +1 on the first half, -1 on the second: the whole-period box sees mean 0
    # and oscillation 1; every dyadic sub-box is constant, so oscillation 0
    grid = Grid(dim=1, points_per_axis=16)
    u = GridFunction(grid, np.where(np.arange(16) < 8, 1.0, -1.0))
    rep = bmo_norm(u)
    assert rep.scales == (0, 1, 2, 3)
    assert rep.per_scale[0] == pytest.approx(1.0)
    assert rep.per_scale[1:] == (0.0, 0.0, 0.0)
    assert rep.cumulative == (1.0, 1.0, 1.0, 1.0)
    assert rep.value == pytest.approx(1.0)


def test_sawtooth_by_hand():
    # linear values inside every dyadic box: with m points the mean absolute
    # deviation is dx * mean|j - (m-1)/2|, giving dx * m/4 exactly
    grid = Grid(dim=1, points_per_axis=16)
    dx = grid.spacing
    u = GridFunction(grid, grid.nodes_1d())
    rep = bmo_norm(u)
    assert rep.per_scale == pytest.approx((4 * dx, 2 * dx, dx, 0.5 * dx))
    assert rep.value == pytest.approx(4 * dx)


def test_constants_score_zero_at_every_scale():
    grid = Grid(dim=1, points_per_axis=64)
    u = GridFunction(grid, np.full(64, 3.7))
    rep = bmo_norm(u)
    assert rep.value < 1e-14
    assert all(v < 1e-14 for v in rep.per_scale)


def test_cumulative_is_monotone_and_matches_value():
    grid = Grid(dim=1, points_per_axis=128)
    rng = np.random.default_rng(2)
    u = GridFunction(grid, rng.standard_normal(128))
    rep = bmo_norm(u)
    assert np.all(np.diff(rep.cumulative) >= 0)
    assert rep.value == rep.cumulative[-1]
    assert rep.value == max(rep.per_scale)


def test_smooth_oscillation_plateaus_by_coarse_scales():
    # sin's oscillation lives at scale ~ its wavelength: the running max
    # stops growing after a few levels and fine boxes contribute nothing new
    grid = Grid(dim=1, points_per_axis=256)
    u = GridFunction(grid, np.sin(grid.nodes_1d()))
    rep = bmo_norm(u)
    assert rep.cumulative[0] == rep.value  # the whole-period box dominates
    assert rep.per_scale[0] == pytest.approx(2 / np.pi, abs=1e-3)
    assert rep.fine_scale_tail(3) < 0.05
    # the per-scale profile decays geometrically once boxes resolve the wave
    assert rep.per_scale[-1] < rep.per_scale[3] / 10


def test_alternating_signs_oscillate_at_every_scale():
    # the rough-but-bounded signature: a flat per-scale profile down to the
    # finest boxes, in contrast to the vanishing tail of smooth inputs
    grid = Grid(dim=1, points_per_axis=256)
    u = GridFunction(grid, (-1.0) ** np.arange(256))
    rep = bmo_norm(u)
    assert all(v == pytest.approx(1.0) for v in rep.per_scale)
    assert rep.fine_scale_tail(3) == pytest.approx(1.0)


def test_oscillation_is_shift_and_offset_invariant():
    grid = Grid(dim=1, points_per_axis=128)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(128)
    base = bmo_norm(GridFunction(grid, vals)).value
    assert bmo_norm(GridFunction(grid, vals + 10.0)).value == pytest.approx(base)


def test_two_dimensional_boxes():
    # a half-plane step in 2D behaves like the 1D aligned step
    grid = Grid(dim=2, points_per_axis=16)
    xs, _ = grid.node_mesh()
    u = GridFunction(grid, np.where(xs < L / 2, 1.0, -1.0))
    rep = bmo_norm(u)
    assert rep.per_scale[0] == pytest.approx(1.0)
    assert rep.value == pytest.approx(1.0)
    assert rep.per_scale[1] == 0.0


def test_2d_oscillation_matches_direct_box_enumeration():
    grid = Grid(dim=2, points_per_axis=16)
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((16, 16))
    rep = bmo_norm(GridFunction(grid, vals), s_max=2)
    for s, got in zip(rep.scales, rep.per_scale):
        side = 16 // 2**s
        worst = 0.0
        for bi in range(2**s):
            for bj in range(2**s):
                box = vals[bi * side:(bi + 1) * side, bj * side:(bj + 1) * side]
                worst = max(worst, np.mean(np.abs(box - box.mean())))
        assert got == pytest.approx(worst), s


def test_depth_validation():
    grid = Grid(dim=1, points_per_axis=64)
    u = GridFunction(grid, np.sin(grid.nodes_1d()))
    with pytest.raises(InvalidInputError):
        bmo_norm(u, s_max=7)
    deepest = bmo_norm(u, s_max=6)  # one point per box: zero oscillation
    assert deepest.per_scale[-1] == 0.0
