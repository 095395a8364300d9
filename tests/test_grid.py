"""Spectral grid layer: transforms, derivatives, norms, interpolation."""

import numpy as np
import pytest

from bilop.errors import InvalidExponentError, InvalidInputError
from bilop.grid import (
    Grid,
    GridFunction,
    eval_at,
    fft_forward,
    fft_inverse,
    fractional_derivative,
    lp_norm,
    lp_norms,
    phase_table,
    spectral_derivative,
    translate,
)


@pytest.fixture
def grid():
    return Grid(dim=1, points_per_axis=64)


@pytest.fixture
def grid2d():
    return Grid(dim=2, points_per_axis=16)


def random_function(grid, seed=0, complex_values=True):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    return GridFunction(grid, vals)


# ---------------------------------------------------------------- transforms


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (1, 256), (2, 16), (2, 32)])
def test_fft_round_trip(dim, n):
    grid = Grid(dim=dim, points_per_axis=n)
    f = random_function(grid, seed=3)
    back = fft_inverse(fft_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_odd_grid_rejected():
    # even point counts only: the unpaired mode makes odd multipliers ambiguous
    with pytest.raises(InvalidInputError):
        Grid(dim=1, points_per_axis=65)


def test_fft_single_mode_coefficient(grid):
    # e^{3ix} has exactly one unit coefficient, at frequency 3
    x = grid.nodes_1d()
    F = fft_forward(GridFunction(grid, np.exp(3j * x)))
    freqs = np.fft.fftfreq(64, d=1.0 / 64) * grid.freq_spacing
    hot = np.argmax(np.abs(F.coefficients))
    assert freqs[hot] == pytest.approx(3.0)
    others = np.delete(F.coefficients, hot)
    assert np.max(np.abs(others)) < 1e-13


def test_parseval_identity(grid):
    # coefficients carry the dx^dim quadrature weight (c_k ~ integral), so
    # int f conj(g) = (1/L) sum c_k conj(d_k)
    f = random_function(grid, seed=1)
    g = random_function(grid, seed=2)
    L = grid.period
    physical = (L / 64) * np.sum(f.values * np.conj(g.values))
    F, G = fft_forward(f), fft_forward(g)
    spectral = np.sum(F.coefficients * np.conj(G.coefficients)) / L
    assert abs(physical - spectral) < 1e-10 * max(1.0, abs(physical))


def test_parseval_identity_2d(grid2d):
    f = random_function(grid2d, seed=5)
    L = grid2d.period
    physical = (L / 16) ** 2 * np.sum(np.abs(f.values) ** 2)
    spectral = np.sum(np.abs(fft_forward(f).coefficients) ** 2) / L**2
    assert abs(physical - spectral) < 1e-10 * physical


# --------------------------------------------------------------- derivatives


def test_derivative_of_sin(grid):
    # D = -i d/dx, so D sin = -i cos
    x = grid.nodes_1d()
    d = spectral_derivative(GridFunction(grid, np.sin(x)))
    assert np.max(np.abs(d.values + 1j * np.cos(x))) < 1e-12


def test_derivative_of_exponential_mode(grid):
    # e^{5ix} is an eigenfunction of D with eigenvalue 5
    x = grid.nodes_1d()
    d = spectral_derivative(GridFunction(grid, np.exp(5j * x)))
    assert np.max(np.abs(d.values - 5 * np.exp(5j * x))) < 1e-12


def test_derivative_axis_selection(grid2d):
    xs, ys = grid2d.node_mesh()
    f = GridFunction(grid2d, np.exp(1j * (xs + 2 * ys)))
    d0 = spectral_derivative(f, axis=0)
    d1 = spectral_derivative(f, axis=1)
    assert np.max(np.abs(d0.values - f.values)) < 1e-12
    assert np.max(np.abs(d1.values - 2 * f.values)) < 1e-12


def test_derivative_zeroes_unpaired_mode():
    # the lone -N/2 mode has no positive partner; an odd multiplier must drop it
    g = Grid(dim=1, points_per_axis=16)
    x = g.nodes_1d()
    d = spectral_derivative(GridFunction(g, np.cos(8 * x)))
    assert np.max(np.abs(d.values)) < 1e-13


def test_fractional_derivative_single_mode(grid):
    # |D|^alpha acts on e^{ikx} as |k|^alpha
    x = grid.nodes_1d()
    for alpha in (0.5, 1.0, 1.7):
        out = fractional_derivative(GridFunction(grid, np.exp(3j * x)), alpha)
        assert np.max(np.abs(out.values - 3.0**alpha * np.exp(3j * x))) < 1e-12


def test_fractional_derivative_alpha_zero_is_identity(grid):
    f = random_function(grid, seed=9)
    out = fractional_derivative(f, 0.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_fractional_matches_derivative_on_positive_modes(grid):
    # on positive frequencies |D|^1 coincides with D = -i d/dx
    x = grid.nodes_1d()
    f = GridFunction(grid, 2 * np.exp(2j * x) + 0.5 * np.exp(7j * x))
    frac = fractional_derivative(f, 1.0)
    classical = spectral_derivative(f)
    assert np.max(np.abs(frac.values - classical.values)) < 1e-12


# ------------------------------------------------------- translation / norms


def test_translate_is_exact_forward_shift(grid):
    x = grid.nodes_1d()
    f = GridFunction(grid, np.sin(x))
    t = translate(f, 4)
    assert np.max(np.abs(t.values - np.sin(x + 4 * grid.spacing))) < 1e-14


def test_translate_round_trip(grid):
    f = random_function(grid, seed=4)
    back = translate(translate(f, 11), -11)
    assert np.array_equal(back.values, f.values)


def test_translate_2d_shifts_each_axis(grid2d):
    f = random_function(grid2d, seed=6)
    t = translate(f, (3, -2))
    assert np.array_equal(t.values, np.roll(f.values, shift=(-3, 2), axis=(0, 1)))


def test_translate_rejects_wrong_arity(grid2d):
    f = random_function(grid2d)
    with pytest.raises(InvalidInputError):
        translate(f, (1,))


def test_lp_norm_riemann_convention(grid):
    x = grid.nodes_1d()
    f = GridFunction(grid, np.sin(x))
    assert lp_norm(f, 2) == pytest.approx(np.sqrt(np.pi), abs=1e-12)
    assert lp_norm(f, np.inf) == pytest.approx(1.0)
    # int |sin| over a period = 4; trapezoidal-on-nodes converges at N=512
    fine = Grid(dim=1, points_per_axis=512)
    xf = fine.nodes_1d()
    assert lp_norm(GridFunction(fine, np.sin(xf)), 1) == pytest.approx(4.0, abs=1e-3)


def test_lp_norm_constant(grid):
    f = GridFunction(grid, np.full(64, 3.0))
    L = grid.period
    assert lp_norm(f, 4) == pytest.approx(3.0 * L**0.25, rel=1e-12)
    assert lp_norm(f, np.inf) == pytest.approx(3.0)


def test_lp_norm_rejects_exponent_below_one(grid):
    f = random_function(grid)
    with pytest.raises(InvalidExponentError):
        lp_norm(f, 0.5)


EXPONENTS = [1, 2, 3.5, 4, np.inf]


def reference_lp_norm(f, p):
    # the single-function formula lp_norm had before it delegated to lp_norms
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(f.values)))
    p = float(p)
    g = f.grid
    return float((np.sum(np.abs(f.values) ** p) * g.spacing ** g.dim) ** (1.0 / p))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_lp_norm_keeps_the_single_function_formula(dim, n, p):
    grid = Grid(dim=dim, points_per_axis=n)
    for seed in range(4):
        f = random_function(grid, seed=seed)
        assert lp_norm(f, p) == reference_lp_norm(f, p)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_stacked_lp_norms_match_each_row(dim, n, p):
    grid = Grid(dim=dim, points_per_axis=n)
    rows = [random_function(grid, seed=seed) for seed in range(5)]
    got = lp_norms(grid, np.stack([f.values for f in rows]), p)
    assert got.shape == (5,)
    want = np.array([lp_norm(f, p) for f in rows])
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_lp_norms_rejects_exponent_below_one(grid):
    with pytest.raises(InvalidExponentError):
        lp_norms(grid, np.ones((3, 64)), 0.5)


# --------------------------------------------------------------- evaluation


def test_eval_at_grid_nodes_reproduces_values(grid):
    f = random_function(grid, seed=7)
    x = grid.nodes_1d()
    got = eval_at(f, x)
    assert np.max(np.abs(got - f.values)) < 1e-12


def test_eval_at_off_grid_is_exact_on_band_limited(grid):
    # trigonometric interpolation is exact for resolved modes
    x = np.array([0.1, 1.0, 2.7, 5.5])
    f = GridFunction(grid, np.exp(2j * grid.nodes_1d()) + 0.3)
    got = eval_at(f, x)
    assert np.max(np.abs(got - (np.exp(2j * x) + 0.3))) < 1e-12


def test_eval_at_2d(grid2d):
    xs, ys = grid2d.node_mesh()
    f = GridFunction(grid2d, np.cos(xs + 2 * ys))
    px = np.array([0.3, 4.0])
    py = np.array([1.1, 2.2])
    got = eval_at(f, px, py)
    assert np.max(np.abs(got - np.cos(px + 2 * py))) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_eval_at_keeps_real_samples_real_off_grid(dim):
    # the unpaired -N/2 mode is read as a cosine; as e^{i xi x} it would
    # add an imaginary part wherever x is off the grid
    grid = Grid(dim=dim, points_per_axis=16)
    f = random_function(grid, seed=dim, complex_values=False)
    coords = [np.array([[0.05], [2.3], [4.41]]), np.array([0.7, 1.9, 3.3, 6.1])][:dim]
    got = eval_at(f, *coords)
    assert got.shape == np.broadcast_shapes(*(c.shape for c in coords))
    assert np.max(np.abs(got.imag)) < 1e-12 * np.max(np.abs(got))


@pytest.mark.parametrize("step, start, count, block", [(0.25, 0, 1025, 32), (1.0, -512, 1024, 32),
                                                      (0.7, -4, 8, 2), (0.125, 0, 33, 32)])
def test_two_level_phase_table_matches_the_direct_exponentials(step, start, count, block):
    p = np.random.default_rng(count).uniform(-30.0, 30.0, 57)
    coarse, fine = phase_table(step, p, count, block, start=start)
    j = np.arange(count)
    got = coarse[j // block] * fine[j % block]
    tp = np.outer((start + j) * step, p)
    # each factor's argument rounds on its own: |t p| when start = 0, where
    # both arguments share t's sign
    reach = np.abs(np.outer((start + j // block * block) * step, p)) \
        + np.abs(np.outer(j % block * step, p))
    assert np.all(np.abs(got - np.exp(1j * tp)) <= 8 * np.finfo(float).eps * (1 + reach))
    if start == 0:
        assert np.allclose(reach, np.abs(tp), rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("seed", range(6))
def test_phase_table_rows_are_the_complex_exponentials(seed):
    # each row is e^{i t p} for its own t, written as cos + i sin
    rng = np.random.default_rng(seed)
    step, p = rng.uniform(0.01, 2.0), rng.uniform(-40.0, 40.0, 33)
    start, count, block = int(rng.integers(-600, 600)), int(rng.integers(1, 1200)), 16
    coarse, fine = phase_table(step, p, count, block, start=start)
    t = (start + np.arange(0, count, block)) * step
    assert np.max(np.abs(coarse - np.exp(1j * np.outer(t, p)))) <= 1e-15
    assert np.max(np.abs(fine - np.exp(1j * np.outer(np.arange(block) * step, p)))) <= 1e-15


def dense_eval_at(f, *coords):
    """The point-by-frequency phase matrix of trigonometric interpolation, in
    extended precision where numpy has it."""
    g, n = f.grid, f.grid.points_per_axis
    xi = 2 * np.pi * np.fft.fftfreq(n, 1.0 / n).astype(np.longdouble) / np.longdouble(g.period)
    vals = np.fft.fftn(f.values).astype(np.clongdouble)
    for axis, p in enumerate(np.broadcast_arrays(*[np.asarray(c, np.longdouble) for c in coords])):
        ph = np.exp(1j * np.outer(p.ravel(), xi))
        ph[:, n // 2] = np.cos(p.ravel() * xi[n // 2])
        vals = ph @ vals if axis == 0 else np.einsum("pk,pk...->p...", ph, vals)
    return vals / n ** g.dim


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 64), (1, 1024), (1, 4096), (2, 8), (2, 32)])
def test_eval_at_matches_the_dense_phase_matrix(dim, n):
    # points inside and outside [0, L): the phase tables take any real point
    grid = Grid(dim=dim, points_per_axis=n)
    f = random_function(grid, seed=n + dim)
    rng = np.random.default_rng(n)
    coords = [rng.uniform(-grid.period, 2 * grid.period, 200) for _ in range(dim)]
    got = eval_at(f, *coords)
    scale = np.sum(np.abs(np.fft.fftn(f.values))) / n ** dim
    assert np.max(np.abs(got - dense_eval_at(f, *coords).astype(complex))) <= 1e-13 * scale


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        Grid(dim=3, points_per_axis=8)
    with pytest.raises(InvalidInputError):
        Grid(dim=1, points_per_axis=1)
    with pytest.raises(InvalidInputError):
        Grid(dim=1, points_per_axis=16, period=-1.0)
