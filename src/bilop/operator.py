"""Bilinear operators T_sigma on the grid, commutators, and transposes.

    T(f,g)(x_j) = (1/L^{2n}) sum_{k,l} sigma(x_j, xi_k, eta_l)
                  fhat(xi_k) ghat(eta_l) e^{i x_j (xi_k + eta_l)}

Two application strategies.  "direct" evaluates the double frequency
sum per node, at cost N^{3n}.  "multiplier" (x-independent sigma)
factors S[k, l] = sigma(0, xi_k, eta_l) over the flattened frequency
mesh (M = N^n points) as S ~ sum_r U_r V_r^T, then applies
T(f,g) = sum_r ifftn(U_r fftn(f)) ifftn(V_r fftn(g)) with 2R FFTs.

The factors come from an adaptive randomized range finder (Halko,
Martinsson and Tropp, arXiv:0909.4061) with a fixed seed.  Its Gaussian
sketch of S doubles in width until a held-out probe W gives
||(S - Q Q^H S) W|| <= FACTOR_RTOL ||S W||, or until it spans all M
columns (exact); the SVD of Q^H S is cut where its tail falls below the
same relative bound.  S is evaluated in row blocks of at most
FACTOR_BUDGET entries: once if it fits in one block, else once per
sketch round and once for Q^H S.  A sketch wider than FACTOR_BUDGET / M
raises BudgetError.  An operator factors S on its first multiplier
apply, under a lock shared by the threads applying it, and keeps the
factors for its lifetime.  Non-finite symbol values on the frequency
grid and non-finite apply outputs raise DomainError.

Transposes are materialized as dense trilinear tensors, exact at small
N, with the bilinear dual pairing <u, v> = sum_j u_j v_j dx^n (no
conjugation).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError, InvalidInputError
from .grid import Grid, GridFunction
from .symbols.core import Symbol, _pack

DIRECT_BUDGET = 2 ** 28
DENSE_BUDGET = 2 ** 24
FACTOR_BUDGET = 2 ** 22
FACTOR_RTOL = 1e-14
SKETCH_START = 64   # first sketch width
SKETCH_PROBES = 10  # held-out probe columns
SKETCH_SEED = 0

STRATEGIES = ("direct", "multiplier")


def _flat(mesh) -> np.ndarray:
    """(dim, N^dim) array of a mesh's coordinates, flattened in C order."""
    return np.stack([a.ravel() for a in mesh])


def _is_x_independent(sigma: Symbol, grid: Grid, probes: int = 20,
                      tol: float = 1e-12) -> bool:
    if sigma.x_independent is not None:
        return bool(sigma.x_independent)
    rng = np.random.default_rng(12345)
    nyq = np.pi * grid.points_per_axis / grid.period

    def draw(lo, hi):
        return _pack([rng.uniform(lo, hi, size=probes) for _ in range(grid.dim)], grid.dim)

    x1, x2 = draw(0, grid.period), draw(0, grid.period)
    xi, eta = draw(-nyq, nyq), draw(-nyq, nyq)
    v1 = np.asarray(sigma.eval(x1, xi, eta))
    v2 = np.asarray(sigma.eval(x2, xi, eta))
    scale = np.max(np.abs(v1)) + 1.0
    return bool(np.max(np.abs(v1 - v2)) <= tol * scale)


@dataclass(frozen=True)
class LowRank:
    """S ~ u.T @ v, u and v of shape (rank, M); residual is the held-out
    relative residual the range finder accepted."""

    u: np.ndarray
    v: np.ndarray
    residual: float

    @property
    def rank(self) -> int:
        return self.u.shape[0]


def _frequency_rows(sigma: Symbol, grid: Grid, rows) -> np.ndarray:
    """S[rows, :] with S[k, l] = sigma(0, xi_k, eta_l) on the flattened mesh."""
    xi = _flat(grid.frequency_mesh())
    S = np.asarray(sigma.eval(_pack([0.0] * grid.dim, grid.dim),
                              _pack(xi[:, rows, None], grid.dim),
                              _pack(xi[:, None, :], grid.dim)))
    if not np.all(np.isfinite(S)):
        raise DomainError(f"symbol {sigma.name!r} is not finite on the "
                          f"{grid.points_per_axis}-point frequency grid")
    return S if np.iscomplexobj(S) else S.astype(float, copy=False)


def _factorize(sigma: Symbol, grid: Grid) -> LowRank:
    M = grid.points_per_axis ** grid.dim
    step = max(1, FACTOR_BUDGET // M)
    held = [(slice(None), _frequency_rows(sigma, grid, slice(None)))] if step >= M else []

    def blocks():
        """(rows, S[rows, :]) pairs; S is evaluated once when it fits in one block."""
        return held or ((rows, _frequency_rows(sigma, grid, rows))
                        for rows in (slice(i, i + step) for i in range(0, M, step)))

    rng = np.random.default_rng(SKETCH_SEED)
    Y = np.empty((M, 0))
    probe, residual = None, np.inf
    while Y.shape[1] < M and residual > FACTOR_RTOL:
        width = min(M, max(2 * Y.shape[1], SKETCH_START))
        if width * M > FACTOR_BUDGET:
            raise BudgetError(
                f"symbol {sigma.name!r} needs a rank above {Y.shape[1]} on {M} "
                f"frequencies (held-out residual {residual:.3g} > {FACTOR_RTOL:g}); "
                f"its factors would exceed {FACTOR_BUDGET} entries: shrink N")
        new = width - Y.shape[1]
        omega = rng.standard_normal((M, new if probe is not None else new + SKETCH_PROBES))
        sketch = np.concatenate([S @ omega for _, S in blocks()])
        if probe is None:
            probe = sketch[:, new:]
        Y = np.hstack([Y, sketch[:, :new]])
        Q = np.linalg.qr(Y)[0]
        scale = np.linalg.norm(probe)
        residual = np.linalg.norm(probe - Q @ (Q.conj().T @ probe)) / scale if scale else 0.0

    u, s, vh = np.linalg.svd(sum(Q[rows].conj().T @ S for rows, S in blocks()),
                             full_matrices=False)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2)[::-1])  # tail[r] = ||s[r:]||
    rank = int(np.count_nonzero(tail > FACTOR_RTOL * tail[0]))
    return LowRank(((Q @ u[:, :rank]) * s[:rank]).T, vh[:rank], float(residual))


@dataclass(frozen=True)
class BilinearOperator:
    sigma: Symbol
    grid: Grid
    strategy: str
    _factors: LowRank | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInputError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.strategy == "multiplier" and not _is_x_independent(self.sigma, self.grid):
            raise InvalidInputError(
                "multiplier strategy needs an x-independent symbol")

    def lowrank(self) -> LowRank:
        """The multiplier strategy's factors of S, computed on first use."""
        if self.strategy != "multiplier":
            raise InvalidInputError("only the multiplier strategy factors its symbol")
        with self._lock:
            if self._factors is None:
                object.__setattr__(self, "_factors", _factorize(self.sigma, self.grid))
        return self._factors


def make_operator(sigma: Symbol, grid: Grid, strategy: str | None = None) -> BilinearOperator:
    """Build T_sigma, choosing the cheapest valid strategy when unspecified."""
    if sigma.dim != grid.dim:
        raise InvalidInputError(
            f"symbol dim {sigma.dim} does not match grid dim {grid.dim}")
    if strategy is None:
        strategy = "multiplier" if _is_x_independent(sigma, grid) else "direct"
    return BilinearOperator(sigma, grid, strategy)


@dataclass(frozen=True)
class CommutatorOperator:
    """[base, a]_slot, optionally iterated: steps applied left to right."""

    base: BilinearOperator
    steps: tuple  # of (slot, GridFunction)

    def __post_init__(self):
        if not self.steps:
            raise InvalidInputError("commutator needs at least one (slot, multiplier)")
        for slot, mult in self.steps:
            if slot not in (1, 2):
                raise InvalidInputError(f"slot must be 1 or 2, got {slot}")
            if mult.grid != self.base.grid:
                raise InvalidInputError("multiplier grid does not match operator grid")

    @property
    def grid(self) -> Grid:
        return self.base.grid


def commutator(base: BilinearOperator, slot: int, mult: GridFunction,
               *more) -> CommutatorOperator:
    """commutator(T, 1, a) or commutator(T, 1, a, 2, b) for the iterated case."""
    steps = [(slot, mult)]
    if more:
        if len(more) % 2 != 0:
            raise InvalidInputError("extra steps come in (slot, multiplier) pairs")
        for i in range(0, len(more), 2):
            steps.append((int(more[i]), more[i + 1]))
    return CommutatorOperator(base, tuple(steps))


@dataclass(frozen=True)
class DenseBilinearOperator:
    """Trilinear form W[j, p, q]: T(f,g)_j = sum_{p,q} W[j,p,q] f_p g_q."""

    grid: Grid
    tensor: np.ndarray


def _check_inputs(grid: Grid, *fs):
    for f in fs:
        if f.grid != grid:
            raise InvalidInputError("grid mismatch between operator and input")


def pairing(u: GridFunction, v: GridFunction) -> complex:
    """Bilinear dual pairing sum u v dx^n, no conjugation."""
    _check_inputs(u.grid, v)
    return complex(np.sum(u.values * v.values) * u.grid.spacing ** u.grid.dim)


def _apply_direct(op: BilinearOperator, f: GridFunction, g: GridFunction) -> GridFunction:
    grid = op.grid
    n, M = grid.dim, grid.points_per_axis ** grid.dim
    if M ** 3 > DIRECT_BUDGET:
        raise BudgetError(
            f"direct strategy costs N^(3n) = {M ** 3} > {DIRECT_BUDGET}; "
            f"shrink N (or use an x-independent symbol with the multiplier path)")
    fhat = np.fft.fftn(f.values).ravel() * grid.spacing ** n
    ghat = np.fft.fftn(g.values).ravel() * grid.spacing ** n
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    out = np.empty(M, dtype=complex)
    chunk = max(1, DIRECT_BUDGET // (64 * M * M))
    for start in range(0, M, chunk):
        xs = x[:, start:start + chunk]
        sig = np.asarray(op.sigma.eval(_pack(xs[:, :, None, None], grid.dim),
                                       _pack(xi[:, None, :, None], grid.dim),
                                       _pack(xi[:, None, None, :], grid.dim)))
        phase = np.exp(1j * (xs.T @ xi))
        out[start:start + chunk] = np.einsum("jkl,jk,jl->j", sig, fhat * phase, ghat * phase)
    return GridFunction(grid, out.reshape(grid.shape) / grid.period ** (2 * n))


def _apply_multiplier(op: BilinearOperator, f: GridFunction, g: GridFunction) -> GridFunction:
    low = op.lowrank()
    shape = (low.rank,) + op.grid.shape
    axes = tuple(range(1, op.grid.dim + 1))
    # the (N/L)^{2n} of the inverse sums cancels the dx^{2n} of fhat and ghat
    bf = np.fft.ifftn((low.u * np.fft.fftn(f.values).ravel()).reshape(shape), axes=axes)
    cg = np.fft.ifftn((low.v * np.fft.fftn(g.values).ravel()).reshape(shape), axes=axes)
    return GridFunction(op.grid, np.sum(bf * cg, axis=0))


def apply(op, f: GridFunction, g: GridFunction) -> GridFunction:
    """Apply a bilinear, commutator, or dense operator to (f, g).

    A non-finite output raises DomainError.
    """
    _check_inputs(op.grid, f, g)
    if isinstance(op, CommutatorOperator):
        out = commutator_apply(op, f, g)
    elif isinstance(op, DenseBilinearOperator):
        vals = np.einsum("jpq,p,q->j", op.tensor, f.values.ravel(), g.values.ravel())
        out = GridFunction(op.grid, vals.reshape(op.grid.shape))
    elif op.strategy == "direct":
        out = _apply_direct(op, f, g)
    else:
        out = _apply_multiplier(op, f, g)
    if not np.all(np.isfinite(out.values)):
        raise DomainError("operator output is not finite; the symbol or the "
                          "inputs are singular on this grid")
    return out


def commutator_apply(c: CommutatorOperator, f: GridFunction, g: GridFunction) -> GridFunction:
    _check_inputs(c.grid, f, g)

    def run(steps, f, g):
        if not steps:
            return apply(c.base, f, g)
        slot, mult = steps[-1]
        rest = steps[:-1]
        if slot == 1:
            shifted = run(rest, GridFunction(c.grid, mult.values * f.values), g)
        else:
            shifted = run(rest, f, GridFunction(c.grid, mult.values * g.values))
        plain = run(rest, f, g)
        return GridFunction(c.grid, shifted.values - mult.values * plain.values)

    return run(list(c.steps), f, g)


def dense_tensor(op) -> np.ndarray:
    """Materialize W[j,p,q] with T(f,g)_j = sum W[j,p,q] f_p g_q."""
    if isinstance(op, DenseBilinearOperator):
        return op.tensor
    if isinstance(op, CommutatorOperator):
        W = dense_tensor(op.base)
        for slot, mult in op.steps:
            a = mult.values.ravel()
            if slot == 1:
                W = W * (a[None, :, None] - a[:, None, None])
            else:
                W = W * (a[None, None, :] - a[:, None, None])
        return W
    grid = op.grid
    M = grid.points_per_axis ** grid.dim
    if M ** 3 > DENSE_BUDGET:
        raise BudgetError(
            f"dense tensor needs N^(3n) = {M ** 3} > {DENSE_BUDGET} entries; shrink N")
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    W = np.empty((M, M, M), dtype=complex)
    for j in range(M):
        sig = np.asarray(op.sigma.eval(_pack(x[:, j], grid.dim),
                                       _pack(xi[:, :, None], grid.dim),
                                       _pack(xi[:, None, :], grid.dim)))
        phase = np.exp(1j * (x[:, j] @ xi))
        W[j] = np.fft.fftn((sig * phase[:, None] * phase[None, :])
                           .reshape(grid.shape * 2)).reshape(M, M)
    return W * (grid.spacing / grid.period) ** (2 * grid.dim)


def transpose(op, which: int):
    """Operator U with <op(f,g), h> = <U(h,g), f> (which=1) or <U(f,h), g> (which=2)."""
    if which not in (1, 2):
        raise InvalidInputError(f"which must be 1 or 2, got {which}")
    grid = op.grid
    W = dense_tensor(op)
    axis = 1 if which == 1 else 2
    return DenseBilinearOperator(grid, np.swapaxes(W, 0, axis))


def verify_transpose_identities(T: BilinearOperator, a: GridFunction,
                                trials: int = 20, seed: int = 0,
                                tol: float = 1e-8) -> dict:
    """Check the four commutator/transpose identities on random triples.

    Residuals are weak-form: |<LHS(f,g) - RHS(f,g), h>| normalized by
    ||f||_2 ||g||_2 ||h||_2, maximized over the random triples.
    """
    if trials < 10:
        raise InvalidInputError(f"need >= 10 trials, got {trials}")
    grid = T.grid

    def com(base_tensor, slot, mult):
        v = mult.values.ravel()
        if slot == 1:
            return base_tensor * (v[None, :, None] - v[:, None, None])
        return base_tensor * (v[None, None, :] - v[:, None, None])

    W = dense_tensor(T)
    W1 = np.swapaxes(W, 0, 1)  # T^{*1}
    W2 = np.swapaxes(W, 0, 2)  # T^{*2}

    c1 = com(W, 1, a)
    c2 = com(W, 2, a)
    sides = {
        "slot1_transpose1": (np.swapaxes(c1, 0, 1), -com(W1, 1, a)),
        "slot1_transpose2": (np.swapaxes(c1, 0, 2), com(W2, 1, a) - com(W2, 2, a)),
        "slot2_transpose1": (np.swapaxes(c2, 0, 1), com(W1, 2, a) - com(W1, 1, a)),
        "slot2_transpose2": (np.swapaxes(c2, 0, 2), -com(W2, 2, a)),
    }

    rng = np.random.default_rng(seed)
    nodes = grid.points_per_axis ** grid.dim
    dxn = grid.spacing ** grid.dim

    def rand_fn():
        return rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)

    results = dict.fromkeys(sides, 0.0)
    diffs = {name: lhs - rhs for name, (lhs, rhs) in sides.items()}
    for _ in range(trials):
        fv, gv, hv = rand_fn(), rand_fn(), rand_fn()
        norm = np.sqrt(np.sum(np.abs(fv) ** 2) * dxn) \
            * np.sqrt(np.sum(np.abs(gv) ** 2) * dxn) \
            * np.sqrt(np.sum(np.abs(hv) ** 2) * dxn)
        for name, D in diffs.items():
            val = np.einsum("jpq,p,q,j->", D, fv, gv, hv) * dxn
            results[name] = max(results[name], abs(val) / norm)

    return {
        "residuals": results,
        "max_residual": max(results.values()),
        "verdict": "PASS" if max(results.values()) <= tol else "FAILED",
        "trials": trials,
        "grid_points": grid.points_per_axis,
    }
