"""Bilinear operators T_sigma on the grid, commutators, and transposes.

    T(f,g)(x_j) = (1/L^{2n}) sum_{k,l} sigma(x_j, xi_k, eta_l)
                  fhat(xi_k) ghat(eta_l) e^{i x_j (xi_k + eta_l)}

"direct" evaluates the double frequency sum per node, at cost N^{3n}; it
is the reference oracle.  "multiplier" expands sigma over skeleton nodes
x_P of the flattened mesh (M = N^n points) as a short sum of x-weighted
low-rank Fourier multipliers, S_s[k, l] = sigma(x_{P_s}, xi_k, eta_l):

    sigma(x_j, ., .) ~ sum_s A[j, s] S_s,   S_s ~ sum_r U_{s,r} V_{s,r}^T
    T(f,g) = sum_s A[:, s] sum_r ifftn(U_{s,r} fftn f) ifftn(V_{s,r} fftn g)

Skeleton: sigma is sampled at every node and X_SAMPLE frequency pairs
(seed SKETCH_SEED); the samples' left singular vectors U are cut at
X_RTOL relative to the largest, P is picked by discrete empirical
interpolation (DEIM, Chaturantabut-Sorensen 2010) and A = U (U[P])^{-1}.
Two held-out nodes outside P are checked on the full frequency grid in
row blocks of at most FACTOR_BUDGET entries; while one misses X_RTOL
(relative to the largest row checked), its worst frequency pair joins
the samples.  x-dependence confined to a few nodes and a few
frequencies can escape both samples.  A declared x-independent symbol
skips this (P = node 0, A = 1).  Above an x-rank of M / 8, direct is cheaper: make_operator
selects it and an explicit multiplier strategy raises BudgetError.

Each S_s is factored by an adaptive randomized range finder (Halko,
Martinsson and Tropp, arXiv:0909.4061) with a fixed seed.  Its Gaussian
sketch doubles in width until a held-out probe W gives
||(S - Q Q^H S) W|| <= FACTOR_RTOL ||S W||, or until it spans all M
columns (exact); the SVD of Q^H S is cut where its tail falls below the
same relative bound.  S is evaluated in row blocks of at most
FACTOR_BUDGET entries: once if it fits in one block, else once per
sketch round and once for Q^H S.  A sketch wider than FACTOR_BUDGET / M
raises BudgetError.  make_operator finds the skeleton when it picks the
strategy; the factors (and, for an explicit strategy, the skeleton) are
computed on the first multiplier apply under a lock shared by the
threads applying the operator, and kept for the operator's lifetime.
Non-finite symbol values on the grid and non-finite outputs raise
DomainError.

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
X_RTOL = 1e-13      # x-interpolation cut and held-out node acceptance
X_SAMPLE = 64       # sampled frequency pairs of the x-interpolation
X_HELD = 2          # held-out nodes

STRATEGIES = ("direct", "multiplier")


def _flat(mesh) -> np.ndarray:
    """(dim, N^dim) array of a mesh's coordinates, flattened in C order."""
    return np.stack([a.ravel() for a in mesh])


@dataclass(frozen=True)
class LowRank:
    """sigma(x_j, xi_k, eta_l) ~ sum_s w[s, j] sum_{r in block s} u[r, k] v[r, l],
    u and v of shape (rank, M) in blocks of sizes ranks; residual and
    x_residual are the worst held-out frequency and node residuals."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    ranks: tuple
    residual: float
    x_residual: float

    @property
    def rank(self) -> int:
        return self.u.shape[0]

    @property
    def x_rank(self) -> int:
        return self.w.shape[0]


def _values(sigma: Symbol, grid: Grid, x, xi, eta) -> np.ndarray:
    """sigma at broadcast (dim, ...) coordinate arrays; DomainError if not finite."""
    S = np.asarray(sigma.eval(_pack(x, grid.dim), _pack(xi, grid.dim), _pack(eta, grid.dim)))
    if not np.all(np.isfinite(S)):
        raise DomainError(f"symbol {sigma.name!r} is not finite on the "
                          f"{grid.points_per_axis}-point grid")
    return S if np.iscomplexobj(S) else S.astype(float, copy=False)


def _frequency_rows(sigma: Symbol, grid: Grid, rows, nodes) -> np.ndarray:
    """S_p[rows, :] of shape (len(nodes), rows, M), S_p[k, l] = sigma(x_p, xi_k, eta_l)."""
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    return _values(sigma, grid, x[:, nodes, None, None], xi[:, None, rows, None],
                   xi[:, None, None, :])


def _skeleton(sigma: Symbol, grid: Grid):
    """(P, A, residual) with sigma(x_j, .) ~ sum_s A[j, s] sigma(x_{P_s}, .) and
    the worst held-out node residual, or None when the x-rank exceeds M // 8."""
    M = grid.points_per_axis ** grid.dim
    if sigma.x_independent:
        return [0], np.ones((M, 1)), 0.0
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    rng = np.random.default_rng(SKETCH_SEED)
    pairs = rng.integers(M, size=(2, X_SAMPLE))
    for _ in range(M // 8 + 1):  # a failed round adds a pair that raises the rank
        U, s = np.linalg.svd(_values(sigma, grid, x[:, :, None], xi[:, None, pairs[0]],
                                     xi[:, None, pairs[1]]), full_matrices=False)[:2]
        U = U[:, :np.count_nonzero(s > X_RTOL * s[0])]
        if U.shape[1] > M // 8:
            return None
        P = []
        for i in range(U.shape[1]):  # DEIM: greedy argmax of the interpolation residual
            res = U[:, i] - U[:, :i] @ np.linalg.solve(U[P, :i], U[P, i])
            P.append(int(np.argmax(np.abs(res))))
        A = U @ np.linalg.inv(U[P])
        held = rng.choice(np.setdiff1d(np.arange(M), P), X_HELD, replace=False)
        step = max(1, FACTOR_BUDGET // (M * (len(P) + X_HELD)))
        err, sq, worst = np.zeros(X_HELD), np.zeros(len(P) + X_HELD), (0.0, 0, 0)
        for start in range(0, M, step):
            S = _frequency_rows(sigma, grid, slice(start, start + step), P + list(held))
            D = np.abs(S[len(P):] - np.tensordot(A[held], S[:len(P)], 1))
            err, sq = err + np.sum(D ** 2, axis=(1, 2)), sq + np.sum(np.abs(S) ** 2, axis=(1, 2))
            h, r, c = np.unravel_index(np.argmax(D), D.shape)
            worst = max(worst, (D[h, r, c], start + r, c))
        residual = float(np.sqrt(err.max() / sq.max())) if sq.max() else 0.0
        if residual <= X_RTOL:
            return P, A, residual
        pairs = np.append(pairs, [[worst[1]], [worst[2]]], axis=1)
    return None


def _factorize(sigma: Symbol, grid: Grid, node: int):
    """(u, v, residual) with S ~ u.T @ v for S[k, l] = sigma(x_node, xi_k, eta_l)."""
    M = grid.points_per_axis ** grid.dim
    step = max(1, FACTOR_BUDGET // M)
    held = [(slice(None), _frequency_rows(sigma, grid, slice(None), [node])[0])] \
        if step >= M else []

    def blocks():
        """(rows, S[rows, :]) pairs; S is evaluated once when it fits in one block."""
        return held or ((rows, _frequency_rows(sigma, grid, rows, [node])[0])
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
    return ((Q @ u[:, :rank]) * s[:rank]).T, vh[:rank], float(residual)


def _expand(sigma: Symbol, grid: Grid, skeleton) -> LowRank:
    """The multiplier expansion of sigma; BudgetError above the x-rank cap."""
    skeleton = skeleton or _skeleton(sigma, grid)
    if skeleton is None:
        raise BudgetError(
            f"symbol {sigma.name!r} has x-rank above M/8 = "
            f"{grid.points_per_axis ** grid.dim // 8} on the {grid.points_per_axis}-point "
            f"grid, or its held-out nodes miss {X_RTOL:g}: use the direct strategy")
    P, A, x_residual = skeleton
    parts = [_factorize(sigma, grid, p) for p in P]
    u, v = (np.concatenate([p[i] for p in parts] + [np.empty((0, len(A)))]) for i in (0, 1))
    return LowRank(u, v, A.T, tuple(len(p[0]) for p in parts),
                   max((p[2] for p in parts), default=0.0), x_residual)


@dataclass(frozen=True)
class BilinearOperator:
    sigma: Symbol
    grid: Grid
    strategy: str
    skeleton: tuple | None = field(default=None, repr=False, compare=False)
    _factors: LowRank | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInputError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")

    def lowrank(self) -> LowRank:
        """The multiplier strategy's expansion of sigma, computed on first use."""
        if self.strategy != "multiplier":
            raise InvalidInputError("only the multiplier strategy factors its symbol")
        with self._lock:
            if self._factors is None:
                object.__setattr__(self, "_factors", _expand(self.sigma, self.grid, self.skeleton))
        return self._factors


def make_operator(sigma: Symbol, grid: Grid, strategy: str | None = None) -> BilinearOperator:
    """Build T_sigma; unspecified, the strategy is multiplier unless the x-rank
    exceeds M / 8."""
    if sigma.dim != grid.dim:
        raise InvalidInputError(
            f"symbol dim {sigma.dim} does not match grid dim {grid.dim}")
    if strategy is None:
        skeleton = _skeleton(sigma, grid)
        return BilinearOperator(sigma, grid, "multiplier" if skeleton else "direct", skeleton)
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
            f"shrink N (or use the multiplier strategy)")
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
    low, grid = op.lowrank(), op.grid
    shape = (low.rank,) + grid.shape
    axes = tuple(range(1, grid.dim + 1))
    # the (N/L)^{2n} of the inverse sums cancels the dx^{2n} of fhat and ghat
    bf = np.fft.ifftn((low.u * np.fft.fftn(f.values).ravel()).reshape(shape), axes=axes)
    cg = np.fft.ifftn((low.v * np.fft.fftn(g.values).ravel()).reshape(shape), axes=axes)
    terms = np.split(bf * cg, np.cumsum(low.ranks)[:-1])
    return GridFunction(grid, sum((w.reshape(grid.shape) * t.sum(axis=0)
                                   for w, t in zip(low.w, terms)), np.zeros(grid.shape, complex)))


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


def _commute(W: np.ndarray, slot: int, mult: GridFunction) -> np.ndarray:
    """Tensor of [T, a]_slot from the tensor W of T."""
    a = mult.values.ravel()
    return W * ((a[None, :, None] if slot == 1 else a[None, None, :]) - a[:, None, None])


def dense_tensor(op) -> np.ndarray:
    """Materialize W[j,p,q] with T(f,g)_j = sum W[j,p,q] f_p g_q."""
    if isinstance(op, DenseBilinearOperator):
        return op.tensor
    if isinstance(op, CommutatorOperator):
        W = dense_tensor(op.base)
        for slot, mult in op.steps:
            W = _commute(W, slot, mult)
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
    W = dense_tensor(T)
    W1 = np.swapaxes(W, 0, 1)  # T^{*1}
    W2 = np.swapaxes(W, 0, 2)  # T^{*2}

    c1 = _commute(W, 1, a)
    c2 = _commute(W, 2, a)
    sides = {
        "slot1_transpose1": (np.swapaxes(c1, 0, 1), -_commute(W1, 1, a)),
        "slot1_transpose2": (np.swapaxes(c1, 0, 2), _commute(W2, 1, a) - _commute(W2, 2, a)),
        "slot2_transpose1": (np.swapaxes(c2, 0, 1), _commute(W1, 2, a) - _commute(W1, 1, a)),
        "slot2_transpose2": (np.swapaxes(c2, 0, 2), -_commute(W2, 2, a)),
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
