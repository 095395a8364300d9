"""Bilinear operators T_sigma on the grid, commutators, and transposes.

    T(f,g)(x_j) = (1/L^{2n}) sum_{k,l} sigma(x_j, xi_k, eta_l)
                  fhat(xi_k) ghat(eta_l) e^{i x_j (xi_k + eta_l)}

"direct" evaluates the double frequency sum per node, at cost N^{3n}; it
is the reference oracle.  "multiplier" reads an exact x-expansion off
sigma's AST, as in Coifman-Meyer's reduction to elementary products
a(x) b(xi, eta), and factors each frequency part (M = N^n mesh points):

    sigma(x_j, xi, eta) = sum_s w_s[j] S_s(xi, eta),   S_s ~ sum_r U_{s,r} V_{s,r}^T
    T(f,g) = sum_s w_s sum_r ifftn(U_{s,r} fftn f) ifftn(V_{s,r} fftn g)

_separate multiplies out sums, negations, products, positive integer
powers, quotients by a single term a b and Quad (FTC) nodes, grouping
terms by x-factor.  A factor mixing x with a frequency, a plain callable
not declared x-independent, or over M / 8 groups leaves no expansion:
make_operator selects direct; an explicit multiplier raises BudgetError.

Each S_s is factored by an adaptive randomized range finder (Halko,
Martinsson and Tropp, arXiv:0909.4061) with a fixed seed: the Gaussian
sketch doubles until a held-out probe W gives ||(S - Q Q^H S) W|| <=
FACTOR_RTOL ||S W|| or it spans all M columns, and the SVD of Q^H S is
cut at the same relative tail.  S is evaluated in FACTOR_BUDGET-entry
row blocks: once if one holds it, else per sketch round and for Q^H S;
a sketch past FACTOR_BUDGET / M columns raises BudgetError.  Operators
are built whole; non-finite symbol values and outputs raise DomainError.

Each operator is read as a trilinear form Phi(h, f, g) = <T(f,g), h>
under the bilinear dual pairing <u, v> = sum_j u_j v_j dx^n (no
conjugation): apply leaves slot 0 open, and the transposes T^{*1}(h, g)
and T^{*2}(f, h) leave slot 1 or 2 open, so no N^{3n} tensor is built.
The expansion gives Phi = sum_{s,r} <w_s h, (B_{s,r} f)(C_{s,r} g)> with
B and C the multipliers U and V, hence T^{*1}(h, g) = sum_{s,r}
B~_{s,r}(w_s h C_{s,r} g), B~ being B read at frequency index (-k) mod N
per axis; T^{*2} swaps the roles of U and V.  direct leaves the matching
index of its chunked sum open.  A commutator step (slot, a) reads
Phi(..., a x_slot, ...) - Phi(a h, f, g), recursively.  dense_tensor
materializes the tensor at small N as the oracle of the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError, InvalidInputError
from .grid import Grid, GridFunction
from .symbols.core import Symbol, _pack, symbol_from_expr
from .symbols.expr import BinOp, Neg, Node, Num, Pow, _add, _div, _mul, _neg
from .symbols.ftc import Quad

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


@dataclass(frozen=True)
class LowRank:
    """sigma(x_j, xi_k, eta_l) ~ sum_r w[r, j] u[r, k] v[r, l]: (rank, M) arrays in
    blocks of sizes ranks, w_s on each row of block s; residual of the probes."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    ranks: tuple
    residual: float

    @property
    def rank(self) -> int:
        return self.u.shape[0]

    @property
    def x_rank(self) -> int:
        return len(self.ranks)


def _values(sigma: Symbol, grid: Grid, x, xi, eta) -> np.ndarray:
    """sigma at broadcast (dim, ...) coordinate arrays; DomainError if not finite."""
    S = np.asarray(sigma.eval(_pack(x, grid.dim), _pack(xi, grid.dim), _pack(eta, grid.dim)))
    if not np.all(np.isfinite(S)):
        raise DomainError(f"symbol {sigma.name!r} is not finite on the "
                          f"{grid.points_per_axis}-point grid")
    return S if np.iscomplexobj(S) else S.astype(float, copy=False)


def _separate(node: Node, cap: int) -> dict:
    """node as {key: (a, b)}, a sum of a(x) b(xi, eta) keyed by the sorted factors
    of a (a divisor marked 1); ValueError says why not in at most cap terms."""
    free, xs, one = node.free_vars(), {"x", "x1", "x2"}, Num(1.0)
    if not free & xs or free <= xs:  # a frequency factor or an x-factor
        return {((repr(node), 0),): (node, one)} if free & xs else {(): (one, node)}
    kids = [_separate(c, cap).items() for c in
            ((node.integrand,) if isinstance(node, Quad) else node.children)]
    if isinstance(node, Neg):
        return {k: (a, _neg(b)) for k, (a, b) in kids[0]}
    if isinstance(node, Quad):  # the t-integral scales the frequencies only
        return {k: (a, Quad(b, node.power, node.q)) for k, (a, b) in kids[0]}
    if isinstance(node, Pow) and node.exponent > 0:
        out = dict(kids[0])
        for _ in range(node.exponent - 1):
            out = _merge(_times(out.items(), kids[0]), cap)
        return out
    if isinstance(node, BinOp) and node.op in "+-":
        sign = _neg if node.op == "-" else (lambda b: b)
        return _merge([*kids[0], *((k, (a, sign(b))) for k, (a, b) in kids[1])], cap)
    if isinstance(node, BinOp) and node.op == "*":
        return _merge(_times(*kids), cap)
    if isinstance(node, BinOp) and len(kids[1]) == 1:  # by a single term a b
        [(k, (a, b))] = kids[1]
        inverse = (tuple(sorted((f, 1 - d) for f, d in k)), (_div(one, a), _div(one, b)))
        return _merge(_times(kids[0], [inverse]), cap)
    raise ValueError("a factor mixes x with a frequency")


def _times(left, right):
    """The products of the terms (key, (a, b)) of left and right."""
    return ((tuple(sorted(k + j)), (_mul(a, c), _mul(b, d)))
            for k, (a, b) in left for j, (c, d) in right)


def _merge(terms, cap: int) -> dict:
    """Sum the terms (key, (a, b)) of equal key."""
    out = {}
    for k, (a, b) in terms:
        out[k] = (out[k][0], _add(out[k][1], b)) if k in out else (a, b)
        if len(out) > cap:
            raise ValueError(f"it has more than M/8 = {cap} distinct x-factors")
    return out


def _expand(sigma: Symbol, grid: Grid):
    """sigma's x-expansion with each S_s factored, or the reason it has none."""
    M = grid.points_per_axis ** grid.dim
    if sigma.x_independent:
        groups = [(np.ones(M), sigma)]
    elif sigma.node is None:
        return "it is a plain callable not declared x-independent"
    else:
        try:
            terms = _separate(sigma.node, M // 8).values()
        except ValueError as err:
            return str(err)
        x, zero = _flat(grid.node_mesh()), np.zeros((grid.dim, 1))
        pairs = [[symbol_from_expr(f, sigma.declared_class, grid.dim, name=sigma.name)
                  for f in ab] for ab in terms]
        groups = [(_values(a, grid, x, zero, zero), b) for a, b in pairs]
    parts = [_factorize(S, grid) for _, S in groups]
    u, v = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
    ranks = tuple(len(p[0]) for p in parts)
    return LowRank(u, v, np.repeat([w for w, _ in groups], ranks, axis=0), ranks,
                   max(p[2] for p in parts))


def _factorize(sigma: Symbol, grid: Grid):
    """(u, v, residual) with S ~ u.T @ v for S[k, l] = sigma(x_0, xi_k, eta_l)."""
    M = grid.points_per_axis ** grid.dim
    step = max(1, FACTOR_BUDGET // M)
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())

    def rows_of(rows):  # S[rows, :]
        return _values(sigma, grid, x[:, :1, None], xi[:, rows, None], xi[:, None, :])

    held = [(slice(None), rows_of(slice(None)))] if step >= M else []

    def blocks():
        """(rows, S[rows, :]) pairs; S is evaluated once when it fits in one block."""
        return held or ((rows, rows_of(rows))
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


@dataclass(frozen=True)
class BilinearOperator:
    """T_sigma; strategy None resolves to multiplier when sigma has an
    x-expansion.  A multiplier operator holds its expansion from construction on."""

    sigma: Symbol
    grid: Grid
    strategy: str | None
    _expansion: LowRank | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma.dim != self.grid.dim:
            raise InvalidInputError(
                f"symbol dim {self.sigma.dim} does not match grid dim {self.grid.dim}")
        if self.strategy not in (None, *STRATEGIES):
            raise InvalidInputError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        expansion = None if self.strategy == "direct" else _expand(self.sigma, self.grid)
        if isinstance(expansion, str) and self.strategy:
            raise BudgetError(f"symbol {self.sigma.name!r} has no x-expansion: "
                              f"{expansion}; use the direct strategy")
        found = isinstance(expansion, LowRank)
        object.__setattr__(self, "strategy", "multiplier" if found else "direct")
        object.__setattr__(self, "_expansion", expansion if found else None)

    def lowrank(self) -> LowRank:
        """The multiplier strategy's expansion of sigma."""
        if self.strategy != "multiplier":
            raise InvalidInputError("only the multiplier strategy factors its symbol")
        return self._expansion


def make_operator(sigma: Symbol, grid: Grid, strategy: str | None = None) -> BilinearOperator:
    """Build T_sigma; unspecified, the strategy is multiplier when sigma has
    an x-expansion."""
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


@dataclass(frozen=True)
class TransposedOperator:
    """base with its slots permuted: slot i here is slot perm[i] of base (see _read)."""

    grid: Grid
    base: object
    perm: tuple
    strategy = "transpose"  # apply reads base with the slots permuted


def _check_inputs(grid: Grid, *fs):
    for f in fs:
        if f.grid != grid:
            raise InvalidInputError("grid mismatch between operator and input")


def pairing(u: GridFunction, v: GridFunction) -> complex:
    """Bilinear dual pairing sum u v dx^n, no conjugation."""
    _check_inputs(u.grid, v)
    return complex(np.sum(u.values * v.values) * u.grid.spacing ** u.grid.dim)


def _read_direct(op: BilinearOperator, free: int, ins: dict) -> np.ndarray:
    """The double frequency sum per node, with slot `free` of (x_j, xi_k, eta_l) open."""
    grid = op.grid
    n, M = grid.dim, grid.points_per_axis ** grid.dim
    if M ** 3 > DIRECT_BUDGET:
        raise BudgetError(
            f"direct strategy costs N^(3n) = {M ** 3} > {DIRECT_BUDGET}; "
            f"shrink N (or use the multiplier strategy)")
    dxn = grid.spacing ** n
    h = ins[0].ravel() if 0 in ins else np.ones(M)
    fhat, ghat = (np.fft.fftn(ins[k]).ravel() * dxn if k in ins else np.ones(M)
                  for k in (1, 2))
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    out = np.zeros(M, dtype=complex)
    chunk = max(1, DIRECT_BUDGET // (64 * M * M))
    for start in range(0, M, chunk):
        rows = slice(start, start + chunk)
        xs = x[:, rows]
        sig = _values(op.sigma, grid, xs[:, :, None, None], xi[:, None, :, None],
                      xi[:, None, None, :])
        phase = np.exp(1j * (xs.T @ xi))
        out[slice(None) if free else rows] += np.einsum(
            "jkl,jk,jl->" + "jkl"[free], sig, h[rows, None] * fhat * phase, ghat * phase)
    if free:  # sum_k dx^n e^{-i xi_k x_p} G_k is a forward transform
        out = np.fft.fftn(out.reshape(grid.shape)).ravel() * dxn
    return out.reshape(grid.shape) / grid.period ** (2 * n)


def _read_multiplier(op: BilinearOperator, free: int, ins: dict) -> np.ndarray:
    """sum_s sum_r <w_s x0, (B_sr x1)(C_sr x2)> with slot `free` open, where
    B_sr and C_sr are the Fourier multipliers u and v of the expansion."""
    low, grid = op.lowrank(), op.grid
    shape, axes = (low.rank,) + grid.shape, tuple(range(1, grid.dim + 1))
    mult = {1: low.u.reshape(shape), 2: low.v.reshape(shape)}
    # the (N/L)^{2n} of the inverse sums cancels the dx^{2n} of fhat and ghat
    a, b = (v if k == 0 else np.fft.ifftn(mult[k] * np.fft.fftn(v), axes=axes)
            for k, v in sorted(ins.items()))
    terms = a * b * low.w.reshape(shape)
    if free == 0:
        return terms.sum(axis=0)
    # a multiplier's transpose is the multiplier read at index (-k) mod N per axis
    flipped = np.roll(np.flip(mult[free], axes), 1, axes)
    return np.fft.ifftn(np.sum(flipped * np.fft.fftn(terms, axes=axes), axis=0))


def _read(op, free: int, ins: dict) -> np.ndarray:
    """Read op's trilinear form Phi(x0, x1, x2) = <op(x1, x2), x0> with slot
    `free` open: the grid array X with Phi = <X, x_free>, given the values
    ins = {slot: array} of the two other slots.  apply reads slot 0; the
    transposes read slots 1 and 2."""
    if isinstance(op, TransposedOperator):
        return _read(op.base, op.perm[free], {op.perm[k]: v for k, v in ins.items()})
    if isinstance(op, CommutatorOperator):  # [U, a]_slot, U the earlier steps
        (slot, a), rest = op.steps[-1], op.steps[:-1]
        inner = CommutatorOperator(op.base, rest) if rest else op.base

        def times(k):  # U's form with x_k multiplied by a
            if k == free:
                return a.values * _read(inner, free, ins)
            return _read(inner, free, {**ins, k: a.values * ins[k]})

        return times(slot) - times(0)
    if isinstance(op, DenseBilinearOperator):
        lo, hi = (ins[k].ravel() for k in sorted(ins))
        return np.einsum("jpq,p,q->j", np.moveaxis(op.tensor, free, 0),
                         lo, hi).reshape(op.grid.shape)
    if op.strategy == "direct":
        return _read_direct(op, free, ins)
    return _read_multiplier(op, free, ins)


def apply(op, f: GridFunction, g: GridFunction) -> GridFunction:
    """Apply a bilinear, commutator, transposed or dense operator to (f, g).

    A non-finite output raises DomainError.
    """
    _check_inputs(op.grid, f, g)
    out = GridFunction(op.grid, _read(op, 0, {1: f.values, 2: g.values}))
    if not np.all(np.isfinite(out.values)):
        raise DomainError("operator output is not finite; the symbol or the "
                          "inputs are singular on this grid")
    return out


def transpose(op, which: int):
    """Operator U with <op(f,g), h> = <U(h,g), f> (which=1) or <U(f,h), g> (which=2).

    U reads op's trilinear form with slots 0 and `which` exchanged, so it
    needs no tensor and no new factorization; transposing a transpose
    composes the exchanges, and an exchange undone gives op back.
    """
    if which not in (1, 2):
        raise InvalidInputError(f"which must be 1 or 2, got {which}")
    swap = (1, 0, 2) if which == 1 else (2, 1, 0)
    base, perm = (op.base, op.perm) if isinstance(op, TransposedOperator) else (op, (0, 1, 2))
    perm = tuple(perm[i] for i in swap)
    return base if perm == (0, 1, 2) else TransposedOperator(op.grid, base, perm)


def dense_tensor(op) -> np.ndarray:
    """Materialize W[j,p,q] with op(f,g)_j = sum W[j,p,q] f_p g_q: the small-N oracle."""
    if isinstance(op, DenseBilinearOperator):
        return op.tensor
    if isinstance(op, TransposedOperator):
        return np.transpose(dense_tensor(op.base), op.perm)
    if isinstance(op, CommutatorOperator):
        W = dense_tensor(op.base)
        for slot, mult in op.steps:
            a = mult.values.ravel()
            W = W * ((a[None, :, None] if slot == 1 else a[None, None, :]) - a[:, None, None])
        return W
    grid = op.grid
    M = grid.points_per_axis ** grid.dim
    if M ** 3 > DENSE_BUDGET:
        raise BudgetError(
            f"dense tensor needs N^(3n) = {M ** 3} > {DENSE_BUDGET} entries; shrink N")
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    W = np.empty((M, M, M), dtype=complex)
    for j in range(M):
        sig = _values(op.sigma, grid, x[:, j], xi[:, :, None], xi[:, None, :])
        phase = np.exp(1j * (x[:, j] @ xi))
        W[j] = np.fft.fftn((sig * phase[:, None] * phase[None, :])
                           .reshape(grid.shape * 2)).reshape(M, M)
    return W * (grid.spacing / grid.period) ** (2 * grid.dim)


def verify_transpose_identities(T: BilinearOperator, a: GridFunction,
                                trials: int = 20, seed: int = 0,
                                tol: float = 1e-8) -> dict:
    """Check the transposes of C = [T, a]_1 and [T, a]_2 on random triples
    against their defining pairings <C(f,g), h> = <C^{*1}(h,g), f> = <C^{*2}(f,h), g>.

    The residual slot{j}_transpose{i} of C = [T, a]_j is |<C(f,g), h> -
    <C^{*i}(.,.), .>| normalized by ||f||_2 ||g||_2 ||h||_2, maximized over
    the random triples.
    """
    if trials < 10:
        raise InvalidInputError(f"need >= 10 trials, got {trials}")
    grid = T.grid
    rng = np.random.default_rng(seed)
    nodes = grid.points_per_axis ** grid.dim
    dxn = grid.spacing ** grid.dim

    def rand_fn():
        v = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
        return GridFunction(grid, v.reshape(grid.shape))

    coms = {j: commutator(T, j, a) for j in (1, 2)}
    stars = {(j, i): transpose(C, i) for j, C in coms.items() for i in (1, 2)}
    results = {f"slot{j}_transpose{i}": 0.0 for j, i in stars}
    for _ in range(trials):
        f, g, h = rand_fn(), rand_fn(), rand_fn()
        norm = np.prod([np.linalg.norm(u.values) for u in (f, g, h)]) * dxn ** 1.5
        for j, C in coms.items():
            lhs = pairing(apply(C, f, g), h)
            for i, rhs in ((1, pairing(apply(stars[j, 1], h, g), f)),
                           (2, pairing(apply(stars[j, 2], f, h), g))):
                key = f"slot{j}_transpose{i}"
                results[key] = max(results[key], abs(lhs - rhs) / norm)

    return {
        "residuals": results,
        "max_residual": max(results.values()),
        "verdict": "PASS" if max(results.values()) <= tol else "FAILED",
        "trials": trials,
        "grid_points": grid.points_per_axis,
    }
