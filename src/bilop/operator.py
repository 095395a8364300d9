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
powers, quotients by and negative powers of a single term a b, exp of a
sum or difference, abs of a product and Quad (FTC) nodes, grouping terms
by x-factor, and drops a literal 0 (the parser has folded 0 u to 0).  A
factor mixing x with a frequency, or over M / 8 groups, leaves no
expansion: make_operator selects direct; an explicit multiplier raises
BudgetError.

Each S_s is factored by an adaptive randomized range finder (Halko,
Martinsson and Tropp, arXiv:0909.4061) with a fixed seed, in two widths.
A pass over S draws Gaussian sketch columns, 64 on the first and as many
again as are held on each later one.  The basis Q spans prefixes 16, 32,
64, ... of the columns drawn and stops at the first where a held-out
probe W gives ||(S - Q Q^H S) W|| <= FACTOR_RTOL ||S W||, where a doubling
failed to halve that residual within FACTOR_FLOOR_C eps sqrt(M), the
roundoff of a sum of M terms (Higham 2002; an S constant along one axis,
as for one and eta, stalls at 1-2.6e-14 at 1D N = 1024-8192), or that
spans all M columns; only a prefix wider than the columns drawn makes
another pass.  So S is evaluated as often as by a basis that takes whole
passes, while QR and the SVD of Q^H S, cut at the same relative tail, run
at the width the rank needs.  S is evaluated in FACTOR_BUDGET-entry row blocks:
once if one holds it, else per pass and for Q^H S; a pass past
FACTOR_BUDGET / M columns raises BudgetError.  A streamed S starts its
basis at the first pass's width, since its evaluations dwarf one QR and
narrower prefixes only add QRs (sqrt1's ranks 36-41 at N = 4096-16384
need 64).  Operators are built
whole; non-finite symbol values and outputs raise DomainError.

Each operator is read as a trilinear form Phi(h, f, g) = <T(f,g), h>
under the bilinear dual pairing <u, v> = sum_j u_j v_j dx^n (no
conjugation): apply leaves slot 0 open, and the transposes T^{*1}(h, g)
and T^{*2}(f, h) leave slot 1 or 2 open, so no N^{3n} tensor is built.
The expansion gives Phi = sum_{s,r} <w_s h, (B_{s,r} f)(C_{s,r} g)> with
B and C the multipliers U and V, hence T^{*1}(h, g) = sum_{s,r}
B~_{s,r}(w_s h C_{s,r} g), B~ being B read at frequency index (-k) mod N
per axis; T^{*2} swaps the roles of U and V.  direct leaves the matching
index of its chunked sum open.  dense_tensor materializes the tensor at
small N as the oracle of the tests.

A commutator step [U, a]_slot has the form Phi_U(..., a x_slot, ...) -
Phi_U(a x0, x1, x2).  _read unwinds a chain of d steps, through any
transposes in it, into 2^d signed terms Phi_base(W0 x0, W1 x1, W2 x2),
where each step's multiplier lands on its own slot or on slot 0, and a
transpose permutes the slots.  A multiplier base reads every term in one
pass, and each distinct weighted input goes through its rank stack of
multipliers once: [[T, a]_1, b]_1(f, g) transforms a b f, a f, b f, f and
g, five inputs where one read per term would transform eight.  apply
reduces each term over the rank at once, a cheap weighted sum; a
transpose's reduction transforms a whole stack, so it sums the terms of
one open-slot weight first (pointwise in slot 0 where they share the
other slot's weight) and applies that weight after it.  Direct and dense
bases read the terms one at a time.

A read broadcasts over leading stack axes of its inputs: the FFTs run on
the trailing dim axes, a multiplier base puts its rank axis at -(dim+1),
a direct base evaluates sigma once per chunk of nodes for the whole stack
and contracts it in one batched matrix product, and a dense base
contracts the stack in one einsum.  Multiplier and dense reads of a
stack equal the per-item reads bit for bit; direct ones agree to
roundoff, the matrix product summing in its own order.
verify_transpose_identities stacks its trials in chunks of at most
STACK_ENTRIES entries of the (trials, rank) + grid stack.  On 2 cores, 20 trials of [T, a]_1^{*1}
for theta_sqrt1 read 6.0 -> 1.7 ms at 1D N = 64, 10.8 -> 4.1 ms at
N = 128 and 12.5 -> 6.5 ms at 2D N = 16 stacked, against one trial at a
time; at 1D N = 256 and 512 and 2D N = 32 the chunks read 10.3 -> 9.3,
17.7 -> 13.4 and 34.6 -> 30.4 ms, where one stack of 20 took 39.9 ms at
2D N = 32 (and 50 stacked applies at N = 4096 ran 1.8x slower than
serial ones): past the cap a stack only moves more memory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import BudgetError, DomainError, InvalidInputError
from .grid import Grid, GridFunction
from .parallel import blas, lapack_work
from .symbols.core import Symbol, _pack, symbol_from_expr
from .symbols.expr import BinOp, Call, Neg, Node, Num, Pow, _add, _div, _is, _mul, _neg
from .symbols.ftc import Quad
from .verdict import IDENTITY_TOL, check

DIRECT_BUDGET = 2 ** 28
DENSE_BUDGET = 2 ** 24
FACTOR_BUDGET = 2 ** 22
FACTOR_RTOL = 1e-14
FACTOR_FLOOR_C = 4.0  # one and eta stall at up to 2.7 eps sqrt(M)
SKETCH_START = 64   # first pass width
BASIS_START = 16    # first basis width, a prefix of the first pass
SKETCH_PROBES = 10  # held-out probe columns
SKETCH_SEED = 0
STACK_ENTRIES = 2 ** 17  # entries of a (trials, rank) + grid stack read at once

STRATEGIES = ("direct", "multiplier")


def _flat(mesh) -> np.ndarray:
    """(dim, N^dim) array of a mesh's coordinates, flattened in C order."""
    return np.stack([a.ravel() for a in mesh])


@dataclass(frozen=True)
class LowRank:
    """sigma(x_j, xi_k, eta_l) ~ sum_r w[r, j] u[r, k] v[r, l]: (rank, M) arrays in
    blocks of sizes ranks, w_s on each row of block s; the largest residual of
    the probes, each block's basis width, and the roundoff floor."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    ranks: tuple
    residual: float
    widths: tuple
    floor: float

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
        if _is(node, 0):  # the parser folds a literal 0 factor to 0
            return {}
        return {((repr(node), 0),): (node, one)} if free & xs else {(): (one, node)}
    if isinstance(node, Call) and isinstance(node.arg, BinOp):  # as products:
        u, v, op = node.arg.left, node.arg.right, node.arg.op
        if node.fn == "exp" and op in "+-":  # exp(u +- v) = exp(u) exp(+-v)
            v = _neg(v) if op == "-" else v
            return _separate(BinOp("*", Call("exp", u), Call("exp", v)), cap)
        if node.fn == "abs" and op == "*":  # |u v| = |u| |v|
            return _separate(BinOp("*", Call("abs", u), Call("abs", v)), cap)
    kids = [_separate(c, cap).items() for c in
            ((node.integrand,) if isinstance(node, Quad) else node.children)]
    if isinstance(node, Neg):
        return {k: (a, _neg(b)) for k, (a, b) in kids[0]}
    if isinstance(node, Quad):  # the t-integral scales the frequencies only
        return {k: (a, Quad(b, node.power, node.q)) for k, (a, b) in kids[0]}
    if isinstance(node, BinOp) and node.op in "+-":
        sign = _neg if node.op == "-" else (lambda b: b)
        return _merge([*kids[0], *((k, (a, sign(b))) for k, (a, b) in kids[1])], cap)
    if isinstance(node, BinOp) and node.op == "*":
        return _merge(_times(*kids), cap)
    if isinstance(node, BinOp) and len(kids[1]) == 1:  # by a single term a b
        return _merge(_times(kids[0], [_inverse(*kids[1])]), cap)
    n = node.exponent if isinstance(node, Pow) else 0
    if n > 0 or n < 0 and len(kids[0]) == 1:  # u^n, or (a b)^n
        base = list(kids[0]) if n > 0 else [_inverse(*kids[0])]
        out = dict(base)
        for _ in range(abs(n) - 1):
            out = _merge(_times(out.items(), base), cap)
        return out
    raise ValueError("a factor mixes x with a frequency")


def _inverse(term):
    """1 / (a b) of a term (key, (a, b)), a divisor's mark flipped in the key."""
    k, (a, b) = term
    one = Num(1.0)
    return tuple(sorted((f, 1 - d) for f, d in k)), (_div(one, a), _div(one, b))


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


def x_expansion(sigma: Symbol, cap: int):
    """sigma = sum_s a_s(x) b_s(xi, eta) as [(a_s, b_s)] symbol pairs (one with
    a = 1 if sigma is x-independent), or why it has none in <= cap x-factors."""
    if sigma.x_independent:
        return [(symbol_from_expr(Num(1.0), sigma.declared_class, sigma.dim, sigma.name), sigma)]
    try:
        terms = _separate(sigma.node, cap).values() or [(Num(1.0), Num(0.0))]  # every term 0
    except ValueError as err:
        return str(err)
    return [tuple(symbol_from_expr(f, sigma.declared_class, sigma.dim, sigma.name) for f in ab)
            for ab in terms]


def _expand(sigma: Symbol, grid: Grid):
    """sigma's x-expansion with each b_s factored, or the reason it has none."""
    terms = x_expansion(sigma, grid.points_per_axis ** grid.dim // 8)
    if isinstance(terms, str):
        return terms
    x, zero = _flat(grid.node_mesh()), np.zeros((grid.dim, 1))
    floor = FACTOR_FLOOR_C * np.finfo(float).eps * np.sqrt(x.shape[1])
    parts = [_factorize(b, grid, floor) for _, b in terms]
    u, v = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
    ranks = tuple(len(p[0]) for p in parts)
    w = [_values(a, grid, x, zero, zero) for a, _ in terms]
    return LowRank(u, v, np.repeat(w, ranks, axis=0), ranks, max(p[2] for p in parts),
                   tuple(p[3] for p in parts), floor)


def _factorize(sigma: Symbol, grid: Grid, floor: float):
    """(u, v, residual, width) with S ~ u.T @ v for S[k, l] = sigma(x_0, xi_k, eta_l)
    and the basis width reached.  A pass draws SKETCH_START + SKETCH_PROBES
    columns of S Omega, a later one as many as Y holds; Q spans prefixes of
    Y of widths BASIS_START, 2 BASIS_START, ... (SKETCH_START, 2 SKETCH_START,
    ... when S is streamed), and a pass is made only when a prefix outgrows
    Y.  From the first pass width on, Q is that of all Y.  A doubling that
    fails to halve a residual at or below floor ends the search."""
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
    probe, residual, last, k = None, np.inf, np.inf, 0
    first = BASIS_START if held else SKETCH_START  # a streamed S: QR the whole first pass
    while k < M and residual > FACTOR_RTOL and not last / 2 < residual <= floor:
        last, k = residual, min(M, max(2 * k, first))
        if k > Y.shape[1]:  # the basis outgrew the columns drawn: one more pass
            width = min(M, max(2 * Y.shape[1], SKETCH_START))
            if width * M > FACTOR_BUDGET:
                raise BudgetError(
                    f"symbol {sigma.name!r} reached basis width {Y.shape[1]} on {M} "
                    f"frequencies (held-out residual {residual:.3g} > {FACTOR_RTOL:g}); "
                    f"a wider sketch would exceed {FACTOR_BUDGET} entries: shrink N")
            new = width - Y.shape[1]
            omega = rng.standard_normal((M, new if probe is not None else new + SKETCH_PROBES))
            with blas(min(step, M) * M * omega.shape[1]):
                sketch = np.concatenate([S @ omega for _, S in blocks()])
            if probe is None:
                probe = sketch[:, new:]
            Y = np.hstack([Y, sketch[:, :new]])
        with blas(lapack_work(M, k)):
            Q = np.linalg.qr(Y[:, :k])[0]
        scale = np.linalg.norm(probe)
        residual = np.linalg.norm(probe - Q @ (Q.conj().T @ probe)) / scale if scale else 0.0

    with blas(k * min(step, M) * M):
        R = sum(Q[rows].conj().T @ S for rows, S in blocks())  # Q^H S
    with blas(lapack_work(M, k)):
        u, s, vh = np.linalg.svd(R, full_matrices=False)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2)[::-1])  # tail[r] = ||s[r:]||
    rank = int(np.count_nonzero(tail > FACTOR_RTOL * tail[0]))
    return ((Q @ u[:, :rank]) * s[:rank]).T, vh[:rank], float(residual), k


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
    """One commutator step [inner, mult]_slot over an operator or another step:
    an iterated commutator is a chain of steps, the outermost applied last."""

    inner: object
    slot: int
    mult: GridFunction

    def __post_init__(self):
        if self.slot not in (1, 2):
            raise InvalidInputError(f"slot must be 1 or 2, got {self.slot}")
        if self.mult.grid != self.inner.grid:
            raise InvalidInputError("multiplier grid does not match operator grid")

    @property
    def grid(self) -> Grid:
        return self.inner.grid


def commutator(base, slot: int, mult: GridFunction, *more) -> CommutatorOperator:
    """commutator(T, 1, a), or commutator(T, 1, a, 2, b) = [[T, a]_1, b]_2 for
    the iterated case: each (slot, multiplier) pair is one step over the last."""
    if len(more) % 2 != 0:
        raise InvalidInputError("extra steps come in (slot, multiplier) pairs")
    op = CommutatorOperator(base, slot, mult)
    for i in range(0, len(more), 2):
        op = CommutatorOperator(op, int(more[i]), more[i + 1])
    return op


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
    """The double frequency sum per node, with slot `free` of (x_j, xi_k, eta_l) open.
    sigma is evaluated once per chunk of nodes for a whole stack of inputs."""
    grid = op.grid
    n, M = grid.dim, grid.points_per_axis ** grid.dim
    if M ** 3 > DIRECT_BUDGET:
        raise BudgetError(
            f"direct strategy costs N^(3n) = {M ** 3} > {DIRECT_BUDGET}; "
            f"shrink N (or use the multiplier strategy)")
    dxn, axes = grid.spacing ** n, tuple(range(-n, 0))
    lead = next(iter(ins.values())).shape[:-n]  # the stack axes

    def flat(v):  # v with its grid axes as one
        return v.reshape(v.shape[:-n] + (M,))

    h = flat(ins[0]) if 0 in ins else np.ones(M)
    fhat, ghat = (flat(np.fft.fftn(ins[k], axes=axes)) * dxn if k in ins else np.ones(M)
                  for k in (1, 2))
    x, xi = _flat(grid.node_mesh()), _flat(grid.frequency_mesh())
    out = np.zeros(lead + (M,), dtype=complex)
    chunk = max(1, DIRECT_BUDGET // (64 * M * M))
    for start in range(0, M, chunk):
        rows = slice(start, start + chunk)
        xs = x[:, rows]
        sig = _values(op.sigma, grid, xs[:, :, None, None], xi[:, None, :, None],
                      xi[:, None, None, :])
        phase = np.exp(1j * (xs.T @ xi))
        a, b = h[..., rows, None] * fhat[..., None, :] * phase, ghat[..., None, :] * phase
        # t[j, m, s] = sum_p S[j, m, p] y[s, j, p] over the stack's items s,
        # S = sigma with y's frequency last, is one batched matrix product;
        # z times t is then summed over the index that is not left open
        (z, y), S = ((b, a), np.swapaxes(sig, 1, 2)) if free == 2 else ((a, b), sig)
        y = np.ascontiguousarray(np.moveaxis(y.reshape(-1, *y.shape[-2:]), 0, -1))
        t = (S @ y.view(float)).view(complex) if np.isrealobj(S) else S @ y
        zt = z * np.moveaxis(t, -1, 0).reshape(lead + t.shape[:-1])
        out[..., slice(None) if free else rows] += zt.sum(axis=-1 if free == 0 else -2)
    out = out.reshape(lead + grid.shape)
    if free:  # sum_k dx^n e^{-i xi_k x_p} G_k is a forward transform
        out = np.fft.fftn(out, axes=axes) * dxn
    return out / grid.period ** (2 * n)


def _read_multiplier(op: BilinearOperator, free: int, ins: dict, terms, weight) -> np.ndarray:
    """sum_t sign_t W_free sum_s sum_r <w_s W_0 x0, (B_sr W_1 x1)(C_sr W_2 x2)> over
    the terms of _read with slot `free` open, B_sr and C_sr the Fourier
    multipliers u and v of the expansion.  Each distinct weighted input passes
    through its multipliers once.  The stacks of one transformed slot are
    kept; those of slot 1 under apply are made one at a time, since a higher
    peak of (rank,) + shape arrays lets the allocator hand memory back and
    fault it in again on every read, which at N = 4096 cost more than the
    transforms it saved."""
    low, grid = op.lowrank(), op.grid
    shape, axes = (low.rank,) + grid.shape, tuple(range(-grid.dim, 0))
    ranked = -(grid.dim + 1)  # the rank axis, after any stack axes
    mult = {1: low.u.reshape(shape), 2: low.v.reshape(shape)}
    w = low.w.reshape(shape)
    kept = 2 if free == 0 else 3 - free  # the transformed slot whose stacks are kept
    stacks = {}

    def through(k, key):  # slot k's input weighted by key, through its multipliers
        # the (N/L)^{2n} of the inverse sums cancels the dx^{2n} of fhat and ghat
        x = np.fft.fftn(weight(key, ins[k]), axes=axes)
        return np.fft.ifftn(mult[k] * np.expand_dims(x, ranked), axes=axes)

    def stack(key):
        if key not in stacks:
            stacks[key] = through(kept, key)
        return stacks[key]

    def on(k):  # a term's weight key on slot k
        return lambda term: term[1][k]

    for _, keys in terms:  # the long-lived stacks first: then the heap does not
        stack(keys[kept])  # grow and shrink (page faults) under the streamed ones
    out = 0
    if free == 0:  # the reduction is a weighted sum over r: each term reduces at once
        for key, group in groupby(sorted(terms, key=on(1)), on(1)):
            x = through(1, key)
            for sign, keys in group:
                y = weight(keys[0], (x * stack(keys[2]) * w).sum(axis=ranked))
                out = out + y if sign > 0 else out - y
            del x  # before the next group's stack is made
        return out
    # the reduction transforms a whole stack: sum every term of one open
    # weight first, those sharing the kept slot's weight pointwise in slot 0
    flipped = np.roll(np.flip(mult[free], axes), 1, axes)  # the transposed multiplier
    order = sorted(terms, key=lambda term: (term[1][free], term[1][kept]))
    for key, by_open in groupby(order, on(free)):
        total = None
        for key_kept, group in groupby(by_open, on(kept)):
            x = stack(key_kept) * np.expand_dims(
                sum(sign * weight(keys[0], ins[0]) for sign, keys in group), ranked)
            total = x if total is None else np.add(total, x, out=total)
        total *= w
        total = np.fft.fftn(total, axes=axes)
        total *= flipped
        out = out + weight(key, np.fft.ifftn(total.sum(axis=ranked), axes=axes))
    return out


def _read(op, free: int, ins: dict) -> np.ndarray:
    """Read op's trilinear form Phi(x0, x1, x2) = <op(x1, x2), x0> with slot
    `free` open: the grid array X with Phi = <X, x_free>, given the values
    ins = {slot: array} of the two other slots.  apply reads slot 0; the
    transposes read slots 1 and 2.

    Transposes and commutator steps above the base operator unwind into
    signed terms Phi = sum_t sign_t Phi_base(W_0 x0, W_1 x1, W_2 x2): a step
    [U, a]_slot splits each term in two, a on its slot and minus a on slot 0,
    and a transpose permutes the slots.  Each W_k is a key of step indices,
    the product of those steps' multipliers.

    Both values may carry the same leading stack axes: the result has
    them too, each item the read of that item's inputs."""
    mults, terms = [], [(1, ((), (), ()))]
    while isinstance(op, (TransposedOperator, CommutatorOperator)):
        if isinstance(op, TransposedOperator):
            p = op.perm
            free, ins = p[free], {p[k]: v for k, v in ins.items()}
            terms = [(sign, tuple(keys[p.index(k)] for k in range(3))) for sign, keys in terms]
            op = op.base
            continue
        i = len(mults)
        mults.append(op.mult.values)
        terms = [(sign * s, tuple(key + (i,) if k == to else key for k, key in enumerate(keys)))
                 for sign, keys in terms for s, to in ((1, op.slot), (-1, 0))]
        op = op.inner

    def weight(key, x):  # x times the multipliers of the steps in key
        for i in key:
            x = mults[i] * x
        return x

    if isinstance(op, BilinearOperator) and op.strategy == "multiplier":
        return _read_multiplier(op, free, ins, terms, weight)
    read = _read_direct if isinstance(op, BilinearOperator) else _read_dense
    out = 0
    for sign, keys in terms:
        term = weight(keys[free], read(op, free, {k: weight(keys[k], v) for k, v in ins.items()}))
        out = out + term if sign > 0 else out - term
    return out


def _read_dense(op: DenseBilinearOperator, free: int, ins: dict) -> np.ndarray:
    """The tensor contracted with the two given slots, over any stack at once."""
    grid = op.grid
    lead = next(iter(ins.values())).shape[:-grid.dim]  # the stack axes
    lo, hi = (ins[k].reshape(lead + (-1,)) for k in sorted(ins))
    return np.einsum("jpq,...p,...q->...j", np.moveaxis(op.tensor, free, 0),
                     lo, hi).reshape(lead + grid.shape)


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise DomainError("operator output is not finite; the symbol or the "
                          "inputs are singular on this grid")
    return out


def apply(op, f: GridFunction, g: GridFunction) -> GridFunction:
    """Apply a bilinear, commutator, transposed or dense operator to (f, g).

    A non-finite output raises DomainError.
    """
    _check_inputs(op.grid, f, g)
    return GridFunction(op.grid, _finite(_read(op, 0, {1: f.values, 2: g.values})))


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
        a = op.mult.values.ravel()
        return dense_tensor(op.inner) * ((a[None, :, None] if op.slot == 1 else a[None, None, :])
                                         - a[:, None, None])
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
                                trials: int = 20, seed: int = 0) -> dict:
    """Check the transposes of C = [T, a]_1 and [T, a]_2 on random triples
    against their defining pairings <C(f,g), h> = <C^{*1}(h,g), f> = <C^{*2}(f,h), g>.

    The residual slot{j}_transpose{i} of C = [T, a]_j is |<C(f,g), h> -
    <C^{*i}(.,.), .>| normalized by ||f||_2 ||g||_2 ||h||_2, maximized over
    the random triples, and passes within IDENTITY_TOL.  The triples are
    drawn one after another, then stacked: each of the six operators reads a
    chunk of trials at once, the chunk's (trials, rank) + grid stack held
    under STACK_ENTRIES.  A non-finite output raises DomainError.
    """
    if trials < 10:
        raise InvalidInputError(f"need >= 10 trials, got {trials}")
    grid = T.grid
    rng = np.random.default_rng(seed)
    nodes = grid.points_per_axis ** grid.dim
    dxn = grid.spacing ** grid.dim

    def rand_fn():
        v = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
        return v.reshape(grid.shape)

    triples = [tuple(rand_fn() for _ in range(3)) for _ in range(trials)]
    rank = T.lowrank().rank if T.strategy == "multiplier" else 1
    per = max(1, STACK_ENTRIES // (rank * nodes))
    coms = {j: commutator(T, j, a) for j in (1, 2)}
    stars = {(j, i): transpose(C, i) for j, C in coms.items() for i in (1, 2)}
    results = {f"slot{j}_transpose{i}": 0.0 for j, i in stars}

    def pairings(op, x, y, z):  # <op(x, y), z> per stacked trial
        out = _finite(_read(op, 0, {1: x, 2: y})) * z
        return [complex(v * dxn) for v in out.reshape(len(out), -1).sum(axis=1)]

    for start in range(0, trials, per):
        f, g, h = (np.stack(x) for x in zip(*triples[start:start + per]))
        norms = [np.prod([np.linalg.norm(u) for u in t]) * dxn ** 1.5
                 for t in triples[start:start + per]]
        for j, C in coms.items():
            lhs = pairings(C, f, g, h)
            for i, rhs in ((1, pairings(stars[j, 1], h, g, f)),
                           (2, pairings(stars[j, 2], f, h, g))):
                key = f"slot{j}_transpose{i}"
                results[key] = max([results[key]] + [
                    abs(p - q) / norm for p, q, norm in zip(lhs, rhs, norms)])

    bound = check("max_residual", max(results.values()), "<=", IDENTITY_TOL)
    return {
        "residuals": results,
        "max_residual": bound.statistic,
        "verdict": "PASS" if bound.holds else "FAILED",
        "trials": trials,
        "grid_points": grid.points_per_axis,
        "bounds": (bound,),
    }
