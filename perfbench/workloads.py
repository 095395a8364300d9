"""Workloads of the bilop benchmark: task lists, expected outcomes, seeded inputs.

A task is one ``bilop`` command line, run in-process through
``bilop.cli.main``.  Every task carries the outcome it must reproduce:

* fixed tasks pin the exit code, the verdict and one headline statistic
  recorded from the commit that introduced the benchmark;
* generated ``apply`` tasks are checked against brute-force oracles
  (``checks.py``), because their inputs change with the seed;
* defect probes pin the *correct* outcome of a known defect (ROADMAP
  item 5).  They fail until the defect is fixed and are reported apart
  from the gated tasks (see ``run.py``).

The seed draws the symbols and inputs of the generated ``apply`` tasks
in ``verify``; the structure of that mix (how many tasks of each
dimension and strategy) does not depend on it, so run time stays
comparable across seeds.  ``scan`` and ``kernel`` are fixed task lists
with pinned outcomes, the same for every seed.  Tasks run in the order
listed: the first task of a pass pays the process's warm-up (first
BLAS call, first large allocations), so a seed-dependent order would
add spread without adding coverage.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# Relative tolerance of pinned statistics: loose enough for roundoff and
# finite-difference-level (1e-9) changes, tight enough that any change in
# what an algorithm computes shows.
RTOL = 1e-6


@dataclass(frozen=True)
class Expect:
    """Outcome a task must reproduce.

    rc / verdict: required exit code and verdict (None: not checked).
    verdict_not: a verdict the task must not report.
    stat: dotted path into the envelope's ``data`` of the headline statistic.
    value: pinned value of ``stat``, compared within ``rtol``.
    ceiling: for roundoff-level statistics, an upper bound instead of a value.
    """

    rc: int | None = 0
    verdict: str | None = None
    verdict_not: str | None = None
    stat: str | None = None
    value: float | None = None
    rtol: float = RTOL
    ceiling: float | None = None


@dataclass(frozen=True)
class ApplyCase:
    """A generated apply task's inputs in a form the oracles can evaluate.

    sigma, f, g are Python expressions over numpy names; they are the
    CLI strings with ``^`` spelled ``**``.
    """

    dim: int
    n: int
    sigma: str
    f: str
    g: str


@dataclass(frozen=True)
class Task:
    argv: tuple
    expect: Expect = field(default_factory=Expect)
    case: ApplyCase | None = None
    defect: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _t(cmd: str, expect: Expect, defect: bool = False) -> Task:
    return Task(tuple(cmd.split()), expect, defect=defect)


# ------------------------------------------------------------------ scan
# A few long-lived operators, each applied many times.  The 1D and 2D
# multiplier folds evaluate sigma at N^2 frequency pairs on every apply,
# so a faster operator representation (ROADMAP item 2) must show here.
# norm-scan and compactness-probe also run thread_map, which separates
# wall_s from cpu_s.  The 2D norm scan covers the 2D Python fold loops
# (at k-max 6 its verdict is INCONCLUSIVE, so it keeps k-max 8).  The
# separated wbp geometry is used because common-center exits 2 on sqrt1.
# Every workload is sized so that one pass takes 4-6 s on 2 cores: a run
# then holds five or more passes, whose median is steady on a noisy box.
SCAN = (
    _t("norm-scan --op commutator1 --n 1024 --k-max 16",
       Expect(0, "BOUNDED", stat="max_min_ratio", value=1.6428044172404035)),
    _t("wbp-scan --symbol sqrt1 --geometry separated --n 1024",
       Expect(0, "PASS", stat="ratio", value=1.553138646639064)),
    _t("compactness-probe --n 256",
       Expect(0, "consistent with compactness", stat="smooth.max_norm",
              value=0.008361472720551282)),
    Task(("norm-scan", "--dim", "2", "--n", "32", "--op", "commutator1",
          "--a", "sin(x1)*cos(x2)", "--k-max", "8"),
         Expect(0, "BOUNDED", stat="max_min_ratio", value=1.5007957539999541)),
)

# ---------------------------------------------------------------- verify
# Many short-lived operators, each built and checked once: the same
# operator layer used the other way round.  Work moved from apply into a
# per-operator setup wins on scan and loses here.  The dense N^3 tensors
# of verify-transpose and check-t1 (ROADMAP item 3) dominate peak memory;
# check-t1 at N=128 builds 32 MiB tensors.
VERIFY_FIXED = (
    _t("verify-transpose --symbol sqrt1 --n 64",
       Expect(0, "PASS", stat="max_residual", ceiling=1e-12)),
    _t("verify-transpose --symbol cm0 --n 64",
       Expect(0, "PASS", stat="max_residual", ceiling=1e-12)),
    _t("verify-transpose --symbol theta_sqrt1 --n 64",
       Expect(0, "PASS", stat="max_residual", ceiling=1e-12)),
    _t("check-t1 --symbol sqrt1 --n 128",
       Expect(0, "PASS", stat="bmo.slot1_star2.value", value=0.20230084336907078)),
    _t("check-t1 --symbol theta_sqrt1 --n 64",
       Expect(0, "PASS", stat="bmo.slot1_star2.value", value=0.41033966644649456)),
    # ROADMAP item 5: 1/xi is singular at xi = 0; apply must refuse (exit 1)
    # instead of reporting "complete" with a NaN output.
    _t("apply --symbol 1/xi --n 64", Expect(rc=1), defect=True),
)

# ---------------------------------------------------------------- kernel
# No bilinear apply at all: kernel quadrature and symbol derivatives.
# This is the workload of exact AST derivatives (ROADMAP item 4), and the
# one where operator changes (items 2 and 3) must show no change.

# Zero-order seminorm ratio per 1D catalog symbol: (exit code, verdict, value).
# The two bad_* symbols are misdeclared on purpose and must be flagged.
_SEMINORMS_1D = {
    "one": (0, "BOUNDED", 1.0),
    "xi": (0, "BOUNDED", 0.992581870393626),
    "eta": (0, "BOUNDED", 0.9946895293630338),
    "sqrt1": (0, "BOUNDED", 0.9946974285505732),
    "theta_sqrt1": (0, "BOUNDED", 2.896825458691245),
    "cm0": (0, "BOUNDED", 0.9999999912696294),
    "bad_xieta": (2, "FAILED", 3756.1460689715686),
    "bad_linear": (2, "FAILED", 15099.933131517877),
}
# FTC reconstruction residuals.  Roundoff-level ones get a ceiling; the
# others are quadrature errors, small differences pinned within 1e-3.
_DECOMPOSE_1D = {
    "one": Expect(0, "PASS", stat="reconstruction_residual", ceiling=1e-12),
    "xi": Expect(0, "PASS", stat="reconstruction_residual", ceiling=1e-12),
    "eta": Expect(0, "PASS", stat="reconstruction_residual", ceiling=1e-12),
    "sqrt1": Expect(0, "PASS", stat="reconstruction_residual",
                    value=3.307846441202855e-09, rtol=1e-3),
    "theta_sqrt1": Expect(0, "PASS", stat="reconstruction_residual",
                          value=8.006935559023987e-09, rtol=1e-3),
    "cm0": Expect(2, "FAILED", stat="reconstruction_residual",
                  value=3.0392180672134117e-07, rtol=1e-3),
    "bad_xieta": Expect(0, "PASS", stat="reconstruction_residual", ceiling=1e-10),
    "bad_linear": Expect(0, "PASS", stat="reconstruction_residual", ceiling=1e-12),
}

KERNEL = (
    _t("fit-decay --symbol sqrt1 --count 8",
       Expect(0, "BOUNDED", stat="exponent_fit", value=-3.765112423941699)),
    _t("fit-decay --symbol theta_sqrt1 --deriv 1,0,0 --count 8",
       Expect(0, "BOUNDED", stat="exponent_fit", value=-4.491611383238862)),
    _t("certify-czk --symbol sqrt1 --samples 200",
       Expect(0, "BOUNDED", stat="size_sup.0", value=17.218676000171243)),
    _t("seminorms --dim 2 --box 256",
       Expect(0, "BOUNDED", stat="entries.0.ratio", value=0.8815387301384384)),
    *(_t(f"seminorms --symbol {name}",
         Expect(rc, verdict, stat="entries.0.ratio", value=value))
      for name, (rc, verdict, value) in _SEMINORMS_1D.items()),
    *(_t(f"decompose --symbol {name}", expect)
      for name, expect in _DECOMPOSE_1D.items()),
    # ROADMAP item 5: the shells never approach the singular set xi = 0,
    # so the verdict must not be BOUNDED.
    _t("seminorms --symbol 1/xi", Expect(rc=None, verdict_not="BOUNDED"),
       defect=True),
)


# ------------------------------------------------------ seeded generator
# Symbols are sigma = A(x) * B(xi, eta) + C(xi, eta) (x-dependent, the
# direct strategy) or B + c * C (x-independent, the multiplier fold), with
# A, B, C drawn from smooth building blocks in the expression grammar:
# sin, cos, exp, sqrt and integer powers.  Every block is smooth and its
# order is known, so the declared class (m, rho, delta) passed to the CLI
# is honest.  The frequency blocks B and C cost different amounts to
# evaluate, and in 2D direct apply they dominate; so each group of tasks
# deals its 2 * count blocks from a shuffled deck holding every template
# exactly 2 * count / 6 times (``_deal``), and the seed changes which task
# gets which block, not the total.

_COEF = ("1", "1.5", "2", "2.5", "3", "4")
_FREQ = ("1", "2", "3")


def _spatial(rng, dim):
    c, k = rng.choice(("2", "2.5", "3")), rng.choice(_FREQ)
    if dim == 1:
        return rng.choice((f"({c}+sin({k}*x))", f"({c}+cos({k}*x))",
                           f"exp(sin({k}*x))", f"exp(cos({k}*x))"))
    return rng.choice((f"({c}+sin(x1)*cos({k}*x2))", f"({c}+cos({k}*x1+x2))",
                       f"exp(sin(x1+{k}*x2))", f"exp(cos({k}*x1)*sin(x2))"))


# (template, order m) of smooth frequency blocks in BS^m_{1,0}
_FREQUENCY_BLOCKS = (
    ("sqrt({c}+{r2})", 1),
    ("{a}/sqrt({c}+{r2})", 0),
    ("({d}+{b}^2)/({c}+{r2})", 0),
    ("cos({a}/sqrt({c}+{r2}))", 0),
    ("exp(-({r2})/{c}^2)", 0),
    ("{a}*{b}/({c}+{r2})^2", -2),
)


def _frequency(rng, dim, block):
    """(expression, order m) of one frequency block with drawn constants."""
    template, m = block
    if dim == 1:
        r2, a, b = "xi^2+eta^2", "xi", "eta"
    else:
        r2, a, b = "xi1^2+xi2^2+eta1^2+eta2^2", "xi1", "eta2"
    return template.format(r2=r2, a=a, b=b, c=rng.choice(_COEF),
                           d=rng.choice(_COEF)), m


def _input(rng, dim):
    k, j, a = rng.choice(("1", "2", "3", "5")), rng.choice(_FREQ), rng.choice(_COEF)
    if dim == 1:
        return rng.choice((f"sin({k}*x)+{a}*cos({j}*x)", f"exp(sin({k}*x))",
                           f"cos({k}*x)^2+sin({j}*x)"))
    return rng.choice((f"sin({k}*x1)*cos({j}*x2)", f"exp(cos(x1+{k}*x2))",
                       f"cos({k}*x1)^2+sin({j}*x2)"))


def _apply_task(dim, n, symbol_cli, sigma_py, m, f, g) -> Task:
    argv = ["apply", "--symbol", symbol_cli, "--n", str(n), "--f", f, "--g", g]
    if dim == 2:
        argv[1:1] = ["--dim", "2"]
    if m is not None:
        argv += ["--m", str(m)]
    case = ApplyCase(dim, n, sigma_py, f.replace("^", "**"), g.replace("^", "**"))
    return Task(tuple(argv), Expect(0, "complete"), case=case)


def _generated_symbol(rng, dim, x_dependent, blocks):
    b, mb = _frequency(rng, dim, blocks[0])
    c, mc = _frequency(rng, dim, blocks[1])
    if x_dependent:
        expr = f"{_spatial(rng, dim)}*({b})+{c}"
    else:
        expr = f"{b}+{rng.choice(_COEF)}*{c}"
    return expr, max(mb, mc)


# Structure of the generated mix: (dim, N, kind, count).  1D at N=256 and
# 2D at N=16 are the largest grids the direct strategy's budget allows
# at a fraction of a second per apply.  The counts follow one rule: every
# (dimension, strategy) group holds six operators.  Each task builds a new
# operator, so a per-(symbol, grid) setup such as ROADMAP item 2's (about
# 0.4 s, replacing all three strategies) is paid once per task, and verify
# weighs it one to one across strategies: against direct applies that it
# mostly saves (median 0.26 s in 1D, 0.37 s in 2D on 2 cores) and against
# multiplier and separable applies it only adds to (0.02-0.06 s).  Six is
# a multiple of 3, so each group's 2 * count blocks use every one of the
# six frequency templates equally often.  Measured on 2 cores over four
# seeds, the generated tasks take about 72 % of a verify pass's task time
# (6.1-6.9 s): direct 64 % (1D 24 %, 2D 40 %), multiplier and separable
# together 8 %; the fixed dense-tensor tasks take the other 28 %.
APPLY_MIX = (
    (1, 256, "direct", 6),
    (1, 256, "multiplier", 6),
    (1, 256, "separable", 6),
    (2, 16, "direct", 6),
    (2, 16, "multiplier", 6),
)
# Separable catalog symbols and the same symbol in the oracle's terms.
_SEPARABLE = {"xi": "xi + 0*eta", "eta": "eta + 0*xi"}


def _deal(rng, count) -> list:
    """2 * count frequency blocks, each template equally often, shuffled."""
    copies, left = divmod(2 * count, len(_FREQUENCY_BLOCKS))
    if left:
        raise ValueError(f"{count} tasks cannot use all {len(_FREQUENCY_BLOCKS)} "
                         "frequency templates equally often")
    deck = list(_FREQUENCY_BLOCKS) * copies
    rng.shuffle(deck)
    return deck


def generated_apply_tasks(seed: int) -> list:
    rng = random.Random(seed)
    tasks = []
    for dim, n, kind, count in APPLY_MIX:
        deck = _deal(rng, count)
        for i in range(count):
            f, g = _input(rng, dim), _input(rng, dim)
            if kind == "separable":
                name = rng.choice(sorted(_SEPARABLE))
                tasks.append(_apply_task(dim, n, name, _SEPARABLE[name], None, f, g))
                continue
            expr, m = _generated_symbol(rng, dim, kind == "direct", deck[2 * i:2 * i + 2])
            tasks.append(_apply_task(dim, n, expr, expr.replace("^", "**"), m, f, g))
    return tasks


def workload_tasks(name: str, seed: int) -> list:
    """The task list of one workload pass."""
    if name == "scan":
        return list(SCAN)
    if name == "verify":
        return list(VERIFY_FIXED) + generated_apply_tasks(seed)
    if name == "kernel":
        return list(KERNEL)
    raise KeyError(f"unknown workload {name!r} (have {WORKLOADS})")


WORKLOADS = ("scan", "verify", "kernel")

# Every subcommand some workload runs; the trace reports cli.<name>_s for each.
SUBCOMMANDS = ("norm-scan", "wbp-scan", "compactness-probe", "verify-transpose",
               "check-t1", "apply", "fit-decay", "certify-czk", "seminorms",
               "decompose")
