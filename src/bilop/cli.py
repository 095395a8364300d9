"""Command-line front-end: configs in, reproducible reports out.

Each subcommand maps 1:1 to a library operation.  Options may come
from a single JSON config document (--config) with explicit flags
winning; unknown config keys are rejected with their JSON path.  Flags
and config values go through one parser, _typed, as the type of their
default; every float option but the Lebesgue exponents p and q must be
finite.  No option has only one valid value: r follows from 1/r = 1/p +
1/q, and identity checks compare against verdict.IDENTITY_TOL.  Every
run prints the shared report envelope {operation, config, verdict,
data} as one line of JSON (``python -m json.tool`` indents it) and
appends the same line (plus CSV for scan tables) under the output
directory, in files named {subcommand}-{timestamp}-{seedhash}.

Exit status: 0 when the verdict is PASS/BOUNDED/complete (or the
comparative "consistent with compactness"), 2 when a check ran to
completion with any other verdict (FAILED, GROWING, INCONCLUSIVE or the
comparative "inconclusive"), 1 on errors of any kind (bad flags, bad
config, parse errors, budget refusals).  Each check's envelope lists its
bounds: every statistic beside its cut-off and signed margin.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (calderon_scan, check_t1_conditions,
                       compactness_probe, compare_probes, converse_check,
                       kato_ponce_check, norm_scan, wbp_scan)
from .errors import BilopError, ConfigError, DomainError, SymbolParseError
from .grid import Grid, GridFunction, lp_norm
from .kernel import (certify_cz_commutator_kernel, fit_kernel_decay,
                     kernel_slice, ray_offsets)
from .operator import (FACTOR_RTOL, apply, commutator, make_operator,
                       verify_transpose_identities)
from .parallel import worker_count
from .reports import envelope, write_report
from .symbols import (FAMILY_NAMES, MULTIPLIER_NAMES, SymbolClassParams,
                      catalog_names, catalog_symbol, estimate_seminorms,
                      ftc_decompose, multiplier_function, parse_symbol_expr,
                      reconstruction_residual, symbol_catalog,
                      symbol_from_expr)
from .symbols.expr import VARIABLES
from .symbols.ftc import reconstruction_verdict

PASS_VERDICTS = {"PASS", "BOUNDED", "complete", "consistent with compactness"}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage problems (2 is reserved for verdicts)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- resolvers

def resolve_symbol(cfg):
    name = str(cfg["symbol"])
    dim = int(cfg["dim"])
    if name in catalog_names(dim):  # only the named entry is parsed
        return catalog_symbol(name, dim)
    params = SymbolClassParams(float(cfg["m"]), float(cfg["rho"]), float(cfg["delta"]))
    return symbol_from_expr(name, params, dim=dim)


def resolve_multiplier(spec: str, grid: Grid) -> GridFunction:
    spec = str(spec)
    if spec in MULTIPLIER_NAMES:
        return multiplier_function(spec, grid)
    node = parse_symbol_expr(spec)
    env = dict(zip(VARIABLES[grid.dim][:grid.dim], grid.node_mesh()))
    extra = node.free_vars() - set(env)
    if extra:
        raise ConfigError(
            f"multiplier may only use {sorted(env)}, found {sorted(extra)}")
    with np.errstate(all="ignore"):  # a non-finite sample is raised below
        vals = np.asarray(node.eval(env)) * np.ones(grid.shape)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"multiplier {spec!r} is not finite on the grid")
    return GridFunction(grid, vals.astype(complex))


def _grid(cfg) -> Grid:
    return Grid(dim=int(cfg["dim"]), points_per_axis=int(cfg["n"]),
                period=float(cfg["period"]))


_OP_STEPS = {"base": (), "commutator1": ((1, "a"),), "commutator2": ((2, "a"),),
             "iterated12": ((1, "a"), (2, "b"))}


def _resolve_op(cfg, grid):
    """T_sigma or a commutator of it; inputs resolve before T is built."""
    kind = str(cfg["op"])
    if kind not in _OP_STEPS:
        raise ConfigError(f"unknown operator kind {kind!r}", path="$.op")
    steps = [v for slot, key in _OP_STEPS[kind]
             for v in (slot, resolve_multiplier(cfg[key], grid))]
    T = make_operator(resolve_symbol(cfg), grid)
    return commutator(T, *steps) if steps else T


def _int_list(cfg, key: str) -> tuple:
    """cfg[key], a list or comma-separated text, as ints; ConfigError names a
    bad token."""
    value = cfg[key]
    tokens = value if isinstance(value, (list, tuple)) else [
        tok for tok in str(value).split(",") if tok.strip()]
    return tuple(_typed(key, tok, 0) for tok in tokens)


# ------------------------------------------------------------------ runners
# each returns (verdict, data, table-or-None)

def _run_apply(cfg):
    grid = _grid(cfg)
    f = resolve_multiplier(cfg["f"], grid)
    g = resolve_multiplier(cfg["g"], grid)
    T = make_operator(resolve_symbol(cfg), grid, cfg["strategy"])
    out = apply(T, f, g)
    data = {"strategy": T.strategy}
    if T.strategy == "multiplier":
        low = T.lowrank()
        data.update(rank=low.rank, residual=low.residual, factor_rtol=FACTOR_RTOL,
                    factor_floor=low.floor, basis_widths=list(low.widths),
                    parities=list(low.parities), folded_shapes=[list(f) for f in low.folds],
                    row_blocks=list(low.row_blocks), workers=worker_count(), x_rank=low.x_rank)
    data.update(l2_norm=lp_norm(out, 2), linf_norm=lp_norm(out, np.inf),
                values=out.values)
    flat = out.values.ravel()
    table = (("index", "re", "im"),
             list(zip(range(flat.size), flat.real.tolist(), flat.imag.tolist())))
    return "complete", data, table


def _run_kernel_slice(cfg):
    sigma = resolve_symbol(cfg)
    L = float(cfg["period"])
    level = float(cfg["level"])
    radii = np.geomspace(L / float(cfg["r_min_div"]), L / float(cfg["r_max_div"]),
                         int(cfg["count"]))
    x0, th = float(cfg["x"]), np.deg2rad(float(cfg["angle"]))
    offsets = [(x0 - u, x0 - v) for u, v in zip(*ray_offsets(radii, th))]
    sl = kernel_slice(sigma, level, x0, offsets, period=L)
    data = {"x": x0, "level": level, "radii": list(radii),
            "values": sl.values, "quadrature": sl.quadrature}
    table = (("radius", "abs", "re", "im"),
             [(r, abs(v), v.real, v.imag) for r, v in zip(radii, sl.values)])
    return "complete", data, table


def _run_fit_decay(cfg):
    sigma = resolve_symbol(cfg)
    L = float(cfg["period"])
    deriv = _int_list(cfg, "deriv")
    levels = tuple(float(v) for v in _int_list(cfg, "levels"))
    radii = np.geomspace(L / float(cfg["r_min_div"]), L / float(cfg["r_max_div"]),
                         int(cfg["count"]))
    report = fit_kernel_decay(sigma, deriv=deriv, radii=radii,
                              directions=int(cfg["directions"]),
                              level=float(cfg["level"]), stability_levels=levels,
                              x0=float(cfg["x"]), period=L)
    table = (("radius", "max_abs"),
             list(zip(report.radii, report.maxima)))
    return report.verdict, report, table


def _run_certify_czk(cfg):
    grid = _grid(cfg)
    sigma = resolve_symbol(cfg)
    a = resolve_multiplier(cfg["a"], grid)
    report = certify_cz_commutator_kernel(
        sigma, a, slot=int(cfg["slot"]), samples=int(cfg["samples"]),
        level=float(cfg["level"]), base_radius=grid.period / float(cfg["radius_div"]),
        octave_count=int(cfg["octaves"]), seed=int(cfg["seed"]))
    table = (("octave_lo", "octave_hi", "size_sup", "grad_sup"),
             [(lo, hi, s, g) for (lo, hi), s, g in
              zip(report.octaves, report.size_sup, report.grad_sup)])
    return report.verdict, report, table


def _run_verify_transpose(cfg):
    grid = _grid(cfg)
    a = resolve_multiplier(cfg["a"], grid)
    T = make_operator(resolve_symbol(cfg), grid)
    result = verify_transpose_identities(T, a, trials=int(cfg["trials"]),
                                         seed=int(cfg["seed"]))
    table = (("identity", "residual"), sorted(result["residuals"].items()))
    return result["verdict"], result, table


def _run_check_t1(cfg):
    grid = _grid(cfg)
    a = resolve_multiplier(cfg["a"], grid)
    T = make_operator(resolve_symbol(cfg), grid)
    report = check_t1_conditions(T, a, quad_points=int(cfg["quad_points"]))
    rows = [(name, rep.value) for name, rep in sorted(report.bmo.items())]
    return report.verdict, report, (("image", "bmo_value"), rows)


def _run_wbp_scan(cfg):
    grid = _grid(cfg)
    U = _resolve_op(cfg, grid)
    scales = tuple(grid.period / d for d in _int_list(cfg, "t_divisors"))
    report = wbp_scan(U, order=int(cfg["order"]), scales=scales,
                      config=str(cfg["geometry"]))
    table = (("t", "pairing", "constant"),
             list(zip(report.scales, report.pairings, report.constants)))
    return report.verdict, report, table


def _run_norm_scan(cfg):
    grid = _grid(cfg)
    U = _resolve_op(cfg, grid)
    ks = tuple(range(1, int(cfg["k_max"]) + 1))
    report = norm_scan(U, float(cfg["p"]), float(cfg["q"]),
                       family=str(cfg["family"]), k_values=ks,
                       seed=int(cfg["seed"]))
    table = (("k", "ratio"), list(zip(report.k_values, report.ratios)))
    return report.verdict, report, table


def _run_kato_ponce(cfg):
    grid = _grid(cfg)
    ks = tuple(range(1, int(cfg["k_max"]) + 1))
    report = kato_ponce_check(float(cfg["alpha"]), float(cfg["p"]), float(cfg["q"]), grid,
                              family=str(cfg["family"]), k_values=ks,
                              seed=int(cfg["seed"]))
    table = (("k", "ratio"), list(zip(report.k_values, report.ratios)))
    return report.verdict, report, table


def _run_compactness(cfg):
    grid = _grid(cfg)
    a = resolve_multiplier(cfg["a"], grid)
    bs = {kind: resolve_multiplier(cfg[key], grid)
          for kind, key in (("smooth", "b_smooth"), ("rough", "b_rough"))}
    T = make_operator(resolve_symbol(cfg), grid)
    probes = {}
    for kind, b in bs.items():
        U = commutator(T, 1, a, 1, b)
        probes[kind] = compactness_probe(
            U, kind, family_size=int(cfg["family_size"]), p=float(cfg["p"]),
            q=float(cfg["q"]), mode_budget=int(cfg["mode_budget"]), seed=int(cfg["seed"]))
    comparison = compare_probes(probes["smooth"], probes["rough"])
    # raw output functions stay in memory only
    payload = dataclasses.replace(
        comparison,
        smooth=dataclasses.replace(comparison.smooth, outputs=()),
        rough=dataclasses.replace(comparison.rough, outputs=()))
    table = (("shift", "smooth_curve", "rough_curve"),
             list(zip(probes["smooth"].shifts, probes["smooth"].equicontinuity,
                      probes["rough"].equicontinuity)))
    return comparison.verdict, payload, table


def _run_decompose(cfg):
    sigma = resolve_symbol(cfg)
    L = float(cfg["period"])
    comps = ftc_decompose(sigma, quad_points=int(cfg["quad_points"]),
                          guard=bool(cfg["guard"]), period=L)
    residual = reconstruction_residual(sigma, comps, probes=int(cfg["probes"]), period=L,
                                       box=float(cfg["box"]), seed=int(cfg["seed"]))
    verdict, bounds = reconstruction_verdict(residual)
    data = {
        "components": [{"name": c.name,
                        "order": c.declared_class.m,
                        "rho": c.declared_class.rho,
                        "delta": c.declared_class.delta} for c in comps],
        "reconstruction_residual": residual,
        "bounds": bounds,
    }
    return verdict, data, None


def _run_seminorms(cfg):
    sigma = resolve_symbol(cfg)
    report = estimate_seminorms(sigma, max_order=int(cfg["max_order"]),
                                box=float(cfg["box"]), samples=int(cfg["samples"]),
                                seed=int(cfg["seed"]), period=float(cfg["period"]))
    rows = [(str(e.alpha), str(e.beta), str(e.gamma), e.ratio, e.slope, e.verdict)
            for e in report.entries]
    return report.verdict, report, (("alpha", "beta", "gamma", "ratio", "slope", "verdict"), rows)


def _run_calderon(cfg):
    grid = _grid(cfg)
    a = resolve_multiplier(cfg["a"], grid)
    ks = tuple(range(1, int(cfg["k_max"]) + 1))
    report = calderon_scan(a, k_values=ks, family=str(cfg["family"]),
                           seed=int(cfg["seed"]))
    table = (("k", "ratio"), list(zip(report.k_values, report.ratios)))
    return report.verdict, report, table


def _run_converse(cfg):
    grid = _grid(cfg)
    a = resolve_multiplier(cfg["a"], grid)
    report = converse_check(a, width=grid.period / float(cfg["width_div"]),
                            center_count=int(cfg["centers"]))
    table = (("center", "estimate"), list(zip(report.centers, report.estimates)))
    return report.verdict, report, table


def _run_list_catalog(cfg):
    dim = int(cfg["dim"])
    lines = [f"symbols (dim={dim}):"]
    for name, sym in sorted(symbol_catalog(dim).items()):
        c = sym.declared_class
        lines.append(f"  {name} (m={c.m:g}, rho={c.rho:g}, delta={c.delta:g})")
    lines.append("multipliers:")
    lines.extend(f"  {name}" for name in sorted(MULTIPLIER_NAMES))
    lines.append("families:")
    lines.extend(f"  {name}" for name in sorted(FAMILY_NAMES))
    return "complete", {"listing": lines}, None


# -------------------------------------------------------- subcommand table

_COMMON = {"dim": 1, "n": 256, "period": 2 * np.pi, "seed": 0,
           "out_dir": "reports", "out": None}
_OFF_GRID = {k: v for k, v in _COMMON.items() if k != "n"}  # commands with no grid
_SYMBOL = {"symbol": "sqrt1", "m": 0.0, "rho": 1.0, "delta": 0.0}

SUBCOMMANDS = {
    "apply": ({**_COMMON, **_SYMBOL, "strategy": None, "f": "sinx", "g": "bump"},
              _run_apply),
    "kernel-slice": ({**_OFF_GRID, **_SYMBOL, "level": 128.0, "x": 0.0,
                      "r_min_div": 256.0, "r_max_div": 8.0, "count": 16,
                      "angle": 37.0}, _run_kernel_slice),
    "fit-decay": ({**_OFF_GRID, **_SYMBOL, "deriv": "0,0,0", "level": 128.0,
                   "levels": "32,64,128", "r_min_div": 256.0, "r_max_div": 8.0,
                   "count": 11, "directions": 8, "x": 0.0}, _run_fit_decay),
    "certify-czk": ({**_COMMON, **_SYMBOL, "a": "sinx", "slot": 1,
                     "samples": 630, "level": 128.0, "radius_div": 256.0,
                     "octaves": 3}, _run_certify_czk),
    "verify-transpose": ({**_COMMON, **_SYMBOL, "a": "sinx", "n": 32,
                          "trials": 20}, _run_verify_transpose),
    "check-t1": ({**_COMMON, **_SYMBOL, "a": "sinx", "n": 64,
                  "quad_points": 96}, _run_check_t1),
    "wbp-scan": ({**_COMMON, **_SYMBOL, "symbol": "xi", "op": "commutator1",
                  "a": "sinx", "b": "bump", "order": 2,
                  "geometry": "common-center", "t_divisors": "16,32,64,128",
                  "n": 4096}, _run_wbp_scan),
    "norm-scan": ({**_COMMON, **_SYMBOL, "op": "base", "a": "sinx", "b": "bump",
                   "p": 4.0, "q": 4.0, "family": "modulated-bump", "k_max": 64},
                  _run_norm_scan),
    "kato-ponce": ({**_COMMON, "alpha": 1.0, "p": 4.0, "q": 4.0,
                    "family": "modulated-bump", "k_max": 64, "n": 512},
                   _run_kato_ponce),
    "compactness-probe": ({**_COMMON, **_SYMBOL, "a": "sinx",
                           "b_smooth": "bump", "b_rough": "step",
                           "family_size": 50, "p": 4.0, "q": 4.0,
                           "mode_budget": 32}, _run_compactness),
    "decompose": ({**_OFF_GRID, **_SYMBOL, "quad_points": 64, "guard": True,
                   "probes": 200, "box": 64.0, "seed": 1}, _run_decompose),
    "seminorms": ({**_OFF_GRID, **_SYMBOL, "max_order": 2, "box": 8192.0,
                   "samples": 120}, _run_seminorms),
    "calderon-demo": ({**_COMMON, "a": "sinx", "k_max": 64,
                       "family": "modulated-bump", "n": 512}, _run_calderon),
    "converse-check": ({**_COMMON, "a": "sinx", "width_div": 32.0,
                        "centers": 32, "n": 512}, _run_converse),
    "list-catalog": ({"dim": 1}, _run_list_catalog),
}

_HELP = {
    "apply": "apply T_sigma to a pair of inputs and report the output",
    "kernel-slice": "sample the truncated kernel along an off-diagonal ray",
    "fit-decay": "fit the off-diagonal kernel decay exponent",
    "certify-czk": "sampled size/gradient certification of commutator kernels",
    "verify-transpose": "check commutator transposes against their defining pairings",
    "check-t1": "commutators on constants: two routes plus mean oscillation",
    "wbp-scan": "bump-pairing scaling scan (weak boundedness)",
    "norm-scan": "norm-growth ratios over a frequency family",
    "kato-ponce": "fractional Leibniz ratio check",
    "compactness-probe": "comparative equicontinuity/covering probe",
    "decompose": "first-order symbol decomposition and reconstruction residual",
    "seminorms": "sampled symbol-class seminorm table",
    "calderon-demo": "first-commutator ratio scan (linear demo)",
    "converse-check": "recover the Lipschitz constant from commutator norms",
    "list-catalog": "list symbols, multipliers, and test families",
}


@functools.cache
def build_parser() -> _Parser:
    """The bilop parser, built once per process (parse_args leaves it unchanged)."""
    parser = _Parser(prog="bilop",
                     description="spectral bilinear-operator toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    for name, (defaults, _) in SUBCOMMANDS.items():
        # no prefix matching: a removed flag such as --r must not become --rho
        p = sub.add_parser(name, help=_HELP[name], allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="JSON config document; explicit flags win")
        for key, default in defaults.items():  # text: effective_config types it
            p.add_argument("--" + key.replace("_", "-"), default=None,
                           help=None if default is None else f"default {default}")
    return parser


def load_config_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}", path="$")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e.msg}",
                          path=f"$ (line {e.lineno}, column {e.colno})")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", path="$")
    return doc


# Lebesgue exponents include infinity; every other float option is finite
_MAY_BE_INFINITE = frozenset({"p", "q"})
_BOOL_TEXT = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _typed(key: str, value, default):
    """A flag or config value as the type of its default when that is bool,
    int or float: no bool read as a number, no fraction or NaN let through."""
    kind = type(default)
    try:
        if kind is bool:
            return _BOOL_TEXT[str(value).lower()]
        if kind in (int, float) and (isinstance(value, bool) or kind(value) != float(value)):
            raise ValueError
        return kind(value) if kind in (int, float) else value
    except (KeyError, OverflowError, TypeError, ValueError):
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", path=f"$.{key}") from None


def effective_config(subcommand: str, args: argparse.Namespace) -> dict:
    defaults, _ = SUBCOMMANDS[subcommand]
    cfg = dict(defaults)
    doc = load_config_document(args.config) if args.config else {}
    for key, value in doc.items():
        if key == "operation":
            if value != subcommand:
                raise ConfigError(
                    f"config is for operation {value!r}, not {subcommand!r}",
                    path="$.operation")
            continue
        if key not in defaults:
            raise ConfigError("unknown config key", path=f"$.{key}")
        cfg[key] = _typed(key, value, defaults[key])
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = _typed(key, flag_value, defaults[key])
    for key, value in cfg.items():
        if type(defaults[key]) is float and key not in _MAY_BE_INFINITE \
                and not math.isfinite(value):
            raise ConfigError(f"expected a finite float, got {value!r}", path=f"$.{key}")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    name = args.subcommand
    try:
        cfg = effective_config(name, args)
        _, runner = SUBCOMMANDS[name]
        worker_count()  # a bad BILOP_THREADS is an error for every command
        verdict, data, table = runner(cfg)
        if name == "list-catalog":
            print("\n".join(data["listing"]))
            return 0
        text = json.dumps(envelope(name, cfg, verdict, data))  # the C encoder: one line
        print(text)
        write_report(cfg["out_dir"], name, cfg.get("seed", 0), text,
                     table=table, basename=cfg.get("out"))
        return 0 if verdict in PASS_VERDICTS else 2
    except SymbolParseError as e:
        print(f"bilop: parse error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"bilop: config error: {e}", file=sys.stderr)
        return 1
    except BilopError as e:
        print(f"bilop: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
