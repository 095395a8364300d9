"""Command line: every subcommand end to end at a small size, and config documents."""

import csv
import io
import json
import math

import pytest

import bilop.cli as cli_module
import bilop.symbols.catalog as catalog_module
from bilop.cli import SUBCOMMANDS
from bilop.cli import main as cli_main
from bilop.operator import FACTOR_FLOOR_C
from bilop.reports import to_jsonable

# (subcommand, small-size flags, exit code, verdict)
SMOKE = [
    ("apply", ["--n", "16"], 0, "complete"),
    ("kernel-slice", ["--level", "32", "--count", "4"], 0, "complete"),
    ("fit-decay", ["--count", "8"], 0, "BOUNDED"),
    ("certify-czk", ["--samples", "200"], 0, "BOUNDED"),
    ("verify-transpose", ["--n", "16", "--trials", "10"], 0, "PASS"),
    ("check-t1", ["--n", "32"], 0, "PASS"),
    ("wbp-scan", ["--n", "1024"], 0, "PASS"),
    ("norm-scan", ["--n", "256", "--k-max", "32"], 2, "GROWING"),
    ("norm-scan", ["--n", "256", "--k-max", "16"], 2, "INCONCLUSIVE"),  # not FAILED, still 2
    ("kato-ponce", ["--n", "64", "--k-max", "8"], 0, "PASS"),
    ("compactness-probe", ["--n", "128"], 0, "consistent with compactness"),
    ("decompose", ["--probes", "100"], 0, "PASS"),
    ("seminorms", ["--samples", "100", "--box", "64", "--max-order", "1"], 0, "BOUNDED"),
    ("calderon-demo", ["--n", "64", "--k-max", "8"], 0, "PASS"),
    ("converse-check", ["--n", "128", "--centers", "8"], 0, "PASS"),
]


def test_smoke_cases_cover_every_subcommand():
    assert {name for name, *_ in SMOKE} | {"list-catalog"} == set(SUBCOMMANDS)


@pytest.mark.parametrize("name,args,rc,verdict", SMOKE,
                         ids=[c[0] + ("-inconclusive" if c[3] == "INCONCLUSIVE" else "")
                              for c in SMOKE])
def test_subcommand_runs_to_its_verdict(tmp_path, capsys, name, args, rc, verdict):
    assert cli_main([name, *args, "--out-dir", str(tmp_path)]) == rc
    payload = json.loads(capsys.readouterr().out)
    assert (payload["operation"], payload["verdict"]) == (name, verdict)
    assert any(tmp_path.iterdir())
    if verdict != "complete":  # every check reports each statistic beside its cut-off
        bounds = payload["data"]["bounds"]
        assert bounds and all(isinstance(b[k], float) and math.isfinite(b[k])
                              for b in bounds for k in ("statistic", "cutoff", "margin"))


def test_list_catalog_prints_the_listing(capsys):
    assert cli_main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("symbols (dim=1):")
    assert "multipliers:" in out and "families:" in out


def _seminorms_with(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    return cli_main(["seminorms", "--config", str(path), "--out-dir", str(tmp_path)])


def test_config_document_for_its_own_operation_is_applied(tmp_path, capsys):
    doc = {"operation": "seminorms", "samples": 100, "box": 64.0, "max_order": 1}
    assert _seminorms_with(tmp_path, doc) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["samples"], config["box"], config["max_order"]) == (100, 64.0, 1)


@pytest.mark.parametrize("document", [
    {"samples": 100, "nosuch": 1},        # unknown key
    {"operation": "apply"},               # another operation's document
    [1, 2],                               # not an object
    "{not json",                          # not JSON
    {"samples": "abc"},                   # not an int
    {"samples": 100.5},                   # an int key given a fraction
    {"samples": True},                    # a bool for an int
    {"box": None},                        # null for a float
], ids=["unknown-key", "wrong-operation", "non-object", "invalid-json", "text-for-int",
        "fraction-for-int", "bool-for-int", "null-for-float"])
def test_bad_config_document_exits_1(tmp_path, capsys, document):
    assert _seminorms_with(tmp_path, document) == 1
    assert "config error" in capsys.readouterr().err


def _run_config(tmp_path, name, document, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return cli_main([name, "--config", str(path), *flags, "--out-dir", str(tmp_path)])


def test_config_values_take_the_type_of_their_default(tmp_path, capsys):
    # "200" is the int 200 and 128 the float 128.0; "false" turns the FTC guard off, as
    # --guard false does (with it on, 16 nodes trip it and exit 1)
    assert _run_config(tmp_path, "certify-czk", {"samples": "200", "level": 128}) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["samples"], config["level"]) == (200, 128.0)
    assert isinstance(config["level"], float)
    for document, flags in (({"guard": "false"}, ()), ({}, ("--guard", "false"))):
        assert _run_config(tmp_path, "decompose", {"symbol": "cm0", "quad_points": 16,
                                                   **document}, *flags) == 2
        assert json.loads(capsys.readouterr().out)["config"]["guard"] is False
    assert _run_config(tmp_path, "decompose", {"symbol": "cm0", "quad_points": 16}) == 1
    capsys.readouterr()
    assert _run_config(tmp_path, "certify-czk", {"samples": "abc"}) == 1
    assert capsys.readouterr().err == "bilop: config error: expected int, got 'abc' (at $.samples)\n"
    # "on" is no bool spelling, as a flag or as a config value: neither runs the guard off
    for document, flags in (({"guard": "on"}, ()), ({}, ("--guard", "on"))):
        assert _run_config(tmp_path, "decompose", document, *flags) == 1
        assert capsys.readouterr().err == \
            "bilop: config error: expected bool, got 'on' (at $.guard)\n"


@pytest.mark.parametrize("name, key", [("decompose", "box"), ("seminorms", "box"),
                                       ("certify-czk", "level"), ("kernel-slice", "level")])
def test_an_infinite_float_option_is_a_config_error(tmp_path, capsys, name, key):
    assert cli_main([name, f"--{key}", "inf", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"bilop: config error: expected a finite float, got inf (at $.{key})\n"
    assert not any(tmp_path.iterdir())


def test_an_infinite_lebesgue_exponent_stays_valid(tmp_path, capsys):
    args = ["--n", "64", "--k-max", "4", "--p", "inf", "--q", "inf"]
    cli_main(["norm-scan", *args, "--out-dir", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["config"]["p"] == "inf"


@pytest.mark.parametrize("name, key", [("kato-ponce", "r"), ("compactness-probe", "r"),
                                       ("verify-transpose", "tol"), ("check-t1", "tol")])
def test_a_value_the_code_fixes_is_no_option(tmp_path, capsys, name, key):
    # r is derived from 1/r = 1/p + 1/q, and the identity checks compare against
    # IDENTITY_TOL: neither is a flag or a config key
    with pytest.raises(SystemExit) as stop:
        cli_main([name, f"--{key}", "2", "--out-dir", str(tmp_path)])
    assert stop.value.code == 1
    assert f"unrecognized arguments: --{key} 2" in capsys.readouterr().err
    assert _run_config(tmp_path, name, {key: 2.0}) == 1
    assert capsys.readouterr().err == f"bilop: config error: unknown config key (at $.{key})\n"
    assert not any(p.suffix != ".json" for p in tmp_path.iterdir())


@pytest.mark.parametrize("key, value, token", [
    ("deriv", "a,b", "a"), ("deriv", "0,1.5,0", "1.5"), ("levels", "32,x", "x"),
    ("t_divisors", "16, y", " y")])
def test_a_bad_list_token_is_a_config_error_by_flag_and_by_config(tmp_path, capsys,
                                                                  key, value, token):
    name = "wbp-scan" if key == "t_divisors" else "fit-decay"
    error = f"bilop: config error: expected int, got {token!r} (at $.{key})\n"
    flag = "--" + key.replace("_", "-")
    assert cli_main([name, flag, value, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == error
    for document in ({key: value}, {key: value.split(",")}):
        assert _run_config(tmp_path, name, document) == 1
        assert capsys.readouterr().err == error
    assert not any(p.suffix != ".json" for p in tmp_path.iterdir())


@pytest.mark.parametrize("strategy", [[], ["--strategy", "direct"]], ids=["multiplier", "direct"])
def test_a_literal_zero_term_means_the_same_to_both_strategies(tmp_path, capsys, strategy):
    # 0*log(x) folds at parse time, so neither strategy meets log(0) at x = 0
    base = ["apply", "--n", "16", "--out-dir", str(tmp_path)]
    assert cli_main([*base, "--symbol", "sqrt(1+xi^2+eta^2)", *strategy]) == 0
    want = json.loads(capsys.readouterr().out)["data"]
    assert cli_main([*base, "--symbol", "sqrt(1+xi^2+eta^2)+0*log(x)", *strategy]) == 0
    got = json.loads(capsys.readouterr().out)["data"]
    assert got["strategy"] == (strategy[-1] if strategy else "multiplier")
    assert got["values"] == want["values"]


@pytest.mark.parametrize("symbol, widths", [("sqrt1", [32]), ("one", [16]),
                                            ("sin(x)*xi+cos(x)*sqrt(1+xi^2+eta^2)", [16, 32])])
def test_apply_reports_each_basis_width_next_to_the_factor_tolerance(tmp_path, capsys,
                                                                     symbol, widths):
    assert cli_main(["apply", "--n", "256", "--symbol", symbol, "--out-dir", str(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert (data["basis_widths"], data["factor_rtol"]) == (widths, 1e-14)
    assert data["factor_floor"] == FACTOR_FLOOR_C * 2.0 ** -52 * 16  # c eps sqrt(M), M = 256
    assert len(data["basis_widths"]) == data["x_rank"]
    assert data["residual"] <= data["factor_rtol"]
    assert data["rank"] <= sum(widths)


@pytest.mark.parametrize("name, args", [
    ("seminorms", ["--samples", "100", "--box", "64", "--max-order", "1"]),
    ("decompose", ["--probes", "100"])])
def test_period_moves_the_x_samples_of_symbol_checks(tmp_path, capsys, name, args):
    # theta_sqrt1 depends on x, so sampling x over [0, 1) changes the numbers
    data = []
    for period in ([], ["--period", "1"]):
        cli_main([name, "--symbol", "theta_sqrt1", *args, *period, "--out-dir", str(tmp_path)])
        data.append(json.loads(capsys.readouterr().out)["data"])
    assert data[0] != data[1]


@pytest.mark.parametrize("name", ["kernel-slice", "fit-decay", "decompose", "seminorms"])
def test_commands_without_a_grid_refuse_a_grid_size(capsys, name):
    with pytest.raises(SystemExit) as stop:
        cli_main([name, "--n", "9"])
    assert stop.value.code == 1
    assert "unrecognized arguments: --n 9" in capsys.readouterr().err


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli_main(["seminorms", "--config", str(missing), "--out-dir", str(tmp_path)]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["seminorms", "--no-such-flag", "1"])
    assert stop.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_printed_envelope_is_the_report_file_text(tmp_path, capsys):
    assert cli_main(["apply", "--n", "16", "--out-dir", str(tmp_path), "--out", "run"]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "run.json").read_text() == printed
    values = json.loads(printed)["data"]["values"]
    rows = (tmp_path / "run.csv").read_text().splitlines()
    assert rows[0] == "index,re,im" and len(rows) == len(values) + 1
    assert rows[1] == f"0,{values[0]['re']!r},{values[0]['im']!r}"


def test_the_envelope_is_one_line_of_json(tmp_path, capsys):
    assert cli_main(["verify-transpose", "--n", "16", "--out-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") == 1
    assert printed == json.dumps(json.loads(printed)) + "\n"


@pytest.mark.parametrize("argv", [["apply", "--n", "16"],
                                  ["kernel-slice", "--level", "32", "--count", "4"],
                                  ["wbp-scan", "--n", "1024"]], ids=lambda a: a[0])
def test_table_cells_are_written_as_converting_every_cell_wrote_them(tmp_path, capsys, argv):
    # plain int, float and str cells skip to_jsonable; the bytes stay those
    # of converting every cell first
    assert cli_main([*argv, "--out-dir", str(tmp_path), "--out", "run"]) == 0
    name = argv[0]
    cfg = cli_module.effective_config(name, cli_module.build_parser().parse_args(argv))
    _, _, (header, rows) = SUBCOMMANDS[name][1](cfg)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([to_jsonable(c) for c in row] for row in rows)
    assert (tmp_path / "run.csv").read_bytes() == want.getvalue().encode()


def test_a_catalog_name_parses_only_its_own_entry(monkeypatch):
    parsed = []
    original = catalog_module.symbol_from_expr

    def counted(src, *args, **kwargs):
        parsed.append(src)
        return original(src, *args, **kwargs)

    monkeypatch.setattr(catalog_module, "symbol_from_expr", counted)
    cfg = {"symbol": "sqrt1", "dim": 2, "m": 0.0, "rho": 1.0, "delta": 0.0}
    assert cli_module.resolve_symbol(cfg).name == "sqrt1"
    assert parsed == ["sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)"]


def test_one_process_keeps_no_flags_between_runs(tmp_path, capsys):
    # the parser is shared by every run in a process; a flag of one run
    # must not become the default of the next
    configs = []
    for argv in (["apply", "--n", "64"], ["apply"]):
        assert cli_main([*argv, "--out-dir", str(tmp_path)]) == 0
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert (configs[0]["n"], configs[1]["n"]) == (64, SUBCOMMANDS["apply"][0]["n"])
    assert {k: v for k, v in configs[0].items() if k != "n"} == \
        {k: v for k, v in configs[1].items() if k != "n"}


@pytest.mark.parametrize("args", [["certify-czk", "--samples", "200"],
                                  ["norm-scan", "--op", "commutator1", "--n", "64", "--k-max", "4"]],
                         ids=lambda a: a[0])
def test_non_finite_multiplier_exits_1(tmp_path, capsys, args):
    # log(x) is -inf at the node x = 0
    assert cli_main([*args, "--a", "log(x)", "--out-dir", str(tmp_path)]) == 1
    assert "multiplier 'log(x)' is not finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# flags that leave a check nothing to decide on: one k value, one octave,
# no probes, centers or directions, or a probe box that is a point
REFUSED = [
    ["norm-scan", "--k-max", "1"], ["norm-scan", "--k-max", "0"],
    ["kato-ponce", "--k-max", "1"], ["kato-ponce", "--k-max", "0"],
    ["calderon-demo", "--k-max", "1"], ["calderon-demo", "--k-max", "0"],
    ["certify-czk", "--octaves", "1", "--samples", "200"],
    ["certify-czk", "--symbol", "bad_xieta", "--octaves", "1", "--samples", "200"],
    ["certify-czk", "--octaves", "0"],
    ["certify-czk", "--octaves", "300", "--samples", "200"],
    ["converse-check", "--centers", "0"],
    ["fit-decay", "--directions", "0"],
    ["decompose", "--probes", "0"], ["decompose", "--box", "-64"],
    ["decompose", "--box", "0"],
]


@pytest.mark.parametrize("args", REFUSED, ids=[" ".join(a) for a in REFUSED])
def test_degenerate_flags_exit_1_with_an_error_line(tmp_path, capsys, args):
    # an uncaught exception would escape main here instead of a return of 1
    assert cli_main([*args, "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("bilop: error:")
    assert "Traceback" not in captured.err + captured.out
    assert not any(tmp_path.iterdir())
