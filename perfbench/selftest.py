"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's test suite; it runs real
workload passes and takes about a minute.
"""
from __future__ import annotations

import collections
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bilop.cli import main as bilop_main  # noqa: E402
from bilop.symbols import SymbolClassParams, symbol_from_expr  # noqa: E402


def _worker(tmp_path, workload, seed, trace=None, name="pass"):
    """One pass launched the way run.py launches it."""
    return run._run_pass(ROOT, tmp_path / name, workload, seed, trace,
                         oracle=False, timeout=170)


def _outcomes(result):
    return run._outcomes(result), [t["failures"] for t in result["tasks"]]


# ------------------------------------------------ expected-outcome table

def _fixed_tasks():
    return list(workloads.SCAN + workloads.VERIFY_FIXED + workloads.KERNEL)


def test_every_fixed_task_pins_an_outcome():
    for task in _fixed_tasks():
        e = task.expect
        if task.defect:
            assert e.rc is not None or e.verdict_not is not None, task.label
            continue
        assert e.rc is not None and e.verdict is not None, task.label
        assert e.stat and (e.value is not None or e.ceiling is not None), task.label


def test_defect_probes_expect_the_correct_outcome():
    probes = {t.label: t.expect for t in _fixed_tasks() if t.defect}
    assert probes["apply --symbol 1/xi --n 64"].rc == 1
    assert probes["seminorms --symbol 1/xi"].verdict_not == "BOUNDED"


@pytest.mark.parametrize("task", [t for t in _fixed_tasks()
                                  if t.expect.value is not None],
                         ids=lambda t: t.label)
def test_perturbed_statistic_or_verdict_is_a_failure(task):
    e = task.expect
    good = {"rc": e.rc, "verdict": e.verdict, "stat": e.value}
    assert checks.mismatches(e, good) == []
    assert checks.mismatches(e, {**good, "stat": e.value * (1 + 10 * e.rtol)})
    assert checks.mismatches(e, {**good, "stat": float("nan")})
    assert checks.mismatches(e, {**good, "verdict": "INCONCLUSIVE"})
    assert checks.mismatches(e, {**good, "rc": 1})


def test_ceiling_and_forbidden_verdict_are_enforced():
    e = workloads.Expect(0, "PASS", stat="max_residual", ceiling=1e-12)
    assert checks.mismatches(e, {"rc": 0, "verdict": "PASS", "stat": 1e-15}) == []
    assert checks.mismatches(e, {"rc": 0, "verdict": "PASS", "stat": 1e-6})
    e = workloads.Expect(None, verdict_not="BOUNDED")
    assert checks.mismatches(e, {"rc": 0, "verdict": "BOUNDED", "stat": None})
    assert checks.mismatches(e, {"rc": 2, "verdict": "FAILED", "stat": None}) == []
    raised = {"rc": "raised ZeroDivisionError: division by zero", "verdict": None,
              "stat": None}
    assert checks.mismatches(e, raised)


# ------------------------------------------------------------- generator

def test_generator_is_seeded():
    a = workloads.workload_tasks("verify", 3)
    assert a == workloads.workload_tasks("verify", 3)
    assert a != workloads.workload_tasks("verify", 4)
    b = {t.label for t in workloads.generated_apply_tasks(4)}
    assert not b & {t.label for t in workloads.generated_apply_tasks(3)}


def test_generated_mix_is_fixed_and_symbols_match_their_strategy():
    for seed in range(5):
        tasks = workloads.generated_apply_tasks(seed)
        assert len(tasks) == sum(count for *_, count in workloads.APPLY_MIX)
        start = 0
        for dim, n, kind, count in workloads.APPLY_MIX:
            for task in tasks[start:start + count]:
                assert (task.case.dim, task.case.n) == (dim, n)
                if kind == "separable":
                    continue
                expr = task.argv[task.argv.index("--symbol") + 1]
                sym = symbol_from_expr(expr, SymbolClassParams(0.0), dim=dim)
                assert sym.x_independent is (kind == "multiplier"), expr
            start += count


def test_every_group_deals_each_frequency_template_equally_often():
    for _, _, _, count in workloads.APPLY_MIX:
        decks = [collections.Counter(workloads._deal(random.Random(seed), count))
                 for seed in range(10)]
        assert all(deck == decks[0] for deck in decks)
        assert set(decks[0]) == set(workloads._FREQUENCY_BLOCKS)
        assert len(set(decks[0].values())) == 1
    with pytest.raises(ValueError):
        workloads._deal(random.Random(0), 4)


# --------------------------------------------------------------- oracles

def _cli_values(argv, out_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert bilop_main(list(argv) + ["--out-dir", str(out_dir)]) == 0
    return checks.envelope_values(checks.parse_envelope(buf.getvalue()))


@pytest.mark.parametrize("dim, n, sigma, f, g", [
    (1, 32, "(2+sin(x))*sqrt(1+xi^2+eta^2)", "sin(2*x)+cos(x)", "exp(sin(x))"),
    (1, 32, "sqrt(1+xi^2+eta^2)", "sin(2*x)+cos(x)", "exp(sin(x))"),
    (2, 8, "(2+cos(x1))*xi1/sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)", "sin(x1)*cos(x2)",
     "exp(cos(x1+x2))"),
    (2, 8, "sqrt(1+xi1^2+xi2^2+eta1^2+eta2^2)", "sin(x1)*cos(x2)", "exp(cos(x1+x2))"),
])
def test_oracles_accept_apply_output_and_reject_a_perturbed_one(tmp_path, dim, n,
                                                                 sigma, f, g):
    task = workloads._apply_task(dim, n, sigma, sigma.replace("^", "**"), 1, f, g)
    got = _cli_values(task.argv, tmp_path)
    direct = _cli_values(task.argv + ("--strategy", "direct"), tmp_path)
    nodes = [0, 5, 17, n ** dim - 1]
    assert checks.sampled_oracle_gaps(task.case, got, nodes) == []
    assert checks.compare_values(got, direct) == []
    bad = got.copy()
    bad[17] += 1e-6 * np.max(np.abs(got))
    assert checks.sampled_oracle_gaps(task.case, bad, nodes)
    assert checks.compare_values(bad, direct)


# ---------------------------------------------------------------- tracer

def test_self_time_subtracts_the_union_of_overlapping_children():
    # two pool threads' items overlap on [1, 2]; the span runs [0.5, 5.5]
    assert tracer._covered([(1, 3), (0, 2), (5, 6)], 0.5, 5.5) == 3.0
    assert tracer._covered([], 0.0, 1.0) == 0.0


def test_traced_passes_repeat_counters_and_keep_outcomes(tmp_path):
    first = _worker(tmp_path, "kernel", 5, trace="spans", name="t1")
    second = _worker(tmp_path, "kernel", 5, trace="spans", name="t2")
    plain = _worker(tmp_path, "kernel", 5, name="plain")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: first["layers"][n] for n in counts} == \
        {n: second["layers"][n] for n in counts}
    assert first["layers"]["symbols.fd_partial_calls"] > 0
    assert first["layers"]["kernel.values_offsets"] > 0
    assert _outcomes(first) == _outcomes(second) == _outcomes(plain)
    spans = json.loads((tmp_path / "t1" / "spans.json").read_text())
    ids = {row[0] for row in spans["spans"]}
    assert all(row[1] is None or row[1] in ids for row in spans["spans"])
    assert all(row[4] <= row[5] for row in spans["spans"])


# ---------------------------------------------------------------- runner

def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(bench["command"] + ["--workload", "scan", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
