"""bilop benchmark runner.

Run from the root of a bilop checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Workloads (``workloads.py`` says why each was chosen):

* ``scan``: a few long-lived operators, each applied many times;
* ``verify``: many short-lived operators built and checked once, with
  seeded generated symbols;
* ``kernel``: kernel quadrature and symbol derivatives, no apply.

The runner is single-threaded.  It launches passes one after another,
each a fresh ``worker.py`` process that runs the whole task list once,
until ``--seconds`` are used (at least ``MIN_PASSES``).  The first pass
also checks fast-path apply outputs against ``--strategy direct``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as
medians over the passes.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (medians
for times; counts must repeat exactly), plus ``bench.trace_overhead``
(traced / untraced ``wall_s`` - 1).  One more traced pass also traces
allocations and gives only the peak-memory metrics, because allocation
tracing slows the program too much to time it.

Human-readable lines come first on stdout; the last line is one JSON
object {correct, attempted, failed, metrics}.  ``attempted`` and
``failed`` count task runs of the gated tasks.  Defect probes (pinned
to the correct outcome of a known defect) are counted apart, in the
printed ``error_rate`` and in ``result.json`` under the run directory
``.perfbench_out/<workload>-seed<seed>-trace<trace>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3          # untraced passes per --trace 0 run
MIN_TRACE_PAIRS = 2     # (untraced, traced) pairs per --trace 1 run
PEAK_METRICS = ("operator.peak_mb", "kernel.peak_mb")
RUN_LIMIT_S = 170.0     # a run must end within 180 s
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
COUNT_UNITS = ("count", "bytes")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _run_pass(root, out, workload, seed, trace, oracle, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd += ["--trace", trace]
    if oracle:
        cmd.append("--oracle")
    env = dict(os.environ, TMPDIR=str(out))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outcomes(result):
    return [(t["task"], t["observed"]["rc"], t["observed"]["verdict"],
             t["observed"]["stat"]) for t in result["tasks"]]


def _layer_metrics(untraced, traced, memory, units):
    """Medians over the traced passes; counts must agree across all of them."""
    problems = []
    out = {}
    for name, unit in units.items():
        if name == "bench.trace_overhead":
            out[name] = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in untraced) - 1.0)
            continue
        source = memory if name in PEAK_METRICS else traced
        values = [r["layers"][name] for r in source]
        if unit in COUNT_UNITS:
            seen = [r["layers"][name] for r in traced + memory]
            if len(set(seen)) > 1:
                problems.append(f"count {name} differs between traced passes: {seen}")
        out[name] = statistics.median(values)
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bilop" / "__init__.py").is_file():
        return _fail(f"no bilop sources under {root / 'src'}; run from a checkout root")
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        return _fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} (have {workloads.WORKLOADS})")
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    run_dir = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    start = time.monotonic()
    untraced, traced, memory = [], [], []

    def run(kind, trace, oracle=False):
        out = run_dir / f"{kind}{len(untraced) + len(traced) + len(memory)}"
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        return _run_pass(root, out, args.workload, args.seed, trace, oracle, remaining)

    try:
        if args.trace:
            memory.append(run("memory", "memory"))
        while True:
            step = time.monotonic()
            untraced.append(run("pass", None, oracle=not untraced))
            if args.trace:
                traced.append(run("traced", "spans"))
            now = time.monotonic()
            last = now - step  # another step fits if it takes no longer
            done = (len(traced) >= MIN_TRACE_PAIRS if args.trace
                    else len(untraced) >= MIN_PASSES)
            if now + last > start + RUN_LIMIT_S:
                break
            if done and now + last > start + args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        return _fail(f"pass failed: {e}")

    passes = untraced + traced + memory
    problems = []
    reference = _outcomes(untraced[0])
    for i, result in enumerate(passes[1:], 1):
        if _outcomes(result) != reference:
            problems.append(f"pass {i} outcomes differ from pass 0")
    gated = [t for r in passes for t in r["tasks"] if not t["defect"]]
    probes = [t for r in passes for t in r["tasks"] if t["defect"]]
    failed = [t for t in gated if t["failures"]]
    probe_failed = [t for t in probes if t["failures"]]

    if args.trace:
        metrics, trace_problems = _layer_metrics(untraced, traced, memory, units)
        problems += trace_problems
    else:
        metrics = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END}
    missing = set(units) ^ set(metrics)
    if missing:
        return _fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    env = {**envinfo.environment(),
           "thread_map_workers": untraced[0]["thread_map_workers"]}
    error_rate = (len(failed) + len(probe_failed)) / max(1, len(gated) + len(probes))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced) + len(memory)} traced passes")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':34s} {error_rate:14.6g} ratio "
          f"({len(failed)} of {len(gated)} gated task runs failed, "
          f"{len(probe_failed)} of {len(probes)} defect-probe runs failed)")
    for t in {t["task"]: t for t in failed + probe_failed}.values():
        kind = "defect probe" if t["defect"] else "FAILED"
        print(f"  {kind}: {t['task']}: {'; '.join(t['failures'])}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print("env " + json.dumps(env, sort_keys=True))

    summary = {"correct": not failed and not problems,
               "attempted": len(gated), "failed": len(failed),
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "summary": summary, "error_rate": error_rate, "problems": problems,
         "env": env, "passes": passes}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
