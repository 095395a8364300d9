"""One pass of a benchmark workload, in a fresh process.

Run by ``run.py`` from the root of a bilop checkout:

    python3 perfbench/worker.py --workload verify --seed 1 --out DIR \
        --launched T [--trace spans|memory] [--oracle]

It imports numpy and bilop from ``src/``, builds the task list, then
runs every task through ``bilop.cli.main`` in-process with stdout and
stderr captured and reports written under DIR.  After the last task it
checks every outcome and prints one JSON line: the timings, the
outcomes and, with ``--trace``, the per-layer metrics (``memory`` also
traces allocations, for the peak-memory metrics).

``--launched`` is the ``time.monotonic()`` reading taken by the parent
just before it started this process, so ``setup_s`` covers interpreter
start-up, the imports and building the inputs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bilop  # noqa: E402
import bilop.cli  # noqa: E402
import bilop.parallel  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

# Flat node indices per generated apply task checked by the sampled oracle.
SAMPLED_NODES = 4


def _cpu_and_rss():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime, use.ru_maxrss / 1024.0


def _run_cli(argv, out_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = bilop.cli.main(list(argv) + ["--out-dir", str(out_dir)])
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # noqa: BLE001 - an unexpected raise is an outcome
            rc = f"raised {type(e).__name__}: {e}"
    return rc, out.getvalue(), err.getvalue()


def _node_sample(task, seed):
    size = task.case.n ** task.case.dim
    rng = np.random.default_rng([seed, len(task.label)])
    return sorted(int(j) for j in rng.choice(size, SAMPLED_NODES, replace=False))


def _check(task, rc, stdout, seed, reports, full_oracle):
    """(observed outcome, reasons it failed) of one task run."""
    envelope = checks.parse_envelope(stdout)
    obs = checks.observed(rc, envelope, task.expect)
    bad = checks.mismatches(task.expect, obs)
    if task.case is None or bad:
        return obs, bad
    values = checks.envelope_values(envelope)
    bad += checks.sampled_oracle_gaps(task.case, values, _node_sample(task, seed))
    if full_oracle and envelope["data"]["strategy"] != "direct":
        drc, dout, derr = _run_cli(task.argv + ("--strategy", "direct"), reports)
        direct = checks.parse_envelope(dout)
        if drc != 0 or direct is None:
            bad.append(f"--strategy direct oracle exited {drc}: {derr.strip()[:200]}")
        else:
            bad += checks.compare_values(values, checks.envelope_values(direct))
    return obs, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", choices=("spans", "memory"))
    ap.add_argument("--oracle", action="store_true",
                    help="also compare fast-path apply outputs with --strategy direct")
    args = ap.parse_args(argv)

    if Path(bilop.__file__).resolve().parent != (SRC / "bilop").resolve():
        print(f"bilop imported from {bilop.__file__}, not {SRC}", file=sys.stderr)
        return 1
    tasks = workloads.workload_tasks(args.workload, args.seed)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    # reports go to ./reports, so the configs they echo, and their sizes,
    # do not depend on where the pass runs
    os.chdir(out)
    reports = Path("reports")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(track_memory=args.trace == "memory")
        tracer.install()
        if tracer.track_memory:
            tracemalloc.start()

    runs = []
    first = time.monotonic()
    cpu0, _ = _cpu_and_rss()
    for task in tasks:
        start = time.perf_counter()
        if tracer is None:
            rc, stdout, stderr = _run_cli(task.argv, reports)
        else:
            span = tracer.open("cli", f"cli.{task.subcommand}")
            try:
                rc, stdout, stderr = _run_cli(task.argv, reports)
            finally:
                tracer.close(span)
        runs.append((task, rc, stdout, stderr, time.perf_counter() - start))
    last = time.monotonic()
    cpu1, peak_rss_mb = _cpu_and_rss()

    result = {
        "setup_s": first - args.launched,
        "wall_s": last - first,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "thread_map_workers": bilop.parallel.worker_count(),
        "tasks": [],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(workloads.SUBCOMMANDS)
        tracer.write_spans(out / "spans.json")
        tracer.uninstall()
        tracemalloc.stop()
    for task, rc, stdout, stderr, seconds in runs:
        obs, bad = _check(task, rc, stdout, args.seed, reports, args.oracle)
        result["tasks"].append({"task": task.label, "subcommand": task.subcommand,
                                "defect": task.defect, "seconds": seconds,
                                "observed": obs, "failures": bad,
                                "stderr": stderr.strip()[-300:]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
