"""Outcome checks: expected-outcome table and brute-force apply oracles.

``mismatches`` compares one task run with its ``Expect`` entry and
returns the reasons it failed (empty when it matched).  The oracles
check generated ``apply`` outputs:

* ``sampled_oracle`` evaluates the defining double frequency sum at a
  few grid nodes with the benchmark's own numpy code, independent of
  every bilop code path;
* the CLI's ``--strategy direct`` output on the same grid is compared
  with the fast path's output on every node (``compare_values``).
"""
from __future__ import annotations

import json
import math

import numpy as np

# Allowed oracle gap, relative to the sum of |terms| at a node (sampled)
# or to the largest output value (full grid).
ORACLE_RTOL = 1e-9

_NUMPY_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
                "abs": np.abs, "log": np.log}


def parse_envelope(stdout: str):
    """The report envelope a CLI run printed, or None."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "verdict" in doc else None


def statistic(data, path: str):
    """Follow a dotted path (dict keys and list indices) into ``data``."""
    node = data
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def observed(rc, envelope, expect) -> dict:
    """The fields of one run that the expected-outcome table pins."""
    out = {"rc": rc, "verdict": None, "stat": None}
    if envelope is not None:
        out["verdict"] = envelope.get("verdict")
        if expect.stat:
            try:
                out["stat"] = float(statistic(envelope["data"], expect.stat))
            except (KeyError, IndexError, TypeError, ValueError):
                out["stat"] = None
    return out


def mismatches(expect, obs: dict) -> list:
    """Reasons the observed outcome differs from ``expect``; empty if none."""
    bad = []
    if not isinstance(obs["rc"], int):  # the CLI raised instead of exiting
        bad.append(str(obs["rc"]))
    elif expect.rc is not None and obs["rc"] != expect.rc:
        bad.append(f"exit code {obs['rc']}, expected {expect.rc}")
    if expect.verdict is not None and obs["verdict"] != expect.verdict:
        bad.append(f"verdict {obs['verdict']!r}, expected {expect.verdict!r}")
    if expect.verdict_not is not None and obs["verdict"] == expect.verdict_not:
        bad.append(f"verdict {obs['verdict']!r}, expected anything else")
    if expect.stat is None:
        return bad
    got = obs["stat"]
    if got is None or not math.isfinite(got):
        bad.append(f"{expect.stat} = {got}, expected a finite number")
    elif expect.ceiling is not None and not got <= expect.ceiling:
        bad.append(f"{expect.stat} = {got:.6g}, expected <= {expect.ceiling:g}")
    elif expect.value is not None and not math.isclose(
            got, expect.value, rel_tol=expect.rtol, abs_tol=0.0):
        bad.append(f"{expect.stat} = {got!r}, expected {expect.value!r} "
                   f"within rtol {expect.rtol:g}")
    return bad


def envelope_values(envelope) -> np.ndarray:
    """An apply envelope's output values as a complex array."""
    vals = envelope["data"]["values"]
    flat = []

    def walk(v):
        if isinstance(v, dict):
            flat.append(complex(float(v["re"]), float(v["im"])))
        elif isinstance(v, list):
            for item in v:
                walk(item)
        else:
            flat.append(complex(float(v)))

    walk(vals)
    return np.array(flat, dtype=complex)


def _grid(case):
    """Nodes, FFT-order frequencies, spacing and period of a 2 pi grid."""
    L = 2 * np.pi
    nodes = np.arange(case.n) * (L / case.n)
    freqs = 2 * np.pi * np.fft.fftfreq(case.n, d=L / case.n)
    return nodes, freqs, L / case.n, L


def _evaluate(expr: str, env: dict):
    with np.errstate(all="ignore"):
        return eval(expr, {"__builtins__": {}}, {**_NUMPY_NAMES, **env})  # noqa: S307


def _input_values(case, expr):
    nodes, _, _, _ = _grid(case)
    if case.dim == 1:
        env = {"x": nodes}
    else:
        x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
        env = {"x1": x1, "x2": x2}
    return np.asarray(_evaluate(expr, env), dtype=complex) * np.ones((case.n,) * case.dim)


def sampled_oracle(case, node_indices) -> list:
    """(value, scale) of T_sigma(f, g) at flat node indices, by the defining sum.

        T(f,g)(x) = L^{-2n} sum_{k,l} sigma(x, xi_k, eta_l) fhat_k ghat_l
                    e^{i x (xi_k + eta_l)}

    scale is the sum of the terms' magnitudes, the size of the roundoff.
    """
    nodes, freqs, dx, L = _grid(case)
    n, dim = case.n, case.dim
    fhat = np.fft.fftn(_input_values(case, case.f)) * dx ** dim
    ghat = np.fft.fftn(_input_values(case, case.g)) * dx ** dim
    out = []
    for flat in node_indices:
        if dim == 1:
            x = nodes[flat]
            env = {"x": x, "xi": freqs[:, None], "eta": freqs[None, :]}
            ef = fhat * np.exp(1j * freqs * x)
            eg = ghat * np.exp(1j * freqs * x)
            terms = np.asarray(_evaluate(case.sigma, env)) * ef[:, None] * eg[None, :]
        else:
            j1, j2 = divmod(int(flat), n)
            x1, x2 = nodes[j1], nodes[j2]
            k1, k2 = np.meshgrid(freqs, freqs, indexing="ij")
            phase = np.exp(1j * (k1 * x1 + k2 * x2))
            env = {"x1": x1, "x2": x2,
                   "xi1": k1[:, :, None, None], "xi2": k2[:, :, None, None],
                   "eta1": k1[None, None, :, :], "eta2": k2[None, None, :, :]}
            ef, eg = fhat * phase, ghat * phase
            terms = (np.asarray(_evaluate(case.sigma, env))
                     * ef[:, :, None, None] * eg[None, None, :, :])
        norm = L ** (2 * dim)
        out.append((complex(terms.sum()) / norm, float(np.abs(terms).sum()) / norm))
    return out


def sampled_oracle_gaps(case, values: np.ndarray, node_indices) -> list:
    """Reasons the output disagrees with the sampled oracle; empty if none."""
    bad = []
    if values.size != case.n ** case.dim:
        return [f"output has {values.size} values, expected {case.n ** case.dim}"]
    for j, (want, scale) in zip(node_indices, sampled_oracle(case, node_indices)):
        gap = abs(values[j] - want)
        if not gap <= ORACLE_RTOL * max(scale, 1e-300):
            bad.append(f"node {j}: {values[j]!r} vs oracle {want!r} "
                       f"(gap {gap:.3g}, scale {scale:.3g})")
    return bad


def compare_values(values: np.ndarray, reference: np.ndarray) -> list:
    """Reasons a fast-path output disagrees with the direct strategy's."""
    if values.shape != reference.shape:
        return [f"shape {values.shape} vs direct {reference.shape}"]
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    gap = float(np.max(np.abs(values - reference))) if values.size else 0.0
    if not gap <= ORACLE_RTOL * max(scale, 1e-300):
        return [f"max gap to --strategy direct {gap:.3g} (scale {scale:.3g})"]
    return []
