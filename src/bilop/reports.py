"""Report serialization: a shared JSON envelope plus CSV scan tables.

Every operation's report is wrapped as {operation, config, verdict,
data} and written to an append-only file named

    {subcommand}-{timestamp}-{seedhash}.json

so scans from different runs can sit side by side and be compared.
Numpy scalars and arrays are converted to plain Python, arrays in bulk
through ``tolist``; complex values become {"re": ..., "im": ...}
objects and non-finite floats the strings "nan", "inf" and "-inf".
A command encodes its envelope once, as one line of JSON by the C
encoder (indenting would force the pure-Python one, over twice as
slow on a 256-value ``apply`` envelope): it prints that line, and
``write_report`` writes the same line to the file.  ``python -m json.tool FILE`` gives an
indented view.  CSV cells that are plain ``int``, ``float`` or ``str``
go to ``csv.writer`` as they are, which writes them as ``to_jsonable``
would (a non-finite float as nan, inf or -inf); other cells are
converted first.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import time
from pathlib import Path

import numpy as np


# CSV cells written as they are, by exact type: a subclass such as
# np.float64 or bool is converted as before, whatever csv.writer makes of it
_PLAIN = (int, float, str)


def _real_lists(arr: np.ndarray):
    """A real array as nested lists; non-finite entries become strings."""
    vals = arr.tolist()
    return vals if np.isfinite(arr).all() else to_jsonable(vals)


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"re": to_jsonable(z.real), "im": to_jsonable(z.imag)}
    if isinstance(obj, np.ndarray):
        kind = obj.dtype.kind
        if kind in "biuf":
            return _real_lists(obj)
        if kind == "c":
            if obj.ndim == 0:
                return to_jsonable(obj.item())
            if obj.ndim > 1:
                return [to_jsonable(row) for row in obj]
            return [{"re": re, "im": im}
                    for re, im in zip(_real_lists(obj.real), _real_lists(obj.imag))]
        return to_jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def envelope(operation: str, config: dict, verdict: str, data) -> dict:
    return {
        "operation": operation,
        "config": to_jsonable(config),
        "verdict": verdict,
        "data": to_jsonable(data),
    }


def seed_hash(seed) -> str:
    return hashlib.sha256(str(seed).encode()).hexdigest()[:10]


def report_basename(subcommand: str, seed) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{subcommand}-{stamp}-{seed_hash(seed)}"


# (directory, base, ext) -> the suffix after this process's last claim; threads
# racing on an entry cost a probe, never a name, as the create is exclusive
_NEXT = {}


def _claim(directory: Path, base: str, ext: str, newline=None):
    """(path, file) of the first of {base}{ext}, {base}-1{ext}, ... that did not
    exist, from the suffix after this process's last claim of the name on,
    created exclusively: two writers can never claim the same name."""
    key = (directory.absolute(), base, ext)
    k = _NEXT.get(key, 0)
    while True:
        path = directory / (f"{base}-{k}{ext}" if k else f"{base}{ext}")
        _NEXT[key] = k + 1  # the next claim starts past this one
        try:
            return path, open(path, "x", newline=newline)
        except FileExistsError:  # append-only: never clobber an earlier report
            k += 1


def write_report(directory, subcommand: str, seed, text: str,
                 table=None, basename: str | None = None) -> list:
    """Write the encoded envelope (and optional CSV table); return written paths.

    text: the envelope's JSON text, as the command printed it.
    table: (header_row, rows), each row a sequence of cells.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = basename or report_basename(subcommand, seed)
    jpath, fh = _claim(directory, base, ".json")
    with fh:
        fh.write(text + "\n")
    paths = [jpath]
    if table is not None:
        header, rows = table
        cpath, fh = _claim(directory, base, ".csv", newline="")
        with fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([c if type(c) in _PLAIN else to_jsonable(c) for c in row]
                             for row in rows)
        paths.append(cpath)
    return paths
