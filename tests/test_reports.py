"""Report conversion: bulk array conversion against the element-wise oracle."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import bilop.reports as reports_module
from bilop.reports import to_jsonable, write_report


def elementwise_to_jsonable(obj):
    """The element-wise conversion: every array entry converted on its own."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if np.isnan(obj):
            return "nan"
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return elementwise_to_jsonable(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"re": elementwise_to_jsonable(z.real), "im": elementwise_to_jsonable(z.imag)}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            return [elementwise_to_jsonable(v) for v in obj.tolist()]
        return elementwise_to_jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: elementwise_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): elementwise_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [elementwise_to_jsonable(v) for v in obj]
    return str(obj)


def _text(obj):
    return json.dumps(obj, indent=2)


def _real(shape, dtype=float):
    rng = np.random.default_rng(len(shape))
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    return vals.astype(dtype)


def _with_non_finite(arr):
    flat = arr.reshape(-1)
    flat[[0, 2, 3]] = np.nan, np.inf, -np.inf
    return arr


def _complex(shape, dtype=complex):
    return (_real(shape) + 1j * _real(shape)[::-1]).astype(dtype)


ARRAYS = {
    "real-1d": _real((7,)),
    "real-2d": _real((3, 5)),
    "real-1d-non-finite": _with_non_finite(_real((7,))),
    "real-2d-non-finite": _with_non_finite(_real((3, 5))),
    "float32": _real((6,), np.float32),
    "negative-zero": np.array([-0.0, 0.0, 1e16, 1e-5, 5e-324]),
    "int": np.arange(-3, 4),
    "bool": np.array([True, False]),
    "real-0d": np.array(2.5),
    "real-0d-nan": np.array(np.nan),
    "empty": np.zeros(0),
    "complex-1d": _complex((7,)),
    "complex-2d": _complex((3, 5)),
    "complex-1d-non-finite": _with_non_finite(_complex((7,))),
    "complex-2d-non-finite": _with_non_finite(_complex((3, 5))),
    "complex-imag-non-finite": np.array([1 + 1j * np.nan, 2 - 1j * np.inf, 3 + 1j * np.inf]),
    "complex64": _complex((4,), np.complex64),
    "complex-empty-2d": np.zeros((3, 0), complex),
    "strings": np.array(["a", "bc"]),
}


@pytest.mark.parametrize("arr", ARRAYS.values(), ids=ARRAYS.keys())
def test_arrays_match_the_elementwise_text(arr):
    assert _text(to_jsonable(arr)) == _text(elementwise_to_jsonable(arr))


SCALARS = [np.float64(0.1), np.float64(np.nan), np.float64(-np.inf), np.float32(0.1),
           np.int64(-7), np.uint8(200), np.bool_(True), np.complex128(1 - 2j),
           np.complex64(np.inf + 0.5j), 0.1, float("nan"), float("inf"), float("-inf"),
           -0.0, 1 + 2j, True, 3, "text", None]


@pytest.mark.parametrize("value", SCALARS, ids=[repr(v) for v in SCALARS])
def test_scalars_match_the_elementwise_text(value):
    assert _text(to_jsonable(value)) == _text(elementwise_to_jsonable(value))


@dataclasses.dataclass(frozen=True)
class _Inner:
    values: np.ndarray
    ratio: float


@dataclasses.dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    items: tuple
    table: dict


def test_nested_dataclasses_match_the_elementwise_text():
    report = _Outer(
        name="scan",
        inner=_Inner(values=ARRAYS["complex-2d-non-finite"], ratio=np.float64(np.inf)),
        items=(ARRAYS["real-1d-non-finite"], (np.int64(2), np.nan), [np.complex128(1j)]),
        table={1: ARRAYS["complex-1d"], "k": {"deep": ARRAYS["real-2d"]}})
    assert _text(to_jsonable(report)) == _text(elementwise_to_jsonable(report))


@pytest.mark.parametrize("value, want", [
    (np.array(1.5 - 2j), {"re": 1.5, "im": -2.0}),
    (np.array(complex(np.nan, np.inf)), {"re": "nan", "im": "inf"}),
], ids=["finite", "non-finite"])
def test_zero_dimensional_complex_array_is_one_object(value, want):
    assert to_jsonable(value) == want


def test_write_report_writes_the_given_text_and_table(tmp_path):
    text = _text({"operation": "apply", "data": to_jsonable(ARRAYS["complex-1d"])})
    rows = [(0, 0.1, np.float64(np.nan)), (1, np.float32(0.5), -np.inf)]
    paths = write_report(tmp_path, "apply", 0, text, table=(("index", "re", "im"), rows),
                         basename="run")
    assert [p.name for p in paths] == ["run.json", "run.csv"]
    assert paths[0].read_text() == text + "\n"
    with open(paths[1], newline="") as fh:
        assert list(csv.reader(fh)) == [["index", "re", "im"], ["0", "0.1", "nan"],
                                        ["1", "0.5", "-inf"]]
    again = write_report(tmp_path, "apply", 0, text, basename="run")
    assert [p.name for p in again] == ["run-1.json"]  # append-only


def test_write_report_never_clobbers_a_name_taken_after_a_check(tmp_path, monkeypatch):
    # a writer that checked a name free before another claimed it must not overwrite
    (tmp_path / "run.json").write_text("earlier\n")
    monkeypatch.setattr(Path, "exists", lambda self: False)
    paths = write_report(tmp_path, "apply", 0, "{}", basename="run")
    assert (tmp_path / "run.json").read_text() == "earlier\n"
    assert [p.name for p in paths] == ["run-1.json"]


def test_repeated_names_in_one_process_probe_no_taken_name(tmp_path, monkeypatch):
    # after the first claim, a write under the same name starts past the
    # suffixes this process took, so no exclusive create fails
    write_report(tmp_path, "apply", 0, "{}", table=(("k",), [(0,)]), basename="run")
    refused = []

    def counted_open(*args, **kwargs):
        try:
            return open(*args, **kwargs)
        except FileExistsError:
            refused.append(args[0])
            raise

    monkeypatch.setattr(reports_module, "open", counted_open, raising=False)
    for _ in range(5):
        write_report(tmp_path, "apply", 0, "{}", table=(("k",), [(0,)]), basename="run")
    assert refused == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"run{s}{ext}" for s in ("", "-1", "-2", "-3", "-4", "-5") for ext in (".json", ".csv"))
