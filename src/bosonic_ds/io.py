"""Deterministic serialization helpers.

All floats are written with a fixed 17-significant-digit format so that a
given config and seed produce byte-identical output files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Recursively convert numpy containers and scalars to plain Python."""
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def canonical_dumps(obj, indent: int = 2) -> str:
    """JSON text with deterministic float formatting (17 significant digits)."""
    return _emit(to_jsonable(obj), indent, 0) + "\n"


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, indent, level + 1) for v in obj]
        if all(not isinstance(v, (list, dict)) for v in obj) and \
                sum(len(s) for s in items) < 72:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [json.dumps(str(k)) + ": " + _emit(v, indent, level + 1)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(obj, path) -> None:
    Path(path).write_text(canonical_dumps(obj))


# ---------------------------------------------------------------------------
# Real matrices as JSON arrays of rows


def matrix_to_json(matrix: np.ndarray) -> str:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return canonical_dumps(m.tolist())


def save_matrix(matrix: np.ndarray, path) -> None:
    Path(path).write_text(matrix_to_json(matrix))


def load_matrix(path) -> np.ndarray:
    data = json.loads(Path(path).read_text())
    m = np.asarray(data, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{path}: expected an array of rows")
    return m


# ---------------------------------------------------------------------------
# CSV tables


def csv_text(header: list, rows) -> str:
    import io as _io

    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(v) if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue()
