"""Deterministic serialization helpers, and the one reader of numbers from
outside.

All floats are written with a fixed 17-significant-digit format so that a
given config and seed produce byte-identical output files.  Every JSON number
read from a config, a state spec, a density file or a matrix file goes
through ``json_number``, ``json_integer`` or ``json_array``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import reprlib
from pathlib import Path

import numpy as np

from .errors import ValidationError


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
# Reading numbers and JSON files


def _is_number(value, *, any_int: bool = False) -> bool:
    """True for a JSON number: an int or a float, never a bool, a string or
    null, and an int beyond a double's range only when ``any_int``.  A string
    that float() cannot read raises float()'s own ValueError."""
    if isinstance(value, str):
        float(value)
        return False
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:   # an int beyond a double's range
        return any_int
    return True


def json_number(value):
    """``value`` itself when it is a JSON number that a double holds (see
    ``_is_number``), else a ValueError that shows it."""
    if not _is_number(value):
        raise ValueError(f"must be a number, got {reprlib.repr(value)}")
    return value


def json_integer(value) -> int:
    """``value`` as an int: an int of any size, never passed through a
    double, or a float with no fractional part; a fractional or non-finite
    number is refused, not truncated, and so are a bool and a string."""
    if not (_is_number(value, any_int=True) and value % 1 == 0):   # NaN, inf fail
        raise ValueError(f"must be an integer, got {reprlib.repr(value)}")
    return int(value)


def json_array(value) -> np.ndarray:
    """``value``, a JSON number or arrays of them nested to any depth, as a
    float array; one entry that ``json_number`` refuses refuses the whole."""
    pending = [value]
    while pending:
        entry = pending.pop()
        if isinstance(entry, (list, tuple)):
            if not set(map(type, entry)) <= {float, int}:   # scanned in C
                pending.extend(reversed(entry))
        elif not _is_number(entry):
            break
    else:
        with contextlib.suppress(OverflowError):   # an int beyond a double's range
            return np.asarray(value, dtype=float)
    raise ValueError(f"must hold numbers, got {reprlib.repr(value)}")


# Arrays and objects nest at most this deep in a file read: a report echoes
# its config through recursive helpers, which reach Python's recursion limit
# from a depth of about 500 (a depth of 3 per nested mixture).
MAX_JSON_DEPTH = 400


def _json_depth(data) -> int:
    """How deeply arrays and objects nest in ``data``, found level by level;
    a container of scalars alone is scanned in C."""
    depth, level = 0, [data] if isinstance(data, (list, dict)) else []
    while level:
        depth += 1
        inner = []
        for c in level:
            items = c.values() if isinstance(c, dict) else c
            if not set(map(type, items)) <= {int, float, str, bool, type(None)}:
                inner += [v for v in items if isinstance(v, (list, dict))]
        level = inner
    return depth


def read_json(what: str, path, parse):
    """``parse`` of the JSON in ``path``; a read, parse or number failure, or
    a nesting deeper than MAX_JSON_DEPTH, names ``what`` and the path in one
    line."""
    try:
        try:
            data = json.loads(Path(path).read_text())
        except RecursionError:   # the decoder's own limit lies deeper still
            deep = True
        else:
            deep = _json_depth(data) > MAX_JSON_DEPTH
        if deep:
            raise ValueError(f"arrays and objects nest deeper than {MAX_JSON_DEPTH}")
        return parse(data)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


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
    return read_json("matrix", path, _matrix_rows)


def _matrix_rows(data) -> np.ndarray:
    m = json_array(data)
    if m.ndim != 2:
        raise ValueError("expected an array of rows")
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
