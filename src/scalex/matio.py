"""File formats for matrices and truncated shift models.

Matrix files are plain text: a ``rows cols`` header line, then one line per
row with whitespace-separated ``re,im`` fields.  Values are written with
``repr`` so a write/read cycle is bit-exact.  Model files are JSON with keys
``d``, ``N`` and ``A``, where ``d`` and ``N`` are integers and ``A`` is either a
path to a matrix file (relative paths resolve against the model file) or
inline nested arrays whose entries are numbers or ``[re, im]`` pairs.
"""

from __future__ import annotations

import json
import operator
import os
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch
from .operators import TruncatedShiftModel, _require_finite
from .spectra import _is_number, _is_numbers

__all__ = ["save_matrix", "load_matrix", "save_model", "load_model"]
_ZERO_FIELD = "0.0,0.0"  # repr of an entry that is +0.0 in both parts


def save_matrix(path: str, m: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in m:
            js = np.flatnonzero(row.real.view(np.int64) | row.imag.view(np.int64))  # not +0.0 in both parts
            fields = [_ZERO_FIELD] * cols
            for j, z in zip(js.tolist(), row[js].tolist()):
                fields[j] = f"{z.real!r},{z.imag!r}"
            fh.write(" ".join(fields) + "\n")


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        try:
            rows, cols = map(int, header)
            out = np.zeros((rows, cols), dtype=complex)
        except ValueError:  # not two integers, or one that is negative or too large to index
            raise DimensionMismatch(f"{path}: malformed matrix header {header!r}") from None
        except MemoryError:
            raise DimensionMismatch(f"{path}: header claims a {rows}x{cols} matrix") from None
        for r in range(rows):
            line = fh.readline()
            fields = line.split()
            if len(fields) != cols:
                raise DimensionMismatch(f"{path}: row {r} has {len(fields)} fields, expected {cols}")
            js = slice(None)
            if _ZERO_FIELD in fields:  # out[r] holds +0.0 already: keep the other fields and where they sit
                js = [j for j, field in enumerate(fields) if field != _ZERO_FIELD]
                fields = [fields[j] for j in js]
            # cols commas in cols fields, each holding one or more (a _ZERO_FIELD one): one comma per field
            if line.count(",") != cols or not all(map(operator.contains, fields, repeat(","))):
                raise ValueError(f"{path}: row {r} has a field that is not one re,im pair")
            if fields:
                # interleaved re, im doubles are the memory layout of complex128
                out[r, js] = np.array(",".join(fields).split(","), dtype=float).view(complex)
        if fh.read().strip():
            raise DimensionMismatch(f"{path}: more than the {rows} rows its header declares")
    return _require_finite(out, path)


def _entry_to_json(z: complex):
    return float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)]


def save_model(path: str, model: TruncatedShiftModel) -> None:
    """Write a model JSON with the weight block inline."""
    a_field = [[_entry_to_json(z) for z in row] for row in model.A]
    with open(path, "w") as fh:
        json.dump({"d": model.fiber_dim, "N": model.depth, "A": a_field}, fh, indent=2)
        fh.write("\n")


def _entry_from_json(v) -> complex:
    if _is_number(v):
        return complex(v)
    if _is_numbers(v) and len(v) == 2:
        return complex(*v)
    raise TypeError(f"entry {v!r} is not a number or an [re, im] pair")


def load_model(path: str) -> TruncatedShiftModel:
    try:
        with open(path) as fh:
            obj = json.load(fh)
        d, n, a_field = obj["d"], obj["N"], obj["A"]
        if type(d) is not int or type(n) is not int:  # bool is a subclass of int
            raise TypeError(f"d and N must be integers, got {d!r} and {n!r}")
        if isinstance(a_field, str):
            a = load_matrix(os.path.join(os.path.dirname(os.path.abspath(path)), a_field))
        else:
            a = np.array([[_entry_from_json(v) for v in row] for row in a_field], dtype=complex)
            _require_finite(a, path)
    except (TypeError, OverflowError, RecursionError) as exc:  # a wrongly typed, too large or too deep JSON value
        raise ValueError(f"{path}: not a model file: {exc}") from exc
    if a.shape != (d, d):
        raise DimensionMismatch(f"{path}: A must be {d}x{d}, got shape {a.shape}")
    return TruncatedShiftModel(d, n, a)
