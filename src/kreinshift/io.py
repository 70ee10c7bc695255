"""Matrix files and CSV emission.

A matrix file is a JSON document with fields ``dim`` (positive integer)
and ``entries`` (row-major list of [re, im] pairs of finite numbers that
fit a double, dim*dim of them); any other field, such as a ``label``, is
ignored.  JSON booleans are not numbers here.
Floats are serialized with the shortest representation that round-trips,
so write-then-read reproduces every representable double bit for bit.
CSV output uses the same float formatting, a dot decimal separator and no
grouping, independent of locale.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParseError, PreconditionError

__all__ = ["read_matrix", "write_matrix", "format_float", "write_csv"]


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to the same double."""
    return repr(float(x))


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"matrix files hold square matrices, got {m.shape}")
    entries = [[float(val.real), float(val.imag)] for val in m.ravel()]
    doc = {"dim": int(m.shape[0]), "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def read_matrix(path) -> np.ndarray:
    # ValueError: malformed JSON, text that is not UTF-8, or an integer with
    # more digits than Python converts; RecursionError: arrays nested too deep
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot parse matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ParseError(f"matrix file {path} lacks dim/entries fields")
    dim = doc["dim"]
    entries = doc["entries"]
    # exact types: bool, a subclass of int, is no number in a matrix file
    if type(dim) is not int or dim < 1:
        raise ParseError(f"matrix file {path}: dim must be a positive integer")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ParseError(
            f"matrix file {path}: expected {dim * dim} entries, found "
            f"{len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    vals = np.empty(dim * dim, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) in (int, float) for x in pair)):
            raise ParseError(f"matrix file {path}: entry {i} is not a [re, im] pair of numbers")
        try:
            vals[i] = complex(float(pair[0]), float(pair[1]))
        except OverflowError as exc:
            raise ParseError(f"matrix file {path}: entry {i} does not fit a double") from exc
    if not np.all(np.isfinite(vals)):
        raise ParseError(f"matrix file {path}: entries must be finite")
    return vals.reshape(dim, dim)


def write_csv(fp, header, rows) -> None:
    """Write rows of already-formatted strings; no quoting is ever needed
    for the numeric payloads emitted here."""
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(row) + "\n")
