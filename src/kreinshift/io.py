"""Matrix files and CSV emission.

A matrix file is a JSON document with fields ``dim`` (positive integer),
``entries`` (row-major list of [re, im] pairs of finite numbers, dim*dim of
them) and an optional ``label``; JSON booleans are not numbers here.
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


def write_matrix(path, m: np.ndarray, label: str | None = None) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"matrix files hold square matrices, got {m.shape}")
    entries = []
    for row in m:
        for val in row:
            entries.append([float(val.real), float(val.imag)])
    doc = {"dim": int(m.shape[0]), "entries": entries}
    if label is not None:
        doc["label"] = str(label)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def read_matrix(path) -> tuple[np.ndarray, str | None]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
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
        vals[i] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(vals)):
        raise ParseError(f"matrix file {path}: entries must be finite")
    label = doc.get("label")
    return vals.reshape(dim, dim), (str(label) if label is not None else None)


def write_csv(fp, header, rows) -> None:
    """Write rows of already-formatted strings; no quoting is ever needed
    for the numeric payloads emitted here."""
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(row) + "\n")
