"""An ordered map that no module of the package calls.

Every grid is read as batched numpy arrays in one thread.  The name stays
because ``bench/spans.py`` imports and wraps ``ordered_map``.
"""

from __future__ import annotations

__all__ = ["ordered_map"]


def ordered_map(fn, items) -> list:
    """``fn`` of each item, in order."""
    return [fn(x) for x in items]
