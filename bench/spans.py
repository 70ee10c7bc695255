"""Spans around the public functions of kreinshift, recorded from outside.

``Tracer.install`` wraps each traced function and puts the wrapper in
place of every module global, class attribute and package re-export that
refers to the original, so a call is seen whichever name its caller looks
up (``oplog.integrate_adaptive``, the ``eig_hermitian`` imported into
``herglotz`` and ``shift``, ...).  ``uninstall`` puts the originals back,
so untraced rounds run the program exactly as shipped.

A span records its name, start, end, thread and parent.  A call into a
function whose span name is already the innermost open span (the
anti-dissipative logarithm calling the dissipative one, piecewise
quadrature calling the adaptive one) is folded into that span, so ``calls``
counts entries into a layer, not its internal recursion.  The stack of open
spans is kept per thread; ``bench/run.py`` pins ``parallel.ordered_map`` to
one thread, so its tasks run inline and get its span as parent.  Spans stay
in memory; ``dump`` writes them out.
"""

from __future__ import annotations

import json
import threading
import time

# span name -> (module, attribute) of the traced functions; "Class.attr"
# names a method.  The boundary log is renamed after it returns, by the
# route its ConvergenceRecord reports.
TARGETS = {
    "herglotz.family": [
        ("herglotz", "HerglotzFamily.__init__"),
        ("herglotz", "HerglotzFamily.from_potential"),
        ("herglotz", "HerglotzFamily.from_positive_root"),
    ],
    "herglotz.boundary_log": [("herglotz", "boundary_log")],
    "matkit.eig_hermitian": [("matkit", "eig_hermitian")],
    "oplog.logm": [
        ("oplog", "logm_dissipative"),
        ("oplog", "logm_antidissipative"),
    ],
    "quadrature.integrate": [
        ("quadrature", "integrate_adaptive"),
        ("quadrature", "integrate_piecewise"),
    ],
    "shift.grid": [
        ("shift", "auto_grid"),
        ("shift", "safe_grid"),
        ("shift", "snap_grid"),
    ],
    "shift.compute_profile": [("shift", "compute_profile")],
    "shift.xi_via_det": [("shift", "xi_via_det")],
    "shift.counting_oracle": [("shift", "xi_counting_oracle")],
    "parallel.ordered_map": [("parallel", "ordered_map")],
    "checks.run_suite": [("checks", "run_suite")],
    "averaging.pairing": [
        ("averaging", "averaged_pairing_lhs"),
        ("averaging", "averaged_pairing_rhs"),
        ("averaging", "derivative_identity_residual"),
    ],
    "averaging.operator": [
        ("averaging", "operator_average_residual"),
        ("averaging", "operator_increment_residual"),
        ("averaging", "operator_average_increment"),
    ],
    "io": [
        ("io", "read_matrix"),
        ("io", "write_matrix"),
        ("io", "write_csv"),
        ("io", "format_float"),
    ],
    "cli.main": [("cli", "main")],
}

MODULES = (
    "matkit", "quadrature", "oplog", "herglotz", "shift", "parallel",
    "averaging", "generators", "checks", "io", "cli",
)

# index of the fields of a span record
NAME, START, END, THREAD, PARENT, EXTRA = range(6)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._local = threading.local()
        self._patched: list = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[NAME] == name:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, threading.get_ident(), parent, 0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            if on_return is not None:
                on_return(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"{self.package.__name__}.{m}") for m in MODULES}
        holders = [self.package] + list(mods.values())
        for name, targets in TARGETS.items():
            hook = _HOOKS.get(name)
            for mod_name, attr in targets:
                owner = mods[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, hook))
                    else:
                        new = self._wrap(name, raw, hook)
                    self._patched.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(owner, attr)
                new = self._wrap(name, orig, hook)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            self._patched.append((holder, key, orig))
                            setattr(holder, key, new)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call; all are closed."""
        out, self.spans = self.spans, []
        return out


def _name_boundary_log(span, result) -> None:
    rec = result[1]
    span[NAME] = f"herglotz.boundary_log_{rec.route}"
    if rec.route == "eps":
        span[EXTRA] = rec.steps


def _count_panels(span, result) -> None:
    span[EXTRA] = result[1].panels


_HOOKS = {
    "herglotz.boundary_log": _name_boundary_log,
    "quadrature.integrate": _count_panels,
}


# ----------------------------------------------------------------------
# aggregation

def _covered(intervals) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per span name: calls, summed self time, summed direct-child time and
    summed EXTRA.  Self time is a span's duration minus the part of it that
    its children cover; children on other threads may overlap each other,
    so their summed time can exceed that part."""
    children: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(id(s[PARENT]), []).append(s)
    out: dict = {}
    for s in spans:
        kids = children.get(id(s), ())
        dur = s[END] - s[START]
        cover = _covered(
            (max(k[START], s[START]), min(k[END], s[END])) for k in kids
        ) if kids else 0.0
        agg = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "child_s": 0.0, "extra": 0})
        agg["calls"] += 1
        agg["self_s"] += dur - cover
        agg["child_s"] += sum(k[END] - k[START] for k in kids)
        agg["extra"] += s[EXTRA]
    return out


def dump(path, rounds) -> None:
    """Write the spans of every traced round, one JSON record per span:
    round, id, name, start, end, thread, parent id, extra count."""
    with open(path, "w", encoding="utf-8") as fp:
        for rnd, spans in enumerate(rounds):
            ids = {id(s): i for i, s in enumerate(spans)}
            for i, s in enumerate(spans):
                parent = ids.get(id(s[PARENT])) if s[PARENT] is not None else None
                fp.write(json.dumps(
                    [rnd, i, s[NAME], s[START], s[END], s[THREAD], parent, s[EXTRA]]
                ) + "\n")
