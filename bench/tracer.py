"""Boundary tracing of numideal from outside the package.

`Tracer.install()` replaces the public functions named in SPANNED and
COUNTED by wrappers, in the defining module and in every numideal module
that imported them by name (engine binds `from .branch import solve_branch`,
so `engine.solve_branch` is wrapped too).  A spanned call records
[name, start, end, parent, request, ok]; a counted call only increments a
counter.  Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# target "module.function" or "module.Class.method" -> metric name
SPANNED = {
    "poly.MultiPoly.mul_truncated": "poly.mul_truncated",
    "poly.MultiPoly.pow_truncated": "poly.pow_truncated",
    "poly.MultiPoly.eval_exact": "poly.eval_exact",
    "poly.MultiPoly.subs": "poly.subs",
    "branch.solve_branch": "branch.solve_branch",
    "branch.classify": "branch.classify",
    "forms.sampled_sphere_nonneg": "forms.sampled_sphere_nonneg",
    "forms.is_positive_definite": "forms.is_positive_definite",
    "puiseux.comparable_polynomial": "puiseux.comparable_polynomial",
    "puiseux.newton_puiseux": "puiseux.newton_puiseux",
    "puiseux.weierstrass_prepare": "puiseux.weierstrass_prepare",
    "closure.monomialize": "closure.monomialize",
    "closure.ic_generators": "closure.ic_generators",
    "closure.ic_membership": "closure.ic_membership",
    "engine.numerator_ideal": "engine.numerator_ideal",
    "engine.membership": "engine.membership",
    "engine.boundedness_oracle": "engine.boundedness_oracle",
    "parsing.parse": "parsing.parse",
    "parsing.format_poly": "parsing.format_poly",
    "construct.polydisk_to_halfplane": "construct.polydisk_to_halfplane",
    "construct.iterated_composition": "construct.iterated_composition",
}
# hot or tiny calls whose count is the useful figure
COUNTED = {
    "poly.MultiPoly.__mul__": "poly.mul",
    "forms.count_real_roots": "forms.count_real_roots",
    "puiseux.branch_factor_poly": "puiseux.branch_factor_poly",
    "closure.rational_circle_points": "closure.rational_circle_points",
}
# return values kept for size statistics
KEEP_RESULTS = ("branch.solve_branch",)

NAME, START, END, PARENT, REQUEST, OK = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.results = defaultdict(list)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        if self.stack:
            parent = self.stack[-1]
            request = self.spans[self.stack[0]][REQUEST]
        else:
            parent, request = -1, idx
        self.spans.append([name, time.perf_counter(), None, parent, request, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool):
        self.stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[OK] = ok

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield idx
            ok = True
        finally:
            self._close(idx, ok)

    def _spanned(self, name: str, fn):
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if keep:
                self.results[name].append(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target wherever the package binds it."""
        import numideal

        modules = [numideal] + [
            importlib.import_module(f"numideal.{info.name}")
            for info in pkgutil.iter_modules(numideal.__path__)
        ]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for target, name in table.items():
                module_name, *path = target.split(".")
                owner = importlib.import_module(f"numideal.{module_name}")
                if len(path) == 2:
                    cls = getattr(owner, path[0])
                    setattr(cls, path[1], make(name, cls.__dict__[path[1]]))
                    continue
                fn = getattr(owner, path[0])
                wrapper = make(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    # -- merging and output ------------------------------------------------

    def merge(self, path: str, parent: int) -> dict:
        """Adopt the spans and counts another process dumped to `path`,
        hanging its root spans under `parent`; returns the dump's extras."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        request = self.spans[parent][REQUEST]
        for name, start, end, par, _req, ok in data.pop("spans"):
            self.spans.append(
                [name, start, end, base + par if par >= 0 else parent, request, ok]
            )
        self.counts.update(data.pop("counts"))
        return data

    def dump(self, path: str, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def layer_totals(spans, lo: int, hi: int) -> dict:
    """Per span name over spans[lo:hi]: calls, ok calls, and self seconds
    (duration minus the time covered by direct child spans)."""
    child_time = defaultdict(float)
    for span in spans[lo:hi]:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(lambda: {"calls": 0, "ok": 0, "self_s": 0.0})
    for idx in range(lo, hi):
        span = spans[idx]
        t = totals[span[NAME]]
        t["calls"] += 1
        t["ok"] += bool(span[OK])
        t["self_s"] += span[END] - span[START] - child_time[idx]
    return totals
