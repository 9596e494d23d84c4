"""Per-layer spans and counters, recorded by wrapping drwitt at run time.

Nothing under src/ is edited.  Each wrapped function is replaced in every
drwitt module (and on the class that defines it, for methods) that holds a
reference to it, so `from ... import` copies such as `dieudonne.howell` or
`derham.gf_rref` are caught too.  A wrapper records a span (name, start,
end, parent) in memory; the job writes the spans out when it ends and the
runner reduces them to calls, self time and total time per name.  Hot
recursive helpers get a bare counter instead of a span, because a span
per call would cost more than the helper itself.  A name that no longer
resolves is reported as absent, never as an error, so the benchmark
survives refactors that delete a layer.
"""

import json
import sys
import time
from functools import wraps

# name -> stats reported; a span is recorded around every call
SPANS = {
    "rings.parse_ringspec": ("total_s",),
    "rings.MonomialAlgebra.monomials": ("calls", "self_s"),
    "dieudonne.LiftComplex.forms": ("calls", "self_s"),
    "dieudonne.SaturatedModel.lattice": ("calls", "self_s"),
    "dieudonne.SaturatedModel._certify": ("calls", "self_s"),
    "dieudonne.SaturatedModel.d": ("self_s",),
    "dieudonne.SaturatedModel.frob": ("self_s",),
    "dieudonne.SaturatedModel.versch": ("self_s",),
    "dieudonne.StrictLevel._relations": ("self_s",),
    "dieudonne.StrictLevel.invariants": ("total_s",),
    "exactcore.howell": ("calls", "self_s", "cells", "max_cells"),
    "exactcore.solve": ("calls", "self_s"),
    "exactcore.preimage": ("calls", "self_s"),
    "exactcore.normal_form": ("calls", "self_s"),
    "exactcore.mat_mul": ("calls", "self_s"),
    "exactcore.homology": ("calls", "self_s"),
    "exactcore.gf_rref": ("calls", "self_s", "max_cells"),
    "synlog._FiberBlock.complex": ("self_s",),
    "synlog._FiberBlock.differential": ("self_s",),
    "synlog._certify_block_invertible": ("self_s",),
    "synlog.log_lattice": ("total_s",),
    "derham.DeRhamComplex.component": ("self_s",),
    "derham.derham_cohomology": ("total_s",),
    "derham.cartier_smooth_check": ("total_s",),
    "cli._emit": ("total_s",),
}

# counted without a span: recursive or called hundreds of thousands of times
COUNTERS = ("rings._knapsack", "dieudonne.LiftComplex._knapsack", "rings.wkey")

# lru_cache'd methods whose cache_info() gives a hit ratio
CACHED = (
    "dieudonne.LiftComplex.forms",
    "dieudonne.LiftComplex.d_matrix",
    "dieudonne.LiftComplex.f_matrix",
    "dieudonne.SaturatedModel.lattice",
    "dieudonne.SaturatedModel._certify",
    "dieudonne.SaturatedModel.d",
    "dieudonne.SaturatedModel.frob",
    "dieudonne.SaturatedModel.versch",
    "dieudonne.StrictLevel._relations",
    "derham.DeRhamComplex.raw_forms",
    "derham.DeRhamComplex.component",
)

MODEL = "dieudonne.SaturatedModel"

# metric names keep the layer's public spelling
ALIASES = {"cli._emit": "cli.emit"}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "cells": "count", "max_cells": "count"}


def metric_names():
    """(name, unit) of every per-layer metric, in report order.

    The last, the traced round's wall time, is measured by the runner; all
    others come from reduce_dumps().
    """
    out = []
    for name, stats in SPANS.items():
        out += [(f"{ALIASES.get(name, name)}.{st}", UNITS[st]) for st in stats]
    out += [(f"{name}.calls", "count") for name in COUNTERS]
    out += [(f"{MODEL}.models_built", "count"), (f"{MODEL}.models_distinct", "count")]
    out += [(f"{name}.hit_ratio", "ratio") for name in CACHED]
    out.append(("trace.layers_s", "s"))
    out.append(("trace.wall_s", "s"))
    return out


def _rows_cells(args):
    """rows x cols of the matrix argument of howell(R, rows, ncols) / gf_rref(K, rows, ncols)."""
    rows = args[1] if len(args) > 1 else []
    ncols = args[2] if len(args) > 2 and args[2] is not None else (len(rows[0]) if rows else 0)
    return len(rows) * ncols


CELLS = {"exactcore.howell": _rows_cells, "exactcore.gf_rref": _rows_cells}


def _resolve(name):
    """(owner, attribute, raw object) for a dotted name under drwitt, or None.

    For a method the owner is the class in the MRO whose __dict__ defines
    it, so patching it reaches every instance and subclass.
    """
    module_name, *path = name.split(".")
    module = sys.modules.get(f"drwitt.{module_name}")
    if module is None:
        return None
    owner = module
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = path[-1]
    if isinstance(owner, type):
        for cls in owner.__mro__:
            if attr in cls.__dict__:
                return cls, attr, cls.__dict__[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory spans and counters for one job process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.active = []
        self.counters = {}
        self.cells = {}
        self.models = []
        self.caches = {}
        self.absent = []

    def install(self, counters=True):
        """Wrap every listed layer that exists in the loaded drwitt modules.

        With counters=False the COUNTERS helpers stay unwrapped: their
        millions of calls would otherwise be charged to their callers'
        self time.
        """
        # read the caches before a span wrapper hides them
        for name in CACHED:
            found = _resolve(name)
            if found is not None and hasattr(found[2], "cache_info"):
                self.caches[name] = found[2].cache_info
            else:
                self.absent.append(f"{name}.hit_ratio")
        for name in SPANS:
            self._patch(name, lambda fn, n=name: self._span(fn, n))
        for name in COUNTERS if counters else ():
            self._patch(name, lambda fn, n=name: self._count(fn, n))
        self._patch(f"{MODEL}.__init__", self._model_counter)

    def _patch(self, name, make):
        found = _resolve(name)
        if found is None:
            self.absent.append(name)
            return
        owner, attr, raw = found
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = make(fn)
        if isinstance(owner, type):
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            return
        # a module-level function: replace every drwitt module's reference
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "drwitt" or mod_name.startswith("drwitt."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _span(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        self.active.append(0)
        spans, stack, active = self.spans, self.stack, self.active
        cells_of = CELLS.get(name)
        cells = self.cells.setdefault(name, [0, 0]) if cells_of else None
        clock = time.perf_counter

        @wraps(fn)
        def wrapped(*args, **kwargs):
            if cells_of is not None:
                c = cells_of(args)
                cells[0] += c
                cells[1] = max(cells[1], c)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outer = active[name_id] == 0
            active[name_id] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name_id] -= 1
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, outer)

        return wrapped

    def _count(self, fn, name):
        counter = self.counters.setdefault(name, [0])

        @wraps(fn)
        def wrapped(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _model_counter(self, init):
        models = self.models

        @wraps(init)
        def wrapped(model, *args, **kwargs):
            init(model, *args, **kwargs)
            key = (getattr(model, "spec", None), getattr(model, "s_star", None), getattr(model, "R", None))
            models.append(repr(key))

        return wrapped

    def dump(self, path):
        """Write the spans and counters of this process to `path` as JSON."""
        doc = {
            "names": self.names,
            "spans": self.spans,
            "counters": {k: v[0] for k, v in self.counters.items()},
            "cells": self.cells,
            "caches": {k: list(info()[:2]) for k, info in self.caches.items()},
            "models": self.models,
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def reduce_dumps(docs):
    """Per-layer metrics of one round from the span dumps of its processes."""
    calls, self_s, total_s = {}, {}, {}
    counters, cells, hits = {}, {}, {}
    built = distinct = 0
    absent = set()
    for doc in docs:
        names = doc["names"]
        spans = doc["spans"]
        # a span still open when the job ended is null and carries no time
        closed = [(k, s) for k, s in enumerate(spans) if s is not None]
        child_time = [0.0] * len(spans)
        for _, (name_id, t0, t1, parent, outer) in closed:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for k, (name_id, t0, t1, parent, outer) in closed:
            name = names[name_id]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[k]
            if outer:
                total_s[name] = total_s.get(name, 0.0) + dur
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, (total, peak) in doc["cells"].items():
            cur = cells.get(name, [0, 0])
            cells[name] = [cur[0] + total, max(cur[1], peak)]
        for name, (h, m) in doc["caches"].items():
            cur = hits.get(name, [0, 0])
            hits[name] = [cur[0] + h, cur[1] + m]
        built += len(doc["models"])
        distinct += len(set(doc["models"]))
        absent.update(doc["absent"])
    by_stat = {
        "calls": calls,
        "self_s": self_s,
        "total_s": total_s,
        "cells": {k: v[0] for k, v in cells.items()},
        "max_cells": {k: v[1] for k, v in cells.items()},
    }
    values = {
        f"{ALIASES.get(name, name)}.{st}": by_stat[st].get(name, 0)
        for name, stats in SPANS.items()
        for st in stats
    }
    for name in COUNTERS:
        values[f"{name}.calls"] = counters.get(name, 0)
    values[f"{MODEL}.models_built"] = built
    values[f"{MODEL}.models_distinct"] = distinct
    for name in CACHED:
        h, m = hits.get(name, [0, 0])
        values[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
    # time inside any wrapped layer: the denominator of a layer's share
    values["trace.layers_s"] = sum(self_s.values())
    return values, sorted(absent)
