"""Per-layer tracing for the bilrank benchmark, installed from outside.

The tracer rebinds the public functions of each bilrank layer module to
timing wrappers.  Modules that import a function by name hold their own
binding, so every binding is found by identity across the ``bilrank.*``
module dicts and replaced.  ``Field``'s array methods are wrapped on the
class; the scalar ``Field.add``/``mul`` are not, so their cost stays in
the caller's self time.

Storage follows call volume.  ``cli``, ``theoremlab``, ``spanspace``,
``constructions`` and ``fileio`` keep one full span per call (name,
start, end, parent span, op id).  ``gf``, ``linalg`` and ``formcore`` are
called millions of times, so they keep totals per (name, parent name).
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("gf", "linalg", "formcore", "spanspace", "constructions", "theoremlab", "fileio", "cli")
AGGREGATED = frozenset(("gf", "linalg", "formcore"))
FIELD_ARRAY_METHODS = ("add_arr", "neg_arr", "sub_arr", "mul_arr", "sum_arr", "matmul_arr")
WRAPPED_CLASSES = (("spanspace", "FormSubspace"),)


def _size(result) -> int:
    return int(getattr(result, "size", 0))


def _length(result) -> int:
    return len(result)


# items recorded per call: rows or matrices processed
ITEMS = {
    **{f"gf.{m}": _size for m in FIELD_ARRAY_METHODS},
    "linalg.batch_rank": _length,
    "linalg.code_vectors": _length,
}


def public_functions(module):
    """(name, function) for the callables a layer module defines and exports."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the layer functions of one loaded bilrank and records their calls."""

    def __init__(self):
        self.op_id = -1
        self.totals: dict[tuple[str, str], list[int]] = {}  # (key, parent) -> calls, total, self, items
        self.spans: list = []
        self.charge_steps = 0
        self.spectrum_calls = 0
        self.spectrum_repeats = 0
        self._spectrum_seen: dict[int, set] = {}
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper

    # -- installation ----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every layer function and rebind each alias of it.

        ``modules`` maps each layer name, and the package name ``bilrank``,
        to its loaded module.
        """
        for layer in LAYERS:
            for name, fn in public_functions(modules[layer]):
                self._wrapped[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    self._rebind(mod, attr, value, wrapper)
        field_cls = modules["gf"].Field
        for meth in FIELD_ARRAY_METHODS:
            original = vars(field_cls)[meth]
            self._rebind(field_cls, meth, original, self._wrap(f"gf.{meth}", original))
        for layer, clsname in WRAPPED_CLASSES:
            cls = getattr(modules[layer], clsname)
            original = vars(cls)["__init__"]
            self._rebind(cls, "__init__", original, self._wrap(f"{layer}.{clsname}", original))

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def unwrapped_aliases(self, modules: dict) -> list[str]:
        """Bindings that still point at an original function: must be empty."""
        originals = {id(orig) for _, _, orig in self._originals} | set(self._wrapped)
        left = []
        for modname, mod in modules.items():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    left.append(f"{modname}.{attr}")
        field_cls = modules["gf"].Field
        for meth in FIELD_ARRAY_METHODS:
            if id(vars(field_cls)[meth]) in originals:
                left.append(f"gf.Field.{meth}")
        for layer, clsname in WRAPPED_CLASSES:
            if id(vars(getattr(modules[layer], clsname))["__init__"]) in originals:
                left.append(f"{layer}.{clsname}.__init__")
        return left

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack = self._stack
        totals = self.totals
        spans = self.spans
        clock = time.perf_counter_ns
        full_span = key.split(".", 1)[0] not in AGGREGATED
        items_of = ITEMS.get(key)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator's body runs in its consumer's frames; count calls only
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                parent = stack[-1][0] if stack else ""
                rec = totals.setdefault((key, parent), [0, 0, 0, 0])
                rec[0] += 1
                return fn(*args, **kwargs)

            return counted

        original = fn
        if key == "spanspace.charge":

            def fn(items, cell_cost, *args, **kwargs):
                tracer.charge_steps += items * max(cell_cost, 1)
                return original(items, cell_cost, *args, **kwargs)

        elif key == "spanspace.rank_spectrum":

            def fn(M, *args, **kwargs):
                tracer._note_spectrum(M)
                return original(M, *args, **kwargs)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_idx = -1
            if full_span:
                span_idx = len(spans)
                spans.append(None)
            # [name, time spent in wrapped children, index of the nearest enclosing full span]
            frame = [key, 0, span_idx if full_span else (parent[2] if parent else -1)]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                pkey = parent[0] if parent else ""
                if parent is not None:
                    parent[1] += dur
                rec = totals.get((key, pkey))
                if rec is None:
                    rec = totals[(key, pkey)] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if items_of is not None and result is not None:
                    rec[3] += items_of(result)
                if full_span:
                    spans[span_idx] = (key, t0, t1, parent[2] if parent else -1, tracer.op_id)

        return wrapper

    def _note_spectrum(self, M) -> None:
        """Count rank_spectrum calls whose argument repeats an earlier one in the op."""
        if self.op_id < 0:
            return
        seen = self._spectrum_seen.setdefault(self.op_id, set())
        arg = (M.field.spec, M.n, M.basis_flat().tobytes())
        self.spectrum_calls += 1
        if arg in seen:
            self.spectrum_repeats += 1
        else:
            seen.add(arg)

    # -- results -------------------------------------------------------------------

    def by_function(self) -> dict[str, dict]:
        """calls, total_s, self_s and items per function, summed over parents."""
        out: dict[str, dict] = {}
        for (key, _), (calls, total, own, items) in self.totals.items():
            agg = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
            agg["calls"] += calls
            agg["total_s"] += total / 1e9
            agg["self_s"] += own / 1e9
            agg["items"] += items
        return out

    def counts(self) -> dict:
        """Deterministic counters only: these repeat exactly for a fixed seed."""
        stats = sorted(self.by_function().items())
        return {
            "calls": {k: v["calls"] for k, v in stats},
            "items": {k: v["items"] for k, v in stats},
            "charge_steps": self.charge_steps,
            "rank_spectrum_calls": self.spectrum_calls,
            "rank_spectrum_repeats": self.spectrum_repeats,
        }

    def write(self, path, extra: dict) -> None:
        """Write spans, per-parent totals and counters as one JSON file."""
        names = sorted({key for key, _ in self.totals})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            **extra,
            "names": names,
            "span_fields": ["name", "start_ns", "end_ns", "parent_span", "op"],
            "spans": [[index[k], s, e, p, op] for k, s, e, p, op in self.spans],
            "total_fields": ["name", "parent", "calls", "total_ns", "self_ns", "items"],
            "totals": [[k, p, *rec] for (k, p), rec in sorted(self.totals.items())],
            "counts": self.counts(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
