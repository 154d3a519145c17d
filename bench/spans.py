"""Spans and counters around the library's public functions, from outside.

`Tracer.install` replaces every public function name in every abmealy
module's namespace with a wrapper, so a call is seen exactly where the
calling module looks the name up (`abmealy.analysis.locate`,
`abmealy.group.identity_test`, ...).  Calls into a handful of hot
primitives are only counted; every other call records a span (name, layer,
start, end, parent span, op id).  Spans stay in memory until `write`.
`uninstall` puts the original objects back.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("mealy", "group", "exactalg", "complete", "analysis", "cli")

# Called up to millions of times per command: counted, never spanned.
HOT = {
    "complete.residual_vector", "complete.transduce_vector", "complete.format_vector",
    "complete.vector_label", "complete.unit_vector", "complete.parse_vector",
    "exactalg.reduce_mod", "exactalg.mul_mod", "group.residuate_element",
    "group.element_parity", "group.format_combination", "mealy.step",
    "mealy.MealyAutomaton.step", "group._identity_test_coeffs",
}
# Private names that are counted when the module still has them.
PRIVATE_COUNTED = {"group": ("_identity_test_coeffs",)}
# Methods looked up on classes rather than module namespaces.
METHODS = {"mealy": {"MealyAutomaton": ("step", "transduce")}}
# Spans whose result size is summed into a counter of the same name + ".size".
SIZES = {
    "complete.orbit": len,
    "group.build_principal": lambda m: len(m.states),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._saved: list = []

    # -- wrapping --------------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        counts = self.counts
        if name in HOT:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    counts[name + ".size"] += size(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent, self.op_id)
                counts[name] += 1
        return spanned

    def install(self, lib_modules: dict) -> None:
        """lib_modules maps layer name -> imported abmealy module."""
        for site, mod in lib_modules.items():
            for attr, obj in list(vars(mod).items()):
                private = attr in PRIVATE_COUNTED.get(site, ())
                # plain functions and lru_cache wrappers defined in the package
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                if attr.startswith("_") and not private:
                    continue
                if not getattr(obj, "__module__", "").startswith("abmealy."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{layer}.{attr}", layer))
        for site, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(lib_modules[site], cls_name)
                for meth in methods:
                    obj = cls.__dict__[meth]
                    self._saved.append((cls, meth, obj))
                    setattr(cls, meth, self._wrap(obj, f"{site}.{cls_name}.{meth}", site))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- reading the trace ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus its children's."""
        child = defaultdict(float)
        for span in self.spans:
            name, layer, t0, t1, parent, _ = span
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for idx, (name, layer, t0, t1, parent, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[idx]
        return out

    def by_name(self) -> dict:
        """name -> [calls, total seconds] over spans."""
        out: dict = {}
        for name, layer, t0, t1, parent, _ in self.spans:
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as compact rows plus counts, self times and `extra`, as JSON."""
        base = self.spans[0][2] if self.spans else 0.0
        rows = [[n, l, round(t0 - base, 9), round(t1 - base, 9), p, op]
                for n, l, t0, t1, p, op in self.spans]
        doc = dict(extra, counts=dict(self.counts), self_s=self.self_times(),
                   span_fields=["name", "layer", "start_s", "end_s", "parent", "op"],
                   spans=rows)
        path.write_text(json.dumps(doc), encoding="utf-8")
