"""Span tracing around the public functions of each kidecomp module.

The tracer replaces each listed function, in every kidecomp module that
holds a reference to it (for example both `kidecomp.structure.check_maximal`
and `kidecomp.cli.check_maximal`), with a wrapper that records a span, and
puts the originals back on `restore`. Nothing under `src/` is edited. Spans
carry a name, a start, an end and the index of the enclosing span; they stay
in memory until the run writes them out.
"""

import importlib
import sys
import time

LAYERS = {
    "cli": ("main",),
    "io": ("load_family_file", "load_kraus_file", "dumps_canonical", "dumps_text"),
    "structure": ("decompose", "check_maximal", "family_average", "tensor_structure"),
    "algebra": ("isotypic_decompose", "intertwiner_space", "commutant_of_family"),
    "channels": ("canonical_kraus", "has_block_form", "preserves_family", "confines_positive_part"),
    "applications": ("entropy_report", "is_broadcastable", "no_imprinting_holds", "sequential_clonability"),
    "linalg": ("state_family",),
}

TRACED = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        homes = {layer: importlib.import_module(f"kidecomp.{layer}") for layer in LAYERS}
        modules = [m for key, m in sorted(sys.modules.items()) if key == "kidecomp" or key.startswith("kidecomp.")]
        for layer, fns in LAYERS.items():
            home = homes[layer]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        self._patched.append((module, fn_name, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(spans):
    """Per-function totals and call counts, and per-module self time.

    A function's time counts only its outermost span when it re-enters
    itself. A module's self time is the sum over its spans of the span's
    duration minus the durations of the spans it directly encloses.
    """
    out = {}
    for name in TRACED:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
    for module in LAYERS:
        out[f"{module}.self_s"] = 0.0
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            out[f"{name}.s"] += end - start
        out[f"{name.split('.')[0]}.self_s"] += end - start - child_time[idx]
    return out
