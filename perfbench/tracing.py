"""Span tracing for coparse, installed from outside the package.

The tracer replaces chosen functions by wrappers that record one span per
call (name, start, end, parent span) and return the callee's value
untouched. A function is patched under every ``coparse.*`` module
attribute bound to it, so a call through ``pipeline.alpha_expansion`` is
traced like one through ``graphcut.alpha_expansion``. A target that no
longer exists is recorded as missing instead of raising, so the benchmark
keeps running after the program renames or deletes code.

Spans stay in memory until the run ends; ``totals`` folds them into calls,
inclusive and self seconds per name, and ``span_records`` gives them out
for writing.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.digest()


# Repeat keys: two calls with equal keys in one run_cosegmentation call
# compute the same thing. Each takes the call's bound arguments.

def _multicut_key(a):
    return (a["instance"], a["theta"])


def _exemplar_key(a):
    return _digest(a["image"].id, a["region"].superpixels, a["excluded"].tobytes(),
                   a["lam1"], a["lam2"], a["seed"], a["exemplar_id"])


def _propagate_key(a):
    ex = a["exemplar"]
    return _digest(ex.w.tobytes(), ex.mask.tobytes(), ex.alpha, ex.beta,
                   tuple(rec.id for rec in a["corpus_images"]),
                   a["k"], a["stride"], tuple(a["scales"]))


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# Counters read off a call: (bound arguments, result) -> {counter: amount}.

def _linprog_sizes(a, _res):
    a_ub = a.get("A_ub")
    return {"vars": len(a["c"]), "rows": 0 if a_ub is None else a_ub.shape[0]}


COUNTERS = {
    "grouping.linprog": _linprog_sizes,
    "grouping.brute_force_multicut":
        lambda a, _r: {"partitions": _bell(a["instance"].node_count)},
    "esvm.detect": lambda _a, r: {"kept": len(r)},
    "colabel.build_graph": lambda _a, r: {"vertices": len(r.vertex_regions),
                                          "exterior_edges": len(r.exterior_edges)},
    "graphcut.alpha_expansion": lambda _a, r: {"sweeps": r.sweeps},
    "pipeline.run_cosegmentation": lambda _a, r: {"iterations": r.iteration_count},
}

REPEAT_KEYS = {
    "grouping.solve_multicut": _multicut_key,
    "esvm.build_exemplar": _exemplar_key,
    "esvm.propagate": _propagate_key,
}

# The span that opens a fresh repeat-counting scope.
SCOPE = "pipeline.run_cosegmentation"

# (module, attribute) pairs to wrap; the span is named "<module>.<attribute>".
# linprog is scipy's, wrapped where grouping holds it.
TARGETS = (
    ("grouping", "instance_for_image"),
    ("grouping", "solve_multicut"),
    ("grouping", "linprog"),
    ("grouping", "brute_force_multicut"),
    ("esvm", "build_exemplar"),
    ("esvm", "sample_negatives"),
    ("esvm", "train_esvm"),
    ("esvm", "propagate"),
    ("esvm", "detect"),
    ("features", "hog"),
    ("features", "region_histogram"),
    ("kernels", "cell_histograms"),
    ("kernels", "score_windows"),
    ("colabel", "build_graph"),
    ("graphcut", "alpha_expansion"),
    ("graphcut", "max_flow"),
    ("io", "load_corpus"),
    ("io", "write_pgm16"),
    ("pipeline", "train_label_model"),
    ("pipeline", "run_cosegmentation"),
    ("pipeline", "run_colabeling"),
    ("pipeline", "evaluate"),
)


class Tracer:
    """Patches TARGETS on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"coparse.{module_name}")
            except ImportError:
                module = None
            target = getattr(module, attr, None)
            if not callable(target):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "coparse" and not mod_name.startswith("coparse."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patched.append((mod, key, target))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name: str, target):
        counter = COUNTERS.get(name)
        repeat_key = REPEAT_KEYS.get(name)
        signature = inspect.signature(target) if counter or repeat_key else None
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                ba = signature.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            if name == SCOPE:
                self._seen = defaultdict(set)
            if repeat_key is not None and self._seen is not None:
                seen = self._seen[name]
                key = repeat_key(bound)
                counters[f"{name}.scoped_calls"] += 1
                if key in seen:
                    counters[f"{name}.repeats"] += 1
                else:
                    seen.add(key)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if name == SCOPE:
                    self._seen = None
            if counter is not None:
                for key, amount in counter(bound, result).items():
                    counters[f"{name}.{key}"] += amount
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def covered_seconds(self) -> float:
        """Time covered by top-level spans (they never overlap)."""
        return sum(e - s for _, s, e, p in self.spans if p < 0)
