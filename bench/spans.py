"""Span tracing of gfdescent from outside the package.

Tracer.install() replaces every public function of the layer modules with a
wrapper, in every gfdescent.* namespace that holds the function (modules
import each other's functions by name, so patching only the defining module
would miss those calls).  Tracer.uninstall() puts the originals back; no
source file changes.

Two kinds of wrapper:

- spanned functions record one span (name, start, end, parent, op id);
- counted functions are the constant-time helpers called once per candidate
  (root extraction, primality, point normalisation).  A span per call would
  cost more than the call and hold millions of spans in memory, so they only
  add one to a per-span counter of the innermost open span.  Their time is
  part of the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "exact", "smith", "groups", "sarith", "belyi", "gfe", "quartic")

COUNTED = frozenset(
    {
        "exact.is_perfect_nth_power",
        "exact.integer_nth_root",
        "exact.is_probable_prime",
        "exact.normalize_projective",
        "exact.intersection_ideal",
        "sarith.valuation",
        "sarith.is_nth_power_ideal",
        "belyi.mu_order",
        "belyi.root_point_test",
        "gfe.is_primitive_solution",
        "gfe.j_map",
        "quartic.affine",
        "quartic.belyi_eval",
    }
)

ENUMERATE = "gfe.enumerate_primitive_solutions"
ROOT_TEST = "exact.is_perfect_nth_power"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)  # span (-1: none)
        self.result_len: dict[int, int] = {}
        self.raised: dict[int, str] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gfdescent.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counted if name in COUNTED else self._spanned
                wrappers[fn] = wrap(fn, name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gfdescent" or modname.startswith("gfdescent.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self._patches:
            setattr(mod, attr, original)
        self._patches.clear()

    def _spanned(self, fn, name):
        names, start, end, parent, op = self.names, self.start, self.end, self.parent, self.op
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.raised[idx] = type(e).__name__
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if name == ENUMERATE:
                self.result_len[idx] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            counts[stack[-1] if stack else -1][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span; counts of counted calls ride on the span
        they ran under (span -1 collects calls made outside any span)."""
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                rec = {
                    "id": i,
                    "name": name,
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }
                if self.counts.get(i):
                    rec["counts"] = dict(self.counts[i])
                if i in self.raised:
                    rec["raised"] = self.raised[i]
                f.write(json.dumps(rec) + "\n")
            if self.counts.get(-1):
                f.write(json.dumps({"id": -1, "counts": dict(self.counts[-1])}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, busy (inclusive time, nested same-name spans
        counted once), self (busy minus time covered by child spans), plus
        cap hits of factorize and the hit ratio of the enumerator."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]

        out: defaultdict[str, Counter] = defaultdict(Counter)
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += dur[i] - child_time[i]
            if not self._has_ancestor_named(i, name):
                row["busy_s"] += dur[i]
            if self.raised.get(i) == "WorkLimitExceeded":
                row["cap_hits"] += 1
        for counter in self.counts.values():
            for name, k in counter.items():
                out[name]["calls"] += k

        # Useful roots per root attempt, both measured under enumeration spans.
        enum_of = [-1] * n
        for i, name in enumerate(self.names):  # parents precede children
            p = self.parent[i]
            enum_of[i] = i if name == ENUMERATE else (enum_of[p] if p >= 0 else -1)
        roots = sum(
            c[ROOT_TEST] for i, c in self.counts.items() if i >= 0 and enum_of[i] >= 0
        )
        found = sum(self.result_len.get(i, 0) for i in range(n) if self.names[i] == ENUMERATE)
        out[ENUMERATE]["hit_ratio"] = found / roots if roots else 0.0
        return {name: dict(row) for name, row in out.items()}

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parent[p]
        return False
