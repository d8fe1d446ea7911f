"""Out-of-library tracing of lpvdd's layers.

The tracer replaces each traced public function with a wrapper wherever a
module looks it up: in the defining module, in every ``lpvdd`` module that
imported the name (``lpvdd.prediction.hankel`` as well as
``lpvdd.signals.hankel``) and in the package namespace.  ``numpy.linalg.svd``
is wrapped the same way for the kernel counts.  Nothing under ``src/`` is
changed; :meth:`Tracer.uninstall` puts every original back.

Each wrapped call becomes a span ``[name, start_ns, end_ns, parent, op,
attrs]`` kept in memory.  ``CoeffMatrix.eval`` and ``CoeffMatrix.__matmul__``
run thousands of times per op, so they are aggregated per (op, name,
enclosing span) instead of recorded one by one; their time is still
subtracted from the enclosing span's self time.

Run as a script, the module traces one ``lpvdd`` command-line call::

    python perfbench/tracer.py SPANS_OUT OP_ID simulate --T 500 ...

and writes the spans of that process to ``SPANS_OUT`` as JSON, in the same
form as the benchmark's own span file (:meth:`Tracer.to_json`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Span-name parts that are not the attribute's own name.
ALIASES = {"linalg": np.linalg, "matmul": "__matmul__"}


def resolve(name: str) -> tuple[object, str]:
    """``(owner, attribute)`` of a span name: ``prediction.predict`` is
    ``lpvdd.prediction.predict``, ``linalg.svd`` is ``numpy.linalg.svd`` and
    ``coeffs.CoeffMatrix.matmul`` is ``lpvdd.coeffs.CoeffMatrix.__matmul__``."""
    module, *path = name.split(".")
    owner = ALIASES.get(module) or importlib.import_module(f"lpvdd.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, ALIASES.get(path[-1], path[-1])


def _svd_bytes(result) -> dict:
    arrays = result if isinstance(result, tuple) else (result,)
    return {"out_bytes": sum(a.size * a.itemsize for a in arrays)}


def _terms_max(result) -> dict:
    return {"terms_max": max(len(e.terms) for row in result.entries for e in row)}


POST = {
    "linalg.svd": _svd_bytes,
    "analysis.obsv_matrix": _terms_max,
    "analysis.reach_matrix": _terms_max,
}


class Tracer:
    """Spans and hot-call aggregates of the ops run while installed."""

    def __init__(self, names):
        self.spans: list[list] = []
        # (op, name, enclosing span name) -> [calls, ns]
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0])
        self.op = None
        self._stack: list[int] = []
        self._hot_ns: dict[int, int] = defaultdict(int)
        self._patches = self._plan(names)

    # -- installation --------------------------------------------------------

    def _plan(self, names) -> list[tuple]:
        """Methods are aggregated per enclosing span (they run thousands of
        times per op); functions are wrapped wherever a module holds them."""
        targets = [(name, *resolve(name)) for name in names]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lpvdd" or n.startswith("lpvdd."))]
        patches = []
        for name, owner, attr in targets:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                patches.append((owner, attr, orig, self._hot_wrapper(name, orig)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._span_wrapper(name, orig, POST.get(name))
            holders = {id(owner): owner}
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    holders[id(mod)] = mod
            patches += [(h, attr, orig, wrapper) for h in holders.values()]
        return patches

    def install(self, op) -> None:
        self.op = op
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig, _ in self._patches:
            setattr(holder, attr, orig)
        self.op = None

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.spans[idx][5] = attrs
        self._stack.pop()

    def _span_wrapper(self, name, fn, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, post(result) if post else None)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                parent = self._stack[-1] if self._stack else -1
                entry = self.hot[(self.op, name, self.spans[parent][0] if parent >= 0 else "")]
                entry[0] += 1
                entry[1] += dt
                if parent >= 0:
                    self._hot_ns[parent] += dt

        return wrapper

    # -- output and merging a traced child process ---------------------------

    def to_json(self) -> dict:
        """Spans ``[name, start_ns, end_ns, parent, op, attrs]``, hot-call
        aggregates ``[op, name, enclosing span name, calls, ns]`` and the hot
        time inside each span."""
        return {
            "spans": self.spans,
            "hot": [[*k, *v] for k, v in self.hot.items()],
            "hot_ns": dict(self._hot_ns),
        }

    def merge_child(self, data: dict) -> None:
        """Append a child process's spans under the currently open span."""
        base = len(self.spans)
        outer = self._stack[-1] if self._stack else -1
        for name, t0, t1, parent, _, attrs in data["spans"]:
            self.spans.append([name, t0, t1, base + parent if parent >= 0 else outer,
                               self.op, attrs])
        for idx, ns in data["hot_ns"].items():
            self._hot_ns[base + int(idx)] += ns
        for _, name, parent_name, calls, ns in data["hot"]:
            entry = self.hot[(self.op, name, parent_name)]
            entry[0] += calls
            entry[1] += ns

    # -- reduction -----------------------------------------------------------

    def per_op(self) -> dict:
        """Per op: name -> {"calls", "ns", "self_ns", attr sums and maxima}."""
        child_ns: dict[int, int] = defaultdict(int)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        ops: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        for idx, (name, t0, t1, _, op, attrs) in enumerate(self.spans):
            rec = ops[op][name]
            rec["calls"] += 1
            rec["ns"] += t1 - t0
            rec["self_ns"] += t1 - t0 - child_ns[idx] - self._hot_ns[idx]
            for key, value in (attrs or {}).items():
                if key.endswith("_max"):
                    rec[key] = max(rec[key], value)
                else:
                    rec[key] += value
        for (op, name, _), (calls, ns) in self.hot.items():
            ops[op][name]["calls"] += calls
            ops[op][name]["ns"] += ns
        return ops

    def svd_by_parent(self) -> dict:
        """``linalg.svd`` calls, ms and bytes grouped by the enclosing span."""
        out: dict = defaultdict(lambda: [0, 0.0, 0])
        for name, t0, t1, parent, _, attrs in self.spans:
            if name == "linalg.svd":
                row = out[self.spans[parent][0] if parent >= 0 else "(op)"]
                row[0] += 1
                row[1] += (t1 - t0) / 1e6
                row[2] += attrs["out_bytes"] if attrs else 0
        return dict(out)


def main(argv: list[str]) -> int:
    spans_out, op, cli_args = argv[0], int(argv[1]), argv[2:]
    import bench
    from lpvdd import cli

    tracer = Tracer(bench.traced_spans())
    tracer.install(op)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
