"""Workloads, correctness gates and the closed measurement loop.

Every workload is a closed loop with one caller: op ``i + 1`` starts after
op ``i`` and its gate have finished.  Inputs are drawn from the workload seed
outside the timed region; the library receives only the generated records,
queries and models.  Calls into lpvdd go through module attributes
(``lpvdd.predict``, not a local name) so that :mod:`tracer` sees them.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import lpvdd

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = BENCH_DIR / "_work"

EXACT_TOL = 1e-8  # exact data predicts to ~1e-15; 1e-8 is the README's "exact"
SUBPROCESS_TIMEOUT_S = 120

# Seed-sequence tags, so that records, queries and models never share a draw.
TAG_RECORD, TAG_QUERY, TAG_MODEL, TAG_WARMUP = range(4)


def op_seed(seed: int, tag: int, i: int = 0) -> int:
    """Integer lpvdd seed for draw ``i`` of role ``tag`` under the workload seed."""
    ss = np.random.SeedSequence([seed % 2**64, tag, i])
    return int(ss.generate_state(1, np.uint64)[0])


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def prediction_problems(result, truth) -> list[str]:
    """Gate of one exact-data prediction: verdict ``ok`` and error <= 1e-8."""
    problems = []
    if result.verdict != "ok":
        problems.append(f"predict verdict {result.verdict!r}")
    err = _max_abs(result.y_r.samples, truth.samples)
    if not err <= EXACT_TOL:
        problems.append(f"predict max |error| {err:.3e} > {EXACT_TOL}")
    return problems


# On a shared machine the CPU's speed swings by up to 2x for seconds to
# minutes at a time, and a slow stretch can cover a whole run.  Each workload
# therefore times a reference task evenly between its ops.  The reference does
# not call lpvdd, so it slows down with the machine but not with a change to
# the program.  The gated times are medians scaled
# by REF_MS over the run's median reference, to read as on a machine on which
# the reference takes REF_MS.  The interpreter and a large SVD slow down by
# different amounts, so ``predict-long`` has a reference of its own.
REF_EVERY_S = 0.2  # of op time between two timings of the reference
_REF_DICT = {i: i * i for i in range(2000)}
_REF_POLY = {(i, j, k): 1.0 + 0.1 * i + 0.01 * j + 0.001 * k
             for i in range(4) for j in range(4) for k in range(3)}
_REF_SQUARE = np.random.default_rng(0).standard_normal((120, 120))
_REF_WIDE = np.random.default_rng(1).standard_normal((60, 600))


def generic_reference() -> None:
    """Dict walks, a product of two sparse polynomials held as dicts, and a
    small SVD."""
    total = 0
    for _ in range(30):
        for k, v in _REF_DICT.items():
            total += v if k & 1 else -v
    for _ in range(4):
        prod = {}
        for ka, va in _REF_POLY.items():
            for kb, vb in _REF_POLY.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                prod[key] = prod.get(key, 0.0) + va * vb
    np.linalg.svd(_REF_SQUARE)


def timed_ms(fn) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e6


class Workload:
    """One benchmark workload: set-up, untimed input draw, timed op, gate."""

    name = ""
    # Seconds budgeted per op, its input, gate and share of the set-ups;
    # ``--seconds`` over this is the run's op count.
    OP_S = 1.0
    # About the reference's median on the 2-core x86-64 VM the benchmark was
    # tuned on; it sets the unit of the scaled times, nothing else.
    REF_MS = 7.0
    tracer = None  # set by the loop for traced ops

    def setup(self, seed: int):
        """Prepare the run's shared inputs; return the warm-up op's input."""
        self.seed = seed

    def make_input(self, i: int):
        return i

    def op(self, inp):
        raise NotImplementedError

    def gate(self, inp, out) -> list[str]:
        raise NotImplementedError

    def reference(self) -> None:
        """A task that slows down as the op does when the machine is slow."""
        generic_reference()

    def trace_extras(self) -> dict:
        """Per-layer metrics measured once after the traced loop."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


def _predict(record, q):
    return lpvdd.predict(record, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)


def _alloc_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class PredictLong(Workload):
    """One long record, one fresh query per op: SVDs whose size grows with T."""

    name = "predict-long"
    OP_S = 0.3
    REF_MS = 17.0
    T, T_INI, T_R = 2000, 3, 7

    def setup(self, seed):
        super().setup(seed)
        self.model = lpvdd.example_verhoek()
        self.record = lpvdd.generate_record(self.model, self.T, op_seed(seed, TAG_RECORD))
        self.warm_query = self._query(op_seed(seed, TAG_WARMUP))
        return self.warm_query

    def _query(self, s):
        return lpvdd.generate_query(self.model, self.T_INI, self.T_R, s)

    def make_input(self, i):
        return self._query(op_seed(self.seed, TAG_QUERY, i))

    def op(self, q):
        return _predict(self.record, q)

    def gate(self, q, result):
        return prediction_problems(result, q.y_r_truth)

    def reference(self):
        # the op is almost all full SVDs of wide matrices
        np.linalg.svd(_REF_WIDE, full_matrices=True)

    def trace_extras(self):
        peak = _alloc_peak_mb(lambda: _predict(self.record, self.warm_query))
        return {"prediction.predict.peak_alloc_mb": peak}


class QuickstartT70(Workload):
    """The README quick start on a fresh T = 70 record per op."""

    name = "quickstart-t70"
    OP_S = 0.009
    T, L_PE, T_INI, T_R = 70, 7, 3, 7
    ANNIHILATORS = 5  # n_y * L - n_x = 1 * 7 - 2

    def setup(self, seed):
        super().setup(seed)
        self.model = lpvdd.example_verhoek()
        self.probe = (op_seed(seed, TAG_WARMUP, 0), op_seed(seed, TAG_WARMUP, 1))
        return self.probe

    def make_input(self, i):
        return op_seed(self.seed, TAG_RECORD, i), op_seed(self.seed, TAG_QUERY, i)

    def op(self, seeds):
        record = lpvdd.generate_record(self.model, self.T, seeds[0])
        pe = lpvdd.check_pe(record.u, record.p, L=self.L_PE)
        q = lpvdd.generate_query(self.model, self.T_INI, self.T_R, seeds[1])
        result = _predict(record, q)
        nullspace = lpvdd.left_nullspace(record, L=self.L_PE)
        u = lpvdd.concat(q.u_ini, q.u_r)
        p = lpvdd.concat(q.p_ini, q.p_r)
        fresh = lpvdd.Trajectory(1, np.hstack([u.samples,
                                               lpvdd.concat(q.y_ini, q.y_r_truth).samples]))
        residual = nullspace.max_residual_on(fresh, p)
        completed = lpvdd.Trajectory(1, np.hstack([u.samples,
                                                   lpvdd.concat(q.y_ini, result.y_r).samples]))
        member = lpvdd.span_membership(record, completed, p)
        return q, pe, result, nullspace, residual, member

    def gate(self, seeds, out):
        q, pe, result, nullspace, residual, member = out
        problems = [] if pe.verdict else ["PE verdict false"]
        problems += prediction_problems(result, q.y_r_truth)
        if nullspace.dimension != self.ANNIHILATORS:
            problems.append(f"annihilator dimension {nullspace.dimension} "
                            f"!= {self.ANNIHILATORS}")
        if not residual <= EXACT_TOL:
            problems.append(f"max_residual_on {residual:.3e} > {EXACT_TOL}")
        if not member.member:
            problems.append(f"completed window not a member (residual {member.residual:.3e})")
        return problems

    def trace_extras(self):
        record = lpvdd.generate_record(self.model, self.T, self.probe[0])
        q = lpvdd.generate_query(self.model, self.T_INI, self.T_R, self.probe[1])
        return {"prediction.predict.peak_alloc_mb": _alloc_peak_mb(lambda: _predict(record, q))}


class SsStructure(Workload):
    """Fresh random affine SS model per op: simulation, PE and minimality."""

    name = "ss-structure"
    OP_S = 1.3
    N_X, N_U, N_Y, N_P, T, L_PE, CHECK_STEPS = 5, 2, 2, 2, 1000, 6, 20

    def setup(self, seed):
        super().setup(seed)
        return self._input(op_seed(seed, TAG_WARMUP))

    def _input(self, s):
        rng = np.random.Generator(np.random.Philox(s))
        model = lpvdd.random_affine_ss(rng, self.N_X, self.N_U, self.N_Y, self.N_P)
        return model, op_seed(s, TAG_RECORD)

    def make_input(self, i):
        return self._input(op_seed(self.seed, TAG_MODEL, i))

    def op(self, inp):
        model, s = inp
        record = lpvdd.generate_record(model, self.T, s)
        pe = lpvdd.check_pe(record.u, record.p, L=self.L_PE)
        return record, pe, lpvdd.minimality_report(model)

    def gate(self, inp, out):
        model, _ = inp
        record, pe, minimality = out
        problems = [] if pe.verdict else ["PE verdict false"]
        if not minimality.minimal:
            problems.append("random model reported non-minimal")
        n = self.CHECK_STEPS
        y = record.y.samples[:n]
        expected = lpvdd.response_map(model, np.zeros(model.n_x),
                                      record.u.restrict(1, n), record.p.restrict(1, n))
        err = _max_abs(y.reshape(-1), expected)
        if not err <= 1e-9 * np.max(np.abs(y)):
            problems.append(f"simulate_ss differs from response_map by {err:.3e}")
        return problems


class CliSession(Workload):
    """Three ``lpvdd`` processes per op: simulate, check, predict."""

    name = "cli-session"
    OP_S = 1.0
    T, L_CHECK, T_INI, T_R = 500, 7, 3, 7
    STARTUP_REPS = 5

    def setup(self, seed):
        super().setup(seed)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # fixed width: the outputs quote this path, and cli.bytes_written counts them
        self.work = WORK_DIR / f"run-{os.getpid():08d}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.query_dir = self.work / "query"
        self.query_dir.mkdir(parents=True)
        q = lpvdd.generate_query(lpvdd.example_verhoek(), self.T_INI, self.T_R,
                                 op_seed(seed, TAG_QUERY))
        for name in ("u_ini", "p_ini", "y_ini", "u_r", "p_r", "y_r_truth"):
            lpvdd.write_trajectory_csv(self.query_dir / f"{name}.csv", getattr(q, name))
        return self._input(op_seed(seed, TAG_WARMUP))

    def _input(self, s):
        op_dir = self.work / "op"
        shutil.rmtree(op_dir, ignore_errors=True)
        return s, op_dir

    def make_input(self, i):
        return self._input(op_seed(self.seed, TAG_RECORD, i))

    def op(self, inp):
        s, op_dir = inp
        data = op_dir / "data"
        steps = (
            ("simulate", ["--model", "builtin:verhoek", "--T", str(self.T),
                          "--seed", str(s), "--out-dir", str(data)], data),
            ("check", ["--data-dir", str(data), "--L", str(self.L_CHECK),
                       "--out-dir", str(op_dir / "check")], op_dir / "check"),
            ("predict", ["--data-dir", str(data), "--query-dir", str(self.query_dir),
                         "--out-dir", str(op_dir / "predict")], op_dir / "predict"),
        )
        return [self._run(cmd, args, out_dir) for cmd, args, out_dir in steps]

    def _run(self, cmd, args, out_dir):
        tracer = self.tracer
        if tracer is None:
            return cmd, subprocess.run([sys.executable, "-m", "lpvdd.cli", cmd, *args],
                                       env=self.env, cwd=ROOT, capture_output=True,
                                       text=True, timeout=SUBPROCESS_TIMEOUT_S)
        spans_path = self.work / "child-spans.json"
        idx = tracer.begin(f"cli.{cmd}")
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
             str(tracer.op), cmd, *args],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        tracer.merge_child(json.loads(spans_path.read_text()))
        written = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
        tracer.end(idx, {"bytes_written": written})
        return cmd, proc

    def gate(self, inp, procs):
        problems = [f"{cmd} exit {p.returncode}: {p.stderr.strip()[-200:]}"
                    for cmd, p in procs if p.returncode != 0]
        if problems:
            return problems
        summary = json.loads(procs[-1][1].stdout.strip().splitlines()[-1])
        if summary.get("verdict") != "ok":
            problems.append(f"predict verdict {summary.get('verdict')!r}")
        err = summary.get("max_abs_error")
        if err is None or not err <= EXACT_TOL:
            problems.append(f"predict max_abs_error {err} > {EXACT_TOL}")
        return problems

    def trace_extras(self):
        times = []
        for _ in range(self.STARTUP_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import lpvdd"], env=self.env, cwd=ROOT,
                           check=True, timeout=SUBPROCESS_TIMEOUT_S)
            times.append((time.perf_counter() - t0) * 1e3)
        return {"cli.startup.ms": statistics.median(times)}

    def peak_rss_mb(self):
        # the largest child process; the benchmark's own process is not counted
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PredictLong, QuickstartT70, SsStructure, CliSession)}

# Metric names and units live in BENCHMARK.json only; the code reads them there.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = tuple(m["name"] for m in SPEC["end_to_end"])
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPS = 5
MIN_OPS = 5
# A run starts no op after this many times ``--seconds`` once it has made
# MIN_OPS: the op count is fixed, but a slow machine must not stretch a run
# without limit.
MAX_STRETCH = 1.5

def op_count(wl: Workload, seconds: float) -> int:
    """Ops in a run: the same for every run of a workload, however fast the
    machine happens to be, so that a slow stretch does not shrink the sample
    (unless it makes the run ``MAX_STRETCH`` times too long)."""
    return max(MIN_OPS, round(seconds / wl.OP_S))


def attempt(wl: Workload, inp, tracer=None, op_id=None) -> tuple[int, list[str]]:
    """One op: its time in ns and its gate's problems (empty when it passed).

    With a tracer, the op (not its gate) is traced as ``op_id``.  A raising
    op or gate is a failed op, not a failed run.
    """
    if tracer is not None:
        tracer.install(op_id)
        wl.tracer = tracer
    out, error = None, None
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(inp)
    except Exception as exc:
        error = exc
    finally:
        dt = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.uninstall()
            wl.tracer = None
    if error is not None:
        return dt, [f"raised {error!r}"]
    try:
        return dt, wl.gate(inp, out)
    except Exception as exc:
        return dt, [f"gate raised {exc!r}"]


def run(wl: Workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop of ``op_count`` ops in ``SETUP_REPS`` blocks.

    Each block starts with a set-up and its gated warm-up op, so the set-ups
    are spread over the run.  Ops past ``MAX_STRETCH * seconds`` are skipped
    once ``MIN_OPS`` are done; set-ups are not.  The reference is timed before
    each set-up and every ``REF_EVERY_S`` of op time.  With a tracer,
    even-numbered ops are traced.  Returns the set-up times in s, per-op
    latencies in ms, which ops were traced, the reference timings in ms, one
    message per failed op or warm-up, and the attempt count.
    """
    n = op_count(wl, seconds)
    bounds = [round(n * k / SETUP_REPS) for k in range(SETUP_REPS + 1)]
    ref_every = max(1, round(REF_EVERY_S / wl.OP_S))
    deadline = time.perf_counter_ns() + int(MAX_STRETCH * seconds * 1e9)
    setups, latencies, traced_flags, refs, failures = [], [], [], [], []
    for k in range(SETUP_REPS):
        refs.append(timed_ms(wl.reference))
        t0 = time.perf_counter_ns()
        warm = wl.setup(seed)
        prep = time.perf_counter_ns() - t0
        dt, problems = attempt(wl, warm)
        setups.append((prep + dt) / 1e9)
        if problems:
            failures.append(f"warm-up {k}: " + "; ".join(problems))
        for i in range(bounds[k], bounds[k + 1]):
            if len(latencies) >= MIN_OPS and time.perf_counter_ns() > deadline:
                break
            if i % ref_every == 0:
                refs.append(timed_ms(wl.reference))
            inp = wl.make_input(i)
            traced = tracer is not None and i % 2 == 0
            dt, problems = attempt(wl, inp, tracer if traced else None, i)
            if problems:
                failures.append(f"op {i}: " + "; ".join(problems))
            latencies.append(dt / 1e6)
            traced_flags.append(traced)
    return {"setups": setups, "latencies": latencies, "traced": traced_flags,
            "refs": refs, "failures": failures, "attempted": len(latencies) + SETUP_REPS}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, min(99, int(100 * (n - 10) / n)))


def end_to_end(run: dict, wl: Workload) -> dict:
    """Gated metrics first, then the reported-only ones, as timed."""
    latencies = run["latencies"]
    n = len(latencies)
    q = tail_percentile(n)
    ref_ms = statistics.median(run["refs"])
    setup_s, p50 = statistics.median(run["setups"]), statistics.median(latencies)
    metrics = {
        "setup_s": (setup_s * wl.REF_MS / ref_ms, "s"),
        "op_ms.p50": (p50 * wl.REF_MS / ref_ms, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MiB"),
        "setup_s.unscaled": (setup_s, "s"),
        "op_ms.p50.unscaled": (p50, "ms"),
        "op_ms.min": (min(latencies), "ms"),
        "op_ms.tail": (float(np.percentile(latencies, q)), "ms"),
        "op_ms.tail_percentile": (q, "%"),
        "op_ms.samples": (n, "count"),
        "ops_per_s": (n / (sum(latencies) / 1e3), "1/s"),
        "ref_ms.p50": (ref_ms, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# Span fields, by the suffix of the per-layer metric that reads them.
SPAN_FIELDS = {"ms": ("ns", 1e6), "self_ms": ("self_ns", 1e6),
               "calls": ("calls", 1), "out_bytes": ("out_bytes", 1)}


def metric_source(name: str) -> tuple[str, str]:
    """``(span, field)`` of a span metric such as ``linalg.svd.calls``, or
    ``("", attribute)`` for a span attribute over the whole op, such as
    ``cli.bytes_written`` (summed) or ``coeffs.terms_max`` (the largest)."""
    span, field = name.rsplit(".", 1)
    return (span, field) if field in SPAN_FIELDS else ("", field)


def traced_spans() -> list[str]:
    """Library functions the tracer wraps: every span a per-layer metric
    reads, except the ``cli.*`` spans the benchmark opens itself."""
    spans = {metric_source(m)[0] for m in LAYER_UNITS}
    return sorted(s for s in spans if s and not s.startswith("cli."))


def _op_value(rec: dict, name: str) -> float:
    span, field = metric_source(name)
    if span:
        key, div = SPAN_FIELDS[field]
        return rec[span][key] / div if span in rec else 0.0
    values = [r[field] for r in rec.values() if field in r]
    return float(max(values, default=0) if field.endswith("_max") else sum(values))


def per_layer(tracer, run: dict, extras: dict) -> dict:
    """Per-layer metrics from the traced ops, in BENCHMARK.json's order.

    Times are the median over traced ops of each per-op value.  Counts and
    bytes are those of the first traced op, whose inputs the seed fixes, so
    they repeat exactly between runs.  ``extras`` (measured once by the
    workload) take precedence; a layer the workload does not reach reads 0.
    """
    ops = tracer.per_op()
    lat = np.array(run["latencies"])
    flags = np.array(run["traced"])
    extras = dict(extras, **{"trace.overhead_frac":
                             float(np.median(lat[flags]) / np.median(lat[~flags])) - 1.0})
    values = {}
    for name, unit in LAYER_UNITS.items():
        if name in extras:
            value = extras[name]
        elif unit in ("count", "bytes"):
            value = _op_value(ops[min(ops)], name)
        else:
            value = statistics.median(_op_value(ops[op], name) for op in ops)
        values[name] = {"value": float(value), "unit": unit}
    return values
