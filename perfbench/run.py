"""lpvdd benchmark: one workload per process, BLAS pinned to one thread.

Usage (from the repository root)::

    python3 perfbench/run.py --workload predict-long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# The pin must be in place before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*bench.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_lpvdd():
    """Import lpvdd from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "lpvdd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lpvdd sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import lpvdd

    if Path(lpvdd.__file__).resolve().parent != (SRC / "lpvdd").resolve():
        sys.exit(f"perfbench: imported lpvdd from {lpvdd.__file__}, not {SRC}")


def provenance(seed: int) -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "lpvdd_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import bench

    summary = {}
    for name in bench.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}/{m}": v for w, r in summary.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    import_lpvdd()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import bench

    wl = bench.WORKLOADS[args.workload]()
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(bench.traced_spans())
        run = bench.run(wl, args.seed, args.seconds, tracer)
        if tracer is None:
            report = bench.end_to_end(run, wl)
            metrics = {k: report[k] for k in bench.GATED}
        else:
            metrics = bench.per_layer(tracer, run, wl.trace_extras())
    finally:
        wl.close()

    n, failed = run["attempted"], len(run["failures"])
    print("provenance " + json.dumps(provenance(args.seed)))
    print(f"workload {wl.name}: {n} ops attempted ({bench.SETUP_REPS} of them warm-ups),"
          f" {failed} failed")
    for msg in run["failures"][:5]:
        print(f"  FAIL {msg}")
    if tracer is None:
        print("report " + json.dumps(report))
    for name, m in (metrics if tracer else report).items():
        gated = "" if tracer or name in metrics else "  (reported, not gated)"
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{gated}")
    if tracer is not None:
        print("  linalg.svd by enclosing span: calls, ms, bytes (all traced ops)")
        for parent, (calls, ms, nbytes) in sorted(tracer.svd_by_parent().items()):
            print(f"    {parent:32s} {calls:8d} {ms:12.3f} {nbytes:14d}")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
