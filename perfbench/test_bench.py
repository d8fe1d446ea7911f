"""Tests of the benchmark itself: gates catch corrupted outputs, tracing is exact.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lpvdd  # noqa: E402

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def quickstart():
    return bench.QuickstartT70()


def test_quickstart_ops_pass_their_gate(quickstart, monkeypatch):
    monkeypatch.setattr(bench, "MAX_STRETCH", 1e6)
    run = bench.run(quickstart, seed=7, seconds=0.2)
    assert len(run["setups"]) == bench.SETUP_REPS
    assert len(run["latencies"]) == bench.op_count(quickstart, 0.2)
    assert run["failures"] == []


def test_slow_run_stops_at_the_deadline_after_min_ops(quickstart, monkeypatch):
    monkeypatch.setattr(bench, "MAX_STRETCH", 0.0)
    run = bench.run(quickstart, seed=7, seconds=0.2)
    assert len(run["setups"]) == bench.SETUP_REPS
    assert len(run["latencies"]) == bench.MIN_OPS
    assert run["attempted"] == bench.MIN_OPS + bench.SETUP_REPS


def test_perturbed_prediction_is_counted_as_failed(quickstart, monkeypatch):
    real_predict = lpvdd.predict

    def perturbed(*args, **kwargs):
        result = real_predict(*args, **kwargs)
        y_r = lpvdd.Trajectory(result.y_r.t_start, result.y_r.samples + 1e-6)
        return dataclasses.replace(result, y_r=y_r)

    monkeypatch.setattr(lpvdd, "predict", perturbed)
    run = bench.run(quickstart, seed=7, seconds=0.2)
    # every op fails, the set-ups' warm-up ops included
    assert len(run["failures"]) == run["attempted"] > bench.SETUP_REPS
    assert run["failures"][0].startswith("warm-up 0:")
    assert "predict max |error|" in run["failures"][0]


def test_raising_op_is_counted_as_failed(quickstart, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(lpvdd, "left_nullspace", broken)
    run = bench.run(quickstart, seed=7, seconds=0.1)
    assert len(run["failures"]) == run["attempted"] > 0
    assert "raised" in run["failures"][0]


def test_ss_gate_catches_simulation_mismatch():
    wl = bench.SsStructure()
    wl.seed = 3  # inputs only; setup would also run a warm-up op
    model, s = wl.make_input(0)
    record = lpvdd.generate_record(model, 30, s)
    ok = SimpleNamespace(verdict=True, minimal=True)
    assert wl.gate((model, s), (record, ok, ok)) == []
    bad_y = lpvdd.Trajectory(record.y.t_start, record.y.samples * (1 + 1e-6))
    corrupted = dataclasses.replace(record, y=bad_y)
    assert "response_map" in wl.gate((model, s), (corrupted, ok, ok))[0]


def _procs(predict_code=0, verdict="ok", err=1e-15, stdout=None):
    summary = f'{{"command": "predict", "verdict": "{verdict}", "max_abs_error": {err}}}\n'
    done = subprocess.CompletedProcess([], 0, stdout="{}\n", stderr="")
    pred = subprocess.CompletedProcess([], predict_code,
                                       stdout=summary if stdout is None else stdout, stderr="")
    return [("simulate", done), ("check", done), ("predict", pred)]


def test_cli_gate():
    gate = bench.CliSession().gate
    assert gate(None, _procs()) == []
    assert gate(None, _procs(err=1e-6))
    assert gate(None, _procs(predict_code=4, verdict="ambiguous"))


def test_raising_gate_is_counted_as_failed():
    wl = bench.CliSession()
    wl.op = lambda inp: _procs(stdout="")  # exit 0 but no summary line
    _, problems = bench.attempt(wl, None)
    assert len(problems) == 1 and problems[0].startswith("gate raised")


def test_tracer_records_layers_and_restores_originals(quickstart):
    originals = (lpvdd.prediction.hankel, lpvdd.signals.hankel, np.linalg.svd,
                 lpvdd.CoeffMatrix.__dict__["eval"])
    tracer = Tracer(bench.traced_spans())
    run = bench.run(quickstart, seed=7, seconds=0.0, tracer=tracer)
    assert (lpvdd.prediction.hankel, lpvdd.signals.hankel, np.linalg.svd,
            lpvdd.CoeffMatrix.__dict__["eval"]) == originals
    assert run["traced"] == [True, False, True, False, True]
    metrics = bench.per_layer(tracer, run, {})
    # per op, hankel: check_pe 1, predict 5 (build_predictor 4, its check_pe 1),
    # left_nullspace 1, max_residual_on 1, span_membership 2; svd: check_pe 1,
    # predict 4, left_nullspace 1, span_membership 1
    assert metrics["signals.hankel.calls"]["value"] == 10
    assert metrics["linalg.svd.calls"]["value"] == 7
    assert metrics["prediction.predict.self_ms"]["value"] < \
        metrics["prediction.predict.ms"]["value"]


def test_metrics_follow_benchmark_json(quickstart):
    run = bench.run(quickstart, seed=7, seconds=0.0, tracer=Tracer(bench.traced_spans()))
    e2e = bench.end_to_end(run, quickstart)
    for m in bench.SPEC["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
    assert set(bench.WORKLOADS) == {w["name"] for w in bench.SPEC["workloads"]}


def test_gated_times_are_medians_scaled_by_the_reference(quickstart):
    run = {"setups": [0.1, 0.3, 0.2], "latencies": [30.0, 10.0, 20.0],
           "refs": [2 * quickstart.REF_MS] * 3}
    e2e = bench.end_to_end(run, quickstart)
    assert e2e["op_ms.p50"]["value"] == pytest.approx(10.0)
    assert e2e["op_ms.p50.unscaled"]["value"] == 20.0
    assert e2e["setup_s"]["value"] == pytest.approx(0.1)
