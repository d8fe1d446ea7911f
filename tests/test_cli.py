"""Command-line front end: artifacts, determinism, exit codes."""

import errno
import json
import os

import numpy as np
import pytest

from lpvdd import (
    CoeffMatrix,
    DataRecord,
    LpvSsModel,
    Trajectory,
    example_verhoek,
    experiments,
    generate_query,
    generate_record,
    load_model,
    model_to_dict,
    random_affine_ss,
    read_trajectory_csv,
    save_model,
    simulate_ss,
    trajectory_to_csv,
    write_trajectory_csv,
)
from lpvdd import analysis, cli
from lpvdd.cli import main

QUERY_NAMES = ("u_ini", "p_ini", "y_ini", "u_r", "p_r")
RECORD_KEYS = {"rank", "required", "singular_values", "cut"}


def _write_query(directory, seed=5, T_ini=3, T_r=7, truth=True):
    directory.mkdir(parents=True, exist_ok=True)
    q = generate_query(example_verhoek(), T_ini, T_r, seed)
    for name in QUERY_NAMES:
        write_trajectory_csv(directory / f"{name}.csv", getattr(q, name))
    if truth:
        write_trajectory_csv(directory / "y_r_truth.csv", q.y_r_truth)
    return q


def _simulate(tmp_path, out="data", T=70, seed=1, extra=()):
    argv = [
        "simulate", "--model", "builtin:verhoek", "--T", str(T),
        "--seed", str(seed), "--out-dir", str(tmp_path / out), *extra,
    ]
    return main(argv)


def test_simulate_writes_artifacts(tmp_path, capsys):
    assert _simulate(tmp_path, T=40) == 0
    out = tmp_path / "data"
    for name in ("u.csv", "p.csv", "y.csv", "metadata.json"):
        assert (out / name).exists()
    u = read_trajectory_csv(out / "u.csv")
    assert u.length == 40 and u.interval == (1, 40)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["rng"]["generator"] == "philox4x64-10"
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["command"] == "simulate" and summary["T"] == 40


def test_simulate_deterministic_across_runs(tmp_path):
    assert _simulate(tmp_path, out="a", seed=9) == 0
    assert _simulate(tmp_path, out="b", seed=9) == 0
    for name in ("u.csv", "p.csv", "y.csv", "metadata.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_different_seeds_differ(tmp_path):
    _simulate(tmp_path, out="a", seed=1)
    _simulate(tmp_path, out="b", seed=2)
    assert (tmp_path / "a" / "u.csv").read_bytes() != (tmp_path / "b" / "u.csv").read_bytes()


def test_simulate_rejects_bad_horizon(tmp_path):
    assert _simulate(tmp_path, T=0) == 2


def test_simulate_shorter_than_default_window(tmp_path, capsys):
    # simulate reads no T_ini or T_r; a record shorter than their defaults is
    # written, and the data-length check belongs to the command that uses L
    assert _simulate(tmp_path, T=5) == 0
    assert read_trajectory_csv(tmp_path / "data" / "y.csv").interval == (1, 5)
    capsys.readouterr()
    assert main(["check", "--data-dir", str(tmp_path / "data"), "--L", "10"]) == 2
    assert "data length 5 shorter than order L=10" in capsys.readouterr().err


def test_simulate_zero_input_box_gives_zero_output(tmp_path):
    code = _simulate(tmp_path, out="z", extra=("--input-box", "0", "0"))
    assert code == 0
    y = read_trajectory_csv(tmp_path / "z" / "y.csv")
    assert not y.samples.any()


def test_simulate_ss_model_writes_states(tmp_path, monkeypatch):
    model_path = tmp_path / "model.json"
    save_model(model_path, random_affine_ss(np.random.default_rng(0), 2, 1, 1, 2))
    calls = []

    def counting(*args, real=experiments.simulate_ss, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (experiments, cli):  # every module that may hold the name
        monkeypatch.setattr(module, "simulate_ss", counting, raising=False)
    code = main([
        "simulate", "--model", str(model_path), "--T", "12",
        "--seed", "3", "--out-dir", str(tmp_path / "ssrun"),
    ])
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 1  # the record's run also gives the states
    x = read_trajectory_csv(tmp_path / "ssrun" / "x.csv")
    assert x.length == 13  # includes the terminal state
    model = load_model(model_path)
    rec = generate_record(model, 12, 3)
    sim = simulate_ss(model, np.zeros(2), rec.u, rec.p)
    assert (tmp_path / "ssrun" / "x.csv").read_text() == trajectory_to_csv(sim.x)
    assert (tmp_path / "ssrun" / "y.csv").read_text() == trajectory_to_csv(rec.y)


def test_simulate_reports_a_diverging_model_once(tmp_path, capsys):
    # x(k+1) = (3 + 0.5 p_1(k)) x(k) + u(k) overflows: numpy warned four times (each an
    # error here) before the record named the first non-finite output step
    model_path = tmp_path / "diverging.json"
    one = CoeffMatrix.constant([[1.0]], 1)
    save_model(model_path, LpvSsModel(A=CoeffMatrix.affine([[3.0]], ([[0.5]],)), B=one,
                                      C=one, D=CoeffMatrix.zeros(1, 1, 1)))
    out = tmp_path / "sim"
    code = main(["simulate", "--model", str(model_path), "--T", "2000", "--seed", "0",
                 "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", "input error: non-finite sample at time step 648\n")
    assert not out.exists()


def test_a_record_too_large_for_memory_exits_2(tmp_path, capsys):
    # 8 PiB lies beyond the 47-bit user address space: the allocation fails at once, under
    # any overcommit policy, and touches no memory
    assert _simulate(tmp_path, T=2**50) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: out of memory: Unable to allocate 8.00 PiB")
    assert err.count("\n") == 1
    assert not (tmp_path / "data").exists()


def test_simulate_missing_model_file(tmp_path):
    assert main([
        "simulate", "--model", str(tmp_path / "nope.json"),
        "--T", "10", "--seed", "0", "--out-dir", str(tmp_path / "x"),
    ]) == 2


def test_predict_end_to_end_with_truth(tmp_path, capsys):
    _simulate(tmp_path, T=70)
    q = _write_query(tmp_path / "query")
    code = main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(tmp_path / "query"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "prediction.json").read_text())
    assert payload["verdict"] == "ok"
    assert payload["max_abs_error"] <= 1e-8
    y_r = read_trajectory_csv(tmp_path / "out" / "y_r.csv")
    assert y_r.interval == (4, 10)
    assert np.max(np.abs(y_r.samples - q.y_r_truth.samples)) <= 1e-8
    plot = (tmp_path / "out" / "plot_data.csv").read_text().splitlines()
    assert plot[0] == "t,truth1,predicted1"
    assert len(plot) == 1 + 7
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["verdict"] == "ok"


def test_predict_writes_the_query_times(tmp_path):
    # a query at t = 101... had its y_r.csv and plot_data.csv labelled from t = 4
    _simulate(tmp_path, T=70)
    q = _write_query(tmp_path / "query")
    for name in (*QUERY_NAMES, "y_r_truth"):
        w = getattr(q, name)
        write_trajectory_csv(tmp_path / "query" / f"{name}.csv", w.rebase(w.t_start + 100))
    assert main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(tmp_path / "query"), "--out-dir", str(tmp_path / "out"),
    ]) == 0
    payload = json.loads((tmp_path / "out" / "prediction.json").read_text())
    assert payload["y_r"]["t_start"] == 104 and payload["max_abs_error"] <= 1e-8
    for name in ("y_r.csv", "plot_data.csv"):
        lines = (tmp_path / "out" / name).read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [str(t) for t in range(104, 111)]


def test_predict_deterministic_across_runs(tmp_path):
    _simulate(tmp_path, T=70)
    _write_query(tmp_path / "query")
    for out in ("o1", "o2"):
        assert main([
            "predict", "--data-dir", str(tmp_path / "data"),
            "--query-dir", str(tmp_path / "query"),
            "--out-dir", str(tmp_path / out),
        ]) == 0
    for name in ("prediction.json", "y_r.csv", "plot_data.csv"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_predict_zero_input_data_exits_ambiguous(tmp_path):
    _simulate(tmp_path, T=70, extra=("--input-box", "0", "0"))
    _write_query(tmp_path / "query")
    code = main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(tmp_path / "query"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 4


def test_predict_short_data_exits_infeasible(tmp_path):
    _simulate(tmp_path, T=40)
    _write_query(tmp_path / "query")
    code = main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(tmp_path / "query"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 5
    payload = json.loads((tmp_path / "out" / "prediction.json").read_text())
    assert payload["verdict"] == "infeasible"


def test_predict_mismatched_dims_exit_config(tmp_path):
    _simulate(tmp_path, T=70)
    d = tmp_path / "query"
    _write_query(d)
    # overwrite one query file with the wrong channel count
    bad = read_trajectory_csv(d / "p_ini.csv")
    write_trajectory_csv(d / "u_ini.csv", bad)
    code = main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(d), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2


def test_predict_missing_file_exit_config(tmp_path):
    _simulate(tmp_path, T=70)
    d = tmp_path / "query"
    _write_query(d)
    (d / "u_r.csv").unlink()
    code = main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(d), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2


def test_predict_no_partial_outputs_on_failure(tmp_path):
    _simulate(tmp_path, T=70)
    d = tmp_path / "query"
    _write_query(d)
    (d / "p_r.csv").unlink()
    out = tmp_path / "out"
    assert main([
        "predict", "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(d), "--out-dir", str(out),
    ]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("where", ["a file", "under a file"])
@pytest.mark.parametrize("command", ["simulate", "check", "predict"])
def test_an_out_dir_that_cannot_be_made_exits_2_naming_it(tmp_path, capsys, command, where):
    _simulate(tmp_path, T=70)
    _write_query(tmp_path / "query")
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker if where == "a file" else blocker / "out"
    data = ("--data-dir", str(tmp_path / "data"))
    args = {"simulate": ("--T", "30"), "check": (*data, "--L", "7"),
            "predict": (*data, "--query-dir", str(tmp_path / "query"))}[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *args, "--out-dir", str(out)]) == 2
    reason = os.strerror(errno.EEXIST if where == "a file" else errno.ENOTDIR)
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


@pytest.fixture
def umask():
    old = os.umask(0o022)  # not 0o077, under which a private 0o600 file would pass too
    try:
        yield 0o022
    finally:
        os.umask(old)


def test_every_file_written_has_the_mode_a_plain_open_gives(tmp_path, umask):
    model_path = tmp_path / "lib" / "model.json"
    save_model(model_path, random_affine_ss(np.random.default_rng(1), 2, 1, 1, 2))
    generate_record(example_verhoek(), 70, 1).to_csv_dir(tmp_path / "lib" / "data")
    _write_query(tmp_path / "lib" / "query")  # through write_trajectory_csv
    data = ("--data-dir", str(tmp_path / "lib" / "data"))
    for argv in (
        ("simulate", "--out-dir", str(tmp_path / "csv")),
        ("simulate", "--format", "json", "--out-dir", str(tmp_path / "json")),
        ("simulate", "--model", str(model_path), "--out-dir", str(tmp_path / "ss")),
        ("check", *data, "--model", str(model_path), "--out-dir", str(tmp_path / "check")),
        ("predict", *data, "--query-dir", str(tmp_path / "lib" / "query"),
         "--out-dir", str(tmp_path / "predict")),
    ):
        assert main(list(argv)) == 0, argv
    modes = {f.relative_to(tmp_path).as_posix(): f.stat().st_mode & 0o777
             for f in tmp_path.rglob("*") if f.is_file()}
    assert len(modes) == 25  # 10 from the library, 15 from the commands
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


@pytest.mark.parametrize("command", ["check", "predict"])
def test_an_overflowing_lift_names_the_record(tmp_path, capsys, command):
    rec = generate_record(example_verhoek(), 40, 1)
    p, y = rec.p.samples.copy(), rec.y.samples.copy()
    p[3] = y[3] = 1e160  # every sample is finite, but p (x) y at step 4 is not
    bundle = tmp_path / "rec.json"
    big = DataRecord(rec.u, Trajectory(1, p), Trajectory(1, y))
    bundle.write_text(json.dumps(big.to_dict()))
    _write_query(tmp_path / "query")
    args = {"check": ("--L", "5"), "predict": ("--query-dir", str(tmp_path / "query"),
                                               "--out-dir", str(tmp_path / "out"))}[command]
    assert main([command, "--data-bundle", str(bundle), *args]) == 2
    assert capsys.readouterr() == (
        "", f"input error: {bundle}: p (x) w: non-finite sample at time step 4\n")
    assert not (tmp_path / "out").exists()


def test_check_reports_pe(tmp_path, capsys):
    _simulate(tmp_path, T=40)
    code = main([
        "check", "--data-dir", str(tmp_path / "data"), "--L", "7",
        "--out-dir", str(tmp_path / "chk"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "chk" / "check.json").read_text())
    assert payload["pe"]["rank"] == payload["pe"]["required"] == 21
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["pe"] is True


def test_check_io_model_reports_its_realization_and_lag(tmp_path, capsys):
    _simulate(tmp_path, T=40)
    capsys.readouterr()
    code = main([
        "check", "--data-dir", str(tmp_path / "data"), "--L", "7",
        "--model", "builtin:verhoek", "--out-dir", str(tmp_path / "chk"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "chk" / "check.json").read_text())
    assert payload["structural"]["minimal"] is True
    assert payload["structural"]["observable"]["weakest"]["required"] == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["minimal"] is True and summary["lag"] == 2


def test_check_ss_model_reports_structural(tmp_path):
    _simulate(tmp_path, T=40)
    model_path = tmp_path / "m.json"
    save_model(model_path, random_affine_ss(np.random.default_rng(1), 2, 1, 1, 2))
    code = main([
        "check", "--data-dir", str(tmp_path / "data"), "--L", "5",
        "--model", str(model_path), "--out-dir", str(tmp_path / "chk"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "chk" / "check.json").read_text())
    assert "structural" in payload
    assert payload["structural"]["observable"]["trials"] == 20


@pytest.mark.parametrize("model", [None, "ss-file", "builtin:verhoek"])
def test_check_json_tree_is_fixed_and_deterministic(tmp_path, model):
    _simulate(tmp_path, T=40)
    argv = ["check", "--data-dir", str(tmp_path / "data"), "--L", "5"]
    if model == "ss-file":
        model = str(tmp_path / "m.json")
        save_model(model, random_affine_ss(np.random.default_rng(1), 2, 1, 1, 2))
    if model is not None:
        argv += ["--model", model]
    runs = [tmp_path / name / "check.json" for name in ("a", "b")]
    for path in runs:
        assert main([*argv, "--out-dir", str(path.parent)]) == 0
    assert runs[0].read_bytes() == runs[1].read_bytes()
    payload = json.loads(runs[0].read_text())
    tree = {key: set(value) for key, value in payload.items()}
    assert tree.pop("pe") == tree.pop("hankel") == RECORD_KEYS
    if model is None:
        assert tree == {}
    else:
        assert tree == {"structural": {"observable", "reachable", "minimal"}}
        for test in ("observable", "reachable"):
            assert set(payload["structural"][test]) == {"trials", "passes", "weakest"}
            assert set(payload["structural"][test]["weakest"]) == RECORD_KEYS


def _rank_records(tree) -> list[dict]:
    """Every object of a JSON tree with a key of a rank decision."""
    if not isinstance(tree, dict):
        return []
    found = [tree] if any(k in RECORD_KEYS or "rank" in k or "sigma" in k for k in tree) else []
    return found + [record for value in tree.values() for record in _rank_records(value)]


@pytest.mark.parametrize("command, kind, code, count", [
    ("check", None, 0, 2), ("check", "builtin:verhoek", 0, 4), ("check", "ss-file", 0, 4),
    ("predict", "ok", 0, 2), ("predict", "ambiguous", 4, 2)])
def test_every_rank_record_in_the_artifacts_is_one_cut(tmp_path, command, kind, code, count):
    # each rank decision is written as one record: its rank is the count of its
    # singular values above its cut times the first, at the one RANK_CUT
    _simulate(tmp_path, T={"ok": 70, "ambiguous": 25}.get(kind, 40))
    argv = [command, "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out")]
    if command == "predict":
        _write_query(tmp_path / "query")
        argv += ["--query-dir", str(tmp_path / "query")]
    elif kind == "ss-file":
        save_model(tmp_path / "m.json", random_affine_ss(np.random.default_rng(1), 2, 1, 1, 2))
        argv += ["--model", str(tmp_path / "m.json")]
    elif kind:
        argv += ["--model", kind]
    assert main(argv) == code
    name = {"check": "check.json", "predict": "prediction.json"}[command]
    records = _rank_records(json.loads((tmp_path / "out" / name).read_text()))
    assert len(records) == count
    for record in records:
        assert set(record) == RECORD_KEYS
        s = np.array(record["singular_values"])
        assert record["cut"] == analysis.RANK_CUT
        assert record["rank"] == np.sum(s > record["cut"] * s[:1])


def test_check_large_ss_model_is_minimal(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    save_model(model_path, random_affine_ss(np.random.default_rng(6), 6, 1, 1, 3))
    # a record of the model itself: the built-in one has n_p = 2, not 3
    assert main(["simulate", "--model", str(model_path), "--T", "40",
                 "--out-dir", str(tmp_path / "data")]) == 0
    code = main([
        "check", "--data-dir", str(tmp_path / "data"), "--L", "5",
        "--model", str(model_path),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["minimal"] is True


def test_check_rejects_nan_in_data_bundle(tmp_path, capsys):
    _simulate(tmp_path, out="jb", T=30, extra=("--format", "json"))
    bundle = tmp_path / "jb" / "record.json"
    data = json.loads(bundle.read_text())
    data["y"]["samples"][5][0] = float("nan")
    bundle.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "chk"
    code = main(["check", "--data-bundle", str(bundle), "--L", "7", "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "record.json" in err and "y:" in err, err
    assert not out.exists()


def test_check_rejects_nan_coefficient_in_model(tmp_path, capsys):
    _simulate(tmp_path, T=40)
    model_path = tmp_path / "m.json"
    save_model(model_path, random_affine_ss(np.random.default_rng(1), 2, 1, 1, 2))
    data = json.loads(model_path.read_text())
    data["A"][0][1][0]["coeff"] = float("nan")
    model_path.write_text(json.dumps(data))
    out = tmp_path / "chk"
    code = main([
        "check", "--data-dir", str(tmp_path / "data"), "--L", "5",
        "--model", str(model_path), "--out-dir", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "m.json" in err and "A[0][1]" in err, err
    assert not out.exists()


def test_check_names_the_model_entry_of_a_bad_term(tmp_path, capsys):
    _simulate(tmp_path, T=40)
    model_path = tmp_path / "m.json"
    data = model_to_dict(example_verhoek())
    data["a_coeffs"][0][0][0][1]["vars"][0]["comp"] = 3
    model_path.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "chk"
    code = main(["check", "--data-dir", str(tmp_path / "data"), "--L", "5",
                 "--model", str(model_path), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"input error: {model_path}: a_coeffs[0][0][0]: component 3 outside [1, 2]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "predict"])
@pytest.mark.parametrize("sources", [("--data-dir", "--data-bundle"), ()],
                         ids=["both", "neither"])
def test_record_comes_from_exactly_one_source(tmp_path, capsys, command, sources):
    # valid records in both formats and a valid query, so the flags are the only fault
    assert _simulate(tmp_path, T=70) == 0
    assert _simulate(tmp_path, out="jb", T=70, extra=("--format", "json")) == 0
    _write_query(tmp_path / "query")
    capsys.readouterr()
    paths = {"--data-dir": tmp_path / "data", "--data-bundle": tmp_path / "jb" / "record.json"}
    out = tmp_path / "out"
    argv = [command, *(a for flag in sources for a in (flag, str(paths[flag]))),
            "--out-dir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--query-dir", str(tmp_path / "query")] if command == "predict" else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --data-bundle: not allowed with argument --data-dir" if sources else
            "one of the arguments --data-dir --data-bundle is required") in captured.err
    assert not out.exists()


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    assert _simulate(tmp_path, T=40) == 0
    capsys.readouterr()

    def fail(record, L):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(DataRecord, "lifted", fail)
    out = tmp_path / "chk"
    assert main(["check", "--data-dir", str(tmp_path / "data"), "--out-dir", str(out)]) == 3
    assert capsys.readouterr() == ("", "numeric failure: SVD did not converge\n")
    assert not out.exists()


def _bundle(**u):
    """A T = 3 record whose ``u`` has the keys ``u``; the rest is well formed."""
    good = {"t_start": 1, "samples": [[0.0], [1.0], [0.0]]}
    return json.dumps({"u": {**good, **u}, "p": good, "y": good})


@pytest.mark.parametrize("text,named", [
    ("{not json", ()),
    (json.dumps({"u": {"t_start": 1, "samples": [[0.0]]}}), ("'p'",)),
    (json.dumps([1, 2]), ()),
    (_bundle(t_start=1.5), ("u: t_start",)),
    (_bundle(t_start=True), ("u: t_start",)),
    (_bundle(t_start="1"), ("u: t_start",)),
    (_bundle(samples=[["0.5"], [1.0], [0.0]]), ("u: samples",)),
    (_bundle(samples=[[True], [1.0], [0.0]]), ("u: samples",)),
], ids=["not-json", "no-p-key", "not-an-object", "t-start-float", "t-start-bool",
        "t-start-string", "sample-string", "sample-bool"])
def test_malformed_data_bundle_exits_config(tmp_path, capsys, text, named):
    bundle = tmp_path / "record.json"
    bundle.write_text(text)
    out = tmp_path / "chk"
    code = main(["check", "--data-bundle", str(bundle), "--L", "2", "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "record.json" in err and all(word in err for word in named), err
    assert "Traceback" not in err
    assert not out.exists()


def _inconsistent_ss_model(path):
    """An SS model file whose ``A`` is 1 x 2: numpy would broadcast its blocks."""
    save_model(path, random_affine_ss(np.random.default_rng(1), 2, 1, 1, 2))
    data = json.loads(path.read_text())
    data["A"] = data["A"][:1]
    path.write_text(json.dumps(data))


def test_simulate_rejects_inconsistent_model(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    _inconsistent_ss_model(model_path)
    out = tmp_path / "sim"
    code = main(["simulate", "--model", str(model_path), "--T", "20", "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "m.json" in err and "A must be square" in err, err
    assert not out.exists()


@pytest.mark.parametrize("key, dims, value", [("n_u", (2, 1, 2), 2), ("n_y", (1, 2, 2), 2),
                                               ("n_p", (1, 1, 3), 3)])
def test_check_rejects_a_model_of_other_dimensions(tmp_path, capsys, key, dims, value):
    # the built-in record has n_u = n_y = 1 and n_p = 2
    _simulate(tmp_path, T=40)
    model_path = tmp_path / "m.json"
    save_model(model_path, random_affine_ss(np.random.default_rng(0), 2, *dims))
    capsys.readouterr()
    out = tmp_path / "chk"
    code = main(["check", "--data-dir", str(tmp_path / "data"), "--L", "5",
                 "--model", str(model_path), "--out-dir", str(out)])
    record = {"n_u": 1, "n_y": 1, "n_p": 2}[key]
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: model {model_path}: {key} = {value}, the record's {key} = {record}\n")
    assert not out.exists()


def test_check_rejects_inconsistent_model(tmp_path, capsys):
    _simulate(tmp_path, T=40)
    model_path = tmp_path / "m.json"
    _inconsistent_ss_model(model_path)
    capsys.readouterr()
    out = tmp_path / "chk"
    code = main([
        "check", "--data-dir", str(tmp_path / "data"), "--L", "5",
        "--model", str(model_path), "--out-dir", str(out),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # every issue is named: A is not square, B and C do not match its one row
    for issue in ("A must be square", "B has 2 rows", "C has 2 cols"):
        assert issue in captured.err, captured.err
    assert "m.json" in captured.err
    assert not out.exists()


def test_check_missing_data_exit_config(tmp_path):
    assert main(["check", "--data-dir", str(tmp_path / "void"), "--L", "5"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 25, "seed": 4, "model": "builtin:verhoek"}))
    assert main([
        "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "c1"),
    ]) == 0
    assert read_trajectory_csv(tmp_path / "c1" / "u.csv").length == 25
    # flag overrides the config value
    assert main([
        "simulate", "--config", str(cfg), "--T", "30",
        "--out-dir", str(tmp_path / "c2"),
    ]) == 0
    assert read_trajectory_csv(tmp_path / "c2" / "u.csv").length == 30


def test_predict_rejects_nan_in_data_csv(tmp_path, capsys):
    _simulate(tmp_path, T=70)
    _write_query(tmp_path / "query")
    y = tmp_path / "data" / "y.csv"
    good = y.read_text().splitlines()
    for bad in ("nan", "abc"):
        lines = list(good)
        lines[5] = lines[5].split(",")[0] + "," + bad
        y.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = main([
            "predict", "--data-dir", str(tmp_path / "data"),
            "--query-dir", str(tmp_path / "query"), "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "y.csv" in err and "time step 5" in err and "Traceback" not in err, err
        assert not (out / "prediction.json").exists()


@pytest.mark.parametrize(
    "config, named",
    [
        ([1], ("cfg.json",)),
        ({"Tt": 40}, ("cfg.json", "Tt")),
        ({"T": "40"}, ("cfg.json", "T")),
        ({"seed": True}, ("cfg.json", "seed")),
        ({"tol": "1e-7"}, ("cfg.json", "tol")),
        # json.load reads NaN and Infinity; a NaN tol read every query "ok"
        ({"tol": float("nan")}, ("tol", "nan")),
        ({"tol": float("inf")}, ("tol", "inf")),
        ({"tol": -1}, ("tol", "-1")),
        ({"margin_tol": float("nan")}, ("margin_tol", "nan")),
        ({"margin_tol": -1e-7}, ("margin_tol",)),
        ({"input_box": [-1, "1"]}, ("input_box",)),
        ({"scheduling_box": [[0, 1], 2]}, ("scheduling_box",)),
        # the built-in model has n_p = 2
        ({"scheduling_box": [[-1, 1], [-1, 1], [-1, 1]]}, ("scheduling_box",)),
        # a Philox key word is in [0, 2**64)
        ({"seed": -1}, ("seed",)),
        ({"seed": 2**64}, ("seed",)),
        # check draws only for the structural test of a state-space model
        ({"seed": -1, "L": 5}, ("seed",)),
        ({"seed": 2**64, "L": 5}, ("seed",)),
        ({"seed": -1, "L": 5, "model": "builtin:verhoek"}, ("seed",)),
    ],
)
def test_config_rejected_at_the_boundary(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["simulate"]
    if {"tol", "margin_tol"} & set(config):
        # read by predict only; valid data make the config the fault
        assert _simulate(tmp_path, T=70) == 0
        _write_query(tmp_path / "query")
        capsys.readouterr()
        argv = ["predict", "--data-dir", str(tmp_path / "data"),
                "--query-dir", str(tmp_path / "query")]
    elif "L" in config:  # read by check only
        assert _simulate(tmp_path, T=70) == 0
        capsys.readouterr()
        argv = ["check", "--data-dir", str(tmp_path / "data")]
    code = main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "c")])
    assert code == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named), err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--margin-tol", "-1")])
def test_tolerance_flag_rejected_at_the_boundary(tmp_path, capsys, flag, value):
    assert _simulate(tmp_path, T=70) == 0
    _write_query(tmp_path / "query")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([
        "predict", "--data-dir", str(tmp_path / "data"), "--query-dir",
        str(tmp_path / "query"), "--out-dir", str(out), flag, value,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag[2:].replace("-", "_") in captured.err, captured.err
    assert not out.exists()


def test_tolerance_flags_default_to_the_library_constant():
    # cli loads no analysis at import, so its defaults are literals pinned here
    args = cli.build_parser().parse_args(
        ["predict", "--data-dir", "d", "--query-dir", "q", "--out-dir", "o"])
    assert args.tol == args.margin_tol == analysis.TOL


def test_config_tol_accepts_an_integer(tmp_path):
    assert _simulate(tmp_path, T=70) == 0
    _write_query(tmp_path / "query")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1, "margin_tol": 0}))
    assert main([
        "predict", "--config", str(cfg), "--data-dir", str(tmp_path / "data"),
        "--query-dir", str(tmp_path / "query"), "--out-dir", str(tmp_path / "c"),
    ]) == 0


_UNREAD_KEYS = {
    "simulate": {"T_ini": 3, "T_r": 7, "L": 10, "tol": 1e-7, "margin_tol": 1e-7},
    "check": {"T": 9, "T_ini": 3, "T_r": 7, "tol": 1e-3, "margin_tol": 5, "format": "csv",
              "input_box": [-1, 1], "scheduling_box": None},
    "predict": {"model": "builtin:verhoek", "seed": 1, "T": 9, "T_ini": 3, "T_r": 7,
                "L": 10, "format": "csv", "input_box": [-1, 1], "scheduling_box": None},
}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in _UNREAD_KEYS.items() for key in keys])
def test_config_key_a_subcommand_does_not_read_is_rejected(tmp_path, capsys, command, key):
    # valid data and query, so the key is the only fault
    assert _simulate(tmp_path, T=70) == 0
    _write_query(tmp_path / "query")
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: _UNREAD_KEYS[command][key]}))
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate"],
        "check": ["check", "--data-dir", str(tmp_path / "data")],
        "predict": ["predict", "--data-dir", str(tmp_path / "data"),
                    "--query-dir", str(tmp_path / "query")],
    }[command]
    assert main([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cfg.json" in captured.err and repr(key) in captured.err, captured.err
    assert not out.exists()


def test_check_reads_model_from_config(tmp_path, capsys):
    assert _simulate(tmp_path, T=70) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "builtin:verhoek"}))
    capsys.readouterr()
    assert main(["check", "--config", str(cfg), "--data-dir", str(tmp_path / "data"),
                 "--L", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["lag"] == 2
    cfg.write_text(json.dumps({"model": "nope.json"}))
    assert main(["check", "--config", str(cfg), "--data-dir", str(tmp_path / "data"),
                 "--L", "7"]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_json_format_bundle(tmp_path):
    assert _simulate(tmp_path, out="jb", T=30, extra=("--format", "json")) == 0
    bundle = tmp_path / "jb" / "record.json"
    assert bundle.exists()
    code = main([
        "check", "--data-bundle", str(bundle), "--L", "4",
    ])
    assert code == 0


def test_invalid_format_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--format", "xml", "--out-dir", str(tmp_path / "x")])

_IGNORED_FLAGS = {
    "simulate": ("--T-ini", "--T-r", "--L", "--tol", "--margin-tol"),
    "check": ("--T", "--T-ini", "--T-r", "--tol", "--margin-tol", "--format",
              "--input-box"),
    "predict": ("--model", "--seed", "--T", "--T-ini", "--T-r", "--L", "--format",
                "--input-box"),
}
_FLAG_VALUES = {"--model": ("builtin:verhoek",), "--format": ("csv",),
                "--input-box": ("-1", "1"), "--tol": ("1e-7",), "--margin-tol": ("1e-7",)}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in _IGNORED_FLAGS.items() for flag in flags])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    # valid data and query, so the flag is the only fault
    assert _simulate(tmp_path, T=70) == 0
    _write_query(tmp_path / "query")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--out-dir", str(out)],
        "check": ["check", "--data-dir", str(tmp_path / "data"), "--out-dir", str(out)],
        "predict": ["predict", "--data-dir", str(tmp_path / "data"),
                    "--query-dir", str(tmp_path / "query"), "--out-dir", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, *_FLAG_VALUES.get(flag, ("3",))])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err, captured.err
    assert not out.exists()


def _run(argv, capsys, out):
    """Exit code, stdout and the bytes of every file written under ``out``."""
    capsys.readouterr()
    code = main([*argv, "--out-dir", str(out)])
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "model", "ss.json"), ("simulate", "seed", 3), ("simulate", "T", 25),
    ("simulate", "format", "json"), ("simulate", "input_box", [-0.5, 2.0]),
    ("check", "model", "ss.json"), ("check", "seed", 3), ("check", "L", 5),
    ("predict", "tol", 0.0), ("predict", "margin_tol", 5.0),
])
def test_config_value_and_flag_write_the_same_artifacts(tmp_path, capsys, command, key,
                                                        value):
    assert _simulate(tmp_path, T=70) == 0
    _write_query(tmp_path / "query")
    model = tmp_path / "ss.json"
    save_model(model, random_affine_ss(np.random.default_rng(2), 2, 1, 1, 2))
    if value == "ss.json":
        value = str(model)
    argv = {
        "simulate": ["simulate"],
        # the seed draws the structural test of a model
        "check": ["check", "--data-dir", str(tmp_path / "data")]
        + (["--model", str(model)] if key == "seed" else []),
        "predict": ["predict", "--data-dir", str(tmp_path / "data"),
                    "--query-dir", str(tmp_path / "query")],
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flag = ["--" + key.replace("_", "-"), *map(str, np.atleast_1d(value))]
    by_config = _run([*argv, "--config", str(cfg)], capsys, tmp_path / "by-config")
    by_flag = _run([*argv, *flag], capsys, tmp_path / "by-flag")
    assert by_config == by_flag
    if (command, key) != ("check", "seed"):  # a minimal model's report shows no draw
        assert by_config != _run(argv, capsys, tmp_path / "by-default")


@pytest.mark.parametrize("how", ["flag", "config"])
def test_check_depth_below_one_exits_config(tmp_path, capsys, how):
    assert _simulate(tmp_path, T=70) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 0}))
    extra = ["--L", "0"] if how == "flag" else ["--config", str(cfg)]
    out = tmp_path / "chk"
    capsys.readouterr()
    assert main(["check", "--data-dir", str(tmp_path / "data"), *extra,
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "L must be" in captured.err, captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--data-bundle", "--model", "--config"])
def test_directory_given_as_file_exits_config(tmp_path, capsys, flag):
    assert _simulate(tmp_path, T=70) == 0
    folder = tmp_path / "folder.json"
    folder.mkdir()
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"--data-bundle": ["check", "--data-bundle", str(folder), "--out-dir", str(out)],
            "--model": ["simulate", "--model", str(folder), "--out-dir", str(out)],
            "--config": ["check", "--data-dir", str(tmp_path / "data"), "--config",
                         str(folder), "--out-dir", str(out)]}[flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "folder.json" in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


_SS_A_NOT_A_MATRIX = b'{"kind": "ss", "n_p": 1, "A": 5, "B": [], "C": [], "D": []}'
_SS_NEGATIVE_N_P = (b'{"kind": "ss", "n_p": -1, "A": [[[]]], "B": [[[]]], "C": [[[]]], '
                    b'"D": [[[]]]}')
# a u.csv whose one sample is 200,000 digits long, over the csv module's field limit
_U_LONG_FIELD = b"t,u0\n1," + b"1" * 200_000 + b"\n"
# a 2-state model file that declares 3 states
_SS_DECLARED_N_X = json.dumps(
    {**model_to_dict(random_affine_ss(np.random.default_rng(0), 2)), "n_x": 3}).encode()
# the T = 70 record's y.csv re-based to start at t = 2
_Y_FROM_T2 = b"t,y0\n" + b"".join(b"%d,0.0\n" % t for t in range(2, 72))
# a query's initial outputs at t = 2..4, one step after its inputs at t = 1..3
_Y_INI_ONE_STEP_LATE = b"t,y0\n2,0.0\n3,0.0\n4,0.0\n"
# seven true outputs, but at t = 1..7 where the prediction is at t = 4..10
_TRUTH_FROM_T1 = b"t,y0\n" + b"".join(b"%d,0.0\n" % t for t in range(1, 8))


@pytest.mark.parametrize("argv,files,named", [
    (["check", "--data-dir", "data", "--L", "3"], {"data/y.csv": b"\xff,1\n"}, "y.csv"),
    (["predict", "--data-dir", "data", "--query-dir", "query"], {"query/u_r.csv": None},
     "u_r.csv"),
    (["simulate", "--config", "cfg.json"], {"cfg.json": b'{"T": 5\xff}'}, "cfg.json"),
    (["simulate", "--model", "m.json"], {"m.json": b"[1, 2]"}, "m.json"),
    (["simulate", "--model", "m.json"], {"m.json": _SS_A_NOT_A_MATRIX}, "m.json"),
    (["simulate", "--model", "absent.json"], {}, "absent.json"),
    (["check", "--data-dir", "data", "--config", "absent.json"], {},
     "error: absent.json: No such file or directory"),
    (["check", "--data-dir", "data", "--L", "3"], {"data/y.csv": _Y_FROM_T2},
     "data: u/p/y intervals differ"),
    (["simulate", "--model", "m.json"], {"m.json": _SS_NEGATIVE_N_P}, "m.json: n_p"),
    (["predict", "--data-dir", "data", "--query-dir", "query"],
     {"query/y_ini.csv": _Y_INI_ONE_STEP_LATE}, "y_ini on steps (2, 4), expected (1, 3)"),
    (["predict", "--data-dir", "data", "--query-dir", "query"],
     {"query/y_r_truth.csv": _TRUTH_FROM_T1}, "y_r_truth on steps (1, 7), expected (4, 10)"),
    (["simulate", "--model", "m.json"], {"m.json": _SS_DECLARED_N_X}, "m.json: n_x"),
    (["check", "--data-dir", "data", "--L", "3"], {"data/u.csv": _U_LONG_FIELD},
     "u.csv: field larger than field limit"),
], ids=["non-utf8-data", "missing-query-file", "non-utf8-config", "model-not-an-object",
        "model-matrix-not-a-list", "missing-model", "missing-config", "csv-intervals-differ",
        "model-negative-n-p", "y-ini-one-step-late", "truth-off-the-query-steps",
        "model-declared-n-x", "csv-field-over-the-limit"])
def test_unreadable_input_file_exits_config(tmp_path, capsys, monkeypatch, argv, files,
                                            named):
    # each reader names its file: no pre-check in the CLI, and no traceback
    monkeypatch.chdir(tmp_path)
    assert _simulate(tmp_path, T=70) == 0
    _write_query(tmp_path / "query")
    for name, content in files.items():
        if content is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_bytes(content)
    capsys.readouterr()
    assert main([*argv, "--out-dir", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    assert "Hankel depth (default: 10)" in out and "--T-ini" not in out
