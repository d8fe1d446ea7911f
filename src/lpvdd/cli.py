"""Command-line front end: seeded simulation, excitation checks, prediction.

Subcommands
-----------
simulate
    Generate a seeded record from a model and write ``u.csv``, ``p.csv``,
    ``y.csv`` (plus ``x.csv`` for state-space models) and ``metadata.json``.
predict
    Read a record and a query (initial window plus future input/scheduling)
    and write ``prediction.json``, ``y_r.csv`` and, when a truth file is
    present, ``plot_data.csv`` with truth vs. prediction per time step.
check
    Report the persistence-of-excitation rank of a record, and structural
    observability/reachability when a state-space model is supplied.

Exit codes: 0 success, 2 configuration/input error, 3 numeric failure,
4 ambiguous prediction, 5 infeasible prediction.

All outputs are deterministic for a fixed seed and are written atomically
(temp file then rename), so a failed run leaves no partial artifacts.
stdout carries a one-line machine-readable JSON summary; the human-readable
report goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .analysis import check_pe, minimality_report
from .errors import LpvError
from .experiments import _record_and_states
from .models import LpvIoModel, LpvSsModel, _fatal_issues, example_verhoek, load_model
from .prediction import DataRecord, predict
from .signals import Trajectory, read_trajectory_csv, trajectory_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_AMBIGUOUS = 4
EXIT_INFEASIBLE = 5


class ConfigError(Exception):
    pass


def _is_box(b) -> bool:
    """A ``[lo, hi]`` pair of numbers with ``lo <= hi``."""
    return (
        isinstance(b, (list, tuple))
        and len(b) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in b)
        and b[0] <= b[1]
    )


@dataclass
class ExperimentConfig:
    model: str | None = None  # simulate defaults to builtin:verhoek
    T: int = 40
    T_ini: int = 3
    T_r: int = 7
    L: int | None = None
    seed: int = 0
    input_box: tuple[float, float] = (-1.0, 1.0)
    scheduling_box: list | None = None
    tol: float = 1e-7
    margin_tol: float = 1e-7
    format: str = "csv"

    def validate(self) -> None:
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.T_ini < 1 or self.T_r < 1:
            raise ConfigError("T_ini and T_r must be >= 1")
        if not _is_box(self.input_box):
            raise ConfigError(f"bad input_box {self.input_box}")
        boxes = self.scheduling_box or []
        if boxes and np.isscalar(boxes[0]):
            boxes = [boxes]
        for b in boxes:
            if not _is_box(b):
                raise ConfigError(f"bad scheduling_box entry {b}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        for key in ("tol", "margin_tol"):
            value = getattr(self, key)
            if not 0 <= value < np.inf:  # NaN fails too
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")


# JSON types accepted per config key; ``bool`` is rejected everywhere.
_CONFIG_TYPES = {
    "model": str, "T": int, "T_ini": int, "T_r": int, "L": (int, type(None)),
    "seed": int, "input_box": list, "scheduling_box": (list, type(None)),
    "tol": (int, float), "margin_tol": (int, float), "format": str,
}


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    # a subcommand reads the keys of the flags it registers, and the
    # config-only keys it sets as parser defaults
    read = _CONFIG_TYPES.keys() & vars(args).keys()
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config}: expected a JSON object")
        for key, value in data.items():
            if key not in read:
                raise ConfigError(
                    f"config {args.config}: {args.command} does not read key {key!r}")
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
                raise ConfigError(f"config {args.config}: {key} has wrong type: {value!r}")
            setattr(cfg, key, value)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _resolve_model(name: str):
    if name == "builtin:verhoek":
        return example_verhoek()
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"model file not found: {name}")
    try:
        model = load_model(path)
    except (LpvError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load model {name}: {exc}") from exc
    issues = _fatal_issues(model)
    if issues:
        raise ConfigError(f"invalid model {name}: {'; '.join(issues)}")
    return model


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _summary(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _report(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    cfg.model = cfg.model or "builtin:verhoek"
    model = _resolve_model(cfg.model)
    out_dir = Path(args.out_dir)
    record, x = _record_and_states(
        model,
        cfg.T,
        cfg.seed,
        input_box=cfg.input_box,
        scheduling_box=cfg.scheduling_box,
        provenance=f"model={cfg.model} seed={cfg.seed} T={cfg.T}",
    )
    outputs = []
    if cfg.format == "json":
        _atomic_write(out_dir / "record.json", _json_text(record.to_dict()))
        outputs.append("record.json")
    else:
        for name, traj in (("u", record.u), ("p", record.p), ("y", record.y)):
            _atomic_write(out_dir / f"{name}.csv", trajectory_to_csv(traj))
            outputs.append(f"{name}.csv")
        if x is not None:
            _atomic_write(out_dir / "x.csv", trajectory_to_csv(x))
            outputs.append("x.csv")
    meta = {
        "command": "simulate",
        "model": cfg.model,
        "T": cfg.T,
        "seed": cfg.seed,
        "input_box": list(cfg.input_box),
        "scheduling_box": cfg.scheduling_box,
        "rng": rng.metadata(cfg.seed),
        "outputs": outputs,
    }
    _atomic_write(out_dir / "metadata.json", _json_text(meta))
    outputs.append("metadata.json")
    _report(f"simulate: wrote {', '.join(outputs)} to {out_dir}")
    _summary({"command": "simulate", "seed": cfg.seed, "T": cfg.T, "outputs": outputs})
    return EXIT_OK


# -- predict -------------------------------------------------------------------


def _load_record(args) -> DataRecord:
    if getattr(args, "data_bundle", None):
        path = Path(args.data_bundle)
        if not path.exists():
            raise ConfigError(f"data bundle not found: {path}")
        return DataRecord.from_json_bundle(path)
    if not getattr(args, "data_dir", None):
        raise ConfigError("predict/check needs --data-dir or --data-bundle")
    d = Path(args.data_dir)
    for name in ("u.csv", "p.csv", "y.csv"):
        if not (d / name).exists():
            raise ConfigError(f"missing data file: {d / name}")
    return DataRecord.from_csv_dir(d)


def _load_query(args) -> dict:
    d = Path(args.query_dir)
    names = ("u_ini", "p_ini", "y_ini", "u_r", "p_r")
    out = {}
    for name in names:
        path = d / f"{name}.csv"
        if not path.exists():
            raise ConfigError(f"missing query file: {path}")
        out[name] = read_trajectory_csv(path)
    truth_path = d / "y_r_truth.csv"
    out["y_r_truth"] = read_trajectory_csv(truth_path) if truth_path.exists() else None
    return out


def _plot_data_csv(truth, predicted) -> str:
    both = Trajectory(predicted.t_start, np.hstack([truth.samples, predicted.samples]))
    n = truth.dim
    header = ["t"] + [f"truth{i + 1}" for i in range(n)]
    header += [f"predicted{i + 1}" for i in range(n)]
    return ",".join(header) + "\n" + trajectory_to_csv(both).split("\n", 1)[1]


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    record = _load_record(args)
    query = _load_query(args)
    out_dir = Path(args.out_dir)
    result = predict(
        record,
        query["u_ini"],
        query["p_ini"],
        query["y_ini"],
        query["u_r"],
        query["p_r"],
        tol=cfg.tol,
        margin_tol=cfg.margin_tol,
    )

    max_err = None
    truth = query["y_r_truth"]
    if truth is not None:
        if truth.samples.shape == result.y_r.samples.shape:
            max_err = float(np.max(np.abs(truth.samples - result.y_r.samples)))
        else:
            raise ConfigError("y_r_truth shape does not match predicted window")

    payload = result.to_dict()
    payload["max_abs_error"] = max_err
    _atomic_write(out_dir / "prediction.json", _json_text(payload))
    _atomic_write(out_dir / "y_r.csv", trajectory_to_csv(result.y_r))
    outputs = ["prediction.json", "y_r.csv"]
    if truth is not None:
        _atomic_write(out_dir / "plot_data.csv", _plot_data_csv(truth, result.y_r))
        outputs.append("plot_data.csv")

    _report(
        f"predict: verdict={result.verdict} residual={result.residual:.3e} "
        f"margin={result.output_uniqueness_margin:.3e}"
        + (f" max_abs_error={max_err:.3e}" if max_err is not None else "")
    )
    for warning in result.diagnostics.get("warnings", []):
        _report(f"warning: {warning}")
    _summary(
        {
            "command": "predict",
            "verdict": result.verdict,
            "residual": result.residual,
            "margin": result.output_uniqueness_margin,
            "max_abs_error": max_err,
            "outputs": outputs,
        }
    )
    if result.verdict == "ambiguous":
        return EXIT_AMBIGUOUS
    if result.verdict == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_OK


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    cfg = _load_config(args)
    record = _load_record(args)
    L = cfg.L if cfg.L is not None else cfg.T_ini + cfg.T_r
    pe = check_pe(record.u, record.p, L, y=record.y)

    payload: dict = {"pe": json.loads(pe.to_json())}
    summary: dict = {
        "command": "check",
        "pe": pe.verdict,
        "extended_input_rank": pe.extended_input_rank,
        "required": pe.required,
    }
    if cfg.model:
        model = _resolve_model(cfg.model)
        if isinstance(model, LpvSsModel):
            report = minimality_report(model, seed=cfg.seed)
            payload["structural"] = json.loads(report.to_json())
            summary["minimal"] = report.minimal
        elif isinstance(model, LpvIoModel):
            # structural checks need a state-space realization; for IO form
            # only the lag is reported
            payload["lag_report"] = {"kind": "io", "n_a": model.n_a, "n_b": model.n_b}
            summary["lag"] = model.n_a
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        _atomic_write(out_dir / "check.json", _json_text(payload))
    _report(
        f"check: pe={pe.verdict} rank={pe.extended_input_rank}/{pe.required} at L={L}"
    )
    _summary(summary)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


_FLAGS = {
    "--model": dict(help='model JSON path or "builtin:verhoek"'),
    "--seed": dict(type=int), "--T": dict(type=int), "--T-ini": dict(type=int),
    "--T-r": dict(type=int), "--L": dict(type=int), "--tol": dict(type=float),
    "--margin-tol": dict(type=float), "--format": dict(choices=("csv", "json")),
    "--input-box": dict(type=float, nargs=2),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """``--config`` and the ``flags`` the subcommand reads; any other is a usage error."""
    parser.add_argument("--config", help="JSON config file; flags override it")
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpvdd",
        description="Data-driven simulation and prediction for LPV systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a seeded data record")
    _add_flags(sim, "--model", "--seed", "--T", "--format", "--input-box")
    sim.add_argument("--out-dir", required=True, dest="out_dir")
    sim.set_defaults(func=cmd_simulate, scheduling_box=None)

    pred = sub.add_parser("predict", help="predict a query continuation from data")
    _add_flags(pred, "--tol", "--margin-tol")
    pred.add_argument("--data-dir", dest="data_dir")
    pred.add_argument("--data-bundle", dest="data_bundle")
    pred.add_argument("--query-dir", required=True, dest="query_dir")
    pred.add_argument("--out-dir", required=True, dest="out_dir")
    pred.set_defaults(func=cmd_predict)

    chk = sub.add_parser("check", help="excitation and structural checks")
    _add_flags(chk, "--model", "--seed", "--T-ini", "--T-r", "--L")
    chk.add_argument("--data-dir", dest="data_dir")
    chk.add_argument("--data-bundle", dest="data_bundle")
    chk.add_argument("--out-dir", dest="out_dir")
    chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _report(f"error: {exc}")
        return EXIT_CONFIG
    except LpvError as exc:
        _report(f"input error: {exc}")
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        _report(f"numeric failure: {exc}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
