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
    Report the rank records of a record's excitation and of its lifted Hankel
    matrix, and structural observability/reachability when a model of the
    record's dimensions is supplied (an IO model through its realization).

Exit codes: 0 success, 2 configuration/input error (an input too large for
memory too), 3 numeric failure, 4 ambiguous prediction, 5 infeasible prediction.

All outputs are deterministic for a fixed seed and are written whole or not
at all, with the mode a plain ``open`` gives, so a failed run leaves no partial
artifacts; an ``--out-dir`` that cannot be written exits 2 naming it.
stdout carries a one-line machine-readable JSON summary; the human-readable
report goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

# Every command runs these; every other module loads only where a command runs it.
from .errors import InvalidShape, LpvError
from .signals import (DataRecord, Trajectory, _check_windows, _json_text, _read, _write,
                      read_trajectory_csv, trajectory_to_csv, write_trajectory_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_AMBIGUOUS = 4
EXIT_INFEASIBLE = 5


class ConfigError(Exception):
    pass


# Every config key: the keywords of its flag (``None``: config file only), the JSON
# types a config file may give it (``bool`` is rejected everywhere) and the range
# ``[least, bound)`` of its values, checked for every subcommand that reads the key.
# The flag's ``default`` is the key's default; ``simulate`` alone sets its own model.
_KEYS = {
    "model": (dict(help='model JSON path or "builtin:verhoek"'), str, None),
    "seed": (dict(type=int, default=0, help="seed of the random draws"), int, (0, 2**64)),
    "T": (dict(type=int, default=40, help="record length"), int, (1, np.inf)),
    "L": (dict(type=int, default=10, help="Hankel depth"), int, (1, np.inf)),
    "tol": (dict(type=float, default=1e-7, help="residual tolerance"), (int, float),
            (0, np.inf)),
    "margin_tol": (dict(type=float, default=1e-7, help="output uniqueness margin"),
                   (int, float), (0, np.inf)),
    "format": (dict(choices=("csv", "json"), default="csv", help="record format"),
               str, None),
    "input_box": (dict(type=float, nargs=2, default=(-1.0, 1.0), metavar=("LO", "HI"),
                       help="range of the input draws"), list, None),
    "scheduling_box": (None, (list, type(None)), None),
}


def _read_config(args) -> dict:
    """The values of ``args.config``, each a key the subcommand reads, of its JSON type."""
    data = _read(args.config, json.loads, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError(f"config {args.config}: expected a JSON object")
    read = _KEYS.keys() & vars(args).keys()
    for key, value in data.items():
        if key not in read:
            raise ConfigError(f"config {args.config}: {args.command} does not read key {key!r}")
        flag, types, _ = _KEYS[key]
        choices = (flag or {}).get("choices")
        if isinstance(value, bool) or not isinstance(value, types) or (
                choices and value not in choices):
            raise ConfigError(f"config {args.config}: bad value for {key}: {value!r}")
    return data


def _check_range(args) -> None:
    for key in _KEYS.keys() & vars(args).keys():
        bounds, value = _KEYS[key][2], getattr(args, key)
        if bounds is not None and not bounds[0] <= value < bounds[1]:  # NaN fails too
            raise ConfigError(f"{key} must be in [{bounds[0]}, {bounds[1]}), got {value}")


def _resolve_model(name: str):
    from .models import example_verhoek, load_model
    return example_verhoek() if name == "builtin:verhoek" else load_model(name)


def _summary(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _report(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from . import rng
    from .experiments import _record_and_states
    model = _resolve_model(args.model)
    out_dir = Path(args.out_dir)
    record, x = _record_and_states(model, args.T, args.seed, args.input_box,
                                   args.scheduling_box)
    if args.format == "json":
        _write(out_dir / "record.json", _json_text(record.to_dict()))
        outputs = ["record.json"]
    else:
        record.to_csv_dir(out_dir)
        outputs = ["u.csv", "p.csv", "y.csv"]
        if x is not None:
            write_trajectory_csv(out_dir / "x.csv", x)
            outputs.append("x.csv")
    meta = {
        "command": "simulate",
        "model": args.model,
        "T": args.T,
        "seed": args.seed,
        "input_box": list(args.input_box),
        "scheduling_box": args.scheduling_box,
        "rng": rng.metadata(args.seed),
        "outputs": outputs,
    }
    _write(out_dir / "metadata.json", _json_text(meta))
    outputs.append("metadata.json")
    _report(f"simulate: wrote {', '.join(outputs)} to {out_dir}")
    _summary({"command": "simulate", "seed": args.seed, "T": args.T, "outputs": outputs})
    return EXIT_OK


# -- predict -------------------------------------------------------------------


def _load_record(args) -> DataRecord:
    """The record, lifted here so that an overflowing ``p (x) w`` names its path."""
    bundle = args.data_bundle is not None
    path = args.data_bundle if bundle else args.data_dir
    record = (DataRecord.from_json_bundle if bundle else DataRecord.from_csv_dir)(path)
    try:
        record.lifted_samples
    except InvalidShape as exc:
        raise InvalidShape(f"{path}: {exc}") from None
    return record


def _load_query(args) -> dict:
    """The query windows, keyed by the parameters of :func:`predict`, and the truth."""
    d = Path(args.query_dir)
    out = {name: read_trajectory_csv(d / f"{name}.csv")
           for name in ("u_ini", "p_ini", "y_ini", "u_r", "p_r")}
    truth_path = d / "y_r_truth.csv"
    out["y_r_truth"] = read_trajectory_csv(truth_path) if truth_path.is_file() else None
    return out


def _plot_data_csv(truth, predicted) -> str:
    both = Trajectory(predicted.t_start, np.hstack([truth.samples, predicted.samples]))
    n = truth.dim
    header = ["t"] + [f"truth{i + 1}" for i in range(n)]
    header += [f"predicted{i + 1}" for i in range(n)]
    return ",".join(header) + "\n" + trajectory_to_csv(both).split("\n", 1)[1]


def cmd_predict(args) -> int:
    from .prediction import predict
    record = _load_record(args)
    query = _load_query(args)
    truth = query.pop("y_r_truth")
    out_dir = Path(args.out_dir)
    result = predict(record, **query, tol=args.tol, margin_tol=args.margin_tol)

    max_err = None
    if truth is not None:
        _check_windows(("y_r_truth", truth, result.y_r.dim, result.y_r.interval))
        max_err = float(np.max(np.abs(truth.samples - result.y_r.samples)))

    payload = result.to_dict()
    payload["max_abs_error"] = max_err
    _write(out_dir / "prediction.json", _json_text(payload))
    write_trajectory_csv(out_dir / "y_r.csv", result.y_r)
    outputs = ["prediction.json", "y_r.csv"]
    if truth is not None:
        _write(out_dir / "plot_data.csv", _plot_data_csv(truth, result.y_r))
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
    exits = {"ambiguous": EXIT_AMBIGUOUS, "infeasible": EXIT_INFEASIBLE}
    return exits.get(result.verdict, EXIT_OK)


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    record = _load_record(args)
    lifted = record.lifted(args.L)
    pe = lifted.pe

    payload: dict = {"pe": asdict(pe), "hankel": asdict(lifted.hankel)}
    summary: dict = {
        "command": "check",
        "pe": pe.verdict,
        "extended_input_rank": pe.rank,
        "required": pe.required,
    }
    if args.model:
        from .analysis import minimality_report
        from .models import LpvIoModel
        model = _resolve_model(args.model)
        for key in ("n_u", "n_y", "n_p"):
            if getattr(model, key) != getattr(record, key):
                raise ConfigError(f"model {args.model}: {key} = {getattr(model, key)}, "
                                  f"the record's {key} = {getattr(record, key)}")
        if isinstance(model, LpvIoModel):
            summary["lag"] = model.n_a
            model = model.realization
        report = minimality_report(model, seed=args.seed)
        payload["structural"] = dict(asdict(report), minimal=report.minimal)
        summary["minimal"] = report.minimal
    if args.out_dir:
        _write(Path(args.out_dir) / "check.json", _json_text(payload))
    _report(
        f"check: pe={pe.verdict} rank={pe.rank}/{pe.required} at L={args.L}"
    )
    _summary(summary)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _subcommand(sub, name: str, func, keys, config: dict, help: str, **defaults):
    """The parser of ``name``: ``--config`` and the flags of the config ``keys`` it
    reads (any other flag is a usage error); ``config`` values act as its defaults."""
    parser = sub.add_parser(name, help=help,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override it")
    for key in keys:
        flag = _KEYS[key][0]
        if flag is None:
            defaults.setdefault(key, None)
        else:
            parser.add_argument("--" + key.replace("_", "-"), **flag)
    parser.set_defaults(func=func, **defaults)
    parser.set_defaults(**{key: value for key, value in config.items() if key in keys})
    return parser


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="lpvdd",
        description="Data-driven simulation and prediction for LPV systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = _subcommand(sub, "simulate", cmd_simulate,
                      ("model", "seed", "T", "format", "input_box", "scheduling_box"),
                      config, "generate a seeded data record", model="builtin:verhoek")
    sim.add_argument("--out-dir", required=True, dest="out_dir")

    pred = _subcommand(sub, "predict", cmd_predict, ("tol", "margin_tol"), config,
                       "predict a query continuation from data")
    pred.add_argument("--query-dir", required=True, dest="query_dir")
    pred.add_argument("--out-dir", required=True, dest="out_dir")

    chk = _subcommand(sub, "check", cmd_check, ("model", "seed", "L"), config,
                      "excitation and structural checks")
    chk.add_argument("--out-dir", dest="out_dir")

    for command in (pred, chk):  # exactly one record source
        source = command.add_mutually_exclusive_group(required=True)
        source.add_argument("--data-dir", dest="data_dir")
        source.add_argument("--data-bundle", dest="data_bundle")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # the config's values become the subcommand's defaults, so flags override them
            args = build_parser(_read_config(args)).parse_args(argv)
        _check_range(args)
        return args.func(args)
    except ConfigError as exc:
        _report(f"error: {exc}")
        return EXIT_CONFIG
    except LpvError as exc:
        _report(f"input error: {exc}")
        return EXIT_CONFIG
    except OSError as exc:  # every reader names its file in an LpvError: a write failed
        _report(f"error: cannot write {exc.filename}: {exc.strerror}")
        return EXIT_CONFIG
    except MemoryError as exc:  # an array numpy cannot allocate: a record too long, say
        _report(f"error: out of memory: {exc}")
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        _report(f"numeric failure: {exc}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
