"""Finite vector-valued trajectories and the matrix constructions over them.

A :class:`Trajectory` is a finite sequence of real vectors indexed by an
explicit integer interval ``[t_start, t_end]``.  Keeping the absolute time
index on the value (instead of an implicit 1-based convention) makes the
window bookkeeping of initial/future splits checkable instead of silent.

On top of trajectories this module provides the standard data-driven
constructions: stacking (``vec``), concatenation, block Hankel matrices,
Kronecker-extended signals ``col(w, p (x) w)`` and the block-diagonal
scheduling matrix used to impose Kronecker consistency constraints.  A
:class:`DataRecord` is one measured ``(u, p, y)`` sequence: all that the generating
modules (models, simulation, experiments) hand to the data modules (analysis,
prediction).  Trajectories and records are read and written here, in CSV and JSON.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from functools import cached_property, wraps
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    IntervalMismatch,
    InvalidShape,
    LpvError,
    NonAdjacentIntervals,
)

if TYPE_CHECKING:
    from .analysis import Lifted

__all__ = [
    "Trajectory",
    "DataRecord",
    "vec",
    "concat",
    "hankel",
    "kron_extend",
    "kron_signal",
    "sched_block_diag",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "read_trajectory_csv",
    "write_trajectory_csv",
]


def _check_int(name: str, value, least: int | None = 1) -> int:
    """The one check of an integer argument: ``int(value)``, else :class:`InvalidShape`
    naming ``name`` unless ``value`` is an ``int`` or ``np.integer``, not a ``bool``, and
    at least ``least`` (``None``: any, as a time index)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidShape(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidShape(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class Trajectory:
    """A finite signal ``w_[t_start, t_end]`` with one real vector per step.

    ``samples`` has shape ``(length, dim)``.  ``dim == 0`` is allowed and
    stands for an empty (e.g. scheduling-free) channel set.  Instances are
    immutable; the sample array is stored read-only.  Every sample is a finite real, else
    :class:`InvalidShape` (naming the first step that holds a NaN or an infinity).
    """

    t_start: int
    samples: np.ndarray

    def __post_init__(self):
        try:  # numpy would parse text as numbers, and drop the imaginary part of complex
            arr = np.asarray(self.samples)
            if arr.dtype.kind not in "biufO":
                raise TypeError(f"got dtype {arr.dtype}")
            if arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat):
                raise TypeError("got text")
            arr = np.asarray(arr, dtype=float)
        except (TypeError, ValueError) as err:  # not numbers, or rows of unequal length
            raise InvalidShape(f"samples must be a (T, dim) array of reals: {err}") from None
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise InvalidShape(f"samples must be (T, dim) with T >= 1, got {arr.shape}")
        object.__setattr__(self, "t_start", _check_int("t_start", self.t_start, None))
        if not np.isfinite(arr).all():
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))[0]
            raise InvalidShape(f"non-finite sample at time step {self.t_start + bad}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.t_start == other.t_start and np.array_equal(self.samples, other.samples)

    def __hash__(self):  # + 0.0: -0.0 equals 0.0
        return hash((self.t_start, self.samples.shape, (self.samples + 0.0).tobytes()))

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def t_end(self) -> int:
        return self.t_start + self.length - 1

    @property
    def interval(self) -> tuple[int, int]:
        return (self.t_start, self.t_end)

    def value(self, k: int) -> np.ndarray:
        """Sample at absolute time ``k``."""
        k = _check_int("k", k, None)
        if not self.covers(k, k):
            raise IntervalMismatch(
                f"time {k} outside trajectory interval [{self.t_start}, {self.t_end}]"
            )
        return self.samples[k - self.t_start]

    def covers(self, t1: int, t2: int) -> bool:
        return self.t_start <= t1 and t2 <= self.t_end

    def restrict(self, t1: int, t2: int) -> "Trajectory":
        """Restriction to ``[t1, t2]`` (must lie inside the interval)."""
        t1, t2 = _check_int("t1", t1, None), _check_int("t2", t2, None)
        if not (t1 <= t2 and self.covers(t1, t2)):
            raise IntervalMismatch(
                f"[{t1}, {t2}] not inside [{self.t_start}, {self.t_end}]"
            )
        return Trajectory(t1, self.samples[t1 - self.t_start : t2 - self.t_start + 1])


def _finite(fn):
    """``fn`` under ``np.errstate``, as the simulators run: a map that diverges on its
    window raises one :class:`InvalidShape` naming it, where numpy would warn at each
    overflow and return a non-finite array."""
    @wraps(fn)
    @np.errstate(over="ignore", invalid="ignore")
    def checked(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not np.isfinite(out).all():
            raise InvalidShape(f"{fn.__name__}: the model diverges on this window")
        return out
    return checked


def vec(w: Trajectory) -> np.ndarray:
    """Stacked column ``[w(t_start); ...; w(t_end)]`` of length ``dim * length``."""
    return w.samples.reshape(-1).copy()


def concat(w1: Trajectory, w2: Trajectory) -> Trajectory:
    """Concatenation ``w1 ^ w2``; ``w2`` must start right after ``w1`` ends."""
    if w1.dim != w2.dim:
        raise DimensionMismatch(f"dims differ: {w1.dim} vs {w2.dim}")
    if w2.t_start != w1.t_end + 1:
        raise NonAdjacentIntervals(
            f"intervals [{w1.t_start},{w1.t_end}] and [{w2.t_start},{w2.t_end}] do not abut"
        )
    return Trajectory(w1.t_start, np.vstack([w1.samples, w2.samples]))


def hankel(w: Trajectory, t1: int) -> np.ndarray:
    """Block Hankel matrix with ``t1`` block rows, shape ``(t1 * dim, T - t1 + 1)``.

    Entry block ``(i, j)`` (1-based) is the sample at window offset
    ``i + j - 2`` from the trajectory start, so column ``j`` stacks the
    window of ``t1`` samples starting there.
    """
    return _windows(w.samples, t1).T.copy()


def _windows(X: np.ndarray, t1: int) -> np.ndarray:
    """``hankel(w, t1).T`` of the samples ``X`` of ``w``, as a read-only view of ``X``:
    row ``j`` is the window ``X[j : j + t1]``, flattened.  :class:`InvalidShape` unless
    ``t1`` is an integer in ``[1, len(X)]``: the one upper bound of a depth.  ``X`` is
    C-contiguous, as a trajectory's samples are; the column step is ``X.itemsize``, since
    one channel may carry stride 0, as ``Trajectory(t, 1-D)`` has."""
    if (t1 := _check_int("order L", t1)) > len(X):
        raise InvalidShape(f"data length {len(X)} shorter than order L={t1}")
    return np.lib.stride_tricks.as_strided(
        X, (len(X) - t1 + 1, t1 * X.shape[1]), (X.strides[0], X.itemsize), writeable=False)


def kron_signal(w: Trajectory, p: Trajectory) -> Trajectory:
    """Per-sample Kronecker product signal ``p(k) (x) w(k)``.

    The product is scheduling-major: component ``(j, i)`` of the output is
    ``p_j(k) * w_i(k)`` stored at index ``j * dim(w) + i``.
    """
    if w.interval != p.interval:
        raise IntervalMismatch(f"intervals differ: {w.interval} vs {p.interval}")
    prod = np.einsum("tj,ti->tji", p.samples, w.samples).reshape(w.length, -1)
    return Trajectory(w.t_start, prod)


def kron_extend(w: Trajectory, p: Trajectory) -> Trajectory:
    """Extended signal with per-sample value ``col(w(k), p(k) (x) w(k))``.

    The output dimension is ``(1 + dim(p)) * dim(w)``.
    """
    pw = kron_signal(w, p)
    return Trajectory(w.t_start, np.hstack([w.samples, pw.samples]))


def sched_block_diag(p_bar: Trajectory, n: int) -> np.ndarray:
    """Block-diagonal matrix with k-th diagonal block ``p_bar(k) (x) I_n``.

    Shape is ``(L * n_p * n, L * n)`` for a length-``L`` scheduling window.
    Multiplying the stacked window ``vec(w)`` of an ``n``-dimensional signal
    gives exactly ``vec(p_bar (x) w)``.
    """
    L, n_p = p_bar.length, p_bar.dim
    out = np.zeros((L * n_p * n, L * n))
    eye = np.eye(n)
    for k in range(L):
        block = np.kron(p_bar.samples[k][:, None], eye)
        out[k * n_p * n : (k + 1) * n_p * n, k * n : (k + 1) * n] = block
    return out


# -- CSV interchange ---------------------------------------------------------
#
# Format: header row "t,ch1,ch2,...", one row per time step, '.' decimal,
# UTF-8, no thousands separators.  Floats are written with shortest
# round-trip formatting so that identical trajectories produce identical
# bytes.


def trajectory_to_csv(w: Trajectory) -> str:
    lines = [",".join(["t"] + [f"ch{i + 1}" for i in range(w.dim)])]
    for t, row in enumerate(w.samples.tolist(), w.t_start):
        lines.append(",".join(map(repr, [t, *row])))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    try:
        header, *lines = csv.reader(io.StringIO(text))
    except ValueError:  # no header to unpack
        raise InvalidShape("empty CSV") from None
    except csv.Error as exc:  # a field over csv.field_size_limit(), longer than any number
        raise InvalidShape(str(exc)) from None
    if not header or header[0] != "t":
        raise InvalidShape(f"expected header starting with 't', got {header!r}")
    dim = len(header) - 1
    times: list[int] = []
    rows: list[list[float]] = []
    for row in lines:
        if not row:
            continue
        if len(row) != dim + 1:
            raise InvalidShape(f"row has {len(row)} fields, expected {dim + 1}")
        try:
            fields = "".join(row)  # int() and float() read "1_0" and every Unicode digit
            if "_" in fields or not fields.isascii():
                raise ValueError(row)
            times.append(int(row[0]))
            rows.append([float(v) for v in row[1:]])
        except ValueError:
            raise InvalidShape(f"non-numeric sample at time step {row[0]}") from None
    if not times:
        raise InvalidShape("CSV contains no samples")
    for a, b in zip(times, times[1:]):
        if b != a + 1:
            raise InvalidShape(f"non-consecutive time steps {a} -> {b}")
    samples = np.array(rows, dtype=float).reshape(len(times), dim)
    return Trajectory(times[0], samples)


def _check_windows(*windows) -> None:
    """Each ``(name, w, dim, interval)``: :class:`DimensionMismatch` naming ``w`` unless
    it has ``dim`` channels, :class:`InvalidShape` naming it and both intervals unless it
    is on ``interval`` (``None``: any)."""
    for name, w, dim, interval in windows:
        if dim is not None and w.dim != dim:
            raise DimensionMismatch(f"{name} has dim {w.dim}, expected {dim}")
        if interval is not None and w.interval != interval:
            raise InvalidShape(f"{name} on steps {w.interval}, expected {interval}")


def _json_number(value, key: str, error, integer: bool = False):
    """``value`` if JSON gave it as an integer (``integer``) or a number, else ``error``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise error(f"{key} must be a JSON {('number', 'integer')[integer]}, got {value!r}")
    return value


def write_trajectory_csv(path, w: Trajectory) -> None:
    _write(path, trajectory_to_csv(w))


def _json_text(data) -> str:
    """The one JSON layout: indent 2, sorted keys, a trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write(path, text: str) -> None:
    """The one writer: ``text`` in ``path`` whole or not at all, with the mode a plain
    ``open`` gives, making the directory.  An :class:`OSError` names it or ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"  # renamed over path once it holds the text
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # under the umask
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _read(path, parse, error):
    """``parse`` of the text in ``path``; ``error`` naming ``path`` when it cannot be
    opened, is not UTF-8 or does not parse (a missing key is named too).  Every file
    lpvdd writes goes through :func:`_write`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None
    except KeyError as exc:
        raise error(f"{path}: missing key {exc}") from None
    except (LpvError, AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"{path}: {exc}") from None


def read_trajectory_csv(path) -> Trajectory:
    """The trajectory in ``path``; :class:`InvalidShape` naming ``path`` when it cannot
    be opened, is not UTF-8 or is not a trajectory CSV."""
    return _read(path, trajectory_from_csv, InvalidShape)


@dataclass(frozen=True)
class DataRecord:
    """One measured ``(u, p, y)`` sequence over a shared interval."""

    u: Trajectory
    p: Trajectory
    y: Trajectory
    _lifted: dict = field(default_factory=dict, compare=False, repr=False, init=False)

    def __post_init__(self):
        if not (self.u.interval == self.p.interval == self.y.interval):
            raise IntervalMismatch(
                f"u/p/y intervals differ: {self.u.interval}, "
                f"{self.p.interval}, {self.y.interval}"
            )

    @property
    def T(self) -> int:
        return self.u.length

    @property
    def n_u(self) -> int:
        return self.u.dim

    @property
    def n_p(self) -> int:
        return self.p.dim

    @property
    def n_y(self) -> int:
        return self.y.dim

    @property
    def w(self) -> Trajectory:
        """Stacked signal ``col(u, y)``."""
        return Trajectory(self.u.t_start, np.hstack([self.u.samples, self.y.samples]))

    @cached_property
    def lifted_samples(self) -> np.ndarray:
        """Samples of ``kron_extend(w, p)``, made once; its Hankel matrices are views."""
        try:
            return kron_extend(self.w, self.p).samples
        except InvalidShape as exc:
            raise InvalidShape(f"p (x) w: {exc}") from None

    def lifted(self, L: int) -> Lifted:
        """The :class:`~lpvdd.analysis.Lifted` factor of ``H_L(col(w, p (x) w))``, made
        once per ``L``; it holds no array with an axis of length ``N`` once ``N >= 4 R``."""
        L = _check_int("order L", L)  # before the memo reads L; _windows bounds it
        if L not in self._lifted:
            from .analysis import _lifted_factor
            self._lifted[L] = _lifted_factor(self.lifted_samples, L, self.n_p, self.n_u)
        return self._lifted[L]

    # -- interchange ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {name: {"t_start": w.t_start, "samples": w.samples.tolist()}
                for name, w in zip("upy", (self.u, self.p, self.y))}

    @classmethod
    def from_dict(cls, data: dict) -> "DataRecord":
        def traj(name: str) -> Trajectory:
            d = data[name]
            try:
                samples = np.asarray(d["samples"], dtype=object)
                for v in samples.flat:
                    _json_number(v, "samples", InvalidShape)
                return Trajectory(d["t_start"], samples)
            except InvalidShape as exc:
                raise InvalidShape(f"{name}: {exc}") from None

        return cls(*map(traj, "upy"))

    @classmethod
    def from_json_bundle(cls, path) -> "DataRecord":
        """Read a record; :class:`InvalidShape` naming ``path`` when it cannot be opened,
        is not UTF-8 or is not a JSON record (a missing key is named too)."""
        return _read(path, lambda text: cls.from_dict(json.loads(text)), InvalidShape)

    @classmethod
    def from_csv_dir(cls, directory) -> "DataRecord":
        d = Path(directory)
        u, p, y = (read_trajectory_csv(d / f"{name}.csv") for name in "upy")
        try:
            return cls(u=u, p=p, y=y)
        except IntervalMismatch as exc:
            raise IntervalMismatch(f"{d}: {exc}") from None

    def to_csv_dir(self, directory) -> None:
        for name in "upy":
            write_trajectory_csv(Path(directory) / f"{name}.csv", getattr(self, name))
