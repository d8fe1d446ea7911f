"""Seeded generation of data records and query trajectories.

Shared by the command-line front end and the test suite so that an
experiment is identified by (model, horizon, seed) alone.  Inputs and
scheduling are drawn i.i.d. uniform from their boxes through the named
streams of :mod:`lpvdd.rng`; the recorded trajectory starts from a zero
initial condition, queries from a random one.  A record is a
:class:`~lpvdd.signals.DataRecord`, made without loading the data modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidShape
from .models import LpvIoModel, LpvSsModel
from .rng import stream
from .signals import DataRecord, Trajectory, _check_int, _check_real
from .simulation import simulate_io, simulate_ss

__all__ = ["Query", "generate_record", "generate_query"]


def _uniform_traj(rng, box_per_dim, T: int) -> Trajectory:
    # row-major draws so that a longer horizon extends a shorter one sample
    # for sample under the same seed
    lo, hi = np.array(box_per_dim, dtype=float).reshape(-1, 2).T
    return Trajectory(1, lo + (hi - lo) * rng.random((T, len(lo))))


def _boxes(box, dim: int, name: str):
    """``dim`` ``(lo, hi)`` pairs from one ``[lo, hi]`` box or one box per channel
    (``None``: ``[-1, 1]``); :class:`InvalidShape` naming ``name`` for a box that is
    not two finite reals with ``lo <= hi``."""
    box = [(-1.0, 1.0)] * dim if box is None else list(box)
    if box and not isinstance(box[0], (list, tuple, np.ndarray)):
        box = [box] * dim
    if len(box) != dim:
        raise DimensionMismatch(f"{name}: need {dim} boxes, got {len(box)}")
    for b in box:
        if not (isinstance(b, (list, tuple, np.ndarray)) and len(b) == 2
                and -np.inf < _check_real(name, b[0]) <= _check_real(name, b[1]) < np.inf):
            raise InvalidShape(f"{name}: bad box {b!r}, expected [lo, hi] with lo <= hi")
    return [tuple(b) for b in box]


def _simulate(model, u: Trajectory, p: Trajectory, init):
    """Outputs and, of a state-space model, the states (``None`` for IO form) from the
    initial condition ``init(shape)``, of the shape of ``y_init`` or of ``x0``."""
    if isinstance(model, LpvIoModel):
        return simulate_io(model, u, p, init((model.n_a, model.n_y))), None
    if isinstance(model, LpvSsModel):
        sim = simulate_ss(model, init((model.n_x,)), u, p)
        return sim.y, sim.x
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _record_and_states(model, T, seed, input_box=None, scheduling_box=None):
    """:func:`generate_record` and the states of its one simulation run (``None`` for
    IO form), which ``lpvdd simulate`` writes to ``x.csv``."""
    T = _check_int("T", T)
    u = _uniform_traj(stream(seed, "input"), _boxes(input_box, model.n_u, "input_box"), T)
    p = _uniform_traj(stream(seed, "scheduling"),
                      _boxes(scheduling_box, model.n_p, "scheduling_box"), T)
    y, x = _simulate(model, u, p, np.zeros)
    return DataRecord(u=u, p=p, y=y), x


def generate_record(model, T: int, seed: int, input_box=None,
                    scheduling_box=None) -> DataRecord:
    """Simulate one measured record of ``T >= 1`` steps from zero initial conditions."""
    return _record_and_states(model, T, seed, input_box, scheduling_box)[0]


@dataclass(frozen=True)
class Query:
    """A fresh behaviour window split into initial and future parts."""

    u_ini: Trajectory
    p_ini: Trajectory
    y_ini: Trajectory
    u_r: Trajectory
    p_r: Trajectory
    y_r_truth: Trajectory


def generate_query(model, T_ini: int, T_r: int, seed: int, input_box=None,
                   scheduling_box=None) -> Query:
    """Simulate a fresh length ``T_ini + T_r`` trajectory and split it.

    The initial condition is drawn uniformly from the hull of the input boxes
    through the ``query_init`` stream, so the query exercises a generic point
    of the behaviour rather than the zero response.  :class:`InvalidShape` names a
    horizon that is not an integer ``>= 1``.
    """
    T_ini, T_r = _check_int("T_ini", T_ini), _check_int("T_r", T_r)
    L = T_ini + T_r
    boxes = _boxes(input_box, model.n_u, "input_box")
    u = _uniform_traj(stream(seed, "query_input"), boxes, L)
    p = _uniform_traj(stream(seed, "query_scheduling"),
                      _boxes(scheduling_box, model.n_p, "scheduling_box"), L)
    lo, hi = min(b[0] for b in boxes), max(b[1] for b in boxes)
    y, _ = _simulate(model, u, p, lambda size: stream(seed, "query_init").uniform(lo, hi, size))
    return Query(u_ini=u.restrict(1, T_ini), p_ini=p.restrict(1, T_ini),
                 y_ini=y.restrict(1, T_ini), u_r=u.restrict(T_ini + 1, L),
                 p_r=p.restrict(T_ini + 1, L), y_r_truth=y.restrict(T_ini + 1, L))
