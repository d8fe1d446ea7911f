"""Forward simulation, response maps, and initial-state estimation.

The response of a state-space model over a finite window factors into the
affine map

    vec(y) = O_T(p, t1) x1 + T_T(p, t1) vec(u)

where ``O_T`` stacks the step-wise output maps of the free response and
``T_T`` is the lower block-triangular matrix of impulse-response
coefficients.  The symbolic :class:`~lpvdd.coeffs.CoeffMatrix`
constructions (:func:`impulse_coeff`, :func:`toeplitz`, and the
observability matrix from :mod:`lpvdd.analysis`) are their specification.
Numeric code evaluates ``[O_T | T_T]`` along a concrete scheduling trajectory by
one recursion on the model's coefficients, each read once over the window through
:meth:`~lpvdd.coeffs.CoeffMatrix.eval_range`; :func:`obsv_eval`, :func:`toeplitz_eval`
and :func:`response_map` read it.  The two routes agree because shifting a
coefficient commutes with evaluation.  The simulators read their coefficients the
same way and run one affine state recursion, an IO model on its state-space
``realization``, in blocks of fixed length: the block transitions and the states
inside the blocks are each one pass vectorised over the blocks, and only the block
starts are chained step by step.

Initial-state estimation solves the window equation above for ``x1`` by the one
least-squares solve of :mod:`lpvdd.analysis` on one evaluation of ``[O_T | T_T]``,
reporting the rank record of its observability part as the uniqueness diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coeffs import CoeffMatrix
from .errors import (
    DimensionMismatch,
    InconsistentTrajectory,
    InvalidShape,
    RankDeficientObservability,
    WindowOutOfRange,
)
from .models import LpvIoModel, LpvSsModel
from .signals import Trajectory, _check_int, _check_reals, _check_windows, _finite, vec

if TYPE_CHECKING:
    from .analysis import RankRecord

__all__ = [
    "SimResult",
    "simulate_ss",
    "simulate_io",
    "impulse_coeff",
    "toeplitz",
    "obsv_eval",
    "toeplitz_eval",
    "response_map",
    "InitialStateEstimate",
    "estimate_initial_state",
    "propagate_state",
]


@dataclass(frozen=True)
class SimResult:
    """Simulation output: ``y`` over the requested interval, ``x`` one step longer."""

    y: Trajectory
    x: Trajectory


def _initial(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """The initial condition ``value`` as a float array of ``shape``:
    :class:`DimensionMismatch` naming it unless it has that many entries,
    :class:`InvalidShape` naming it unless they are finite reals."""
    value = _check_reals(name, value)
    if value.size != math.prod(shape):
        raise DimensionMismatch(f"{name} has {value.size} entries, expected {shape}")
    if not np.isfinite(value).all():
        raise InvalidShape(f"{name} has a non-finite entry")
    return value.reshape(shape)


# Blocks have a fixed length so that each state is computed by the same
# operations at any horizon: a record is bit for bit a prefix of a longer one
# under the same seed.  Against the per-step loop (one BLAS thread, 2-core
# x86-64 VM, n = 2 and 5) 16-step blocks take 0.5 of its time at T = 70 and
# 0.12-0.2 at T = 1000-4000, but 1.4-1.7 times it at T = 16-20; horizons
# under a block run as one short block.  The block products cost O(n^3) a
# step against the loop's O(n^2): at T = 1000 they take about 1.8 times its
# time at n = 24 and 2.2 at n = 32.
_BLOCK = 16


def _affine_recursion(A, b, x0) -> np.ndarray:
    """States ``x(0..T)`` of ``x(k+1) = A[k] x(k) + b[k]`` from ``x(0) = x0``.

    On the homogeneous state ``col(x, 1)``, in blocks of ``_BLOCK`` states:
    one pass vectorised over the blocks forms their transitions, a walk
    chains the block starts and a second pass fills the blocks, about
    ``2 _BLOCK + T / _BLOCK`` Python steps in all.  Equals the plain
    per-step loop up to rounding.
    """
    T, n = b.shape
    m = min(_BLOCK, T + 1)
    nb = T // m + 1
    M = np.zeros((nb * m, n + 1, n + 1))  # steps past T are zero and unused
    M[:T, :n, :n] = A
    M[:T, :n, n] = b
    M[:, n, n] = 1.0
    M = M.reshape(nb, m, n + 1, n + 1)
    X = np.empty((nb, m, n + 1, 1))  # X[c, j] is the state at step c m + j
    X[0, 0, :n, 0] = x0
    X[0, 0, n] = 1.0
    if nb > 1:
        P = M[:-1, 0]
        for j in range(1, m):
            P = M[:-1, j] @ P
        for c in range(nb - 1):
            X[c + 1, 0] = P[c] @ X[c, 0]
    for j in range(min(m - 1, T)):
        np.matmul(M[:, j], X[:, j], out=X[:, j + 1])
    return X.reshape(-1, n + 1)[: T + 1, :n]


def _states(model: LpvSsModel, x0, u: Trajectory, p: Trajectory, names=("x0", "u")):
    """States ``x(t_start .. t_end + 1)`` from ``x(t_start) = x0`` under ``u``: the one state
    pass of :func:`simulate_ss` and :func:`propagate_state`, whose errors name ``x0`` and
    ``u`` by ``names``."""
    x0 = _initial(names[0], x0, (model.n_x,))
    _check_windows((names[1], u, model.n_u, None))
    A, B = (M.eval_range(p, *u.interval) for M in (model.A, model.B))
    return _affine_recursion(A, np.einsum("kij,kj->ki", B, u.samples), x0)


# No overflow warnings: a diverging run fails once, where its output Trajectory is made.
@np.errstate(over="ignore", invalid="ignore")
def simulate_ss(
    model: LpvSsModel, x0, u: Trajectory, p: Trajectory
) -> SimResult:
    """Run the state recursion from ``x(t_start) = x0`` over ``u``'s interval."""
    xs = _states(model, x0, u, p)
    C, D = (M.eval_range(p, *u.interval) for M in (model.C, model.D))
    ys = np.einsum("kij,kj->ki", C, xs[:-1]) + np.einsum("kij,kj->ki", D, u.samples)
    return SimResult(y=Trajectory(u.t_start, ys), x=Trajectory(u.t_start, xs))


@np.errstate(over="ignore", invalid="ignore")  # as in simulate_ss
def simulate_io(model: LpvIoModel, u: Trajectory, p: Trajectory, y_init) -> Trajectory:
    """Run the IO model's ``realization`` over ``u``'s interval, reading ``p`` on
    ``[t_start, t_end - 1]``.  ``y_init`` gives the first ``n_a`` outputs: ``n_a`` deadbeat
    steps ``x(k+1) = A(k) x^(k) + B(k) u(k)``, ``x^(k)`` being ``x(k)`` with its first
    block set to ``y_init[k]``, map them to the state at ``t_start + n_a``."""
    y_init = _initial("y_init", y_init, (model.n_a, model.n_y))
    _check_windows(("u", u, model.n_u, None))
    t1, t2 = u.interval
    T, n_a, n_y = u.length, model.n_a, model.n_y
    if T < n_a:
        raise WindowOutOfRange(f"interval of length {T} shorter than n_a={n_a}")
    ss = model.realization
    A = ss.A.eval_range(p, t1, t2 - 1)
    b = np.einsum("kij,kj->ki", ss.B.eval_range(p, t1, t2 - 1), u.samples[:-1])
    # a deadbeat step reads y_init for x_1: that block column of A moves into b
    b[:n_a] += np.einsum("kij,kj->ki", A[:n_a, :, :n_y], y_init[: T - 1])
    A[:n_a, :, :n_y] = 0.0
    ys = _affine_recursion(A, b, np.zeros(ss.n_x))[:, :n_y]
    ys[:n_a] = y_init
    return Trajectory(t1, ys)


def impulse_coeff(model: LpvSsModel, n: int) -> CoeffMatrix:
    """n-th impulse-response coefficient function.

    Zero for ``n < 0``, ``D`` for ``n = 0``, and for ``n >= 1`` the product
    of the ``n``-step-ahead output map with the shifted state maps down to
    the injection instant.
    """
    if (n := _check_int("n", n, None)) < 0:
        return CoeffMatrix.zeros(model.n_y, model.n_u, model.n_p)
    if n == 0:
        return model.D
    acc = model.C.shift(n)
    for j in range(n - 1, 0, -1):
        acc = acc @ model.A.shift(j)
    return acc @ model.B


def toeplitz(model: LpvSsModel, t1: int) -> CoeffMatrix:
    """Lower block-triangular matrix of impulse-response coefficients.

    Block ``(i, j)`` (1-based, ``i >= j``) is the coefficient ``h_{i-j}``
    forward-shifted ``j - 1`` times, so that evaluation at window start maps
    ``vec(u)`` to the zero-state response ``vec(y)``.
    """
    t1 = _check_int("t1", t1)
    h = [impulse_coeff(model, n) for n in range(t1)]
    zero = CoeffMatrix.zeros(model.n_y, model.n_u, model.n_p)
    rows = []
    for i in range(1, t1 + 1):
        blocks = [h[i - j].shift(j - 1) if i >= j else zero for j in range(1, t1 + 1)]
        rows.append(CoeffMatrix.hstack(blocks))
    return CoeffMatrix.vstack(rows)


def _window(model: LpvSsModel, T: int, p: Trajectory, k: int, inputs=True) -> np.ndarray:
    """``[O_T | T_T]`` at window start ``k`` (only ``O_T`` with no ``inputs``), unchecked:
    it maps ``col(x(k), vec(u))`` to ``vec(y)``, and the carry ``X``, ``[I | 0]`` at
    first, maps it to the state at ``k + i``.  Reads ``A`` on ``[k, k+T-2]`` and ``C`` on
    ``[k, k+T-1]``, and with ``inputs`` ``B`` and ``D`` on the same steps."""
    n_x, n_y, n_u = model.n_x, model.n_y, model.n_u if inputs else 0
    A, C = model.A.eval_range(p, k, k + T - 2), model.C.eval_range(p, k, k + T - 1)
    B, D = ((model.B.eval_range(p, k, k + T - 2), model.D.eval_range(p, k, k + T - 1))
            if inputs else (np.zeros((T, n_x, 0)), np.zeros((T, n_y, 0))))
    out = np.zeros((T * n_y, n_x + T * n_u))
    X = np.eye(n_x, n_x + T * n_u)
    for i in range(T):
        rows, j = slice(i * n_y, (i + 1) * n_y), n_x + i * n_u  # j: the columns of u(k+i)
        out[rows, :j] = C[i] @ X[:, :j]
        out[rows, j : j + n_u] = D[i]
        if i < T - 1:
            X[:, :j] = A[i] @ X[:, :j]
            X[:, j : j + n_u] = B[i]
    return out


@_finite
def obsv_eval(model: LpvSsModel, n: int, p: Trajectory, k: int) -> np.ndarray:
    """Evaluated ``n``-step observability map at time ``k``, the window map's first
    ``n_x`` columns: block row ``i`` is ``C(k+i-1) A(k+i-2) ... A(k)``."""
    return _window(model, _check_int("n", n), p, _check_int("k", k, None), inputs=False)


@_finite
def toeplitz_eval(model: LpvSsModel, t1: int, p: Trajectory, k: int) -> np.ndarray:
    """Evaluated impulse-response Toeplitz matrix at ``k``: the window map past ``n_x``."""
    return _window(model, _check_int("t1", t1), p, _check_int("k", k, None))[:, model.n_x :]


@_finite
def response_map(model: LpvSsModel, x_tilde, u: Trajectory, p: Trajectory) -> np.ndarray:
    """Stacked output ``vec(y)`` of the affine window response map.

    Equals the output of :func:`simulate_ss` started from ``x_tilde`` up to
    round-off.
    """
    x_tilde = _initial("x_tilde", x_tilde, (model.n_x,))
    _check_windows(("u", u, model.n_u, None))
    return _window(model, u.length, p, u.t_start) @ np.concatenate([x_tilde, vec(u)])


@dataclass(frozen=True, eq=False)
class InitialStateEstimate:
    """Least-squares initial state, its residual and the rank record of its
    observability map against ``n_x``: the state is unique when it holds."""

    x: np.ndarray
    residual: float
    observability: RankRecord


def estimate_initial_state(
    model: LpvSsModel,
    u_ini: Trajectory,
    p_ini: Trajectory,
    y_ini: Trajectory,
) -> InitialStateEstimate:
    """Recover ``x(t_start)`` from an initial window of the trajectory.

    Solves the window response equation for the initial state by least
    squares.  Raises :class:`RankDeficientObservability` when the window is
    shorter than the lag bound ``n_x``, the safe sufficient choice, or when
    the evaluated observability map is numerically rank deficient,
    :class:`InconsistentTrajectory` when the residual exceeds ``TOL`` and
    :class:`InvalidShape` naming a window off its steps.
    """
    from .analysis import TOL, _lstsq, _rank
    _check_windows(("u_ini", u_ini, model.n_u, None), ("p_ini", p_ini, model.n_p, None),
                   ("y_ini", y_ini, model.n_y, u_ini.interval))
    T_ini, n_x = u_ini.length, model.n_x
    if T_ini < n_x:
        raise RankDeficientObservability(
            f"window length {T_ini} below lag bound {n_x}; "
            "initial state not uniquely determined"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # as in the window maps
        W = _window(model, T_ini, p_ini, u_ini.t_start)
        Ab = np.column_stack([W[:, :n_x], vec(y_ini) - W[:, n_x:] @ vec(u_ini)])
    if not np.isfinite(Ab).all():
        raise InvalidShape("estimate_initial_state: the model diverges on this window")
    x_bar, s, residual = _lstsq(Ab)
    if not (obsv := _rank(s, n_x)).verdict:
        raise RankDeficientObservability(
            f"observability evaluation has rank {obsv.rank} < n_x={n_x} "
            f"(sigma_min={s[-1] if s.size else 0.0:.3e})"
        )
    if residual > TOL:
        raise InconsistentTrajectory(
            f"initial window residual {residual:.3e} exceeds tol {TOL:.3e}"
        )
    return InitialStateEstimate(x=x_bar, residual=residual, observability=obsv)


@_finite
def propagate_state(
    model: LpvSsModel, x1, u_ini: Trajectory, p_ini: Trajectory
) -> np.ndarray:
    """State ``x(t_end + 1)`` reached from ``x(t_start) = x1`` under the window: the
    last state of :func:`simulate_ss`, bit for bit: both run the one state pass."""
    return _states(model, x1, u_ini, p_ini, ("x1", "u_ini"))[-1]
