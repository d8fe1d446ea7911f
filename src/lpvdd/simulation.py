"""Forward simulation, response maps, and initial-state estimation.

The response of a state-space model over a finite window factors into the
affine map

    vec(y) = O_T(p, t1) x1 + T_T(p, t1) vec(u)

where ``O_T`` stacks the step-wise output maps of the free response and
``T_T`` is the lower block-triangular matrix of impulse-response
coefficients.  Both objects exist twice here: as symbolic
:class:`~lpvdd.coeffs.CoeffMatrix` constructions (:func:`impulse_coeff`,
:func:`toeplitz`, and the observability matrix from :mod:`lpvdd.analysis`)
and as fast numeric evaluations along a concrete scheduling trajectory
(:func:`obsv_eval`, :func:`toeplitz_eval`).  The two routes agree exactly
because shifting a coefficient commutes with evaluation.

Initial-state estimation solves the window equation above for ``x1`` by a
singular-value least squares solve, reporting the smallest singular value of
the evaluated observability map as the uniqueness diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _min_norm_solve, _rank_factor
from .coeffs import CoeffMatrix
from .errors import (
    DimensionMismatch,
    InconsistentTrajectory,
    RankDeficientObservability,
    WindowOutOfRange,
)
from .models import LpvIoModel, LpvSsModel
from .signals import Trajectory, vec

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
    x: Trajectory | None
    domain: tuple[int, int]


def _check_ss_windows(model: LpvSsModel, u: Trajectory, p: Trajectory) -> None:
    if u.dim != model.n_u:
        raise DimensionMismatch(f"u has dim {u.dim}, model expects n_u={model.n_u}")
    if p.dim != model.n_p:
        raise DimensionMismatch(f"p has dim {p.dim}, model expects n_p={model.n_p}")
    lo, hi = model.coeff_window
    need = (u.t_start + lo, u.t_end + hi)
    if not p.covers(*need):
        raise WindowOutOfRange(
            f"coefficient windows need p on [{need[0]}, {need[1]}], "
            f"have [{p.t_start}, {p.t_end}]"
        )


def simulate_ss(
    model: LpvSsModel, x0, u: Trajectory, p: Trajectory
) -> SimResult:
    """Run the state recursion from ``x(t_start) = x0`` over ``u``'s interval."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.n_x:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, expected {model.n_x}")
    _check_ss_windows(model, u, p)
    t1, t2 = u.interval
    T = u.length
    xs = np.zeros((T + 1, model.n_x))
    ys = np.zeros((T, model.n_y))
    xs[0] = x0
    for i, k in enumerate(range(t1, t2 + 1)):
        Ak = model.A.eval(p, k)
        Bk = model.B.eval(p, k)
        Ck = model.C.eval(p, k)
        Dk = model.D.eval(p, k)
        uk = u.value(k)
        ys[i] = Ck @ xs[i] + Dk @ uk
        xs[i + 1] = Ak @ xs[i] + Bk @ uk
    return SimResult(
        y=Trajectory(t1, ys), x=Trajectory(t1, xs), domain=(t1, t2)
    )


def simulate_io(model: LpvIoModel, u: Trajectory, p: Trajectory, y_init) -> Trajectory:
    """Solve the IO recursion forward over ``u``'s interval.

    ``y_init`` supplies the first ``n_a`` output samples; the recursion fills
    ``y(k)`` for ``k = t_start + n_a, ..., t_end`` (the unit leading
    coefficient means no linear solve is needed).
    """
    if u.dim != model.n_u:
        raise DimensionMismatch(f"u has dim {u.dim}, model expects n_u={model.n_u}")
    if p.dim != model.n_p:
        raise DimensionMismatch(f"p has dim {p.dim}, model expects n_p={model.n_p}")
    y_init = np.asarray(y_init, dtype=float).reshape(-1, model.n_y)
    if y_init.shape[0] != model.n_a:
        raise DimensionMismatch(
            f"y_init has {y_init.shape[0]} samples, expected n_a={model.n_a}"
        )
    t1, t2 = u.interval
    T = u.length
    if T < model.n_a:
        raise WindowOutOfRange(f"interval of length {T} shorter than n_a={model.n_a}")
    if T > model.n_a and not p.covers(t1, t2 - 1):
        # a_i/b_i at step k only read p(k - i), i >= 1
        raise WindowOutOfRange(
            f"recursion needs p on [{t1}, {t2 - 1}], have [{p.t_start}, {p.t_end}]"
        )
    ys = np.zeros((T, model.n_y))
    ys[: model.n_a] = y_init
    for i, k in enumerate(range(t1 + model.n_a, t2 + 1), start=model.n_a):
        acc = np.zeros(model.n_y)
        for lag, a in enumerate(model.a_coeffs, start=1):
            acc -= a.eval(p, k) @ ys[i - lag]
        for lag, b in enumerate(model.b_coeffs, start=1):
            acc += b.eval(p, k) @ u.value(k - lag)
        ys[i] = acc
    return Trajectory(t1, ys)


def impulse_coeff(model: LpvSsModel, n: int) -> CoeffMatrix:
    """n-th impulse-response coefficient function.

    Zero for ``n < 0``, ``D`` for ``n = 0``, and for ``n >= 1`` the product
    of the ``n``-step-ahead output map with the shifted state maps down to
    the injection instant.
    """
    if n < 0:
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
    if t1 < 1:
        raise DimensionMismatch(f"t1 must be >= 1, got {t1}")
    h = [impulse_coeff(model, n) for n in range(t1)]
    zero = CoeffMatrix.zeros(model.n_y, model.n_u, model.n_p)
    rows = []
    for i in range(1, t1 + 1):
        blocks = [h[i - j].shift(j - 1) if i >= j else zero for j in range(1, t1 + 1)]
        rows.append(CoeffMatrix.hstack(blocks))
    return CoeffMatrix.vstack(rows)


def obsv_eval(model: LpvSsModel, n: int, p: Trajectory, k: int) -> np.ndarray:
    """Evaluated ``n``-step observability map at time ``k``.

    Block row ``i`` equals ``C(k+i-1) A(k+i-2) ... A(k)``; computed by the
    recursion directly, which agrees exactly with evaluating the symbolic
    observability matrix because shifts commute with evaluation.
    """
    out = np.zeros((n * model.n_y, model.n_x))
    prod = np.eye(model.n_x)
    for i in range(n):
        out[i * model.n_y : (i + 1) * model.n_y] = model.C.eval(p, k + i) @ prod
        if i < n - 1:
            prod = model.A.eval(p, k + i) @ prod
    return out


def toeplitz_eval(model: LpvSsModel, t1: int, p: Trajectory, k: int) -> np.ndarray:
    """Evaluated impulse-response Toeplitz matrix at window start ``k``."""
    n_y, n_u = model.n_y, model.n_u
    out = np.zeros((t1 * n_y, t1 * n_u))
    for j in range(1, t1 + 1):
        t = k + j - 1  # injection instant of column block j
        out[(j - 1) * n_y : j * n_y, (j - 1) * n_u : j * n_u] = model.D.eval(p, t)
        carry = model.B.eval(p, t)
        for i in range(j + 1, t1 + 1):
            # carry holds A(t+i-j-1) ... A(t+1) B(t)
            out[(i - 1) * n_y : i * n_y, (j - 1) * n_u : j * n_u] = (
                model.C.eval(p, t + i - j) @ carry
            )
            if i < t1:
                carry = model.A.eval(p, t + i - j) @ carry
    return out


def response_map(model: LpvSsModel, x_tilde, u: Trajectory, p: Trajectory) -> np.ndarray:
    """Stacked output ``vec(y)`` of the affine window response map.

    Equals the output of :func:`simulate_ss` started from ``x_tilde`` up to
    round-off.
    """
    x_tilde = np.asarray(x_tilde, dtype=float).reshape(-1)
    if x_tilde.shape[0] != model.n_x:
        raise DimensionMismatch(
            f"x_tilde has length {x_tilde.shape[0]}, expected {model.n_x}"
        )
    _check_ss_windows(model, u, p)
    T = u.length
    O = obsv_eval(model, T, p, u.t_start)
    Tm = toeplitz_eval(model, T, p, u.t_start)
    return O @ x_tilde + Tm @ vec(u)


@dataclass(frozen=True)
class InitialStateEstimate:
    """Least-squares initial state with its uniqueness diagnostics."""

    x: np.ndarray
    residual: float
    sigma_min: float
    rank: int


def estimate_initial_state(
    model: LpvSsModel,
    u_ini: Trajectory,
    p_ini: Trajectory,
    y_ini: Trajectory,
    tol: float = 1e-7,
    lag_bound: int | None = None,
    rank_rtol: float = 1e-9,
) -> InitialStateEstimate:
    """Recover ``x(t_start)`` from an initial window of the trajectory.

    Solves the window response equation for the initial state by SVD least
    squares.  Raises :class:`RankDeficientObservability` when the window is
    shorter than the lag bound (default ``n_x``, the safe sufficient choice;
    pass a smaller known lag explicitly to override) or when the evaluated
    observability map is numerically rank deficient, and
    :class:`InconsistentTrajectory` when the residual exceeds ``tol``.
    """
    if u_ini.interval != y_ini.interval:
        raise DimensionMismatch(
            f"u_ini and y_ini intervals differ: {u_ini.interval} vs {y_ini.interval}"
        )
    T_ini = u_ini.length
    bound = model.n_x if lag_bound is None else lag_bound
    if T_ini < bound:
        raise RankDeficientObservability(
            f"window length {T_ini} below lag bound {bound}; "
            "initial state not uniquely determined"
        )
    O = obsv_eval(model, T_ini, p_ini, u_ini.t_start)
    Tm = toeplitz_eval(model, T_ini, p_ini, u_ini.t_start)
    rhs = vec(y_ini) - Tm @ vec(u_ini)
    U, s, Vt, rank = _rank_factor(O, rank_rtol)
    sigma_min = float(s[-1]) if s.size else 0.0
    if rank < model.n_x:
        raise RankDeficientObservability(
            f"observability evaluation has rank {rank} < n_x={model.n_x} "
            f"(sigma_min={sigma_min:.3e})"
        )
    x_bar = _min_norm_solve(U, s, Vt, rank, rhs)
    residual = float(np.linalg.norm(O @ x_bar - rhs))
    if residual > tol:
        raise InconsistentTrajectory(
            f"initial window residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    return InitialStateEstimate(x=x_bar, residual=residual, sigma_min=sigma_min, rank=rank)


def propagate_state(
    model: LpvSsModel, x1, u_ini: Trajectory, p_ini: Trajectory
) -> np.ndarray:
    """State ``x(t_end + 1)`` reached from ``x(t_start) = x1`` under the window.

    Computed from the product form: the state transition product applied to
    ``x1`` plus, for every input instant, the downstream state-map product
    applied to the injected input.  Matches the recursive simulator exactly.
    """
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if x1.shape[0] != model.n_x:
        raise DimensionMismatch(f"x1 has length {x1.shape[0]}, expected {model.n_x}")
    _check_ss_windows(model, u_ini, p_ini)
    t1, t2 = u_ini.interval
    # suffix[j] = A(t2) A(t2-1) ... A(t1+j)  built backwards
    acc = np.zeros(model.n_x)
    prod = np.eye(model.n_x)
    for k in range(t2, t1 - 1, -1):
        acc += prod @ model.B.eval(p_ini, k) @ u_ini.value(k)
        prod = prod @ model.A.eval(p_ini, k)
    return prod @ x1 + acc
