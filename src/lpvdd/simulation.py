"""Forward simulation, response maps, and initial-state estimation.

The response of a state-space model over a finite window factors into the
affine map

    vec(y) = O_T(p, t1) x1 + T_T(p, t1) vec(u)

where ``O_T`` stacks the step-wise output maps of the free response and
``T_T`` is the lower block-triangular matrix of impulse-response
coefficients.  The symbolic :class:`~lpvdd.coeffs.CoeffMatrix`
constructions (:func:`impulse_coeff`, :func:`toeplitz`, and the
observability matrix from :mod:`lpvdd.analysis`) are their specification.
Numeric code evaluates them along a concrete scheduling trajectory
(:func:`~lpvdd.analysis.obsv_eval`, :func:`toeplitz_eval`) by recursions on
the model's coefficients, each read once over the whole time range through
the one evaluator :meth:`~lpvdd.coeffs.CoeffMatrix.eval_range`.  The two
routes agree because shifting a coefficient commutes with evaluation.  The
simulators read their coefficients the same way and share one affine state
recursion, run in blocks of fixed length: the block transitions and the
states inside the blocks are each one pass vectorised over the blocks, and
only the block starts are chained step by step.

Initial-state estimation solves the window equation above for ``x1`` by a
singular-value least squares solve, reporting the smallest singular value of
the evaluated observability map as the uniqueness diagnostic.
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
from .signals import Trajectory, _check_windows, _finite, vec

if TYPE_CHECKING:
    from .analysis import RankRecord

__all__ = [
    "SimResult",
    "simulate_ss",
    "simulate_io",
    "impulse_coeff",
    "toeplitz",
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
    :class:`InvalidShape` naming it unless they are finite."""
    value = np.asarray(value, dtype=float)
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


# No overflow warnings: a diverging run fails once, where its output Trajectory is made.
@np.errstate(over="ignore", invalid="ignore")
def simulate_ss(
    model: LpvSsModel, x0, u: Trajectory, p: Trajectory
) -> SimResult:
    """Run the state recursion from ``x(t_start) = x0`` over ``u``'s interval."""
    x0 = _initial("x0", x0, (model.n_x,))
    _check_windows(("u", u, model.n_u, None))
    t1, t2 = u.interval
    A, B, C, D = (M.eval_range(p, t1, t2) for M in (model.A, model.B, model.C, model.D))
    Bu = np.einsum("kij,kj->ki", B, u.samples)
    xs = _affine_recursion(A, Bu, x0)
    ys = np.einsum("kij,kj->ki", C, xs[:-1]) + np.einsum("kij,kj->ki", D, u.samples)
    return SimResult(y=Trajectory(t1, ys), x=Trajectory(t1, xs))


@np.errstate(over="ignore", invalid="ignore")  # as in simulate_ss
def simulate_io(model: LpvIoModel, u: Trajectory, p: Trajectory, y_init) -> Trajectory:
    """Solve the IO recursion forward over ``u``'s interval.

    ``y_init`` supplies the first ``n_a`` output samples; the recursion fills
    ``y(k)`` for ``k = t_start + n_a, ..., t_end`` (the unit leading
    coefficient means no linear solve is needed).
    """
    y_init = _initial("y_init", y_init, (model.n_a, model.n_y))
    _check_windows(("u", u, model.n_u, None))
    t1, t2 = u.interval
    T, n_a = u.length, model.n_a
    if T < n_a:
        raise WindowOutOfRange(f"interval of length {T} shorter than n_a={n_a}")
    ys = np.empty((T, model.n_y))
    ys[:n_a] = y_init
    if T == n_a:
        return Trajectory(t1, ys)
    k1, n_y = t1 + n_a, model.n_y
    # companion state z(k) = col(y(k-1), ..., y(k-n_a)):
    # z(k+1) = [[-a_1(k) ... -a_{n_a}(k)], [I 0]] z(k) + col(input terms, 0)
    N = n_a * n_y
    F = np.zeros((T - n_a, N, N))
    F[:, :n_y] = -np.concatenate([m.eval_range(p, k1, t2) for m in model.a_coeffs],
                                 axis=2)
    F[:, n_y:, : N - n_y] = np.eye(N - n_y)
    g = np.zeros((T - n_a, N))
    for lag, b in enumerate(model.b_coeffs, start=1):
        g[:, :n_y] += np.einsum("kij,kj->ki", b.eval_range(p, k1, t2),
                                u.restrict(k1 - lag, t2 - lag).samples)
    ys[n_a:] = _affine_recursion(F, g, y_init[::-1].reshape(-1))[1:, :n_y]
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


def _check_t1(t1: int) -> None:
    """:class:`DimensionMismatch` unless the Toeplitz window ``t1`` is at least 1 step."""
    if t1 < 1:
        raise DimensionMismatch(f"t1 must be >= 1, got {t1}")


def toeplitz(model: LpvSsModel, t1: int) -> CoeffMatrix:
    """Lower block-triangular matrix of impulse-response coefficients.

    Block ``(i, j)`` (1-based, ``i >= j``) is the coefficient ``h_{i-j}``
    forward-shifted ``j - 1`` times, so that evaluation at window start maps
    ``vec(u)`` to the zero-state response ``vec(y)``.
    """
    _check_t1(t1)
    h = [impulse_coeff(model, n) for n in range(t1)]
    zero = CoeffMatrix.zeros(model.n_y, model.n_u, model.n_p)
    rows = []
    for i in range(1, t1 + 1):
        blocks = [h[i - j].shift(j - 1) if i >= j else zero for j in range(1, t1 + 1)]
        rows.append(CoeffMatrix.hstack(blocks))
    return CoeffMatrix.vstack(rows)


@_finite
def toeplitz_eval(model: LpvSsModel, t1: int, p: Trajectory, k: int) -> np.ndarray:
    """Evaluated impulse-response Toeplitz matrix at window start ``k``."""
    _check_t1(t1)
    n_y, n_u = model.n_y, model.n_u
    A = model.A.eval_range(p, k + 1, k + t1 - 2)  # A[i - 1] is A(k + i)
    B = model.B.eval_range(p, k, k + t1 - 1)
    C = model.C.eval_range(p, k + 1, k + t1 - 1)  # C[i - 1] is C(k + i)
    D = model.D.eval_range(p, k, k + t1 - 1)
    out = np.zeros((t1 * n_y, t1 * n_u))
    # carry holds the block columns A(k+i-1) ... A(k+j+1) B(k+j), j < i
    carry = np.zeros((model.n_x, 0))
    for i in range(t1):
        rows = slice(i * n_y, (i + 1) * n_y)
        if i:
            out[rows, : i * n_u] = C[i - 1] @ carry
            if i < t1 - 1:
                carry = A[i - 1] @ carry
        out[rows, i * n_u : (i + 1) * n_u] = D[i]
        carry = np.hstack([carry, B[i]])
    return out


@_finite
def response_map(model: LpvSsModel, x_tilde, u: Trajectory, p: Trajectory) -> np.ndarray:
    """Stacked output ``vec(y)`` of the affine window response map.

    Equals the output of :func:`simulate_ss` started from ``x_tilde`` up to
    round-off.
    """
    from .analysis import obsv_eval
    x_tilde = _initial("x_tilde", x_tilde, (model.n_x,))
    _check_windows(("u", u, model.n_u, None))
    T = u.length
    O = obsv_eval.__wrapped__(model, T, p, u.t_start)  # unchecked: the sum is checked
    Tm = toeplitz_eval.__wrapped__(model, T, p, u.t_start)
    return O @ x_tilde + Tm @ vec(u)


@dataclass(frozen=True)
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

    Solves the window response equation for the initial state by SVD least
    squares.  Raises :class:`RankDeficientObservability` when the window is
    shorter than the lag bound ``n_x``, the safe sufficient choice, or when
    the evaluated observability map is numerically rank deficient,
    :class:`InconsistentTrajectory` when the residual exceeds ``TOL`` and
    :class:`InvalidShape` naming a window off its steps.
    """
    from .analysis import TOL, _lstsq, obsv_eval
    _check_windows(("u_ini", u_ini, model.n_u, None), ("p_ini", p_ini, model.n_p, None),
                   ("y_ini", y_ini, model.n_y, u_ini.interval))
    T_ini = u_ini.length
    if T_ini < model.n_x:
        raise RankDeficientObservability(
            f"window length {T_ini} below lag bound {model.n_x}; "
            "initial state not uniquely determined"
        )
    O = obsv_eval(model, T_ini, p_ini, u_ini.t_start)
    Tm = toeplitz_eval(model, T_ini, p_ini, u_ini.t_start)
    rhs = vec(y_ini) - Tm @ vec(u_ini)
    x_bar, obsv, residual = _lstsq(O, rhs)
    if not obsv.verdict:
        s = obsv.singular_values
        raise RankDeficientObservability(
            f"observability evaluation has rank {obsv.rank} < n_x={model.n_x} "
            f"(sigma_min={s[-1] if s else 0.0:.3e})"
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
    last state of :func:`simulate_ss`, bit for bit (the same coefficients and recursion)."""
    x1 = _initial("x1", x1, (model.n_x,))
    _check_windows(("u_ini", u_ini, model.n_u, None))
    t1, t2 = u_ini.interval
    A = model.A.eval_range(p_ini, t1, t2)
    Bu = np.einsum("kij,kj->ki", model.B.eval_range(p_ini, t1, t2), u_ini.samples)
    return _affine_recursion(A, Bu, x1)[-1]
