"""Data-driven output prediction from one measured trajectory.

Given a single recorded ``(u, p, y)`` sequence of a scheduling-dependent system with
shifted-affine coefficients, the continuation of a fresh query trajectory can be read off
a stacked Hankel system: the measured signals and their Kronecker extensions
``p (x) u``, ``p (x) y`` supply the columns, and block-diagonal matrices built from the
*query* scheduling impose that any column combination is Kronecker-consistent with the
query.  The stacked system (:func:`build_predictor`, the specification; its
:class:`PredictorSystem` holds the four blocks as ``u``, ``pu``, ``y`` and ``py``) is

    [ H_L(u)                          ]       [ vec(u_query) ]
    [ H_L(p (x) u) - P_u H_L(u)       ]  g =  [ 0            ]
    [ H_L(y)                          ]       [ vec(y_query) ]
    [ H_L(p (x) y) - P_y H_L(y)       ]       [ 0             ]

where only the initial portion of ``vec(y_query)`` is known.  Up to a row permutation it
is ``M(p) H``: ``H = H_L(col(w, p (x) w)) = U S V^T`` (rank ``r``) comes from the record
alone and ``M(p)`` is unit lower block-triangular.  A window is a trajectory exactly when
it lies in the span of ``K = M(p) U_r S_r``, that is when the left kernel
``Y = M(p)^-T U[:, r:]`` annihilates it.  :func:`span_membership` reads the window's
distance to ``col(K)`` off ``Y``; :func:`predict` fills in the ``m = n_y T_r`` future
outputs that bring the query window nearest ``col(K)``
(:meth:`~lpvdd.analysis.Lifted.complete`), and the minimum-norm solution ``z`` on the
known rows of ``K`` gives ``g = V_r z``.  ``H`` is factored once
per record and depth (:meth:`DataRecord.lifted`, a :class:`~lpvdd.analysis.Lifted` that
gives ``U``, ``S``, ``K`` and the rank records of ``H`` and of its input rows).  Only its
left side is read, so a wide ``H`` is reduced to the ``R x R`` triangle of its QR first
and no factor has an axis of length ``N``.  A query costs one QR of ``[Y F -b]``
(``R x (d + m + 1)``, ``d = R - r``; all but the query's rows kept on the factor) and one
SVD of the ``d x m`` block ``Q_Y^T F`` of its raw factor, with no work that grows with
``N`` or ``r``: ``g`` is formed the first time it is read, by one pass over a view of the
record's lifted samples.

Uniqueness of the recovered outputs is certified by a margin.  ``K`` has full column
rank ``r``, so a column combination that changes no known row changes the future output
rows; the future outputs are determined by the data exactly when the ``r``-th singular
value of the known rows of ``K`` is positive.  It is at least
``sigma_min(K) sigma_min(Q_Y^T F) >= sigma s_r / (1 + max_k |p(k)|)``, ``F`` the unit
columns of the unknown rows and ``sigma`` the least singular value of ``Q_Y^T F`` (from
the SVD of :func:`~lpvdd.analysis._lstsq`); the margin is that last bound, 0 at rank 0 and
where ``m > d``.  A query is ``ambiguous`` when the record fails the excitation check or
the margin is at most ``margin_tol``; only then does :func:`predict` run the minimum-norm
fit ``z`` on the known rows of ``K``, which fills in the outputs the data do not pin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .analysis import TOL, Lifted, RankRecord, _lstsq
from .errors import InvalidShape
from .signals import (
    DataRecord,
    Trajectory,
    _check_int,
    _check_real,
    _check_windows,
    _windows,
    hankel,
    kron_extend,
    kron_signal,
    sched_block_diag,
)

if TYPE_CHECKING:
    from .models import KernelRep

__all__ = [
    "PredictorSystem",
    "PredictionResult",
    "MembershipResult",
    "LeftNullspace",
    "build_predictor",
    "predict",
    "span_membership",
    "left_nullspace",
]


@dataclass(frozen=True, eq=False)
class PredictorSystem:
    """Stacked Hankel system at a query scheduling window, as its four blocks: ``u`` is
    ``H_L(u)``, ``pu`` is ``H_L(p (x) u) - P_u H_L(u)``, ``y`` is ``H_L(y)`` and ``py``
    is ``H_L(p (x) y) - P_y H_L(y)``.  Each lists its rows one window step at a time,
    so the first ``n_y T_ini`` rows of ``y`` are the outputs of the initial window."""

    u: np.ndarray
    pu: np.ndarray
    y: np.ndarray
    py: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.vstack([self.u, self.pu, self.y, self.py])


def build_predictor(data: DataRecord, p_query: Trajectory) -> PredictorSystem:
    """Assemble the four-block stacked system of depth ``L = p_query.length``.

    Hankel blocks use the measured signals (including measured-scheduling
    Kronecker products); the block-diagonal consistency matrices are built
    from the query scheduling ``p_query``.
    """
    _check_windows(("p_query", p_query, data.n_p, None))
    L = p_query.length
    Hu, Hy = hankel(data.u, L), hankel(data.y, L)
    Pu, Py = sched_block_diag(p_query, data.n_u), sched_block_diag(p_query, data.n_y)
    return PredictorSystem(u=Hu, pu=hankel(kron_signal(data.u, data.p), L) - Pu @ Hu,
                           y=Hy, py=hankel(kron_signal(data.y, data.p), L) - Py @ Hy)


@dataclass(frozen=True)
class PredictionResult:
    """Predicted continuation with solve diagnostics.

    ``verdict`` is ``"ok"`` when the known-row residual is within tolerance
    and the future outputs are uniquely pinned, ``"ambiguous"`` when the
    uniqueness margin or the data excitation collapses, and ``"infeasible"``
    when the query is not consistent with the span of the data.

    ``output_uniqueness_margin`` is the module docstring's lower bound on ``sigma_r`` of
    the known rows of ``K``.  ``diagnostics`` holds the
    :class:`~lpvdd.analysis.RankRecord` of the lifted Hankel matrix (``hankel``) and of its
    input rows (``pe``).  ``g``, the ``N``-long column combination with ``H g`` the lifted
    query window, is formed the first time it is read, so ``==`` does not compare it, from
    the known-row fit that ``_from`` holds or can run: the record's lifted samples, the
    fit's inputs and, where ``predict`` ran it (an ``ambiguous`` query), the fit.
    """

    y_r: Trajectory
    residual: float
    output_uniqueness_margin: float
    verdict: str
    diagnostics: dict = field(default_factory=dict)
    _from: tuple = field(default=(), compare=False, repr=False)
    __hash__ = None  # diagnostics is a dict

    @cached_property
    def g(self) -> np.ndarray:
        """``g = V_r z`` with ``V_r = H^T U_r S_r^-1``; ``H^T`` is a view of the samples."""
        X, fit_from, fitted = self._from
        lifted, z = fit_from[0], (fitted or _known_fit(*fit_from))[1]
        c = lifted.U[:, :z.size] @ (z / lifted.s[:z.size])
        return np.einsum("nk,k->n", _windows(X, lifted.shape[0]), c)

    def to_dict(self) -> dict:
        return {
            "y_r": {"t_start": self.y_r.t_start, "samples": self.y_r.samples.tolist()},
            "g": self.g.tolist(),
            "residual": self.residual,
            "output_uniqueness_margin": self.output_uniqueness_margin,
            "verdict": self.verdict,
            "diagnostics": {key: asdict(value) if isinstance(value, RankRecord) else value
                            for key, value in self.diagnostics.items()},
        }


def predict(
    data: DataRecord,
    u_ini: Trajectory,
    p_ini: Trajectory,
    y_ini: Trajectory,
    u_r: Trajectory,
    p_r: Trajectory,
    tol: float = TOL,
    margin_tol: float = TOL,
) -> PredictionResult:
    """Predict the future outputs of a query trajectory from recorded data.

    The query consists of an initial window ``(u_ini, p_ini, y_ini)`` on the ``T_ini``
    steps of ``u_ini`` that pins the latent initial condition, and the future inputs
    and scheduling ``(u_r, p_r)`` on the ``T_r`` steps right after it (else
    :class:`InvalidShape` names the window).  ``y_r`` has the times of ``u_r``.

    ``T_ini`` must reach the lag of the data-generating system for the
    continuation to be unique, and the record must be long and exciting
    enough for its Hankel span to cover the query; shortfalls surface as the
    ``ambiguous``/``infeasible`` verdicts and in the diagnostics.  ``tol`` and
    ``margin_tol`` are real numbers in ``[0, inf)``, else :class:`InvalidShape` names them.
    """
    for name, value in (("tol", tol), ("margin_tol", margin_tol)):
        if not 0 <= _check_real(name, value) < np.inf:  # NaN fails too
            raise InvalidShape(f"{name} must be in [0, inf), got {value}")
    T_ini, T_r, t, n_u = u_ini.length, u_r.length, u_ini.t_end, data.n_u
    L, ini, r = T_ini + T_r, u_ini.interval, (t + 1, t + T_r)
    _check_windows(("u_ini", u_ini, n_u, None), ("y_ini", y_ini, data.n_y, ini),
                   ("u_r", u_r, n_u, r), ("p_ini", p_ini, data.n_p, ini),
                   ("p_r", p_r, data.n_p, r))

    lifted = data.lifted(L)
    pe, hankel = lifted.pe, lifted.hankel  # hankel: this query's one read of the cut
    p, rank = np.concatenate([p_ini.samples, p_r.samples]), hankel.rank
    w = np.zeros((L, n_u + data.n_y))  # the query window, 0 at the outputs to predict
    w[:, :n_u], w[:T_ini, n_u:] = np.concatenate([u_ini.samples, u_r.samples]), y_ini.samples
    unknown = np.zeros(w.shape, dtype=bool)
    unknown[T_ini:, n_u:] = True
    y, sigma, residual = lifted.complete(p, rank, w, unknown)
    # sigma_min(M(p)) >= 1 / (1 + max_k |p(k)|), summed by hypot: no overflow, no warning
    margin = float(rank and sigma * lifted.s[rank - 1]
                   / (1 + max(math.hypot(*pk) for pk in p.tolist())))
    fit_from, fitted = (lifted, p, rank, w, unknown), ()
    if ambiguous := not pe.verdict or margin <= margin_tol:  # the known-row fit fills in
        K, z, residual = fitted = _known_fit(*fit_from)
        y = K[T_ini:, 0, n_u:] @ z

    warnings = [] if pe.verdict else [f"data not persistently exciting at order {L}: "
                                      f"extended input rank {pe.rank} < {pe.required}"]
    verdict = "ambiguous" if ambiguous else "infeasible" if residual > tol else "ok"
    diagnostics = {"T_ini": T_ini, "T_r": T_r, "L": L, "col_count": lifted.shape[-1],
                   "known_row_count": len(lifted.U) - data.n_y * T_r, "hankel": hankel,
                   "pe": pe, "warnings": warnings}
    return PredictionResult(y_r=Trajectory(u_r.t_start, np.reshape(y, (T_r, -1))),
                            residual=residual, output_uniqueness_margin=margin,
                            verdict=verdict, diagnostics=diagnostics,
                            _from=(data.lifted_samples, fit_from, fitted))


def _known_fit(lifted: Lifted, p: np.ndarray, rank: int, w: np.ndarray, unknown: np.ndarray):
    """``K = M(p) U_r S_r`` and :func:`~lpvdd.analysis._lstsq` of its known rows (all but
    the window's ``unknown``) against those of ``col(w, 0)``: ``(K, z, residual)``."""
    K = lifted.consistent(p, rank)
    known = np.ones(K.shape[:3], dtype=bool)
    known[:, 0] = ~unknown
    Kb = np.zeros(K.shape[:3] + (rank + 1,))  # [A b] is Kb[known]
    Kb[..., :rank], Kb[:, 0, :, rank] = K, w
    z, _, residual = _lstsq(Kb[known])
    return K, z, residual


@dataclass(frozen=True)
class MembershipResult:
    """Span-membership verdict with its least-squares residual."""

    member: bool
    residual: float


def span_membership(
    data: DataRecord,
    w_test: Trajectory,
    p_test: Trajectory,
) -> MembershipResult:
    """Test whether a window lies in the data span at the test scheduling.

    The window ``w_test = col(u, y)`` of length ``L`` is a member when some column
    combination of the measured Hankel blocks reproduces it while satisfying the
    Kronecker consistency constraints built from ``p_test`` on the steps of ``w_test``,
    to a residual of at most ``TOL``: its distance to the span, with no fit
    (:meth:`~lpvdd.analysis.Lifted.complete`), and where ``M(p) U_r S_r`` is rank
    deficient at ``RANK_CUT``, to its full span, not that of its leading directions.
    """
    _check_windows(("w_test", w_test, data.n_u + data.n_y, None),
                   ("p_test", p_test, data.n_p, w_test.interval))
    lifted = data.lifted(w_test.length)
    residual = lifted.complete(p_test.samples, lifted.hankel.rank, w_test.samples,
                               np.zeros(w_test.samples.shape, dtype=bool))[2]
    return MembershipResult(member=residual <= TOL, residual=residual)


@dataclass(frozen=True, eq=False)
class LeftNullspace:
    """Numeric left null space of the extended Hankel matrix.

    Each basis row, read per window position, is a candidate annihilator of
    the behaviour: a degree ``<= L - 1`` polynomial-in-shift row functional
    with shifted-affine coefficients.  ``basis`` has orthonormal rows, ``dimension``
    of them: the ``R`` rows less the rank of ``hankel``, the matrix's rank record.
    """

    basis: np.ndarray
    hankel: RankRecord
    L: int
    n_w: int
    n_p: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def annihilator(self, i: int) -> KernelRep:
        """Basis row ``i``, an integer in ``[0, dimension)``, as a kernel row over ``w``."""
        from .coeffs import CoeffMatrix
        from .models import KernelRep
        if (i := _check_int("i", i, 0)) >= self.dimension:
            raise InvalidShape(f"i must be < {self.dimension}, got {i}")
        blocks = self.basis[i].reshape(self.L, 1 + self.n_p, 1, self.n_w)
        return KernelRep(
            tuple(CoeffMatrix.affine(b[0], b[1:], offset=s) for s, b in enumerate(blocks))
        )

    def max_residual_on(self, w: Trajectory, p: Trajectory) -> float:
        """Largest violation of any basis row on all windows of ``(w, p)``, ``p`` on the
        steps of ``w``; :class:`InvalidShape` names a window off them."""
        _check_windows(("w", w, self.n_w, None), ("p", p, self.n_p, w.interval))
        V = _windows(kron_extend(w, p).samples, self.L)
        return float(np.max(np.abs(self.basis @ V.T), initial=0.0))


def left_nullspace(data: DataRecord, L: int) -> LeftNullspace:
    """Orthonormal basis of the left null space of ``H_L(col(w, p (x) w))``."""
    lifted = data.lifted(L)
    hankel = lifted.hankel
    return LeftNullspace(basis=lifted.U[:, hankel.rank:].T, hankel=hankel, L=lifted.shape[0],
                         n_w=data.n_u + data.n_y, n_p=data.n_p)
