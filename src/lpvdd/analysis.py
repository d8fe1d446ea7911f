"""Structural observability/reachability, minimality, and excitation checks.

"Structural" rank properties hold in the generic (almost-everywhere) sense
over scheduling trajectories.  They are decided here by randomized sampling:
the coefficient matrix function is evaluated at a batch of independently
drawn scheduling windows and the numeric rank is inspected at each draw.  A
generic full-rank property fails only on a measure-zero set of draws, so the
verdict demands success on every trial; a single structured failure is worth
surfacing rather than averaging away.  All trials run as one stack: one
draw, one evaluation with a leading trial axis, one SVD per map.

The symbolic observability and reachability matrices (:func:`obsv_matrix`,
:func:`reach_matrix`) are the specification; their entries have up to
``(1 + n_p)^(n - 1)`` terms.  Along one given trajectory the observability map
is a window map of :mod:`lpvdd.simulation` (:func:`~lpvdd.simulation.obsv_eval`).
:func:`minimality_report` evaluates the same maps by their numeric recursion at
the same drawn windows, since shifting a coefficient commutes with evaluating
it.  Both maps run through one recursion: the running ``A(k)`` products of the
observability trials and of the (transposed) reachability trials form one
stack, and each map then takes its own blocks and its one SVD.  The running
product, then each block row (observability) or block column (reachability),
is put at unit norm before the cut.  That keeps the rank and stops the decay of
the products in stable models of order >= 24 from reading as rank loss (Paige,
IEEE TAC 1981).  A product that cancels to below the cut, relative to its
factors, is set to zero instead: its remainder is rounding, and scaled up it
would read as rank.  The evaluated ``C``, ``A`` and ``B`` are first scaled, each by
a power of two, to a largest entry below 1: that is exact, and no norm over- or
underflows, so the report is the same at every scale of the coefficients.

Persistence of excitation is checked for the shifted-affine dependency
class: the scheduling-extended input ``col(u, p (x) u)`` must produce a
Hankel matrix of full row rank ``(1 + n_p) n_u L``.

Every rank decision reports one :class:`RankRecord`: the rank, the count it is
judged against, the singular values it cut and the ``RANK_CUT`` it read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .rng import stream
from .signals import Trajectory, _check_int, _check_windows, _windows, kron_extend

if TYPE_CHECKING:
    from .coeffs import CoeffMatrix
    from .models import LpvSsModel

__all__ = [
    "RankRecord",
    "Lifted",
    "StructuralRankReport",
    "MinimalityReport",
    "obsv_matrix",
    "reach_matrix",
    "structural_rank",
    "minimality_report",
    "check_pe",
]


# The relative rank cut of every rank decision: a singular value counts when it
# exceeds RANK_CUT times the largest.  Read at call time, never bound as a default.
RANK_CUT = 1e-9
# Scheduling windows drawn per structural rank test.
TRIALS = 20
# The residual tolerance of span_membership and estimate_initial_state, and the
# default of predict's tol and margin_tol.
TOL = 1e-7


def _cut(s: np.ndarray):
    """Count of the singular values above ``RANK_CUT`` times the first, on the last axis."""
    if s.ndim == 1 and len(s):
        return int(np.count_nonzero(s > RANK_CUT * s[0]))
    return (s > RANK_CUT * s[..., :1]).sum(axis=-1).tolist()


@dataclass(frozen=True)
class RankRecord:
    """One rank decision: ``rank`` of the ``singular_values`` exceed ``cut`` times the
    first, and the decision holds when ``rank`` reaches ``required``.  ``required`` is
    the row count of an input Hankel matrix (excitation), ``n_x`` (a structural map),
    the row count ``R`` of the lifted Hankel matrix or the column count of a
    least-squares solve."""

    rank: int
    required: int
    singular_values: tuple[float, ...]
    cut: float

    @property
    def verdict(self) -> bool:
        return self.rank >= self.required


def _rank(s: np.ndarray, required: int, values: tuple = ()) -> RankRecord:
    """:class:`RankRecord` of the singular values ``s`` (``values``, their tuple if made
    already), cut at the ``RANK_CUT`` of now."""
    return RankRecord(_cut(s), required, values or tuple(s.tolist()), RANK_CUT)


def _lstsq(Ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-norm ``z`` minimising ``|A z - b|`` for ``Ab = [A b]``, the singular values
    ``s`` of ``A`` and the residual ``|A z - b|`` (summed by ``hypot``: no overflow), from
    one thin SVD ``A = U S V^T`` at every shape and rank: ``z = V_k S_k^-1 U_k^T b``, ``k``
    the rank cut on ``s`` (Golub and Van Loan, Matrix Computations, section 5.5)."""
    A, b = Ab[:, :-1], Ab[:, -1]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    z = Vt[:(k := _cut(s))].T @ ((U[:, :k].T @ b) / s[:k])
    return z, s, math.hypot(*(A @ z - b))


# Windows per QR block of _triangle: every benchmark record fits one, the direct QR.
BLOCK = 4096


def _triangle(V: np.ndarray) -> np.ndarray:
    """``R^T`` of ``V = Q R`` for windows ``V`` (``N x R``) at least four per column,
    else (the QR then costing more than it saves) the Hankel matrix ``V^T`` itself.
    ``R^T`` has the singular values and left singular vectors of ``V^T``, keeps its zero
    rows zero and has no long axis (Chan's R-SVD, ACM TOMS 8(1), 1982).  ``R`` is the QR
    of the stacked triangles of blocks of ``BLOCK`` windows (TSQR: Demmel, Grigori,
    Hoemmen and Langou, SIAM J. Sci. Comput. 34(1), 2012)."""
    if len(V) < 4 * V.shape[1]:
        return V.T
    blocks = [np.linalg.qr(V[i:i + BLOCK], mode="r") for i in range(0, len(V), BLOCK)]
    return (blocks[0] if len(blocks) == 1 else np.linalg.qr(np.vstack(blocks), mode="r")).T


@dataclass(frozen=True, eq=False)
class Lifted:
    """Factor of ``H = H_L(col(w, p (x) w))``: all that is read of the lifted Hankel.

    ``shape`` is the ``(L, 1 + n_p, n_w, N)`` block shape of ``H``, the row layout of
    :func:`kron_extend`: window step, then ``w`` (0) or ``p_j (x) w`` (``1 + j``), then
    the channel of ``w``.  ``U`` (``R x R``) is its complete left basis (``U_r`` spans its
    image, ``U[:, r:]`` its left kernel, read by :meth:`complete`), ``s`` its singular
    values and ``values`` their tuple.  ``inputs`` are its ``u``, ``p (x) u`` rows after
    :func:`_triangle`: they have the singular values of the input Hankel matrix, and
    exactly-zero inputs stay exactly zero in them, where ``U S`` would make them rounding.
    """

    shape: tuple[int, int, int, int]
    U: np.ndarray
    s: np.ndarray
    values: tuple[float, ...]
    inputs: np.ndarray
    _templates: dict = field(default_factory=dict, init=False, repr=False)  # kept by complete

    @property
    def hankel(self) -> RankRecord:
        """:class:`RankRecord` of ``s`` against the ``R`` rows of ``H``, at the
        ``RANK_CUT`` of each read."""
        return _rank(self.s, len(self.U), self.values)

    @cached_property
    def _input_s(self) -> tuple[np.ndarray, tuple[float, ...]]:
        """Singular values of ``inputs``, and their tuple, computed on first read."""
        s = np.linalg.svd(self.inputs, compute_uv=False)
        return s, tuple(s.tolist())

    @property
    def pe(self) -> RankRecord:
        """Excitation record of the input rows, at the ``RANK_CUT`` of each read."""
        return _rank(self._input_s[0], len(self.inputs), self._input_s[1])

    def consistent(self, p: np.ndarray, rank: int) -> np.ndarray:
        """``M(p) U_r S_r`` in the row blocks of ``H``, for the ``(L, n_p)`` scheduling
        samples ``p`` and the rank of the caller's one read of :attr:`hankel`: each
        ``p (x) w`` row minus ``p(k)`` times its ``w`` row.  ``M(p)`` is unit lower
        block-triangular."""
        K = (self.U[:, :rank] * self.s[:rank]).reshape(self.shape[:3] + (rank,))
        K[:, 1:] -= p[:, :, None, None] * K[:, :1]
        return K

    def complete(self, p: np.ndarray, rank: int, w: np.ndarray, unknown: np.ndarray):
        """``(x, sigma, residual)`` of the ``m`` samples ``x`` under the mask ``unknown`` of
        the ``(L, n_w)`` window ``w`` (0 there) that bring ``b = col(w, 0)`` nearest the
        span of :meth:`consistent`.  ``M(p) = I - E``, ``E^2 = 0``, so
        ``Y = M(p)^-T U[:, rank:]`` (each ``w`` row plus ``p_j(k)`` times its ``p_j (x) w``
        row) spans its complement, and ``b + F x`` (``F``: a unit column per unknown row)
        lies at ``|Q_Y^T (b + F x)|``.  The QR ``[Y F -b] = Q R`` gives ``Q_Y^T [F -b]`` as
        ``R[:d, d:]``, ``d = R - rank``, above the diagonal of the raw QR, where the SVD of
        :func:`_lstsq` fits ``x``: ``sigma`` is the ``sigma_min`` of ``Q_Y^T F``, 0 if
        ``m > d``, and a window known in full (``m = 0``) needs no fit.  By the CS
        decomposition it is also that of the known rows of an orthonormal basis of the span,
        so ``sigma s_rank / (1 + max_k |p(k)|)`` bounds ``sigma_rank`` of the known rows of
        :meth:`consistent` from below (:func:`~lpvdd.prediction.predict`'s margin).  All of
        ``[Y F -b]`` but ``-b`` and the ``w`` rows of ``Y`` is kept per rank and mask."""
        shape, d, m = self.shape[:3], len(self.U) - rank, int(np.count_nonzero(unknown))
        if m > d:  # Q_Y^T F is d x m, of rank below m
            return None, 0.0, math.inf
        if (Yb := self._templates.get(key := (rank, unknown.tobytes()))) is None:
            Yb = self._templates[key] = np.zeros(shape + (d + m + 1,))
            Yb[..., :d] = self.U[:, rank:].reshape(shape + (d,))
            Yb[:, 0, :, d:d + m][unknown] = np.eye(m)
            Yb.setflags(write=False)
        Yb = Yb.copy()
        Yb[:, 0, :, :d] += np.einsum("lj,ljwd->lwd", p, Yb[:, 1:, :, :d])
        Yb[:, 0, :, -1] = -w  # min |Q_Y^T F x - Q_Y^T (-b)|; negation is exact
        G = np.linalg.qr(Yb.reshape(len(self.U), -1), mode="raw")[0][d:, :d].T
        if not m:
            return np.zeros(0), 0.0, math.hypot(*G[:, 0])
        x, s, residual = _lstsq(G)
        return x, float(s[-1]), residual


def _lifted_factor(X: np.ndarray, L: int, n_p: int, n_u: int) -> Lifted:
    """:class:`Lifted` of ``H_L`` of the samples ``X`` of ``kron_extend(w, p)``, ``u``
    the first ``n_u`` channels of ``w``; its arrays are read-only."""
    F = _triangle(_windows(X, L))
    U, s, _ = np.linalg.svd(F, full_matrices=F.shape[0] > F.shape[1])
    shape = (L, 1 + n_p, X.shape[1] // (1 + n_p), len(X) - L + 1)
    inputs = F.reshape(shape[:3] + (-1,))[:, :, :n_u].reshape(-1, F.shape[-1])
    for a in (U, s, inputs):
        a.setflags(write=False)
    return Lifted(shape, U, s, tuple(s.tolist()), inputs)


def obsv_matrix(model: LpvSsModel, n: int) -> CoeffMatrix:
    """n-step observability matrix function: block rows ``o_1, ..., o_n``.

    ``o_1 = C`` and ``o_{i+1}`` is the forward-shifted ``o_i`` composed with
    the state map, so block ``i`` evaluated at ``k`` reads the output map at
    ``k + i - 1`` back through the state transitions.
    """
    from .coeffs import CoeffMatrix
    blocks = [model.C]
    for _ in range(_check_int("n", n) - 1):
        blocks.append(blocks[-1].shift(1) @ model.A)
    return CoeffMatrix.vstack(blocks)


def reach_matrix(model: LpvSsModel, n: int) -> CoeffMatrix:
    """n-step reachability matrix function: block columns ``r_1, ..., r_n``.

    ``r_1 = B`` and ``r_{i+1}`` composes the state map with the
    backward-shifted ``r_i``.
    """
    from .coeffs import CoeffMatrix
    blocks = [model.B]
    for _ in range(_check_int("n", n) - 1):
        blocks.append(model.A @ blocks[-1].shift(-1))
    return CoeffMatrix.hstack(blocks)


def _unit(X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Each matrix of ``X = F G``, ``|G|_2 <= 1``, at unit Frobenius norm, or zero where
    its norm is at most ``RANK_CUT |F|``: a product that cancels below the cut is rounding."""
    norm = np.sqrt(np.einsum("...ij,...ij->...", X, X))[..., None, None]
    scale = np.sqrt(np.einsum("...ij,...ij->...", F, F))[..., None, None]
    return X * ((norm > RANK_CUT * scale) / np.where(norm > 0, norm, 1.0))


def _shifted_hull(*parts) -> tuple[int, int]:
    """Hull of ``M.window`` shifted by every ``d`` in ``shifts``, over the
    ``(M, shifts)`` pairs; ``(0, 0)`` when no ``M`` depends on scheduling.

    This is the window of a product of shifted copies of the ``M``s unless
    terms cancel exactly."""
    spans = [(w[0] + d, w[1] + d) for M, shifts in parts if (w := M.window) for d in shifts]
    if not spans:
        return (0, 0)
    return (min(s[0] for s in spans), max(s[1] for s in spans))


@dataclass(frozen=True)
class StructuralRankReport:
    """Outcome of a randomized functional-rank test: ``passes`` of the ``trials`` reach
    the required rank, and ``weakest`` is the :class:`RankRecord` of the first trial of
    least rank, the one that decides the verdict."""

    trials: int
    passes: int
    weakest: RankRecord

    @property
    def verdict(self) -> bool:
        return self.passes == self.trials


def _draw(window: tuple[int, int], n_p: int, seed: int) -> tuple[np.ndarray, int]:
    """The ``TRIALS`` scheduling windows ``P`` of a structural test, drawn in one call
    (the values of one draw per trial), and the row of ``P`` that is time 0."""
    lo, hi = window
    return stream(seed, "trials").uniform(-1.0, 1.0, (TRIALS, hi - lo + 1, n_p)), -lo


def _report(maps: np.ndarray, required: int) -> StructuralRankReport:
    """:class:`StructuralRankReport` of the ``TRIALS`` stacked ``maps``: one SVD."""
    s = np.linalg.svd(maps, compute_uv=False)
    ranks = _cut(s)
    return StructuralRankReport(TRIALS, sum(rank >= required for rank in ranks),
                                _rank(s[ranks.index(min(ranks))], required))


def structural_rank(M: CoeffMatrix, required: int, seed: int = 0) -> StructuralRankReport:
    """Randomized check that ``M`` has rank >= ``required`` generically.

    Evaluates ``M`` at ``k = 0`` for ``TRIALS`` scheduling windows drawn
    i.i.d. uniform on ``[-1, 1]`` (per component, per needed offset).  The
    verdict requires the numeric rank to reach ``required`` (>= 0) on every trial.
    """
    required = _check_int("required", required, 0)
    P, i = _draw(M.window or (0, 0), M.n_p, seed)
    return _report(M._eval_rows(P, i, 1)[:, 0], required)


@dataclass(frozen=True)
class MinimalityReport:
    """Conjunction of structural observability and reachability.

    State-trimness is taken as implied for the non-autonomous reachable
    class, so reachability serves as the practical surrogate.
    """

    observable: StructuralRankReport
    reachable: StructuralRankReport

    @property
    def minimal(self) -> bool:
        return self.observable.verdict and self.reachable.verdict


def minimality_report(model: LpvSsModel, seed: int = 0) -> MinimalityReport:
    """Structural observability and reachability of ``model``: the draws of
    ``structural_rank(obsv_matrix(model, n_x), n_x)`` and of the same test of
    :func:`reach_matrix`, evaluated by the recursion of
    :func:`~lpvdd.simulation.obsv_eval` (on the transposed ``B`` and ``A`` for
    reachability, which keeps the singular values) with the running product and each
    block at unit norm.  The ``A(k)`` products of both
    maps' trials run as one stack; each map keeps its own blocks and SVD, since padding
    the narrower blocks to stack them would move singular values."""
    n, A = model.n_x, model.A
    P, i = _draw(_shifted_hull((model.C, range(n)), (A, range(n - 1))), model.n_p, seed)
    C, A_o = model.C._eval_rows(P, i, n), A._eval_rows(P, i, n - 1)
    P, i = _draw(_shifted_hull((model.B, range(0, -n, -1)), (A, range(0, 1 - n, -1))),
                 model.n_p, seed)
    # B[:, j] is B(-j)^T and A_r[:, j] is A(-j)^T
    B = model.B._eval_rows(P, i - n + 1, n)[:, ::-1].swapaxes(-1, -2)
    A_r = A._eval_rows(P, i - n + 2, n - 1)[:, ::-1].swapaxes(-1, -2)
    A = np.concatenate([A_o, A_r])  # observability trials, then reachability trials
    # each stack by the power of two at its largest entry: exact, and _unit's squares of
    # its entries then neither over- nor underflow
    C, A, B = (np.ldexp(X, -np.frexp(np.abs(X).max(initial=0.0))[1]) for X in (C, A, B))
    blocks, prod = ([C[:, 0]], [B[:, 0]]), np.eye(n)
    for j in range(n - 1):
        prod = _unit(A[:, j] @ prod, A[:, j])
        blocks[0].append(C[:, j + 1] @ prod[:TRIALS])
        blocks[1].append(B[:, j + 1] @ prod[TRIALS:])
    observable, reachable = (_report(_unit(np.stack(b, axis=1), M).reshape(TRIALS, -1, n), n)
                             for b, M in zip(blocks, (C, B)))
    return MinimalityReport(observable, reachable)


def check_pe(u: Trajectory, p: Trajectory, L: int) -> RankRecord:
    """Persistence-of-excitation rank check of order ``L`` for ``(u, p)``: the
    :class:`RankRecord` of the Hankel matrix of ``col(u, p (x) u)`` against its
    ``(1 + n_p) n_u L`` rows.

    The Hankel matrix is read through :func:`_triangle`, so a long record costs QRs
    of blocks of its windows and small SVDs, none with an axis of length ``T - L + 1``.
    A record's excitation is read off its one factor: ``DataRecord.lifted(L).pe``."""
    _check_windows(("p", p, None, u.interval))
    F = _triangle(_windows(kron_extend(u, p).samples, L))
    return _rank(np.linalg.svd(F, compute_uv=False), len(F))
