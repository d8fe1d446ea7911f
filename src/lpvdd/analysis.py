"""Structural observability/reachability, minimality, and excitation checks.

"Structural" rank properties hold generically over scheduling trajectories:
each is the generic rank of a matrix polynomial in the scheduling samples,
decided here exactly over GF(``Q``).  A float coefficient is a dyadic rational,
so it reduces exactly mod ``Q``.  A map is evaluated mod ``Q`` at two
independent draws and ranked by elimination; a draw reads below the generic
rank only at a root of a nonzero minor, with probability at most ``deg / Q``
(Schwartz, J. ACM 27(4), 1980; Zippel, EUROSAM 1979).  A report keeps the
larger rank of its two draws, so a full-rank reading proves full generic rank.
No singular value, scaling or cut enters: a model is decided exactly as it is
stored, and a map that vanishes only to rounding has rank.

The symbolic :func:`obsv_matrix` and :func:`reach_matrix` are the specification;
their entries have up to ``(1 + n_p)^(n - 1)`` terms.  :func:`minimality_report`
evaluates the same maps at the same draws by their recursion (a shift commutes
with evaluation), with the ``A(k)`` products of both maps, and their ranks, as
one stack.

Persistence of excitation is checked for the shifted-affine dependency class:
the scheduling-extended input ``col(u, p (x) u)`` must produce a Hankel matrix
of full row rank ``(1 + n_p) n_u L``.  Every float rank decision reports one
:class:`RankRecord`: the rank, the count it is judged against, the singular
values it cut and the ``RANK_CUT`` it read.
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
# The prime of the structural tests, below 2^26: a product of two residues is below
# 2^52, so a sum of up to 2^11 of them fits int64.
Q = 67_108_859
# The residual tolerance of span_membership and estimate_initial_state, and the
# default of predict's tol and margin_tol.
TOL = 1e-7


def _cut(s: np.ndarray) -> int:
    """Count of the singular values ``s`` above ``RANK_CUT`` times the first."""
    return int(np.count_nonzero(s > RANK_CUT * s[:1]))


@dataclass(frozen=True)
class RankRecord:
    """One rank decision: ``rank`` of the ``singular_values`` exceed ``cut`` times the
    first, and the decision holds when ``rank`` reaches ``required``.  ``required`` is
    the row count of an input Hankel matrix (excitation), the row count ``R`` of the
    lifted Hankel matrix or the column count of a least-squares solve."""

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


def _residues(x: np.ndarray) -> np.ndarray:
    """Exact ``x mod Q`` of the floats ``x``: each is its 53-bit integer mantissa times
    ``2^e``, and ``2^e mod Q`` is formed only for the exponents present."""
    f, e = np.frexp(x)
    twos = np.zeros(e.max(initial=0) - (lo := e.min(initial=0)) + 1, dtype=np.int64)
    for k in set(e.ravel().tolist()):
        twos[k - lo] = pow(2, k - 53, Q)
    return np.ldexp(f, 53).astype(np.int64) % Q * twos[e - lo] % Q


def _mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X @ Y`` over GF(Q), summed in chunks of at most 2^11 products: no int64 overflows."""
    out = X[..., :2048] @ Y[..., :2048, :] % Q
    for k in range(2048, X.shape[-1], 2048):
        out = (out + X[..., k:k + 2048] @ Y[..., k:k + 2048, :]) % Q
    return out


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """``x^e`` over GF(Q), ``e >= 1``, by squaring."""
    return x if e == 1 else _power(x * x % Q, e // 2) * (x if e % 2 else 1) % Q


def _eval_mod(M: CoeffMatrix, P: np.ndarray, start: int, n: int) -> np.ndarray:
    """``M._eval_rows`` over GF(Q), at the scheduling residues ``P`` ``(..., W, n_p)``: the
    monomial values times the residues of ``M``'s stack."""
    phi = np.ones(P.shape[:-2] + (n, len(M.terms)), dtype=np.int64)
    for m, mono in enumerate(M.terms):
        for comp, off, pw in mono:
            phi[..., m] = phi[..., m] * _power(P[..., start + off:start + off + n, comp - 1],
                                               pw) % Q
    return _mul(phi, _residues(M._stack)).reshape(phi.shape[:-1] + (M.rows, M.cols))


def _rank_mod(X: np.ndarray) -> np.ndarray:
    """Ranks over GF(Q) of the residue matrices ``X`` ``(draws, rows, cols)``, by elimination
    along the shorter axis.  A column's pivot is its first nonzero in a row not yet a pivot;
    every row is scaled by it, which keeps the rank, so no pivot is inverted."""
    X = X.swapaxes(-1, -2) if X.shape[-1] > X.shape[-2] else X
    free, at = np.ones(X.shape[:2], dtype=bool), np.arange(len(X))
    for j in range(X.shape[-1]):
        col = X[:, :, j] * free
        i = col.astype(bool).argmax(axis=1)
        v = col[at, i]  # the pivot, or 0 where a draw has none left
        free[at, i] &= v == 0
        col[at, i] = 0
        X = (X * (v + (v == 0))[:, None, None] - col[..., None] * X[at, i][:, None]) % Q
    return (~free).sum(axis=1)


def _shifted_hull(*parts) -> tuple[int, int]:
    """Hull of ``M.window`` shifted by every ``d`` in ``shifts``, over the ``(M, shifts)``
    pairs, ``(0, 0)`` when no ``M`` depends on scheduling: the window of a product of
    shifted copies of the ``M``s unless terms cancel exactly."""
    spans = [(w[0] + d, w[1] + d) for M, shifts in parts if (w := M.window) for d in shifts]
    return (min(s[0] for s in spans), max(s[1] for s in spans)) if spans else (0, 0)


@dataclass(frozen=True)
class StructuralRankReport:
    """Outcome of an exact generic-rank test: ``rank`` over GF(Q), the larger of two
    independent draws, against ``required``."""

    rank: int
    required: int

    @property
    def verdict(self) -> bool:
        return self.rank >= self.required


def _draw(n_p: int, seed: int, *parts) -> tuple[np.ndarray, int]:
    """The two scheduling windows ``P`` over the :func:`_shifted_hull` of ``parts``, drawn
    uniform on GF(Q) in one call, and the row of ``P`` that is time 0."""
    lo, hi = _shifted_hull(*parts)
    return stream(seed, "trials").integers(0, Q, (2, hi - lo + 1, n_p)), -lo


def structural_rank(M: CoeffMatrix, required: int, seed: int = 0) -> StructuralRankReport:
    """Exact check that ``M`` has rank >= ``required`` (>= 0) generically: its larger rank
    over GF(Q) at ``k = 0`` at two scheduling windows drawn uniform on GF(Q)."""
    required = _check_int("required", required, 0)
    P, i = _draw(M.n_p, seed, (M, (0,)))
    return StructuralRankReport(int(_rank_mod(_eval_mod(M, P, i, 1)[:, 0]).max()), required)


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
    """Structural observability and reachability of ``model``: ``structural_rank`` of
    :func:`obsv_matrix` and of :func:`reach_matrix` at ``n_x``, at the same draws, by the
    recursion of :func:`~lpvdd.simulation.obsv_eval` (on the transposed ``B`` and ``A`` for
    reachability), which runs both maps, and their ranks, as one stack."""
    n, A = model.n_x, model.A
    # C(j) and A(j), then B(-j)^T and A(-j)^T; the shorter blocks of CB get zero rows
    CB = np.zeros((4, n, max(model.n_y, model.n_u), n), dtype=np.int64)
    P, i = _draw(model.n_p, seed, (model.C, range(n)), (A, range(n - 1)))
    CB[:2, :, :model.n_y], A_o = _eval_mod(model.C, P, i, n), _eval_mod(A, P, i, n - 1)
    P, i = _draw(model.n_p, seed, (model.B, range(0, -n, -1)), (A, range(0, 1 - n, -1)))
    CB[2:, :, :model.n_u] = _eval_mod(model.B, P, i - n + 1, n)[:, ::-1].swapaxes(-1, -2)
    A = np.concatenate([A_o, _eval_mod(A, P, i - n + 2, n - 1)[:, ::-1].swapaxes(-1, -2)])
    blocks, prod = [CB[:, 0]], np.eye(n, dtype=np.int64)
    for j in range(n - 1):
        prod = _mul(A[:, j], prod)
        blocks.append(_mul(CB[:, j + 1], prod))
    ranks = _rank_mod(np.concatenate(blocks, axis=1))
    return MinimalityReport(*(StructuralRankReport(int(ranks[k:k + 2].max()), n) for k in (0, 2)))


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
