"""Data-driven output prediction from one measured trajectory.

Given a single recorded ``(u, p, y)`` sequence of a scheduling-dependent
system with shifted-affine coefficients, the continuation of a fresh query
trajectory can be read off a stacked Hankel system: the measured signals and
their Kronecker extensions ``p (x) u``, ``p (x) y`` supply the columns, and
block-diagonal matrices built from the *query* scheduling impose that any
column combination is Kronecker-consistent with the query.  The stacked
system is

    [ H_L(u)                          ]       [ vec(u_query) ]
    [ H_L(p (x) u) - P_u H_L(u)       ]  g =  [ 0            ]
    [ H_L(y)                          ]       [ vec(y_query) ]
    [ H_L(p (x) y) - P_y H_L(y)       ]       [ 0             ]

where only the initial portion of ``vec(y_query)`` is known.  The unknown
future output rows are removed, the remaining (known-row) system is solved
by minimum-norm least squares, and the future outputs are recovered by
applying the removed rows to the solution.

Uniqueness of the recovered outputs is certified by a margin: the smallest
singular value of the known-row block restricted to the row space of the
full stack.  The margin vanishes exactly when some column combination
changes the future output rows without touching any known row, i.e. when
the future outputs are not determined by the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import _min_norm_solve, _rank_factor, check_pe, numeric_rank
from .coeffs import CoeffMatrix, PolyCoeff
from .errors import DimensionMismatch, IntervalMismatch, InvalidShape
from .models import KernelRep
from .signals import (
    Trajectory,
    concat,
    hankel,
    kron_extend,
    kron_signal,
    read_trajectory_csv,
    sched_block_diag,
    vec,
    write_trajectory_csv,
)

__all__ = [
    "DataRecord",
    "RowPartition",
    "PredictorSystem",
    "PredictionResult",
    "MembershipResult",
    "LeftNullspace",
    "build_predictor",
    "predict",
    "span_membership",
    "left_nullspace",
]


@dataclass(frozen=True)
class DataRecord:
    """One measured ``(u, p, y)`` sequence over a shared interval."""

    u: Trajectory
    p: Trajectory
    y: Trajectory
    provenance: str = ""

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

    def extended(self) -> Trajectory:
        """Kronecker-extended stacked signal ``col(w, p (x) w)``."""
        return kron_extend(self.w, self.p)

    # -- interchange ----------------------------------------------------------

    def to_dict(self) -> dict:
        def traj(t: Trajectory) -> dict:
            return {"t_start": t.t_start, "samples": t.samples.tolist()}

        return {
            "u": traj(self.u),
            "p": traj(self.p),
            "y": traj(self.y),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DataRecord":
        def traj(d: dict) -> Trajectory:
            return Trajectory(int(d["t_start"]), np.asarray(d["samples"], dtype=float))

        return cls(
            u=traj(data["u"]),
            p=traj(data["p"]),
            y=traj(data["y"]),
            provenance=str(data.get("provenance", "")),
        )

    @classmethod
    def from_json_bundle(cls, path) -> "DataRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def from_csv_dir(cls, directory, provenance: str = "") -> "DataRecord":
        d = Path(directory)
        return cls(
            u=read_trajectory_csv(d / "u.csv"),
            p=read_trajectory_csv(d / "p.csv"),
            y=read_trajectory_csv(d / "y.csv"),
            provenance=provenance or str(d),
        )

    def to_csv_dir(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(d / "u.csv", self.u)
        write_trajectory_csv(d / "p.csv", self.p)
        write_trajectory_csv(d / "y.csv", self.y)


@dataclass(frozen=True)
class RowPartition:
    """Row index bookkeeping of the stacked predictor matrix.

    Blocks appear in the order: input rows, input constraint rows, output
    rows, output constraint rows.  Within the input/output blocks, rows are
    grouped per window position, so an initial-window split at ``T_ini`` is
    a prefix of the block.
    """

    L: int
    n_u: int
    n_p: int
    n_y: int

    @property
    def u_rows(self) -> slice:
        return slice(0, self.n_u * self.L)

    @property
    def u_constraint_rows(self) -> slice:
        start = self.n_u * self.L
        return slice(start, start + self.n_p * self.n_u * self.L)

    @property
    def y_rows(self) -> slice:
        start = (1 + self.n_p) * self.n_u * self.L
        return slice(start, start + self.n_y * self.L)

    @property
    def y_constraint_rows(self) -> slice:
        start = (1 + self.n_p) * self.n_u * self.L + self.n_y * self.L
        return slice(start, start + self.n_p * self.n_y * self.L)

    @property
    def total_rows(self) -> int:
        return (1 + self.n_p) * (self.n_u + self.n_y) * self.L

    def y_initial_rows(self, T_ini: int) -> np.ndarray:
        """Absolute indices of the output rows for window steps 1..T_ini."""
        base = self.y_rows.start
        return np.arange(base, base + self.n_y * T_ini)

    def y_future_rows(self, T_ini: int) -> np.ndarray:
        """Absolute indices of the output rows for window steps T_ini+1..L."""
        return np.arange(self.y_rows.start + self.n_y * T_ini, self.y_rows.stop)

    def known_rows(self, T_ini: int) -> np.ndarray:
        """All row indices except the future output rows."""
        return np.delete(np.arange(self.total_rows), self.y_future_rows(T_ini))


@dataclass(frozen=True)
class PredictorSystem:
    """Stacked Hankel system evaluated at a query scheduling window."""

    L: int
    matrix: np.ndarray
    row_partition: RowPartition
    col_count: int


def build_predictor(data: DataRecord, p_query: Trajectory, L: int) -> PredictorSystem:
    """Assemble the four-block stacked system for a query scheduling window.

    Hankel blocks use the measured signals (including measured-scheduling
    Kronecker products); the block-diagonal consistency matrices are built
    from the query scheduling ``p_query``.
    """
    if p_query.dim != data.n_p:
        raise DimensionMismatch(
            f"query scheduling dim {p_query.dim} differs from data {data.n_p}"
        )
    if p_query.length != L:
        raise InvalidShape(f"query scheduling has length {p_query.length}, expected L={L}")
    if data.T < L:
        raise InvalidShape(f"data length {data.T} shorter than window L={L}")
    Hu = hankel(data.u, L).data
    Hy = hankel(data.y, L).data
    Hpu = hankel(kron_signal(data.u, data.p), L).data
    Hpy = hankel(kron_signal(data.y, data.p), L).data
    Pu = sched_block_diag(p_query, data.n_u)
    Py = sched_block_diag(p_query, data.n_y)
    matrix = np.vstack([Hu, Hpu - Pu @ Hu, Hy, Hpy - Py @ Hy])
    part = RowPartition(L=L, n_u=data.n_u, n_p=data.n_p, n_y=data.n_y)
    return PredictorSystem(
        L=L, matrix=matrix, row_partition=part, col_count=matrix.shape[1]
    )


@dataclass(frozen=True)
class PredictionResult:
    """Predicted continuation with solve diagnostics.

    ``verdict`` is ``"ok"`` when the known-row residual is within tolerance
    and the future outputs are uniquely pinned, ``"ambiguous"`` when the
    uniqueness margin or the data excitation collapses, and ``"infeasible"``
    when the query is not consistent with the span of the data.
    """

    y_r: Trajectory
    g: np.ndarray
    residual: float
    output_uniqueness_margin: float
    verdict: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "y_r": {"t_start": self.y_r.t_start, "samples": self.y_r.samples.tolist()},
            "g": self.g.tolist(),
            "residual": self.residual,
            "output_uniqueness_margin": self.output_uniqueness_margin,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }


def predict(
    data: DataRecord,
    u_ini: Trajectory,
    p_ini: Trajectory,
    y_ini: Trajectory,
    u_r: Trajectory,
    p_r: Trajectory,
    tol: float = 1e-7,
    margin_tol: float = 1e-7,
    rank_rtol: float = 1e-9,
    n_x_hypothesis: int | None = None,
) -> PredictionResult:
    """Predict the future outputs of a query trajectory from recorded data.

    The query consists of an initial window ``(u_ini, p_ini, y_ini)`` of
    length ``T_ini`` that pins the latent initial condition, and the future
    inputs and scheduling ``(u_r, p_r)`` of length ``T_r``.  The returned
    trajectory covers ``[T_ini + 1, T_ini + T_r]``.

    ``T_ini`` must reach the lag of the data-generating system for the
    continuation to be unique, and the record must be long and exciting
    enough for its Hankel span to cover the query; shortfalls surface as the
    ``ambiguous``/``infeasible`` verdicts and in the diagnostics.
    """
    for name, traj, dim in (
        ("u_ini", u_ini, data.n_u),
        ("y_ini", y_ini, data.n_y),
        ("u_r", u_r, data.n_u),
        ("p_ini", p_ini, data.n_p),
        ("p_r", p_r, data.n_p),
    ):
        if traj.dim != dim:
            raise DimensionMismatch(f"{name} has dim {traj.dim}, expected {dim}")
    T_ini, T_r = u_ini.length, u_r.length
    if y_ini.length != T_ini or p_ini.length != T_ini or p_r.length != T_r:
        raise InvalidShape("query window lengths are inconsistent")
    L = T_ini + T_r

    u_bar = concat(u_ini.rebase(1), u_r.rebase(T_ini + 1))
    p_bar = concat(p_ini.rebase(1), p_r.rebase(T_ini + 1))
    system = build_predictor(data, p_bar, L)
    part = system.row_partition

    known = part.known_rows(T_ini)
    future = part.y_future_rows(T_ini)
    A = system.matrix[known]
    Y = system.matrix[future]
    b = np.zeros(part.total_rows)
    b[part.u_rows] = vec(u_bar)
    b[part.y_initial_rows(T_ini)] = vec(y_ini)
    b = b[known]

    g = _min_norm_solve(*_rank_factor(A, rank_rtol), b)
    residual = float(np.linalg.norm(A @ g - b))
    y_r_values = (Y @ g).reshape(T_r, data.n_y)

    # Margin: sigma_min of the known rows restricted to the row space of the
    # full stack.  Directions outside that row space affect neither the
    # equations nor the future outputs, so they are quotiented away; a zero
    # margin means some direction moves the future outputs while being
    # invisible to every known row.
    _, _, Vt, full_rank = _rank_factor(system.matrix, rank_rtol)
    _, s_known = numeric_rank(A @ Vt[:full_rank].T)
    margin = float(s_known[-1]) if s_known.size else 0.0

    pe = check_pe(data.u, data.p, L)
    warnings: list[str] = []
    if not pe.verdict:
        warnings.append(
            f"data not persistently exciting at order {L}: "
            f"extended input rank {pe.extended_input_rank} < {pe.required}"
        )
    if n_x_hypothesis is not None:
        order = L + n_x_hypothesis
        if data.T >= order:
            pe_hi = check_pe(data.u, data.p, order)
            if not pe_hi.verdict:
                warnings.append(
                    f"excitation order {order} not reached: rank "
                    f"{pe_hi.extended_input_rank} < {pe_hi.required}"
                )
        else:
            warnings.append(
                f"cannot verify excitation at order {order}: data length {data.T} too short"
            )

    if margin <= margin_tol or not pe.verdict:
        verdict = "ambiguous"
    elif residual > tol:
        verdict = "infeasible"
    else:
        verdict = "ok"

    diagnostics = {
        "T_ini": T_ini,
        "T_r": T_r,
        "L": L,
        "col_count": system.col_count,
        "known_row_count": int(A.shape[0]),
        "full_stack_rank": full_rank,
        "extended_input_rank": pe.extended_input_rank,
        "required_input_rank": pe.required,
        "warnings": warnings,
    }
    return PredictionResult(
        y_r=Trajectory(T_ini + 1, y_r_values),
        g=g,
        residual=residual,
        output_uniqueness_margin=margin,
        verdict=verdict,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class MembershipResult:
    """Span-membership verdict with its least-squares residual."""

    member: bool
    residual: float


def span_membership(
    data: DataRecord,
    w_test: Trajectory,
    p_test: Trajectory,
    tol: float = 1e-7,
    rank_rtol: float = 1e-9,
) -> MembershipResult:
    """Test whether a window lies in the data span at the test scheduling.

    The window ``w_test = col(u, y)`` of length ``L`` is a member when some
    column combination of the measured Hankel blocks reproduces it while
    satisfying the Kronecker consistency constraints built from ``p_test``.
    """
    if w_test.dim != data.n_u + data.n_y:
        raise DimensionMismatch(
            f"w_test has dim {w_test.dim}, expected {data.n_u + data.n_y}"
        )
    L = w_test.length
    if p_test.length != L:
        raise InvalidShape(f"p_test length {p_test.length} differs from window {L}")
    Hw = hankel(data.w, L).data
    Hpw = hankel(kron_signal(data.w, data.p), L).data
    Pw = sched_block_diag(p_test, w_test.dim)
    A = np.vstack([Hw, Hpw - Pw @ Hw])
    b = np.concatenate([vec(w_test), np.zeros(Hpw.shape[0])])
    g = _min_norm_solve(*_rank_factor(A, rank_rtol), b)
    residual = float(np.linalg.norm(A @ g - b))
    return MembershipResult(member=residual <= tol, residual=residual)


@dataclass(frozen=True)
class LeftNullspace:
    """Numeric left null space of the extended Hankel matrix.

    Each basis row, read per window position, is a candidate annihilator of
    the behaviour: a degree ``<= L - 1`` polynomial-in-shift row functional
    with shifted-affine coefficients.  ``basis`` has orthonormal rows.
    """

    basis: np.ndarray
    dimension: int
    rank: int
    L: int
    n_w: int
    n_p: int
    singular_values: tuple[float, ...]

    def annihilator(self, i: int) -> KernelRep:
        """Basis row ``i`` as a polynomial-in-shift kernel row over ``w``."""
        row = self.basis[i]
        step = (1 + self.n_p) * self.n_w
        coeffs = []
        for s in range(self.L):
            block = row[s * step : (s + 1) * step]
            entries = []
            for j in range(self.n_w):
                const = block[j]
                linear = [block[self.n_w + jp * self.n_w + j] for jp in range(self.n_p)]
                entries.append(PolyCoeff.affine(const, linear, n_p=self.n_p, offset=s))
            coeffs.append(CoeffMatrix([entries]))
        return KernelRep(tuple(coeffs))

    def max_residual_on(self, w: Trajectory, p: Trajectory) -> float:
        """Largest violation of any basis row on all windows of ``(w, p)``."""
        H = hankel(kron_extend(w, p), self.L).data
        if self.dimension == 0:
            return 0.0
        return float(np.max(np.abs(self.basis @ H)))


def left_nullspace(data: DataRecord, L: int, tol: float = 1e-9) -> LeftNullspace:
    """Orthonormal basis of the left null space of ``H_L(col(w, p (x) w))``."""
    if data.T < L:
        raise InvalidShape(f"data length {data.T} shorter than window L={L}")
    H = hankel(data.extended(), L).data
    U, s, _, rank = _rank_factor(H, tol)
    basis = U[:, rank:].T
    return LeftNullspace(
        basis=basis,
        dimension=basis.shape[0],
        rank=rank,
        L=L,
        n_w=data.n_u + data.n_y,
        n_p=data.n_p,
        singular_values=tuple(float(v) for v in s),
    )
