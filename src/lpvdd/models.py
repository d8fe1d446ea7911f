"""LPV model representations with scheduling-dependent coefficients.

Two representation forms are supported:

* :class:`LpvSsModel`: first-order state recursion
  ``x(k+1) = A(p,k) x(k) + B(p,k) u(k)``, ``y(k) = C(p,k) x(k) + D(p,k) u(k)``
  where each coefficient matrix is a :class:`~lpvdd.coeffs.CoeffMatrix`.

* :class:`LpvIoModel`: input-output recursion with unit leading output coefficient,
  ``y(k) + sum_i a_i(p(k-i)) y(k-i) = sum_j b_j(p(k-j)) u(k-j)``, where ``a_i``/``b_j``
  read scheduling only at offset ``-i``; it runs as its state-space ``realization``.

:func:`io_to_kernel` rewrites an IO model as a polynomial-in-shift kernel
acting on the stacked signal ``w = col(u, y)``, which is the algebraic form
the annihilator machinery works with.

Models serialize to a stable JSON schema with coefficient functions stored
term by term; see :func:`model_to_dict`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeffs import CoeffMatrix, PolyCoeff
from .errors import DimensionMismatch, InvalidModel, WindowOutOfRange
from .signals import (Trajectory, _check_int, _check_windows, _json_number, _json_text, _read,
                      _write)

__all__ = [
    "LpvSsModel",
    "LpvIoModel",
    "KernelRep",
    "example_verhoek",
    "io_to_kernel",
    "random_affine_ss",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class LpvSsModel:
    """Discrete-time LPV state-space model ``(A, B, C, D)``.

    Made only well formed: :class:`InvalidModel` lists every shape and ``n_p``
    disagreement.
    """

    A: CoeffMatrix
    B: CoeffMatrix
    C: CoeffMatrix
    D: CoeffMatrix

    def __post_init__(self):
        A, B, C, D = self.A, self.B, self.C, self.D
        issues = []
        if A.rows != A.cols:
            issues.append(f"A must be square, got {A.shape}")
        if B.rows != A.rows:
            issues.append(f"B has {B.rows} rows, expected n_x={A.rows}")
        if C.cols != A.rows:
            issues.append(f"C has {C.cols} cols, expected n_x={A.rows}")
        if D.rows != C.rows or D.cols != B.cols:
            issues.append(f"D shape {D.shape} does not match (n_y, n_u)")
        n_ps = {M.n_p for M in (A, B, C, D)}
        if len(n_ps) > 1:
            issues.append(f"coefficient matrices disagree on n_p: {sorted(n_ps)}")
        if issues:
            raise InvalidModel("; ".join(issues))

    @property
    def n_x(self) -> int:
        return self.A.rows

    @property
    def n_u(self) -> int:
        return self.B.cols

    @property
    def n_y(self) -> int:
        return self.C.rows

    @property
    def n_p(self) -> int:
        return self.A.n_p


@dataclass(frozen=True)
class LpvIoModel:
    """Discrete-time LPV input-output model with unit leading coefficient.

    ``a_coeffs[i-1]`` is the ``n_y x n_y`` coefficient of ``y(k-i)`` and may
    depend only on scheduling samples at offset ``-i``; ``b_coeffs`` likewise
    for ``u(k-j)``.  Made only well formed: :class:`InvalidModel` lists every
    ``n_a < n_b``, shape, ``n_p`` and offset issue.
    """

    a_coeffs: tuple[CoeffMatrix, ...]
    b_coeffs: tuple[CoeffMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_coeffs", tuple(self.a_coeffs))
        object.__setattr__(self, "b_coeffs", tuple(self.b_coeffs))
        if not self.a_coeffs or not self.b_coeffs:
            raise InvalidModel("IO model needs at least one a and one b coefficient")
        n_y, n_u, n_p = self.n_y, self.n_u, self.n_p
        issues = [f"n_a={self.n_a} < n_b={self.n_b}"] if self.n_a < self.n_b else []
        for name, seq, cols in (("a", self.a_coeffs, n_y), ("b", self.b_coeffs, n_u)):
            for i, m in enumerate(seq, start=1):
                if m.shape != (n_y, cols):
                    issues.append(f"{name}_{i} shape {m.shape}, expected ({n_y}, {cols})")
                if m.n_p != n_p:
                    issues.append(f"{name}_{i} has n_p={m.n_p}, expected {n_p}")
                if m.window not in (None, (-i, -i)):
                    issues.append(f"{name}_{i} depends on offsets in {list(m.window)}, "
                                  f"only -{i} allowed")
        if issues:
            raise InvalidModel("; ".join(issues))

    @property
    def n_a(self) -> int:
        return len(self.a_coeffs)

    @property
    def n_b(self) -> int:
        return len(self.b_coeffs)

    @property
    def n_y(self) -> int:
        return self.a_coeffs[0].rows

    @property
    def n_u(self) -> int:
        return self.b_coeffs[0].cols

    @property
    def n_p(self) -> int:
        return self.a_coeffs[0].n_p

    @cached_property
    def realization(self) -> LpvSsModel:
        """The observer form, made once: ``y(k) = x_1(k)`` and
        ``x_i(k+1) = x_{i+1}(k) - a~_i(k) y(k) + b~_i(k) u(k)``, ``a~_i = a_i.shift(i)`` and
        ``b~_i`` likewise (zero past ``n_b``).  So ``n_x = n_a n_y`` and every coefficient
        reads p only at ``k`` (Tóth, Abbas & Werner, IEEE TCST 20(1), 2012)."""
        n_y, n_u, n_p, n_x = self.n_y, self.n_u, self.n_p, self.n_a * self.n_y
        C = CoeffMatrix.constant(np.eye(n_y, n_x), n_p)
        a = CoeffMatrix.vstack([m.shift(i) for i, m in enumerate(self.a_coeffs, start=1)])
        b = ([m.shift(i) for i, m in enumerate(self.b_coeffs, start=1)]
             + [CoeffMatrix.zeros(n_y, n_u, n_p) for _ in range(self.n_a - self.n_b)])
        return LpvSsModel(A=CoeffMatrix.constant(np.eye(n_x, k=n_y), n_p) - a @ C,
                          B=CoeffMatrix.vstack(b), C=C, D=CoeffMatrix.zeros(n_y, n_u, n_p))


@dataclass(frozen=True)
class KernelRep:
    """Polynomial-in-shift kernel ``R(q) = r_0 + r_1 q + ... + r_n q^n``.

    A trajectory pair ``(w, p)`` belongs to the represented behaviour when
    ``sum_s r_s(p, k) w(k+s) = 0`` at every admissible ``k``.  Made only well
    formed: :class:`InvalidModel` lists each ``r_s`` unlike ``r_0`` in shape or ``n_p``.
    """

    coeffs: tuple[CoeffMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise InvalidModel("kernel needs at least one coefficient")
        r0 = self.coeffs[0]
        issues = [f"r_{s} shape {r.shape}, expected {r0.shape}"
                  for s, r in enumerate(self.coeffs) if r.shape != r0.shape]
        issues += [f"r_{s} has n_p={r.n_p}, expected {r0.n_p}"
                   for s, r in enumerate(self.coeffs) if r.n_p != r0.n_p]
        if self.coeffs[-1].is_zero and len(self.coeffs) > 1:
            issues.append("leading kernel coefficient is identically zero")
        if issues:
            raise InvalidModel("; ".join(issues))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def n_w(self) -> int:
        return self.coeffs[0].cols

    def residual(self, w: Trajectory, p: Trajectory) -> np.ndarray:
        """Residual ``(R(q) . p) w`` at every time ``k`` where it is defined on the data,
        stacked rowwise; :class:`DimensionMismatch` naming ``w`` unless it has ``n_w``
        channels."""
        _check_windows(("w", w, self.n_w, None))
        wins = [r.window for r in self.coeffs if r.window is not None]
        k_lo = max([w.t_start] + [p.t_start - win[0] for win in wins])
        k_hi = min([w.t_end - self.order] + [p.t_end - win[1] for win in wins])
        if k_hi < k_lo:
            raise WindowOutOfRange("no admissible evaluation times for kernel residual")
        out = np.zeros((k_hi - k_lo + 1, self.coeffs[0].rows))
        for s, r in enumerate(self.coeffs):
            out += np.einsum("kij,kj->ki", r.eval_range(p, k_lo, k_hi),
                             w.restrict(k_lo + s, k_hi + s).samples)
        return out


def example_verhoek() -> LpvIoModel:
    """Built-in SISO demonstration model with affine scheduling dependence.

    Second-order recursion with two scheduling channels; each lag-``i``
    coefficient is affine in the two scheduling components at offset ``-i``.
    """
    a1 = CoeffMatrix.affine([[1.0]], ([[-0.5]], [[-0.1]]), offset=-1)
    a2 = CoeffMatrix.affine([[0.5]], ([[-0.7]], [[-0.1]]), offset=-2)
    b1 = CoeffMatrix.affine([[0.5]], ([[-0.4]], [[0.01]]), offset=-1)
    b2 = CoeffMatrix.affine([[0.2]], ([[-0.3]], [[-0.2]]), offset=-2)
    return LpvIoModel(a_coeffs=(a1, a2), b_coeffs=(b1, b2))


def io_to_kernel(model: LpvIoModel) -> KernelRep:
    """Kernel ``R(xi) = [-R_u(xi) | R_y(xi)]`` acting on ``w = col(u, y)``.

    ``R_y(xi) = I xi^{n_a} + sum_i a~_i xi^{n_a - i}`` and
    ``R_u(xi) = sum_j b~_j xi^{n_a - j}`` with every coefficient function
    forward-shifted by ``n_a`` so that the kernel residual evaluated at ``k``
    reproduces the IO recursion at ``k + n_a``.
    """
    n_a, n_b = model.n_a, model.n_b
    n_u, n_y, n_p = model.n_u, model.n_y, model.n_p
    coeffs = []
    for s in range(n_a + 1):
        i = n_a - s  # lag index contributing at shift power s
        if i == 0:
            y_part = CoeffMatrix.identity(n_y, n_p)
        else:
            y_part = model.a_coeffs[i - 1].shift(n_a)
        if 1 <= i <= n_b:
            u_part = (-model.b_coeffs[i - 1]).shift(n_a)
        else:
            u_part = CoeffMatrix.zeros(n_y, n_u, n_p)
        coeffs.append(CoeffMatrix.hstack([u_part, y_part]))
    return KernelRep(tuple(coeffs))


def random_affine_ss(
    rng: np.random.Generator,
    n_x: int,
    n_u: int = 1,
    n_y: int = 1,
    n_p: int = 1,
) -> LpvSsModel:
    """Random dense state-space model with affine offset-0 dependence.

    The state matrix family is scaled so that short-horizon simulations stay
    numerically tame; generic draws are structurally observable/reachable.
    :class:`InvalidShape` naming the dimension unless ``n_x``, ``n_u`` and ``n_y``
    are integers of at least 1 and ``n_p`` one of at least 0.
    """
    n_x, n_u, n_y, n_p = (_check_int(name, dim, least) for name, dim, least in (
        ("n_x", n_x, 1), ("n_u", n_u, 1), ("n_y", n_y, 1), ("n_p", n_p, 0)))

    def affine_mat(rows, cols, scale=1.0):
        const = rng.uniform(-1, 1, (rows, cols)) * scale
        linear = [rng.uniform(-1, 1, (rows, cols)) * scale for _ in range(n_p)]
        return CoeffMatrix.affine(const, linear)

    a_scale = 0.7 / (n_x * (1 + n_p)) ** 0.5
    return LpvSsModel(
        A=affine_mat(n_x, n_x, a_scale),
        B=affine_mat(n_x, n_u),
        C=affine_mat(n_y, n_x),
        D=affine_mat(n_y, n_u),
    )


# -- JSON schema ---------------------------------------------------------------
#
# { "kind": "ss" | "io", dims..., matrices as arrays of entries }
# entry = list of terms; term = {"coeff": number,
#                                "vars": [{"comp": j, "offset": d, "power": m}]}


def _poly_to_entry(c: PolyCoeff) -> list:
    return [
        {
            "coeff": coeff,
            "vars": [
                {"comp": comp, "offset": off, "power": pw} for comp, off, pw in mono
            ],
        }
        for coeff, mono in c.terms
    ]


def _entry_to_poly(entry, n_p: int, where: str) -> PolyCoeff:
    terms = []
    for term in entry:
        mono = tuple(tuple(_json_number(v[k], f"{where}: {k}", InvalidModel, integer=True)
                           for k in ("comp", "offset", "power"))
                     for v in term.get("vars", []))
        terms.append((_json_number(term["coeff"], f"{where}: coeff", InvalidModel), mono))
    try:
        return PolyCoeff(n_p, tuple(terms))
    except DimensionMismatch as e:  # a component or power out of range
        raise InvalidModel(f"{where}: {e}") from None


def _matrix_to_lists(m: CoeffMatrix) -> list:
    return [[_poly_to_entry(e) for e in row] for row in m.entries]


def _matrix_from_lists(data, n_p: int, name: str) -> CoeffMatrix:
    entries = [[_entry_to_poly(e, n_p, f"{name}[{i}][{j}]") for j, e in enumerate(row)]
               for i, row in enumerate(data)]
    try:
        return CoeffMatrix(entries)
    except InvalidModel as e:  # "[i][j]: ..." of the one entry at fault
        raise InvalidModel(f"{name}{e}") from None


# The dimensions each model form declares beside n_p: model_to_dict writes them, and
# model_from_dict checks each one a file gives against the model it reads.
_DIMS = {"ss": ("n_x", "n_u", "n_y"), "io": ("n_u", "n_y", "n_a", "n_b")}


def model_to_dict(model) -> dict:
    if isinstance(model, LpvSsModel):
        kind, fields = "ss", {name: _matrix_to_lists(getattr(model, name)) for name in "ABCD"}
    elif isinstance(model, LpvIoModel):
        kind, fields = "io", {key: [_matrix_to_lists(m) for m in getattr(model, key)]
                              for key in ("a_coeffs", "b_coeffs")}
    else:
        raise InvalidModel(f"cannot serialize {type(model).__name__}")
    dims = {key: getattr(model, key) for key in ("n_p",) + _DIMS[kind]}
    return {"kind": kind, **dims, **fields}


def model_from_dict(data: dict):
    kind = data.get("kind")
    n_p = _json_number(data["n_p"], "n_p", InvalidModel, integer=True)
    if n_p < 0:
        raise InvalidModel(f"n_p must be >= 0, got {n_p}")
    if kind == "ss":
        model = LpvSsModel(**{name: _matrix_from_lists(data[name], n_p, name)
                              for name in "ABCD"})
    elif kind == "io":
        model = LpvIoModel(**{key: tuple(_matrix_from_lists(m, n_p, f"{key}[{i}]")
                                         for i, m in enumerate(data[key]))
                              for key in ("a_coeffs", "b_coeffs")})
    else:
        raise InvalidModel(f"unknown model kind {kind!r}")
    for key in _DIMS[kind]:  # optional, but a declared dimension must be the model's
        if key in data and _json_number(data[key], key, InvalidModel,
                                        integer=True) != getattr(model, key):
            raise InvalidModel(f"{key} is declared {data[key]}, "
                               f"but the model has {getattr(model, key)}")
    return model


def save_model(path, model) -> None:
    _write(path, _json_text(model_to_dict(model)))


def load_model(path):
    """The model in ``path``; :class:`InvalidModel` naming ``path`` when it cannot be
    opened, is not UTF-8 or is not a JSON model (a missing key is named too)."""
    return _read(path, lambda text: model_from_dict(json.loads(text)), InvalidModel)
