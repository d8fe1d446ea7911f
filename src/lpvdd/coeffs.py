"""Coefficient functions of time-shifted scheduling samples.

A :class:`PolyCoeff` is a multivariate polynomial in the variables
``p_j(k + d)``: component ``j`` of the scheduling signal read at a signed
time offset ``d`` relative to the evaluation instant.  Evaluating such a
coefficient along a concrete scheduling trajectory turns it into an ordinary
time-varying real coefficient; that evaluation is :meth:`PolyCoeff.eval`.

The algebra is deliberately exact: terms are kept in a canonical sorted
form, coefficients are merged with plain float addition, and only exact
zeros are dropped.  Time-shifting a coefficient re-indexes every offset,
which gives the defining identity

    c.shift(1).eval(p, k) == c.eval(p, k + 1)

and makes multiplication with the signal shift operator non-commutative,
as it must be for scheduling-dependent coefficients.

:class:`CoeffMatrix` lifts the scalar calculus entrywise to matrices, with
matrix products combining entry products and sums.

The symbolic algebra is the specification; numeric code does not run it.
Each :class:`CoeffMatrix` is lowered once, on first evaluation, to a
compiled form: the sorted table of the distinct monomials of its entries
and a coefficient tensor ``C`` of shape ``(n_mono, rows * cols)``, with
``C[m, i * cols + j]`` the coefficient of monomial ``m`` in entry ``(i, j)``.
Evaluating along ``p`` at every ``k`` in ``k1..k2`` is then one product
``Phi(p) @ C``, where ``Phi[k, m]`` is the value of monomial ``m`` at time
``k`` (:meth:`CoeffMatrix.eval_range`); :meth:`CoeffMatrix.eval` is its
one-step case.  The compiled form is cached on the instance, whose entries
are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, WindowOutOfRange
from .signals import Trajectory

__all__ = [
    "SchedVar",
    "PolyCoeff",
    "CoeffMatrix",
]

# A monomial is a sorted tuple of (component, offset, power) triples with
# power >= 1; the empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SchedVar:
    """One scheduling variable ``p_component(k + offset)``.

    ``component`` is 1-based; ``offset`` is a signed time shift.
    """

    component: int
    offset: int = 0

    def __post_init__(self):
        if self.component < 1:
            raise DimensionMismatch(f"component must be >= 1, got {self.component}")


def _normalize(terms: dict[Monomial, float]) -> tuple[tuple[float, Monomial], ...]:
    out = []
    for mono in sorted(terms):
        c = terms[mono]
        if c != 0.0:
            out.append((float(c), mono))
    return tuple(out)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    powers: dict[tuple[int, int], int] = {}
    for comp, off, pw in m1 + m2:
        powers[(comp, off)] = powers.get((comp, off), 0) + pw
    return tuple((c, o, p) for (c, o), p in sorted(powers.items()))


@dataclass(frozen=True)
class PolyCoeff:
    """Polynomial in shifted scheduling samples, in canonical form.

    ``terms`` is a sorted tuple of ``(coefficient, monomial)`` pairs with no
    zero coefficients and no duplicate monomials; the zero polynomial has no
    terms.  ``n_p`` is the scheduling dimension the polynomial lives over.
    """

    n_p: int
    terms: tuple[tuple[float, Monomial], ...] = ()

    def __post_init__(self):
        acc: dict[Monomial, float] = {}
        for coeff, mono in self.terms:
            key = _mono_mul(mono, ())  # sorts and merges repeated variables
            for comp, off, pw in key:
                if comp < 1 or comp > self.n_p:
                    raise DimensionMismatch(
                        f"component {comp} outside [1, {self.n_p}]"
                    )
                if pw < 1:
                    raise DimensionMismatch(f"power must be >= 1, got {pw}")
            acc[key] = acc.get(key, 0.0) + float(coeff)
        object.__setattr__(self, "terms", _normalize(acc))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n_p: int) -> "PolyCoeff":
        return cls(n_p, ())

    @classmethod
    def constant(cls, value: float, n_p: int) -> "PolyCoeff":
        return cls(n_p, ((float(value), ()),))

    @classmethod
    def var(cls, component: int, n_p: int, offset: int = 0) -> "PolyCoeff":
        """The coordinate function ``p_component(k + offset)``."""
        return cls.monomial(1.0, [SchedVar(component, offset)], n_p)

    @classmethod
    def monomial(cls, coeff: float, variables, n_p: int) -> "PolyCoeff":
        """Single term ``coeff * prod(variables)``.

        ``variables`` may mix :class:`SchedVar` instances (power 1) and
        ``(component, offset, power)`` triples; repeats multiply.
        """
        mono = tuple(
            (v.component, v.offset, 1) if isinstance(v, SchedVar) else tuple(v)
            for v in variables
        )
        return cls(n_p, ((float(coeff), mono),))

    @classmethod
    def affine(cls, const: float, linear, n_p: int, offset: int = 0) -> "PolyCoeff":
        """``const + sum_j linear[j] * p_{j+1}(k + offset)``."""
        terms = [(float(const), ())]
        for j, c in enumerate(linear):
            terms.append((float(c), ((j + 1, offset, 1),)))
        return cls(n_p, tuple(terms))

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_value(self) -> float:
        for coeff, mono in self.terms:
            if mono == ():
                return coeff
        return 0.0

    @property
    def degree(self) -> int:
        """Total degree (0 for constants and the zero polynomial)."""
        return max((sum(pw for _, _, pw in mono) for _, mono in self.terms), default=0)

    @property
    def window(self) -> tuple[int, int] | None:
        """Tight hull ``[d_min, d_max]`` of offsets, or None if constant."""
        offsets = [off for _, mono in self.terms for _, off, _ in mono]
        if not offsets:
            return None
        return (min(offsets), max(offsets))

    # -- evaluation ----------------------------------------------------------

    def eval(self, p: Trajectory, k: int) -> float:
        """Value of the coefficient along scheduling ``p`` at time ``k``."""
        if p.dim != self.n_p:
            raise DimensionMismatch(
                f"scheduling dim {p.dim} does not match coefficient n_p {self.n_p}"
            )
        win = self.window
        if win is not None and not p.covers(k + win[0], k + win[1]):
            raise WindowOutOfRange(
                f"evaluation at k={k} needs p on [{k + win[0]}, {k + win[1]}], "
                f"have [{p.t_start}, {p.t_end}]"
            )
        total = 0.0
        base = p.t_start
        samples = p.samples
        for coeff, mono in self.terms:
            v = coeff
            for comp, off, pw in mono:
                v *= samples[k + off - base, comp - 1] ** pw
            total += v
        return total

    # -- algebra -------------------------------------------------------------

    def shift(self, d: int) -> "PolyCoeff":
        """Add ``d`` to every offset (time re-indexing of all arguments)."""
        if d == 0:
            return self
        terms = tuple(
            (coeff, tuple((comp, off + d, pw) for comp, off, pw in mono))
            for coeff, mono in self.terms
        )
        return PolyCoeff(self.n_p, terms)

    def _check_np(self, other: "PolyCoeff") -> None:
        if self.n_p != other.n_p:
            raise DimensionMismatch(f"n_p differs: {self.n_p} vs {other.n_p}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = PolyCoeff.constant(other, self.n_p)
        self._check_np(other)
        return PolyCoeff(self.n_p, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyCoeff(self.n_p, tuple((-c, m) for c, m in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = PolyCoeff.constant(other, self.n_p)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return PolyCoeff(
                self.n_p, tuple((c * float(other), m) for c, m in self.terms)
            )
        self._check_np(other)
        acc: dict[Monomial, float] = {}
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                key = _mono_mul(m1, m2)
                acc[key] = acc.get(key, 0.0) + c1 * c2
        return PolyCoeff(self.n_p, tuple((c, m) for m, c in acc.items()))

    __rmul__ = __mul__

    def __repr__(self):
        if self.is_zero:
            return f"PolyCoeff<0; n_p={self.n_p}>"
        parts = []
        for coeff, mono in self.terms:
            factors = [repr(coeff)]
            for comp, off, pw in mono:
                s = f"p{comp}[k{off:+d}]"
                factors.append(s if pw == 1 else f"{s}^{pw}")
            parts.append("*".join(factors))
        return f"PolyCoeff<{' + '.join(parts)}; n_p={self.n_p}>"


class CoeffMatrix:
    """Matrix of :class:`PolyCoeff` entries sharing one scheduling dimension."""

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("CoeffMatrix must have at least one entry")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows in CoeffMatrix")
        n_p = rows[0][0].n_p
        for r in rows:
            for e in r:
                if e.n_p != n_p:
                    raise DimensionMismatch("entries disagree on n_p")
        self.entries: tuple[tuple[PolyCoeff, ...], ...] = rows
        self.rows = len(rows)
        self.cols = ncols
        self.n_p = n_p

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, values, n_p: int) -> "CoeffMatrix":
        arr = np.atleast_2d(np.asarray(values, dtype=float))
        return cls(
            [[PolyCoeff.constant(arr[i, j], n_p) for j in range(arr.shape[1])]
             for i in range(arr.shape[0])]
        )

    @classmethod
    def zeros(cls, rows: int, cols: int, n_p: int) -> "CoeffMatrix":
        return cls([[PolyCoeff.zero(n_p)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, n_p: int) -> "CoeffMatrix":
        return cls.constant(np.eye(n), n_p)

    @classmethod
    def affine(cls, const, linear=(), offset: int = 0) -> "CoeffMatrix":
        """Entrywise ``const + sum_j linear[j] * p_{j+1}(k + offset)``.

        ``linear`` is a sequence of arrays, one per scheduling component;
        its length fixes ``n_p``.
        """
        c0 = np.atleast_2d(np.asarray(const, dtype=float))
        lin = [np.atleast_2d(np.asarray(m, dtype=float)) for m in linear]
        n_p = len(lin)
        for m in lin:
            if m.shape != c0.shape:
                raise DimensionMismatch(
                    f"linear part shape {m.shape} differs from constant {c0.shape}"
                )
        out = []
        for i in range(c0.shape[0]):
            row = []
            for j in range(c0.shape[1]):
                row.append(
                    PolyCoeff.affine(
                        c0[i, j], [m[i, j] for m in lin], n_p=n_p, offset=offset
                    )
                )
            out.append(row)
        return cls(out)

    # -- structure -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @cached_property
    def _compiled(self):
        """``(monomials, C, window)``: the sorted distinct monomials of the
        entries, the coefficient tensor ``C`` of shape ``(n_mono, rows * cols)``
        and the hull of their offsets (None if constant)."""
        flat = [e for row in self.entries for e in row]
        monos = sorted({mono for e in flat for _, mono in e.terms})
        index = {mono: m for m, mono in enumerate(monos)}
        coeffs = np.zeros((len(monos), len(flat)))
        for j, e in enumerate(flat):
            for c, mono in e.terms:
                coeffs[index[mono], j] = c
        offsets = [off for mono in monos for _, off, _ in mono]
        window = (min(offsets), max(offsets)) if offsets else None
        return monos, coeffs, window

    @property
    def window(self) -> tuple[int, int] | None:
        return self._compiled[2]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def entry(self, i: int, j: int) -> PolyCoeff:
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, CoeffMatrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"CoeffMatrix<{self.rows}x{self.cols}, n_p={self.n_p}>"

    # -- algebra -------------------------------------------------------------

    def shift(self, d: int) -> "CoeffMatrix":
        return CoeffMatrix([[e.shift(d) for e in row] for row in self.entries])

    def __add__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        if self.n_p != other.n_p:
            raise DimensionMismatch(f"n_p differs: {self.n_p} vs {other.n_p}")
        return CoeffMatrix(
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "CoeffMatrix":
        return CoeffMatrix([[-e for e in row] for row in self.entries])

    def __sub__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        return self + (-other)

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if self.n_p != other.n_p:
            raise DimensionMismatch(f"n_p differs: {self.n_p} vs {other.n_p}")
        zero = PolyCoeff.zero(self.n_p)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for l in range(self.cols):
                    e = self.entries[i][l]
                    f = other.entries[l][j]
                    if e.is_zero or f.is_zero:
                        continue
                    acc = acc + e * f
                row.append(acc)
            out.append(row)
        return CoeffMatrix(out)

    def eval(self, p: Trajectory, k: int) -> np.ndarray:
        """Real matrix obtained by evaluating every entry along ``p`` at ``k``."""
        return self.eval_range(p, k, k)[0]

    def eval_range(self, p: Trajectory, k1: int, k2: int) -> np.ndarray:
        """Evaluations along ``p`` at ``k = k1, ..., k2``, shape ``(k2 - k1 + 1, rows, cols)``.

        Empty when ``k2 < k1``.
        """
        if p.dim != self.n_p:
            raise DimensionMismatch(
                f"scheduling dim {p.dim} does not match coefficient n_p {self.n_p}"
            )
        win = self.window
        n = max(k2 - k1 + 1, 0)
        if n and win is not None and not p.covers(k1 + win[0], k2 + win[1]):
            raise WindowOutOfRange(
                f"evaluation at k={k1}..{k2} needs p on [{k1 + win[0]}, {k2 + win[1]}], "
                f"have [{p.t_start}, {p.t_end}]"
            )
        return self._eval_rows(p.samples, k1 - p.t_start, n)

    def _eval_rows(self, samples: np.ndarray, start: int, n: int) -> np.ndarray:
        """Unchecked :meth:`eval_range` from row ``start`` of ``samples`` ``(..., W, n_p)``,
        leading (trial) axes kept: one product ``Phi @ C`` of the monomial values
        ``Phi[..., k, m]`` with the compiled coefficient tensor."""
        monos, coeffs, _ = self._compiled
        phi = np.ones(samples.shape[:-2] + (n, len(monos)))
        for m, mono in enumerate(monos):
            for comp, off, pw in mono:
                phi[..., m] *= samples[..., start + off : start + off + n, comp - 1] ** pw
        return (phi @ coeffs).reshape(phi.shape[:-1] + (self.rows, self.cols))

    @staticmethod
    def vstack(blocks) -> "CoeffMatrix":
        blocks = list(blocks)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise DimensionMismatch("vstack blocks disagree on column count")
        return CoeffMatrix([row for b in blocks for row in b.entries])

    @staticmethod
    def hstack(blocks) -> "CoeffMatrix":
        blocks = list(blocks)
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise DimensionMismatch("hstack blocks disagree on row count")
        return CoeffMatrix(
            [sum((list(b.entries[i]) for b in blocks), []) for i in range(rows)]
        )

