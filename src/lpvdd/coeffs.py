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

:class:`CoeffMatrix` holds a matrix of such coefficients as one matrix
polynomial ``sum_m C_m * phi_m``: one real ``(rows, cols)`` array ``C_m`` per
monomial ``phi_m``, with sums merging the arrays of equal monomials and
products summing ``C1 @ C2`` into the product monomial.  Its entries are
:class:`PolyCoeff` views, the scalar specification.  Evaluating along ``p``
at every ``k`` in ``k1..k2`` is one product ``Phi(p) @ C``, where
``Phi[k, m]`` is the value of monomial ``m`` at time ``k`` and ``C`` stacks
the flattened arrays in monomial order (:meth:`CoeffMatrix.eval_range`);
:meth:`CoeffMatrix.eval` is its one-step case.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidModel, WindowOutOfRange
from .signals import Trajectory

__all__ = [
    "PolyCoeff",
    "CoeffMatrix",
]

# A monomial is a sorted tuple of (component, offset, power) triples with
# power >= 1; the empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int, int], ...]


def _normalize(terms: dict[Monomial, float]) -> tuple[tuple[float, Monomial], ...]:
    return tuple((float(terms[mono]), mono) for mono in sorted(terms) if terms[mono] != 0.0)


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
                    raise DimensionMismatch(f"component {comp} outside [1, {self.n_p}]")
                if pw < 1:
                    raise DimensionMismatch(f"power must be >= 1, got {pw}")
            acc[key] = acc.get(key, 0.0) + float(coeff)
        object.__setattr__(self, "terms", _normalize(acc))

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: float, n_p: int) -> "PolyCoeff":
        return cls(n_p, ((float(value), ()),))

    @classmethod
    def var(cls, component: int, n_p: int, offset: int = 0) -> "PolyCoeff":
        """The coordinate function ``p_component(k + offset)``."""
        return cls.monomial(1.0, [(component, offset, 1)], n_p)

    @classmethod
    def monomial(cls, coeff: float, variables, n_p: int) -> "PolyCoeff":
        """Single term ``coeff * prod(variables)`` of ``(component, offset, power)``
        triples; repeats multiply.
        """
        return cls(n_p, ((float(coeff), tuple(map(tuple, variables))),))

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def window(self) -> tuple[int, int] | None:
        """Tight hull ``[d_min, d_max]`` of offsets, or None if constant."""
        offsets = [off for _, mono in self.terms for _, off, _ in mono]
        return (min(offsets), max(offsets)) if offsets else None

    # -- evaluation ----------------------------------------------------------

    def eval(self, p: Trajectory, k: int) -> float:
        """Value of the coefficient along scheduling ``p`` at time ``k``."""
        if p.dim != self.n_p:
            raise DimensionMismatch(f"scheduling dim {p.dim} does not match coefficient "
                                    f"n_p {self.n_p}")
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
        return PolyCoeff(self.n_p, tuple((c, tuple((j, off + d, pw) for j, off, pw in mono))
                                         for c, mono in self.terms))

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
            return PolyCoeff(self.n_p, tuple((c * float(other), m) for c, m in self.terms))
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
    """Matrix polynomial ``sum_m C_m * phi_m`` in shifted scheduling samples.

    ``terms`` maps each monomial ``phi_m``, in sorted order, to its real
    ``(rows, cols)`` coefficient array ``C_m``: a private, read-only, finite
    array that is not all zero.  The entries are :class:`PolyCoeff` views.
    """

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("CoeffMatrix must have at least one entry")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows in CoeffMatrix")
        n_p = rows[0][0].n_p
        if any(e.n_p != n_p for r in rows for e in r):
            raise DimensionMismatch("entries disagree on n_p")
        terms = defaultdict(lambda: np.zeros((len(rows), len(rows[0]))))
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                for c, mono in e.terms:
                    terms[mono][i, j] = c
        self._hold(terms, len(rows), len(rows[0]), n_p)

    def _hold(self, terms, rows: int, cols: int, n_p: int) -> None:
        """Keep ``terms`` in monomial order as rows of one private, read-only stack,
        without -0.0 and without all-zero arrays; :class:`InvalidModel` names a
        non-finite entry."""
        if rows < 1 or cols < 1:
            raise DimensionMismatch("CoeffMatrix must have at least one entry")
        monos = sorted(terms)
        stack = np.array([terms[mono] for mono in monos], dtype=float).reshape(-1, rows, cols)
        stack += 0.0
        if not np.isfinite(stack).all():
            m, i, j = np.argwhere(~np.isfinite(stack))[0]
            raise InvalidModel(f"[{i}][{j}]: non-finite coefficient {stack[m, i, j]}")
        keep = stack.any(axis=(1, 2))
        stack = stack[keep]
        stack.flags.writeable = False
        self.rows, self.cols, self.n_p = rows, cols, n_p
        self.terms: dict[Monomial, np.ndarray] = dict(
            zip([mono for mono, k in zip(monos, keep) if k], stack))
        self._stack = stack.reshape(len(stack), rows * cols)

    @classmethod
    def _of(cls, terms, rows: int, cols: int, n_p: int) -> "CoeffMatrix":
        M = cls.__new__(cls)
        M._hold(terms, rows, cols, n_p)
        return M

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, values, n_p: int) -> "CoeffMatrix":
        arr = np.atleast_2d(np.asarray(values, dtype=float))
        return cls._of({(): arr}, arr.shape[0], arr.shape[1], n_p)

    @classmethod
    def zeros(cls, rows: int, cols: int, n_p: int) -> "CoeffMatrix":
        return cls._of({}, rows, cols, n_p)

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
        for m in lin:
            if m.shape != c0.shape:
                raise DimensionMismatch(f"linear part shape {m.shape} differs from "
                                        f"constant {c0.shape}")
        terms = {((j + 1, offset, 1),): m for j, m in enumerate(lin)}
        return cls._of({(): c0, **terms}, c0.shape[0], c0.shape[1], len(lin))

    # -- structure -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def window(self) -> tuple[int, int] | None:
        offsets = [off for mono in self.terms for _, off, _ in mono]
        return (min(offsets), max(offsets)) if offsets else None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def entries(self) -> tuple[tuple[PolyCoeff, ...], ...]:
        return tuple(tuple(self.entry(i, j) for j in range(self.cols))
                     for i in range(self.rows))

    def entry(self, i: int, j: int) -> PolyCoeff:
        return PolyCoeff(self.n_p, tuple((C[i, j], mono) for mono, C in self.terms.items()))

    def __eq__(self, other):
        return (isinstance(other, CoeffMatrix) and self.shape == other.shape
                and self.n_p == other.n_p and self.terms.keys() == other.terms.keys()
                and all(np.array_equal(C, other.terms[m]) for m, C in self.terms.items()))

    def __hash__(self):  # the stack holds no -0.0
        return hash((self.shape, self.n_p, tuple(self.terms), self._stack.tobytes()))

    def __repr__(self):
        return f"CoeffMatrix<{self.rows}x{self.cols}, n_p={self.n_p}>"

    # -- algebra -------------------------------------------------------------

    def _with(self, terms) -> "CoeffMatrix":
        return CoeffMatrix._of(terms, self.rows, self.cols, self.n_p)

    def shift(self, d: int) -> "CoeffMatrix":
        return self._with({tuple((comp, off + d, pw) for comp, off, pw in mono): C
                           for mono, C in self.terms.items()})

    def __add__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        if self.n_p != other.n_p:
            raise DimensionMismatch(f"n_p differs: {self.n_p} vs {other.n_p}")
        terms = dict(self.terms)
        for mono, C in other.terms.items():
            terms[mono] = terms.get(mono, 0.0) + C
        return self._with(terms)

    def __neg__(self) -> "CoeffMatrix":
        return self._with({mono: -C for mono, C in self.terms.items()})

    def __sub__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        return self + (-other)

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if self.n_p != other.n_p:
            raise DimensionMismatch(f"n_p differs: {self.n_p} vs {other.n_p}")
        terms: dict[Monomial, np.ndarray] = {}
        for m1, C1 in self.terms.items():
            for m2, C2 in other.terms.items():
                key = _mono_mul(m1, m2)
                terms[key] = terms.get(key, 0.0) + C1 @ C2
        return CoeffMatrix._of(terms, self.rows, other.cols, self.n_p)

    def eval(self, p: Trajectory, k: int) -> np.ndarray:
        """Real matrix obtained by evaluating every entry along ``p`` at ``k``."""
        return self.eval_range(p, k, k)[0]

    def eval_range(self, p: Trajectory, k1: int, k2: int) -> np.ndarray:
        """Evaluations along ``p`` at ``k = k1, ..., k2``, shape ``(k2 - k1 + 1, rows, cols)``.

        Empty when ``k2 < k1``.
        """
        if p.dim != self.n_p:
            raise DimensionMismatch(f"scheduling dim {p.dim} does not match coefficient "
                                    f"n_p {self.n_p}")
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
        ``Phi[..., k, m]`` with the stacked arrays."""
        phi = np.ones(samples.shape[:-2] + (n, len(self.terms)))
        for m, mono in enumerate(self.terms):
            for comp, off, pw in mono:
                phi[..., m] *= samples[..., start + off : start + off + n, comp - 1] ** pw
        return (phi @ self._stack).reshape(phi.shape[:-1] + (self.rows, self.cols))

    @staticmethod
    def vstack(blocks) -> "CoeffMatrix":
        return CoeffMatrix._concat(list(blocks), 0, "vstack blocks disagree on column count")

    @staticmethod
    def hstack(blocks) -> "CoeffMatrix":
        return CoeffMatrix._concat(list(blocks), 1, "hstack blocks disagree on row count")

    @staticmethod
    def _concat(blocks, axis: int, mismatch: str) -> "CoeffMatrix":
        """``blocks`` joined along ``axis``: each monomial's array holds each block's
        array of that monomial, and zeros where the block lacks it."""
        if len({b.shape[1 - axis] for b in blocks}) > 1:
            raise DimensionMismatch(mismatch)
        if len({b.n_p for b in blocks}) > 1:
            raise DimensionMismatch("entries disagree on n_p")
        shape = list(blocks[0].shape)
        shape[axis] = sum(b.shape[axis] for b in blocks)
        terms = defaultdict(lambda: np.zeros(shape))
        at = 0
        for b in blocks:
            part = (slice(None),) * axis + (slice(at, at + b.shape[axis]),)
            for mono, C in b.terms.items():
                terms[mono][part] = C
            at += b.shape[axis]
        return CoeffMatrix._of(terms, *shape, blocks[0].n_p)
