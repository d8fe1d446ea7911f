"""Coefficient calculus: evaluation, shifts, ring laws, canonical form."""

import operator

import numpy as np
import pytest
from conftest import rand_coeff_matrix, rand_poly, rand_traj, traj_covering
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvdd import (
    CoeffMatrix,
    DimensionMismatch,
    InvalidModel,
    InvalidShape,
    PolyCoeff,
    Trajectory,
    WindowOutOfRange,
)


def test_constant_ignores_scheduling():
    c = PolyCoeff.constant(3.5, n_p=2)
    p = rand_traj(np.random.default_rng(0), 2, 5)
    for k in range(1, 6):
        assert c.eval(p, k) == 3.5


def test_single_variable_reads_off_sample():
    c = PolyCoeff.var(1, n_p=1)
    p = Trajectory(1, [[1.0], [2.0], [3.0]])
    assert c.eval(p, 2) == 2.0


def test_monomial_constructor_takes_triples():
    c = PolyCoeff.monomial(2.0, [(1, 0, 1), (2, -1, 1)], n_p=2)
    p = Trajectory(1, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    assert c.eval(p, 2) == 2.0 * 2.0 * 4.0
    # repeated variables collapse into powers
    sq = PolyCoeff.monomial(1.0, [(1, 0, 1), (1, 0, 1)], n_p=1)
    assert sq == PolyCoeff.monomial(1.0, [(1, 0, 2)], n_p=1)
    # the power range is read after the merge
    assert PolyCoeff.monomial(1.0, [(1, 0, 2), (1, 0, -1)], n_p=1) == PolyCoeff.var(1, n_p=1)
    assert PolyCoeff.var(2, n_p=2, offset=-1) == PolyCoeff.monomial(1.0, [(2, -1, 1)], 2)
    with pytest.raises(DimensionMismatch, match=r"component 0 outside \[1, 1\]"):
        PolyCoeff.var(0, n_p=1)
    with pytest.raises(DimensionMismatch, match="power must be >= 1, got 0"):
        PolyCoeff.monomial(1.0, [(1, 0, 0)], n_p=1)


def test_two_term_polynomial_hand_value():
    # p1(k) * p2(k-1) + 2 at k=2 with p1=(1,2,3), p2=(4,5,6)
    c = PolyCoeff.var(1, n_p=2) * PolyCoeff.var(2, n_p=2, offset=-1) + 2.0
    p = Trajectory(1, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    assert c.eval(p, 2) == pytest.approx(2 * 4 + 2, abs=0)

    # direct substitution oracle over every admissible k
    for k in (2, 3):
        expected = p.value(k)[0] * p.value(k - 1)[1] + 2.0
        assert c.eval(p, k) == pytest.approx(expected, rel=1e-15)


def test_eval_errors():
    c = PolyCoeff.var(1, n_p=2, offset=-1)
    p = rand_traj(np.random.default_rng(1), 2, 4)
    with pytest.raises(WindowOutOfRange):
        c.eval(p, 1)  # needs p(0)
    with pytest.raises(DimensionMismatch):
        c.eval(rand_traj(np.random.default_rng(2), 3, 4), 2)


def test_shift_of_constant_is_identity():
    c = PolyCoeff.constant(3.5, n_p=1)
    assert c.shift(1) == c
    assert c.shift(-1) == c


def test_shift_eval_commutation_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n_p = int(rng.integers(1, 4))
        c = rand_poly(rng, n_p)
        sc = c.shift(1)
        win = (c.window or (0, 0))
        p = traj_covering(rng, c, n_p, k_lo=0, k_hi=2)
        k = 0
        # identical float operations on identical samples: bitwise equality
        assert sc.eval(p, k) == c.eval(p, k + 1)
        assert c.shift(1).shift(-1) == c
        assert (win[0] + 1, win[1] + 1) == (sc.window or (1, 1))


def test_noncommutativity_witness():
    # any non-constant coefficient over non-constant scheduling
    c = PolyCoeff.var(1, n_p=1)
    p = Trajectory(1, [[1.0], [5.0]])
    assert c.shift(1).eval(p, 1) != c.eval(p, 1)


def test_mul_by_zero_annihilates():
    rng = np.random.default_rng(4)
    c = rand_poly(rng, 2)
    assert (c * PolyCoeff(2)).is_zero


def test_add_negate_gives_zero():
    rng = np.random.default_rng(5)
    c = rand_poly(rng, 2)
    assert (c + -c).is_zero


def test_mul_add_evaluation_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_p = int(rng.integers(1, 3))
        c1, c2 = rand_poly(rng, n_p), rand_poly(rng, n_p)
        both = c1 * c2 + c1
        p = traj_covering(rng, both, n_p, k_lo=0, k_hi=0)
        v1, v2 = c1.eval(p, 0), c2.eval(p, 0)
        assert (c1 * c2).eval(p, 0) == pytest.approx(v1 * v2, rel=1e-12, abs=1e-12)
        assert (c1 + c2).eval(p, 0) == pytest.approx(v1 + v2, rel=1e-12, abs=1e-12)


def test_ring_laws_under_evaluation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = (rand_poly(rng, 2, max_terms=3, max_vars=2) for _ in range(3))
        probe = (a + b) * c + a * (b + c)  # reach all offsets
        p = traj_covering(rng, probe, 2, k_lo=0, k_hi=0)

        def ev(x):
            return x.eval(p, 0)

        assert ev((a * b) * c) == pytest.approx(ev(a * (b * c)), rel=1e-10, abs=1e-10)
        assert ev(a * b) == pytest.approx(ev(b * a), rel=1e-12, abs=1e-12)
        assert ev(a * (b + c)) == pytest.approx(ev(a * b + a * c), rel=1e-10, abs=1e-10)


def test_canonical_form_idempotent_and_order_independent():
    t1 = (2.0, ((1, 0, 1), (2, -1, 1)))
    t2 = (3.0, ())
    c_a = PolyCoeff(2, (t1, t2))
    c_b = PolyCoeff(2, (t2, t1))
    assert c_a == c_b
    assert c_a.terms == PolyCoeff(2, c_a.terms).terms
    # duplicate monomials merge; exact zero coefficients drop
    c_c = PolyCoeff(2, (t1, t1, (-4.0, ((1, 0, 1), (2, -1, 1)))))
    assert c_c.is_zero
    # repeated variables inside one monomial merge into a power
    c_d = PolyCoeff(1, ((1.0, ((1, 0, 1), (1, 0, 1))),))
    assert c_d == PolyCoeff(1, ((1.0, ((1, 0, 2),)),))


def test_window_is_tight_hull():
    c = PolyCoeff(2, ((1.0, ((1, -3, 1),)), (2.0, ((2, 4, 1),))))
    assert c.window == (-3, 4)
    assert PolyCoeff.constant(1.0, 2).window is None


# -- matrices ------------------------------------------------------------------


def test_identity_matrix_evaluates_to_identity():
    I = CoeffMatrix.identity(3, n_p=2)
    p = rand_traj(np.random.default_rng(8), 2, 3)
    assert np.array_equal(I.eval(p, 2), np.eye(3))


def test_constant_matrices_multiply_like_reals():
    rng = np.random.default_rng(9)
    A, B = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    MA, MB = CoeffMatrix.constant(A, 1), CoeffMatrix.constant(B, 1)
    p = rand_traj(rng, 1, 1)
    assert np.allclose((MA @ MB).eval(p, 1), A @ B, atol=1e-14)


def test_matrix_product_evaluation_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        M1 = rand_coeff_matrix(rng, 3, 3, 2)
        M2 = rand_coeff_matrix(rng, 3, 3, 2)
        prod = M1 @ M2
        p = traj_covering(rng, prod, 2, k_lo=0, k_hi=0)
        direct = prod.eval(p, 0)
        factored = M1.eval(p, 0) @ M2.eval(p, 0)
        assert np.max(np.abs(direct - factored)) < 1e-12


def test_matrix_shift_distributes_entrywise():
    rng = np.random.default_rng(11)
    M = rand_coeff_matrix(rng, 2, 3, 2)
    S = M.shift(1)
    for i in range(2):
        for j in range(3):
            assert S.entry(i, j) == M.entry(i, j).shift(1)


def test_matrix_dimension_errors():
    A = CoeffMatrix.zeros(2, 3, 1)
    B = CoeffMatrix.zeros(2, 3, 1)
    with pytest.raises(DimensionMismatch):
        A @ B
    with pytest.raises(DimensionMismatch):
        CoeffMatrix.zeros(2, 2, 1) @ CoeffMatrix.zeros(2, 2, 2)


_ONE, _TWO = PolyCoeff.constant(1.0, 1), PolyCoeff.constant(1.0, 2)


@pytest.mark.parametrize("make,message", [
    (lambda: CoeffMatrix([]), "CoeffMatrix must have at least one entry"),
    (lambda: CoeffMatrix([[]]), "CoeffMatrix must have at least one entry"),
    (lambda: CoeffMatrix([[_ONE, _ONE], [_ONE]]), "ragged rows in CoeffMatrix"),
    (lambda: CoeffMatrix([[_ONE, _TWO]]), "entries disagree on n_p"),
    (lambda: CoeffMatrix.zeros(2, 3, 1) + CoeffMatrix.zeros(3, 2, 1),
     r"shapes differ: \(2, 3\) vs \(3, 2\)"),
    (lambda: CoeffMatrix.zeros(2, 2, 1) + CoeffMatrix.zeros(2, 2, 2), "n_p differs: 1 vs 2"),
    (lambda: CoeffMatrix.vstack([CoeffMatrix.zeros(1, 2, 1), CoeffMatrix.zeros(1, 3, 1)]),
     "vstack blocks disagree on column count"),
    (lambda: CoeffMatrix.hstack([CoeffMatrix.zeros(1, 2, 1), CoeffMatrix.zeros(2, 2, 1)]),
     "hstack blocks disagree on row count"),
    (lambda: CoeffMatrix.vstack([CoeffMatrix.zeros(1, 2, 1), CoeffMatrix.zeros(1, 2, 2)]),
     "entries disagree on n_p"),
    (lambda: CoeffMatrix.affine([[1.0, 2.0]], ([[1.0]],)),
     r"linear part shape \(1, 1\) differs from constant \(1, 2\)"),
    (lambda: PolyCoeff.var(1, n_p=1) + PolyCoeff.var(1, n_p=2), "n_p differs: 1 vs 2"),
])
def test_ill_formed_coefficients_are_not_made(make, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        make()


def test_poly_minus_a_number_subtracts_a_constant():
    c = PolyCoeff.var(1, n_p=1)
    assert c - 2 == c + PolyCoeff.constant(-2.0, 1)
    assert (c - 2.5).eval(Trajectory(1, [[4.0]]), 1) == 1.5


def _bits(c: PolyCoeff) -> list:
    return [(coeff.hex(), mono) for coeff, mono in c.terms]


def test_poly_arithmetic_with_a_scalar_is_with_its_constant():
    # a numpy scalar runs as the equal float, where it failed bare on .n_p; an int or a
    # float gives the bits that scaling each term gave
    c = PolyCoeff(2, ((0.1, ((1, 0, 1),)), (-3.0, ()), (1e-300, ((2, -1, 2),))))
    for s in (2, 2.5, 0.3, 1e-300, -0.0, 0):
        scaled = PolyCoeff(2, tuple((x * float(s), m) for x, m in c.terms))
        assert _bits(c * s) == _bits(s * c) == _bits(scaled), s
        for op in (operator.add, operator.sub, operator.mul):
            assert _bits(op(c, s)) == _bits(op(c, PolyCoeff.constant(s, 2))), (op, s)
    assert _bits(c * np.float32(2)) == _bits(c * 2.0)
    assert _bits(c + np.int64(1)) == _bits(c + 1)
    with pytest.raises(InvalidShape, match="^coeff must be a real number, got True$"):
        c + True


def test_poly_repr_names_each_term():
    assert repr(PolyCoeff.constant(2.5, 1)) == "PolyCoeff<2.5; n_p=1>"
    assert repr(PolyCoeff.var(2, 2, offset=-1)) == "PolyCoeff<1.0*p2[k-1]; n_p=2>"
    assert (repr(PolyCoeff.monomial(3.0, [(1, 0, 2)], 1) - 1)
            == "PolyCoeff<-1.0 + 3.0*p1[k+0]^2; n_p=1>")
    assert repr(PolyCoeff(1)) == "PolyCoeff<0; n_p=1>"


@pytest.mark.parametrize("make,message", [
    (lambda: CoeffMatrix.zeros(0, 2, 1), "rows must be >= 1, got 0"),
    (lambda: CoeffMatrix.constant(np.zeros((0, 2)), 1), "rows must be >= 1, got 0"),
    (lambda: CoeffMatrix.constant(np.zeros((2, 0)), 1), "cols must be >= 1, got 0"),
    (lambda: CoeffMatrix.constant(np.ones((2, 2, 3)), 1),
     r"values must be a matrix, got shape \(2, 2, 3\)"),
    (lambda: CoeffMatrix.affine(np.ones((1, 1, 2))), r"const must be a matrix, got shape \(1, 1, 2\)"),
    (lambda: CoeffMatrix.affine(np.eye(2), [np.ones((2, 2, 1))]),
     r"linear must be a matrix, got shape \(2, 2, 1\)"),
    (lambda: CoeffMatrix.identity(0, 1), "n must be >= 1, got 0"),
    (lambda: CoeffMatrix.zeros(1, 1, -1), "n_p must be >= 0, got -1"),
])
def test_coefficient_matrices_of_no_entry_are_refused(make, message):
    with pytest.raises(InvalidShape, match=f"^{message}$"):
        make()


# -- compiled evaluation -------------------------------------------------------


@st.composite
def coeff_matrices(draw, n_p=None, rows=None, cols=None):
    """Polynomial, all-zero and constant matrices over n_p = 0..3; monomials
    with powers up to 3, repeated variables and offsets in -3..3.  A given
    ``n_p``, ``rows`` or ``cols`` is kept, not drawn."""
    n_p = draw(st.integers(0, 3)) if n_p is None else n_p
    rows = draw(st.integers(1, 3)) if rows is None else rows
    cols = draw(st.integers(1, 3)) if cols is None else cols
    kind = draw(st.sampled_from(["poly", "zero", "constant"]))
    if kind == "zero":
        return CoeffMatrix.zeros(rows, cols, n_p)
    coeff = st.floats(-2, 2, allow_nan=False)
    if kind == "constant" or n_p == 0:
        values = draw(st.lists(coeff, min_size=rows * cols, max_size=rows * cols))
        return CoeffMatrix.constant(np.reshape(values, (rows, cols)), n_p)
    var = st.tuples(st.integers(1, n_p), st.integers(-3, 3), st.integers(1, 3))
    term = st.tuples(coeff, st.lists(var, max_size=3).map(tuple))
    entry = st.lists(term, max_size=4).map(lambda terms: PolyCoeff(n_p, tuple(terms)))
    return CoeffMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


_SQUARED_REPEATED = CoeffMatrix([
    [PolyCoeff(2, ((1.5, ((1, -2, 2), (2, 3, 1))), (-0.5, ((2, 1, 1), (2, 1, 1))))),
     PolyCoeff(2, ((2.0, ((1, 0, 3),)), (0.25, ())))],
])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(M=coeff_matrices(), k1=st.integers(-4, 4), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
@example(M=_SQUARED_REPEATED, k1=0, n=5, seed=0)
@example(M=CoeffMatrix.zeros(2, 3, 2), k1=1, n=3, seed=0)
@example(M=CoeffMatrix.constant([[1.0, -2.0], [0.5, 3.0]], 1), k1=-1, n=4, seed=0)
@example(M=CoeffMatrix.constant([[1.0, -2.0]], 0), k1=2, n=2, seed=0)
def test_eval_range_matches_entrywise_eval(M, k1, n, seed):
    rng = np.random.default_rng(seed)
    k2 = k1 + n - 1
    p = traj_covering(rng, M, M.n_p, k1, k2)
    got = M.eval_range(p, k1, k2)
    want = np.array([[[e.eval(p, k) for e in row] for row in M.entries]
                     for k in range(k1, k2 + 1)])
    assert got.shape == (n, M.rows, M.cols)
    scale = 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= scale
    assert np.max(np.abs(M.eval(p, k2) - want[-1])) <= scale

    # the same error class as PolyCoeff.eval on a short p and a wrong p.dim
    if M.window is not None:
        late = Trajectory(p.t_start + 1, p.samples)
        first = next(e for row in M.entries for e in row
                     if e.window and e.window[0] == M.window[0])
        with pytest.raises(WindowOutOfRange):
            first.eval(late, k1)
        with pytest.raises(WindowOutOfRange):
            M.eval_range(late, k1, k2)
    wrong = Trajectory(p.t_start, np.ones((p.length, M.n_p + 1)))
    with pytest.raises(DimensionMismatch):
        M.entry(0, 0).eval(wrong, k1)
    with pytest.raises(DimensionMismatch):
        M.eval_range(wrong, k1, k2)


def test_eval_range_of_no_times_is_empty():
    M = CoeffMatrix.affine([[1.0, 2.0]], ([[0.5, -1.0]],), offset=-1)
    p = Trajectory(1, np.ones((3, 1)))
    assert M.eval_range(p, 5, 4).shape == (0, 1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(-3, 3))
def test_matrix_algebra_matches_entrywise_scalar_algebra(data, d):
    M = data.draw(coeff_matrices())
    n_p, rows, cols = M.n_p, M.rows, M.cols
    R = data.draw(coeff_matrices(n_p=n_p, rows=cols))
    S = data.draw(coeff_matrices(n_p=n_p, rows=rows, cols=cols))
    V = data.draw(coeff_matrices(n_p=n_p, cols=cols))
    H = data.draw(coeff_matrices(n_p=n_p, rows=rows))
    e, f, g = M.entries, R.entries, S.entries
    cases = {
        "@": (M @ R, [[sum((e[i][l] * f[l][j] for l in range(cols)), PolyCoeff(n_p))
                       for j in range(R.cols)] for i in range(rows)]),
        "+": (M + S, [[a + b for a, b in zip(r, q)] for r, q in zip(e, g)]),
        "-": (M - S, [[a - b for a, b in zip(r, q)] for r, q in zip(e, g)]),
        "neg": (-M, [[-a for a in r] for r in e]),
        "shift": (M.shift(d), [[a.shift(d) for a in r] for r in e]),
        "vstack": (CoeffMatrix.vstack([M, V]), e + V.entries),
        "hstack": (CoeffMatrix.hstack([M, H]), [r + q for r, q in zip(e, H.entries)]),
    }
    for name, (got, want) in cases.items():
        assert got.shape == (len(want), len(want[0])), name
        for i, row in enumerate(want):
            for j, entry in enumerate(row):
                have = {mono: c for c, mono in got.entry(i, j).terms}
                ref = {mono: c for c, mono in entry.terms}
                tol = 1e-12 * max([1.0, *map(abs, ref.values())])
                for mono in have.keys() | ref.keys():
                    assert abs(have.get(mono, 0.0) - ref.get(mono, 0.0)) <= tol, (name, i, j)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_is_rejected_naming_its_entry(bad):
    values = np.array([[0.5, 1.0], [0.0, 0.1]])
    values[1, 0] = bad
    with pytest.raises(InvalidModel, match=rf"^\[1\]\[0\]: non-finite coefficient {bad}$"):
        CoeffMatrix.constant(values, 1)
    with pytest.raises(InvalidModel, match=r"^\[1\]\[0\]: non-finite"):
        CoeffMatrix.affine(np.eye(2), [values])
    poly = [[PolyCoeff.constant(1.0, 2)] * 2, [PolyCoeff.var(2, 2) * bad, PolyCoeff(2)]]
    with pytest.raises(InvalidModel, match=r"^\[1\]\[0\]: non-finite"):
        CoeffMatrix(poly)


def test_coefficient_arrays_are_private_and_read_only():
    const, lin = np.array([[1.0, 2.0]]), np.array([[0.5, 0.0]])
    M = CoeffMatrix.affine(const, [lin], offset=-1)
    C = CoeffMatrix.constant(const, 1)
    const[0, 0], lin[0, 1] = 9.0, 9.0
    assert np.array_equal(M.terms[()], [[1.0, 2.0]])
    assert np.array_equal(M.terms[((1, -1, 1),)], [[0.5, 0.0]])
    assert np.array_equal(C.terms[()], [[1.0, 2.0]])
    for N in (M, C, M @ CoeffMatrix.identity(2, 1), CoeffMatrix.vstack([M, M.shift(1)])):
        for arr in N.terms.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
    # only monomials with a non-zero coefficient are held
    assert list((M - M).terms) == [] and (M - M).is_zero
