"""Structural rank analysis and persistence-of-excitation checks."""

import json
import math
import re
from dataclasses import asdict
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from conftest import minimal_random_ss, rand_traj, random_io
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lpvdd import (
    CoeffMatrix,
    DataRecord,
    InvalidShape,
    LpvSsModel,
    PolyCoeff,
    Trajectory,
    analysis,
    check_pe,
    estimate_initial_state,
    example_verhoek,
    generate_query,
    generate_record,
    hankel,
    kron_extend,
    left_nullspace,
    minimality_report,
    obsv_matrix,
    predict,
    random_affine_ss,
    reach_matrix,
    simulate_ss,
    structural_rank,
)
from lpvdd.analysis import TRIALS
from lpvdd.rng import stream


def _constant_ss(A, B, C, D):
    return LpvSsModel(
        A=CoeffMatrix.constant(A, 1),
        B=CoeffMatrix.constant(B, 1),
        C=CoeffMatrix.constant(C, 1),
        D=CoeffMatrix.constant(D, 1),
    )


def test_obsv_one_step_is_output_map():
    rng = np.random.default_rng(0)
    m = random_affine_ss(rng, n_x=3, n_u=1, n_y=2, n_p=2)
    assert obsv_matrix(m, 1) == m.C


def test_reach_one_step_is_input_map():
    rng = np.random.default_rng(1)
    m = random_affine_ss(rng, n_x=3, n_u=2, n_y=1, n_p=2)
    assert reach_matrix(m, 1) == m.B


def test_constant_model_gives_kalman_matrices():
    rng = np.random.default_rng(2)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
    C, D = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
    m = _constant_ss(A, B, C, D)
    p = rand_traj(rng, 1, 9, t_start=-4)

    O = obsv_matrix(m, 3).eval(p, 0)
    classical = np.vstack([C, C @ A, C @ A @ A])
    assert np.allclose(O, classical, atol=1e-12)

    R = reach_matrix(m, 3).eval(p, 0)
    classical_r = np.hstack([B, A @ B, A @ A @ B])
    assert np.allclose(R, classical_r, atol=1e-12)


def test_obsv_matrix_against_free_response_unrolling():
    # evaluate the 3-step observability map and compare with simulating the
    # free response from a random state
    rng = np.random.default_rng(3)
    m = random_affine_ss(rng, n_x=2, n_u=1, n_y=1, n_p=2)
    n = 3
    O = obsv_matrix(m, n)
    k = 1
    p = rand_traj(rng, 2, n + 2, t_start=0)
    x0 = rng.normal(size=2)
    u = Trajectory(k, np.zeros((n, 1)))
    sim = simulate_ss(m, x0, u, p)
    onp = O.eval(p, k)
    assert np.allclose(onp @ x0, sim.y.samples.reshape(-1), atol=1e-12)


def test_reach_matrix_against_impulse_response():
    # state at k equals the reachability blocks applied to past impulses
    rng = np.random.default_rng(4)
    m = random_affine_ss(rng, n_x=2, n_u=1, n_y=1, n_p=2)
    n = 3
    R = reach_matrix(m, n)
    k = 5
    p = rand_traj(rng, 2, 12, t_start=0)
    # drive with impulses at k-1, k-2, k-3 and read the state at k
    values = rng.normal(size=n)
    u = Trajectory(k - n, values[::-1].reshape(-1, 1))  # u(k-i) = values[i-1]
    sim = simulate_ss(m, np.zeros(2), u, p)
    # r_i evaluated at k applies to the input injected i steps earlier
    expected = R.eval(p, k - 1) @ values  # blocks: r_1 u(k-1), r_2 u(k-2), ...
    assert np.allclose(sim.x.value(k), expected, atol=1e-12)


def test_obsv_prefix_property():
    rng = np.random.default_rng(5)
    m = random_affine_ss(rng, n_x=2, n_u=1, n_y=2, n_p=1)
    big = obsv_matrix(m, 4)
    small = obsv_matrix(m, 3)
    assert big.entries[: 3 * m.n_y] == small.entries


def test_structural_rank_identity_and_zero():
    I = CoeffMatrix.identity(3, n_p=1)
    rep = structural_rank(I, required=3, seed=1)
    assert rep.verdict and rep.passes == TRIALS
    Z = CoeffMatrix.zeros(2, 2, 1)
    rep0 = structural_rank(Z, required=1, seed=1)
    assert not rep0.verdict and rep0.passes == 0


def test_structural_rank_deterministic_given_seed():
    rng = np.random.default_rng(6)
    m = random_affine_ss(rng, n_x=2, n_u=1, n_y=1, n_p=2)
    M = obsv_matrix(m, 2)
    r1 = structural_rank(M, 2, seed=42)
    r2 = structural_rank(M, 2, seed=42)
    assert r1 == r2


def test_structural_observability_of_generic_two_state_siso():
    rng = np.random.default_rng(7)
    m = random_affine_ss(rng, n_x=2, n_u=1, n_y=1, n_p=1)
    # cross-check genericity: the 2x2 determinant of the evaluated matrix is
    # not identically zero (sampled at several points)
    O = obsv_matrix(m, 2)
    dets = []
    for _ in range(5):
        p = rand_traj(rng, 1, 4, t_start=-1)
        dets.append(abs(np.linalg.det(O.eval(p, 0))))
    assert max(dets) > 1e-9
    assert minimality_report(m, seed=3).observable.verdict


def test_autonomous_model_not_reachable():
    rng = np.random.default_rng(8)
    m0 = random_affine_ss(rng, n_x=2, n_u=1, n_y=1, n_p=1)
    m = LpvSsModel(A=m0.A, B=CoeffMatrix.zeros(2, 1, 1), C=m0.C, D=m0.D)
    assert not minimality_report(m, seed=0).reachable.verdict


def test_blind_model_not_observable():
    rng = np.random.default_rng(9)
    m0 = random_affine_ss(rng, n_x=2, n_u=1, n_y=1, n_p=1)
    m = LpvSsModel(A=m0.A, B=m0.B, C=CoeffMatrix.zeros(1, 2, 1), D=m0.D)
    assert not minimality_report(m, seed=0).observable.verdict


def test_minimality_of_dense_constant_model():
    # classical Kalman-rank oracle on the constant matrices
    rng = np.random.default_rng(10)
    while True:
        A, B, C = rng.normal(size=(3, 3)), rng.normal(size=(3, 1)), rng.normal(size=(1, 3))
        kal_o = np.vstack([C, C @ A, C @ A @ A])
        kal_r = np.hstack([B, A @ B, A @ A @ B])
        if np.linalg.matrix_rank(kal_o) == 3 and np.linalg.matrix_rank(kal_r) == 3:
            break
    m = _constant_ss(A, B, C, np.zeros((1, 1)))
    rep = minimality_report(m, seed=4)
    assert rep.minimal
    assert {k: v["passes"] for k, v in asdict(rep).items()} == {
        "observable": TRIALS, "reachable": TRIALS}


def test_check_pe_zero_input_fails():
    rng = np.random.default_rng(11)
    u = Trajectory(1, np.zeros((10, 1)))
    p = rand_traj(rng, 2, 10)
    rep = check_pe(u, p, 2)
    assert not rep.verdict
    assert rep.rank == 0
    # read from the factor of the full lifted Hankel matrix, zero inputs must
    # still give rank 0, not rounding noise that passes the relative cut
    with_y = DataRecord(u, p, rand_traj(rng, 1, 10)).lifted(2).pe
    assert not with_y.verdict
    assert with_y.rank == 0


def _parity_record(kind, seed, T):
    """``(u, p, y)``: exact verhoek data, zero inputs, an SS record with one zero
    input channel, or an ``n_p = 0`` record."""
    rng = np.random.default_rng(seed)
    if kind == "lti":
        return rand_traj(rng, 1, T), Trajectory(1, np.zeros((T, 0))), rand_traj(rng, 2, T)
    if kind == "channel":
        model = random_affine_ss(rng, 3, n_u=2, n_y=1, n_p=1)
        rec = generate_record(model, T, seed)
        u = Trajectory(1, rec.u.samples * [1.0, 0.0])
        return u, rec.p, simulate_ss(model, np.zeros(3), u, rec.p).y
    rec = generate_record(example_verhoek(), T, seed)
    u = Trajectory(1, np.zeros((T, 1))) if kind == "zero" else rec.u
    return u, rec.p, rec.y


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["verhoek", "zero", "channel", "lti"]),
    seed=st.integers(0, 2**16),
    L=st.integers(1, 8),
    width=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.9, 4.0, 8.0, 30.0]),
)
def test_trimmed_factor_matches_direct_svd(kind, seed, L, width):
    # width = columns per row of the lifted Hankel matrix: short records (N < R),
    # near-square ones below the QR rule (N < 4 R) and wide ones above it
    n_rows = {"lti": 3, "channel": 6}.get(kind, 6) * L
    N = max(1, round(width * n_rows))
    u, p, y = _parity_record(kind, seed, N + L - 1)
    w = Trajectory(1, np.hstack([u.samples, y.samples]))
    H = hankel(kron_extend(w, p), L)
    assert H.shape == (n_rows, N)
    n_u = u.dim
    f = analysis._lifted_factor(kron_extend(w, p).samples, L, p.dim, n_u)
    assert f.inputs.shape[-1] == (n_rows if N >= 4 * n_rows else N)

    U_ref, s_ref, _ = np.linalg.svd(H)
    assert f.s.shape == s_ref.shape
    assert np.max(np.abs(f.s - s_ref)) <= 1e-13 * s_ref[0]
    r = analysis._cut(s_ref)
    assert (f.hankel.rank, f.hankel.required) == (r, n_rows)
    P, P_ref = f.U[:, :r] @ f.U[:, :r].T, U_ref[:, :r] @ U_ref[:, :r].T
    assert np.max(np.abs(P - P_ref), initial=0.0) <= 1e-12

    H_in = H.reshape(f.shape[:3] + (N,))[:, :, :n_u].reshape(-1, N)
    rank_in = analysis._cut(np.linalg.svd(H_in, compute_uv=False))
    assert f.pe.rank == rank_in
    assert check_pe(u, p, L).rank == rank_in
    assert DataRecord(u, p, y).lifted(L).pe.rank == rank_in
    if kind == "zero":
        assert rank_in == 0


def test_check_pe_lti_degenerate():
    rng = np.random.default_rng(12)
    u = rand_traj(rng, 1, 10)
    p = Trajectory(1, np.zeros((10, 0)))
    rep = check_pe(u, p, 1)
    assert rep.required == 1
    assert rep.verdict


def test_check_pe_example_data_at_order_seven():
    m = example_verhoek()
    rec = generate_record(m, 40, seed=1)
    rep = rec.lifted(7).pe
    assert rep.required == (1 + 2) * 1 * 7 == 21
    assert rep.rank == 21
    assert rep.verdict
    assert rec.lifted(7).hankel.rank >= 21
    json.dumps(asdict(rep))  # serializable
    # the input singular values come from the full factor when y is given
    alone = np.array(check_pe(rec.u, rec.p, 7).singular_values)
    assert np.allclose(rep.singular_values, alone, rtol=0, atol=1e-13 * alone[0])


def test_check_pe_monotone_in_order():
    m = example_verhoek()
    for seed in range(3):
        rec = generate_record(m, 40, seed=seed)
        verdicts = [check_pe(rec.u, rec.p, L).verdict for L in range(1, 9)]
        # once PE fails at some order it cannot hold at any larger order
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert lo or not hi


def test_check_pe_shape_errors():
    rng = np.random.default_rng(13)
    with pytest.raises(InvalidShape):
        check_pe(rand_traj(rng, 1, 5), rand_traj(rng, 2, 5), 6)
    with pytest.raises(InvalidShape):
        check_pe(rand_traj(rng, 1, 5), rand_traj(rng, 2, 6), 3)


@pytest.mark.parametrize("L", [0, -1])
def test_depth_below_one_is_invalid_shape(L):
    # L = 0 read as persistently exciting; L = -1 failed inside numpy
    rec = generate_record(example_verhoek(), 20, 0)
    for call in (lambda: check_pe(rec.u, rec.p, L),
                 lambda: DataRecord(rec.u, rec.p, rec.y).lifted(L).pe,
                 lambda: rec.lifted(L), lambda: left_nullspace(rec, L)):
        with pytest.raises(InvalidShape, match=f"order L must be >= 1, got {L}"):
            call()


_DEPTH_CALLS = {
    "check_pe": lambda rec, L: check_pe(rec.u, rec.p, L),
    "left_nullspace": left_nullspace,
    "lifted": lambda rec, L: rec.lifted(L),
    # the memo holds the L = 1 factor, which True hashes and compares as
    "lifted after lifted(1)": lambda rec, L: (rec.lifted(1), rec.lifted(L)),
}


@pytest.mark.parametrize("name", _DEPTH_CALLS)
@pytest.mark.parametrize("L", [True, False, 2.5, np.float64(2.0)])
def test_a_depth_that_is_not_an_integer_is_invalid_shape(name, L):
    # True ran as L = 1 (or came back from the memo as its factor), the others raised
    # a bare TypeError inside numpy
    rec = generate_record(example_verhoek(), 20, 0)
    message = f"order L must be an integer, got {L!r}"
    with pytest.raises(InvalidShape, match=f"^{re.escape(message)}$"):
        _DEPTH_CALLS[name](rec, L)
    assert check_pe(rec.u, rec.p, np.int64(2)) == check_pe(rec.u, rec.p, 2)


@pytest.mark.parametrize("name", ["u", "p", "y"])
def test_check_pe_rejects_non_finite_samples(name):
    # a NaN sample failed to converge inside LAPACK; now the window cannot be made,
    # so check_pe is never reached
    rec = generate_record(example_verhoek(), 60, 3)
    args = {"u": rec.u, "p": rec.p, "y": rec.y}
    samples = args[name].samples.copy()
    samples[7, 0] = np.nan
    with pytest.raises(InvalidShape, match="^non-finite sample at time step 8$"):
        check_pe(L=5, **{**args, name: Trajectory(1, samples)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
              elements=st.floats(0.0, 1e300)))
@example(np.zeros(0))
@example(np.zeros(4))
@example(np.zeros((2, 3)))
@example(np.array([1.0, 1e-9, 2e-9, 0.0]))
def test_cut_is_the_broadcast_count_of_values_above_the_cut(s):
    # one vector is counted on its first value, a stack broadcast on each first value:
    # both give the sum of s > RANK_CUT s[..., :1] on the last axis, an int for a vector
    # (0 if empty) and a list for a stack
    want = (s > analysis.RANK_CUT * s[..., :1]).sum(-1).tolist()
    got = analysis._cut(s)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("mask", ["future outputs", "scattered", "none"])
def test_complete_fits_the_block_of_the_r_mode_qr_bit_for_bit(monkeypatch, mask):
    # complete reads Q_Y^T [F -b] off the raw QR of [Y F -b]: the block np.linalg.qr's
    # mode="r" returns, bit for bit, and the one the QR of [Y F b] gives with its last
    # column negated; the kept template changes no bit of a second query
    model = example_verhoek()
    rec, q = generate_record(model, 400, 1), generate_query(model, 3, 7, 2)
    lifted = rec.lifted(10)
    rank = lifted.hankel.rank
    d = len(lifted.U) - rank
    p = np.concatenate([q.p_ini.samples, q.p_r.samples])
    w = np.hstack([np.concatenate([q.u_ini.samples, q.u_r.samples]),
                   np.concatenate([q.y_ini.samples, q.y_r_truth.samples])])
    unknown = np.zeros(w.shape, dtype=bool)
    if mask == "future outputs":
        unknown[3:, 1:] = True
    elif mask == "scattered":
        unknown[[0, 4, 5, 9], [1, 0, 1, 0]] = True
    w[unknown] = 0.0
    m = int(unknown.sum())
    operands, blocks = [], []
    qr, lstsq = np.linalg.qr, analysis._lstsq
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, mode: operands.append((mode, a.copy())) or qr(a, mode))
    monkeypatch.setattr(analysis, "_lstsq", lambda G: blocks.append(G.copy()) or lstsq(G))
    first, second = (lifted.complete(p, rank, w, unknown) for _ in range(2))
    monkeypatch.undo()
    Yb, again = (a for mode, a in operands if mode == "raw")  # the [Y F -b] of each query
    assert again.tobytes() == Yb.tobytes()
    assert np.array_equal(Yb[:, -1].reshape(10, 3, 2)[:, 0], -w)
    want = np.linalg.qr(Yb, mode="r")[:d, d:]
    Yb[:, -1] *= -1
    negated = np.linalg.qr(Yb, mode="r")[:d, d:]
    negated[:, m] *= -1
    assert want.tobytes() == negated.tobytes()
    if m:
        assert blocks[0].tobytes() == blocks[-1].tobytes() == want.tobytes()
        assert lstsq(want)[0].tobytes() == first[0].tobytes() == second[0].tobytes()
    else:
        assert blocks == [] and first[2] == second[2] == math.hypot(*want[:, 0])
    assert first[1:] == second[1:]


def _ranked(rows, cols, rank, seed):
    """``A`` (``rows x cols``) of rank ``min(rank, rows, cols)`` down to all-zero, singular
    values in [0.1, 1] on its range, ``b`` and the rank."""
    rng = np.random.default_rng(seed)
    r = min(rank, rows, cols)
    Q1 = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :r]
    Q2 = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :r]
    A = (Q1 * rng.uniform(0.1, 1.0, r)) @ Q2.T
    return A, rng.standard_normal(rows), r


_SHAPES = dict(rows=st.integers(1, 12), cols=st.integers(1, 12), rank=st.integers(0, 12),
               seed=st.integers(0, 2**16))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**_SHAPES)
def test_lstsq_matches_the_svd_min_norm_solve(rows, cols, rank, seed):
    # tall, square and wide A of any rank down to all-zero, singular values in
    # [0.1, 1] on its range, so the two routes differ by rounding only
    A, b, r = _ranked(rows, cols, rank, seed)
    U, s_ref, Vt = np.linalg.svd(A, full_matrices=False)
    k = analysis._cut(s_ref)
    z_ref = Vt[:k].T @ ((U[:, :k].T @ b) / s_ref[:k])

    z, s, residual = analysis._lstsq(np.column_stack([A, b]))
    record = analysis._rank(s, cols)
    assert record.rank == k == r and record.required == cols
    s = np.array(record.singular_values)
    assert s.shape == s_ref.shape
    assert np.max(np.abs(s - s_ref)) <= 1e-13 * s_ref[0]
    assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))
    assert abs(residual - np.linalg.norm(A @ z - b)) <= 1e-13 * np.linalg.norm(b)
    # the residual is summed without squares: at 2**600 they would overflow, at 2**-600
    # underflow, and the residual still scales with the data
    for k in (600, -600):
        residual_k = analysis._lstsq(np.ldexp(np.column_stack([A, b]), k))[-1]
        assert np.isfinite(residual_k)
        assert abs(residual_k - np.ldexp(residual, k)) <= 1e-13 * np.ldexp(np.linalg.norm(b), k)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**_SHAPES)
def test_lstsq_solves_at_full_rank_and_cuts_below_it(rows, cols, rank, seed):
    # one thin SVD of A, with vectors, decides every shape and rank: the rank is cut on
    # its values and z is the minimum-norm solve on the kept ones, with no QR, no second
    # SVD and no LU solve; at every scale, with the same rank, z and s scaled with the data
    A, b, r = _ranked(rows, cols, rank, seed)
    z_ref, s_ref, _ = analysis._lstsq(np.column_stack([A, b]))
    for k in (0, 600, -600):
        with (mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd,
              mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr,
              mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve):
            z, s, _ = analysis._lstsq(np.ldexp(np.column_stack([A, b]), k))
        assert svd.call_count == 1 and qr.call_count == solve.call_count == 0, k
        assert svd.call_args.args[0].shape == (rows, cols)
        assert svd.call_args.kwargs == {"full_matrices": False}
        assert analysis._cut(s) == r
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))
        assert np.max(np.abs(s - np.ldexp(s_ref, k))) <= 1e-13 * np.ldexp(s_ref[0], k)


def test_minimal_random_ss_helper_yields_minimal_models():
    rng = np.random.default_rng(14)
    m = minimal_random_ss(rng, n_x=3, n_u=2, n_y=2, n_p=2)
    rep = minimality_report(m, seed=11)
    assert rep.minimal


def _shifted_affine_ss(rng, n_x, n_p):
    """Random affine model whose four matrices read p at offsets in -2..2."""
    m = random_affine_ss(rng, n_x, int(rng.integers(1, 3)), int(rng.integers(1, 3)), n_p)
    A, B, C, D = (M.shift(int(rng.integers(-2, 3))) for M in (m.A, m.B, m.C, m.D))
    return LpvSsModel(A=A, B=B, C=C, D=D)


def _counts(rep):
    """A structural report but the singular values of its weakest trial, which the unit
    scaling of the blocks on the model route changes."""
    return rep.trials, rep.passes, rep.weakest.rank, rep.weakest.required, rep.weakest.cut


@pytest.mark.parametrize("case", range(10))
def test_numeric_structural_route_matches_symbolic_oracle(case, monkeypatch):
    rng = np.random.default_rng(200 + case)
    n_x, n_p = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    m = _shifted_affine_ss(rng, n_x, n_p) if case % 2 else random_affine_ss(
        rng, n_x, int(rng.integers(1, 3)), int(rng.integers(1, 3)), n_p)
    seed = int(rng.integers(1000))
    drawn = []

    def recording(window, n_p, seed, real=analysis._draw):
        drawn.append(window)
        return real(window, n_p, seed)

    monkeypatch.setattr(analysis, "_draw", recording)
    rep = minimality_report(m, seed=seed)
    O, R = obsv_matrix(m, n_x), reach_matrix(m, n_x)
    assert drawn == [O.window or (0, 0), R.window or (0, 0)]
    assert _counts(rep.observable) == _counts(structural_rank(O, n_x, seed=seed))
    assert _counts(rep.reachable) == _counts(structural_rank(R, n_x, seed=seed))


@lru_cache(maxsize=None)
def _oracle_case(n_x, n_p, shifted, model_seed):
    """A model with its symbolic observability and reachability matrices."""
    rng = np.random.default_rng(model_seed)
    m = _shifted_affine_ss(rng, n_x, n_p) if shifted else random_affine_ss(
        rng, n_x, int(rng.integers(1, 3)), int(rng.integers(1, 3)), n_p)
    return m, obsv_matrix(m, n_x), reach_matrix(m, n_x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n_x=st.integers(1, 6), n_p=st.integers(0, 3), shifted=st.booleans(),
       model_seed=st.integers(0, 2), seed=st.integers(0, 10**6))
def test_stacked_trials_match_symbolic_oracle(n_x, n_p, shifted, model_seed, seed):
    m, O, R = _oracle_case(n_x, n_p, shifted, model_seed)
    rep = minimality_report(m, seed=seed)
    assert _counts(rep.observable) == _counts(structural_rank(O, n_x, seed=seed))
    assert _counts(rep.reachable) == _counts(structural_rank(R, n_x, seed=seed))


def _per_map_report(model, seed):
    """Reference of :func:`minimality_report`: each map by its own draw and its own
    unit-scaled recursion of the ``A(k)`` products, one map after the other."""
    n = model.n_x

    def draw(*parts):
        lo, hi = analysis._shifted_hull(*parts)
        P = stream(seed, "trials").uniform(-1.0, 1.0, (TRIALS, hi - lo + 1, model.n_p))
        return P, -lo

    def report(C, A):
        blocks, prod = [C[:, 0]], np.eye(n)
        for j in range(n - 1):
            prod = analysis._unit(A[:, j] @ prod, A[:, j])
            blocks.append(C[:, j + 1] @ prod)
        O = analysis._unit(np.stack(blocks, axis=1), C).reshape(TRIALS, -1, n)
        s = np.linalg.svd(O, compute_uv=False)
        ranks = analysis._cut(s)
        return analysis.StructuralRankReport(
            TRIALS, sum(r >= n for r in ranks), analysis._rank(s[ranks.index(min(ranks))], n))

    P, i = draw((model.C, range(n)), (model.A, range(n - 1)))
    observable = report(model.C._eval_rows(P, i, n), model.A._eval_rows(P, i, n - 1))
    P, i = draw((model.B, range(0, -n, -1)), (model.A, range(0, 1 - n, -1)))

    def backward(M, count):  # M(0)^T, M(-1)^T, ..., M(1 - count)^T
        return M._eval_rows(P, i - count + 1, count)[:, ::-1].swapaxes(-1, -2)

    return analysis.MinimalityReport(observable, report(backward(model.B, n),
                                                        backward(model.A, n - 1)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n_x=st.integers(1, 6), n_u=st.integers(1, 3), n_y=st.integers(1, 3),
       n_p=st.integers(0, 2), form=st.sampled_from(["ss", "shifted", "io"]),
       seed=st.integers(0, 2**32 - 1))
def test_minimality_report_equals_the_per_map_recursion(n_x, n_u, n_y, n_p, form, seed):
    # the stacked recursion runs both maps' products as one stack and must not move a
    # singular value: with n_u != n_y neither map's blocks are padded to the other's
    rng = np.random.default_rng(seed)
    if form == "io":
        n_a = max(1, n_x // n_y)
        m = random_io(rng, n_y, n_a, int(rng.integers(1, n_a + 1)), n_u, n_p).realization
    else:
        m = random_affine_ss(rng, n_x, n_u, n_y, n_p)
        if form == "shifted":
            m = LpvSsModel(*(M.shift(int(rng.integers(-2, 3))) for M in (m.A, m.B, m.C, m.D)))
    assert minimality_report(m, seed) == _per_map_report(m, seed)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_x=st.integers(1, 5), n_u=st.integers(1, 2), n_y=st.integers(1, 2),
       n_p=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       k=st.tuples(*[st.integers(-1000, 1000)] * 3))
@example(n_x=3, n_u=1, n_y=1, n_p=1, seed=0, k=(0, 600, 600))
@example(n_x=3, n_u=1, n_y=1, n_p=1, seed=0, k=(0, -600, -600))
def test_minimality_report_reads_the_same_at_every_coefficient_scale(n_x, n_u, n_y, n_p,
                                                                     seed, k):
    # A, B and C scaled by 2^k: the same ranks.  Squared inside _unit, entries of B and C
    # at 2^600 overflowed and at 2^-600 underflowed, and each trial read rank loss
    def scaled(M, e):
        return M._with({mono: np.ldexp(C, e) for mono, C in M.terms.items()})

    m = random_affine_ss(np.random.default_rng(seed), n_x, n_u, n_y, n_p)
    want = minimality_report(m, seed)
    got = minimality_report(LpvSsModel(*(scaled(M, e) for M, e in zip((m.A, m.B, m.C), k)),
                                       m.D), seed)
    assert (got.observable.passes, got.reachable.passes) == (want.observable.passes,
                                                             want.reachable.passes)
    assert got.minimal == want.minimal


def test_minimality_report_takes_one_svd_per_map(monkeypatch):
    m = random_affine_ss(np.random.default_rng(21), n_x=5, n_u=2, n_y=2, n_p=2)
    calls = []

    def counting(*args, real=np.linalg.svd, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert minimality_report(m).minimal
    assert calls == [(TRIALS, 10, 5), (TRIALS, 10, 5)]  # reachability map stacked transposed
    calls.clear()
    assert structural_rank(obsv_matrix(m, 2), 2).verdict
    assert calls == [(TRIALS, 4, 5)]


def test_stacked_windows_equal_sequential_draws(monkeypatch):
    m = random_affine_ss(np.random.default_rng(22), n_x=3, n_u=1, n_y=1, n_p=2)
    m = LpvSsModel(A=m.A.shift(-1), B=m.B, C=m.C.shift(2), D=m.D)
    seen = []

    def recording(window, n_p, seed, real=analysis._draw):
        P, i = real(window, n_p, seed)
        seen.append(P.copy())
        return P, i

    monkeypatch.setattr(analysis, "_draw", recording)
    minimality_report(m, seed=5)
    for P, M in zip(seen, (obsv_matrix(m, 3), reach_matrix(m, 3)), strict=True):
        lo, hi = M.window
        rng = stream(5, "trials")
        expected = [rng.uniform(-1.0, 1.0, (hi - lo + 1, 2)) for _ in range(TRIALS)]
        assert np.array_equal(P, np.stack(expected))


@pytest.mark.parametrize("n_x", [24, 32])
def test_larger_stable_models_are_minimal(n_x):
    # block rows of A(k) products decay geometrically; unscaled, the relative
    # cut read that decay as rank loss from n_x = 24 on
    m = random_affine_ss(np.random.default_rng(0), n_x=n_x, n_u=2, n_y=2, n_p=4)
    rep = minimality_report(m)
    assert rep.minimal
    assert rep.observable.passes == rep.reachable.passes == 20


@pytest.mark.parametrize("seed", range(3))
def test_rank_loss_to_rounding_is_not_minimal(seed):
    # nothing is exactly zero: C A(p) and A(p) B vanish only to rounding, and the
    # unit scaling of the structural test must not lift that rounding to full rank
    rng = np.random.default_rng(seed)
    v, w0, w1, u = rng.normal(size=(4, 2))
    u -= (u @ v) / (v @ v) * v  # C = u^T annihilates A(p) = v (w0 + p w1)^T
    m = LpvSsModel(A=CoeffMatrix.affine(np.outer(v, w0), [np.outer(v, w1)]),
                   B=CoeffMatrix.constant(rng.normal(size=(2, 1)), 1),
                   C=CoeffMatrix.constant(u[None], 1), D=CoeffMatrix.zeros(1, 1, 1))
    rep = minimality_report(m)
    assert rep.observable.weakest.rank == 1 and rep.reachable.verdict
    assert not rep.minimal

    # deadbeat in other state coordinates: A(p) = T N(p) T^-1, N(p) strictly lower
    # triangular, so A(p) B = 0 for B = T e_4
    T = rng.normal(size=(4, 4))
    N0, N1 = np.tril(rng.normal(size=(2, 4, 4)), -1)
    m = LpvSsModel(A=CoeffMatrix.affine(T @ N0 @ np.linalg.inv(T), [T @ N1 @ np.linalg.inv(T)]),
                   B=CoeffMatrix.constant(T[:, -1:], 1),
                   C=CoeffMatrix.constant(rng.normal(size=(1, 4)), 1),
                   D=CoeffMatrix.zeros(1, 1, 1))
    rep = minimality_report(m)
    assert rep.reachable.weakest.rank == 1
    assert not rep.minimal


def test_reach_matrix_eval_matches_block_products():
    rng = np.random.default_rng(16)
    m = _shifted_affine_ss(rng, 3, 2)
    R = reach_matrix(m, 4)
    p = rand_traj(rng, 2, 20, t_start=-10)
    blocks, prod = [], np.eye(m.n_x)
    for i in range(4):  # block column i + 1 is A(3) ... A(4 - i) B(3 - i)
        blocks.append(prod @ m.B.eval(p, 3 - i))
        prod = prod @ m.A.eval(p, 3 - i)
    assert np.allclose(R.eval(p, 3), np.hstack(blocks), rtol=0, atol=1e-13)


def test_minimality_and_simulation_skip_the_symbolic_algebra(monkeypatch):
    calls = []
    for cls, name in ((CoeffMatrix, "__matmul__"), (PolyCoeff, "eval")):
        def counting(*args, real=getattr(cls, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cls, name, counting)
    rng = np.random.default_rng(17)
    m = random_affine_ss(rng, n_x=4, n_u=2, n_y=2, n_p=2)
    obsv_matrix(m, 2).entry(0, 0).eval(rand_traj(rng, 2, 3, t_start=-1), 0)
    assert calls == ["__matmul__", "eval"]  # the counters see the symbolic route
    calls.clear()
    assert minimality_report(m).minimal
    simulate_ss(m, np.zeros(4), rand_traj(rng, 2, 50), rand_traj(rng, 2, 50))
    assert calls == []


def test_every_rank_decision_reads_the_one_cut(monkeypatch):
    # a coarser RANK_CUT lowers every rank on the same record and model, and each
    # record carries the cut it was decided at, so no rank decision binds its own copy;
    # the record is factored at the first cut, so its memo must keep no cut either
    model = example_verhoek()
    rec = generate_record(model, 200, 0)
    q = generate_query(model, 3, 7, 1)
    ss = random_affine_ss(np.random.default_rng(3), 5, 2, 2, 2)
    # a one-state observability map has one singular value: full rank at any cut
    rng = np.random.default_rng(4)
    scalar = minimal_random_ss(rng, 1, 1, 1, 1)
    u, p = rand_traj(rng, 1, 3), rand_traj(rng, 1, 3)
    y = simulate_ss(scalar, np.ones(1), u, p).y

    def records():
        res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        rep = minimality_report(ss)
        return {
            "check_pe": check_pe(rec.u, rec.p, 10),
            "pe": rec.lifted(10).pe,
            "hankel": rec.lifted(10).hankel,
            "left_nullspace": left_nullspace(rec, 10).hankel,
            "predict hankel": res.diagnostics["hankel"],
            "predict pe": res.diagnostics["pe"],
            "observable": rep.observable.weakest,
            "reachable": rep.reachable.weakest,
            "initial state": estimate_initial_state(scalar, u, p, y).observability,
        }

    fine = records()
    monkeypatch.setattr(analysis, "RANK_CUT", 0.5)
    coarse = records()
    assert {k: r.cut for k, r in fine.items()} == dict.fromkeys(fine, 1e-9)
    assert {k: r.cut for k, r in coarse.items()} == dict.fromkeys(fine, 0.5)
    assert coarse.pop("initial state").rank == fine.pop("initial state").rank == 1
    assert all(coarse[k].rank < fine[k].rank for k in fine), (fine, coarse)
