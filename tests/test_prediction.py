"""Data-driven prediction, span membership, and annihilator extraction.

The stacked-Hankel predictor can only be exact once the data Hankel's
column span saturates the window behaviour of the lifted signals.  For the
built-in example (one input, one output, two scheduling channels, lag 2)
the span dimension at depth L is (1+2)*1*L + 2*1*L + 2 = 5L + 2, so a
record of length T supports exact prediction at window L = T_ini + T_r
when T - L + 1 >= 5L + 2, i.e. T >= 6L + 1.  For L = 10 that threshold is
T = 61; several tests below pin it.
"""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from conftest import rand_traj, random_io
from hypothesis import given, settings
from hypothesis import strategies as st

import lpvdd
from lpvdd import (
    CoeffMatrix,
    DataRecord,
    DimensionMismatch,
    InvalidShape,
    LpvIoModel,
    Trajectory,
    build_predictor,
    check_pe,
    concat,
    example_verhoek,
    generate_query,
    generate_record,
    hankel,
    io_to_kernel,
    kron_extend,
    kron_signal,
    left_nullspace,
    minimality_report,
    predict,
    random_affine_ss,
    sched_block_diag,
    simulate_io,
    span_membership,
)
from lpvdd import analysis, prediction, signals


def _record(T, seed=1, model=None):
    return generate_record(model or example_verhoek(), T, seed)


def _query(seed=1, T_ini=3, T_r=7, model=None):
    return generate_query(model or example_verhoek(), T_ini, T_r, seed)


def _stack(u, y):
    return Trajectory(u.t_start, np.hstack([u.samples, y.samples]))


# -- predictor assembly ----------------------------------------------------


def _known_rows(system, ini):
    """The rows of the stack that a query fixes: all but the outputs after the first
    ``ini`` output rows, in stack order."""
    return np.vstack([system.u, system.pu, system.y[:ini], system.py])


def test_predictor_row_count_and_partition():
    rec = _record(40)
    L = 7
    ps = build_predictor(rec, Trajectory(1, rec.p.restrict(1, L).samples))
    N = 40 - L + 1
    assert ps.matrix.shape == ((1 + 2) * (1 + 1) * L, N)
    assert [b.shape for b in (ps.u, ps.pu, ps.y, ps.py)] == [(L, N), (2 * L, N), (L, N),
                                                             (2 * L, N)]
    assert _known_rows(ps, 3).shape == (6 * L - (L - 3), N)


def test_constraint_rows_vanish_on_matching_column():
    # query scheduling equal to a measured window: the corresponding Hankel
    # column satisfies the consistency constraints exactly
    rec = _record(30)
    L = 5
    for j in (0, 3, 11):
        p_q = Trajectory(1, rec.p.restrict(1 + j, j + L).samples)
        ps = build_predictor(rec, p_q)
        assert np.max(np.abs(ps.pu[:, j])) < 1e-14
        assert np.max(np.abs(ps.py[:, j])) < 1e-14


def test_predictor_lti_degenerate_has_empty_constraints():
    # scheduling-free record: the stack reduces to [H_L(u); H_L(y)]
    b1 = 0.8
    model = LpvIoModel(
        a_coeffs=(CoeffMatrix.constant([[-0.4]], 0),),
        b_coeffs=(CoeffMatrix.constant([[b1]], 0),),
    )
    rng = np.random.default_rng(0)
    u = rand_traj(rng, 1, 20)
    p = Trajectory(1, np.zeros((20, 0)))
    y = simulate_io(model, u, p, y_init=[[0.0]])
    rec = DataRecord(u=u, p=p, y=y)
    L = 4
    ps = build_predictor(rec, p.restrict(1, L))
    assert ps.matrix.shape[0] == 2 * L
    assert np.array_equal(ps.matrix[:L], hankel(u, L))
    assert np.array_equal(ps.matrix[L:], hankel(y, L))


def test_build_predictor_shape_errors():
    # the depth is the query window's length: one longer than the record has no window
    rec = _record(20)
    with pytest.raises(InvalidShape):
        build_predictor(rec, rand_traj(np.random.default_rng(1), 2, 21))
    with pytest.raises(DimensionMismatch):
        build_predictor(rec, rand_traj(np.random.default_rng(1), 3, 5))


# -- prediction --------------------------------------------------------------


def test_query_from_data_window_is_reproduced_even_on_short_data():
    # a window of the record itself is always in the span (unit selector)
    rec = _record(40)
    T_ini, T_r = 3, 7
    u_ini = rec.u.restrict(5, 4 + T_ini)
    p_ini = rec.p.restrict(5, 4 + T_ini)
    y_ini = rec.y.restrict(5, 4 + T_ini)
    u_r = rec.u.restrict(5 + T_ini, 4 + T_ini + T_r)
    p_r = rec.p.restrict(5 + T_ini, 4 + T_ini + T_r)
    res = predict(rec, u_ini, p_ini, y_ini, u_r, p_r)
    truth = rec.y.restrict(5 + T_ini, 4 + T_ini + T_r)
    assert res.verdict == "ok"
    assert np.max(np.abs(res.y_r.samples - truth.samples)) <= 1e-10


def test_fresh_query_exact_at_sufficient_data_length():
    for seed in range(5):
        rec = _record(70, seed=seed)
        q = _query(seed=seed + 100)
        res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        err = np.max(np.abs(res.y_r.samples - q.y_r_truth.samples))
        assert res.verdict == "ok"
        assert res.residual <= 1e-10
        assert err <= 1e-8
        assert res.y_r.interval == (4, 10)


def test_exactness_threshold_at_span_saturation():
    # L = 10 needs T - L + 1 >= 5L + 2 columns, i.e. T >= 61
    q = _query(seed=7)
    res61 = predict(_record(61, seed=3), q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res61.verdict == "ok"
    assert np.max(np.abs(res61.y_r.samples - q.y_r_truth.samples)) <= 1e-8

    res60 = predict(_record(60, seed=3), q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res60.verdict == "infeasible"
    assert res60.residual > 1e-3


def test_too_short_record_is_reported_infeasible():
    # at T = 40 the 31 available columns cannot span the 52-dimensional
    # window behaviour, so a generic fresh query must be rejected
    rec = _record(40)
    q = _query(seed=11)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res.verdict == "infeasible"
    assert res.residual > 1e-3
    assert res.diagnostics["hankel"].rank < 5 * 10 + 2


def test_zero_input_data_is_ambiguous():
    m = example_verhoek()
    rng = np.random.default_rng(5)
    u = Trajectory(1, np.zeros((70, 1)))
    p = rand_traj(rng, 2, 70)
    y = simulate_io(m, u, p, y_init=rng.normal(size=(2, 1)))
    rec = DataRecord(u=u, p=p, y=y)
    q = _query(seed=21)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res.verdict == "ambiguous"
    assert not res.diagnostics["pe"].verdict


def test_prediction_linear_in_query_signals():
    # for fixed scheduling and data the map (u_ini, y_ini, u_r) -> y_r is
    # linear: the known-row matrix depends only on the scheduling, and the
    # minimum-norm solve is linear in the right-hand side
    rec = _record(70)
    qa, qb = _query(seed=31), _query(seed=32)
    p_ini, p_r = qa.p_ini, qa.p_r  # shared scheduling for all three solves

    def y_r_of(u_ini, y_ini, u_r):
        return predict(rec, u_ini, p_ini, y_ini, u_r, p_r).y_r.samples

    alpha, beta = 0.6, -1.3
    mix = y_r_of(
        Trajectory(1, alpha * qa.u_ini.samples + beta * qb.u_ini.samples),
        Trajectory(1, alpha * qa.y_ini.samples + beta * qb.y_ini.samples),
        Trajectory(4, alpha * qa.u_r.samples + beta * qb.u_r.samples),
    )
    sep = alpha * y_r_of(qa.u_ini, qa.y_ini, qa.u_r) + beta * y_r_of(
        qb.u_ini, qb.y_ini, qb.u_r
    )
    assert np.max(np.abs(mix - sep)) <= 1e-8


def test_prediction_invariant_to_appending_data():
    rec = _record(70)
    longer = _record(90)  # same seed: a strict extension plus fresh columns
    assert np.array_equal(longer.u.samples[:70], rec.u.samples)
    assert np.array_equal(longer.y.samples[:70], rec.y.samples)
    q = _query(seed=41)
    r1 = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    r2 = predict(longer, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert r1.verdict == r2.verdict == "ok"
    assert np.max(np.abs(r1.y_r.samples - r2.y_r.samples)) <= 1e-8


def test_predict_input_validation():
    rec = _record(30)
    q = _query(seed=51)
    with pytest.raises(DimensionMismatch):
        predict(rec, q.p_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    with pytest.raises(InvalidShape):
        predict(rec, q.u_ini, q.p_ini, q.y_ini.restrict(1, 2), q.u_r, q.p_r)


# -- span membership ----------------------------------------------------------


def test_membership_of_data_window():
    rec = _record(60)
    L = 7
    w = rec.w
    for j in (0, 9):
        res = span_membership(
            rec,
            Trajectory(1, w.restrict(1 + j, j + L).samples),
            Trajectory(1, rec.p.restrict(1 + j, j + L).samples),
        )
        assert res.member and res.residual <= 1e-10


def test_membership_of_fresh_trajectory_and_scaling():
    rec = _record(70)
    q = _query(seed=61, T_ini=3, T_r=4)
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p = concat(q.p_ini, q.p_r)
    res = span_membership(rec, w, p)
    assert res.member

    scaled = Trajectory(w.t_start, 2.5 * w.samples)
    assert span_membership(rec, scaled, p).member


def test_non_membership_of_perturbed_system():
    rec = _record(70)
    m = example_verhoek()
    # same structure, different coefficients
    perturbed = LpvIoModel(
        a_coeffs=(
            CoeffMatrix.affine([[1.05]], ([[-0.45]], [[-0.15]]), offset=-1),
            m.a_coeffs[1],
        ),
        b_coeffs=m.b_coeffs,
    )
    failures = 0
    for seed in range(5):
        q = generate_query(perturbed, 3, 4, seed + 500)
        w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
        p = concat(q.p_ini, q.p_r)
        res = span_membership(rec, w, p)
        if not res.member and res.residual > 1e-3:
            failures += 1
    assert failures == 5


# -- left null space / annihilators -------------------------------------------


def test_left_nullspace_dimension_at_saturation():
    # saturated record: null dimension equals n_y * L - n_x (lag 2 system)
    L = 7
    for seed in (1, 2):
        rec = _record(70, seed=seed)
        ns = left_nullspace(rec, L)
        assert ns.hankel.rank == 5 * L + 2
        assert ns.dimension == (1 + 2) * (1 + 1) * L - (5 * L + 2) == L - 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_y=st.integers(1, 2), n_a=st.integers(1, 3), b_less=st.integers(0, 2),
       n_u=st.integers(1, 2), n_p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_the_lemma_holds_on_random_io_models(n_y, n_a, b_less, n_u, n_p, seed):
    # the lifted Hankel of a shifted-affine IO record spans the m_lift L free lifted inputs
    # and the n_a n_y initial outputs from depth n_a on, so its left kernel has n_y (L - n_a)
    # directions, and a query with T_ini = n_a is predicted exactly; the record has 20
    # windows more than the rank at the deepest L = n_a + 3
    rng = np.random.default_rng(seed)
    model = random_io(rng, n_y, n_a, max(1, n_a - b_less), n_u, n_p)
    m_lift, T_r = (1 + n_p) * n_u + n_p * n_y, 3
    rec = generate_record(model, (m_lift + 1) * (n_a + T_r) + n_a * n_y + 19, seed)
    for L in range(n_a, n_a + T_r + 1):
        assert rec.lifted(L).hankel.rank == m_lift * L + n_a * n_y, L
        assert left_nullspace(rec, L).dimension == n_y * (L - n_a), L
    q = generate_query(model, n_a, T_r, seed + 1)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res.verdict == "ok"
    error = np.linalg.norm(res.y_r.samples - q.y_r_truth.samples)
    assert error <= 1e-10 * np.linalg.norm(q.y_r_truth.samples)
    assert minimality_report(model.realization, seed).minimal


def test_left_nullspace_rows_annihilate_fresh_trajectories():
    rec = _record(70)
    ns = left_nullspace(rec, 7)
    worst = 0.0
    for seed in range(10):
        q = _query(seed=seed + 700, T_ini=3, T_r=9)
        w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
        p = concat(q.p_ini, q.p_r)
        worst = max(worst, ns.max_residual_on(w, p))
    assert worst <= 1e-8


def test_left_nullspace_contains_shifted_kernel_rows():
    # the IO recursion and its shifts, written as constant functionals on the
    # extended window coordinates, must lie in the numeric left null space
    rec = _record(70)
    L = 7
    ns = left_nullspace(rec, L)
    R = io_to_kernel(example_verhoek())
    n_ext = (1 + rec.n_p) * (rec.n_u + rec.n_y)

    def functional_from_kernel(shift):
        # kernel coefficient r_s applies at window position shift + s
        row = np.zeros(n_ext * L)
        for s, coeff in enumerate(R.coeffs):
            pos = shift + s
            base = pos * n_ext
            for j in range(R.n_w):
                e = coeff.entry(0, j)
                row[base + j] += {mono: c for c, mono in e.terms}.get((), 0.0)
                for c, mono in e.terms:
                    if mono:
                        (comp, off, pw) = mono[0]
                        assert pw == 1 and off == s  # shifted-affine structure
                        row[base + R.n_w + (comp - 1) * R.n_w + j] += c
        return row

    basis = ns.basis
    for shift in range(L - R.order):
        row = functional_from_kernel(shift)
        row /= np.linalg.norm(row)
        # projection onto the null space keeps the whole vector
        proj = basis.T @ (basis @ row)
        assert np.linalg.norm(proj - row) <= 1e-9


def test_left_nullspace_lti_first_order_known_kernel():
    # scheduling-free first-order system: kernel row is (-b1 on u(k),
    # a1 on y(k), 1 on y(k+1))
    a1, b1 = -0.4, 0.8
    model = LpvIoModel(
        a_coeffs=(CoeffMatrix.constant([[a1]], 0),),
        b_coeffs=(CoeffMatrix.constant([[b1]], 0),),
    )
    rng = np.random.default_rng(8)
    u = rand_traj(rng, 1, 30)
    p = Trajectory(1, np.zeros((30, 0)))
    y = simulate_io(model, u, p, y_init=[[0.3]])
    rec = DataRecord(u=u, p=p, y=y)
    L = 3
    ns = left_nullspace(rec, L)
    # known kernel row at shift 0: coordinates (u1, y1, u2, y2, u3, y3)
    known = np.array([-b1, a1, 0.0, 1.0, 0.0, 0.0])
    known /= np.linalg.norm(known)
    proj = ns.basis.T @ (ns.basis @ known)
    assert np.linalg.norm(proj - known) <= 1e-9


def test_left_nullspace_duality_with_column_span():
    rec = _record(70)
    L = 6
    ns = left_nullspace(rec, L)
    H = hankel(kron_extend(rec.w, rec.p), L)
    assert ns.dimension + ns.hankel.rank == H.shape[0] == ns.hankel.required
    if ns.dimension:
        assert np.max(np.abs(ns.basis @ H)) <= 1e-9


def test_annihilator_reconstruction_agrees_with_raw_functional():
    rec = _record(70)
    ns = left_nullspace(rec, 5)
    q = _query(seed=901, T_ini=3, T_r=6)
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p = concat(q.p_ini, q.p_r)
    kr = ns.annihilator(0)
    assert kr.order <= ns.L - 1
    res = kr.residual(w, p)
    H = hankel(kron_extend(w, p), ns.L)
    raw = ns.basis[0] @ H
    assert np.max(np.abs(res.ravel() - raw)) <= 1e-12


# -- data record interchange ---------------------------------------------------


def test_data_record_json_bundle_round_trip(tmp_path):
    import json

    rec = _record(25)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(rec.to_dict()))
    back = DataRecord.from_json_bundle(path)
    assert np.array_equal(back.u.samples, rec.u.samples)
    assert np.array_equal(back.p.samples, rec.p.samples)
    assert np.array_equal(back.y.samples, rec.y.samples)


def test_data_record_csv_dir_round_trip(tmp_path):
    rec = _record(15)
    rec.to_csv_dir(tmp_path / "d")
    back = DataRecord.from_csv_dir(tmp_path / "d")
    assert np.array_equal(back.y.samples, rec.y.samples)
    assert back.u.interval == rec.u.interval


def test_a_record_read_back_from_either_file_format_is_equal_and_hashes_equal(tmp_path):
    # a record is its samples: one read from a CSV directory once held the
    # directory's path as well, and compared and hashed unequal to its source
    rec = _record(50)
    rec.to_csv_dir(tmp_path / "d")
    signals._write(tmp_path / "record.json", signals._json_text(rec.to_dict()))
    for back in (DataRecord.from_csv_dir(tmp_path / "d"),
                 DataRecord.from_json_bundle(tmp_path / "record.json")):
        assert back == rec and hash(back) == hash(rec)
    assert DataRecord(rec.u, rec.p, rec.y) == rec


def test_a_record_json_with_a_provenance_key_reads_to_the_same_record(tmp_path):
    # record.json files of earlier versions carry a "provenance" string beside u, p, y
    rec = _record(20)
    text = signals._json_text(dict(rec.to_dict(), provenance="model=builtin:verhoek seed=1 T=20"))
    signals._write(tmp_path / "record.json", text)
    assert DataRecord.from_json_bundle(tmp_path / "record.json") == rec


def test_data_record_rejects_interval_mismatch():
    from lpvdd import IntervalMismatch

    rec = _record(10)
    with pytest.raises(IntervalMismatch):
        DataRecord(u=rec.u, p=rec.p, y=Trajectory(2, rec.y.samples))


def test_left_nullspace_requires_enough_data():
    with pytest.raises(InvalidShape):
        left_nullspace(_record(5), 7)


def test_left_nullspace_of_tall_hankel_is_complete():
    # T = 20, L = 7: 42 rows, 14 columns, so the null space needs the full U
    rec = _record(20)
    ns = left_nullspace(rec, 7)
    H = hankel(kron_extend(rec.w, rec.p), 7)
    assert H.shape == (42, 14)
    assert ns.dimension == H.shape[0] - ns.hankel.rank
    assert np.allclose(ns.basis @ ns.basis.T, np.eye(ns.dimension), atol=1e-12)
    assert np.max(np.abs(ns.basis @ H)) <= 1e-9


def test_margin_is_the_kernel_bound_on_sigma_min_of_known_rows():
    # sigma_min(Q_Y^T F) s_r / (1 + max_k |p(k)|), read off the dense stack: at most the
    # r-th singular value of its known rows on the stack's row space, and positive
    rec = _record(70)
    for seed in range(5):
        q = _query(seed=seed + 900)
        res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        _, _, margin, verdict, _, sigma_r = _dense_oracle(rec, q)
        assert res.verdict == verdict == "ok"
        assert 0 < margin <= sigma_r
        assert abs(res.output_uniqueness_margin - margin) <= 1e-12 * margin


def test_predict_svd_outputs_do_not_grow_with_column_count_squared(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def recording_svd(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        arrays = out if isinstance(out, tuple) else (out,)
        calls.append((a.size, max(x.size for x in arrays)))
        return out

    rec = _record(400)
    q = _query(seed=3)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    monkeypatch.undo()
    assert res.verdict == "ok"
    assert calls
    for in_size, largest_out in calls:
        assert largest_out <= in_size


def test_membership_rejects_scheduling_of_wrong_dim():
    rec = _record(30)
    w = rec.w.restrict(1, 5)
    with pytest.raises(DimensionMismatch):
        span_membership(rec, w, Trajectory(1, np.zeros((5, 1))))


@pytest.mark.parametrize("L", [1, 5])
def test_max_residual_rejects_signals_of_wrong_dim(L):
    # checked for an empty basis too (L = 1: no annihilator)
    rec = _record(30)
    ns = left_nullspace(rec, L)
    assert (ns.dimension == 0) == (L == 1)
    for w, p in ((Trajectory(1, np.zeros((30, 3))), rec.p),
                 (rec.w, Trajectory(1, np.zeros((30, 1))))):
        with pytest.raises(DimensionMismatch):
            ns.max_residual_on(w, p)


def test_predict_reads_the_excitation_report_of_check_pe():
    rec, q = _record(70), _query()
    pe = rec.lifted(10).pe
    assert pe == DataRecord(rec.u, rec.p, rec.y).lifted(10).pe
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res.diagnostics["pe"] == pe
    assert (pe.rank, pe.required) == (30, 30)


# -- factor against the dense stacked system ------------------------------------


def _verdict(margin, residual, pe, tol=1e-7, margin_tol=1e-7):
    """``predict``'s one verdict rule."""
    return ("ambiguous" if not pe or margin <= margin_tol
            else "infeasible" if residual > tol else "ok")


def _kernel_bound(complement, unknown, s_r, p):
    """``sigma s_r / (1 + max_k |p(k)|)``, ``sigma`` the least singular value of the rows
    ``unknown`` of the orthonormal ``complement``; 0 where they are none or outnumber its
    columns."""
    B = complement[unknown]
    if not 0 < len(B) <= B.shape[1]:
        return 0.0
    sigma = np.linalg.svd(B, compute_uv=False)[-1]
    return float(sigma * s_r / (1 + np.linalg.norm(p, axis=1).max()))


def _dense_oracle(rec, q, tol=1e-7, margin_tol=1e-7, rtol=1e-9):
    """``predict`` on the literal :func:`build_predictor` stack: ``(y_r, residual, margin,
    verdict, scale, sigma_r)``, ``sigma_r`` the ``r``-th singular value of the known rows
    on the stack's row space, which the margin bounds from below."""
    T_ini, T_r = q.u_ini.length, q.u_r.length
    L = T_ini + T_r
    p_bar = concat(Trajectory(1, q.p_ini.samples), Trajectory(T_ini + 1, q.p_r.samples))
    system = build_predictor(rec, p_bar)
    M, ini = system.matrix, rec.n_y * T_ini
    A = _known_rows(system, ini)
    b = np.concatenate([q.u_ini.samples.ravel(), q.u_r.samples.ravel(),
                        np.zeros(len(system.pu)), q.y_ini.samples.ravel(),
                        np.zeros(len(system.py))])
    g = np.linalg.pinv(A, rcond=rtol) @ b
    residual = float(np.linalg.norm(A @ g - b))
    U, s, Vt = np.linalg.svd(M)
    rank = int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    # sigma_r of the known rows: they pin the r coordinates only at rank r
    s_known = np.linalg.svd(A @ Vt[:rank].T, compute_uv=False)
    sigma_r = float(s_known[rank - 1]) if 0 < rank <= s_known.size else 0.0
    # the margin: the left complement of the stack on its unknown rows, and s_r of H
    top = len(system.u) + len(system.pu) + ini
    s_H = np.linalg.svd(hankel(kron_extend(rec.w, rec.p), L), compute_uv=False)
    margin = _kernel_bound(U[:, rank:], slice(top, top + rec.n_y * T_r),
                           s_H[rank - 1] if rank else 0.0, p_bar.samples)
    verdict = _verdict(margin, residual, check_pe(rec.u, rec.p, L).verdict, tol, margin_tol)
    y_r = (system.y[ini:] @ g).reshape(T_r, rec.n_y)
    return y_r, residual, margin, verdict, float(np.linalg.norm(M, 2)), sigma_r


def _dense_membership_residual(rec, w, p, rtol=1e-9):
    L = w.length
    Hw = hankel(rec.w, L)
    Hpw = hankel(kron_signal(rec.w, rec.p), L)
    A = np.vstack([Hw, Hpw - sched_block_diag(p, w.dim) @ Hw])
    b = np.concatenate([w.samples.ravel(), np.zeros(Hpw.shape[0])])
    return float(np.linalg.norm(A @ (np.linalg.pinv(A, rcond=rtol) @ b) - b))


def _cut_fit(rec, w, p, unknown, cut):
    """Distance of ``col(w, 0)``, less its ``unknown`` samples, to the span of the known
    rows ``A`` of ``K = M(p) U_r S_r``, the span ``H``'s own cut keeps, ``sigma_r(A)`` and
    the margin on that span: the projection off the QR of ``A``, or with a ``cut`` the fit
    on a ``pinv`` at ``RANK_CUT``."""
    lifted = rec.lifted(len(w))
    K = lifted.consistent(p, rank := lifted.hankel.rank)
    b, known = np.zeros(K.shape[:3]), np.ones(K.shape[:3], dtype=bool)
    b[:, 0], known[:, 0] = w, ~unknown
    A, b = K[known], b[known]
    s = np.linalg.svd(A, compute_uv=False)
    sigma_r = float(s[rank - 1]) if 0 < rank <= s.size else 0.0
    complement = np.linalg.svd(K.reshape(-1, rank))[0][:, rank:]
    margin = _kernel_bound(complement, ~known.ravel(), lifted.s[rank - 1] if rank else 0.0, p)
    if cut:
        z = np.linalg.pinv(A, rcond=analysis.RANK_CUT) @ b
        return float(np.linalg.norm(A @ z - b)), sigma_r, margin
    Q = np.linalg.qr(A)[0]
    return float(np.linalg.norm(b - Q @ (Q.T @ b))), sigma_r, margin


_LTI = LpvIoModel(
    a_coeffs=(CoeffMatrix.constant([[-0.4]], 0),),
    b_coeffs=(CoeffMatrix.constant([[0.8]], 0),),
)


_IO = {n_p: random_io(np.random.default_rng(n_p), n_y=1, n_a=2, n_b=2, n_u=1, n_p=n_p)
       for n_p in (4, 16)}


@settings(max_examples=180, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["verhoek", "lti", "zero", "io4", "io16", "dense", "noise8",
                          "noise2", "p10"]),
    seed=st.integers(0, 2**16),
    T_ini=st.integers(1, 4),
    T_r=st.integers(1, 6),
    extra=st.integers(0, 70),
)
def test_factor_matches_dense_stack(kind, seed, T_ini, T_r, extra):
    # extra spans tall records (T - L + 1 below the 6 L stacked rows of the
    # built-in model) and saturated wide ones; a random_io record at n_p = 4 or 16
    # saturates from T = (2 n_p + 2) L + 1 on, so it starts 5 steps short of that
    L = T_ini + T_r
    T = L + extra
    model = {"lti": _LTI, "io4": _IO[4], "io16": _IO[16], "dense": _DENSE_SS}.get(kind)
    if kind.startswith("io"):
        T = (2 * model.n_p + 2) * L - 5 + extra
    if model is not None:
        rec = generate_record(model, T, seed)
        q = generate_query(model, T_ini, T_r, seed + 1)
    else:
        rec = _record(T, seed=seed)
        if kind == "zero":
            zeros = Trajectory(1, np.zeros((T, 1)))
            rec = DataRecord(u=zeros, p=rec.p, y=zeros)
        if kind.startswith("noise"):  # output noise of 1e-8 or 1e-2: full row rank
            noise = 10.0 ** -int(kind[5:]) * np.random.default_rng(seed).normal(size=(T, 1))
            rec = DataRecord(u=rec.u, p=rec.p, y=Trajectory(1, rec.y.samples + noise))
        q = _query(seed=seed + 1, T_ini=T_ini, T_r=T_r)
        if kind == "p10":  # a query scheduling 10 times the record's: sigma_min(M(p)) < 1
            q = dataclasses.replace(q, p_ini=Trajectory(1, 10 * q.p_ini.samples),
                                    p_r=Trajectory(q.p_r.t_start, 10 * q.p_r.samples))
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    y_r, residual, margin, verdict, scale, sigma_r = _dense_oracle(rec, q)
    pe = check_pe(rec.u, rec.p, L).verdict
    # noise of 1e-8 puts the record's noise directions at the cut, where the dense stack's
    # pinv (rcond 1e-9) and RANK_CUT on H keep different spans: residuals then differ by
    # about 1e-8 and margins by up to 2e-8, so both are checked against a dense fit on the
    # span H's cut keeps
    near_cut = kind == "noise8"
    assert res.verdict == verdict
    w = np.hstack([np.concatenate([q.u_ini.samples, q.u_r.samples]),
                   np.concatenate([q.y_ini.samples, np.zeros((T_r, rec.n_y))])])
    unknown = np.zeros(w.shape, dtype=bool)
    unknown[T_ini:, rec.n_u:] = True
    p = np.concatenate([q.p_ini.samples, q.p_r.samples])
    if near_cut:
        # the known rows pin the outputs unless ambiguous, which cuts them as the fit does
        residual, sigma_r, margin = _cut_fit(rec, w, p, unknown, cut=verdict == "ambiguous")
    assert abs(res.residual - residual) <= 1e-9 * (1 + residual)
    assert abs(res.output_uniqueness_margin - margin) <= 1e-12 * (1 + scale)
    # the margin is sound: it never exceeds sigma_r of the known rows
    assert res.output_uniqueness_margin <= sigma_r + 1e-12 * (1 + scale)
    if verdict == "ok":
        assert np.max(np.abs(res.y_r.samples - y_r)) <= 1e-9 * (1 + np.max(np.abs(y_r)))
    if kind.startswith("noise") and res.diagnostics["hankel"].rank == 6 * L:
        # no left kernel (d = 0): the margin is 0, and y_r is the known-row fit's own
        assert res.output_uniqueness_margin == 0.0 and res.verdict == "ambiguous"
        K, z, _ = res._from[2]
        assert np.array_equal(res.y_r.samples, K[T_ini:, 0, 1:] @ z)
    if kind == "zero":
        assert res.diagnostics["hankel"].rank == 0
        assert res.output_uniqueness_margin == 0.0
        assert res.residual == pytest.approx(
            np.linalg.norm(np.concatenate([q.u_ini.samples, q.u_r.samples, q.y_ini.samples]))
        )
    # one verdict rule: at margin_tol = margin (1 +- 1e-3) the verdict flips where the
    # oracle's does, and the margin does not move
    sigma, tols = res.output_uniqueness_margin, [0.0]
    if sigma > 1e-9 * (1 + scale):  # resolved beyond the margins' 1e-12 (1 + scale) gap
        tols += [sigma * (1 - 1e-3), sigma * (1 + 1e-3)]
    for margin_tol in tols:
        at_tol = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r, margin_tol=margin_tol)
        assert at_tol.verdict == _verdict(margin, residual, pe, margin_tol=margin_tol)
        assert at_tol.output_uniqueness_margin == sigma

    # the true window (a member once the record saturates) and a non-member: any residual
    # that vanishes on the span passes the first, only the distance to it the second
    p = concat(q.p_ini, q.p_r)
    for y_r in (q.y_r_truth.samples, q.y_r_truth.samples + 0.5):
        w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, Trajectory(q.u_r.t_start, y_r)))
        member = span_membership(rec, w, p)
        if near_cut and res.diagnostics["hankel"].rank == 6 * L:
            assert member.residual == 0.0  # an empty left kernel: every window is a member
        dense = (_cut_fit(rec, w.samples, p.samples, np.zeros(w.samples.shape, bool), False)[0]
                 if near_cut else _dense_membership_residual(rec, w, p))
        assert abs(member.residual - dense) <= 1e-9 * (1 + dense)


def test_certified_predict_and_its_margin_make_no_r_by_r_svd(monkeypatch):
    # the verdict and the margin read the singular values of the kernel fit's m x m
    # triangle; reading the margin makes no SVD
    rec, q = _record(400), _query(seed=3)
    rec.lifted(q.u_ini.length + q.u_r.length).pe  # factor the record and its input rows
    svd, calls = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    m = rec.n_y * q.u_r.length
    assert res.verdict == "ok" and calls == [((m, m), {"compute_uv": False})]
    assert res.output_uniqueness_margin > lpvdd.analysis.TOL and len(calls) == 1


def test_membership_with_an_empty_left_kernel_is_exact():
    # the depth-3 lifted Hankel of this model has full row rank R = 48, so no annihilator
    # exists and every window is a member: the complement is empty and the residual 0.0
    rec = generate_record(random_affine_ss(np.random.default_rng(0), 6, 2, 2, 3), 400, 0)
    assert left_nullspace(rec, 3).dimension == 0
    rng = np.random.default_rng(1)
    w, p = rand_traj(rng, 4, 3), rand_traj(rng, 3, 3)
    res = span_membership(rec, w, p)
    assert res.member and res.residual == 0.0
    assert _dense_membership_residual(rec, w, p) <= 1e-9


_DENSE_SS = random_affine_ss(np.random.default_rng(5), 3, 2, 2, 2)


@pytest.mark.parametrize("model, T, L", [
    (example_verhoek(), 70, 7),  # N < 4 R: the factor of H itself
    (_DENSE_SS, 600, 6),  # the QR of one block of windows
    (_DENSE_SS, 5000, 4),  # TSQR of two blocks
])
def test_consistent_rows_are_the_specification_blocks(model, T, L):
    # K = M(p) U_r S_r, so K S_r^-1 U_r^T H = M(p) H: the build_predictor stack, row by
    # row, in K's (L, 1 + n_p, n_w) layout
    rec = generate_record(model, T, 1)
    p = np.random.default_rng(2).uniform(-1, 1, (L, rec.n_p))
    lifted, system = rec.lifted(L), build_predictor(rec, Trajectory(1, p))
    r, n_u = lifted.hankel.rank, rec.n_u
    H = hankel(kron_extend(rec.w, rec.p), L)
    MH = lifted.consistent(p, r) @ ((lifted.U[:, :r] / lifted.s[:r]).T @ H)
    blocks = (MH[:, 0, :n_u], MH[:, 1:, :n_u], MH[:, 0, n_u:], MH[:, 1:, n_u:])
    for got, want in zip(blocks, (system.u, system.pu, system.y, system.py)):
        got = got.reshape(-1, H.shape[1])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(H, 2)


def _linalg_calls(monkeypatch, fn, names):
    """``(operand shapes, keywords)`` of each ``np.linalg`` call ``names`` of ``fn()``."""
    calls = {name: [] for name in names}

    def recording(name, real):
        def call(*args, **kwargs):
            calls[name].append((tuple(np.shape(a) for a in args), kwargs))
            return real(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    fn()
    monkeypatch.undo()
    return calls


def _factor_shapes(monkeypatch, fn, names=("svd", "qr")):
    """Operand shapes of the ``np.linalg`` calls ``names`` (``svd`` and ``qr``) of ``fn()``."""
    calls = _linalg_calls(monkeypatch, fn, names)
    return {name: [shapes[0] for shapes, _ in calls[name]] for name in names}


def _wide_svd_calls(monkeypatch, fn, cols):
    """Number of ``np.linalg.svd`` and ``np.linalg.qr`` calls on a matrix with an
    axis of length ``cols``: the factorizations of a Hankel matrix of ``cols`` columns."""
    shapes = _factor_shapes(monkeypatch, fn)
    return sum(cols in shape for shape in shapes["svd"] + shapes["qr"])


def test_one_wide_svd_per_predict_and_per_check_pe(monkeypatch):
    rec = _record(400)
    q = _query(seed=3)
    L = q.u_ini.length + q.u_r.length
    cols = rec.T - L + 1
    calls = _wide_svd_calls(
        monkeypatch, lambda: predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r), cols
    )
    assert calls == 1
    fresh = DataRecord(rec.u, rec.p, rec.y)
    assert _wide_svd_calls(monkeypatch, lambda: fresh.lifted(L).pe, cols) == 1


# -- one factor per record and depth ------------------------------------------


def test_second_predict_on_a_record_makes_no_wide_svd(monkeypatch):
    rec = _record(400)
    q = _query(seed=3)
    cols = rec.T - (q.u_ini.length + q.u_r.length) + 1
    results = []

    def run():
        results.append(predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r))

    assert _wide_svd_calls(monkeypatch, run, cols) == 1
    assert _wide_svd_calls(monkeypatch, run, cols) == 0
    first, second = results
    assert np.array_equal(first.y_r.samples, second.y_r.samples)
    assert first.verdict == second.verdict == "ok"
    assert first.diagnostics == second.diagnostics
    assert first.output_uniqueness_margin == second.output_uniqueness_margin


def test_nullspace_and_membership_share_one_factor(monkeypatch):
    rec = _record(70)
    q = _query(seed=61, T_ini=3, T_r=4)
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p = concat(q.p_ini, q.p_r)

    def run():
        assert left_nullspace(rec, 7).dimension == 5
        assert span_membership(rec, w, p).member

    assert _wide_svd_calls(monkeypatch, run, rec.T - 7 + 1) == 1


def test_factor_is_not_shared_between_records(monkeypatch):
    rec, other = _record(70, seed=1), _record(70, seed=2)
    ns = left_nullspace(rec, 7)
    copy = DataRecord(u=rec.u, p=rec.p, y=rec.y)
    assert _wide_svd_calls(monkeypatch, lambda: left_nullspace(copy, 7), 64) == 1
    assert left_nullspace(copy, 7).hankel == ns.hankel

    mixed = dataclasses.replace(rec, y=other.y)
    fresh = DataRecord(u=rec.u, p=rec.p, y=other.y)
    assert left_nullspace(mixed, 7).hankel == left_nullspace(fresh, 7).hankel
    assert left_nullspace(mixed, 7).hankel.singular_values != ns.hankel.singular_values
    assert "_lifted" not in repr(rec)


def test_factor_memo_holds_no_array_of_record_length():
    def memo_nbytes(T):
        rec = _record(T)
        memo = [rec.lifted(L) for L in (7, 10)]
        assert [f.shape[-1] for f in memo] == [T - 6, T - 9]
        return sum(f.U.nbytes + f.s.nbytes + f.inputs.nbytes for f in memo)

    assert memo_nbytes(500) == memo_nbytes(4000)


def test_no_svd_of_a_long_record_has_a_record_long_axis(monkeypatch):
    # T = 400: every lifted Hankel matrix here has N >= 4 R columns, so each goes
    # through one QR and no SVD operand has an axis longer than R = 6 L rows
    rec = _record(400)
    q = _query(seed=3)
    L = q.u_ini.length + q.u_r.length
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p = concat(q.p_ini, q.p_r)

    def run():
        assert predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r).verdict == "ok"
        assert check_pe(rec.u, rec.p, L).verdict
        assert DataRecord(rec.u, rec.p, rec.y).lifted(L).pe.verdict
        assert left_nullspace(rec, 7).dimension == 5
        assert span_membership(rec, w, p).member

    shapes = _factor_shapes(monkeypatch, run)
    assert max(max(shape) for shape in shapes["svd"]) <= 6 * L
    # predict and span_membership share one factor; left_nullspace has its own depth.
    # The other QRs are those of predict's known rows [A b] and of span_membership's [Y b].
    long = {rec.T - L + 1, rec.T - 7 + 1}
    assert sorted(shape for shape in shapes["qr"] if long & set(shape)) == sorted(
        [(rec.T - L + 1, 6 * L), (rec.T - L + 1, 3 * L),
         (rec.T - L + 1, 6 * L), (rec.T - 7 + 1, 6 * 7)])


@pytest.mark.parametrize("n_p", [1, 4])
def test_membership_on_a_factored_record_makes_one_small_qr(monkeypatch, n_p):
    # a window known in full is read against the complement of M(p) U_r S_r: one QR of
    # [Y b], Y the n_y L - n_x columns of the left kernel at p, whatever n_p; no fit
    model = random_io(np.random.default_rng(n_p), n_y=1, n_a=2, n_b=2, n_u=1, n_p=n_p)
    rec, q = generate_record(model, 400, 1), generate_query(model, 2, 4, 2)
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p, L = concat(q.p_ini, q.p_r), w.length
    assert rec.lifted(L).shape[:3] == (L, 1 + n_p, 2)  # factored before the count
    results = []
    shapes = _factor_shapes(monkeypatch, lambda: results.append(span_membership(rec, w, p)))
    assert results[0].member
    assert shapes == {"svd": [], "qr": [(2 * (1 + n_p) * L, 1 * L - 2 + 1)]}


@pytest.mark.parametrize("n_p", [1, 16])
def test_certified_predict_on_a_factored_record_solves_on_the_left_kernel(monkeypatch, n_p):
    # the m = n_y T_r future outputs are the unknowns of a window read against the
    # complement of M(p) U_r S_r: one QR of [Y F b] (R x (d + m + 1), d = n_y L - n_x
    # whatever n_p) and the fit on its top d rows, one d x (m + 1) QR, the values-only SVD
    # of its m x m triangle and one solve; nothing with r columns.  The margin is read off
    # that triangle, and the known-row fit runs on the first read of g, once
    model = random_io(np.random.default_rng(n_p), n_y=1, n_a=2, n_b=2, n_u=1, n_p=n_p)
    L, m = 7, 4
    rec, q = generate_record(model, 4 * 2 * (1 + n_p) * L + L, 1), generate_query(model, 3, m, 2)
    lifted = rec.lifted(L)
    lifted.pe  # factor the record and its input rows before the count
    R, r = len(lifted.U), lifted.hankel.rank
    d = R - r
    assert d == L - 2
    results, names = [], ("svd", "qr", "solve")
    calls = _linalg_calls(monkeypatch, lambda: results.append(
        predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)), names)
    res = results[0]
    assert res.verdict == "ok"
    qr = {"mode": "r"}
    assert calls == {"svd": [(((m, m),), {"compute_uv": False})],
                     "qr": [(((R, d + m + 1),), {"mode": "raw"}), (((d, m + 1),), qr)],
                     "solve": [(((m, m), (m,)), {})]}
    assert res._from[2] == ()  # no known-row fit
    shapes = _factor_shapes(monkeypatch, lambda: res.output_uniqueness_margin, names)
    assert shapes == {"svd": [], "qr": [], "solve": []}
    # the first read of g runs the known-row fit: the QR of [A b], the values-only SVD of
    # its r x r triangle and one solve against a vector; a second read reuses g
    calls = _linalg_calls(monkeypatch, lambda: res.g, names)
    assert calls == {"svd": [(((r, r),), {"compute_uv": False})],
                     "qr": [(((R - m, r + 1),), qr)], "solve": [(((r, r), (r,)), {})]}
    shapes = _factor_shapes(monkeypatch, lambda: res.g, names)
    assert shapes == {"svd": [], "qr": [], "solve": []}
    assert res.output_uniqueness_margin > lpvdd.analysis.TOL


def _ledger(monkeypatch, fn):
    """``{name: [(operand shapes, keywords), ...]}`` of the ``np.linalg`` calls of
    ``fn()``, over every function of ``np.linalg``; a name with no call is left out."""
    names = [name for name in np.linalg.__all__
             if callable(f := getattr(np.linalg, name)) and not isinstance(f, type)]
    return {name: c for name, c in _linalg_calls(monkeypatch, fn, names).items() if c}


def _query_ledgers(monkeypatch, model, T, T_ini=3, T_r=7):
    """Ledgers of a warm certified ``predict`` on a ``T``-step record of ``model`` and of
    ``span_membership`` of the query's true window: the record is factored by a first
    query before either is recorded."""
    rec = generate_record(model, T, 1)
    warm, q = (generate_query(model, T_ini, T_r, seed) for seed in (2, 3))
    predict(rec, warm.u_ini, warm.p_ini, warm.y_ini, warm.u_r, warm.p_r)
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    results = []
    ledgers = (_ledger(monkeypatch, lambda: results.append(
                   predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r))),
               _ledger(monkeypatch, lambda: results.append(
                   span_membership(rec, w, concat(q.p_ini, q.p_r)))))
    certified, membership = results
    assert certified.verdict == "ok" and certified._from[2] == ()
    assert membership.member
    return ledgers


def test_certified_query_ledger_is_the_same_at_every_record_length(monkeypatch):
    # a warm certified query and a membership read make the same np.linalg calls on the
    # same shapes at every T (the built-in model, L = 10: R = 60 rows, d = n_y L - n_x = 8
    # kernel columns, m = 7 unknowns); T enters only the factor
    model = example_verhoek()
    ledgers = [_query_ledgers(monkeypatch, model, T) for T in (70, 500, 2000, 4000, 20000)]
    assert all(ledger == ledgers[0] for ledger in ledgers)
    assert ledgers[0] == (
        {"qr": [(((60, 16),), {"mode": "raw"}), (((8, 8),), {"mode": "r"})],
         "svd": [(((7, 7),), {"compute_uv": False})], "solve": [(((7, 7), (7,)), {})]},
        {"qr": [(((60, 9),), {"mode": "raw"})]})


def test_certified_query_ledger_moves_with_n_p_only_in_the_kernel_qr_rows(monkeypatch):
    # SISO random_io models of order 2 at T = 4000: the lifted Hankel has
    # R = 2 (1 + n_p) L rows, and its left kernel n_y L - n_x columns whatever n_p, so of
    # both ledgers only the row count of the first QR, the one of [Y F -b], changes
    def rows_out(ledger):
        (((rows, cols),), keywords), *rest = ledger["qr"]
        return rows, {**ledger, "qr": [(((cols,),), keywords), *rest]}

    built_in = _query_ledgers(monkeypatch, example_verhoek(), 4000)
    want = [rows_out(ledger)[1] for ledger in built_in]
    for n_p in (1, 4, 16):
        model = random_io(np.random.default_rng(n_p), n_y=1, n_a=2, n_b=2, n_u=1, n_p=n_p)
        for ledger, same in zip(_query_ledgers(monkeypatch, model, 4000), want):
            rows, rest = rows_out(ledger)
            assert rows == 2 * (1 + n_p) * 10 and rest == same, n_p


@pytest.mark.parametrize("T,want", [
    (70, {"svd": [(((60, 61),), {"full_matrices": False}),
                  (((30, 61),), {"compute_uv": False})]}),
    *((T, {"qr": [(((T - 9, 60),), {"mode": "r"})],
           "svd": [(((60, 60),), {"full_matrices": False}),
                   (((30, 60),), {"compute_uv": False})]}) for T in (500, 2000, 4000)),
    (20000, {"qr": [*[(((4096, 60),), {"mode": "r"})] * 4, (((3607, 60),), {"mode": "r"}),
                    (((300, 60),), {"mode": "r"})],
             "svd": [(((60, 60),), {"full_matrices": False}),
                     (((30, 60),), {"compute_uv": False})]}),
])
def test_factor_ledger_of_a_fresh_record(monkeypatch, T, want):
    # the built-in model at L = 10 (R = 60 rows, N = T - 9 windows): below 4 R windows the
    # Hankel matrix itself takes the SVD; from there one QR of the windows, or of blocks of
    # BLOCK windows and then of their stacked triangles, leaves a 60 x 60 triangle for the
    # SVD, and the excitation record reads the singular values of its 30 input rows
    rec = generate_record(example_verhoek(), T, 1)
    ledger = _ledger(monkeypatch, lambda: rec.lifted(10).pe)
    assert ledger == want
    assert max(shape[0] for calls in ledger.values() for (shape,), _ in calls) <= \
        analysis.BLOCK


def test_reading_the_margin_makes_no_linalg_call(monkeypatch):
    # the margin is a field of the result: a certified query, an ambiguous one (T_ini = 1,
    # below the lag) and a query on a noisy record of full row rank (d = 0, margin 0) read
    # it with no np.linalg call; an ambiguous query's g reuses the fit predict ran
    rec = _record(400)
    noise = 1e-8 * np.random.default_rng(0).normal(size=(rec.T, 1))
    noisy = DataRecord(rec.u, rec.p, Trajectory(1, rec.y.samples + noise))
    assert noisy.lifted(10).hankel.rank == 60
    for data, q, verdict in ((rec, _query(seed=3), "ok"),
                             (rec, _query(seed=3, T_ini=1), "ambiguous"),
                             (noisy, _query(seed=3), "ambiguous")):
        res = predict(data, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        assert res.verdict == verdict
        assert _ledger(monkeypatch, lambda: res.output_uniqueness_margin) == {}
        assert (res.output_uniqueness_margin > 0) == (data is rec and verdict == "ok")
        if verdict == "ambiguous":
            assert _ledger(monkeypatch, lambda: res.g) == {}


@pytest.mark.parametrize("T", [70, 400])
def test_left_nullspace_on_a_fresh_record_makes_one_svd(monkeypatch, T):
    # the input-row singular values are read only by predict
    rec = _record(T)
    shapes = _factor_shapes(monkeypatch, lambda: left_nullspace(rec, 7))
    assert len(shapes["svd"]) == 1
    assert len(shapes["qr"]) == (T - 6 >= 4 * 42)


def test_max_residual_on_an_empty_basis_builds_no_hankel(monkeypatch):
    model = random_affine_ss(np.random.default_rng(0), 6, n_u=2, n_y=2, n_p=3)
    rec = generate_record(model, 400, 0)
    ns = left_nullspace(rec, 3)
    assert ns.dimension == 0

    def no_hankel(*args, **kwargs):
        raise AssertionError("hankel built for an empty basis")

    monkeypatch.setattr("lpvdd.prediction.hankel", no_hankel)
    assert ns.max_residual_on(rec.w, rec.p) == 0.0


def test_max_residual_on_a_window_shorter_than_the_depth_is_invalid_for_any_basis():
    # an empty basis answered 0.0 for a 1-step window, where a basis raised
    rec = _record(200)
    w, p = rec.w.restrict(1, 1), rec.p.restrict(1, 1)
    for L, dimension in ((2, 0), (3, 1)):
        ns = left_nullspace(rec, L)
        assert ns.dimension == dimension
        with pytest.raises(InvalidShape, match=f"data length 1 shorter than order L={L}"):
            ns.max_residual_on(w, p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    T_ini=st.sampled_from([1, 2, 3]),
    T_r=st.sampled_from([1, 3, 7]),
    extra=st.sampled_from([5, 11, 30, 100]),
)
def test_ok_verdict_predicts_exactly(seed, T_ini, T_r, extra):
    # T_ini = 1 is below the lag 2: the outputs are then not determined,
    # and the margin must not certify them
    rec = _record(T_ini + T_r + extra, seed=seed)
    q = _query(seed=seed + 1, T_ini=T_ini, T_r=T_r)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    if res.verdict == "ok":
        assert np.max(np.abs(res.y_r.samples - q.y_r_truth.samples)) <= 1e-8


def test_affine_state_space_record_is_not_certified():
    # affine A(p), C(p) give an IO form with dynamic dependence, outside the
    # shifted-affine class: the lifted Hankel has full row rank (160), more
    # than the 146 known rows, so the future outputs are not pinned
    model = random_affine_ss(np.random.default_rng(0), 6, n_u=2, n_y=2, n_p=3)
    rec = generate_record(model, 1000, 0)
    q = generate_query(model, 3, 7, 1)
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res.diagnostics["hankel"].rank > res.diagnostics["known_row_count"]
    assert res.output_uniqueness_margin == 0.0
    assert res.verdict != "ok"


# -- one time axis: samples give the answer, times only label it ----------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.integers(-10**6, 10**6), e=st.integers(-10**6, 10**6), seed=st.integers(0, 50),
       late=st.sampled_from(["p_ini", "y_ini", "u_r", "p_r"]), step=st.sampled_from([-1, 1]))
def test_shifted_time_axis_moves_only_the_labels(d, e, seed, late, step):
    # a query at t = 101... got y_r labelled 4...; a window off the query's axis read ok
    rec, q = _record(70), _query(seed=seed)
    query = {key: getattr(q, key) for key in ("u_ini", "p_ini", "y_ini", "u_r", "p_r")}
    moved = {key: Trajectory(w.t_start + d, w.samples) for key, w in query.items()}
    rec_moved = DataRecord(*(Trajectory(w.t_start + e, w.samples)
                             for w in (rec.u, rec.p, rec.y)))
    ref = predict(rec, **query)
    assert ref.y_r.interval == q.u_r.interval
    for data, args, shift in ((rec, moved, d), (rec_moved, query, 0)):
        res = predict(data, **args)
        assert res.verdict == ref.verdict
        assert np.array_equal(res.y_r.samples, ref.y_r.samples)
        assert res.residual == ref.residual
        assert res.output_uniqueness_margin == ref.output_uniqueness_margin
        assert res.y_r.interval == (ref.y_r.t_start + shift, ref.y_r.t_end + shift)
    moved[late] = Trajectory(moved[late].t_start + step, moved[late].samples)
    with pytest.raises(InvalidShape, match=f"{late} on steps"):
        predict(rec, **moved)

    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p = concat(q.p_ini, q.p_r)
    member = span_membership(rec, w, p)
    assert span_membership(rec, Trajectory(1 + d, w.samples),
                           Trajectory(1 + d, p.samples)) == member
    assert span_membership(rec_moved, w, p) == member
    with pytest.raises(InvalidShape, match="p_test on steps"):
        span_membership(rec, w, Trajectory(1 + step, p.samples))


# -- the windows of one lifted signal; the triangle by blocks ----------------


def _poisoned(traj, value):
    samples = traj.samples.copy()
    samples[-1, -1] = value
    return Trajectory(traj.t_start, samples)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("name", ["u_ini", "p_ini", "y_ini", "u_r", "p_r"])
def test_predict_rejects_non_finite_queries(name, value):
    # a NaN query read "ok" with NaN outputs, or failed to converge inside LAPACK; now
    # the window cannot be made, so predict is never reached
    rec, q = _record(100), _query(seed=3)
    args = {key: getattr(q, key) for key in ("u_ini", "p_ini", "y_ini", "u_r", "p_r")}
    k = args[name].t_end
    with pytest.raises(InvalidShape, match=f"^non-finite sample at time step {k}$"):
        predict(rec, **{**args, name: _poisoned(args[name], value)})


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, "1", None, [1e-7], True])
@pytest.mark.parametrize("name", ["tol", "margin_tol"])
def test_predict_rejects_a_tolerance_outside_zero_to_inf(name, value):
    # a NaN tol read an infeasible query "ok", a NaN margin_tol skipped the margin test; a
    # string, None or a list raised a bare TypeError, and tol=True ran as 1.0
    rec, q = _record(100), _query(seed=3)
    message = (f"must be in \\[0, inf\\), got {value}" if isinstance(value, float)
               else re.escape(f"must be a real number, got {value!r}"))
    with pytest.raises(InvalidShape, match=f"^{name} {message}$"):
        predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r, **{name: value})


def test_predict_tolerance_defaults_to_the_one_constant():
    rec, q = _record(200), _query(seed=3)
    y_off = Trajectory(q.y_ini.t_start, q.y_ini.samples + 1.0)
    args = (rec, q.u_ini, q.p_ini, y_off, q.u_r, q.p_r)
    res = predict(*args)
    assert res.verdict == "infeasible" and res.residual > analysis.TOL
    assert predict(*args, tol=res.residual).verdict == "ok"
    assert predict(*args, tol=analysis.TOL, margin_tol=analysis.TOL).to_dict() == res.to_dict()


@pytest.mark.parametrize("name", ["w_test", "p_test"])
def test_membership_rejects_non_finite_windows(name):
    # the window cannot be made, so span_membership is never reached
    rec, q = _record(100), _query(seed=3)
    args = {"w_test": _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth)),
            "p_test": concat(q.p_ini, q.p_r)}
    with pytest.raises(InvalidShape, match="^non-finite sample at time step 10$"):
        span_membership(rec, **{**args, name: _poisoned(args[name], np.nan)})


@pytest.mark.parametrize("name", ["w", "p"])
def test_max_residual_rejects_non_finite_signals(name):
    # before the empty-basis shortcut too (L = 1: no annihilator): the window cannot
    # be made, so max_residual_on is never reached
    rec = _record(40)
    args = {"w": rec.w, "p": rec.p}
    for L in (1, 5):
        nullspace = left_nullspace(rec, L)
        with pytest.raises(InvalidShape, match="^non-finite sample at time step 40$"):
            nullspace.max_residual_on(**{**args, name: _poisoned(args[name], np.nan)})


@pytest.mark.parametrize("name", ["u", "p", "y"])
def test_data_record_rejects_non_finite_samples(name):
    # the signal cannot be made, so no record holds it
    rec = _record(40)
    args = {key: getattr(rec, key) for key in ("u", "p", "y")}
    with pytest.raises(InvalidShape, match="^non-finite sample at time step 40$"):
        DataRecord(**{**args, name: _poisoned(args[name], np.inf)})


def test_an_overflowing_lift_names_p_x_w():
    rec = _record(40)
    p, y = rec.p.samples.copy(), rec.y.samples.copy()
    p[3] = y[3] = 1e160  # every sample is finite, but p (x) y at step 4 is not
    big = DataRecord(rec.u, Trajectory(1, p), Trajectory(1, y))
    with pytest.raises(InvalidShape, match=r"^p \(x\) w: non-finite sample at time step 4$"):
        big.lifted(5)


def test_the_residual_of_data_near_the_float_range_is_finite():
    # the squares of u and y scaled by 1e200 overflow: numpy warned (an error here) and
    # the residual was inf, which prediction.json held as Infinity, not JSON
    rec, q = _record(200), _query(seed=2)

    def big(w):
        return Trajectory(w.t_start, 1e200 * w.samples)

    result = predict(DataRecord(big(rec.u), rec.p, big(rec.y)),
                     big(q.u_ini), q.p_ini, big(q.y_ini), big(q.u_r), q.p_r)
    assert 1e180 < result.residual < np.inf

    def reject(constant):
        raise ValueError(constant)

    json.loads(json.dumps(result.to_dict()), parse_constant=reject)


@pytest.mark.parametrize("scale", [(1e200, 1.0), (1.0, 1e150)])
def test_membership_of_windows_near_the_float_range_is_a_finite_no(scale):
    # w scaled by 1e200, or p by 1e150 (M(p) U_r S_r then has rank 14 of 37 at RANK_CUT,
    # and the residual is the distance to its full span): no overflow, warning or error
    rec, q = _record(70), _query(seed=61, T_ini=3, T_r=4)
    w = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, q.y_r_truth))
    p = concat(q.p_ini, q.p_r)
    res = span_membership(rec, Trajectory(1, scale[0] * w.samples),
                          Trajectory(1, scale[1] * p.samples))
    assert not res.member and 1.0 < res.residual < np.inf


@pytest.mark.parametrize("scale, verdict", [
    ((1.0, 1e150, 1.0), "ambiguous"),  # 1 + max_k |p(k)| ~ 1e150: the certificate reads 0
    ((1e200, 1.0, 1e200), "infeasible"),  # residual ~1e184, rounding at this scale
    ((1e-6, 1.0, 1e6), "infeasible"),
    ((1.0, 1e6, 1e6), "infeasible"),
])
def test_predict_on_data_far_off_unit_scale_keeps_its_verdict(scale, verdict):
    # record and query scaled alike (u, p, y): the certificate s_r / (1 + max_k |p(k)|) and
    # the kernel read neither overflow nor warn, and the verdicts are those of the known-row
    # fit alone
    rec, q = _record(400), _query(seed=5)

    def sc(w, i):
        return Trajectory(w.t_start, scale[i] * w.samples)

    big = DataRecord(sc(rec.u, 0), sc(rec.p, 1), sc(rec.y, 2))
    for margin_tol in (lpvdd.analysis.TOL, 0.0):
        res = predict(big, sc(q.u_ini, 0), sc(q.p_ini, 1), sc(q.y_ini, 2), sc(q.u_r, 0),
                      sc(q.p_r, 1), margin_tol=margin_tol)
        assert res.verdict == verdict
        assert 0.0 < res.residual < np.inf and np.isfinite(res.y_r.samples).all()


def test_second_predict_builds_no_hankel(monkeypatch):
    rec, q = _record(400), _query(seed=3)
    first = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    calls = []

    def counting(*args, real=signals.hankel):
        calls.append(args)
        return real(*args)

    for module in (lpvdd, analysis, prediction, signals):
        if hasattr(module, "hankel"):
            monkeypatch.setattr(module, "hankel", counting)
    second = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert calls == []
    assert np.array_equal(first.g, second.g)
    # g combines the record's windows into the query's: its w rows are (u, y)
    L = q.u_ini.length + q.u_r.length
    Hg = (hankel(kron_extend(rec.w, rec.p), L) @ second.g).reshape(L, 3, 2)[:, 0]
    window = _stack(concat(q.u_ini, q.u_r), concat(q.y_ini, second.y_r)).samples
    assert np.max(np.abs(Hg - window)) <= 1e-12


@pytest.mark.parametrize("kind", ["verhoek", "zero"])
def test_blocked_triangle_matches_the_direct_qr(monkeypatch, kind):
    # N = 8991 windows: three blocks of at most 4096, against one block of all N
    assert analysis.BLOCK == 4096
    rec = _record(9000, seed=5)
    if kind == "zero":
        rec = DataRecord(Trajectory(1, np.zeros((rec.T, 1))), rec.p, rec.y)
    queries = [_query(seed=s) for s in (3, 4, 5)]

    def run():
        fresh = DataRecord(rec.u, rec.p, rec.y)
        return fresh.lifted(10), [
            predict(fresh, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r) for q in queries]

    blocked, blocked_results = run()
    monkeypatch.setattr(analysis, "BLOCK", rec.T)
    direct, direct_results = run()
    # without input, only the 3 L rows of y and p (x) y are excited
    assert blocked.hankel.rank == direct.hankel.rank == (52 if kind == "verhoek" else 30)
    assert np.max(np.abs(blocked.s - direct.s)) <= 1e-13 * direct.s[0]
    assert blocked.pe.rank == direct.pe.rank
    for a, b in zip(blocked_results, direct_results):
        assert a.verdict == b.verdict == ("ok" if kind == "verhoek" else "ambiguous")
        assert np.max(np.abs(a.y_r.samples - b.y_r.samples)) <= 1e-13


def test_g_is_formed_on_first_read():
    # g = V_r z, z the known-row fit's solution: run on this read for a certified query,
    # and the fit predict ran for an ambiguous one (T_ini = 1 is below the lag)
    rec = _record(400)
    for q, verdict in ((_query(seed=3), "ok"), (_query(seed=3, T_ini=1), "ambiguous")):
        result = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        assert result.verdict == verdict and "g" not in vars(result)
        L = q.u_ini.length + q.u_r.length
        fit_from, fitted = result._from[1:]
        lifted, z = rec.lifted(L), prediction._known_fit(*fit_from)[1]
        assert (verdict == "ambiguous") == (len(fitted) == 3)
        if fitted:
            assert np.array_equal(fitted[1], z)
        c = lifted.U[:, :z.size] @ (z / lifted.s[:z.size])
        eager = np.einsum("nk,k->n", signals._windows(rec.lifted_samples, L), c)
        assert np.array_equal(result.g, eager)
        assert result.to_dict()["g"] == result.g.tolist()


def test_next_query_allocates_less_than_g():
    rec, q = _record(40_000), _query(seed=3)
    predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    tracemalloc.start()
    try:
        result = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.verdict == "ok"
    # g alone is 0.3 MiB here: a query that formed it would allocate at least that
    assert peak < result.g.nbytes <= 2**19, (peak, result.g.nbytes)
