"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria 1 and 6 are implemented exactly as stated and fail, for the same
structural reason: the values they assert assume the extended Hankel matrix
of the built-in example saturates at rank (1+n_p)*n_u*L + n_x.  The actual
span of the extended columns is the window behaviour of the lifted signals
(u, p x u, p x y as free inputs, y as output), whose dimension is
((1+n_p)*n_u + n_p*n_y)*L + n_x = 5L + 2 here.  Consequences, verified by
tests in test_prediction.py:

* a T = 40 record offers 31 columns at L = 10, short of the 52 needed, so
  fresh-query prediction is structurally infeasible at the stated scale
  (every failure is reported as such); T >= 61 gives exact prediction;
* at L = 7 the left null space has dimension n_y*L - n_x = 5 once the data
  saturates (T >= 43), never 42 - 23 = 19, and at T = 40 the 34 columns are
  independent, so 3 of the 8 numeric null directions are sampling artifacts
  that do not annihilate fresh trajectories.
"""

import time

import numpy as np
from conftest import minimal_random_ss, rand_poly, rand_traj, traj_covering

from lpvdd import (
    RankDeficientObservability,
    Trajectory,
    check_pe,
    estimate_initial_state,
    example_verhoek,
    generate_query,
    generate_record,
    left_nullspace,
    obsv_eval,
    predict,
    propagate_state,
    response_map,
    simulate_ss,
    toeplitz_eval,
    vec,
)
from lpvdd.cli import main as cli_main


def _verdict(n: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_exact_prediction_at_stated_scale():
    # T=40 data, T_ini=3, T_r=7, 50 seeds, error <= 1e-8, runtime < 1 s,
    # at least 49 seeds passing, failures flagged by the tool
    model = example_verhoek()
    passes = 0
    unflagged_failures = 0
    worst_err = 0.0
    for seed in range(50):
        rec = generate_record(model, 40, seed)
        q = generate_query(model, 3, 7, seed + 1000)
        t0 = time.perf_counter()
        res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
        elapsed = time.perf_counter() - t0
        err = float(np.max(np.abs(res.y_r.samples - q.y_r_truth.samples)))
        worst_err = max(worst_err, err)
        if err <= 1e-8 and elapsed < 1.0:
            passes += 1
        elif res.verdict == "ok" and not res.diagnostics["warnings"]:
            unflagged_failures += 1
    assert unflagged_failures == 0, "failures must coincide with a reported deficiency"
    _verdict(
        1,
        "exact prediction from T=40 data (T_ini=3, T_r=7) on >= 49/50 seeds",
        passes >= 49,
        f"{passes}/50 within 1e-8, worst error {worst_err:.2e}; every failure "
        "reported infeasible: 31 Hankel columns cannot span the 52-dimensional "
        "depth-10 window behaviour of the lifted signals (T >= 61 required)",
    )


def test_criterion_2_window_response_map_round_trip():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, 3))
        n_p = int(rng.integers(1, 3))
        m = minimal_random_ss(rng, n_x, n_u, n_y, n_p)
        T = int(rng.integers(2, 11))
        u = rand_traj(rng, n_u, T)
        p = rand_traj(rng, n_p, T)
        x0 = rng.normal(size=n_x)
        # map -> simulator
        y_map = response_map(m, x0, u, p)
        sim = simulate_ss(m, x0, u, p)
        worst = max(worst, float(np.max(np.abs(y_map - vec(sim.y)))))
        # simulator -> map (the simulated output satisfies the affine map)
        y_again = obsv_eval(m, T, p, 1) @ x0 + toeplitz_eval(m, T, p, 1) @ vec(u)
        worst = max(worst, float(np.max(np.abs(y_again - vec(sim.y)))))
    _verdict(
        2,
        "window response map equals recursive simulation on 100 random models",
        worst <= 1e-10,
        f"worst abs deviation {worst:.2e}",
    )


def test_criterion_3_initial_state_recovery():
    rng = np.random.default_rng(21)
    worst_x = worst_prop = 0.0
    short_window_flagged = True
    for _ in range(50):
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, 3))
        m = minimal_random_ss(rng, n_x, n_u, n_y, int(rng.integers(1, 3)))
        T_ini = n_x + 1
        u = rand_traj(rng, n_u, T_ini)
        p = rand_traj(rng, m.n_p, T_ini)
        x0 = rng.normal(size=n_x)
        sim = simulate_ss(m, x0, u, p)
        est = estimate_initial_state(m, u, p, sim.y)
        worst_x = max(worst_x, float(np.max(np.abs(est.x - x0))))
        prop = propagate_state(m, x0, u, p)
        worst_prop = max(worst_prop, float(np.max(np.abs(prop - sim.x.value(T_ini + 1)))))
        if n_x >= 2:
            try:
                estimate_initial_state(
                    m,
                    u.restrict(1, n_x - 1),
                    p.restrict(1, n_x - 1),
                    sim.y.restrict(1, n_x - 1),
                )
                short_window_flagged = False
            except RankDeficientObservability:
                pass
    _verdict(
        3,
        "initial-state recovery <= 1e-8, propagation <= 1e-10, short windows flagged",
        worst_x <= 1e-8 and worst_prop <= 1e-10 and short_window_flagged,
        f"worst recovery {worst_x:.2e}, worst propagation {worst_prop:.2e}",
    )


def test_criterion_4_window_behaviour_dimension():
    # dim of the joint input-output window space equals n_u*L + n_x exactly
    # when L >= n_x; the joint window map is [[I, 0], [T_L, O_L]]
    rng = np.random.default_rng(22)

    def window_rank(m, L, p):
        O = obsv_eval(m, L, p, 1)
        Tm = toeplitz_eval(m, L, p, 1)
        M = np.block(
            [[np.eye(L * m.n_u), np.zeros((L * m.n_u, m.n_x))], [Tm, O]]
        )
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > 1e-9 * s[0]))

    ok = True
    for _ in range(50):
        n_x = int(rng.integers(1, 4))
        m = minimal_random_ss(rng, n_x, 1, 1, int(rng.integers(1, 3)))
        for L in (n_x, n_x + 2):
            p = rand_traj(rng, m.n_p, L)
            ok = ok and window_rank(m, L, p) == L * m.n_u + n_x
        if n_x >= 2:
            L = n_x - 1
            p = rand_traj(rng, m.n_p, L)
            ok = ok and window_rank(m, L, p) < L * m.n_u + n_x
    _verdict(
        4,
        "window behaviour dimension n_u*L + n_x iff L >= n_x on 50 SISO models",
        ok,
    )


def test_criterion_5_excitation_rank():
    model = example_verhoek()
    rec = generate_record(model, 40, seed=0)
    rep = check_pe(rec.u, rec.p, 7)
    zero = Trajectory(1, np.zeros((40, 1)))
    rep0 = check_pe(zero, rec.p, 7)
    ok = rep.extended_input_rank == 21 == rep.required and rep.verdict and not rep0.verdict
    _verdict(
        5,
        "depth-7 extended input Hankel of T=40 data has rank 21; zero input fails",
        ok,
        f"rank {rep.extended_input_rank}/{rep.required}, zero-input rank "
        f"{rep0.extended_input_rank}",
    )


def test_criterion_6_annihilator_extraction_at_stated_scale():
    # stated: every numeric left-null row of the depth-7 extended Hankel of
    # the T=40 record annihilates fresh trajectories to 1e-8, and the null
    # dimension is extended rows minus ((1+n_p)*n_u*L + n_x) = 42 - 23 = 19
    model = example_verhoek()
    rec = generate_record(model, 40, seed=0)
    ns = left_nullspace(rec, 7)
    claimed_dim = (1 + 2) * (1 + 1) * 7 - ((1 + 2) * 1 * 7 + 2)
    worst = 0.0
    for seed in range(10):
        q = generate_query(model, 3, 9, seed + 2000)
        w = Trajectory(1, np.hstack([
            np.vstack([q.u_ini.samples, q.u_r.samples]),
            np.vstack([q.y_ini.samples, q.y_r_truth.samples]),
        ]))
        p = Trajectory(1, np.vstack([q.p_ini.samples, q.p_r.samples]))
        worst = max(worst, ns.max_residual_on(w, p))
    ok = worst <= 1e-8 and ns.dimension == claimed_dim
    _verdict(
        6,
        "depth-7 annihilators of the T=40 record: fresh residual <= 1e-8 and "
        f"null dimension == {claimed_dim}",
        ok,
        f"null dimension {ns.dimension}, worst fresh residual {worst:.2e}; the "
        "true annihilator count is n_y*L - n_x = 5, reached once the record "
        "saturates the lifted span (T >= 43); at T = 40 the 34 columns are "
        "linearly independent and 3 null directions are sampling artifacts",
    )


def test_criterion_7_shift_calculus_property_suite():
    rng = np.random.default_rng(23)
    commutation_exact = True
    worst_rel = 0.0
    for _ in range(1000):
        n_p = int(rng.integers(1, 4))
        c1 = rand_poly(rng, n_p)
        c2 = rand_poly(rng, n_p)
        probe = c1 * c2
        p = traj_covering(rng, probe, n_p, k_lo=-1, k_hi=1)
        commutation_exact &= c1.shift(1).eval(p, 0) == c1.eval(p, 1)
        v1 = c1.eval(p, 0)
        v2 = c2.eval(p, 0)
        for got, want in (
            ((c1 * c2).eval(p, 0), v1 * v2),
            ((c1 + c2).eval(p, 0), v1 + v2),
        ):
            worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(want)))
    _verdict(
        7,
        "1000 random coefficients: shift/eval commutation exact, "
        "product/sum identities <= 1e-12 relative",
        commutation_exact and worst_rel <= 1e-12,
        f"worst relative deviation {worst_rel:.2e}",
    )


def test_criterion_8_deterministic_artifacts(tmp_path):
    def run_simulate(out):
        assert cli_main([
            "simulate", "--model", "builtin:verhoek", "--T", "70",
            "--seed", "11", "--out-dir", str(tmp_path / out),
        ]) == 0

    run_simulate("a")
    run_simulate("b")
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("u.csv", "p.csv", "y.csv", "metadata.json")
    )

    q = generate_query(example_verhoek(), 3, 7, 12)
    qdir = tmp_path / "query"
    qdir.mkdir()
    from lpvdd import write_trajectory_csv

    for name in ("u_ini", "p_ini", "y_ini", "u_r", "p_r", "y_r_truth"):
        write_trajectory_csv(qdir / f"{name}.csv", getattr(q, name))
    for out in ("p1", "p2"):
        assert cli_main([
            "predict", "--data-dir", str(tmp_path / "a"),
            "--query-dir", str(qdir), "--out-dir", str(tmp_path / out),
        ]) == 0
    identical = identical and all(
        (tmp_path / "p1" / n).read_bytes() == (tmp_path / "p2" / n).read_bytes()
        for n in ("prediction.json", "y_r.csv", "plot_data.csv")
    )
    _verdict(8, "fixed seed reproduces byte-identical CSV/JSON artifacts", identical)