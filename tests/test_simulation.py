"""Simulators, impulse/Toeplitz maps, and initial-state estimation."""

import warnings

import numpy as np
import pytest
from conftest import minimal_random_ss, rand_traj, random_io
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvdd import (
    CoeffMatrix,
    DimensionMismatch,
    InconsistentTrajectory,
    InvalidShape,
    LpvIoModel,
    LpvSsModel,
    RankDeficientObservability,
    Trajectory,
    WindowOutOfRange,
    estimate_initial_state,
    example_verhoek,
    generate_query,
    generate_record,
    experiments,
    impulse_coeff,
    io_to_kernel,
    minimality_report,
    obsv_eval,
    obsv_matrix,
    propagate_state,
    random_affine_ss,
    reach_matrix,
    response_map,
    simulate_io,
    simulate_ss,
    toeplitz,
    toeplitz_eval,
    vec,
)
from lpvdd.rng import stream
from lpvdd.simulation import _window


def _scalar_lti(a, b, c, d):
    return LpvSsModel(
        A=CoeffMatrix.constant([[a]], 1),
        B=CoeffMatrix.constant([[b]], 1),
        C=CoeffMatrix.constant([[c]], 1),
        D=CoeffMatrix.constant([[d]], 1),
    )


def test_zero_state_zero_input_stays_zero():
    rng = np.random.default_rng(0)
    m = random_affine_ss(rng, 2, 1, 1, 2)
    u = Trajectory(1, np.zeros((6, 1)))
    p = rand_traj(rng, 2, 6)
    sim = simulate_ss(m, np.zeros(2), u, p)
    assert not sim.y.samples.any()
    assert not sim.x.samples.any()


def test_geometric_decay():
    m = _scalar_lti(0.5, 1.0, 1.0, 0.0)
    u = Trajectory(1, np.zeros((3, 1)))
    p = rand_traj(np.random.default_rng(1), 1, 3)
    sim = simulate_ss(m, [1.0], u, p)
    assert np.allclose(sim.y.samples.ravel(), [1.0, 0.5, 0.25], atol=0)
    assert sim.x.length == 4 and sim.y.length == 3
    assert sim.y.interval == (1, 3)


def test_superposition_in_input():
    rng = np.random.default_rng(2)
    m = random_affine_ss(rng, 3, 2, 2, 1)
    p = rand_traj(rng, 1, 8)
    u1, u2 = rand_traj(rng, 2, 8), rand_traj(rng, 2, 8)
    a, b = 1.7, -0.4
    mix = Trajectory(1, a * u1.samples + b * u2.samples)
    y_mix = simulate_ss(m, np.zeros(3), mix, p).y.samples
    y_sep = (
        a * simulate_ss(m, np.zeros(3), u1, p).y.samples
        + b * simulate_ss(m, np.zeros(3), u2, p).y.samples
    )
    assert np.max(np.abs(y_mix - y_sep)) < 1e-12


def test_simulate_ss_window_and_dim_errors():
    rng = np.random.default_rng(3)
    m = random_affine_ss(rng, 2, 1, 1, 2)
    u = rand_traj(rng, 1, 5)
    with pytest.raises(DimensionMismatch):
        simulate_ss(m, np.zeros(3), u, rand_traj(rng, 2, 5))
    with pytest.raises(DimensionMismatch):
        simulate_ss(m, np.zeros(2), u, rand_traj(rng, 1, 5))
    # model whose output map reads one step ahead: p must cover t_end + 1
    m2 = LpvSsModel(A=m.A, B=m.B, C=m.C.shift(1), D=m.D)
    with pytest.raises(WindowOutOfRange):
        simulate_ss(m2, np.zeros(2), u, rand_traj(rng, 2, 5))


def test_short_scheduling_is_out_of_range_for_every_simulator():
    # CoeffMatrix.eval_range is the one check that p covers what is read
    rng = np.random.default_rng(3)
    m = random_affine_ss(rng, 2, 1, 1, 2)
    u, short = rand_traj(rng, 1, 5), rand_traj(rng, 2, 4)
    with pytest.raises(WindowOutOfRange):
        simulate_ss(m, np.zeros(2), u, short)
    with pytest.raises(WindowOutOfRange):
        propagate_state(m, np.zeros(2), u, short)
    with pytest.raises(WindowOutOfRange):
        response_map(m, np.zeros(2), u, short)
    # the IO recursion reads p on [1, 4]: one sample short is [1, 3]
    assert simulate_io(example_verhoek(), u, short, np.zeros((2, 1))).length == 5
    with pytest.raises(WindowOutOfRange):
        simulate_io(example_verhoek(), u, short.restrict(1, 3), np.zeros((2, 1)))


@pytest.mark.parametrize("simulator,init,u_name,p_name", [
    (simulate_ss, "x0", "u", "p"), (simulate_io, "y_init", "u", "p"),
    (response_map, "x_tilde", "u", "p"), (propagate_state, "x1", "u_ini", "p_ini"),
], ids=["simulate_ss", "simulate_io", "response_map", "propagate_state"])
def test_simulators_name_a_bad_argument(simulator, init, u_name, p_name):
    # a NaN used to come out as NaN outputs and a numpy RuntimeWarning
    rng = np.random.default_rng(4)
    io = simulator is simulate_io
    model = example_verhoek() if io else random_affine_ss(rng, 2, 1, 1, 2)
    args = {"model": model, init: np.zeros((2, 1) if io else 2),
            u_name: rand_traj(rng, 1, 6), p_name: rand_traj(rng, 2, 6)}
    simulator(**args)
    bad = np.array(args[init])
    bad.flat[-1] = np.nan
    with pytest.raises(InvalidShape, match=f"^{init}[: ]"):
        simulator(**{**args, init: bad})
    # a signal with a NaN cannot be made, so the simulator is never reached
    for name in (u_name, p_name):
        samples = args[name].samples.copy()
        samples[-1, -1] = np.nan
        with pytest.raises(InvalidShape, match="^non-finite sample at time step 6$"):
            simulator(**{**args, name: Trajectory(1, samples)})
    with pytest.raises(DimensionMismatch, match=f"^{init} has 3 entries"):
        simulator(**{**args, init: np.zeros(3)})


def test_simulate_io_identity_recursion_is_zero():
    m = example_verhoek()
    zero_model_y = simulate_io(
        m,
        Trajectory(1, np.zeros((8, 1))),
        Trajectory(1, np.zeros((8, 2))),
        y_init=np.zeros((2, 1)),
    )
    assert not zero_model_y.samples.any()


def test_simulate_io_needs_n_a_steps():
    m = example_verhoek()
    u, p = Trajectory(1, np.zeros((1, 1))), Trajectory(1, np.zeros((1, 2)))
    with pytest.raises(WindowOutOfRange, match="^interval of length 1 shorter than n_a=2$"):
        simulate_io(m, u, p, y_init=np.zeros((2, 1)))


def test_experiments_simulate_only_the_two_model_forms():
    with pytest.raises(TypeError, match="^unsupported model type KernelRep$"):
        experiments._simulate(io_to_kernel(example_verhoek()), None, None, None)


def test_simulate_io_frozen_scheduling_matches_lti_recursion():
    # with p identically zero only the constant parts act
    m = example_verhoek()
    u = Trajectory(1, [[1.0], [0.0], [0.0], [0.0], [0.0]])
    p = Trajectory(1, np.zeros((5, 2)))
    y = simulate_io(m, u, p, y_init=np.zeros((2, 1))).samples.ravel()
    # hand recursion: y(k) = -1*y(k-1) - 0.5*y(k-2) + 0.5*u(k-1) + 0.2*u(k-2)
    yk = [0.0, 0.0]
    uk = [1.0, 0.0, 0.0, 0.0, 0.0]
    for k in range(2, 5):
        yk.append(-1.0 * yk[k - 1] - 0.5 * yk[k - 2] + 0.5 * uk[k - 1] + 0.2 * uk[k - 2])
    assert np.allclose(y, yk, atol=1e-15)


def test_simulate_io_agrees_with_kernel_residual():
    from lpvdd import io_to_kernel

    m = example_verhoek()
    rng = np.random.default_rng(4)
    u, p = rand_traj(rng, 1, 15), rand_traj(rng, 2, 15)
    y = simulate_io(m, u, p, y_init=rng.normal(size=(2, 1)))
    w = Trajectory(1, np.hstack([u.samples, y.samples]))
    assert np.max(np.abs(io_to_kernel(m).residual(w, p))) <= 1e-10


def test_impulse_coeff_base_cases():
    rng = np.random.default_rng(5)
    m = random_affine_ss(rng, 2, 1, 1, 2)
    assert impulse_coeff(m, -1).is_zero
    assert impulse_coeff(m, 0) == m.D


def test_impulse_coeff_constant_model_markov_parameters():
    rng = np.random.default_rng(6)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
    C, D = rng.normal(size=(1, 3)), rng.normal(size=(1, 2))
    m = LpvSsModel(
        A=CoeffMatrix.constant(A, 1),
        B=CoeffMatrix.constant(B, 1),
        C=CoeffMatrix.constant(C, 1),
        D=CoeffMatrix.constant(D, 1),
    )
    p = rand_traj(rng, 1, 1)
    for n in range(4):
        markov = D if n == 0 else C @ np.linalg.matrix_power(A, n - 1) @ B
        assert np.allclose(impulse_coeff(m, n).eval(p, 1), markov, atol=1e-12)


def test_impulse_coeff_matches_impulse_simulation():
    rng = np.random.default_rng(7)
    m = random_affine_ss(rng, 2, 2, 1, 2)
    n = 2
    h2 = impulse_coeff(m, n)
    k = 1
    p = rand_traj(rng, 2, 6, t_start=0)
    for i in range(m.n_u):
        samples = np.zeros((n + 1, m.n_u))
        samples[0, i] = 1.0
        u = Trajectory(k, samples)
        sim = simulate_ss(m, np.zeros(2), u, p)
        assert np.allclose(h2.eval(p, k)[:, i], sim.y.value(k + n), atol=1e-12)


def test_toeplitz_single_block_is_feedthrough():
    rng = np.random.default_rng(8)
    m = random_affine_ss(rng, 2, 1, 1, 1)
    assert toeplitz(m, 1) == m.D


def test_toeplitz_zero_state_response_oracle():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = random_affine_ss(rng, 2, 1, 1, 2)
        T = 4
        Tm = toeplitz(m, T)
        u = rand_traj(rng, 1, T)
        p = rand_traj(rng, 2, T + T, t_start=0)
        y_sim = simulate_ss(m, np.zeros(2), u, p).y
        assert np.max(np.abs(Tm.eval(p, 1) @ vec(u) - vec(y_sim))) < 1e-10


def _symbolic_cases(rng, n_x, n_u, n_y, n_p):
    """``(model, T, p)``: an offset-0 model at ``T = 3`` and ``T = 1``, the same model on a
    shifted window and an IO realization, each ``p`` wide enough for the symbolic map at 1."""
    m = random_affine_ss(rng, n_x, n_u, n_y, n_p)
    shifted = LpvSsModel(A=m.A.shift(1), B=m.B.shift(-2), C=m.C.shift(2), D=m.D.shift(-1))
    io = random_io(rng, n_y, 2, 2, n_u, n_p).realization
    return [(model, T, rand_traj(rng, n_p, 2 * T + 8, t_start=-4))
            for model, T in ((m, 3), (m, 1), (shifted, 3), (io, 3))]


def test_toeplitz_eval_matches_symbolic():
    for m, T, p in _symbolic_cases(np.random.default_rng(10), 2, 2, 2, 1):
        sym = toeplitz(m, T).eval(p, 1)
        num = toeplitz_eval(m, T, p, 1)
        assert np.max(np.abs(sym - num)) < 1e-12


@pytest.mark.parametrize("t1", [0, -2])
def test_toeplitz_maps_reject_a_window_below_one_step(t1):
    # toeplitz_eval gave a 0 x 0 array at 0 and numpy's ValueError at -2; it is an
    # integer argument, so InvalidShape names it
    m = random_affine_ss(np.random.default_rng(10), 2, 1, 1, 1)
    p = rand_traj(np.random.default_rng(10), 1, 6, t_start=-2)
    for evaluate in (lambda: toeplitz(m, t1), lambda: toeplitz_eval(m, t1, p, 1)):
        with pytest.raises(InvalidShape, match=f"^t1 must be >= 1, got {t1}$"):
            evaluate()


@pytest.mark.parametrize("n", [0, -1])
def test_window_maps_reject_an_order_below_one(n):
    # obsv_eval raised a bare IndexError at 0
    m = random_affine_ss(np.random.default_rng(11), 2, 1, 1, 1)
    p = rand_traj(np.random.default_rng(11), 1, 6, t_start=-2)
    for evaluate in (lambda: obsv_matrix(m, n), lambda: reach_matrix(m, n),
                     lambda: obsv_eval(m, n, p, 1)):
        with pytest.raises(InvalidShape, match=f"^n must be >= 1, got {n}$"):
            evaluate()


def test_obsv_eval_matches_symbolic():
    cases = _symbolic_cases(np.random.default_rng(11), 3, 1, 2, 2)
    for m, T, p in [(cases[0][0], 4, cases[0][2])] + cases:
        sym = obsv_matrix(m, T).eval(p, 1)
        num = obsv_eval(m, T, p, 1)
        assert np.max(np.abs(sym - num)) < 1e-12


def test_response_map_trivial_cases():
    rng = np.random.default_rng(12)
    m = random_affine_ss(rng, 2, 1, 1, 1)
    T = 5
    p = rand_traj(rng, 1, T)
    u0 = Trajectory(1, np.zeros((T, 1)))
    assert not response_map(m, np.zeros(2), u0, p).any()
    # free response equals the observability map applied to the state
    x0 = rng.normal(size=2)
    free = response_map(m, x0, u0, p)
    assert np.allclose(free, obsv_eval(m, T, p, 1) @ x0, atol=1e-14)


def test_response_map_equals_recursive_simulation():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, 3))
        m = random_affine_ss(rng, n_x, n_u, n_y, int(rng.integers(1, 3)))
        T = int(rng.integers(2, 11))
        u = rand_traj(rng, n_u, T)
        p = rand_traj(rng, m.n_p, T)
        x0 = rng.normal(size=n_x)
        diff = response_map(m, x0, u, p) - vec(simulate_ss(m, x0, u, p).y)
        assert np.max(np.abs(diff)) <= 1e-10


def test_estimate_initial_state_recovers_truth():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n_x = int(rng.integers(1, 4))
        m = minimal_random_ss(rng, n_x, 1, 1, 1)
        T_ini = n_x + 1
        u = rand_traj(rng, 1, T_ini)
        p = rand_traj(rng, 1, T_ini)
        x0 = rng.normal(size=n_x)
        sim = simulate_ss(m, x0, u, p)
        est = estimate_initial_state(m, u, p, sim.y)
        assert np.max(np.abs(est.x - x0)) <= 1e-8
        assert est.residual <= 1e-10
        assert est.observability.verdict and est.observability.singular_values[-1] > 0


def test_estimate_initial_state_reads_each_coefficient_once(monkeypatch):
    # one evaluated [O_T | T_T]: A, B, C and D each read once (A and C were read twice)
    rng = np.random.default_rng(14)
    m = minimal_random_ss(rng, 2, 1, 1, 1)
    u, p = rand_traj(rng, 1, 4), rand_traj(rng, 1, 4)
    y = simulate_ss(m, rng.normal(size=2), u, p).y
    calls = []
    eval_rows = CoeffMatrix._eval_rows
    monkeypatch.setattr(CoeffMatrix, "_eval_rows",
                        lambda self, *args: calls.append(self) or eval_rows(self, *args))
    estimate_initial_state(m, u, p, y)
    assert sorted(map(id, calls)) == sorted(map(id, (m.A, m.B, m.C, m.D)))


def test_obsv_eval_reads_only_a_and_c(monkeypatch):
    # O_T alone: no T_T columns, so B and D are not read (nor need p where only they do)
    rng = np.random.default_rng(14)
    m = minimal_random_ss(rng, 2, 1, 1, 1)
    p = rand_traj(rng, 1, 6)
    full = _window(m, 6, p, 1)
    calls = []
    eval_rows = CoeffMatrix._eval_rows
    monkeypatch.setattr(CoeffMatrix, "_eval_rows",
                        lambda self, *args: calls.append(self) or eval_rows(self, *args))
    O = obsv_eval(m, 6, p, 1)
    assert sorted(map(id, calls)) == sorted(map(id, (m.A, m.C)))
    assert np.max(np.abs(O - full[:, :2])) <= 1e-13 * np.max(np.abs(full))


def test_estimate_initial_state_window_too_short():
    rng = np.random.default_rng(15)
    m = minimal_random_ss(rng, 3, 1, 1, 1)
    u = rand_traj(rng, 1, 2)
    p = rand_traj(rng, 1, 2)
    y = simulate_ss(m, np.zeros(3), u, p).y
    with pytest.raises(RankDeficientObservability):
        estimate_initial_state(m, u, p, y)


def test_estimate_initial_state_rejects_an_unobservable_model():
    # C = [1 0] never sees the second state of A = 0.5 I: the map has rank 1 at any length
    m = LpvSsModel(A=CoeffMatrix.constant(0.5 * np.eye(2), 1),
                   B=CoeffMatrix.constant([[1.0], [1.0]], 1),
                   C=CoeffMatrix.constant([[1.0, 0.0]], 1), D=CoeffMatrix.zeros(1, 1, 1))
    rng = np.random.default_rng(15)
    u, p = rand_traj(rng, 1, 4), rand_traj(rng, 1, 4)
    y = simulate_ss(m, np.ones(2), u, p).y
    with pytest.raises(RankDeficientObservability, match="rank 1 < n_x=2"):
        estimate_initial_state(m, u, p, y)


def test_estimate_initial_state_detects_perturbation():
    rng = np.random.default_rng(16)
    m = minimal_random_ss(rng, 2, 1, 1, 1)
    T_ini = 3
    u, p = rand_traj(rng, 1, T_ini), rand_traj(rng, 1, T_ini)
    sim = simulate_ss(m, rng.normal(size=2), u, p)
    bad = sim.y.samples.copy()
    bad[1, 0] += 1.0
    with pytest.raises(InconsistentTrajectory):
        estimate_initial_state(m, u, p, Trajectory(1, bad))


@pytest.mark.parametrize("name", ["u_ini", "p_ini", "y_ini"])
def test_estimate_initial_state_rejects_non_finite_windows(name):
    # a NaN in y_ini gave x = [nan, nan]: the residual test nan > tol is false
    rng = np.random.default_rng(16)
    m = minimal_random_ss(rng, 2, 1, 1, 1)
    u, p = rand_traj(rng, 1, 3), rand_traj(rng, 1, 3)
    args = {"u_ini": u, "p_ini": p, "y_ini": simulate_ss(m, rng.normal(size=2), u, p).y}
    samples = args[name].samples.copy()
    samples[1, 0] = np.nan
    # the window cannot be made, so estimate_initial_state is never reached
    with pytest.raises(InvalidShape, match="^non-finite sample at time step 2$"):
        estimate_initial_state(m, **{**args, name: Trajectory(1, samples)})


def test_estimate_initial_state_invariant_to_consistent_suffix():
    # the estimate from the initial window does not depend on what follows
    rng = np.random.default_rng(17)
    m = minimal_random_ss(rng, 2, 1, 1, 1)
    T_ini, T_tail = 3, 4
    u = rand_traj(rng, 1, T_ini + T_tail)
    p = rand_traj(rng, 1, T_ini + T_tail)
    x0 = rng.normal(size=2)
    sim = simulate_ss(m, x0, u, p)
    est_full_window = estimate_initial_state(
        m, u.restrict(1, T_ini), p.restrict(1, T_ini), sim.y.restrict(1, T_ini)
    )
    assert np.max(np.abs(est_full_window.x - x0)) <= 1e-8


def test_propagate_state_single_step_and_lti_reduction():
    rng = np.random.default_rng(18)
    m = random_affine_ss(rng, 2, 1, 1, 1)
    p = rand_traj(rng, 1, 1)
    u0 = Trajectory(1, np.zeros((1, 1)))
    x1 = rng.normal(size=2)
    assert np.allclose(
        propagate_state(m, x1, u0, p), m.A.eval(p, 1) @ x1, atol=1e-14
    )

    A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 1))
    lti = LpvSsModel(
        A=CoeffMatrix.constant(A, 1),
        B=CoeffMatrix.constant(B, 1),
        C=CoeffMatrix.constant(np.eye(2), 1),
        D=CoeffMatrix.constant(np.zeros((2, 1)), 1),
    )
    T = 4
    u = rand_traj(rng, 1, T)
    p4 = rand_traj(rng, 1, T)
    expected = sum(
        np.linalg.matrix_power(A, T - k) @ B @ u.value(k) for k in range(1, T + 1)
    )
    assert np.allclose(propagate_state(lti, np.zeros(2), u, p4), expected, atol=1e-12)


def test_propagate_state_matches_simulator_terminal_state():
    # bit for bit, over one and several blocks of the recursion
    rng = np.random.default_rng(19)
    for _ in range(60):
        n_x = int(rng.integers(1, 7))
        m = random_affine_ss(rng, n_x, int(rng.integers(1, 3)), 1, int(rng.integers(1, 3)))
        T = int(rng.integers(1, 41))
        u = rand_traj(rng, m.n_u, T)
        p = rand_traj(rng, m.n_p, T)
        x1 = rng.normal(size=n_x)
        sim = simulate_ss(m, x1, u, p)
        assert np.array_equal(propagate_state(m, x1, u, p), sim.x.value(T + 1))


# -- per-step reference for the blocked state recursion ------------------------
#
# The simulators run their recursion in blocks of 16 states; the horizons below
# sit on both sides of a block, with states up to 32.  Tolerance, fixed from
# float64 rounding over the longest horizon:
# max|x - x_ref| <= 1e-12 max(1, max|x_ref|).


def _close(x, ref):
    return np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _loop_ss(model, x0, u, p):
    """States and outputs of ``model`` by the plain per-step loop."""
    t1, t2 = u.interval
    A, B, C, D = (M.eval_range(p, t1, t2) for M in (model.A, model.B, model.C, model.D))
    xs = np.empty((u.length + 1, model.n_x))
    xs[0] = x0
    for i in range(u.length):
        xs[i + 1] = A[i] @ xs[i] + B[i] @ u.samples[i]
    ys = np.array([C[i] @ xs[i] + D[i] @ u.samples[i] for i in range(u.length)])
    return xs, ys


def _loop_io(model, u, p, y_init):
    """Outputs of ``model`` by the plain per-step IO recursion."""
    t1, t2 = u.interval
    n_a, T = model.n_a, u.length
    ys = np.empty((T, model.n_y))
    ys[:n_a] = y_init
    if T == n_a:
        return ys
    a = [m.eval_range(p, t1 + n_a, t2) for m in model.a_coeffs]
    b = [m.eval_range(p, t1 + n_a, t2) for m in model.b_coeffs]
    for i in range(n_a, T):
        k = t1 + i
        ys[i] = sum(bj[i - n_a] @ u.value(k - j) for j, bj in enumerate(b, start=1))
        ys[i] -= sum(aj[i - n_a] @ ys[i - j] for j, aj in enumerate(a, start=1))
    return ys


@pytest.mark.parametrize("n_x, T", [
    (1, 1), (5, 15), (5, 16), (5, 17), (3, 97), (5, 1000), (2, 2000),
    (24, 1000), (25, 1000), (32, 97), (32, 2000)])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(n_p=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_simulate_ss_matches_per_step_loop(n_x, T, n_p, seed):
    rng = np.random.default_rng(seed)
    m = random_affine_ss(rng, n_x, 2, 2, n_p)
    u, p = rand_traj(rng, 2, T), rand_traj(rng, n_p, T)
    x0 = rng.uniform(-1, 1, n_x)
    sim = simulate_ss(m, x0, u, p)
    xs, ys = _loop_ss(m, x0, u, p)
    assert _close(sim.x.samples, xs) and _close(sim.y.samples, ys)
    assert np.array_equal(propagate_state(m, x0, u, p), sim.x.samples[-1])
    # a shorter horizon is bit for bit a prefix of the longer one
    T2 = T // 3 + 1
    short = simulate_ss(m, x0, u.restrict(1, T2), p)
    assert np.array_equal(short.x.samples, sim.x.samples[: T2 + 1])


# T - 1 steps of the realization on n_a n_y states, the first n_a deadbeat: T = 16, 17
# and 18 put 15, 16 and 17 steps against the 16-step block
@pytest.mark.parametrize("n_y, n_a, T", [
    (1, 1, 1), (2, 3, 3), (2, 3, 4), (2, 3, 16), (2, 3, 17), (2, 3, 18), (2, 3, 19),
    (2, 3, 20), (1, 2, 70),
    (2, 3, 97), (2, 3, 1000), (2, 3, 2000), (5, 5, 1000)])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(n_p=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_simulate_io_matches_per_step_loop(n_y, n_a, T, n_p, seed):
    rng = np.random.default_rng(seed)
    m = random_io(rng, n_y, n_a, int(rng.integers(1, n_a + 1)), 2, n_p)
    u, p = rand_traj(rng, 2, T), rand_traj(rng, n_p, T)
    y_init = rng.uniform(-1, 1, (n_a, n_y))
    y = simulate_io(m, u, p, y_init).samples
    assert _close(y, _loop_io(m, u, p, y_init))
    T2 = n_a + (T - n_a) // 3
    short = simulate_io(m, u.restrict(1, T2), p, y_init).samples
    assert np.array_equal(short, y[:T2])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n_y=st.integers(1, 5), n_a=st.integers(1, 5), n_p=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_realization_is_the_io_model_in_state_space(n_y, n_a, n_p, seed):
    # the observer form: n_a n_y states, static dependence, made once, and from any
    # state an output that the IO recursion continues
    rng = np.random.default_rng(seed)
    m = random_io(rng, n_y, n_a, int(rng.integers(1, n_a + 1)), 2, n_p)
    ss = m.realization
    assert ss is m.realization and ss.n_x == n_a * n_y
    assert all(M.window in (None, (0, 0)) for M in (ss.A, ss.B, ss.C, ss.D))
    u, p = rand_traj(rng, 2, 40), rand_traj(rng, n_p, 40)
    y = simulate_ss(ss, rng.uniform(-1, 1, ss.n_x), u, p).y.samples
    ref = _loop_io(m, u, p, y[:n_a])
    assert np.max(np.abs(y - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_realization_minimality():
    m = example_verhoek()
    assert minimality_report(m.realization).minimal
    zero = CoeffMatrix.zeros(1, 1, 2)
    lag_one = LpvIoModel(a_coeffs=(m.a_coeffs[0], zero), b_coeffs=(m.b_coeffs[0], zero))
    report = minimality_report(lag_one.realization)
    assert report.observable.verdict and not report.reachable.verdict


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_estimate_initial_state_serves_io_queries(seed):
    # on the realization, the initial window pins the state that continues the query
    ss = example_verhoek().realization
    q = generate_query(example_verhoek(), 3, 7, seed)
    x1 = estimate_initial_state(ss, q.u_ini, q.p_ini, q.y_ini).x
    x = propagate_state(ss, x1, q.u_ini, q.p_ini)
    y_r = simulate_ss(ss, x, q.u_r, q.p_r).y
    assert y_r.interval == q.y_r_truth.interval
    assert np.max(np.abs(y_r.samples - q.y_r_truth.samples)) <= 1e-12


@pytest.mark.parametrize("key,box", [
    ("input_box", [1.0, -1.0]),
    ("input_box", [-1, "1"]),
    ("input_box", [-1.0, 0.0, 1.0]),
    ("input_box", [float("nan"), 1.0]),
    ("scheduling_box", [[-1.0, 1.0], [0.5, 0.0]]),
    ("scheduling_box", [[0, 1], 2]),
    ("scheduling_box", [True, 1]),
])
def test_generate_record_rejects_bad_boxes(key, box):
    # an inverted box used to draw from [hi, lo] without a word
    with pytest.raises(InvalidShape, match=key):
        generate_record(example_verhoek(), 10, 0, **{key: box})


def test_seeds_from_two_to_the_63_are_distinct_keys():
    # a seed of 2**63 or more must reach Philox as one 64-bit word: cast through a
    # float, 2**63 and 2**63 + 5 draw alike, with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [stream(s, "input").random(2) for s in (2**63, 2**63 + 5, 2**64 - 1)]
    assert len({d.tobytes() for d in draws}) == 3


def test_stream_rejects_a_seed_past_one_key_word():
    with pytest.raises(InvalidShape) as exc:
        stream(2**64, "input")
    assert str(exc.value) == f"seed must be in [0, 2**64), got {2**64}"
    with pytest.raises(InvalidShape) as exc:
        stream(-1, "input")
    assert str(exc.value) == "seed must be >= 0, got -1"


@pytest.mark.parametrize("seed", [1.5, 1.9, -0.5, 0.7, True, "1", np.float64(1.0)])
def test_a_seed_that_is_not_an_integer_is_rejected(seed):
    # cast to a key word, each drew the samples of seed 0 or 1
    message = f"seed must be an integer, got {seed!r}"
    with pytest.raises(InvalidShape) as exc:
        generate_record(example_verhoek(), 50, seed)
    assert str(exc.value) == message
    with pytest.raises(InvalidShape) as exc:
        minimality_report(example_verhoek().realization, seed=seed)
    assert str(exc.value) == message


def test_a_numpy_integer_seed_draws_as_the_int():
    model = example_verhoek()
    assert generate_record(model, 50, np.int64(1)) == generate_record(model, 50, 1)
    assert generate_record(model, 5, np.uint64(2**64 - 1)) == generate_record(model, 5, 2**64 - 1)


_HORIZONS = {
    "T": lambda T: generate_record(example_verhoek(), T, 1),
    "T_ini": lambda T: generate_query(example_verhoek(), T, 7, 1),
    "T_r": lambda T: generate_query(example_verhoek(), 3, T, 1),
}


@pytest.mark.parametrize("name", sorted(_HORIZONS))
@pytest.mark.parametrize("value", [0, -3, 2.5, True])
def test_a_horizon_that_is_not_a_positive_integer_is_named(name, value):
    # a horizon off the integers >= 1 fails before any draw, naming the argument in the
    # two wordings of every integer check
    with pytest.raises(InvalidShape) as exc:
        _HORIZONS[name](value)
    assert str(exc.value) == (f"{name} must be >= 1, got {value}" if type(value) is int
                              else f"{name} must be an integer, got {value}")


def test_generate_query_takes_per_channel_input_boxes():
    # the initial state is drawn from the hull of the boxes; one box is its own hull
    model = random_affine_ss(np.random.default_rng(0), 2, 2, 1, 1)
    q = generate_query(model, 3, 4, 0, input_box=[[-1, 1], [0, 1]])
    u = np.vstack([q.u_ini.samples, q.u_r.samples])
    assert np.all(u[:, 1] >= 0) and np.all(np.abs(u) <= 1)
    per_channel = generate_query(model, 3, 4, 0, input_box=[[-2, 1], [-2, 1]])
    one = generate_query(model, 3, 4, 0, input_box=[-2, 1])
    for name in ("u_ini", "y_ini", "u_r", "y_r_truth"):
        assert np.array_equal(getattr(per_channel, name).samples, getattr(one, name).samples)


_T = 800  # x(k+1) = 3 x(k) + u(k) passes the float range from step 647 on
_DIVERGING_MAPS = {
    "obsv_eval": lambda m, u, p: obsv_eval(m, _T, p, 1),
    "toeplitz_eval": lambda m, u, p: toeplitz_eval(m, _T, p, 1),
    "response_map": lambda m, u, p: response_map(m, [0.0], u, p),
    "propagate_state": lambda m, u, p: propagate_state(m, [0.0], u, p),
    "estimate_initial_state": lambda m, u, p: estimate_initial_state(m, u, p, u),
}


@pytest.mark.parametrize("name", _DIVERGING_MAPS)
def test_window_maps_fail_once_on_a_diverging_model(name):
    # a numpy warning is an error here: each map fails once, naming itself (a simulator
    # fails once too, at its output Trajectory, naming the first non-finite step)
    one = CoeffMatrix.constant([[1.0]], 1)
    model = LpvSsModel(A=CoeffMatrix.affine([[3.0]], ([[0.5]],)), B=one, C=one,
                       D=CoeffMatrix.zeros(1, 1, 1))
    u, p = Trajectory(1, np.ones(_T)), Trajectory(1, np.zeros(_T))
    with pytest.raises(InvalidShape, match=f"^{name}: the model diverges on this window$"):
        _DIVERGING_MAPS[name](model, u, p)
