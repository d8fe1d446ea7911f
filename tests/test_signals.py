"""Trajectories, Hankel matrices, Kronecker extensions, CSV interchange."""

import numpy as np
import pytest
from conftest import rand_traj
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpvdd import (
    DimensionMismatch,
    IntervalMismatch,
    InvalidShape,
    NonAdjacentIntervals,
    Trajectory,
    concat,
    hankel,
    kron_extend,
    kron_signal,
    sched_block_diag,
    trajectory_from_csv,
    trajectory_to_csv,
    vec,
)


def test_vec_scalar_trajectory():
    w = Trajectory.from_values([1.0, 2.0, 3.0])
    assert np.array_equal(vec(w), [1.0, 2.0, 3.0])


def test_vec_stacks_samples():
    w = Trajectory.from_values([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(w), [1.0, 2.0, 3.0, 4.0])


def test_concat_basic_and_errors():
    w1 = Trajectory.from_values([1.0, 2.0], t_start=1)
    w2 = Trajectory.from_values([3.0], t_start=3)
    w = concat(w1, w2)
    assert w.interval == (1, 3)
    assert np.array_equal(vec(w), [1.0, 2.0, 3.0])

    with pytest.raises(NonAdjacentIntervals):
        concat(w1, Trajectory.from_values([9.0], t_start=5))
    with pytest.raises(DimensionMismatch):
        concat(w1, Trajectory.from_values([[1.0, 2.0]], t_start=3))


def test_vec_concat_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        w1 = rand_traj(rng, d, n1, t_start=int(rng.integers(-5, 5)))
        w2 = rand_traj(rng, d, n2, t_start=w1.t_end + 1)
        w = concat(w1, w2)
        assert w.length == n1 + n2
        assert np.array_equal(vec(w), np.concatenate([vec(w1), vec(w2)]))


def test_hankel_forced_by_definition():
    w = Trajectory.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    H = hankel(w, 2)
    assert np.array_equal(H, [[1, 2, 3, 4], [2, 3, 4, 5]])


def test_hankel_single_column_is_vec():
    w = rand_traj(np.random.default_rng(1), 2, 6)
    H = hankel(w, 6)
    assert H.shape[1] == 1
    assert np.array_equal(H[:, 0], vec(w))


def test_hankel_returns_a_fresh_writable_array():
    for dim, t1 in ((1, 1), (3, 4)):
        w = rand_traj(np.random.default_rng(7), dim, 9)
        H = hankel(w, t1)
        assert H.flags.writeable
        assert not np.shares_memory(H, w.samples)


def test_hankel_columns_are_windows():
    rng = np.random.default_rng(2)
    w = rand_traj(rng, 3, 12)
    L = 4
    H = hankel(w, L)
    for j in range(H.shape[1]):
        window = w.restrict(w.t_start + j, w.t_start + j + L - 1)
        assert np.array_equal(H[:, j], vec(window))


def test_hankel_shift_structure():
    w = rand_traj(np.random.default_rng(3), 2, 10)
    H = hankel(w, 4).reshape(4, w.dim, -1)  # block row i is H[i]
    for i in range(3):
        for j in range(H.shape[-1] - 1):
            assert np.array_equal(H[i + 1][:, j], H[i][:, j + 1])


def test_hankel_shape_errors():
    w = Trajectory.from_values([1.0, 2.0, 3.0])
    with pytest.raises(InvalidShape):
        hankel(w, 4)
    with pytest.raises(InvalidShape):
        hankel(w, 0)


def test_kron_extend_sample_value():
    w = Trajectory.from_values([2.0])
    p = Trajectory.from_values([[3.0, 4.0]])
    ext = kron_extend(w, p)
    assert np.array_equal(ext.samples[0], [2.0, 6.0, 8.0])


def test_kron_extend_zero_scheduling():
    w = rand_traj(np.random.default_rng(4), 2, 5)
    p = Trajectory(1, np.zeros((5, 3)))
    ext = kron_extend(w, p)
    assert np.array_equal(ext.samples[:, :2], w.samples)
    assert not ext.samples[:, 2:].any()


def test_kron_extend_dims_and_errors():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n_w, n_p, T = (int(rng.integers(1, 4)) for _ in range(3))
        T += 1
        w, p = rand_traj(rng, n_w, T), rand_traj(rng, n_p, T)
        assert kron_extend(w, p).dim == (1 + n_p) * n_w
    with pytest.raises(IntervalMismatch):
        kron_extend(rand_traj(rng, 1, 4), rand_traj(rng, 1, 5))


def test_hankel_of_extended_signal_regroups_to_plain_hankel():
    rng = np.random.default_rng(6)
    w, p = rand_traj(rng, 2, 9), rand_traj(rng, 2, 9)
    L = 3
    H_ext = hankel(kron_extend(w, p), L)
    # rows of each time block split as [w, p x w]; regroup the w rows
    n_ext = (1 + p.dim) * w.dim
    w_rows = np.concatenate(
        [np.arange(i * n_ext, i * n_ext + w.dim) for i in range(L)]
    )
    assert np.array_equal(H_ext[w_rows], hankel(w, L))
    pw_rows = np.concatenate(
        [np.arange(i * n_ext + w.dim, (i + 1) * n_ext) for i in range(L)]
    )
    assert np.array_equal(H_ext[pw_rows], hankel(kron_signal(w, p), L))


def test_sched_block_diag_single_block():
    p = Trajectory.from_values([[2.0, 3.0]])
    assert np.array_equal(sched_block_diag(p, 1), [[2.0], [3.0]])


def test_sched_block_diag_zero():
    p = Trajectory(1, np.zeros((4, 2)))
    assert not sched_block_diag(p, 3).any()


def test_sched_block_diag_kron_identity():
    # multiplying vec(w) must equal vec(p x w) sample-wise
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, n_p, L = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        w, p = rand_traj(rng, n, L), rand_traj(rng, n_p, L)
        P = sched_block_diag(p, n)
        assert P.shape == (L * n_p * n, L * n)
        assert np.allclose(P @ vec(w), vec(kron_signal(w, p)), atol=1e-14)


def test_zero_dim_scheduling_degenerates():
    w = rand_traj(np.random.default_rng(8), 2, 5)
    p = Trajectory(1, np.zeros((5, 0)))
    ext = kron_extend(w, p)
    assert ext.dim == 2
    assert sched_block_diag(p, 2).shape == (0, 10)


def test_trajectory_accessors_and_restrict():
    w = Trajectory.from_values([10.0, 20.0, 30.0], t_start=5)
    assert w.t_end == 7
    assert w.value(6) == 20.0
    sub = w.restrict(6, 7)
    assert sub.interval == (6, 7) and sub.value(7) == 30.0
    with pytest.raises(IntervalMismatch):
        w.value(8)
    with pytest.raises(IntervalMismatch):
        w.restrict(4, 6)


def test_trajectory_samples_are_immutable():
    w = Trajectory.from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        w.samples[0] = 9.0


def test_csv_round_trip_exact():
    rng = np.random.default_rng(9)
    w = rand_traj(rng, 3, 7, t_start=-2)
    text = trajectory_to_csv(w)
    back = trajectory_from_csv(text)
    assert back.t_start == w.t_start
    assert np.array_equal(back.samples, w.samples)
    assert text.splitlines()[0] == "t,ch1,ch2,ch3"


_SHAPES = st.tuples(st.integers(1, 6), st.integers(0, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(t0=st.integers(-1000, 1000), a=arrays(np.float64, _SHAPES),
       unit=arrays(np.float64, st.just((6, 2)), elements=st.floats(-1, 1)))
def test_a_trajectory_holds_only_finite_samples(t0, a, unit):
    # arrays draws NaN and +-inf among its floats; a non-finite sample fails where it is
    # made, and every trajectory made of finite ones passes through the constructions
    finite = np.isfinite(a).all(axis=1)
    if not finite.all():
        k = t0 + int(np.argmin(finite))
        with pytest.raises(InvalidShape, match=f"^non-finite sample at time step {k}$"):
            Trajectory(t0, a)
        return
    w = Trajectory(t0, a)
    assert w.t_start == t0 and w.samples.tobytes() == a.tobytes()
    for k in range(t0, w.t_end):  # every split of w into two restrictions
        whole = concat(w.restrict(t0, k), w.restrict(k + 1, w.t_end))
        assert whole.samples.tobytes() == a.tobytes()
    # a scheduling in [-1, 1] keeps every product p_j(k) w_i(k) finite
    assert kron_extend(w, Trajectory(t0, unit[: len(a)])).dim == 3 * w.dim


def test_kron_extend_past_the_float_range_is_not_finite():
    # a product that overflows is a non-finite sample like any other
    big = Trajectory(5, [[1.0], [1e200]])
    with pytest.raises(InvalidShape, match="^non-finite sample at time step 6$"):
        kron_extend(big, big)


def test_csv_rejects_malformed():
    with pytest.raises(InvalidShape):
        trajectory_from_csv("a,b\n1,2\n")
    with pytest.raises(InvalidShape):
        trajectory_from_csv("t,ch1\n1,1.0\n3,2.0\n")
    with pytest.raises(InvalidShape):
        trajectory_from_csv("t,ch1\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "abc"])
def test_csv_rejects_non_finite_samples(bad):
    with pytest.raises(InvalidShape, match="time step 3"):
        trajectory_from_csv(f"t,ch1,ch2\n2,1.0,2.0\n3,0.5,{bad}\n")


@pytest.mark.parametrize("text", ["t,ch1\n2,1.0\n3,1_0\n", "t,ch1\n1_0,1.0\n11,2.0\n",
                                  "t,ch1\n1,1.0\n2,\uff12.5\n", "t,ch1\n\u0661,2.5\n2,3.0\n"],
                         ids=["sample", "time-step", "non-ascii-sample", "non-ascii-time-step"])
def test_csv_rejects_digit_separators(text):
    # int() and float() read "1_0" as 10 and every Unicode digit as its value ("\u0661" as 1);
    # the format has ASCII numbers with no thousands separators
    with pytest.raises(InvalidShape, match="non-numeric sample at time step"):
        trajectory_from_csv(text)


def test_read_csv_error_names_the_file(tmp_path):
    from lpvdd import read_trajectory_csv

    path = tmp_path / "y.csv"
    path.write_text("t,ch1\n1,nan\n")
    with pytest.raises(InvalidShape, match="y.csv"):
        read_trajectory_csv(path)


def test_csv_file_round_trip(tmp_path):
    from lpvdd import read_trajectory_csv, write_trajectory_csv

    w = rand_traj(np.random.default_rng(10), 2, 5, t_start=3)
    path = tmp_path / "w.csv"
    write_trajectory_csv(path, w)
    back = read_trajectory_csv(path)
    assert back.interval == (3, 7)
    assert np.array_equal(back.samples, w.samples)


def test_rebase_keeps_samples():
    w = Trajectory.from_values([1.0, 2.0], t_start=4)
    r = w.rebase(1)
    assert r.interval == (1, 2)
    assert np.array_equal(r.samples, w.samples)
