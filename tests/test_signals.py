"""Trajectories, Hankel matrices, Kronecker extensions, records, CSV and JSON interchange."""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import rand_traj
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpvdd import (
    DataRecord,
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
    w = Trajectory(1, [1.0, 2.0, 3.0])
    assert np.array_equal(vec(w), [1.0, 2.0, 3.0])


def test_vec_stacks_samples():
    w = Trajectory(1, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(w), [1.0, 2.0, 3.0, 4.0])


def test_trajectory_needs_a_step():
    with pytest.raises(InvalidShape, match=r"^samples must be \(T, dim\) with T >= 1, "
                                           r"got \(0, 1\)$"):
        Trajectory(1, np.zeros((0, 1)))


@pytest.mark.parametrize("samples", [
    ["a"], [[1, 2], [3]], [1j], [{"a": 1}], np.array([1j]),
    ["1.5", " 2 "], [b"3"], [1.0, "2"], np.array(["1.5"]),
    np.array([1.0, "2"], dtype=object), np.array([[1.0], [b"3"]], dtype=object)])
def test_trajectory_rejects_samples_that_are_not_one_real_array(samples):
    # a bare ValueError or TypeError from numpy, naming no signal rule; numpy parses text
    # as a number and drops the imaginary part of a complex array
    with pytest.raises(InvalidShape, match=r"^samples must be a \(T, dim\) array of reals: "):
        Trajectory(1, samples)


def test_trajectory_reads_numbers_of_every_real_dtype_and_of_object_arrays():
    want = np.array([[1.0], [2.0], [3.0]])
    for samples in ([1, 2, 3], [1.0, 2, 3.0], np.arange(1, 4), np.arange(1, 4, dtype=np.uint8),
                    np.array([1, 2, 3], dtype=np.float32), np.array([1, 2.0, 3], dtype=object)):
        assert np.array_equal(Trajectory(1, samples).samples, want)
    assert np.array_equal(Trajectory(1, [True, False]).samples, [[1.0], [0.0]])


def test_concat_basic_and_errors():
    w1 = Trajectory(1, [1.0, 2.0])
    w2 = Trajectory(3, [3.0])
    w = concat(w1, w2)
    assert w.interval == (1, 3)
    assert np.array_equal(vec(w), [1.0, 2.0, 3.0])

    with pytest.raises(NonAdjacentIntervals):
        concat(w1, Trajectory(5, [9.0]))
    with pytest.raises(DimensionMismatch):
        concat(w1, Trajectory(3, [[1.0, 2.0]]))


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
    w = Trajectory(1, [1.0, 2.0, 3.0, 4.0, 5.0])
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
    w = Trajectory(1, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidShape):
        hankel(w, 4)
    with pytest.raises(InvalidShape):
        hankel(w, 0)


def test_kron_extend_sample_value():
    w = Trajectory(1, [2.0])
    p = Trajectory(1, [[3.0, 4.0]])
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
    p = Trajectory(1, [[2.0, 3.0]])
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
    w = Trajectory(5, [10.0, 20.0, 30.0])
    assert w.t_end == 7
    assert w.value(6) == 20.0
    sub = w.restrict(6, 7)
    assert sub.interval == (6, 7) and sub.value(7) == 30.0
    with pytest.raises(IntervalMismatch):
        w.value(8)
    with pytest.raises(IntervalMismatch):
        w.restrict(4, 6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-2**80, 2**80))
def test_an_integer_t_start_round_trips(t):
    # t_start is held as the int given, a numpy integer as its int, and reads back
    # through the time axis and the CSV file format
    w = Trajectory(t, [1.0, 2.0])
    assert type(w.t_start) is int and w.interval == (t, t + 1) and w.value(t + 1) == 2.0
    assert w.restrict(t + 1, t + 1) == Trajectory(t + 1, [2.0])
    assert trajectory_from_csv(trajectory_to_csv(w)) == w
    if -2**63 <= t < 2**63:
        v = Trajectory(np.int64(t), [1.0, 2.0])
        assert type(v.t_start) is int and v == w and hash(v) == hash(w)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.floats(), st.floats().map(np.float64), st.fractions(), st.decimals(),
                 st.booleans(), st.complex_numbers(), st.text(max_size=3)))
def test_a_non_integral_t_start_raises(t):
    # a float was truncated onto the time axis (2.7 started at 2), a bool or a string
    # taken as its int
    with pytest.raises(InvalidShape) as exc:
        Trajectory(t, [1.0])
    assert str(exc.value) == f"t_start must be an integer, got {t!r}"


def test_trajectory_samples_are_immutable():
    w = Trajectory(1, [1.0, 2.0])
    with pytest.raises(ValueError):
        w.samples[0] = 9.0


def test_trajectories_compare_by_start_and_samples():
    # a different start, value, length or dimension compares unequal, and no == raises
    w = Trajectory(1, np.ones((3, 1)))
    assert w == Trajectory(1, np.ones((3, 1))) and not w != Trajectory(1, np.ones((3, 1)))
    for other in (Trajectory(2, np.ones((3, 1))), Trajectory(1, [1.0, 2.0, 1.0]),
                  Trajectory(1, np.ones((4, 1))), Trajectory(1, np.ones((3, 2))), "w"):
        assert w != other and not w == other


def test_csv_round_trip_exact():
    rng = np.random.default_rng(9)
    w = rand_traj(rng, 3, 7, t_start=-2)
    text = trajectory_to_csv(w)
    back = trajectory_from_csv(text)
    assert back.t_start == w.t_start
    assert np.array_equal(back.samples, w.samples)
    assert text.splitlines()[0] == "t,ch1,ch2,ch3"


@pytest.mark.parametrize("dim", [0, 2])
def test_csv_text_is_the_csv_writer_text(dim):
    # the rows are joined from Python floats; csv.writer over repr(float(v)) of each
    # numpy scalar is the reference
    values = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, -2.5e-308]
    w = Trajectory(-3, np.reshape(values, (-1, 2))[:, :dim].reshape(3, dim))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"ch{i + 1}" for i in range(w.dim)])
    for k in range(w.length):
        writer.writerow([w.t_start + k] + [repr(float(v)) for v in w.samples[k]])
    assert trajectory_to_csv(w) == buf.getvalue()
    assert trajectory_to_csv(w).splitlines()[1] == ("-3,-0.0,5e-324" if dim else "-3")

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
    with pytest.raises(InvalidShape, match="^empty CSV$"):
        trajectory_from_csv("")
    with pytest.raises(InvalidShape, match="^row has 3 fields, expected 2$"):
        trajectory_from_csv("t,ch1\n1,1.0\n2,2.0,3.0\n")


def test_csv_skips_blank_lines():
    w = trajectory_from_csv("t,ch1\n\n4,1.0\n\n5,2.0\n\n")
    assert w.interval == (4, 5) and w.samples.tolist() == [[1.0], [2.0]]


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


@st.composite
def _records(draw):
    T = draw(st.integers(1, 40))
    t_start = draw(st.integers(-10**6, 10**6))
    finite = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals, 1.7e308
    u, p, y = (Trajectory(t_start, draw(arrays(np.float64, (T, draw(st.integers(0, 3))),
                                               elements=finite)))
               for _ in "upy")
    return DataRecord(u, p, y)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rec=_records())
def test_a_record_round_trips_bitwise_through_both_file_formats(rec):
    from lpvdd.signals import _json_text, _write

    def same(back):
        return all(a.interval == b.interval and a.samples.shape == b.samples.shape
                   and a.samples.tobytes() == b.samples.tobytes()
                   for a, b in zip((rec.u, rec.p, rec.y), (back.u, back.p, back.y)))

    with tempfile.TemporaryDirectory() as tmp:
        rec.to_csv_dir(tmp)
        assert same(DataRecord.from_csv_dir(tmp))
        _write(Path(tmp) / "record.json", _json_text(rec.to_dict()))
        back = DataRecord.from_json_bundle(Path(tmp) / "record.json")
        assert same(back)


def test_a_failed_write_leaves_the_target_and_no_new_file(tmp_path):
    from lpvdd.signals import _write

    path = tmp_path / "made" / "w.csv"
    _write(path, "t,ch1\n1,1.0\n")  # makes the directory
    with pytest.raises(UnicodeEncodeError):  # UTF-8 cannot encode a lone surrogate
        _write(path, "t,ch1\n" + "2,2.0\n" * 10_000 + "\ud800")
    assert path.read_bytes() == b"t,ch1\n1,1.0\n"
    assert [f.name for f in path.parent.iterdir()] == ["w.csv"]
