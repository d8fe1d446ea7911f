"""Model forms: the built-in example, construction checks, kernels, JSON interchange."""

import json
import re

import numpy as np
import pytest
from conftest import rand_traj

from lpvdd import (
    CoeffMatrix,
    DimensionMismatch,
    InvalidModel,
    KernelRep,
    LpvIoModel,
    LpvSsModel,
    Trajectory,
    WindowOutOfRange,
    example_verhoek,
    generate_record,
    io_to_kernel,
    load_model,
    model_from_dict,
    model_to_dict,
    random_affine_ss,
    simulate_io,
)


def test_example_dimensions():
    m = example_verhoek()
    assert (m.n_a, m.n_b, m.n_p) == (2, 2, 2)
    assert (m.n_u, m.n_y) == (1, 1)
    # affine: every monomial is a constant or a single first power
    assert {sum(pw for _, _, pw in mono)
            for c in m.a_coeffs + m.b_coeffs for mono in c.terms} == {0, 1}


def test_example_coefficient_values():
    m = example_verhoek()
    zeros = Trajectory(-3, np.zeros((6, 2)))
    # constant parts
    assert m.a_coeffs[0].eval(zeros, 1)[0, 0] == 1.0
    assert m.a_coeffs[1].eval(zeros, 1)[0, 0] == 0.5
    assert m.b_coeffs[0].eval(zeros, 1)[0, 0] == 0.5
    assert m.b_coeffs[1].eval(zeros, 1)[0, 0] == 0.2
    # affine parts at p identically one
    ones = Trajectory(-3, np.ones((6, 2)))
    assert m.b_coeffs[1].eval(ones, 1)[0, 0] == pytest.approx(0.2 - 0.3 - 0.2, abs=0)
    assert m.a_coeffs[0].eval(ones, 1)[0, 0] == pytest.approx(1 - 0.5 - 0.1, abs=0)


def test_offset_locality_violation_flagged():
    m = example_verhoek()
    bad_a1 = CoeffMatrix.affine([[1.0]], ([[-0.5]], [[-0.1]]), offset=0)
    with pytest.raises(InvalidModel, match="offsets"):
        LpvIoModel(a_coeffs=(bad_a1, m.a_coeffs[1]), b_coeffs=m.b_coeffs)


def test_order_mismatch_flagged():
    m = example_verhoek()
    with pytest.raises(InvalidModel, match="n_a"):
        LpvIoModel(a_coeffs=(m.a_coeffs[0],), b_coeffs=m.b_coeffs)


_SS = random_affine_ss(np.random.default_rng(0), n_x=2, n_u=1, n_y=1, n_p=1)
_IO = example_verhoek()


@pytest.mark.parametrize("kind,parts,issues", [
    ("ss", {"A": CoeffMatrix.zeros(2, 3, 1)}, ["A must be square, got (2, 3)"]),
    ("ss", {"B": CoeffMatrix.zeros(3, 1, 1)}, ["B has 3 rows, expected n_x=2"]),
    ("ss", {"C": CoeffMatrix.zeros(1, 3, 1)}, ["C has 3 cols, expected n_x=2"]),
    ("ss", {"D": CoeffMatrix.zeros(2, 1, 1)}, ["D shape (2, 1) does not match (n_y, n_u)"]),
    ("ss", {"D": CoeffMatrix.zeros(1, 1, 2)}, ["coefficient matrices disagree on n_p: [1, 2]"]),
    ("io", {"a_coeffs": _IO.a_coeffs[:1]}, ["n_a=1 < n_b=2"]),
    ("io", {"a_coeffs": (_IO.a_coeffs[0], CoeffMatrix.zeros(2, 1, 2))},
     ["a_2 shape (2, 1), expected (1, 1)"]),
    ("io", {"b_coeffs": (_IO.b_coeffs[0], CoeffMatrix.constant([[0.2]], 1))},
     ["b_2 has n_p=1, expected 2"]),
    ("io", {"a_coeffs": (CoeffMatrix.affine([[1.0]], ([[0.5]], [[0.1]])), _IO.a_coeffs[1])},
     ["a_1 depends on offsets in [0, 0], only -1 allowed"]),
    ("ss", {"B": CoeffMatrix.zeros(3, 1, 1), "C": CoeffMatrix.zeros(1, 3, 1),
            "D": CoeffMatrix.zeros(1, 1, 2)},
     ["B has 3 rows", "C has 3 cols", "disagree on n_p"]),
], ids=["A-not-square", "B-rows", "C-cols", "D-shape", "n_p", "n_a-below-n_b", "io-shape",
        "io-n_p", "io-offsets", "three-issues"])
def test_ill_formed_model_is_not_made(kind, parts, issues):
    # every issue is named in the one error raised at construction
    if kind == "ss":
        make, fields = LpvSsModel, {name: getattr(_SS, name) for name in "ABCD"}
    else:
        make, fields = LpvIoModel, {"a_coeffs": _IO.a_coeffs, "b_coeffs": _IO.b_coeffs}
    with pytest.raises(InvalidModel) as err:
        make(**{**fields, **parts})
    assert all(issue in str(err.value) for issue in issues), err.value


@pytest.mark.parametrize("kind,key", [("ss", "n_x"), ("ss", "n_u"), ("ss", "n_y"),
                                      ("io", "n_u"), ("io", "n_y"), ("io", "n_a"), ("io", "n_b")])
def test_model_from_dict_checks_declared_dims(kind, key):
    model = {"ss": _SS, "io": _IO}[kind]
    data = model_to_dict(model)
    assert model_from_dict({k: v for k, v in data.items() if k != key}) == model  # optional
    with pytest.raises(InvalidModel, match=f"^{key} is declared 7"):
        model_from_dict({**data, key: 7})
    with pytest.raises(InvalidModel, match=f"^{key} must be a JSON integer"):
        model_from_dict({**data, key: float(data[key])})


def test_json_round_trip_io():
    m = example_verhoek()
    data = model_to_dict(m)
    assert data["kind"] == "io"
    back = model_from_dict(data)
    assert back.a_coeffs == m.a_coeffs
    assert back.b_coeffs == m.b_coeffs


def test_json_round_trip_ss():
    rng = np.random.default_rng(0)
    m = random_affine_ss(rng, n_x=3, n_u=2, n_y=2, n_p=2)
    back = model_from_dict(model_to_dict(m))
    assert back.A == m.A and back.B == m.B and back.C == m.C and back.D == m.D


def test_json_term_schema():
    m = example_verhoek()
    entry = model_to_dict(m)["a_coeffs"][0][0][0]  # a_1, entry (0,0)
    assert {"coeff", "vars"} == set(entry[0].keys())
    var_keys = {k for term in entry for v in term["vars"] for k in v}
    assert var_keys == {"comp", "offset", "power"}
    offsets = {v["offset"] for term in entry for v in term["vars"]}
    assert offsets == {-1}


def test_io_to_kernel_order_and_shape():
    m = example_verhoek()
    R = io_to_kernel(m)
    assert R.order == m.n_a
    assert R.n_w == m.n_u + m.n_y
    assert not R.coeffs[-1].is_zero


def test_kernel_residual_vanishes_on_simulated_trajectories():
    m = example_verhoek()
    R = io_to_kernel(m)
    for seed in range(5):
        rec = generate_record(m, 25, seed)
        w = Trajectory(1, np.hstack([rec.u.samples, rec.y.samples]))
        res = R.residual(w, rec.p)
        assert res.shape[0] > 0
        assert np.max(np.abs(res)) <= 1e-10


def test_kernel_residual_nonzero_off_behaviour():
    m = example_verhoek()
    R = io_to_kernel(m)
    rng = np.random.default_rng(1)
    w = rand_traj(rng, 2, 20)
    p = rand_traj(rng, 2, 20)
    assert np.max(np.abs(R.residual(w, p))) > 1e-3


def test_static_degenerate_kernel():
    # n_a = 1 with a_1 = 0 and constant b_1: kernel is y(k+1) - b1 u(k) = 0
    b1 = 0.7
    m = LpvIoModel(
        a_coeffs=(CoeffMatrix.zeros(1, 1, 0),),
        b_coeffs=(CoeffMatrix.constant([[b1]], 0),),
    )
    # a zero leading coefficient is legal: it only lowers the order
    u = Trajectory(1, [1.0, 2.0, 3.0])
    p = Trajectory(1, np.zeros((3, 0)))
    y = simulate_io(m, u, p, y_init=[[0.0]])
    assert np.allclose(y.samples[1:, 0], b1 * u.samples[:-1, 0])


def test_random_ss_model_dimensions():
    rng = np.random.default_rng(2)
    m = random_affine_ss(rng, n_x=2, n_u=2, n_y=1, n_p=3)
    assert (m.n_x, m.n_u, m.n_y, m.n_p) == (2, 2, 1, 3)


def test_save_load_file_round_trip(tmp_path):
    from lpvdd import load_model, save_model

    path = tmp_path / "model.json"
    m = example_verhoek()
    save_model(path, m)
    back = load_model(path)
    assert back.a_coeffs == m.a_coeffs and back.b_coeffs == m.b_coeffs

    ss = random_affine_ss(np.random.default_rng(3), 2, 1, 2, 1)
    save_model(path, ss)
    back_ss = load_model(path)
    assert back_ss.A == ss.A and back_ss.D == ss.D


def test_model_from_dict_rejects_unknown_kind():
    from lpvdd import InvalidModel

    with pytest.raises(InvalidModel):
        model_from_dict({"kind": "lorenz", "n_p": 1})


def test_model_from_dict_rejects_negative_scheduling_dim():
    from lpvdd import InvalidModel

    data = model_to_dict(random_affine_ss(np.random.default_rng(0), 2, 1, 1, 1))
    with pytest.raises(InvalidModel, match="n_p must be >= 0, got -1"):
        model_from_dict({**data, "n_p": -1})
    # JSON numbers only: each of these was truncated or cast
    for key, value in [("n_p", 2.9), ("comp", 1.6), ("offset", "-1"), ("power", True),
                       ("coeff", True), ("coeff", "0.5")]:
        bad = json.loads(json.dumps(data))
        term = bad["A"][0][0][1]  # a p_1 term: its one var has comp, offset and power
        {"n_p": bad, "coeff": term}.get(key, term["vars"][0])[key] = value
        named = key if key == "n_p" else f"A[0][0]: {key}"
        with pytest.raises(InvalidModel, match=re.escape(f"{named} must be a JSON")):
            model_from_dict(bad)


@pytest.mark.parametrize("key,value,message", [
    ("comp", 3, "component 3 outside [1, 2]"), ("comp", 0, "component 0 outside [1, 2]"),
    ("power", 0, "power must be >= 1, got 0")])
def test_load_model_names_the_entry_of_a_bad_term(tmp_path, key, value, message):
    path = tmp_path / "m.json"
    data = model_to_dict(example_verhoek())
    data["a_coeffs"][0][0][0][1]["vars"][0][key] = value
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidModel) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: a_coeffs[0][0][0]: {message}"


def test_kernel_rejects_zero_leading_coefficient():
    from lpvdd import InvalidModel, KernelRep

    zero = CoeffMatrix.zeros(1, 2, 1)
    eye_row = CoeffMatrix.constant([[0.0, 1.0]], 1)
    with pytest.raises(InvalidModel):
        KernelRep((eye_row, zero))


def test_empty_models_are_not_made():
    b = example_verhoek().b_coeffs
    with pytest.raises(InvalidModel, match="^IO model needs at least one a and one b "):
        LpvIoModel((), b)
    with pytest.raises(InvalidModel, match="^kernel needs at least one coefficient$"):
        KernelRep(())
    with pytest.raises(InvalidModel, match="^cannot serialize str$"):
        model_to_dict("builtin:verhoek")


@pytest.mark.parametrize("dims,message", [
    ((0, 1, 1, 1), "n_x must be >= 1, got 0"), ((-1, 1, 1, 1), "n_x must be >= 1, got -1"),
    ((2, 0, 1, 1), "n_u must be >= 1, got 0"), ((2, 1, 0, 1), "n_y must be >= 1, got 0"),
    ((2, 1, -2, 1), "n_y must be >= 1, got -2"), ((2, 1, 1, -1), "n_p must be >= 0, got -1"),
])
def test_random_affine_ss_names_a_dimension_out_of_range(dims, message):
    # n_x = 0 raised ZeroDivisionError, n_x = -1 numpy's ValueError, n_u = 0 a
    # DimensionMismatch that named no argument
    with pytest.raises(DimensionMismatch) as exc:
        random_affine_ss(np.random.default_rng(0), *dims)
    assert str(exc.value) == message


def test_random_affine_ss_without_scheduling_is_constant():
    m = random_affine_ss(np.random.default_rng(0), 2, 1, 1, 0)
    assert (m.n_x, m.n_u, m.n_y, m.n_p) == (2, 1, 1, 0) and m.A.window is None


def test_kernel_residual_needs_an_admissible_time():
    # a second-order kernel has no admissible time on a two-step window
    rng = np.random.default_rng(2)
    with pytest.raises(WindowOutOfRange, match="^no admissible evaluation times "):
        io_to_kernel(example_verhoek()).residual(rand_traj(rng, 2, 2), rand_traj(rng, 2, 2))


def test_ill_formed_kernel_is_not_made():
    # a coefficient unlike r_0 was made, then failed inside numpy's einsum in residual
    r_0 = CoeffMatrix.constant([[1.0, 0.0]], 1)
    with pytest.raises(InvalidModel) as err:
        KernelRep((r_0, CoeffMatrix.zeros(2, 2, 1), CoeffMatrix.constant([[0.5, 1.0]], 2)))
    assert str(err.value) == "r_1 shape (2, 2), expected (1, 2); r_2 has n_p=2, expected 1"


def test_kernel_residual_names_a_w_of_the_wrong_dimension():
    # numpy's broadcast ValueError before
    rng = np.random.default_rng(1)
    with pytest.raises(DimensionMismatch, match="^w has dim 3, expected 2$"):
        io_to_kernel(example_verhoek()).residual(rand_traj(rng, 3, 20), rand_traj(rng, 2, 20))


def test_io_to_kernel_rejects_structural_defects():
    # no such model reaches io_to_kernel: construction rejects it
    m = example_verhoek()
    with pytest.raises(InvalidModel, match="offsets"):
        LpvIoModel(
            a_coeffs=(m.a_coeffs[0], CoeffMatrix.affine([[0.5]], ([[0.1]], [[0.1]]), offset=0)),
            b_coeffs=m.b_coeffs,
        )


def test_example_coefficient_literals_bitwise():
    # the stored term coefficients are exactly these decimal literals
    m = example_verhoek()

    def terms_of(mat):
        entry = mat.entry(0, 0)
        const = {mono: c for c, mono in entry.terms}.get((), 0.0)
        linear = {mono[0][0]: c for c, mono in entry.terms if mono}
        return (const, linear.get(1, 0.0), linear.get(2, 0.0))

    assert terms_of(m.a_coeffs[0]) == (1.0, -0.5, -0.1)
    assert terms_of(m.a_coeffs[1]) == (0.5, -0.7, -0.1)
    assert terms_of(m.b_coeffs[0]) == (0.5, -0.4, 0.01)
    assert terms_of(m.b_coeffs[1]) == (0.2, -0.3, -0.2)
