"""The package: each public name listed once, each module loaded on first use, the
generating modules apart from the data modules, each file written by one writer,
each rank decision cut and reported in one module, no ``==`` or ``hash`` raising on
an array and each span that the benchmark traces still in the library."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lpvdd
from lpvdd import (CoeffMatrix, DataRecord, InvalidModel, InvalidShape, PolyCoeff, Trajectory,
                   build_predictor, check_pe, estimate_initial_state, example_verhoek,
                   generate_query, generate_record, hankel, impulse_coeff, io_to_kernel,
                   left_nullspace, minimality_report, model_from_dict, model_to_dict,
                   obsv_eval, obsv_matrix, predict, propagate_state, random_affine_ss,
                   reach_matrix, response_map, simulate_io, simulate_ss, structural_rank,
                   toeplitz, toeplitz_eval, write_trajectory_csv)
from lpvdd.rng import stream

SRC = str(Path(lpvdd.__file__).resolve().parents[1])

_LOADED = 'print(" ".join(sorted(m for m in sys.modules if m.startswith("lpvdd."))))'
# Runs ``lpvdd`` with the arguments after ``-c``; it must succeed.
_CLI = """\
import runpy, sys
try:
    runpy.run_module("lpvdd.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _python(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True)
    return done.stdout.splitlines()[-1].split()


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    assert _python("import sys, lpvdd\n" + _LOADED) == []
    # the generating side builds records without the data side
    assert _python("import sys, lpvdd.experiments\n" + _LOADED) == [
        f"lpvdd.{m}" for m in ("coeffs", "errors", "experiments", "models", "rng",
                               "signals", "simulation")]
    model = example_verhoek()
    generate_record(model, 70, 1).to_csv_dir(tmp_path / "data")
    q = generate_query(model, 3, 7, 2)
    (tmp_path / "query").mkdir()
    for name in ("u_ini", "p_ini", "y_ini", "u_r", "p_r"):
        write_trajectory_csv(tmp_path / "query" / f"{name}.csv", getattr(q, name))
    data = ("--data-dir", str(tmp_path / "data"))
    runs = {
        ("simulate", "--out-dir", str(tmp_path / "sim")):
            "coeffs errors experiments models rng signals simulation",
        ("check", *data): "analysis errors rng signals",
        ("check", *data, "--model", "builtin:verhoek"):
            "analysis coeffs errors models rng signals",
        ("predict", *data, "--query-dir", str(tmp_path / "query"),
         "--out-dir", str(tmp_path / "out")): "analysis errors prediction rng signals",
    }
    for args, modules in runs.items():
        loaded = _python(_CLI + _LOADED, *args)
        assert loaded == [f"lpvdd.{m}" for m in modules.split()], args


# The generating modules make records and never import the data modules at module
# level: the two sides meet only at errors, rng and signals.  signals and cli import
# only the lpvdd modules listed for them, so each command loads only what it runs.
_DATA_SIDE = {"analysis", "prediction"}
_MAY_IMPORT = {"signals": {"errors"}, "cli": {"errors", "signals"}}
_GENERATING = ("coeffs", "models", "simulation", "experiments")


def _module_imports(tree) -> list[tuple[str, int]]:
    """``(module, line)`` of each lpvdd module that ``tree`` imports at module level,
    in line order; an import in a function or under ``TYPE_CHECKING`` loads later or
    never."""
    later = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            later.update(ast.walk(node))
        elif isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            later.update(n for child in node.body for n in ast.walk(child))
    found = []
    for node in ast.walk(tree):
        if node in later:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            names = ["lpvdd." + node.module]  # from .analysis import x
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "lpvdd"):
            names = ["lpvdd." + alias.name for alias in node.names]  # from . import rng
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found += [(name.split(".")[1], node.lineno) for name in names
                  if name.startswith("lpvdd.")]
    return sorted(found, key=lambda item: item[1])


def test_module_level_imports_keep_the_layering():
    code = """\
import numpy
from typing import TYPE_CHECKING
from .analysis import Lifted
from . import rng, signals
import lpvdd.prediction
from lpvdd.models import LpvSsModel
try:
    from .coeffs import CoeffMatrix
except ImportError:
    pass
if TYPE_CHECKING:
    from .simulation import SimResult
def f():
    from .experiments import Query
"""
    assert _module_imports(ast.parse(code)) == [
        ("analysis", 3), ("rng", 4), ("signals", 4), ("prediction", 5), ("models", 6),
        ("coeffs", 8)]
    for path in sorted(Path(lpvdd.__file__).parent.glob("*.py")):
        allowed = _MAY_IMPORT.get(path.stem)
        for module, line in _module_imports(ast.parse(path.read_text(encoding="utf-8"))):
            ok = (module not in _DATA_SIDE if path.stem in _GENERATING
                  else allowed is None or module in allowed)
            assert ok, f"{path.name}:{line} imports lpvdd.{module}"


def test_the_package_exports_each_public_name_of_its_modules_once():
    modules = [importlib.import_module(f"lpvdd.{m.name}")
               for m in pkgutil.iter_modules(lpvdd.__path__)]
    listed = [(name, module) for module in modules for name in getattr(module, "__all__", ())]
    assert sorted(lpvdd.__all__) == sorted(name for name, _ in listed)
    assert len(set(lpvdd.__all__)) == len(lpvdd.__all__)
    for name, module in listed:
        assert getattr(lpvdd, name) is getattr(module, name), name
    star: dict = {}
    exec("from lpvdd import *", star)
    assert set(star) - {"__builtins__"} == set(lpvdd.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        lpvdd.no_such_name
    # a submodule resolves on a bare import, before anything imports it
    assert _python("import lpvdd; print(lpvdd.prediction.hankel.__module__)") == [
        "lpvdd.signals"]


def _file_writes(tree, exempt=frozenset()) -> list[int]:
    """Lines of the nodes of ``tree`` outside ``exempt`` that open a file for writing:
    ``open`` in a mode other than reading, ``os.open``, ``os.fdopen``, ``write_text``,
    ``write_bytes``, ``json.dump`` (any ``dump``) or ``tempfile``."""
    lines = []
    for node in ast.walk(tree):
        if node in exempt:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", "")]
            if "tempfile" in {(name or "").split(".")[0] for name in names}:
                lines.append(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            write = name in ("open", "fdopen")
        elif name == "open":  # open(path, mode) or path.open(mode); no mode reads
            given = [k.value for k in node.keywords if k.arg == "mode"]
            given += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            mode = given[0] if given else ast.Constant("r")
            write = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                         and not set(mode.value) & set("wax+"))
        else:
            write = name in ("write_text", "write_bytes", "dump")
        if write:
            lines.append(node.lineno)
    return lines


def test_only_the_one_writer_opens_a_file_for_writing():
    # every file lpvdd writes goes through signals._write: whole or not at all, with the
    # mode a plain open gives; a new writer has to call it
    for code in ('open(p, "w")', 'open(p, mode="a")', 'open(p, "r+")', 'p.open("x")',
                 "open(p, m)", "os.open(p, 1)", 'os.fdopen(fd, "w")', 'p.write_text("")',
                 'p.write_bytes(b"")', "json.dump({}, fh)", "import tempfile",
                 "from tempfile import mkstemp"):
        assert _file_writes(ast.parse(code)) == [1], code
    for code in ("open(p)", 'open(p, "r", encoding="utf-8")', 'p.open("rb")',
                 "json.dumps({})", 'fh.write("")', "os.replace(a, b)"):
        assert _file_writes(ast.parse(code)) == [], code
    for path in sorted(Path(lpvdd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "signals.py":
            (write,) = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "_write"]
            assert _file_writes(write)
            exempt = set(ast.walk(write))
        assert _file_writes(tree, exempt) == [], path.name


def _array_tuple_eq(tree) -> list[int]:
    """Lines of the dataclasses of ``tree`` that declare a field annotated ``np.ndarray``
    and keep the ``__eq__`` that ``dataclass`` generates: it compares the fields as one
    tuple, which raises on two arrays of more than one element."""
    lines = []
    for node in ast.walk(tree):
        decorators = [d for d in getattr(node, "decorator_list", ())
                      if "dataclass" in ast.unparse(d)]
        if not isinstance(node, ast.ClassDef) or not decorators:
            continue
        arrays = any(isinstance(f, ast.AnnAssign) and "np.ndarray" in ast.unparse(f.annotation)
                     for f in node.body)
        own_eq = any(isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in node.body)
        no_eq = any(k.arg == "eq" and ast.unparse(k.value) == "False"
                    for d in decorators if isinstance(d, ast.Call) for k in d.keywords)
        if arrays and not (own_eq or no_eq):
            lines.append(node.lineno)
    return lines


def test_no_dataclass_compares_arrays_as_a_tuple():
    # a record of arrays compares by identity (eq=False) or defines its own __eq__, as
    # Trajectory does, so that no == in lpvdd raises on an array
    for code in ("@dataclass\nclass A:\n    x: np.ndarray",
                 "@dataclass(frozen=True)\nclass A:\n    x: tuple[np.ndarray, ...]",
                 "@dataclasses.dataclass(eq=True)\nclass A:\n    x: np.ndarray"):
        assert _array_tuple_eq(ast.parse(code)) == [2], code
    for code in ("@dataclass(frozen=True, eq=False)\nclass A:\n    x: np.ndarray",
                 "@dataclass\nclass A:\n    x: np.ndarray\n    def __eq__(self, o):\n"
                 "        return True",
                 "@dataclass\nclass A:\n    x: tuple[float, ...]",
                 "class A:\n    x: np.ndarray"):
        assert _array_tuple_eq(ast.parse(code)) == [], code
    for path in sorted(Path(lpvdd.__file__).parent.glob("*.py")):
        assert _array_tuple_eq(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_records_compare_by_value_or_identity_without_raising():
    # records of signals compare their samples; a record of bare arrays is equal only
    # to itself
    model = example_verhoek()
    rec, q, q5 = (generate_record(model, 70, 1), generate_query(model, 3, 7, 4),
                  generate_query(model, 3, 7, 5))
    assert rec == generate_record(model, 70, 1) != generate_record(model, 70, 2)
    assert q == generate_query(model, 3, 7, 4) != q5
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res == predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert res != predict(rec, q5.u_ini, q5.p_ini, q5.y_ini, q5.u_r, q5.p_r)
    ss, p = random_affine_ss(np.random.default_rng(0), 2), Trajectory(1, rec.p.samples[:, 0])
    sim = simulate_ss(ss, np.zeros(2), rec.u, p)
    assert sim == simulate_ss(ss, np.zeros(2), rec.u, p)
    assert sim != simulate_ss(ss, np.ones(2), rec.u, p)
    u, p, y = (w.restrict(1, 3) for w in (rec.u, p, sim.y))
    for make in (lambda: estimate_initial_state(ss, u, p, y), lambda: rec.lifted(7),
                 lambda: build_predictor(rec, q.p_r), lambda: left_nullspace(rec, 7)):
        first, second = make(), make()
        assert first == first and (first == second) == (first is second)


def test_records_hash_by_value_or_say_they_have_no_hash():
    # a record that compares by value hashes by value, so equal records are one dict key;
    # one that holds a dict says so by its type: its __hash__ is None
    model = example_verhoek()
    rec, q = generate_record(model, 70, 1), generate_query(model, 3, 7, 4)
    ss, p = random_affine_ss(np.random.default_rng(0), 2), Trajectory(1, rec.p.samples[:, 0])
    pairs = [(Trajectory(1, [[0.0], [1.0]]), Trajectory(1, [[-0.0], [1.0]])),
             (rec, generate_record(model, 70, 1)), (q, generate_query(model, 3, 7, 4)),
             (simulate_ss(ss, np.zeros(2), rec.u, p), simulate_ss(ss, np.zeros(2), rec.u, p)),
             (ss, model_from_dict(model_to_dict(ss))), (model, example_verhoek()),
             (io_to_kernel(model), io_to_kernel(example_verhoek())), (ss.A, -(-ss.A))]
    for first, second in pairs:
        assert first == second and first is not second, type(first)
        assert hash(first) == hash(second) and {first: 1}[second] == 1, type(first)
    assert hash(rec) != hash(generate_record(model, 70, 2))
    res = predict(rec, q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r)
    assert type(res).__hash__ is None
    with pytest.raises(TypeError, match="unhashable type: 'PredictionResult'"):
        hash(res)


def _rank_outside_analysis(tree) -> list[int]:
    """Lines of the nodes of ``tree`` that read ``RANK_CUT`` or declare a dataclass
    field ``rank``, ``*_rank``, ``sigma_min`` or ``singular_values``."""
    lines = []
    for node in ast.walk(tree):
        if "RANK_CUT" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
                isinstance(node, ast.alias) and node.name == "RANK_CUT"):
            lines.append(node.lineno)
        dataclass = isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list)
        for field in node.body if dataclass else ():
            name = getattr(getattr(field, "target", None), "id", "")
            if isinstance(field, ast.AnnAssign) and (
                    name in ("rank", "sigma_min", "singular_values") or name.endswith("_rank")):
                lines.append(field.lineno)
    return lines


def _cached_rank_records(tree) -> list[int]:
    """Lines of the ``cached_property`` methods of ``tree`` that return a ``RankRecord``:
    annotated so, or returning a ``RankRecord(...)`` or ``_rank(...)`` call."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or not any(
                "cached_property" in ast.unparse(d) for d in node.decorator_list):
            continue
        calls = [ast.unparse(r.value.func).split(".")[-1] for r in ast.walk(node)
                 if isinstance(r, ast.Return) and isinstance(r.value, ast.Call)]
        if "RankRecord" in ast.unparse(node.returns or ast.Constant(None)) or {
                "RankRecord", "_rank"} & set(calls):
            lines.append(node.lineno)
    return lines


def test_each_rank_decision_is_cut_and_reported_in_analysis():
    # lpvdd.analysis alone reads the cut and holds ranks and singular values, in its one
    # RankRecord; every other module reports a rank decision through that record
    for code in ("x = RANK_CUT", "x = analysis.RANK_CUT", "from .analysis import RANK_CUT",
                 "@dataclass\nclass A:\n    rank: int",
                 "@dataclass(frozen=True)\nclass A:\n    full_stack_rank: int",
                 "@dataclasses.dataclass\nclass A:\n    sigma_min: float",
                 "@dataclass\nclass A:\n    singular_values: tuple"):
        assert _rank_outside_analysis(ast.parse(code)), code
    for code in ("x = RANK_CUTS", "class A:\n    rank: int",
                 "@dataclass\nclass A:\n    record: RankRecord\n    ranked: int"):
        assert _rank_outside_analysis(ast.parse(code)) == [], code
    # a memoised record would keep the cut of its first read: memoise singular values
    for code in ("@cached_property\ndef pe(self) -> RankRecord:\n    return f(self)",
                 "@functools.cached_property\ndef pe(self):\n    return _rank(s, 1)",
                 "@cached_property\ndef pe(self):\n    return analysis.RankRecord(1, 1, (), 0)"):
        assert _cached_rank_records(ast.parse(code)) == [2], code
    for code in ("@cached_property\ndef s(self) -> np.ndarray:\n    return svd(self.x)",
                 "@property\ndef pe(self) -> RankRecord:\n    return _rank(self.s, 1)"):
        assert _cached_rank_records(ast.parse(code)) == [], code
    for path in sorted(Path(lpvdd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _cached_rank_records(tree) == [], path.name
        if path.name != "analysis.py":
            assert _rank_outside_analysis(tree) == [], path.name


def _linalg_calls(tree) -> list[tuple[int, str]]:
    """``(line, name)`` of the nodes of ``tree`` that call the ``linalg`` function ``name``
    or import ``name`` from ``linalg`` (or ``linalg`` itself); naming one, as
    ``except np.linalg.LinAlgError`` does, is no call."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                ast.unparse(node.func.value).split(".")[-1] == "linalg"):
            calls.append((node.lineno, node.func.attr))
        if isinstance(node, ast.ImportFrom) and "linalg" in [
                *(node.module or "").split("."), *(a.name for a in node.names)]:
            calls += [(node.lineno, a.name) for a in node.names]
    return calls


def test_only_analysis_calls_linalg():
    # lpvdd.analysis holds the one least-squares/rank helper; every other module reaches
    # LAPACK through it and names np.linalg only to catch its error.  analysis itself
    # calls only the two factorizations qr and svd, so a solve, lstsq, pinv or eigh
    # brought back fails here
    for code, name in (("np.linalg.solve(A, b)", "solve"), ("z = numpy.linalg.qr(A)[0]", "qr"),
                       ("f(np.linalg.svd(A, compute_uv=False))", "svd"),
                       ("from numpy.linalg import pinv", "pinv"),
                       ("from numpy import linalg", "linalg")):
        assert _linalg_calls(ast.parse(code)) == [(1, name)], code
    for code in ("try:\n    f()\nexcept np.linalg.LinAlgError:\n    pass",
                 "solve(A, b)", "np.dot(A, b)", "from .analysis import _lstsq"):
        assert _linalg_calls(ast.parse(code)) == [], code
    for path in sorted(Path(lpvdd.__file__).parent.glob("*.py")):
        names = {name for _, name in _linalg_calls(ast.parse(path.read_text(encoding="utf-8")))}
        assert names == ({"qr", "svd"} if path.name == "analysis.py" else set()), path.name


# The names and attributes that make a type test one for an integer or for a real.
_NUMBER_TYPES = {"integer": ({"int", "Integral"}, {"integer", "Integral"}),
                 "real": ({"float", "Real"}, {"floating", "Real"})}


def _number_checks(tree, kind: str, exempt=frozenset()) -> list[int]:
    """Lines of the type tests of ``tree`` outside ``exempt`` against a ``kind`` type of
    ``_NUMBER_TYPES``: ``isinstance(v, T)`` or ``type(v) is T`` with ``T`` naming one."""
    names, attrs = _NUMBER_TYPES[kind]
    lines = []
    for node in ast.walk(tree):
        if node in exempt:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            types = node.args[1:]
        elif isinstance(node, ast.Compare) and getattr(
                getattr(node.left, "func", None), "id", None) == "type":
            types = node.comparators
        else:
            continue
        if any(getattr(n, "id", None) in names or getattr(n, "attr", None) in attrs
               for t in types for n in ast.walk(t)):
            lines.append(node.lineno)
    return lines


def _only_one_check(kind: str, name: str) -> ast.FunctionDef:
    """``signals.<name>``, after asserting that it tests for a ``kind`` type and that no
    other code in ``src/lpvdd`` does."""
    for path in sorted(Path(lpvdd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "signals.py":
            (check,) = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == name]
            assert _number_checks(check, kind)
            exempt = set(ast.walk(check))
        assert _number_checks(tree, kind, exempt) == [], path.name
    return check


def test_only_the_one_check_tests_for_an_integer():
    # signals._check_int decides every integer argument; a second check would drift from
    # its wording, its exception class or its bool test, as a JSON-only one did
    for code in ("isinstance(v, (int, np.integer))", "isinstance(v, numpy.integer)",
                 "ok = not isinstance(n, (np.integer, int)) or n < 1",
                 "isinstance(n, numbers.Integral)", "isinstance(n, Integral)",
                 "isinstance(v, int if integer else float)", "isinstance(v, (int, float))",
                 "type(v) is not int"):
        assert _number_checks(ast.parse(code), "integer") == [1], code
    for code in ("isinstance(v, bool)", "isinstance(v, float)", "isinstance(v, types)",
                 "np.issubdtype(a.dtype, np.integer)", "type(v) is Trajectory"):
        assert _number_checks(ast.parse(code), "integer") == [], code
    _only_one_check("integer", "_check_int")


def test_only_the_one_check_tests_for_a_real():
    # signals._check_real decides every real argument, and signals alone imports numbers
    for code in ("isinstance(v, numbers.Real)", "isinstance(v, Real) and not b",
                 "isinstance(v, (int, float))", "type(value) is not float",
                 "isinstance(v, np.floating)"):
        assert _number_checks(ast.parse(code), "real") == [1], code
    for code in ("isinstance(v, bool)", "isinstance(b, (list, tuple, np.ndarray))",
                 "isinstance(value, types)", "a.dtype.kind in 'iuf'", "isinstance(v, int)"):
        assert _number_checks(ast.parse(code), "real") == [], code
    check = _only_one_check("real", "_check_real")
    assert "isinstance(value, numbers.Real)" in ast.unparse(check)
    importers = [path.name for path in sorted(Path(lpvdd.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Import) and "numbers" in [a.name for a in node.names]
                 or isinstance(node, ast.ImportFrom) and node.module == "numbers"]
    assert importers == ["signals.py"]


# Every integer argument of the library: its name and a call that passes it the value v.
_INTEGER_ARGUMENTS = {
    "check_pe L": ("order L", lambda c, v: check_pe(c.rec.u, c.rec.p, v)),
    "lifted L": ("order L", lambda c, v: c.rec.lifted(v).s),
    "left_nullspace L": ("order L", lambda c, v: left_nullspace(c.rec, v).basis),
    "hankel t1": ("order L", lambda c, v: hankel(c.w, v)),
    "generate_record T": ("T", lambda c, v: generate_record(c.model, v, 1)),
    "generate_query T_ini": ("T_ini", lambda c, v: generate_query(c.model, v, 2, 1)),
    "generate_query T_r": ("T_r", lambda c, v: generate_query(c.model, 2, v, 1)),
    "obsv_matrix n": ("n", lambda c, v: obsv_matrix(c.ss, v)),
    "reach_matrix n": ("n", lambda c, v: reach_matrix(c.ss, v)),
    "obsv_eval n": ("n", lambda c, v: obsv_eval(c.ss, v, c.p, 1)),
    "impulse_coeff n": ("n", lambda c, v: impulse_coeff(c.ss, v)),
    "toeplitz t1": ("t1", lambda c, v: toeplitz(c.ss, v)),
    "toeplitz_eval t1": ("t1", lambda c, v: toeplitz_eval(c.ss, v, c.p, 1)),
    "obsv_eval k": ("k", lambda c, v: obsv_eval(c.ss, 2, c.p, v)),
    "toeplitz_eval k": ("k", lambda c, v: toeplitz_eval(c.ss, 2, c.p, v)),
    "Trajectory t_start": ("t_start", lambda c, v: Trajectory(v, [1.0])),
    "restrict t1": ("t1", lambda c, v: c.w.restrict(v, 4)),
    "restrict t2": ("t2", lambda c, v: c.w.restrict(1, v)),
    "value k": ("k", lambda c, v: c.w.value(v)),
    "random_affine_ss n_x": ("n_x", lambda c, v: random_affine_ss(c.rng(), v)),
    "random_affine_ss n_u": ("n_u", lambda c, v: random_affine_ss(c.rng(), 2, v)),
    "random_affine_ss n_y": ("n_y", lambda c, v: random_affine_ss(c.rng(), 2, 1, v)),
    "random_affine_ss n_p": ("n_p", lambda c, v: random_affine_ss(c.rng(), 2, 1, 1, v)),
    "stream seed": ("seed", lambda c, v: stream(v, "input").random(3)),
    "generate_record seed": ("seed", lambda c, v: generate_record(c.model, 5, v)),
    "minimality_report seed": ("seed", lambda c, v: minimality_report(c.ss, seed=v)),
    "CoeffMatrix.shift d": ("d", lambda c, v: c.coeff.shift(v)),
    "CoeffMatrix.affine offset": ("offset", lambda c, v: CoeffMatrix.affine(1.0, [2.0], v)),
    "CoeffMatrix.eval k": ("k", lambda c, v: c.coeff.eval(c.p, v)),
    "CoeffMatrix.eval_range k1": ("k1", lambda c, v: c.coeff.eval_range(c.p, v, 4)),
    "CoeffMatrix.eval_range k2": ("k2", lambda c, v: c.coeff.eval_range(c.p, 0, v)),
    "PolyCoeff.shift d": ("d", lambda c, v: c.coeff.entry(0, 0).shift(v)),
    "PolyCoeff.var offset": ("offset", lambda c, v: PolyCoeff.var(1, 1, v)),
    "PolyCoeff.eval k": ("k", lambda c, v: c.coeff.entry(0, 0).eval(c.p, v)),
    "PolyCoeff n_p": ("n_p", lambda c, v: PolyCoeff.constant(1.0, v)),
    "PolyCoeff comp": ("comp", lambda c, v: PolyCoeff.monomial(1.0, [(v, 0, 1)], 2)),
    "PolyCoeff power": ("power", lambda c, v: PolyCoeff.monomial(1.0, [(1, 0, v)], 1)),
    "CoeffMatrix.zeros rows": ("rows", lambda c, v: CoeffMatrix.zeros(v, 1, 1)),
    "CoeffMatrix.zeros cols": ("cols", lambda c, v: CoeffMatrix.zeros(1, v, 1)),
    "CoeffMatrix.zeros n_p": ("n_p", lambda c, v: CoeffMatrix.zeros(1, 1, v)),
    "CoeffMatrix.constant n_p": ("n_p", lambda c, v: CoeffMatrix.constant([[1.0]], v)),
    "CoeffMatrix.identity n": ("n", lambda c, v: CoeffMatrix.identity(v, 1)),
    "CoeffMatrix.identity n_p": ("n_p", lambda c, v: CoeffMatrix.identity(1, v)),
    "structural_rank required": ("required", lambda c, v: structural_rank(c.coeff, v)),
    "annihilator i": ("i", lambda c, v: left_nullspace(c.rec, 4).annihilator(v)),
}


@pytest.fixture(scope="module")
def arguments():
    """What the calls of ``_INTEGER_ARGUMENTS`` and ``_REAL_ARGUMENTS`` read: a record, a
    query, models and signals."""
    model = example_verhoek()
    q = generate_query(model, 3, 2, 1)
    return SimpleNamespace(model=model, rec=generate_record(model, 20, 0),
                           query=(q.u_ini, q.p_ini, q.y_ini, q.u_r, q.p_r),
                           ss=random_affine_ss(np.random.default_rng(0), 2),
                           w=Trajectory(1, np.arange(6.0)), p=Trajectory(-2, np.zeros(9)),
                           coeff=CoeffMatrix.affine([[1.0, 2.0]], [[[3.0, 4.0]]], -1),
                           rng=lambda: np.random.default_rng(0))


@pytest.mark.parametrize("call", _INTEGER_ARGUMENTS)
def test_every_integer_argument_is_checked_as_one(call, arguments):
    # a float, a bool or a string is named, where it was truncated, ran as 1 or failed
    # inside numpy; a numpy integer runs as the int (here 2, valid for every argument)
    name, run = _INTEGER_ARGUMENTS[call]
    for value in (2.0, 2.5, True, np.float64(3.0), "3"):
        with pytest.raises(InvalidShape) as exc:
            run(arguments, value)
        assert str(exc.value) == f"{name} must be an integer, got {value!r}", value
    got, want = run(arguments, np.int64(2)), run(arguments, 2)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def _with_coeff(data: dict, v) -> dict:
    """A copy of the model file ``data`` with the coefficient of the first term of
    ``A[0][0]`` set to ``v``."""
    entry = [dict(term) for term in data["A"][0][0]]
    entry[0]["coeff"] = v
    return {**data, "A": [[entry, *data["A"][0][1:]], *data["A"][1:]]}


def _with_sample(data: dict, v) -> dict:
    """A copy of the record file ``data`` with the first sample of ``u`` set to ``v``."""
    u = data["u"]
    return {**data, "u": {**u, "samples": [[v], *u["samples"][1:]]}}


# Every real argument of the library: its name and a call that passes it the value v.
_REAL_ARGUMENTS = {
    "Trajectory samples": ("samples", lambda c, v: Trajectory(1, [v, 0.0])),
    "DataRecord.from_dict samples": (
        "u: samples", lambda c, v: DataRecord.from_dict(_with_sample(c.rec.to_dict(), v))),
    "simulate_ss x0": ("x0", lambda c, v: simulate_ss(c.ss, [v, 0.0], c.w, c.p)),
    "simulate_io y_init": (
        "y_init", lambda c, v: simulate_io(c.model, c.rec.u, c.rec.p, [[v], [0.0]])),
    "response_map x_tilde": ("x_tilde", lambda c, v: response_map(c.ss, [v, 0.0], c.w, c.p)),
    "propagate_state x1": ("x1", lambda c, v: propagate_state(c.ss, [v, 0.0], c.w, c.p)),
    "CoeffMatrix.constant values": ("values", lambda c, v: CoeffMatrix.constant([[v, 1.0]], 1)),
    "CoeffMatrix.affine const": ("const", lambda c, v: CoeffMatrix.affine([[v]], [[[1.0]]])),
    "CoeffMatrix.affine linear": ("linear", lambda c, v: CoeffMatrix.affine([[1.0]], [[[v]]])),
    "PolyCoeff.constant": ("coeff", lambda c, v: PolyCoeff.constant(v, 1)),
    "PolyCoeff.monomial": ("coeff", lambda c, v: PolyCoeff.monomial(v, [(1, 0, 1)], 1)),
    "PolyCoeff +": ("coeff", lambda c, v: c.coeff.entry(0, 0) + v),
    "PolyCoeff -": ("coeff", lambda c, v: c.coeff.entry(0, 0) - v),
    "PolyCoeff *": ("coeff", lambda c, v: c.coeff.entry(0, 0) * v),
    "predict tol": ("tol", lambda c, v: predict(c.rec, *c.query, tol=v)),
    "predict margin_tol": ("margin_tol", lambda c, v: predict(c.rec, *c.query, margin_tol=v)),
    "generate_record input_box": (
        "input_box", lambda c, v: generate_record(c.model, 5, 1, input_box=[v, 1.0])),
    "generate_query scheduling_box": ("scheduling_box", lambda c, v: generate_query(
        c.model, 2, 2, 1, scheduling_box=[[v, 1.0], [-1.0, 1.0]])),
    "model_from_dict coeff": (
        "A[0][0]: coeff", lambda c, v: model_from_dict(_with_coeff(model_to_dict(c.ss), v))),
}


@pytest.mark.parametrize("call", _REAL_ARGUMENTS)
def test_every_real_argument_is_checked_as_one(call, arguments):
    # text, a bool, None and a complex value are named, where numpy parsed the text, read
    # the bool as 1.0 or failed bare; so are an int past the float range, where float()
    # overflowed, and a longdouble past it, which float() read as inf.  A numpy real runs
    # as the equal float.
    name, run = _REAL_ARGUMENTS[call]
    error = InvalidModel if call.startswith("model_from_dict") else InvalidShape
    for value in ("1.5", b"3", True, np.True_, None, 1 + 2j, 10**400, np.longdouble("1e400")):
        with pytest.raises(error) as exc:
            run(arguments, value)
        assert str(exc.value) == f"{name} must be a real number, got {value!r}", value
    for value, equal in ((np.float32(0.5), 0.5), (np.int64(1), 1.0)):
        got, want = run(arguments, value), run(arguments, equal)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def _perfbench(name):
    """The benchmark module ``perfbench/<name>.py``, loaded from its file."""
    path = Path(SRC).parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    # the tracer wraps each span by name when a traced run starts; a renamed or removed
    # library function fails here instead of crashing that run
    spans = _perfbench("bench").traced_spans()
    resolve = _perfbench("tracer").resolve
    assert spans
    for name in spans:
        owner, attr = resolve(name)
        held = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert callable(held.get(attr)), name
