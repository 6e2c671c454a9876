"""The public surface: ``oodgate.__all__``, every name the benchmark imports,
and the value-record contract."""

import ast
import copy
import dataclasses
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oodgate
from oodgate import Balanced, FeatureTable, Method, ScoreSet, SyntheticSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: ``sorted(oodgate.__all__)``: a change to the public API is a diff here.
PUBLIC = [
    "Axis",
    "Balanced",
    "Criterion",
    "DATASET_SIZE_PRESETS",
    "DESK_SCALE_PER_SIDE",
    "DatasetManifest",
    "DetectorConfig",
    "EvalReport",
    "FeatureTable",
    "GaussianClassModel",
    "IngestionError",
    "ManifestEntry",
    "Method",
    "NumericalError",
    "OodgateError",
    "RocCurve",
    "Role",
    "ScoreSet",
    "SplitPolicy",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SyntheticSpec",
    "SyntheticWorld",
    "TableFormat",
    "UNLABELED",
    "UnbalancedPowerlaw",
    "UnbalancedUniform",
    "ValidationError",
    "auroc",
    "calibrate_threshold",
    "evaluate",
    "fit_mahalanobis",
    "fpr_at_tpr",
    "generate_world",
    "load_model",
    "parse_law",
    "read_feature_table",
    "read_scores",
    "roc_curve",
    "run_sweep",
    "sample_imbalanced",
    "save_model",
    "score_energy",
    "score_mahalanobis",
    "score_msp",
    "score_table",
    "split_id_data",
    "write_feature_table",
    "write_scores",
]


def test_public_names_are_pinned():
    assert sorted(oodgate.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(oodgate, name)


def _bench_imports() -> set[tuple[str, str | None]]:
    """``(module, name)`` for each ``from oodgate... import name`` in the
    benchmark's scripts, and ``(module, None)`` for each ``import oodgate...``."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oodgate":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "oodgate")
    return found


def test_every_name_the_benchmark_imports_still_imports():
    found = _bench_imports()
    assert {
        ("oodgate", "sample_imbalanced"),
        ("oodgate", "DATASET_SIZE_PRESETS"),
        ("oodgate", "pairwise_auroc_oracle"),
        ("oodgate", "direct_mahalanobis_oracle"),
        ("oodgate", "direct_pooled_covariance"),
    } <= found
    for module, name in sorted(found, key=str):
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), (module, name)


# ---------------------------------------------------------------------------
# value records

#: One way to build each record that holds arrays; two calls build two equal records.
RECORDS = {
    "FeatureTable": lambda: FeatureTable(np.eye(2), np.ones((2, 3)), [0, 2]),
    "GaussianClassModel": lambda: oodgate.GaussianClassModel(np.eye(2), np.eye(2), [3, 4]),
    "ScoreSet": lambda: ScoreSet(Method.EBM, [0.5, -1.0]),
    "RocCurve": lambda: oodgate.roc_curve(ScoreSet(None, [2.0, 1.0]), ScoreSet(None, [1.5])),
    "SyntheticWorld": lambda: oodgate.generate_world(
        SyntheticSpec(classes=2, dim=2, law=Balanced(10), seed=1)),
}


def _same(a, b) -> bool:
    """Field by field, arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_copy_compare_hash_and_stay_frozen(name):
    """Every record copies and pickles; ``==`` and ``hash`` never raise over
    array fields: a FeatureTable compares by bytes and is unhashable, the
    others compare and hash by identity. No field can be set or deleted."""
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name and _same(record, twin)
    for other in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert _same(record, other)
    assert record == record and (record == twin) is (name == "FeatureTable")
    if name == "FeatureTable":
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(record) and hash(record) != hash(twin)
    for field in dataclasses.fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field.name, getattr(twin, field.name))
        with pytest.raises(AttributeError):
            delattr(record, field.name)
    assert _same(record, twin)


@pytest.mark.parametrize("name", ["FeatureTable", "GaussianClassModel", "RocCurve", "ScoreSet"])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_record_copies_keep_arrays_read_only(name, clone):
    record = clone(RECORDS[name]())
    arrays = [getattr(record, f.name) for f in dataclasses.fields(record)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


def test_bare_import_loads_no_cli_svg_or_scipy():
    """``import oodgate`` is the library's whole start-up cost (the sweep
    benchmark's setup time is exactly this import): it loads neither the
    CLI, its argparse and SVG writer, nor any scipy module, which only mah
    scoring loads, nor numpy or any other submodule, which load on first use."""
    code = ("import sys, oodgate; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'numpy') or m.startswith('oodgate.')"
            " or m == 'argparse'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


#: In a fresh ``import oodgate``: ``dir`` lists every public name, oracle and
#: submodule before any loads, each then resolves, and an unknown name does not.
_LAZY = """
import sys, oodgate
modules = ["data", "detectors", "errors", "experiments", "metrics", "synthetic"]
names = [*oodgate.__all__, "direct_mahalanobis_oracle", "direct_pooled_covariance",
         "pairwise_auroc_oracle"]
assert set(dir(oodgate)) >= {*names, *modules}, {*names, *modules} - set(dir(oodgate))
for module in modules:
    assert getattr(oodgate, module) is sys.modules[f"oodgate.{module}"], module
for name in names:
    value = getattr(oodgate, name)
    assert any(getattr(oodgate, m).__dict__.get(name) is value for m in modules), name
    assert getattr(oodgate, name) is value, name
try:
    oodgate.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_lazy_package_resolves_and_lists_every_name():
    out = subprocess.run([sys.executable, "-c", _LAZY], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "module 'oodgate' has no attribute 'no_such_name'\n"


def _module_level_imports(tree: ast.Module):
    """The modules imported by statements that run when ``tree`` is imported:
    those outside any function body. A relative import keeps its leading
    dots: ``from .data import x`` yields ``.data``, ``from . import svg``
    yields ``.svg``."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module:
                yield dots + node.module
            else:
                yield from (dots + alias.name for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_numpy_is_the_one_dependency_and_no_module_imports_scipy_on_load():
    """scipy serves only the tests' reference solves and, where numpy's BLAS
    exports no ``dtrtrs``, mah's fallback, which imports it when first called."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
    sources = sorted((root / "src" / "oodgate").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = [m for m in _module_level_imports(tree) if m.split(".")[0] == "scipy"]
        assert not loaded, (path.name, loaded)


def test_cli_imports_no_private_name_from_detectors():
    """The CLI fits and scores through ``fit_mahalanobis`` and ``score_table``,
    the names the benchmark times, not through a private path beside them."""
    path = Path(__file__).resolve().parents[1] / "src" / "oodgate" / "cli.py"
    private = [
        alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in {("detectors", 1), ("oodgate.detectors", 0)}
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_loads_only_what_fit_and_score_run_on_import():
    """``fit`` and ``score`` run only ``data`` and ``detectors``, so those and
    ``errors`` are the only oodgate modules ``cli.py`` imports when it is
    imported; each other command imports the rest of what it runs."""
    path = Path(__file__).resolve().parents[1] / "src" / "oodgate" / "cli.py"
    loaded = {m for m in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
              if m.startswith(".") or m.split(".")[0] == "oodgate"}
    assert loaded == {".data", ".detectors", ".errors"}

