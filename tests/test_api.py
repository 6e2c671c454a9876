"""The public surface: ``oodgate.__all__``, and every name the benchmark imports."""

import ast
import importlib
from pathlib import Path

import oodgate

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
