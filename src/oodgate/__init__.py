"""Post-hoc out-of-distribution detection over exported features and logits.

Fit and apply max-softmax, energy, and Mahalanobis detectors to any
classifier's exported per-sample features and logits; calibrate operating
thresholds; compute ROC metrics; and stress the detectors along three axes
(classifier accuracy, domain distance, class imbalance) on seeded synthetic
worlds. The brute-force verification oracles live in
:mod:`oodgate.synthetic`; they are importable from here too, but are not
part of ``__all__``.

The package loads each submodule, and numpy with it, on first use of a name
that lives there, so a bare ``import oodgate`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_ORACLES = ("direct_mahalanobis_oracle", "direct_pooled_covariance", "pairwise_auroc_oracle")

#: The submodule that defines each public name and each oracle.
_HOME = {name: module for module, names in {
    "data": ("UNLABELED", "DatasetManifest", "FeatureTable", "ManifestEntry", "Role",
             "SplitPolicy", "TableFormat", "read_feature_table", "split_id_data",
             "write_feature_table"),
    "detectors": ("DetectorConfig", "GaussianClassModel", "Method", "ScoreSet",
                  "fit_mahalanobis", "load_model", "read_scores", "save_model", "score_energy",
                  "score_mahalanobis", "score_msp", "score_table", "write_scores"),
    "errors": ("IngestionError", "NumericalError", "OodgateError", "ValidationError"),
    "experiments": ("DATASET_SIZE_PRESETS", "DESK_SCALE_PER_SIDE", "Axis", "SweepResult",
                    "SweepRow", "SweepSpec", "run_sweep"),
    "metrics": ("Criterion", "EvalReport", "RocCurve", "auroc", "calibrate_threshold",
                "evaluate", "fpr_at_tpr", "roc_curve"),
    "synthetic": ("Balanced", "SyntheticSpec", "SyntheticWorld", "UnbalancedPowerlaw",
                  "UnbalancedUniform", "generate_world", "parse_law", "sample_imbalanced",
                  *_ORACLES),
}.items() for name in names}

__all__ = [name for name in _HOME if name not in _ORACLES]


def __getattr__(name: str):
    """Import the submodule ``name`` is, or lives in, and keep the value."""
    home = _HOME.get(name, name)
    if home not in _HOME.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME, *_HOME.values()})
