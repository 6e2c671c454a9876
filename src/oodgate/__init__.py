"""Post-hoc out-of-distribution detection over exported features and logits.

Fit and apply max-softmax, energy, and Mahalanobis detectors to any
classifier's exported per-sample features and logits; calibrate operating
thresholds; compute ROC metrics; and stress the detectors along three axes
(classifier accuracy, domain distance, class imbalance) on seeded synthetic
worlds. The brute-force verification oracles live in
:mod:`oodgate.synthetic`; they are importable from here too, but are not
part of ``__all__``.
"""

from .data import (
    UNLABELED,
    DatasetManifest,
    FeatureTable,
    ManifestEntry,
    Role,
    SplitPolicy,
    TableFormat,
    read_feature_table,
    split_id_data,
    write_feature_table,
)
from .detectors import (
    DetectorConfig,
    GaussianClassModel,
    Method,
    ScoreSet,
    fit_mahalanobis,
    load_model,
    read_scores,
    save_model,
    score_energy,
    score_mahalanobis,
    score_msp,
    score_table,
    write_scores,
)
from .errors import IngestionError, NumericalError, OodgateError, ValidationError
from .experiments import (
    DATASET_SIZE_PRESETS,
    DESK_SCALE_PER_SIDE,
    Axis,
    SweepResult,
    SweepRow,
    SweepSpec,
    run_sweep,
)
from .metrics import (
    Criterion,
    EvalReport,
    RocCurve,
    auroc,
    calibrate_threshold,
    evaluate,
    fpr_at_tpr,
    roc_curve,
)
from .synthetic import (
    Balanced,
    SyntheticSpec,
    SyntheticWorld,
    UnbalancedPowerlaw,
    UnbalancedUniform,
    direct_mahalanobis_oracle,
    direct_pooled_covariance,
    generate_world,
    pairwise_auroc_oracle,
    parse_law,
    sample_imbalanced,
)

__version__ = "0.1.0"

__all__ = [
    "UNLABELED",
    "DATASET_SIZE_PRESETS",
    "DESK_SCALE_PER_SIDE",
    "Axis",
    "Balanced",
    "Criterion",
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
