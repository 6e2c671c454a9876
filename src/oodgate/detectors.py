"""Post-hoc OOD scoring: max-softmax, energy, and Mahalanobis detectors.

All three detectors emit scores with one fixed orientation, higher = more
in-distribution, so a single thresholding convention serves every method:

* ``msp``  - largest softmax probability of the logit row.
* ``ebm``  - negated free energy ``T * logsumexp(logits / T)``.
* ``mah``  - negative squared Mahalanobis distance to the nearest fitted
  class-conditional Gaussian (per-class means, one shared covariance
  pooled over within-class residuals).

``msp`` and ``ebm`` read logits straight off a table; ``mah`` needs a
:class:`GaussianClassModel` fitted on a labeled detector-fit table first.
All arithmetic runs in float64 regardless of table storage precision.
"""

from __future__ import annotations

import enum
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureTable, _ingesting, _read_csv, _write_csv
from .errors import IngestionError, NumericalError, ValidationError

#: Absolute diagonal loading used when the scatter has zero trace.
ZERO_TRACE_RIDGE_FLOOR = 1e-6

#: Rows per block in :func:`score_mahalanobis`; a block's distance matrix
#: holds this many rows times c float64 values.
SCORE_CHUNK_ROWS = 4096

_MODEL_MAGIC = b"OODM"
_MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sIQQd")  # magic, version, c, d, ridge


class Method(str, enum.Enum):
    MSP = "msp"
    EBM = "ebm"
    MAH = "mah"


@dataclass(frozen=True)
class DetectorConfig:
    method: Method
    temperature: float = 1.0  # ebm only
    ridge: float = 1e-6  # mah covariance regularizer, relative to trace/d

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValidationError(f"temperature must be > 0, got {self.temperature}")
        if self.ridge < 0:
            raise ValidationError(f"ridge must be >= 0, got {self.ridge}")


@dataclass(frozen=True)
class ScoreSet:
    """Per-sample detector scores, higher = more in-distribution."""

    method: Method | None
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise ValidationError(f"scores must be a nonempty vector, got {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValidationError("scores contain non-finite values")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.scores.size


def write_scores(scores: ScoreSet, path: str | Path) -> None:
    """Export as ``index,score`` CSV with 17 significant digits."""
    index = np.arange(len(scores))
    _write_csv(path, ["index", "score"], index, scores.scores[:, None], "{:.17g}".format)


def _score_columns(header: list[str]) -> tuple[int]:
    if header != ["index", "score"]:
        raise ValidationError(f"expected 'index,score' header, got {header}")
    return (1,)


def read_scores(path: str | Path, method: Method | None = None) -> ScoreSet:
    with _ingesting(path):
        _, scores = _read_csv(path, _score_columns)
        return ScoreSet(method, scores[:, 0])


# ---------------------------------------------------------------------------
# logit-based detectors


def _as_finite_2d(logits: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be 2-D (rows of logits), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contain non-finite values")
    return arr


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtracted)."""
    x = np.asarray(logits, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def _max_and_expsum(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The max along ``axis`` and the sum of ``exp(x - max)`` (at least 1)."""
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis), np.sum(np.exp(x - m), axis=axis)


def logsumexp(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted log-sum-exp along ``axis``."""
    m, total = _max_and_expsum(np.asarray(logits, dtype=np.float64), axis)
    return m + np.log(total)


def score_msp(logits: np.ndarray) -> ScoreSet:
    """Max softmax probability ``1 / sum(exp(x - max))`` per row; needs c >= 2."""
    arr = _as_finite_2d(logits, "logits")
    if arr.shape[1] < 2:
        raise ValidationError(f"msp needs c >= 2 logit columns, got {arr.shape[1]}")
    return ScoreSet(Method.MSP, 1.0 / _max_and_expsum(arr, 1)[1])


def score_energy(logits: np.ndarray, temperature: float = 1.0) -> ScoreSet:
    """Negated free energy ``T * logsumexp(logits / T)`` per row."""
    if temperature <= 0:
        raise ValidationError(f"temperature must be > 0, got {temperature}")
    arr = _as_finite_2d(logits, "logits")
    return ScoreSet(Method.EBM, temperature * logsumexp(arr / temperature, axis=1))


# ---------------------------------------------------------------------------
# Mahalanobis detector


class GaussianClassModel:
    """Per-class means with one shared, ridge-regularized covariance.

    The stored ``covariance`` is the unregularized pooled within-class
    scatter (divisor: total fit sample count). ``precision_factor`` is the
    lower Cholesky factor of the regularized covariance. Scoring forms its
    explicit inverse only to pick each row's candidate classes; every
    returned distance comes from a triangular solve against the factor.
    """

    __slots__ = ("means", "covariance", "precision_factor", "per_class_counts", "ridge")

    def __init__(
        self,
        means: np.ndarray,
        covariance: np.ndarray,
        per_class_counts: np.ndarray,
        ridge: float = 1e-6,
    ) -> None:
        means = np.ascontiguousarray(means, dtype=np.float64)
        covariance = np.ascontiguousarray(covariance, dtype=np.float64)
        counts = np.ascontiguousarray(per_class_counts, dtype=np.int64)
        if means.ndim != 2:
            raise ValidationError(f"means must be c x d, got shape {means.shape}")
        c, d = means.shape
        if covariance.shape != (d, d):
            raise ValidationError(
                f"covariance shape {covariance.shape} does not match d={d}"
            )
        if counts.shape != (c,):
            raise ValidationError("per_class_counts length must equal class count")
        if (counts < 1).any():
            bad = int(np.argmin(counts))
            raise ValidationError(f"class {bad} has no fit samples")
        if ridge < 0:
            raise ValidationError(f"ridge must be >= 0, got {ridge}")
        if np.abs(covariance - covariance.T).max() > 1e-9:
            raise ValidationError("covariance is not symmetric within 1e-9")

        self.means = means
        self.covariance = covariance
        self.per_class_counts = counts
        self.ridge = float(ridge)
        regularized = covariance + self._ridge_scale() * np.eye(d)
        try:
            self.precision_factor = np.linalg.cholesky(regularized)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "regularized covariance is not positive-definite; increase ridge"
            ) from None

    def _ridge_scale(self) -> float:
        trace = float(np.trace(self.covariance))
        if trace > 0:
            return self.ridge * trace / self.d
        return ZERO_TRACE_RIDGE_FLOOR if self.ridge > 0 else 0.0

    @property
    def c(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def __repr__(self) -> str:
        return f"GaussianClassModel(c={self.c}, d={self.d}, ridge={self.ridge})"


def fit_mahalanobis(fit_table: FeatureTable, ridge: float = 1e-6) -> GaussianClassModel:
    """Fit per-class means and the pooled within-class covariance.

    Every class in ``[0, c)`` must appear in the fit labels (c comes from the
    table's logit count when present, otherwise from the largest label). The
    covariance divisor is the total sample count N.
    """
    if not fit_table.is_labeled:
        raise ValidationError("mahalanobis fit requires a fully labeled table")
    if ridge < 0:
        raise ValidationError(f"ridge must be >= 0, got {ridge}")
    feats = fit_table.features.astype(np.float64)
    labels = fit_table.labels
    n, d = feats.shape
    c = fit_table.c if fit_table.c else int(labels.max()) + 1
    if n <= d:
        warnings.warn(
            f"fitting a {d}-dimensional covariance from only {n} samples; "
            "estimates may be unstable"
        )

    counts = np.bincount(labels, minlength=c)
    if (counts == 0).any():
        raise ValidationError(f"class {int(np.argmin(counts))} has no samples in the fit table")
    means = np.zeros((c, d))
    np.add.at(means, labels, feats)
    means /= counts[:, None]
    feats -= means[labels]  # within-class residuals, in the float64 copy
    covariance = (feats.T @ feats) / n
    covariance = (covariance + covariance.T) / 2.0
    return GaussianClassModel(means, covariance, counts, ridge)


@np.errstate(over="ignore", invalid="ignore")  # an overflow only widens the set
def _candidates(block, means, factor, whiten):
    """Row and class indices of each row's candidate nearest classes.

    The estimate is the expanded distance ``|z|^2 + |m_k|^2 - 2 z.m_k`` in
    whitened coordinates (``z = W x``, ``m_k = W mu_k``, ``W`` the inverse of
    the factor ``L``). A class is kept while its estimate lies within a
    rounding slack, ``8 d eps |L|_F |W|_F (|z| + |m_k|)^2``, of the row's
    least. A row whose estimate is not finite keeps every class.
    """
    z = block @ whiten.T
    white_means = means @ whiten.T
    z_sq = np.sum(z * z, axis=1)
    mean_sq = np.sum(white_means * white_means, axis=1)
    approx = z_sq[:, None] + mean_sq - 2.0 * (z @ white_means.T)
    scale = 8 * block.shape[1] * np.finfo(np.float64).eps
    scale *= np.linalg.norm(factor) * np.linalg.norm(whiten)
    slack = scale * (np.sqrt(z_sq)[:, None] + np.sqrt(mean_sq)) ** 2
    far = approx - slack > np.min(approx + slack, axis=1, keepdims=True)  # NaN: not far
    return np.nonzero(~far)


def score_mahalanobis(model: GaussianClassModel, features: np.ndarray) -> ScoreSet:
    """Negative squared Mahalanobis distance to the closest class mean.

    Rows go in blocks of :data:`SCORE_CHUNK_ROWS`. One GEMM per block in
    whitened coordinates picks each row's candidate classes
    (:func:`_candidates`); each candidate's distance is then the sum of
    squares of the triangular solve of ``x - mu_k`` against the precision
    factor, and the row keeps the least of these. The scores are those of one
    solve per class over all rows, bit for bit.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != model.d:
        raise ValidationError(
            f"features shape {feats.shape} does not match model d={model.d}"
        )
    if not np.isfinite(feats).all():
        raise ValidationError("features contain non-finite values")
    from scipy.linalg import solve_triangular  # scipy loads only for mah scoring

    factor, means = model.precision_factor, model.means
    whiten = solve_triangular(factor, np.eye(model.d), lower=True)
    # A one-column triangular solve rounds differently from a wider one, so,
    # as when every row is solved at once, a one-row input is refined one
    # column at a time and a wider input never is.
    width = min(feats.shape[0], 2)
    step = SCORE_CHUNK_ROWS if width == 2 else 1
    best = np.full(feats.shape[0], np.inf)
    for start in range(0, feats.shape[0], SCORE_CHUNK_ROWS):
        block = feats[start : start + SCORE_CHUNK_ROWS]
        rows, classes = _candidates(block, means, factor, whiten)
        for lo in range(0, rows.size, step):
            r, k = rows[lo : lo + step], classes[lo : lo + step]
            if r.size < width:  # a lone column is solved beside its twin
                r, k = np.repeat(r, 2), np.repeat(k, 2)
            z = solve_triangular(factor, (block[r] - means[k]).T, lower=True)
            np.minimum.at(best, start + r, np.sum(z * z, axis=0))
    return ScoreSet(Method.MAH, -best)


def score_table(
    config: DetectorConfig,
    table: FeatureTable,
    model: GaussianClassModel | None = None,
) -> ScoreSet:
    """Score a table with the configured detector."""
    if config.method is Method.MAH:
        if model is None:
            raise ValidationError("mahalanobis scoring needs a fitted model")
        return score_mahalanobis(model, table.features)
    if table.c < 2:
        raise ValidationError(f"{config.method.value} scoring needs logits (c >= 2)")
    if config.method is Method.MSP:
        return score_msp(table.logits)
    return score_energy(table.logits, config.temperature)


# ---------------------------------------------------------------------------
# model serialization


def save_model(model: GaussianClassModel, path: str | Path) -> None:
    """Write the ``OODM`` container (means/covariance stored as binary32)."""
    header = _MODEL_HEADER.pack(_MODEL_MAGIC, _MODEL_VERSION, model.c, model.d, model.ridge)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(model.means.astype("<f4").tobytes())
        fh.write(model.covariance.astype("<f4").tobytes())
        fh.write(model.per_class_counts.astype("<u8").tobytes())


def load_model(path: str | Path) -> GaussianClassModel:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _MODEL_HEADER.size:
        raise IngestionError(f"{path}: truncated header")
    magic, version, c, d, ridge = _MODEL_HEADER.unpack_from(raw)
    if magic != _MODEL_MAGIC:
        raise IngestionError(f"{path}: bad magic {magic!r}")
    if version != _MODEL_VERSION:
        raise IngestionError(f"{path}: unsupported version {version}")
    expected = _MODEL_HEADER.size + 4 * (c * d + d * d) + 8 * c
    if len(raw) != expected:
        raise IngestionError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    off = _MODEL_HEADER.size
    means = np.frombuffer(raw, dtype="<f4", count=c * d, offset=off).reshape(c, d)
    off += 4 * c * d
    cov = np.frombuffer(raw, dtype="<f4", count=d * d, offset=off).reshape(d, d)
    off += 4 * d * d
    counts = np.frombuffer(raw, dtype="<u8", count=c, offset=off)
    cov64 = cov.astype(np.float64)
    cov64 = (cov64 + cov64.T) / 2.0  # binary32 quantization can break symmetry
    with _ingesting(path):
        return GaussianClassModel(means, cov64, counts, ridge)
