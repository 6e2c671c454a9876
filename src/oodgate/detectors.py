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
All arithmetic runs in float64 regardless of table storage precision, one
row block of about :data:`BLOCK_BYTES` at a time.
"""

from __future__ import annotations

import enum
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (FeatureTable, _VERSION, _ingesting, _read_csv, _read_packed,
                   _write_csv, _write_packed)
from .errors import NumericalError, ValidationError

#: Absolute diagonal loading used when the scatter has zero trace.
ZERO_TRACE_RIDGE_FLOOR = 1e-6

#: Bytes of one float64 row block in all three scorers, the fit's residual
#: pass and the synthetic worlds' logits: a block has ``max(2, BLOCK_BYTES //
#: (8 * width))`` rows, ``width`` being the widest float64 row its caller builds
#: (c for msp and ebm, d for the fit, ``max(c, d)`` for mah scoring and world
#: logits). Only one block at a time is widened to float64, so each holds its
#: input plus that block and one or two float64 working arrays of about this
#: size, at any width. Every row's reductions run over that row alone, so no
#: score, fitted value or logit depends on the block size. The paper's
#: (c, d) = (142, 128) gets 4096-row blocks, d = 512 gets 1136.
BLOCK_BYTES = 4096 * 142 * 8

_MODEL_MAGIC = b"OODM"
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
        if not 0 < self.temperature < math.inf:
            raise ValidationError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 <= self.ridge < math.inf:
            raise ValidationError(f"ridge must be finite and >= 0, got {self.ridge}")


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
    rows = map(np.ndarray.tolist, scores.scores[:, None])
    _write_csv(path, ["index", "score"], range(len(scores)), rows, "{:.17g}".format)


def _score_columns(header: list[str]) -> tuple[int]:
    if header != ["index", "score"]:
        raise ValidationError(f"expected 'index,score' header, got {header}")
    return (1,)


def read_scores(path: str | Path, method: Method | None = None) -> ScoreSet:
    with _ingesting(path):
        _, scores = _read_csv(path, _score_columns)
        return ScoreSet(method, scores[:, 0])


# ---------------------------------------------------------------------------
# row blocks


def _floats(values) -> np.ndarray:
    """``values`` as is when its dtype widens to float64 exactly (float16, 32
    or 64); anything else is converted to float64 once."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and arr.dtype.itemsize <= 8:
        return arr
    return arr.astype(np.float64)


def _block_rows(width: int) -> int:
    """Rows per block when the widest float64 row a block builds has
    ``width`` values (taken as at least 1): as many as fit in
    :data:`BLOCK_BYTES`, and at least 2."""
    return max(2, BLOCK_BYTES // (8 * max(width, 1)))


def _row_blocks(arr: np.ndarray, what: str, width: int):
    """Yield ``(start, block)``: the rows of the 2-D array ``arr`` from
    ``start`` in blocks of ``_block_rows(width)`` rows, as float64, where
    ``width`` is the widest float64 row the caller builds per block row. A
    lone last row joins the block before it: a one-row matrix product is a
    GEMV, which rounds differently from the GEMM of its neighbours.

    Each block is checked finite in its own dtype before it is widened, which
    is exact for the dtypes :func:`_floats` keeps. A block of a float64 array
    is a view of it.
    """
    n, start, size = arr.shape[0], 0, _block_rows(width)
    while start < n:
        stop = n if n - start <= size + 1 else start + size
        rows = arr[start:stop]
        if not np.isfinite(rows).all():
            raise ValidationError(f"{what} contain non-finite values")
        yield start, rows.astype(np.float64, copy=False)
        start = stop


# ---------------------------------------------------------------------------
# logit-based detectors


def _logit_rows(logits) -> np.ndarray:
    arr = _floats(logits)
    if arr.ndim != 2:
        raise ValidationError(f"logits must be 2-D (rows of logits), got {arr.shape}")
    return arr


def _max_and_expsum(x: np.ndarray, overwrite: bool = False):
    """The row max of the 2-D ``x`` and the row sum of ``exp(x - max)`` (at
    least 1). ``x - max``, then its ``exp``, is written over ``x`` if
    ``overwrite``, else into the one new array of ``x``'s size."""
    m = np.max(x, axis=1, keepdims=True)
    out = np.subtract(x, m, out=x if overwrite else None)
    np.exp(out, out=out)
    return m[:, 0], np.sum(out, axis=1)


# Logit scorers run quietly: a score that overflows or turns NaN (say, under a
# subnormal temperature) fails ScoreSet's finite check with one error instead.
# Neither writes into a row block: a block of a float64 input is the caller's.


@np.errstate(over="ignore", invalid="ignore")
def score_msp(logits: np.ndarray) -> ScoreSet:
    """Max softmax probability ``1 / sum(exp(x - max))`` per row; needs c >= 2."""
    arr = _logit_rows(logits)
    if arr.shape[1] < 2:
        raise ValidationError(f"msp needs c >= 2 logit columns, got {arr.shape[1]}")
    scores = np.empty(arr.shape[0])
    for start, block in _row_blocks(arr, "logits", arr.shape[1]):
        scores[start : start + len(block)] = 1.0 / _max_and_expsum(block)[1]
    return ScoreSet(Method.MSP, scores)


@np.errstate(over="ignore", invalid="ignore")
def score_energy(logits: np.ndarray, temperature: float = 1.0) -> ScoreSet:
    """Negated free energy ``T * logsumexp(logits / T)`` per row, the
    log-sum-exp taken as ``max + log(sum(exp(x - max)))``."""
    if not 0 < temperature < math.inf:
        raise ValidationError(f"temperature must be finite and > 0, got {temperature}")
    arr = _logit_rows(logits)
    scores = np.empty(arr.shape[0])
    for start, block in _row_blocks(arr, "logits", arr.shape[1]):
        m, total = _max_and_expsum(block / temperature, overwrite=True)
        scores[start : start + len(block)] = temperature * (m + np.log(total))
    return ScoreSet(Method.EBM, scores)


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
        if means.ndim != 2 or means.size == 0:
            raise ValidationError(f"means must be c x d with c, d >= 1, got shape {means.shape}")
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
        if not 0 <= ridge < math.inf:
            raise ValidationError(f"ridge must be finite and >= 0, got {ridge}")
        if not np.isfinite(means).all():
            raise ValidationError("means contain non-finite values")
        if not np.isfinite(covariance).all():
            raise ValidationError("covariance contains non-finite values")
        if np.abs(covariance - covariance.T).max() > 1e-9:
            raise ValidationError("covariance is not symmetric within 1e-9")

        self.means = means
        self.covariance = covariance
        self.per_class_counts = counts
        self.ridge = float(ridge)
        scale = self._ridge_scale()
        if not math.isfinite(scale):
            raise NumericalError(f"ridge * trace / d overflows to {scale}; decrease ridge")
        regularized = covariance + scale * np.eye(d)
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
    if not 0 <= ridge < math.inf:
        raise ValidationError(f"ridge must be finite and >= 0, got {ridge}")
    labels = fit_table.labels
    n, d = fit_table.features.shape
    c = fit_table.c if fit_table.c else int(labels.max()) + 1
    counts = np.bincount(labels, minlength=c)
    if (counts == 0).any():
        raise ValidationError(f"class {int(np.argmin(counts))} has no samples in the fit table")
    if n <= d:
        warnings.warn(
            f"fitting a {d}-dimensional covariance from only {n} samples; "
            "estimates may be unstable"
        )
    feats = fit_table.features.astype(np.float64)
    means = np.zeros((c, d))
    np.add.at(means, labels, feats)
    means /= counts[:, None]
    for start, block in _row_blocks(feats, "features", d):  # views of the float64 copy
        block -= means[labels[start : start + len(block)]]  # within-class residuals
    covariance = (feats.T @ feats) / n  # numpy's SYRK: exactly symmetric
    return GaussianClassModel(means, covariance, counts, ridge)


@np.errstate(over="ignore", invalid="ignore")  # an overflow only widens the set
def _candidates(block, whiten, white_means2, mean_sq, mean_norm, scale):
    """Row and class indices of each row's candidate nearest classes.

    In whitened coordinates (``z = W x``, ``m_k = W mu_k``, ``W`` the inverse
    of the factor ``L``) the squared distance to class k is ``|z|^2 + e_k``,
    ``e_k = |m_k|^2 - 2 z.m_k``. The row constant ``|z|^2`` does not change
    which class is nearest, so only the estimates ``est_k`` of ``e_k`` are
    formed, as one block x c array. Each ``est_k`` lies within the rounding
    slack ``s_k = scale (|z| + |m_k|)^2`` of ``e_k``, and every ``s_k`` is at
    most the row's bound ``B = scale (|z| + max_j |m_j|)^2``. So the nearest
    class k* has ``est_k* <= e_k* + B <= e_j + B <= est_j + 2B`` for every j,
    and a class is kept unless ``est_k > min_j est_j + 2B``. For the same
    estimates this keeps every class that the per-class test, far when
    ``est_k - s_k > min_j (est_j + s_j)``, keeps: ``min_j (est_j + s_j) + s_k
    <= min_j est_j + 2B``. A row whose bound or least estimate is not finite
    keeps every class, and a NaN estimate is kept.

    The per-model constants, ``-2 m_k`` (``white_means2``), ``|m_k|^2``
    (``mean_sq``), ``max_j |m_j|`` (``mean_norm``) and ``scale = 8 d eps
    |L|_F |W|_F``, are computed once per call by :func:`score_mahalanobis`.
    """
    z = block @ whiten.T
    est = z @ white_means2.T
    est += mean_sq
    bound = scale * (np.sqrt(np.einsum("ij,ij->i", z, z)) + mean_norm) ** 2
    limit = np.min(est, axis=1) + 2.0 * bound
    limit[~np.isfinite(limit)] = np.inf
    far = np.greater(est, limit[:, None])
    return np.nonzero(np.logical_not(far, out=far))  # NaN: not far


def score_mahalanobis(model: GaussianClassModel, features: np.ndarray) -> ScoreSet:
    """Negative squared Mahalanobis distance to the closest class mean.

    Rows go in blocks of :data:`BLOCK_BYTES` over ``max(c, d)`` values a row
    (the whitened rows are d wide, the estimates c). One GEMM per block in
    whitened coordinates picks each row's candidate classes
    (:func:`_candidates`); each candidate's distance is then the sum of
    squares of the triangular solve of ``x - mu_k`` against the precision
    factor, and the row keeps the least of these. The scores are those of one
    solve per class over all rows, bit for bit.

    Beyond its input, a block holds its float64 widening, the whitened rows
    and one block x c array of estimates; a refinement chunk holds its
    gathered rows, their means and the squared solve, all written in place.
    A difference ``x - mu_k`` that overflows float64 raises NumericalError.
    """
    feats = _floats(features)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != model.d:
        raise ValidationError(
            f"features shape {feats.shape} does not match model d={model.d}"
        )
    from scipy.linalg import solve_triangular  # scipy loads only for mah scoring

    factor, means = model.precision_factor, model.means
    whiten = solve_triangular(factor, np.eye(model.d), lower=True)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _candidates
        white_means2 = means @ whiten.T
        mean_sq = np.sum(white_means2 * white_means2, axis=1)
        mean_norm = np.sqrt(np.max(mean_sq))
        white_means2 *= -2.0  # exact: folds the 2 of -2 z.m_k in once
        scale = 8 * model.d * np.finfo(np.float64).eps
        scale *= np.linalg.norm(factor) * np.linalg.norm(whiten)
    best = np.full(feats.shape[0], np.inf)
    width = max(model.c, model.d)
    chunk = _block_rows(width)
    for start, block in _row_blocks(feats, "features", width):
        rows, classes = _candidates(block, whiten, white_means2, mean_sq, mean_norm, scale)
        # A one-column triangular solve rounds differently from a wider one, so,
        # as when every row is solved at once, a one-row input is refined one
        # column at a time and a wider input never is: each of its blocks has
        # two or more rows, so k >= 2 candidates, split evenly into chunks of at
        # most a block's rows (so a chunk's gathered rows fit in BLOCK_BYTES)
        # and at least 2: only 2-row blocks get 3-row chunks that way.
        if feats.shape[0] == 1:
            chunks = rows.size
        else:
            chunks = min(-(-rows.size // chunk), rows.size // 2)
        for r, k in zip(np.array_split(rows, chunks), np.array_split(classes, chunks)):
            diff = block[r]
            with np.errstate(over="ignore"):
                diff -= means[k]
            if not np.isfinite(diff).all():
                raise NumericalError("a feature row minus a class mean overflows float64")
            # diff.T is Fortran-ordered, so the solve writes over it
            z = solve_triangular(factor, diff.T, lower=True, overwrite_b=True,
                                 check_finite=False)
            z *= z
            np.minimum.at(best, start + r, np.sum(z, axis=0))
    return ScoreSet(Method.MAH, np.negative(best, out=best))


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
    header = _MODEL_HEADER.pack(_MODEL_MAGIC, _VERSION, model.c, model.d, model.ridge)
    arrays = (model.means.astype("<f4"), model.covariance.astype("<f4"),
              model.per_class_counts.astype("<u8"))
    _write_packed(path, header, arrays)


def _model_layout(c: int, d: int, ridge: float) -> list:
    return [("<f4", (c, d)), ("<f4", (d, d)), ("<u8", (c,))]


def load_model(path: str | Path) -> GaussianClassModel:
    path = Path(path)
    with _ingesting(path), np.errstate(invalid="ignore"):  # inf + -inf: NaN, rejected
        (_, _, ridge), (means, cov, counts) = _read_packed(
            path, _MODEL_MAGIC, _MODEL_HEADER, _model_layout
        )
        wraps = counts > np.iinfo(np.int64).max  # the int64 cast would wrap it negative
        if wraps.any():
            bad = int(np.argmax(wraps))
            raise ValidationError(f"per-class count out of range for class {bad}")
        cov64 = cov.astype(np.float64)
        cov64 = (cov64 + cov64.T) / 2.0  # for foreign files: binary32 keeps ours symmetric
        return GaussianClassModel(means, cov64, counts, ridge)
