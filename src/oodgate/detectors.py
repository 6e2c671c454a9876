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
import functools
import importlib.util
import math
import struct
import warnings
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .data import (FeatureTable, _Record, _VERSION, _ingesting, _read_csv, _read_packed,
                   _write_csv, _write_packed)
from .errors import NumericalError, ValidationError

#: Absolute diagonal loading used when the scatter has zero trace.
ZERO_TRACE_RIDGE_FLOOR = 1e-6

#: Bytes of one float64 row block in all three scorers, the fit's two passes
#: and the synthetic worlds' logits: a block has ``max(2, BLOCK_BYTES //
#: (8 * width))`` rows, ``width`` being the widest float64 row its caller builds
#: (c for msp and ebm, 2d + 2 for the fit's class sums (a gather, its copy and
#: two indices), d for its residuals, ``max(c, d)`` for mah scoring and world
#: logits). Only one block at a time is widened to float64, so each holds its
#: input plus that block and one or two float64 working arrays of about this
#: size, at any width. Every row's reductions run over that row alone, and
#: class sums carry from block to block in row order, so no score, fitted
#: value or logit depends on the block size. The paper's (c, d) = (142, 128)
#: gets 4096-row blocks, d = 512 gets 1136.
BLOCK_BYTES = 4096 * 142 * 8

_MODEL_MAGIC = b"OODM"
_MODEL_HEADER = struct.Struct("<4sIQQd")  # magic, version, c, d, ridge


class Method(str, enum.Enum):
    MSP = "msp"
    EBM = "ebm"
    MAH = "mah"


def _method(value) -> Method:
    try:
        return Method(value)
    except ValueError:
        raise ValidationError(f"unknown detector method {value!r}") from None


@dataclass(frozen=True)
class DetectorConfig:
    method: Method  # or its value, stored as the Method
    temperature: float = 1.0  # ebm only
    ridge: float = 1e-6  # mah covariance regularizer, relative to trace/d

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", _method(self.method))
        if not 0 < self.temperature < math.inf:
            raise ValidationError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 <= self.ridge < math.inf:
            raise ValidationError(f"ridge must be finite and >= 0, got {self.ridge}")


@dataclass(frozen=True, eq=False)
class ScoreSet(_Record):
    """Per-sample detector scores, higher = more in-distribution."""

    method: Method | None  # or its value, stored as the Method
    scores: np.ndarray

    def __post_init__(self) -> None:
        method = None if self.method is None else _method(self.method)
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise ValidationError(f"scores must be a nonempty vector, got {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValidationError("scores contain non-finite values")
        self._set(method=method, scores=scores)

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


def _add_rows(
    sums: np.ndarray, labels: np.ndarray, block: np.ndarray, rows: np.ndarray
) -> None:
    """Add ``block[rows[i]]``, widened to float64, to ``sums[labels[i]]``
    for each i.

    Called on each row block in turn with ``sums`` starting at +0.0, this
    leaves each label's sum with the bits ``mean(axis=0)`` sums its rows to:
    one ``np.add.reduce`` over the label's carried sum and its rows in row
    order, which like ``mean`` starts from the identity +0.0 (a label with
    one row in the block adds it). ``np.add.reduceat`` sums a segment in
    another order and moves the last bits.
    """
    if not labels.size:
        return
    order = np.argsort(labels, kind="stable")  # each label's rows stay in order
    ordered = labels[order]
    x = np.empty((ordered.size + 1, block.shape[1]))
    x[1:] = block[rows[order]]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    ends = np.append(starts[1:], ordered.size)
    lone = ends - starts == 1
    sums[ordered[starts[lone]]] += x[starts[lone] + 1]  # distinct labels
    for lo, hi in zip(starts[~lone].tolist(), ends[~lone].tolist()):
        k = ordered[lo]
        x[lo] = sums[k]  # the row before a label's rows is already summed
        sums[k] = np.add.reduce(x[lo : hi + 1], axis=0)


# ---------------------------------------------------------------------------
# logit-based detectors


def _logit_rows(logits) -> np.ndarray:
    arr = _floats(logits)
    if arr.ndim != 2:
        raise ValidationError(f"logits must be 2-D (rows of logits), got {arr.shape}")
    if arr.shape[1] < 1:
        raise ValidationError(f"logits need at least 1 column, got shape {arr.shape}")
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


@dataclass(frozen=True, eq=False, repr=False)
class GaussianClassModel(_Record):
    """Per-class means with one shared, ridge-regularized covariance.

    The stored ``covariance`` is the unregularized pooled within-class
    scatter (divisor: total fit sample count). ``precision_factor`` is the
    lower Cholesky factor of the regularized covariance. Every returned
    distance comes from a triangular solve against it; the first scoring call
    builds, and the model keeps, the d x c matrix that picks each row's
    candidate classes (:attr:`_terms`).
    """

    means: np.ndarray
    covariance: np.ndarray
    per_class_counts: np.ndarray
    ridge: float = 1e-6
    precision_factor: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        covariance = np.ascontiguousarray(self.covariance, dtype=np.float64)
        counts = np.ascontiguousarray(self.per_class_counts, dtype=np.int64)
        if means.ndim != 2 or means.size == 0:
            raise ValidationError(f"means must be c x d with c, d >= 1, got shape {means.shape}")
        c, d = means.shape
        if covariance.shape != (d, d):
            raise ValidationError(f"covariance shape {covariance.shape} does not match d={d}")
        if counts.shape != (c,):
            raise ValidationError("per_class_counts length must equal class count")
        if (counts < 1).any():
            raise ValidationError(f"class {int(np.argmin(counts))} has no fit samples")
        if not 0 <= self.ridge < math.inf:
            raise ValidationError(f"ridge must be finite and >= 0, got {self.ridge}")
        if not np.isfinite(means).all():
            raise ValidationError("means contain non-finite values")
        if not np.isfinite(covariance).all():
            raise ValidationError("covariance contains non-finite values")
        if np.abs(covariance - covariance.T).max() > 1e-9:
            raise ValidationError("covariance is not symmetric within 1e-9")

        ridge = float(self.ridge)
        trace = float(np.trace(covariance))
        if trace > 0:
            scale = ridge * trace / d
        else:
            scale = ZERO_TRACE_RIDGE_FLOOR if ridge > 0 else 0.0
        if not math.isfinite(scale):
            raise NumericalError(f"ridge * trace / d overflows to {scale}; decrease ridge")
        regularized = covariance + scale * np.eye(d)
        try:
            factor = np.linalg.cholesky(regularized)
        except np.linalg.LinAlgError:
            raise NumericalError("regularized covariance is not positive-definite; "
                                 "increase ridge") from None
        self._set(means=means, covariance=covariance, per_class_counts=counts, ridge=ridge,
                  precision_factor=factor)

    @property
    def c(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _terms(self) -> tuple:
        """:func:`_candidates`' -2 P, |m|^2, max_j |m_j|, w and scale; scaling by 2 is exact."""
        factor = self.precision_factor
        minus_2p = -2.0 * _cho_solve(factor, self.means.T)
        mean_sq = np.einsum("kj,jk->k", self.means, minus_2p) / -2.0
        inv_norm = np.linalg.norm(_solve_lower(factor, np.eye(self.d)))
        scale = 8 * self.d * np.finfo(np.float64).eps * np.linalg.norm(factor) * inv_norm
        return (minus_2p, mean_sq, np.sqrt(np.max(mean_sq)), inv_norm,
                scale if scale <= 1 else np.inf)

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
        warnings.warn(f"fitting a {d}-dimensional covariance from only {n} samples; "
                      "estimates may be unstable")
    feats = fit_table.features.astype(np.float64)
    means = np.zeros((c, d))
    # _add_rows builds two d-wide float64 rows and two intp indices per row
    for start, block in _row_blocks(feats, "features", 2 * d + 2):
        _add_rows(means, labels[start : start + len(block)], block, np.arange(len(block)))
    means /= counts[:, None]
    for start, block in _row_blocks(feats, "features", d):  # views of the float64 copy
        block -= means[labels[start : start + len(block)]]  # within-class residuals
    covariance = (feats.T @ feats) / n  # numpy's SYRK: exactly symmetric
    if ridge > 0 and not np.trace(covariance) > 0:
        warnings.warn(f"no within-class scatter; regularizing with {ZERO_TRACE_RIDGE_FLOOR:g} * I")
    return GaussianClassModel(means, covariance, counts, ridge)


def _flapack_file() -> Path:
    """The file of scipy's compiled LAPACK wrappers, found without running
    any of scipy's package code."""
    linalg = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
    return next(p for s in EXTENSION_SUFFIXES if (p := linalg / f"_flapack{s}").is_file())


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers ``dtrtrs`` and ``dpotrs``, loaded once.

    Their module, ``scipy.linalg._flapack``, is loaded straight from its file
    in a few milliseconds; ``import scipy.linalg`` reaches the same wrappers
    only after far longer, most of it spent cloning numpy's namespace.
    Under scipy's own module name, a later ``import scipy.linalg`` reuses it.
    The file is private to scipy, so any failure to load it or to find a
    wrapper in it falls back to the public ``scipy.linalg.lapack``.
    """
    try:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", _flapack_file())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.dtrtrs, module.dpotrs
    except Exception:
        from scipy.linalg import lapack
        return lapack.dtrtrs, lapack.dpotrs


def _solve_lower(factor, b, overwrite_b=False):
    """``factor^-1 b`` for a C-ordered lower triangular ``factor``: the
    ``dtrtrs`` call ``scipy.linalg.solve_triangular`` makes, on the
    transposed (Fortran-ordered, upper) factor. A Fortran-ordered float64
    ``b`` is solved in place when ``overwrite_b``. No input is checked finite.
    As there, a zero on the diagonal raises LinAlgError."""
    dtrtrs, _ = _lapack()
    x, info = dtrtrs(factor.T, b, lower=0, trans=1, overwrite_b=overwrite_b)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _cho_solve(factor, b):
    """``(factor factor^T)^-1 b`` for the lower Cholesky ``factor``: the
    ``dpotrs`` call ``scipy.linalg.cho_solve`` makes. ``b`` is not written."""
    _, dpotrs = _lapack()
    x, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


@np.errstate(over="ignore", invalid="ignore")  # an overflow only widens the set
def _candidates(block, model):
    """Row and class indices of each row's candidate nearest classes.

    With ``W = L^-1`` (``L`` the factor), ``m_k = W mu_k`` and ``P = W^T W
    mu^T``, the squared distance from a row ``x`` to class k is ``|W x|^2 +
    e_k``, ``e_k = |m_k|^2 - 2 x.P_k``; the row constant does not change which
    class is nearest. Estimates ``est_k`` of ``e_k`` take one GEMM against
    ``-2 P``, plus ``|m_k|^2`` as ``mu_k.P_k``.

    Let ``u = eps / 2``, ``g = d u``, ``t = g |L|_F |W|_F >= g >= u`` and ``X
    >= |W x|``. To first order, each triangular solve giving ``P`` has a
    backward error ``|dL| <= g |L|``, so ``|v.(P^_k - P_k)| <= 2 t |W v|
    |m_k|`` for any ``v``, and ``|P^_k| <= |W|_2 |m_k|``. So ``-2 x.P_k``
    moves by at most ``4 t X |m_k|`` and ``mu_k.P_k`` by ``2 t |m_k|^2``; the
    GEMM adds ``2 g |x| |P^_k| <= 2 t X |m_k|`` (as ``|x| <= |L|_2 X``), the
    dot product ``g |mu_k| |P^_k| <= t |m_k|^2`` and the sum ``u (2 X +
    |m_k|) |m_k|``: ``est_k`` is within ``4 t (X + |m_k|)^2`` of ``e_k``. The
    row bound ``B = scale (X + max_j |m_j|)^2``, ``scale = 8 d eps |L|_F w``
    with ``w`` the Frobenius norm of the computed ``W``, is 4 times that if
    ``w = |W|_F``: room for the higher-order terms, ``w`` against ``|W|_F``,
    ``|m_j|`` from the computed ``mu_j.P_j`` and the rounding of ``B`` while
    ``scale <= 1`` (``t <= 1/16``); a larger one keeps every class. ``X`` is
    ``w |x|``, or, where that keeps two classes or more, the least of it and
    the norm of ``x`` solved against ``L`` (within ``1 + t`` of ``|W x|``).
    So the nearest class k* has ``est_k* <= e_k* + B <= e_j + B <= est_j +
    2B``, and a class is kept unless ``est_k > min_j est_j + 2B``. A row whose
    bound or least estimate is not finite keeps every class, and a NaN
    estimate is kept.
    """
    factor = model.precision_factor
    minus_2p, mean_sq, mean_norm, inv_norm, scale = model._terms
    est = block @ minus_2p
    est += mean_sq
    least, far = np.min(est, axis=1), np.empty(est.shape, bool)

    def split(norm):  # far: est_k > min_j est_j + 2B, with X = norm
        limit = least + 2.0 * scale * (norm + mean_norm) ** 2
        limit[~np.isfinite(limit)] = np.inf
        return np.greater(est, limit[:, None], out=far)

    norm = inv_norm * np.sqrt(np.einsum("ij,ij->i", block, block))
    wide = np.flatnonzero(np.count_nonzero(split(norm), axis=1) < est.shape[1] - 1)
    if wide.size:
        z = _solve_lower(factor, block[wide].T, overwrite_b=True)
        norm[wide] = np.minimum(norm[wide], np.sqrt(np.einsum("ij,ij->j", z, z)))
        split(norm)
    return np.nonzero(np.logical_not(far, out=far))  # NaN: not far


def score_mahalanobis(model: GaussianClassModel, features: np.ndarray) -> ScoreSet:
    """Negative squared Mahalanobis distance to the closest class mean.

    Rows go in blocks of :data:`BLOCK_BYTES` over ``max(c, d)`` values a row;
    one GEMM per block against the model's d x c matrix picks their candidate
    classes (:func:`_candidates`). A row's score is the least sum of squares
    of its candidates' triangular solves of ``x - mu_k`` against the factor:
    that of one solve per class over all rows, bit for bit. Beyond its input,
    a block holds its float64 widening and one block x c array of estimates;
    a refinement chunk holds its gathered rows, their means and the squared
    solve, all written in place. An ``x - mu_k`` that overflows float64
    raises NumericalError.
    """
    feats = _floats(features)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != model.d:
        raise ValidationError(f"features shape {feats.shape} does not match model d={model.d}")

    factor, means = model.precision_factor, model.means
    best = np.full(feats.shape[0], np.inf)
    width = max(model.c, model.d)
    chunk = _block_rows(width)
    for start, block in _row_blocks(feats, "features", width):
        rows, classes = _candidates(block, model)
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
            z = _solve_lower(factor, diff.T, overwrite_b=True)
            z *= z
            np.minimum.at(best, start + r, np.sum(z, axis=0))
        del diff, z  # not held while the next block is widened and its candidates picked
    return ScoreSet(Method.MAH, np.negative(best, out=best))


def score_table(config: DetectorConfig, table: FeatureTable,
                model: GaussianClassModel | None = None) -> ScoreSet:
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
        (_, _, ridge), (means, cov, counts) = _read_packed(path, _MODEL_MAGIC, _MODEL_HEADER,
                                                           _model_layout)
        wraps = counts > np.iinfo(np.int64).max  # the int64 cast would wrap it negative
        if wraps.any():
            raise ValidationError(f"per-class count out of range for class {int(np.argmax(wraps))}")
        cov64 = cov.astype(np.float64)
        cov64 = (cov64 + cov64.T) / 2.0  # for foreign files: binary32 keeps ours symmetric
        return GaussianClassModel(means, cov64, counts, ridge)
