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
row block of about :data:`oodgate.data.BLOCK_BYTES` at a time, and every
BLAS or LAPACK call on one OpenBLAS thread, so the bits do not depend on
``OPENBLAS_NUM_THREADS``. ``mah``'s triangular solve, LAPACK's ``dtrtrs``, is
called through ctypes from numpy's own OpenBLAS (from scipy where it has none).
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import struct
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (UNLABELED, FeatureTable, _Record, _VERSION, _add_rows, _block_rows,
                   _check_finite, _ingesting, _output, _read_csv, _read_packed, _row_blocks,
                   _walk, _write_csv)
from .errors import NumericalError, ValidationError

#: Absolute diagonal loading used when the scatter has zero trace.
ZERO_TRACE_RIDGE_FLOOR = 1e-6

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
        _check_finite(scores, "scores")
        self._set(method=method, scores=scores)

    def __len__(self) -> int:
        return self.scores.size


def write_scores(scores: ScoreSet, path: str | Path) -> None:
    """Export as ``index,score`` CSV with 17 significant digits."""
    _write_csv(path, ["index", "score"],
               map("{},{:.17g}\r\n".format, range(len(scores)), scores.scores.tolist()))


def _score_columns(header: list[str]) -> tuple[int]:
    if header != ["index", "score"]:
        raise ValidationError(f"expected 'index,score' header, got {header}")
    return (1,)


def read_scores(path: str | Path, method: Method | None = None) -> ScoreSet:
    with _ingesting(path):
        blocks = _read_csv(path, _score_columns)
        scores = np.empty((next(blocks)[0], 1))
        _walk(blocks, [scores, None])
        return ScoreSet(method, scores[:, 0])


def _floats(values) -> np.ndarray:
    """``values`` as is when its dtype widens to float64 exactly (float16, 32
    or 64); anything else is converted to float64 once."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and arr.dtype.itemsize <= 8:
        return arr
    return arr.astype(np.float64)


# ---------------------------------------------------------------------------
# logit-based detectors


def _logit_rows(logits) -> np.ndarray:
    arr = _floats(logits)
    if arr.ndim != 2:
        raise ValidationError(f"logits must be 2-D (rows of logits), got {arr.shape}")
    if arr.shape[1] < 1:
        raise ValidationError(f"logits need at least 1 column, got shape {arr.shape}")
    return arr


def _max_and_expsum(x: np.ndarray):
    """The row max of the 2-D ``x`` and the row sum of ``exp(x - max)`` (at
    least 1); ``x - max``, then its ``exp``, is written over ``x``."""
    m = np.max(x, axis=1, keepdims=True)
    np.subtract(x, m, out=x)
    np.exp(x, out=x)
    return m[:, 0], np.sum(x, axis=1)


# Logit scorers run quietly: a score that overflows or turns NaN (say, under a
# subnormal temperature) fails ScoreSet's finite check with one error instead.


@np.errstate(over="ignore", invalid="ignore")
def score_msp(logits: np.ndarray) -> ScoreSet:
    """Max softmax probability ``1 / sum(exp(x - max))`` per row; needs c >= 2."""
    arr = _logit_rows(logits)
    if arr.shape[1] < 2:
        raise ValidationError(f"msp needs c >= 2 logit columns, got {arr.shape[1]}")
    scores = np.empty(arr.shape[0])
    for start, block in _row_blocks(arr, "logits", arr.shape[1]):
        scores[start : start + len(block)] = 1.0 / _max_and_expsum(block)[1]
        del block  # not held while the next block is widened
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
        block /= temperature
        m, total = _max_and_expsum(block)
        scores[start : start + len(block)] = temperature * (m + np.log(total))
        del block  # not held while the next block is widened
    return ScoreSet(Method.EBM, scores)


# ---------------------------------------------------------------------------
# Mahalanobis detector


@functools.cache
def _numpy_blas() -> ctypes.CDLL:
    """numpy's linalg extension, opened once. Its symbol lookup also searches
    the BLAS and LAPACK library it links: in numpy's wheels an OpenBLAS with
    64-bit integers, whose names carry a ``scipy_`` prefix and a ``64_`` suffix."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's OpenBLAS, or None where
    numpy links another BLAS."""
    lib = _numpy_blas()
    for name in (f"{p}openblas_%s_num_threads{s}" for p in ("scipy_", "") for s in ("64_", "")):
        if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
            get, put = getattr(lib, name % "get"), getattr(lib, name % "set")
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _OneBlasThread:
    """While any caller is inside, numpy's OpenBLAS, the one library whose BLAS
    and LAPACK oodgate calls, runs one thread; when the last one leaves, it gets
    back the count it had. Where numpy links another BLAS, this does nothing.

    The thread count is a process-wide setting of the library, so the entries
    of all threads are counted under one lock. On the 2-core host measured,
    the second BLAS thread of a Mahalanobis fit or score mostly spins, and the
    Cholesky factor's bits at d >= 128 depend on the count; on one thread
    they do not. In a CLI process, whose OpenBLAS starts at one thread (see
    :mod:`oodgate.cli`), each entry finds one thread already.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None  # while inside: puts back the count the library had

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth and (pool := _openblas_threads()) is not None:
                get, put = pool
                self._restore = functools.partial(put, get())
                put(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._restore is not None:
                self._restore()
                self._restore = None


#: Wraps each of oodgate's own BLAS and LAPACK calls.
_one_blas_thread = _OneBlasThread()


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
        _check_finite(means, "means")
        _check_finite(covariance, "covariance")
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
            with _one_blas_thread:
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
        minus_2p = -2.0 * _solve_lower(factor, _solve_lower(factor, self.means.T), transposed=True)
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
    return _fit(fit_table.features, fit_table.labels, fit_table.c, ridge)


def _fit(features: np.ndarray, labels: np.ndarray, c: int, ridge: float) -> GaussianClassModel:
    """:func:`fit_mahalanobis` over checked ``features``, ``labels`` and logit
    count ``c`` (0: none), as a :class:`FeatureTable` holds them. Float32
    features are widened into one float64 copy; float64 ones are that copy,
    and the fit writes its residuals over them. Every value is known finite,
    so the blocks are plain row slices."""
    if (labels == UNLABELED).any():
        raise ValidationError("mahalanobis fit requires a fully labeled table")
    if not 0 <= ridge < math.inf:
        raise ValidationError(f"ridge must be finite and >= 0, got {ridge}")
    n, d = features.shape
    c = c or int(labels.max()) + 1
    counts = np.bincount(labels, minlength=c)
    if (counts == 0).any():
        raise ValidationError(f"class {int(np.argmin(counts))} has no samples in the fit table")
    if n <= d:
        warnings.warn(f"fitting a {d}-dimensional covariance from only {n} samples; "
                      "estimates may be unstable")
    feats = features.astype(np.float64, copy=False)
    means = np.zeros((c, d))
    # _add_rows builds two d-wide float64 rows and two intp indices per row
    rows = _block_rows(2 * d + 2)
    for start in range(0, n, rows):
        block = feats[start : start + rows]
        _add_rows(means, labels[start : start + rows], block, np.arange(len(block)))
    means /= counts[:, None]
    rows = _block_rows(d)
    for start in range(0, n, rows):  # within-class residuals, a block at a time
        feats[start : start + rows] -= means[labels[start : start + rows]]
    with _one_blas_thread:
        covariance = feats.T @ feats  # numpy's SYRK: exactly symmetric
    covariance /= n
    if ridge > 0 and not np.trace(covariance) > 0:
        warnings.warn(f"no within-class scatter; regularizing with {ZERO_TRACE_RIDGE_FLOOR:g} * I")
    return GaussianClassModel(means, covariance, counts, ridge)


@functools.cache
def _trtrs():
    """numpy's LAPACK ``dtrtrs`` and the ctypes integer its arguments take (64-bit
    where its name says so), or None where numpy exports none, as MKL or
    Accelerate builds may not."""
    lib = _numpy_blas()
    names = [f"{p}dtrtrs{s}" for p in ("scipy_", "") for s in ("_64_", "64_", "_")]
    name = next((n for n in names if hasattr(lib, n)), None)
    if name is None:
        return None
    trtrs, index = getattr(lib, name), ctypes.c_int64 if "64" in name else ctypes.c_int
    i, ptr = ctypes.POINTER(index), ctypes.c_void_p
    # uplo, trans, diag, n, nrhs, a, lda, b, ldb, info, then the three strings' lengths
    trtrs.argtypes = [*[ctypes.c_char_p] * 3, i, i, ptr, i, ptr, i, i, *[ctypes.c_size_t] * 3]
    trtrs.restype = None
    return trtrs, index


def _solve_lower(factor, b, transposed=False, overwrite_b=False):
    """``factor^-1 b``, or ``factor^-T b`` if ``transposed``, for a C-ordered lower
    triangular d x d ``factor`` and a d x k ``b``: LAPACK's ``dtrtrs`` on the transposed
    (Fortran-ordered, upper) factor, the call ``scipy.linalg.solve_triangular`` makes. A
    Fortran-ordered float64 ``b`` is solved in place when ``overwrite_b``. No input is
    checked finite. As there, a zero on the diagonal raises LinAlgError."""
    found = _trtrs()
    if found is None:
        try:
            from scipy.linalg.lapack import dtrtrs
        except ImportError:
            raise NumericalError("mah needs LAPACK's dtrtrs: numpy's BLAS exports none "
                                 "and scipy is not installed") from None
        x, info = dtrtrs(factor.T, b, lower=0, trans=int(not transposed), overwrite_b=overwrite_b)
    else:
        trtrs, index = found
        a = np.ascontiguousarray(factor, dtype=np.float64)
        x = np.require(b, np.float64, "FW") if overwrite_b else np.array(b, np.float64, order="F")
        n, k = x.shape
        if a.shape != (n, n):
            raise ValueError(f"factor shape {a.shape} does not match b's {n} rows")
        info, lead = index(), ctypes.byref(index(max(n, 1)))
        trtrs(b"U", b"N" if transposed else b"T", b"N", ctypes.byref(index(n)),
              ctypes.byref(index(k)), a.ctypes.data, lead, x.ctypes.data, lead,
              ctypes.byref(info), 1, 1, 1)
        info = info.value
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
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

    Rows go in blocks of :data:`~oodgate.data.BLOCK_BYTES` over ``max(c, d)`` values a row;
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
    with _one_blas_thread:
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
    with _output(path, "wb") as fh:
        fh.writelines([header, model.means.astype("<f4"), model.covariance.astype("<f4"),
                       model.per_class_counts.astype("<u8")])


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
