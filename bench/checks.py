"""Independent references for the benchmark's output checks.

Nothing here calls oodgate's scoring or metric code: the Mahalanobis
reference is a dense LU solve, the logit scores use their closed forms, and
AUROC is the Mann-Whitney rank sum. Tolerances follow the acceptance suite.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

#: Relative bound on a Mahalanobis score against the dense solve.
MAH_RTOL = 1e-8
#: Bound on msp/ebm against their closed forms (relative above 1).
CLOSED_FORM_TOL = 1e-12
#: Absolute bound on a report's AUROC against the rank-sum AUROC.
AUROC_TOL = 1e-12
#: Number of rows of a Mahalanobis score file checked against the solve.
MAH_SAMPLE = 32

_OODM_HEADER = struct.Struct("<4sIQQd")  # magic, version, c, d, ridge
_ZERO_TRACE_FLOOR = 1e-6


def sample_rows(n: int, k: int = MAH_SAMPLE) -> np.ndarray:
    """A fixed, evenly spread set of row indices, first and last included."""
    return np.unique(np.linspace(0, n - 1, min(k, n)).round().astype(np.int64))


def read_oodm(path: str | Path) -> tuple[np.ndarray, np.ndarray, float]:
    """Means, covariance and ridge of an ``OODM`` model file, parsed directly."""
    raw = Path(path).read_bytes()
    magic, _version, c, d, ridge = _OODM_HEADER.unpack_from(raw)
    if magic != b"OODM":
        raise ValueError(f"{path}: bad magic {magic!r}")
    off = _OODM_HEADER.size
    means = np.frombuffer(raw, "<f4", c * d, off).reshape(c, d).astype(np.float64)
    cov = np.frombuffer(raw, "<f4", d * d, off + 4 * c * d).reshape(d, d).astype(np.float64)
    return means, (cov + cov.T) / 2.0, float(ridge)


def regularized(cov: np.ndarray, ridge: float) -> np.ndarray:
    """Covariance plus the ridge, scaled by trace/d as the detector documents."""
    d = cov.shape[0]
    trace = float(np.trace(cov))
    scale = ridge * trace / d if trace > 0 else (_ZERO_TRACE_FLOOR if ridge > 0 else 0.0)
    return cov + scale * np.eye(d)


def mahalanobis_dense(means: np.ndarray, reg_cov: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Negative squared distance to the nearest mean, by one dense solve."""
    rows = np.asarray(rows, dtype=np.float64)
    k, (c, d) = rows.shape[0], means.shape
    diffs = (rows[:, None, :] - means[None, :, :]).reshape(k * c, d)
    sol = np.linalg.solve(reg_cov, diffs.T)
    dist = np.einsum("ij,ji->i", diffs, sol).reshape(k, c)
    return -dist.min(axis=1)


def msp_closed_form(logits: np.ndarray) -> np.ndarray:
    """1 / sum(exp(l - max l)): the largest softmax probability."""
    x = np.asarray(logits, dtype=np.float64)
    return 1.0 / np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)


def energy_closed_form(logits: np.ndarray) -> np.ndarray:
    """logsumexp of the logits (temperature 1)."""
    x = np.asarray(logits, dtype=np.float64)
    m = x.max(axis=1)
    return m + np.log(np.exp(x - m[:, None]).sum(axis=1))


def ranksum_auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Mann-Whitney AUROC with average ranks for ties (ID is the positive class)."""
    n_id, n_ood = id_scores.size, ood_scores.size
    values = np.concatenate([id_scores, ood_scores])
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return float((ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))


def read_score_csv(path: str | Path) -> np.ndarray:
    """Scores of an ``index,score`` file; indices must run 0..n-1."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "index,score":
        raise ValueError(f"{path}: bad header")
    pairs = [line.split(",") for line in lines[1:] if line]
    if [int(i) for i, _ in pairs] != list(range(len(pairs))):
        raise ValueError(f"{path}: indices are not 0..n-1")
    return np.array([float(s) for _, s in pairs])


def max_error(got: np.ndarray, want: np.ndarray, relative_above: float = 1.0) -> float:
    """Largest |got - want| / max(relative_above, |want|)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want) / np.maximum(relative_above, np.abs(want))))
