"""Seeded Gaussian-mixture worlds with a closed-form classifier.

A world places class means on a sphere, draws isotropic clusters around
them, and exports the usual split protocol (classifier-train / detector-fit
/ test) plus OOD clouds at controlled distances from the ID centroid. The
"classifier" is nearest-center in log-density form: logits are
``-||x - center_k||^2 / (2 sigma^2)`` with centers estimated from the
classifier-train split. Corrupting a fraction of the fit labels (each
corrupted label is redrawn uniformly among the *other* classes, so noise
``1 - 1/c`` is full randomization) degrades those centers and the
detector-fit labels together, which gives a controllable accuracy knob
without training anything.

Randomness is drawn from named PCG64 streams spawned off the world seed
(spawn keys: 1 class-mean directions, 2 ID samples, 3 label noise, 4+i
the i-th OOD cloud, 5 count-law draws, 6 subsampling), so every table is a
pure function of the spec.

This module also houses the brute-force oracles used to verify the fast
paths: an O(n^2) pairwise AUROC and a dense-solve Mahalanobis scorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import UNLABELED, FeatureTable, SplitPolicy, split_id_data
from .detectors import ZERO_TRACE_RIDGE_FLOOR, ScoreSet
from .errors import NumericalError, ValidationError

_STREAM_MEANS = 1
_STREAM_SAMPLES = 2
_STREAM_NOISE = 3
_STREAM_OOD = 4
_STREAM_LAW = 5
_STREAM_SUBSAMPLE = 6


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for one documented stream of a seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# ---------------------------------------------------------------------------
# per-class sample-count laws


@dataclass(frozen=True)
class Balanced:
    """Exactly ``per_class`` samples in every class."""

    per_class: int

    def class_sizes(self, c: int, rng: np.random.Generator) -> np.ndarray:
        if self.per_class < 1:
            raise ValidationError("balanced law needs per_class >= 1")
        return np.full(c, self.per_class, dtype=np.int64)

    def total(self, c: int) -> int:
        return self.per_class * c

    def text(self) -> str:
        return f"balanced:{self.per_class}"


@dataclass(frozen=True)
class UnbalancedPowerlaw:
    """Class sizes proportional to rank^(-alpha), summing to ``total_count``."""

    alpha: float
    total_count: int

    def class_sizes(self, c: int, rng: np.random.Generator) -> np.ndarray:
        weights = np.arange(1, c + 1, dtype=np.float64) ** (-self.alpha)
        return _apportion(weights, self.total_count)

    def total(self, c: int) -> int:
        return self.total_count

    def text(self) -> str:
        return f"powerlaw:{self.alpha:g}:{self.total_count}"


@dataclass(frozen=True)
class UnbalancedUniform:
    """Class sizes drawn as independent uniforms, renormalized to ``total_count``."""

    total_count: int

    def class_sizes(self, c: int, rng: np.random.Generator) -> np.ndarray:
        return _apportion(rng.random(c), self.total_count)

    def total(self, c: int) -> int:
        return self.total_count

    def text(self) -> str:
        return f"uniform:{self.total_count}"


CountLaw = Union[Balanced, UnbalancedPowerlaw, UnbalancedUniform]


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Scale weights to integers summing to ``total``: floor, then hand the
    remainder to the largest fractional parts; every class keeps >= 1."""
    c = weights.size
    if total < c:
        raise ValidationError(f"total {total} cannot cover {c} classes at >= 1 each")
    target = weights / weights.sum() * total
    sizes = np.floor(target).astype(np.int64)
    frac_order = np.argsort(-(target - sizes), kind="stable")
    sizes[frac_order[: total - int(sizes.sum())]] += 1
    for i in np.flatnonzero(sizes == 0):
        j = int(np.argmax(sizes))
        sizes[j] -= 1
        sizes[i] += 1
    return sizes


def parse_law(text: str) -> CountLaw:
    """Parse ``balanced:N``, ``powerlaw:ALPHA:TOTAL``, or ``uniform:TOTAL``."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "balanced" and len(parts) == 2:
            return Balanced(int(parts[1]))
        if parts[0] == "powerlaw" and len(parts) == 3:
            return UnbalancedPowerlaw(float(parts[1]), int(parts[2]))
        if parts[0] == "uniform" and len(parts) == 2:
            return UnbalancedUniform(int(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"bad count law {text!r}: {exc}") from exc
    raise ValidationError(
        f"bad count law {text!r}; expected balanced:N, powerlaw:ALPHA:TOTAL, "
        "or uniform:TOTAL"
    )


# ---------------------------------------------------------------------------
# world generation


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one controlled mixture world."""

    classes: int
    dim: int
    class_separation: float = 1.0
    within_class_sigma: float = 1.0
    label_noise: float = 0.0
    ood_distance: float = 2.0
    law: CountLaw = field(default_factory=lambda: Balanced(200))
    seed: int = 42

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValidationError(f"need c >= 2 classes, got {self.classes}")
        if self.dim < 2:
            raise ValidationError(f"need d >= 2 dimensions, got {self.dim}")
        if self.class_separation <= 0:
            raise ValidationError("class_separation must be > 0")
        if self.within_class_sigma <= 0:
            raise ValidationError("within_class_sigma must be > 0")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValidationError(f"label_noise must be in [0,1), got {self.label_noise}")
        if self.ood_distance < 0:
            raise ValidationError("ood_distance must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class SyntheticWorld:
    spec: SyntheticSpec
    id_train: FeatureTable
    id_fit: FeatureTable
    id_test: FeatureTable
    ood_tables: dict[str, FeatureTable]
    true_means: np.ndarray
    classifier_centers: np.ndarray
    classifier_accuracy: float


def ood_table_name(distance: float) -> str:
    return f"d{distance:g}"


def _log_density_logits(
    features: np.ndarray, centers: np.ndarray, sigma: float
) -> np.ndarray:
    x = features.astype(np.float64)
    sq = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * x @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return -sq / (2.0 * sigma * sigma)


def _corrupt_labels(
    labels: np.ndarray, c: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """Redraw a ``noise`` fraction of labels uniformly among the other classes."""
    out = labels.copy()
    m = int(round(noise * labels.size))
    if m == 0:
        return out
    idx = rng.choice(labels.size, size=m, replace=False)
    r = rng.integers(0, c - 1, size=m)
    out[idx] = r + (r >= out[idx])
    return out


def generate_world(
    spec: SyntheticSpec,
    ood_distances: tuple[float, ...] | None = None,
    n_ood: int | None = None,
    split: SplitPolicy | None = None,
) -> SyntheticWorld:
    """Generate ID splits, OOD clouds, logits, and the measured accuracy.

    ``ood_distances`` defaults to the spec's single distance; ``n_ood``
    defaults to the test-split size. OOD clouds consist of ``c`` clusters at
    the requested distance (in units of class separation) from the ID
    centroid, with the pooled ID standard deviation, so distance 0
    reproduces the overall ID spread.
    """
    c, d, sep, sigma = spec.classes, spec.dim, spec.class_separation, spec.within_class_sigma
    if ood_distances is None:
        ood_distances = (spec.ood_distance,)
    if split is None:
        split = SplitPolicy(0.7, 0.5, seed=spec.seed)

    dirs = stream_rng(spec.seed, _STREAM_MEANS).standard_normal((c, d))
    true_means = sep * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    sizes = spec.law.class_sizes(c, stream_rng(spec.seed, _STREAM_LAW))
    rng_samples = stream_rng(spec.seed, _STREAM_SAMPLES)
    blocks = [
        true_means[k] + sigma * rng_samples.standard_normal((int(sizes[k]), d))
        for k in range(c)
    ]
    pool_features = np.concatenate(blocks).astype(np.float32)
    pool_labels = np.repeat(np.arange(c, dtype=np.int32), sizes)

    pool = FeatureTable(pool_features, None, pool_labels)
    id1, id2, id3 = split_id_data(pool, split)

    rng_noise = stream_rng(spec.seed, _STREAM_NOISE)
    id1_labels = _corrupt_labels(id1.labels, c, spec.label_noise, rng_noise)
    id2_labels = _corrupt_labels(id2.labels, c, spec.label_noise, rng_noise)

    # Implicit classifier: per-class centers of the (noisy) train split.
    feats1 = id1.features.astype(np.float64)
    global_mean = feats1.mean(axis=0)
    centers = np.empty((c, d))
    for k in range(c):
        rows = feats1[id1_labels == k]
        centers[k] = rows.mean(axis=0) if rows.shape[0] else global_mean

    def with_logits(features: np.ndarray, labels: np.ndarray) -> FeatureTable:
        return FeatureTable(features, _log_density_logits(features, centers, sigma), labels)

    id_train = with_logits(id1.features, id1_labels)
    id_fit = with_logits(id2.features, id2_labels)
    id_test = with_logits(id3.features, id3.labels)

    centroid = true_means.mean(axis=0)
    pooled_sigma = float(
        np.sqrt(sigma**2 + np.mean(np.sum((true_means - centroid) ** 2, axis=1)) / d)
    )
    n_ood_eff = id_test.n if n_ood is None else int(n_ood)
    if n_ood_eff < 1:
        raise ValidationError("n_ood must be >= 1")
    ood_tables: dict[str, FeatureTable] = {}
    for i, dist in enumerate(ood_distances):
        if dist < 0:
            raise ValidationError("ood distances must be >= 0")
        rng_ood = stream_rng(spec.seed, _STREAM_OOD, i)
        odirs = rng_ood.standard_normal((c, d))
        ocenters = centroid + dist * sep * odirs / np.linalg.norm(odirs, axis=1, keepdims=True)
        osizes = _apportion(np.ones(c), n_ood_eff) if n_ood_eff >= c else None
        if osizes is None:  # fewer samples than clusters: fill round-robin
            osizes = np.zeros(c, dtype=np.int64)
            osizes[:n_ood_eff] = 1
        chunks = [
            ocenters[k] + pooled_sigma * rng_ood.standard_normal((int(osizes[k]), d))
            for k in range(c)
        ]
        ofeat = np.concatenate([ch for ch in chunks if ch.shape[0]]).astype(np.float32)
        ood_tables[ood_table_name(dist)] = with_logits(
            ofeat, np.full(ofeat.shape[0], UNLABELED, dtype=np.int32)
        )

    predicted = np.argmax(id_test.logits, axis=1)
    accuracy = float(np.mean(predicted == id_test.labels))

    return SyntheticWorld(
        spec=spec,
        id_train=id_train,
        id_fit=id_fit,
        id_test=id_test,
        ood_tables=ood_tables,
        true_means=true_means,
        classifier_centers=centers,
        classifier_accuracy=accuracy,
    )


# ---------------------------------------------------------------------------
# imbalanced subsampling


def imbalanced_rows(table: FeatureTable, law: CountLaw, seed: int) -> np.ndarray:
    """Sorted row indices of a labeled table subsampled to the counts of ``law``.

    A class that cannot supply its requested count raises naming the class.
    Laws rank classes by ascending label value.
    """
    if not table.is_labeled:
        raise ValidationError("imbalanced sampling requires a labeled table")
    classes = np.unique(table.labels)
    sizes = law.class_sizes(classes.size, stream_rng(seed, _STREAM_LAW))
    rng = stream_rng(seed, _STREAM_SUBSAMPLE)
    keep = []
    for cls, want in zip(classes, sizes):
        idx = np.flatnonzero(table.labels == cls)
        if idx.size < want:
            raise ValidationError(
                f"class {cls} has {idx.size} samples, law requests {int(want)}"
            )
        keep.append(rng.choice(idx, size=int(want), replace=False))
    return np.sort(np.concatenate(keep))


def sample_imbalanced(table: FeatureTable, law: CountLaw, seed: int) -> FeatureTable:
    """The rows of :func:`imbalanced_rows`, kept verbatim in their original order."""
    return table.take(imbalanced_rows(table, law, seed))


# ---------------------------------------------------------------------------
# brute-force oracles (used by the test suite)


def pairwise_auroc_oracle(id_scores, ood_scores) -> float:
    """Exact O(n^2) win-plus-half-tie count over all ID/OOD pairs."""
    id_s = id_scores.scores if isinstance(id_scores, ScoreSet) else np.asarray(id_scores, dtype=np.float64)
    ood_s = ood_scores.scores if isinstance(ood_scores, ScoreSet) else np.asarray(ood_scores, dtype=np.float64)
    if id_s.size == 0 or ood_s.size == 0:
        raise ValidationError("both score sets must be nonempty")
    pairs = id_s.size * ood_s.size
    if pairs > 10**7:
        raise ValidationError(f"{pairs} pairs exceed the 1e7 oracle guard")
    diff = id_s[:, None] - ood_s[None, :]
    wins = np.count_nonzero(diff > 0)
    ties = np.count_nonzero(diff == 0)
    return (wins + 0.5 * ties) / pairs


def direct_pooled_covariance(
    features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means and pooled covariance by direct per-sample summation."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    n, d = x.shape
    c = int(y.max()) + 1
    means = np.zeros((c, d))
    counts = np.zeros(c, dtype=np.int64)
    for i in range(n):
        means[y[i]] += x[i]
        counts[y[i]] += 1
    if (counts == 0).any():
        raise ValidationError(f"class {int(np.argmin(counts))} has no samples")
    means /= counts[:, None]
    cov = np.zeros((d, d))
    for i in range(n):
        r = x[i] - means[y[i]]
        cov += np.outer(r, r)
    return means, cov / n


def direct_mahalanobis_oracle(
    fit_table: FeatureTable, query: np.ndarray, ridge: float = 0.0
) -> float:
    """Dense-solve reference for the Mahalanobis score of one query vector."""
    if fit_table.d > 50:
        raise ValidationError("oracle is limited to d <= 50")
    means, cov = direct_pooled_covariance(fit_table.features, fit_table.labels)
    d = cov.shape[0]
    trace = float(np.trace(cov))
    if trace > 0:
        scale = ridge * trace / d
    else:
        scale = ZERO_TRACE_RIDGE_FLOOR if ridge > 0 else 0.0
    reg = cov + scale * np.eye(d)
    q = np.asarray(query, dtype=np.float64)
    best = -np.inf
    for k in range(means.shape[0]):
        v = q - means[k]
        try:
            sol = np.linalg.solve(reg, v)
        except np.linalg.LinAlgError:
            raise NumericalError("singular covariance; supply a ridge") from None
        best = max(best, float(-(v @ sol)))
    return best
