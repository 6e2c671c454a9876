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

With one sigma the logits' pairwise differences are affine in x, so softmax
confidence grows along rays away from the centers: an OOD cloud off the ID
centroid can look more confident than ID rows between neighbouring classes,
and msp AUROC can fall below chance. Demo 03's accuracy world (c = 50, d = 16,
world seed 11) takes msp from 0.461 to 0.340 over label noise 0 to 0.6, ebm
from 0.987 to 0.982 and mah from 0.985 to 0.981.

Randomness is drawn from named PCG64 streams spawned off the world seed
(spawn keys: 1 class-mean directions, 2 ID samples, 3 label noise, (4, i)
the i-th OOD cloud, 5 count-law draws), so every table is a pure function of
the spec. :func:`imbalanced_rows` spawns 5 (count-law draws) and 6
(subsampling) off the seed it is given; in a sweep that is a child seed.

No whole table is ever held in float64. The split rows are worked out from
the labels before any sample exists, and each class is drawn straight into
its rows of the float32 split arrays. While a class is drawn, its
classifier-train rows are added, widened to float64 and in row order, to a
running sum per noisy label, so the centers have the bits of each label's
``mean(axis=0)`` without a pass over the stored split; a world drawn with
``keep_train=False`` (as sweeps draw theirs) never stores that split. Label
noise moves only labels, so an accuracy sweep's levels share one draw, with
a running sum per level and label. Logits are computed one float64 row
block at a time, a block holding :data:`~oodgate.data.BLOCK_BYTES`
over ``max(c, d)`` values a row. Generation peaks at about the float32
bytes of the returned world plus one such block.

This module also houses the brute-force oracles used to verify the fast
paths: an O(n^2) pairwise AUROC and a dense-solve Mahalanobis scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import (UNLABELED, FeatureTable, SplitPolicy, _add_rows, _check_finite, _class_rows,
                   _row_blocks, _split_rows, stream_rng)
from .detectors import ZERO_TRACE_RIDGE_FLOOR, ScoreSet, _one_blas_thread
from .errors import NumericalError, ValidationError

_STREAM_MEANS = 1
_STREAM_SAMPLES = 2
_STREAM_NOISE = 3
_STREAM_OOD = 4
_STREAM_LAW = 5
_STREAM_SUBSAMPLE = 6
_QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")  # non-finite rows raise


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

    def text(self) -> str:
        return f"balanced:{self.per_class}"


@dataclass(frozen=True)
class UnbalancedPowerlaw:
    """Class sizes proportional to rank^(-alpha), summing to ``total_count``."""

    alpha: float
    total_count: int

    def class_sizes(self, c: int, rng: np.random.Generator) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.arange(1, c + 1, dtype=np.float64) ** (-self.alpha)
            if not np.isfinite(weights.sum()):  # also when only the sum overflows
                raise ValidationError(
                    f"count law {self.text()} has non-finite weights over {c} classes"
                )
        return _apportion(weights, self.total_count)

    def text(self) -> str:
        return f"powerlaw:{self.alpha:g}:{self.total_count}"


@dataclass(frozen=True)
class UnbalancedUniform:
    """Class sizes drawn as independent uniforms, renormalized to ``total_count``."""

    total_count: int

    def class_sizes(self, c: int, rng: np.random.Generator) -> np.ndarray:
        return _apportion(rng.random(c), self.total_count)

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
    # float64 targets drift from ``total`` by more than c once it nears 2**62
    whole, rest = divmod(total - sum(sizes.tolist()), c)
    sizes += whole
    sizes[frac_order[:rest]] += 1
    for i in np.flatnonzero(sizes < 1):
        j = int(np.argmax(sizes))
        sizes[j] -= 1 - sizes[i]
        sizes[i] = 1
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
        for name in ("class_separation", "within_class_sigma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValidationError(f"label_noise must be in [0,1), got {self.label_noise}")
        if not 0 <= self.ood_distance < math.inf:
            raise ValidationError(f"ood_distance must be finite and >= 0, got {self.ood_distance}")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        c = int(self.classes)  # every class has a row, so a world has c or more
        _check_rows("a world", max(c, _law_total(self.law, c)), self.dim)


def _law_total(law: CountLaw, c: int) -> int:
    """The rows ``law`` asks for over ``c`` classes, in Python ints."""
    return int(law.per_class) * c if isinstance(law, Balanced) else int(law.total_count)


def _check_rows(what: str, rows: int, dim: int) -> None:
    """Refuse, before any draw, float32 rows and 8-byte row indices past the address space."""
    if rows * max(8, 4 * int(dim)) > np.iinfo(np.intp).max:
        raise ValidationError(f"{what} of {rows} rows of {dim} float32 values exceeds "
                              f"{np.iinfo(np.intp).max} bytes")


@dataclass(frozen=True, eq=False)
class SyntheticWorld:
    """One generated world; ``id_train`` is ``None`` when it was drawn with
    ``keep_train=False``."""

    spec: SyntheticSpec
    id_train: FeatureTable | None
    id_fit: FeatureTable
    id_test: FeatureTable
    ood_tables: dict[str, FeatureTable]
    true_means: np.ndarray
    classifier_centers: np.ndarray
    classifier_accuracy: float


def ood_table_name(distance: float) -> str:
    return f"d{distance:g}"


def _draw_clusters(
    centers: np.ndarray,
    sigma: float,
    sizes: np.ndarray,
    parts: list,
    rng: np.random.Generator,
    summed: tuple | None = None,
) -> list[np.ndarray]:
    """``sizes[k]`` isotropic draws around ``centers[k]`` for each k in turn,
    each class written straight into float32 arrays, one per part: a part is
    a sorted selection of rows in draw order, and its array holds them in
    that order. ``summed = (rows, labels)`` appends one more array, of
    float64 sums: row ``l`` sums the draws at the sorted ``rows`` whose row
    of the n x j ``labels`` holds ``l`` (see :func:`_add_rows`), whether or
    not a part stores them, one label column at a time. A value that
    overflows binary32 is reported at its draw row."""
    d = centers.shape[1]
    out = [np.empty((rows.size, d), dtype=np.float32) for rows in parts]
    if summed is not None:
        out.append(np.zeros((int(summed[1].max()) + 1, d)))
    start = 0
    for center, m in zip(centers, sizes.tolist()):
        z = rng.standard_normal((m, d))
        z *= sigma  # the bits of center + sigma * z: IEEE * and + commute
        z += center
        block = z.astype(np.float32)
        del z  # only the float32 block is kept
        _check_finite(block, "features", start)
        for rows, arr in zip(parts, out):
            lo, hi = np.searchsorted(rows, (start, start + m))
            arr[lo:hi] = block[rows[lo:hi] - start]
        if summed is not None:
            rows, labels = summed
            lo, hi = np.searchsorted(rows, (start, start + m))
            for column in labels[lo:hi].T:
                _add_rows(out[-1], column, block, rows[lo:hi] - start)
        start += m
        del block  # so the next class is drawn without it
    return out


def _log_density_logits(
    features: np.ndarray, centers: np.ndarray, sigma: float
) -> np.ndarray:
    """float32 ``-||x - center_k||^2 / (2 sigma^2)``, one float64 row block at
    a time (the blocks' GEMMs give the bits of one whole-table GEMM); a block
    holds d-wide rows and their c-wide products. ``|center|^2`` is summed a
    row block of the centers at a time too, each row's sum over that row alone."""
    out = np.empty((features.shape[0], centers.shape[0]), dtype=np.float32)
    center_sq = np.concatenate([np.square(m, out=m).sum(axis=1)
                                for _, m in _row_blocks(centers, "centers", centers.shape[1])])
    with _one_blas_thread:
        for start, x in _row_blocks(features, "features", max(centers.shape)):
            g = x @ centers.T
            g *= 2.0  # exact: the bits of (2.0 * x) @ centers.T
            x *= x
            np.subtract(x.sum(axis=1)[:, None], g, out=g)
            g += center_sq
            g /= -2.0 * sigma * sigma
            out[start : start + len(x)] = g
            del x, g  # so the next block is widened with neither alive
    return out


def _world_sizes(spec: SyntheticSpec) -> np.ndarray:
    """The rows of each class of ``spec``'s world, from its law's stream."""
    return spec.law.class_sizes(spec.classes, stream_rng(spec.seed, _STREAM_LAW))


def _world_split(spec: SyntheticSpec, split: SplitPolicy | None = None) -> tuple:
    """The class sizes, the split's three row sets, and the clean labels of
    the train, fit and test parts of a world, before any draw."""
    split = split or SplitPolicy(0.7, 0.5, seed=spec.seed)
    sizes = _world_sizes(spec)
    labels = np.repeat(np.arange(spec.classes, dtype=np.int32), sizes)
    parts = _split_rows(labels, split)
    return sizes, parts, [labels[rows] for rows in parts]


def _noised(spec: SyntheticSpec, clean: list) -> list[np.ndarray]:
    """The train and fit labels of :func:`_world_split` at the spec's noise:
    a ``label_noise`` fraction of each part redrawn uniformly among the
    other classes, both parts from one stream."""
    rng = stream_rng(spec.seed, _STREAM_NOISE)
    out = [labels.copy() for labels in clean[:2]]
    for labels in out:
        m = int(round(spec.label_noise * labels.size))
        if m:
            idx = rng.choice(labels.size, size=m, replace=False)
            r = rng.integers(0, spec.classes - 1, size=m)
            labels[idx] = r + (r >= labels[idx])
    return out


def _cloud_names(spec: SyntheticSpec, distances, n) -> list[str]:
    """The table names of OOD clouds at ``distances``, of ``n`` rows each (None:
    the test-split size), once the distances and ``n`` are checked, before any draw."""
    names = [ood_table_name(dist) for dist in distances]
    for i, (dist, name) in enumerate(zip(distances, names)):
        if not 0 <= dist < math.inf:
            raise ValidationError(f"ood distances must be finite and >= 0, got {dist}")
        if names.index(name) < i:
            raise ValidationError(f"ood distances {distances[names.index(name)]!r} and "
                                  f"{dist!r} share the table name {name!r}")
    if n is not None:
        if int(n) < 1:
            raise ValidationError("n_ood must be >= 1")
        _check_rows("an OOD cloud", int(n), spec.dim)
    return names


def _ood_features(spec: SyntheticSpec, true_means: np.ndarray, i: int, distance: float,
                  n: int) -> np.ndarray:
    """The float32 features of a world's OOD cloud ``i``, drawn from stream
    (4, i): ``n`` rows in ``c`` clusters (the first ``n % c`` one row larger)
    around centers at ``distance`` class separations from the ID centroid,
    with the pooled ID standard deviation."""
    c, d = true_means.shape
    centroid = true_means.mean(axis=0)
    spread = np.mean(np.sum((true_means - centroid) ** 2, axis=1)) / d
    pooled_sigma = float(np.sqrt(spec.within_class_sigma**2 + spread))
    rng = stream_rng(spec.seed, _STREAM_OOD, i)
    dirs = rng.standard_normal((c, d))
    centers = centroid + distance * spec.class_separation * dirs / np.linalg.norm(
        dirs, axis=1, keepdims=True)
    sizes = np.array([n // c + (k < n % c) for k in range(c)], dtype=np.int64)
    (features,) = _draw_clusters(centers, pooled_sigma, sizes, [np.arange(n)], rng)
    return features


@_QUIET
def _ood_table(spec: SyntheticSpec, true_means: np.ndarray, centers: np.ndarray, i: int,
               distance: float, n: int) -> FeatureTable:
    """OOD cloud ``i`` of the world of ``spec``, as :func:`generate_world`
    gives it at ``distance`` with ``n`` rows, its logits taken against the
    classifier ``centers``. A sweep draws each cloud this way at its own
    grid point, so a failing cloud fails there."""
    features = _ood_features(spec, true_means, i, distance, n)
    return FeatureTable(features, _log_density_logits(features, centers, spec.within_class_sigma),
                        np.full(n, UNLABELED, dtype=np.int32))


@_QUIET
def _worlds(levels: list[SyntheticSpec], ood_distances=None, n_ood=None, split=None,
            keep_train=True):
    """The :func:`generate_world` of each of ``levels``, specs that differ in
    label noise only, as one draw of the split and every feature: level j's
    train labels are summed under ``j*c + label`` (and, if noise empties a
    class, every train row under ``len(levels)*c``), its logits taken when reached.
    ``split`` is a :func:`_world_split` of the levels' world, by default the
    first level's; ``ood_distances=()`` draws no OOD cloud."""
    spec = levels[0]
    c, d, sep, sigma = spec.classes, spec.dim, spec.class_separation, spec.within_class_sigma
    ood_distances = (spec.ood_distance,) if ood_distances is None else ood_distances
    names = _cloud_names(spec, ood_distances, n_ood)
    sizes, parts, (*clean, test_labels) = split or _world_split(spec)
    train_labels, fit_labels = zip(*(_noised(level, clean) for level in levels))
    counts = [np.bincount(labels, minlength=c) for labels in train_labels]
    columns = [labels + j * c for j, labels in enumerate(train_labels)]
    if not all(k.all() for k in counts):
        columns.append(np.full_like(columns[0], len(levels) * c))
    sum_labels = np.stack(columns, axis=1)
    del clean, columns  # only the noisy labels are kept, and the train ones to be stored
    train_labels = train_labels if keep_train else None

    dirs = stream_rng(spec.seed, _STREAM_MEANS).standard_normal((c, d))
    true_means = sep * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    *train, fit, test, sums = _draw_clusters(
        true_means, sigma, sizes, parts if keep_train else parts[1:],
        stream_rng(spec.seed, _STREAM_SAMPLES), summed=(parts[0], sum_labels),
    )
    del parts, sum_labels  # the split's row indices and sum labels, spent once drawn

    n_ood_eff = test.shape[0] if n_ood is None else int(n_ood)
    oods = [_ood_features(spec, true_means, i, dist, n_ood_eff)
            for i, dist in enumerate(ood_distances)]
    unlabeled = np.full(n_ood_eff, UNLABELED, dtype=np.int32)

    @_QUIET
    def world(j: int, level: SyntheticSpec) -> SyntheticWorld:
        # Implicit classifier: per-class means of the level's noisy train
        # labels; a class the noise emptied gets the split's global mean.
        centers = sums[j * c : (j + 1) * c] / np.maximum(counts[j], 1)[:, None]
        if not counts[j].all():
            centers[counts[j] == 0] = sums[-1] / counts[j].sum()

        def with_logits(features: np.ndarray, labels: np.ndarray) -> FeatureTable:
            return FeatureTable(features, _log_density_logits(features, centers, sigma), labels)

        id_test = with_logits(test, test_labels)
        return SyntheticWorld(
            spec=level, id_fit=with_logits(fit, fit_labels[j]), id_test=id_test,
            id_train=with_logits(train[0], train_labels[j]) if keep_train else None,
            ood_tables={name: with_logits(x, unlabeled) for name, x in zip(names, oods)},
            true_means=true_means, classifier_centers=centers,
            classifier_accuracy=float(np.mean(np.argmax(id_test.logits, axis=1) == test_labels)),
        )

    return map(world, range(len(levels)), levels)


def generate_world(
    spec: SyntheticSpec,
    ood_distances: tuple[float, ...] | None = None,
    n_ood: int | None = None,
    split: SplitPolicy | None = None,
    keep_train: bool = True,
) -> SyntheticWorld:
    """Generate ID splits, OOD clouds, logits, and the measured accuracy.

    ``ood_distances`` defaults to the spec's single distance; ``n_ood``
    defaults to the test-split size. OOD clouds consist of ``c`` clusters at
    the requested distance (in units of class separation) from the ID
    centroid, with the pooled ID standard deviation, so distance 0
    reproduces the overall ID spread. A bad distance, two that share a table
    name, a bad ``n_ood`` (below 1, or a cloud past the address space) or
    count law, and a world the split cannot cover, are rejected before the
    first sample.

    The classifier centers are summed from the train split while it is
    drawn. ``keep_train=False`` still draws that split, so every other table
    is the same, but stores none of it: ``id_train`` is then ``None``.
    """
    return next(_worlds([spec], ood_distances, n_ood, _world_split(spec, split), keep_train))


# ---------------------------------------------------------------------------
# imbalanced subsampling


def imbalanced_rows(labels: np.ndarray, law: CountLaw, seed: int) -> np.ndarray:
    """Sorted indices of the rows of a labeled table's ``labels`` kept at ``law``'s counts.

    A class that cannot supply its requested count raises naming the class.
    Laws rank classes by ascending label value.
    """
    if not (labels != UNLABELED).all():
        raise ValidationError("imbalanced sampling requires a labeled table")
    classes = _class_rows(labels)
    sizes = law.class_sizes(len(classes), stream_rng(seed, _STREAM_LAW))
    rng = stream_rng(seed, _STREAM_SUBSAMPLE)
    keep = []
    for (cls, idx), want in zip(classes, sizes):
        if idx.size < want:
            raise ValidationError(
                f"class {cls} has {idx.size} samples, law requests {int(want)}"
            )
        keep.append(rng.choice(idx, size=int(want), replace=False))
    return np.sort(np.concatenate(keep))


def sample_imbalanced(table: FeatureTable, law: CountLaw, seed: int) -> FeatureTable:
    """The rows of :func:`imbalanced_rows`, kept verbatim in their original order."""
    return table.take(imbalanced_rows(table.labels, law, seed))


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
