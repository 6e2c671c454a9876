"""Sweeps over the three evaluation axes: accuracy, domain distance, imbalance.

Each sweep produces one row per (grid value x detector) with the measured
classifier accuracy, AUROC, and FPR95, and is a pure function of its spec:
rerunning yields byte-identical JSON. Synthetic worlds are regenerated per
grid point with the world seed held fixed, so only the swept quantity moves.

Sweeps also run against user-supplied dataset manifests where that makes
sense: the domain-distance axis walks named OOD_TEST entries and the
imbalance axis resamples the ID_FIT_DETECTOR table, while the accuracy axis
needs a synthetic world (there is no knob to turn on a fixed dump).

One loop, :func:`run_sweep`, serves every axis. Each axis has a small
provider that yields the (fit, ID test, OOD test) tables of each grid point;
the loop fits and scores, and a table the provider hands back again (the
domain axis's ID test set, the imbalance axis's test sets) is scored once.
Providers check the whole grid (label-noise levels, OOD names, per-class
counts of every law) before the first fit or score, and before the first
world is generated wherever the check needs no table.

RNG streams (spawn keys off the sweep seed): (7, i) ID-test subsample and
(8, i) OOD subsample at grid point i, (10, i) child seed for imbalance
resampling at grid point i.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from .data import DatasetManifest, FeatureTable, Role
from .detectors import DetectorConfig, Method, fit_mahalanobis, score_table
from .errors import ValidationError
from .metrics import auroc, fpr_at_tpr, roc_curve
from .synthetic import (
    _STREAM_LAW,
    CountLaw,
    SyntheticSpec,
    generate_world,
    imbalanced_rows,
    ood_table_name,
    stream_rng,
)

#: Default per-side test size for generated worlds.
DESK_SCALE_PER_SIDE = 2000

#: Benchmark-scale dataset sizes, usable wherever a sample count is taken.
DATASET_SIZE_PRESETS = {
    "non-insecta": 74740,
    "ood-insect": 56487,
    "imagenet": 9730,
    "human-face": 3059,
}

_STREAM_ID_SUB = 7
_STREAM_OOD_SUB = 8
_STREAM_CHILD_SEED = 10


class Axis:
    ACCURACY = "accuracy"
    DOMAIN_DISTANCE = "domain_distance"
    IMBALANCE = "imbalance"

    ALL = (ACCURACY, DOMAIN_DISTANCE, IMBALANCE)


GridValue = Union[float, str, CountLaw]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its grid, the detectors and the world they run on.

    ``n_per_side`` caps both test sets at the same size on the accuracy and
    domain-distance axes. On the imbalance axis it sizes only the OOD set that
    a synthetic world generates: the ID test set is used whole, and a
    manifest's tables are used as they are. It must be >= 1; ``None`` sets no
    cap (and the test-split size for a generated OOD set).
    """

    axis: str
    base_world: SyntheticSpec | str | Path
    grid: tuple[GridValue, ...]
    detectors: tuple[DetectorConfig, ...]
    seed: int = 42
    n_per_side: int | None = None

    def __post_init__(self) -> None:
        if self.axis not in Axis.ALL:
            raise ValidationError(f"unknown sweep axis {self.axis!r}")
        if not self.grid:
            raise ValidationError("sweep grid must be nonempty")
        numeric = [v for v in self.grid if isinstance(v, (int, float))]
        if len(numeric) == len(self.grid) and not (np.diff(numeric) > 0).all():  # NaN fails
            raise ValidationError("numeric grid values must be strictly increasing")
        if not self.detectors:
            raise ValidationError("sweep needs at least one detector")
        if self.n_per_side is not None and self.n_per_side < 1:
            raise ValidationError(f"n_per_side must be >= 1, got {self.n_per_side}")

    @property
    def is_synthetic(self) -> bool:
        return isinstance(self.base_world, SyntheticSpec)


@dataclass(frozen=True)
class SweepRow:
    axis: str
    axis_value: float | str
    method: str
    classifier_accuracy: float | None
    auroc: float
    fpr95: float
    n_id: int
    n_ood: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    provenance: dict

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_dict()) + "\n" for r in self.rows)

    def to_summary_json(self, timestamp: str | None = None) -> str:
        obj = {"provenance": self.provenance, "rows": [r.to_dict() for r in self.rows]}
        if timestamp is not None:
            obj["timestamp"] = timestamp
        return json.dumps(obj, indent=2) + "\n"


def _grid_text(value: GridValue) -> float | str:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return value
    return value.text()


def _provenance(spec: SweepSpec) -> dict:
    if spec.is_synthetic:
        world = {**asdict(spec.base_world), "law": spec.base_world.law.text()}
    else:
        world = {"manifest": str(spec.base_world)}
    return {
        "axis": spec.axis,
        "base_world": world,
        "grid": [_grid_text(v) for v in spec.grid],
        "detectors": [{**asdict(c), "method": c.method.value} for c in spec.detectors],
        "seed": spec.seed,
        "n_per_side": spec.n_per_side,
    }


def _subsample(table: FeatureTable, m: int, rng: np.random.Generator) -> FeatureTable:
    if m > table.n:
        raise ValidationError(f"cannot subsample {m} rows from {table.n}")
    if m == table.n:
        return table
    return table.take(np.sort(rng.choice(table.n, size=m, replace=False)))


def _accuracy_of(table: FeatureTable) -> float | None:
    if table.c < 2 or not table.is_labeled:
        return None
    return float(np.mean(np.argmax(table.logits, axis=1) == table.labels))


def _load_manifest(spec: SweepSpec) -> DatasetManifest:
    manifest = DatasetManifest.read(spec.base_world)
    manifest.validate_for_eval()
    return manifest


# ---------------------------------------------------------------------------
# grid-point providers: one per axis, each yielding
# (axis value, fit table, ID test table, OOD test table, classifier accuracy)


def _accuracy_points(spec: SweepSpec):
    """Regenerate the world per label-noise level, each level checked before the
    first world; equal-sized test sets."""
    if not spec.is_synthetic:
        raise ValidationError(
            "the accuracy sweep varies label noise and needs a synthetic world"
        )
    levels = [replace(spec.base_world, label_noise=float(noise)) for noise in spec.grid]
    for i, (noise, level) in enumerate(zip(spec.grid, levels)):
        world = generate_world(level)
        id_fit, id_test, accuracy = world.id_fit, world.id_test, world.classifier_accuracy
        ood = world.ood_tables[ood_table_name(spec.base_world.ood_distance)]
        del world  # the next level is drawn with only the tables yielded alive
        m = min(id_test.n, ood.n, spec.n_per_side or id_test.n)
        id_test = _subsample(id_test, m, stream_rng(spec.seed, _STREAM_ID_SUB, i))
        ood = _subsample(ood, m, stream_rng(spec.seed, _STREAM_OOD_SUB, i))
        yield noise, id_fit, id_test, ood, accuracy


def _domain_points(spec: SweepSpec):
    """One world (or manifest), one OOD set per grid value, sizes matched."""
    if spec.is_synthetic:
        distances = tuple(float(v) for v in spec.grid)
        world = generate_world(
            spec.base_world, ood_distances=distances, n_ood=spec.n_per_side
        )
        id_test, fit_table = world.id_test, world.id_fit
        accuracy = world.classifier_accuracy
        ood_sets = [(d, world.ood_tables[ood_table_name(d)]) for d in distances]
        del world  # its classifier-train split is never read
    else:
        manifest = _load_manifest(spec)
        by_name = {e.ood_name: e for e in manifest.ood_entries()}
        for name in spec.grid:
            if name not in by_name:
                raise ValidationError(f"manifest has no OOD_TEST named {name!r}")
        id_test = manifest.load(manifest.single(Role.ID_TEST))
        fit_entries = [e for e in manifest.entries if e.role is Role.ID_FIT_DETECTOR]
        fit_table = manifest.load(fit_entries[0]) if fit_entries else None
        accuracy = _accuracy_of(id_test)
        ood_sets = [(name, manifest.load(by_name[name])) for name in spec.grid]

    m = min([id_test.n] + [t.n for _, t in ood_sets] + ([spec.n_per_side] if spec.n_per_side else []))
    id_matched = _subsample(id_test, m, stream_rng(spec.seed, _STREAM_ID_SUB, 0))
    for i, (value, ood) in enumerate(ood_sets):
        ood = _subsample(ood, m, stream_rng(spec.seed, _STREAM_OOD_SUB, i))
        yield value, fit_table, id_matched, ood, accuracy


def _imbalance_points(spec: SweepSpec):
    """Resample the detector-fit table per imbalance law; the test sets are fixed.

    All laws must request the same fit total, and every law's rows are drawn
    before the first fit. With a manifest world the first OOD_TEST entry is
    the comparison set.
    """
    laws = spec.grid
    if any(isinstance(law, (int, float, str)) for law in laws):
        raise ValidationError("imbalance grid values must be count laws")

    if spec.is_synthetic:
        # Whether a law can be met depends on the fit table's class count alone.
        # That is the world's class count when no label is noised and every
        # class has 3 or more rows (the split puts each such class in every
        # part), so then every law is checked before the world is drawn.
        base = spec.base_world
        base_sizes = base.law.class_sizes(base.classes, stream_rng(base.seed, _STREAM_LAW))
        if base.label_noise == 0 and base_sizes.min() >= 3:
            for law in laws:
                law.class_sizes(base.classes, np.random.default_rng(0))
        world = generate_world(spec.base_world, n_ood=spec.n_per_side)
        id_fit, id_test = world.id_fit, world.id_test
        ood = world.ood_tables[ood_table_name(spec.base_world.ood_distance)]
        accuracy = world.classifier_accuracy
        del world  # its classifier-train split is never read
    else:
        manifest = _load_manifest(spec)
        id_fit = manifest.load(manifest.single(Role.ID_FIT_DETECTOR))
        id_test = manifest.load(manifest.single(Role.ID_TEST))
        ood = manifest.load(manifest.ood_entries()[0])
        accuracy = _accuracy_of(id_test)

    c = int(np.unique(id_fit.labels).size)
    totals = {law.total(c) for law in laws}
    if len(totals) != 1:
        raise ValidationError(
            f"imbalance laws must request equal totals over {c} classes, got {sorted(totals)}"
        )

    fit_rows = [
        imbalanced_rows(id_fit, law, int(np.random.SeedSequence(
            spec.seed, spawn_key=(_STREAM_CHILD_SEED, i)).generate_state(1)[0]))
        for i, law in enumerate(laws)
    ]
    for law, rows in zip(laws, fit_rows):
        yield law, id_fit.take(rows), id_test, ood, accuracy


_PROVIDERS = {
    Axis.ACCURACY: _accuracy_points,
    Axis.DOMAIN_DISTANCE: _domain_points,
    Axis.IMBALANCE: _imbalance_points,
}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run one sweep: one row per (grid value, detector), in that order.

    The axis's provider hands over each grid point's tables; this loop fits
    and scores them. Score-once rule: a fit or a scoring whose inputs are the
    very same objects (``is``) as in a call of the current or previous grid
    point reuses that result, so a fixed test set is scored once per detector.
    Only the last grid point's calls are kept when the next is drawn, so
    memory does not grow with the grid, and a kept call holds its inputs, so
    none is freed meanwhile.
    """
    kept: list[tuple] = []  # (grid point, (fn, *args), result)

    def call(i: int, fn, *args):
        key = (fn, *args)
        for _, k, result in kept:
            if len(k) == len(key) and all(a is b for a, b in zip(k, key)):
                break
        else:
            result = fn(*args)
        kept.append((i, key, result))
        return result

    rows: list[SweepRow] = []
    points = _PROVIDERS[spec.axis](spec)
    for i, (value, fit_table, id_table, ood_table, accuracy) in enumerate(points):
        for config in spec.detectors:
            model = None
            if config.method is Method.MAH:
                if fit_table is None:
                    raise ValidationError("mahalanobis detector needs a fit table")
                model = call(i, fit_mahalanobis, fit_table, config.ridge)
            id_scores, ood_scores = (
                call(i, score_table, config, t, model) for t in (id_table, ood_table)
            )
            curve = roc_curve(id_scores, ood_scores)
            rows.append(SweepRow(
                axis=spec.axis, axis_value=_grid_text(value), method=config.method.value,
                classifier_accuracy=accuracy, auroc=auroc(curve),
                fpr95=fpr_at_tpr(curve, 0.95), n_id=id_table.n, n_ood=ood_table.n,
            ))
        kept[:] = [e for e in kept if e[0] == i]
    return SweepResult(tuple(rows), _provenance(spec))
