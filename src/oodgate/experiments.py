"""Sweeps over the three evaluation axes: accuracy, domain distance, imbalance.

Each sweep produces one row per (grid value x detector) with the measured
classifier accuracy, AUROC, and FPR95, and is a pure function of its spec:
rerunning yields byte-identical JSON. A sweep draws its synthetic world once,
with the world seed held fixed, and the accuracy axis relabels it per
label-noise level, so only the swept quantity moves.

Sweeps also run against user-supplied dataset manifests where that makes
sense: the domain-distance axis walks named OOD_TEST entries and the
imbalance axis resamples the ID_FIT_DETECTOR table, while the accuracy axis
needs a synthetic world (there is no knob to turn on a fixed dump).

A sweep's detector-fit table is a :class:`~oodgate.data._Kept` of its
features, labels and class count only: mah, the one detector that reads it,
reads nothing else. A synthetic world's fit split gets no logits, and a
manifest's ID_FIT_DETECTOR logits are checked a row block at a time
(:func:`~oodgate.data._read_kept`) but never held. The class count comes
from the world spec or the fit file's header, never from the labels, so a
class without a fit row is refused.

One loop, :func:`run_sweep`, serves every axis. Each axis has a small
provider that yields the (fit, ID test, OOD test) tables of each grid point,
and declares in :data:`_PROVIDERS` which of them it hands over unchanged at
every point (the domain axis's fit and ID test tables, the imbalance axis's
test tables); the loop fits and scores those once per detector. The loop
first checks the grid against :data:`_GRIDS`, the one table of what each
axis's grid holds on a synthetic world and on a manifest, which also says how
the CLI reads a ``--grid`` item and how a row writes a grid value.
Providers check the whole grid before the first fit or score, on a synthetic
world before it is drawn: the accuracy axis its label-noise levels, the
others in one loader, :func:`_base_tables` (OOD names or distances and the
OOD cloud size, the class sizes and totals of every law, then each law's fit
rows drawn before any test table is read), which also decides whether the
fit table is read. On a synthetic world the domain and imbalance axes draw
each OOD cloud, with its logits, only at its own grid point, and drop it
once that point is scored, so a domain sweep holds one cloud, not the
grid's; a cloud whose values overflow fails at its point, after the earlier
points are scored. A manifest's OOD tables are all read up front.

RNG streams (spawn keys off the sweep seed): (7, i) ID-test subsample at
grid point i (the domain axis draws its one subsample from (7, 0)), (8, i)
OOD subsample at grid point i, (10, i) child seed for imbalance resampling
at grid point i.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetManifest, FeatureTable, Role, _read_kept, stream_rng
from .detectors import DetectorConfig, Method, fit_mahalanobis, score_table
from .errors import ValidationError
from .metrics import auroc, fpr_at_tpr, roc_curve
from .synthetic import (
    CountLaw,
    SyntheticSpec,
    _check_rows,
    _cloud_names,
    _law_total,
    _noised,
    _ood_table,
    _world_split,
    _worlds,
    imbalanced_rows,
    parse_law,
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


_REALS = ("real numbers", numbers.Real, float, float)
_LAWS = ("count laws", CountLaw, parse_law, lambda law: law.text())
#: Each axis's grid kind on a synthetic world, then on a manifest (None: refused):
#: its name, its type, how a ``--grid`` item is read, and how a row writes a value.
_GRIDS = {
    Axis.ACCURACY: (_REALS, None),
    Axis.DOMAIN_DISTANCE: (_REALS, ("OOD names", str, str.strip, str)),
    Axis.IMBALANCE: (_LAWS, _LAWS),
}


def _grid_kind(axis: str, synthetic: bool) -> tuple:
    kind = _GRIDS[axis][not synthetic]
    if kind is None:  # a fixed dump has no knob to turn
        raise ValidationError("the accuracy sweep varies label noise and needs a synthetic world")
    return kind


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
    grid: tuple[float | str | CountLaw, ...]
    detectors: tuple[DetectorConfig, ...]
    seed: int = 42
    n_per_side: int | None = None

    def __post_init__(self) -> None:
        if self.axis not in _GRIDS:
            raise ValidationError(f"unknown sweep axis {self.axis!r}")
        if not self.grid:
            raise ValidationError("sweep grid must be nonempty")
        numeric = [v for v in self.grid if isinstance(v, numbers.Real)]
        if len(numeric) == len(self.grid) and not (np.diff(numeric) > 0).all():  # NaN fails
            raise ValidationError("numeric grid values must be strictly increasing")
        names = [v for v in self.grid if isinstance(v, str)]
        for i, name in enumerate(names):
            if name in names[:i]:  # the name's rows would repeat byte for byte
                raise ValidationError(f"sweep repeats the OOD name {name!r}")
        if not self.detectors:
            raise ValidationError("sweep needs at least one detector")
        # a detector is its method and the one field that method reads, if any
        keys = [(c.method, c.temperature if c.method is Method.EBM else None,
                 c.ridge if c.method is Method.MAH else None) for c in self.detectors]
        for i, key in enumerate(keys):
            if key in keys[:i]:  # its rows would repeat byte for byte
                raise ValidationError(f"sweep repeats the detector {key[0].value}")
        if self.n_per_side is not None and self.n_per_side < 1:
            raise ValidationError(f"n_per_side must be >= 1, got {self.n_per_side}")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")

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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    provenance: dict

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.rows)

    def to_summary_json(self, timestamp: str | None = None) -> str:
        obj = {"provenance": self.provenance, "rows": [asdict(r) for r in self.rows]}
        if timestamp is not None:
            obj["timestamp"] = timestamp
        return json.dumps(obj, indent=2) + "\n"


def _provenance(spec: SweepSpec, write) -> dict:
    if spec.is_synthetic:
        world = {**asdict(spec.base_world), "law": spec.base_world.law.text()}
    else:
        world = {"manifest": str(spec.base_world)}
    return {
        "axis": spec.axis,
        "base_world": world,
        "grid": [write(v) for v in spec.grid],
        "detectors": [{**asdict(c), "method": c.method.value} for c in spec.detectors],
        "seed": spec.seed,
        "n_per_side": spec.n_per_side,
    }


def _subsample(table: FeatureTable, m: int, rng: np.random.Generator) -> FeatureTable:
    if m == table.n:
        return table
    return table.take(np.sort(rng.choice(table.n, size=m, replace=False)))


def _base_tables(spec: SweepSpec, oods: tuple | None, laws: tuple | None = None):
    """(fit record, ID test table, OOD tables, accuracy, law rows or None) of a world.

    ``oods`` names the OOD tables (distances, or a manifest's OOD_TEST names);
    ``None`` takes the world's first. Imbalance ``laws`` are checked, and their
    rows drawn, on the fit labels before any feature is drawn or test table
    read. A world's split is worked out once, for those labels and the draw;
    the distances and cloud size are checked next, and the world is drawn
    without its classifier-train split or any OOD cloud and dropped on return.
    Its OOD tables are an iterator that draws each cloud, with its logits,
    only when it is reached, each of ``n_per_side`` rows (the test-split size
    if None); a cloud that fails fails there. A manifest is read once and
    checked before any table is read; its OOD tables are a list, all read
    before return. Its one ID_FIT_DETECTOR table is read first, and only for
    ``laws`` or a mah detector, without its logits; its class count is the
    file's logit count. A world's is its spec's class count.
    """
    world, rows = spec.base_world, None
    if spec.is_synthetic:
        split = _world_split(world)
        if laws is not None:
            rows = _law_rows(laws, _noised(world, split[2])[1], world.dim, spec.seed)
        distances = (world.ood_distance,) if oods is None else tuple(float(v) for v in oods)
        _cloud_names(world, distances, spec.n_per_side)
        (w,) = _worlds([world], (), split=split, keep_train=False)
        n, means, centers = spec.n_per_side or w.id_test.n, w.true_means, w.classifier_centers
        clouds = (_ood_table(world, means, centers, i, dist, n) for i, dist in enumerate(distances))
        return w.id_fit, w.id_test, clouds, w.classifier_accuracy, rows

    manifest = DatasetManifest.read(world)
    mah = any(c.method is Method.MAH for c in spec.detectors)
    has_fit = any(e.role is Role.ID_FIT_DETECTOR for e in manifest.entries)
    if laws is not None:  # the imbalance axis resamples the fit table
        manifest.single(Role.ID_FIT_DETECTOR)
    elif mah and not has_fit:
        raise ValidationError("mahalanobis detector needs a fit table")
    manifest.validate_for_eval()
    by_name = {e.ood_name: e for e in manifest.ood_entries()}
    for name in oods or ():
        if name not in by_name:
            raise ValidationError(f"manifest has no OOD_TEST named {name!r}")
    ood_entries = manifest.ood_entries()[:1] if oods is None else [by_name[n] for n in oods]
    fit_entry = manifest.single(Role.ID_FIT_DETECTOR) if has_fit else None  # two fail any sweep
    fit = None
    if laws is not None or mah:  # its logits are checked, a block at a time, never kept
        fit = _read_kept(manifest.resolve(fit_entry), fit_entry.fmt, np.float32, None)
    if laws is not None:
        rows = _law_rows(laws, fit.labels, fit.features.shape[1], spec.seed)
    id_test = manifest.load(manifest.single(Role.ID_TEST))
    accuracy = None
    if id_test.c >= 2 and id_test.is_labeled:
        accuracy = float(np.mean(np.argmax(id_test.logits, axis=1) == id_test.labels))
    return fit, id_test, [manifest.load(e) for e in ood_entries], accuracy, rows


def _law_rows(laws: tuple[CountLaw, ...], labels: np.ndarray, dim: int,
              seed: int) -> list[np.ndarray]:
    """Check each law's class sizes and one total over ``labels``, then draw
    each law's rows. A law whose fit table of ``dim``-wide rows could not be
    addressed is refused in Python ints first: it could never be drawn, and
    its class sizes could overflow int64."""
    c = np.unique(labels).size
    for law in laws:
        _check_rows(f"count law {law.text()}'s fit table", _law_total(law, c), dim)
    totals = {sum(law.class_sizes(c, np.random.default_rng(0)).tolist()) for law in laws}
    if len(totals) != 1:
        raise ValidationError(
            f"imbalance laws must request equal totals over {c} classes, got {sorted(totals)}"
        )
    return [
        imbalanced_rows(labels, law, int(np.random.SeedSequence(
            seed, spawn_key=(_STREAM_CHILD_SEED, i)).generate_state(1)[0]))
        for i, law in enumerate(laws)
    ]


# ---------------------------------------------------------------------------
# grid-point providers: one per axis, each yielding
# (axis value, fit table, ID test table, OOD test table, classifier accuracy)


def _accuracy_points(spec: SweepSpec):
    """One draw, every label-noise level checked before it, relabeled per level;
    equal-sized test sets. Points are mapped, so no loop variable keeps a
    level's whole world while the next level's logits are taken."""
    levels = [replace(spec.base_world, label_noise=float(noise)) for noise in spec.grid]

    def point(i: int, world):
        (ood,) = world.ood_tables.values()
        m = min(world.id_test.n, ood.n, spec.n_per_side or world.id_test.n)
        id_test = _subsample(world.id_test, m, stream_rng(spec.seed, _STREAM_ID_SUB, i))
        ood = _subsample(ood, m, stream_rng(spec.seed, _STREAM_OOD_SUB, i))
        return world.spec.label_noise, world.id_fit, id_test, ood, world.classifier_accuracy

    return map(point, range(len(levels)), _worlds(levels, keep_train=False))


def _domain_points(spec: SweepSpec):
    """One world (or manifest), one OOD set per grid value, sizes matched; the
    full ID test table is dropped once subsampled. A synthetic world's cloud
    is drawn at its own point and dropped once subsampled; every cloud has
    ``n_per_side`` rows (the test-split size if None), so the matched size
    is known before any is drawn. A manifest's OOD tables are all read first."""
    fit_table, id_test, ood_sets, accuracy, _ = _base_tables(spec, spec.grid)
    sizes = () if spec.is_synthetic else [t.n for t in ood_sets]
    m = min([id_test.n, *sizes, spec.n_per_side or id_test.n])
    id_matched = _subsample(id_test, m, stream_rng(spec.seed, _STREAM_ID_SUB, 0))
    del id_test  # only the subsample is scored
    ood_sets = iter(ood_sets)
    for i, value in enumerate(spec.grid):
        ood = _subsample(next(ood_sets), m, stream_rng(spec.seed, _STREAM_OOD_SUB, i))
        yield value, fit_table, id_matched, ood, accuracy
        del ood  # so the next cloud is drawn without this one


def _imbalance_points(spec: SweepSpec):
    """Resample the detector-fit table per imbalance law; the test sets are fixed.

    :func:`_base_tables` has checked the laws and drawn every law's rows
    before the world is drawn or a test table read. The OOD set is the
    spec's distance, or a manifest's first OOD_TEST entry.
    """
    id_fit, id_test, (ood,), accuracy, fit_rows = _base_tables(spec, None, spec.grid)
    for law, rows in zip(spec.grid, fit_rows):
        yield law, id_fit.take(rows), id_test, ood, accuracy


#: Each axis's provider, and the positions in (fit, ID test, OOD test) of
#: the tables it hands over unchanged, the very same objects, at every point.
_PROVIDERS = {
    Axis.ACCURACY: (_accuracy_points, ()),
    Axis.DOMAIN_DISTANCE: (_domain_points, (0, 1)),
    Axis.IMBALANCE: (_imbalance_points, (1, 2)),
}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run one sweep: one row per (grid value, detector), in that order.

    The axis's provider hands over each grid point's tables; this loop fits
    and scores them. A fit, or a scoring whose inputs (a mah scoring's fit
    table among them) are all shared tables of the axis, is made once per
    detector and kept for the whole sweep: the domain axis scores its ID test
    set once. Everything else is made at its grid point and dropped before
    the next point is built, so memory does not grow with the grid.
    """
    provider, shared = _PROVIDERS[spec.axis]
    kind, cls, _, write = _grid_kind(spec.axis, spec.is_synthetic)
    if not all(isinstance(v, cls) and not isinstance(v, bool) for v in spec.grid):
        raise ValidationError(f"{spec.axis} grid values must be {kind}")
    kept: dict[tuple[int, int], object] = {}  # (detector index, position): made once
    rows: list[SweepRow] = []
    for value, *tables, accuracy in provider(spec):
        for j, config in enumerate(spec.detectors):
            # mah scores with a fit of position 0, which every provider yields for it
            fit = (0,) if config.method is Method.MAH else ()
            made = {}  # position: the fit, or the scores of that position's table
            for pos in (*fit, 1, 2):
                if (j, pos) in kept:
                    made[pos] = kept[j, pos]
                elif pos == 0:
                    made[0] = fit_mahalanobis(tables[0], config.ridge)
                else:
                    made[pos] = score_table(config, tables[pos], made.get(0))
                if {*fit, pos}.issubset(shared):
                    kept[j, pos] = made[pos]
            curve = roc_curve(made[1], made[2])
            rows.append(SweepRow(
                axis=spec.axis, axis_value=write(value), method=config.method.value,
                classifier_accuracy=accuracy, auroc=auroc(curve),
                fpr95=fpr_at_tpr(curve, 0.95), n_id=tables[1].n, n_ood=tables[2].n,
            ))
        del tables, made, curve  # so the next point is built without them
    return SweepResult(tuple(rows), _provenance(spec, write))
