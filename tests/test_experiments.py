"""Sweep orchestration: shapes, determinism, and trend behavior."""

import hashlib
import json
from pathlib import Path

import pytest

from oodgate import experiments, synthetic
from oodgate import (
    Axis,
    Balanced,
    DatasetManifest,
    DetectorConfig,
    ManifestEntry,
    Method,
    Role,
    SweepSpec,
    SyntheticSpec,
    TableFormat,
    UnbalancedPowerlaw,
    UnbalancedUniform,
    ValidationError,
    generate_world,
    run_sweep,
    write_feature_table,
)

ALL = (
    DetectorConfig(Method.MSP),
    DetectorConfig(Method.EBM),
    DetectorConfig(Method.MAH),
)


def world_spec(**kw):
    base = dict(
        classes=5, dim=4, class_separation=2.0, within_class_sigma=1.0,
        ood_distance=2.0, law=Balanced(120), seed=7,
    )
    base.update(kw)
    return SyntheticSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="axis"):
        SweepSpec("sideways", world_spec(), (1.0,), ALL)
    with pytest.raises(ValidationError, match="nonempty"):
        SweepSpec(Axis.ACCURACY, world_spec(), (), ALL)
    with pytest.raises(ValidationError, match="increasing"):
        SweepSpec(Axis.ACCURACY, world_spec(), (0.3, 0.1), ALL)
    with pytest.raises(ValidationError, match="detector"):
        SweepSpec(Axis.ACCURACY, world_spec(), (0.1,), ())


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize(
    "axis, world, grid",
    [
        (Axis.ACCURACY, world_spec(), (0.1,)),
        (Axis.DOMAIN_DISTANCE, world_spec(), (1.0,)),
        (Axis.DOMAIN_DISTANCE, "world.manifest", ("d2",)),
        (Axis.IMBALANCE, world_spec(), (Balanced(20),)),
    ],
)
def test_sweep_spec_rejects_n_per_side_below_one(axis, world, grid, n):
    with pytest.raises(ValidationError, match=f"n_per_side must be >= 1, got {n}"):
        SweepSpec(axis, world, grid, ALL, n_per_side=n)


# ---------------------------------------------------------------------------
# accuracy axis


def test_accuracy_sweep_single_point_single_detector():
    spec = SweepSpec(
        Axis.ACCURACY, world_spec(), (0.1,), (DetectorConfig(Method.EBM),), seed=3
    )
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.method == "ebm" and row.axis_value == 0.1
    assert row.n_id == row.n_ood
    assert 0.0 <= row.auroc <= 1.0 and 0.0 <= row.fpr95 <= 1.0


def test_accuracy_sweep_accuracy_strictly_decreasing():
    base = SyntheticSpec(
        classes=100, dim=16, class_separation=3.0, within_class_sigma=1.0,
        ood_distance=2.0, law=Balanced(100), seed=11,
    )
    spec = SweepSpec(
        Axis.ACCURACY, base, (0.0, 0.3), (DetectorConfig(Method.EBM),), seed=3
    )
    result = run_sweep(spec)
    accs = [r.classifier_accuracy for r in result.rows]
    assert accs[1] < accs[0]


def test_accuracy_sweep_deterministic():
    spec = SweepSpec(Axis.ACCURACY, world_spec(), (0.0, 0.2), ALL, seed=3)
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert a.to_jsonl() == b.to_jsonl()
    assert a.to_summary_json() == b.to_summary_json()


def test_accuracy_sweep_rejects_manifest(tmp_path):
    spec = SweepSpec(Axis.ACCURACY, tmp_path / "m.manifest", (0.1,), ALL)
    with pytest.raises(ValidationError, match="synthetic"):
        run_sweep(spec)


# ---------------------------------------------------------------------------
# domain-distance axis


def test_domain_sweep_single_distance_three_detectors():
    spec = SweepSpec(Axis.DOMAIN_DISTANCE, world_spec(), (1.5,), ALL, seed=3)
    result = run_sweep(spec)
    assert len(result.rows) == 3
    assert [r.method for r in result.rows] == ["msp", "ebm", "mah"]
    assert len({r.n_id for r in result.rows} | {r.n_ood for r in result.rows}) == 1


def test_domain_sweep_trend_and_size_matching():
    base = SyntheticSpec(
        classes=20, dim=16, class_separation=1.0, within_class_sigma=1.0,
        law=Balanced(670), seed=5,
    )
    spec = SweepSpec(
        Axis.DOMAIN_DISTANCE, base, (0.5, 4.0),
        (DetectorConfig(Method.EBM),), seed=17, n_per_side=2000,
    )
    result = run_sweep(spec)
    by_value = {r.axis_value: r for r in result.rows}
    assert by_value[4.0].auroc > by_value[0.5].auroc
    assert all(r.n_id == r.n_ood == 2000 for r in result.rows)


def _manifest_world(tmp_path):
    world = generate_world(world_spec(), ood_distances=(0.5, 3.0))
    files = {
        "id2.oodf": (world.id_fit, Role.ID_FIT_DETECTOR, ""),
        "id3.oodf": (world.id_test, Role.ID_TEST, ""),
        "near.oodf": (world.ood_tables["d0.5"], Role.OOD_TEST, "near"),
        "far.oodf": (world.ood_tables["d3"], Role.OOD_TEST, "far"),
    }
    entries = []
    for fname, (table, role, name) in files.items():
        write_feature_table(table, tmp_path / fname)
        entries.append(ManifestEntry(fname, role, TableFormat.BINARY_DUMP, name))
    manifest = DatasetManifest(tuple(entries), name="disk", base_dir=tmp_path)
    path = tmp_path / "world.manifest"
    manifest.write(path)
    return path


def test_domain_sweep_from_manifest(tmp_path):
    path = _manifest_world(tmp_path)
    spec = SweepSpec(Axis.DOMAIN_DISTANCE, path, ("near", "far"), ALL, seed=3)
    result = run_sweep(spec)
    assert len(result.rows) == 6
    by = {(r.axis_value, r.method): r.auroc for r in result.rows}
    assert by[("far", "ebm")] > by[("near", "ebm")]
    assert result.rows[0].classifier_accuracy is not None


def test_domain_sweep_manifest_unknown_name(tmp_path):
    path = _manifest_world(tmp_path)
    spec = SweepSpec(Axis.DOMAIN_DISTANCE, path, ("nowhere",), ALL, seed=3)
    with pytest.raises(ValidationError, match="nowhere"):
        run_sweep(spec)


# ---------------------------------------------------------------------------
# imbalance axis


def imbalance_spec(**kw):
    base = dict(
        axis=Axis.IMBALANCE,
        base_world=SyntheticSpec(
            classes=20, dim=16, class_separation=3.0, within_class_sigma=1.0,
            ood_distance=1.2, law=Balanced(2600), seed=8,
        ),
        grid=(Balanced(15), UnbalancedPowerlaw(2.0, 300), UnbalancedUniform(300)),
        detectors=ALL,
        seed=99,
    )
    base.update(kw)
    return SweepSpec(**base)


def test_imbalance_sweep_shape_and_flat_discriminative_rows():
    result = run_sweep(imbalance_spec())
    assert len(result.rows) == 9
    for method in ("msp", "ebm"):
        rows = [(r.auroc, r.fpr95) for r in result.rows if r.method == method]
        assert len(set(rows)) == 1  # no detector-fit dependence by construction


def test_imbalance_sweep_mah_prefers_balanced():
    result = run_sweep(imbalance_spec())
    mah = {r.axis_value: r.auroc for r in result.rows if r.method == "mah"}
    assert mah["balanced:15"] - mah["powerlaw:2:300"] > 0


def test_imbalance_sweep_equal_totals_enforced():
    spec = imbalance_spec(grid=(Balanced(15), UnbalancedPowerlaw(2.0, 200)))
    with pytest.raises(ValidationError, match="equal totals"):
        run_sweep(spec)


@pytest.mark.parametrize(
    "world, laws, message",
    [
        (world_spec(), (Balanced(10), Balanced(20)), "equal totals over 5 classes"),
        (world_spec(label_noise=0.1), (UnbalancedUniform(3),), "total 3 cannot cover 5 classes"),
    ],
    ids=["unequal-totals", "noisy-world-short-law"],
)
def test_imbalance_laws_checked_before_the_world_is_drawn(monkeypatch, world, laws, message):
    def refuse(*args, **kwargs):
        raise AssertionError("generated a world before rejecting the grid")

    monkeypatch.setattr(experiments, "generate_world", refuse)
    with pytest.raises(ValidationError, match=message):
        run_sweep(SweepSpec(Axis.IMBALANCE, world, laws, ALL))


def test_imbalance_grid_type_checked():
    spec = imbalance_spec(grid=(0.5, 1.0))
    with pytest.raises(ValidationError, match="count laws"):
        run_sweep(spec)


def test_imbalance_sweep_from_manifest(tmp_path):
    path = _manifest_world(tmp_path)
    spec = SweepSpec(
        Axis.IMBALANCE,
        path,
        (Balanced(3), UnbalancedUniform(15)),
        (DetectorConfig(Method.MAH),),
        seed=3,
    )
    result = run_sweep(spec)
    assert len(result.rows) == 2
    assert {r.axis_value for r in result.rows} == {"balanced:3", "uniform:15"}


# ---------------------------------------------------------------------------
# result plumbing


def test_rows_respect_auroc_fpr95_implication():
    result = run_sweep(imbalance_spec())
    for row in result.rows:
        if row.auroc == 1.0:
            assert row.fpr95 == 0.0
        assert 0.0 <= row.auroc <= 1.0
        assert 0.0 <= row.fpr95 <= 1.0


def test_jsonl_and_summary_structure():
    result = run_sweep(
        SweepSpec(Axis.DOMAIN_DISTANCE, world_spec(), (1.0, 2.0), ALL, seed=3)
    )
    lines = result.to_jsonl().strip().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert list(first) == [
        "axis", "axis_value", "method", "classifier_accuracy",
        "auroc", "fpr95", "n_id", "n_ood",
    ]
    summary = json.loads(result.to_summary_json())
    assert summary["provenance"]["axis"] == "domain_distance"
    assert summary["provenance"]["base_world"]["law"] == "balanced:120"
    assert len(summary["rows"]) == 6
    stamped = json.loads(result.to_summary_json(timestamp="2026-01-01T00:00:00Z"))
    assert stamped["timestamp"] == "2026-01-01T00:00:00Z"


def test_run_sweep_dispatch():
    acc = SweepSpec(Axis.ACCURACY, world_spec(), (0.1,), (DetectorConfig(Method.MSP),))
    assert run_sweep(acc).rows[0].axis == "accuracy"


# ---------------------------------------------------------------------------
# the one sweep loop: fixed outputs, score once, grid checked up front

#: sha256 of rows.jsonl for one small sweep per axis, recorded with the
#: per-axis run_*_sweep functions that run_sweep replaced. Never regenerate
#: these to make a test pass: a change here is a change in the sweep's output.
ROWS_SHA256 = {
    "accuracy": "6f9e11b336806a526ae9f8a8b6881345107accc446c295f43881bd55f2067e92",
    "domain": "e278b00030bdd20a693666d7e16302c41d4aca6889778ca71764da9bdd94703d",
    "domain-manifest": "e07b9ff01bf0a0b7cb0420f6cc65d3513d818d0e741cbf7e58a62e9e0a518716",
    "imbalance": "ce9d9c32c3306ece7558153ec80083ae23c08592a89a5fc112d251aa90838b36",
    "imbalance-manifest": "fcea31b4ddab37c8cc16918c5d647d58fadd72b069dfd49038addd2c41d958d5",
}


def _digest_spec(name, tmp_path=None):
    laws = (Balanced(20), UnbalancedPowerlaw(1.5, 100), UnbalancedUniform(100))
    if name == "accuracy":
        return SweepSpec(Axis.ACCURACY, world_spec(), (0.0, 0.1, 0.3), ALL,
                         seed=3, n_per_side=150)
    if name == "domain":
        return SweepSpec(Axis.DOMAIN_DISTANCE, world_spec(), (0.5, 1.0, 3.0), ALL,
                         seed=3, n_per_side=150)
    if name == "imbalance":
        return SweepSpec(Axis.IMBALANCE, world_spec(law=Balanced(400)), laws, ALL,
                         seed=5, n_per_side=150)
    path = _manifest_world(tmp_path)
    if name == "domain-manifest":
        return SweepSpec(Axis.DOMAIN_DISTANCE, path, ("far", "near"), ALL,
                         seed=3, n_per_side=150)
    return SweepSpec(Axis.IMBALANCE, path, (Balanced(8), UnbalancedUniform(40)), ALL,
                     seed=5)


@pytest.mark.parametrize("name", sorted(ROWS_SHA256))
def test_rows_match_recorded_digests(name, tmp_path):
    text = run_sweep(_digest_spec(name, tmp_path)).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_SHA256[name]


#: sha256 of the stamped summary.json of the synthetic digest sweeps, recorded
#: with the hand-written provenance and row key lists that the dataclass
#: fields replaced. (A manifest sweep's provenance holds its path.)
SUMMARY_SHA256 = {
    "accuracy": "6809a7026b91d7d278d1770255be4e6db6f9c79a6e59193b270aee1117e5c418",
    "domain": "70785f882e65a454b47cc86e9d69402709f185b53ddbe57d07242fc390a25865",
    "imbalance": "c438517db6ca0898a4a03df87b41cdb0ee16d2ec0727e9aa2cd2e2efb54056ba",
}


@pytest.mark.parametrize("name", sorted(SUMMARY_SHA256))
def test_summary_matches_recorded_digests(name):
    text = run_sweep(_digest_spec(name)).to_summary_json("2026-01-01T00:00:00Z")
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_SHA256[name]


@pytest.fixture
def calls(monkeypatch):
    """Count the fits and the scorings, by method, that the sweep makes."""
    counts = {"fit": 0, "msp": 0, "ebm": 0, "mah": 0}
    fit, score = experiments.fit_mahalanobis, experiments.score_table

    def counting_fit(*args, **kwargs):
        counts["fit"] += 1
        return fit(*args, **kwargs)

    def counting_score(config, *args, **kwargs):
        counts[config.method.value] += 1
        return score(config, *args, **kwargs)

    monkeypatch.setattr(experiments, "fit_mahalanobis", counting_fit)
    monkeypatch.setattr(experiments, "score_table", counting_score)
    return counts


def test_domain_sweep_scores_each_table_once(calls):
    grid = (0.5, 1.0, 2.0, 4.0)
    run_sweep(SweepSpec(Axis.DOMAIN_DISTANCE, world_spec(), grid, ALL, seed=3))
    # one ID test set for the whole grid, one OOD set per grid point
    g = len(grid)
    assert calls == {"fit": 1, "msp": g + 1, "ebm": g + 1, "mah": g + 1}


def test_imbalance_sweep_scores_fixed_detectors_once(calls):
    spec = _digest_spec("imbalance")
    run_sweep(spec)
    g = len(spec.grid)
    assert calls == {"fit": g, "msp": 2, "ebm": 2, "mah": 2 * g}


def test_accuracy_sweep_fits_and_scores_per_world(calls):
    spec = _digest_spec("accuracy")
    run_sweep(spec)
    g = len(spec.grid)
    assert calls == {"fit": g, "msp": 2 * g, "ebm": 2 * g, "mah": 2 * g}


def test_accuracy_sweep_draws_its_world_once(monkeypatch):
    """One ID draw sums every level's train labels, then one OOD cloud is
    drawn; the levels differ in labels, centers and logits only."""
    drawn, draw = [], synthetic._draw_clusters

    def recording_draw(*args, summed=None):
        drawn.append(summed is not None)
        return draw(*args, summed=summed)

    monkeypatch.setattr(synthetic, "_draw_clusters", recording_draw)
    rows = run_sweep(_digest_spec("accuracy")).rows
    assert drawn == [True, False]
    assert len({r.classifier_accuracy for r in rows}) == 3


def test_short_class_in_later_law_raises_before_any_fit(calls):
    # the fit split holds 60 rows per class: powerlaw:1.5:100 asks class 0
    # for 57 of them, powerlaw:3:100 for more than 60
    spec = SweepSpec(
        Axis.IMBALANCE, world_spec(law=Balanced(400)),
        (UnbalancedPowerlaw(1.5, 100), UnbalancedPowerlaw(3.0, 100)), ALL, seed=5,
    )
    with pytest.raises(ValidationError, match="class 0 has 60 samples"):
        run_sweep(spec)
    assert calls == {"fit": 0, "msp": 0, "ebm": 0, "mah": 0}


def test_laws_cover_the_classes_the_fit_table_holds():
    # powerlaw:2:300 leaves 12 of the 20 classes under 3 rows, so none of
    # their rows reaches the fit split: uniform:8 covers the 8 that do
    spec = SweepSpec(
        Axis.IMBALANCE, world_spec(classes=20, law=UnbalancedPowerlaw(2.0, 300)),
        (UnbalancedUniform(8),), (DetectorConfig(Method.EBM),),
    )
    with pytest.warns(UserWarning, match="assigning to ID1"):
        (row,) = run_sweep(spec).rows
    assert row.axis_value == "uniform:8"


def test_unknown_ood_name_raises_before_any_table_is_read(tmp_path, monkeypatch, calls):
    path = _manifest_world(tmp_path)
    loaded = []
    load = DatasetManifest.load

    def recording_load(self, entry):
        loaded.append(entry)
        return load(self, entry)

    monkeypatch.setattr(DatasetManifest, "load", recording_load)
    spec = SweepSpec(Axis.DOMAIN_DISTANCE, path, ("near", "nowhere"), ALL, seed=3)
    with pytest.raises(ValidationError, match="nowhere"):
        run_sweep(spec)
    assert loaded == []
    assert calls == {"fit": 0, "msp": 0, "ebm": 0, "mah": 0}


def test_imbalance_manifest_without_fit_table_raises_before_any_table_is_read(
    tmp_path, monkeypatch
):
    path = _manifest_world(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("ID_FIT_DETECTOR")))

    def refuse(self, entry):
        raise AssertionError(f"read {entry.path} before rejecting the manifest")

    monkeypatch.setattr(DatasetManifest, "load", refuse)
    spec = SweepSpec(Axis.IMBALANCE, path, (Balanced(3),), ALL)
    with pytest.raises(ValidationError, match="one ID_FIT_DETECTOR entry, found 0"):
        run_sweep(spec)


def test_domain_manifest_without_fit_table_rejects_mah_before_any_table_is_read(
    tmp_path, monkeypatch
):
    path = _manifest_world(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("ID_FIT_DETECTOR")))
    loaded = []
    load = DatasetManifest.load

    def recording_load(self, entry):
        loaded.append(entry.path)
        return load(self, entry)

    monkeypatch.setattr(DatasetManifest, "load", recording_load)
    spec = SweepSpec(Axis.DOMAIN_DISTANCE, path, ("near", "far"), ALL, seed=3)
    with pytest.raises(ValidationError, match="mahalanobis detector needs a fit table"):
        run_sweep(spec)
    assert loaded == []
    # the logit detectors need no fit table
    logit_only = SweepSpec(Axis.DOMAIN_DISTANCE, path, ("near", "far"), ALL[:2], seed=3)
    assert len(run_sweep(logit_only).rows) == 4


@pytest.fixture
def manifest_io(monkeypatch):
    """Record, in order, the manifests read and the entries loaded."""
    log = {"read": [], "load": []}
    read, load = DatasetManifest.read, DatasetManifest.load

    def recording_read(path):
        log["read"].append(Path(path).name)
        return read(path)

    def recording_load(self, entry):
        log["load"].append(entry.path)
        return load(self, entry)

    monkeypatch.setattr(DatasetManifest, "read", staticmethod(recording_read))
    monkeypatch.setattr(DatasetManifest, "load", recording_load)
    return log


LAWS_15 = (Balanced(3), UnbalancedUniform(15))


@pytest.mark.parametrize("axis, grid, detectors, loaded", [
    (Axis.DOMAIN_DISTANCE, ("near", "far"), ALL[:2], ["id3.oodf", "near.oodf", "far.oodf"]),
    (Axis.DOMAIN_DISTANCE, ("near", "far"), ALL, ["id2.oodf", "id3.oodf", "near.oodf", "far.oodf"]),
    (Axis.IMBALANCE, LAWS_15, ALL[:2], ["id2.oodf", "id3.oodf", "near.oodf"]),
    (Axis.IMBALANCE, LAWS_15, ALL, ["id2.oodf", "id3.oodf", "near.oodf"]),
], ids=["domain-logit", "domain-mah", "imbalance-logit", "imbalance-mah"])
def test_manifest_sweep_reads_its_manifest_once_and_a_used_fit_table_first(
    tmp_path, manifest_io, axis, grid, detectors, loaded
):
    """The fit table is read only where it is resampled or fitted: the msp
    and ebm domain sweep reads no ID_FIT_DETECTOR entry."""
    run_sweep(SweepSpec(axis, _manifest_world(tmp_path), grid, detectors, seed=3))
    assert manifest_io == {"read": ["world.manifest"], "load": loaded}


def test_bad_imbalance_grid_fails_after_reading_only_the_fit_table(tmp_path, manifest_io, calls):
    spec = SweepSpec(Axis.IMBALANCE, _manifest_world(tmp_path),
                     (Balanced(3), UnbalancedUniform(16)), ALL, seed=3)
    message = r"^imbalance laws must request equal totals over 5 classes, got \[15, 16\]$"
    with pytest.raises(ValidationError, match=message):
        run_sweep(spec)
    assert manifest_io == {"read": ["world.manifest"], "load": ["id2.oodf"]}
    assert calls == {"fit": 0, "msp": 0, "ebm": 0, "mah": 0}


@pytest.mark.parametrize("axis, grid, detectors", [
    (Axis.DOMAIN_DISTANCE, ("near", "far"), ALL[:2]),
    (Axis.DOMAIN_DISTANCE, ("near", "far"), ALL),
    (Axis.IMBALANCE, LAWS_15, ALL[:2]),
], ids=["domain-logit", "domain-mah", "imbalance-logit"])
def test_two_fit_entries_rejected_by_every_manifest_sweep(
    tmp_path, manifest_io, axis, grid, detectors
):
    """Also by a sweep that reads no fit table, and before any table is read."""
    path = _manifest_world(tmp_path)
    text = path.read_text()
    path.write_text(text + next(l for l in text.splitlines(keepends=True)
                                if l.startswith("ID_FIT_DETECTOR")))
    with pytest.raises(ValidationError,
                       match="^manifest needs exactly one ID_FIT_DETECTOR entry, found 2$"):
        run_sweep(SweepSpec(axis, path, grid, detectors, seed=3))
    assert manifest_io == {"read": ["world.manifest"], "load": []}


@pytest.mark.parametrize("axis, grid, bound", [
    (Axis.ACCURACY, (0.0, 0.2, 0.4), 1.23),
    (Axis.DOMAIN_DISTANCE, (0.5, 1.0, 2.0), 1.15),
])
def test_sweep_peak_memory_near_one_world(axis, grid, bound, block_rows, traced_peak):
    """A sweep draws its world once without storing its classifier-train
    split, and keeps only the tables it scores, and of those only the last
    grid point's while the next level's logits are taken: the traced peak of
    a three-point sweep, with blocks of 4096 rows at its d=32, stays near
    the float32 bytes of one whole world (train split included).

    The accuracy bound is its measured ratio (1.13) plus 0.1, which the
    former world per level (1.45) exceeds; the domain bound sits above its
    1.02. A sweep that draws its world with the train split (1.67 and 1.21)
    goes past either.
    """
    import scipy.linalg  # noqa: F401  (mah imports it on first use)

    base = world_spec(classes=8, dim=32, law=Balanced(4000), seed=2)
    block_rows(4096, 32)
    detectors = (DetectorConfig(Method.EBM), DetectorConfig(Method.MAH))
    world = generate_world(base, ood_distances=grid if axis == Axis.DOMAIN_DISTANCE else None)
    tables = [world.id_train, world.id_fit, world.id_test, *world.ood_tables.values()]
    world_bytes = sum(t.features.nbytes + t.logits.nbytes for t in tables)
    del world, tables
    run_sweep(SweepSpec(axis, world_spec(), grid, detectors))  # first-call allocations
    peak = traced_peak(lambda: run_sweep(SweepSpec(axis, base, grid, detectors)))[1]
    assert peak <= bound * world_bytes, peak / world_bytes
