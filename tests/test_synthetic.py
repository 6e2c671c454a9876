"""World generation, count laws, imbalanced subsampling, and the oracles."""

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oodgate import (
    UNLABELED,
    Balanced,
    FeatureTable,
    NumericalError,
    SplitPolicy,
    SyntheticSpec,
    UnbalancedPowerlaw,
    UnbalancedUniform,
    ValidationError,
    auroc,
    direct_mahalanobis_oracle,
    fit_mahalanobis,
    generate_world,
    pairwise_auroc_oracle,
    parse_law,
    roc_curve,
    sample_imbalanced,
    score_energy,
    score_mahalanobis,
)
from oodgate import synthetic


def small_spec(**kw):
    base = dict(
        classes=4, dim=3, class_separation=2.0, within_class_sigma=0.5,
        law=Balanced(30), seed=7,
    )
    base.update(kw)
    return SyntheticSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(ValidationError, match="c >= 2"):
        small_spec(classes=1)
    with pytest.raises(ValidationError, match="d >= 2"):
        small_spec(dim=1)
    with pytest.raises(ValidationError):
        small_spec(within_class_sigma=0.0)
    with pytest.raises(ValidationError):
        small_spec(label_noise=1.0)
    with pytest.raises(ValidationError):
        small_spec(ood_distance=-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["class_separation", "within_class_sigma", "ood_distance"])
def test_spec_rejects_non_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        small_spec(**{name: value})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate_world(small_spec(law=Balanced(0))), "balanced law needs per_class >= 1"),
        (lambda: small_spec(seed=-1), "seed must be a nonnegative integer"),
    ],
    ids=["balanced-0", "spec-seed"],
)
def test_law_and_seed_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValidationError, message)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if generate_world draws a single cluster."""

    def refuse(*args):
        raise AssertionError("drew clusters before rejecting the input")

    monkeypatch.setattr(synthetic, "_draw_clusters", refuse)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"ood_distances": (1.0, math.inf)}, "ood distances must be finite"),
        ({"ood_distances": (math.nan,)}, "ood distances must be finite"),
        ({"ood_distances": (0.5, -1.0)}, "ood distances must be finite and >= 0"),
        ({"n_ood": 0}, "n_ood must be >= 1"),
        # clouds are keyed by name, so the later cloud would replace the earlier
        ({"ood_distances": (1.0, 1.0000001)},
         "^ood distances 1.0 and 1.0000001 share the table name 'd1'$"),
        ({"ood_distances": (2, 0.5, 2.0)}, "^ood distances 2 and 2.0 share the table name 'd2'$"),
    ],
)
def test_generate_world_rejects_before_drawing(no_draws, kwargs, message):
    with pytest.raises(ValidationError, match=message):
        generate_world(small_spec(), **kwargs)


@pytest.mark.parametrize("alpha", [-500.0, math.nan])
def test_powerlaw_non_finite_weights_rejected_before_drawing(no_draws, alpha):
    law = UnbalancedPowerlaw(alpha, 1000)
    with pytest.raises(ValidationError, match=f"count law {law.text()} has non-finite"):
        generate_world(small_spec(classes=142, dim=2, law=law))


def test_powerlaw_weight_sum_overflow_rejected():
    """Each weight k**58 is finite for k <= 200000, but their sum is not."""
    with pytest.raises(ValidationError, match="non-finite weights"):
        UnbalancedPowerlaw(-58.0, 10**6).class_sizes(200_000, None)


# ---------------------------------------------------------------------------
# world generation


def test_world_deterministic():
    spec = small_spec()
    a = generate_world(spec)
    b = generate_world(spec)
    assert a.id_train == b.id_train
    assert a.id_fit == b.id_fit
    assert a.id_test == b.id_test
    assert all(a.ood_tables[k] == b.ood_tables[k] for k in a.ood_tables)
    assert a.classifier_accuracy == b.classifier_accuracy
    assert (a.true_means == b.true_means).all()


def test_world_shapes_and_labels():
    w = generate_world(small_spec(), ood_distances=(0.5, 3.0), n_ood=40)
    assert set(w.ood_tables) == {"d0.5", "d3"}
    for t in w.ood_tables.values():
        assert t.n == 40 and not t.is_labeled and t.c == 4
    assert w.id_fit.is_labeled and w.id_test.is_labeled
    assert w.id_test.c == 4
    assert w.id_train.n + w.id_fit.n + w.id_test.n == 120
    assert (np.linalg.norm(w.true_means, axis=1) > 0).all()
    np.testing.assert_allclose(np.linalg.norm(w.true_means, axis=1), 2.0, rtol=1e-12)


def test_separated_low_noise_world_is_perfectly_classified():
    w = generate_world(small_spec(class_separation=20.0, within_class_sigma=0.01))
    assert w.classifier_accuracy == 1.0


def test_fully_randomized_two_class_accuracy_near_half():
    # needs overlapping clusters: with tight clusters a fully random center
    # pair classifies each cluster wholesale and accuracy is bimodal
    spec = SyntheticSpec(
        classes=2, dim=16, class_separation=1.0, within_class_sigma=2.0,
        label_noise=0.5, law=Balanced(5000), seed=3,
    )
    w = generate_world(spec)
    assert abs(w.classifier_accuracy - 0.5) <= 0.05


def test_accuracy_monotone_nonincreasing_in_label_noise():
    base = SyntheticSpec(
        classes=100, dim=16, class_separation=3.0, within_class_sigma=1.0,
        law=Balanced(100), seed=11,
    )
    accs = [
        generate_world(replace(base, label_noise=p)).classifier_accuracy
        for p in (0.0, 0.15, 0.3, 0.45, 0.6)
    ]
    assert all(b <= a + 0.01 for a, b in zip(accs, accs[1:]))
    assert accs[-1] < accs[0] - 0.05  # the knob actually moves


def test_accuracy_bounds():
    w = generate_world(small_spec(label_noise=0.3))
    assert 1 / 4 - 0.1 <= w.classifier_accuracy <= 1.0


def test_distance_zero_cloud_sits_on_centroid():
    w = generate_world(small_spec(), ood_distances=(0.0,), n_ood=4000)
    centroid = w.true_means.mean(axis=0)
    cloud_mean = w.ood_tables["d0"].features.mean(axis=0)
    assert np.linalg.norm(cloud_mean - centroid) < 0.2


def test_ebm_auroc_nondecreasing_in_ood_distance():
    spec = SyntheticSpec(
        classes=20, dim=16, class_separation=1.0, within_class_sigma=1.0,
        law=Balanced(700), seed=5,
    )
    distances = (0.0, 0.5, 1.0, 2.0, 4.0)
    w = generate_world(spec, ood_distances=distances, n_ood=2000)
    id_scores = score_energy(w.id_test.logits)
    values = [
        auroc(roc_curve(id_scores, score_energy(w.ood_tables[f"d{d:g}"].logits)))
        for d in distances
    ]
    assert all(b >= a - 0.01 for a, b in zip(values, values[1:]))


#: sha256 over every table's features, logits and labels, the classifier
#: centers and the accuracy, recorded with the generator that drew each class
#: as a float64 block and took logits in one whole-table GEMM (the last two
#: with the one that cast each class into a float32 pool and split copies of
#: it). Never regenerate these to make a test pass: a change here is a change
#: in the world.
WORLD_SHA256 = {
    "ood-4096": "f9488a87463e3a836f195e461a2a963a544e3f68759b796836e62588831aabf4",
    "ood-4097": "7f1989416a1c3de9f2f8980351a32e0de2516d423fee26a78bf34c718554444e",
    "ood-8193": "b0d3c0a4901b723e1c09fb529196f4f9b14a43c7dab27c90467c51e6546582f3",
    "ood-1": "ec0371602452beea06fbe34a8682ac22809eafebe1b23585e2f8bdcf74f7bce3",
    "powerlaw": "c7b837748bae1b92f66954a1f4690464e01fdad8be2d80e4c05f17cef6da7e0c",
    "empty-class": "72a7b62aa1cc7e3fd6521a52059e4e66ffefcedcb5672167ca54f3060dfee3ff",
    "split-0.2-0.84": "ca8379c3c6df811ad58e8fa3216fd99c1bfe376c81f7a0822617fac413e281ef",
    "tiny-classes": "70b321c2a06983762f4639a8ef81b96a7f25bcd58dbf52c7e9ad597e56293bba",
}

#: The split warnings of the ``tiny-classes`` world (class sizes 45, 6, 2, 1 x 7).
TINY_CLASS_WARNINGS = ["class 2 has only 2 sample(s); assigning to ID1/ID3"] + [
    f"class {k} has only 1 sample(s); assigning to ID1" for k in range(3, 10)
]


def _digest_world(name, **kw):
    """The world of one ``WORLD_SHA256`` case; OOD sizes and the powerlaw
    train split sit on and just past the 4096-row block edges, the
    empty-class noise leaves some class without a noisy train label, the
    split case uses the benchmark's split with a seed of its own, and the
    tiny classes take the split's 1- and 2-row branches. ``kw`` goes to
    ``generate_world``."""
    if name.startswith("ood-"):
        spec = SyntheticSpec(classes=7, dim=24, law=Balanced(50), seed=3)
        return generate_world(spec, ood_distances=(0.5, 2.0), n_ood=int(name[4:]), **kw)
    if name == "powerlaw":
        spec = SyntheticSpec(classes=6, dim=20, law=UnbalancedPowerlaw(1.2, 7000),
                             label_noise=0.2, seed=8)
        return generate_world(spec, **kw)
    if name == "split-0.2-0.84":
        spec = SyntheticSpec(classes=9, dim=12, law=Balanced(40), label_noise=0.1, seed=6)
        return generate_world(spec, ood_distances=(1.0,), n_ood=50,
                              split=SplitPolicy(0.2, 0.84, seed=13), **kw)
    if name == "tiny-classes":
        spec = SyntheticSpec(classes=10, dim=6, law=UnbalancedPowerlaw(3.0, 60), seed=9)
        return generate_world(spec, **kw)
    spec = SyntheticSpec(classes=30, dim=5, law=Balanced(3), label_noise=0.9, seed=4)
    return generate_world(spec, n_ood=9, **kw)


def _world_sha256(world):
    tables = [world.id_train, world.id_fit, world.id_test, *world.ood_tables.values()]
    h = hashlib.sha256()
    for table in tables:
        for arr in (table.features, table.logits, table.labels):
            h.update(arr.tobytes())
    h.update(world.classifier_centers.tobytes())
    h.update(repr(world.classifier_accuracy).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(WORLD_SHA256))
def test_world_bytes_pinned(name, block_rows):
    """Each world is drawn with the production block budget, then with the
    4096-row blocks at its width whose edges the sizes above sit on."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        world = _digest_world(name)
    expected = TINY_CLASS_WARNINGS if name == "tiny-classes" else []
    assert [str(w.message) for w in caught] == expected
    assert _world_sha256(world) == WORLD_SHA256[name]
    block_rows(4096, max(world.id_train.c, world.id_train.d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _world_sha256(_digest_world(name)) == WORLD_SHA256[name]
    if name == "empty-class":  # the global-mean fallback ran
        assert np.bincount(world.id_train.labels, minlength=30).min() == 0
    if name == "powerlaw":
        assert world.id_train.n > 4096 + 1


@pytest.mark.parametrize("name", list(WORLD_SHA256))
def test_world_drawn_without_train_split_matches_the_pinned_world(name):
    """``keep_train=False`` still draws the train split, so the other tables,
    the centers summed from it and the accuracy keep every bit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lean = _digest_world(name, keep_train=False)
        full = _digest_world(name)
    expected = TINY_CLASS_WARNINGS if name == "tiny-classes" else []
    assert [str(w.message) for w in caught] == expected * 2
    assert _world_sha256(full) == WORLD_SHA256[name]
    assert lean.id_train is None
    assert list(lean.ood_tables) == list(full.ood_tables)
    pairs = zip([lean.id_fit, lean.id_test, *lean.ood_tables.values()],
                [full.id_fit, full.id_test, *full.ood_tables.values()])
    for a, b in pairs:
        for x, y in ((a.features, b.features), (a.logits, b.logits), (a.labels, b.labels)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert lean.classifier_centers.tobytes() == full.classifier_centers.tobytes()
    assert repr(lean.classifier_accuracy) == repr(full.classifier_accuracy)
    # each center is the float64 mean of its (noisy) label's train rows, or of
    # the whole split for a label the noise emptied
    train = full.id_train.features.astype(np.float64)
    for k, center in enumerate(full.classifier_centers):
        rows = train[full.id_train.labels == k]
        assert center.tobytes() == (rows if len(rows) else train).mean(axis=0).tobytes()


@pytest.mark.filterwarnings("ignore:class")
@pytest.mark.parametrize("keep_train", [True, False], ids=["with-train", "lean"])
@pytest.mark.parametrize(
    "world, noises, emptied",
    [
        (dict(classes=30, dim=16, law=UnbalancedPowerlaw(1.0, 60), seed=9),
         (0.0, 0.3, 0.5, 0.9), [0, 4, 4, 7]),
        (dict(classes=40, dim=8, law=UnbalancedPowerlaw(0.5, 90), seed=4),
         (0.0, 0.5, 0.9), [0, 11, 8]),
    ],
    ids=["c30", "c40"],
)
def test_levels_of_one_draw_match_their_own_worlds(world, noises, emptied, keep_train):
    """Each label-noise level of one draw has the bytes of every table, the
    centers and the accuracy of its own world, also where the noise empties
    train classes at some levels only (``emptied`` counts them per level)."""
    levels = [SyntheticSpec(**world, label_noise=p) for p in noises]
    counts = []
    for level, drawn in zip(levels, synthetic._worlds(levels, keep_train=keep_train)):
        own = generate_world(level, keep_train=keep_train)
        assert drawn.spec == level
        assert list(drawn.ood_tables) == list(own.ood_tables)
        tables = [drawn.id_train, drawn.id_fit, drawn.id_test, *drawn.ood_tables.values()]
        for a, b in zip(tables, [own.id_train, own.id_fit, own.id_test,
                                 *own.ood_tables.values()]):
            if a is None:
                assert b is None and not keep_train
                continue
            for x, y in ((a.features, b.features), (a.logits, b.logits), (a.labels, b.labels)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert drawn.classifier_centers.tobytes() == own.classifier_centers.tobytes()
        assert repr(drawn.classifier_accuracy) == repr(own.classifier_accuracy)
        full = own if keep_train else generate_world(level)
        counts.append(level.classes - np.unique(full.id_train.labels).size)
    assert counts == emptied


class _Draws:
    """A stand-in generator whose ``standard_normal`` hands out given blocks."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)

    def standard_normal(self, shape):
        block = next(self.blocks)
        assert block.shape == shape
        return block


def test_draw_sums_have_the_bits_of_each_labels_mean():
    """The sums taken while drawing, over a count, are bit for bit
    ``rows.astype(np.float64).mean(axis=0)`` of each label's rows.

    The float32 values near 2**23 and near 2**-30 round differently in
    float64 when summed in another order, each label's rows are spread over
    the draw blocks (label 3 has one row in each), column 0 is all -0.0,
    whose mean is +0.0 (numpy's sum starts from its identity +0.0), and a
    second label column sums every row under label 4, as the global-mean
    fallback does.
    """
    rng = np.random.default_rng(5)
    sizes = np.array([13, 1, 20, 9, 26])
    n, d = int(sizes.sum()), 4
    big = 2.0**23 + rng.integers(0, 64, (n, d))
    small = (1.0 + rng.random((n, d))) * 2.0**-30
    values = np.where(rng.random((n, d)) < 0.4, big, small).astype(np.float32)
    values[:, 0] = -0.0
    rows = np.sort(rng.choice(n, size=50, replace=False))
    starts = np.cumsum(sizes) - sizes
    block_of = np.searchsorted(starts, rows, side="right") - 1
    labels = rng.integers(0, 3, rows.size)
    labels[np.flatnonzero(np.diff(block_of, prepend=-1))] = 3
    both = np.stack([labels, np.full_like(labels, 4)], axis=1)
    blocks = np.split(values.astype(np.float64), starts[1:])
    centers = np.full((sizes.size, d), -0.0)  # keeps each drawn value's bits
    (sums,) = synthetic._draw_clusters(centers, 1.0, sizes, [], _Draws(blocks), (rows, both))
    picked = values[rows]
    for label in range(4):
        mine = picked[labels == label]
        assert mine.shape[0] > 1
        expected = mine.astype(np.float64).mean(axis=0)
        assert (sums[label] / mine.shape[0]).tobytes() == expected.tobytes(), label
    expected = picked.astype(np.float64).mean(axis=0)
    assert (sums[4] / rows.size).tobytes() == expected.tobytes()


def _peak_and_returned_bytes(block_rows, traced_peak, keep_train):
    """The traced peak of one world's generation, with blocks of 4096 rows at
    its d=32, and the float32 bytes of the tables it returns."""
    spec = SyntheticSpec(classes=8, dim=32, law=Balanced(6000), seed=2)
    block_rows(4096, 32)
    generate_world(small_spec())  # first-call allocations are not the world's
    world, peak = traced_peak(lambda: generate_world(spec, keep_train=keep_train))
    assert (world.id_train is None) is not keep_train
    tables = [world.id_train, world.id_fit, world.id_test, *world.ood_tables.values()]
    return peak, sum(t.features.nbytes + t.logits.nbytes for t in tables if t is not None)


def test_generate_world_peak_memory_near_world_bytes(block_rows, traced_peak):
    """The traced peak stays within 1.5 times the float32 world it returns.

    Each class is drawn straight into its rows of the three split arrays and
    summed into the centers as it is drawn, and logits take one float64
    block at a time, so generation holds about one world plus one block. A
    pool of all draws that the split then copies, float64 class draws or a
    whole-split float64 copy each add at least half the world's bytes.
    """
    peak, world_bytes = _peak_and_returned_bytes(block_rows, traced_peak, keep_train=True)
    assert peak <= 1.5 * world_bytes, (peak, world_bytes)


def test_world_without_train_split_peak_memory_near_its_bytes(block_rows, traced_peak):
    """Without the train split the peak stays within 1.5 times the float32
    tables returned (it measures 1.48): the split's rows are summed as they
    are drawn and never stored, and each class block and the split's row
    indices are freed before the next allocation needs their room."""
    peak, world_bytes = _peak_and_returned_bytes(block_rows, traced_peak, keep_train=False)
    assert peak <= 1.5 * world_bytes, (peak, world_bytes)


@pytest.mark.filterwarnings("ignore:class")
@pytest.mark.parametrize("classes, match", [(2, "n=2 < 3"), (3, "received no samples")])
def test_unsplittable_world_fails_before_any_class_draw(monkeypatch, classes, match):
    def unreached(*args):
        raise AssertionError("a class sample was drawn")

    monkeypatch.setattr(synthetic, "_draw_clusters", unreached)
    with pytest.raises(ValidationError, match=match):
        generate_world(SyntheticSpec(classes=classes, dim=3, law=Balanced(1)))


def test_overflowing_draw_reported_at_its_row_of_all_draws():
    """Row 34 of all ID draws in class order (the 15th of class 1), whichever
    split part it lands in."""
    spec = SyntheticSpec(classes=3, dim=2, within_class_sigma=1.5e38, law=Balanced(20), seed=0)
    with pytest.raises(ValidationError, match="^non-finite value in features at row 34$"):
        generate_world(spec)


@pytest.mark.parametrize(
    "world, distances, message",
    [
        (dict(class_separation=1e308), None, "features"),
        (dict(within_class_sigma=1e-320), None, "logits"),
        ({}, (1e308,), "features"),
    ],
    ids=["separation-overflows", "sigma-underflows", "distance-overflows"],
)
def test_overflowing_world_rejected_without_a_warning(world, distances, message):
    """The suite's warning filter turns any warning into an error."""
    spec = SyntheticSpec(classes=3, dim=4, **world)
    with pytest.raises(ValidationError, match=f"^non-finite value in {message} at row 0$"):
        generate_world(spec, ood_distances=distances)


# ---------------------------------------------------------------------------
# count laws


def test_parse_law_round_trip():
    for text in ("balanced:411", "powerlaw:2:58362", "uniform:100"):
        assert parse_law(text).text() == text
    with pytest.raises(ValidationError):
        parse_law("balanced")
    with pytest.raises(ValidationError):
        parse_law("powerlaw:abc:10")
    with pytest.raises(ValidationError):
        parse_law("zipf:2:10")


def test_balanced_paper_scale_constant():
    assert Balanced(411).total(142) == 58362


def test_powerlaw_sizes_deterministic_and_min_one(rng):
    law = UnbalancedPowerlaw(2.0, 300)
    sizes = law.class_sizes(20, rng)
    assert sizes.sum() == 300 and (sizes >= 1).all()
    assert sizes[0] > sizes[1] > sizes[2]  # heavy head
    again = law.class_sizes(20, rng)
    assert (sizes == again).all()  # no rng dependence


def test_uniform_sizes_sum_and_min_one():
    law = UnbalancedUniform(100)
    from oodgate.synthetic import stream_rng

    sizes = law.class_sizes(4, stream_rng(99, 5))
    assert sizes.sum() == 100 and (sizes >= 1).all()
    again = law.class_sizes(4, stream_rng(99, 5))
    assert (sizes == again).all()


def test_apportion_total_too_small():
    with pytest.raises(ValidationError, match="cover"):
        UnbalancedUniform(3).class_sizes(4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# imbalanced subsampling


def nine_row_table():
    rng = np.random.default_rng(0)
    return FeatureTable(rng.normal(size=(9, 2)), None, np.repeat([0, 1, 2], 3))


def test_balanced_subsample_counts():
    t = nine_row_table()
    sub = sample_imbalanced(t, Balanced(2), seed=1)
    assert sub.n == 6
    assert (np.bincount(sub.labels) == 2).all()


def test_subsample_rows_verbatim():
    t = nine_row_table()
    sub = sample_imbalanced(t, UnbalancedUniform(6), seed=1)
    source_rows = {t.features[i].tobytes() for i in range(t.n)}
    for i in range(sub.n):
        assert sub.features[i].tobytes() in source_rows


def test_subsample_deterministic():
    t = nine_row_table()
    a = sample_imbalanced(t, UnbalancedUniform(6), seed=4)
    b = sample_imbalanced(t, UnbalancedUniform(6), seed=4)
    assert a == b


def test_subsample_insufficient_class_named():
    t = nine_row_table()
    with pytest.raises(ValidationError, match="class 0"):
        sample_imbalanced(t, Balanced(5), seed=1)


def test_subsample_requires_labels():
    t = FeatureTable(np.zeros((4, 2)), None, np.full(4, UNLABELED))
    with pytest.raises(ValidationError, match="labeled"):
        sample_imbalanced(t, Balanced(1), seed=0)


# ---------------------------------------------------------------------------
# oracles


def test_pairwise_oracle_hand_cases():
    assert pairwise_auroc_oracle(np.array([3.0, 1.0]), np.array([2.0, 0.0])) == 0.75
    v = np.arange(1, 101, dtype=float)
    assert pairwise_auroc_oracle(v, v) == 0.5


def test_pairwise_oracle_guard():
    big = np.zeros(4000)
    with pytest.raises(ValidationError, match="guard"):
        pairwise_auroc_oracle(big, big)


def test_mahalanobis_oracle_hand_case():
    t = FeatureTable(
        np.array([[0.0], [2.0], [10.0], [12.0]]), None, np.array([0, 0, 1, 1])
    )
    assert abs(direct_mahalanobis_oracle(t, np.array([4.0])) - (-9.0)) < 1e-12
    assert abs(direct_mahalanobis_oracle(t, np.array([1.0]))) < 1e-12  # at a mean


def test_mahalanobis_oracle_matches_fast_path(rng):
    for _ in range(5):
        n, d, c = 120, 6, 3
        t = FeatureTable(
            rng.normal(size=(n, d)) + 2, None, rng.integers(0, c, n)
        )
        model = fit_mahalanobis(t, ridge=1e-6)
        queries = rng.normal(size=(4, d))
        fast = score_mahalanobis(model, queries).scores
        slow = [direct_mahalanobis_oracle(t, q, ridge=1e-6) for q in queries]
        np.testing.assert_allclose(fast, slow, rtol=1e-8)


def test_mahalanobis_oracle_singular_raises():
    t = FeatureTable(
        np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]),
        None,
        np.array([0, 0, 1, 1]),
    )
    with pytest.raises(NumericalError):
        direct_mahalanobis_oracle(t, np.array([0.0, 0.0]), ridge=0.0)


def test_mahalanobis_oracle_dimension_guard(rng):
    t = FeatureTable(rng.normal(size=(120, 60)), None, rng.integers(0, 2, 120))
    with pytest.raises(ValidationError, match="d <= 50"):
        direct_mahalanobis_oracle(t, np.zeros(60))
