"""Detector scores: analytic hand cases, shift properties, and oracles.

Frozen expected values were computed independently at 40 decimal digits
with mpmath: max softmax of [1,2,3] = 1/(1+e^-1+e^-2), energy of [1,2,3]
at T=1 = 3+ln(1+e^-1+e^-2).
"""

import copy
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oodgate import (
    UNLABELED,
    Balanced,
    DetectorConfig,
    FeatureTable,
    GaussianClassModel,
    IngestionError,
    Method,
    NumericalError,
    ScoreSet,
    SyntheticSpec,
    ValidationError,
    direct_mahalanobis_oracle,
    direct_pooled_covariance,
    fit_mahalanobis,
    generate_world,
    load_model,
    read_scores,
    save_model,
    score_energy,
    score_mahalanobis,
    score_msp,
    score_table,
    write_scores,
)
from oodgate import detectors
from oodgate.data import _Kept, _block_rows, _row_blocks
from oodgate.detectors import _candidates, _solve_lower

MSP_123 = 0.6652409557748219  # mpmath, 25 digits: 0.66524095577482188952...
EBM_123 = 3.4076059644443803  # mpmath, 25 digits: 3.40760596444438030448...
LN2 = 0.6931471805599453

logit_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=2,
    max_size=8,
)


# ---------------------------------------------------------------------------
# msp


def test_msp_hand_cases():
    s = score_msp(np.array([[0.0, 0.0], [100.0, 0.0]]))
    assert s.method is Method.MSP
    assert s.scores[0] == 0.5
    assert abs(s.scores[1] - 1.0) < 1e-12
    assert abs(score_msp(np.array([[1.0, 2.0, 3.0]])).scores[0] - MSP_123) < 1e-12


def test_softmax_uniform():
    # a uniform row's softmax is 1/c in every class, so its max is 1/c
    assert score_msp(np.zeros((1, 4))).scores[0] == 0.25


def test_softmax_extreme_logits_stable():
    # the max-shifted softmax inside score_msp must not overflow
    s = score_msp(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.isfinite(s.scores).all()
    assert (s.scores == 1.0).all()


def test_msp_needs_two_classes():
    with pytest.raises(ValidationError, match="c >= 2"):
        score_msp(np.array([[3.0]]))


@given(rows=st.lists(logit_rows.filter(lambda r: len(r) == 4), min_size=1, max_size=5))
def test_msp_range_and_shift_invariance(rows):
    logits = np.array(rows)
    s = score_msp(logits)
    assert ((s.scores >= 1 / 4 - 1e-12) & (s.scores <= 1 + 1e-12)).all()
    shifted = score_msp(logits + 7.25)
    assert np.abs(s.scores - shifted.scores).max() < 1e-12


# ---------------------------------------------------------------------------
# energy


def test_energy_hand_cases():
    one = score_energy(np.array([[4.5]]))
    assert abs(one.scores[0] - 4.5) < 1e-12
    two = score_energy(np.array([[0.0, 0.0]]))
    assert abs(two.scores[0] - LN2) < 1e-12
    frozen = score_energy(np.array([[1.0, 2.0, 3.0]]))
    assert abs(frozen.scores[0] - EBM_123) < 1e-12
    warm = score_energy(np.array([[0.0, 0.0]]), temperature=2.0)
    assert abs(warm.scores[0] - 2 * LN2) < 1e-12


def test_energy_temperature_validated():
    for temperature in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="temperature must be finite and > 0"):
            score_energy(np.zeros((1, 2)), temperature=temperature)


@given(row=logit_rows, shift=st.floats(min_value=-40, max_value=40, allow_nan=False))
def test_energy_shift_property(row, shift):
    base = score_energy(np.array([row])).scores[0]
    moved = score_energy(np.array([row]) + shift).scores[0]
    assert abs(moved - (base + shift)) < 1e-12


@given(row=logit_rows, bump=st.floats(min_value=1e-3, max_value=10))
def test_energy_monotone_in_each_logit(row, bump):
    base = score_energy(np.array([row])).scores[0]
    for j in range(len(row)):
        up = np.array([row], dtype=float)
        up[0, j] += bump
        assert score_energy(up).scores[0] >= base


def test_logit_scorers_reject_non_finite():
    with pytest.raises(ValidationError):
        score_msp(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        score_energy(np.array([[np.inf, 0.0]]))


def test_block_checks_cite_the_row_in_the_whole_input(block_rows):
    block_rows(2, 2)
    rows = np.zeros((7, 2), np.float32)
    rows[5, 1] = np.inf
    for score in (score_msp, score_energy):
        with pytest.raises(ValidationError, match="^non-finite value in logits at row 5$"):
            score(rows)
    model = GaussianClassModel(np.eye(2), np.eye(2), np.ones(2))
    with pytest.raises(ValidationError, match="^non-finite value in features at row 5$"):
        score_mahalanobis(model, rows)


# ---------------------------------------------------------------------------
# mahalanobis fit


def table_from(features, labels):
    return FeatureTable(np.asarray(features, dtype=float), None, np.asarray(labels))


def test_fit_hand_case_divisor_n():
    t = table_from([[0.0], [2.0], [10.0], [12.0]], [0, 0, 1, 1])
    model = fit_mahalanobis(t, ridge=0.0)
    np.testing.assert_allclose(model.means, [[1.0], [11.0]])
    np.testing.assert_allclose(model.covariance, [[1.0]])  # (1+1+1+1)/4
    assert list(model.per_class_counts) == [2, 2]


def test_fit_degenerate_scatter_uses_floor():
    t = table_from([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0], [5.0, 6.0]], [0, 0, 1, 1])
    message = r"^no within-class scatter; regularizing with 1e-06 \* I$"
    with pytest.warns(UserWarning, match=message):
        model = fit_mahalanobis(t, ridge=1e-6)
    np.testing.assert_allclose(model.covariance, np.zeros((2, 2)))
    np.testing.assert_allclose(model.precision_factor, np.sqrt(1e-6) * np.eye(2))
    s = score_mahalanobis(model, np.array([[2.0, 2.0]]))
    assert np.isfinite(s.scores).all()


def test_fit_zero_ridge_singular_raises():
    t = table_from([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0], [5.0, 6.0]], [0, 0, 1, 1])
    with pytest.raises(NumericalError, match="ridge"):
        fit_mahalanobis(t, ridge=0.0)


def test_fit_matches_direct_summation(rng):
    n, d, c = 300, 5, 3
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, c, n)
    t = table_from(feats, labels)
    model = fit_mahalanobis(t, ridge=0.0)
    means, cov = direct_pooled_covariance(t.features, t.labels)
    np.testing.assert_allclose(model.means, means, rtol=1e-10)
    np.testing.assert_allclose(model.covariance, cov, rtol=1e-10, atol=1e-14)


def test_fit_means_have_the_bits_of_each_class_mean(block_rows):
    """Float32 values near 2**23 and near 2**-30 round differently in float64
    when summed in another order, and column 0 is all -0.0, whose mean is
    +0.0; with 4 rows a block every class spans at least 3 blocks, holding
    one row in some and several in others."""
    rng = np.random.default_rng(5)
    n, d, c = 60, 4, 3
    big = 2.0**23 + rng.integers(0, 64, (n, d))
    small = (1.0 + rng.random((n, d))) * 2.0**-30
    features = np.where(rng.random((n, d)) < 0.4, big, small).astype(np.float32)
    features[:, 0] = -0.0
    labels = rng.integers(0, c, n)
    block_rows(4, 2 * d)
    assert all(np.unique(np.flatnonzero(labels == k) // 4).size >= 3 for k in range(c))
    model = fit_mahalanobis(FeatureTable(features, None, labels))
    for k in range(c):
        expected = features[labels == k].astype(np.float64).mean(axis=0)
        assert model.means[k].tobytes() == expected.tobytes(), k


def test_fit_sums_shuffled_classes_in_label_order(monkeypatch, kernel_note):
    """A fit of 20000 x 16 float32 rows over 50 shuffled classes sums them in
    blocks of the label order: each class crosses a block boundary at most
    once, so the distinct labels of all ``_add_rows`` calls are at most
    classes + calls - 1 (55 over 6 calls; contiguous row blocks hold all 50
    labels each, 300). The float64 means and covariance keep the bytes that
    contiguous row blocks summed them to (digest recorded with those)."""
    import hashlib

    rng = np.random.default_rng(43)
    n, d, c = 20000, 16, 50
    features = rng.normal(size=(n, d)).astype(np.float32)
    labels = rng.permutation(np.arange(n) % c)
    distinct = []

    def spy(sums, keys, block, rows):
        distinct.append(np.unique(keys).size)
        return add_rows(sums, keys, block, rows)

    add_rows = detectors._add_rows
    monkeypatch.setattr(detectors, "_add_rows", spy)
    model = fit_mahalanobis(FeatureTable(features, None, labels))
    assert len(distinct) == 6 and sum(distinct) <= c + len(distinct) - 1, distinct
    digest = hashlib.sha256(model.means.tobytes() + model.covariance.tobytes()).hexdigest()
    assert digest == (
        "bd050b1a6dec82603eec4330c1408c5c9d9072d8b2d184882b47f844000bc0a5"), kernel_note


def test_fit_missing_class_named():
    t = FeatureTable(
        np.zeros((4, 2)), np.zeros((4, 3)), np.array([0, 0, 2, 2])
    )
    with pytest.raises(ValidationError, match="class 1"):
        fit_mahalanobis(t)


def test_fit_rejects_non_finite_ridge():
    t = table_from([[0.0], [20.0], [100.0], [120.0]], [0, 0, 1, 1])
    for ridge in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError, match="ridge must be finite and >= 0"):
            fit_mahalanobis(t, ridge)
    with pytest.raises(NumericalError, match="overflows"):
        fit_mahalanobis(t, 1e307)  # finite, but ridge * trace / d (trace 100) is not


def test_fit_requires_labels():
    t = table_from([[0.0, 1.0]] * 4, [UNLABELED] * 4)
    with pytest.raises(ValidationError, match="labeled"):
        fit_mahalanobis(t)


def test_fit_warns_when_n_not_above_d():
    t = table_from(np.eye(4), [0, 0, 1, 1])
    with pytest.warns(UserWarning, match="unstable"):
        fit_mahalanobis(t)


def test_fit_checks_class_coverage_before_warning_n_not_above_d():
    t = FeatureTable(np.eye(3, 4), np.zeros((3, 3)), np.array([0, 1, 1]))
    with pytest.raises(ValidationError, match="^class 2 has no samples in the fit table$"):
        fit_mahalanobis(t)  # the suite's filter would raise the warning first


# ---------------------------------------------------------------------------
# mahalanobis scoring


def identity_model(means):
    means = np.asarray(means, dtype=float)
    return GaussianClassModel(
        means, np.eye(means.shape[1]), np.ones(means.shape[0]), ridge=0.0
    )


def test_score_zero_at_class_mean():
    model = identity_model([[1.0, -2.0], [3.0, 4.0]])
    s = score_mahalanobis(model, model.means)
    assert np.abs(s.scores).max() < 1e-9


def test_score_euclidean_under_identity():
    model = identity_model([[0.0, 0.0]])
    s = score_mahalanobis(model, np.array([[3.0, 4.0]]))
    assert abs(s.scores[0] - (-25.0)) < 1e-12


def test_score_two_class_symmetry():
    model = identity_model([[-1.0, 0.0], [1.0, 0.0]])
    s = score_mahalanobis(model, np.array([[0.0, 0.0]]))
    assert abs(s.scores[0] - (-1.0)) < 1e-12


def test_score_never_positive(rng):
    t = table_from(rng.normal(size=(60, 4)), rng.integers(0, 3, 60))
    model = fit_mahalanobis(t)
    s = score_mahalanobis(model, rng.normal(size=(40, 4)))
    assert (s.scores <= 1e-12).all()
    assert s.method is Method.MAH


def test_score_dimension_mismatch():
    model = identity_model([[0.0, 0.0]])
    with pytest.raises(ValidationError, match="does not match"):
        score_mahalanobis(model, np.zeros((3, 5)))


def test_affine_invariance(rng):
    n, d, c = 200, 4, 3
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, c, n)
    queries = rng.normal(size=(20, d))
    w = rng.normal(size=(d, d)) + 3 * np.eye(d)  # well-conditioned
    b = rng.normal(size=d)

    base = score_mahalanobis(fit_mahalanobis(table_from(feats, labels), 0.0), queries)
    mapped = score_mahalanobis(
        fit_mahalanobis(table_from(feats @ w + b, labels), 0.0), queries @ w + b
    )
    np.testing.assert_allclose(mapped.scores, base.scores, rtol=1e-6)


def test_batch_partition_determinism(rng):
    t = table_from(rng.normal(size=(100, 6)), rng.integers(0, 4, 100))
    model = fit_mahalanobis(t)
    queries = np.asarray(rng.normal(size=(33, 6)))
    full = score_mahalanobis(model, queries).scores
    parts = np.concatenate(
        [score_mahalanobis(model, queries[:10]).scores,
         score_mahalanobis(model, queries[10:]).scores]
    )
    assert (full == parts).all()  # bit-identical

    again = score_mahalanobis(model, queries).scores
    assert (full == again).all()


def test_one_query_vector_scores_as_a_one_row_matrix(rng):
    t = table_from(rng.normal(size=(60, 4)), rng.integers(0, 3, 60))
    model, x = fit_mahalanobis(t), rng.normal(size=4)
    vector, row = (score_mahalanobis(model, q).scores for q in (x, x[None, :]))
    assert vector.shape == (1,) and vector.tobytes() == row.tobytes()


def per_class_scores(model, queries):
    """The one-solve-per-class scorer that whitened scoring must reproduce bit
    for bit: a triangular solve of ``queries - mean`` per class, then the least
    column sum of squares."""
    from scipy.linalg import solve_triangular

    best = np.full(queries.shape[0], np.inf)
    for mean in model.means:
        z = solve_triangular(model.precision_factor, (queries - mean).T, lower=True)
        np.minimum(best, np.sum(z * z, axis=0), out=best)
    return -best


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 12),
    c=st.integers(2, 6),
    squashed=st.integers(0, 3),
    ridge=st.sampled_from([0.0, 1e-12, 1e-6]),
)
def test_mahalanobis_near_ties_match_per_class_solves(seed, d, c, squashed, ridge):
    rng = np.random.default_rng(seed)
    n = 4 * d + 3 * c
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    feats = rng.normal(size=(n, d)) + 2.0 * rng.normal(size=(c, d))[labels]
    feats[:, : min(squashed, d - 1)] *= 1e-6  # ill-conditioned covariance
    table = table_from(feats, labels)
    model = fit_mahalanobis(table, ridge)
    j = int(rng.integers(c))
    k = (j + 1 + int(rng.integers(c - 1))) % c
    mid = (model.means[j] + model.means[k]) / 2.0  # equidistant from two means
    queries = np.vstack([
        model.means,
        mid,
        mid + 1e-12 * rng.normal(size=(2, d)),
        model.means[j] + 1e-9 * rng.normal(size=(3, d)),
        1e6 * rng.normal(size=(2, d)),
    ])
    fast = score_mahalanobis(model, queries).scores
    assert fast.tobytes() == per_class_scores(model, queries).tobytes()
    one = score_mahalanobis(model, mid[None]).scores
    assert one.tobytes() == per_class_scores(model, mid[None]).tobytes()
    oracle = [direct_mahalanobis_oracle(table, q, ridge) for q in queries]
    np.testing.assert_allclose(fast, oracle, rtol=1e-8, atol=1e-8)


def per_class_distances(model, queries):
    """Squared distances of every row to every class, one triangular solve
    per class over all rows."""
    from scipy.linalg import solve_triangular

    out = np.empty((queries.shape[0], model.c))
    for k, mean in enumerate(model.means):
        z = solve_triangular(model.precision_factor, (queries - mean).T, lower=True)
        out[:, k] = np.sum(z * z, axis=0)
    return out


@pytest.mark.parametrize("ridge", [0.0, 1e-12, 1e-6])
@pytest.mark.parametrize("d", [16, 128, 512])
def test_candidates_keep_the_exact_nearest_class(d, ridge):
    """Near-tie rows (midpoints of two means, rows a hair off them and off
    each mean) under a covariance with three columns squashed by 1e-6: each
    row's candidates hold a class whose per-class solve is the least of all."""
    rng = np.random.default_rng(d)
    c = 8
    n = 4 * d + 3 * c
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    feats = rng.normal(size=(n, d)) + 2.0 * rng.normal(size=(c, d))[labels]
    feats[:, :3] *= 1e-6
    model = fit_mahalanobis(table_from(feats, labels), ridge)
    mids = (model.means + np.roll(model.means, 1, axis=0)) / 2.0
    queries = np.vstack([
        model.means,
        mids,
        mids + 1e-12 * rng.normal(size=mids.shape),
        model.means + 1e-9 * rng.normal(size=(c, d)),
        feats[:20],
        1e6 * rng.normal(size=(2, d)),
    ])
    rows, classes = _candidates(queries, model)
    dist = per_class_distances(model, queries)
    kept = np.full(dist.shape, np.inf)
    kept[rows, classes] = dist[rows, classes]
    assert (kept.min(axis=1) == dist.min(axis=1)).all()


def test_candidates_stay_near_one_per_row():
    """Well-separated classes keep at most 1.05 candidates a row at c = 142:
    on a synthetic world, and where three squashed columns and a feature
    offset of 50 make the ``w |x|`` bound keep nearly every class, until the
    rows it keeps too many for are solved for their whitened norm."""
    world = generate_world(SyntheticSpec(classes=142, dim=64, class_separation=3.0,
                                         law=Balanced(30), seed=7), keep_train=False)
    model = fit_mahalanobis(world.id_fit)
    for table in (world.id_test, *world.ood_tables.values()):
        rows, _ = _candidates(table.features.astype(np.float64), model)
        assert rows.size <= 1.05 * len(table.features)
    rng = np.random.default_rng(5)
    c, d = 142, 64
    centers = 3.0 * rng.normal(size=(c, d))
    labels = np.arange(3000) % c
    feats = np.vstack([rng.normal(size=(3000, d)) + centers[labels],
                       rng.normal(size=(600, d)) + centers[rng.integers(0, c, 600)]])
    feats[:, :3] *= 1e-6
    feats += 50.0
    model = fit_mahalanobis(table_from(feats[:3000], labels))
    rows, _ = _candidates(feats[3000:], model)
    assert rows.size <= 1.05 * 600


def test_scoring_twice_builds_the_candidate_terms_once(rng, monkeypatch):
    calls, solve = [], detectors._solve_lower

    def counted(*args, transposed=False, **kwargs):
        if transposed:  # only the candidate terms solve against factor^T
            calls.append(1)
        return solve(*args, transposed=transposed, **kwargs)

    monkeypatch.setattr(detectors, "_solve_lower", counted)
    model = fit_mahalanobis(table_from(rng.normal(size=(60, 4)), rng.integers(0, 3, 60)))
    queries = rng.normal(size=(40, 4))
    first = score_mahalanobis(model, queries).scores
    terms = model._terms
    assert score_mahalanobis(model, queries).scores.tobytes() == first.tobytes()
    assert calls == [1] and model._terms is terms


def test_model_arrays_stay_read_only_after_scoring(rng):
    """Editing a fitted model's means in place fails instead of leaving its
    cached candidate terms out of step with them."""
    model = fit_mahalanobis(table_from(rng.normal(size=(60, 4)), rng.integers(0, 3, 60)))
    queries = rng.normal(size=(40, 4))
    first = score_mahalanobis(model, queries).scores
    with pytest.raises(ValueError, match="read-only"):
        model.means[0] += 1
    assert score_mahalanobis(model, queries).scores.tobytes() == first.tobytes()


@pytest.mark.parametrize("name", ["ridge", "precision_factor"])
def test_model_fields_cannot_be_set_or_deleted(name):
    model = identity_model([[1.0, -2.0], [3.0, 4.0]])
    with pytest.raises(AttributeError):
        setattr(model, name, getattr(model, name))
    with pytest.raises(AttributeError):
        delattr(model, name)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_model_copies_score_the_same_and_build_their_own_terms(rng, clone):
    model = fit_mahalanobis(table_from(rng.normal(size=(400, 128)), np.arange(400) % 5))
    queries = rng.normal(size=(300, 128))
    first = score_mahalanobis(model, queries).scores
    other = clone(model)
    assert "_terms" not in vars(other)  # rebuilt by the constructor: no cache carried over
    assert score_mahalanobis(other, queries).scores.tobytes() == first.tobytes()
    assert other._terms is not model._terms


def test_block_rows_from_the_byte_budget():
    """Paper-scale stages, (c, d) = (142, 128), get 923-row blocks; wider
    rows get fewer, and a block never has fewer than 2 rows."""
    assert _block_rows(142) == 923
    assert _block_rows(512) == 256
    assert _block_rows(2048) == 64
    assert _block_rows(10**9) == 2


def test_row_blocks_fold_a_lone_last_row(block_rows):
    """No block is one row of a wider input: that row's products would be
    GEMVs, which round differently from the GEMM of the rows around it."""
    chunk = 4096
    block_rows(chunk, 1)
    cases = {1: [1], 2: [2], chunk: [chunk], chunk + 1: [chunk + 1],
             chunk + 2: [chunk, 2], 2 * chunk + 1: [chunk, chunk + 1]}
    for n, sizes in cases.items():
        blocks = list(_row_blocks(np.zeros((n, 1), np.float32), "features", 1))
        assert [len(b) for _, b in blocks] == sizes
        assert [start for start, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()


def test_mahalanobis_one_row_last_block(rng, block_rows):
    """A lone last row is refined as part of a wide input, which for some
    rows differs in the last bit from a one-column solve. With 2-row blocks,
    the 3-row last block's candidates are refined as one chunk, not 2 + 1."""
    model = fit_mahalanobis(table_from(rng.normal(size=(60, 8)), rng.integers(0, 3, 60)))
    chunk = 4096
    block_rows(chunk, 8)
    queries = rng.normal(size=(chunk + 30, 8))
    reference = per_class_scores(model, queries)
    for last in range(chunk, chunk + 30):
        rows = np.r_[:chunk, last]
        assert score_mahalanobis(model, queries[rows]).scores.tobytes() == reference[rows].tobytes()
    block_rows(2, 8)
    for start in range(0, 90, 3):
        rows = np.r_[start : start + 3]
        assert score_mahalanobis(model, queries[rows]).scores.tobytes() == reference[rows].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")  # distances to far means
def test_mahalanobis_overflowing_estimate_keeps_every_class():
    """Whitened norms overflow to inf here, the direct differences do not."""
    model = identity_model([[1e160, 0.0], [0.0, 1e160], [-1e160, 0.0]])
    queries = model.means[[0, 1]] + np.array([[3e144, -2e144], [1e144, 5e144]])
    fast = score_mahalanobis(model, queries).scores
    assert np.isfinite(fast).all()
    assert fast.tobytes() == per_class_scores(model, queries).tobytes()


def test_mahalanobis_chunk_edges_and_pinned_bytes(tmp_path, kernel_note):
    """c=142, d=128 over 8195 rows, several row blocks; the score CSV digests
    were recorded with the one-solve-per-class scorer, at one BLAS thread."""
    import hashlib

    c, d, n = 142, 128, 8195
    chunk = _block_rows(max(c, d))
    assert n > 3 * chunk
    rng = np.random.default_rng(20261018)
    mix = rng.normal(size=(d, d)) / np.sqrt(d)
    means = 3.0 * rng.normal(size=(c, d)) / np.sqrt(d)
    model = GaussianClassModel(means, mix @ mix.T + np.eye(d), np.full(c, 400))
    queries = means[rng.integers(0, c, n)] + rng.normal(size=(n, d))
    full = score_mahalanobis(model, queries)
    # parts of 2, chunk + 1 (a lone last row), chunk - 2 and the rest
    cuts = [0, 2, chunk + 3, 2 * chunk + 1, n]
    parts = [score_mahalanobis(model, queries[a:b]).scores for a, b in zip(cuts, cuts[1:])]
    assert full.scores.tobytes() == np.concatenate(parts).tobytes(), kernel_note
    path = tmp_path / "s.csv"
    write_scores(full, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f0ab40818d9a8cb77b034aed899fffc158faf5248604a9fff71ae962ee13c5da"
    ), kernel_note
    # float32 queries, widened one block at a time; digest recorded with the
    # scorer that widened the whole input at once
    narrow = queries.astype(np.float32)
    full = score_mahalanobis(model, narrow)
    parts = [score_mahalanobis(model, narrow[a:b]).scores for a, b in zip(cuts, cuts[1:])]
    assert full.scores.tobytes() == np.concatenate(parts).tobytes(), kernel_note
    write_scores(full, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b7920ace8d7bc5fcb2c9a0efd9e2349e1f746a8a434bcef6e928cb17f98bc0d8"
    ), kernel_note


@pytest.mark.parametrize("d, digest", [
    (16, "deb320f275fb2e234d39cc194937ee41edbfaf97d83e4d79daa489cd2955ef99"),
    (64, "bea24d4b0762fe5ce581c701cede1e6ad3ed9f069cb7132694b03a0331e2b844"),
])
def test_candidate_terms_pinned_bytes(d, digest, kernel_note):
    """The candidate terms (-2 P, |m|^2, max_j |m_j|, w, scale) of a seeded
    fit; digests recorded with the terms that one ``dpotrs`` solve built."""
    import hashlib

    world = generate_world(SyntheticSpec(classes=10, dim=d, law=Balanced(600), seed=5))
    h = hashlib.sha256()
    for term in fit_mahalanobis(world.id_fit)._terms:
        h.update(np.asarray(term, dtype=np.float64).tobytes())
    assert h.hexdigest() == digest, kernel_note


#: Prints, per width, one digest of the fitted factor and the mah scores of
#: every test table of a world.
_THREAD_PROBE = """
import hashlib
from oodgate import (Balanced, DetectorConfig, Method, SyntheticSpec, fit_mahalanobis,
                     generate_world, score_table)
for d in (128, 512):
    world = generate_world(SyntheticSpec(classes=10, dim=d, law=Balanced(600), seed=5))
    model = fit_mahalanobis(world.id_fit)
    h = hashlib.sha256(model.precision_factor.tobytes())
    for table in (world.id_test, *world.ood_tables.values()):
        h.update(score_table(DetectorConfig(Method.MAH), table, model).scores.tobytes())
    print(d, h.hexdigest())
"""


def _at_threads(threads: str, *argv: str) -> str:
    """The stdout of a child interpreter run at ``OPENBLAS_NUM_THREADS=threads``."""
    proc = subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_mahalanobis_bytes_do_not_depend_on_the_blas_thread_count():
    """One child process per OpenBLAS thread count, at d = 128 and 512, where
    a threaded Cholesky factor would differ from the one-thread one."""
    out = {_at_threads(threads, _THREAD_PROBE) for threads in "124"}
    assert len(out) == 1
    assert out.pop().split()[::2] == ["128", "512"]


#: Runs mah fit, score and eval on a world's tables into ``sys.argv[2]``. numpy
#: comes first, so the CLI keeps the pool of ``OPENBLAS_NUM_THREADS`` threads.
_CLI_CHAIN = """
import sys
import numpy
from oodgate.cli import main
world, out = sys.argv[1:]
for argv in (
    ["fit", "--manifest", f"{world}/world.manifest", "--out", f"{out}/m.oodm"],
    ["score", "--input", f"{world}/id3.oodf", "--method", "mah", "--model", f"{out}/m.oodm",
     "--out", f"{out}/id.csv"],
    ["score", "--input", f"{world}/ood_d2.oodf", "--method", "mah", "--model", f"{out}/m.oodm",
     "--out", f"{out}/ood.csv"],
    ["eval", "--id-scores", f"{out}/id.csv", "--ood-scores", f"{out}/ood.csv", "--method", "mah",
     "--out", f"{out}/report.json"],
):
    assert main(argv) == 0, argv
"""


def test_mah_cli_chain_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A d=128 fit, score and eval chain writes the same bytes at 1 and 2
    BLAS threads: the model, both score CSVs and the report."""
    from oodgate.cli import main

    world = tmp_path / "world"
    assert main(["synth", "--classes", "10", "--dim", "128", "--law", "balanced:300",
                 "--out", str(world)]) == 0
    files = []
    for threads in "12":
        (out := tmp_path / threads).mkdir()
        _at_threads(threads, _CLI_CHAIN, str(world), str(out))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(files[0]) == ["id.csv", "m.oodm", "ood.csv", "report.json"]
    assert files[0] == files[1]


#: Scores ``sys.argv[1]`` with the mah model ``sys.argv[2]`` through the CLI,
#: then prints numpy's OpenBLAS thread count and ``OPENBLAS_NUM_THREADS``.
_CLI_POOLS = """
import os, sys
{first}
from oodgate.cli import main
from oodgate import detectors
table, model, out = sys.argv[1:]
assert main(["score", "--input", table, "--method", "mah", "--model", model, "--out", out]) == 0
print([detectors._openblas_threads()[0]()], os.environ["OPENBLAS_NUM_THREADS"])
"""


def test_cli_starts_openblas_at_one_thread_unless_numpy_came_first(tmp_path):
    """A process whose first numpy import is the CLI's starts numpy's
    OpenBLAS, the one oodgate calls, at one thread, whatever
    ``OPENBLAS_NUM_THREADS`` says; one that imported numpy first keeps its
    pool and its environment."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS starts one thread at any setting")
    from oodgate.cli import main

    world = tmp_path / "world"
    assert main(["synth", "--classes", "3", "--dim", "8", "--law", "balanced:60",
                 "--out", str(world)]) == 0
    model = tmp_path / "m.oodm"
    assert main(["fit", "--manifest", str(world / "world.manifest"), "--out", str(model)]) == 0
    argv = [str(world / "id3.oodf"), str(model), str(tmp_path / "s.csv")]
    assert _at_threads("2", _CLI_POOLS.format(first=""), *argv) == "[1] 1\n"
    assert _at_threads("2", _CLI_POOLS.format(first="import numpy"), *argv) == "[2] 2\n"


def _blas_threads() -> int:
    """The thread count of numpy's OpenBLAS, the one library oodgate calls."""
    pool = detectors._openblas_threads()
    assert pool, "no OpenBLAS thread count found: numpy's wheels link OpenBLAS"
    return pool[0]()


def test_blas_calls_give_back_each_librarys_thread_count(tmp_path):
    """Each oodgate call that holds OpenBLAS at one thread, and one nested
    inside another, leaves numpy's OpenBLAS, the one library oodgate calls, at
    the count it had; inside, it runs one thread."""
    table = generate_world(SyntheticSpec(classes=10, dim=128, law=Balanced(200), seed=5)).id_fit
    model = fit_mahalanobis(table)
    score_mahalanobis(model, table.features)
    save_model(model, tmp_path / "m.oodm")
    before, put = _blas_threads(), detectors._openblas_threads()[1]
    try:
        put(2)
        calls = [
            lambda: fit_mahalanobis(table),
            lambda: load_model(tmp_path / "m.oodm"),
            lambda: score_mahalanobis(model, table.features),
            lambda: generate_world(SyntheticSpec(classes=3, dim=4, law=Balanced(20), seed=1)),
        ]
        for call in calls:
            call()
            assert _blas_threads() == 2
        with detectors._one_blas_thread:
            assert _blas_threads() == 1
            score_mahalanobis(model, table.features)
            assert _blas_threads() == 1
        assert _blas_threads() == 2
    finally:
        put(before)


def test_one_blas_thread_holds_across_python_threads():
    """Python threads entering and leaving, some nested, with a short switch
    interval: numpy's OpenBLAS runs one thread inside each entry, and gets
    back its count once the last one leaves."""
    import threading
    import time

    before = _blas_threads()
    seen, interval, start = set(), sys.getswitchinterval(), threading.Barrier(8)

    def enter(times):
        start.wait(timeout=60)
        for i in range(times):
            with detectors._one_blas_thread:
                time.sleep(0)  # lets another thread enter or leave
                seen.add(_blas_threads())
                if i % 3 == 0:
                    with detectors._one_blas_thread:
                        seen.add(_blas_threads())

    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter, args=(50,)) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == {1}
    assert _blas_threads() == before


def test_logit_scorers_batch_partition_determinism(rng, tmp_path, kernel_note):
    import hashlib

    logits = np.asarray(rng.normal(size=(40, 5)) * 10)
    for scorer in (score_msp, score_energy):
        full = scorer(logits).scores
        parts = np.concatenate(
            [scorer(logits[:13]).scores, scorer(logits[13:]).scores]
        )
        assert (full == parts).all()

    # c=142 over 8195 rows, several row blocks, cut as in the Mahalanobis
    # case (one part ends in a lone row); digests recorded with the
    # scorers that widened and reduced the whole input at once
    chunk, n = _block_rows(142), 8195
    assert n > 3 * chunk
    wide = np.random.default_rng(20261019).normal(size=(n, 142)) * 10
    cuts = [0, 2, chunk + 3, 2 * chunk + 1, n]
    pinned = {
        ("float32", "msp"): "897dc30feb730c150b9aca06792fe33887bacc8c61309fad1bbe5084b7d8632c",
        ("float32", "ebm"): "f65d488480874f2ad5c9d2285f8fce05a2227daf565b112b37916bad9c86b6a1",
        ("float64", "msp"): "6df295330758b90c16e47a675853401b02554f001043b1a1fdd33576e33cebc9",
        ("float64", "ebm"): "3d97dd220ae6b3a63dc7e9108c487230e2dd2421f7a4d23d215a399b1da71043",
    }
    scorers = {"msp": score_msp, "ebm": lambda x: score_energy(x, 0.75)}
    for (dtype, name), digest in pinned.items():
        x, scorer = wide.astype(dtype), scorers[name]
        full = scorer(x)
        parts = [scorer(x[a:b]).scores for a, b in zip(cuts, cuts[1:])]
        assert full.scores.tobytes() == np.concatenate(parts).tobytes()
        write_scores(full, tmp_path / "s.csv")
        assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == digest, (
            kernel_note)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_logit_scorers_leave_their_input_unwritten(dtype, block_rows):
    """Every row-block kernel (msp, ebm, mah and the world logits) works in
    place only in the float64 copy of a block: input of each float width, made
    read-only only after a writable run, is scored over several blocks, keeps
    its bytes and gives the results of its float64 widening."""
    from oodgate.synthetic import _log_density_logits

    block_rows(4, 5)
    rng = np.random.default_rng(3)
    logits = (rng.normal(size=(13, 5)) * 10).astype(dtype)
    centers = rng.normal(size=(5, 5))
    model = GaussianClassModel(centers, np.eye(5) + 0.1, np.full(5, 3))
    kernels = (lambda x: score_msp(x).scores, lambda x: score_energy(x, 0.75).scores,
               lambda x: score_mahalanobis(model, x).scores,
               lambda x: _log_density_logits(x, centers, 0.5))
    before = logits.tobytes()
    for kernel in kernels:
        for read_only in (False, True):
            logits.setflags(write=not read_only)
            out = kernel(logits)
            assert logits.tobytes() == before
            assert out.tobytes() == kernel(logits.astype(np.float64)).tobytes()


def test_mah_float64_input_peaks_as_float32_input(block_rows, traced_peak):
    """Every row block is a new float64 copy, so mah holds the same blocks on
    float64 features as on float32 ones, which it widens a block at a time:
    one block more than a view of float64 input would hold, and no more."""
    rows, c, d = 256, 64, 32
    block_rows(rows, max(c, d))
    rng = np.random.default_rng(4)
    means = rng.normal(size=(c, d))
    model = GaussianClassModel(means, np.eye(d), np.full(c, 3))
    feats = means[rng.integers(0, c, 3 * rows)] + 0.3 * rng.normal(size=(3 * rows, d))
    narrow = feats.astype(np.float32)
    score_mahalanobis(model, narrow)  # first-call allocations, LAPACK's load
    peak32 = traced_peak(lambda: score_mahalanobis(model, narrow))[1]
    peak64 = traced_peak(lambda: score_mahalanobis(model, feats))[1]
    assert peak64 <= peak32 + 16 * 1024, (peak32, peak64)


def test_peak_memory_does_not_grow_with_rows(block_rows, traced_peak):
    """Traced allocation peaks on float32 input of 3 and of 12 row blocks of
    4096 rows.

    Past the float64 score vector (8 bytes a row, plus ScoreSet's 1-byte
    finite mask) and, for the fit, its one float64 copy of the features and
    an intp label index, the peak must not grow with n: each block is widened
    to float64 on its own. Widening or gathering the whole input at once
    adds at least d or c float64 values a row.
    """
    c, d = 16, 8
    rng = np.random.default_rng(7)
    warm = table_from(rng.normal(size=(12, 4)), np.arange(12) % 2)
    score_mahalanobis(fit_mahalanobis(warm), np.zeros((2, 4)))  # loads LAPACK

    def peaks(blocks):
        n = blocks * 4096
        logits = rng.normal(size=(n, c)).astype(np.float32)
        table = FeatureTable(rng.normal(size=(n, d)), None, np.arange(n) % c)
        model = fit_mahalanobis(table)
        calls = {  # each with the width its blocks are sized by
            "msp": (lambda: score_msp(logits), c),
            "ebm": (lambda: score_energy(logits, 2.0), c),
            "mah": (lambda: score_mahalanobis(model, table.features), max(c, d)),
            "fit": (lambda: fit_mahalanobis(table), d),
        }
        found = {}
        for name, (call, width) in calls.items():
            block_rows(4096, width)
            found[name] = traced_peak(call)[1]
        return found

    small, large = peaks(3), peaks(12)
    added = 9 * 4096
    for name in small:
        per_row = 8 * (d + 1) if name == "fit" else 9
        assert large[name] - small[name] <= added * per_row + 64 * 1024, name


def test_results_do_not_depend_on_the_block_size(block_rows, kernel_note):
    """No score, fitted value or world logit changes by a bit with the rows
    per block, and no scorer writes into a float64 input."""
    spec = SyntheticSpec(classes=40, dim=96, class_separation=3.0, law=Balanced(30), seed=11)

    def results():
        world = generate_world(spec, ood_distances=(1.0,))
        tables = [world.id_train, world.id_fit, world.id_test, *world.ood_tables.values()]
        model = fit_mahalanobis(world.id_fit)
        wide = world.id_train.logits.astype(np.float64)
        out = [t.logits for t in tables] + [model.means, model.covariance]
        for x in (world.id_train.logits, wide):
            out += [score_msp(x).scores, score_energy(x, 0.75).scores]
        for x in (world.id_train.features, world.id_test.features.astype(np.float64)):
            out.append(score_mahalanobis(model, x).scores)
        assert wide.tobytes() == world.id_train.logits.astype(np.float64).tobytes()
        return [a.tobytes() for a in out]

    reference = results()
    # rows per block at d=96 (mah, the fit and world logits); msp and ebm, at
    # c=40, get 2.4 times as many, and 2 rows at a budget of 1 row
    for rows in (1, 2, 5, 17, 64, 257, 4096):
        block_rows(rows, 96)
        assert results() == reference, f"{rows} rows a block: {kernel_note}"


def test_each_block_holds_one_widened_copy_and_one_working_array(block_rows, traced_peak):
    """Traced peaks over 3 blocks of float32 rows at a wide c: msp and ebm
    hold the float64 block plus one block x c array (``x - max``, then its
    exp); mah holds the float64 block, one block x c array of estimates and
    its candidate mask, and then one refinement chunk (its gathered rows,
    solved in place), which it frees before the next block is widened. The
    model's d x c candidate matrix is built by the first call. All allow the
    score vector, its finite mask and 128 KiB of small arrays and ufunc
    buffers; a second block x c float64 array exceeds that."""
    rows, c, d = 256, 512, 32
    block_rows(rows, max(c, d))
    n = 3 * rows
    rng = np.random.default_rng(3)
    logits = (4.0 * rng.normal(size=(n, c))).astype(np.float32)
    means = rng.normal(size=(c, d))
    model = GaussianClassModel(means, np.eye(d), np.full(c, 3))
    feats = (means[rng.integers(0, c, n)] + 0.3 * rng.normal(size=(n, d))).astype(np.float32)
    block_c, block_d, small = rows * c * 8, rows * d * 8, n * 9 + 128 * 1024
    calls = {
        "msp": (lambda: score_msp(logits), 2 * block_c),
        "ebm": (lambda: score_energy(logits, 0.75), 2 * block_c),
        "mah": (lambda: score_mahalanobis(model, feats), block_c + rows * c + block_d),
    }
    for name, (call, held) in calls.items():
        call()  # first-call allocations, LAPACK's load
        peak = traced_peak(call)[1]
        assert peak <= held + small, (name, peak - held - small)


def test_wide_rows_peak_within_a_few_block_bytes(traced_peak):
    """At c = 1024 (d = 1024 for world logits, 512 for mah) a block is 128
    rows, where the paper's 923 rows would be 7 times the byte budget. Beyond
    what a call returns (the score vector and its finite mask, the float32
    logits), each traced peak stays within 2.5 block budgets: a block and its
    working array. mah stays within 2.0 (it measures 1.70): it frees each
    block's last refinement chunk before the next block is widened, and
    builds its d x d inverse and d x c candidate matrix in the first call
    only. It would exceed its bound if it did either otherwise. The world
    logits release each block before the next is widened, and sum the
    centers' squares a block at a time. 3000 rows in one block exceed that.

    The fit of 20000 float64 rows at the paper's (c, d) = (142, 128), which
    it writes its residuals over, stays within one budget beyond the model
    it returns (it measures 0.76): its class-sum blocks are 2d + 2 wide."""
    from oodgate.data import BLOCK_BYTES
    from oodgate.synthetic import _log_density_logits

    n, c, d = 3000, 1024, 1024
    rng = np.random.default_rng(5)
    logits = (4.0 * rng.normal(size=(n, c))).astype(np.float32)
    centers = rng.normal(size=(c, d))
    feats = (centers[rng.integers(0, c, n)] + rng.normal(size=(n, d))).astype(np.float32)
    narrow, m = np.ascontiguousarray(feats[:, :512]), 512  # mah's solves cost d^3
    model = GaussianClassModel(centers[:, :m], np.eye(m), np.full(c, 3))
    scores = n * 9
    calls = {
        "msp": (lambda rows: score_msp(logits[rows]), scores, 2.5),
        "ebm": (lambda rows: score_energy(logits[rows], 0.75), scores, 2.5),
        "mah": (lambda rows: score_mahalanobis(model, narrow[rows]), scores, 2.0),
        "logits": (lambda rows: _log_density_logits(feats[rows], centers, 1.0), n * c * 4, 2.5),
    }
    for name, (call, held, budgets) in calls.items():
        call(slice(2))  # first-call allocations, LAPACK's load
        peak = traced_peak(lambda: call(slice(None)))[1]
        assert peak <= held + budgets * BLOCK_BYTES, (name, (peak - held) / BLOCK_BYTES)

    fit_feats = rng.normal(size=(20000, 128))
    fit_labels = rng.permutation(np.arange(20000) % 142).astype(np.int32)
    fit = _Kept(fit_feats, None, fit_labels, 142)
    fit_mahalanobis(fit, 1e-6)  # a second fit, of the residuals, peaks alike
    model, peak = traced_peak(lambda: fit_mahalanobis(fit, 1e-6))
    held = sum(a.nbytes for a in (model.means, model.covariance, model.per_class_counts,
                                  model.precision_factor))
    assert peak <= held + BLOCK_BYTES, ("fit", (peak - held) / BLOCK_BYTES)


@pytest.mark.parametrize("n", [2048, 4096])
def test_float32_fit_frees_its_copy_before_the_model_is_built(n, traced_peak):
    """A float32 fit's float64 copy is dropped once the covariance product is
    made, so the model's d x d temporaries (symmetry check, ridge, factor)
    are not stacked on it: the peak stays below the copy plus two d x d
    float64 matrices (measured: plus 1.02 of them; 3.02 with the copy kept)."""
    d = 512
    rng = np.random.default_rng(0)
    fit = _Kept(rng.normal(size=(n, d)).astype(np.float32), None,
                (np.arange(n) % 10).astype(np.int32), 10)
    fit_mahalanobis(fit, 1e-6)  # first-call allocations, LAPACK's load
    peak = traced_peak(lambda: fit_mahalanobis(fit, 1e-6))[1]
    copy, square = n * d * 8, d * d * 8
    assert peak < copy + 2 * square, (peak - copy) / square


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: score_msp(np.zeros(3)), "logits must be 2-D (rows of logits), got (3,)"),
        # integer logits are widened to float64 before the shape check
        (lambda: score_msp(np.arange(3)), "logits must be 2-D (rows of logits), got (3,)"),
        (lambda: GaussianClassModel(np.zeros((2, 2)), np.eye(3), np.ones(2)),
         "covariance shape (3, 3) does not match d=2"),
        (lambda: GaussianClassModel(np.zeros((2, 2)), np.eye(2), np.ones(3)),
         "per_class_counts length must equal class count"),
    ],
    ids=["msp-1d", "msp-1d-integer", "covariance-shape", "count-shape"],
)
def test_logit_and_model_shape_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValidationError, message)


def test_integer_logits_score_as_their_float64_values():
    ints = np.array([[1, 2, 3], [0, 0, 0]])
    assert score_msp(ints).scores.tobytes() == score_msp(ints.astype(float)).scores.tobytes()


@pytest.mark.parametrize(
    "n, d, c",
    [(1, 3, 1), (4, 2, 3), (160, 96, 40), (300, 16, 20), (4800, 32, 8), (49152, 8, 16),
     (20000, 128, 142)],
)
def test_fitted_covariance_is_exactly_symmetric(n, d, c):
    """numpy computes ``feats.T @ feats`` with SYRK, which fills one triangle
    and mirrors it, so the fit needs no symmetrizing pass. The shapes are
    ones the other tests fit, a one-row fit, and 20000 x 128 in 5 blocks."""
    rng = np.random.default_rng(n)
    table = FeatureTable(rng.normal(size=(n, d)), None, np.arange(n) % c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n <= d warns
        cov = fit_mahalanobis(table).covariance
    assert cov.tobytes() == cov.T.tobytes()


def test_mahalanobis_overflowing_difference_is_a_numerical_error():
    model = GaussianClassModel([[1e308, 0.0], [0.0, 1.0]], np.eye(2), [5, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^a feature row minus a class mean overflows"):
            score_mahalanobis(model, [[-1e308, 0.0], [0.0, 0.0]])


def test_mahalanobis_overflowing_distance_is_a_numerical_error():
    """Each difference fits float64, its square does not: one row and two,
    under the suite's warnings-as-errors filter."""
    model = GaussianClassModel([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], np.eye(3), [5, 5])
    for n in (1, 2):
        with pytest.raises(NumericalError,
                           match="^a squared Mahalanobis distance overflows float64$"):
            score_mahalanobis(model, np.full((n, 3), 1e308))


def test_mahalanobis_far_candidate_that_overflows_loses_quietly():
    """Every class is a candidate here; a far class's squared distance
    overflows to inf, which the nearest class's finite one beats."""
    model = GaussianClassModel([[0.0, 0.0], [1e160, 0.0], [0.0, 1e160]], np.eye(2), [5, 5, 5])
    queries = np.array([[1e150, 0.0], [0.0, 1e150]])
    with np.errstate(over="ignore"):  # the oracle squares the far differences too
        expected = per_class_scores(model, queries)
    assert score_mahalanobis(model, queries).scores.tobytes() == expected.tobytes()
    assert np.isfinite(expected).all()


@pytest.mark.parametrize("values", [[[1 + 1j, 2.0]], [["1", "2"]], [[b"1", b"2"]]],
                         ids=["complex", "str", "bytes"])
def test_scorers_refuse_non_real_values(values):
    """msp, ebm and mah neither drop an imaginary part nor parse text."""
    values = np.array(values)
    model = GaussianClassModel([[0.0, 0.0], [1.0, 1.0]], np.eye(2), [5, 5])
    for score in (score_msp, score_energy, lambda v: score_mahalanobis(model, v)):
        with pytest.raises(ValidationError) as info:
            score(values)
        assert str(info.value) == f"detectors score real numbers, got dtype {values.dtype}"


def test_model_validation():
    with pytest.raises(ValidationError, match="no fit samples"):
        GaussianClassModel(np.zeros((2, 2)), np.eye(2), np.array([1, 0]))
    with pytest.raises(ValidationError, match="symmetric"):
        GaussianClassModel(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValidationError, match="c, d >= 1"):
        GaussianClassModel(np.zeros((0, 2)), np.eye(2), np.ones(0))
    with pytest.raises(ValidationError, match="^non-finite value in means at row 0$"):
        GaussianClassModel(np.array([[0.0, np.nan], [1.0, 1.0]]), np.eye(2), np.ones(2))
    cov = np.eye(2)
    cov[0, 1] = cov[1, 0] = np.inf
    with pytest.raises(ValidationError, match="^non-finite value in covariance at row 0$"):
        GaussianClassModel(np.zeros((2, 2)), cov, np.ones(2))
    for ridge in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="ridge must be finite"):
            GaussianClassModel(np.zeros((2, 2)), np.eye(2), np.ones(2), ridge)


# ---------------------------------------------------------------------------
# serialization and dispatch


def test_model_save_load_round_trip(tmp_path, rng):
    t = table_from(rng.normal(size=(80, 3)), rng.integers(0, 4, 80))
    model = fit_mahalanobis(t, ridge=1e-5)
    path = tmp_path / "m.oodm"
    save_model(model, path)
    back = load_model(path)
    assert back.c == model.c and back.d == model.d and back.ridge == model.ridge
    np.testing.assert_array_equal(back.means, model.means.astype(np.float32))
    np.testing.assert_array_equal(back.per_class_counts, model.per_class_counts)
    s = score_mahalanobis(back, rng.normal(size=(5, 3)))
    assert np.isfinite(s.scores).all()


def test_fit_save_and_load_leave_scipy_unloaded(tmp_path):
    """Fitting, saving and loading a model touch no scipy module, so ``oodgate
    fit`` starts without any; at d = 128 the factor is built at one BLAS
    thread, still without scipy."""
    code = """
import sys
import numpy as np
from oodgate import FeatureTable, fit_mahalanobis, load_model, save_model
for d, n in ((3, 40), (128, 512)):
    table = FeatureTable(np.random.default_rng(0).normal(size=(n, d)), None, np.arange(n) % 4)
    save_model(fit_mahalanobis(table), sys.argv[1])
    load_model(sys.argv[1])
print('scipy' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "m.oodm")],
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_mah_scoring_leaves_scipy_linalg_unloaded(tmp_path):
    """``score_mahalanobis`` and ``oodgate score --method mah`` load neither
    scipy nor ``scipy.linalg``: numpy's own OpenBLAS serves ``dtrtrs``."""
    code = """
import sys
import numpy as np
from oodgate import (FeatureTable, fit_mahalanobis, save_model, score_mahalanobis,
                     write_feature_table)
from oodgate.cli import main
table = FeatureTable(np.random.default_rng(0).normal(size=(40, 3)), None, np.arange(40) % 4)
model = fit_mahalanobis(table)
score_mahalanobis(model, table.features)
write_feature_table(table, sys.argv[1] + "/t.oodf")
save_model(model, sys.argv[1] + "/m.oodm")
rc = main(["score", "--input", sys.argv[1] + "/t.oodf", "--method", "mah",
           "--model", sys.argv[1] + "/m.oodm", "--out", sys.argv[1] + "/s.csv"])
print(rc, [name for name in ("scipy", "scipy.linalg") if name in sys.modules])
"""
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0 []", out.stderr
    assert len(read_scores(tmp_path / "s.csv")) == 40


#: Runs, in ``sys.argv[2]``, the CLI chain synth, fit, mah score of an ID and
#: an OOD table and eval if ``sys.argv[1]`` is "cli", or else an in-process mah
#: domain sweep; then prints each mapped file under the directories after them.
_MAPPED = """
import sys
kind, out, *dirs = sys.argv[1:]
if kind == "cli":
    from oodgate.cli import main
    world, model = f"{out}/world", f"{out}/m.oodm"
    for argv in (
        ["synth", "--classes", "4", "--dim", "16", "--law", "balanced:60", "--out", world],
        ["fit", "--manifest", f"{world}/world.manifest", "--out", model],
        ["score", "--input", f"{world}/id3.oodf", "--method", "mah", "--model", model,
         "--out", f"{out}/id.csv"],
        ["score", "--input", f"{world}/ood_d2.oodf", "--method", "mah", "--model", model,
         "--out", f"{out}/ood.csv"],
        ["eval", "--id-scores", f"{out}/id.csv", "--ood-scores", f"{out}/ood.csv",
         "--method", "mah", "--out", f"{out}/report.json"],
    ):
        assert main(argv) == 0, argv
else:
    from oodgate import (Axis, Balanced, DetectorConfig, Method, SweepSpec, SyntheticSpec,
                         run_sweep)
    world = SyntheticSpec(classes=4, dim=16, law=Balanced(60), seed=1)
    spec = SweepSpec(Axis.DOMAIN_DISTANCE, world, (1.0, 2.0), (DetectorConfig(Method.MAH),))
    assert [row.method for row in run_sweep(spec).rows] == ["mah", "mah"]
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = {line.split(maxsplit=5)[-1].rstrip("\\n") for line in fh}
print(sorted(p for p in paths if p.startswith(tuple(dirs))))
"""


@pytest.mark.parametrize("kind", ["cli", "sweep"])
def test_mah_runs_map_no_scipy_file(kind, tmp_path):
    """A mah CLI chain and a mah sweep map no file of scipy's install, its
    bundled libraries (``scipy.libs``) included: numpy's own OpenBLAS serves
    ``dtrtrs``. A module loaded from its file without a ``sys.modules`` entry
    would still show here."""
    import importlib.util
    from pathlib import Path

    if not Path("/proc/self/maps").is_file():
        pytest.skip("no /proc/self/maps on this platform")
    scipy = Path(importlib.util.find_spec("scipy").origin).parent
    dirs = [f"{scipy}{os.sep}", f"{scipy.parent / 'scipy.libs'}{os.sep}"]
    proc = subprocess.run([sys.executable, "-c", _MAPPED, kind, str(tmp_path), *dirs],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("d", [16, 128, 512])
def test_lapack_fallback_scores_the_same_bytes(d, block_rows, monkeypatch, kernel_note):
    """When numpy's BLAS exports no ``dtrtrs``, ``scipy.linalg.lapack``
    serves it, with the same score bytes: for a one-row input (one solve per
    candidate) and for 40 rows in 8-row blocks, each refined in two chunks or
    more (near-tie rows keep two candidates)."""
    from scipy.linalg import lapack

    rng = np.random.default_rng(d)
    c = 6
    a = rng.normal(size=(d, d))
    means, cov = rng.normal(size=(c, d)), a @ a.T / d + np.eye(d)
    mids = (means + np.roll(means, 1, axis=0)) / 2.0
    feats = np.vstack([mids, mids + 1e-12 * rng.normal(size=mids.shape),
                       means[rng.integers(0, c, 28)] + rng.normal(size=(28, d))])
    block_rows(8, d)

    def scores():  # a new model builds its candidate terms with the current routine
        model = GaussianClassModel(means, cov, np.full(c, 3))
        assert _candidates(feats[:8], model)[0].size > 8  # a block's refinement: 2+ chunks
        return [score_mahalanobis(model, x).scores.tobytes() for x in (feats[:1], feats)]

    looked, served, dtrtrs = [], [], lapack.dtrtrs

    def missing():
        looked.append(1)

    def counted(*args, **kwargs):
        served.append(1)
        return dtrtrs(*args, **kwargs)

    direct = scores()
    monkeypatch.setattr(detectors, "_trtrs", missing)
    monkeypatch.setattr(lapack, "dtrtrs", counted)
    assert scores() == direct, kernel_note
    assert looked and served == looked  # each solve looked, found nothing, and went to scipy


#: Scores ``sys.argv[1]`` with the mah model ``sys.argv[2]`` through the CLI,
#: where numpy's BLAS exports no ``dtrtrs`` and scipy cannot be imported.
_NO_LAPACK = """
import sys
from oodgate import detectors
from oodgate.cli import main
detectors._trtrs = lambda: None
sys.modules["scipy"] = None
table, model, out = sys.argv[1:]
sys.exit(main(["score", "--input", table, "--method", "mah", "--model", model, "--out", out]))
"""


def test_mah_without_any_dtrtrs_exits_4_with_one_line(tmp_path):
    from oodgate.cli import main

    world = tmp_path / "world"
    assert main(["synth", "--classes", "3", "--dim", "8", "--law", "balanced:60",
                 "--out", str(world)]) == 0
    model = tmp_path / "m.oodm"
    assert main(["fit", "--manifest", str(world / "world.manifest"), "--out", str(model)]) == 0
    out = tmp_path / "s.csv"
    proc = subprocess.run([sys.executable, "-c", _NO_LAPACK, str(world / "id3.oodf"),
                           str(model), str(out)], capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("numerical error: mah needs LAPACK's dtrtrs: numpy's BLAS "
                           "exports none and scipy is not installed\n")
    assert not out.exists()


@pytest.mark.parametrize("d", [8, 16, 64, 128, 512, 1024])
def test_solve_lower_gives_the_bits_of_scipy_solve_triangular(d):
    """For 1, 3, 300 and 4096 right-hand sides and both transposes. A
    Fortran-ordered float64 ``b`` is solved in place under ``overwrite_b``;
    without it, ``b`` is left as it was. A ``b`` of the wrong height is
    refused before LAPACK could read past it."""
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d))
    factor = np.linalg.cholesky(a @ a.T / d + np.eye(d))
    with pytest.raises(ValueError, match=f"^factor shape \\({d}, {d}\\) does not match b's"):
        _solve_lower(factor, np.ones((d + 1, 2)))
    for k in (1, 3, 300, 4096):
        b = rng.normal(size=(d, k))
        kept = b.tobytes()
        for transposed in (False, True):
            want = solve_triangular(factor, b, lower=True, trans=int(transposed)).tobytes()
            assert _solve_lower(factor, b, transposed).tobytes() == want
            assert b.tobytes() == kept
            fortran = np.array(b, order="F")  # a copy, also where b is one column
            assert _solve_lower(factor, fortran, transposed).tobytes() == want
            assert fortran.tobytes() == kept
            assert _solve_lower(factor, fortran, transposed, overwrite_b=True) is fortran
            assert fortran.tobytes() == want


def test_triangular_solve_on_a_zero_diagonal_raises_linalg_error():
    """As with ``scipy.linalg.solve_triangular``, so the CLI exits 4."""
    factor = np.tril(np.ones((3, 3)))
    factor[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError,
                       match="^singular matrix: resolution failed at diagonal 1$"):
        _solve_lower(factor, np.ones((3, 2)))


def test_model_bad_file(tmp_path):
    path = tmp_path / "m.oodm"
    path.write_bytes(b"WRONGxxxxxxxxxxxxxxxxxxxxxxxxxxx")
    with pytest.raises(Exception, match="magic|truncated"):
        load_model(path)


def test_scores_csv_round_trip(tmp_path, rng):
    s = ScoreSet(Method.EBM, rng.normal(size=50) * 1e3)
    path = tmp_path / "s.csv"
    write_scores(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,score"
    back = read_scores(path, Method.EBM)
    assert (back.scores == s.scores).all()  # 17 significant digits round-trip
    assert back.method is Method.EBM


_F64 = np.finfo(np.float64)


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, _F64.smallest_subnormal, _F64.tiny, _F64.max,
                             -_F64.max, -_F64.smallest_subnormal]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_scores_csv_round_trip_float64_extremes(values):
    import tempfile

    s = ScoreSet(Method.MAH, np.array(values))
    with tempfile.TemporaryDirectory() as tmp:
        write_scores(s, f"{tmp}/s.csv")
        back = read_scores(f"{tmp}/s.csv")
    assert back.scores.tobytes() == s.scores.tobytes()


def test_scores_csv_bytes_pinned(tmp_path):
    """CRLF ``index,score`` rows with 17 significant digits; digest fixed
    before the CSV codec was shared with tables."""
    import hashlib

    s = ScoreSet(Method.MAH, np.array([0.0, -0.0, _F64.smallest_subnormal, _F64.max,
                                       -_F64.tiny, 0.1, 1.0 / 3.0, -123456789.0]))
    path = tmp_path / "s.csv"
    write_scores(s, path)
    raw = path.read_bytes()
    assert raw.startswith(b"index,score\r\n0,0\r\n1,-0\r\n")
    assert hashlib.sha256(raw).hexdigest() == (
        "35846c8a36315bcb9c24497d06752bc4714684acb10ce8c37e03e70f532a3030"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,score\n0,1\n\n1,2,3\n", "line 4 has 3 fields, expected 2"),
        ("index,score\n0,1\n1,oops\n", "line 3: could not convert"),
        ("index,score\n0,1\n1,1_0\n", "line 3: could not convert string to a number: '1_0'"),
        ("index,score\n0,\u0661\n", "line 2: could not convert string to a number: '\u0661'"),
        ("index,score\r\n", "no data rows"),
        ("idx,score\n0,1\n", "expected 'index,score' header"),
    ],
)
def test_scores_csv_malformed(tmp_path, text, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(IngestionError, match=message):
        read_scores(path)


def test_scoreset_validation():
    with pytest.raises(ValidationError):
        ScoreSet(Method.MSP, np.array([]))
    with pytest.raises(ValidationError):
        ScoreSet(Method.MSP, np.array([1.0, np.nan]))


def test_detector_config_validation():
    with pytest.raises(ValidationError):
        DetectorConfig(Method.EBM, temperature=0.0)
    with pytest.raises(ValidationError):
        DetectorConfig(Method.MAH, ridge=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="temperature must be finite"):
            DetectorConfig(Method.EBM, temperature=bad)
        with pytest.raises(ValidationError, match="ridge must be finite"):
            DetectorConfig(Method.MAH, ridge=bad)


def test_score_table_dispatch(rng):
    t = FeatureTable(
        rng.normal(size=(10, 3)), rng.normal(size=(10, 4)), rng.integers(0, 4, 10)
    )
    msp = score_table(DetectorConfig(Method.MSP), t)
    ebm = score_table(DetectorConfig(Method.EBM, temperature=2.0), t)
    assert msp.method is Method.MSP and ebm.method is Method.EBM

    model = fit_mahalanobis(t)
    mah = score_table(DetectorConfig(Method.MAH), t, model)
    assert mah.method is Method.MAH and len(mah) == 10

    bare = FeatureTable(rng.normal(size=(4, 3)), None, np.full(4, UNLABELED))
    with pytest.raises(ValidationError, match="logits"):
        score_table(DetectorConfig(Method.MSP), bare)
    with pytest.raises(ValidationError, match="model"):
        score_table(DetectorConfig(Method.MAH), t)


def test_method_value_configures_the_same_detector(rng):
    """A config or score set built from a method's value holds the Method
    itself, so ``score_table``'s ``is`` dispatch picks the named detector."""
    t = FeatureTable(
        rng.normal(size=(10, 3)), rng.normal(size=(10, 4)), rng.integers(0, 4, 10)
    )
    model = fit_mahalanobis(t)
    for method in Method:
        by_value = DetectorConfig(method.value, temperature=2.0)
        assert by_value.method is method and by_value == DetectorConfig(method, 2.0)
        got = score_table(by_value, t, model)
        want = score_table(DetectorConfig(method, 2.0), t, model)
        assert got.method is method and got.scores.tobytes() == want.scores.tobytes()
        assert ScoreSet(method.value, [1.0]).method is method
    assert ScoreSet(None, [1.0]).method is None
    for bad in ("bogus", "MSP", 3):
        with pytest.raises(ValidationError, match="unknown detector method"):
            DetectorConfig(bad)
        with pytest.raises(ValidationError, match="unknown detector method"):
            ScoreSet(bad, [1.0])


@pytest.mark.parametrize("score", [score_msp, score_energy], ids=["msp", "ebm"])
def test_logits_without_columns_are_rejected(score):
    with pytest.raises(ValidationError) as info:
        score(np.zeros((3, 0)))
    assert str(info.value) == "logits need at least 1 column, got shape (3, 0)"
