"""Detector scores: analytic hand cases, shift properties, and oracles.

Frozen expected values were computed independently at 40 decimal digits
with mpmath: max softmax of [1,2,3] = 1/(1+e^-1+e^-2), energy of [1,2,3]
at T=1 = 3+ln(1+e^-1+e^-2).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oodgate import (
    UNLABELED,
    DetectorConfig,
    FeatureTable,
    GaussianClassModel,
    IngestionError,
    Method,
    NumericalError,
    ScoreSet,
    ValidationError,
    direct_mahalanobis_oracle,
    direct_pooled_covariance,
    fit_mahalanobis,
    load_model,
    read_scores,
    save_model,
    score_energy,
    score_mahalanobis,
    score_msp,
    score_table,
    softmax,
    write_scores,
)
from oodgate.detectors import SCORE_CHUNK_ROWS

MSP_123 = 0.6652409557748219  # mpmath, 25 digits: 0.66524095577482188952...
EBM_123 = 3.4076059644443803  # mpmath, 25 digits: 3.40760596444438030448...
LN2 = 0.6931471805599453

logit_rows = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=2,
    max_size=8,
)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    np.testing.assert_allclose(softmax([0.0, 0.0, 0.0, 0.0]), [0.25] * 4, atol=1e-15)


def test_softmax_single_class():
    np.testing.assert_allclose(softmax([5.0]), [1.0], atol=0)


def test_softmax_frozen_value():
    assert abs(softmax([1.0, 2.0, 3.0]).max() - MSP_123) < 1e-12


@given(row=logit_rows)
def test_softmax_normalizes(row):
    p = softmax(row)
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p >= 0).all()


@given(row=logit_rows, shift=st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_softmax_shift_invariant(row, shift):
    a = softmax(row)
    b = softmax(np.asarray(row) + shift)
    assert np.abs(a - b).max() < 1e-12


def test_softmax_extreme_logits_stable():
    p = softmax([1000.0, 0.0])
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# msp


def test_msp_hand_cases():
    s = score_msp(np.array([[0.0, 0.0], [100.0, 0.0]]))
    assert s.method is Method.MSP
    assert s.scores[0] == 0.5
    assert abs(s.scores[1] - 1.0) < 1e-12
    assert abs(score_msp(np.array([[1.0, 2.0, 3.0]])).scores[0] - MSP_123) < 1e-12


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
    with pytest.raises(ValidationError):
        score_energy(np.zeros((1, 2)), temperature=0.0)


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


def test_fit_missing_class_named():
    t = FeatureTable(
        np.zeros((4, 2)), np.zeros((4, 3)), np.array([0, 0, 2, 2])
    )
    with pytest.raises(ValidationError, match="class 1"):
        fit_mahalanobis(t)


def test_fit_requires_labels():
    t = table_from([[0.0, 1.0]] * 4, [UNLABELED] * 4)
    with pytest.raises(ValidationError, match="labeled"):
        fit_mahalanobis(t)


def test_fit_warns_when_n_not_above_d():
    t = table_from(np.eye(4), [0, 0, 1, 1])
    with pytest.warns(UserWarning, match="unstable"):
        fit_mahalanobis(t)


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


def test_mahalanobis_one_row_last_block(rng):
    """A last block of one row is refined as part of a wide input, which for
    some rows differs in the last bit from a one-column solve."""
    model = fit_mahalanobis(table_from(rng.normal(size=(60, 8)), rng.integers(0, 3, 60)))
    queries = rng.normal(size=(SCORE_CHUNK_ROWS + 30, 8))
    reference = per_class_scores(model, queries)
    for last in range(SCORE_CHUNK_ROWS, SCORE_CHUNK_ROWS + 30):
        rows = np.r_[:SCORE_CHUNK_ROWS, last]
        assert score_mahalanobis(model, queries[rows]).scores.tobytes() == reference[rows].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")  # distances to far means
def test_mahalanobis_overflowing_estimate_keeps_every_class():
    """Whitened norms overflow to inf here, the direct differences do not."""
    model = identity_model([[1e160, 0.0], [0.0, 1e160], [-1e160, 0.0]])
    queries = model.means[[0, 1]] + np.array([[3e144, -2e144], [1e144, 5e144]])
    fast = score_mahalanobis(model, queries).scores
    assert np.isfinite(fast).all()
    assert fast.tobytes() == per_class_scores(model, queries).tobytes()


def test_mahalanobis_chunk_edges_and_pinned_bytes(tmp_path):
    """c=142, d=128 over two whole row blocks plus 3 rows; the score CSV digest
    was recorded with the one-solve-per-class scorer."""
    import hashlib

    c, d, n = 142, 128, 8195
    assert n == 2 * SCORE_CHUNK_ROWS + 3
    rng = np.random.default_rng(20261018)
    mix = rng.normal(size=(d, d)) / np.sqrt(d)
    means = 3.0 * rng.normal(size=(c, d)) / np.sqrt(d)
    model = GaussianClassModel(means, mix @ mix.T + np.eye(d), np.full(c, 400))
    queries = means[rng.integers(0, c, n)] + rng.normal(size=(n, d))
    full = score_mahalanobis(model, queries)
    # parts of 2, chunk + 1 (a one-row last block), chunk - 2 and 2 rows
    cuts = [0, 2, SCORE_CHUNK_ROWS + 3, 2 * SCORE_CHUNK_ROWS + 1, n]
    parts = [score_mahalanobis(model, queries[a:b]).scores for a, b in zip(cuts, cuts[1:])]
    assert full.scores.tobytes() == np.concatenate(parts).tobytes()
    path = tmp_path / "s.csv"
    write_scores(full, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "acda38640147f83641accfe68770f098e845e759bc914c69f2b1603a24d8acbc"
    )


def test_logit_scorers_batch_partition_determinism(rng):
    logits = np.asarray(rng.normal(size=(40, 5)) * 10)
    for scorer in (score_msp, score_energy):
        full = scorer(logits).scores
        parts = np.concatenate(
            [scorer(logits[:13]).scores, scorer(logits[13:]).scores]
        )
        assert (full == parts).all()


def test_model_validation():
    with pytest.raises(ValidationError, match="no fit samples"):
        GaussianClassModel(np.zeros((2, 2)), np.eye(2), np.array([1, 0]))
    with pytest.raises(ValidationError, match="symmetric"):
        GaussianClassModel(np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))


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
