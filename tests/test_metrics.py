"""ROC construction, AUROC vs the pairwise oracle, calibration, quartiles."""

import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oodgate import (
    Criterion,
    EvalReport,
    Method,
    RocCurve,
    ScoreSet,
    ValidationError,
    auroc,
    calibrate_threshold,
    evaluate,
    fpr_at_tpr,
    pairwise_auroc_oracle,
    roc_curve,
)
from oodgate.svg import roc_svg, series_svg


def ss(values, method=Method.EBM):
    return ScoreSet(method, np.asarray(values, dtype=float))


score_lists = st.lists(
    st.integers(min_value=-20, max_value=20).map(lambda v: v / 4.0),
    min_size=1,
    max_size=60,
)


def staircase(curve):
    """Deduplicated (fpr, tpr) sequence."""
    pts = list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# roc_curve


def test_roc_perfect_separation():
    curve = roc_curve(ss([2.0]), ss([1.0]))
    assert staircase(curve) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert auroc(curve) == 1.0


def test_roc_total_overlap_single_diagonal_step():
    curve = roc_curve(ss([1.0]), ss([1.0]))
    assert staircase(curve) == [(0.0, 0.0), (1.0, 1.0)]
    assert auroc(curve) == 0.5


def test_roc_staircase_hand_case():
    curve = roc_curve(ss([3.0, 1.0]), ss([2.0, 0.0]))
    np.testing.assert_array_equal(
        curve.thresholds, [np.inf, 3.0, 2.0, 1.0, 0.0, -np.inf]
    )
    np.testing.assert_array_equal(curve.tpr, [0, 0.5, 0.5, 1, 1, 1])
    np.testing.assert_array_equal(curve.fpr, [0, 0, 0.5, 0.5, 1, 1])
    assert staircase(curve) == [
        (0.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.5),
        (0.5, 1.0),
        (1.0, 1.0),
    ]


def test_roc_method_mismatch():
    with pytest.raises(ValidationError, match="method"):
        roc_curve(ss([1.0], Method.MSP), ss([1.0], Method.EBM))


def _unique_cuts(id_s, ood_s):
    """The ``np.unique`` formulation of ``metrics._cuts``, kept as its oracle."""
    cuts = np.unique(np.concatenate([id_s, ood_s]))[::-1]
    tp = id_s.size - np.searchsorted(np.sort(id_s), cuts, side="left")
    fp = ood_s.size - np.searchsorted(np.sort(ood_s), cuts, side="left")
    return cuts, tp, fp


def test_cuts_keep_the_bytes_of_the_unique_formulation():
    """Twelve pairs of score sets of up to 3000 values, with heavy ties and a
    tie group of -0.0 and 0.0: every cut, tp and fp has the oracle's dtype and
    bytes, so each tie group is cut at the element ``np.unique`` keeps. That
    zero is -0.0 in some pairs and 0.0 in others, so both choices are seen."""
    from oodgate.metrics import _cuts

    signs = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n_id, n_ood = rng.integers(1, 3000, size=2)
        values = rng.integers(-8, 9, size=n_id + n_ood) / 4.0  # 17 distinct values
        zeros = np.flatnonzero(rng.random(values.size) < 0.2)
        values[zeros] = np.where(rng.random(zeros.size) < 0.5, -0.0, 0.0)
        values[rng.choice(values.size, size=2, replace=False)] = -0.0, 0.0
        id_s, ood_s = values[:n_id], values[n_id:]
        got, want = _cuts(ss(id_s), ss(ood_s)), _unique_cuts(id_s, ood_s)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), seed
        (zero,) = got[0][got[0] == 0.0]  # the zeros are one tie group
        signs.add(bool(np.signbit(zero)))
    assert signs == {False, True}


def test_empty_scores_rejected():
    with pytest.raises(ValidationError):
        ss([])


# ---------------------------------------------------------------------------
# auroc


def test_auroc_hand_case_three_quarters():
    assert auroc(roc_curve(ss([3.0, 1.0]), ss([2.0, 0.0]))) == 0.75
    assert pairwise_auroc_oracle(ss([3.0, 1.0]), ss([2.0, 0.0])) == 0.75


def test_auroc_identical_multisets_half():
    v = list(range(10)) * 2
    assert auroc(roc_curve(ss(v), ss(v))) == 0.5


@given(id_scores=score_lists, ood_scores=score_lists)
def test_auroc_matches_pairwise_oracle(id_scores, ood_scores):
    a = auroc(roc_curve(ss(id_scores), ss(ood_scores)))
    b = pairwise_auroc_oracle(np.array(id_scores), np.array(ood_scores))
    assert abs(a - b) <= 1e-12


@given(id_scores=score_lists, ood_scores=score_lists)
def test_auroc_monotone_transform_invariant(id_scores, ood_scores):
    base = auroc(roc_curve(ss(id_scores), ss(ood_scores)))
    for f in (lambda x: np.exp(x / 4.0), lambda x: 3.0 * x + 11.0):
        mapped = auroc(roc_curve(ss(f(np.array(id_scores))), ss(f(np.array(ood_scores)))))
        assert abs(mapped - base) <= 1e-12


@given(id_scores=score_lists, ood_scores=score_lists)
def test_auroc_swap_complements(id_scores, ood_scores):
    a = auroc(roc_curve(ss(id_scores), ss(ood_scores)))
    b = auroc(roc_curve(ss(ood_scores), ss(id_scores)))
    assert abs((a + b) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# fpr_at_tpr


def test_fpr95_perfect_separation():
    curve = roc_curve(ss([5.0, 4.0]), ss([1.0, 0.0]))
    assert fpr_at_tpr(curve, 0.95) == 0.0


def test_fpr95_enumerated_hand_case():
    curve = roc_curve(ss([5.0, 4.0, 3.0, 2.0, 1.0]), ss([1.5, 0.5]))
    assert fpr_at_tpr(curve, 0.95) == 0.5


def test_fpr95_equal_multisets_near_095():
    v = np.arange(1, 1001, dtype=float)
    curve = roc_curve(ss(v), ss(v))
    assert abs(fpr_at_tpr(curve, 0.95) - 0.95) < 1e-12


def test_fpr_at_tpr_monotone_in_target(rng):
    curve = roc_curve(ss(rng.normal(size=200) + 0.5), ss(rng.normal(size=150)))
    targets = np.linspace(0.05, 1.0, 20)
    values = [fpr_at_tpr(curve, t) for t in targets]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_fpr_at_tpr_target_validated():
    curve = roc_curve(ss([1.0]), ss([0.0]))
    with pytest.raises(ValidationError):
        fpr_at_tpr(curve, 0.0)


# ---------------------------------------------------------------------------
# calibrate_threshold


def test_youden_hand_case():
    assert calibrate_threshold(ss([3.0, 2.0]), ss([1.0, 0.0])) == (2.0, 1.0, 0.0)


def test_youden_degenerate_tie_break():
    # TPR - FPR = 0 everywhere; pick the smaller cut (accept more as ID)
    assert calibrate_threshold(ss([1.0]), ss([1.0])) == (1.0, 1.0, 1.0)


def test_fpr_at_tpr_criterion_hand_case():
    t, tpr, fpr = calibrate_threshold(
        ss([2.0, 2.0, 0.0]), ss([1.0]), Criterion.FPR_AT_TPR, target_tpr=0.95
    )
    assert (t, tpr, fpr) == (0.0, 1.0, 1.0)


@given(id_scores=score_lists, ood_scores=score_lists)
def test_youden_beats_every_observed_cut(id_scores, ood_scores):
    id_set, ood_set = ss(id_scores), ss(ood_scores)
    threshold, tpr, fpr = calibrate_threshold(id_set, ood_set)
    best = tpr - fpr
    id_arr, ood_arr = np.array(id_scores), np.array(ood_scores)
    for cut in np.concatenate([id_arr, ood_arr]):
        j = (id_arr >= cut).mean() - (ood_arr >= cut).mean()
        assert best >= j - 1e-12


# ---------------------------------------------------------------------------
# evaluate's accuracy at its threshold: (ID accepted + OOD rejected) / total,
# a score equal to the threshold counting as accepted


def test_accuracy_perfect_interior():
    report = evaluate(ss([3.0, 2.0]), ss([1.0, 0.0]))
    assert (report.threshold, report.accuracy_at_threshold) == (2.0, 1.0)


def test_accuracy_hand_count():
    # Youden ties cuts 3 and 1 (J = 0.5) and takes the smaller: at 1 both ID
    # scores are accepted, the OOD 2 is accepted and the OOD 0 rejected
    report = evaluate(ss([3.0, 1.0]), ss([2.0, 0.0]))
    assert (report.threshold, report.accuracy_at_threshold) == (1.0, 0.75)
    # the largest cut with TPR >= 0.5 is 3: one ID accepted, both OOD rejected
    report = evaluate(ss([3.0, 1.0]), ss([2.0, 0.0]), Criterion.FPR_AT_TPR, 0.5)
    assert (report.threshold, report.accuracy_at_threshold) == (3.0, 0.75)


def test_accuracy_all_identical():
    # the one cut is 5: every ID score and every OOD score equals it, so all
    # are accepted, the 3 ID rightly and the 7 OOD wrongly
    report = evaluate(ss([5.0] * 3), ss([5.0] * 7))
    assert (report.threshold, report.accuracy_at_threshold) == (5.0, 0.3)


# ---------------------------------------------------------------------------
# five-number summary


def quartiles(values):
    """The five-number summary ``evaluate`` reports for ID scores ``values``."""
    return evaluate(ss(values), ss([0.0])).id_quartiles


def test_five_number_exact_positions():
    assert quartiles([1, 2, 3, 4, 5]) == (1, 2, 3, 4, 5)


def test_five_number_singleton():
    assert quartiles([7.0]) == (7, 7, 7, 7, 7)


def test_five_number_interpolation():
    mn, q1, med, q3, mx = quartiles([1, 2, 3, 4])
    assert (mn, q1, med, q3, mx) == (1.0, 1.75, 2.5, 3.25, 4.0)


# ---------------------------------------------------------------------------
# EvalReport


def test_report_keys_exact_order():
    report = evaluate(ss([3.0, 2.0]), ss([1.0, 0.0]))
    obj = json.loads(report.to_json())
    assert list(obj) == [
        "method",
        "auroc",
        "fpr95",
        "threshold",
        "tpr_at_threshold",
        "fpr_at_threshold",
        "accuracy_at_threshold",
        "id_quartiles",
        "ood_quartiles",
        "n_id",
        "n_ood",
    ]
    assert list(obj["id_quartiles"]) == ["min", "q1", "median", "q3", "max"]
    assert obj["method"] == "ebm"
    assert obj["auroc"] == 1.0 and obj["fpr95"] == 0.0
    assert obj["n_id"] == 2 and obj["n_ood"] == 2
    assert obj["accuracy_at_threshold"] == 1.0


def test_report_invariant_enforced():
    with pytest.raises(ValidationError):
        EvalReport(
            method="ebm",
            auroc=1.0,
            fpr95=0.25,
            threshold=0.0,
            tpr_at_threshold=1.0,
            fpr_at_threshold=0.0,
            accuracy_at_threshold=1.0,
            id_quartiles=(0, 0, 0, 0, 0),
            ood_quartiles=(0, 0, 0, 0, 0),
            n_id=1,
            n_ood=1,
        )


def test_report_accuracy_identity(rng):
    id_set = ss(rng.normal(size=37) + 1.0)
    ood_set = ss(rng.normal(size=23))
    report = evaluate(id_set, ood_set)
    tp = int((id_set.scores >= report.threshold).sum())
    tn = int((ood_set.scores < report.threshold).sum())
    assert report.accuracy_at_threshold == (tp + tn) / 60


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: calibrate_threshold(ss([1.0]), ss([0.0]), Criterion.FPR_AT_TPR, 0.0),
         "target TPR must be in (0,1], got 0.0"),
        (lambda: calibrate_threshold(ss([1.0]), ss([0.0]), "bogus"), "unknown criterion 'bogus'"),
        (lambda: evaluate(ss([1.0]), ss([0.0]), "bogus"), "unknown criterion 'bogus'"),
        # the score sets are checked first
        (lambda: calibrate_threshold(ss([1.0]), ss([0.0], Method.MSP), "bogus"),
         "score sets disagree on method: Method.EBM vs Method.MSP"),
        (lambda: RocCurve([np.inf, -np.inf], [0.0, 1.0], [0.0, 0.5, 1.0]),
         "curve arrays must be equal-length vectors"),
        (lambda: RocCurve([-np.inf, np.inf], [0.0, 1.0], [0.0, 1.0]),
         "thresholds must be strictly descending"),
        (lambda: RocCurve([np.inf, 0.0, -np.inf], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]),
         "tpr must rise from 0 to 1 as thresholds descend"),
        (lambda: RocCurve([np.inf, 0.0, -np.inf], [0.0, 0.5, 1.0], [0.0, 0.5, 0.5]),
         "fpr must rise from 0 to 1 as thresholds descend"),
    ],
    ids=["tpr-target-0", "criterion-calibrate", "criterion-evaluate", "criterion-after-method",
         "curve-lengths", "curve-ascending", "curve-tpr", "curve-fpr"],
)
def test_metric_input_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValidationError, message)


# ---------------------------------------------------------------------------
# SVG


def test_roc_svg_well_formed_and_deterministic(rng):
    curve = roc_curve(ss(rng.normal(size=40) + 1), ss(rng.normal(size=40)))
    svg = roc_svg(curve)
    assert svg == roc_svg(curve)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polyline" in svg and "stroke-dasharray" in svg


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_roc_svg_pinned_bytes():
    # digests recorded with the renderer that formatted one point at a time
    tied = roc_curve(ss([3.0, 2.0, 2.0, 1.0, 0.5]), ss([2.0, 1.0, 1.0, 0.0]))
    rng = np.random.default_rng(5000)
    big = roc_curve(ss(rng.normal(size=2500) + 0.7), ss(rng.normal(size=2500)))
    assert (tied.fpr.size, big.fpr.size) == (7, 5002)
    assert _sha256(roc_svg(tied)) == (
        "34fa18ba03dfb4e15664b439977d8d0e468954ccb99e0f79510b4e9af2f02455"
    )
    assert _sha256(roc_svg(big)) == (
        "09c0c67ec41f5f9a1c9bcd512ee925892040496be546c4a7391ee4f2833ffc48"
    )


@pytest.mark.parametrize(
    "x_labels, series, title, digest",
    [
        # one grid label (k = 1), seven series (the palette wraps)
        (["only"], {f"m{i}": [v] for i, v in enumerate([1.2, -0.1, 0.5, 0.25, 1.0, 0.0, 0.875])},
         "AUROC vs one", "33d1d019a6074b07d44f1096c5986e8c593c1c1c176c7fa052411554e7bfa3c7"),
        (["d1", "d2", "d3"], {"msp": [0.5, 1.2, 0.75], "mah": [-0.1, 0.3333, 1.0]},
         "AUROC vs domain-distance",
         "cfa00fbee099b2077d76bdd4ddb0246143a3115b56ae2816587d77fabf97c9a9"),
    ],
    ids=["one-label-seven-series", "three-labels-clamped"],
)
def test_series_svg_pinned_bytes_and_well_formed(x_labels, series, title, digest):
    svg = series_svg(x_labels, series, title)
    assert _sha256(svg) == digest
    root = ET.fromstring(svg)
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == sum(map(len, series.values()))
    assert all(56.0 <= float(c.get("cy")) <= 424.0 for c in circles)  # clamped to [0, 1]
