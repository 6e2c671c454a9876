"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria rest on oracle equivalence, analytic hand values, determinism, and
trend reproduction on fixed-seed synthetic worlds; tolerances are stated
inline and are not adjustable.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oodgate import (
    Balanced,
    DATASET_SIZE_PRESETS,
    DetectorConfig,
    FeatureTable,
    Method,
    ScoreSet,
    SweepSpec,
    SyntheticSpec,
    UnbalancedPowerlaw,
    UnbalancedUniform,
    auroc,
    calibrate_threshold,
    direct_mahalanobis_oracle,
    direct_pooled_covariance,
    fit_mahalanobis,
    five_number_summary,
    fpr_at_tpr,
    pairwise_auroc_oracle,
    roc_curve,
    sample_imbalanced,
    score_energy,
    score_mahalanobis,
    score_msp,
    softmax,
)
from oodgate.experiments import Axis, run_sweep

GOLDEN = Path(__file__).parent / "data" / "golden_eval_report.json"


def announce(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def ss(values, method=None):
    return ScoreSet(method, np.asarray(values, dtype=float))


def test_criterion_1_auroc_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        n_id = int(rng.integers(1, 1001))
        n_ood = int(rng.integers(1, 1001))
        id_s = rng.normal(loc=0.4, size=n_id)
        ood_s = rng.normal(size=n_ood)
        if trial % 2 == 0:  # force heavy ties
            id_s = np.round(id_s, 1)
            ood_s = np.round(ood_s, 1)
        fast = auroc(roc_curve(ss(id_s), ss(ood_s)))
        slow = pairwise_auroc_oracle(id_s, ood_s)
        worst = max(worst, abs(fast - slow))
    elapsed = time.monotonic() - start
    announce(
        1,
        "AUROC equals the O(n^2) pairwise oracle on 200 random pairs",
        worst <= 1e-12 and elapsed < 60,
        f"max diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mahalanobis_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    start = time.monotonic()
    worst_cov = 0.0
    worst_score = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 21))
        c = int(rng.integers(2, 11))
        n = int(rng.integers(max(3 * d, 4 * c), 400))
        labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        feats = rng.normal(size=(n, d)) + 1.5 * rng.normal(size=(c, d))[labels]
        table = FeatureTable(feats, None, labels)

        model = fit_mahalanobis(table, ridge=1e-6)
        means, cov = direct_pooled_covariance(table.features, table.labels)
        scale = np.abs(cov).max()
        worst_cov = max(worst_cov, np.abs(model.covariance - cov).max() / scale)

        queries = rng.normal(size=(3, d)) * 2.0
        fast = score_mahalanobis(model, queries).scores
        slow = np.array(
            [direct_mahalanobis_oracle(table, q, ridge=1e-6) for q in queries]
        )
        worst_score = max(worst_score, np.abs((fast - slow) / slow).max())
    elapsed = time.monotonic() - start
    announce(
        2,
        "Mahalanobis fit and scores match dense-solve oracles (100 instances)",
        worst_cov <= 1e-10 and worst_score <= 1e-8 and elapsed < 60,
        f"cov {worst_cov:.2e}, score {worst_score:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_energy_msp_analytic_checks():
    rng = np.random.default_rng(20260812)
    ok = True
    detail = []

    rows = rng.normal(size=(50, 6)) * 5
    shifts = rng.normal(size=50) * 10
    base = score_energy(rows).scores
    shifted = score_energy(rows + shifts[:, None]).scores
    shift_err = np.abs(shifted - (base + shifts)).max()
    ok &= shift_err < 1e-12
    detail.append(f"energy shift {shift_err:.1e}")

    msp_err = np.abs(
        score_msp(rows).scores - score_msp(rows + shifts[:, None]).scores
    ).max()
    ok &= msp_err < 1e-12
    detail.append(f"msp shift {msp_err:.1e}")

    for j in range(6):
        bumped = rows.copy()
        bumped[:, j] += 0.7
        ok &= (score_energy(bumped).scores >= base).all()

    norm_err = np.abs(softmax(rows, axis=1).sum(axis=1) - 1.0).max()
    ok &= norm_err < 1e-12
    detail.append(f"softmax norm {norm_err:.1e}")

    # hand-derived values from the detector contracts
    ok &= abs(score_msp(np.array([[0.0, 0.0]])).scores[0] - 0.5) < 1e-12
    ok &= abs(score_msp(np.array([[100.0, 0.0]])).scores[0] - 1.0) < 1e-12
    ok &= abs(score_msp(np.array([[1.0, 2.0, 3.0]])).scores[0] - 0.66524096) < 1e-8
    ok &= abs(score_energy(np.array([[4.25]])).scores[0] - 4.25) < 1e-12
    ok &= abs(score_energy(np.array([[0.0, 0.0]])).scores[0] - np.log(2.0)) < 1e-12
    ok &= abs(score_energy(np.array([[1.0, 2.0, 3.0]])).scores[0] - 3.40760596444438) < 1e-12
    ok &= abs(score_energy(np.array([[0.0, 0.0]]), 2.0).scores[0] - 2 * np.log(2.0)) < 1e-12
    ok &= np.allclose(softmax([0.0, 0.0, 0.0, 0.0]), 0.25, atol=1e-15)

    announce(3, "energy/MSP shift, monotonicity, and hand values", bool(ok), ", ".join(detail))


def test_criterion_4_metric_hand_cases():
    a = auroc(roc_curve(ss([3.0, 1.0]), ss([2.0, 0.0])))
    f = fpr_at_tpr(roc_curve(ss([5.0, 4.0, 3.0, 2.0, 1.0]), ss([1.5, 0.5])), 0.95)
    threshold, _, _ = calibrate_threshold(ss([3.0, 2.0]), ss([1.0, 0.0]))
    q4 = five_number_summary(ss([1.0, 2.0, 3.0, 4.0]))
    q5 = five_number_summary(ss([1.0, 2.0, 3.0, 4.0, 5.0]))
    singleton = five_number_summary(ss([7.0]))
    ok = (
        a == 0.75
        and f == 0.5
        and threshold == 2.0
        and q4 == (1.0, 1.75, 2.5, 3.25, 4.0)
        and q5 == (1.0, 2.0, 3.0, 4.0, 5.0)
        and singleton == (7.0,) * 5
    )
    announce(
        4,
        "metric hand cases (AUROC 0.75, FPR95 0.5, Youden cut 2, quartiles)",
        ok,
        f"auroc={a}, fpr95={f}, threshold={threshold}",
    )


def test_criterion_5_domain_distance_trend():
    start = time.monotonic()
    spec = SweepSpec(
        axis=Axis.DOMAIN_DISTANCE,
        base_world=SyntheticSpec(
            classes=20, dim=16, class_separation=1.0, within_class_sigma=1.0,
            law=Balanced(670), seed=5,
        ),
        grid=(0.0, 0.5, 4.0),
        detectors=(
            DetectorConfig(Method.MSP),
            DetectorConfig(Method.EBM),
            DetectorConfig(Method.MAH),
        ),
        seed=17,
        n_per_side=2000,
    )
    result = run_sweep(spec)
    by = {(r.axis_value, r.method): r.auroc for r in result.rows}
    gap = by[(4.0, "ebm")] - by[(0.5, "ebm")]
    near_half = [by[(0.0, m)] for m in ("msp", "ebm", "mah")]
    sizes_ok = all(r.n_id == r.n_ood == 2000 for r in result.rows)
    elapsed = time.monotonic() - start
    ok = (
        gap >= 0.10
        and all(abs(v - 0.5) <= 0.05 for v in near_half)
        and sizes_ok
        and elapsed < 120
    )
    announce(
        5,
        "far-vs-near OOD trend (EBM gap >= 0.10; distance 0 in 0.5 +/- 0.05)",
        ok,
        f"gap {gap:.3f}, d0 {[round(v, 3) for v in near_half]}, {elapsed:.1f}s",
    )


def test_criterion_6_imbalance_trend():
    start = time.monotonic()
    spec = SweepSpec(
        axis=Axis.IMBALANCE,
        base_world=SyntheticSpec(
            classes=20, dim=16, class_separation=3.0, within_class_sigma=1.0,
            ood_distance=1.2, law=Balanced(2600), seed=8,
        ),
        grid=(Balanced(15), UnbalancedPowerlaw(2.0, 300), UnbalancedUniform(300)),
        detectors=(
            DetectorConfig(Method.MSP),
            DetectorConfig(Method.EBM),
            DetectorConfig(Method.MAH),
        ),
        seed=99,
    )
    result = run_sweep(spec)
    mah = {r.axis_value: r.auroc for r in result.rows if r.method == "mah"}
    gap = mah["balanced:15"] - mah["powerlaw:2:300"]
    flat = True
    for method in ("msp", "ebm"):
        rows = {(r.auroc, r.fpr95) for r in result.rows if r.method == method}
        flat &= len(rows) == 1
    elapsed = time.monotonic() - start
    ok = gap >= 0.03 and flat and elapsed < 120
    announce(
        6,
        "imbalance trend (MAH balanced-vs-powerlaw gap >= 0.03; MSP/EBM flat)",
        ok,
        f"gap {gap:.3f}, flat={flat}, {elapsed:.1f}s",
    )


def _run_pipeline(workdir: Path) -> bytes:
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "oodgate.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    world = workdir / "world"
    cli("synth", "--classes", "5", "--dim", "8", "--separation", "2.5",
        "--sigma", "1.0", "--law", "balanced:200", "--ood-distance", "2.0",
        "--seed", "42", "--out", str(world))
    cli("fit", "--manifest", str(world / "world.manifest"),
        "--out", str(workdir / "model.oodm"))
    cli("score", "--input", str(world / "id3.oodf"), "--method", "mah",
        "--model", str(workdir / "model.oodm"), "--out", str(workdir / "id.csv"))
    cli("score", "--input", str(world / "ood_d2.oodf"), "--method", "mah",
        "--model", str(workdir / "model.oodm"), "--out", str(workdir / "ood.csv"))
    cli("eval", "--id-scores", str(workdir / "id.csv"),
        "--ood-scores", str(workdir / "ood.csv"), "--method", "mah",
        "--criterion", "youden", "--out", str(workdir / "report.json"))
    return (workdir / "report.json").read_bytes()


def test_criterion_7_pipeline_determinism_and_golden(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    golden = GOLDEN.read_bytes()
    identical = first == second
    matches_golden = first == golden
    announce(
        7,
        "seed-42 synth->fit->score->eval is byte-identical and matches golden",
        identical and matches_golden,
        f"reruns identical={identical}, golden match={matches_golden}",
    )
    if not matches_golden:  # aid diagnosis without weakening the gate
        print(json.dumps(json.loads(first), indent=2))


def test_criterion_8_dataset_size_presets():
    rng = np.random.default_rng(0)
    per_class = 420
    labels = np.repeat(np.arange(142), per_class)
    table = FeatureTable(rng.normal(size=(142 * per_class, 2)), None, labels)
    fit = sample_imbalanced(table, Balanced(411), seed=1)
    balanced_ok = fit.n == 58362

    presets_ok = DATASET_SIZE_PRESETS == {
        "non-insecta": 74740,
        "ood-insect": 56487,
        "imagenet": 9730,
        "human-face": 3059,
    }
    help_text = subprocess.run(
        [sys.executable, "-m", "oodgate.cli", "--help"],
        capture_output=True,
        text=True,
    ).stdout
    help_ok = all(str(v) in help_text for v in (74740, 3059, 56487, 9730, 58362))
    announce(
        8,
        "size presets encoded and surfaced; balanced 411 x 142 = 58362",
        balanced_ok and presets_ok and help_ok,
        f"fit n={fit.n}, help={help_ok}",
    )
