"""ROC analysis and threshold calibration for ID-vs-OOD score sets.

The positive class is in-distribution throughout: a sample counts as
accepted (classified ID) when its score is >= the threshold. Curves are
built with atomic tie groups, so the trapezoidal AUROC equals the pairwise
win-plus-half-tie probability exactly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass

import numpy as np

from .detectors import ScoreSet
from .errors import ValidationError


class Criterion(str, enum.Enum):
    YOUDEN = "youden"
    FPR_AT_TPR = "fpr_at_tpr"


@dataclass(frozen=True)
class RocCurve:
    """Operating points at descending thresholds, endpoints (0,0) and (1,1).

    ``thresholds`` holds the unique observed scores bracketed by +/-inf
    sentinels; ``tpr``/``fpr`` are the ID/OOD acceptance rates at each cut.
    """

    thresholds: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray

    def __post_init__(self) -> None:
        t, tp, fp = (np.asarray(a, dtype=np.float64) for a in (self.thresholds, self.tpr, self.fpr))
        if not (t.shape == tp.shape == fp.shape) or t.ndim != 1 or t.size < 2:
            raise ValidationError("curve arrays must be equal-length vectors")
        if (np.diff(t) >= 0).any():
            raise ValidationError("thresholds must be strictly descending")
        for name, r in (("tpr", tp), ("fpr", fp)):
            if (np.diff(r) < 0).any() or r[0] != 0.0 or r[-1] != 1.0 or (r < 0).any() or (r > 1).any():
                raise ValidationError(f"{name} must rise from 0 to 1 as thresholds descend")
        for arr in (t, tp, fp):
            arr.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "tpr", tp)
        object.__setattr__(self, "fpr", fp)


def _cuts(id_scores: ScoreSet, ood_scores: ScoreSet):
    """Every observed score as a cut, descending, with the ID (``tp``) and
    OOD (``fp``) counts accepted (score >= cut) at each; the last cut, the
    smallest score, accepts every sample."""
    if id_scores.method != ood_scores.method:
        raise ValidationError(
            f"score sets disagree on method: {id_scores.method} vs {ood_scores.method}"
        )
    id_s, ood_s = id_scores.scores, ood_scores.scores
    cuts = np.unique(np.concatenate([id_s, ood_s]))[::-1]  # tie groups merged
    tp = id_s.size - np.searchsorted(np.sort(id_s), cuts, side="left")
    fp = ood_s.size - np.searchsorted(np.sort(ood_s), cuts, side="left")
    return cuts, tp, fp


def _curve(cuts: np.ndarray, tp: np.ndarray, fp: np.ndarray) -> RocCurve:
    return RocCurve(
        np.concatenate([[np.inf], cuts, [-np.inf]]),
        np.concatenate([[0], tp, tp[-1:]]) / tp[-1],
        np.concatenate([[0], fp, fp[-1:]]) / fp[-1],
    )


def roc_curve(id_scores: ScoreSet, ood_scores: ScoreSet) -> RocCurve:
    """Build the ROC staircase over all observed score cuts."""
    return _curve(*_cuts(id_scores, ood_scores))


def auroc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve."""
    return float(np.sum(np.diff(curve.fpr) * (curve.tpr[1:] + curve.tpr[:-1]) / 2.0))


def _check_target(target_tpr: float) -> None:
    if not 0.0 < target_tpr <= 1.0:
        raise ValidationError(f"target TPR must be in (0,1], got {target_tpr}")


def fpr_at_tpr(curve: RocCurve, target_tpr: float = 0.95) -> float:
    """Smallest FPR over operating points with TPR >= target (no interpolation)."""
    _check_target(target_tpr)
    idx = int(np.argmax(curve.tpr >= target_tpr))
    return float(curve.fpr[idx])


def _calibrated(cuts, tp, fp, criterion, target_tpr) -> tuple[int, float, float, float]:
    """The index of the cut ``criterion`` picks, and its (threshold, tpr, fpr)."""
    n_id, n_ood = tp[-1], fp[-1]
    criterion = Criterion(criterion)
    if criterion is Criterion.YOUDEN:
        # Integer cross-multiplied Youden index keeps tie detection exact.
        j = tp * n_ood - fp * n_id
        i = int(np.flatnonzero(j == j.max())[-1])
    else:
        _check_target(target_tpr)
        i = int(np.argmax(tp / n_id >= target_tpr))
    return i, float(cuts[i]), float(tp[i] / n_id), float(fp[i] / n_ood)


def calibrate_threshold(
    id_scores: ScoreSet,
    ood_scores: ScoreSet,
    criterion: Criterion = Criterion.YOUDEN,
    target_tpr: float = 0.95,
) -> tuple[float, float, float]:
    """Pick an operating threshold among the observed score cuts.

    YOUDEN maximizes TPR - FPR, breaking ties toward the smaller threshold
    (accepting more as ID). FPR_AT_TPR picks the largest threshold whose TPR
    reaches the target. Returns ``(threshold, tpr, fpr)`` at the chosen cut.
    """
    return _calibrated(*_cuts(id_scores, ood_scores), criterion, target_tpr)[1:]


def _quartiles(scores: ScoreSet) -> tuple[float, float, float, float, float]:
    """(min, Q1, median, Q3, max) with linear interpolation at p*(n-1)."""
    q = np.quantile(scores.scores, [0.0, 0.25, 0.5, 0.75, 1.0], method="linear")
    return tuple(float(v) for v in q)


@dataclass(frozen=True)
class EvalReport:
    method: str | None
    auroc: float
    fpr95: float
    threshold: float
    tpr_at_threshold: float
    fpr_at_threshold: float
    accuracy_at_threshold: float
    id_quartiles: tuple[float, float, float, float, float]
    ood_quartiles: tuple[float, float, float, float, float]
    n_id: int
    n_ood: int

    def __post_init__(self) -> None:
        if self.auroc == 1.0 and self.fpr95 != 0.0:
            raise ValidationError("auroc = 1 requires fpr95 = 0")

    def to_json(self) -> str:
        def quart(q):
            return {"min": q[0], "q1": q[1], "median": q[2], "q3": q[3], "max": q[4]}

        obj = {
            **asdict(self),
            "id_quartiles": quart(self.id_quartiles),
            "ood_quartiles": quart(self.ood_quartiles),
        }
        return json.dumps(obj, indent=2) + "\n"


def evaluate(
    id_scores: ScoreSet,
    ood_scores: ScoreSet,
    criterion: Criterion = Criterion.YOUDEN,
    target_tpr: float = 0.95,
) -> EvalReport:
    """Full evaluation: curve, AUROC, FPR95, calibrated cut, quartiles."""
    cuts, tp, fp = _cuts(id_scores, ood_scores)
    curve = _curve(cuts, tp, fp)
    i, threshold, tpr, fpr = _calibrated(cuts, tp, fp, criterion, target_tpr)
    n_id, n_ood = len(id_scores), len(ood_scores)
    method = id_scores.method.value if id_scores.method is not None else None
    return EvalReport(
        method=method,
        auroc=auroc(curve),
        fpr95=fpr_at_tpr(curve, 0.95),
        threshold=threshold,
        tpr_at_threshold=tpr,
        fpr_at_threshold=fpr,
        # ID accepted plus OOD rejected; a score equal to the cut is accepted
        accuracy_at_threshold=int(tp[i] + n_ood - fp[i]) / (n_id + n_ood),
        id_quartiles=_quartiles(id_scores),
        ood_quartiles=_quartiles(ood_scores),
        n_id=n_id,
        n_ood=n_ood,
    )
