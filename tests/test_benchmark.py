"""The benchmark's three workloads, each run once at tiny scale with the test
suite, so the run's own output checks (fit means, Mahalanobis against a dense
solve, closed forms, AUROC by rank sum, the CSV export's round trip, the
calibrations and SVGs, the sweep's rows digest) gate every test run.

The run works on a temporary copy of ``bench/`` beside a link to ``src/``, so
its records land in that copy and nothing is written under the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tiny(tmp_path, workload: str, trace: int) -> dict:
    """One tiny-scale run at seed 42; its result line, once it is correct with 0 failed."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    # A process exec'd straight from this one starts with this one's peak RSS,
    # which the runner checks against its own limit; the shell forks it fresh.
    done = subprocess.run(
        ["/bin/sh", "-c", '"$@"; exit $?', "sh", sys.executable, str(tmp_path / "bench" / "run.py"),
         "--workload", workload, "--scale", "tiny", "--seed", "42", "--seconds", "1",
         "--trace", str(trace)],
        cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    return result


@pytest.mark.parametrize("workload", ["cli-chain-d128", "sweep-domain-d512", "csv-logits-d128"])
def test_workload_is_correct_at_seed_42(tmp_path, workload):
    """Every output check passes; at seed 42 the sweep's include its rows digest."""
    run_tiny(tmp_path, workload, trace=0)


def test_traced_sweep_makes_the_calls_of_its_shared_tables(tmp_path):
    """Over 5 distances and 3 detectors the domain axis scores its shared ID
    subsample once per detector: 3 + 15 ``score_table`` calls, 1 + 5 of them
    mah, and one ROC curve per row."""
    metrics = run_tiny(tmp_path, "sweep-domain-d512", trace=1)["metrics"]
    calls = {name: metrics[name]["value"] for name in (
        "detectors.score_table.calls", "detectors.score_mahalanobis.calls",
        "metrics.roc_curve.calls")}
    assert calls == {"detectors.score_table.calls": 18, "detectors.score_mahalanobis.calls": 6,
                     "metrics.roc_curve.calls": 15}
