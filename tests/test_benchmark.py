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
    mah, and one ROC curve per row. Every layer outside :data:`ZERO_LAYERS`
    reads a number above 0."""
    metrics = run_tiny(tmp_path, "sweep-domain-d512", trace=1)["metrics"]
    calls = {name: metrics[name]["value"] for name in (
        "detectors.score_table.calls", "detectors.score_mahalanobis.calls",
        "metrics.roc_curve.calls")}
    assert calls == {"detectors.score_table.calls": 18, "detectors.score_mahalanobis.calls": 6,
                     "metrics.roc_curve.calls": 15}
    zero = {name for name, metric in metrics.items() if metric["value"] == 0}
    assert zero == ZERO_LAYERS["sweep-domain-d512"]


#: The per-layer metrics each traced tiny workload reads as 0 at seed 42. The
#: benchmark times a layer by wrapping its public name, so a layer reads 0 where
#: the workload does not run it (sweeps on the chains; CSV, ``calibrate`` and
#: ``--svg`` on the CLI chain; mah on the CSV chain; the CLI and every file on the
#: sweep) or reaches it by a private path: tables are read through
#: ``data._read_kept`` and built with ``FeatureTable._of``, ``evaluate`` draws
#: its curve without ``roc_curve``, and a sweep draws its worlds through
#: ``synthetic._worlds`` and ranks its scores with ``roc_curve``, not
#: ``evaluate``. The fit is not among them: ``fit`` and sweeps call
#: ``fit_mahalanobis``.
ZERO_LAYERS = {
    "cli-chain-d128": {
        "data.FeatureTable.init_s", "data.read_feature_table.csv_mb_per_s",
        "data.read_feature_table.csv_s", "data.read_feature_table.oodf_s",
        "data.write_feature_table.csv_mb_per_s", "data.write_feature_table.csv_s",
        "experiments.run_sweep_s", "experiments.self_s", "metrics.calibrate_threshold_s",
        "metrics.roc_curve.calls", "metrics.roc_curve_s", "svg.roc_svg_s",
    },
    "csv-logits-d128": {
        "data.FeatureTable.init_s", "data.read_feature_table.csv_mb_per_s",
        "data.read_feature_table.csv_s", "detectors.fit_mahalanobis_s",
        "detectors.load_model_s", "detectors.save_model_s", "detectors.score_mahalanobis.calls",
        "detectors.score_mahalanobis.rows_per_s", "detectors.score_mahalanobis_s",
        "experiments.run_sweep_s", "experiments.self_s",
    },
    "sweep-domain-d512": {
        "cli.import_s", "cli.self_s", "cli.stages", "data.FeatureTable.init_s",
        "data.read_feature_table.csv_mb_per_s", "data.read_feature_table.csv_s",
        "data.read_feature_table.oodf_s", "data.write_feature_table.csv_mb_per_s",
        "data.write_feature_table.csv_s", "detectors.load_model_s", "detectors.read_scores_s",
        "detectors.save_model_s", "detectors.write_scores_s", "metrics.calibrate_threshold_s",
        "metrics.evaluate_s", "svg.roc_svg_s", "synthetic.generate_world_s",
    },
}


@pytest.mark.parametrize("workload, calls", [("cli-chain-d128", 6), ("csv-logits-d128", 4)])
def test_traced_chain_times_its_layers(tmp_path, workload, calls):
    """Each ``score`` stage makes one ``score_table`` call (6 on the CLI chain,
    4 on the CSV chain), and every layer outside :data:`ZERO_LAYERS` reads a
    number above 0."""
    metrics = run_tiny(tmp_path, workload, trace=1)["metrics"]
    assert metrics["detectors.score_table.calls"]["value"] == calls
    zero = {name for name, metric in metrics.items() if metric["value"] == 0}
    assert zero == ZERO_LAYERS[workload]
