"""Tests of the benchmark itself, on the tiny scale (c=5, d=8, ~100 rows).

Run from the repository root:  python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing

ROOT = run.ROOT
sys.path.insert(0, str(run.SRC))  # oodgate itself, for the reference tests
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT, script=None):
    script = script or run.BENCH / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["paths"] == ["bench"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_emits_end_to_end_metrics(workload):
    result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    result = result_of(bench(workload, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    assert metrics["trace.span_coverage"]["value"] > 0.95
    calls = {"cli-chain-d128": 6, "sweep-domain-d512": 30, "csv-logits-d128": 4}
    assert metrics["detectors.score_table.calls"]["value"] == calls[workload]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("cli-chain-d128", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------------
# a bad output is a failed operation


@pytest.fixture
def tiny_run(tmp_path):
    def make(workload, seed=run.DEFAULT_SEED):
        return run.Run(workload, seed, 1, False, "tiny", tmp_path,
                       run.child_env(1), time.perf_counter() + run.RUN_BUDGET_S)
    return make


def test_edited_score_line_counts_as_failed(tiny_run):
    r = tiny_run("cli-chain-d128")
    run.run_setup(r)
    good = run.process_pass(r, r.work / "pass0", traced=False)
    run.check_process_pass(r, good)
    assert good.checks and not good.failures

    bad = run.process_pass(r, r.work / "pass1", traced=False)
    path = bad.dir / "ood_mah.csv"
    lines = path.read_text().splitlines(keepends=True)
    line = checks.sample_rows(len(lines) - 1)[1] + 1  # a row the dense solve checks
    index, score = lines[line].rstrip("\n").split(",")
    lines[line] = f"{index},{float(score) * (1 + 1e-6)!r}\n"
    path.write_text("".join(lines))
    run.check_process_pass(r, bad)
    run.compare_outputs(good, bad)
    assert "score-mah-ood" in bad.failures and "score-mah-id" not in bad.failures
    assert any("mah-dense-solve" in reason for reason in bad.failures["score-mah-ood"])
    assert any("differs from the first pass" in reason for reason in bad.failures["score-mah-ood"])


def test_changed_rows_byte_counts_as_failed(tiny_run):
    r = tiny_run("sweep-domain-d512")
    result = run.sweep_pass(r, r.work / "pass0", traced=False, with_checks=True)
    assert not result.failures
    rows = result.dir / "rows.jsonl"
    data = bytearray(rows.read_bytes())
    data[data.index(b'"auroc": ') + 11] ^= 1  # one digit of the first AUROC
    rows.write_bytes(bytes(data))
    run.check_sweep_digest(r, result)
    assert list(result.failures) == ["sweep"]


def _tiny_sweep_checks(seed=run.DEFAULT_SEED, edit_rows=None):
    """Run the tiny sweep in this process under the recording hooks, edit
    its rows if asked, and return the results of its checks."""
    import worker
    from oodgate import experiments

    spec = worker.sweep_spec(seed, run.SCALES["tiny"])
    with worker.capture_scores() as recorded:
        result = experiments.run_sweep(spec)
    if edit_rows is not None:
        result = replace(result, rows=edit_rows(result.rows))
    c = worker.Checks()
    worker.check_sweep(spec, result, recorded, c)
    return c.results


def test_sweep_checks_accept_a_scorer_that_caches_id_scores(monkeypatch):
    """The checks look at the rows and the scores behind them, not at how
    often or by which name the sweep reaches a scorer."""
    from oodgate import detectors, experiments

    cache, misses = {}, []

    def caching(config, table, model=None):
        key = (config, id(table), id(model))
        if key not in cache:
            misses.append(key)
            cache[key] = (table, detectors.score_table(config, table, model))
        return cache[key][1]

    monkeypatch.setattr(experiments, "score_table", caching)
    results = _tiny_sweep_checks()
    # the sweep: 3 ID + 15 OOD score sets for 30 calls; the checks'
    # one-point replay: 3 + 3
    assert len(misses) == 18 + 6
    assert results and all(r["ok"] for r in results), [r for r in results if not r["ok"]]
    assert sum(r["check"] == "auroc-rank-sum" for r in results) == 15


def test_sweep_row_with_a_wrong_auroc_fails_its_check():
    def nudge_last(rows):
        last = rows[-1]
        return rows[:-1] + (replace(last, auroc=last.auroc + 1e-9),)

    failed = [r for r in _tiny_sweep_checks(edit_rows=nudge_last) if not r["ok"]]
    assert [r["check"] for r in failed] == ["auroc-rank-sum"]


def test_failed_stage_counts_as_failed(tiny_run):
    r = tiny_run("csv-logits-d128")
    run.run_setup(r)
    (r.work / "inputs" / "ood.oodf").write_bytes(b"OODF truncated")
    result = run.process_pass(r, r.work / "pass0", traced=False)
    assert "export-ood" in result.failures and "export-id" not in result.failures
    assert "score-msp-ood" in result.failures


# ---------------------------------------------------------------------------
# peak RSS and the runner's own size


def test_child_peak_rss_includes_a_fat_parent(tmp_path):
    """Why the runner must stay small: a child reports its parent's peak."""
    code = (
        "import os, subprocess, sys\n"
        "block = bytearray(128 << 20)\n"
        "block[::4096] = b'x' * len(block[::4096])\n"
        "p = subprocess.Popen([sys.executable, '-c', 'pass'])\n"
        "print(os.wait4(p.pid, 0)[2].ru_maxrss // 1024)\n"
    )
    child_mb = int(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, check=True).stdout)
    assert child_mb >= 128


def test_lean_check_flags_a_large_runner(monkeypatch):
    monkeypatch.setattr(run, "LEAN_LIMIT_MB", 1e9)
    assert run.lean_failures() == []
    monkeypatch.setattr(run, "LEAN_LIMIT_MB", 1.0)
    assert run.lean_failures()


# ---------------------------------------------------------------------------
# references and span arithmetic


def test_ranksum_auroc_matches_pairwise_oracle():
    from oodgate import pairwise_auroc_oracle

    rng = np.random.default_rng(3)
    id_s = rng.integers(0, 20, 300).astype(float)  # many ties
    ood_s = rng.integers(-5, 15, 200).astype(float)
    assert abs(checks.ranksum_auroc(id_s, ood_s) - pairwise_auroc_oracle(id_s, ood_s)) < 1e-15


def test_dense_mahalanobis_matches_library_oracle():
    from oodgate import FeatureTable, direct_mahalanobis_oracle, direct_pooled_covariance

    rng = np.random.default_rng(4)
    features = rng.standard_normal((60, 5)).astype(np.float32)
    labels = np.repeat(np.arange(3), 20)
    table = FeatureTable(features, None, labels)
    means, cov = direct_pooled_covariance(features, labels)
    queries = rng.standard_normal((4, 5))
    got = checks.mahalanobis_dense(means, checks.regularized(cov, 1e-6), queries)
    want = [direct_mahalanobis_oracle(table, q, 1e-6) for q in queries]
    assert checks.max_error(got, want, 0.0) < 1e-10


def test_span_table_self_time_subtracts_children():
    spans = [
        {"id": "a", "name": "cli.stage", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "name": "cli.import", "parent": "a", "start": 0.5, "end": 2.5},
        {"id": "c", "name": "detectors.score_table", "parent": "a", "start": 3.0, "end": 9.0},
        {"id": "d", "name": "detectors.score_mahalanobis", "parent": "c", "start": 3.5,
         "end": 8.5, "rows": 100},
    ]
    table = run.span_table(spans)
    assert table["cli.stage"]["self_s"] == pytest.approx(2.0)
    assert table["detectors.score_table"]["self_s"] == pytest.approx(1.0)
    assert table["detectors.score_mahalanobis"]["rows"] == 100


def test_tracing_overhead_is_wrapped_calls_times_their_cost():
    spans = [
        {"id": "a", "name": "cli.stage", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "name": "cli.import", "parent": "a", "start": 0.5, "end": 2.5},
        {"id": "c", "name": "trace.instrument", "parent": "a", "start": 2.5, "end": 2.75},
        {"id": "d", "name": "detectors.score_table", "parent": "a", "start": 3.0, "end": 9.0},
        {"id": "e", "name": "detectors.score_msp", "parent": "d", "start": 3.5, "end": 8.5},
    ]
    assert run.tracing_overhead_s(run.span_table(spans), 0.001) == pytest.approx(0.252)
    assert 0.0 < tracing.wrapped_call_cost_s(calls=200, repeats=3) < 1e-3
