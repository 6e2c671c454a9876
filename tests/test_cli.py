"""CLI contract: commands, exit codes, determinism, config and env handling."""

import json
import subprocess
import sys

import numpy as np
import pytest

from oodgate import (
    UNLABELED,
    DatasetManifest,
    FeatureTable,
    write_feature_table,
)
import oodgate.cli
from oodgate.cli import build_parser, main


def run(*argv):
    return main(list(argv))


def write_score_csv(path, values):
    lines = ["index,score"] + [f"{i},{v}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def world_dir(tmp_path):
    out = tmp_path / "w"
    assert run(
        "synth", "--classes", "4", "--dim", "6", "--separation", "2.5",
        "--law", "balanced:60", "--seed", "42", "--out", str(out),
    ) == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_expected_artifacts(world_dir):
    names = {p.name for p in world_dir.iterdir()}
    assert {"id1.oodf", "id2.oodf", "id3.oodf", "ood_d2.oodf",
            "world.manifest", "world.json"} <= names
    manifest = DatasetManifest.read(world_dir / "world.manifest")
    roles = [e.role_text() for e in manifest.entries]
    assert roles == ["ID_TRAIN_CLASSIFIER", "ID_FIT_DETECTOR", "ID_TEST", "OOD_TEST(d2)"]
    manifest.validate_for_eval()
    summary = json.loads((world_dir / "world.json").read_text())
    assert summary["classes"] == 4
    assert "timestamp" not in summary


def test_synth_rerun_byte_identical(world_dir, tmp_path):
    again = tmp_path / "w2"
    assert run(
        "synth", "--classes", "4", "--dim", "6", "--separation", "2.5",
        "--law", "balanced:60", "--seed", "42", "--out", str(again),
    ) == 0
    for p in sorted(world_dir.iterdir()):
        assert (again / p.name).read_bytes() == p.read_bytes()


def test_synth_rejects_single_class(tmp_path, capsys):
    assert run("synth", "--classes", "1", "--dim", "4", "--out", str(tmp_path / "x")) == 2
    assert "c >= 2" in capsys.readouterr().err


def test_synth_multiple_ood_distances(tmp_path):
    out = tmp_path / "multi"
    assert run(
        "synth", "--classes", "3", "--dim", "4", "--law", "balanced:40",
        "--ood-distance", "0.5", "--ood-distance", "3.0", "--out", str(out),
    ) == 0
    manifest = DatasetManifest.read(out / "world.manifest")
    assert len(manifest.ood_entries()) == 2


def test_synth_timestamp_flag(tmp_path):
    out = tmp_path / "ts"
    assert run(
        "synth", "--classes", "3", "--dim", "4", "--law", "balanced:40",
        "--timestamp", "--out", str(out),
    ) == 0
    assert "timestamp" in json.loads((out / "world.json").read_text())


# ---------------------------------------------------------------------------
# pipeline


def test_full_pipeline_report_keys(world_dir, tmp_path):
    model = tmp_path / "m.oodm"
    id_csv = tmp_path / "id.csv"
    ood_csv = tmp_path / "ood.csv"
    report = tmp_path / "report.json"
    svg = tmp_path / "roc.svg"

    assert run("fit", "--manifest", str(world_dir / "world.manifest"),
               "--out", str(model)) == 0
    assert run("score", "--input", str(world_dir / "id3.oodf"), "--method", "mah",
               "--model", str(model), "--out", str(id_csv)) == 0
    assert run("score", "--input", str(world_dir / "ood_d2.oodf"), "--method", "mah",
               "--model", str(model), "--out", str(ood_csv)) == 0
    assert run("eval", "--id-scores", str(id_csv), "--ood-scores", str(ood_csv),
               "--method", "mah", "--out", str(report), "--svg", str(svg)) == 0

    obj = json.loads(report.read_text())
    assert list(obj) == [
        "method", "auroc", "fpr95", "threshold", "tpr_at_threshold",
        "fpr_at_threshold", "accuracy_at_threshold", "id_quartiles",
        "ood_quartiles", "n_id", "n_ood",
    ]
    assert obj["method"] == "mah"
    assert svg.read_text().startswith("<svg")


def test_eval_perfect_toy_scores(tmp_path, capsys):
    write_score_csv(tmp_path / "id.csv", [5.0, 4.0])
    write_score_csv(tmp_path / "ood.csv", [1.0, 0.0])
    assert run("eval", "--id-scores", str(tmp_path / "id.csv"),
               "--ood-scores", str(tmp_path / "ood.csv")) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["auroc"] == 1.0 and obj["fpr95"] == 0.0


def test_eval_youden_hand_case(tmp_path, capsys):
    write_score_csv(tmp_path / "id.csv", [3.0, 2.0])
    write_score_csv(tmp_path / "ood.csv", [1.0, 0.0])
    assert run("eval", "--criterion", "youden",
               "--id-scores", str(tmp_path / "id.csv"),
               "--ood-scores", str(tmp_path / "ood.csv")) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 2.0


def test_calibrate_outputs_json(tmp_path, capsys):
    write_score_csv(tmp_path / "id.csv", [3.0, 2.0])
    write_score_csv(tmp_path / "ood.csv", [1.0, 0.0])
    assert run("calibrate", "--id-scores", str(tmp_path / "id.csv"),
               "--ood-scores", str(tmp_path / "ood.csv")) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"criterion": "youden", "target": None,
                   "threshold": 2.0, "tpr": 1.0, "fpr": 0.0}


def test_eval_reruns_byte_identical(world_dir, tmp_path):
    model = tmp_path / "m.oodm"
    run("fit", "--input", str(world_dir / "id2.oodf"), "--out", str(model))
    for name in ("a", "b"):
        run("score", "--input", str(world_dir / "id3.oodf"), "--method", "ebm",
            "--out", str(tmp_path / f"id_{name}.csv"))
        run("score", "--input", str(world_dir / "ood_d2.oodf"), "--method", "ebm",
            "--out", str(tmp_path / f"ood_{name}.csv"))
        run("eval", "--id-scores", str(tmp_path / f"id_{name}.csv"),
            "--ood-scores", str(tmp_path / f"ood_{name}.csv"),
            "--out", str(tmp_path / f"report_{name}.json"))
    assert (tmp_path / "report_a.json").read_bytes() == (tmp_path / "report_b.json").read_bytes()


# ---------------------------------------------------------------------------
# exit codes


def test_fit_refuses_unfittable_methods(world_dir, tmp_path, capsys):
    assert run("fit", "--input", str(world_dir / "id2.oodf"), "--method", "msp",
               "--out", str(tmp_path / "m.oodm")) == 2
    assert "no fitting step" in capsys.readouterr().err


def test_score_msp_without_logits_exits_2(tmp_path):
    t = FeatureTable(np.zeros((3, 2)), None, np.full(3, UNLABELED))
    write_feature_table(t, tmp_path / "bare.oodf")
    assert run("score", "--input", str(tmp_path / "bare.oodf"), "--method", "msp",
               "--out", str(tmp_path / "s.csv")) == 2


def test_score_dimension_mismatch_exits_2(world_dir, tmp_path):
    model = tmp_path / "m.oodm"
    run("fit", "--input", str(world_dir / "id2.oodf"), "--out", str(model))
    t = FeatureTable(np.zeros((3, 2)), None, np.full(3, UNLABELED))
    write_feature_table(t, tmp_path / "narrow.oodf")
    assert run("score", "--input", str(tmp_path / "narrow.oodf"), "--method", "mah",
               "--model", str(model), "--out", str(tmp_path / "s.csv")) == 2


def test_missing_input_exits_3(tmp_path):
    assert run("score", "--input", str(tmp_path / "absent.oodf"), "--method", "ebm",
               "--out", str(tmp_path / "s.csv")) == 3


@pytest.mark.parametrize(
    "argv, item",
    [
        (["--grid", "a,b"], "--grid: could not convert string to float: 'a'"),
        (["--grid", "1,2", "--detectors", "msp,foo"], "--detectors: 'foo' is not a valid"),
    ],
)
def test_sweep_bad_list_item_exits_2(tmp_path, capsys, argv, item):
    assert run("sweep", "--axis", "domain-distance", "--classes", "3", "--dim", "4",
               *argv, "--out", str(tmp_path / "s")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and item in err and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["table", "scores", "manifest", "config"])
def test_undecodable_input_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    scores = tmp_path / "ok.csv"
    write_score_csv(scores, [1.0, 0.0])
    argv = {
        "table": ["score", "--input", str(bad), "--format", "csv", "--method", "msp",
                  "--out", str(tmp_path / "s.csv")],
        "scores": ["eval", "--id-scores", str(scores), "--ood-scores", str(bad)],
        "manifest": ["fit", "--manifest", str(bad), "--out", str(tmp_path / "m.oodm")],
        "config": ["synth", "--config", str(bad), "--out", str(tmp_path / "w")],
    }[kind]
    head = {"table": b"label,f0,l0,l1\r\n0,", "scores": b"index,score\r\n0,",
            "manifest": b"ID_FIT_DETECTOR\tCSV\t", "config": b"classes = 3\n"}[kind]
    bad.write_bytes(head + b"\xff\n")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_import_cli_leaves_scipy_unloaded():
    code = "import sys, oodgate.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_degenerate_fit_without_ridge_exits_4(tmp_path):
    t = FeatureTable(
        np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]),
        None,
        np.array([0, 0, 1, 1]),
    )
    write_feature_table(t, tmp_path / "flat.oodf")
    assert run("fit", "--input", str(tmp_path / "flat.oodf"), "--ridge", "0.0",
               "--out", str(tmp_path / "m.oodm")) == 4


@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("Singular matrix"), MemoryError("Unable to allocate 8.00 TiB")]
)
def test_linalg_and_memory_errors_exit_4(tmp_path, capsys, monkeypatch, exc):
    def scorer(*args):
        raise exc

    monkeypatch.setattr(oodgate.cli, "score_table", scorer)
    t = FeatureTable(np.zeros((3, 2)), np.zeros((3, 2)), np.full(3, UNLABELED))
    write_feature_table(t, tmp_path / "t.oodf")
    assert run("score", "--input", str(tmp_path / "t.oodf"), "--method", "msp",
               "--out", str(tmp_path / "s.csv")) == 4
    assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("value", ["1_0", "\u0661"])
def test_csv_value_numpy_rejects_cites_line(tmp_path, capsys, value):
    table = tmp_path / "t.csv"
    table.write_bytes(f"label,f0\r\n0,1.5\r\n1,{value}\r\n".encode())
    assert run("score", "--input", str(table), "--format", "csv", "--method", "msp",
               "--out", str(tmp_path / "s.csv")) == 2
    err = capsys.readouterr().err
    assert err == f"error: {table}: line 3: could not convert string to a number: {value!r}\n"


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_cli_writes_outputs(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "--axis", "domain-distance", "--grid", "0.5,2.0",
        "--classes", "4", "--dim", "4", "--law", "balanced:120",
        "--n-per-side", "30", "--out", str(out), "--svg",
    ) == 0
    lines = (out / "rows.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6  # 2 distances x 3 default detectors
    assert (out / "summary.json").exists()
    assert (out / "sweep.svg").read_text().startswith("<svg")


def test_sweep_cli_imbalance_laws(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "--axis", "imbalance", "--grid", "balanced:5,uniform:20",
        "--classes", "4", "--dim", "4", "--law", "balanced:200",
        "--detectors", "mah", "--out", str(out),
    ) == 0
    rows = [json.loads(l) for l in (out / "rows.jsonl").read_text().splitlines()]
    assert [r["axis_value"] for r in rows] == ["balanced:5", "uniform:20"]


def test_sweep_cli_needs_world_or_manifest(tmp_path, capsys):
    assert run("sweep", "--axis", "accuracy", "--grid", "0.0",
               "--out", str(tmp_path / "x")) == 2
    assert "manifest" in capsys.readouterr().err


def test_sweep_cli_rerun_identical(tmp_path):
    args = (
        "sweep", "--axis", "accuracy", "--grid", "0.0,0.2",
        "--classes", "4", "--dim", "4", "--law", "balanced:120",
        "--n-per-side", "30", "--detectors", "ebm",
    )
    run(*args, "--out", str(tmp_path / "a"))
    run(*args, "--out", str(tmp_path / "b"))
    for name in ("rows.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# config file, env seed, help


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nseed = 9\n")
    out = tmp_path / "w"
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["seed"] == 9


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nseed = 9\n")
    out = tmp_path / "w"
    assert run("synth", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["seed"] == 5


def test_config_repeatable_flag_takes_a_scalar_line(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nood-distance = 1.5\n")
    out = tmp_path / "w"
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["ood_distances"] == [1.5]


def test_explicit_flag_equal_to_default_beats_config(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nseed = 7\n")
    out = tmp_path / "w"
    assert run("synth", "--seed", "42", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["seed"] == 42


def test_append_flag_given_with_config(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nood-distance = 1.5\n")
    out = tmp_path / "w"
    assert run("synth", "--config", str(cfg), "--ood-distance", "2.0",
               "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["ood_distances"] == [2.0]
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nn-per-side = 20\n")
    assert run("sweep", "--config", str(cfg), "--axis", "domain-distance",
               "--grid", "1.0,2.0", "--ood-distance", "2.0",
               "--out", str(tmp_path / "s")) == 0


def test_config_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = three\ndim = 4\n")
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "w")) == 2
    assert "line 1" in capsys.readouterr().err
    cfg.write_text("criterion = sideways\n")
    assert run("eval", "--config", str(cfg), "--id-scores", "i.csv",
               "--ood-scores", "o.csv") == 2
    assert "invalid choice" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classses = 3\n")
    assert run("synth", "--config", str(cfg), "--classes", "3", "--dim", "4",
               "--out", str(tmp_path / "w")) == 2
    assert "unknown option" in capsys.readouterr().err


def test_env_seed_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv("OODGATE_SEED", "77")
    out = tmp_path / "w"
    assert run("synth", "--classes", "3", "--dim", "4", "--law", "balanced:40",
               "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["seed"] == 77


def test_help_surfaces_dataset_size_presets(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for size in ("74740", "3059", "56487", "9730", "58362"):
        assert size in text


def test_preset_names_accepted_as_sizes():
    parser, _ = build_parser()
    args = parser.parse_args(
        ["synth", "--classes", "3", "--dim", "4", "--n-ood", "human-face", "--out", "x"]
    )
    assert args.n_ood == 3059
