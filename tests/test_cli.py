"""CLI contract: commands, exit codes, determinism, config and env handling."""

import hashlib
import json
import re
import resource
import struct
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodgate import (
    DATASET_SIZE_PRESETS,
    DESK_SCALE_PER_SIDE,
    UNLABELED,
    Balanced,
    DatasetManifest,
    DetectorConfig,
    FeatureTable,
    SweepSpec,
    SyntheticSpec,
    UnbalancedUniform,
    ValidationError,
    run_sweep,
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


#: sha256 of every file the ``world_dir`` synth run writes, recorded with the
#: generator that drew each class as a float64 block and took logits in one
#: whole-table GEMM. Never regenerate these to make a test pass.
SYNTH_SHA256 = {
    "id1.oodf": "1928255fcbb62491ae0b5d8e1dccd66627558406e8e78e6b63f5f969b0a44554",
    "id2.oodf": "137c747d0c00ce124536333512ca46c11f75334a035a64538232884115e0bfba",
    "id3.oodf": "f93faff38bf8cdb241aa52c6cdcc11617524a7986fad55accae233207ffbab36",
    "ood_d2.oodf": "9921fdacdeb704c82865321b58445213fed5d4f6a4334510d77bdf0b21dde3b3",
    "world.json": "f96434c9c9520531479e50168872dd42cabaec71507353b4581f0af3d5beefb9",
    "world.manifest": "9e09f635ac466e59154eee4a395440d68463f4c0dae506abbe612d42d79c4dba",
}


def test_synth_bytes_pinned(world_dir):
    found = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in world_dir.iterdir()
    }
    assert found == SYNTH_SHA256


def test_synth_rejects_single_class(tmp_path, capsys):
    assert run("synth", "--classes", "1", "--dim", "4", "--out", str(tmp_path / "x")) == 2
    assert "c >= 2" in capsys.readouterr().err


def test_synth_refuses_a_world_fit_cannot_use(tmp_path, capsys, monkeypatch):
    """A class of fewer than 3 rows gets no detector-fit row, so fit would
    exit 2 on the world: synth exits 2 first, on one line, before the split
    is worked out and with no file written. Once this exited 0 after 126
    warning lines."""
    from oodgate import synthetic

    def refuse(*args, **kwargs):
        raise AssertionError("worked out the split before refusing the law")

    out = tmp_path / "w"
    with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(synthetic, "_world_split", refuse)
        assert run("synth", "--classes", "142", "--dim", "16", "--law", "powerlaw:1.5:400",
                   "--out", str(out)) == 2
    assert not caught and not out.exists()
    assert capsys.readouterr().err == ("error: count law powerlaw:1.5:400 gives class 16 fewer "
                                       "than 3 rows, too few to reach the detector-fit table\n")
    # 3 rows in a class are enough: here 27 and 3
    assert run("synth", "--classes", "2", "--dim", "2", "--law", "powerlaw:3:30",
               "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["sizes"]["id_fit"] == 5
    assert run("fit", "--manifest", str(out / "world.manifest"),
               "--out", str(tmp_path / "m.oodm")) == 0


def test_failed_synth_rerun_keeps_no_older_manifest(tmp_path, capsys):
    """A rerun that fails after its first table leaves no manifest: the one
    the older run wrote would name the new id tables beside its OOD table."""
    out = tmp_path / "fw"
    world = ("synth", "--classes", "3", "--dim", "4", "--law", "balanced:40", "--out", str(out))
    assert run(*world, "--seed", "1", "--ood-distance", "1.5") == 0
    (out / "world.json").unlink()
    (out / "world.json").mkdir()
    assert run(*world, "--seed", "2") == 3
    assert "i/o error" in capsys.readouterr().err
    assert (out / "ood_d2.oodf").exists() and not (out / "world.manifest").exists()


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


#: sha256 of an ebm report written without --method ("method": null) and of
#: its ROC SVG, recorded with the hand-written report key list and the SVG
#: options that the report's dataclass fields and constants replaced.
EVAL_SHA256 = {
    "report.json": "cd9bc1692c75a1d90ce11bed6dc3093156058bffc94d92cbac80c1aae6427118",
    "roc.svg": "bd85c821d8aa0eca356655ede94bb563da4f2890e841d6e080f3831d1b2ed6db",
}


def test_eval_without_method_bytes_pinned(world_dir, tmp_path):
    for name in ("id3", "ood_d2"):
        assert run("score", "--input", str(world_dir / f"{name}.oodf"), "--method", "ebm",
                   "--out", str(tmp_path / f"{name}.csv")) == 0
    assert run("eval", "--id-scores", str(tmp_path / "id3.csv"),
               "--ood-scores", str(tmp_path / "ood_d2.csv"),
               "--out", str(tmp_path / "report.json"), "--svg", str(tmp_path / "roc.svg")) == 0
    assert json.loads((tmp_path / "report.json").read_text())["method"] is None
    found = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in EVAL_SHA256
    }
    assert found == EVAL_SHA256


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--dim", "4"], "synth requires --classes and --dim"),
        (["fit"], "fit needs --input TABLE or --manifest MANIFEST"),
        (["score", "--input", "TABLE", "--method", "mah"], "mah scoring needs --model MODEL"),
    ],
    ids=["synth-no-classes", "fit-no-input", "score-mah-no-model"],
)
def test_missing_required_input_exits_2(world_dir, tmp_path, capsys, argv, message):
    argv = [str(world_dir / "id3.oodf") if a == "TABLE" else a for a in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["score", "--method", "mah"], "mah scoring needs --model MODEL"),
        (["score", "--method", "ebm", "--temperature", "0"],
         "temperature must be finite and > 0, got 0.0"),
        (["fit", "--ridge", "-1"], "ridge must be finite and >= 0, got -1.0"),
        (["fit", "--manifest", "MISSING", "--ridge", "inf"],
         "ridge must be finite and >= 0, got inf"),
    ],
    ids=["score-mah-no-model", "score-temperature-0", "fit-ridge-negative",
         "fit-manifest-ridge-inf"],
)
def test_bad_flag_exits_2_before_any_read(tmp_path, capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("read an input before checking the flags")

    monkeypatch.setattr(oodgate.cli, "_read_kept", refuse)
    monkeypatch.setattr(DatasetManifest, "read", refuse)
    missing = str(tmp_path / "missing.oodf")
    argv = [missing if a == "MISSING" else a for a in argv]
    assert run(*argv, "--input", missing, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("flag, value", [("input", "MISSING"), ("format", "csv")])
def test_fit_refuses_a_flag_the_manifest_overrides(tmp_path, capsys, monkeypatch, flag, value,
                                                   via):
    """``fit --manifest`` once exited 0 and ignored ``--input`` and ``--format``:
    the manifest names its fit table and that table's format."""
    def refuse(*args):
        raise AssertionError("read an input before checking the flags")

    monkeypatch.setattr(oodgate.cli, "_read_kept", refuse)
    monkeypatch.setattr(DatasetManifest, "read", refuse)
    value = str(tmp_path / "missing.oodf") if value == "MISSING" else value
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"{flag} = {value}\n" if via == "config" else "")
    flags = [f"--{flag}", value] if via == "argv" else []
    assert run("fit", "--manifest", str(tmp_path / "w.manifest"), *flags, "--config", str(cfg),
               "--out", str(tmp_path / "m.oodm")) == 2
    assert capsys.readouterr().err == f"error: --{flag} and --manifest exclude each other\n"
    assert not (tmp_path / "m.oodm").exists()


def test_calibrate_tpr_target_out_of_range_exits_2(tmp_path, capsys):
    write_score_csv(tmp_path / "id.csv", [3.0, 2.0])
    write_score_csv(tmp_path / "ood.csv", [1.0, 0.0])
    assert run("calibrate", "--id-scores", str(tmp_path / "id.csv"),
               "--ood-scores", str(tmp_path / "ood.csv"),
               "--criterion", "fpr-at-tpr", "--target", "0") == 2
    assert capsys.readouterr().err == "error: target TPR must be in (0,1], got 0.0\n"


@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_bad_tpr_target_exits_2_before_any_score_file_is_read(
    tmp_path, capsys, monkeypatch, command
):
    def refuse(*args):
        raise AssertionError("a score file was read")

    monkeypatch.setattr(oodgate.cli, "read_scores", refuse)
    assert run(command, "--id-scores", str(tmp_path / "id.csv"),
               "--ood-scores", str(tmp_path / "ood.csv"),
               "--criterion", "fpr-at-tpr", "--target", "1.5") == 2
    assert capsys.readouterr().err == "error: target TPR must be in (0,1], got 1.5\n"


@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_youden_ignores_the_tpr_target(tmp_path, command):
    write_score_csv(tmp_path / "id.csv", [3.0, 2.0])
    write_score_csv(tmp_path / "ood.csv", [1.0, 0.0])
    assert run(command, "--id-scores", str(tmp_path / "id.csv"),
               "--ood-scores", str(tmp_path / "ood.csv"),
               "--criterion", "youden", "--target", "0") == 0


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--classes", "142", "--dim", "2", "--law", "powerlaw:-500:1000"],
         "count law powerlaw:-500:1000 has non-finite weights over 142 classes"),
        (["synth", "--classes", "142", "--dim", "2", "--law", "powerlaw:nan:1000"],
         "count law powerlaw:nan:1000 has non-finite weights over 142 classes"),
        (["synth", "--classes", "3", "--dim", "4", "--sigma", "nan"],
         "within_class_sigma must be finite and > 0, got nan"),
        (["sweep", "--axis", "domain-distance", "--grid", "1,inf", "--classes", "3",
          "--dim", "4"], "ood distances must be finite and >= 0, got inf"),
        (["sweep", "--axis", "domain-distance", "--manifest", "MANIFEST", "--grid", "d2",
          "--n-per-side", "-5"], "n_per_side must be >= 1, got -5"),
        (["sweep", "--axis", "accuracy", "--grid", "0.1", "--classes", "3", "--dim", "4",
          "--n-per-side", "0"], "n_per_side must be >= 1, got 0"),
        (["synth", "--classes", "3", "--dim", "4", "--law", "balanced:0"],
         "balanced law needs per_class >= 1"),
        # both clouds would be named d1: the sweep scored the second one twice,
        # and synth wrote one of them
        (["sweep", "--axis", "domain-distance", "--grid", "1,1.0000001,4", "--classes", "5",
          "--dim", "4"], "ood distances 1.0 and 1.0000001 share the table name 'd1'"),
        (["synth", "--ood-distance", "1", "--ood-distance", "1.0000001", "--classes", "5",
          "--dim", "4"], "ood distances 1.0 and 1.0000001 share the table name 'd1'"),
    ],
)
def test_bad_world_input_exits_2_before_any_draw(
    world_dir, tmp_path, capsys, monkeypatch, no_draws, argv, message
):
    def refuse(*args):
        raise AssertionError("read a manifest before rejecting the input")

    monkeypatch.setattr(DatasetManifest, "read", refuse)
    argv = [str(world_dir / "world.manifest") if a == "MANIFEST" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert not caught
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--classes", "3", "--dim", "4", "--separation", "1e308"],
         "non-finite value in features at row 0"),
        (["synth", "--classes", "3", "--dim", "4", "--sigma", "1e-320"],
         "non-finite value in logits at row 0"),
        (["sweep", "--axis", "domain-distance", "--grid", "1e308", "--classes", "3",
          "--dim", "4"], "non-finite value in features at row 0"),
        (["sweep", "--axis", "accuracy", "--grid", "0.5", "--classes", "3", "--dim", "4",
          "--law", "balanced:3", "--detectors", "mah"], "class 2 has no samples in the fit table"),
        # this cloud is drawn at its own grid point, after point 0 is scored
        (["sweep", "--axis", "domain-distance", "--grid", "0,1e308", "--classes", "3",
          "--dim", "4"], "non-finite value in features at row 0"),
    ],
    ids=["separation-overflows", "sigma-underflows", "distance-overflows", "fit-misses-a-class",
         "late-distance-overflows"],
)
def test_failing_world_exits_2_without_a_warning(tmp_path, capsys, argv, message):
    """Every warning is let through, and would print a ``warning:`` line;
    nothing is written."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--n-ood", "4611686018427387904"],
    ["sweep", "--axis", "domain-distance", "--grid", "0,1", "--n-per-side",
     "99999999999999999999"],
    ["sweep", "--axis", "imbalance", "--grid", "balanced:3", "--n-per-side",
     "99999999999999999999"],
], ids=["synth", "domain-distance", "imbalance"])
def test_ood_cloud_past_the_address_space_exits_2_before_any_draw(tmp_path, capsys, no_draws,
                                                                   argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, "--classes", "3", "--dim", "4", "--out", str(tmp_path / "out")) == 2
    assert not caught
    n = argv[-1] if argv[0] == "sweep" else argv[2]
    assert capsys.readouterr().err == (f"error: an OOD cloud of {n} rows of 4 float32 values "
                                       f"exceeds {np.iinfo(np.intp).max} bytes\n")
    assert not (tmp_path / "out").exists()


HUGE = 99999999999999999999


@pytest.mark.parametrize("argv, rows, dim", [
    (["--classes", "3", "--dim", "4", "--law", f"balanced:{HUGE}"], 3 * HUGE, 4),
    (["--classes", "3", "--dim", "4", "--law", "balanced:4611686018427387904"], 3 * 2**62, 4),
    (["--classes", "3", "--dim", "4", "--law", f"uniform:{HUGE}"], HUGE, 4),
    (["--classes", "3", "--dim", "4", "--law", f"powerlaw:1:{HUGE}"], HUGE, 4),
    (["--dim", "4", "--classes", str(HUGE)], 200 * HUGE, 4),  # the default law, balanced:200
    (["--classes", "3", "--dim", str(HUGE)], 600, HUGE),
], ids=["balanced", "balanced-2**62", "uniform", "powerlaw", "classes", "dim"])
def test_world_past_the_address_space_exits_2_before_any_draw(tmp_path, capsys, no_draws, argv,
                                                               rows, dim):
    """A world whose rows (at least one a class) cannot be addressed is
    refused in Python ints before its class sizes are worked out; each of
    these once exited 1 with an OverflowError or ValueError traceback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("synth", *argv, "--out", str(tmp_path / "out")) == 2
    assert not caught
    assert capsys.readouterr().err == (f"error: a world of {rows} rows of {dim} float32 values "
                                       f"exceeds {np.iinfo(np.intp).max} bytes\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("law, rows", [
    (f"balanced:{HUGE}", 3 * HUGE),
    ("balanced:4611686018427387904", 3 * 2**62),
    (f"uniform:{HUGE}", HUGE),
    (f"powerlaw:1:{HUGE}", HUGE),
], ids=["balanced", "balanced-2**62", "uniform", "powerlaw"])
def test_imbalance_law_past_the_address_space_exits_2_before_any_draw(tmp_path, capsys, no_draws,
                                                                      law, rows):
    """A grid law is sized over the fit labels, not the world, so its total
    is checked on its own before its class sizes are worked out; the
    balanced and uniform cases once exited 1 with an OverflowError."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("sweep", "--axis", "imbalance", "--grid", law, "--classes", "3", "--dim", "4",
                   "--out", str(tmp_path / "out")) == 2
    assert not caught
    assert capsys.readouterr().err == (f"error: count law {law}'s fit table of {rows} rows of 4 "
                                       f"float32 values exceeds {np.iinfo(np.intp).max} bytes\n")
    assert not (tmp_path / "out").exists()


def test_ood_cloud_past_memory_exits_4(tmp_path):
    """A cloud within the address space but past memory (16 TB here, under a
    3 GB address-space limit, so nothing is touched) keeps its MemoryError.
    The CLI's one BLAS thread keeps the child's own buffers far inside the
    limit, at any ``OPENBLAS_NUM_THREADS``."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    done = subprocess.run([sys.executable, "-m", "oodgate.cli", "synth", "--classes", "3",
                           "--dim", "4", "--n-ood", str(10**12), "--out", str(tmp_path / "w")],
                          capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("error: MemoryError: Unable to allocate ")
    assert done.stderr.count("\n") == 1 and not (tmp_path / "w").exists()


def test_accuracy_sweep_warns_once_per_short_class(tmp_path, capsys):
    """The levels share one split, so each of its warnings prints once per
    sweep, not once per level, even when every warning is let through; the
    imbalance axis's pass over the split's labels before the draw prints none."""
    short = [(k, 2, "ID1/ID3") for k in (8, 9, 10)] + [(k, 1, "ID1") for k in range(11, 20)]
    for axis, grid in (("accuracy", "0,0.5"), ("imbalance", "uniform:8")):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert run("sweep", "--axis", axis, "--grid", grid, "--classes", "20",
                       "--dim", "4", "--law", "powerlaw:2:300", "--detectors", "ebm",
                       "--out", str(tmp_path / axis)) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: class {k} has only {n} sample(s); assigning to {parts}\n"
            for k, n, parts in short
        ), axis


def test_library_warnings_print_one_line_each(tmp_path, capsys):
    """Under Python's default filter each distinct warning is one line; the
    caller's ``showwarning`` is back afterwards."""
    shown = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert run("sweep", "--axis", "imbalance", "--grid", "uniform:8", "--classes", "20",
                   "--dim", "4", "--law", "powerlaw:2:300", "--detectors", "ebm",
                   "--out", str(tmp_path / "s")) == 0
    assert warnings.showwarning is shown
    short = [(k, 2, "ID1/ID3") for k in (8, 9, 10)] + [(k, 1, "ID1") for k in range(11, 20)]
    assert capsys.readouterr().err == "".join(
        f"warning: class {k} has only {n} sample(s); assigning to {parts}\n"
        for k, n, parts in short
    )


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


#: One broken file per reader: its name, its bytes, and the error that follows
#: the file name on the one stderr line.
BROKEN_FILES = {
    "oodf": ("t.oodf", b"OODF\x01\0\0\0", "truncated header (8 bytes)"),
    "oodm": ("m.oodm", b"OODM\x01\0\0\0", "truncated header (8 bytes)"),
    "table-csv": ("t.csv", b"label,f0\n0,x\n", "line 2: could not convert string to float: 'x'"),
    "score-csv": ("s.csv", b"index,score\n0,1\n1,2,3\n", "line 3 has 3 fields, expected 2"),
    "manifest-role": ("m1", b"# name: w\nFOO\tBINARY_DUMP\tx.oodf\n",
                      "line 2: unknown manifest role 'FOO'"),
    "manifest-format": ("m2", b"ID_FIT_DETECTOR\tXML\tx.oodf\n", "line 1: unknown format 'XML'"),
    "config": ("c.cfg", b"classes = 3\ndim 4\n", "line 2: expected key = value"),
    "config-key": ("c.cfg", b"# typo\nclassses = 3\n", "line 2: unknown option 'classses'"),
    "config-boolean": ("c.cfg", b"timestamp = ture\n", "line 1: expected a boolean, got 'ture'"),
}


@pytest.mark.parametrize("kind", list(BROKEN_FILES))
def test_every_reader_names_its_file(tmp_path, capsys, kind):
    name, raw, message = BROKEN_FILES[kind]
    bad = tmp_path / name
    bad.write_bytes(raw)
    table, scores = tmp_path / "ok.oodf", tmp_path / "ok.csv"
    write_feature_table(FeatureTable(np.eye(3), np.eye(3), np.arange(3)), table)
    write_score_csv(scores, [1.0, 0.0])
    out = str(tmp_path / "out")
    argv = {
        "oodf": ["score", "--input", bad, "--method", "ebm", "--out", out],
        "oodm": ["score", "--input", table, "--method", "mah", "--model", bad, "--out", out],
        "table-csv": ["fit", "--input", bad, "--out", out],
        "score-csv": ["eval", "--id-scores", scores, "--ood-scores", bad],
        "manifest-role": ["fit", "--manifest", bad, "--out", out],
        "manifest-format": ["fit", "--manifest", bad, "--out", out],
        "config": ["synth", "--config", bad, "--out", out],
        "config-key": ["synth", "--config", bad, "--out", out],
        "config-boolean": ["synth", "--config", bad, "--out", out],
    }[kind]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*map(str, argv)) == 2
    assert not caught
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_import_cli_leaves_scipy_unloaded():
    code = "import sys, oodgate.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_degenerate_fit_with_ridge_prints_one_warning(tmp_path, capsys):
    """A fit table with no within-class scatter gets the absolute ridge
    floor, and ``fit`` says so on one line."""
    t = FeatureTable(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]), None,
                     np.array([0, 0, 1, 1]))
    write_feature_table(t, tmp_path / "flat.oodf")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert run("fit", "--input", str(tmp_path / "flat.oodf"),
                   "--out", str(tmp_path / "m.oodm")) == 0
    assert capsys.readouterr().err == (
        "warning: no within-class scatter; regularizing with 1e-06 * I\n"
    )


def test_degenerate_fit_without_ridge_exits_4(tmp_path):
    t = FeatureTable(
        np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]),
        None,
        np.array([0, 0, 1, 1]),
    )
    write_feature_table(t, tmp_path / "flat.oodf")
    assert run("fit", "--input", str(tmp_path / "flat.oodf"), "--ridge", "0.0",
               "--out", str(tmp_path / "m.oodm")) == 4


def test_fit_takes_its_class_count_from_the_logits(tmp_path, capsys):
    """A fit table whose top logit class has no rows fails, though its labels
    alone would give a fit of fewer classes: ``fit`` keeps the logit count as
    the class count."""
    rng = np.random.default_rng(4)
    t = FeatureTable(rng.normal(size=(12, 2)), rng.normal(size=(12, 4)), np.arange(12) % 3)
    write_feature_table(t, tmp_path / "t.oodf")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run("fit", "--input", str(tmp_path / "t.oodf"),
                   "--out", str(tmp_path / "m.oodm")) == 2
    assert capsys.readouterr().err == "error: class 3 has no samples in the fit table\n"


@pytest.mark.parametrize("fmt", ["oodf", "csv"])
@pytest.mark.parametrize("method", ["msp", "ebm"])
def test_logit_scoring_of_a_table_without_logits_exits_2(tmp_path, capsys, method, fmt):
    """msp and ebm ``score`` keep only the logits: a table without any is
    read and checked, then refused with ``score_table``'s line."""
    from oodgate import TableFormat

    path = tmp_path / f"t.{fmt}"
    t = FeatureTable(np.array([[0.0, 1.0], [2.0, 0.5]]), None, np.array([0, 1]))
    write_feature_table(t, path, TableFormat.CSV if fmt == "csv" else TableFormat.BINARY_DUMP)
    assert run("score", "--input", str(path), "--method", method,
               "--out", str(tmp_path / "s.csv")) == 2
    assert capsys.readouterr().err == f"error: {method} scoring needs logits (c >= 2)\n"


@pytest.mark.parametrize("stage", ["fit", "score-mah", "score-msp", "score-ebm"])
def test_stage_peak_is_the_larger_of_read_and_work(tmp_path, traced_peak, stage):
    """On a table whose logits are as large as its features, ``fit`` and mah
    ``score`` never hold the logits, and msp and ebm ``score`` never hold the
    features: each checks the array it does not read a block at a time. So a
    stage's traced peak is at most the larger of a whole-table read's and the
    work's (the array and labels kept, plus the method's own allocations),
    within a quarter of the unread array's bytes; holding that array through
    the work adds all of it."""
    from oodgate import (DetectorConfig, Method, fit_mahalanobis, load_model,
                         read_feature_table, score_table, write_scores)

    n, d = 12000, 64
    rng = np.random.default_rng(9)
    t = FeatureTable(rng.normal(size=(n, d)), rng.normal(size=(n, d)), np.arange(n) % d)
    path, model, out = tmp_path / "t.oodf", tmp_path / "m.oodm", tmp_path / "s.csv"
    write_feature_table(t, path)
    narrow, kept, unread = FeatureTable(t.features, None, t.labels), t.features, t.logits
    if stage == "fit":
        argv = ["fit", "--input", path, "--out", model]
        work = lambda: fit_mahalanobis(narrow)
    elif stage == "score-mah":
        assert run("fit", "--input", str(path), "--out", str(model)) == 0
        argv = ["score", "--input", path, "--method", "mah", "--model", model, "--out", out]
        config = DetectorConfig(Method.MAH)
        work = lambda: write_scores(score_table(config, narrow, load_model(model)), out)
    else:
        argv = ["score", "--input", path, "--method", stage[len("score-"):], "--out", out]
        config, kept, unread = DetectorConfig(stage[len("score-"):]), t.logits, t.features
        work = lambda: write_scores(score_table(config, t), out)
    assert run(*map(str, argv)) == 0  # first-call allocations, LAPACK's load
    read = traced_peak(lambda: read_feature_table(path))[1]
    held = kept.nbytes + t.labels.nbytes + traced_peak(work)[1]
    code, peak = traced_peak(lambda: run(*map(str, argv)))
    assert code == 0
    assert peak <= max(read, held) + unread.nbytes / 4, (peak, read, held)


@pytest.mark.parametrize("stage", ["fit", "score-mah", "score-msp", "score-ebm", "score-msp-csv"])
def test_stage_holds_no_whole_array_it_only_reads_a_block_of(tmp_path, traced_peak, block_rows,
                                                             stage):
    """With 512-row blocks, ``fit``'s traced peak is at most its float64 copy
    of the features plus labels, class counts and 3 blocks: it widens the
    features into that copy a block at a time and checks the logits a block at
    a time, so holding either float32 array whole (3 MB each) fails. mah
    ``score`` on the table peaks at most 2 blocks above its peak on the same
    table written without logits, and msp and ebm ``score`` at most 2 blocks
    above theirs on it written with one feature column. On a CSV, msp
    ``score`` parses the table once and copies only the logits out of the
    parse: it peaks at most 2 blocks above a whole-table read less the float32
    features that read copies out, so holding both copies beside the parse
    fails."""
    from oodgate import TableFormat, data, read_feature_table

    n, d = 12000, 64
    block_rows(512, d)
    rng = np.random.default_rng(9)
    t = FeatureTable(rng.normal(size=(n, d)), rng.normal(size=(n, d)), np.arange(n) % d)
    path, bare, model = tmp_path / "t.oodf", tmp_path / "bare.oodf", tmp_path / "m.oodm"
    narrow, csv = tmp_path / "narrow.oodf", tmp_path / "t.csv"
    write_feature_table(t, path)
    write_feature_table(FeatureTable(t.features, None, t.labels), bare)
    write_feature_table(FeatureTable(t.features[:, :1], t.logits, t.labels), narrow)
    write_feature_table(t, csv, TableFormat.CSV)

    def peak(table):
        if stage == "fit":
            argv = ["fit", "--input", table, "--out", model]
        else:
            method = stage.split("-")[1]
            argv = ["score", "--input", table, "--method", method,
                    *(["--model", model] if method == "mah" else []), "--out", tmp_path / "s.csv"]
        assert run(*map(str, argv)) == 0  # first-call allocations, LAPACK's load
        code, found = traced_peak(lambda: run(*map(str, argv)))
        assert code == 0
        return found

    assert run("fit", "--input", str(path), "--out", str(model)) == 0
    if stage == "fit":
        found, bound = peak(path), n * d * 8 + t.labels.nbytes + d * 8 + 3 * data.BLOCK_BYTES
        assert found <= bound, (found, bound)
    elif stage == "score-mah":
        assert peak(path) <= peak(bare) + 2 * data.BLOCK_BYTES
    elif stage == "score-msp-csv":
        read = traced_peak(lambda: read_feature_table(csv, TableFormat.CSV))[1]
        found, bound = peak(csv), read - t.features.nbytes + 2 * data.BLOCK_BYTES
        assert found <= bound, (found, bound)
    else:
        assert peak(path) <= peak(narrow) + 2 * data.BLOCK_BYTES


@pytest.mark.parametrize("route", ["input", "manifest"])
@pytest.mark.parametrize("logits", [True, False], ids=["logits", "no-logits"])
@pytest.mark.parametrize("d", [16, 128])
def test_fit_writes_the_library_fit_bytes(tmp_path, d, logits, route):
    """``fit`` writes the bytes of ``save_model(fit_mahalanobis(read_feature_table(p)))``,
    though it widens the features from the file and never holds the logits:
    through ``--input`` and a manifest's ``ID_FIT_DETECTOR`` entry, with and
    without logits. At d=128, 4545 rows are read as blocks of 4544 and 1 rows."""
    from oodgate import (ManifestEntry, Role, TableFormat, fit_mahalanobis, read_feature_table,
                         save_model)

    n, c = 4545, 7
    rng = np.random.default_rng(d)
    labels = rng.permutation(np.arange(n) % c)
    features = rng.normal(size=(n, d)) + 3.0 * labels[:, None]
    t = FeatureTable(features, rng.normal(size=(n, c)) if logits else None, labels)
    path = tmp_path / "fit.oodf"
    write_feature_table(t, path)
    save_model(fit_mahalanobis(read_feature_table(path)), tmp_path / "lib.oodm")
    if route == "input":
        argv = ["--input", str(path)]
    else:
        entry = ManifestEntry("fit.oodf", Role.ID_FIT_DETECTOR, TableFormat.BINARY_DUMP)
        DatasetManifest((entry,)).write(tmp_path / "w.manifest")
        argv = ["--manifest", str(tmp_path / "w.manifest")]
    assert run("fit", *argv, "--out", str(tmp_path / "cli.oodm")) == 0
    assert (tmp_path / "cli.oodm").read_bytes() == (tmp_path / "lib.oodm").read_bytes()


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


@pytest.mark.parametrize(
    "case",
    ["ridge-nan", "ridge-inf", "model-nan-mean", "model-nan-covariance", "model-inf-ridge",
     "model-count-2**63"],
)
def test_non_finite_ridge_or_model_exits_2(tmp_path, capsys, case):
    t = FeatureTable(
        np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.0]]), None, np.array([0, 1, 0, 1])
    )
    table, model = str(tmp_path / "t.oodf"), tmp_path / "m.oodm"
    write_feature_table(t, table)
    if case.startswith("ridge-"):
        argv = ["fit", "--input", table, "--ridge", case[len("ridge-"):], "--out", str(model)]
        message = "error: ridge must be finite and >= 0"
    else:
        assert run("fit", "--input", table, "--out", str(model)) == 0
        # header <4sIQQd, then c x d means, d x d cov (f4), then c counts (u8)
        raw = bytearray(model.read_bytes())
        fmt, offset, value, message = {
            "model-nan-mean": ("<f", 32, np.nan, "non-finite value in means at row 0"),
            "model-nan-covariance": ("<f", 32 + 4 * 2 * 2, np.nan,
                                     "non-finite value in covariance at row 0"),
            "model-inf-ridge": ("<d", 24, np.inf, "ridge must be finite and >= 0"),
            # an int64 cast would wrap it negative: "class 0 has no fit samples"
            "model-count-2**63": ("<Q", 32 + 4 * (2 * 2 + 2 * 2), 2**63,
                                  "per-class count out of range"),
        }[case]
        struct.pack_into(fmt, raw, offset, value)
        model.write_bytes(raw)
        argv = ["score", "--input", table, "--method", "mah", "--model", str(model),
                "--out", str(tmp_path / "s.csv")]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_subnormal_temperature_prints_one_error_line(tmp_path):
    """logits / 1e-310 overflows; the scorer stays quiet and its scores fail
    the finite check, so stderr holds the error line and no numpy warning."""
    t = FeatureTable(np.zeros((2, 2)), np.array([[1.0, 2.0], [0.5, -1.0]]), np.full(2, UNLABELED))
    write_feature_table(t, tmp_path / "t.oodf")
    argv = ["score", "--input", str(tmp_path / "t.oodf"), "--method", "ebm",
            "--temperature", "1e-310", "--out", str(tmp_path / "s.csv")]
    out = subprocess.run([sys.executable, "-m", "oodgate.cli", *argv],
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr == "error: non-finite value in scores at row 0\n"


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
    # recorded with series_svg's y_label option, which every caller set to AUROC
    digest = hashlib.sha256((out / "sweep.svg").read_bytes()).hexdigest()
    assert digest == "ded6c3c6709764e6a5d0165241eefe30995bdda91b6c5942d0f5db8aa242d528"


def test_failed_sweep_rerun_keeps_no_older_summary(tmp_path, capsys, monkeypatch):
    """A rerun whose summary write fails leaves its new rows and no summary:
    the older run's would describe other rows."""
    from oodgate.experiments import SweepResult

    out = tmp_path / "sweep"
    sweep = ("sweep", "--axis", "domain-distance", "--classes", "4", "--dim", "4",
             "--law", "balanced:120", "--n-per-side", "30", "--detectors", "ebm",
             "--out", str(out))
    assert run(*sweep, "--grid", "0.5") == 0

    def fail(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(SweepResult, "to_summary_json", fail)
    assert run(*sweep, "--grid", "0.5,2.0") == 3
    assert "no space left" in capsys.readouterr().err
    assert len((out / "rows.jsonl").read_text().splitlines()) == 2
    assert not (out / "summary.json").exists()


def test_sweep_cli_imbalance_laws(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "--axis", "imbalance", "--grid", "balanced:5,uniform:20",
        "--classes", "4", "--dim", "4", "--law", "balanced:200",
        "--detectors", "mah", "--out", str(out),
    ) == 0
    rows = [json.loads(l) for l in (out / "rows.jsonl").read_text().splitlines()]
    assert [r["axis_value"] for r in rows] == ["balanced:5", "uniform:20"]


def test_sweep_svg_draws_one_label_and_one_point_per_grid_point(tmp_path):
    out = tmp_path / "sweep"
    assert run(
        "sweep", "--axis", "imbalance", "--grid", "balanced:5,balanced:5",
        "--classes", "4", "--dim", "4", "--law", "balanced:200",
        "--detectors", "msp,mah", "--out", str(out), "--svg",
    ) == 0
    svg = (out / "sweep.svg").read_text()
    labels = re.findall(r'<text x="([^"]+)"[^>]*font-size="11">balanced:5</text>', svg)
    points = re.findall(r'<circle cx="([^"]+)"', svg)
    assert len(labels) == 2 and labels[0] != labels[1]
    assert points == labels * 2  # msp's two points, then mah's


def test_sweep_svg_escapes_a_manifest_ood_name(tmp_path):
    world = tmp_path / "w"
    assert run("synth", "--classes", "3", "--dim", "4", "--law", "balanced:20",
               "--ood-distance", "1", "--ood-distance", "2", "--out", str(world)) == 0
    manifest = world / "world.manifest"
    manifest.write_text(manifest.read_text().replace("OOD_TEST(d1)", "OOD_TEST(a<b&c)"))
    out = tmp_path / "sweep"
    assert run("sweep", "--axis", "domain-distance", "--manifest", str(manifest),
               "--grid", "a<b&c,d2", "--out", str(out), "--svg") == 0
    root = ET.parse(out / "sweep.svg").getroot()
    assert "a<b&c" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


def test_sweep_rejects_a_repeated_detector(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run("sweep", "--axis", "domain-distance", "--grid", "1,2", "--classes", "3",
               "--dim", "4", "--detectors", "msp,msp", "--out", str(out), "--svg") == 2
    err = capsys.readouterr().err
    assert err == "error: sweep repeats the detector msp\n"
    assert not out.exists()


def test_sweep_rejects_a_repeated_ood_name_before_reading_the_manifest(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("read the manifest")

    monkeypatch.setattr(DatasetManifest, "read", refuse)
    out = tmp_path / "sweep"
    assert run("sweep", "--axis", "domain-distance", "--manifest", str(tmp_path / "w.manifest"),
               "--grid", "d2, d2", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: sweep repeats the OOD name 'd2'\n"
    assert not out.exists()


def _manifest_without_a_draw(tmp_path):
    """A 3-class, 4-dim manifest with one OOD set, d2, made without a world draw."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3, dtype=np.int32), 10)
    centers = 2.0 * np.eye(3, 4)[labels]
    lines = []
    for name, role in (("fit", "ID_FIT_DETECTOR"), ("id", "ID_TEST"), ("d2", "OOD_TEST(d2)")):
        ood = name == "d2"
        features = rng.normal(size=(30, 4)) + (3.0 if ood else centers)
        table = FeatureTable(features, rng.normal(size=(30, 3)),
                             np.full(30, UNLABELED) if ood else labels)
        write_feature_table(table, tmp_path / f"{name}.oodf")
        lines.append(f"{role}\tBINARY_DUMP\t{tmp_path / name}.oodf\n")
    (tmp_path / "w.manifest").write_text("".join(lines))
    return tmp_path / "w.manifest"


#: (axis, synthetic world?, --grid text, run_sweep grid, exit code, error line,
#: the CLI's line where it differs). Both surfaces take the grid's kind from
#: experiments._GRIDS. The CLI's line differs only where its --grid reader
#: refuses an item, which the line names, or reads any item as an OOD name (a
#: manifest's domain axis); run_sweep, given a value of a wrong type, names the
#: kind. A synthetic world fails before it is drawn; a right-kind manifest runs.
AXIS_WORLD_CASES = [
    # a grid of the right kind
    ("accuracy", True, "0.5,1", (0.5, 1.0), 2, "label_noise must be in [0,1), got 1.0", None),
    ("domain_distance", True, "1,inf", (1.0, float("inf")), 2,
     "ood distances must be finite and >= 0, got inf", None),
    ("imbalance", True, "uniform:2", (UnbalancedUniform(2),), 2,
     "total 2 cannot cover 3 classes at >= 1 each", None),
    ("accuracy", False, "0.1,0.2", (0.1, 0.2), 2,
     "the accuracy sweep varies label noise and needs a synthetic world", None),
    ("domain_distance", False, "d2", ("d2",), 0, None, None),
    ("imbalance", False, "balanced:5,balanced:5", (Balanced(5), Balanced(5)), 0, None, None),
    # a grid of a wrong kind
    ("accuracy", True, "balanced:5", (Balanced(5),), 2, "accuracy grid values must be real numbers",
     "--grid: could not convert string to float: 'balanced:5'"),
    ("domain_distance", True, "d2", ("d2",), 2, "domain_distance grid values must be real numbers",
     "--grid: could not convert string to float: 'd2'"),
    ("imbalance", True, "0.5", (0.5,), 2, "imbalance grid values must be count laws",
     "--grid: bad count law '0.5'; expected balanced:N, powerlaw:ALPHA:TOTAL, or uniform:TOTAL"),
    ("accuracy", False, "d2", ("d2",), 2,
     "the accuracy sweep varies label noise and needs a synthetic world", None),
    # every --grid item on a manifest's domain axis reads as a name
    ("domain_distance", False, "0.5", (0.5,), 2, "domain_distance grid values must be OOD names",
     "manifest has no OOD_TEST named '0.5'"),
    ("imbalance", False, "0.5", (0.5,), 2, "imbalance grid values must be count laws",
     "--grid: bad count law '0.5'; expected balanced:N, powerlaw:ALPHA:TOTAL, or uniform:TOTAL"),
]


@pytest.mark.parametrize("axis, synthetic, text, grid, code, line, cli_line", AXIS_WORLD_CASES,
                         ids=[f"{c[0]}-{'synthetic' if c[1] else 'manifest'}-{kind}"
                              for kind, c in zip(("right",) * 6 + ("wrong",) * 6,
                                                 AXIS_WORLD_CASES)])
def test_sweep_cli_and_run_sweep_agree_on_every_axis_and_world(
    tmp_path, capsys, monkeypatch, no_draws, axis, synthetic, text, grid, code, line, cli_line
):
    monkeypatch.delenv("OODGATE_SEED", raising=False)
    if synthetic:
        world, flags = SyntheticSpec(3, 4, law=Balanced(20)), ["--classes", "3", "--dim", "4",
                                                                "--law", "balanced:20"]
    else:
        world = _manifest_without_a_draw(tmp_path)
        flags = ["--manifest", str(world)]
    out = tmp_path / "sweep"
    assert run("sweep", "--axis", axis.replace("_", "-"), "--grid", text, *flags,
               "--out", str(out)) == code
    assert capsys.readouterr().err == ("" if line is None else f"error: {cli_line or line}\n")
    detectors = tuple(DetectorConfig(m) for m in ("msp", "ebm", "mah"))  # the CLI's default
    try:
        result = run_sweep(SweepSpec(axis, world, grid, detectors, n_per_side=DESK_SCALE_PER_SIDE))
    except ValidationError as exc:
        assert (code, str(exc)) == (2, line)
    else:
        assert code == 0 and (out / "rows.jsonl").read_text() == result.to_jsonl()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--axis", "accuracy", "--grid", "0.0,0.1,1.0"], "label_noise must be in [0,1), got 1.0"),
        (["--axis", "accuracy", "--grid", "0.0,nan"],
         "numeric grid values must be strictly increasing"),
        (["--axis", "imbalance", "--grid", "balanced:10,powerlaw:-500:1420"],
         "count law powerlaw:-500:1420 has non-finite weights over 142 classes"),
        # the first law fails both its class sizes and the equal-totals check
        (["--axis", "imbalance", "--grid", "balanced:0,balanced:5"],
         "balanced law needs per_class >= 1"),
        # the fit split holds 30 rows per class; both laws ask for 4402 in all
        (["--axis", "imbalance", "--grid", "balanced:31,uniform:4402"],
         "class 0 has 30 samples, law requests 31"),
        (["--axis", "accuracy", "--grid", "0.0", "--seed", "-1"],
         "seed must be a nonnegative integer"),
    ],
    ids=["accuracy-last-level", "nan-in-grid", "imbalance-law", "imbalance-law-and-totals",
         "imbalance-short-class", "negative-seed"],
)
def test_sweep_checks_whole_grid_before_any_world(tmp_path, capsys, no_draws, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("sweep", *argv, "--classes", "142", "--dim", "64",
                   "--out", str(tmp_path / "s")) == 2
    assert not caught
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("config", ["", "ood-distance = 1\nood-distance = 3\n"],
                         ids=["flags", "config-lines"])
def test_sweep_takes_one_ood_distance(tmp_path, capsys, config):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config)
    flags = [] if config else ["--ood-distance", "1", "--ood-distance", "3"]
    assert run("sweep", "--axis", "accuracy", "--grid", "0.0", "--classes", "3", "--dim", "4",
               "--config", str(cfg), *flags, "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == "error: sweep takes one --ood-distance, got 2\n"


@pytest.mark.parametrize(
    "fit_lines, message",
    [(0, "mahalanobis detector needs a fit table"),
     (2, "manifest needs exactly one ID_FIT_DETECTOR entry, found 2")],
    ids=["none-with-mah", "two"],
)
def test_domain_manifest_sweep_takes_at_most_one_fit_table(
    world_dir, tmp_path, capsys, fit_lines, message
):
    manifest = tmp_path / "m.manifest"
    fit = [f"ID_FIT_DETECTOR\tBINARY_DUMP\t{world_dir / f}\n" for f in ("id1.oodf", "id2.oodf")]
    manifest.write_text("".join(fit[:fit_lines]) + f"ID_TEST\tBINARY_DUMP\t{world_dir}/id3.oodf\n"
                        f"OOD_TEST(d2)\tBINARY_DUMP\t{world_dir}/ood_d2.oodf\n")
    assert run("sweep", "--axis", "domain-distance", "--manifest", str(manifest), "--grid", "d2",
               "--detectors", "mah", "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("axis, grid", [("domain-distance", "far"), ("imbalance", "balanced:5")])
def test_sweep_rejects_a_manifest_that_repeats_an_ood_name(world_dir, tmp_path, capsys,
                                                           axis, grid):
    """The domain axis would take the last ``far`` entry, the others the first."""
    manifest = tmp_path / "m.manifest"
    manifest.write_text(f"ID_FIT_DETECTOR\tBINARY_DUMP\t{world_dir}/id2.oodf\n"
                        f"ID_TEST\tBINARY_DUMP\t{world_dir}/id3.oodf\n"
                        f"OOD_TEST(far)\tBINARY_DUMP\t{world_dir}/ood_d2.oodf\n\n"
                        f"OOD_TEST(far)\tBINARY_DUMP\t{world_dir}/id1.oodf\n")
    assert run("sweep", "--axis", axis, "--manifest", str(manifest), "--grid", grid,
               "--detectors", "msp", "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: line 5: OOD_TEST name 'far' repeats line 3\n"
    )


def test_sweep_has_no_n_ood_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--axis", "domain-distance", "--grid", "1,2", "--classes", "3",
            "--dim", "4", "--n-ood", "5", "--out", str(tmp_path / "s"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-ood 5" in capsys.readouterr().err


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


def test_config_verbose_logs_written_files(tmp_path):
    """A config's ``verbose`` takes effect, and the ``wrote`` lines are the
    whole stderr of a child process running the installed entry module."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nverbose = true\n")
    out = tmp_path / "w"
    done = subprocess.run([sys.executable, "-m", "oodgate.cli", "synth", "--config", str(cfg),
                           "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0
    names = ["id1.oodf", "id2.oodf", "id3.oodf", "ood_d2.oodf", "world.json", "world.manifest"]
    assert done.stderr == "".join(f"wrote {out / name}\n" for name in names)


def test_verbose_is_per_call_and_leaves_logging_alone(tmp_path, capsys):
    """Quiet, ``-v`` and quiet calls in one process print 0, 6 and 0 ``wrote``
    lines, and the root logger keeps the handlers and level it had."""
    import logging

    root = logging.getLogger()
    before = (list(root.handlers), root.level)
    names = ["id1.oodf", "id2.oodf", "id3.oodf", "ood_d2.oodf", "world.json", "world.manifest"]
    for out, flags in ((tmp_path / "a", ()), (tmp_path / "b", ("-v",)), (tmp_path / "c", ())):
        assert run("synth", "--classes", "3", "--dim", "4", "--law", "balanced:40",
                   "--out", str(out), *flags) == 0
        wrote = "".join(f"wrote {out / name}\n" for name in names)
        assert capsys.readouterr().err == (wrote if flags else "")
    assert (list(root.handlers), root.level) == before


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    for text in ("classses = 3\n", "help = 1\n"):
        cfg.write_text(text)
        assert run("synth", "--config", str(cfg), "--classes", "3", "--dim", "4",
                   "--out", str(tmp_path / "w")) == 2
        assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, stamped",
    [("Yes", True), ("1", True), ("OFF", False), ("0", False),
     ("no-timestamp = 1", False), ("no-timestamp = 0", True)],
)
def test_config_boolean_takes_either_spelling_in_any_case(tmp_path, setting, stamped):
    line = setting if "=" in setting else f"timestamp = {setting}"  # a bare value sets timestamp
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(f"classes = 3\ndim = 4\nlaw = balanced:40\n{line}\n")
    out = tmp_path / "w"
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
    assert ("timestamp" in json.loads((out / "world.json").read_text())) is stamped


def test_env_seed_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv("OODGATE_SEED", "77")
    out = tmp_path / "w"
    assert run("synth", "--classes", "3", "--dim", "4", "--law", "balanced:40",
               "--out", str(out)) == 0
    assert json.loads((out / "world.json").read_text())["seed"] == 77


def test_config_seed_wins_over_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("OODGATE_SEED", "77")
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("classes = 3\ndim = 4\nlaw = balanced:40\nseed = 5\n")
    seeds = []
    for flags in ([], ["--seed", "6"]):
        out = tmp_path / f"w{len(seeds)}"
        assert run("synth", "--config", str(cfg), *flags, "--out", str(out)) == 0
        seeds.append(json.loads((out / "world.json").read_text())["seed"])
    assert seeds == [5, 6]


#: Typed optional flags whose value the precedence property draws, with the
#: text each source may give. ``--n-ood`` and ``--n-per-side`` take presets.
_SIZES = st.one_of(st.integers(1, 10**9).map(str), st.sampled_from(sorted(DATASET_SIZE_PRESETS)))
_DRAWN_FLAGS = {
    "seed": st.integers(0, 2**40).map(str),
    "separation": st.floats(0, 1e6).map(repr),
    "n-ood": _SIZES,
    "ridge": st.floats(0, 1e6).map(repr),
    "temperature": st.floats(1e-6, 1e6).map(repr),
    "n-per-side": _SIZES,
    "target": st.floats(0, 1).map(repr),
    "criterion": st.sampled_from(["youden", "fpr-at-tpr"]),
}
#: The required flags of each command; the recorded commands read no file.
_REQUIRED = {
    "synth": ["--out", "w"],
    "fit": ["--out", "m"],
    "score": ["--input", "t", "--method", "msp", "--out", "s"],
    "calibrate": ["--id-scores", "i", "--ood-scores", "o"],
    "eval": ["--id-scores", "i", "--ood-scores", "o"],
    "sweep": ["--axis", "accuracy", "--grid", "0", "--out", "s"],
}


@st.composite
def _flag_sources(draw):
    """A command, and for each drawn flag it takes the value of each source
    that gives one: argv, a ``--config`` line, and, for ``--seed``, the
    environment."""
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    options = {o for a in build_parser()[1][command]._actions for o in a.option_strings}
    sources = {}
    for flag, values in _DRAWN_FLAGS.items():
        if f"--{flag}" not in options:
            continue
        names = ["argv", "config"] + (["env"] if flag == "seed" else [])
        given_by = draw(st.lists(st.sampled_from(names), unique=True))
        texts = draw(st.lists(values, min_size=len(given_by), max_size=len(given_by),
                              unique=True))
        sources[flag] = dict(zip(given_by, texts))
    return command, sources, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(drawn=_flag_sources())
def test_flag_value_comes_from_argv_then_config_then_env_then_default(drawn):
    """The value a command sees is argv's, else the config file's, else
    ``OODGATE_SEED``'s (``--seed`` only), else the parser default."""
    command, sources, config_first = drawn
    recorded = []

    def record(args):
        recorded.append(args)
        return 0

    flags = [f"--{f}={v['argv']}" for f, v in sources.items() if "argv" in v]
    lines = "".join(f"{f} = {v['config']}\n" for f, v in sources.items() if "config" in v)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name in _REQUIRED:
            mp.setattr(oodgate.cli, f"cmd_{name}", record)
        mp.delenv("OODGATE_SEED", raising=False)
        defaults = build_parser()[1][command]
        if "env" in sources.get("seed", {}):
            mp.setenv("OODGATE_SEED", sources["seed"]["env"])
        config = Path(tmp, "flags.cfg")
        config.write_text(lines, encoding="utf-8")
        given_flags = ["--config", str(config), *flags] if config_first else \
            [*flags, "--config", str(config)]
        assert main([command, *_REQUIRED[command], *given_flags]) == 0
    (args,) = recorded
    for flag, by_source in sources.items():
        action = next(a for a in defaults._actions if f"--{flag}" in a.option_strings)
        text = next((by_source[s] for s in ("argv", "config", "env") if s in by_source), None)
        if text is None:
            want = defaults.get_default(action.dest)
        else:
            want = text if action.type is None else action.type(text)
        assert getattr(args, action.dest) == want, (flag, by_source)


@pytest.mark.parametrize(
    "env, argv, message",
    [
        ("abc", ["synth", "--classes", "3", "--dim", "4", "--out", "w"],
         "OODGATE_SEED must be an integer, got 'abc'"),
        ("abc", ["eval", "--id-scores", "id.csv", "--ood-scores", "ood.csv"],
         "OODGATE_SEED must be an integer, got 'abc'"),
        ("-3", ["sweep", "--axis", "accuracy", "--grid", "0.0", "--classes", "3", "--dim", "4",
                "--out", "s"], "seed must be a nonnegative integer"),
    ],
    ids=["synth", "eval", "negative-sweep"],
)
def test_bad_env_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, no_draws,
                                              env, argv, message):
    monkeypatch.setenv("OODGATE_SEED", env)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


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
