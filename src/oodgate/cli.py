"""Command-line surface: synth, fit, score, calibrate, eval, sweep.

Commands communicate only through files (tables, models, score CSVs, JSON
reports), so pipelines are reproducible and each stage can be inspected or
replaced. Exit codes are a stable contract: 0 success, 2 usage/validation,
3 I/O (a file that fails to write keeps its old bytes, and no part of the new
ones), 4 numerical failure (a ``LinAlgError`` or running out of memory too).
Stderr holds a failure's one error line, and one ``warning: MESSAGE`` line per
library warning that the warning filters let through; with ``-v``, each call
also prints one ``wrote PATH`` line per file it writes, once it is whole.

The default seed is 42, overridable by the ``OODGATE_SEED`` environment
variable; an explicit ``--seed`` flag wins over both. An ``OODGATE_SEED`` that
is not an integer fails every command with exit 2. Any flag can also be
supplied through ``--config FILE`` holding flat ``key = value`` lines
(long option names without the leading dashes); explicit flags win over
config values. Config values become parser defaults after ``OODGATE_SEED``
is read, so a config ``seed`` wins over the environment: the seed is, weakest
first, 42, ``OODGATE_SEED``, the config file, then ``--seed``.

oodgate runs each of its BLAS and LAPACK calls on numpy's OpenBLAS at one
thread, so this module sets ``OPENBLAS_NUM_THREADS`` to 1 when it is the first
to import numpy, as under ``python -m oodgate.cli`` or the ``oodgate`` script:
that library then starts with the one thread those calls use, and no idle
pool. A process that imported numpy first keeps its pool and its environment.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import warnings
from pathlib import Path

if "numpy" not in sys.modules:  # OpenBLAS reads it once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .data import (
    DatasetManifest,
    FeatureTable,
    ManifestEntry,
    Role,
    TableFormat,
    _ingesting,
    _output,
    _read_kept,
    write_feature_table,
)
from .detectors import (
    DetectorConfig,
    Method,
    _fit,
    load_model,
    read_scores,
    save_model,
    score_table,
    write_scores,
)
from .errors import NumericalError, ValidationError
from .experiments import (
    DATASET_SIZE_PRESETS,
    DESK_SCALE_PER_SIDE,
    SweepSpec,
    _GRIDS,
    _grid_kind,
    run_sweep,
)
from .metrics import Criterion, _check_target, calibrate_threshold, evaluate, roc_curve
from .svg import roc_svg, series_svg
from .synthetic import SyntheticSpec, _world_sizes, generate_world, parse_law

_PRESET_TEXT = ", ".join(f"{k}={v}" for k, v in DATASET_SIZE_PRESETS.items())

_EPILOG = (
    "size presets (accepted wherever a sample count is expected): "
    f"{_PRESET_TEXT}; balanced fit preset: law balanced:411 over 142 classes "
    "= 58362 samples"
)


def _size(text: str) -> int:
    if text in DATASET_SIZE_PRESETS:
        return DATASET_SIZE_PRESETS[text]
    return int(text)


def _default_seed() -> int:
    text = os.environ.get("OODGATE_SEED", "42")
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"OODGATE_SEED must be an integer, got {text!r}") from None


def _table_format(path: str, explicit_format: str | None) -> TableFormat:
    is_csv = explicit_format == "csv" if explicit_format else path.endswith(".csv")
    return TableFormat.CSV if is_csv else TableFormat.BINARY_DUMP


def _wrote(args, path) -> None:
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)


def _write_text(args, path: str | Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _output(path) as fh:
            fh.write(text)
        _wrote(args, path)


def _timestamp(args) -> str | None:
    if getattr(args, "timestamp", False):
        return datetime.datetime.now(datetime.timezone.utc).isoformat()
    return None


def _world_spec(args, seed: int) -> SyntheticSpec:
    """The world the world flags describe, at the first ``--ood-distance`` (default 2.0)."""
    return SyntheticSpec(
        classes=args.classes,
        dim=args.dim,
        class_separation=args.separation,
        within_class_sigma=args.sigma,
        label_noise=args.label_noise,
        ood_distance=(args.ood_distance or [2.0])[0],
        law=args.law,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    if args.classes is None or args.dim is None:
        raise ValidationError("synth requires --classes and --dim")
    distances = tuple(args.ood_distance) if args.ood_distance else (2.0,)
    spec = _world_spec(args, args.seed)
    if (few := np.flatnonzero(_world_sizes(spec) < 3)).size:  # no detector-fit row: fit refuses
        raise ValidationError(f"count law {spec.law.text()} gives class {few[0]} fewer than 3 "
                              "rows, too few to reach the detector-fit table")
    world = generate_world(spec, ood_distances=distances, n_ood=args.n_ood)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # The manifest stands for a whole world: an older one must not name new tables.
    (out / "world.manifest").unlink(missing_ok=True)
    tables = {
        "id1.oodf": (world.id_train, Role.ID_TRAIN_CLASSIFIER, ""),
        "id2.oodf": (world.id_fit, Role.ID_FIT_DETECTOR, ""),
        "id3.oodf": (world.id_test, Role.ID_TEST, ""),
    }
    for name, table in world.ood_tables.items():
        tables[f"ood_{name}.oodf"] = (table, Role.OOD_TEST, name)
    entries = []
    for fname, (table, role, ood_name) in tables.items():
        write_feature_table(table, out / fname)
        _wrote(args, out / fname)
        entries.append(ManifestEntry(fname, role, TableFormat.BINARY_DUMP, ood_name))

    summary = {
        "classes": spec.classes,
        "dim": spec.dim,
        "class_separation": spec.class_separation,
        "within_class_sigma": spec.within_class_sigma,
        "label_noise": spec.label_noise,
        "ood_distances": list(distances),
        "law": spec.law.text(),
        "seed": spec.seed,
        "classifier_accuracy": world.classifier_accuracy,
        "sizes": {
            "id_train": world.id_train.n,
            "id_fit": world.id_fit.n,
            "id_test": world.id_test.n,
            **{f"ood_{k}": t.n for k, t in world.ood_tables.items()},
        },
    }
    ts = _timestamp(args)
    if ts is not None:
        summary["timestamp"] = ts
    _write_text(args, out / "world.json", json.dumps(summary, indent=2) + "\n")
    # Last, so that a manifest stands for a whole world.
    DatasetManifest(tuple(entries), name="synthetic-world").write(out / "world.manifest")
    _wrote(args, out / "world.manifest")
    return 0


def cmd_fit(args) -> int:
    config = DetectorConfig(args.method, ridge=args.ridge)  # before any read
    if config.method is not Method.MAH:
        raise ValidationError(f"{config.method.value} has no fitting step; only mah is fitted")
    if args.manifest and (args.input or args.format):  # the manifest names both
        raise ValidationError(f"{'--input' if args.input else '--format'} and --manifest "
                              "exclude each other")
    if args.manifest:
        manifest = DatasetManifest.read(args.manifest)
        entry = manifest.single(Role.ID_FIT_DETECTOR)
        path, fmt = manifest.resolve(entry), entry.fmt
    elif args.input:
        path, fmt = args.input, _table_format(args.input, args.format)
    else:
        raise ValidationError("fit needs --input TABLE or --manifest MANIFEST")
    # The features are widened into the fit's float64 copy as they are read;
    # the class count is the table's logit count.
    features, _, labels, c = _read_kept(path, fmt, np.float64, None)
    model = _fit(features, labels, c, config.ridge)
    save_model(model, args.out)
    _wrote(args, args.out)
    return 0


def cmd_score(args) -> int:
    config = DetectorConfig(args.method, temperature=args.temperature)
    model = None
    if config.method is Method.MAH:
        if not args.model:
            raise ValidationError("mah scoring needs --model MODEL")
        model = load_model(args.model)
    fmt = _table_format(args.input, args.format)  # read after every flag check
    # Each method reads one array, the logits or the features; the other is
    # only checked, a block at a time, and never held. score_table takes a
    # table, whose n is its features' row count, so the table of msp and ebm,
    # which read no features, has n zero-width feature rows.
    features, logits, labels, _ = _read_kept(
        args.input, fmt, *((None, np.float32) if model is None else (np.float32, None)))
    if features is None:
        features = np.empty((labels.size, 0), np.float32)
    table = FeatureTable._of(features=features, logits=logits, labels=labels)
    scores = score_table(config, table, model)
    write_scores(scores, args.out)
    _wrote(args, args.out)
    return 0


def _score_pair(args) -> tuple[Criterion, np.ndarray, np.ndarray]:
    """The ``--criterion`` and the ID and OOD scores; a ``--target`` that the
    criterion reads is checked before any score file is read."""
    criterion = Criterion.YOUDEN if args.criterion == "youden" else Criterion.FPR_AT_TPR
    if criterion is Criterion.FPR_AT_TPR:
        _check_target(args.target)
    return criterion, *(read_scores(path, args.method) for path in (args.id_scores, args.ood_scores))


def cmd_calibrate(args) -> int:
    criterion, id_scores, ood_scores = _score_pair(args)
    threshold, tpr, fpr = calibrate_threshold(id_scores, ood_scores, criterion, args.target)
    obj = {
        "criterion": args.criterion,
        "target": args.target if args.criterion == "fpr-at-tpr" else None,
        "threshold": threshold,
        "tpr": tpr,
        "fpr": fpr,
    }
    _write_text(args, args.out, json.dumps(obj, indent=2) + "\n")
    return 0


def cmd_eval(args) -> int:
    criterion, id_scores, ood_scores = _score_pair(args)
    report = evaluate(id_scores, ood_scores, criterion, args.target)
    _write_text(args, args.out, report.to_json())
    if args.svg:
        _write_text(args, args.svg, roc_svg(roc_curve(id_scores, ood_scores)))
    return 0


def _items(flag: str, text: str, parse) -> tuple:
    """``parse`` of each item of a comma list; a bad item is named in the error."""
    try:
        return tuple(parse(item) for item in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def cmd_sweep(args) -> int:
    if len(args.ood_distance or ()) > 1:
        raise ValidationError(f"sweep takes one --ood-distance, got {len(args.ood_distance)}")
    axis = args.axis.replace("-", "_")
    if args.manifest:
        base_world = args.manifest
    else:
        if args.classes is None or args.dim is None:
            raise ValidationError("sweep needs --manifest or --classes/--dim world flags")
        base_world = _world_spec(args, args.world_seed)

    grid = _items("--grid", args.grid, _grid_kind(axis, not args.manifest)[2])

    detectors = tuple(
        DetectorConfig(method, temperature=args.temperature, ridge=args.ridge)
        for method in _items("--detectors", args.detectors, lambda m: Method(m.strip()))
    )
    spec = SweepSpec(
        axis=axis,
        base_world=base_world,
        grid=grid,
        detectors=detectors,
        seed=args.seed,
        n_per_side=args.n_per_side,
    )
    result = run_sweep(spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").unlink(missing_ok=True)  # an older one must not outlive its rows
    _write_text(args, out / "rows.jsonl", result.to_jsonl())
    _write_text(args, out / "summary.json", result.to_summary_json(_timestamp(args)))
    if args.svg:
        labels = [str(r.axis_value) for r in result.rows[:: len(detectors)]]  # one per point
        series: dict[str, list[float]] = {}
        for row in result.rows:
            series.setdefault(row.method, []).append(row.auroc)
        _write_text(args, out / "sweep.svg", series_svg(labels, series, f"{args.axis} sweep"))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_world_flags(p: argparse.ArgumentParser) -> None:
    # --classes/--dim are validated after --config is applied, so a config
    # file can satisfy them; argparse `required` would reject too early.
    p.add_argument("--classes", type=int, default=None,
                   help="number of ID classes (c >= 2)")
    p.add_argument("--dim", type=int, default=None,
                   help="feature dimension (d >= 2)")
    p.add_argument("--separation", type=float, default=1.0,
                   help="radius of the sphere holding class means")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="within-class standard deviation")
    p.add_argument("--label-noise", type=float, default=0.0,
                   help="fraction of fit labels randomized among other classes")
    p.add_argument("--ood-distance", type=float, action="append", default=None,
                   help="OOD cloud distance in units of separation (synth: repeatable)")
    p.add_argument("--law", type=parse_law, default=parse_law("balanced:200"),
                   help="per-class count law: balanced:N, powerlaw:ALPHA:TOTAL, "
                        "uniform:TOTAL")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="flat 'key = value' file supplying flag defaults")
    p.add_argument("-v", "--verbose", action="store_true", help="print written files")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="oodgate",
        description="Post-hoc OOD detection over exported features and logits.",
        epilog=_EPILOG,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic world", epilog=_EPILOG)
    _add_world_flags(p)
    p.add_argument("--n-ood", type=_size, default=None,
                   help="OOD samples per cloud (int or size preset; "
                        "default: test-split size)")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--timestamp", dest="timestamp", action="store_true",
                   help="stamp the world summary with the current UTC time")
    p.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                   help="omit the timestamp (default)")
    p.set_defaults(func=cmd_synth, timestamp=False)

    p = subs.add_parser("fit", help="fit the mahalanobis detector")
    p.add_argument("--input", default=None, help="detector-fit table")
    p.add_argument("--manifest", default=None,
                   help="manifest supplying the ID_FIT_DETECTOR table")
    p.add_argument("--format", choices=["oodf", "csv"], default=None)
    p.add_argument("--method", default="mah", choices=[m.value for m in Method])
    p.add_argument("--ridge", type=float, default=1e-6,
                   help="covariance ridge, relative to trace/d")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("score", help="score a table with one detector")
    p.add_argument("--input", required=True, help="table to score")
    p.add_argument("--format", choices=["oodf", "csv"], default=None)
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--model", default=None, help="fitted model (mah only)")
    p.add_argument("--temperature", type=float, default=1.0, help="ebm temperature")
    p.add_argument("--out", required=True, help="score CSV to write")
    p.set_defaults(func=cmd_score)

    for name, func, help_text in (
        ("calibrate", cmd_calibrate, "pick an operating threshold"),
        ("eval", cmd_eval, "full evaluation report (AUROC, FPR95, threshold)"),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--id-scores", required=True, help="ID score CSV")
        p.add_argument("--ood-scores", required=True, help="OOD score CSV")
        p.add_argument("--method", default=None, choices=[m.value for m in Method])
        p.add_argument("--criterion", choices=["youden", "fpr-at-tpr"],
                       default="youden")
        p.add_argument("--target", type=float, default=0.95,
                       help="TPR target for fpr-at-tpr")
        p.add_argument("--out", default=None, help="output JSON (default: stdout)")
        if name == "eval":
            p.add_argument("--svg", default=None, help="also render the ROC curve")
        p.set_defaults(func=func)

    p = subs.add_parser("sweep", help="run one evaluation-axis sweep",
                        epilog=_EPILOG)
    p.add_argument("--axis", required=True, choices=[a.replace("_", "-") for a in _GRIDS])
    p.add_argument("--grid", required=True,
                   help="comma list: label-noise levels (accuracy), OOD distances or, with "
                        "--manifest, OOD table names (domain-distance), or count laws (imbalance)")
    p.add_argument("--detectors", default="msp,ebm,mah")
    p.add_argument("--manifest", default=None,
                   help="evaluate a dataset manifest instead of a synthetic world")
    _add_world_flags(p)
    p.add_argument("--world-seed", type=int, default=42,
                   help="seed of the generated world (fixed across grid points)")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--n-per-side", type=_size, default=DESK_SCALE_PER_SIDE,
                   help="test samples per side (int or size preset; "
                        f"default {DESK_SCALE_PER_SIDE})")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="sweep subsampling seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="render an AUROC chart")
    p.add_argument("--timestamp", dest="timestamp", action="store_true")
    p.add_argument("--no-timestamp", dest="timestamp", action="store_false")
    p.set_defaults(func=cmd_sweep, timestamp=False)

    for p in subs.choices.values():
        _add_common(p)
    return parser, subs.choices


def _apply_config(sub: argparse.ArgumentParser, path: str) -> dict[str, list]:
    """Set the flat key = value lines of ``path`` as ``sub``'s defaults, which a
    flag given in ``argv`` beats when it is parsed again. A repeatable flag's
    lines are returned by dest: argparse would add the flags given to them."""
    actions = {o[2:]: a for a in sub._actions for o in a.option_strings if o.startswith("--")}
    repeated: dict[str, list] = {}
    with _ingesting(path):
        for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            name = key.strip().replace("_", "-")
            value = value.strip()
            if "\0" in value:  # argv cannot hold one; open() raises ValueError on it
                raise ValidationError(f"line {lineno}: NUL character in value")
            if name not in actions or name in ("config", "help"):
                raise ValidationError(f"line {lineno}: unknown option {key.strip()!r}")
            action = actions[name]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                on = value.lower() in ("1", "true", "yes", "on")
                if not on and value.lower() not in ("0", "false", "no", "off"):
                    raise ValidationError(f"line {lineno}: expected a boolean, got {value!r}")
                parsed = action.const if on else not action.const
            else:
                try:
                    parsed = action.type(value) if action.type is not None else value
                    if action.choices is not None and parsed not in action.choices:
                        raise ValueError(f"invalid choice {value!r}")
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ValidationError(f"line {lineno}: {exc}") from None
            if isinstance(action, argparse._AppendAction):
                repeated.setdefault(action.dest, []).append(parsed)
            else:  # parsed: argparse runs ``type`` again on a string default
                sub.set_defaults(**{action.dest: parsed})
    return repeated


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():  # puts the caller's showwarning back
        warnings.showwarning = _warning_line
        try:
            parser, commands = build_parser()  # reads OODGATE_SEED
            args = parser.parse_args(argv)
            if args.config:
                repeated = _apply_config(commands[args.command], args.config)
                args = parser.parse_args(argv)
                for dest, values in repeated.items():
                    if getattr(args, dest) is None:  # not given in argv
                        setattr(args, dest, values)
            return args.func(args)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 4
        except (np.linalg.LinAlgError, MemoryError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
