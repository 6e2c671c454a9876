"""Child processes of the benchmark, one subcommand each.

Every subcommand runs in its own process so that the runner stays small:
a child spawned by a process that once held a large world reports that
process's peak RSS as its own. Each subcommand writes its result as JSON to
the path it is given.

  probe OUT                       versions, BLAS and its thread count
  setup WORKLOAD SEED SCALE DIR   generate the workload's input tables
  export SRC DST                  one CSV export (write_feature_table)
  sweep SEED SCALE DIR [--checks] the timed run_sweep call, then its checks
                                  (scores are recorded only with --checks)
  check WORKLOAD INPUTS PASS OUT  output checks of a CLI pass

Run from the repository root with ``src/`` on ``PYTHONPATH``; ``run.py``
sets this up.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import platform
import resource
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from run import METHODS, SCALES, WORLD
from tracing import Tracer, instrument

import oodgate
from oodgate import (
    DATASET_SIZE_PRESETS,
    Balanced,
    DetectorConfig,
    Method,
    SplitPolicy,
    SweepSpec,
    SyntheticSpec,
    TableFormat,
    calibrate_threshold,
    evaluate,
    load_model,
    read_feature_table,
    read_scores,
    roc_curve,
    sample_imbalanced,
    score_table,
    write_feature_table,
    write_scores,
)
from oodgate import experiments
from oodgate.svg import roc_svg


def _size(value) -> int:
    return DATASET_SIZE_PRESETS.get(value, value)


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# probe


def _loaded_blas() -> list[dict]:
    """Each OpenBLAS library mapped into this process, with its thread count."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        found.append(entry)
    return found


def cmd_probe(args) -> int:
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, as the CLI does)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _write_json(args.out, {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "oodgate": oodgate.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "loaded": _loaded_blas()},
    })
    return 0


# ---------------------------------------------------------------------------
# setup and export


def build_tables(seed: int, scale: dict, n_ood) -> dict:
    """Fit, ID-test and OOD tables of one world, at the scale's exact sizes.

    The split gives every class more detector-fit and test rows than needed;
    the fit table is then drawn balanced and the ID test rows subsampled.
    """
    spec = SyntheticSpec(
        classes=scale["classes"], dim=scale["dim"], law=Balanced(scale["pool_per_class"]),
        seed=seed, **WORLD,
    )
    world = oodgate.synthetic.generate_world(
        spec, n_ood=_size(n_ood), split=SplitPolicy(0.2, 0.84, seed=seed)
    )
    fit = sample_imbalanced(world.id_fit, Balanced(scale["fit_per_class"]), seed)
    rows = np.random.default_rng(seed).choice(
        world.id_test.n, _size(scale["n_id"]), replace=False
    )
    (ood,) = world.ood_tables.values()
    return {"fit": fit, "id": world.id_test.take(np.sort(rows)), "ood": ood}


def cmd_setup(args) -> int:
    tracer = Tracer.from_env()
    if tracer is not None:
        instrument(tracer, ("generate_world",))
    scale = SCALES[args.scale]
    n_ood = scale["n_ood_cli"] if args.workload == "cli-chain-d128" else scale["n_ood_csv"]
    tables = build_tables(args.seed, scale, n_ood)
    if args.workload != "cli-chain-d128":
        del tables["fit"]
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        write_feature_table(table, out / f"{name}.oodf")
    if tracer is not None:
        tracer.dump()
    return 0


def cmd_export(args) -> int:
    tracer = Tracer.from_env()
    if tracer is not None:
        with tracer.span("trace.instrument"):
            instrument(tracer)
    try:
        table = oodgate.data.read_feature_table(args.src)
        oodgate.data.write_feature_table(table, args.dst, TableFormat.CSV)
    finally:
        if tracer is not None:
            tracer.dump()
    return 0


# ---------------------------------------------------------------------------
# output checks


class Checks:
    """Named checks of named operations; an exception is a failed check."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def run(self, op: str, name: str, fn, *args) -> None:
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append({"op": op, "check": name, "ok": bool(ok), "detail": detail})


def _bound(err: float, tol: float) -> tuple[bool, str]:
    return err <= tol, f"max error {err:.3g} (bound {tol:g})"


def check_mah_sample(scores: np.ndarray, sampled: np.ndarray, means, cov, ridge):
    """The sampled rows' scores against the dense solve; ``sampled`` holds
    the feature rows at ``checks.sample_rows(scores.size)``."""
    ref = checks.mahalanobis_dense(means, checks.regularized(cov, ridge), sampled)
    got = scores[checks.sample_rows(scores.size)]
    return _bound(checks.max_error(got, ref, np.finfo(float).tiny), checks.MAH_RTOL)


def check_mah(scores: np.ndarray, features: np.ndarray, means, cov, ridge):
    sampled = features[checks.sample_rows(scores.size)]
    return check_mah_sample(scores, sampled, means, cov, ridge)


def check_closed_form(method: str, scores: np.ndarray, logits: np.ndarray):
    form = checks.msp_closed_form if method == "msp" else checks.energy_closed_form
    return _bound(checks.max_error(scores, form(logits)), checks.CLOSED_FORM_TOL)


def check_auroc(auroc: float, id_scores: np.ndarray, ood_scores: np.ndarray):
    return _bound(abs(auroc - checks.ranksum_auroc(id_scores, ood_scores)), checks.AUROC_TOL)


def check_report(report_path: Path, id_path: Path, ood_path: Path):
    """AUROC against the rank sum, and sizes against the score files."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    id_s, ood_s = checks.read_score_csv(id_path), checks.read_score_csv(ood_path)
    if (report["n_id"], report["n_ood"]) != (id_s.size, ood_s.size):
        return False, f"report sizes {report['n_id']}/{report['n_ood']} != score files"
    return check_auroc(report["auroc"], id_s, ood_s)


def same_bytes(got: bytes, want: bytes, what: str):
    if got == want:
        return True, f"{what}: {len(got)} bytes identical"
    return False, f"{what}: differs ({len(got)} vs {len(want)} bytes)"


def replay_report(report_path: Path, id_path: Path, ood_path: Path, method: str):
    """Evaluate the same score files again through the library."""
    report = evaluate(read_scores(id_path, Method(method)), read_scores(ood_path, Method(method)))
    return same_bytes(report.to_json().encode(), report_path.read_bytes(), "report replay")


def replay_scores(path: Path, table, method: str, model=None):
    """Score the same table again and write it the way the CLI does."""
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        again = Path(tmp) / path.name
        write_scores(score_table(DetectorConfig(Method(method)), table, model), again)
        return same_bytes(again.read_bytes(), path.read_bytes(), "score replay")


def check_fit(model_path: Path, fit) -> tuple[bool, str]:
    """Stored means equal per-class means of the fit table to binary32 precision."""
    means, _, _ = checks.read_oodm(model_path)
    labels = fit.labels
    sums = np.zeros((means.shape[0], fit.d))
    np.add.at(sums, labels, fit.features.astype(np.float64))
    direct = sums / np.bincount(labels, minlength=means.shape[0])[:, None]
    return _bound(checks.max_error(means, direct, 1e-3), 2.5e-7)


def check_cli_chain(inputs: Path, out: Path, c: Checks) -> None:
    tables = {s: read_feature_table(inputs / f"{s}.oodf") for s in ("fit", "id", "ood")}
    c.run("fit", "fit-means", check_fit, out / "model.oodm", tables["fit"])
    means, cov, ridge = checks.read_oodm(out / "model.oodm")
    for method in METHODS:
        for split in ("id", "ood"):
            op, path = f"score-{method}-{split}", out / f"{split}_{method}.csv"
            scores = checks.read_score_csv(path)
            if method == "mah":
                c.run(op, "mah-dense-solve", check_mah, scores,
                      tables[split].features, means, cov, ridge)
            else:
                c.run(op, "closed-form", check_closed_form, method, scores,
                      tables[split].logits)
        model = load_model(out / "model.oodm") if method == "mah" else None
        c.run(f"score-{method}-id", "replay", replay_scores, out / f"id_{method}.csv",
              tables["id"], method, model)
        args = (out / f"report_{method}.json", out / f"id_{method}.csv", out / f"ood_{method}.csv")
        c.run(f"eval-{method}", "auroc-rank-sum", check_report, *args)
        c.run(f"eval-{method}", "replay", replay_report, *args, method)


def check_csv_export(csv_path: Path, table) -> tuple[bool, str]:
    """Line count, header and a fixed sample of rows, value for value."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = ["label"] + [f"f{j}" for j in range(table.d)] + [f"l{j}" for j in range(table.c)]
    if lines[0].split(",") != header or len(lines) != table.n + 1:
        return False, f"header or line count wrong ({len(lines)} lines)"
    for i in checks.sample_rows(table.n):
        fields = lines[i + 1].split(",")
        values = np.array([float(v) for v in fields[1:]], dtype=np.float32)
        want = np.concatenate([table.features[i], table.logits[i]])
        if int(fields[0]) != table.labels[i] or values.tobytes() != want.tobytes():
            return False, f"row {i} differs from the source table"
    return True, f"{table.n} rows, sampled rows exact"


def replay_export(csv_path: Path, table, rows: int = 200):
    """Export the first rows again; they must match the start of the file."""
    head = table.take(np.arange(min(rows, table.n)))
    with tempfile.TemporaryDirectory(dir=csv_path.parent) as tmp:
        again = Path(tmp) / "head.csv"
        write_feature_table(head, again, TableFormat.CSV)
        want = again.read_bytes()
    with open(csv_path, "rb") as fh:
        got = fh.read(len(want))
    return same_bytes(got, want, f"first {head.n} exported rows")


def check_calibration(path: Path, id_path: Path, ood_path: Path, method: str):
    got = json.loads(path.read_text(encoding="utf-8"))
    threshold, tpr, fpr = calibrate_threshold(
        read_scores(id_path, Method(method)), read_scores(ood_path, Method(method)),
        "fpr_at_tpr", 0.95,
    )
    ok = (got["threshold"], got["tpr"], got["fpr"]) == (threshold, tpr, fpr) and tpr >= 0.95
    return ok, f"threshold {got['threshold']!r}, tpr {got['tpr']!r}, fpr {got['fpr']!r}"


def check_svg(svg_path: Path, id_path: Path, ood_path: Path, method: str):
    curve = roc_curve(read_scores(id_path, Method(method)), read_scores(ood_path, Method(method)))
    return same_bytes(svg_path.read_bytes(), roc_svg(curve).encode(), "svg replay")


def check_csv_logits(inputs: Path, out: Path, c: Checks) -> None:
    tables = {s: read_feature_table(inputs / f"{s}.oodf") for s in ("id", "ood")}
    for split, table in tables.items():
        c.run(f"export-{split}", "rows-exact", check_csv_export, out / f"{split}.csv", table)
    c.run("export-id", "replay", replay_export, out / "id.csv", tables["id"])
    for method in ("msp", "ebm"):
        for split, table in tables.items():
            scores = checks.read_score_csv(out / f"{split}_{method}.csv")
            c.run(f"score-{method}-{split}", "closed-form", check_closed_form, method,
                  scores, table.logits)
        c.run(f"score-{method}-id", "replay", replay_scores, out / f"id_{method}.csv",
              tables["id"], method)
        pair = (out / f"id_{method}.csv", out / f"ood_{method}.csv")
        report = out / f"report_{method}.json"
        c.run(f"eval-{method}", "auroc-rank-sum", check_report, report, *pair)
        c.run(f"eval-{method}", "replay", replay_report, report, *pair, method)
        c.run(f"eval-{method}", "svg-replay", check_svg, out / f"roc_{method}.svg", *pair, method)
        c.run(f"calibrate-{method}", "recompute", check_calibration,
              out / f"calibrate_{method}.json", *pair, method)


def cmd_check(args) -> int:
    c = Checks()
    check = check_cli_chain if args.workload == "cli-chain-d128" else check_csv_logits
    check(Path(args.inputs), Path(args.dir), c)
    _write_json(args.out, c.results)
    return 0


# ---------------------------------------------------------------------------
# sweep


def sweep_spec(seed: int, scale: dict) -> SweepSpec:
    world = SyntheticSpec(
        classes=scale["classes"], dim=scale["sweep_dim"],
        law=Balanced(scale["sweep_per_class"]), seed=seed, **WORLD,
    )
    return SweepSpec(
        axis="domain_distance", base_world=world, grid=(0.0, 0.5, 1.0, 2.0, 4.0),
        detectors=tuple(DetectorConfig(Method(m)) for m in METHODS),
        seed=seed, n_per_side=_size(scale["sweep_per_side"]),
    )


#: Public scorers whose results the sweep's checks record, in every module
#: that holds them.
SCORERS = ("score_table", "score_msp", "score_energy", "score_mahalanobis")


@dataclass
class Scored:
    """One score set the sweep computed, with what the oracles need."""

    method: str
    scores: np.ndarray
    logits: np.ndarray | None = None  # msp/ebm: the scored logits
    rows: np.ndarray | None = None  # mah: the sampled feature rows
    model: object = None  # mah: the model scored against

    def key(self) -> tuple:
        return self.method, self.scores.tobytes()


def _scored(name: str, arguments: dict, scores: np.ndarray) -> Scored:
    """What one scorer call computed, from its arguments by name."""
    if name == "score_table":
        method, table = arguments["config"].method.value, arguments["table"]
        model, features, logits = arguments.get("model"), table.features, table.logits
    elif name == "score_mahalanobis":
        method, model, features = "mah", arguments["model"], arguments["features"]
    else:
        method, logits = ("msp" if name == "score_msp" else "ebm"), arguments["logits"]
    if method == "mah":
        sampled = np.array(features[checks.sample_rows(len(features))])
        return Scored(method, scores, rows=sampled, model=model)
    return Scored(method, scores, logits=logits)


@contextmanager
def capture_scores():
    """Record every score set the sweep computes, by what was scored.

    The sweep's checks then depend only on its output rows and on the score
    sets behind them, not on how often or through which of the public
    scorers the sweep reaches them. A set reached through two of them (as
    score_table calls score_mahalanobis) is recorded twice; the checks
    count it once. Holding the scored logits and a sample of each mah input
    keeps a few MB alive after world generation.
    """
    recorded: list[Scored] = []
    modules = (experiments, oodgate.detectors)
    saved = [(m, name, getattr(m, name)) for m in modules for name in SCORERS
             if hasattr(m, name)]

    def recording(name, inner):
        signature = inspect.signature(inner)

        def call(*args, **kwargs):
            result = inner(*args, **kwargs)
            arguments = signature.bind(*args, **kwargs).arguments
            recorded.append(_scored(name, arguments, np.array(result.scores)))
            return result
        return call

    for module, name, inner in saved:
        setattr(module, name, recording(name, inner))
    try:
        yield recorded
    finally:
        for module, name, inner in saved:
            setattr(module, name, inner)


def distinct(recorded: list) -> list:
    """The recorded score sets, each once, in the order first seen."""
    seen = {}
    for entry in recorded:
        seen.setdefault(entry.key(), entry)
    return list(seen.values())


def match_auroc(row, scored: list):
    """Some computed (ID, OOD) pair of the row's method and sizes gives its AUROC."""
    sets = [s.scores for s in scored if s.method == row.method]
    best = np.inf
    for a in sets:
        if a.size != row.n_id:
            continue
        for b in sets:
            if b is not a and b.size == row.n_ood:
                err = abs(row.auroc - checks.ranksum_auroc(a, b))
                if err <= checks.AUROC_TOL:
                    return _bound(err, checks.AUROC_TOL)
                best = min(best, err)
    return False, (f"no pair of the {len(sets)} recorded {row.method} score sets gives "
                   f"AUROC {row.auroc!r} (closest off by {best:.3g})")


def check_sweep(spec: SweepSpec, result, recorded: list, c: Checks) -> None:
    """Every score set against its oracle, every row's AUROC against the rank
    sum of score sets the sweep computed, and a one-point replay."""
    scored = distinct(recorded)
    for entry in scored:
        if entry.method == "mah":
            c.run("sweep", "mah-dense-solve", lambda e=entry: check_mah_sample(
                e.scores, e.rows, e.model.means, e.model.covariance, e.model.ridge))
        else:
            c.run("sweep", f"{entry.method}-closed-form", check_closed_form, entry.method,
                  entry.scores, entry.logits)
    for row in result.rows:
        c.run("sweep", "auroc-rank-sum", match_auroc, row, scored)
    first = experiments.run_sweep(replace(spec, grid=spec.grid[:1]))
    c.run("sweep", "replay-first-grid-point", same_bytes, first.to_jsonl().encode(),
          "".join(result.to_jsonl().splitlines(keepends=True)[: len(first.rows)]).encode(),
          "rows of the first grid point")


def cmd_sweep(args) -> int:
    spec = sweep_spec(args.seed, SCALES[args.scale])
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer.from_env()
    if tracer is not None:
        instrument(tracer)
    with capture_scores() if args.checks else nullcontext([]) as recorded:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result = experiments.run_sweep(spec)
        except Exception as exc:  # the operation failed; report it as such
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.dump()

    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    _write_json(out / "timing.json", {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": after.ru_maxrss / 1024, "error": error,
    })
    if result is None:
        return 1
    text = result.to_jsonl()
    (out / "rows.jsonl").write_text(text, encoding="utf-8")
    if args.checks:
        c = Checks()
        check_sweep(spec, result, recorded, c)
        _write_json(out / "checks.json", c.results)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("probe")
    p.add_argument("out")
    p.set_defaults(func=cmd_probe)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("scale", choices=sorted(SCALES))
    p.add_argument("dir")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("export")
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(func=cmd_export)
    p = sub.add_parser("check")
    p.add_argument("workload")
    p.add_argument("inputs")
    p.add_argument("dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("sweep")
    p.add_argument("seed", type=int)
    p.add_argument("scale", choices=sorted(SCALES))
    p.add_argument("dir")
    p.add_argument("--checks", action="store_true")
    p.set_defaults(func=cmd_sweep)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
