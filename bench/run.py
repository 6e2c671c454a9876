"""oodgate benchmark: three workloads at the paper's scale.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

  cli-chain-d128     fit, score msp/ebm/mah on ID and OOD OODF tables, eval
  sweep-domain-d512  one in-process run_sweep call over five domain distances
  csv-logits-d128    CSV export, then score/eval --svg/calibrate on CSV logits

The runner imports only the standard library, so its own memory stays small:
every set-up, CLI stage, export, sweep and output check runs in a child
process with the checkout's ``src/`` on ``PYTHONPATH`` and at most ``nproc``
BLAS threads. Inputs come from ``--seed``. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it makes one traced pass, checks it
and prints the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A
full record, with provenance and every check, goes to ``bench/out/results``.
``--scale tiny`` runs the same code paths on a toy world (for the tests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracing import OWN_SPANS, Tracer, read_spans, wrapped_call_cost_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("cli-chain-d128", "sweep-domain-d512", "csv-logits-d128")
METHODS = ("msp", "ebm", "mah")
DEFAULT_SEED = 42

#: World parameters shared by every workload.
WORLD = {"class_separation": 3.0, "within_class_sigma": 1.0, "ood_distance": 1.0}

#: Sizes; strings are oodgate's DATASET_SIZE_PRESETS names.
SCALES = {
    "paper": {
        "classes": 142, "dim": 128, "pool_per_class": 620, "fit_per_class": 411,
        "n_id": "imagenet", "n_ood_cli": "ood-insect", "n_ood_csv": "human-face",
        "sweep_dim": 512, "sweep_per_class": 400, "sweep_per_side": 1000,
    },
    "tiny": {
        "classes": 5, "dim": 8, "pool_per_class": 120, "fit_per_class": 60,
        "n_id": 70, "n_ood_cli": 120, "n_ood_csv": 40,
        "sweep_dim": 8, "sweep_per_class": 40, "sweep_per_side": 30,
    },
}

#: sha256 of the sweep's rows.jsonl at DEFAULT_SEED, recorded from the seed
#: code, which is the reference for these bytes.
SWEEP_DIGESTS = {
    "paper": "0b73c0d7a333b59c6820205d37eef6d139e55edf1a1ce89f3a09c2a376171fd9",
    "tiny": "4378ddb4c241580ddc189b34b45cd836344478ef9549b6b5c16f1fa735c5b445",
}

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"cli-chain-d128": 3, "csv-logits-d128": 3, "sweep-domain-d512": 5}
#: Every child is killed once the run has taken this long.
RUN_BUDGET_S = 170.0
#: Time kept free after the last pass for the output checks.
CHECK_RESERVE_S = 20.0
#: Largest peak RSS the runner may reach. A child reports its parent's peak
#: RSS as its own when that is larger, so a bigger runner would hide the
#: stages' own figures.
LEAN_LIMIT_MB = 48.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stages": "count",
    "data.read_feature_table.oodf_s": "s",
    "data.read_feature_table.csv_s": "s",
    "data.write_feature_table.csv_s": "s",
    "data.read_feature_table.csv_mb_per_s": "MB/s",
    "data.write_feature_table.csv_mb_per_s": "MB/s",
    "data.FeatureTable.init_s": "s",
    "detectors.score_mahalanobis_s": "s",
    "detectors.score_mahalanobis.rows_per_s": "rows/s",
    "detectors.score_mahalanobis.calls": "count",
    "detectors.fit_mahalanobis_s": "s",
    "detectors.save_model_s": "s",
    "detectors.load_model_s": "s",
    "detectors.score_msp_s": "s",
    "detectors.score_energy_s": "s",
    "detectors.write_scores_s": "s",
    "detectors.read_scores_s": "s",
    "detectors.score_table.calls": "count",
    "experiments.run_sweep_s": "s",
    "experiments.self_s": "s",
    "synthetic.generate_world_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.roc_curve_s": "s",
    "metrics.roc_curve.calls": "count",
    "metrics.calibrate_threshold_s": "s",
    "svg.roc_svg_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
    "trace.spans": "count",
}

#: Span names of the runner's own spans around child processes.
STAGE_SPAN = {"cli": "cli.stage", "export": "bench.export"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    """One finished child process."""

    rc: int
    start: float
    end: float
    cpu_s: float
    peak_rss_mb: float
    log: Path

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def tail(self, lines: int = 5) -> str:
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])


@dataclass(frozen=True)
class Op:
    """One operation: a CLI stage or one CSV export, run as a child process."""

    id: str
    kind: str  # "cli" or "export"
    args: tuple
    outputs: tuple


@dataclass
class Pass:
    """One pass of a workload, with the operations that failed and why."""

    dir: Path
    ops: list
    outputs: dict = field(default_factory=dict)  # file name -> op id
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stages: list = field(default_factory=list)
    failures: dict = field(default_factory=lambda: defaultdict(list))
    checks: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def fail(self, op: str, reason: str) -> None:
        self.failures[op].append(reason)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: int
    trace: bool
    scale: str
    work: Path
    env: dict
    deadline: float

    def spawn(self, argv: list, log: Path, extra_env: dict | None = None) -> Proc:
        """Run a child to completion; its CPU time and peak RSS come from wait4."""
        env = dict(self.env, **(extra_env or {}))
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, start, end, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, log)

    def worker(self, *args, log: Path, extra_env: dict | None = None) -> Proc:
        return self.spawn([sys.executable, BENCH / "worker.py", *args], log, extra_env)


def child_env(nproc: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("BENCH_", "OODGATE_"))}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over src/**/*.py, so a checkout without git still names its code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(run: Run, nproc: int) -> dict:
    out = run.work / "probe.json"
    proc = run.worker("probe", out, log=run.work / "probe.log")
    if proc.rc != 0:
        raise BenchError(f"cannot import oodgate from {SRC}: {proc.tail()}")
    info = json.loads(out.read_text(encoding="utf-8"))
    info.update(
        git_sha=_git_sha(), source_sha256=_source_digest(), nproc=nproc,
        blas_threads_requested=nproc, platform=platform.platform(),
        workload=run.workload, seed=run.seed, scale=run.scale, seconds=run.seconds,
        trace=run.trace,
    )
    return info


# ---------------------------------------------------------------------------
# operations of the two CLI workloads


def _score_pair(out: Path, method: str) -> tuple:
    return ("--id-scores", out / f"id_{method}.csv", "--ood-scores", out / f"ood_{method}.csv",
            "--method", method)


def cli_chain_ops(inputs: Path, out: Path) -> list:
    model = out / "model.oodm"
    ops = [Op("fit", "cli", ("fit", "--input", inputs / "fit.oodf", "--out", model),
              ("model.oodm",))]
    for method in METHODS:
        extra = ("--model", model) if method == "mah" else ()
        for split in ("id", "ood"):
            name = f"{split}_{method}.csv"
            ops.append(Op(f"score-{method}-{split}", "cli",
                          ("score", "--input", inputs / f"{split}.oodf", "--method", method,
                           *extra, "--out", out / name), (name,)))
    for method in METHODS:
        name = f"report_{method}.json"
        ops.append(Op(f"eval-{method}", "cli",
                      ("eval", *_score_pair(out, method), "--out", out / name), (name,)))
    return ops


def csv_logits_ops(inputs: Path, out: Path) -> list:
    ops = [Op(f"export-{split}", "export", (inputs / f"{split}.oodf", out / f"{split}.csv"),
              (f"{split}.csv",)) for split in ("id", "ood")]
    for method in ("msp", "ebm"):
        for split in ("id", "ood"):
            name = f"{split}_{method}.csv"
            ops.append(Op(f"score-{method}-{split}", "cli",
                          ("score", "--input", out / f"{split}.csv", "--method", method,
                           "--out", out / name), (name,)))
    for method in ("msp", "ebm"):
        report, svg = f"report_{method}.json", f"roc_{method}.svg"
        ops.append(Op(f"eval-{method}", "cli",
                      ("eval", *_score_pair(out, method), "--out", out / report,
                       "--svg", out / svg), (report, svg)))
    for method in ("msp", "ebm"):
        name = f"calibrate_{method}.json"
        ops.append(Op(f"calibrate-{method}", "cli",
                      ("calibrate", *_score_pair(out, method), "--criterion", "fpr-at-tpr",
                       "--out", out / name), (name,)))
    return ops


OPS = {"cli-chain-d128": cli_chain_ops, "csv-logits-d128": csv_logits_ops}


def _argv(op: Op, traced: bool) -> list:
    if op.kind == "export":
        return [sys.executable, BENCH / "worker.py", "export", *op.args]
    head = [BENCH / "launch.py"] if traced else ["-m", "oodgate.cli"]
    return [sys.executable, *head, *op.args]


def process_pass(run: Run, out: Path, traced: bool) -> Pass:
    """Run the workload's operations one after another, each in its own process."""
    out.mkdir(parents=True)
    ops = OPS[run.workload](run.work / "inputs", out)
    result = Pass(out, [op.id for op in ops],
                  {name: op.id for op in ops for name in op.outputs})
    tracer = Tracer(f"{run.workload}:{run.seed}:traced", out_dir=out / "spans") if traced else None
    if tracer is not None:
        (out / "spans").mkdir()
    start = time.perf_counter()
    for op in ops:
        sid = tracer.new_id() if tracer else None
        proc = run.spawn(_argv(op, traced), out / f"{op.id}.log",
                         tracer.child_env(sid) if tracer else None)
        if tracer is not None:
            tracer.record(sid, STAGE_SPAN[op.kind], None, proc.start, proc.end, {"op": op.id})
        result.cpu_s += proc.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, proc.peak_rss_mb)
        result.stages.append({"op": op.id, "rc": proc.rc, "wall_s": proc.wall_s,
                              "cpu_s": proc.cpu_s, "peak_rss_mb": proc.peak_rss_mb})
        if proc.rc != 0:
            result.fail(op.id, f"exit code {proc.rc}: {proc.tail()}")
    result.wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump()
        result.spans = read_spans(out / "spans")
    return result


def check_process_pass(run: Run, result: Pass) -> None:
    """Run the output checks of a CLI pass in a child; failures mark their op."""
    path = result.dir / "checks.json"
    proc = run.worker("check", run.workload, run.work / "inputs", result.dir, path,
                      log=result.dir / "checks.log")
    if proc.rc != 0 or not path.exists():
        for op in result.ops:
            result.fail(op, f"output checker failed (exit {proc.rc}): {proc.tail()}")
        return
    result.checks = json.loads(path.read_text(encoding="utf-8"))
    for check in result.checks:
        if not check["ok"]:
            result.fail(check["op"], f"{check['check']}: {check['detail']}")


# ---------------------------------------------------------------------------
# the sweep workload


def sweep_pass(run: Run, out: Path, traced: bool, with_checks: bool) -> Pass:
    """One fresh interpreter making one timed run_sweep call."""
    out.mkdir(parents=True)
    result = Pass(out, ["sweep"], {"rows.jsonl": "sweep"})
    extra, tracer = None, None
    if traced:
        (out / "spans").mkdir()
        tracer = Tracer(f"{run.workload}:{run.seed}:traced", out_dir=out / "spans")
        extra = tracer.child_env("")
    proc = run.worker("sweep", run.seed, run.scale, out, *(["--checks"] if with_checks else []),
                      log=out / "sweep.log", extra_env=extra)
    timing_path = out / "timing.json"
    timing = json.loads(timing_path.read_text(encoding="utf-8")) if timing_path.exists() else {}
    result.wall_s = timing.get("wall_s", proc.wall_s)
    result.cpu_s = timing.get("cpu_s", proc.cpu_s)
    result.peak_rss_mb = timing.get("peak_rss_mb", proc.peak_rss_mb)
    result.stages.append({"op": "sweep", "rc": proc.rc, "process_wall_s": proc.wall_s,
                          **timing})
    if proc.rc != 0:
        result.fail("sweep", f"exit code {proc.rc}: {timing.get('error') or proc.tail()}")
    check_sweep_digest(run, result)
    if with_checks:
        checks_path = out / "checks.json"
        if not checks_path.exists():
            result.fail("sweep", "sweep checks did not run")
        else:
            result.checks = json.loads(checks_path.read_text(encoding="utf-8"))
            for check in result.checks:
                if not check["ok"]:
                    result.fail("sweep", f"{check['check']}: {check['detail']}")
    if tracer is not None:
        result.spans = read_spans(out / "spans")
    return result


def check_sweep_digest(run: Run, result: Pass) -> None:
    """At the default seed, rows.jsonl must be the reference bytes."""
    expected = SWEEP_DIGESTS[run.scale] if run.seed == DEFAULT_SEED else None
    rows = result.dir / "rows.jsonl"
    if expected is not None and rows.exists() and _file_digest(rows) != expected:
        result.fail("sweep", "rows.jsonl differs from the digest recorded from the seed code")


# ---------------------------------------------------------------------------
# set-up


def run_setup(run: Run) -> tuple[list, list]:
    """Build the inputs SETUP_REPEATS times (once, traced, with --trace 1).

    Returns the set-up wall times and the spans of a traced set-up. For the
    sweep, set-up is a fresh interpreter importing oodgate: the sweep call
    generates its own world.
    """
    repeats = 1 if run.trace else SETUP_REPEATS[run.workload]
    walls, spans = [], []
    for i in range(repeats):
        log = run.work / f"setup{i}.log"
        if run.workload == "sweep-domain-d512":
            proc = run.spawn([sys.executable, "-c", "import oodgate"], log)
        else:
            inputs = run.work / "inputs"
            shutil.rmtree(inputs, ignore_errors=True)
            extra = None
            if run.trace:
                (run.work / "setup-spans").mkdir()
                tracer = Tracer(f"{run.workload}:{run.seed}:setup", out_dir=run.work / "setup-spans")
                extra = tracer.child_env("")
            proc = run.worker("setup", run.workload, run.seed, run.scale, inputs,
                              log=log, extra_env=extra)
        if proc.rc != 0:
            raise BenchError(f"set-up failed (exit {proc.rc}): {proc.tail()}")
        walls.append(proc.wall_s)
    if run.trace and run.workload != "sweep-domain-d512":
        spans = read_spans(run.work / "setup-spans")
    return walls, spans


# ---------------------------------------------------------------------------
# comparison, metrics and the result


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def compare_outputs(first: Pass, other: Pass) -> None:
    """Two passes over the same inputs must write byte-identical files."""
    for name, op in first.outputs.items():
        a, b = first.dir / name, other.dir / name
        if a.exists() and b.exists() and _file_digest(a) != _file_digest(b):
            other.fail(op, f"{name} differs from the first pass")


def runner_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def lean_failures() -> list:
    peak = runner_peak_rss_mb()
    if peak > LEAN_LIMIT_MB:
        return [f"runner peak RSS {peak:.1f} MB exceeds {LEAN_LIMIT_MB:g} MB, so child "
                "peak-RSS figures may be the runner's"]
    return []


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def span_table(spans: list) -> dict:
    """Per span name: total seconds, self seconds, calls, rows and bytes."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] += _duration(span)
    table = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0, "bytes": 0})
    for span in spans:
        entry = table[span["name"]]
        entry["total_s"] += _duration(span)
        entry["self_s"] += _duration(span) - covered[span["id"]]
        entry["calls"] += 1
        entry["rows"] += span.get("rows", 0)
        entry["bytes"] += span.get("bytes", 0)
    return dict(table)


def tracing_overhead_s(table: dict, call_cost_s: float) -> float:
    """What tracing added to the traced pass: the measured cost of one
    wrapped call times the wrapped calls, plus the time spent instrumenting."""
    wrapped = sum(entry["calls"] for name, entry in table.items() if name not in OWN_SPANS)
    return call_cost_s * wrapped + table.get("trace.instrument", {}).get("total_s", 0.0)


def layer_metrics(table: dict, traced: Pass, call_cost_s: float) -> dict:
    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def rate(name, key, scale=1.0):
        busy = get(name, "total_s")
        return get(name, key) / scale / busy if busy > 0 else 0.0

    top = sum(_duration(s) for s in traced.spans if s["parent"] is None)
    values = {
        "cli.import_s": get("cli.import", "total_s"),
        "cli.self_s": get("cli.stage", "self_s"),
        "cli.stages": get("cli.stage", "calls"),
        "data.read_feature_table.csv_mb_per_s": rate("data.read_feature_table.csv", "bytes", 1e6),
        "data.write_feature_table.csv_mb_per_s": rate("data.write_feature_table.csv", "bytes", 1e6),
        "detectors.score_mahalanobis.rows_per_s": rate("detectors.score_mahalanobis", "rows"),
        "experiments.self_s": get("experiments.run_sweep", "self_s"),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": tracing_overhead_s(span_table(traced.spans), call_cost_s),
        "trace.span_coverage": top / traced.wall_s if traced.wall_s > 0 else 0.0,
        "trace.spans": sum(entry["calls"] for entry in table.values()),
    }
    for name in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = get(name[: -len(".calls")], "calls")
        else:
            values[name] = get(name[: -len("_s")], "total_s")
    return {name: value if PER_LAYER[name] == "count" else float(value)
            for name, value in values.items()}


def execute(run: Run, nproc: int) -> dict:
    record = {"provenance": provenance(run, nproc)}
    setup_walls, setup_spans = run_setup(run)
    sweep = run.workload == "sweep-domain-d512"

    def one_pass(name: str, traced: bool, with_checks: bool) -> Pass:
        out = run.work / name
        if sweep:
            return sweep_pass(run, out, traced, with_checks)
        return process_pass(run, out, traced)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(f"pass{len(passes)}", run.trace, with_checks=not passes))
        now = time.perf_counter()
        per_pass = (now - start) / len(passes)
        if run.trace or now - start >= run.seconds:
            break
        if now + 1.5 * per_pass + CHECK_RESERVE_S > run.deadline:
            break
    if not sweep:
        check_process_pass(run, passes[0])
    for other in passes[1:]:
        compare_outputs(passes[0], other)

    failures = [{"pass": p.dir.name, "op": op, "reasons": reasons}
                for p in passes for op, reasons in p.failures.items()]
    invalid = lean_failures()
    record.update(
        attempted=sum(len(p.ops) for p in passes),
        failed=len(failures),
        failures=failures,
        measurement_failures=invalid,
        runner_peak_rss_mb=runner_peak_rss_mb(),
        checks=passes[0].checks,
        setup_s_samples=setup_walls,
        passes=[{"pass": p.dir.name, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                 "peak_rss_mb": p.peak_rss_mb, "stages": p.stages} for p in passes],
    )
    record["correct"] = not failures and not invalid
    if run.trace:
        traced = passes[0]
        table = span_table(traced.spans + [s for s in setup_spans
                                           if s["name"] == "synthetic.generate_world"])
        record["span_table"] = table
        call_cost_s = wrapped_call_cost_s()
        record["wrapped_call_cost_s"] = call_cost_s
        values = layer_metrics(table, traced, call_cost_s)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "setup_s": statistics.median(setup_walls),
        }
        units = END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10,
                        help="keep making passes until this much time has been measured "
                             "(at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oodgate" / "__init__.py").is_file():
        print(f"error: no oodgate package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work,
              child_env(nproc), time.perf_counter() + RUN_BUDGET_S)
    try:
        record = execute(run, nproc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure['pass']}/{failure['op']}: {'; '.join(failure['reasons'])}")
    for problem in record["measurement_failures"]:
        print(f"INVALID {problem}")
    for p in record["passes"]:
        print(f"{p['pass']}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB")
    print("record", path.relative_to(ROOT))
    print("provenance", json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
