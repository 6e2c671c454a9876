"""Output files: every writer goes through ``data._output``, so each file
appears whole or not at all, FIFOs are written in place, and links are
followed and kept. Every path here is under ``tmp_path``."""

import ast
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from oodgate import FeatureTable, write_feature_table
from oodgate.cli import main
from oodgate.data import _output

SRC = Path(__file__).resolve().parents[1] / "src" / "oodgate"

#: A child that limits the size of any file it writes to 16 bytes, then runs
#: the CLI on its arguments.
LIMITED = ("import resource, sys\n"
           "resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))\n"
           "from oodgate.cli import main\n"
           "sys.exit(main(sys.argv[1:]))\n")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A c=5, d=8 world, its model, and msp scores of its ID and OOD tests."""
    root = tmp_path_factory.mktemp("inputs")
    w = root / "w"
    assert run("synth", "--classes", 5, "--dim", 8, "--out", w) == 0
    assert run("fit", "--input", w / "id2.oodf", "--out", root / "m.oodm") == 0
    for name, table in (("id", "id3"), ("ood", "ood_d2")):
        assert run("score", "--input", w / f"{table}.oodf", "--method", "msp",
                   "--out", root / f"{name}.csv") == 0
    return root


def _command(inputs, out):
    """Each writing command, as ``name -> (argv, the file it writes first)``."""
    w, pair = inputs / "w", ("--id-scores", inputs / "id.csv", "--ood-scores", inputs / "ood.csv")
    return {
        "synth": (("synth", "--classes", 5, "--dim", 8, "--out", out), "id1.oodf"),
        "fit": (("fit", "--input", w / "id2.oodf", "--out", out / "m.oodm"), "m.oodm"),
        "score": (("score", "--input", w / "id3.oodf", "--method", "msp",
                   "--out", out / "id.csv"), "id.csv"),
        "calibrate-out": (("calibrate", *pair, "--out", out / "cal.json"), "cal.json"),
        "eval-out": (("eval", *pair, "--out", out / "report.json"), "report.json"),
        "eval-svg": (("eval", *pair, "--svg", out / "roc.svg"), "roc.svg"),
        "sweep": (("sweep", "--axis", "domain-distance", "--grid", "0.5,2.0", "--classes", 4,
                   "--dim", 4, "--law", "balanced:40", "--n-per-side", 20, "--out", out),
                  "rows.jsonl"),
    }


@pytest.mark.parametrize("command", ["synth", "fit", "score", "calibrate-out", "eval-out",
                                     "eval-svg", "sweep"])
def test_a_failed_write_exits_3_and_keeps_the_old_file(inputs, tmp_path, command):
    """Under a 16-byte file-size limit each command's first write fails: it
    exits 3 with one error line, the file already at the path keeps its
    bytes, and nothing else, partial file or temporary, is left."""
    out = tmp_path / "out"
    out.mkdir()
    argv, name = _command(inputs, out)[command]
    (out / name).write_bytes(b"old bytes\n")
    done = subprocess.run([sys.executable, "-c", LIMITED, *map(str, argv)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("i/o error: ") and done.stderr.count("\n") == 1, done.stderr
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_bytes() == b"old bytes\n"


def test_synth_writes_its_manifest_last(tmp_path, capsys):
    """A world whose ``world.json`` cannot be written has no manifest."""
    (tmp_path / "w" / "world.json").mkdir(parents=True)
    assert run("synth", "--classes", 3, "--dim", 4, "--out", tmp_path / "w") == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not (tmp_path / "w" / "world.manifest").exists()
    assert (tmp_path / "w" / "id3.oodf").exists()


def test_output_writes_a_hidden_sibling_then_replaces_the_path(tmp_path):
    """While open, the file is ``.NAME.PID.THREAD.tmp``, made with the mode a
    plain ``open`` gives; a failure inside the block leaves the old file."""
    path = tmp_path / "a.txt"
    path.write_text("old")
    tmp = f".a.txt.{os.getpid()}.{threading.get_ident()}.tmp"
    with _output(path) as fh:
        fh.write("new\r\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [tmp, "a.txt"]
        assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    assert path.read_bytes() == b"new\r\n"
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    with pytest.raises(KeyError), _output(path, "wb") as fh:
        fh.write(b"partial")
        raise KeyError("failed")
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    assert path.read_bytes() == b"new\r\n"


def test_threads_writing_one_path_each_leave_it_whole(tmp_path):
    """Each thread has its own temporary, so racing writers of one path never
    mix their bytes: the path ends as one writer's whole text."""
    path, errors = tmp_path / "out.txt", []
    texts = [f"{i}\n" * 20000 for i in range(6)]

    def write(text):
        try:
            for _ in range(5):
                with _output(path) as fh:
                    fh.writelines(text[j : j + 100] for j in range(0, len(text), 100))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(text,)) for text in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert path.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _score_into(path, inputs):
    """Run ``score --out path`` while a thread reads whatever ``path`` names
    (a FIFO, through any link); return the exit code and the bytes read."""
    got = []
    reader = threading.Thread(target=lambda: got.append(Path(path).read_bytes()), daemon=True)
    reader.start()
    code = run("score", "--input", inputs / "w" / "id3.oodf", "--method", "msp", "--out", path)
    reader.join(timeout=30)
    assert not reader.is_alive()
    return code, got[0]


@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link-to-fifo"])
def test_score_writes_into_a_fifo_in_place(inputs, tmp_path, via_link):
    """A FIFO (or a link to one, the shape of ``/dev/stdout``) is written in
    place and gets the bytes a regular file gets; the link and the FIFO stay."""
    fifo, link = tmp_path / "fifo", tmp_path / "link"
    os.mkfifo(fifo)
    if via_link:
        link.symlink_to(fifo)
    code, got = _score_into(link if via_link else fifo, inputs)
    assert code == 0
    assert got == (inputs / "id.csv").read_bytes()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert link.is_symlink() == via_link
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"] + ["link"] * via_link


def test_output_through_a_link_replaces_its_target_and_keeps_the_link(inputs, tmp_path):
    """The temporary goes beside the link's target, in another directory."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    target, link = tmp_path / "b" / "id.csv", tmp_path / "a" / "id.csv"
    target.write_text("old")
    link.symlink_to(os.path.relpath(target, link.parent))
    assert run("score", "--input", inputs / "w" / "id3.oodf", "--method", "msp",
               "--out", link) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == (inputs / "id.csv").read_bytes()
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["id.csv"]
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["id.csv"]


def test_oodf_write_copies_no_array(tmp_path, traced_peak):
    """Each array is written from its own buffer: writing an 8 MB table
    allocates well under one of its arrays."""
    rng = np.random.default_rng(0)
    table = FeatureTable(rng.standard_normal((20000, 100), np.float32), None,
                         rng.integers(0, 4, 20000))
    path = tmp_path / "t.oodf"
    _, peak = traced_peak(lambda: write_feature_table(table, path))
    assert peak < 1 << 20, peak
    assert path.stat().st_size == 40 + table.features.nbytes + table.labels.nbytes


def _writes(tree: ast.AST, skip: set) -> list[str]:
    """Each call in ``tree``, outside the nodes of ``skip``, that opens a file
    to write (a mode with w, a, x or +, or one not written out) or writes one
    through ``write_text``, ``write_bytes`` or ``tofile``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes", "tofile"):
            found.append(f"{node.lineno}: {name}")
        elif name in ("open", "fdopen"):  # builtin, io and os take the mode second, Path first
            module = isinstance(func, ast.Name) or getattr(func.value, "id", "") in ("io", "os")
            args = node.args[1:] if module else node.args
            mode = [k.value for k in node.keywords if k.arg == "mode"] or args[:1]
            if mode and not (isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str)
                             and not set(mode[0].value) & set("wax+")):
                found.append(f"{node.lineno}: {name}")
    return found


def test_every_output_file_is_written_by_the_one_helper():
    """No module opens a file to write outside ``data._output``; the scan
    finds the helper's own two opens, so it sees them."""
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = [f for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == "_output"]
        skip = {id(node) for f in helpers for node in ast.walk(f)}
        assert not _writes(tree, skip), (path.name, _writes(tree, skip))
        if path.name == "data.py":
            assert len(helpers) == 1 and len(_writes(helpers[0], set())) == 2
        else:
            assert not helpers, path.name
