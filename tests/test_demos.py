"""Smoke test: every narrative demo and the README's examples run to completion.

Demo 03 runs all three sweep axes through ``run_sweep``; demo 02 writes its
artifacts under the working directory, so each demo runs in ``tmp_path``.
"""

import re
import runpy
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from oodgate import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Each ``oodgate`` line of the README's CLI pipeline exits 0, and its
    Python quickstart runs."""
    blocks = re.findall(r"```(\w+)\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [
        line
        for lang, body in blocks if lang == "sh"
        for line in body.replace("\\\n", " ").splitlines() if line.startswith("oodgate ")
    ]
    (quickstart,) = [body for lang, body in blocks if lang == "python"]
    monkeypatch.chdir(tmp_path)
    assert [line.split()[1] for line in lines] == [
        "synth", "fit", "score", "score", "eval", "calibrate", "sweep",
    ]
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert ET.parse("roc.svg").getroot().tag == "{http://www.w3.org/2000/svg}svg"
    exec(compile(quickstart, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
