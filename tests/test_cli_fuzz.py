"""CLI fuzz: every malformed input the CLI reads ends in exit 2, 3 or 4 with
one ``error:`` line on stderr, never a traceback, exit 1 or a warning.

Each test starts from a valid file, breaks it in a way that makes it invalid
for sure, and runs one command on it in-process.
"""

import contextlib
import io
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oodgate import FeatureTable, write_feature_table
from oodgate.cli import main

# A 4-row table: d=2 features, c=3 logits, labels in [0, 3).
TABLE = FeatureTable(
    np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.0]]),
    np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0], [2.0, 1.0, 0.0]]),
    np.array([0, 1, 2, 0]),
)
N, D, C = 4, 2, 3
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def run_cli(*argv) -> tuple[int, str]:
    """Run ``oodgate *argv``, check the error contract, and return the exit
    code and the error line."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    err = stderr.getvalue()
    assert code in (2, 3, 4), (code, err)
    assert err.endswith("\n") and err.count("\n") == 1 and "error: " in err, err
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    return code, err


def prepared(tmp: Path) -> tuple[str, str]:
    """Write the valid table and a model fitted on it; return their paths."""
    table, model = str(tmp / "t.oodf"), str(tmp / "m.oodm")
    write_feature_table(TABLE, table)
    assert main(["fit", "--input", table, "--out", model]) == 0
    return table, model


def patched(raw: bytes, fmt: str, offset: int, value) -> bytes:
    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def resized(raw: bytes, cut: int, extra: bytes) -> bytes:
    """``raw`` shortened by ``cut`` bytes, or grown by ``extra`` when cut is 0."""
    return raw[: len(raw) - cut] if cut else raw + extra


RESIZE = st.tuples(st.integers(0, 40), st.binary(min_size=1, max_size=8))


# ---------------------------------------------------------------------------
# OODF tables: header <4sIQQQB7x (magic, version, n, d, c, dtype code), then
# n*d features and n*c logits as f4 and n labels as i4


oodf_breaks = st.one_of(
    st.tuples(st.just("<4s"), st.just(0), st.binary(min_size=4, max_size=4).filter(
        lambda b: b != b"OODF")),
    st.tuples(st.just("<I"), st.just(4), st.integers(0, 2**32 - 1).filter(lambda v: v != 1)),
    # n, d and c each appear alone in the payload size, so any other value
    # contradicts it
    st.tuples(st.just("<Q"), st.just(8), st.integers(0, 2**64 - 1).filter(lambda v: v != N)),
    st.tuples(st.just("<Q"), st.just(16), st.integers(0, 2**64 - 1).filter(lambda v: v != D)),
    st.tuples(st.just("<Q"), st.just(24), st.integers(0, 2**64 - 1).filter(lambda v: v != C)),
    st.tuples(st.just("<B"), st.just(32), st.integers(1, 255)),
    st.tuples(st.just("<f"), st.integers(0, N * (D + C) - 1).map(lambda i: 40 + 4 * i),
              NON_FINITE),
    st.tuples(st.just("<i"), st.integers(0, N - 1).map(lambda i: 40 + 4 * N * (D + C) + 4 * i),
              st.integers(-(2**31), -2) | st.integers(C, 2**31 - 1)),
)


def every_stage_fails_alike(tmp: Path, raw: bytes, fmt: str = "oodf") -> str:
    """Write the table bytes ``raw`` in ``fmt`` and read them with ``fit``, mah
    ``score`` (with the prepared model), msp ``score`` and ebm ``score``, each
    keeping only the array it reads; all four must give the same exit code
    and error line, which is returned."""
    bad = tmp / f"bad.{fmt}"
    bad.write_bytes(raw)
    table = ("--input", bad, "--format", fmt)
    outcomes = {
        run_cli("fit", *table, "--out", tmp / "out.oodm"),
        run_cli("score", *table, "--method", "mah", "--model", tmp / "m.oodm",
                "--out", tmp / "s.csv"),
        run_cli("score", *table, "--method", "msp", "--out", tmp / "s.csv"),
        run_cli("score", *table, "--method", "ebm", "--out", tmp / "s.csv"),
    }
    assert len(outcomes) == 1, outcomes
    return outcomes.pop()[1]


@given(brk=oodf_breaks | RESIZE)
def test_fuzz_oodf_table(brk):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table, _ = prepared(tmp)
        raw = Path(table).read_bytes()
        raw = resized(raw, *brk) if len(brk) == 2 else patched(raw, *brk)
        every_stage_fails_alike(tmp, raw)


def oodf(features, logits, labels) -> bytes:
    """The OODF bytes of the arrays as given, none of them checked."""
    (n, d), c = features.shape, logits.shape[1]
    return b"".join([struct.pack("<4sIQQQB7x", b"OODF", 1, n, d, c, 0),
                     features.astype("<f4").tobytes(), logits.astype("<f4").tobytes(),
                     labels.astype("<i4").tobytes()])


def with_value(arr, row, col, value):
    out = arr.copy()
    out[row, col] = value
    return out


# name: the arrays of an OODF file, bytes cut from its end, and the error
SHORT = 40 + 4 * N * (D + C + 1) - 1
BROKEN_TABLES = {
    "non-finite-features-and-logits": (
        (with_value(TABLE.features, 2, 1, np.nan), with_value(TABLE.logits, 0, 0, np.inf),
         TABLE.labels), 0, "non-finite value in features at row 2"),
    "non-finite-logits": ((TABLE.features, with_value(TABLE.logits, 3, 2, -np.inf), TABLE.labels),
                          0, "non-finite value in logits at row 3"),
    "label-at-c": ((TABLE.features, TABLE.logits, np.array([0, 1, 3, 0])), 0,
                   "label out of range at row 2: 3 >= 3"),
    "one-logit": ((TABLE.features, TABLE.logits[:, :1], TABLE.labels), 0,
                  "logits need at least 2 classes"),
    "one-byte-short": ((TABLE.features, TABLE.logits, TABLE.labels), 1,
                       f"payload is {SHORT} bytes, format implies {SHORT + 1}"),
}


@pytest.mark.parametrize("case", BROKEN_TABLES)
def test_oodf_breaks_give_each_stage_one_line(case, block_rows):
    """Each stage gives today's error line, reading 2-row blocks, so a bad
    value's row is counted across blocks: the features' line before the
    logits', a label out of range of c, c = 1, a file one byte short."""
    block_rows(2, D)  # logits, c = 3 wide, get 2-row blocks too
    arrays, cut, message = BROKEN_TABLES[case]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        prepared(tmp)
        raw = oodf(*arrays)
        line = every_stage_fails_alike(tmp, raw[: len(raw) - cut])
        assert line == f"error: {tmp / 'bad.oodf'}: {message}\n"


# ---------------------------------------------------------------------------
# CSV tables: a label,f0..,l0.. header, then one label, D features and C logits
# a row; each break below makes the table invalid on its own


csv_breaks = st.one_of(
    # a feature or logit that is not finite in binary32 or does not parse
    st.tuples(st.just("value"), st.integers(0, N - 1), st.integers(1, D + C),
              st.sampled_from(["nan", "1e40", "1_0", "0x10", "\u0661"])),
    st.tuples(st.just("short"), st.integers(0, N - 1), st.integers(1, D + C)),
    # a label that is not an integer, is c or is negative
    st.tuples(st.just("value"), st.integers(0, N - 1), st.just(0),
              st.sampled_from(["1.5", str(C), "-2"])),
    st.just(("one-logit",)),
    st.tuples(st.just("header"), st.sampled_from([
        "label,f0,f1,l0,l2", "label,f0,x1,l0,l1,l2", "f0,f1,l0,l1,l2,label",
        "label,l0,l1,l2,f0,f1", "label,f0,f1,l0,l1,l2,l3"])),
)


def broken_csv(rows: list[list[str]], breaks) -> bytes:
    """The CSV of the header and data ``rows`` (lists of fields) after every
    break: fields replaced, then rows cut to their first fields, then every
    logit column after the first dropped, then the header replaced."""
    rows = [row[:] for row in rows]
    order = ["value", "short", "one-logit", "header"]
    for kind, *args in sorted(breaks, key=lambda brk: order.index(brk[0])):
        if kind == "value":
            row, col, value = args
            rows[1 + row][col] = value
        elif kind == "short":
            rows[1 + args[0]] = rows[1 + args[0]][: args[1]]
        elif kind == "one-logit":
            rows = [row[: 1 + D + 1] for row in rows]
        else:
            rows[0] = args[0].split(",")
    return "".join(",".join(row) + "\r\n" for row in rows).encode()


@given(breaks=st.lists(csv_breaks, min_size=1, max_size=3), two_row_chunks=st.booleans())
def test_fuzz_csv_table(breaks, two_row_chunks):
    """Every stage gives the line :func:`read_feature_table` raises, one or
    more breaks at a time, so the checks run in its order; with the CSV
    parsed 2 rows at a time too, so a break past the first chunk is met only
    after earlier chunks were walked, and the line is the one a read in one
    chunk gives."""
    from oodgate import TableFormat, data, read_feature_table
    from oodgate.errors import IngestionError

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if two_row_chunks:  # hypothesis refuses function-scoped fixtures such as block_rows
            mp.setattr(data, "BLOCK_BYTES", 2 * 8 * 4 * (D + C))  # _block_rows(4 * (D + C)) == 2
        tmp = Path(tmp)
        prepared(tmp)
        write_feature_table(TABLE, tmp / "t.csv", TableFormat.CSV)
        rows = [line.split(",") for line in (tmp / "t.csv").read_text().splitlines()]
        line = every_stage_fails_alike(tmp, broken_csv(rows, breaks), "csv")
        with pytest.raises(IngestionError) as exc:
            read_feature_table(tmp / "bad.csv", TableFormat.CSV)
        assert line == f"error: {exc.value}\n"
        mp.undo()
        with pytest.raises(IngestionError) as whole:
            read_feature_table(tmp / "bad.csv", TableFormat.CSV)
        assert str(whole.value) == str(exc.value)


# name: the (row, column, value) fields set in a 12-row CSV table, whether
# its last line loses two fields after a blank line, and the error
TALL = 12
BROKEN_CSVS = {
    "inf-feature-then-short-last-line": ([(0, 1, "inf")], True,
                                         f"line {TALL + 2} has {1 + D + C - 2} fields, "
                                         f"expected {1 + D + C}"),
    "inf-logit-then-late-inf-feature": ([(0, 1 + D, "inf"), (TALL - 1, 2, "inf")], False,
                                        f"non-finite value in features at row {TALL - 1}"),
    "label-at-c-then-later-inf-feature": ([(0, 0, str(C)), (7, 1, "-inf")], False,
                                          "non-finite value in features at row 7"),
}


@pytest.mark.parametrize("case", BROKEN_CSVS)
def test_csv_breaks_across_chunks_give_each_stage_one_line(case, block_rows, monkeypatch):
    """A CSV table parsed in 3 or more chunks fails as when it was parsed
    whole: a line that does not parse, cited by its line in the file (blank
    lines counted), wins over a non-finite value before it; non-finite
    features win over non-finite logits or a label out of range met first."""
    from oodgate import TableFormat, read_feature_table
    from oodgate.errors import IngestionError

    block_rows(3, 4 * (D + C))  # the CSV is parsed 3 rows at a time
    fields, short_last, message = BROKEN_CSVS[case]
    tall = FeatureTable(*(np.concatenate([a] * (TALL // N)) for a in
                          (TABLE.features, TABLE.logits, TABLE.labels)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        prepared(tmp)
        write_feature_table(tall, tmp / "t.csv", TableFormat.CSV)
        rows = [line.split(",") for line in (tmp / "t.csv").read_text().splitlines()]
        for row, col, value in fields:
            rows[1 + row][col] = value
        if short_last:
            rows[-1:] = [[""], rows[-1][:-2]]
        raw = "".join(",".join(row) + "\r\n" for row in rows).encode()
        line = every_stage_fails_alike(tmp, raw, "csv")
        assert line == f"error: {tmp / 'bad.csv'}: {message}\n"
        chunks, loadtxt = [], np.loadtxt  # count the reader's parse calls
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: chunks.append(1) or loadtxt(*a, **kw))
        with pytest.raises(IngestionError):
            read_feature_table(tmp / "bad.csv", TableFormat.CSV)
        assert len(chunks) >= 3


# ---------------------------------------------------------------------------
# OODM models: header <4sIQQd (magic, version, c, d, ridge), then c*d means and
# d*d covariance as f4 and c counts as u8


oodm_breaks = st.one_of(
    st.tuples(st.just("<4s"), st.just(0), st.binary(min_size=4, max_size=4).filter(
        lambda b: b != b"OODM")),
    st.tuples(st.just("<I"), st.just(4), st.integers(0, 2**32 - 1).filter(lambda v: v != 1)),
    st.tuples(st.just("<Q"), st.just(8), st.integers(0, 2**64 - 1).filter(lambda v: v != C)),
    st.tuples(st.just("<Q"), st.just(16), st.integers(0, 2**64 - 1).filter(lambda v: v != D)),
    st.tuples(st.just("<d"), st.just(24), NON_FINITE | st.floats(max_value=-1e-300)),
    st.tuples(st.just("<f"), st.integers(0, C * D + D * D - 1).map(lambda i: 32 + 4 * i),
              NON_FINITE),
    # a negative variance: the covariance is not positive-definite
    st.tuples(st.just("<f"), st.sampled_from([32 + 4 * C * D, 32 + 4 * (C * D + D + 1)]),
              st.floats(-1e30, -1e3)),
    st.tuples(st.just("<Q"), st.integers(0, C - 1).map(lambda i: 32 + 4 * (C * D + D * D) + 8 * i),
              st.just(0) | st.integers(2**63, 2**64 - 1)),
)


@given(brk=oodm_breaks | RESIZE)
def test_fuzz_oodm_model(brk):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _, model = prepared(tmp)
        raw = Path(model).read_bytes()
        raw = resized(raw, *brk) if len(brk) == 2 else patched(raw, *brk)
        (tmp / "bad.oodm").write_bytes(raw)
        run_cli("score", "--input", tmp / "t.oodf", "--method", "mah", "--model", tmp / "bad.oodm",
                "--out", tmp / "s.csv")


# ---------------------------------------------------------------------------
# score CSVs: an ``index,score`` header and rows, one of them broken


score_values = st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format)
bad_score_rows = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "", "x", "1_0", "0x10", "١", "1,2"]).map(
        lambda v: f"0,{v}"),
    st.sampled_from(["1", "x,1", "1.5,1", "1,2,3"]),  # a blank line is skipped
)


@given(
    rows=st.lists(score_values, max_size=6),
    bad=bad_score_rows,
    at=st.integers(0, 6),
    header=st.sampled_from(["index,score", "idx,score", "score", "index,score,x", ""]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_fuzz_score_csv(rows, bad, at, header, newline):
    lines = [f"{i},{v}" for i, v in enumerate(rows)]
    if header == "index,score":
        lines.insert(min(at, len(lines)), bad)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "bad.csv").write_text(newline.join([header, *lines]) + newline)
        (tmp / "ok.csv").write_text("index,score\n0,1.5\n1,-0.5\n")
        run_cli("eval", "--id-scores", tmp / "ok.csv", "--ood-scores", tmp / "bad.csv")


# ---------------------------------------------------------------------------
# manifests: role<TAB>format<TAB>path lines, read by ``fit --manifest``


ROLES = ["ID_TRAIN_CLASSIFIER", "ID_FIT_DETECTOR", "ID_TEST", "OOD_TEST(far)"]
FORMATS = ["BINARY_DUMP", "CSV"]
# none of these is the valid fit table read as BINARY_DUMP, so no fit entry loads
fit_entries = st.sampled_from([
    "ID_FIT_DETECTOR\tBINARY_DUMP\tmissing.oodf",
    "ID_FIT_DETECTOR\tBINARY_DUMP\t.",
    "ID_FIT_DETECTOR\tCSV\tt.oodf",
    "ID_FIT_DETECTOR\tBINARY_DUMP\tt\0.oodf",
])
other_entries = st.builds(
    "{}\t{}\t{}".format,
    st.sampled_from([r for r in ROLES if r != "ID_FIT_DETECTOR"]),
    st.sampled_from(FORMATS),
    st.sampled_from(["t.oodf", "missing.oodf", "sub/x.csv", "t\0.oodf"]),
) | st.sampled_from(["", "# name: fuzz", "# any comment"])
bad_lines = st.one_of(
    st.text(st.characters(blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
            min_size=1).filter(lambda t: t.strip() and not t.strip().startswith("#")),
    st.sampled_from(["OOD_TEST\tCSV\tt.oodf", "OOD_TEST()x\tCSV\tt.oodf", "ID_FIT\tCSV\tt.oodf",
                     "ID_TEST\tJSON\tt.oodf", "ID_TEST\tCSV", "ID_TEST\tCSV\tt.oodf\textra"]),
)


@given(
    lines=st.lists(other_entries, max_size=5),
    fits=st.lists(fit_entries, max_size=2),
    bad=st.none() | bad_lines,
    at=st.integers(0, 8),
)
def test_fuzz_manifest(lines, fits, bad, at):
    lines = lines + fits
    if bad is not None:
        lines.insert(min(at, len(lines)), bad)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        prepared(tmp)
        (tmp / "bad.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_cli("fit", "--manifest", tmp / "bad.manifest", "--out", tmp / "out.oodm")


# ---------------------------------------------------------------------------
# --config files: flat key = value lines for ``fit``, one of them broken


FIT_KEYS = {"input", "manifest", "format", "method", "ridge", "out", "verbose"}
# a later line of the same key would win over the broken one, so none sets one
good_config = st.sampled_from(["verbose = true", "verbose = false", "# comment", "  # x", ""])
bad_config = st.one_of(
    st.sampled_from([
        "ridge = nan", "ridge = inf", "ridge = -1", "ridge = abc", "ridge =",
        "format = xml", "method = foo", "method = msp", "manifest = missing.manifest",
        "manifest = a\0b", "config = other.cfg", "no equals sign",
    ]),
    st.builds("{} = {}".format,
              st.from_regex(r"[a-z][a-z_-]{0,11}", fullmatch=True).filter(
                  lambda k: k.replace("-", "_") not in FIT_KEYS),
              st.sampled_from(["1", "x", ""])),
)


@given(lines=st.lists(good_config, max_size=4), bad=bad_config, at=st.integers(0, 4))
def test_fuzz_config(lines, bad, at):
    lines.insert(min(at, len(lines)), bad)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table, _ = prepared(tmp)
        (tmp / "bad.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_cli("fit", "--input", table, "--out", tmp / "out.oodm", "--config", tmp / "bad.cfg")
