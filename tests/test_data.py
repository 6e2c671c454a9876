"""Tables, OODF/CSV serialization, manifests, and the three-way split."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oodgate import (
    UNLABELED,
    DatasetManifest,
    FeatureTable,
    IngestionError,
    ManifestEntry,
    Role,
    ScoreSet,
    SplitPolicy,
    TableFormat,
    ValidationError,
    read_feature_table,
    read_scores,
    split_id_data,
    write_feature_table,
    write_scores,
)
from oodgate.data import _class_rows


def make_table(rng, n=20, d=3, c=4, labeled=True):
    labels = rng.integers(0, c, n) if labeled else np.full(n, UNLABELED)
    return FeatureTable(rng.normal(size=(n, d)), rng.normal(size=(n, c)), labels)


# ---------------------------------------------------------------------------
# construction / validation


def test_rejects_empty_table():
    with pytest.raises(ValidationError):
        FeatureTable(np.zeros((0, 2)), None, np.zeros(0))


def test_rejects_nan_feature_naming_row():
    feats = np.zeros((10, 2))
    feats[7, 1] = np.nan
    with pytest.raises(ValidationError, match="row 7"):
        FeatureTable(feats, None, np.zeros(10))


def test_rejects_float32_overflow():
    feats = np.full((2, 2), 1e39)  # becomes inf in binary32
    with pytest.raises(ValidationError, match="non-finite"):
        FeatureTable(feats, None, np.zeros(2))


def test_rejects_label_out_of_range():
    with pytest.raises(ValidationError, match="out of range"):
        FeatureTable(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 1, 2]))


def test_rejects_single_logit_column():
    with pytest.raises(ValidationError):
        FeatureTable(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3))


def test_sentinel_labels_allowed_and_flagged():
    t = FeatureTable(np.zeros((3, 2)), None, np.array([UNLABELED] * 3))
    assert not t.is_labeled
    assert t.c == 0


def test_table_is_immutable():
    t = FeatureTable(np.ones((2, 2)), None, np.zeros(2))
    with pytest.raises((ValueError, AttributeError)):
        t.features[0, 0] = 5.0


# ---------------------------------------------------------------------------
# OODF binary dump


def test_binary_round_trip_exact(rng, tmp_path):
    t = make_table(rng)
    path = tmp_path / "t.oodf"
    write_feature_table(t, path)
    assert read_feature_table(path) == t


def test_binary_round_trip_without_logits(rng, tmp_path):
    t = FeatureTable(rng.normal(size=(5, 2)), None, np.full(5, UNLABELED))
    path = tmp_path / "t.oodf"
    write_feature_table(t, path)
    back = read_feature_table(path)
    assert back == t and back.logits is None


def test_file_length_matches_format(tmp_path):
    # header is 40 bytes; each matrix contributes 4 bytes per value
    t = FeatureTable(np.array([[0.5]]), None, np.array([0]))
    path = tmp_path / "one.oodf"
    write_feature_table(t, path)
    assert path.stat().st_size == 40 + 4 + 4  # features + labels

    t2 = FeatureTable(np.zeros((2, 3)), np.zeros((2, 2)), np.array([0, 1]))
    path2 = tmp_path / "two.oodf"
    write_feature_table(t2, path2)
    assert path2.stat().st_size == 40 + 2 * 3 * 4 + 2 * 2 * 4 + 2 * 4


def test_binary_nan_cites_row(tmp_path):
    # hand-crafted dump with a NaN in feature row 7
    n, d = 10, 2
    feats = np.zeros((n, d), dtype="<f4")
    feats[7, 0] = np.nan
    payload = (
        struct.pack("<4sIQQQB7x", b"OODF", 1, n, d, 0, 0)
        + feats.tobytes()
        + np.zeros(n, dtype="<i4").tobytes()
    )
    path = tmp_path / "bad.oodf"
    path.write_bytes(payload)
    with pytest.raises(IngestionError, match="row 7"):
        read_feature_table(path)


def test_binary_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "junk.oodf"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(IngestionError, match="magic"):
        read_feature_table(path)
    path.write_bytes(b"OO")
    with pytest.raises(IngestionError, match="truncated"):
        read_feature_table(path)


def test_binary_size_mismatch(tmp_path, rng):
    t = make_table(rng, n=4)
    path = tmp_path / "t.oodf"
    write_feature_table(t, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IngestionError, match="bytes"):
        read_feature_table(path)


@pytest.mark.parametrize("kind", ["oodf", "oodm"])
@pytest.mark.parametrize("fault", ["truncated", "magic", "version", "length"])
def test_binary_containers_report_faults_alike(tmp_path, rng, kind, fault):
    """OODF tables and OODM models share one codec, so each container fault
    reads the same, naming the file once."""
    from oodgate import fit_mahalanobis, load_model, save_model

    path = tmp_path / f"x.{kind}"
    if kind == "oodf":
        write_feature_table(make_table(rng), path)
        read = read_feature_table
    else:
        save_model(fit_mahalanobis(make_table(rng, n=30, d=3, c=3)), path)
        read = load_model
    raw = bytearray(path.read_bytes())
    if fault == "truncated":
        raw, message = raw[:10], "truncated header (10 bytes)"
    elif fault == "magic":
        raw[:4], message = b"XXXX", "bad magic b'XXXX'"
    elif fault == "version":
        struct.pack_into("<I", raw, 4, 2)
        message = "unsupported version 2"
    else:
        message = f"payload is {len(raw) + 1} bytes, format implies {len(raw)}"
        raw += b"\0"
    path.write_bytes(bytes(raw))
    with pytest.raises(IngestionError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: {message}"


def test_binary_arrays_are_freed_one_by_one(tmp_path, rng, traced_peak):
    """Each array of an OODF table or OODM model is read into a buffer of its
    own: dropping a table's logits frees their bytes, and no two arrays of a
    model are views of one buffer."""
    import tracemalloc

    from oodgate import fit_mahalanobis, save_model
    from oodgate.data import _read_packed
    from oodgate.detectors import _MODEL_HEADER, _MODEL_MAGIC, _model_layout

    t = make_table(rng, n=2000, d=8, c=64)
    path, logit_bytes = tmp_path / "t.oodf", t.logits.nbytes
    write_feature_table(t, path)

    def read_and_drop_logits():
        table = read_feature_table(path)
        logits, table = table.logits, FeatureTable(table.features, None, table.labels)
        held = tracemalloc.get_traced_memory()[0]
        del logits
        return held - tracemalloc.get_traced_memory()[0]

    freed = traced_peak(read_and_drop_logits)[0]
    assert freed >= logit_bytes, freed

    save_model(fit_mahalanobis(make_table(rng, n=30, d=3, c=3)), tmp_path / "m.oodm")
    _, arrays = _read_packed(tmp_path / "m.oodm", _MODEL_MAGIC, _MODEL_HEADER, _model_layout)
    owners = set()
    for arr in arrays:  # disjoint views of one buffer do not overlap, so find each owner
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners.add(id(arr if arr.base is None else arr.base))
    assert len(owners) == len(arrays)


@pytest.mark.parametrize("d, c", [(2**64 - 1, 0), (3, 2**64 - 1), (2**62, 2**62)])
def test_binary_empty_table_with_huge_width_rejected(tmp_path, d, c):
    """n = 0 implies a 40-byte file whatever d and c are; a dimension numpy
    cannot hold is an error, not a crash."""
    path = tmp_path / "empty.oodf"
    path.write_bytes(struct.pack("<4sIQQQB7x", b"OODF", 1, 0, d, c, 0))
    with pytest.raises(IngestionError, match=f"^{path}: "):
        read_feature_table(path)


@given(
    data=st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    ).filter(lambda xs: len(xs) % 2 == 0)
)
def test_binary_round_trip_arbitrary_f32(data):
    import tempfile

    feats = np.array(data, dtype=np.float32).reshape(-1, 2)
    t = FeatureTable(feats, None, np.full(feats.shape[0], UNLABELED))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/h.oodf"
        write_feature_table(t, path)
        assert read_feature_table(path) == t


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip(rng, tmp_path):
    t = make_table(rng, n=8, d=2, c=3)
    path = tmp_path / "t.csv"
    write_feature_table(t, path, TableFormat.CSV)
    assert path.read_text().splitlines()[0] == "label,f0,f1,l0,l1,l2"
    assert read_feature_table(path, TableFormat.CSV) == t


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,l0,l1\n2,0.5,0.1,0.9\n")
    with pytest.raises(IngestionError, match="out of range"):
        read_feature_table(path, TableFormat.CSV)


def test_csv_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n0.5,0\n")
    with pytest.raises(IngestionError, match="header"):
        read_feature_table(path, TableFormat.CSV)


def test_csv_bad_field_cites_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n0,0.5\n0,oops\n")
    with pytest.raises(IngestionError, match="line 3"):
        read_feature_table(path, TableFormat.CSV)


_F32 = np.finfo(np.float32)
_F32_EDGES = [0.0, -0.0, _F32.smallest_subnormal, -_F32.smallest_subnormal,
              _F32.tiny, _F32.max, -_F32.max]


@given(
    n=st.integers(1, 4),
    d=st.integers(1, 3),
    c=st.sampled_from([0, 2, 3]),
    data=st.data(),
)
def test_csv_round_trip_arbitrary_f32(n, d, c, data):
    import tempfile

    value = st.one_of(
        st.sampled_from(_F32_EDGES),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
    feats = np.array(data.draw(st.lists(value, min_size=n * d, max_size=n * d)))
    logits = np.array(data.draw(st.lists(value, min_size=n * c, max_size=n * c)))
    labels = data.draw(st.lists(st.integers(-1, (c or 5) - 1), min_size=n, max_size=n))
    t = FeatureTable(
        feats.reshape(n, d), logits.reshape(n, c) if c else None, np.array(labels)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.csv"
        write_feature_table(t, path, TableFormat.CSV)
        back = read_feature_table(path, TableFormat.CSV)
    assert back == t  # bit-exact, so -0.0 and subnormals survive


def test_csv_bytes_pinned(tmp_path):
    """CRLF rows of shortest-repr binary32 values; digest fixed before the
    CSV codec was shared with score files."""
    import hashlib

    t = FeatureTable(
        np.array([[0.0, -0.0, 1.5], [_F32.smallest_subnormal, -_F32.max, 0.1],
                  [123456.789, -_F32.tiny, 2.0 / 3.0]]),
        np.array([[1.0, -2.5], [1.0 / 3.0, 7e-8], [-0.0, _F32.max]]),
        np.array([0, 1, UNLABELED]),
    )
    path = tmp_path / "t.csv"
    write_feature_table(t, path, TableFormat.CSV)
    raw = path.read_bytes()
    assert raw.splitlines(keepends=True)[1] == b"0,0.0,-0.0,1.5,1.0,-2.5\r\n"
    assert hashlib.sha256(raw).hexdigest() == (
        "8a8e2df2bdaed2709bd73fe4cb0172828a0c32a92fb131cf3e8cfa383f5d00f3"
    )


def test_csv_tables_parse_straight_to_binary32(tmp_path):
    """A CSV table's values parse to binary32 with the bits of a float64 parse
    cast to binary32: double rounding, underflow to zero and overflow to inf
    included. Score CSVs still parse to float64."""
    values = [
        "1e-46",  # under half the least binary32 subnormal: 0.0
        "-0.0",
        repr(float(np.float32(3e-42))),  # a binary32 subnormal
        "1.0000000596046448",  # just above the binary32 halfway point 1 + 2**-24
        "0.1",
    ]
    path = tmp_path / "t.csv"
    path.write_text("label,f0,f1,f2,f3,f4,l0,l1\n"
                    f"1,{','.join(values)},{values[3]},-0.0\n0,{','.join(values[::-1])},1e-46,7\n")
    parsed = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)  # float64
    table = read_feature_table(path, TableFormat.CSV)
    assert table == FeatureTable(parsed[:, 1:6], parsed[:, 6:], parsed[:, 0].astype(np.int64))
    assert table.features[0].tolist()[:4] == [0.0, -0.0, float(np.float32(3e-42)), 1.0]
    assert np.signbit(table.features[0, :2]).tolist() == [False, True]

    # rounds to inf in binary32, as the cast of its float64 parse did
    path.write_text("label,f0\n0,1.5\n1,3.4028235677973366e+38\n")
    with pytest.raises(IngestionError, match="non-finite value in features at row 1$"):
        read_feature_table(path, TableFormat.CSV)

    scores = ScoreSet(None, [0.1, -0.0, 5e-324, 1.7976931348623157e308, 2.0 / 3.0, 1e-300])
    write_scores(scores, path)
    assert read_scores(path).scores.tobytes() == scores.scores.tobytes()


def test_csv_blank_line_skipped_and_quoted_field_parsed(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'"label",f0,"f1"\r\n0,0.5,1\r\n\r\n"1","0.25",2\r\n')
    t = read_feature_table(path, TableFormat.CSV)
    assert t.labels.tolist() == [0, 1]
    assert t.features.tolist() == [[0.5, 1.0], [0.25, 2.0]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("label,f0\n0,0.5\n#1,0.5\n", "line 3: invalid literal"),
        ("label,f0\n0,0.5\n\n1,0.5,2\n", "line 4 has 3 fields, expected 2"),
        ("label,f0\n0,0.5\n   \n", "line 3 has 1 fields, expected 2"),
        ("label,f0\n99999999999999999999,0.5\n", "line 2: "),
        ("label,f0\n0,0.5\n1_0,0.5\n", "line 3: could not convert string to a number: '1_0'"),
        ("label,f0\n0,\u0661\n", "line 2: could not convert string to a number: '\u0661'"),
        ("label,f0,l0,l1\r\n", "no data rows"),
        ("", "header"),
    ],
)
def test_csv_malformed_rows(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(IngestionError, match=message):
        read_feature_table(path, TableFormat.CSV)


@pytest.mark.parametrize(
    "label, message",
    [
        (2**31, "label out of range at row 1"),
        (2**32 - 1, "label out of range at row 1"),
        (2**32, "label out of range at row 1"),
        (-(2**31) - 1, "negative label at row 1"),
    ],
)
def test_label_outside_int32_rejected(tmp_path, label, message):
    with pytest.raises(ValidationError, match=message):
        FeatureTable(np.zeros((2, 1)), None, np.array([0, label]))
    path = tmp_path / "t.csv"
    path.write_text(f"label,f0\n0,0.5\n{label},0.5\n")
    with pytest.raises(IngestionError, match=message):
        read_feature_table(path, TableFormat.CSV)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_feature_table(tmp_path / "absent.oodf")


# ---------------------------------------------------------------------------
# manifests


def _manifest(tmp_path, rng):
    for name in ("id2.oodf", "id3.oodf", "oodA.oodf", "oodB.oodf"):
        write_feature_table(make_table(rng, n=4), tmp_path / name)
    entries = (
        ManifestEntry("id2.oodf", Role.ID_FIT_DETECTOR, TableFormat.BINARY_DUMP),
        ManifestEntry("id3.oodf", Role.ID_TEST, TableFormat.BINARY_DUMP),
        ManifestEntry("oodA.oodf", Role.OOD_TEST, TableFormat.BINARY_DUMP, "near"),
        ManifestEntry("oodB.oodf", Role.OOD_TEST, TableFormat.BINARY_DUMP, "far"),
    )
    return DatasetManifest(entries, name="toy", base_dir=tmp_path)


def test_manifest_round_trip(tmp_path, rng):
    m = _manifest(tmp_path, rng)
    m.write(tmp_path / "m.manifest")
    text = (tmp_path / "m.manifest").read_text()
    assert "OOD_TEST(near)\tBINARY_DUMP\toodA.oodf" in text
    back = DatasetManifest.read(tmp_path / "m.manifest")
    assert back.entries == m.entries
    assert back.name == "toy"
    back.validate_for_eval()
    assert back.load(back.single(Role.ID_TEST)).n == 4


def test_manifest_comments_ignored(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("# a comment\nID_TEST\tBINARY_DUMP\tx.oodf\n\n")
    m = DatasetManifest.read(path)
    assert len(m.entries) == 1


def test_manifest_eval_rules(tmp_path, rng):
    m = _manifest(tmp_path, rng)
    no_ood = DatasetManifest(m.entries[:2], base_dir=tmp_path)
    with pytest.raises(ValidationError, match="OOD_TEST"):
        no_ood.validate_for_eval()
    two_tests = DatasetManifest(m.entries + (m.entries[1],), base_dir=tmp_path)
    with pytest.raises(ValidationError, match="exactly one"):
        two_tests.validate_for_eval()


def test_manifest_disjointness(tmp_path, rng):
    shared = ManifestEntry("id3.oodf", Role.ID_FIT_DETECTOR, TableFormat.BINARY_DUMP)
    m = _manifest(tmp_path, rng)
    clash = DatasetManifest((shared,) + m.entries[1:], base_dir=tmp_path)
    with pytest.raises(ValidationError, match="share the path"):
        clash.validate_for_eval()
    # disjointness is by path: equal bytes under two paths are two tables
    (tmp_path / "id2.oodf").write_bytes((tmp_path / "id3.oodf").read_bytes())
    m.validate_for_eval()


def test_manifest_unknown_role(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("ID_SOMETHING\tBINARY_DUMP\tx.oodf\n")
    with pytest.raises(IngestionError, match="unknown manifest role"):
        DatasetManifest.read(path)


def test_manifest_repeated_ood_name(tmp_path):
    """One name, one table: a sweep looks OOD tables up by name."""
    path = tmp_path / "m.manifest"
    path.write_text("OOD_TEST(far)\tCSV\ta.csv\nOOD_TEST(near)\tCSV\tb.csv\n"
                    "# far again\nOOD_TEST(far)\tBINARY_DUMP\tc.oodf\n")
    with pytest.raises(IngestionError) as info:
        DatasetManifest.read(path)
    assert str(info.value) == f"{path}: line 4: OOD_TEST name 'far' repeats line 1"


# ---------------------------------------------------------------------------
# splitting


def balanced_table(per_class, c=3, d=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(c), per_class)
    return FeatureTable(rng.normal(size=(per_class * c, d)), None, labels)


def test_split_sizes_ten_per_class():
    t = balanced_table(10)
    id1, id2, id3 = split_id_data(t, SplitPolicy(0.7, 0.5, seed=1))
    assert (id1.n, id2.n, id3.n) == (21, 3, 6)  # (7, 1, 2) per class
    for part, want in ((id1, 7), (id2, 1), (id3, 2)):
        counts = np.bincount(part.labels, minlength=3)
        assert (counts == want).all()


def test_split_sizes_thousand_total():
    t = balanced_table(500, c=2)
    id1, id2, id3 = split_id_data(t, SplitPolicy(0.7, 0.5, seed=1))
    assert (id1.n, id2.n, id3.n) == (700, 150, 150)


def test_split_deterministic():
    t = balanced_table(10)
    policy = SplitPolicy(0.7, 0.5, seed=9)
    a = split_id_data(t, policy)
    b = split_id_data(t, policy)
    assert all(x == y for x, y in zip(a, b))
    c = split_id_data(t, SplitPolicy(0.7, 0.5, seed=10))
    assert any(x != y for x, y in zip(a, c))


def test_split_is_partition(rng):
    t = make_table(rng, n=60, d=3, c=4)
    parts = split_id_data(t, SplitPolicy(0.6, 0.4, seed=2))
    rows = [p.features.tobytes() for p in parts]
    assert sum(p.n for p in parts) == t.n
    combined = sorted(
        p.features[i].tobytes() for p in parts for i in range(p.n)
    )
    original = sorted(t.features[i].tobytes() for i in range(t.n))
    assert combined == original
    assert len(set(rows)) == 3  # no two parts identical


def test_split_every_class_in_every_part_when_big_enough():
    t = balanced_table(3, c=4)
    parts = split_id_data(t, SplitPolicy(0.7, 0.5, seed=3))
    for p in parts:
        assert set(np.unique(p.labels)) == {0, 1, 2, 3}


def test_split_small_class_warns_and_prefers_id1_id3():
    labels = np.array([0] * 10 + [1] * 2)
    t = FeatureTable(np.random.default_rng(0).normal(size=(12, 2)), None, labels)
    with pytest.warns(UserWarning, match="class 1"):
        id1, id2, id3 = split_id_data(t, SplitPolicy(0.7, 0.5, seed=4))
    assert np.count_nonzero(id1.labels == 1) == 1
    assert np.count_nonzero(id2.labels == 1) == 0
    assert np.count_nonzero(id3.labels == 1) == 1


def test_split_requires_labels_and_min_size(rng):
    unl = FeatureTable(rng.normal(size=(5, 2)), None, np.full(5, UNLABELED))
    with pytest.raises(ValidationError, match="labeled"):
        split_id_data(unl, SplitPolicy())
    tiny = FeatureTable(rng.normal(size=(2, 2)), None, np.array([0, 1]))
    with pytest.raises(ValidationError, match="n=2"):
        split_id_data(tiny, SplitPolicy())


@given(st.lists(st.integers(-1, 6), max_size=60))
def test_class_rows_match_per_class_masks(values):
    labels = np.array(values, dtype=np.int32)
    found = _class_rows(labels)
    assert [k for k, _ in found] == np.unique(labels).tolist()
    for k, rows in found:  # the reference: one boolean mask per class
        expected = np.flatnonzero(labels == k)
        assert rows.dtype == expected.dtype and rows.tolist() == expected.tolist()


def test_split_policy_validates_fractions():
    with pytest.raises(ValidationError):
        SplitPolicy(train_fraction=1.0)
    with pytest.raises(ValidationError):
        SplitPolicy(detector_vs_test_fraction=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SplitPolicy(seed=-1), "seed must be a nonnegative integer"),
        (lambda: FeatureTable(np.zeros(3), None, np.zeros(3)),
         "features must be 2-D, got shape (3,)"),
        (lambda: FeatureTable(np.zeros((3, 2)), np.zeros((2, 4)), np.zeros(3)),
         "logits shape (2, 4) does not match n=3"),
        (lambda: FeatureTable(np.zeros((3, 2)), None, np.zeros((3, 1))),
         "labels shape (3, 1) does not match n=3"),
    ],
    ids=["split-seed", "features-1d", "logit-rows", "label-shape"],
)
def test_table_and_split_input_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValidationError, message)
