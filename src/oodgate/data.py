"""Tables, file formats, and dataset manifests.

Everything downstream consumes a :class:`FeatureTable`: per-sample feature
vectors (penultimate-layer activations), optional logits, and class labels.
Tables travel between tools either as a compact binary dump (``OODF``) or as
CSV, and evaluation runs are described by line-oriented manifests that tag
each table with its role (classifier-train / detector-fit / test / OOD test).

OODF layout (all little-endian):

========  ======================================================
bytes     meaning
========  ======================================================
0-3       magic ``OODF``
4-7       u32 format version (currently 1)
8-15      u64 sample count ``n``
16-23     u64 feature dimension ``d``
24-31     u64 logit count ``c`` (0 when logits are absent)
32        u8 dtype code (0 = IEEE-754 binary32)
33-39     reserved, zero
40-       row-major features (n*d f32), row-major logits (n*c
          f32), labels (n i32, -1 = unlabeled)
========  ======================================================
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import struct
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import IngestionError, ValidationError

#: Label value marking a sample without a class (OOD test rows).
UNLABELED = -1

_MAGIC = b"OODF"
_VERSION = 1  # of both binary containers, OODF and OODM
_HEADER = struct.Struct("<4sIQQQB7x")  # magic, version, n, d, c, dtype code
_DTYPE_F32 = 0

# Spawn key for the splitting RNG stream (see SplitPolicy.seed).
_SPLIT_STREAM = 0x5B17


class TableFormat(str, enum.Enum):
    BINARY_DUMP = "BINARY_DUMP"
    CSV = "CSV"


def _first_bad_row(arr: np.ndarray) -> int:
    return int(np.argwhere(~np.isfinite(arr))[0][0])


class _Record:
    """Base of the frozen records with array fields. ``_set`` stores fields,
    each array made read-only; a copy or an unpickled record is rebuilt by the
    constructor, which checks it again and carries no cached value over."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FeatureTable(_Record):
    """Immutable per-sample features, optional logits, and labels.

    Arrays are stored as 32-bit floats (the on-disk precision) and 32-bit
    label integers; inputs are cast on construction and validated afterwards,
    so a value that overflows binary32 is rejected rather than silently kept.
    """

    features: np.ndarray
    logits: np.ndarray | None
    labels: np.ndarray

    def __post_init__(self) -> None:
        features, logits, labels = self.features, self.logits, self.labels
        with np.errstate(over="ignore"):  # overflow is caught by the finite check
            features = np.ascontiguousarray(features, dtype=np.float32)
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValidationError(f"need n >= 1 and d >= 1, got {n}x{d}")
        if not np.isfinite(features).all():
            raise ValidationError(
                f"non-finite value in features at row {_first_bad_row(features)}"
            )

        if logits is not None:
            with np.errstate(over="ignore"):
                logits = np.ascontiguousarray(logits, dtype=np.float32)
            if logits.ndim != 2 or logits.shape[0] != n:
                raise ValidationError(
                    f"logits shape {logits.shape} does not match n={n}"
                )
            if logits.shape[1] < 2:
                raise ValidationError("logits need at least 2 classes")
            if not np.isfinite(logits).all():
                raise ValidationError(
                    f"non-finite value in logits at row {_first_bad_row(logits)}"
                )

        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValidationError(f"labels shape {labels.shape} does not match n={n}")
        negative = (labels < 0) & (labels != UNLABELED)
        if negative.any():
            raise ValidationError(f"negative label at row {int(np.argmax(negative))}")
        limit = 2**31 if logits is None else logits.shape[1]
        over = labels >= limit
        if over.any():  # checked before the int32 cast, which would wrap
            bad = int(np.argmax(over))
            raise ValidationError(f"label out of range at row {bad}: {labels[bad]} >= {limit}")
        labels = np.ascontiguousarray(labels, dtype=np.int32)

        self._set(features=features, logits=logits, labels=labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def c(self) -> int:
        """Logit count; 0 when the table carries no logits."""
        return 0 if self.logits is None else self.logits.shape[1]

    @property
    def is_labeled(self) -> bool:
        return bool((self.labels != UNLABELED).all())

    def take(self, indices: np.ndarray) -> "FeatureTable":
        """Row subset (rows are copied verbatim, in the given order)."""
        idx = np.asarray(indices)
        return FeatureTable(
            self.features[idx],
            None if self.logits is None else self.logits[idx],
            self.labels[idx],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureTable):
            return NotImplemented
        if (self.logits is None) != (other.logits is None):
            return False
        same = (
            self.features.shape == other.features.shape
            and self.features.tobytes() == other.features.tobytes()
            and self.labels.tobytes() == other.labels.tobytes()
        )
        if same and self.logits is not None:
            same = (
                self.logits.shape == other.logits.shape
                and self.logits.tobytes() == other.logits.tobytes()
            )
        return same

    def __repr__(self) -> str:
        return f"FeatureTable(n={self.n}, d={self.d}, c={self.c})"


def write_feature_table(
    table: FeatureTable, path: str | Path, fmt: TableFormat = TableFormat.BINARY_DUMP
) -> None:
    """Serialize a table; OODF round-trips bit-exactly."""
    path = Path(path)
    if fmt is TableFormat.BINARY_DUMP:
        header = _HEADER.pack(_MAGIC, _VERSION, table.n, table.d, table.c, _DTYPE_F32)
        arrays = (table.features, table.logits, table.labels.astype("<i4"))
        _write_packed(path, header, [arr for arr in arrays if arr is not None])
    elif fmt is TableFormat.CSV:
        header = ["label"] + [f"f{j}" for j in range(table.d)]
        header += [f"l{j}" for j in range(table.c)]
        rows = map(np.ndarray.tolist, table.features)
        if table.logits is not None:  # each row's logits follow its features
            rows = map(list.__add__, rows, map(np.ndarray.tolist, table.logits))
        _write_csv(path, header, table.labels.tolist(), rows, repr)
    else:  # pragma: no cover - enum is closed
        raise ValidationError(f"unknown table format {fmt!r}")


def read_feature_table(
    path: str | Path, fmt: TableFormat = TableFormat.BINARY_DUMP
) -> FeatureTable:
    """Read and validate a table; malformed contents raise IngestionError."""
    path = Path(path)
    with _ingesting(path):
        if fmt is TableFormat.BINARY_DUMP:
            _, (features, logits, labels) = _read_packed(path, _MAGIC, _HEADER, _oodf_layout)
        elif fmt is TableFormat.CSV:
            labels, features, logits = _read_csv(path, _parse_csv_header, np.float32)
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown table format {fmt!r}")
        return FeatureTable(features, logits if logits.shape[1] else None, labels)


def _oodf_layout(n: int, d: int, c: int, dtype_code: int) -> list:
    if dtype_code != _DTYPE_F32:
        raise ValidationError(f"unsupported dtype code {dtype_code}")
    return [("<f4", (n, d)), ("<f4", (n, c)), ("<i4", (n,))]


def _read_packed(path: Path, magic: bytes, header: struct.Struct, layout):
    """The header fields after magic and version, and the arrays, of an OODF
    or OODM file; call it inside :func:`_ingesting`. The file is
    ``header`` (``magic``, u32 :data:`_VERSION`, then ``fields``) and the
    ``(dtype, shape)`` arrays of ``layout(*fields)``, back to back.

    The file's size is checked against the header before any array is
    allocated. Each array is then read into a buffer of its own, so a caller
    that drops one array frees its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) < header.size:
            raise ValidationError(f"truncated header ({len(raw)} bytes)")
        found, version, *fields = header.unpack(raw)
        if found != magic:
            raise ValidationError(f"bad magic {found!r}")
        if version != _VERSION:
            raise ValidationError(f"unsupported version {version}")
        specs = [(np.dtype(dtype), shape, math.prod(shape)) for dtype, shape in layout(*fields)]
        expected = header.size + sum(dtype.itemsize * count for dtype, _, count in specs)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValidationError(f"payload is {size} bytes, format implies {expected}")
        arrays = []
        for dtype, shape, count in specs:
            arr = np.fromfile(fh, dtype, count)
            if arr.size != count:  # the file shrank after the size check
                raise ValidationError(f"short read: {arr.size} of {count} values")
            try:  # an empty array can still have a dimension numpy cannot hold
                arr = arr.reshape(shape)
            except ValueError as exc:
                raise ValidationError(f"array shape {shape}: {exc}") from None
            arrays.append(arr)
    return fields, arrays


def _write_packed(path, header: bytes, arrays) -> None:
    """Write the packed ``header``, then the bytes of each array in turn."""
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(arr.tobytes())


def _parse_csv_header(header: list[str]) -> tuple[int, int]:
    d = sum(1 for name in header if name.startswith("f"))
    c = len(header) - 1 - d
    expected = ["label"] + [f"f{j}" for j in range(d)] + [f"l{j}" for j in range(c)]
    if header != expected:
        raise ValidationError(f"CSV header {header} does not match label,f0..,l0.. form")
    return d, c


@contextlib.contextmanager
def _ingesting(path):
    """Report undecodable text or invalid contents read in the block as an
    IngestionError naming ``path``, the only place a reader names its file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValidationError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def _write_csv(path, header: list[str], first, rows, fmt) -> None:
    """Write the UTF-8, CRLF CSV of tables and score files: ``header``, then
    per row the row's integer from ``first`` and ``fmt`` of each Python number
    of its list from ``rows``, both iterables taken one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for head, values in zip(first, rows):
            fh.write(f"{head},{','.join(map(fmt, values))}\r\n")


def _read_csv(path, parse_header, dtype=np.float64) -> list[np.ndarray]:
    """The int64 first column and one ``dtype`` array per column group of a
    :func:`_write_csv` file, to be read inside :func:`_ingesting`.
    ``parse_header`` checks the header fields and returns the group widths.
    Blank lines are skipped.

    Values are parsed straight into ``dtype``, so binary32 columns are never
    held as float64 too. numpy's binary32 converter parses to float64 and
    rounds that, so the bits are those of a float64 parse cast to binary32;
    a value that overflows becomes inf, for the caller's finite check."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        widths = parse_header([name.strip('"') for name in header])
        columns = [("first", np.int64), ("rest", dtype, (sum(widths),))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header-only input
                rows = np.loadtxt(fh, columns, comments=None, delimiter=",", quotechar='"', ndmin=1)
        except ValueError as exc:  # a decoding error too: the re-scan meets it again
            raise ValidationError(_bad_line(path, 1 + sum(widths)) or str(exc)) from None
    if rows.size == 0:
        raise ValidationError("no data rows")
    return [rows["first"], *np.split(rows["rest"], np.cumsum(widths)[:-1], axis=1)]


def _bad_line(path, width: int) -> str:
    """The first row of a CSV with a wrong field count or value, cited by line;
    empty if every row parses."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 or line == "\n":
                continue
            fields = [field.strip('"') for field in line.rstrip("\n").split(",")]
            if len(fields) != width:
                return f"line {lineno} has {len(fields)} fields, expected {width}"
            try:
                for field in fields:  # int() and float() take these, np.loadtxt does not
                    if "_" in field or not field.strip().isascii():
                        raise ValueError(f"could not convert string to a number: {field!r}")
                np.int64(fields[0]), [float(field) for field in fields[1:]]
            except (ValueError, OverflowError) as exc:
                return f"line {lineno}: {exc}"
    return ""


# ---------------------------------------------------------------------------
# manifests


class Role(str, enum.Enum):
    ID_TRAIN_CLASSIFIER = "ID_TRAIN_CLASSIFIER"
    ID_FIT_DETECTOR = "ID_FIT_DETECTOR"
    ID_TEST = "ID_TEST"
    OOD_TEST = "OOD_TEST"


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    role: Role
    fmt: TableFormat
    ood_name: str = ""

    def role_text(self) -> str:
        if self.role is Role.OOD_TEST:
            return f"OOD_TEST({self.ood_name})"
        return self.role.value


@dataclass(frozen=True)
class DatasetManifest:
    """Tagged table paths for one evaluation run.

    Entry paths are interpreted relative to ``base_dir`` (the directory the
    manifest was read from, or wherever it will be written).
    """

    entries: tuple[ManifestEntry, ...]
    name: str = ""
    base_dir: Path = Path(".")

    def resolve(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        return p if p.is_absolute() else self.base_dir / p

    def single(self, role: Role) -> ManifestEntry:
        found = [e for e in self.entries if e.role is role]
        if len(found) != 1:
            raise ValidationError(
                f"manifest needs exactly one {role.value} entry, found {len(found)}"
            )
        return found[0]

    def ood_entries(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.role is Role.OOD_TEST]

    def load(self, entry: ManifestEntry) -> FeatureTable:
        return read_feature_table(self.resolve(entry), entry.fmt)

    def validate_for_eval(self) -> None:
        """One ID_TEST, at least one OOD_TEST, fit/test disjoint by path."""
        self.single(Role.ID_TEST)
        if not self.ood_entries():
            raise ValidationError("manifest has no OOD_TEST entry")
        fit = [e for e in self.entries if e.role is Role.ID_FIT_DETECTOR]
        test = [e for e in self.entries if e.role is Role.ID_TEST]
        for ef in fit:
            for et in test:
                if self.resolve(ef).resolve() == self.resolve(et).resolve():
                    raise ValidationError(
                        f"detector-fit and test entries share the path {ef.path!r}"
                    )

    def write(self, path: str | Path) -> None:
        path = Path(path)
        lines = []
        if self.name:
            lines.append(f"# name: {self.name}")
        for e in self.entries:
            lines.append(f"{e.role_text()}\t{e.fmt.value}\t{e.path}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def read(path: str | Path) -> "DatasetManifest":
        path = Path(path)
        name = ""
        entries = []
        ood_lines: dict[str, int] = {}
        with _ingesting(path):
            for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    comment = line.lstrip("#").strip()
                    if comment.startswith("name:"):
                        name = comment[len("name:") :].strip()
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValidationError(f"line {lineno}: expected role<TAB>format<TAB>path")
                role_text, fmt_text, entry_path = parts
                if "\0" in entry_path:  # open() raises ValueError, not OSError, on it
                    raise ValidationError(f"line {lineno}: NUL character in path")
                ood_name = ""
                if role_text.startswith("OOD_TEST(") and role_text.endswith(")"):
                    role_text, ood_name = "OOD_TEST", role_text[len("OOD_TEST(") : -1]
                elif role_text == "OOD_TEST":
                    raise ValidationError(
                        f"line {lineno}: OOD_TEST entries must carry a name: OOD_TEST(name)"
                    )
                # Both enums name each member by its value.
                role, fmt = Role.__members__.get(role_text), TableFormat.__members__.get(fmt_text)
                if role is None:
                    raise ValidationError(f"line {lineno}: unknown manifest role {role_text!r}")
                if fmt is None:
                    raise ValidationError(f"line {lineno}: unknown format {fmt_text!r}")
                if role is Role.OOD_TEST and ood_lines.setdefault(ood_name, lineno) < lineno:
                    raise ValidationError(f"line {lineno}: OOD_TEST name {ood_name!r} "
                                          f"repeats line {ood_lines[ood_name]}")
                entries.append(ManifestEntry(entry_path, role, fmt, ood_name))
        return DatasetManifest(tuple(entries), name=name, base_dir=path.parent)


# ---------------------------------------------------------------------------
# splitting


@dataclass(frozen=True)
class SplitPolicy:
    """Deterministic three-way split of labeled ID data.

    ``train_fraction`` of each class goes to the classifier-train part (ID1);
    the remainder is split by ``detector_vs_test_fraction`` into detector-fit
    (ID2) and test (ID3). Fractional sizes round by flooring the earlier part.
    """

    train_fraction: float = 0.7
    detector_vs_test_fraction: float = 0.5
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("train_fraction", "detector_vs_test_fraction"):
            f = getattr(self, name)
            if not 0.0 < f < 1.0:
                raise ValidationError(f"{name} must be strictly inside (0,1), got {f}")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


def _part_sizes(m: int, f1: float, f2: float) -> list[int]:
    """Per-class part sizes: floor for the earlier part, remainder flows on."""
    n1 = int(np.floor(m * f1))
    rem = m - n1
    n2 = int(np.floor(rem * f2))
    sizes = [n1, n2, rem - n2]
    # A class with >= 3 samples must appear in every part; steal from the
    # largest part (earliest on ties) until none is empty.
    for i in range(3):
        while sizes[i] == 0:
            j = int(np.argmax(sizes))
            sizes[j] -= 1
            sizes[i] += 1
    return sizes


def _class_rows(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(label, rows)`` for each distinct label, ascending, from one stable
    sort: ``rows`` are the indices of that label in ascending order, the
    array ``np.flatnonzero(labels == label)`` gives."""
    order = np.argsort(labels, kind="stable")
    classes, starts = np.unique(labels[order], return_index=True)
    return list(zip(classes.tolist(), np.split(order, starts[1:])))


def split_id_data(
    table: FeatureTable, policy: SplitPolicy
) -> tuple[FeatureTable, FeatureTable, FeatureTable]:
    """Stratified (ID1, ID2, ID3) partition, deterministic under the seed.

    Classes with fewer samples than parts cannot cover all three parts; they
    are assigned preferentially to ID1 then ID3 with a warning.
    """
    return tuple(table.take(rows) for rows in _split_rows(table.labels, policy))


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for one documented stream of a seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _split_rows(labels: np.ndarray, policy: SplitPolicy) -> list[np.ndarray]:
    """The sorted row indices of :func:`split_id_data`'s three parts: the
    split reads only the labels."""
    if labels.size < 3:
        raise ValidationError(f"cannot split a table with n={labels.size} < 3")
    if (labels == UNLABELED).any():
        raise ValidationError("split requires a fully labeled table")

    rng = stream_rng(policy.seed, _SPLIT_STREAM)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls, rows in _class_rows(labels):
        idx = rng.permutation(rows)
        m = idx.size
        if m < 3:
            warnings.warn(
                f"class {cls} has only {m} sample(s); assigning to ID1"
                + ("/ID3" if m == 2 else "")
            )
            sizes = [1, 0, 0] if m == 1 else [1, 0, 1]
        else:
            sizes = _part_sizes(m, policy.train_fraction, policy.detector_vs_test_fraction)
        bounds = np.cumsum([0] + sizes)
        for p in range(3):
            parts[p].append(idx[bounds[p] : bounds[p + 1]])

    out = [np.sort(np.concatenate(chunks)) for chunks in parts]
    if any(rows.size == 0 for rows in out):
        raise ValidationError("a split part received no samples")
    return out
