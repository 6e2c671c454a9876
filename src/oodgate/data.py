"""Tables, file formats, and dataset manifests.

Everything downstream consumes a :class:`FeatureTable`: per-sample feature
vectors (penultimate-layer activations), optional logits, and class labels.
Tables travel between tools either as a compact binary dump (``OODF``) or as
CSV, and evaluation runs are described by line-oriented manifests that tag
each table with its role (classifier-train / detector-fit / test / OOD test).
Every input array is checked finite here, and the scorers, the fit and the
synthetic worlds walk their rows here, in float64 blocks of :data:`BLOCK_BYTES`.
The CLI's ``fit`` and ``score`` read tables through :func:`_read_kept`, which
checks a whole table but holds only the array the stage reads.

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


#: Bytes of one float64 row block in all three scorers, the fit's two passes
#: and the synthetic worlds' logits: a block has ``max(2, BLOCK_BYTES //
#: (8 * width))`` rows, ``width`` being the widest float64 row its caller builds
#: (c for msp and ebm, 2d + 2 for the fit's class sums (a gather, its copy and
#: two indices), d for its residuals, ``max(c, d)`` for mah scoring and world
#: logits). Only one block at a time is widened to float64, so each holds its
#: input plus that block and one or two float64 working arrays of about this
#: size, at any width. Every row's reductions run over that row alone, and
#: class sums carry from block to block in row order, so no score, fitted
#: value or logit depends on the block size. The paper's (c, d) = (142, 128)
#: gets 4096-row blocks, d = 512 gets 1136.
BLOCK_BYTES = 4096 * 142 * 8


def _check_finite(arr: np.ndarray, what: str, start: int = 0) -> None:
    """Reject a NaN or infinity in ``arr``, the rows of ``what`` from ``start`` on."""
    finite = np.isfinite(arr)
    if not finite.all():
        bad = start + int(np.argwhere(~finite)[0][0])
        raise ValidationError(f"non-finite value in {what} at row {bad}")


def _block_rows(width: int) -> int:
    """Rows per block when the widest float64 row a block builds has
    ``width`` values (taken as at least 1): as many as fit in
    :data:`BLOCK_BYTES`, and at least 2."""
    return max(2, BLOCK_BYTES // (8 * max(width, 1)))


def _row_blocks(arr: np.ndarray, what: str, width: int):
    """Yield ``(start, block)``: the rows of the 2-D array ``arr`` from
    ``start`` in blocks of ``_block_rows(width)`` rows, as float64, where
    ``width`` is the widest float64 row the caller builds per block row. A
    lone last row joins the block before it: a one-row matrix product is a
    GEMV, which rounds differently from the GEMM of its neighbours.

    Each block is checked finite in its own dtype before it is widened, which
    is exact for the dtypes :func:`oodgate.detectors._floats` keeps. A block
    of a float64 array is a view of it.
    """
    n, start, size = arr.shape[0], 0, _block_rows(width)
    while start < n:
        stop = n if n - start <= size + 1 else start + size
        rows = arr[start:stop]
        _check_finite(rows, what, start)
        yield start, rows.astype(np.float64, copy=False)
        start = stop


def _add_rows(sums: np.ndarray, labels: np.ndarray, block: np.ndarray, rows: np.ndarray) -> None:
    """Add ``block[rows[i]]``, widened to float64, to ``sums[labels[i]]``
    for each i.

    Called on each row block in turn with ``sums`` starting at +0.0, this
    leaves each label's sum with the bits ``mean(axis=0)`` sums its rows to:
    one ``np.add.reduce`` over the label's carried sum and its rows in row
    order, which like ``mean`` starts from the identity +0.0 (a label with
    one row in the block adds it). ``np.add.reduceat`` sums a segment in
    another order and moves the last bits.
    """
    if not labels.size:
        return
    order = np.argsort(labels, kind="stable")  # each label's rows stay in order
    ordered = labels[order]
    x = np.empty((ordered.size + 1, block.shape[1]))
    x[1:] = block[rows[order]]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    ends = np.append(starts[1:], ordered.size)
    lone = ends - starts == 1
    sums[ordered[starts[lone]]] += x[starts[lone] + 1]  # distinct labels
    for lo, hi in zip(starts[~lone].tolist(), ends[~lone].tolist()):
        k = ordered[lo]
        x[lo] = sums[k]  # the row before a label's rows is already summed
        sums[k] = np.add.reduce(x[lo : hi + 1], axis=0)


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

    @classmethod
    def _of(cls, **values):
        """A record of ``values`` that its caller has already checked as the
        constructor would, built without running the checks again."""
        record = object.__new__(cls)
        record._set(**values)
        return record


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

    @np.errstate(over="ignore")  # a binary32 overflow fails the finite check
    def __post_init__(self) -> None:
        features, logits, labels = self.features, self.logits, self.labels
        features = np.ascontiguousarray(features, dtype=np.float32)
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValidationError(f"need n >= 1 and d >= 1, got {n}x{d}")
        _check_finite(features, "features")

        if logits is not None:
            logits = np.ascontiguousarray(logits, dtype=np.float32)
            if logits.ndim != 2 or logits.shape[0] != n:
                raise ValidationError(
                    f"logits shape {logits.shape} does not match n={n}"
                )
            if logits.shape[1] < 2:
                raise ValidationError("logits need at least 2 classes")
            _check_finite(logits, "logits")

        labels = _labels(labels, n, 2**31 if logits is None else logits.shape[1])
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
        pairs = zip((self.features, self.logits, self.labels),
                    (other.features, other.logits, other.labels))
        return all(a is b or a is not None and b is not None and a.shape == b.shape
                   and a.tobytes() == b.tobytes() for a, b in pairs)

    def __repr__(self) -> str:
        return f"FeatureTable(n={self.n}, d={self.d}, c={self.c})"


def _labels(labels, n: int, limit: int) -> np.ndarray:
    """``labels`` as contiguous int32, checked to be n integers, each a class
    below ``limit`` or :data:`UNLABELED`."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValidationError(f"labels shape {labels.shape} does not match n={n}")
    if labels.dtype.kind not in "biuf":
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    _check_finite(labels, "labels")
    bad = np.flatnonzero(labels % 1)  # rows the int32 cast below would truncate
    if bad.size:
        raise ValidationError(f"non-integer label at row {bad[0]}: {labels[bad[0]]}")
    negative = (labels < 0) & (labels != UNLABELED)
    if negative.any():
        raise ValidationError(f"negative label at row {int(np.argmax(negative))}")
    over = labels >= limit
    if over.any():  # checked before the int32 cast, which would wrap
        bad = int(np.argmax(over))
        raise ValidationError(f"label out of range at row {bad}: {labels[bad]} >= {limit}")
    return np.ascontiguousarray(labels, dtype=np.int32)


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
        _write_csv(path, header, (f"{label},{','.join(map(repr, values))}\r\n"
                                  for label, values in zip(table.labels.tolist(), rows)))
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


def _read_kept(path: str | Path, fmt: TableFormat, logits: bool = False,
               widen: bool = False):
    """The features of the table at ``path`` (float64 if ``widen``, else
    float32), or its float32 logits if ``logits`` (None when it has none),
    with its labels and logit count c: the one array a CLI stage reads.

    The table is checked as :func:`read_feature_table` checks it, with the
    same lines in the same order, but the array not kept is only checked, a
    block at a time, and never held. An OODF table is read a block at a time,
    each block checked finite and, if kept, copied into the one array
    returned. A CSV is parsed once; its features and logits are checked in
    place in the parse, and only the kept columns are copied out of it."""
    path = Path(path)
    with _ingesting(path), contextlib.ExitStack() as stack:
        if fmt is TableFormat.BINARY_DUMP:
            fh, (n, d, c, _), specs = stack.enter_context(
                _packed(path, _MAGIC, _HEADER, _oodf_layout))
            blocks = [_read_blocks(fh, *spec) for spec in specs[:2]]  # read as they are walked
            read_labels = lambda: _read_array(fh, *specs[2])
        elif fmt is TableFormat.CSV:
            labels, *views = _read_csv(path, _parse_csv_header, np.float32)
            (n, d), c = views[0].shape, views[1].shape[1]
            blocks = [_slices(view) for view in views]
            read_labels = lambda: labels
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown table format {fmt!r}")
        if n < 1 or d < 1:
            raise ValidationError(f"need n >= 1 and d >= 1, got {n}x{d}")
        features = _checked(blocks[0], (n, d), "features",
                            None if logits else np.float64 if widen else np.float32)
        if c == 1:
            raise ValidationError("logits need at least 2 classes")
        logit_rows = (_checked(blocks[1], (n, c), "logits", np.float32 if logits else None)
                      if c else None)
        return logit_rows if logits else features, _labels(read_labels(), n, c or 2**31), c


def _checked(blocks, shape: tuple, what: str, dtype=None):
    """Check each ``(start, block)`` of ``blocks``, the rows of ``what`` from
    ``start``, finite; with a ``dtype``, copy them into one new array of
    ``shape`` and ``dtype``, which is returned."""
    out = None if dtype is None else np.empty(shape, dtype)
    for start, block in blocks:
        _check_finite(block, what, start)
        if out is not None:
            out[start : start + len(block)] = block
    return out


def _slices(arr: np.ndarray):
    """Yield ``(start, block)``: the rows of the 2-D ``arr`` from ``start``, in
    views of ``_block_rows(width)`` rows, ``width`` being ``arr``'s."""
    size = _block_rows(arr.shape[1])
    for start in range(0, arr.shape[0], size):
        yield start, arr[start : start + size]


@contextlib.contextmanager
def _packed(path: Path, magic: bytes, header: struct.Struct, layout):
    """Open an OODF or OODM file and yield it at its first array, with the
    header fields after magic and version and the ``(dtype, shape)`` of each
    array; call it inside :func:`_ingesting`. The file is ``header``
    (``magic``, u32 :data:`_VERSION`, then the fields) and the arrays of
    ``layout(*fields)``, back to back.

    The file's size is checked against the header, in Python integers, before
    any array is allocated, so every array's rows are bounded by the file."""
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) < header.size:
            raise ValidationError(f"truncated header ({len(raw)} bytes)")
        found, version, *fields = header.unpack(raw)
        if found != magic:
            raise ValidationError(f"bad magic {found!r}")
        if version != _VERSION:
            raise ValidationError(f"unsupported version {version}")
        specs = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
        expected = header.size + sum(dtype.itemsize * math.prod(shape) for dtype, shape in specs)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValidationError(f"payload is {size} bytes, format implies {expected}")
        for dtype, shape in specs:
            try:  # an empty array can still have a dimension numpy cannot hold
                if 0 in shape:
                    np.empty(0, dtype).reshape(shape)
            except ValueError as exc:
                raise ValidationError(f"array shape {shape}: {exc}") from None
        yield fh, fields, specs


def _read_array(fh, dtype: np.dtype, shape: tuple) -> np.ndarray:
    """The array of ``shape`` at ``fh``'s position, in a buffer of its own."""
    count = math.prod(shape)
    arr = np.fromfile(fh, dtype, count)
    if arr.size != count:  # the file shrank after the size check
        raise ValidationError(f"short read: {arr.size} of {count} values")
    return arr.reshape(shape)


def _read_blocks(fh, dtype: np.dtype, shape: tuple):
    """Yield ``(start, block)``: the rows of the 2-D array of ``shape`` at
    ``fh``'s position from ``start``, in blocks of ``_block_rows(width)``
    rows, ``width`` being its second dimension, each read into a buffer of
    its own."""
    n, size = shape[0], _block_rows(shape[1])
    for start in range(0, n, size):
        yield start, _read_array(fh, dtype, (min(size, n - start), *shape[1:]))


def _read_packed(path: Path, magic: bytes, header: struct.Struct, layout):
    """The header fields after magic and version, and the arrays, of an OODF
    or OODM file (see :func:`_packed`); call it inside :func:`_ingesting`.
    Each array is read whole into a buffer of its own, so a caller that
    drops one array frees its bytes."""
    with _packed(path, magic, header, layout) as (fh, fields, specs):
        return fields, [_read_array(fh, *spec) for spec in specs]


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


def _write_csv(path, header: list[str], lines) -> None:
    """Write the UTF-8, CRLF CSV of tables and score files: ``header``, then
    each finished, CRLF-ended line of the iterable ``lines``, taken one at a
    time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


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
        """Write the manifest; a field :meth:`read` would not give back raises
        ValidationError first: a tab or line break, whitespace at an end of the name or
        a path, an empty or NUL path, an OOD name repeated or on another role's entry."""
        oods = [e.ood_name for e in self.ood_entries()]
        fields = [("manifest name", self.name, self.name.strip(), False)]
        for e in self.entries:  # only an OOD_TEST line carries its OOD name
            ood = e.role is Role.OOD_TEST
            fields += [("path", e.path, e.path.strip(), not e.path or "\0" in e.path),
                       ("OOD name", e.ood_name, e.ood_name if ood else "",
                        ood and oods.count(e.ood_name) > 1)]
        for what, text, read_back, bad in fields:
            if bad or text != read_back or "\t" in text or "".join(text.splitlines()) != text:
                raise ValidationError(f"{what} {text!r} would not read back from a manifest")
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
