"""Tables, file formats, and dataset manifests.

Everything downstream consumes a :class:`FeatureTable`: per-sample feature
vectors (penultimate-layer activations), optional logits, and class labels.
Tables travel between tools either as a compact binary dump (``OODF``) or as
CSV, and evaluation runs are described by line-oriented manifests that tag
each table with its role (classifier-train / detector-fit / test / OOD test).
Every input array is checked finite here, and the scorers, the fit and the
synthetic worlds walk their rows here, in float64 blocks of :data:`BLOCK_BYTES`.
Both table formats are read by one row-block walk that keeps only the arrays asked
for (:func:`_read_kept`), in a :class:`_Kept` that the fit and the scorers read as
they read a table; a table read or built passes :func:`_checked_labels`.
Every file oodgate writes is written through :func:`_output`, whole or not at all.

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
import threading
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
#: (c for msp and ebm, 2d + 2 for the fit's class sums, over blocks of the
#: label order, d for its residuals, ``max(c, d)`` for mah scoring and world
#: logits). Only one block at a time is widened to float64, so each holds its
#: input plus that block and one or two float64 working arrays of about this
#: size, at any width: 1 MiB, so that a block and its working arrays fit in
#: one core's L2 cache of 2 MiB. Every row's reductions run over that row
#: alone, and class sums carry from block to block in row order, so no score,
#: fitted value or logit depends on the block size under the OpenBLAS kernels
#: the test suite's digests were recorded with (SkylakeX). Under Haswell
#: kernels a ``dtrtrs`` solve's bits depend on how many right-hand sides share
#: the call, so mah scores can move with the block size there. The paper's (c, d) =
#: (142, 128) gets 923-row blocks, d = 512 gets 256 and d = 2048 gets 64.
BLOCK_BYTES = 1 << 20


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
    is exact for the dtypes :func:`oodgate.detectors._floats` keeps. Each block
    is a new float64 copy that the caller may write over, whatever the input
    dtype; on float64 input that costs mah, which writes over none, one block.
    """
    n, start, size = arr.shape[0], 0, _block_rows(width)
    while start < n:
        stop = n if n - start <= size + 1 else start + size
        rows = arr[start:stop]
        _check_finite(rows, what, start)
        yield start, rows.astype(np.float64)
        start = stop


def _add_rows(sums: np.ndarray, labels: np.ndarray, block: np.ndarray, rows: np.ndarray) -> None:
    """Add ``block[rows[i]]``, widened to float64, to ``sums[labels[i]]``
    for each i; ``block`` may be the fit's whole float64 copy.

    Called on each block in turn with ``sums`` starting at +0.0, and handed
    each label's rows in row order (the fit's blocks are blocks of its label
    order), this leaves each label's sum with the bits ``mean(axis=0)`` sums
    its rows to: one ``np.add.reduce`` over the label's carried sum and its
    rows, which like ``mean`` starts from the identity +0.0 (a label with one
    row in a call adds it). ``np.add.reduceat`` would move the last bits.
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
    firsts = starts[~lone]
    for k, lo, hi in zip(ordered[firsts].tolist(), firsts.tolist(), ends[~lone].tolist()):
        x[lo] = sums[k]  # the row before a label's rows is already summed
        np.add.reduce(x[lo : hi + 1], axis=0, out=sums[k])


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
        features = np.ascontiguousarray(self.features, dtype=np.float32)
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {features.shape}")
        logits = None if self.logits is None else np.ascontiguousarray(self.logits, np.float32)
        labels = _checked_labels(features.shape, getattr(logits, "shape", None),
                                 [(features, 0), (logits, 0)], self.labels)
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
        """Row subset (rows are copied verbatim, in the given order), not checked again."""
        idx = np.asarray(indices)
        features, logits, labels = (None if a is None else a[idx]
                                    for a in (self.features, self.logits, self.labels))
        if features.ndim != 2 or not len(features):
            return FeatureTable(features, logits, labels)  # no table: the constructor refuses it
        return FeatureTable._of(features=features, logits=logits, labels=labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureTable):
            return NotImplemented
        pairs = zip((self.features, self.logits, self.labels),
                    (other.features, other.logits, other.labels))
        return all(a is b or a is not None and b is not None and a.shape == b.shape
                   and a.tobytes() == b.tobytes() for a, b in pairs)

    def __repr__(self) -> str:
        return f"FeatureTable(n={self.n}, d={self.d}, c={self.c})"


def _checked_labels(shape: tuple, logit_shape: tuple | None, rows: list, labels) -> np.ndarray:
    """Check a table, in this order, and return its labels as int32: the n x d
    features ``shape`` has n, d >= 1; ``rows[0]`` (an ``(array, start)`` of the
    features) is finite; logits of ``logit_shape`` (None: none) have n rows, c >= 2
    columns and a finite ``rows[1]``; each of the n ``labels`` is below c or UNLABELED."""
    n, d = shape
    if n < 1 or d < 1:
        raise ValidationError(f"need n >= 1 and d >= 1, got {n}x{d}")
    _check_finite(rows[0][0], "features", rows[0][1])
    limit = 2**31
    if logit_shape is not None:
        if len(logit_shape) != 2 or logit_shape[0] != n:
            raise ValidationError(f"logits shape {logit_shape} does not match n={n}")
        if logit_shape[1] < 2:
            raise ValidationError("logits need at least 2 classes")
        _check_finite(rows[1][0], "logits", rows[1][1])
        limit = logit_shape[1]
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
    if fmt is TableFormat.BINARY_DUMP:
        header = _HEADER.pack(_MAGIC, _VERSION, table.n, table.d, table.c, _DTYPE_F32)
        arrays = (table.features, "<f4"), (table.logits, "<f4"), (table.labels, "<i4")
        with _output(path, "wb") as fh:  # each array from its own buffer: no copy on little-endian
            fh.writelines([header] + [a.astype(t, copy=False) for a, t in arrays if a is not None])
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
    kept = _read_kept(path, fmt)
    return FeatureTable._of(features=kept.features, logits=kept.logits, labels=kept.labels)


@dataclass(frozen=True, slots=True, eq=False)
class _Kept:
    """The checked arrays a table read keeps (:func:`_read_kept`): features and
    logits (None: not kept), labels, and the table's logit count c (0: none),
    kept or not. The fit and the scorers read it as they read a table. Its
    arrays stay writable: a fit writes its residuals over float64 features."""

    features: np.ndarray | None
    logits: np.ndarray | None
    labels: np.ndarray
    c: int

    def take(self, rows: np.ndarray) -> "_Kept":
        return _Kept(*(None if a is None else a[rows]
                       for a in (self.features, self.logits, self.labels)), self.c)


def _oodf_layout(n: int, d: int, c: int, dtype_code: int) -> list:
    if dtype_code != _DTYPE_F32:
        raise ValidationError(f"unsupported dtype code {dtype_code}")
    return [("<f4", (n, d)), ("<f4", (n, c)), ("<i4", (n,))]


def _read_kept(path: str | Path, fmt: TableFormat, features=np.float32, logits=np.float32):
    """The :class:`_Kept` of the table at ``path``: its features and logits, each in the
    dtype its argument names (None: not kept), labels and header's logit count c. Its row
    blocks are walked (:func:`_walk`), so an array not kept is never held whole,
    then :func:`_checked_labels` checks it as it checks a :class:`FeatureTable`."""
    path, oodf = Path(path), fmt is TableFormat.BINARY_DUMP
    with _ingesting(path), contextlib.ExitStack() as stack:
        if oodf:
            fh, (n, d, c, _), specs = stack.enter_context(
                _packed(path, _MAGIC, _HEADER, _oodf_layout))
        elif fmt is TableFormat.CSV:
            blocks = _read_csv(path, _parse_csv_header, np.float32)
            n, (d, c) = next(blocks)
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown table format {fmt!r}")
        kept = [None if dtype is None else np.empty((n, width), dtype) for dtype, width in
                ((features, d), (logits, c))] + [np.empty(n, "<i4" if oodf else np.int64)]
        if oodf:  # read in place where kept in the file's dtype
            blocks = _packed_blocks(fh, specs, kept)
        labels = _checked_labels((n, d), (n, c) if c else None, _walk(blocks, kept), kept[2])
        return _Kept(kept[0], kept[1] if c else None, labels, c)


def _walk(blocks, outs: list) -> list:
    """Copy each ``(start, *arrays)`` block of ``blocks`` into the matching
    arrays of ``outs`` that are not None (numpy skips a block read in place);
    return each array's first non-finite ``(block, start)``, or one of no rows."""
    bad = [(np.empty(0), 0)] * len(outs)
    for start, *arrays in blocks:
        for i, (block, out) in enumerate(zip(arrays, outs)):
            if out is not None:
                out[start : start + len(block)] = block
            if not (bad[i][0].size or np.isfinite(block).all()):
                bad[i] = block, start
    return bad


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


def _read_into(fh, arr: np.ndarray) -> np.ndarray:
    """``arr``, a C-contiguous array, filled with the bytes at ``fh``'s position."""
    got = fh.readinto(arr)
    if got != arr.nbytes:  # the file shrank after the size check
        raise ValidationError(f"short read: {got // arr.itemsize} of {arr.size} values")
    return arr


def _packed_blocks(fh, specs: list, outs: list):
    """Yield ``(start, *blocks)``: rows from ``start`` of each n-row array of
    ``specs`` (see :func:`_packed`), ``_block_rows`` of their summed widths at a
    time, each read into the matching array of ``outs`` if it has that dtype."""
    base, n = fh.tell(), specs[0][1][0]
    size = _block_rows(sum(math.prod(shape[1:]) for _, shape in specs))
    for start in range(0, n, size):
        blocks, offset = [], base
        for (dtype, shape), out in zip(specs, outs):
            rows, row_bytes = min(size, n - start), dtype.itemsize * math.prod(shape[1:])
            fh.seek(offset + start * row_bytes)
            offset += n * row_bytes
            block = (out[start : start + rows] if out is not None and out.dtype == dtype
                     else np.empty((rows, *shape[1:]), dtype))
            blocks.append(_read_into(fh, block))
        yield start, *blocks


def _read_packed(path: Path, magic: bytes, header: struct.Struct, layout):
    """The header fields after magic and version, and the arrays, each whole,
    of an OODM file (see :func:`_packed`); call it inside :func:`_ingesting`."""
    with _packed(path, magic, header, layout) as (fh, fields, specs):
        return fields, [_read_into(fh, np.empty(shape, dtype)) for dtype, shape in specs]


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


@contextlib.contextmanager
def _output(path, mode: str = "w"):
    """``path`` open to write in ``mode`` (``"w"``: UTF-8, newlines as given): a hidden sibling
    of the link-resolved path, replaced onto it on a clean exit and removed on any failure. A
    path that exists and is not a regular file (a FIFO, a device) is opened in place."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **text) as fh:
            yield fh
        return
    head, name = os.path.split(os.path.realpath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, os.path.join(head, name))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_csv(path, header: list[str], lines) -> None:
    """Write the UTF-8, CRLF CSV of tables and score files: ``header``, then
    each finished, CRLF-ended line of the iterable ``lines``, taken one at a
    time."""
    with _output(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def _read_csv(path, parse_header, dtype=np.float64):
    """Walk a :func:`_write_csv` file inside :func:`_ingesting`: yield the count
    n of data lines (blank ones are skipped) and the group widths that
    ``parse_header`` returns from the header, then ``(start, *groups, first)``
    row blocks, parsed ``_block_rows(4 * width)`` rows at a time from the file's
    lines; a line that does not parse fails the walk, cited by its line in the file.

    Values are parsed straight into ``dtype``, so binary32 columns are never
    held as float64 too. numpy's binary32 converter parses to float64 and
    rounds that, so the bits are those of a float64 parse cast to binary32;
    a value that overflows becomes inf, for the caller's finite check."""
    with open(path, encoding="utf-8") as fh:
        widths = parse_header([name.strip('"') for name in fh.readline().rstrip("\n").split(",")])
        columns = [("first", np.int64), ("rest", dtype, (sum(widths),))]
        try:
            yield (n := sum(line != "\n" for line in fh)), widths
            fh.seek(0)
            fh.readline()
            size = _block_rows(4 * sum(widths))  # a quarter of a float64 block's rows
            for start in range(0, n, size):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no line left to parse
                    rows = np.loadtxt(fh, columns, max_rows=min(size, n - start), comments=None,
                                      delimiter=",", quotechar='"', ndmin=1)
                if rows.size < min(size, n - start):  # a quoted field took in a line break
                    raise ValueError(f"{start + rows.size} rows parsed from {n} data lines")
                yield start, *np.split(rows["rest"], np.cumsum(widths)[:-1], axis=1), rows["first"]
        except ValueError as exc:  # a decoding error too: the re-scan meets it again
            raise ValidationError(_bad_line(path, 1 + sum(widths)) or str(exc)) from None
    if n == 0:
        raise ValidationError("no data rows")


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
        test = self.single(Role.ID_TEST)
        if not self.ood_entries():
            raise ValidationError("manifest has no OOD_TEST entry")
        for e in self.entries:
            if (e.role is Role.ID_FIT_DETECTOR
                    and self.resolve(e).resolve() == self.resolve(test).resolve()):
                raise ValidationError(f"detector-fit and test entries share the path {e.path!r}")

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
        lines = [f"# name: {self.name}"] if self.name else []
        lines += [f"{e.role_text()}\t{e.fmt.value}\t{e.path}" for e in self.entries]
        with _output(path) as fh:
            fh.write("\n".join(lines) + "\n")

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
