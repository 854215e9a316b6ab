"""CSV ingestion for categorical data.

Cells are opaque strings: no numeric parsing, no missing-value magic. Each
column gets a dictionary of labels in first-appearance order and the cell
strings become the matching integer codes, so decoding a code through the
dictionary reproduces the original cell exactly. A file that is not UTF-8
text, or that holds a field over the csv module's size limit, is rejected
with `InvalidInputError` naming the file.

A plain file is coded from its bytes. It is read in blocks of about
`_BLOCK_BYTES`, each cut after its last line end, and each block's `,` and
`\\n` bytes are found with numpy. Each field is keyed by its bytes as one
little-endian uint64 (fields of at most 8 bytes, none holding a NUL, so
the key is unambiguous), and a column's known keys, kept sorted beside
their codes, code a block with one `searchsorted`; only keys not seen
before are sorted out, taking the next codes in first-appearance order.
Labels are decoded from their keys at the end. Without quotes, CRs or
NULs, the csv module's excel dialect cuts fields at every `,` and rows at
every `\\n`, so this gives exactly its split.

Any other file is read with `csv.reader`, which is also the one reporter of
errors: the byte-level coder never raises, it declines, and the file is
read again from its start. It declines at a `"`, `\\r` or NUL byte, a blank
line, a row without as many fields as the header, a header that fails its
checks, bytes that are not UTF-8, a field over 8 bytes or over
`csv.field_size_limit()`, and a file without data rows. The csv path codes
column-wise: rows are read `_CHUNK_ROWS` at a time and each column of a
chunk is coded with one dictionary lookup per cell. On both paths each
chunk's codes are kept in the narrowest dtype that holds the labels seen so
far. A row of the wrong length is reported, by the physical line it ends
on, once its chunk is read, so a csv error or an undecodable byte later in
the same chunk is reported first; either is an `InvalidInputError`.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError
from .sample import CategoricalSample, code_dtype

# Rows read, transposed and coded at a time by the csv path, and written at
# a time by `sample_to_csv`. A few thousand rows keep a chunk's cells in
# cache; transposing the whole file at once is slower.
_CHUNK_ROWS = 2048

# Bytes the byte-level coder reads at a time; a block runs on to its last
# line end, so it holds whole rows.
_BLOCK_BYTES = 1 << 16
# A key holds a field of up to 8 bytes; _MASKS[n] keeps a word's first n bytes.
_KEY_BYTES = 8
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(_KEY_BYTES + 1)], dtype="<u8")
# 8 bytes of 0xff are never UTF-8, so this ends every sorted key table above
# every key, and a lookup never runs past the table.
_PAST_KEYS = np.array([_MASKS[-1]], dtype="<u8")


@dataclass(frozen=True)
class IngestedDataset:
    """A parsed CSV: the coded sample, named by the header, and each column's
    labels, indexed by code."""

    dictionaries: tuple[tuple[str, ...], ...]
    sample: CategoricalSample


def read_csv(path: str | Path) -> IngestedDataset:
    path = Path(path)
    try:
        with path.open("rb") as fh:
            plain = _read_plain(fh)
        if plain is not None:  # the blocks' buffers are freed by now
            return _dataset(*plain)
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                return _parse(reader, str(path))
            except csv.Error as exc:  # e.g. a field over the csv module's size limit
                raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None


def _blocks(fh: BinaryIO) -> Iterator[bytes]:
    """A file's bytes in blocks of whole lines, each ending with its last
    line's \\n; the file's last line is given one if it lacks it."""
    pending: list[bytes] = []  # a line begun, read in pieces
    while chunk := fh.read(_BLOCK_BYTES):
        if cut := chunk.rfind(b"\n") + 1:
            yield b"".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if rest := b"".join(pending):
        yield rest + b"\n"


class _Labels:
    """One column's labels as keys: sorted (ended by `_PAST_KEYS`) with the
    code of each, and in code order, block by block."""

    def __init__(self) -> None:
        self.sorted = _PAST_KEYS
        self.codes = np.empty(0, dtype=np.uint8)
        self.seen: list[np.ndarray] = []
        self.parts: list[np.ndarray] = []

    def code(self, keys: np.ndarray) -> None:
        """Append the codes of a block's keys, giving new keys the next codes."""
        at = np.searchsorted(self.sorted, keys)
        if (new := self.sorted[at] != keys).any():
            self._add(keys[new])
            at = np.searchsorted(self.sorted, keys)
        # in the dtype of the labels seen, often narrower than the block's
        self.parts.append(self.codes[at])

    def _add(self, fresh: np.ndarray) -> None:
        # a stable sort keeps each key's first appearance first among equals
        order = np.argsort(fresh, kind="stable")
        ascending = fresh[order]
        first = np.concatenate(([True], ascending[1:] != ascending[:-1]))
        new, by_appearance = ascending[first], np.argsort(order[first])
        self.seen.append(new[by_appearance])
        known = len(self.codes)
        codes = np.empty(len(new), dtype=np.int64)
        codes[by_appearance] = np.arange(known, known + len(new))
        at = np.searchsorted(self.sorted, new)
        self.sorted = np.insert(self.sorted, at, new)
        self.codes = np.insert(self.codes.astype(code_dtype([known + len(new)])), at, codes)

    def labels(self) -> tuple[str, ...]:
        # a key's bytes as S8 drop its zero padding, and a label holds no NUL
        keys = np.concatenate(self.seen).view("S8")
        return tuple(label.decode("utf-8") for label in keys.tolist())


def _read_plain(fh: BinaryIO) -> tuple[list[str], list, list[list[np.ndarray]]] | None:
    """`_dataset`'s arguments for a file coded from its bytes, or None where
    the csv path must read it."""
    limit = csv.field_size_limit()
    header = None
    for block in _blocks(fh):
        if b'"' in block or b"\r" in block or b"\0" in block:
            return None
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if header is None:
            line, _, block = block.partition(b"\n")
            header = line.decode("utf-8").split(",")
            if "" in header or len(set(header)) != len(header) or max(map(len, header)) > limit:
                return None
            columns = [_Labels() for _ in header]
            if not block:
                continue
        if (keys := _keys(block, len(header), min(_KEY_BYTES, limit))) is None:
            return None
        for column, column_keys in zip(columns, keys):
            column.code(column_keys)
    if header is None or not columns[0].parts:
        return None
    return header, [c.labels() for c in columns], [c.parts for c in columns]


def _keys(block: bytes, p: int, longest: int) -> np.ndarray | None:
    """The (p, rows) field keys of a block of whole lines, or None unless
    every line has p fields, none over `longest` bytes."""
    text = np.frombuffer(block, dtype=np.uint8)
    ends = text == ord("\n")
    seps = np.flatnonzero(ends | (text == ord(",")))
    # the block ends with a \n, so if every p-th separator ends a line and
    # no other one does, every line has p fields
    rows = len(seps) // p
    if np.count_nonzero(ends) != rows or not ends[seps[p - 1 :: p]].all():
        return None
    lengths = np.diff(seps, prepend=-1)
    lengths -= 1
    # in one column an empty field is a blank line, which csv reads as no row
    if lengths.max() > longest or (p == 1 and not lengths.all()):
        return None
    starts = np.subtract(seps, lengths, out=seps)  # in place, to bound the peak
    # each field's 8 bytes from where it starts, an unaligned load
    words = np.ndarray(len(block), dtype="<u8", buffer=block + bytes(_KEY_BYTES), strides=(1,))
    keys = words.take(starts)
    keys &= _MASKS.take(lengths)
    return keys.reshape(rows, p).T.copy()  # a column's keys contiguous


def _line_breaks(row: list[str]) -> int:
    """Line breaks inside a row's quoted cells: \\n, \\r and \\r\\n each end a line."""
    return sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row)


def _parse(reader, source: str) -> IngestedDataset:
    """Code the rows of a `csv.reader`; `reader.line_num` numbers error lines."""
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{source}: empty file, expected a header row") from None
    if not header or any(not h for h in header):
        raise InvalidInputError(f"{source}: header must name every column")
    if len(set(header)) != len(header):
        raise InvalidInputError(f"{source}: duplicate column names in header")

    p = len(header)
    # a missing label gets the next code, its table's length before the insert
    tables = [defaultdict() for _ in range(p)]
    for table in tables:
        table.default_factory = table.__len__
    parts: list[list[np.ndarray]] = [[] for _ in range(p)]
    while True:
        line = reader.line_num  # the last line before this chunk
        if not (rows := list(islice(reader, _CHUNK_ROWS))):
            break
        if set(map(len, rows)) != {p}:
            i = next(i for i, row in enumerate(rows) if len(row) != p)
            # the physical line on which row i ends, as csv errors name it
            line += sum(1 + _line_breaks(row) for row in rows[: i + 1])
            raise InvalidInputError(f"{source}:{line}: expected {p} cells, got {len(rows[i])}")
        for table, column, coded in zip(tables, zip(*rows), parts):
            # a chunk adds at most len(rows) labels, so its codes lie below this
            dtype = code_dtype([len(table) + len(rows)])
            codes = np.fromiter(map(table.__getitem__, column), dtype, len(rows))
            # kept in the dtype of the labels seen, often narrower
            coded.append(codes.astype(code_dtype([len(table)]), copy=False))
    if not parts[0]:  # not one chunk was read
        raise InvalidInputError(f"{source}: no data rows")
    return _dataset(header, [tuple(table) for table in tables], parts)


def _dataset(
    header: list[str], dictionaries: Sequence[tuple[str, ...]], parts: list[list[np.ndarray]]
) -> IngestedDataset:
    """The sample of each column's coded chunks, named by the header."""
    columns = []
    for coded in parts:  # join each column, dropping its chunks as it goes
        columns.append(np.concatenate(coded))
        coded.clear()
    sample = CategoricalSample.from_columns(
        columns,
        cardinalities=[len(d) for d in dictionaries],
        column_names=header,
    )
    return IngestedDataset(dictionaries=tuple(dictionaries), sample=sample)


def sample_to_csv(sample: CategoricalSample) -> str:
    """Render a coded sample as CSV text, codes written as decimal strings."""
    if sample.column_names is None:
        raise InvalidInputError("sample needs column names to be written as CSV")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(sample.column_names)
    codes = sample.codes
    row = ",".join(["%d"] * codes.shape[1]) + "\n"
    for lo in range(0, len(codes), _CHUNK_ROWS):
        chunk = codes[lo : lo + _CHUNK_ROWS]
        out.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return out.getvalue()


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    A new file gets the mode `open` would give it (0o666 less the umask); a
    file written over keeps its mode. A path that cannot be written is an
    `InvalidInputError`, and the temp file is removed.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    try:
        # a new file, masked by the umask as `open` masks one
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            try:
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise
