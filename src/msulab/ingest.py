"""CSV ingestion for categorical data.

Cells are opaque strings: no numeric parsing, no missing-value magic. Each
column gets a dictionary of labels in first-appearance order and the cell
strings become the matching integer codes, so decoding a code through the
dictionary reproduces the original cell exactly. A file that is not UTF-8
text, or that holds a field over the csv module's size limit, is rejected
with `InvalidInputError` naming the file.

A plain file is coded from its bytes in one pass. It is read in blocks of
about `_BLOCK_BYTES`, each cut after its last line end. Each block is
checked for a `"`, `\\r` or NUL byte and for UTF-8 text, and then coded:
its `,` and `\\n` bytes are found with numpy, and each field is keyed by
its bytes as one little-endian uint64 (fields of at most 8 bytes, none
holding a NUL, so the key is unambiguous). One open-addressing hash table
per file holds every column's known keys beside their codes, each column
in a power-of-two region of its own, at most half full. A block is coded
at once: every field's home slot comes from a multiplicative hash, one
gather compares it with the key, and linear-probe rounds run over only the
fields not yet found. A probe that ends on an empty slot has found a new
label; new labels take their column's next codes in first-appearance order
and are put in where their probes ended. The table is laid out anew when a
region doubles, or with the next multiplier when a block needs more than
`_MAX_ROUNDS` probe rounds, so crafted labels cannot make a read quadratic;
codes never depend on the layout. Labels are decoded from their keys at
the end. Without quotes, CRs or NULs, the csv module's excel dialect cuts
fields at every `,` and rows at every `\\n`, so this gives exactly its
split.

Any other file is read with `csv.reader`, which is also the one reporter of
errors: the byte-level coder never raises, it declines, and the file is
read again from its start. It declines at a `"`, `\\r` or NUL byte, a blank
line, a row without as many fields as the header, a header that fails its
checks, bytes that are not UTF-8, a field over 8 bytes or over
`csv.field_size_limit()`, and a file without data rows. The csv path reads
rows `_CHUNK_ROWS` at a time and codes each column of a chunk with one
dictionary lookup per cell. The byte-level coder keeps a row-major chunk
of codes per block, the csv path one per `_CHUNK_ROWS` rows, each in the
narrowest dtype that holds every column's labels seen so far; the chunks
are copied into the sample's column-major matrix at the end. A row of the
wrong length is reported, by the physical line it ends on, once its chunk
is read, so a csv error or an undecodable byte later in the same chunk is
reported first; either is an `InvalidInputError`. A file the coder
declines late has been coded up to the block that fails, and the csv path
reads it again from its start, so a file that cannot seek (a pipe) is read
into memory first.

`sample_to_csv` writes a sample back, `_WRITE_CELLS` codes at a time: numpy
lays a block's rows out at fixed width, each code zero-padded to its
column's widest, and a mask drops the padding, so no cell is formatted by
Python; each block is decoded once as ASCII, and the blocks are joined
after the header.
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
from .sample import CategoricalSample, _Filled, _shown, code_dtype, code_matrix

# Rows read, transposed and coded at a time by the csv path. A few thousand
# rows keep a chunk's cells in cache; transposing the whole file at once is
# slower.
_CHUNK_ROWS = 2048

# Cells `sample_to_csv` turns into text at a time, so its temporaries stay
# bounded however wide the sample: at most 20 bytes of fixed-width text and
# 20 bytes of mask a cell. Fewer, or many more, made it slower.
_WRITE_CELLS = 1 << 16

# Bytes the byte-level coder reads at a time; a block runs on to its last
# line end, so it holds whole rows.
_BLOCK_BYTES = 1 << 16
# A key holds a field of up to 8 bytes; _MASKS[n] keeps a word's first n bytes.
_KEY_BYTES = 8
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(_KEY_BYTES + 1)], dtype="<u8")
# 8 bytes of 0xff are never UTF-8, so no key is this: it marks an empty slot.
_EMPTY = _MASKS[-1]
# A column's region of the hash table starts at 2**_MIN_BITS slots.
_MIN_BITS = 2
# Odd multipliers of the multiplicative hash, the golden ratio's first.
_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xFF51AFD7ED558CCD)
# Probe rounds after which a block's lookup or insert gives up and lays the
# table out with the next multiplier, so that keys crafted to share a home
# slot cost at most this many rounds a block. Ordinary labels stay far
# below it: 1,000,000 ids, or random 8-byte labels, left no run of held
# slots longer than 46.
_MAX_ROUNDS = 128


@dataclass(frozen=True)
class IngestedDataset:
    """A parsed CSV: the coded sample, named by the header, and each column's
    labels, indexed by code."""

    dictionaries: tuple[tuple[str, ...], ...]
    sample: CategoricalSample


def read_csv(path: str | Path) -> IngestedDataset:
    try:
        path = Path(path)
    except TypeError:
        raise InvalidInputError(f"path must be a str or os.PathLike, got {_shown(path)}") from None
    try:
        with path.open("rb") as fh:
            # both paths read from the start, and a pipe can be read only once
            data = fh if fh.seekable() else io.BytesIO(fh.read())
            if (plain := _read_plain(data)) is None:
                data.seek(0)
                reader = csv.reader(io.TextIOWrapper(data, encoding="utf-8", newline=""))
                try:
                    return _parse(reader, str(path))
                except csv.Error as exc:  # e.g. a field over the csv module's size limit
                    raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
        return _dataset(*plain)  # the blocks' buffers are freed by now
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


def _multipliers() -> Iterator[np.uint64]:
    """The hash multipliers in the order a table takes them: the fixed ones,
    then random odd ones, against which no file can be crafted."""
    yield from map(np.uint64, _MULTIPLIERS)
    while True:
        yield np.uint64(int.from_bytes(os.urandom(8), "little") | 1)


class _Table:
    """Every column's labels as keys, in one open-addressing hash table.

    Column j owns the 2**bits[j] slots from starts[j], at most half of them
    holding a key beside its code; the others hold `_EMPTY`. A key's probe
    starts at its home, the slot numbered by the top bits[j] bits of
    key * multiplier, and steps on, wrapping within the region, to the slot
    holding the key or to an empty one, where a new key goes.
    """

    def __init__(self, p: int) -> None:
        self.counts = np.zeros(p, dtype=np.int64)  # each column's labels
        self.multipliers = _multipliers()
        self._allocate(np.full(p, _MIN_BITS), next(self.multipliers))

    def _allocate(self, bits: np.ndarray, multiplier: np.uint64) -> None:
        """Empty regions of 2**bits slots, hashed with `multiplier`."""
        self.bits, self.multiplier = bits, multiplier
        sizes = 1 << bits
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        self.shifts = (64 - bits).astype(np.uint64)
        self.keys = np.full(self.ends[-1], _EMPTY)
        self.codes = np.empty(len(self.keys), dtype=code_dtype([int(self.counts.max())]))

    def code(self, keys: np.ndarray) -> np.ndarray:
        """The codes of a block's (rows, p) keys, in the dtype of the labels
        seen; keys not seen before take the next codes of their columns."""
        p = keys.shape[1]
        slots = keys * self.multiplier
        slots >>= self.shifts
        slots += self.starts.astype(np.uint64)
        slots = slots.ravel().view(np.int64)
        keys = keys.ravel()
        # probe on, over only the fields not yet found
        at = np.flatnonzero(self.keys.take(slots) != keys)
        new = []  # fields whose probe ended on an empty slot
        for _ in range(_MAX_ROUNDS):
            held = self.keys.take(slots[at])
            new.append(at[held == _EMPTY])
            if not len(at := at[(held != keys[at]) & (held != _EMPTY)]):
                break
            slots[at] = self._step(at % p, slots[at])
        else:  # crafted keys crowd a region: lay the table out anew, adding no label
            self._layout(self.bits, next(self.multipliers), at[:0], keys[:0], at[:0])
            return self.code(keys.reshape(-1, p))
        codes = self.codes.take(slots)  # before new labels move any slot
        if len(new := np.sort(np.concatenate(new))):
            fresh = self._add(keys.take(new), new, slots.take(new), p)
            codes = codes.astype(self.codes.dtype, copy=False)
            codes[new] = fresh
        return codes.reshape(-1, p)

    def _add(self, keys: np.ndarray, fields: np.ndarray, slots: np.ndarray, p: int) -> np.ndarray:
        """The codes of a block's fields, numbered row by row, whose keys the
        table lacks, given in order with the empty slots their probes ended
        on: each new label takes its column's next code, in first-appearance
        order, and is put in."""
        cols = fields % p
        # a stable sort keeps each label's first field first among equals
        order = np.lexsort((keys, cols))
        keys, cols, fields, slots = keys[order], cols[order], fields[order], slots[order]
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        first[1:] = (keys[1:] != keys[:-1]) | (cols[1:] != cols[:-1])
        keys, cols, fields, slots = keys[first], cols[first], fields[first], slots[first]
        # the labels by column, then by first field: their code order
        in_order = np.argsort(cols * (fields.max() + 1) + fields)
        in_cols = cols[in_order]
        ranks = np.arange(len(keys)) - np.searchsorted(in_cols, in_cols)  # within a column
        codes = np.empty(len(keys), dtype=np.int64)
        codes[in_order] = self.counts[in_cols] + ranks
        np.add.at(self.counts, cols, 1)
        bits = self.bits.copy()
        while (small := 1 << bits < 2 * self.counts).any():
            bits[small] += 1
        self.codes = self.codes.astype(code_dtype([int(self.counts.max())]), copy=False)
        if (bits != self.bits).any():
            self._layout(bits, self.multiplier, cols, keys, codes)
        # in place: every slot a probe passed on its way to the empty one is full
        elif (left := self._insert(cols, keys, codes, slots)) is not None:
            self._layout(self.bits, next(self.multipliers), *left)
        coded = np.empty(len(order), dtype=np.int64)
        coded[order] = codes[np.cumsum(first) - 1]
        return coded

    def _layout(self, bits, multiplier, cols, keys, codes) -> None:
        """Lay the table out anew in regions of 2**bits slots, holding its
        labels and the given ones, trying multipliers from `multiplier` on
        until every label is put in."""
        held = np.flatnonzero(self.keys != _EMPTY)
        cols = np.concatenate([np.searchsorted(self.ends, held, side="right"), cols])
        keys = np.concatenate([self.keys[held], keys])
        codes = np.concatenate([self.codes[held], codes])
        self._allocate(bits, multiplier)
        while True:
            homes = ((keys * self.multiplier) >> self.shifts[cols]).view(np.int64) + self.starts[cols]
            if self._insert(cols, keys, codes, homes) is None:
                return
            self._allocate(bits, next(self.multipliers))

    def _insert(self, cols, keys, codes, slots):
        """Put labels not in the table into empty slots, probing on from
        `slots`; the (cols, keys, codes) of those left after `_MAX_ROUNDS`
        rounds, or None."""
        for _ in range(_MAX_ROUNDS):
            free = self.keys.take(slots) == _EMPTY
            self.keys[slots[free]] = keys[free]
            # of the keys sent to one empty slot, the one written there took it
            put = self.keys.take(slots) == keys
            self.codes[slots[put]] = codes[put]
            if put.all():
                return None
            cols, keys, codes = cols[~put], keys[~put], codes[~put]
            slots = self._step(cols, slots[~put])
        return cols, keys, codes

    def _step(self, cols: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Each slot's next one, wrapping at the end of its column's region."""
        slots = slots + 1
        wrap = slots == self.ends[cols]
        slots[wrap] = self.starts[cols[wrap]]
        return slots

    def labels(self) -> list[tuple[str, ...]]:
        """Each column's labels, in code order."""
        held = np.flatnonzero(self.keys != _EMPTY)
        # column by column, each in code order
        ends = np.cumsum(self.counts)
        at = (ends - self.counts)[np.searchsorted(self.ends, held, side="right")] + self.codes[held]
        text = np.empty((ends[-1], _KEY_BYTES + 1), dtype=np.uint8)
        text[at, :_KEY_BYTES] = self.keys[held, None].view(np.uint8)
        text[:, _KEY_BYTES] = ord("\n")
        # a label holds no NUL, so dropping the keys' zero padding leaves the
        # labels, each ended by a \n, which no label holds either
        labels = text[text != 0].tobytes().decode("utf-8").split("\n")[:-1]
        return [tuple(labels[lo:hi]) for lo, hi in zip([0, *ends.tolist()], ends.tolist())]


def _read_plain(fh: BinaryIO) -> tuple[list[str], list, list[np.ndarray]] | None:
    """`_dataset`'s arguments for a file coded from its bytes, or None where
    the csv path must read it."""
    limit = csv.field_size_limit()
    header, chunks = None, []
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
            table = _Table(len(header))
            if not block:
                continue
        if (keys := _keys(block, len(header), min(_KEY_BYTES, limit))) is None:
            return None
        chunks.append(table.code(keys))
    if not chunks:
        return None
    return header, table.labels(), chunks


def _keys(block: bytes, p: int, longest: int) -> np.ndarray | None:
    """The (rows, p) field keys of a block of whole lines, or None unless
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
    return keys.reshape(rows, p)


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
    chunks: list[np.ndarray] = []
    while True:
        line = reader.line_num  # the last line before this chunk
        if not (rows := list(islice(reader, _CHUNK_ROWS))):
            break
        if set(map(len, rows)) != {p}:
            i = next(i for i, row in enumerate(rows) if len(row) != p)
            # the physical line on which row i ends, as csv errors name it
            line += sum(1 + _line_breaks(row) for row in rows[: i + 1])
            raise InvalidInputError(f"{source}:{line}: expected {p} cells, got {len(rows[i])}")
        # a chunk adds at most len(rows) labels to a column, so its codes lie below this
        codes = np.empty((len(rows), p), code_dtype([max(map(len, tables)) + len(rows)]))
        for j, (table, column) in enumerate(zip(tables, zip(*rows))):
            codes[:, j] = np.fromiter(map(table.__getitem__, column), codes.dtype, len(rows))
        # kept in the dtype of the labels seen, often narrower
        chunks.append(codes.astype(code_dtype([max(map(len, tables))]), copy=False))
    if not chunks:
        raise InvalidInputError(f"{source}: no data rows")
    return _dataset(header, [tuple(table) for table in tables], chunks)


def _dataset(
    header: list[str], dictionaries: Sequence[tuple[str, ...]], chunks: list[np.ndarray]
) -> IngestedDataset:
    """The sample of the (rows, p) coded chunks, one after another, named by
    the header."""
    cards = [len(d) for d in dictionaries]
    codes = code_matrix(sum(map(len, chunks)), cards)
    np.concatenate(chunks, out=codes)
    sample = CategoricalSample(_Filled(codes), cards, tuple(header))
    return IngestedDataset(dictionaries=tuple(dictionaries), sample=sample)


def csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with each quote doubled, where it
    holds a comma, a quote, CR or LF. `csv.reader` ends a line at a lone CR
    too, so a field holding one is quoted, which `csv.writer` with a "\\n"
    line terminator does not do (checked on Python 3.11.7)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def sample_to_csv(sample: CategoricalSample) -> str:
    """Render a coded sample as CSV text, codes written as decimal strings
    and each column name as one `csv_field`, so `read_csv` reads it back.

    The codes are turned into text with numpy, `_WRITE_CELLS` at a time. A
    block's rows are first laid out at a fixed width: each field as many
    digits wide as its column's largest code, zeros padded on the left, then
    its `,` or `\\n`. Columns of the same width are written together, one
    digit position at a time from the right: `code - 10 * (code // 10)`,
    plus ord("0"). A digit left of a code's last nonzero quotient is
    padding, and a mask drops it; a block whose codes are all below 10 has
    none. What is left is the block's text, decoded once as ASCII.
    """
    if not isinstance(sample, CategoricalSample):
        raise InvalidInputError(f"sample must be a CategoricalSample, got {type(sample).__name__}")
    if sample.column_names is None:
        raise InvalidInputError("sample needs column names to be written as CSV")
    codes = sample.codes
    digits = np.array([len(str(int(top))) for top in codes.max(axis=0)])
    ends = np.cumsum(digits + 1)  # past each field's separator, in a fixed-width row
    row = np.full(ends[-1], ord(","), np.uint8)  # its separators; each digit is written over
    row[-1] = ord("\n")
    widths = [(np.flatnonzero(digits == d), d) for d in set(digits.tolist())]
    padded = digits.max() > 1
    parts = [",".join(map(csv_field, sample.column_names)) + "\n"]
    rows = max(1, _WRITE_CELLS // codes.shape[1])
    for lo in range(0, len(codes), rows):
        block = codes[lo : lo + rows]
        text = np.tile(row, (len(block), 1))
        keep = np.ones(text.shape, bool) if padded else None
        for columns, width in widths:
            left = block[:, columns]  # each code, then each of its quotients by 10
            ones = ends[columns] - 2
            for place in range(width - 1):
                quotient = left // 10
                text[:, ones - place] = left - quotient * 10 + ord("0")
                left = quotient
                keep[:, ones - place - 1] = left != 0  # else padding
            text[:, ones - width + 1] = left + ord("0")  # the leading digit, below 10
        parts.append(str(memoryview(text[keep] if padded else text.reshape(-1)), "ascii"))
    return "".join(parts)


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
