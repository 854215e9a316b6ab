"""CSV ingestion for categorical data.

Cells are opaque strings: no numeric parsing, no missing-value magic. Each
column gets a dictionary of labels in first-appearance order and the cell
strings become the matching integer codes, so decoding a code through the
dictionary reproduces the original cell exactly. A file that is not UTF-8
text, or that holds a field over the csv module's size limit, is rejected
with `InvalidInputError` naming the file.

Coding is column-wise: rows are read `_CHUNK_ROWS` at a time and each
column of a chunk is coded with one dictionary lookup per cell, giving the
codes a row-by-row reading would, in the narrowest dtype that holds them. A
row of the wrong length is reported, by the physical line it ends on, once
its chunk is read, so a csv error or an undecodable byte later in the same
chunk is reported first; either is an `InvalidInputError`.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .sample import CategoricalSample, code_dtype

# Rows read, transposed and coded at a time. A few thousand rows keep a
# chunk's cells in cache; transposing the whole file at once is slower.
_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class IngestedDataset:
    """A parsed CSV: the coded sample, named by the header, and each column's
    labels, indexed by code."""

    dictionaries: tuple[tuple[str, ...], ...]
    sample: CategoricalSample


def read_csv(path: str | Path) -> IngestedDataset:
    path = Path(path)
    try:
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

    dictionaries = tuple(tuple(table) for table in tables)
    columns = []
    for coded in parts:  # join each column, dropping its chunks as it goes
        columns.append(np.concatenate(coded))
        coded.clear()
    sample = CategoricalSample.from_columns(
        columns,
        cardinalities=[len(d) for d in dictionaries],
        column_names=header,
    )
    return IngestedDataset(dictionaries=dictionaries, sample=sample)


def sample_to_csv(sample: CategoricalSample) -> str:
    """Render a coded sample as CSV text, codes written as decimal strings."""
    if sample.column_names is None:
        raise InvalidInputError("sample needs column names to be written as CSV")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(sample.column_names)
    writer.writerows(sample.codes.tolist())
    return out.getvalue()


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
