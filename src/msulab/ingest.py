"""CSV ingestion for categorical data.

Cells are opaque strings: no numeric parsing, no missing-value magic. Each
column gets a dictionary of labels in first-appearance order and the cell
strings become the matching integer codes, so decoding a code through the
dictionary reproduces the original cell exactly.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

from .errors import InvalidInputError
from .sample import CategoricalSample


@dataclass(frozen=True)
class IngestedDataset:
    """A parsed CSV: header, per-column label dictionaries, coded sample."""

    source: str
    header: tuple[str, ...]
    dictionaries: tuple[tuple[str, ...], ...]
    sample: CategoricalSample

    def decode_row(self, row_index: int) -> tuple[str, ...]:
        codes = self.sample.codes[row_index]
        return tuple(self.dictionaries[j][code] for j, code in enumerate(codes))


def read_csv(path: str | Path) -> IngestedDataset:
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return _parse(fh, str(path))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse(fh: IO[str], source: str) -> IngestedDataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{source}: empty file, expected a header row") from None
    if not header or any(not h for h in header):
        raise InvalidInputError(f"{source}: header must name every column")
    if len(set(header)) != len(header):
        raise InvalidInputError(f"{source}: duplicate column names in header")

    p = len(header)
    label_codes: list[dict[str, int]] = [{} for _ in range(p)]
    rows: list[list[int]] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != p:
            raise InvalidInputError(f"{source}:{lineno}: expected {p} cells, got {len(row)}")
        coded = []
        for j, cell in enumerate(row):
            table = label_codes[j]
            code = table.setdefault(cell, len(table))
            coded.append(code)
        rows.append(coded)
    if not rows:
        raise InvalidInputError(f"{source}: no data rows")

    dictionaries = tuple(tuple(table) for table in label_codes)
    sample = CategoricalSample.from_columns(
        list(zip(*rows)),
        cardinalities=[len(d) for d in dictionaries],
        column_names=header,
    )
    return IngestedDataset(
        source=source, header=tuple(header), dictionaries=dictionaries, sample=sample
    )


def sample_to_csv(sample: CategoricalSample) -> str:
    """Render a coded sample as CSV text, codes written as decimal strings."""
    if sample.column_names is None:
        raise InvalidInputError("sample needs column names to be written as CSV")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(sample.column_names)
    for row in sample.codes:
        writer.writerow([str(int(v)) for v in row])
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
