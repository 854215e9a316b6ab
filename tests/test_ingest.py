"""Tests for CSV ingestion: the byte-level coder, its hash table included,
and the chunked csv-module coder against the row-by-row reference coder, the
byte-level coder's declines, error reporting, memory use, and CSV writing."""

import csv
import io
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from msulab import (
    AttributeBlock,
    CategoricalSample,
    GeneratorKind,
    InvalidInputError,
    SeededRng,
    block,
    generate_dataset,
    ingest,
    read_csv,
)
from msulab.ingest import _BLOCK_BYTES, _CHUNK_ROWS, _WRITE_CELLS, sample_to_csv
from oracle_utils import reference_read_csv

CHUNK = _CHUNK_ROWS

# cells the csv module must quote, or that are easy to mishandle
AWKWARD_LABELS = [
    "", " ", "a,b", 'say "hi"', '"', "line\nbreak", "cr\rlf\r\n", ",,", "ñandú", "日本語", "🎲",
    "Ünïcödé, \"quoted\"\nand broken",
]


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def random_rows(rng, m, p):
    """m rows over p columns of mixed labels; column 0 gains new labels late."""
    pools = [
        AWKWARD_LABELS + [f"v{i}" for i in range(int(rng.integers(1, 40)))] for _ in range(p)
    ]
    rows = [[pool[int(rng.integers(len(pool)))] for pool in pools] for _ in range(m)]
    # labels that first appear after the first chunk, in first and later columns
    for i in range(CHUNK, m, max(1, CHUNK // 3)):
        rows[i][-1] = f"late-é-{i % 7}"
        rows[i][0] = f"late-{i}"
    return rows


def assert_matches_reference(path):
    header, dictionaries, sample = reference_read_csv(path)
    data = read_csv(path)
    assert data.sample.column_names == header
    assert data.dictionaries == dictionaries
    assert data.sample == sample
    assert data.sample.codes.flags.f_contiguous
    return data


class TestCoderOracle:
    @pytest.mark.parametrize(
        "m", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17],
        ids=["one", "chunk-1", "chunk", "chunk+1", "several-chunks"],
    )
    def test_same_codes_as_the_row_by_row_coder(self, tmp_path, m):
        rng = np.random.default_rng(m)
        path = tmp_path / "data.csv"
        for trial in range(2):
            p = int(rng.integers(1, 6))
            header = [f"c{j},\"{trial}\"" if j % 2 else f"c{j}" for j in range(p)]
            rows = random_rows(rng, m, p)
            write_rows(path, header, rows)
            data = assert_matches_reference(path)
            decoded = [[labels[c] for labels, c in zip(data.dictionaries, codes)]
                       for codes in data.sample.codes.tolist()]
            assert decoded == rows
            if m > CHUNK:
                assert f"late-{CHUNK}" in data.dictionaries[0]

    def test_codes_follow_first_appearance_across_chunks(self, tmp_path):
        path = tmp_path / "data.csv"
        labels = ["b"] * CHUNK + ["a", "c", "b", "a"]
        write_rows(path, ["x"], [[v] for v in labels])
        data = assert_matches_reference(path)
        assert data.dictionaries == (("b", "a", "c"),)
        assert data.sample.codes[CHUNK - 1:, 0].tolist() == [0, 1, 2, 0, 1]
        assert data.sample.cardinalities == (3,)

    def test_chunks_of_different_dtypes_join_into_the_narrow_matrix(self, tmp_path):
        # every label new: chunks code in uint16 until the table nears
        # 65,536 labels and in uint32 after, and the matrix takes uint32
        m = 65_536 + 2 * CHUNK + 3
        path = tmp_path / "data.csv"
        write_rows(path, ["id", "flag"], [[f"r{i}", "yn"[i % 2]] for i in range(m)])
        data = read_csv(path)
        assert data.sample.codes.dtype == np.uint32
        assert np.array_equal(data.sample.codes[:, 0], np.arange(m))
        assert np.array_equal(data.sample.codes[:, 1], np.arange(m) % 2)
        assert data.dictionaries[0][-1] == f"r{m - 1}" and data.sample.cardinalities == (m, 2)


@pytest.fixture
def csv_path_calls(monkeypatch):
    """The files `read_csv` hands to its csv-module path, as they come."""
    calls = []

    def parse(reader, source):
        calls.append(source)
        return csv_parse(reader, source)

    csv_parse = ingest._parse
    monkeypatch.setattr(ingest, "_parse", parse)
    return calls


# plain labels: no comma, quote, CR or NUL, and at most 8 bytes
PLAIN_LABELS = ["", "a", "b", "no", "yes", "x" * 8, "12345678", "ñandú", "日本", "é", "🎲", " "]


def write_plain(path, header, rows, end="\n"):
    text = "\n".join(",".join(row) for row in [header, *rows]) + end
    path.write_bytes(text.encode("utf-8"))


def assert_byte_level_matches_reference(path, csv_path_calls):
    data = assert_matches_reference(path)
    assert csv_path_calls == [], "the csv path read the file"
    return data


class TestByteLevelCoder:
    def test_several_blocks_with_late_labels(self, tmp_path, csv_path_calls):
        rng = np.random.default_rng(7)
        m, p = 40_000, 4
        rows = [[PLAIN_LABELS[i] for i in rng.integers(len(PLAIN_LABELS), size=p)] for _ in range(m)]
        # labels that first appear in later blocks, in the first and last columns
        late = range(m // 2, m, 997)
        for i in late:
            rows[i][0], rows[i][-1] = f"L{i % 5}", f"late{i % 1000}"
        path = tmp_path / "data.csv"
        write_plain(path, [f"c{j}" for j in range(p)], rows)
        assert path.stat().st_size > 8 * _BLOCK_BYTES
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert data.dictionaries[-1][-len(late):] == tuple(f"late{i % 1000}" for i in late)
        assert data.sample.codes.dtype == np.uint8

    def test_every_label_new_widens_the_codes(self, tmp_path, csv_path_calls):
        m = 70_000
        path = tmp_path / "data.csv"
        write_plain(path, ["id", "flag"], [[f"r{i}", "yn"[i % 2]] for i in range(m)])
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert data.sample.codes.dtype == np.uint32
        assert np.array_equal(data.sample.codes[:, 0], np.arange(m))

    @pytest.mark.parametrize(
        "header, rows, end",
        [
            (["only"], [["a"], ["b"], ["a"], ["日本"]], "\n"),
            (["a", "b"], [["x", "y"], ["z", "y"]], ""),
            (["a", "b", "c"], [["x", "", "y"], ["", "", ""], ["x", "", "y"]], "\n"),
            (["a", "b"], [["12345678", "x" * 8], ["1234567", "x" * 8], ["12345678", "x"]], "\n"),
            (["ñandú", "日本"], [["ñandú", "日本"], ["日本", "ñandú"], ["é", "🎲"]], "\n"),
            (["a", "b"], [["x", "y"]], "\n"),
        ],
        ids=["one-column", "no-trailing-newline", "empty-fields", "eight-byte-fields",
             "multibyte-labels", "one-row"],
    )
    def test_small_files(self, tmp_path, csv_path_calls, header, rows, end):
        path = tmp_path / "data.csv"
        write_plain(path, header, rows, end)
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        decoded = [[labels[c] for labels, c in zip(data.dictionaries, codes)]
                   for codes in data.sample.codes.tolist()]
        assert decoded == rows

    def test_row_longer_than_a_block(self, tmp_path, csv_path_calls):
        p = _BLOCK_BYTES // 8
        header = [f"c{j}" for j in range(p)]
        rows = [["abcdefgh"] * p, ["x"] * p, [f"{j % 3}" for j in range(p)]]
        path = tmp_path / "wide.csv"
        write_plain(path, header, rows)
        assert len(",".join(rows[0])) > _BLOCK_BYTES
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert data.sample.codes.shape == (3, p)

    def test_blocks_of_a_few_bytes(self, tmp_path, csv_path_calls, monkeypatch):
        # every row spans reads, and some reads hold no line end
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 5)
        rng = np.random.default_rng(3)
        rows = [[PLAIN_LABELS[i] for i in rng.integers(len(PLAIN_LABELS), size=3)] for _ in range(200)]
        path = tmp_path / "data.csv"
        write_plain(path, ["a", "bb", "ccc"], rows, end="")
        assert_byte_level_matches_reference(path, csv_path_calls)


def plain_text(rows=30_000):
    """A plain file of several blocks, as text; data row i is line i + 2."""
    return "a,b\n" + "".join(f"{i % 13},v{i % 7}\n" for i in range(rows))


def replace_row(text, i, row):
    lines = text.split("\n")
    lines[i + 1] = row
    return "\n".join(lines)


LAST = 29_999  # the last data row of `plain_text()`, line 30,001


@pytest.mark.parametrize(
    "data, limit, message",
    [
        (replace_row(plain_text(), LAST, '"q",v1').encode(), None, None),
        (plain_text().replace("\n", "\r\n").encode(), None, None),
        (replace_row(plain_text(), 5, "x\0y,v1").encode(), None, None),
        (replace_row(plain_text(), 20_000, "").encode(), None, ":20002: expected 2 cells, got 0"),
        (b"a\nx\n\ny\n", None, ":3: expected 1 cells, got 0"),
        (replace_row(plain_text(), 20_000, "x").encode(), None, ":20002: expected 2 cells, got 1"),
        (replace_row(plain_text(), 20_000, "x,y,z").encode(), None, ":20002: expected 2 cells, got 3"),
        # two bad rows that together hold two rows' worth of separators
        (replace_row(replace_row(plain_text(), 20_000, "x"), 20_001, "y").encode(), None,
         ":20002: expected 2 cells, got 1"),
        (replace_row(replace_row(plain_text(), 20_000, "x"), 20_001, "y,z,w").encode(), None,
         ":20002: expected 2 cells, got 1"),
        (plain_text().encode()[:-2] + b"\xe9\n", None, ": not UTF-8 text"),
        (replace_row(plain_text(), 9, "123456789,v1").encode(), None, None),
        (replace_row(plain_text(), 20_000, "abcde,v1").encode(), 4,
         ":20002: field larger than field limit (4)"),
        (b"abcde,b\nx,y\n", 4, ":1: field larger than field limit (4)"),
    ],
    ids=["quote-in-last-block", "crlf", "nul", "blank-line", "blank-line-one-column",
         "short-row-late", "long-row-late", "two-short-rows", "short-then-long-row",
         "bad-utf8-late", "nine-byte-field", "field-over-size-limit", "header-name-over-size-limit"],
)
def test_byte_level_coder_declines(tmp_path, csv_path_calls, data, limit, message):
    path = tmp_path / "declined.csv"
    path.write_bytes(data)
    old_limit = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        if message is None:
            assert_matches_reference(path)
        else:
            with pytest.raises(InvalidInputError) as caught:
                read_csv(path)
            assert str(caught.value) == f"{path}{message}"
    finally:
        csv.field_size_limit(old_limit)
    assert csv_path_calls == [str(path)]


@pytest.fixture
def lookups(monkeypatch):
    """The blocks `read_csv` looks up in its hash table, as (rows, p) shapes,
    and the table's layouts, as the multipliers they hash with."""
    calls = {"code": [], "layout": []}
    code, layout = ingest._Table.code, ingest._Table._layout

    def spy_code(self, keys):
        calls["code"].append(keys.shape)
        return code(self, keys)

    def spy_layout(self, bits, multiplier, *labels):
        calls["layout"].append(int(multiplier))
        return layout(self, bits, multiplier, *labels)

    monkeypatch.setattr(ingest._Table, "code", spy_code)
    monkeypatch.setattr(ingest._Table, "_layout", spy_layout)
    return calls


def crowded_labels(n):
    """n 8-digit labels whose keys share a home slot, the last one, in every
    region of up to 2**10 slots under the table's first multiplier."""
    numbers = np.arange(n * 1_500, dtype=np.uint64)
    digits = np.stack([numbers // np.uint64(10**k) % np.uint64(10) for k in range(7, -1, -1)], axis=1)
    keys = (digits + np.uint64(ord("0"))).astype(np.uint8).view("<u8").ravel()
    top = (keys * np.uint64(ingest._MULTIPLIERS[0])) >> np.uint64(64 - 10)
    labels = [f"{int(k):08d}" for k in numbers[top == (1 << 10) - 1][:n]]
    assert len(labels) == n
    return labels


def introduced(labels, m, rng):
    """m cells that bring in `labels` one by one, each repeated a few times
    at random after it first appears."""
    cells, known = [], 0
    for i in range(m):
        if known < len(labels) and i % (m // len(labels)) == 0:
            known += 1
            cells.append(labels[known - 1])
        else:
            cells.append(labels[int(rng.integers(known))])
    return cells


class TestHashTableCoder:
    def test_labels_sharing_a_home_slot_over_several_blocks(self, tmp_path, csv_path_calls, lookups):
        rng = np.random.default_rng(5)
        m = 20_000
        crowded = introduced(crowded_labels(100), m, rng)
        rows = [[x, "yn"[i % 2]] for i, x in enumerate(crowded)]
        path = tmp_path / "data.csv"
        write_plain(path, ["crowded", "flag"], rows)
        assert path.stat().st_size > 3 * _BLOCK_BYTES
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert len(data.dictionaries[0]) == 100
        # under the probe-round cap, so the first multiplier is kept
        assert set(lookups["layout"]) == {ingest._MULTIPLIERS[0]}

    @pytest.mark.parametrize("way", ["while-probing", "while-laying-out", "while-putting-in"])
    def test_labels_crowding_past_the_probe_round_cap(self, tmp_path, csv_path_calls, lookups, way):
        rng = np.random.default_rng(6)
        if way == "while-probing":
            # the first block puts in a cluster as long as the cap, which the
            # probe of the next new label walks past
            crowded = crowded_labels(ingest._MAX_ROUNDS + 1)
            cells = crowded[:-1] + [crowded[i] for i in rng.integers(len(crowded) - 1, size=10_000)]
            cells += crowded[-1:] + [crowded[i] for i in rng.integers(len(crowded), size=5_000)]
        elif way == "while-laying-out":
            # dozens a block: a doubled region puts them in from their home
            cells = introduced(crowded_labels(3 * ingest._MAX_ROUNDS), 30_000, rng)
        else:
            # 260 labels fill the first block, then 250 crowded ones come in
            # the second, together, into the region sized for 512
            ordinary = [f"o{i % 260}" for i in range(20_000)]
            cells = ordinary + crowded_labels(250) + ordinary
        path = tmp_path / "data.csv"
        write_plain(path, ["crowded"], [[x] for x in cells])
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert len(data.dictionaries[0]) == len(set(cells))
        # the table was hashed anew with another multiplier
        assert lookups["layout"][-1] != ingest._MULTIPLIERS[0]

    def test_a_new_label_on_every_row_lays_the_table_out_log_times(
        self, tmp_path, csv_path_calls, lookups, monkeypatch
    ):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        m = 100_000
        path = tmp_path / "ids.csv"
        write_plain(path, ["id", "flag"], [[f"r{i}", "yn"[i % 2]] for i in range(m)])
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert np.array_equal(data.sample.codes[:, 0], np.arange(m))
        # a layout each time the id column's region doubles, not one a block
        assert len(lookups["code"]) > 200
        assert len(lookups["layout"]) <= 2 + int(np.log2(2 * m))

    @pytest.mark.parametrize("p", [1, 300])
    def test_eight_byte_and_multibyte_labels_over_several_blocks(self, tmp_path, csv_path_calls, p):
        rng = np.random.default_rng(p)
        pool = PLAIN_LABELS + ["€€", "ñandú", "日本", "añoño", "ab" * 4, "🎲🎲"]
        m = 40_000 // p
        rows = [[pool[i] for i in rng.integers(len(pool), size=p)] for _ in range(m)]
        if p == 1:  # an empty field is a blank line, which csv reads as no row
            rows = [row if row[0] else ["e"] for row in rows]
        path = tmp_path / "data.csv"
        write_plain(path, [f"c{j}" for j in range(p)], rows)
        assert path.stat().st_size > 3 * _BLOCK_BYTES
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert data.sample.codes.shape == (m, p)

    def test_labels_first_seen_in_the_last_block(self, tmp_path, csv_path_calls, lookups):
        m = 60_000
        rows = [[f"{i % 9}", "old"] for i in range(m)]
        for i in range(m - 12, m):  # the last rows lie in the last block
            rows[i][1] = f"new{i % 5}"
        path = tmp_path / "data.csv"
        write_plain(path, ["a", "b"], rows)
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert len(lookups["code"]) > 3
        assert data.dictionaries[1] == ("old", "new3", "new4", "new0", "new1", "new2")

    def test_a_column_past_256_labels_takes_uint16(self, tmp_path, csv_path_calls, monkeypatch):
        coded = []

        def dataset(header, dictionaries, chunks):
            coded.extend(chunks)
            return build(header, dictionaries, chunks)

        build = ingest._dataset
        monkeypatch.setattr(ingest, "_dataset", dataset)
        m = 40_000
        # 200 labels in the first blocks, 300 from a later one on
        rows = [[f"w{i % (200 if i < 25_000 else 300)}", "yn"[i % 2]] for i in range(m)]
        path = tmp_path / "data.csv"
        write_plain(path, ["wide", "flag"], rows)
        assert path.stat().st_size > 3 * _BLOCK_BYTES
        data = assert_byte_level_matches_reference(path, csv_path_calls)
        assert data.sample.codes.dtype == np.uint16
        # each block's codes stay in the dtype of the labels seen by then
        assert coded[0].dtype == np.uint8 and coded[-1].dtype == np.uint16


@pytest.mark.parametrize(
    "data, message",
    [
        (replace_row(plain_text(), LAST, '"q",v1').encode(), None),
        (plain_text().encode()[:-2] + b"\xe9\n", ": not UTF-8 text"),
    ],
    ids=["quote-in-last-row", "bad-utf8-in-last-block"],
)
def test_a_file_failing_a_byte_check_late_reaches_the_csv_path(tmp_path, csv_path_calls, data, message):
    path = tmp_path / "declined.csv"
    path.write_bytes(data)
    if message is None:
        assert_matches_reference(path)
    else:
        with pytest.raises(InvalidInputError) as caught:
            read_csv(path)
        assert str(caught.value) == f"{path}{message}"
        with pytest.raises(UnicodeDecodeError):
            reference_read_csv(path)
    assert csv_path_calls == [str(path)]


def test_a_ragged_last_row_reaches_the_csv_path(tmp_path, csv_path_calls):
    # the benchmark's 100,000 x 19 measure file, its last row one field
    # short: the coder declines at the last block, and the csv path reads
    # the file again and names the row
    kind = GeneratorKind
    blocks = [
        AttributeBlock(("x1", "x2"), kind.XOR_PAIR, 2),
        block("w", kind.KONONENKO, 4, 40),
        block("b", kind.KONONENKO, 6, 2),
        block("t", kind.UNIFORM, 6, 3),
    ]
    sample = generate_dataset(100_000, 2, blocks, SeededRng(20170707, 0))
    path = tmp_path / "measure.csv"
    path.write_text(sample_to_csv(sample).rsplit(",", 1)[0] + "\n", encoding="utf-8")
    with pytest.raises(InvalidInputError) as caught:
        read_csv(path)
    assert str(caught.value) == f"{path}:100001: expected 19 cells, got 18"
    assert csv_path_calls == [str(path)]


@pytest.mark.parametrize(
    "text, message",
    [(plain_text(), None), (replace_row(plain_text(), LAST, "12"), ":30001: expected 2 cells, got 1")],
    ids=["plain", "ragged-last-row"],
)
def test_a_plain_file_is_read_in_one_pass(tmp_path, csv_path_calls, monkeypatch, text, message):
    passes, seeks = [], []

    class SeekRecorder:
        """The file, its `seek` calls recorded."""

        def __init__(self, fh):
            self.read = fh.read
            self.fh = fh

        def seek(self, *args):
            seeks.append(args)
            return self.fh.seek(*args)

    def blocks(fh):
        passes.append(fh)
        return read_blocks(fh)

    read_blocks, read_plain = ingest._blocks, ingest._read_plain
    monkeypatch.setattr(ingest, "_blocks", blocks)
    monkeypatch.setattr(ingest, "_read_plain", lambda fh: read_plain(SeekRecorder(fh)))
    path = tmp_path / "data.csv"
    path.write_text(text)
    if message is None:
        assert_byte_level_matches_reference(path, csv_path_calls)
    else:
        with pytest.raises(InvalidInputError) as caught:
            read_csv(path)
        assert str(caught.value) == f"{path}{message}"
        assert csv_path_calls == [str(path)]
    assert len(passes) == 1 and seeks == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
@pytest.mark.parametrize(
    "text", [plain_text(100), replace_row(plain_text(100), 99, '"q",v1')], ids=["plain", "quoted"]
)
def test_a_named_pipe_is_read_once(tmp_path, text):
    # a pipe cannot seek, and opening it again would wait for another writer
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    read = []
    threads = [
        threading.Thread(target=path.write_text, args=(text,), daemon=True),
        threading.Thread(target=lambda: read.append(read_csv(path)), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert read, "read_csv did not return"
    copy = tmp_path / "copy.csv"
    copy.write_text(text)
    _, dictionaries, sample = reference_read_csv(copy)
    assert read[0].dictionaries == dictionaries and read[0].sample == sample


class TestReadCsvErrors:
    @pytest.mark.parametrize("path", [None, 3, ["a.csv"]])
    def test_a_path_of_another_type_rejected(self, path):
        with pytest.raises(InvalidInputError, match=re.escape(f"path must be a str or os.PathLike, got {path!r}")):
            read_csv(path)

    @pytest.mark.parametrize(
        "bad", [0, 2, CHUNK - 1, CHUNK, CHUNK + 9],
        ids=["first-row", "first-chunk", "chunk-end", "second-chunk-start", "second-chunk"],
    )
    def test_ragged_row_names_its_line(self, tmp_path, bad):
        path = tmp_path / "ragged.csv"
        rows = [["x", "y"]] * (CHUNK + 20)
        rows[bad] = ["x"]
        write_rows(path, ["a", "b"], rows)
        # the header is line 1, data row i is line i + 2
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{bad + 2}: expected 2 cells, got 1")):
            read_csv(path)
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{bad + 2}:")):
            reference_read_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            (b'a,b\n"x\ny",z\nq\n', 4),
            (b'a,b\nx,y\n"p\nq"\n', 4),
            (b'a,b\r\n"x\r\ny",z\r\n"p\rq"\r\n', 5),
        ],
        ids=["after-quoted-newline", "ragged-row-spans-two-lines", "crlf-and-cr-in-quotes"],
    )
    def test_ragged_row_names_the_line_it_ends_on(self, tmp_path, text, line):
        # the physical line, as `csv.reader.line_num` numbers csv errors
        path = tmp_path / "rag.csv"
        path.write_bytes(text)
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{line}: expected 2 cells, got 1")):
            read_csv(path)
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{line}:")):
            reference_read_csv(path)

    def test_ragged_row_past_the_first_chunk_after_quoted_newlines(self, tmp_path):
        path = tmp_path / "rag.csv"
        rows = [["two\nlines", "y"] if i % 3 == 0 else ["x", "y"] for i in range(CHUNK + 20)]
        bad = CHUNK + 9
        rows[bad] = ["x"]
        write_rows(path, ["a", "b"], rows)
        line = 1 + sum(1 + "".join(row).count("\n") for row in rows[: bad + 1])
        assert line > bad + 2 + CHUNK // 3
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{line}: expected 2 cells, got 1")):
            read_csv(path)
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{line}:")):
            reference_read_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", ": empty file, expected a header row"),
            ("\n", ": header must name every column"),
            ("a,,c\n1,2,3\n", ": header must name every column"),
            ("a,b,a\n1,2,3\n", ": duplicate column names in header"),
            ("a,b\n", ": no data rows"),
            ("a,b", ": no data rows"),
            ("a,b\nx,y\n\nx,y\n", ":3: expected 2 cells, got 0"),
            ("a,b\nx,y\nx,y,z\n", ":3: expected 2 cells, got 3"),
        ],
        ids=["empty-file", "blank-header", "blank-header-name", "duplicate-names",
             "header-only", "header-without-newline", "blank-line", "extra-cell"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}{message}")):
            read_csv(path)

    def test_ragged_row_and_bad_byte_in_one_chunk_is_an_input_error(self, tmp_path):
        # a chunk is checked once it has been read, so either error may be reported
        path = tmp_path / "both.csv"
        path.write_bytes(b"a,b\nx,y\nx\nx,caf\xe9\n")
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            read_csv(path)


class TestReadCsvMemory:
    def test_peak_stays_near_the_code_matrix(self, tmp_path, csv_path_calls):
        rng = np.random.default_rng(11)
        cards = [2, 2, 3] + [40] * 4 + [2] * 6 + [3] * 6
        codes = np.column_stack([rng.integers(0, c, size=100_000) for c in cards])
        sample = CategoricalSample(codes, tuple(cards), tuple(f"c{j}" for j in range(19)))
        path = tmp_path / "big.csv"
        path.write_text(sample_to_csv(sample), encoding="utf-8")
        small = tmp_path / "small.csv"
        small.write_text("a\nx\n", encoding="utf-8")
        read_csv(small)  # warm caches out of the trace
        tracemalloc.start()
        try:
            data = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.sample.codes.shape == (100_000, 19)
        assert data.sample.codes.dtype == np.uint8
        assert csv_path_calls == []  # read from its bytes
        # the row-major codes, in the dtype of the labels seen (uint8 here,
        # 1.9 MB), plus the 1.9 MB matrix they are copied into: 3.82 MB
        # measured (3.93 MB on the csv path); uint16 codes would take
        # 3.8 MB, int64 ones 15.2 MB
        assert peak < 4_500_000


class TestSampleToCsv:
    @pytest.mark.parametrize("sample", [None, np.zeros((2, 2), dtype=np.uint8)])
    def test_a_sample_of_another_type_rejected(self, sample):
        message = f"^sample must be a CategoricalSample, got {type(sample).__name__}$"
        with pytest.raises(InvalidInputError, match=message):
            sample_to_csv(sample)

    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, 0), (1, 1), (3, 5)], ids=["one-row", "block", "block+1", "3blocks+5"]
    )
    @pytest.mark.parametrize("cards", [(2,), (3, 300, 2), (2**40, 5)], ids=["uint8", "uint16", "int64"])
    def test_same_text_as_the_csv_writer(self, blocks, extra, cards):
        # the writer turns `_WRITE_CELLS` codes into text at a time: whole
        # blocks of rows, and a last block that is cut short
        m = blocks * (_WRITE_CELLS // len(cards)) + extra
        rng = np.random.default_rng(m)
        codes = np.column_stack([rng.integers(0, c, size=m) for c in cards])
        codes[0] = np.array(cards) - 1  # each column's widest code
        names = ["a", 'say "b"', "c,d"][: len(cards)]
        sample = CategoricalSample(codes, cards, names)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(codes.tolist())
        assert sample_to_csv(sample) == out.getvalue()

    def test_names_round_trip_through_read_csv(self, tmp_path):
        # a lone CR ends a line for `csv.reader`, though `csv.writer` with a
        # "\n" line terminator leaves it unquoted
        names = ["a,b", 'say "c"', "d\re", "f\ng", "h\r\ni", "plain"]
        sample = CategoricalSample([[0] * 6, [1] * 6], [2] * 6, names)
        path = tmp_path / "names.csv"
        path.write_bytes(sample_to_csv(sample).encode("utf-8"))
        data = read_csv(path)
        assert data.sample == sample
        assert data.dictionaries == (("0", "1"),) * 6

    @staticmethod
    def _written_by_the_csv_writer(sample):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(sample.column_names)
        writer.writerows(sample.codes.tolist())
        return out.getvalue()

    # the largest code each dtype holds: a cardinality of 2**63 - 1, the
    # largest a sample takes, holds codes up to 2**63 - 2
    @pytest.mark.parametrize(
        "card, dtype", [(2**8, np.uint8), (2**16, np.uint16), (2**32, np.uint32), (2**63 - 1, np.int64)]
    )
    def test_codes_at_every_power_of_ten(self, card, dtype):
        edges = [n for k in range(1, 19) for n in (10**k - 1, 10**k) if n < card] + [0, 1, card - 1]
        rng = np.random.default_rng(card % 1000)
        column = rng.permutation(np.array(edges * 3, dtype=np.int64))
        small = rng.integers(0, 10, size=len(column))
        sample = CategoricalSample.from_columns([small, column, column[::-1], small], [10, card, card, 10], list("abcd"))
        assert sample.codes.dtype == dtype
        assert sample_to_csv(sample) == self._written_by_the_csv_writer(sample)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_a_block(self, offset):
        cards = (2, 40, 1000)
        m = ingest._WRITE_CELLS // len(cards) + offset
        rng = np.random.default_rng(m)
        sample = CategoricalSample(
            np.column_stack([rng.integers(0, c, size=m) for c in cards]), cards, ("x", "y", "z")
        )
        assert sample_to_csv(sample) == self._written_by_the_csv_writer(sample)

    @pytest.mark.parametrize("p, m", [(1, 5000), (2000, 70)])
    def test_one_column_and_two_thousand(self, p, m):
        rng = np.random.default_rng(p)
        cards = rng.integers(1, 300, size=p)
        codes = np.column_stack([rng.integers(0, c, size=m) for c in cards])
        sample = CategoricalSample(codes, cards.tolist(), [f"c{j}" for j in range(p)])
        assert sample_to_csv(sample) == self._written_by_the_csv_writer(sample)

    def test_non_ascii_and_quoted_names(self):
        # no lone CR: `csv.writer` with a "\n" terminator leaves it unquoted
        names = [label for label in AWKWARD_LABELS if "\r" not in label and label]
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 12, size=(300, len(names)))
        sample = CategoricalSample(codes, [12] * len(names), names)
        assert sample_to_csv(sample) == self._written_by_the_csv_writer(sample)

    @pytest.mark.parametrize("cards", [(2, 40, 3), (70_000, 5), (2**40, 2**63 - 1)])
    def test_read_csv_reads_the_same_sample_back(self, tmp_path, cards):
        rng = np.random.default_rng(len(cards))
        columns = [rng.integers(0, c, size=3000, dtype=np.int64) for c in cards]
        sample = CategoricalSample.from_columns(columns, cards, ["é", "b,c", "d"][: len(cards)])
        path = tmp_path / "sample.csv"
        path.write_text(sample_to_csv(sample), encoding="utf-8")
        data = read_csv(path)
        labels = [np.array([int(label) for label in labels]) for labels in data.dictionaries]
        decoded = [labels[j][data.sample.codes[:, j]] for j in range(len(cards))]
        assert CategoricalSample.from_columns(decoded, cards, data.sample.column_names) == sample

    def test_peak_stays_near_the_text(self):
        rng = np.random.default_rng(11)
        cards = [2, 2, 3] + [40] * 4 + [2] * 6 + [3] * 6
        codes = np.column_stack([rng.integers(0, c, size=100_000) for c in cards])
        sample = CategoricalSample(codes, tuple(cards), tuple(f"c{j}" for j in range(19)))
        sample_to_csv(CategoricalSample([[0]], [1], ["a"]))  # warm caches out of the trace
        tracemalloc.start()
        try:
            text = sample_to_csv(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the text's blocks, then the 4.1 MB text they are joined into: 8.2 MB,
        # as for one `str` of the text and its `StringIO` buffer; the fixed-
        # width block and its mask add ~0.3 MB
        assert len(text) == 4_100_298
        assert peak <= 10_500_000
