"""Property tests for the columnar timing parser, the manifest codec, the
other parsers and the synth config loader on odd input, the columnar
renderers, and the column-wise analysis kernels against their loops.

Derandomized, so every run checks the same examples.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from io500kit import cli, ingest, loginsight, metrics, report, stats, synth
from io500kit.config import StragglerParams
from io500kit.errors import ConfigError, Io500KitError, ParseError, SampleSizeError, ValidationError
from io500kit.types import Filesystem, Phase, PhaseResult, ProcessTimingTable, Submission, SubmissionMeta
from oracles import (
    HeatmapData,
    _Axis,
    chi_square_sf_closed_form,
    classify_straggler_pattern_oracle,
    correlation_cells_oracle,
    dumps_manifest_v3_oracle,
    heatmap_from_sidecar,
    joined,
    kruskal_wallis_loop_oracle,
    metric_table_oracle,
    points_oracle,
    quantize_oracle,
    rank_loop_oracle,
    rank_oracle,
    read_manifest_oracle,
    render_corr_heatmap_oracle,
    render_group_box_oracle,
    render_qq_oracle,
    render_score_strip_oracle,
    scan_timing_rows_oracle,
    t_pvalue_closed_form,
)

PHASE = Phase.IOR_EASY_WRITE
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# Tokens that int()/float() accept, and tokens that a timing column must refuse.
ODD_VALID = [" +1 ", "1_0", "2.7", "-0.5"]
ODD_INVALID = ["nan", "inf", "1e400", ""]
NUMBERS = ["0", "0.0", "1.5", "3", "-1", "-2.25", "300.0", "310.5", "1e3", "7"]


def _rank_cell(rank, noisy):
    """Spellings int() reads as `rank`: plain, signed with spaces, or with a
    digit separator. A noisy cell may also be one a rank column must refuse."""
    forms = [str(rank), f" {rank:+d} "]
    if rank >= 10:
        forms.append(f"{str(rank)[0]}_{str(rank)[1:]}")
    if noisy:
        forms += ["2.7", "-0.5", *ODD_INVALID]
    return st.sampled_from(forms)


def _cell(column, noisy):
    tokens = NUMBERS + ODD_VALID + ([""] if column in ("close", "items") else [])
    return st.sampled_from(tokens + ODD_INVALID if noisy else tokens)


@st.composite
def timing_csv(draw):
    """Timing CSVs mixing accepted and rejected rows, sometimes with a repeated
    rank. In a noisy one, one column also has cells that do not convert, and
    some rows are short."""
    columns = ["rank", "start", "end"]
    columns += [c for c in ("close", "items", "host") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    noisy = draw(st.one_of(st.none(), st.sampled_from(columns)))
    lines = []
    if draw(st.booleans()):
        lines.append("# stonewall_s = 300")
    lines.append(",".join(columns))
    n_rows = draw(st.integers(0, 14))
    low = draw(st.integers(-2, 8))
    ranks = draw(st.permutations(range(low, low + n_rows)))  # negative ranks are rejected rows
    if n_rows > 1 and draw(st.integers(0, 3)) == 0:
        ranks[draw(st.integers(1, n_rows - 1))] = ranks[0]
    for rank in ranks:
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment"] + (["short"] if noisy else [])))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # 1,2,3"])))
            continue
        cells = [
            draw(_rank_cell(rank, noisy == c) if c == "rank" else _cell(c, noisy == c))
            for c in columns
        ]
        if kind == "short":
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(parse):
    try:
        table, warnings = parse()
    except Io500KitError as exc:
        return type(exc).__name__, str(exc)
    columns = [
        table.rank,
        table.start_s,
        table.end_s,
        table.close_s,
        table.items.data,
        np.ma.getmaskarray(table.items),
    ]
    return "ok", [c.dtype.str + c.tobytes().hex() for c in columns], table.stonewall_s, warnings


def _scan(text):
    stonewall, width, col, start, first_line = ingest._timing_layout(text, PHASE)
    columns, warnings = scan_timing_rows_oracle(text[start:].splitlines(), first_line, width, col, PHASE)
    return ProcessTimingTable(phase=PHASE, stonewall_s=stonewall, **columns), warnings


def _every_odd_token(test):
    """Pin each odd token in each column, after a valid row, as an explicit example."""
    columns = ["rank", "start", "end", "close", "items"]
    for token in ODD_VALID + ODD_INVALID:
        for i in range(len(columns)):
            cells = ["1", "0.5", "310.0", "2.0", "40"]
            cells[i] = token
            test = example(f"rank,start,end,close,items\n0,0.0,300.0,1.0,10\n{','.join(cells)}\n")(test)
    return test


@PROPERTY
@_every_odd_token
@example("rank,start,end,items\n0,0,310,3\n1,0,310,1.5\n")  # a fraction is no item count
@example("rank,start,end,items\n0,0,310,3\n1,0,310,0.9999\n")
@example("rank,start,end,items\n0,0,310,-0.5\n1,0,310,3\n")  # not a rejected negative-items row
@example("rank,start,end,items\n0,0,310,9007199254740993\n1,0,310,-9223372036854775808\n")  # exact counts
@example("rank,start,end,items\n0,0,310,9223372036854775807\n1,0,310,9223372036854775808\n")
@given(timing_csv())
def test_vectorized_parse_matches_row_scan(text):
    want = _outcome(lambda: _scan(text))
    assert _outcome(lambda: ingest.parse_process_timing(text, PHASE)) == want
    if want[0] == "ok":
        # The whole-column conversion handles every valid input by itself.
        _, width, col, start, _ = ingest._timing_layout(text, PHASE)
        assert ingest._timing_columns(text, start, width, col, PHASE) is not None


CHUNK = 8192  # data lines; the long tables below fill one or two text slices


def _long_csv(n_rows, edits=None):
    """A timing CSV with n_rows data lines: accepted and rejected rows, blank
    cells, an extra column, and the lines of `edits` ({data line index: line})
    put in place, such as blanks, comments or cells that do not convert."""
    lines = ["# stonewall_s = 300", "rank,start,end,close,items,host"]
    for r in range(n_rows):
        end = 300.0 + r % 11 if r % 997 else 0.0  # end < start: rejected
        close = "" if r % 5 == 0 else ("-1.5" if r % 1009 == 3 else str(r % 3))
        items = "" if r % 4 == 0 else str(r)
        lines.append(f"{r},{r % 7 * 0.25},{end},{close},{items},h{r % 9}")
    for i, line in (edits or {}).items():
        lines[2 + i] = line
    return "\n".join(lines) + "\n"


LONG_TABLES = [
    # A body of one chunk, an empty one, and ones longer than two chunks.
    _long_csv(CHUNK),
    _long_csv(0),
    _long_csv(2 * CHUNK + 500),
    # Blank and comment lines and extra cells in some chunks only.
    _long_csv(2 * CHUNK + 500, {5: "", CHUNK + 7: "  # note", 2 * CHUNK + 9: "7777,0,310,1,2,h,extra"}),
    # A rank repeated across a chunk boundary.
    _long_csv(2 * CHUNK + 500, {CHUNK + 3: f"{CHUNK - 2},0,310,1,2,h"}),
    # A cell that does not convert, or a short line, in the last chunk.
    _long_csv(2 * CHUNK + 500, {2 * CHUNK + 400: f"{2 * CHUNK + 400},0,x,1,2,h"}),
    _long_csv(2 * CHUNK + 500, {2 * CHUNK + 401: f"{2 * CHUNK + 401},0"}),
    # Two faults in different chunks: the first line at fault is reported, a
    # repeated rank in the first chunk before a bad cell in the third...
    _long_csv(2 * CHUNK + 500, {10: "3,0,310,1,2,h", 2 * CHUNK + 400: f"{2 * CHUNK + 400},0,x,1,2,h"}),
    # ...and a bad cell in the first chunk before a short line in the third.
    _long_csv(2 * CHUNK + 500, {7: "7,0,x,1,2,h", 2 * CHUNK + 401: f"{2 * CHUNK + 401},0"}),
]


@pytest.mark.parametrize("text", LONG_TABLES, ids=range(len(LONG_TABLES)))
def test_chunked_parse_matches_row_scan(text):
    want = _outcome(lambda: _scan(text))
    assert _outcome(lambda: ingest.parse_process_timing(text, PHASE)) == want
    _, width, col, start, _ = ingest._timing_layout(text, PHASE)
    assert (ingest._timing_columns(text, start, width, col, PHASE) is not None) == (want[0] == "ok")


def test_chunked_parse_errors_name_the_line():
    # Data line i is line i + 3 of the file.
    repeated = LONG_TABLES[4]
    with pytest.raises(ValidationError, match=f"duplicate rank {CHUNK - 2} on line {CHUNK + 6}$"):
        ingest.parse_process_timing(repeated, PHASE)
    with pytest.raises(ParseError, match=f"^line {2 * CHUNK + 403}: .*malformed end 'x'"):
        ingest.parse_process_timing(LONG_TABLES[5], PHASE)


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def timing_table(draw, phase):
    ranks = sorted(draw(st.sets(st.integers(0, 2**40), max_size=20)))
    n = len(ranks)
    starts = [draw(finite) for _ in range(n)]
    ends = [s + draw(finite) for s in starts]
    close = None
    if draw(st.booleans()):
        close = [draw(st.one_of(st.none(), finite, st.just(-0.0))) for _ in range(n)]
        close = np.array(close, dtype=float)  # None -> NaN, an absent value
    items = None
    if draw(st.booleans()):
        values = [draw(st.one_of(st.none(), st.integers(0, 2**62))) for _ in range(n)]
        items = np.ma.MaskedArray(
            np.array([0 if v is None else v for v in values], dtype=np.int64),
            mask=np.array([v is None for v in values], dtype=bool),
        )
    return ProcessTimingTable(
        phase=phase,
        rank=np.array(ranks, dtype=np.int64),
        start_s=np.array(starts, dtype=float),
        end_s=np.array(ends, dtype=float),
        close_s=close,
        items=items,
        stonewall_s=draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4))),
    )


TABLE_PHASES = (Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE, Phase.FIND)


@st.composite
def submission(draw):
    phases = draw(st.sets(st.sampled_from(TABLE_PHASES)))
    return Submission(
        meta=SubmissionMeta(submission_id=draw(st.text(max_size=8)), client_nodes=draw(st.integers(1, 64))),
        phases={
            p: PhaseResult(phase=p, value=draw(finite), unit=p.unit, runtime_s=draw(st.one_of(st.none(), finite)))
            for p in phases
        },
        timing={p: draw(timing_table(p)) for p in phases},
        warnings=draw(st.lists(st.text(max_size=10), max_size=3)),
    )


@PROPERTY
@given(submission())
def test_manifest_round_trip(sub):
    text = ingest.dumps_manifest(sub)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(text, encoding="utf-8", newline="\n")
        again = ingest.read_manifest(path)
        assert again == sub
        assert ingest.dumps_manifest(again) == text
        # A read of some phases equals the full read with its timing restricted to them.
        for k in range(len(TABLE_PHASES) + 1):
            for selected in itertools.combinations(TABLE_PHASES, k):
                timing = {p: t for p, t in again.timing.items() if p in selected}
                assert ingest.read_manifest(path, phases=selected) == dataclasses.replace(again, timing=timing)


@st.composite
def default_prone_table(draw, phase):
    """A table of 0 to 6 ranks whose columns hold their defaults or come near
    them: ranks 0..n-1, given in order or shuffled, or with a gap (at the
    first rank, an offset); close times and item counts left out, all
    absent, some absent or all present."""
    n = draw(st.integers(0, 6))
    rank = np.arange(n, dtype=np.int64)
    shape = draw(st.sampled_from(["dense", "shuffled", "gapped"]))
    if shape == "shuffled":
        rank = np.array(draw(st.permutations(rank.tolist())), dtype=np.int64)
    elif shape == "gapped" and n:
        rank = rank + np.where(rank >= draw(st.integers(0, n - 1)), draw(st.integers(1, 2**40)), 0)

    def present(kind):
        return {"all": [True] * n, "none": [False] * n, "some": [draw(st.booleans()) for _ in range(n)]}[kind]

    close = items = None
    kind = draw(st.sampled_from(["omitted", "all", "none", "some"]))
    if kind != "omitted":
        close = np.array([draw(finite) if p else np.nan for p in present(kind)])
    kind = draw(st.sampled_from(["omitted", "all", "none", "some"]))
    if kind != "omitted":
        mask = ~np.array(present(kind), dtype=bool)
        items = np.ma.MaskedArray(np.array([draw(st.integers(0, 2**62)) for _ in range(n)], dtype=np.int64), mask=mask)
    start = np.array([draw(finite) for _ in range(n)])
    return ProcessTimingTable(
        phase=phase, rank=rank, start_s=start, end_s=start + 1.0, close_s=close, items=items, stonewall_s=None
    )


@PROPERTY
@given(st.sets(st.sampled_from(TABLE_PHASES), min_size=1).flatmap(
    lambda phases: st.fixed_dictionaries({p: default_prone_table(p) for p in phases})
))
def test_manifest_writes_a_column_at_its_default_as_null(timing):
    sub = Submission(meta=SubmissionMeta(submission_id="d"), timing=timing)
    text = ingest.dumps_manifest(sub)
    header, *lines = (json.loads(line) for line in text.splitlines())
    assert header["format_version"] == 5
    tree = ingest.to_manifest(sub)
    for line in lines:
        table = timing[Phase(line.pop("phase"))]
        at_default = {
            "rank": table.rank.tolist() == list(range(table.n_ranks)),
            "close_s": all(math.isnan(x) for x in table.close_s.tolist()),
            "items": all(v is None for v in table.items.tolist()),
        }
        assert {key: line[key] is None for key in at_default} == at_default
        assert line["start_s"] is not None and line["end_s"] is not None
        assert line == tree["timing"][table.phase.value]  # the tree and the streamed line agree
    with tempfile.TemporaryDirectory() as tmp:
        path, v3 = Path(tmp) / "m.json", Path(tmp) / "v3.json"
        path.write_text(text, encoding="utf-8", newline="\n")
        assert ingest.read_manifest(path) == sub
        assert ingest.dumps_manifest(ingest.read_manifest(path)) == text
        # The same tables with every column a list, as version 3 wrote them, read alike.
        v3.write_text(dumps_manifest_v3_oracle(sub), encoding="utf-8", newline="\n")
        assert ingest.read_manifest(v3) == sub


def _exact_microseconds(column) -> bool:
    """Whether each present value x is, bit for bit, k / 1e6 for k = round(x * 1e6) with |k| < 2**53."""
    return all(
        abs(round(x * 1e6)) < 2**53 and (round(x * 1e6) / 1e6).hex() == x.hex()
        for x in column.tolist()
        if not math.isnan(x)
    )


def _bits(column) -> list[int]:
    return column.view(np.int64).tolist()


# Microsecond values up to the 2**53 edge, any float, and the traps of the
# exactness test: signed zeros, the least subnormal, values an ulp off.
EDGE_S = 2**53 / 1e6
TIME_S = st.one_of(
    st.integers(-(2**53) + 1, 2**53 - 1).map(lambda k: k / 1e6),
    st.floats(min_value=-1e12, max_value=1e12),
    st.sampled_from([0.0, -0.0, 5e-324, float(np.nextafter(0.1, 1)), 0.1 + 0.2, EDGE_S, float(np.nextafter(EDGE_S, 0))]),
)


@PROPERTY
@example([(0.0, 0.0, -0.0), (-0.0, 0.0, 0.0)])
@example([(5e-324, 1.0, 5e-324)])
@example([(0.1, 0.2, float(np.nextafter(0.1, 1)))])
@example([(0.25, 0.1 + 0.2, 0.5)])
@example([((2**53 - 1) / 1e6, EDGE_S, EDGE_S), (-EDGE_S, float(np.nextafter(EDGE_S, math.inf)), 0.0)])
@example([(1.0, 2.0, math.nan), (1.5, 2.5, 0.75), (2.0, 3.0, math.nan)])
@example([(0.25, 1.0, 0.5), (0.5, 1.5, 0.75), (0.1 + 0.2, 2.0, 1.0)])
@given(st.lists(st.tuples(TIME_S, TIME_S, st.one_of(st.just(math.nan), TIME_S)), max_size=8))
def test_time_columns_in_microseconds_read_back_bit_for_bit(rows):
    # Each row is (start, end, close): end is raised to start, a negative close
    # is negated (-0.0 stays), and a NaN close is absent.
    start, end, close = (np.array([row[i] for row in rows], dtype=np.float64) for i in range(3))
    end = np.maximum(start, end)
    close = np.where(close < 0, -close, close)
    table = ProcessTimingTable(phase=PHASE, rank=np.arange(len(rows)), start_s=start, end_s=end, close_s=close)
    sub = Submission(meta=SubmissionMeta(submission_id="us"), timing={PHASE: table})
    text = ingest.dumps_manifest(sub)
    line = json.loads(text.splitlines()[1])
    columns = {"start_s": start, "end_s": end}
    if not np.isnan(close).all():
        columns["close_s"] = close
    # A column is written in integer microseconds exactly when every present value is one.
    assert line["us"] == sorted(key for key, column in columns.items() if _exact_microseconds(column))
    for key in columns:
        kind = int if key in line["us"] else float
        assert all(type(v) is kind for v in line[key] if v is not None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(text, encoding="utf-8", newline="\n")
        for again in (ingest.read_manifest(path), ingest.from_manifest(ingest.to_manifest(sub))):
            got = again.timing[PHASE]
            assert [_bits(got.start_s), _bits(got.end_s), _bits(got.close_s)] == [_bits(start), _bits(end), _bits(close)]


# A table line whose every column is a list: rank not 0..n-1, start_s and
# end_s in integer microseconds, close_s in floats (0.1 + 0.2 is no exact
# microsecond) and item counts.
FOREIGN_TABLE = ProcessTimingTable(
    phase=PHASE,
    rank=np.array([0, 3, 5, 8, 9]),
    start_s=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
    end_s=np.array([310.5, 312.25, 309.0, 311.0, 330.125]),
    close_s=np.array([0.1 + 0.2, 1.5, 2.5, 0.75, 1.0]),
    items=np.ma.MaskedArray([10, 20, 30, 40, 50]),
    stonewall_s=300.0,
)
# JSON values no timing column holds, and a float, which only a float column holds.
FOREIGN_VALUES = [True, False, "1", [], {}]


def test_a_foreign_value_in_any_column_names_the_column():
    # Every column, at its first, a middle and its last index, with each value
    # a column of its kind must refuse: both readers raise a ValidationError
    # that names the column.
    sub = Submission(meta=SubmissionMeta(submission_id="foreign"), timing={PHASE: FOREIGN_TABLE})
    header, line = ingest.dumps_manifest(sub).splitlines()
    valid = json.loads(line)
    assert valid["us"] == ["end_s", "start_s"] and all(isinstance(valid[key], list) for key in ingest._COLUMNS)
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        for key, index, value in itertools.product(ingest._COLUMNS, (0, 2, 4), FOREIGN_VALUES + [1.5]):
            if value == 1.5 and key == "close_s":
                continue  # a float column
            damaged = {**valid, key: [*valid[key][:index], value, *valid[key][index + 1 :]]}
            tree = ingest.to_manifest(sub)
            tree["timing"][PHASE.value] = {k: v for k, v in damaged.items() if k != "phase"}
            path.write_text(f"{header}\n{json.dumps(damaged)}\n", encoding="utf-8")
            for read, prefix in ((lambda: ingest.from_manifest(tree), ""), (lambda: ingest.read_manifest(path), f"{path}: ")):
                with pytest.raises(ValidationError) as excinfo:
                    read()
                assert str(excinfo.value).startswith(f"{prefix}timing.{PHASE.value}.{key}: expected a list of "), (key, index, value)
            checked += 1
    assert checked == 5 * 3 * 5 + 4 * 3


# Pieces of a file's bytes: line ends of each kind, characters of two to four
# bytes, and bytes that are not UTF-8 (a stray lead or continuation byte, a cut
# sequence, an overlong form), besides a byte order mark.
LINE_BYTES = [
    b"a", b"{}", b"\n", b"\r\n", b"\r", b"\n\r", "\u00e9".encode(), "\u20ac".encode(), "\U0001f600".encode(),
    b"\xff", b"\xc3", b"\x80", b"\xe2\x82", b"\xc0\xaf", b"\xef\xbb\xbf",
]


def _lines_or_error(read):
    try:
        return read()
    except Io500KitError as exc:
        return type(exc).__name__, str(exc)


@PROPERTY
# A line longer than the read buffer, with a character across its edge, then an undecodable byte after it.
@example(b"a" * 8191 + "\u00e9".encode() + b"\r\n" + b"b" * 9000 + b"\r" + b"c" * 10 + b"\xff")
@example(b"a" * 20000 + b"\r")
@given(st.lists(st.sampled_from(LINE_BYTES), max_size=12).map(b"".join))
def test_file_lines_split_as_the_whole_text(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_bytes(data)
        want = _lines_or_error(lambda: ingest.read_text(path).split("\n"))
        assert _lines_or_error(lambda: list(ingest._file_lines(path))) == want


# Bytes a damaged manifest may gain: undecodable ones, line breaks, JSON punctuation.
ODD_BYTES = [b"\xff", b"\xc3", b"\r", b"\n", b"\r\n", b"{", b"}", b",", b" ", b"x", b"\x00", b"\xef\xbb\xbf"]
# Header values that the checks refuse, by key.
BAD_HEADER = [
    ("format_version", 2), ("format_version", "3"), ("timing", {}), ("timing", ["find", "find"]),
    ("timing", ["bogus"]), ("meta", []), ("phases", [{}]), ("warnings", [0]), ("reported_score_bw", "1"),
]


@st.composite
def damaged_manifest(draw):
    """A manifest's bytes after one to three edits: a cut, a byte put in or
    taken out, lines dropped, repeated or swapped, a header value replaced, or
    a table line's column replaced."""
    data = ingest.dumps_manifest(draw(submission())).encode()
    for _ in range(draw(st.integers(1, 3))):
        lines = data.split(b"\n")
        # Mostly after the header, so that most edits reach the table lines.
        first = 0 if draw(st.integers(0, 3)) == 3 else min(len(lines[0]) + 1, len(data))
        kind = draw(st.sampled_from(["column", "insert", "header", "delete", "lines", "cut"]))
        if kind == "cut":
            data = data[: draw(st.integers(first, len(data)))]
        elif kind == "insert":
            at = draw(st.integers(first, len(data)))
            data = data[:at] + draw(st.sampled_from(ODD_BYTES)) + data[at:]
        elif kind == "delete" and first < len(data):
            at = draw(st.integers(first, len(data) - 1))
            data = data[:at] + data[at + 1 :]
        elif kind == "lines":
            i, j = (draw(st.integers(min(first, 1, len(lines) - 1), len(lines) - 1)) for _ in range(2))
            edit = draw(st.sampled_from(["drop", "repeat", "swap"]))
            if edit == "drop":
                del lines[i]
            elif edit == "repeat":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        elif kind == "header":
            try:
                header = json.loads(lines[0])
            except ValueError:
                continue
            if isinstance(header, dict):
                key, value = draw(st.sampled_from(BAD_HEADER))
                header[key] = value
                lines[0] = json.dumps(header).encode()
                data = b"\n".join(lines)
        elif kind == "column" and len(lines) > 2:
            i = draw(st.integers(1, len(lines) - 2))
            try:
                table = json.loads(lines[i])
            except ValueError:
                continue
            if isinstance(table, dict) and table:
                key = draw(st.sampled_from(sorted(table)))
                table[key] = draw(st.sampled_from([None, "x", [], [1.5], [-1], [None], {}]))
                lines[i] = json.dumps(table).encode()
                data = b"\n".join(lines)
    return data


def _pinned_manifests():
    """Manifests whose line ends a whole-text read translates, ones with an
    undecodable byte on line 2 or near the end, and ones with two faults
    each, where the first in file order is the one to report: byte, line
    1's structure, line count, then meta, phases, warnings and scores, then
    each table line's JSON and phase and then its columns."""
    table = ProcessTimingTable(
        phase=PHASE, rank=np.arange(3), start_s=np.zeros(3), end_s=np.ones(3), stonewall_s=300.0
    )
    sub = Submission(
        meta=SubmissionMeta(submission_id="s"),
        timing={PHASE: table, Phase.FIND: dataclasses.replace(table, phase=Phase.FIND)},
    )
    header, find, easy = (json.loads(line) for line in ingest.dumps_manifest(sub).splitlines())

    def text(header=header, find=find, easy=easy, tail=b"\n"):
        lines = [part if isinstance(part, bytes) else json.dumps(part).encode() for part in (header, find, easy)]
        return b"\n".join(lines) + tail

    bad_rank = {**find, "rank": "x"}
    return [
        text().replace(b"\n", b"\r\n"),
        text().replace(b"\n", b"\r"),
        text(tail=b"\n\xc3"),
        text(find=b'"\xff"'),  # line 2, in the first chunk a text-mode read decodes
        text(find=b" " * 20000 + json.dumps(find).encode(), tail=b"\n\xc3"),  # chunks after the first
        text(header={**header, "meta": []}, find=bad_rank),
        text(header={**header, "phases": [{}]}, find=bad_rank),
        text(header={**header, "warnings": [0]}, find=bad_rank),
        text(header={**header, "reported_score_md": "1"}, easy={**easy, "end_s": [0.0]}),
        text(find=bad_rank, easy=b"{"),
        text(header={**header, "meta": []}, easy={**easy, "phase": "find"}),
        text(find=b"[", tail=b""),
        text(header={**header, "format_version": 2}, tail=b"\xff\n"),
        text(header={**header, "timing": ["find", "find"]}, tail=b"\n\n"),
    ]


def _pin_manifests(test):
    for data in _pinned_manifests():
        test = example(data, None)(test)
    return test


# The members of a valid `find` table line, in sorted order, as JSON text.
MEMBERS = [
    ("close_s", "[null,null,null]"), ("end_s", "[1.0,1.0,1.0]"), ("items", "[null,null,null]"), ("phase", '"find"'),
    ("rank", "[0,1,2]"), ("start_s", "[0.0,0.0,0.0]"), ("stonewall_s", "300.0"),
]


def _member_line(members=MEMBERS, sep=",", colon=":", open_="{", close="}"):
    return open_ + sep.join(f'"{key}"{colon}{value}' for key, value in members) + close


def _with(key, value):
    return _member_line([(k, value if k == key else v) for k, v in MEMBERS])


# Table lines that a decoder of one member at a time meets: whitespace between
# tokens, repeated keys (the last wins), NaN and Infinity tokens, exponent
# forms, the int64 edges and their neighbours, 19-digit integers, nested lists,
# faults between members, and lines that are not objects.
MEMBER_LINES = [
    _member_line(sep=" ,\t ", colon=" :\t", open_=" \t{ ", close="\t} "),
    _with("rank", "[ 0 ,\t1 , 2 ]"),
    _member_line(MEMBERS + [("rank", '"x"')]),
    _member_line([("rank", '"x"')] + MEMBERS),
    _member_line(MEMBERS + [("end_s", "[2.0,3.0,4.0]"), ("end_s", "[5.0,6.0,7.0]")]),
    _member_line(MEMBERS + [("phase", '"ior-easy-write"')]),
    _member_line([("phase", '"ior-easy-write"')] + MEMBERS),
    _member_line(MEMBERS + [("rank", "[[0],[1],[2]]"), ("host", "[1,2,3]")]),
    _with("start_s", "[NaN,0,0]"),
    _with("close_s", "[Infinity,null,-Infinity]"),
    _with("end_s", "[1.0,2.0,Infinity]"),
    _with("items", "[NaN,1,2]"),
    _with("stonewall_s", "NaN"),
    _with("end_s", "[1e0,1E+0,10e-1]"),
    _with("start_s", "[0e5,-0.0e-3,1e-320]"),
    _with("rank", "[0,1e0,2]"),
    _with("items", "[1E2,2,3]"),
    _with("stonewall_s", "3e2"),
    _with("rank", "[0,1,9223372036854775807]"),
    _with("rank", "[0,1,9223372036854775808]"),
    _with("rank", "[-9223372036854775809,0,1]"),
    _with("items", "[9223372036854775807,null,0]"),
    _with("items", "[9223372036854775808,null,0]"),
    _with("items", "[-9223372036854775808,1,2]"),
    _with("items", "[-9223372036854775809,null,2]"),
    _with("rank", "[0,1,1234567890123456789]"),
    _with("items", "[9999999999999999999,1,2]"),
    _with("start_s", "[1234567890123456789,0,0]"),
    _with("rank", "[[0],[1],[2]]"),
    _with("rank", "[[0,1],[2],[3]]"),
    _with("close_s", "[[1.0],null,2.0]"),
    _with("end_s", "[[1.0,2.0],[3.0,4.0],[5.0,6.0]]"),
    _with("phase", '"fin\\u0064"'),
    _member_line(sep=",,"),
    _member_line(sep=" "),
    _member_line(colon=" "),
    _member_line(close=",}"),
    _member_line(close="}}"),
    _member_line(close=""),
    _member_line(open_="{rank:[0],"),
    _with("rank", "[0,1,2,]"),
    _with("rank", "[0,1"),
    "{}", " { } ", '{"phase":"find"}', "[1,2]", '"find"', "5", "null", "",
]


def _pin_member_lines(test):
    table = ProcessTimingTable(phase=Phase.FIND, rank=np.arange(3), start_s=np.zeros(3), end_s=np.ones(3))
    header = ingest.dumps_manifest(Submission(meta=SubmissionMeta(submission_id="s"), timing={Phase.FIND: table}))
    header = header.split("\n")[0]
    for line in MEMBER_LINES:
        test = example(f"{header}\n{line}\n".encode(), None)(test)
    return test


def _read(read, path, phases):
    try:
        return read(path, phases)
    except Io500KitError as exc:
        return type(exc).__name__, str(exc)


@PROPERTY
@_pin_member_lines
@_pin_manifests
@given(damaged_manifest(), st.sampled_from([None, (), (Phase.FIND,), (Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE)]))
def test_line_reader_matches_whole_text_reader(data, phases):
    # The same Submission, or the same error (the first of several in file order), as a read of the whole text.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_bytes(data)
        assert _read(ingest.read_manifest, path, phases) == _read(read_manifest_oracle, path, phases)


def _tree(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


@PROPERTY
@_pin_manifests
@given(damaged_manifest(), st.booleans())
def test_close_on_a_damaged_manifest_fails_as_the_reader(data, premade):
    # `logs --analysis close` decodes every table, each when it reaches it, so
    # a table may be analysed before a later line fails. The run reports the
    # reader's error, alone, and leaves --out as it found it.
    with tempfile.TemporaryDirectory() as tmp:
        manifests, out = Path(tmp) / "manifests", Path(tmp) / "out"
        manifests.mkdir()
        (manifests / "m.json").write_bytes(data)
        if premade:  # an earlier run's files, which this run would overwrite, and a file of the user's
            (out / "logs").mkdir(parents=True)
            for name in ("close_summary.csv", "close_summary.txt", "close_box.svg", "close_box.csv"):
                (out / "logs" / name).write_text(f"an earlier run's {name}\n")
            (out / "keep.txt").write_text("kept\n")
        before = _tree(out) if premade else None
        want = _read(read_manifest_oracle, manifests / "m.json", None)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["logs", str(manifests), "--analysis", "close", "--out", str(out)])
        if isinstance(want, Submission):
            assert (code, err.getvalue()) == (0, "")
        else:
            assert (code, err.getvalue()) == (1, f"error: {want[1]}\n")
            assert (_tree(out) if premade else out.exists()) == (before if premade else False)


# --- the other parsers on odd numbers and arbitrary text ---------------------------------

# Spellings a number field may hold: long digit runs, overflow and underflow,
# NaN and infinities, the int64 edges and their neighbours, and near-numbers.
ODD_NUMBERS = [
    "9" * 400, "1" + "0" * 40, "1e400", "-1e400", "1e-400", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "-0", "0x10", "1_0", "1.5.5", "",
]
NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
SUMMARY = """\
[RESULT] ior-easy-write 12.500000 GiB/s : time 310.000000 seconds
[RESULT] ior_hard_read 2.5 GB/s : time 300.5 seconds
[RESULT] mdtest-easy-stat 200.0 kiops : time 45.0 seconds
[RESULT] find 150.0 kIOPS : time 20.0 seconds
[SCORE ] Bandwidth 5.5 GiB/s : IOPS 90.25 kiops : TOTAL 22.3
"""
META = """\
submission_id = s-1
list_label = ISC22
filesystem = Lustre 2.12
interconnect = 100 Gb/s Ethernet
client_nodes = 16
procs_per_node: 64
total_procs = 1024
nic_count = 2
"""
REPO_CSV = (
    "id,list,filesystem,interconnect,nic_count,client_nodes,procs_per_node,total_procs,score,ior_easy_write,find\n"
    "a,SC22,lustre,IB HDR,2,16,64,1024,22.5,12.5,150.0\n"
    "b,ISC23,daos,100 Gb/s,1,4,8,32,3.25,1.5,7\n"
)
_TABLE = ProcessTimingTable(
    phase=Phase.FIND, rank=np.arange(3), start_s=np.zeros(3), end_s=np.full(3, 2.5),
    items=np.ma.MaskedArray(np.array([10, 20, 30]), mask=np.zeros(3, dtype=bool)),
)
MANIFEST = ingest.dumps_manifest(
    Submission(
        meta=SubmissionMeta(submission_id="s", client_nodes=4, procs_per_node=8, total_procs=32),
        phases={Phase.FIND: PhaseResult(phase=Phase.FIND, value=150.0, unit=Phase.FIND.unit, runtime_s=20.0)},
        timing={Phase.FIND: _TABLE},
        reported_score_overall=3.5,
    )
)


@st.composite
def fuzzed_text(draw, template):
    """Mostly template with some numbers replaced by odd spellings and some
    lines cut short or replaced by arbitrary text; else arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=200))
    spans = [m.span() for m in NUMBER_RE.finditer(template)]
    text = template
    for start, end in sorted(draw(st.lists(st.sampled_from(spans), max_size=6, unique=True)), reverse=True):
        text = text[:start] + draw(st.sampled_from(ODD_NUMBERS)) + text[end:]
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.one_of(st.just(lines[i][: draw(st.integers(0, len(lines[i])))]), st.text(max_size=20)))
    return "\n".join(lines)


def _every_odd_number(template):
    """Pin the template with each odd spelling in place of every number, and of each number alone."""
    def pin(test):
        spans = [m.span() for m in NUMBER_RE.finditer(template)]
        for token in ODD_NUMBERS:
            test = example(NUMBER_RE.sub(token, template))(test)
            for start, end in spans:
                test = example(template[:start] + token + template[end:])(test)
        return test

    return pin


def _value_or_io500kit_error(parse, text):
    try:
        return parse(text)
    except Io500KitError as exc:
        return exc


@PROPERTY
@_every_odd_number(SUMMARY)
@given(fuzzed_text(SUMMARY))
def test_result_summary_parser_raises_only_io500kit_errors(text):
    parsed = _value_or_io500kit_error(ingest.parse_result_summary, text)
    if not isinstance(parsed, Io500KitError):
        assert all(math.isfinite(r.value) and math.isfinite(r.runtime_s) for r in parsed.phases)


@PROPERTY
@_every_odd_number(META)
@given(fuzzed_text(META))
def test_meta_file_normalizes_without_raising(text):
    meta = ingest.normalize_metadata(ingest._parse_meta_file(text))
    assert meta.client_nodes >= 1
    assert meta.interconnect_gbps is None or 0 < meta.interconnect_gbps < math.inf


@PROPERTY
@_every_odd_number(REPO_CSV)
@given(fuzzed_text(REPO_CSV))
def test_repo_csv_parser_raises_only_io500kit_errors(text):
    parsed = _value_or_io500kit_error(ingest.parse_repo_csv, text)
    if not isinstance(parsed, Io500KitError):
        for sub in parsed.submissions:
            assert all(math.isfinite(r.value) and r.value >= 0 for r in sub.phases.values())


@PROPERTY
@_every_odd_number(MANIFEST)
@given(fuzzed_text(MANIFEST))
def test_manifest_reader_raises_only_io500kit_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(text, encoding="utf-8", newline="\n")
        for phases in (None, ()):
            _value_or_io500kit_error(lambda p: ingest.read_manifest(p, phases), path)


# --- the synth config loader on JSON-shaped dicts ----------------------------------------

# Keys below the top: the straggler and close model parameters, the map keys, and junk.
INNER_KEYS = st.sampled_from(
    ["kind", "start", "length", "slow_factor", "n_clusters", "cluster_size", "count", "median_s", "sigma"]
    + [fs.value for fs in Filesystem] + [phase.value for phase in Phase] + ["Lustre", ""]
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([json.loads("1e400"), math.nan, -math.inf, 10**400, 2**63, -(2**63) - 1, 0, 1, 2, 3, 9, 0.5, 2.5]),
    st.sampled_from([*synth.STRAGGLER_MODELS, "zigzag", "CLUSTERED"]),
    st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(INNER_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
NUMBER = st.floats(0.0, 8.0) | st.integers(0, 8)


def _plausible(key, default):
    """Values of the right shape for a key, mostly in range."""
    if key == "straggler":
        params = ["start", "length", "slow_factor", "n_clusters", "cluster_size", "count"]
        return st.fixed_dictionaries(
            {"kind": st.sampled_from(list(synth.STRAGGLER_MODELS))}, optional={p: st.none() | NUMBER for p in params}
        )
    if key == "close_models":
        model = st.fixed_dictionaries({}, optional={"median_s": NUMBER, "sigma": NUMBER})
        return st.dictionaries(st.sampled_from([fs.value for fs in Filesystem]), model, max_size=3)
    if isinstance(default, dict):
        return st.dictionaries(st.sampled_from([k.value for k in default]), NUMBER, max_size=4)
    if isinstance(default, tuple):
        return st.lists(st.integers(1, 64), min_size=2, max_size=2)
    return st.booleans() if isinstance(default, bool) else st.integers(1, 64) if isinstance(default, int) else NUMBER


@st.composite
def synth_spec(draw):
    """SynthConfig's fields, each with a value of its shape or any JSON value; sometimes a junk key."""
    fields = vars(synth.SynthConfig())
    keys = draw(st.lists(st.sampled_from(sorted(fields)), max_size=5, unique=True))
    spec = {k: draw(_plausible(k, fields[k]) if draw(st.booleans()) else JSON_VALUES) for k in keys}
    if draw(st.integers(1, 8)) == 5:
        spec[draw(INNER_KEYS | st.text(max_size=3))] = draw(JSON_VALUES)
    return spec


@PROPERTY
@example({"straggler": {"kind": "contiguous", "start": None, "length": 3, "slow_factor": 10**400}})
@example({"filesystem_mix": {"lustre": 10**400, "daos": 1.0}})
@example({"node_range": [2, 10**400], "seed": -(10**400), "close_models": {"daos": {"sigma": 0}}})
@example({"phase_median": {"find": math.inf}, "straggler": {"kind": "dispersed", "count": True}})
@given(synth_spec())
def test_synth_config_loader_returns_a_config_or_config_error(spec):
    try:
        config = synth.synth_config_from_dict(spec)
    except ConfigError:
        return
    default = synth.SynthConfig()
    for key in ("seed", "n_submissions", "procs_per_node", "generate_timing"):
        assert type(getattr(config, key)) is type(getattr(default, key)), key
    assert all(abs(w) <= sys.float_info.max for w in config.filesystem_mix.values())


# --- columnar renderers against the per-point ones ---------------------------------------

# Zeros of both signs and negatives (pinned to the floor on a log scale),
# values that round to a tie at 6 digits, the largest float and subnormals,
# besides arbitrary floats, infinities included: a renderer and its oracle
# must reject those with the same ValueError. NaN, rejected the same way, is
# pinned by examples; the axis property, which draws these values too, has
# no NaN case.
PLOT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 1.2, 2.5, 300.0, 1.0000001, 1.00000049, 1.7976931348623157e308, 5e-324]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(allow_nan=False),
)
LABELS = st.sampled_from(["lustre", "a,b", 'say "hi"', "<&>", "100 Gb/s", "20 Gb/s", "unknown", ""])
SPEC_TEXT = st.sampled_from(["", "t", 'x<&>"y', "a,b"])


def _render(render, *args, **kwargs):
    """The output, its pieces joined, or the error of one render call. A
    renderer raises when it is called, before any piece: the pieces are
    joined outside the `try`, so an error among them fails the test."""
    try:
        output = render(*args, **kwargs)
    except (Io500KitError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return output if isinstance(output, tuple) else joined(output)


@st.composite
def plot_spec(draw):
    return report.RenderSpec(
        title=draw(SPEC_TEXT),
        scale=draw(st.sampled_from(["linear", "log10"])),
        y_label=draw(SPEC_TEXT),
    )


@st.composite
def qq_pairs(draw):
    ratios = draw(st.lists(PLOT_VALUES, min_size=1, max_size=40))
    if draw(st.booleans()):
        n = len(ratios)
        return [((k + 1) / n, r) for k, r in enumerate(sorted(ratios))]
    return [(draw(st.floats(0.0, 1.0)), r) for r in ratios]


@st.composite
def box_groups(draw):
    """One to four groups; some are a tight cluster with many outliers."""
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.lists(PLOT_VALUES, min_size=1, max_size=30))
        if draw(st.booleans()):
            spread = draw(st.lists(PLOT_VALUES, min_size=1, max_size=25))
            values = [draw(st.floats(1.0, 1.001))] * draw(st.integers(4, 30)) + spread
        groups.append((draw(LABELS), values))
    return groups


@PROPERTY
@example([(1.0, 0.0)], report.RenderSpec(scale="log10"), False)
@example([(0.5, -0.0), (1.0, 0.0)], report.RenderSpec(), True)
@example([(0.5, -3.0), (1.0, 2.0)], report.RenderSpec(scale="log10"), True)
@example([(0.5, 2.0), (1.0, 1.7976931348623157e308)], report.RenderSpec(), False)
@example([(0.5, 2.0), (1.0, math.nan)], report.RenderSpec(), True)
@example([(math.nan, 2.0)], report.RenderSpec(), False)
@example([(0.5, 5e-324), (1.0, 2.0)], report.RenderSpec(scale="log10"), False)
@example([(0.0, 1.7976931348623157e308), (0.0, -3.134865e302)], report.RenderSpec(), False)
@example([(1e308, 1.0), (0.5, 2.0)], report.RenderSpec(), True)
@example([(1.5, 1.0), (0.5, 2.0)], report.RenderSpec(), False)
@given(qq_pairs(), plot_spec(), st.booleans())
def test_render_qq_matches_per_point_oracle(pairs, spec, as_array):
    got = _render(report.render_qq, np.array(pairs) if as_array else pairs, spec)
    assert got == _render(render_qq_oracle, pairs, spec)


@PROPERTY
@example([("a", [1.0])], report.RenderSpec(), True, False)
@example([("a", [0.0, -0.0]), ("b", [-0.0, 0.0])], report.RenderSpec(), True, False)
@example([("a", [-1.0, 0.0, 2.0, 2.0]), ("b", [5.0])], report.RenderSpec(scale="log10"), True, True)
@example([("g", [1.0] * 20 + [0.0, -5.0, 50.0, 90.0])], report.RenderSpec(scale="log10"), False, True)
@example([("g", [1.0, 1.7976931348623157e308, -math.inf])], report.RenderSpec(), False, False)
@example([("a", []), ("b", [1.0, math.nan])], report.RenderSpec(), True, True)
@example([("a", [5e-324, 1.0])], report.RenderSpec(scale="log10"), False, False)
@example([("a", [-1.79e308, 1.79e308])], report.RenderSpec(), True, False)
@example([("a", [1.7976931348623157e308] * 3)], report.RenderSpec(), False, True)
@given(box_groups(), plot_spec(), st.booleans(), st.booleans())
def test_render_group_box_matches_per_point_oracle(groups, spec, annotate, as_array):
    columns = [(label, np.array(values)) for label, values in groups] if as_array else groups
    got = _render(report.render_group_box, columns, spec, annotate=annotate)
    assert got == _render(render_group_box_oracle, groups, spec, annotate=annotate)


@PROPERTY
@example([], report.RenderSpec())
@example([("a", 0.0), ("b", 3.0)], None)
@example([("a", 0.0), ("b", -0.0), ("a", -0.0), ("<&>", 2.0)], report.RenderSpec(scale="log10"))
@example([("b", 1.0000001), ("a", 1.00000049), ("a", 1.0)], report.RenderSpec(scale="log10"))
@example([("a,b", 5e-324), ('say "hi"', 1.7976931348623157e308)], report.RenderSpec(scale="log10"))
@example([("a", -5e-324), ("b", 1.7976931348623157e308)], report.RenderSpec())
@example([("a", 2.0), ("b", math.nan)], report.RenderSpec())
@given(st.lists(st.tuples(LABELS, PLOT_VALUES), max_size=40), plot_spec())
def test_render_score_strip_matches_per_point_oracle(rows, spec):
    assert _render(report.render_score_strip, rows, spec) == _render(render_score_strip_oracle, rows, spec)


# Coefficients of 0 (no circle), +-1 (a full one) and NaN (a gray cell); p-values
# with NaN, 0 and 1; variable names CSV and SVG must escape.
COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, 0.5, -0.25, 0.99999949, -5e-324]),
    st.floats(-1.0, 1.0),
)
P_VALUES = st.one_of(st.sampled_from([0.0, 1.0, math.nan, 1e-300, 0.049999995]), st.floats(0.0, 1.0))
VARIABLES = ["score", "a,b", 'say "hi"', "<&>", "bw_easy_write", "md", "x y", ""]


@st.composite
def heatmap_input(draw):
    """A CorrelationReport or a HeatmapData over 0 to 6 variables."""
    k = draw(st.integers(0, 6))
    names = draw(st.lists(st.sampled_from(VARIABLES), min_size=k, max_size=k, unique=True))

    def matrix(elements, dtype=float):
        return np.array(draw(st.lists(elements, min_size=k * k, max_size=k * k)), dtype=dtype).reshape(k, k)

    columns = (matrix(COEFFICIENTS), matrix(P_VALUES), matrix(P_VALUES), matrix(st.booleans(), bool))
    if draw(st.booleans()):
        return stats.CorrelationReport(names, "spearman", *columns, alpha=0.05, n_per_pair=np.full((k, k), 30))
    return HeatmapData(names, *columns)


_CORR_TABLE = np.column_stack([np.arange(12.0), np.arange(12.0) ** 2 % 7, np.r_[np.nan, np.arange(11.0)][::-1]])


@PROPERTY
@example(HeatmapData([], *[np.zeros((0, 0))] * 3, np.zeros((0, 0), bool)), None)
@example(stats.correlation_matrix(["a,b", 'say "hi"', "<&>"], _CORR_TABLE), report.RenderSpec(title="t<&>"))
@example(stats.correlation_matrix(["x", "y"], np.column_stack([np.arange(9.0)] * 2)), None)
@given(heatmap_input(), plot_spec())
def test_render_corr_heatmap_matches_per_cell_oracle(data, spec):
    want = render_corr_heatmap_oracle(data, spec)
    assert joined(report.render_corr_heatmap(data, spec)) == want
    # The same input re-read from its sidecar, as a HeatmapData.
    rebuilt = heatmap_from_sidecar(want[1])
    assert joined(report.render_corr_heatmap(rebuilt, spec)) == render_corr_heatmap_oracle(rebuilt, spec)


# Spread values: one in a few dozen sits where np.log10 rounds unlike math.log10.
SPREAD = np.random.default_rng(0).uniform(-1.0, 10.0, 2000).tolist()


@PROPERTY
@example(SPREAD, 0.1, 10.0, True)
@example(SPREAD, -1.0, 10.0, False)
@given(
    st.lists(PLOT_VALUES, min_size=1, max_size=40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)
def test_axis_column_is_bit_equal_to_per_value(values, lo, hi, log):
    if log:  # as the renderers build a log axis: a positive floor below a positive top
        lo, hi = abs(lo) or 1.0, abs(hi) or 1.0
        lo, hi = min(lo, hi), max(lo, hi)
    try:
        axis = report._Axis(lo, hi, 290.0, 56.0, log=log)
    except ValueError as exc:  # a span that overflows, which the per-value axis refuses alike
        with pytest.raises(ValueError, match=str(exc)):
            _Axis(lo, hi, 290.0, 56.0, log=log)
        return
    # A value far outside [lo, hi] overflows to inf or nan, silently per value; numpy warns.
    with np.errstate(over="ignore", invalid="ignore"):
        positions, clamped = axis(np.array(values))
    per_value = _Axis(lo, hi, 290.0, 56.0, log=log)
    want = [per_value(v) for v in values]
    assert positions.tobytes() == np.array([p for p, _ in want]).tobytes()
    assert clamped.tolist() == [c for _, c in want]


# --- synth's 6-decimal quantizer ---------------------------------------------------------


def _near_half_ways(ks):
    """(k + 1/2) / 1e6 and its two nearest neighbours on each side, both signs."""
    half = (np.asarray(ks, dtype=np.float64) + 0.5) / 1e6
    below = np.nextafter(half, -np.inf)
    above = np.nextafter(half, np.inf)
    near = [half, below, above, np.nextafter(below, -np.inf), np.nextafter(above, np.inf)]
    return np.concatenate(near + [-x for x in near])


_BIG = 2.0**52 / 1e6  # from here up, x * 1e6 has no fraction bits left
_R6_RNG = np.random.default_rng(9)
_R6_STARTS = _R6_RNG.uniform(0.0, 1.0, 4000)
R6_PINNED = np.concatenate(
    [
        [3706.0896475],
        _near_half_ways([0, 1, 2, 3, 999_999, 3_706_089_647, 2**40]),
        _near_half_ways(2 ** np.arange(41)),
        _near_half_ways(_R6_RNG.integers(0, 2**40, 3000)),
        _near_half_ways(_R6_RNG.integers(0, 2_000_000_000, 3000)),
        [_BIG, np.nextafter(_BIG, 0), np.nextafter(_BIG, np.inf), _BIG * (1 - 1e-12), _BIG * (1 + 1e-12)],
        [-_BIG, -_BIG * (1 - 1e-12), -_BIG * (1 + 1e-12), 2.0**52, 2.0**53 + 2, -(2.0**60)],
        [0.0, -0.0, 5e-324, -5e-324, 1e-7, -4e-7, 5e-7, -5e-7, 1e300, -1e300, 1.7976931348623157e308],
        [math.inf, -math.inf, math.nan],
        # synth's ranges: starts, write ends (band and stragglers), find ends, close times
        _R6_STARTS,
        _R6_STARTS + 300.0 * _R6_RNG.uniform(1.001, 1.05, 4000),
        _R6_STARTS + 900.0 * _R6_RNG.uniform(0.9, 1.1, 4000),
        _R6_STARTS + np.maximum(1, np.round(100_000.0 * _R6_RNG.pareto(1.3, 4000))) / 3000.0,
        np.minimum(_R6_RNG.lognormal(np.log(0.01), 0.5, 4000), 300.0),
        np.minimum(_R6_RNG.lognormal(np.log(5.0), 1.0, 4000), 300.0),
    ]
)


@st.composite
def near_half_way(draw):
    """A value whose scaled form x * 1e6 is a half-way point or next to one."""
    k = draw(st.integers(0, 2**40))
    return float(draw(st.sampled_from(_near_half_ways([k]).tolist())))


@PROPERTY
@example(R6_PINNED)
@given(st.lists(st.one_of(st.floats(), near_half_way(), st.floats(0.0, 2000.0)), max_size=40))
def test_r6_array_is_bit_equal_to_scalar_round(values):
    # Bits, not ==: -0.0 must stay -0.0 and NaN must compare.
    values = np.asarray(values, dtype=np.float64)
    got = synth._r6_array(values)
    want = np.array([synth._r6(x) for x in values.tolist()], dtype=np.float64)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# --- analysis kernels against their loops ------------------------------------------------

# Ties between 0.0 and -0.0, subnormals, the float extremes and values one step apart.
RANK_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
RANK_SPECIALS += [1.7976931348623157e308, -1.7976931348623157e308, 1.0, np.nextafter(1.0, 2.0), 2.0, -3.5]
_RANK_RNG = np.random.default_rng(12)
RANK_PINNED = np.concatenate([np.repeat(RANK_SPECIALS, 300), _RANK_RNG.integers(-20, 20, 1000) / 4.0])


@st.composite
def tie_column(draw, max_size=3000):
    """A column drawn from a small pool, so that most values have ties, of
    up to max_size values."""
    value = st.one_of(st.sampled_from(RANK_SPECIALS), st.floats(allow_nan=False, allow_infinity=False))
    pool = draw(st.lists(value, min_size=1, max_size=12))
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, max_size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool, dtype=float), size=n)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@PROPERTY
@example(RANK_PINNED[_RANK_RNG.permutation(RANK_PINNED.size)])
@example(np.array([-0.0, 0.0, -0.0, 5e-324, -5e-324]))
@given(tie_column())
def test_rank_with_ties_is_bit_equal_to_the_tie_loop(values):
    got = stats.rank_with_ties(values)
    assert _bits(got) == _bits(rank_loop_oracle(values))
    if values.size <= 300:  # the comparison count is quadratic
        assert _bits(got) == _bits(rank_oracle(values.tolist()))


@PROPERTY
@example([np.array([0.0, -0.0]), np.array([-0.0, 0.0, 0.0])])  # one tie group: H = 0, p = 1
@example([RANK_PINNED[::2], RANK_PINNED[1::2], np.array([5e-324])])
@given(st.lists(tie_column(max_size=1000), min_size=2, max_size=4))
def test_kruskal_wallis_is_bit_equal_to_the_tie_loop(groups):
    result = stats.kruskal_wallis(groups)
    assert _bits([result.h, result.p]) == _bits(kruskal_wallis_loop_oracle(groups))


EVEN_DF = st.integers(1, 30).map(lambda m: 2 * m)


@PROPERTY
@example(4998, 13.41)  # p = 2.6e-40, at n = 5,000: 1 - I_{1-x}(1/2, df/2) is 0 there
@example(9998, 1e-8 * math.sqrt(9998))  # p = 0.99999920, at n = 10,000 and r = 1e-8: 1 - x is 2.2e-16, not 1e-16
@given(st.one_of(st.just(1), EVEN_DF), st.floats(0, 1e3))
def test_t_pvalue_matches_its_closed_forms(df, t):
    want = t_pvalue_closed_form(df, t)
    got = stats.betainc(df / 2, 0.5, df / (df + t * t), t * t / (df + t * t))
    if want >= 1e-300:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@PROPERTY
@given(st.one_of(st.just(1), EVEN_DF), st.floats(0, 3e3))
def test_chi_square_tail_matches_its_closed_forms(df, h):
    want = chi_square_sf_closed_form(df, h)
    if want >= 1e-300:
        assert stats.gammaincc(df / 2, h / 2) == pytest.approx(want, rel=1e-12, abs=0)


def test_p_values_print_as_scipy_does():
    # The sidecars print p to 6 significant digits; there scipy's t and
    # chi-square tails and the package's must read the same.
    special = pytest.importorskip("scipy.special")

    @PROPERTY
    @example(3, 7.5e-9, 1, 0.0)
    @example(10_000, 1e-8, 2, 1e-300)
    @given(
        st.integers(3, 10_000),
        st.one_of(st.floats(-1, 1), st.floats(1e-17, 1e-6), st.floats(1 - 1e-6, 1)),
        st.integers(1, 60),
        st.floats(0, 3e3),
    )
    def check(n, r, df, h):
        denom = 1.0 - r * r
        t = abs(r) * math.sqrt((n - 2) / denom) if denom > 0 else math.inf
        for got, want in [
            (stats._t_pvalue(r, n), float(2.0 * special.stdtr(n - 2, -t))),
            (stats.gammaincc(df / 2, h / 2), float(special.chdtrc(df, h))),
        ]:
            if want >= 1e-300:
                assert f"{got:.6g}" == f"{want:.6g}"

    check()


@st.composite
def sparse_table(draw):
    """A table of 2 to 5 columns with many missing cells, some columns
    constant: columns get dropped, pairs get too few rows or no variance."""
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, draw(st.integers(1, 6)), size=(n_rows, n_cols)).astype(float)
    table[:, rng.random(n_cols) < 0.2] = 1.0
    table[rng.random((n_rows, n_cols)) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = np.nan
    return table


@PROPERTY
@given(sparse_table(), st.sampled_from(["spearman", "pearson"]))
def test_correlation_matrix_cells_equal_the_pair_loop(table, method):
    names = ["a", "b", "c,d", "e", "f"][: table.shape[1]]
    try:
        want = correlation_cells_oracle(names, table, method)
    except SampleSizeError as exc:
        with pytest.raises(SampleSizeError, match=str(exc)):
            stats.correlation_matrix(names, table, method=method)
        return
    got = stats.correlation_matrix(names, table, method=method)
    assert (got.variables, got.warnings) == want[:2]
    assert got.n_per_pair.dtype == want[2].dtype and np.array_equal(got.n_per_pair, want[2])
    assert got.coeff.tobytes() == want[3].tobytes() and got.p_raw.tobytes() == want[4].tobytes()


@st.composite
def scored_submission(draw):
    """A submission with some phases and reported scores, and a meta with or
    without the process counts; a few have a client node count of 0, set
    after validation, which no normalization can divide by."""
    value = st.one_of(st.sampled_from([0.0, 5e-324, 1e308, 1.7976931348623157e308]), st.floats(0.0, 1e6))
    nodes = draw(st.integers(1, 2**70))
    meta = SubmissionMeta(
        submission_id="s",
        client_nodes=nodes,
        procs_per_node=draw(st.one_of(st.none(), st.integers(1, 2**40))),
        total_procs=draw(st.one_of(st.none(), st.integers(nodes, 2**80))),
    )
    if draw(st.integers(0, 9)) == 0:
        meta.client_nodes = 0
    phases = draw(st.sets(st.sampled_from(list(Phase))))
    return Submission(
        meta=meta,
        phases={p: PhaseResult(phase=p, value=draw(value), unit=p.unit) for p in phases},
        reported_score_bw=draw(st.one_of(st.none(), value)),
        reported_score_md=draw(st.one_of(st.none(), value)),
        reported_score_overall=draw(st.one_of(st.none(), value)),
    )


@PROPERTY
@given(st.lists(scored_submission(), max_size=6), st.sampled_from(metrics.NORMALIZATIONS))
def test_metric_table_is_bit_equal_to_the_cell_loop(subs, normalize):
    names, table = metrics.metric_table(subs, normalize)
    want_names, want = metric_table_oracle(subs, normalize)
    assert (names, table.shape, table.tobytes()) == (want_names, want.shape, want.tobytes())


@st.composite
def straggler_set(draw):
    """Stragglers in runs with gaps between them, sometimes with a rank
    outside [0, n_ranks), and sometimes shifted to where int64 ends."""
    span = draw(st.integers(1, 300))
    offset = draw(st.sampled_from([0, 0, 0, 2**63 - 150, 2**64]))
    n_ranks = offset + span
    ranks = set()
    for _ in range(draw(st.integers(0, 8))):
        start = offset + draw(st.integers(0, span - 1))
        ranks.update(range(start, min(start + draw(st.integers(1, 40)), n_ranks)))
    if draw(st.integers(0, 5)) == 0:
        ranks.update(draw(st.sets(st.sampled_from([-(2**70), -3, -1, n_ranks, n_ranks + 5, 2**70]), min_size=1)))
    return ranks, n_ranks


@PROPERTY
@example((set(), 10), -5, 0.9, 0.6, 2)
@example(({3, 4, 5, 200}, 100), 3, 0.9, 0.6, 2)
@example(({-1, 5, 200}, 100), 3, 0.9, 0.6, 2)
@example(({5, 2**63, 2**63 + 1, 2**63 + 2}, 2**64), 3, 0.9, 0.6, 2)
@given(
    straggler_set(),
    st.integers(-5, 8),
    st.floats(0.0, 1.2),
    st.floats(0.0, 1.2),
    st.integers(0, 5),
)
def test_classify_straggler_pattern_equals_the_run_loop(drawn, min_size, contiguous, clustered, min_run):
    ranks, n_ranks = drawn
    params = StragglerParams(
        min_pattern_size=min_size, contiguous_fraction=contiguous, clustered_fraction=clustered, min_run_length=min_run
    )
    outcomes = []
    for classify in (
        lambda: loginsight.classify_straggler_pattern(ranks, n_ranks, params),
        lambda: classify_straggler_pattern_oracle(ranks, n_ranks, min_size, contiguous, clustered, min_run),
    ):
        try:
            result = classify()
            outcomes.append((result.pattern, result.adjacency_index, result.run_count, type(result.run_count)))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# --- block and slice boundaries of the streamed paths -----------------------------------

BLOCK_SIZES = [0, 1, 8191, 8192, 8193]
INT64_MAX = 2**63 - 1


@st.composite
def edge_table(draw):
    """A table of 0, 1 or about one block of ranks, with -0.0, 1e-320, NaN
    closes, masked items and int64 edges drawn onto the block boundaries."""
    n = draw(st.sampled_from(BLOCK_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spots = [i for i in (0, 8190, 8191, 8192, n - 1) if 0 <= i < n]
    rank = np.arange(n, dtype=np.int64) * 7
    if n:
        rank[-1] = INT64_MAX
    start = rng.uniform(0.0, 100.0, n)
    start[spots] = draw(st.sampled_from([-0.0, 0.0, 1e-320, 5e-324]))
    end = start + rng.uniform(0.0, 10.0, n)
    end[spots[:1]] = start[spots[:1]]
    close = None
    close_kind = draw(st.sampled_from(["none", "all-nan", "some-nan", "full"]))
    if close_kind != "none":
        close = rng.uniform(0.0, 2.0, n)
        close[spots] = draw(st.sampled_from([-0.0, 1e-320, 0.5]))
        if close_kind == "all-nan":
            close[:] = np.nan
        elif close_kind == "some-nan":
            close[spots[::2]] = np.nan
    items = None
    items_kind = draw(st.sampled_from(["none", "all-masked", "some-masked", "full"]))
    if items_kind != "none":
        data = rng.integers(0, INT64_MAX, n, dtype=np.int64, endpoint=True)
        data[spots] = draw(st.sampled_from([0, INT64_MAX, INT64_MAX - 1]))
        mask = np.zeros(n, dtype=bool)
        if items_kind == "all-masked":
            mask[:] = True
        elif items_kind == "some-masked":
            mask[spots[1::2]] = True
        items = np.ma.MaskedArray(data, mask=mask)
    stonewall = draw(st.sampled_from([None, 300.0, 1e-320, 300]))
    return ProcessTimingTable(
        phase=PHASE, rank=rank, start_s=start, end_s=end, close_s=close, items=items, stonewall_s=stonewall
    )


@settings(PROPERTY, max_examples=60)
@given(edge_table())
def test_streamed_table_line_equals_the_whole_tree_line(table):
    pieces = list(ingest._table_line_pieces(PHASE.value, table))
    assert "".join(pieces) == ingest._json_line({"phase": PHASE.value, **ingest._table_tree(table)})
    # No piece holds more than one block of a column.
    assert max(map(len, pieces)) <= 25 * ingest._ENCODE_BLOCK  # a JSON number and its comma: at most 25 characters


# Line ends that splitlines() knows, put just before or just after the "\n"
# where a slice is cut, and a space at the cut.
CUT_TEXTS = ["\r\n", "\n\r", "\r", "\v\n", "\n\v", "\x1c\n", "\n\x1c", " \n", "\n ", "\n"]


def _cut_csv(rows, ends):
    lines = "".join(f"{row}{end}" for row, end in zip(rows, itertools.cycle(ends)))
    return "# stonewall_s = 300\nrank,start,end,close\n" + lines


CUT_CSVS = [
    _cut_csv([f"{r},0,{300 + r},{r % 3}" for r in range(8)], CUT_TEXTS),
    # The first bad line, after some cuts: a cell that does not convert, then a repeated rank.
    _cut_csv([f"{r},0,{300 + r},{r % 3}" for r in range(5)] + ["5,0,x,1", "1,0,310,1"], CUT_TEXTS[::-1]),
    _cut_csv([f"{r},0,{300 + r},{r % 3}" for r in range(6)] + ["2,0,310,1"], CUT_TEXTS[3:] + CUT_TEXTS[:3]),
]


@pytest.mark.parametrize("text", CUT_CSVS, ids=range(len(CUT_CSVS)))
def test_slice_cuts_match_the_whole_text(text, monkeypatch):
    want = _outcome(lambda: _scan(text))
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(ingest, "_SLICE_CHARS", size)
        start = ingest._timing_layout(text, PHASE)[3]
        pieces = list(ingest._slices(text, start))
        assert all(piece.endswith("\n") for piece in pieces[:-1])
        assert [line for piece in pieces for line in piece.splitlines()] == text[start:].splitlines()
        assert _outcome(lambda: ingest.parse_process_timing(text, PHASE)) == want, size


def _boundary_column(n, clamp_at):
    """n plot values, some far apart, with non-positive ones (clamped on a log
    axis) at the indices of clamp_at that lie below n."""
    values = np.random.default_rng(n).lognormal(0.0, 2.0, n)
    for i in clamp_at:
        if i < n:
            values[i] = -1.5 if i % 2 else 0.0
    return values


@pytest.mark.parametrize("n", [8191, 8192, 8193])
def test_block_quantizer_and_points_equal_the_whole_column(n):
    values = _boundary_column(n, (8190, 8191, 8192))
    q6, text = quantize_oracle(values)
    out = np.empty(n)
    blocks = list(report._q6_blocks(values, out))
    assert [cell for _, cells in blocks for cell in cells] == text and out.tobytes() == q6.tobytes()
    clamped = q6 <= 0
    xs, ys = np.linspace(70.0, 430.0, n), q6 * 3.0
    circle, pinned = '<circle cx="%.2f" cy="%.2f"/>', '<circle cx="%.2f" cy="%.2f" fill="x"/>'
    got = [report._points(circle, pinned, clamped[b], xs[b], ys[b]) for b in report._blocks(n)]
    assert len(got) == -(-n // report._BLOCK)
    want = points_oracle(circle, pinned, clamped, xs.tolist(), ys.tolist())
    assert "".join(got) == "".join(line + "\n" for line in want)


@pytest.mark.parametrize("n", [8191, 8192, 8193])
@pytest.mark.parametrize("scale", ["linear", "log10"])
def test_block_renderers_equal_the_per_point_oracles(n, scale):
    spec = report.RenderSpec(title="t", scale=scale)
    ratios = _boundary_column(n, (0, 8191, 8192))
    pairs = np.column_stack([np.arange(1, n + 1) / n, ratios])
    assert joined(report.render_qq(pairs, spec)) == render_qq_oracle(pairs.tolist(), spec)
    groups = [("b", ratios), ("a", _boundary_column(n - 1, (8190, 8191)))]
    got = joined(report.render_group_box(groups, spec, annotate=False))
    assert got == render_group_box_oracle([(label, values.tolist()) for label, values in groups], spec, annotate=False)
    rows = [("ab"[i % 2], v) for i, v in enumerate(ratios.tolist())]
    assert joined(report.render_score_strip(rows, spec)) == render_score_strip_oracle(rows, spec)


@pytest.mark.parametrize("scale", ["linear", "log10"])
def test_box_outliers_across_a_block_edge_equal_the_per_point_oracle(scale):
    # A block and one of outliers on each side of a tight cluster, so that the
    # outliers of each side cross a block edge; on a log axis every low outlier
    # is pinned to the floor, on both sides of that edge.
    b = report._BLOCK
    rng = np.random.default_rng(b)
    low = -rng.uniform(0.0, 5.0, b + 1)
    low[::3] = 0.0
    high = 2.0 + rng.lognormal(3.0, 1.0, b + 1)
    values = rng.permutation(np.concatenate([low, np.ones(3 * b), high]))
    groups = [("g", values), ("h", values[: b - 1])]
    spec = report.RenderSpec(title="t", scale=scale)
    want = render_group_box_oracle([(label, column.tolist()) for label, column in groups], spec)
    svg, sidecar = joined(report.render_group_box(groups, spec))
    assert (svg, sidecar) == want
    assert svg.count('r="2.0"') > 2 * b + 2 and (scale == "linear" or svg.count(">0</text>") > b)
