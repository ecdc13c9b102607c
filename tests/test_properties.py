"""Property tests for the columnar timing parser, the manifest codec, the
other parsers and the synth config loader on odd input, and the columnar
renderers.

Derandomized, so every run checks the same examples.
"""

import dataclasses
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

from io500kit import ingest, report, stats, synth
from io500kit.errors import ConfigError, Io500KitError, ParseError, ValidationError
from io500kit.types import Filesystem, Phase, PhaseResult, ProcessTimingTable, Submission, SubmissionMeta
from oracles import (
    _Axis,
    read_manifest_oracle,
    render_corr_heatmap_oracle,
    render_group_box_oracle,
    render_qq_oracle,
    render_score_strip_oracle,
    scan_timing_rows_oracle,
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
    stonewall, width, col, body, first_line = ingest._timing_layout(text, PHASE)
    columns, warnings = scan_timing_rows_oracle(body, first_line, width, col, PHASE)
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
@given(timing_csv())
def test_vectorized_parse_matches_row_scan(text):
    want = _outcome(lambda: _scan(text))
    assert _outcome(lambda: ingest.parse_process_timing(text, PHASE)) == want
    if want[0] == "ok":
        # The whole-column conversion handles every valid input by itself.
        _, width, col, body, _ = ingest._timing_layout(text, PHASE)
        assert ingest._timing_columns(body, width, col, PHASE) is not None


CHUNK = ingest._CHUNK_ROWS


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
    _, width, col, body, _ = ingest._timing_layout(text, PHASE)
    assert (ingest._timing_columns(body, width, col, PHASE) is not None) == (want[0] == "ok")


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
    each, where the first that a whole-text read meets is the one to report:
    byte, header structure, line count, table line, then meta, phases, table
    columns, warnings and scores."""
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


def _read(read, path, phases):
    try:
        return read(path, phases)
    except Io500KitError as exc:
        return type(exc).__name__, str(exc)


@PROPERTY
@_pin_manifests
@given(damaged_manifest(), st.sampled_from([None, (), (Phase.FIND,), (Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE)]))
def test_line_reader_matches_whole_text_reader(data, phases):
    # The same Submission, or the same error (the first of several, too), as a read of the whole text.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_bytes(data)
        assert _read(ingest.read_manifest, path, phases) == _read(read_manifest_oracle, path, phases)


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
    """The output, or the error, of one render call."""
    try:
        return render(*args, **kwargs)
    except (Io500KitError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def plot_spec(draw):
    return report.RenderSpec(
        title=draw(SPEC_TEXT),
        scale=draw(st.sampled_from(["linear", "log10"])),
        x_label=draw(SPEC_TEXT),
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
    return report.HeatmapData(names, *columns)


_CORR_TABLE = np.column_stack([np.arange(12.0), np.arange(12.0) ** 2 % 7, np.r_[np.nan, np.arange(11.0)][::-1]])


@PROPERTY
@example(report.HeatmapData([], *[np.zeros((0, 0))] * 3, np.zeros((0, 0), bool)), None)
@example(stats.correlation_matrix(["a,b", 'say "hi"', "<&>"], _CORR_TABLE), report.RenderSpec(title="t<&>"))
@example(stats.correlation_matrix(["x", "y"], np.column_stack([np.arange(9.0)] * 2)), None)
@given(heatmap_input(), plot_spec())
def test_render_corr_heatmap_matches_per_cell_oracle(data, spec):
    want = render_corr_heatmap_oracle(data, spec)
    assert report.render_corr_heatmap(data, spec) == want
    # The same input re-read from its sidecar, as a HeatmapData.
    rebuilt = report.heatmap_from_sidecar(want[1])
    assert report.render_corr_heatmap(rebuilt, spec) == render_corr_heatmap_oracle(rebuilt, spec)


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
