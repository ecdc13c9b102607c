"""Property tests for the columnar timing parser and the manifest codec.

Derandomized, so every run checks the same examples.
"""

import dataclasses
import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from io500kit import ingest
from io500kit.errors import Io500KitError
from io500kit.types import Phase, PhaseResult, ProcessTimingTable, Submission, SubmissionMeta

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
    columns, warnings = ingest._scan_timing_rows(body, first_line, width, col, PHASE)
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
