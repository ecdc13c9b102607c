"""Memory regression: the traced peak of the per-rank paths on a 65,536-rank
table, as a multiple of the numpy columns the table keeps, and of the line
loop that reads its manifest, as a multiple of the longest line.

tracemalloc counts the bytes Python and numpy allocate, which, unlike RSS,
are the same from run to run. Each bound lies between the peak measured for
the streamed paths and the peak of the whole-table code before them. A plot
renderer's pieces are drained into a null sink, as write_render writes them;
before, a renderer returned its SVG and sidecar as two whole strings. The
fixture's uniform times are never exact microseconds, so the manifest holds
them as floats; quantized as synth writes them, they are held as integers:

| Path | Streamed | Whole-table | Bound |
|---|---|---|---|
| `write_manifest` | 0.6x | 7.7x | 2x |
| `read_manifest` | 5.5x | 9.2x | 7x |
| `write_manifest`, times in microseconds | 0.64x | | 2x |
| `read_manifest`, times in microseconds | 2.6x | | 7x |
| `parse_process_timing` | 2.6x | 5.1x | 3.5x |
| `render_qq` | 1.9x | 3.9x (whole strings) | 3x |
| `render_group_box` of a close column, log scale | 0.7x | 1.04x (whole strings) | 0.85x |
| `_file_lines` of two tables, of the longest line | 3.0x | 4.2x (text mode) | 3.5x |
"""

import collections
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from io500kit import ingest, loginsight, report, synth
from io500kit.types import Phase, ProcessTimingTable, Submission, SubmissionMeta

N_RANKS = 65536
PHASE = Phase.IOR_EASY_WRITE


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(5)
    start = rng.uniform(0.0, 1.0, N_RANKS)
    return ProcessTimingTable(
        phase=PHASE,
        rank=np.arange(N_RANKS),
        start_s=start,
        end_s=start + rng.uniform(300.0, 330.0, N_RANKS),
        close_s=rng.uniform(0.0, 2.0, N_RANKS),
        items=np.ma.MaskedArray(rng.integers(0, 10**6, N_RANKS)),
        stonewall_s=300.0,
    )


@pytest.fixture(scope="module")
def micro_table(table):
    """The table with its times quantized to microseconds, as synth writes
    them: the manifest holds them as integers, not floats."""
    quantized = {key: synth._r6_array(getattr(table, key)) for key in ("start_s", "end_s", "close_s")}
    return dataclasses.replace(table, **quantized)


def _kept(table) -> int:
    """The bytes of the table's columns and its items mask."""
    return sum(c.nbytes for c in (table.rank, table.start_s, table.end_s, table.close_s, table.items.data)) + N_RANKS


def _traced_peak(call) -> int:
    call()  # once untraced, so that caches and compiled patterns are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _microsecond_columns(path) -> list[str]:
    return json.loads(path.read_text().splitlines()[1])["us"]


def test_write_manifest_peak(table, tmp_path):
    sub = Submission(meta=SubmissionMeta(submission_id="m"), timing={PHASE: table})
    assert _traced_peak(lambda: ingest.write_manifest(sub, tmp_path / "m.json")) < 2 * _kept(table)
    assert _microsecond_columns(tmp_path / "m.json") == []  # uniform floats are never exact microseconds


def test_read_manifest_peak(table, tmp_path):
    path = tmp_path / "m.json"
    ingest.write_manifest(Submission(meta=SubmissionMeta(submission_id="m"), timing={PHASE: table}), path)
    assert _traced_peak(lambda: ingest.read_manifest(path)) < 7 * _kept(table)


def test_write_manifest_peak_in_microseconds(micro_table, tmp_path):
    sub = Submission(meta=SubmissionMeta(submission_id="m"), timing={PHASE: micro_table})
    assert _traced_peak(lambda: ingest.write_manifest(sub, tmp_path / "m.json")) < 2 * _kept(micro_table)
    assert _microsecond_columns(tmp_path / "m.json") == ["close_s", "end_s", "start_s"]


def test_read_manifest_peak_in_microseconds(micro_table, tmp_path):
    path = tmp_path / "m.json"
    ingest.write_manifest(Submission(meta=SubmissionMeta(submission_id="m"), timing={PHASE: micro_table}), path)
    assert _microsecond_columns(path) == ["close_s", "end_s", "start_s"]
    assert _traced_peak(lambda: ingest.read_manifest(path)) < 7 * _kept(micro_table)


def test_file_lines_peak(table, tmp_path):
    # Each line is read as bytes and decoded on its own, not through a text-mode
    # reader. The bare loop holds the first table's line while it reads the second.
    path = tmp_path / "m.json"
    timing = {PHASE: table, Phase.IOR_HARD_WRITE: dataclasses.replace(table, phase=Phase.IOR_HARD_WRITE)}
    ingest.write_manifest(Submission(meta=SubmissionMeta(submission_id="m"), timing=timing), path)
    longest = max(map(len, path.read_bytes().split(b"\n")))

    def loop():
        for _ in ingest._file_lines(path):
            pass

    assert _traced_peak(loop) < 3.5 * longest


def test_parse_process_timing_peak(table):
    text = "".join(synth._timing_pieces(table))
    assert _traced_peak(lambda: ingest.parse_process_timing(text, PHASE)) < 3.5 * _kept(table)


def _drained(pieces) -> None:
    collections.deque(pieces, maxlen=0)


def test_render_qq_peak(table):
    qq = loginsight.stonewall_ratios(table).qq
    assert _traced_peak(lambda: _drained(report.render_qq(qq))) < 3 * _kept(table)


def test_render_group_box_peak(table):
    # One group of close times, as `logs --analysis close` draws them.
    closes = loginsight.close_time_report(table).close_s_per_rank
    spec = report.RenderSpec(scale="log10")
    render = lambda: _drained(report.render_group_box([("lustre", closes)], spec, annotate=False))
    assert _traced_peak(render) < 0.85 * _kept(table)
