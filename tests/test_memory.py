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
| `parse_process_timing`, a bad cell in the first or the last data line | 1.2x, 2.1x | 3.4x, 3.9x (every line at once) | 3x |
| `render_qq` | 1.9x | 3.9x (whole strings) | 3x |
| `render_group_box` of a close column, log scale | 0.7x | 1.04x (whole strings) | 0.85x |
| `_file_lines` of two tables, of the longest line | 3.0x | 4.2x (text mode) | 3.5x |

The CLI holds one timing table at a time, so also one submission's
tables: `ingest` loads, writes and drops one package at a time, and an
analysis decodes each submission's tables when it reaches them. So the
peak of `ingest`, and of `logs --analysis close`, which decodes every
table, hardly grows with the number of submissions. Each is bounded as
the peak on 8 copies of one submission over the peak on 2 copies; the
loaders before held every
submission's tables at once. `close` keeps each table's close times for its
box plot, 8 bytes a value that no loader can drop, so the fixture's close
times sit in a small table beside a large find table, whose rows are what
a loader holds or drops. (On a synth submission with close times in two of
its three 2,048-rank tables, the streamed `close` reads 1.4x.)

| Run, 8 copies over 2 | Streamed | All tables at once | Bound |
|---|---|---|---|
| `ingest` of packages | 1.01x | 1.85x | 1.3x |
| `logs --analysis close` of manifests | 1.00x | 2.82x | 1.3x |

Nor does it grow with the number of a submission's tables: `ingest`
parses, writes and drops each table before it parses the next, and an
analysis decodes each table line when it reaches it. So the peak on a
submission of three 65,536-rank tables is bounded at 1.3 times the peak on
one with one such table; the loaders before held one submission's tables
at once. (`close` keeps each table's close times for its box plot.)

| Run, 3 tables over 1 | Streamed | One submission's tables at once | Bound |
|---|---|---|---|
| `ingest` of a package | 1.00x | 1.54x | 1.3x |
| `logs --analysis close` of its manifest | 1.16x | 1.83x | 1.3x |
| `logs --analysis stonewall` of its manifest | 1.00x | 1.53x | 1.3x |
"""

import collections
import contextlib
import dataclasses
import io
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from io500kit import cli, ingest, loginsight, report, synth
from conftest import SUMMARY_BASIC
from io500kit.errors import ParseError
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
    """The smaller traced peak of two calls, after one untraced call, so that
    caches and compiled patterns are not counted. The interpreter's table of
    interned strings is process-wide too, and pathlib interns each part of a
    path: where a call's inserts fill the table, its resize (1.8 MiB late in
    the whole suite) lands in that call's peak, and the next call runs with
    the resized table."""
    call()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


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


@pytest.mark.parametrize("last", [False, True], ids=["first-line", "last-line"])
def test_failing_parse_process_timing_peak(table, last):
    # The first line at fault is found by walking the text a slice at a time,
    # as the columns are converted, not by splitting the whole body into lines.
    lines = "".join(synth._timing_pieces(table)).splitlines(keepends=True)
    i = len(lines) - 1 if last else 2  # after the stonewall comment and the header
    rank, _, rest = lines[i].split(",", 2)
    lines[i] = f"{rank},x,{rest}"
    text = "".join(lines)
    del lines
    errors = []

    def parse():
        with pytest.raises(ParseError) as caught:
            ingest.parse_process_timing(text, PHASE)
        errors.append(str(caught.value))

    assert _traced_peak(parse) < 3 * _kept(table)
    assert errors == [f"line {i + 1}: malformed start 'x'"] * 3


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


FIND_RANKS = 16384


@pytest.fixture(scope="module")
def copies(tmp_path_factory):
    """{k: (a dir of k copies of one package, a dir of their manifests)} for
    k = 2 and 8. The package has a FIND_RANKS-rank find table and a 64-rank
    ior-easy-write table with close times."""
    rng = np.random.default_rng(7)
    start = np.round(rng.uniform(0.0, 1.0, FIND_RANKS), 6)
    find = ProcessTimingTable(
        phase=Phase.FIND,
        rank=np.arange(FIND_RANKS),
        start_s=start,
        end_s=start + np.round(rng.uniform(5.0, 60.0, FIND_RANKS), 6),
        items=np.ma.MaskedArray(rng.integers(0, 10**6, FIND_RANKS)),
    )
    write = ProcessTimingTable(
        phase=PHASE,
        rank=np.arange(64),
        start_s=np.zeros(64),
        end_s=np.round(rng.uniform(300.0, 330.0, 64), 6),
        close_s=np.round(rng.uniform(0.5, 2.0, 64), 6),
        stonewall_s=300.0,
    )
    root = tmp_path_factory.mktemp("copies")
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / ingest.SUMMARY_FILENAME).write_text(SUMMARY_BASIC)
    (pkg / ingest.META_FILENAME).write_text("submission_id = copy\nfilesystem = lustre\n")
    for table in (find, write):
        (pkg / f"{table.phase.value}.csv").write_text("".join(synth._timing_pieces(table)))
    dirs = {}
    for k in (2, 8):
        packages, manifests = root / f"packages-{k}", root / f"manifests-{k}"
        for i in range(k):
            shutil.copytree(pkg, packages / f"copy-{i}")
        assert _cli(["ingest", packages, "--out", manifests]) == 0
        dirs[k] = packages, manifests
    return dirs


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(arg) for arg in argv])


def test_ingest_peak_does_not_grow_with_packages(copies, tmp_path):
    ingest_copies = lambda k: _cli(["ingest", copies[k][0], "--out", tmp_path / str(k)])
    peak = {k: _traced_peak(lambda: ingest_copies(k)) for k in copies}
    assert len(list((tmp_path / "8").glob("*.json"))) == 8
    assert peak[8] < 1.3 * peak[2], peak


def test_close_peak_does_not_grow_with_manifests(copies, tmp_path):
    close = lambda k: _cli(["logs", copies[k][1], "--analysis", "close", "--out", tmp_path / str(k)])
    peak = {k: _traced_peak(lambda: close(k)) for k in copies}
    assert (tmp_path / "8" / "logs" / "close_box.svg").is_file()
    assert peak[8] < 1.3 * peak[2], peak


TABLE_PHASES = (Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE, Phase.MDTEST_EASY_WRITE)


@pytest.fixture(scope="module")
def tables_of(micro_table, tmp_path_factory):
    """{k: (a package with k N_RANKS-rank write tables with close times, a
    dir of its manifest)} for k = 1 and 3; each table is `micro_table`."""
    root = tmp_path_factory.mktemp("tables")
    dirs = {}
    for k in (1, 3):
        pkg, manifests = root / f"pkg-{k}", root / f"manifests-{k}"
        pkg.mkdir()
        (pkg / ingest.SUMMARY_FILENAME).write_text(SUMMARY_BASIC)
        (pkg / ingest.META_FILENAME).write_text(f"submission_id = tables-{k}\nfilesystem = lustre\n")
        for phase in TABLE_PHASES[:k]:
            written = dataclasses.replace(micro_table, phase=phase)
            (pkg / f"{phase.value}.csv").write_text("".join(synth._timing_pieces(written)))
        assert _cli(["ingest", pkg, "--out", manifests]) == 0
        dirs[k] = pkg, manifests
    return dirs


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest"],
        ["logs", "--analysis", "close"],
        ["logs", "--analysis", "stonewall"],
        ["logs", "--analysis", "stragglers"],
    ],
    ids=["ingest", "close", "stonewall", "stragglers"],
)
def test_peak_does_not_grow_with_tables(tables_of, tmp_path, argv):
    # `ingest` reads the package, and each analysis the manifest `ingest` wrote of it.
    command, *options = argv
    source = 0 if command == "ingest" else 1
    run = lambda k: _cli([command, tables_of[k][source], *options, "--out", tmp_path / str(k)])
    peak = {k: _traced_peak(lambda: run(k)) for k in tables_of}
    assert peak[3] < 1.3 * peak[1], peak
