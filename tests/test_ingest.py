import contextlib
import copy
import errno
import importlib.util
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from io500kit import cli, ingest
from io500kit.errors import (
    EmptyInputError,
    LoadError,
    ParseError,
    SchemaError,
    ValidationError,
)
from io500kit.types import Filesystem, Phase, ProcessTimingTable, Submission, SubmissionMeta
from oracles import dumps_manifest_v3_oracle, dumps_manifest_v4_oracle


# --- result summary -----------------------------------------------------------


def test_parse_summary_basic(summary_basic):
    parsed = ingest.parse_result_summary(summary_basic)
    assert len(parsed.phases) == 12
    by_phase = {p.phase: p for p in parsed.phases}
    ew = by_phase[Phase.IOR_EASY_WRITE]
    assert ew.value == 113.0
    assert ew.unit == "GiB/s"
    assert ew.runtime_s == 316.631
    assert parsed.reported_score_bw == 15.177613
    assert parsed.reported_score_md == 31.074327
    assert parsed.reported_score_overall == 21.719972
    assert parsed.warnings == []


def test_parse_summary_underscore_names():
    text = "[RESULT] ior_easy_write 113.000 GiB/s : time 316.6 seconds\n"
    parsed = ingest.parse_result_summary(text)
    assert parsed.phases[0].phase is Phase.IOR_EASY_WRITE


def test_parse_summary_gbs_unit_warning():
    text = "[RESULT] ior-easy-write 113.000 GB/s : time 316.6 seconds\n"
    parsed = ingest.parse_result_summary(text)
    assert parsed.phases[0].unit == "GiB/s"
    assert any("GB/s" in w for w in parsed.warnings)


def test_parse_summary_unknown_unit_is_error():
    with pytest.raises(ParseError) as caught:
        ingest.parse_result_summary("[RESULT] ior-easy-write 113.000 MB/s : time 316.6 seconds\n")
    assert str(caught.value) == "line 1: unknown unit 'MB/s' for ior-easy-write"


def test_parse_summary_skips_unknown_lines(summary_basic):
    noisy = "[preamble] whatever\n" + summary_basic + "result of run: fine\n"
    parsed = ingest.parse_result_summary(noisy)
    assert len(parsed.phases) == 12


def test_parse_summary_duplicate_phase_error():
    text = (
        "[RESULT] ior-easy-write 113.0 GiB/s : time 316.6 seconds\n"
        "[RESULT] ior_easy_write 99.0 GiB/s : time 300.0 seconds\n"
    )
    with pytest.raises(ParseError, match="duplicate phase ior-easy-write"):
        ingest.parse_result_summary(text)


def test_parse_summary_malformed_value_has_line_number():
    text = (
        "[RESULT] ior-easy-write 113.0 GiB/s : time 316.6 seconds\n"
        "[RESULT] ior-hard-write 1.2.3 GiB/s : time 300.0 seconds\n"
    )
    with pytest.raises(ParseError, match="line 2"):
        ingest.parse_result_summary(text)


def test_parse_summary_zero_matches_is_error():
    with pytest.raises(EmptyInputError):
        ingest.parse_result_summary("no benchmark lines here\nstill nothing\n")


def test_parse_summary_score_only_is_allowed():
    parsed = ingest.parse_result_summary(
        "[SCORE ] Bandwidth 100.0 GiB/s : IOPS 400.0 kiops : TOTAL 200.0\n"
    )
    assert parsed.phases == []
    assert parsed.reported_score_overall == 200.0


def test_parse_summary_unit_mismatch_is_error():
    with pytest.raises(ParseError, match="kIOPS"):
        ingest.parse_result_summary(
            "[RESULT] ior-easy-write 113.0 kIOPS : time 316.6 seconds\n"
        )


def test_parse_summary_unrecognized_phase_warned_and_skipped():
    text = (
        "[RESULT] ior-extra-hard-write 5.0 GiB/s : time 300.0 seconds\n"
        "[RESULT] ior-easy-write 113.0 GiB/s : time 316.6 seconds\n"
    )
    parsed = ingest.parse_result_summary(text)
    assert [p.phase for p in parsed.phases] == [Phase.IOR_EASY_WRITE]
    assert any("unrecognized phase" in w for w in parsed.warnings)


def test_parse_summary_never_duplicates_phases(summary_basic):
    parsed = ingest.parse_result_summary(summary_basic)
    phases = [p.phase for p in parsed.phases]
    assert len(phases) == len(set(phases))


# --- process timing -------------------------------------------------------------


def test_parse_timing_basic():
    text = "rank,start,end,close,items\n0,0.0,300.1,2.5,1000\n1,0.5,301.0,1.5,900\n"
    table, warnings = ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)
    assert warnings == []
    assert table.n_ranks == 2
    row = (table.rank[0], table.start_s[0], table.end_s[0], table.close_s[0], table.items[0])
    assert row == (0, 0.0, 300.1, 2.5, 1000)


def test_parse_timing_sorted_by_rank_and_extra_columns_ignored():
    text = "start,rank,end,hostname\n10.0,2,310.0,n2\n0.0,0,300.0,n0\n5.0,1,305.0,n1\n"
    table, _ = ingest.parse_process_timing(text, Phase.IOR_HARD_WRITE)
    assert table.rank.tolist() == [0, 1, 2]


def test_parse_timing_stonewall_comment():
    text = "# stonewall_s = 300.0\nrank,start,end\n0,0.0,310.0\n"
    table, _ = ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)
    assert table.stonewall_s == 300.0


def test_parse_timing_rejects_bad_rows_individually():
    text = "rank,start,end\n0,0.0,300.0\n1,500.0,400.0\n2,0.0,299.0\n"
    table, warnings = ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)
    assert table.rank.tolist() == [0, 2]
    assert len(warnings) == 1 and "end" in warnings[0]


def test_parse_timing_duplicate_rank_error():
    text = "rank,start,end\n0,0.0,300.0\n1,0.0,300.0\n1,0.0,301.0\n"
    with pytest.raises(ValidationError, match="duplicate rank 1"):
        ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)


def test_parse_timing_missing_column_schema_error():
    text = "rank,start\n0,0.0\n"
    with pytest.raises(SchemaError, match=r"missing required columns \['end'\]"):
        ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)


def test_parse_timing_comments_only_has_no_header():
    with pytest.raises(SchemaError) as caught:
        ingest.parse_process_timing("# stonewall_s = 300\n\n# no table\n", Phase.IOR_EASY_WRITE)
    assert str(caught.value) == "ior-easy-write: timing CSV has no header"


def test_parse_timing_blank_lines_before_the_header_are_counted():
    text = "\n# stonewall_s = 300\n  \nrank,start,end\n0,0.0,310.0\n1,0.0,x\n"
    with pytest.raises(ParseError) as caught:
        ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)
    assert str(caught.value) == "line 6: malformed end 'x'"
    table, _ = ingest.parse_process_timing(text.replace(",x", ",311.0"), Phase.IOR_EASY_WRITE)
    assert (table.stonewall_s, table.n_ranks) == (300.0, 2)


def test_parse_timing_blank_optional_cells():
    text = "rank,start,end,close\n0,0.0,300.0,\n1,0.0,300.0,2.0\n"
    table, _ = ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)
    assert np.isnan(table.close_s[0])
    assert table.close_s[1] == 2.0


def test_parse_timing_malformed_number_is_error():
    text = "rank,start,end\n0,abc,300.0\n"
    with pytest.raises(ParseError, match="line 2"):
        ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)


@pytest.mark.parametrize("cell", ["1.5", "0.9999", "-0.5", "2.7", "-9.223372036854775808e18"])
def test_parse_timing_fractional_items_is_error(cell):
    text = f"rank,start,end,items\n0,0.0,310.0,3\n1,0.0,310.0,{cell}\n"
    with pytest.raises(ParseError, match=f"^line 3: ior-easy-write: malformed items '{cell}'$"):
        ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)


def test_parse_timing_integer_items_are_exact():
    # A float holds every integer only up to 2**53; an integer spelling is read exactly.
    counts = [2**53 + 1, 2**63 - 1, -(2**63)]
    text = "rank,start,end,items\n" + "".join(f"{r},0.0,310.0,{c}\n" for r, c in enumerate(counts))
    table, warnings = ingest.parse_process_timing(text, Phase.FIND)
    assert table.items.tolist() == counts[:2]
    assert warnings == [f"find: rank 2 rejected (negative items {-(2**63)})"]
    for cell in (str(2**63), str(-(2**63) - 1)):
        with pytest.raises(ParseError, match=f"^line 2: find: malformed items '{cell}'$"):
            ingest.parse_process_timing(f"rank,start,end,items\n0,0.0,310.0,{cell}\n", Phase.FIND)


def test_parse_timing_whole_items_spellings():
    text = "rank,start,end,items\n0,0.0,310.0,10.0\n1,0.0,310.0,1e3\n2,0.0,310.0, 7 \n3,0.0,310.0,-0.0\n"
    table, warnings = ingest.parse_process_timing(text, Phase.IOR_EASY_WRITE)
    assert table.items.tolist() == [10, 1000, 7, 0] and warnings == []


# --- metadata normalization -------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Spectrum Scale", Filesystem.GPFS),
        ("GPFS", Filesystem.GPFS),
        ("IBM Spectrum Scale", Filesystem.GPFS),
        ("lustre", Filesystem.LUSTRE),
        ("Lustre 2.12 ExaScaler", Filesystem.LUSTRE),
        ("DAOS", Filesystem.DAOS),
        ("WekaIO", Filesystem.WEKAFS),
        ("BeeGFS", Filesystem.BEEGFS),
        ("MysteryFS-9000", Filesystem.OTHER),
        ("IBM Storage Scale", Filesystem.GPFS),
        ("storage scale 5.1", Filesystem.GPFS),
    ],
)
def test_normalize_filesystem(raw, expected):
    assert ingest.normalize_filesystem(raw) is expected


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("IB HDR", 200.0),
        ("InfiniBand EDR", 100.0),
        ("Omni-Path", 100.0),
        ("HDR100", 100.0),
        ("25 Gb/s Ethernet", 25.0),
        ("100Gbps RoCE", 100.0),
        ("mystery-net-9000", None),
        ("", None),
        ("9" * 400 + " Gb/s", None),  # float() gives inf
    ],
)
def test_normalize_interconnect(raw, expected):
    assert ingest.normalize_interconnect(raw) == expected


def test_normalize_metadata_total_and_fallbacks():
    meta = ingest.normalize_metadata(
        {"filesystem": "mystery", "interconnect": "funky", "client_nodes": "??"}
    )
    assert meta.filesystem_norm is Filesystem.OTHER
    assert meta.interconnect_gbps is None
    assert meta.client_nodes == 1
    assert meta.list_label == "other"


@pytest.mark.parametrize(
    "raw, count",
    [("10", 10), (" 10 ", 10), ("10.0", 10), ("1e3", 1000), ("2.5", None), ("7.9", None), ("inf", None), ("x", None), ("1e20", 10**20)],
)
def test_counts_are_whole_numbers(raw, count):
    meta = ingest.normalize_metadata({"client_nodes": "1", "procs_per_node": raw, "nic_count": raw})
    assert meta.procs_per_node == count and meta.nic_count_reported == count


@pytest.mark.parametrize("raw", ["9007199254740993", " 9007199254740993 ", str(2**63 + 1), "1" + "0" * 40 + "1"])
def test_counts_above_2_53_are_exact(raw):
    # A float holds every integer only up to 2**53; an integer spelling is read exactly.
    meta = ingest.normalize_metadata({"client_nodes": raw, "total_procs": raw})
    assert meta.client_nodes == meta.total_procs == int(raw)


def test_repo_csv_fractional_counts():
    text = "id,list,filesystem,client_nodes,procs_per_node\nx,SC22,lustre,2.5,7.9\ny,SC22,lustre,2,7.9\n"
    result = ingest.parse_repo_csv(text)
    assert result.skipped == [(1, "invalid client_nodes '2.5'")]
    (sub,) = result.submissions
    assert (sub.meta.client_nodes, sub.meta.procs_per_node) == (2, None)


@pytest.mark.parametrize(
    "cell, nodes",
    [("1e20", 10**20), (str(2**63 + 1), 2**63 + 1), ("2.5", None), ("-9.223372036854775808e18", None)],
)
def test_repo_csv_client_nodes_is_a_whole_count(cell, nodes):
    # The rule of test_counts_are_whole_numbers; a cell that is no count skips its row.
    result = ingest.parse_repo_csv(f"id,list,filesystem,client_nodes\nx,SC22,lustre,{cell}\ny,SC22,lustre,2\n")
    if nodes is None:
        assert result.skipped == [(1, f"invalid client_nodes {cell!r}")]
    else:
        assert result.submissions[0].meta.client_nodes == nodes


def test_normalize_filesystem_idempotent():
    for fs in Filesystem:
        assert ingest.normalize_filesystem(fs.value) is fs


def test_normalize_metadata_idempotent():
    raw = {
        "submission_id": "s1",
        "list_label": "ISC22",
        "filesystem": "Spectrum Scale",
        "interconnect": "IB HDR",
        "client_nodes": 10,
        "procs_per_node": 16,
        "total_procs": 160,
    }
    once = ingest.normalize_metadata(raw)
    again = ingest.normalize_metadata(
        {
            "submission_id": once.submission_id,
            "list_label": once.list_label,
            "filesystem": once.filesystem_norm.value,
            "interconnect": once.interconnect_raw,
            "client_nodes": once.client_nodes,
            "procs_per_node": once.procs_per_node,
            "total_procs": once.total_procs,
        }
    )
    assert again.filesystem_norm is once.filesystem_norm
    assert again.interconnect_gbps == once.interconnect_gbps
    assert again.list_label == once.list_label


def test_interconnect_class_labels():
    meta = ingest.normalize_metadata({"interconnect": "IB HDR", "client_nodes": 1})
    assert ingest.interconnect_class(meta) == "200 Gb/s"
    meta = ingest.normalize_metadata({"interconnect": "whatever", "client_nodes": 1})
    assert ingest.interconnect_class(meta) == "unknown"


# --- repository CSV ----------------------------------------------------------------


REPO_HEADER = "id,list,filesystem,interconnect,client_nodes,score,score_bw,score_md,ior_easy_write"


def test_parse_repo_csv_basic():
    text = REPO_HEADER + "\nsub-1,ISC22,Lustre,IB HDR,10,36850,504,2693000,809\n"
    result = ingest.parse_repo_csv(text)
    assert len(result.submissions) == 1
    sub = result.submissions[0]
    assert sub.meta.client_nodes == 10
    assert sub.reported_score_overall == 36850.0
    assert sub.phases[Phase.IOR_EASY_WRITE].value == 809.0
    # per-node overall available downstream
    from io500kit.metrics import per_node

    assert per_node(sub.reported_score_overall, sub.meta) == 3685.0


def test_parse_repo_csv_skips_and_counts():
    text = (
        REPO_HEADER + "\n"
        "sub-1,ISC22,Lustre,IB HDR,10,100,,,\n"
        "sub-2,ISC22,,IB HDR,10,100,,,\n"  # blank filesystem
        "sub-3,,Lustre,IB HDR,10,100,,,\n"  # blank list
        "sub-4,ISC22,Lustre,IB HDR,,100,,,\n"  # blank nodes
    )
    result = ingest.parse_repo_csv(text)
    assert len(result.submissions) == 1
    assert len(result.skipped) == 3
    assert result.n_rows == 4
    reasons = " | ".join(reason for _, reason in result.skipped)
    assert "filesystem" in reasons and "list label" in reasons and "client_nodes" in reasons


def test_parse_repo_csv_row_count_invariant_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        rows = [REPO_HEADER]
        for i in range(n):
            fs = "Lustre" if rng.random() < 0.7 else ""
            label = "SC21" if rng.random() < 0.8 else ""
            nodes = str(int(rng.integers(1, 40))) if rng.random() < 0.9 else ""
            rows.append(f"s{i},{label},{fs},IB EDR,{nodes},1,1,1,1")
        text = "\n".join(rows) + "\n"
        try:
            result = ingest.parse_repo_csv(text)
        except EmptyInputError:
            continue
        assert result.n_rows == n


def test_parse_repo_csv_empty_dataset_error():
    with pytest.raises(EmptyInputError):
        ingest.parse_repo_csv(REPO_HEADER + "\n")
    with pytest.raises(ParseError):
        ingest.parse_repo_csv("")


def test_parse_repo_csv_custom_column_map(tmp_path):
    cmap_file = tmp_path / "map.json"
    cmap_file.write_text(
        json.dumps(
            {
                "submission_id": "SubmissionID",
                "list_label": "List",
                "filesystem": "FS",
                "client_nodes": "Nodes",
                "phases": {"ior-easy-write": "IOR_EW"},
            }
        )
    )
    cmap = ingest.load_column_map(cmap_file)
    text = "SubmissionID,List,FS,Nodes,IOR_EW\nx,SC22,daos,4,55.5\n"
    result = ingest.parse_repo_csv(text, cmap)
    sub = result.submissions[0]
    assert sub.meta.filesystem_norm is Filesystem.DAOS
    assert sub.phases[Phase.IOR_EASY_WRITE].value == 55.5


def test_parse_repo_csv_partial_column_map():
    # A caller's map may lack keys: the field is then absent, as if mapped to null.
    text = REPO_HEADER + "\nsub-1,ISC22,Lustre,IB HDR,10,36850,504,2693000,809\n"
    no_score = {k: v for k, v in ingest.DEFAULT_COLUMN_MAP.items() if k != "score_overall"}
    sub = ingest.parse_repo_csv(text, no_score).submissions[0]
    assert sub.reported_score_overall is None and sub.reported_score_bw == 504.0
    assert sub.phases[Phase.IOR_EASY_WRITE].value == 809.0
    no_label = {k: v for k, v in no_score.items() if k != "list_label"}
    with pytest.raises(EmptyInputError, match=r"\(1 skipped\)"):
        ingest.parse_repo_csv(text, no_label)


# --- package loading ------------------------------------------------------------------


def _write_package(tmp_path, summary, meta=None, csvs=None):
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / ingest.SUMMARY_FILENAME).write_text(summary)
    if meta is not None:
        (pkg / ingest.META_FILENAME).write_text(meta)
    for name, text in (csvs or {}).items():
        (pkg / name).write_text(text)
    return pkg


META_BASIC = """\
submission_id = site-a-run1
list_label = SC22
institution = Example HPC Center
filesystem = Spectrum Scale
interconnect = IB HDR
client_nodes = 10
procs_per_node = 16
total_procs = 160
"""


def test_load_submission_summary_only(tmp_path, summary_basic):
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC)
    sub = ingest.load_submission(pkg)
    assert sub.timing == {}
    assert sub.meta.filesystem_norm is Filesystem.GPFS
    assert sub.meta.submission_id == "site-a-run1"
    assert len(sub.phases) == 12


def test_submission_keeps_phases_in_phase_order(tmp_path, summary_basic):
    # The summary lists IO500's own order: mdtest-easy-write before ior-hard-write.
    lines = summary_basic.splitlines()
    assert lines.index(next(line for line in lines if "mdtest-easy-write" in line)) < lines.index(
        next(line for line in lines if "ior-hard-write" in line)
    )
    sub = ingest.load_submission(_write_package(tmp_path, summary_basic, meta=META_BASIC))
    assert list(sub.phases) == list(Phase)
    assert list(Submission(meta=sub.meta, phases=dict(reversed(sub.phases.items()))).phases) == list(Phase)


def test_submission_keeps_timing_in_phase_name_order():
    # Phase order puts find last; phase-name order puts it first.
    tables = {
        phase: ProcessTimingTable(phase=phase, rank=[0], start_s=[0.0], end_s=[1.0])
        for phase in (Phase.IOR_EASY_WRITE, Phase.MDTEST_EASY_WRITE, Phase.FIND)
    }
    sub = Submission(meta=SubmissionMeta(submission_id="s"), timing=tables)
    assert list(sub.timing) == [Phase.FIND, Phase.IOR_EASY_WRITE, Phase.MDTEST_EASY_WRITE]
    assert sub.timing == tables


def test_load_submission_discovers_timing(tmp_path, summary_basic):
    timing = "# stonewall_s=300\nrank,start,end\n0,0,310\n1,0,312\n"
    pkg = _write_package(
        tmp_path,
        summary_basic,
        meta=META_BASIC,
        csvs={"ior-easy-write.csv": timing, "ior_hard_write-extra.csv": timing},
    )
    sub = ingest.load_submission(pkg)
    assert set(sub.timing) == {Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE}


def test_load_submission_takes_its_header_read_already(tmp_path, summary_basic, monkeypatch):
    timing = "# stonewall_s=300\nrank,start,end\n0,0,310\n1,0,312\n"
    csvs = {"ior-easy-write.csv": timing, "notaphase.csv": timing}
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC, csvs=csvs)
    whole = ingest.load_submission(pkg)
    header = ingest.load_package_header(pkg)
    kept = copy.deepcopy(header)
    monkeypatch.setattr(ingest, "load_package_header", None)  # not read again
    assert ingest.load_submission(pkg, None, header) == whole
    assert header == kept and not header.timing


def test_load_submission_parses_only_the_timing_of_phases(tmp_path, summary_basic, monkeypatch):
    timing = "# stonewall_s=300\nrank,start,end\n0,0,310\n1,0,312\n"
    csvs = {"ior-easy-write.csv": timing, "ior_hard_write-extra.csv": timing, "find.csv": timing}
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC, csvs=csvs)
    whole = ingest.load_submission(pkg)
    parsed = []

    def counted(text, phase):
        parsed.append(phase)
        return parse(text, phase)

    parse = ingest.parse_process_timing
    monkeypatch.setattr(ingest, "parse_process_timing", counted)
    for phases in [(), (Phase.FIND,), (Phase.IOR_HARD_WRITE, Phase.MDTEST_EASY_WRITE)]:
        parsed.clear()
        sub = ingest.load_submission(pkg, phases)
        assert parsed == [p for p in whole.timing if p in phases]
        assert sub.timing == {p: t for p, t in whole.timing.items() if p in phases}
        assert (sub.meta, sub.phases) == (whole.meta, whole.phases)


def test_load_submission_ignores_a_second_timing_file_for_a_phase(tmp_path, summary_basic):
    # "-" sorts before "_", so the dashed file is read and the other ignored.
    csvs = {
        "ior-easy-write.csv": "rank,start,end\n0,0,310\n",
        "ior_easy_write.csv": "rank,start,end\n0,0,320\n1,0,320\n",
    }
    sub = ingest.load_submission(_write_package(tmp_path, summary_basic, meta=META_BASIC, csvs=csvs))
    assert sub.timing[Phase.IOR_EASY_WRITE].end_s.tolist() == [310.0]
    assert sub.warnings == ["ior_easy_write.csv: duplicate timing file for ior-easy-write, ignored"]


def test_load_submission_corrupt_timing_degrades(tmp_path, summary_basic):
    pkg = _write_package(
        tmp_path,
        summary_basic,
        meta=META_BASIC,
        csvs={"ior-easy-write.csv": "rank,start\n0,0\n"},
    )
    sub = ingest.load_submission(pkg)
    assert sub.timing == {}
    assert any("timing discarded" in w for w in sub.warnings)


def test_load_submission_missing_summary(tmp_path):
    pkg = tmp_path / "empty"
    pkg.mkdir()
    with pytest.raises(LoadError):
        ingest.load_submission(pkg)


def test_load_submission_missing_meta_warns(tmp_path, summary_basic):
    pkg = _write_package(tmp_path, summary_basic)
    sub = ingest.load_submission(pkg)
    assert sub.meta.submission_id == "pkg"
    assert any("meta.txt missing" in w for w in sub.warnings)


def test_meta_lines_split_at_their_first_separator(tmp_path, summary_basic):
    # A value may hold the other separator: "key: a=b" and "key = a:b".
    meta = "submission_id: run (id=7)\nfilesystem: Lustre (mount=/lustre)\ninterconnect = IB: HDR\n"
    sub = ingest.load_submission(_write_package(tmp_path, summary_basic, meta=meta))
    assert sub.meta.submission_id == "run (id=7)"
    assert (sub.meta.filesystem_raw, sub.meta.filesystem_norm) == ("Lustre (mount=/lustre)", Filesystem.LUSTRE)
    assert (sub.meta.interconnect_raw, sub.meta.interconnect_gbps) == ("IB: HDR", 200.0)


# --- manifest round trip ----------------------------------------------------------------


def test_manifest_round_trip(tmp_path, summary_basic):
    timing = "# stonewall_s=300\nrank,start,end,close,items\n0,0.25,310.5,2.5,1000\n1,0.5,312.25,,\n"
    pkg = _write_package(
        tmp_path, summary_basic, meta=META_BASIC, csvs={"ior-easy-write.csv": timing}
    )
    sub = ingest.load_submission(pkg)
    path = tmp_path / "m.json"
    ingest.write_manifest(sub, path)
    again = ingest.read_manifest(path)
    assert again == sub
    # serialization is stable, too
    assert ingest.dumps_manifest(again) == ingest.dumps_manifest(sub)


def test_concurrent_loads_match_sequential(tmp_path, summary_basic):
    # loads are pure functions of the package tree; order and workers must not matter
    from concurrent.futures import ThreadPoolExecutor

    from io500kit.synth import SynthConfig, gen_corpus, write_corpus

    pkg_dirs = write_corpus(gen_corpus(SynthConfig(seed=3, n_submissions=8)), tmp_path)
    sequential = [ingest.load_submission(p) for p in pkg_dirs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(ingest.load_submission, pkg_dirs))
    assert concurrent == sequential


def test_manifest_requires_format_version(tmp_path, summary_basic):
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC)
    sub = ingest.load_submission(pkg)
    doc = ingest.to_manifest(sub)
    assert doc["format_version"] == ingest.MANIFEST_FORMAT_VERSION
    del doc["format_version"]
    with pytest.raises(ValidationError):
        ingest.from_manifest(doc)


def _set(path, value):
    """Mutation that sets doc[path[0]][path[1]]... = value."""

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return mutate


def _drop(key):
    def mutate(doc):
        del doc[key]
        return doc

    return mutate


def _both(first, second):
    return lambda doc: second(first(doc))


EASY = ("timing", "ior-easy-write")
EASY_US = "timing.ior-easy-write"
NOT_MICROSECONDS = "expected a list of integer microseconds below 2**53 in magnitude"
MALFORMED_MANIFESTS = [
    (_set(("format_version",), "x"), "unsupported manifest format_version 'x'"),
    (_set(("format_version",), 6), "unsupported manifest format_version 6"),
    (
        _set(("format_version",), 1),
        "manifest format_version 1 is no longer read; re-run `io500kit ingest` to regenerate it",
    ),
    (
        _set(("format_version",), 2),
        "manifest format_version 2 is no longer read; re-run `io500kit ingest` to regenerate it",
    ),
    (_drop("format_version"), "manifest missing format_version"),
    (_drop("meta"), "manifest: missing 'meta'"),
    (_drop("timing"), "manifest: missing 'timing'"),
    (lambda doc: [doc], "manifest: expected an object, got list"),
    (_set(("meta", "client_nodes"), "3"), "meta.client_nodes: unexpected str value"),
    (_set(("meta", "filesystem_norm"), "zfs"), "meta.filesystem_norm: unknown value 'zfs'"),
    (_set(("phases", 0, "phase"), "ior-medium"), "phases[0].phase: unknown value 'ior-medium'"),
    (_set(("phases", 0, "value"), None), "phases[0].value: unexpected NoneType value"),
    (_set(("phases", 0), []), "phases[0]: expected an object, got list"),
    (_set(("warnings",), [1]), "manifest.warnings: expected a list of strings"),
    (_set((*EASY, "rank"), ["0", "1"]), "timing.ior-easy-write.rank: expected a list of integers"),
    (_set((*EASY, "start_s"), None), "timing.ior-easy-write.start_s: unexpected NoneType value"),
    (_set((*EASY, "end_s"), None), "timing.ior-easy-write.end_s: unexpected NoneType value"),
    (_set((*EASY, "items"), [1.5, None]), "timing.ior-easy-write.items: expected a list of integers"),
    (_set((*EASY, "end_s"), [0]), "timing.ior-easy-write: timing columns must be 1-d and of equal length"),
    (_set((*EASY, "items"), [None]), "timing.ior-easy-write: timing columns must be 1-d and of equal length"),
    (_set((*EASY, "rank"), [0, 0]), "timing.ior-easy-write: duplicate ranks: [0]"),
    (_set((*EASY, "end_s"), [0, 0]), "timing.ior-easy-write: rank 0: end 0.0 < start 0.25"),
    # The time columns named in `us` hold integer microseconds below 2**53 in magnitude.
    (_set((*EASY, "end_s"), [310500000, 312250000.0]), f"{EASY_US}.end_s: {NOT_MICROSECONDS}"),
    (_set((*EASY, "start_s"), [2**53, 500000]), f"{EASY_US}.start_s: {NOT_MICROSECONDS}"),
    (_set((*EASY, "close_s"), [-(2**53), None]), f"{EASY_US}.close_s: {NOT_MICROSECONDS}"),
    # A column holds JSON numbers (and null where it may): never true or false.
    (_set((*EASY, "rank"), [0, True]), f"{EASY_US}.rank: expected a list of integers"),
    (_set((*EASY, "items"), [1000, True]), f"{EASY_US}.items: expected a list of integers"),
    (_set((*EASY, "end_s"), [310500000, True]), f"{EASY_US}.end_s: expected a list of numbers"),
    (
        _both(_set((*EASY, "us"), ["close_s", "start_s"]), _set((*EASY, "end_s"), [310.5, True])),
        f"{EASY_US}.end_s: expected a list of numbers",
    ),
    (_set((*EASY, "us"), ["end_s", "rank"]), f"{EASY_US}.us: unknown column 'rank'"),
    (_set((*EASY, "us"), ["end_s", "end_s"]), f"{EASY_US}.us: 'end_s' is listed twice"),
    (_set((*EASY, "close_s"), None), f"{EASY_US}.close_s: null, yet listed in 'us'"),
    (_set((*EASY, "us"), None), f"{EASY_US}.us: unexpected NoneType value"),
    (_set(("timing", "ior-easier-write"), {}), "timing.ior-easier-write: unknown value 'ior-easier-write'"),
]


def _manifest_lines(doc) -> str:
    """A document tree in the manifest's line layout: the header, then one
    line per timing table. A tree without a timing object stays one line."""
    if not isinstance(doc, dict) or not isinstance(doc.get("timing"), dict):
        return json.dumps(doc) + "\n"
    tables = doc["timing"]
    parts = [{**doc, "timing": list(tables)}, *({"phase": k, **v} for k, v in tables.items())]
    return "".join(json.dumps(part) + "\n" for part in parts)


@pytest.mark.parametrize("mutate, message", MALFORMED_MANIFESTS)
def test_malformed_manifest_is_validation_error(tmp_path, summary_basic, mutate, message):
    timing = "# stonewall_s=300\nrank,start,end,close,items\n0,0.25,310.5,2.5,1000\n1,0.5,312.25,,\n"
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC, csvs={"ior-easy-write.csv": timing})
    doc = mutate(ingest.to_manifest(ingest.load_submission(pkg)))
    with pytest.raises(ValidationError) as excinfo:
        ingest.from_manifest(doc)
    assert str(excinfo.value) == message
    path = tmp_path / "bad.json"
    path.write_text(_manifest_lines(doc))
    with pytest.raises(ValidationError) as excinfo:
        ingest.read_manifest(path)
    assert str(excinfo.value) == f"{path}: {message}"


def _swap_tables(lines):
    lines[1], lines[2] = lines[2], lines[1]
    return lines


def _list_twice(lines):
    header = json.loads(lines[0])
    header["timing"] = ["find", "find"]
    return [json.dumps(header), *lines[1:]]


# Mutations of a manifest's lines (header, find, ior-easy-write, "") and the error after the file name.
DAMAGED_LINES = [
    (lambda lines: lines[:2] + [""], "expected 3 complete lines (a header and 2 tables), found 2"),
    (lambda lines: lines[:3], "expected 3 complete lines (a header and 2 tables), found 2 and an unterminated one"),
    (lambda lines: lines[:3] + ["{}", ""], "expected 3 complete lines (a header and 2 tables), found 4"),
    (lambda lines: [lines[0] + " {}", *lines[1:]], "manifest: line 1 holds more than the header"),
    (_swap_tables, "timing.find: line 2 holds phase 'ior-easy-write'"),
    (_list_twice, "manifest.timing: a phase is listed twice"),
]


@pytest.mark.parametrize("mutate, message", DAMAGED_LINES)
def test_damaged_manifest_lines_are_validation_errors(tmp_path, summary_basic, mutate, message):
    timing = "rank,start,end,close,items\n0,0.25,310.5,2.5,1000\n1,0.5,312.25,,\n"
    csvs = {"ior-easy-write.csv": timing, "find.csv": timing}
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC, csvs=csvs)
    path = tmp_path / "bad.json"
    path.write_text("\n".join(mutate(ingest.dumps_manifest(ingest.load_submission(pkg)).split("\n"))))
    with pytest.raises(ValidationError) as excinfo:
        ingest.read_manifest(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def _bad_meta(header):
    return json.dumps({**json.loads(header), "meta": []})


# Manifests with two faults each, from their lines (header, find, ior-easy-write,
# ""), and the error after the file name: the first fault in file order.
TWO_FAULTS = [
    (lambda h, find, easy: [_bad_meta(h), find, "{", ""], "manifest.meta: unexpected list value"),
    (
        lambda h, find, easy: [h, json.dumps({**json.loads(find), "rank": "x"}), "{", ""],
        "timing.find.rank: unexpected str value",
    ),
    (
        lambda h, find, easy: [h, find, easy[: len(easy) // 2]],
        "manifest: expected 3 complete lines (a header and 2 tables), found 2 and an unterminated one; "
        "the file is truncated or damaged",
    ),
]


@pytest.mark.parametrize("mutate, message", TWO_FAULTS)
def test_damaged_manifest_reports_its_first_fault_in_file_order(tmp_path, summary_basic, mutate, message):
    timing = "rank,start,end,close,items\n0,0.25,310.5,2.5,1000\n1,0.5,312.25,,\n"
    csvs = {"ior-easy-write.csv": timing, "find.csv": timing}
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC, csvs=csvs)
    header, find, easy, _ = ingest.dumps_manifest(ingest.load_submission(pkg)).split("\n")
    manifests, out = tmp_path / "manifests", tmp_path / "out"
    manifests.mkdir()
    path = manifests / "bad.json"
    path.write_text("\n".join(mutate(header, find, easy)))
    with pytest.raises(ValidationError) as excinfo:
        ingest.read_manifest(path)
    assert str(excinfo.value) == f"{path}: {message}"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["logs", str(manifests), "--analysis", "close", "--out", str(out)])
    assert (code, err.getvalue()) == (1, f"error: {path}: {message}\n")
    assert not out.exists()


def test_stream_manifest_gives_tables_in_phase_name_order(tmp_path, summary_basic):
    # A manifest whose index and lines are in another order, as no writer here makes
    # them, still gives its tables in phase-name order.
    timing = "rank,start,end,close,items\n0,0.25,310.5,2.5,1000\n1,0.5,312.25,,\n"
    csvs = {"ior-easy-write.csv": timing, "find.csv": timing, "ior-hard-write.csv": timing}
    sub = ingest.load_submission(_write_package(tmp_path, summary_basic, meta=META_BASIC, csvs=csvs))
    header, find, easy, hard, end = ingest.dumps_manifest(sub).split("\n")
    tree = json.loads(header)
    tree["timing"] = ["ior-hard-write", "find", "ior-easy-write"]
    path = tmp_path / "m.json"
    path.write_text("\n".join([json.dumps(tree), hard, find, easy, end]))
    header_only, tables = ingest.stream_manifest(path)
    assert header_only.timing == {}
    assert [phase for phase, _ in tables] == [Phase.FIND, Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE]
    assert ingest.read_manifest(path) == sub
    _, tables = ingest.stream_manifest(path, (Phase.IOR_HARD_WRITE, Phase.FIND))
    assert [(phase, table) for phase, table in tables] == [(p, sub.timing[p]) for p in (Phase.FIND, Phase.IOR_HARD_WRITE)]


@pytest.mark.parametrize("version, indent", [(1, 2), (2, None)])
def test_single_document_manifests_are_no_longer_read(tmp_path, summary_basic, version, indent):
    # v1 was one indented document, whose line 1 is not one JSON value, and
    # v2 one compact line, timing included.
    timing = "rank,start,end\n0,0.25,310.5\n"
    pkg = _write_package(tmp_path, summary_basic, meta=META_BASIC, csvs={"ior-easy-write.csv": timing})
    doc = {**ingest.to_manifest(ingest.load_submission(pkg)), "format_version": version}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")
    message = (
        f"{path}: not a JSON manifest (Expecting property name enclosed in double quotes: line 1 column 2 (char 1)); "
        "tools/convert_manifest.py converts manifests of format_version 1 and 2"
        if indent
        else f"{path}: manifest format_version 2 is no longer read; re-run `io500kit ingest` to regenerate it"
    )
    for phases in (None, ()):
        with pytest.raises(ValidationError) as excinfo:
            ingest.read_manifest(path, phases=phases)
        assert str(excinfo.value) == message


def test_unreadable_manifest_names_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 3,')
    with pytest.raises(ValidationError, match=f"^{path}: not a JSON manifest"):
        ingest.read_manifest(path)
    path.write_bytes(b'{"format_version": "\xff"}')
    with pytest.raises(LoadError, match="broken.json: not UTF-8 text"):
        ingest.read_manifest(path)


def test_manifest_is_compact_strict_json_lines(tmp_path, summary_basic):
    timing = "# stonewall_s=300\nrank,start,end,close,items\n0,0.25,310.5,2.5,1000\n1,0.5,312.25,,\n"
    pkg = _write_package(
        tmp_path, summary_basic, meta=META_BASIC, csvs={"ior-easy-write.csv": timing, "find.csv": timing}
    )
    text = ingest.dumps_manifest(ingest.load_submission(pkg))

    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token}")

    lines = text.split("\n")
    assert lines.pop() == ""
    header, *tables = [json.loads(line, parse_constant=reject) for line in lines]
    assert header["format_version"] == 5
    assert header["timing"] == ["find", "ior-easy-write"]
    assert [t["phase"] for t in tables] == header["timing"]
    assert tables[1] == {
        "phase": "ior-easy-write",
        "stonewall_s": 300.0,
        "rank": None,  # 0..n-1, the default
        "start_s": [250000, 500000],  # exact microseconds, named in `us`
        "end_s": [310500000, 312250000],
        "close_s": [2500000, None],
        "items": [1000, None],
        "us": ["close_s", "end_s", "start_s"],
    }
    assert lines == [json.dumps(part, separators=(",", ":"), sort_keys=True) for part in [header, *tables]]


def _wide_submission(n_tables: int, n_ranks: int = 40_000) -> Submission:
    rng = np.random.default_rng(7)
    phases = [Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE, Phase.FIND][:n_tables]
    timing = {}
    for phase in phases:
        start = rng.uniform(0.0, 1.0, n_ranks)
        items = np.ma.MaskedArray(rng.integers(0, 10**6, n_ranks), mask=rng.random(n_ranks) < 0.1)
        timing[phase] = ProcessTimingTable(
            phase=phase,
            rank=np.arange(n_ranks, dtype=np.int64),
            start_s=start,
            end_s=start + rng.uniform(300.0, 400.0, n_ranks),
            close_s=rng.uniform(0.0, 5.0, n_ranks),
            items=items,
            stonewall_s=300.0,
        )
    return Submission(meta=SubmissionMeta(submission_id="wide"), timing=timing)


def test_manifest_memory_follows_the_largest_table(tmp_path):
    # The writer and the reader hold one table's JSON lists at a time, so three
    # tables cost little more than one; holding all of them costs about 3x.
    def traced_peak(n_tables: int) -> int:
        sub = _wide_submission(n_tables)
        path = tmp_path / f"{n_tables}.json"
        tracemalloc.start()
        try:
            ingest.write_manifest(sub, path)
            again = ingest.read_manifest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == sub
        return peak

    one, three = traced_peak(1), traced_peak(3)
    assert three < 2 * one, (one, three)


def test_failed_manifest_write_leaves_no_file(tmp_path):
    sub = _wide_submission(1, n_ranks=4)
    sub.reported_score_bw = float("nan")  # not JSON: the writer refuses it
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        ingest.write_manifest(sub, path)
    assert not path.exists()


def test_manifest_write_that_cannot_open_leaves_what_is_there(tmp_path):
    # A dangling symlink into a directory that does not exist: the open fails,
    # and the link, which the write never opened, stays.
    sub = _wide_submission(1, n_ranks=4)
    path = tmp_path / "m.json"
    path.symlink_to(tmp_path / "missing" / "m.json")
    with pytest.raises(FileNotFoundError):
        ingest.write_manifest(sub, path)
    assert path.is_symlink()


GOLDEN = Path(__file__).parent / "golden"


def _load_tool():
    spec = importlib.util.spec_from_file_location("convert_manifest", GOLDEN.parents[1] / "tools" / "convert_manifest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _v3_tree(sub):
    """The document tree of a version 3 manifest, every timing column a list."""
    header, *tables = (json.loads(line) for line in dumps_manifest_v3_oracle(sub).splitlines())
    return {**header, "timing": {table.pop("phase"): table for table in tables}}


def _v1_tree(tree):
    """A version 1 manifest tree: each timing table a list of per-rank row objects."""
    timing = {}
    for name, table in tree["timing"].items():
        columns = ["rank", "start_s", "end_s", "close_s", "items"]
        rows = [dict(zip(columns, row)) for row in zip(*(table[c] for c in columns))]
        timing[name] = {"stonewall_s": table["stonewall_s"], "rows": rows}
    return {**tree, "format_version": 1, "timing": timing}


def test_convert_manifest_tool_writes_the_golden(tmp_path, capsys):
    golden = GOLDEN / "p04_timing_full.json"
    tree = _v3_tree(ingest.read_manifest(golden))
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.write_text(json.dumps(_v1_tree(tree), indent=2))
    v2.write_text(json.dumps({**tree, "format_version": 2}, separators=(",", ":")))
    assert _load_tool().main([str(v1), str(v2)]) == 0
    assert v1.read_bytes() == golden.read_bytes()
    assert v2.read_bytes() == golden.read_bytes()
    assert capsys.readouterr().out.count("converted, equal Submission") == 2


def test_convert_manifest_tool_rewrites_v3_and_leaves_a_damaged_file(tmp_path, capsys):
    golden = GOLDEN / "p04_timing_full.json"
    sub = ingest.read_manifest(golden)
    v3_text, v4_text = dumps_manifest_v3_oracle(sub), dumps_manifest_v4_oracle(sub)
    v3, v4, damaged = tmp_path / "v3.json", tmp_path / "v4.json", tmp_path / "damaged.json"
    v3.write_text(v3_text)
    v4.write_text(v4_text)
    assert '"us"' not in v4_text and '"start_s":[0.1,' in v4_text  # float columns, as version 4 wrote them
    damaged.write_text(v3_text[: v3_text.rindex("{")])  # the last table line cut off
    assert _load_tool().main([str(v3), str(v4), str(damaged)]) == 1
    assert v3.read_bytes() == golden.read_bytes()
    assert v4.read_bytes() == golden.read_bytes()
    assert damaged.read_text() == v3_text[: v3_text.rindex("{")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["damaged.json", "v3.json", "v4.json"]
    out, err = capsys.readouterr()
    assert out.count("converted, equal Submission") == 2
    assert f"{damaged}: not read (" in err and "the file is truncated or damaged" in err


@pytest.mark.parametrize("fault", ["tmp-is-a-directory", "replace-fails"])
def test_convert_manifest_tool_leaves_a_file_it_cannot_write(tmp_path, capsys, monkeypatch, fault):
    v3_text = dumps_manifest_v3_oracle(ingest.read_manifest(GOLDEN / "p04_timing_full.json"))
    path, tmp = tmp_path / "v3.json", tmp_path / "v3.json.tmp"
    path.write_text(v3_text)
    tool = _load_tool()
    if fault == "tmp-is-a-directory":
        tmp.mkdir()
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp)!r}"
    else:
        def refused(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(dst))

        monkeypatch.setattr(tool.os, "replace", refused)
        reason = f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {str(path)!r}"
    assert tool.main([str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"{path}: not converted ({reason}), left as is\n"
    assert path.read_text() == v3_text
    # The temporary file the tool wrote is gone; a directory in its place stays.
    if fault == "tmp-is-a-directory":
        assert tmp.is_dir() and sorted(p.name for p in tmp_path.iterdir()) == ["v3.json", "v3.json.tmp"]
    else:
        assert [p.name for p in tmp_path.iterdir()] == ["v3.json"]



@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"format_version": 1,\n "timing": []}', "timing: expected an object"),
        (
            '{"format_version": 1,\n "timing": {"find": {"rows": [1]}}}',
            "timing.find: expected an object whose rows are a list of objects",
        ),
    ],
    ids=["timing-not-an-object", "row-not-an-object"],
)
def test_convert_manifest_tool_refuses_a_bad_version_1_shape(tmp_path, capsys, text, reason):
    path = tmp_path / "v1.json"
    path.write_text(text)
    assert _load_tool().main([str(path)]) == 1
    assert path.read_text() == text
    assert [p.name for p in tmp_path.iterdir()] == ["v1.json"]
    out, err = capsys.readouterr()
    assert out == "" and err == f"{path}: not read ({reason}), left as is\n"


# Header numbers spelled NaN, Infinity or -Infinity: the JSON decoder reads
# these tokens, the writer never writes them.
NON_FINITE_HEADERS = [
    ('"interconnect_gbps":200.0', '"interconnect_gbps":Infinity', "meta.interconnect_gbps: non-finite value inf"),
    ('"runtime_s":316.631', '"runtime_s":-Infinity', "phases[0].runtime_s: non-finite value -inf"),
    ('"value":113.0', '"value":NaN', "phases[0].value: non-finite value nan"),
    ('"reported_score_bw":16.82', '"reported_score_bw":Infinity', "manifest.reported_score_bw: non-finite value inf"),
    ('"reported_score_md":80.73', '"reported_score_md":NaN', "manifest.reported_score_md: non-finite value nan"),
    ('"reported_score_overall":36.86', '"reported_score_overall":NaN', "manifest.reported_score_overall: non-finite value nan"),
]


def non_finite_manifest(path: Path, old: str, new: str) -> Path:
    """The p01 golden manifest at `path`, its one `old` member replaced by `new`."""
    text = (GOLDEN / "p01_dash_full.json").read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return path


@pytest.mark.parametrize("old, new, message", NON_FINITE_HEADERS, ids=[m.split(":")[0] for _, _, m in NON_FINITE_HEADERS])
def test_read_manifest_refuses_a_non_finite_header_number(tmp_path, old, new, message):
    path = non_finite_manifest(tmp_path / "m.json", old, new)
    with pytest.raises(ValidationError) as info:
        ingest.read_manifest(path)
    assert str(info.value) == f"{path}: {message}"


# Table-line numbers spelled NaN or Infinity, each (member, replacement)
# pairs on the p04 golden manifest, and its message. A close time not listed
# in `us` is a float column, where NaN is no absent value: that is null.
NON_FINITE_TABLE_LINES = [
    ({'"stonewall_s":300.0': '"stonewall_s":Infinity'}, "timing.ior-easy-write.stonewall_s: non-finite value inf"),
    ({'"stonewall_s":300.0': '"stonewall_s":NaN'}, "timing.ior-easy-write.stonewall_s: non-finite value nan"),
    (
        {
            '"close_s":[2250000,1500000,4125000,750000]': '"close_s":[2.25,NaN,4.125,0.75]',
            '"us":["close_s","end_s","start_s"]': '"us":["end_s","start_s"]',
        },
        "timing.ior-easy-write.close_s: non-finite value nan",
    ),
    ({'"end_s":[311500000,310750000,': '"end_s":[311500000,Infinity,'}, "timing.ior-easy-write.end_s: non-finite value inf"),
]


@pytest.mark.parametrize("edits, message", NON_FINITE_TABLE_LINES, ids=["stonewall-inf", "stonewall-nan", "close-nan", "end-inf"])
def test_read_manifest_refuses_a_non_finite_table_line_number(tmp_path, edits, message):
    text = (GOLDEN / "p04_timing_full.json").read_text()
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        ingest.read_manifest(path)
    assert str(info.value) == f"{path}: {message}"


def test_convert_manifest_tool_leaves_a_non_finite_header_number(tmp_path, capsys):
    path = non_finite_manifest(tmp_path / "m.json", '"reported_score_overall":36.86', '"reported_score_overall":NaN')
    v3_text = dumps_manifest_v3_oracle(ingest.read_manifest(GOLDEN / "p04_timing_full.json"))
    assert v3_text.count('"stonewall_s":300.0') == 1
    v3 = tmp_path / "v3.json"
    v3.write_text(v3_text.replace('"stonewall_s":300.0', '"stonewall_s":Infinity'))
    texts = {p: p.read_text() for p in (path, v3)}
    assert _load_tool().main([str(path), str(v3)]) == 1
    assert {p: p.read_text() for p in texts} == texts
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "v3.json"]
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"{path}: not read ({path}: manifest.reported_score_overall: non-finite value nan), left as is\n"
        f"{v3}: not read ({v3}: timing.ior-easy-write.stonewall_s: non-finite value inf), left as is\n"
    )


def test_convert_manifest_tool_without_a_path_prints_its_usage(capsys):
    assert _load_tool().main([]) == 2
    assert capsys.readouterr().err == "usage: python tools/convert_manifest.py MANIFEST...\n"
