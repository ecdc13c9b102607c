import argparse
import collections
import errno
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import io500kit
from io500kit import cli, config, ingest, loginsight, metrics, report, stats, synth
from io500kit.ingest import SUMMARY_FILENAME
from io500kit.types import Phase
from oracles import joined


def run(*argv):
    argv = [str(a) for a in argv]
    code = cli.main(argv)
    if "--out" in argv:  # a run, failed or not, leaves no staging directory behind
        out = Path(argv[argv.index("--out") + 1])
        assert not list(out.rglob(".io500kit-*")), sorted(out.rglob(".io500kit-*"))
    return code


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--seed", 11, "--n", 10, "--out", out) == 0
    return out


@pytest.fixture
def manifests(corpus, tmp_path):
    out = tmp_path / "manifests"
    assert run("ingest", corpus, "--out", out) == 0
    return out


# --- pipeline ---------------------------------------------------------------------


def test_synth_deterministic_trees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--seed", 3, "--n", 6, "--out", a) == 0
    assert run("synth", "--seed", 3, "--n", 6, "--out", b) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_ingest_writes_manifests_and_validation(manifests):
    files = sorted(p.name for p in manifests.glob("*.json"))
    assert len(files) == 10
    validation = (manifests / "validation.txt").read_text()
    assert "submissions: 10" in validation
    assert "hard errors: 0" in validation
    assert "recomputation findings: 0" in validation


def test_ingest_repo_csv_matches_package_count(corpus, tmp_path):
    out = tmp_path / "repo-manifests"
    assert run("ingest", corpus / "repo.csv", "--format", "repo-csv", "--out", out) == 0
    assert len(list(out.glob("*.json"))) == 10


def test_ingest_empty_csv_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("id,list,filesystem,client_nodes\n")
    assert run("ingest", empty, "--format", "repo-csv", "--out", tmp_path / "m") == 2


def test_ingest_corrupt_package_among_valid_exits_1(corpus, tmp_path):
    bad = corpus / "broken-package"
    bad.mkdir()
    (bad / SUMMARY_FILENAME).write_text(
        "[RESULT] ior-easy-write oops GiB/s : time 1.0 seconds\n"
    )
    out = tmp_path / "m2"
    assert run("ingest", corpus, "--out", out) == 1
    assert len(list(out.glob("*.json"))) == 10  # valid ones still written
    assert "ERROR" in (out / "validation.txt").read_text()


@pytest.mark.parametrize("bad_file", ["meta.txt", "result_summary.txt", "ior-easy-write.csv"])
def test_ingest_undecodable_file_costs_only_its_package(tmp_path, capsys, bad_file):
    fixture = Path(__file__).parent / "fixtures" / "packages" / "p04_timing_full"
    packages = tmp_path / "packages"
    for name in ("good", "bad"):
        shutil.copytree(fixture, packages / name)
    (packages / "bad" / bad_file).write_bytes(b"\xff\xfe not utf-8\n")
    out = tmp_path / "m"
    code = run("ingest", packages, "--out", out)
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    if bad_file.endswith(".csv"):  # a bad timing file only loses that table
        assert code == 0 and errors == []
        assert "timing discarded (ior-easy-write.csv: not UTF-8 text" in (out / "validation.txt").read_text()
        assert len(list(out.glob("*.json"))) == 2
    else:
        assert code == 1
        assert len(list(out.glob("*.json"))) == 1
        assert len(errors) == 1 and f"{bad_file}: not UTF-8 text" in errors[0]


def test_ingest_reads_an_input_named_twice_once(tmp_path):
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", 5, "--n", 3, "--out", corpus) == 0
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert run("ingest", corpus, "--out", once) == 0
    assert run("ingest", corpus, corpus / "synth-0001", f"{corpus}/./synth-0001/", "--out", twice) == 0
    assert tree_bytes(twice) == tree_bytes(once)
    csv_once, csv_twice = tmp_path / "csv-once", tmp_path / "csv-twice"
    repo_csv = corpus / "repo.csv"
    assert run("ingest", repo_csv, "--format", "repo-csv", "--out", csv_once) == 0
    assert run("ingest", repo_csv, corpus / "." / "repo.csv", "--format", "repo-csv", "--out", csv_twice) == 0
    assert tree_bytes(csv_twice) == tree_bytes(csv_once)


def _duplicate_first_result_line(pkg: Path) -> None:
    summary = pkg / SUMMARY_FILENAME
    text = summary.read_text()
    summary.write_text(text + text.splitlines()[0] + "\n")


PACKAGE_FAULTS = {
    "empty-summary": lambda pkg: (pkg / SUMMARY_FILENAME).write_text(""),
    "garbage-summary": lambda pkg: (pkg / SUMMARY_FILENAME).write_text("garbage\n"),
    "undecodable-meta": lambda pkg: (pkg / "meta.txt").write_bytes(b"\xff\xfe not utf-8\n"),
    "duplicate-result-line": _duplicate_first_result_line,
}


def _add_package_in_io500_phase_order(pkg: Path, summary: str) -> None:
    """A package whose summary lists its phases in IO500's own order, not in
    Phase order, with each write shorter than the nominal stonewall."""
    pkg.mkdir()
    for runtime, short in (("316.631", "100.0"), ("361.111", "110.0"), ("302.207", "120.0"), ("310.841", "130.0")):
        summary = summary.replace(f"time {runtime}000 ", f"time {short} ")
    (pkg / SUMMARY_FILENAME).write_text(summary)


@pytest.mark.parametrize("fault", [*PACKAGE_FAULTS, "io500-phase-order"])
def test_logs_leaves_out_and_names_a_bad_package_as_ingest_does(tmp_path, capsys, summary_basic, fault):
    # Every analysis, `logs` or its own command, writes the same files and
    # stdout from the packages as from their manifests, and leaves out and
    # names a bad package as ingest does.
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", 5, "--n", 4, "--out", corpus) == 0
    if fault in PACKAGE_FAULTS:
        bad = corpus / "synth-0001"
        PACKAGE_FAULTS[fault](bad)
    else:
        bad = None
        _add_package_in_io500_phase_order(corpus / "io500-order", summary_basic)
    manifests = tmp_path / "manifests"
    assert run("ingest", corpus, "--out", manifests) == (1 if bad else 0)
    assert len(list(manifests.glob("*.json"))) == (3 if bad else 5)
    capsys.readouterr()
    for analysis in cli.ANALYSES:
        argv = ["logs", "--analysis", analysis] if analysis in cli.LOG_ANALYSES else [analysis]
        out = tmp_path / analysis  # the same --out for both, as the stdout line names it
        assert run(argv[0], manifests, *argv[1:], "--out", out) == 0, analysis
        want = capsys.readouterr()
        from_manifests = tree_bytes(out)
        shutil.rmtree(out)
        assert run(argv[0], corpus, *argv[1:], "--out", out) == (1 if bad else 0), analysis
        got = capsys.readouterr()
        assert got.out == want.out and want.err == ""
        errors = got.err.splitlines()
        if bad:
            assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: "), errors
        else:
            assert errors == []
        assert tree_bytes(out) == from_manifests, analysis
    if not bad:
        violations = (tmp_path / "runtime" / "logs" / "runtime_violations.txt").read_text().splitlines()
        assert [line.split()[1] for line in violations if line.startswith("io500-order ")] == [
            "ior-easy-write:", "ior-hard-write:", "mdtest-easy-write:", "mdtest-hard-write:"
        ]


def test_stats_corr_groups_logs(manifests, tmp_path):
    out = tmp_path / "out"
    assert run("stats", manifests, "--normalize", "per-node", "--out", out) == 0
    assert (out / "stats" / "summary_per-node.csv").is_file()
    assert (out / "stats" / "composition.csv").is_file()
    assert (out / "stats" / "score_strip_per-node.svg").is_file()

    assert run("corr", manifests, "--method", "spearman", "--out", out) == 0
    assert (out / "corr" / "spearman_per-node.svg").is_file()

    assert run("groups", manifests, "--metric", "ior-easy-write", "--out", out) == 0
    group_txt = (out / "groups" / "ior-easy-write_per-node.txt").read_text()
    assert "H = " in group_txt and "eta_sq = " in group_txt
    assert "approximate" in group_txt  # independence caveat

    for analysis in ("runtime", "close", "stonewall", "stragglers", "pfind"):
        assert run("logs", manifests, "--analysis", analysis, "--out", out) == 0
    assert (out / "logs" / "stragglers.csv").is_file()
    assert (out / "logs" / "pfind.csv").is_file()


def test_cli_passes_only_finite_values_to_renderers(manifests, tmp_path, monkeypatch):
    values_of = {
        "render_qq": lambda pairs: np.asarray(pairs, dtype=float).ravel(),
        "render_group_box": lambda groups: np.concatenate([np.asarray(v, dtype=float) for _, v in groups]),
        "render_score_strip": lambda rows: np.array([v for _, v in rows], dtype=float),
    }
    drawn = {name: 0 for name in values_of}

    def checked(name, render):
        def draw(data, *args, **kwargs):
            values = values_of[name](data)
            assert np.isfinite(values).all(), (name, values[~np.isfinite(values)])
            drawn[name] += values.size
            return render(data, *args, **kwargs)

        return draw

    for name in values_of:
        monkeypatch.setattr(report, name, checked(name, getattr(report, name)))
    out = tmp_path / "out"
    for normalize in metrics.NORMALIZATIONS:
        assert run("stats", manifests, "--normalize", normalize, "--out", out) == 0
        assert run("groups", manifests, "--normalize", normalize, "--out", out) == 0
    for analysis in ("runtime", "close", "stonewall", "stragglers", "pfind"):
        assert run("logs", manifests, "--analysis", analysis, "--out", out) == 0
    assert all(drawn.values()), drawn


def test_stats_draws_a_subnormal_score(tmp_path):
    # A tenth of the smallest subnormal underflows to 0.0, where no log axis can start.
    csv_file = tmp_path / "export.csv"
    csv_file.write_text("id,list,filesystem,client_nodes,score\nx,SC22,lustre,4,5e-324\ny,SC22,daos,2,3.5\n")
    manifests, out = tmp_path / "m", tmp_path / "out"
    assert run("ingest", csv_file, "--format", "repo-csv", "--out", manifests) == 0
    assert run("stats", manifests, "--out", out) == 0
    sidecar = (out / "stats" / "score_strip_raw.csv").read_text()
    assert (out / "stats" / "score_strip_raw.svg").is_file() and "lustre,4.94066e-324,false" in sidecar


def test_full_pipeline_deterministic(tmp_path):
    trees = []
    for tag in ("x", "y"):
        root = tmp_path / tag
        corpus = root / "corpus"
        manifests = root / "manifests"
        out = root / "out"
        assert run("synth", "--seed", 21, "--n", 8, "--out", corpus) == 0
        assert run("ingest", corpus, "--out", manifests) == 0
        assert run("stats", manifests, "--out", out) == 0
        assert run("corr", manifests, "--out", out) == 0
        assert run("logs", manifests, "--analysis", "stragglers", "--out", out) == 0
        trees.append(tree_bytes(root))
    assert trees[0] == trees[1]


# --- thin-wrapper equivalence ----------------------------------------------------------


def test_corr_cli_is_thin_wrapper(manifests, tmp_path):
    out = tmp_path / "out"
    assert run("corr", manifests, "--method", "spearman", "--normalize", "per-node", "--out", out) == 0
    subs = [ingest.read_manifest(p) for p in ingest.manifest_paths(manifests)]
    names, table = metrics.metric_table(subs, "per-node")
    corr = stats.correlation_matrix(names, table, method="spearman", alpha=0.05)
    spec = report.RenderSpec(title="spearman correlations (per-node, alpha=0.05)")
    svg, sidecar = joined(report.render_corr_heatmap(corr, spec))
    assert (out / "corr" / "spearman_per-node.svg").read_text() == svg
    assert (out / "corr" / "spearman_per-node.csv").read_text() == sidecar


def test_stats_cli_is_thin_wrapper(manifests, tmp_path):
    out = tmp_path / "out"
    assert run("stats", manifests, "--normalize", "raw", "--out", out) == 0
    subs = [ingest.read_manifest(p) for p in ingest.manifest_paths(manifests)]
    names, table = metrics.metric_table(subs, "raw")
    rows = []
    import numpy as np

    for j, name in enumerate(names):
        col = table[:, j]
        col = col[np.isfinite(col)]
        if col.size:
            rows.append((name, metrics.summary_stats(col.tolist())))
    (_, csv_text), (_, txt) = report.render_summary_table(rows)
    assert (out / "stats" / "summary_raw.csv").read_text() == csv_text
    assert (out / "stats" / "summary_raw.txt").read_text() == txt


def test_corr_alpha_monotone(manifests, tmp_path):
    def rejected(alpha, tag):
        out = tmp_path / tag
        assert run("corr", manifests, "--alpha", alpha, "--out", out) == 0
        rows = (out / "corr" / "spearman_per-node.csv").read_text().splitlines()[1:]
        return {
            (r.split(",")[0], r.split(",")[1]) for r in rows if r.endswith(",true")
        }

    strict = rejected(0.01, "strict")
    loose = rejected(0.05, "loose")
    assert strict <= loose


# --- groups edge cases ---------------------------------------------------------------------


def test_groups_single_class_errors(tmp_path):
    corpus = tmp_path / "c"
    config = tmp_path / "synth.json"
    # all-unknown interconnects: only one group
    config.write_text(json.dumps({"seed": 5, "n_submissions": 6, "node_range": [2, 4]}))
    assert run("synth", "--config", config, "--out", corpus) == 0
    for pkg in corpus.iterdir():
        meta = pkg / "meta.txt"
        if meta.is_file():
            text = meta.read_text().replace("IB HDR", "net-x").replace("IB EDR", "net-x")
            text = text.replace("Omni-Path", "net-x").replace("100 Gb/s Ethernet", "net-x")
            text = text.replace("unknown-net", "net-x")
            meta.write_text(text)
    manifests = tmp_path / "m"
    assert run("ingest", corpus, "--out", manifests) == 0
    assert run("groups", manifests, "--out", tmp_path / "o") == 1


def test_groups_small_group_warning(manifests, tmp_path):
    out = tmp_path / "out"
    assert run("groups", manifests, "--out", out) == 0
    txt = (out / "groups" / "score_overall_per-node.txt").read_text()
    assert "warning:" in txt and "n=" in txt  # 10 subs over >=2 classes


# --- logs edge cases -----------------------------------------------------------------------


def test_logs_without_timing_is_ok(tmp_path, summary_basic):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / SUMMARY_FILENAME).write_text(summary_basic)
    out = tmp_path / "out"
    assert run("logs", pkg, "--analysis", "stragglers", "--out", out) == 0
    assert run("logs", pkg, "--analysis", "pfind", "--out", out) == 0
    assert not (out / "logs" / "stragglers.csv").exists()


def test_logs_reads_packages_of_a_synth_output_directory(tmp_path):
    # The directory also holds ground_truth.json, which is not a manifest.
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", 5, "--n", 12, "--out", corpus) == 0
    assert (corpus / "ground_truth.json").is_file()
    manifests = tmp_path / "manifests"
    assert run("ingest", corpus, "--out", manifests) == 0
    for source in (corpus, manifests):
        assert run("logs", source, "--analysis", "pfind", "--out", tmp_path / source.name) == 0
    assert tree_bytes(tmp_path / "corpus" / "logs") == tree_bytes(tmp_path / "manifests" / "logs")


def test_logs_files_of_colliding_submission_ids_are_kept_apart(tmp_path):
    # Both IDs sanitize to the same stem, so the second submission's files take
    # the -2 suffix that ingest gives its manifest.
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", 5, "--n", 2, "--out", corpus) == 0
    for meta in sorted(corpus.glob("*/meta.txt")):
        text = meta.read_text()
        meta.write_text(text.replace(text.splitlines()[0], "submission_id = same"))
    out = tmp_path / "out"
    for analysis in ("stonewall", "pfind"):
        assert run("logs", corpus, "--analysis", analysis, "--out", out) == 0
    logs = out / "logs"
    summary = (logs / "stonewall_summary.csv").read_text().splitlines()[1:]
    qq = sorted(p.stem for p in logs.glob("qq_*.svg"))
    assert len(qq) == len(summary) == 4
    assert qq == sorted(f"qq_{stem}_{phase}" for stem in ("same", "same-2") for phase in ("ior-easy-write", "ior-hard-write"))
    rows = (logs / "pfind.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert sorted(p.name for p in logs.glob("pfind_*.csv")) == ["pfind_same-2.csv", "pfind_same.csv"]


def test_logs_names_files_by_manifest_stem_when_ids_collide(tmp_path):
    # a/b comes first and ingests to a-b.json, a-b to a-b-2.json, which sorts first.
    corpus = tmp_path / "corpus"
    assert run("synth", "--seed", 5, "--n", 2, "--out", corpus) == 0
    for meta, sub_id in zip(sorted(corpus.glob("*/meta.txt")), ("a/b", "a-b")):
        text = meta.read_text()
        meta.write_text(text.replace(text.splitlines()[0], f"submission_id = {sub_id}"))
    first, second = sorted(p.parent for p in corpus.glob("*/meta.txt"))
    assert (first / "find.csv").read_text() != (second / "find.csv").read_text()
    manifests = tmp_path / "manifests"
    assert run("ingest", corpus, "--out", manifests) == 0
    assert {p.name: ingest.read_manifest(p).meta.submission_id for p in manifests.glob("*.json")} == {
        "a-b.json": "a/b",
        "a-b-2.json": "a-b",
    }
    for source in (corpus, manifests):
        for analysis in ("runtime", "close", "stonewall", "stragglers", "pfind"):
            assert run("logs", source, "--analysis", analysis, "--out", tmp_path / source.name) == 0
    assert tree_bytes(tmp_path / "corpus" / "logs") == tree_bytes(tmp_path / "manifests" / "logs")
    logs = tmp_path / "manifests" / "logs"
    rep = loginsight.pfind_imbalance(ingest.load_submission(first).timing[Phase.FIND])
    (_, csv_text), (_, _) = report.render_imbalance_table(rep.items_per_rank, rep.max_over_median, rep.gini)
    assert (logs / "pfind_a-b.csv").read_text() == csv_text
    assert "a/b ior-easy-write" in (logs / "qq_a-b_ior-easy-write.svg").read_text()
    assert "a-b ior-easy-write" in (logs / "qq_a-b-2_ior-easy-write.svg").read_text()


OUT_STAGES = [
    ["synth", "--n", 1],
    ["ingest", "{corpus}"],
    ["stats", "{manifests}"],
    ["corr", "{manifests}"],
    ["groups", "{manifests}"],
    *(["logs", "{manifests}", "--analysis", a] for a in ("runtime", "close", "stonewall", "stragglers", "pfind")),
]


@pytest.mark.parametrize("argv", OUT_STAGES, ids=lambda argv: "-".join(str(a) for a in argv if str(a)[0] not in "{-"))
def test_out_naming_a_file_is_one_error_line(corpus, manifests, tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    capsys.readouterr()
    argv = [str(a).format(corpus=corpus, manifests=manifests) for a in argv]
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert out.read_text() == "a file\n"


def test_infinite_interconnect_speed_is_unknown(tmp_path, summary_basic):
    pkg = tmp_path / "packages" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / SUMMARY_FILENAME).write_text(summary_basic)
    (pkg / "meta.txt").write_text(f"list_label = SC22\nclient_nodes = 4\ninterconnect = {'9' * 400} Gb/s\n")
    out = tmp_path / "manifests"
    assert run("ingest", tmp_path / "packages", "--out", out) == 0

    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token}")

    for line in (out / "pkg.json").read_text().splitlines():
        json.loads(line, parse_constant=reject)
    (sub,) = map(ingest.read_manifest, ingest.manifest_paths(out))
    assert sub.meta.interconnect_gbps is None
    assert ingest.interconnect_class(sub.meta) == "unknown"


def test_logs_stonewall_flag_supplies_missing_value(tmp_path, summary_basic):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / SUMMARY_FILENAME).write_text(summary_basic)
    (pkg / "ior-easy-write.csv").write_text(
        "rank,start,end\n0,0,310\n1,0,315\n2,0,312\n3,0,311\n"
    )
    out = tmp_path / "out"
    assert run("logs", pkg, "--analysis", "stonewall", "--out", out) == 0
    assert not (out / "logs" / "stonewall_summary.csv").exists()  # skipped, noted
    assert run("logs", pkg, "--analysis", "stonewall", "--stonewall", 300, "--out", out) == 0
    assert (out / "logs" / "stonewall_summary.csv").is_file()


# Hand-built packages (the id is the directory name): {package: {file: content}}.
# Each one reaches a note or a silent skip of one or more log analyses.
NO_STONEWALL = "rank,start,end,close\n0,0,310,1.5\n1,0,312,2\n2,0,309,1\n3,0,311,3\n"
FOUR_RANKS = "rank,start,end\n0,0,310\n1,0,305\n2,0,320\n3,0,311\n"
LOG_CORPORA = {
    "mixed": {
        "a-mixed": {
            "ior-easy-write.csv": NO_STONEWALL,  # stonewall and straggler notes
            "ior-hard-write.csv": (  # no close column: close skips it silently
                "# stonewall_s = 300\nrank,start,end\n0,0,310\n1,0,312\n2,0,309\n3,0,311\n4,0,400\n"
            ),
            "find.csv": "rank,start,end,items\n0,0,5,\n1,0,5,100\n2,0,5,\n",  # one item count
        },
        "b-find": {
            "ior-easy-write.csv": "# stonewall_s = 300\nrank,start,end,close\n0,0,310,1\n1,0,305,2\n2,0,320,4\n",
            "find.csv": "rank,start,end,items\n0,0,5,10\n1,0,6,10\n2,0,9,40\n3,0,5,10\n",
        },
        "c-zero": {"find.csv": "rank,start,end,items\n0,0,5,0\n1,0,5,0\n"},
    },
    # A finite start and end whose difference overflows: ingest discards the table.
    "overflow": {
        "e-overflow": {
            "ior-easy-write.csv": "# stonewall_s = 300\nrank,start,end,close\n0,-1.7e308,1.7e308,1\n1,0,305,2\n"
        },
        "f-ok": {
            "ior-easy-write.csv": "# stonewall_s = 300\nrank,start,end,close\n0,0,310,1\n1,0,305,2\n2,0,320,4\n3,0,311,1\n"
        },
    },
    # A stonewall so small that runtime / stonewall overflows: the table is noted.
    "tiny": {
        "g-tiny": {"ior-easy-write.csv": "# stonewall_s = 1e-320\n" + FOUR_RANKS},
        "h-ok": {"ior-hard-write.csv": "# stonewall_s = 300\n" + FOUR_RANKS},
    },
    # Notes but no rows: nothing is written, notes included.
    "bare": {
        "d-bare": {
            "ior-easy-write.csv": "rank,start,end\n0,0,310\n1,0,312\n2,0,309\n3,0,311\n",
            "find.csv": "rank,start,end\n0,0,5\n1,0,6\n",
        },
    },
}
RUNTIME_FILES = {
    "runtime_summary.csv",
    "runtime_summary.txt",
    "runtime_violations.txt",
    "runtime_box.svg",
    "runtime_box.csv",
}
NO_STONEWALL_NOTE = (
    "ior-easy-write: timing table carries no stonewall duration; "
    "pass stonewall_s=300 explicitly to use the nominal value"
)
TINY_STONEWALL_NOTE = "ior-easy-write: runtime / stonewall overflows a float at rank 0 (stonewall_s = 1e-320)\n"
LOG_CASES = [
    # (corpus, analysis, stdout, files written under logs/ besides the notes, {notes file: text})
    ("mixed", "runtime", "runtime summary over 3 submissions, 0 violations", RUNTIME_FILES, {}),
    (
        "mixed",
        "close",
        "close-time summary for 2 phase tables",
        {"close_summary.csv", "close_summary.txt", "close_box.svg", "close_box.csv"},
        {},
    ),
    (
        "mixed",
        "stonewall",
        "stonewall ratios for 2 write-phase tables",
        {
            "stonewall_summary.csv",
            "stonewall_summary.txt",
            "qq_a-mixed_ior-hard-write.svg",
            "qq_a-mixed_ior-hard-write.csv",
            "qq_b-find_ior-easy-write.svg",
            "qq_b-find_ior-easy-write.csv",
        },
        {"stonewall_notes.txt": NO_STONEWALL_NOTE + "\n"},
    ),
    (
        "mixed",
        "stragglers",
        "straggler analysis for 1 write-phase tables",
        {"stragglers.csv", "stragglers.txt"},
        {
            "straggler_notes.txt": NO_STONEWALL_NOTE
            + "\nstraggler detection needs n >= 4, got 3\n"
        },
    ),
    (
        "mixed",
        "pfind",
        "pfind imbalance for 1 submissions",
        {"pfind.csv", "pfind.txt", "pfind_b-find.csv", "pfind_b-find.txt"},
        {
            "pfind_notes.txt": "find: imbalance needs n >= 2 ranks with items\n"
            "find: all item counts are zero\n"
        },
    ),
    (
        "overflow",
        "stonewall",
        "stonewall ratios for 1 write-phase tables",
        {"stonewall_summary.csv", "stonewall_summary.txt", "qq_f-ok_ior-easy-write.svg", "qq_f-ok_ior-easy-write.csv"},
        {},
    ),
    (
        "overflow",
        "stragglers",
        "straggler analysis for 1 write-phase tables",
        {"stragglers.csv", "stragglers.txt"},
        {},
    ),
    (
        "overflow",
        "close",
        "close-time summary for 1 phase tables",
        {"close_summary.csv", "close_summary.txt", "close_box.svg", "close_box.csv"},
        {},
    ),
    (
        "tiny",
        "stonewall",
        "stonewall ratios for 1 write-phase tables",
        {"stonewall_summary.csv", "stonewall_summary.txt", "qq_h-ok_ior-hard-write.svg", "qq_h-ok_ior-hard-write.csv"},
        {"stonewall_notes.txt": TINY_STONEWALL_NOTE},
    ),
    (
        "tiny",
        "stragglers",
        "straggler analysis for 1 write-phase tables",
        {"stragglers.csv", "stragglers.txt"},
        {"straggler_notes.txt": TINY_STONEWALL_NOTE},
    ),
    ("bare", "runtime", "runtime summary over 1 submissions, 0 violations", RUNTIME_FILES, {}),
    ("bare", "close", "no close-time data available", set(), {}),
    ("bare", "stonewall", "no stonewall timing data available", set(), {}),
    ("bare", "stragglers", "no straggler timing data available", set(), {}),
    ("bare", "pfind", "no find-phase item data available", set(), {}),
]


@pytest.mark.parametrize("source", ["packages", "manifests"])
@pytest.mark.parametrize("corpus_name, analysis, stdout, files, notes", LOG_CASES)
def test_logs_files_and_notes_per_analysis(
    tmp_path, capsys, summary_basic, source, corpus_name, analysis, stdout, files, notes
):
    packages = tmp_path / "packages"
    for name, tables in LOG_CORPORA[corpus_name].items():
        (packages / name).mkdir(parents=True)
        (packages / name / SUMMARY_FILENAME).write_text(summary_basic)
        for filename, text in tables.items():
            (packages / name / filename).write_text(text)
    path = packages
    if source == "manifests":
        path = tmp_path / "manifests"
        assert run("ingest", packages, "--out", path) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("logs", path, "--analysis", analysis, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout + "\n" and captured.err == ""
    written = {p.name for p in (out / "logs").iterdir()} if (out / "logs").exists() else set()
    assert written == files | set(notes)
    for name, text in notes.items():
        assert (out / "logs" / name).read_text() == text


@pytest.mark.parametrize(
    "analysis, notes_file", [("stonewall", "stonewall_notes.txt"), ("stragglers", "straggler_notes.txt")]
)
def test_logs_stonewall_flag_that_overflows_a_ratio_is_noted(
    tmp_path, capsys, analysis, notes_file, summary_basic
):
    # Under a stonewall of 1e-310 s a zero runtime keeps a finite ratio; 310 s does not.
    pkg = tmp_path / "packages" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / SUMMARY_FILENAME).write_text(summary_basic)
    (pkg / "ior-easy-write.csv").write_text("rank,start,end\n0,5,5\n1,5,5\n2,5,5\n3,5,5\n")
    (pkg / "ior-hard-write.csv").write_text(FOUR_RANKS)
    out = tmp_path / "out"
    assert run("logs", tmp_path / "packages", "--analysis", analysis, "--stonewall", "1e-310", "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert (out / "logs" / notes_file).read_text() == (
        "ior-hard-write: runtime / stonewall overflows a float at rank 0 (stonewall_s = 1e-310)\n"
    )


def test_synth_config_straggler_pipeline(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(
        json.dumps(
            {
                "seed": 2,
                "n_submissions": 4,
                "node_range": [13, 16],
                "straggler": {"kind": "contiguous", "length": 5, "slow_factor": 3.0},
            }
        )
    )
    corpus = tmp_path / "corpus"
    manifests = tmp_path / "manifests"
    out = tmp_path / "out"
    assert run("synth", "--config", config, "--out", corpus) == 0
    assert run("ingest", corpus, "--out", manifests) == 0
    assert run("logs", manifests, "--analysis", "stragglers", "--out", out) == 0
    rows = (out / "logs" / "stragglers.csv").read_text().splitlines()[1:]
    hard = [r for r in rows if "ior-hard-write" in r]
    assert hard and all("CONTIGUOUS" in r for r in hard)


@pytest.mark.parametrize("min_pattern_size", [0, -5])
def test_min_pattern_size_below_one_leaves_tables_without_stragglers_none(tmp_path, capsys, min_pattern_size):
    # No table of this corpus has a straggler: an empty set is NONE whatever the minimum size.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"straggler": {"min_pattern_size": min_pattern_size}}))
    corpus, manifests, out = tmp_path / "corpus", tmp_path / "manifests", tmp_path / "out"
    assert run("synth", "--n", 3, "--seed", 5, "--out", corpus) == 0
    assert run("ingest", corpus, "--out", manifests) == 0
    capsys.readouterr()
    assert run("logs", manifests, "--analysis", "stragglers", "--config", cfg, "--out", out) == 0
    assert capsys.readouterr().err == ""
    rows = [row.split(",") for row in (out / "logs" / "stragglers.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert all(row[3:] == ["0", "NONE", "0", "0", ""] for row in rows)


def test_unknown_metric_rejected(manifests, tmp_path):
    with pytest.raises(SystemExit):
        run("groups", manifests, "--metric", "bogus", "--out", tmp_path)


def test_pfind_detail_tables(manifests, tmp_path):
    out = tmp_path / "out"
    assert run("logs", manifests, "--analysis", "pfind", "--out", out) == 0
    details = sorted((out / "logs").glob("pfind_synth-*.csv"))
    assert len(details) == 10
    assert "gini," in details[0].read_text()


def test_pfind_fifty_x_skew_in_table(tmp_path):
    fixture = Path(__file__).parent / "fixtures" / "packages" / "p04_timing_full"
    out = tmp_path / "out"
    assert run("logs", fixture, "--analysis", "pfind", "--out", out) == 0
    summary = (out / "logs" / "pfind.csv").read_text()
    row = [r for r in summary.splitlines() if r.startswith("lustre-timing")][0]
    assert row.split(",")[4] == "50"  # MaxOverMedian column


def test_outdir_env_var(monkeypatch):
    monkeypatch.setenv("IO500KIT_OUT", "/some/where")
    parser = cli.build_parser()
    args = parser.parse_args(["stats", "x"])
    assert args.out == "/some/where"


NORMALIZATIONS = ("raw", "per-node", "per-process")
METRICS = (
    "score_overall",
    "score_bw",
    "score_md",
    "ior-easy-write",
    "ior-easy-read",
    "ior-hard-write",
    "ior-hard-read",
    "mdtest-easy-write",
    "mdtest-easy-stat",
    "mdtest-easy-delete",
    "mdtest-hard-write",
    "mdtest-hard-stat",
    "mdtest-hard-read",
    "mdtest-hard-delete",
    "find",
)
# Each subcommand's arguments, in order: (option strings, dest, default, choices,
# nargs, required, type name), with IO500KIT_OUT=/out.
CLI_SURFACE = {
    "ingest": [
        ([], "paths", None, None, "+", True, None),
        (["--format"], "format", "package", ("package", "repo-csv"), None, False, None),
        (["--column-map"], "column_map", None, None, None, False, None),
        (["--out"], "out", "/out/manifests", None, None, False, None),
        (["--config"], "config", None, None, None, False, None),
    ],
    "stats": [
        ([], "path", None, None, None, True, None),
        (["--normalize"], "normalize", "raw", NORMALIZATIONS, None, False, None),
        (["--out"], "out", "/out", None, None, False, None),
    ],
    "corr": [
        ([], "path", None, None, None, True, None),
        (["--method"], "method", "spearman", ("spearman", "pearson"), None, False, None),
        (["--normalize"], "normalize", "per-node", NORMALIZATIONS, None, False, None),
        (["--alpha"], "alpha", 0.05, None, None, False, "parse"),
        (["--out"], "out", "/out", None, None, False, None),
    ],
    "groups": [
        ([], "path", None, None, None, True, None),
        (["--metric"], "metric", "score_overall", METRICS, None, False, None),
        (["--normalize"], "normalize", "per-node", NORMALIZATIONS, None, False, None),
        (["--out"], "out", "/out", None, None, False, None),
        (["--config"], "config", None, None, None, False, None),
    ],
    "logs": [
        ([], "path", None, None, None, True, None),
        (["--analysis"], "analysis", None, ("close", "stonewall", "stragglers", "pfind", "runtime"), None, True, None),
        (["--stonewall"], "stonewall", None, None, None, False, "parse"),
        (["--out"], "out", "/out", None, None, False, None),
        (["--config"], "config", None, None, None, False, None),
    ],
    "synth": [
        (["--config"], "config", None, None, None, False, None),
        (["--seed"], "seed", None, None, None, False, "int"),
        (["--n"], "n", None, None, None, False, "int"),
        (["--out"], "out", "/out/synth", None, None, False, None),
    ],
}


def test_cli_surface_is_unchanged(monkeypatch):
    monkeypatch.setenv("IO500KIT_OUT", "/out")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [
            (a.option_strings, a.dest, a.default, a.choices, a.nargs, a.required, getattr(a.type, "__name__", None))
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }
    assert list(surface) == list(CLI_SURFACE)
    for name, arguments in CLI_SURFACE.items():
        assert surface[name] == arguments, name


# A package whose CSV names sort apart from their phases (`IOR_Easy_Write.csv`
# before `find.csv`), with a phase whose first file is malformed, so that its
# second is used and its third ignored, and a file that matches no phase.
MIXED_CSVS = {
    "IOR_Easy_Write.csv": "# stonewall_s = 300\nrank,start,end,close\n0,0,310,1.5\n1,0,320,-1\n2,0,315,0.5\n",
    "find.csv": "rank,start,end,items\n0,0,5,10\n1,0,6,20\n2,0,7,30\n",
    "ior-hard-write.csv": "rank,start,end\n0,x,310\n",
    "ior_hard_write.csv": "# stonewall_s = 300\nrank,start,end,close\n0,0,305,0.5\n1,0,306,0.25\n",
    "ior_hard_write_old.csv": "rank,start,end\n0,0,1\n",
    "notes.csv": "x\n",
}


def test_streamed_ingest_keeps_table_and_warning_orders(tmp_path, summary_basic):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / SUMMARY_FILENAME).write_text(summary_basic)
    (pkg / ingest.META_FILENAME).write_text("submission_id = mixed\nfilesystem = lustre\n")
    for name, text in MIXED_CSVS.items():
        (pkg / name).write_text(text)
    sub = ingest.load_submission(pkg)
    assert list(sub.timing) == [Phase.FIND, Phase.IOR_EASY_WRITE, Phase.IOR_HARD_WRITE]
    assert sub.timing[Phase.IOR_HARD_WRITE].end_s.tolist() == [305.0, 306.0]
    assert [w.split(":")[0] for w in sub.warnings] == [
        "ior-easy-write", "ior-hard-write.csv", "ior_hard_write_old.csv", "notes.csv"
    ]
    ingest.write_manifest(sub, tmp_path / "library.json")
    assert run("ingest", pkg, "--out", tmp_path / "manifests") == 0
    assert (tmp_path / "manifests" / "mixed.json").read_bytes() == (tmp_path / "library.json").read_bytes()
    for source, out in ((pkg, "from-package"), (tmp_path / "manifests", "from-manifest")):
        assert run("logs", source, "--analysis", "close", "--out", tmp_path / out) == 0
    rows = (tmp_path / "from-package" / "logs" / "close_summary.csv").read_text()
    assert rows.splitlines()[1:] == ["mixed,ior-easy-write,2,1,1.5,0.00321301", "mixed,ior-hard-write,2,0.375,0.5,0.00122817"]
    assert tree_bytes(tmp_path / "from-package") == tree_bytes(tmp_path / "from-manifest")


def test_ingest_column_map_flag(tmp_path):
    csv_file = tmp_path / "export.csv"
    csv_file.write_text("SubID,List,FS,Nodes\nalpha,SC22,daos,4\n")
    cmap = tmp_path / "map.json"
    cmap.write_text(
        json.dumps(
            {
                "submission_id": "SubID",
                "list_label": "List",
                "filesystem": "FS",
                "client_nodes": "Nodes",
            }
        )
    )
    out = tmp_path / "m"
    assert run(
        "ingest", csv_file, "--format", "repo-csv", "--column-map", cmap, "--out", out
    ) == 0
    assert (out / "alpha.json").is_file()


def test_ingest_manifest_names_of_colliding_ids(tmp_path):
    csv_file = tmp_path / "export.csv"
    csv_file.write_text("id,list,filesystem,client_nodes\na/b,SC22,lustre,4\na-b,SC22,lustre,4\na/b,SC22,lustre,4\n")
    out = tmp_path / "m"
    assert run("ingest", csv_file, "--format", "repo-csv", "--out", out) == 0
    names = {p.name: ingest.read_manifest(p).meta.submission_id for p in out.glob("*.json")}
    assert names == {"a-b.json": "a/b", "a-b-2.json": "a-b", "a-b-3.json": "a/b"}


def test_ingest_config_overrides_cache_threshold(corpus, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cache_threshold_s": 0.0}))
    out = tmp_path / "m"
    assert run("ingest", corpus, "--config", config, "--out", out) == 0
    for manifest in out.glob("*.json"):
        doc = json.loads(manifest.read_text().split("\n", 1)[0])  # the header line
        assert all(not p["cache_flag"] for p in doc["phases"])


def test_repo_csv_unusable_values_dropped_with_a_warning(tmp_path):
    csv_file = tmp_path / "export.csv"
    csv_file.write_text(
        "id,list,filesystem,client_nodes,ior_easy_write,score\n"
        "x,SC22,lustre,4,nan,inf\n"
        "y,SC22,lustre,inf,1.5,2.5\n"
        "z,SC22,lustre,4,1.5,-3\n"
    )
    out = tmp_path / "m"
    assert run("ingest", csv_file, "--format", "repo-csv", "--out", out) == 0
    validation = (out / "validation.txt").read_text()
    assert "WARN x: ior-easy-write: non-finite value 'nan', dropped" in validation
    assert "WARN x: score_overall: non-finite value 'inf', dropped" in validation
    assert "WARN z: score_overall: negative value -3.0, dropped" in validation
    assert "SKIP " in validation and "row 2: invalid client_nodes 'inf'" in validation

    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token}")

    header = json.loads((out / "x.json").read_text().splitlines()[0], parse_constant=reject)
    assert header["phases"] == [] and header["reported_score_overall"] is None


def _exit_code(argv):
    try:
        return run(*argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


# `{f}` is a file holding the case's content, `{csv}` a valid repo CSV, `{dir}` a directory
# holding no package and `{out}` an unused directory.
COLUMN_MAP = ["ingest", "{csv}", "--out", "{out}", "--format", "repo-csv", "--column-map"]
INGEST = ["ingest", "{csv}", "--out", "{out}", "--format", "repo-csv", "--config"]
STRAGGLERS = ["logs", "{f}", "--analysis", "stragglers", "--out", "{out}", "--config"]
SYNTH = ["synth", "--out", "{out}", "--config"]  # no --n: it would override n_submissions
BAD_INPUT_CASES = [
    # (argv, file content, exit code, error message)
    (["synth", "--config", "{f}"], "{bad", 1, "error: cannot read synth config"),
    (["synth", "--config", "{f}.missing"], "", 1, "error: cannot read synth config"),
    # Input that holds no submission: ingest writes no manifest directory for it.
    (["ingest", "{dir}", "--out", "{out}"], "", 2, "error: no submission packages found under"),
    # A path that does not exist is a hard error in every format, not an empty dataset.
    (["ingest", "{f}.missing", "--out", "{out}"], "", 1, "input.json.missing: No such file or directory"),
    (["ingest", "{f}.missing", "--out", "{out}", "--format", "repo-csv"], "", 1, "input.json.missing: No such file or directory"),
    (["logs", "{f}.missing", "--analysis", "close", "--out", "{out}"], "", 1, "input.json.missing: No such file or directory"),
    (["stats", "{f}.missing", "--out", "{out}"], "", 1, "input.json.missing: No such file or directory"),
    # A file where a directory belongs is a hard error too, before any output is made.
    (["ingest", "{f}", "--out", "{out}"], "", 1, "input.json: Not a directory"),
    (["stats", "{f}", "--out", "{out}"], "", 1, "input.json: Not a directory"),
    (["logs", "{f}", "--analysis", "close", "--out", "{out}"], "", 1, "input.json: Not a directory"),
    (["synth", "--config", "{f}"], "[1]", 1, "expected a JSON object, got list"),
    ([*COLUMN_MAP, "{f}"], "{bad", 1, "error: cannot read column map"),
    ([*COLUMN_MAP, "{f}.missing"], "", 1, "error: cannot read column map"),
    ([*COLUMN_MAP, "{f}"], '{"phases": []}', 1, "'phases' must be an object"),
    ([*COLUMN_MAP, "{f}"], '{"list_label": 3}', 1, "columns must be strings or null: list_label"),
    (["ingest", "{csv}", "--out", "{out}", "--config", "{f}"], "[]", 1, "error: config"),
    (["corr", "{f}", "--alpha", "7"], "", 2, "argument --alpha: must lie strictly between 0 and 1"),
    (["corr", "{f}", "--alpha", "0"], "", 2, "argument --alpha: must lie strictly between 0 and 1"),
    (["corr", "{f}", "--alpha", "nan"], "", 2, "argument --alpha: must lie strictly between 0 and 1"),
    (["logs", "{f}", "--analysis", "stonewall", "--stonewall", "-5"], "", 2, "argument --stonewall: must be a positive"),
    (["logs", "{f}", "--analysis", "stonewall", "--stonewall", "inf"], "", 2, "argument --stonewall: must be a positive"),
    # The pipeline config is closed and typed by the shape of PipelineConfig()'s defaults.
    ([*STRAGGLERS, "{f}"], '{"straggler": {"iqr_multiplier": "q"}}', 1, 'straggler.iqr_multiplier must be a number, got "q"'),
    ([*INGEST, "{f}"], '{"cache_threshold_s": "x"}', 1, 'cache_threshold_s must be a number, got "x"'),
    (["groups", "{f}", "--out", "{out}", "--config", "{f}"], '{"min_group_size_warn": "3"}', 1, 'min_group_size_warn must be an integer, got "3"'),
    ([*INGEST, "{f}"], '{"cache_treshold_s": 0}', 1, "unknown key 'cache_treshold_s'"),
    ([*INGEST, "{f}"], '{"alpha": 0.01}', 1, "unknown key 'alpha'"),
    ([*STRAGGLERS, "{f}"], '{"straggler": {"ratio_floor": true}}', 1, "straggler.ratio_floor must be a number, got true"),
    ([*STRAGGLERS, "{f}"], '{"straggler": {"min_run_length": 2.5}}', 1, "straggler.min_run_length must be an integer, got 2.5"),
    ([*STRAGGLERS, "{f}"], '{"straggler": {"iqr_multipler": 2}}', 1, "unknown key 'straggler.iqr_multipler'"),
    ([*STRAGGLERS, "{f}"], '{"straggler": 1.5}', 1, "straggler must be an object, got 1.5"),
    ([*INGEST, "{f}"], '{"stonewall_nominal_s": NaN}', 1, "stonewall_nominal_s must be finite, got nan"),
    ([*INGEST, "{f}"], '{"recompute_rel_tol": -Infinity}', 1, "recompute_rel_tol must be finite, got -inf"),
    # The synth config is typed by SynthConfig()'s defaults, with the same rule.
    ([*SYNTH, "{f}"], '{"seed": "abc"}', 1, 'synth config: seed must be an integer, got "abc"'),
    ([*SYNTH, "{f}"], '{"n_submissions": "5"}', 1, 'synth config: n_submissions must be an integer, got "5"'),
    ([*SYNTH, "{f}"], '{"n_submissions": 1e9}', 1, "synth config: n_submissions must be an integer, got 1000000000.0"),
    ([*SYNTH, "{f}"], '{"procs_per_node": 1.5}', 1, "synth config: procs_per_node must be an integer, got 1.5"),
    ([*SYNTH, "{f}"], '{"pfind_skew": "x"}', 1, 'synth config: pfind_skew must be a number, got "x"'),
    ([*SYNTH, "{f}"], '{"node_range": 5}', 1, "synth config: node_range must be a list of 2 values, got 5"),
    ([*SYNTH, "{f}"], '{"node_range": [1, 2, 3]}', 1, "synth config: node_range must be a list of 2 values, got [1, 2, 3]"),
    ([*SYNTH, "{f}"], '{"node_range": ["a", 2]}', 1, 'synth config: node_range[0] must be an integer, got "a"'),
    ([*SYNTH, "{f}"], '{"filesystem_mix": []}', 1, "synth config: filesystem_mix must be an object, got []"),
    ([*SYNTH, "{f}"], '{"straggler": [1]}', 1, "synth config: straggler must be an object, got [1]"),
    ([*SYNTH, "{f}"], '{"straggler": {"kind": "contiguous", "length": 2.5}}', 1, "synth config: straggler.length must be an integer, got 2.5"),
    ([*SYNTH, "{f}"], '{"close_models": {"lustre": {"median_s": "x"}}}', 1, 'synth config: close_models.lustre.median_s must be a number, got "x"'),
    ([*SYNTH, "{f}"], '{"generate_timing": "no"}', 1, 'synth config: generate_timing must be true or false, got "no"'),
    ([*SYNTH, "{f}"], '{"stonewall_s": true}', 1, "synth config: stonewall_s must be a number, got true"),
    ([*SYNTH, "{f}"], '{"system_sigma": NaN}', 1, "synth config: system_sigma must be finite, got nan"),
    # A column map holds only the default's keys.
    ([*COLUMN_MAP, "{f}"], '{"filesytem": "FS"}', 1, "unknown keys: filesytem"),
    ([*COLUMN_MAP, "{f}"], '{"phases": {"find": "pf", "ior_easy_write": "x"}}', 1, "unknown keys: phases.ior_easy_write"),
    # A repeated key is an error, not a silent last-one-wins, in each config file and at any depth.
    ([*INGEST, "{f}"], '{"cache_threshold_s": 1, "cache_threshold_s": 2}', 1, "repeated key 'cache_threshold_s'"),
    ([*SYNTH, "{f}"], '{"straggler": {"kind": "dispersed", "kind": "none"}}', 1, "repeated key 'kind'"),
    ([*COLUMN_MAP, "{f}"], '{"phases": {"find": "pf", "find": "f"}}', 1, "repeated key 'find'"),
    # Synth config values in range: checked when the config loads, before any corpus is built.
    ([*SYNTH, "{f}"], '{"close_models": {"lustre": {"median_s": -1}}}', 1, "close_models.lustre.median_s must be > 0, got -1"),
    ([*SYNTH, "{f}"], '{"close_models": {"lustre": {"sigma": -1}}}', 1, "close_models.lustre.sigma must be >= 0, got -1"),
    ([*SYNTH, "{f}"], '{"node_range": [2, 100000000000000000000]}', 1, "node_range[1] must be below 2**63, got 100000000000000000000"),
    ([*SYNTH, "{f}"], '{"procs_per_node": 0}', 1, "error: procs_per_node must be >= 1"),
    ([*SYNTH, "{f}"], '{"phase_sigma": -0.5}', 1, "error: sigmas must be >= 0"),
    ([*SYNTH, "{f}"], '{"cache_affected_fraction": 1.5}', 1, "error: cache_affected_fraction must be in [0, 1]"),
    ([*SYNTH, "{f}"], '{"pfind_skew": 0}', 1, "error: pfind_skew must be > 0"),
    ([*SYNTH, "{f}"], '{"stonewall_s": 0}', 1, "error: stonewall_s must be > 0"),
    ([*SYNTH, "{f}"], '{"straggler": {"kind": "clustered", "n_clusters": 1}}', 1, "error: clustered model needs >= 2 clusters of size >= 2"),
    ([*SYNTH, "{f}"], '{"straggler": {"kind": "dispersed", "count": 0}}', 1, "error: count must be >= 1"),
    ([*SYNTH, "{f}"], '{"straggler": {"kind": "dispersed", "slow_factor": 1}}', 1, "error: slow_factor must be > 1"),
    # At most MAX_RANKS_PER_TABLE ranks per timing table.
    ([*SYNTH, "{f}"], '{"node_range": [2, 9223372036854775807]}', 1, "node_range[1] * procs_per_node must be at most 4194304 ranks per timing table, got 9223372036854775807 * 8"),
    ([*SYNTH, "{f}"], '{"node_range": [1, 1], "procs_per_node": 4194305}', 1, "node_range[1] * procs_per_node must be at most 4194304 ranks per timing table, got 1 * 4194305"),
]


@pytest.mark.parametrize("argv, content, code, message", BAD_INPUT_CASES)
def test_bad_config_or_flag_is_one_error_line(tmp_path, capsys, argv, content, code, message):
    path = tmp_path / "input.json"
    path.write_text(content)
    csv_file = tmp_path / "export.csv"
    csv_file.write_text("id,list,filesystem,client_nodes\nx,SC22,lustre,4\n")
    assert _exit_code([a.format(f=path, csv=csv_file, dir=tmp_path, out=tmp_path / "m") for a in argv]) == code
    assert not (tmp_path / "m").exists()  # rejected before any output is written
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_config_overrides_merge_into_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"cache_threshold_s": 0, "straggler": {"ratio_floor": 0, "min_run_length": 3}}')
    want = config.PipelineConfig(
        cache_threshold_s=0, straggler=config.StragglerParams(ratio_floor=0, min_run_length=3)
    )
    assert config.load_config(path) == want
    assert config.load_config() == config.PipelineConfig()


# --- start-up cost and per-stage manifest reads -------------------------------------------


def test_corr_and_groups_run_without_scipy(manifests, tmp_path):
    # No module of the package imports scipy: with it unimportable, corr and
    # groups exit 0 and write the same bytes as in this process. bench/tracer.py
    # wraps the six modules below through sys.modules, so the CLI import must
    # load each of them.
    analyses = [["corr", "--method", "spearman"], ["corr", "--method", "pearson"], ["groups"]]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from io500kit import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    without = [[cmd, str(manifests), *rest, "--out", str(tmp_path / "without")] for cmd, *rest in analyses]
    env = {**os.environ, "PYTHONPATH": str(Path(io500kit.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(without)], env=env, capture_output=True, text=True, check=True
    )
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    for name in ("ingest", "loginsight", "metrics", "report", "stats", "synth"):
        assert f"io500kit.{name}" in loaded
    for cmd, *rest in analyses:
        assert run(cmd, manifests, *rest, "--out", tmp_path / "with") == 0
    assert tree_bytes(tmp_path / "without") == tree_bytes(tmp_path / "with")
    assert any(name.startswith("groups/") for name in tree_bytes(tmp_path / "with"))


def test_readme_library_names_exist():
    # README's Library section, its example and its prose, names these module
    # attributes; a deletion or a rename must fail here, not in a reader's hands.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)^## ", readme, re.M | re.S).group(1)
    modules = {"ingest": ingest, "report": report, "loginsight": loginsight, "stats": stats, "metrics": metrics, "synth": synth}
    named = set(re.findall(rf"(?<![\w.])({'|'.join(modules)})\.(\w+)", section))
    assert len(named) > 10
    assert [f"{m}.{a}" for m, a in sorted(named) if not hasattr(modules[m], a)] == []


def test_bench_hooks_name_existing_functions(tmp_path):
    # bench/tracer.py wraps these functions by name; a rename must fail here,
    # not in a traced benchmark run. The loginsight ones take the table first.
    bench = Path(__file__).parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("bench_tracer", bench / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
    finally:
        sys.path.remove(str(bench))
        sys.modules.pop("workloads", None)
    assert len(tracer.HOOKS) > 30
    for module, func, _, _ in tracer.HOOKS:
        assert callable(getattr(importlib.import_module(f"io500kit.{module}"), func, None)), func
    for func in tracer.LOGINSIGHT_TABLE_FUNCS:
        assert next(iter(inspect.signature(getattr(loginsight, func)).parameters)) == "timing"
    # Its file counter reads the Paths write_render returns: for a plot's
    # pieces, the two files it wrote, whose sizes sum to the bytes of the pieces.
    pairs = np.column_stack([np.arange(1, 9) / 8, [1.0, 1.5, 2.0, 0.0, 3.0, 1.0, 7.5, 1.25]])
    spec = report.RenderSpec(title="η", scale="log10")
    written = report.write_render(tmp_path, "logs", "qq", report.render_qq(pairs, spec))
    assert sorted(written) == [tmp_path / "logs" / "qq.csv", tmp_path / "logs" / "qq.svg"]
    counted = argparse.Namespace(counts=collections.Counter())
    tracer._files(counted, (), {}, written)
    svg, sidecar = joined(report.render_qq(pairs, spec))
    assert counted.counts["report.files_written"] == 2
    assert counted.counts["report.bytes_written"] == len(svg.encode()) + len(sidecar.encode())


def test_bench_synth_configs_load():
    # bench/workloads.py passes each workload's synth dict to synth_config_from_dict,
    # with a seed and, while it balances a corpus's node count, without timing.
    bench = Path(__file__).parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # @dataclass looks it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    assert len(workloads.WORKLOADS) >= 2
    for workload in workloads.WORKLOADS.values():
        for extra in ({"seed": 61}, {"seed": 61 * workloads.SEED_STRIDE, "generate_timing": False}):
            assert isinstance(synth.synth_config_from_dict({**workload.synth, **extra}), synth.SynthConfig)


ANALYSIS_STAGES = [
    ["stats"],
    ["corr"],
    ["groups"],
    *(["logs", "--analysis", a] for a in ("runtime", "close", "stonewall", "stragglers", "pfind")),
]


def _stage(argv, manifests, out):
    return [argv[0], manifests, *argv[1:], "--out", out]


def test_empty_directory_is_no_input_for_every_analysis(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    for argv in ANALYSIS_STAGES:
        assert run(*_stage(argv, empty, tmp_path / "out")) == 2, argv
        assert capsys.readouterr().err == f"error: no manifests or packages found under {empty}\n"
    assert not (tmp_path / "out").exists()


def test_truncated_manifest_fails_every_stage(manifests, tmp_path, capsys):
    path = sorted(manifests.glob("*.json"))[3]
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 10])  # cut inside the last table line
    for argv in ANALYSIS_STAGES:
        assert run(*_stage(argv, manifests, tmp_path / "out")) == 1, argv
        assert f"error: {path}: manifest: expected" in capsys.readouterr().err


def test_corrupt_table_line_fails_only_stages_reading_it(manifests, tmp_path, capsys):
    path = sorted(manifests.glob("*.json"))[3]
    lines = path.read_text().split("\n")
    index = json.loads(lines[0])["timing"]
    k = 1 + index.index("find")
    lines[k] = lines[k][: len(lines[k]) // 2]  # a damaged line, still in place
    path.write_text("\n".join(lines))
    failing = {"close", "pfind"}  # the analyses that decode the find table
    for argv in ANALYSIS_STAGES:
        code = run(*_stage(argv, manifests, tmp_path / "out"))
        err = capsys.readouterr().err
        if argv[-1] in failing:
            assert code == 1 and f"error: {path}: timing.find: line {k + 1} is not JSON" in err, argv
        else:
            assert code == 0 and err == "", argv


def _truncate_last_line(path: Path, phase: str) -> None:
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 10])  # cut inside the last table line


def _damage_table_line(path: Path, phase: str) -> None:
    lines = path.read_text().split("\n")
    k = 1 + json.loads(lines[0])["timing"].index(phase)
    lines[k] = lines[k][: len(lines[k]) // 2]
    path.write_text("\n".join(lines))


def _earlier_run(out: Path, files: Path | None = None) -> dict[str, bytes]:
    """Make `out` hold the files under `files` (none when None), each with
    bytes of its own, and a file of the user's; return what it holds."""
    out.mkdir(parents=True)
    for path in sorted(files.rglob("*")) if files else []:
        target = out / path.relative_to(files)
        if path.is_dir():
            target.mkdir()
        else:
            target.write_text(f"an earlier run's {path.name}\n")
    (out / "keep.txt").write_text("kept\n")
    return tree_bytes(out)


def _all_paths(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("damage", [_truncate_last_line, _damage_table_line])
@pytest.mark.parametrize("analysis, phase", [("stonewall", "ior-hard-write"), ("pfind", "find")])
@pytest.mark.parametrize("premade", [False, True])
def test_run_failing_part_way_removes_what_it_wrote(manifests, tmp_path, capsys, damage, analysis, phase, premade):
    # Both analyses write a file per table, so the earlier manifests' files
    # are written before the last one, in file-name order, fails to read.
    intact = tmp_path / "intact"
    assert run("logs", manifests, "--analysis", analysis, "--out", intact) == 0
    per_table = [p for p in (intact / "logs").iterdir() if p.name.startswith(("qq_", "pfind_"))]
    assert len(per_table) > 2
    capsys.readouterr()
    last = sorted(manifests.glob("*.json"))[-1]
    damage(last, phase)
    out = tmp_path / "out"
    # A pre-made --out holds a finished run of the same analysis, every file
    # of which the failing run overwrites before it fails, or would.
    before = _earlier_run(out, intact) if premade else None
    paths = _all_paths(out) if premade else None
    assert run("logs", manifests, "--analysis", analysis, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {last}: "), err
    if premade:
        assert tree_bytes(out) == before
        assert _all_paths(out) == paths
    else:
        assert not out.exists()


def test_run_succeeding_over_an_earlier_run_replaces_its_files(manifests, tmp_path):
    intact = tmp_path / "intact"
    assert run("logs", manifests, "--analysis", "stonewall", "--out", intact) == 0
    out = tmp_path / "out"
    _earlier_run(out, intact)
    assert run("logs", manifests, "--analysis", "stonewall", "--out", out) == 0
    assert tree_bytes(out) == {**tree_bytes(intact), "keep.txt": b"kept\n"}
    assert _all_paths(out) == sorted(["keep.txt", *_all_paths(intact)])


def test_ingest_failing_part_way_leaves_earlier_manifests(corpus, manifests, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    before = _earlier_run(out, manifests)
    paths = _all_paths(out)
    stream, calls = ingest.stream_package, []

    def failing_third(pkg, *rest):
        # The third package fails after its first table is written.
        calls.append(pkg)
        sub, tables = stream(pkg, *rest)
        if len(calls) < 3:
            return sub, tables

        def failing():
            yield next(tables)
            raise ingest.LoadError(f"{pkg}: gone")

        return sub, failing()

    monkeypatch.setattr(ingest, "stream_package", failing_third)
    assert run("ingest", corpus, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {calls[2]}: gone"]
    assert tree_bytes(out) == before
    assert _all_paths(out) == paths


@pytest.mark.parametrize(
    "block, message",
    [
        ("logs", "File exists"),  # a file where the run's directory goes
        ("logs/pfind.csv", "Is a directory"),  # a directory where the run's file goes
    ],
)
def test_commit_blocked_by_a_target_leaves_out_unchanged(manifests, tmp_path, capsys, block, message):
    # Every file is written to the staging directory; the target is checked
    # only when the run moves its files into place, before any of them moves.
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    if block == "logs":
        (out / "logs").write_text("a file\n")
    else:
        (out / "logs" / "pfind.csv").mkdir(parents=True)
        (out / "logs" / "pfind.txt").write_text("an earlier run's pfind.txt\n")
    before, paths = tree_bytes(out), _all_paths(out)
    assert run("logs", manifests, "--analysis", "pfind", "--out", out) == 1
    assert capsys.readouterr() == ("", f"error: {out / block}: {message}\n")
    assert tree_bytes(out) == before
    assert _all_paths(out) == paths


@pytest.mark.parametrize("premade", [False, True])
@pytest.mark.parametrize("command", ["logs", "synth"])
def test_interrupted_run_leaves_out_and_its_parents_as_found(manifests, tmp_path, monkeypatch, command, premade):
    # The third table's detail, or the third package's meta.txt, is
    # interrupted after two tables' or packages' files are staged.
    argv, module, name = {
        "logs": (["logs", str(manifests), "--analysis", "pfind"], report, "render_imbalance_table"),
        "synth": (["synth", "--seed", "11", "--n", "4"], synth, "_meta_text"),
    }[command]
    intact = tmp_path / "intact"
    assert run(*argv, "--out", intact) == 0
    top = tmp_path / "new"
    out = top / "sub" / "out"
    before = _earlier_run(out, intact) if premade else None
    paths = _all_paths(out) if premade else None
    original, calls = getattr(module, name), []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return original(*args)

    monkeypatch.setattr(module, name, interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main([*argv, "--out", str(out)])
    if premade:
        assert tree_bytes(out) == before
        assert _all_paths(out) == paths
    else:
        assert not top.exists()


def test_staging_directory_that_cannot_be_made_names_out(manifests, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"

    def refused(prefix, dir):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.path.join(dir, f"{prefix}x1y2z3"))

    monkeypatch.setattr(tempfile, "mkdtemp", refused)
    assert run("logs", manifests, "--analysis", "pfind", "--out", out) == 1
    assert capsys.readouterr().err == f"error: {out}: Permission denied\n"
    assert not out.exists()


def test_pfind_half_median_keeps_its_half(tmp_path, summary_basic):
    # A median of whole counts is whole or a half: 2.5 is not written as 2.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / SUMMARY_FILENAME).write_text(summary_basic)
    (pkg / "find.csv").write_text("rank,start,end,items\n0,0,5,1\n1,0,5,2\n2,0,5,3\n3,0,5,4\n")
    out = tmp_path / "out"
    assert run("logs", pkg, "--analysis", "pfind", "--out", out) == 0
    header, row = (line.split(",") for line in (out / "logs" / "pfind.csv").read_text().splitlines())
    summary = dict(zip(header, row))
    assert (summary["MedianItems"], summary["MaxItems"], summary["MaxOverMedian"]) == ("2.5", "4", "1.6")
    (detail,) = (out / "logs").glob("pfind_*.csv")
    assert "items_median,2.5\n" in detail.read_text()


def test_pfind_median_count_is_written_once_for_both_tables(tmp_path, summary_basic):
    # pfind.csv's MedianItems and pfind_<stem>.csv's items_median are the same
    # cell: every digit of a whole median, a half with one decimal.
    for name, items in (("half", (1, 1234567, 1234568, 9999999)), ("whole", (1, 1234567, 1234567, 9999999))):
        pkg = tmp_path / "packages" / name
        pkg.mkdir(parents=True)
        (pkg / SUMMARY_FILENAME).write_text(summary_basic)
        rows = "".join(f"{rank},0,5,{n}\n" for rank, n in enumerate(items))
        (pkg / "find.csv").write_text("rank,start,end,items\n" + rows)
    out = tmp_path / "out"
    assert run("logs", tmp_path / "packages", "--analysis", "pfind", "--out", out) == 0
    header, *rows = (line.split(",") for line in (out / "logs" / "pfind.csv").read_text().splitlines())
    medians = {row[0]: dict(zip(header, row))["MedianItems"] for row in rows}
    assert medians == {"half": "1234567.5", "whole": "1234567"}
    for name, median in medians.items():
        assert f"items_median,{median}\n" in (out / "logs" / f"pfind_{name}.csv").read_text()


# A repo CSV whose rows have no runtimes, so each read or stat phase with a
# value gets a cache note; row a also has a NaN phase value and an inf score.
CACHE_NOTE_CSV = (
    "id,list,institution,filesystem,interconnect,client_nodes,procs_per_node,total_procs,score,score_bw,score_md,"
    "ior_easy_write,ior_easy_read,ior_hard_write,ior_hard_read,mdtest_easy_write,mdtest_easy_stat,"
    "mdtest_easy_delete,mdtest_hard_write,mdtest_hard_stat,mdtest_hard_read,mdtest_hard_delete,find"
    "\na,SC22,site,Lustre,IB HDR,4,16,64,10.5,20.0,inf,100.0,nan,5.0,6.0,50.0,,40.0,10.0,90.0,30.0,8.0,500.0"
    + "\nb,ISC21,,GPFS,,2,,,,,,1.0,2.0,,,,,,,,,,\n"
)
# The sha256 of each file `ingest` writes for tests/fixtures/packages (pk/)
# and for CACHE_NOTE_CSV (csv/).
WARNING_ORDER_DIGESTS = {
    "csv/a.json": "6d11b9ec3530ca6c8d82c7879883db20d94731e18babcea32eea4a7341790d03",
    "csv/b.json": "cb1d1b07b83b2346d760a0ec5ea9f75b4040785995d7ae0c1572990e5739c78f",
    "csv/validation.txt": "039a17b36f7d69532bc5fd2d008df6582216a3490f11a4b2fb2f11cd86518d07",
    "pk/gpfs-site-b.json": "5b0ac8f032af0f83752cc81ee34325df3d58e03344b6036945ee339573ab6d92",
    "pk/legacy-format.json": "592bdfb5579ae574334ed010c14fd80f787681277c37cc4236d79a4cf0877f95",
    "pk/lustre-badrow.json": "7825c98b443d7687ba822ae70fd91b1ae0423aa5ea7622b58aa93910edd287c5",
    "pk/lustre-site-a.json": "609c697df783f19db0d6d8c5f9481a977a303e93cb0230f6519d3b25476e5ed5",
    "pk/lustre-timing.json": "0f230dc9261624acbeebffb737f205f111a1afc309615f827fd7c11f6c683e90",
    "pk/p06_no_meta.json": "441ae6ea2da37553aec57452e78a2731f085c129ccddb6de204a9c7c3fa248a0",
    "pk/validation.txt": "432dd97c6d285271730fa584736701bc31c69cb08da0b16da9dcd85f8ba679b6",
}


def test_ingest_keeps_each_submissions_warning_order(tmp_path):
    # A submission's warnings are its summary's and meta's, then its timing
    # CSVs', then its cache notes: a package's table warning and a repo-CSV
    # row's value warnings come before its notes, in manifests and validation.txt.
    csv_path = tmp_path / "repo.csv"
    csv_path.write_text(CACHE_NOTE_CSV)
    assert run("ingest", Path(__file__).parent / "fixtures" / "packages", "--out", tmp_path / "out" / "pk") == 0
    assert run("ingest", csv_path, "--format", "repo-csv", "--out", tmp_path / "out" / "csv") == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(tmp_path / "out").items()}
    assert digests == WARNING_ORDER_DIGESTS
    assert ingest.read_manifest(tmp_path / "out" / "csv" / "a.json").warnings == [
        "ior-easy-read: non-finite value 'nan', dropped",
        "score_md: non-finite value 'inf', dropped",
        "ior-hard-read: no runtime recorded, cache flag left unset",
        "mdtest-hard-stat: no runtime recorded, cache flag left unset",
        "mdtest-hard-read: no runtime recorded, cache flag left unset",
    ]


@pytest.mark.parametrize(
    "argv, golden, old, new, message",
    [
        (["logs", "--analysis", "runtime"], "p01_dash_full", '"runtime_s":316.631', '"runtime_s":Infinity', "phases[0].runtime_s: non-finite value inf"),
        (["stats"], "p01_dash_full", '"interconnect_gbps":200.0', '"interconnect_gbps":Infinity', "meta.interconnect_gbps: non-finite value inf"),
        (["logs", "--analysis", "stonewall"], "p04_timing_full", '"stonewall_s":300.0', '"stonewall_s":Infinity', "timing.ior-easy-write.stonewall_s: non-finite value inf"),
    ],
    ids=["runtime", "stats", "stonewall"],
)
def test_non_finite_manifest_number_is_one_error_line(tmp_path, capsys, argv, golden, old, new, message):
    # Not a traceback from summary_stats, nor an "inf Gb/s" interconnect class,
    # nor stonewall ratios of 0.
    text = (Path(__file__).parent / "golden" / f"{golden}.json").read_text()
    assert text.count(old) == 1
    path = tmp_path / "manifests" / "m.json"
    path.parent.mkdir()
    path.write_text(text.replace(old, new))
    command, *options = argv
    assert run(command, path.parent, *options, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()
