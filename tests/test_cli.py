import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import io500kit
from io500kit import cli, config, ingest, loginsight, metrics, report, stats, synth
from io500kit.ingest import SUMMARY_FILENAME


def run(*argv):
    return cli.main([str(a) for a in argv])


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
    subs = ingest.read_manifest_dir(manifests)
    names, table = metrics.metric_table(subs, "per-node")
    corr = stats.correlation_matrix(names, table, method="spearman", alpha=0.05)
    spec = report.RenderSpec(title="spearman correlations (per-node, alpha=0.05)")
    svg, sidecar = report.render_corr_heatmap(corr, spec)
    assert (out / "corr" / "spearman_per-node.svg").read_text() == svg
    assert (out / "corr" / "spearman_per-node.csv").read_text() == sidecar


def test_stats_cli_is_thin_wrapper(manifests, tmp_path):
    out = tmp_path / "out"
    assert run("stats", manifests, "--normalize", "raw", "--out", out) == 0
    subs = ingest.read_manifest_dir(manifests)
    names, table = metrics.metric_table(subs, "raw")
    rows = []
    import numpy as np

    for j, name in enumerate(names):
        col = table[:, j]
        col = col[np.isfinite(col)]
        if col.size:
            rows.append((name, metrics.summary_stats(col.tolist())))
    csv_text, txt = report.render_summary_table(rows)
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
    (sub,) = ingest.read_manifest_dir(out)
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


# `{f}` is a file holding the case's content, `{csv}` a valid repo CSV and `{out}` an unused directory.
COLUMN_MAP = ["ingest", "{csv}", "--out", "{out}", "--format", "repo-csv", "--column-map"]
INGEST = ["ingest", "{csv}", "--out", "{out}", "--format", "repo-csv", "--config"]
STRAGGLERS = ["logs", "{f}", "--analysis", "stragglers", "--out", "{out}", "--config"]
SYNTH = ["synth", "--out", "{out}", "--config"]  # no --n: it would override n_submissions
BAD_INPUT_CASES = [
    # (argv, file content, exit code, error message)
    (["synth", "--config", "{f}"], "{bad", 1, "error: cannot read synth config"),
    (["synth", "--config", "{f}.missing"], "", 1, "error: cannot read synth config"),
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
    # The pipeline config is closed and typed by the shape of defaults.json.
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
    # Synth config values in range: checked when the config loads, before any corpus is built.
    ([*SYNTH, "{f}"], '{"close_models": {"lustre": {"median_s": -1}}}', 1, "close_models.lustre.median_s must be > 0, got -1"),
    ([*SYNTH, "{f}"], '{"close_models": {"lustre": {"sigma": -1}}}', 1, "close_models.lustre.sigma must be >= 0, got -1"),
    ([*SYNTH, "{f}"], '{"node_range": [2, 100000000000000000000]}', 1, "node_range[1] must be below 2**63, got 100000000000000000000"),
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
    assert _exit_code([a.format(f=path, csv=csv_file, out=tmp_path / "m") for a in argv]) == code
    assert not (tmp_path / "m").exists()  # rejected before any output is written
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_config_overrides_merge_into_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"cache_threshold_s": 0, "straggler": {"ratio_floor": 0, "min_run_length": 3}}')
    want = config.load_defaults()
    want["cache_threshold_s"] = 0
    want["straggler"].update(ratio_floor=0, min_run_length=3)
    assert config.load_config(path) == want


# --- start-up cost and per-stage manifest reads -------------------------------------------


def test_cli_import_defers_scipy():
    # bench/tracer.py wraps these six modules through sys.modules, so the import
    # must load each of them; scipy it must not, only two p-value kernels need it.
    code = "import json, sys, io500kit.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(io500kit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    for name in ("ingest", "loginsight", "metrics", "report", "stats", "synth"):
        assert f"io500kit.{name}" in loaded


def test_bench_hooks_name_existing_functions():
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
