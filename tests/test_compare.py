"""tools/compare.py on canned bench result lines; no benchmark runs here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _line(failed=0, **values):
    units = {"pipeline_s": "s", "peak_rss_mb": "MB", "speedup": "x"}
    return {
        "correct": failed == 0,
        "attempted": 54,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def test_parse_result_takes_the_last_line(compare):
    stdout = 'env: {"git_sha": "x"}\n  pipeline_s = 2.5 s\n' + json.dumps(_line(pipeline_s=2.5)) + "\n\n"
    assert compare.parse_result(stdout) == _line(pipeline_s=2.5)
    with pytest.raises(ValueError):
        compare.parse_result("\n")
    with pytest.raises(ValueError):
        compare.parse_result("5\n")  # JSON, but not a result object


def test_aggregate_medians_quartiles_and_wins(compare):
    parent = [2.0, 4.0, 3.0, 5.0, 1.0]
    change = [1.5, 4.0, 3.5, 4.0, 0.5]  # better in pairs 1, 4 and 5; a tie in pair 2
    pairs = [
        (_line(pipeline_s=p, peak_rss_mb=60.0, speedup=p), _line(pipeline_s=c, peak_rss_mb=61.0, speedup=c))
        for p, c in zip(parent, change)
    ]
    summary = compare.aggregate(pairs, {"pipeline_s": "lower", "peak_rss_mb": "lower", "speedup": "higher"})
    pipeline = summary["metrics"]["pipeline_s"]
    assert pipeline["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert pipeline["change"] == {"median": 3.5, "q1": 1.5, "q3": 4.0}
    assert (pipeline["unit"], pipeline["better"], pipeline["pairs"], pipeline["change_wins"]) == ("s", "lower", 5, 3)
    assert summary["metrics"]["peak_rss_mb"]["change_wins"] == 0
    assert summary["metrics"]["speedup"]["change_wins"] == 1  # higher is better: only pair 3
    assert summary["correct"] is True
    assert summary["failed"] == {"parent": [0] * 5, "change": [0] * 5}


def test_aggregate_reports_failed_runs_and_skips_missing_metrics(compare):
    pairs = [
        (_line(pipeline_s=2.0), _line(failed=2, pipeline_s=1.0, peak_rss_mb=50.0)),
        (_line(pipeline_s=2.0, peak_rss_mb=60.0), _line(pipeline_s=3.0, peak_rss_mb=70.0)),
    ]
    summary = compare.aggregate(pairs, {})  # an undeclared metric counts lower as better
    assert summary["correct"] is False
    assert summary["failed"] == {"parent": [0, 0], "change": [2, 0]}
    assert summary["metrics"]["pipeline_s"]["change_wins"] == 1
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["pairs"], rss["parent"]["median"], rss["change"]["median"]) == (1, 60.0, 70.0)


def test_directions_come_from_the_benchmark_declaration(compare):
    better = compare.directions()
    assert better["pipeline_s"] == "lower" and better["peak_rss_mb"] == "lower"
    assert "stats.correlation_matrix_s" in better


def _fake_git(shas):
    """A stand-in for compare.git: rev-parse knows the revisions in `shas`."""

    def git(*args):
        assert args[0] == "rev-parse"
        rev = args[-1].removesuffix("^{commit}")
        if rev not in shas:
            raise subprocess.CalledProcessError(128, ["git", *args], stderr=b"fatal: Needed a single revision\n")
        return f"{shas[rev]}\n".encode()

    return git


@pytest.fixture
def offline(compare, monkeypatch):
    """compare.main with git and the exports replaced by canned ones: each
    export's bench/run.py prints one canned result line, pipeline_s 2.0 in
    the parent's and 1.0 in the change's."""
    monkeypatch.setattr(compare, "git", _fake_git({"old": "a" * 40, "new": "b" * 40}))
    lines = {"a" * 40: _line(pipeline_s=2.0), "b" * 40: _line(pipeline_s=1.0)}

    def export(sha, dest):
        (dest / "bench").mkdir(parents=True)
        (dest / "bench" / "run.py").write_text(f"print({json.dumps(lines[sha])!r})\n")
        return dest

    monkeypatch.setattr(compare, "export", export)
    return compare


def test_compare_makes_a_missing_work_directory(offline, tmp_path):
    work, out = tmp_path / "no" / "such" / "dir", tmp_path / "bench.json"
    argv = ["old", "new", "--workload", "w", "--pairs", "1", "--out", str(out), "--work", str(work)]
    assert offline.main(argv) == 0
    assert work.is_dir() and list(work.iterdir()) == []  # the exports are removed
    summary = json.loads(out.read_text())
    assert summary["environment"]["parent"] == "a" * 40 and summary["environment"]["change"] == "b" * 40
    assert summary["workloads"]["w"]["metrics"]["pipeline_s"]["change_wins"] == 1


@pytest.mark.parametrize("revisions", [["nosuch", "new"], ["old", "nosuch"]])
def test_compare_unknown_revision_is_one_error_line(offline, tmp_path, capsys, revisions):
    out = tmp_path / "bench.json"
    assert offline.main([*revisions, "--workload", "w", "--out", str(out), "--work", str(tmp_path / "w")]) == 1
    err = capsys.readouterr().err
    assert err == "error: 'nosuch' names no commit\n"
    assert not out.exists() and not (tmp_path / "w").exists()


# bench/run.py stand-ins that fail, and the error after "error: w pair 1/2 change: ".
FAILED_RUNS = [
    (
        "import sys\nprint('Traceback (most recent call last):', file=sys.stderr)\n"
        "print('OSError: no space left', file=sys.stderr)\nsys.exit(3)\n",
        "bench/run.py exited 3; last stderr line: OSError: no space left",
    ),
    (
        "import sys\nprint('  pipeline_s = 1.0 s')\nprint('stage corr done', file=sys.stderr)\n",
        "no result line (Expecting value: line 1 column 3 (char 2)); last stderr line: stage corr done",
    ),
    ("", "no result line (bench run printed nothing); last stderr line: (none)"),
]


@pytest.mark.parametrize("script, message", FAILED_RUNS)
def test_compare_failed_run_is_one_error_line(offline, monkeypatch, tmp_path, capsys, script, message):
    # The change's run of pair 1 fails: the runs so far are dropped, and no --out is written.
    export = offline.export

    def failing(sha, dest):
        tree = export(sha, dest)
        if sha == "b" * 40:
            (tree / "bench" / "run.py").write_text(script)
        return tree

    monkeypatch.setattr(offline, "export", failing)
    work, out = tmp_path / "w", tmp_path / "bench.json"
    argv = ["old", "new", "--workload", "w", "--pairs", "2", "--out", str(out), "--work", str(work)]
    assert offline.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [f"error: w pair 1/2 change: {message}"]
    assert err[-1].startswith("error:")
    assert not out.exists() and list(work.iterdir()) == []


def test_stage_rss_runs_a_chain_on_a_given_corpus(tmp_path):
    # tools/stage_rss.py on a 3-package synth corpus: every stage of the
    # chain runs once, as its own process, and reports its max RSS and time,
    # all above the tool's own peak, which floors them.
    from io500kit import cli

    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--seed", "5", "--n", "3", "--out", str(corpus)]) == 0
    argv = ["--workload", "ranks-131k", "--corpus", str(corpus), "--runs", "1", "--work", str(tmp_path / "w"), "--json"]
    proc = subprocess.run([sys.executable, TOOL.with_name("stage_rss.py"), *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    stages = result["stages"]
    assert list(stages) == ["ingest", "logs-runtime", "logs-close", "logs-stonewall", "logs-stragglers", "logs-pfind"]
    for figures in stages.values():
        assert figures["rc"] == 0 and figures["max_rss_mb"] > result["floor_mb"] > 0 and figures["wall_s"] > 0
    # The chain's files are kept in a new directory under --work: the
    # manifests and the last run's outputs.
    (work,) = (tmp_path / "w").iterdir()
    assert work.name.startswith("stage-rss-") and str(work) in proc.stderr
    assert sorted(p.name for p in (work / "chain").iterdir()) == ["manifests", "out"]
    assert len(list((work / "chain" / "manifests").glob("*.json"))) == 3
