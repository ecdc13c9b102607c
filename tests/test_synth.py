import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from io500kit import ingest, loginsight, metrics, synth
from io500kit.errors import ConfigError
from io500kit.loginsight import Pattern
from io500kit.types import Filesystem, Phase, ProcessTimingTable
from oracles import timing_text_oracle

# sha256 of every file of five small corpora (one per straggler kind, and one
# with a non-default pfind_skew), captured before synth wrote whole columns
# at once. Re-capture only for an output change that is meant.
SYNTH_CORPORA = json.loads((Path(__file__).parent / "golden" / "synth_corpora.json").read_text())


def small_config(**kw):
    defaults = dict(seed=7, n_submissions=8, node_range=(2, 6))
    defaults.update(kw)
    return synth.SynthConfig(**defaults)


# --- determinism -----------------------------------------------------------------


def test_gen_corpus_same_seed_identical():
    a = synth.gen_corpus(small_config())
    b = synth.gen_corpus(small_config())
    assert [g.submission for g in a] == [g.submission for g in b]
    assert [g.true_stragglers for g in a] == [g.true_stragglers for g in b]


def test_gen_corpus_different_seed_differs():
    a = synth.gen_corpus(small_config(seed=1))
    b = synth.gen_corpus(small_config(seed=2))
    assert [g.submission for g in a] != [g.submission for g in b]


def test_write_corpus_byte_identical(tmp_path):
    corpus = synth.gen_corpus(small_config())
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    synth.write_corpus(corpus, out1)
    synth.write_corpus(synth.gen_corpus(small_config()), out2)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


@pytest.mark.parametrize("name", sorted(SYNTH_CORPORA))
def test_small_corpora_match_golden_digests(tmp_path, name):
    golden = SYNTH_CORPORA[name]
    synth.write_corpus(synth.gen_corpus(synth.synth_config_from_dict(golden["config"])), tmp_path)
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert digests == golden["sha256"]


def _table(n=3, stonewall=300.0, start=None, close=None, items=None, mask=None):
    start = np.linspace(0.0, 0.75, n) if start is None else np.asarray(start, dtype=float)
    return ProcessTimingTable(
        phase=Phase.IOR_EASY_WRITE,
        rank=np.arange(n) * 7,
        start_s=start,
        end_s=start + 301.0000005,
        close_s=close,
        items=None if items is None else np.ma.MaskedArray(items, mask=mask),
        stonewall_s=stonewall,
    )


TIMING_TABLES = {
    "close": _table(close=[0.5, 1.25, 2e-7]),
    "partial-nan-close": _table(close=[np.nan, 1.25, np.nan]),
    "all-nan-close": _table(close=[np.nan] * 3),
    "items": _table(stonewall=None, items=[1, 10**12, 3]),
    "masked-items": _table(stonewall=None, items=[1, 2, 3], mask=[True] * 3),
    "partly-masked-items": _table(stonewall=None, items=[1, 2, 3], mask=[False, True, False]),
    "close-and-partial-items": _table(close=[0.1, np.nan, 0.3], items=[4, 5, 6], mask=[True, False, False]),
    "no-stonewall": _table(stonewall=None),
    "negative-zero-start": _table(start=[-0.0, 0.0, 0.5]),
    "one-row": _table(n=1, close=[3.5], items=[9]),
    "zero-rows": _table(n=0),
}
# Tables of about one and two blocks of rows, with gaps on the block boundaries.
for _n in (8191, 8192, 8193, 2 * 8192 + 1):
    _gaps = np.isin(np.arange(_n), [0, 8191, 8192, _n - 1])
    TIMING_TABLES[f"{_n}-rows"] = _table(n=_n)
    TIMING_TABLES[f"{_n}-rows-with-gaps"] = _table(
        n=_n, close=np.where(_gaps, np.nan, 0.25), items=np.arange(_n), mask=_gaps
    )


@pytest.mark.parametrize("name", TIMING_TABLES)
def test_timing_text_matches_per_cell_oracle(name):
    table = TIMING_TABLES[name]
    assert "".join(synth._timing_pieces(table)) == timing_text_oracle(table)


# --- ground truth and score consistency ----------------------------------------------


def test_reported_scores_equal_recomputed_exactly():
    for gen in synth.gen_corpus(small_config(n_submissions=12)):
        sub = gen.submission
        scores = metrics.recompute_scores(sub)
        assert sub.reported_score_bw == scores.score_bw
        assert sub.reported_score_md == scores.score_md
        assert sub.reported_score_overall == scores.score_overall


def test_corpus_round_trips_through_packages(tmp_path):
    corpus = synth.gen_corpus(small_config())
    pkg_dirs = synth.write_corpus(corpus, tmp_path)
    for gen, pkg in zip(corpus, pkg_dirs):
        loaded = ingest.load_submission(pkg)
        assert loaded.warnings == []
        assert loaded.meta == gen.submission.meta
        assert loaded.phases == gen.submission.phases
        assert loaded.timing == gen.submission.timing
        assert loaded.reported_score_overall == gen.submission.reported_score_overall
        # manifest round trip on top
        assert ingest.from_manifest(ingest.to_manifest(loaded)) == loaded


def test_repo_csv_round_trips(tmp_path):
    corpus = synth.gen_corpus(small_config())
    synth.write_corpus(corpus, tmp_path)
    result = ingest.parse_repo_csv((tmp_path / "repo.csv").read_text())
    assert result.skipped == []
    assert len(result.submissions) == len(corpus)
    for gen, loaded in zip(corpus, result.submissions):
        assert loaded.reported_score_overall == gen.submission.reported_score_overall
        for phase, res in gen.submission.phases.items():
            assert loaded.phases[phase].value == res.value


# --- timing generation ------------------------------------------------------------------


def test_gen_timing_none_band_and_no_detection():
    table, truth = synth.gen_timing(Phase.IOR_EASY_WRITE, 64, 300.0, synth.NoStragglers(), seed=5)
    assert truth == frozenset()
    ratios = loginsight.stonewall_ratios(table).ratios
    assert all(1.0 <= r <= 1.0500001 for r in ratios)
    assert loginsight.detect_stragglers(ratios) == set()


def test_gen_timing_contiguous_ground_truth():
    model = synth.ContiguousStragglers(start=10, length=5, slow_factor=3.0)
    table, truth = synth.gen_timing(Phase.IOR_HARD_WRITE, 100, 300.0, model, seed=5)
    assert truth == frozenset(range(10, 15))
    rep = loginsight.straggler_report(table)
    assert rep.straggler_ranks == set(truth)
    assert rep.pattern is Pattern.CONTIGUOUS
    # hard-write tail lands in the documented 2x-5x band
    assert 2.0 <= max(rep.ratios) <= 5.0


def test_gen_timing_clustered_recovery_over_seeds():
    hits = 0
    for seed in range(40):
        table, truth = synth.gen_timing(
            Phase.IOR_HARD_WRITE, 100, 300.0, synth.ClusteredStragglers(), seed=seed
        )
        rep = loginsight.straggler_report(table)
        if rep.pattern is Pattern.CLUSTERED and rep.straggler_ranks == set(truth):
            hits += 1
    assert hits >= 38


def test_gen_timing_write_runtimes_at_least_stonewall():
    for seed in range(20):
        table, _ = synth.gen_timing(
            Phase.IOR_HARD_WRITE, 32, 300.0, synth.DispersedStragglers(), seed=seed
        )
        assert np.all(table.runtime_s >= 300.0)
        assert len(set(table.rank.tolist())) == table.n_ranks
        assert np.all(table.end_s >= table.start_s)


def test_gen_timing_find_items_skewed():
    table, _ = synth.gen_timing(Phase.FIND, 64, 300.0, seed=5, items_skew=1.5)
    items = table.items.tolist()
    assert all(i is not None and i >= 1 for i in items)
    assert max(items) / np.median(items) > 5.0
    assert table.stonewall_s is None


def test_gen_timing_config_errors():
    with pytest.raises(ConfigError):
        synth.gen_timing(Phase.IOR_HARD_WRITE, 3, 300.0)  # n_ranks < 4
    with pytest.raises(ConfigError):
        synth.gen_timing(
            Phase.IOR_HARD_WRITE, 8, 300.0, synth.ContiguousStragglers(length=8)
        )
    with pytest.raises(ConfigError):
        synth.ContiguousStragglers(slow_factor=0.5)


def test_corpus_reproduces_dataset_level_structure():
    # the generator should mimic the qualitative dataset shape the
    # directional checks probe (skew, hard>easy spread, composite coupling,
    # network association); pinned seed, deterministic
    from dataset_checks import run_directional_checks

    corpus = synth.gen_corpus(
        synth.SynthConfig(seed=0, n_submissions=61, generate_timing=False)
    )
    results = run_directional_checks([g.submission for g in corpus])
    assert all(ok for ok, _, _ in results), results


def test_corpus_mean_exceeds_median_over_seeds():
    for seed in range(50):
        corpus = synth.gen_corpus(
            synth.SynthConfig(seed=seed, n_submissions=61, generate_timing=False)
        )
        names, table = metrics.metric_table([g.submission for g in corpus], "raw")
        for j in range(len(names)):
            col = table[:, j]
            col = col[np.isfinite(col)]
            assert col.mean() > np.median(col), (seed, names[j])


# --- config parsing ----------------------------------------------------------------------


def test_synth_config_from_dict():
    config = synth.synth_config_from_dict(
        {
            "seed": 9,
            "n_submissions": 5,
            "node_range": [13, 20],
            "straggler": {"kind": "contiguous", "length": 4, "slow_factor": 2.5},
            "pfind_skew": 2.0,
        }
    )
    assert config.seed == 9
    assert config.node_range == (13, 20)
    assert isinstance(config.straggler, synth.ContiguousStragglers)
    assert config.straggler.length == 4


def test_synth_config_maps_and_null_start():
    config = synth.synth_config_from_dict(
        {
            "filesystem_mix": {"daos": 2, "lustre": 1.5},
            "phase_median": {"find": 100},
            "close_models": {"lustre": {"sigma": 2.0}},
            "generate_timing": False,
            "straggler": {"kind": "contiguous", "start": None, "length": 3},
        }
    )
    assert config.filesystem_mix == {Filesystem.DAOS: 2, Filesystem.LUSTRE: 1.5}  # replaces the default mix
    assert config.phase_median == {**synth.DEFAULT_PHASE_MEDIAN, Phase.FIND: 100}
    # A close model is typed by CloseModel(); the filesystems not named keep theirs.
    lustre = synth.CloseModel(median_s=1.0, sigma=2.0)
    assert config.close_models == {**synth.DEFAULT_CLOSE_MODELS, Filesystem.LUSTRE: lustre}
    assert config.generate_timing is False
    assert config.straggler == synth.ContiguousStragglers(start=None, length=3)
    assert synth.synth_config_from_dict({}) == synth.SynthConfig()
    with pytest.raises(ConfigError, match="unknown key 'straggler.start'"):
        synth.synth_config_from_dict({"straggler": {"kind": "clustered", "start": None}})


def test_straggler_kinds_are_the_model_patterns():
    assert list(synth.STRAGGLER_MODELS) == ["none", "contiguous", "clustered", "dispersed"]
    for kind, model in synth.STRAGGLER_MODELS.items():
        assert model.pattern.value == kind.upper()
        assert synth.straggler_model_from_dict({"kind": kind}) == model()
        assert synth.straggler_model_from_dict({"kind": kind, **dataclasses.asdict(model())}) == model()
    assert synth.straggler_model_from_dict({}) == synth.NoStragglers()


def test_synth_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown synth config keys"):
        synth.synth_config_from_dict({"seeed": 1})
    with pytest.raises(ConfigError, match="unknown straggler model"):
        synth.synth_config_from_dict({"straggler": {"kind": "zigzag"}})


def test_synth_config_caps_ranks_per_table():
    cap = synth.MAX_RANKS_PER_TABLE
    # Configs are only built here, never generated: a corpus at the cap needs gigabytes.
    synth.SynthConfig(node_range=(1, cap // 8))
    synth.SynthConfig(node_range=(1, 1), procs_per_node=cap)
    synth.SynthConfig(node_range=(1, 2**62), generate_timing=False)  # no tables, no cap
    for kw in ({"node_range": (1, cap // 8 + 1)}, {"procs_per_node": cap + 1, "node_range": (1, 1)}):
        with pytest.raises(ConfigError, match=r"node_range\[1\] \* procs_per_node must be at most 4194304"):
            synth.SynthConfig(**kw)


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        synth.SynthConfig(n_submissions=0)
    with pytest.raises(ConfigError):
        synth.SynthConfig(node_range=(5, 2))
    with pytest.raises(ConfigError):
        synth.SynthConfig(filesystem_mix={fs: 0.0 for fs in synth.DEFAULT_FILESYSTEM_MIX})
