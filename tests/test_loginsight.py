import dataclasses
import math

import numpy as np
import pytest

from io500kit import loginsight
from io500kit.config import StragglerParams
from io500kit.errors import (
    DegenerateInputError,
    NotAvailableError,
    SampleSizeError,
    ValidationError,
)
from io500kit.ingest import normalize_metadata
from io500kit.loginsight import Pattern
from io500kit.types import Phase, PhaseResult, ProcessTimingTable, Submission


def _phase(phase, runtime, value=1.0):
    return PhaseResult(phase=phase, value=value, unit=phase.unit, runtime_s=runtime)


# --- cache flag --------------------------------------------------------------


def test_cache_flag_read_under_threshold():
    updated, notes = loginsight.flag_cache_affected([_phase(Phase.IOR_EASY_READ, 8.0)])
    assert updated[0].cache_flag
    assert notes == []


def test_cache_flag_write_excluded():
    updated, _ = loginsight.flag_cache_affected([_phase(Phase.IOR_EASY_WRITE, 8.0)])
    assert not updated[0].cache_flag


def test_cache_flag_long_read_not_flagged():
    updated, _ = loginsight.flag_cache_affected([_phase(Phase.IOR_HARD_READ, 300.0)])
    assert not updated[0].cache_flag


def test_cache_flag_stat_phases_and_missing_runtime():
    updated, notes = loginsight.flag_cache_affected(
        [_phase(Phase.MDTEST_EASY_STAT, 4.0), _phase(Phase.MDTEST_HARD_STAT, None)]
    )
    assert updated[0].cache_flag
    assert not updated[1].cache_flag
    assert len(notes) == 1 and "no runtime" in notes[0]


def test_cache_flag_threshold_configurable():
    updated, _ = loginsight.flag_cache_affected([_phase(Phase.IOR_EASY_READ, 12.0)], threshold_s=15.0)
    assert updated[0].cache_flag


# --- close time ----------------------------------------------------------------


def test_close_report_all_zero(timing_factory):
    table = timing_factory(runtimes=[300, 300, 300, 300], closes=[0, 0, 0, 0])
    rep = loginsight.close_time_report(table)
    assert rep.stats.max == 0.0
    assert all(f == 0.0 for f in rep.fraction_of_runtime)


def test_close_report_fraction(timing_factory):
    table = timing_factory(runtimes=[330.0], closes=[30.0], stonewall=None)
    rep = loginsight.close_time_report(table)
    assert rep.fraction_of_runtime[0] == pytest.approx(30 / 330, rel=1e-12)


def test_close_report_missing_rank_omitted(timing_factory):
    table = timing_factory(runtimes=[300, 310, 320], closes=[1.0, 2.0, 3.0])
    table.close_s[1] = np.nan
    rep = loginsight.close_time_report(table)
    assert rep.stats.n == 2
    assert rep.omitted_ranks == 1
    assert rep.ranks.tolist() == [0, 2]


def test_close_report_not_available(timing_factory):
    table = timing_factory(runtimes=[300, 310])
    with pytest.raises(NotAvailableError):
        loginsight.close_time_report(table)


# --- stonewall ratios --------------------------------------------------------------


def test_stonewall_ratios_direct_division(timing_factory):
    table = timing_factory(runtimes=[300.0, 310.0, 600.0], stonewall=300.0)
    out = loginsight.stonewall_ratios(table)
    assert out.ratios == pytest.approx([1.0, 310 / 300, 2.0])
    assert [q for q, _ in out.qq] == pytest.approx([1 / 3, 2 / 3, 1.0])
    assert [r for _, r in out.qq] == sorted(out.ratios)


def test_stonewall_ratios_uniform(timing_factory):
    table = timing_factory(runtimes=[300.0] * 8, stonewall=300.0)
    out = loginsight.stonewall_ratios(table)
    assert all(r == 1.0 for r in out.ratios)


def test_stonewall_ratio_missing_directs_to_nominal(timing_factory):
    table = timing_factory(runtimes=[310.0, 320.0], stonewall=None)
    with pytest.raises(NotAvailableError, match="stonewall_s=300"):
        loginsight.stonewall_ratios(table)
    out = loginsight.stonewall_ratios(table, stonewall_s=300.0)
    assert out.stonewall_s == 300.0


@pytest.mark.parametrize("table_stonewall, stonewall_s", [(1e-320, None), (300.0, 1e-310)])
def test_stonewall_ratio_that_overflows_raises(timing_factory, table_stonewall, stonewall_s):
    table = timing_factory(runtimes=[0.0, 310.0, 320.0], stonewall=table_stonewall)
    with pytest.raises(DegenerateInputError, match="overflows a float at rank 1"):
        loginsight.stonewall_ratios(table, stonewall_s=stonewall_s)


def test_timing_table_rejects_a_runtime_that_overflows():
    with pytest.raises(ValidationError, match="rank 3: runtime end 1.7e.308 - start -1.7e.308 overflows"):
        ProcessTimingTable(
            phase=Phase.IOR_EASY_WRITE, rank=[4, 3], start_s=[0.0, -1.7e308], end_s=[1.7e308, 1.7e308]
        )


def test_stonewall_ratios_permutation_invariant(timing_factory):
    runtimes = [305.0, 420.0, 310.0, 900.0, 307.0]
    t1 = timing_factory(runtimes=runtimes)
    out1 = loginsight.stonewall_ratios(t1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        perm = rng.permutation(len(runtimes))
        t2 = timing_factory(runtimes=[runtimes[i] for i in perm])
        out2 = loginsight.stonewall_ratios(t2)
        assert np.array_equal(out2.qq, out1.qq)  # sorted output ignores row order


# --- straggler detection --------------------------------------------------------------


def test_detect_tight_distribution_empty():
    ratios = [1.0 + 0.01 * (i % 5) / 5 for i in range(40)]
    assert loginsight.detect_stragglers(ratios) == set()


def test_detect_five_of_hundred():
    ratios = [1.0 + 0.0001 * i for i in range(95)] + [3.0] * 5
    out = loginsight.detect_stragglers(ratios)
    assert out == {95, 96, 97, 98, 99}


def test_detect_floor_excludes_marginal():
    ratios = [1.0] * 30 + [1.19]
    assert loginsight.detect_stragglers(ratios) == set()
    # without the floor the fence alone would flag it
    assert loginsight.detect_stragglers(ratios, params=StragglerParams(ratio_floor=0.0)) == {30}


def test_detect_small_sample_error():
    with pytest.raises(SampleSizeError):
        loginsight.detect_stragglers([1.0, 1.0, 3.0])


def test_detect_fence_scale_invariance_with_floor_off():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(8, 60))
        ratios = np.abs(rng.normal(1.0, 0.02, size=n)) + rng.choice(
            [0.0, 2.0], size=n, p=[0.9, 0.1]
        )
        c = float(rng.uniform(0.2, 8.0))
        no_floor = StragglerParams(ratio_floor=0.0)
        base = loginsight.detect_stragglers(ratios, params=no_floor)
        scaled = loginsight.detect_stragglers(c * ratios, params=no_floor)
        assert base == scaled


def test_detect_respects_explicit_ranks():
    ratios = [1.0, 1.0, 1.0, 1.0, 3.0]
    out = loginsight.detect_stragglers(ratios, ranks=[10, 20, 30, 40, 50])
    assert out == {50}


# --- pattern classification -------------------------------------------------------------


def test_classify_contiguous():
    out = loginsight.classify_straggler_pattern({10, 11, 12, 13, 14}, 100)
    assert (out.pattern, out.adjacency_index, out.run_count) == (Pattern.CONTIGUOUS, 1.0, 1)


def test_classify_clustered():
    out = loginsight.classify_straggler_pattern({10, 11, 12, 40, 41, 42, 70, 71, 72}, 100)
    assert out.pattern is Pattern.CLUSTERED
    assert out.adjacency_index == pytest.approx(0.75)
    assert out.run_count == 3


def test_classify_dispersed():
    out = loginsight.classify_straggler_pattern({5, 25, 45, 65, 85}, 100)
    assert (out.pattern, out.adjacency_index) == (Pattern.DISPERSED, 0.0)


def test_classify_none_iff_below_min_size():
    for s in range(0, 6):
        stragglers = set(range(0, 2 * s, 2))
        out = loginsight.classify_straggler_pattern(stragglers, 100)
        assert (out.pattern is Pattern.NONE) == (len(stragglers) < 3)


@pytest.mark.parametrize("min_pattern_size", [1, 0, -5])
def test_classify_empty_set_is_none_whatever_min_size(min_pattern_size):
    params = StragglerParams(min_pattern_size=min_pattern_size)
    out = loginsight.classify_straggler_pattern(set(), 100, params)
    assert (out.pattern, out.adjacency_index, out.run_count) == (Pattern.NONE, 0.0, 0)
    one = loginsight.classify_straggler_pattern({7}, 100, params)
    assert (one.pattern, one.run_count) == (Pattern.CONTIGUOUS, 1)


def test_classify_shift_invariance():
    rng = np.random.default_rng(32)
    base = {10, 11, 12, 40, 41, 42, 70, 71, 72}
    ref = loginsight.classify_straggler_pattern(base, 200)
    for _ in range(50):
        shift = int(rng.integers(0, 120))
        shifted = {r + shift for r in base}
        out = loginsight.classify_straggler_pattern(shifted, 200)
        assert (out.pattern, out.adjacency_index, out.run_count) == (
            ref.pattern,
            ref.adjacency_index,
            ref.run_count,
        )


def test_classify_rank_out_of_range():
    with pytest.raises(ValueError):
        loginsight.classify_straggler_pattern({5, 200}, 100)


def test_straggler_report_end_to_end(timing_factory):
    runtimes = [305.0] * 20
    for r in (8, 9, 10, 11):
        runtimes[r] = 900.0
    table = timing_factory(runtimes=runtimes, stonewall=300.0)
    rep = loginsight.straggler_report(table)
    assert rep.straggler_ranks == {8, 9, 10, 11}
    assert rep.pattern is Pattern.CONTIGUOUS
    assert len(rep.qq) == 20
    # A StragglerReport is the table's StonewallRatios plus the classification.
    ratios = loginsight.stonewall_ratios(table)
    assert isinstance(rep, loginsight.StonewallRatios)
    assert (rep.phase, rep.stonewall_s) == (ratios.phase, ratios.stonewall_s)
    for name in ("ranks", "ratios", "qq"):
        assert getattr(rep, name).tobytes() == getattr(ratios, name).tobytes()


def test_straggler_report_missing_rank_splits_run():
    # Runs are counted in rank space: rank 15 is absent from the table, so the
    # stragglers at 10-19 form two runs, 10-14 and 16-19.
    ranks = np.array([r for r in range(100) if r != 15])
    runtimes = np.where((ranks >= 10) & (ranks <= 19), 900.0, 305.0)
    table = ProcessTimingTable(
        phase=Phase.IOR_EASY_WRITE,
        rank=ranks,
        start_s=np.zeros(ranks.size),
        end_s=runtimes,
        stonewall_s=300.0,
    )
    rep = loginsight.straggler_report(table)
    assert rep.straggler_ranks == set(range(10, 20)) - {15}
    assert rep.pattern is Pattern.CLUSTERED
    assert rep.run_count == 2


def test_straggler_report_applies_every_param():
    # Every field differs from its default, so one that straggler_report did not
    # pass on to the kernels would show.
    params = StragglerParams(
        iqr_multiplier=0.5,
        ratio_floor=1.1,
        min_pattern_size=4,
        contiguous_fraction=0.8,
        clustered_fraction=0.7,
        min_run_length=3,
    )
    assert all(getattr(params, f.name) != f.default for f in dataclasses.fields(params))
    rng = np.random.default_rng(12)
    differs = 0
    for _ in range(40):
        ranks = np.arange(64)
        runtimes = 300.0 * rng.choice([1.02, 1.05, 1.15, 1.3, 2.0], size=64, p=[0.5, 0.2, 0.1, 0.1, 0.1])
        table = ProcessTimingTable(
            phase=Phase.IOR_HARD_WRITE, rank=ranks, start_s=np.zeros(64), end_s=runtimes, stonewall_s=300.0
        )
        rep = loginsight.straggler_report(table, params)
        stragglers = loginsight.detect_stragglers(runtimes / 300.0, ranks, params)
        want = loginsight.classify_straggler_pattern(stragglers, 64, params)
        assert rep.straggler_ranks == stragglers
        assert (rep.pattern, rep.adjacency_index, rep.run_count) == (
            want.pattern,
            want.adjacency_index,
            want.run_count,
        )
        default = loginsight.straggler_report(table)
        differs += (default.straggler_ranks, default.pattern) != (rep.straggler_ranks, rep.pattern)
    assert differs  # the params change some report


# --- pfind imbalance ----------------------------------------------------------------------


def test_gini_uniform_zero_and_worked_value():
    assert loginsight.gini([7, 7, 7, 7]) == 0.0
    assert loginsight.gini([0, 0, 0, 100]) == pytest.approx(0.75, rel=1e-12)


def test_gini_matches_pairwise_oracle():
    from oracles import gini_oracle

    rng = np.random.default_rng(33)
    for _ in range(200):
        counts = rng.integers(0, 50, size=int(rng.integers(2, 25))).astype(float)
        if counts.sum() == 0:
            continue
        assert loginsight.gini(counts) == pytest.approx(gini_oracle(counts.tolist()), abs=1e-10)


def test_gini_properties():
    rng = np.random.default_rng(34)
    for _ in range(200):
        counts = rng.integers(0, 100, size=int(rng.integers(2, 30))).astype(float)
        if counts.sum() == 0:
            continue
        g = loginsight.gini(counts)
        assert 0.0 <= g < 1.0
        c = float(rng.uniform(0.1, 9.0))
        assert loginsight.gini(c * counts) == pytest.approx(g, abs=1e-12)
        if g == 0.0:
            assert np.all(counts == counts[0])
        if np.all(counts == counts[0]):
            assert g == 0.0


def test_pfind_paper_scenario(timing_factory):
    items = [100_000] * 15 + [5_000_000]
    table = timing_factory(
        phase=Phase.FIND, runtimes=[60.0] * 16, stonewall=None, items=items
    )
    rep = loginsight.pfind_imbalance(table)
    assert rep.max_over_median == 50.0


def test_pfind_uniform(timing_factory):
    table = timing_factory(phase=Phase.FIND, runtimes=[60.0] * 8, stonewall=None, items=[9] * 8)
    rep = loginsight.pfind_imbalance(table)
    assert rep.gini == 0.0
    assert rep.max_over_median == 1.0


def test_pfind_zero_median_is_inf(timing_factory):
    table = timing_factory(
        phase=Phase.FIND, runtimes=[60.0] * 4, stonewall=None, items=[0, 0, 0, 100]
    )
    rep = loginsight.pfind_imbalance(table)
    assert math.isinf(rep.max_over_median)
    assert rep.gini == pytest.approx(0.75)


def test_pfind_errors(timing_factory):
    table = timing_factory(phase=Phase.FIND, runtimes=[60.0] * 4, stonewall=None, items=[0] * 4)
    with pytest.raises(DegenerateInputError):
        loginsight.pfind_imbalance(table)
    no_items = timing_factory(phase=Phase.FIND, runtimes=[60.0] * 4, stonewall=None)
    with pytest.raises(NotAvailableError):
        loginsight.pfind_imbalance(no_items)


# --- runtime distribution ----------------------------------------------------------------


def _sub(sid, runtimes):
    meta = normalize_metadata({"submission_id": sid, "client_nodes": 1})
    phases = {p: _phase(p, rt) for p, rt in runtimes.items()}
    return Submission(meta=meta, phases=phases)


def test_runtime_distribution_compliance():
    subs = [
        _sub("ok", {Phase.IOR_EASY_WRITE: 316.6, Phase.IOR_EASY_READ: 100.0}),
        _sub("short", {Phase.IOR_EASY_WRITE: 250.0}),
        _sub("long-tail", {Phase.IOR_EASY_WRITE: 3700.0}),
    ]
    dist = loginsight.runtime_distribution(subs)
    assert len(dist.violations) == 1
    v = dist.violations[0]
    assert (v.submission_id, v.phase, v.runtime_s) == ("short", Phase.IOR_EASY_WRITE, 250.0)
    stats = dist.per_phase[Phase.IOR_EASY_WRITE]
    assert stats.n == 3 and stats.max == 3700.0


def test_runtime_distribution_read_phases_not_checked():
    subs = [_sub("r", {Phase.IOR_EASY_READ: 5.0})]
    dist = loginsight.runtime_distribution(subs)
    assert dist.violations == []


def test_runtime_distribution_returns_the_runtimes_it_summarizes():
    subs = [
        _sub("a", {Phase.IOR_HARD_WRITE: 320.0, Phase.IOR_EASY_WRITE: 316.6}),
        _sub("b", {Phase.IOR_EASY_WRITE: 250.0, Phase.FIND: 5.0}),
    ]
    dist = loginsight.runtime_distribution(subs)
    assert dist.runtimes == {
        Phase.FIND: [5.0],
        Phase.IOR_EASY_WRITE: [316.6, 250.0],
        Phase.IOR_HARD_WRITE: [320.0],
    }
    assert list(dist.runtimes) == list(dist.per_phase)  # phase-name order
    assert dist.per_phase[Phase.IOR_EASY_WRITE].n == 2
