import math

import numpy as np
import pytest

from io500kit import metrics
from io500kit.errors import (
    EmptyInputError,
    IncompletePhasesError,
    NormalizationError,
)
from io500kit.ingest import normalize_metadata
from io500kit.types import Phase, PhaseResult, Submission


def bw_phases(w1, r1, w2, r2):
    return {
        Phase.IOR_EASY_WRITE: w1,
        Phase.IOR_EASY_READ: r1,
        Phase.IOR_HARD_WRITE: w2,
        Phase.IOR_HARD_READ: r2,
    }


def md_phases(ew, es, hw, hs, find):
    return {
        Phase.MDTEST_EASY_WRITE: ew,
        Phase.MDTEST_EASY_STAT: es,
        Phase.MDTEST_HARD_WRITE: hw,
        Phase.MDTEST_HARD_STAT: hs,
        Phase.FIND: find,
    }


# --- composite scores ---------------------------------------------------------


def test_score_bw_equal_values():
    assert metrics.score_bw(bw_phases(100, 100, 100, 100)) == pytest.approx(100.0, rel=1e-12)


def test_score_bw_zero_annihilation():
    assert metrics.score_bw(bw_phases(1.8, 3.6, 0.0, 2.0)) == 0.0


def test_score_bw_fourth_root():
    # product 1*16*4*4 = 256, 256^(1/4) = 4
    assert metrics.score_bw(bw_phases(1, 16, 4, 4)) == pytest.approx(4.0, rel=1e-12)


def test_score_bw_missing_phase_named():
    phases = bw_phases(1, 2, 3, 4)
    del phases[Phase.IOR_HARD_READ]
    with pytest.raises(IncompletePhasesError, match="ior-hard-read"):
        metrics.score_bw(phases)


def test_score_md_equal_and_fifth_root():
    assert metrics.score_md(md_phases(10, 10, 10, 10, 10)) == pytest.approx(10.0, rel=1e-12)
    assert metrics.score_md(md_phases(1, 1, 1, 1, 32)) == pytest.approx(2.0, rel=1e-12)
    assert metrics.score_md(md_phases(1, 0, 1, 1, 32)) == 0.0


def test_score_md_uses_only_the_five_scoring_phases():
    phases = md_phases(10, 10, 10, 10, 10)
    phases[Phase.MDTEST_EASY_DELETE] = 1e9  # must not affect the composite
    phases[Phase.MDTEST_HARD_READ] = 0.0
    assert metrics.score_md(phases) == pytest.approx(10.0, rel=1e-12)


def test_score_overall():
    assert metrics.score_overall(100, 400) == pytest.approx(200.0, rel=1e-12)
    assert metrics.score_overall(0, 500) == 0.0
    # arithmetic check on dataset-scale magnitudes (sqrt oracle)
    expected = math.sqrt(156 * 10641)
    assert metrics.score_overall(156, 10641) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1288.4083, abs=1e-3)


# --- invariance properties (seeded, >= 200 cases each) ------------------------------


def test_score_scale_equivariance():
    rng = np.random.default_rng(101)
    for _ in range(200):
        vals = rng.lognormal(0, 2, size=4)
        c = float(rng.lognormal(0, 1.5))
        base = metrics.score_bw(bw_phases(*vals))
        scaled = metrics.score_bw(bw_phases(*(c * vals)))
        assert scaled == pytest.approx(c * base, rel=1e-12)
        mvals = rng.lognormal(0, 2, size=5)
        mbase = metrics.score_md(md_phases(*mvals))
        mscaled = metrics.score_md(md_phases(*(c * mvals)))
        assert mscaled == pytest.approx(c * mbase, rel=1e-12)
        bw, md = rng.lognormal(0, 2, size=2)
        assert metrics.score_overall(c * bw, c * md) == pytest.approx(
            c * metrics.score_overall(bw, md), rel=1e-12
        )


def test_score_permutation_invariance_exact():
    rng = np.random.default_rng(102)
    for _ in range(200):
        vals = rng.lognormal(0, 2, size=4)
        base = metrics.score_bw(bw_phases(*vals))
        perm = rng.permutation(vals)
        assert metrics.score_bw(bw_phases(*perm)) == base  # fsum makes this exact


def test_score_monotonicity():
    rng = np.random.default_rng(103)
    for _ in range(200):
        vals = rng.lognormal(0, 1, size=4) + 0.01
        idx = int(rng.integers(0, 4))
        bumped = vals.copy()
        bumped[idx] *= 1.0 + float(rng.uniform(0.01, 1.0))
        assert metrics.score_bw(bw_phases(*bumped)) > metrics.score_bw(bw_phases(*vals))


def test_zero_annihilation_property():
    rng = np.random.default_rng(104)
    for _ in range(200):
        vals = rng.lognormal(0, 2, size=5)
        vals[int(rng.integers(0, 5))] = 0.0
        assert metrics.score_md(md_phases(*vals)) == 0.0


# --- normalization -------------------------------------------------------------------


def _meta(nodes=10, ppn=None, total=None):
    return normalize_metadata(
        {
            "submission_id": "m",
            "client_nodes": nodes,
            "procs_per_node": ppn,
            "total_procs": total,
        }
    )


def test_per_node_with_composite_caveat():
    assert metrics.per_node(36850, _meta(nodes=10)) == 3685.0


def test_per_node_identity_no_caveat():
    assert metrics.per_node(113.0, _meta(nodes=1)) == 113.0


def test_per_node_missing_nodes_error():
    meta = _meta(nodes=1)
    meta.client_nodes = 0  # bypass normalization fallback
    with pytest.raises(NormalizationError):
        metrics.per_node(220.0, meta)


def test_per_process():
    assert metrics.per_process(1000.0, _meta(nodes=10, ppn=16)) == 6.25
    assert metrics.per_process(42.0, _meta(nodes=1, total=1)) == 42.0
    with pytest.raises(NormalizationError):
        metrics.per_process(1.0, _meta(nodes=10))


# --- summary statistics -----------------------------------------------------------------


def test_summary_stats_constant_vector():
    s = metrics.summary_stats([1, 1, 1])
    assert (s.min, s.median, s.mean, s.max) == (1, 1, 1, 1)
    assert s.cv == 0.0


def test_summary_stats_worked_example():
    s = metrics.summary_stats([2, 4, 4, 4, 5, 5, 7, 9])
    assert s.mean == 5.0
    assert s.median == 4.5
    expected_cv = math.sqrt(32 / 7) / 5.0  # sample sd over mean
    assert s.cv == pytest.approx(expected_cv, rel=1e-12)
    assert s.cv == pytest.approx(0.4276, abs=1e-4)


def test_summary_stats_right_skew_mean_exceeds_median():
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=5.0, sigma=1.8, size=61)
    s = metrics.summary_stats(values.tolist())
    assert s.mean > s.median
    assert s.cv is not None and s.cv > 1.0


def test_summary_stats_cv_undefined_cases():
    assert metrics.summary_stats([5.0]).cv is None  # n < 2
    assert metrics.summary_stats([-1.0, 1.0]).cv is None  # mean == 0
    with pytest.raises(EmptyInputError):
        metrics.summary_stats([])


def test_cv_scale_invariance():
    rng = np.random.default_rng(105)
    for _ in range(200):
        values = rng.lognormal(0, 1, size=int(rng.integers(2, 40)))
        c = float(rng.lognormal(0, 2))
        base = metrics.summary_stats(values.tolist()).cv
        scaled = metrics.summary_stats((c * values).tolist()).cv
        assert scaled == pytest.approx(base, rel=1e-12)


def test_summary_stats_order_invariants():
    rng = np.random.default_rng(106)
    for _ in range(200):
        values = rng.normal(10, 4, size=int(rng.integers(1, 30)))
        s = metrics.summary_stats(values.tolist())
        assert s.min <= s.median <= s.max
        assert s.min <= s.mean <= s.max


# --- recomputation checks ------------------------------------------------------------------


def _full_submission(scale=1.0, **overrides):
    values = {
        Phase.IOR_EASY_WRITE: 113.0,
        Phase.IOR_EASY_READ: 104.0,
        Phase.IOR_HARD_WRITE: 2.3,
        Phase.IOR_HARD_READ: 2.9,
        Phase.MDTEST_EASY_WRITE: 25.7,
        Phase.MDTEST_EASY_STAT: 238.4,
        Phase.MDTEST_EASY_DELETE: 30.5,
        Phase.MDTEST_HARD_WRITE: 4.1,
        Phase.MDTEST_HARD_STAT: 70.1,
        Phase.MDTEST_HARD_READ: 14.6,
        Phase.MDTEST_HARD_DELETE: 4.7,
        Phase.FIND: 1934.8,
    }
    phases = {
        p: PhaseResult(phase=p, value=v * scale, unit=p.unit) for p, v in values.items()
    }
    sub = Submission(meta=_meta(nodes=10, ppn=16), phases=phases)
    scores = metrics.recompute_scores(sub)
    sub.reported_score_bw = overrides.get("bw", round(scores.score_bw, 2))
    sub.reported_score_md = overrides.get("md", round(scores.score_md, 2))
    sub.reported_score_overall = overrides.get("overall", round(scores.score_overall, 2))
    return sub


def test_recompute_scores_consistency():
    sub = _full_submission()
    scores = metrics.recompute_scores(sub)
    assert scores.score_overall**2 == pytest.approx(
        scores.score_bw * scores.score_md, rel=1e-9
    )


def test_recomputation_within_rounding_passes():
    assert metrics.recomputation_findings(_full_submission()) == []


def test_recomputation_mismatch_is_a_finding_not_a_crash():
    sub = _full_submission(overall=999999.0)
    findings = metrics.recomputation_findings(sub)
    assert len(findings) == 1
    assert "score_overall" in findings[0]


def test_metric_table_shapes_and_normalization():
    subs = [_full_submission(), _full_submission(scale=2.0)]
    names, raw = metrics.metric_table(subs, "raw")
    assert raw.shape == (2, len(names))
    _, per_node_table = metrics.metric_table(subs, "per-node")
    j = names.index("ior-easy-write")
    assert per_node_table[0, j] == pytest.approx(raw[0, j] / 10.0)
    _, per_proc = metrics.metric_table(subs, "per-process")
    assert per_proc[0, j] == pytest.approx(raw[0, j] / 160.0)


def test_metric_table_missing_procs_blanks_cells_only():
    sub = _full_submission()
    sub.meta.procs_per_node = None
    sub.meta.total_procs = None
    names, table = metrics.metric_table([sub], "per-process")
    assert not np.any(np.isfinite(table[0, :]))
    names, per_node_table = metrics.metric_table([sub], "per-node")
    assert np.all(np.isfinite(per_node_table[0, :]))
