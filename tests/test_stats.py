import numpy as np
import pytest

from io500kit import stats
from io500kit.errors import DegenerateInputError, SampleSizeError
from oracles import bh_oracle, kruskal_oracle, rank_oracle, spearman_oracle


# --- ranking ---------------------------------------------------------------


def test_rank_simple_cases():
    assert stats.rank_with_ties([10, 20, 30]).tolist() == [1, 2, 3]
    assert stats.rank_with_ties([5, 6, 7, 7, 8]).tolist() == [1, 2, 3.5, 3.5, 5]
    assert stats.rank_with_ties([4, 4, 4]).tolist() == [2, 2, 2]


def test_rank_sum_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        values = rng.integers(0, 8, size=n).astype(float)
        ranks = stats.rank_with_ties(values)
        assert float(np.sum(ranks)) == n * (n + 1) / 2


def test_rank_rejects_non_finite():
    with pytest.raises(ValueError):
        stats.rank_with_ties([1.0, float("nan")])
    with pytest.raises(ValueError):
        stats.rank_with_ties([1.0, float("inf")])


def test_rank_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(300):
        values = rng.integers(-4, 5, size=int(rng.integers(1, 9))).astype(float)
        assert stats.rank_with_ties(values).tolist() == rank_oracle(values.tolist())


# --- pearson / spearman -----------------------------------------------------------


def test_pearson_perfect_lines():
    r, p = stats.pearson([1, 2, 3, 4], [1, 2, 3, 4])
    assert r == 1.0 and p == 0.0
    r, p = stats.pearson([1, 2, 3, 4], [-1, -2, -3, -4])
    assert r == -1.0 and p == 0.0


def test_pearson_worked_example():
    r, _ = stats.pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert r == pytest.approx(0.8, rel=1e-12)


def test_pearson_errors():
    with pytest.raises(SampleSizeError):
        stats.pearson([1, 2], [3, 4])
    with pytest.raises(DegenerateInputError):
        stats.pearson([1, 1, 1], [1, 2, 3])


def test_spearman_monotone_is_one():
    x = [0.5, 1.0, 2.0, 4.0, 9.0]
    y = [v**3 + 1 for v in x]
    r, p = stats.spearman(x, y)
    assert r == 1.0
    r, _ = stats.spearman(x, [-v for v in x])
    assert r == -1.0


def test_spearman_worked_example():
    r, _ = stats.spearman([1, 2, 3, 4, 5], [5, 6, 7, 8, 7])
    # rank-then-Pearson by hand: y-ranks [1,2,3.5,5,3.5], cov 8, vars 10 and 9.5
    assert r == pytest.approx(8.0 / np.sqrt(10.0 * 9.5), rel=1e-12)
    assert r == pytest.approx(0.8208, abs=1e-4)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(13)
    transforms = (np.exp, lambda v: v**3, lambda v: 2.5 * v + 7.0)
    count = 0
    while count < 200:
        n = int(rng.integers(3, 20))
        x = rng.integers(0, 10, size=n).astype(float)
        y = rng.integers(0, 10, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        count += 1
        g = transforms[count % 3]
        h = transforms[(count + 1) % 3]
        base = stats.spearman(x, y)
        assert stats.spearman(g(x), h(y)) == base  # identical ranks, bit-exact


def test_pearson_affine_invariance():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(3, 25))
        x = rng.normal(0, 3, size=n)
        y = x * 0.5 + rng.normal(0, 1, size=n)
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        a, b = float(rng.uniform(0.1, 5)), float(rng.normal(0, 10))
        r0, _ = stats.pearson(x, y)
        r1, _ = stats.pearson(a * x + b, y)
        assert r1 == pytest.approx(r0, abs=1e-12)


# --- BH FDR ------------------------------------------------------------------------


def test_bh_worked_example():
    adjusted, reject = stats.bh_fdr([0.01, 0.02, 0.03, 0.04], alpha=0.05)
    assert np.allclose(adjusted, [0.04, 0.04, 0.04, 0.04])
    assert reject.all()


def test_bh_all_ones_and_single():
    adjusted, reject = stats.bh_fdr([1.0, 1.0, 1.0])
    assert np.all(adjusted == 1.0) and not reject.any()
    adjusted, reject = stats.bh_fdr([0.04], alpha=0.05)
    assert adjusted[0] == pytest.approx(0.04) and reject[0]


def test_bh_rejects_out_of_range():
    with pytest.raises(ValueError):
        stats.bh_fdr([0.5, 1.5])
    with pytest.raises(ValueError):
        stats.bh_fdr([-0.1])


def test_bh_alpha_monotonicity():
    rng = np.random.default_rng(15)
    for _ in range(200):
        p = rng.random(size=int(rng.integers(1, 25)))
        a1, a2 = sorted(rng.random(2))
        _, reject1 = stats.bh_fdr(p, alpha=a1)
        _, reject2 = stats.bh_fdr(p, alpha=a2)
        assert np.all(reject2[reject1])  # rejects(a1) subset of rejects(a2)


def test_bh_adjusted_at_least_raw():
    rng = np.random.default_rng(16)
    for _ in range(200):
        p = rng.random(size=int(rng.integers(1, 30)))
        adjusted, _ = stats.bh_fdr(p)
        assert np.all(adjusted >= p - 1e-15)
        assert np.all(adjusted <= 1.0)


# --- Kruskal-Wallis ------------------------------------------------------------------


def test_kw_worked_example():
    result = stats.kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    assert result.h == pytest.approx(3.857142857142857, rel=1e-9)
    assert result.eta_sq == pytest.approx(result.h / 5, rel=1e-12)
    assert result.eta_sq == pytest.approx(0.771, abs=1e-3)
    assert result.group_sizes == [3, 3] and result.n == 6
    assert not result.approximate


def test_kw_identical_groups():
    result = stats.kruskal_wallis([[1, 2, 3], [1, 2, 3]])
    assert result.h == pytest.approx(0.0, abs=1e-12)


def test_kw_degenerate_all_equal():
    result = stats.kruskal_wallis([[5, 5], [5, 5, 5]])
    assert result.h == 0.0 and result.p == 1.0


def test_kw_errors_and_small_sample_flag():
    with pytest.raises(SampleSizeError):
        stats.kruskal_wallis([[1, 2, 3]])
    with pytest.raises(SampleSizeError):
        stats.kruskal_wallis([[1, 2], []])
    assert stats.kruskal_wallis([[1, 2], [3]]).approximate


def test_kw_joint_monotone_invariance():
    rng = np.random.default_rng(17)
    for _ in range(200):
        sizes = rng.integers(2, 8, size=int(rng.integers(2, 5)))
        groups = [rng.integers(0, 12, size=s).astype(float).tolist() for s in sizes]
        base = stats.kruskal_wallis(groups)
        transformed = [[float(np.exp(v / 4.0)) for v in g] for g in groups]
        after = stats.kruskal_wallis(transformed)
        assert after.h == base.h  # identical joint ranks


# --- oracle equivalence (small instances, ties included) --------------------------------


def test_spearman_matches_bruteforce_oracle():
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 9))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        r, _ = stats.spearman(x, y)
        assert r == pytest.approx(spearman_oracle(x.tolist(), y.tolist()), abs=1e-10)
        checked += 1


def test_kruskal_matches_bruteforce_oracle():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 1000:
        k = int(rng.integers(2, 4))
        sizes = rng.integers(1, 5, size=k)
        if sizes.sum() < 3:
            continue
        groups = [rng.integers(0, 5, size=s).astype(float).tolist() for s in sizes]
        pooled = [v for g in groups for v in g]
        if all(v == pooled[0] for v in pooled):
            continue
        result = stats.kruskal_wallis(groups)
        assert result.h == pytest.approx(kruskal_oracle(groups), abs=1e-10)
        checked += 1


def test_bh_matches_definition_oracle():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        p = np.round(rng.random(m), 3)
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
        adjusted, reject = stats.bh_fdr(p, alpha=alpha)
        oracle_adj, oracle_rej = bh_oracle(p.tolist(), alpha)
        assert np.allclose(adjusted, oracle_adj, atol=1e-10)
        assert reject.tolist() == oracle_rej


# --- correlation matrix -------------------------------------------------------------------


def test_corr_matrix_identical_columns_significant():
    rng = np.random.default_rng(21)
    col = rng.normal(size=30)
    table = np.column_stack([col, col])
    report = stats.correlation_matrix(["a", "b"], table)
    assert report.coeff[0, 1] == 1.0
    assert report.significant[0, 1]
    assert report.p_adjusted[0, 1] >= report.p_raw[0, 1]


def test_corr_matrix_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(22)
    table = rng.normal(size=(40, 5))
    table[rng.random(size=table.shape) < 0.15] = np.nan
    names = list("abcde")
    report = stats.correlation_matrix(names, table)
    assert np.array_equal(report.coeff, report.coeff.T)
    assert np.all(np.diag(report.coeff) == 1.0)
    assert np.array_equal(report.significant, report.significant.T)
    finite = np.isfinite(report.coeff)
    assert np.all(np.abs(report.coeff[finite]) <= 1.0)
    off = ~np.eye(len(names), dtype=bool) & np.isfinite(report.p_adjusted)
    assert np.all(report.p_adjusted[off] >= report.p_raw[off] - 1e-15)
    assert not report.significant.diagonal().any()


def test_corr_matrix_pairwise_complete_counts():
    table = np.array(
        [
            [1.0, 2.0, np.nan],
            [2.0, 3.0, 1.0],
            [3.0, np.nan, 2.0],
            [4.0, 5.0, 3.0],
            [5.0, 6.0, 4.0],
        ]
    )
    report = stats.correlation_matrix(["x", "y", "z"], table)
    assert report.n_per_pair[0, 1] == 4
    assert report.n_per_pair[0, 2] == 4
    assert report.n_per_pair[1, 2] == 3


def test_corr_matrix_drops_unusable_column():
    rng = np.random.default_rng(23)
    good = rng.normal(size=(20, 2))
    sparse = np.full((20, 1), np.nan)
    sparse[0, 0] = 1.0
    sparse[1, 0] = 2.0  # only 2 complete pairs against anything
    table = np.column_stack([good, sparse])
    report = stats.correlation_matrix(["a", "b", "bad"], table)
    assert report.variables == ["a", "b"]
    assert any("bad" in w for w in report.warnings)


def test_corr_matrix_noise_rarely_significant():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        table = rng.normal(size=(50, 3))
        report = stats.correlation_matrix(list("abc"), table, alpha=0.05)
        if np.any(np.triu(report.significant, 1)):
            hits += 1
    assert hits <= 10  # no significant pairs in >= 90% of seeds


def test_corr_matrix_methods_and_errors():
    rng = np.random.default_rng(24)
    table = rng.normal(size=(30, 3))
    pear = stats.correlation_matrix(list("abc"), table, method="pearson")
    assert pear.method == "pearson"
    with pytest.raises(ValueError):
        stats.correlation_matrix(list("abc"), table, method="kendall")
    with pytest.raises(SampleSizeError):
        stats.correlation_matrix(["a"], table[:, :1])
