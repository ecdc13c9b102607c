"""Rank-based and classical statistical kernels.

Correlations use average ranks for ties and the t approximation for
p-values; group comparisons use the tie-corrected Kruskal-Wallis H with a
chi-square approximation. Multiple testing over a correlation matrix is
controlled with the Benjamini-Hochberg step-up procedure applied jointly to
the upper-triangle p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SampleSizeError

# Submissions from the same site are not independent observations, so the
# chi-square/t p-values are approximate. Surfaced verbatim in renderings.
INDEPENDENCE_CAVEAT = (
    "p-values are approximate: submissions from the same site violate the "
    "independence assumption"
)


def _tie_ranks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks 1..n of a finite 1-d array, and the size of each tie group.

    A group of c equal values ending at sorted position e (1-based) holds
    positions e-c+1..e, whose mean is e - (c - 1) / 2: exact in float64.
    """
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def rank_with_ties(values: Sequence[float]) -> np.ndarray:
    """Fractional ranks 1..n, ties getting the average of their positions."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("rank_with_ties needs a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("rank_with_ties requires finite values")
    return _tie_ranks(arr)[0]


def _validate_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.ndim != 1 or ay.ndim != 1 or ax.size != ay.size:
        raise ValueError("x and y must be equal-length 1-d sequences")
    if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
        raise ValueError("correlation inputs must be finite")
    if ax.size < 3:
        raise SampleSizeError(f"need n >= 3 observations, got {ax.size}")
    return ax, ay


def _lentz(b0: float, term) -> float:
    """b0 + a1/(b1 + a2/(b2 + ...)) with (a_j, b_j) = term(j), by Lentz's method."""
    h = c = b0 or 1e-300
    d = 0.0
    for j in range(1, 10_000):
        a, b = term(j)
        d = 1.0 / ((b + a * d) or 1e-300)
        c = (b + a / c) or 1e-300
        h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:  # a factor within an ulp of 1 no longer moves h
            break
    return h


def _lbeta(a: float, b: float) -> float:
    """log B(a, b). With a large argument s and a small one q, lgamma(s) and
    lgamma(s + q) would cancel to a few digits, so their difference comes
    from Stirling's series instead."""
    q, s = sorted((a, b))
    if s < 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def corr(z: float) -> float:
        return (1 / 12 - 1 / (360 * z * z)) / z

    return math.lgamma(q) - (s - 0.5) * math.log1p(q / s) - q * math.log(s + q) + q + corr(s) - corr(s + q)


def betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), by its continued fraction
    (DLMF 8.17.22). y = 1 - x is passed in, not derived: where one of the
    two is tiny, the caller knows it to full precision and 1 - x does not."""
    if x > (a + 1.0) / (a + b + 2.0):  # where the fraction converges slowly
        return 1.0 - betainc(b, a, y, x)
    if x <= 0.0:
        return 0.0

    def term(j: int) -> tuple[float, float]:
        m = j // 2
        return (m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)) * x / ((a + j - 1) * (a + j)), 1.0

    lx, ly = (math.log(x), math.log1p(-x)) if x < y else (math.log1p(-y), math.log(y))
    return math.exp(a * lx + b * ly - _lbeta(a, b)) / a / _lentz(1.0, term)


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x): 1 - P from P's series
    below x = a + 1, the continued fraction (DLMF 8.9) above."""
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - front * total
    return front / _lentz(x + 1.0 - a, lambda j: (-j * (j - a), x + 2 * j + 1 - a))


def _t_pvalue(r: float, n: int) -> float:
    """Two-sided p of t = |r| sqrt(df / (1 - r^2)) on df = n - 2: I_x(df/2, 1/2)
    with x = df / (df + t^2), which is 1 - r^2, and 1 - x = r^2."""
    denom = 1.0 - r * r
    if denom <= 0.0:
        return 0.0
    return betainc((n - 2) / 2, 0.5, denom, r * r)


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Product-moment correlation with a two-sided t-test p-value (df n-2)."""
    ax, ay = _validate_pair(x, y)
    xc = ax - ax.mean()
    yc = ay - ay.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance input")
    # Identical or mirrored centered vectors are exactly +-1; bypassing the
    # sqrt keeps perfect (anti)correlations free of rounding noise.
    if np.array_equal(xc, yc):
        r = 1.0
    elif np.array_equal(xc, -yc):
        r = -1.0
    else:
        r = float(np.sum(xc * yc) / (sx * sy))
        r = max(-1.0, min(1.0, r))
    return r, _t_pvalue(r, ax.size)


def spearman(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Rank correlation: Pearson on average-tied ranks, same t-test p-value."""
    ax, ay = _validate_pair(x, y)
    return pearson(rank_with_ties(ax), rank_with_ties(ay))


def bh_fdr(p_values: Sequence[float], alpha: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Benjamini-Hochberg step-up adjustment.

    Returns (adjusted p-values, reject mask) in the input order; adjusted
    p_(i) = min over j >= i of m * p_(j) / j, capped at 1.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p_values must be 1-d")
    if p.size == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted_sorted = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum.accumulate(adjusted_sorted[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    adjusted = np.empty(m, dtype=float)
    adjusted[order] = adjusted_sorted
    return adjusted, adjusted <= alpha


@dataclass
class GroupTestResult:
    h: float
    p: float
    eta_sq: float
    group_sizes: list[int]
    n: int
    approximate: bool = False  # total n below the chi-square guideline


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> GroupTestResult:
    """Tie-corrected Kruskal-Wallis H with chi-square p and eta-squared.

    All-identical data degenerates to H = 0, p = 1 rather than erroring.
    """
    if len(groups) < 2:
        raise SampleSizeError("kruskal_wallis needs at least two groups")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    for idx, arr in enumerate(arrays):
        if arr.size == 0:
            raise SampleSizeError(f"group {idx} is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"group {idx} contains non-finite values")
    pooled = np.concatenate(arrays)
    n = pooled.size
    ranks, counts = _tie_ranks(pooled)
    h0 = 0.0
    offset = 0
    for arr in arrays:
        r_sum = float(np.sum(ranks[offset : offset + arr.size]))
        h0 += r_sum * r_sum / arr.size
        offset += arr.size
    h0 = 12.0 / (n * (n + 1)) * h0 - 3.0 * (n + 1)

    # Tie correction: divide by 1 - sum(t^3 - t) / (n^3 - n).
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    correction = 1.0 - tie_term / (n**3 - n)
    if correction <= 0.0:
        h = 0.0
        p = 1.0
    else:
        h = h0 / correction
        h = max(h, 0.0)
        p = gammaincc((len(arrays) - 1) / 2, h / 2)
    return GroupTestResult(
        h=h,
        p=p,
        eta_sq=h / (n - 1),
        group_sizes=[int(a.size) for a in arrays],
        n=int(n),
        approximate=n < 5,
    )


@dataclass
class CorrelationReport:
    variables: list[str]
    method: str
    coeff: np.ndarray
    p_raw: np.ndarray
    p_adjusted: np.ndarray
    significant: np.ndarray
    alpha: float
    n_per_pair: np.ndarray
    warnings: list[str] = field(default_factory=list)


def correlation_matrix(
    names: Sequence[str],
    table: np.ndarray,
    method: str = "spearman",
    alpha: float = 0.05,
) -> CorrelationReport:
    """Pairwise-complete correlation matrix with joint FDR over the upper triangle.

    Each pair uses the rows where both columns are present (NaN marks
    missing). Columns with fewer than 3 complete pairs against every other
    column are dropped with a warning; individually degenerate pairs become
    NaN cells excluded from the FDR family.
    """
    if method not in ("spearman", "pearson"):
        raise ValueError(f"unknown method {method!r}")
    data = np.asarray(table, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ValueError("table must be (n_rows, len(names))")
    if len(names) < 2:
        raise SampleSizeError("correlation matrix needs at least two columns")

    warnings: list[str] = []
    present = np.isfinite(data)
    complete = present.astype(int).T @ present.astype(int)  # pairwise complete counts
    # A column stays when some other column shares at least 3 complete rows with it.
    kept = np.where(np.eye(len(names), dtype=bool), 0, complete).max(axis=1) >= 3
    for j in np.flatnonzero(~kept):
        warnings.append(f"column {names[j]!r} dropped: fewer than 3 complete pairs")
    keep = np.flatnonzero(kept)
    if keep.size < 2:
        raise SampleSizeError("fewer than two usable columns after dropping")
    kept_names = [names[j] for j in keep]
    data = data[:, keep]
    present = present[:, keep]
    n_per_pair = complete[np.ix_(keep, keep)]

    k = len(kept_names)
    corr_fn = spearman if method == "spearman" else pearson
    coeff = np.eye(k)
    p_raw = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            n_ij = n_per_pair[i, j]
            reason = None if n_ij >= 3 else f"only {n_ij} complete pairs"
            if reason is None:
                both = present[:, i] & present[:, j]
                try:
                    r, p = corr_fn(data[both, i], data[both, j])
                except DegenerateInputError:
                    reason = "zero variance"
            if reason is not None:
                r = p = np.nan
                warnings.append(
                    f"pair ({kept_names[i]!r}, {kept_names[j]!r}): {reason}, cell left empty"
                )
            coeff[i, j] = coeff[j, i] = r
            p_raw[i, j] = p_raw[j, i] = p

    iu, ju = np.triu_indices(k, 1)
    family = p_raw[iu, ju]
    usable = np.isfinite(family)
    p_adjusted = np.zeros((k, k))
    significant = np.zeros((k, k), dtype=bool)
    p_adjusted[np.isnan(p_raw)] = np.nan
    if np.any(usable):
        adjusted, reject = bh_fdr(family[usable], alpha=alpha)
        adj_vec = np.full(family.shape, np.nan)
        rej_vec = np.zeros(family.shape, dtype=bool)
        adj_vec[usable] = adjusted
        rej_vec[usable] = reject
        p_adjusted[iu, ju] = adj_vec
        p_adjusted[ju, iu] = adj_vec
        significant[iu, ju] = rej_vec
        significant[ju, iu] = rej_vec
    return CorrelationReport(
        variables=list(kept_names),
        method=method,
        coeff=coeff,
        p_raw=p_raw,
        p_adjusted=p_adjusted,
        significant=significant,
        alpha=alpha,
        n_per_pair=n_per_pair,
        warnings=warnings,
    )
