"""Brute-force reference implementations used to cross-check the library.

These deliberately use different algorithms from the package: ranks by
counting comparisons, Kruskal-Wallis via mean-rank deviations, BH by the
literal step-up definition, Gini by the O(n^2) pairwise-difference sum.
The timing CSV scan converts one row at a time, as the package did when its
column conversion failed; the package must return the same columns and
warnings, or raise the same error for the same line.
The Q-Q, box plot and score strip renderers draw one point at a time through
a per-value axis, and the heatmap quantizes every cell, as the package did
before its renderers worked on whole columns; the package's renderers,
their pieces joined, must produce the same SVG and sidecar bytes. The
whole-column quantizer and point formatter are the package's before it
worked a block of values at a time; its blocks must concatenate to their
output. The sidecar readers read a plot's CSV sidecar back as its renderer's
input; rendered again, it must give the same bytes. The manifest reader at the end reads
the whole text at once, as the package did before it read a line at a time;
the package's reader must return the same Submission or raise the same error.
The timing CSV writer formats one cell at a time, as synth did before it
formatted a whole table at once; synth must write the same text.
The kernel loops walk tie groups and rank runs one at a time and fill the
metric table one cell at a time, as the package did before it worked on
numpy columns and whole rows; the package must return the same bits.
The Student's t and chi-square tails at df = 1 and at even df have closed
forms; the package's incomplete beta and gamma functions must match them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from io500kit import ingest, metrics
from io500kit.errors import (
    DegenerateInputError,
    EmptyInputError,
    NormalizationError,
    ParseError,
    SampleSizeError,
    ValidationError,
)
from io500kit.loginsight import Pattern, PatternResult
from io500kit.report import (
    RenderSpec,
    _c,
    _diverging_color,
    _natural_label_key,
    _text,
    fmt_csv,
    fmt_label,
    q6,
)
from io500kit.stats import INDEPENDENCE_CAVEAT, gammaincc, kruskal_wallis, pearson, spearman
from io500kit.types import Phase


def rank_oracle(values):
    """Rank by explicit comparison counting: less-than count + half the ties."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def rank_loop_oracle(values):
    """Average ranks by walking each tie group of the stably sorted values."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(n, dtype=float)
    sorted_vals = arr[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0  # positions i..j hold ranks i+1..j+1
        i = j + 1
    return ranks


def kruskal_wallis_loop_oracle(groups):
    """(H, p) of stats.kruskal_wallis from the loop ranks, with the tie counts
    from a second np.unique, for at least two nonempty finite groups. p is the
    package's own chi-square tail of that H: the closed forms in
    test_properties pin stats.gammaincc itself."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    pooled = np.concatenate(arrays)
    n = pooled.size
    ranks = rank_loop_oracle(pooled)
    h0 = 0.0
    offset = 0
    for arr in arrays:
        r_sum = float(np.sum(ranks[offset : offset + arr.size]))
        h0 += r_sum * r_sum / arr.size
        offset += arr.size
    h0 = 12.0 / (n * (n + 1)) * h0 - 3.0 * (n + 1)
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    correction = 1.0 - tie_term / (n**3 - n)
    if correction <= 0.0:
        return 0.0, 1.0
    h = max(h0 / correction, 0.0)
    return h, gammaincc((len(arrays) - 1) / 2, h / 2)


def correlation_cells_oracle(names, table, method):
    """The kept names, warnings, pair counts, coefficients and raw p-values
    of stats.correlation_matrix, one column and one pair at a time, with a
    branch of its own for each kind of empty cell."""
    data = np.asarray(table, dtype=float)
    warnings = []
    present = np.isfinite(data)
    complete = present.astype(int).T @ present.astype(int)
    keep = []
    for j, name in enumerate(names):
        others = [complete[j, k] for k in range(len(names)) if k != j]
        if max(others) < 3:
            warnings.append(f"column {name!r} dropped: fewer than 3 complete pairs")
        else:
            keep.append(j)
    if len(keep) < 2:
        raise SampleSizeError("fewer than two usable columns after dropping")
    kept_names = [names[j] for j in keep]
    data = data[:, keep]
    present = present[:, keep]
    k = len(kept_names)
    corr_fn = spearman if method == "spearman" else pearson
    coeff = np.eye(k)
    p_raw = np.zeros((k, k))
    n_per_pair = np.zeros((k, k), dtype=int)
    for j in range(k):
        n_per_pair[j, j] = int(np.sum(present[:, j]))
    for i in range(k):
        for j in range(i + 1, k):
            both = present[:, i] & present[:, j]
            n_ij = int(np.sum(both))
            n_per_pair[i, j] = n_per_pair[j, i] = n_ij
            if n_ij < 3:
                coeff[i, j] = coeff[j, i] = np.nan
                p_raw[i, j] = p_raw[j, i] = np.nan
                warnings.append(
                    f"pair ({kept_names[i]!r}, {kept_names[j]!r}): "
                    f"only {n_ij} complete pairs, cell left empty"
                )
                continue
            try:
                r, p = corr_fn(data[both, i], data[both, j])
            except DegenerateInputError:
                coeff[i, j] = coeff[j, i] = np.nan
                p_raw[i, j] = p_raw[j, i] = np.nan
                warnings.append(
                    f"pair ({kept_names[i]!r}, {kept_names[j]!r}): zero variance, cell left empty"
                )
                continue
            coeff[i, j] = coeff[j, i] = r
            p_raw[i, j] = p_raw[j, i] = p
    return kept_names, warnings, n_per_pair, coeff, p_raw


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def spearman_oracle(x, y):
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


def kruskal_oracle(groups):
    """H from mean-rank deviations, tie correction from explicit value counts."""
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = rank_oracle(pooled)
    grand_mean = (n + 1) / 2.0
    h = 0.0
    offset = 0
    for g in groups:
        size = len(g)
        mean_rank = sum(ranks[offset : offset + size]) / size
        h += size * (mean_rank - grand_mean) ** 2
        offset += size
    h *= 12.0 / (n * (n + 1))
    counts = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_sum = sum(c**3 - c for c in counts.values())
    correction = 1.0 - tie_sum / (n**3 - n)
    if correction <= 0:
        return 0.0
    return h / correction


def bh_oracle(p_values, alpha):
    """Literal definitions: adjusted via nested mins, rejects via step-up rule."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    for pos, idx in enumerate(order, start=1):
        candidates = []
        for pos_j in range(pos, m + 1):
            candidates.append(min(1.0, m * p_values[order[pos_j - 1]] / pos_j))
        adjusted[idx] = min(candidates)
    # step-up: largest k with p_(k) <= k/m * alpha; reject the k smallest
    k_star = 0
    for k in range(1, m + 1):
        if p_values[order[k - 1]] <= k / m * alpha:
            k_star = k
    reject = [False] * m
    for pos in range(k_star):
        reject[order[pos]] = True
    return adjusted, reject


def gini_oracle(counts):
    n = len(counts)
    mean = sum(counts) / n
    total = 0.0
    for a in counts:
        for b in counts:
            total += abs(a - b)
    return total / (2.0 * n * n * mean)


# --- row-by-row timing parse ---------------------------------------------------------


def scan_timing_rows_oracle(
    body: list[str], first_line: int, width: int, col: dict[str, int], phase: Phase
):
    """Row-by-row conversion of the data lines, raising for the first bad line:
    the reference for ingest._timing_columns and ingest._raise_first_bad_line."""
    warnings: list[str] = []
    rank_col: list[int] = []
    start_col: list[float] = []
    end_col: list[float] = []
    close_col: list[float] = []
    items_col: list[int] = []
    no_items: list[bool] = []
    seen_ranks: set[int] = set()
    for line_no, line in enumerate(body, start=first_line):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) < width:
            raise ParseError(
                f"{phase}: expected {width} cells, got {len(cells)}", line=line_no
            )
        try:
            rank = int(cells[col["rank"]])
        except ValueError:
            rank = None
        if rank is None or not -ingest._INT64_BOUND <= rank < ingest._INT64_BOUND:
            raise ParseError(f"{phase}: malformed rank {cells[col['rank']]!r}", line=line_no)
        start = ingest._parse_float(cells[col["start"]], "start", line_no)
        end = ingest._parse_float(cells[col["end"]], "end", line_no)
        close = None
        if "close" in col and cells[col["close"]] != "":
            close = ingest._parse_float(cells[col["close"]], "close", line_no)
        items = None
        if "items" in col and cells[col["items"]] != "":
            # An integer spelling is read exactly; a float one must be whole.
            try:
                items = int(cells[col["items"]])
            except ValueError:
                try:
                    value = float(cells[col["items"]])
                except ValueError:
                    value = math.nan
                if abs(value) < ingest._INT64_BOUND and value.is_integer():  # also false for NaN
                    items = int(value)
            if items is None or not -ingest._INT64_BOUND <= items < ingest._INT64_BOUND:
                raise ParseError(f"{phase}: malformed items {cells[col['items']]!r}", line=line_no)
        if rank in seen_ranks:
            raise ValidationError(f"{phase}: duplicate rank {rank} on line {line_no}")
        seen_ranks.add(rank)
        if end < start:
            warnings.append(f"{phase}: rank {rank} rejected (end {end} < start {start})")
            continue
        if rank < 0:
            warnings.append(f"{phase}: rank {rank} rejected (negative rank)")
            continue
        if close is not None and close < 0:
            warnings.append(f"{phase}: rank {rank} rejected (negative close {close})")
            continue
        if items is not None and items < 0:
            warnings.append(f"{phase}: rank {rank} rejected (negative items {items})")
            continue
        rank_col.append(rank)
        start_col.append(start)
        end_col.append(end)
        close_col.append(math.nan if close is None else close)
        items_col.append(0 if items is None else items)
        no_items.append(items is None)
    columns = {
        "rank": np.array(rank_col, dtype=np.int64),
        "start_s": np.array(start_col, dtype=np.float64),
        "end_s": np.array(end_col, dtype=np.float64),
        "close_s": np.array(close_col, dtype=np.float64) if "close" in col else None,
        "items": None,
    }
    if "items" in col:
        columns["items"] = np.ma.MaskedArray(
            np.array(items_col, dtype=np.int64), mask=np.array(no_items, dtype=bool)
        )
    return columns, warnings


# --- per-point renderers ------------------------------------------------------------


def quantize_oracle(values) -> tuple[np.ndarray, list[str]]:
    """report._q6_blocks of a whole column at once: the quantized values and the `.6g` text of each."""
    text = list(map(format, np.asarray(values, dtype=float).ravel().tolist(), itertools.repeat(".6g")))
    return np.fromiter(map(float, text), dtype=float, count=len(text)), text


def points_oracle(circle: str, clamped_circle: str, clamped: np.ndarray, *columns: list, lift: float = 5.0) -> list[str]:
    """report._points of whole column lists: one SVG line per point."""
    lines = list(map(circle.__mod__, zip(*columns)))
    for i in np.flatnonzero(clamped).tolist():
        point = tuple(column[i] for column in columns)
        lines[i] = clamped_circle % point + "\n" + _text(point[0], point[1] - lift, "0", size=8, anchor="middle")
    return lines


def joined(pieces) -> tuple[str, str]:
    """The SVG and the sidecar of a plot renderer's (suffix, text) pieces."""
    texts: dict[str, list[str]] = {"svg": [], "csv": []}
    for suffix, text in pieces:
        texts[suffix].append(text)
    return "".join(texts["svg"]), "".join(texts["csv"])


def _csv_table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _svg_open(width, height):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_c(width)}" '
        f'height="{_c(height)}" viewBox="0 0 {_c(width)} {_c(height)}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]


@dataclass
class _Axis:
    """Maps one data value at a time onto a pixel interval, optionally through log10."""

    lo: float
    hi: float
    px_lo: float
    px_hi: float
    log: bool = False
    floor: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.log:
            if self.hi <= 0:
                raise ValueError("log scale needs a positive maximum")
            self.floor = self.lo  # already positive, set by caller
            self.lo = math.log10(self.lo)
            self.hi = math.log10(self.hi)
        if not math.isfinite(self.hi - self.lo):
            raise ValueError("cannot plot values whose span overflows a float")
        if self.hi == self.lo:
            # One unit, or one float step where a unit no longer changes lo (|lo| >= 2**53).
            self.hi = self.lo + max(1.0, math.ulp(self.lo))

    def __call__(self, value: float) -> tuple[float, bool]:
        """Pixel position plus a flag when the value was pinned to the floor."""
        clamped = False
        if self.log:
            if value <= 0:
                value = self.floor
                clamped = True
            value = math.log10(max(value, self.floor))
        frac = (value - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo), clamped


def _log_floor(values):
    positive = [v for v in values if v > 0]
    if not positive:
        raise ValueError("log scale needs at least one positive value")
    return max(min(positive) / 10.0, math.ulp(0.0))


def _reject_non_finite(values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError("cannot plot a NaN or infinite value")


def render_qq_oracle(qq_pairs: Sequence[tuple[float, float]], spec: RenderSpec | None = None) -> tuple[str, str]:
    """Per-point reference for report.render_qq."""
    _reject_non_finite(v for pair in qq_pairs for v in pair)
    if not qq_pairs:
        raise EmptyInputError("no quantile pairs to plot")
    for q, _ in qq_pairs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {float(q)!r} outside [0, 1]")
    spec = spec or RenderSpec()
    pairs = [(q6(q), q6(r)) for q, r in qq_pairs]
    log_y = spec.scale == "log10" and any(r > 0 for _, r in pairs)

    width, height = 460.0, 340.0
    px = _Axis(0.0, 1.0, 70.0, width - 30.0)
    ratios = [r for _, r in pairs]
    floor = _log_floor(ratios + [1.0]) if log_y else 0.0
    y_hi = max(max(ratios), 1.0)
    y_lo = floor if log_y else min(min(ratios), 1.0, 0.0)
    py = _Axis(y_lo, y_hi, height - 50.0, 40.0, log=log_y)

    parts = _svg_open(width, height)
    if spec.title:
        parts.append(_text(width / 2.0, 20.0, spec.title, size=13, anchor="middle"))
    parts.append(
        f'<rect x="{_c(70.0)}" y="{_c(40.0)}" width="{_c(width - 100.0)}" '
        f'height="{_c(height - 90.0)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    ref_y, _ = py(1.0)
    parts.append(
        f'<line x1="{_c(70.0)}" y1="{_c(ref_y)}" x2="{_c(width - 30.0)}" y2="{_c(ref_y)}" '
        f'stroke="#bb4444" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    clamped_flags = []
    for q, r in pairs:
        x, _ = px(q)
        y, clamped = py(r)
        clamped_flags.append(clamped)
        fill = "#d09040" if clamped else "#33668c"
        parts.append(f'<circle cx="{_c(x)}" cy="{_c(y)}" r="2.2" fill="{fill}"/>')
        if clamped:
            parts.append(_text(x, y - 5.0, "0", size=8, anchor="middle"))
    parts.append(_text(width / 2.0, height - 16.0, "empirical quantile", size=11, anchor="middle"))
    parts.append(
        _text(
            16.0,
            height / 2.0,
            spec.y_label or "runtime / stonewall",
            size=11,
            anchor="middle",
            extra=f' transform="rotate(-90 16.00 {_c(height / 2.0)})"',
        )
    )
    parts.append(_text(66.0, height - 44.0, fmt_label(y_lo if not log_y else floor), size=9, anchor="end"))
    parts.append(_text(66.0, 46.0, fmt_label(y_hi), size=9, anchor="end"))
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"

    sidecar = _csv_table(
        ["quantile", "ratio", "clamped"],
        [
            [fmt_csv(q), fmt_csv(r), "true" if flag else "false"]
            for (q, r), flag in zip(pairs, clamped_flags)
        ],
    )
    return svg, sidecar


def render_group_box_oracle(
    groups: Sequence[tuple[str, Sequence[float]]],
    spec: RenderSpec | None = None,
    annotate: bool = True,
) -> tuple[str, str]:
    """Per-point reference for report.render_group_box."""
    _reject_non_finite(v for _, values in groups for v in values)
    if not groups:
        raise EmptyInputError("no groups to plot")
    spec = spec or RenderSpec()
    ordered = sorted(
        ((label, [q6(v) for v in values]) for label, values in groups),
        key=lambda kv: _natural_label_key(kv[0]),
    )
    for label, values in ordered:
        if not values:
            raise EmptyInputError(f"group {label!r} is empty")

    all_values = [v for _, values in ordered for v in values]
    log_y = spec.scale == "log10" and any(v > 0 for v in all_values)
    floor = _log_floor(all_values) if log_y else 0.0
    positives = [v for v in all_values if v > 0] or [1.0]
    y_lo = floor if log_y else min(all_values)
    y_hi = max(positives) if log_y else max(all_values)

    n_groups = len(ordered)
    box_w = 46.0
    width = 90.0 + n_groups * (box_w + 34.0) + 30.0
    height = 360.0
    py = _Axis(y_lo, y_hi, height - 70.0, 56.0, log=log_y)

    parts = _svg_open(width, height)
    if spec.title:
        parts.append(_text(width / 2.0, 20.0, spec.title, size=13, anchor="middle"))
    annotation = ""
    if annotate and n_groups >= 2:
        test = kruskal_wallis([values for _, values in ordered])
        annotation = (
            f"H={fmt_label(q6(test.h))}, p={fmt_label(q6(test.p))}, "
            f"η²={fmt_label(q6(test.eta_sq))}; {INDEPENDENCE_CAVEAT}"
        )
        parts.append(_text(width / 2.0, 38.0, annotation, size=9, anchor="middle"))
    for g, (label, values) in enumerate(ordered):
        arr = np.asarray(values, dtype=float)
        q1, med, q3 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0]))
        iqr = q3 - q1
        in_lo = arr[arr >= q1 - 1.5 * iqr]
        in_hi = arr[arr <= q3 + 1.5 * iqr]
        whisk_lo = float(np.min(in_lo)) if in_lo.size else q1
        whisk_hi = float(np.max(in_hi)) if in_hi.size else q3
        outliers = arr[(arr < q1 - 1.5 * iqr) | (arr > q3 + 1.5 * iqr)]

        cx = 90.0 + g * (box_w + 34.0) + box_w / 2.0
        x0 = cx - box_w / 2.0
        yq1, _ = py(q1)
        yq3, _ = py(q3)
        ymed, _ = py(med)
        ylo, _ = py(whisk_lo)
        yhi, _ = py(whisk_hi)
        parts.append(
            f'<line x1="{_c(cx)}" y1="{_c(ylo)}" x2="{_c(cx)}" y2="{_c(yhi)}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<rect x="{_c(x0)}" y="{_c(yq3)}" width="{_c(box_w)}" height="{_c(yq1 - yq3)}" '
            f'fill="#9ecae9" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_c(x0)}" y1="{_c(ymed)}" x2="{_c(x0 + box_w)}" y2="{_c(ymed)}" '
            f'stroke="#13304a" stroke-width="1.6"/>'
        )
        for w_y in (ylo, yhi):
            parts.append(
                f'<line x1="{_c(cx - box_w / 4.0)}" y1="{_c(w_y)}" '
                f'x2="{_c(cx + box_w / 4.0)}" y2="{_c(w_y)}" stroke="#333333" stroke-width="1"/>'
            )
        for v in sorted(outliers.tolist()):
            y, clamped = py(float(v))
            parts.append(
                f'<circle cx="{_c(cx)}" cy="{_c(y)}" r="2.0" fill="none" '
                f'stroke="#b2502d" stroke-width="1"/>'
            )
            if clamped:
                parts.append(_text(cx, y - 5.0, "0", size=8, anchor="middle"))
        note = f" (n={arr.size})"
        parts.append(_text(cx, height - 36.0, label + note, size=10, anchor="middle"))
    parts.append(
        _text(
            16.0,
            height / 2.0,
            spec.y_label + (" (log10)" if log_y else ""),
            size=11,
            anchor="middle",
            extra=f' transform="rotate(-90 16.00 {_c(height / 2.0)})"',
        )
    )
    parts.append(_text(84.0, height - 66.0, fmt_label(y_lo if not log_y else floor), size=9, anchor="end"))
    parts.append(_text(84.0, 60.0, fmt_label(y_hi), size=9, anchor="end"))
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"

    sidecar = _csv_table(
        ["label", "value"],
        [[label, fmt_csv(v)] for label, values in ordered for v in values],
    )
    return svg, sidecar


def render_score_strip_oracle(
    rows: Sequence[tuple[str, float]], spec: RenderSpec | None = None
) -> tuple[str, str]:
    """Per-point reference for report.render_score_strip."""
    if not rows:
        raise EmptyInputError("no values to plot")
    _reject_non_finite(v for _, v in rows)
    spec = spec or RenderSpec(scale="log10")
    data = sorted(((label, q6(v)) for label, v in rows), key=lambda kv: (kv[1], kv[0]))
    values = [v for _, v in data]
    log_y = spec.scale == "log10" and any(v > 0 for v in values)
    floor = _log_floor(values) if log_y else 0.0
    positives = [v for v in values if v > 0] or [1.0]
    y_lo = floor if log_y else min(values)
    y_hi = max(positives) if log_y else max(values)

    labels = sorted({label for label, _ in data})
    palette = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#7f7f7f")
    color = {label: palette[i % len(palette)] for i, label in enumerate(labels)}

    width = max(420.0, 90.0 + len(data) * 9.0 + 150.0)
    height = 320.0
    px = _Axis(0.0, float(max(len(data) - 1, 1)), 80.0, width - 170.0)
    py = _Axis(y_lo, y_hi, height - 60.0, 46.0, log=log_y)

    parts = _svg_open(width, height)
    if spec.title:
        parts.append(_text(width / 2.0, 20.0, spec.title, size=13, anchor="middle"))
    parts.append(
        f'<rect x="80.00" y="46.00" width="{_c(width - 250.0)}" height="{_c(height - 106.0)}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    clamped_flags = []
    for i, (label, value) in enumerate(data):
        x, _ = px(float(i))
        y, clamped = py(value)
        clamped_flags.append(clamped)
        parts.append(f'<circle cx="{_c(x)}" cy="{_c(y)}" r="3.0" fill="{color[label]}"/>')
        if clamped:
            parts.append(_text(x, y - 6.0, "0", size=8, anchor="middle"))
    for i, label in enumerate(labels):
        ly = 56.0 + i * 16.0
        parts.append(f'<circle cx="{_c(width - 150.0)}" cy="{_c(ly - 4.0)}" r="4.0" fill="{color[label]}"/>')
        parts.append(_text(width - 140.0, ly, label, size=10))
    parts.append(_text(width / 2.0 - 60.0, height - 18.0, "submissions (sorted)", size=11, anchor="middle"))
    parts.append(
        _text(
            16.0,
            height / 2.0,
            (spec.y_label or "value") + (" (log10)" if log_y else ""),
            size=11,
            anchor="middle",
            extra=f' transform="rotate(-90 16.00 {_c(height / 2.0)})"',
        )
    )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"

    sidecar = _csv_table(
        ["label", "value", "clamped"],
        [
            [label, fmt_csv(v), "true" if flag else "false"]
            for (label, v), flag in zip(data, clamped_flags)
        ],
    )
    return svg, sidecar


# --- sidecar readers ----------------------------------------------------------------
# A plot's CSV sidecar read back as its renderer's input, so that a test can
# re-render from it and compare the bytes.


def _sidecar_rows(sidecar: str):
    """The rows of a CSV sidecar after its header."""
    reader = csv.reader(io.StringIO(sidecar))
    next(reader)
    return reader


@dataclass
class HeatmapData:
    variables: list[str]
    coeff: np.ndarray
    p_raw: np.ndarray
    p_adjusted: np.ndarray
    significant: np.ndarray


def heatmap_from_sidecar(sidecar: str) -> HeatmapData:
    """Rebuild heatmap input from its CSV sidecar (diagonal is implied)."""
    entries = list(_sidecar_rows(sidecar))
    variables = list(dict.fromkeys(name for row in entries for name in row[:2]))
    k = len(variables)
    idx = {name: i for i, name in enumerate(variables)}
    coeff = np.eye(k)
    p_raw = np.zeros((k, k))
    p_adj = np.zeros((k, k))
    significant = np.zeros((k, k), dtype=bool)
    for a, b, c, pr, pa, sig in entries:
        i, j = idx[a], idx[b]
        # An empty cell is a NaN.
        coeff[i, j] = coeff[j, i] = float(c or "nan")
        p_raw[i, j] = p_raw[j, i] = float(pr or "nan")
        p_adj[i, j] = p_adj[j, i] = float(pa or "nan")
        significant[i, j] = significant[j, i] = sig == "true"
    return HeatmapData(variables, coeff, p_raw, p_adj, significant)


def qq_from_sidecar(sidecar: str) -> list[tuple[float, float]]:
    return [(float(q), float(r)) for q, r, _ in _sidecar_rows(sidecar)]


def groups_from_sidecar(sidecar: str) -> list[tuple[str, list[float]]]:
    grouped: dict[str, list[float]] = {}
    for label, value in _sidecar_rows(sidecar):
        grouped.setdefault(label, []).append(float(value))
    return list(grouped.items())


def strip_from_sidecar(sidecar: str) -> list[tuple[str, float]]:
    return [(label, float(value)) for label, value, _ in _sidecar_rows(sidecar)]


def _as_heatmap_data(report) -> HeatmapData:
    return HeatmapData(
        variables=list(report.variables),
        coeff=np.asarray(report.coeff, dtype=float),
        p_raw=np.asarray(report.p_raw, dtype=float),
        p_adjusted=np.asarray(report.p_adjusted, dtype=float),
        significant=np.asarray(report.significant, dtype=bool),
    )


def render_corr_heatmap_oracle(report, spec: RenderSpec | None = None) -> tuple[str, str]:
    """Per-cell reference for report.render_corr_heatmap: every coefficient
    and p-value quantized, the CSV cells formatted from the quantized values."""
    data = _as_heatmap_data(report)
    spec = spec or RenderSpec()
    k = len(data.variables)
    with np.errstate(invalid="ignore"):  # a NaN cell sets the invalid flag in np.vectorize's float cast
        coeff = np.vectorize(q6)(data.coeff) if k else data.coeff
        p_raw = np.vectorize(q6)(data.p_raw) if k else data.p_raw
        p_adj = np.vectorize(q6)(data.p_adjusted) if k else data.p_adjusted

    cell = 34.0
    left, top = 150.0, 60.0 + (110.0 if k else 0.0)
    width = left + k * cell + 30.0
    height = top + k * cell + 30.0
    parts = _svg_open(width, height)
    if spec.title:
        parts.append(_text(width / 2.0, 24.0, spec.title, size=14, anchor="middle"))
    for idx, name in enumerate(data.variables):
        cx = left + idx * cell + cell / 2.0
        parts.append(
            _text(
                cx,
                top - 8.0,
                name,
                size=10,
                anchor="start",
                extra=f' transform="rotate(-60 {_c(cx)} {_c(top - 8.0)})"',
            )
        )
        parts.append(_text(left - 8.0, top + idx * cell + cell / 2.0 + 4.0, name, size=10, anchor="end"))
    for i in range(k):
        for j in range(k):
            x = left + j * cell
            y = top + i * cell
            c = coeff[i, j]
            parts.append(
                f'<rect x="{_c(x)}" y="{_c(y)}" width="{_c(cell)}" height="{_c(cell)}" '
                f'fill="{"#f4f4f4" if c != c else "#ffffff"}" stroke="#cccccc" stroke-width="0.5"/>'
            )
            if c != c:  # NaN: pair not computable, leave the cell gray
                continue
            radius = abs(c) * (cell / 2.0 - 3.0)
            if radius > 0:
                parts.append(
                    f'<circle cx="{_c(x + cell / 2.0)}" cy="{_c(y + cell / 2.0)}" '
                    f'r="{_c(radius)}" fill="{_diverging_color(c)}" stroke="#555555" '
                    f'stroke-width="0.5"/>'
                )
            if i != j and not data.significant[i, j]:
                parts.append(
                    f'<line x1="{_c(x)}" y1="{_c(y)}" x2="{_c(x + cell)}" y2="{_c(y + cell)}" '
                    f'stroke="#888888" stroke-width="0.8"/>'
                )
                parts.append(
                    f'<line x1="{_c(x)}" y1="{_c(y + cell)}" x2="{_c(x + cell)}" y2="{_c(y)}" '
                    f'stroke="#888888" stroke-width="0.8"/>'
                )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"

    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            rows.append(
                [
                    data.variables[i],
                    data.variables[j],
                    fmt_csv(coeff[i, j]),
                    fmt_csv(p_raw[i, j]),
                    fmt_csv(p_adj[i, j]),
                    "true" if data.significant[i, j] else "false",
                ]
            )
    sidecar = _csv_table(["var_a", "var_b", "coeff", "p_raw", "p_adjusted", "significant"], rows)
    return svg, sidecar


def _manifest_oracle(text, phases):
    """The Submission of a whole manifest text, with the tables of `phases`."""
    # lines[0] is the header line and lines[-1] what follows the last newline.
    lines = text.split("\n")
    try:
        header, end = json.JSONDecoder().raw_decode(lines[0])
    except ValueError as exc:
        raise ValidationError(
            f"not a JSON manifest ({exc}); tools/convert_manifest.py converts manifests of format_version 1 and 2"
        ) from None
    ingest._check_version(header)
    index = ingest._get(header, "timing", ingest._LIST, "manifest")
    index_phases = [ingest._enum(Phase, name, f"timing.{name}") for name in index]
    if len(set(index_phases)) != len(index_phases):
        raise ValidationError("manifest.timing: a phase is listed twice")
    if lines[0][end:]:
        raise ValidationError("manifest: line 1 holds more than the header")
    if lines[-1] or len(lines) != len(index) + 2:
        tail = " and an unterminated one" if lines[-1] else ""
        raise ValidationError(
            f"manifest: expected {len(index) + 1} complete lines (a header and {len(index)} "
            f"tables), found {len(lines) - 1}{tail}; the file is truncated or damaged"
        )
    sub = ingest.from_manifest({**header, "timing": {}})
    for line_no, (phase, line) in enumerate(zip(index_phases, lines[1:-1]), start=2):
        if phases is not None and phase not in phases:
            continue
        where = f"timing.{phase.value}"
        try:
            table = json.loads(line)
        except ValueError as exc:
            raise ValidationError(f"{where}: line {line_no} is not JSON ({exc})") from None
        if ingest._get(table, "phase", ingest._STR, where) != phase.value:
            raise ValidationError(f"{where}: line {line_no} holds phase {table['phase']!r}")
        del table["phase"]
        sub.timing[phase] = ingest._timing_table(phase.value, table)
    return sub


def read_manifest_oracle(path, phases=None):
    """ingest.read_manifest from the whole text, in file order: line 1's
    structure and the line count, the header's fields, then each table line
    of `phases` in turn, its JSON and phase and then its columns."""
    text = ingest.read_text(path)
    try:
        return _manifest_oracle(text, phases)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _float_list(column):
    return [None if math.isnan(x) else x for x in column.tolist()]


def dumps_manifest_v4_oracle(sub):
    """ingest.dumps_manifest as format version 4 wrote it: every time column
    a list of floats, and no `us`; a column that holds its default is null."""
    header, *tables = (json.loads(line) for line in ingest.dumps_manifest(sub).splitlines())
    header["format_version"] = 4
    for line in tables:
        table = sub.timing[Phase(line["phase"])]
        del line["us"]
        line["start_s"] = _float_list(table.start_s)
        line["end_s"] = _float_list(table.end_s)
        if line["close_s"] is not None:
            line["close_s"] = _float_list(table.close_s)
    return "".join(json.dumps(part, separators=(",", ":"), sort_keys=True) + "\n" for part in [header, *tables])


def dumps_manifest_v3_oracle(sub):
    """ingest.dumps_manifest as format version 3 wrote it: the version 4 line
    with each timing column a list with one entry per rank, also where the
    column holds its default."""
    header, *tables = (json.loads(line) for line in dumps_manifest_v4_oracle(sub).splitlines())
    header["format_version"] = 3
    for line in tables:
        table = sub.timing[Phase(line["phase"])]
        line["rank"] = [int(r) for r in table.rank]
        line["close_s"] = _float_list(table.close_s)
        line["items"] = [None if m else int(v) for v, m in zip(table.items.data, np.ma.getmaskarray(table.items))]
    return "".join(json.dumps(part, separators=(",", ":"), sort_keys=True) + "\n" for part in [header, *tables])


def timing_text_oracle(table):
    """synth._timing_pieces, joined, one cell at a time: str() of each rank and item
    count, f"{x:.6f}" of each time, "" for an absent close time or count."""
    columns = [
        [str(r) for r in table.rank.tolist()],
        [f"{x:.6f}" for x in table.start_s.tolist()],
        [f"{x:.6f}" for x in table.end_s.tolist()],
    ]
    header = "rank,start,end"
    if not np.all(np.isnan(table.close_s)):
        header += ",close"
        columns.append(["" if x != x else f"{x:.6f}" for x in table.close_s.tolist()])
    if table.items.count():
        header += ",items"
        columns.append(["" if x is None else str(x) for x in table.items.tolist()])
    lines = []
    if table.stonewall_s is not None:
        lines.append(f"# stonewall_s = {table.stonewall_s:.6f}")
    lines.append(header)
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


# --- per-cell metric table and run loop -------------------------------------------------


def metric_table_oracle(submissions, normalize="raw"):
    """metrics.metric_table one cell at a time: a cell whose normalization
    fails is left NaN."""
    names = list(metrics.METRIC_NAMES)
    table = np.full((len(submissions), len(names)), np.nan)
    for i, sub in enumerate(submissions):
        raw = dict(metrics.submission_scores(sub))
        for phase, result in sub.phases.items():
            raw[phase.value] = result.value
        for j, name in enumerate(names):
            if name not in raw:
                continue
            value = raw[name]
            try:
                if normalize == "per-node":
                    value = metrics.per_node(value, sub.meta)
                elif normalize == "per-process":
                    value = metrics.per_process(value, sub.meta)
            except NormalizationError:
                continue
            table[i, j] = value
    return names, table


def runs_oracle(sorted_ranks):
    """Lengths of maximal runs of consecutive ranks."""
    lengths = []
    i = 0
    while i < len(sorted_ranks):
        j = i
        while j + 1 < len(sorted_ranks) and sorted_ranks[j + 1] == sorted_ranks[j] + 1:
            j += 1
        lengths.append(j - i + 1)
        i = j + 1
    return lengths


def classify_straggler_pattern_oracle(
    stragglers, n_ranks, min_pattern_size=3, contiguous_fraction=0.9, clustered_fraction=0.6, min_run_length=2
):
    """loginsight.classify_straggler_pattern from the run loop."""
    ranks = sorted(set(int(r) for r in stragglers))
    for r in ranks:
        if r < 0 or r >= n_ranks:
            raise ValueError(f"straggler rank {r} outside [0, {n_ranks})")
    s = len(ranks)
    run_lengths = runs_oracle(ranks)
    run_count = len(run_lengths)
    adjacency = (s - run_count) / (s - 1) if s >= 2 else 0.0
    if s == 0 or s < min_pattern_size:
        return PatternResult(Pattern.NONE, adjacency, run_count)
    if max(run_lengths) >= contiguous_fraction * s:
        return PatternResult(Pattern.CONTIGUOUS, adjacency, run_count)
    multi = [length for length in run_lengths if length >= min_run_length]
    if len(multi) >= 2 and sum(multi) >= clustered_fraction * s:
        return PatternResult(Pattern.CLUSTERED, adjacency, run_count)
    return PatternResult(Pattern.DISPERSED, adjacency, run_count)


def t_pvalue_closed_form(df, t):
    """Two-sided p of Student's t >= 0 on df = 1 or an even df, from closed
    forms. df = 1: 1 - (2/pi) atan t, written (2/pi) atan(1/t) so that no
    digits cancel. Even df (A&S 26.7.3): 1 - s * sum_{k < df/2} c_k x^k with
    s = t / sqrt(df + t^2), x = df / (df + t^2) and c_k = (2k-1)!! / (2k)!!,
    which is 1 - t / sqrt(2 + t^2) at df = 2. s times the whole series is 1,
    so where s times its head is above 1/2, p is s times its tail, with
    nothing to cancel."""
    if df == 1:
        return 2 / math.pi * math.atan2(1.0, t)
    s = t / math.sqrt(df + t * t)
    x = df / (df + t * t)
    head, term = 0.0, 1.0
    for k in range(df // 2):
        head += term
        term *= (2 * k + 1) / (2 * k + 2) * x
    if s * head <= 0.5:
        return 1.0 - s * head
    tail, k = 0.0, df // 2
    while term > tail * 1e-17:
        tail += term
        term *= (2 * k + 1) / (2 * k + 2) * x
        k += 1
    return s * tail


def chi_square_sf_closed_form(df, h):
    """Upper tail of chi-square at h >= 0 on df = 1 or an even df, from closed
    forms: erfc(sqrt(h/2)) at df = 1, and at even df the Poisson sum
    e^(-h/2) sum_{k < df/2} (h/2)^k / k!, its terms taken in logs so that
    e^(-h/2) does not underflow before the sum does."""
    if df == 1:
        return math.erfc(math.sqrt(h / 2))
    x = h / 2
    if x == 0.0:
        return 1.0
    return math.fsum(math.exp(k * math.log(x) - x - math.lgamma(k + 1)) for k in range(df // 2))
