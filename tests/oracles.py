"""Brute-force reference implementations used to cross-check the library.

These deliberately use different algorithms from the package: ranks by
counting comparisons, Kruskal-Wallis via mean-rank deviations, BH by the
literal step-up definition, Gini by the O(n^2) pairwise-difference sum.
The timing CSV scan converts one row at a time, as the package did when its
column conversion failed; the package must return the same columns and
warnings, or raise the same error for the same line.
The Q-Q and box plot renderers draw one point at a time, as the package did
before its renderers worked on whole columns; the package's renderers must
produce the same SVG and sidecar bytes. The manifest reader at the end reads
the whole text at once, as the package did before it read a line at a time;
the package's reader must return the same Submission or raise the same error.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Sequence

import numpy as np

from io500kit import ingest
from io500kit.errors import EmptyInputError, ParseError, ValidationError
from io500kit.report import (
    RenderSpec,
    _Axis,
    _c,
    _natural_label_key,
    _svg_open,
    _text,
    fmt_csv,
    fmt_label,
    q6,
)
from io500kit.stats import INDEPENDENCE_CAVEAT, kruskal_wallis
from io500kit.types import Phase


def rank_oracle(values):
    """Rank by explicit comparison counting: less-than count + half the ties."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


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
            try:
                value = float(cells[col["items"]])
            except ValueError:
                value = math.nan
            if not abs(value) < ingest._INT64_BOUND:  # also false for NaN
                raise ParseError(f"{phase}: malformed items {cells[col['items']]!r}", line=line_no)
            items = int(value)
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


def _csv_table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


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
    parts.append(_text(width / 2.0, height - 16.0, spec.x_label or "empirical quantile", size=11, anchor="middle"))
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


def _manifest_tree_oracle(text, phases):
    """The document tree of a whole manifest text, with the tables of `phases`."""
    try:
        # The first JSON value: the header line, or the whole of an older single-document manifest.
        header, end = json.JSONDecoder().raw_decode(text)
    except ValueError as exc:
        raise ValidationError(f"not a JSON manifest ({exc})") from None
    ingest._check_version(header)
    index = ingest._get(header, "timing", ingest._LIST, "manifest")
    index_phases = [ingest._enum(Phase, name, f"timing.{name}") for name in index]
    if len(set(index_phases)) != len(index_phases):
        raise ValidationError("manifest.timing: a phase is listed twice")
    # lines[0] is the rest of the header line and lines[-1] what follows the last newline.
    lines = text[end:].split("\n")
    if lines[0]:
        raise ValidationError("manifest: line 1 holds more than the header")
    if lines[-1] or len(lines) != len(index) + 2:
        tail = " and an unterminated one" if lines[-1] else ""
        raise ValidationError(
            f"manifest: expected {len(index) + 1} complete lines (a header and {len(index)} "
            f"tables), found {len(lines) - 1}{tail}; the file is truncated or damaged"
        )
    tables = {}
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
        tables[phase.value] = table
    return {**header, "timing": tables}


def read_manifest_oracle(path, phases=None):
    """ingest.read_manifest from the whole text: every table line of `phases`
    decoded before any table is built."""
    text = ingest.read_text(path)
    try:
        return ingest.from_manifest(_manifest_tree_oracle(text, phases))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
