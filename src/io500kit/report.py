"""Deterministic table and SVG rendering.

Every plot renderer quantizes its inputs to 6 significant digits, draws
from the quantized values, and writes exactly those values to the CSV
sidecar, so re-rendering from a sidecar reproduces the SVG byte for byte.
A plot renderer checks its input when it is called and returns its
sidecar and its SVG as one stream of pieces, which `write_render` writes
as they come: no plot or sidecar is ever one whole string.
No timestamps, no randomness, fixed float formatting throughout.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import EmptyInputError
from .ingest import interconnect_class
from .metrics import SummaryStats
from .stats import INDEPENDENCE_CAVEAT, kruskal_wallis
from .types import Submission


@dataclass
class RenderSpec:
    title: str = ""
    scale: str = "linear"  # or "log10"
    y_label: str = ""

    def __post_init__(self):
        if self.scale not in ("linear", "log10"):
            raise ValueError(f"unknown scale {self.scale!r}")


def q6(x: float) -> float:
    """Quantize to 6 significant digits (the sidecar CSV precision)."""
    if x != x:
        return x
    return float(f"{x:.6g}")


def fmt_csv(x: float | None) -> str:
    if x is None or (isinstance(x, float) and x != x):
        return ""
    return f"{x:.6g}"


def fmt_median_count(counts) -> str:
    """The median of whole counts, which is whole or a half: a whole one as
    an integer, a half with one decimal."""
    median = float(np.median(counts))
    return str(int(median)) if median.is_integer() else f"{median:.1f}"


def _finite(values) -> np.ndarray:
    """values as a float array; a NaN or infinite value raises ValueError."""
    column = np.asarray(values, dtype=float)
    if not np.isfinite(column).all():
        raise ValueError("cannot plot a NaN or infinite value")
    return column


# A piece of a render: the suffix of the file it belongs to ("svg", "csv" or
# "txt") and the next part of that file's text.
Piece = tuple[str, str]

# Values quantized, formatted or drawn at a time: one block's Python objects,
# never a whole column's, are alive at once.
_BLOCK = 8192


def _blocks(n: int) -> Iterator[slice]:
    """The slices of a column of n values, _BLOCK at a time."""
    return (slice(at, at + _BLOCK) for at in range(0, n, _BLOCK))


def _q6_blocks(values: np.ndarray, out: np.ndarray) -> Iterator[tuple[slice, list[str]]]:
    """Write q6 of a column into `out`, _BLOCK values at a time, yielding each
    block's slice and the `.6g` text of its values.

    Each value is formatted once and the text parsed back. `.6g` is
    idempotent on a q6 value, so for a finite value that text is also the
    sidecar cell.
    """
    for block in _blocks(values.size):
        text = list(map(format, values[block].tolist(), itertools.repeat(".6g")))
        out[block] = np.fromiter(map(float, text), dtype=float, count=len(text))
        yield block, text


# A sidecar's `clamped` cell, by flag.
_FLAGS = ("false", "true")


def fmt_label(x: float) -> str:
    return f"{x:.3g}"


def _c(x: float) -> str:
    # SVG coordinate: fixed 2 decimals.
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _csv_rows(rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def csv_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    return _csv_rows(itertools.chain([header], rows))


def aligned_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines) + "\n"


def tables(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[Piece]:
    """One table as the CSV and aligned-text pieces `write_render` takes."""
    return [("csv", csv_table(header, rows)), ("txt", aligned_table(header, rows))]


# --- tables -----------------------------------------------------------------


def render_summary_table(stats_rows: Sequence[tuple[str, SummaryStats]]) -> list[Piece]:
    """CSV + aligned text with Metric, Min, Median, Mean, Max, CV columns."""
    header = ["Metric", "Min", "Median", "Mean", "Max", "CV"]
    rows = [
        [name, fmt_csv(s.min), fmt_csv(s.median), fmt_csv(s.mean), fmt_csv(s.max), fmt_csv(s.cv)]
        for name, s in stats_rows
    ]
    return tables(header, rows)


def render_composition_table(submissions: Sequence[Submission]) -> list[Piece]:
    """Counts by canonical filesystem and by interconnect class."""
    fs_counts: dict[str, int] = {}
    ic_counts: dict[str, int] = {}
    for sub in submissions:
        fs_counts[sub.meta.filesystem_norm.value] = (
            fs_counts.get(sub.meta.filesystem_norm.value, 0) + 1
        )
        label = interconnect_class(sub.meta)
        ic_counts[label] = ic_counts.get(label, 0) + 1
    header = ["Group", "Label", "N"]
    rows = [
        ["filesystem", label, str(count)]
        for label, count in sorted(fs_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ] + [
        ["interconnect", label, str(count)]
        for label, count in sorted(ic_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return tables(header, rows)


def render_imbalance_table(
    items_per_rank: Sequence[int], max_over_median: float, gini_value: float
) -> list[Piece]:
    counts = np.asarray(items_per_rank)
    header = ["Quantity", "Value"]
    rows = [
        ["ranks", str(counts.size)],
        ["items_total", str(int(sum(counts.tolist())))],  # Python ints: no int64 overflow
        ["items_min", str(int(counts.min()))],
        ["items_median", fmt_median_count(counts)],
        ["items_max", str(int(counts.max()))],
        ["max_over_median", fmt_csv(max_over_median)],
        ["gini", fmt_csv(gini_value)],
    ]
    return tables(header, rows)


# --- SVG primitives -----------------------------------------------------------


def _lines(lines: Iterable[str]) -> str:
    """Lines of text, each ended by a newline."""
    return "".join(line + "\n" for line in lines)


def _svg_head(width: float, height: float, title: str, title_y: float = 20.0, title_size: int = 13) -> str:
    """The opening lines of an SVG document on a white ground, with the title
    centred at title_y when there is one. The document ends with _SVG_END."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_c(width)}" '
        f'height="{_c(height)}" viewBox="0 0 {_c(width)} {_c(height)}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]
    if title:
        head.append(_text(width / 2.0, title_y, title, size=title_size, anchor="middle"))
    return _lines(head)


_SVG_END = "</svg>\n"


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "start", extra: str = "") -> str:
    return (
        f'<text x="{_c(x)}" y="{_c(y)}" font-family="monospace" font-size="{size}" '
        f'text-anchor="{anchor}"{extra}>{_esc(s)}</text>'
    )


def _y_label(height: float, text: str) -> str:
    """The y-axis label, rotated to run up the left edge."""
    return _text(
        16.0, height / 2.0, text, size=11, anchor="middle", extra=f' transform="rotate(-90 16.00 {_c(height / 2.0)})"'
    )


def _diverging_color(c: float) -> str:
    """Symmetric blue-white-red scale over [-1, 1]."""
    c = max(-1.0, min(1.0, c))
    white = (247, 247, 247)
    red = (178, 24, 43)
    blue = (33, 102, 172)
    target = red if c >= 0 else blue
    t = abs(c)
    rgb = tuple(round(w + (p - w) * t) for w, p in zip(white, target))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


@dataclass
class _Axis:
    """Maps a column of data values onto a pixel interval, optionally through log10."""

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

    def __call__(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Pixel positions of a column, and a flag for each value pinned to the floor."""
        values = np.asarray(values, dtype=float)
        clamped = np.zeros(values.shape, dtype=bool)
        if self.log:
            clamped = values <= 0
            # math.log10 per value: np.log10 does not always round alike, and every plot's bytes were set by math.log10.
            floored = np.maximum(values, self.floor).tolist()
            values = np.fromiter(map(math.log10, floored), dtype=float, count=len(floored))
        frac = (values - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo), clamped


def _y_range(columns: Sequence[np.ndarray], log: bool) -> tuple[float, float]:
    """The bottom and top of a y axis over the q6 of the values of some
    columns, taken in order. On a log scale: a tenth of the smallest positive
    value, and the largest. On a linear one: the first smallest and the first
    largest value, so that a zero keeps its sign.

    q6 is monotone and keeps a value's sign, so these are q6 of the raw
    extremes, and no column needs quantizing to find them."""
    if log:
        smallest = min(float(np.min(c, where=c > 0, initial=math.inf)) for c in columns)
        # min / 10 underflows to 0.0 near 5e-324.
        return max(q6(smallest) / 10.0, math.ulp(0.0)), q6(max(float(c.max()) for c in columns))
    # min() and max() keep the first of equal values, as argmin and argmax do.
    return q6(min(float(c[c.argmin()]) for c in columns)), q6(max(float(c[c.argmax()]) for c in columns))


def _points(circle: str, clamped_circle: str, clamped: np.ndarray, *columns, lift: float = 5.0) -> str:
    """The SVG lines of one block of points, from a %-format taking one value
    of each column (cx, cy, ...), a numpy array or a list; a point pinned to
    the log floor gets clamped_circle and a "0" label lift pixels above it."""
    values = [np.asarray(column).tolist() for column in columns]
    lines = list(map(circle.__mod__, zip(*values)))
    for i in np.flatnonzero(clamped).tolist():
        point = tuple(column[i] for column in values)
        lines[i] = clamped_circle % point + "\n" + _text(point[0], point[1] - lift, "0", size=8, anchor="middle")
    return _lines(lines)


# --- correlation heatmap ---------------------------------------------------------


def render_corr_heatmap(report, spec: RenderSpec | None = None) -> Iterator[Piece]:
    """Correlation matrix as circles: radius tracks |coefficient|, fill the
    sign, hatching marks pairs that did not survive FDR correction. Yields
    the sidecar, then the SVG a row of cells at a time.

    Takes a stats.CorrelationReport, or any object with its `variables`,
    `coeff`, `p_raw`, `p_adjusted` and `significant`.
    """
    spec = spec or RenderSpec()
    k = len(report.variables)
    coeff = np.empty(k * k)
    # A coefficient's `.6g` text is its sidecar cell; a NaN's cell is empty.
    text = [cell for _, cells in _q6_blocks(np.asarray(report.coeff, dtype=float).ravel(), coeff) for cell in cells]
    coeff = coeff.reshape(k, k)
    rows = [
        [
            report.variables[i],
            report.variables[j],
            "" if text[i * k + j] == "nan" else text[i * k + j],
            fmt_csv(report.p_raw[i, j]),
            fmt_csv(report.p_adjusted[i, j]),
            "true" if report.significant[i, j] else "false",
        ]
        for i in range(k)
        for j in range(i + 1, k)
    ]
    yield "csv", csv_table(["var_a", "var_b", "coeff", "p_raw", "p_adjusted", "significant"], rows)

    cell = 34.0
    left, top = 150.0, 60.0 + (110.0 if k else 0.0)
    width = left + k * cell + 30.0
    height = top + k * cell + 30.0
    parts = []
    for idx, name in enumerate(report.variables):
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
    yield "svg", _svg_head(width, height, spec.title, title_y=24.0, title_size=14) + _lines(parts)
    for i in range(k):
        parts = []
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
            if i != j and not report.significant[i, j]:
                parts.append(
                    f'<line x1="{_c(x)}" y1="{_c(y)}" x2="{_c(x + cell)}" y2="{_c(y + cell)}" '
                    f'stroke="#888888" stroke-width="0.8"/>'
                )
                parts.append(
                    f'<line x1="{_c(x)}" y1="{_c(y + cell)}" x2="{_c(x + cell)}" y2="{_c(y)}" '
                    f'stroke="#888888" stroke-width="0.8"/>'
                )
        yield "svg", _lines(parts)
    yield "svg", _SVG_END


# --- Q-Q plot ---------------------------------------------------------------------


_REFERENCE = np.array([1.0, 0.0])  # the ratio of the reference line, and zero


def render_qq(qq_pairs: Sequence[tuple[float, float]] | np.ndarray, spec: RenderSpec | None = None) -> Iterator[Piece]:
    """Stonewall-ratio Q-Q plot with a reference line at ratio 1.0.

    qq_pairs is an (n, 2) array of (quantile, ratio) rows, such as
    StonewallRatios.qq, or a list of (quantile, ratio) pairs.
    A NaN or infinite value, or a quantile outside [0, 1], raises ValueError
    here, before any piece. The pieces are the sidecar's, then the SVG's, a
    block of points at a time.
    """
    pairs = _finite(qq_pairs)
    if not pairs.size:
        raise EmptyInputError("no quantile pairs to plot")
    outside = (pairs[:, 0] < 0.0) | (pairs[:, 0] > 1.0)
    if outside.any():
        raise ValueError(f"quantile {float(pairs[np.argmax(outside), 0])!r} outside [0, 1]")
    spec = spec or RenderSpec()
    # q6 keeps a value's sign, so the raw ratios tell whether any is above 0.
    log_y = spec.scale == "log10" and bool(np.any(pairs[:, 1] > 0))
    # The axis takes in the reference line and, on a linear scale, zero.
    y_lo, y_hi = _y_range([pairs[:, 1], _REFERENCE], log_y)
    width, height = 460.0, 340.0
    px = _Axis(0.0, 1.0, 70.0, width - 30.0)
    py = _Axis(y_lo, y_hi, height - 50.0, 40.0, log=log_y)

    def pieces() -> Iterator[Piece]:
        quantiles, ratios = np.empty(len(pairs)), np.empty(len(pairs))
        yield "csv", csv_table(["quantile", "ratio", "clamped"], [])
        for (block, q_cells), (_, r_cells) in zip(_q6_blocks(pairs[:, 0], quantiles), _q6_blocks(pairs[:, 1], ratios)):
            flags = map(_FLAGS.__getitem__, (log_y & (ratios[block] <= 0)).tolist())
            yield "csv", _csv_rows(zip(q_cells, r_cells, flags))
        (ref_y,), _ = py([1.0])
        frame = [
            f'<rect x="{_c(70.0)}" y="{_c(40.0)}" width="{_c(width - 100.0)}" '
            f'height="{_c(height - 90.0)}" fill="none" stroke="#333333" stroke-width="1"/>',
            f'<line x1="{_c(70.0)}" y1="{_c(ref_y)}" x2="{_c(width - 30.0)}" y2="{_c(ref_y)}" '
            f'stroke="#bb4444" stroke-width="1" stroke-dasharray="4 3"/>',
        ]
        yield "svg", _svg_head(width, height, spec.title) + _lines(frame)
        for block in _blocks(len(pairs)):
            xs, _ = px(quantiles[block])
            ys, clamped = py(ratios[block])
            yield "svg", _points(
                '<circle cx="%.2f" cy="%.2f" r="2.2" fill="#33668c"/>',
                '<circle cx="%.2f" cy="%.2f" r="2.2" fill="#d09040"/>',
                clamped,
                xs,
                ys,
            )
        labels = [
            _text(width / 2.0, height - 16.0, "empirical quantile", size=11, anchor="middle"),
            _y_label(height, spec.y_label or "runtime / stonewall"),
            _text(66.0, height - 44.0, fmt_label(y_lo), size=9, anchor="end"),
            _text(66.0, 46.0, fmt_label(y_hi), size=9, anchor="end"),
        ]
        yield "svg", _lines(labels) + _SVG_END

    return pieces()


# --- grouped box plot ---------------------------------------------------------------


def _natural_label_key(label: str) -> tuple[float, str]:
    head = label.split(" ")[0]
    try:
        return (float(head), label)
    except ValueError:
        return (math.inf, label)


def render_group_box(
    groups: Sequence[tuple[str, Sequence[float]]],
    spec: RenderSpec | None = None,
    annotate: bool = True,
) -> Iterator[Piece]:
    """Box plot per group (median, quartiles, Tukey whiskers, outlier dots).

    Each group's values may be a list or a numpy column. With two or more
    groups and annotate=True, a Kruskal-Wallis line (H, p, eta-squared plus
    the independence caveat) is drawn under the title. A NaN or infinite
    value raises ValueError here, before any piece. The pieces are the
    sidecar's, then the SVG's.
    """
    if not groups:
        raise EmptyInputError("no groups to plot")
    spec = spec or RenderSpec()
    ordered = sorted(
        ((label, _finite(values).ravel()) for label, values in groups),
        key=lambda group: _natural_label_key(group[0]),
    )
    for label, values in ordered:
        if not values.size:
            raise EmptyInputError(f"group {label!r} is empty")
    columns = [values for _, values in ordered]
    log_y = spec.scale == "log10" and any(bool(np.any(values > 0)) for values in columns)
    y_lo, y_hi = _y_range(columns, log_y)
    n_groups = len(ordered)
    box_w = 46.0
    width = 90.0 + n_groups * (box_w + 34.0) + 30.0
    height = 360.0
    py = _Axis(y_lo, y_hi, height - 70.0, 56.0, log=log_y)

    def pieces() -> Iterator[Piece]:
        yield "csv", csv_table(["label", "value"], [])
        for g, (label, values) in enumerate(ordered):
            quantized = np.empty(values.size)
            for _, cells in _q6_blocks(values, quantized):
                yield "csv", _csv_rows(zip(itertools.repeat(label), cells))
            ordered[g] = (label, quantized)  # the raw column is no longer needed here

        yield "svg", _svg_head(width, height, spec.title)
        if annotate and n_groups >= 2:
            test = kruskal_wallis([values for _, values in ordered])
            annotation = (
                f"H={fmt_label(q6(test.h))}, p={fmt_label(q6(test.p))}, "
                f"η²={fmt_label(q6(test.eta_sq))}; {INDEPENDENCE_CAVEAT}"
            )
            yield "svg", _lines([_text(width / 2.0, 38.0, annotation, size=9, anchor="middle")])
        ring = '<circle cx="%.2f" cy="%.2f" r="2.0" fill="none" stroke="#b2502d" stroke-width="1"/>'
        for g, (label, arr) in enumerate(ordered):
            # The sidecar is written, so the column may be sorted in place: the
            # values within the fences are then one run of it, and the
            # outliers, in ascending order, the values before and after it.
            arr.sort()
            q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0]).tolist()
            iqr = q3 - q1
            inside_lo = int(np.searchsorted(arr, q1 - 1.5 * iqr, side="left"))
            inside_hi = int(np.searchsorted(arr, q3 + 1.5 * iqr, side="right"))
            whisk_lo = float(arr[inside_lo]) if inside_lo < arr.size else q1
            whisk_hi = float(arr[inside_hi - 1]) if inside_hi > 0 else q3

            cx = 90.0 + g * (box_w + 34.0) + box_w / 2.0
            x0 = cx - box_w / 2.0
            yq1, yq3, ymed, ylo, yhi = py([q1, q3, med, whisk_lo, whisk_hi])[0].tolist()
            parts = [
                f'<line x1="{_c(cx)}" y1="{_c(ylo)}" x2="{_c(cx)}" y2="{_c(yhi)}" '
                f'stroke="#333333" stroke-width="1"/>',
                f'<rect x="{_c(x0)}" y="{_c(yq3)}" width="{_c(box_w)}" height="{_c(yq1 - yq3)}" '
                f'fill="#9ecae9" stroke="#333333" stroke-width="1"/>',
                f'<line x1="{_c(x0)}" y1="{_c(ymed)}" x2="{_c(x0 + box_w)}" y2="{_c(ymed)}" '
                f'stroke="#13304a" stroke-width="1.6"/>',
            ]
            for w_y in (ylo, yhi):
                parts.append(
                    f'<line x1="{_c(cx - box_w / 4.0)}" y1="{_c(w_y)}" '
                    f'x2="{_c(cx + box_w / 4.0)}" y2="{_c(w_y)}" stroke="#333333" stroke-width="1"/>'
                )
            yield "svg", _lines(parts)
            for outliers in (arr[:inside_lo], arr[inside_hi:]):
                for block in _blocks(outliers.size):
                    ys, clamped = py(outliers[block])
                    yield "svg", _points(ring, ring, clamped, np.full(ys.size, cx), ys)
            yield "svg", _lines([_text(cx, height - 36.0, f"{label} (n={arr.size})", size=10, anchor="middle")])
        labels = [
            _y_label(height, spec.y_label + (" (log10)" if log_y else "")),
            _text(84.0, height - 66.0, fmt_label(y_lo), size=9, anchor="end"),
            _text(84.0, 60.0, fmt_label(y_hi), size=9, anchor="end"),
        ]
        yield "svg", _lines(labels) + _SVG_END

    return pieces()


# --- score strip -----------------------------------------------------------------


def render_score_strip(rows: Sequence[tuple[str, float]], spec: RenderSpec | None = None) -> Iterator[Piece]:
    """One dot per submission ordered by value, colored by category label.

    Nonpositive values on a log10 scale are pinned to the axis floor with a
    visible zero annotation instead of being dropped. A NaN or infinite
    value raises ValueError here, before any piece. The pieces are the
    sidecar, then the SVG's.
    """
    if not rows:
        raise EmptyInputError("no values to plot")
    raw = _finite([v for _, v in rows])
    spec = spec or RenderSpec(scale="log10")
    log_y = spec.scale == "log10" and bool(np.any(raw > 0))
    y_lo, y_hi = _y_range([raw], log_y)

    labels = sorted({label for label, _ in rows})
    palette = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#7f7f7f")
    color = {label: palette[i % len(palette)] for i, label in enumerate(labels)}

    n = len(rows)
    width = max(420.0, 90.0 + n * 9.0 + 150.0)
    height = 320.0
    px = _Axis(0.0, float(max(n - 1, 1)), 80.0, width - 170.0)
    py = _Axis(y_lo, y_hi, height - 60.0, 46.0, log=log_y)

    def pieces() -> Iterator[Piece]:
        quantized = np.empty(n)
        text = [cell for _, cells in _q6_blocks(raw, quantized) for cell in cells]
        # By value, then label; the sort is stable.
        as_floats = quantized.tolist()
        order = sorted(range(n), key=lambda i: (as_floats[i], rows[i][0]))
        values = quantized[order]
        names = [rows[i][0] for i in order]
        flags = map(_FLAGS.__getitem__, (log_y & (values <= 0)).tolist())
        yield "csv", csv_table(["label", "value", "clamped"], zip(names, (text[i] for i in order), flags))

        frame = (
            f'<rect x="80.00" y="46.00" width="{_c(width - 250.0)}" height="{_c(height - 106.0)}" '
            f'fill="none" stroke="#333333" stroke-width="1"/>'
        )
        yield "svg", _svg_head(width, height, spec.title) + _lines([frame])
        circle = '<circle cx="%.2f" cy="%.2f" r="3.0" fill="%s"/>'
        for block in _blocks(n):
            xs, _ = px(np.arange(n, dtype=float)[block])
            ys, clamped = py(values[block])
            yield "svg", _points(circle, circle, clamped, xs, ys, [color[name] for name in names[block]], lift=6.0)
        parts = []
        for i, label in enumerate(labels):
            ly = 56.0 + i * 16.0
            parts.append(f'<circle cx="{_c(width - 150.0)}" cy="{_c(ly - 4.0)}" r="4.0" fill="{color[label]}"/>')
            parts.append(_text(width - 140.0, ly, label, size=10))
        parts.append(_text(width / 2.0 - 60.0, height - 18.0, "submissions (sorted)", size=11, anchor="middle"))
        parts.append(_y_label(height, (spec.y_label or "value") + (" (log10)" if log_y else "")))
        yield "svg", _lines(parts) + _SVG_END

    return pieces()


# --- output layout -----------------------------------------------------------------


def write_render(outdir: str | Path, analysis: str, name: str, pieces: Iterable[Piece]) -> list[Path]:
    """Write each (suffix, text) piece to <outdir>/<analysis>/<name>.<suffix>
    as it comes, opening a file at its first piece, so that no file's text is
    ever whole. Returns the files written, in the order of their first
    pieces. A failed render removes every file it began, then raises on."""
    target = Path(outdir) / analysis
    target.mkdir(parents=True, exist_ok=True)
    files: dict[Path, TextIO] = {}
    try:
        with contextlib.ExitStack() as opened:
            for suffix, text in pieces:
                path = target / f"{name}.{suffix}"
                if path not in files:
                    files[path] = opened.enter_context(path.open("w", encoding="utf-8", newline="\n"))
                files[path].write(text)
    except BaseException:
        for path in files:
            path.unlink(missing_ok=True)
        raise
    return list(files)
