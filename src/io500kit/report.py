"""Deterministic table and SVG rendering.

Every renderer quantizes its inputs to 6 significant digits up front, draws
from the quantized values, and writes exactly those values to the CSV
sidecar, so re-rendering from a sidecar reproduces the SVG byte for byte.
No timestamps, no randomness, fixed float formatting throughout.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

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
    x_label: str = ""
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


def _finite(values) -> np.ndarray:
    """values as a float array; a NaN or infinite value raises ValueError."""
    column = np.asarray(values, dtype=float)
    if not np.isfinite(column).all():
        raise ValueError("cannot plot a NaN or infinite value")
    return column


def _quantize(values) -> tuple[np.ndarray, list[str]]:
    """q6 of a whole finite column, and fmt_csv of each quantized value.

    Each value is formatted once and the text parsed back. `.6g` is
    idempotent on a q6 value, so that text is also the sidecar cell.
    """
    text = list(map(format, np.asarray(values, dtype=float).ravel().tolist(), itertools.repeat(".6g")))
    return np.fromiter(map(float, text), dtype=float, count=len(text)), text


def _first_min(values: np.ndarray) -> float:
    """min() of a column: the first smallest value, so a zero keeps its sign."""
    return float(values[values.argmin()])


def _first_max(values: np.ndarray) -> float:
    """max() of a column: the first largest value, so a zero keeps its sign."""
    return float(values[values.argmax()])


def fmt_label(x: float) -> str:
    return f"{x:.3g}"


def _c(x: float) -> str:
    # SVG coordinate: fixed 2 decimals.
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def csv_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def aligned_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines) + "\n"


# --- tables -----------------------------------------------------------------


def render_summary_table(stats_rows: Sequence[tuple[str, SummaryStats]]) -> tuple[str, str]:
    """CSV + aligned text with Metric, Min, Median, Mean, Max, CV columns."""
    header = ["Metric", "Min", "Median", "Mean", "Max", "CV"]
    rows = [
        [
            name,
            fmt_csv(q6(s.min)),
            fmt_csv(q6(s.median)),
            fmt_csv(q6(s.mean)),
            fmt_csv(q6(s.max)),
            fmt_csv(q6(s.cv)) if s.cv is not None else "",
        ]
        for name, s in stats_rows
    ]
    return csv_table(header, rows), aligned_table(header, rows)


def render_composition_table(submissions: Sequence[Submission]) -> tuple[str, str]:
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
    return csv_table(header, rows), aligned_table(header, rows)


def render_imbalance_table(
    items_per_rank: Sequence[int], max_over_median: float, gini_value: float
) -> tuple[str, str]:
    counts = np.asarray(items_per_rank)
    header = ["Quantity", "Value"]
    rows = [
        ["ranks", str(counts.size)],
        ["items_total", str(int(sum(counts.tolist())))],  # Python ints: no int64 overflow
        ["items_min", str(int(counts.min()))],
        ["items_median", fmt_csv(q6(float(np.median(counts))))],
        ["items_max", str(int(counts.max()))],
        ["max_over_median", "inf" if math.isinf(max_over_median) else fmt_csv(q6(max_over_median))],
        ["gini", fmt_csv(q6(gini_value))],
    ]
    return csv_table(header, rows), aligned_table(header, rows)


# --- SVG primitives -----------------------------------------------------------


def _svg_open(width: float, height: float) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_c(width)}" '
        f'height="{_c(height)}" viewBox="0 0 {_c(width)} {_c(height)}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "start", extra: str = "") -> str:
    return (
        f'<text x="{_c(x)}" y="{_c(y)}" font-family="monospace" font-size="{size}" '
        f'text-anchor="{anchor}"{extra}>{_esc(s)}</text>'
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
    """Maps data values onto a pixel interval, optionally through log10."""

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

    def column(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """__call__ over a whole column: the same IEEE operations in the same
        order, so every position is bit-equal to the per-value one."""
        clamped = np.zeros(values.shape, dtype=bool)
        if self.log:
            clamped = values <= 0
            # math.log10 per value: np.log10 is not guaranteed to round alike.
            floored = np.maximum(values, self.floor).tolist()
            values = np.fromiter(map(math.log10, floored), dtype=float, count=len(floored))
        frac = (values - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo), clamped


def _log_floor(values: Sequence[float]) -> float:
    values = np.asarray(values, dtype=float)
    positive = values[values > 0]
    if not positive.size:
        raise ValueError("log scale needs at least one positive value")
    return max(float(positive.min()) / 10.0, math.ulp(0.0))  # min / 10 underflows to 0.0 near 5e-324


def _points(circle: str, clamped_circle: str, xs: list[float], ys: list[float], clamped: np.ndarray) -> list[str]:
    """One SVG line per point from a %-format taking (cx, cy); a point
    pinned to the log floor gets clamped_circle and a "0" label above it."""
    lines = list(map(circle.__mod__, zip(xs, ys)))
    for i in np.flatnonzero(clamped).tolist():
        x, y = xs[i], ys[i]
        lines[i] = clamped_circle % (x, y) + "\n" + _text(x, y - 5.0, "0", size=8, anchor="middle")
    return lines


# --- correlation heatmap ---------------------------------------------------------


@dataclass
class HeatmapData:
    variables: list[str]
    coeff: np.ndarray
    p_raw: np.ndarray
    p_adjusted: np.ndarray
    significant: np.ndarray


def _as_heatmap_data(report) -> HeatmapData:
    return HeatmapData(
        variables=list(report.variables),
        coeff=np.asarray(report.coeff, dtype=float),
        p_raw=np.asarray(report.p_raw, dtype=float),
        p_adjusted=np.asarray(report.p_adjusted, dtype=float),
        significant=np.asarray(report.significant, dtype=bool),
    )


def render_corr_heatmap(report, spec: RenderSpec | None = None) -> tuple[str, str]:
    """Correlation matrix as circles: radius tracks |coefficient|, fill the
    sign, hatching marks pairs that did not survive FDR correction.

    Accepts a stats.CorrelationReport or a HeatmapData re-read from a sidecar.
    """
    data = _as_heatmap_data(report)
    spec = spec or RenderSpec()
    k = len(data.variables)
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
    sidecar = csv_table(["var_a", "var_b", "coeff", "p_raw", "p_adjusted", "significant"], rows)
    return svg, sidecar


def heatmap_from_sidecar(sidecar: str) -> HeatmapData:
    """Rebuild heatmap input from its CSV sidecar (diagonal is implied)."""
    reader = csv.reader(io.StringIO(sidecar))
    header = next(reader)
    assert header[0] == "var_a"
    variables: list[str] = []
    entries = []
    for row in reader:
        a, b, coeff, p_raw, p_adj, sig = row
        for name in (a, b):
            if name not in variables:
                variables.append(name)
        entries.append((a, b, coeff, p_raw, p_adj, sig))
    k = len(variables)
    idx = {name: i for i, name in enumerate(variables)}
    coeff = np.eye(k)
    p_raw = np.zeros((k, k))
    p_adj = np.zeros((k, k))
    significant = np.zeros((k, k), dtype=bool)
    for a, b, c, pr, pa, sig in entries:
        i, j = idx[a], idx[b]
        cv = float(c) if c else float("nan")
        coeff[i, j] = coeff[j, i] = cv
        p_raw[i, j] = p_raw[j, i] = float(pr) if pr else float("nan")
        p_adj[i, j] = p_adj[j, i] = float(pa) if pa else float("nan")
        significant[i, j] = significant[j, i] = sig == "true"
    return HeatmapData(variables, coeff, p_raw, p_adj, significant)


# --- Q-Q plot ---------------------------------------------------------------------


def render_qq(qq_pairs: Sequence[tuple[float, float]] | np.ndarray, spec: RenderSpec | None = None) -> tuple[str, str]:
    """Stonewall-ratio Q-Q plot with a reference line at ratio 1.0.

    qq_pairs is an (n, 2) array of (quantile, ratio) rows, such as
    StonewallRatios.qq, or a list of pairs, such as qq_from_sidecar returns.
    A NaN or infinite value raises ValueError.
    """
    pairs = _finite(qq_pairs)
    if not pairs.size:
        raise EmptyInputError("no quantile pairs to plot")
    spec = spec or RenderSpec()
    quantiles, q_cells = _quantize(pairs[:, 0])
    ratios, r_cells = _quantize(pairs[:, 1])
    log_y = spec.scale == "log10" and bool(np.any(ratios > 0))

    width, height = 460.0, 340.0
    px = _Axis(0.0, 1.0, 70.0, width - 30.0)
    floor = _log_floor(np.append(ratios, 1.0)) if log_y else 0.0
    y_hi = max(_first_max(ratios), 1.0)
    y_lo = floor if log_y else min(_first_min(ratios), 1.0, 0.0)
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
    xs, _ = px.column(quantiles)
    ys, clamped = py.column(ratios)
    # The sidecar first, so that its per-point cells are gone before the points are formatted.
    flags = map(("false", "true").__getitem__, clamped.tolist())
    sidecar = csv_table(["quantile", "ratio", "clamped"], zip(q_cells, r_cells, flags))
    del q_cells, r_cells
    parts += _points(
        '<circle cx="%.2f" cy="%.2f" r="2.2" fill="#33668c"/>',
        '<circle cx="%.2f" cy="%.2f" r="2.2" fill="#d09040"/>',
        xs.tolist(),
        ys.tolist(),
        clamped,
    )
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
    return "\n".join(parts) + "\n", sidecar


def qq_from_sidecar(sidecar: str) -> list[tuple[float, float]]:
    reader = csv.reader(io.StringIO(sidecar))
    next(reader)
    return [(float(q), float(r)) for q, r, _ in reader]


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
) -> tuple[str, str]:
    """Box plot per group (median, quartiles, Tukey whiskers, outlier dots).

    Each group's values may be a list or a numpy column. With two or more
    groups and annotate=True, a Kruskal-Wallis line (H, p, eta-squared plus
    the independence caveat) is drawn under the title. A NaN or infinite
    value raises ValueError.
    """
    if not groups:
        raise EmptyInputError("no groups to plot")
    spec = spec or RenderSpec()
    ordered = sorted(
        ((label, *_quantize(_finite(values))) for label, values in groups),
        key=lambda group: _natural_label_key(group[0]),
    )
    for label, values, _ in ordered:
        if not values.size:
            raise EmptyInputError(f"group {label!r} is empty")
    # The sidecar first, so that its per-point cells are gone before the points are formatted.
    sidecar = csv_table(
        ["label", "value"],
        itertools.chain.from_iterable(zip(itertools.repeat(label), cells) for label, _, cells in ordered),
    )
    ordered = [(label, values) for label, values, _ in ordered]

    pooled = np.concatenate([values for _, values in ordered])
    log_y = spec.scale == "log10" and bool(np.any(pooled > 0))
    floor = _log_floor(pooled) if log_y else 0.0
    y_lo = floor if log_y else _first_min(pooled)
    y_hi = float(pooled[pooled > 0].max()) if log_y else _first_max(pooled)

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
    for g, (label, arr) in enumerate(ordered):
        q1, med, q3 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0]))
        iqr = q3 - q1
        in_lo = arr[arr >= q1 - 1.5 * iqr]
        in_hi = arr[arr <= q3 + 1.5 * iqr]
        whisk_lo = float(np.min(in_lo)) if in_lo.size else q1
        whisk_hi = float(np.max(in_hi)) if in_hi.size else q3
        outliers = np.sort(arr[(arr < q1 - 1.5 * iqr) | (arr > q3 + 1.5 * iqr)])

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
        ring = '<circle cx="%.2f" cy="%.2f" r="2.0" fill="none" stroke="#b2502d" stroke-width="1"/>'
        ys, clamped = py.column(outliers)
        parts += _points(ring, ring, [cx] * outliers.size, ys.tolist(), clamped)
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
    return "\n".join(parts) + "\n", sidecar


def groups_from_sidecar(sidecar: str) -> list[tuple[str, list[float]]]:
    reader = csv.reader(io.StringIO(sidecar))
    next(reader)
    grouped: dict[str, list[float]] = {}
    for label, value in reader:
        grouped.setdefault(label, []).append(float(value))
    return list(grouped.items())


# --- score strip -----------------------------------------------------------------


def render_score_strip(
    rows: Sequence[tuple[str, float]], spec: RenderSpec | None = None
) -> tuple[str, str]:
    """One dot per submission ordered by value, colored by category label.

    Nonpositive values on a log10 scale are pinned to the axis floor with a
    visible zero annotation instead of being dropped. A NaN or infinite
    value raises ValueError.
    """
    if not rows:
        raise EmptyInputError("no values to plot")
    _finite([v for _, v in rows])
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
    parts.append(_text(width / 2.0 - 60.0, height - 18.0, spec.x_label or "submissions (sorted)", size=11, anchor="middle"))
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

    sidecar = csv_table(
        ["label", "value", "clamped"],
        [
            [label, fmt_csv(v), "true" if flag else "false"]
            for (label, v), flag in zip(data, clamped_flags)
        ],
    )
    return svg, sidecar


def strip_from_sidecar(sidecar: str) -> list[tuple[str, float]]:
    reader = csv.reader(io.StringIO(sidecar))
    next(reader)
    return [(label, float(value)) for label, value, _ in reader]


# --- output layout -----------------------------------------------------------------


def write_render(
    outdir: str | Path,
    analysis: str,
    name: str,
    svg: str | None = None,
    csv_text: str | None = None,
    txt: str | None = None,
) -> list[Path]:
    """Write artifacts under <outdir>/<analysis>/<name>.{svg,csv,txt}."""
    target = Path(outdir) / analysis
    target.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for suffix, content in (("svg", svg), ("csv", csv_text), ("txt", txt)):
        if content is None:
            continue
        path = target / f"{name}.{suffix}"
        path.write_text(content, encoding="utf-8", newline="\n")
        written.append(path)
    return written
