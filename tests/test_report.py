import numpy as np
import pytest

from io500kit import report, stats
from io500kit.errors import EmptyInputError
from io500kit.metrics import SummaryStats, summary_stats


def _stats(values):
    return summary_stats(values)


# --- summary and composition tables -------------------------------------------------


def test_summary_table_columns_and_values():
    csv_text, txt = report.render_summary_table([("overall", _stats([3.2, 254, 1128, 36850]))])
    lines = csv_text.splitlines()
    assert lines[0] == "Metric,Min,Median,Mean,Max,CV"
    assert lines[1].startswith("overall,3.2,691,9558.8,36850,")
    assert "Metric" in txt and "overall" in txt


def test_summary_table_table2_shape_round_trip():
    # stable rendering for precomputed, dataset-scale stats
    row = ("Overall Score", SummaryStats(n=61, min=3.2, median=254, mean=1128, max=36850, cv=4.17))
    once = report.render_summary_table([row])
    again = report.render_summary_table([row])
    assert once == again
    assert "4.17" in once[0]


def test_summary_table_empty_is_header_only():
    csv_text, txt = report.render_summary_table([])
    assert csv_text == "Metric,Min,Median,Mean,Max,CV\n"
    assert txt.splitlines()[0].startswith("Metric")


def test_summary_table_cv_blank_when_undefined():
    csv_text, _ = report.render_summary_table([("m", _stats([5.0]))])
    assert csv_text.splitlines()[1] == "m,5,5,5,5,"


def test_composition_table(monkeypatch):
    from io500kit.ingest import normalize_metadata
    from io500kit.types import Submission

    subs = []
    for fs, ic in (("Lustre", "IB HDR"), ("Lustre", "IB EDR"), ("DAOS", "IB HDR")):
        meta = normalize_metadata({"filesystem": fs, "interconnect": ic, "client_nodes": 1})
        subs.append(Submission(meta=meta))
    csv_text, txt = report.render_composition_table(subs)
    assert "filesystem,lustre,2" in csv_text
    assert "filesystem,daos,1" in csv_text
    assert "interconnect,200 Gb/s,2" in csv_text


def test_imbalance_table():
    csv_text, txt = report.render_imbalance_table([100, 100, 100, 5000], 50.0, 0.7)
    assert "max_over_median,50" in csv_text
    assert "gini,0.7" in csv_text
    csv_inf, _ = report.render_imbalance_table([0, 0, 100], float("inf"), 0.6)
    assert "max_over_median,inf" in csv_inf


# --- heatmap ---------------------------------------------------------------------------


def _identity_report():
    col = np.arange(30.0)
    table = np.column_stack([col, col])
    return stats.correlation_matrix(["a", "b"], table)


def test_heatmap_identity_two_unit_circles():
    svg, sidecar = report.render_corr_heatmap(_identity_report())
    # two diagonal cells plus the off-diagonal pair, all with |c| = 1
    assert svg.count('r="14.00"') == 4
    assert "a,b,1,0,0,true" in sidecar


def test_heatmap_zero_coefficient_absent_mark():
    data = report.HeatmapData(
        variables=["a", "b"],
        coeff=np.array([[1.0, 0.0], [0.0, 1.0]]),
        p_raw=np.array([[0.0, 1.0], [1.0, 0.0]]),
        p_adjusted=np.array([[0.0, 1.0], [1.0, 0.0]]),
        significant=np.zeros((2, 2), dtype=bool),
    )
    svg, _ = report.render_corr_heatmap(data)
    assert svg.count("<circle") == 2  # only the diagonal


def test_heatmap_hatches_non_significant():
    data = report.HeatmapData(
        variables=["a", "b"],
        coeff=np.array([[1.0, 0.5], [0.5, 1.0]]),
        p_raw=np.array([[0.0, 0.3], [0.3, 0.0]]),
        p_adjusted=np.array([[0.0, 0.3], [0.3, 0.0]]),
        significant=np.zeros((2, 2), dtype=bool),
    )
    svg, _ = report.render_corr_heatmap(data)
    assert svg.count("<line") == 4  # two hatch strokes per non-significant cell


def test_heatmap_deterministic_and_sidecar_round_trip():
    corr = _identity_report()
    spec = report.RenderSpec(title="t")
    svg1, side1 = report.render_corr_heatmap(corr, spec)
    svg2, side2 = report.render_corr_heatmap(corr, spec)
    assert svg1 == svg2 and side1 == side2
    rebuilt = report.heatmap_from_sidecar(side1)
    svg3, side3 = report.render_corr_heatmap(rebuilt, spec)
    assert svg3 == svg1 and side3 == side1


# --- qq plot ----------------------------------------------------------------------------


def test_qq_flat_line_at_one():
    pairs = [(k / 8, 1.0) for k in range(1, 9)]
    svg, sidecar = report.render_qq(pairs)
    assert svg.count("<circle") == 8
    assert sidecar.splitlines()[1] == "0.125,1,false"


def test_qq_empty_error():
    with pytest.raises(EmptyInputError):
        report.render_qq([])


def test_qq_log_scale_pins_zero():
    spec = report.RenderSpec(scale="log10")
    svg, sidecar = report.render_qq([(0.5, 0.0), (1.0, 2.0)], spec)
    assert "0.5,0,true" in sidecar.splitlines()
    assert ">0</text>" in svg  # pinned-point annotation


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_renderers_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="cannot plot a NaN or infinite value"):
        report.render_qq(np.array([[0.5, bad], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="cannot plot a NaN or infinite value"):
        report.render_qq([(bad, 1.0)])
    with pytest.raises(ValueError, match="cannot plot a NaN or infinite value"):
        report.render_group_box([("a", [1.0, 2.0]), ("b", np.array([3.0, bad]))])
    with pytest.raises(ValueError, match="cannot plot a NaN or infinite value"):
        report.render_score_strip([("lustre", 2.0), ("daos", bad)])
    # The largest finite values still render.
    report.render_qq([(0.5, 1.7976931348623157e308)])
    report.render_group_box([("a", [-1.7976931348623157e308, 5e-324])])
    report.render_score_strip([("lustre", 1.7976931348623157e308)])


@pytest.mark.parametrize(
    "render",
    [
        lambda: report.render_qq([(0.0, 1.7976931348623157e308), (0.0, -3.134865e302)]),
        lambda: report.render_group_box([("a", [-1.79e308, 1.79e308])]),
        lambda: report.render_score_strip([("a", -1.79e308), ("b", 1.79e308)], report.RenderSpec()),
    ],
)
def test_renderers_reject_finite_values_whose_span_overflows(render):
    # Each value is finite, but the distance between them is not: no "nan" may be drawn.
    with pytest.raises(ValueError, match="span overflows"):
        render()


def test_qq_sidecar_round_trip():
    rng = np.random.default_rng(40)
    ratios = np.sort(rng.uniform(1.0, 5.0, size=25))
    pairs = [((k + 1) / 25, float(r)) for k, r in enumerate(ratios)]
    spec = report.RenderSpec(title="x", scale="log10")
    svg1, side1 = report.render_qq(pairs, spec)
    svg2, side2 = report.render_qq(report.qq_from_sidecar(side1), spec)
    assert svg1 == svg2 and side1 == side2


# --- group box ---------------------------------------------------------------------------


def test_group_box_single_group_no_annotation():
    svg, _ = report.render_group_box([("only", [1.0, 2.0, 3.0, 4.0])])
    assert "H=" not in svg


def test_group_box_annotation_format_and_caveat():
    groups = [("a", [1.0, 2.0, 3.0]), ("b", [4.0, 5.0, 6.0])]
    svg, _ = report.render_group_box(groups)
    assert "H=3.86" in svg
    assert "p=0.0495" in svg
    assert "η²=0.771" in svg
    assert "approximate" in svg  # independence caveat text


def test_group_box_ordered_by_label():
    groups = [("zeta", [5.0, 6.0, 7.0]), ("alpha", [1.0, 2.0, 3.0])]
    svg, sidecar = report.render_group_box(groups, annotate=False)
    assert sidecar.splitlines()[1].startswith("alpha,")
    assert svg.index("alpha") < svg.index("zeta")


def test_group_box_numeric_label_order():
    groups = [("100 Gb/s", [1.0, 2.0]), ("20 Gb/s", [3.0, 4.0]), ("unknown", [5.0, 6.0])]
    _, sidecar = report.render_group_box(groups, annotate=False)
    first = [line.split(",")[0] for line in sidecar.splitlines()[1:]]
    assert first == ["20 Gb/s", "20 Gb/s", "100 Gb/s", "100 Gb/s", "unknown", "unknown"]


def test_group_box_outliers_drawn():
    groups = [("g", [1.0, 1.1, 1.2, 1.05, 1.15, 9.0])]
    svg, _ = report.render_group_box(groups)
    assert svg.count("<circle") == 1  # the outlier dot


def test_group_box_single_value_beyond_float_unit_spacing():
    # Above 2**53, lo + 1.0 == lo: the flat axis must still get a nonzero span.
    svg, sidecar = report.render_group_box([("g", [9007195000000000.0, 9007195000000000.0])])
    assert sidecar.splitlines()[1] == "g,9.0072e+15"
    assert svg.count('y1="290.00"') == 4  # whisker, median and caps on the axis floor


def test_group_box_sidecar_round_trip():
    rng = np.random.default_rng(41)
    groups = [
        ("one", rng.lognormal(0, 1, 12).tolist()),
        ("two", rng.lognormal(0.5, 1, 9).tolist()),
    ]
    spec = report.RenderSpec(title="t", scale="log10", y_label="v")
    svg1, side1 = report.render_group_box(groups, spec)
    svg2, side2 = report.render_group_box(report.groups_from_sidecar(side1), spec)
    assert svg1 == svg2 and side1 == side2


# --- score strip ------------------------------------------------------------------------


def test_score_strip_log_zero_annotated():
    rows = [("lustre", 0.0), ("daos", 10.0), ("lustre", 1000.0)]
    spec = report.RenderSpec(scale="log10")
    svg, sidecar = report.render_score_strip(rows, spec)
    assert "lustre,0,true" in sidecar
    assert ">0</text>" in svg


def test_score_strip_sidecar_round_trip():
    rng = np.random.default_rng(42)
    rows = [(fs, float(v)) for fs, v in zip(["a", "b"] * 10, rng.lognormal(3, 2, 20))]
    spec = report.RenderSpec(title="s", scale="log10")
    svg1, side1 = report.render_score_strip(rows, spec)
    svg2, side2 = report.render_score_strip(report.strip_from_sidecar(side1), spec)
    assert svg1 == svg2 and side1 == side2


# --- output layout -----------------------------------------------------------------------


def test_write_render_layout_and_lf(tmp_path):
    paths = report.write_render(tmp_path, "stats", "demo", svg="<svg/>\n", csv_text="a,b\n", txt="x\n")
    rels = [str(p.relative_to(tmp_path)) for p in paths]
    assert rels == ["stats/demo.svg", "stats/demo.csv", "stats/demo.txt"]
    raw = (tmp_path / "stats" / "demo.csv").read_bytes()
    assert b"\r" not in raw


def test_render_spec_validation():
    with pytest.raises(ValueError):
        report.RenderSpec(scale="sqrt")


def test_svg_escapes_labels():
    svg, _ = report.render_group_box(
        [("a<b&c", [1.0, 2.0, 3.0])],
        report.RenderSpec(title="t<&>"),
        annotate=False,
    )
    assert "a&lt;b&amp;c" in svg
    assert "t&lt;&amp;&gt;" in svg
    assert "<b" not in svg.replace("<bexpected", "")
