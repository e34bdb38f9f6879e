"""SVG report rendering: structure, geometry, gap handling, and file layout."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from deferbench import report
from deferbench.errors import ConfigError, FormatError
from deferbench.metrics import CurvePoint

SVG_NS = "{http://www.w3.org/2000/svg}"


def point(rate, bacc, frac=0.5, *, method="softmax", seed=0, condition="id", level=0,
          status="ok"):
    return CurvePoint(
        deferral_rate=rate,
        bacc=bacc,
        frac_positives_deferred=frac,
        method=method,
        condition=condition,
        level=level,
        seed=seed,
        param_kind="threshold",
        param_value=rate,
        status=status,
    )


def simple_series(method="softmax", seed=0, n=5):
    rates = [i / (n - 1) for i in range(n)]
    return [point(r, 0.9 - 0.1 * r, frac=r, method=method, seed=seed) for r in rates]


def render(points, condition, level) -> str:
    """SVG text of points, all of one condition, drawn as the figure of
    (condition, level)."""
    (series,) = report.Figures(points).groups.values()
    return report.render_condition_svg(series, condition, level)


def parse(svg_text: str):
    return ET.fromstring(svg_text)


def panels(root):
    return {g.get("data-panel"): g for g in root.iter(f"{SVG_NS}g") if g.get("data-panel")}


def polylines(node):
    return [e for e in node.iter(f"{SVG_NS}polyline") if e.get("data-method")]


def circles(node):
    return [e for e in node.iter(f"{SVG_NS}circle") if e.get("data-method")]


def test_svg_parses_and_carries_condition_identity():
    svg = render(simple_series(), "noise", 3)
    root = parse(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("data-condition") == "noise"
    assert root.get("data-level") == "3"


def test_two_panels_with_fixed_axis_ranges():
    root = parse(render(simple_series(), "id", 0))
    by_name = panels(root)
    assert set(by_name) == {"bacc", "frac_pos"}

    bacc = by_name["bacc"]
    assert bacc.get("data-x-min") == "0.0" and bacc.get("data-x-max") == "1.0"
    assert bacc.get("data-y-min") == "0.4" and bacc.get("data-y-max") == "1.0"

    frac = by_name["frac_pos"]
    assert frac.get("data-y-min") == "0.0" and frac.get("data-y-max") == "1.0"


def test_one_polyline_per_method_seed_series():
    pts = []
    for method in ("softmax", "one_stage"):
        for seed in (0, 1):
            pts.extend(simple_series(method=method, seed=seed))
    root = parse(render(pts, "id", 0))
    for panel in panels(root).values():
        lines = polylines(panel)
        assert len(lines) == 4
        keys = {(e.get("data-method"), e.get("data-seed")) for e in lines}
        assert keys == {("softmax", "0"), ("softmax", "1"), ("one_stage", "0"), ("one_stage", "1")}


def test_missing_bacc_splits_the_curve_not_the_other_panel():
    pts = simple_series()
    pts[2].bacc = None  # e.g. remainder lost one class at this rate
    root = parse(render(pts, "id", 0))
    by_name = panels(root)
    assert len(polylines(by_name["bacc"])) == 2  # split around the gap
    assert len(polylines(by_name["frac_pos"])) == 1  # frac still defined everywhere


def test_single_point_series_renders_as_circle():
    pts = [point(1.0, None, frac=1.0, status="absent"), point(0.5, 0.8, frac=0.3)]
    root = parse(render(pts, "blur", 2))
    bacc = panels(root)["bacc"]
    assert len(polylines(bacc)) == 0
    marks = circles(bacc)
    assert len(marks) == 1
    assert float(marks[0].get("cx")) == pytest.approx(70 + 0.5 * 640, abs=0.01)


def test_pixel_mapping_anchors():
    pts = simple_series()  # rates 0..1, bacc 0.9..0.8
    root = parse(render(pts, "id", 0))
    line = polylines(panels(root)["bacc"])[0]
    coords = [pair.split(",") for pair in line.get("points").split()]
    assert float(coords[0][0]) == 70.0  # x_px(0)
    assert float(coords[-1][0]) == 710.0  # x_px(1)
    # y_px maps bacc 1.0 to the panel top and 0.4 to the panel bottom
    top_panel_y0 = 70.0  # legend + top margin
    expected_first = top_panel_y0 + (1.0 - 0.9) / 0.6 * 300
    assert float(coords[0][1]) == pytest.approx(expected_first, abs=0.01)


def test_failed_rows_are_not_plotted():
    pts = simple_series()
    pts.extend(
        CurvePoint(
            deferral_rate=None, bacc=None, frac_positives_deferred=None,
            method="swag", seed=0, condition="id", level=0,
            status="failed:DivergenceError",
        )
        for _ in range(3)
    )
    root = parse(render(pts, "id", 0))
    methods = {e.get("data-method") for e in polylines(root)}
    assert methods == {"softmax"}


def test_all_failed_rows_is_an_error():
    failed = [
        CurvePoint(
            deferral_rate=None, bacc=None, frac_positives_deferred=None,
            method="swag", status="failed:CollectionError",
        )
    ]
    with pytest.raises(FormatError, match="no plottable rows"):
        render(failed, "id", 0)


def test_legend_lists_each_method_once():
    pts = simple_series() + simple_series(method="bnn") + simple_series(method="bnn", seed=1)
    root = parse(render(pts, "id", 0))
    texts = [e.text for e in root.iter(f"{SVG_NS}text")]
    assert texts.count("softmax") == 1
    assert texts.count("bnn") == 1


def test_write_report_one_file_per_condition(tmp_path):
    pts = []
    for condition, level in [("id", 0), ("noise", 1), ("noise", 2), ("blur", 1)]:
        pts.extend(
            point(r / 4, 0.8, frac=0.2, condition=condition, level=level) for r in range(5)
        )
    written = report.write_report(tmp_path, report.Figures(pts))
    names = [p.name for p in written]
    assert names == ["id.svg", "noise1.svg", "noise2.svg", "blur1.svg"]
    for path in written:
        assert path.parent == tmp_path / "report"
        root = parse(path.read_text())
        assert root.get("data-condition") in ("id", "noise", "blur")


def test_write_report_rejects_empty_results(tmp_path):
    with pytest.raises(FormatError, match="no result rows"):
        report.write_report(tmp_path, report.Figures([]))


def test_write_report_rejects_an_invalid_condition_before_writing(tmp_path):
    good = [point(r / 4, 0.8, condition="id", level=0) for r in range(5)]
    escaping = [point(0.5, 0.8, condition="../../escaped", level=1)]
    with pytest.raises(ConfigError, match="unknown condition kind"):
        report.write_report(tmp_path / "out", report.Figures(good + escaping))
    assert list(tmp_path.iterdir()) == []


def test_svg_escapes_method_and_condition_text():
    pts = simple_series(method="soft<max&") + simple_series(method='a"b', seed=1)
    root = parse(render(pts, 'a"b<&', 1))
    assert root.get("data-condition") == 'a"b<&'
    texts = [e.text for e in root.iter(f"{SVG_NS}text")]
    assert "soft<max&" in texts and 'a"b' in texts
    assert {e.get("data-method") for e in polylines(root)} == {"soft<max&", 'a"b'}


def test_write_report_failure_leaves_no_partial_svg(tmp_path):
    good = [point(r / 4, 0.8, condition="id", level=0) for r in range(5)]
    unplottable = [point(0.5, None, condition="noise", level=1, status="failed:DivergenceError")]
    with pytest.raises(FormatError, match="no plottable rows"):
        report.write_report(tmp_path, report.Figures(good + unplottable))
    # the first file is complete; the failed one left neither a file nor a temporary
    assert [p.name for p in (tmp_path / "report").iterdir()] == ["id.svg"]
    parse((tmp_path / "report" / "id.svg").read_text())


def mixed_table():
    """2 seeds x 3 methods x 2 conditions, rows interleaved across series.

    Rates repeat within a series and are out of order, one bacc is missing,
    one series keeps a single plottable point, values fall outside the panel
    ranges, and some rows are failed or have no deferral rate.
    """
    pts = []
    for step in range(6):
        for condition, level in (("id", 0), ("noise", 1)):
            for seed in (0, 1):
                for mi, method in enumerate(("softmax", "swag", "two_stage")):
                    rate = ((step * 7 + mi * 3 + seed) % 6) / 5
                    bacc = 0.35 + 0.13 * ((step + mi + level) % 6)
                    frac = -0.1 + 0.24 * ((step * 5 + seed + mi) % 6)
                    status = "ok"
                    if (step, seed, method) == (2, 0, "softmax"):
                        bacc = None
                    if method == "two_stage" and seed == 1 and condition == "noise":
                        if step > 0:
                            rate, status = None, "failed:DivergenceError"
                    if step == 4 and seed == 1 and method == "swag":
                        rate = 0.6  # ties another row of the series
                    pts.append(
                        point(rate, bacc, frac=frac, method=method, seed=seed,
                              condition=condition, level=level, status=status)
                    )
    return pts


def test_figures_fed_in_batches_draw_the_whole_tables_bytes(tmp_path):
    # a run adds each task's points as the task finishes; any split of the
    # table into batches, even one point each, draws the same figures
    pts = mixed_table()
    batched = report.Figures()
    for p in pts:
        batched.add([p])
    whole = report.write_report(tmp_path / "whole", report.Figures(pts))
    split = report.write_report(tmp_path / "split", batched)
    assert [p.name for p in split] == [p.name for p in whole]
    for a, b in zip(whole, split):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_rendered_bytes_are_pinned(tmp_path):
    written = report.write_report(tmp_path, report.Figures(mixed_table()))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == {
        "id.svg": "579a4b11d2ab1d4866cbe0f04726b59c80e6a5ab8d77f36309b4d315d5fa4d94",
        "noise1.svg": "cfff5301e313210e83cc8e26a39f9bb0c4206c23f376eea88fa0e57e7947cacb",
    }
