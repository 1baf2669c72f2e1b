"""SVG output: well-formed XML, one polyline per series, log-scale handling."""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from angular_optim.svgplot import PALETTE, Series, render_line_chart, render_overlay

NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text: str) -> ET.Element:
    return ET.fromstring(svg_text)


def polylines(root: ET.Element):
    return root.findall(f".//{NS}polyline")


def sample_series(n=3):
    return [
        Series(f"series_{i}", np.arange(1.0, 6.0), np.arange(1.0, 6.0) * (i + 1))
        for i in range(n)
    ]


class TestLineChart:
    def test_valid_xml(self):
        chart = render_line_chart(sample_series(), title="t", xlabel="x", ylabel="y")
        root = parse("".join(chart))
        assert root.tag == f"{NS}svg"

    @pytest.mark.parametrize("n", [0, 1, 3, 12])
    def test_one_polyline_per_series(self, n):
        root = parse("".join(render_line_chart(sample_series(n))))
        assert len(polylines(root)) == n

    def test_empty_series_still_gets_polyline(self):
        s = Series("empty", np.array([]), np.array([]))
        root = parse("".join(render_line_chart([s])))
        assert len(polylines(root)) == 1
        assert polylines(root)[0].get("points") == ""

    def test_log_scale_drops_nonpositive(self):
        s = Series("mixed", np.arange(1.0, 5.0), np.array([-1.0, 0.0, 10.0, 100.0]))
        linear = polylines(parse("".join(render_line_chart([s]))))[0]
        logged = polylines(parse("".join(render_line_chart([s], log_y=True))))[0]
        assert len(linear.get("points").split()) == 4
        assert len(logged.get("points").split()) == 2

    def test_nan_points_dropped(self):
        s = Series("gappy", np.arange(1.0, 5.0), np.array([1.0, np.nan, 3.0, 4.0]))
        root = parse("".join(render_line_chart([s])))
        assert len(polylines(root)[0].get("points").split()) == 3

    def test_palette_assignment_and_cycling(self):
        root = parse("".join(render_line_chart(sample_series(12))))
        strokes = [p.get("stroke") for p in polylines(root)]
        assert strokes[0] == PALETTE[0]
        assert strokes[10] == PALETTE[0]  # wraps after 10 colors
        assert strokes[1] == PALETTE[1]

    def test_label_escaping(self):
        label = 'loss <1e-3> & "final"'
        s = Series(label, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        text = "".join(render_line_chart([s]))
        root = parse(text)  # would raise if the label broke the XML
        texts = [t.text for t in root.findall(f".//{NS}text")]
        assert label in texts

    def test_deterministic_bytes(self):
        a = "".join(render_line_chart(sample_series(), title="same"))
        b = "".join(render_line_chart(sample_series(), title="same"))
        assert a == b

    def test_axes_use_line_elements(self):
        root = parse("".join(render_line_chart(sample_series(1))))
        assert len(root.findall(f".//{NS}line")) > 2  # axes plus ticks

    def test_title_and_labels_present(self):
        chart = render_line_chart(sample_series(1), title="T", xlabel="X", ylabel="Y")
        root = parse("".join(chart))
        texts = [t.text for t in root.findall(f".//{NS}text")]
        for want in ("T", "X", "Y", "series_0"):
            assert want in texts

    def test_constant_series_renders(self):
        s = Series("flat", np.arange(1.0, 4.0), np.full(3, 2.5))
        root = parse("".join(render_line_chart([s])))
        assert len(polylines(root)[0].get("points").split()) == 3

    # from 2^53 up, value +- 0.5 rounds back to the value: a pad of 0.5 would
    # leave the range no width
    @pytest.mark.parametrize("value", [2.0**52, 2.0**53, -(2.0**53), 8e199])
    def test_huge_constant_series_renders(self, value):
        s = Series("flat", np.arange(1.0, 4.0), np.full(3, value))
        root = parse("".join(render_line_chart([s])))
        points = polylines(root)[0].get("points").split()
        assert len(points) == 3
        assert all(np.isfinite(float(v)) for p in points for v in p.split(","))
        assert len({p.split(",")[1] for p in points}) == 1

    # a range whose width (or four times it, in the tick sums) overflows, and a
    # constant at the largest float, whose ulp pad reaches inf, write only
    # finite coordinates and ticks, and warn nothing
    @pytest.mark.parametrize("ys, points, ticks", [
        ([-1e308, 1e308], "64.00,432.00 560.00,34.00",
         ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]),
        ([-1.7976931348623157e308, 1.7976931348623157e308], "64.00,432.00 560.00,34.00",
         ["-1.79769e+308", "-8.98847e+307", "0", "8.98847e+307", "1.79769e+308"]),
        ([1.7976931348623157e308] * 2, "64.00,34.00 560.00,34.00", ["1.79769e+308"] * 5),
        ([-1.7976931348623157e308] * 2, "64.00,432.00 560.00,432.00", ["-1.79769e+308"] * 5),
    ], ids=["wide", "widest", "constant-max", "constant-min"])
    def test_range_at_the_float_limits_writes_finite_numbers(self, ys, points, ticks):
        text = "".join(render_line_chart([Series("s", np.array([1.0, 2.0]), np.array(ys))]))
        assert "nan" not in text and "inf" not in text
        root = parse(text)
        assert polylines(root)[0].get("points") == points
        assert [t.text for t in root.iter(f"{NS}text")][5:10] == ticks

    def test_trailing_newline(self):
        assert "".join(render_line_chart(sample_series(1))).endswith("</svg>\n")


class TestOverlay:
    def grid(self, nx=4, ny=3):
        xs = np.linspace(-1.0, 1.0, nx)
        ys = np.linspace(0.0, 2.0, ny)
        Z = np.add.outer(ys**2, xs**2)
        return xs, ys, Z

    def test_valid_xml_and_polyline_count(self):
        xs, ys, Z = self.grid()
        series = sample_series(2)
        root = parse("".join(render_overlay(xs, ys, Z, series)))
        assert len(polylines(root)) == 2

    def test_heat_cells_are_rects(self):
        xs, ys, Z = self.grid(4, 3)
        root = parse("".join(render_overlay(xs, ys, Z, [])))
        rects = root.findall(f".//{NS}rect")
        assert len(rects) == 4 * 3 + 1  # cells plus the white background

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, bad):
        xs, ys, Z = self.grid()
        Z[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            render_overlay(xs, ys, Z, [])

    def test_degenerate_grid_rejected(self):
        xs = np.array([1.0, 1.0])
        ys = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            render_overlay(xs, ys, np.zeros((2, 2)), [])

    def test_deterministic_bytes(self):
        xs, ys, Z = self.grid()
        a = "".join(render_overlay(xs, ys, Z, sample_series(1)))
        b = "".join(render_overlay(xs, ys, Z, sample_series(1)))
        assert a == b

    def test_constant_surface_renders(self):
        xs = np.linspace(0.0, 1.0, 3)
        ys = np.linspace(0.0, 1.0, 3)
        root = parse("".join(render_overlay(xs, ys, np.ones((3, 3)), [])))
        assert len(root.findall(f".//{NS}rect")) == 10


def _pinned_case(case: str) -> str:
    if case == "log-xy-nonfinite":
        xs = np.array([-1.0, 0.0, 1.0, 10.0, np.nan, 100.0, np.inf, 1000.0])
        ys = np.array([5.0, 1.0, -2.0, 0.0, 3.0, np.inf, 7.0, 1e-3])
        return "".join(render_line_chart(
            [Series("mixed", xs, ys), Series("tail", xs[::-1], np.abs(ys))],
            title="log", xlabel="x", ylabel="y", log_x=True, log_y=True,
        ))
    if case == "palette-wrap-escaped":
        series = [
            Series(f"s{i} <a> & <b>", np.arange(4.0), np.arange(4.0) * (i - 5))
            for i in range(12)
        ]
        return "".join(render_line_chart(series, title="t & <u>", xlabel="<x>", ylabel="y&"))
    if case == "no-labels":
        return "".join(render_line_chart(sample_series(2), title="", xlabel="", ylabel=""))
    if case == "constant-series":
        return "".join(render_line_chart([Series("flat", np.arange(1.0, 4.0), np.full(3, 2.5))]))
    if case == "overlay-constant-empty-path":
        xs = np.linspace(-2.0, 2.0, 5)
        ys = np.linspace(-1.0, 3.0, 3)
        path = Series("path", np.array([-1.0, 0.0, 1.5]), np.array([0.0, 1.0, 2.5]))
        empty = Series("empty", np.array([]), np.array([]))
        return "".join(render_overlay(xs, ys, np.full((3, 5), 4.0), [path, empty], title="flat"))
    raise KeyError(case)


# sha256 of chart paths that no default CLI artifact reaches, so a change
# to the layout that moves one byte fails here.
PINNED_CHARTS = {
    "log-xy-nonfinite":
        "62fdb487f908e93cdd108a0c9e3daf7294386d876be5d88fcaf5cacd9bba7c13",
    "palette-wrap-escaped":
        "9aafd5b0afcc37fdc5da1e7b579275ae5a2f6f4e042ae305739a305f19ed147f",
    "no-labels":
        "c58678dd0abdba1760d78e5953121404176bc2d21deafaf9af1125a8f8864943",
    "constant-series":
        "7f28fb93d0ce56f05fbe4eeaefc5c3982e35f49468afd306402ffa3126dff917",
    "overlay-constant-empty-path":
        "fc28d84623ddb98672d20b9f981f3b8098646af3a016f03bd225e43a9f585340",
}


@pytest.mark.parametrize("case", sorted(PINNED_CHARTS))
def test_chart_bytes_match_pinned_digest(case):
    text = _pinned_case(case)
    parse(text)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CHARTS[case]
