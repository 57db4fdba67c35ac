import hashlib
import math
import re
import sys

import pytest

from rupsim.svgplot import line_chart


def _circles(svg: str) -> list[tuple[float, float]]:
    return [(float(x), float(y)) for x, y in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)]


@pytest.mark.parametrize("v", [1e300, -1e300, 2.0 ** 53, sys.float_info.max])
def test_flat_range_at_any_finite_magnitude_renders(v):
    svg = line_chart([("flat", [v, v], [v, v]), ("point", [v], [v])], xlabel="x", ylabel="y")
    points = _circles(svg)
    assert len(points) == 3
    assert all(math.isfinite(c) for p in points for c in p)
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("xs, ys", [
    ([1.0, 2.0, 1.7e308], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [-1.7e308, 0.0, 1.7e308]),
    ([-sys.float_info.max, sys.float_info.max], [-sys.float_info.max, sys.float_info.max]),
], ids=["x-to-1.7e308", "y-across-the-float-range", "both-at-the-float-limits"])
def test_a_range_near_the_float_limits_keeps_every_coordinate_finite(xs, ys):
    svg = line_chart([("wide", xs, ys)], xlabel="x", ylabel="y")
    coords = [float(v) for v in re.findall(r'\s(?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)]
    coords += [float(v) for points in re.findall(r'points="([^"]+)"', svg)
               for pair in points.split() for v in pair.split(",")]
    assert len(coords) > 2 * len(xs)
    assert all(math.isfinite(c) for c in coords)
    assert "nan" not in svg and "inf" not in svg
    # every point lies inside the plot area
    assert all(64.0 <= x <= 704.0 and 28.0 <= y <= 434.0 for x, y in _circles(svg))


def test_non_finite_and_log_nonpositive_points_are_dropped():
    xs, ys = [0.0, 1.0, 10.0, math.nan, 100.0], [1.0, 5.0, -2.0, 3.0, math.inf]
    assert len(_circles(line_chart([("s", xs, ys)], xlabel="x", ylabel="y"))) == 3
    assert len(_circles(line_chart([("s", xs, ys)], xlabel="x", ylabel="y", logx=True))) == 2
    assert len(_circles(line_chart([("s", xs, ys)], xlabel="x", ylabel="y",
                                    logx=True, logy=True))) == 1


def test_nothing_plottable_is_a_value_error():
    with pytest.raises(ValueError, match="no plottable points"):
        line_chart([("s", [math.nan, 1.0], [1.0, math.inf])], xlabel="x", ylabel="y")
    with pytest.raises(ValueError, match="no plottable points"):
        line_chart([("s", [1.0, 2.0], [0.0, -1.0])], xlabel="x", ylabel="y", logy=True)
    with pytest.raises(ValueError, match="no plottable points"):
        line_chart([], xlabel="x", ylabel="y")


def test_rerender_is_byte_identical_and_flat_ranges_below_2_52_keep_their_bytes():
    # digests of these charts as rendered before flat ranges were widened by
    # an ulp; 2^51 + 0.5 is flat and still widened by 0.5
    charts = {
        "4649fd56ab07a6687b39b476c4e0cf64a83dd02204235b623af320f5f8d98e5b": lambda: line_chart(
            [("tau=0", [0.01, 0.02, 0.05], [3.0, 3.0, 3.0]),
             ("tau=0.1", [0.01, 0.02, 0.05], [3.0, 3.0, 3.0])],
            xlabel="bandwidth h", ylabel="MISE", title="a <flat> & chart"),
        "7b371a390e8e8e7a4bd73883ea93f803a5d8b958f1b8496d4d2343a0bf3e01d3": lambda: line_chart(
            [("tau=0.02", [400], [0.125])], xlabel="n", ylabel="h", logx=True, logy=True),
        "83f57ad7a51846bee749bea41a06a981f3f76ac5a745079e0486ea1203463386": lambda: line_chart(
            [("a", [1.0, 2.0], [2.0 ** 51 + 0.5, 2.0 ** 51 + 0.5])], xlabel="x", ylabel="y"),
    }
    for digest, render in charts.items():
        svg = render()
        assert render() == svg
        assert hashlib.sha256(svg.encode()).hexdigest() == digest
