import re

from dicode.svgplot import line_chart


def test_non_finite_value_breaks_the_polyline():
    svg = line_chart([("rate", [1, 10, 100, 1000, 10000], [0.1, 0.2, float("nan"), 0.4, 0.5])])
    (path,) = re.findall(r'<path d="([^"]*)"', svg)
    assert [cmd[0] for cmd in path.split()] == ["M", "L", "M", "L"]
