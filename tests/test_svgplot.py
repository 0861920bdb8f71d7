import math
import xml.etree.ElementTree as ET

import pytest

from fisherrao.svgplot import _nice_ticks, line_plot


def test_nice_ticks_stay_inside_range_with_round_steps():
    ticks = _nice_ticks(0.0, 0.87)
    assert ticks[0] >= 0.0 and ticks[-1] <= 0.87
    steps = {round(b - a, 12) for a, b in zip(ticks, ticks[1:])}
    assert len(steps) == 1
    step = steps.pop()
    mantissa = step / 10 ** math.floor(math.log10(step))
    assert round(mantissa, 6) in (1.0, 2.0, 5.0)
    assert 3 <= len(ticks) <= 12


def test_line_plot_writes_valid_svg_with_labels(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot(
        path,
        [("alpha", [1, 2, 3], [0.1, 0.4, 0.2]), ("beta", [1, 2, 3], [0.3, 0.2, 0.5])],
        title="demo",
        xlabel="x",
        ylabel="y",
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    text = path.read_text()
    assert "alpha" in text and "beta" in text and "demo" in text


def test_line_plot_drops_nonfinite_points(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot(path, [("ce", [1, 2, 3, 4], [0.1, float("inf"), float("nan"), 0.4])])
    ET.parse(path)  # still valid with the bad points dropped


def _coordinates(path) -> list[float]:
    """Every number in a coordinate attribute of the SVG: polyline points, line ends and text anchors."""
    values = []
    for element in ET.parse(path).getroot().iter():
        for name in ("x", "y", "x1", "y1", "x2", "y2"):
            if name in element.attrib:
                values.append(float(element.get(name)))
        for pair in element.get("points", "").split():
            values.extend(map(float, pair.split(",")))
    return values


def _points(path) -> list[str]:
    return [line.get("points") for line in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}polyline")]


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0], [-1e308, 1e308]),  # the y span overflows
    ([-1.7976931348623157e308, 1.7976931348623157e308], [0.0, 1.0]),  # the x span overflows
    ([0.0, 1.0], [1.7976931348623157e308] * 2),  # one y value at the float maximum
    ([1e20], [0.5]),  # one x value where x + 1.0 == x
    ([0.0, 1.0], [1e20, 1e20 + 16384.0]),  # a tick step finer than the floats there
    ([0.0, 1.0], [0.0, 5e-324]),  # a span a fifth of which rounds to zero
])
def test_line_plot_draws_finite_coordinates_for_finite_values(tmp_path, xs, ys):
    path = tmp_path / "plot.svg"
    line_plot(path, [("a", xs, ys)])
    coordinates = _coordinates(path)
    assert len(_points(path)) == 1 and coordinates and all(map(math.isfinite, coordinates))


def test_line_plot_places_points_of_an_overflowing_span_as_the_scaled_down_plot_does(tmp_path):
    line_plot(tmp_path / "huge.svg", [("a", [-1e308, 0.0, 1e308], [-1e308, 5e307, 1e308])])
    line_plot(tmp_path / "unit.svg", [("a", [-1.0, 0.0, 1.0], [-1.0, 0.5, 1.0])])
    assert _points(tmp_path / "huge.svg") == _points(tmp_path / "unit.svg")
    assert _points(tmp_path / "unit.svg") == ["62.00,377.64 343.00,132.18 624.00,50.36"]


def test_line_plot_of_a_constant_series_draws_it_near_the_foot_of_a_unit_range(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot(path, [("a", [1.0, 2.0], [3.0, 3.0])])
    assert _points(path) == ["62.00,377.64 624.00,377.64"]  # y in [3, 4] padded by 5%: 3 sits 1/22 up


def test_line_plot_writes_this_exact_text(tmp_path):
    """One small plot, byte for byte: the attribute order and number formats that the parsing tests would miss."""
    path = tmp_path / "plot.svg"
    line_plot(path, [("ce", [0, 1, 2], [0.2, float("nan"), 0.9]), ("fr", [0, 2], [0.5, 0.6])], title="t",
              xlabel="epoch", ylabel="acc")
    assert path.read_text() == "".join([
        "<?xml version='1.0' encoding='utf-8'?>\n",
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="440" viewBox="0 0 640 440">',
        '<rect x="0" y="0" width="640" height="440" fill="white" />',
        '<line x1="62.00" y1="34" x2="62.00" y2="394" stroke="#dddddd" />',
        '<text x="62.00" y="410" text-anchor="middle" font-family="sans-serif" font-size="12">0</text>',
        '<line x1="202.50" y1="34" x2="202.50" y2="394" stroke="#dddddd" />',
        '<text x="202.50" y="410" text-anchor="middle" font-family="sans-serif" font-size="12">0.5</text>',
        '<line x1="343.00" y1="34" x2="343.00" y2="394" stroke="#dddddd" />',
        '<text x="343.00" y="410" text-anchor="middle" font-family="sans-serif" font-size="12">1</text>',
        '<line x1="483.50" y1="34" x2="483.50" y2="394" stroke="#dddddd" />',
        '<text x="483.50" y="410" text-anchor="middle" font-family="sans-serif" font-size="12">1.5</text>',
        '<line x1="624.00" y1="34" x2="624.00" y2="394" stroke="#dddddd" />',
        '<text x="624.00" y="410" text-anchor="middle" font-family="sans-serif" font-size="12">2</text>',
        '<line x1="62" y1="377.64" x2="624" y2="377.64" stroke="#dddddd" />',
        '<text x="56" y="381.64" text-anchor="end" font-family="sans-serif" font-size="12">0.2</text>',
        '<line x1="62" y1="284.13" x2="624" y2="284.13" stroke="#dddddd" />',
        '<text x="56" y="288.13" text-anchor="end" font-family="sans-serif" font-size="12">0.4</text>',
        '<line x1="62" y1="190.62" x2="624" y2="190.62" stroke="#dddddd" />',
        '<text x="56" y="194.62" text-anchor="end" font-family="sans-serif" font-size="12">0.6</text>',
        '<line x1="62" y1="97.12" x2="624" y2="97.12" stroke="#dddddd" />',
        '<text x="56" y="101.12" text-anchor="end" font-family="sans-serif" font-size="12">0.8</text>',
        '<rect x="62" y="34" width="562" height="360" fill="none" stroke="black" />',
        '<polyline points="62.00,377.64 624.00,50.36" fill="none" stroke="#1f77b4" stroke-width="1.6" />',
        '<polyline points="62.00,237.38 624.00,190.62" fill="none" stroke="#d62728" stroke-width="1.6" />',
        '<text x="320" y="20" text-anchor="middle" font-size="14" font-family="sans-serif">t</text>',
        '<text x="343" y="430" text-anchor="middle" font-family="sans-serif" font-size="12">epoch</text>',
        '<text x="16" y="214" transform="rotate(-90 16 214)" text-anchor="middle" ',
        'font-family="sans-serif" font-size="12">acc</text>',
        '<rect x="468" y="36" width="150" height="40" fill="white" stroke="#999999" />',
        '<line x1="474" y1="47" x2="492" y2="47" stroke="#1f77b4" stroke-width="1.6" />',
        '<text x="498" y="51" font-family="sans-serif" font-size="12">ce</text>',
        '<line x1="474" y1="63" x2="492" y2="63" stroke="#d62728" stroke-width="1.6" />',
        '<text x="498" y="67" font-family="sans-serif" font-size="12">fr</text>',
        "</svg>",
    ])
