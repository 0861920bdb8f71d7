"""Minimal SVG line plots (axes, ticks, legend, polylines) with no dependencies.

Good enough for bound curves and accuracy-vs-epoch figures; not a plotting
library.  Non-finite points are dropped from a series before drawing, and a
series that loses all its points is drawn as legend-only.
"""

import math
import xml.etree.ElementTree as ET

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 34, 46
_TICK_TARGET = 5  # about this many ticks per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Tick positions at a 1/2/5 x 10^k step, inside [lo, hi]."""
    raw = (hi - lo) / _TICK_TARGET
    if not 0.0 < raw < math.inf:  # no span, a limit that is not finite, or a span past the float maximum
        return []
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # a step finer than the floats at t: one tick, not an endless loop
            break
        t += step
    return ticks


def _axis(lo: float, hi: float, pad: float, origin: float, length: float):
    """The ticks and the value -> pixel map of an axis over [lo, hi], widened by pad of its span at each end."""
    for unit in (1.0, 0.25):  # in quarters of the values where the span overflows, so pixels stay finite
        a, b = lo * unit, hi * unit
        if b == a:
            b = max(a + 1.0, math.nextafter(a, math.inf))  # the next float up where a + 1.0 == a
        margin = pad * (b - a)
        a, b = a - margin, b + margin
        if math.isfinite(b - a):
            break
    ticks = [t / unit for t in _nice_ticks(a, b) if math.isfinite(t / unit)]
    return ticks, lambda v: origin + (v * unit - a) / (b - a) * length


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def _element(parent, tag, text=None, **attrs):
    """A child element of parent with attrs in the order given, _ in a name spelled -.  A float value is
    written to 2 decimals and any other with str, so a number meant otherwise (stroke-width 1.6) is given as text."""
    element = ET.SubElement(parent, tag, {name.replace("_", "-"): f"{v:.2f}" if isinstance(v, float) else str(v)
                                          for name, v in attrs.items()})
    element.text = text


def line_plot(path, series: list[tuple[str, list[float], list[float]]], title: str = "", xlabel: str = "",
              ylabel: str = "") -> None:
    """Write an SVG line plot; ``series`` is a list of (label, xs, ys)."""
    cleaned = [(label, [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)])
               for label, xs, ys in series]
    xs, ys = zip(*([p for _, pts in cleaned for p in pts] or [(0.0, 0.0), (1.0, 1.0)]))  # a unit square when empty
    plot_w, plot_h = _WIDTH - _MARGIN_L - _MARGIN_R, _HEIGHT - _MARGIN_T - _MARGIN_B
    x_ticks, sx = _axis(min(xs), max(xs), 0.0, _MARGIN_L, plot_w)
    y_ticks, sy = _axis(min(ys), max(ys), 0.05, _MARGIN_T + plot_h, -plot_h)

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg", width=str(_WIDTH), height=str(_HEIGHT),
                     viewBox=f"0 0 {_WIDTH} {_HEIGHT}")
    _element(svg, "rect", x=0, y=0, width=_WIDTH, height=_HEIGHT, fill="white")
    font = {"font_family": "sans-serif", "font_size": 12}

    # grid + ticks
    for t in x_ticks:
        px = sx(t)
        _element(svg, "line", x1=px, y1=_MARGIN_T, x2=px, y2=_MARGIN_T + plot_h, stroke="#dddddd")
        _element(svg, "text", _tick_label(t), x=px, y=_MARGIN_T + plot_h + 16, text_anchor="middle", **font)
    for t in y_ticks:
        py = sy(t)
        _element(svg, "line", x1=_MARGIN_L, y1=py, x2=_MARGIN_L + plot_w, y2=py, stroke="#dddddd")
        _element(svg, "text", _tick_label(t), x=_MARGIN_L - 6, y=py + 4, text_anchor="end", **font)

    # axes
    _element(svg, "rect", x=_MARGIN_L, y=_MARGIN_T, width=plot_w, height=plot_h, fill="none", stroke="black")

    # series
    for i, (_, pts) in enumerate(cleaned):
        if pts:
            _element(svg, "polyline", points=" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts), fill="none",
                     stroke=PALETTE[i % len(PALETTE)], stroke_width="1.6")

    # labels
    if title:
        _element(svg, "text", title, x=_WIDTH // 2, y=20, text_anchor="middle", font_size=14, font_family="sans-serif")
    if xlabel:
        _element(svg, "text", xlabel, x=_MARGIN_L + plot_w // 2, y=_HEIGHT - 10, text_anchor="middle", **font)
    if ylabel:
        mid = _MARGIN_T + plot_h // 2
        _element(svg, "text", ylabel, x=16, y=mid, transform=f"rotate(-90 16 {mid})", text_anchor="middle", **font)

    # legend
    lx, ly = _MARGIN_L + plot_w - 150, _MARGIN_T + 8
    _element(svg, "rect", x=lx - 6, y=ly - 6, width=150, height=16 * len(cleaned) + 8, fill="white", stroke="#999999")
    for i, (label, _) in enumerate(cleaned):
        row = ly + 16 * i
        _element(svg, "line", x1=lx, y1=row + 5, x2=lx + 18, y2=row + 5, stroke=PALETTE[i % len(PALETTE)],
                 stroke_width="1.6")
        _element(svg, "text", label, x=lx + 24, y=row + 9, **font)

    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=True)
