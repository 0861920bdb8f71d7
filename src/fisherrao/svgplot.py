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


def line_plot(
    path,
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write an SVG line plot; ``series`` is a list of (label, xs, ys)."""
    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        cleaned.append((label, pts))
    all_pts = [p for _, pts in cleaned for p in pts]
    if all_pts:
        x_lo, x_hi = min(p[0] for p in all_pts), max(p[0] for p in all_pts)
        y_lo, y_hi = min(p[1] for p in all_pts), max(p[1] for p in all_pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x_ticks, sx = _axis(x_lo, x_hi, 0.0, _MARGIN_L, plot_w)
    y_ticks, sy = _axis(y_lo, y_hi, 0.05, _MARGIN_T + plot_h, -plot_h)

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(_WIDTH),
        height=str(_HEIGHT),
        viewBox=f"0 0 {_WIDTH} {_HEIGHT}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(_WIDTH), height=str(_HEIGHT), fill="white")
    font = {"font-family": "sans-serif", "font-size": "12"}

    # grid + ticks
    for t in x_ticks:
        px = sx(t)
        ET.SubElement(svg, "line", x1=f"{px:.2f}", y1=str(_MARGIN_T), x2=f"{px:.2f}",
                      y2=str(_MARGIN_T + plot_h), stroke="#dddddd")
        ET.SubElement(svg, "text", x=f"{px:.2f}", y=str(_MARGIN_T + plot_h + 16),
                      **{"text-anchor": "middle", **font}).text = _tick_label(t)
    for t in y_ticks:
        py = sy(t)
        ET.SubElement(svg, "line", x1=str(_MARGIN_L), y1=f"{py:.2f}",
                      x2=str(_MARGIN_L + plot_w), y2=f"{py:.2f}", stroke="#dddddd")
        ET.SubElement(svg, "text", x=str(_MARGIN_L - 6), y=f"{py + 4:.2f}",
                      **{"text-anchor": "end", **font}).text = _tick_label(t)

    # axes
    ET.SubElement(svg, "rect", x=str(_MARGIN_L), y=str(_MARGIN_T), width=str(plot_w),
                  height=str(plot_h), fill="none", stroke="black")

    # series
    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            ET.SubElement(svg, "polyline", points=coords, fill="none", stroke=color,
                          **{"stroke-width": "1.6"})

    # labels
    if title:
        ET.SubElement(svg, "text", x=str(_WIDTH // 2), y="20",
                      **{"text-anchor": "middle", "font-size": "14", "font-family": "sans-serif"}).text = title
    if xlabel:
        ET.SubElement(svg, "text", x=str(_MARGIN_L + plot_w // 2), y=str(_HEIGHT - 10),
                      **{"text-anchor": "middle", **font}).text = xlabel
    if ylabel:
        ET.SubElement(svg, "text", x="16", y=str(_MARGIN_T + plot_h // 2),
                      transform=f"rotate(-90 16 {_MARGIN_T + plot_h // 2})",
                      **{"text-anchor": "middle", **font}).text = ylabel

    # legend
    lx, ly = _MARGIN_L + plot_w - 150, _MARGIN_T + 8
    ET.SubElement(svg, "rect", x=str(lx - 6), y=str(ly - 6), width="150",
                  height=str(16 * len(cleaned) + 8), fill="white", stroke="#999999")
    for i, (label, _) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        ET.SubElement(svg, "line", x1=str(lx), y1=str(ly + 16 * i + 5), x2=str(lx + 18),
                      y2=str(ly + 16 * i + 5), stroke=color, **{"stroke-width": "1.6"})
        ET.SubElement(svg, "text", x=str(lx + 24), y=str(ly + 16 * i + 9), **font).text = label

    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=True)
