"""Dependency-free SVG convergence plots.

The renderer emits a semilog-y chart of absolute error against iteration:
one polyline per trace, decade grid lines, and a dashed horizontal line at
the convergence target.  Output is plain SVG text assembled by hand, so the
artifact opens in any browser without plotting libraries installed.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass

from hive_vqe.optimizers import TraceRecord

ERROR_FLOOR = 1e-16
WIDTH, HEIGHT = 720, 480

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class PlotSeries:
    """One labeled convergence curve."""

    label: str
    iterations: tuple[int, ...]
    errors: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.iterations) != len(self.errors):
            raise ValueError("iteration and error lists differ in length")
        if not self.iterations:
            raise ValueError(f"series {self.label!r} has no points")


def series_from_records(label: str, records: list[TraceRecord]) -> PlotSeries:
    """Build a plottable series from trace records, skipping NaN errors.

    Errors at or below zero are clamped to a tiny positive floor so exact
    hits stay on the log axis.
    """
    iterations = []
    errors = []
    for record in records:
        if math.isnan(record.abs_error):
            continue
        iterations.append(record.iteration)
        errors.append(max(record.abs_error, ERROR_FLOOR))
    if not iterations:
        raise ValueError(f"trace {label!r} has no finite error values to plot")
    return PlotSeries(label, tuple(iterations), tuple(errors))


def _x_ticks(x_min: int, x_max: int, want: int = 6) -> list[int]:
    if x_max <= x_min:
        return [x_min]
    raw = (x_max - x_min) / want
    step = 10 ** math.floor(math.log10(raw)) if raw > 0 else 1
    for mult in (1, 2, 5, 10):
        if step * mult >= raw:
            step = step * mult
            break
    step = max(1, int(step))
    first = x_min + (-x_min) % step
    return list(range(first, x_max + 1, step))


def render_convergence_svg(
    series_list: list[PlotSeries],
    target: float | None = None,
    title: str = "convergence",
) -> str:
    """Render convergence curves to an SVG document string."""
    if not series_list:
        raise ValueError("nothing to plot: no series given")

    margin_left, margin_right, margin_top, margin_bottom = 74, 24, 42, 50
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom

    x_min = min(min(s.iterations) for s in series_list)
    x_max = max(max(s.iterations) for s in series_list)
    y_values = [e for s in series_list for e in s.errors]
    if target is not None and target > 0:
        y_values.append(target)
    decade_lo = math.floor(math.log10(min(y_values)))
    decade_hi = math.ceil(math.log10(max(y_values)))
    if decade_hi == decade_lo:
        decade_hi += 1

    def x_pos(it: float) -> float:
        if x_max == x_min:
            return margin_left + plot_w / 2
        return margin_left + (it - x_min) / (x_max - x_min) * plot_w

    def y_pos(err: float) -> float:
        frac = (math.log10(err) - decade_lo) / (decade_hi - decade_lo)
        return margin_top + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">'
        f"{html.escape(title, quote=False)}</text>",
    ]

    for decade in range(decade_lo, decade_hi + 1):
        y = y_pos(10.0 ** decade)
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.2f}" x2="{margin_left + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" text-anchor="end">1e{decade:d}</text>'
        )

    for tick in _x_ticks(x_min, x_max):
        x = x_pos(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin_top + plot_h}" x2="{x:.2f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{margin_top + plot_h + 20}" text-anchor="middle">{tick}</text>'
        )

    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    if target is not None and target > 0:
        y = y_pos(max(target, 10.0 ** decade_lo))
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.2f}" x2="{margin_left + plot_w}" y2="{y:.2f}" '
            f'stroke="#555555" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{margin_left + plot_w - 4}" y="{y - 5:.2f}" text-anchor="end" '
            f'fill="#555555">target {target:g}</text>'
        )

    for i, series in enumerate(series_list):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{x_pos(it):.2f},{y_pos(err):.2f}"
            for it, err in zip(series.iterations, series.errors)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )

    legend_x = margin_left + 12
    legend_y = margin_top + 14
    for i, series in enumerate(series_list):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + i * 17
        parts.append(
            f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        label = html.escape(series.label, quote=False)
        parts.append(f'<text x="{legend_x + 28}" y="{y}">{label}</text>')

    parts.append(
        f'<text x="{margin_left + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {margin_top + plot_h / 2:.1f})">absolute error</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
