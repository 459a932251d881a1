"""Minimal deterministic SVG plots.

Hand-rolled rather than pulled from a plotting library so that identical
inputs always produce identical bytes (no timestamps, hashes, or library
version strings in the output).
"""

from __future__ import annotations

import numpy as np

PALETTE = [
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
    "#ffbb78",
]

CHART_WIDTH_PX, CHART_HEIGHT_PX = 640, 360  # line chart canvas
CELL_PX = 18  # heat map cell edge
SCALE_PX_PER_M = 24.0  # trajectory plot scale


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _document(width, height, parts: list[str]) -> str:
    """An SVG document of ``parts``: the ``<svg>`` head, the parts one per
    line, the closing tag and a final newline."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    return "\n".join([head, *parts, "</svg>"]) + "\n"


def _axis_range(values) -> tuple[float, float]:
    lo, hi = float(min(values)), float(max(values))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def line_chart_svg(series: list[tuple[str, list, list, str]], x_label: str = "", y_label: str = "") -> str:
    """Polyline chart.  ``series`` entries are (label, xs, ys, css style)."""
    width, height = CHART_WIDTH_PX, CHART_HEIGHT_PX
    margin = 48
    all_x = [x for _, xs, _, _ in series for x in xs]
    all_y = [y for _, _, ys, _ in series for y in ys]
    if not all_x:
        raise ValueError("no data to plot")
    x_lo, x_hi = _axis_range(all_x)
    y_lo, y_hi = _axis_range(all_y)

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#333333"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#333333"/>',
    ]
    for tick in np.linspace(x_lo, x_hi, 5):
        x = sx(tick)
        parts.append(f'<text x="{_fmt(x)}" y="{height - margin + 16}" font-size="10" text-anchor="middle">{tick:.3g}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        y = sy(tick)
        parts.append(f'<text x="{margin - 6}" y="{_fmt(y + 3)}" font-size="10" text-anchor="end">{tick:.3g}</text>')
    if x_label:
        parts.append(f'<text x="{width // 2}" y="{height - 8}" font-size="11" text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(
            f'<text x="12" y="{height // 2}" font-size="11" text-anchor="middle" '
            f'transform="rotate(-90 12 {height // 2})">{y_label}</text>'
        )

    legend_y = margin - 24
    for i, (label, xs, ys, style) in enumerate(series):
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" style="{style}"/>')
        lx = margin + 10 + i * 140
        parts.append(f'<line x1="{lx}" y1="{legend_y + 20}" x2="{lx + 24}" y2="{legend_y + 20}" style="{style}"/>')
        parts.append(f'<text x="{lx + 30}" y="{legend_y + 24}" font-size="11">{label}</text>')
    return _document(width, height, parts)


def grid_heatmap_svg(labels: np.ndarray, legend: list[str] | None = None) -> str:
    """Categorical heat map of an (ny, nx) integer label grid.  Row 0 is
    drawn at the bottom (world y up); label -1 renders as white."""
    labels = np.asarray(labels)
    ny, nx = labels.shape
    legend = legend or []
    legend_h = 22 if legend else 0
    width, height = nx * CELL_PX, ny * CELL_PX + legend_h
    parts = []
    for iy in range(ny):
        for ix in range(nx):
            label = int(labels[iy, ix])
            color = "#ffffff" if label < 0 else PALETTE[label % len(PALETTE)]
            x = ix * CELL_PX
            y = (ny - 1 - iy) * CELL_PX
            parts.append(f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" fill="{color}"/>')
    for i, name in enumerate(legend):
        color = PALETTE[i % len(PALETTE)]
        x = 4 + i * 110
        y = ny * CELL_PX + 6
        parts.append(f'<rect x="{x}" y="{y}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{y + 10}" font-size="11">{name}</text>')
    return _document(width, height, parts)


def trajectory_svg(paths: list[tuple[str, np.ndarray, str]], width_m: float, height_m: float) -> str:
    """Top-down trajectory plot.  ``paths`` entries are (label, (n, 2) xy
    array, css style); world y points up."""
    width = int(width_m * SCALE_PX_PER_M) + 40
    height = int(height_m * SCALE_PX_PER_M) + 40

    def sx(x: float) -> float:
        return 20 + x * SCALE_PX_PER_M

    def sy(y: float) -> float:
        return height - 20 - y * SCALE_PX_PER_M

    parts = [
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="20" y="20" width="{_fmt(width_m * SCALE_PX_PER_M)}" height="{_fmt(height_m * SCALE_PX_PER_M)}" '
        f'fill="none" stroke="#999999"/>',
    ]
    for i, (label, xy, style) in enumerate(paths):
        xy = np.asarray(xy)
        points = " ".join(f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}" for x, y in xy)
        parts.append(f'<polyline points="{points}" style="{style}"/>')
        parts.append(f'<text x="24" y="{34 + 14 * i}" font-size="11" style="{style.replace("fill:none;", "")}">{label}</text>')
    return _document(width, height, parts)
