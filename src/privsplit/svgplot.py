"""Minimal deterministic SVG 1.1 scatter grids (no plotting dependency).

Output bytes depend only on the input points, so reruns of a seeded
experiment produce bitwise-identical files.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass

import numpy as np

PANEL = 220
MARGIN = 14
TITLE_H = 18


@dataclass
class Panel:
    """One scatter panel: `points` is an (n, 2) float array of (x, y) rows and
    `colors` holds the fill color of each row; panels may share one list."""

    title: str
    points: np.ndarray
    colors: list[str]


def cluster_color(cluster_id: int) -> str:
    """Stable hex color per cluster id (golden-angle hue walk)."""
    hue = (0.12 + 0.61803398875 * int(cluster_id)) % 1.0
    r, g, b = colorsys.hls_to_rgb(hue, 0.45, 0.85)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _bounds(rows: list[list[Panel]]) -> tuple[float, float, float, float]:
    panels = [panel for row in rows for panel in row if len(panel.points)]
    if not panels:
        return -1.0, 1.0, -1.0, 1.0
    x0 = float(min(panel.points[:, 0].min() for panel in panels))
    x1 = float(max(panel.points[:, 0].max() for panel in panels))
    y0 = float(min(panel.points[:, 1].min() for panel in panels))
    y1 = float(max(panel.points[:, 1].max() for panel in panels))
    pad_x = 0.05 * (x1 - x0 or 1.0)
    pad_y = 0.05 * (y1 - y0 or 1.0)
    return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y


def scatter_grid(rows: list[list[Panel]], path) -> None:
    """Write a grid of scatter panels; all panels share one data scale.

    Each circle is written as it is formatted, so the file is never held
    in memory.
    """
    cols = max(len(row) for row in rows)
    width = MARGIN + cols * (PANEL + MARGIN)
    height = MARGIN + len(rows) * (PANEL + TITLE_H + MARGIN)
    x0, x1, y0, y1 = _bounds(rows)

    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n')
        fh.write(f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n')
        for r, row in enumerate(rows):
            oy = MARGIN + r * (PANEL + TITLE_H + MARGIN) + TITLE_H
            for c, panel in enumerate(row):
                ox = MARGIN + c * (PANEL + MARGIN)
                fh.write(f'<text x="{ox}" y="{oy - 5}" font-family="monospace" '
                         f'font-size="12">{panel.title}</text>\n')
                fh.write(f'<rect x="{ox}" y="{oy}" width="{PANEL}" height="{PANEL}" '
                         f'fill="none" stroke="#888888"/>\n')
                # elementwise float64, so each coordinate equals the one-point formula bitwise
                cx = ox + (panel.points[:, 0] - x0) / (x1 - x0) * PANEL
                cy = oy + (y1 - panel.points[:, 1]) / (y1 - y0) * PANEL
                fh.writelines(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="{color}"/>\n'
                              for x, y, color in zip(cx.tolist(), cy.tolist(), panel.colors))
        fh.write("</svg>\n")
