"""Dependency-free SVG rendering for ROC curves and sweep charts.

Output is deterministic (fixed float formatting) so rendered files can be
compared byte-for-byte in tests and pipelines.
"""

from __future__ import annotations

from .metrics import RocCurve

_SIZE = 480
_MARGIN = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _x(u: float) -> float:
    return _MARGIN + (_SIZE - 2 * _MARGIN) * u


def _y(v: float) -> float:
    return _SIZE - _MARGIN - (_SIZE - 2 * _MARGIN) * v


def _frame(title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<text x="{_SIZE / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    parts.append(
        f'<polyline points="{_fmt(_x(0))},{_fmt(_y(1))} {_fmt(_x(0))},{_fmt(_y(0))} '
        f'{_fmt(_x(1))},{_fmt(_y(0))}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{_fmt(_x(t))}" y="{_fmt(_y(0) + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
        parts.append(
            f'<text x="{_fmt(_x(0) - 8)}" y="{_fmt(_y(t) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_SIZE / 2:.0f}" y="{_SIZE - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_SIZE / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_SIZE / 2:.0f})">{y_label}</text>'
    )
    return parts


def roc_svg(curve: RocCurve) -> str:
    """Standalone SVG: unit square, staircase polyline, diagonal reference."""
    parts = _frame("ROC", "FPR", "TPR")
    parts.append(
        f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(1))}" '
        f'y2="{_fmt(_y(1))}" stroke="#999999" stroke-width="1" stroke-dasharray="5,4"/>'
    )
    pts = " ".join(
        f"{_fmt(_x(f))},{_fmt(_y(t))}" for f, t in zip(curve.fpr, curve.tpr)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="{_PALETTE[0]}" stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def series_svg(x_labels: list[str], series: dict[str, list[float]], title: str) -> str:
    """Line chart of AUROC per method over categorical grid positions."""
    parts = _frame(title, "", "AUROC")
    k = max(len(x_labels) - 1, 1)
    for i, label in enumerate(x_labels):
        parts.append(
            f'<text x="{_fmt(_x(i / k))}" y="{_fmt(_y(0) + 34)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for s_idx, (name, values) in enumerate(series.items()):
        color = _PALETTE[s_idx % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(_x(i / k))},{_fmt(_y(min(max(v, 0.0), 1.0)))}"
            for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for i, v in enumerate(values):
            parts.append(
                f'<circle cx="{_fmt(_x(i / k))}" cy="{_fmt(_y(min(max(v, 0.0), 1.0)))}" '
                f'r="3" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_fmt(_x(1) - 4)}" y="{_fmt(_MARGIN + 16 * s_idx)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
