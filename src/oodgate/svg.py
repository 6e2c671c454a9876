"""Dependency-free SVG rendering for ROC curves and sweep charts.

Output is deterministic (fixed float formatting) so rendered files can be
compared byte-for-byte in tests and pipelines. Label text is XML-escaped.
"""

from __future__ import annotations

from .metrics import RocCurve

_SIZE = 480
_MARGIN = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_point = "{:.2f},{:.2f}".format


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _x(u: float) -> float:
    return _MARGIN + (_SIZE - 2 * _MARGIN) * u


def _y(v: float) -> float:
    return _SIZE - _MARGIN - (_SIZE - 2 * _MARGIN) * v


def _text(x, y, size: int, body: str, anchor: str = "middle", extra: str = "") -> str:
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body.translate(_ESCAPES)}</text>')


def _polyline(points, color: str, width: int) -> str:
    """One line through ``points``, an iterable of ``"x,y"`` strings."""
    pts = " ".join(points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def _frame(title: str, x_label: str, y_label: str) -> list[str]:
    mid = _SIZE // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        _text(mid, 24, 15, title),
        _polyline(map(_point, (_x(0), _x(0), _x(1)), (_y(1), _y(0), _y(0))), "black", 1),
    ]
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(_text(_fmt(_x(t)), _fmt(_y(0) + 18), 11, f"{t:g}"))
        parts.append(_text(_fmt(_x(0) - 8), _fmt(_y(t) + 4), 11, f"{t:g}", "end"))
    parts.append(_text(mid, _SIZE - 12, 13, x_label))
    parts.append(_text(16, mid, 13, y_label, extra=f' transform="rotate(-90 16 {mid})"'))
    return parts


def roc_svg(curve: RocCurve) -> str:
    """Standalone SVG: unit square, staircase polyline, diagonal reference."""
    parts = _frame("ROC", "FPR", "TPR")
    parts.append(
        f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(1))}" '
        f'y2="{_fmt(_y(1))}" stroke="#999999" stroke-width="1" stroke-dasharray="5,4"/>'
    )
    pts = map(_point, _x(curve.fpr).tolist(), _y(curve.tpr).tolist())
    return "\n".join(parts + [_polyline(pts, _PALETTE[0], 2), "</svg>", ""])


def series_svg(x_labels: list[str], series: dict[str, list[float]], title: str) -> str:
    """Line chart of AUROC per method over categorical grid positions."""
    parts = _frame(title, "", "AUROC")
    k = max(len(x_labels) - 1, 1)
    for i, label in enumerate(x_labels):
        parts.append(_text(_fmt(_x(i / k)), _fmt(_y(0) + 34), 11, label))
    for s_idx, (name, values) in enumerate(series.items()):
        color = _PALETTE[s_idx % len(_PALETTE)]
        xy = [(_fmt(_x(i / k)), _fmt(_y(min(max(v, 0.0), 1.0)))) for i, v in enumerate(values)]
        parts.append(_polyline([f"{x},{y}" for x, y in xy], color, 2))
        parts.extend(f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>' for x, y in xy)
        legend_y = _fmt(_MARGIN + 16 * s_idx)
        parts.append(_text(_fmt(_x(1) - 4), legend_y, 12, name, "end", f' fill="{color}"'))
    return "\n".join(parts + ["</svg>", ""])
