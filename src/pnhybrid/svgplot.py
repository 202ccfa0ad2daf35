"""Hand-rolled SVG log-log plots.

No plotting dependency: axes, decade ticks, grid lines, polylines, and
markers are written directly. All coordinates are formatted with fixed
precision so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math

_WIDTH = 640.0
_HEIGHT = 480.0
_ML, _MR, _MT, _MB = 72.0, 24.0, 36.0, 56.0

_COLORS = {
    "error": "#1f77b4",
    "bound": "#d62728",
}
_FALLBACK = "#2ca02c"


def _f(x: float) -> str:
    return f"{x:.2f}"


def _decades(lo: float, hi: float):
    start = math.floor(lo)
    stop = math.ceil(hi)
    if stop == start:
        stop = start + 1
    return list(range(start, stop + 1))


def _tick_label(exp: int) -> str:
    return f"1e{exp:+03d}"


def _header(title: str) -> list:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect x="0" y="0" width="{int(_WIDTH)}" height="{int(_HEIGHT)}" '
        f'fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_f(_WIDTH / 2)}" y="22" text-anchor="middle" '
                   f'font-family="monospace" font-size="14">{title}</text>')
    return out


def note_plot(note: str, title: str = "") -> str:
    """An axis-free figure carrying only a title and a centered note, for
    data that has nothing to draw on log-log axes."""
    out = _header(title)
    out.append(f'<text x="{_f(_WIDTH / 2)}" y="{_f(_HEIGHT / 2)}" '
               f'text-anchor="middle" font-family="monospace" '
               f'font-size="12">{note}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def log_log_plot(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render series = [(label, [(x, y), ...], style), ...] on log-log axes.

    style: "markers" draws a line with circle markers, "dashed" a dashed
    line. Points with nonpositive coordinates are dropped; a series that
    loses every point is an error.
    """
    if not series:
        raise ValueError("nothing to plot")
    cleaned = []
    for label, pts, style in series:
        kept = [(float(x), float(y)) for x, y in pts if x > 0.0 and y > 0.0]
        if not kept:
            raise ValueError(f"series {label!r} has no positive points to plot")
        cleaned.append((label, sorted(kept), style))

    lxs = [math.log10(x) for _, pts, _ in cleaned for x, _ in pts]
    lys = [math.log10(y) for _, pts, _ in cleaned for _, y in pts]
    lx0, lx1 = min(lxs), max(lxs)
    ly0, ly1 = min(lys), max(lys)
    if lx1 - lx0 < 1e-12:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    if ly1 - ly0 < 1e-12:
        ly0, ly1 = ly0 - 0.5, ly1 + 0.5
    # pad 5% so markers don't kiss the frame
    padx = 0.05 * (lx1 - lx0)
    pady = 0.05 * (ly1 - ly0)
    lx0, lx1 = lx0 - padx, lx1 + padx
    ly0, ly1 = ly0 - pady, ly1 + pady

    iw = _WIDTH - _ML - _MR
    ih = _HEIGHT - _MT - _MB

    def px(lx: float) -> float:
        return _ML + (lx - lx0) / (lx1 - lx0) * iw

    def py(ly: float) -> float:
        return _MT + (ly1 - ly) / (ly1 - ly0) * ih

    out = _header(title)

    # frame
    out.append(
        f'<rect x="{_f(_ML)}" y="{_f(_MT)}" width="{_f(iw)}" height="{_f(ih)}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )

    for exp in _decades(lx0, lx1):
        if not lx0 <= exp <= lx1:
            continue
        x = px(exp)
        out.append(f'<line x1="{_f(x)}" y1="{_f(_MT)}" x2="{_f(x)}" '
                   f'y2="{_f(_MT + ih)}" stroke="#cccccc" stroke-width="0.5"/>')
        out.append(f'<text x="{_f(x)}" y="{_f(_MT + ih + 18)}" text-anchor="middle" '
                   f'font-family="monospace" font-size="11">{_tick_label(exp)}</text>')
    for exp in _decades(ly0, ly1):
        if not ly0 <= exp <= ly1:
            continue
        y = py(exp)
        out.append(f'<line x1="{_f(_ML)}" y1="{_f(y)}" x2="{_f(_ML + iw)}" '
                   f'y2="{_f(y)}" stroke="#cccccc" stroke-width="0.5"/>')
        out.append(f'<text x="{_f(_ML - 6)}" y="{_f(y + 4)}" text-anchor="end" '
                   f'font-family="monospace" font-size="11">{_tick_label(exp)}</text>')

    if xlabel:
        out.append(f'<text x="{_f(_ML + iw / 2)}" y="{_f(_HEIGHT - 12)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="12">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{_f(_MT + ih / 2)}" text-anchor="middle" '
                   f'font-family="monospace" font-size="12" '
                   f'transform="rotate(-90 16 {_f(_MT + ih / 2)})">{ylabel}</text>')

    legend_y = _MT + 14.0
    for label, pts, style in cleaned:
        color = _COLORS.get(label, _FALLBACK)
        coords = " ".join(
            f"{_f(px(math.log10(x)))},{_f(py(math.log10(y)))}" for x, y in pts
        )
        dash = ' stroke-dasharray="6,4"' if style == "dashed" else ""
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        if style == "markers":
            for x, y in pts:
                out.append(f'<circle cx="{_f(px(math.log10(x)))}" '
                           f'cy="{_f(py(math.log10(y)))}" r="3.5" fill="{color}"/>')
        lx = _ML + iw - 150.0
        out.append(f'<line x1="{_f(lx)}" y1="{_f(legend_y)}" x2="{_f(lx + 24)}" '
                   f'y2="{_f(legend_y)}" stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{_f(lx + 30)}" y="{_f(legend_y + 4)}" '
                   f'font-family="monospace" font-size="11">{label}</text>')
        legend_y += 16.0

    out.append("</svg>")
    return "\n".join(out) + "\n"
