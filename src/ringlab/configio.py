"""Text formats, canonical JSON, and SVG rendering.

Configuration files:

    ringlab-config v1
    # comment
    face <x> <y> <U|D> <0|1|2|->

A ``-`` label puts the face in the window without marking it.  A
``period <n>`` line, which earlier versions wrote, is read and ignored.
Distribution files use the header ``ringlab-dist v1`` and lines
``vertex <x> <y> <A0|A1|A2|->``, where ``-`` again marks an unassigned
in-window vertex.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import Dict, List, Optional, Set, Tuple

from .labeling import edge_label
from .lattice import (
    AXES,
    AXIS_BY_NAME,
    AXIS_NAMES,
    AXIS_STEPS,
    Edge,
    Face,
    Vertex,
    edge_vertices,
    face_edges,
    face_vertices,
    runs,
)
from .engine import UNSET, Configuration, make_config
from .distributions import Distribution

CONFIG_HEADER = "ringlab-config v1"
DIST_HEADER = "ringlab-dist v1"

_SQ3_2 = math.sqrt(3.0) / 2.0

FACE_FILL = {0: "#dce9f9", 1: "#f9dcdc", 2: "#ddf2dd", None: "#ffffff"}
AXIS_STROKE = "#1a56b0"
D0_STROKE = "#c0392b"


def data_text(name: str) -> str:
    """Text of a packaged data file."""
    return (resources.files("ringlab") / "data" / name).read_text()


def _is_type(obj, name: str) -> bool:
    if name == "object":
        return isinstance(obj, dict)
    if name == "array":
        return isinstance(obj, list)
    if name == "string":
        return isinstance(obj, str)
    if name == "boolean":
        return isinstance(obj, bool)
    if name == "integer":
        return isinstance(obj, int) and not isinstance(obj, bool)
    if name == "number":
        return isinstance(obj, (int, float)) and not isinstance(obj, bool)
    if name == "null":
        return obj is None
    raise ValueError(f"unknown schema type {name!r}")


def _validate(obj, schema: dict, path: str) -> None:
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        if not any(_is_type(obj, x) for x in types):
            raise ValueError(f"{path}: expected {t}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise ValueError(f"{path}: {obj!r} not allowed")
    if isinstance(obj, dict):
        props = schema.get("properties", {})
        for k in schema.get("required", ()):
            if k not in obj:
                raise ValueError(f"{path}: missing key {k!r}")
        extra = schema.get("additionalProperties", True)
        for k, v in obj.items():
            if k in props:
                _validate(v, props[k], f"{path}.{k}")
            elif extra is False:
                raise ValueError(f"{path}: unexpected key {k!r}")
            elif isinstance(extra, dict):
                _validate(v, extra, f"{path}.{k}")
    elif isinstance(obj, list) and "items" in schema:
        for i, v in enumerate(obj):
            _validate(v, schema["items"], f"{path}[{i}]")


def report_schema() -> dict:
    """The shipped schema describing every JSON report shape."""
    return json.loads(data_text("report_schema.json"))


def validate_report(op: str, obj: dict) -> dict:
    """Check a JSON report against the shipped schema; raises ValueError."""
    reports = report_schema()["reports"]
    if op not in reports:
        raise ValueError(f"no schema for report {op!r}")
    _validate(obj, reports[op], op)
    return obj


def _content_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def parse_config(text: str) -> Configuration:
    """Parse the face-list format; raises ValueError with a line number."""
    lines = _content_lines(text)
    if not lines or lines[0][1] != CONFIG_HEADER:
        raise ValueError(f"line 1: expected header '{CONFIG_HEADER}'")
    marks: Dict[Face, int] = {}
    window: Set[Face] = set()
    has_period = False
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "period":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ValueError(f"line {lineno}: expected 'period <n>'")
            if has_period:
                raise ValueError(f"line {lineno}: duplicate period")
            has_period = True
            continue
        if parts[0] != "face" or len(parts) != 5:
            raise ValueError(
                f"line {lineno}: expected 'face <x> <y> <U|D> <0|1|2|->'"
            )
        try:
            x, y = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: bad coordinates {parts[1]} {parts[2]}")
        if parts[3] not in ("U", "D"):
            raise ValueError(f"line {lineno}: orientation must be U or D")
        f = Face(x, y, parts[3] == "U")
        if f in window:
            raise ValueError(f"line {lineno}: duplicate face {f}")
        window.add(f)
        if parts[4] == "-":
            continue
        if parts[4] not in ("0", "1", "2"):
            raise ValueError(f"line {lineno}: label must be 0, 1, 2 or -")
        marks[f] = int(parts[4])
    if not window:
        raise ValueError("no faces given")
    return make_config(marks, window=window)


def parse_file(text: str) -> Tuple[Optional[Configuration], Optional[Distribution]]:
    """A configuration file as (config, None) or a distribution file as
    (None, dist), told apart by the header line."""
    lines = _content_lines(text)
    head = lines[0][1] if lines else ""
    if head == CONFIG_HEADER:
        return parse_config(text), None
    if head == DIST_HEADER:
        return None, parse_distribution(text)
    raise ValueError("unrecognized header %r" % head)


def serialize_config(config: Configuration) -> str:
    lines = [CONFIG_HEADER]
    for f, label in zip(config.faces, config.labels):
        lines.append(
            "face %d %d %s %s"
            % (f.x, f.y, "U" if f.up else "D", "-" if label == UNSET else label)
        )
    return "\n".join(lines) + "\n"


def parse_distribution(text: str) -> Distribution:
    lines = _content_lines(text)
    if not lines or lines[0][1] != DIST_HEADER:
        raise ValueError(f"line 1: expected header '{DIST_HEADER}'")
    axis: Dict[Vertex, int] = {}
    window: Set[Vertex] = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] != "vertex" or len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'vertex <x> <y> <A0|A1|A2|->'")
        try:
            v = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: bad coordinates")
        if v in window:
            raise ValueError(f"line {lineno}: duplicate vertex {v}")
        window.add(v)
        if parts[3] == "-":
            continue
        if parts[3] not in AXIS_BY_NAME:
            raise ValueError(f"line {lineno}: axis must be A0, A1, A2, or -")
        axis[v] = AXIS_BY_NAME[parts[3]]
    if not window:
        raise ValueError("no vertices given")
    return Distribution(frozenset(window), axis)


def serialize_distribution(dist: Distribution) -> str:
    lines = [DIST_HEADER]
    for v in sorted(dist.window):
        a = dist.axis.get(v)
        name = "-" if a is None else AXIS_NAMES[a]
        lines.append("vertex %d %d %s" % (v[0], v[1], name))
    return "\n".join(lines) + "\n"


def to_json(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _xy(v: Vertex, scale: float) -> Tuple[float, float]:
    return ((v[0] + v[1] / 2.0) * scale, -(v[1] * _SQ3_2) * scale)


def _fmt(x: float) -> str:
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


def _d0_ray(dist: Distribution) -> Optional[List[Vertex]]:
    """Longest run of consecutive vertices whose axis equals the run direction."""
    best: Optional[List[Vertex]] = None
    for d in AXES:
        for run in runs({v for v, a in dist.axis.items() if a == d}, d):
            if len(run) >= 3 and (best is None or len(run) > len(best)):
                best = run
    return best


def render_svg(
    config: Optional[Configuration] = None,
    dist: Optional[Distribution] = None,
    scale: float = 40.0,
    show_face_labels: bool = True,
    show_edge_labels: bool = False,
    show_axes: bool = True,
    annotate_d0: bool = False,
) -> str:
    """Deterministic standalone SVG for a configuration and/or a distribution."""
    if config is None and dist is None:
        raise ValueError("nothing to render")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, not {scale}")
    body: List[str] = []
    points: List[Tuple[float, float]] = []

    if config is not None:
        for f in sorted(config.window):
            corners = [_xy(v, scale) for v in face_vertices(f)]
            points.extend(corners)
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
            fill = FACE_FILL[config.marks.get(f)]
            body.append(
                f'<polygon points="{pts}" fill="{fill}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
        if show_face_labels:
            for f in sorted(config.window):
                if f not in config.marks:
                    continue
                corners = [_xy(v, scale) for v in face_vertices(f)]
                cx = sum(p[0] for p in corners) / 3.0
                cy = sum(p[1] for p in corners) / 3.0
                body.append(
                    f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="{_fmt(scale * 0.38)}" '
                    f'font-family="sans-serif" text-anchor="middle" '
                    f'dominant-baseline="central">{config.marks[f]}</text>'
                )
        if show_edge_labels:
            edges: Set[Edge] = set()
            for f in config.window:
                edges.update(face_edges(f))
            for e in sorted(edges):
                u, w = edge_vertices(e)
                (x1, y1), (x2, y2) = _xy(u, scale), _xy(w, scale)
                mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
                body.append(
                    f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="{_fmt(scale * 0.22)}" '
                    f'font-family="sans-serif" text-anchor="middle" '
                    f'dominant-baseline="central" fill="#707070">{edge_label(e)}</text>'
                )

    if dist is not None:
        for v in sorted(dist.window):
            p = _xy(v, scale)
            points.append(p)
            a = dist.axis.get(v) if show_axes else None
            if a is None:
                body.append(
                    f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="{_fmt(scale * 0.06)}" '
                    f'fill="#909090"/>'
                )
                continue
            sx, sy = AXIS_STEPS[a]
            dx, dy = _xy((sx, sy), 1.0)
            norm = math.hypot(dx, dy)
            dx, dy = dx / norm * scale * 0.32, dy / norm * scale * 0.32
            body.append(
                f'<line x1="{_fmt(p[0] - dx)}" y1="{_fmt(p[1] - dy)}" '
                f'x2="{_fmt(p[0] + dx)}" y2="{_fmt(p[1] + dy)}" '
                f'stroke="{AXIS_STROKE}" stroke-width="{_fmt(scale * 0.09)}" '
                f'stroke-linecap="round"/>'
            )
        if annotate_d0:
            ray = _d0_ray(dist)
            if ray is not None:
                pts = " ".join(
                    f"{_fmt(x)},{_fmt(y)}" for x, y in (_xy(v, scale) for v in ray)
                )
                body.append(
                    f'<polyline points="{pts}" fill="none" stroke="{D0_STROKE}" '
                    f'stroke-width="{_fmt(scale * 0.08)}" stroke-dasharray="6 4"/>'
                )

    margin = scale * 0.8
    x0 = min(p[0] for p in points) - margin
    y0 = min(p[1] for p in points) - margin
    x1 = max(p[0] for p in points) + margin
    y1 = max(p[1] for p in points) + margin
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"
