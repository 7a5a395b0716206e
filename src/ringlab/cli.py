"""Command line interface for table queries, checking, enumeration, rendering.

Exit codes: 0 success (Valid / true), 1 Contradiction or negative answer,
2 for usage, input or internal errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import lru_cache
from typing import Optional, Sequence

from . import reports
from .catalog import (
    IncongruentWindows,
    assemble,
    get_strip,
    isomorphic,
    special_puzzle,
    stacking_words,
    strip_variants,
)
from .configio import (
    parse_config,
    parse_distribution,
    parse_file,
    render_svg,
    serialize_config,
    serialize_distribution,
    to_json,
    validate_report,
)
from .distributions import (
    DistContradiction,
    all_faces_odd,
    build_D0,
    classify_distribution,
    dist_propagate,
    hex_window,
    interior_faces,
)
from .engine import (
    CONTRADICTION,
    VALID,
    check,
    enumerate_completions,
)
from .labeling import derive_edge_labels, square_window
from .lattice import AXIS_NAMES, ball, up
from .rings import (
    DEFAULT_MODE,
    MODE_ROT,
    MODE_ROT_REF,
    all_embeddings,
    legal_words,
    multiplicity_table,
    ring_table,
    root_rank,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as fh:
        return fh.read()


def _emit(args, op: str, obj: dict, text: str) -> None:
    if args.json:
        validate_report(op, obj)
        print(to_json(obj), end="")
    elif text:
        print(text)


def _emit_or_write(args, op: str, obj: dict, text: str, summary: str) -> None:
    """With -o, write text to the file and emit the summary; else emit text."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _emit(args, op, obj, summary)
    else:
        _emit(args, op, obj, text.rstrip("\n"))


def cmd_rings(args) -> int:
    table = ring_table()
    mt = multiplicity_table()
    ranks = Counter(str(root_rank(d)) for d in mt)
    obj = {
        "rings": [
            {
                "s": r.s,
                "index": r.index,
                "faces": list(r.faces),
                "edges": list(r.edges),
            }
            for r in table
        ],
        "embeddings": len(all_embeddings()),
        "domains": len(mt),
        "multiplicities": sorted(set(mt.values())),
        "rank_axes": dict(sorted(ranks.items())),
        "legal_words": len(legal_words(args.symmetry)),
    }
    lines = [
        "s=%d index=%d faces=%s edges=%s"
        % (r.s, r.index, "".join(map(str, r.faces)), "".join(map(str, r.edges)))
        for r in table
    ]
    lines.append(
        "rings=%d domains=%d ranks=%s"
        % (len(table), len(mt), dict(sorted(ranks.items())))
    )
    _emit(args, "rings", obj, "\n".join(lines))
    return 0


def cmd_edge_labels(args) -> int:
    derived = derive_edge_labels(square_window(args.window))
    labels = [
        {"x": e.x, "y": e.y, "axis": AXIS_NAMES[e.axis], "label": l}
        for e, l in sorted(derived.items())
    ]
    obj = {"window": args.window, "count": len(labels), "labels": labels}
    text = "\n".join(
        "%d %d %s %d" % (r["x"], r["y"], r["axis"], r["label"]) for r in labels
    )
    _emit(args, "edge-labels", obj, text)
    return 0


def cmd_check(args) -> int:
    cfg = parse_config(_read(args.file))
    verdict = check(cfg, mode=args.symmetry)
    obj = {
        "status": verdict.status,
        "witnesses": [
            {"vertex": list(v), "reason": reason} for v, reason in verdict.witnesses
        ],
        "unmarked": [{"x": f.x, "y": f.y, "up": f.up} for f in verdict.unmarked],
    }
    lines = [verdict.status]
    for v, reason in verdict.witnesses:
        lines.append("at %s: %s" % (v, reason))
    _emit(args, "check", obj, "\n".join(lines))
    return 1 if verdict.status == CONTRADICTION else 0


def cmd_enumerate(args) -> int:
    cfg = parse_config(_read(args.file))
    target = cfg.window
    if args.radius is not None:
        target = target | ball(up(0, 0), args.radius)
    comps = enumerate_completions(cfg, target_window=target, mode=args.symmetry)
    obj = {
        "completions": len(comps),
        "configurations": [serialize_config(c) for c in comps],
    }
    text = "\n".join([str(len(comps))] + [serialize_config(c) for c in comps])
    _emit(args, "enumerate", obj, text)
    return 0 if comps else 1


def cmd_deadends(args) -> int:
    cfg = parse_config(_read(args.file))
    rep = reports.dead_end_report(cfg, args.radius, args.probe, mode=args.symmetry)
    text = "\n".join(
        [
            "completions at radius %d: %d" % (rep["radius"], rep["completions"]),
            "survivors at probe %d: %s" % (rep["probe"], rep["survivors"]),
            "dead ends: %s" % rep["dead_ends"],
            "dead end" if rep["is_dead_end"] else "extendable",
        ]
    )
    _emit(args, "deadends", rep, text)
    return 1 if rep["is_dead_end"] else 0


def cmd_strip(args) -> int:
    if args.width % 6:
        raise ValueError("width must be a multiple of 6 columns")
    spec = get_strip(args.height, args.index)
    tokens = None
    if args.word:
        keys = {v.key for v in strip_variants(args.height)}
        tokens = []
        for t in args.word.split(","):
            k, s = t.split(":", 1) if ":" in t else (None, t)
            if k is not None and k not in keys:
                raise ValueError(f"unknown strip key {k!r}")
            tokens.append((k, int(s)))
        if len(tokens) != args.rows:
            raise ValueError("word must list one entry per row")

    def fits(r: int, choice) -> bool:
        k, s = tokens[r] if tokens else (None, choice[1])
        return ((r > 0 or choice[0] == spec.key) and k in (None, choice[0])
                and s % 6 == choice[1])

    word = next(stacking_words(args.height, args.rows, fits), None)
    if word is None:
        print("no compatible stacking word", file=sys.stderr)
        return 1
    cfg = assemble(word, width_periods=args.width // 6)
    verdict = check(cfg, mode=args.symmetry)
    obj = {
        "height": args.height,
        "index": args.index,
        "rows": args.rows,
        "width": args.width,
        "word": [s for _, s in word],
        "keys": [k for k, _ in word],
        "status": verdict.status,
        "faces": len(cfg.window),
    }
    _emit_or_write(args, "strip", obj, serialize_config(cfg),
                   "%s: %d faces" % (verdict.status, len(cfg.window)))
    return 0 if verdict.status == VALID else 1


def cmd_special(args) -> int:
    cfg = special_puzzle(args.index, args.radius)
    verdict = check(cfg, mode=args.symmetry)
    obj = {
        "index": args.index,
        "radius": args.radius,
        "status": verdict.status,
        "faces": len(cfg.window),
    }
    _emit_or_write(args, "special", obj, serialize_config(cfg),
                   "%s: %d faces" % (verdict.status, len(cfg.window)))
    return 0 if verdict.status == VALID else 1


def cmd_iso(args) -> int:
    a = parse_config(_read(args.file1))
    b = parse_config(_read(args.file2))
    try:
        g = isomorphic(a, b)
    except IncongruentWindows:
        _emit(args, "iso", {"isomorphic": False, "isometry": None}, "not isomorphic")
        return 1
    obj = {
        "isomorphic": g is not None,
        "isometry": None
        if g is None
        else {"rot": g.rot, "ref": g.ref, "tx": g.tx, "ty": g.ty},
    }
    text = (
        "not isomorphic"
        if g is None
        else "isomorphic: rot=%d ref=%s t=(%d,%d)" % (g.rot, g.ref, g.tx, g.ty)
    )
    _emit(args, "iso", obj, text)
    return 0 if g is not None else 1


def cmd_dist(args) -> int:
    if args.dist_cmd == "d0":
        dist = build_D0(hex_window(args.radius))
        obj = {
            "radius": args.radius,
            "vertices": len(dist.axis),
            "all_odd": all_faces_odd(dist),
            "distribution": serialize_distribution(dist),
        }
        _emit_or_write(args, "dist-d0", obj, serialize_distribution(dist),
                       "%d vertices" % len(dist.axis))
        return 0
    dist = parse_distribution(_read(args.file))
    if args.dist_cmd == "check":
        ok = all_faces_odd(dist)
        obj = {
            "vertices": len(dist.window),
            "faces": len(interior_faces(dist.window)),
            "all_odd": ok,
        }
        _emit(args, "dist-check", obj, "all odd" if ok else "not all odd")
        return 0 if ok else 1
    if args.dist_cmd == "propagate":
        try:
            out = dist_propagate(dist, refute=args.refute)
        except DistContradiction as exc:
            print("Contradiction: %s" % exc, file=sys.stderr)
            return 1
        obj = {
            "vertices": len(out.window),
            "assigned": len(out.axis),
            "distribution": serialize_distribution(out),
        }
        _emit(args, "dist-propagate", obj, serialize_distribution(out).rstrip("\n"))
        return 0
    family = classify_distribution(dist)
    _emit(args, "dist-classify", {"family": family}, family)
    return 0


def cmd_render(args) -> int:
    config, dist = parse_file(_read(args.file))
    svg = render_svg(
        config=config,
        dist=dist,
        scale=args.scale,
        show_face_labels=not args.no_face_labels,
        show_edge_labels=args.edge_labels,
        show_axes=not args.no_axes,
        annotate_d0=args.annotate_d0,
    )
    _emit_or_write(args, "render", {"svg": svg}, svg, "")
    return 0


def cmd_report(args) -> int:
    obj = reports.criterion_report(args.number)
    op = "criterion%d" % args.number
    validate_report(op, obj)
    print(to_json(obj), end="")
    return 0


def _arg(*flags, **kwargs):
    return flags, kwargs


# Each subcommand: its help, its handler and its arguments, in the order the
# usage line lists them.  dist's children follow in _DIST_COMMANDS.
_COMMANDS = {
    "rings": ("ring and rank tables", cmd_rings, ()),
    "edge-labels": ("canonical edge labels on a square window", cmd_edge_labels, (
        _arg("--window", type=int, default=12, help="window side (vertices)"),)),
    "check": ("check a configuration file", cmd_check, (_arg("file"),)),
    "enumerate": ("enumerate completions of a configuration", cmd_enumerate, (
        _arg("file"),
        _arg("--radius", type=int, help="extend the target window to this ball radius"))),
    "deadends": ("probe completions for dead ends", cmd_deadends, (
        _arg("file"),
        _arg("--radius", type=int, required=True, help="completion radius"),
        _arg("--probe", type=int, required=True, help="survival probe radius"))),
    "strip": ("assemble a strip stack", cmd_strip, (
        _arg("--height", type=int, choices=[1, 2], required=True),
        _arg("--index", type=int, required=True, help="strip table index"),
        _arg("--rows", type=int, default=4, help="rows to stack"),
        _arg("--width", type=int, default=12,
             help="width in lattice columns, a multiple of 6"),
        _arg("--word",
             help="comma-separated per-row shifts; a token key:shift pins that row's strip"),
        _arg("-o", "--output", help="write the configuration to a file"))),
    "special": ("one of the twelve special puzzles", cmd_special, (
        _arg("--index", type=int, required=True, help="1..12"),
        _arg("--radius", type=int, default=3, help="ball radius"),
        _arg("-o", "--output", help="write the configuration to a file"))),
    "iso": ("test two configurations for isomorphism", cmd_iso, (
        _arg("file1"), _arg("file2"))),
    "dist": ("root distribution tools", cmd_dist, ()),
    "render": ("render a configuration or distribution as SVG", cmd_render, (
        _arg("file"),
        _arg("-o", "--output", help="output SVG path (default stdout)"),
        _arg("--scale", type=float, default=40.0),
        _arg("--edge-labels", action="store_true", help="draw edge labels"),
        _arg("--no-face-labels", action="store_true"),
        _arg("--no-axes", action="store_true", help="suppress axis ticks"),
        _arg("--annotate-d0", action="store_true", help="dashed half-geodesic"))),
    "report": ("acceptance criterion report as JSON", cmd_report, (
        _arg("number", type=int, choices=range(1, 9), metavar="1..8"),)),
}

_DIST_COMMANDS = {
    "check": ("all faces odd?", (_arg("file"),)),
    "propagate": ("fill forced axes", (
        _arg("file"),
        _arg("--refute", action="store_true", help="rule out contradictory axes"))),
    "classify": ("name the distribution family", (_arg("file"),)),
    "d0": ("build the exceptional distribution", (
        _arg("--radius", type=int, default=6, help="hexagonal window radius"),
        _arg("-o", "--output", help="write the distribution to a file"))),
}


def _add_parser(sub, common, name: str, about: str, arguments) -> argparse.ArgumentParser:
    p = sub.add_parser(name, parents=[common], help=about)
    for flags, kwargs in arguments:
        p.add_argument(*flags, **kwargs)
    return p


@lru_cache(maxsize=None)
def build_parser(cmd: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser with every subcommand, or with cmd's alone (and, for
    dist, its children).  The usage line lists every subcommand either way:
    one alone is built only for an argv that names it where argparse reads
    it, so only the full parser reports a missing or unknown one."""
    # the global flags are accepted before and after the subcommand; SUPPRESS
    # keeps a subcommand parse from clobbering a value given before it, and
    # main passes the defaults in the namespace (set_defaults would rewrite
    # the default of the actions the subparsers share)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--symmetry", choices=[MODE_ROT, MODE_ROT_REF], default=argparse.SUPPRESS,
                        help=f"ring matching symmetry group (default {DEFAULT_MODE})")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    parser = argparse.ArgumentParser(prog="ringlab", parents=[common],
                                     description="Odd ring puzzle tables, search, and reports")
    # a metavar would also rename the argument in the full parser's errors
    metavar = None if cmd is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name in _COMMANDS if cmd is None else (cmd,):
        about, fn, arguments = _COMMANDS[name]
        p = _add_parser(sub, common, name, about, arguments)
        p.set_defaults(fn=fn)
        if name == "dist":
            dsub = p.add_subparsers(dest="dist_cmd", required=True)
            for child, (about, arguments) in _DIST_COMMANDS.items():
                _add_parser(dsub, common, child, about, arguments)
    return parser


def _command(argv: Sequence[str]) -> Optional[str]:
    """The subcommand argv runs when only plain global flags come before it
    and it asks for no help; otherwise None."""
    if "-h" in argv or "--help" in argv:
        return None
    i = 0
    while i < len(argv) and argv[i] in ("--json", "--symmetry"):
        i += 1 if argv[i] == "--json" else 2
    if i < len(argv) and argv[i] in _COMMANDS:
        return argv[i]
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    defaults = argparse.Namespace(symmetry=DEFAULT_MODE, json=False)
    args = build_parser(_command(argv)).parse_args(argv, defaults)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # an internal error must not pass for a negative answer (exit 1)
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
