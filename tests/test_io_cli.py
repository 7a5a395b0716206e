"""File formats, JSON schema validation, SVG rendering, CLI behavior."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringlab import catalog, cli
from ringlab.catalog import special_puzzle
from ringlab.configio import (
    CONFIG_HEADER,
    DIST_HEADER,
    data_text,
    parse_config,
    parse_distribution,
    render_svg,
    report_schema,
    serialize_config,
    serialize_distribution,
    to_json,
    validate_report,
)
from ringlab.distributions import T0_SEED, Distribution, build_D0, hex_window
from ringlab.engine import enumerate_completions, make_config
from ringlab.lattice import ball, down, up

BALL3 = sorted(ball(up(0, 0), 3))
HEX3 = sorted(hex_window(3))


@st.composite
def partial_configs(draw):
    """A window of 1-12 faces of the radius-3 ball, some of them marked."""
    window = draw(st.sets(st.sampled_from(BALL3), min_size=1, max_size=12))
    labels = draw(st.lists(st.sampled_from((None, 0, 1, 2)),
                           min_size=len(window), max_size=len(window)))
    marks = {f: l for f, l in zip(sorted(window), labels) if l is not None}
    return make_config(marks, window=window)


@settings(max_examples=100, deadline=None)
@given(partial_configs())
@example(make_config({up(0, 0): 0, down(0, 0): 2},
                     window=frozenset({up(0, 0), down(0, 0), up(1, 0)})))
def test_config_round_trip(cfg):
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.marks == cfg.marks
    assert again.window == cfg.window
    assert serialize_config(again) == text


def test_a_period_line_is_read_and_dropped():
    faces = "face 0 0 D -\nface 0 0 U 1\n"
    cfg = parse_config(f"{CONFIG_HEADER}\nperiod 6\n{faces}")
    assert cfg == parse_config(f"{CONFIG_HEADER}\n{faces}")
    assert serialize_config(cfg) == f"{CONFIG_HEADER}\n{faces}"


def test_parse_single_face():
    cfg = parse_config(f"{CONFIG_HEADER}\nface 0 0 U 0\n")
    assert cfg.marks == {up(0, 0): 0}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("garbage\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_config(f"{CONFIG_HEADER}\nface 0 0 U 0\nface 0 0 U 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config(f"{CONFIG_HEADER}\nface 0 0 X 0\n")
    # a digit str.isdigit accepts but int does not read
    with pytest.raises(ValueError, match="line 2: expected 'period <n>'"):
        parse_config(f"{CONFIG_HEADER}\nperiod \u00b2\nface 0 0 U 0\n")


def test_comments_and_blanks_are_ignored():
    text = f"{CONFIG_HEADER}\n# note\n\nface 0 0 U 1  # trailing\n"
    assert parse_config(text).marks == {up(0, 0): 1}


@st.composite
def partial_distributions(draw):
    """A window of 1-12 vertices of the radius-3 hexagon, some of them given
    an axis."""
    window = draw(st.sets(st.sampled_from(HEX3), min_size=1, max_size=12))
    axes = draw(st.lists(st.sampled_from((None, 0, 1, 2)),
                         min_size=len(window), max_size=len(window)))
    axis = {v: a for v, a in zip(sorted(window), axes) if a is not None}
    return Distribution(window, axis)


@settings(max_examples=100, deadline=None)
@given(partial_distributions())
@example(Distribution({(0, 0), (1, 0), (2, 0)}, {(0, 0): 0, (1, 0): 2}))
def test_distribution_round_trip_with_unassigned(dist):
    text = serialize_distribution(dist)
    for v in dist.window - set(dist.axis):
        assert "vertex %d %d -" % v in text
    again = parse_distribution(text)
    assert again.axis == dist.axis
    assert again.window == dist.window
    assert serialize_distribution(again) == text


def test_distribution_duplicate_vertex_is_an_error():
    with pytest.raises(ValueError, match="duplicate"):
        parse_distribution(f"{DIST_HEADER}\nvertex 0 0 A0\nvertex 0 0 A1\n")


def test_to_json_is_canonical():
    assert to_json({"b": 1, "a": [2, 1]}) == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


def test_schema_covers_every_cli_op():
    ops = set(report_schema()["reports"])
    assert {
        "rings",
        "edge-labels",
        "check",
        "enumerate",
        "deadends",
        "strip",
        "special",
        "iso",
        "dist-check",
        "dist-propagate",
        "dist-classify",
        "dist-d0",
        "render",
    } <= ops
    assert {"criterion%d" % n for n in range(1, 9)} <= ops


def test_validate_report_rejects_bad_shapes():
    good = {
        "edges": 1,
        "matches_closed_form": True,
        "three_periodic": True,
        "bottom_row_cycles": True,
    }
    assert validate_report("criterion1", good) is good
    with pytest.raises(ValueError, match="missing key"):
        validate_report("criterion1", {"edges": 1})
    with pytest.raises(ValueError, match="expected"):
        validate_report("criterion1", dict(good, edges=True))
    with pytest.raises(ValueError, match="unexpected key"):
        validate_report("criterion1", dict(good, extra=1))
    with pytest.raises(ValueError, match="no schema"):
        validate_report("nonsense", {})


def test_render_single_face():
    svg = render_svg(config=make_config({up(0, 0): 0}))
    assert svg.count("<polygon") == 1
    assert svg.count(">0</text>") == 1
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_render_is_deterministic():
    cfg = special_puzzle(2, 2)
    assert render_svg(config=cfg) == render_svg(config=cfg)


def test_render_options_change_the_element_mix():
    cfg = parse_config(data_text("window_quad.txt"))
    base = render_svg(config=cfg)
    no_labels = render_svg(config=cfg, show_face_labels=False)
    with_edges = render_svg(config=cfg, show_edge_labels=True)
    assert no_labels.count("<text") < base.count("<text")
    assert with_edges.count("<text") > base.count("<text")


def test_render_distribution_ticks_and_d0_overlay():
    dist = build_D0(hex_window(2))
    ticks = render_svg(dist=dist)
    dots = render_svg(dist=dist, show_axes=False)
    assert ticks.count("<line") == len(dist.axis)
    assert dots.count("<line") == 0
    assert dots.count("<circle") == len(dist.window)
    annotated = render_svg(dist=dist, annotate_d0=True)
    assert annotated.count("<polyline") == 1


# SHA-256 of the annotated D0 on the radius-6 hexagon: its axis ticks, and
# the dashed overlay along D0's one longest run of axes aligned with it.
D0_ANNOTATED_R6_SHA256 = (
    "2ea06179beaaa0b37003bb4233552c49b42427f882c9bbc9f225cd42d9a79921"
)


def test_annotated_d0_is_byte_stable():
    svg = render_svg(dist=build_D0(hex_window(6)), annotate_d0=True)
    assert hashlib.sha256(svg.encode()).hexdigest() == D0_ANNOTATED_R6_SHA256


def test_render_needs_something():
    with pytest.raises(ValueError):
        render_svg()


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_cli_check_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.txt"
    ok.write_text(f"{CONFIG_HEADER}\nface 0 0 U 0\n")
    rc, out = run_cli(capsys, "check", str(ok))
    assert rc == 0 and "Valid" in out

    bad = tmp_path / "bad.txt"
    bad.write_text(
        f"{CONFIG_HEADER}\nface 0 0 U 0\nface 0 -1 D 0\nface -1 0 D 0\nface 0 0 D 0\n"
    )
    rc, out = run_cli(capsys, "check", str(bad))
    assert rc == 1 and "Contradiction" in out

    rc, _ = run_cli(capsys, "check", str(tmp_path / "missing.txt"))
    assert rc == 2

    for period, error in (("period x", "expected 'period <n>'"),
                          ("period 6\nperiod 6", "line 4: duplicate period")):
        ok.write_text(f"{CONFIG_HEADER}\nface 0 0 U 0\n{period}\n")
        assert cli.main(["check", str(ok)]) == 2
        assert error in capsys.readouterr().err


def test_cli_json_outputs_validate(tmp_path, capsys):
    quad = tmp_path / "quad.txt"
    quad.write_text(data_text("window_quad.txt"))
    rc, out = run_cli(capsys, "--json", "enumerate", str(quad))
    assert rc == 0
    obj = json.loads(out)
    validate_report("enumerate", obj)
    assert obj["completions"] == 4
    for text in obj["configurations"]:
        parse_config(text)
    rc, out = run_cli(capsys, "--json", "enumerate", str(quad), "--radius", "2")
    assert rc == 0
    obj = json.loads(out)
    validate_report("enumerate", obj)
    cfg = parse_config(quad.read_text())
    want = enumerate_completions(cfg, cfg.window | ball(up(0, 0), 2))
    assert obj["completions"] == len(want) == 9
    assert list(map(parse_config, obj["configurations"])) == want


def test_cli_deadends_exit_code(tmp_path, capsys):
    dead = tmp_path / "dead.txt"
    dead.write_text(data_text("deadend_quad2.txt"))
    rc, out = run_cli(capsys, "--json", "deadends", str(dead), "--radius", "2", "--probe", "3")
    assert rc == 1
    assert json.loads(out)["is_dead_end"] is True


# SHA-256 of repr((argv, exit code, stdout)) for `deadends` at radius 2 and
# probe 4, keyed by the argv joined by spaces, the input named by its file
# name: the two drawings of section 2 and a one-face seed, plain and
# --json, in both symmetry modes.
DEADENDS_SHA256 = {
    "--symmetry rot deadends window_quad.txt --radius 2 --probe 4":
        "a45844fcd3c67ee4ee759724f496b18439909553133871612c00b1ac0a6710a8",
    "--json --symmetry rot deadends window_quad.txt --radius 2 --probe 4":
        "595132e54aed2957d4e9de2852ccc86dd44cb77b5e3b99e03ad0ca92145a11cf",
    "--symmetry rot+ref deadends window_quad.txt --radius 2 --probe 4":
        "4143b5f7759fb234e21c76f98ec698d09939e5cd490577a48dfdef41d25f013d",
    "--json --symmetry rot+ref deadends window_quad.txt --radius 2 --probe 4":
        "fd6833b0464c73757e44f8a64ebb1972b8b9cd07284e3f40c3266107332c4704",
    "--symmetry rot deadends deadend_quad2.txt --radius 2 --probe 4":
        "aebdacce03761b50e76e024083ab8a126a98127fad9b926b052504d730009c62",
    "--json --symmetry rot deadends deadend_quad2.txt --radius 2 --probe 4":
        "5cba618d80b38731ad22a17e2e3e6e329465b20173a86b791cce55eddf4e723d",
    "--symmetry rot+ref deadends deadend_quad2.txt --radius 2 --probe 4":
        "3142ffe867265c9e9b173700420c04453b20812bcdd46646dee1e61a577be1c0",
    "--json --symmetry rot+ref deadends deadend_quad2.txt --radius 2 --probe 4":
        "f91f7ff94e08260d0636ed774778bfb691405acc02f8d5f9b7e7673bb2fe8a3f",
    "--symmetry rot deadends seed.txt --radius 2 --probe 4":
        "6474ca65bce9540d7068f70f90e5b9bc3553d72537d97fd6b12e8f9b1a1fd4e5",
    "--json --symmetry rot deadends seed.txt --radius 2 --probe 4":
        "2dca0180496a1847050bad918712546dae51d5171f4a85fc0a2eb0dc71605fec",
    "--symmetry rot+ref deadends seed.txt --radius 2 --probe 4":
        "27107f0a017d57a65ce5b719feb3f3ca174f640d4fdfa98e2ee1ab39cbd5d201",
    "--json --symmetry rot+ref deadends seed.txt --radius 2 --probe 4":
        "892446578fcec2c01dbfec5b08a86e5cd4f76aa1753f4b5d116d07171bddbc53",
}


def test_cli_deadends_bytes_are_frozen(tmp_path, capsys):
    inputs = {"window_quad.txt": data_text("window_quad.txt"),
              "deadend_quad2.txt": data_text("deadend_quad2.txt"),
              "seed.txt": f"{CONFIG_HEADER}\nface 0 0 U 0\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    digests = {}
    for key in DEADENDS_SHA256:
        argv = key.split()
        rc, out = run_cli(capsys, *[str(tmp_path / a) if a in inputs else a for a in argv])
        digests[key] = hashlib.sha256(repr((argv, rc, out)).encode()).hexdigest()
    assert digests == DEADENDS_SHA256


def test_cli_strip_and_iso(tmp_path, capsys):
    a = tmp_path / "a.txt"
    rc, _ = run_cli(capsys, "strip", "--height", "1", "--index", "1", "-o", str(a))
    assert rc == 0
    b = tmp_path / "b.txt"
    rc, _ = run_cli(capsys, "strip", "--height", "1", "--index", "2", "-o", str(b))
    assert rc == 0
    rc, out = run_cli(capsys, "--json", "iso", str(a), str(a))
    assert rc == 0 and json.loads(out)["isomorphic"] is True
    rc, out = run_cli(capsys, "--json", "iso", str(a), str(b))
    assert rc == 1 and json.loads(out)["isomorphic"] is False
    one = tmp_path / "one.txt"
    one.write_text(f"{CONFIG_HEADER}\nface 0 0 U 0\n")
    rc, out = run_cli(capsys, "--json", "iso", str(a), str(one))
    assert rc == 1 and json.loads(out) == {"isometry": None, "isomorphic": False}
    partial = tmp_path / "partial.txt"
    partial.write_text(f"{CONFIG_HEADER}\nface 0 0 U -\n")
    assert cli.main(["--json", "iso", str(partial), str(one)]) == 2
    assert "total on their windows" in capsys.readouterr().err


def test_cli_special_round_trip(tmp_path, capsys):
    f = tmp_path / "sp.txt"
    rc, _ = run_cli(capsys, "special", "--index", "4", "--radius", "2", "-o", str(f))
    assert rc == 0
    assert parse_config(f.read_text()).marks == special_puzzle(4, 2).marks


def test_cli_dist_pipeline(tmp_path, capsys):
    f = tmp_path / "d0.txt"
    rc, _ = run_cli(capsys, "dist", "d0", "--radius", "2", "-o", str(f))
    assert rc == 0
    rc, out = run_cli(capsys, "--json", "dist", "check", str(f))
    assert rc == 0 and json.loads(out)["all_odd"] is True
    rc, out = run_cli(capsys, "--json", "dist", "classify", str(f))
    assert rc == 0 and json.loads(out)["family"] == "SpecialD0"
    seed = tmp_path / "seed.txt"
    seed.write_text(serialize_distribution(Distribution(hex_window(2), T0_SEED)))
    rc, out = run_cli(capsys, "--json", "dist", "propagate", str(seed), "--refute")
    assert rc == 0
    obj = json.loads(out)
    validate_report("dist-propagate", obj)
    assert obj["assigned"] == obj["vertices"] == 19
    assert obj["distribution"] == f.read_text()


def test_cli_classifies_a_d0_beyond_radius_nine(tmp_path, capsys):
    # D0 matching follows the query's size, not a fixed reference patch
    f = tmp_path / "d0.txt"
    rc, _ = run_cli(capsys, "dist", "d0", "--radius", "10", "-o", str(f))
    assert rc == 0
    rc, out = run_cli(capsys, "--json", "dist", "classify", str(f))
    assert rc == 0 and json.loads(out)["family"] == "SpecialD0"


def test_cli_dist_propagate_rejects_a_given_even_face(tmp_path, capsys):
    f = tmp_path / "even.txt"
    # each corner of Up(0,0) on its opposite-side axis: no rank-2 corner
    axis = {(0, 0): 2, (1, 0): 1, (0, 1): 0}
    f.write_text(serialize_distribution(Distribution(hex_window(1), axis)))
    rc = cli.main(["dist", "propagate", str(f)])
    assert rc == 1
    assert capsys.readouterr().err == "Contradiction: face Up(0,0) is Even\n"


# SHA-256 of `ringlab rings` under --json and as text; both carry the 36 and
# 36 domains of ranks 2 and 3/2 that `root_rank` gives.
RINGS_JSON_SHA256 = "4e3b033389808068a7b195ac898c34920020ba78bc45a9a612180c153bc40dc2"
RINGS_TEXT_SHA256 = "4fa4b0b59bf99538575460ed5893fcd20b1aa223e0697fba819bbae60e69ba52"


def test_cli_rings_is_byte_stable(capsys):
    rc, first = run_cli(capsys, "--json", "rings")
    assert rc == 0
    rc, second = run_cli(capsys, "rings", "--json")
    assert rc == 0
    assert first == second
    validate_report("rings", json.loads(first))
    assert json.loads(first)["rank_axes"] == {"2": 36, "3/2": 36}
    assert hashlib.sha256(first.encode()).hexdigest() == RINGS_JSON_SHA256
    rc, text = run_cli(capsys, "rings")
    assert rc == 0 and text.endswith("ranks={'2': 36, '3/2': 36}\n")
    assert hashlib.sha256(text.encode()).hexdigest() == RINGS_TEXT_SHA256


# Standard-library modules that no ringlab start-up needs: dataclasses
# loads inspect, dis and ast; fractions loads decimal; importlib.resources
# loads pathlib and tempfile, and its readers use zipfile.
NOT_LOADED_AT_START = ("dataclasses", "inspect", "fractions", "decimal",
                       "importlib.resources", "pathlib", "tempfile", "zipfile")


def _start_up(code: str) -> str:
    """What the code prints in a fresh `python -S` process that finds
    ringlab in this checkout; -S keeps site-packages' .pth files from
    loading modules first."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return run.stdout


def test_start_up_loads_no_module_it_does_not_need():
    code = ("import sys, ringlab.cli, ringlab.reports; "
            f"print(sorted(set({NOT_LOADED_AT_START!r}) & set(sys.modules)))")
    assert _start_up(code) == "[]\n"


def test_start_up_builds_no_kernel_table():
    # tables are built by the cached functions that first need them
    # (the modules bind kernel.Table when imported, so they bind the wrapper)
    code = ("from ringlab import kernel; built = []; make = kernel.Table; "
            "kernel.Table = lambda *args: built.append(args[0]) or make(*args); "
            "import ringlab.cli, ringlab.reports; print(built)")
    assert _start_up(code) == "[]\n"


def test_data_text_reads_what_importlib_resources_reads():
    from importlib import resources  # the oracle; ringlab itself does not load it

    files = [p for p in (resources.files("ringlab") / "data").iterdir() if p.is_file()]
    assert len(files) == 24
    for path in files:
        assert data_text(path.name) == path.read_text(encoding="utf-8"), path.name


def test_cli_render_writes_svg(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text(f"{CONFIG_HEADER}\nface 0 0 U 2\n")
    out_path = tmp_path / "one.svg"
    rc, _ = run_cli(capsys, "render", str(src), "-o", str(out_path))
    assert rc == 0
    assert out_path.read_text().startswith("<svg ")
    src.write_text("ringlab-other v1\nface 0 0 U 2\n")
    assert cli.main(["render", str(src)]) == 2
    assert "unrecognized header 'ringlab-other v1'" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_cli_render_rejects_a_scale_that_draws_nothing(tmp_path, capsys, scale):
    src = tmp_path / "one.txt"
    src.write_text(f"{CONFIG_HEADER}\nface 0 0 U 2\n")
    assert cli.main(["render", str(src), f"--scale={scale}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: scale must be finite and positive")


TWO_FACES = f"{CONFIG_HEADER}\nface 0 0 U 0\nface 3 0 U 1\n"


@pytest.mark.parametrize("scale, why", [
    ("0.001", "scale must be finite and positive, at least 0.01, not 0.001"),
    ("0.00999", "scale must be finite and positive, at least 0.01, not 0.00999"),
    ("1e308", "scale 1e+308 draws past the largest float"),
])
def test_cli_render_rejects_a_scale_past_what_the_output_can_print(tmp_path, capsys, scale,
                                                                   why):
    # below 0.01 every point prints as 0.00; at 1e308 the viewBox is inf
    src = tmp_path / "two.txt"
    src.write_text(TWO_FACES)
    assert cli.main(["render", str(src), f"--scale={scale}"]) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")


@pytest.mark.parametrize("scale", [0.01, 1e300])
def test_cli_render_draws_at_the_extreme_scales_it_accepts(tmp_path, capsys, scale):
    src = tmp_path / "two.txt"
    src.write_text(TWO_FACES)
    rc, svg = run_cli(capsys, "render", str(src), f"--scale={scale}")
    assert rc == 0 and svg.count("<polygon") == 2 and "inf" not in svg
    # x from 0 to 4, y from -sqrt(3)/2 to 0, a margin of 0.8 round them;
    # all times the scale, and printed to two decimals
    h = 3 ** 0.5 / 2
    view_box = re.search(r'viewBox="([^"]*)"', svg).group(1).split()
    assert [float(v) for v in view_box] == pytest.approx(
        [-0.8 * scale, -(h + 0.8) * scale, 5.6 * scale, (h + 1.6) * scale], rel=1e-9, abs=0.005)


def test_cli_render_writes_svg_under_json(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text(f"{CONFIG_HEADER}\nface 0 0 U 2\n")
    out_path = tmp_path / "one.svg"
    rc, out = run_cli(capsys, "--json", "render", str(src), "-o", str(out_path))
    assert rc == 0
    svg = out_path.read_text()
    assert svg == render_svg(config=parse_config(src.read_text()))
    assert json.loads(out) == {"svg": svg}


@pytest.mark.parametrize("header, body, keyword, parse", [
    (CONFIG_HEADER, "face 0 0 U 2\nface 0 0 D -\n", "config", parse_config),
    (DIST_HEADER, "vertex 0 0 A1\nvertex 1 0 -\n", "dist", parse_distribution),
], ids=["config", "dist"])
@pytest.mark.parametrize("noted", ["# note\n\n{header}\n{body}", "{header}  # note\n{body}"],
                         ids=["comment-before", "comment-trailing"])
def test_cli_render_reads_the_header_past_comments(tmp_path, capsys, header, body, keyword,
                                                   parse, noted):
    plain, commented = tmp_path / "plain.txt", tmp_path / "noted.txt"
    plain.write_text(f"{header}\n{body}")
    commented.write_text(noted.format(header=header, body=body))
    rc, svg = run_cli(capsys, "render", str(plain))
    assert rc == 0 and svg == render_svg(**{keyword: parse(plain.read_text())})
    assert run_cli(capsys, "render", str(commented)) == (0, svg)


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


# A valid stacking word per height, pinned row by row.
_PINNED = {1: ("a:0", "d:5", "b:4", "c:3", "d:5"), 2: ("1:0", "2:4", "3:2", "1:0", "2:4")}


def _strip_argvs():
    """A grid of strip invocations over height, index, rows, --json and --word."""
    for height in (1, 2):
        for index in (0, 1, 2, 3, 6) if height == 1 else (1, 2, 3, 4):
            for rows in (0, 1, 2, 3, 5):
                shifts = [(-r * height) % 6 for r in range(rows)]
                pinned = _PINNED[height][:rows]
                words = [
                    None,
                    ",".join(map(str, shifts)),
                    ",".join(str(s + 3) for s in shifts),
                    ",".join("0" * rows),
                    ",".join(pinned),
                    ",".join(t if r % 2 else t.split(":")[1] for r, t in enumerate(pinned)),
                    ",".join(["0"] * (rows + 1)),
                    "x",
                ]
                for json_flag in ((), ("--json",)):
                    for word in words:
                        argv = [*json_flag, "strip", "--height", str(height),
                                "--index", str(index), "--rows", str(rows)]
                        yield argv + ([f"--word={word}"] if word is not None else [])
    for extra in (["--width", "18"], ["--width", "24"], ["--width", "6"],
                  ["--width", "0"], ["--symmetry", "rot"]):
        yield ["strip", "--height", "1", "--index", "3", "--rows", "3", *extra]


# SHA-256 of the repr of every (argv, exit code, stdout, stderr) over the
# strip grid above, as the listing of every compatible word gave them.
STRIP_CLI_SHA256 = "ded73f3e27cd80326746993a724f4492592580ba72fda5b004e27d5d157e13b1"


def test_cli_strip_is_byte_stable(capsys):
    # the digest was taken when a stack's file text carried a `period 6`
    # line after its header; no output has one now, so it is put back
    h, files = hashlib.sha256(), 0
    for argv in _strip_argvs():
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert "\nperiod" not in out
        if out.startswith(CONFIG_HEADER + "\n"):
            out = out.replace("\n", "\nperiod 6\n", 1)
            files += 1
        h.update(repr((argv, rc, out, err)).encode())
    assert files == 121
    assert h.hexdigest() == STRIP_CLI_SHA256


def test_cli_strip_walks_words_without_listing_them(monkeypatch, capsys):
    def listing(*args):
        raise AssertionError("strip must not list every stacking word")

    monkeypatch.setattr(catalog, "compatible_words", listing)
    monkeypatch.setattr(cli, "compatible_words", listing, raising=False)
    rc, out = run_cli(capsys, "--json", "strip", "--height", "1", "--index", "1",
                      "--rows", "30")
    assert rc == 0
    assert len(json.loads(out)["word"]) == 30
    # 2^29 words follow the first 29 shift tokens and none the last, which
    # breaks the edge labeling: the walk must see that without trying them
    shifts = [(-r) % 6 for r in range(29)] + [2]
    rc = cli.main(["strip", "--height", "1", "--index", "1", "--rows", "30",
                   "--word", ",".join(map(str, shifts))])
    assert rc == 1
    assert capsys.readouterr().err == "no compatible stacking word\n"


def test_cli_strip_rejects_an_unknown_word_key(capsys):
    # z is no strip key; a height-1 key is none for height 2
    for height, word, key in ((1, "z:0,0", "z"), (2, "1:0,a:4", "a")):
        rc = cli.main(["strip", "--height", str(height), "--index", "1", "--rows", "2",
                       "--word", word])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown strip key {key!r}\n"


# SHA-256 of repr((argv, exit code, stdout, stderr)) for help requests and
# usage errors, at 80 columns, keyed by the argv joined by spaces: global
# flags before and after the subcommand, abbreviations, a missing or unknown
# subcommand, and each subcommand's and each dist child's help.  argparse's
# wording differs between Python versions; these are CPython 3.11's.
CLI_USAGE_SHA256 = {
    "": "4fdfff3ece9be35100f7a672b3587c1083021cb12cfeb136dec04c39c8248f22",
    "-h": "eec3ae52f06243a7f7931bdd7c6cfe90bfdfb9ae146783c1ab60496194c1f080",
    "--help": "8a82e351b095a1bad6259d1b8cfaccd1c20c7e0c30ed29154b9165eae08d3bfd",
    "-h report": "2a9bf8806150151a120665fbfb398c2eb02f376b33a10d41942195948805e247",
    "rings -h": "5972c26df7f14a76e822f90b1bf4490db9726aae2c865830afbe0449ea45c517",
    "edge-labels -h": "3aaad153b16e0f31e832825075daf1797ee8eee888fe4f15bcda3e7205746a44",
    "check -h": "c129969710db0ec2b51d43ddb527a9c0a54b592dab446f1e179c739b32715c44",
    "enumerate -h": "60e723c7e0439e748a5563d9f77c0da94930d0cd8aab8a4fa5647c96b673ab48",
    "deadends -h": "509532b8a056fecb8f11c650ff2b0c4bcadf3db4d9a6333539b80540f8868cbc",
    "strip -h": "f9933cbded89a47d6056e7bb5e550dcd5c78d68a110ec296f68b8d2432c5b739",
    "special -h": "12512d3a7951454ef7a70adbc7f45becb26989b2ae459904a6cdaa4ec4baa4bb",
    "iso -h": "cbb52cf25d74f2e5bfcf7fec51c73c72f094c4164c4814af75f7cfdc0abad87d",
    "dist -h": "2939b733948dec3a03ccc6b9d1fdef8ddd222c5a57c153edd5050c7a04124e4a",
    "dist check -h": "6dd21622bb52a019cb69df13980148a50f278a8ea2a33452b659fe034e7f00c5",
    "dist propagate -h": "b48bd623b6caaedb03e3e7c4ebff11bce035d2a62484970230b8e866ae0a5cb7",
    "dist classify -h": "ba8b4a58df960800a58ff3d34e86bc0f8b5e1354bd67dae50fce59a0865ed6a9",
    "dist d0 -h": "f36d80ea6a3dbfdc5c00e7a3dc37f069e00ef41b53f348229caf3dfeffc64d0f",
    "render -h": "6624a4e0b7eccc9edf749f8989edbdd481aadc1c88d8b679d61771133814c842",
    "report -h": "571870d31362e276e0f958beb03fac5d66edb0c6417439d363d4aa31a3a638e7",
    "nonsense": "3bad554f2a10a2d1be3983f5872d34e6e43143bbc0db04b11561f559a3bff60a",
    "--json nonsense": "8ffc32320a1af942d482e4f7cd9ca7de80b002bea03b04632e3728d76dbec2cb",
    "--threads 2 report 4": "2d30fdc40cd4c97217429149b3408273d5362dea4e6216a2aa3b311c784169f0",
    "report 9": "a596ec62ed502d208ada015daee0e2d86c8ab67600a8e6e6b182a4e3092fdf7b",
    "report 8 --bogus": "8df880626eb6e62a224712b43cf876f3f8d743cba2e403f827a0d6f9db114147",
    "--symmetry bad rings": "de48b77d0639aa2fc9f35fe22459fb968b61af149a8114f9ccdd2ffee72cfad4",
    "--symmetry rot report": "3899620fff5db1de5816d6df5263199a32146a6fcd9a65a37952d75a8bc4fd9b",
    "dist": "e0693a9972ba49227eae1f78269c74b9c2eda61c48fa0e9a22ff28985854fb3d",
    "rings --json --symmetry rot_ref": "db0fa8289c33f712d6307b8f291ff78cbf0f7d994ff8a52b9822c215abb741aa",
    "rings --symmetry rot --json": "c4576d8ec2ad76d1582b6d852c47b5c9530493105337cb0f13fd54db965bb616",
    "--json report 2 --symmetry rot": "bfe6e622c2c8ee3e3451866a626bf71c729079a9d7550817c34d5c5aad72db86",
    "report": "55f941d348696b1ee5409a0c133d181c09cee2c9ab9f28527c534188c75fab3d",
    "dist nonsense": "e4efc91e58c7a51f8738372053176218a8a338ea2968fa562534401bf9023102",
    "--sym rot report 9": "a869a8fd814ac643bc33dff6a1c018ace893c74db6dd6f4ffad3c94a4a64afb5",
    "--symmetry": "e995332b73d23031ea589973309a0a1cfa96cf2c59bedc20308535d6c84fe822",
    "--symmetry report 8": "7b06db74184acef10e90929d79df2e365ff4c2ccf7c93cd0bde451596ae3dd9f",
    "--symmetry=bad report 1": "ecfa0d8adf91a2cd3050c47bf12cd2ef0de87b6e2530d6144c441e2ea053a8e4",
    "--json -- report 9": "b1195e688f66b32dac816b9b0bd59b2da520068c8b35ae0063fda4451c51a909",
    "--js report -h": "900fe5e5b4c315b0c83559f7e11a322c2adc476447134d64a242044cfa8f3dc4",
    "edge-labels --window x": "7ff5a57fa677edce12bc004eafb55a749da0bb5eb6822f5fb64f79c029db757b",
    "strip --height 3 --index 1": "5e6c6522b02a9c3e5b7f3c278428f40189f4ca3674510c4adde368231390d48b",
    "report 8 -h --bogus": "5d9e0644cd9fdde07aaccc18d56b62054ea5d0aa847d0de34dc06da2322ce9be",
}


def cli_usage_digest(capsys, argv):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return hashlib.sha256(repr((argv, rc, out, err)).encode()).hexdigest()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help and error text differ between Python versions")
@pytest.mark.parametrize("line", list(CLI_USAGE_SHA256), ids=lambda line: line or "no-args")
def test_cli_help_and_usage_errors_are_byte_stable(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_usage_digest(capsys, line.split()) == CLI_USAGE_SHA256[line]


def test_cli_builds_only_its_own_subcommand_parser_once(capsys, monkeypatch):
    """A call builds the parser of the subcommand it runs, once (dist with
    its children); a help request and an unknown subcommand build all."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "rings")[0] == 0
    assert run_cli(capsys, "--json", "rings", "--symmetry", "rot")[0] == 0
    assert built == ["rings"]
    assert run_cli(capsys, "report", "8")[0] == 0
    assert run_cli(capsys, "--symmetry", "rot", "report", "8")[0] == 0
    assert built == ["rings", "report"]
    assert run_cli(capsys, "dist", "d0", "--radius", "1")[0] == 0
    assert built[2:] == ["dist", *cli._DIST_COMMANDS]
    del built[:]
    for argv in (["-h"], ["report", "--help"], ["nonsense"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert run_cli(capsys, "--js", "rings")[0] == 0
    capsys.readouterr()
    assert built == [name for cmd in cli._COMMANDS
                     for name in ([cmd, *cli._DIST_COMMANDS] if cmd == "dist" else [cmd])]
    assert cli.build_parser.cache_info().misses == 4


def test_cli_strip_rejects_a_width_off_the_period(capsys):
    rc = cli.main(["strip", "--height", "1", "--index", "1", "--width", "17"])
    assert rc == 2
    assert capsys.readouterr().err == "error: width must be a multiple of 6 columns\n"


@pytest.mark.parametrize("rows", ["0", "-1"])
def test_cli_strip_without_rows_exits_two(capsys, rows):
    rc = cli.main(["strip", "--height", "1", "--index", "1", "--rows", rows])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_internal_error_exits_two(monkeypatch, capsys):
    def broken(*args):
        raise IndexError("boom")

    monkeypatch.setattr(cli, "get_strip", broken)
    rc = cli.main(["strip", "--height", "1", "--index", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: IndexError: boom\n"


def test_cli_report_matches_library(capsys):
    rc, out = run_cli(capsys, "report", "2")
    assert rc == 0
    from ringlab.reports import criterion2_report

    assert json.loads(out) == criterion2_report()


def test_cli_has_no_threads_flag(capsys):
    for argv in (["--threads", "2", "report", "4"], ["report", "4", "--threads", "2"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ringlab")


def test_cli_enumerate_writes_no_period_line(tmp_path, capsys):
    src = tmp_path / "strip.txt"
    src.write_text(data_text("strip_h1_a.txt"))
    rc, out = run_cli(capsys, "enumerate", str(src), "--radius", "2")
    assert rc == 0
    assert out.startswith("34\n") and out.count(CONFIG_HEADER) == 34
    assert "period" not in out


@st.composite
def _fuzzed_file(draw, header, record, *fields):
    """File text near one format: its header or a damaged one, then well
    formed records (the record word, small coordinates and fields from the
    given choices), with at most one damaged record, line of token soup or
    line of any text put in among them."""
    parts = [st.just(record)] + [st.sampled_from(tuple(map(str, range(-3, 4))))] * 2
    parts += [st.sampled_from(choices) for choices in fields]
    records = st.tuples(*parts).map(list)
    # distinct faces or vertices: the field after them is their label
    lines = list(map(" ".join, draw(st.lists(records, max_size=14,
                                             unique_by=lambda r: tuple(r[:-1])))))
    damaged = st.tuples(records, st.integers(0, len(parts) - 1), st.sampled_from(
        ("x", "1.5", "٣", "9" * 30, "-1", "", "²", "A9", "u", "7"))).map(
        lambda r: " ".join(r[0][:r[1]] + [r[2]] + r[0][r[1] + 1:]))
    soup = st.lists(st.sampled_from(("face", "vertex", "period", "6", "²", "#",
                                     "U", "A1", "-", "\x0c")), max_size=6).map(" ".join)
    junk = draw(st.one_of(st.none(), damaged, soup, st.text(max_size=10)))
    if junk is not None:
        lines.insert(draw(st.integers(0, len(lines))), junk)
    head = draw(st.sampled_from((header,) * 8 + (header.upper(), "", f"# note\n{header}")))
    return "\n".join([head] + lines)


def _exception_names():
    """The names of every exception class loaded."""
    names, todo = set(), [BaseException]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _run_on_stdin(argv, text):
    """main's exit code and standard error, the file read from standard input."""
    err = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _assert_exit_contract(rc, err):
    assert rc in (0, 1, 2)
    # main's internal-error branch prefixes the exception's type name
    internal = re.match(r"error: (\w+): ", err)
    assert not (internal and internal.group(1) in _exception_names()), err


@settings(max_examples=150, deadline=None)
@given(_fuzzed_file(CONFIG_HEADER, "face", ("U", "D"), ("0", "1", "2", "-")),
       st.sampled_from(([], ["--symmetry", "rot+ref"])))
def test_cli_check_keeps_the_exit_contract(text, flags):
    _assert_exit_contract(*_run_on_stdin(flags + ["check", "-"], text))


@settings(max_examples=150, deadline=None)
@given(_fuzzed_file(DIST_HEADER, "vertex", ("A0", "A1", "A2", "-")))
def test_cli_dist_check_keeps_the_exit_contract(text):
    _assert_exit_contract(*_run_on_stdin(["dist", "check", "-"], text))
