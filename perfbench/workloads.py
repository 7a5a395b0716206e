"""The three benchmark workloads: inputs from a seed, set-up, one pass, checks.

Each workload has a full size, which the benchmark measures, and a small
size with the same make-up, which the benchmark's own tests run.

* ``classify`` runs ``ringlab report 8`` through ``ringlab.cli.main`` with
  the CLI's defaults.  Its inputs are fixed by the report; the seed does
  not change them.  The small size runs the same steps on the radius-1
  ball: enumerate, probe to radius 3, embed every survivor.
* ``enumerate`` finds every completion of the radius-3 ball around three
  single marked faces.  The seed picks the face, Up(x, y) with x and y in
  -6..6, and the order of the labels 0, 1 and 2; seed 0 gives Up(0,0).
  Every translate of Up(0,0) carrying each label once is the same search
  up to relabelling, so each seed costs the same.  The small size uses
  radius 2.
* ``catalog`` assembles and checks every stacking word, rebuilds the twelve
  special puzzles by propagation, tests them pairwise and classifies their
  distributions, builds D0 twice, verifies Lemma L3 and derives the edge
  labels.  Its inputs are fixed by the paper; the seed only shuffles the
  order of the stacking words and of the special puzzles.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import sys
import traceback
from typing import Callable, List, Tuple

import reference
from ringlab import catalog, cli, distributions, engine, labeling, rings
from ringlab.configio import validate_report
from ringlab.labeling import vertex_s
from ringlab.lattice import Face, ball, face_vertices, link_faces, up

ENUM_RADIUS = 3

SIZES = {
    "classify": {
        "full": {"radius": 2, "probe": 4},
        "small": {"radius": 1, "probe": 3},
    },
    "enumerate": {
        "full": {"radius": ENUM_RADIUS},
        "small": {"radius": 2},
    },
    "catalog": {
        "full": {"h1_rows": 5, "h2_rows": 5, "special_radius": 9, "iso_radius": 4,
                 "d0_radius": 16, "d0_small": 12, "lemma_n": 4, "square": 40},
        "small": {"h1_rows": 3, "h2_rows": 3, "special_radius": 5, "iso_radius": 2,
                  "d0_radius": 6, "d0_small": 4, "lemma_n": 4, "square": 12},
    },
}

# Paper counts the full-size outputs must reproduce.
CRITERION8 = {"completions": 196, "survivors": 184, "dead_ends": 12,
              "embedded": {"special": 64, "strip-h1": 96, "strip-h2": 24},
              "exceptions": 0}
WORDS_AT_4_ROWS = {1: 768, 2: 48}
LEMMA_L3 = {"assignments": 342, "with_segment": 294, "forced_on_enlargement": 22,
            "unextendable": 26, "counterexamples": []}


# What Tally.op returns for an operation that raised.
FAILED = object()


class Tally:
    """Operations attempted and failed in one pass, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, fn: Callable, *args, **kwargs):
        """Call one program operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return FAILED

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def enumerate_starts(seed: int) -> List[Tuple[Face, int]]:
    """The three single-mark start configurations of the enumerate workload."""
    if seed == 0:
        return [(up(0, 0), label) for label in (0, 1, 2)]
    rng = random.Random(seed)
    face = up(rng.randint(-6, 6), rng.randint(-6, 6))
    labels = [0, 1, 2]
    rng.shuffle(labels)
    return [(face, label) for label in labels]


def setup(name: str, seed: int, size: str) -> dict:
    """Build the workload's inputs and the tables its pass reads on first use."""
    params = SIZES[name][size]
    rings.ring_table()
    rings.legal_words()
    if name == "classify":
        catalog.strip_variants(1)
        catalog.strip_variants(2)
        # Matching one strip stack against the special puzzles builds all
        # twelve patches and their signature indexes, as the first
        # embeds_in_catalog call of a report would.
        stack = catalog.assemble(catalog.compatible_words(1, 3)[0], width_periods=2)
        catalog.embeds_in_special(stack, center=Face(5, -1, True))
        return {"params": params}
    if name == "enumerate":
        r = params["radius"]
        return {"params": params, "starts": [
            (engine.make_config({f: l}, window=ball(f, r)), f, l)
            for f, l in enumerate_starts(seed)]}
    catalog.strip_variants(1)
    catalog.strip_variants(2)
    # classify_distribution compares against a large reference D0 built once.
    distributions.classify_distribution(distributions.build_D0(distributions.hex_window(2)))
    rng = random.Random(seed)
    sizes = [(1, r) for r in range(1, params["h1_rows"] + 1)]
    sizes += [(2, r) for r in range(1, params["h2_rows"] + 1)]
    rng.shuffle(sizes)
    specials = list(range(1, 13))
    rng.shuffle(specials)
    return {"params": params, "word_sizes": sizes, "specials": specials,
            "shuffle_seed": rng.randrange(2**32)}


# -- passes ------------------------------------------------------------------
#
# A pass is a list of steps, each a call with no arguments; the worker times
# them one after another and checks the list of their results.  Only
# enumerate has more than one step: its three searches are independent.


def _classify_pass(inputs: dict, tally: Tally):
    return [functools.partial(_classify_step, inputs["params"], tally)]


def _classify_step(p: dict, tally: Tally):
    if p["radius"] == 2:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = tally.op(cli.main, ["report", "8"])
        return {"rc": rc, "stdout": buf.getvalue()}
    # small size: the criterion-8 steps on the radius-1 ball
    seed = engine.make_config({up(0, 0): 0}, window=ball(up(0, 0), 1))
    comps = tally.op(engine.enumerate_completions, seed, threads=2)
    out = []
    for c in comps:
        alive = tally.op(engine.has_completion, c, ball(up(0, 0), p["probe"]))
        out.append((alive, tally.op(catalog.embeds_in_catalog, c) if alive else None))
    return {"rows": out}


def _enumerate_pass(inputs: dict, tally: Tally):
    return [functools.partial(_enumerate_step, cfg, tally) for cfg, _, _ in inputs["starts"]]


def _enumerate_step(cfg, tally: Tally):
    # looked up at call time, so a traced pass calls the wrapper
    return tally.op(engine.enumerate_completions, cfg)


def _catalog_pass(inputs: dict, tally: Tally):
    return [functools.partial(_catalog_step, inputs, tally)]


def _catalog_step(inputs: dict, tally: Tally):
    p = inputs["params"]
    rng = random.Random(inputs["shuffle_seed"])
    stacks = {}
    for height, rows in inputs["word_sizes"]:
        words = catalog.compatible_words(height, rows)
        rng.shuffle(words)
        stacks[(height, rows)] = [
            tally.op(lambda w: engine.check(catalog.assemble(w, width_periods=2)).status, w)
            for w in words
        ]
    specials = {i: tally.op(catalog.special_puzzle, i, p["special_radius"])
                for i in inputs["specials"]}
    inner = ball(up(0, 0), p["iso_radius"])
    small = {i: engine.make_config({f: c.marks[f] for f in inner}, window=inner)
             for i, c in specials.items()}
    order = inputs["specials"]
    iso = [tally.op(catalog.isomorphic, small[a], small[b])
           for k, a in enumerate(order) for b in order[k + 1:]]
    families = [tally.op(lambda c: distributions.classify_distribution(
        distributions.induced_distribution(c)), small[i]) for i in order]
    d0 = tally.op(distributions.build_D0, distributions.hex_window(p["d0_radius"]))
    d0_small = tally.op(distributions.build_D0, distributions.hex_window(p["d0_small"]))
    lemma = tally.op(distributions.verify_lemma_L3, p["lemma_n"])
    labels = tally.op(labeling.derive_edge_labels, labeling.square_window(p["square"]))
    return {"stacks": stacks, "specials": specials, "iso": iso, "families": families,
            "d0": d0, "d0_small": d0_small, "lemma": lemma, "labels": labels}


PASSES = {"classify": _classify_pass, "enumerate": _enumerate_pass,
          "catalog": _catalog_pass}


# -- checks ------------------------------------------------------------------
#
# Each check takes the list of step results.


def _verify_classify(inputs: dict, steps, tally: Tally) -> None:
    p, out = inputs["params"], steps[0]
    ref = reference.completions({up(0, 0): 0}, ball(up(0, 0), p["radius"]))
    if p["radius"] != 2:
        rows = out["rows"]
        tally.expect(len(rows) == len(ref), f"{len(rows)} completions, reference {len(ref)}")
        tally.expect(all(e is not None for alive, e in rows if alive),
                     "a survivor embeds nowhere in the catalog")
        return
    tally.expect(out["rc"] == 0, f"report 8 exited {out['rc']}")
    rep = json.loads(out["stdout"])
    validate_report("criterion8", rep)
    # every probe and every survivor's embedding is one operation
    tally.attempted += rep["completions"] + rep["survivors"]
    tally.failed += rep["exceptions"]
    tally.expect(rep == CRITERION8, f"report 8 counts {rep}")
    tally.expect(rep["survivors"] + rep["dead_ends"] == rep["completions"],
                 "survivors + dead ends != completions")
    tally.expect(rep["completions"] == len(ref),
                 f"{rep['completions']} completions, reference {len(ref)}")


def _verify_enumerate(inputs: dict, out, tally: Tally) -> None:
    for (cfg, face, label), comps in zip(inputs["starts"], out):
        if comps is FAILED:
            continue
        ref = reference.completions({face: label}, cfg.window)
        tally.expect(len(comps) == len(ref),
                     f"{face!r}={label}: {len(comps)} completions, reference {len(ref)}")
        tally.expect(all(c.marks.keys() == cfg.window and c.marks[face] == label
                         for c in comps), f"{face!r}={label}: a completion is partial")
        tally.expect(len({reference.canonical(c.marks) for c in comps}) == len(comps),
                     f"{face!r}={label}: repeated completions")
        statuses = [tally.op(lambda c: engine.check(c).status, c) for c in comps]
        tally.expect(all(s == engine.VALID for s in statuses if s is not FAILED),
                     f"{face!r}={label}: a completion does not check Valid")
        tally.expect(reference.set_digest(c.marks for c in comps) == reference.set_digest(ref),
                     f"{face!r}={label}: completion set differs from the reference")


def _verify_catalog(inputs: dict, steps, tally: Tally) -> None:
    p, out = inputs["params"], steps[0]
    for (height, rows), statuses in out["stacks"].items():
        keys = "".join(s.key for s in catalog.strip_variants(height))
        want = reference.transfer_count(catalog.INTERFACE_DELTAS[height], keys, height, rows)
        tally.expect(len(statuses) == want, f"h{height} x{rows}: {len(statuses)} words, "
                     f"transfer matrix {want}")
        if rows == 4:
            tally.expect(want == WORDS_AT_4_ROWS[height], f"h{height} x4: {want} words")
        tally.expect(all(s == engine.VALID for s in statuses if s is not FAILED),
                     f"h{height} x{rows}: a stack does not check Valid")
    patterns = reference.partial_link_patterns()
    for i, cfg in out["specials"].items():
        tally.expect(cfg.marks.keys() == cfg.window, f"special {i} is partial")
        for v in {v for f in cfg.marks for v in face_vertices(f)}:
            word = tuple(cfg.marks.get(f) for f in link_faces(v))
            if None not in word and word not in patterns[vertex_s(v)]:
                tally.problems.append(f"special {i}: illegal link at {v}")
                break
    tally.expect(all(g is None for g in out["iso"]) and len(out["iso"]) == 66,
                 "special puzzles not pairwise non-isomorphic")
    tally.expect(out["families"] == [distributions.SPECIAL_D0] * 12,
                 f"special families {out['families']}")
    for key, r in (("d0", p["d0_radius"]), ("d0_small", p["d0_small"])):
        d = out[key]
        tally.expect(len(d.axis) == 3 * r * r + 3 * r + 1, f"D0 r{r}: {len(d.axis)} vertices")
        tally.expect(reference.odd_faces_ok(d.axis), f"D0 r{r} has an even face")
    tally.expect(all(out["d0"].axis[v] == a for v, a in out["d0_small"].axis.items()),
                 "D0 disagrees with its smaller restriction")
    tally.expect(out["lemma"] == LEMMA_L3, f"lemma L3 {out['lemma']}")
    tally.expect(reference.edge_rules_ok(out["labels"]), "derived edge labels break a rule")
    n = p["square"]
    tally.expect(len(out["labels"]) == 3 * n * n + 2 * n, f"{len(out['labels'])} edges")


VERIFY = {"classify": _verify_classify, "enumerate": _verify_enumerate,
          "catalog": _verify_catalog}
