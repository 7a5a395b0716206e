"""Machine-readable reports for the acceptance checks.

Each report function returns a plain dict of counts and verdicts, stable
across runs and hash seeds, suitable for JSON serialization.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import (
    assemble,
    compatible_words,
    isomorphic,
    special_puzzle,
    special_seed,
    stacking_words,
    strip_dedup_classes,
    strip_readings,
    strip_table,
    strip_tick,
    strip_variants,
    survivor_certificate,
)
from .configio import data_text, parse_config
from .distributions import (
    all_faces_odd,
    build_D0,
    classify_distribution,
    half_strip_report,
    hex_window,
    induced_distribution,
    verify_lemma_L3,
)
from .engine import (
    VALID,
    Configuration,
    check,
    enumerate_completions,
    have_completions,
    make_config,
)
from .labeling import derive_edge_labels, edge_label, square_window
from .lattice import AXIS_NAMES, ball, down, link_faces, up
from .rings import (
    DEFAULT_MODE,
    all_embeddings,
    check_extension_property,
    legal_words,
    multiplicity_table,
    rank_axis,
    ring_table,
    root_rank,
)


def criterion1_report() -> dict:
    """Edge labeling on a 12x12 window: closed form, periodicity, base row."""
    window = square_window(12)
    derived = derive_edge_labels(window)
    matches = all(edge_label(e) == l for e, l in derived.items())
    periodic = all(
        edge_label(e) == edge_label(e._replace(x=e.x + 3))
        and edge_label(e) == edge_label(e._replace(y=e.y + 3))
        for e in derived
    )
    bottom = [edge_label(e) for e in sorted(derived) if e.y == 0 and e.axis == 0]
    cycles = all((b - a) % 3 == 1 for a, b in zip(bottom, bottom[1:]))
    return {
        "edges": len(derived),
        "matches_closed_form": matches,
        "three_periodic": periodic,
        "bottom_row_cycles": cycles,
    }


def criterion2_report() -> dict:
    """Ring table sizes, multiplicities, diameter rule, rank axis uniqueness."""
    mt = multiplicity_table()
    diameter_rule = all(
        (mt[e.domain] == 1) == (e.start % 3 == 0) for e in all_embeddings()
    )
    ranks = sorted({str(root_rank(d)) for d in mt})
    axes = [rank_axis(word, s) for s, word in legal_words()]
    return {
        "rings": len(ring_table()),
        "embeddings": len(all_embeddings()),
        "domains": len(mt),
        "multiplicities": sorted(set(mt.values())),
        "diameter_rule": diameter_rule,
        "ranks": ranks,
        "legal_words": len(legal_words()),
        "rank_axes": len(axes),
    }


def criterion3_report() -> dict:
    """Unique embedding position for every marked segment longer than pi."""
    rep = check_extension_property()
    lengths = {
        str(arcs): dict(stats) for arcs, stats in sorted(rep["lengths"].items())
    }
    return {
        "lengths": lengths,
        "max_ambiguous_arcs": rep["max_ambiguous_arcs"],
        "unique_beyond_pi": rep["max_ambiguous_arcs"] <= 3,
    }


def criterion4_report() -> dict:
    """Initial-window counts and the dead end in the second drawing."""
    initial = make_config(
        {up(0, 0): 0},
        window=frozenset({up(0, 0), down(0, -1), down(-1, 0), down(0, 0)}),
    )
    n_initial = len(enumerate_completions(initial))
    uvw = make_config(
        {up(0, 0): 0, down(-1, 0): 1, down(0, -1): 1, down(0, 0): 1},
        window=ball(up(0, 0), 1),
    )
    n_uvw = len(enumerate_completions(uvw))
    quad = parse_config(data_text("window_quad.txt"))
    quad_comps = enumerate_completions(quad)
    ball2_counts = [
        len(enumerate_completions(c, ball(up(0, 0), 2) | c.window)) for c in quad_comps]
    drawing2 = parse_config(data_text("deadend_quad2.txt"))
    return {
        "completions": {
            "initial": n_initial,
            "one_one_one": n_uvw,
            "quad_window": len(quad_comps),
        },
        "ball2_counts": ball2_counts,
        "drawing2_in_quad": any(c.marks == drawing2.marks for c in quad_comps),
        "dead_end": dead_end_report(drawing2, 2, 3),
    }


def criterion5_report() -> dict:
    """Strip assembly validity and the six-to-four deduplication."""
    words: Dict[str, int] = {}
    all_valid = True
    for height in (1, 2):
        ws = compatible_words(height, 4)
        words[f"h{height}"] = len(ws)
        all_valid &= all(check(assemble(w)).status == VALID for w in ws)
    germs = []
    for spec in strip_variants(1):
        marks = assemble([(spec.key, 0)]).marks
        for x0, side in ((1, "bottom"), (4, "bottom"), (2, "top"), (5, "top")):
            # the row's three faces at its boundary vertex (x0, 0) or (x0, 1)
            faces = link_faces((x0, 0))[:3] if side == "bottom" else link_faces((x0, 1))[3:]
            germs.append((side, AXIS_NAMES[strip_tick(x0)], tuple(marks[f] for f in faces)))
    families = {
        f"h{h}": classify_distribution(
            induced_distribution(assemble(next(stacking_words(h, rows))))
        )
        for h, rows in ((1, 4), (2, 3))
    }
    return {
        "strips": len(strip_table()),
        "words": words,
        "all_valid": all_valid,
        "classes": strip_dedup_classes(),
        "readings": len(strip_readings()),
        "initial_configurations": len(set(germs)),
        "families": families,
    }


def criterion6_report() -> dict:
    """Twelve special seeds: propagation, uniqueness, isomorphism, family."""
    balls = []
    families: List[str] = []
    n_unique = 0
    for index in range(1, 13):
        cfg = special_puzzle(index, 3)
        if check(cfg).status == VALID:
            n_unique += 1
        seed = special_seed(index)
        balls.append(len(enumerate_completions(seed, ball(up(0, 0), 3) | seed.window)))
        dist = induced_distribution(special_puzzle(index, 4))
        families.append(classify_distribution(dist))
    pairs_distinct = True
    radius2 = [special_puzzle(i, 2) for i in range(1, 13)]
    for i in range(12):
        for j in range(i + 1, 12):
            if isomorphic(radius2[i], radius2[j]) is not None:
                pairs_distinct = False
    return {
        "propagated": n_unique,
        "completions": balls,
        "pairwise_non_isomorphic": pairs_distinct,
        "families": families,
    }


def criterion7_report() -> dict:
    """Distribution lemmas: parity, half strip, center construction, segments."""
    seed = make_config({up(0, 0): 0}, window=ball(up(0, 0), 2))
    comps = enumerate_completions(seed)
    odd_all = all(all_faces_odd(induced_distribution(c)) for c in comps)
    half = half_strip_report()
    d6 = build_D0(hex_window(6))
    d8 = build_D0(hex_window(8))
    restricted = {v: d8.axis[v] for v in d6.axis}
    idem = restricted == dict(d6.axis)
    l3 = verify_lemma_L3()
    return {
        "valid_configurations": len(comps),
        "all_odd": odd_all,
        "half_strip": half,
        "d0": {
            "r6_vertices": len(d6.axis),
            "r8_vertices": len(d8.axis),
            "all_odd": all_faces_odd(d6),
            "idempotent": idem,
        },
        "lemma_l3": {
            "assignments": l3["assignments"],
            "with_segment": l3["with_segment"],
            "forced_on_enlargement": l3["forced_on_enlargement"],
            "unextendable": l3["unextendable"],
            "counterexamples": len(l3["counterexamples"]),
        },
    }


def _sweep(config: Configuration, r: int, radii: Sequence[int],
           mode: str = DEFAULT_MODE) -> List[Tuple[Optional[str], Optional[int]]]:
    """Per completion of config on the radius-r ball about Up(0,0): the kind
    of its catalog evidence, and the first radius in radii at which it has
    no completion (None if it survives them all).

    Certificates (`catalog.survivor_certificate` on the last radius's ball)
    check under the default mode only, and are sought only when config's
    window lies inside the ball, since strip matching walks every stack row
    a window spans; without one the kind is None.  A certified completion
    survives every radius, and the rest are probed radius by radius, those
    still alive in one `have_completions` batch."""
    center = up(0, 0)
    inner = ball(center, r)
    base = inner if config.window <= inner else inner | config.window
    comps = enumerate_completions(config, base, mode=mode)
    shown: List[Tuple[Optional[str], bool]] = [(None, True)] * len(comps)
    if mode == DEFAULT_MODE and base is inner:
        outer = ball(center, radii[-1])
        shown = [(found and found["kind"], certificate is None)
                 for found, certificate in (survivor_certificate(c, outer) for c in comps)]
    alive = [i for i, (_, uncertified) in enumerate(shown) if uncertified]
    depths: Dict[int, int] = {}
    for rho in radii:
        if not alive:
            break
        window = ball(center, rho)
        window = window if window >= base else window | base
        verdicts = have_completions([comps[i] for i in alive], window, mode)
        depths.update((i, rho) for i, ok in zip(alive, verdicts) if not ok)
        alive = [i for i in alive if i not in depths]
    return [(kind, depths.get(i)) for i, (kind, _) in enumerate(shown)]


def dead_end_report(config: Configuration, r: int, r_probe: int,
                    mode: str = DEFAULT_MODE) -> dict:
    """Count completions at radius r that die before each probe radius.

    A completion survives radius rho when it extends to a total marking of
    the radius-rho ball; the configuration itself is a dead end when none
    of its completions survive the final probe."""
    if r >= r_probe:
        raise ValueError("probe radius must exceed the base radius")
    radii = range(r + 1, r_probe + 1)
    depths = [depth for _, depth in _sweep(config, r, radii, mode)]
    survivors = {str(rho): sum(d is None or d > rho for d in depths) for rho in radii}
    return {
        "radius": r,
        "probe": r_probe,
        "completions": len(depths),
        "survivors": survivors,
        "dead_ends": {rho: len(depths) - n for rho, n in survivors.items()},
        "is_dead_end": survivors[str(r_probe)] == 0,
    }


def classification_report(r: int, probe: int) -> dict:
    """Counts for the claim that every radius-r completion of Up(0,0) marked
    0 has no completion on the radius-`probe` ball or embeds in the catalog.

    Each completion is embedded first.  One that embeds survives by
    certificate when its catalog puzzle, pulled back onto the probe ball,
    checks Valid there (`catalog.survivor_certificate`); the rest, those
    that embed nowhere and those whose special-puzzle patch does not cover
    the probe ball's image, are probed with `have_completions` (`_sweep`)."""
    if probe < r:
        raise ValueError(f"probe radius {probe} is below the base radius {r}")
    swept = _sweep(make_config({up(0, 0): 0}), r, (probe,))
    survivors = [kind for kind, depth in swept if depth is None]
    return {
        "completions": len(swept),
        "survivors": len(survivors),
        "dead_ends": len(swept) - len(survivors),
        "embedded": dict(sorted(Counter(filter(None, survivors)).items())),
        "exceptions": survivors.count(None),
    }


def criterion8_report() -> dict:
    """Every radius-2 completion embeds in the catalog or dies by probe 4."""
    return classification_report(2, 4)


REPORTS = {
    1: criterion1_report,
    2: criterion2_report,
    3: criterion3_report,
    4: criterion4_report,
    5: criterion5_report,
    6: criterion6_report,
    7: criterion7_report,
    8: criterion8_report,
}


def criterion_report(number: int) -> dict:
    return REPORTS[number]()
