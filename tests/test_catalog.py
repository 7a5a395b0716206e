"""Strip catalog, special puzzles, isomorphism, catalog embedding."""

import hashlib
import json
import random
from collections import Counter
from functools import lru_cache, partial
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlab import catalog, reports
from ringlab.catalog import (
    INTERFACE_DELTAS,
    StripSpec,
    assemble,
    compatible_words,
    derive_interface_table,
    embeds_in_catalog,
    get_strip,
    isomorphic,
    mirror_strip_rows,
    special_puzzle,
    special_seed,
    strip_dedup_classes,
    strip_readings,
    strip_table,
    strip_tick,
    strip_variants,
    survivor_certificate,
    transform_config,
)
from ringlab.configio import data_text, parse_config
from ringlab.engine import (
    UNSET,
    VALID,
    Configuration,
    check,
    enumerate_completions,
    have_completions,
    link_grid,
    make_config,
    propagate,
    window_order,
)
from ringlab.lattice import (
    A1, A2, LABEL_POINT_GROUP, POINT_GROUP, Face, Isometry, ball, down, up)
from ringlab.distributions import classify_distribution, induced_distribution
from ringlab.reports import classification_report, dead_end_report
from ringlab.rings import MODE_ROT, MODE_ROT_REF


def test_strip_variants_and_table():
    h1 = strip_variants(1)
    assert [s.key for s in h1] == ["a", "b", "c", "d", "e", "f"]
    h2 = strip_variants(2)
    assert [s.key for s in h2] == ["1", "2", "3"]
    table = strip_table()
    assert [(s.height, s.index) for s in table] == [
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 6),
        (2, 1),
        (2, 2),
        (2, 3),
    ]
    assert [s.key for s in table if s.height == 1] == ["a", "b", "c", "f"]


def test_strip_specs_compare_by_their_fields():
    table = strip_table()
    assert [(s.height, s.index, s.key) for s in table] == [
        (1, 1, "a"), (1, 2, "b"), (1, 3, "c"), (1, 6, "f"), (2, 1, "1"), (2, 2, "2"), (2, 3, "3")]
    for s in table:
        assert get_strip(s.height, s.index) == s == StripSpec(s.height, s.index, s.key, s.rows)
        assert len(s.rows) == s.height
    spec = get_strip(1, 1)
    assert spec != StripSpec(1, 1, "z", spec.rows) and spec != get_strip(1, 2)
    assert len(set(table)) == len(table)


def test_get_strip_rejects_unknown_index():
    with pytest.raises(ValueError):
        get_strip(1, 4)


def test_interface_table_matches_frozen_data():
    for height in (1, 2):
        assert derive_interface_table(height) == INTERFACE_DELTAS[height]


def test_compatible_words_need_a_row():
    for rows in (0, -1):
        with pytest.raises(ValueError):
            compatible_words(1, rows)


def test_no_strip_stacks_on_itself():
    for height in (1, 2):
        for w in compatible_words(height, 2):
            assert w[0][0] != w[1][0]


@pytest.mark.parametrize("height, degree, tops", [(1, 4, 12), (2, 2, 6)])
def test_transfer_graph_counts_the_stacking_words(height, degree, tops):
    below = catalog._below(height)
    assert len(below) == 6 * len(strip_variants(height))
    assert all(len(succ) == degree for succ in below.values())
    # every state has a predecessor, so every state continues both ways
    assert {c for succ in below.values() for c in succ} == set(below)
    # and its successors carry two distinct rows of labels
    assert all(len({catalog._row_cells(height, *d) for d in succ}) == 2
               for succ in below.values())
    # n-row paths from the top row's states (shift 0 or 3, by the edge labeling)
    paths = {c: int(c[1] % 3 == 0) for c in below}
    for n in range(1, 6):
        assert sum(paths.values()) == tops * degree ** (n - 1)
        assert sum(paths.values()) == len(compatible_words(height, n))
        nxt = dict.fromkeys(below, 0)
        for c, k in paths.items():
            for d in below[c]:
                nxt[d] += k
        paths = nxt


def test_four_row_words_give_48_distinct_markings():
    # Height 2: distinct words give distinct markings.  Height 1: at each
    # row's shifts, a and c (and d and e) label their faces alike 3 columns
    # apart, and b and f are 3-periodic, so every row has two label-equal
    # choices and every n-row marking comes from 2^n words.  Both heights
    # give 6 * 2^(n - 1) distinct n-row markings (48 at four rows).
    # The markings are read row by row off each word's own names, not
    # through the label rows `assemble` reads.
    for rows in range(1, 6):
        for height, count, per_marking in ((1, 12 * 4 ** (rows - 1), 2 ** rows),
                                           (2, 6 * 2 ** (rows - 1), 1)):
            words = compatible_words(height, rows)
            window = catalog._stack_window(height, rows, 6)
            markings = Counter(catalog._stack_marks(window, catalog._IDENTITY, height, w)
                               for w in words)
            assert len(set(words)) == count
            assert len(markings) == 6 * 2 ** (rows - 1)
            assert set(markings.values()) == {per_marking}


def test_assemble_reads_the_labels_of_the_words_own_rows():
    """`assemble` reads a word through its label rows; the labels are those
    its own (variant, shift) names give, one 6-column period repeated."""
    for height in (1, 2):
        for rows in range(1, 5):
            window = catalog._stack_window(height, rows, 6)
            for w in compatible_words(height, rows):
                period = catalog._stack_marks(window, catalog._IDENTITY, height, w)
                assert assemble(w).labels == period * 2
                assert assemble(w, width_periods=3).labels == period * 3


@pytest.mark.parametrize("height, choices, label_rows", [(1, 12, 6), (2, 6, 6)])
def test_label_rows_merge_the_choices_that_label_a_row_alike(height, choices, label_rows):
    """Per shift phase, height 1's 12 row choices place 6 label rows and
    height 2's 6 place 6; each choice maps to the first choice, in
    (variant, shift) order, with its row cells."""
    rows = catalog._label_rows(height)
    order = sorted(rows)
    for c, first in rows.items():
        cells = catalog._row_cells(height, *c)
        assert first == next(d for d in order if catalog._row_cells(height, *d) == cells)
    for phase in range(3):
        phase_choices = [c for c in rows if c[1] % 3 == phase]
        assert len(phase_choices) == choices
        assert len({rows[c] for c in phase_choices}) == label_rows


def test_stack_period_memo_is_bounded():
    """The period memo holds a group of 96 distinct five-row markings, and
    no more than a fixed number of periods for the life of the process."""
    assert 96 <= catalog._period.cache_info().maxsize < 10**4


def test_assembled_strips_are_valid():
    for w in compatible_words(1, 2)[:6] + compatible_words(2, 2)[:3]:
        assert check(assemble(w)).status == VALID


def test_assemble_rejects_incompatible_shifts():
    w = compatible_words(1, 2)[0]
    bad = [w[0], (w[1][0], w[1][1] + 1)]
    with pytest.raises(ValueError):
        assemble(bad)


@pytest.mark.parametrize("word, message", [
    ((), "empty stacking word"),
    ((("a", 0), ("1", 2)), "rows of different strip heights"),
    ((("z", 0),), "unknown strip key 'z'"),
    # the shift keeps the edge labeling, but ('a', 2) may not sit below ('a', 0)
    ((("a", 0), ("a", 2)), r"row 0 \(a\) over row 1 \(a\) at offset 4"),
    ((("a", 1),), r"row 0 shift 1 breaks the edge labeling \(needs shift congruent to 0 mod 3\)"),
    ((("1", 0), ("2", 0)), r"row 1 shift 0 breaks .* congruent to 1 mod 3"),
    # shifts outside 0..5 read modulo 6, but keep their own value in messages
    ((("a", -1),), r"row 0 shift -1 breaks .* congruent to 0 mod 3"),
    ((("a", 7),), r"row 0 shift 7 breaks .* congruent to 0 mod 3"),
    ((("a", -6), ("a", -4)), r"row 0 \(a\) over row 1 \(a\) at offset 4"),
    ((("a", 6), ("a", 8)), r"row 0 \(a\) over row 1 \(a\) at offset 4"),
    # an unknown key is named before its row's shift is read
    ((("1", 6), ("9", 8)), "unknown strip key '9'"),
])
def test_assemble_rejects_malformed_words(word, message):
    with pytest.raises(ValueError, match=message):
        assemble(word)


def test_assemble_is_a_row_by_row_placement():
    # assemble reads one six-column period and repeats it, so every face of
    # a wider stack must still read its own row's label
    for height in (1, 2):
        variants = {s.key: s for s in strip_variants(height)}
        for rows in range(1, 6):
            for w in compatible_words(height, rows):
                for periods in (2, 3):
                    want = {}
                    for r, (key, shift) in enumerate(w):
                        for j, (ups, downs) in enumerate(variants[key].rows):
                            y = -r * height - j
                            for x in range(6 * periods):
                                want[up(x, y)] = ups[(x - shift) % 6]
                                want[down(x, y)] = downs[(x - shift) % 6]
                    cfg = assemble(w, periods)
                    assert cfg.marks == want
                    assert cfg.window == frozenset(want)


def test_assembled_marks_share_no_cached_row():
    # `.marks` is a read-only view, so no write can reach a cached row; a
    # fresh stack of the word still reads the labels of the first
    for rows in (1, 3):
        w = compatible_words(1, rows)[0]
        first = assemble(w)
        want = dict(first.marks)
        for f in first.marks:
            with pytest.raises(TypeError):
                first.marks[f] = (first.marks[f] + 1) % 3
        assert assemble(w).marks == want


def test_mirror_glide_squares_to_a_shift():
    assert all(g.label_preserving() for g in catalog._GLIDES.values())
    for spec in strip_variants(1):
        by_rows = {s.rows: s for s in strip_variants(1)}
        once = by_rows[mirror_strip_rows(spec)]
        twice = by_rows[mirror_strip_rows(once)]
        (u, d) = spec.rows[0]
        (u2, d2) = twice.rows[0]
        assert u2 == tuple(u[(x - 3) % 6] for x in range(6))
        assert d2 == tuple(d[(x - 3) % 6] for x in range(6))


# SHA-256 of the repr of the strip catalog's derived data: the glide image
# rows of all nine variants, both dedup classings, the eight readings, both
# re-derived interface tables and, per strip placement of the radius-2 ball
# at both heights, its placed faces and slots, as the per-height
# hand-written face maps gave them.
STRIP_CATALOG_SHA256 = "ad8c1a4053a236967941372b17716dd3cd3aced74ca01ee5e46e3a1a896df5ec"


def test_strip_catalog_is_byte_stable():
    parts = [mirror_strip_rows(s) for h in (1, 2) for s in strip_variants(h)]
    parts += [strip_dedup_classes(1), strip_dedup_classes(2), strip_readings()]
    parts += [derive_interface_table(h) for h in (1, 2)]
    window = ball(up(0, 0), 2)
    parts += [
        [(tuple(map(g.apply_face, sorted(window))), slots)
         for g, slots in catalog._strip_placements(window, h)]
        for h in (1, 2)
    ]
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == STRIP_CATALOG_SHA256


def test_dedup_classes():
    assert strip_dedup_classes() == [["a", "d"], ["b"], ["c", "e"], ["f"]]


def test_readings_cover_all_six_variants():
    readings = strip_readings()
    assert len(readings) == 8
    assert {r[2] for r in readings} == set("abcdef")
    assert {r[0] for r in readings} == {"a", "b", "c", "f"}
    fixed = {r[0] for r in readings if r[1] == -1 and r[0] == r[2]}
    assert fixed == {"b", "f"}


def test_strip_ticks_alternate():
    assert [strip_tick(x) for x in range(4)] == [A1, A2, A1, A2]


def test_twenty_four_boundary_germs_are_distinct():
    germs = set()
    for spec in strip_variants(1):
        ups, downs = spec.rows[0]
        for x0, side in ((1, "bottom"), (4, "bottom"), (2, "top"), (5, "top")):
            if side == "bottom":
                faces = (ups[x0 % 6], downs[(x0 - 1) % 6], ups[(x0 - 1) % 6])
            else:
                faces = (downs[(x0 - 1) % 6], ups[x0 % 6], downs[x0 % 6])
            germs.add((side, strip_tick(x0), faces))
    assert len(germs) == 24


def test_special_seed_propagates_uniquely():
    for index in (1, 7, 12):
        seed = special_seed(index)
        assert check(seed).status in (VALID, "Incomplete")
        cfg = make_config(dict(seed.marks), window=ball(up(0, 0), 2) | seed.window)
        filled = propagate(cfg)
        assert len(filled.marks) == len(filled.window)
        assert len(enumerate_completions(cfg)) == 1


def test_special_puzzle_is_valid_and_cached():
    a = special_puzzle(3, 2)
    assert check(a).status == VALID
    assert special_puzzle(3, 2) is a


def test_special_puzzle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        special_puzzle(0, 2)
    with pytest.raises(ValueError):
        special_puzzle(1, 0)


def test_special_puzzle_rejects_an_undetermined_ball(monkeypatch):
    # a propagation that forces nothing leaves the ball open
    special_puzzle.cache_clear()
    monkeypatch.setattr(catalog, "propagate", lambda cfg: cfg)
    try:
        with pytest.raises(ValueError, match="does not determine"):
            special_puzzle(2, 2)
    finally:
        special_puzzle.cache_clear()


def test_isomorphic_finds_label_preserving_transforms():
    cfg = special_puzzle(5, 2)
    g = Isometry(2, False, 3, 0)
    assert g.label_preserving()
    moved = transform_config(cfg, g)
    found = isomorphic(cfg, moved)
    assert found is not None
    assert transform_config(cfg, found).marks == moved.marks


def test_isomorphic_rejects_different_specials():
    a = special_puzzle(1, 2)
    b = special_puzzle(2, 2)
    assert isomorphic(a, b) is None


def test_isomorphic_raises_on_incongruent_windows():
    a = special_puzzle(1, 1)
    b = special_puzzle(1, 2)
    with pytest.raises(catalog.IncongruentWindows):
        isomorphic(a, b)


def test_strip_band_readings_match_dedup_classes():
    # reading c backwards realizes d, the partner of a; a backwards realizes e
    readings = dict(((r[0], r[1]), r[2]) for r in strip_readings())
    assert readings[("a", -1)] == "e"
    assert readings[("c", -1)] == "d"


def test_assembly_families():
    h1 = assemble(compatible_words(1, 4)[0], width_periods=2)
    assert classify_distribution(induced_distribution(h1)) == "Family2Periodic"
    h2 = assemble(compatible_words(2, 3)[0], width_periods=2)
    assert classify_distribution(induced_distribution(h2)) == "Family1Periodic"


def test_catalog_embedding_kinds():
    seed = make_config({up(0, 0): 0}, window=ball(up(0, 0), 2))
    comps = enumerate_completions(seed)
    kinds = set()
    for c in comps[:40]:
        found = embeds_in_catalog(c)
        if found is not None:
            kinds.add(found["kind"])
            assert set(found) <= {"kind", "word", "index"}
    assert kinds <= {"strip-h1", "strip-h2", "special"}
    assert kinds


def test_a_partial_marking_embeds_by_its_marked_faces():
    # the stack's top row left unmarked: the marks, not the window, are placed
    stack = assemble(compatible_words(1, 3)[0], width_periods=2)
    marks = {f: l for f, l in stack.marks.items() if f.y < 0}
    found = catalog.embeds_in_strips(make_config(marks, window=stack.window), 1)
    assert found == {"kind": "strip-h1", "word": [("d", 3), ("a", 5)]}


def test_strip_match_backtracks_past_dead_top_rows():
    # two faces on two strip rows: the top slot's first two label rows have
    # no row below them that gives the second face its label, so the
    # stacking word starts at the slot's third choice
    config = make_config({down(0, 0): 2, down(3, -1): 0})
    faces, labels = catalog._marked(config)
    _, slots = catalog._strip_placements(faces, 1)[0]
    top, below_it = (choices[bytes(labels[p] for p in positions)]
                     for positions, choices in slots)
    assert top[:3] == [("b", 0), ("b", 3), ("d", 3)]
    below = catalog._below(1)
    assert not any(c in below[first] for first in top[:2] for c in below_it)
    assert catalog._match_stack(labels, slots, 1) == (("d", 3), ("b", 2))
    found = catalog.embeds_in_strips(config, 1)
    assert found == {"kind": "strip-h1", "word": [("d", 3), ("b", 2)]}


@lru_cache(maxsize=None)
def _completions(r):
    return enumerate_completions(make_config({up(0, 0): 0}, window=ball(up(0, 0), r)))


# SHA-256 of the JSON list of the embedding evidence (kind, and stacking word
# or special index) of criterion 8's 184 survivors in completion order, as
# the per-call embedding of earlier versions reported it.
RADIUS2_EVIDENCE_SHA256 = (
    "fcbe037d8a2a247880003ed4bfba8b0f1b98e1765810b2f728cdd3c99048296e"
)


def test_radius2_embedding_evidence_is_byte_stable():
    comps = _completions(2)
    alive = have_completions(comps, ball(up(0, 0), 4))
    evidence = [embeds_in_catalog(c) for c, ok in zip(comps, alive) if ok]
    assert len(evidence) == 184
    digest = hashlib.sha256(json.dumps(evidence).encode()).hexdigest()
    assert digest == RADIUS2_EVIDENCE_SHA256


# SHA-256 of the JSON list of the embedding evidence of every radius-3
# completion in completion order, None for the 84 that embed nowhere.
RADIUS3_EVIDENCE_SHA256 = (
    "e886d5c897293c712d408947460490b88b335c5ebcdaa4b61b22f3dc4357abe5"
)


def test_radius3_embedding_evidence_is_byte_stable():
    evidence = [embeds_in_catalog(c) for c in _completions(3)]
    assert (len(evidence), evidence.count(None)) == (736, 84)
    digest = hashlib.sha256(json.dumps(evidence).encode()).hexdigest()
    assert digest == RADIUS3_EVIDENCE_SHA256


# SHA-256 of the JSON list, per completion in completion order, of its
# survivor certificate on the probe ball: the evidence, and the
# certificate's label bytes in hex or None, as the per-face readers of
# earlier versions gave them.
CERTIFICATE_SHA256 = {
    (2, 4): "4e0d3964faa7798d37dca5273007c1165ecb690626b0490d0ccb30be6d8b1233",
    (3, 5): "c7451bfa2f6dcfe9065d16e486dd1e40f35e78cc7bafab4782c6cb62cf3b0386",
    # 288 of its special occurrences have a patch that does not cover the
    # probe ball's image, so they pull back to no certificate
    (4, 7): "2789f0b075612c696da352121d4fe1073ccdc406e7c7d61d2d27e17f8bd2e4c6",
}


@pytest.mark.parametrize("r, probe, certified", [(2, 4, 184), (3, 5, 604), (4, 7, 1708)])
def test_survivor_certificates_are_byte_stable(r, probe, certified):
    window = ball(up(0, 0), probe)
    rows = []
    for c in _completions(r):
        found, certificate = survivor_certificate(c, window)
        rows.append([found, None if certificate is None else certificate.labels.hex()])
    assert sum(labels is not None for _, labels in rows) == certified
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CERTIFICATE_SHA256[r, probe]


def test_classification_one_ring_further_out():
    assert classification_report(3, 5) == {
        "completions": 736,
        "survivors": 652,
        "dead_ends": 84,
        "embedded": {"special": 196, "strip-h1": 384, "strip-h2": 72},
        "exceptions": 0,
    }


def test_a_seed_of_0_on_up00_loses_no_generality():
    """Every valid marking of the radius-1 ball marks some face 0, and the
    label-preserving point-group moves carry Up(0,0) into all six face
    classes (orientation, (x - y) mod 3), within which label-preserving
    translations are transitive: every valid marking moves to one with
    Up(0,0) = 0."""
    markings = enumerate_completions(make_config({}, window=ball(up(0, 0), 1)))
    assert len(markings) == 84
    assert all(0 in m.labels for m in markings)
    classes = {(f.up, (f.x - f.y) % 3) for f in (g.apply_face(up(0, 0)) for g in LABEL_POINT_GROUP)}
    assert len(classes) == 6


def _spy_probes(monkeypatch):
    """Record each batch `reports` probes, as its configurations and window."""
    batches = []

    def spy(configs, window, mode=MODE_ROT_REF):
        batches.append((list(configs), window))
        return have_completions(batches[-1][0], window, mode)

    monkeypatch.setattr(reports, "have_completions", spy)
    return batches


@pytest.mark.parametrize("r, probe", [(2, 4), (3, 5)])
def test_certified_survival_matches_the_full_probe(monkeypatch, r, probe):
    # the full probe of every completion is the oracle for certify-then-probe
    comps = _completions(r)
    window = ball(up(0, 0), probe)
    batches = _spy_probes(monkeypatch)
    swept = reports._sweep(make_config({up(0, 0): 0}), r, (probe,))
    assert [depth is None for _, depth in swept] == have_completions(comps, window)
    assert all(depth in (None, probe) for _, depth in swept)
    kinds = [found and found["kind"] for found in map(embeds_in_catalog, comps)]
    assert [kind for kind, _ in swept] == kinds
    probed = {c.labels for batch, _ in batches for c in batch}
    assert all(kind is not None for c, kind in zip(comps, kinds) if c.labels not in probed)


@pytest.mark.parametrize("r, probe, certified, probed", [(2, 4, 184, 12), (3, 5, 604, 132)])
def test_only_uncertified_completions_are_probed(monkeypatch, r, probe, certified, probed):
    batches = _spy_probes(monkeypatch)
    rep = classification_report(r, probe)
    assert [len(batch) for batch, _ in batches] == [probed]
    assert rep["completions"] - probed == certified
    # the probe window is the ball's own cached object, not an equal union
    assert batches[0][1] is ball(up(0, 0), probe)


# Per (r, probe) for the seed Up(0,0) = 0: the completions, the survivors
# at each probe radius, and the depth histogram (the first probe radius at
# which a completion has no completion).
DEAD_END_ROWS = {
    (2, 4): (196, {"3": 184, "4": 184}, {3: 12}),
    (3, 5): (736, {"4": 664, "5": 652}, {4: 72, 5: 12}),
    (4, 7): (2416, {"5": 2188, "6": 2116, "7": 2104}, {5: 228, 6: 72, 7: 12}),
}


@pytest.mark.parametrize("r, probe", sorted(DEAD_END_ROWS))
def test_dead_end_rows_are_frozen(r, probe):
    completions, survivors, depths = DEAD_END_ROWS[r, probe]
    rep = dead_end_report(make_config({up(0, 0): 0}), r, probe)
    assert (rep["completions"], rep["survivors"]) == (completions, survivors)
    # survivors fall by the completions that die at each radius
    alive = [completions] + list(survivors.values())
    assert {rho: a - b for rho, a, b in zip(range(r + 1, probe + 1), alive, alive[1:])
            if a > b} == depths
    assert rep["dead_ends"] == {rho: completions - n for rho, n in survivors.items()}


_INITIAL_WINDOW = frozenset({up(0, 0), down(0, -1), down(-1, 0), down(0, 0)})


@pytest.mark.parametrize("config, r, probe, mode", [
    (make_config({up(0, 0): 0}), 2, 4, MODE_ROT_REF),
    (make_config({up(0, 0): 0}), 3, 5, MODE_ROT_REF),
    (make_config({up(0, 0): 0}, window=_INITIAL_WINDOW), 1, 3, MODE_ROT_REF),
    (parse_config(data_text("window_quad.txt")), 2, 3, MODE_ROT_REF),
    (parse_config(data_text("deadend_quad2.txt")), 2, 3, MODE_ROT_REF),
    # outside the ball: probed only, never certified
    (make_config({up(0, 0): 0, up(0, -40): 1}), 2, 4, MODE_ROT_REF),
    # under rot no marking of the radius-1 ball exists: no completion, no certificate
    (make_config({up(0, 0): 0}), 1, 3, MODE_ROT),
])
def test_dead_end_survivors_match_the_full_probe(monkeypatch, config, r, probe, mode):
    # every completion probed on every radius's ball, as the report once did
    base = ball(up(0, 0), r) | config.window
    comps = enumerate_completions(config, base, mode=mode)
    survivors = {
        str(rho): sum(have_completions(comps, ball(up(0, 0), rho) | base, mode))
        for rho in range(r + 1, probe + 1)
    }
    certified = []
    monkeypatch.setattr(reports, "survivor_certificate",
                        lambda c, w: certified.append((c, w)) or survivor_certificate(c, w))
    rep = dead_end_report(config, r, probe, mode=mode)
    assert (rep["completions"], rep["survivors"]) == (len(comps), survivors)
    assert rep["is_dead_end"] == (survivors[str(probe)] == 0)
    # certificates are sought only in the default mode and inside the ball,
    # on the last probe radius's ball
    inside = mode == MODE_ROT_REF and config.window <= ball(up(0, 0), r)
    assert certified == ([(c, ball(up(0, 0), probe)) for c in comps] if inside else [])


def test_a_certificate_is_a_valid_completion_of_the_window():
    window = ball(up(0, 0), 4)
    kinds = set()
    for c in _completions(2)[::7]:
        found, certificate = survivor_certificate(c, window)
        if certificate is not None:
            kinds.add(found["kind"])
            assert certificate.window is window
            assert check(certificate).status == VALID
            assert c.marks.items() <= certificate.marks.items()
    assert kinds == {"strip-h1", "strip-h2", "special"}
    with pytest.raises(ValueError):
        survivor_certificate(_completions(3)[0], ball(up(0, 0), 2))


_CRITERION8 = {
    "completions": 196,
    "survivors": 184,
    "dead_ends": 12,
    "embedded": {"special": 64, "strip-h1": 96, "strip-h2": 24},
    "exceptions": 0,
}


@pytest.mark.parametrize("source", ["_stack_marks", "_patch_marks"])
@pytest.mark.parametrize("fault", ["invalid", "disagreeing"])
def test_a_corrupted_certificate_raises(monkeypatch, source, fault):
    window = ball(up(0, 0), 4)
    # all zero fails check; special puzzle 1 checks Valid on the ball, but
    # the completions that occur elsewhere disagree with it
    other = bytes(special_puzzle(1, 4).marks[f] for f in sorted(window))
    original = catalog._catalog_match

    def corrupted(pull_back, w):
        labels = pull_back(w)
        if labels is None:
            return None
        return bytes(len(labels)) if fault == "invalid" else other

    # corrupt the pull-backs of strip (_stack_marks) or special-puzzle
    # (_patch_marks) occurrences only
    def match(config, center):
        found = original(config, center)
        if found is not None and (found[0]["kind"] == "special") == (source == "_patch_marks"):
            found = found[0], partial(corrupted, found[1])
        return found

    monkeypatch.setattr(catalog, "_catalog_match", match)
    with pytest.raises(RuntimeError, match="pulls back to no completion"):
        classification_report(2, 4)
    monkeypatch.undo()
    assert classification_report(2, 4) == _CRITERION8


def test_a_single_face_reads_through_the_stack():
    one = make_config({up(0, 0): 0})
    assert catalog.embeds_in_strips(one, 1) == {"kind": "strip-h1", "word": [("a", 3)]}
    assert survivor_certificate(one, one.window)[1].marks == one.marks


def _match_stack_by_recursion(labels, slots, height):
    """`_match_stack` as a recursive depth-first walk with no pruning: one
    frame per stack row, and time exponential in the rows when it backs out."""
    options = [choices.get(bytes(labels[p] for p in positions)) for positions, choices in slots]
    if None in options:
        return None
    below = catalog._below(height)

    def walk(word):
        if len(word) == len(options):
            return word
        for choice in options[len(word)]:
            if not word or choice in below[word[-1]]:
                found = walk(word + (choice,))
                if found is not None:
                    return found
        return None

    return walk(())


@pytest.mark.parametrize("height", [1, 2])
def test_stack_matches_are_the_first_words_a_recursive_walk_finds(height):
    """Two marks up to 30 face rows apart, every label pair and column
    offset, every strip placement: the explicit stack finds the first word
    of the recursive walk, or none when it finds none."""
    words = 0
    for rows in range(31):
        for a, b, dx in ((0, 0, 0), (0, 1, 0), (1, 2, 1), (2, 2, 3)):
            faces, labels = catalog._marked(make_config({up(0, 0): a, up(dx, -rows): b}))
            for _, slots in catalog._strip_placements(faces, height):
                word = catalog._match_stack(labels, slots, height)
                assert word == _match_stack_by_recursion(labels, slots, height)
                words += word is not None
    assert words > 0


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("rows", [46, 1000])
def test_strip_matches_span_a_thousand_rows(height, rows):
    """Marks 1,000 face rows apart need no Python frame per row, and marks
    46 rows apart at height 2 (17 s for the walk that does not keep its dead
    (row, choice) pairs) answer at once; the stack carries both marks."""
    config = make_config({up(0, 0): 0, up(0, -rows): 0})
    evidence, pull_back = catalog._strip_match(config, height)
    assert evidence["kind"] == f"strip-h{height}"
    assert len(evidence["word"]) == rows // height + 1
    below = catalog._below(height)
    assert all(b in below[a] for a, b in zip(evidence["word"], evidence["word"][1:]))
    assert pull_back(config.window) == config.labels


def test_stacks_of_one_shape_share_their_window():
    for height, rows in ((1, 3), (2, 2)):
        a, b = compatible_words(height, rows)[:2]
        first, second = assemble(a), assemble(b)
        assert first.window is second.window
        assert second.window == frozenset(second.marks)
        assert assemble(a, width_periods=3).window is not first.window


label_isometries = st.builds(
    lambda rot, ref, ty, k: Isometry(rot, ref, ty + 3 * k, ty),
    rot=st.sampled_from((0, 2, 4)),
    ref=st.booleans(),
    ty=st.integers(-4, 4),
    k=st.integers(-2, 2),
)
patches = st.one_of(
    st.integers(1, 12).map(lambda i: special_puzzle(i, 2)),
    st.integers(0, 195).map(lambda i: _completions(2)[i]),
)


@settings(max_examples=60, deadline=None)
@given(patches, label_isometries)
def test_isomorphic_recovers_any_label_preserving_move(c, g):
    moved = transform_config(c, g)
    h = isomorphic(c, moved)
    assert h is not None
    assert transform_config(c, h).marks == moved.marks


@settings(max_examples=60, deadline=None)
@given(patches, label_isometries)
def test_catalog_embedding_is_isometry_invariant(c, g):
    before = embeds_in_catalog(c)
    after = catalog._catalog_match(transform_config(c, g), g.apply_face(up(0, 0)))
    assert (after is None) == (before is None)
    if before is not None:
        assert after[0]["kind"] == before["kind"]


def _isomorphic_transcript() -> str:
    """`isomorphic` results, or the ValueError text, one repr a line.

    Each pair starts from a special-puzzle patch on a radius-1..3 ball or a
    one-face window; the second patch is the first moved by a random
    isometry (label-preserving or not), relabelled at one face, swapped for
    another special puzzle's patch, cut to another window, or left partial.
    """
    rng = random.Random(10)
    centres = (up(0, 0), down(0, 0), up(1, -1), down(-1, 1))

    def patch(index, window):
        marks = special_puzzle(index, 5).marks
        return make_config({f: marks[f] for f in window}, window=window)

    def window_at(centre, r):
        return [centre] if r == 0 else sorted(ball(centre, r))

    lines = []
    for _ in range(600):
        i = rng.randint(1, 12)
        window = window_at(rng.choice(centres), rng.randint(0, 3))
        a = patch(i, window)
        kind = rng.choice(("move", "move", "relabel", "swap", "cut", "partial"))
        b = a
        if kind == "swap":
            b = patch(rng.randint(1, 12), window)
        elif kind == "cut":
            b = patch(i, window_at(rng.choice(centres), rng.randint(0, 3)))
        # half of the moves are label-preserving: even rotation, tx = ty mod 3
        ty = rng.randint(-4, 4)
        if rng.random() < 0.5:
            g = Isometry(rng.choice((0, 2, 4)), rng.random() < 0.5,
                         ty + 3 * rng.randint(-1, 1), ty)
        else:
            g = Isometry(rng.randrange(6), rng.random() < 0.5, rng.randint(-4, 4), ty)
        b = transform_config(b, g)
        if kind in ("relabel", "partial"):
            marks = dict(b.marks)
            f = rng.choice(sorted(marks))
            if kind == "partial":
                del marks[f]
            else:
                marks[f] = (marks[f] + 1) % 3
            b = make_config(marks, window=b.window)
        try:
            out = repr(isomorphic(a, b))
        except ValueError as exc:
            out = f"ValueError: {exc}"
        lines.append(out)
    return "\n".join(lines) + "\n"


# SHA-256 of `_isomorphic_transcript()`, as the per-call isomorphism test of
# earlier versions gave it.
ISOMORPHIC_TRANSCRIPT_SHA256 = (
    "1f07912f47a17c9842ec696c8b3c9b6a1bd16c09ec5d3356883c6ad66f0be282"
)


def test_isomorphic_results_are_byte_stable():
    text = _isomorphic_transcript()
    assert hashlib.sha256(text.encode()).hexdigest() == ISOMORPHIC_TRANSCRIPT_SHA256


PRODUCERS = ("make_config", "parse_config", "assemble", "enumerate_completions",
             "propagate", "transform_config", "special_puzzle", "survivor_certificate")


@st.composite
def produced_configurations(draw):
    """A configuration from one of the package's producers, on drawn inputs."""
    kind = draw(st.sampled_from(PRODUCERS))
    centre = draw(st.sampled_from((up(0, 0), down(0, 0), up(2, -1))))
    window = sorted(ball(centre, draw(st.integers(1, 2))))
    marks = draw(st.dictionaries(st.sampled_from(window), st.integers(0, 2), max_size=8))
    if kind == "make_config":
        return make_config(marks, window=window)
    if kind == "parse_config":
        lines = [f"face {f.x} {f.y} {'U' if f.up else 'D'} {marks.get(f, '-')}"
                 for f in window]
        return parse_config("\n".join(["ringlab-config v1", "period 6"] + lines))
    if kind == "assemble":
        word = draw(st.sampled_from(compatible_words(draw(st.integers(1, 2)),
                                                     draw(st.integers(1, 3)))))
        return assemble(word, draw(st.integers(2, 3)))
    if kind == "enumerate_completions":
        seed = make_config({centre: draw(st.integers(0, 2))}, window=ball(centre, 1))
        return draw(st.sampled_from(enumerate_completions(seed)))
    if kind == "survivor_certificate":
        certificate = survivor_certificate(draw(st.sampled_from(_completions(2))),
                                           ball(up(0, 0), 3))[1]
        assume(certificate is not None)
        return certificate
    # a partial marking of a special puzzle propagates without contradiction
    puzzle = special_puzzle(draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    if kind == "special_puzzle":
        return puzzle
    part = make_config({f: l for f, l in puzzle.marks.items() if f in marks},
                       window=puzzle.window)
    if kind == "propagate":
        return propagate(part)
    return transform_config(part, draw(st.sampled_from(POINT_GROUP))._replace(
        tx=draw(st.integers(-3, 3)), ty=draw(st.integers(-3, 3))))


@settings(max_examples=150, deadline=None)
@given(produced_configurations())
def test_one_marking_two_views(config):
    """Every producer's label bytes and marks view tell one marking, and
    the configuration equals, and checks as, its twin built from the view."""
    order = sorted(config.window)
    assert config.faces == tuple(order) and len(config.labels) == len(order)
    assert set(config.marks) <= config.window
    assert [config.marks.get(f, UNSET) for f in order] == list(config.labels)
    twin = make_config(dict(config.marks), window=config.window)
    assert twin == config
    for mode in (MODE_ROT, MODE_ROT_REF):
        assert check(config, mode) == check(twin, mode)


def test_label_bytes_are_checked_and_the_view_is_read_only():
    window = ball(up(0, 0), 1)
    config = Configuration(window, bytes([0, 3] * 6 + [1]))
    assert config == make_config({f: l for f, l in zip(sorted(window), config.labels)
                                  if l != UNSET}, window=window)
    with pytest.raises(ValueError, match="labels for"):
        Configuration(window, bytes(12))
    with pytest.raises(ValueError, match="labels not in"):
        Configuration(window, bytes([4] * 13))
    with pytest.raises(TypeError):
        config.marks[up(0, 0)] = 1


def test_configuration_fields_are_read_only():
    # a built marks view cannot go stale: the fields it reads stay as built
    window = ball(up(0, 0), 1)
    config = make_config({up(0, 0): 1}, window=window)
    assert config.window is window  # a frozenset holding the marks is kept
    assert dict(config.marks) == {up(0, 0): 1}
    for name, value in (("window", frozenset()), ("faces", ()), ("labels", b"")):
        with pytest.raises(AttributeError):
            setattr(config, name, value)
    assert dict(config.marks) == {up(0, 0): 1}


def _first_special_occurrence(config, center):
    """Brute-force reference for `catalog._special_match`: the first
    label-preserving move, then puzzle 1..12, then patch face h in sorted
    order, whose translation of the move carrying center onto h lands every
    marked face of config on a patch face of the same label; the puzzle
    index and the translated move, or None."""
    radius = catalog._SPECIAL_PATCH_RADIUS
    for g in LABEL_POINT_GROUP:
        c_img = g.apply_face(center)
        # the center first, so most misplacements fail at their first face
        image = sorted((g.apply_face(f) != c_img, g.apply_face(f), l)
                       for f, l in config.marks.items())
        for index in range(1, 13):
            marks = special_puzzle(index, radius).marks
            for h in sorted(marks):
                tx, ty = h.x - c_img.x, h.y - c_img.y
                if h.up != c_img.up or (tx - ty) % 3 or marks[h] != image[0][2]:
                    continue
                if all(marks.get(Face(f.x + tx, f.y + ty, f.up)) == l for _, f, l in image):
                    return index, g._replace(tx=tx, ty=ty)
    return None


def _special_occurrence(config, center):
    """The puzzle index and translated move of `_special_match`'s occurrence."""
    found = catalog._special_match(config, center)
    return None if found is None else (found[0]["index"], found[1].keywords["g"])


def test_special_index_matches_the_ball_built_index():
    # the index as each patch face's own radius-1 ball, read through .marks
    want = {}
    for index in range(1, 13):
        marks = special_puzzle(index, catalog._SPECIAL_PATCH_RADIUS).marks
        for h in marks:
            if ball(h, 1) <= marks.keys():
                key = tuple(marks[f] for f in sorted(ball(h, 1)))
                want.setdefault(key, []).append((index, h))
    got = catalog._special_index()
    assert list(got.items()) == [(key, tuple(entries)) for key, entries in want.items()]


def test_special_match_finds_the_first_occurrence_of_each_completion():
    found = [_special_occurrence(c, up(0, 0)) for c in _completions(2)]
    assert found == [_first_special_occurrence(c, up(0, 0)) for c in _completions(2)]
    assert any(found) and not all(found)


@lru_cache(maxsize=None)
def _patch_centres(r):
    """The patch faces whose radius-r ball lies in the special patches."""
    window = special_puzzle(1, catalog._SPECIAL_PATCH_RADIUS).window
    return [c for c in sorted(window) if ball(c, r) <= window]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3).flatmap(
    lambda r: st.tuples(st.just(r), st.sampled_from(_patch_centres(r)))), label_isometries)
def test_special_match_finds_the_first_occurrence_of_moved_sub_balls(index, placed, g):
    r, c = placed
    marks = special_puzzle(index, catalog._SPECIAL_PATCH_RADIUS).marks
    moved = transform_config(make_config({f: marks[f] for f in ball(c, r)}), g)
    found = _special_occurrence(moved, g.apply_face(c))
    assert found is not None
    assert found == _first_special_occurrence(moved, g.apply_face(c))


def _per_face_patch_marks(window, g, patch):
    """Reference for `catalog._patch_marks`: the patch's label of g's image
    of each face of the window in sorted order, looked up face by face."""
    labels = [patch.marks.get(g.apply_face(f)) for f in sorted(window)]
    return None if None in labels else bytes(labels)


# A puzzle ball reaching past the special patches' face grid on every side.
_BEYOND_PATCH_RADIUS = 11


@lru_cache(maxsize=None)
def _rim(side):
    """The special patch faces whose radius-1 ball lies in the patch and
    whose radius-4 ball leaves the patches' face grid on the given side."""
    window = special_puzzle(1, catalog._SPECIAL_PATCH_RADIUS).window
    box = catalog._special_grids()[0]
    x0, y0, cols, rows = box.gx, box.gy, box.columns, box.height
    out = []
    for c in sorted(window):
        xs, ys = [f.x for f in ball(c, 4)], [f.y for f in ball(c, 4)]
        leaves = {"-x": min(xs) < x0, "+x": max(xs) >= x0 + cols,
                  "-y": min(ys) < y0, "+y": max(ys) >= y0 + rows}
        if ball(c, 1) <= window and leaves[side]:
            out.append(c)
    return out


@pytest.mark.parametrize("side", ["-x", "+x", "-y", "+y"])
@settings(max_examples=10, deadline=None)
@given(index=st.integers(1, 12), data=st.data(), keep=st.sampled_from((0.0, 0.5, 1.0)),
       rng=st.randoms(use_true_random=False), g=label_isometries)
def test_special_readers_answer_as_the_per_face_reference_off_the_grid(side, index, data,
                                                                      keep, rng, g):
    # a radius-4 ball about a rim face of the patch, some marks outside its
    # centre's radius-1 ball dropped, moved: its image on the patch leaves
    # the grid on the given side
    c = data.draw(st.sampled_from(_rim(side)))
    marks = special_puzzle(index, _BEYOND_PATCH_RADIUS).marks
    sub = {f: marks[f] for f in ball(c, 4) if f in ball(c, 1) or rng.random() < keep}
    moved = transform_config(make_config(sub, window=ball(c, 4)), g)
    center = g.apply_face(c)
    found = _first_special_occurrence(moved, center)
    assert _special_occurrence(moved, center) == found
    patch = special_puzzle(index, catalog._SPECIAL_PATCH_RADIUS)
    assert catalog._patch_marks(ball(c, 4), catalog._IDENTITY, index) is None
    pulls = [(ball(c, 4), catalog._IDENTITY), (ball(c, 2), g), (moved.window, g)]
    if found is not None:
        pulls.append((ball(center, 4), found[1]))
    for window, move in pulls:
        want = _per_face_patch_marks(window, move, patch)
        assert catalog._patch_marks(window, move, index) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from(POINT_GROUP), st.integers(-12, 12),
       st.integers(-12, 12), st.booleans(),
       st.sampled_from((None, (10**6, 0), (0, -10**6), (-10**6, 10**6))))
def test_patch_marks_reads_single_faces_and_far_windows_as_the_per_face_reference(
        index, g, tx, ty, u, far):
    # one face moved anywhere on, around or off the grid, alone or with a
    # second face 10^6 away
    patch = special_puzzle(index, catalog._SPECIAL_PATCH_RADIUS)
    window = frozenset({Face(0, 0, u)} | ({Face(*far, not u)} if far else set()))
    move = g._replace(tx=tx, ty=ty)
    want = _per_face_patch_marks(window, move, patch)
    assert catalog._patch_marks(window, move, index) == want
    assert far is None or want is None


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 12), st.sampled_from(_patch_centres(1)), label_isometries,
       st.sampled_from(((10**6, 0), (0, -10**6), (-10**6, 10**6))), st.integers(0, 2))
def test_special_match_misses_a_window_with_a_far_face(index, c, g, far, label):
    marks = special_puzzle(index, catalog._SPECIAL_PATCH_RADIUS).marks
    sub = {f: marks[f] for f in ball(c, 1)}
    sub[Face(c.x + far[0], c.y + far[1], True)] = label
    moved = transform_config(make_config(sub), g)
    center = g.apply_face(c)
    assert _special_occurrence(moved, center) is None
    assert _first_special_occurrence(moved, center) is None


def test_special_match_needs_the_centre_ball_marked():
    puzzle = special_puzzle(1, 2)
    with pytest.raises(ValueError, match="must cover the radius-1 ball"):
        catalog.embeds_in_special(puzzle, center=up(5, 5))
    partial_ball = make_config({f: l for f, l in puzzle.marks.items() if f != down(0, 0)},
                               window=puzzle.window)
    with pytest.raises(ValueError, match="must cover the radius-1 ball"):
        catalog.embeds_in_special(partial_ball)


def test_special_patches_share_one_window_and_are_read_by_position():
    radius = catalog._SPECIAL_PATCH_RADIUS
    special_puzzle.cache_clear()  # fresh patches, whose marks views no test has read
    window = special_puzzle(1, radius).window
    assert all(special_puzzle(i, radius).window is window for i in range(1, 13))
    assert any(catalog.embeds_in_special(c) for c in _completions(2))
    # the certificates of special occurrences read the patches by position too
    found = [survivor_certificate(c, ball(up(0, 0), 4)) for c in _completions(2)]
    assert any(e and e["kind"] == "special" and cert for e, cert in found)
    assert all(special_puzzle(i, radius)._marks is None for i in range(1, 13))


def test_special_grids_read_each_patch_at_its_box_cells():
    radius = catalog._SPECIAL_PATCH_RADIUS
    box, grids = catalog._special_grids()
    (ball_box,), _ = link_grid(ball(up(0, 0), radius))
    shape = attrgetter("gx", "gy", "columns", "height")
    assert shape(ball_box) == shape(box)
    for index, grid in enumerate(grids, start=1):
        want = bytearray((UNSET,)) * (2 * box.columns * box.height)
        for f, label in special_puzzle(index, radius).marks.items():
            want[box.cell(*f)] = label
        assert grid == want, index


def test_empty_stack_rows_share_one_slot_per_phase():
    # two marks 1,000 face rows apart: every row between them holds no face
    faces = catalog._marked(make_config({up(0, 0): 0, up(0, -1000): 1}))[0]
    for height in (1, 2):
        empty = {}
        for _, slots in catalog._strip_placements(faces, height):
            for r, slot in enumerate(slots):
                if not slot[0]:
                    empty.setdefault(-r * height % 3, {})[id(slot)] = slot
        assert sorted(empty) == [0, 1, 2]
        for phase, shared in empty.items():
            (slot,) = shared.values()
            everything = [(k, s) for k in catalog._STRIP_KEYS[height] for s in range(phase, 6, 3)]
            assert slot == ((), {b"": everything}), (height, phase)


def _first_word(options, below):
    """The first stacking word, depth first in the order of the per-row
    options, whose rows the transfer graph lets stack."""
    word = []

    def rec(r):
        if r == len(options):
            return True
        for choice in options[r]:
            if not word or choice in below[word[-1]]:
                word.append(choice)
                if rec(r + 1):
                    return True
                word.pop()
        return False

    return tuple(word) if rec(0) else None


def _per_face_strip_match(config, height):
    """Reference for `catalog._strip_match`, reading every slot's key face
    by face before testing any: the evidence and the pull-back, or None."""
    faces, labels = catalog._marked(config)
    for g, slots in catalog._strip_placements(faces, height):
        options = [choices.get(bytes([labels[p] for p in positions]), ())
                   for positions, choices in slots]
        word = _first_word(options, catalog._below(height)) if all(options) else None
        if word is not None and catalog._stack_marks(faces, g, height, word) == labels:
            pull_back = partial(catalog._stack_marks, g=g, height=height, word=word)
            return {"kind": f"strip-h{height}", "word": list(word)}, pull_back
    return None


@st.composite
def partial_completions(draw):
    """A radius-2 or radius-3 completion with some marks outside the
    radius-1 ball of Up(0,0) dropped (or none), on the same window."""
    r = draw(st.sampled_from((2, 3)))
    c = draw(st.sampled_from(_completions(r)))
    rng = draw(st.randoms(use_true_random=False))
    keep = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    core = ball(up(0, 0), 1)
    marks = {f: l for f, l in c.marks.items() if f in core or rng.random() < keep}
    return r, make_config(marks, window=c.window)


@settings(max_examples=40, deadline=None)
@given(partial_completions())
def test_partial_markings_embed_as_the_per_face_readers_do(drawn):
    r, config = drawn
    strips = [_per_face_strip_match(config, h) for h in (1, 2)]
    assert [catalog.embeds_in_strips(config, h) for h in (1, 2)] == [s and s[0] for s in strips]
    special = _first_special_occurrence(config, up(0, 0))
    if special is not None:
        index, g = special
        pull_back = partial(catalog._patch_marks, g=g, index=index)
        special = {"kind": "special", "index": index}, pull_back
    assert catalog.embeds_in_special(config) == (special and special[0])
    # the certificate: the first occurrence pulled back, agreeing face by face
    window = ball(up(0, 0), r + 2)
    found, certificate = survivor_certificate(config, window)
    evidence, pull_back = strips[0] or strips[1] or special or (None, None)
    labels = pull_back and pull_back(window)
    assert (found, certificate and certificate.labels) == (evidence, labels)
    where = window_order(window)[1]
    if labels is not None:
        assert all(labels[where[f]] == l for f, l in config.marks.items())
    # the agreement test reads each marked face's position in the window
    faces, marked = catalog._marked(config)
    at = catalog._positions(faces, catalog._IDENTITY, window)
    assert at == tuple(map(where.__getitem__, sorted(faces)))
