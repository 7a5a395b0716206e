"""Ring table, link matching, root multiplicities and ranks."""

import hashlib
from fractions import Fraction
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from ringlab.rings import (
    MODE_ROT,
    MODE_ROT_REF,
    Q_VALUE,
    all_embeddings,
    check_extension_property,
    half_domains,
    legal_words,
    match_link,
    multiplicity_table,
    rank_axis,
    ring_table,
    root_rank,
    sector_options,
)

words = st.tuples(*[st.integers(0, 2)] * 6)


def test_nine_rings_three_per_residue():
    table = ring_table()
    assert len(table) == 9
    for s in (0, 1, 2):
        assert sorted(r.index for r in table if r.s == s) == [1, 2, 3]
    # edge decorations alternate the two labels fixed by the residue
    for r in table:
        assert r.edges[0::2] == (r.edges[0],) * 3
        assert r.edges[1::2] == (r.edges[1],) * 3
        assert r.edges[1] == r.s


def test_each_ring_matches_itself():
    for r in ring_table():
        ms = match_link(r.faces, r.s, MODE_ROT)
        assert any(m.ring == r and m.kind == "rot" and m.param == 0 for m in ms)


def test_legal_word_counts():
    # rotations alone admit the 27 rotated ring words; reflections double that
    assert len(legal_words(MODE_ROT)) == 27
    assert len(legal_words(MODE_ROT_REF)) == 54
    assert set(legal_words(MODE_ROT)) <= set(legal_words(MODE_ROT_REF))


@given(words, st.integers(0, 2))
def test_rotating_a_word_keeps_its_legality(word, s):
    ms = match_link(word, s, MODE_ROT)
    rotated = word[2:] + word[:2]
    # a two-sector turn lands in the same residue class
    ms2 = match_link(rotated, s, MODE_ROT)
    assert bool(ms) == bool(ms2)


@given(words, st.integers(0, 2))
def test_rot_matches_are_also_rot_ref_matches(word, s):
    rot = set(match_link(word, s, MODE_ROT))
    both = set(match_link(word, s, MODE_ROT_REF))
    assert rot <= both


@given(words, st.integers(0, 2))
def test_sector_options_allow_exactly_the_matching_labels(word, s):
    for k in range(6):
        opts = sector_options(word[:k] + (None,) + word[k + 1 :], s, MODE_ROT_REF)
        want = {
            l
            for l in (0, 1, 2)
            if match_link(word[:k] + (l,) + word[k + 1 :], s, MODE_ROT_REF)
        }
        assert set(opts[k]) == want


def test_embedding_and_domain_counts():
    assert len(all_embeddings()) == 108
    mt = multiplicity_table()
    assert len(mt) == 72
    assert set(mt.values()) == {1, 2}


def test_diameter_rule():
    mt = multiplicity_table()
    for e in all_embeddings():
        assert (mt[e.domain] == 1) == (e.start % 3 == 0)


def test_ranks_are_three_halves_or_two():
    mt = multiplicity_table()
    ranks = [root_rank(d) for d in mt]
    assert ranks == [1 + Fraction(mt[d], Q_VALUE) for d in mt]
    counts = {Fraction(3, 2): 0, Fraction(2): 0}
    for r in ranks:
        counts[r] += 1
    assert counts == {Fraction(3, 2): 36, Fraction(2): 36}


def test_every_legal_word_has_one_rank_32_axis():
    for s, word in legal_words():
        axis = rank_axis(word, s)
        assert axis in (0, 1, 2)
        # both half domains across that axis have multiplicity 1
        mt = multiplicity_table()
        for half in half_domains(word, s, axis):
            assert mt[half] == 1


def test_extension_property_is_frozen():
    assert check_extension_property() == {
        "lengths": {
            3: {"words": 72, "max_embedding_classes": 2},
            4: {"words": 108, "max_embedding_classes": 1},
            5: {"words": 108, "max_embedding_classes": 1},
            6: {"words": 108, "max_embedding_classes": 1},
        },
        "max_ambiguous_arcs": 3,
    }


# SHA-256 of the repr of match_link over every partial link word, family and
# mode, and of legal_words per mode, as separate map loops gave them.
MATCH_LINK_SHA256 = "4e52c68874fe50d971d5f2adff0fd5ff7e9509e5df6331dfede896d371795403"


def test_match_link_and_legal_words_are_byte_stable():
    h = hashlib.sha256()
    for mode in (MODE_ROT, MODE_ROT_REF):
        for s in range(3):
            for word in product((None, 0, 1, 2), repeat=6):
                h.update(repr(match_link.__wrapped__(word, s, mode)).encode())
        h.update(repr(legal_words.__wrapped__(mode)).encode())
    assert h.hexdigest() == MATCH_LINK_SHA256
