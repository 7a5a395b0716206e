"""Acceptance battery: the nine headline checks with frozen exact counts.

Each test prints one pass/fail line with its runtime; every asserted count
also appears in the machine-readable criterion report, which is validated
against the shipped JSON schema.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from ringlab import reports
from ringlab.configio import to_json, validate_report

_RESULTS = {}


def _run(number, bound_s, check_fn):
    t0 = time.perf_counter()
    rep = reports.criterion_report(number)
    elapsed = time.perf_counter() - t0
    _RESULTS[number] = rep
    try:
        validate_report("criterion%d" % number, rep)
        check_fn(rep)
        assert elapsed < bound_s, "runtime %.2fs exceeds %ds" % (elapsed, bound_s)
    except AssertionError:
        print("criterion %d: FAIL (%.2fs)" % (number, elapsed))
        raise
    print("criterion %d: PASS (%.2fs)" % (number, elapsed))


def test_criterion_1_edge_labeling():
    def check(rep):
        assert rep["matches_closed_form"] is True
        assert rep["three_periodic"] is True
        assert rep["bottom_row_cycles"] is True
        assert rep["edges"] == 456

    _run(1, 1, check)


def test_criterion_2_ring_rank_table():
    def check(rep):
        assert rep["rings"] == 9
        assert rep["embeddings"] == 108
        assert rep["domains"] == 72
        assert rep["multiplicities"] == [1, 2]
        assert rep["diameter_rule"] is True
        assert sorted(rep["ranks"]) == ["2", "3/2"]
        assert rep["legal_words"] == 54
        assert rep["rank_axes"] == 54

    _run(2, 1, check)


def test_criterion_3_nonpositive_curvature():
    def check(rep):
        assert rep["unique_beyond_pi"] is True
        assert rep["max_ambiguous_arcs"] == 3
        assert rep["lengths"]["3"] == {"words": 72, "max_embedding_classes": 2}
        for arcs in ("4", "5", "6"):
            assert rep["lengths"][arcs] == {
                "words": 108,
                "max_embedding_classes": 1,
            }

    _run(3, 1, check)


def test_criterion_4_section_two_counts():
    def check(rep):
        assert rep["completions"] == {
            "initial": 8,
            "one_one_one": 2,
            "quad_window": 4,
        }
        assert rep["ball2_counts"] == [4, 1, 4, 0]
        assert rep["drawing2_in_quad"] is True
        assert rep["dead_end"]["is_dead_end"] is True
        assert rep["dead_end"]["completions"] == 0

    _run(4, 10, check)


def test_criterion_5_catalog_validity():
    def check(rep):
        assert rep["strips"] == 7
        assert rep["words"] == {"h1": 768, "h2": 48}
        assert rep["all_valid"] is True
        assert rep["classes"] == [["a", "d"], ["b"], ["c", "e"], ["f"]]
        assert rep["readings"] == 8
        assert rep["initial_configurations"] == 24
        assert rep["families"] == {
            "h1": "Family2Periodic",
            "h2": "Family1Periodic",
        }

    _run(5, 5, check)


def test_criterion_6_twelve_specials():
    def check(rep):
        assert rep["propagated"] == 12
        assert rep["completions"] == [1] * 12
        assert rep["pairwise_non_isomorphic"] is True
        assert rep["families"] == ["SpecialD0"] * 12

    _run(6, 30, check)


def test_criterion_7_distribution_lemmas():
    def check(rep):
        assert rep["valid_configurations"] == 196
        assert rep["all_odd"] is True
        assert rep["half_strip"] == {
            "rows": ["a", "b", "a", "b", "a"],
            "alternates": True,
        }
        assert rep["d0"] == {
            "r6_vertices": 127,
            "r8_vertices": 217,
            "all_odd": True,
            "idempotent": True,
        }
        assert rep["lemma_l3"] == {
            "assignments": 342,
            "with_segment": 294,
            "forced_on_enlargement": 22,
            "unextendable": 26,
            "counterexamples": 0,
        }

    _run(7, 120, check)


def test_criterion_8_bounded_classification():
    def check(rep):
        assert rep["completions"] == 196
        assert rep["survivors"] == 184
        assert rep["dead_ends"] == 12
        assert rep["embedded"] == {
            "special": 64,
            "strip-h1": 96,
            "strip-h2": 24,
        }
        assert rep["exceptions"] == 0
        assert rep["survivors"] + rep["dead_ends"] == rep["completions"]
        assert sum(rep["embedded"].values()) == rep["survivors"]

    _run(8, 600, check)


# the directory holding the ringlab package, and a child program that writes
# the reports of criteria 1-8 to stdout, one `to_json` text after another
_SRC = str(Path(reports.__file__).resolve().parents[1])
_CHILD = """import sys
from ringlab import reports
from ringlab.configio import to_json
sys.stdout.write("".join(to_json(reports.criterion_report(n)) for n in range(1, 9)))
"""
# Under CPython 3.11's string hash, seed 0 iterates {"2", "3/2"} (the ring
# ranks of criterion 2, the one set of strings the reports sort) as
# ["3/2", "2"] and seed 3 as ["2", "3/2"], so an unsorted set of strings
# shows on every run, not only when this process's random seed differs.
_SEEDS = ("0", "3")


def test_criterion_9_hash_seed_determinism():
    """Two fresh interpreters under different hash seeds, started together,
    write the same report bytes as this process: no report depends on the
    iteration order of a set or dict of strings."""
    t0 = time.perf_counter()
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_SRC,
                     PYTHONIOENCODING="utf-8"),
            stdout=subprocess.PIPE,
        )
        for seed in _SEEDS
    ]
    try:
        expected = "".join(
            to_json(_RESULTS.get(n) or reports.criterion_report(n)) for n in range(1, 9)
        ).encode("utf-8")
        outs = [child.communicate(timeout=300)[0] for child in children]
    finally:
        for child in children:
            child.kill()
            child.wait()
    for seed, child, out in zip(_SEEDS, children, outs):
        assert child.returncode == 0, "PYTHONHASHSEED=%s exited %d" % (seed, child.returncode)
        assert out == expected, "reports drift under PYTHONHASHSEED=%s" % seed
    print("criterion 9: PASS (%.2fs)" % (time.perf_counter() - t0))
