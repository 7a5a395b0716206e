"""Tests of the benchmark itself: its reference computations, its checks,
the repeatability of its per-layer counts, and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ringlab import catalog, distributions, engine, labeling  # noqa: E402
from ringlab.lattice import down, up, ball  # noqa: E402


@pytest.mark.parametrize("radius,count", [(1, 28), (2, 196)])
@pytest.mark.parametrize("face", [up(0, 0), down(2, -1)])
def test_reference_matches_engine(face, radius, count):
    for label in (0, 1, 2):
        window = ball(face, radius)
        ref = reference.completions({face: label}, window)
        got = engine.enumerate_completions(engine.make_config({face: label}, window=window))
        assert len(ref) == len(got) == count
        assert reference.set_digest(ref) == reference.set_digest(c.marks for c in got)


def test_reference_rejects_a_broken_partial_marking():
    seed = {up(0, 0): 0, down(0, 0): 0, down(-1, 0): 0, down(0, -1): 0}
    assert reference.completions(seed, ball(up(0, 0), 1)) == []


@pytest.mark.parametrize("height", [1, 2])
def test_transfer_count_matches_compatible_words(height):
    keys = "".join(s.key for s in catalog.strip_variants(height))
    for rows in range(1, 5):
        want = len(catalog.compatible_words(height, rows))
        assert reference.transfer_count(catalog.INTERFACE_DELTAS[height], keys,
                                        height, rows) == want
    assert want == workloads.WORDS_AT_4_ROWS[height]


def test_parity_and_edge_checks_reject_a_changed_value():
    d0 = distributions.build_D0(distributions.hex_window(5))
    assert reference.odd_faces_ok(d0.axis)
    bent = dict(d0.axis)
    bent[(1, 1)] = (bent[(1, 1)] + 1) % 3
    assert not reference.odd_faces_ok(bent)

    labels = labeling.derive_edge_labels(labeling.square_window(6))
    assert reference.edge_rules_ok(labels)
    for e in sorted(labels)[::17]:
        bent = dict(labels)
        bent[e] = (bent[e] + 1) % 3
        assert not reference.edge_rules_ok(bent)


def test_enumerate_starts_depend_only_on_seed():
    assert workloads.enumerate_starts(0) == [(up(0, 0), 0), (up(0, 0), 1), (up(0, 0), 2)]
    assert workloads.enumerate_starts(11) == workloads.enumerate_starts(11)
    for seed in range(1, 20):
        starts = workloads.enumerate_starts(seed)
        assert len({f for f, _ in starts}) == 1
        assert sorted(l for _, l in starts) == [0, 1, 2]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first = run.run_worker(workload, seed=3, traced=True, small=True)
    second = run.run_worker(workload, seed=3, traced=True, small=True)
    for r in (first, second):
        assert r["problems"] == [] and r["failed"] == 0 and r["attempted"] > 0
    counts = [{k: v for k, v in r["layers"].items() if run.PER_LAYER.get(k) == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert set(run.PER_LAYER) - set(first["layers"]) == {"trace.overhead_s"}
    busy = {"classify": ("engine.probe_calls", "catalog.embed_calls"),
            "enumerate": ("engine.enumerate_calls",),
            "catalog": ("engine.propagate_calls", "engine.check_calls",
                        "catalog.isomorphic_calls", "distributions.dist_propagate_calls")}
    assert all(counts[0][k] > 0 for k in busy[workload])
    if workload == "enumerate":
        assert counts[0]["engine.enumerate_calls"] == 3
        assert counts[0]["lattice.apply_face_calls"] == 0
        assert all(v == 0 for k, v in first["layers"].items() if k.startswith("catalog."))


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
