"""ringlab benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 30 --trace 0

Passes run one after another (closed loop), each in a fresh Python process,
until ``--seconds`` have passed; at least one pass always runs.  Times are
scaled by the yardstick (see yardstick.py); each pass's line also shows the
raw times.  With ``--trace 0`` every pass is untraced and the end-to-end
metrics are the medians over the passes.  With ``--trace 1`` each round is one untraced and
one traced pass; the per-layer metrics are medians over the traced passes,
and ``trace.overhead_s`` is the traced median wall time minus the untraced
one.  One line per pass goes to standard output, and the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify", "enumerate", "catalog")
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "engine.probe_s": "s",
    "engine.probe_calls": "count",
    "engine.probe_hits": "count",
    "engine.enumerate_s": "s",
    "engine.enumerate_calls": "count",
    "engine.propagate_s": "s",
    "engine.propagate_calls": "count",
    "engine.check_s": "s",
    "engine.check_calls": "count",
    "engine.self_s": "s",
    "rings.match_link_lookups": "count",
    "rings.match_link_words": "count",
    "lattice.apply_face_calls": "count",
    "catalog.transform_s": "s",
    "catalog.transform_calls": "count",
    "catalog.embed_s": "s",
    "catalog.embed_calls": "count",
    "catalog.embed_strips_s": "s",
    "catalog.embed_special_s": "s",
    "catalog.assemble_s": "s",
    "catalog.assemble_calls": "count",
    "catalog.special_puzzle_s": "s",
    "catalog.isomorphic_s": "s",
    "catalog.isomorphic_calls": "count",
    "catalog.self_s": "s",
    "distributions.induced_s": "s",
    "distributions.classify_s": "s",
    "distributions.dist_propagate_s": "s",
    "distributions.dist_propagate_calls": "count",
    "distributions.build_d0_s": "s",
    "distributions.lemma_l3_s": "s",
    "distributions.self_s": "s",
    "labeling.derive_s": "s",
    "trace.overhead_s": "s",
}


def run_worker(workload: str, seed: int, traced: bool, small: bool = False) -> dict:
    """Run one pass in a fresh process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build() -> None:
    """Byte-compile the package and the benchmark so no pass pays for it."""
    if not os.path.isdir(os.path.join(SRC, "ringlab")):
        raise SystemExit(f"no ringlab sources under {SRC}")
    for d in (os.path.join(SRC, "ringlab"), HERE):
        if not compileall.compile_dir(d, quiet=1):
            raise SystemExit(f"could not compile {d}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    build()

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_worker(args.workload, args.seed, traced=False))
        if args.trace:
            traced.append(run_worker(args.workload, args.seed, traced=True))
    for kind, rows in (("plain", plain), ("traced", traced)):
        for k, r in enumerate(rows, 1):
            print(f"{kind} pass {k}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.2f} | raw: wall_s={r['raw_wall_s']:.4f} "
                  f"cpu_s={r['cpu_s']:.4f} setup_s={r['raw_setup_s']:.4f} "
                  f"yardstick_s={r['yardstick_s']:.4f} | attempted={r['attempted']} "
                  f"failed={r['failed']}")
            for problem in r["problems"]:
                print(f"  wrong: {problem}")

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        layers = {name: (statistics.median_low if unit == "count" else statistics.median)(
                      r["layers"][name] for r in traced)
                  for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
        counts = [{k: v for k, v in r["layers"].items() if PER_LAYER.get(k) == "count"}
                  for r in traced]
        if any(c != counts[0] for c in counts):
            print("warning: per-layer counts differ between traced passes", file=sys.stderr)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    rows = plain + traced
    print(json.dumps({
        "correct": not any(r["problems"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
