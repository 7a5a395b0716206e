"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload classify --seed 0 [--trace] [--small]

Set-up (importing ringlab, building the inputs and the first-use tables) is
timed from the first line of this file.  The pass is timed alone, untraced
unless ``--trace`` is given; peak resident memory is read right after it,
before the outputs are checked.

Every reported time is scaled by the yardstick (see yardstick.py), run
before the pass and after each of its steps: a step's time is its raw time
* YARDSTICK_S / (mean of the yardstick times just before and after it).
Set-up and per-layer times are scaled by the mean of all the pass's
yardstick times.  The raw times are reported beside them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402,F401  (puts the checkout's src on the path)
import workloads  # noqa: E402
from ringlab.rings import match_link  # noqa: E402
from yardstick import YARDSTICK_S, yardstick  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)

    inputs = workloads.setup(args.workload, args.seed, "small" if args.small else "full")
    setup_s = time.perf_counter() - T0
    tally = workloads.Tally()
    steps = workloads.PASSES[args.workload](inputs, tally)
    yards = [yardstick()]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cache0 = match_link.cache_info()
    out, wall_s, cpu_s, scaled_wall_s = [], 0.0, 0.0, 0.0
    for step in steps:
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        out.append(step())
        dt = time.perf_counter() - w0
        cpu_s += time.process_time() - cpu0
        yards.append(yardstick())
        wall_s += dt
        scaled_wall_s += dt * YARDSTICK_S / ((yards[-2] + yards[-1]) / 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache1 = match_link.cache_info()
    if tracer is not None:
        tracer.uninstall()
    scale = YARDSTICK_S * len(yards) / sum(yards)
    result = {"wall_s": scaled_wall_s, "setup_s": setup_s * scale,
              "peak_rss_mb": peak_rss_mb, "raw_wall_s": wall_s, "raw_setup_s": setup_s,
              "cpu_s": cpu_s, "yardstick_s": sum(yards) / len(yards)}
    if tracer is not None:
        layers = {k: v * scale if k.endswith("_s") else v
                  for k, v in tracer.metrics().items()}
        layers["rings.match_link_lookups"] = (
            cache1.hits + cache1.misses - cache0.hits - cache0.misses)
        layers["rings.match_link_words"] = cache1.misses - cache0.misses
        result["layers"] = layers
    workloads.VERIFY[args.workload](inputs, out, tally)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
