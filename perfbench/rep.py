"""One repetition of one workload, in its own process.

A fresh process starts every ``lru_cache`` in supertrees cold, as each CLI
run does, and gives a peak RSS for this repetition alone.  ``run.py``
starts it from the root of a checkout as

    python3 perfbench/rep.py --workload W --seed N --trace 0|1 [--spans FILE]

and reads the JSON object on its last line of output.
"""

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from metrics import ITEM_SPAN, PROBES, layer_metrics
from tracer import Span, Tracer
from workloads import REFERENCE_S, WORKLOADS, build, gate, reference_seconds, solve


def propagation_probe(st, item) -> tuple[float, int]:
    """Seconds of one propagate_certificate on the item's input, at the
    lower end of the solver's own alpha bracket, where it is always feasible."""
    h = item.host
    if h is None:
        return 0.0, 0
    alpha = 1.0 / (max(st.hypergraph.vertex_stats(h).degrees) * h.m)
    t0 = time.perf_counter()
    st.certificates.propagate_certificate(h, alpha)
    return time.perf_counter() - t0, h.m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="write the traced spans here as json")
    args = p.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import supertrees
    import supertrees.cli  # noqa: F401  (bound before tracing so its names get wrapped)

    t_build = time.perf_counter()
    items = build(supertrees, args.workload, args.seed)
    ready = time.perf_counter()
    setup_scale = REFERENCE_S / reference_seconds()

    tracer = wrap = None
    if args.trace:
        tracer = Tracer(PROBES)
        tracer.install()
        wrap = lambda call: tracer.wrap(ITEM_SPAN, call)  # noqa: E731
    outcomes, results = solve(items, wrap)
    wall_s = sum(o.seconds for o in outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    gate(items, outcomes, results)
    record = {
        "setup_s": ready - start,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "items": [asdict(o) for o in outcomes],
    }
    if tracer:
        spans = tracer.finished()
        probes = [propagation_probe(supertrees, item) for item in items]
        widths = [o.width for o in outcomes if o.width is not None]
        record["layers"] = layer_metrics(spans, wall_s, ready - t_build, probes, widths)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": Span._fields, "spans": spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
