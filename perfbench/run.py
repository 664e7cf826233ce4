"""Benchmark for supertrees: one workload, end-to-end or per-layer metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload radius-large --seed 1 --seconds 30 --trace 0

Repetitions run one at a time, each in a fresh process (``rep.py``), until
``--seconds`` have passed and at least ``MIN_REPS`` have run.  With
``--trace 0`` every repetition is untraced and the end-to-end metrics are
their medians.  With ``--trace 1`` untraced and traced repetitions
alternate; the per-layer metrics are the medians of the traced ones and
``trace.overhead_s`` is the traced minus the untraced median ``wall_s``.
Every item passes a correctness gate outside the timed region.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
#: Every run, repetitions included, ends within this many seconds.
RUN_LIMIT_S = 170.0
SPANS_DIR = Path(".perfbench_out")


class RepFailed(RuntimeError):
    """A repetition's process failed or gave no result."""


def run_rep(workload: str, seed: int, traced: bool, budget_s: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(SPANS_DIR / f"spans-{workload}.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget_s, env=env)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition exceeded {budget_s:.0f} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RepFailed(f"repetition printed nothing:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _solved_per_rep(reps: list[dict], key: str) -> float:
    return statistics.median(sum(i[key] for i in r["items"] if not i["error"]) for r in reps)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over repetitions, of times scaled to the reference speed.

    Each item's time is its median over the repetitions.  The time of one
    repetition is the sum of those medians, and the item percentiles
    interpolate between them: pooling all item times instead put p50 and p90
    on the extreme samples of two items whenever they fell in a gap between
    item sizes.
    """
    per_item: dict[str, list[float]] = {}
    for rep in reps:
        for item in rep["items"]:
            per_item.setdefault(item["label"], []).append(item["seconds"] * item["scale"])
    item_ms = sorted(1e3 * statistics.median(v) for v in per_item.values())
    wall_s = sum(item_ms) / 1e3
    attempted = sum(len(r["items"]) for r in reps)
    solved = sum(1 for r in reps for i in r["items"] if not i["error"])
    return {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in reps),
        "wall_s": wall_s,
        "item_p50_ms": statistics.median(item_ms),
        "item_p90_ms": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
        "edges_per_s": _solved_per_rep(reps, "edges") / wall_s,
        "classes_per_s": _solved_per_rep(reps, "classes") / wall_s,
        "solved_frac": solved / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    out["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(untraced)["wall_s"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "supertrees" / "__init__.py").is_file():
        print("error: run from the root of a supertrees checkout (no src/supertrees here)", file=sys.stderr)
        return 2

    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    last_s = 0.0
    try:
        while True:
            elapsed = time.perf_counter() - start
            enough = len(untraced) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
            # Start no repetition that would end past --seconds, judged by the last one.
            if enough and elapsed + last_s > args.seconds:
                break
            tracing = bool(args.trace) and len(traced) < len(untraced)
            rep = run_rep(args.workload, args.seed, tracing, RUN_LIMIT_S - elapsed)
            (traced if tracing else untraced).append(rep)
            last_s = time.perf_counter() - start - elapsed
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    wanted = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    failures = Counter(f"{i['label']}: {i['error']}" for r in reps for i in r["items"] if i["error"])
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(untraced)} untraced, {len(traced)} traced")
    print(f"unscaled median wall_s {statistics.median(r['wall_s'] for r in untraced):.6g} s")
    for reason, count in sorted(failures.items()):
        print(f"failed x{count}  {reason}")
    for name in wanted:
        print(f"{name:<48} {metrics[name]:>16.6g} {UNITS[name]}")
    result = {
        "correct": not any(i["wrong"] for r in reps for i in r["items"]),
        "attempted": sum(len(r["items"]) for r in reps),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
