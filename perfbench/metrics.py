"""Metric schema and the arithmetic that turns repetitions into metrics.

``END_TO_END`` and ``PER_LAYER`` mirror BENCHMARK.json; the self-tests keep
the two in step.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracer import Totals, aggregate

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("item_p50_ms", "ms", "lower"),
    ("item_p90_ms", "ms", "lower"),
    ("edges_per_s", "1/s", "higher"),
    ("classes_per_s", "1/s", "higher"),
    ("solved_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("certificates.alpha_normal_radius.calls", "count", "lower"),
    ("certificates.alpha_normal_radius.self_s", "s", "lower"),
    ("certificates.propagate_certificate.ms_per_edge", "ms", "lower"),
    ("certificates.alpha.evals_equiv", "count", "lower"),
    ("certificates.alpha.failures", "count", "lower"),
    ("spectral.power_iteration.calls", "count", "lower"),
    ("spectral.power_iteration.self_s", "s", "lower"),
    ("spectral.power_iteration.iterations", "count", "lower"),
    ("spectral.power_iteration.s_per_iter", "s", "lower"),
    ("spectral.tensor_apply.calls", "count", "lower"),
    ("spectral.tensor_apply.self_s", "s", "lower"),
    ("spectral.tensor_apply.us_per_edge", "us", "lower"),
    ("spectral.bracket_rel_width", "ratio", "lower"),
    ("hypergraph.canonical_key.calls", "count", "lower"),
    ("hypergraph.canonical_key.self_s", "s", "lower"),
    ("hypergraph.is_connected.self_s", "s", "lower"),
    ("hypergraph.is_supertree.self_s", "s", "lower"),
    ("hypergraph.vertex_stats.self_s", "s", "lower"),
    ("ordering.enumerate_supertrees.self_s", "s", "lower"),
    ("ordering.enumerate.candidates", "count", "lower"),
    ("ordering.enumerate.useful_ratio", "ratio", "higher"),
    ("ordering.rank_spectra.self_s", "s", "lower"),
    ("ordering.verify_top_four.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("constructors.build_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: Work counted per call, read off the call's arguments or result.
PROBES = {
    "spectral.power_iteration": lambda args, result: result.iterations,
    "spectral.tensor_apply": lambda args, result: args[0].m,
    "ordering.enumerate_supertrees": lambda args, result: len(result),
}

ITEM_SPAN = "bench.item"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float, build_s: float, probes, widths) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``probes`` holds, per item in run order, the seconds of one outside
    ``propagate_certificate`` call on its input and the input's edge count
    (both 0 without an input supertree); ``widths`` the relative
    Collatz-Wielandt bracket widths the gate measured.
    """
    totals = aggregate(spans)

    def t(name: str) -> Totals:
        return totals.get(name, Totals())

    alpha = t("certificates.alpha_normal_radius")
    power = t("spectral.power_iteration")
    apply = t("spectral.tensor_apply")
    key = t("hypergraph.canonical_key")
    enum = t("ordering.enumerate_supertrees")

    names = {s.id: s.name for s in spans}
    # Every canonical_key that enumerate_supertrees computes is one candidate,
    # except the one for its single-edge seed.
    keyed = sum(
        1 for s in spans
        if s.name == "hypergraph.canonical_key" and names.get(s.parent) == "ordering.enumerate_supertrees"
    )
    candidates = keyed - enum.calls

    alpha_by_root = Counter()
    for s in spans:
        if s.name == "certificates.alpha_normal_radius" and names.get(s.parent) == ITEM_SPAN:
            alpha_by_root[s.root] += s.end - s.start
    roots = [s.id for s in spans if s.name == ITEM_SPAN]
    evals = [alpha_by_root[r] / p for r, (p, _) in zip(roots, probes) if alpha_by_root[r] and p]

    layer_self = sum(v.self_s for name, v in totals.items() if name != ITEM_SPAN)
    return {
        "certificates.alpha_normal_radius.calls": alpha.calls,
        "certificates.alpha_normal_radius.self_s": alpha.self_s,
        "certificates.propagate_certificate.ms_per_edge": _ratio(
            1e3 * sum(p for p, _ in probes), sum(e for _, e in probes)
        ),
        "certificates.alpha.evals_equiv": statistics.median(evals) if evals else 0.0,
        "certificates.alpha.failures": alpha.errors,
        "spectral.power_iteration.calls": power.calls,
        "spectral.power_iteration.self_s": power.self_s,
        "spectral.power_iteration.iterations": power.work,
        "spectral.power_iteration.s_per_iter": _ratio(power.total_s, power.work),
        "spectral.tensor_apply.calls": apply.calls,
        "spectral.tensor_apply.self_s": apply.self_s,
        "spectral.tensor_apply.us_per_edge": _ratio(apply.self_s * 1e6, apply.work),
        "spectral.bracket_rel_width": max(widths, default=0.0),
        "hypergraph.canonical_key.calls": key.calls,
        "hypergraph.canonical_key.self_s": key.self_s,
        "hypergraph.is_connected.self_s": t("hypergraph.is_connected").self_s,
        "hypergraph.is_supertree.self_s": t("hypergraph.is_supertree").self_s,
        "hypergraph.vertex_stats.self_s": t("hypergraph.vertex_stats").self_s,
        "ordering.enumerate_supertrees.self_s": enum.self_s,
        "ordering.enumerate.candidates": candidates,
        "ordering.enumerate.useful_ratio": _ratio(enum.work, candidates),
        "ordering.rank_spectra.self_s": t("ordering.rank_spectra").self_s,
        "ordering.verify_top_four.self_s": t("ordering.verify_top_four").self_s,
        "cli.main.self_s": t("cli.main").self_s,
        "constructors.build_s": build_s,
        "trace.self_coverage": _ratio(layer_self, wall_s),
    }
