"""Self-tests of the benchmark harness: metric schema, span arithmetic,
tracer bindings and the correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import supertrees  # noqa: E402

import run  # noqa: E402
from metrics import END_TO_END, ITEM_SPAN, PER_LAYER, PROBES, layer_metrics  # noqa: E402
from tracer import Span, Tracer, aggregate, self_times  # noqa: E402
from workloads import (  # noqa: E402
    GateError,
    Item,
    close_to,
    eigen_medium,
    gate,
    random_shape,
    solve,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_metric_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _span(i, parent, start, end, name="x"):
    return Span(i, name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, -1, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 1, 2.0, 3.0, "leaf"),
        _span(3, 0, 3.5, 6.0, "b"),  # overlaps a: the union [1, 6] counts once
        _span(4, 0, 8.0, 9.0, "a"),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0}
    totals = aggregate(spans)
    assert (totals["a"].calls, totals["a"].total_s, totals["a"].self_s) == (2, 4.0, 3.0)


def test_tracer_wraps_every_binding_and_restores_them():
    original = supertrees.spectral.power_iteration
    tracer = Tracer(PROBES)
    tracer.install()
    try:
        assert supertrees.ordering.power_iteration is supertrees.spectral.power_iteration
        assert supertrees.power_iteration is not original
        supertrees.ordering.verify_partition_lemma(5, 3)
    finally:
        tracer.uninstall()
    assert supertrees.ordering.power_iteration is original
    assert supertrees.spectral.power_iteration is original
    spans = tracer.finished()
    names = {s.id: s.name for s in spans}
    power = [s for s in spans if s.name == "spectral.power_iteration"]
    assert power and all(names[s.parent] == "ordering.verify_partition_lemma" for s in power)
    applies = [s for s in spans if s.name == "spectral.tensor_apply"]
    assert all(names[s.parent] == "spectral.power_iteration" for s in applies)
    assert sum(s.work for s in power) == len(applies)
    assert all(s.root == spans[0].id for s in spans if s.parent >= 0)


def test_candidates_match_the_count_from_public_outputs():
    m, k = 5, 3
    tracer = Tracer(PROBES)
    tracer.install()
    try:
        classes = len(tracer.wrap(ITEM_SPAN, supertrees.ordering.enumerate_supertrees)(m, k))
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.finished(), 1.0, 0.0, [], [])
    levels = [supertrees.enumerate_supertrees(j, k) for j in range(1, m)]
    expected = sum(len(reps) * reps[0].n for reps in levels)
    assert layers["ordering.enumerate.candidates"] == expected
    assert layers["ordering.enumerate.useful_ratio"] == classes / expected


def test_random_shape_is_random_supertree():
    for m, k in ((1, 3), (40, 3), (25, 5)):
        assert random_shape(supertrees, m, k, random.Random(m)) == supertrees.random_supertree(
            m, k, random.Random(m)
        )


def _rep(outcomes):
    return {"setup_s": 0.1, "setup_scale": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0, "items": [vars(o) for o in outcomes]}


def test_wrong_radius_and_raising_solver_count_as_failed():
    def raises():
        raise supertrees.BracketError("bisection stalled")

    h = supertrees.hyperstar(4, 3)
    items = [
        Item("right", lambda: 4 ** (1 / 3), close_to(4 ** (1 / 3)), 4, 1, h),
        Item("wrong", lambda: 1.6, close_to(4 ** (1 / 3)), 4, 1, h),
        Item("raises", raises, close_to(4 ** (1 / 3)), 4, 1, h),
    ]
    outcomes, results = solve(items)
    gate(items, outcomes, results)
    assert [(not o.error, o.wrong) for o in outcomes] == [(True, False), (False, True), (False, False)]
    assert outcomes[1].error.startswith(f"gate {GateError.__name__}")
    assert outcomes[2].error.startswith("BracketError")
    metrics = run.end_to_end([_rep(outcomes)])
    assert metrics["solved_frac"] == 1 / 3
    assert metrics["wall_s"] == pytest.approx(sum(o.seconds * o.scale for o in outcomes))
    assert metrics["edges_per_s"] == pytest.approx(4 / metrics["wall_s"])


def test_power_gate_rejects_a_perturbed_radius():
    items = [i for i in eigen_medium(supertrees) if i.label == "path3-m20"]
    pair = items[0].call()
    assert items[0].check(pair) < 1e-9
    bad = type(pair)(rho=pair.rho * (1 + 1e-6), x=pair.x, residual=pair.residual, iterations=pair.iterations)
    with pytest.raises(GateError):
        items[0].check(bad)
