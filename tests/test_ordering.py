"""Enumeration, ranking, and the theorem verifiers."""

import hashlib
import logging
import math
import os
import random
import subprocess
import sys
import weakref

import networkx as nx
import pytest

from supertrees import (
    CounterexampleFound,
    Hypergraph,
    alpha_normal_bracket,
    alpha_normal_radius,
    broom,
    canonical_key,
    double_star,
    enumerate_supertrees,
    f_tree,
    hyperstar,
    is_supertree,
    move_edges,
    path,
    power_iteration,
    random_supertree,
    rank_spectra,
    reduce_non_pendent,
    report_to_csv,
    report_to_dict,
    tree_power,
    verify_moving_edges,
    verify_partition_lemma,
    verify_sandwich,
    verify_top_four,
    vertex_stats,
)
import supertrees.hypergraph as hypergraph
import supertrees.ordering as ordering
from supertrees.ordering import TIE_TOL

from oracles import are_isomorphic, count_classes_brute, supertree_counts


# --- enumeration -----------------------------------------------------------------


def test_single_class_at_m1():
    reps = enumerate_supertrees(1, 3)
    assert len(reps) == 1 and reps[0].m == 1


def test_enumeration_counts_match_brute_force():
    assert len(enumerate_supertrees(4, 2)) == count_classes_brute(4, 2)== 3
    assert len(enumerate_supertrees(3, 3)) == count_classes_brute(3, 3) == 2


def test_enumeration_matches_unlabeled_tree_counts():
    # 2-uniform supertrees with m edges are exactly the trees on m+1 vertices
    for m in range(1, 8):
        expected = sum(1 for _ in nx.nonisomorphic_trees(m + 1))
        assert len(enumerate_supertrees(m, 2)) == expected


def test_class_count_oracle_gives_the_known_counts():
    # Otter's free trees at k = 2 (OEIS A000055); the enumeration's own
    # counts at k = 3 up to m = 12, and the series' own past that
    assert list(supertree_counts(2, 16).values()) == [
        1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629
    ]
    counts = supertree_counts(3, 16)
    assert [counts[m] for m in range(8, 17)] == [
        126, 355, 1037, 3124, 9676, 30604, 98473, 321572, 1063146
    ]
    counts = supertree_counts(4, 16)
    assert [counts[m] for m in range(12, 17)] == [14427, 48056, 162779, 560020, 1950724]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumeration_matches_the_class_count_oracle(k):
    counts = supertree_counts(k, 10)
    assert [len(enumerate_supertrees(m, k)) for m in range(1, 11)] == list(counts.values())


def test_enumeration_outputs_are_supertrees():
    for k in (2, 3, 4):
        for h in enumerate_supertrees(5, k):
            assert h.k == k and h.m == 5
            assert is_supertree(h)


def test_enumeration_deduplicates():
    reps = enumerate_supertrees(5, 3)
    keys = [canonical_key(h) for h in reps]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_enumeration_takes_sizes_past_the_cli_cap():
    # the cap on --m is the CLI's (tests/test_cli.py); the library takes any m
    assert len(enumerate_supertrees(10, 2)) == 235  # the trees on 11 vertices
    assert len(enumerate_supertrees(11, 2)) == 551  # the trees on 12 vertices


@pytest.mark.parametrize(
    "function, args",
    [
        (enumerate_supertrees, (3, 3)),
        (rank_spectra, (3, 3)),
        (verify_top_four, (4, 3)),
        (verify_moving_edges, ()),
    ],
    ids=["enumerate_supertrees", "rank_spectra", "verify_top_four", "verify_moving_edges"],
)
def test_ordering_takes_no_limit(function, args):
    # limit= was a per-call enumeration cap; a caller that still passes one
    # fails at the call instead of having it ignored
    with pytest.raises(TypeError, match="limit"):
        function(*args, limit=7)


def test_enumeration_closure_over_constructors():
    for m, k, built in (
        (4, 3, hyperstar(4, 3)),
        (5, 3, broom(1, 1, 2, 3)),
        (5, 3, tree_power(double_star(2, 2), 3)),
        (5, 4, tree_power(f_tree(6), 4)),
        (5, 2, path(6)),
    ):
        matches = [
            h for h in enumerate_supertrees(m, k) if canonical_key(h) == canonical_key(built)
        ]
        assert len(matches) == 1
        assert are_isomorphic(matches[0], built)


def test_splice_equals_the_validated_constructor():
    for k in (2, 3, 4):
        for m in range(1, 7):
            for h in enumerate_supertrees(m, k):
                ctx = hypergraph._growth_context(h)
                for v in range(h.n):
                    edge = (v,) + tuple(range(h.n, h.n + k - 1))
                    built = Hypergraph(k=k, n=h.n + k - 1, edges=h.edges + (edge,))
                    key = hypergraph._grown_key(k, ctx, v)
                    spliced = hypergraph._attach_pendent_edge(h, v, key)
                    assert spliced == built
                    assert spliced.edges == built.edges
                    assert canonical_key(spliced) == hypergraph._encode(built)


def test_ordering_binds_no_growth_helper():
    # the growth loop lives in hypergraph's engine; ordering only calls it
    helpers = {
        "_growth_context", "_tree_context", "_attach_pendent_edge",
        "_kept_tree", "_grown_key", "_encode_grown",
    }
    assert not helpers & vars(ordering).keys()


@pytest.mark.parametrize("v", [-1, 5, 9, -6])
def test_splice_rejects_a_vertex_outside_the_supertree(v):
    # no key belongs to such a vertex: the splice is given vertex 0's
    h = hyperstar(2, 3)
    key = hypergraph._grown_key(h.k, hypergraph._growth_context(h), 0)
    with pytest.raises(ValueError, match="outside"):
        hypergraph._attach_pendent_edge(h, v, key)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumeration_equals_a_dedupe_keyed_from_the_edges(k):
    # the same growth through the validating constructor, each candidate
    # keyed from its edge list: same classes, edge tuples, keys and order
    reps = {hypergraph._encode(hyperstar(1, k)): hyperstar(1, k)}
    for m in range(2, 9):
        grown = {}
        for h in reps.values():
            for v in range(h.n):
                edge = (v,) + tuple(range(h.n, h.n + k - 1))
                cand = Hypergraph(k=k, n=h.n + k - 1, edges=h.edges + (edge,))
                grown.setdefault(hypergraph._encode(cand), cand)
        reps = grown
        got = enumerate_supertrees(m, k)
        assert [h.edges for h in got] == [reps[key].edges for key in sorted(reps)]
        assert [canonical_key(h) for h in got] == sorted(reps)


@pytest.mark.parametrize(
    "k, m, classes, digest",
    [
        (3, 8, 126, "88a60c292deb84b6b9447ce89f17807567aa47cff0e3fd62415725347314b7d8"),
        (4, 8, 154, "acf6b9b1dd063c41d1699d6ea855b5636d928f5435ce761b7598e4b00ff5601f"),
        (2, 9, 106, "3a8a4d7a3041374f28c92e3039b71491c1e9e7579e1c12c21e1ba1a604ab7f94"),
    ],
    ids=["k3-m8", "k4-m8", "k2-m9"],
)
def test_class_keys_are_pinned_at_the_benchmark_sizes(k, m, classes, digest):
    # sha256 of the newline-joined sorted keys, computed with the encoder and
    # the validated constructor that the splice and the one-function key replaced
    keys = sorted(canonical_key(h) for h in enumerate_supertrees(m, k))
    assert len(keys) == classes
    assert hashlib.sha256(b"\n".join(keys)).hexdigest() == digest


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_supertrees(True, 3),
        lambda: enumerate_supertrees(3.0, 3),
        lambda: enumerate_supertrees(3, 3.0),
        lambda: verify_top_four(5.0, 3),
        lambda: verify_top_four(True, 3),
        lambda: random_supertree(True, 3, random.Random(0)),
        lambda: random_supertree(3, 3.0, random.Random(0)),
    ],
    ids=[
        "enumerate-bool-m",
        "enumerate-float-m",
        "enumerate-float-k",
        "top-four-float-m",
        "top-four-bool-m",
        "random-bool-m",
        "random-float-k",
    ],
)
def test_sizes_must_be_ints(call):
    # bools and floats used to be coerced or to fail inside range()
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call, k",
    [
        (lambda: enumerate_supertrees(3, 1), 1),
        (lambda: rank_spectra(4, 0), 0),
        (lambda: verify_top_four(5, 1), 1),
        (lambda: verify_moving_edges(k=-1), -1),
    ],
    ids=["enumerate", "rank", "top-four", "moving-edges"],
)
def test_enumeration_names_a_k_below_two(call, k):
    # these used to fail inside hyperstar, which the caller never called
    with pytest.raises(ValueError, match=rf"^k must be >= 2, got {k}$"):
        call()


def test_ranking_computes_no_key_outside_the_enumeration(monkeypatch):
    m, k = 7, 3
    encoded = []
    encode, grown_key = hypergraph._encode, hypergraph._grown_key
    monkeypatch.setattr(hypergraph, "_encode", lambda h: encoded.append(h) or encode(h))
    monkeypatch.setattr(hypergraph, "_grown_key", lambda *a: encoded.append(a) or grown_key(*a))
    reps = enumerate_supertrees(m, k)
    enumerated = len(encoded)
    encoded.clear()
    report = rank_spectra(m, k)
    assert len(encoded) == enumerated
    assert sorted(e.key.encode("ascii") for e in report.entries) == [canonical_key(h) for h in reps]
    encoded.clear()
    # the expected families are fresh objects, each keyed once
    verify_top_four(m, k)
    assert len(encoded) == enumerated + 4


def test_discarded_candidates_are_freed(monkeypatch):
    m, k = 6, 3
    candidates = sum(len(r) * r[0].n for r in (enumerate_supertrees(j, k) for j in range(1, m)))
    refs = []
    attach = hypergraph._attach_pendent_edge

    def tracked(h, v, key):
        cand = attach(h, v, key)
        refs.append(weakref.ref(cand))
        return cand

    monkeypatch.setattr(hypergraph, "_attach_pendent_edge", tracked)
    reps = enumerate_supertrees(m, k)
    alive = [r() for r in refs if r() is not None]
    # every candidate carries its key, yet only the returned classes live on
    assert len(refs) == candidates
    assert sorted(map(id, alive)) == sorted(map(id, reps))
    assert all("_key" in vars(h) for h in reps)


class WatchedTree(list):
    """A kept tree's fields in a list, which unpacks like the tuple and,
    unlike it, can be watched by a weakref."""


def test_no_class_keeps_its_growth_context_or_its_ancestors(monkeypatch):
    m, k = 6, 3
    grown = sum(len(enumerate_supertrees(j, k)) for j in range(1, m))
    seeds, parents, trees = [], [], []
    context, attach = hypergraph._growth_context, hypergraph._attach_pendent_edge
    keep = hypergraph._kept_tree

    def tracked_context(h):
        seeds.append(h.m)
        return context(h)

    def tracked_attach(h, v, key):
        if v == 0:  # each parent is grown from its vertex 0 on
            parents.append(weakref.ref(h))
        return attach(h, v, key)

    def tracked_keep(k, ctx, v):
        tree = WatchedTree(keep(k, ctx, v))
        trees.append(weakref.ref(tree))
        return tree

    monkeypatch.setattr(hypergraph, "_growth_context", tracked_context)
    monkeypatch.setattr(hypergraph, "_attach_pendent_edge", tracked_attach)
    monkeypatch.setattr(hypergraph, "_kept_tree", tracked_keep)
    reps = enumerate_supertrees(m, k)
    report = rank_spectra(m, k)
    # only the one-edge seeds are read from their edges; every other parent
    # grows from a tree kept one level earlier, and the last level keeps none
    assert seeds == [1, 1]
    assert len(parents) == 2 * grown
    assert len(trees) == 2 * (grown - 1)
    # every class holds its key and no context, and every parent and every
    # kept tree is freed
    for h in [*reps, *(e.hypergraph for e in report.entries)]:
        assert vars(h).keys() == {"k", "n", "edges", "_key"}
    assert all(ref() is None for ref in parents)
    assert all(ref() is None for ref in trees)


def count_grown_encodings(monkeypatch) -> list:
    """Record the arguments of every grown key that is encoded, not read
    from its attachment orbit's memo."""
    calls = []
    encode = hypergraph._encode_grown
    monkeypatch.setattr(hypergraph, "_encode_grown", lambda *a: calls.append(a) or encode(*a))
    return calls


@pytest.mark.parametrize("m, k", [(2, 2), (2, 6), (5, 3), (12, 4), (40, 2)])
def test_a_hyperstar_parent_needs_two_grown_encodings(monkeypatch, m, k):
    # one for the centre and one that every pendent vertex shares, at any size
    calls = count_grown_encodings(monkeypatch)
    h = hyperstar(m, k)
    ctx = hypergraph._growth_context(h)
    keys = {
        canonical_key(hypergraph._attach_pendent_edge(h, v, hypergraph._grown_key(k, ctx, v)))
        for v in range(h.n)
    }
    assert len(calls) == len(keys) == 2


def test_the_benchmark_enumerations_encode_one_key_per_attachment_orbit(monkeypatch):
    # the verify-exhaustive sizes: 3,719 candidates, 1,612 attachment orbits
    calls = count_grown_encodings(monkeypatch)
    for m, k in ((8, 3), (8, 4), (9, 2)):
        enumerate_supertrees(m, k)
    assert len(calls) == 1612


def test_enumeration_logs_one_record_per_grown_level(caplog, monkeypatch):
    m, k = 6, 3
    calls = count_grown_encodings(monkeypatch)
    levels, encoded = [], []
    for j in range(1, m + 1):
        levels.append(enumerate_supertrees(j, k))
        encoded.append(len(calls))
        calls.clear()
    gates = []
    debug_logger = ordering._debug_logger
    monkeypatch.setattr(ordering, "_debug_logger", lambda: gates.append(1) or debug_logger())
    with caplog.at_level(logging.DEBUG, logger="supertrees"):
        enumerate_supertrees(m, k)
    assert len(gates) == 1
    records = [r for r in caplog.records if r.name == "supertrees"]
    assert all(r.levelno == logging.DEBUG for r in records)
    # keys: the grown encodings this level adds to the run that stops a level lower;
    # seconds: the level's elapsed time, which only has to be a time
    messages, seconds = zip(*(r.getMessage().rsplit(" seconds=", 1) for r in records))
    assert list(messages) == [
        f"enumeration level: m={j} k={k} candidates={len(levels[j - 2]) * levels[j - 2][0].n} "
        f"keys={encoded[j - 1] - encoded[j - 2]} classes={len(levels[j - 1])}"
        for j in range(2, m + 1)
    ]
    assert all(float(s) >= 0 for s in seconds)
    assert len(calls) == encoded[-1]
    # the candidate counts sum to the benchmark harness's sum of classes * n
    counts = [dict(f.split("=") for f in message.split()[2:]) for message in messages]
    assert sum(int(c["candidates"]) for c in counts) == sum(len(r) * r[0].n for r in levels[:-1])


def test_enumerating_does_not_import_logging():
    code = "import sys, supertrees; supertrees.enumerate_supertrees(5, 3); print('logging' in sys.modules)"
    # -S: no site hooks, which might import logging themselves
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ordering.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout == "False\n", out.stderr


def test_random_supertree_is_supertree():
    rng = random.Random(8)
    for _ in range(10):
        h = random_supertree(rng.randint(1, 6), rng.choice((2, 3, 4)), rng)
        assert is_supertree(h)


@pytest.mark.parametrize("m", [0, -3])
def test_random_supertree_rejects_non_positive_m(m):
    with pytest.raises(ValueError, match="m must be >= 1"):
        random_supertree(m, 3, random.Random(0))


def test_random_supertree_matches_attach_loop():
    # one hypergraph rebuilt after every attach, drawing the same vertices
    for k in (2, 3, 5):
        rng = random.Random(k)
        grown = hyperstar(1, k)
        for _ in range(59):
            edge = (rng.randrange(grown.n),) + tuple(range(grown.n, grown.n + k - 1))
            grown = Hypergraph(k=k, n=grown.n + k - 1, edges=grown.edges + (edge,))
        assert random_supertree(60, k, random.Random(k)) == grown


def test_non_pendent_classification_of_classes():
    # one non-pendent vertex: the hyperstar; two: a double-star power;
    # three: either a one-edge branch structure or a tree power
    for m in range(2, 7):
        for h in enumerate_supertrees(m, 3):
            stats = vertex_stats(h)
            n2 = stats.non_pendent_count
            if n2 == 1:
                assert canonical_key(h) == canonical_key(hyperstar(m, 3))
            elif n2 == 2:
                assert any(
                    canonical_key(h) == canonical_key(tree_power(double_star(a, m - 1 - a), 3))
                    for a in range(1, m)
                )
            elif n2 == 3:
                in_one_edge = any(
                    sum(1 for v in e if v not in stats.pendent_vertices) == 3 for e in h.edges
                )
                caterpillars = {
                    canonical_key(tree_power(_caterpillar(a, b, m - 2 - a - b), 3))
                    for a in range(1, m)
                    for b in range(m - 2 - a)
                }
                assert in_one_edge != (canonical_key(h) in caterpillars)


def _caterpillar(a, b, c):
    # the spine 0-1-2 with a, b and c leaves at its three vertices
    leaves = [0] * a + [1] * b + [2] * c
    edges = ((0, 1), (1, 2)) + tuple((v, 3 + i) for i, v in enumerate(leaves))
    return Hypergraph(k=2, n=3 + len(leaves), edges=edges)


# --- ranking ---------------------------------------------------------------------


def test_rank_top_entry_is_hyperstar():
    report = rank_spectra(5, 3)
    assert report.entries[0].key == canonical_key(hyperstar(5, 3)).decode("ascii")
    assert report.entries[0].rho == pytest.approx(5 ** (1 / 3), abs=1e-8)


def test_rank_k2_order_on_six_vertices():
    report = rank_spectra(5, 2)
    expected = [
        hyperstar(5, 2),
        double_star(1, 3),
        double_star(2, 2),
        f_tree(6),
    ]
    got = [e.key for e in report.entries[:4]]
    assert got == [canonical_key(h).decode("ascii") for h in expected]


def test_rank_broom_between_double_star_and_f_power():
    report = rank_spectra(5, 3)
    by_key = {e.key: e.rank for e in report.entries}
    r_ds = by_key[canonical_key(tree_power(double_star(2, 2), 3)).decode("ascii")]
    r_b = by_key[canonical_key(broom(1, 1, 2, 3)).decode("ascii")]
    r_f = by_key[canonical_key(tree_power(f_tree(6), 3)).decode("ascii")]
    assert r_ds < r_b < r_f


def test_rank_report_is_sorted_and_ranked():
    report = rank_spectra(6, 3)
    rhos = [e.rho for e in report.entries]
    assert rhos == sorted(rhos, reverse=True)
    assert [e.rank for e in report.entries] == list(range(1, len(rhos) + 1))


def _oracle_ranking(m, k, radius):
    """(key, rho, tie_with_next) per class, ranked as ``rank_spectra`` ranks
    but with the radius taken from ``radius``."""
    rows = sorted(
        ((canonical_key(h).decode("ascii"), radius(h)) for h in enumerate_supertrees(m, k)),
        key=lambda r: (-r[1], r[0]),
    )
    return [
        (key, rho, i + 1 < len(rows) and rho - rows[i + 1][1] <= TIE_TOL)
        for i, (key, rho) in enumerate(rows)
    ]


def _power_radius(h):
    return power_iteration(h).rho


def test_rank_methods_agree():
    a = rank_spectra(5, 3)
    p = _oracle_ranking(5, 3, _power_radius)
    for ea, (key_p, rho_p, _) in zip(a.entries, p, strict=True):
        assert ea.key == key_p
        assert abs(rho_p - ea.rho) <= 1e-8


def _tie_groups(ranking):
    groups, group = [], set()
    for key, tie_with_next in ranking:
        group.add(key)
        if not tie_with_next:
            groups.append(group)
            group = set()
    return groups


def test_rank_defaults_to_alpha_in_power_order():
    # Tied classes (at k = 3 and 4, m = 6) get bitwise equal alpha radii and
    # are ordered by key; power iteration orders them by its own rounding, so
    # the orders are compared tie group by tie group.
    for k in (2, 3, 4):
        for m in range(1, 7):
            a = rank_spectra(m, k)
            p = _oracle_ranking(m, k, _power_radius)
            assert _tie_groups((e.key, e.tie_with_next) for e in a.entries) == _tie_groups(
                (key, tie) for key, _, tie in p
            )
            rho_p = {key: rho for key, rho, _ in p}
            for e in a.entries:
                assert abs(e.rho - rho_p[e.key]) <= 1e-8


def test_report_serialization():
    report = rank_spectra(4, 3)
    obj = report_to_dict(report)
    assert obj["k"] == 3 and obj["m"] == 4
    assert [row["rank"] for row in obj["entries"]] == [1, 2, 3, 4]
    assert all(set(row) == {"key", "edges", "rho", "method", "rank"} for row in obj["entries"])
    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "rank,key,rho,method"
    assert len(lines) == 5
    # byte stability across runs
    assert report_to_csv(rank_spectra(4, 3)) == csv_text


# --- verifiers ---------------------------------------------------------------------


def test_top_four_passes_k3():
    for m in (5, 6):
        rec = verify_top_four(m, 3)
        assert len(rec.details) == 4


def test_top_four_k2_uses_f_tree_fourth():
    rec = verify_top_four(6, 2)
    assert "F7" in rec.details[3]


def test_top_four_collapsed_at_m4():
    rec = verify_top_four(4, 3)
    assert len(rec.details) == 4
    rec = verify_top_four(4, 2)
    assert len(rec.details) == 3


def test_top_four_rejects_a_foreign_class_on_top(monkeypatch):
    path_key = canonical_key(tree_power(path(6), 3))

    def solver(h):
        return 100.0 if canonical_key(h) == path_key else alpha_normal_radius(h)

    monkeypatch.setattr(ordering, "alpha_normal_radius", solver)
    with pytest.raises(
        CounterexampleFound,
        match=r"^rank 1 at k=3, m=5: expected hyperstar, found a different class with rho = 100$",
    ) as info:
        verify_top_four(5, 3)
    assert info.value.offending == ("hyperstar", path_key.decode("ascii"), 100.0)


def test_top_four_rejects_two_tied_top_ranks(monkeypatch):
    # the S(1,3) power lands just under the hyperstar, so the ranks keep
    # their order and only the tie flag can fail them
    star_key = canonical_key(hyperstar(5, 3))
    second_key = canonical_key(tree_power(double_star(1, 3), 3))
    top = alpha_normal_radius(hyperstar(5, 3))

    def solver(h):
        return top - TIE_TOL / 2 if canonical_key(h) == second_key else alpha_normal_radius(h)

    monkeypatch.setattr(ordering, "alpha_normal_radius", solver)
    message = r"^ranks 1 and 2 at k=3, m=5 are tied \(gap 5\.000e-08\)$"
    with pytest.raises(CounterexampleFound, match=message) as info:
        verify_top_four(5, 3)
    upper, lower, gap = info.value.offending
    assert (upper, lower) == (star_key.decode("ascii"), second_key.decode("ascii"))
    assert gap == pytest.approx(TIE_TOL / 2, rel=1e-6)


def test_top_four_rejects_small_m():
    with pytest.raises(ValueError):
        verify_top_four(3, 3)


def test_partition_lemma():
    rec = verify_partition_lemma(6, 3)
    assert any("broom(1, 2, 2)" in line and "strictly below" in line for line in rec.details)
    rec = verify_partition_lemma(7, 3)
    assert any("broom(1, 2, 3)" in line and "strictly below" in line for line in rec.details)
    assert any("broom(2, 2, 2)" in line and "strictly below" in line for line in rec.details)
    rec = verify_partition_lemma(8, 3)
    assert any("broom(1, 3, 3)" in line and "strictly below" in line for line in rec.details)
    assert any("broom(2, 2, 3)" in line and "strictly below" in line for line in rec.details)


def _separations(m, k):
    ref_low = alpha_normal_bracket(broom(1, 1, m - 3, k))[0]
    return {
        (t1, t2, m - 1 - t1 - t2): ref_low - alpha_normal_bracket(broom(t1, t2, m - 1 - t1 - t2, k))[1]
        for t1 in range(1, m)
        for t2 in range(max(t1, 2), m)
        if m - 1 - t1 - t2 >= t2
    }


def test_partition_lemma_reports_its_tightest_verdict():
    for m, expected in ((6, (1, 2, 2)), (7, (1, 2, 3)), (8, (1, 2, 4))):
        rec = verify_partition_lemma(m, 3)
        separations = _separations(m, 3)
        t, separation = rec.data["tightest"]
        assert t == expected
        assert separation == separations[t] == min(separations.values())
        assert rec.details[-1] == f"tightest: broom{t}, separation {separation:.3e}"
    for m in (4, 5):  # every partition has t2 = 1
        rec = verify_partition_lemma(m, 3)
        assert rec.data["tightest"] is None and "tightest" not in rec.details[-1]


@pytest.mark.parametrize(
    "k, m, pinned", [(3, 40, 2.8778e-2), (4, 40, 1.5954e-2), (5, 60, 7.6649e-3)]
)
def test_partition_brackets_are_separated(k, m, pinned):
    # The verdicts compare float brackets, whose error is at most about 1e-12
    # relative (ROADMAP item 2); the tightest separation is far above it.
    rec = verify_partition_lemma(m, k)
    separations = _separations(m, k)
    t, separation = rec.data["tightest"]
    assert t == (1, 2, m - 4) and separation == min(separations.values())
    assert separation == pytest.approx(pinned, rel=1e-4)
    assert separation > 1e-9 * rec.data["ref_bracket"][0]
    assert len(separations) == len(rec.data["partitions"]) - 1


def test_partition_lemma_fails_on_a_bracket_that_reaches_the_reference(monkeypatch):
    ref = alpha_normal_bracket(broom(1, 1, 4, 3))

    def solver(h):
        # a bracket for broom(2, 2, 2) that reaches past the reference's low end
        if h == broom(2, 2, 2, 3):
            return ref[0] - 1e-3, ref[0] + 1e-3
        return alpha_normal_bracket(h)

    monkeypatch.setattr(ordering, "alpha_normal_bracket", solver)
    with pytest.raises(CounterexampleFound, match=r"broom\(2, 2, 2\) at k=3 not strictly below"):
        verify_partition_lemma(7, 3)


def test_partition_lemma_checks_the_power_oracle(monkeypatch):
    def off(h):
        pair = power_iteration(h)
        return pair._replace(rho=pair.rho * (1 + 1e-6))

    monkeypatch.setattr(ordering, "power_iteration", off)
    with pytest.raises(CounterexampleFound, match="power oracle"):
        verify_partition_lemma(6, 3)


def test_moving_edges_verifier():
    rec = verify_moving_edges(k=3, m_max=5)
    assert min(rec.data["gaps"]) > 0


@pytest.mark.parametrize(
    "k, m_max, classes, moves, tightest",
    [
        (3, 6, 33, 134, "1.247e-02"),
        (4, 6, 36, 195, "8.226e-03"),
        (3, 8, 207, 1487, "2.785e-03"),
        (2, 9, 198, 1078, "6.793e-03"),
        (5, 7, 95, 853, "3.338e-03"),
    ],
)
def test_moving_edges_tries_every_move_of_every_class(k, m_max, classes, moves, tightest):
    rec = verify_moving_edges(k=k, m_max=m_max)
    separation = rec.data["tightest"][-1]
    assert (rec.data["classes"], rec.data["moves"], f"{separation:.3e}") == (classes, moves, tightest)
    assert len(rec.data["gaps"]) == moves and min(rec.data["gaps"]) == separation > 0
    counts = supertree_counts(k, m_max)
    assert rec.data["classes"] == sum(counts[m] for m in range(3, m_max + 1))


def test_moving_edges_tightest_move_is_rank_four_onto_rank_three():
    # the paper's own step at m = 6: broom(1,1,3) onto the S(2,3) power
    rec = verify_moving_edges(k=3, m_max=6)
    key, u, moves, separation = rec.data["tightest"]
    assert key == canonical_key(broom(1, 1, 3, 3)).decode("ascii")
    g = next(h for h in enumerate_supertrees(6, 3) if canonical_key(h).decode("ascii") == key)
    moved = move_edges(g, u, moves)
    assert canonical_key(moved) == canonical_key(tree_power(double_star(2, 3), 3))
    assert separation == alpha_normal_bracket(moved)[0] - alpha_normal_bracket(g)[1]
    assert rec.details[-1] == (
        f"tightest: broom(1,1,3) -> S(2,3) power, edges {[fi for fi, _ in moves]} "
        f"onto vertex {u}, separation 1.247e-02"
    )


def test_moving_edges_choices_ignore_rounding_noise(monkeypatch):
    # Symmetric vertices carry eigenvector weights equal up to rounding, so
    # nudging every weight by a few ulps must not change which edges move.
    clean = [verify_moving_edges(k=k).data["gaps"] for k in (3, 4)]
    noise = random.Random(0)

    def nudged(h, **kwargs):
        pair = power_iteration(h, **kwargs)
        x = []
        for xi in pair.x:
            for _ in range(noise.randint(0, 3)):
                xi = math.nextafter(xi, noise.choice((0.0, math.inf)))
            x.append(xi)
        return pair._replace(x=tuple(x))

    monkeypatch.setattr(ordering, "power_iteration", nudged)
    noisy = [verify_moving_edges(k=k).data["gaps"] for k in (3, 4)]
    assert noisy == clean


def test_moving_edges_reports_its_tightest_verdict():
    for k in (3, 4):
        rec = verify_moving_edges(k=k)
        key, u, moves, separation = rec.data["tightest"]
        assert separation == min(rec.data["gaps"])
        assert rec.details[-1].startswith("tightest: ")
        assert rec.details[-1].endswith(f"onto vertex {u}, separation {separation:.3e}")


def test_moving_edges_gaps_are_bracket_separations(monkeypatch):
    # each gap is the moved supertree's low end minus its class's high end
    classes, calls = [], []

    def enumerated(*args, **kwargs):
        reps = enumerate_supertrees(*args, **kwargs)
        classes.extend(reps)
        return reps

    def recording(h):
        calls.append((any(h is c for c in classes), alpha_normal_bracket(h)))
        return calls[-1][1]

    monkeypatch.setattr(ordering, "enumerate_supertrees", enumerated)
    monkeypatch.setattr(ordering, "alpha_normal_bracket", recording)
    rec = verify_moving_edges(k=3, m_max=5)
    expected = []
    for is_class, (low, high) in calls:
        if is_class:
            class_high = high
        else:
            expected.append(low - class_high)
    assert sum(is_class for is_class, _ in calls) == rec.data["classes"] == len(classes)
    assert rec.data["gaps"] == expected


def test_moving_edges_fails_unless_the_brackets_separate(monkeypatch):
    # a bracket that does not move makes every move a counterexample
    monkeypatch.setattr(ordering, "alpha_normal_bracket", lambda h: (1.5, 1.5))
    with pytest.raises(CounterexampleFound, match="not strictly above"):
        verify_moving_edges()


def test_moving_edges_ignores_the_power_radius(monkeypatch):
    # power iteration supplies only the eigenvector
    clean = verify_moving_edges(k=3).data["gaps"]
    monkeypatch.setattr(
        ordering, "power_iteration",
        lambda h: power_iteration(h)._replace(rho=math.nan),
    )
    assert verify_moving_edges(k=3).data["gaps"] == clean


@pytest.mark.parametrize(
    "kwargs", [{"tol": 1e-9}, {"max_iter": 5}, {"trials": 50}, {"seed": 1729}]
)
def test_moving_edges_takes_no_power_or_trial_settings(kwargs):
    with pytest.raises(TypeError):
        verify_moving_edges(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"m_max": 2}, "m_max must be >= 3"),
        ({"m_max": 0}, "m_max must be >= 3"),
    ],
)
def test_moving_edges_rejects_empty_runs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify_moving_edges(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"m_max": 5.0}, "m_max must be an integer, got 5.0"),
        ({"m_max": True}, "m_max must be an integer, got True"),
        ({"k": 3.0}, "k must be an integer, got 3.0"),
    ],
)
def test_moving_edges_rejects_sizes_that_are_not_ints(kwargs, message):
    # a float m_max used to run and report "m <= 5.0"
    with pytest.raises(ValueError, match=message):
        verify_moving_edges(**kwargs)


@pytest.mark.parametrize(
    "m, k, message",
    [(5.0, 3, "m must be an integer, got 5.0"), (5, 3.0, "k must be an integer, got 3.0")],
)
def test_partition_lemma_rejects_sizes_that_are_not_ints(m, k, message):
    with pytest.raises(ValueError, match=message):
        verify_partition_lemma(m, k)


@pytest.mark.parametrize(
    "m, k, message",
    [
        (True, 3, "m must be an integer, got True"),
        (5.0, 3, "m must be an integer, got 5.0"),
        (5, 3.0, "k must be an integer, got 3.0"),
    ],
)
def test_sandwich_rejects_sizes_that_are_not_ints(m, k, message):
    # True used to report "needs m >= 4", and a float m failed in the closed form
    with pytest.raises(ValueError, match=message):
        verify_sandwich(m, k)


def test_moving_edges_explicit_rebalance_increases_radius():
    # moving one pendent edge off each light branch onto the heavy one
    g = broom(2, 2, 2, 3)
    moved = move_edges(g, 2, [(1, 0), (3, 1)])
    assert power_iteration(moved).rho > power_iteration(g).rho


def test_sandwich_verifier():
    for m in (5, 8):
        rec = verify_sandwich(m, 3)
        assert rec.data["lower"] < rec.data["mid"] < rec.data["upper"]


@pytest.mark.parametrize("k, m", [(4, 100), (3, 1000)])
def test_sandwich_passes_where_the_gap_is_below_a_fixed_margin(k, m):
    # the bracket clears both closed forms by less than 1e-6 here
    rec = verify_sandwich(m, k)
    low, high = alpha_normal_bracket(broom(1, 1, m - 3, k))
    assert rec.data["mid"] == 0.5 * (low + high)
    assert min(low - rec.data["lower"], rec.data["upper"] - high) < 1e-6


@pytest.mark.parametrize("m", [1003, 3000, 10_000])
def test_sandwich_classifies_the_endpoint_certificates_exactly(m):
    # the central-edge slacks are about 1e-9 to 1e-12 here, below the
    # default float tolerance, which classified them normal
    rec = verify_sandwich(m, 3)
    assert rec.details[1].endswith(": strictly-subnormal")
    assert rec.details[2].endswith(": strictly-supernormal")


def test_sandwich_fails_on_a_closed_form_within_four_ulps(monkeypatch):
    m, k = 6, 3
    low, high = alpha_normal_bracket(broom(1, 1, m - 3, k))

    def run_with(lower, upper):
        # the closed forms at k, the endpoint certificates (k = 2) untouched
        for name, value in (("f_tree_power_radius", lower), ("double_star_power_radius", upper)):
            original = getattr(ordering, name)
            monkeypatch.setattr(ordering, name, lambda m_, k_, v=value, f=original:
                                v if k_ == k else f(m_, k_))
        try:
            return verify_sandwich(m, k)
        finally:
            monkeypatch.undo()

    clear_low, clear_high = low - 5 * math.ulp(low), high + 5 * math.ulp(high)
    for lower, upper in (
        (low, clear_high),
        (low - 4 * math.ulp(low), clear_high),
        (0.5 * (low + high), clear_high),
        (clear_low, high),
        (clear_low, high + 4 * math.ulp(high)),
    ):
        with pytest.raises(CounterexampleFound, match="sandwich violated"):
            run_with(lower, upper)
    assert run_with(clear_low, clear_high).data["lower"] == clear_low


# --- non-pendent reduction -----------------------------------------------------------


def test_reduce_double_star_power_to_hyperstar():
    h = tree_power(double_star(1, 2), 3)
    reduced = reduce_non_pendent(h)
    assert canonical_key(reduced) == canonical_key(hyperstar(4, 3))
    assert power_iteration(reduced).rho > power_iteration(h).rho


def test_reduce_branch_supertree():
    h = broom(1, 1, 1, 3)
    reduced = reduce_non_pendent(h)
    assert vertex_stats(reduced).non_pendent_count == 2
    assert reduced.n == h.n
    assert power_iteration(reduced).rho > power_iteration(h).rho


def test_reduce_rejects_hyperstar():
    with pytest.raises(ValueError):
        reduce_non_pendent(hyperstar(4, 3))


def test_reduce_sweep_all_small_classes():
    for m in range(2, 6):
        for h in enumerate_supertrees(m, 3):
            if vertex_stats(h).non_pendent_count < 2:
                continue
            reduced = reduce_non_pendent(h)
            assert is_supertree(reduced)
            assert vertex_stats(reduced).non_pendent_count == (
                vertex_stats(h).non_pendent_count - 1
            )


def test_reduction_accepts_only_bracket_separated_moves(monkeypatch):
    h = broom(1, 1, 1, 3)
    reduced = reduce_non_pendent(h)
    assert alpha_normal_bracket(reduced)[0] > alpha_normal_bracket(h)[1]
    # with every bracket equal no move is proven to raise the radius
    monkeypatch.setattr(ordering, "alpha_normal_bracket", lambda t: (1.5, 1.5))
    with pytest.raises(CounterexampleFound) as info:
        reduce_non_pendent(h)
    assert info.value.offending is h


def test_reduction_ignores_the_power_radius(monkeypatch):
    hosts = [h for h in enumerate_supertrees(5, 3) if vertex_stats(h).non_pendent_count >= 2]
    clean = [reduce_non_pendent(h) for h in hosts]
    monkeypatch.setattr(
        ordering, "power_iteration",
        lambda h: power_iteration(h)._replace(rho=math.nan),
    )
    assert [reduce_non_pendent(h) for h in hosts] == clean


def test_reduction_ignores_rounding_noise(monkeypatch):
    # Symmetric non-pendent vertices carry weights equal up to rounding, so
    # nudging every weight by up to 3 ulps must not change the move.
    hosts = [
        h
        for k in (3, 4)
        for m in range(3, 7)
        for h in enumerate_supertrees(m, k)
        if vertex_stats(h).non_pendent_count >= 2
    ]
    assert len(hosts) == 61
    clean = [reduce_non_pendent(h) for h in hosts]
    noise = random.Random(0)

    def nudged(h, **kwargs):
        pair = power_iteration(h, **kwargs)
        x = []
        for xi in pair.x:
            for _ in range(noise.randint(0, 3)):
                xi = math.nextafter(xi, noise.choice((0.0, math.inf)))
            x.append(xi)
        return pair._replace(x=tuple(x))

    monkeypatch.setattr(ordering, "power_iteration", nudged)
    for _ in range(5):
        assert [reduce_non_pendent(h) for h in hosts] == clean
