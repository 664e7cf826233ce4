"""Enumeration, ranking, and the theorem verifiers."""

import random

import networkx as nx
import pytest

from supertrees import (
    EnumerationLimitError,
    Hypergraph,
    are_isomorphic,
    broom,
    canonical_key,
    double_star,
    enumerate_supertrees,
    f_tree,
    hyperstar,
    is_hypertree,
    is_supertree,
    move_edges,
    path,
    power_iteration,
    random_supertree,
    rank_spectra,
    reduce_non_pendent,
    report_to_csv,
    report_to_dict,
    single_edge,
    tree_power,
    verify_moving_edges,
    verify_partition_lemma,
    verify_sandwich,
    verify_top_four,
    vertex_stats,
)

from oracles import count_classes_brute


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
        assert len(enumerate_supertrees(m, 2, limit=8)) == expected


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


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_supertrees(8, 2)
    assert enumerate_supertrees(8, 2, limit=8)


def test_enumeration_closure_over_constructors():
    for m, k, built in (
        (4, 3, hyperstar(4, 3)),
        (5, 3, broom(1, 1, 2, 3)),
        (5, 3, tree_power(double_star(2, 2), 3)),
        (5, 4, tree_power(f_tree(6), 4)),
        (5, 2, tree_power(path(6), 2)),
    ):
        matches = [
            h for h in enumerate_supertrees(m, k) if canonical_key(h) == canonical_key(built)
        ]
        assert len(matches) == 1
        assert are_isomorphic(matches[0], built)


def test_random_supertree_is_supertree():
    rng = random.Random(8)
    for _ in range(10):
        h = random_supertree(rng.randint(1, 6), rng.choice((2, 3, 4)), rng)
        assert is_supertree(h)


def test_random_supertree_matches_attach_loop():
    # one hypergraph rebuilt after every attach, drawing the same vertices
    for k in (2, 3, 5):
        rng = random.Random(k)
        grown = single_edge(k)
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
                assert in_one_edge != is_hypertree(h)


# --- ranking ---------------------------------------------------------------------


def test_rank_top_entry_is_hyperstar():
    report = rank_spectra(5, 3)
    assert report.entries[0].key == canonical_key(hyperstar(5, 3)).decode("ascii")
    assert report.entries[0].rho == pytest.approx(5 ** (1 / 3), abs=1e-8)


def test_rank_k2_order_on_six_vertices():
    report = rank_spectra(5, 2)
    expected = [
        hyperstar(5, 2),
        tree_power(double_star(1, 3), 2),
        tree_power(double_star(2, 2), 2),
        tree_power(f_tree(6), 2),
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


def test_rank_methods_agree():
    p = rank_spectra(5, 3, method="power")
    a = rank_spectra(5, 3, method="alpha")
    f = rank_spectra(5, 3, method="formula")
    for ep, ea, ef in zip(p.entries, a.entries, f.entries):
        assert ep.key == ea.key == ef.key
        assert abs(ep.rho - ea.rho) <= 1e-8
        assert abs(ep.rho - ef.rho) <= 1e-8
    assert {e.method for e in p.entries} == {"power"}
    assert {e.method for e in a.entries} == {"alpha"}
    # formula applies exactly to the tree powers
    for e in f.entries:
        assert e.method == ("formula" if is_hypertree(e.hypergraph) else "power")


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
        assert rec.passed and len(rec.details) == 4


def test_top_four_k2_uses_f_tree_fourth():
    rec = verify_top_four(6, 2)
    assert "F7" in rec.details[3]


def test_top_four_collapsed_at_m4():
    rec = verify_top_four(4, 3)
    assert rec.passed and len(rec.details) == 4
    rec = verify_top_four(4, 2)
    assert rec.passed and len(rec.details) == 3


def test_top_four_rejects_small_m():
    with pytest.raises(ValueError):
        verify_top_four(3, 3)


def test_partition_lemma():
    rec = verify_partition_lemma(6, 3)
    assert rec.passed
    assert any("broom(1, 2, 2)" in line and "strictly below" in line for line in rec.details)
    rec = verify_partition_lemma(7, 3)
    assert any("broom(1, 2, 3)" in line and "strictly below" in line for line in rec.details)
    assert any("broom(2, 2, 2)" in line and "strictly below" in line for line in rec.details)
    rec = verify_partition_lemma(8, 3)
    assert any("broom(1, 3, 3)" in line and "strictly below" in line for line in rec.details)
    assert any("broom(2, 2, 3)" in line and "strictly below" in line for line in rec.details)


def test_moving_edges_verifier():
    rec = verify_moving_edges(trials=20, seed=7, k=3, m_max=5)
    assert rec.passed
    assert min(rec.data["gaps"]) > 0


def test_moving_edges_explicit_rebalance_increases_radius():
    # moving one pendent edge off each light branch onto the heavy one
    g = broom(2, 2, 2, 3)
    moved = move_edges(g, 2, [(1, 0), (3, 1)])
    assert power_iteration(moved).rho > power_iteration(g).rho


def test_sandwich_verifier():
    for m in (5, 8):
        rec = verify_sandwich(m, 3)
        assert rec.passed
        assert rec.data["lower"] < rec.data["mid"] < rec.data["upper"]


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
