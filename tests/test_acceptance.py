"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here and nowhere else.
"""

import math
import random

from supertrees import (
    Hypergraph,
    STRICTLY_SUBNORMAL,
    STRICTLY_SUPERNORMAL,
    alpha_normal_radius,
    broom,
    canonical_key,
    classify,
    double_star,
    double_star_power_radius,
    enumerate_supertrees,
    f_tree,
    f_tree_power_radius,
    hyperstar,
    power_iteration,
    reduce_non_pendent,
    t11m3_certificate,
    tree_power,
    verify_moving_edges,
    verify_top_four,
    vertex_stats,
)

from oracles import are_isomorphic, count_classes_brute, random_tree, eig_tree_radius


def _criterion(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label}")
    for f in failures[:5]:
        print(f"    {f}")
    assert not failures, f"criterion {num} ({label}): {failures[:5]}"


def relabel(h: Hypergraph, rng: random.Random) -> Hypergraph:
    perm = list(range(h.n))
    rng.shuffle(perm)
    return Hypergraph(k=h.k, n=h.n, edges=tuple(tuple(perm[v] for v in e) for e in h.edges))


def test_criterion_01_exact_anchors():
    failures = []
    for k in (2, 3, 4, 5):
        rho = power_iteration(hyperstar(1, k)).rho
        if abs(rho - 1.0) > 1e-10:
            failures.append(f"single edge k={k}: rho = {rho!r}")
    for k in (2, 3, 4):
        for m in range(2, 9):
            rho = power_iteration(hyperstar(m, k)).rho
            if abs(rho - m ** (1.0 / k)) > 1e-8:
                failures.append(f"hyperstar({m},{k}): rho = {rho!r} vs {m ** (1.0 / k)!r}")
    _criterion(1, "single-edge and hyperstar radii", failures)


def test_criterion_02_quartic_reproduction():
    failures = []
    if abs(double_star_power_radius(5, 2) - 2.0) > 1e-10:
        failures.append(f"double-star quartic at m=5: {double_star_power_radius(5, 2)!r}")
    if abs(f_tree_power_radius(4, 2) - math.sqrt(3.0)) > 1e-10:
        failures.append(f"f-tree quartic at m=4: {f_tree_power_radius(4, 2)!r}")
    for m in range(4, 11):
        for k in (2, 3):
            direct = power_iteration(tree_power(double_star(2, m - 3), k)).rho
            if abs(direct - double_star_power_radius(m, k)) > 1e-8:
                failures.append(f"double-star m={m} k={k}: {direct!r}")
            direct = power_iteration(tree_power(f_tree(m + 1), k)).rho
            if abs(direct - f_tree_power_radius(m, k)) > 1e-8:
                failures.append(f"f-tree m={m} k={k}: {direct!r}")
    _criterion(2, "quartic closed forms vs power iteration", failures)


def test_criterion_03_power_formula_property():
    failures = []
    rng = random.Random(20240801)
    for i in range(20):
        t = random_tree(rng.randint(2, 10), rng)
        base = eig_tree_radius(t)
        for k in (3, 4):
            direct = power_iteration(tree_power(t, k)).rho
            if abs(direct - base ** (2.0 / k)) > 1e-6:
                failures.append(f"tree {i} (n={t.n}) k={k}: {direct!r} vs {base ** (2.0 / k)!r}")
    _criterion(3, "tree-power radius formula on 20 seeded trees", failures)


def test_criterion_04_dual_oracle_agreement():
    failures = []
    for k in (2, 3, 4):
        for m in range(1, 7):
            for h in enumerate_supertrees(m, k):
                gap = abs(power_iteration(h).rho - alpha_normal_radius(h))
                if gap > 1e-8:
                    failures.append(f"k={k} m={m} {canonical_key(h)!r}: gap {gap:.3e}")
    _criterion(4, "power iteration vs certificate solver on all classes", failures)


def test_criterion_05_top_four_ordering():
    failures = []
    for m in (5, 6):
        try:
            rec = verify_top_four(m, 3)
        except Exception as exc:  # CounterexampleFound included
            failures.append(f"m={m}: {exc}")
            continue
        report = rec.data["report"]
        for pos in range(4):
            gap = report.entries[pos].rho - report.entries[pos + 1].rho
            if gap <= 1e-4:
                failures.append(f"m={m} gap after rank {pos + 1}: {gap:.3e}")
        if m == 5:
            if abs(report.entries[0].rho - 5 ** (1 / 3)) > 1e-8:
                failures.append(f"rank-1 radius {report.entries[0].rho!r} != 5^(1/3)")
            if abs(report.entries[2].rho - 2 ** (2 / 3)) > 1e-8:
                failures.append(f"rank-3 radius {report.entries[2].rho!r} != 2^(2/3)")
    _criterion(5, "top four classes in order with gaps above 1e-4 (k=3, m=5,6)", failures)


def test_criterion_06_sandwich_and_certificates():
    failures = []
    for m in range(5, 9):
        lower = f_tree_power_radius(m, 3)
        upper = double_star_power_radius(m, 3)
        mid = power_iteration(broom(1, 1, m - 3, 3)).rho
        if not (lower + 1e-6 < mid < upper - 1e-6):
            failures.append(f"m={m}: {lower!r} < {mid!r} < {upper!r} fails")
    for m in range(4, 13):
        a_sub = double_star_power_radius(m, 2) ** -2
        cert = t11m3_certificate(m, 3, a_sub)
        v = classify(cert.host, cert, a_sub)
        if v.classification != STRICTLY_SUBNORMAL:
            failures.append(f"m={m} upper endpoint: {v.classification}")
        a_sup = f_tree_power_radius(m, 2) ** -2
        cert = t11m3_certificate(m, 3, a_sup)
        v = classify(cert.host, cert, a_sup)
        if v.classification != STRICTLY_SUPERNORMAL or not v.consistent:
            failures.append(f"m={m} lower endpoint: {v.classification}")
    _criterion(6, "radius sandwich and explicit endpoint certificates", failures)


def test_criterion_07_partition_ordering():
    failures = []
    for m in range(5, 9):
        ref = power_iteration(broom(1, 1, m - 3, 3)).rho
        for t1 in range(1, m):
            for t2 in range(t1, m):
                t3 = m - 1 - t1 - t2
                if t3 < t2:
                    continue
                rho = power_iteration(broom(t1, t2, t3, 3)).rho
                if t2 == 1:
                    if abs(ref - rho) > 1e-7:
                        failures.append(f"m={m} ({t1},{t2},{t3}): equality violated")
                elif ref - rho <= 1e-7:
                    failures.append(f"m={m} ({t1},{t2},{t3}): not strictly below")
    _criterion(7, "branch partitions ordered with equality iff t2=1", failures)


def test_criterion_08_ordinary_tree_ordering():
    failures = []
    for n in range(6, 10):
        m = n - 1
        try:
            rec = verify_top_four(m, 2)
        except Exception as exc:
            failures.append(f"n={n}: {exc}")
            continue
        labels = [line.split(":")[1].split("rho")[0].strip() for line in rec.details]
        expected = ["star", f"S(1,{m - 2})", f"S(2,{m - 3})", f"F{n}"]
        if labels != expected:
            failures.append(f"n={n}: got {labels}")
    _criterion(8, "tree ordering star, S(1,.), S(2,.), F on 6..9 vertices", failures)


def test_criterion_09_moving_edges_property():
    failures = []
    rec = verify_moving_edges(k=3, m_max=6)
    bad = sum(1 for g in rec.data["gaps"] if g <= 0.0)
    if bad:
        failures.append(f"{bad} of {rec.data['moves']} moves did not strictly increase")
    _criterion(9, "every moving-edge move at k=3, m<=6 strictly increases the radius", failures)


def test_criterion_10_non_pendent_reduction():
    failures = []
    for m in range(2, 7):
        for h in enumerate_supertrees(m, 3):
            n2 = vertex_stats(h).non_pendent_count
            if n2 < 2:
                continue
            try:
                reduced = reduce_non_pendent(h)
            except Exception as exc:
                failures.append(f"m={m} {canonical_key(h)!r}: {exc}")
                continue
            if vertex_stats(reduced).non_pendent_count != n2 - 1:
                failures.append(f"m={m} {canonical_key(h)!r}: count did not drop by one")
            if power_iteration(reduced).rho <= power_iteration(h).rho:
                failures.append(f"m={m} {canonical_key(h)!r}: radius did not increase")
    _criterion(10, "non-pendent reduction on every class with at least two", failures)


def test_criterion_11_structural_suite():
    failures = []
    rng = random.Random(99)
    for k in (2, 3):
        for m in range(1, 6):
            pool = []
            for h in enumerate_supertrees(m, k):
                pool.append(h)
                pool.append(relabel(h, rng))
            for i in range(len(pool)):
                for j in range(i + 1, len(pool)):
                    same_key = canonical_key(pool[i]) == canonical_key(pool[j])
                    if same_key != are_isomorphic(pool[i], pool[j]):
                        failures.append(f"k={k} m={m} pair ({i},{j}) disagreement")
    if len(enumerate_supertrees(4, 2)) != count_classes_brute(4, 2):
        failures.append("k=2 m=4 class count differs from brute force")
    if count_classes_brute(4, 2) != 3:
        failures.append(f"k=2 m=4 brute count {count_classes_brute(4, 2)} != 3")
    brute_34 = count_classes_brute(4, 3, iso=are_isomorphic)
    if len(enumerate_supertrees(4, 3)) != brute_34:
        failures.append("k=3 m=4 class count differs from brute force")
    if brute_34 != 4:
        failures.append(f"k=3 m=4 brute count {brute_34} != 4")
    _criterion(11, "canonical keys vs isomorphism; brute-force class counts", failures)
