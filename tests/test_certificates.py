"""Certificate classification, the explicit broom certificate, and the
bracketing radius solver."""

import math
import random

import pytest

from supertrees import (
    BracketError,
    Hypergraph,
    IncidenceMismatchError,
    PositivityError,
    STRICTLY_SUBNORMAL,
    STRICTLY_SUPERNORMAL,
    NORMAL,
    NEITHER,
    WeightedIncidence,
    alpha_normal_bracket,
    alpha_normal_radius,
    broom,
    certificates,
    classify,
    double_star_power_radius,
    enumerate_supertrees,
    f_tree_power_radius,
    hyperstar,
    path,
    power_iteration,
    propagate_certificate,
    random_supertree,
    t11m3_certificate,
    tensor_apply,
    tree_power,
    vertex_stats,
)

#: Float rounding allowed when testing that a bracket contains a closed form.
ROUNDING_REL = 1e-15


def uniform_certificate(h: Hypergraph, w: float) -> WeightedIncidence:
    entries = {(v, i): w for i, e in enumerate(h.edges) for v in e}
    return WeightedIncidence(host=h, entries=entries)


def test_weighted_incidence_validation():
    h = hyperstar(2, 3)
    good = {(v, i): 0.5 for i, e in enumerate(h.edges) for v in e}
    WeightedIncidence(host=h, entries=good)
    with pytest.raises(IncidenceMismatchError):
        WeightedIncidence(host=h, entries={**good, (4, 0): 0.5})  # vertex 4 not in edge 0
    missing = dict(good)
    missing.pop((0, 0))
    with pytest.raises(IncidenceMismatchError):
        WeightedIncidence(host=h, entries=missing)
    with pytest.raises(PositivityError):
        WeightedIncidence(host=h, entries={**good, (0, 0): 0.0})


def test_single_edge_all_ones_is_normal():
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    verdict = classify(h, uniform_certificate(h, 1.0), 1.0)
    assert verdict.classification == NORMAL
    assert verdict.consistent
    assert max(abs(s) for s in verdict.vertex_slacks) == 0.0
    assert max(abs(s) for s in verdict.edge_slacks) == 0.0


def test_classify_neither():
    # vertex sums above 1 but the edge product above alpha too
    h = Hypergraph(k=2, n=2, edges=((0, 1),))
    verdict = classify(h, uniform_certificate(h, 1.5), 1.0)
    assert verdict.classification == NEITHER


def test_classify_requires_matching_host():
    h = hyperstar(2, 3)
    other = hyperstar(3, 3)
    with pytest.raises(IncidenceMismatchError):
        classify(other, uniform_certificate(h, 0.5), 0.5)


def test_broom_certificate_subnormal_branch():
    alpha = 0.25
    cert = t11m3_certificate(5, 3, alpha)
    verdict = classify(cert.host, cert, alpha)
    assert verdict.classification == STRICTLY_SUBNORMAL
    # central edge product 9/32 exceeds alpha = 8/32; everything else is tight
    assert verdict.edge_slacks[0] == pytest.approx(1.0 / 32.0, abs=1e-15)
    assert max(abs(s) for s in verdict.vertex_slacks) <= 1e-15
    assert max(abs(s) for s in verdict.edge_slacks[1:]) <= 1e-15


def test_broom_certificate_supernormal_branch():
    alpha = 2.0 - math.sqrt(3.0)
    cert = t11m3_certificate(5, 3, alpha)
    verdict = classify(cert.host, cert, alpha)
    assert verdict.classification == STRICTLY_SUPERNORMAL
    assert verdict.consistent
    assert verdict.edge_slacks[0] == pytest.approx(-((2.0 - math.sqrt(3.0)) ** 3), abs=1e-12)


def test_broom_certificate_entries():
    cert = t11m3_certificate(4, 3, 0.2)
    assert cert.weight(2, 0) == pytest.approx(0.8, abs=1e-15)
    prod = 1.0
    for v in cert.host.edges[0]:
        prod *= cert.weight(v, 0)
    assert prod == pytest.approx(0.8**3, abs=1e-15)


def test_broom_certificate_slack_polynomial():
    # the central-edge slack equals -(m-3)a^3 + (2m-5)a^2 - m*a + 1
    for m in (4, 6, 9, 12):
        for frac in (0.15, 0.5, 0.85):
            a = frac / (m - 3)
            cert = t11m3_certificate(m, 3, a)
            verdict = classify(cert.host, cert, a)
            expected = -(m - 3) * a**3 + (2 * m - 5) * a**2 - m * a + 1
            assert verdict.edge_slacks[0] == pytest.approx(expected, abs=1e-12)
            assert max(abs(s) for s in verdict.vertex_slacks) <= 1e-12


def test_broom_certificate_alpha_range():
    with pytest.raises(PositivityError):
        t11m3_certificate(6, 3, 1.0 / 3.0)  # 1/(m-3) exactly
    with pytest.raises(PositivityError):
        t11m3_certificate(6, 3, 0.0)
    with pytest.raises(PositivityError):
        t11m3_certificate(6, 3, -0.1)


def test_lemma_endpoint_classifications():
    for m in (4, 7, 12):
        a_sub = double_star_power_radius(m, 2) ** -2
        cert = t11m3_certificate(m, 3, a_sub)
        assert classify(cert.host, cert, a_sub).classification == STRICTLY_SUBNORMAL
        a_sup = f_tree_power_radius(m, 2) ** -2
        cert = t11m3_certificate(m, 3, a_sup)
        verdict = classify(cert.host, cert, a_sup)
        assert verdict.classification == STRICTLY_SUPERNORMAL
        assert verdict.consistent


def test_consistency_detects_cyclic_imbalance():
    triangle = Hypergraph(k=2, n=3, edges=((0, 1), (0, 2), (1, 2)))
    balanced = uniform_certificate(triangle, 0.5)
    assert classify(triangle, balanced, 0.25).consistent
    skewed = dict(balanced.entries)
    skewed[(0, 0)] = 0.4
    skewed[(1, 0)] = 0.6
    verdict = classify(triangle, WeightedIncidence(host=triangle, entries=skewed), 0.25)
    assert not verdict.consistent


# --- propagation and the bracketing solver ----------------------------------------


def test_propagated_certificate_is_normal_at_solution():
    h = broom(1, 1, 2, 3)
    rho = alpha_normal_radius(h)
    alpha = rho**-3
    verdict = classify(h, propagate_certificate(h, alpha), alpha, tol=1e-8)
    assert verdict.classification == NORMAL
    assert verdict.consistent


def test_trichotomy_around_solution():
    tol = 1e-9
    for m, k in ((3, 3), (5, 3), (4, 4), (5, 2)):
        for h in enumerate_supertrees(m, k):
            rho = alpha_normal_radius(h)
            delta = 10 * tol
            sub = (rho + delta) ** -k
            sup = (rho - delta) ** -k
            v_sub = classify(h, propagate_certificate(h, sub), sub, tol=tol / 100)
            v_sup = classify(h, propagate_certificate(h, sup), sup, tol=tol / 100)
            assert v_sub.classification == STRICTLY_SUBNORMAL
            assert v_sup.classification == STRICTLY_SUPERNORMAL
            assert v_sub.consistent and v_sup.consistent


def test_propagation_rejects_large_alpha():
    # a long path forces nested weights negative well before alpha reaches 1
    from supertrees import path, tree_power

    with pytest.raises(PositivityError):
        propagate_certificate(tree_power(path(6), 3), 0.9)


def test_propagation_rejects_non_supertree():
    cyclic = Hypergraph(k=2, n=3, edges=((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError):
        propagate_certificate(cyclic, 0.3)
    with pytest.raises(ValueError):
        alpha_normal_radius(cyclic)


def test_alpha_radius_single_edge_exact():
    for k in (2, 3, 4):
        h = Hypergraph(k=k, n=k, edges=(tuple(range(k)),))
        assert alpha_normal_radius(h) == 1.0


def test_alpha_radius_hyperstar():
    assert alpha_normal_radius(hyperstar(4, 3)) == pytest.approx(4 ** (1 / 3), abs=1e-10)


def test_alpha_radius_broom_sits_in_sandwich():
    rho = alpha_normal_radius(broom(1, 1, 2, 3))
    assert f_tree_power_radius(5, 3) < rho < double_star_power_radius(5, 3)


def test_alpha_radius_agrees_with_power_iteration():
    for m, k in ((4, 2), (5, 3), (4, 4)):
        for h in enumerate_supertrees(m, k):
            assert abs(alpha_normal_radius(h) - power_iteration(h).rho) <= 1e-8


# --- long paths and large random supertrees ------------------------------------------


def path_power_radius(m: int, k: int) -> float:
    """Radius of the kth power of the path with m edges."""
    return (2.0 * math.cos(math.pi / (m + 2))) ** (2.0 / k)


def large_random(k: int) -> Hypergraph:
    return random_supertree(1000, k, random.Random(2015))


@pytest.mark.parametrize("m", (250, 300, 350, 400, 600, 1000))
def test_long_path_radius_and_bracket(m):
    # these paths made the former bisection solver stall
    h = tree_power(path(m + 1), 3)
    ref = path_power_radius(m, 3)
    assert abs(alpha_normal_radius(h) - ref) <= 1e-9 * ref
    low, high = alpha_normal_bracket(h)
    assert high - low <= 1e-12 * high
    assert low * (1.0 - ROUNDING_REL) <= ref <= high * (1.0 + ROUNDING_REL)


@pytest.mark.parametrize("k", (3, 5))
def test_bracket_overlaps_collatz_wielandt_bracket(k):
    h = large_random(k)
    low, high = alpha_normal_bracket(h)
    pair = power_iteration(h)
    ratios = [a / x ** (k - 1) for a, x in zip(tensor_apply(h, pair.x), pair.x)]
    assert low <= max(ratios) and min(ratios) <= high


def test_bracket_ends_carry_certified_signs():
    # propagation roots at the first vertex of maximum degree, the only
    # vertex whose sum is not forced to 1
    hosts = [tree_power(path(m + 1), 3) for m in (250, 1000)]
    hosts += [large_random(3), large_random(5), hyperstar(300, 3), broom(1, 1, 297, 4)]
    # small classes whose defect rounds to exactly zero at some trial radius
    hosts += enumerate_supertrees(6, 3)
    for h in hosts:
        degrees = vertex_stats(h).degrees
        root = degrees.index(max(degrees))
        low, high = alpha_normal_bracket(h)
        sub = high**-h.k
        assert classify(h, propagate_certificate(h, sub), sub).vertex_slacks[root] > 0.0
        sup = low**-h.k
        try:
            cert = propagate_certificate(h, sup)
        except PositivityError:
            continue
        assert classify(h, cert, sup).vertex_slacks[root] < 0.0


def test_single_edge_bracket_is_exact():
    assert alpha_normal_bracket(Hypergraph(k=3, n=3, edges=((0, 1, 2),))) == (1.0, 1.0)


def test_evaluation_cap_raises_with_last_bracket(monkeypatch):
    monkeypatch.setattr(certificates, "ALPHA_MAX_EVALS", 3)
    with pytest.raises(BracketError) as info:
        alpha_normal_bracket(tree_power(path(101), 3))
    low, high = info.value.bracket
    assert 1.0 <= low < path_power_radius(100, 3) < high
