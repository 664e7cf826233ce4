"""Certificate classification, the explicit broom certificate, and the
bracketing radius solver."""

import inspect
import logging
import math
import os
import pickle
import random
import re
import subprocess
import sys
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import supertrees
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
    double_star,
    double_star_power_radius,
    enumerate_supertrees,
    f_tree_power_radius,
    hyperstar,
    is_supertree,
    path,
    power_iteration,
    propagate_certificate,
    random_supertree,
    t11m3_certificate,
    tensor_apply,
    tree_power,
    vertex_stats,
)

from oracles import COUNT_ONLY_NON_SUPERTREES, edge_sets, reference_plan, reference_propagate

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


def test_certificates_are_equal_exactly_when_host_and_weights_are():
    h = hyperstar(2, 3)
    a, b = uniform_certificate(h, 0.5), uniform_certificate(h, 0.5)
    assert a == b and not a != b
    assert a != uniform_certificate(h, 0.25)
    assert a != uniform_certificate(Hypergraph(k=3, n=6, edges=h.edges), 0.5)
    skewed = {**a.entries, (0, 0): 0.75}
    assert a != WeightedIncidence(host=h, entries=skewed) != a
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.entries = skewed
    assert repr(a) == f"WeightedIncidence(host={h!r}, entries={a.entries!r})"


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


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_classify_rejects_tol_that_is_negative_or_not_finite(tol):
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    with pytest.raises(ValueError, match="tol must be non-negative and finite"):
        classify(h, uniform_certificate(h, 1.0), 1.0, tol=tol)


def test_classify_zero_tol_compares_exactly():
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    cert = uniform_certificate(h, 1.0)
    assert classify(h, cert, 1.0, tol=0.0).classification == NORMAL
    # the edge product exceeds alpha by one ulp, which only tol = 0 sees
    alpha = math.nextafter(1.0, 0.0)
    assert classify(h, cert, alpha).classification == NORMAL
    assert classify(h, cert, alpha, tol=0.0).classification == STRICTLY_SUBNORMAL


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_classify_and_propagation_reject_alpha_that_is_not_positive_and_finite(alpha):
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        classify(h, uniform_certificate(h, 1.0), alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        propagate_certificate(h, alpha)
    # checked before any planning, so it is reported even for a non-supertree
    cyclic = Hypergraph(k=2, n=3, edges=((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        propagate_certificate(cyclic, alpha)


@pytest.mark.parametrize("alpha", [True, "0.5", None, 1j])
def test_classify_and_propagation_reject_alpha_that_is_not_a_real_number(alpha):
    # True used to run at alpha = 1, and a str raised TypeError
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    message = f"alpha must be a real number, got {alpha!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        classify(h, uniform_certificate(h, 1.0), alpha)
    with pytest.raises(ValueError, match=re.escape(message)):
        propagate_certificate(h, alpha)


@pytest.mark.parametrize("tol", [True, "0", None])
def test_classify_rejects_tol_that_is_not_a_real_number(tol):
    # tol=True used to run at tol = 1, which called this certificate normal
    h = hyperstar(3, 3)
    cert = propagate_certificate(h, 0.3)
    assert classify(h, cert, 0.3).classification == STRICTLY_SUBNORMAL
    with pytest.raises(ValueError, match=re.escape(f"tol must be a real number, got {tol!r}")):
        classify(h, cert, 0.3, tol=tol)


def test_classify_takes_fraction_alpha_and_tol():
    h = hyperstar(3, 3)
    cert = propagate_certificate(h, 0.3)
    verdict = classify(h, cert, Fraction(3, 10), tol=Fraction(0))
    assert verdict.classification == STRICTLY_SUBNORMAL


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


@pytest.mark.parametrize("m", [5.0, True, "5"])
def test_broom_certificate_rejects_m_that_is_not_an_int(m):
    # 5.0 used to fail inside broom on "t3 ... 2.0", and True was read as 1
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
        t11m3_certificate(m, 3, 0.1)


def test_broom_certificate_alpha_range():
    with pytest.raises(PositivityError):
        t11m3_certificate(6, 3, 1.0 / 3.0)  # 1/(m-3) exactly
    with pytest.raises(PositivityError):
        t11m3_certificate(6, 3, 0.0)
    with pytest.raises(PositivityError):
        t11m3_certificate(6, 3, -0.1)


@pytest.mark.parametrize("alpha", [True, "0.1", None])
def test_broom_certificate_rejects_alpha_that_is_not_a_real_number(alpha):
    # True used to pass the type check and fail the range as PositivityError,
    # and a str or None raised TypeError from the range comparison
    message = f"alpha must be a real number, got {alpha!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        t11m3_certificate(5, 3, alpha)


@pytest.mark.parametrize("alpha", [0.0, -0.1, 0.5, math.nan])
def test_broom_certificate_keeps_positivity_error_for_a_real_alpha_out_of_range(alpha):
    message = f"alpha must lie in (0, 0.5) to keep weights positive, got {alpha}"
    with pytest.raises(PositivityError, match=re.escape(message)):
        t11m3_certificate(5, 3, alpha)


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


def test_broom_certificate_is_exact_at_a_fraction_alpha():
    m, k = 1003, 3
    alpha = Fraction(double_star_power_radius(m, 2) ** -2)
    cert = t11m3_certificate(m, k, alpha)
    assert all(isinstance(w, (int, Fraction)) for w in cert.entries.values())
    verdict = classify(cert.host, cert, alpha, tol=0)
    assert set(verdict.vertex_slacks) == {0} and set(verdict.edge_slacks[1:]) == {0}
    a = alpha
    assert verdict.edge_slacks[0] == (1 - a) ** 2 * (1 - (m - 3) * a) - a > 0
    assert verdict.classification == STRICTLY_SUBNORMAL
    # at the float alpha itself the same slack is within the default tolerance
    float_alpha = float(alpha)
    float_cert = t11m3_certificate(m, k, float_alpha)
    assert classify(float_cert.host, float_cert, float_alpha).classification == NORMAL


def test_broom_certificate_float_weights_keep_their_bits():
    for m, alpha in ((4, 0.2), (9, 0.1), (12, 1.0 / 30.0)):
        cert = t11m3_certificate(m, 3, alpha)
        assert cert.weight(0, 0) == 1.0 - alpha and cert.weight(1, 0) == 1.0 - alpha
        assert cert.weight(2, 0) == 1.0 - (m - 3) * alpha
        verdict = classify(cert.host, cert, alpha)
        assert all(isinstance(s, float) for s in verdict.edge_slacks)


def test_consistency_holds_on_supertrees_at_zero_tol():
    # a supertree has no cycle, so its weights are consistent however they
    # round; the potential walk at tol = 0 reported rounding as inconsistency
    cert = t11m3_certificate(5, 3, 0.2)
    assert classify(cert.host, cert, 0.2, tol=0).consistent
    h = tree_power(path(6), 3)
    alpha = alpha_normal_bracket(h)[0] ** -3
    assert classify(h, propagate_certificate(h, alpha), alpha, tol=0).consistent


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


@pytest.mark.parametrize("name", sorted(COUNT_ONLY_NON_SUPERTREES))
@pytest.mark.parametrize(
    "solve",
    [alpha_normal_bracket, alpha_normal_radius, lambda h: propagate_certificate(h, 0.1)],
    ids=["alpha_normal_bracket", "alpha_normal_radius", "propagate_certificate"],
)
def test_solvers_reject_cycles_that_meet_the_edge_count(name, solve):
    with pytest.raises(ValueError, match="requires a supertree"):
        solve(COUNT_ONLY_NON_SUPERTREES[name])


@settings(max_examples=300, deadline=None)
@given(edge_sets())
def test_bracket_rejects_exactly_the_non_supertrees(h):
    try:
        alpha_normal_bracket(h)
    except ValueError:
        assert not is_supertree(h)
    else:
        assert is_supertree(h)


@hs.composite
def relabelled_supertrees(draw):
    k = draw(hs.integers(2, 6))
    m = draw(hs.integers(1, 80))
    h = random_supertree(m, k, random.Random(draw(hs.integers(0, 2**32))))
    perm = draw(hs.permutations(range(h.n)))
    return Hypergraph(k=k, n=h.n, edges=tuple(tuple(perm[v] for v in e) for e in h.edges))


@settings(max_examples=150, deadline=None)
@given(relabelled_supertrees())
def test_propagation_matches_the_full_children_oracle_bit_for_bit(h):
    low, high = alpha_normal_bracket(h)
    radii = [low, high, 0.5 * (low + high)]
    radii += [r * f for r in radii for f in (1.0 - 1e-3, 1.0 + 1e-3)]
    alphas = [r**-h.k for r in radii] + [1.0]
    plan = certificates._plan(h, "test")
    for alpha in alphas:
        defect, entries = reference_propagate(h, alpha)
        assert certificates._propagate(plan, alpha).hex() == defect.hex()
        if defect == math.inf:
            with pytest.raises(PositivityError):
                propagate_certificate(h, alpha)
            continue
        got = propagate_certificate(h, alpha).entries
        assert got == entries
        assert all(got[pair].hex() == w.hex() for pair, w in entries.items())


def step_shapes(plan) -> set[str]:
    """The shapes of a plan's steps: no non-pendent child, one, or several."""
    return {
        "none" if c is None else "several" if isinstance(c, tuple) else "one"
        for _, _, c in plan.steps
    }


def assert_matches_reference(h, alphas):
    plan = certificates._plan(h, "test")
    for alpha in alphas:
        defect, entries = reference_propagate(h, alpha)
        assert certificates._propagate(plan, alpha).hex() == defect.hex()
        if defect == math.inf:
            with pytest.raises(PositivityError):
                propagate_certificate(h, alpha)
            continue
        got = propagate_certificate(h, alpha).entries
        assert got == entries
        assert all(got[pair].hex() == w.hex() for pair, w in entries.items())


@pytest.mark.parametrize(
    "h, shapes",
    [
        (hyperstar(40, 3), {"none"}),  # every step at the root
        (tree_power(path(201), 3), {"none", "one"}),
        (random_supertree(200, 5, random.Random(5)), {"none", "one", "several"}),
        (Hypergraph(k=2, n=60, edges=path(60).edges), {"none", "one"}),
        (random_supertree(80, 2, random.Random(2)), {"none", "one"}),
        (Hypergraph(k=3, n=3, edges=((0, 1, 2),)), {"none"}),
    ],
    ids=["hyperstar", "path-power", "random-k5", "path-k2", "random-k2", "one-edge"],
)
def test_kernel_matches_the_oracle_on_every_step_shape(h, shapes):
    assert step_shapes(certificates._plan(h, "test")) == shapes
    low, high = alpha_normal_bracket(h)
    radii = [low, high, 0.5 * (low + high)]
    assert_matches_reference(h, [r**-h.k for r in radii] + [0.5, 1.0])


@pytest.mark.parametrize(
    "h, shapes, alpha",
    [
        # a path power has no step with several children, so it can only
        # go infeasible inside a one-child step
        (tree_power(path(7), 3), {"none", "one"}, 0.9),
        (tree_power(path(101), 3), {"none", "one"}, 0.3),
        # a broom's central edge is its only step with children: the first
        # (one pendent edge) fails at alpha = 1, the second (three) at 0.5
        (broom(1, 1, 7, 3), {"none", "several"}, 1.0),
        (broom(1, 3, 10, 3), {"none", "several"}, 0.5),
    ],
    ids=["path-power-short", "path-power-long", "broom-first-child", "broom-second-child"],
)
def test_kernel_matches_the_oracle_where_a_step_goes_infeasible(h, shapes, alpha):
    plan = certificates._plan(h, "test")
    assert step_shapes(plan) == shapes
    assert certificates._propagate(plan, alpha) == math.inf
    assert_matches_reference(h, [alpha])


# --- the plan and the start bracket ------------------------------------------------


def small_classes() -> list[Hypergraph]:
    """Every supertree class with at most 7 edges, for k = 2..5."""
    return [h for k in range(2, 6) for m in range(1, 8) for h in enumerate_supertrees(m, k)]


def radius_large_shapes() -> list[Hypergraph]:
    """The 17 supertrees of the benchmark's radius-large workload."""
    hosts = [
        random_supertree(m, k, random.Random(f"supertree-k{k}-m{m}"))
        for k in (3, 5)
        for m in (300, 1000, 3000)
    ]
    hosts += [tree_power(path(m + 1), 3) for m in (100, 250, 300, 350, 400, 600, 1000)]
    for m in (1000, 3000):
        hosts += [broom(1, 1, m - 3, 3), hyperstar(m, 3)]
    return hosts


def seeded_random_supertrees(count: int, max_m: int, seed: int) -> list[Hypergraph]:
    """Random supertrees with k = 2..6 and 1..max_m edges, vertices relabelled."""
    rng = random.Random(seed)
    hosts = []
    for _ in range(count):
        h = random_supertree(rng.randint(1, max_m), rng.randint(2, 6), rng)
        perm = list(range(h.n))
        rng.shuffle(perm)
        hosts.append(Hypergraph(k=h.k, n=h.n, edges=tuple(tuple(perm[v] for v in e) for e in h.edges)))
    return hosts


def test_plan_equals_the_reference_plan():
    hosts = small_classes() + radius_large_shapes() + seeded_random_supertrees(60, 300, 60)
    assert len(hosts) == 321 + 17 + 60
    for h in hosts:
        assert certificates._plan(h, "test") == reference_plan(h, "test")


@pytest.mark.parametrize("name", sorted(COUNT_ONLY_NON_SUPERTREES))
def test_plan_and_reference_plan_reject_the_count_meeting_non_supertrees(name):
    for plan in (certificates._plan, reference_plan):
        with pytest.raises(ValueError, match="test requires a supertree"):
            plan(COUNT_ONLY_NON_SUPERTREES[name], "test")


@settings(max_examples=300, deadline=None)
@given(edge_sets())
def test_plan_agrees_with_the_reference_plan_on_edge_sets(h):
    try:
        want = reference_plan(h, "test")
    except ValueError:
        with pytest.raises(ValueError, match="test requires a supertree"):
            certificates._plan(h, "test")
    else:
        assert certificates._plan(h, "test") == want


def oracle_defect(h: Hypergraph, r: float) -> float:
    return reference_propagate(h, r**-h.k)[0]


def test_start_bounds_bracket_rho_and_bracket_ends_have_strict_signs():
    hosts = small_classes() + radius_large_shapes() + seeded_random_supertrees(60, 500, 500)
    for h in hosts:
        plan = certificates._plan(h, "test")
        lower = plan.max_degree ** (1.0 / h.k)
        upper = plan.max_edge_product ** (1.0 / h.k)
        if plan.max_edge_product == plan.max_degree:
            # only a hyperstar meets both bounds, at its radius m^(1/k)
            assert plan.max_degree == h.m
        else:
            assert oracle_defect(h, lower) > 0.0 > oracle_defect(h, upper)
        low, high = alpha_normal_bracket(h)
        if h.m == 1:
            assert (low, high) == (1.0, 1.0)
            continue
        assert oracle_defect(h, low) > 0.0 > oracle_defect(h, high)
        if high - low > certificates.ALPHA_BRACKET_ULPS * math.ulp(high):
            # only the strict ends around an exactly zero defect lie wider apart
            r = math.nextafter(low, high)
            while oracle_defect(h, r) != 0.0:
                r = math.nextafter(r, high)
                assert r < high


@pytest.mark.parametrize(
    "h, low, high",
    [
        (broom(1, 1, 5, 3), "0x1.db67cbf4d5219p+0", "0x1.db67cbf4d521ap+0"),
        (hyperstar(6, 3), "0x1.d12ed0af1a27ep+0", "0x1.d12ed0af1a27fp+0"),
        (tree_power(path(11), 3), "0x1.8d171613d86d9p+0", "0x1.8d171613d86dap+0"),
        (tree_power(double_star(2, 3), 4), "0x1.7992ff022195fp+0", "0x1.7992ff0221961p+0"),
        (random_supertree(30, 5, random.Random(30)), "0x1.72ba5599d6811p+0", "0x1.72ba5599d6812p+0"),
        # the start's upper bound fails, and the search starts above it
        (hyperstar(5, 3), "0x1.b5c0fbcfec4d3p+0", "0x1.b5c0fbcfec4d5p+0"),
        # rho = 2 exactly: both bounds fail, and the strict ends close the search
        (hyperstar(8, 3), "0x1.ffffffffffffep+0", "0x1.0000000000001p+1"),
    ],
    ids=[
        "broom", "hyperstar", "path-power", "double-star-power", "random", "high-fails", "both-fail"
    ],
)
def test_bracket_bits_are_pinned(h, low, high):
    # a faster propagation must reproduce every bracket end exactly
    assert alpha_normal_bracket(h) == (float.fromhex(low), float.fromhex(high))


@pytest.mark.parametrize(
    "h, evaluations",
    [
        (tree_power(path(1001), 3), 30),
        (hyperstar(1000, 3), 6),
        (broom(1, 1, 997, 3), 10),
        (random_supertree(300, 5, random.Random(300)), 14),
        # a trial radius whose defect is exactly zero, then the strict ends
        (Hypergraph(k=3, n=13, edges=hyperstar(5, 3).edges + ((1, 11, 12),)), 8),
        (Hypergraph(k=3, n=3, edges=((0, 1, 2),)), 1),
        # the upper start bound fails: m^(1/k) is evaluated once, as the low end
        (hyperstar(5, 3), 3),
        # the one start radius has an exactly zero defect, so both bounds fail;
        # the strict ends' evaluations count too
        (hyperstar(8, 3), 6),
    ],
    ids=[
        "path-power", "hyperstar", "broom", "random-k5", "zero-defect", "one-edge",
        "high-fails", "both-fail",
    ],
)
def test_defect_evaluations_per_solve_are_pinned(h, evaluations):
    # a change to the search must not take more defects on any of these
    low, high, count = certificates._radius_bracket(h, "test")
    assert (low, high) == alpha_normal_bracket(h)
    assert count == evaluations


def test_each_solve_logs_one_debug_record(caplog):
    h = broom(1, 1, 997, 3)
    with caplog.at_level(logging.DEBUG, logger="supertrees"):
        low, high = alpha_normal_bracket(h)
    records = [r for r in caplog.records if r.name == "supertrees"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    assert records[0].getMessage() == (
        f"certificate solve: m=1000 k=3 evaluations=10 bracket=[{low!r}, {high!r}]"
    )


def test_solves_format_no_record_with_debug_off(caplog, monkeypatch):
    log = logging.getLogger("supertrees")
    monkeypatch.setattr(log, "debug", lambda *args: pytest.fail("record formatted"))
    with caplog.at_level(logging.INFO, logger="supertrees"):
        alpha_normal_radius(broom(1, 1, 97, 3))
        power_iteration(broom(1, 1, 97, 3))
    assert caplog.records == []


def test_solving_does_not_import_logging():
    # logging that nothing imported cannot be on, and importing it would
    # slow every cold start
    code = (
        "import sys, supertrees; h = supertrees.broom(1, 1, 7, 3); "
        "supertrees.alpha_normal_radius(h); supertrees.power_iteration(h); "
        "print('logging' in sys.modules)"
    )
    # -S: no site hooks, which might import logging themselves
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(certificates.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout == "False\n", out.stderr


def test_a_cold_import_loads_no_module_it_does_not_need():
    # each costs milliseconds of every cold start: dataclasses with inspect,
    # fractions and csv (each loaded at its one use), random (whose generator
    # random_supertree's callers pass in), logging (see
    # test_solving_does_not_import_logging) and typing with contextlib (the
    # records are collections.namedtuple classes)
    code = (
        "import sys; old = set(sys.modules); "
        "unneeded = {'dataclasses', 'inspect', 'fractions', 'csv', 'random', 'logging', "
        "'typing', 'contextlib'}; "
        "import supertrees; print(sorted(unneeded & (set(sys.modules) - old))); "
        "import supertrees.cli; print(sorted(unneeded & (set(sys.modules) - old)))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(certificates.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout == "[]\n[]\n", out.stdout + out.stderr


def test_every_exported_annotation_resolves():
    # the modules postpone annotations, so a name an annotation uses but its
    # module does not import fails only here, not at import
    exported = [
        getattr(supertrees, name) for name in dir(supertrees) if not name.startswith("_")
    ]
    checked = [obj for obj in exported if inspect.isfunction(obj) or inspect.isclass(obj)]
    assert len(checked) > 40
    for obj in checked:
        typing.get_type_hints(obj)


RECORD_FIELDS = {
    "spectral.PrincipalPair": ("rho", "x", "residual", "iterations"),
    "spectral._TensorPlan": ("columns", "firsts", "seconds", "others", "vertices"),
    "certificates.CertificateVerdict": (
        "alpha", "classification", "vertex_slacks", "edge_slacks", "consistent"
    ),
    "certificates._Plan": ("n", "root", "max_degree", "max_edge_product", "steps"),
    "hypergraph.VertexStats": ("degrees", "pendent_vertices", "non_pendent_count"),
    "ordering.ReportEntry": ("key", "hypergraph", "rho", "rank", "tie_with_next"),
    "ordering.SpectraReport": ("k", "m", "entries"),
    "ordering.VerificationRecord": ("name", "details", "data"),
}


@pytest.mark.parametrize("path", sorted(RECORD_FIELDS))
def test_each_result_record_keeps_its_fields_and_tuple_behaviour(path):
    module, name = path.split(".")
    record = getattr(getattr(supertrees, module), name)
    assert record._fields == RECORD_FIELDS[path]
    assert inspect.getdoc(record)
    rec = record._make(range(len(record._fields)))
    assert not hasattr(rec, "__dict__")
    assert type(rec._replace(**{record._fields[0]: -1})) is record
    if not name.startswith("_"):
        assert getattr(supertrees, name) is record
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is record


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


@pytest.mark.xfail(
    strict=True,
    reason="the bracket ends carry the signs of the float defect, not the exact one",
)
def test_path_bracket_contains_the_exact_radius():
    # rho(P6) = 2cos(pi/7) is the root of x^3 - x^2 - 2x + 1 in the bracket's
    # range, so the polynomial must change sign between the exact bracket ends
    low, high = map(Fraction, alpha_normal_bracket(path(6)))
    above_low, above_high = (x**3 - x**2 - 2 * x + 1 > 0 for x in (low, high))
    assert above_low != above_high


def test_single_edge_bracket_is_exact():
    assert alpha_normal_bracket(Hypergraph(k=3, n=3, edges=((0, 1, 2),))) == (1.0, 1.0)


def test_evaluation_cap_raises_with_last_bracket(monkeypatch):
    monkeypatch.setattr(certificates, "ALPHA_MAX_EVALS", 3)
    with pytest.raises(BracketError) as info:
        alpha_normal_bracket(tree_power(path(101), 3))
    low, high = info.value.bracket
    assert 1.0 <= low < path_power_radius(100, 3) < high
