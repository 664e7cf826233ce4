"""Tensor application, power iteration, and the closed-form radii.

Expected values come from independent routes: dense numpy eigendecompositions
of the underlying trees, the cosine formula for paths, and direct evaluation
of the defining quartics.
"""

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from supertrees import (
    DisconnectedInputError,
    Hypergraph,
    NonConvergenceError,
    alpha_normal_bracket,
    broom,
    double_star,
    double_star_power_radius,
    eigen_residual,
    f_tree,
    f_tree_power_radius,
    graph_spectral_radius,
    hyperstar,
    is_connected,
    is_supertree,
    path,
    power_formula_radius,
    power_iteration,
    random_supertree,
    star,
    tensor_apply,
    tree_power,
)
from supertrees.spectral import DEFAULT_MAX_ITER

from oracles import (
    eig_tree_radius,
    path_radius,
    random_tree,
    reference_power_iteration,
    reference_tensor_apply,
    star_radius,
)


def test_tensor_apply_single_edge():
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    assert tensor_apply(h, [1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]
    assert tensor_apply(h, [1.0, 2.0, 3.0]) == [6.0, 3.0, 2.0]


def test_tensor_apply_hyperstar_uniform():
    h = hyperstar(2, 3)
    c = 0.7
    out = tensor_apply(h, [c] * h.n)
    assert out[0] == pytest.approx(2 * c * c, abs=1e-15)
    assert all(o == pytest.approx(c * c, abs=1e-15) for o in out[1:])


def test_tensor_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor_apply(hyperstar(2, 3), [1.0, 2.0])


def test_tensor_apply_scale_invariance():
    rng = random.Random(11)
    h = broom(1, 2, 2, 3)
    x = [rng.uniform(0.1, 2.0) for _ in range(h.n)]
    for c in (0.5, 2.0, 3.7):
        lhs = tensor_apply(h, [c * xi for xi in x])
        rhs = [c ** (h.k - 1) * yi for yi in tensor_apply(h, x)]
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tensor_apply_handles_zero_coordinates():
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    assert tensor_apply(h, [0.0, 2.0, 3.0]) == [6.0, 0.0, 0.0]


def bits(xs) -> list[bytes]:
    return [struct.pack("<d", v) for v in xs]


@hs.composite
def supertrees_relabelled(draw, min_k: int = 2, max_k: int = 8) -> Hypergraph:
    k, m = draw(hs.integers(min_k, max_k)), draw(hs.integers(1, 60))
    rng = random.Random(draw(hs.integers(0, 2**32)))
    h = random_supertree(m, k, rng)
    perm = list(range(h.n))
    rng.shuffle(perm)
    return Hypergraph(k=k, n=h.n, edges=tuple(tuple(perm[v] for v in e) for e in h.edges))


@hs.composite
def cyclic_hypergraphs(draw) -> Hypergraph:
    """Random distinct k-sets on n vertices: cycles, repeated degrees and
    isolated vertices all occur."""
    k = draw(hs.integers(2, 6))
    n = draw(hs.integers(k + 1, 16))
    rng = random.Random(draw(hs.integers(0, 2**32)))
    edges = {tuple(sorted(rng.sample(range(n), k))) for _ in range(draw(hs.integers(1, 3 * n)))}
    return Hypergraph(k=k, n=n, edges=tuple(edges))


@settings(max_examples=150, deadline=None)
@given(
    hs.one_of(supertrees_relabelled(), cyclic_hypergraphs()),
    hs.integers(0, 2**32),
    hs.sampled_from([0.0, 0.2, 0.6]),
)
def test_tensor_apply_is_bitwise_the_per_edge_loop(h, seed, zeros):
    rng = random.Random(seed)
    x = [0.0 if rng.random() < zeros else rng.uniform(0.0, 4.0) for _ in range(h.n)]
    assert bits(tensor_apply(h, x)) == bits(reference_tensor_apply(h, x))
    # With signs, only the sign of a zero output may differ (see tensor_apply).
    x = [0.0 if rng.random() < zeros else rng.uniform(-4.0, 4.0) for _ in range(h.n)]
    assert tensor_apply(h, x) == reference_tensor_apply(h, x)


@pytest.mark.parametrize(
    "h",
    [
        tree_power(path(21), 3),
        random_supertree(60, 5, random.Random(7)),
        hyperstar(50, 3),
        tree_power(path(12), 2),
        tree_power(star(9), 2),
        Hypergraph(k=3, n=6, edges=((0, 1, 2), (2, 3, 4), (4, 5, 0))),
        broom(1, 2, 3, 4),
        Hypergraph(k=2, n=3, edges=((0, 1), (1, 2), (0, 2))),
        # regular, so the uniform start is already the eigenvector; the tail
        # makes the shifted k = 2 step do work on a non-bipartite graph
        Hypergraph(k=2, n=4, edges=((0, 1), (1, 2), (0, 2), (2, 3))),
    ],
    ids=[
        "path3-m20",
        "random-k5-m60",
        "hyperstar-m50",
        "path-k2",
        "star-k2",
        "cycle-k3",
        "broom-k4",
        "triangle-k2",
        "triangle-tail-k2",
    ],
)
def test_power_iteration_is_bitwise_the_reference_loop(h):
    pair = power_iteration(h)
    ref = reference_power_iteration(h)
    assert pair == ref
    assert bits((pair.rho, pair.residual, *pair.x)) == bits((ref.rho, ref.residual, *ref.x))


@settings(max_examples=40, deadline=None)
@given(
    hs.one_of(
        cyclic_hypergraphs().filter(lambda h: h.k >= 3 and is_connected(h)),
        supertrees_relabelled(min_k=3, max_k=6),
    )
)
def test_unshifted_iteration_converges_at_k_above_two(h):
    # k >= 3 drops the shift: the tensor of a connected hypergraph is weakly
    # primitive, so the plain power step must converge on cyclic input too
    pair = power_iteration(h, max_iter=DEFAULT_MAX_ITER)
    ref = reference_power_iteration(h, max_iter=DEFAULT_MAX_ITER)
    assert bits((pair.rho, pair.residual, *pair.x)) == bits((ref.rho, ref.residual, *ref.x))
    assert pair.iterations == ref.iterations
    if is_supertree(h):
        km1 = h.k - 1
        ratios = [a / xi**km1 for a, xi in zip(tensor_apply(h, pair.x), pair.x)]
        low, high = alpha_normal_bracket(h)
        # each ratio takes k roundings: on one edge, where both brackets sit
        # at 1.0, the Collatz-Wielandt one ends an ulp below it
        slack = h.k * sys.float_info.epsilon
        assert low * (1.0 - slack) <= max(ratios) and min(ratios) <= high * (1.0 + slack)


def test_step_counts_are_pinned():
    # exact counts of the unshifted step at k >= 3, so a slower step rule shows
    assert power_iteration(tree_power(path(21), 3)).iterations == 493
    assert power_iteration(hyperstar(1000, 3)).iterations == 38


# --- power iteration -------------------------------------------------------------


def test_single_edge_collapses_immediately():
    for k in (2, 3, 4, 5):
        pair = power_iteration(Hypergraph(k=k, n=k, edges=(tuple(range(k)),)))
        assert pair.rho == pytest.approx(1.0, abs=1e-12)
        assert pair.iterations == 1
        assert pair.residual <= 1e-14


def test_hyperstar_radius_matches_star_oracle():
    pair = power_iteration(hyperstar(4, 3))
    assert pair.rho == pytest.approx(eig_tree_radius(star(5)) ** (2 / 3), abs=1e-8)
    assert pair.rho == pytest.approx(4 ** (1 / 3), abs=1e-8)


def test_double_star_power_example():
    pair = power_iteration(tree_power(double_star(2, 2), 3))
    assert pair.rho == pytest.approx(2 ** (2 / 3), abs=1e-8)


def test_eigenvector_contract():
    pair = power_iteration(broom(1, 1, 2, 3))
    h = broom(1, 1, 2, 3)
    assert all(xi > 0 for xi in pair.x)
    assert sum(xi**h.k for xi in pair.x) == pytest.approx(1.0, rel=1e-12)
    assert pair.residual <= 1e-10 * max(1.0, pair.rho)


def test_bracket_contains_converged_radius():
    # drive a few iterations by hand, with the step power_iteration takes
    # (shifted only at k = 2); the ratio bracket must contain the converged
    # value at every positive iterate
    # rho itself carries the solver tolerance, so allow that much slop
    for h in (hyperstar(3, 3), tree_power(path(5), 3), broom(1, 1, 2, 3), tree_power(path(6), 2)):
        rho = power_iteration(h).rho
        km1 = h.k - 1
        x = [h.n ** (-1.0 / h.k)] * h.n
        for _ in range(25):
            ax = tensor_apply(h, x)
            ratios = [a / xi**km1 for a, xi in zip(ax, x)]
            assert min(ratios) <= rho + 1e-9
            assert max(ratios) >= rho - 1e-9
            y = [a + xi**km1 for a, xi in zip(ax, x)] if h.k == 2 else ax
            x = [yi ** (1.0 / km1) for yi in y]
            norm = sum(xi**h.k for xi in x) ** (1.0 / h.k)
            x = [xi / norm for xi in x]


def test_radius_at_least_one():
    rng = random.Random(23)
    from supertrees import random_supertree

    for _ in range(10):
        h = random_supertree(rng.randint(1, 6), rng.choice((2, 3, 4)), rng)
        assert power_iteration(h).rho >= 1.0 - 1e-10


def test_disconnected_rejected():
    with pytest.raises(DisconnectedInputError):
        power_iteration(Hypergraph(k=3, n=6, edges=((0, 1, 2), (3, 4, 5))))


def test_non_convergence_reports_bracket():
    with pytest.raises(NonConvergenceError) as err:
        power_iteration(tree_power(path(6), 2), tol=1e-12, max_iter=3)
    lo, hi = err.value.bracket
    assert lo < hi


def test_invalid_parameters():
    h = hyperstar(2, 3)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            power_iteration(h, tol=tol)
    with pytest.raises(ValueError):
        power_iteration(h, max_iter=0)
    for max_iter in (True, 2.5):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            power_iteration(h, max_iter=max_iter)


# --- residual --------------------------------------------------------------------


def test_residual_zero_for_exact_pair():
    k = 3
    h = Hypergraph(k=k, n=k, edges=(tuple(range(k)),))
    x = [k ** (-1.0 / k)] * k
    assert eigen_residual(h, 1.0, x) <= 1e-15


def test_residual_detects_perturbation():
    pair = power_iteration(hyperstar(3, 3))
    x = list(pair.x)
    x[1] += 0.1
    assert eigen_residual(hyperstar(3, 3), pair.rho, x) > 1e-10


def test_power_iteration_residual_within_tolerance():
    pair = power_iteration(tree_power(f_tree(6), 3))
    assert pair.residual <= 1e-10 * pair.rho


# --- ordinary graphs and the power formula ---------------------------------------


def test_graph_radius_examples():
    assert graph_spectral_radius(path(2)) == pytest.approx(1.0, abs=1e-10)
    assert graph_spectral_radius(star(5)) == pytest.approx(2.0, abs=1e-10)
    assert graph_spectral_radius(star(5)) == pytest.approx(star_radius(5), abs=1e-10)
    assert graph_spectral_radius(path(5)) == pytest.approx(path_radius(5), abs=1e-10)
    assert graph_spectral_radius(path(5)) == pytest.approx(math.sqrt(3.0), abs=1e-10)


def test_graph_radius_matches_dense_oracle():
    rng = random.Random(31)
    for _ in range(10):
        t = random_tree(rng.randint(2, 10), rng)
        assert graph_spectral_radius(t) == pytest.approx(eig_tree_radius(t), abs=1e-9)


def test_power_formula_k2_is_identity():
    t = double_star(2, 3)
    assert power_formula_radius(t, 2) == graph_spectral_radius(t)


def test_power_formula_star_example():
    assert power_formula_radius(star(5), 3) == pytest.approx(2 ** (2 / 3), abs=1e-9)


def test_power_formula_honours_max_iter():
    with pytest.raises(NonConvergenceError):
        power_formula_radius(path(31), 3, max_iter=1)


def test_power_formula_agrees_with_tensor_iteration():
    rng = random.Random(41)
    for _ in range(8):
        t = random_tree(rng.randint(2, 8), rng)
        for k in (3, 4):
            direct = power_iteration(tree_power(t, k)).rho
            assert abs(direct - eig_tree_radius(t) ** (2 / k)) <= 1e-6


# --- closed-form quartic radii ----------------------------------------------------


def test_double_star_power_radius_values():
    assert double_star_power_radius(5, 2) == pytest.approx(2.0, abs=1e-12)
    assert double_star_power_radius(4, 2) == pytest.approx(math.sqrt(2 + math.sqrt(2)), abs=1e-12)
    assert double_star_power_radius(5, 3) == pytest.approx(2 ** (2 / 3), abs=1e-12)


def test_f_tree_power_radius_values():
    assert f_tree_power_radius(4, 2) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert f_tree_power_radius(5, 2) == pytest.approx(math.sqrt(2 + math.sqrt(3)), abs=1e-12)


def test_quartic_residuals():
    for m in range(4, 13):
        rho = double_star_power_radius(m, 2)
        assert abs(rho**4 - m * rho**2 + 2 * (m - 3)) <= 1e-10
        assert rho > math.sqrt(m - 2)
        rho = f_tree_power_radius(m, 2)
        assert abs(rho**4 - (m - 1) * rho**2 + (m - 4)) <= 1e-10


def test_closed_forms_match_tree_oracles():
    for m in range(4, 11):
        assert double_star_power_radius(m, 2) == pytest.approx(
            eig_tree_radius(double_star(2, m - 3)), abs=1e-10
        )
        assert f_tree_power_radius(m, 2) == pytest.approx(
            eig_tree_radius(f_tree(m + 1)), abs=1e-10
        )


def test_f_tree_power_matches_power_formula():
    for m in (4, 6, 9):
        for k in (2, 3, 5):
            assert abs(f_tree_power_radius(m, k) - power_formula_radius(f_tree(m + 1), k)) <= 1e-9
