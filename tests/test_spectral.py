"""Tensor application, power iteration, and the closed-form radii.

Expected values come from independent routes: dense numpy eigendecompositions
of the underlying trees, the cosine formula for paths, and direct evaluation
of the defining quartics.
"""

import logging
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
    alpha_normal_radius,
    broom,
    double_star,
    double_star_power_radius,
    eigen_residual,
    f_tree,
    f_tree_power_radius,
    hyperstar,
    is_connected,
    is_supertree,
    path,
    power_iteration,
    random_supertree,
    star,
    tensor_apply,
    tree_power,
)
from supertrees.spectral import DEFAULT_MAX_ITER, _extrapolate

from oracles import (
    eig_tree_radius,
    path_radius,
    random_tree,
    reference_extrapolate,
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


def test_tensor_apply_rejects_coordinates_that_are_not_floats():
    # an int or bool once passed through a leaf's one-slot gather unconverted:
    # [1] * 7 gave [3.0, 1, 1, 1, 1, 1, 1], and True read as 1
    h = hyperstar(3, 3)
    for x, bad in (
        ([1] * 7, "coordinate 0 of x is 1,"),
        ([True] * 7, "coordinate 0 of x is True,"),
        ([1.0] * 6 + [2], "coordinate 6 of x is 2,"),
        ([1.0] * 6 + ["1"], "coordinate 6 of x is '1',"),
    ):
        with pytest.raises(ValueError, match=bad):
            tensor_apply(h, x)
    with pytest.raises(ValueError, match="not a float"):
        eigen_residual(h, 2.0, [1] * 7)


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


def cyclic_hypergraph(k: int, n: int, draws: int, rng: random.Random) -> Hypergraph:
    """``draws`` random k-sets on n vertices, repeats dropped: cycles,
    repeated degrees and isolated vertices all occur."""
    edges = {tuple(sorted(rng.sample(range(n), k))) for _ in range(draws)}
    return Hypergraph(k=k, n=n, edges=tuple(edges))


@hs.composite
def cyclic_hypergraphs(draw) -> Hypergraph:
    k = draw(hs.integers(2, 6))
    n = draw(hs.integers(k + 1, 16))
    rng = random.Random(draw(hs.integers(0, 2**32)))
    return cyclic_hypergraph(k, n, draw(hs.integers(1, 3 * n)), rng)


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
    # exact counts of the unshifted step at k >= 3, so a slower step rule
    # shows.  Without extrapolation the path takes 493 steps; the random
    # supertree has two slow modes close together, and the slowest mode the
    # hyperstar and the broom excite is negative, at -1/2
    assert power_iteration(tree_power(path(21), 3)).iterations == 51
    assert power_iteration(hyperstar(1000, 3)).iterations == 19
    random_k5 = random_supertree(300, 5, random.Random("supertree-k5-m300"))
    assert power_iteration(random_k5).iterations == 85
    assert power_iteration(broom(1, 1, 997, 3)).iterations == 23


def _two_mode_iterates(limit: list[float]) -> list[list[float]]:
    # x_j = limit + 0.9^j e1 + (-0.5)^j e2: two modes, so a window of 2
    # (four iterates) recovers the limit up to rounding
    e1, e2 = [0.3, 0.2, 0.2], [-0.2, 0.1, 0.1]
    return [[v + 0.9**j * a + (-0.5) ** j * b for v, a, b in zip(limit, e1, e2)] for j in range(4)]


def test_extrapolation_recovers_the_limit_of_two_modes():
    limit = [0.5, 0.7, 0.4]
    z = _extrapolate(_two_mode_iterates(limit), 3.0)
    norm = sum(v**3 for v in limit) ** (1 / 3)
    assert z == pytest.approx([v / norm for v in limit], rel=1e-9)
    assert bits(z) == bits(reference_extrapolate(_two_mode_iterates(limit), 3))


def test_extrapolation_rejects_a_negative_coordinate():
    # every iterate is positive, but the combination they point to is not
    xs = _two_mode_iterates([0.5, -0.05, 0.4])
    assert all(v > 0.0 for x in xs for v in x)
    assert _extrapolate(xs, 3.0) is None
    assert reference_extrapolate(xs, 3) is None


def test_extrapolation_rejects_a_singular_solve():
    # iterates that no longer move give an all-zero Gram matrix
    xs = [[0.5, 0.7, 0.4]] * 4
    assert _extrapolate(xs, 3.0) is None
    assert reference_extrapolate(xs, 3) is None


def cw_bracket(h, x) -> tuple[float, float]:
    ratios = [a / xi ** (h.k - 1) for a, xi in zip(tensor_apply(h, x), x)]
    return min(ratios), max(ratios)


def test_long_path_power_takes_a_quarter_of_the_plain_steps():
    # the plain loop converges linearly at a rate near 1: about 9k steps here
    h = tree_power(path(101), 3)
    pair = power_iteration(h)
    exact = path_radius(101) ** (2 / 3)
    assert pair.rho == pytest.approx(exact, rel=1e-10)
    low, high = cw_bracket(h, pair.x)
    slack = h.k * sys.float_info.epsilon  # as in the bracket property above
    assert low * (1.0 - slack) <= exact <= high * (1.0 + slack)
    plain = reference_power_iteration(h, extrapolate=False)
    assert 4 * pair.iterations <= plain.iterations


def test_extrapolation_halves_the_steps_of_a_seeded_sweep():
    rng = random.Random(20261019)
    hosts = [random_supertree(rng.randint(1, 40), rng.randint(2, 6), rng) for _ in range(24)]
    while len(hosts) < 40:
        k = rng.randint(2, 6)
        n = rng.randint(k + 1, 16)
        h = cyclic_hypergraph(k, n, rng.randint(1, 3 * n), rng)
        if is_connected(h):
            hosts.append(h)
    steps = plain_steps = 0
    for h in hosts:
        pair = power_iteration(h)
        plain = reference_power_iteration(h, extrapolate=False)
        low, high = cw_bracket(h, pair.x)
        plain_low, plain_high = cw_bracket(h, plain.x)
        assert low <= plain_high and plain_low <= high
        steps += pair.iterations
        plain_steps += plain.iterations
    assert 2 * steps <= plain_steps


@pytest.mark.parametrize(
    "h",
    [tree_power(path(12), 2), tree_power(path(21), 3), random_supertree(60, 5, random.Random(7))],
    ids=["path-k2", "path3-m20", "random-k5-m60"],
)
def test_step_budget_boundaries_match_the_reference(h):
    # The convergence screen skips the full Collatz-Wielandt pass on most
    # steps; the last allowed step must still run it, converging exactly at
    # the reference's step count and raising its bracket one step short.
    n = reference_power_iteration(h).iterations
    pair = power_iteration(h, max_iter=n)
    ref = reference_power_iteration(h, max_iter=n)
    assert pair.iterations == ref.iterations == n
    assert bits((pair.rho, pair.residual, *pair.x)) == bits((ref.rho, ref.residual, *ref.x))
    for budget in (n - 1, 1):
        with pytest.raises(NonConvergenceError) as err:
            power_iteration(h, max_iter=budget)
        with pytest.raises(NonConvergenceError) as ref_err:
            reference_power_iteration(h, max_iter=budget)
        assert bits(err.value.bracket) == bits(ref_err.value.bracket)


def test_each_power_solve_logs_one_debug_record(caplog):
    h = tree_power(path(21), 3)
    with caplog.at_level(logging.DEBUG, logger="supertrees"):
        pair = power_iteration(h)
        with pytest.raises(NonConvergenceError) as err:
            power_iteration(h, max_iter=5)
    records = [r for r in caplog.records if r.name == "supertrees"]
    assert all(r.levelno == logging.DEBUG for r in records)
    low, high = cw_bracket(h, pair.x)
    assert [r.getMessage() for r in records] == [
        f"power solve: n=41 k=3 steps=51 jumps=5 rejected=0 bracket=[{low!r}, {high!r}]",
        "power solve: n=41 k=3 steps=5 jumps=0 rejected=0 bracket=[{!r}, {!r}]".format(
            *err.value.bracket
        ),
    ]


def test_debug_record_counts_rejected_extrapolations(caplog):
    # the first extrapolation from the uniform start has a negative coordinate
    h = random_supertree(300, 3, random.Random("supertree-k3-m300"))
    with caplog.at_level(logging.DEBUG, logger="supertrees"):
        power_iteration(h)
    (record,) = [r for r in caplog.records if r.name == "supertrees"]
    assert "steps=89 jumps=8 rejected=1 " in record.getMessage()


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
    # True would pass the range test as 1.0 and stop after two steps
    for tol in (True, False, "1e-9", 1e-9j, None):
        with pytest.raises(ValueError, match="tol must be a real number"):
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


def test_residual_rejects_a_rho_that_is_not_a_finite_real():
    # True was read as 1: eigen_residual(hyperstar(3, 3), True, x) gave 2.0
    h = hyperstar(3, 3)
    x = [1.0] * h.n
    for rho in (True, False, "3", 3j, None):
        with pytest.raises(ValueError, match="rho must be a real number"):
            eigen_residual(h, rho, x)
    for rho in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="rho must be finite"):
            eigen_residual(h, rho, x)
    assert eigen_residual(h, 3, x) == eigen_residual(h, 3.0, x) == 2.0


def test_power_iteration_residual_within_tolerance():
    pair = power_iteration(tree_power(f_tree(6), 3))
    assert pair.residual <= 1e-10 * pair.rho


# --- ordinary graphs and the power formula ---------------------------------------


def _graph_radius(t):
    # the k = 2 power of an ordinary tree is the tree itself
    return power_iteration(tree_power(t, 2)).rho


def test_graph_radius_examples():
    assert _graph_radius(path(2)) == pytest.approx(1.0, abs=1e-10)
    assert _graph_radius(star(5)) == pytest.approx(2.0, abs=1e-10)
    assert _graph_radius(star(5)) == pytest.approx(star_radius(5), abs=1e-10)
    assert _graph_radius(path(5)) == pytest.approx(path_radius(5), abs=1e-10)
    assert _graph_radius(path(5)) == pytest.approx(math.sqrt(3.0), abs=1e-10)


def test_graph_radius_matches_dense_oracle():
    rng = random.Random(31)
    for _ in range(10):
        t = random_tree(rng.randint(2, 10), rng)
        assert _graph_radius(t) == pytest.approx(eig_tree_radius(t), abs=1e-9)


def test_power_formula_star_example():
    assert alpha_normal_radius(tree_power(star(5), 3)) == pytest.approx(2 ** (2 / 3), abs=1e-9)


def test_certificate_solver_obeys_the_tree_power_identity():
    # Lu and Man: rho(T^k) = rho(T)^(2/k), with rho(T) from a dense numpy
    # eigendecomposition, independent of both solvers
    rng = random.Random(20261018)
    for _ in range(30):
        t = random_tree(rng.randint(2, 40), rng)
        base = eig_tree_radius(t)
        for k in (2, 3, 4, 5):
            assert alpha_normal_radius(tree_power(t, k)) == pytest.approx(base ** (2 / k), rel=1e-12)


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
            formula = eig_tree_radius(f_tree(m + 1)) ** (2 / k)
            assert abs(f_tree_power_radius(m, k) - formula) <= 1e-9


def test_closed_forms_reject_non_integer_sizes():
    # a fractional size once returned a radius, e.g. 1.5447 for m = 4.5
    for call in (
        lambda: double_star_power_radius(4.5, 3),
        lambda: double_star_power_radius(5, 3.0),
        lambda: f_tree_power_radius(10, 3.0),
        lambda: f_tree_power_radius(10.0, 3),
        lambda: f_tree_power_radius(True, 3),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
