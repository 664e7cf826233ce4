"""Family constructors, tree powers, and the edge-moving operation."""

import math
import random

import pytest

from supertrees import (
    DanglingVertexWarning,
    Hypergraph,
    MultipleEdgeError,
    alpha_normal_bracket,
    broom,
    canonical_key,
    double_star,
    f_tree,
    hyperstar,
    is_supertree,
    move_edges,
    path,
    power_iteration,
    star,
    tree_power,
    vertex_stats,
)

from oracles import are_isomorphic


@pytest.mark.parametrize(
    "t",
    [
        Hypergraph(k=2, n=4, edges=((0, 1), (2, 3))),  # a forest
        Hypergraph(k=2, n=5, edges=((0, 1), (1, 2), (0, 2), (3, 4))),  # n - 1 edges, a cycle
        hyperstar(2, 3),  # a supertree, but 3-uniform
    ],
    ids=["forest", "cycle-with-n-minus-1-edges", "k3-supertree"],
)
def test_tree_power_rejects_non_trees(t):
    for k in (2, 3):
        with pytest.raises(ValueError, match="tree_power needs a tree"):
            tree_power(t, k)


@pytest.mark.parametrize(
    "n, edges, error, message",
    [
        (3.0, ((0, 1), (1, 2)), ValueError, "n must be an integer, got 3.0"),
        (True, ((0, 1),), ValueError, "n must be an integer, got True"),
        (3, ((0, 1), (1, 2), (1, 0)), MultipleEdgeError, r"duplicate edge \(0, 1\)"),
    ],
)
def test_trees_reject_bad_input(n, edges, error, message):
    # bool and float vertices of a tree: test_hypergraph's
    # test_rejects_non_integer_vertices, which builds k = 2 hypergraphs
    with pytest.raises(error, match=message):
        Hypergraph(k=2, n=n, edges=edges)


def test_engines_take_the_constructors_trees():
    for n in (2, 5, 12):
        rho = 2 * math.cos(math.pi / (n + 1))
        assert alpha_normal_bracket(path(n)) == pytest.approx((rho, rho), rel=1e-12)
        assert power_iteration(star(n)).rho == pytest.approx(math.sqrt(n - 1), rel=1e-9)


def test_double_star_shapes():
    s11 = double_star(1, 1)
    assert s11.n == 4  # coincides with the path on 4 vertices
    assert canonical_key(tree_power(s11, 2)) == canonical_key(tree_power(path(4), 2))
    s22 = double_star(2, 2)
    assert s22.n == 6
    degs = [0] * 6
    for a, b in s22.edges:
        degs[a] += 1
        degs[b] += 1
    assert sorted(degs) == [1, 1, 1, 1, 3, 3]
    assert canonical_key(tree_power(double_star(1, 2), 2)) == canonical_key(
        tree_power(double_star(2, 1), 2)
    )


def test_f_tree_shapes():
    assert canonical_key(tree_power(f_tree(5), 2)) == canonical_key(tree_power(path(5), 2))
    degs = [0] * 6
    for a, b in f_tree(6).edges:
        degs[a] += 1
        degs[b] += 1
    assert max(degs) == 3 and degs.count(3) == 1
    for n in range(5, 10):
        assert len(f_tree(n).edges) == n - 1
    with pytest.raises(ValueError):
        f_tree(4)


def test_tree_power_counts():
    assert tree_power(path(2), 4) == Hypergraph(k=4, n=4, edges=((0, 1, 2, 3),))
    h = tree_power(double_star(1, 2), 3)
    assert h.n == 9 and h.m == 4
    # powers of trees have at most two non-pendent vertices per edge
    pend = vertex_stats(h).pendent_vertices
    assert all(sum(1 for v in e if v not in pend) <= 2 for e in h.edges)
    t = path(6)
    assert tree_power(t, 2) is t


def test_tree_power_fresh_vertex_numbering_is_deterministic():
    h1 = tree_power(star(4), 3)
    h2 = tree_power(star(4), 3)
    assert h1 == h2
    assert h1.edges[0][-1] >= 4  # fresh ids come after the original tree's


def test_hyperstar():
    assert hyperstar(1, 3) == Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    h = hyperstar(3, 3)
    assert h.n == 7 and vertex_stats(h).degrees[0] == 3
    assert hyperstar(4, 3) == tree_power(star(5), 3)
    assert are_isomorphic(hyperstar(4, 3), tree_power(star(5), 3))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 40])
def test_hyperstar_is_numbered_as_the_power_of_a_star(m, k):
    assert hyperstar(m, k) == tree_power(star(m + 1), k)


@pytest.mark.parametrize("k, message", [(1, "hyperstar needs k >= 2"), (True, "k must be an integer")])
def test_hyperstar_rejects_bad_k(k, message):
    with pytest.raises(ValueError, match=message):
        hyperstar(3, k)


def test_broom_shapes():
    b = broom(1, 1, 1, 3)
    assert b.m == 4 and b.n == 9
    s = vertex_stats(b)
    assert s.non_pendent_count == 3
    b2 = broom(1, 1, 2, 3)
    s2 = vertex_stats(b2)
    assert b2.m == 5
    assert sorted(s2.degrees[u] for u in (0, 1, 2)) == [2, 2, 3]
    # a branch supertree is never the power of an ordinary tree: its central
    # edge holds three non-pendent vertices
    pendent = vertex_stats(broom(1, 1, 3, 3)).pendent_vertices
    assert len(set(broom(1, 1, 3, 3).edges[0]) - pendent) == 3
    for t1, t2, t3, k in ((1, 2, 2, 3), (2, 2, 2, 4), (1, 1, 5, 5)):
        h = broom(t1, t2, t3, k)
        assert is_supertree(h)
        assert h.n == (t1 + t2 + t3 + 1) * (k - 1) + 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: star(True), "n must be an integer, got True"),
        (lambda: path(3.0), "n must be an integer, got 3.0"),
        (lambda: double_star(1, 2.0), "b must be an integer, got 2.0"),
        (lambda: f_tree(5.0), "n must be an integer, got 5.0"),
        (lambda: tree_power(path(3), 3.0), "k must be an integer, got 3.0"),
        (lambda: tree_power(path(3), True), "k must be an integer, got True"),
        (lambda: hyperstar(True, 3), "m must be an integer, got True"),
        (lambda: hyperstar(3.0, 3), "m must be an integer, got 3.0"),
        (lambda: broom(1, 1, 2.0, 3), "t3 must be an integer, got 2.0"),
        (lambda: broom(True, 1, 2, 3), "t1 must be an integer, got True"),
        (lambda: broom(1, 1, 2, 3.0), "k must be an integer, got 3.0"),
    ],
    ids=[
        "star-bool", "path-float", "double-star-float", "f-tree-float", "tree-power-float",
        "tree-power-bool", "hyperstar-bool", "hyperstar-float", "broom-float",
        "broom-bool", "broom-k-float",
    ],
)
def test_family_sizes_must_be_ints(build, message):
    # hyperstar(True, 3) used to build a one-edge hyperstar; floats raised TypeError
    with pytest.raises(ValueError, match=message):
        build()


def test_broom_rejects_bad_parameters():
    with pytest.raises(ValueError):
        broom(1, 1, 1, 2)  # three branch vertices cannot share a 2-edge
    with pytest.raises(ValueError):
        broom(2, 1, 1, 3)
    with pytest.raises(ValueError):
        broom(0, 1, 1, 3)


# --- moving edges ---------------------------------------------------------------


def test_move_zero_edges_is_identity():
    g = broom(1, 1, 1, 3)
    assert move_edges(g, 2, []) == g


def test_move_pendent_edges_onto_heavy_vertex():
    # moving both single pendent edges onto the third branch vertex
    # concentrates all edges there: the result is the 4-edge hyperstar
    g = broom(1, 1, 1, 3)
    moved = move_edges(g, 2, [(1, 0), (2, 1)])
    assert canonical_key(moved) == canonical_key(hyperstar(4, 3))


def test_move_rebalances_branches():
    g = broom(2, 2, 2, 3)
    moved = move_edges(g, 2, [(1, 0), (3, 1)])
    assert canonical_key(moved) == canonical_key(broom(1, 1, 4, 3))


def test_move_validates_arguments():
    g = broom(1, 1, 1, 3)
    with pytest.raises(ValueError):
        move_edges(g, 0, [(0, 0)])  # target already inside the moved edge
    with pytest.raises(ValueError):
        move_edges(g, 2, [(1, 5)])  # vertex not in that edge
    with pytest.raises(ValueError):
        move_edges(g, 2, [(1, 0), (1, 0)])  # same edge twice


@pytest.mark.parametrize(
    "u, moves, message",
    [
        (True, [(1, 0)], "target vertex must be an integer, got True"),
        (1.0, [(1, 0)], "target vertex must be an integer, got 1.0"),
        (1, [(True, 0)], "edge index must be an integer, got True"),
        (1, [(1, False)], "moved vertex must be an integer, got False"),
    ],
)
def test_move_rejects_non_integers(u, moves, message):
    # move_edges(g, True, [(1, 0)]) used to return a supertree whose vertex
    # True stood in for vertex 1
    with pytest.raises(ValueError, match=message):
        move_edges(broom(1, 1, 1, 3), u, moves)


def test_move_detects_multiple_edges():
    g = Hypergraph(k=2, n=3, edges=((0, 1), (0, 2)))
    with pytest.raises(MultipleEdgeError):
        move_edges(g, 2, [(0, 1)])  # {0,1} -> {0,2} which already exists


def test_move_warns_on_dangling_vertex():
    g = Hypergraph(k=3, n=5, edges=((0, 1, 2), (2, 3, 4)))
    with pytest.warns(DanglingVertexWarning):
        moved = move_edges(g, 0, [(1, 3)])
    assert moved.edges == ((0, 1, 2), (0, 2, 4))


def test_move_anchored_in_shared_edge_preserves_supertree():
    # when the target and every moved-from vertex share one edge, the result
    # stays connected and acyclic
    rng = random.Random(5)
    from supertrees import random_supertree

    checked = 0
    while checked < 25:
        g = random_supertree(rng.randint(3, 6), 3, rng)
        anchor = rng.randrange(g.m)
        e = g.edges[anchor]
        u = rng.choice(e)
        movable = []
        for fi, f in enumerate(g.edges):
            if fi == anchor:
                continue
            shared = set(f) & set(e)
            if len(shared) == 1 and (v := shared.pop()) != u:
                movable.append((fi, v))
        if not movable:
            continue
        moves = rng.sample(movable, rng.randint(1, len(movable)))
        moved = move_edges(g, u, moves)
        assert is_supertree(moved)
        checked += 1
