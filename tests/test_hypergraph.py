"""Structure, predicates, canonical keys, and the isomorphism oracle."""

import copy
import gc
import itertools
import pickle
import random
import signal
import tracemalloc
from contextlib import contextmanager

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from supertrees import (
    Hypergraph,
    MultipleEdgeError,
    broom,
    canonical_key,
    double_star,
    enumerate_supertrees,
    from_interchange,
    hyperstar,
    is_connected,
    is_supertree,
    path,
    random_supertree,
    to_interchange,
    tree_power,
    vertex_stats,
)
import supertrees.hypergraph as hypergraph
from supertrees.hypergraph import (
    _attach_pendent_edge,
    _centred_tree,
    _encode,
    _encode_grown,
    _grown_key,
    _growth_context,
    _kept_tree,
    _tree_context,
)

from oracles import (
    COUNT_ONLY_NON_SUPERTREES,
    SizeLimitError,
    are_isomorphic,
    brute_isomorphic,
    edge_inputs,
    edge_sets,
    reference_canonical_key,
    reference_edges,
    supertree_counts,
    vertex_orbits,
)


def relabel(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return Hypergraph(k=h.k, n=h.n, edges=tuple(tuple(perm[v] for v in e) for e in h.edges))


def shuffled(h: Hypergraph, rng: random.Random) -> Hypergraph:
    perm = list(range(h.n))
    rng.shuffle(perm)
    return relabel(h, perm)


# --- construction invariants --------------------------------------------------


def test_rejects_wrong_edge_size():
    with pytest.raises(ValueError):
        Hypergraph(k=3, n=4, edges=((0, 1),))
    with pytest.raises(ValueError):
        Hypergraph(k=3, n=4, edges=((0, 1, 1),))


def test_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        Hypergraph(k=2, n=2, edges=((0, 2),))


def test_rejects_duplicate_edges():
    with pytest.raises(MultipleEdgeError):
        Hypergraph(k=3, n=3, edges=((0, 1, 2), (2, 1, 0)))


def test_rejects_empty_edge_set():
    with pytest.raises(ValueError):
        Hypergraph(k=2, n=1, edges=())


@pytest.mark.parametrize(
    "k, n",
    [(3.0, 3), (True, 3), ("3", 3), (3, 3.0), (3, True), (3, None)],
)
def test_rejects_non_integer_k_and_n(k, n):
    # k = 3.0 would compare equal to k = 3 yet give a different canonical key
    with pytest.raises(ValueError, match="must be an integer"):
        Hypergraph(k=k, n=n, edges=((0, 1, 2),))


@pytest.mark.parametrize(
    "edges, shown",
    [
        (((0, 1.5), (1.5, 2)), "1.5"),
        (((0, 1.0), (1.0, 2)), "1.0"),
        (((0, True), (True, 2)), "True"),
        (((False, 1), (1, 2)), "False"),
    ],
)
def test_rejects_non_integer_vertices(edges, shown):
    # these were accepted: a float vertex then broke canonical_key and the
    # certificate solver with a bare TypeError, and True acted as vertex 1
    with pytest.raises(ValueError, match=f"edge vertex must be an integer, got {shown}"):
        Hypergraph(k=2, n=3, edges=edges)


def test_rejects_an_edge_that_repeats_a_vertex():
    # k distinct vertices but k + 1 entries: counting distinct members let
    # these through
    with pytest.raises(ValueError, match=r"edge \(0, 1, 1\) must have exactly 2 distinct"):
        Hypergraph(k=2, n=3, edges=((0, 1, 1),))
    with pytest.raises(ValueError, match=r"edge \(0, 1, 1, 2\) must have exactly 3 distinct"):
        Hypergraph(k=3, n=3, edges=((2, 1, 0, 1),))


def test_rejects_a_negative_vertex():
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) has vertices outside \[0, 3\)"):
        Hypergraph(k=2, n=3, edges=((0, 1), (0, -1)))


@pytest.mark.parametrize(
    "edges, shown", [(((0, 1), (1, "a")), "'a'"), (((0, None), (1, 2)), "None"), ((("0", "1"),), "'0'")]
)
def test_str_and_none_vertices_raise_value_error(edges, shown):
    # the sort used to run first and raise TypeError on str against int
    message = f"edge vertex must be an integer, got {shown}"
    with pytest.raises(ValueError, match=message):
        Hypergraph(k=2, n=3, edges=edges)
    with pytest.raises(ValueError, match=message):
        from_interchange({"k": 2, "n": 3, "edges": [list(e) for e in edges]})


@settings(max_examples=300, deadline=None)
@given(edge_inputs())
def test_column_checks_agree_with_the_per_edge_reference(case):
    k, n, edges = case
    try:
        want = reference_edges(k, n, edges)
    except (ValueError, MultipleEdgeError) as exc:
        want = exc
    try:
        got = Hypergraph(k=k, n=n, edges=edges).edges
    except (ValueError, MultipleEdgeError) as exc:
        got = exc
    repeats = any(len(set(e)) != len(e) for e in edges)
    # both check vertex types first, so their type errors must agree exactly
    if not repeats or "must be an integer" in str(want):
        assert type(got) is type(want) and str(got) == str(want)
    elif isinstance(want, Exception):
        assert isinstance(got, (ValueError, MultipleEdgeError))
    else:
        # the one intended difference: an edge of k distinct vertices that
        # repeats one is rejected, by name, as the first such sorted edge
        bad = min(tuple(sorted(e)) for e in edges if len(e) != k)
        assert type(got) is ValueError
        assert str(got) == f"edge {bad} must have exactly {k} distinct vertices"


def test_canonical_edges_are_kept_without_a_copy():
    edges = ((0, 1, 2), (0, 3, 4), (1, 5, 6))
    assert Hypergraph(k=3, n=7, edges=edges).edges is edges
    h = hyperstar(40, 3)
    assert Hypergraph(k=3, n=h.n, edges=h.edges).edges is h.edges


def test_edges_normalized_sorted():
    h = Hypergraph(k=3, n=6, edges=((5, 4, 3), (2, 1, 0)))
    assert h.edges == ((0, 1, 2), (3, 4, 5))


# --- vertex stats --------------------------------------------------------------


def test_stats_single_edge():
    h = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    s = vertex_stats(h)
    assert s.degrees == (1, 1, 1)
    assert s.pendent_vertices == {0, 1, 2}
    assert s.non_pendent_count == 0


def test_stats_hyperstar():
    h = hyperstar(3, 3)
    s = vertex_stats(h)
    assert h.n == 7
    assert s.degrees[0] == 3
    assert len(s.pendent_vertices) == 6
    assert s.non_pendent_count == 1


def test_stats_three_branch_supertree():
    s = vertex_stats(broom(1, 1, 1, 3))
    assert s.non_pendent_count == 3
    assert all(s.degrees[u] == 2 for u in (0, 1, 2))


def test_degree_sum_is_mk():
    for h in (hyperstar(4, 3), broom(1, 2, 3, 3), tree_power(path(5), 4)):
        assert sum(vertex_stats(h).degrees) == h.m * h.k


def test_supertrees_with_two_edges_have_a_pendent_edge():
    from supertrees import enumerate_supertrees

    for k in (2, 3, 4):
        for m in range(2, 6):
            for h in enumerate_supertrees(m, k):
                pend = vertex_stats(h).pendent_vertices
                # a pendent edge has all but at most one vertex pendent
                assert any(sum(v in pend for v in e) >= k - 1 for e in h.edges)


# --- connectivity and the supertree test ---------------------------------------


def test_connected_single_edge():
    assert is_connected(Hypergraph(k=3, n=3, edges=((0, 1, 2),)))


def test_disconnected_two_edges():
    assert not is_connected(Hypergraph(k=3, n=6, edges=((0, 1, 2), (3, 4, 5))))


def test_constructors_are_connected():
    for h in (hyperstar(5, 3), broom(2, 2, 2, 3), tree_power(path(6), 4)):
        assert is_connected(h)
        assert is_supertree(h)


def test_is_connected_counts_vertices_before_allocating():
    # more than m(k-1)+1 vertices cannot be connected: no per-vertex lists
    h = Hypergraph(k=3, n=10**6, edges=((0, 1, 2),))
    tracemalloc.start()
    try:
        assert not is_connected(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=300, deadline=None)
@given(edge_sets(), hs.sampled_from((0, 0, 0, 1, 2)))
def test_is_connected_agrees_with_networkx(h, isolated):
    # ``isolated`` extra vertices that no edge touches
    h = Hypergraph(k=h.k, n=h.n + isolated, edges=h.edges)
    g = nx.Graph()
    g.add_nodes_from(range(h.n))
    for e in h.edges:
        nx.add_path(g, e)
    assert is_connected(h) == nx.is_connected(g)


def test_supertree_arithmetic():
    h = hyperstar(4, 3)
    assert h.n == 9 and h.m * (h.k - 1) == h.n - 1
    assert is_supertree(Hypergraph(k=3, n=3, edges=((0, 1, 2),)))
    assert not is_supertree(Hypergraph(k=3, n=4, edges=((0, 1, 2), (0, 1, 3))))


# --- canonical keys -------------------------------------------------------------


def test_key_relabeling_invariance():
    h = hyperstar(3, 3)
    rng = random.Random(7)
    for _ in range(5):
        assert canonical_key(shuffled(h, rng)) == canonical_key(h)


def test_key_double_star_symmetry():
    a = tree_power(double_star(1, 2), 3)
    b = tree_power(double_star(2, 1), 3)
    assert canonical_key(a) == canonical_key(b)


def test_key_rejects_non_supertree():
    with pytest.raises(ValueError):
        canonical_key(Hypergraph(k=3, n=4, edges=((0, 1, 2), (0, 1, 3))))


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(COUNT_ONLY_NON_SUPERTREES))
def test_key_rejects_cycles_that_meet_the_edge_count(name):
    h = COUNT_ONLY_NON_SUPERTREES[name]
    assert h.m * (h.k - 1) == h.n - 1 and not is_supertree(h)
    with time_limit(5.0), pytest.raises(ValueError, match="requires a supertree"):
        canonical_key(h)


@settings(max_examples=300, deadline=None)
@given(edge_sets())
def test_key_rejects_exactly_the_non_supertrees(h):
    try:
        with time_limit(5.0):
            canonical_key(h)
    except ValueError:
        assert not is_supertree(h)
    else:
        assert is_supertree(h)


@pytest.mark.parametrize(
    "h, key",
    [
        (broom(1, 1, 2, 3), b"3|E/V0 V0.0/E0.0.1"),
        (hyperstar(4, 3), b"3|E/V0.0.0.0"),
        (tree_power(path(5), 2), b"2|E/V0/E0/V0.0"),
        (tree_power(double_star(2, 3), 4), b"4|E/V0.0 V0.0.0/E0.1"),
    ],
)
def test_key_bytes_are_pinned(h, key):
    # the CLI prints these keys, so a faster encoder must reproduce them exactly
    assert canonical_key(h) == key


def enumeration_candidates(k: int, m_max: int):
    """Every supertree the enumeration keys on its way to ``m_max`` edges."""
    yield hyperstar(1, k)
    for m in range(1, m_max):
        for h in enumerate_supertrees(m, k):
            ctx = _growth_context(h)
            for v in range(h.n):
                yield _attach_pendent_edge(h, v, _grown_key(k, ctx, v))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_key_matches_the_reference_on_every_enumeration_candidate(k):
    # every class up to 7 edges (8 at k = 3) grown at every vertex: the key
    # built from the parent's centred tree is the one its edge list gives
    count = 0
    for h in enumeration_candidates(k, 9 if k == 3 else 8):
        assert canonical_key(h) == _encode(h) == reference_canonical_key(h)
        count += 1
    assert count == {2: 326, 3: 3256, 4: 1859, 5: 2530}[k]


def test_key_matches_the_reference_on_random_supertrees():
    rng = random.Random(12)
    for _ in range(60):
        h = random_supertree(rng.randint(1, 300), rng.randint(2, 6), rng)
        assert canonical_key(h) == reference_canonical_key(h)


def test_key_matches_the_reference_on_a_long_path_power():
    h = tree_power(path(10_001), 3)
    assert canonical_key(h) == reference_canonical_key(h)


def many_label_supertree() -> Hypergraph:
    """k = 4: the edge (0, 1, 2, 3) is the centre.  Vertex 0 holds 20 edges,
    one for each multiset of at most three pendent-edge counts from (1, 2, 3),
    the counts held by its other vertices; vertices 1 and 2 hold one more
    such edge each, with counts (1, 3, 3) and (1, 1).  Its last edge is a
    pendent edge at a vertex that holds no other."""
    edges, n = [(0, 1, 2, 3)], 4

    def add(v, counts):
        nonlocal n
        edges.append((v, n, n + 1, n + 2))
        n += 3
        for u, t in zip(range(n - 3, n), counts):
            for _ in range(t):
                add(u, ())

    for size in range(4):
        for counts in itertools.combinations_with_replacement((1, 2, 3), size):
            add(0, counts)
    add(1, (1, 3, 3))
    add(2, (1, 1))
    return Hypergraph(k=4, n=n, edges=edges)


def test_labels_past_nine_sort_as_strings():
    # 20 distinct signatures two levels below the centre: vertex 0's node
    # lists labels 0-19 with "10" before "2", vertex 1's node (one child)
    # reads "10", and "V10" sorts before "V2" one level up
    h = many_label_supertree()
    key = (
        b"4|E/V0 V0.0 V0.0.0/E E0 E0.0 E0.0.0 E0.0.1 E0.0.2 E0.1 E0.1.1 E0.1.2"
        b" E0.2 E0.2.2 E1 E1.1 E1.1.1 E1.1.2 E1.2 E1.2.2 E2 E2.2 E2.2.2"
        b"/V0.1.10.11.12.13.14.15.16.17.18.19.2.3.4.5.6.7.8.9 V10 V2/E0.1.2"
    )
    assert canonical_key(h) == _encode(h) == reference_canonical_key(h) == key
    # as a grown candidate: its parent lacks the last edge, and every other
    # splice of that parent keys as the reference does too
    parent = Hypergraph(k=4, n=h.n - 3, edges=h.edges[:-1])
    ctx = _growth_context(parent)
    for v in range(parent.n):
        cand = _attach_pendent_edge(parent, v, _grown_key(4, ctx, v))
        assert canonical_key(cand) == reference_canonical_key(cand)
        if v == h.edges[-1][0]:
            assert cand == h and canonical_key(cand) == key


# --- grown keys ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    hs.integers(2, 6), hs.integers(1, 40), hs.integers(0, 2**32), hs.booleans(), hs.data()
)
def test_a_grown_key_survives_relabelling_and_a_moving_centre(k, m, seed, deepest, data):
    # deepest: grow at a pendent vertex of an edge on the deepest level, where
    # the centre moves one step; otherwise at any vertex
    rng = random.Random(seed)
    h = shuffled(random_supertree(m, k, rng), rng)
    ctx = _growth_context(h)
    _, _, levels, depth, _, node, edge_of, _, _ = ctx
    if deepest:
        e = data.draw(hs.sampled_from(levels[-1]))
        v = data.draw(hs.sampled_from([u for u in h.edges[e] if node[u] < 0]))
        assert depth[edge_of[v]] + 2 >= len(levels)
    else:
        v = data.draw(hs.integers(0, h.n - 1))
    cand = _attach_pendent_edge(h, v, _grown_key(k, ctx, v))
    assert canonical_key(cand) == _encode(cand) == reference_canonical_key(cand)


def assert_deepest_level_holds_e_leaves(tree: tuple, m: int) -> None:
    kind, adj, levels = tree[:3]
    assert len(levels) > 1 or m == 1
    if len(levels) > 1:
        assert all(kind[x] == "E" and len(adj[x]) == 1 for x in levels[-1])


@settings(max_examples=200, deadline=None)
@given(
    hs.integers(2, 6), hs.integers(1, 40), hs.integers(0, 2**32), hs.booleans(), hs.data()
)
def test_the_deepest_level_holds_only_edge_leaves(k, m, seed, deepest, data):
    # the premise of _ahu's shortcut for the deepest level, on the tree built
    # from the edges and on the grown tree, the moving-centre case included
    rng = random.Random(seed)
    h = shuffled(random_supertree(m, k, rng), rng)
    assert_deepest_level_holds_e_leaves(_centred_tree(h), m)
    ctx = _growth_context(h)
    _, _, levels, _, _, node, _, _, _ = ctx
    if deepest:
        e = data.draw(hs.sampled_from(levels[-1]))
        v = data.draw(hs.sampled_from([u for u in h.edges[e] if node[u] < 0]))
    else:
        v = data.draw(hs.integers(0, h.n - 1))
    tree = _encode_grown(k, ctx, v)[1]
    assert_deepest_level_holds_e_leaves(tree, m + 1)
    assert all(tree[3][x] == "0" for x in tree[2][-1])


def orbit_groups(orbits: list[int]) -> list[list[int]]:
    """The vertices grouped by their attachment orbit numbers, in the order
    ``vertex_orbits`` uses."""
    groups: dict[int, list[int]] = {}
    for v, orbit in enumerate(orbits):
        groups.setdefault(orbit, []).append(v)
    return sorted(groups.values())


def attachment_orbits(h: Hypergraph) -> list[list[int]]:
    """The vertices of ``h`` grouped by the attachment orbits of the growth
    context built from its edges."""
    *_, orbits, _ = _growth_context(h)
    return orbit_groups(orbits)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_attachment_orbits_are_the_automorphism_orbits(k):
    # two vertices share an attachment orbit, and so a grown key, exactly
    # when an automorphism maps one onto the other
    for m in range(1, 7):
        for h in enumerate_supertrees(m, k):
            assert attachment_orbits(h) == vertex_orbits(h)


def test_attachment_orbits_survive_relabelling():
    # k stays at most 4: the matcher's failed searches try every order of
    # each edge's pendent vertices
    rng = random.Random(20)
    for _ in range(20):
        h = shuffled(random_supertree(rng.randint(1, 10), rng.randint(2, 4), rng), rng)
        assert attachment_orbits(h) == vertex_orbits(h)


def assert_keys_like_the_edges(h: Hypergraph, ctx: tuple) -> None:
    """Every splice of ``h`` keys from ``ctx`` as the same splice built
    through the constructor keys from its edges, and ``ctx`` has the
    attachment orbits of the context built from ``h``'s edges.  Keys go
    through a copy of ``ctx`` with an empty memo, so ``ctx``'s own memo keeps
    the trees its enumeration kept."""
    k = h.k
    fresh = (*ctx[:-1], {})
    for v in range(h.n):
        built = Hypergraph(k=k, n=h.n + k - 1, edges=h.edges + ((v, *range(h.n, h.n + k - 1)),))
        key = _encode(built)
        assert _encode_grown(k, ctx, v)[0] == key
        assert canonical_key(_attach_pendent_edge(h, v, _grown_key(k, fresh, v))) == key
    assert orbit_groups(ctx[7]) == attachment_orbits(h)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_a_derived_context_keys_like_one_built_from_the_edges(monkeypatch, k):
    # every class with m <= 7 is a parent on the way to 8 edges; all but the
    # one-edge seed grow from the tree their key was encoded from
    parents, contexts = [], []

    def tracked_key(k, ctx, v):
        if v == 0:
            contexts.append(ctx)
        return _grown_key(k, ctx, v)

    def tracked_attach(h, v, key):
        if v == 0:
            parents.append(h)
        return _attach_pendent_edge(h, v, key)

    monkeypatch.setattr(hypergraph, "_grown_key", tracked_key)
    monkeypatch.setattr(hypergraph, "_attach_pendent_edge", tracked_attach)
    enumerate_supertrees(8, k)
    assert len(parents) == len(contexts) == sum(supertree_counts(k, 7).values())
    for h, ctx in zip(parents, contexts):
        assert_keys_like_the_edges(h, ctx)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_a_derived_context_follows_a_moving_centre(k):
    # a path power grown at its last vertex: each new edge lands two levels
    # below the deepest, so every step moves the centre, and each context
    # comes from the tree of the step before
    h = hyperstar(1, k)
    ctx = _growth_context(h)
    for m in range(2, 17):
        v = h.n - 1
        cand = _attach_pendent_edge(h, v, _grown_key(k, ctx, v))
        assert canonical_key(cand) == canonical_key(tree_power(path(m + 1), k))
        child = _tree_context(_kept_tree(ctx, v))
        # the reduced path has 2m - 1 nodes and its centre in the middle
        assert len(child[2]) == len(ctx[2]) + 1 == m
        h, ctx = cand, child
        assert_keys_like_the_edges(h, ctx)


def test_a_kept_tree_holds_nothing_the_collector_scans():
    h = broom(1, 2, 3, 3)
    ctx = _growth_context(h)
    firsts = {}
    for v in range(h.n):
        canonical_key(_attach_pendent_edge(h, v, _grown_key(h.k, ctx, v)))
        firsts.setdefault(ctx[7][v], v)
    trees = [_kept_tree(ctx, v) for v in firsts.values()]
    # a collection untracks a tuple once all it holds is untracked, so a
    # tree three tuples deep is untracked after at most three
    for _ in range(3):
        gc.collect()
    assert len(trees) == len(ctx[8]) > 1
    assert not any(gc.is_tracked(t) for t in trees)


def assert_reads_only_k_n_edges(h, built):
    """``==``, hashing, ``repr`` and ``to_interchange`` read nothing of ``h``
    but ``(k, n, edges)``: ``built`` has those alone, and a third copy holds
    other objects under each of ``h``'s further attributes."""
    extra = vars(h).keys() - {"k", "n", "edges"}
    assert extra and not vars(built).keys() - {"k", "n", "edges"}
    other = Hypergraph(k=h.k, n=h.n, edges=h.edges)
    for name in extra:
        object.__setattr__(other, name, object())
    for g in (built, other):
        assert g == h and h == g and not g != h
        assert hash(g) == hash(h) and repr(g) == repr(h)
        assert to_interchange(g) == to_interchange(h)


def test_a_spliced_candidate_holds_its_key_and_no_context():
    h = broom(1, 2, 3, 3)
    for v in range(h.n):
        cand = _attach_pendent_edge(h, v, _grown_key(h.k, _growth_context(h), v))
        built = Hypergraph(k=3, n=h.n + 2, edges=h.edges + ((v, h.n, h.n + 1),))
        # born keyed: nothing of the parent's tree rides along
        assert vars(cand).keys() == {"k", "n", "edges", "_key"}
        assert_reads_only_k_n_edges(cand, built)
        assert canonical_key(cand) == canonical_key(built)


@pytest.mark.parametrize("v", [True, False, 1.0, 2.5, "1", None])
def test_a_splice_takes_only_an_int_vertex(v):
    # no key belongs to such a vertex: the splice is given vertex 0's
    h = hyperstar(3, 3)
    key = _grown_key(h.k, _growth_context(h), 0)
    with pytest.raises(ValueError, match="must be an int"):
        _attach_pendent_edge(h, v, key)


# --- the stored key ----------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_fresh_class_is_keyed_once_and_read_back(k):
    for m in range(1, 8):
        for rep in enumerate_supertrees(m, k):
            h = Hypergraph(k=rep.k, n=rep.n, edges=rep.edges)
            key = canonical_key(h)
            assert key == reference_canonical_key(h)
            assert canonical_key(h) is key


def test_the_stored_key_is_invisible_to_equality_hash_and_repr():
    h = broom(1, 2, 3, 3)
    keyed = Hypergraph(k=h.k, n=h.n, edges=h.edges)
    canonical_key(keyed)
    assert "_key" in vars(keyed) and "_key" not in vars(h)
    assert_reads_only_k_n_edges(keyed, h)


def test_a_hypergraph_is_immutable_and_copies_with_its_key():
    h = broom(1, 2, 3, 3)
    key = canonical_key(h)
    for name in ("k", "n", "edges", "_key", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(h, name, 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(h, name)
    assert vars(h).keys() == {"k", "n", "edges", "_key"} and canonical_key(h) is key
    for dup in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert dup is not h and dup == h and vars(dup) == vars(h)
        assert canonical_key(dup) == key
        with pytest.raises(AttributeError):
            dup.n = 0
    assert Hypergraph(k=3, n=3, edges=[[0, 1, 2]]) != Hypergraph(k=3, n=4, edges=[[0, 1, 2]])
    assert Hypergraph(k=3, n=3, edges=[[0, 1, 2]]) != ((0, 1, 2),)


@pytest.mark.parametrize(
    "h",
    [
        Hypergraph(k=3, n=4, edges=((0, 1, 2), (0, 1, 3))),
        COUNT_ONLY_NON_SUPERTREES[sorted(COUNT_ONLY_NON_SUPERTREES)[0]],
    ],
    ids=["edge-count", "peel"],
)
def test_a_non_supertree_raises_on_every_call(h):
    for _ in range(2):
        with pytest.raises(ValueError, match="requires a supertree"):
            canonical_key(h)
    assert "_key" not in vars(h)


def test_four_classes_distinct_keys_against_brute_oracle():
    # the four m=4, k=3 shapes: star-like, double-star power, path power, broom
    from supertrees import double_star, enumerate_supertrees

    reps = enumerate_supertrees(4, 3)
    assert len(reps) == 4
    keys = [canonical_key(h) for h in reps]
    assert len(set(keys)) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert not brute_isomorphic(reps[i], reps[j])


@pytest.mark.parametrize("m", [400, 10_000])
def test_key_of_long_path_power_needs_no_recursion(m):
    # the recursive encoder raised RecursionError from m = 400 on
    h = tree_power(path(m + 1), 3)
    key = canonical_key(h)
    assert canonical_key(shuffled(h, random.Random(m))) == key
    assert canonical_key(broom(1, 1, m - 3, 3)) != key


def test_keys_differ_across_k():
    e3 = Hypergraph(k=3, n=3, edges=((0, 1, 2),))
    e4 = Hypergraph(k=4, n=4, edges=((0, 1, 2, 3),))
    assert canonical_key(e3) != canonical_key(e4)


# --- exhaustive isomorphism ------------------------------------------------------


def test_iso_reflexive():
    h = broom(1, 2, 2, 3)
    assert are_isomorphic(h, h)


def test_iso_distinguishes_star_from_path_power():
    assert not are_isomorphic(hyperstar(3, 3), tree_power(path(4), 3))


def test_iso_recovers_known_relabeling():
    h = broom(1, 2, 3, 3)
    rng = random.Random(99)
    g = shuffled(h, rng)
    assert are_isomorphic(h, g)
    assert brute_isomorphic(h, g)


def test_iso_size_guard():
    big = hyperstar(11, 3)  # 23 vertices
    with pytest.raises(SizeLimitError):
        are_isomorphic(big, big)
    assert are_isomorphic(big, big, max_vertices=25)


def test_iso_agrees_with_brute_oracle_on_relabelings():
    rng = random.Random(3)
    cases = [hyperstar(3, 3), tree_power(path(4), 3), broom(1, 1, 1, 3)]
    for h in cases:
        g = shuffled(h, rng)
        assert are_isomorphic(h, g) == brute_isomorphic(h, g) is True
    for i in range(len(cases)):
        for j in range(i + 1, len(cases)):
            assert are_isomorphic(cases[i], cases[j]) == brute_isomorphic(cases[i], cases[j])


def test_key_agreement_with_isomorphism_small_sweep():
    # acceptance covers m <= 5; keep a fast m <= 4 version at unit level
    from supertrees import enumerate_supertrees

    rng = random.Random(17)
    for k in (2, 3):
        pool = []
        for m in range(1, 5):
            for h in enumerate_supertrees(m, k):
                pool.append(h)
                pool.append(shuffled(h, rng))
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                same_shape = a.m == b.m and a.n == b.n
                if not same_shape:
                    continue
                assert (canonical_key(a) == canonical_key(b)) == are_isomorphic(a, b)


# --- interchange -----------------------------------------------------------------


def test_interchange_round_trip():
    h = broom(1, 1, 2, 3)
    obj = to_interchange(h)
    assert obj["k"] == 3 and obj["n"] == h.n
    assert all(e == sorted(e) for e in obj["edges"])
    assert from_interchange(obj) == h


def test_interchange_rejects_malformed():
    with pytest.raises(ValueError):
        from_interchange({"k": 3, "edges": [[0, 1, 2]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"k": 3.7, "n": 3, "edges": [[0, 1, 2.9]]},
        {"k": 3.0, "n": 3, "edges": [[0, 1, 2]]},
        {"k": 3, "n": "3", "edges": [[0, 1, 2]]},
        {"k": 3, "n": 3, "edges": [[0, 1, 2.0]]},
        {"k": 3, "n": 3, "edges": [[0, True, 2]]},
        {"k": 2, "n": 2, "edges": [[False, True]]},
        {"k": 3, "n": 3, "edges": ["012"]},
    ],
)
def test_interchange_rejects_non_integers(obj):
    with pytest.raises(ValueError):
        from_interchange(obj)
