"""Immutable k-uniform hypergraphs and structural predicates.

Vertices are dense integers ``0..n-1``.  Edges are stored as sorted tuples
and the edge list itself is sorted, so two hypergraphs are equal exactly
when their edge sets are equal.  All operations here are pure;
``canonical_key`` only remembers its result on the hypergraph it keyed.
"""

from __future__ import annotations

import sys
from bisect import bisect
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter, lt

from .errors import MultipleEdgeError


def _strict_int(value, what: str) -> int:
    # bool is a subclass of int, and int() would truncate floats silently
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _debug_logger():
    """The ``supertrees`` logger if it is enabled for DEBUG, else None.

    The package does not import ``logging`` itself: that import takes 7-10
    ms, a tenth of a cold start that solves a few radii.  Until some other
    code imports it, no level or handler can have been set, so DEBUG is off.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("supertrees")
    return log if log.isEnabledFor(logging.DEBUG) else None


def _strict_vertices(edges: tuple[tuple, ...]) -> None:
    # one C-level pass over the vertex types passes the all-int case; any
    # other type gets _strict_int's check and message
    if not {*map(type, chain.from_iterable(edges))} <= {int}:
        for v in chain.from_iterable(edges):
            _strict_int(v, "edge vertex")


def _increasing(seq) -> bool:
    return all(map(lt, seq, islice(seq, 1, None)))


def _increasing_edges(edges: tuple[tuple[int, ...], ...], k: int) -> bool:
    # every edge has k vertices and each column of zip(*edges) is smaller
    # than the next, entry by entry
    if {*map(len, edges)} != {k}:
        return False
    columns = tuple(zip(*edges))
    return all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))


def _name_offender(edges: tuple[tuple[int, ...], ...], k: int, n: int):
    # the error path: raise for the first edge, in sorted order, that breaks
    # a rule; int vertices are already checked, so the sort cannot fail
    seen = set()
    for e in sorted(tuple(sorted(e)) for e in edges):
        if len(e) != k or len(set(e)) != k:
            raise ValueError(f"edge {e} must have exactly {k} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} has vertices outside [0, {n})")
        if e in seen:
            raise MultipleEdgeError(f"duplicate edge {e}")
        seen.add(e)
    raise AssertionError(f"no edge of {edges!r} breaks a rule")


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices ``0..n-1`` with at least one edge.

    ``k``, ``n`` and every edge vertex must be ints (bools and floats are
    rejected, not coerced: ``k=3.0`` would compare equal to ``k=3`` yet key
    differently, and a vertex ``True`` would act as vertex 1).
    A str, None or any other non-int vertex raises the same ValueError,
    before anything is sorted.  Every edge must hold exactly ``k`` vertices,
    all distinct and in ``[0, n)``, so an edge such as (0, 1, 1) at k = 2 is
    rejected, and no two edges may coincide (MultipleEdgeError).  An error
    names the first offending edge in sorted order.  Isolated vertices are
    tolerated (they can appear transiently after edge moves) but never
    produced by the constructors.

    ``edges`` is stored canonical: each edge increasing and the edge tuple
    increasing.  The checks are a few C-level passes over ``map(len,
    edges)``, adjacent columns of ``zip(*edges)`` and adjacent edges; only
    input that fails them is sorted, and a tuple of tuples that is already
    canonical is stored as given, without a copy.  ``hyperstar(3000, 3)``
    builds this way in about 2 ms (Python 3.11, shared 2-core machine).
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, n, edges = self.k, self.n, self.edges
        if _strict_int(k, "k") < 2:
            raise ValueError(f"edge cardinality k must be >= 2, got {k}")
        if _strict_int(n, "n") < 1:
            raise ValueError(f"vertex count n must be >= 1, got {n}")
        if type(edges) is not tuple or not {*map(type, edges)} <= {tuple}:
            edges = tuple(map(tuple, edges))
        if not edges:
            raise ValueError("hypergraph must have at least one edge")
        _strict_vertices(edges)
        # each check below is a few passes in C; input that is already
        # canonical is kept as given, and only what fails a check is sorted
        if not _increasing_edges(edges, k):
            edges = tuple(map(tuple, map(sorted, edges)))
            if not _increasing_edges(edges, k):
                _name_offender(edges, k, n)
        if not _increasing(edges):
            edges = tuple(sorted(edges))
            if not _increasing(edges):
                _name_offender(edges, k, n)
        if edges[0][0] < 0 or max(map(itemgetter(-1), edges)) >= n:
            _name_offender(edges, k, n)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)


@dataclass(frozen=True)
class VertexStats:
    """Degrees and pendency classification of a hypergraph.

    ``non_pendent_count`` is the number of vertices of degree other than one.
    """

    degrees: tuple[int, ...]
    pendent_vertices: frozenset[int]
    non_pendent_count: int


def vertex_stats(h: Hypergraph) -> VertexStats:
    """Compute per-vertex degrees and the pendent vertex set.

    A vertex is pendent when its degree is one.
    """
    degrees = [0] * h.n
    for e in h.edges:
        for v in e:
            degrees[v] += 1
    pendent = frozenset(v for v in range(h.n) if degrees[v] == 1)
    return VertexStats(
        degrees=tuple(degrees),
        pendent_vertices=pendent,
        non_pendent_count=h.n - len(pendent),
    )


def incidence_lists(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Edge indices incident to each vertex."""
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            inc[v].append(i)
    return tuple(tuple(ix) for ix in inc)


def is_connected(h: Hypergraph) -> bool:
    """True iff every vertex is reachable from vertex 0 via shared edges.

    One incidence pass, then a search that marks vertices and edges in flag
    lists, so each edge is scanned once.  A connected k-uniform hypergraph
    with m edges has at most m(k-1)+1 vertices, so with more this returns
    False before allocating anything per vertex.
    """
    n, edges = h.n, h.edges
    if n > len(edges) * (h.k - 1) + 1:
        return False
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    seen_v = [False] * n
    seen_v[0] = True
    seen_e = [False] * len(edges)
    stack = [0]
    reached = 1
    while stack:
        for i in inc[stack.pop()]:
            if not seen_e[i]:
                seen_e[i] = True
                for w in edges[i]:
                    if not seen_v[w]:
                        seen_v[w] = True
                        reached += 1
                        stack.append(w)
    return reached == n


def is_supertree(h: Hypergraph) -> bool:
    """True iff ``h`` is connected and satisfies m(k-1) = n-1.

    For connected k-uniform hypergraphs the edge-count condition is
    equivalent to acyclicity, so this tests the supertree property.
    """
    return h.m * (h.k - 1) == h.n - 1 and is_connected(h)


# --- canonical form ---------------------------------------------------------
#
# For a supertree the bipartite vertex-edge incidence graph is a tree with
# m + n nodes.  Dropping the pendent vertices (leaves interchangeable under
# isomorphism; their count per edge is implied by k) leaves a smaller tree
# whose nodes are the edges and the non-pendent vertices.  That typed tree is
# a complete isomorphism invariant.  Every isomorphism maps its centre (the
# node or two adjacent nodes left after stripping leaves layer by layer) onto
# the centre, so a canonical encoding of the tree rooted at the centre is a
# canonical key.  A non-pendent vertex keeps all its edges, at least two, so
# every leaf is an edge node; any two leaves are then an even distance apart,
# the diameter is even and the centre is one node.
#
# Rejection needs no separate supertree test.  The incidence graph has
# m + n nodes and mk arcs, so it has one arc fewer than nodes exactly when
# m(k-1) = n-1, and a graph with that count is a tree exactly when it has
# no cycle.  Dropping a pendent vertex removes one node and one arc, so the
# reduced graph keeps the count and the cycles.  A cycle's nodes never
# become leaves, so on a cyclic graph the peel runs out of leaves while more
# than two nodes are left.  An isolated vertex is a node of degree 0: it is
# peeled at once, but a second component under that count must hold a cycle,
# so the peel stalls all the same.  ``_centred_tree`` therefore checks the
# count and then rejects a stalled peel.
#
# The rooted encoding follows Aho, Hopcroft and Ullman: working up from the
# deepest level, each node's signature is its type plus the sorted labels of
# its children, and its label is the rank of that signature among the
# distinct signatures of its level (labels are decimal strings and sort as
# strings; any fixed order will do).  The encoding lists those per-level
# signature tables, deepest first.  Expanding the root's signature through
# the tables rebuilds the rooted tree, so the encoding is complete.  A rank
# depends on the tree alone, not on the order nodes were visited, so two
# trees have equal encodings exactly when they are isomorphic as rooted trees.
#
# Two stages make a key.  ``_centred_tree`` builds the reduced tree from the
# edge list, rejects a non-supertree and returns the node types, adjacency
# and depth levels from the centre; ``_ahu`` turns those levels into the key
# bytes.  A leaf's signature is "E"; an unlabelled parent reads "" and
# leaves a leading ".".
#
# The enumeration's candidates skip the first stage.  A candidate is its
# parent plus one pendent edge at a vertex v, so its reduced tree is the
# parent's plus one E leaf when v is non-pendent, or plus a V node for v
# under v's edge e and an E leaf under that when v is pendent.  Levels hold
# nodes of one type each, E and V alternating, and the deepest level holds
# only E leaves.  A leaf under a V node therefore lands no deeper than the
# deepest level, and neither does the pair under e when depth(e) + 2 <= r,
# the radius: the diameter stays 2r and the centre stays.  Otherwise e lies
# on the deepest level, the diameter grows to 2r + 2 and the centre moves
# one step, to the root's child on the path to e (to the new V node when
# the parent is a single edge).  ``_encode_grown`` appends the new nodes to
# copies of the parent's lists, or runs one search from the moved centre,
# and hands the levels to ``_ahu``.  A parent's growth context is computed
# once and ``_attach_pendent_edge`` records it on each candidate.
#
# Growing at two vertices that an automorphism of the parent swaps gives
# isomorphic candidates, so ``_grown_key`` encodes one key per orbit and
# reads it back from the context's memo for the rest.  Every automorphism
# fixes the centre and keeps each node's AHU label, and two children of one
# node with equal labels root isomorphic subtrees that can be swapped, so two
# nodes share an orbit exactly when the labels on their paths from the centre
# agree.  ``_tree_context`` takes the parent's labels from the AHU pass that
# keyed it and numbers the orbits in the pass that fills depth and branch:
# the centre is 0 and a child interns the pair (its parent's orbit, its own
# label).  A pendent vertex takes its edge's orbit, since an edge's pendent
# vertices are interchangeable; an E node and a V node never share a number,
# as the first entries of their pairs come from nodes of the other type.  The
# keys need only that equal orbits give isomorphic candidates; that the
# numbers are exactly the automorphism orbits keeps the passes to one per
# orbit: two for a hyperstar parent, 1,612 for the verify-exhaustive
# benchmark's 3,719 candidates.
#
# A class's own context comes from the tree its key was encoded from, so no
# class is rebuilt from its edges or labelled twice.  The orbit memo maps
# each orbit to its key and to the grown tree that ``_encode_grown`` built
# and ``_ahu`` labelled: kinds, adjacency, levels and labels, and the
# parent's vertex-to-node and vertex-to-edge-node maps extended by the k - 1
# new vertices (new nodes are numbered after the parent's, so an edge's
# node need not be its index in the edge tuple).  The enumeration keeps a
# class's first candidate as its representative, and that candidate is the
# first of its orbit, so the memo holds exactly its tree; ``_kept_tree``
# copies it into tuples, which the garbage collector stops scanning, and
# ``_tree_context`` derives depth, branch, orbits and attachments from it
# when the class is grown.  Only the one-edge seed's context is built from
# its edges, by ``_growth_context``.


def canonical_key(h: Hypergraph) -> bytes:
    """Canonical byte-string: equal for two supertrees iff isomorphic.

    The reduced incidence tree is encoded from its centre, in time
    O(N log N) for N = m + (non-pendent vertices) and without recursion.
    Raises ValueError for a non-supertree, found without a separate
    connectivity test: first by the edge count m(k-1) = n-1, then by the
    centre peel stalling on a cycle (see the comment above).

    The key is computed once per object: it is stored on ``h`` as the
    attribute ``_key`` and later calls return those same bytes.  A
    ``Hypergraph`` never changes, so the stored key stays valid; it is not a
    dataclass field, so ``==``, hashing and ``repr`` ignore it, and it is
    freed with its object.  Errors are not stored: a non-supertree raises on
    every call.  ``rank_spectra`` reads the keys its enumeration stored:
    in the verify-exhaustive benchmark 386 of the 4,120 calls are such
    reads.

    An enumeration candidate carries the attribute ``_grow``, its parent's
    growth context and the vertex it grew at (``_attach_pendent_edge``).
    Its key is built from the parent's centred tree, not from the edge list,
    with the same bytes, once per automorphism orbit of the parent's
    vertices; the other candidates of an orbit read it from the context,
    whose memo also holds the tree each orbit's key was encoded from.
    ``_grow`` is then dropped, so a candidate keeps no parent's tree alive
    once keyed.  The verify-exhaustive benchmark's 3,719 candidates fall into
    1,612 orbits of their 271 parents, and each parent but the three
    one-edge seeds takes its context from the tree it was keyed from.  There
    a candidate's key, its share of the parent's context included, costs
    about 9 us, against 10.5 us when each parent's context was rebuilt from
    its edges, 19.5 us when every candidate was encoded from the parent's
    tree and 30 us from the edge list (medians of five runs, each the best
    of 15 passes, Python 3.11.7, shared 2-core machine).  Every other
    hypergraph is keyed from its edges.
    """
    key = h.__dict__.get("_key")
    if key is None:
        grow = h.__dict__.pop("_grow", None)
        key = _encode(h) if grow is None else _grown_key(h.k, *grow)
        object.__setattr__(h, "_key", key)
    return key


def _encode(h: Hypergraph) -> bytes:
    """``canonical_key`` without the stored copy: encode ``h`` afresh."""
    kind, adj, levels, _ = _centred_tree(h)
    return _ahu(h.k, kind, adj, levels)


def _centred_tree(h: Hypergraph):
    """The reduced incidence tree of ``h``, rooted at its centre.

    Returns ``(kind, adj, levels, node)``.  Nodes 0..m-1 are the edges in
    order and the non-pendent vertices follow; ``kind[x]`` is "E" or "V",
    ``adj[x]`` lists the neighbours of node x, ``levels[d]`` the nodes at
    depth d (``levels[0]`` is the centre alone), and ``node[v]`` is vertex
    v's node, -1 when v is pendent.  Raises ValueError for a non-supertree.
    """
    edges = h.edges
    m = len(edges)
    if m * (h.k - 1) != h.n - 1:
        raise ValueError("canonical_key requires a supertree")
    degree = [0] * h.n
    for e in edges:
        for v in e:
            degree[v] += 1
    node = [-1] * h.n
    size = m
    for v, d in enumerate(degree):
        if d != 1:
            node[v] = size
            size += 1
    adj: list[list[int]] = [[] for _ in range(size)]
    for i, e in enumerate(edges):
        for v in e:
            j = node[v]
            if j >= 0:
                adj[i].append(j)
                adj[j].append(i)
    degree = [len(a) for a in adj]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = size
    while left > 2:
        if not layer:
            raise ValueError("canonical_key requires a supertree")
        left -= len(layer)
        inner = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        layer = inner
    kind = "E" * m + "V" * (size - m)
    return kind, adj, _levels(adj, layer[0]), node


def _levels(adj: list[list[int]], root: int) -> list[list[int]]:
    """The nodes of the tree ``adj`` by depth from ``root``, one search."""
    seen = [False] * len(adj)
    seen[root] = True
    levels = []
    level = [root]
    while level:
        levels.append(level)
        below = []
        for v in level:
            for c in adj[v]:
                if not seen[c]:
                    seen[c] = True
                    below.append(c)
        level = below
    return levels


def _ahu(
    k: int, kind: str, adj: list, levels: list, label=None
) -> bytes:
    """The key bytes of the rooted tree given by its levels (see above).

    ``label``, when given, is a list of ``len(adj)`` strings that the pass
    fills with each non-root node's label; otherwise it uses its own.
    """
    if label is None:
        label = [""] * len(adj)
    get = label.__getitem__
    tables = []
    for level in reversed(levels[1:]):
        sigs = [
            kind[v] + ".".join(sorted(map(get, adj[v])))[1:] if len(adj[v]) > 1 else "E"
            for v in level
        ]
        table = sorted(set(sigs))
        if len(table) == 1:
            for v in level:
                label[v] = "0"
        else:
            rank = {s: str(i) for i, s in enumerate(table)}
            for v, s in zip(level, sigs):
                label[v] = rank[s]
        tables.append(" ".join(table))
    root = levels[0][0]
    tables.append(kind[root] + ".".join(sorted(map(get, adj[root]))))
    return f"{k}|{'/'.join(tables)}".encode("ascii")


def _growth_context(h: Hypergraph) -> tuple:
    """The growth context of ``h``, built from its edge list: ``h``'s centred
    tree, one more AHU pass for its labels, and the edge of each vertex.
    The enumeration builds only its one-edge seed's context this way; every
    other class's comes from ``_tree_context``.  Raises ValueError for a
    non-supertree.
    """
    kind, adj, levels, node = _centred_tree(h)
    label = [""] * len(adj)
    _ahu(h.k, kind, adj, levels, label)
    edge_of = [0] * h.n
    for i, e in enumerate(h.edges):
        for v in e:
            edge_of[v] = i
    return _tree_context((kind, adj, levels, label, node, edge_of))


def _tree_context(tree: tuple) -> tuple:
    """What keying a supertree plus one pendent edge needs, from its labelled
    centred tree ``(kind, adj, levels, label, node, edge_of)``: ``kind, adj,
    levels``, each node's depth and branch (the centre's neighbour it lies
    under; the centre is its own), ``node`` (each vertex's node, -1 when
    pendent), ``edge_of`` (the edge node that holds each pendent vertex),
    each vertex's attachment orbit, numbered from ``label``, and a memo from
    orbit to grown key and tree, empty here.
    """
    kind, adj, levels, label, node, edge_of = tree
    depth = [0] * len(adj)
    branch = list(range(len(adj)))
    orbit = [0] * len(adj)
    ids: dict[tuple[int, str], int] = {}
    for d, level in enumerate(levels):
        for x in level:
            depth[x] = d
    for level in levels[:-1]:
        for x in level:
            for c in adj[x]:
                if depth[c] > depth[x]:
                    orbit[c] = ids.setdefault((orbit[x], label[c]), len(ids) + 1)
                    if depth[x]:
                        branch[c] = branch[x]
    attach = [orbit[e if x < 0 else x] for x, e in zip(node, edge_of)]
    return kind, adj, levels, depth, branch, node, edge_of, attach, {}


def _grown_key(k: int, ctx: tuple, v: int) -> bytes:
    """The key of the parent of ``ctx`` plus a pendent edge at vertex ``v``:
    the one its attachment orbit already has, else ``_encode_grown``'s."""
    orbit, trees = ctx[7:]
    grown = trees.get(orbit[v])
    if grown is None:
        grown = trees[orbit[v]] = _encode_grown(k, ctx, v)
    return grown[0]


def _encode_grown(k: int, ctx: tuple, v: int) -> tuple:
    """The key of the parent of ``ctx`` plus a pendent edge at vertex ``v``,
    from the parent's centred tree (see the comment above), and the grown
    tree it encoded, labelled, as ``_tree_context`` takes it."""
    kind, adj, levels, depth, branch, node, edge_of, _, _ = ctx
    size = len(adj)
    adj = [*adj]
    x = node[v]
    node = [*node, *[-1] * (k - 1)]
    if x >= 0:
        # one E leaf under v's node, never below the deepest level
        leaf = size
        adj[x] = (*adj[x], leaf)
        adj.append((x,))
        kind += "E"
        levels = [*levels]
        d = depth[x] + 1
        levels[d] = (*levels[d], leaf)
    else:
        # v turns non-pendent: its V node under its edge e, the E leaf under that
        e = edge_of[v]
        leaf = size + 1
        adj[e] = (*adj[e], size)
        adj += ((e, leaf), (size,))
        kind += "VE"
        node[v] = size
        d = depth[e]
        if d + 2 < len(levels):
            levels = [*levels]
            levels[d + 1] = (*levels[d + 1], size)
            levels[d + 2] = (*levels[d + 2], leaf)
        else:
            # e is on the deepest level: the centre moves one step toward
            # it, to its branch, or to the new V node when the parent is a
            # single edge
            levels = _levels(adj, branch[e] if d else size)
    # the new edge's k - 1 new vertices are pendent, in its E leaf
    edge_of = [*edge_of, *[leaf] * (k - 1)]
    label = [""] * len(adj)
    return _ahu(k, kind, adj, levels, label), (kind, adj, levels, label, node, edge_of)


def _kept_tree(ctx: tuple, v: int) -> tuple:
    """The tree that the parent of ``ctx`` grown at ``v`` was encoded from,
    copied into tuples: a tree of ints and strs only, which the garbage
    collector stops scanning.  ``v`` must be the first vertex of its
    attachment orbit that was keyed, so the orbit's memo holds its own tree."""
    kind, adj, levels, label, node, edge_of = ctx[8][ctx[7][v]][1]
    return (
        kind,
        tuple(map(tuple, adj)),
        tuple(map(tuple, levels)),
        tuple(label),
        tuple(node),
        tuple(edge_of),
    )


def _attach_pendent_edge(h: Hypergraph, v: int, ctx: tuple) -> Hypergraph:
    """``h`` plus the pendent edge ``(v, n, ..., n+k-2)``, spliced into place.

    The enumeration's constructor: instead of revalidating and re-sorting
    every edge it inserts the new one into ``h.edges`` at ``bisect(h.edges,
    (v, n))``.  That is exact, equal to ``Hypergraph(k, n + k - 1, h.edges +
    (edge,))``: ``h`` is valid, ``0 <= v < n`` and the new vertices exceed
    every old one, so the tuple stays sorted, distinct, in range and k-uniform.
    ``v`` must be an int (a bool or float raises ValueError), since
    ``canonical_key`` trusts the edge built here.

    ``ctx`` must be ``h``'s growth context: ``_growth_context(h)``, or
    ``_tree_context`` of the tree ``h`` was keyed from, whose vertex maps
    follow ``h``'s numbering.  It is recorded with ``v`` on the
    result as the attribute ``_grow``, from which ``canonical_key`` keys the
    result without reading its edges; like ``_key`` it is no dataclass
    field, so ``==``, hashing, ``repr`` and ``to_interchange`` ignore it.
    """
    n, k, edges = h.n, h.k, h.edges
    if type(v) is not int:
        raise ValueError(f"vertex must be an int, got {v!r}")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} is outside [0, {n})")
    i = bisect(edges, (v, n))
    g = object.__new__(Hypergraph)
    object.__setattr__(g, "k", k)
    object.__setattr__(g, "n", n + k - 1)
    object.__setattr__(g, "edges", edges[:i] + ((v, *range(n, n + k - 1)),) + edges[i:])
    object.__setattr__(g, "_grow", (ctx, v))
    return g


# --- interchange format -----------------------------------------------------


def to_interchange(h: Hypergraph) -> dict:
    """Plain-dict form: {"k": int, "n": int, "edges": [[int, ...], ...]}."""
    return {"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]}


def from_interchange(obj: dict) -> Hypergraph:
    """Inverse of to_interchange; validates through the Hypergraph constructor.

    A missing key, or an edge list that is not a list of lists, raises
    ValueError ("malformed hypergraph object").  Everything else is the
    constructor's check: ``k``, ``n`` and every edge vertex must be ints
    (bools, floats and strings raise ValueError), every edge needs exactly
    ``k`` distinct vertices in ``[0, n)``, and no edge may repeat
    (MultipleEdgeError).  The edges are converted to tuples once; a file
    written by ``to_interchange`` is already canonical, so nothing is sorted,
    and a 3000-edge k = 5 object loads in under 3 ms (Python 3.11, shared
    2-core machine).
    """
    try:
        k, n = obj["k"], obj["n"]
        edges = tuple(map(tuple, obj["edges"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hypergraph object: {exc}") from exc
    return Hypergraph(k=k, n=n, edges=edges)
