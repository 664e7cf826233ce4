"""Independent oracles used by the tests.

Nothing here shares code with the package's own algorithms: eigenvalues come
from dense numpy decompositions, isomorphism from edge-bijection brute force
and from degree-guided backtracking, class counts from labeled enumeration
over all edge subsets, the tensor and the power method from loops written
one edge and one coordinate at a time, the certificate propagation from
a loop that visits every child vertex, pendent ones included, the
propagation plan from incidence lists for every vertex and a scan of every
edge's members, the canonical key from separate reduce, peel and encode
stages, the constructor's edge validation from a loop over each vertex
and then each sorted edge, and the automorphism orbits of vertices from
networkx's VF2 matcher on the vertex-edge incidence graph.  The
count-meeting non-supertrees and the ``edge_sets`` strategy feed the
rejection tests of every module that demands a supertree.
"""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import numpy as np
from hypothesis import strategies as hs
from networkx.algorithms.isomorphism import GraphMatcher

from supertrees import Hypergraph, MultipleEdgeError, NonConvergenceError, PrincipalPair
from supertrees.certificates import _Plan


def adjacency_matrix(t: Hypergraph) -> np.ndarray:
    a = np.zeros((t.n, t.n))
    for u, v in t.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def eig_tree_radius(t: Hypergraph) -> float:
    """Largest adjacency eigenvalue via dense symmetric decomposition."""
    return float(np.linalg.eigvalsh(adjacency_matrix(t))[-1])


def path_radius(n: int) -> float:
    """Closed form for the path on n vertices: 2 cos(pi / (n+1))."""
    return 2.0 * math.cos(math.pi / (n + 1))


def star_radius(n: int) -> float:
    """Closed form for the star on n vertices: sqrt(n-1)."""
    return math.sqrt(n - 1)


def random_tree(n: int, rng: random.Random) -> Hypergraph:
    """Random attachment: vertex i links to a uniform earlier vertex."""
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return Hypergraph(k=2, n=n, edges=edges)


def brute_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Brute force over all edge bijections, extending vertex maps edge by edge."""
    if h1.k != h2.k or h1.n != h2.n or h1.m != h2.m:
        return False
    k, m = h1.k, h1.m

    def assign(pos: int, sigma: tuple[int, ...], vmap: dict[int, int], imgs: set[int]) -> bool:
        if pos == m:
            return True
        e1 = h1.edges[pos]
        e2 = set(h2.edges[sigma[pos]])
        fixed = [v for v in e1 if v in vmap]
        if any(vmap[v] not in e2 for v in fixed):
            return False
        taken_in_e2 = {w for w in e2 if w in imgs}
        if taken_in_e2 != {vmap[v] for v in fixed}:
            return False
        free1 = [v for v in e1 if v not in vmap]
        free2 = [w for w in e2 if w not in imgs]
        for perm in itertools.permutations(free2):
            for a, b in zip(free1, perm):
                vmap[a] = b
                imgs.add(b)
            if assign(pos + 1, sigma, vmap, imgs):
                return True
            for a, b in zip(free1, perm):
                del vmap[a]
                imgs.discard(b)
        return False

    return any(assign(0, sigma, {}, set()) for sigma in itertools.permutations(range(m)))


#: Backtracking isomorphism is exhaustive; refuse inputs beyond this size.
ISO_VERTEX_LIMIT = 20


class SizeLimitError(Exception):
    """Input exceeds the size guard of the exhaustive isomorphism search."""


def _degrees(h: Hypergraph) -> list[int]:
    deg = [0] * h.n
    for e in h.edges:
        for v in e:
            deg[v] += 1
    return deg


def _edge_profiles(h: Hypergraph, degrees: list[int]) -> list[tuple[int, ...]]:
    return [tuple(sorted(degrees[v] for v in e)) for e in h.edges]


def _edge_search_order(h: Hypergraph) -> list[int]:
    """Edges ordered so each one shares a vertex with an earlier one when possible."""
    order: list[int] = []
    placed: set[int] = set()
    covered: set[int] = set()
    while len(order) < h.m:
        pick = None
        for i in range(h.m):
            if i in placed:
                continue
            if pick is None:
                pick = i
            if covered & set(h.edges[i]):
                pick = i
                break
        order.append(pick)
        placed.add(pick)
        covered |= set(h.edges[pick])
    return order


def are_isomorphic(h1: Hypergraph, h2: Hypergraph, max_vertices: int = ISO_VERTEX_LIMIT) -> bool:
    """Exhaustive backtracking test for a vertex bijection mapping edges onto edges.

    Prunes by vertex degrees and per-edge degree profiles.  Intended for
    small instances only; raises SizeLimitError beyond ``max_vertices``.
    The oracle for ``canonical_key``.
    """
    if h1.k != h2.k or h1.n != h2.n or h1.m != h2.m:
        return False
    if max(h1.n, h2.n) > max_vertices:
        raise SizeLimitError(
            f"isomorphism backtracking limited to {max_vertices} vertices, got {max(h1.n, h2.n)}"
        )
    d1 = _degrees(h1)
    d2 = _degrees(h2)
    if sorted(d1) != sorted(d2):
        return False
    prof1 = _edge_profiles(h1, d1)
    prof2 = _edge_profiles(h2, d2)
    if sorted(prof1) != sorted(prof2):
        return False

    order = _edge_search_order(h1)
    vmap: dict[int, int] = {}
    images: set[int] = set()
    used: set[int] = set()

    def extend(pos: int) -> bool:
        if pos == h1.m:
            return True
        e1 = h1.edges[order[pos]]
        p1 = prof1[order[pos]]
        mapped_images = sorted(vmap[v] for v in e1 if v in vmap)
        free1 = [v for v in e1 if v not in vmap]
        for j, e2 in enumerate(h2.edges):
            if j in used or prof2[j] != p1:
                continue
            hit = sorted(w for w in e2 if w in images)
            if hit != mapped_images:
                continue
            free2 = [w for w in e2 if w not in images]
            for perm in itertools.permutations(free2):
                if any(d1[a] != d2[b] for a, b in zip(free1, perm)):
                    continue
                for a, b in zip(free1, perm):
                    vmap[a] = b
                    images.add(b)
                used.add(j)
                if extend(pos + 1):
                    return True
                used.discard(j)
                for a, b in zip(free1, perm):
                    del vmap[a]
                    images.discard(b)
        return False

    return extend(0)


def _edges_connected(masks: list[int]) -> bool:
    reached = masks[0]
    todo = list(range(1, len(masks)))
    changed = True
    while changed and todo:
        changed = False
        rest = []
        for i in todo:
            if masks[i] & reached:
                reached |= masks[i]
                changed = True
            else:
                rest.append(i)
        todo = rest
    return not todo


def labeled_supertrees(m: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every labeled supertree on exactly n = m(k-1)+1 vertices, as edge tuples.

    Enumerates all m-subsets of k-sets, keeping those that cover all n
    vertices and are connected (which, at this vertex count, is exactly the
    supertree condition).
    """
    n = m * (k - 1) + 1
    cands = list(itertools.combinations(range(n), k))
    masks = [sum(1 << v for v in e) for e in cands]
    full = (1 << n) - 1
    found = []
    for combo in itertools.combinations(range(len(cands)), m):
        u = 0
        for i in combo:
            u |= masks[i]
        if u != full:
            continue
        if _edges_connected([masks[i] for i in combo]):
            found.append(tuple(cands[i] for i in combo))
    return found


def count_classes_brute(m: int, k: int, iso=brute_isomorphic) -> int:
    """Number of isomorphism classes among all labeled supertrees.

    Instances are bucketed by degree invariants first, then deduplicated with
    the supplied isomorphism test inside each bucket.
    """
    n = m * (k - 1) + 1
    buckets: dict[tuple, list[Hypergraph]] = {}
    for edges in labeled_supertrees(m, k):
        deg = [0] * n
        for e in edges:
            for v in e:
                deg[v] += 1
        profiles = tuple(sorted(tuple(sorted(deg[v] for v in e)) for e in edges))
        key = (tuple(sorted(deg)), profiles)
        h = Hypergraph(k=k, n=n, edges=edges)
        reps = buckets.setdefault(key, [])
        if not any(iso(h, r) for r in reps):
            reps.append(h)
    return sum(len(reps) for reps in buckets.values())


def _key_reduced_tree(h: Hypergraph) -> tuple[list[str], list[list[int]]]:
    """Typed adjacency of the reduced incidence graph (edges + non-pendent)."""
    degree = [0] * h.n
    for e in h.edges:
        for v in e:
            degree[v] += 1
    node = [-1] * h.n
    size = h.m
    for v, d in enumerate(degree):
        if d != 1:
            node[v] = size
            size += 1
    types = ["E"] * h.m + ["V"] * (size - h.m)
    adj: list[list[int]] = [[] for _ in types]
    for i, e in enumerate(h.edges):
        for v in e:
            j = node[v]
            if j >= 0:
                adj[i].append(j)
                adj[j].append(i)
    return types, adj


def _key_centres(adj: list[list[int]]) -> list[int]:
    """The one or two nodes left after peeling leaves layer by layer, or an
    empty list when a layer is empty while more than two nodes are left."""
    degree = [len(a) for a in adj]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = len(adj)
    while left > 2:
        if not layer:
            return []
        left -= len(layer)
        inner = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        layer = inner
    return layer


def _key_centred_code(root: int, types: list[str], adj: list[list[int]]) -> str:
    """AHU encoding of the tree rooted at ``root``, up its BFS levels."""
    parent = [-1] * len(adj)
    parent[root] = root
    levels = []
    level = [root]
    while level:
        levels.append(level)
        below = []
        for v in level:
            for c in adj[v]:
                if parent[c] < 0:
                    parent[c] = v
                    below.append(c)
        level = below
    label = [""] * len(adj)
    tables = []
    for level in reversed(levels):
        sigs = [
            types[v] + ".".join(sorted([label[c] for c in adj[v] if c != parent[v]]))
            for v in level
        ]
        table = sorted(set(sigs))
        rank = {s: str(i) for i, s in enumerate(table)}
        for v, s in zip(level, sigs):
            label[v] = rank[s]
        tables.append(" ".join(table))
    return "/".join(tables)


def reference_canonical_key(h: Hypergraph) -> bytes:
    """The AHU key of ``canonical_key`` from three separate stages: a typed
    reduced incidence graph, its centres by a leaf peel, and the encoding
    rooted at each centre, the smaller one kept.  Children are found through
    parent pointers and every signature is sorted and joined, leaves too.
    ``canonical_key`` must match it byte for byte.  ``h`` must be a supertree."""
    if h.m * (h.k - 1) != h.n - 1:
        raise ValueError("canonical_key requires a supertree")
    types, adj = _key_reduced_tree(h)
    centres = _key_centres(adj)
    if not centres:
        raise ValueError("canonical_key requires a supertree")
    best = min(_key_centred_code(c, types, adj) for c in centres)
    return f"{h.k}|{best}".encode("ascii")


def vertex_orbits(h: Hypergraph) -> list[list[int]]:
    """The orbits of the automorphism group of ``h`` on its vertices, each
    sorted, in order of their least vertex.

    Vertices u and w share an orbit when networkx's VF2 matcher finds an
    isomorphism of the vertex-edge incidence graph onto itself that keeps
    every node's type and sends u to w; u in the first graph and w in the
    second are the only nodes of their type "marked".  Each marked node is
    added first, so the matcher starts by pairing the two and grows its
    mapping outward from them.  One matcher run per pair tried, so for
    small hypergraphs only.
    """

    def incidence(marked: int) -> nx.Graph:
        g = nx.Graph()
        g.add_node(("v", marked), type="marked")
        for v in range(h.n):
            if v != marked:
                g.add_node(("v", v), type="vertex")
        for i, e in enumerate(h.edges):
            g.add_node(("e", i), type="edge")
            g.add_edges_from((("e", i), ("v", v)) for v in e)
        return g

    def same_type(a: dict, b: dict) -> bool:
        return a["type"] == b["type"]

    graphs = [incidence(v) for v in range(h.n)]
    orbits = []
    left = list(range(h.n))
    while left:
        u, *rest = left
        matcher = (GraphMatcher(graphs[u], graphs[w], node_match=same_type) for w in rest)
        orbit = [u] + [w for w, gm in zip(rest, matcher) if gm.is_isomorphic()]
        orbits.append(orbit)
        left = [w for w in rest if w not in orbit]
    return orbits


def reference_edges(k: int, n: int, edges) -> tuple[tuple[int, ...], ...]:
    """The edge tuple ``Hypergraph(k=k, n=n, edges=edges)`` stores, or the
    exception it raises, by the earlier per-vertex and per-edge loops: every
    vertex's type in input order, then a sort, then each sorted edge's
    distinct count, range and repetition.  It counts only distinct members,
    so it accepts an edge that repeats a vertex but has ``k`` distinct ones,
    such as (0, 1, 1) at k = 2; the constructor rejects that edge, the one
    intended difference.  ``edges`` is iterated twice."""
    for e in edges:
        for v in e:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"edge vertex must be an integer, got {v!r}")
    norm = tuple(sorted(tuple(sorted(e)) for e in edges))
    if not norm:
        raise ValueError("hypergraph must have at least one edge")
    seen = set()
    for e in norm:
        if len(set(e)) != k:
            raise ValueError(f"edge {e} must have exactly {k} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} has vertices outside [0, {n})")
        if e in seen:
            raise MultipleEdgeError(f"duplicate edge {e}")
        seen.add(e)
    return norm


def reference_tensor_apply(h: Hypergraph, x) -> list[float]:
    """The adjacency tensor by a per-edge loop: prefix and suffix products
    within each edge, each leave-one-out product added to its vertex in
    edge order.  ``tensor_apply`` must match it bit for bit."""
    out = [0.0] * h.n
    for e in h.edges:
        vals = [x[v] for v in e]
        kk = len(vals)
        pre = [1.0] * (kk + 1)
        for i in range(kk):
            pre[i + 1] = pre[i] * vals[i]
        suf = [1.0] * (kk + 1)
        for i in range(kk - 1, -1, -1):
            suf[i] = suf[i + 1] * vals[i]
        for i, v in enumerate(e):
            out[v] += pre[i] * suf[i + 1]
    return out


def reference_power_iteration(h: Hypergraph, tol: float = 1e-10, max_iter: int = 100_000) -> PrincipalPair:
    """The power method of ``power_iteration``, one coordinate at a time on
    ``reference_tensor_apply``: the step is ``y = Ax + x^[k-1]`` at k = 2
    and ``y = Ax`` at k >= 3, where the tensor of a connected hypergraph is
    weakly primitive, so for connected input it converges.  Past
    ``max_iter`` it raises NonConvergenceError with the last bracket."""
    k = h.k
    km1 = k - 1
    x = [h.n ** (-1.0 / k)] * h.n
    for it in range(1, max_iter + 1):
        ax = reference_tensor_apply(h, x)
        pw = [xi**km1 for xi in x]
        ratios = [a / p for a, p in zip(ax, pw)]
        lam_lo = min(ratios)
        lam_hi = max(ratios)
        if lam_hi - lam_lo <= tol * max(1.0, lam_lo):
            rho = 0.5 * (lam_lo + lam_hi)
            residual = max(abs(a - rho * p) for a, p in zip(ax, pw))
            return PrincipalPair(rho=rho, x=tuple(x), residual=residual, iterations=it)
        y = [a + p for a, p in zip(ax, pw)] if k == 2 else ax
        x = [yi ** (1.0 / km1) for yi in y]
        norm = sum(xi**k for xi in x) ** (1.0 / k)
        x = [xi / norm for xi in x]
    raise NonConvergenceError(
        f"reference power iteration did not converge in {max_iter} steps", bracket=(lam_lo, lam_hi)
    )


def reference_propagate(h: Hypergraph, alpha: float) -> tuple[float, dict[tuple[int, int], float]]:
    """The leaf-to-root propagation over every child vertex, pendent ones
    included, rooted at the first vertex of maximum degree and breadth first
    from it.  Returns the root's weight sum minus 1 (+inf once a forced
    weight is not positive) and the weights forced so far.  ``h`` must be a
    supertree.  ``_propagate`` and ``propagate_certificate`` must match it
    bit for bit."""
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(h.edges):
        for v in e:
            inc[v].append(i)
    degrees = [len(ix) for ix in inc]
    root = degrees.index(max(degrees))
    used = [False] * h.m
    order = [root]
    steps = []
    for v in order:
        for i in inc[v]:
            if not used[i]:
                used[i] = True
                children = [w for w in h.edges[i] if w != v]
                steps.append((i, v, children))
                order.extend(children)
    carried = [0.0] * h.n
    entries: dict[tuple[int, int], float] = {}
    for i, p, children in reversed(steps):
        prod = 1.0
        for v in children:
            w = 1.0 - carried[v]
            if w <= 0.0:
                return math.inf, entries
            entries[(v, i)] = w
            prod *= w
        bp = alpha / prod
        entries[(p, i)] = bp
        carried[p] += bp
    return carried[root] - 1.0, entries


def reference_plan(h: Hypergraph, caller: str) -> _Plan:
    """The propagation plan ``certificates._plan`` must return, built the
    plain way: an incidence list for every vertex, pendent ones included,
    and a breadth-first search that scans each edge's members for its
    non-pendent children.  The degree product bound comes from a separate
    pass.  Raises ValueError naming ``caller`` unless ``h`` is a supertree."""
    if h.m * (h.k - 1) != h.n - 1:
        raise ValueError(f"{caller} requires a supertree")
    edges = h.edges
    degrees = [0] * h.n
    for e in edges:
        for v in e:
            degrees[v] += 1
    max_degree = max(degrees)
    root = degrees.index(max_degree)
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(edges):
        for v in e:
            if degrees[v] > 1:
                inc[v].append(i)
    if max_degree == 1:  # the one-edge tree, rooted at a pendent vertex
        inc[root].append(0)
    used = [False] * h.m
    order = [root]
    steps = []
    for v in order:
        for i in inc[v]:
            if not used[i]:
                used[i] = True
                children = [w for w in edges[i] if w != v and degrees[w] > 1]
                if not children:
                    steps.append((i, v, None))
                elif len(children) == 1:
                    steps.append((i, v, children[0]))
                    order.append(children[0])
                else:
                    steps.append((i, v, tuple(children)))
                    order.extend(children)
    if len(steps) != h.m or len(set(order)) != len(order):
        raise ValueError(f"{caller} requires a supertree")
    steps.reverse()
    max_edge_product = max(math.prod(degrees[v] for v in e) for e in edges)
    return _Plan(
        n=h.n,
        root=root,
        max_degree=max_degree,
        max_edge_product=max_edge_product,
        steps=tuple(steps),
    )


# Each meets the supertree edge count m(k-1) = n-1, so only a later check
# (a stalled centre peel, a revisited or unreached vertex) can reject it.
COUNT_ONLY_NON_SUPERTREES = {
    "triangle+isolated,k=2": Hypergraph(k=2, n=4, edges=((0, 1), (1, 2), (0, 2))),
    "berge-3-cycle+isolated,k=3": Hypergraph(
        k=3, n=7, edges=((0, 1, 2), (2, 3, 4), (4, 5, 0))
    ),
    "triangle+separate-edge,k=2": Hypergraph(k=2, n=5, edges=((0, 1), (1, 2), (0, 2), (3, 4))),
    "berge-2-cycle+separate-edge,k=3": Hypergraph(
        k=3, n=7, edges=((0, 1, 2), (0, 1, 3), (4, 5, 6))
    ),
    # the cycle lies away from the first vertex of maximum degree, vertex 0
    "star+separate-triangle,k=2": Hypergraph(
        k=2, n=7, edges=((0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6))
    ),
    "hyperstar+separate-berge-2-cycle,k=3": Hypergraph(
        k=3, n=11, edges=((0, 1, 2), (0, 3, 4), (0, 5, 6), (7, 8, 9), (7, 8, 10))
    ),
}


@hs.composite
def edge_sets(draw):
    """m distinct k-edges on about m(k-1)+1 vertices, so most meet the
    supertree count; many are cyclic, disconnected or have isolated vertices."""
    k = draw(hs.integers(2, 4))
    m = draw(hs.integers(1, 6))
    n = m * (k - 1) + 1
    edge = hs.frozensets(hs.integers(0, n - 1), min_size=k, max_size=k)
    edges = draw(hs.lists(edge, min_size=m, max_size=m, unique=True))
    top = max(max(e) for e in edges)
    n = max(n + draw(hs.sampled_from((-1, 0, 0, 0, 1))), top + 1)
    return Hypergraph(k=k, n=n, edges=tuple(tuple(e) for e in edges))


#: How ``edge_inputs`` may spoil an edge set; "extend" appends a repeat of a
#: vertex already in the edge, the input the two validations treat apart.
EDGE_MUTATIONS = (
    "shuffle-edge", "shuffle-edges", "duplicate", "negative", "too-large",
    "bool", "float", "str", "none", "repeat", "extend", "drop",
)


@hs.composite
def edge_inputs(draw):
    """(k, n, edges) for ``Hypergraph``: an ``edge_sets`` draw with up to
    three ``EDGE_MUTATIONS`` applied, given as tuples or as lists."""
    h = draw(edge_sets())
    n = h.n
    edges = [list(e) for e in h.edges]
    for kind in draw(hs.lists(hs.sampled_from(EDGE_MUTATIONS), max_size=3)):
        i = draw(hs.integers(0, len(edges) - 1))
        e = edges[i]
        j = draw(hs.integers(0, len(e) - 1))
        if kind == "shuffle-edge":
            edges[i] = draw(hs.permutations(e))
        elif kind == "shuffle-edges":
            edges = draw(hs.permutations(edges))
        elif kind == "duplicate":
            edges.append(draw(hs.permutations(e)))
        elif kind == "negative":
            e[j] = draw(hs.integers(-3, -1))
        elif kind == "too-large":
            e[j] = draw(hs.integers(n, n + 2))
        elif kind == "bool":
            e[j] = draw(hs.booleans())
        elif kind == "float":
            e[j] = float(e[j]) if type(e[j]) is int else 1.5
        elif kind == "str":
            e[j] = str(e[j])
        elif kind == "none":
            e[j] = None
        elif kind == "repeat":
            e[j] = e[j - 1]
        elif kind == "extend":
            e.append(e[j])
        elif len(e) > 1:  # drop
            del e[j]
    if draw(hs.booleans()):
        return h.k, n, edges
    return h.k, n, tuple(map(tuple, edges))
