"""Independent oracles used by the tests.

Nothing here shares code with the package's own algorithms: eigenvalues come
from dense numpy decompositions, isomorphism from edge-bijection brute force
and from degree-guided backtracking, class counts from labeled enumeration
over all edge subsets, the tensor and the power method from loops written
one edge and one coordinate at a time, and the certificate propagation from
a loop that visits every child vertex, pendent ones included.  The
count-meeting non-supertrees and the ``edge_sets`` strategy feed the
rejection tests of every module that demands a supertree.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
from hypothesis import strategies as hs

from supertrees import Hypergraph, OrdinaryTree, PrincipalPair


def adjacency_matrix(t: OrdinaryTree) -> np.ndarray:
    a = np.zeros((t.n, t.n))
    for u, v in t.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def eig_tree_radius(t: OrdinaryTree) -> float:
    """Largest adjacency eigenvalue via dense symmetric decomposition."""
    return float(np.linalg.eigvalsh(adjacency_matrix(t))[-1])


def path_radius(n: int) -> float:
    """Closed form for the path on n vertices: 2 cos(pi / (n+1))."""
    return 2.0 * math.cos(math.pi / (n + 1))


def star_radius(n: int) -> float:
    """Closed form for the star on n vertices: sqrt(n-1)."""
    return math.sqrt(n - 1)


def random_tree(n: int, rng: random.Random) -> OrdinaryTree:
    """Random attachment: vertex i links to a uniform earlier vertex."""
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return OrdinaryTree(n=n, edges=edges)


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
    weakly primitive, so for connected input it converges."""
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
    raise AssertionError(f"reference power iteration did not converge in {max_iter} steps")


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
