"""Builders for the named supertree families and the edge-moving operation.

A tree is a 2-uniform supertree: ``star``, ``path``, ``double_star`` and
``f_tree`` return ``Hypergraph(k=2, ...)``, and ``tree_power`` lifts such a
tree to any k.

Every size argument of a named family must be an int: bools and floats
raise ValueError rather than being coerced.
"""

from __future__ import annotations

import warnings
from itertools import repeat

from .errors import DanglingVertexWarning, MultipleEdgeError
from .hypergraph import Hypergraph, _strict_int, is_supertree, vertex_stats


def star(n: int) -> Hypergraph:
    """Star on n vertices, center 0."""
    if _strict_int(n, "n") < 2:
        raise ValueError("star needs n >= 2")
    return Hypergraph(k=2, n=n, edges=tuple((0, v) for v in range(1, n)))


def path(n: int) -> Hypergraph:
    """Path on n vertices, 0-1-...-(n-1)."""
    if _strict_int(n, "n") < 2:
        raise ValueError("path needs n >= 2")
    return Hypergraph(k=2, n=n, edges=tuple((v, v + 1) for v in range(n - 1)))


def double_star(a: int, b: int) -> Hypergraph:
    """Tree on a+b+2 vertices: a central edge (0,1) with a pendants at 0 and b at 1."""
    if _strict_int(a, "a") < 1 or _strict_int(b, "b") < 1:
        raise ValueError("double star needs a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Hypergraph(k=2, n=a + b + 2, edges=tuple(edges))


def f_tree(n: int) -> Hypergraph:
    """Tree on n vertices: two paths of length 2 plus n-5 pendants, all at vertex 0.

    For n = 5 this degenerates to the path on 5 vertices.
    """
    if _strict_int(n, "n") < 5:
        raise ValueError("f_tree needs n >= 5")
    edges = [(0, 1), (1, 2), (0, 3), (3, 4)]
    edges += [(0, 5 + i) for i in range(n - 5)]
    return Hypergraph(k=2, n=n, edges=tuple(edges))


def tree_power(t: Hypergraph, k: int) -> Hypergraph:
    """kth power of a tree, given as a 2-uniform supertree: each edge gains
    k-2 fresh vertices.

    Fresh vertices are numbered after the original ones, edge by edge in the
    stored (sorted) edge order, so the output is deterministic.  For k = 2
    the tree itself is returned.  Raises ValueError unless ``t`` is a
    2-uniform supertree, that is a tree.
    """
    if _strict_int(k, "k") < 2:
        raise ValueError("tree_power needs k >= 2")
    if t.k != 2 or not is_supertree(t):
        raise ValueError(
            f"tree_power needs a tree (a 2-uniform supertree), got k={t.k}, n={t.n}, m={t.m}"
        )
    if k == 2:
        return t
    edges = []
    nxt = t.n
    for e in t.edges:
        edges.append(e + tuple(range(nxt, nxt + k - 2)))
        nxt += k - 2
    return Hypergraph(k=k, n=nxt, edges=tuple(edges))


def hyperstar(m: int, k: int) -> Hypergraph:
    """Supertree with m edges all sharing the single vertex 0.

    Numbered as ``tree_power(star(m + 1), k)``: edge v (1 <= v <= m) is
    (0, v) followed by its k-2 fresh vertices, the fresh ones after vertex
    m in edge order.  Built column by column, already canonical.
    """
    if _strict_int(m, "m") < 1:
        raise ValueError("hyperstar needs m >= 1")
    if _strict_int(k, "k") < 2:
        raise ValueError("hyperstar needs k >= 2")
    n = m * (k - 1) + 1
    fresh = (range(m + 1 + j, n, k - 2) for j in range(k - 2))
    return Hypergraph(k=k, n=n, edges=tuple(zip(repeat(0, m), range(1, m + 1), *fresh)))


def broom(t1: int, t2: int, t3: int, k: int) -> Hypergraph:
    """Supertree with one central edge whose vertices 0, 1, 2 carry t1, t2, t3
    pendent edges.

    The three designated vertices get the lowest ids and end up with degrees
    t1+1, t2+1, t3+1.  Requires 1 <= t1 <= t2 <= t3 and k >= 3 (a 2-edge
    cannot hold three distinct vertices).
    """
    for name, value in (("t1", t1), ("t2", t2), ("t3", t3)):
        _strict_int(value, name)
    if _strict_int(k, "k") < 3:
        raise ValueError("broom needs k >= 3: a 2-edge cannot contain three branch vertices")
    if not (1 <= t1 <= t2 <= t3):
        raise ValueError(f"broom needs 1 <= t1 <= t2 <= t3, got ({t1}, {t2}, {t3})")
    edges = [tuple(range(k))]  # central edge: 0, 1, 2 plus k-3 fillers
    nxt = k
    for u, t in ((0, t1), (1, t2), (2, t3)):
        for _ in range(t):
            edges.append((u,) + tuple(range(nxt, nxt + k - 1)))
            nxt += k - 1
    return Hypergraph(k=k, n=nxt, edges=tuple(edges))


def move_edges(g: Hypergraph, u: int, moves: list[tuple[int, int]]) -> Hypergraph:
    """Replace each edge e_i in ``moves`` by (e_i minus v_i) plus u.

    ``moves`` is a list of (edge index, vertex) pairs with distinct edge
    indices, u outside every moved edge and v_i inside its edge; u, each
    index and each v_i must be ints (a bool or float raises ValueError).  An
    empty move list returns g unchanged.  Raises MultipleEdgeError when two
    resulting edges coincide; warns (DanglingVertexWarning) when a v_i loses
    its last edge.
    """
    if not moves:
        return g
    if not (0 <= _strict_int(u, "target vertex") < g.n):
        raise ValueError(f"target vertex {u} out of range")
    seen_idx = set()
    new_edges = list(g.edges)
    for idx, v in moves:
        _strict_int(v, "moved vertex")
        if _strict_int(idx, "edge index") in seen_idx:
            raise ValueError(f"edge index {idx} moved twice")
        seen_idx.add(idx)
        if not (0 <= idx < g.m):
            raise ValueError(f"edge index {idx} out of range")
        e = g.edges[idx]
        if u in e:
            raise ValueError(f"target vertex {u} already in edge {e}")
        if v not in e:
            raise ValueError(f"vertex {v} not in edge {e}")
        new_edges[idx] = tuple(sorted(set(e) - {v} | {u}))
    if len(set(new_edges)) != len(new_edges):
        raise MultipleEdgeError("moving edges would create a multiple edge")
    moved = Hypergraph(k=g.k, n=g.n, edges=tuple(new_edges))
    degrees = vertex_stats(moved).degrees
    dangling = sorted({v for _, v in moves if degrees[v] == 0})
    if dangling:
        warnings.warn(
            f"vertices {dangling} are now isolated", DanglingVertexWarning, stacklevel=2
        )
    return moved
