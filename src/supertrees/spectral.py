"""Spectral radius computation for k-uniform hypergraphs.

The adjacency tensor of a k-uniform hypergraph acts on a vector by

    (Ax)_i = sum over edges e containing i of the product of x_j, j in e, j != i,

and the spectral radius is the largest eigenvalue of ``Ax = rho * x^[k-1]``.
For a connected hypergraph it carries a unique positive eigenvector with
k-norm 1 (the principal pair).  This module computes it by a shifted power
method with Collatz-Wielandt bracketing, plus closed forms for the families
whose radii reduce to quartic equations.

One kernel applies the tensor.  Its plan is built once per hypergraph: the
k vertex columns of the edge list, each vertex's leave-one-out product
slots in edge order, and where each vertex's value lands.  Applying it is a
few C-level ``map`` passes per column instead of Python bytecode per edge,
yet it performs the multiplications and additions of a per-edge
prefix/suffix loop in the same order, so every power iterate is bitwise
equal to that loop's (``tests/oracles.py`` keeps the loop as the reference;
``tensor_apply`` states the one exception, the sign of a zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, mul, sub, truediv

from .constructors import OrdinaryTree, tree_power
from .errors import DisconnectedInputError, NonConvergenceError
from .hypergraph import Hypergraph, is_connected

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

#: Radius comparisons downstream treat gaps below this as ties (10x solver tol
#: with margin, so numerical noise never masquerades as a genuine tie).
TIE_TOL = 1e-7


@dataclass(frozen=True)
class PrincipalPair:
    """Converged spectral radius estimate with its positive eigenvector.

    The eigenvector has k-norm 1 and ``residual`` is the max-norm defect of
    the eigenequation at (rho, x).
    """

    rho: float
    x: tuple[float, ...]
    residual: float
    iterations: int


@dataclass(frozen=True)
class _TensorPlan:
    """The tensor of one hypergraph, laid out for ``_apply``.

    ``columns[i]`` lists the vertex at position i of each edge, in edge
    order.  Term slot ``i*m + e`` holds the product of edge e's coordinates
    other than the one at position i.  Each degree-2 vertex adds its slots
    ``firsts[j] + seconds[j]``; each vertex of degree 0 or at least 3 adds
    its slots ``others[j]`` from 0.0, in edge order.  ``index[v]`` is where
    vertex v's value sits in the term slots followed by those two groups of
    sums; for a degree-1 vertex it is the vertex's one term slot.
    """

    columns: tuple[tuple[int, ...], ...]
    firsts: tuple[int, ...]
    seconds: tuple[int, ...]
    others: tuple[tuple[int, ...], ...]
    index: tuple[int, ...]


def _tensor_plan(h: Hypergraph) -> _TensorPlan:
    m = h.m
    slots: list[list[int]] = [[] for _ in range(h.n)]
    for e, edge in enumerate(h.edges):
        for i, v in enumerate(edge):
            slots[v].append(i * m + e)
    index = [s[0] if len(s) == 1 else -1 for s in slots]
    pairs = [v for v, s in enumerate(slots) if len(s) == 2]
    others = [v for v, s in enumerate(slots) if len(s) not in (1, 2)]
    for j, v in enumerate(pairs + others, start=h.k * m):
        index[v] = j
    return _TensorPlan(
        columns=tuple(zip(*h.edges)),
        firsts=tuple(slots[v][0] for v in pairs),
        seconds=tuple(slots[v][1] for v in pairs),
        others=tuple(tuple(slots[v]) for v in others),
        index=tuple(index),
    )


def _apply(plan: _TensorPlan, x: list[float] | tuple[float, ...]) -> list[float]:
    cols = [list(map(x.__getitem__, c)) for c in plan.columns]
    # prefixes[i] = x_0 * ... * x_i and suffixes[i] = x_(i+1) * ... * x_(k-1)
    # over each edge, multiplied in the order of a prefix/suffix sweep.
    prefixes = [cols[0]]
    for col in cols[1:-1]:
        prefixes.append(list(map(mul, prefixes[-1], col)))
    suffixes = [cols[-1]]
    for col in reversed(cols[1:-1]):
        suffixes.append(list(map(mul, suffixes[-1], col)))
    suffixes.reverse()
    terms = suffixes[0]
    for pre, suf in zip(prefixes, suffixes[1:]):
        terms += map(mul, pre, suf)
    terms += prefixes[-1]
    get = terms.__getitem__
    terms += map(add, map(get, plan.firsts), map(get, plan.seconds))
    terms += [reduce(add, map(get, s), 0.0) for s in plan.others]
    return list(map(get, plan.index))


def tensor_apply(
    h: Hypergraph, x: list[float] | tuple[float, ...], *, plan: _TensorPlan | None = None
) -> list[float]:
    """Apply the adjacency tensor: component i sums, over edges containing i,
    the product of the other k-1 coordinates.

    Prefix and suffix products are formed column by column over the k
    vertex columns of the edge list, so zero coordinates are handled
    exactly, and each vertex adds its products in edge order, left to right
    (not by ``sum``, which compensates rounding from Python 3.12 on).  Every
    product and sum is the one a per-edge loop with ``out[v] += pre[i] *
    suf[i + 1]`` forms, so the result is bitwise that loop's.  The one
    exception is the sign of a zero: a vertex with one or two products skips
    the loop's leading ``0.0 +``, so where all its products are -0.0 (which
    needs a negative or -0.0 coordinate) it returns -0.0 for the loop's 0.0.

    ``plan`` is ``_tensor_plan(h)``, for callers that apply the tensor of one
    hypergraph many times; without it the plan is built for this call.
    """
    if len(x) != h.n:
        raise ValueError(f"vector length {len(x)} does not match n = {h.n}")
    return _apply(_tensor_plan(h) if plan is None else plan, x)


def eigen_residual(h: Hypergraph, rho: float, x: list[float] | tuple[float, ...]) -> float:
    """Max-norm defect of the eigenequation: max_i |(Ax)_i - rho * x_i^(k-1)|."""
    ax = tensor_apply(h, x)
    km1 = h.k - 1
    return max(abs(a - rho * xi**km1) for a, xi in zip(ax, x))


def power_iteration(
    h: Hypergraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PrincipalPair:
    """Shifted power method for the spectral radius of a connected hypergraph.

    Starting from the uniform positive vector, each step computes
    ``y = Ax + x^[k-1]`` (the unit shift makes the iteration converge for any
    connected input, bipartite 2-graphs included) and renormalizes
    ``x = y^[1/(k-1)]`` to k-norm 1.  For positive x the Collatz-Wielandt
    ratios ``(Ax)_i / x_i^(k-1)`` bracket the true radius at every iterate;
    iteration stops once the bracket width drops below ``tol`` relative to
    the bracket, and the returned rho is the bracket midpoint.

    The tensor plan is built once per call and every step applies it through
    ``tensor_apply``.  The powers, ratios, shift, root, k-norm and rescale
    are each one ``map`` pass over the coordinates, with the formulas
    ``x_i**(k-1)``, ``a / p``, ``a + p``, ``y_i**(1/(k-1))``,
    ``sum(x_i**k)**(1/k)`` and ``x_i / norm`` in vertex order, so every
    iterate, and the returned pair, is bitwise that of the same loop written
    element by element.

    Raises DisconnectedInputError for disconnected input and
    NonConvergenceError (carrying the final bracket) past ``max_iter``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not is_connected(h):
        raise DisconnectedInputError("power iteration requires a connected hypergraph")
    plan = _tensor_plan(h)
    k = h.k
    km1 = k - 1
    x = [h.n ** (-1.0 / k)] * h.n
    lam_lo = lam_hi = 0.0
    for it in range(1, max_iter + 1):
        ax = tensor_apply(h, x, plan=plan)
        pw = list(map(pow, x, repeat(km1)))
        ratios = list(map(truediv, ax, pw))
        lam_lo = min(ratios)
        lam_hi = max(ratios)
        if lam_hi - lam_lo <= tol * max(1.0, lam_lo):
            rho = 0.5 * (lam_lo + lam_hi)
            residual = max(map(abs, map(sub, ax, map(mul, repeat(rho), pw))))
            return PrincipalPair(rho=rho, x=tuple(x), residual=residual, iterations=it)
        x = list(map(pow, map(add, ax, pw), repeat(1.0 / km1)))
        norm = sum(map(pow, x, repeat(k))) ** (1.0 / k)
        x = list(map(truediv, x, repeat(norm)))
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations; bracket width {lam_hi - lam_lo:.3e}",
        bracket=(lam_lo, lam_hi),
    )


def graph_spectral_radius(t: OrdinaryTree, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest adjacency eigenvalue of an ordinary tree (the k = 2 code path)."""
    return power_iteration(tree_power(t, 2), tol=tol, max_iter=max_iter).rho


def power_formula_radius(
    t: OrdinaryTree, k: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> float:
    """Radius of the kth power of a tree: the tree's radius raised to 2/k.

    The tree's radius comes from power iteration under ``tol`` and ``max_iter``.
    """
    if k < 2:
        raise ValueError("power_formula_radius needs k >= 2")
    return graph_spectral_radius(t, tol=tol, max_iter=max_iter) ** (2.0 / k)


def double_star_power_radius(m: int, k: int) -> float:
    """Closed-form radius of the kth power of the double star with 2 and m-3
    pendants (m edges total).

    The base radius solves rho^4 - m*rho^2 + 2(m-3) = 0; the largest root
    satisfies rho > sqrt(m-2) and the power radius is rho^(2/k).
    """
    if m < 4:
        raise ValueError("double_star_power_radius needs m >= 4")
    if k < 2:
        raise ValueError("k must be >= 2")
    rho_sq = 0.5 * (m + math.sqrt(m * m - 8.0 * (m - 3)))
    return rho_sq ** (1.0 / k)


def f_tree_power_radius(m: int, k: int) -> float:
    """Closed-form radius of the kth power of the f-tree on m+1 vertices.

    The base radius solves rho^4 - (m-1)*rho^2 + (m-4) = 0.
    """
    if m < 4:
        raise ValueError("f_tree_power_radius needs m >= 4")
    if k < 2:
        raise ValueError("k must be >= 2")
    rho_sq = 0.5 * ((m - 1) + math.sqrt((m - 1.0) ** 2 - 4.0 * (m - 4)))
    return rho_sq ** (1.0 / k)
