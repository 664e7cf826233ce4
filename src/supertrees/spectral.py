"""Spectral radius computation for k-uniform hypergraphs.

The adjacency tensor of a k-uniform hypergraph acts on a vector by

    (Ax)_i = sum over edges e containing i of the product of x_j, j in e, j != i,

and the spectral radius is the largest eigenvalue of ``Ax = rho * x^[k-1]``.
For a connected hypergraph it carries a unique positive eigenvector with
k-norm 1 (the principal pair).  This module computes it by the power
method with Collatz-Wielandt bracketing, plus closed forms for the families
whose radii reduce to quartic equations.

The power step is ``y = Ax`` for k >= 3 and the shifted ``y = Ax + x^[k-1]``
only for k = 2.  At k >= 3 every edge gives the tensor's digraph both
2-cycles and 3-cycles, so the tensor of a connected hypergraph is weakly
primitive and the unshifted iteration of Ng, Qi and Zhou (2009) converges
from any positive start (Friedland, Gaubert and Han, 2013); only a bipartite
2-graph needs the shift.  The shift would slow the slowest error mode from
mu to (rho*mu + 1)/(rho + 1), about (rho + 1)/rho times the steps: on
path^3 with m edges the shifted method takes about 1.3*m^2 steps (75,465 at
m = 240) and the unshifted one about 0.8*m^2 (46,295 at m = 240, 70,054 at
m = 300), so ``DEFAULT_MAX_ITER`` runs out near m = 355 rather than
m = 275.

One kernel applies the tensor.  Its plan is built once per hypergraph: the
k vertex columns of the edge list, each vertex's leave-one-out product
slots in edge order, and where each vertex's value lands, all as C-level
``itemgetter`` gathers.  Applying it is a few gathers and ``map`` passes
per column instead of Python bytecode per edge, yet it performs the
multiplications and additions of a per-edge prefix/suffix loop in the same
order, so every power iterate is bitwise equal to that loop's
(``tests/oracles.py`` keeps the loop as the reference; ``tensor_apply``
states the one exception, the sign of a zero).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, mul, sub, truediv

from .constructors import OrdinaryTree, tree_power
from .errors import DisconnectedInputError, NonConvergenceError
from .hypergraph import Hypergraph, _strict_int, is_connected

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

#: Radius comparisons downstream treat gaps below this as ties (1000x
#: ``DEFAULT_TOL``, so numerical noise never masquerades as a genuine tie).
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


def _gather(idx: tuple[int, ...]) -> Callable:
    """A C-level gather: called on a sequence x, it returns the tuple of
    x[i] for i in ``idx``.  ``itemgetter`` returns a bare value for one index
    and needs at least one, so those two lengths get a Python fallback."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda x: tuple(x[i] for i in idx)


@dataclass(frozen=True)
class _TensorPlan:
    """The tensor of one hypergraph, laid out for ``_apply``.

    ``columns[i]`` gathers the coordinates at position i of each edge, in
    edge order.  Term slot ``i*m + e`` holds the product of edge e's
    coordinates other than the one at position i.  Each degree-2 vertex adds
    its slots ``firsts[j] + seconds[j]``; each vertex of degree 0 or at least
    3 adds its slots ``others[j]`` from 0.0, in edge order.  ``index``
    gathers each vertex's value from the term slots followed by those two
    groups of sums; for a degree-1 vertex it is the vertex's one term slot.
    Every field is a ``_gather`` of those positions.
    """

    columns: tuple[Callable, ...]
    firsts: Callable
    seconds: Callable
    others: tuple[Callable, ...]
    index: Callable


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
        columns=tuple(map(_gather, zip(*h.edges))),
        firsts=_gather(tuple(slots[v][0] for v in pairs)),
        seconds=_gather(tuple(slots[v][1] for v in pairs)),
        others=tuple(_gather(tuple(slots[v])) for v in others),
        index=_gather(tuple(index)),
    )


def _apply(plan: _TensorPlan, x: list[float] | tuple[float, ...]) -> list[float]:
    cols = [gather(x) for gather in plan.columns]
    # prefixes[i] = x_0 * ... * x_i and suffixes[i] = x_(i+1) * ... * x_(k-1)
    # over each edge, multiplied in the order of a prefix/suffix sweep.
    prefixes = [cols[0]]
    for col in cols[1:-1]:
        prefixes.append(list(map(mul, prefixes[-1], col)))
    suffixes = [cols[-1]]
    for col in reversed(cols[1:-1]):
        suffixes.append(list(map(mul, suffixes[-1], col)))
    suffixes.reverse()
    terms = list(suffixes[0])  # at k = 2 a gathered tuple, which cannot grow
    for pre, suf in zip(prefixes, suffixes[1:]):
        terms += map(mul, pre, suf)
    terms += prefixes[-1]
    terms += map(add, plan.firsts(terms), plan.seconds(terms))
    terms += [reduce(add, gather(terms), 0.0) for gather in plan.others]
    return list(plan.index(terms))


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
    """Power method for the spectral radius of a connected hypergraph.

    Starting from the uniform positive vector, each step computes ``y = Ax``
    and renormalizes ``x = y^[1/(k-1)]`` to k-norm 1.  At k = 2 the step is
    ``y = Ax + x`` instead: the unit shift makes it converge on bipartite
    graphs.  At k >= 3 the tensor of a connected hypergraph is weakly
    primitive, so no shift is needed, and it would cost about (rho + 1)/rho
    times the steps (see the module docstring).  For positive x the
    Collatz-Wielandt ratios ``(Ax)_i / x_i^(k-1)`` bracket the true radius at
    every iterate; iteration stops once the bracket width drops below ``tol``
    relative to the bracket, and the returned rho is the bracket midpoint.

    The tensor plan is built once per call and every step applies it through
    ``tensor_apply``.  The powers, ratios, shift (k = 2 only), root, k-norm
    and rescale are each one ``map`` pass over the coordinates, with the
    formulas ``x_i**(k-1)``, ``a / p``, ``a + p``, ``y_i**(1/(k-1))``,
    ``sum(x_i**k)**(1/k)`` and ``x_i / norm`` in vertex order, so every
    iterate, and the returned pair, is bitwise that of the same loop written
    element by element.  The exponents are passed as floats; Python converts
    an int exponent to that same float, so this changes no bit.

    Raises ValueError unless ``tol`` is positive and finite and ``max_iter``
    is an int (not a bool) of at least 1, DisconnectedInputError for
    disconnected input and NonConvergenceError (carrying the final bracket)
    past ``max_iter``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if _strict_int(max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be >= 1")
    if not is_connected(h):
        raise DisconnectedInputError("power iteration requires a connected hypergraph")
    plan = _tensor_plan(h)
    k = float(h.k)
    km1 = k - 1.0
    shift = h.k == 2
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
        x = list(map(pow, map(add, ax, pw) if shift else ax, repeat(1.0 / km1)))
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
