"""Spectral radius computation for k-uniform hypergraphs.

The adjacency tensor of a k-uniform hypergraph acts on a vector by

    (Ax)_i = sum over edges e containing i of the product of x_j, j in e, j != i,

and the spectral radius is the largest eigenvalue of ``Ax = rho * x^[k-1]``.
For a connected hypergraph it carries a unique positive eigenvector with
k-norm 1 (the principal pair).  This module computes it by the power
method with Collatz-Wielandt bracketing, plus closed forms for the families
whose radii reduce to quartic equations.  It keeps no tree-power formula
rho(T^k) = rho(T)^(2/k): the certificate solver (``certificates``) already
solves every supertree, tree powers included.

The power step is ``y = Ax`` for k >= 3 and the shifted ``y = Ax + x^[k-1]``
only for k = 2.  At k >= 3 every edge gives the tensor's digraph both
2-cycles and 3-cycles, so the tensor of a connected hypergraph is weakly
primitive and the unshifted iteration of Ng, Qi and Zhou (2009) converges
from any positive start (Friedland, Gaubert and Han, 2013); only a bipartite
2-graph needs the shift.  The shift would slow the slowest error mode from
mu to (rho*mu + 1)/(rho + 1), about (rho + 1)/rho times the steps: on
path^3 with m edges the shifted loop takes about 1.3*m^2 steps (75,465 at
m = 240) and the unshifted one about 0.8*m^2 (46,295 at m = 240, 70,054 at
m = 300).

Even unshifted, the plain loop converges linearly at the ratio of its
slowest error mode, which tends to 1 as paths grow.  Near the fixed point
the error evolves under M = (1/(k-1)) D^-1 S, with S symmetric and
D = diag(x^k), so M has a real spectrum in [-1/(k-1), 1]: the slow modes
may come in close clusters (random k = 5, m = 300 has two at 0.9732 and
0.9695), and on hubs the slowest mode excited is -1/2.  So the loop runs
in cycles of ``MPE_WINDOW + 1`` steps and replaces the last iterate of
each cycle by the minimal polynomial extrapolation (MPE; Cabay and
Jackson 1976, Sidi, Ford and Smith 1986) of the cycle's iterates: the
combination of them whose differences, taken with the same coefficients,
cancel best in least squares, which removes up to ``MPE_WINDOW`` modes of
either sign at once.  With a window of 2 it is the "quadratic
extrapolation" that Kamvar, Haveliwala, Manning and Golub (2003) apply to
PageRank.  The stop trusts no extrapolation: the Collatz-Wielandt ratios
bracket rho at every positive vector, extrapolated or not, so the stop
rule and the bracket it certifies are the plain loop's.  On path^3 the
steps fall to 358 at m = 100 (9,130 plain) and 3,482 at m = 400 (119,449
plain, past ``DEFAULT_MAX_ITER``).  Windows of 4, 6, 8 and 10 take 829,
748, 664 and 646 steps on the benchmark's eigen-medium hosts, and 8 gives
the lowest wall time: a wider window saves steps but costs more per
extrapolation.

One kernel applies the tensor.  Its plan is built once per hypergraph: the
k vertex columns of the edge list, each vertex's leave-one-out product
slots in edge order, and where each vertex's value lands, all as C-level
``itemgetter`` gathers.  Applying it is a few gathers and ``map`` passes
per column instead of Python bytecode per edge, yet it performs the
multiplications and additions of a per-edge prefix/suffix loop in the same
order, so every power iterate is bitwise equal to that loop's
(``tests/oracles.py`` keeps the loop as the reference; ``tensor_apply``
states the one exception, the sign of a zero).

Each power step applies the tensor once and then takes the k-th root,
k-norm and rescale passes (plus the powers x^[k-1] at k = 2, for the
shift).  The full Collatz-Wielandt stopping pass (powers, every ratio,
their min and max) costs about as much again, yet only the last step or
two of a solve can stop.  So each step first evaluates the two ratios at
the last full pass's argmin and argmax; when even those two are further
apart than ``tol`` allows, the full bracket is wider still and the step
skips the full pass.  ``power_iteration`` states why this changes no bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, mul, sub, truediv

from .errors import DisconnectedInputError, NonConvergenceError
from .hypergraph import Hypergraph, _debug_logger, _strict_int, _strict_real, is_connected

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

#: Power iteration extrapolates once every MPE_WINDOW + 1 steps, from the
#: MPE_WINDOW + 2 iterates since the last extrapolation.
MPE_WINDOW = 8


PrincipalPair = namedtuple("PrincipalPair", "rho x residual iterations")
PrincipalPair.__doc__ = """Converged spectral radius estimate with its positive eigenvector.

The eigenvector has k-norm 1 and ``residual`` is the max-norm defect of
the eigenequation at (rho, x).
"""


def _gather(idx: tuple[int, ...]):
    """A C-level gather: called on a sequence x, it returns the tuple of
    x[i] for i in ``idx``.  ``itemgetter`` returns a bare value for one index
    and needs at least one, so those two lengths get a Python fallback."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda x: tuple(x[i] for i in idx)


_TensorPlan = namedtuple("_TensorPlan", "columns firsts seconds others vertices")
_TensorPlan.__doc__ = """The tensor of one hypergraph, laid out for ``_apply``.

``columns[i]`` gathers the coordinates at position i of each edge, in
edge order.  Term slot ``i*m + e`` holds the product of edge e's
coordinates other than the one at position i.  Each degree-2 vertex adds
its slots ``firsts[j] + seconds[j]``; each vertex of degree 0 or at least
3 adds its slots ``others[j]`` from 0.0, in edge order.  ``vertices``
gathers each vertex's value from the term slots followed by those two
groups of sums; for a degree-1 vertex it is the vertex's one term slot.
Every field is a ``_gather`` of those positions.
"""


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
        vertices=_gather(tuple(index)),
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
    return list(plan.vertices(terms))


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

    Raises ValueError when ``len(x) != h.n`` and, without ``plan``, when a
    coordinate is not a float: an int or bool coordinate would pass through
    a vertex's one-slot gather unconverted (``[1] * n`` gives a leaf an int
    1, and ``True`` reads as 1).  With ``plan``, as ``power_iteration``
    calls it once per step on its own floats, nothing is checked.
    """
    if len(x) != h.n:
        raise ValueError(f"vector length {len(x)} does not match n = {h.n}")
    if plan is None:
        if {*map(type, x)} - {float}:
            for i, v in enumerate(x):
                if not isinstance(v, float):
                    raise ValueError(f"coordinate {i} of x is {v!r}, not a float")
        plan = _tensor_plan(h)
    return _apply(plan, x)


def eigen_residual(h: Hypergraph, rho: float, x: list[float] | tuple[float, ...]) -> float:
    """Max-norm defect of the eigenequation: max_i |(Ax)_i - rho * x_i^(k-1)|.

    Raises ValueError unless ``rho`` is a finite real (a bool is not) and,
    as ``tensor_apply`` does, unless ``x`` has n float coordinates.
    """
    if not math.isfinite(_strict_real(rho, "rho")):
        raise ValueError(f"rho must be finite, got {rho!r}")
    ax = tensor_apply(h, x)
    km1 = h.k - 1
    return max(abs(a - rho * xi**km1) for a, xi in zip(ax, x))


def _solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Solve ``a c = b`` by Gaussian elimination with partial pivoting,
    overwriting both.  None when a pivot is 0 or NaN, or a coordinate of c is
    not finite."""
    n = len(b)
    for j in range(n):
        p = max(range(j, n), key=lambda r: abs(a[r][j]))
        if not abs(a[p][j]) > 0.0:
            return None
        a[j], a[p] = a[p], a[j]
        b[j], b[p] = b[p], b[j]
        for r in range(j + 1, n):
            f = a[r][j] / a[j][j]
            for col in range(j + 1, n):
                a[r][col] -= f * a[j][col]
            b[r] -= f * b[j]
    c = [0.0] * n
    for j in range(n - 1, -1, -1):
        s = b[j]
        for r in range(j + 1, n):
            s -= a[j][r] * c[r]
        c[j] = s / a[j][j]
    if not all(-math.inf < v < math.inf for v in c):
        return None
    return c


def _extrapolate(xs: list[tuple[float, ...]], k: float) -> tuple[float, ...] | None:
    """Minimal polynomial extrapolation of the iterates ``xs`` = x_0 .. x_(W+1),
    renormalised to k-norm 1 as a tuple, or None when it is rejected.

    With u_j = x_(j+1) - x_j, the coefficients c_0 .. c_(W-1), c_W = 1
    minimise |sum c_j u_j|: the W x W normal equations sum_j <u_i, u_j> c_j =
    -<u_i, u_W>.  No difference vector is formed: ``2 <u_i, u_j> = d(i+1, j)
    + d(i, j+1) - d(i, j) - d(i+1, j+1)`` for d(p, q) = |x_p - x_q|^2, one
    C-level ``math.dist`` per pair of iterates (the common factor 2 drops
    out).  ``math.dist`` copies a list argument into a new tuple on every
    call, W + 1 copies of each iterate, and reads a tuple as it is; so the
    iterates are tuples (lists give the same bits, only slower).  The result
    is ``z = sum gamma_j x_(j+1)`` with ``gamma = c / sum(c)``: for a linear
    iteration that is one step past the classical ``sum gamma_j x_j``, and
    it took 664 steps on eigen-medium where the classical form took 789
    (window 8).  After ``gamma_0 x_1``, one pass over the coordinates per
    term adds the next W mod 4 terms, and then each pass adds four, ``z_i +
    g1 * a1 + g2 * a2 + g3 * a3 + g4 * a4``.  So each coordinate is still
    the reference's running sum, its terms added one at a time and in order
    (not by ``sum``, ``math.fsum`` or ``math.sumprod``, which round
    otherwise from Python 3.12 on).  It is kept only if ``s = sum(z_i**k)``
    lies in (0, inf) and every coordinate of ``z / s**(1/k)`` is positive
    (and so finite).  A singular or non-finite solve is rejected too.
    """
    w = len(xs) - 2
    d = [[0.0] * (w + 2) for _ in range(w + 2)]
    for p in range(w + 2):
        for q in range(p + 1, w + 2):
            d[p][q] = d[q][p] = math.dist(xs[p], xs[q]) ** 2
    gram = [
        [d[i + 1][j] + d[i][j + 1] - d[i][j] - d[i + 1][j + 1] for j in range(w + 1)]
        for i in range(w)
    ]
    c = _solve([row[:w] for row in gram], [-row[w] for row in gram])
    if c is None:
        return None
    c.append(1.0)
    total = reduce(add, c)
    if not 0.0 < abs(total) < math.inf:
        return None
    g = [cj / total for cj in c]
    r = 1 + w % 4  # terms added one per pass, the rest four per pass
    z = list(map(mul, repeat(g[0]), xs[1]))
    for gj, x in zip(g[1:r], xs[2:]):
        z = list(map(add, z, map(mul, repeat(gj), x)))
    for j in range(r, w + 1, 4):
        g1, g2, g3, g4 = g[j : j + 4]
        z = [
            zi + g1 * a1 + g2 * a2 + g3 * a3 + g4 * a4
            for zi, a1, a2, a3, a4 in zip(z, *xs[j + 1 : j + 5])
        ]
    s = sum(map(pow, z, repeat(k)))
    if not 0.0 < s < math.inf:
        return None
    # a NaN or infinite coordinate would have made s NaN or infinite, so
    # min is reliable here; positive coordinates stay below s**(1/k)
    z = tuple(map(truediv, z, repeat(s ** (1.0 / k))))
    return z if min(z) > 0.0 else None


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
    Every ``MPE_WINDOW + 1`` steps the iterate may be replaced by an
    extrapolation (see the module docstring); that changes where the
    bracket is read, never what it certifies.  Each solve logs one DEBUG
    record on the ``supertrees`` logger, converged or not: n, k, steps,
    jumps (extrapolations kept), rejected (extrapolations refused) and the
    final bracket.

    The tensor plan is built once per call and every step applies it through
    ``tensor_apply``.  Every step then takes the root, k-norm and rescale
    passes, plus the powers ``x_i**(k-1)`` at k = 2 for the shift.  The full
    stopping pass (powers, all ratios, their min and max) runs only when a
    screen cannot rule stopping out.  The screen recomputes two ratios, at
    the argmin ``i_lo`` and argmax ``i_hi`` of the last full pass (both 0
    before the first), with the full pass's formula, and takes their min
    ``lo`` and max ``hi``.  If ``hi - lo > tol * max(1, lo)`` the step
    cannot stop and goes straight to the update.  This is exact: the true
    bracket has ``lam_lo <= lo`` and ``lam_hi >= hi``, and float rounding is
    monotone, so ``fl(lam_hi - lam_lo) >= fl(hi - lo)`` and ``fl(tol *
    max(1, lam_lo)) <= fl(tol * max(1, lo))``: whenever the screen says too
    wide, so would the full test.  A NaN or ``inf - inf`` makes the screen's
    comparison false, so that step runs the full pass.  Step 1 and step
    ``max_iter`` always run it, the latter so that NonConvergenceError
    carries the final bracket.  A full pass that does not stop re-aims
    ``i_lo`` and ``i_hi`` at its argmin and argmax.  A solve runs it on
    a few steps: step 1 and its last few (34 of eigen-medium's 664).

    The iterates are tuples, which ``_extrapolate``'s ``math.dist`` calls
    read without a copy.  Those since the last extrapolation (or the start)
    form a cycle.  Once it holds ``MPE_WINDOW + 2`` of them,
    ``_extrapolate`` combines them; the next iterate is its result if kept
    and the last step's otherwise, and the cycle restarts from that
    iterate.  An extrapolation costs no ``tensor_apply`` of its own, since
    the next step applies the tensor to it, and the screen stays exact at
    it, since its argument holds at every vector.

    Each pass runs over the coordinates in vertex order, with the formulas
    ``x_i**(k-1)``, ``a / p``, ``a + p``, ``y_i**(1/(k-1))``,
    ``sum(x_i**k)**(1/k)``, ``x_i / norm`` and the extrapolation's running
    sum ``z_i + g_j * x_i``, its terms added left to right (four in one
    pass, see ``_extrapolate``), and the iterates do not depend on the
    screen, so every iterate, the step count and the returned pair
    are bitwise those of the same loop written element by element with the
    full pass on every step (``tests/oracles.py``'s
    ``reference_power_iteration``, which makes the same ``sum`` and
    ``math.dist`` calls and the same small solve).  The exponents are passed
    as floats; Python converts an int exponent to that same float, so this
    changes no bit.  The one difference: a power ``x_i**(k-1)`` that
    underflows to 0.0 raises ZeroDivisionError in the full pass, so a
    screened step defers that error to the next full pass.

    Raises ValueError unless ``tol`` is a positive finite real and
    ``max_iter`` an int of at least 1 (a bool is neither),
    DisconnectedInputError for disconnected input and NonConvergenceError
    (carrying the final bracket) past ``max_iter``.
    """
    # a bool would pass the range test as 1.0 and stop after two steps
    if not 0.0 < _strict_real(tol, "tol") < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if _strict_int(max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be >= 1")
    if not is_connected(h):
        raise DisconnectedInputError("power iteration requires a connected hypergraph")
    plan = _tensor_plan(h)
    k = float(h.k)
    km1 = k - 1.0
    shift = h.k == 2
    x = (h.n ** (-1.0 / k),) * h.n
    i_lo = i_hi = 0  # argmin and argmax of the last full pass's ratios
    cycle = [x]  # the iterates since the extrapolation last restarted
    jumps = rejected = 0
    converged = False
    for it in range(1, max_iter + 1):
        ax = tensor_apply(h, x, plan=plan)
        a = ax[i_lo] / x[i_lo] ** km1
        b = ax[i_hi] / x[i_hi] ** km1
        lo, hi = min(a, b), max(a, b)
        # True only if the full test below would fail too (see the docstring)
        screened = hi - lo > tol * max(1.0, lo) and it < max_iter
        if shift or not screened:
            pw = list(map(pow, x, repeat(km1)))
        if not screened:
            ratios = list(map(truediv, ax, pw))
            lam_lo = min(ratios)
            lam_hi = max(ratios)
            if lam_hi - lam_lo <= tol * max(1.0, lam_lo):
                converged = True
                break
            i_lo = ratios.index(lam_lo)
            i_hi = ratios.index(lam_hi)
        y = list(map(pow, map(add, ax, pw) if shift else ax, repeat(1.0 / km1)))
        norm = sum(map(pow, y, repeat(k))) ** (1.0 / k)
        x = tuple(map(truediv, y, repeat(norm)))
        cycle.append(x)
        if len(cycle) == MPE_WINDOW + 2:
            z = _extrapolate(cycle, k)
            if z is None:
                rejected += 1
            else:
                x = z
                jumps += 1
            cycle = [x]
    log = _debug_logger()
    if log is not None:
        log.debug(
            "power solve: n=%d k=%d steps=%d jumps=%d rejected=%d bracket=[%r, %r]",
            h.n, h.k, it, jumps, rejected, lam_lo, lam_hi,
        )
    if not converged:
        raise NonConvergenceError(
            f"no convergence after {max_iter} iterations; bracket width {lam_hi - lam_lo:.3e}",
            bracket=(lam_lo, lam_hi),
        )
    rho = 0.5 * (lam_lo + lam_hi)
    residual = max(map(abs, map(sub, ax, map(mul, repeat(rho), pw))))
    return PrincipalPair(rho=rho, x=x, residual=residual, iterations=it)


def double_star_power_radius(m: int, k: int) -> float:
    """Closed-form radius of the kth power of the double star with 2 and m-3
    pendants (m edges total).

    The base radius solves rho^4 - m*rho^2 + 2(m-3) = 0; the largest root
    satisfies rho > sqrt(m-2) and the power radius is rho^(2/k).  Raises
    ValueError unless ``m >= 4`` and ``k >= 2`` are ints.
    """
    if _strict_int(m, "m") < 4:
        raise ValueError("double_star_power_radius needs m >= 4")
    if _strict_int(k, "k") < 2:
        raise ValueError("k must be >= 2")
    rho_sq = 0.5 * (m + math.sqrt(m * m - 8.0 * (m - 3)))
    return rho_sq ** (1.0 / k)


def f_tree_power_radius(m: int, k: int) -> float:
    """Closed-form radius of the kth power of the f-tree on m+1 vertices.

    The base radius solves rho^4 - (m-1)*rho^2 + (m-4) = 0.  Raises
    ValueError unless ``m >= 4`` and ``k >= 2`` are ints.
    """
    if _strict_int(m, "m") < 4:
        raise ValueError("f_tree_power_radius needs m >= 4")
    if _strict_int(k, "k") < 2:
        raise ValueError("k must be >= 2")
    rho_sq = 0.5 * ((m - 1) + math.sqrt((m - 1.0) ** 2 - 4.0 * (m - 4)))
    return rho_sq ** (1.0 / k)
