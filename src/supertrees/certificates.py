"""Weighted incidence certificates for bounding spectral radii.

A weighted incidence matrix assigns a positive weight B(v, e) to every
incident vertex-edge pair.  Comparing the per-vertex weight sums against 1
and the per-edge weight products against a parameter alpha classifies the
pair (H, B, alpha) as normal, strictly subnormal, or strictly supernormal;
the strict cases bound the spectral radius by alpha^(-1/k) from above or
below.  On supertrees the normality conditions pin B down uniquely once
alpha is fixed, which turns the spectral radius into the root of a scalar
monotone function of alpha.  ``alpha_normal_bracket`` finds that root: it
starts from the degree bounds max_degree^(1/k) <= rho <= (largest degree
product over an edge)^(1/k), narrows them with Anderson-Bjorck regula falsi
that bisects where rounding noise flattens the function, and returns the
radius bracket certified by the strictly subnormal and strictly supernormal
weights at its two ends; ``alpha_normal_radius`` returns the bracket's
midpoint.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constructors import broom
from .errors import BracketError, IncidenceMismatchError, PositivityError
from .hypergraph import (
    Hypergraph,
    _debug_logger,
    _read_only,
    _strict_int,
    _strict_real,
    incidence_lists,
    is_supertree,
    vertex_stats,
)

DEFAULT_CERT_TOL = 1e-9
#: The radius solver stops once its bracket is this many ulps wide.
ALPHA_BRACKET_ULPS = 4
#: Guard on defect evaluations per solve; bisection alone needs about 60.
ALPHA_MAX_EVALS = 200
#: An Anderson-Bjorck scale factor at or below this makes the next step bisect.
ALPHA_FLAT = 0.1

NORMAL = "normal"
STRICTLY_SUBNORMAL = "strictly-subnormal"
STRICTLY_SUPERNORMAL = "strictly-supernormal"
NEITHER = "neither"


class WeightedIncidence:
    """Positive weights on exactly the incident (vertex, edge index) pairs.

    A weight is a real number other than a bool (else ValueError) in (0, inf)
    (else PositivityError).  The check is exact, so a ``Fraction`` or an int
    past float range passes.  Immutable like its host; two are equal when
    their hosts and weights are, and, holding a dict, it is unhashable.
    """

    host: Hypergraph
    entries: dict[tuple[int, int], float]

    def __init__(self, host: Hypergraph, entries: dict[tuple[int, int], float]):
        expected = {(v, i) for i, e in enumerate(host.edges) for v in e}
        got = set(entries)
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise IncidenceMismatchError(
                f"entries do not match incidence (missing {missing}, extra {extra})"
            )
        # one C-level pass over the weight types passes the all-float case
        if not {*map(type, entries.values())} <= {float}:
            for pair, w in entries.items():
                _strict_real(w, f"weight at {pair}")
        for pair, w in entries.items():
            if not 0 < w < math.inf:
                need = "finite" if w > 0 else "positive"
                raise PositivityError(f"weight at {pair} must be {need}, got {w}")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "entries", entries)

    __setattr__ = __delattr__ = _read_only
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not WeightedIncidence:
            return NotImplemented
        return (self.host, self.entries) == (other.host, other.entries)

    def __repr__(self):
        return f"WeightedIncidence(host={self.host!r}, entries={self.entries!r})"

    def weight(self, v: int, e_idx: int) -> float:
        return self.entries[(v, e_idx)]


CertificateVerdict = namedtuple(
    "CertificateVerdict", "alpha classification vertex_slacks edge_slacks consistent"
)
CertificateVerdict.__doc__ = """Classification of (H, B, alpha) with per-constraint slacks.

``vertex_slacks[v]`` is 1 minus the weight sum at v; ``edge_slacks[i]``
is the weight product over edge i minus alpha.  ``consistent`` reports
whether the weights admit a global potential (trivially true on
acyclic input).
"""


def _consistent(h: Hypergraph, b: WeightedIncidence, tol: float) -> bool:
    """Cycle products equal 1, checked via potentials over a spanning structure.

    Within a single edge the ratio constraints compose exactly, so only
    genuine vertex-edge cycles can fail; a supertree passes without a walk.
    """
    if is_supertree(h):
        return True
    inc = incidence_lists(h)
    pot = [0.0] * h.n
    seen = [False] * h.n
    for start in range(h.n):
        if seen[start]:
            continue
        seen[start] = True
        pot[start] = 1.0
        stack = [start]
        while stack:
            v = stack.pop()
            for i in inc[v]:
                bv = b.weight(v, i)
                for w in h.edges[i]:
                    if w == v:
                        continue
                    ratio = b.weight(w, i) / bv
                    if not seen[w]:
                        seen[w] = True
                        pot[w] = pot[v] * ratio
                        stack.append(w)
                    elif abs(pot[w] - pot[v] * ratio) > tol * max(pot[w], pot[v] * ratio):
                        return False
    return True


def _check_alpha(alpha: float) -> None:
    if not 0.0 < _strict_real(alpha, "alpha") < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


def classify(
    h: Hypergraph,
    b: WeightedIncidence,
    alpha: float,
    tol: float = DEFAULT_CERT_TOL,
) -> CertificateVerdict:
    """Evaluate vertex sums and edge products and assign the strongest class.

    A slack within ``tol`` of zero counts as an equality; "strict" means at
    least one slack lies beyond ``tol`` on the permitted side.  ``tol = 0``
    compares exactly; with ``Fraction`` weights and alpha the slacks are
    exact too (sums start from the int 0, products from the int 1).  Raises
    ValueError unless alpha (positive) and tol (non-negative) are finite
    reals other than bools.
    """
    _check_alpha(alpha)
    if not 0.0 <= _strict_real(tol, "tol") < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    if b.host != h:
        raise IncidenceMismatchError("weighted incidence was built for a different hypergraph")
    sums = [0] * h.n
    prods = [1] * h.m
    for (v, i), w in b.entries.items():
        sums[v] += w
        prods[i] *= w
    vertex_slacks = tuple(1 - s for s in sums)
    edge_slacks = tuple(p - alpha for p in prods)
    sub_ok = all(vs >= -tol for vs in vertex_slacks) and all(es >= -tol for es in edge_slacks)
    sup_ok = all(vs <= tol for vs in vertex_slacks) and all(es <= tol for es in edge_slacks)
    if sub_ok and sup_ok:
        classification = NORMAL
    elif sub_ok:
        classification = STRICTLY_SUBNORMAL
    elif sup_ok:
        classification = STRICTLY_SUPERNORMAL
    else:
        classification = NEITHER
    return CertificateVerdict(
        alpha=alpha,
        classification=classification,
        vertex_slacks=vertex_slacks,
        edge_slacks=edge_slacks,
        consistent=_consistent(h, b, tol),
    )


def t11m3_certificate(m: int, k: int, alpha: float) -> WeightedIncidence:
    """The explicit certificate on the supertree with branch counts (1, 1, m-3).

    Pendent vertices get weight 1.  Each of the two singly-branched vertices
    splits 1 as alpha on its pendent edge and 1-alpha on the central edge;
    the heavy vertex puts alpha on each of its m-3 pendent edges and
    1-(m-3)*alpha on the central edge.  Every vertex sum is exactly 1 and
    every pendent-edge product is exactly alpha, so the classification is
    decided by the central edge alone; with a ``Fraction`` alpha the weights
    are exact, so this holds exactly.

    Requires an int m >= 4 and a real alpha other than a bool (ValueError
    otherwise) with 0 < alpha < 1/(m-3), so weights stay positive
    (PositivityError otherwise).
    """
    if _strict_int(m, "m") < 4:
        raise ValueError("t11m3_certificate needs m >= 4")
    if not 0.0 < _strict_real(alpha, "alpha") < 1.0 / (m - 3):
        raise PositivityError(
            f"alpha must lie in (0, {1.0 / (m - 3)!r}) to keep weights positive, got {alpha}"
        )
    host = broom(1, 1, m - 3, k)
    # Sorted edge order puts the central edge first, then the pendent edges
    # at vertices 0, 1, 2 in that order.
    pend = vertex_stats(host).pendent_vertices
    entries: dict[tuple[int, int], float] = {}
    for i, e in enumerate(host.edges):
        for v in e:
            if v in pend:
                entries[(v, i)] = 1
    entries[(0, 1)] = alpha
    entries[(0, 0)] = 1 - alpha
    entries[(1, 2)] = alpha
    entries[(1, 0)] = 1 - alpha
    for i in range(3, m):
        entries[(2, i)] = alpha
    entries[(2, 0)] = 1 - (m - 3) * alpha
    return WeightedIncidence(host=host, entries=entries)


# --- leaf-to-root propagation and the bracketing radius solver --------------


_Plan = namedtuple("_Plan", "n root max_degree max_edge_product steps")
_Plan.__doc__ = """A supertree rooted once, for repeated propagation at different alphas.

The root is the first vertex of maximum degree (every edge of a
hyperstar is pendent, so rooting inside a non-pendent edge is not always
possible; the scalar equation below has the same unique root either
way).  ``steps`` lists every edge deepest first as (edge index, parent
vertex, children), so each child's carried sum is complete by the time
its parent edge is reached.  Only non-pendent children are listed, and
the third field encodes the step's shape by how many there are:

- ``None``: no non-pendent child.  The parent's weight is
  alpha / 1.0 == alpha exactly, so the step adds alpha.
- a vertex ``v``: one child.  The product 1.0 * w == w exactly, so the
  step adds alpha / (1 - carried[v]).
- a tuple of two or more vertices in edge order: the step forms the
  product of their weights from 1.0, left to right.

Pendent children are left out because they cannot change a bit: a
pendent vertex is never a parent (except the root of the one-edge
tree), so it carries 0.0 and its forced weight is 1.0 - 0.0 == 1.0
exactly.  That weight is never <= 0, a factor of exactly 1.0 leaves a
float product unchanged wherever it stands, and alpha / 1.0 == alpha,
so every defect is the one the full propagation gives, bit for bit.

``max_degree`` (the root's degree) and ``max_edge_product``, the largest
product of the degrees over one edge, bound the radius:
max_degree^(1/k) <= rho <= max_edge_product^(1/k).  The first is the
radius of the hyperstar at the root, a subhypergraph; the second holds
because the weights B(v, e) = 1/deg(v) sum to 1 at every vertex and
multiply to at least 1/max_edge_product over every edge.
"""


def _plan(h: Hypergraph, caller: str) -> _Plan:
    """Root ``h`` and order its edges; raises ValueError naming ``caller``
    unless ``h`` is a supertree.

    Degrees come from one pass over the edges.  A second pass, over the
    non-pendent incidences only, gives each non-pendent vertex its list of
    edges (pendent vertices get none: a pendent vertex's one edge is
    already used when the search reaches it) and records each edge's count
    and sum of non-pendent members and their degree product.  The
    breadth-first search from the root then reads each step's shape from
    the count: an edge reached from its parent ``v`` has count - 1
    non-pendent children, and with one child that child is sum - v.  Only
    edges with two or more children are scanned again, for the children in
    edge order.  The search doubles as the supertree test.  With
    m(k-1) = n-1 it uses every edge and enqueues no vertex twice exactly
    when ``h`` is a supertree: a pendent vertex is a child only of its one
    edge, so the m(k-1) children and the root are then n distinct vertices.
    """
    if h.m * (h.k - 1) != h.n - 1:
        raise ValueError(f"{caller} requires a supertree")
    edges = h.edges
    degrees = [0] * h.n
    for e in edges:
        for v in e:
            degrees[v] += 1
    max_degree = max(degrees)
    root = degrees.index(max_degree)
    inc: dict[int, list[int]] = {}
    counts = []
    sums = []
    max_edge_product = 1
    for i, e in enumerate(edges):
        count = total = 0
        product = 1
        for v in e:
            d = degrees[v]
            if d > 1:
                count += 1
                total += v
                product *= d
                if v in inc:
                    inc[v].append(i)
                else:
                    inc[v] = [i]
        counts.append(count)
        sums.append(total)
        if product > max_edge_product:
            max_edge_product = product
    if max_degree == 1:  # the one-edge tree, rooted at a pendent vertex
        inc[root] = [0]
    used = [False] * h.m
    order = [root]
    steps = []
    for v in order:
        for i in inc[v]:
            if not used[i]:
                used[i] = True
                count = counts[i]
                if count == 2:
                    child = sums[i] - v
                    steps.append((i, v, child))
                    order.append(child)
                elif count < 2:  # the parent alone, or the one-edge tree's root
                    steps.append((i, v, None))
                else:
                    children = tuple([w for w in edges[i] if w != v and degrees[w] > 1])
                    steps.append((i, v, children))
                    order.extend(children)
    if len(steps) != h.m or len(set(order)) != len(order):
        raise ValueError(f"{caller} requires a supertree")
    steps.reverse()
    return _Plan(
        n=h.n, root=root, max_degree=max_degree, max_edge_product=max_edge_product, steps=tuple(steps)
    )


def _propagate(plan: _Plan, alpha: float, carried: list[float] | None = None) -> float:
    """Force the unique weights meeting all non-root constraints at this alpha.

    Away from the root every vertex sum is pinned to 1 and every edge product
    to alpha; the returned defect is the root vertex's sum minus 1.  A forced
    non-positive weight means alpha is already too large, reported as +inf.
    Each step adds its parent's weight to the parent's carried sum, by the
    shape ``_Plan`` encodes: alpha with no non-pendent child, alpha over
    the one child's weight, or alpha over the product of the children's
    weights.  Each shape gives the bits of the propagation over all
    children (see ``_Plan``).  The carried sums are left in ``carried``
    (n zeros on entry) when it is given; the weights are not recorded, so
    the loop does only the arithmetic.  Replaying the 392 evaluations the
    former Illinois search made on the benchmark's ``radius-large`` solves,
    it takes about 30% less time than one product loop over every step's
    children that also tested for a weight record (median ratio 0.70-0.72
    in three runs of 15 replays).
    """
    if carried is None:
        carried = [0.0] * plan.n
    for _, p, c in plan.steps:
        if c is None:
            carried[p] += alpha
        elif c.__class__ is tuple:
            prod = 1.0
            for v in c:
                w = 1.0 - carried[v]
                if w <= 0.0:
                    return math.inf
                prod *= w
            carried[p] += alpha / prod
        else:
            w = 1.0 - carried[c]
            if w <= 0.0:
                return math.inf
            carried[p] += alpha / w
    return carried[plan.root] - 1.0


def propagate_certificate(h: Hypergraph, alpha: float) -> WeightedIncidence:
    """The propagated weights as a certificate; everything but the root's
    vertex sum holds with equality, so its sign decides sub vs supernormal.

    The kernel ``_propagate`` leaves every carried sum behind, and the
    weights follow from them by the kernel's own operations on the same
    inputs: a child's carried sum is complete before its parent edge is
    reached and never changes after.  Every incidence the plan leaves out
    is a pendent vertex's, whose weight is exactly 1.0.  These are the
    weights of the full leaf-to-root propagation, bit for bit.  Raises
    ValueError for an alpha that is a bool, not a real number, or not
    positive and finite, before any planning, and PositivityError when
    alpha is large enough to force a non-positive weight.
    """
    _check_alpha(alpha)
    plan = _plan(h, "propagation")
    carried = [0.0] * plan.n
    if _propagate(plan, alpha, carried) == math.inf:
        raise PositivityError(f"propagation infeasible at alpha = {alpha}")
    entries: dict[tuple[int, int], float] = {}
    for i, p, c in plan.steps:
        if c is None:
            entries[(p, i)] = alpha
            continue
        prod = 1.0
        for v in c if c.__class__ is tuple else (c,):
            w = 1.0 - carried[v]
            entries[(v, i)] = w
            prod *= w
        entries[(p, i)] = alpha / prod
    for i, e in enumerate(h.edges):
        for v in e:
            entries.setdefault((v, i), 1.0)
    return WeightedIncidence(host=h, entries=entries)


def _strict_end(plan: _Plan, k: int, x: float, end: float) -> tuple[float, int]:
    """The first radius, stepping from the zero-defect ``x`` toward ``end``
    by doubling numbers of ulps, whose defect has the strict sign of that
    side (> 0 below ``x``, < 0 above); ``end`` itself (already strict) once
    the steps reach it.  Returned with the number of defects evaluated."""
    up = end > x
    step = math.ulp(x)
    evaluations = 0
    while True:
        y = x + step if up else x - step
        if (y >= end) if up else (y <= end):
            return end, evaluations
        f = _propagate(plan, y**-k)
        evaluations += 1
        if (f < 0.0) if up else (f > 0.0):
            return y, evaluations
        step *= 2.0


def _radius_bracket(h: Hypergraph, caller: str) -> tuple[float, float, int]:
    """``alpha_normal_bracket``'s ``(low, high)`` and the number of defect
    evaluations (``_propagate`` calls) it took.  Each returned bracket is
    logged at DEBUG on the ``supertrees`` logger with m, k and that count.

    The search starts from the plan's bounds, max_degree^(1/k) below the
    root and max_edge_product^(1/k) above it, each used once its defect has
    the strict sign that end needs: > 0 below, < 0 above.  An end that fails
    falls back to the former start: 1 below, (max_degree * m)^(1/k) above.
    Only a hyperstar attains the bounds (elsewhere an edge at a vertex of
    maximum degree holds a second non-pendent vertex, so its product is at
    least twice max_degree): they are then one radius, m^(1/k), whose defect
    rounding decides, so it serves as whichever end its sign fits, and it
    is evaluated once.  Radius 1 fails below only on the one-edge
    supertree, where it is the lower bound itself, evaluated once, and the
    bracket is (1, 1).
    """
    plan = _plan(h, caller)
    k = h.k
    start = low = plan.max_degree ** (1.0 / k)
    f_start = f_low = _propagate(plan, start**-k)
    evaluations = 1
    if not f_low > 0.0 and low != 1.0:
        low, f_low = 1.0, _propagate(plan, 1.0)
        evaluations += 1
    if not f_low > 0.0:
        low = high = 1.0
    else:
        high = plan.max_edge_product ** (1.0 / k)
        if high == start:
            f_high = f_start
        else:
            f_high = _propagate(plan, high**-k)
            evaluations += 1
        if not f_high < 0.0:
            high = (plan.max_degree * h.m) ** (1.0 / k)
            f_high = _propagate(plan, high**-k)
            evaluations += 1
            if not f_high < 0.0:
                raise BracketError(
                    f"no sign change: defect {f_high:.3e} at radius {high}", bracket=(low, high)
                )
        kept = 0  # +1 after low moved, -1 after high moved
        bisect = False
        for _ in range(ALPHA_MAX_EVALS):
            if high - low <= ALPHA_BRACKET_ULPS * math.ulp(high):
                break
            if bisect:
                x = 0.5 * (low + high)
            else:
                a_low, a_high = low**-k, high**-k
                if f_low == math.inf:
                    alpha = 0.5 * (a_low + a_high)
                else:
                    alpha = a_high + (a_low - a_high) * (f_high / (f_high - f_low))
                x = alpha ** (-1.0 / k)
            # The trial radius, kept at least one ulp inside the bracket.
            x = min(max(x, low + math.ulp(high)), high - math.ulp(high))
            fx = _propagate(plan, x**-k)
            evaluations += 1
            # Anderson-Bjorck (BIT 13, 1973): when the same end moves twice
            # running, scale the other end's defect by 1 - fx / (the moving
            # end's old defect), or by 1/2 if that is not positive.  A factor
            # of at most ALPHA_FLAT means the step left the defect almost as
            # it was, as rounding noise near the root does, so the next trial
            # bisects.
            bisect = False
            if fx > 0.0:
                if kept > 0:
                    scale = 1.0 - fx / f_low
                    bisect = scale <= ALPHA_FLAT
                    f_high *= scale if scale > 0.0 else 0.5
                low, f_low = x, fx
                kept = 1
            elif fx < 0.0:
                if kept < 0:
                    scale = 1.0 - fx / f_high
                    bisect = scale <= ALPHA_FLAT
                    f_low *= scale if scale > 0.0 else 0.5
                high, f_high = x, fx
                kept = -1
            else:
                low, below = _strict_end(plan, k, x, low)
                high, above = _strict_end(plan, k, x, high)
                evaluations += below + above
                break
        else:
            raise BracketError(
                f"radius bracket [{low!r}, {high!r}] still open after {ALPHA_MAX_EVALS} evaluations",
                bracket=(low, high),
            )
    log = _debug_logger()
    if log is not None:
        log.debug(
            "certificate solve: m=%d k=%d evaluations=%d bracket=[%r, %r]",
            h.m, k, evaluations, low, high,
        )
    return low, high, evaluations


def alpha_normal_bracket(h: Hypergraph) -> tuple[float, float]:
    """Certified bracket ``(low, high)`` on the spectral radius of a supertree.

    The propagated root-sum defect is strictly increasing in alpha, negative
    below the normal point and positive (or infeasible) above it, exactly the
    two directions in which strict sub/supernormality bound the radius.  The
    search, all in ``_radius_bracket``, starts from the plan's degree bounds,
    each once its defect has the strict sign it needs.  Anderson-Bjorck
    regula falsi on alpha then narrows a bracket with defect(low^(-k)) > 0 >
    defect(high^(-k)), bisecting while the low end is infeasible and after
    a step that left the defect almost unchanged, until the radius bracket
    is ALPHA_BRACKET_ULPS ulps wide.  Every trial is a float radius r
    evaluated at alpha = r^(-k), so both returned ends were evaluated:
    ``propagate_certificate(h, low ** -k)`` puts the root's weight sum
    strictly above 1 (or is infeasible) and
    ``propagate_certificate(h, high ** -k)`` strictly below 1.  A radius
    whose defect rounds to exactly zero is normal to rounding; the nearest
    strict radii on either side of it become the ends.
    """
    low, high, _ = _radius_bracket(h, "alpha_normal_bracket")
    return low, high


def alpha_normal_radius(h: Hypergraph) -> float:
    """Spectral radius of a supertree: the midpoint of ``alpha_normal_bracket``."""
    # The private solver, not alpha_normal_bracket, so that a profile charges
    # the solve to the public function that was called.
    low, high, _ = _radius_bracket(h, "alpha_normal_radius")
    return 0.5 * (low + high)
