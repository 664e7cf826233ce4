"""Weighted incidence certificates for bounding spectral radii.

A weighted incidence matrix assigns a positive weight B(v, e) to every
incident vertex-edge pair.  Comparing the per-vertex weight sums against 1
and the per-edge weight products against a parameter alpha classifies the
pair (H, B, alpha) as normal, strictly subnormal, or strictly supernormal;
the strict cases bound the spectral radius by alpha^(-1/k) from above or
below.  On supertrees the normality conditions pin B down uniquely once
alpha is fixed, which turns the spectral radius into the root of a scalar
monotone function of alpha.  ``alpha_normal_bracket`` finds that root with a
safeguarded Illinois iteration and returns the radius bracket certified by
the strictly subnormal and strictly supernormal weights at its two ends;
``alpha_normal_radius`` returns the bracket's midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constructors import broom
from .errors import BracketError, IncidenceMismatchError, PositivityError
from .hypergraph import Hypergraph, incidence_lists, vertex_stats

DEFAULT_CERT_TOL = 1e-9
#: The radius solver stops once its bracket is this many ulps wide.
ALPHA_BRACKET_ULPS = 4
#: Guard on defect evaluations per solve; bisection alone needs about 60.
ALPHA_MAX_EVALS = 200

NORMAL = "normal"
STRICTLY_SUBNORMAL = "strictly-subnormal"
STRICTLY_SUPERNORMAL = "strictly-supernormal"
NEITHER = "neither"


@dataclass(frozen=True)
class WeightedIncidence:
    """Positive weights on exactly the incident (vertex, edge index) pairs."""

    host: Hypergraph
    entries: dict[tuple[int, int], float] = field(compare=False)

    def __post_init__(self):
        expected = {(v, i) for i, e in enumerate(self.host.edges) for v in e}
        got = set(self.entries)
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise IncidenceMismatchError(
                f"entries do not match incidence (missing {missing}, extra {extra})"
            )
        for pair, w in self.entries.items():
            if not w > 0.0:
                raise PositivityError(f"weight at {pair} must be positive, got {w}")

    def weight(self, v: int, e_idx: int) -> float:
        return self.entries[(v, e_idx)]


@dataclass(frozen=True)
class CertificateVerdict:
    """Classification of (H, B, alpha) with per-constraint slacks.

    ``vertex_slacks[v]`` is 1 minus the weight sum at v; ``edge_slacks[i]``
    is the weight product over edge i minus alpha.  ``consistent`` reports
    whether the weights admit a global potential (trivially true on
    acyclic input).
    """

    alpha: float
    classification: str
    vertex_slacks: tuple[float, ...]
    edge_slacks: tuple[float, ...]
    consistent: bool


def _consistent(h: Hypergraph, b: WeightedIncidence, tol: float) -> bool:
    """Cycle products equal 1, checked via potentials over a spanning structure.

    Within a single edge the ratio constraints compose exactly, so only
    genuine vertex-edge cycles can fail; acyclic hypergraphs always pass.
    """
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


def classify(
    h: Hypergraph,
    b: WeightedIncidence,
    alpha: float,
    tol: float = DEFAULT_CERT_TOL,
) -> CertificateVerdict:
    """Evaluate vertex sums and edge products and assign the strongest class.

    A slack within ``tol`` of zero counts as an equality; "strict" means at
    least one slack lies beyond ``tol`` on the permitted side.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if b.host != h:
        raise IncidenceMismatchError("weighted incidence was built for a different hypergraph")
    sums = [0.0] * h.n
    prods = [1.0] * h.m
    for (v, i), w in b.entries.items():
        sums[v] += w
        prods[i] *= w
    vertex_slacks = tuple(1.0 - s for s in sums)
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
    decided by the central edge alone.

    Requires 0 < alpha < 1/(m-3) so all weights stay positive.
    """
    if m < 4:
        raise ValueError("t11m3_certificate needs m >= 4")
    if not 0.0 < alpha < 1.0 / (m - 3):
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
                entries[(v, i)] = 1.0
    entries[(0, 1)] = alpha
    entries[(0, 0)] = 1.0 - alpha
    entries[(1, 2)] = alpha
    entries[(1, 0)] = 1.0 - alpha
    for i in range(3, m):
        entries[(2, i)] = alpha
    entries[(2, 0)] = 1.0 - (m - 3) * alpha
    return WeightedIncidence(host=host, entries=entries)


# --- leaf-to-root propagation and the bracketing radius solver --------------


@dataclass(frozen=True)
class _Plan:
    """A supertree rooted once, for repeated propagation at different alphas.

    The root is the first vertex of maximum degree (every edge of a
    hyperstar is pendent, so rooting inside a non-pendent edge is not always
    possible; the scalar equation below has the same unique root either
    way).  ``steps`` lists every edge deepest first as (edge index, parent
    vertex, child vertices in edge order), so each child's carried sum is
    complete by the time its parent edge is reached.
    """

    n: int
    root: int
    steps: tuple[tuple[int, int, tuple[int, ...]], ...]


def _plan(h: Hypergraph, caller: str) -> _Plan:
    """Root ``h`` and order its edges; raises ValueError naming ``caller``
    unless ``h`` is a supertree.

    The breadth-first search doubles as the supertree test: with
    m(k-1) = n-1 it reaches every vertex exactly when ``h`` is connected.
    """
    if h.m * (h.k - 1) != h.n - 1:
        raise ValueError(f"{caller} requires a supertree")
    degrees = vertex_stats(h).degrees
    root = degrees.index(max(degrees))
    inc = incidence_lists(h)
    used = [False] * h.m
    order = [root]
    steps = []
    for v in order:
        for i in inc[v]:
            if not used[i]:
                used[i] = True
                children = tuple(w for w in h.edges[i] if w != v)
                steps.append((i, v, children))
                order.extend(children)
    if len(set(order)) != h.n:
        raise ValueError(f"{caller} requires a supertree")
    steps.reverse()
    return _Plan(n=h.n, root=root, steps=tuple(steps))


def _propagate(
    plan: _Plan, alpha: float, entries: dict[tuple[int, int], float] | None = None
) -> float:
    """Force the unique weights meeting all non-root constraints at this alpha.

    Away from the root every vertex sum is pinned to 1 and every edge product
    to alpha; the returned defect is the root vertex's sum minus 1.  A forced
    non-positive weight means alpha is already too large, reported as +inf.
    The forced weights are written to ``entries`` when it is given.
    """
    carried = [0.0] * plan.n
    for i, p, children in plan.steps:
        prod = 1.0
        for v in children:
            w = 1.0 - carried[v]
            if w <= 0.0:
                return math.inf
            if entries is not None:
                entries[(v, i)] = w
            prod *= w
        bp = alpha / prod
        if entries is not None:
            entries[(p, i)] = bp
        carried[p] += bp
    return carried[plan.root] - 1.0


def propagate_certificate(h: Hypergraph, alpha: float) -> WeightedIncidence:
    """The propagated weights as a certificate; everything but the root's
    vertex sum holds with equality, so its sign decides sub vs supernormal.

    Raises PositivityError when alpha is large enough to force a
    non-positive weight.
    """
    plan = _plan(h, "propagation")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    entries: dict[tuple[int, int], float] = {}
    if _propagate(plan, alpha, entries) == math.inf:
        raise PositivityError(f"propagation infeasible at alpha = {alpha}")
    return WeightedIncidence(host=h, entries=entries)


def _strict_end(defect, x: float, end: float, sign: float) -> float:
    """The first radius, stepping from the zero-defect ``x`` toward ``end``
    by doubling numbers of ulps, whose defect has the strict sign ``sign``;
    ``end`` itself (already strict) once the steps reach it."""
    step = math.ulp(x)
    while True:
        y = x + step if end > x else x - step
        if (y >= end) if end > x else (y <= end):
            return end
        if sign * defect(y) > 0.0:
            return y
        step *= 2.0


def _radius_bracket(h: Hypergraph, caller: str) -> tuple[float, float]:
    plan = _plan(h, caller)
    k = h.k

    def defect(r: float) -> float:
        return _propagate(plan, r**-k)

    low, high = 1.0, (max(vertex_stats(h).degrees) * h.m) ** (1.0 / k)
    f_low = defect(low)
    if f_low <= 0.0:
        # Radius 1 sits exactly at the bracket bottom (the one-edge supertree).
        return 1.0, 1.0
    f_high = defect(high)
    if not f_high < 0.0:
        raise BracketError(
            f"no sign change: defect {f_high:.3e} at radius {high}", bracket=(low, high)
        )
    kept = 0  # +1 after low moved, -1 after high moved
    for _ in range(ALPHA_MAX_EVALS):
        if high - low <= ALPHA_BRACKET_ULPS * math.ulp(high):
            return low, high
        a_low, a_high = low**-k, high**-k
        if f_low == math.inf:
            alpha = 0.5 * (a_low + a_high)
        else:
            alpha = a_high + (a_low - a_high) * (f_high / (f_high - f_low))
        # The trial radius, kept at least one ulp inside the bracket.
        x = min(max(alpha ** (-1.0 / k), low + math.ulp(high)), high - math.ulp(high))
        fx = defect(x)
        if fx > 0.0:
            low, f_low = x, fx
            if kept > 0:
                f_high *= 0.5
            kept = 1
        elif fx < 0.0:
            high, f_high = x, fx
            if kept < 0:
                f_low *= 0.5
            kept = -1
        else:
            return _strict_end(defect, x, low, 1.0), _strict_end(defect, x, high, -1.0)
    raise BracketError(
        f"radius bracket [{low!r}, {high!r}] still open after {ALPHA_MAX_EVALS} evaluations",
        bracket=(low, high),
    )


def alpha_normal_bracket(h: Hypergraph) -> tuple[float, float]:
    """Certified bracket ``(low, high)`` on the spectral radius of a supertree.

    The propagated root-sum defect is strictly increasing in alpha, negative
    below the normal point and positive (or infeasible) above it, exactly the
    two directions in which strict sub/supernormality bound the radius.  An
    Illinois (modified regula falsi) iteration on alpha narrows a bracket
    with defect(low^(-k)) > 0 > defect(high^(-k)), bisecting while the low
    end is infeasible, until the radius bracket is ALPHA_BRACKET_ULPS ulps
    wide.  Every trial alpha is rounded to r^(-k) for a float radius r, so
    both returned ends were evaluated: ``propagate_certificate(h, low ** -k)``
    puts the root's weight sum strictly above 1 (or is infeasible) and
    ``propagate_certificate(h, high ** -k)`` strictly below 1.  A radius
    whose defect rounds to exactly zero is normal to rounding; the nearest
    strict radii on either side of it become the ends.
    """
    return _radius_bracket(h, "alpha_normal_bracket")


def alpha_normal_radius(h: Hypergraph) -> float:
    """Spectral radius of a supertree: the midpoint of ``alpha_normal_bracket``."""
    # The private solver, not alpha_normal_bracket, so that a profile charges
    # the solve to the public function that was called.
    low, high = _radius_bracket(h, "alpha_normal_radius")
    return 0.5 * (low + high)
