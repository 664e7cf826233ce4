"""Exhaustive desk-scale enumeration and ordering verification.

Every supertree with m edges arises from one with m-1 edges by attaching a
pendent edge at an existing vertex (each edge contributes exactly k-1 new
vertices), so growth plus canonical-key deduplication enumerates all
isomorphism classes.  Each candidate is spliced: its new edge, whose vertices
are fresh and larger than every old one, goes into the parent's sorted edge
tuple by bisection, with no re-sort or revalidation, which is exact (see
``hypergraph._attach_pendent_edge``), and is keyed once.  Its key comes from
its parent's centred tree: the candidate's tree is that tree plus one or two
nodes, so no candidate's edge list is read again.  Candidates grown at
vertices in one automorphism orbit of their parent are isomorphic and share
one encoding, so the verify-exhaustive benchmark's 3,719 candidates take
1,612 AHU passes.  Each new class keeps, in tuples, the labelled tree its key
was encoded from, and its growth context is derived from that tree when it
is grown (``_tree_context``); only the one-edge seed's is built from its
edges.  A key costs about 9 us there, the parent's context included,
against 10.5 us with contexts rebuilt from edges, 19.5 us with one pass per
candidate and 30 us from the edge list.  The
verifiers rank the classes by spectral radius and check the expected
top-of-order families, the branch-count partition ordering, the edge-moving
monotonicity on every admissible move of every class, and the non-pendent
reduction step.  Only ``random_supertree`` draws random numbers.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .certificates import (
    STRICTLY_SUBNORMAL,
    STRICTLY_SUPERNORMAL,
    alpha_normal_bracket,
    alpha_normal_radius,
    classify,
    t11m3_certificate,
)
from .constructors import broom, double_star, f_tree, hyperstar, move_edges, path, tree_power
from .errors import CounterexampleFound, EnumerationLimitError, SearchExhaustedError
from .hypergraph import (
    Hypergraph,
    _attach_pendent_edge,
    _debug_logger,
    _growth_context,
    _kept_tree,
    _strict_int,
    _tree_context,
    canonical_key,
    incidence_lists,
    is_supertree,
    vertex_stats,
)
from .spectral import (
    DEFAULT_TOL,
    TIE_TOL,
    double_star_power_radius,
    f_tree_power_radius,
    power_iteration,
)

DEFAULT_ENUM_LIMIT = 10


@dataclass(frozen=True)
class ReportEntry:
    key: str
    hypergraph: Hypergraph
    rho: float
    rank: int
    tie_with_next: bool


@dataclass(frozen=True)
class SpectraReport:
    """Isomorphism classes at fixed (k, m), ranked by spectral radius."""

    k: int
    m: int
    entries: tuple[ReportEntry, ...]


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one theorem verifier; failures raise CounterexampleFound instead."""

    name: str
    details: tuple[str, ...]
    data: dict


def enumerate_supertrees(m: int, k: int, limit: int = DEFAULT_ENUM_LIMIT) -> list[Hypergraph]:
    """One representative per isomorphism class of k-uniform supertrees with m edges.

    Output is sorted by canonical key, so the order is deterministic.  ``m``,
    ``k`` and ``limit`` must be ints (bools and floats raise ValueError),
    with m >= 1 and k >= 2.

    With DEBUG on for the ``supertrees`` logger, each grown level (edge
    counts 2..m; the one-edge seed is not grown) sends one record with its
    edge count, the candidates keyed, the grown keys encoded (one per
    attachment orbit of each parent) and the classes kept.
    """
    if _strict_int(m, "m") < 1:
        raise ValueError("m must be >= 1")
    if _strict_int(k, "k") < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m > _strict_int(limit, "limit"):
        raise EnumerationLimitError(f"m = {m} exceeds the enumeration limit {limit}")
    log = _debug_logger()
    first = hyperstar(1, k)
    reps = {canonical_key(first): (first, None)}
    for size in range(2, m + 1):
        grown: dict[bytes, tuple] = {}
        encoded = 0
        for h, tree in reps.values():
            # only the one-edge seed is read from its edges; every other
            # class grows from the tree its key was encoded from
            ctx = _growth_context(h) if tree is None else _tree_context(tree)
            for v in range(h.n):
                cand = _attach_pendent_edge(h, v, ctx)
                key = canonical_key(cand)
                if key not in grown:
                    # a new key is its orbit's first, so the memo holds its tree
                    grown[key] = cand, _kept_tree(ctx, v) if size < m else None
            # the context's last field memoizes one key and tree per orbit encoded
            encoded += len(ctx[-1])
        if log is not None:
            log.debug(
                "enumeration level: m=%d k=%d candidates=%d keys=%d classes=%d",
                size, k, sum(h.n for h, _ in reps.values()), encoded, len(grown),
            )
        reps = grown
    return [reps[key][0] for key in sorted(reps)]


def random_supertree(m: int, k: int, rng: random.Random) -> Hypergraph:
    """Uniform-attachment growth: each new pendent edge lands on a random vertex.

    ``m`` and ``k`` must be ints (bools and floats raise ValueError).
    """
    if _strict_int(m, "m") < 1:
        raise ValueError("m must be >= 1")
    edges = [tuple(range(_strict_int(k, "k")))]
    n = k
    for _ in range(m - 1):
        edges.append((rng.randrange(n),) + tuple(range(n, n + k - 1)))
        n += k - 1
    return Hypergraph(k=k, n=n, edges=tuple(edges))


def rank_spectra(m: int, k: int, limit: int = DEFAULT_ENUM_LIMIT) -> SpectraReport:
    """Rank all classes at (k, m) by spectral radius, descending.

    Each radius is ``alpha_normal_radius``, the midpoint of the certified
    certificate-solver bracket; power iteration stays the independent
    oracle the tests compare it with.  Rows are sorted by descending float
    midpoint and only then by canonical key, so the key decides only
    between bit-equal midpoints.  Cospectral classes whose midpoints land
    1-2 ulps apart by rounding follow those bits, not their keys; such
    neighbours are within the tie tolerance and flagged ``tie_with_next``
    on the higher-ranked entry, like every other pair within it.  Each
    class's key is the one its enumeration stored, so no class is keyed
    twice.  ``enumerate_supertrees`` checks ``m``, ``k`` and ``limit``.
    """
    rows = []
    for h in enumerate_supertrees(m, k, limit=limit):
        rows.append((canonical_key(h).decode("ascii"), h, alpha_normal_radius(h)))
    rows.sort(key=lambda r: (-r[2], r[0]))
    entries = []
    for i, (key, h, rho) in enumerate(rows):
        tie = i + 1 < len(rows) and rho - rows[i + 1][2] <= TIE_TOL
        entries.append(ReportEntry(key=key, hypergraph=h, rho=rho, rank=i + 1, tie_with_next=tie))
    return SpectraReport(k=k, m=m, entries=tuple(entries))


def report_to_dict(report: SpectraReport) -> dict:
    """Serializable form; reports over identical inputs are byte-stable."""
    return {
        "k": report.k,
        "m": report.m,
        "entries": [
            {
                "key": e.key,
                "edges": [list(t) for t in e.hypergraph.edges],
                "rho": e.rho,
                "method": "alpha",
                "rank": e.rank,
            }
            for e in report.entries
        ],
    }


def report_to_csv(report: SpectraReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "key", "rho", "method"])
    for e in report.entries:
        writer.writerow([e.rank, e.key, repr(e.rho), "alpha"])
    return buf.getvalue()


# --- theorem verifiers -------------------------------------------------------


def _expected_top(m: int, k: int) -> list[tuple[str, Hypergraph]]:
    if k == 2:
        top = [
            ("star", hyperstar(m, 2)),
            (f"S(1,{m - 2})", double_star(1, m - 2)),
        ]
        if m == 4:
            top.append(("P5", path(5)))
        else:
            top.append((f"S(2,{m - 3})", double_star(2, m - 3)))
            top.append((f"F{m + 1}", f_tree(m + 1)))
        return top
    top = [
        ("hyperstar", hyperstar(m, k)),
        (f"S(1,{m - 2}) power", tree_power(double_star(1, m - 2), k)),
    ]
    if m == 4:
        top.append(("broom(1,1,1)", broom(1, 1, 1, k)))
        top.append(("P5 power", tree_power(path(5), k)))
    else:
        top.append((f"S(2,{m - 3}) power", tree_power(double_star(2, m - 3), k)))
        top.append((f"broom(1,1,{m - 3})", broom(1, 1, m - 3, k)))
    return top


def verify_top_four(m: int, k: int, limit: int = DEFAULT_ENUM_LIMIT) -> VerificationRecord:
    """Check that the ranked enumeration starts with exactly the expected
    families, in order, with every consecutive gap above the tie tolerance.

    For m >= 5 the expected head has four entries; at m = 4 two of the
    families coincide and the collapsed three- or four-class order is checked
    instead.  The classes are ranked by ``rank_spectra``, that is by the
    certificate solver.  Raises CounterexampleFound on any mismatch, and
    ValueError unless ``m`` is an int >= 4 (``k`` and ``limit`` are checked by
    ``enumerate_supertrees``).
    """
    if _strict_int(m, "m") < 4:
        raise ValueError("ordering verification needs m >= 4")
    report = rank_spectra(m, k, limit=limit)
    expected = _expected_top(m, k)
    details = []
    for pos, (label, ref) in enumerate(expected):
        entry = report.entries[pos]
        ref_key = canonical_key(ref).decode("ascii")
        if entry.key != ref_key:
            raise CounterexampleFound(
                f"rank {pos + 1} at k={k}, m={m}: expected {label}, found a different class "
                f"with rho = {entry.rho:.9g}",
                offending=(label, entry.key, entry.rho),
            )
        details.append(f"rank {pos + 1}: {label}  rho = {entry.rho:.9g}")
    checked = min(len(expected) + 1, len(report.entries))
    for pos in range(checked - 1):
        gap = report.entries[pos].rho - report.entries[pos + 1].rho
        if gap <= TIE_TOL:
            raise CounterexampleFound(
                f"ranks {pos + 1} and {pos + 2} at k={k}, m={m} are tied (gap {gap:.3e})",
                offending=(report.entries[pos].key, report.entries[pos + 1].key, gap),
            )
    return VerificationRecord(
        name="top-four ordering",
        details=tuple(details),
        data={"k": k, "m": m, "report": report},
    )


def verify_partition_lemma(m: int, k: int) -> VerificationRecord:
    """Among all branch partitions (t1, t2, t3) of m-1, the (1, 1, m-3)
    supertree has the largest radius, with equality exactly when t2 = 1.

    Every verdict compares certified brackets from ``alpha_normal_bracket``.
    The one partition with t2 = 1 is (1, 1, m-3), the reference broom
    itself, so its bracket must equal the reference's ``(ref_low,
    ref_high)``; every other partition passes only if its ``high`` is below
    ``ref_low``.  The smallest separation ``ref_low - high`` and the
    partition attaining it are the tightest verdict, reported as the last
    detail line and as ``data["tightest"]`` (None when m < 6 leaves no
    partition with t2 >= 2).  At k = 3, m = 1,000 that separation is
    3.3e-3, far above the bracket's float error (ROADMAP item 2).  Power
    iteration on the reference broom is the independent oracle: its radius
    must lie within ``DEFAULT_TOL`` relative of the reference bracket.

    ``m`` and ``k`` must be ints (bools and floats raise ValueError)."""
    if _strict_int(m, "m") < 4:
        raise ValueError("partition verification needs m >= 4")
    if _strict_int(k, "k") < 3:
        raise ValueError("branch supertrees need k >= 3")
    ref = broom(1, 1, m - 3, k)
    ref_low, ref_high = alpha_normal_bracket(ref)
    rho_power = power_iteration(ref).rho
    if not ref_low * (1 - DEFAULT_TOL) <= rho_power <= ref_high * (1 + DEFAULT_TOL):
        raise CounterexampleFound(
            f"power oracle rho = {rho_power!r} at k={k} misses the reference bracket "
            f"[{ref_low!r}, {ref_high!r}]",
            offending=((1, 1, m - 3), rho_power, (ref_low, ref_high)),
        )
    details = [f"reference broom(1,1,{m - 3}): rho in [{ref_low!r}, {ref_high!r}]"]
    partitions = [
        (t1, t2, m - 1 - t1 - t2)
        for t1 in range(1, m)
        for t2 in range(t1, m)
        if m - 1 - t1 - t2 >= t2
    ]
    tightest = None
    for t in partitions:
        low, high = alpha_normal_bracket(broom(*t, k))
        mid = 0.5 * (low + high)
        if t[1] == 1:
            if (low, high) != (ref_low, ref_high):
                raise CounterexampleFound(
                    f"broom{t} at k={k} should tie the reference, bracket [{low!r}, {high!r}]",
                    offending=(t, (low, high), (ref_low, ref_high)),
                )
            details.append(f"broom{t}: rho = {mid:.9g} (equality case)")
        else:
            separation = ref_low - high
            if separation <= 0.0:
                raise CounterexampleFound(
                    f"broom{t} at k={k} not strictly below the reference, separation "
                    f"{separation:.3e}",
                    offending=(t, (low, high), (ref_low, ref_high)),
                )
            if tightest is None or separation < tightest[1]:
                tightest = (t, separation)
            details.append(f"broom{t}: rho = {mid:.9g} (strictly below)")
    if tightest is not None:
        details.append(f"tightest: broom{tightest[0]}, separation {tightest[1]:.3e}")
    return VerificationRecord(
        name="partition ordering",
        details=tuple(details),
        data={
            "k": k,
            "m": m,
            "ref_bracket": (ref_low, ref_high),
            "partitions": partitions,
            "tightest": tightest,
        },
    )


def verify_moving_edges(k: int = 3, m_max: int = 6, limit: int = DEFAULT_ENUM_LIMIT) -> VerificationRecord:
    """Exhaustive check that moving edges toward a heavier vertex raises the radius.

    For every class g of ``enumerate_supertrees(m, k, limit)``, 3 <= m <=
    m_max, every anchor edge e and every target u in e, the movable edges
    are those f != e at a vertex v != u of e whose weight x_v in the
    eigenvector of ``power_iteration(g)`` is at most x_u.  Every nonempty
    subset of them is moved onto u.  Two edges of a supertree share at most
    one vertex, so each moved branch is re-hung from v to u: the result is a
    supertree, with no multiple edge.  A move passes only if its
    ``alpha_normal_bracket`` lies strictly above g's (low2 > high);
    ``data["gaps"]`` holds these proven separations low2 - high in loop
    order, and ``data["tightest"]`` the smallest as (class key, u, moves,
    separation), with ``moves`` as ``move_edges`` takes them.

    The lemma allows x_v = x_u, and symmetric vertices carry weights equal
    up to rounding noise, so a weight within a relative 1e-8 of x_u counts
    as at most x_u: the moves do not hang on the last bits of the
    eigenvector.  Raises ValueError unless ``m_max`` is an int >= 3, and
    EnumerationLimitError when it exceeds ``limit``.
    """
    if _strict_int(m_max, "m_max") < 3:
        raise ValueError(f"m_max must be >= 3, got {m_max}")
    if m_max > _strict_int(limit, "limit"):
        raise EnumerationLimitError(f"m = {m_max} exceeds the enumeration limit {limit}")
    gaps = []
    classes = 0
    best = None
    for m in range(3, m_max + 1):
        for g in enumerate_supertrees(m, k, limit=limit):
            classes += 1
            x = power_iteration(g).x
            low, high = alpha_normal_bracket(g)
            inc = incidence_lists(g)
            for ei, e in enumerate(g.edges):
                for u in e:
                    movable = [
                        (fi, v) for v in e if v != u and x[u] >= x[v] * (1 - 1e-8)
                        for fi in inc[v] if fi != ei
                    ]
                    for size in range(1, len(movable) + 1):
                        for moves in itertools.combinations(movable, size):
                            g2 = move_edges(g, u, moves)
                            low2, high2 = alpha_normal_bracket(g2)
                            if low2 <= high:
                                raise CounterexampleFound(
                                    f"radius bracket [{low2!r}, {high2!r}] after moving {size} "
                                    f"edges is not strictly above [{low!r}, {high!r}]",
                                    offending=(g, u, moves),
                                )
                            gaps.append(low2 - high)
                            if best is None or gaps[-1] < best[-1]:
                                best = (g, u, moves, g2, gaps[-1])
    g, u, moves, g2, separation = best
    key, moved_key = (canonical_key(h).decode("ascii") for h in (g, g2))
    names = {}
    for m in range(4, m_max + 1):
        names.update((canonical_key(h).decode("ascii"), label) for label, h in _expected_top(m, k))
    return VerificationRecord(
        name="moving edges",
        details=(
            f"{len(gaps)} moves on {classes} classes at k={k}, 3 <= m <= {m_max}",
            f"radius gaps in [{separation:.9g}, {max(gaps):.9g}]",
            f"tightest: {names.get(key, key)} -> {names.get(moved_key, moved_key)}, "
            f"edges {[fi for fi, _ in moves]} onto vertex {u}, separation {separation:.3e}",
        ),
        data={"k": k, "m_max": m_max, "classes": classes, "moves": len(gaps), "gaps": gaps,
              "tightest": (key, u, moves, separation)},
    )


def verify_sandwich(m: int, k: int) -> VerificationRecord:
    """The broom(1,1,m-3) radius sits strictly between the f-tree power and
    double-star power closed forms, and the explicit certificates built at
    those endpoints classify as strictly sub/supernormal.

    The radius is the certified bracket ``(low, high)`` of
    ``alpha_normal_bracket``, whose midpoint is reported as ``mid``.  With
    ``lower`` the f-tree and ``upper`` the double-star closed form, it
    passes iff ``lower + 4 ulp(lower) < low`` and ``high < upper - 4
    ulp(upper)``.  The 4 ulps cover the closed forms' own rounding: against
    60-digit decimal arithmetic both err by at most 2.1 ulps for k in
    {3, 4, 5, 6, 8} and m up to 10^5 (all m below 3,000, then 76 sizes
    spaced evenly in log m), while at m = 10^4 the bracket clears them by at
    least 661 ulps.  Unlike a fixed absolute margin, this does not fail once
    the true gap shrinks below it as m grows.  Both endpoint certificates
    are built and classified exactly, at ``Fraction(alpha)`` with ``tol=0``:
    the deciding central-edge slack is about 1e-9 at m = 1,003 and 1e-12 at
    m = 10^4.  ``m`` and ``k`` must be ints (bools and floats raise
    ValueError).
    """
    if _strict_int(m, "m") < 4:
        raise ValueError("sandwich verification needs m >= 4")
    if _strict_int(k, "k") < 3:
        raise ValueError("sandwich verification needs k >= 3")
    lower = f_tree_power_radius(m, k)
    upper = double_star_power_radius(m, k)
    low, high = alpha_normal_bracket(broom(1, 1, m - 3, k))
    mid = 0.5 * (low + high)
    if not (lower + 4 * math.ulp(lower) < low and high < upper - 4 * math.ulp(upper)):
        raise CounterexampleFound(
            f"sandwich violated at k={k}, m={m}: the bracket [{low!r}, {high!r}] is not "
            f"4 ulps inside ({lower!r}, {upper!r})",
            offending=(lower, low, high, upper),
        )
    alpha_sub = double_star_power_radius(m, 2) ** -2
    alpha_sup = f_tree_power_radius(m, 2) ** -2
    verdicts = []
    for alpha in (alpha_sub, alpha_sup):
        exact = Fraction(alpha)
        cert = t11m3_certificate(m, k, exact)
        verdicts.append(classify(cert.host, cert, exact, tol=0))
    verdict_sub, verdict_sup = verdicts
    if verdict_sub.classification != STRICTLY_SUBNORMAL:
        raise CounterexampleFound(
            f"upper-endpoint certificate classified {verdict_sub.classification}",
            offending=(m, k, alpha_sub),
        )
    if verdict_sup.classification != STRICTLY_SUPERNORMAL or not verdict_sup.consistent:
        raise CounterexampleFound(
            f"lower-endpoint certificate classified {verdict_sup.classification}",
            offending=(m, k, alpha_sup),
        )
    return VerificationRecord(
        name="radius sandwich",
        details=(
            f"{lower:.9g} < rho(broom(1,1,{m - 3})) = {mid:.9g} < {upper:.9g}",
            f"certificate at alpha = {alpha_sub:.9g}: {verdict_sub.classification}",
            f"certificate at alpha = {alpha_sup:.9g}: {verdict_sup.classification}",
        ),
        data={"lower": lower, "mid": mid, "upper": upper, "k": k, "m": m},
    )


def reduce_non_pendent(t: Hypergraph) -> Hypergraph:
    """Produce a supertree with one fewer non-pendent vertex and a radius
    proven larger: its ``alpha_normal_bracket`` lies strictly above t's.

    Guided by the principal eigenvector from ``power_iteration(t)``: take a
    non-pendent vertex w of minimal weight, a non-pendent vertex u of
    maximal weight sharing an edge with w, and move every edge at w except
    the shared one onto u.  Two edges of a supertree share at most one
    vertex, so each moved branch is re-hung from w to u: the result is a
    supertree without a multiple edge, w turns pendent and no other
    pendency changes.  The weight condition x_u >= x_w makes the radius
    increase strictly; a move is accepted once its bracket's low end is
    above t's high end.

    Symmetric vertices carry weights equal up to rounding noise, so weights
    are compared by tie group: in ascending order, a weight above its
    group's first weight by more than a relative 1e-8 starts the next
    group.  Candidates w go by (group, vertex); a partner u needs a group at
    least w's and partners go by (higher group, vertex, shared edge).  The
    move thus does not hang on the last bits of the eigenvector.
    """
    if not is_supertree(t):
        raise ValueError("reduce_non_pendent requires a supertree")
    stats = vertex_stats(t)
    if stats.non_pendent_count < 2:
        raise ValueError("need at least two non-pendent vertices to reduce")
    x = power_iteration(t).x
    high = alpha_normal_bracket(t)[1]
    inc = incidence_lists(t)
    group: dict[int, int] = {}
    anchor, g = -math.inf, -1
    for v in sorted((v for v in range(t.n) if stats.degrees[v] != 1), key=x.__getitem__):
        if x[v] > anchor * (1 + 1e-8):
            anchor, g = x[v], g + 1
        group[v] = g
    for w in sorted(group, key=lambda v: (group[v], v)):
        partners = []
        for i in inc[w]:
            for u in t.edges[i]:
                if u != w and u in group and group[u] >= group[w]:
                    partners.append((-group[u], u, i))
        for _, u, shared_edge in sorted(partners):
            t2 = move_edges(t, u, [(i, w) for i in inc[w] if i != shared_edge])
            if alpha_normal_bracket(t2)[0] > high:
                return t2
    raise SearchExhaustedError("no eigenvector-guided move reduced the non-pendent count")
