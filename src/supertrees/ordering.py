"""Exhaustive desk-scale enumeration and ordering verification.

Every supertree with m edges arises from one with m-1 edges by attaching a
pendent edge at an existing vertex (each edge contributes exactly k-1 new
vertices), so growth plus canonical-key deduplication enumerates all
isomorphism classes.  The verifiers rank the classes by spectral radius and
check the expected top-of-order families, the branch-count partition
ordering, the edge-moving monotonicity, and the non-pendent reduction step.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from datetime import datetime, timezone

from .certificates import (
    STRICTLY_SUBNORMAL,
    STRICTLY_SUPERNORMAL,
    alpha_normal_radius,
    classify,
    t11m3_certificate,
)
from .constructors import broom, double_star, f_tree, hyperstar, is_hypertree, base_tree, move_edges, path, tree_power
from .errors import (
    CounterexampleFound,
    EnumerationLimitError,
    MultipleEdgeError,
    SearchExhaustedError,
)
from .hypergraph import Hypergraph, canonical_key, incidence_lists, is_supertree, vertex_stats
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    TIE_TOL,
    double_star_power_radius,
    f_tree_power_radius,
    power_formula_radius,
    power_iteration,
)

DEFAULT_ENUM_LIMIT = 7

#: Safe margin for "strictly larger" radius comparisons between two solver runs.
GAP_TOL = 1e-8


@dataclass(frozen=True)
class ReportEntry:
    key: str
    hypergraph: Hypergraph
    rho: float
    method: str
    rank: int
    tie_with_next: bool


@dataclass(frozen=True)
class SpectraReport:
    """Isomorphism classes at fixed (k, m), ranked by spectral radius."""

    k: int
    m: int
    entries: tuple[ReportEntry, ...]
    generated_at: str


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one theorem verifier; failures raise CounterexampleFound instead."""

    name: str
    passed: bool
    details: tuple[str, ...]
    data: dict


def _attach_pendent_edge(h: Hypergraph, v: int) -> Hypergraph:
    edge = (v,) + tuple(range(h.n, h.n + h.k - 1))
    return Hypergraph(k=h.k, n=h.n + h.k - 1, edges=h.edges + (edge,))


def single_edge(k: int) -> Hypergraph:
    """The one-edge k-uniform supertree."""
    return Hypergraph(k=k, n=k, edges=(tuple(range(k)),))


def enumerate_supertrees(m: int, k: int, limit: int = DEFAULT_ENUM_LIMIT) -> list[Hypergraph]:
    """One representative per isomorphism class of k-uniform supertrees with m edges.

    Output is sorted by canonical key, so the order is deterministic.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > limit:
        raise EnumerationLimitError(f"m = {m} exceeds the enumeration limit {limit}")
    reps = {canonical_key(single_edge(k)): single_edge(k)}
    for _ in range(m - 1):
        grown: dict[bytes, Hypergraph] = {}
        for h in reps.values():
            for v in range(h.n):
                cand = _attach_pendent_edge(h, v)
                grown.setdefault(canonical_key(cand), cand)
        reps = grown
    return [reps[key] for key in sorted(reps)]


def random_supertree(m: int, k: int, rng: random.Random) -> Hypergraph:
    """Uniform-attachment growth: each new pendent edge lands on a random vertex."""
    edges = [tuple(range(k))]
    n = k
    for _ in range(m - 1):
        edges.append((rng.randrange(n),) + tuple(range(n, n + k - 1)))
        n += k - 1
    return Hypergraph(k=k, n=n, edges=tuple(edges))


def _class_radius(
    h: Hypergraph, method: str, tol: float, max_iter: int
) -> tuple[float, str]:
    if method == "power":
        return power_iteration(h, tol=tol, max_iter=max_iter).rho, "power"
    if method == "alpha":
        return alpha_normal_radius(h), "alpha"
    if method == "formula":
        if is_hypertree(h):
            return power_formula_radius(base_tree(h), h.k, tol=tol), "formula"
        return power_iteration(h, tol=tol, max_iter=max_iter).rho, "power"
    raise ValueError(f"unknown method {method!r}")


def rank_spectra(
    m: int,
    k: int,
    method: str = "power",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> SpectraReport:
    """Rank all classes at (k, m) by spectral radius, descending.

    ``method`` is one of power, alpha, or formula; formula applies to powers
    of ordinary trees and falls back to power iteration elsewhere, with the
    method actually used recorded per entry.  Ties within the tie tolerance
    are flagged on the higher-ranked entry.
    """
    rows = []
    for h in enumerate_supertrees(m, k, limit=limit):
        rho, tag = _class_radius(h, method, tol, max_iter)
        rows.append((canonical_key(h).decode("ascii"), h, rho, tag))
    rows.sort(key=lambda r: (-r[2], r[0]))
    entries = []
    for i, (key, h, rho, tag) in enumerate(rows):
        tie = i + 1 < len(rows) and rho - rows[i + 1][2] <= TIE_TOL
        entries.append(
            ReportEntry(key=key, hypergraph=h, rho=rho, method=tag, rank=i + 1, tie_with_next=tie)
        )
    return SpectraReport(
        k=k,
        m=m,
        entries=tuple(entries),
        generated_at=datetime.now(timezone.utc).isoformat(),
    )


def report_to_dict(report: SpectraReport) -> dict:
    """Serializable form; the timestamp is deliberately left out so reports
    over identical inputs are byte-stable."""
    return {
        "k": report.k,
        "m": report.m,
        "entries": [
            {
                "key": e.key,
                "edges": [list(t) for t in e.hypergraph.edges],
                "rho": e.rho,
                "method": e.method,
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
        writer.writerow([e.rank, e.key, repr(e.rho), e.method])
    return buf.getvalue()


# --- theorem verifiers -------------------------------------------------------


def _expected_top(m: int, k: int) -> list[tuple[str, Hypergraph]]:
    if k == 2:
        top = [
            ("star", hyperstar(m, 2)),
            (f"S(1,{m - 2})", tree_power(double_star(1, m - 2), 2)),
        ]
        if m == 4:
            top.append(("P5", tree_power(path(5), 2)))
        else:
            top.append((f"S(2,{m - 3})", tree_power(double_star(2, m - 3), 2)))
            top.append((f"F{m + 1}", tree_power(f_tree(m + 1), 2)))
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


def verify_top_four(
    m: int,
    k: int,
    method: str = "power",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> VerificationRecord:
    """Check that the ranked enumeration starts with exactly the expected
    families, in order, with every consecutive gap above the tie tolerance.

    For m >= 5 the expected head has four entries; at m = 4 two of the
    families coincide and the collapsed three- or four-class order is checked
    instead.  Raises CounterexampleFound on any mismatch.
    """
    if m < 4:
        raise ValueError("ordering verification needs m >= 4")
    report = rank_spectra(m, k, method=method, tol=tol, max_iter=max_iter, limit=limit)
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
        passed=True,
        details=tuple(details),
        data={"k": k, "m": m, "report": report},
    )


def verify_partition_lemma(
    m: int,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> VerificationRecord:
    """Among all branch partitions (t1, t2, t3) of m-1, the (1, 1, m-3)
    supertree has the largest radius, with equality exactly when t2 = 1."""
    if m < 4:
        raise ValueError("partition verification needs m >= 4")
    if k < 3:
        raise ValueError("branch supertrees need k >= 3")
    rho_ref = power_iteration(broom(1, 1, m - 3, k), tol=tol, max_iter=max_iter).rho
    details = [f"reference broom(1,1,{m - 3}): rho = {rho_ref:.9g}"]
    partitions = [
        (t1, t2, m - 1 - t1 - t2)
        for t1 in range(1, m)
        for t2 in range(t1, m)
        if m - 1 - t1 - t2 >= t2
    ]
    for t in partitions:
        rho_t = power_iteration(broom(*t, k), tol=tol, max_iter=max_iter).rho
        gap = rho_ref - rho_t
        if t[1] == 1:
            if abs(gap) > TIE_TOL:
                raise CounterexampleFound(
                    f"broom{t} at k={k} should tie the reference, gap {gap:.3e}",
                    offending=(t, rho_t, rho_ref),
                )
            details.append(f"broom{t}: rho = {rho_t:.9g} (equality case)")
        else:
            if gap <= TIE_TOL:
                raise CounterexampleFound(
                    f"broom{t} at k={k} not strictly below the reference, gap {gap:.3e}",
                    offending=(t, rho_t, rho_ref),
                )
            details.append(f"broom{t}: rho = {rho_t:.9g} (strictly below)")
    return VerificationRecord(
        name="partition ordering",
        passed=True,
        details=tuple(details),
        data={"k": k, "m": m, "rho_ref": rho_ref, "partitions": partitions},
    )


def verify_moving_edges(
    trials: int = 50,
    seed: int = 1729,
    k: int = 3,
    m_max: int = 6,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> VerificationRecord:
    """Randomized check that moving edges toward a heavier vertex raises the radius.

    Each trial grows a random supertree, picks an anchor edge, a target u in
    it, and a nonempty set of adjacent edges whose shared vertices all carry
    eigenvector weight at most x_u, then moves them onto u.  Anchoring inside
    one edge keeps the result a supertree and free of multiple edges.
    """
    rng = random.Random(seed)
    gaps = []
    attempts = 0
    while len(gaps) < trials:
        attempts += 1
        if attempts > 1000 * trials:
            raise SearchExhaustedError("could not assemble enough valid moving-edge trials")
        g = random_supertree(rng.randint(3, m_max), k, rng)
        pair = power_iteration(g, tol=tol, max_iter=max_iter)
        x = pair.x
        edge_ids = list(range(g.m))
        rng.shuffle(edge_ids)
        performed = False
        for ei in edge_ids:
            e = g.edges[ei]
            u = rng.choice(e)
            movable = []
            for fi, f in enumerate(g.edges):
                if fi == ei:
                    continue
                shared = set(f) & set(e)
                if len(shared) != 1:
                    continue
                v = shared.pop()
                if v != u and u not in f and x[u] >= x[v]:
                    movable.append((fi, v))
            if not movable:
                continue
            moves = rng.sample(movable, rng.randint(1, len(movable)))
            try:
                g2 = move_edges(g, u, moves)
            except MultipleEdgeError:
                continue
            if not is_supertree(g2):
                continue
            rho2 = power_iteration(g2, tol=tol, max_iter=max_iter).rho
            if rho2 - pair.rho <= -tol:
                raise CounterexampleFound(
                    f"radius dropped from {pair.rho:.9g} to {rho2:.9g} after moving "
                    f"{len(moves)} edges",
                    offending=(g, u, tuple(moves)),
                )
            gaps.append(rho2 - pair.rho)
            performed = True
            break
        if not performed:
            continue
    return VerificationRecord(
        name="moving edges",
        passed=True,
        details=(
            f"{trials} trials at k={k}, m <= {m_max}, seed {seed}",
            f"radius gaps in [{min(gaps):.9g}, {max(gaps):.9g}]",
        ),
        data={"gaps": gaps, "seed": seed, "k": k, "m_max": m_max},
    )


def verify_sandwich(
    m: int,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    margin: float = 1e-6,
) -> VerificationRecord:
    """The broom(1,1,m-3) radius sits strictly between the f-tree power and
    double-star power closed forms, and the explicit certificates built at
    those endpoints classify as strictly sub/supernormal."""
    if m < 4:
        raise ValueError("sandwich verification needs m >= 4")
    if k < 3:
        raise ValueError("sandwich verification needs k >= 3")
    lower = f_tree_power_radius(m, k)
    upper = double_star_power_radius(m, k)
    mid = power_iteration(broom(1, 1, m - 3, k), tol=tol, max_iter=max_iter).rho
    if not (lower + margin < mid < upper - margin):
        raise CounterexampleFound(
            f"sandwich violated at k={k}, m={m}: {lower:.9g} < {mid:.9g} < {upper:.9g} fails",
            offending=(lower, mid, upper),
        )
    alpha_sub = double_star_power_radius(m, 2) ** -2
    alpha_sup = f_tree_power_radius(m, 2) ** -2
    cert_sub = t11m3_certificate(m, k, alpha_sub)
    cert_sup = t11m3_certificate(m, k, alpha_sup)
    verdict_sub = classify(cert_sub.host, cert_sub, alpha_sub)
    verdict_sup = classify(cert_sup.host, cert_sup, alpha_sup)
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
        passed=True,
        details=(
            f"{lower:.9g} < rho(broom(1,1,{m - 3})) = {mid:.9g} < {upper:.9g}",
            f"certificate at alpha = {alpha_sub:.9g}: {verdict_sub.classification}",
            f"certificate at alpha = {alpha_sup:.9g}: {verdict_sup.classification}",
        ),
        data={"lower": lower, "mid": mid, "upper": upper, "k": k, "m": m},
    )


def reduce_non_pendent(
    t: Hypergraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Hypergraph:
    """Produce a supertree with one fewer non-pendent vertex and a larger radius.

    Guided by the principal eigenvector: take a non-pendent vertex w of
    minimal weight, a non-pendent vertex u of maximal weight sharing an edge
    with w, and move every edge at w except the shared one onto u.  The
    weight condition x_u >= x_w makes the radius increase strictly, w turns
    pendent, and no other pendency changes.
    """
    if not is_supertree(t):
        raise ValueError("reduce_non_pendent requires a supertree")
    stats = vertex_stats(t)
    if stats.non_pendent_count < 2:
        raise ValueError("need at least two non-pendent vertices to reduce")
    pair = power_iteration(t, tol=tol, max_iter=max_iter)
    x = pair.x
    inc = incidence_lists(t)
    nonpend = sorted(
        (v for v in range(t.n) if stats.degrees[v] != 1), key=lambda v: (x[v], v)
    )
    for w in nonpend:
        partners = []
        for i in inc[w]:
            for u in t.edges[i]:
                if u != w and stats.degrees[u] > 1 and x[u] >= x[w]:
                    partners.append((-x[u], u, i))
        for _, u, shared_edge in sorted(partners):
            moves = [(i, w) for i in inc[w] if i != shared_edge]
            try:
                t2 = move_edges(t, u, moves)
            except MultipleEdgeError:
                continue
            if not is_supertree(t2):
                continue
            if vertex_stats(t2).non_pendent_count != stats.non_pendent_count - 1:
                continue
            rho2 = power_iteration(t2, tol=tol, max_iter=max_iter).rho
            if rho2 > pair.rho + GAP_TOL:
                return t2
    raise SearchExhaustedError("no eigenvector-guided move reduced the non-pendent count")
