"""Command-line front end: gen, rho, certify, verify, enumerate.

Human output prints 9 significant digits; json and csv print full
round-trip precision.  The enumeration cap is the CLI's alone, and the
SUPERTREE_ENUM_LIMIT environment variable overrides its DEFAULT_ENUM_LIMIT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .certificates import (
    DEFAULT_CERT_TOL,
    NORMAL,
    STRICTLY_SUBNORMAL,
    STRICTLY_SUPERNORMAL,
    WeightedIncidence,
    _radius_bracket,
    classify,
    t11m3_certificate,
)
from .constructors import broom, double_star, f_tree, hyperstar, path, star, tree_power
from .errors import CounterexampleFound, EnumerationLimitError, SupertreeError
from .hypergraph import Hypergraph, from_interchange, is_supertree, to_interchange, vertex_stats
from .ordering import (
    rank_spectra,
    report_to_csv,
    report_to_dict,
    verify_moving_edges,
    verify_partition_lemma,
    verify_sandwich,
    verify_top_four,
)
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, power_iteration, tensor_apply

DEFAULT_ENUM_LIMIT = 10


def _enum_limit(m: int) -> int:
    """``m``, checked against the enumeration cap before anything enumerates."""
    raw = os.environ.get("SUPERTREE_ENUM_LIMIT", str(DEFAULT_ENUM_LIMIT))
    # ASCII digits only: int() alone would also take "1_0", " 9 " and "\u0669"
    limit = int(raw) if raw.isascii() and raw.isdigit() else 0
    if limit < 1:
        raise ValueError(f"SUPERTREE_ENUM_LIMIT must be a positive integer, got {raw!r}")
    if m > limit:
        raise EnumerationLimitError(f"m = {m} exceeds the enumeration limit {limit}")
    return m


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one, with
    one trailing newline, added when ``text`` has none."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_hypergraph(path_arg: str) -> Hypergraph:
    with open(path_arg, encoding="utf-8") as fh:
        return from_interchange(json.load(fh))


def _parse_ints(text: str, want: int, flag: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SupertreeError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if len(vals) != want:
        raise SupertreeError(f"{flag} expects {want} comma-separated integers, got {text!r}")
    return vals


#: Trees that ``--tree KIND:N`` builds from a vertex count N, with the least N.
_TREES_BY_SIZE = {"star": (star, 2), "path": (path, 2), "f": (f_tree, 5)}


def _parse_tree(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "double-star":
        a, b = _parse_ints(rest, 2, "--tree double-star")
        if min(a, b) < 1:
            raise SupertreeError(f"--tree double-star:A,B needs A, B >= 1, got {a},{b}")
        return double_star(a, b)
    if kind not in _TREES_BY_SIZE:
        raise SupertreeError(f"unknown tree spec {spec!r} (use star:N, path:N, double-star:A,B, f:N)")
    build, least = _TREES_BY_SIZE[kind]
    try:
        n = int(rest)
    except ValueError:
        raise SupertreeError(f"--tree {kind}:N expects an integer vertex count N, got {rest!r}") from None
    if n < least:
        raise SupertreeError(f"--tree {kind}:N needs N >= {least} vertices, got {n}")
    return build(n)


def _cmd_gen(args) -> int:
    fam = args.family
    if args.k < 2:
        raise SupertreeError(f"gen {fam} needs --k >= 2, got {args.k}")
    if fam == "hyperstar":
        if args.m is None:
            raise SupertreeError("gen hyperstar needs --m")
        if args.m < 1:
            raise SupertreeError(f"gen hyperstar needs --m >= 1 edge, got {args.m}")
        h = hyperstar(args.m, args.k)
    elif fam == "double-star-power":
        if args.t is None:
            raise SupertreeError("gen double-star-power needs --t A,B")
        a, b = _parse_ints(args.t, 2, "--t")
        if min(a, b) < 1:
            raise SupertreeError(f"gen double-star-power needs --t A,B with A, B >= 1, got {a},{b}")
        h = tree_power(double_star(a, b), args.k)
    elif fam == "tree-power":
        if args.tree is None:
            raise SupertreeError("gen tree-power needs --tree")
        h = tree_power(_parse_tree(args.tree), args.k)
    elif fam == "broom":
        if args.t is None:
            raise SupertreeError("gen broom needs --t T1,T2,T3")
        if args.k < 3:
            raise SupertreeError(
                f"gen broom needs --k >= 3 (a 2-edge cannot hold three branch vertices), got {args.k}"
            )
        t1, t2, t3 = _parse_ints(args.t, 3, "--t")
        if not 1 <= t1 <= t2 <= t3:
            raise SupertreeError(
                f"gen broom needs --t T1,T2,T3 with 1 <= T1 <= T2 <= T3, got {t1},{t2},{t3}"
            )
        h = broom(t1, t2, t3, args.k)
    elif fam == "f-tree-power":
        if args.m is None:
            raise SupertreeError("gen f-tree-power needs --m (edge count, >= 4)")
        if args.m < 4:
            raise SupertreeError(f"gen f-tree-power needs --m >= 4 edges, got {args.m}")
        h = tree_power(f_tree(args.m + 1), args.k)
    else:  # path-power
        if args.m is None:
            raise SupertreeError("gen path-power needs --m (edge count)")
        if args.m < 1:
            raise SupertreeError(f"gen path-power needs --m >= 1 edge, got {args.m}")
        h = tree_power(path(args.m + 1), args.k)
    text = json.dumps(to_interchange(h), indent=2, sort_keys=True)
    _emit(text, args.out)
    summary = f"n={h.n} m={h.m} k={h.k} N2={vertex_stats(h).non_pendent_count}"
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


def _cmd_rho(args) -> int:
    h = _load_hypergraph(args.file)
    # input checks, made under every --method even where tol and max_iter go unused
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {args.tol!r}")
    if args.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    method = args.method
    if method == "auto":
        method = "alpha" if is_supertree(h) else "power"
    if method == "power":
        pair = power_iteration(h, tol=args.tol, max_iter=args.max_iter)
        # the returned vector's Collatz-Wielandt bracket, with the stop
        # test's formula: the bracket that stopped the solve, rho its midpoint
        ratios = [a / xi ** (h.k - 1) for a, xi in zip(tensor_apply(h, pair.x), pair.x)]
        payload = {
            "rho": pair.rho,
            "low": min(ratios),
            "high": max(ratios),
            "residual": pair.residual,
            "iterations": pair.iterations,
        }
        line = (
            f"rho = {_fmt(pair.rho)}  method = power  "
            f"residual = {pair.residual:.3e}  iterations = {pair.iterations}"
        )
    else:
        # the solver behind alpha_normal_radius, for its bracket and count
        low, high, evaluations = _radius_bracket(h, "alpha_normal_radius")
        rho = 0.5 * (low + high)
        payload = {"rho": rho, "low": low, "high": high, "evaluations": evaluations}
        line = f"rho = {_fmt(rho)}  method = alpha"
    if args.output == "json":
        print(json.dumps({method: payload}, sort_keys=True))
    else:
        print(line)
    return 0


def _implication(verdict, k: int) -> str:
    bound = verdict.alpha ** (-1.0 / k)
    if verdict.classification == STRICTLY_SUBNORMAL:
        return f"implies rho < {_fmt(bound)}"
    if verdict.classification == STRICTLY_SUPERNORMAL:
        if verdict.consistent:
            return f"implies rho > {_fmt(bound)}"
        return "no bound (supernormal but not consistent)"
    if verdict.classification == NORMAL:
        return f"rho = {_fmt(bound)} within tolerance"
    return "no bound implied"


def _field(obj: dict, name: str, kind=int):
    """A certificate field that must be a JSON integer (``kind=int``) or a
    finite JSON number (``kind=(int, float)``, returned as a float); bools,
    strings, NaN, infinities and, for integers, floats are rejected, not
    coerced."""
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is int else "a number"
        raise SupertreeError(f"certificate {name!r} must be {noun}, got {value!r}")
    if kind is int:
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise SupertreeError(f"certificate {name!r} must be a finite number, got {value!r}")
    return value


def _cmd_certify(args) -> int:
    if args.construct and args.certificate:
        raise SupertreeError("certify takes --certificate FILE or --construct t11m3, not both")
    if args.alpha is not None and not math.isfinite(args.alpha):
        raise SupertreeError(f"--alpha must be a finite number, got {args.alpha!r}")
    h = _load_hypergraph(args.file)
    if args.construct == "t11m3":
        if args.alpha is None:
            raise SupertreeError("certify --construct t11m3 needs --alpha")
        if h.m < 4 or h != broom(1, 1, h.m - 3, h.k):
            raise SupertreeError(
                "t11m3 construction requires the canonical broom(1,1,m-3) labeling "
                "(generate it with: gen broom --t 1,1,<m-3>)"
            )
        alpha = args.alpha
        cert = t11m3_certificate(h.m, h.k, alpha)
    elif args.certificate:
        with open(args.certificate, encoding="utf-8") as fh:
            obj = json.load(fh)
        cert_host = from_interchange(obj)
        if cert_host != h:
            raise SupertreeError("certificate file describes a different hypergraph")
        if "B" not in obj:
            raise SupertreeError('certificate file is missing the "B" weight triples')
        entries = {}
        try:
            for t in obj["B"]:
                pair = _field(t, "v"), _field(t, "e")
                if pair in entries:
                    raise SupertreeError(f"certificate repeats the weight of (v, e) = {pair}")
                entries[pair] = _field(t, "w", (int, float))
        except (KeyError, TypeError) as exc:
            raise SupertreeError(f"malformed certificate weight triple: {exc!r}") from exc
        cert = WeightedIncidence(host=h, entries=entries)
        if args.alpha is not None:
            alpha = args.alpha
        elif "alpha" in obj:
            alpha = _field(obj, "alpha", (int, float))
        else:
            raise SupertreeError("no alpha given on the command line or in the certificate file")
    else:
        raise SupertreeError("certify needs --certificate FILE or --construct t11m3")
    verdict = classify(h, cert, alpha, tol=args.tol)
    if args.output == "json":
        print(
            json.dumps(
                {
                    "alpha": verdict.alpha,
                    "class": verdict.classification,
                    "consistent": verdict.consistent,
                    # float: an int weight, or a vertex without edges, leaves an int slack
                    "min_vertex_slack": float(min(verdict.vertex_slacks)),
                    "max_vertex_slack": float(max(verdict.vertex_slacks)),
                    "min_edge_slack": float(min(verdict.edge_slacks)),
                    "max_edge_slack": float(max(verdict.edge_slacks)),
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"class = {verdict.classification}  (alpha = {_fmt(alpha)})")
    print(
        f"vertex slacks in [{min(verdict.vertex_slacks):.3e}, {max(verdict.vertex_slacks):.3e}]"
    )
    print(f"edge slacks in [{min(verdict.edge_slacks):.3e}, {max(verdict.edge_slacks):.3e}]")
    print(f"consistent = {verdict.consistent}")
    print(_implication(verdict, h.k))
    return 0


def _print_report_table(report) -> None:
    print(f"k = {report.k}  m = {report.m}  classes = {len(report.entries)}")
    for e in report.entries:
        tie = "  (tie)" if e.tie_with_next else ""
        print(f"  rank {e.rank:2d}  rho = {_fmt(e.rho):<12}  method = alpha{tie}  {e.key}")


def _cmd_verify(args) -> int:
    name = args.theorem
    try:
        if name in ("main1", "main2"):
            if args.k is None or args.m is None:
                raise SupertreeError(f"verify {name} needs --k and --m")
            rec = verify_top_four(_enum_limit(args.m), args.k)
        elif name == "hofmeister":
            if args.k not in (None, 2):
                raise SupertreeError("hofmeister ordering is the k=2 case")
            if args.m is None:
                raise SupertreeError("verify hofmeister needs --m")
            rec = verify_top_four(_enum_limit(args.m), 2)
        elif name == "partition":
            if args.k is None or args.m is None:
                raise SupertreeError("verify partition needs --k and --m")
            rec = verify_partition_lemma(args.m, args.k)
        elif name == "sandwich":
            if args.k is None or args.m is None:
                raise SupertreeError("verify sandwich needs --k and --m")
            rec = verify_sandwich(args.m, args.k)
        else:  # moving-edges
            m_max = args.m if args.m is not None else 6
            if m_max < 3:
                raise SupertreeError(f"verify moving-edges needs --m >= 3, got {m_max}")
            k = args.k if args.k is not None else 3
            rec = verify_moving_edges(k=k, m_max=_enum_limit(m_max))
    except CounterexampleFound as exc:
        print(f"FAIL {name}: {exc}")
        if exc.offending is not None:
            print(f"offending: {exc.offending}")
        return 1
    print(f"PASS {name}: {rec.name}")
    for line in rec.details:
        print(f"  {line}")
    report = rec.data.get("report")
    if report is not None:
        _print_report_table(report)
    return 0


def _cmd_enumerate(args) -> int:
    report = rank_spectra(_enum_limit(args.m), args.k)
    if args.output == "json":
        _emit(json.dumps(report_to_dict(report), sort_keys=True, indent=2), args.out)
    elif args.output == "csv":
        _emit(report_to_csv(report), args.out)
    else:
        _print_report_table(report)
        if args.out:
            _emit(report_to_csv(report), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="supertrees",
        description="Spectral radii of k-uniform supertrees: construction, "
        "computation, certification, and ordering verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="construct a named family and write it as json")
    g.add_argument(
        "family",
        choices=["hyperstar", "double-star-power", "tree-power", "broom", "f-tree-power", "path-power"],
    )
    g.add_argument("--k", type=int, required=True, help="edge cardinality")
    g.add_argument("--m", type=int, help="edge count (hyperstar, f-tree-power, path-power)")
    g.add_argument("--t", type=str, help="branch counts: A,B for double-star-power, T1,T2,T3 for broom")
    g.add_argument("--tree", type=str, help="base tree: star:N, path:N, double-star:A,B, f:N")
    g.add_argument("--out", type=str, help="output file (default stdout)")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("rho", help="compute the spectral radius of a hypergraph file")
    r.add_argument("file")
    r.add_argument("--method", choices=["power", "alpha", "auto"], default="auto",
                   help="auto: alpha on a supertree, power otherwise")
    r.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="power-iteration tolerance; used only when power runs")
    r.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="power-iteration step cap; used only when power runs")
    r.add_argument("--output", choices=["human", "json"], default="human")
    r.set_defaults(func=_cmd_rho)

    c = sub.add_parser("certify", help="classify a weighted incidence certificate")
    c.add_argument("file")
    c.add_argument("--alpha", type=float)
    c.add_argument("--certificate", type=str, help="certificate json file")
    c.add_argument("--construct", choices=["t11m3"], help="build the explicit broom certificate")
    c.add_argument("--tol", type=float, default=DEFAULT_CERT_TOL)
    c.add_argument("--output", choices=["human", "json"], default="human")
    c.set_defaults(func=_cmd_certify)

    v = sub.add_parser("verify", help="run an ordering verifier; exit 0 iff it passes")
    v.add_argument(
        "theorem",
        choices=["main1", "main2", "hofmeister", "moving-edges", "partition", "sandwich"],
    )
    v.add_argument("--k", type=int)
    v.add_argument("--m", type=int)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("enumerate", help="rank all classes at (k, m) by spectral radius")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--output", choices=["human", "json", "csv"], default="human")
    e.add_argument("--out", type=str)
    e.set_defaults(func=_cmd_enumerate)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SupertreeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
