"""The three benchmark workloads: their inputs, the timed call per item and
the correctness gate each result must pass.

Every supertree is fixed (the random ones are drawn from an rng keyed by
their size, not by the workload seed), so every seed measures the same work;
the seed shuffles the order in which the items run.  Keeping the shapes fixed
matters: power-iteration step counts on random supertrees at k=5, m=300 vary
from 1,371 to 3,646 across rng seeds, which would swamp any change.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Callable

#: Relative slack for comparing a computed radius against a closed form.
CLOSED_FORM_REL = 1e-9
#: Relative offset of the two certificates that bracket a returned radius.
CERT_BRACKET_REL = 1e-9
#: Widest Collatz-Wielandt bracket, relative to rho, a power result may carry.
CW_BRACKET_REL = 1e-9
#: Float rounding allowed when testing that a bracket contains a closed form.
ROUNDING_REL = 1e-12

#: (theorem, k, m, expected class count); 106 for k=2, m=9 is OEIS A000055.
VERIFY_RUNS = (
    ("main2", 3, 8, 126),
    ("main2", 4, 8, 154),
    ("hofmeister", None, 9, 106),
)


#: Seconds the reference kernel takes at the speed every time is scaled to
#: (its median on the 2-core machine the benchmark was written on).
REFERENCE_S = 0.0045


class GateError(Exception):
    """A result came back but is wrong."""


@dataclass
class Item:
    """One timed call.  ``check`` raises on a wrong result and may return a
    relative bracket width it certified; ``edges`` and ``classes`` count the
    supertrees a correct result solved.  ``host`` is the input supertree,
    when there is one, for the outside propagation probe."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], float | None]
    edges: int
    classes: int
    host: object = None


@dataclass
class Outcome:
    label: str
    seconds: float
    edges: int
    classes: int
    error: str = ""
    wrong: bool = False
    width: float | None = None
    scale: float = 1.0


def random_shape(st, m: int, k: int, rng: random.Random):
    """The supertree ``ordering.random_supertree(m, k, rng)`` returns, built
    with one Hypergraph construction instead of one per edge."""
    edges = [tuple(range(k))]
    n = k
    for _ in range(m - 1):
        edges.append((rng.randrange(n),) + tuple(range(n, n + k - 1)))
        n += k - 1
    return st.hypergraph.Hypergraph(k=k, n=n, edges=tuple(edges))


def _fixed_random(st, m: int, k: int):
    return random_shape(st, m, k, random.Random(f"supertree-k{k}-m{m}"))


def path_power_radius(m: int, k: int) -> float:
    """Radius of the kth power of the path with m edges."""
    return (2.0 * math.cos(math.pi / (m + 2))) ** (2.0 / k)


# --- gates -------------------------------------------------------------------


def close_to(ref: float):
    def check(rho):
        if not abs(rho - ref) <= CLOSED_FORM_REL * ref:
            raise GateError(f"rho = {rho!r}, closed form {ref!r}")

    return check


def strictly_between(lo: float, hi: float):
    def check(rho):
        if not lo < rho < hi:
            raise GateError(f"rho = {rho!r} not strictly inside ({lo!r}, {hi!r})")

    return check


def certificate_bracket(st, h):
    """Propagated certificates just above and just below rho must classify
    strictly subnormal and strictly (consistently) supernormal."""
    cert = st.certificates

    def check(rho):
        for factor, want in (
            (1.0 + CERT_BRACKET_REL, cert.STRICTLY_SUBNORMAL),
            (1.0 - CERT_BRACKET_REL, cert.STRICTLY_SUPERNORMAL),
        ):
            alpha = (rho * factor) ** (-h.k)
            verdict = cert.classify(h, cert.propagate_certificate(h, alpha), alpha)
            if verdict.classification != want or not verdict.consistent:
                raise GateError(f"certificate at rho*{factor!r} is {verdict.classification}")

    return check


def principal_pair(st, h, inner=None):
    """Positive k-norm-1 vector whose Collatz-Wielandt bracket (one
    tensor_apply) contains the returned rho and is at most CW_BRACKET_REL
    wide; ``inner(lo, hi)`` checks the bracket against a reference."""

    def check(pair):
        x = pair.x
        if len(x) != h.n or not min(x) > 0.0:
            raise GateError("eigenvector is not positive")
        norm = math.fsum(v**h.k for v in x)
        if not abs(norm - 1.0) <= CW_BRACKET_REL:
            raise GateError(f"eigenvector k-norm^k = {norm!r}")
        ax = st.spectral.tensor_apply(h, x)
        ratios = [a / v ** (h.k - 1) for a, v in zip(ax, x)]
        lo, hi = min(ratios), max(ratios)
        if not (lo <= pair.rho <= hi and hi - lo <= CW_BRACKET_REL * pair.rho):
            raise GateError(f"rho = {pair.rho!r} against bracket [{lo!r}, {hi!r}]")
        if inner is not None:
            inner(lo, hi)
        return (hi - lo) / pair.rho

    return check


def bracket_holds(ref: float):
    def inner(lo, hi):
        if not lo * (1.0 - ROUNDING_REL) <= ref <= hi * (1.0 + ROUNDING_REL):
            raise GateError(f"closed form {ref!r} outside bracket [{lo!r}, {hi!r}]")

    return inner


def bracket_inside(lower: float, upper: float):
    def inner(lo, hi):
        if not (lower < lo and hi < upper):
            raise GateError(f"bracket [{lo!r}, {hi!r}] not inside ({lower!r}, {upper!r})")

    return inner


def cli_passes(name: str, classes: int):
    def check(result):
        status, text = result
        if status != 0:
            raise GateError(f"exit status {status}")
        if not re.search(rf"^PASS {name}:", text, re.M):
            raise GateError("no PASS line")
        found = re.search(r"classes = (\d+)", text)
        if found is None or int(found.group(1)) != classes:
            raise GateError(f"expected {classes} classes, got {found and found.group(1)}")

    return check


# --- workloads ---------------------------------------------------------------


def _radius(st, label, h, check) -> Item:
    cert = st.certificates
    return Item(label, lambda: cert.alpha_normal_radius(h), check, h.m, 1, h)


def _power(st, label, h, inner=None) -> Item:
    spec = st.spectral
    return Item(label, lambda: spec.power_iteration(h), principal_pair(st, h, inner), h.m, 1, h)


def radius_large(st) -> list[Item]:
    con, spec = st.constructors, st.spectral
    items = []
    for k in (3, 5):
        for m in (300, 1000, 3000):
            h = _fixed_random(st, m, k)
            items.append(_radius(st, f"random-k{k}-m{m}", h, certificate_bracket(st, h)))
    for m in (100, 250, 300, 350, 400, 600, 1000):
        h = con.tree_power(con.path(m + 1), 3)
        items.append(_radius(st, f"path3-m{m}", h, close_to(path_power_radius(m, 3))))
    for m in (1000, 3000):
        bounds = (spec.f_tree_power_radius(m, 3), spec.double_star_power_radius(m, 3))
        items.append(_radius(st, f"broom-m{m}", con.broom(1, 1, m - 3, 3), strictly_between(*bounds)))
        items.append(_radius(st, f"hyperstar-m{m}", con.hyperstar(m, 3), close_to(m ** (1.0 / 3))))
    return items


def eigen_medium(st) -> list[Item]:
    con, spec = st.constructors, st.spectral
    items = [
        _power(st, f"random-k{k}-m{m}", _fixed_random(st, m, k))
        for k, m in ((3, 100), (3, 300), (5, 300))
    ]
    for m in (20, 40, 60):
        h = con.tree_power(con.path(m + 1), 3)
        items.append(_power(st, f"path3-m{m}", h, bracket_holds(path_power_radius(m, 3))))
    bounds = (spec.f_tree_power_radius(1000, 3), spec.double_star_power_radius(1000, 3))
    items.append(_power(st, "broom-m1000", con.broom(1, 1, 997, 3), bracket_inside(*bounds)))
    items.append(_power(st, "hyperstar-m1000", con.hyperstar(1000, 3), bracket_holds(1000 ** (1.0 / 3))))
    return items


def _run_cli(st, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = st.cli.main(list(argv))
    return status, out.getvalue()


def verify_exhaustive(st) -> list[Item]:
    os.environ["SUPERTREE_ENUM_LIMIT"] = str(max(m for _, _, m, _ in VERIFY_RUNS))
    items = []
    for theorem, k, m, classes in VERIFY_RUNS:
        argv = ["verify", theorem] + (["--k", str(k)] if k else []) + ["--m", str(m)]
        call = lambda a=argv: _run_cli(st, a)
        items.append(Item(" ".join(argv), call, cli_passes(theorem, classes), classes * m, classes))
    return items


BUILDERS = {"radius-large": radius_large, "eigen-medium": eigen_medium, "verify-exhaustive": verify_exhaustive}
WORKLOADS = tuple(BUILDERS)


def build(st, workload: str, seed: int) -> list[Item]:
    """The workload's items in the order the seed gives them."""
    items = BUILDERS[workload](st)
    random.Random(seed).shuffle(items)
    return items


# --- running -----------------------------------------------------------------


def _reference_tree() -> tuple[list[tuple[int, ...]], int]:
    rng = random.Random("reference")
    edges, n = [(0, 1, 2)], 3
    for _ in range(59):
        edges.append((rng.randrange(n), n, n + 1))
        n += 2
    return edges, n


_REF_EDGES, _REF_N = _reference_tree()


def reference_seconds() -> float:
    """Time of a fixed pure-Python kernel: 25 shifted power steps on a fixed
    60-edge 3-uniform supertree, written out here so that no change to the
    package moves it.

    The machine this benchmark runs on is shared, and its speed swings by up
    to 2x over minutes.  Each item's time is scaled by REFERENCE_S over the
    mean of this kernel's times just before and just after the item, which
    halved the run-to-run spread of ``wall_s`` where it was measured.
    """
    start = time.perf_counter()
    x = [_REF_N ** (-1.0 / 3)] * _REF_N
    for _ in range(25):
        ax = [0.0] * _REF_N
        for e in _REF_EDGES:
            vals = [x[v] for v in e]
            pre = [1.0] * 4
            for i in range(3):
                pre[i + 1] = pre[i] * vals[i]
            suf = [1.0] * 4
            for i in range(2, -1, -1):
                suf[i] = suf[i + 1] * vals[i]
            for i, v in enumerate(e):
                ax[v] += pre[i] * suf[i + 1]
        y = [a + v * v for a, v in zip(ax, x)]
        x = [v**0.5 for v in y]
        norm = sum(v**3 for v in x) ** (1.0 / 3)
        x = [v / norm for v in x]
    return time.perf_counter() - start


def solve(items: list[Item], wrap=None) -> tuple[list[Outcome], list[object]]:
    """Time each item's call; an item that raises is recorded, never retried.
    ``wrap(call)`` may replace each call (the tracer's per-item root span).
    Each outcome carries the reference scale measured around it."""
    outcomes, results = [], []
    ref_before = reference_seconds()
    for item in items:
        call = wrap(item.call) if wrap else item.call
        error, result = "", None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # every failure is counted, with its type
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        ref_after = reference_seconds()
        scale = REFERENCE_S / (0.5 * (ref_before + ref_after))
        outcomes.append(Outcome(item.label, seconds, item.edges, item.classes, error, scale=scale))
        results.append(result)
        ref_before = ref_after
    return outcomes, results


def gate(items: list[Item], outcomes: list[Outcome], results: list[object]) -> None:
    """Check every returned result, outside the timed region."""
    for item, out, result in zip(items, outcomes, results):
        if out.error:
            continue
        try:
            out.width = item.check(result)
        except Exception as exc:  # a gate that raises is a wrong result too
            out.error = f"gate {type(exc).__name__}: {exc}"
            out.wrong = True
