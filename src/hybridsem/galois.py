"""Galois connections, Galois relations, and their law-checking harness.

Everything here works over finite posets (usually powerset lattices of
small base sets) and checks the defining laws exhaustively:

  (a) alpha is increasing        (b) gamma is increasing
  (c) gamma o alpha is extensive (d) alpha o gamma is reductive
  (e) alpha(x) <= y  iff  x <= gamma(y)

and for relations the closure properties: down-up closure, join
closure on the left, meet closure on the right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import LawsViolated

__all__ = [
    "FinitePoset",
    "powerset_lattice",
    "Connection",
    "transformers",
    "connection_to_relation",
    "galois_laws_check",
    "galois_relation_check",
    "relation_to_connection",
]

MAX_CARRIER = 64


@dataclass(frozen=True)
class FinitePoset:
    elements: tuple
    leq: frozenset  # pairs (x, y) with x <= y

    @staticmethod
    def make(elements: Iterable, leq_pred: Callable) -> "FinitePoset":
        elems = tuple(elements)
        rel = frozenset(
            (x, y) for x in elems for y in elems if leq_pred(x, y)
        )
        p = FinitePoset(elems, rel)
        p._check_order()
        return p

    def _check_order(self):
        le = self.le
        for x in self.elements:
            assert le(x, x), f"not reflexive at {x!r}"
        for x, y in self.leq:
            if le(y, x) and x != y:
                raise AssertionError(f"not antisymmetric at {x!r},{y!r}")
        for x, y in self.leq:
            for z in self.elements:
                if le(y, z) and not le(x, z):
                    raise AssertionError(f"not transitive at {x!r},{y!r},{z!r}")

    def le(self, x, y) -> bool:
        return (x, y) in self.leq

    def join(self, xs):
        """Least upper bound of xs, or None if it does not exist."""
        ubs = [u for u in self.elements if all(self.le(x, u) for x in xs)]
        least = [u for u in ubs if all(self.le(u, v) for v in ubs)]
        return least[0] if least else None

    def meet(self, xs):
        lbs = [l for l in self.elements if all(self.le(l, x) for x in xs)]
        greatest = [l for l in lbs if all(self.le(m, l) for m in lbs)]
        return greatest[0] if greatest else None

    def is_complete_lattice(self) -> bool:
        for r in range(len(self.elements) + 1):
            for xs in itertools.combinations(self.elements, r):
                if self.join(xs) is None or self.meet(xs) is None:
                    return False
        return True


def powerset_lattice(base: Iterable) -> FinitePoset:
    base = tuple(base)
    if 2 ** len(base) > MAX_CARRIER:
        raise LawsViolated(
            f"powerset carrier over {len(base)} elements exceeds the exhaustive cap"
        )
    subsets = [
        frozenset(c)
        for r in range(len(base) + 1)
        for c in itertools.combinations(base, r)
    ]
    return FinitePoset(tuple(subsets), frozenset(
        (a, b) for a in subsets for b in subsets if a <= b
    ))


@dataclass(frozen=True)
class Connection:
    alpha: Callable
    gamma: Callable


def transformers(r: frozenset, P: frozenset, which: str, left=None, right=None):
    """Set transformers post/pre and their complement conjugates.

    r is a set of pairs; P a subset of the appropriate side.  `left`
    and `right` are the full carriers, required for the tilde forms.
    """
    r = frozenset(r)
    if which == "post":
        return frozenset(y for x, y in r if x in P)
    if which == "pre":
        return frozenset(x for x, y in r if y in P)
    if which == "tilde-post":
        inner = transformers(r, frozenset(left) - P, "post")
        return frozenset(right) - inner
    if which == "tilde-pre":
        inner = transformers(r, frozenset(right) - P, "pre")
        return frozenset(left) - inner
    raise ValueError(which)


def hom_connection(h: Callable, base: Iterable) -> Connection:
    base = tuple(base)
    return Connection(
        alpha=lambda xs: frozenset(h(x) for x in xs),
        gamma=lambda ys: frozenset(x for x in base if h(x) in ys),
    )


def galois_laws_check(conn: Connection, C: FinitePoset, A: FinitePoset) -> dict:
    """Exhaustive check of the connection laws; every violation gets a witness."""
    report = {
        "alpha_increasing": [],
        "gamma_increasing": [],
        "gamma_alpha_extensive": [],
        "alpha_gamma_reductive": [],
        "adjunction": [],
    }
    for x, y in C.leq:
        if not A.le(conn.alpha(x), conn.alpha(y)):
            report["alpha_increasing"].append((x, y))
    for x, y in A.leq:
        if not C.le(conn.gamma(x), conn.gamma(y)):
            report["gamma_increasing"].append((x, y))
    for x in C.elements:
        if not C.le(x, conn.gamma(conn.alpha(x))):
            report["gamma_alpha_extensive"].append(x)
    for y in A.elements:
        if not A.le(conn.alpha(conn.gamma(y)), y):
            report["alpha_gamma_reductive"].append(y)
    for x in C.elements:
        for y in A.elements:
            if A.le(conn.alpha(x), y) != C.le(x, conn.gamma(y)):
                report["adjunction"].append((x, y))
    report["ok"] = not any(v for k, v in report.items() if k != "ok")
    return report


def connection_to_relation(conn: Connection, C: FinitePoset, A: FinitePoset) -> frozenset:
    """R = {(x,y) | alpha(x) <= y}, verified equal to {(x,y) | x <= gamma(y)}."""
    laws = galois_laws_check(conn, C, A)
    if not laws["ok"]:
        bad = {k: v for k, v in laws.items() if k != "ok" and v}
        raise LawsViolated(f"connection fails: {bad}")
    via_alpha = frozenset(
        (x, y) for x in C.elements for y in A.elements if A.le(conn.alpha(x), y)
    )
    via_gamma = frozenset(
        (x, y) for x in C.elements for y in A.elements if C.le(x, conn.gamma(y))
    )
    assert via_alpha == via_gamma
    return via_alpha


def relation_to_connection(R: frozenset, C: FinitePoset, A: FinitePoset) -> Connection:
    """Reconstruct alpha(x) = meet{y | (x,y) in R}, gamma(y) = join{x | ...}."""
    def alpha(x):
        return A.meet([y for xx, y in R if xx == x])

    def gamma(y):
        return C.join([x for x, yy in R if yy == y])

    return Connection(alpha, gamma)


def galois_relation_check(R: frozenset, C: FinitePoset, A: FinitePoset) -> dict:
    """Closure properties characterizing Galois relations between
    complete lattices, plus the round-trip reconstruction check."""
    R = frozenset(R)
    report = {"down_up": [], "left_join": [], "right_meet": [], "round_trip": []}
    # down-up closure: x' <= x, (x,y) in R, y <= y'  =>  (x',y') in R
    for x, y in R:
        for xp in C.elements:
            if not C.le(xp, x):
                continue
            for yp in A.elements:
                if A.le(y, yp) and (xp, yp) not in R:
                    report["down_up"].append((xp, x, y, yp))
    # join closure on the left per y (empty join is bottom: always related)
    for y in A.elements:
        xs = [x for x, yy in R if yy == y]
        j = C.join(xs)
        if j is None or (j, y) not in R:
            report["left_join"].append((y, j))
    # meet closure on the right per x (empty meet is top)
    for x in C.elements:
        ys = [y for xx, y in R if xx == x]
        m = A.meet(ys)
        if m is None or (x, m) not in R:
            report["right_meet"].append((x, m))
    member = not (report["down_up"] or report["left_join"] or report["right_meet"])
    if member:
        conn = relation_to_connection(R, C, A)
        back = frozenset(
            (x, y) for x in C.elements for y in A.elements if A.le(conn.alpha(x), y)
        )
        if back != R:
            report["round_trip"].append((back - R, R - back))
            member = False
    report["tensor_member"] = member
    report["ok"] = member
    return report
